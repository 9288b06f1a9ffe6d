//! Property-based tests for the codecs.

use cs_coding::arith::{self, BitModel, Decoder, Encoder};
use cs_coding::bilevel::{self, BiLevelImage};
use cs_coding::bits::{BitReader, BitWriter};
use cs_coding::huffman;
use proptest::prelude::*;

proptest! {
    /// Bit I/O round-trips arbitrary field sequences.
    #[test]
    fn bit_io_roundtrip(fields in proptest::collection::vec((0u64..u32::MAX as u64, 1u8..33), 1..100)) {
        let mut w = BitWriter::new();
        for (v, bits) in &fields {
            w.write_bits(v & ((1u64 << bits) - 1), *bits);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, bits) in &fields {
            prop_assert_eq!(r.read_bits(*bits).unwrap(), v & ((1u64 << bits) - 1));
        }
    }

    /// The binary arithmetic coder round-trips any bit sequence under
    /// any (shared) model state evolution.
    #[test]
    fn arith_bit_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..4000)) {
        let mut m = BitModel::new();
        let mut e = Encoder::new();
        for b in &bits {
            e.encode(&mut m, *b);
        }
        let bytes = e.finish();
        let mut m = BitModel::new();
        let mut d = Decoder::new(&bytes).unwrap();
        for b in &bits {
            prop_assert_eq!(d.decode(&mut m).unwrap(), *b);
        }
    }

    /// The symbol coder round-trips any stream at any supported width.
    #[test]
    fn arith_symbol_roundtrip(symbols in proptest::collection::vec(0u16..256, 0..2000)) {
        let enc = arith::encode_symbols(&symbols, 8);
        prop_assert_eq!(arith::decode_symbols(&enc).unwrap(), symbols);
    }

    /// Huffman decode(encode(x)) == x and single-bit corruptions are
    /// either detected or produce a different payload (never UB/panic).
    #[test]
    fn huffman_total_and_corruption_safe(symbols in proptest::collection::vec(0u16..64, 1..500),
                                         flip in any::<u16>()) {
        let enc = huffman::encode(&symbols, 64).unwrap();
        prop_assert_eq!(huffman::decode(&enc).unwrap(), symbols);
        let mut bytes = enc.as_bytes().to_vec();
        let pos = usize::from(flip) % bytes.len();
        bytes[pos] ^= 1 << (flip % 8);
        // Must not panic; any Result is acceptable.
        let _ = huffman::decode_bytes(&bytes, 64, enc.symbol_count);
    }

    /// Bilevel codec round-trips and never *expands* catastrophically on
    /// structured inputs (worst case bounded by ~1.3 bits/pixel + header).
    #[test]
    fn bilevel_roundtrip_and_bound(rows in 1usize..40, cols in 1usize..40, seed in 0u64..1000) {
        let mut s = seed | 1;
        let bits: Vec<bool> = (0..rows * cols).map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (s >> 62) & 1 == 1
        }).collect();
        let img = BiLevelImage::from_bits(&bits, cols).unwrap();
        let c = bilevel::compress(&img);
        prop_assert_eq!(bilevel::decompress(&c, rows * cols).unwrap(), img);
        prop_assert!(c.len() <= (rows * cols) / 5 + 64,
                     "{} bytes for {} pixels", c.len(), rows * cols);
    }

    /// Entropy is a lower bound and a 1-extra-bit-per-symbol upper bound
    /// holds for Huffman payloads.
    #[test]
    fn huffman_is_near_entropy(symbols in proptest::collection::vec(0u16..8, 2..1000)) {
        let enc = huffman::encode(&symbols, 8).unwrap();
        let h = huffman::entropy_bits(&symbols);
        prop_assert!(enc.payload_bits as f64 >= h - 1e-6);
        prop_assert!((enc.payload_bits as f64) < h + symbols.len() as f64 + 1.0);
    }
}
