//! Canonical Huffman coding over `u16` symbols.
//!
//! This is the entropy-coding stage of the paper's compression flow
//! (Fig. 5): quantized weight dictionary indices are Huffman-coded because
//! their occurrence probabilities are strongly unbalanced.
//!
//! A stream states only what its caller does not already know: the
//! caller fixes the alphabet `0..alphabet` and the symbol count. The
//! stream opens with a 4-bit code-shape tag. Tag 1 is followed by one
//! 4-bit code length per symbol of the alphabet, in symbol order (0 for
//! an absent symbol), then the canonical codes of the symbols; codes are
//! at most [`MAX_CODE_LEN`] bits long. Tag 0 writes every symbol in the
//! fixed `ceil(log2(alphabet))` bits instead, with no table, and
//! [`encode`] picks it whenever the table and the Huffman codes would be
//! no shorter. A stream is zero-padded to a byte, so it is never more
//! than one byte longer than the fixed-width dictionary.
//!
//! [`decode_bytes`] parses untrusted input (the model registry stores
//! these streams): a malformed table or stream yields
//! [`CodingError::CorruptStream`], never a panic, and the caller checks
//! the symbol count it passes before anything is allocated.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bits::{BitReader, BitWriter};
use crate::CodingError;

/// Maximum symbol value supported (`dictionary index` for up to 16-bit
/// quantization).
pub const MAX_SYMBOL: u16 = u16::MAX;

/// Longest code the encoder emits and a 4-bit table entry can state.
pub const MAX_CODE_LEN: u8 = 15;

/// Bits of the code-shape tag and of each code-length table entry.
const NIBBLE: u8 = 4;

/// Code-shape tag: every symbol in `ceil(log2(alphabet))` bits, no table.
const FIXED: u64 = 0;

/// Code-shape tag: a code-length table, then canonical Huffman codes.
const TABLE: u64 = 1;

/// An encoded Huffman stream (code-length table + payload) with the
/// alphabet and symbol count its decoder needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    bytes: Vec<u8>,
    /// Symbols are drawn from `0..alphabet`.
    pub alphabet: usize,
    /// Number of payload symbols.
    pub symbol_count: usize,
    /// Payload-only size in bits (excluding the code-length table), the
    /// figure used in compressed-size accounting.
    pub payload_bits: usize,
}

impl Encoded {
    /// Borrows the raw stream bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Takes the raw stream bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Computes Huffman code lengths for a frequency table (`(symbol,
/// count)` pairs, counts > 0), unbounded in length.
///
/// Returns `(symbol, length)` pairs. A single-symbol alphabet gets a
/// 1-bit code.
pub fn code_lengths(freqs: &[(u16, u64)]) -> Vec<(u16, u8)> {
    match freqs.len() {
        0 => return Vec::new(),
        1 => return vec![(freqs[0].0, 1)],
        _ => {}
    }
    // Min-heap of (count, node id); internal nodes get ids after the
    // leaves, so ties go to the older node.
    let n = freqs.len();
    let mut parent = vec![0; 2 * n - 1];
    let mut heap: BinaryHeap<_> = (0..n).map(|i| Reverse((freqs[i].1, i))).collect();
    for next in n..2 * n - 1 {
        let Reverse((ca, a)) = heap.pop().expect("two nodes left");
        let Reverse((cb, b)) = heap.pop().expect("two nodes left");
        parent[a] = next;
        parent[b] = next;
        heap.push(Reverse((ca + cb, next)));
    }
    // A parent's id exceeds its children's: fill depths root-first.
    let mut depth = vec![0u8; 2 * n - 1];
    for i in (0..2 * n - 2).rev() {
        depth[i] = depth[parent[i]] + 1;
    }
    freqs.iter().zip(depth).map(|((s, _), d)| (*s, d)).collect()
}

/// [`code_lengths`] capped at [`MAX_CODE_LEN`]: while a code is too
/// long, halve every count (rounding up) and rebuild. Counts reach all
/// ones at worst, a balanced code, so this ends for up to
/// `2^MAX_CODE_LEN` symbols.
fn limited_lengths(freqs: &[(u16, u64)]) -> Vec<(u16, u8)> {
    let mut freqs = freqs.to_vec();
    loop {
        let lengths = code_lengths(&freqs);
        if lengths.iter().all(|(_, l)| *l <= MAX_CODE_LEN) {
            return lengths;
        }
        for (_, c) in &mut freqs {
            *c = c.div_ceil(2);
        }
    }
}

/// Assigns canonical codes from `(symbol, length)` pairs: shorter codes
/// first, ties broken by symbol value. Lengths must lie in `1..=64`.
pub fn canonical_codes(lengths: &[(u16, u8)]) -> Vec<(u16, u8, u64)> {
    let mut sorted: Vec<(u16, u8)> = lengths.to_vec();
    sorted.sort_by_key(|(s, l)| (*l, *s));
    let mut out = Vec::with_capacity(sorted.len());
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for (s, l) in sorted {
        // A 64-bit shift only happens from the all-zero start code.
        code = code
            .checked_shl(u32::from(l.saturating_sub(prev_len)))
            .unwrap_or(0);
        out.push((s, l, code));
        code = code.wrapping_add(1);
        prev_len = l;
    }
    out
}

/// Occurrence count of every symbol value up to the largest present.
fn symbol_counts(symbols: &[u16]) -> Vec<u64> {
    let top = symbols.iter().copied().max().map_or(0, usize::from);
    let mut counts = vec![0u64; top + 1];
    for &s in symbols {
        counts[usize::from(s)] += 1;
    }
    counts
}

/// The `(symbol, count)` table of a stream, ascending by symbol.
fn frequencies(symbols: &[u16]) -> Vec<(u16, u64)> {
    (0..=MAX_SYMBOL)
        .zip(symbol_counts(symbols))
        .filter(|(_, c)| *c > 0)
        .collect()
}

/// Bits of a fixed-width code over `0..alphabet` (at least one).
fn fixed_width(alphabet: usize) -> usize {
    (usize::BITS - alphabet.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// The code [`encode`] picks for `symbols`: `Some` code length per
/// symbol of `0..alphabet` (0 for an absent symbol) when the table and
/// the Huffman payload together are shorter than the fixed-width code,
/// else `None`.
fn choose_code(symbols: &[u16], alphabet: usize) -> Option<Vec<u8>> {
    let freqs = frequencies(symbols);
    let mut table = vec![0u8; alphabet];
    let mut bits = usize::from(NIBBLE) * alphabet;
    for ((s, l), (_, c)) in limited_lengths(&freqs).into_iter().zip(&freqs) {
        table[usize::from(s)] = l;
        bits += usize::from(l) * *c as usize;
    }
    (bits < symbols.len() * fixed_width(alphabet)).then_some(table)
}

/// Encodes a symbol stream over the alphabet `0..alphabet`.
///
/// # Errors
///
/// Returns [`CodingError::InvalidInput`] for an empty input (there is
/// nothing to build a code from; callers treat empty layers specially),
/// an alphabet above `MAX_SYMBOL + 1`, a symbol outside the alphabet or
/// more than `2^MAX_CODE_LEN` distinct symbols.
pub fn encode(symbols: &[u16], alphabet: usize) -> Result<Encoded, CodingError> {
    if symbols.is_empty() {
        return Err(CodingError::InvalidInput("empty symbol stream".into()));
    }
    let top = symbols.iter().copied().max().map_or(0, usize::from);
    if alphabet > usize::from(MAX_SYMBOL) + 1
        || top >= alphabet
        || frequencies(symbols).len() > 1 << MAX_CODE_LEN
    {
        return Err(CodingError::InvalidInput(format!(
            "symbols up to {top} need the alphabet 0..{alphabet} and at most {} codes",
            1 << MAX_CODE_LEN
        )));
    }
    // `(code, length)` of every symbol up to the largest present.
    let width = fixed_width(alphabet) as u8;
    let mut codes: Vec<(u64, u8)> = (0..=top as u64).map(|s| (s, width)).collect();
    let mut w = BitWriter::new();
    match choose_code(symbols, alphabet) {
        None => w.write_bits(FIXED, NIBBLE),
        Some(lengths) => {
            w.write_bits(TABLE, NIBBLE);
            for l in &lengths {
                w.write_bits(u64::from(*l), NIBBLE);
            }
            for (s, l, c) in canonical_codes(&present(&lengths)) {
                codes[usize::from(s)] = (c, l);
            }
        }
    }
    let header_bits = w.bit_len();
    for s in symbols {
        let (code, len) = codes[usize::from(*s)];
        w.write_bits(code, len);
    }
    let payload_bits = w.bit_len() - header_bits;
    Ok(Encoded {
        bytes: w.into_bytes(),
        alphabet,
        symbol_count: symbols.len(),
        payload_bits,
    })
}

/// The `(symbol, length)` pairs of a code-length table's present symbols.
fn present(lengths: &[u8]) -> Vec<(u16, u8)> {
    (0..=MAX_SYMBOL)
        .zip(lengths.iter().copied())
        .filter(|(_, l)| *l > 0)
        .collect()
}

/// Decodes a stream produced by [`encode`].
///
/// # Errors
///
/// Returns [`CodingError::CorruptStream`] on truncated or inconsistent
/// input.
pub fn decode(enc: &Encoded) -> Result<Vec<u16>, CodingError> {
    decode_bytes(enc.as_bytes(), enc.alphabet, enc.symbol_count)
}

fn corrupt(detail: String) -> CodingError {
    CodingError::CorruptStream(detail)
}

/// Decodes `count` symbols over the alphabet `0..alphabet` from raw
/// stream bytes. The caller checks `count` against its own cap: the
/// output is allocated once the stream is known to hold at least one
/// bit per symbol.
///
/// # Errors
///
/// Returns [`CodingError::CorruptStream`] on truncated input, an
/// alphabet above `MAX_SYMBOL + 1`, an unknown code shape, a code table
/// that violates the Kraft inequality, a payload that runs into no code
/// or past the alphabet, and any stream that is not exactly what
/// [`encode`] writes for the symbols it decodes to.
pub fn decode_bytes(bytes: &[u8], alphabet: usize, count: usize) -> Result<Vec<u16>, CodingError> {
    let end = bytes.len() * 8;
    // Every symbol costs at least one payload bit.
    if alphabet > usize::from(MAX_SYMBOL) + 1
        || count == 0
        || count > end.saturating_sub(usize::from(NIBBLE))
    {
        return Err(corrupt(format!(
            "{count} symbols over 0..{alphabet} do not fit {} bytes",
            bytes.len()
        )));
    }
    let mut r = BitReader::new(bytes);
    let mut lengths = None;
    // One lookup on the next `longest` bits gives `(length, symbol)`;
    // length 0 marks a prefix no code covers.
    let (longest, lookup) = match r.read_bits(NIBBLE)? {
        FIXED => {
            let width = fixed_width(alphabet);
            // A value past the alphabet has length 0: no code.
            let entry = |v| (if v < alphabet { width as u8 } else { 0 }, v as u16);
            (width, (0..1 << width).map(entry).collect())
        }
        TABLE => {
            let table = (0..alphabet)
                .map(|_| r.read_bits(NIBBLE).map(|l| l as u8))
                .collect::<Result<Vec<u8>, _>>()?;
            let kraft: u64 = table
                .iter()
                .filter(|l| **l > 0)
                .map(|l| 1 << (MAX_CODE_LEN - l))
                .sum();
            if kraft == 0 || kraft > 1 << MAX_CODE_LEN {
                return Err(corrupt("code table is empty or violates Kraft".into()));
            }
            let codes = canonical_codes(&present(&table));
            let longest = usize::from(codes.last().map_or(1, |c| c.1));
            let mut lookup = vec![(0u8, 0u16); 1 << longest];
            for (s, l, c) in codes {
                let shift = longest - usize::from(l);
                let first = (c as usize) << shift;
                lookup[first..first + (1 << shift)].fill((l, s));
            }
            lengths = Some(table);
            (longest, lookup)
        }
        shape => return Err(corrupt(format!("unknown code shape {shape}"))),
    };
    let mut pos = r.bit_pos();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (len, symbol) = lookup[(peek_u64(bytes, pos) >> (64 - longest)) as usize];
        let len = usize::from(len);
        if len == 0 || pos + len > end {
            return Err(corrupt("payload matches no code or ends early".into()));
        }
        pos += len;
        out.push(symbol);
    }
    // Canonical form: exactly the bytes `encode` writes for `out` — the
    // code it picks, then zero padding to the byte and no more.
    let padded = pos.div_ceil(8) == bytes.len()
        && (pos.is_multiple_of(8) || bytes[pos / 8] << (pos % 8) == 0);
    if !padded || choose_code(&out, alphabet) != lengths {
        return Err(corrupt("not the canonical encoding of its symbols".into()));
    }
    Ok(out)
}

/// The 64 bits starting at bit `pos`, MSB-first, zero past the end.
fn peek_u64(bytes: &[u8], pos: usize) -> u64 {
    let (start, shift) = (pos / 8, pos % 8);
    let mut buf = [0u8; 9];
    match bytes.get(start..start + 9) {
        Some(window) => buf.copy_from_slice(window),
        None => {
            let tail = bytes.get(start..).unwrap_or_default();
            buf[..tail.len()].copy_from_slice(tail);
        }
    }
    let mut head = [0u8; 8];
    head.copy_from_slice(&buf[..8]);
    u64::from_be_bytes(head) << shift | u64::from(buf[8]) << shift >> 8
}

/// Shannon-optimal payload size in bits for a symbol stream — a lower
/// bound used in tests and size sanity checks.
pub fn entropy_bits(symbols: &[u16]) -> f64 {
    let n = symbols.len() as f64;
    symbol_counts(symbols)
        .iter()
        .filter(|c| **c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -(c as f64) * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `encode` over the smallest alphabet that holds `data`.
    fn enc(data: &[u16]) -> Encoded {
        let alphabet = data.iter().copied().max().map_or(1, |m| usize::from(m) + 1);
        encode(data, alphabet).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        let data = vec![3u16, 3, 3, 3, 1, 1, 2, 7];
        assert_eq!(decode(&enc(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_single_symbol() {
        let data = vec![42u16; 100];
        let enc = enc(&data);
        assert_eq!(decode(&enc).unwrap(), data);
        // 1 bit per symbol.
        assert_eq!(enc.payload_bits, 100);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 90% zeros, 10% spread: payload ≈ entropy.
        let mut data = vec![0u16; 900];
        for i in 0..100 {
            data.push(1 + (i % 7) as u16);
        }
        let enc = enc(&data);
        let h = entropy_bits(&data);
        assert!(enc.payload_bits as f64 >= h - 1e-9);
        assert!(
            (enc.payload_bits as f64) < h + data.len() as f64,
            "payload {} vs entropy {h}",
            enc.payload_bits
        );
        // Far below the 4 bits/symbol a flat code would need.
        assert!(enc.payload_bits < 2 * data.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(encode(&[], 4).is_err());
    }

    #[test]
    fn symbols_outside_the_alphabet_are_rejected() {
        assert!(encode(&[0, 4], 4).is_err());
        assert!(encode(&[0], usize::from(MAX_SYMBOL) + 2).is_err());
        assert!(encode(&[0, 3], 4).is_ok());
    }

    #[test]
    fn corrupt_stream_detected() {
        let data = vec![1u16, 2, 3, 4, 5, 6, 7, 8];
        let enc = enc(&data);
        let mut bytes = enc.as_bytes().to_vec();
        bytes.truncate(bytes.len() / 2);
        assert!(decode_bytes(&bytes, enc.alphabet, data.len()).is_err());
    }

    /// A tag-1 stream: `lengths` (one per symbol of the alphabet), then
    /// `symbols` in the canonical codes of those lengths.
    fn table_stream(lengths: &[u8], symbols: &[u16]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(TABLE, NIBBLE);
        for l in lengths {
            w.write_bits(u64::from(*l), NIBBLE);
        }
        let codes = canonical_codes(&present(lengths));
        for s in symbols {
            let (_, l, c) = codes.iter().find(|c| c.0 == *s).unwrap();
            w.write_bits(*c, *l);
        }
        w.into_bytes()
    }

    /// A tag-0 stream: `symbols` in `width` bits each.
    fn fixed_stream(width: u8, symbols: &[u16]) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(FIXED, NIBBLE);
        for s in symbols {
            w.write_bits(u64::from(*s), width);
        }
        w.into_bytes()
    }

    fn is_corrupt(r: Result<Vec<u16>, CodingError>) -> bool {
        matches!(r, Err(CodingError::CorruptStream(_)))
    }

    #[test]
    fn canonical_codes_take_any_length() {
        // A 64-bit code once overflowed the shift from the previous
        // length in debug builds.
        assert_eq!(canonical_codes(&[(0, 64)]), vec![(0, 64, 0)]);
        assert_eq!(canonical_codes(&[(1, 1), (0, 64)])[1], (0, 64, 1 << 63));
    }

    /// Forty-one zeros, a one and a two: Huffman (1, 2, 2 bits) beats
    /// the 2-bit fixed code over `0..4`, and leaves 7 padding bits.
    fn skewed() -> Vec<u16> {
        let mut data = vec![0u16; 41];
        data.extend([1, 2]);
        data
    }

    #[test]
    fn the_shorter_code_shape_is_chosen() {
        let data = skewed();
        let huff = encode(&data, 4).unwrap();
        assert_eq!(huff.as_bytes(), table_stream(&[1, 2, 2, 0], &data));
        // Near-uniform symbols: the 4-bit table costs more than it saves.
        let flat = [0u16, 1, 2, 3, 0, 1, 2, 3];
        let enc = encode(&flat, 4).unwrap();
        assert_eq!(enc.as_bytes(), fixed_stream(2, &flat));
        assert_eq!((enc.as_bytes().len(), enc.payload_bits), (3, 16));
        assert_eq!(decode(&enc).unwrap(), flat);
    }

    #[test]
    fn malformed_code_tables_are_corrupt() {
        // Kraft sum 3/2: three 1-bit codes.
        let kraft = table_stream(&[1, 1, 1, 0], &[]);
        assert!(is_corrupt(decode_bytes(
            &[&kraft[..], &[0xFF]].concat(),
            4,
            2
        )));
        // No code at all.
        let empty = table_stream(&[0, 0, 0, 0], &[]);
        assert!(is_corrupt(decode_bytes(
            &[&empty[..], &[0xFF]].concat(),
            4,
            2
        )));
        // An incomplete code whose payload runs into its gap.
        let gap = table_stream(&[2, 2, 0, 0], &[]);
        assert!(is_corrupt(decode_bytes(
            &[&gap[..], &[0xC0]].concat(),
            4,
            1
        )));
        // An unknown code shape, and a fixed-width value past the
        // alphabet.
        let mut shape = encode(&skewed(), 4).unwrap().into_bytes();
        shape[0] |= 0x20;
        assert!(is_corrupt(decode_bytes(&shape, 4, 43)));
        assert!(is_corrupt(decode_bytes(&fixed_stream(2, &[0, 3]), 3, 2)));
        // An alphabet no symbol can reach.
        let ok = encode(&skewed(), 4).unwrap().into_bytes();
        assert_eq!(decode_bytes(&ok, 4, 43).unwrap(), skewed());
        assert!(is_corrupt(decode_bytes(&ok, 1 << 17, 43)));
    }

    #[test]
    fn non_canonical_streams_are_corrupt() {
        let data = skewed();
        let good = encode(&data, 4).unwrap().into_bytes();
        assert_eq!(decode_bytes(&good, 4, data.len()).unwrap(), data);
        // A trailing byte, and a set padding bit, decode to the same
        // symbols but are not what `encode` writes.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(is_corrupt(decode_bytes(&trailing, 4, data.len())));
        let mut padding = good.clone();
        *padding.last_mut().unwrap() |= 1;
        assert!(is_corrupt(decode_bytes(&padding, 4, data.len())));
        // A valid complete code, but not the one `encode` picks; and the
        // fixed-width shape where Huffman is shorter, and vice versa.
        let other = table_stream(&[2, 1, 2, 0], &data);
        assert!(is_corrupt(decode_bytes(&other, 4, data.len())));
        let fixed = fixed_stream(2, &data);
        assert!(is_corrupt(decode_bytes(&fixed, 4, data.len())));
        let flat = [0u16, 1, 2, 3];
        let coded = table_stream(&[2, 2, 2, 2], &flat);
        assert!(is_corrupt(decode_bytes(&coded, 4, flat.len())));
    }

    #[test]
    fn symbol_count_is_checked_against_the_stream() {
        let data = skewed();
        let enc = encode(&data, 4).unwrap();
        assert_eq!(decode_bytes(enc.as_bytes(), 4, data.len()).unwrap(), data);
        // More symbols than the payload has bits, and none at all.
        assert!(is_corrupt(decode_bytes(
            enc.as_bytes(),
            4,
            8 * enc.as_bytes().len()
        )));
        assert!(is_corrupt(decode_bytes(enc.as_bytes(), 4, usize::MAX)));
        assert!(is_corrupt(decode_bytes(enc.as_bytes(), 4, 0)));
    }

    #[test]
    fn long_codes_are_capped_at_fifteen_bits() {
        // Fibonacci counts make an unbounded Huffman code 24 bits deep.
        let (mut a, mut b) = (1usize, 1usize);
        let mut data = Vec::new();
        for s in 0..25u16 {
            data.extend(std::iter::repeat_n(s, a));
            (a, b) = (b, a + b);
        }
        let freqs = frequencies(&data);
        assert!(code_lengths(&freqs).iter().any(|(_, l)| *l > MAX_CODE_LEN));
        assert!(limited_lengths(&freqs)
            .iter()
            .all(|(_, l)| *l <= MAX_CODE_LEN));
        assert_eq!(decode(&enc(&data)).unwrap(), data);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // Golden output: the registry stores these bytes. The payloads
        // are the ones the first self-describing encoder wrote for the
        // same streams; only the tag and code-length table in front (16
        // and 8 bytes here) are new.
        let stream: Vec<u16> = (0u32..64)
            .map(|i| ((i * i * 7 + i) % 11) as u16 * 3)
            .collect();
        let enc = encode(&stream, 31).unwrap();
        let payload: [u8; 21] = [
            139, 53, 57, 116, 89, 169, 203, 162, 205, 78, 93, 22, 106, 114, 232, 179, 83, 151, 69,
            154, 156,
        ];
        assert_eq!(enc.as_bytes().len(), 16 + payload.len());
        assert_eq!(&enc.as_bytes()[16..], payload);
        assert_eq!(enc.payload_bits, 168);
        let mut x = 1u64;
        let long: Vec<u16> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = (x >> 40) as u32;
                (r % 16 * (r % 16) / 16) as u16
            })
            .collect();
        let enc = encode(&long, 15).unwrap();
        let fnv = enc.as_bytes()[8..]
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(
            (enc.as_bytes().len(), fnv),
            (8 + 42_210, 0x2e9d_9cc5_d383_276c)
        );
        assert_eq!(enc.payload_bits, 337_675);
        assert_eq!(decode(&enc).unwrap(), long);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = vec![(0u16, 2u8), (1, 2), (2, 3), (3, 3), (4, 3), (5, 3)];
        let codes = canonical_codes(&lengths);
        for (i, (_, la, ca)) in codes.iter().enumerate() {
            for (j, (_, lb, cb)) in codes.iter().enumerate() {
                if i == j {
                    continue;
                }
                if la <= lb {
                    assert_ne!(*ca, cb >> (lb - la), "code {i} is a prefix of code {j}");
                }
            }
        }
    }

    #[test]
    fn code_lengths_match_frequencies() {
        // Most frequent symbol gets the shortest code.
        let freqs = vec![(0u16, 100u64), (1, 10), (2, 10), (3, 1)];
        let lengths = code_lengths(&freqs);
        let len_of = |s: u16| lengths.iter().find(|(x, _)| *x == s).unwrap().1;
        assert!(len_of(0) <= len_of(1));
        assert!(len_of(1) <= len_of(3));
    }

    #[test]
    fn large_alphabet_roundtrip() {
        let data: Vec<u16> = (0..5000).map(|i| ((i * i) % 257) as u16).collect();
        assert_eq!(decode(&enc(&data)).unwrap(), data);
    }
}
