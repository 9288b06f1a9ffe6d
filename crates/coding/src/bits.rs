//! Bit-granular I/O over byte buffers.

use crate::CodingError;

/// Writes bits most-significant-first into a growing byte buffer.
///
/// # Example
///
/// ```
/// use cs_coding::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bit(true);
/// assert_eq!(w.bit_len(), 4);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes, vec![0b1011_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// The `pending` low bits not yet flushed to `bytes` (fewer than 8).
    acc: u128,
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the `count` low bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64);
        let count = u32::from(count);
        self.acc = (self.acc << count) | u128::from(value & low_mask(count));
        self.pending += count;
        while self.pending >= 8 {
            self.pending -= 8;
            self.bytes.push((self.acc >> self.pending) as u8);
        }
        self.acc &= (1 << self.pending) - 1;
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Finalizes into bytes (final partial byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.bytes.push((self.acc << (8 - self.pending)) as u8);
        }
        self.bytes
    }
}

fn low_mask(count: u32) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Reads bits most-significant-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::CorruptStream`] at end of input.
    pub fn read_bit(&mut self) -> Result<bool, CodingError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads `count` bits as an MSB-first integer.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::CorruptStream`] when fewer than `count`
    /// bits remain (nothing is consumed then).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn read_bits(&mut self, count: u8) -> Result<u64, CodingError> {
        assert!(count <= 64);
        let mut left = usize::from(count);
        if left > self.bits_left() {
            return Err(CodingError::CorruptStream("bit read past end".into()));
        }
        let mut v = 0u64;
        while left > 0 {
            let avail = 8 - self.pos % 8;
            let take = avail.min(left);
            let byte = u64::from(self.bytes[self.pos / 8]);
            v = (v << take) | ((byte >> (avail - take)) & low_mask(take as u32));
            self.pos += take;
            left -= take;
        }
        Ok(v)
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Bits not yet consumed.
    pub fn bits_left(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4);
        w.write_bits(0xABCD, 16);
        w.write_bit(true);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1101);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert!(r.read_bit().unwrap());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bit(false);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bit(true);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn read_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn mixed_width_output_is_pinned() {
        // Golden output: the Huffman streams the registry stores are
        // written through this writer.
        let mut w = BitWriter::new();
        for i in 0u64..40 {
            w.write_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 65) as u8);
            w.write_bit(i % 3 == 0);
        }
        let golden: [u8; 103] = [
            211, 208, 151, 210, 106, 130, 246, 105, 39, 56, 63, 45, 17, 18, 76, 138, 119, 193, 80,
            15, 89, 69, 203, 215, 154, 199, 134, 198, 145, 194, 219, 156, 213, 57, 198, 36, 188,
            111, 186, 31, 137, 24, 120, 52, 200, 77, 17, 38, 216, 177, 191, 9, 100, 147, 11, 112,
            14, 97, 85, 117, 20, 237, 212, 10, 13, 22, 233, 79, 130, 160, 90, 38, 127, 173, 119,
            63, 35, 214, 82, 51, 151, 123, 111, 151, 153, 229, 203, 210, 246, 92, 62, 240, 145, 28,
            161, 205, 99, 200, 76, 139, 28, 230, 112,
        ];
        let bytes = w.into_bytes();
        assert_eq!(bytes, golden);
        let mut r = BitReader::new(&bytes);
        for i in 0u64..40 {
            let width = (i % 65) as u8;
            let want = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & low_mask(u32::from(width));
            assert_eq!(r.read_bits(width).unwrap(), want);
            assert_eq!(r.read_bit().unwrap(), i % 3 == 0);
        }
    }

    #[test]
    fn msb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        let b = w.into_bytes();
        assert_eq!(b[0], 0b1000_0000);
    }
}
