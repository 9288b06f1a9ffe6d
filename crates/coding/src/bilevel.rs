//! JBIG-style bilevel (binary) image compression.
//!
//! JBIG's compression power comes from conditioning an adaptive binary
//! arithmetic coder on a template of already-coded neighbour pixels. This
//! module implements exactly that core: a 10-pixel, three-line context
//! template (the same shape as JBIG's three-line template) addressing
//! 1024 adaptive [`BitModel`]s.
//!
//! The paper uses JBIG to *measure irregularity* (Eq. 1): a pruning index
//! bitmap that is regular (blocky) compresses far better than a scattered
//! fine-grained one, so
//! `R(Irr) = compressed(fine) / compressed(coarse)` quantifies how much
//! regularity coarse-grained pruning recovers. This codec preserves that
//! behaviour (see the tests at the bottom).

use crate::arith::{BitModel, Decoder, Encoder};
use crate::CodingError;

/// A binary image stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiLevelImage {
    width: usize,
    height: usize,
    pixels: Vec<bool>,
}

impl BiLevelImage {
    /// Creates an image from row-major pixels.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidInput`] when the pixel count does not
    /// equal `width * height`.
    pub fn new(width: usize, height: usize, pixels: Vec<bool>) -> Result<Self, CodingError> {
        if pixels.len() != width * height {
            return Err(CodingError::InvalidInput(format!(
                "pixel count {} != {width}x{height}",
                pixels.len()
            )));
        }
        Ok(BiLevelImage {
            width,
            height,
            pixels,
        })
    }

    /// Builds an image from a mask-style bit slice and a row width.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidInput`] when the length is not a
    /// multiple of `width`.
    pub fn from_bits(bits: &[bool], width: usize) -> Result<Self, CodingError> {
        if width == 0 || !bits.len().is_multiple_of(width) {
            return Err(CodingError::InvalidInput(format!(
                "bit count {} not a multiple of width {width}",
                bits.len()
            )));
        }
        BiLevelImage::new(width, bits.len() / width, bits.to_vec())
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Borrows the row-major pixels.
    pub fn pixels(&self) -> &[bool] {
        &self.pixels
    }
}

/// The 10-pixel three-line template, advanced pixel by pixel along a
/// row: the pixels at `x-1..=x+1` two rows up, `x-2..=x+2` one row up,
/// and the two already-coded pixels to the left, packed MSB-first in
/// that order (off-image pixels read as 0).
struct Context {
    above2: usize,
    above1: usize,
    left: usize,
}

impl Context {
    /// Pixel `(x, y - up)` of a row-major buffer, 0 off the image.
    fn at(pixels: &[bool], width: usize, x: usize, y: usize, up: usize) -> usize {
        if x < width && y >= up {
            usize::from(pixels[(y - up) * width + x])
        } else {
            0
        }
    }

    /// The context of pixel `(0, y)`.
    fn row_start(pixels: &[bool], width: usize, y: usize) -> Self {
        let at = |x, up| Self::at(pixels, width, x, y, up);
        Context {
            above2: at(0, 2) << 1 | at(1, 2),
            above1: at(0, 1) << 2 | at(1, 1) << 1 | at(2, 1),
            left: 0,
        }
    }

    fn value(&self) -> usize {
        self.above2 << 7 | self.above1 << 2 | self.left
    }

    /// Moves from pixel `(x, y)`, which coded as `bit`, to `(x + 1, y)`.
    fn advance(&mut self, pixels: &[bool], width: usize, x: usize, y: usize, bit: bool) {
        self.above2 = (self.above2 << 1 | Self::at(pixels, width, x + 2, y, 2)) & 0b111;
        self.above1 = (self.above1 << 1 | Self::at(pixels, width, x + 3, y, 1)) & 0b1_1111;
        self.left = (self.left << 1 | usize::from(bit)) & 0b11;
    }
}

/// Compresses a bilevel image. The output embeds width and height.
pub fn compress(img: &BiLevelImage) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + img.pixels.len() / 8);
    out.extend_from_slice(&(img.width as u32).to_le_bytes());
    out.extend_from_slice(&(img.height as u32).to_le_bytes());
    let mut models = vec![BitModel::new(); 1024];
    let mut enc = Encoder::new();
    let (width, pixels) = (img.width, img.pixels.as_slice());
    for y in 0..img.height {
        let mut ctx = Context::row_start(pixels, width, y);
        for x in 0..width {
            let bit = pixels[y * width + x];
            enc.encode(&mut models[ctx.value()], bit);
            ctx.advance(pixels, width, x, y, bit);
        }
    }
    out.extend_from_slice(&enc.finish());
    out
}

/// Decompresses a stream produced by [`compress`] whose image holds at
/// most `max_pixels` pixels.
///
/// # Errors
///
/// Returns [`CodingError::CorruptStream`] for truncated input and for a
/// header declaring more than `max_pixels` pixels (checked before the
/// image is allocated).
pub fn decompress(bytes: &[u8], max_pixels: usize) -> Result<BiLevelImage, CodingError> {
    let (Some(w), Some(h)) = (bytes.get(0..4), bytes.get(4..8)) else {
        return Err(CodingError::CorruptStream("missing header".into()));
    };
    let dim = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
    let (width, height) = (dim(w), dim(h));
    let pixels = width
        .checked_mul(height)
        .filter(|n| *n <= max_pixels)
        .ok_or_else(|| {
            CodingError::CorruptStream(format!(
                "{width}x{height} image exceeds the {max_pixels}-pixel cap"
            ))
        })?;
    let mut img = BiLevelImage {
        width,
        height,
        pixels: vec![false; pixels],
    };
    let mut models = vec![BitModel::new(); 1024];
    let mut dec = Decoder::new(&bytes[8..])?;
    // Rows of an image without pixels decode to nothing, however many
    // the header declares.
    let rows = if pixels == 0 { 0 } else { height };
    for y in 0..rows {
        let mut ctx = Context::row_start(&img.pixels, width, y);
        for x in 0..width {
            let bit = dec.decode(&mut models[ctx.value()])?;
            img.pixels[y * width + x] = bit;
            ctx.advance(&img.pixels, width, x, y, bit);
        }
    }
    Ok(img)
}

/// Compressed size in bytes — the quantity used by the irregularity
/// metric `R(Irr)` (Eq. 1 in the paper).
pub fn compressed_size(img: &BiLevelImage) -> usize {
    compress(img).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(img: &BiLevelImage, x: isize, y: isize) -> bool {
        if x < 0 || y < 0 || x as usize >= img.width || y as usize >= img.height {
            false
        } else {
            img.pixels[y as usize * img.width + x as usize]
        }
    }

    /// The template read tap by tap: the reference [`Context`] follows.
    fn context(img: &BiLevelImage, x: isize, y: isize) -> usize {
        let taps = [
            (-1, -2),
            (0, -2),
            (1, -2),
            (-2, -1),
            (-1, -1),
            (0, -1),
            (1, -1),
            (2, -1),
            (-2, 0),
            (-1, 0),
        ];
        let mut ctx = 0usize;
        for (dx, dy) in taps {
            ctx = (ctx << 1) | usize::from(get(img, x + dx, y + dy));
        }
        ctx
    }

    #[test]
    fn rolling_context_matches_the_template() {
        for width in [1, 2, 3, 5, 17] {
            let img = BiLevelImage::from_bits(&lcg_bits(width * 9, 4, 40), width).unwrap();
            for y in 0..img.height {
                let mut ctx = Context::row_start(&img.pixels, width, y);
                for x in 0..width {
                    assert_eq!(ctx.value(), context(&img, x as isize, y as isize));
                    ctx.advance(&img.pixels, width, x, y, img.pixels[y * width + x]);
                }
            }
        }
    }

    fn lcg_bits(n: usize, seed: u64, p_one_percent: u64) -> Vec<bool> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) % 100 < p_one_percent
            })
            .collect()
    }

    #[test]
    fn roundtrip_random() {
        let img = BiLevelImage::from_bits(&lcg_bits(64 * 48, 7, 50), 64).unwrap();
        let c = compress(&img);
        assert_eq!(decompress(&c, usize::MAX).unwrap(), img);
    }

    #[test]
    fn roundtrip_blocky() {
        let bits: Vec<bool> = (0..128 * 128)
            .map(|i| {
                let r = i / 128;
                let c = i % 128;
                ((r / 16) + (c / 16)) % 2 == 0
            })
            .collect();
        let img = BiLevelImage::from_bits(&bits, 128).unwrap();
        let c = compress(&img);
        assert_eq!(decompress(&c, usize::MAX).unwrap(), img);
    }

    #[test]
    fn blocky_compresses_far_better_than_scattered() {
        // Same ones-density (~50%), very different structure.
        let blocky: Vec<bool> = (0..128 * 128)
            .map(|i| ((i / 128 / 16) + (i % 128 / 16)) % 2 == 0)
            .collect();
        let scattered = lcg_bits(128 * 128, 3, 50);
        let cb = compressed_size(&BiLevelImage::from_bits(&blocky, 128).unwrap());
        let cs = compressed_size(&BiLevelImage::from_bits(&scattered, 128).unwrap());
        assert!(cs > 10 * cb, "scattered {cs} bytes vs blocky {cb} bytes");
    }

    #[test]
    fn sparse_scattered_still_beats_dense_random() {
        // 10% scattered ones compresses, but less than blocky 10%.
        let scattered = lcg_bits(128 * 128, 11, 10);
        let blocky: Vec<bool> = (0..128 * 128)
            .map(|i| {
                let r = i / 128;
                let c = i % 128;
                // ~10% of 16x16 tiles fully on (interleaved grid).
                (r / 16) % 3 == 0 && (c / 16) % 3 == 0
            })
            .collect();
        let cs = compressed_size(&BiLevelImage::from_bits(&scattered, 128).unwrap());
        let cb = compressed_size(&BiLevelImage::from_bits(&blocky, 128).unwrap());
        assert!(cs > 3 * cb, "scattered {cs} vs blocky {cb}");
    }

    #[test]
    fn empty_and_full_images_compress_to_almost_nothing() {
        let zeros = BiLevelImage::from_bits(&vec![false; 256 * 256], 256).unwrap();
        let ones = BiLevelImage::from_bits(&vec![true; 256 * 256], 256).unwrap();
        assert!(compressed_size(&zeros) < 200);
        assert!(compressed_size(&ones) < 200);
        assert_eq!(decompress(&compress(&ones), usize::MAX).unwrap(), ones);
    }

    #[test]
    fn dimension_validation() {
        assert!(BiLevelImage::new(4, 4, vec![false; 15]).is_err());
        assert!(BiLevelImage::from_bits(&[false; 10], 3).is_err());
        assert!(BiLevelImage::from_bits(&[false; 10], 0).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let img = BiLevelImage::from_bits(&lcg_bits(32 * 32, 5, 50), 32).unwrap();
        let mut c = compress(&img);
        c.truncate(10);
        assert!(decompress(&c, usize::MAX).is_err());
    }

    #[test]
    fn oversized_declared_dimensions_are_corrupt() {
        // 0xFFFF_FFFF x 0xFFFF_FFFF pixels: rejected before allocating.
        let mut bytes = vec![0xFF; 8];
        bytes.extend_from_slice(&[0; 8]);
        for cap in [1 << 20, 1 << 40] {
            assert!(matches!(
                decompress(&bytes, cap),
                Err(CodingError::CorruptStream(_))
            ));
        }
        // Zero pixels in 0xFFFF_FFFF rows: nothing to decode.
        let mut empty = vec![0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF];
        empty.extend_from_slice(&[0; 5]);
        assert!(decompress(&empty, 0).unwrap().pixels().is_empty());
        let img = BiLevelImage::from_bits(&lcg_bits(16 * 16, 9, 30), 16).unwrap();
        let c = compress(&img);
        assert!(decompress(&c, 255).is_err());
        assert_eq!(decompress(&c, 256).unwrap(), img);
    }

    #[test]
    fn context_is_zero_at_origin() {
        let img = BiLevelImage::from_bits(&[true, true, true, true], 2).unwrap();
        assert_eq!(context(&img, 0, 0), 0);
        // Pixel (1,1) sees left neighbour and the row above.
        assert!(context(&img, 1, 1) > 0);
    }
}
