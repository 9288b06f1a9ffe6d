//! IEEE 754 binary16, the width of the WDM's weight LUT entries.
//!
//! A codebook entry is held as an `f32` that is exactly a binary16
//! value: [`narrow`] rounds an `f32` to the nearest binary16 (ties to
//! even, overflow to ±inf, NaN kept NaN with its top payload bits) and
//! [`widen`] maps binary16 back to `f32` exactly. `widen` then `narrow`
//! returns the same 16 bits for every one of the 2^16 patterns, so a
//! stored entry round-trips bit for bit. Written by hand because Rust's
//! `f16` type is not stable.

/// Rounds `x` to the nearest binary16 value and returns its bits.
pub fn narrow(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let exp = (bits >> 23) & 0xFF;
    let man = bits & 0x7F_FFFF;
    if exp == 0xFF {
        // Inf, or NaN with its top ten payload bits; a NaN whose payload
        // sits only in the dropped bits becomes the quiet NaN.
        let payload = (man >> 13) as u16;
        let quiet = if man != 0 && payload == 0 { 0x200 } else { 0 };
        return sign | 0x7C00 | payload | quiet;
    }
    // The binary16 biased exponent: 15 - 127 = -112.
    let e = exp as i32 - 112;
    let magnitude = match e {
        31.. => 0x7C00,
        // Exponent field and mantissa shift as one number, so a carry
        // out of the mantissa moves into the next binade (or to inf).
        1.. => round_shift((e as u32) << 23 | man, 13),
        // Subnormal: the implicit bit joins the mantissa, counted in
        // units of the smallest subnormal, 2^-24.
        -10..=0 => round_shift(0x80_0000 | man, (14 - e) as u32),
        _ => 0,
    };
    sign | magnitude as u16
}

/// `v >> shift`, rounded to nearest with ties to even.
fn round_shift(v: u32, shift: u32) -> u32 {
    let (q, rem, half) = (v >> shift, v & ((1 << shift) - 1), 1 << (shift - 1));
    q + u32::from(rem > half || (rem == half && q & 1 == 1))
}

/// The `f32` holding binary16 bits `h` exactly.
pub fn widen(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1F;
    let man = u32::from(h & 0x3FF);
    let magnitude = match exp {
        // Zero or subnormal: `man` units of 2^-24, exact in an f32.
        0 => (man as f32 * f32::from_bits(0x3380_0000)).to_bits(),
        0x1F => 0x7F80_0000 | man << 13,
        _ => (exp + 112) << 23 | man << 13,
    };
    f32::from_bits(sign | magnitude)
}

/// `x` rounded to the nearest binary16 value, as an `f32`.
pub fn round(x: f32) -> f32 {
    widen(narrow(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pattern_widens_and_narrows_back_to_its_bits() {
        for h in 0..=u16::MAX {
            let x = widen(h);
            assert_eq!(narrow(x), h, "{h:#06x} -> {:#010x}", x.to_bits());
            assert_eq!(x.is_nan(), h & 0x7C00 == 0x7C00 && h & 0x3FF != 0);
        }
    }

    #[test]
    fn widening_is_exact() {
        assert_eq!(widen(0x3C00), 1.0);
        assert_eq!(widen(0xC000), -2.0);
        assert_eq!(widen(0x7BFF), 65504.0);
        assert_eq!(widen(0x0001), 2f32.powi(-24));
        assert_eq!(widen(0x03FF), 1023.0 * 2f32.powi(-24));
        assert_eq!(widen(0x0400), 2f32.powi(-14));
        assert_eq!(widen(0x7C00), f32::INFINITY);
        assert_eq!(widen(0x8000).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn rounding_ties_go_to_even() {
        // 1 + 2^-11 sits halfway between 1 (even) and 1 + 2^-10.
        assert_eq!(narrow(1.0 + 2f32.powi(-11)), 0x3C00);
        // 1 + 3 * 2^-11 sits halfway between 1 + 2^-10 (odd) and
        // 1 + 2^-9 (even).
        assert_eq!(narrow(1.0 + 3.0 * 2f32.powi(-11)), 0x3C02);
        // Just past the halfway point rounds up.
        assert_eq!(
            narrow(f32::from_bits((1.0f32 + 2f32.powi(-11)).to_bits() + 1)),
            0x3C01
        );
        // The same in the subnormal range: 1.5 and 2.5 units of 2^-24.
        assert_eq!(narrow(1.5 * 2f32.powi(-24)), 0x0002);
        assert_eq!(narrow(2.5 * 2f32.powi(-24)), 0x0002);
    }

    #[test]
    fn overflow_goes_to_infinity() {
        // 65520 is halfway between the largest finite value (odd
        // mantissa) and the next step, which is inf.
        assert_eq!(narrow(65519.0), 0x7BFF);
        assert_eq!(narrow(65520.0), 0x7C00);
        assert_eq!(narrow(-1e9), 0xFC00);
        assert_eq!(narrow(f32::MAX), 0x7C00);
        assert_eq!(narrow(f32::NEG_INFINITY), 0xFC00);
    }

    #[test]
    fn the_smallest_subnormal_and_underflow() {
        let tiny = 2f32.powi(-24);
        assert_eq!(narrow(tiny), 0x0001);
        assert_eq!(narrow(-tiny), 0x8001);
        // Half of it ties to even, zero; anything above rounds up.
        assert_eq!(narrow(tiny / 2.0), 0x0000);
        assert_eq!(narrow(-tiny / 2.0), 0x8000);
        assert_eq!(narrow(f32::from_bits((tiny / 2.0).to_bits() + 1)), 0x0001);
        assert_eq!(narrow(f32::from_bits(1)), 0x0000);
    }

    #[test]
    fn rounding_up_carries_into_the_next_binade() {
        // The largest value below 2 rounds up to 2.0.
        assert_eq!(narrow(2.0 - 2f32.powi(-12)), 0x4000);
        // The largest subnormal rounds up into the smallest normal.
        assert_eq!(narrow(2f32.powi(-14) - 2f32.powi(-26)), 0x0400);
    }

    #[test]
    fn nan_stays_nan() {
        assert_eq!(narrow(f32::NAN), 0x7E00);
        // A payload only in the bits binary16 drops stays a NaN.
        let low_payload = f32::from_bits(0x7F80_0001);
        assert!(widen(narrow(low_payload)).is_nan());
        assert!(round(-f32::NAN).is_sign_negative());
    }
}
