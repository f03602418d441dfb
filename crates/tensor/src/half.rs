//! Bit-level IEEE 754 binary16 ("FP16") implementation.
//!
//! The MiLo kernel's I2F de-quantization (paper §3.3, Fig. 6b) works by
//! splicing INT3 payloads into the mantissa of the half-precision constant
//! `1024.0` (bit pattern `0x6400`): for a 3-bit value `e`, the bit pattern
//! `0x6400 | e` is exactly the half-precision number `1024 + e`, so a
//! bitwise OR plus one fused subtract turns packed integers into floats
//! without any int→float cast. Reproducing that trick requires a half type
//! whose bit representation is accessible, which is what [`F16`] provides.
//!
//! The [`h2`] module emulates the CUDA paired-register intrinsics
//! (`__hsub2`, `__hfma2`, `__hmul2`) that operate on two halves packed into
//! one 32-bit register.

/// An IEEE 754 binary16 value stored as its raw bit pattern.
///
/// Arithmetic is performed by widening to `f32` and rounding back, which
/// matches the behaviour of scalar half arithmetic on hardware that lacks
/// native FP16 ALUs.
///
/// # Examples
///
/// ```
/// use milo_tensor::F16;
///
/// let x = F16::from_f32(1024.0);
/// assert_eq!(x.to_bits(), 0x6400);
/// // Splice a 3-bit payload into the mantissa: 1024 + e for e in 0..8.
/// let e = 5u16;
/// assert_eq!(F16::from_bits(0x6400 | e).to_f32(), 1029.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// The constant `1024.0`, whose mantissa low bits are all zero — the
    /// anchor value for the MiLo dequantization bit trick.
    pub const B1024: F16 = F16(0x6400);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);

    /// Reinterprets a raw bit pattern as a half value.
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, the IEEE default.
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Widens to `f32` exactly (every finite half is representable in f32).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Half-precision addition (widen, add, round).
    pub fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }

    /// Half-precision subtraction (widen, subtract, round).
    pub fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }

    /// Half-precision multiplication (widen, multiply, round).
    pub fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }

    /// Fused multiply-add `self * a + b`, rounded once like hardware FMA.
    pub fn fma(self, a: F16, b: F16) -> F16 {
        let wide = (self.to_f32() as f64) * (a.to_f32() as f64) + (b.to_f32() as f64);
        F16::from_f32(wide as f32)
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts an `f32` to half bits with round-to-nearest-even.
fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Infinity or NaN. Preserve a quiet-NaN payload bit.
        return if mant == 0 { sign | 0x7C00 } else { sign | 0x7E00 };
    }

    // Unbiased exponent, re-biased for half (bias 15 vs 127).
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflows half range: round to infinity.
        return sign | 0x7C00;
    }
    if unbiased >= -14 {
        // Normal half. 23-bit mantissa → 10-bit with RNE.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let shifted = mant >> 13;
        let round_bits = mant & 0x1FFF;
        let mut out = sign | half_exp | (shifted as u16);
        // Round to nearest, ties to even.
        if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct behaviour
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal half.
        let full_mant = mant | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let shifted = full_mant >> shift;
        let remainder = full_mant & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | (shifted as u16);
        if remainder > halfway || (remainder == halfway && (shifted & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    // Underflows to zero.
    sign
}

/// Converts half bits to the exactly-equal `f32`.
fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let mant = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign // signed zero
        } else {
            // Subnormal: value = mant * 2^-24. Normalize into f32: after k
            // left-shifts the leading bit sits at position 10 and the f32
            // exponent field is 113 - k (value = 1.f * 2^(-14-k)).
            let mut k = 0u32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                k += 1;
            }
            m &= 0x03FF;
            let f32_exp = (113 - k) << 23;
            sign | f32_exp | (m << 13)
        }
    } else if exp == 0x1F {
        sign | 0x7F80_0000 | (mant << 13) // inf / NaN
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Emulation of CUDA's packed-half intrinsics on a 32-bit register.
///
/// A `u32` holds two halves: the low 16 bits are lane 0 and the high 16
/// bits are lane 1, matching the `__half2` layout the MiLo kernel uses to
/// dequantize two INT3 values per instruction.
pub mod h2 {
    use super::F16;

    /// Packs two halves into one register (`lo` in bits 0..16).
    pub fn pack(lo: F16, hi: F16) -> u32 {
        (lo.to_bits() as u32) | ((hi.to_bits() as u32) << 16)
    }

    /// Unpacks a register into `(lo, hi)` halves.
    pub fn unpack(reg: u32) -> (F16, F16) {
        (F16::from_bits((reg & 0xFFFF) as u16), F16::from_bits((reg >> 16) as u16))
    }

    /// Lane-wise subtraction, like CUDA `__hsub2`.
    pub fn hsub2(a: u32, b: u32) -> u32 {
        let (al, ah) = unpack(a);
        let (bl, bh) = unpack(b);
        pack(al.sub(bl), ah.sub(bh))
    }

    /// Lane-wise multiplication, like CUDA `__hmul2`.
    pub fn hmul2(a: u32, b: u32) -> u32 {
        let (al, ah) = unpack(a);
        let (bl, bh) = unpack(b);
        pack(al.mul(bl), ah.mul(bh))
    }

    /// Lane-wise fused multiply-add `a * b + c`, like CUDA `__hfma2`.
    pub fn hfma2(a: u32, b: u32, c: u32) -> u32 {
        let (al, ah) = unpack(a);
        let (bl, bh) = unpack(b);
        let (cl, ch) = unpack(c);
        pack(al.fma(bl, cl), ah.fma(bh, ch))
    }

    /// Broadcasts one half into both lanes.
    pub fn splat(v: F16) -> u32 {
        pack(v, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_bit_patterns() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(1024.0).to_bits(), 0x6400);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
    }

    #[test]
    fn mantissa_splice_produces_1024_plus_e() {
        // The core identity behind MiLo Dequant: 0x6400 | e == 1024 + e.
        for e in 0u16..8 {
            assert_eq!(F16::from_bits(0x6400 | e).to_f32(), 1024.0 + e as f32);
        }
    }

    #[test]
    fn shifted_splice_produces_1024_plus_8e() {
        // Placing the payload 3 bits higher yields 1024 + 8e, which the
        // kernel rescales with a fused multiply-add.
        for e in 0u16..8 {
            assert_eq!(F16::from_bits(0x6400 | (e << 3)).to_f32(), 1024.0 + 8.0 * e as f32);
        }
    }

    #[test]
    fn round_trip_is_exact_for_all_finite_halves() {
        // Exhaustive: every half value must survive f16 -> f32 -> f16.
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.to_f32().is_nan() {
                assert!(F16::from_f32(h.to_f32()).to_f32().is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn rne_rounds_ties_to_even() {
        // 2049 is exactly between 2048 and 2050 in half precision; RNE
        // picks 2048 (even mantissa).
        assert_eq!(F16::from_f32(2049.0).to_f32(), 2048.0);
        assert_eq!(F16::from_f32(2051.0).to_f32(), 2052.0);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(F16::from_f32(1e30).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e30).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn subnormals_round_trip() {
        let tiny = 5.96e-8f32; // smallest positive subnormal half ≈ 2^-24
        let h = F16::from_f32(tiny);
        assert!(h.to_f32() > 0.0);
        assert!(h.to_f32() < 1e-7);
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(F16::from_f32(1e-10).to_bits(), 0);
        assert_eq!(F16::from_f32(-1e-10).to_bits(), 0x8000);
    }

    #[test]
    fn nan_is_preserved() {
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(F16::from_bits(0x7E00).to_f32().is_nan());
    }

    #[test]
    fn arithmetic_matches_f32_for_small_ints() {
        let a = F16::from_f32(3.0);
        let b = F16::from_f32(4.0);
        assert_eq!(a.add(b).to_f32(), 7.0);
        assert_eq!(a.sub(b).to_f32(), -1.0);
        assert_eq!(a.mul(b).to_f32(), 12.0);
        assert_eq!(a.fma(b, F16::ONE).to_f32(), 13.0);
    }

    #[test]
    fn h2_lanes_are_independent() {
        let a = h2::pack(F16::from_f32(10.0), F16::from_f32(20.0));
        let b = h2::pack(F16::from_f32(1.0), F16::from_f32(2.0));
        let (lo, hi) = h2::unpack(h2::hsub2(a, b));
        assert_eq!(lo.to_f32(), 9.0);
        assert_eq!(hi.to_f32(), 18.0);
        let (lo, hi) = h2::unpack(h2::hmul2(a, b));
        assert_eq!(lo.to_f32(), 10.0);
        assert_eq!(hi.to_f32(), 40.0);
        let c = h2::splat(F16::from_f32(0.5));
        let (lo, hi) = h2::unpack(h2::hfma2(a, b, c));
        assert_eq!(lo.to_f32(), 10.5);
        assert_eq!(hi.to_f32(), 40.5);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let reg = h2::pack(F16::from_bits(0x1234), F16::from_bits(0xABCD));
        let (lo, hi) = h2::unpack(reg);
        assert_eq!(lo.to_bits(), 0x1234);
        assert_eq!(hi.to_bits(), 0xABCD);
    }
}
