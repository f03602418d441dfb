//! Binary-manipulation INT3→FP16 de-quantization ("MiLo Dequant",
//! paper §3.3, Fig. 6b).
//!
//! A naive conversion would extract each 3-bit code as an integer and
//! cast it to floating point — slow on GPUs. The MiLo trick instead
//! splices payloads into FP16 mantissas:
//!
//! * a payload at the lane base gives the bit pattern `0x6400 | e`,
//!   which *is* the half-precision number `1024 + e`;
//! * a payload three bits up gives `0x6400 | (e << 3)` = `1024 + 8e`;
//!
//! and because each 32-bit register holds **two** FP16 lanes, one masked
//! OR plus one `__hsub2`/`__hfma2` converts *two* weights at once. The
//! symmetric path subtracts the grid midpoint (code 4) inside the same
//! instruction; the asymmetric path folds `−z·s` into the scaling FMA,
//! exactly as the paper describes ("we use `__hmul2` for symmetric and
//! `__hfma2` for asymmetric").

use crate::layout::{word_codes, LANE_MASK_HI, LANE_MASK_LO};
use milo_tensor::half::h2;
use milo_tensor::F16;

/// The FP16 constant `1024.0` replicated in both lanes.
const MAGIC: u32 = 0x6400_6400;

/// The FP16 constant `0.125` (`0x3000`) in both lanes: the `1024 + 8e`
/// path's rescale.
const EIGHTH: u32 = 0x3000_3000;

/// The FP16 constant `−128.0` (`0xD800`) in both lanes: the `1024 + 8e`
/// path's offset after rescaling.
const NEG_128: u32 = 0xD800_D800;

/// The FP16 constant `4.0` (`0x4400`) in both lanes: the symmetric
/// grid's midpoint code.
const MIDPOINT: u32 = 0x4400_4400;

/// Extracts the four (lo, hi) weight pairs of a word as `1024 + e` /
/// `1024 + 8e` registers and reduces them to raw code values `e` in both
/// lanes. Returns `[e0..e7]` in group-local order.
fn extract_codes_f16(word: u32) -> [u32; 4] {
    // Pair s lives at shift 6·(s/2) with mask LO (even slot) or HI (odd
    // slot within the shifted view).
    let mut regs = [0u32; 4];
    for (i, reg) in regs.iter_mut().enumerate() {
        let shifted = word >> (6 * (i / 2));
        *reg = if i % 2 == 0 {
            // 1024 + e path: subtract 1024 to leave e.
            let spliced = (shifted & LANE_MASK_LO) | MAGIC;
            h2::hsub2(spliced, MAGIC)
        } else {
            // 1024 + 8e path: e = (1024 + 8e) · (1/8) − 128.
            let spliced = (shifted & LANE_MASK_HI) | MAGIC;
            h2::hfma2(spliced, EIGHTH, NEG_128)
        };
    }
    regs
}

/// De-quantizes the 8 weights a word carries with the **symmetric**
/// scheme: `w = (e − 4) · step` (paper Eq. 15 inverted), where `step` is
/// the group's grid step. Output is in group-local order `e0..e7`.
pub fn dequant_word_sym(word: u32, step: F16) -> [F16; 8] {
    let step2 = h2::splat(step);
    let mut out = [F16::ZERO; 8];
    for (i, reg) in extract_codes_f16(word).iter().enumerate() {
        let centred = h2::hsub2(*reg, MIDPOINT);
        let scaled = h2::hmul2(centred, step2);
        let (lo, hi) = h2::unpack(scaled);
        // Pair i holds group-local weights (2i, 2i+1).
        out[2 * i] = lo;
        out[2 * i + 1] = hi;
    }
    out
}

/// De-quantizes the 8 weights a word carries with the **asymmetric**
/// scheme: `w = e·s − z·s`, with the `−z·s` term precomputed (as the
/// fused kernel does) and applied in the same `__hfma2`.
pub fn dequant_word_asym(word: u32, scale: F16, neg_zs: F16) -> [F16; 8] {
    let s2 = h2::splat(scale);
    let c2 = h2::splat(neg_zs);
    let mut out = [F16::ZERO; 8];
    for (i, reg) in extract_codes_f16(word).iter().enumerate() {
        let v = h2::hfma2(*reg, s2, c2);
        let (lo, hi) = h2::unpack(v);
        out[2 * i] = lo;
        out[2 * i + 1] = hi;
    }
    out
}

/// The naive baseline: extract integer codes and cast each through f32.
///
/// Functionally identical to [`dequant_word_asym`]; exists so tests can
/// confirm the bit-trick path agrees with a plain implementation, and so
/// the ablation benches have the "no MiLo Dequant" reference.
pub fn naive_dequant_word(word: u32, scale: f32, zero: f32) -> [F16; 8] {
    let codes = word_codes(word);
    let mut out = [F16::ZERO; 8];
    for (i, &c) in codes.iter().enumerate() {
        out[i] = F16::from_f32(scale * (c as f32 - zero));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::pack_group;
    use milo_tensor::rng::Rng;
    use milo_tensor::rng::SeedableRng;

    fn word_with(codes8: [u8; 8]) -> u32 {
        let mut group = [0u8; 32];
        group[..8].copy_from_slice(&codes8);
        pack_group(&group)[0]
    }

    #[test]
    fn symmetric_path_matches_formula_exactly() {
        let codes = [0u8, 1, 2, 3, 4, 5, 6, 7];
        let w = word_with(codes);
        let step = F16::from_f32(0.25);
        let vals = dequant_word_sym(w, step);
        for (i, &c) in codes.iter().enumerate() {
            let expected = (c as f32 - 4.0) * 0.25;
            assert_eq!(vals[i].to_f32(), expected, "slot {i}");
        }
    }

    #[test]
    fn asymmetric_path_matches_naive_within_half_ulp() {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let mut codes = [0u8; 8];
            for c in &mut codes {
                *c = rng.gen_range(0..8);
            }
            let w = word_with(codes);
            let scale = rng.gen_range(0.001f32..0.1);
            let zero = rng.gen_range(0.0f32..7.0);
            let trick = dequant_word_asym(
                w,
                F16::from_f32(scale),
                F16::from_f32(-zero * scale),
            );
            let naive = naive_dequant_word(w, scale, zero);
            for i in 0..8 {
                let (a, b) = (trick[i].to_f32(), naive[i].to_f32());
                // Both paths round through FP16; they may differ by one
                // final-place rounding of the fused vs separate ops.
                let tol = (scale * 8.0) * 1e-2;
                assert!((a - b).abs() <= tol, "slot {i}: trick {a} vs naive {b}");
            }
        }
    }

    #[test]
    fn integer_codes_are_recovered_exactly() {
        // The 1024+e and 1024+8e paths must reproduce the integer code
        // with no rounding at all (everything is exact in FP16).
        for c in 0u8..8 {
            let w = word_with([c; 8]);
            let vals = dequant_word_asym(w, F16::ONE, F16::ZERO);
            for v in vals {
                assert_eq!(v.to_f32(), c as f32);
            }
        }
    }

    #[test]
    fn magic_constant_is_1024() {
        let (lo, hi) = h2::unpack(MAGIC);
        assert_eq!(lo.to_f32(), 1024.0);
        assert_eq!(hi.to_f32(), 1024.0);
    }

    #[test]
    fn register_constants_match_their_splats() {
        assert_eq!(MAGIC, h2::splat(F16::B1024));
        assert_eq!(EIGHTH, h2::splat(F16::from_f32(0.125)));
        assert_eq!(NEG_128, h2::splat(F16::from_f32(-128.0)));
        assert_eq!(MIDPOINT, h2::splat(F16::from_f32(4.0)));
    }

    #[test]
    fn zero_scale_yields_zero() {
        let w = word_with([3; 8]);
        for v in dequant_word_sym(w, F16::ZERO) {
            assert_eq!(v.to_f32(), 0.0);
        }
    }

    #[test]
    fn symmetric_midpoint_code_is_exact_zero() {
        let w = word_with([4; 8]);
        for v in dequant_word_sym(w, F16::from_f32(0.37)) {
            assert_eq!(v.to_f32(), 0.0);
        }
    }
}
