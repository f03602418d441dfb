//! Round-to-nearest (RTN) grouped quantization — the cheapest baseline in
//! the paper's Tables 1 and 3.

use crate::qtensor::{asym_code, asym_grid, group_ranges};
use crate::{QuantConfig, QuantizedMatrix, Result, Scheme};
use milo_tensor::Matrix;

/// Quantizes `w` by direct round-to-nearest onto a per-group grid.
///
/// For [`Scheme::Asymmetric`] each group uses
/// `s = (max − min) / (2^bits − 1)` and zero-point `z = −min / s`, so the
/// grid endpoints land exactly on the group extremes (this is the
/// "captures the outliers adequately" behaviour the paper's Observation 2
/// describes). For [`Scheme::Symmetric`] the grid is centred with
/// `s = max|w|` as in paper Eq. 15.
///
/// # Errors
///
/// Returns an error for an empty matrix.
pub fn rtn_quantize(w: &Matrix, cfg: &QuantConfig) -> Result<QuantizedMatrix> {
    if w.is_empty() {
        return Err(crate::QuantError::InvalidShape("cannot quantize an empty matrix".into()));
    }
    let (rows, cols) = w.shape();
    let groups_per_row = cfg.groups_per_row(cols);
    let mut codes = vec![0u8; rows * cols];
    let mut scales = Vec::with_capacity(rows * groups_per_row);
    let mut zeros = Vec::new();
    let max_code = cfg.max_code() as f32;

    for r in 0..rows {
        let row = w.row(r);
        for (_, range) in group_ranges(cols, cfg.group_size()) {
            let chunk = &row[range.clone()];
            match cfg.scheme() {
                Scheme::Asymmetric => {
                    let (s, z) = asym_grid(chunk, max_code);
                    for (i, &v) in chunk.iter().enumerate() {
                        codes[r * cols + range.start + i] = asym_code(v, s, z, max_code) as u8;
                    }
                    scales.push(s);
                    zeros.push(z);
                }
                Scheme::Symmetric => {
                    let s = chunk.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                    let s = if s > 0.0 { s } else { 1.0 };
                    let half = (cfg.levels() / 2) as f32;
                    // Eq. 15 with general bits: q = round((2^bits - 1) * w / (2 s)) + 2^(bits-1).
                    for (i, &v) in chunk.iter().enumerate() {
                        let q = ((max_code * v) / (2.0 * s)).round() + half;
                        codes[r * cols + range.start + i] = q.clamp(0.0, max_code) as u8;
                    }
                    // Store the grid step so dequantize's s·(q−z) recovers
                    // values: step = 2 s / (2^bits − 1).
                    scales.push(2.0 * s / max_code);
                }
            }
        }
    }
    QuantizedMatrix::from_parts(*cfg, rows, cols, codes, scales, zeros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        WeightDist::Gaussian { std: 0.1 }.sample_matrix(rows, cols, &mut rng)
    }

    #[test]
    fn asym_error_bounded_by_half_step() {
        let w = random(8, 64, 1);
        let cfg = QuantConfig::int3_asym();
        let q = rtn_quantize(&w, &cfg).unwrap();
        let dq = q.dequantize();
        for (r, (&a, &b)) in w.as_slice().iter().zip(dq.as_slice()).enumerate() {
            let g = r / 64;
            let s = q.scales()[g];
            assert!((a - b).abs() <= s * 0.5 + 1e-6, "element {r}: {a} vs {b}, step {s}");
        }
    }

    #[test]
    fn group_extremes_are_exactly_representable() {
        let w = Matrix::from_rows(&[&[-1.0, -0.5, 0.0, 2.0]]);
        let cfg = QuantConfig::new(3, 4, Scheme::Asymmetric).unwrap();
        let dq = rtn_quantize(&w, &cfg).unwrap().dequantize();
        assert!((dq[(0, 0)] - (-1.0)).abs() < 1e-5);
        assert!((dq[(0, 3)] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn higher_bits_reduce_error() {
        let w = random(16, 128, 2);
        let cfg3 = QuantConfig::int3_asym();
        let cfg4 = QuantConfig::int4_asym();
        let e3 = w.sub(&rtn_quantize(&w, &cfg3).unwrap().dequantize()).unwrap().frobenius_norm();
        let e4 = w.sub(&rtn_quantize(&w, &cfg4).unwrap().dequantize()).unwrap().frobenius_norm();
        assert!(e4 < e3, "INT4 error {e4} should beat INT3 error {e3}");
    }

    #[test]
    fn symmetric_round_trip_of_interior_grid_points() {
        // With s = max|w| fixed by a sentinel ±s pair, interior grid
        // points k·(2s/7) for |k| ≤ 3 are exactly representable (code
        // k+4); the sentinels themselves clamp to the grid ends, which is
        // Eq. 15's intended behaviour.
        let s = 1.0f32;
        let step = 2.0 * s / 7.0;
        let mut vals: Vec<f32> = (-3i32..=3).map(|k| k as f32 * step).collect();
        vals.push(s); // sentinel defining the scale
        let w = Matrix::from_vec(1, 8, vals.clone());
        let cfg = QuantConfig::new(3, 8, Scheme::Symmetric).unwrap();
        let dq = rtn_quantize(&w, &cfg).unwrap().dequantize();
        for (k, (a, b)) in vals[..7].iter().zip(dq.as_slice()).enumerate() {
            assert!((a - b).abs() < 1e-5, "grid point {k}: {a} vs {b}");
        }
        // Sentinel s clamps to the top code 7 -> (7-4)·step = 3·step.
        assert!((dq[(0, 7)] - 3.0 * step).abs() < 1e-5);
    }

    #[test]
    fn constant_group_quantizes_without_nan() {
        let w = Matrix::filled(2, 64, 3.0);
        let q = rtn_quantize(&w, &QuantConfig::int3_asym()).unwrap();
        let dq = q.dequantize();
        assert!(dq.as_slice().iter().all(|v| v.is_finite()));
        for &v in dq.as_slice() {
            assert!((v - 3.0).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        let w = Matrix::zeros(0, 0);
        assert!(rtn_quantize(&w, &QuantConfig::int3_asym()).is_err());
    }

    #[test]
    fn ragged_tail_group_is_handled() {
        let w = random(3, 70, 3); // 70 = 64 + 6 tail
        let q = rtn_quantize(&w, &QuantConfig::int3_asym()).unwrap();
        assert_eq!(q.scales().len(), 3 * 2);
        let dq = q.dequantize();
        assert_eq!(dq.shape(), (3, 70));
    }
}
