//! Half-Quadratic Quantization (HQQ) — the calibration-free solver MiLo
//! builds on (paper §3.2.2, following Badri & Shaji 2023).
//!
//! HQQ keeps the per-group scale fixed (taken from the RTN grid) and
//! optimizes the zero-point `z` under a sparsity-promoting `l_{p<1}` loss
//! on the quantization residual. The half-quadratic trick introduces an
//! auxiliary variable `M` (paper Eq. 5) and alternates:
//!
//! 1. `M ← shrink_lp(W − W_dq, β)` — generalized soft-thresholding
//!    (Eqs. 6–7),
//! 2. `z ← ⟨W_q − (W − M)/s⟩` — closed-form zero-point update per group
//!    (Eqs. 8–9),
//!
//! with `β` annealed upward each step. MiLo reuses exactly this inner
//! solver but feeds it `W − U·V`, the weight minus the current low-rank
//! compensator (see `milo-core`).

use crate::qtensor::{asym_code, group_ranges};
use crate::{QuantConfig, QuantError, QuantizedMatrix, Result, Scheme};
use milo_tensor::Matrix;

/// Hyper-parameters of the HQQ solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HqqOptions {
    /// Norm exponent `p < 1` of the sparsity-promoting loss.
    pub p: f32,
    /// Initial half-quadratic penalty weight `β`.
    pub beta: f32,
    /// Multiplicative annealing factor applied to `β` each iteration.
    pub kappa: f32,
    /// Maximum number of alternating iterations.
    pub max_iters: usize,
    /// Relative improvement in the residual norm below which the solver
    /// stops early.
    pub tol: f32,
}

impl Default for HqqOptions {
    /// The defaults from the HQQ reference implementation: `p = 0.7`,
    /// `β = 10` annealed by `1.01`, up to 20 iterations.
    fn default() -> Self {
        Self { p: 0.7, beta: 10.0, kappa: 1.01, max_iters: 20, tol: 1e-5 }
    }
}

/// The generalized soft-thresholding operator of paper Eq. 7:
/// `shrink_lp(x, β) = sign(x) · relu(|x| − |x|^(p−1) / β)`.
pub fn shrink_lp(x: f32, p: f32, beta: f32) -> f32 {
    if x == 0.0 {
        return 0.0;
    }
    let ax = x.abs();
    let threshold = ax.powf(p - 1.0) / beta;
    let mag = (ax - threshold).max(0.0);
    x.signum() * mag
}

/// Quantizes `w` with the HQQ solver.
///
/// Only [`Scheme::Asymmetric`] is supported: HQQ's free parameter is the
/// zero-point, which symmetric grids do not have.
///
/// # Errors
///
/// Returns [`QuantError::InvalidConfig`] for symmetric configs and
/// [`QuantError::InvalidShape`] for an empty matrix.
pub fn hqq_quantize(w: &Matrix, cfg: &QuantConfig, opts: &HqqOptions) -> Result<QuantizedMatrix> {
    if cfg.scheme() != Scheme::Asymmetric {
        return Err(QuantError::InvalidConfig(
            "HQQ optimizes the zero-point and requires an asymmetric scheme".into(),
        ));
    }
    if w.is_empty() {
        return Err(QuantError::InvalidShape("cannot quantize an empty matrix".into()));
    }
    let _span = milo_obs::span(|| "quant.hqq".into());

    let (rows, cols) = w.shape();
    let groups_per_row = cfg.groups_per_row(cols);
    let max_code = cfg.max_code() as f32;

    // Initialize scale and zero-point from the RTN grid; the scale stays
    // fixed for the whole optimization (paper §3.2.2 "we fix the scaling
    // parameter s and only optimize the zero-point z").
    let init = crate::rtn_quantize(w, cfg)?;
    let scales = init.scales().to_vec();
    let mut zeros = init.zeros().to_vec();

    let mut codes = vec![0u8; rows * cols];
    let mut beta = opts.beta;
    let mut prev_err = f32::INFINITY;

    for _ in 0..opts.max_iters {
        let mut err_sq = 0.0f64;
        for r in 0..rows {
            let row = w.row(r);
            for (g, range) in group_ranges(cols, cfg.group_size()) {
                let gi = r * groups_per_row + g;
                let s = scales[gi];
                let z = zeros[gi];
                let chunk = &row[range.clone()];

                // Quantize with the current zero-point (Eq. 9) and compute
                // the shrinkage target (Eqs. 6-7), accumulating the
                // zero-point update (Eq. 8) in one pass.
                let mut z_acc = 0.0f64;
                for (i, &v) in chunk.iter().enumerate() {
                    let q = asym_code(v, s, z, max_code);
                    codes[r * cols + range.start + i] = q as u8;
                    let dq = s * (q - z);
                    let e = v - dq;
                    err_sq += (e as f64) * (e as f64);
                    let m = shrink_lp(e, opts.p, beta);
                    z_acc += (q as f64) - ((v - m) as f64) / (s as f64);
                }
                zeros[gi] = (z_acc / chunk.len() as f64) as f32;
            }
        }
        beta *= opts.kappa;
        let err = (err_sq.sqrt()) as f32;
        if prev_err.is_finite() && (prev_err - err).abs() <= opts.tol * prev_err.max(1e-12) {
            break;
        }
        prev_err = err;
    }

    // Final re-quantization with the converged zero-points so codes and
    // parameters are consistent.
    for r in 0..rows {
        let row = w.row(r);
        for (g, range) in group_ranges(cols, cfg.group_size()) {
            let gi = r * groups_per_row + g;
            let (s, z) = (scales[gi], zeros[gi]);
            for (i, &v) in row[range.clone()].iter().enumerate() {
                codes[r * cols + range.start + i] = asym_code(v, s, z, max_code) as u8;
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

    fn heavy_tailed(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        WeightDist::StudentT { dof: 5.0, scale: 0.05 }.sample_matrix(rows, cols, &mut rng)
    }

    #[test]
    fn shrink_matches_formula() {
        let (p, beta) = (0.7, 10.0);
        let x = 0.5f32;
        let expected = x - x.powf(p - 1.0) / beta;
        assert!((shrink_lp(x, p, beta) - expected.max(0.0)).abs() < 1e-6);
        assert_eq!(shrink_lp(0.0, p, beta), 0.0);
    }

    #[test]
    fn shrink_is_odd() {
        for &x in &[0.1f32, 0.5, 2.0, 10.0] {
            assert!((shrink_lp(-x, 0.7, 10.0) + shrink_lp(x, 0.7, 10.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn shrink_kills_small_values() {
        // For small |x| the threshold |x|^(p-1)/beta dominates.
        assert_eq!(shrink_lp(1e-4, 0.7, 10.0), 0.0);
    }

    #[test]
    fn hqq_beats_rtn_on_heavy_tails() {
        let w = heavy_tailed(32, 128, 1);
        let cfg = QuantConfig::int3_asym();
        let rtn_err = w
            .sub(&crate::rtn_quantize(&w, &cfg).unwrap().dequantize())
            .unwrap()
            .frobenius_norm();
        let hqq_err = w
            .sub(&hqq_quantize(&w, &cfg, &HqqOptions::default()).unwrap().dequantize())
            .unwrap()
            .frobenius_norm();
        assert!(
            hqq_err < rtn_err,
            "HQQ error {hqq_err} should improve on RTN error {rtn_err}"
        );
    }

    #[test]
    fn hqq_rejects_symmetric_scheme() {
        let w = Matrix::filled(2, 64, 1.0);
        let cfg = QuantConfig::int3_sym();
        assert!(matches!(
            hqq_quantize(&w, &cfg, &HqqOptions::default()),
            Err(QuantError::InvalidConfig(_))
        ));
    }

    #[test]
    fn hqq_codes_are_in_range() {
        let w = heavy_tailed(8, 64, 2);
        let cfg = QuantConfig::int3_asym();
        let q = hqq_quantize(&w, &cfg, &HqqOptions::default()).unwrap();
        assert!(q.codes().iter().all(|&c| c <= 7));
    }

    #[test]
    fn hqq_is_deterministic() {
        let w = heavy_tailed(4, 64, 3);
        let cfg = QuantConfig::int3_asym();
        let a = hqq_quantize(&w, &cfg, &HqqOptions::default()).unwrap();
        let b = hqq_quantize(&w, &cfg, &HqqOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_iteration_close_to_rtn() {
        // One HQQ iteration starts from the RTN grid, so the error should
        // be close to (or better than) RTN's.
        let w = heavy_tailed(8, 64, 4);
        let cfg = QuantConfig::int3_asym();
        let opts = HqqOptions { max_iters: 1, ..HqqOptions::default() };
        let q = hqq_quantize(&w, &cfg, &opts).unwrap();
        let rtn = crate::rtn_quantize(&w, &cfg).unwrap();
        let e_hqq = w.sub(&q.dequantize()).unwrap().frobenius_norm();
        let e_rtn = w.sub(&rtn.dequantize()).unwrap().frobenius_norm();
        assert!(e_hqq <= e_rtn * 1.05, "{e_hqq} vs {e_rtn}");
    }
}
