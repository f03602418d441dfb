//! GPTQ (Frantar et al., 2022) — the calibration-based baseline.
//!
//! GPTQ quantizes a weight matrix column-by-column, each time spreading
//! the rounding error over the not-yet-quantized columns using the inverse
//! of the calibration Hessian `H = 2·Xᵀ·X + λI`. This is the method the
//! paper contrasts MiLo against on two axes: quantization *time* (the
//! Hessian work makes it ~10× slower than RTN/HQQ, paper Table 1 and
//! Fig. 8) and *calibration bias* (the result depends on the calibration
//! set, §1).

use crate::qtensor::{asym_code, asym_grid, group_ranges};
use crate::{QuantConfig, QuantError, QuantizedMatrix, Result, Scheme};
use milo_tensor::linalg::{cholesky_decompose, cholesky_inverse};
use milo_tensor::Matrix;

/// Hyper-parameters of the GPTQ solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GptqOptions {
    /// Relative dampening added to the Hessian diagonal
    /// (`λ = percdamp · mean(diag H)`). The reference implementation
    /// defaults to 0.01; extreme (3-bit) grids benefit from stronger
    /// dampening because the larger rounding errors make aggressive
    /// error propagation unstable, so 0.1 is the default here.
    pub percdamp: f32,
}

impl Default for GptqOptions {
    fn default() -> Self {
        Self { percdamp: 0.1 }
    }
}

/// Quantizes `w` (`out_features × in_features`) with GPTQ using
/// calibration activations `x` (`n_samples × in_features`, one activation
/// vector per row).
///
/// # Errors
///
/// Returns [`QuantError::InvalidShape`] if the activation width does not
/// match `w`'s input dimension, and [`QuantError::InvalidConfig`] for
/// symmetric schemes (the implementation mirrors the paper's asymmetric
/// grouped setting).
pub fn gptq_quantize(
    w: &Matrix,
    x: &Matrix,
    cfg: &QuantConfig,
    opts: &GptqOptions,
) -> Result<QuantizedMatrix> {
    if cfg.scheme() != Scheme::Asymmetric {
        return Err(QuantError::InvalidConfig(
            "this GPTQ implementation supports asymmetric grouped quantization".into(),
        ));
    }
    let (rows, cols) = w.shape();
    if rows == 0 || cols == 0 {
        return Err(QuantError::InvalidShape("cannot quantize an empty matrix".into()));
    }
    if x.cols() != cols {
        return Err(QuantError::InvalidShape(format!(
            "calibration width {} does not match in_features {cols}",
            x.cols()
        )));
    }
    if x.rows() == 0 {
        return Err(QuantError::InvalidShape("calibration set is empty".into()));
    }

    // H = 2 XᵀX, damped for invertibility.
    let mut h = x.transpose().matmul(x)?.scale(2.0);
    let mean_diag: f32 = (0..cols).map(|i| h[(i, i)]).sum::<f32>() / cols as f32;
    let damp = opts.percdamp * mean_diag.max(1e-8);
    for i in 0..cols {
        h[(i, i)] += damp;
    }
    // The fast-GPTQ recursion uses the *upper Cholesky factor* U of H⁻¹
    // (H⁻¹ = Uᵀ·U): its rows encode the sequential OBS updates with the
    // already-quantized rows/columns implicitly removed. Propagating with
    // raw H⁻¹ entries instead over-corrects and destroys accuracy.
    let l = cholesky_decompose(&h)?;
    let hinv = cholesky_inverse(&l)?;
    let u = cholesky_decompose(&hinv)?.transpose();

    // Working copy of W that absorbs the propagated errors.
    let mut work = w.clone();
    let groups_per_row = cfg.groups_per_row(cols);
    let mut codes = vec![0u8; rows * cols];
    let mut scales = vec![0.0f32; rows * groups_per_row];
    let mut zeros = vec![0.0f32; rows * groups_per_row];
    let max_code = cfg.max_code() as f32;

    // Pre-compute group boundaries.
    let ranges: Vec<(usize, std::ops::Range<usize>)> =
        group_ranges(cols, cfg.group_size()).collect();

    for (g, range) in &ranges {
        // Freeze the quantization grid for this group from the *current*
        // (error-adjusted) weights, as the reference implementation does
        // when entering a new group.
        for r in 0..rows {
            let (s, z) = asym_grid(&work.row(r)[range.clone()], max_code);
            scales[r * groups_per_row + g] = s;
            zeros[r * groups_per_row + g] = z;
        }
        for j in range.clone() {
            let d = u[(j, j)].max(1e-12);
            for r in 0..rows {
                let gi = r * groups_per_row + g;
                let (s, z) = (scales[gi], zeros[gi]);
                let v = work[(r, j)];
                let q = asym_code(v, s, z, max_code);
                codes[r * cols + j] = q as u8;
                let dq = s * (q - z);
                let err = (v - dq) / d;
                // Spread the rounding error over unquantized columns via
                // the Cholesky-factor row (zero below the diagonal).
                for k in (j + 1)..cols {
                    work[(r, k)] -= err * u[(j, k)];
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

    fn rng(seed: u64) -> milo_tensor::rng::StdRng {
        milo_tensor::rng::StdRng::seed_from_u64(seed)
    }

    fn weight(rows: usize, cols: usize, seed: u64) -> Matrix {
        WeightDist::StudentT { dof: 6.0, scale: 0.05 }.sample_matrix(rows, cols, &mut rng(seed))
    }

    fn activations(n: usize, dim: usize, seed: u64) -> Matrix {
        WeightDist::Gaussian { std: 1.0 }.sample_matrix(n, dim, &mut rng(seed))
    }

    /// Output-space error ‖(W − Ŵ)·xᵀ‖ on a sample batch.
    fn output_error(w: &Matrix, dq: &Matrix, x: &Matrix) -> f32 {
        let diff = w.sub(dq).unwrap();
        diff.matmul(&x.transpose()).unwrap().frobenius_norm()
    }

    #[test]
    fn gptq_beats_rtn_on_calibration_distribution() {
        let w = weight(16, 64, 1);
        let x = activations(128, 64, 2);
        let cfg = QuantConfig::new(3, 32, Scheme::Asymmetric).unwrap();
        let gptq = gptq_quantize(&w, &x, &cfg, &GptqOptions::default()).unwrap();
        let rtn = crate::rtn_quantize(&w, &cfg).unwrap();
        let e_gptq = output_error(&w, &gptq.dequantize(), &x);
        let e_rtn = output_error(&w, &rtn.dequantize(), &x);
        assert!(
            e_gptq < e_rtn,
            "GPTQ output error {e_gptq} should beat RTN {e_rtn} on its calibration set"
        );
    }

    #[test]
    fn gptq_codes_in_range() {
        let w = weight(8, 32, 3);
        let x = activations(64, 32, 4);
        let cfg = QuantConfig::new(3, 16, Scheme::Asymmetric).unwrap();
        let q = gptq_quantize(&w, &x, &cfg, &GptqOptions::default()).unwrap();
        assert!(q.codes().iter().all(|&c| c <= 7));
    }

    #[test]
    fn mismatched_calibration_width_rejected() {
        let w = weight(4, 32, 5);
        let x = activations(16, 16, 6);
        let cfg = QuantConfig::new(3, 16, Scheme::Asymmetric).unwrap();
        assert!(matches!(
            gptq_quantize(&w, &x, &cfg, &GptqOptions::default()),
            Err(QuantError::InvalidShape(_))
        ));
    }

    #[test]
    fn empty_calibration_rejected() {
        let w = weight(4, 32, 7);
        let x = Matrix::zeros(0, 32);
        let cfg = QuantConfig::new(3, 16, Scheme::Asymmetric).unwrap();
        assert!(gptq_quantize(&w, &x, &cfg, &GptqOptions::default()).is_err());
    }

    #[test]
    fn symmetric_scheme_rejected() {
        let w = weight(4, 32, 8);
        let x = activations(16, 32, 9);
        let cfg = QuantConfig::new(3, 16, Scheme::Symmetric).unwrap();
        assert!(matches!(
            gptq_quantize(&w, &x, &cfg, &GptqOptions::default()),
            Err(QuantError::InvalidConfig(_))
        ));
    }

    #[test]
    fn calibration_bias_is_observable() {
        // GPTQ tuned on distribution A should do worse when evaluated on a
        // very different distribution B than on A itself — the bias the
        // paper's calibration-free pitch targets.
        let w = weight(16, 64, 10);
        // Calibration set with a strongly anisotropic covariance.
        let mut xa = activations(128, 64, 11);
        for r in 0..xa.rows() {
            for c in 0..32 {
                xa[(r, c)] *= 8.0;
            }
        }
        let xb = activations(128, 64, 12);
        let cfg = QuantConfig::new(3, 32, Scheme::Asymmetric).unwrap();
        let q = gptq_quantize(&w, &xa, &cfg, &GptqOptions::default()).unwrap();
        let dq = q.dequantize();
        // Per-sample-normalized output errors.
        let ea = output_error(&w, &dq, &xa) / xa.frobenius_norm();
        let eb = output_error(&w, &dq, &xb) / xb.frobenius_norm();
        assert!(
            eb > ea,
            "normalized error off-calibration ({eb}) should exceed on-calibration ({ea})"
        );
    }
}
