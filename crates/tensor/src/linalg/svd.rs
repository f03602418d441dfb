//! Singular value decomposition.
//!
//! Two routines back the paper's pipeline:
//!
//! * [`jacobi_svd`] — a one-sided Jacobi SVD that computes *all* singular
//!   values. The paper's Table 2 residual-rank measure needs the whole
//!   spectrum, and Jacobi is simple, robust, and accurate at the matrix
//!   sizes the scaled models use.
//! * [`truncated_svd`] — randomized subspace iteration producing only the
//!   top-`r` triple. This plays the role of `torch.svd_lowrank` in the
//!   paper's implementation (Appendix B): the low-rank compensator only
//!   needs the leading `r` singular directions of the residual, and
//!   computing the full SVD of every residual would dominate quantization
//!   time.

use crate::linalg::qr::thin_qr;
use crate::rng::standard_normal;
use crate::{Matrix, Result, TensorError};
use crate::rng::StdRng;
use crate::rng::SeedableRng;

/// The result of a singular value decomposition `A = U · diag(σ) · Vᵗ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × k` with orthonormal columns.
    pub u: Matrix,
    /// Singular values in non-increasing order, length `k`.
    pub sigma: Vec<f32>,
    /// Right singular vectors **transposed**, `k × n` with orthonormal rows.
    pub vt: Matrix,
}

impl Svd {
    /// Splits into the paper's compensator form `U' = U·√Σ`, `V' = √Σ·Vᵗ`
    /// (Eq. 12), so that `U'·V'` equals the truncated reconstruction.
    pub fn split_balanced(&self) -> (Matrix, Matrix) {
        let mut u = self.u.clone();
        let mut vt = self.vt.clone();
        for (c, &s) in self.sigma.iter().enumerate() {
            let sqrt_s = s.max(0.0).sqrt();
            for r in 0..u.rows() {
                u[(r, c)] *= sqrt_s;
            }
            for j in 0..vt.cols() {
                vt[(c, j)] *= sqrt_s;
            }
        }
        (u, vt)
    }
}

/// Computes the full SVD of `a` by one-sided Jacobi rotations.
///
/// Returns all `min(m, n)` singular values in non-increasing order. The
/// sweep terminates when every column pair is orthogonal to relative
/// tolerance `1e-10`, or after 60 sweeps.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for an empty matrix and
/// [`TensorError::NoConvergence`] if the sweeps fail to orthogonalize.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(TensorError::InvalidArgument("SVD of an empty matrix".into()));
    }
    // One-sided Jacobi orthogonalizes columns; work on the orientation with
    // fewer columns and swap U/V afterwards if we transposed.
    if m < n {
        let svd_t = jacobi_svd(&a.transpose())?;
        return Ok(Svd { u: svd_t.vt.transpose(), sigma: svd_t.sigma, vt: svd_t.u.transpose() });
    }

    // Column-major f64 working copy of A (m rows, n cols) and V (n x n).
    let mut cols: Vec<Vec<f64>> =
        (0..n).map(|j| (0..m).map(|i| a[(i, j)] as f64).collect()).collect();
    let mut v: Vec<Vec<f64>> = (0..n)
        .map(|j| {
            let mut col = vec![0.0; n];
            col[j] = 1.0;
            col
        })
        .collect();

    const MAX_SWEEPS: usize = 60;
    const TOL: f64 = 1e-10;
    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    alpha += cols[p][i] * cols[p][i];
                    beta += cols[q][i] * cols[q][i];
                    gamma += cols[p][i] * cols[q][i];
                }
                if alpha == 0.0 || beta == 0.0 {
                    continue;
                }
                let denom = (alpha * beta).sqrt();
                if gamma.abs() / denom <= TOL {
                    continue;
                }
                off = off.max(gamma.abs() / denom);
                // Jacobi rotation that zeroes the (p,q) inner product.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let (xp, xq) = (cols[p][i], cols[q][i]);
                    cols[p][i] = c * xp - s * xq;
                    cols[q][i] = s * xp + c * xq;
                }
                for i in 0..n {
                    let (vp, vq) = (v[p][i], v[q][i]);
                    v[p][i] = c * vp - s * vq;
                    v[q][i] = s * vp + c * vq;
                }
            }
        }
        if off <= TOL {
            converged = true;
            break;
        }
    }
    if !converged {
        // One extra check: tiny matrices may simply be done.
        // Treat near-orthogonal as converged rather than erroring eagerly.
        let mut worst = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let dot: f64 = (0..m).map(|i| cols[p][i] * cols[q][i]).sum();
                let np: f64 = cols[p].iter().map(|x| x * x).sum();
                let nq: f64 = cols[q].iter().map(|x| x * x).sum();
                if np > 0.0 && nq > 0.0 {
                    worst = worst.max(dot.abs() / (np * nq).sqrt());
                }
            }
        }
        if worst > 1e-6 {
            return Err(TensorError::NoConvergence { iterations: MAX_SWEEPS });
        }
    }

    // Singular values are the column norms; sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> =
        cols.iter().map(|col| col.iter().map(|x| x * x).sum::<f64>().sqrt()).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("norms are finite"));

    let mut u = Matrix::zeros(m, n);
    let mut vt = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (out_idx, &src) in order.iter().enumerate() {
        let s = norms[src];
        sigma.push(s as f32);
        if s > 0.0 {
            for i in 0..m {
                u[(i, out_idx)] = (cols[src][i] / s) as f32;
            }
        }
        for i in 0..n {
            vt[(out_idx, i)] = v[src][i] as f32;
        }
    }
    Ok(Svd { u, sigma, vt })
}

/// Computes a rank-`r` truncated SVD by randomized subspace iteration.
///
/// Sketches `A` with a Gaussian test matrix of width `r + oversample`,
/// runs `power_iters` rounds of power iteration with QR
/// re-orthonormalization, then solves the small projected problem exactly
/// with [`jacobi_svd`]. `seed` makes the sketch deterministic.
///
/// With `oversample ≈ 8` and `power_iters ≈ 2` the leading singular
/// triples are accurate to well below the quantization noise floor this
/// library cares about.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `r == 0` or
/// `r > min(m, n)`.
pub fn truncated_svd(
    a: &Matrix,
    r: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Result<Svd> {
    let (m, n) = a.shape();
    let k_max = m.min(n);
    if r == 0 || r > k_max {
        return Err(TensorError::InvalidArgument(format!(
            "rank {r} out of range for {m}x{n} matrix"
        )));
    }
    let k = (r + oversample).min(k_max);

    let mut rng = StdRng::seed_from_u64(seed);
    let omega = Matrix::from_fn(n, k, |_, _| standard_normal(&mut rng));
    let mut y = a.matmul(&omega)?; // m x k
    let (mut q, _) = thin_qr(&y)?;
    for _ in 0..power_iters {
        let z = a.transpose().matmul(&q)?; // n x k
        let (qz, _) = thin_qr(&z)?;
        y = a.matmul(&qz)?;
        let (qy, _) = thin_qr(&y)?;
        q = qy;
    }
    let b = q.transpose().matmul(a)?; // k x n
    let small = jacobi_svd(&b)?;
    let u_full = q.matmul(&small.u)?; // m x k

    // Truncate to rank r.
    let u = u_full.submatrix(0, m, 0, r);
    let vt = small.vt.submatrix(0, r, 0, n);
    let sigma = small.sigma[..r].to_vec();
    Ok(Svd { u, sigma, vt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::WeightDist;

    /// Reconstructs `U · diag(σ) · Vᵗ`.
    fn reconstruct(svd: &Svd) -> Matrix {
        let mut us = svd.u.clone();
        for r in 0..us.rows() {
            for (c, &s) in svd.sigma.iter().enumerate() {
                us[(r, c)] *= s;
            }
        }
        us.matmul(&svd.vt).unwrap()
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        WeightDist::Gaussian { std: 1.0 }.sample_matrix(m, n, &mut rng)
    }

    #[test]
    fn jacobi_reconstructs_tall_matrix() {
        let a = random(16, 8, 1);
        let svd = jacobi_svd(&a).unwrap();
        assert_close(&reconstruct(&svd), &a, 1e-4);
    }

    #[test]
    fn jacobi_reconstructs_wide_matrix() {
        let a = random(6, 14, 2);
        let svd = jacobi_svd(&a).unwrap();
        assert_close(&reconstruct(&svd), &a, 1e-4);
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let a = random(12, 12, 3);
        let svd = jacobi_svd(&a).unwrap();
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn u_and_v_are_orthonormal() {
        let a = random(10, 7, 4);
        let svd = jacobi_svd(&a).unwrap();
        assert_close(&svd.u.transpose().matmul(&svd.u).unwrap(), &Matrix::identity(7), 1e-4);
        assert_close(&svd.vt.matmul(&svd.vt.transpose()).unwrap(), &Matrix::identity(7), 1e-4);
    }

    #[test]
    fn known_diagonal_spectrum() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.sigma[0] - 4.0).abs() < 1e-5);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn rank_one_matrix_has_one_singular_value() {
        let u = random(9, 1, 5);
        let v = random(1, 6, 6);
        let a = u.matmul(&v).unwrap();
        let svd = jacobi_svd(&a).unwrap();
        assert!(svd.sigma[0] > 0.1);
        for &s in &svd.sigma[1..] {
            assert!(s < 1e-4, "trailing sigma {s}");
        }
    }

    #[test]
    fn truncated_matches_jacobi_on_leading_triples() {
        // A flat Gaussian spectrum is the hard case for subspace
        // iteration; 1% on each leading singular value is the realistic
        // bar there (structured spectra are tested separately below).
        let a = random(40, 24, 7);
        let full = jacobi_svd(&a).unwrap();
        let trunc = truncated_svd(&a, 5, 8, 4, 99).unwrap();
        for i in 0..5 {
            assert!(
                (full.sigma[i] - trunc.sigma[i]).abs() / full.sigma[i] < 1e-2,
                "sigma[{i}]: {} vs {}",
                full.sigma[i],
                trunc.sigma[i]
            );
        }
    }

    #[test]
    fn truncated_is_near_exact_on_decaying_spectrum() {
        // Build A = U diag(4^-i) Vᵗ: with a geometric spectrum the
        // randomized solver should recover the leading triples to ~1e-4.
        let base = random(24, 16, 21);
        let full = jacobi_svd(&base).unwrap();
        let mut scaled = full.u.clone();
        for r in 0..scaled.rows() {
            for c in 0..scaled.cols() {
                scaled[(r, c)] *= 4.0f32.powi(-(c as i32));
            }
        }
        let a = scaled.matmul(&full.vt).unwrap();
        let trunc = truncated_svd(&a, 4, 6, 2, 5).unwrap();
        for (i, &s) in trunc.sigma.iter().enumerate() {
            let expected = 4.0f32.powi(-(i as i32));
            assert!(
                (s - expected).abs() / expected < 1e-3,
                "sigma[{i}]: {s} vs {expected}"
            );
        }
    }

    #[test]
    fn truncated_rank_r_is_best_approximation_error() {
        // Eckart–Young: error of rank-r truncation equals sqrt of the sum
        // of squared discarded singular values.
        let a = random(30, 20, 8);
        let full = jacobi_svd(&a).unwrap();
        let r = 4;
        let trunc = truncated_svd(&a, r, 10, 3, 13).unwrap();
        let approx = reconstruct(&trunc);
        let err = a.sub(&approx).unwrap().frobenius_norm();
        let optimal: f32 =
            full.sigma[r..].iter().map(|&s| (s as f64) * (s as f64)).sum::<f64>().sqrt() as f32;
        assert!(
            (err - optimal).abs() / optimal < 0.01,
            "err {err} vs Eckart-Young optimum {optimal}"
        );
    }

    #[test]
    fn split_balanced_product_equals_reconstruction() {
        let a = random(15, 10, 9);
        let svd = truncated_svd(&a, 3, 5, 2, 1).unwrap();
        let (u, v) = svd.split_balanced();
        assert_close(&u.matmul(&v).unwrap(), &reconstruct(&svd), 1e-4);
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let a = random(8, 8, 10);
        assert!(truncated_svd(&a, 0, 2, 1, 0).is_err());
        assert!(truncated_svd(&a, 9, 2, 1, 0).is_err());
    }

    #[test]
    fn zero_matrix_has_zero_spectrum() {
        let a = Matrix::zeros(5, 5);
        let svd = jacobi_svd(&a).unwrap();
        assert!(svd.sigma.iter().all(|&s| s == 0.0));
    }
}
