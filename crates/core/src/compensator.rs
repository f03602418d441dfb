//! Low-rank compensators (paper §3.1.2, §3.2.3, §3.2.6).
//!
//! A compensator approximates the quantization residual `E = W − W_dq`
//! with a rank-`r` product `U·V`, where `U ∈ ℝ^{m×r}` and `V ∈ ℝ^{r×n}`
//! are obtained from the truncated SVD of `E` with the balanced split of
//! paper Eq. 12 (`U = Û·√Σ`, `V = √Σ·V̂ᵗ`). The compensator matrices can
//! themselves be quantized (INT8 or INT3, §3.2.6) to shrink the memory
//! overhead further.

use crate::{MiloError, Result};
use milo_quant::{symmetric_quantize, QuantConfig, QuantizedMatrix};
use milo_tensor::linalg::truncated_svd;
use milo_tensor::Matrix;

/// A full-precision rank-`r` compensator `U·V`.
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankCompensator {
    u: Matrix,
    v: Matrix,
}

impl LowRankCompensator {
    /// Fits a rank-`rank` compensator to the residual `e` by truncated
    /// SVD (paper Eqs. 11–12). `seed` drives the randomized SVD sketch.
    ///
    /// # Errors
    ///
    /// Returns [`MiloError::InvalidRank`] if `rank` is zero or exceeds
    /// `min(e.rows(), e.cols())`.
    pub fn fit(e: &Matrix, rank: usize, seed: u64) -> Result<Self> {
        let (rows, cols) = e.shape();
        if rank == 0 || rank > rows.min(cols) {
            return Err(MiloError::InvalidRank { rank, rows, cols });
        }
        // Oversampling 8 / two power iterations keeps the truncation
        // error within a fraction of a percent of Eckart-Young optimal at
        // the sizes the scaled models use.
        let svd = truncated_svd(e, rank, 8, 2, seed)?;
        let (u, v) = svd.split_balanced();
        Ok(Self { u, v })
    }

    /// Builds a compensator directly from factors.
    ///
    /// # Errors
    ///
    /// Returns [`MiloError::InvalidRank`] if the inner dimensions differ.
    pub fn from_factors(u: Matrix, v: Matrix) -> Result<Self> {
        if u.cols() != v.rows() {
            return Err(MiloError::InvalidRank {
                rank: u.cols(),
                rows: u.rows(),
                cols: v.cols(),
            });
        }
        Ok(Self { u, v })
    }

    /// The left factor `U` (`m × r`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// The right factor `V` (`r × n`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// The compensator rank `r`.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Materializes the dense product `U·V`.
    pub fn to_dense(&self) -> Matrix {
        self.u.matmul(&self.v).expect("factor shapes validated at construction")
    }

    /// Memory of the FP16 deployment representation of the factors, in
    /// bytes.
    pub fn memory_bytes(&self) -> usize {
        2 * (self.u.len() + self.v.len())
    }

    /// Quantizes the factors with the symmetric scheme of paper Eq. 15.
    ///
    /// # Errors
    ///
    /// Propagates quantizer failures; `cfg` must be symmetric.
    pub fn quantize(&self, cfg: &QuantConfig) -> Result<QuantizedCompensator> {
        Ok(QuantizedCompensator {
            u: symmetric_quantize(&self.u, cfg)?,
            v: symmetric_quantize(&self.v, cfg)?,
        })
    }
}

/// A compensator whose `U`, `V` factors are symmetrically quantized
/// (paper §3.2.6, Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedCompensator {
    u: QuantizedMatrix,
    v: QuantizedMatrix,
}

impl QuantizedCompensator {
    /// Builds a quantized compensator directly from factors (used by
    /// deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`MiloError::InvalidRank`] if the inner dimensions differ.
    pub fn from_factors(u: QuantizedMatrix, v: QuantizedMatrix) -> Result<Self> {
        if u.cols() != v.rows() {
            return Err(MiloError::InvalidRank {
                rank: u.cols(),
                rows: u.rows(),
                cols: v.cols(),
            });
        }
        Ok(Self { u, v })
    }

    /// The quantized left factor.
    pub fn u(&self) -> &QuantizedMatrix {
        &self.u
    }

    /// The quantized right factor.
    pub fn v(&self) -> &QuantizedMatrix {
        &self.v
    }

    /// The compensator rank `r`.
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// De-quantizes and materializes the dense product `U·V`.
    pub fn to_dense(&self) -> Matrix {
        self.u
            .dequantize()
            .matmul(&self.v.dequantize())
            .expect("factor shapes validated at construction")
    }

    /// Memory of the packed deployment representation, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.u.packed_bytes() + self.v.packed_bytes()
    }
}

/// Either representation of a compensator, as carried by a compressed
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Compensator {
    /// Full-precision factors (kept in FP16 at deployment).
    Fp16(LowRankCompensator),
    /// Symmetrically quantized factors (paper §3.2.6).
    Quantized(QuantizedCompensator),
}

impl Compensator {
    /// The compensator rank `r`.
    pub fn rank(&self) -> usize {
        match self {
            Compensator::Fp16(c) => c.rank(),
            Compensator::Quantized(c) => c.rank(),
        }
    }

    /// Materializes the dense product `U·V`.
    pub fn to_dense(&self) -> Matrix {
        match self {
            Compensator::Fp16(c) => c.to_dense(),
            Compensator::Quantized(c) => c.to_dense(),
        }
    }

    /// Deployment memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Compensator::Fp16(c) => c.memory_bytes(),
            Compensator::Quantized(c) => c.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_quant::Scheme;
    use milo_tensor::linalg::jacobi_svd;
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn residual(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        WeightDist::Gaussian { std: 0.02 }.sample_matrix(rows, cols, &mut rng)
    }

    #[test]
    fn fit_reduces_residual_norm() {
        let e = residual(48, 32, 1);
        let c = LowRankCompensator::fit(&e, 8, 0).unwrap();
        let after = e.sub(&c.to_dense()).unwrap().frobenius_norm();
        assert!(after < e.frobenius_norm());
    }

    #[test]
    fn fit_error_matches_eckart_young() {
        let e = residual(40, 30, 2);
        let full = jacobi_svd(&e).unwrap();
        let r = 6;
        let c = LowRankCompensator::fit(&e, r, 3).unwrap();
        let err = e.sub(&c.to_dense()).unwrap().frobenius_norm();
        let optimal: f32 =
            full.sigma[r..].iter().map(|&s| (s as f64).powi(2)).sum::<f64>().sqrt() as f32;
        assert!((err - optimal) / optimal < 0.02, "err {err} vs optimal {optimal}");
    }

    #[test]
    fn higher_rank_never_hurts() {
        let e = residual(32, 32, 4);
        let errs: Vec<f32> = [2usize, 4, 8, 16]
            .iter()
            .map(|&r| {
                let c = LowRankCompensator::fit(&e, r, 5).unwrap();
                e.sub(&c.to_dense()).unwrap().frobenius_norm()
            })
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] + 1e-4, "rank increase worsened error: {errs:?}");
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        let e = residual(8, 8, 6);
        assert!(matches!(
            LowRankCompensator::fit(&e, 0, 0),
            Err(MiloError::InvalidRank { .. })
        ));
        assert!(LowRankCompensator::fit(&e, 9, 0).is_err());
    }

    #[test]
    fn from_factors_validates_inner_dim() {
        let u = Matrix::zeros(4, 2);
        let v = Matrix::zeros(3, 5);
        assert!(LowRankCompensator::from_factors(u, v).is_err());
    }

    #[test]
    fn memory_accounting_scales_with_rank() {
        let e = residual(64, 64, 7);
        let c4 = LowRankCompensator::fit(&e, 4, 0).unwrap();
        let c8 = LowRankCompensator::fit(&e, 8, 0).unwrap();
        assert_eq!(c8.memory_bytes(), 2 * c4.memory_bytes());
    }

    #[test]
    fn quantized_compensator_is_smaller_and_close() {
        let e = residual(64, 64, 8);
        let c = LowRankCompensator::fit(&e, 8, 0).unwrap();
        let q = c.quantize(&QuantConfig::int3_sym()).unwrap();
        assert!(q.memory_bytes() < c.memory_bytes());
        // INT3 quantization of the factors should keep the compensator
        // useful: applying it still reduces the residual.
        let after = e.sub(&q.to_dense()).unwrap().frobenius_norm();
        assert!(after < e.frobenius_norm());
    }

    #[test]
    fn int3_uses_about_three_eighths_of_int8() {
        let e = residual(128, 128, 9);
        let c = LowRankCompensator::fit(&e, 16, 0).unwrap();
        let q3 = c.quantize(&QuantConfig::int3_sym()).unwrap();
        let q8 = c.quantize(&QuantConfig::new(8, 64, Scheme::Symmetric).unwrap()).unwrap();
        let ratio = q3.memory_bytes() as f32 / q8.memory_bytes() as f32;
        // Paper Table 6: INT3 compensators use 37.5% of INT8 memory for
        // the weights; the shared per-group scale overhead (relatively
        // large for the narrow U factor) pushes the total ratio slightly
        // above 3/8.
        assert!(ratio > 0.36 && ratio < 0.45, "ratio {ratio}");
    }

    #[test]
    fn compensator_enum_dispatches() {
        let e = residual(16, 16, 10);
        let c = LowRankCompensator::fit(&e, 2, 0).unwrap();
        let dense = c.to_dense();
        let as_enum = Compensator::Fp16(c.clone());
        assert_eq!(as_enum.rank(), 2);
        assert_eq!(as_enum.to_dense(), dense);
        let q = Compensator::Quantized(c.quantize(&QuantConfig::int3_sym()).unwrap());
        assert_eq!(q.rank(), 2);
        assert!(q.memory_bytes() < as_enum.memory_bytes());
    }
}
