//! The fused de-quantization + GEMM "kernel" (paper §3.3, Appendix D).
//!
//! This reproduces the *functional* contract of the CUDA kernel — packed
//! INT3 weights in, FP16 activations in, FP32-accumulated output out —
//! including its validation rules (Appendix D error-handling tests):
//!
//! 1. the quantization group size must be 64;
//! 2. the weight shape `(k, n)` must be a multiple of the tile shape;
//! 3. the tile shape must be one of `(256,64)`, `(128,128)`, `(64,256)`.
//!
//! Any batch of at least one row runs as given: the CUDA kernel pads the
//! batch to its `16×8×16` Tensor-Core granule, but padded rows are
//! known-zero and never change a result, so here the activation buffer
//! holds exactly the `batch` real rows (Appendix D boundary test 1). The
//! tiled reduction loop terminates early when the reduction dimension is
//! not a multiple of `4 × tile_k` (boundary test 2).
//!
//! Execution mirrors the kernel's threadblock decomposition literally:
//! each `n`-tile is an independent task on the
//! [`milo_tensor::pool`] scoped thread pool, owns a contiguous strip of
//! the (column-major) accumulator, and de-quantizes its weight strips
//! into a thread-local tile buffer. Within a tile the `k`-tile order and
//! the per-element FP32 reduction order match the serial code exactly,
//! so the output is bit-identical at every `MILO_THREADS` setting.

use crate::matrix::PackedMatrix;
use crate::{PackError, Result};
use milo_tensor::{pool, F16, Matrix};

/// The tile shapes the kernel supports (paper §3.3 "MoE-specific tile
/// shape tuning"). The first dimension tiles the reduction (`k`) axis,
/// the second the output (`n`) axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileShape {
    /// 256×64: few output tiles, long reduction — fewest global
    /// reductions along `n`.
    T256x64,
    /// 128×128: the balanced default.
    T128x128,
    /// 64×256: wide output tiles — fewest synchronizations along `k`.
    T64x256,
}

impl TileShape {
    /// `(tile_k, tile_n)` dimensions.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            TileShape::T256x64 => (256, 64),
            TileShape::T128x128 => (128, 128),
            TileShape::T64x256 => (64, 256),
        }
    }

    /// All supported tile shapes, for tuning sweeps.
    pub fn all() -> [TileShape; 3] {
        [TileShape::T256x64, TileShape::T128x128, TileShape::T64x256]
    }
}

/// The W3A16 GEMM kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmKernel {
    /// Tile shape used for the blocked loops and validated against the
    /// weight shape.
    pub tile: TileShape,
}

impl Default for GemmKernel {
    fn default() -> Self {
        Self { tile: TileShape::T128x128 }
    }
}

impl GemmKernel {
    /// Validates a launch against the Appendix D rules.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::Unsupported`] for a group size other than 64
    /// and [`PackError::InvalidShape`] when `(k, n)` is not a multiple of
    /// the tile shape or the batch is zero.
    pub fn validate(&self, batch: usize, w: &PackedMatrix) -> Result<()> {
        if w.group_size() != 64 {
            return Err(PackError::Unsupported(format!(
                "kernel requires group size 64, got {}",
                w.group_size()
            )));
        }
        let (tile_k, tile_n) = self.tile.dims();
        let (n, k) = (w.rows(), w.cols());
        if k % tile_k != 0 || n % tile_n != 0 {
            return Err(PackError::InvalidShape(format!(
                "weight shape (k={k}, n={n}) is not a multiple of tile ({tile_k}, {tile_n})"
            )));
        }
        if batch == 0 {
            return Err(PackError::InvalidShape("batch must be at least 1".into()));
        }
        Ok(())
    }

    /// Fused packed GEMM: `out = x · Wᵗ` where `x` is `batch × k` FP16
    /// activations (given as f32, rounded to FP16 internally — W3A16) and
    /// `W` is the packed `n × k` weight. Accumulation is FP32, matching
    /// Tensor-Core behaviour.
    ///
    /// # Errors
    ///
    /// Propagates [`GemmKernel::validate`] failures and shape mismatches.
    pub fn gemm(&self, x: &Matrix, w: &PackedMatrix) -> Result<Matrix> {
        let x16 = self.activations(x, w)?;
        let _span = milo_obs::span(|| "pack.gemm.fused".into());
        let telemetry = milo_obs::enabled();
        let (batch, k) = (x.rows(), w.cols());
        let tile_k = self.tile.dims().0;
        // Each tile de-quantizes its weight strips into a thread-local
        // buffer and keeps the per-element k-tile reduction order
        // sequential, so results are bit-identical across thread counts.
        Ok(self.per_tile(batch, w.rows(), |n0, strip| {
            let mut wtile = vec![F16::ZERO; tile_k]; // thread-local dequant strip
            // Dequant-vs-MAC split, accumulated locally per tile and
            // flushed once (two counter touches per tile, not per strip).
            let (mut dequant_ns, mut mac_ns) = (0u64, 0u64);
            for k0 in (0..k).step_by(tile_k) {
                for (oo, outs) in strip.chunks_mut(batch).enumerate() {
                    let t0 = telemetry.then(std::time::Instant::now);
                    // Dequantize the k-strip of output row n0 + oo straight
                    // into the tile buffer, one 32-weight group at a time.
                    for (gi, g) in ((k0 / 32)..((k0 + tile_k) / 32)).enumerate() {
                        w.dequant_group_into(n0 + oo, g, &mut wtile[gi * 32..gi * 32 + 32]);
                    }
                    let t1 = telemetry.then(std::time::Instant::now);
                    for (b, out) in outs.iter_mut().enumerate() {
                        let xrow = &x16[b * k + k0..b * k + k0 + tile_k];
                        let mut sum = 0.0f32;
                        for (xv, wv) in xrow.iter().zip(&wtile) {
                            sum += xv.to_f32() * wv.to_f32();
                        }
                        *out += sum;
                    }
                    if let (Some(t0), Some(t1)) = (t0, t1) {
                        dequant_ns += (t1 - t0).as_nanos() as u64;
                        mac_ns += t1.elapsed().as_nanos() as u64;
                    }
                }
            }
            if telemetry {
                milo_obs::counter_add("pack.gemm.dequant_ns", dequant_ns);
                milo_obs::counter_add("pack.gemm.mac_ns", mac_ns);
            }
        }))
    }

    /// The unfused reference path ("MiLo Dequant + CUTLASS" in Fig. 9):
    /// de-quantize the whole weight to a dense FP16 buffer first, then
    /// run a plain GEMM over it, parallelized over the same n-tiles as
    /// the fused path.
    ///
    /// # Errors
    ///
    /// Same validation as [`GemmKernel::gemm`].
    pub fn gemm_unfused(&self, x: &Matrix, w: &PackedMatrix) -> Result<Matrix> {
        let x16 = self.activations(x, w)?;
        let _span = milo_obs::span(|| "pack.gemm.unfused".into());
        let dense = w.dequantize(); // n × k, already rounded through FP16
        let (batch, k) = (x.rows(), w.cols());
        Ok(self.per_tile(batch, w.rows(), |n0, strip| {
            for (oo, outs) in strip.chunks_mut(batch).enumerate() {
                let wrow = dense.row(n0 + oo);
                for (b, out) in outs.iter_mut().enumerate() {
                    let mut sum = 0.0f32;
                    for j in 0..k {
                        sum += x16[b * k + j].to_f32() * wrow[j];
                    }
                    *out = sum;
                }
            }
        }))
    }

    /// Validates the launch and rounds the activations through FP16
    /// once (W3A16 semantics): `batch × k` values, row-major.
    fn activations(&self, x: &Matrix, w: &PackedMatrix) -> Result<Vec<F16>> {
        self.validate(x.rows(), w)?;
        if x.cols() != w.cols() {
            return Err(PackError::InvalidShape(format!(
                "activation width {} does not match k={}",
                x.cols(),
                w.cols()
            )));
        }
        Ok(x.as_slice().iter().map(|&v| F16::from_f32(v)).collect())
    }

    /// Runs `tile(n0, strip)` for every `n`-tile on the pool and returns
    /// the `batch × n` result. The accumulator is n-major
    /// (`acc[o * batch + b]`), so each tile owns one contiguous strip —
    /// the threadblock decomposition becomes a lock-free parallel loop —
    /// and is copied to row-major once at the end.
    fn per_tile(
        &self,
        batch: usize,
        n: usize,
        tile: impl Fn(usize, &mut [f32]) + Sync,
    ) -> Matrix {
        let tile_n = self.tile.dims().1;
        let mut acc = vec![0.0f32; n * batch];
        pool::parallel_chunks_mut(&mut acc, tile_n * batch, |t, strip| tile(t * tile_n, strip));
        let mut out = Matrix::zeros(batch, n);
        for b in 0..batch {
            for (o, v) in out.row_mut(b).iter_mut().enumerate() {
                *v = acc[o * batch + b];
            }
        }
        out
    }
}

/// FP32 reference GEMM `x · Wᵗ` against a dense weight, used as the
/// ground truth in correctness tests (Appendix D's 0.005 relative-error
/// criterion is measured against this).
pub fn reference_gemm(x: &Matrix, w_dense: &Matrix) -> Matrix {
    let batch = x.rows();
    let n = w_dense.rows();
    let k = w_dense.cols();
    assert_eq!(x.cols(), k, "reference shapes must agree");
    let mut out = Matrix::zeros(batch, n);
    for b in 0..batch {
        let xrow = x.row(b);
        for o in 0..n {
            let wrow = w_dense.row(o);
            let mut sum = 0.0f64;
            for j in 0..k {
                sum += xrow[j] as f64 * wrow[j] as f64;
            }
            out[(b, o)] = sum as f32;
        }
    }
    out
}

/// Relative Frobenius error between a kernel output and the reference.
pub fn relative_error(out: &Matrix, reference: &Matrix) -> f32 {
    let denom = reference.frobenius_norm().max(1e-12);
    out.sub(reference).expect("shapes agree").frobenius_norm() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_quant::{rtn_quantize, QuantConfig};
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn setup(batch: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix, PackedMatrix) {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(n, k, &mut rng);
        let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(batch, k, &mut rng);
        let q = rtn_quantize(&w, &QuantConfig::int3_asym()).unwrap();
        let packed = PackedMatrix::pack(&q).unwrap();
        (x, q.dequantize(), packed)
    }

    #[test]
    fn fused_matches_reference_within_criterion() {
        let (x, dense, packed) = setup(4, 128, 128, 1);
        let kernel = GemmKernel { tile: TileShape::T128x128 };
        let out = kernel.gemm(&x, &packed).unwrap();
        let reference = reference_gemm(&x, &dense);
        assert!(
            relative_error(&out, &reference) < 0.005,
            "relative error {} exceeds Appendix D criterion",
            relative_error(&out, &reference)
        );
    }

    #[test]
    fn fused_and_unfused_agree() {
        let (x, _, packed) = setup(8, 128, 128, 2);
        let kernel = GemmKernel::default();
        let fused = kernel.gemm(&x, &packed).unwrap();
        let unfused = kernel.gemm_unfused(&x, &packed).unwrap();
        assert!(relative_error(&fused, &unfused) < 1e-5);
    }

    #[test]
    fn all_tile_shapes_give_same_result() {
        let (x, _, packed) = setup(4, 256, 256, 3);
        let mut outputs = Vec::new();
        for tile in TileShape::all() {
            outputs.push(GemmKernel { tile }.gemm(&x, &packed).unwrap());
        }
        for o in &outputs[1..] {
            assert!(relative_error(o, &outputs[0]) < 1e-6);
        }
    }

    #[test]
    fn batch_not_multiple_of_16_matches_the_same_rows_in_a_larger_batch() {
        // Appendix D boundary case: the first 5 rows of a 17-row batch
        // give the same outputs when run as a batch of 5.
        let (x, _, packed) = setup(17, 128, 128, 4);
        let kernel = GemmKernel::default();
        let full = kernel.gemm(&x, &packed).unwrap();
        let first = x.submatrix(0, 5, 0, x.cols());
        let part = kernel.gemm(&first, &packed).unwrap();
        for b in 0..5 {
            for o in 0..128 {
                assert_eq!(full[(b, o)], part[(b, o)]);
            }
        }
    }

    #[test]
    fn group_size_other_than_64_rejected() {
        use milo_quant::Scheme;
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(5);
        let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(128, 128, &mut rng);
        let cfg = QuantConfig::new(3, 32, Scheme::Asymmetric).unwrap();
        let q = rtn_quantize(&w, &cfg).unwrap();
        let packed = PackedMatrix::pack(&q).unwrap();
        let x = Matrix::zeros(1, 128);
        assert!(matches!(
            GemmKernel::default().gemm(&x, &packed),
            Err(PackError::Unsupported(_))
        ));
    }

    #[test]
    fn non_tile_multiple_shape_rejected() {
        let (x, _, packed) = setup(1, 128, 128, 6);
        // (k=128, n=128) is not a multiple of (256, 64) along k.
        assert!(matches!(
            GemmKernel { tile: TileShape::T256x64 }.gemm(&x, &packed),
            Err(PackError::InvalidShape(_))
        ));
    }

    #[test]
    fn zero_batch_rejected() {
        let (_, _, packed) = setup(1, 128, 128, 7);
        let x = Matrix::zeros(0, 128);
        assert!(GemmKernel::default().gemm(&x, &packed).is_err());
    }

    #[test]
    fn mismatched_activation_width_rejected() {
        let (_, _, packed) = setup(1, 128, 128, 8);
        let x = Matrix::zeros(1, 64);
        assert!(GemmKernel::default().gemm(&x, &packed).is_err());
    }

    #[test]
    fn parallel_gemm_is_bit_identical_across_thread_counts() {
        use milo_tensor::pool;
        // Batches below, at and above the 16-row Tensor-Core granule,
        // through both kernel paths.
        for batch in [1usize, 5, 16, 17] {
            let (x, _, packed) = setup(batch, 256, 256, 21);
            let kernel = GemmKernel::default();
            let serial = pool::with_threads(1, || kernel.gemm(&x, &packed).unwrap());
            let serial_unfused =
                pool::with_threads(1, || kernel.gemm_unfused(&x, &packed).unwrap());
            for t in [2, 4, 7] {
                let par = pool::with_threads(t, || kernel.gemm(&x, &packed).unwrap());
                assert_eq!(par.as_slice(), serial.as_slice(), "fused batch={batch} t={t}");
                let par_unfused =
                    pool::with_threads(t, || kernel.gemm_unfused(&x, &packed).unwrap());
                assert_eq!(
                    par_unfused.as_slice(),
                    serial_unfused.as_slice(),
                    "unfused batch={batch} t={t}"
                );
            }
        }
    }

    #[test]
    fn parallel_gemm_identical_for_every_tile_shape() {
        use milo_tensor::pool;
        let (x, _, packed) = setup(4, 256, 256, 22);
        for tile in TileShape::all() {
            let kernel = GemmKernel { tile };
            let serial = pool::with_threads(1, || kernel.gemm(&x, &packed).unwrap());
            let par = pool::with_threads(4, || kernel.gemm(&x, &packed).unwrap());
            assert_eq!(par.as_slice(), serial.as_slice(), "{tile:?}");
        }
    }

    #[test]
    fn symmetric_weights_also_work() {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(9);
        let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(128, 128, &mut rng);
        let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(2, 128, &mut rng);
        let q = rtn_quantize(&w, &QuantConfig::int3_sym()).unwrap();
        let packed = PackedMatrix::pack(&q).unwrap();
        let out = GemmKernel::default().gemm(&x, &packed).unwrap();
        let reference = reference_gemm(&x, &q.dequantize());
        assert!(relative_error(&out, &reference) < 0.005);
    }
}
