//! A single projection in deployment form: packed INT3 weight (+ scales
//! and zero-points), optional low-rank compensator factors, and the
//! fused-GEMM / dense fallback dispatch.

use milo_core::{CompressedLayer, Compensator};
use milo_moe::{Linear, MoeError, Result};
use milo_pack::{GemmKernel, PackedMatrix, TileShape};
use milo_quant::QuantizedMatrix;
use milo_tensor::{Matrix, TensorError};

/// How the weight is stored and multiplied.
#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// Zero-waste packed INT3 plus the tile shape the kernel runs with.
    Packed(PackedMatrix, GemmKernel),
    /// Dense fallback for weights the kernel rejects: the FP32
    /// de-quantized values `scale·(q − z)`, multiplied against unrounded
    /// FP32 activations — kept transposed (`in × out`) so the hot loop is
    /// a plain row-major GEMM.
    Dense(Matrix),
}

/// A deployed linear layer: `y = x · Ŵᵀ (+ (x·Vᵀ)·Uᵀ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLinear {
    storage: Storage,
    /// Compensator factors stored *pre-transposed* as `(Vᵀ: in×r,
    /// Uᵀ: r×out)`, de-quantized and transposed once at build time so the
    /// per-token hot loop runs two plain row-major GEMMs with no
    /// per-batch transpose (deployment keeps them INT3; the memory
    /// accounting below uses the packed size).
    comp_t: Option<(Matrix, Matrix)>,
    out_features: usize,
    in_features: usize,
    /// Deployment memory in bytes (packed weight + packed compensator).
    memory_bytes: usize,
}

/// `q` packed, with the first tile shape whose kernel accepts it:
/// [`PackedMatrix::pack`] (3-bit only) and [`GemmKernel::validate`]
/// (group size, tile divisibility) are the one rule for when the packed
/// path runs, so a weight they reject never reaches a forward pass.
fn with_kernel(q: &QuantizedMatrix) -> Option<(PackedMatrix, GemmKernel)> {
    let w = PackedMatrix::pack(q).ok()?;
    let kernel = (TileShape::all().into_iter())
        .map(|tile| GemmKernel { tile })
        .find(|k| k.validate(1, &w).is_ok())?;
    Some((w, kernel))
}

/// A shape error naming the step of [`PackedLinear::forward`] that failed.
fn shape_error(msg: String) -> MoeError {
    MoeError::Tensor(TensorError::ShapeMismatch(msg))
}

impl PackedLinear {
    /// Builds the deployment form of one compressed layer. INT3 weights
    /// go to the zero-waste packed layout; any other width, or a packed
    /// weight no kernel tile accepts, falls back to a dense path built
    /// from the same de-quantized values.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (every weight has the dense
    /// fallback), but returns `Result` to keep the door open for strict
    /// deployment modes.
    pub fn build(layer: &CompressedLayer) -> Result<Self> {
        let q = &layer.qweight;
        let (out_features, in_features) = q.shape();
        let storage = match with_kernel(q) {
            Some((w, kernel)) => Storage::Packed(w, kernel),
            None => Storage::Dense(q.dequantize().transpose()),
        };
        let comp_t = layer.compensator.as_ref().map(|c| match c {
            Compensator::Fp16(lr) => (lr.v().transpose(), lr.u().transpose()),
            Compensator::Quantized(q) => {
                (q.v().dequantize().transpose(), q.u().dequantize().transpose())
            }
        });
        let memory_bytes = layer.memory_bytes();
        Ok(Self { storage, comp_t, out_features, in_features, memory_bytes })
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Whether a packed kernel path is active (vs the dense fallback).
    pub fn uses_packed_kernel(&self) -> bool {
        matches!(self.storage, Storage::Packed(..))
    }

    /// Deployment memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Applies the projection to a batch of token vectors
    /// (`tokens × in`), returning `tokens × out`.
    ///
    /// # Errors
    ///
    /// [`MoeError::Tensor`] on a shape mismatch, naming the GEMM that
    /// failed.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.in_features {
            return Err(shape_error(format!("input width {} != {}", x.cols(), self.in_features)));
        }
        let mut y = match &self.storage {
            Storage::Packed(packed, kernel) => kernel
                .gemm(x, packed)
                .map_err(|e| shape_error(format!("packed INT3 GEMM failed: {e}")))?,
            Storage::Dense(wt) => x.matmul(wt)?,
        };
        if let Some((vt, ut)) = &self.comp_t {
            // Low-rank fast path: y += (x·Vᵀ)·Uᵀ — two skinny GEMMs on
            // the factors transposed once at build time; the U·V product
            // is never materialized.
            y = y.add(&x.matmul(vt)?.matmul(ut)?)?;
        }
        Ok(y)
    }
}

impl Linear for PackedLinear {
    const METRIC_PREFIX: &'static str = "engine";

    fn forward(&self, x: &Matrix) -> Result<Matrix> {
        PackedLinear::forward(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_core::{milo_compress, MiloOptions};
    use milo_tensor::rng::WeightDist;
    use milo_tensor::stats;
    use milo_tensor::rng::SeedableRng;

    fn compressed(rows: usize, cols: usize, rank: usize) -> (Matrix, CompressedLayer) {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(3);
        let w = WeightDist::Gaussian { std: 0.06 }.sample_matrix(rows, cols, &mut rng);
        let opts = MiloOptions { max_iters: 2, ..MiloOptions::default() };
        let layer = milo_compress(&w, rank, &opts).unwrap();
        (w, layer)
    }

    #[test]
    fn packed_path_selected_for_tileable_shapes() {
        let (_, layer) = compressed(256, 128, 4);
        let lin = PackedLinear::build(&layer).unwrap();
        assert!(lin.uses_packed_kernel());
    }

    #[test]
    fn dense_fallback_for_untileable_shapes() {
        let (_, layer) = compressed(96, 192, 4);
        let lin = PackedLinear::build(&layer).unwrap();
        assert!(!lin.uses_packed_kernel());
    }

    #[test]
    fn forward_matches_effective_weight() {
        for (rows, cols) in [(256usize, 128usize), (96, 192)] {
            let (_, layer) = compressed(rows, cols, 4);
            let lin = PackedLinear::build(&layer).unwrap();
            let mut rng = milo_tensor::rng::StdRng::seed_from_u64(9);
            let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(3, cols, &mut rng);
            let y = lin.forward(&x).unwrap();
            let reference = x.matmul(&layer.effective_weight().transpose()).unwrap();
            let rel = stats::relative_frobenius_error(&reference, &y);
            assert!(rel < 5e-3, "({rows},{cols}): rel {rel}");
        }
    }

    #[test]
    fn no_compensator_path_works() {
        let (_, layer) = compressed(128, 128, 0);
        let lin = PackedLinear::build(&layer).unwrap();
        assert!(lin.forward(&Matrix::filled(1, 128, 0.5)).is_ok());
    }

    #[test]
    fn group_sizes_the_kernel_rejects_fall_back_to_dense() {
        // The INT3 layout packs group sizes 32 and 128, but the kernel
        // runs only group size 64, and it runs no 4-bit weight at all:
        // each must take the dense path instead of a packed path whose
        // every forward fails.
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(17);
        let w = WeightDist::Gaussian { std: 0.06 }.sample_matrix(256, 128, &mut rng);
        let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(3, 128, &mut rng);
        for (bits, group) in [(3u8, 128usize), (3, 32), (4, 64), (4, 128)] {
            let cfg = milo_quant::QuantConfig::new(bits, group, milo_quant::Scheme::Asymmetric)
                .unwrap();
            let q = milo_quant::rtn_quantize(&w, &cfg).unwrap();
            let layer = CompressedLayer { qweight: q.clone(), compensator: None, convergence: vec![] };
            let lin = PackedLinear::build(&layer).unwrap();
            assert!(!lin.uses_packed_kernel(), "bits={bits} group={group}");
            let y = lin.forward(&x).unwrap();
            let reference = x.matmul(&q.dequantize().transpose()).unwrap();
            let rel = stats::relative_frobenius_error(&reference, &y);
            assert!(rel < 5e-3, "bits={bits} group={group}: rel {rel}");
        }
    }

    #[test]
    fn wrong_width_rejected() {
        let (_, layer) = compressed(128, 128, 2);
        let lin = PackedLinear::build(&layer).unwrap();
        assert!(matches!(
            lin.forward(&Matrix::zeros(1, 64)),
            Err(MoeError::Tensor(TensorError::ShapeMismatch(_)))
        ));
    }

    #[test]
    fn memory_matches_compressed_layer() {
        let (_, layer) = compressed(256, 128, 8);
        let lin = PackedLinear::build(&layer).unwrap();
        assert_eq!(lin.memory_bytes(), layer.memory_bytes());
        assert_eq!(lin.out_features(), 256);
        assert_eq!(lin.in_features(), 128);
    }
}
