//! Model-level compression: apply a rank policy across all layers of a
//! model and run the MiLo optimizer on each, in parallel.
//!
//! The paper notes MiLo's calibration-free design makes it embarrassingly
//! parallel across weight matrices (no forward propagation is needed), so
//! the orchestrator compresses layers on the workspace thread pool.

use crate::optimizer::{milo_compress, CompressedLayer, MiloOptions};
use crate::policy::{LayerMeta, RankPolicy};
use crate::{MiloError, Result};
use milo_tensor::{pool, Matrix};

/// One named weight matrix plus the metadata rank policies consume.
#[derive(Debug, Clone)]
pub struct LayerTensor {
    /// Human-readable layer name (e.g. `"layer3.expert5.w1"`).
    pub name: String,
    /// Structural and statistical metadata.
    pub meta: LayerMeta,
    /// The FP32 weight.
    pub weight: Matrix,
}

/// The compressed form of one layer, with its provenance.
#[derive(Debug, Clone)]
pub struct LayerRecord {
    /// Layer name copied from the input.
    pub name: String,
    /// Metadata copied from the input.
    pub meta: LayerMeta,
    /// The rank the policy assigned.
    pub rank: usize,
    /// The MiLo output for this layer.
    pub layer: CompressedLayer,
}

/// A fully compressed model: every layer's quantized weight plus
/// compensator.
#[derive(Debug, Clone)]
pub struct CompressedModel {
    /// Per-layer records, in input order.
    pub layers: Vec<LayerRecord>,
}

impl CompressedModel {
    /// Total deployment memory in bytes (packed weights + compensators).
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.layer.memory_bytes()).sum()
    }

    /// Memory of the compensators alone, in bytes.
    pub fn compensator_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.layer.compensator.as_ref().map_or(0, |c| c.memory_bytes()))
            .sum()
    }

    /// Memory of the packed quantized weights alone, in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.layer.qweight.packed_bytes()).sum()
    }

    /// Looks up a layer record by name.
    pub fn layer(&self, name: &str) -> Option<&LayerRecord> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// Compresses every layer with the ranks `policy` assigns, using
/// `threads` workers of the [`milo_tensor::pool`] (1 for sequential
/// execution). Layers are independent, so the result is the same at any
/// thread count; nested matmuls inside a worker run serially instead of
/// spawning threads of their own.
///
/// # Errors
///
/// Propagates policy errors and the first per-layer failure in layer
/// order; a panic while compressing a layer is a [`MiloError::Policy`]
/// naming that layer.
pub fn compress_model(
    layers: &[LayerTensor],
    policy: &RankPolicy,
    opts: &MiloOptions,
    threads: usize,
) -> Result<CompressedModel> {
    let metas: Vec<LayerMeta> = layers.iter().map(|l| l.meta).collect();
    let ranks = policy.assign(&metas)?;
    let results = pool::with_threads(threads, || {
        pool::try_par_map(layers.len(), |i| milo_compress(&layers[i].weight, ranks[i], opts))
    });
    let records = layers.iter().zip(ranks).zip(results).map(|((lt, rank), result)| {
        let layer = result.map_err(|e| {
            MiloError::Policy(format!("compressing layer {} panicked: {}", lt.name, e.message))
        })??;
        Ok(LayerRecord { name: lt.name.clone(), meta: lt.meta, rank, layer })
    });
    Ok(CompressedModel { layers: records.collect::<Result<_>>()? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LayerKind, SparseAllocation};
    use milo_tensor::rng::WeightDist;
    use milo_tensor::stats;
    use milo_tensor::rng::SeedableRng;

    fn make_layers(seed: u64) -> Vec<LayerTensor> {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let mut layers = Vec::new();
        let attn = WeightDist::StudentT { dof: 5.0, scale: 0.05 }.sample_matrix(64, 64, &mut rng);
        layers.push(LayerTensor {
            name: "attn.q".into(),
            meta: LayerMeta {
                kind: LayerKind::Attention,
                rows: 64,
                cols: 64,
                kurtosis: stats::matrix_kurtosis(&attn),
                frequency: 1.0,
            },
            weight: attn,
        });
        for e in 0..3 {
            let w = WeightDist::Uniform { bound: 0.08 }.sample_matrix(64, 64, &mut rng);
            layers.push(LayerTensor {
                name: format!("expert{e}.w1"),
                meta: LayerMeta {
                    kind: LayerKind::Expert { index: e },
                    rows: 64,
                    cols: 64,
                    kurtosis: stats::matrix_kurtosis(&w),
                    frequency: [0.5, 0.3, 0.2][e],
                },
                weight: w,
            });
        }
        layers
    }

    fn fast_opts() -> MiloOptions {
        MiloOptions { max_iters: 2, compensator_cfg: None, ..MiloOptions::default() }
    }

    #[test]
    fn compresses_all_layers_in_order() {
        let layers = make_layers(1);
        let model =
            compress_model(&layers, &RankPolicy::uniform(4), &fast_opts(), 2).unwrap();
        assert_eq!(model.layers.len(), 4);
        for (a, b) in model.layers.iter().zip(&layers) {
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let layers = make_layers(2);
        let policy = RankPolicy::composite(8, SparseAllocation::Kurtosis { avg_rank: 4 });
        let seq = compress_model(&layers, &policy, &fast_opts(), 1).unwrap();
        let par = compress_model(&layers, &policy, &fast_opts(), 4).unwrap();
        for (a, b) in seq.layers.iter().zip(&par.layers) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.layer, b.layer, "layer {}", a.name);
        }
    }

    #[test]
    fn dense_only_policy_compensates_only_attention() {
        let layers = make_layers(3);
        let model =
            compress_model(&layers, &RankPolicy::dense_only(8), &fast_opts(), 2).unwrap();
        assert!(model.layers[0].layer.compensator.is_some());
        for rec in &model.layers[1..] {
            assert!(rec.layer.compensator.is_none(), "layer {}", rec.name);
        }
    }

    #[test]
    fn memory_breakdown_sums() {
        let layers = make_layers(4);
        let model =
            compress_model(&layers, &RankPolicy::uniform(4), &fast_opts(), 2).unwrap();
        assert_eq!(
            model.memory_bytes(),
            model.weight_bytes() + model.compensator_bytes()
        );
        assert!(model.compensator_bytes() > 0);
    }

    #[test]
    fn layer_lookup_by_name() {
        let layers = make_layers(5);
        let model =
            compress_model(&layers, &RankPolicy::uniform(2), &fast_opts(), 1).unwrap();
        assert!(model.layer("expert1.w1").is_some());
        assert!(model.layer("nope").is_none());
    }

    #[test]
    fn empty_model_is_policy_error() {
        assert!(compress_model(&[], &RankPolicy::uniform(2), &fast_opts(), 1).is_err());
    }
}
