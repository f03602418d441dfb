//! The packed MoE model: the `milo-moe` transformer on deployment-form
//! weights.

use crate::linear::PackedLinear;
use milo_core::CompressedModel;
use milo_moe::{MoeError, MoeModel, Result};
use std::ops::Deref;

/// A complete MoE model in deployment form: packed INT3 projections,
/// low-rank compensators applied as skinny GEMMs, FP32 routers /
/// embeddings / head.
///
/// It dereferences to the generic [`MoeModel`] over [`PackedLinear`],
/// whose `forward`, `forward_resilient`, `prefill`, and `forward_step`
/// run it — numerically equivalent (to FP16 rounding) to evaluating the
/// reconstructed dense model, with telemetry under the `engine.`
/// prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMoeModel(MoeModel<PackedLinear>);

impl Deref for PackedMoeModel {
    type Target = MoeModel<PackedLinear>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl PackedMoeModel {
    /// Builds the deployment model from the FP32 reference (which
    /// provides the architecture, routers, embeddings, and head) and the
    /// compressed weights.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::WeightMismatch`] if a layer of the reference
    /// has no counterpart in `compressed`.
    pub fn build(reference: &MoeModel, compressed: &CompressedModel) -> Result<Self> {
        let model = reference.try_map(|name, _, _| {
            let rec = compressed
                .layer(name)
                .ok_or_else(|| MoeError::WeightMismatch(format!("missing layer {name}")))?;
            PackedLinear::build(&rec.layer)
        })?;
        Ok(Self(model))
    }

    /// Deployment memory of the quantized projections in bytes (routers,
    /// embeddings, and head — kept FP16 by the paper's backend — are
    /// *not* included, matching the paper's memory columns).
    pub fn memory_bytes(&self) -> usize {
        self.projections().into_iter().map(|(_, _, l)| l.memory_bytes()).sum()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.config.vocab
    }

    /// Fraction of projections served by the packed kernel (the rest use
    /// the dense fallback because of tile-shape constraints).
    pub fn packed_fraction(&self) -> f32 {
        let projections = self.projections();
        let packed = projections.iter().filter(|(_, _, l)| l.uses_packed_kernel()).count();
        packed as f32 / projections.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedDecodeState;
    use milo_core::{compress_model, Compensator, LowRankCompensator, MiloOptions, RankPolicy};
    use milo_moe::{apply_compressed, layer_tensors, MoeConfig, ResilienceContext};
    use milo_quant::HqqOptions;
    use milo_tensor::{stats, Matrix};

    fn build_pair(rank: usize) -> (MoeModel, CompressedModel) {
        // d=128, experts 128-wide: every projection is tileable, so the
        // packed kernel path is exercised throughout.
        let mut cfg = MoeConfig::tiny_mixtral();
        cfg.d_model = 128;
        cfg.expert_ffn = 256;
        cfg.n_layers = 2;
        cfg.n_heads = 2;
        let reference = MoeModel::synthesize(&cfg, 31);
        let tensors = layer_tensors(&reference, None);
        let opts = MiloOptions {
            max_iters: 1,
            hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
            ..MiloOptions::default()
        };
        let compressed =
            compress_model(&tensors, &RankPolicy::uniform(rank), &opts, 2).unwrap();
        (reference, compressed)
    }

    #[test]
    fn engine_matches_reconstructed_dense_model() {
        let (reference, compressed) = build_pair(4);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        let dense = apply_compressed(&reference, &compressed).unwrap();
        let tokens = [1u32, 7, 13, 2, 40];
        let a = engine.forward(&tokens).unwrap();
        let b = dense.forward(&tokens).unwrap();
        let rel = stats::relative_frobenius_error(&b, &a);
        // The engine rounds weights/activations through FP16; logits must
        // agree to well under a percent.
        assert!(rel < 1e-2, "engine vs dense rel error {rel}");
    }

    #[test]
    fn all_projections_use_packed_kernel_for_tileable_model() {
        let (reference, compressed) = build_pair(2);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        assert_eq!(engine.packed_fraction(), 1.0);
    }

    #[test]
    fn memory_matches_compressed_model() {
        let (reference, compressed) = build_pair(2);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        assert_eq!(engine.memory_bytes(), compressed.memory_bytes());
    }

    #[test]
    fn engine_rejects_bad_tokens() {
        let (reference, compressed) = build_pair(0);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        assert!(engine.forward(&[]).is_err());
        assert!(engine.forward(&[9999]).is_err());
    }

    #[test]
    fn resilient_forward_matches_plain_when_healthy() {
        let (reference, compressed) = build_pair(2);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        let tokens = [1u32, 7, 13];
        let plain = engine.forward(&tokens).unwrap();
        let ctx = ResilienceContext::degrade();
        let res = engine.forward_resilient(&tokens, &ctx).unwrap();
        assert_eq!(res.as_slice(), plain.as_slice());
        assert_eq!(ctx.health.n_failed(), 0);
    }

    #[test]
    fn mismatched_compressed_model_rejected() {
        let (reference, _) = build_pair(0);
        let other_cfg = MoeConfig::tiny_deepseek();
        let other = MoeModel::synthesize(&other_cfg, 5);
        let tensors = layer_tensors(&other, None);
        let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
        let compressed =
            compress_model(&tensors, &RankPolicy::uniform(0), &opts, 2).unwrap();
        assert!(matches!(
            PackedMoeModel::build(&reference, &compressed),
            Err(MoeError::WeightMismatch(_))
        ));
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The decode tests' engine: tileable, rank 4, one compression thread.
    fn engine() -> (MoeModel, PackedMoeModel) {
        let mut cfg = MoeConfig::tiny_mixtral();
        cfg.d_model = 128;
        cfg.expert_ffn = 256;
        cfg.n_layers = 2;
        let reference = MoeModel::synthesize(&cfg, 41);
        let tensors = layer_tensors(&reference, None);
        let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
        let compressed = compress_model(&tensors, &RankPolicy::uniform(4), &opts, 1).unwrap();
        let packed = PackedMoeModel::build(&reference, &compressed).unwrap();
        (reference, packed)
    }

    #[test]
    fn stepped_logits_match_batch_engine_forward() {
        let (_, packed) = engine();
        let tokens = [2u32, 11, 40, 5];
        let batch = packed.forward(&tokens).unwrap();
        let mut state = PackedDecodeState::new(&packed);
        for (i, &t) in tokens.iter().enumerate() {
            let step = packed.forward_step(t, &mut state).unwrap();
            assert_eq!(bits(&step), bits(batch.row(i)), "position {i}");
        }
        assert_eq!(state.len(), 4);
    }

    #[test]
    fn state_for_another_width_is_a_typed_error() {
        let (_, wide) = engine();
        let mut cfg = MoeConfig::tiny_mixtral();
        cfg.n_layers = 2;
        let narrow_ref = MoeModel::synthesize(&cfg, 42);
        let tensors = layer_tensors(&narrow_ref, None);
        let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
        let compressed = compress_model(&tensors, &RankPolicy::uniform(0), &opts, 1).unwrap();
        let narrow = PackedMoeModel::build(&narrow_ref, &compressed).unwrap();

        // Same depth, different width: the 128-wide cache must not be
        // extended with 64-wide keys.
        let mut state = PackedDecodeState::new(&wide);
        wide.forward_step(1, &mut state).unwrap();
        assert_eq!(
            narrow.forward_step(1, &mut state),
            Err(MoeError::DecodeStateMismatch { state: (2, 128), model: (2, 64) })
        );
        assert_eq!(state.len(), 1);
    }

    #[test]
    fn prefill_and_errors() {
        let (_, packed) = engine();
        let mut state = PackedDecodeState::new(&packed);
        assert!(packed.prefill(&[], &mut state).is_err());
        assert!(packed.forward_step(9999, &mut state).is_err());
        let last = packed.prefill(&[1, 2, 3], &mut state).unwrap();
        assert_eq!(last.len(), packed.vocab());
        assert!(!state.is_empty());
    }

    #[test]
    fn failed_step_or_prefill_leaves_the_state_untouched() {
        let (reference, mut compressed) = build_pair(2);
        let packed = PackedMoeModel::build(&reference, &compressed).unwrap();
        let mut state = PackedDecodeState::new(&packed);
        packed.prefill(&[1, 2], &mut state).unwrap();
        let before = state.clone();

        // A NaN compensator on every layer-1 expert's down projection: a
        // step fails there after layers 0 and 1 have cached their keys
        // and values.
        for rec in &mut compressed.layers {
            if rec.name.starts_with("layer1.expert") && rec.name.ends_with(".w2") {
                let (rows, cols) = rec.layer.qweight.shape();
                let nan = Matrix::filled(rows, 1, f32::NAN);
                let lr = LowRankCompensator::from_factors(nan, Matrix::filled(1, cols, 1.0)).unwrap();
                rec.layer.compensator = Some(Compensator::Fp16(lr));
            }
        }
        let poisoned = PackedMoeModel::build(&reference, &compressed).unwrap();
        assert!(matches!(
            poisoned.forward_step(3, &mut state),
            Err(MoeError::ExpertFailed { layer: 1, .. })
        ));
        assert_eq!(state, before);
        assert!(poisoned.prefill(&[3, 4], &mut state).is_err());
        assert_eq!(state, before);

        // A bad token anywhere in the prefix is rejected before any layer runs.
        assert!(matches!(
            packed.prefill(&[1, 2, 99999, 4], &mut state),
            Err(MoeError::InvalidToken { token: 99999, .. })
        ));
        assert_eq!(state, before);
    }
}
