//! Bridging the MoE model and the MiLo compressor: enumerate quantizable
//! weights with their policy metadata, and substitute compressed weights
//! back into a model for evaluation.
//!
//! Routers, embeddings, and the output head stay in full precision —
//! they are a negligible fraction of MoE memory and the paper (like all
//! the weight-only baselines it compares against) quantizes only the
//! large projection matrices.

use crate::model::MoeModel;
use crate::profile::FrequencyProfile;
use crate::{MoeError, Result};
use milo_core::{CompressedModel, LayerKind, LayerMeta, LayerTensor};
use milo_tensor::{stats, Matrix};
use std::collections::HashMap;

/// Extracts the layer index from a tensor name (`"layer{i}. ..."`).
pub(crate) fn layer_index(name: &str) -> usize {
    name.strip_prefix("layer")
        .and_then(|rest| rest.split('.').next())
        .and_then(|n| n.parse().ok())
        .expect("tensor names start with layer{i}.")
}

/// Enumerates every quantizable weight as a [`LayerTensor`] with
/// kurtosis and (if a profile is given) expert activation frequency
/// filled in — exactly what [`milo_core::compress_model`] consumes.
pub fn layer_tensors(model: &MoeModel, freq: Option<&FrequencyProfile>) -> Vec<LayerTensor> {
    (model.projections().into_iter())
        .map(|(name, kind, w)| {
            let (rows, cols) = w.shape();
            let frequency = match (kind, freq) {
                (LayerKind::Expert { index }, Some(p)) => p.frequency(layer_index(&name), index),
                (LayerKind::Expert { .. }, None) => 0.0,
                _ => 1.0,
            };
            let kurtosis = stats::matrix_kurtosis(w);
            LayerTensor {
                name,
                meta: LayerMeta { kind, rows, cols, kurtosis, frequency },
                weight: w.clone(),
            }
        })
        .collect()
}

/// Builds an inference model from a compressed model by replacing every
/// compressed layer's weight with its effective reconstruction
/// `Q⁻¹(W_q) + U·V`.
///
/// # Errors
///
/// Returns [`MoeError::WeightMismatch`] if a compressed layer's name or
/// shape does not match the model.
pub fn apply_compressed(model: &MoeModel, compressed: &CompressedModel) -> Result<MoeModel> {
    let mut effective: HashMap<&str, Matrix> = HashMap::new();
    for rec in &compressed.layers {
        effective.insert(rec.name.as_str(), rec.layer.effective_weight());
    }

    let mut replaced = 0usize;
    let out = model.try_map(|name, _, w| match effective.remove(name) {
        Some(new_w) if new_w.shape() != w.shape() => Err(MoeError::WeightMismatch(format!(
            "layer {name}: model is {:?}, compressed is {:?}",
            w.shape(),
            new_w.shape()
        ))),
        Some(new_w) => {
            replaced += 1;
            Ok(new_w)
        }
        None => Ok(w.clone()),
    })?;
    if let Some(name) = effective.keys().next() {
        return Err(MoeError::WeightMismatch(format!(
            "compressed layer {name} does not exist in the model"
        )));
    }
    if replaced == 0 {
        return Err(MoeError::WeightMismatch(
            "compressed model shares no layers with this model".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use crate::profile::profile_expert_frequency;
    use milo_core::{compress_model, MiloOptions, RankPolicy};
    use milo_quant::HqqOptions;

    fn fast_opts() -> MiloOptions {
        MiloOptions {
            max_iters: 1,
            hqq: HqqOptions { max_iters: 3, ..HqqOptions::default() },
            compensator_cfg: None,
            ..MiloOptions::default()
        }
    }

    #[test]
    fn tensor_enumeration_counts_match_architecture() {
        let cfg = MoeConfig::tiny_mixtral();
        let m = MoeModel::synthesize(&cfg, 1);
        let tensors = layer_tensors(&m, None);
        // Per layer: 4 attention + n_experts × 3.
        let expected = cfg.n_layers * (4 + cfg.n_experts * 3);
        assert_eq!(tensors.len(), expected);
    }

    #[test]
    fn deepseek_enumeration_includes_dense_and_shared() {
        let cfg = MoeConfig::tiny_deepseek();
        let m = MoeModel::synthesize(&cfg, 2);
        let tensors = layer_tensors(&m, None);
        assert!(tensors.iter().any(|t| t.name.contains("dense")));
        assert!(tensors.iter().any(|t| t.name.contains("shared")));
        let dense_count =
            tensors.iter().filter(|t| matches!(t.meta.kind, LayerKind::DenseFfn)).count();
        assert_eq!(dense_count, 3); // first layer only
    }

    #[test]
    fn expert_frequency_is_attached() {
        let cfg = MoeConfig::tiny_mixtral();
        let m = MoeModel::synthesize(&cfg, 3);
        let corpus = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let profile = profile_expert_frequency(&m, &corpus).unwrap();
        let tensors = layer_tensors(&m, Some(&profile));
        let expert_freqs: Vec<f32> = tensors
            .iter()
            .filter(|t| matches!(t.meta.kind, LayerKind::Expert { .. }))
            .map(|t| t.meta.frequency)
            .collect();
        assert!(expert_freqs.iter().any(|&f| f > 0.0));
        for t in tensors.iter().filter(|t| t.meta.kind.is_dense()) {
            assert_eq!(t.meta.frequency, 1.0);
        }
    }

    #[test]
    fn apply_compressed_round_trips_structure() {
        let cfg = MoeConfig::tiny_mixtral();
        let m = MoeModel::synthesize(&cfg, 4);
        let tensors = layer_tensors(&m, None);
        let compressed =
            compress_model(&tensors, &RankPolicy::dense_only(4), &fast_opts(), 2).unwrap();
        let restored = apply_compressed(&m, &compressed).unwrap();
        // Same architecture, different (quantized) weights.
        assert_eq!(restored.layers.len(), m.layers.len());
        assert_ne!(restored.layers[0].attn.wq, m.layers[0].attn.wq);
        // Routers and embeddings untouched.
        assert_eq!(restored.embed, m.embed);
    }

    #[test]
    fn compressed_model_is_close_to_original() {
        let cfg = MoeConfig::tiny_mixtral();
        let m = MoeModel::synthesize(&cfg, 5);
        let tensors = layer_tensors(&m, None);
        let compressed =
            compress_model(&tensors, &RankPolicy::uniform(8), &fast_opts(), 2).unwrap();
        let restored = apply_compressed(&m, &compressed).unwrap();
        let w = &m.layers[0].attn.wq;
        let w_hat = &restored.layers[0].attn.wq;
        let rel = stats::relative_frobenius_error(w, w_hat);
        assert!(rel < 0.5, "relative error {rel} unreasonably large");
    }

    #[test]
    fn mismatched_compressed_model_is_rejected() {
        let a = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 6);
        let b = MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 7);
        let tensors = layer_tensors(&b, None);
        let compressed =
            compress_model(&tensors, &RankPolicy::dense_only(2), &fast_opts(), 2).unwrap();
        assert!(matches!(
            apply_compressed(&a, &compressed),
            Err(MoeError::WeightMismatch(_))
        ));
    }

    #[test]
    fn layer_index_parser() {
        assert_eq!(layer_index("layer0.attn.wq"), 0);
        assert_eq!(layer_index("layer12.expert3.w1"), 12);
    }
}
