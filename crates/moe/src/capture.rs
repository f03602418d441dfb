//! Calibration-activation capture.
//!
//! GPTQ needs the activations each weight matrix actually sees. The real
//! pipeline runs Wikitext-2 through the model with forward hooks; this
//! module plays that role for the synthetic models: it re-runs the
//! forward pass over a corpus and records, per quantizable weight, the
//! rows that flow into it (attention inputs, per-expert routed token
//! subsets, post-activation hiddens for the down projections).
//!
//! The recorded names match [`crate::tensors::layer_tensors`], so the
//! captured map plugs straight into a per-layer GPTQ run.

use crate::attention::rms_norm;
use crate::dispatch::{assign, gather, scatter_add};
use crate::model::{FfnBlock, MoeModel};
use crate::{MoeError, Result};
use milo_tensor::Matrix;
use std::collections::HashMap;

/// Accumulates activation rows per layer name, capped per layer.
#[derive(Debug, Clone)]
pub struct ActivationStore {
    max_rows: usize,
    width: HashMap<String, usize>,
    rows: HashMap<String, Vec<f32>>,
}

impl ActivationStore {
    /// Creates a store. Each layer keeps at most
    /// `max(max_rows, 2·width + 16)` rows — the floor guarantees enough
    /// rows for a well-conditioned GPTQ Hessian regardless of `max_rows`.
    pub fn new(max_rows: usize) -> Self {
        Self { max_rows, width: HashMap::new(), rows: HashMap::new() }
    }

    /// Records all rows of `x` under `name`, up to the per-layer cap.
    pub fn record(&mut self, name: &str, x: &Matrix) {
        let width = *self.width.entry(name.to_string()).or_insert(x.cols());
        debug_assert_eq!(width, x.cols(), "inconsistent activation width for {name}");
        let cap = self.max_rows.max(2 * width + 16);
        let buf = self.rows.entry(name.to_string()).or_default();
        for r in 0..x.rows() {
            if buf.len() / width >= cap {
                return;
            }
            buf.extend_from_slice(x.row(r));
        }
    }

    /// Number of rows captured for `name`.
    pub fn n_rows(&self, name: &str) -> usize {
        match (self.rows.get(name), self.width.get(name)) {
            (Some(buf), Some(&w)) if w > 0 => buf.len() / w,
            _ => 0,
        }
    }

    /// Finalizes into per-layer activation matrices.
    pub fn into_matrices(self) -> HashMap<String, Matrix> {
        let mut out = HashMap::new();
        for (name, buf) in self.rows {
            let w = self.width[&name];
            if w == 0 || buf.is_empty() {
                continue;
            }
            let rows = buf.len() / w;
            out.insert(name, Matrix::from_vec(rows, w, buf));
        }
        out
    }
}

/// Runs the forward pass over `tokens`, recording every quantizable
/// weight's input activations into `store`. Returns the logits, which
/// are bit-identical to [`MoeModel::forward`]'s.
///
/// # Errors
///
/// Same failure modes as [`MoeModel::forward`].
pub fn forward_capturing(
    model: &MoeModel,
    tokens: &[u32],
    store: &mut ActivationStore,
) -> Result<Matrix> {
    match forward_capturing_until(model, tokens, store, model.layers.len())? {
        Some(logits) => Ok(logits),
        None => Err(crate::MoeError::InvalidInput(
            "capture ended before the final layer produced logits".into(),
        )),
    }
}

/// Like [`forward_capturing`] but stops after processing layer
/// `stop_after` (exclusive upper bound on layer index). When stopping
/// early no logits are produced and `Ok(None)` is returned — used by
/// sequential (layer-by-layer) GPTQ, which only needs the prefix.
///
/// # Errors
///
/// Same failure modes as [`MoeModel::forward`].
pub fn forward_capturing_until(
    model: &MoeModel,
    tokens: &[u32],
    store: &mut ActivationStore,
    stop_after: usize,
) -> Result<Option<Matrix>> {
    if tokens.is_empty() {
        return Err(MoeError::InvalidInput("empty token sequence".into()));
    }
    let d = model.config.d_model;
    let mut x = Matrix::zeros(tokens.len(), d);
    for (i, &t) in tokens.iter().enumerate() {
        if t as usize >= model.config.vocab {
            return Err(MoeError::InvalidToken { token: t, vocab: model.config.vocab });
        }
        x.row_mut(i).copy_from_slice(model.embed.row(t as usize));
    }

    for (li, layer) in model.layers.iter().enumerate() {
        if li >= stop_after {
            return Ok(None);
        }
        let normed = rms_norm(&x);
        for suffix in ["wq", "wk", "wv"] {
            store.record(&format!("layer{li}.attn.{suffix}"), &normed);
        }
        let (ctx, a) = layer.attn.forward_with_ctx(&normed)?;
        store.record(&format!("layer{li}.attn.wo"), &ctx);
        x = x.add(&a)?;

        let normed = rms_norm(&x);
        let f = match &layer.ffn {
            FfnBlock::Dense(mlp) => {
                store.record(&format!("layer{li}.dense.w1"), &normed);
                store.record(&format!("layer{li}.dense.w3"), &normed);
                let (h, y) = mlp.forward_with_hidden(&normed)?;
                store.record(&format!("layer{li}.dense.w2"), &h);
                y
            }
            FfnBlock::Moe(moe) => {
                // The dispatch's own assignment, gather, and scatter
                // steps, run serially with per-expert capture.
                let mut out = Matrix::zeros(normed.rows(), d);
                for (e, toks) in assign(&moe.router, &normed, None)?.iter().enumerate() {
                    if toks.is_empty() {
                        continue;
                    }
                    let sub = gather(&normed, toks);
                    store.record(&format!("layer{li}.expert{e}.w1"), &sub);
                    store.record(&format!("layer{li}.expert{e}.w3"), &sub);
                    let (h, y) = moe.experts[e].forward_with_hidden(&sub)?;
                    store.record(&format!("layer{li}.expert{e}.w2"), &h);
                    scatter_add(&mut out, &y, toks);
                }
                for (s, shared) in moe.shared.iter().enumerate() {
                    store.record(&format!("layer{li}.shared{s}.w1"), &normed);
                    store.record(&format!("layer{li}.shared{s}.w3"), &normed);
                    let (h, y) = shared.forward_with_hidden(&normed)?;
                    store.record(&format!("layer{li}.shared{s}.w2"), &h);
                    out = out.add(&y)?;
                }
                out
            }
        };
        x = x.add(&f)?;
    }

    let final_x = rms_norm(&x);
    let logits = final_x.matmul(&model.head.transpose())?;
    Ok(Some(logits.scale(model.config.head_gain / (d as f32).sqrt())))
}

/// Captures activations for every quantizable weight by running the
/// corpus through the model, keeping at most `max_rows` rows per weight.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn capture_activations(
    model: &MoeModel,
    corpus: &[Vec<u32>],
    max_rows: usize,
) -> Result<HashMap<String, Matrix>> {
    let mut store = ActivationStore::new(max_rows);
    for seq in corpus {
        forward_capturing(model, seq, &mut store)?;
    }
    Ok(store.into_matrices())
}

/// Captures activations for the weights of a single layer only, running
/// the forward pass just far enough (`0..=layer`) and discarding other
/// layers' records. Used by sequential GPTQ.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn capture_layer_activations(
    model: &MoeModel,
    corpus: &[Vec<u32>],
    layer: usize,
    max_rows: usize,
) -> Result<HashMap<String, Matrix>> {
    let mut store = ActivationStore::new(max_rows);
    for seq in corpus {
        forward_capturing_until(model, seq, &mut store, layer + 1)?;
    }
    let prefix = format!("layer{layer}.");
    Ok(store
        .into_matrices()
        .into_iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use crate::tensors::layer_tensors;

    fn model() -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 9)
    }

    #[test]
    fn capturing_forward_matches_plain_forward() {
        let m = model();
        let seq = [1u32, 5, 9, 2, 7, 30];
        let mut store = ActivationStore::new(64);
        let a = forward_capturing(&m, &seq, &mut store).unwrap();
        let b = m.forward(&seq).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn captured_names_match_layer_tensors() {
        let m = model();
        let corpus: Vec<Vec<u32>> = (0..4).map(|i| vec![i, i + 1, i + 2, i + 3]).collect();
        let acts = capture_activations(&m, &corpus, 64).unwrap();
        let names: std::collections::HashSet<String> =
            layer_tensors(&m, None).into_iter().map(|t| t.name).collect();
        for name in acts.keys() {
            assert!(names.contains(name), "captured unknown layer {name}");
        }
        // Dense and attention layers see every token, so they must be
        // captured; rarely-routed experts may legitimately be absent.
        assert!(acts.contains_key("layer0.attn.wq"));
        assert!(acts.contains_key("layer0.dense.w2"));
    }

    #[test]
    fn captured_widths_match_weight_input_dims() {
        let m = model();
        let corpus = vec![vec![1u32, 2, 3, 4, 5, 6, 7, 8]];
        let acts = capture_activations(&m, &corpus, 32).unwrap();
        let tensors = layer_tensors(&m, None);
        for (name, x) in &acts {
            let t = tensors.iter().find(|t| &t.name == name).unwrap();
            assert_eq!(x.cols(), t.weight.cols(), "width mismatch for {name}");
        }
    }

    #[test]
    fn row_cap_is_respected() {
        let m = model();
        let corpus: Vec<Vec<u32>> = (0..30).map(|_| (0..32).collect()).collect();
        let acts = capture_activations(&m, &corpus, 10).unwrap();
        let tensors = layer_tensors(&m, None);
        for (name, x) in &acts {
            let width = tensors.iter().find(|t| &t.name == name).unwrap().weight.cols();
            let cap = 10usize.max(2 * width + 16);
            assert!(x.rows() <= cap, "{name}: {} rows exceeds cap {cap}", x.rows());
        }
        // The 64-wide attention inputs should actually hit their floor cap
        // (2·64 + 16 = 144) given 960 corpus tokens.
        assert_eq!(acts["layer0.attn.wq"].rows(), 144);
    }
}
