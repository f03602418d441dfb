//! Calibration-activation capture.
//!
//! GPTQ needs the activations each weight matrix actually sees. The real
//! pipeline runs Wikitext-2 through the model with forward hooks; this
//! module plays that role for the synthetic models: it runs a corpus
//! through a copy of the model ([`MoeModel::try_map`]) whose every
//! weight is a tap that records the rows that flow into it (attention
//! inputs, per-expert routed token subsets, post-activation hiddens for
//! the down projections) before applying itself.
//!
//! The recorded names are [`MoeModel::projections`]' names, so the
//! captured map plugs straight into a per-layer GPTQ run.

use crate::model::MoeModel;
use crate::tensors::layer_index;
use crate::Result;
use milo_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Mutex;

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

/// Runs every sequence of `corpus` through the first `layers` layers of
/// a tapped copy of `model`, keeping at most `max_rows` rows per weight.
fn capture(
    model: &MoeModel,
    corpus: &[Vec<u32>],
    layers: usize,
    max_rows: usize,
) -> Result<HashMap<String, Matrix>> {
    let store = Mutex::new(ActivationStore::new(max_rows));
    let record = |name: &str, x: &Matrix| {
        store.lock().expect("no recorder panics while holding the store").record(name, x);
    };
    let mut tapped = model.tapped(&record);
    // Layers past the last one of interest never run.
    tapped.layers.truncate(layers);
    corpus.iter().try_for_each(|seq| tapped.forward(seq).map(drop))?;
    Ok(store.into_inner().expect("no recorder panicked").into_matrices())
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
    capture(model, corpus, model.layers.len(), max_rows)
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
    Ok(capture(model, corpus, layer + 1, max_rows)?
        .into_iter()
        .filter(|(name, _)| layer_index(name) == layer)
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
        let store = Mutex::new(ActivationStore::new(64));
        let record = |name: &str, x: &Matrix| store.lock().unwrap().record(name, x);
        let a = m.tapped(&record).forward(&seq).unwrap();
        let b = m.forward(&seq).unwrap();
        assert_eq!(a, b);
        assert!(store.into_inner().unwrap().n_rows("layer0.attn.wq") > 0);
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
