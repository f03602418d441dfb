//! Calibration-activation capture.
//!
//! GPTQ needs the activations each weight matrix actually sees. The real
//! pipeline runs Wikitext-2 through the model with forward hooks; this
//! module plays that role for the synthetic models: it runs a corpus
//! through a copy of the model ([`MoeModel::try_map`]) whose every
//! weight is a tap that reports the rows that flow into it (attention
//! inputs, per-expert routed token subsets, post-activation hiddens for
//! the down projections) before applying itself. Only the taps of the
//! layer being captured are recorded.
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
struct ActivationStore {
    max_rows: usize,
    width: HashMap<String, usize>,
    rows: HashMap<String, Vec<f32>>,
}

impl ActivationStore {
    /// Creates a store. Each layer keeps at most
    /// `max(max_rows, 2·width + 16)` rows — the floor guarantees enough
    /// rows for a well-conditioned GPTQ Hessian regardless of `max_rows`.
    fn new(max_rows: usize) -> Self {
        Self { max_rows, width: HashMap::new(), rows: HashMap::new() }
    }

    /// Records all rows of `x` under `name`, up to the per-layer cap.
    fn record(&mut self, name: &str, x: &Matrix) {
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

    /// Finalizes into per-layer activation matrices.
    fn into_matrices(self) -> HashMap<String, Matrix> {
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

/// Captures activations for the weights of layer `layer` only, keeping
/// at most `max_rows` rows per weight. The forward pass runs just far
/// enough (`0..=layer`), and the recorder drops every other layer's
/// inputs before copying them. Used by sequential GPTQ.
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
    let store = Mutex::new(ActivationStore::new(max_rows));
    let record = |name: &str, x: &Matrix| {
        if layer_index(name) == layer {
            store.lock().expect("no recorder panics while holding the store").record(name, x);
        }
    };
    let mut tapped = model.tapped(&record);
    // Layers past the one of interest never run.
    tapped.layers.truncate(layer + 1);
    corpus.iter().try_for_each(|seq| tapped.forward(seq).map(drop))?;
    Ok(store.into_inner().expect("no recorder panicked").into_matrices())
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
        assert!(store.into_inner().unwrap().into_matrices()["layer0.attn.wq"].rows() > 0);
    }

    /// Every layer's capture, merged into one map.
    fn capture_all(m: &MoeModel, corpus: &[Vec<u32>], rows: usize) -> HashMap<String, Matrix> {
        (0..m.layers.len())
            .flat_map(|l| capture_layer_activations(m, corpus, l, rows).unwrap())
            .collect()
    }

    #[test]
    fn captured_names_match_layer_tensors() {
        let m = model();
        let corpus: Vec<Vec<u32>> = (0..4).map(|i| vec![i, i + 1, i + 2, i + 3]).collect();
        let acts = capture_all(&m, &corpus, 64);
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
        let acts = capture_all(&m, &corpus, 32);
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
        let acts = capture_all(&m, &corpus, 10);
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

    #[test]
    fn layer_capture_is_the_layer_subset_of_an_unfiltered_run() {
        let m = model();
        let corpus: Vec<Vec<u32>> = (0..6).map(|i| (i..i + 20).collect()).collect();
        let store = Mutex::new(ActivationStore::new(48));
        let record = |name: &str, x: &Matrix| store.lock().unwrap().record(name, x);
        let tapped = m.tapped(&record);
        corpus.iter().for_each(|seq| drop(tapped.forward(seq).unwrap()));
        let everything = store.into_inner().unwrap().into_matrices();
        let bits = |x: &Matrix| -> Vec<u32> { x.as_slice().iter().map(|v| v.to_bits()).collect() };

        // Layer 0 is tiny_deepseek's dense layer; the last one routes.
        for layer in [0, m.layers.len() - 1] {
            let acts = capture_layer_activations(&m, &corpus, layer, 48).unwrap();
            let mut want: Vec<&String> =
                everything.keys().filter(|name| layer_index(name) == layer).collect();
            let mut got: Vec<&String> = acts.keys().collect();
            want.sort();
            got.sort();
            assert!(!want.is_empty(), "layer {layer} recorded nothing");
            assert_eq!(got, want, "layer {layer}");
            for (name, x) in &acts {
                assert_eq!(x.shape(), everything[name].shape(), "{name}");
                assert_eq!(bits(x), bits(&everything[name]), "{name}");
            }
        }
    }
}
