//! Expert activation-frequency profiling (paper Fig. 3).
//!
//! The paper routes Wikitext-2 through the models and plots how often
//! each expert fires; DeepSeek-MoE's most-used expert is activated 11.7×
//! more often than the least-used one in the same layer. This module
//! produces the same per-layer × per-expert frequency map from a
//! synthetic corpus, and those frequencies feed the `Frequency-{r}` rank
//! policy.

use crate::model::{FfnBlock, MoeModel};
use crate::tensors::layer_index;
use crate::Result;
use milo_core::LayerKind;
use milo_tensor::Matrix;
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-layer, per-expert activation frequencies. Layers without routed
/// experts (dense FFN layers) have an empty row.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyProfile {
    /// `per_layer[layer][expert]` is the expert's share of that layer's
    /// activations, normalized to sum to 1 per MoE layer.
    pub per_layer: Vec<Vec<f32>>,
}

impl FrequencyProfile {
    /// Frequency share of `expert` in `layer` (0 for dense layers).
    pub fn frequency(&self, layer: usize, expert: usize) -> f32 {
        self.per_layer
            .get(layer)
            .and_then(|l| l.get(expert))
            .copied()
            .unwrap_or(0.0)
    }

    /// Max/min activation ratio within one layer (∞-safe: returns
    /// `f32::INFINITY` when an expert never fired). This is the imbalance
    /// statistic the paper quotes (11.7× for DeepSeek-MoE).
    pub fn imbalance_ratio(&self, layer: usize) -> f32 {
        let freqs = &self.per_layer[layer];
        if freqs.is_empty() {
            return 1.0;
        }
        let max = freqs.iter().cloned().fold(0.0f32, f32::max);
        let min = freqs.iter().cloned().fold(f32::INFINITY, f32::min);
        if min == 0.0 {
            f32::INFINITY
        } else {
            max / min
        }
    }

    /// The largest per-layer imbalance ratio in the model.
    pub fn max_imbalance(&self) -> f32 {
        (0..self.per_layer.len())
            .filter(|&l| !self.per_layer[l].is_empty())
            .map(|l| self.imbalance_ratio(l))
            .fold(1.0, f32::max)
    }
}

/// Routes every sequence of `corpus` through the model and returns the
/// normalized expert activation frequencies.
///
/// # Errors
///
/// Propagates forward-pass errors (bad tokens, empty sequences).
pub fn profile_expert_frequency(
    model: &MoeModel,
    corpus: &[Vec<u32>],
) -> Result<FrequencyProfile> {
    let per_layer = expert_counts(model, corpus)?
        .into_iter()
        .map(|layer_counts| {
            let total: u64 = layer_counts.iter().sum();
            if total == 0 {
                vec![0.0; layer_counts.len()]
            } else {
                layer_counts.iter().map(|&c| c as f32 / total as f32).collect()
            }
        })
        .collect();
    Ok(FrequencyProfile { per_layer })
}

/// `counts[layer][expert]`: the token routes each routed expert took
/// over the corpus (an empty row for a dense layer). Counted on a tapped
/// copy of the model: a routed expert's `w1` sees exactly the rows
/// routed to it.
fn expert_counts(model: &MoeModel, corpus: &[Vec<u32>]) -> Result<Vec<Vec<u64>>> {
    let counts: Vec<Vec<u64>> = (model.layers.iter())
        .map(|l| match &l.ffn {
            FfnBlock::Moe(moe) => vec![0; moe.experts.len()],
            FfnBlock::Dense(_) => Vec::new(),
        })
        .collect();
    let mut w1s = HashMap::new();
    for (name, kind, w) in model.projections() {
        let LayerKind::Expert { index } = kind else { continue };
        let layer = layer_index(&name);
        if let FfnBlock::Moe(moe) = &model.layers[layer].ffn {
            if std::ptr::eq(w, &moe.experts[index].w1) {
                w1s.insert(name, (layer, index));
            }
        }
    }
    let counts = Mutex::new(counts);
    let count = |name: &str, x: &Matrix| {
        if let Some(&(layer, expert)) = w1s.get(name) {
            let mut counts = counts.lock().expect("no counter panics while holding the counts");
            counts[layer][expert] += x.rows() as u64;
        }
    };
    let tapped = model.tapped(&count);
    corpus.iter().try_for_each(|seq| tapped.forward(seq).map(drop))?;
    Ok(counts.into_inner().expect("no counter panicked"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;
    use milo_tensor::rng::{Rng, SeedableRng};

    fn corpus(vocab: usize, n: usize, len: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(0..vocab as u32)).collect())
            .collect()
    }

    #[test]
    fn expert_counts_accumulate_topk_per_token() {
        let cfg = MoeConfig::tiny_deepseek();
        let m = MoeModel::synthesize(&cfg, 3);
        let corpus = [vec![0u32, 5, 9, 13, 21], vec![2, 4]];
        let counts = expert_counts(&m, &corpus).unwrap();
        assert!(counts[0].is_empty(), "layer 0 is dense");
        for layer_counts in &counts[1..] {
            let total: u64 = layer_counts.iter().sum();
            assert_eq!(total, (7 * cfg.top_k) as u64);
        }
    }

    #[test]
    fn frequencies_normalize_per_layer() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 1);
        let p = profile_expert_frequency(&m, &corpus(64, 4, 16, 2)).unwrap();
        for (li, layer) in p.per_layer.iter().enumerate() {
            if layer.is_empty() {
                continue;
            }
            let sum: f32 = layer.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "layer {li} sums to {sum}");
        }
    }

    #[test]
    fn dense_layers_have_empty_rows() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 3);
        let p = profile_expert_frequency(&m, &corpus(64, 2, 8, 4)).unwrap();
        assert!(p.per_layer[0].is_empty());
        assert!(!p.per_layer[1].is_empty());
    }

    #[test]
    fn imbalanced_router_shows_in_profile() {
        // Strong router imbalance should produce a clearly skewed
        // distribution.
        let mut cfg = MoeConfig::tiny_mixtral();
        cfg.router_imbalance = 2.0;
        let skewed = MoeModel::synthesize(&cfg, 5);
        let p = profile_expert_frequency(&skewed, &corpus(64, 8, 24, 6)).unwrap();
        assert!(
            p.max_imbalance() > 2.0,
            "imbalance {} too small for a biased router",
            p.max_imbalance()
        );
    }

    #[test]
    fn frequency_accessor_is_bounded() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 7);
        let p = profile_expert_frequency(&m, &corpus(64, 2, 8, 8)).unwrap();
        assert_eq!(p.frequency(999, 0), 0.0);
        assert_eq!(p.frequency(0, 999), 0.0);
        let f = p.frequency(0, 0);
        assert!((0.0..=1.0).contains(&f));
    }
}
