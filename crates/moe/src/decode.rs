//! KV-cached incremental decoding.
//!
//! [`MoeModel::forward`] recomputes the whole prefix for every generated
//! token — O(L²) work per sequence of length L. Real serving (and the
//! paper's latency experiments, which measure exactly this path) caches
//! each layer's key/value projections so one decode step costs O(L).
//! [`DecodeState`] holds those caches; stepping through a sequence with
//! [`MoeModel::forward_step`] produces logits **bitwise identical** to
//! the batch forward pass (the per-position arithmetic is the same, in
//! the same order), which the tests assert.

use crate::attention::rms_norm;
use crate::health::ResilienceContext;
use crate::model::MoeModel;
use crate::{MoeError, Result};
use milo_tensor::Matrix;

/// Per-layer key/value caches for one decoding stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeState {
    /// `kv[layer] = (keys, values)`, each `seen × d`, row per position.
    kv: Vec<(Vec<f32>, Vec<f32>)>,
    /// Number of positions processed so far.
    seen: usize,
    d_model: usize,
}

impl DecodeState {
    /// Creates an empty state for `model`.
    pub fn new(model: &MoeModel) -> Self {
        Self {
            kv: vec![(Vec::new(), Vec::new()); model.layers.len()],
            seen: 0,
            d_model: model.config.d_model,
        }
    }

    /// Number of tokens processed so far.
    pub fn len(&self) -> usize {
        self.seen
    }

    /// Whether no tokens have been processed yet.
    pub fn is_empty(&self) -> bool {
        self.seen == 0
    }

    /// Approximate memory held by the caches, in bytes.
    pub fn cache_bytes(&self) -> usize {
        self.kv.iter().map(|(k, v)| 4 * (k.len() + v.len())).sum()
    }
}

/// Causal attention for one new position against cached keys/values.
///
/// `q` is the new token's query row (`d` values); `keys`/`values` hold
/// `seen` rows of `d` values each, the new position's row included.
pub fn attend_step(q: &[f32], keys: &[f32], values: &[f32], n_heads: usize, d: usize) -> Vec<f32> {
    let seen = keys.len() / d;
    let hd = d / n_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut ctx = vec![0.0f32; d];
    for h in 0..n_heads {
        let off = h * hd;
        let mut scores = Vec::with_capacity(seen);
        let mut max_s = f32::NEG_INFINITY;
        for j in 0..seen {
            let mut s = 0.0;
            for c in 0..hd {
                s += q[off + c] * keys[j * d + off + c];
            }
            let s = s * scale;
            max_s = max_s.max(s);
            scores.push(s);
        }
        let mut denom = 0.0;
        for s in &mut scores {
            *s = (*s - max_s).exp();
            denom += *s;
        }
        for (j, s) in scores.iter().enumerate() {
            let w = s / denom;
            for c in 0..hd {
                ctx[off + c] += w * values[j * d + off + c];
            }
        }
    }
    ctx
}

impl MoeModel {
    /// Processes one token incrementally, appending to `state`'s caches
    /// and returning this position's logits (`vocab` values). Stepping a
    /// sequence token by token yields the same logits as
    /// [`MoeModel::forward`] produces for the corresponding positions.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::InvalidToken`] for out-of-vocabulary ids,
    /// [`MoeError::DecodeStateMismatch`] for a state built for a model of
    /// another depth or width, and [`MoeError::ExpertFailed`] for a
    /// panicking or non-finite expert (experts dispatch under a strict
    /// [`ResilienceContext`]).
    pub fn forward_step(&self, token: u32, state: &mut DecodeState) -> Result<Vec<f32>> {
        if token as usize >= self.config.vocab {
            return Err(MoeError::InvalidToken { token, vocab: self.config.vocab });
        }
        let d = self.config.d_model;
        if (state.kv.len(), state.d_model) != (self.layers.len(), d) {
            return Err(MoeError::DecodeStateMismatch {
                state: (state.kv.len(), state.d_model),
                model: (self.layers.len(), d),
            });
        }
        let strict = ResilienceContext::strict();

        let mut x = Matrix::zeros(1, d);
        x.row_mut(0).copy_from_slice(self.embed.row(token as usize));

        for (li, layer) in self.layers.iter().enumerate() {
            let normed = rms_norm(&x);
            let q = layer.attn.wq.matvec(normed.row(0))?;
            let k = layer.attn.wk.matvec(normed.row(0))?;
            let v = layer.attn.wv.matvec(normed.row(0))?;
            let (keys, values) = &mut state.kv[li];
            keys.extend_from_slice(&k);
            values.extend_from_slice(&v);
            let ctx = attend_step(&q, keys, values, layer.attn.n_heads(), d);
            let a = layer.attn.wo.matvec(&ctx)?;
            for (xv, av) in x.row_mut(0).iter_mut().zip(&a) {
                *xv += av;
            }

            let f = layer.ffn.forward(&rms_norm(&x), li, &strict, None)?;
            for (xv, fv) in x.row_mut(0).iter_mut().zip(f.row(0)) {
                *xv += fv;
            }
        }
        state.seen += 1;

        let final_x = rms_norm(&x);
        let logits = final_x.matmul(&self.head.transpose())?;
        let gain = self.config.head_gain / (d as f32).sqrt();
        Ok(logits.row(0).iter().map(|&l| l * gain).collect())
    }

    /// Runs a whole prefix through the cache, returning the last
    /// position's logits.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::InvalidInput`] for an empty prefix and
    /// propagates per-token failures.
    pub fn prefill(&self, tokens: &[u32], state: &mut DecodeState) -> Result<Vec<f32>> {
        if tokens.is_empty() {
            return Err(MoeError::InvalidInput("empty prefix".into()));
        }
        let mut last = Vec::new();
        for &t in tokens {
            last = self.forward_step(t, state)?;
        }
        Ok(last)
    }

    /// KV-cached sampling: like [`MoeModel::sample`] but O(L) per step
    /// instead of O(L²). The logits differ from the batch path only by
    /// floating-point summation order, so sampled sequences can
    /// occasionally diverge at near-ties; use one path consistently
    /// within an experiment.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn sample_cached(
        &self,
        prompt: &[u32],
        len: usize,
        temperature: f32,
        rng: &mut milo_tensor::rng::StdRng,
    ) -> Result<Vec<u32>> {
        let mut state = DecodeState::new(self);
        let mut logits = self.prefill(prompt, &mut state)?;
        let mut tokens = prompt.to_vec();
        for _ in 0..len {
            let next = crate::model::sample_from_logits(&logits, temperature, rng);
            tokens.push(next);
            logits = self.forward_step(next, &mut state)?;
        }
        Ok(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;

    fn model() -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 17)
    }

    #[test]
    fn stepped_logits_match_batch_forward() {
        let m = model();
        let tokens = [3u32, 9, 1, 44, 17, 2];
        let batch = m.forward(&tokens).unwrap();
        let mut state = DecodeState::new(&m);
        for (i, &t) in tokens.iter().enumerate() {
            let step = m.forward_step(t, &mut state).unwrap();
            for (a, b) in step.iter().zip(batch.row(i)) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "position {i}: {a} vs {b}"
                );
            }
        }
        assert_eq!(state.len(), tokens.len());
    }

    #[test]
    fn deepseek_variant_also_matches() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 18);
        let tokens = [5u32, 2, 61, 33];
        let batch = m.forward(&tokens).unwrap();
        let mut state = DecodeState::new(&m);
        let last = m.prefill(&tokens, &mut state).unwrap();
        for (a, b) in last.iter().zip(batch.row(tokens.len() - 1)) {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn cache_grows_linearly() {
        let m = model();
        let mut state = DecodeState::new(&m);
        m.forward_step(1, &mut state).unwrap();
        let one = state.cache_bytes();
        m.forward_step(2, &mut state).unwrap();
        assert_eq!(state.cache_bytes(), 2 * one);
        assert!(!state.is_empty());
    }

    #[test]
    fn state_for_another_model_is_a_typed_error() {
        let mut cfg = MoeConfig::tiny_mixtral();
        cfg.n_layers = 2;
        let two = MoeModel::synthesize(&cfg, 19);
        cfg.n_layers = 4;
        let four = MoeModel::synthesize(&cfg, 19);
        let mut state = DecodeState::new(&two);
        assert_eq!(
            four.forward_step(1, &mut state),
            Err(MoeError::DecodeStateMismatch { state: (2, 64), model: (4, 64) })
        );
        let mut wide_cfg = MoeConfig::tiny_mixtral();
        wide_cfg.d_model = 128;
        let mut wide = DecodeState::new(&MoeModel::synthesize(&wide_cfg, 19));
        let m = model();
        assert!(matches!(
            m.forward_step(1, &mut wide),
            Err(MoeError::DecodeStateMismatch { state: (_, 128), model: (_, 64) })
        ));
        assert!(wide.is_empty());
    }

    #[test]
    fn invalid_token_is_rejected() {
        let m = model();
        let mut state = DecodeState::new(&m);
        assert!(m.forward_step(9999, &mut state).is_err());
        assert!(m.prefill(&[], &mut state).is_err());
    }
}
