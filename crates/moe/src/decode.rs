//! KV-cached incremental decoding.
//!
//! A [`DecodeState`] holds each layer's cached key/value rows for one
//! sequence. [`MoeModel::prefill`] runs a whole prompt through the layer
//! loop in one batched pass and [`MoeModel::forward_step`] appends one
//! token, so generating a token costs O(L) instead of re-running the
//! O(L²) prefix. Both run the same loop as [`MoeModel::forward`], with
//! the same per-position arithmetic in the same order, so their logits
//! are **bitwise identical** to the matching rows of a whole-sequence
//! forward, which the tests assert.

use crate::health::ResilienceContext;
use crate::linear::Linear;
use crate::model::MoeModel;
use crate::{MoeError, Result};

/// Per-layer key/value caches for one decoding stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecodeState {
    /// `kv[layer] = (keys, values)`, each `seen × d`, row per position.
    pub(crate) kv: Vec<(Vec<f32>, Vec<f32>)>,
    /// Number of positions processed so far.
    pub(crate) seen: usize,
    d_model: usize,
}

impl DecodeState {
    /// Creates an empty state for `model`.
    pub fn new<P>(model: &MoeModel<P>) -> Self {
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

    /// Checks that the state was built for a model of `n_layers` layers
    /// of width `d_model`.
    pub(crate) fn check(&self, n_layers: usize, d_model: usize) -> Result<()> {
        if (self.kv.len(), self.d_model) != (n_layers, d_model) {
            return Err(MoeError::DecodeStateMismatch {
                state: (self.kv.len(), self.d_model),
                model: (n_layers, d_model),
            });
        }
        Ok(())
    }

    /// Drops every cached row past the first `seen` positions.
    pub(crate) fn truncate(&mut self, seen: usize) {
        for (keys, values) in &mut self.kv {
            keys.truncate(seen * self.d_model);
            values.truncate(seen * self.d_model);
        }
        self.seen = seen;
    }
}

impl<P: Linear> MoeModel<P> {
    /// Processes one token incrementally, appending to `state`'s caches
    /// and returning this position's logits (`vocab` values).
    ///
    /// # Errors
    ///
    /// See [`MoeModel::prefill`].
    pub fn forward_step(&self, token: u32, state: &mut DecodeState) -> Result<Vec<f32>> {
        self.prefill(&[token], state)
    }

    /// Runs `tokens` through the cache in one batched pass, returning the
    /// last position's logits. Experts dispatch under a strict
    /// [`ResilienceContext`]. On any error `state` is left as it was.
    ///
    /// # Errors
    ///
    /// [`MoeError::InvalidInput`] for an empty prefix,
    /// [`MoeError::InvalidToken`] for out-of-vocabulary ids,
    /// [`MoeError::DecodeStateMismatch`] for a state built for a model of
    /// another depth or width, and [`MoeError::ExpertFailed`] for a
    /// panicking or non-finite expert.
    pub fn prefill(&self, tokens: &[u32], state: &mut DecodeState) -> Result<Vec<f32>> {
        let logits = self.run(tokens, &ResilienceContext::strict(), state)?;
        Ok(logits.row(logits.rows() - 1).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MoeConfig;

    fn model() -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 17)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stepped_logits_match_batch_forward() {
        let m = model();
        let tokens = [3u32, 9, 1, 44, 17, 2];
        let batch = m.forward(&tokens).unwrap();
        let mut state = DecodeState::new(&m);
        for (i, &t) in tokens.iter().enumerate() {
            let step = m.forward_step(t, &mut state).unwrap();
            assert_eq!(bits(&step), bits(batch.row(i)), "position {i}");
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
        assert_eq!(bits(&last), bits(batch.row(tokens.len() - 1)));
    }

    #[test]
    fn cache_grows_linearly() {
        let m = model();
        let cached = |s: &DecodeState| s.kv.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
        let mut state = DecodeState::new(&m);
        m.forward_step(1, &mut state).unwrap();
        let one = cached(&state);
        m.forward_step(2, &mut state).unwrap();
        assert_eq!(cached(&state), 2 * one);
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
    fn failed_step_or_prefill_leaves_the_state_untouched() {
        let m = model();
        let mut state = DecodeState::new(&m);
        m.prefill(&[1, 2], &mut state).unwrap();
        let before = state.clone();

        // Every expert of layer 1 yields NaN, so a step fails there after
        // layers 0 and 1 have cached their keys and values.
        let mut poisoned = m.clone();
        let crate::FfnBlock::Moe(moe) = &mut poisoned.layers[1].ffn else { panic!("MoE layer") };
        for expert in &mut moe.experts {
            expert.w2.row_mut(0)[0] = f32::NAN;
        }
        assert!(matches!(
            poisoned.forward_step(3, &mut state),
            Err(MoeError::ExpertFailed { layer: 1, .. })
        ));
        assert_eq!(state, before);
        assert!(poisoned.prefill(&[3, 4], &mut state).is_err());
        assert_eq!(state, before);

        // A bad token anywhere in the prefix is rejected before any layer runs.
        assert_eq!(
            m.prefill(&[1, 2, 99999, 4], &mut state),
            Err(MoeError::InvalidToken { token: 99999, vocab: 64 })
        );
        assert_eq!(state, before);

        // The state keeps decoding exactly as if nothing had failed.
        let mut fresh = DecodeState::new(&m);
        let want = m.prefill(&[1, 2, 3], &mut fresh).unwrap();
        assert_eq!(bits(&m.forward_step(3, &mut state).unwrap()), bits(&want));
    }

    #[test]
    fn invalid_token_is_rejected() {
        let m = model();
        let mut state = DecodeState::new(&m);
        assert!(m.forward_step(9999, &mut state).is_err());
        assert!(m.prefill(&[], &mut state).is_err());
    }
}
