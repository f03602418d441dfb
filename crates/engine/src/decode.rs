//! KV-cached incremental decoding on packed weights — the decode loop a
//! real MiLo serving backend runs: one token per step, O(prefix) work,
//! all projections through the packed INT3 path.

use crate::model::PackedMoeModel;
use crate::{EngineError, Result};
use milo_moe::attention::rms_norm;
use milo_moe::decode::attend_step;
use milo_moe::ResilienceContext;
use milo_tensor::Matrix;

/// Per-layer key/value caches for one packed decoding stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedDecodeState {
    kv: Vec<(Vec<f32>, Vec<f32>)>,
    seen: usize,
    d_model: usize,
}

impl PackedDecodeState {
    /// Creates an empty state for `model`.
    pub fn new(model: &PackedMoeModel) -> Self {
        Self {
            kv: vec![(Vec::new(), Vec::new()); model.n_layers()],
            seen: 0,
            d_model: model.d_model(),
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
}

impl PackedMoeModel {
    /// Processes one token incrementally through the packed projections,
    /// returning this position's logits.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Run`] for invalid tokens,
    /// [`EngineError::DecodeStateMismatch`] for a state built for a model
    /// of another depth or width, and [`EngineError::ExpertFailed`] for a
    /// panicking or non-finite expert (experts dispatch under a strict
    /// [`ResilienceContext`]).
    pub fn forward_step(
        &self,
        token: u32,
        state: &mut PackedDecodeState,
    ) -> Result<Vec<f32>> {
        if token as usize >= self.vocab() {
            return Err(EngineError::Run(format!("token {token} out of vocabulary")));
        }
        let d = self.d_model();
        if (state.kv.len(), state.d_model) != (self.n_layers(), d) {
            return Err(EngineError::DecodeStateMismatch {
                state: (state.kv.len(), state.d_model),
                model: (self.n_layers(), d),
            });
        }
        let strict = ResilienceContext::strict();
        let mut x = Matrix::zeros(1, d);
        x.row_mut(0).copy_from_slice(self.embed_row(token as usize));

        for li in 0..self.n_layers() {
            let normed = rms_norm(&x);
            let (q, k, v) = self.project_qkv(li, &normed)?;
            let (keys, values) = &mut state.kv[li];
            keys.extend_from_slice(k.row(0));
            values.extend_from_slice(v.row(0));
            let ctx_vec = attend_step(q.row(0), keys, values, self.layer_heads(li), d);
            let mut ctx = Matrix::zeros(1, d);
            ctx.row_mut(0).copy_from_slice(&ctx_vec);
            let a = self.project_out(li, &ctx)?;
            for (xv, av) in x.row_mut(0).iter_mut().zip(a.row(0)) {
                *xv += av;
            }

            let normed = rms_norm(&x);
            let f = self.ffn(li, &normed, &strict)?;
            for (xv, fv) in x.row_mut(0).iter_mut().zip(f.row(0)) {
                *xv += fv;
            }
        }
        state.seen += 1;
        self.project_logits(&x)
    }

    /// Runs a whole prefix through the cache, returning the last
    /// position's logits.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Run`] for an empty prefix.
    pub fn prefill(&self, tokens: &[u32], state: &mut PackedDecodeState) -> Result<Vec<f32>> {
        if tokens.is_empty() {
            return Err(EngineError::Run("empty prefix".into()));
        }
        let mut last = Vec::new();
        for &t in tokens {
            last = self.forward_step(t, state)?;
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_core::{compress_model, MiloOptions, RankPolicy};
    use milo_moe::{layer_tensors, MoeConfig, MoeModel};

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
            for (a, b) in step.iter().zip(batch.row(i)) {
                assert!(
                    (a - b).abs() <= 2e-4 * (1.0 + b.abs()),
                    "position {i}: {a} vs {b}"
                );
            }
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
            Err(EngineError::DecodeStateMismatch { state: (2, 128), model: (2, 64) })
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
}
