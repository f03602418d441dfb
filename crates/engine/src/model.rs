//! The packed MoE model: the full transformer running on deployment-form
//! weights.

use crate::linear::PackedLinear;
use crate::{EngineError, Result};
use milo_core::CompressedModel;
use milo_moe::attention::{attend, rms_norm};
use milo_moe::health::ResilienceContext;
use milo_moe::mlp::silu;
use milo_moe::{Expert, FfnBlock, MoeBlock, MoeModel};
use milo_tensor::Matrix;

/// A SwiGLU block on packed projections.
#[derive(Debug, Clone, PartialEq)]
struct PackedMlp {
    w1: PackedLinear,
    w2: PackedLinear,
    w3: PackedLinear,
}

impl Expert for PackedMlp {
    const METRIC_PREFIX: &'static str = "engine";
    type Error = EngineError;

    fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let gate = self.w1.forward(x)?;
        let up = self.w3.forward(x)?;
        let h = Matrix::from_fn(gate.rows(), gate.cols(), |r, c| silu(gate[(r, c)]) * up[(r, c)]);
        self.w2.forward(&h)
    }
}

/// One packed transformer layer.
#[derive(Debug, Clone, PartialEq)]
struct PackedLayer {
    wq: PackedLinear,
    wk: PackedLinear,
    wv: PackedLinear,
    wo: PackedLinear,
    n_heads: usize,
    ffn: FfnBlock<PackedMlp>,
}

impl PackedLayer {
    /// Every projection of the layer: attention, then the FFN's SwiGLU
    /// blocks (the dense block, or the routed then the shared experts).
    fn projections(&self) -> impl Iterator<Item = &PackedLinear> {
        let mlps: Vec<&PackedMlp> = match &self.ffn {
            FfnBlock::Dense(m) => vec![m],
            FfnBlock::Moe(moe) => moe.experts.iter().chain(&moe.shared).collect(),
        };
        [&self.wq, &self.wk, &self.wv, &self.wo]
            .into_iter()
            .chain(mlps.into_iter().flat_map(|m| [&m.w1, &m.w2, &m.w3]))
    }
}

/// A complete MoE model in deployment form: packed INT3 projections,
/// low-rank compensators applied as skinny GEMMs, FP32 routers /
/// embeddings / head.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMoeModel {
    embed: Matrix,
    head: Matrix,
    head_gain: f32,
    vocab: usize,
    d_model: usize,
    layers: Vec<PackedLayer>,
}

impl PackedMoeModel {
    /// Builds the deployment model from the FP32 reference (which
    /// provides the architecture, routers, embeddings, and head) and the
    /// compressed weights.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Mismatch`] if a layer of the reference has
    /// no counterpart in `compressed`.
    pub fn build(reference: &MoeModel, compressed: &CompressedModel) -> Result<Self> {
        let lin = |name: String| -> Result<PackedLinear> {
            let rec = compressed
                .layer(&name)
                .ok_or_else(|| EngineError::Mismatch(format!("missing layer {name}")))?;
            PackedLinear::build(&rec.layer)
        };
        let mlp = |prefix: String| -> Result<PackedMlp> {
            Ok(PackedMlp {
                w1: lin(format!("{prefix}.w1"))?,
                w2: lin(format!("{prefix}.w2"))?,
                w3: lin(format!("{prefix}.w3"))?,
            })
        };

        let mut layers = Vec::with_capacity(reference.layers.len());
        for (li, layer) in reference.layers.iter().enumerate() {
            let ffn = match &layer.ffn {
                FfnBlock::Dense(_) => FfnBlock::Dense(mlp(format!("layer{li}.dense"))?),
                FfnBlock::Moe(moe) => FfnBlock::Moe(MoeBlock {
                    router: moe.router.clone(),
                    experts: (0..moe.experts.len())
                        .map(|e| mlp(format!("layer{li}.expert{e}")))
                        .collect::<Result<_>>()?,
                    shared: (0..moe.shared.len())
                        .map(|s| mlp(format!("layer{li}.shared{s}")))
                        .collect::<Result<_>>()?,
                }),
            };
            layers.push(PackedLayer {
                wq: lin(format!("layer{li}.attn.wq"))?,
                wk: lin(format!("layer{li}.attn.wk"))?,
                wv: lin(format!("layer{li}.attn.wv"))?,
                wo: lin(format!("layer{li}.attn.wo"))?,
                n_heads: layer.attn.n_heads(),
                ffn,
            });
        }
        Ok(Self {
            embed: reference.embed.clone(),
            head: reference.head.clone(),
            head_gain: reference.config.head_gain,
            vocab: reference.config.vocab,
            d_model: reference.config.d_model,
            layers,
        })
    }

    /// Runs the model over a token sequence, returning per-position
    /// logits (`seq × vocab`), numerically equivalent (to FP16 rounding)
    /// to evaluating the reconstructed dense model. Runs under a fresh
    /// [`ResilienceContext::strict`], so a failing expert is an error.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Run`] for invalid tokens or empty input and
    /// [`EngineError::ExpertFailed`] for a panicking or non-finite expert.
    pub fn forward(&self, tokens: &[u32]) -> Result<Matrix> {
        self.forward_resilient(tokens, &ResilienceContext::strict())
    }

    /// Fault-tolerant forward pass on packed weights: experts dispatch
    /// through [`MoeBlock::dispatch`], so failures follow the context's
    /// [`FaultMode`](milo_moe::FaultMode) — typed
    /// [`EngineError::ExpertFailed`] in strict mode, quarantine + top-k
    /// mass renormalization over the surviving experts in degrade mode.
    /// The context's cancel token is checked at every layer boundary.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Run`] for invalid tokens, empty input, or
    /// routing failures (a sick router cannot be degraded around),
    /// [`EngineError::ExpertFailed`] for an expert failure in strict
    /// mode, and [`EngineError::Cancelled`] once the context is
    /// cancelled.
    pub fn forward_resilient(
        &self,
        tokens: &[u32],
        ctx: &ResilienceContext,
    ) -> Result<Matrix> {
        let _span = milo_obs::span(|| "engine.forward".into());
        if tokens.is_empty() {
            return Err(EngineError::Run("empty token sequence".into()));
        }
        let mut x = Matrix::zeros(tokens.len(), self.d_model);
        for (i, &t) in tokens.iter().enumerate() {
            if t as usize >= self.vocab {
                return Err(EngineError::Run(format!("token {t} out of vocabulary")));
            }
            x.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }

        for li in 0..self.layers.len() {
            if ctx.is_cancelled() {
                return Err(EngineError::Cancelled { layer: li });
            }
            let _span = milo_obs::span(|| format!("engine.layer{{layer={li}}}"));
            let normed = rms_norm(&x);
            let a = {
                let _attn = milo_obs::span(|| "engine.attn".into());
                let (q, k, v) = self.project_qkv(li, &normed)?;
                let attn_ctx = attend(&q, &k, &v, self.layers[li].n_heads);
                self.project_out(li, &attn_ctx)?
            };
            x = x.add(&a).map_err(|e| EngineError::Run(e.to_string()))?;

            let normed = rms_norm(&x);
            let f = {
                let _ffn = milo_obs::span(|| "engine.ffn".into());
                self.ffn(li, &normed, ctx)?
            };
            x = x.add(&f).map_err(|e| EngineError::Run(e.to_string()))?;
        }
        if ctx.is_cancelled() {
            return Err(EngineError::Cancelled { layer: self.layers.len() });
        }

        let final_x = rms_norm(&x);
        let logits = final_x
            .matmul(&self.head.transpose())
            .map_err(|e| EngineError::Run(e.to_string()))?;
        Ok(logits.scale(self.head_gain / (self.d_model as f32).sqrt()))
    }

    /// Deployment memory of the quantized projections in bytes (routers,
    /// embeddings, and head — kept FP16 by the paper's backend — are
    /// *not* included, matching the paper's memory columns).
    pub fn memory_bytes(&self) -> usize {
        self.layers.iter().flat_map(PackedLayer::projections).map(PackedLinear::memory_bytes).sum()
    }

    /// Number of transformer layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Model (residual stream) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding row for a token id (used by the decode loop).
    pub(crate) fn embed_row(&self, token: usize) -> &[f32] {
        self.embed.row(token)
    }

    /// Attention heads of layer `li`.
    pub(crate) fn layer_heads(&self, li: usize) -> usize {
        self.layers[li].n_heads
    }

    /// Runs the q/k/v projections of layer `li`.
    pub(crate) fn project_qkv(
        &self,
        li: usize,
        x: &Matrix,
    ) -> Result<(Matrix, Matrix, Matrix)> {
        let l = &self.layers[li];
        Ok((l.wq.forward(x)?, l.wk.forward(x)?, l.wv.forward(x)?))
    }

    /// Runs the output projection of layer `li`.
    pub(crate) fn project_out(&self, li: usize, ctx: &Matrix) -> Result<Matrix> {
        self.layers[li].wo.forward(ctx)
    }

    /// Runs the FFN block of layer `li` on a batch of token rows.
    pub(crate) fn ffn(&self, li: usize, x: &Matrix, ctx: &ResilienceContext) -> Result<Matrix> {
        self.layers[li].ffn.forward(x, li, ctx, None)
    }

    /// Projects a single residual row to logits (norm + head + gain).
    pub(crate) fn project_logits(&self, x: &Matrix) -> Result<Vec<f32>> {
        let final_x = milo_moe::attention::rms_norm(x);
        let logits = final_x
            .matmul(&self.head.transpose())
            .map_err(|e| EngineError::Run(format!("head projection: {e}")))?;
        let gain = self.head_gain / (self.d_model as f32).sqrt();
        Ok(logits.row(0).iter().map(|&l| l * gain).collect())
    }

    /// Fraction of projections served by the packed kernel (the rest use
    /// the dense fallback because of tile-shape constraints).
    pub fn packed_fraction(&self) -> f32 {
        let (packed, total) = self
            .layers
            .iter()
            .flat_map(PackedLayer::projections)
            .fold((0usize, 0usize), |(p, t), l| (p + usize::from(l.uses_packed_kernel()), t + 1));
        packed as f32 / total.max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_core::{compress_model, MiloOptions, RankPolicy};
    use milo_moe::{apply_compressed, layer_tensors, MoeConfig};
    use milo_quant::HqqOptions;
    use milo_tensor::stats;

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
    fn packed_dispatch_recovers_from_poisoned_expert() {
        let (reference, compressed) = build_pair(2);
        let engine = PackedMoeModel::build(&reference, &compressed).unwrap();
        let tokens = [1u32, 7, 13, 22, 40];
        // Find an expert that actually receives tokens in layer 0.
        let mut counts = reference.fresh_counts();
        reference.forward_counting(&tokens, Some(&mut counts)).unwrap();
        let busiest = counts[0]
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(e, _)| e)
            .unwrap();
        for kind in [milo_moe::FaultKind::NanOutput, milo_moe::FaultKind::Panic] {
            let fault = milo_moe::InjectedFault { layer: 0, expert: busiest, kind };
            let ctx = ResilienceContext::degrade().with_fault(fault);
            let logits = engine.forward_resilient(&tokens, &ctx).unwrap();
            assert!(logits.as_slice().iter().all(|v| v.is_finite()), "{kind:?}");
            assert!(ctx.health.is_failed(0, busiest), "{kind:?}");

            let strict = ResilienceContext::strict().with_fault(fault);
            match engine.forward_resilient(&tokens, &strict) {
                Err(EngineError::ExpertFailed { layer: 0, expert, .. }) => {
                    assert_eq!(expert, busiest, "{kind:?}");
                }
                other => panic!("expected ExpertFailed for {kind:?}, got {other:?}"),
            }
        }
        // The engine still serves normal traffic afterwards.
        assert!(engine.forward(&tokens).is_ok());
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
            Err(EngineError::Mismatch(_))
        ));
    }
}
