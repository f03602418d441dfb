//! The MoE transformer: synthesis, the layer loop every forward entry
//! point runs, sampling, and the one walk that names its projections.

use crate::attention::{rms_norm, Attention};
use crate::config::MoeConfig;
use crate::decode::DecodeState;
use crate::health::ResilienceContext;
use crate::linear::{Linear, Tap};
use crate::mlp::Mlp;
use crate::router::Router;
use crate::{MoeError, Result};
use milo_core::LayerKind;
use milo_tensor::rng::WeightDist;
use milo_tensor::Matrix;
use milo_tensor::rng::StdRng;
use milo_tensor::rng::{Rng, SeedableRng};

/// The feed-forward part of a transformer layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FfnBlock<P = Matrix> {
    /// A dense FFN (DeepSeek-MoE's first layer).
    Dense(Mlp<P>),
    /// A routed mixture of experts.
    Moe(MoeBlock<P>),
}

/// A mixture-of-experts FFN block: router, routed experts, and optional
/// always-active shared experts; [`MoeBlock::dispatch`] runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeBlock<P = Matrix> {
    /// The top-k router.
    pub router: Router,
    /// Routed experts.
    pub experts: Vec<Mlp<P>>,
    /// Shared experts applied to every token (DeepSeek-style).
    pub shared: Vec<Mlp<P>>,
}

/// One transformer layer: attention followed by the FFN block, both with
/// pre-RMS-norm residual connections.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerLayer<P = Matrix> {
    /// The self-attention block.
    pub attn: Attention<P>,
    /// The feed-forward block (dense or MoE).
    pub ffn: FfnBlock<P>,
}

impl<P> TransformerLayer<P> {
    /// Maps every projection of layer `li` through `f`, in the order
    /// attention `wq, wk, wv, wo`, then the dense block or the routed
    /// then the shared experts (`w1, w2, w3` each). `f` receives the
    /// projection's name — `layer{li}.attn.wq`, `layer{li}.dense.w1`,
    /// `layer{li}.expert{e}.w2`, `layer{li}.shared{s}.w3` — and kind;
    /// this is the one place those names are spelled.
    fn try_map<'a, Q, E>(
        &'a self,
        li: usize,
        f: &mut impl FnMut(&str, LayerKind, &'a P) -> std::result::Result<Q, E>,
    ) -> std::result::Result<TransformerLayer<Q>, E> {
        let (a, kind) = (&self.attn, LayerKind::Attention);
        let attn = Attention {
            wq: f(&format!("layer{li}.attn.wq"), kind, &a.wq)?,
            wk: f(&format!("layer{li}.attn.wk"), kind, &a.wk)?,
            wv: f(&format!("layer{li}.attn.wv"), kind, &a.wv)?,
            wo: f(&format!("layer{li}.attn.wo"), kind, &a.wo)?,
            n_heads: a.n_heads,
        };
        let mut mlp = |block: String, kind: LayerKind, m: &'a Mlp<P>| -> std::result::Result<Mlp<Q>, E> {
            Ok(Mlp {
                w1: f(&format!("layer{li}.{block}.w1"), kind, &m.w1)?,
                w2: f(&format!("layer{li}.{block}.w2"), kind, &m.w2)?,
                w3: f(&format!("layer{li}.{block}.w3"), kind, &m.w3)?,
            })
        };
        let ffn = match &self.ffn {
            FfnBlock::Dense(m) => FfnBlock::Dense(mlp("dense".into(), LayerKind::DenseFfn, m)?),
            FfnBlock::Moe(moe) => FfnBlock::Moe(MoeBlock {
                router: moe.router.clone(),
                experts: (moe.experts.iter().enumerate())
                    .map(|(e, m)| mlp(format!("expert{e}"), LayerKind::Expert { index: e }, m))
                    .collect::<std::result::Result<_, E>>()?,
                shared: (moe.shared.iter().enumerate())
                    .map(|(s, m)| mlp(format!("shared{s}"), LayerKind::SharedExpert, m))
                    .collect::<std::result::Result<_, E>>()?,
            }),
        };
        Ok(TransformerLayer { attn, ffn })
    }
}

/// A complete MoE language model whose projections are of type `P`:
/// dense FP32 matrices for the reference model (the default), packed
/// INT3 projections with compensators in `milo-engine`. Embeddings,
/// routers, norms, and the head stay in full precision either way.
///
/// # Examples
///
/// ```
/// use milo_moe::{MoeConfig, MoeModel};
///
/// let model = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 7);
/// let logits = model.forward(&[1, 2, 3])?;
/// assert_eq!(logits.shape(), (3, model.config.vocab));
/// # Ok::<(), milo_moe::MoeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MoeModel<P = Matrix> {
    /// The architecture configuration this model was synthesized from.
    pub config: MoeConfig,
    /// Token embedding, `vocab × d`.
    pub embed: Matrix,
    /// Transformer layers.
    pub layers: Vec<TransformerLayer<P>>,
    /// Output head, `vocab × d` (logits = head · x).
    pub head: Matrix,
}

impl MoeModel {
    /// Synthesizes a model from the configuration, deterministically from
    /// `seed`.
    ///
    /// Weight classes follow the paper's statistical profile (Table 2):
    /// attention is Student-t (heavy-tailed), routed experts are uniform
    /// (light-tailed), shared experts / dense FFNs are Gaussian
    /// (in between). Router biases are Gaussian with the configured
    /// imbalance, which skews expert activation frequencies (Fig. 3).
    pub fn synthesize(config: &MoeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d_model;
        // Base init scale ~ 1/sqrt(d); each distribution is normalized to
        // the same variance so only the tail shape differs between layer
        // classes.
        let std = 1.0 / (d as f32).sqrt();
        let t_var = if config.attn_dof > 2.0 {
            config.attn_dof / (config.attn_dof - 2.0)
        } else {
            3.0
        };
        let attn_dist =
            WeightDist::StudentT { dof: config.attn_dof, scale: std / t_var.sqrt() };
        let expert_dist = WeightDist::Uniform { bound: std * 3f32.sqrt() };
        let shared_dist = WeightDist::Gaussian { std };

        let mlp = |dist: WeightDist, ffn: usize, rng: &mut StdRng| {
            Mlp::new(
                dist.sample_matrix(ffn, d, rng),
                dist.sample_matrix(d, ffn, rng),
                dist.sample_matrix(ffn, d, rng),
            )
        };
        // Routed experts additionally carry per-input-channel-group gains
        // (log-normal, variance-normalized, constant over 64-column
        // blocks): trained experts specialize per token subset and
        // develop channel-scale divergence. This reproduces the paper's
        // Table 2 expert statistics — excess kurtosis ≈ −0.5 (a scale
        // mixture of uniforms rather than pure uniform's −1.2) and a
        // *high* residual rank: the block gains set the quantization-group
        // scales, so the residual spectrum spreads and many singular
        // values fall below τ·σ_max. See `MoeConfig::expert_channel_spread`.
        let spread = config.expert_channel_spread;
        let expert_mlp = |dist: WeightDist, ffn: usize, rng: &mut StdRng| {
            let mut m = mlp(dist, ffn, rng);
            if spread > 0.0 {
                for w in [&mut m.w1, &mut m.w2, &mut m.w3] {
                    scale_column_blocks_lognormal(w, spread, 64, rng);
                }
            }
            m
        };

        let embed = WeightDist::Gaussian { std: 1.0 }.sample_matrix(config.vocab, d, &mut rng);
        let mut layers = Vec::with_capacity(config.n_layers);
        for layer in 0..config.n_layers {
            let attn = Attention::new(
                attn_dist.sample_matrix(d, d, &mut rng),
                attn_dist.sample_matrix(d, d, &mut rng),
                attn_dist.sample_matrix(d, d, &mut rng),
                attn_dist.sample_matrix(d, d, &mut rng),
                config.n_heads,
            );
            let ffn = if config.first_layer_dense && layer == 0 {
                FfnBlock::Dense(mlp(shared_dist, config.shared_ffn.max(config.expert_ffn), &mut rng))
            } else {
                let router_w =
                    WeightDist::Gaussian { std: 0.5 }.sample_matrix(config.n_experts, d, &mut rng);
                let bias: Vec<f32> = (0..config.n_experts)
                    .map(|_| {
                        WeightDist::Gaussian { std: config.router_imbalance }.sample(&mut rng)
                    })
                    .collect();
                let experts = (0..config.n_experts)
                    .map(|_| expert_mlp(expert_dist, config.expert_ffn, &mut rng))
                    .collect();
                let shared = (0..config.n_shared_experts)
                    .map(|_| mlp(shared_dist, config.shared_ffn, &mut rng))
                    .collect();
                FfnBlock::Moe(MoeBlock {
                    router: Router::new(router_w, bias, config.top_k),
                    experts,
                    shared,
                })
            };
            layers.push(TransformerLayer { attn, ffn });
        }
        let head = WeightDist::Gaussian { std: 1.0 }.sample_matrix(config.vocab, d, &mut rng);
        Self { config: config.clone(), embed, layers, head }
    }
}

impl<P> MoeModel<P> {
    /// Builds a model of the same architecture whose every projection is
    /// `f(name, kind, projection)` — how compressed weights are
    /// substituted, the packed engine is built, and calibration capture
    /// and expert-frequency profiling tap every weight. Embeddings, routers, and the head are copied.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_map<'a, Q, E>(
        &'a self,
        mut f: impl FnMut(&str, LayerKind, &'a P) -> std::result::Result<Q, E>,
    ) -> std::result::Result<MoeModel<Q>, E> {
        let layers = (self.layers.iter().enumerate())
            .map(|(li, layer)| layer.try_map(li, &mut f))
            .collect::<std::result::Result<_, E>>()?;
        Ok(MoeModel {
            config: self.config.clone(),
            embed: self.embed.clone(),
            layers,
            head: self.head.clone(),
        })
    }

    /// Every projection with its name and kind, in the order
    /// [`MoeModel::try_map`] visits them.
    pub fn projections(&self) -> Vec<(String, LayerKind, &P)> {
        let mut out = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            let Ok(_) = layer.try_map(li, &mut |name, kind, p| {
                out.push((name.to_string(), kind, p));
                Ok::<_, std::convert::Infallible>(())
            });
        }
        out
    }

    /// A copy of the model whose every projection is a [`Tap`] reporting
    /// its inputs, under its [`MoeModel::projections`] name, to
    /// `observer`.
    pub(crate) fn tapped<'a>(
        &'a self,
        observer: &'a (dyn Fn(&str, &Matrix) + Sync),
    ) -> MoeModel<Tap<'a, P>> {
        let Ok(tapped) = self.try_map(|name, _, weight| {
            Ok::<_, std::convert::Infallible>(Tap { name: name.to_string(), weight, observer })
        });
        tapped
    }
}

impl<P: Linear> MoeModel<P> {
    /// Runs the model over a token sequence, returning per-position
    /// logits (`seq × vocab`). Position `i`'s logits predict token
    /// `i + 1`. Runs under a fresh [`ResilienceContext::strict`], so a
    /// failing expert is an error.
    ///
    /// # Errors
    ///
    /// [`MoeError::InvalidToken`] for out-of-vocabulary ids,
    /// [`MoeError::InvalidInput`] for an empty sequence, and
    /// [`MoeError::ExpertFailed`] for a panicking or non-finite expert;
    /// and the projections' own errors.
    pub fn forward(&self, tokens: &[u32]) -> Result<Matrix> {
        self.run(tokens, &ResilienceContext::strict(), &mut DecodeState::new(self))
    }

    /// Fault-tolerant forward pass: a panicking or NaN-producing expert
    /// either fails the request with a typed [`MoeError::ExpertFailed`]
    /// (strict) or is quarantined while the router's top-k mass
    /// renormalizes over the survivors (degrade); see
    /// [`MoeBlock::dispatch`]. The context's deadline is checked at
    /// every layer boundary.
    ///
    /// # Errors
    ///
    /// See [`MoeModel::forward`]; also
    /// [`MoeError::Cancelled`] once the context's deadline passes.
    pub fn forward_resilient(
        &self,
        tokens: &[u32],
        ctx: &ResilienceContext,
    ) -> Result<Matrix> {
        self.run(tokens, ctx, &mut DecodeState::new(self))
    }

    /// Runs `tokens` as the positions following those cached in `state`
    /// and returns their logits (`tokens × vocab`): a whole-sequence
    /// forward is a run on a fresh state, a prefill a run on the
    /// caller's, a decode step a run of one token. Every token and the
    /// state are validated before any layer runs, and a failure part-way
    /// leaves `state` as it was.
    pub(crate) fn run(
        &self,
        tokens: &[u32],
        ctx: &ResilienceContext,
        state: &mut DecodeState,
    ) -> Result<Matrix> {
        let _span = milo_obs::span(|| format!("{}.forward", P::METRIC_PREFIX));
        if tokens.is_empty() {
            return Err(MoeError::InvalidInput("empty token sequence".into()));
        }
        let vocab = self.config.vocab;
        if let Some(&token) = tokens.iter().find(|&&t| t as usize >= vocab) {
            return Err(MoeError::InvalidToken { token, vocab });
        }
        state.check(self.layers.len(), self.config.d_model)?;
        let seen = state.len();
        let logits = self.run_layers(tokens, ctx, state);
        match logits {
            Ok(_) => state.seen += tokens.len(),
            Err(_) => state.truncate(seen),
        }
        logits
    }

    /// The layer loop of [`MoeModel::run`], on validated input.
    fn run_layers(
        &self,
        tokens: &[u32],
        ctx: &ResilienceContext,
        state: &mut DecodeState,
    ) -> Result<Matrix> {
        let prefix = P::METRIC_PREFIX;
        let d = self.config.d_model;
        let mut x = Matrix::zeros(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            x.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }

        for (li, (layer, (keys, values))) in self.layers.iter().zip(&mut state.kv).enumerate() {
            // A request whose deadline passed unwinds at the next layer
            // boundary instead of running to completion.
            if ctx.expired() {
                return Err(MoeError::Cancelled { layer: li });
            }
            let _span = milo_obs::span(|| format!("{prefix}.layer{{layer={li}}}"));
            let a = {
                let _span = milo_obs::span(|| format!("{prefix}.attn"));
                layer.attn.forward(&rms_norm(&x), keys, values)?
            };
            x = x.add(&a)?;
            let f = {
                let _span = milo_obs::span(|| format!("{prefix}.ffn"));
                layer.ffn.forward(&rms_norm(&x), li, ctx)?
            };
            x = x.add(&f)?;
        }
        if ctx.expired() {
            return Err(MoeError::Cancelled { layer: self.layers.len() });
        }

        let logits = self.head.forward(&rms_norm(&x))?;
        Ok(logits.scale(self.config.head_gain / (d as f32).sqrt()))
    }

    /// Samples a continuation of `prompt` of length `len` at the given
    /// softmax temperature: one batched prefill of the prompt, then one
    /// KV-cached decode step per sampled token.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors (an empty prompt is one).
    pub fn sample(
        &self,
        prompt: &[u32],
        len: usize,
        temperature: f32,
        rng: &mut StdRng,
    ) -> Result<Vec<u32>> {
        let mut state = DecodeState::new(self);
        let mut logits = self.prefill(prompt, &mut state)?;
        let mut tokens = prompt.to_vec();
        for i in 0..len {
            let next = sample_from_logits(&logits, temperature, rng);
            tokens.push(next);
            if i + 1 < len {
                logits = self.forward_step(next, &mut state)?;
            }
        }
        Ok(tokens)
    }
}

/// Scales each `block`-wide column block of `w` by a variance-normalized
/// log-normal gain `exp(s·z − s²)` with `z ~ N(0,1)`, so `E[gain²] = 1`
/// and the overall weight variance is unchanged while input-channel-group
/// scales diverge. Blocks are aligned with the quantization group size so
/// the structure propagates into the quantization residual.
fn scale_column_blocks_lognormal(
    w: &mut milo_tensor::Matrix,
    s: f32,
    block: usize,
    rng: &mut StdRng,
) {
    let cols = w.cols();
    let gains: Vec<f32> = (0..cols.div_ceil(block))
        .map(|_| {
            let z = milo_tensor::rng::standard_normal(rng);
            (s * z - s * s).exp()
        })
        .collect();
    for r in 0..w.rows() {
        for (c, v) in w.row_mut(r).iter_mut().enumerate() {
            *v *= gains[c / block];
        }
    }
}

/// Samples a token index from logits at the given temperature.
pub fn sample_from_logits(logits: &[f32], temperature: f32, rng: &mut StdRng) -> u32 {
    let t = temperature.max(1e-3);
    let max_l = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| ((l - max_l) / t).exp()).collect();
    let total: f32 = exps.iter().sum();
    let mut u: f32 = rng.gen::<f32>() * total;
    for (i, &e) in exps.iter().enumerate() {
        u -= e;
        if u <= 0.0 {
            return i as u32;
        }
    }
    (exps.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_expert_frequency;
    use milo_tensor::{pool, stats};

    /// The expert of `layer` that takes the most of `seq`'s routes, so a
    /// fault there is guaranteed to fire.
    fn busiest(m: &MoeModel, seq: &[u32], layer: usize) -> usize {
        let profile = profile_expert_frequency(m, &[seq.to_vec()]).unwrap();
        let freqs = &profile.per_layer[layer];
        (0..freqs.len()).max_by(|&a, &b| freqs[a].total_cmp(&freqs[b])).unwrap()
    }

    /// Writes a NaN into the down projection of expert `expert` of
    /// `layer` (ledger index: routed experts, then shared ones), so every
    /// output of that expert is non-finite.
    fn poison(m: &mut MoeModel, layer: usize, expert: usize) {
        let FfnBlock::Moe(moe) = &mut m.layers[layer].ffn else { panic!("layer {layer} is dense") };
        let n = moe.experts.len();
        let mlp = if expert < n { &mut moe.experts[expert] } else { &mut moe.shared[expert - n] };
        mlp.w2.row_mut(0)[0] = f32::NAN;
    }

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = MoeConfig::tiny_mixtral();
        let a = MoeModel::synthesize(&cfg, 7);
        let b = MoeModel::synthesize(&cfg, 7);
        assert_eq!(a.embed, b.embed);
        assert_eq!(a.layers.len(), b.layers.len());
    }

    #[test]
    fn forward_shapes_are_correct() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 1);
        let logits = m.forward(&[1, 2, 3, 4]).unwrap();
        assert_eq!(logits.shape(), (4, 64));
    }

    #[test]
    fn out_of_vocab_token_is_error() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 1);
        assert!(matches!(
            m.forward(&[1000]),
            Err(MoeError::InvalidToken { .. })
        ));
    }

    #[test]
    fn empty_sequence_is_error() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 1);
        assert!(m.forward(&[]).is_err());
    }

    #[test]
    fn deepseek_first_layer_is_dense() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 2);
        assert!(matches!(m.layers[0].ffn, FfnBlock::Dense(_)));
        assert!(matches!(m.layers[1].ffn, FfnBlock::Moe(_)));
    }

    #[test]
    fn attention_weights_have_higher_kurtosis_than_experts() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 4);
        let attn_k = stats::matrix_kurtosis(&m.layers[0].attn.wq);
        if let FfnBlock::Moe(moe) = &m.layers[0].ffn {
            let exp_k = stats::matrix_kurtosis(&moe.experts[0].w1);
            assert!(
                attn_k > exp_k,
                "attention kurtosis {attn_k} should exceed expert kurtosis {exp_k}"
            );
        } else {
            panic!("tiny mixtral layer 0 should be MoE");
        }
    }

    #[test]
    fn sampling_extends_prompt() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = m.sample(&[1, 2], 5, 1.0, &mut rng).unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(&out[..2], &[1, 2]);
        assert!(out.iter().all(|&t| (t as usize) < 64));
    }

    #[test]
    fn sample_from_logits_respects_temperature() {
        let mut rng = StdRng::seed_from_u64(7);
        // With a dominant logit and tiny temperature, the argmax is
        // picked almost surely.
        let logits = vec![0.0, 10.0, 0.0, 0.0];
        for _ in 0..20 {
            assert_eq!(sample_from_logits(&logits, 0.01, &mut rng), 1);
        }
    }

    #[test]
    fn parallel_expert_dispatch_is_bit_identical_to_serial() {
        // Both architectures: Mixtral-like (8 experts, top-2) and
        // DeepSeek-like (fine-grained experts + shared experts).
        for (cfg, seed) in [(MoeConfig::tiny_mixtral(), 11u64), (MoeConfig::tiny_deepseek(), 12)]
        {
            let m = MoeModel::synthesize(&cfg, seed);
            let seq: Vec<u32> = (0..16).map(|i| (i * 5) % cfg.vocab as u32).collect();
            let corpus = [seq.clone()];
            let run = || (m.forward(&seq).unwrap(), profile_expert_frequency(&m, &corpus).unwrap());
            let (serial, serial_profile) = pool::with_threads(1, run);
            for t in [2, 4, 7] {
                let (par, profile) = pool::with_threads(t, run);
                assert_eq!(par.as_slice(), serial.as_slice(), "threads={t}");
                assert_eq!(profile, serial_profile, "threads={t}");
            }
        }
    }

    #[test]
    fn resilient_forward_matches_plain_forward_when_healthy() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 13);
        let seq = [1u32, 4, 9];
        let plain = m.forward(&seq).unwrap();
        for ctx in [ResilienceContext::strict(), ResilienceContext::degrade()] {
            let res = m.forward_resilient(&seq, &ctx).unwrap();
            assert_eq!(res.as_slice(), plain.as_slice());
            assert_eq!(ctx.health.n_failed(), 0);
        }
    }

    #[test]
    fn nan_expert_degrades_to_finite_output_with_renormalized_mass() {
        let mut m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 14);
        let seq = [1u32, 4, 9, 16];
        let busiest = busiest(&m, &seq, 0);
        poison(&mut m, 0, busiest);

        // Degrade: finite logits, expert quarantined.
        let ctx = ResilienceContext::degrade();
        let logits = m.forward_resilient(&seq, &ctx).unwrap();
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        assert!(ctx.health.is_failed(0, busiest));
        let ((l, e), reason) = ctx.health.failures().remove(0);
        assert_eq!((l, e), (0, busiest));
        assert!(reason.contains("non-finite"), "reason = {reason}");

        // Strict: typed error naming the expert.
        match m.forward_resilient(&seq, &ResilienceContext::strict()) {
            Err(MoeError::ExpertFailed { layer: 0, expert, reason }) => {
                assert_eq!(expert, busiest);
                assert!(reason.contains("non-finite"), "reason = {reason}");
            }
            other => panic!("expected ExpertFailed, got {other:?}"),
        }
    }

    #[test]
    fn plain_forward_names_a_nan_expert_instead_of_returning_nan_logits() {
        let mut m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 14);
        let seq = [1u32, 4, 9, 16];
        let busiest = busiest(&m, &seq, 1);
        poison(&mut m, 1, busiest);
        match m.forward(&seq) {
            Err(MoeError::ExpertFailed { layer: 1, expert, reason }) => {
                assert_eq!(expert, busiest);
                assert!(reason.contains("non-finite"), "reason = {reason}");
            }
            other => panic!("expected ExpertFailed, got {other:?}"),
        }
    }

    #[test]
    fn degraded_tokens_keep_their_topk_mass() {
        // With top-2 routing and one dead expert, affected tokens run on
        // the surviving expert with its gate scaled back up to the full
        // top-k mass — so the output stays in the healthy dynamic range.
        let cfg = MoeConfig::tiny_mixtral();
        let m = MoeModel::synthesize(&cfg, 16);
        let seq: Vec<u32> = (0..12).map(|i| (i * 3) % cfg.vocab as u32).collect();
        let mut poisoned = m.clone();
        poison(&mut poisoned, 0, busiest(&m, &seq, 0));
        let degraded = poisoned.forward_resilient(&seq, &ResilienceContext::degrade()).unwrap();
        let healthy = m.forward(&seq).unwrap();
        assert!(degraded.as_slice().iter().all(|v| v.is_finite()));
        // Degradation perturbs but does not explode the logits.
        let h_norm: f32 = healthy.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        let d_norm: f32 = degraded.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(d_norm < 4.0 * h_norm, "degraded norm {d_norm} vs healthy {h_norm}");
    }

    #[test]
    fn shared_expert_failure_degrades_gracefully() {
        let cfg = MoeConfig::tiny_deepseek();
        let mut m = MoeModel::synthesize(&cfg, 17);
        let seq = [3u32, 8];
        // Layer 1 is the first MoE layer; shared experts live at
        // n_experts + s in the health ledger.
        let idx = cfg.n_experts;
        poison(&mut m, 1, idx);
        let ctx = ResilienceContext::degrade();
        let logits = m.forward_resilient(&seq, &ctx).unwrap();
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        assert!(ctx.health.is_failed(1, idx));
    }

    #[test]
    fn logits_change_when_weights_change() {
        let cfg = MoeConfig::tiny_mixtral();
        let a = MoeModel::synthesize(&cfg, 8);
        let mut b = a.clone();
        b.layers[0].attn.wq = b.layers[0].attn.wq.scale(1.5);
        let la = a.forward(&[3, 1, 4]).unwrap();
        let lb = b.forward(&[3, 1, 4]).unwrap();
        assert_ne!(la, lb);
    }
}
