//! Architecture configurations for the synthetic MoE models.
//!
//! The presets scale the paper's two evaluation models down to CPU-friendly
//! sizes while preserving everything the MiLo algorithm interacts with:
//! layer classes, expert counts, router top-k, matrix aspect ratios, and
//! the statistical profile of each weight class (see `DESIGN.md` §5).

/// Configuration of a synthetic MoE transformer.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeConfig {
    /// Human-readable model name used in reports.
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Model (residual stream) dimension.
    pub d_model: usize,
    /// Number of attention heads (`d_model` must be divisible by this).
    pub n_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of routed experts per MoE layer.
    pub n_experts: usize,
    /// Router top-k.
    pub top_k: usize,
    /// Hidden dimension of each routed expert's FFN.
    pub expert_ffn: usize,
    /// Number of always-active shared experts (DeepSeek-style); 0 for
    /// Mixtral-style models.
    pub n_shared_experts: usize,
    /// Hidden dimension of each shared expert (and of the dense FFN when
    /// [`MoeConfig::first_layer_dense`] is set).
    pub shared_ffn: usize,
    /// Whether layer 0 uses a dense FFN instead of experts (DeepSeek-MoE
    /// does).
    pub first_layer_dense: bool,
    /// Standard deviation of the per-expert router bias; larger values
    /// skew expert activation frequencies harder (paper Fig. 3).
    pub router_imbalance: f32,
    /// Student-t degrees of freedom for attention weights (lower = heavier
    /// tails; paper Table 2 shows attention kurtosis ≈ 1.57 for Mixtral,
    /// which dof ≈ 8 matches).
    pub attn_dof: f32,
    /// Log-normal spread of per-output-channel gains on routed-expert
    /// weights. Trained experts specialize on token subsets and develop
    /// per-channel scale divergence; this reproduces paper Table 2's
    /// expert statistics (excess kurtosis ≈ −0.5 rather than pure
    /// uniform's −1.2, and a residual spectrum with many singular values
    /// below τ·σ_max). 0 disables the structure.
    pub expert_channel_spread: f32,
    /// Logit sharpening factor applied to the output head; larger values
    /// make the synthetic language model more confident, giving perplexity
    /// measurements more dynamic range.
    pub head_gain: f32,
}

impl MoeConfig {
    /// The scaled Mixtral-8×7B analogue: 8 experts, top-2, FFN/d ratio
    /// 14336/4096 = 3.5, no shared experts, balanced-ish router.
    pub fn mixtral_like() -> Self {
        Self {
            name: "Mixtral-like".into(),
            n_layers: 8,
            d_model: 256,
            n_heads: 4,
            vocab: 512,
            n_experts: 8,
            top_k: 2,
            expert_ffn: 896, // 3.5 × d_model, and a multiple of 128
            n_shared_experts: 0,
            shared_ffn: 0,
            first_layer_dense: false,
            router_imbalance: 0.3,
            attn_dof: 8.0,
            expert_channel_spread: 0.29,
            head_gain: 2.0,
        }
    }

    /// The scaled DeepSeek-MoE analogue: 64 fine-grained experts, top-6,
    /// 2 shared experts, dense first layer, strongly skewed router.
    pub fn deepseek_like() -> Self {
        Self {
            name: "DeepSeek-like".into(),
            n_layers: 8,
            d_model: 192,
            n_heads: 4,
            vocab: 512,
            n_experts: 64,
            top_k: 6,
            expert_ffn: 96,
            n_shared_experts: 2,
            shared_ffn: 192,
            first_layer_dense: true,
            router_imbalance: 1.0,
            attn_dof: 20.0, // paper Table 2: DeepSeek attention kurtosis ≈ 0.016
            expert_channel_spread: 0.29,
            head_gain: 2.0,
        }
    }

    /// A tiny Mixtral-like config for fast tests.
    pub fn tiny_mixtral() -> Self {
        Self {
            name: "Tiny-Mixtral".into(),
            n_layers: 2,
            d_model: 64,
            n_heads: 2,
            vocab: 64,
            n_experts: 4,
            top_k: 2,
            expert_ffn: 128,
            n_shared_experts: 0,
            shared_ffn: 0,
            first_layer_dense: false,
            router_imbalance: 0.3,
            attn_dof: 6.0,
            expert_channel_spread: 0.29,
            head_gain: 2.0,
        }
    }

    /// A tiny DeepSeek-like config for fast tests.
    pub fn tiny_deepseek() -> Self {
        Self {
            name: "Tiny-DeepSeek".into(),
            n_layers: 2,
            d_model: 64,
            n_heads: 2,
            vocab: 64,
            n_experts: 8,
            top_k: 2,
            expert_ffn: 32,
            n_shared_experts: 1,
            shared_ffn: 64,
            first_layer_dense: true,
            router_imbalance: 1.0,
            attn_dof: 20.0,
            expert_channel_spread: 0.29,
            head_gain: 2.0,
        }
    }

    /// Returns a copy uniformly scaled: dimensions multiplied by `f`
    /// (rounded to multiples of 32 so kernels can pack them), layer count
    /// untouched. Useful for sweeping experiment sizes.
    pub fn scaled(&self, f: f32) -> Self {
        let round32 = |v: usize| (((v as f32 * f) / 32.0).round().max(1.0) as usize) * 32;
        Self {
            d_model: round32(self.d_model),
            expert_ffn: round32(self.expert_ffn),
            shared_ffn: if self.shared_ffn > 0 { round32(self.shared_ffn) } else { 0 },
            ..self.clone()
        }
    }

    /// Total parameter count of the quantizable weights (attention +
    /// experts + shared/dense FFNs), excluding embeddings and routers,
    /// which the paper keeps in half precision.
    pub fn quantizable_params(&self) -> usize {
        let attn = 4 * self.d_model * self.d_model;
        let expert = 3 * self.expert_ffn * self.d_model;
        let shared = 3 * self.shared_ffn * self.d_model;
        let mut total = 0;
        for layer in 0..self.n_layers {
            total += attn;
            if self.first_layer_dense && layer == 0 {
                total += shared.max(expert);
            } else {
                total += self.n_experts * expert + self.n_shared_experts * shared;
            }
        }
        total
    }

    /// FP16 memory of the quantizable weights, in bytes.
    pub fn fp16_bytes(&self) -> usize {
        2 * self.quantizable_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for cfg in [
            MoeConfig::mixtral_like(),
            MoeConfig::deepseek_like(),
            MoeConfig::tiny_mixtral(),
            MoeConfig::tiny_deepseek(),
        ] {
            assert_eq!(cfg.d_model % cfg.n_heads, 0, "{}", cfg.name);
            assert!(cfg.top_k <= cfg.n_experts, "{}", cfg.name);
        }
    }

    #[test]
    fn mixtral_preserves_ffn_ratio() {
        let cfg = MoeConfig::mixtral_like();
        let ratio = cfg.expert_ffn as f32 / cfg.d_model as f32;
        // Mixtral-8x7B: 14336 / 4096 = 3.5.
        assert!((ratio - 3.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn deepseek_is_fine_grained() {
        let cfg = MoeConfig::deepseek_like();
        assert!(cfg.n_experts >= 32);
        assert!(cfg.expert_ffn < cfg.d_model);
        assert!(cfg.first_layer_dense);
        assert!(cfg.n_shared_experts > 0);
    }

    #[test]
    fn scaled_rounds_to_32() {
        let cfg = MoeConfig::mixtral_like().scaled(0.5);
        assert_eq!(cfg.d_model % 32, 0);
        assert_eq!(cfg.expert_ffn % 32, 0);
        assert!(cfg.d_model < MoeConfig::mixtral_like().d_model);
    }

    #[test]
    fn param_counts_scale_with_experts() {
        let mix = MoeConfig::tiny_mixtral();
        let mut more = mix.clone();
        more.n_experts *= 2;
        assert!(more.quantizable_params() > mix.quantizable_params());
        assert_eq!(mix.fp16_bytes(), 2 * mix.quantizable_params());
    }

    #[test]
    fn dense_first_layer_counts_differently() {
        let ds = MoeConfig::tiny_deepseek();
        let mut all_moe = ds.clone();
        all_moe.first_layer_dense = false;
        assert!(all_moe.quantizable_params() > ds.quantizable_params());
    }
}
