//! Bit-exactness gate for the forward pass: the FNV-1a digest of every
//! logit a fixed prompt set produces, for the FP32 reference and the
//! packed deployment model on three configurations.
//!
//! A change that alters any logit bit (a different reduction order in a
//! kernel, a different FP16 rounding point, a reordered dispatch) fails
//! here, so refactors and kernel rewrites that claim to keep the
//! arithmetic unchanged can prove it. The three models cover both
//! packed-kernel regimes: the tiny Mixtral- and DeepSeek-like models run
//! every projection on the dense fallback (`packed_fraction` 0), while the
//! tileable Mixtral runs every projection through the fused INT3 kernel
//! (`packed_fraction` 1).
//!
//! If a digest changes on purpose, re-derive all six and say why in the
//! change that does it.

use milo::core::{compress_model, MiloOptions, RankPolicy};
use milo::engine::PackedMoeModel;
use milo::moe::{layer_tensors, MoeConfig, MoeModel};
use milo::quant::HqqOptions;
use milo::tensor::Matrix;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of each logit's bit pattern.
fn fnv1a(logits: &[Matrix]) -> u64 {
    let mut h = FNV_OFFSET;
    for m in logits {
        for v in m.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// Six prompts: prompt `p` has `3 + 2p` tokens, token `i` is
/// `(7i + 13p + 1) % vocab`.
fn prompts(vocab: usize) -> Vec<Vec<u32>> {
    (0..6)
        .map(|p| (0..3 + 2 * p).map(|i| ((7 * i + 13 * p + 1) % vocab) as u32).collect())
        .collect()
}

fn digest(forward: impl Fn(&[u32]) -> Matrix, vocab: usize) -> u64 {
    let logits: Vec<Matrix> = prompts(vocab).iter().map(|p| forward(p)).collect();
    fnv1a(&logits)
}

/// A Mixtral-like model whose every projection tiles at 128×128.
fn tileable_mixtral() -> MoeConfig {
    MoeConfig { d_model: 128, expert_ffn: 256, n_layers: 2, n_heads: 2, ..MoeConfig::tiny_mixtral() }
}

/// The three models, with the seed each is synthesized from.
fn models() -> [(&'static str, MoeModel); 3] {
    [
        ("tiny-mixtral", MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 7)),
        ("tiny-deepseek", MoeModel::synthesize(&MoeConfig::tiny_deepseek(), 8)),
        ("tileable-mixtral", MoeModel::synthesize(&tileable_mixtral(), 31)),
    ]
}

#[test]
fn fp32_forward_digests_are_pinned() {
    let expected = [0x573a3edc57bcb677, 0x2f805fedb6585155, 0x725e032d8d16f332];
    for ((name, model), want) in models().into_iter().zip(expected) {
        let got = digest(|p| model.forward(p).unwrap(), model.config.vocab);
        assert_eq!(got, want, "{name}: FP32 digest {got:016x}, expected {want:016x}");
    }
}

#[test]
fn packed_forward_digests_are_pinned() {
    let expected = [0xaab8e86e40c4c93f, 0x77cd5617511c3952, 0x2e8f0f1d360bff57];
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
        ..MiloOptions::default()
    };
    for ((name, model), want) in models().into_iter().zip(expected) {
        let tensors = layer_tensors(&model, None);
        let compressed = compress_model(&tensors, &RankPolicy::uniform(4), &opts, 2).unwrap();
        let packed = PackedMoeModel::build(&model, &compressed).unwrap();
        let got = digest(|p| packed.forward(p).unwrap(), packed.vocab());
        assert_eq!(got, want, "{name}: packed digest {got:016x}, expected {want:016x}");
    }
}
