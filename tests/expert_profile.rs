//! Pins the paper's Fig. 3 measurement: the FNV-1a digest of the expert
//! activation-frequency profile that `profile_expert_frequency` reports
//! for the tiny DeepSeek- and Mixtral-like models on a fixed corpus.
//!
//! The profile feeds the `Frequency-{r}` rank policy, so a change in how
//! routed rows are counted changes which experts get compensator rank.
//! A change that claims to keep the routing and the counting must pass
//! this test unedited.

use milo::moe::{profile_expert_frequency, MoeConfig, MoeModel};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Eight sequences: sequence `s` has `4 + 3s` tokens, token `i` is
/// `(11i + 5s + 2) % vocab`.
fn corpus(vocab: usize) -> Vec<Vec<u32>> {
    (0..8)
        .map(|s| {
            (0..4 + 3 * s)
                .map(|i| ((11 * i + 5 * s + 2) % vocab) as u32)
                .collect()
        })
        .collect()
}

/// FNV-1a over each layer's length (a dense layer's row is empty) and the
/// little-endian bytes of each frequency's bit pattern.
fn digest(cfg: &MoeConfig, seed: u64) -> u64 {
    let model = MoeModel::synthesize(cfg, seed);
    let profile = profile_expert_frequency(&model, &corpus(cfg.vocab)).unwrap();
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for layer in &profile.per_layer {
        eat(&(layer.len() as u64).to_le_bytes());
        for f in layer {
            eat(&f.to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn expert_frequency_profiles_are_pinned() {
    let got = [
        ("tiny_deepseek", digest(&MoeConfig::tiny_deepseek(), 19)),
        ("tiny_mixtral", digest(&MoeConfig::tiny_mixtral(), 23)),
    ];
    let want = [
        ("tiny_deepseek", 0x6892_af40_3a8e_023e),
        ("tiny_mixtral", 0xc8ba_d368_9848_3145),
    ];
    assert_eq!(got, want, "expert frequency profile changed");
}
