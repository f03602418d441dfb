//! Corruption fuzz-lite: seeded single-byte flips and exhaustive
//! truncation sweeps over both serialized artifact formats. The
//! checksummed readers must reject every corruption with a typed error —
//! a panic fails the test, an `Ok` means a corruption slipped through.

use milo_core::{compress_model, LayerKind, LayerMeta, LayerTensor, MiloOptions, RankPolicy};
use milo_faults::{corrupt_samples, fault_rng};
use milo_moe::{MoeConfig, MoeModel};
use milo_tensor::proptest::{self, Config, Strategy};
use milo_tensor::prng::Rng;
use milo_tensor::Matrix;
use std::io::Cursor;

/// A small compressed model whose MILO stream stays a few KiB so the
/// exhaustive truncation sweep is cheap.
fn small_milo_stream() -> Vec<u8> {
    let tensors: Vec<LayerTensor> = (0..3)
        .map(|i| {
            let rows = 16;
            let cols = 32;
            LayerTensor {
                name: format!("layer0.expert{i}.w1"),
                meta: LayerMeta {
                    kind: LayerKind::Expert { index: i },
                    rows,
                    cols,
                    kurtosis: 0.0,
                    frequency: 0.5,
                },
                weight: Matrix::from_fn(rows, cols, |r, c| {
                    ((r * cols + c + i) as f32).sin()
                }),
            }
        })
        .collect();
    let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
    let model = compress_model(&tensors, &RankPolicy::uniform(2), &opts, 1).unwrap();
    let mut buf = Vec::new();
    milo_core::serialize::write_compressed_model(&mut buf, &model).unwrap();
    buf
}

/// A small MOEM stream (one-layer toy architecture).
fn small_moem_stream() -> Vec<u8> {
    let cfg = MoeConfig {
        name: "fuzz-toy".into(),
        n_layers: 1,
        d_model: 16,
        n_heads: 2,
        vocab: 16,
        n_experts: 2,
        top_k: 1,
        expert_ffn: 16,
        n_shared_experts: 0,
        shared_ffn: 0,
        first_layer_dense: false,
        router_imbalance: 0.1,
        attn_dof: 6.0,
        expert_channel_spread: 0.0,
        head_gain: 1.0,
    };
    let model = MoeModel::synthesize(&cfg, 23);
    let mut buf = Vec::new();
    milo_moe::serialize::write_model(&mut buf, &model).unwrap();
    buf
}

/// Strategy drawing a `(relative offset, xor mask)` byte corruption;
/// shrinks toward offset 0 and mask 1.
struct ByteFlip {
    len: usize,
}

impl Strategy for ByteFlip {
    type Value = (usize, u8);

    fn generate(&self, rng: &mut milo_tensor::prng::Xoshiro256pp) -> Self::Value {
        let off = (rng.gen::<u64>() % self.len as u64) as usize;
        let mask = (rng.gen::<u64>() % 255) as u8 + 1;
        (off, mask)
    }

    fn shrink(&self, &(off, mask): &Self::Value) -> Vec<Self::Value> {
        let mut c = Vec::new();
        if off > 0 {
            c.push((off / 2, mask));
        }
        if mask > 1 {
            c.push((off, mask >> 1));
        }
        c
    }
}

#[test]
fn every_sampled_byte_flip_of_a_milo_stream_is_rejected() {
    let clean = small_milo_stream();
    // The clean stream parses.
    assert!(milo_core::serialize::read_compressed_model(&mut Cursor::new(&clean[..])).is_ok());
    let strategy = ByteFlip { len: clean.len() };
    proptest::check(&Config::with_cases(128), &strategy, |&(off, mask)| {
        let mut bad = clean.clone();
        bad[off] ^= mask;
        match milo_core::serialize::read_compressed_model(&mut Cursor::new(&bad[..])) {
            Err(_) => Ok(()),
            Ok(_) => Err(proptest::CaseFailure::fail(format!(
                "byte flip at {off} (mask {mask:#04x}) was not detected"
            ))),
        }
    });
}

#[test]
fn every_sampled_byte_flip_of_a_moem_stream_is_rejected() {
    let clean = small_moem_stream();
    assert!(milo_moe::serialize::read_model(&mut Cursor::new(&clean[..])).is_ok());
    let strategy = ByteFlip { len: clean.len() };
    proptest::check(&Config::with_cases(128), &strategy, |&(off, mask)| {
        let mut bad = clean.clone();
        bad[off] ^= mask;
        match milo_moe::serialize::read_model(&mut Cursor::new(&bad[..])) {
            Err(_) => Ok(()),
            Ok(_) => Err(proptest::CaseFailure::fail(format!(
                "byte flip at {off} (mask {mask:#04x}) was not detected"
            ))),
        }
    });
}

#[test]
fn every_truncation_of_a_milo_stream_errors_without_panicking() {
    let clean = small_milo_stream();
    for cut in 0..clean.len() {
        let res = milo_core::serialize::read_compressed_model(&mut Cursor::new(&clean[..cut]));
        assert!(res.is_err(), "truncation at {cut}/{} parsed", clean.len());
    }
}

#[test]
fn every_truncation_of_a_moem_stream_errors_without_panicking() {
    let clean = small_moem_stream();
    for cut in 0..clean.len() {
        let res = milo_moe::serialize::read_model(&mut Cursor::new(&clean[..cut]));
        assert!(res.is_err(), "truncation at {cut}/{} parsed", clean.len());
    }
}

#[test]
fn seeded_flip_sweep_is_reproducible_across_runs() {
    // The same seed must produce the same corruption schedule — this is
    // what makes an escaped fault reproducible from its seed alone.
    let clean = small_milo_stream();
    let a = corrupt_samples(clean.len(), 64, &mut fault_rng());
    let b = corrupt_samples(clean.len(), 64, &mut fault_rng());
    assert_eq!(a, b);
    for &(off, mask) in &a {
        let mut bad = clean.clone();
        bad[off] ^= mask;
        assert!(
            milo_core::serialize::read_compressed_model(&mut Cursor::new(&bad[..])).is_err(),
            "seeded flip at {off} (mask {mask:#04x}) was not detected"
        );
    }
}
