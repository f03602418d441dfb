//! End-to-end fault-injection drills for the serving core: the three
//! recovery paths the robustness work guarantees, exercised through the
//! public crate APIs exactly as a serving harness would.
//!
//! 1. **Corrupt artifact → typed rejection.** Every single-byte
//!    corruption and every truncation of a checksummed artifact is
//!    rejected with a typed error naming the damaged section.
//! 2. **Poisoned expert → graceful degradation.** A NaN-producing
//!    expert is quarantined and the router's top-k mass renormalizes
//!    over the survivors; strict mode returns `ExpertFailed` instead.
//! 3. **Panicking expert → contained failure.** A worker panic during
//!    expert dispatch becomes an `ExpertFailed` error (strict) or a
//!    quarantine entry (degrade); the thread pool and the process stay
//!    usable either way.
//!
//! Expert faults are armed on a `FaultInjector`, a copy of the model
//! whose experts fail when they run; the requests' contexts carry only
//! their mode.

use milo_core::{compress_model, MiloOptions, RankPolicy};
use milo_engine::PackedMoeModel;
use milo_faults::{corrupt_samples, fault_rng, kill_expert, poison_expert, FaultInjector};
use milo_moe::{
    layer_tensors, profile_expert_frequency, MoeConfig, MoeError, MoeModel, ResilienceContext,
};
use milo_quant::HqqOptions;
use milo_serve::ForwardModel;
use std::io::Cursor;

fn toy_model() -> MoeModel {
    let cfg = MoeConfig {
        name: "fault-drill".into(),
        n_layers: 2,
        d_model: 32,
        n_heads: 2,
        vocab: 32,
        n_experts: 4,
        top_k: 2,
        expert_ffn: 32,
        n_shared_experts: 0,
        shared_ffn: 0,
        first_layer_dense: false,
        router_imbalance: 0.3,
        attn_dof: 6.0,
        expert_channel_spread: 0.0,
        head_gain: 1.0,
    };
    MoeModel::synthesize(&cfg, 77)
}

/// The expert of `layer` that receives the most tokens for `seq`, so a
/// fault there is guaranteed to fire.
fn busiest_expert(model: &MoeModel, seq: &[u32], layer: usize) -> usize {
    let profile = profile_expert_frequency(model, &[seq.to_vec()]).unwrap();
    let freqs = &profile.per_layer[layer];
    (0..freqs.len()).max_by(|&a, &b| freqs[a].total_cmp(&freqs[b])).unwrap()
}

// ---------------------------------------------------------------------
// Recovery path 1: corrupt artifact → typed rejection.
// ---------------------------------------------------------------------

#[test]
fn corrupted_compressed_artifact_is_rejected_with_the_offending_layer() {
    let model = toy_model();
    let tensors = layer_tensors(&model, None);
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 2, ..HqqOptions::default() },
        ..MiloOptions::default()
    };
    let compressed = compress_model(&tensors, &RankPolicy::uniform(2), &opts, 2).unwrap();
    let mut buf = Vec::new();
    milo_core::serialize::write_compressed_model(&mut buf, &compressed).unwrap();

    // Seeded single-byte corruption sweep: every flip is rejected.
    for (off, mask) in corrupt_samples(buf.len(), 48, &mut fault_rng()) {
        let mut bad = buf.clone();
        bad[off] ^= mask;
        let err = milo_core::serialize::read_compressed_model(&mut Cursor::new(&bad[..]))
            .expect_err("corruption must be detected");
        // Payload corruption carries the typed section error naming the
        // damaged layer; header/framing corruption fails structurally.
        if let Some(info) = milo_tensor::io::corrupt_section_info(&err) {
            assert!(!info.section.is_empty());
        }
    }

    // Exhaustive truncation sweep: every cut errors, none panic.
    for cut in 0..buf.len() {
        assert!(
            milo_core::serialize::read_compressed_model(&mut Cursor::new(&buf[..cut])).is_err(),
            "truncation at {cut} parsed"
        );
    }

    // The intact stream still round-trips after all that.
    let back = milo_core::serialize::read_compressed_model(&mut Cursor::new(&buf[..])).unwrap();
    assert_eq!(back.layers.len(), compressed.layers.len());
}

// ---------------------------------------------------------------------
// Recovery path 2: poisoned expert → graceful degradation.
// ---------------------------------------------------------------------

#[test]
fn nan_poisoned_expert_degrades_and_strict_mode_errors() {
    let model = toy_model();
    let seq: Vec<u32> = (0..10).collect();
    let target = busiest_expert(&model, &seq, 0);
    let faulty = FaultInjector::new(&model);
    faulty.arm(vec![poison_expert(0, target)]);

    // Degrade: output finite, expert quarantined with a reason.
    let ctx = ResilienceContext::degrade();
    let logits = faulty.forward(&seq, &ctx).unwrap();
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    assert!(ctx.health.is_failed(0, target));

    // Strict: typed error naming layer and expert.
    match faulty.forward(&seq, &ResilienceContext::strict()) {
        Err(MoeError::ExpertFailed { layer: 0, expert, reason }) => {
            assert_eq!(expert, target);
            assert!(reason.contains("non-finite"), "reason = {reason}");
        }
        other => panic!("expected ExpertFailed, got {other:?}"),
    }
}

#[test]
fn packed_engine_survives_poisoned_and_killed_experts() {
    let mut cfg = MoeConfig::tiny_mixtral();
    cfg.d_model = 128;
    cfg.expert_ffn = 256;
    cfg.n_layers = 2;
    let reference = MoeModel::synthesize(&cfg, 78);
    let tensors = layer_tensors(&reference, None);
    let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
    let compressed = compress_model(&tensors, &RankPolicy::uniform(2), &opts, 2).unwrap();
    let engine = PackedMoeModel::build(&reference, &compressed).unwrap();

    let seq = [1u32, 9, 17, 33];
    let target = busiest_expert(&reference, &seq, 1);
    let faulty = FaultInjector::new(&engine);

    for fault in [poison_expert(1, target), kill_expert(1, target)] {
        faulty.arm(vec![fault]);
        let ctx = ResilienceContext::degrade();
        let logits = faulty.forward(&seq, &ctx).unwrap();
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        assert!(ctx.health.is_failed(1, target));

        assert!(matches!(
            faulty.forward(&seq, &ResilienceContext::strict()),
            Err(MoeError::ExpertFailed { layer: 1, .. })
        ));
    }
    // Normal serving continues after both drills.
    assert!(MoeModel::forward(&engine, &seq).is_ok());
}

// ---------------------------------------------------------------------
// Recovery path 3: panicking expert → contained failure, pool usable.
// ---------------------------------------------------------------------

#[test]
fn killed_expert_is_contained_and_the_pool_stays_usable() {
    let model = toy_model();
    let seq: Vec<u32> = (0..8).collect();
    let target = busiest_expert(&model, &seq, 1);
    let faulty = FaultInjector::new(&model);
    faulty.arm(vec![kill_expert(1, target)]);

    let ctx = ResilienceContext::degrade();
    let logits = faulty.forward(&seq, &ctx).unwrap();
    assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    let failures = ctx.health.failures();
    assert_eq!(failures.len(), 1);
    assert!(failures[0].1.contains("injected fault"), "reason = {}", failures[0].1);

    // The same model, pool, and process serve healthy traffic after the
    // panic was captured — repeatedly, across thread counts.
    for threads in [1, 2, 4] {
        let out = milo_tensor::pool::with_threads(threads, || model.forward(&seq).unwrap());
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn unarmed_injector_is_bit_identical_to_the_bare_model() {
    // The tileable Mixtral of `tests/logit_digests.rs`: every projection
    // runs the fused INT3 kernel, behind a fault wrapper on each expert.
    let cfg = MoeConfig {
        d_model: 128,
        expert_ffn: 256,
        n_layers: 2,
        n_heads: 2,
        ..MoeConfig::tiny_mixtral()
    };
    let reference = MoeModel::synthesize(&cfg, 31);
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
        ..MiloOptions::default()
    };
    let tensors = layer_tensors(&reference, None);
    let compressed = compress_model(&tensors, &RankPolicy::uniform(4), &opts, 2).unwrap();
    let packed = PackedMoeModel::build(&reference, &compressed).unwrap();
    assert_eq!(packed.packed_fraction(), 1.0);
    let faulty = FaultInjector::new(&packed);
    let bits = |m: &milo_tensor::Matrix| -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    for p in 0..6 {
        let prompt: Vec<u32> =
            (0..3 + 2 * p).map(|i| ((7 * i + 13 * p + 1) % cfg.vocab) as u32).collect();
        for ctx in [ResilienceContext::strict(), ResilienceContext::degrade()] {
            let bare = packed.forward_resilient(&prompt, &ctx).unwrap();
            let wrapped = faulty.forward(&prompt, &ctx).unwrap();
            assert_eq!(bits(&wrapped), bits(&bare), "prompt {p}, {:?}", ctx.mode);
        }
    }
}

#[test]
fn fault_seed_env_override_is_honored() {
    // Not a parallel-safe env mutation: set once, read, restore.
    let prev = std::env::var("MILO_FAULT_SEED").ok();
    std::env::set_var("MILO_FAULT_SEED", "0xabc");
    let seed = milo_faults::fault_seed();
    match prev {
        Some(v) => std::env::set_var("MILO_FAULT_SEED", v),
        None => std::env::remove_var("MILO_FAULT_SEED"),
    }
    assert_eq!(seed, 0xabc);
}
