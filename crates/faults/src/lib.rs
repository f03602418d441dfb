//! Deterministic fault injection for the MiLo serving core.
//!
//! Robustness claims are only as good as the faults they were tested
//! against. This crate provides a *seeded* harness — every fault is a
//! pure function of a PRNG seed (by default [`fault_seed`], overridable
//! with the `MILO_FAULT_SEED` environment variable) — so a corruption
//! that slips past a guard reproduces exactly from its seed:
//!
//! * **Byte corruption** of serialized artifact streams
//!   ([`corrupt_samples`]) — the checksummed `MILO`/`MOEM` readers must
//!   reject every one. The corruption suites pair it with truncation
//!   sweeps over every strict prefix: readers must fail with a typed
//!   error at every possible cut, never panic or hang.
//! * **Expert kills and poison** ([`kill_expert`], [`poison_expert`]) —
//!   injected faults for [`milo_moe::ResilienceContext`] that panic a
//!   chosen expert mid-dispatch or replace its output with NaN,
//!   exercising the non-finite guard at the expert boundary and the
//!   strict and degrade recovery paths.
//! * **Latency faults** ([`slow_expert`]) — experts that sleep before
//!   computing, exercising deadlines, cooperative cancellation and load
//!   shedding in `milo-serve`.
//! * **Fault arming** ([`FaultInjector`]) — a [`ForwardModel`] in front
//!   of a served model that adds the currently armed expert faults to
//!   every forward call, so a drill flips faults on and off while the
//!   server keeps serving.
//! * **Chaos soak** ([`soak`]) — thousands of seeded requests through a
//!   real packed-engine server under kill/poison/slow faults and burst
//!   arrivals, asserting the serving invariants end to end.

#![warn(missing_docs)]

pub mod soak;

pub use soak::{run_soak, SoakConfig, SoakReport};

use std::sync::{Arc, Mutex};

use milo_moe::{FaultKind, InjectedFault, ResilienceContext};
use milo_serve::ForwardModel;
use milo_tensor::prng::{Rng, SeedableRng};
use milo_tensor::rng::StdRng;
use milo_tensor::Matrix;

/// Default seed: `b"MiLoFALT"` as little-endian bytes.
pub const DEFAULT_FAULT_SEED: u64 = 0x544c_4146_6f4c_694d;

/// The fault-injection seed: `MILO_FAULT_SEED` from the environment (any
/// `u64`, decimal or `0x`-prefixed hex), falling back to
/// [`DEFAULT_FAULT_SEED`]. Invalid values fall back rather than error so
/// a typo cannot silently disable a fault test.
pub fn fault_seed() -> u64 {
    match std::env::var("MILO_FAULT_SEED") {
        Ok(s) => parse_seed(&s).unwrap_or(DEFAULT_FAULT_SEED),
        Err(_) => DEFAULT_FAULT_SEED,
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// A PRNG seeded from [`fault_seed`].
pub fn fault_rng() -> StdRng {
    StdRng::seed_from_u64(fault_seed())
}

/// Draws `n` deterministic single-byte corruptions for a buffer of
/// `len` bytes: `(offset, xor mask)` pairs with non-zero masks, so each
/// application is guaranteed to change the buffer.
pub fn corrupt_samples(len: usize, n: usize, rng: &mut StdRng) -> Vec<(usize, u8)> {
    assert!(len > 0, "cannot corrupt an empty buffer");
    (0..n)
        .map(|_| {
            let offset = (rng.gen::<u64>() % len as u64) as usize;
            let mask = (rng.gen::<u64>() % 255) as u8 + 1;
            (offset, mask)
        })
        .collect()
}

/// An injected fault that panics expert `expert` of layer `layer`
/// mid-dispatch.
pub fn kill_expert(layer: usize, expert: usize) -> InjectedFault {
    InjectedFault { layer, expert, kind: FaultKind::Panic }
}

/// An injected fault that poisons the output of expert `expert` of
/// layer `layer` with NaN.
pub fn poison_expert(layer: usize, expert: usize) -> InjectedFault {
    InjectedFault { layer, expert, kind: FaultKind::NanOutput }
}

/// An injected *latency* fault: expert `expert` of layer `layer` sleeps
/// `millis` before computing. The sleep is cooperative
/// ([`milo_moe::ResilienceContext::sleep_interruptible`]), so a cancelled
/// request escapes it within ~1 ms.
pub fn slow_expert(layer: usize, expert: usize, millis: u64) -> InjectedFault {
    InjectedFault { layer, expert, kind: FaultKind::Slow { millis } }
}

/// A [`ForwardModel`] in front of `M` that adds the currently armed
/// faults to each call's [`ResilienceContext`]. The server hands every
/// attempt a fresh context with no injected faults; whatever is armed
/// when an attempt starts fires for that attempt.
pub struct FaultInjector<M> {
    inner: M,
    armed: Mutex<Vec<InjectedFault>>,
}

impl<M> FaultInjector<M> {
    /// Wraps `inner` with no fault armed.
    pub fn new(inner: M) -> Self {
        FaultInjector { inner, armed: Mutex::new(Vec::new()) }
    }

    /// Replaces the armed fault set for subsequent calls.
    pub fn arm(&self, faults: Vec<InjectedFault>) {
        *self.armed.lock().expect("fault set lock") = faults;
    }

    /// Disarms every fault.
    pub fn disarm(&self) {
        self.arm(Vec::new());
    }
}

impl<M: ForwardModel> ForwardModel for FaultInjector<M> {
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix> {
        let armed = self.armed.lock().expect("fault set lock").clone();
        let ctx = ResilienceContext {
            mode: ctx.mode,
            health: Arc::clone(&ctx.health),
            injected: ctx.injected.iter().copied().chain(armed).collect(),
            cancel: ctx.cancel.clone(),
        };
        self.inner.forward(tokens, &ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed(" 0X10 "), Some(16));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn corrupt_samples_are_deterministic_and_nonzero() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let sa = corrupt_samples(100, 50, &mut a);
        let sb = corrupt_samples(100, 50, &mut b);
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&(off, mask)| off < 100 && mask != 0));
    }

    #[test]
    fn injector_adds_the_armed_faults_to_each_call() {
        let count = |_: &[u32], ctx: &ResilienceContext| {
            Ok(Matrix::filled(1, 1, ctx.injected.len() as f32))
        };
        let model = FaultInjector::new(count);
        let ctx = ResilienceContext::degrade().with_fault(kill_expert(0, 0));
        let injected = |m: &FaultInjector<_>| m.forward(&[1], &ctx).unwrap().as_slice()[0];
        assert_eq!(injected(&model), 1.0, "nothing armed: the caller's faults only");
        model.arm(vec![poison_expert(1, 2), slow_expert(1, 3, 5)]);
        assert_eq!(injected(&model), 3.0);
        model.disarm();
        assert_eq!(injected(&model), 1.0);
    }

    #[test]
    fn expert_fault_constructors() {
        assert_eq!(kill_expert(1, 2).kind, FaultKind::Panic);
        assert_eq!(poison_expert(3, 4).kind, FaultKind::NanOutput);
        assert_eq!(kill_expert(1, 2).layer, 1);
        assert_eq!(poison_expert(3, 4).expert, 4);
    }
}
