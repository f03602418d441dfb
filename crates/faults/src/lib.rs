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
//!   faults that panic a chosen expert mid-dispatch or replace its
//!   output with NaN, exercising the non-finite guard at the expert
//!   boundary and the strict and degrade recovery paths.
//! * **Latency faults** ([`slow_expert`]) — experts that sleep before
//!   computing, exercising deadlines and load shedding in `milo-serve`.
//! * **Fault arming** ([`FaultInjector`]) — a copy of a model whose
//!   experts read one shared armed set, served as a [`ForwardModel`], so
//!   a drill flips faults on and off while the server keeps serving. A
//!   fault lives on the expert, not in a request: it fires when the
//!   expert runs, whatever context the request carries.
//! * **Chaos soak** ([`soak`]) — thousands of seeded requests through a
//!   real packed-engine server under kill/poison/slow faults and burst
//!   arrivals, asserting the serving invariants end to end.

#![warn(missing_docs)]

pub mod soak;

pub use soak::{run_soak, SoakConfig, SoakReport};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use milo_moe::{FfnBlock, Linear, MoeModel, ResilienceContext};
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

/// What goes wrong in a faulty expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Panics before its `w1` runs.
    Kill,
    /// Writes NaN into row 0 of its `w2` output, the expert's output.
    Poison,
    /// Sleeps before its `w1` runs; the output itself is correct.
    Slow(Duration),
}

/// A fault on expert `expert` (ledger index: routed experts `e`, shared
/// experts `n_experts + s`) of layer `layer`, armed through
/// [`FaultInjector::arm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertFault {
    layer: usize,
    expert: usize,
    kind: Kind,
}

/// A fault that panics expert `expert` of layer `layer` mid-dispatch.
pub fn kill_expert(layer: usize, expert: usize) -> ExpertFault {
    ExpertFault { layer, expert, kind: Kind::Kill }
}

/// A fault that poisons the output of expert `expert` of layer `layer`
/// with NaN.
pub fn poison_expert(layer: usize, expert: usize) -> ExpertFault {
    ExpertFault { layer, expert, kind: Kind::Poison }
}

/// A latency fault: expert `expert` of layer `layer` sleeps `millis`
/// before computing, as a stalled expert would. The sleep runs to the
/// end; a request past its deadline unwinds at the next layer boundary.
pub fn slow_expert(layer: usize, expert: usize, millis: u64) -> ExpertFault {
    ExpertFault { layer, expert, kind: Kind::Slow(Duration::from_millis(millis)) }
}

/// The fault set every [`Faulty`] projection of one injector reads.
type Armed = Arc<Mutex<Vec<ExpertFault>>>;

/// Which projection of which expert a [`Faulty`] wraps.
#[derive(Clone, Copy)]
struct Site {
    layer: usize,
    expert: usize,
    /// `true` for the expert's `w1` (the first projection it runs),
    /// `false` for its `w2` (the one whose output is the expert's).
    w1: bool,
}

/// A projection that fires the armed faults of its expert around its
/// weight. Projections outside an expert's `w1`/`w2` have no site and
/// only apply their weight.
struct Faulty<P> {
    weight: P,
    site: Option<Site>,
    armed: Armed,
}

impl<P: Linear> Linear for Faulty<P> {
    const METRIC_PREFIX: &'static str = P::METRIC_PREFIX;

    fn forward(&self, x: &Matrix) -> milo_moe::Result<Matrix> {
        let Some(Site { layer, expert, w1 }) = self.site else {
            return self.weight.forward(x);
        };
        let kind = (self.armed.lock().expect("fault set lock").iter())
            .find(|f| (f.layer, f.expert) == (layer, expert))
            .map(|f| f.kind);
        match (kind, w1) {
            (Some(Kind::Kill), true) => {
                panic!("injected fault: expert {expert} of layer {layer} killed mid-dispatch")
            }
            (Some(Kind::Slow(delay)), true) => std::thread::sleep(delay),
            _ => {}
        }
        let mut y = self.weight.forward(x)?;
        if (kind, w1) == (Some(Kind::Poison), false) {
            y.row_mut(0).fill(f32::NAN);
        }
        Ok(y)
    }
}

/// A copy of a served model whose every expert can be made to fail:
/// [`FaultInjector::arm`] sets the faults all its experts read, and the
/// injector serves the copy as a [`ForwardModel`]. A fault fires when its
/// expert runs, for every request that reaches the expert, whatever
/// mode or deadline that request carries. With nothing armed the copy's
/// logits are bit-identical to the model's.
pub struct FaultInjector<P> {
    model: MoeModel<Faulty<P>>,
    armed: Armed,
}

impl<P: Clone> FaultInjector<P> {
    /// Copies `model` with no fault armed. Experts are found by pointer
    /// identity in `model.layers`, so each keeps its ledger index.
    pub fn new(model: &MoeModel<P>) -> Self {
        let mut sites = HashMap::new();
        for (layer, l) in model.layers.iter().enumerate() {
            let FfnBlock::Moe(moe) = &l.ffn else { continue };
            for (expert, mlp) in moe.experts.iter().chain(&moe.shared).enumerate() {
                sites.insert(&mlp.w1 as *const P, Site { layer, expert, w1: true });
                sites.insert(&mlp.w2 as *const P, Site { layer, expert, w1: false });
            }
        }
        let armed = Armed::default();
        let Ok(model) = model.try_map(|_, _, weight| {
            Ok::<_, std::convert::Infallible>(Faulty {
                weight: weight.clone(),
                site: sites.get(&(weight as *const P)).copied(),
                armed: Arc::clone(&armed),
            })
        });
        FaultInjector { model, armed }
    }
}

impl<P> FaultInjector<P> {
    /// Replaces the armed fault set; experts that run from now on read
    /// the new set.
    pub fn arm(&self, faults: Vec<ExpertFault>) {
        *self.armed.lock().expect("fault set lock") = faults;
    }

    /// Disarms every fault.
    pub fn disarm(&self) {
        self.arm(Vec::new());
    }
}

impl<P: Linear + Send> ForwardModel for FaultInjector<P> {
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix> {
        self.model.forward_resilient(tokens, ctx)
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
    fn faults_fire_on_the_expert_they_name() {
        // tiny_deepseek: layer 0 is dense, layer 1 routes and has one
        // shared expert, which runs for every token, at ledger index
        // n_experts.
        let cfg = milo_moe::MoeConfig::tiny_deepseek();
        let model = MoeModel::synthesize(&cfg, 17);
        let faulty = FaultInjector::new(&model);
        let seq = [3u32, 8];
        let shared = cfg.n_experts;
        for fault in [poison_expert(1, shared), kill_expert(1, shared)] {
            faulty.arm(vec![fault]);
            let ctx = ResilienceContext::degrade();
            let logits = faulty.forward(&seq, &ctx).unwrap();
            assert!(logits.as_slice().iter().all(|v| v.is_finite()));
            assert_eq!(ctx.health.failures().len(), 1, "{fault:?}");
            assert!(ctx.health.is_failed(fault.layer, fault.expert), "{fault:?}");
        }
        faulty.disarm();
        let ctx = ResilienceContext::strict();
        assert_eq!(faulty.forward(&seq, &ctx).unwrap(), model.forward(&seq).unwrap());
    }

    #[test]
    fn expert_fault_constructors() {
        assert_eq!(kill_expert(1, 2).kind, Kind::Kill);
        assert_eq!(poison_expert(3, 4).kind, Kind::Poison);
        assert_eq!(slow_expert(0, 1, 5).kind, Kind::Slow(Duration::from_millis(5)));
        assert_eq!(kill_expert(1, 2).layer, 1);
        assert_eq!(poison_expert(3, 4).expert, 4);
    }
}
