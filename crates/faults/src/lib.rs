//! Deterministic fault injection for the MiLo serving core.
//!
//! Robustness claims are only as good as the faults they were tested
//! against. This crate provides a *seeded* harness — every fault is a
//! pure function of a PRNG seed (by default [`fault_seed`], overridable
//! with the `MILO_FAULT_SEED` environment variable) — so a corruption
//! that slips past a guard reproduces exactly from its seed:
//!
//! * **Bit and byte corruption** of serialized artifact streams
//!   ([`flip_bit`], [`corrupt_samples`]) — the checksummed `MILO`/`MOEM`
//!   readers must reject every one.
//! * **Truncation sweeps** ([`truncation_points`]) — readers must fail
//!   with a typed error at every possible cut, never panic or hang.
//! * **Quantized-code bit flips** ([`flip_code_bit`]) — corruption in
//!   the INT3 code planes, revalidated through
//!   [`QuantizedMatrix::from_parts`] so an out-of-range code is caught
//!   at construction.
//! * **Compensator / weight factor bit flips** ([`flip_float_bit`]) and
//!   **NaN / Inf injection** ([`inject_nan`], [`inject_inf`]) into
//!   activation or factor matrices — the non-finite guards at expert
//!   boundaries must catch the poison.
//! * **Expert kills** ([`kill_expert`], [`poison_expert`]) — injected
//!   faults for [`milo_moe::ResilienceContext`] that panic a chosen
//!   expert mid-dispatch or poison its output, exercising strict and
//!   degrade recovery paths.
//! * **Latency faults** ([`slow_expert`], [`stall_expert`]) — experts
//!   that sleep before computing, from "slow" to "stalled past any
//!   deadline", exercising deadlines, cooperative cancellation, and load
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
use milo_quant::qtensor::QuantizedMatrix;
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

/// Flips one bit of a byte buffer (bit index counts from the LSB of
/// byte 0). Indices wrap, so any `u64` drawn from a PRNG is valid.
pub fn flip_bit(bytes: &mut [u8], bit: u64) {
    assert!(!bytes.is_empty(), "cannot flip a bit of an empty buffer");
    let bit = bit % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
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

/// All truncation lengths for a buffer of `len` bytes: every strict
/// prefix, `0..len`. (The full buffer is not a truncation.)
pub fn truncation_points(len: usize) -> std::ops::Range<usize> {
    0..len
}

/// Flips bit `bit % 8` of code `idx % codes.len()` in a quantized
/// matrix, re-assembling through [`QuantizedMatrix::from_parts`] so the
/// result is either a *valid* matrix with one silently-corrupted weight
/// (low bits) or a typed [`milo_quant::QuantError`] (a flip that pushes
/// the code past the quantizer's max — caught at construction, exactly
/// as a reader would).
///
/// # Errors
///
/// Propagates the construction error for out-of-range codes.
pub fn flip_code_bit(
    q: &QuantizedMatrix,
    idx: usize,
    bit: u8,
) -> milo_quant::Result<QuantizedMatrix> {
    let mut codes = q.codes().to_vec();
    let i = idx % codes.len();
    codes[i] ^= 1 << (bit % 8);
    QuantizedMatrix::from_parts(
        q.config().clone(),
        q.rows(),
        q.cols(),
        codes,
        q.scales().to_vec(),
        q.zeros().to_vec(),
    )
}

/// Flips one bit of element `idx % len` of a matrix (IEEE 754 bit
/// pattern, `bit % 32`), modelling a memory fault in a compensator
/// factor or weight. Flips in the exponent routinely produce Inf/NaN —
/// which is the point.
pub fn flip_float_bit(m: &mut Matrix, idx: usize, bit: u8) {
    let data = m.as_mut_slice();
    let i = idx % data.len();
    data[i] = f32::from_bits(data[i].to_bits() ^ (1 << (bit % 32)));
}

/// Overwrites a seeded element of a matrix with NaN, returning the flat
/// index poisoned.
pub fn inject_nan(m: &mut Matrix, rng: &mut StdRng) -> usize {
    let data = m.as_mut_slice();
    let i = (rng.gen::<u64>() % data.len() as u64) as usize;
    data[i] = f32::NAN;
    i
}

/// Overwrites a seeded element of a matrix with ±Inf, returning the
/// flat index poisoned.
pub fn inject_inf(m: &mut Matrix, rng: &mut StdRng) -> usize {
    let data = m.as_mut_slice();
    let i = (rng.gen::<u64>() % data.len() as u64) as usize;
    data[i] = if rng.gen::<u64>() & 1 == 0 { f32::INFINITY } else { f32::NEG_INFINITY };
    i
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

/// A latency fault long enough to stall any worker past a typical
/// request deadline — the "stalled worker" chaos scenario. The request
/// must unwind at its deadline and the watchdog must shed queued load;
/// nothing may hang.
pub fn stall_expert(layer: usize, expert: usize) -> InjectedFault {
    slow_expert(layer, expert, 60_000)
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
    use milo_quant::{hqq_quantize, HqqOptions, QuantConfig};

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
    fn flip_bit_round_trips() {
        let mut buf = vec![0u8; 16];
        flip_bit(&mut buf, 13);
        assert_eq!(buf[1], 1 << 5);
        flip_bit(&mut buf, 13);
        assert!(buf.iter().all(|&b| b == 0));
        // Out-of-range indices wrap instead of panicking.
        flip_bit(&mut buf, u64::MAX);
    }

    #[test]
    fn code_bit_flips_change_weights_or_are_rejected() {
        let w = Matrix::from_fn(8, 64, |r, c| ((r * 64 + c) as f32).sin());
        let q = hqq_quantize(&w, &QuantConfig::int3_asym(), &HqqOptions::default()).unwrap();
        let mut changed = 0;
        let mut rejected = 0;
        for idx in 0..32 {
            match flip_code_bit(&q, idx * 17, (idx % 8) as u8) {
                Ok(corrupt) => {
                    assert_ne!(corrupt.codes(), q.codes());
                    changed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        // Low-bit flips stay in range; high-bit flips must be rejected.
        assert!(changed > 0, "no in-range flips");
        assert!(rejected > 0, "no out-of-range flip was rejected");
    }

    #[test]
    fn float_bit_flips_and_nan_injection_poison_matrices() {
        let mut m = Matrix::filled(4, 4, 1.0);
        flip_float_bit(&mut m, 5, 30); // exponent bit of 1.0f32
        assert!(m.as_slice().iter().any(|v| *v != 1.0));

        let mut m = Matrix::filled(4, 4, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let i = inject_nan(&mut m, &mut rng);
        assert!(m.as_slice()[i].is_nan());
        let j = inject_inf(&mut m, &mut rng);
        assert!(m.as_slice()[j].is_infinite());
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
