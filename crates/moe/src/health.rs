//! Expert health tracking and fault-handling policy for resilient
//! serving.
//!
//! A production MoE server keeps answering queries when a single expert
//! produces garbage (bit-flipped weights, NaN activations) or its worker
//! panics. This module provides the bookkeeping for that: a
//! [`FaultMode`] policy choosing between failing fast and degrading
//! gracefully, a [`HealthTracker`] that is a per-expert **circuit
//! breaker** (closed → open → half-open, with probe-based recovery), and
//! the [`ResilienceContext`] a request hands the forward path: its mode,
//! the shared breakers and its deadline. Nothing here knows how an
//! expert comes to fail; the fault-injection harness (`milo-faults`)
//! wraps the experts of a model copy, so its faults fire when the expert
//! runs, for every request that reaches it.
//!
//! # Circuit-breaker state machine
//!
//! ```text
//!            failure (record)
//!   Closed ──────────────────────▶ Open ◀───────────────┐
//!      ▲                            │                   │
//!      │                            │ cooldown ticks    │ probe fails
//!      │ probe succeeds             │ elapse (tick)     │ (record;
//!      │ (probe_succeeded)          ▼                   │  cooldown ×2)
//!      └───────────────────── Half-open ────────────────┘
//! ```
//!
//! * **Closed** — healthy; the expert is dispatched normally.
//! * **Open** — quarantined; the expert is skipped, its gate mass is
//!   renormalized over survivors. Each [`HealthTracker::tick`] (one per
//!   served request) decrements the cooldown.
//! * **Half-open** — the cooldown elapsed; the *next* request that
//!   routes to the expert dispatches it as a probe. Success closes the
//!   breaker ([`HealthTracker::probe_succeeded`]); another failure
//!   re-opens it with the cooldown doubled (capped).
//!
//! A tracker built with [`HealthTracker::new`] has **no cooldown**
//! (sticky quarantine, the pre-breaker behaviour); serving layers opt
//! into recovery with [`HealthTracker::with_cooldown`].

use milo_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the forward pass does when an expert fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail the whole request with a typed
    /// [`MoeError::ExpertFailed`](crate::MoeError::ExpertFailed).
    Strict,
    /// Quarantine the expert, renormalize the router's top-k mass over
    /// the survivors, and keep serving.
    Degrade,
}

/// Internal ledger entry for a non-closed breaker.
#[derive(Debug)]
struct BreakerEntry {
    /// `true` while half-open (probing); `false` while open.
    half_open: bool,
    /// First recorded failure reason (sticky across re-records).
    reason: String,
    /// Number of times the breaker has tripped (first failure plus every
    /// failed probe); scales the cooldown.
    trips: u32,
    /// Remaining [`HealthTracker::tick`] calls before open → half-open.
    cooldown_left: u64,
}

/// Per-expert circuit breakers keyed by `(layer, expert)`.
///
/// Shared by the dispatch workers (reads) and the supervising threads
/// (writes), hence the internal mutex; an atomic entry count gives the
/// hot healthy path a lock-free fast exit.
///
/// Telemetry: a *new* quarantine ticks `moe.quarantine.total` and emits
/// a structured `moe.quarantine` instant event; breaker transitions tick
/// `moe.breaker.half_open.total` / `moe.breaker.recovered.total` /
/// `moe.breaker.reopened.total` and emit `moe.breaker` instant events
/// carrying the layer, expert, and new state.
#[derive(Debug, Default)]
pub struct HealthTracker {
    entries: Mutex<BTreeMap<(usize, usize), BreakerEntry>>,
    /// Lock-free mirror of `entries.len()` so `probe_succeeded` and
    /// `tick` are a single relaxed load on the healthy path.
    n_entries: AtomicUsize,
    /// Base cooldown in ticks; 0 = sticky quarantine (never half-open).
    cooldown: u64,
    /// Cumulative transition counts, independent of telemetry level, so
    /// soak drivers can assert a full quarantine → half-open → recovered
    /// cycle without sampling the (transient) states.
    trips_total: AtomicUsize,
    half_open_total: AtomicUsize,
    recovered_total: AtomicUsize,
}

/// Emits a breaker state-transition instant event (trace level only).
fn breaker_event(layer: usize, expert: usize, state: &str) {
    milo_obs::trace::push_instant(
        "moe.breaker",
        &[
            ("layer", JsonValue::Number(layer as f64)),
            ("expert", JsonValue::Number(expert as f64)),
            ("state", JsonValue::String(state.to_string())),
        ],
    );
}

impl HealthTracker {
    /// Creates a tracker with every expert healthy and **sticky**
    /// quarantine (no recovery; the pre-breaker behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker whose breakers move open → half-open after
    /// `cooldown` ticks (one tick per served request in `milo-serve`).
    /// `cooldown = 0` means sticky quarantine.
    pub fn with_cooldown(cooldown: u64) -> Self {
        Self { cooldown, ..Self::default() }
    }

    /// Records an expert failure. The first recorded reason wins.
    ///
    /// * **Closed → Open**: a new quarantine; emits the quarantine
    ///   telemetry described on the type.
    /// * **Half-open → Open**: the recovery probe failed; the cooldown
    ///   restarts doubled (capped at 64× the base) and a `reopened`
    ///   transition is emitted.
    /// * **Open → Open**: sticky; re-records are not new quarantines.
    pub fn record(&self, layer: usize, expert: usize, reason: impl Into<String>) {
        let reason = reason.into();
        let mut map = self.entries.lock().expect("health tracker lock");
        match map.get_mut(&(layer, expert)) {
            Some(entry) if entry.half_open => {
                // Failed probe: re-open with escalated cooldown.
                entry.half_open = false;
                entry.trips = entry.trips.saturating_add(1);
                let scale = 1u64 << (entry.trips - 1).min(6);
                entry.cooldown_left = self.cooldown.saturating_mul(scale);
                drop(map);
                self.trips_total.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("moe.breaker.reopened.total");
                if milo_obs::tracing() {
                    breaker_event(layer, expert, "open");
                }
            }
            Some(_) => {} // sticky: already open
            None => {
                map.insert(
                    (layer, expert),
                    BreakerEntry {
                        half_open: false,
                        reason: reason.clone(),
                        trips: 1,
                        cooldown_left: self.cooldown,
                    },
                );
                self.n_entries.store(map.len(), Ordering::Relaxed);
                drop(map);
                self.trips_total.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("moe.quarantine.total");
                milo_obs::trace::push_instant(
                    "moe.quarantine",
                    &[
                        ("layer", JsonValue::Number(layer as f64)),
                        ("expert", JsonValue::Number(expert as f64)),
                        ("reason", JsonValue::String(reason)),
                    ],
                );
            }
        }
    }

    /// Whether the expert is quarantined (breaker **open**). A half-open
    /// expert reports healthy so the next forward pass dispatches it as
    /// its recovery probe.
    pub fn is_failed(&self, layer: usize, expert: usize) -> bool {
        if self.n_entries.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.entries
            .lock()
            .expect("health tracker lock")
            .get(&(layer, expert))
            .is_some_and(|e| !e.half_open)
    }

    /// Advances every open breaker by one cooldown tick; breakers whose
    /// cooldown elapses move to half-open (next dispatch probes). Called
    /// once per served request by the serving layer. No-op for sticky
    /// trackers (`cooldown == 0`) and when every expert is healthy.
    pub fn tick(&self) {
        if self.cooldown == 0 || self.n_entries.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut transitions: Vec<(usize, usize)> = Vec::new();
        {
            let mut map = self.entries.lock().expect("health tracker lock");
            for (&(layer, expert), entry) in map.iter_mut() {
                if entry.half_open {
                    continue;
                }
                entry.cooldown_left = entry.cooldown_left.saturating_sub(1);
                if entry.cooldown_left == 0 {
                    entry.half_open = true;
                    transitions.push((layer, expert));
                }
            }
        }
        for (layer, expert) in transitions {
            self.half_open_total.fetch_add(1, Ordering::Relaxed);
            milo_obs::counter_inc("moe.breaker.half_open.total");
            if milo_obs::tracing() {
                breaker_event(layer, expert, "half_open");
            }
        }
    }

    /// Reports a successful dispatch of `(layer, expert)`. Closes the
    /// breaker (returns `true`) if it was half-open — the recovery probe
    /// passed; no-op (returns `false`) otherwise. The forward paths call
    /// this for every expert that completes cleanly, which is what makes
    /// half-open probes self-resolving.
    pub fn probe_succeeded(&self, layer: usize, expert: usize) -> bool {
        if self.n_entries.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut map = self.entries.lock().expect("health tracker lock");
        let Some(entry) = map.get(&(layer, expert)) else { return false };
        if !entry.half_open {
            return false;
        }
        map.remove(&(layer, expert));
        self.n_entries.store(map.len(), Ordering::Relaxed);
        drop(map);
        self.recovered_total.fetch_add(1, Ordering::Relaxed);
        milo_obs::counter_inc("moe.breaker.recovered.total");
        if milo_obs::tracing() {
            breaker_event(layer, expert, "closed");
        }
        true
    }

    /// Cumulative breaker trips (first quarantines plus failed probes).
    pub fn trips_total(&self) -> usize {
        self.trips_total.load(Ordering::Relaxed)
    }

    /// Cumulative open → half-open transitions.
    pub fn half_open_total(&self) -> usize {
        self.half_open_total.load(Ordering::Relaxed)
    }

    /// Cumulative half-open → closed recoveries (successful probes).
    pub fn recovered_total(&self) -> usize {
        self.recovered_total.load(Ordering::Relaxed)
    }

    /// Number of non-closed experts (open or half-open).
    pub fn n_failed(&self) -> usize {
        self.n_entries.load(Ordering::Relaxed)
    }

    /// Snapshot of all non-closed experts in `(layer, expert)` order with
    /// their first failure reason.
    pub fn failures(&self) -> Vec<((usize, usize), String)> {
        self.entries
            .lock()
            .expect("health tracker lock")
            .iter()
            .map(|(&k, v)| (k, v.reason.clone()))
            .collect()
    }
}

/// What a request hands the resilient forward paths: how to react to a
/// failing expert, the quarantine ledger, and when to give up.
#[derive(Debug)]
pub struct ResilienceContext {
    /// Fail-fast or degrade.
    pub mode: FaultMode,
    /// Per-expert circuit-breaker ledger. Behind an [`Arc`] so a serving
    /// layer can share one tracker across many per-request contexts.
    pub health: Arc<HealthTracker>,
    /// The request's deadline, checked at every layer boundary
    /// (`None` = no deadline).
    pub deadline: Option<Instant>,
}

impl ResilienceContext {
    /// A context with the given policy, no quarantined experts, and no
    /// deadline.
    pub fn new(mode: FaultMode) -> Self {
        Self { mode, health: Arc::new(HealthTracker::new()), deadline: None }
    }

    /// Shorthand for a fail-fast context.
    pub fn strict() -> Self {
        Self::new(FaultMode::Strict)
    }

    /// Shorthand for a graceful-degradation context.
    pub fn degrade() -> Self {
        Self::new(FaultMode::Degrade)
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The breaker state of `(layer, expert)` as the tracker's public
    /// surface shows it.
    fn state(h: &HealthTracker, layer: usize, expert: usize) -> &'static str {
        if h.is_failed(layer, expert) {
            "open"
        } else if h.failures().iter().any(|(k, _)| *k == (layer, expert)) {
            "half-open"
        } else {
            "closed"
        }
    }

    #[test]
    fn tracker_is_sticky_and_first_reason_wins() {
        let h = HealthTracker::new();
        assert!(!h.is_failed(0, 3));
        h.record(0, 3, "nan output");
        h.record(0, 3, "second reason");
        assert!(h.is_failed(0, 3));
        assert_eq!(h.n_failed(), 1);
        assert_eq!(h.failures(), vec![((0, 3), "nan output".to_string())]);
        // Sticky tracker: ticks never open a probe window.
        for _ in 0..100 {
            h.tick();
        }
        assert_eq!(state(&h, 0, 3), "open");
        assert!(!h.probe_succeeded(0, 3));
    }

    #[test]
    fn tracker_is_shared_across_threads() {
        let h = HealthTracker::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let h = &h;
                s.spawn(move || h.record(0, i, format!("worker {i}")));
            }
        });
        assert_eq!(h.n_failed(), 4);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let h = HealthTracker::with_cooldown(3);
        assert_eq!(state(&h, 1, 2), "closed");
        h.record(1, 2, "panic");
        assert_eq!(state(&h, 1, 2), "open");
        assert!(h.is_failed(1, 2));
        h.tick();
        h.tick();
        assert_eq!(state(&h, 1, 2), "open", "cooldown not yet elapsed");
        h.tick();
        assert_eq!(state(&h, 1, 2), "half-open");
        // Half-open experts dispatch (probe), so they report healthy.
        assert!(!h.is_failed(1, 2));
        assert!(h.probe_succeeded(1, 2), "probe should close the breaker");
        assert_eq!(state(&h, 1, 2), "closed");
        assert_eq!(h.n_failed(), 0);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let h = HealthTracker::with_cooldown(2);
        h.record(0, 0, "first failure");
        h.tick();
        h.tick();
        assert_eq!(state(&h, 0, 0), "half-open");
        // Probe fails: breaker re-opens and now needs 2 * 2 = 4 ticks.
        h.record(0, 0, "probe failed");
        assert_eq!(state(&h, 0, 0), "open");
        for _ in 0..3 {
            h.tick();
            assert_eq!(state(&h, 0, 0), "open");
        }
        h.tick();
        assert_eq!(state(&h, 0, 0), "half-open");
        // The first reason is still the sticky one.
        assert_eq!(h.failures()[0].1, "first failure");
    }

    #[test]
    fn probe_succeeded_ignores_closed_and_open_experts() {
        let h = HealthTracker::with_cooldown(4);
        assert!(!h.probe_succeeded(0, 0), "closed expert is not a probe");
        h.record(0, 0, "x");
        assert!(!h.probe_succeeded(0, 0), "open expert is not probing yet");
        assert_eq!(state(&h, 0, 0), "open");
    }

    #[test]
    fn context_expires_at_its_deadline() {
        assert!(!ResilienceContext::degrade().expired(), "no deadline never expires");
        let past = Instant::now() - Duration::from_millis(1);
        let ctx = ResilienceContext { deadline: Some(past), ..ResilienceContext::strict() };
        assert!(ctx.expired());
        let future = Instant::now() + Duration::from_secs(60);
        let ctx = ResilienceContext { deadline: Some(future), ..ResilienceContext::strict() };
        assert!(!ctx.expired());
    }
}
