//! Chaos / soak driver for the serving layer.
//!
//! Runs thousands of seeded requests through a real
//! [`milo_serve::Server`] serving the packed engine behind a
//! [`FaultInjector`], in three phases:
//!
//! 1. **Warm-up** (first 20%) — fault-free burst arrivals; establishes
//!    the healthy baseline.
//! 2. **Fault window** (to 50%) — the injector arms three faults on
//!    layer 1: an expert is killed (panics mid-dispatch), another
//!    poisoned (NaN output), a third slowed
//!    ([`FaultKind::Slow`]); a seeded fraction of requests runs strict
//!    (exercising retries) and a seeded slice carries deadlines shorter
//!    than the slow fault (exercising cancellation and shedding), while
//!    oversized bursts exercise admission control.
//! 3. **Recovery** (rest) — faults disarmed; circuit breakers must walk
//!    open → half-open → closed and re-admit the quarantined experts.
//!
//! [`run_soak`] asserts the serving invariants and returns an `Err`
//! naming the first violation:
//!
//! * no panic escapes a worker (the process survives; contained worker
//!   panics are counted and must be zero with a real model);
//! * every admitted request terminates with a response or a typed error
//!   within `deadline + ε`;
//! * queue depth never exceeds the configured capacity;
//! * at least one expert completes a quarantined → half-open → recovered
//!   cycle, and no expert is left quarantined at the end.
//!
//! Everything is a function of [`SoakConfig::seed`], so a failure
//! reproduces from the seed printed in the report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use milo_core::{compress_model, MiloOptions, RankPolicy};
use milo_engine::PackedMoeModel;
use milo_moe::{layer_tensors, FaultMode, MoeConfig, MoeError, MoeModel};
use milo_obs::json::JsonValue;
use milo_quant::HqqOptions;
use milo_serve::{ForwardModel, Request, RetryPolicy, ServeError, Server, ServerConfig, Ticket};
use milo_tensor::prng::{Rng, SeedableRng};
use milo_tensor::rng::StdRng;

use crate::{kill_expert, poison_expert, slow_expert, FaultInjector};

// Referenced by the module docs.
#[allow(unused_imports)]
use milo_moe::FaultKind;

/// Soak-run shape. All counts are in requests; phase boundaries are
/// fractions of [`requests`](SoakConfig::requests) (20% / 30% / 50%).
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; tokens, fault modes, deadlines, and retry jitter all
    /// derive from it.
    pub seed: u64,
    /// Total requests across the three phases.
    pub requests: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Default per-request deadline.
    pub deadline: Duration,
    /// Termination slack: every request must resolve within
    /// `deadline + epsilon` of submission.
    pub epsilon: Duration,
    /// Fraction of requests served in [`FaultMode::Strict`] (these
    /// exercise the retry path during the fault window).
    pub strict_fraction: f64,
    /// Requests submitted back-to-back per burst.
    pub burst: usize,
    /// Oversized burst used during the fault window to exercise
    /// admission control.
    pub burst_overload: usize,
    /// Sleep of the slow-expert latency fault.
    pub slow_millis: u64,
    /// Circuit-breaker cooldown in ticks (served requests).
    pub breaker_cooldown: u64,
}

impl SoakConfig {
    /// The quick profile used by `verify.sh`: 1000 requests, sized to
    /// finish in a few seconds on a laptop.
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            seed,
            requests: 1000,
            workers: 4,
            queue_capacity: 32,
            deadline: Duration::from_millis(250),
            epsilon: Duration::from_millis(750),
            strict_fraction: 0.1,
            burst: 16,
            burst_overload: 48,
            slow_millis: 8,
            breaker_cooldown: 40,
        }
    }

    /// A longer profile (5000 requests) for manual soak runs.
    pub fn full(seed: u64) -> Self {
        SoakConfig { requests: 5000, ..SoakConfig::quick(seed) }
    }
}

/// Outcome tallies and invariant evidence from one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// The seed the run derives from.
    pub seed: u64,
    /// Requests offered to the server (admitted + rejected).
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Typed `Overloaded` rejections at admission.
    pub rejected: u64,
    /// Requests that returned logits.
    pub ok: u64,
    /// `DeadlineExceeded` outcomes (queued or mid-layer).
    pub deadline_exceeded: u64,
    /// Requests shed by the watchdog.
    pub shed: u64,
    /// `RetriesExhausted` outcomes.
    pub retries_exhausted: u64,
    /// Strict-mode expert failures surfaced without retry budget.
    pub expert_errors: u64,
    /// Other non-retryable model errors (must be 0: every token is valid).
    pub engine_errors: u64,
    /// Contained worker panics (must be 0 with a real model).
    pub internal_errors: u64,
    /// Total retry attempts.
    pub retries: u64,
    /// Requests that failed to terminate within `deadline + ε`.
    pub deadline_violations: u64,
    /// Highest queue depth observed at admission.
    pub max_queue_depth: u64,
    /// Breaker trips observed (first quarantines + failed probes).
    pub breaker_trips: u64,
    /// Open → half-open transitions observed.
    pub breaker_half_open: u64,
    /// Half-open → closed recoveries observed.
    pub breaker_recovered: u64,
    /// Experts still quarantined when the run ended (must be 0).
    pub still_quarantined: u64,
    /// Extra fault-free requests used to drain recovery at the end.
    pub drain_requests: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// `shed / admitted`.
    pub shed_rate: f64,
}

impl SoakReport {
    /// The report as a JSON object (used by the CLI and the bench
    /// baseline). The seed is a decimal string: a JSON number cannot
    /// hold every `u64` exactly, and the seed must reproduce the run.
    pub fn to_json(&self) -> JsonValue {
        let counts = [
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("ok", self.ok),
            ("deadline_exceeded", self.deadline_exceeded),
            ("shed", self.shed),
            ("retries_exhausted", self.retries_exhausted),
            ("expert_errors", self.expert_errors),
            ("engine_errors", self.engine_errors),
            ("internal_errors", self.internal_errors),
            ("retries", self.retries),
            ("deadline_violations", self.deadline_violations),
            ("max_queue_depth", self.max_queue_depth),
            ("breaker_trips", self.breaker_trips),
            ("breaker_half_open", self.breaker_half_open),
            ("breaker_recovered", self.breaker_recovered),
            ("still_quarantined", self.still_quarantined),
            ("drain_requests", self.drain_requests),
        ]
        .map(|(k, v)| (k, v as f64));
        let rates = [
            ("elapsed_ms", self.elapsed.as_secs_f64() * 1e3),
            ("throughput_rps", self.throughput_rps),
            ("shed_rate", self.shed_rate),
        ];
        let seed = ("seed".to_string(), JsonValue::String(self.seed.to_string()));
        let numbers =
            counts.into_iter().chain(rates).map(|(k, v)| (k.to_string(), JsonValue::Number(v)));
        JsonValue::Object(std::iter::once(seed).chain(numbers).collect())
    }
}

/// Builds the small packed-engine model the soak serves: the 2-layer
/// `tiny_mixtral` MoE run through the real compress → pack pipeline.
/// The default shape keeps a single forward in the hundreds of
/// microseconds, so soak latency is dominated by the injected faults
/// and queueing — the behaviours under test — not raw compute.
fn build_soak_model(seed: u64) -> Result<(PackedMoeModel, MoeConfig), String> {
    let cfg = MoeConfig::tiny_mixtral();
    let reference = MoeModel::synthesize(&cfg, seed);
    let tensors = layer_tensors(&reference, None);
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
        ..MiloOptions::default()
    };
    let compressed = compress_model(&tensors, &RankPolicy::uniform(4), &opts, 2)
        .map_err(|e| format!("soak model compression failed: {e}"))?;
    let packed = PackedMoeModel::build(&reference, &compressed)
        .map_err(|e| format!("soak model build failed: {e}"))?;
    Ok((packed, cfg))
}

struct Pending {
    ticket: Ticket,
    submitted: Instant,
    deadline: Duration,
}

#[derive(Default)]
struct Tally {
    ok: u64,
    deadline_exceeded: u64,
    shed: u64,
    retries_exhausted: u64,
    expert_errors: u64,
    engine_errors: u64,
    internal_errors: u64,
    deadline_violations: u64,
    unresolved: u64,
}

fn settle(pending: Vec<Pending>, epsilon: Duration, tally: &mut Tally) {
    for p in pending {
        let hard_stop = p.submitted + p.deadline + epsilon;
        let budget = hard_stop
            .saturating_duration_since(Instant::now())
            // Never poll with a zero budget even if we observe late.
            .max(Duration::from_millis(10));
        match p.ticket.wait_timeout(budget) {
            None => {
                tally.unresolved += 1;
                tally.deadline_violations += 1;
            }
            Some(outcome) => {
                if Instant::now() > hard_stop {
                    tally.deadline_violations += 1;
                }
                match outcome {
                    Ok(_) => tally.ok += 1,
                    Err(ServeError::DeadlineExceeded { .. }) => tally.deadline_exceeded += 1,
                    Err(ServeError::Shed) => tally.shed += 1,
                    Err(ServeError::RetriesExhausted { .. }) => tally.retries_exhausted += 1,
                    Err(ServeError::Model(MoeError::ExpertFailed { .. })) => {
                        tally.expert_errors += 1;
                    }
                    Err(ServeError::Model(_)) => tally.engine_errors += 1,
                    Err(ServeError::Internal(_)) => tally.internal_errors += 1,
                    Err(other) => {
                        // Overloaded / InvalidDeadline cannot occur after
                        // admission; ShuttingDown cannot occur before
                        // shutdown. Count as internal: it is a serve bug.
                        let _ = other;
                        tally.internal_errors += 1;
                    }
                }
            }
        }
    }
}

/// Runs the chaos soak described in the module docs.
///
/// # Errors
///
/// A human-readable description of the first violated invariant, or of
/// a setup failure.
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    if cfg.requests < 100 {
        return Err("soak needs at least 100 requests to cover all three phases".into());
    }
    let (model, moe_cfg) = build_soak_model(cfg.seed)?;
    let model = Arc::new(FaultInjector::new(model));
    let server = Server::start(
        Arc::clone(&model) as Arc<dyn ForwardModel>,
        ServerConfig {
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            default_deadline: Some(cfg.deadline),
            retry: RetryPolicy::default(),
            mode: FaultMode::Degrade,
            seed: cfg.seed,
            breaker_cooldown: cfg.breaker_cooldown,
            watchdog_interval: Duration::from_millis(2),
        },
    );

    // Faults live on layer 1 (killed + poisoned trip breakers, slow is
    // latency-only) — chosen on the last layer so every request crosses
    // a healthy layer first.
    let faults = vec![
        kill_expert(1, 0),
        poison_expert(1, 1),
        slow_expert(1, 2, cfg.slow_millis),
    ];

    let warmup_end = cfg.requests / 5;
    let faults_end = cfg.requests / 2;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut submitted: u64 = 0;
    let mut rejected: u64 = 0;
    let mut faults_on = false;

    let mut sent = 0usize;
    while sent < cfg.requests {
        if !faults_on && sent >= warmup_end && sent < faults_end {
            model.arm(faults.clone());
            faults_on = true;
        }
        if faults_on && sent >= faults_end {
            model.disarm();
            faults_on = false;
        }
        let in_fault_window = sent >= warmup_end && sent < faults_end;
        let burst = if in_fault_window { cfg.burst_overload } else { cfg.burst };
        let burst = burst.min(cfg.requests - sent);

        let mut pending = Vec::with_capacity(burst);
        for _ in 0..burst {
            sent += 1;
            submitted += 1;
            let len = 4 + (rng.gen::<u64>() % 5) as usize;
            let tokens: Vec<u32> = (0..len)
                .map(|_| (rng.gen::<u64>() % moe_cfg.vocab as u64) as u32)
                .collect();
            let mut req = Request::new(tokens);
            if rng.gen_bool(cfg.strict_fraction) {
                req = req.with_mode(FaultMode::Strict);
            }
            // Every 8th fault-window request runs with a deadline
            // shorter than the slow fault: guaranteed mid-layer expiry
            // when routed through the slowed expert.
            let deadline = if in_fault_window && submitted % 8 == 0 {
                Duration::from_millis(cfg.slow_millis / 2 + 1)
            } else {
                cfg.deadline
            };
            req = req.with_deadline(deadline);
            match server.submit(req) {
                Ok(ticket) => {
                    pending.push(Pending { ticket, submitted: Instant::now(), deadline })
                }
                Err(ServeError::Overloaded { depth, capacity }) => {
                    if depth > capacity {
                        server.shutdown();
                        return Err(format!(
                            "queue depth {depth} exceeded capacity {capacity}"
                        ));
                    }
                    rejected += 1;
                }
                Err(other) => {
                    server.shutdown();
                    return Err(format!("unexpected admission error: {other}"));
                }
            }
        }
        settle(pending, cfg.epsilon, &mut tally);
    }

    // Recovery drain: keep serving fault-free requests until every
    // breaker has closed (bounded so a stuck breaker fails loudly
    // instead of hanging).
    let health = Arc::clone(server.health());
    let mut drain: u64 = 0;
    while health.n_failed() > 0 && drain < 4 * cfg.requests as u64 {
        drain += 1;
        let tokens = vec![(drain % moe_cfg.vocab as u64) as u32; 4];
        match server.submit(Request::new(tokens).with_deadline(cfg.deadline)) {
            Ok(ticket) => {
                settle(
                    vec![Pending {
                        ticket,
                        submitted: Instant::now(),
                        deadline: cfg.deadline,
                    }],
                    cfg.epsilon,
                    &mut tally,
                );
            }
            Err(e) => {
                server.shutdown();
                return Err(format!("drain request rejected: {e}"));
            }
        }
    }

    let still_quarantined = health.n_failed() as u64;
    let breaker_trips = health.trips_total() as u64;
    let breaker_half_open = health.half_open_total() as u64;
    let breaker_recovered = health.recovered_total() as u64;
    let stats = server.shutdown();
    let elapsed = start.elapsed();

    let report = SoakReport {
        seed: cfg.seed,
        submitted: submitted + drain,
        admitted: stats.admitted,
        rejected,
        ok: tally.ok,
        deadline_exceeded: tally.deadline_exceeded,
        shed: tally.shed,
        retries_exhausted: tally.retries_exhausted,
        expert_errors: tally.expert_errors,
        engine_errors: tally.engine_errors,
        internal_errors: tally.internal_errors,
        retries: stats.retries,
        deadline_violations: tally.deadline_violations,
        max_queue_depth: stats.max_depth,
        breaker_trips,
        breaker_half_open,
        breaker_recovered,
        still_quarantined,
        drain_requests: drain,
        elapsed,
        throughput_rps: tally.ok as f64 / elapsed.as_secs_f64().max(1e-9),
        shed_rate: tally.shed as f64 / (stats.admitted.max(1)) as f64,
    };

    // Invariants. Checked in severity order so the first message names
    // the most fundamental breakage.
    if stats.panics > 0 || report.internal_errors > 0 {
        return Err(format!(
            "panic escaped expert isolation: {} contained worker panics, {} internal errors\n{}",
            stats.panics,
            report.internal_errors,
            report.to_json().render()
        ));
    }
    if tally.unresolved > 0 {
        return Err(format!(
            "{} requests never terminated within deadline+ε\n{}",
            tally.unresolved,
            report.to_json().render()
        ));
    }
    if report.deadline_violations > 0 {
        return Err(format!(
            "{} requests resolved after deadline+ε\n{}",
            report.deadline_violations,
            report.to_json().render()
        ));
    }
    if report.max_queue_depth > cfg.queue_capacity as u64 {
        return Err(format!(
            "queue depth {} exceeded capacity {}\n{}",
            report.max_queue_depth,
            cfg.queue_capacity,
            report.to_json().render()
        ));
    }
    if report.engine_errors > 0 {
        return Err(format!(
            "{} non-retryable engine errors on valid requests\n{}",
            report.engine_errors,
            report.to_json().render()
        ));
    }
    if report.breaker_trips == 0
        || report.breaker_half_open == 0
        || report.breaker_recovered == 0
    {
        return Err(format!(
            "no full breaker cycle observed (trips {}, half-open {}, recovered {})\n{}",
            report.breaker_trips,
            report.breaker_half_open,
            report.breaker_recovered,
            report.to_json().render()
        ));
    }
    if report.still_quarantined > 0 {
        return Err(format!(
            "{} experts still quarantined after recovery drain\n{}",
            report.still_quarantined,
            report.to_json().render()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak (fast enough for the unit suite); the full
    /// quick profile runs from `verify.sh` via the CLI.
    #[test]
    fn mini_soak_holds_invariants() {
        let cfg = SoakConfig {
            requests: 200,
            breaker_cooldown: 10,
            ..SoakConfig::quick(7)
        };
        let report = run_soak(&cfg).expect("soak invariants");
        assert!(report.ok > 0);
        assert!(report.breaker_recovered >= 1);
        assert_eq!(report.still_quarantined, 0);
        assert_eq!(report.deadline_violations, 0);

        let json = milo_obs::json::parse(&report.to_json().render()).expect("report JSON parses");
        assert_eq!(json.get("seed").and_then(|s| s.as_str()), Some("7"));
        assert_eq!(json.get("ok").and_then(|n| n.as_number()), Some(report.ok as f64));
    }
}
