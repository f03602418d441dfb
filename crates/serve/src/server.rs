//! The server: admission, worker pool, retry loop, watchdog.
//!
//! Every admitted request without an outcome sits in one ledger, a
//! `queued` deque and a `running` list under one mutex. Admission,
//! workers, the watchdog and shutdown move requests between the two and
//! out of the ledger under that lock; whoever takes a request out
//! resolves it, exactly once. Lifecycle of one request:
//!
//! ```text
//! submit ──admission──▶ queued ──worker──▶ running: forward (retry loop) ──▶ Response
//!    │                    │                   │
//!    │ Overloaded /       │ watchdog:         │ DeadlineExceeded{Layer} /
//!    │ InvalidDeadline /  │ DeadlineExceeded  │ RetriesExhausted /
//!    ▼ ShuttingDown       ▼ {Queued} / Shed   ▼ Model / Internal
//! ```
//!
//! Invariants the chaos soak asserts (see `milo-faults`):
//!
//! * no panic escapes a worker — expert panics are isolated by
//!   `pool::try_par_map`, anything else by the worker's `catch_unwind`;
//! * every admitted request terminates with a [`Response`] or exactly
//!   one typed [`ServeError`];
//! * queue depth never exceeds the configured capacity;
//! * the fault-free path is bit-identical to calling the model's
//!   `forward_resilient` directly.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use milo_moe::{FaultMode, HealthTracker, Linear, MoeError, MoeModel, ResilienceContext};
use milo_tensor::pool;
use milo_tensor::prng::SeedableRng;
use milo_tensor::rng::StdRng;
use milo_tensor::Matrix;

use crate::request::{Inflight, Request, Response, Ticket};
use crate::retry::RetryPolicy;
use crate::{Result, ServeError, Stage};

/// How a single forward attempt failed: the model's [`MoeError`], under
/// the name the benchmark harness (`perfbench/src/serving.rs`) uses.
pub use milo_moe::MoeError as ForwardError;

/// A model the server can drive: one resilient forward pass per call.
///
/// Implemented for [`milo_moe::MoeModel`] over any projection type — the
/// dense reference and, through [`milo_engine::PackedMoeModel`], the
/// deployment backend — and for closures, so tests can script failures
/// without a real model. Expert faults arrive the same way: the soak and
/// the serving drills serve a `milo_faults::FaultInjector`, a copy of the
/// packed model with faulty experts. The server classifies the
/// [`MoeError`]: `ExpertFailed` is retried, `Cancelled` is a deadline
/// error, anything else fails the request as [`ServeError::Model`].
pub trait ForwardModel: Send + Sync {
    /// Runs `tokens` through the model under `ctx`.
    ///
    /// # Errors
    ///
    /// The model's [`MoeError`].
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix>;
}

impl<P: Linear + Send> ForwardModel for MoeModel<P> {
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix> {
        self.forward_resilient(tokens, ctx)
    }
}

impl ForwardModel for milo_engine::PackedMoeModel {
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix> {
        self.forward_resilient(tokens, ctx)
    }
}

impl<F> ForwardModel for F
where
    F: Fn(&[u32], &ResilienceContext) -> milo_moe::Result<Matrix> + Send + Sync,
{
    fn forward(&self, tokens: &[u32], ctx: &ResilienceContext) -> milo_moe::Result<Matrix> {
        self(tokens, ctx)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing forward passes.
    pub workers: usize,
    /// Admission queue capacity; pushes beyond it are
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline budget applied to requests that do not carry their own
    /// (`None` = no deadline).
    pub default_deadline: Option<Duration>,
    /// Retry budget and backoff shape for retryable failures.
    pub retry: RetryPolicy,
    /// Seed for retry jitter; each request derives its own RNG from
    /// `seed ⊕ id`, so schedules are reproducible.
    pub seed: u64,
    /// Circuit-breaker cooldown in ticks (one tick per served request);
    /// 0 keeps quarantine sticky, matching `HealthTracker::new`.
    pub breaker_cooldown: u64,
    /// Watchdog scan interval.
    pub watchdog_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: None,
            retry: RetryPolicy::default(),
            seed: 0x4D69_4C6F, // "MiLo"
            breaker_cooldown: 8,
            watchdog_interval: Duration::from_millis(5),
        }
    }
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    max_depth: AtomicU64,
}

/// A point-in-time snapshot of server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests that produced a [`Response`].
    pub completed: u64,
    /// Requests that terminated with a typed error after admission.
    pub failed: u64,
    /// Requests dropped by the watchdog's load shedding.
    pub shed: u64,
    /// Total retry attempts across all requests.
    pub retries: u64,
    /// Worker panics contained by `catch_unwind`.
    pub panics: u64,
    /// Highest queue depth observed at admission.
    pub max_depth: u64,
}

/// Every admitted request that has no outcome yet.
struct Ledger {
    /// Waiting for a worker, oldest first.
    queued: VecDeque<Arc<Inflight>>,
    /// Taken by a worker and not yet resolved.
    running: Vec<Arc<Inflight>>,
    /// Set at shutdown: admission refuses, idle workers exit.
    closed: bool,
}

struct Shared {
    model: Arc<dyn ForwardModel>,
    cfg: ServerConfig,
    ledger: Mutex<Ledger>,
    /// Wakes idle workers when a request is queued or the ledger closes.
    work: Condvar,
    health: Arc<HealthTracker>,
    next_id: AtomicU64,
    stats: Counters,
}

/// The serving core: a worker pool behind a bounded request ledger,
/// watched by a deadline/shedding watchdog. See the module docs for the
/// lifecycle.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool and watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.queue_capacity` is zero: a server that rejects
    /// every request is a configuration error, not a policy.
    pub fn start(model: Arc<dyn ForwardModel>, cfg: ServerConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        let shared = Arc::new(Shared {
            model,
            ledger: Mutex::new(Ledger {
                queued: VecDeque::new(),
                running: Vec::new(),
                closed: false,
            }),
            work: Condvar::new(),
            health: Arc::new(HealthTracker::with_cooldown(cfg.breaker_cooldown)),
            next_id: AtomicU64::new(0),
            stats: Counters::default(),
            cfg,
        });
        milo_obs::gauge_set("serve.queue.depth", 0.0);
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        let watchdog = {
            let s = Arc::clone(&shared);
            Some(std::thread::spawn(move || watchdog_loop(&s)))
        };
        Server { shared, workers, watchdog }
    }

    /// Submits a request; returns a [`Ticket`] to wait on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full,
    /// [`ServeError::InvalidDeadline`] for a zero-length budget, and
    /// [`ServeError::ShuttingDown`] after shutdown began. All three
    /// reject *before* enqueueing — a rejected request consumes no
    /// queue slot.
    pub fn submit(&self, req: Request) -> Result<Ticket> {
        let shared = &self.shared;
        let budget = req.deadline.or(shared.cfg.default_deadline);
        if budget.is_some_and(|b| b.is_zero()) {
            return Err(ServeError::InvalidDeadline);
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = budget.map(|b| Instant::now() + b);
        let mode = req.mode.unwrap_or(FaultMode::Degrade);
        let inflight = Arc::new(Inflight::new(id, req.tokens, mode, deadline));
        let mut ledger = shared.ledger.lock().expect("ledger lock");
        if ledger.closed {
            return Err(ServeError::ShuttingDown);
        }
        let (depth, capacity) = (ledger.queued.len(), shared.cfg.queue_capacity);
        if depth >= capacity {
            drop(ledger);
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            milo_obs::counter_inc("serve.rejected.total");
            return Err(ServeError::Overloaded { depth, capacity });
        }
        ledger.queued.push_back(Arc::clone(&inflight));
        drop(ledger);
        shared.work.notify_one();
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        shared.stats.max_depth.fetch_max(depth as u64 + 1, Ordering::Relaxed);
        milo_obs::gauge_set("serve.queue.depth", (depth + 1) as f64);
        milo_obs::counter_inc("serve.admitted.total");
        Ok(Ticket { inner: inflight })
    }

    /// The shared circuit-breaker ledger.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.shared.health
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.stats;
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            max_depth: c.max_depth.load(Ordering::Relaxed),
        }
    }

    /// Stops admission, fails queued requests with
    /// [`ServeError::ShuttingDown`], joins workers and watchdog, and
    /// returns the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        let pending: Vec<_> = {
            // Also runs from `Drop`, which must not panic; no code that
            // can panic runs under the ledger lock, so a poisoned guard
            // still holds a consistent ledger.
            let mut ledger = self.shared.ledger.lock().unwrap_or_else(PoisonError::into_inner);
            ledger.closed = true;
            ledger.queued.drain(..).collect()
        };
        self.shared.work.notify_all();
        for request in pending {
            request.resolve(Err(ServeError::ShuttingDown));
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(wd) = self.watchdog.take() {
            let _ = wd.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Takes the oldest queued request into `running`, waiting while the
/// queue is empty; `None` once the ledger is closed and drained.
fn next_request(shared: &Shared) -> Option<Arc<Inflight>> {
    let mut ledger = shared.ledger.lock().expect("ledger lock");
    loop {
        if let Some(next) = ledger.queued.pop_front() {
            ledger.running.push(Arc::clone(&next));
            milo_obs::gauge_set("serve.queue.depth", ledger.queued.len() as f64);
            return Some(next);
        }
        if ledger.closed {
            return None;
        }
        ledger = shared.work.wait(ledger).expect("ledger lock");
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(inflight) = next_request(shared) {
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| handle(shared, &inflight)));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("serve.panic.total");
                Err(ServeError::Internal(pool::panic_message(payload.as_ref())))
            }
        };
        match &result {
            Ok(resp) => {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("serve.completed.total");
                milo_obs::hist_record(
                    "serve.request.latency",
                    resp.latency.as_nanos() as u64,
                    milo_obs::Unit::Nanos,
                );
            }
            Err(_) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("serve.failed.total");
            }
        }
        // Out of the ledger before resolving, so the watchdog never counts
        // a finished request as a stalled worker.
        shared.ledger.lock().expect("ledger lock").running.retain(|r| !Arc::ptr_eq(r, &inflight));
        inflight.resolve(result);
    }
}

/// Executes one running request: breaker tick, retry loop, typed
/// terminal outcome.
fn handle(shared: &Shared, inflight: &Inflight) -> Result<Response> {
    let _span = milo_obs::span(|| format!("serve.request{{id={}}}", inflight.id));
    let ctx = ResilienceContext {
        mode: inflight.mode,
        health: Arc::clone(&shared.health),
        deadline: inflight.deadline,
    };
    if ctx.expired() {
        // Expired while queued; no work was started.
        return Err(ServeError::DeadlineExceeded { stage: Stage::Queued });
    }
    // One breaker tick per served request: cooldowns are measured in
    // requests, not wall time, so recovery is deterministic under load.
    shared.health.tick();

    let policy = &shared.cfg.retry;
    let mut rng =
        StdRng::seed_from_u64(shared.cfg.seed ^ inflight.id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match shared.model.forward(&inflight.tokens, &ctx) {
            Ok(logits) => {
                return Ok(Response {
                    id: inflight.id,
                    logits,
                    attempts,
                    latency: inflight.admitted.elapsed(),
                });
            }
            Err(MoeError::Cancelled { layer }) => {
                return Err(ServeError::DeadlineExceeded { stage: Stage::Layer(layer) });
            }
            Err(MoeError::ExpertFailed { reason, .. }) if policy.max_attempts > 1 => {
                if attempts >= policy.max_attempts {
                    return Err(ServeError::RetriesExhausted { attempts, last: reason });
                }
                let delay = policy.backoff(attempts - 1, &mut rng);
                if inflight.past_deadline(Instant::now() + delay) {
                    // Backing off would blow the deadline; stop here with
                    // the retry budget unspent rather than guarantee a
                    // deadline miss.
                    return Err(ServeError::RetriesExhausted { attempts, last: reason });
                }
                shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                milo_obs::counter_inc("serve.retry.total");
                std::thread::sleep(delay);
            }
            // A request defect, or an expert failure with no retry
            // budget configured: surface the model's error as is.
            Err(e) => return Err(ServeError::Model(e)),
        }
    }
}

/// One scan per interval, under the ledger lock: queued requests past
/// their deadline are expired, and for every running request past its
/// deadline (a stalled worker) the oldest queued request is shed: it is
/// the one most likely to miss its deadline anyway. Running requests
/// are not touched: their context reports the expired deadline at the
/// next layer boundary.
fn watchdog_loop(shared: &Shared) {
    loop {
        std::thread::sleep(shared.cfg.watchdog_interval);
        let now = Instant::now();
        let mut ledger = shared.ledger.lock().expect("ledger lock");
        if ledger.closed {
            return;
        }
        let (expired, mut waiting): (VecDeque<_>, VecDeque<_>) =
            ledger.queued.drain(..).partition(|r| r.past_deadline(now));
        let stalled = ledger.running.iter().filter(|r| r.past_deadline(now)).count();
        let shed: Vec<_> = waiting.drain(..stalled.min(waiting.len())).collect();
        let depth = waiting.len();
        ledger.queued = waiting;
        drop(ledger);
        for request in expired {
            request.resolve(Err(ServeError::DeadlineExceeded { stage: Stage::Queued }));
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            milo_obs::counter_inc("serve.failed.total");
            milo_obs::counter_inc("serve.deadline.queued.total");
        }
        for victim in shed {
            victim.resolve(Err(ServeError::Shed));
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            milo_obs::counter_inc("serve.shed.total");
            milo_obs::counter_inc("serve.failed.total");
            milo_obs::gauge_set("serve.queue.depth", depth as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn ok_model() -> Arc<dyn ForwardModel> {
        Arc::new(|tokens: &[u32], _ctx: &ResilienceContext| {
            Ok(Matrix::filled(tokens.len(), 4, tokens[0] as f32))
        })
    }

    /// A model that logs each request's first token, then holds until
    /// `gate` opens.
    fn gated_model(gate: &Arc<AtomicBool>, log: &Arc<Mutex<Vec<u32>>>) -> Arc<dyn ForwardModel> {
        let (gate, log) = (Arc::clone(gate), Arc::clone(log));
        Arc::new(move |tokens: &[u32], _ctx: &ResilienceContext| {
            log.lock().unwrap().push(tokens[0]);
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Matrix::zeros(1, 1))
        })
    }

    /// Polls until `log` holds `n` entries.
    fn wait_for_log(log: &Mutex<Vec<u32>>, n: usize) {
        let start = Instant::now();
        while log.lock().unwrap().len() < n {
            assert!(start.elapsed() < Duration::from_secs(10), "model never started");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            watchdog_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn fault_free_request_round_trips() {
        let server = Server::start(ok_model(), quick_cfg());
        let ticket = server.submit(Request::new(vec![3, 1, 4])).unwrap();
        let resp = ticket.wait().unwrap();
        assert_eq!(resp.attempts, 1);
        assert_eq!(resp.logits.rows(), 3);
        assert_eq!(resp.logits.row(0)[0], 3.0);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn full_queue_rejects_with_typed_overloaded() {
        // A model that blocks until cancelled keeps workers busy so the
        // queue genuinely fills.
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let model: Arc<dyn ForwardModel> =
            Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
                while !g.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Matrix::zeros(1, 1))
            });
        let server = Server::start(
            model,
            ServerConfig { workers: 1, queue_capacity: 2, ..quick_cfg() },
        );
        let mut tickets = Vec::new();
        // 1 running + 2 queued fill the server.
        let mut rejected = None;
        for _ in 0..8 {
            match server.submit(Request::new(vec![0])) {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected.expect("queue should have filled") {
            ServeError::Overloaded { depth, capacity } => {
                assert_eq!(capacity, 2);
                assert!(depth <= capacity);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        gate.store(true, Ordering::Release);
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 1);
        assert!(stats.max_depth <= 2);
    }

    #[test]
    fn zero_deadline_rejected_at_admission() {
        let server = Server::start(ok_model(), quick_cfg());
        let err = server
            .submit(Request::new(vec![1]).with_deadline(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err, ServeError::InvalidDeadline);
        let stats = server.shutdown();
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn transient_expert_failure_is_retried_to_success() {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let model: Arc<dyn ForwardModel> =
            Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(MoeError::ExpertFailed {
                        layer: 0,
                        expert: 1,
                        reason: "flaky".into(),
                    })
                } else {
                    Ok(Matrix::zeros(1, 1))
                }
            });
        let server = Server::start(model, quick_cfg());
        let resp = server.submit(Request::new(vec![1])).unwrap().wait().unwrap();
        assert_eq!(resp.attempts, 2);
        let stats = server.shutdown();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn persistent_failure_exhausts_retry_budget() {
        let model: Arc<dyn ForwardModel> =
            Arc::new(|_tokens: &[u32], _ctx: &ResilienceContext| {
                Err(MoeError::ExpertFailed { layer: 2, expert: 5, reason: "dead".into() })
            });
        let server = Server::start(model, quick_cfg());
        let err = server.submit(Request::new(vec![1])).unwrap().wait().unwrap_err();
        assert_eq!(
            err,
            ServeError::RetriesExhausted { attempts: 3, last: "dead".into() }
        );
        server.shutdown();
    }

    #[test]
    fn no_retry_budget_surfaces_raw_expert_error() {
        let model: Arc<dyn ForwardModel> =
            Arc::new(|_tokens: &[u32], _ctx: &ResilienceContext| {
                Err(MoeError::ExpertFailed { layer: 1, expert: 0, reason: "dead".into() })
            });
        let server = Server::start(
            model,
            ServerConfig { retry: RetryPolicy::none(), ..quick_cfg() },
        );
        let err = server.submit(Request::new(vec![1])).unwrap().wait().unwrap_err();
        assert_eq!(
            err,
            ServeError::Model(MoeError::ExpertFailed {
                layer: 1,
                expert: 0,
                reason: "dead".into()
            })
        );
        server.shutdown();
    }

    #[test]
    fn invalid_token_is_a_model_error_and_never_retried() {
        let model = MoeModel::synthesize(&milo_moe::MoeConfig::tiny_mixtral(), 3);
        let vocab = model.config.vocab;
        let server = Server::start(Arc::new(model), quick_cfg());
        let token = vocab as u32;
        let err = server.submit(Request::new(vec![1, token])).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::Model(MoeError::InvalidToken { token, vocab }));
        assert_eq!(server.stats().retries, 0);
        server.shutdown();
    }

    #[test]
    fn deadline_mid_forward_maps_to_layer_stage() {
        // The model honours its deadline like a real forward pass: it
        // polls the context and unwinds at "layer 3".
        let model: Arc<dyn ForwardModel> =
            Arc::new(|_tokens: &[u32], ctx: &ResilienceContext| {
                let start = Instant::now();
                while !ctx.expired() && start.elapsed() < Duration::from_secs(5) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                if ctx.expired() {
                    return Err(MoeError::Cancelled { layer: 3 });
                }
                Ok(Matrix::zeros(1, 1))
            });
        let server = Server::start(model, quick_cfg());
        let err = server
            .submit(Request::new(vec![1]).with_deadline(Duration::from_millis(20)))
            .unwrap()
            .wait()
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExceeded { stage: Stage::Layer(3) });
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn stalled_worker_triggers_shedding_of_queued_load() {
        // One worker wedged, past a short deadline, on a model that
        // ignores its deadline; the queued requests have generous
        // deadlines, so the only way they terminate early is the
        // watchdog shedding them in response to the stall.
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let model: Arc<dyn ForwardModel> =
            Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
                while !g.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Matrix::zeros(1, 1))
            });
        let server = Server::start(
            model,
            ServerConfig { workers: 1, queue_capacity: 8, ..quick_cfg() },
        );
        let stalled = server
            .submit(Request::new(vec![1]).with_deadline(Duration::from_millis(15)))
            .unwrap();
        // Let the worker take the stalling request before queueing more.
        std::thread::sleep(Duration::from_millis(5));
        let queued: Vec<_> = (0..4)
            .map(|_| {
                server
                    .submit(Request::new(vec![1]).with_deadline(Duration::from_secs(30)))
                    .unwrap()
            })
            .collect();
        let mut shed = 0;
        for t in queued {
            match t.wait() {
                Err(ServeError::Shed) => shed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(shed, 4, "every queued request should be shed during the stall");
        gate.store(true, Ordering::Release);
        stalled.wait().unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.shed, 4);
    }

    #[test]
    fn worker_panic_is_contained_as_internal_error() {
        let model: Arc<dyn ForwardModel> =
            Arc::new(|_tokens: &[u32], _ctx: &ResilienceContext| -> milo_moe::Result<Matrix> {
                panic!("worker bug")
            });
        let server = Server::start(model, quick_cfg());
        let err = server.submit(Request::new(vec![1])).unwrap().wait().unwrap_err();
        match err {
            ServeError::Internal(msg) => assert!(msg.contains("worker bug")),
            other => panic!("expected Internal, got {other:?}"),
        }
        // The worker survives to serve the next request.
        let err2 = server.submit(Request::new(vec![2])).unwrap().wait().unwrap_err();
        assert!(matches!(err2, ServeError::Internal(_)));
        let stats = server.shutdown();
        assert_eq!(stats.panics, 2);
    }

    #[test]
    fn shutdown_fails_pending_requests_and_stops_admission() {
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let model: Arc<dyn ForwardModel> =
            Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
                while !g.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Matrix::zeros(1, 1))
            });
        let server = Server::start(
            model,
            ServerConfig { workers: 1, queue_capacity: 4, ..quick_cfg() },
        );
        let running = server.submit(Request::new(vec![1])).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let queued = server.submit(Request::new(vec![2])).unwrap();
        gate.store(true, Ordering::Release);
        // Shutdown closes the queue; the running request completes, the
        // queued one either completes (worker got it first) or fails
        // with ShuttingDown (drained).
        let handle = std::thread::spawn(move || {
            (running.wait(), queued.wait())
        });
        server.shutdown();
        let (r1, r2) = handle.join().unwrap();
        r1.unwrap();
        match r2 {
            Ok(_) | Err(ServeError::ShuttingDown) => {}
            other => panic!("unexpected queued outcome {other:?}"),
        }
    }

    #[test]
    fn one_worker_serves_the_queue_in_fifo_order() {
        let (gate, log) = (Arc::new(AtomicBool::new(false)), Arc::new(Mutex::new(Vec::new())));
        let server = Server::start(
            gated_model(&gate, &log),
            ServerConfig { workers: 1, ..quick_cfg() },
        );
        let mut tickets = vec![server.submit(Request::new(vec![0])).unwrap()];
        wait_for_log(&log, 1);
        for token in 1..=6 {
            tickets.push(server.submit(Request::new(vec![token])).unwrap());
        }
        gate.store(true, Ordering::Release);
        for (id, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().unwrap().id, id as u64);
        }
        assert_eq!(*log.lock().unwrap(), (0..=6).collect::<Vec<_>>());
        let stats = server.shutdown();
        assert_eq!((stats.admitted, stats.completed), (7, 7));
    }

    #[test]
    fn concurrent_submitters_get_every_ticket_resolved_exactly_once() {
        // Each request's first token is unique; the model counts runs per
        // token, so a request served twice (or resolved without running
        // and then run anyway) shows up as a count other than one.
        let runs = Arc::new(Mutex::new(std::collections::HashMap::<u32, u32>::new()));
        let r = Arc::clone(&runs);
        let model: Arc<dyn ForwardModel> =
            Arc::new(move |tokens: &[u32], ctx: &ResilienceContext| {
                *r.lock().unwrap().entry(tokens[0]).or_default() += 1;
                std::thread::sleep(Duration::from_micros(200));
                if ctx.expired() {
                    return Err(MoeError::Cancelled { layer: 0 });
                }
                Ok(Matrix::zeros(1, 1))
            });
        let server = Server::start(
            model,
            ServerConfig { workers: 3, queue_capacity: 6, ..quick_cfg() },
        );
        let outcomes: Vec<(u32, Result<Response>)> = std::thread::scope(|s| {
            let submitters: Vec<_> = (0..4u32)
                .map(|p| {
                    let server = &server;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..60u32 {
                            let token = p * 1000 + i;
                            let mut req = Request::new(vec![token]);
                            if i % 5 == 0 {
                                req = req.with_deadline(Duration::from_micros(300));
                            }
                            match server.submit(req) {
                                Ok(t) => out.push((token, t)),
                                Err(ServeError::Overloaded { depth, capacity }) => {
                                    assert!(depth <= capacity);
                                    std::thread::sleep(Duration::from_micros(100));
                                }
                                Err(e) => panic!("unexpected rejection {e:?}"),
                            }
                        }
                        out.into_iter().map(|(token, t)| (token, t.wait())).collect::<Vec<_>>()
                    })
                })
                .collect();
            submitters.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let stats = server.shutdown();
        assert_eq!(stats.admitted, outcomes.len() as u64);
        assert_eq!(stats.admitted + stats.rejected, 240);
        assert_eq!(stats.completed + stats.failed, stats.admitted);
        let runs = runs.lock().unwrap();
        let mut completed = 0;
        for (token, outcome) in &outcomes {
            match outcome {
                Ok(_) => {
                    completed += 1;
                    assert_eq!(runs.get(token), Some(&1), "token {token} ran more than once");
                }
                Err(ServeError::DeadlineExceeded { .. } | ServeError::Shed) => {
                    assert!(runs.get(token).copied().unwrap_or(0) <= 1);
                }
                Err(e) => panic!("unexpected outcome for {token}: {e:?}"),
            }
        }
        assert_eq!(stats.completed, completed);
        assert_eq!(runs.values().sum::<u32>() as usize, runs.len());
    }

    #[test]
    fn deadline_expiring_in_the_queue_resolves_before_the_worker_frees_up() {
        let (gate, log) = (Arc::new(AtomicBool::new(false)), Arc::new(Mutex::new(Vec::new())));
        let server = Server::start(
            gated_model(&gate, &log),
            ServerConfig { workers: 1, ..quick_cfg() },
        );
        let busy = server.submit(Request::new(vec![0])).unwrap();
        wait_for_log(&log, 1);
        let queued = server
            .submit(Request::new(vec![1]).with_deadline(Duration::from_millis(20)))
            .unwrap();
        let outcome = queued.wait_timeout(Duration::from_secs(10)).expect("watchdog resolves it");
        assert!(!gate.load(Ordering::Acquire), "the worker is still busy");
        assert_eq!(outcome.unwrap_err(), ServeError::DeadlineExceeded { stage: Stage::Queued });
        gate.store(true, Ordering::Release);
        busy.wait().unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0], "the expired request never ran");
        let stats = server.shutdown();
        assert_eq!((stats.completed, stats.failed, stats.shed), (1, 1, 0));
    }
}
