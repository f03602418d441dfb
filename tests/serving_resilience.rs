//! End-to-end serving-layer resilience drills against real packed
//! models: the typed error surface a caller sees when deadlines,
//! retries, admission control, and circuit breakers fire, exercised
//! through the public `milo::serve` API exactly as a client would.
//!
//! Each failure mode must surface as its *own* typed error — a caller
//! distinguishes "you submitted a bad request" (`InvalidDeadline`),
//! "the system is full" (`Overloaded`), "your budget ran out mid-work"
//! (`DeadlineExceeded`, with the stage it died at), and "the model kept
//! failing" (`RetriesExhausted`) without parsing strings.

use std::sync::Arc;
use std::time::Duration;

use milo_core::{compress_model, MiloOptions, RankPolicy};
use milo_engine::{PackedLinear, PackedMoeModel};
use milo_faults::{kill_expert, slow_expert, ExpertFault, FaultInjector};
use milo_moe::{layer_tensors, FaultMode, MoeConfig, MoeError, MoeModel, ResilienceContext};
use milo_quant::HqqOptions;
use milo_serve::{
    Request, RetryPolicy, ServeError, Server, ServerConfig, Stage,
};

/// A real 2-layer packed model (the same compress → pack pipeline the
/// CLI runs), small enough that a clean forward is well under 1 ms,
/// copied into a fault injector with nothing armed.
fn packed_model(seed: u64) -> (Arc<FaultInjector<PackedLinear>>, MoeConfig) {
    let (packed, cfg) = bare_packed_model(seed);
    (Arc::new(FaultInjector::new(&packed)), cfg)
}

fn bare_packed_model(seed: u64) -> (PackedMoeModel, MoeConfig) {
    let cfg = MoeConfig::tiny_mixtral();
    let reference = MoeModel::synthesize(&cfg, seed);
    let tensors = layer_tensors(&reference, None);
    let opts = MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
        ..MiloOptions::default()
    };
    let compressed =
        compress_model(&tensors, &RankPolicy::uniform(2), &opts, 2).unwrap();
    (PackedMoeModel::build(&reference, &compressed).unwrap(), cfg)
}

fn tokens(cfg: &MoeConfig, n: usize, salt: u64) -> Vec<u32> {
    (0..n).map(|i| ((salt + i as u64 * 7) % cfg.vocab as u64) as u32).collect()
}

/// Slows every routed expert on layer 0, so any top-k assignment hits
/// the latency fault.
fn slow_layer0(cfg: &MoeConfig, millis: u64) -> Vec<ExpertFault> {
    (0..cfg.n_experts).map(|e| slow_expert(0, e, millis)).collect()
}

#[test]
fn zero_length_deadline_is_rejected_at_admission() {
    let (model, cfg) = packed_model(11);
    let server = Server::start(model, ServerConfig::default());
    let err = server
        .submit(Request::new(tokens(&cfg, 4, 0)).with_deadline(Duration::ZERO))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::InvalidDeadline),
        "zero-length deadline must be InvalidDeadline, got: {err}"
    );
    // The rejection must not consume queue or worker capacity: a normal
    // request right after still completes.
    let resp = server.submit(Request::new(tokens(&cfg, 4, 1))).unwrap().wait();
    let resp = resp.expect("server unusable after InvalidDeadline");
    assert_eq!(resp.logits.shape(), (4, cfg.vocab), "logits hold every position");
    let stats = server.shutdown();
    assert_eq!(stats.admitted, 1, "invalid request must not count as admitted");
}

#[test]
fn deadline_mid_layer_names_the_layer_it_died_at() {
    let (model, cfg) = packed_model(12);
    let server = Server::start(
        model.clone(),
        ServerConfig {
            workers: 1,
            retry: RetryPolicy::none(),
            ..ServerConfig::default()
        },
    );
    // Every layer-0 expert sleeps 10× the deadline; the deadline passes
    // during the sleep and the engine exits at the next layer boundary —
    // so the error names a mid-model stage, not the queue.
    model.arm(slow_layer0(&cfg, 400));
    let err = server
        .submit(
            Request::new(tokens(&cfg, 4, 2)).with_deadline(Duration::from_millis(40)),
        )
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        ServeError::DeadlineExceeded { stage: Stage::Layer(l) } => {
            assert!(l >= 1, "cancellation observed before any layer ran")
        }
        other => panic!("expected DeadlineExceeded at a layer boundary, got: {other}"),
    }
    server.shutdown();
}

#[test]
fn retry_budget_exhausted_is_a_distinct_typed_error() {
    let (model, cfg) = packed_model(13);
    let server = Server::start(
        model.clone(),
        ServerConfig {
            workers: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            ..ServerConfig::default()
        },
    );
    // A killed expert in strict mode fails every attempt the same way
    // (strict requests do not quarantine, so the fault never routes
    // around itself); the third failure must surface as
    // RetriesExhausted, not as the raw expert error.
    model.arm(vec![kill_expert(0, 0), kill_expert(0, 1), kill_expert(0, 2), kill_expert(0, 3)]);
    let err = server
        .submit(Request::new(tokens(&cfg, 4, 3)).with_mode(FaultMode::Strict))
        .unwrap()
        .wait()
        .unwrap_err();
    match err {
        ServeError::RetriesExhausted { attempts, ref last } => {
            assert_eq!(attempts, 3);
            assert!(
                last.contains("expert"),
                "last error should name the failing expert, got: {last}"
            );
        }
        other => panic!("expected RetriesExhausted, got: {other}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.retries, 2, "3 attempts = 2 retries");
}

#[test]
fn overload_is_a_typed_rejection_and_queue_stays_bounded() {
    let (model, cfg) = packed_model(14);
    let server = Server::start(
        model.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            retry: RetryPolicy::none(),
            ..ServerConfig::default()
        },
    );
    // Pin the single worker on a slow layer-0 dispatch, then flood: at
    // most 1 running + 2 queued can be in flight, so the burst must see
    // typed Overloaded rejections — never blocking, never unbounded.
    model.arm(slow_layer0(&cfg, 150));
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 0..10 {
        match server.submit(Request::new(tokens(&cfg, 4, 10 + i))) {
            Ok(t) => accepted.push(t),
            Err(ServeError::Overloaded { depth, capacity }) => {
                assert!(depth <= capacity, "reported depth {depth} > capacity {capacity}");
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("expected Overloaded, got: {other}"),
        }
    }
    assert!(rejected >= 7, "only {rejected}/10 rejected with a full queue");
    for t in accepted {
        t.wait().expect("accepted requests must still complete");
    }
    let stats = server.shutdown();
    assert!(stats.max_depth <= 2, "queue depth {} exceeded capacity", stats.max_depth);
}

#[test]
fn breaker_walks_open_half_open_closed_under_served_traffic() {
    let (model, cfg) = packed_model(15);
    let server = Server::start(
        model.clone(),
        ServerConfig {
            workers: 1,
            breaker_cooldown: 4,
            ..ServerConfig::default()
        },
    );
    // Degrade-mode traffic against a killed expert: the breaker opens
    // (quarantine), then — with the fault cleared — cooldown ticks
    // accumulate one per served request until a half-open probe closes
    // it again. All observed through the server's shared tracker.
    model.arm(vec![kill_expert(1, 0)]);
    for i in 0..8 {
        server
            .submit(Request::new(tokens(&cfg, 6, 20 + i)))
            .unwrap()
            .wait()
            .expect("degrade-mode request must still answer");
    }
    let health = Arc::clone(server.health());
    assert!(health.trips_total() >= 1, "killed expert never tripped its breaker");
    assert!(health.n_failed() >= 1, "expert should be quarantined while faulted");

    model.disarm();
    for i in 0..32 {
        server
            .submit(Request::new(tokens(&cfg, 6, 60 + i)))
            .unwrap()
            .wait()
            .expect("recovery-phase request failed");
        if health.n_failed() == 0 {
            break;
        }
    }
    assert!(health.half_open_total() >= 1, "breaker never reached half-open");
    assert!(health.recovered_total() >= 1, "breaker never closed after probe");
    assert_eq!(health.n_failed(), 0, "expert still quarantined after recovery");
    server.shutdown();
}

#[test]
fn a_fault_armed_mid_serving_fires_for_every_context_until_disarmed() {
    let (packed, cfg) = bare_packed_model(16);
    let model = Arc::new(FaultInjector::new(&packed));
    let server = Server::start(
        model.clone(),
        ServerConfig { workers: 1, retry: RetryPolicy::none(), ..ServerConfig::default() },
    );
    let prompt = tokens(&cfg, 6, 30);
    let bare = packed.forward_resilient(&prompt, &ResilienceContext::strict()).unwrap();
    let strict = || Request::new(prompt.clone()).with_mode(FaultMode::Strict);
    assert_eq!(server.submit(strict()).unwrap().wait().unwrap().logits, bare);

    // Every layer-1 expert killed, armed while the server runs: a strict
    // request with a deadline fails on it…
    let killed: Vec<ExpertFault> = (0..cfg.n_experts).map(|e| kill_expert(1, e)).collect();
    model.arm(killed.clone());
    let deadline = Duration::from_secs(30);
    match server.submit(strict().with_deadline(deadline)).unwrap().wait() {
        Err(ServeError::Model(MoeError::ExpertFailed { layer: 1, reason, .. })) => {
            assert!(reason.contains("injected fault"), "reason = {reason}");
        }
        other => panic!("expected the armed kill to fail a strict request, got {other:?}"),
    }
    assert_eq!(server.health().n_failed(), 0, "strict requests do not quarantine");

    // …and disarming stops it: the next strict request gets the bare
    // model's logits bit for bit.
    model.disarm();
    assert_eq!(server.submit(strict()).unwrap().wait().unwrap().logits, bare);

    // Re-armed, it fires for a degrade request without a deadline too:
    // that request answers, and the routed experts it reached trip their
    // breakers.
    model.arm(killed);
    let resp = server.submit(Request::new(prompt.clone())).unwrap().wait().unwrap();
    assert!(resp.logits.as_slice().iter().all(|v| v.is_finite()));
    assert!(server.health().trips_total() >= 1, "the kill never fired in degrade mode");
    let reasons = server.health().failures();
    assert!(reasons.iter().all(|((l, _), r)| *l == 1 && r.contains("injected fault")));
    server.shutdown();
}
