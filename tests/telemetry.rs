//! Telemetry-layer acceptance suite for the observability PR.
//!
//! Three guarantees, exercised through the public crate APIs:
//!
//! 1. **Bit-identical outputs.** Telemetry only ever *observes* — the
//!    quantize→serve pipeline produces byte-for-byte identical results
//!    with `MILO_TELEMETRY` off and at full trace level.
//! 2. **Correct aggregation.** Histogram percentiles stay within the
//!    log-linear bucket error bound, and counters survive concurrent
//!    increments from many threads without losing updates.
//! 3. **Trace integrity.** An exported Chrome trace round-trips through
//!    the validator with every instrumented stage present, and expert
//!    quarantines surface as structured events exactly once.
//!
//! Telemetry state (level, registry, trace buffer) is process-global,
//! so every test serializes on [`guard`] and resets before running.

use std::sync::{Mutex, MutexGuard, OnceLock};

use milo::core::{compress_model, CompressedModel, MiloOptions, RankPolicy};
use milo::engine::PackedMoeModel;
use milo::moe::{layer_tensors, HealthTracker, MoeConfig, MoeModel};
use milo::obs::{self, Level, Unit};
use milo::tensor::Matrix;

/// Serializes tests and resets the global telemetry state, returning
/// the level to `Off` so cross-test leakage is impossible.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let g = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_level(Level::Off);
    g
}

fn toy_model() -> MoeModel {
    let cfg = MoeConfig {
        name: "telemetry-toy".into(),
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
    MoeModel::synthesize(&cfg, 2024)
}

/// Runs the full quantize→pack→forward pipeline at the *current*
/// telemetry level and returns the engine's logits for a fixed prompt.
fn pipeline_logits(reference: &MoeModel) -> (CompressedModel, Matrix) {
    let tensors = layer_tensors(reference, None);
    let opts = MiloOptions { max_iters: 2, ..MiloOptions::default() };
    let compressed = compress_model(&tensors, &RankPolicy::uniform(2), &opts, 2).unwrap();
    let engine = PackedMoeModel::build(reference, &compressed).unwrap();
    let seq: Vec<u32> = (0..12).map(|t| (t * 7 + 3) % 32).collect();
    let logits = engine.forward(&seq).unwrap();
    (compressed, logits)
}

#[test]
fn pipeline_bit_identical_with_telemetry_off_and_trace() {
    let _g = guard();
    let reference = toy_model();

    obs::set_level(Level::Off);
    let (_, off_logits) = pipeline_logits(&reference);
    assert!(
        obs::registry::snapshot().is_empty(),
        "disabled telemetry must record nothing"
    );

    obs::set_level(Level::Trace);
    let (_, trace_logits) = pipeline_logits(&reference);
    assert!(!obs::registry::snapshot().is_empty());
    assert!(obs::trace::event_count() > 0);

    // Matrix equality is exact (bit-for-bit on the f32 payload): the
    // trace-level run must not perturb a single value anywhere in the
    // quantizer, packer, router, or engine.
    assert_eq!(off_logits, trace_logits, "telemetry perturbed pipeline output");
}

#[test]
fn histogram_percentiles_within_bucket_error_bound() {
    let h = obs::Histogram::new(Unit::Nanos);
    for v in 1..=10_000u64 {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 10_000);
    assert_eq!(snap.min, 1);
    assert_eq!(snap.max, 10_000);
    // Log-linear buckets (16 sub-buckets per power of two) bound the
    // relative error at 1/16 = 6.25%.
    for (q, exact) in [(50.0, 5_000.0), (95.0, 9_500.0), (99.0, 9_900.0), (100.0, 10_000.0)] {
        let got = h.percentile(q) as f64;
        let rel = (got - exact).abs() / exact;
        assert!(rel <= 0.0625, "p{q}: got {got}, exact {exact}, rel err {rel:.4}");
    }
    // Percentiles never leave the observed range; rank 1 lands in the
    // exact singleton bucket for 1.
    assert_eq!(h.percentile(0.0), 1);
    assert!(h.percentile(100.0) <= 10_000);
    let mean = h.mean();
    assert!((mean - 5_000.5).abs() / 5_000.5 <= 0.0625, "mean {mean}");
}

#[test]
fn histogram_small_exact_values_are_lossless() {
    let h = obs::Histogram::new(Unit::Count);
    for v in [0u64, 1, 2, 3, 7, 15] {
        h.record(v);
    }
    // Values below 16 land in exact singleton buckets.
    assert_eq!(h.percentile(0.0), 0);
    assert_eq!(h.percentile(100.0), 15);
    assert_eq!(h.snapshot().count, 6);
}

#[test]
fn concurrent_counter_increments_lose_no_updates() {
    let _g = guard();
    obs::set_level(Level::Metrics);
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    obs::counter_inc("test.concurrent");
                    if i % 2 == t as u64 % 2 {
                        obs::counter_add("test.concurrent.add", 3);
                    }
                }
            });
        }
    });
    assert_eq!(obs::counter_get("test.concurrent"), THREADS as u64 * PER_THREAD);
    assert_eq!(
        obs::counter_get("test.concurrent.add"),
        THREADS as u64 * PER_THREAD / 2 * 3
    );
}

#[test]
fn trace_export_roundtrips_through_validator_with_all_stages() {
    let _g = guard();
    obs::set_level(Level::Trace);
    let reference = toy_model();
    let (_, _) = pipeline_logits(&reference);
    let trace = obs::trace::export_chrome();
    let check = obs::validate_trace(
        &trace,
        &[
            "quant.hqq",
            "core.milo_compress",
            "engine.forward",
            "engine.layer",
            "engine.attn",
            "engine.ffn",
        ],
    )
    .expect("exported trace must validate");
    assert!(check.spans > 0, "no complete spans in trace");
    assert!(check.counters > 0, "no residual-eps counter samples in trace");
    assert_eq!(check.events, obs::trace::event_count());
}

#[test]
fn validator_rejects_missing_stage_and_malformed_json() {
    let _g = guard();
    obs::set_level(Level::Trace);
    obs::trace::push_complete("only.this".into(), 1.0, 2.0);
    let trace = obs::trace::export_chrome();
    assert!(obs::validate_trace(&trace, &["only.this"]).is_ok());
    let err = obs::validate_trace(&trace, &["absent.stage"]).unwrap_err();
    assert!(err.contains("absent.stage"), "error should name the stage: {err}");
    assert!(obs::validate_trace("{not json", &[]).is_err());
    assert!(obs::validate_trace("{\"traceEvents\":[]}", &[]).is_err());
}

#[test]
fn quarantine_emits_structured_event_exactly_once() {
    let _g = guard();
    obs::set_level(Level::Trace);
    let tracker = HealthTracker::new();

    tracker.record(1, 3, "nan output");
    assert_eq!(obs::counter_get("moe.quarantine.total"), 1);
    assert_eq!(obs::trace::event_count(), 1);

    // Sticky: re-recording the same (layer, expert) keeps the first
    // reason and emits no duplicate telemetry.
    tracker.record(1, 3, "different reason");
    assert_eq!(obs::counter_get("moe.quarantine.total"), 1);
    assert_eq!(obs::trace::event_count(), 1);

    tracker.record(0, 1, "panic");
    assert_eq!(obs::counter_get("moe.quarantine.total"), 2);
    assert_eq!(obs::trace::event_count(), 2);

    // The instant events carry layer/expert/reason args.
    let trace = obs::trace::export_chrome();
    let check = obs::validate_trace(&trace, &[]).unwrap();
    assert_eq!(check.instants, 2);
    assert!(trace.contains("\"moe.quarantine\""));
    assert!(trace.contains("nan output"));
    assert!(trace.contains("panic"));
    assert!(!trace.contains("different reason"), "sticky reason overwritten");
}

#[test]
fn serving_metrics_cover_queue_retry_shed_and_latency() {
    use milo::moe::{MoeError, ResilienceContext};
    use milo::serve::{ForwardModel, Request, RetryPolicy, Server, ServerConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let _g = guard();
    obs::set_level(Level::Metrics);

    // A model that fails its first call and then succeeds: one request
    // exercises the retry counter, the rest the completion/latency path.
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&calls);
    let flaky: Arc<dyn ForwardModel> =
        Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(MoeError::ExpertFailed {
                    layer: 0,
                    expert: 0,
                    reason: "transient".into(),
                })
            } else {
                Ok(Matrix::zeros(1, 1))
            }
        });
    let server = Server::start(
        flaky,
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
    for _ in 0..3 {
        server.submit(Request::new(vec![1])).unwrap().wait().unwrap();
    }
    server.shutdown();
    assert!(obs::counter_get("serve.admitted.total") >= 3);
    assert!(obs::counter_get("serve.completed.total") >= 3);
    assert!(obs::counter_get("serve.retry.total") >= 1, "flaky first call not retried");

    // A wedged worker (non-cooperative model) with queued load behind
    // it: the watchdog must shed, feeding the shed counter.
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let wedged: Arc<dyn ForwardModel> =
        Arc::new(move |_tokens: &[u32], _ctx: &ResilienceContext| {
            while !g.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Matrix::zeros(1, 1))
        });
    let server = Server::start(
        wedged,
        ServerConfig {
            workers: 1,
            queue_capacity: 8,
            watchdog_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
    );
    let stalled = server
        .submit(Request::new(vec![1]).with_deadline(Duration::from_millis(15)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let queued: Vec<_> = (0..2)
        .map(|_| {
            server
                .submit(Request::new(vec![1]).with_deadline(Duration::from_secs(30)))
                .unwrap()
        })
        .collect();
    for t in queued {
        t.wait().unwrap_err();
    }
    gate.store(true, Ordering::Release);
    stalled.wait().unwrap();
    server.shutdown();
    assert!(obs::counter_get("serve.shed.total") >= 2, "watchdog shed not counted");

    // The registry holds the serving metric families with the right
    // kinds: a queue-depth gauge and a request-latency histogram whose
    // count covers every completed request.
    let snap = obs::registry::snapshot();
    let depth = snap.iter().find(|(k, _)| k == "serve.queue.depth");
    assert!(
        matches!(depth, Some((_, obs::registry::MetricSnapshot::Gauge(_)))),
        "serve.queue.depth gauge missing: {depth:?}"
    );
    let latency = snap.iter().find(|(k, _)| k.starts_with("serve.request.latency"));
    match latency {
        Some((_, obs::registry::MetricSnapshot::Histogram(h))) => {
            assert!(h.count >= 4, "latency histogram saw {} requests", h.count)
        }
        other => panic!("serve.request.latency histogram missing: {other:?}"),
    }
}

#[test]
fn breaker_transitions_emit_instant_events() {
    let _g = guard();
    obs::set_level(Level::Trace);

    // Walk one breaker through its full cycle by hand and check each
    // transition lands in the trace buffer as a structured instant.
    let tracker = HealthTracker::with_cooldown(2);
    tracker.record(1, 3, "nan output"); // closed -> open
    tracker.tick();
    tracker.tick(); // open -> half-open
    assert!(tracker.probe_succeeded(1, 3)); // half-open -> closed

    assert_eq!(obs::counter_get("moe.breaker.half_open.total"), 1);
    assert_eq!(obs::counter_get("moe.breaker.recovered.total"), 1);

    let trace = obs::trace::export_chrome();
    let check = obs::validate_trace(&trace, &[]).unwrap();
    // One quarantine instant + two breaker state-transition instants.
    assert_eq!(check.instants, 3);
    assert!(trace.contains("\"moe.breaker\""));
    assert!(trace.contains("half_open"));
    assert!(trace.contains("closed"));
}

#[test]
fn metrics_level_skips_trace_buffer_but_fills_registry() {
    let _g = guard();
    obs::set_level(Level::Metrics);
    let reference = toy_model();
    let (_, _) = pipeline_logits(&reference);
    assert!(obs::trace::event_count() == 0, "metrics level must not buffer events");
    let snap = obs::registry::snapshot();
    assert!(!snap.is_empty());
    // Spot-check the headline metrics each instrumented layer owns.
    for prefix in ["core.iterations", "engine.expert_tokens", "engine.load_skew", "pool.tasks"] {
        assert!(
            snap.iter().any(|(k, _)| k.starts_with(prefix)),
            "missing metric family {prefix}"
        );
    }
}
