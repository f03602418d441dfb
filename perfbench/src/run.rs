//! One benchmark run: validity checks, set-up, the measured pass, the
//! correctness gate and — when traced — a second, traced pass with its
//! per-layer breakdown.

use std::path::PathBuf;

use milo_moe::ResilienceContext;
use milo_obs::Level;
use milo_tensor::Matrix;

use crate::decode::{self, argmax, DecodePass};
use crate::inputs;
use crate::layers::{self, Exported};
use crate::report::{self, Metrics, END_TO_END, PER_LAYER};
use crate::serving::{self, Outcome, ServePass};
use crate::stats::{self, Summary};
use crate::tracer::Tracer;
use crate::workload::{self, Drive, Models, SetupTimes, Workload};

/// An untraced run sets up at least this many times and `setup_s` is
/// the median; small models set up again until [`SETUP_MIN_S`] passed.
pub const SETUP_REPS: usize = 3;
/// Set-up time an untraced run accumulates before taking the median.
pub const SETUP_MIN_S: f64 = 2.0;
/// Most set-ups one run makes.
pub const SETUP_MAX_REPS: usize = 20;
/// Server responses the correctness gate checks bit for bit.
pub const GATE_RESPONSES: usize = 8;
/// Decode sessions the correctness gate replays at pool width 1.
pub const GATE_SESSIONS: usize = 3;
/// Seed of the fixed prompt sample `top1_agree` is measured on; it does
/// not follow `--seed`, so the figure moves only when the numerics do.
pub const TOP1_SEED: u64 = 0x701A_67EE;
/// Prompts in that sample.
pub const TOP1_PROMPTS: usize = 8;
/// Tokens per `top1_agree` prompt.
pub const TOP1_LEN: usize = 16;
/// Below this agreement with the FP32 reference the outputs are wrong:
/// chance is one in `vocab` (at most 1/64 here), while the compressed
/// models of these workloads agree on a third of positions or more.
pub const TOP1_FLOOR: f64 = 0.1;
/// A run whose open-loop generator sent its requests later, at the tail,
/// than this many mean inter-arrival gaps measured the generator rather
/// than the server (75 ms at 40 req/s).
pub const LAG_BOUND_GAPS: f64 = 3.0;
/// Inputs replayed through `forward_resilient` for `engine.ffn_share`.
pub const FFN_REPLAYS: usize = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Sizes the run: the workload holds `items_per_s × seconds` items.
    pub seconds: u64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Latency limit of `slo_ok_share`, in ms.
    pub slo_ms: f64,
    /// Where the traced run writes its Chrome trace.
    pub out_dir: PathBuf,
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    /// The run is not a trustworthy measurement.
    Invalid(String),
    /// An output check failed.
    Incorrect(String),
    /// Anything else.
    Error(String),
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    /// Human-readable lines.
    pub summary: Vec<String>,
    /// Provenance as one JSON object.
    pub provenance: String,
    /// The result line.
    pub line: String,
}

/// The seeded inputs of one run.
struct Inputs {
    prompts: Vec<Vec<u32>>,
    arrivals: Option<Vec<std::time::Duration>>,
    sample: Vec<usize>,
}

impl Inputs {
    fn new(w: &Workload, n: usize, seed: u64) -> Self {
        let (lo, hi) = w.prompt_len;
        let (arrivals, sampled) = match w.drive {
            Drive::OpenLoop { rate_per_s } => {
                (Some(inputs::arrivals(n, rate_per_s, seed)), GATE_RESPONSES)
            }
            Drive::ClosedLoop { .. } => (None, GATE_RESPONSES),
            Drive::Decode { .. } => (None, GATE_SESSIONS),
        };
        Inputs {
            prompts: inputs::prompts(n, lo, hi, w.model.vocab, seed),
            arrivals,
            sample: inputs::sample(n, sampled, seed),
        }
    }
}

enum Pass {
    Serve(ServePass),
    Decode(DecodePass),
}

fn run_pass(w: &Workload, models: &Models, inp: &Inputs) -> Pass {
    match w.drive {
        Drive::Decode { gen_tokens } => {
            Pass::Decode(decode::run(&models.packed, &inp.prompts, gen_tokens, w.pool_width))
        }
        Drive::OpenLoop { .. } | Drive::ClosedLoop { .. } => Pass::Serve(serving::run(
            w,
            &models.packed,
            &inp.prompts,
            inp.arrivals.as_deref(),
            &inp.sample,
        )),
    }
}

/// What every pass reports, whatever drove it.
struct Observed {
    attempted: usize,
    failed: usize,
    /// Time to first token per request, ms: the response of a server
    /// request, the prefill of a decode session.
    latency: Summary,
    /// One model step, ms: the forward call the server made for a
    /// request, or one `forward_step` of a decode session.
    step: Summary,
    /// Tokens per second: prompt tokens answered, or tokens generated.
    tok_s: f64,
    slo_ok: usize,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn summary(what: &str, samples: &[f64]) -> Result<Summary, Failure> {
    stats::summarize(samples).ok_or_else(|| {
        Failure::Error(format!(
            "{} {what} samples are too few for a median and a tail (need {})",
            samples.len(),
            stats::MIN_SAMPLES
        ))
    })
}

fn observe(pass: &Pass, slo_ms: f64) -> Result<Observed, Failure> {
    match pass {
        Pass::Serve(p) => {
            let ok: Vec<_> = p.records.iter().filter(|r| r.outcome == Outcome::Ok).collect();
            let latency: Vec<f64> = ok.iter().map(|r| ms(r.latency())).collect();
            let step: Vec<f64> =
                ok.iter().filter_map(|r| r.stamp).map(|s| ms(s.end - s.start)).collect();
            let tokens: usize = ok.iter().map(|r| r.tokens).sum();
            Ok(Observed {
                attempted: p.records.len(),
                failed: p.records.len() - ok.len(),
                latency: summary("latency", &latency)?,
                step: summary("service", &step)?,
                tok_s: tokens as f64 / p.wall.as_secs_f64(),
                slo_ok: latency.iter().filter(|&&l| l <= slo_ms).count(),
            })
        }
        Pass::Decode(p) => {
            let ok: Vec<_> = p.sessions.iter().filter(|s| s.ok).collect();
            let latency: Vec<f64> = ok.iter().map(|s| ms(s.ttft())).collect();
            let step: Vec<f64> =
                ok.iter().flat_map(|s| s.steps.iter().map(|&(a, b)| ms(b - a))).collect();
            let tokens: usize = ok.iter().map(|s| s.stream.len()).sum();
            Ok(Observed {
                attempted: p.sessions.len(),
                failed: p.sessions.len() - ok.len(),
                latency: summary("time-to-first-token", &latency)?,
                step: summary("inter-token", &step)?,
                tok_s: tokens as f64 / p.wall.as_secs_f64(),
                slo_ok: latency.iter().filter(|&&l| l <= slo_ms).count(),
            })
        }
    }
}

fn bit_identical(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The correctness gate: served responses must equal a direct
/// `forward_resilient` with a fresh degrade context bit for bit (the
/// serving layer's guarantee); decode streams must repeat exactly at
/// pool width 1.
fn gate(w: &Workload, models: &Models, inp: &Inputs, pass: &Pass) -> Result<(), Failure> {
    match (pass, w.drive) {
        (Pass::Serve(p), _) => {
            if p.sampled.is_empty() {
                return Err(Failure::Incorrect("no sampled request returned a response".into()));
            }
            for (i, served) in &p.sampled {
                let direct = models
                    .packed
                    .forward_resilient(&inp.prompts[*i], &ResilienceContext::degrade())
                    .map_err(|e| {
                        Failure::Incorrect(format!("direct forward of request {i}: {e}"))
                    })?;
                if !bit_identical(served, &direct) {
                    return Err(Failure::Incorrect(format!(
                        "request {i}: served logits differ from a direct forward_resilient"
                    )));
                }
            }
            Ok(())
        }
        (Pass::Decode(p), Drive::Decode { gen_tokens }) => {
            for &i in &inp.sample {
                let replay = decode::session(&models.packed, &inp.prompts[i], gen_tokens, 1);
                if !replay.ok || replay.stream != p.sessions[i].stream {
                    return Err(Failure::Incorrect(format!(
                        "session {i}: greedy stream differs when replayed at pool width 1"
                    )));
                }
            }
            Ok(())
        }
        (Pass::Decode(_), _) => unreachable!("decode passes come from decode workloads"),
    }
}

/// Share of positions where the packed model's argmax matches the FP32
/// reference's, over the fixed sample.
fn top1_agree(models: &Models) -> Result<f64, Failure> {
    let vocab = models.reference.config.vocab;
    let prompts = inputs::prompts(TOP1_PROMPTS, TOP1_LEN, TOP1_LEN, vocab, TOP1_SEED);
    let (mut agree, mut total) = (0usize, 0usize);
    for p in &prompts {
        let reference =
            models.reference.forward(p).map_err(|e| Failure::Error(format!("reference: {e}")))?;
        let packed =
            models.packed.forward(p).map_err(|e| Failure::Error(format!("packed: {e}")))?;
        for row in 0..reference.rows() {
            total += 1;
            agree += usize::from(argmax(reference.row(row)) == argmax(packed.row(row)));
        }
    }
    Ok(agree as f64 / total as f64)
}

/// The open-loop generator's lag bound for `w`, in ms.
fn lag_bound_ms(w: &Workload) -> Option<f64> {
    match w.drive {
        Drive::OpenLoop { rate_per_s } => Some(LAG_BOUND_GAPS * 1e3 / rate_per_s),
        Drive::ClosedLoop { .. } | Drive::Decode { .. } => None,
    }
}

/// The tail of the generator's lag, rejecting the run past the bound.
fn check_lag(w: &Workload, pass: &Pass) -> Result<Option<f64>, Failure> {
    let (Pass::Serve(p), Some(bound)) = (pass, lag_bound_ms(w)) else { return Ok(None) };
    let lag = summary("generator lag", &p.lag_ms)?;
    if lag.tail > bound {
        return Err(Failure::Invalid(format!(
            "the load generator ran late: lag {} {:.2} ms > {bound} ms",
            stats::label(lag.tail_permille),
            lag.tail
        )));
    }
    Ok(Some(lag.tail))
}

/// Rejects runs that cannot measure what they claim: more busy threads
/// than cores, or telemetry switched on for the end-to-end pass.
fn check_environment(w: &Workload) -> Result<usize, Failure> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if w.compute_threads() > nproc {
        return Err(Failure::Invalid(format!(
            "{} keeps {} threads busy ({} workers × pool width {}, {} clients) on {nproc} cores",
            w.name,
            w.compute_threads(),
            w.workers,
            w.pool_width,
            w.clients()
        )));
    }
    if let Ok(v) = std::env::var("MILO_TELEMETRY") {
        if !matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "off") {
            return Err(Failure::Invalid(format!(
                "MILO_TELEMETRY={v}: the end-to-end pass must run with telemetry off"
            )));
        }
    }
    Ok(nproc)
}

/// FNV-1a over the program's and the benchmark's sources (paths relative
/// to the working directory), so results of different code can be told
/// apart where no version control is at hand.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unavailable".into();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(
    o: &Options,
    nproc: usize,
    packed_fraction: f32,
    obs: &Observed,
    setups: usize,
) -> String {
    let w = &o.workload;
    let c = &w.model;
    let model = format!(
        "{{\"name\": {}, \"n_layers\": {}, \"d_model\": {}, \"n_heads\": {}, \"vocab\": {}, \
         \"n_experts\": {}, \"top_k\": {}, \"expert_ffn\": {}, \"n_shared_experts\": {}, \
         \"shared_ffn\": {}, \"first_layer_dense\": {}, \"router_imbalance\": {}, \
         \"rank\": {}, \"model_seed\": {}}}",
        report::string(&c.name),
        c.n_layers,
        c.d_model,
        c.n_heads,
        c.vocab,
        c.n_experts,
        c.top_k,
        c.expert_ffn,
        c.n_shared_experts,
        c.shared_ffn,
        c.first_layer_dense,
        c.router_imbalance,
        workload::RANK,
        workload::MODEL_SEED,
    );
    let commit = std::env::var("GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \
         \"source_digest\": {}, \"nproc\": {nproc}, \"workers\": {}, \"pool_width\": {}, \
         \"clients\": {}, \"compute_threads\": {}, \"telemetry\": {}, \"model\": {model}, \
         \"packed_fraction\": {packed_fraction}, \"items\": {}, \"latency_tail\": {}, \
         \"step_tail\": {}, \"slo_ms\": {}, \"lag_bound_ms\": {}, \"setups\": {setups}}}",
        report::string(w.name),
        o.seed,
        o.seconds,
        o.trace,
        report::string(&commit),
        report::string(&source_digest()),
        w.workers,
        w.pool_width,
        w.clients(),
        w.compute_threads(),
        if o.trace {
            "{\"end_to_end_pass\": \"off\", \"traced_pass\": \"trace\"}"
        } else {
            "{\"end_to_end_pass\": \"off\"}"
        },
        obs.attempted,
        report::string(&stats::label(obs.latency.tail_permille)),
        report::string(&stats::label(obs.step.tail_permille)),
        o.slo_ms,
        lag_bound_ms(w).map_or("null".into(), |b| b.to_string()),
    )
}

fn required_spans(w: &Workload) -> Vec<&'static str> {
    let mut req = vec!["bench.setup.", "bench.pack.linear", "bench.engine.step_replay"];
    match w.drive {
        Drive::Decode { .. } => {
            req.extend(["bench.session", "bench.engine.prefill", "bench.engine.step{"])
        }
        Drive::OpenLoop { .. } | Drive::ClosedLoop { .. } => req.extend([
            "bench.request",
            "bench.serve.submit",
            "bench.serve.forward",
            "engine.forward",
        ]),
    }
    req
}

/// Writes the spans of every request of the traced pass.
fn record_spans(tracer: &Tracer, pass: &Pass) {
    match pass {
        Pass::Serve(p) => {
            for (i, r) in p.records.iter().enumerate() {
                tracer.span(format!("bench.request{{req={i}}}"), r.due, r.done);
                tracer.span(format!("bench.serve.submit{{req={i}}}"), r.sent, r.submitted);
                if r.outcome != Outcome::Refused {
                    tracer.span(format!("bench.serve.wait{{req={i}}}"), r.submitted, r.done);
                }
                if let Some(s) = r.stamp {
                    tracer.span(format!("bench.serve.queue_wait{{req={i}}}"), r.sent, s.start);
                    tracer.span(format!("bench.serve.forward{{req={i}}}"), s.start, s.end);
                }
            }
        }
        Pass::Decode(p) => {
            for (i, s) in p.sessions.iter().enumerate() {
                tracer.span(format!("bench.session{{session={i}}}"), s.start, s.end());
                tracer.span(format!("bench.engine.prefill{{session={i}}}"), s.start, s.prefill_end);
                for &(a, b) in &s.steps {
                    tracer.span(format!("bench.engine.step{{session={i}}}"), a, b);
                }
            }
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of the traced pass.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    models: &Models,
    inp: &Inputs,
    traced: &Pass,
    base: &Observed,
    obs: &Observed,
    exported: &Exported,
    setup: (SetupTimes, u64),
    tracer: &Tracer,
) -> Result<Metrics, Failure> {
    let mut m = Metrics::default();
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
        m.set(name, 0.0);
    }
    m.set("loadgen.lag_ms.tail", check_lag(w, traced)?.unwrap_or(0.0));

    // Tokens the engine processed and the wall time of the pass.
    let (tokens, wall_s) = match traced {
        Pass::Serve(p) => {
            let ok: Vec<_> = p
                .records
                .iter()
                .filter(|r| r.outcome == Outcome::Ok)
                .filter_map(|r| r.stamp.map(|s| (r, s)))
                .collect();
            let queue: Vec<f64> = ok.iter().map(|(r, s)| ms(s.start - r.sent)).collect();
            let service: Vec<f64> = ok.iter().map(|(_, s)| ms(s.end - s.start)).collect();
            let handoff: Vec<f64> = ok.iter().map(|(r, s)| ms(r.done - s.end)).collect();
            let tokens: usize = ok.iter().map(|(r, _)| r.tokens).sum();
            let busy_ms: f64 = service.iter().sum();
            let queue = summary("queue-wait", &queue)?;
            let service_s = summary("service", &service)?;
            m.set("serve.queue_wait_ms.p50", queue.p50);
            m.set("serve.queue_wait_ms.tail", queue.tail);
            m.set("serve.service_ms.p50", service_s.p50);
            m.set("serve.service_ms.tail", service_s.tail);
            m.set("serve.handoff_ms.p50", stats::median(&handoff));
            m.set("serve.busy_share", ratio(busy_ms, ms(p.wall) * w.workers as f64));
            let forwards: u32 = ok.iter().map(|(_, s)| s.forwards).sum();
            m.set("serve.forwards_per_request", ratio(f64::from(forwards), ok.len() as f64));
            m.set("serve.rejected", p.stats.rejected as f64);
            m.set("serve.shed", p.stats.shed as f64);
            m.set("serve.max_queue_depth", p.stats.max_depth as f64);
            m.set("engine.us_per_token", ratio(busy_ms * 1e3, tokens as f64));
            m.set("engine.prefill_ms_per_token", ratio(busy_ms, tokens as f64));
            (tokens, p.wall.as_secs_f64())
        }
        Pass::Decode(p) => {
            let ok: Vec<_> = p.sessions.iter().filter(|s| s.ok).collect();
            let prompt: usize = ok.iter().map(|s| s.prompt_len).sum();
            let steps: usize = ok.iter().map(|s| s.steps.len()).sum();
            let prefill_ms: f64 = ok.iter().map(|s| ms(s.ttft())).sum();
            let step_ms: f64 =
                ok.iter().flat_map(|s| s.steps.iter().map(|&(a, b)| ms(b - a))).sum();
            m.set(
                "engine.us_per_token",
                ratio((prefill_ms + step_ms) * 1e3, (prompt + steps) as f64),
            );
            m.set("engine.prefill_ms_per_token", ratio(prefill_ms, prompt as f64));
            (prompt + steps, p.wall.as_secs_f64())
        }
    };

    m.set("moe.load_skew.max", exported.load_skew_max);
    m.set(
        "moe.rows_per_expert_call.mean",
        ratio(exported.expert_rows as f64, exported.expert_calls as f64),
    );
    m.set(
        "pack.dequant_share",
        ratio(exported.dequant_ns as f64, (exported.dequant_ns + exported.mac_ns) as f64),
    );
    m.set(
        "pool.busy_share",
        ratio(exported.pool_busy_ns as f64 * 1e-9, wall_s * w.compute_threads() as f64),
    );
    m.set("pool.tasks_per_token", ratio(exported.pool_tasks as f64, tokens as f64));

    // Replays of public functions on the run's own model.
    let err = Failure::Error;
    let uses = layers::linear_uses(&w.model, &models.compressed).map_err(err)?;
    let calls = layers::calls_per_token(&uses);
    let bs1 = layers::linear_us(&uses, 1, 30, w.pool_width, tracer).map_err(err)?;
    let bs32 = layers::linear_us(&uses, 32, 6, w.pool_width, tracer).map_err(err)?;
    let step = layers::step_us(&models.packed, w.pool_width, tracer).map_err(err)?;
    m.set("pack.calls_per_token", calls);
    m.set("pack.bytes_per_token", layers::bytes_per_token(&uses));
    m.set("pack.linear_us.bs1", bs1);
    m.set("pack.linear_us.bs32", bs32);
    m.set("pack.step_share", ratio(calls * bs1, step));
    let replay: Vec<Vec<u32>> = match w.drive {
        // Decode runs one token per forward: replay one-token inputs.
        Drive::Decode { .. } => {
            inp.prompts.iter().flatten().take(4 * FFN_REPLAYS).map(|&t| vec![t]).collect()
        }
        Drive::OpenLoop { .. } | Drive::ClosedLoop { .. } => {
            inp.prompts.iter().take(FFN_REPLAYS).cloned().collect()
        }
    };
    m.set(
        "engine.ffn_share",
        layers::ffn_share(&models.packed, &replay, w.pool_width).map_err(err)?,
    );

    let (times, iterations) = setup;
    m.set("setup.synth_s", times.synth_s);
    m.set("setup.compress_s", times.compress_s);
    m.set("setup.build_s", times.build_s);
    m.set("core.iterations", iterations as f64);
    m.set("trace.overhead_share", ratio(obs.latency.p50 - base.latency.p50, base.latency.p50));
    Ok(m)
}

fn end_to_end(setups: &[SetupTimes], obs: &Observed, top1: f64, models: &Models) -> Metrics {
    let mut m = Metrics::default();
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    m.set("setup_s", stats::median(&totals));
    m.set("latency_ms.p50", obs.latency.p50);
    m.set("latency_ms.tail", obs.latency.tail);
    m.set("step_ms.p50", obs.step.p50);
    m.set("step_ms.tail", obs.step.tail);
    m.set("tok_s", obs.tok_s);
    m.set("slo_ok_share", obs.slo_ok as f64 / obs.attempted as f64);
    m.set("ok_share", (obs.attempted - obs.failed) as f64 / obs.attempted as f64);
    m.set("top1_agree", top1);
    m.set("weight_bytes", models.packed.memory_bytes() as f64);
    m
}

fn describe(catalogue: &[(&str, &str)], m: &Metrics) -> Vec<String> {
    catalogue
        .iter()
        .map(|(name, unit)| {
            format!("  {name:<32} {:>14.4} {unit}", m.get(name).unwrap_or(f64::NAN))
        })
        .collect()
}

/// Runs one workload as `o` says.
///
/// # Errors
///
/// See [`Failure`].
pub fn run(o: &Options) -> Result<RunResult, Failure> {
    let w = &o.workload;
    let nproc = check_environment(w)?;
    let inp = Inputs::new(w, w.items(o.seconds), o.seed);

    let tracer = if o.trace {
        Some(Tracer::start().map_err(Failure::Error)?)
    } else {
        milo_obs::set_level(Level::Off);
        None
    };
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut built = None;
    loop {
        drop(built.take()); // free the previous models before building the next
        let (models, times) =
            workload::setup(&w.model, nproc, tracer.as_ref()).map_err(Failure::Error)?;
        setups.push(times);
        built = Some(models);
        let spent: f64 = setups.iter().map(SetupTimes::total).sum();
        let enough = setups.len() >= SETUP_REPS && spent >= SETUP_MIN_S;
        if o.trace || enough || setups.len() >= SETUP_MAX_REPS {
            break;
        }
    }
    let models = built.expect("at least one set-up ran");
    let setup_iterations = layers::read_exported().core_iterations;
    milo_obs::set_level(Level::Off);

    let packed_fraction = models.packed.packed_fraction();
    if packed_fraction != w.packed_fraction {
        return Err(Failure::Invalid(format!(
            "{}: packed_fraction is {packed_fraction}, the workload is built for {}",
            w.name, w.packed_fraction
        )));
    }
    let top1 = top1_agree(&models)?;
    if top1 < TOP1_FLOOR {
        return Err(Failure::Incorrect(format!(
            "top-1 agreement with the FP32 reference is {top1}, below {TOP1_FLOOR}"
        )));
    }

    if milo_obs::level() != Level::Off {
        return Err(Failure::Invalid("telemetry is on for the end-to-end pass".into()));
    }
    let base_pass = run_pass(w, &models, &inp);
    gate(w, &models, &inp, &base_pass)?;
    check_lag(w, &base_pass)?;
    let base = observe(&base_pass, o.slo_ms)?;
    drop(base_pass);
    let provenance = provenance(o, nproc, packed_fraction, &base, setups.len());
    let mut summary = vec![format!(
        "perfbench {} seed={} items={} trace={}",
        w.name, o.seed, base.attempted, o.trace
    )];

    let line = match &tracer {
        None => {
            let m = end_to_end(&setups, &base, top1, &models);
            summary.extend(describe(&END_TO_END, &m));
            report::result_line(base.attempted, base.failed, &END_TO_END, &m)
        }
        Some(tracer) => {
            milo_obs::registry::reset();
            milo_obs::set_level(Level::Trace);
            let traced = run_pass(w, &models, &inp);
            let exported = layers::read_exported();
            let obs = observe(&traced, o.slo_ms)?;
            record_spans(tracer, &traced);
            let m = per_layer(
                w,
                &models,
                &inp,
                &traced,
                &base,
                &obs,
                &exported,
                (setups[0], setup_iterations),
                tracer,
            );
            milo_obs::set_level(Level::Off);
            let m = m?;
            let path = o.out_dir.join(format!("trace-{}-seed{}.json", w.name, o.seed));
            let check = tracer.finish(&path, &required_spans(w)).map_err(Failure::Incorrect)?;
            summary.push(format!(
                "  trace {} ({} events, {} spans) passes validate_trace",
                path.display(),
                check.events,
                check.spans
            ));
            summary.extend(describe(&PER_LAYER, &m));
            report::result_line(obs.attempted, obs.failed, &PER_LAYER, &m)
        }
    }
    .map_err(Failure::Error)?;
    Ok(RunResult { summary, provenance, line })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_moe::MoeConfig;
    use milo_obs::json::{self, JsonValue};
    use std::sync::Mutex;

    /// Runs share the process-wide telemetry state.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn tiny(drive: Drive) -> Workload {
        Workload {
            name: "tiny",
            model: MoeConfig::tiny_mixtral(),
            drive,
            prompt_len: (4, 8),
            items_per_s: 1.0,
            workers: if matches!(drive, Drive::Decode { .. }) { 0 } else { 1 },
            pool_width: 1,
            packed_fraction: 0.0,
        }
    }

    fn options(drive: Drive, trace: bool) -> Options {
        Options {
            workload: tiny(drive),
            seed: 3,
            seconds: 1,
            trace,
            slo_ms: 10_000.0,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-traces"),
        }
    }

    fn metric_names(line: &str) -> Vec<String> {
        let doc = json::parse(line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        match doc.get("metrics") {
            Some(JsonValue::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn traced_runs_write_traces_that_validate() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        for drive in [
            Drive::ClosedLoop { clients: 1 },
            Drive::OpenLoop { rate_per_s: 100.0 },
            Drive::Decode { gen_tokens: 4 },
        ] {
            let o = options(drive, true);
            let r = run(&o).unwrap_or_else(|e| panic!("{drive:?}: {e:?}"));
            let want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(metric_names(&r.line), want, "{drive:?}");
            let text = std::fs::read_to_string(o.out_dir.join("trace-tiny-seed3.json")).unwrap();
            let check = milo_obs::validate_trace(&text, &required_spans(&o.workload)).unwrap();
            assert!(check.spans > 0);
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let r = run(&options(Drive::ClosedLoop { clients: 2 }, false)).unwrap();
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(metric_names(&r.line), want);
        let doc = json::parse(&r.provenance).unwrap();
        assert_eq!(doc.get("seed").and_then(JsonValue::as_number), Some(3.0));
        assert_eq!(doc.get("packed_fraction").and_then(JsonValue::as_number), Some(0.0));
    }
}
