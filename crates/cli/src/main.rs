//! `milo-cli` — the command-line workflow of the reproduction, mirroring
//! the paper artifact's scripts (Appendix F):
//!
//! ```bash
//! # Synthesize a reference model (stands in for downloading a checkpoint).
//! milo-cli synth --model mixtral --scale 0.5 --out ref.moem
//!
//! # Quantize it (the artifact's MiLo_quant_main.py with --dense_rank /
//! # --sparse_rank):
//! milo-cli quantize --model ref.moem --method milo --dense-rank 16 --sparse-rank 2 \
//!     --out compressed.milo
//!
//! # Evaluate perplexity + proxy tasks, optionally writing eval_result.json:
//! milo-cli eval --model ref.moem --compressed compressed.milo --json eval_result.json
//!
//! # Inspect a compressed model:
//! milo-cli info --compressed compressed.milo
//!
//! # Verify artifact integrity (checksums, per-layer status); fails
//! # exactly where loading would:
//! milo-cli check --artifact compressed.milo
//!
//! # Run forwards on the packed engine and print the telemetry report
//! # (per-layer latency percentiles, per-expert activations, load skew):
//! milo-cli stats --model ref.moem --compressed compressed.milo [--trace-out trace.json]
//!
//! # Validate a Chrome trace produced by --trace-out / MILO_TELEMETRY=trace:
//! milo-cli trace-check --trace trace.json --require engine.forward,engine.layer
//! ```
//!
//! Every command honors `MILO_TELEMETRY` (`1`/`metrics`, `trace`); the
//! `--trace-out FILE` flag on `quantize`, `eval`, and `stats` forces
//! trace level and writes Chrome trace-event JSON on success.

use milo_bench::methods::{run_gptq_full, run_milo, run_rtn};
use milo_bench::Args;
use milo_core::serialize::{load_compressed_model, save_compressed_model};
use milo_core::{MiloOptions, RankPolicy, SparseAllocation};
use milo_eval::{generate_corpus, EvalConfig, EvalContext, Table};
use milo_moe::serialize::{load_model, save_model};
use milo_moe::{apply_compressed, profile_expert_frequency, MoeConfig, MoeModel};
use milo_obs::json::JsonValue;
use milo_quant::QuantConfig;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: milo-cli <command> [flags]\n\
         commands:\n  \
         synth     --model mixtral|deepseek [--scale f] [--layers n] [--seed n] --out FILE\n  \
         quantize  --model FILE --method milo|hqq|rtn|gptq [--dense-rank n] [--sparse-rank n]\n            \
                   [--sparse-policy uniform|kurtosis|frequency] [--iters n] --out FILE\n  \
         eval      --model FILE --compressed FILE [--json FILE]\n  \
         info      --compressed FILE\n  \
         check     --artifact FILE   (verify MILO/MOEM checksums; fails on a corrupt\n            \
                   section or trailing data, exactly where loading would)\n  \
         stats     --model FILE --compressed FILE [--seqs n] [--seq-len n] [--seed n]\n            \
                   (run packed-engine forwards, print telemetry: per-layer latency\n            \
                   percentiles, per-expert activations, load skew, quarantines)\n  \
         trace-check --trace FILE [--require prefix,prefix,...]\n            \
                   (validate Chrome trace JSON: well-formed, monotonic timestamps,\n            \
                   >=1 span per required prefix)\n  \
         soak      [--quick|--full] [--seed n] [--requests n] [--deadline-ms n] [--json FILE]\n            \
                   (seeded chaos soak of the serving layer: kill/poison/slow faults,\n            \
                   burst arrivals; fails on any violated invariant)\n\
         \n\
         quantize/eval/stats also accept --trace-out FILE (write Chrome trace JSON;\n\
         implies MILO_TELEMETRY=trace)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let command = argv.remove(0);
    let args = Args::from_iter(argv);

    // --trace-out implies trace-level telemetry for the whole run;
    // `stats` always needs at least metrics to have anything to print.
    let trace_out = args.get("trace-out").map(str::to_string);
    if trace_out.is_some() {
        milo_obs::set_level(milo_obs::Level::Trace);
    } else if command == "stats" && !milo_obs::enabled() {
        milo_obs::set_level(milo_obs::Level::Metrics);
    }

    let result = match command.as_str() {
        "synth" => cmd_synth(&args),
        "quantize" => cmd_quantize(&args),
        "eval" => cmd_eval(&args),
        "info" => cmd_info(&args),
        "check" => cmd_check(&args),
        "stats" => cmd_stats(&args),
        "trace-check" => cmd_trace_check(&args),
        "soak" => cmd_soak(&args),
        _ => return usage(),
    };
    let result = result.and_then(|()| {
        if let Some(path) = &trace_out {
            std::fs::write(path, milo_obs::trace::export_chrome())?;
            println!("wrote Chrome trace ({} events) -> {path}", milo_obs::trace::event_count());
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliError = Box<dyn std::error::Error + Send + Sync>;

fn required<'a>(args: &'a Args, name: &str) -> Result<&'a str, CliError> {
    args.get(name).ok_or_else(|| format!("missing required flag --{name}").into())
}

fn cmd_synth(args: &Args) -> Result<(), CliError> {
    let kind = required(args, "model")?;
    let scale = args.get_f32("scale").unwrap_or(1.0);
    let seed = args.get_u64("seed").unwrap_or(2025);
    let out = required(args, "out")?;
    let mut cfg = match kind {
        "mixtral" => MoeConfig::mixtral_like(),
        "deepseek" => MoeConfig::deepseek_like(),
        other => return Err(format!("unknown model kind {other}").into()),
    }
    .scaled(scale);
    if let Some(layers) = args.get_u64("layers") {
        cfg.n_layers = layers as usize;
    }
    let model = MoeModel::synthesize(&cfg, seed);
    save_model(Path::new(out), &model)?;
    println!(
        "synthesized {} ({} quantizable params, {:.2} MB FP16) -> {out}",
        cfg.name,
        cfg.quantizable_params(),
        cfg.fp16_bytes() as f64 / 1e6
    );
    Ok(())
}

fn cmd_quantize(args: &Args) -> Result<(), CliError> {
    let model_path = required(args, "model")?;
    let method = required(args, "method")?;
    let out = required(args, "out")?;
    let reference = load_model(Path::new(model_path))?;
    let seed = args.get_u64("seed").unwrap_or(2025);
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4);

    let outcome = match method {
        "rtn" => run_rtn(&reference, &QuantConfig::int3_asym())?,
        "gptq" => {
            let calib = generate_corpus(&reference, 40, 48, seed ^ 0xca11b)?;
            run_gptq_full(&reference, &QuantConfig::int3_asym(), &calib, seed)?
        }
        "hqq" | "milo" => {
            let policy = if method == "hqq" {
                RankPolicy::uniform(0)
            } else {
                let dense = args.get_u64("dense-rank").unwrap_or(16) as usize;
                let sparse = args.get_u64("sparse-rank").unwrap_or(2) as usize;
                let sparse_alloc = match args.get("sparse-policy").unwrap_or("kurtosis") {
                    "uniform" => SparseAllocation::Uniform(sparse),
                    "kurtosis" => SparseAllocation::Kurtosis { avg_rank: sparse },
                    "frequency" => SparseAllocation::Frequency { avg_rank: sparse },
                    other => return Err(format!("unknown sparse policy {other}").into()),
                };
                RankPolicy::composite(dense, sparse_alloc)
            };
            let corpus = generate_corpus(&reference, 10, 32, seed ^ 0xf3e9)?;
            let profile = profile_expert_frequency(&reference, &corpus)?;
            let iters = args.get_u64("iters").unwrap_or(20) as usize;
            let opts = MiloOptions { max_iters: iters, ..MiloOptions::default() };
            run_milo(&reference, Some(&profile), &policy, &opts, threads)?
        }
        other => return Err(format!("unknown method {other}").into()),
    };
    save_compressed_model(Path::new(out), &outcome.compressed)?;
    println!(
        "{method}: {:.2} MB compressed ({:.1}% of FP16), quantization took {:.1}s -> {out}",
        outcome.memory_bytes as f64 / 1e6,
        100.0 * outcome.memory_bytes as f64 / reference.config.fp16_bytes() as f64,
        outcome.seconds
    );
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let model_path = required(args, "model")?;
    let compressed_path = required(args, "compressed")?;
    let reference = load_model(Path::new(model_path))?;
    let compressed = load_compressed_model(Path::new(compressed_path))?;
    let candidate = apply_compressed(&reference, &compressed)?;

    let cfg = EvalConfig {
        n_seqs: args.get_u64("seqs").unwrap_or(16) as usize,
        seq_len: args.get_u64("seq-len").unwrap_or(24) as usize,
        corpus_seed: args.get_u64("seed").unwrap_or(2024),
        task_prompts: args.get_u64("prompts").unwrap_or(32) as usize,
    };
    eprintln!("preparing evaluation context...");
    let ctx = EvalContext::prepare(&reference, &cfg)?;
    let result = ctx.evaluate("compressed", &candidate, compressed.memory_bytes(), 0.0)?;

    let mut t = Table::new(["metric", "value"]);
    t.push_row(["memory (MB)".to_string(), format!("{:.2}", result.memory_bytes as f64 / 1e6)]);
    t.push_row(["perplexity".to_string(), format!("{:.4}", result.ppl)]);
    for (task, score) in &result.task_scores {
        t.push_row([format!("{task} (%)"), format!("{score:.2}")]);
    }
    t.push_row(["zero-shot avg (%)".to_string(), format!("{:.2}", result.zero_shot_avg())]);
    println!("{}", t.render());

    if let Some(json_path) = args.get("json") {
        let num = |v: f64| JsonValue::Number(v);
        let json = JsonValue::Object(vec![
            ("memory_bytes".into(), num(result.memory_bytes as f64)),
            ("perplexity".into(), num(result.ppl as f64)),
            (
                "tasks".into(),
                JsonValue::Object(
                    result.task_scores.iter().map(|(n, s)| (n.clone(), num(*s as f64))).collect(),
                ),
            ),
            ("zero_shot_avg".into(), num(result.zero_shot_avg() as f64)),
        ]);
        std::fs::write(json_path, json.render())?;
        println!("wrote {json_path}");
    }
    Ok(())
}

/// Verifies an artifact's section checksums without materializing the
/// model, printing per-section integrity. Fails (nonzero exit) on a
/// damaged, truncated or malformed section and on trailing bytes after
/// the final section: exactly where loading the artifact would fail.
/// Handles both artifact formats, sniffed from the magic tag: `MILO`
/// (compressed models) and `MOEM` (reference models).
fn cmd_check(args: &Args) -> Result<(), CliError> {
    let path = required(args, "artifact")?;
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);

    use std::io::Read;
    let mut magic = [0u8; 4];
    file.read_exact(&mut magic)?;
    let stream = std::io::Cursor::new(magic).chain(file);
    let (format, report) = match &magic {
        b"MILO" => {
            ("MILO", milo_core::serialize::verify_compressed_stream(&mut { stream })?)
        }
        b"MOEM" => ("MOEM", milo_moe::serialize::verify_model_stream(&mut { stream })?),
        other => {
            return Err(format!(
                "unrecognized artifact magic {:?} (expected MILO or MOEM)",
                String::from_utf8_lossy(other)
            )
            .into())
        }
    };

    println!("{path}: {format}");
    let mut t = Table::new(["section", "bytes", "status"]);
    for s in &report.sections {
        t.push_row([
            s.name.clone(),
            s.bytes.to_string(),
            match &s.fault {
                None => "ok".to_string(),
                Some(f) => format!("CORRUPT: {f}"),
            },
        ]);
    }
    println!("{}", t.render());

    let n_corrupt = report.n_corrupt();
    if n_corrupt > 0 {
        return Err(format!("{n_corrupt} corrupt section(s) detected").into());
    }
    if report.trailing_data {
        return Err("trailing data after the final section".into());
    }
    println!("integrity ok: {} section(s) verified", report.sections.len());
    Ok(())
}

/// Runs forward passes on the packed engine and prints the telemetry
/// report: per-layer latency percentiles, per-expert activation counts,
/// live load-skew gauges, and the quarantine count — the observability
/// walkthrough of a serving run.
fn cmd_stats(args: &Args) -> Result<(), CliError> {
    use milo_obs::MetricSnapshot;

    let model_path = required(args, "model")?;
    let compressed_path = required(args, "compressed")?;
    let n_seqs = args.get_u64("seqs").unwrap_or(4) as usize;
    let seq_len = args.get_u64("seq-len").unwrap_or(16) as usize;
    let seed = args.get_u64("seed").unwrap_or(2024);

    let reference = load_model(Path::new(model_path))?;
    let compressed = load_compressed_model(Path::new(compressed_path))?;
    let packed = milo_engine::PackedMoeModel::build(&reference, &compressed)?;
    let corpus = generate_corpus(&reference, n_seqs, seq_len, seed)?;

    eprintln!("running {n_seqs} forward passes ({seq_len} tokens each)...");
    for seq in &corpus {
        packed.forward(seq)?;
    }

    // Per-layer forward latency percentiles.
    let layers = milo_obs::registry::snapshot_prefixed("engine.layer");
    if !layers.is_empty() {
        let mut t = Table::new(["layer", "count", "p50", "p95", "p99", "mean"]);
        for (key, m) in &layers {
            let MetricSnapshot::Histogram(h) = m else { continue };
            t.push_row([
                key.clone(),
                h.count.to_string(),
                h.format(h.p50),
                h.format(h.p95),
                h.format(h.p99),
                h.format(h.mean.round() as u64),
            ]);
        }
        println!("per-layer forward latency:\n{}", t.render());
    }

    // Per-expert activation counts with a share column.
    let experts = milo_obs::registry::snapshot_prefixed("engine.expert_tokens");
    let total: u64 = experts
        .iter()
        .filter_map(|(_, m)| match m {
            MetricSnapshot::Counter(v) => Some(*v),
            _ => None,
        })
        .sum();
    if total > 0 {
        let mut t = Table::new(["expert", "tokens routed", "share (%)"]);
        for (key, m) in &experts {
            let MetricSnapshot::Counter(v) = m else { continue };
            t.push_row([
                key.clone(),
                v.to_string(),
                format!("{:.1}", 100.0 * *v as f64 / total as f64),
            ]);
        }
        println!("per-expert activations:\n{}", t.render());
    }

    for (key, m) in milo_obs::registry::snapshot_prefixed("engine.load_skew") {
        if let MetricSnapshot::Gauge(v) = m {
            println!("{key} = {v:.3} (max/mean routed tokens; 1.0 = balanced)");
        }
    }
    println!("experts quarantined: {}", milo_obs::counter_get("moe.quarantine.total"));

    if args.flag("all") {
        println!("\nfull metric registry:\n{}", milo_obs::snapshot::render());
    }
    Ok(())
}

/// Validates a Chrome trace-event file produced by `--trace-out` (or any
/// conforming tool): well-formed JSON, a non-empty `traceEvents` array,
/// monotonic non-negative timestamps, and at least one complete span per
/// `--require` prefix (comma-separated).
fn cmd_trace_check(args: &Args) -> Result<(), CliError> {
    let path = required(args, "trace")?;
    let required_spans: Vec<&str> = args
        .get("require")
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();
    let text = std::fs::read_to_string(path)?;
    let check = milo_obs::validate_trace(&text, &required_spans)
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: ok ({} events: {} spans, {} instants, {} counter samples; {} required prefix(es) present)",
        check.events, check.spans, check.instants, check.counters, required_spans.len()
    );
    Ok(())
}

fn cmd_soak(args: &Args) -> Result<(), CliError> {
    let seed = args.get_u64("seed").unwrap_or_else(milo_faults::fault_seed);
    let mut cfg = if args.flag("full") {
        milo_faults::SoakConfig::full(seed)
    } else {
        // --quick is the default profile; the flag is accepted for
        // explicitness in scripts.
        milo_faults::SoakConfig::quick(seed)
    };
    if let Some(n) = args.get_u64("requests") {
        cfg.requests = n as usize;
    }
    if let Some(ms) = args.get_u64("deadline-ms") {
        cfg.deadline = std::time::Duration::from_millis(ms);
    }
    println!(
        "soak: seed {}, {} requests, {} workers, queue {}, deadline {:?}",
        cfg.seed, cfg.requests, cfg.workers, cfg.queue_capacity, cfg.deadline
    );
    let report = milo_faults::run_soak(&cfg).map_err(|e| -> CliError { e.into() })?;
    println!("{}", report.to_json().render());
    println!(
        "soak ok: {} ok / {} admitted ({} rejected, {} shed, {} deadline-exceeded, {} retries), \
         breaker cycle {}→{}→{}, {:.1} req/s",
        report.ok,
        report.admitted,
        report.rejected,
        report.shed,
        report.deadline_exceeded,
        report.retries,
        report.breaker_trips,
        report.breaker_half_open,
        report.breaker_recovered,
        report.throughput_rps,
    );
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json().render())?;
        println!("wrote soak report -> {path}");
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let compressed_path = required(args, "compressed")?;
    let compressed = load_compressed_model(Path::new(compressed_path))?;
    println!(
        "{} layers, {:.2} MB total ({:.2} MB weights + {:.2} MB compensators)",
        compressed.layers.len(),
        compressed.memory_bytes() as f64 / 1e6,
        compressed.weight_bytes() as f64 / 1e6,
        compressed.compensator_bytes() as f64 / 1e6,
    );
    let mut t = Table::new(["layer", "shape", "rank", "bytes", "iters"]);
    let show = compressed.layers.len().min(12);
    for rec in &compressed.layers[..show] {
        t.push_row([
            rec.name.clone(),
            format!("{}x{}", rec.meta.rows, rec.meta.cols),
            rec.rank.to_string(),
            rec.layer.memory_bytes().to_string(),
            rec.layer.iterations().to_string(),
        ]);
    }
    println!("{}", t.render());
    if compressed.layers.len() > show {
        println!("... and {} more layers", compressed.layers.len() - show);
    }
    Ok(())
}
