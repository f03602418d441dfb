//! Serving-layer soak benchmark and baseline recorder.
//!
//! Runs the seeded chaos soak from `milo-faults` (kill + poison + slow
//! faults, burst arrivals, deadlines, breaker recovery) against the
//! packed engine and records the headline serving numbers —
//! **throughput** (completed requests/s) and **shed rate** — at
//! `results/BENCH_serve_soak.json`, so later serving PRs are measured
//! against a fixed baseline. Override the output path with
//! `MILO_BENCH_BASELINE` (empty string disables); `MILO_BENCH_QUICK=1`
//! shrinks the run for CI.
//!
//! The soak *asserts* its invariants (no escaped panics, bounded queue,
//! every request resolved by deadline+ε, breakers recover); a violation
//! fails the bench run rather than recording a corrupt baseline.

use milo_eval::bench::Config;
use milo_faults::{run_soak, SoakConfig, SoakReport};
use milo_obs::json::JsonValue;

fn write_baseline(report: &SoakReport, quick: bool) {
    let path = match std::env::var("MILO_BENCH_BASELINE") {
        Ok(p) if p.is_empty() => return,
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_serve_soak.json"),
    };
    let host_threads =
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let field = |k: &str, v: JsonValue| (k.to_string(), v);
    let json = JsonValue::Object(vec![
        field("baseline", report.to_json()),
        field("host_threads", JsonValue::Number(host_threads as f64)),
        field("quick", JsonValue::Bool(quick)),
        field(
            "derived",
            JsonValue::Object(vec![
                field("throughput_rps", JsonValue::Number(report.throughput_rps)),
                field("shed_rate", JsonValue::Number(report.shed_rate)),
                field(
                    "reject_rate",
                    JsonValue::Number(report.rejected as f64 / report.submitted.max(1) as f64),
                ),
            ]),
        ),
    ])
    .render();
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let quick = Config::quick_mode();
    let cfg = if quick {
        SoakConfig { requests: 300, breaker_cooldown: 12, ..SoakConfig::quick(7) }
    } else {
        SoakConfig::quick(7)
    };
    let start = std::time::Instant::now();
    let report = run_soak(&cfg).expect("soak invariants violated");
    println!(
        "serve_soak: {} requests in {:.2}s — {:.1} req/s ok, shed rate {:.4}, \
         {} rejected, breaker cycle {}/{}/{}",
        report.submitted,
        start.elapsed().as_secs_f64(),
        report.throughput_rps,
        report.shed_rate,
        report.rejected,
        report.breaker_trips,
        report.breaker_half_open,
        report.breaker_recovered,
    );
    write_baseline(&report, quick);
}
