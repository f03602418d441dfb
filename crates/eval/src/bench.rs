//! A small in-repo microbenchmark harness.
//!
//! Replaces the external `criterion` crate for the hermetic workspace.
//! Each benchmark is warmed up, its per-iteration cost is estimated, and then
//! a fixed number of samples (each a timed batch of iterations) is
//! collected. The reported statistic is the **median** per-iteration
//! time, which is robust to scheduler noise; min/mean/max are kept for
//! context. Results render as an aligned table and can be written as
//! JSON for machine consumption.
//!
//! Environment knobs (all optional):
//!
//! * `MILO_BENCH_QUICK` — set to `1`/`true` for the smoke configuration
//!   ([`Config::quick`]) instead of [`Config::full`]; used by
//!   `scripts/verify.sh` to exercise the bench path in seconds.
//! * `MILO_BENCH_JSON` — directory to write `<suite>.json` into
//!
//! # Examples
//!
//! ```
//! use milo_eval::bench::{black_box, Harness};
//!
//! let mut h = Harness::with_config("doc", milo_eval::bench::Config::quick());
//! h.bench_function("sum_1k", |b| b.iter(|| (0..1000u64).sum::<u64>()));
//! let results = h.finish();
//! assert_eq!(results[0].name, "sum_1k");
//! assert!(results[0].median_ns > 0.0);
//! ```

use milo_obs::json::JsonValue;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Sampling configuration for one harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of timed samples collected per benchmark.
    pub samples: usize,
    /// Target wall-clock duration of each sample batch.
    pub sample_time: Duration,
    /// Wall-clock time spent warming up before calibration.
    pub warmup: Duration,
}

impl Default for Config {
    /// [`Config::quick`] under `MILO_BENCH_QUICK`, else [`Config::full`].
    fn default() -> Self {
        if Self::quick_mode() {
            Self::quick()
        } else {
            Self::full()
        }
    }
}

impl Config {
    /// A minimal configuration for smoke runs and doctests.
    pub fn quick() -> Self {
        Self {
            samples: 3,
            sample_time: Duration::from_millis(2),
            warmup: Duration::from_millis(1),
        }
    }

    /// The full measurement configuration ([`Config::default`] unless
    /// `MILO_BENCH_QUICK` is set).
    pub fn full() -> Self {
        Self {
            samples: 15,
            sample_time: Duration::from_millis(25),
            warmup: Duration::from_millis(50),
        }
    }

    /// Whether `MILO_BENCH_QUICK` requests the smoke configuration.
    pub fn quick_mode() -> bool {
        std::env::var("MILO_BENCH_QUICK")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
            })
            .unwrap_or(false)
    }
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name as registered with [`Harness::bench_function`].
    pub name: String,
    /// Median per-iteration time across samples (the headline number).
    pub median_ns: f64,
    /// Mean per-iteration time across samples.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations per sample batch chosen by calibration.
    pub iters_per_sample: u64,
    /// Number of samples collected.
    pub samples: usize,
}

impl BenchResult {
    fn json(&self) -> JsonValue {
        let num = |v: f64| JsonValue::Number(v);
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("median_ns".into(), num(self.median_ns)),
            ("mean_ns".into(), num(self.mean_ns)),
            ("min_ns".into(), num(self.min_ns)),
            ("max_ns".into(), num(self.max_ns)),
            ("iters_per_sample".into(), num(self.iters_per_sample as f64)),
            ("samples".into(), num(self.samples as f64)),
        ])
    }
}

/// Timing callback handed to each benchmark closure; call
/// [`Bencher::iter`] exactly once with the operation to measure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the batch's iteration count, timing the whole batch.
    /// The return value is passed through [`black_box`] so the compiler
    /// cannot elide the work.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Collects and reports benchmark results for one suite.
pub struct Harness {
    suite: String,
    config: Config,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness with configuration drawn from the environment.
    pub fn new(suite: impl Into<String>) -> Self {
        Self::with_config(suite, Config::default())
    }

    /// Creates a harness with an explicit configuration.
    pub fn with_config(suite: impl Into<String>, config: Config) -> Self {
        Self { suite: suite.into(), config, results: Vec::new() }
    }

    /// Measures one benchmark: warmup, batch-size calibration, then
    /// `config.samples` timed batches. Prints one summary line.
    pub fn bench_function(&mut self, name: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let name = name.into();
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };

        // Warmup + per-iteration estimate: run batches of growing size
        // until the warmup budget is spent.
        let warmup_start = Instant::now();
        let mut per_iter = loop {
            f(&mut b);
            let spent = warmup_start.elapsed();
            if spent >= self.config.warmup {
                break b.elapsed.as_secs_f64() / b.iters as f64;
            }
            b.iters = (b.iters * 2).min(1 << 40);
        };
        if per_iter <= 0.0 {
            per_iter = 1e-9;
        }

        // Choose a batch size that makes one sample ≈ sample_time.
        let target = self.config.sample_time.as_secs_f64();
        b.iters = ((target / per_iter).ceil() as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            f(&mut b);
            samples_ns.push(b.elapsed.as_secs_f64() * 1e9 / b.iters as f64);
        }
        samples_ns.sort_by(|a, c| a.partial_cmp(c).expect("timings are finite"));
        let median = if samples_ns.len() % 2 == 1 {
            samples_ns[samples_ns.len() / 2]
        } else {
            0.5 * (samples_ns[samples_ns.len() / 2 - 1] + samples_ns[samples_ns.len() / 2])
        };
        let result = BenchResult {
            name: name.clone(),
            median_ns: median,
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("at least one sample"),
            iters_per_sample: b.iters,
            samples: samples_ns.len(),
        };
        println!(
            "{:<44} median {:>12}  (min {}, max {}, {} iters x {} samples)",
            result.name,
            format_ns(result.median_ns),
            format_ns(result.min_ns),
            format_ns(result.max_ns),
            result.iters_per_sample,
            result.samples,
        );
        self.results.push(result);
    }

    /// All results as one JSON document (`.render()` for the text).
    pub fn to_json(&self) -> JsonValue {
        let rows = self.results.iter().map(BenchResult::json).collect();
        JsonValue::Object(vec![
            ("suite".into(), JsonValue::String(self.suite.clone())),
            ("results".into(), JsonValue::Array(rows)),
        ])
    }

    /// Finishes the suite: writes `<suite>.json` if `MILO_BENCH_JSON`
    /// names a directory, and returns the collected results.
    pub fn finish(self) -> Vec<BenchResult> {
        if let Ok(dir) = std::env::var("MILO_BENCH_JSON") {
            let path = std::path::Path::new(&dir).join(format!("{}.json", self.suite));
            if let Err(e) = std::fs::write(&path, self.to_json().render()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("wrote {}", path.display());
            }
        }
        self.results
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { samples: 5, sample_time: Duration::from_millis(1), warmup: Duration::from_millis(1) }
    }

    #[test]
    fn collects_ordered_results_with_sane_stats() {
        let mut h = Harness::with_config("unit", quick());
        h.bench_function("fast", |b| b.iter(|| 1u64 + 1));
        h.bench_function("slow", |b| b.iter(|| (0..2000u64).map(black_box).sum::<u64>()));
        let rs = h.finish();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].name, "fast");
        for r in &rs {
            assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns, "{r:?}");
            assert!(r.median_ns > 0.0);
            assert_eq!(r.samples, 5);
        }
        assert!(
            rs[1].median_ns > rs[0].median_ns,
            "summing 2000 ints should out-cost an add: {rs:?}"
        );
    }

    #[test]
    fn json_round_trips_field_names() {
        let mut h = Harness::with_config("suite-x", quick());
        h.bench_function("op", |b| b.iter(|| 42u32));
        let json = h.to_json().render();
        for key in ["\"suite\":\"suite-x\"", "\"name\":\"op\"", "median_ns", "iters_per_sample"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_escapes_suite_and_bench_names() {
        let mut h = Harness::with_config("s\"uite", quick());
        h.bench_function("a\"b\\c", |b| b.iter(|| ()));
        let doc = milo_obs::json::parse(&h.to_json().render()).expect("harness JSON parses");
        assert_eq!(doc.get("suite").and_then(JsonValue::as_str), Some("s\"uite"));
        let row = &doc.get("results").and_then(JsonValue::as_array).expect("results")[0];
        assert_eq!(row.get("name").and_then(JsonValue::as_str), Some("a\"b\\c"));
        assert_eq!(row.get("samples").and_then(JsonValue::as_number), Some(5.0));
    }

    #[test]
    fn format_ns_picks_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(2.5e9).ends_with('s'));
    }
}
