//! Command-line entry point; see the library docs for what is measured.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --slo-ms WORKLOAD=MS[,WORKLOAD=MS…] [--out-dir DIR]
//! ```
//!
//! The last line of standard output is the result as one JSON object.
//! Exit codes: 0 success, 1 a correctness check failed, 2 usage or set-up
//! error, 3 the run was invalid as a measurement. Only a successful run
//! prints a result.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Failure, Options};
use perfbench::workload;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --slo-ms WORKLOAD=MS[,WORKLOAD=MS...] [--out-dir DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut slo = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--slo-ms" => slo = Some(value.clone()),
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name} (known: {})", names.join(", "))
    })?;
    let slo_ms = slo
        .ok_or("--slo-ms is required")?
        .split(',')
        .find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == w.name).then(|| v.parse::<f64>())
        })
        .ok_or_else(|| format!("--slo-ms has no limit for {}", w.name))?
        .map_err(|e| format!("--slo-ms: {e}"))?;
    if !(slo_ms.is_finite() && slo_ms > 0.0) {
        return Err(format!("--slo-ms {slo_ms} must be positive"));
    }
    Ok(Options {
        workload: w,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        slo_ms,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(r) => {
            for line in &r.summary {
                println!("{line}");
            }
            println!("provenance: {}", r.provenance);
            println!("{}", r.line);
            ExitCode::SUCCESS
        }
        Err(Failure::Incorrect(m)) => {
            eprintln!("perfbench: correctness check failed: {m}");
            ExitCode::from(1)
        }
        Err(Failure::Error(m)) => {
            eprintln!("perfbench: {m}");
            ExitCode::from(2)
        }
        Err(Failure::Invalid(m)) => {
            eprintln!("perfbench: invalid run: {m}");
            ExitCode::from(3)
        }
    }
}
