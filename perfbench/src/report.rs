//! Metric catalogue and the result line.
//!
//! Every workload reports every metric of its pass, so one catalogue
//! serves all three: where a layer is bypassed (no server in
//! `decode-packed`, no packed GEMM in `serve-finegrained`) its
//! per-layer metrics read 0.

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("step_ms.p50", "ms"),
    ("step_ms.tail", "ms"),
    ("tok_s", "tok/s"),
    ("slo_ok_share", "share"),
    ("ok_share", "share"),
    ("top1_agree", "share"),
    ("weight_bytes", "bytes"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.tail", "ms"),
    ("serve.handoff_ms.p50", "ms"),
    ("serve.busy_share", "share"),
    ("serve.forwards_per_request", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.max_queue_depth", "count"),
    ("engine.us_per_token", "us"),
    ("engine.ffn_share", "share"),
    ("engine.prefill_ms_per_token", "ms"),
    ("moe.load_skew.max", "ratio"),
    ("moe.rows_per_expert_call.mean", "rows"),
    ("pack.linear_us.bs1", "us"),
    ("pack.linear_us.bs32", "us"),
    ("pack.step_share", "share"),
    ("pack.calls_per_token", "count"),
    ("pack.dequant_share", "share"),
    ("pack.bytes_per_token", "bytes"),
    ("pool.busy_share", "share"),
    ("pool.tasks_per_token", "count"),
    ("setup.synth_s", "s"),
    ("setup.compress_s", "s"),
    ("setup.build_s", "s"),
    ("core.iterations", "count"),
    ("loadgen.lag_ms.tail", "ms"),
    ("trace.overhead_share", "share"),
];

/// Whether `name` matches `[A-Za-z0-9_.-]+`, starts with a letter or
/// digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Metric values keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name`, which must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is not in a catalogue");
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    format!("{v}")
}

/// Escapes a string for a JSON literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its unit.
///
/// # Errors
///
/// If a catalogue metric is missing or not finite.
pub fn result_line(
    attempted: usize,
    failed: usize,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let v = metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(v),
            string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_obs::json::{self, JsonValue};

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".x") && !valid_name("x{y}"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogues() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap().to_string())
            .collect();
        let defined: Vec<String> =
            crate::workload::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.1 + i as f64);
        }
        let line = result_line(10, 1, &END_TO_END, &m).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_number), Some(10.0));
        let metrics = doc.get("metrics").unwrap();
        let lat = metrics.get("latency_ms.p50").unwrap();
        assert_eq!(lat.get("value").and_then(JsonValue::as_number), Some(1.1));
        assert_eq!(lat.get("unit").and_then(JsonValue::as_str), Some("ms"));
        m.set("tok_s", f64::NAN);
        assert!(result_line(10, 1, &END_TO_END, &m).is_err());
        assert!(result_line(10, 1, &PER_LAYER, &m).is_err());
    }
}
