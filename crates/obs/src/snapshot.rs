//! Human-readable rendering of the metric registry — the sink behind
//! `milo-cli stats`.
//!
//! The output groups metrics by kind: counters first (sorted by key),
//! then gauges, then histograms as a fixed-width table with count,
//! p50/p95/p99, mean, and min/max, each formatted in the histogram's
//! unit.

use crate::hist::format_value;
use crate::registry::{self, MetricSnapshot};

/// Renders every registered metric as a human-readable report. Returns
/// a note instead of an empty string when nothing was recorded, so CLI
/// users see *why* the table is empty.
pub fn render() -> String {
    let snap = registry::snapshot();
    if snap.is_empty() {
        return "no telemetry recorded (is MILO_TELEMETRY set?)\n".to_string();
    }

    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for (k, m) in &snap {
        match m {
            MetricSnapshot::Counter(v) => counters.push((k.as_str(), *v)),
            MetricSnapshot::Gauge(v) => gauges.push((k.as_str(), *v)),
            MetricSnapshot::Histogram(h) => hists.push((k.as_str(), *h)),
        }
    }

    let mut out = String::new();
    if !counters.is_empty() {
        out.push_str("== counters ==\n");
        let w = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &counters {
            out.push_str(&format!("  {k:<w$}  {v}\n"));
        }
    }
    if !gauges.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("== gauges ==\n");
        let w = gauges.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (k, v) in &gauges {
            out.push_str(&format!("  {k:<w$}  {v:.4}\n"));
        }
    }
    if !hists.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str("== histograms ==\n");
        let w = hists.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(4);
        out.push_str(&format!(
            "  {:<w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>21}\n",
            "name", "count", "p50", "p95", "p99", "mean", "min..max"
        ));
        for (k, h) in &hists {
            let mean = format_value(h.mean.round() as u64, h.unit);
            out.push_str(&format!(
                "  {:<w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>21}\n",
                k,
                h.count,
                h.format(h.p50),
                h.format(h.p95),
                h.format(h.p99),
                mean,
                format!("{}..{}", h.format(h.min), h.format(h.max)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Unit;

    #[test]
    fn empty_registry_renders_a_hint() {
        let _g = crate::test_guard();
        assert!(render().contains("MILO_TELEMETRY"));
    }

    #[test]
    fn renders_all_three_sections() {
        let _g = crate::test_guard();
        registry::counter("t.render.hits").add(12);
        registry::gauge("t.render.skew").set(1.25);
        let h = registry::histogram("t.render.lat", Unit::Nanos);
        for v in [1_000u64, 2_000, 3_000] {
            h.record(v);
        }
        let text = render();
        assert!(text.contains("== counters =="), "{text}");
        assert!(text.contains("t.render.hits"), "{text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("== gauges =="), "{text}");
        assert!(text.contains("1.2500"), "{text}");
        assert!(text.contains("== histograms =="), "{text}");
        assert!(text.contains("t.render.lat"), "{text}");
        assert!(text.contains("p95"), "{text}");
    }
}
