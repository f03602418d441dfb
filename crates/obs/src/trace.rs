//! The Chrome trace-event buffer, its JSON export, and the validator
//! behind `milo-cli trace-check`.
//!
//! Events follow the Trace Event Format understood by
//! `chrome://tracing` / Perfetto: "complete" (`ph: "X"`) events for
//! spans, "instant" (`ph: "i"`) events for structured one-offs like
//! expert quarantines, and "counter" (`ph: "C"`) events for numeric
//! series such as the per-iteration HQQ residual norm. Timestamps are
//! microseconds since the process telemetry epoch; export sorts by
//! timestamp so consumers (and the validator) see a monotonic stream.

use crate::json::{self, JsonValue};
use std::sync::{Mutex, OnceLock};

/// One buffered trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (span or event key).
    pub name: String,
    /// Chrome phase: `X` complete, `i` instant, `C` counter.
    pub ph: char,
    /// Microseconds since the telemetry epoch.
    pub ts: f64,
    /// Duration in microseconds (complete events only).
    pub dur: f64,
    /// Recording thread's stable id.
    pub tid: u64,
    /// Structured arguments.
    pub args: Vec<(String, JsonValue)>,
}

fn buffer() -> &'static Mutex<Vec<TraceEvent>> {
    static BUFFER: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    BUFFER.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock() -> std::sync::MutexGuard<'static, Vec<TraceEvent>> {
    buffer().lock().unwrap_or_else(|p| p.into_inner())
}

/// Appends a completed span event (called by [`crate::Span`] on drop).
pub fn push_complete(name: String, ts: f64, dur: f64) {
    lock().push(TraceEvent {
        name,
        ph: 'X',
        ts,
        dur,
        tid: crate::thread_id(),
        args: Vec::new(),
    });
}

/// Appends a structured instant event (e.g. an expert quarantine) with
/// the given arguments. No-op below trace level.
pub fn push_instant(name: &str, args: &[(&str, JsonValue)]) {
    if !crate::tracing() {
        return;
    }
    lock().push(TraceEvent {
        name: name.to_string(),
        ph: 'i',
        ts: crate::ts_micros(std::time::Instant::now()),
        dur: 0.0,
        tid: crate::thread_id(),
        args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
    });
}

/// Appends a counter-series sample (e.g. the per-iteration residual
/// norm). No-op below trace level.
pub fn push_counter(name: &str, value: f64) {
    if !crate::tracing() {
        return;
    }
    lock().push(TraceEvent {
        name: name.to_string(),
        ph: 'C',
        ts: crate::ts_micros(std::time::Instant::now()),
        dur: 0.0,
        tid: crate::thread_id(),
        args: vec![("value".to_string(), JsonValue::Number(value))],
    });
}

/// Number of buffered events.
pub fn event_count() -> usize {
    lock().len()
}

/// Clears the buffer.
pub fn clear() {
    lock().clear();
}

fn event_json(e: &TraceEvent) -> JsonValue {
    let field = |k: &str, v: JsonValue| (k.to_string(), v);
    let text = |s: &str| JsonValue::String(s.to_string());
    let mut fields = vec![
        field("name", text(&e.name)),
        field("cat", text("milo")),
        field("ph", text(&e.ph.to_string())),
        field("ts", JsonValue::Number(e.ts)),
    ];
    if e.ph == 'X' {
        fields.push(field("dur", JsonValue::Number(e.dur)));
    }
    fields.push(field("pid", JsonValue::Number(1.0)));
    fields.push(field("tid", JsonValue::Number(e.tid as f64)));
    if e.ph == 'i' {
        fields.push(field("s", text("t")));
    }
    if !e.args.is_empty() {
        fields.push(field("args", JsonValue::Object(e.args.clone())));
    }
    JsonValue::Object(fields)
}

/// Renders the whole buffer as Chrome trace-event JSON, sorted by
/// timestamp (monotonic by construction for the validator and stable
/// for diffs).
pub fn export_chrome() -> String {
    let mut events = lock().clone();
    events.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let doc = JsonValue::Object(vec![
        ("traceEvents".to_string(), JsonValue::Array(events.iter().map(event_json).collect())),
        ("displayTimeUnit".to_string(), JsonValue::String("ms".to_string())),
        (
            "otherData".to_string(),
            JsonValue::Object(vec![(
                "producer".to_string(),
                JsonValue::String("milo-obs".to_string()),
            )]),
        ),
    ]);
    doc.render() + "\n"
}

/// Summary returned by [`validate_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events.
    pub events: usize,
    /// Complete (`X`) span events.
    pub spans: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
}

/// Validates Chrome trace-event JSON: well-formed, a non-empty
/// `traceEvents` array, every event carrying a `name`, a known `ph`, a
/// finite non-negative `ts` (non-decreasing across the array) and — for
/// complete events — a finite non-negative `dur`; and, for every prefix
/// in `required_spans`, at least one complete event whose name starts
/// with it (the "≥1 span per instrumented stage" check).
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_trace(text: &str, required_spans: &[&str]) -> Result<TraceCheck, String> {
    let doc = json::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let mut check = TraceCheck { events: events.len(), spans: 0, instants: 0, counters: 0 };
    let mut last_ts = f64::NEG_INFINITY;
    let mut span_names: Vec<&str> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing ph"))?;
        let ts = e
            .get("ts")
            .and_then(JsonValue::as_number)
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} ({name}): bad ts {ts}"));
        }
        if ts < last_ts {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards (previous {last_ts})"
            ));
        }
        last_ts = ts;
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(JsonValue::as_number)
                    .ok_or_else(|| format!("event {i} ({name}): complete event missing dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i} ({name}): bad dur {dur}"));
                }
                check.spans += 1;
                span_names.push(name);
            }
            "i" => check.instants += 1,
            "C" => check.counters += 1,
            other => return Err(format!("event {i} ({name}): unknown ph {other:?}")),
        }
    }

    for prefix in required_spans {
        if !span_names.iter().any(|n| n.starts_with(prefix)) {
            return Err(format!("no span named {prefix}* in trace"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;

    #[test]
    fn export_roundtrips_through_the_validator() {
        let _g = crate::test_guard();
        crate::set_level(Level::Trace);
        drop(crate::span(|| "stage.alpha".into()));
        drop(crate::span(|| "stage.beta{layer=0}".into()));
        push_instant("evt.quarantine", &[
            ("layer", JsonValue::Number(0.0)),
            ("reason", JsonValue::String("non-finite \"output\"".into())),
        ]);
        push_counter("series.eps", 0.125);
        let json = export_chrome();
        let check = validate_trace(&json, &["stage.alpha", "stage.beta"]).unwrap();
        assert_eq!(check.events, 4);
        assert_eq!(check.spans, 2);
        assert_eq!(check.instants, 1);
        assert_eq!(check.counters, 1);
    }

    #[test]
    fn validator_rejects_missing_required_span() {
        let _g = crate::test_guard();
        crate::set_level(Level::Trace);
        drop(crate::span(|| "stage.alpha".into()));
        let json = export_chrome();
        let err = validate_trace(&json, &["stage.missing"]).unwrap_err();
        assert!(err.contains("stage.missing"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage_and_structural_faults() {
        assert!(validate_trace("not json", &[]).is_err());
        assert!(validate_trace("{}", &[]).is_err());
        assert!(validate_trace("{\"traceEvents\":[]}", &[]).is_err());
        assert!(validate_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}", &[]).is_err());
        // Backwards timestamps.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5.0,\"dur\":1.0,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":2.0,\"dur\":1.0,\"pid\":1,\"tid\":1}]}";
        let err = validate_trace(bad, &[]).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn below_trace_level_event_pushes_are_noops() {
        let _g = crate::test_guard();
        crate::set_level(Level::Metrics);
        push_instant("evt.x", &[]);
        push_counter("series.x", 1.0);
        assert_eq!(event_count(), 0);
    }
}
