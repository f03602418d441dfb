//! RAII timing spans.
//!
//! A span measures the wall-clock time between its creation and its
//! drop. On drop it records the duration into the histogram registered
//! under the span's name (unit: nanoseconds), and — at trace level —
//! appends a Chrome "complete" event carrying the span's thread id, so
//! nested spans render as a flame graph in `chrome://tracing`.

use crate::hist::Unit;
use crate::{registry, trace};
use std::time::Instant;

/// An active span; see [`span`].
#[derive(Debug)]
pub struct Span {
    /// `None` when telemetry was off at creation — drop is then a no-op.
    start: Option<Instant>,
    name: String,
}

/// Opens a span. The name closure is only invoked when telemetry is
/// enabled, so callers can interpolate labels without paying the
/// formatting cost on the disabled path:
///
/// ```
/// let _span = milo_obs::span(|| format!("engine.layer{{layer={}}}", 3));
/// ```
pub fn span(name: impl FnOnce() -> String) -> Span {
    if !crate::enabled() {
        return Span { start: None, name: String::new() };
    }
    Span { start: Some(Instant::now()), name: name() }
}

impl Span {
    /// The span's name (empty for a disabled span).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else { return };
        let dur = start.elapsed();
        let ns = dur.as_nanos() as u64;
        // Record even if the level dropped mid-span: the span was opened
        // under an enabled level and a half-recorded run is confusing.
        registry::histogram(&self.name, Unit::Nanos).record(ns);
        if crate::tracing() {
            trace::push_complete(
                std::mem::take(&mut self.name),
                crate::ts_micros(start),
                dur.as_secs_f64() * 1e6,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricSnapshot;
    use crate::Level;

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::test_guard();
        crate::set_level(Level::Off);
        drop(span(|| "t.span.off".into()));
        assert!(registry::snapshot().is_empty());
    }

    #[test]
    fn span_records_histogram_at_metrics_level() {
        let _g = crate::test_guard();
        crate::set_level(Level::Metrics);
        {
            let s = span(|| "t.span.on".into());
            assert_eq!(s.name(), "t.span.on");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = registry::snapshot();
        let Some((_, MetricSnapshot::Histogram(h))) =
            snap.iter().find(|(k, _)| k == "t.span.on")
        else {
            panic!("span histogram missing: {snap:?}");
        };
        assert_eq!(h.count, 1);
        assert!(h.p50 >= 500_000, "slept ≥1ms, recorded {}ns", h.p50);
        // Metrics level does not feed the trace buffer.
        assert_eq!(trace::event_count(), 0);
    }

    #[test]
    fn span_feeds_trace_buffer_at_trace_level() {
        let _g = crate::test_guard();
        crate::set_level(Level::Trace);
        drop(span(|| "t.span.traced".into()));
        assert_eq!(trace::event_count(), 1);
    }
}
