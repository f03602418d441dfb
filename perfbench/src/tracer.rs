//! Benchmark-side spans in the `milo_obs` trace buffer.
//!
//! The traced pass runs the program at trace level, so its own spans
//! (engine layers, packed GEMMs, quantizer) land in the `milo_obs`
//! buffer. The benchmark adds spans around the public calls it makes —
//! `Server::submit`, `Ticket::wait`, the forward call the server hands
//! the model, `prefill`, `forward_step`, the set-up stages and the
//! `PackedLinear::forward` replay — named `bench.…{req=N}` (or
//! `{session=N}`) so every span of one request shares its id. They are
//! timed with `Instant` on the benchmark's side, written into the same
//! buffer on the same clock, and exported once at the end.

use std::path::Path;
use std::time::Instant;

use milo_obs::json::{self, JsonValue};
use milo_obs::{Level, TraceCheck};

/// Name of the counter sample that aligns the two clocks.
const CLOCK_EVENT: &str = "bench.clock";

/// Writes benchmark spans into the `milo_obs` trace buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// `origin` on the buffer's clock, in microseconds.
    origin_us: f64,
}

impl Tracer {
    /// Switches telemetry to trace level, empties the metric registry and
    /// the trace buffer, and aligns the benchmark's clock with the
    /// buffer's through one counter sample taken at a known instant.
    ///
    /// # Errors
    ///
    /// If the buffer does not hand the sample back.
    pub fn start() -> Result<Self, String> {
        milo_obs::set_level(Level::Trace);
        milo_obs::reset();
        let origin = Instant::now();
        milo_obs::trace::push_counter(CLOCK_EVENT, 0.0);
        let doc = json::parse(&milo_obs::trace::export_chrome())?;
        let origin_us = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .and_then(|events| {
                events
                    .iter()
                    .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(CLOCK_EVENT))
            })
            .and_then(|e| e.get("ts"))
            .and_then(JsonValue::as_number)
            .ok_or("trace buffer lost the clock sample")?;
        Ok(Self { origin, origin_us })
    }

    /// Records a complete span from `start` to `end`.
    pub fn span(&self, name: String, start: Instant, end: Instant) {
        let ts = self.origin_us + start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let dur = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        milo_obs::trace::push_complete(name, ts, dur);
    }

    /// Exports the buffer as a Chrome trace to `path` and checks it with
    /// `milo_obs::validate_trace`, requiring a span for every prefix in
    /// `required`.
    ///
    /// # Errors
    ///
    /// I/O failures and validation failures, as text.
    pub fn finish(&self, path: &Path, required: &[&str]) -> Result<TraceCheck, String> {
        let text = milo_obs::trace::export_chrome();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        milo_obs::validate_trace(&text, required)
            .map_err(|e| format!("trace {} is invalid: {e}", path.display()))
    }
}
