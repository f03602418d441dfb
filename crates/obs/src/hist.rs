//! Fixed-bucket log-linear histograms with percentile estimation.
//!
//! The bucket layout is the HdrHistogram-style compromise: values
//! `0..16` get exact buckets, and every power-of-two range above that is
//! split into 16 linear sub-buckets, so the relative quantization error
//! of any recorded value is at most 1/16 ≈ 6.25%. With 64-bit values
//! that is 976 buckets — one cache-friendly `AtomicU64` array, no
//! allocation on the record path, and safe concurrent recording from
//! pool worker threads.

use std::sync::atomic::{AtomicU64, Ordering};

/// Exact buckets for values below 16.
const EXACT: usize = 16;
/// Linear sub-buckets per power-of-two range.
const SUBS: usize = 16;
/// Total bucket count: 16 exact + 16 per exponent 4..=63.
pub const N_BUCKETS: usize = EXACT + (64 - 4) * SUBS;

/// What a histogram's values denominate, used only for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds (spans, latency splits).
    Nanos,
    /// Millionths of a dimensionless quantity (residual norms, entropy
    /// in nats ×1e6).
    Micro,
    /// Plain counts.
    Count,
}

/// Index of the bucket `v` falls into.
fn bucket_index(v: u64) -> usize {
    if v < EXACT as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (exp - 4)) & 0xF) as usize;
    EXACT + (exp - 4) * SUBS + sub
}

/// Representative (midpoint) value of bucket `idx`.
fn bucket_value(idx: usize) -> u64 {
    if idx < EXACT {
        return idx as u64;
    }
    let exp = 4 + (idx - EXACT) / SUBS;
    let sub = ((idx - EXACT) % SUBS) as u64;
    let width = 1u64 << (exp - 4);
    let lower = (1u64 << exp) + sub * width;
    lower + width / 2
}

/// A concurrent fixed-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    unit: Unit,
}

impl Histogram {
    /// Creates an empty histogram denominated in `unit`.
    pub fn new(unit: Unit) -> Self {
        Self {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            unit,
        }
    }

    /// Records one observation. Lock-free; relative bucket error ≤ 6.25%.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The `q`-th percentile (`0.0 ..= 100.0`) as the representative
    /// value of the bucket holding that rank, clamped to the observed
    /// min/max so an almost-empty histogram does not report a bucket
    /// midpoint outside the data. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let mut value = self.max.load(Ordering::Relaxed);
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                value = bucket_value(i);
                break;
            }
        }
        value
            .clamp(self.min.load(Ordering::Relaxed), self.max.load(Ordering::Relaxed))
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / total as f64
    }

    /// A point-in-time copy of the summary statistics.
    pub fn snapshot(&self) -> HistSnapshot {
        let count = self.count();
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            mean: self.mean(),
            unit: self.unit,
        }
    }
}

/// Summary statistics of a [`Histogram`] at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Exact mean.
    pub mean: f64,
    /// Display unit.
    pub unit: Unit,
}

impl HistSnapshot {
    /// Formats a raw value in this snapshot's unit for humans
    /// (`1.234ms`, `0.56`, `12`).
    pub fn format(&self, v: u64) -> String {
        format_value(v, self.unit)
    }
}

/// Formats `v` according to `unit`.
pub fn format_value(v: u64, unit: Unit) -> String {
    match unit {
        Unit::Nanos => {
            let ns = v as f64;
            if ns >= 1e9 {
                format!("{:.2}s", ns / 1e9)
            } else if ns >= 1e6 {
                format!("{:.2}ms", ns / 1e6)
            } else if ns >= 1e3 {
                format!("{:.1}us", ns / 1e3)
            } else {
                format!("{ns:.0}ns")
            }
        }
        Unit::Micro => format!("{:.4}", v as f64 / 1e6),
        Unit::Count => v.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, 10_000_000_000] {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.0625 + 1e-9, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn exact_buckets_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = Histogram::new(Unit::Nanos);
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50={p50}");
        assert!((p95 as f64 - 950.0).abs() / 950.0 < 0.07, "p95={p95}");
        assert!((p99 as f64 - 990.0).abs() / 990.0 < 0.07, "p99={p99}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn single_value_percentiles_collapse_to_it() {
        let h = Histogram::new(Unit::Count);
        h.record(42);
        for q in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), 42);
        }
        let s = h.snapshot();
        assert_eq!((s.min, s.max, s.count), (42, 42, 1));
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new(Unit::Nanos);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new(Unit::Nanos);
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn formatting_by_unit() {
        assert_eq!(format_value(500, Unit::Nanos), "500ns");
        assert_eq!(format_value(1_500, Unit::Nanos), "1.5us");
        assert_eq!(format_value(2_500_000, Unit::Nanos), "2.50ms");
        assert_eq!(format_value(3_000_000_000, Unit::Nanos), "3.00s");
        assert_eq!(format_value(1_500_000, Unit::Micro), "1.5000");
        assert_eq!(format_value(7, Unit::Count), "7");
    }
}
