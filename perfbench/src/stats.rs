//! Latency summaries under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the *highest* percentile from
//! [`TAIL_LADDER`] that still has at least [`MIN_BEYOND`] samples beyond
//! it, so a tail figure is never a single outlier. Percentiles use the
//! nearest-rank definition on integer per-mille arithmetic, so the
//! choice of percentile is exact for every sample count.

/// Candidate tail percentiles in per-mille, highest first.
pub const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which the rule yields even a median.
pub const MIN_SAMPLES: usize = 2 * MIN_BEYOND;

/// Zero-based nearest-rank index of the `permille` percentile among `n`
/// sorted samples (`n > 0`).
pub fn rank_index(permille: u32, n: usize) -> usize {
    let rank = (permille as usize * n).div_ceil(1000);
    rank.clamp(1, n) - 1
}

/// How many of `n` sorted samples lie strictly after the `permille`
/// percentile's rank.
pub fn samples_beyond(permille: u32, n: usize) -> usize {
    n - 1 - rank_index(permille, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n < MIN_SAMPLES`.
pub fn tail_permille(n: usize) -> Option<u32> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(p, n) >= MIN_BEYOND)
}

/// Formats a per-mille percentile as `p99`, `p99.9`, …
pub fn label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// Median and rule-chosen tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (nearest rank).
    pub p50: f64,
    /// Value at [`Summary::tail_permille`].
    pub tail: f64,
    /// The percentile the rule picked for `tail`, in per-mille.
    pub tail_permille: u32,
}

/// Summarizes `samples`, or `None` if there are too few for the rule.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let tail_permille = tail_permille(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(Summary {
        p50: sorted[rank_index(500, n)],
        tail: sorted[rank_index(tail_permille, n)],
        tail_permille,
    })
}

/// Median of `samples` (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(500, sorted.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(990, 1000), 10);
        assert_eq!(tail_permille(1000), Some(990));
        // One sample short and p99 has only nine beyond it.
        assert_eq!(samples_beyond(990, 999), 9);
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn ladder_steps_down_with_the_sample_count() {
        assert_eq!(tail_permille(300), Some(950));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(46), Some(750));
        assert_eq!(tail_permille(MIN_SAMPLES), Some(500));
        assert_eq!(tail_permille(MIN_SAMPLES - 1), None);
        assert_eq!(tail_permille(0), None);
    }

    #[test]
    fn every_chosen_tail_has_enough_samples_beyond_it() {
        for n in MIN_SAMPLES..3000 {
            let p = tail_permille(n).unwrap();
            assert!(samples_beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
            // And no higher ladder rung would also qualify.
            for &higher in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(samples_beyond(higher, n) < MIN_BEYOND, "n={n} q={higher}");
            }
        }
    }

    #[test]
    fn summary_reads_the_right_order_statistics() {
        // Values 1..=1000 in scrambled order: p50 is the 500th smallest,
        // p99 the 990th — exactly ten values lie above it.
        let samples: Vec<f64> = (0..1000).map(|i| ((i * 337) % 1000 + 1) as f64).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_permille, 990);
        assert_eq!(s.tail, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);
        assert!(summarize(&samples[..MIN_SAMPLES - 1]).is_none());
    }

    #[test]
    fn labels_and_median() {
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
        assert_eq!(label(500), "p50");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
