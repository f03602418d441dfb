//! Seeded workload inputs. Every arrival schedule, prompt list and
//! sample choice is a pure function of the workload seed.
//!
//! Lengths and inter-arrival gaps are *stratified*: every seed yields the
//! same multiset of prompt lengths (each length in the range equally
//! often) and the same multiset of exponential gaps (the inverse CDF at
//! evenly spaced quantiles), in a seed-dependent order and with
//! seed-dependent tokens. A new seed changes what arrives when, not how
//! much work a run holds, so the spread between seeds stays down to what
//! the system itself contributes.

use std::collections::HashSet;
use std::time::Duration;

use milo_tensor::prng::{Rng, SeedableRng};
use milo_tensor::rng::StdRng;

/// Independent sub-streams of one workload seed.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Lengths = 1,
    Tokens = 2,
    Arrivals = 3,
    Sample = 4,
}

fn stream(seed: u64, s: Stream) -> StdRng {
    StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` prompt lengths covering `lo..=hi` round-robin, in seeded order.
///
/// # Panics
///
/// Panics unless `1 <= lo <= hi`.
pub fn lengths(n: usize, lo: usize, hi: usize, seed: u64) -> Vec<usize> {
    assert!(lo >= 1 && lo <= hi, "bad prompt length range {lo}..={hi}");
    let span = hi - lo + 1;
    let mut lens: Vec<usize> = (0..n).map(|i| lo + i % span).collect();
    shuffle(&mut lens, &mut stream(seed, Stream::Lengths));
    lens
}

/// `n` pairwise-distinct prompts with [`lengths`] over a `vocab`-token
/// vocabulary. Distinct prompts let the benchmark match each forward call
/// the server makes back to the request that caused it.
pub fn prompts(n: usize, lo: usize, hi: usize, vocab: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = stream(seed, Stream::Tokens);
    let mut seen = HashSet::with_capacity(n);
    lengths(n, lo, hi, seed)
        .into_iter()
        .map(|len| loop {
            let p: Vec<u32> = (0..len).map(|_| rng.gen_range(0..vocab as u32)).collect();
            if seen.insert(p.clone()) {
                break p;
            }
        })
        .collect()
}

/// Send times, as offsets from the start, of `n` open-loop Poisson
/// arrivals at `rate_per_s`: exponential gaps at the stratified quantiles
/// `(i + ½) / n`, in seeded order.
pub fn arrivals(n: usize, rate_per_s: f64, seed: u64) -> Vec<Duration> {
    let mut gaps: Vec<f64> =
        (0..n).map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate_per_s).collect();
    shuffle(&mut gaps, &mut stream(seed, Stream::Arrivals));
    let mut at = 0.0;
    gaps.into_iter()
        .map(|g| {
            at += g;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// `k` distinct indices out of `0..n`, ascending.
pub fn sample(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(&mut idx, &mut stream(seed, Stream::Sample));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_inputs() {
        assert_eq!(prompts(300, 4, 32, 512, 7), prompts(300, 4, 32, 512, 7));
        assert_eq!(arrivals(500, 50.0, 7), arrivals(500, 50.0, 7));
        assert_eq!(sample(100, 8, 7), sample(100, 8, 7));
        assert_eq!(lengths(50, 4, 12, 7), lengths(50, 4, 12, 7));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(prompts(300, 4, 32, 512, 7), prompts(300, 4, 32, 512, 8));
        assert_ne!(arrivals(500, 50.0, 7), arrivals(500, 50.0, 8));
        assert_ne!(sample(100, 8, 7), sample(100, 8, 8));
    }

    #[test]
    fn stratification_fixes_the_work_across_seeds() {
        let sorted = |mut v: Vec<usize>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(lengths(290, 4, 32, 1)), sorted(lengths(290, 4, 32, 2)));
        // Every length of the range appears equally often.
        let lens = lengths(290, 4, 32, 3);
        for len in 4..=32 {
            assert_eq!(lens.iter().filter(|&&l| l == len).count(), 10, "length {len}");
        }
        // Same gaps in another order: the schedule spans the same time,
        // close to n / rate.
        let span = |s| arrivals(1000, 50.0, s).last().unwrap().as_secs_f64();
        assert!((span(1) - span(2)).abs() < 1e-6);
        assert!((span(1) - 20.0).abs() < 0.2, "span {}", span(1));
    }

    #[test]
    fn prompts_are_distinct_and_in_range() {
        let ps = prompts(400, 4, 12, 64, 11);
        let distinct: HashSet<&Vec<u32>> = ps.iter().collect();
        assert_eq!(distinct.len(), ps.len());
        assert!(ps.iter().all(|p| (4..=12).contains(&p.len())));
        assert!(ps.iter().flatten().all(|&t| t < 64));
    }

    #[test]
    fn arrivals_never_go_backwards() {
        let a = arrivals(300, 50.0, 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_is_a_sorted_distinct_subset() {
        let s = sample(50, 10, 9);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 50));
        assert_eq!(sample(3, 10, 9), vec![0, 1, 2]);
    }
}
