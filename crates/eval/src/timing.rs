//! Wall-clock timing helper for quantization-cost experiments (paper
//! Table 1 and Fig. 8).

use std::time::Instant;

/// Runs `f`, returning its output and the elapsed wall-clock seconds.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_output_and_positive_time() {
        let (v, secs) = time_it(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(secs >= 0.0);
    }
}
