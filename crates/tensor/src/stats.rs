//! Statistics used by the paper's analysis: kurtosis (Table 2, Fig. 5),
//! relative Frobenius error (Fig. 5), residual-matrix rank (Table 2), and
//! histogram utilities for the information-loss figures (Figs. 2 and 4).

use crate::Matrix;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64) as f32
}

/// Population variance; 0 for an empty slice.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs) as f64;
    (xs.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64) as f32
}

/// Excess kurtosis `E[(X−μ)⁴]/σ⁴ − 3`.
///
/// The paper's Table 2 reports kurtosis values where the Gaussian baseline
/// is 0 (e.g. attention ≈ 1.57, experts ≈ −0.53), i.e. *excess* kurtosis,
/// which is what this returns. Returns 0 for slices with fewer than two
/// elements or zero variance.
pub fn excess_kurtosis(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs) as f64;
    let n = xs.len() as f64;
    let (mut m2, mut m4) = (0.0f64, 0.0f64);
    for &x in xs {
        let d = x as f64 - m;
        let d2 = d * d;
        m2 += d2;
        m4 += d2 * d2;
    }
    m2 /= n;
    m4 /= n;
    if m2 <= 0.0 {
        return 0.0;
    }
    (m4 / (m2 * m2) - 3.0) as f32
}

/// Excess kurtosis of all entries of a matrix.
pub fn matrix_kurtosis(w: &Matrix) -> f32 {
    excess_kurtosis(w.as_slice())
}

/// Relative Frobenius error `‖W − Ŵ‖_F / ‖W‖_F` (paper Fig. 5).
///
/// Returns 0 when `w` has zero norm.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn relative_frobenius_error(w: &Matrix, w_hat: &Matrix) -> f32 {
    assert_eq!(w.shape(), w_hat.shape(), "relative error needs equal shapes");
    let denom = w.frobenius_norm();
    if denom == 0.0 {
        return 0.0;
    }
    let diff = w.sub(w_hat).expect("shapes checked above");
    diff.frobenius_norm() / denom
}

/// The paper's residual-rank measure (Table 2): the number of singular
/// values `σ_i` **smaller than** `τ · σ_max`.
///
/// Counterintuitively this counts the *small* singular values — the paper
/// uses it as a tail-mass indicator: a large count means the spectrum
/// decays quickly relative to `σ_max`, which correlates negatively with
/// kurtosis in Table 2.
pub fn residual_rank(singular_values: &[f32], tau: f32) -> usize {
    let sigma_max = singular_values.iter().fold(0.0f32, |m, &s| m.max(s));
    if sigma_max == 0.0 {
        return 0;
    }
    singular_values.iter().filter(|&&s| s < tau * sigma_max).count()
}

/// A fixed-width histogram over a value range, used to print the FP16 and
/// INT3-dequantized weight distributions of paper Fig. 2.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self { lo, hi, counts: vec![0; bins] }
    }

    /// Adds one sample; a sample outside `[lo, hi]` is dropped.
    pub fn add(&mut self, x: f32) {
        if !(self.lo..=self.hi).contains(&x) {
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        let idx = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Adds every sample in the slice.
    pub fn add_all(&mut self, xs: &[f32]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Center value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f32 {
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + width * (i as f32 + 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_constant() {
        let xs = [2.0; 10];
        assert_eq!(mean(&xs), 2.0);
        assert_eq!(variance(&xs), 0.0);
    }

    #[test]
    fn empty_slices_yield_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(excess_kurtosis(&[]), 0.0);
    }

    #[test]
    fn kurtosis_of_two_point_distribution() {
        // Rademacher (±1) has excess kurtosis -2, the minimum possible.
        let xs: Vec<f32> = (0..1000).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        assert!((excess_kurtosis(&xs) - (-2.0)).abs() < 1e-3);
    }

    #[test]
    fn kurtosis_increases_with_outliers() {
        let mut xs = vec![0.1f32; 1000];
        let base = excess_kurtosis(&xs);
        xs[0] = 100.0;
        xs[1] = -100.0;
        assert!(excess_kurtosis(&xs) > base);
    }

    #[test]
    fn relative_error_zero_for_identical() {
        let w = Matrix::from_fn(4, 4, |r, c| (r * c) as f32);
        assert_eq!(relative_frobenius_error(&w, &w), 0.0);
    }

    #[test]
    fn relative_error_one_for_zero_estimate() {
        let w = Matrix::filled(3, 3, 2.0);
        let z = Matrix::zeros(3, 3);
        assert!((relative_frobenius_error(&w, &z) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn residual_rank_counts_small_singulars() {
        let sv = [10.0, 6.0, 4.0, 1.0];
        // tau=0.5: threshold 5.0, singular values below: 4.0 and 1.0.
        assert_eq!(residual_rank(&sv, 0.5), 2);
        assert_eq!(residual_rank(&sv, 0.05), 0);
        assert_eq!(residual_rank(&sv, 1.1), 4);
    }

    #[test]
    fn residual_rank_of_zero_spectrum() {
        assert_eq!(residual_rank(&[0.0, 0.0], 0.5), 0);
    }

    #[test]
    fn histogram_counts_in_range_samples_only() {
        let mut h = Histogram::new(-1.0, 1.0, 4);
        h.add_all(&[-0.9, -0.1, 0.1, 0.9, 5.0]);
        assert_eq!(h.counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn bin_center_is_midpoint() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-6);
        assert!((h.bin_center(1) - 0.75).abs() < 1e-6);
    }
}
