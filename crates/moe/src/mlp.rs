//! The SwiGLU feed-forward block used by both evaluation models:
//! `y = w2 · (silu(w1 · x) ⊙ (w3 · x))`.
//!
//! The three projection shapes (`w1, w3: ffn × d`, `w2: d × ffn`) are the
//! GEMMs the paper's kernel experiments target (Table 9 lists them per
//! model).

use crate::linear::Linear;
use crate::Result;
use milo_tensor::Matrix;

/// SiLU activation `x · σ(x)`.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// A SwiGLU MLP block over projections of type `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp<P = Matrix> {
    /// Gate projection, `ffn × d`.
    pub w1: P,
    /// Down projection, `d × ffn`.
    pub w2: P,
    /// Up projection, `ffn × d`.
    pub w3: P,
}

impl Mlp {
    /// Creates an MLP, validating that the three projections agree on
    /// `(ffn, d)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn new(w1: Matrix, w2: Matrix, w3: Matrix) -> Self {
        let (ffn, d) = w1.shape();
        assert_eq!(w3.shape(), (ffn, d), "w3 must match w1");
        assert_eq!(w2.shape(), (d, ffn), "w2 must be the transpose shape of w1");
        Self { w1, w2, w3 }
    }

    /// Model dimension.
    pub fn d_model(&self) -> usize {
        self.w1.cols()
    }
}

impl<P: Linear> Mlp<P> {
    /// Applies the block to a batch of token vectors (`tokens × d`),
    /// returning the same shape.
    ///
    /// # Errors
    ///
    /// The projections' errors (e.g. `x` has the wrong width).
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        // x: T×d. gate = x·w1ᵗ: T×ffn, up = x·w3ᵗ, h = silu(gate)⊙up,
        // y = h·w2ᵗ: T×d.
        let gate = self.w1.forward(x)?;
        let up = self.w3.forward(x)?;
        let h = Matrix::from_fn(gate.rows(), gate.cols(), |r, c| {
            silu(gate[(r, c)]) * up[(r, c)]
        });
        self.w2.forward(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn mlp(ffn: usize, d: usize, seed: u64) -> Mlp {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let dist = WeightDist::Gaussian { std: 0.1 };
        Mlp::new(
            dist.sample_matrix(ffn, d, &mut rng),
            dist.sample_matrix(d, ffn, &mut rng),
            dist.sample_matrix(ffn, d, &mut rng),
        )
    }

    #[test]
    fn silu_properties() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(10.0) - 10.0).abs() < 1e-3); // ≈ identity for large x
        assert!(silu(-10.0).abs() < 1e-3); // ≈ 0 for very negative x
    }

    #[test]
    fn forward_preserves_shape() {
        let m = mlp(32, 16, 1);
        let x = Matrix::filled(5, 16, 0.1);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 16));
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let m = mlp(16, 8, 2);
        let y = m.forward(&Matrix::zeros(3, 8)).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn forward_is_token_independent() {
        // Each row is processed independently: permuting rows permutes
        // outputs.
        let m = mlp(16, 8, 3);
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(4);
        let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(2, 8, &mut rng);
        let y = m.forward(&x).unwrap();
        let x_swapped = Matrix::from_fn(2, 8, |r, c| x[(1 - r, c)]);
        let y_swapped = m.forward(&x_swapped).unwrap();
        for c in 0..8 {
            assert_eq!(y[(0, c)], y_swapped[(1, c)]);
            assert_eq!(y[(1, c)], y_swapped[(0, c)]);
        }
    }

    #[test]
    #[should_panic(expected = "w2 must be the transpose shape")]
    fn inconsistent_shapes_panic() {
        let w1 = Matrix::zeros(8, 4);
        let w2 = Matrix::zeros(8, 4); // wrong orientation
        let w3 = Matrix::zeros(8, 4);
        let _ = Mlp::new(w1, w2, w3);
    }

    #[test]
    fn wrong_input_width_is_error() {
        let m = mlp(16, 8, 5);
        assert!(m.forward(&Matrix::zeros(2, 9)).is_err());
    }
}
