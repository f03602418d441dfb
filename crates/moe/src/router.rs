//! Top-k softmax expert routing.
//!
//! Each token's routing logits are `W_r · x + b`, where the per-expert
//! bias `b` is the synthesis knob that reproduces the skewed activation
//! frequencies of paper Fig. 3 (DeepSeek-MoE's most-used expert fires
//! 11.7× more often than its least-used sibling). The selected experts'
//! weights are the softmax of their logits renormalized over the top-k,
//! as in Mixtral.

use crate::{MoeError, Result};
use milo_tensor::Matrix;

/// A top-k router over `n_experts`.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    /// Routing projection, `n_experts × d`.
    pub weight: Matrix,
    /// Per-expert logit bias, length `n_experts`.
    pub bias: Vec<f32>,
    top_k: usize,
}

impl Router {
    /// Creates a router.
    ///
    /// # Panics
    ///
    /// Panics if the bias length does not match the expert count or
    /// `top_k` is zero or exceeds the expert count.
    pub fn new(weight: Matrix, bias: Vec<f32>, top_k: usize) -> Self {
        assert_eq!(weight.rows(), bias.len(), "one bias per expert");
        assert!(top_k >= 1 && top_k <= weight.rows(), "invalid top_k {top_k}");
        Self { weight, bias, top_k }
    }

    /// Number of experts.
    pub fn n_experts(&self) -> usize {
        self.weight.rows()
    }

    /// Router top-k.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Routes one token vector, returning `(expert index, gate weight)`
    /// pairs for the top-k experts. Gate weights are softmax-normalized
    /// over the selected experts and sum to 1.
    ///
    /// A dimension mismatch is a typed error, and non-finite routing
    /// logits are rejected (a NaN or Inf activation reaching the router
    /// would otherwise silently poison every gate weight downstream).
    ///
    /// # Errors
    ///
    /// [`MoeError::Tensor`] on a dimension mismatch,
    /// [`MoeError::InvalidInput`] if any routing logit is non-finite.
    pub fn try_route(&self, x: &[f32]) -> Result<Vec<(usize, f32)>> {
        let base = self.weight.matvec(x)?;
        let logits: Vec<f32> =
            base.iter().zip(&self.bias).map(|(l, b)| l + b).collect();
        if let Some(i) = logits.iter().position(|l| !l.is_finite()) {
            return Err(MoeError::InvalidInput(format!(
                "non-finite routing logit for expert {i}"
            )));
        }
        Ok(self.pick_top_k(&logits))
    }

    /// Top-k selection + softmax over the selected logits. Uses a total
    /// order so a stray NaN cannot panic the comparator (`try_route`
    /// screens them out before this).
    fn pick_top_k(&self, logits: &[f32]) -> Vec<(usize, f32)> {
        let mut order: Vec<usize> = (0..logits.len()).collect();
        order.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
        let selected = &order[..self.top_k];
        let max_l = logits[selected[0]];
        let exps: Vec<f32> = selected.iter().map(|&i| (logits[i] - max_l).exp()).collect();
        let denom: f32 = exps.iter().sum();
        selected.iter().zip(&exps).map(|(&i, &e)| (i, e / denom)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn router(n: usize, d: usize, top_k: usize, bias_std: f32, seed: u64) -> Router {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let w = WeightDist::Gaussian { std: 0.5 }.sample_matrix(n, d, &mut rng);
        let bias: Vec<f32> = (0..n)
            .map(|_| WeightDist::Gaussian { std: bias_std }.sample(&mut rng))
            .collect();
        Router::new(w, bias, top_k)
    }

    #[test]
    fn gates_sum_to_one() {
        let r = router(8, 16, 2, 0.0, 1);
        let x = vec![0.3; 16];
        let routes = r.try_route(&x).unwrap();
        assert_eq!(routes.len(), 2);
        let total: f32 = routes.iter().map(|(_, g)| g).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn top_k_selects_highest_logits() {
        // Identity-ish weight: logits = x (padded); biggest coordinates win.
        let w = Matrix::identity(4);
        let r = Router::new(w, vec![0.0; 4], 2);
        let routes = r.try_route(&[0.1, 5.0, -2.0, 3.0]).unwrap();
        let chosen: Vec<usize> = routes.iter().map(|&(i, _)| i).collect();
        assert_eq!(chosen, vec![1, 3]);
        assert!(routes[0].1 > routes[1].1);
    }

    #[test]
    fn bias_skews_selection() {
        let mut r = router(4, 8, 1, 0.0, 2);
        r.bias = vec![100.0, 0.0, 0.0, 0.0];
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let x: Vec<f32> =
                (0..8).map(|_| WeightDist::Gaussian { std: 1.0 }.sample(&mut rng)).collect();
            assert_eq!(r.try_route(&x).unwrap()[0].0, 0, "biased expert must always win");
        }
    }

    #[test]
    fn distinct_experts_selected() {
        let r = router(8, 16, 3, 0.5, 4);
        let routes = r.try_route(&[0.7; 16]).unwrap();
        let mut idx: Vec<usize> = routes.iter().map(|&(i, _)| i).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 3, "top-k must not repeat experts");
    }

    #[test]
    #[should_panic(expected = "invalid top_k")]
    fn zero_top_k_panics() {
        let _ = Router::new(Matrix::zeros(4, 8), vec![0.0; 4], 0);
    }

    #[test]
    fn try_route_rejects_nan_activations_without_panicking() {
        let r = router(4, 8, 2, 0.0, 10);
        let mut x = vec![0.1; 8];
        x[3] = f32::NAN;
        assert!(matches!(r.try_route(&x), Err(crate::MoeError::InvalidInput(_))));
    }

    #[test]
    fn try_route_rejects_dimension_mismatch() {
        let r = router(4, 8, 2, 0.0, 11);
        assert!(matches!(r.try_route(&[0.0; 5]), Err(crate::MoeError::Tensor(_))));
    }
}
