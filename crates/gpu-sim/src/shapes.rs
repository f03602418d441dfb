//! GEMM shapes of the evaluation models' FFN layers (paper Table 9).

/// A single GEMM problem: `out[m × n] = x[m × k] · W[k × n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Batch (rows of the activation matrix).
    pub m: usize,
    /// Reduction dimension (input features).
    pub k: usize,
    /// Output features.
    pub n: usize,
}

impl GemmShape {
    /// Creates a shape.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// FLOPs of the GEMM (`2·m·n·k`).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Number of weight elements.
    pub fn weight_elems(&self) -> f64 {
        self.k as f64 * self.n as f64
    }
}

/// The four models whose MLP layers the paper benchmarks in Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlpModel {
    /// DeepSeek-MoE: w1/w3 (2048, 11008), w2 (11008, 2048).
    DeepSeekMoe,
    /// Arctic-MoE: w1/w3 (7168, 4864), w2 (4864, 7168).
    ArcticMoe,
    /// Mixtral-8×7B: w1/w3 (4096, 14336), w2 (14336, 4096).
    Mixtral8x7b,
    /// Falcon-180B: w1 (14848, 74240), w2 (74240, 14848).
    Falcon180b,
}

impl MlpModel {
    /// All benchmarked models, smallest MLP first (the Fig. 10 x-axis
    /// ordering: "MLP sizes increase from left to right").
    pub fn all() -> [MlpModel; 4] {
        [
            MlpModel::DeepSeekMoe,
            MlpModel::ArcticMoe,
            MlpModel::Mixtral8x7b,
            MlpModel::Falcon180b,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            MlpModel::DeepSeekMoe => "DeepSeek-MoE",
            MlpModel::ArcticMoe => "Arctic-MoE",
            MlpModel::Mixtral8x7b => "Mixtral-8x7B",
            MlpModel::Falcon180b => "Falcon180B",
        }
    }

    /// The `(k, n)` weight shapes of this model's FFN projections
    /// (paper Table 9).
    pub fn weight_shapes(&self) -> Vec<(usize, usize)> {
        match self {
            MlpModel::DeepSeekMoe => vec![(2048, 11008), (11008, 2048), (2048, 11008)],
            MlpModel::ArcticMoe => vec![(7168, 4864), (4864, 7168), (7168, 4864)],
            MlpModel::Mixtral8x7b => vec![(4096, 14336), (14336, 4096), (4096, 14336)],
            MlpModel::Falcon180b => vec![(14848, 74240), (74240, 14848)],
        }
    }
}

/// The GEMM problems of one model's MLP at a given batch size.
pub fn mlp_shapes(model: MlpModel, batch: usize) -> Vec<GemmShape> {
    model
        .weight_shapes()
        .into_iter()
        .map(|(k, n)| GemmShape::new(batch, k, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_shapes_match_paper() {
        assert_eq!(
            MlpModel::Mixtral8x7b.weight_shapes(),
            vec![(4096, 14336), (14336, 4096), (4096, 14336)]
        );
        assert_eq!(MlpModel::Falcon180b.weight_shapes().len(), 2);
        assert_eq!(MlpModel::Falcon180b.weight_shapes()[0].1, 14848 * 5);
    }

    #[test]
    fn models_are_ordered_by_mlp_size() {
        let sizes: Vec<f64> = MlpModel::all()
            .iter()
            .map(|m| m.weight_shapes().iter().map(|&(k, n)| (k * n) as f64).sum())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "Fig. 10 ordering violated: {sizes:?}");
        }
    }

    #[test]
    fn flops_formula() {
        let s = GemmShape::new(2, 3, 4);
        assert_eq!(s.flops(), 48.0);
        assert_eq!(s.weight_elems(), 12.0);
    }

    #[test]
    fn mlp_shapes_carry_batch() {
        let shapes = mlp_shapes(MlpModel::DeepSeekMoe, 16);
        assert_eq!(shapes.len(), 3);
        assert!(shapes.iter().all(|s| s.m == 16));
    }
}
