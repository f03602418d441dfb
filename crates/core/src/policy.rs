//! Adaptive rank-selection policies (paper §3.2.5).
//!
//! MoE models mix layers with very different characteristics: dense
//! layers (attention projections, shared experts, dense FFNs) see every
//! token and are heavy-tailed, while sparsely activated experts see token
//! subsets and are light-tailed (paper Observation 1). Rank policies
//! exploit this by assigning each layer its own compensator rank:
//!
//! * `Uniform-r` — the same rank everywhere,
//! * `Dense-r` — rank only for dense layers,
//! * `Sparse-r` — rank only for experts,
//! * `Kurtosis-r` — sparse-layer ranks proportional to weight kurtosis,
//!   average r,
//! * `Frequency-r` — sparse-layer ranks proportional to expert activation
//!   frequency, average r,
//!
//! and the composite strategies of Table 5 (`Dense-512 + Kurtosis-16`
//! etc.) combine a fixed dense rank with an adaptive sparse allocation.

use crate::{MiloError, Result};
use milo_quant::QuantConfig;

/// The structural role of a layer in an MoE model.
///
/// Dense kinds are always activated; [`LayerKind::Expert`] is sparsely
/// activated through the router. DeepSeek-style shared experts are dense
/// (paper Table 2 classifies them "SE(D)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Attention projection (q/k/v/o) — dense.
    Attention,
    /// A dense FFN block (e.g. DeepSeek-MoE's first layer) — dense.
    DenseFfn,
    /// A shared expert in a hybrid architecture — dense.
    SharedExpert,
    /// A routed expert, identified by its index within the MoE layer —
    /// sparse.
    Expert {
        /// Index of the expert within its MoE layer.
        index: usize,
    },
}

impl LayerKind {
    /// Whether this layer is densely activated (sees every token).
    pub fn is_dense(&self) -> bool {
        !matches!(self, LayerKind::Expert { .. })
    }
}

/// Metadata a rank policy consumes about one weight matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMeta {
    /// Structural role.
    pub kind: LayerKind,
    /// Output dimension of the weight matrix.
    pub rows: usize,
    /// Input dimension of the weight matrix.
    pub cols: usize,
    /// Excess kurtosis of the weight entries (paper Table 2 / Fig. 5).
    pub kurtosis: f32,
    /// Relative activation frequency of the owning expert in `[0, 1]`
    /// (1.0 for dense layers, which see every token).
    pub frequency: f32,
}

impl LayerMeta {
    /// Largest rank a compensator for this layer can have.
    pub fn max_rank(&self) -> usize {
        self.rows.min(self.cols)
    }
}

/// How ranks are distributed over the *sparse* (expert) layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparseAllocation {
    /// No compensation for experts.
    None,
    /// Every expert gets the same rank.
    Uniform(usize),
    /// Ranks proportional to weight kurtosis, with the stated average —
    /// the `Kurtosis-{r}` policy.
    Kurtosis {
        /// Target average rank across sparse layers.
        avg_rank: usize,
    },
    /// Ranks proportional to expert activation frequency, with the stated
    /// average — the `Frequency-{r}` policy.
    Frequency {
        /// Target average rank across sparse layers.
        avg_rank: usize,
    },
}

/// A complete rank policy: a fixed rank for dense layers plus a sparse
/// allocation.
///
/// # Examples
///
/// ```
/// use milo_core::{LayerKind, LayerMeta, RankPolicy, SparseAllocation};
///
/// let layers = [
///     LayerMeta { kind: LayerKind::Attention, rows: 64, cols: 64, kurtosis: 1.5, frequency: 1.0 },
///     LayerMeta { kind: LayerKind::Expert { index: 0 }, rows: 64, cols: 64, kurtosis: -0.2, frequency: 0.7 },
///     LayerMeta { kind: LayerKind::Expert { index: 1 }, rows: 64, cols: 64, kurtosis: -0.8, frequency: 0.3 },
/// ];
/// // Paper Table 5 style: a big dense rank plus a kurtosis-weighted
/// // expert budget averaging 4.
/// let policy = RankPolicy::composite(16, SparseAllocation::Kurtosis { avg_rank: 4 });
/// let ranks = policy.assign(&layers)?;
/// assert_eq!(ranks[0], 16);                  // dense layer
/// assert!(ranks[1] > ranks[2]);              // higher kurtosis, more rank
/// assert_eq!(ranks[1] + ranks[2], 8);        // budget = avg 4 × 2 experts
/// # Ok::<(), milo_core::MiloError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankPolicy {
    /// Rank assigned to every dense layer.
    pub dense_rank: usize,
    /// Allocation rule for expert layers.
    pub sparse: SparseAllocation,
}

impl RankPolicy {
    /// `Uniform-{r}`: the same rank for every layer.
    pub fn uniform(r: usize) -> Self {
        Self { dense_rank: r, sparse: SparseAllocation::Uniform(r) }
    }

    /// `Dense-{r}`: rank only for dense layers.
    pub fn dense_only(r: usize) -> Self {
        Self { dense_rank: r, sparse: SparseAllocation::None }
    }

    /// `Sparse-{r}`: rank only for expert layers.
    pub fn sparse_only(r: usize) -> Self {
        Self { dense_rank: 0, sparse: SparseAllocation::Uniform(r) }
    }

    /// A composite `Dense-{d} + <sparse>` strategy (paper Table 5).
    pub fn composite(dense_rank: usize, sparse: SparseAllocation) -> Self {
        Self { dense_rank, sparse }
    }

    /// Assigns a rank to each layer.
    ///
    /// Proportional allocations (kurtosis/frequency) are normalized so the
    /// *average* sparse rank matches the policy's target, then clamped to
    /// each layer's maximum rank.
    ///
    /// # Errors
    ///
    /// Returns [`MiloError::Policy`] if `layers` is empty.
    pub fn assign(&self, layers: &[LayerMeta]) -> Result<Vec<usize>> {
        if layers.is_empty() {
            return Err(MiloError::Policy("no layers to assign ranks to".into()));
        }
        let sparse_idx: Vec<usize> =
            (0..layers.len()).filter(|&i| !layers[i].kind.is_dense()).collect();

        let mut ranks = vec![0usize; layers.len()];
        for (i, meta) in layers.iter().enumerate() {
            if meta.kind.is_dense() {
                ranks[i] = self.dense_rank.min(meta.max_rank());
            }
        }

        match self.sparse {
            SparseAllocation::None => {}
            SparseAllocation::Uniform(r) => {
                for &i in &sparse_idx {
                    ranks[i] = r.min(layers[i].max_rank());
                }
            }
            SparseAllocation::Kurtosis { avg_rank } => {
                let scores: Vec<f32> = sparse_idx.iter().map(|&i| layers[i].kurtosis).collect();
                distribute(&mut ranks, &sparse_idx, &scores, avg_rank, layers);
            }
            SparseAllocation::Frequency { avg_rank } => {
                let scores: Vec<f32> = sparse_idx.iter().map(|&i| layers[i].frequency).collect();
                distribute(&mut ranks, &sparse_idx, &scores, avg_rank, layers);
            }
        }
        Ok(ranks)
    }
}

/// Distributes `avg_rank · n` total rank across the indexed layers
/// proportionally to `scores` (shifted to be positive), clamping to each
/// layer's maximum.
fn distribute(
    ranks: &mut [usize],
    idx: &[usize],
    scores: &[f32],
    avg_rank: usize,
    layers: &[LayerMeta],
) {
    if idx.is_empty() {
        return;
    }
    let min_score = scores.iter().cloned().fold(f32::INFINITY, f32::min);
    // Shift so all weights are positive; the +1 epsilon keeps the
    // lowest-scoring layer from being starved entirely.
    let shifted: Vec<f64> = scores.iter().map(|&s| (s - min_score) as f64 + 1e-3).collect();
    let total_weight: f64 = shifted.iter().sum();
    let budget = (avg_rank * idx.len()) as f64;
    for (pos, &i) in idx.iter().enumerate() {
        let r = (budget * shifted[pos] / total_weight).round() as usize;
        ranks[i] = r.min(layers[i].max_rank());
    }
}

/// Deployment memory of the compensators a rank assignment implies, in
/// bytes.
///
/// With `cfg = None` the factors stay FP16 (2 bytes/element); otherwise
/// each factor is billed by [`QuantConfig::packed_bytes`], the rule
/// [`QuantizedMatrix::packed_bytes`](milo_quant::QuantizedMatrix::packed_bytes)
/// applies to the realized factors.
pub fn compensator_memory_bytes(
    layers: &[LayerMeta],
    ranks: &[usize],
    cfg: Option<&QuantConfig>,
) -> usize {
    layers
        .iter()
        .zip(ranks)
        .map(|(meta, &r)| {
            if r == 0 {
                return 0;
            }
            match cfg {
                None => (meta.rows * r + r * meta.cols) * 2,
                // U is rows×r, V is r×cols.
                Some(c) => c.packed_bytes(meta.rows, r) + c.packed_bytes(r, meta.cols),
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(kind: LayerKind, kurtosis: f32, frequency: f32) -> LayerMeta {
        LayerMeta { kind, rows: 256, cols: 256, kurtosis, frequency }
    }

    fn mixed_layers() -> Vec<LayerMeta> {
        vec![
            meta(LayerKind::Attention, 1.5, 1.0),
            meta(LayerKind::SharedExpert, 0.3, 1.0),
            meta(LayerKind::Expert { index: 0 }, -0.5, 0.40),
            meta(LayerKind::Expert { index: 1 }, -0.8, 0.10),
            meta(LayerKind::Expert { index: 2 }, 0.2, 0.50),
        ]
    }

    #[test]
    fn uniform_assigns_everywhere() {
        let ranks = RankPolicy::uniform(16).assign(&mixed_layers()).unwrap();
        assert_eq!(ranks, vec![16; 5]);
    }

    #[test]
    fn dense_only_zeroes_experts() {
        let ranks = RankPolicy::dense_only(32).assign(&mixed_layers()).unwrap();
        assert_eq!(ranks, vec![32, 32, 0, 0, 0]);
    }

    #[test]
    fn sparse_only_zeroes_dense() {
        let ranks = RankPolicy::sparse_only(8).assign(&mixed_layers()).unwrap();
        assert_eq!(ranks, vec![0, 0, 8, 8, 8]);
    }

    #[test]
    fn kurtosis_allocation_orders_by_kurtosis() {
        let policy = RankPolicy::composite(64, SparseAllocation::Kurtosis { avg_rank: 16 });
        let ranks = policy.assign(&mixed_layers()).unwrap();
        // Dense layers get the fixed rank.
        assert_eq!(&ranks[..2], &[64, 64]);
        // Expert 2 (kurtosis 0.2) > expert 0 (-0.5) > expert 1 (-0.8).
        assert!(ranks[4] > ranks[2]);
        assert!(ranks[2] > ranks[3]);
    }

    #[test]
    fn kurtosis_allocation_preserves_average_budget() {
        let policy = RankPolicy::composite(0, SparseAllocation::Kurtosis { avg_rank: 16 });
        let ranks = policy.assign(&mixed_layers()).unwrap();
        let total: usize = ranks[2..].iter().sum();
        // 3 experts, target average 16 -> budget 48 (±rounding).
        assert!((total as i64 - 48).abs() <= 2, "total {total}");
    }

    #[test]
    fn frequency_allocation_orders_by_frequency() {
        let policy = RankPolicy::composite(0, SparseAllocation::Frequency { avg_rank: 16 });
        let ranks = policy.assign(&mixed_layers()).unwrap();
        // freq: expert2 (0.50) > expert0 (0.40) > expert1 (0.10).
        assert!(ranks[4] > ranks[2] || ranks[4] == ranks[2]);
        assert!(ranks[2] > ranks[3]);
    }

    #[test]
    fn ranks_clamp_to_layer_dimensions() {
        let mut layers = mixed_layers();
        layers[0].rows = 8; // attention layer now tiny
        let ranks = RankPolicy::uniform(64).assign(&layers).unwrap();
        assert_eq!(ranks[0], 8);
    }

    #[test]
    fn empty_layers_rejected() {
        assert!(matches!(
            RankPolicy::uniform(4).assign(&[]),
            Err(MiloError::Policy(_))
        ));
    }

    #[test]
    fn memory_accounting_fp16_vs_int3() {
        let layers = mixed_layers();
        let ranks = vec![16usize; 5];
        let fp16 = compensator_memory_bytes(&layers, &ranks, None);
        let int3 = compensator_memory_bytes(&layers, &ranks, Some(&QuantConfig::int3_sym()));
        assert!(int3 < fp16);
        // Paper Table 6 ratio: INT3 uses ~37.5% of INT8 == 18.75% of FP16
        // for the weights, plus scale overhead.
        let ratio = int3 as f32 / fp16 as f32;
        assert!(ratio > 0.18 && ratio < 0.35, "ratio {ratio}");
    }

    #[test]
    fn memory_is_zero_for_zero_ranks() {
        let layers = mixed_layers();
        assert_eq!(compensator_memory_bytes(&layers, &[0; 5], None), 0);
    }

    #[test]
    fn dense_kind_classification() {
        assert!(LayerKind::Attention.is_dense());
        assert!(LayerKind::DenseFfn.is_dense());
        assert!(LayerKind::SharedExpert.is_dense());
        assert!(!LayerKind::Expert { index: 3 }.is_dense());
    }
}
