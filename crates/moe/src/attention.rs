//! Multi-head causal self-attention over a key/value cache.
//!
//! The attention projections are the paper's canonical *dense* layers:
//! always activated, heavy-tailed (Table 2), most rank-sensitive
//! (§3.2.5). [`Attention::forward`] appends the new rows' keys and
//! values to a per-layer cache and attends each new row against its
//! prefix, so one routine serves a whole-sequence forward (empty cache),
//! a batched prefill, and a one-token decode step.

use crate::linear::Linear;
use crate::Result;
use milo_tensor::Matrix;

/// Multi-head causal self-attention with square projections of type `P`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attention<P = Matrix> {
    /// Query projection, `d × d`.
    pub wq: P,
    /// Key projection, `d × d`.
    pub wk: P,
    /// Value projection, `d × d`.
    pub wv: P,
    /// Output projection, `d × d`.
    pub wo: P,
    pub(crate) n_heads: usize,
}

impl Attention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics if the projections are not all `d × d` or `d` is not
    /// divisible by `n_heads`.
    pub fn new(wq: Matrix, wk: Matrix, wv: Matrix, wo: Matrix, n_heads: usize) -> Self {
        let d = wq.rows();
        for (name, w) in [("wq", &wq), ("wk", &wk), ("wv", &wv), ("wo", &wo)] {
            assert_eq!(w.shape(), (d, d), "{name} must be {d}x{d}");
        }
        assert!(n_heads > 0 && d.is_multiple_of(n_heads), "d={d} must divide by heads={n_heads}");
        Self { wq, wk, wv, wo, n_heads }
    }
}

impl<P> Attention<P> {
    /// Number of attention heads.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }
}

impl<P: Linear> Attention<P> {
    /// Applies causal self-attention to new rows `x` (`new × d`) that
    /// follow the positions already cached in `keys` / `values` (row
    /// per position, `d` values each): appends the new rows' keys and
    /// values, attends each new row against its prefix, and returns the
    /// output projection (`new × d`).
    ///
    /// # Errors
    ///
    /// The projections' errors (e.g. `x` has the wrong width); the cache
    /// is untouched on error.
    pub fn forward(
        &self,
        x: &Matrix,
        keys: &mut Vec<f32>,
        values: &mut Vec<f32>,
    ) -> Result<Matrix> {
        let q = self.wq.forward(x)?;
        let k = self.wk.forward(x)?;
        let v = self.wv.forward(x)?;
        let d = x.cols();
        let seen = keys.len() / d;
        keys.extend_from_slice(k.as_slice());
        values.extend_from_slice(v.as_slice());
        let mut ctx = Matrix::zeros(x.rows(), d);
        for i in 0..x.rows() {
            let end = (seen + i + 1) * d;
            attend_step(q.row(i), &keys[..end], &values[..end], self.n_heads, ctx.row_mut(i));
        }
        self.wo.forward(&ctx)
    }
}

/// Causal attention for one position against cached keys/values.
///
/// `q` is the position's query row (`d` values); `keys`/`values` hold
/// one row of `d` values per position up to and including this one. The
/// concatenated head context is added into `out` (`d` values, zeroed by
/// the caller).
pub fn attend_step(q: &[f32], keys: &[f32], values: &[f32], n_heads: usize, out: &mut [f32]) {
    let d = out.len();
    let seen = keys.len() / d;
    let hd = d / n_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    for h in 0..n_heads {
        let off = h * hd;
        let mut scores = Vec::with_capacity(seen);
        let mut max_s = f32::NEG_INFINITY;
        for j in 0..seen {
            let mut s = 0.0;
            for c in 0..hd {
                s += q[off + c] * keys[j * d + off + c];
            }
            let s = s * scale;
            max_s = max_s.max(s);
            scores.push(s);
        }
        let mut denom = 0.0;
        for s in &mut scores {
            *s = (*s - max_s).exp();
            denom += *s;
        }
        for (j, s) in scores.iter().enumerate() {
            let w = s / denom;
            for c in 0..hd {
                out[off + c] += w * values[j * d + off + c];
            }
        }
    }
}

/// RMS normalization over the feature dimension (no learnable gain, as
/// the synthetic models have no trained norm parameters).
pub fn rms_norm(x: &Matrix) -> Matrix {
    let d = x.cols();
    let mut y = x.clone();
    for r in 0..y.rows() {
        let row = y.row_mut(r);
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
        let rms = (ms + 1e-6).sqrt();
        row.iter_mut().for_each(|v| *v /= rms);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn attn(d: usize, heads: usize, seed: u64) -> Attention {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let dist = WeightDist::Gaussian { std: 0.1 };
        Attention::new(
            dist.sample_matrix(d, d, &mut rng),
            dist.sample_matrix(d, d, &mut rng),
            dist.sample_matrix(d, d, &mut rng),
            dist.sample_matrix(d, d, &mut rng),
            heads,
        )
    }

    /// Attention over a whole sequence: an empty cache.
    fn whole(a: &Attention, x: &Matrix) -> Matrix {
        a.forward(x, &mut Vec::new(), &mut Vec::new()).unwrap()
    }

    #[test]
    fn forward_preserves_shape() {
        let a = attn(16, 2, 1);
        let x = Matrix::filled(5, 16, 0.3);
        assert_eq!(whole(&a, &x).shape(), (5, 16));
    }

    #[test]
    fn causality_holds() {
        // Changing a later token must not affect earlier outputs.
        let a = attn(16, 2, 2);
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(3);
        let x1 = WeightDist::Gaussian { std: 1.0 }.sample_matrix(6, 16, &mut rng);
        let mut x2 = x1.clone();
        for c in 0..16 {
            x2[(5, c)] += 10.0;
        }
        let y1 = whole(&a, &x1);
        let y2 = whole(&a, &x2);
        for i in 0..5 {
            for c in 0..16 {
                assert_eq!(y1[(i, c)], y2[(i, c)], "position {i} leaked future info");
            }
        }
        // The changed position itself must differ.
        assert_ne!(y1.row(5), y2.row(5));
    }

    #[test]
    fn single_token_attends_to_itself() {
        let a = attn(8, 1, 4);
        let x = Matrix::filled(1, 8, 0.5);
        // With one token, attention weights are all 1 on itself:
        // y = wo · wv · x.
        let v = x.matmul(&a.wv.transpose()).unwrap();
        let expected = v.matmul(&a.wo.transpose()).unwrap();
        let y = whole(&a, &x);
        for (p, q) in y.as_slice().iter().zip(expected.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn chunked_rows_match_the_whole_sequence_bit_for_bit() {
        // Rows fed through the cache in chunks (prefill, then steps)
        // produce exactly the whole-sequence outputs.
        let a = attn(16, 4, 6);
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(7);
        let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(7, 16, &mut rng);
        let all = whole(&a, &x);
        let (mut keys, mut values) = (Vec::new(), Vec::new());
        for (r0, r1) in [(0, 3), (3, 4), (4, 7)] {
            let part = a.forward(&x.submatrix(r0, r1, 0, 16), &mut keys, &mut values).unwrap();
            assert_eq!(part.as_slice(), all.submatrix(r0, r1, 0, 16).as_slice(), "rows {r0}..{r1}");
        }
        assert_eq!(keys.len(), 7 * 16);
    }

    #[test]
    fn rms_norm_produces_unit_rms() {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(5);
        let x = WeightDist::Gaussian { std: 3.0 }.sample_matrix(4, 32, &mut rng);
        let y = rms_norm(&x);
        for r in 0..4 {
            let ms: f32 = y.row(r).iter().map(|v| v * v).sum::<f32>() / 32.0;
            assert!((ms - 1.0).abs() < 1e-3, "row {r} rms² {ms}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide by heads")]
    fn bad_head_count_panics() {
        let w = Matrix::zeros(10, 10);
        let _ = Attention::new(w.clone(), w.clone(), w.clone(), w, 3);
    }
}
