//! A weight matrix in the packed INT3 deployment layout.
//!
//! The paper's kernel loads weights in units of three `u32` words per
//! 32-weight group, which breaks alignment for bulk (128-bit) loads. The
//! fix (§3.3) is to split the storage into **two** arrays: a *main* array
//! holding the first two words of each group (naturally 8-byte aligned)
//! and a *tail* array holding the third word. [`PackedMatrix`] mirrors
//! that split.

use crate::dequant::{dequant_word_asym, dequant_word_sym};
use crate::layout::{pack_group, virtual_word, GROUP};
use crate::{PackError, Result};
use milo_quant::{QuantConfig, QuantizedMatrix, Scheme};
use milo_tensor::{F16, Matrix};

/// A 3-bit quantized weight matrix in the zero-waste packed layout,
/// split into main/tail word arrays.
///
/// # Examples
///
/// ```
/// use milo_pack::PackedMatrix;
/// use milo_quant::{rtn_quantize, QuantConfig};
/// use milo_tensor::{rng::WeightDist, stats};
/// use milo_tensor::rng::SeedableRng;
///
/// let mut rng = milo_tensor::rng::StdRng::seed_from_u64(2);
/// let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(4, 64, &mut rng);
/// let q = rtn_quantize(&w, &QuantConfig::int3_asym())?;
/// let packed = PackedMatrix::pack(&q).expect("3-bit, 64-wide: packable");
///
/// // 3 bits/weight + FP16 scale+zero per group of 64:
/// assert_eq!(packed.memory_bytes(), 4 * 64 * 3 / 8 + 4 * 4);
/// // The FP16 bit-trick dequant path agrees with the reference.
/// let err = stats::relative_frobenius_error(&q.dequantize(), &packed.dequantize());
/// assert!(err < 5e-3);
/// # Ok::<(), milo_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    /// Two words per 32-weight group, row-major by (row, group).
    main: Vec<u32>,
    /// One word per 32-weight group, same order.
    tail: Vec<u32>,
    /// Per-quant-group FP16 scale (grid step for symmetric schemes), as
    /// the strip decoder multiplies by it.
    scales: Vec<F16>,
    /// Per-quant-group FP16 offset `−zero·scale` (empty for symmetric
    /// schemes).
    offsets: Vec<F16>,
    cfg: QuantConfig,
}

impl PackedMatrix {
    /// Packs an unpacked [`QuantizedMatrix`] into the deployment layout.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::Unsupported`] unless the matrix is 3-bit with
    /// a quantization group size that is a multiple of 32 (so no packing
    /// group straddles a scale boundary), and [`PackError::InvalidShape`]
    /// unless the column count is a multiple of 32.
    pub fn pack(q: &QuantizedMatrix) -> Result<Self> {
        let cfg = q.config();
        if cfg.bits() != 3 {
            return Err(PackError::Unsupported(format!(
                "packed layout is 3-bit only, got {} bits",
                cfg.bits()
            )));
        }
        if cfg.group_size() % GROUP != 0 {
            return Err(PackError::Unsupported(format!(
                "quant group size {} must be a multiple of {GROUP}",
                cfg.group_size()
            )));
        }
        let (rows, cols) = q.shape();
        if cols % GROUP != 0 {
            return Err(PackError::InvalidShape(format!(
                "column count {cols} is not a multiple of {GROUP}"
            )));
        }

        let groups_per_row = cols / GROUP;
        let mut main = Vec::with_capacity(rows * groups_per_row * 2);
        let mut tail = Vec::with_capacity(rows * groups_per_row);
        for r in 0..rows {
            let row = &q.codes()[r * cols..(r + 1) * cols];
            for g in 0..groups_per_row {
                let mut chunk = [0u8; GROUP];
                chunk.copy_from_slice(&row[g * GROUP..(g + 1) * GROUP]);
                let words = pack_group(&chunk);
                main.push(words[0]);
                main.push(words[1]);
                tail.push(words[2]);
            }
        }
        // The FP16 values the strip decoder multiplies and adds, rounded
        // once at pack time (symmetric schemes have no zeros, hence no
        // offsets).
        let scales = q.scales().iter().map(|&s| F16::from_f32(s)).collect();
        let offsets = q.scales().iter().zip(q.zeros()).map(|(&s, &z)| F16::from_f32(-z * s));
        Ok(Self { rows, cols, main, tail, scales, offsets: offsets.collect(), cfg: *cfg })
    }

    /// Number of rows (output features).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input features / reduction dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scheme the weights were produced with.
    pub fn scheme(&self) -> Scheme {
        self.cfg.scheme()
    }

    /// The quantization group size (64 in all paper experiments).
    pub fn group_size(&self) -> usize {
        self.cfg.group_size()
    }

    /// The three physical words of packing group `g` in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn group_words(&self, r: usize, g: usize) -> [u32; 3] {
        let groups_per_row = self.cols / GROUP;
        assert!(r < self.rows && g < groups_per_row, "group ({r},{g}) out of range");
        let gi = r * groups_per_row + g;
        [self.main[2 * gi], self.main[2 * gi + 1], self.tail[gi]]
    }

    /// De-quantizes packing group `g` of row `r` into `out` (exactly
    /// [`GROUP`] FP16 values) using the MiLo binary-manipulation path —
    /// the kernel's strip decoder, which writes each strip straight into
    /// the caller's tile buffer.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range or `out.len() != 32`.
    pub fn dequant_group_into(&self, r: usize, g: usize, out: &mut [F16]) {
        assert_eq!(out.len(), GROUP, "strip buffer must hold {GROUP} values");
        let words = self.group_words(r, g);
        // Quant groups are >= 32 and multiples of 32, so one scale covers
        // the whole packing group.
        let qg = r * self.cfg.groups_per_row(self.cols) + (g * GROUP) / self.group_size();
        let s = self.scales[qg];

        let logical = [words[0], words[1], words[2], virtual_word(&words)];
        match self.scheme() {
            Scheme::Symmetric => {
                for (w, &word) in logical.iter().enumerate() {
                    let vals = dequant_word_sym(word, s);
                    out[8 * w..8 * w + 8].copy_from_slice(&vals);
                }
            }
            Scheme::Asymmetric => {
                let neg_zs = self.offsets[qg];
                for (w, &word) in logical.iter().enumerate() {
                    let vals = dequant_word_asym(word, s, neg_zs);
                    out[8 * w..8 * w + 8].copy_from_slice(&vals);
                }
            }
        }
    }

    /// De-quantizes the whole matrix to dense `f32` through the FP16
    /// bit-trick path.
    pub fn dequantize(&self) -> Matrix {
        let groups_per_row = self.cols / GROUP;
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut strip = [F16::ZERO; GROUP];
        for r in 0..self.rows {
            for g in 0..groups_per_row {
                self.dequant_group_into(r, g, &mut strip);
                for (dst, v) in out.row_mut(r)[g * GROUP..(g + 1) * GROUP].iter_mut().zip(&strip) {
                    *dst = v.to_f32();
                }
            }
        }
        out
    }

    /// Deployment memory in bytes, summed from the buffers held: packed
    /// words plus FP16 scales (and offsets for asymmetric schemes).
    pub fn memory_bytes(&self) -> usize {
        (self.main.len() + self.tail.len()) * std::mem::size_of::<u32>()
            + (self.scales.len() + self.offsets.len()) * std::mem::size_of::<F16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_quant::{rtn_quantize, QuantConfig};
    use milo_tensor::rng::WeightDist;
    use milo_tensor::rng::SeedableRng;

    fn quantized(rows: usize, cols: usize, cfg: QuantConfig, seed: u64) -> QuantizedMatrix {
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed);
        let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(rows, cols, &mut rng);
        rtn_quantize(&w, &cfg).unwrap()
    }

    #[test]
    fn packed_dequant_matches_unpacked_asym() {
        let q = quantized(8, 128, QuantConfig::int3_asym(), 1);
        let p = PackedMatrix::pack(&q).unwrap();
        let reference = q.dequantize();
        let packed = p.dequantize();
        for (a, b) in reference.as_slice().iter().zip(packed.as_slice()) {
            // The packed path rounds through FP16.
            assert!((a - b).abs() <= a.abs().max(0.05) * 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn packed_dequant_matches_unpacked_sym() {
        let q = quantized(4, 64, QuantConfig::int3_sym(), 2);
        let p = PackedMatrix::pack(&q).unwrap();
        let reference = q.dequantize();
        let packed = p.dequantize();
        for (a, b) in reference.as_slice().iter().zip(packed.as_slice()) {
            assert!((a - b).abs() <= a.abs().max(0.05) * 5e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_is_rejected() {
        let q = quantized(2, 64, QuantConfig::int4_asym(), 3);
        assert!(matches!(PackedMatrix::pack(&q), Err(PackError::Unsupported(_))));
    }

    #[test]
    fn misaligned_columns_rejected() {
        use milo_quant::Scheme;
        let cfg = QuantConfig::new(3, 32, Scheme::Asymmetric).unwrap();
        let q = quantized(2, 48, cfg, 4);
        assert!(matches!(PackedMatrix::pack(&q), Err(PackError::InvalidShape(_))));
    }

    #[test]
    fn group_size_not_multiple_of_32_rejected() {
        use milo_quant::Scheme;
        let cfg = QuantConfig::new(3, 48, Scheme::Asymmetric).unwrap();
        let q = quantized(2, 96, cfg, 5);
        assert!(matches!(PackedMatrix::pack(&q), Err(PackError::Unsupported(_))));
    }

    #[test]
    fn memory_is_three_over_sixteen_of_fp16_plus_params() {
        let q = quantized(16, 256, QuantConfig::int3_asym(), 6);
        let p = PackedMatrix::pack(&q).unwrap();
        let fp16_bytes = 16 * 256 * 2;
        let weight_bytes = 16 * 256 * 3 / 8;
        let param_bytes = 16 * 4 * 4; // 4 groups/row, f16 scale+zero
        assert_eq!(p.memory_bytes(), weight_bytes + param_bytes);
        assert!(p.memory_bytes() < fp16_bytes / 4);
    }

    #[test]
    fn memory_is_the_buffers_held_and_what_the_config_bills() {
        for cfg in [QuantConfig::int3_asym(), QuantConfig::int3_sym()] {
            let q = quantized(8, 192, cfg, 8);
            let p = PackedMatrix::pack(&q).unwrap();
            let words = (p.main.len() + p.tail.len()) * 4;
            assert_eq!(p.memory_bytes(), words + cfg.param_bytes(8, 192), "{cfg:?}");
            assert_eq!(p.memory_bytes(), cfg.packed_bytes(8, 192), "{cfg:?}");
        }
    }

    #[test]
    fn word_split_has_expected_lengths() {
        let q = quantized(4, 128, QuantConfig::int3_asym(), 7);
        let p = PackedMatrix::pack(&q).unwrap();
        let groups = 4 * (128 / GROUP);
        assert_eq!(p.group_words(0, 0).len(), 3);
        assert_eq!(p.main.len(), 2 * groups);
        assert_eq!(p.tail.len(), groups);
    }
}
