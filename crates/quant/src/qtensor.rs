//! The quantized-matrix container shared by all quantizers.

use crate::{QuantConfig, QuantError, Result, Scheme};
use milo_tensor::Matrix;

/// A grouped-quantized weight matrix.
///
/// Codes are stored one-per-byte for algorithmic convenience; the
/// zero-waste 3-bit packed layout used at inference time lives in
/// `milo-pack`. Memory accounting ([`packed_bytes`](Self::packed_bytes))
/// reflects the *packed* representation plus FP16 scales/zero-points, which
/// is what the paper's memory columns (Tables 3 and 6) report.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    cfg: QuantConfig,
    rows: usize,
    cols: usize,
    /// One code per weight, row-major, each in `0..cfg.levels()`.
    codes: Vec<u8>,
    /// One scale per group, row-major by (row, group).
    scales: Vec<f32>,
    /// One zero-point per group; empty for symmetric schemes (the implicit
    /// zero-point is `2^(bits-1)`).
    zeros: Vec<f32>,
}

impl QuantizedMatrix {
    /// Assembles a quantized matrix from raw parts, validating lengths.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidShape`] if the codes or parameter
    /// vectors do not match the shape implied by `cfg`.
    pub fn from_parts(
        cfg: QuantConfig,
        rows: usize,
        cols: usize,
        codes: Vec<u8>,
        scales: Vec<f32>,
        zeros: Vec<f32>,
    ) -> Result<Self> {
        if codes.len() != rows * cols {
            return Err(QuantError::InvalidShape(format!(
                "{} codes for {rows}x{cols} matrix",
                codes.len()
            )));
        }
        let expected_groups = rows * cfg.groups_per_row(cols);
        if scales.len() != expected_groups {
            return Err(QuantError::InvalidShape(format!(
                "{} scales, expected {expected_groups}",
                scales.len()
            )));
        }
        match cfg.scheme() {
            Scheme::Asymmetric if zeros.len() != expected_groups => {
                return Err(QuantError::InvalidShape(format!(
                    "{} zero-points, expected {expected_groups}",
                    zeros.len()
                )));
            }
            Scheme::Symmetric if !zeros.is_empty() => {
                return Err(QuantError::InvalidShape(
                    "symmetric scheme must not carry zero-points".into(),
                ));
            }
            _ => {}
        }
        let max = cfg.max_code();
        if let Some(&bad) = codes.iter().find(|&&c| c > max) {
            return Err(QuantError::InvalidShape(format!(
                "code {bad} exceeds max code {max} for {}-bit quantization",
                cfg.bits()
            )));
        }
        Ok(Self { cfg, rows, cols, codes, scales, zeros })
    }

    /// The quantizer configuration this matrix was produced with.
    pub fn config(&self) -> &QuantConfig {
        &self.cfg
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw codes, row-major, one per weight.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Per-group scales, row-major by (row, group).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-group zero-points (empty for symmetric schemes).
    pub fn zeros(&self) -> &[f32] {
        &self.zeros
    }

    /// De-quantizes back to dense `f32`:
    /// `w = s · (q − z)` (paper Eq. 3), with `z = 2^(bits−1)` implicit for
    /// symmetric schemes.
    pub fn dequantize(&self) -> Matrix {
        let gs = self.cfg.group_size();
        let groups_per_row = self.cfg.groups_per_row(self.cols);
        let sym_zero = (1u32 << (self.cfg.bits() - 1)) as f32;
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let g = r * groups_per_row + c / gs;
                let q = self.codes[r * self.cols + c] as f32;
                let z = match self.cfg.scheme() {
                    Scheme::Asymmetric => self.zeros[g],
                    Scheme::Symmetric => sym_zero,
                };
                out[(r, c)] = self.scales[g] * (q - z);
            }
        }
        out
    }

    /// Memory of the packed deployment representation in bytes:
    /// `bits` per weight plus one FP16 scale (and FP16 zero-point for
    /// asymmetric schemes) per group.
    ///
    /// This is the figure the paper's memory columns report — it does not
    /// include the transient one-byte-per-code working representation.
    pub fn packed_bytes(&self) -> usize {
        self.cfg.packed_bytes(self.rows, self.cols)
    }
}

/// Splits a row into `(group_index, range)` pairs for a config.
///
/// Shared helper for the quantizer implementations.
pub(crate) fn group_ranges(cols: usize, group_size: usize) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> {
    let n_groups = cols.div_ceil(group_size);
    (0..n_groups).map(move |g| {
        let start = g * group_size;
        (g, start..cols.min(start + group_size))
    })
}

/// The asymmetric min/max grid `(s, z)` of one group: scale
/// `s = (max − min) / max_code` (1 for a constant group) and zero-point
/// `z = −min / s`, so the grid ends land on the group extremes.
pub(crate) fn asym_grid(group: &[f32], max_code: f32) -> (f32, f32) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in group {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let s = if hi > lo { (hi - lo) / max_code } else { 1.0 };
    (s, -lo / s)
}

/// The asymmetric code of `v` on the grid `(s, z)`:
/// `round(v / s + z)` clamped to `[0, max_code]`.
pub(crate) fn asym_code(v: f32, s: f32, z: f32, max_code: f32) -> f32 {
    (v / s + z).round().clamp(0.0, max_code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> QuantizedMatrix {
        let cfg = QuantConfig::new(3, 2, Scheme::Asymmetric).unwrap();
        QuantizedMatrix::from_parts(
            cfg,
            1,
            4,
            vec![0, 7, 3, 4],
            vec![0.5, 1.0],
            vec![4.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn dequantize_applies_group_params() {
        let w = tiny().dequantize();
        // group 0: s=0.5 z=4 -> (0-4)*0.5, (7-4)*0.5
        // group 1: s=1.0 z=2 -> (3-2)*1.0, (4-2)*1.0
        assert_eq!(w.as_slice(), &[-2.0, 1.5, 1.0, 2.0]);
    }

    #[test]
    fn symmetric_implicit_zero_point() {
        let cfg = QuantConfig::new(3, 4, Scheme::Symmetric).unwrap();
        let q = QuantizedMatrix::from_parts(cfg, 1, 4, vec![4, 0, 7, 4], vec![2.0], vec![])
            .unwrap();
        assert_eq!(q.dequantize().as_slice(), &[0.0, -8.0, 6.0, 0.0]);
    }

    #[test]
    fn code_length_mismatch_rejected() {
        let cfg = QuantConfig::new(3, 2, Scheme::Asymmetric).unwrap();
        assert!(QuantizedMatrix::from_parts(cfg, 1, 4, vec![0; 3], vec![0.0; 2], vec![0.0; 2])
            .is_err());
    }

    #[test]
    fn overflowing_code_rejected() {
        let cfg = QuantConfig::new(3, 2, Scheme::Asymmetric).unwrap();
        assert!(QuantizedMatrix::from_parts(cfg, 1, 2, vec![8, 0], vec![1.0], vec![0.0])
            .is_err());
    }

    #[test]
    fn symmetric_with_zeros_rejected() {
        let cfg = QuantConfig::new(3, 2, Scheme::Symmetric).unwrap();
        assert!(
            QuantizedMatrix::from_parts(cfg, 1, 2, vec![0, 0], vec![1.0], vec![0.0]).is_err()
        );
    }

    #[test]
    fn packed_bytes_counts_bits_and_params() {
        // 1x4 INT3 = 12 bits -> 2 bytes; 2 asym groups -> 8 bytes params.
        assert_eq!(tiny().packed_bytes(), 2 + 8);
    }

    #[test]
    fn group_ranges_cover_row_with_remainder() {
        let ranges: Vec<_> = group_ranges(10, 4).collect();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[2].1, 8..10);
    }
}
