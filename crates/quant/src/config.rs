//! Shared quantizer configuration.

use crate::{QuantError, Result};

/// Whether the quantization grid is symmetric around zero or has a
/// per-group zero-point.
///
/// The paper's main MiLo pipeline uses *asymmetric* grouped quantization
/// for the weights (better accuracy; the MiLo kernel supports it natively,
/// §4.3.1) and *symmetric* quantization for the compensators (Eq. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Grid `[0, 2^bits)` with per-group scale and floating zero-point.
    Asymmetric,
    /// Grid centred at `2^(bits-1)` with per-group scale only.
    Symmetric,
}

/// Configuration of a grouped weight quantizer.
///
/// Weights are grouped along the input (column) dimension: each row of a
/// weight matrix is split into contiguous groups of `group_size` elements,
/// and each group gets its own scale (and zero-point for
/// [`Scheme::Asymmetric`]). The paper uses `group_size = 64` everywhere
/// (§4 "All methods use a quantization group size of 64").
///
/// # Examples
///
/// ```
/// use milo_quant::{QuantConfig, Scheme};
///
/// let cfg = QuantConfig::new(3, 64, Scheme::Asymmetric).unwrap();
/// assert_eq!(cfg.levels(), 8);
/// assert_eq!(cfg.max_code(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantConfig {
    bits: u8,
    group_size: usize,
    scheme: Scheme,
}

impl QuantConfig {
    /// Creates a configuration, validating the bit width and group size.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] unless `2 <= bits <= 8` and
    /// `group_size > 0`.
    pub fn new(bits: u8, group_size: usize, scheme: Scheme) -> Result<Self> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::InvalidConfig(format!(
                "bits must be in 2..=8, got {bits}"
            )));
        }
        if group_size == 0 {
            return Err(QuantError::InvalidConfig("group_size must be positive".into()));
        }
        Ok(Self { bits, group_size, scheme })
    }

    /// The paper's default weight configuration: INT3, group 64,
    /// asymmetric.
    pub fn int3_asym() -> Self {
        Self { bits: 3, group_size: 64, scheme: Scheme::Asymmetric }
    }

    /// INT4, group 64, asymmetric (the Table 1 INT4 column).
    pub fn int4_asym() -> Self {
        Self { bits: 4, group_size: 64, scheme: Scheme::Asymmetric }
    }

    /// The compensator configuration of paper Eq. 15: INT3, group 64,
    /// symmetric.
    pub fn int3_sym() -> Self {
        Self { bits: 3, group_size: 64, scheme: Scheme::Symmetric }
    }

    /// Bit width of each code.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of weights sharing one scale/zero-point.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The quantization scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of representable levels, `2^bits`.
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Largest representable code, `2^bits − 1`.
    pub fn max_code(&self) -> u8 {
        ((1u32 << self.bits) - 1) as u8
    }

    /// Number of groups per row for a row of `cols` elements (the last
    /// group may be short).
    pub fn groups_per_row(&self, cols: usize) -> usize {
        cols.div_ceil(self.group_size)
    }

    /// FP16 parameter bytes of a `rows × cols` matrix: one scale per
    /// group, plus one zero-point per group for asymmetric schemes.
    pub fn param_bytes(&self, rows: usize, cols: usize) -> usize {
        let per_group = match self.scheme {
            Scheme::Asymmetric => 4, // f16 scale + f16 zero
            Scheme::Symmetric => 2,  // f16 scale
        };
        rows * self.groups_per_row(cols) * per_group
    }

    /// Packed deployment bytes of a `rows × cols` matrix: `bits` per
    /// code, rounded up to whole bytes, plus [`param_bytes`](Self::param_bytes).
    /// The one memory rule of the workspace: quantized weights, quantized
    /// compensators and the rank planner all bill through it.
    pub fn packed_bytes(&self, rows: usize, cols: usize) -> usize {
        (rows * cols * self.bits as usize).div_ceil(8) + self.param_bytes(rows, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = QuantConfig::int3_asym();
        assert_eq!(c.bits(), 3);
        assert_eq!(c.group_size(), 64);
        assert_eq!(c.scheme(), Scheme::Asymmetric);
    }

    #[test]
    fn levels_and_max_code() {
        assert_eq!(QuantConfig::int3_asym().levels(), 8);
        assert_eq!(QuantConfig::int4_asym().max_code(), 15);
        assert_eq!(QuantConfig::new(8, 1, Scheme::Symmetric).unwrap().levels(), 256);
    }

    #[test]
    fn invalid_bits_rejected() {
        assert!(QuantConfig::new(1, 64, Scheme::Asymmetric).is_err());
        assert!(QuantConfig::new(9, 64, Scheme::Asymmetric).is_err());
    }

    #[test]
    fn zero_group_size_rejected() {
        assert!(QuantConfig::new(3, 0, Scheme::Asymmetric).is_err());
    }

    #[test]
    fn groups_per_row_rounds_up() {
        let c = QuantConfig::int3_asym();
        assert_eq!(c.groups_per_row(64), 1);
        assert_eq!(c.groups_per_row(65), 2);
        assert_eq!(c.groups_per_row(128), 2);
    }
}
