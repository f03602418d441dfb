//! Zero-bit-waste INT3 weight packing and the MiLo de-quantization /
//! GEMM pipeline (paper §3.3), reproduced bit-exactly on the CPU.
//!
//! The CUDA kernel the paper builds cannot run here, but everything that
//! makes it *correct* is pure bit manipulation and FP16 arithmetic, which
//! this crate reproduces faithfully. It has one packed layout, the
//! paper's W3A16 one; weights at any other width stay unpacked.
//!
//! * [`layout`] — the packing format of Fig. 6(a): every 32 consecutive
//!   INT3 weights occupy exactly three `u32` words (96 bits, zero waste).
//!   Each word directly carries 8 weights in trick-friendly positions;
//!   the remaining 8 bits per word hold slices of a fourth *virtual* word
//!   that is reassembled with shift/OR operations and carries the last 8
//!   weights.
//! * [`dequant`] — the binary-manipulation INT3→FP16 conversion of
//!   Fig. 6(b): splicing a 3-bit payload into the mantissa of the FP16
//!   constant `1024.0` yields `1024 + e` (or `1024 + 8e` for the
//!   odd-position payloads), which one packed `__hsub2`/`__hfma2`
//!   emulation turns into the centred weight value — no int→float casts.
//! * [`matrix`] — [`PackedMatrix`]: a quantized weight matrix in the
//!   deployment layout, split into a *main* array (two words per 32-group)
//!   and a *tail* array (the third word), mirroring the paper's two-matrix
//!   split that fixes the 3-word alignment problem.
//! * [`gemm`] — the fused dequant+GEMM "kernel" over a [`PackedMatrix`]
//!   with the tile-shape and group-size validation rules of Appendix D,
//!   and an unfused reference path. Activations are rounded to FP16 for
//!   exactly the rows given; no batch padding is materialized.

#![warn(missing_docs)]

pub mod dequant;
pub mod gemm;
pub mod layout;
pub mod matrix;

pub use dequant::{dequant_word_asym, dequant_word_sym, naive_dequant_word};
pub use gemm::{GemmKernel, TileShape};
pub use layout::{pack_group, unpack_group, virtual_word};
pub use matrix::PackedMatrix;

/// Errors produced by the packing and kernel layers.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// The matrix shape violates a packing or kernel constraint
    /// (Appendix D error-handling rules).
    InvalidShape(String),
    /// The quantizer configuration is not supported by the kernel (the
    /// paper's kernel requires group size 64 and 3-bit codes).
    Unsupported(String),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
            PackError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for PackError {}

/// Convenient result alias for packing operations.
pub type Result<T> = std::result::Result<T, PackError>;
