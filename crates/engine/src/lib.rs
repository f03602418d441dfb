//! Packed-weight MoE inference engine — the functional analogue of the
//! paper's "MiLo Backend" (§4.3.1).
//!
//! The evaluation path in `milo-moe` reconstructs dense FP32 weights
//! before running; this crate instead keeps every quantizable projection
//! in its *deployment* form ([`PackedLinear`]) and computes with it
//! directly. [`PackedMoeModel`] is the `milo-moe` transformer
//! instantiated with that projection type, so it runs the same layer
//! loop, KV cache, and expert dispatch as the reference:
//!
//! * weights stay in the zero-bit-waste packed INT3 layout and flow
//!   through the fused dequant+GEMM kernel of `milo-pack`;
//! * low-rank compensators are applied as two skinny GEMMs
//!   (`y += (x·Vᵀ)·Uᵀ`), never materializing `U·V`;
//! * routers, embeddings, norms, and the head stay in full precision,
//!   exactly as the real backend keeps them in FP16.
//!
//! Weights that violate the kernel's constraints — 3-bit codes, tile
//! shape, group size 64 (the paper's kernel has the same restrictions) —
//! transparently
//! fall back to a dense path built from the same de-quantized values, so
//! the engine runs any model while using the packed kernel wherever it
//! legally can. Every failure is a [`milo_moe::MoeError`], the one error
//! of model execution.

#![warn(missing_docs)]

pub mod linear;
pub mod model;

pub use linear::PackedLinear;
pub use model::PackedMoeModel;

/// Per-layer key/value caches for one packed decoding stream.
pub type PackedDecodeState = milo_moe::DecodeState;
