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
//! Layer shapes that violate the kernel's tile constraints (the paper's
//! kernel has the same restriction) transparently fall back to a dense
//! path built from the same de-quantized values, so the engine runs any
//! model while using the packed kernel wherever it legally can.

#![warn(missing_docs)]

pub mod linear;
pub mod model;

pub use linear::PackedLinear;
pub use model::PackedMoeModel;

/// Per-layer key/value caches for one packed decoding stream.
pub type PackedDecodeState = milo_moe::DecodeState;

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The compressed model does not match the reference architecture.
    Mismatch(String),
    /// A forward-pass failure (bad token, shape error).
    Run(String),
    /// An expert failed during packed dispatch (panic, non-finite
    /// output, or kernel error) under strict fault handling.
    ExpertFailed {
        /// Transformer layer index.
        layer: usize,
        /// Expert index within the layer (routed first, then shared).
        expert: usize,
        /// Human-readable failure cause.
        reason: String,
    },
    /// The request's [`milo_moe::CancelToken`] fired (deadline passed or
    /// a watchdog cancelled it); the forward pass unwound at a layer
    /// boundary. The serving layer maps this to its typed
    /// deadline-exceeded error naming the stage.
    Cancelled {
        /// The layer boundary at which the cancellation was observed
        /// (`n_layers` = the pre-head check after the last layer).
        layer: usize,
    },
    /// A [`PackedDecodeState`] was stepped on a model with a different
    /// layer count or width than the model it was built for.
    DecodeStateMismatch {
        /// `(n_layers, d_model)` the state was built for.
        state: (usize, usize),
        /// `(n_layers, d_model)` of the model it was stepped on.
        model: (usize, usize),
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Mismatch(msg) => write!(f, "model mismatch: {msg}"),
            EngineError::Run(msg) => write!(f, "inference failed: {msg}"),
            EngineError::ExpertFailed { layer, expert, reason } => {
                write!(f, "expert {expert} of layer {layer} failed: {reason}")
            }
            EngineError::Cancelled { layer } => {
                write!(f, "request cancelled at layer boundary {layer}")
            }
            EngineError::DecodeStateMismatch { state, model } => write!(
                f,
                "decode state built for {} layers at d_model {}, stepped on {} layers at d_model {}",
                state.0, state.1, model.0, model.1
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Failures of the shared layer loop: expert failures, cancellations,
/// and state mismatches keep their typed variants; anything else (bad
/// tokens, empty input, routing) is a run error.
impl From<milo_moe::MoeError> for EngineError {
    fn from(e: milo_moe::MoeError) -> Self {
        match e {
            milo_moe::MoeError::ExpertFailed { layer, expert, reason } => {
                EngineError::ExpertFailed { layer, expert, reason }
            }
            milo_moe::MoeError::Cancelled { layer } => EngineError::Cancelled { layer },
            milo_moe::MoeError::DecodeStateMismatch { state, model } => {
                EngineError::DecodeStateMismatch { state, model }
            }
            other => EngineError::Run(other.to_string()),
        }
    }
}

/// Convenient result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;
