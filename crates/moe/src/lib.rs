//! Mixture-of-Experts transformer substrate.
//!
//! The paper evaluates MiLo on Mixtral-8×7B and DeepSeek-MoE. Neither
//! checkpoint (nor a GPU to run them) is available in this environment,
//! so this crate provides the substitution described in `DESIGN.md`:
//! scaled-down synthetic MoE transformers whose *per-layer weight
//! statistics* and *routing behaviour* are controlled to match the
//! paper's analysis:
//!
//! * attention projections are heavy-tailed (Student-t), experts are
//!   light-tailed (uniform), shared experts in between — matching the
//!   kurtosis ordering of paper Table 2;
//! * routers carry a per-expert bias so activation frequencies are
//!   skewed, strongly so for the DeepSeek-like fine-grained
//!   configuration — matching paper Fig. 3 (≈12× max/min frequency);
//! * the architecture skeleton matches: Mixtral-like (8 experts, top-2)
//!   and DeepSeek-like (64 routed experts top-6, 2 shared experts, first
//!   layer dense).
//!
//! Everything MiLo consumes — weight matrices, layer-kind metadata,
//! kurtosis, expert frequencies — is exercised on the same code paths the
//! real models would use.
//!
//! Modules:
//!
//! * [`config`] — architecture configurations and the scaled presets.
//! * [`linear`] — the projection trait the transformer is generic over
//!   (FP32 matrices here, packed INT3 projections in `milo-engine`).
//! * [`mlp`] — the SwiGLU feed-forward block (`w2·(silu(w1·x) ⊙ w3·x)`).
//! * [`attention`] — multi-head causal self-attention over a KV cache.
//! * [`router`] — top-k softmax routing with per-expert bias.
//! * [`model`] — the full transformer, synthesis, and the one layer loop
//!   behind forward, prefill, and decode.
//! * [`decode`] — the KV cache, batched prefill, and decode steps.
//! * [`dispatch`] — the MoE expert-dispatch step.
//! * [`profile`] — expert-activation-frequency profiling (paper Fig. 3).
//! * [`tensors`] — enumeration of quantizable weights as
//!   [`milo_core::LayerTensor`]s and substitution of compressed weights.

#![warn(missing_docs)]

pub mod attention;
pub mod capture;
pub mod config;
pub mod decode;
pub mod dispatch;
pub mod health;
pub mod linear;
pub mod mlp;
pub mod model;
pub mod profile;
pub mod prune;
pub mod router;
pub mod serialize;
pub mod tensors;

pub use capture::capture_layer_activations;
pub use config::MoeConfig;
pub use decode::DecodeState;
pub use health::{FaultMode, HealthTracker, ResilienceContext};
pub use linear::Linear;
pub use model::{FfnBlock, MoeBlock, MoeModel, TransformerLayer};
pub use profile::{profile_expert_frequency, FrequencyProfile};
pub use tensors::{apply_compressed, layer_tensors};

/// Errors produced by the MoE substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MoeError {
    /// A token id is outside the vocabulary.
    InvalidToken {
        /// The offending token id.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// An input sequence is empty or otherwise unusable.
    InvalidInput(String),
    /// A weight substitution referenced an unknown layer or had the wrong
    /// shape.
    WeightMismatch(String),
    /// An underlying tensor operation failed.
    Tensor(milo_tensor::TensorError),
    /// An expert failed during dispatch (panic, non-finite output, or
    /// tensor error) and the fault mode is
    /// [`FaultMode::Strict`].
    ExpertFailed {
        /// Transformer layer index.
        layer: usize,
        /// Expert index within the layer (routed first, then shared).
        expert: usize,
        /// Human-readable failure cause.
        reason: String,
    },
    /// The request's deadline passed
    /// ([`ResilienceContext::deadline`]); the forward pass unwound at a
    /// layer boundary.
    Cancelled {
        /// The layer boundary at which the expiry was observed
        /// (`n_layers` = the pre-head check after the last layer).
        layer: usize,
    },
    /// A [`DecodeState`] was stepped on a model with a different layer
    /// count or width than the model it was built for.
    DecodeStateMismatch {
        /// `(n_layers, d_model)` the state was built for.
        state: (usize, usize),
        /// `(n_layers, d_model)` of the model it was stepped on.
        model: (usize, usize),
    },
}

impl std::fmt::Display for MoeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoeError::InvalidToken { token, vocab } => {
                write!(f, "token {token} out of vocabulary (size {vocab})")
            }
            MoeError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            MoeError::WeightMismatch(msg) => write!(f, "weight mismatch: {msg}"),
            MoeError::Tensor(e) => write!(f, "tensor error: {e}"),
            MoeError::ExpertFailed { layer, expert, reason } => {
                write!(f, "expert {expert} of layer {layer} failed: {reason}")
            }
            MoeError::Cancelled { layer } => {
                write!(f, "request cancelled at layer boundary {layer}")
            }
            MoeError::DecodeStateMismatch { state, model } => write!(
                f,
                "decode state built for {} layers at d_model {}, stepped on {} layers at d_model {}",
                state.0, state.1, model.0, model.1
            ),
        }
    }
}

impl std::error::Error for MoeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MoeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<milo_tensor::TensorError> for MoeError {
    fn from(e: milo_tensor::TensorError) -> Self {
        MoeError::Tensor(e)
    }
}

/// Convenient result alias for MoE operations.
pub type Result<T> = std::result::Result<T, MoeError>;
