//! The projection type the transformer is generic over.
//!
//! Every weight matrix of the model — attention `wq/wk/wv/wo` and the
//! SwiGLU `w1/w2/w3` of dense and expert blocks — is a [`Linear`]. The
//! FP32 reference uses a plain [`Matrix`]; the packed engine in
//! `milo-engine` uses its INT3 projection with low-rank compensators;
//! calibration capture and expert-frequency profiling wrap each weight
//! in a tap, a projection that reports each input to an observer.
//! Everything else (the layer loop, attention, SwiGLU, MoE dispatch)
//! is written once against this trait.

use crate::Result;
use milo_tensor::Matrix;

/// One projection `y = x · Wᵀ`, in whatever form the weight is stored.
pub trait Linear: Sync {
    /// Prefix of the telemetry a model built from this projection type
    /// reports under: the `{prefix}.forward` / `.layer` / `.attn` /
    /// `.ffn` spans and the dispatch metrics `{prefix}.expert_tokens`,
    /// `.load_skew`, `.gate_entropy_micro`, and `.expert_ns`.
    const METRIC_PREFIX: &'static str;

    /// Applies the projection to a batch of token rows (`tokens × in`),
    /// returning `tokens × out`.
    ///
    /// # Errors
    ///
    /// Shape or kernel failures, as a [`MoeError`](crate::MoeError).
    fn forward(&self, x: &Matrix) -> Result<Matrix>;
}

/// A dense FP32 weight (`out × in`).
impl Linear for Matrix {
    const METRIC_PREFIX: &'static str = "moe";

    fn forward(&self, x: &Matrix) -> Result<Matrix> {
        Ok(x.matmul(&self.transpose())?)
    }
}

/// A projection that reports each input, under the projection's name, to
/// an observer before applying its weight: the forward hook of
/// calibration capture and expert-frequency profiling (built by
/// `MoeModel::tapped`).
pub(crate) struct Tap<'a, P> {
    pub(crate) name: String,
    pub(crate) weight: &'a P,
    pub(crate) observer: &'a (dyn Fn(&str, &Matrix) + Sync),
}

impl<P: Linear> Linear for Tap<'_, P> {
    const METRIC_PREFIX: &'static str = P::METRIC_PREFIX;

    fn forward(&self, x: &Matrix) -> Result<Matrix> {
        (self.observer)(&self.name, x);
        self.weight.forward(x)
    }
}
