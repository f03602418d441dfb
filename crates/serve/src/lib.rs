//! Request-lifecycle serving layer over the resilient forward paths.
//!
//! The fault-tolerant core (`milo_moe::forward_resilient` and its packed
//! analogue in `milo-engine`) answers *"what happens when an expert
//! fails mid-forward?"*. This crate answers the next question a serving
//! system must: *"what happens when requests arrive faster than they can
//! be answered, take longer than their caller will wait, or fail in ways
//! a retry would fix?"* It wraps a [`ForwardModel`] in a full request
//! lifecycle:
//!
//! * **Admission control** — every admitted request without an outcome
//!   sits in one ledger (queued, then running) under one lock; a full
//!   queue rejects work with a typed [`ServeError::Overloaded`], so queue
//!   depth can never grow without bound.
//! * **Deadlines** — a per-request budget becomes a
//!   [`milo_moe::CancelToken`] carried through the forward path and
//!   checked at every layer boundary; an expired request unwinds with a
//!   typed [`ServeError::DeadlineExceeded`] naming the [`Stage`] it
//!   reached.
//! * **Retries** — retryable failures (strict-mode expert faults) are
//!   retried under [`retry::RetryPolicy`]: exponential backoff with
//!   seeded jitter from `milo_tensor::prng`, so every schedule is a pure
//!   function of the server seed and request id.
//! * **Circuit breakers** — the shared
//!   [`HealthTracker`](milo_moe::HealthTracker) runs the
//!   closed → open → half-open state machine (see `milo_moe::health`);
//!   the server ticks cooldowns once per served request so quarantined
//!   experts are re-probed and re-admitted deterministically.
//! * **Watchdog + load shedding** — a watchdog thread expires queued
//!   requests past their deadline and, for every running request past
//!   its deadline (a stalled worker), sheds one queued request, oldest
//!   first.
//!
//! Fault-free serving is *bit-identical* to calling the model's
//! `forward_resilient` directly: admission, deadlines, and breakers only
//! ever reject, cancel, or re-run a request — they never perturb the
//! arithmetic of a successful forward pass. A [`Response`] carries the
//! logits of every position of the request (`tokens × vocab`).
//!
//! The server has no fault-injection API: each attempt gets a fresh
//! [`ResilienceContext`](milo_moe::ResilienceContext) holding the
//! request's mode, cancel token and the shared breakers. Drills and the
//! chaos soak inject expert faults by serving the model behind
//! `milo_faults::FaultInjector`, a [`ForwardModel`] that adds the
//! currently armed faults to each call's context.

#![warn(missing_docs)]

pub mod request;
pub mod retry;
pub mod server;

pub use request::{Request, Response, Ticket};
pub use retry::RetryPolicy;
pub use server::{ForwardError, ForwardModel, Server, ServerConfig, ServerStats};

/// Where in its lifecycle a request was when its deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Still waiting in the admission queue; no work was started.
    Queued,
    /// Executing the forward pass; the cancellation was observed at this
    /// layer boundary (`n_layers` = the pre-head check after the last
    /// layer).
    Layer(usize),
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Queued => write!(f, "queued"),
            Stage::Layer(l) => write!(f, "layer {l}"),
        }
    }
}

/// Typed request-lifecycle errors. Every admitted request terminates
/// with either a [`Response`] or exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full; the request was never enqueued.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The queue's fixed capacity.
        capacity: usize,
    },
    /// The request carried a zero-length (or already-expired) deadline;
    /// rejected at admission before any work was queued.
    InvalidDeadline,
    /// The deadline expired; `stage` names how far the request got.
    DeadlineExceeded {
        /// Lifecycle stage at expiry.
        stage: Stage,
    },
    /// Every retry attempt failed with a retryable error; `last` is the
    /// final failure.
    RetriesExhausted {
        /// Number of forward attempts made.
        attempts: u32,
        /// Reason of the last failure.
        last: String,
    },
    /// The watchdog shed this request, the oldest queued one, to
    /// relieve overload.
    Shed,
    /// The model failed and the failure is not retried: a request
    /// defect (invalid token, shape mismatch…), or an expert failure
    /// when no retry budget is configured.
    Model(milo_moe::MoeError),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// A worker panicked outside the isolated expert dispatch; the
    /// panic was contained and converted to this error.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "queue overloaded ({depth}/{capacity})")
            }
            ServeError::InvalidDeadline => write!(f, "zero-length or already-expired deadline"),
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded while {stage}")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            ServeError::Shed => write!(f, "shed by watchdog (oldest-first)"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Internal(msg) => write!(f, "internal worker failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Convenient result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;
