//! Evaluation harness for the MiLo reproduction.
//!
//! The paper evaluates on Wikitext-2 perplexity plus five zero/few-shot
//! benchmarks via lm-evaluation-harness. Those datasets require the real
//! checkpoints; this crate provides the substitution described in
//! `DESIGN.md`: the *FP16 synthetic model is the ground truth*, and
//! compressed models are scored by how much of its behaviour they
//! preserve:
//!
//! * [`ppl`] — perplexity on token streams sampled from the FP16 model
//!   (teacher-as-ground-truth language modeling); compressed models score
//!   strictly worse than the teacher, by an amount that tracks their
//!   weight reconstruction error — the same ordering signal as
//!   Wikitext-2 PPL in the paper.
//! * [`tasks`] — proxy task suite: multiple-choice and open-vocabulary
//!   next-token prediction where the *reference model's choice* defines
//!   the correct answer, with zero-shot (short prompt) and few-shot
//!   (long prompt) variants mirroring the paper's six benchmarks.
//! * [`timing`] — wall-clock measurement of quantization time (paper
//!   Table 1 / Fig. 8).
//! * [`bench`](mod@bench) — a median-of-N microbenchmark harness (warmup, batch
//!   calibration, JSON output) replacing the external `criterion` crate.
//! * [`report`] — aligned text tables; JSON records are built as
//!   [`milo_obs::json::JsonValue`]s.
//! * [`harness`] — method-level orchestration producing the rows of the
//!   paper's evaluation tables.

#![warn(missing_docs)]

pub mod bench;
pub mod harness;
pub mod ppl;
pub mod report;
pub mod tasks;
pub mod timing;

pub use harness::{EvalConfig, EvalContext, MethodResult};
pub use ppl::{generate_corpus, perplexity};
pub use report::Table;
pub use tasks::{task_suite, PreparedTask, Task, TaskKind};
pub use timing::time_it;
