//! Shared infrastructure for the experiment regenerators.
//!
//! Every table and figure in the paper's evaluation has a binary under
//! `src/bin/` (see `DESIGN.md` §4 for the index). This library holds what
//! they share: a small CLI-flag parser, the baseline/MiLo method runners,
//! and the scaled s1/s2 rank strategies of paper Table 5.

#![warn(missing_docs)]

pub mod args;
pub mod methods;
pub mod strategies;

pub use args::Args;
pub use methods::{run_milo, run_rtn, CompressionOutcome};
pub use strategies::{deepseek_s1, deepseek_s2, mixtral_s1, mixtral_s2, scale_rank};

use milo_eval::EvalConfig;
use milo_moe::MoeConfig;

/// Standard experiment setup derived from CLI flags: the two evaluation
/// models and the evaluation workload.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Scaled Mixtral-like configuration.
    pub mixtral: MoeConfig,
    /// Scaled DeepSeek-like configuration.
    pub deepseek: MoeConfig,
    /// Evaluation workload sizes.
    pub eval: EvalConfig,
    /// Model synthesis seed.
    pub seed: u64,
    /// Worker threads for layer-parallel compression.
    pub threads: usize,
}

impl Setup {
    /// Builds the setup from parsed flags.
    ///
    /// Three sizes, tuned for the machine this reproduction targets
    /// (single-core CPU):
    /// * default — half-scale models, 6 layers: every experiment finishes
    ///   in minutes while preserving all orderings;
    /// * `--fast` — smoke-test size;
    /// * `--full` — the DESIGN.md §5 configuration (8 layers, full scaled
    ///   dimensions), for machines with more cores/time.
    ///
    /// `--scale f` overrides the dimension scale in any mode.
    pub fn from_args(args: &Args) -> Self {
        let fast = args.flag("fast");
        let full = args.flag("full");
        let scale = args.get_f32("scale").unwrap_or(if full { 1.0 } else { 0.5 });
        let seed = args.get_u64("seed").unwrap_or(2025);
        let threads = args
            .get_u64("threads")
            .map(|t| t as usize)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(4));
        let mut mixtral = MoeConfig::mixtral_like().scaled(scale);
        let mut deepseek = MoeConfig::deepseek_like().scaled(scale);
        let eval = if fast {
            mixtral.n_layers = 3;
            deepseek.n_layers = 3;
            EvalConfig { n_seqs: 6, seq_len: 20, corpus_seed: 2024, task_prompts: 16 }
        } else if full {
            EvalConfig { n_seqs: 12, seq_len: 32, corpus_seed: 2024, task_prompts: 40 }
        } else {
            mixtral.n_layers = 6;
            deepseek.n_layers = 6;
            EvalConfig { n_seqs: 16, seq_len: 24, corpus_seed: 2024, task_prompts: 32 }
        };
        Self { mixtral, deepseek, eval, seed, threads }
    }
}

/// Prints the standard experiment banner: what is being regenerated and
/// what the paper reported, so the output reads side-by-side.
pub fn banner(id: &str, paper_summary: &str) {
    println!("=== {id} ===");
    println!("Paper reference: {paper_summary}");
    println!(
        "(Synthetic substrate: absolute values differ from the paper; \
         orderings and trends are the reproduction target. See EXPERIMENTS.md.)\n"
    );
}
