//! Method-level evaluation: produce one row of the paper's evaluation
//! tables (memory, perplexity, task scores) for a compressed model.

use crate::ppl::{generate_corpus, perplexity};
use crate::tasks::task_suite;
use milo_moe::{MoeModel, Result};

/// Evaluation workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Number of perplexity sequences sampled from the reference.
    pub n_seqs: usize,
    /// Length of each perplexity sequence.
    pub seq_len: usize,
    /// Corpus RNG seed.
    pub corpus_seed: u64,
    /// Prompts per proxy task.
    pub task_prompts: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { n_seqs: 12, seq_len: 32, corpus_seed: 2024, task_prompts: 40 }
    }
}

impl EvalConfig {
    /// A very small workload for tests.
    pub fn tiny() -> Self {
        Self { n_seqs: 3, seq_len: 12, corpus_seed: 2024, task_prompts: 6 }
    }
}

/// One row of a paper-style evaluation table.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name ("RTN", "HQQ", "MiLo-s1", …).
    pub name: String,
    /// Deployment memory of the compressed weights, bytes.
    pub memory_bytes: usize,
    /// Perplexity on the teacher-sampled corpus.
    pub ppl: f32,
    /// `(task name, accuracy %)` for the proxy suite, in suite order.
    pub task_scores: Vec<(String, f32)>,
    /// Wall-clock quantization time, seconds.
    pub quant_seconds: f64,
}

impl MethodResult {
    /// Average of the zero-shot tasks (HellaSwag, Lambada, PIQA) — the
    /// paper's "Avg" column.
    pub fn zero_shot_avg(&self) -> f32 {
        let zs: Vec<f32> = self
            .task_scores
            .iter()
            .filter(|(n, _)| matches!(n.as_str(), "HellaSwag" | "Lambada" | "PIQA"))
            .map(|&(_, s)| s)
            .collect();
        if zs.is_empty() {
            return 0.0;
        }
        zs.iter().sum::<f32>() / zs.len() as f32
    }

    /// Looks up one task's score by name.
    pub fn score(&self, task: &str) -> Option<f32> {
        self.task_scores.iter().find(|(n, _)| n == task).map(|&(_, s)| s)
    }
}

/// A shared evaluation context: the teacher corpus and prepared tasks,
/// computed once from the reference model and reused across every method
/// being compared (the expensive part of Table-3-style experiments).
#[derive(Debug, Clone)]
pub struct EvalContext {
    corpus: Vec<Vec<u32>>,
    tasks: Vec<crate::tasks::PreparedTask>,
}

impl EvalContext {
    /// Samples the perplexity corpus and prepares all proxy tasks on the
    /// reference model.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn prepare(reference: &MoeModel, cfg: &EvalConfig) -> Result<Self> {
        let corpus = generate_corpus(reference, cfg.n_seqs, cfg.seq_len, cfg.corpus_seed)?;
        let mut tasks = Vec::new();
        for task in task_suite(cfg.task_prompts) {
            tasks.push(crate::tasks::PreparedTask::prepare(&task, reference)?);
        }
        Ok(Self { corpus, tasks })
    }

    /// Evaluates one candidate model against the prepared context.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn evaluate(
        &self,
        name: impl Into<String>,
        candidate: &MoeModel,
        memory_bytes: usize,
        quant_seconds: f64,
    ) -> Result<MethodResult> {
        let ppl = perplexity(candidate, &self.corpus)?;
        let mut task_scores = Vec::new();
        for task in &self.tasks {
            task_scores.push((task.task().name.clone(), task.score(candidate)?));
        }
        Ok(MethodResult { name: name.into(), memory_bytes, ppl, task_scores, quant_seconds })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_moe::config::MoeConfig;

    #[test]
    fn reference_evaluates_perfectly_on_tasks() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 1);
        let ctx = EvalContext::prepare(&m, &EvalConfig::tiny()).unwrap();
        let r = ctx.evaluate("FP16", &m, 0, 0.0).unwrap();
        assert_eq!(r.zero_shot_avg(), 100.0);
        assert_eq!(r.score("MMLU"), Some(100.0));
        assert!(r.ppl.is_finite());
    }

    #[test]
    fn degraded_model_scores_worse() {
        let m = MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 2);
        let mut bad = m.clone();
        for layer in &mut bad.layers {
            layer.attn.wq = layer.attn.wq.scale(0.1);
            layer.attn.wk = layer.attn.wk.scale(3.0);
        }
        let ctx = EvalContext::prepare(&m, &EvalConfig::tiny()).unwrap();
        let good = ctx.evaluate("FP16", &m, 0, 0.0).unwrap();
        let worse = ctx.evaluate("bad", &bad, 0, 0.0).unwrap();
        assert!(worse.ppl > good.ppl);
        assert!(worse.zero_shot_avg() < good.zero_shot_avg());
    }

    #[test]
    fn result_without_tasks_has_no_scores() {
        let r = MethodResult {
            name: "x".into(),
            memory_bytes: 1 << 30,
            ppl: 1.0,
            task_scores: vec![],
            quant_seconds: 0.0,
        };
        assert_eq!(r.zero_shot_avg(), 0.0);
        assert_eq!(r.score("nope"), None);
    }
}
