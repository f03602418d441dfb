//! Proxy task suite (substitute for the paper's six benchmarks).
//!
//! Each paper benchmark is mapped to a *fidelity* task against the FP16
//! reference model: the reference's prediction on a prompt defines the
//! correct answer, and a compressed model's "accuracy" is how often it
//! agrees. The task parameters mirror the benchmarks' structure:
//!
//! | Paper benchmark | Proxy | Options | Prompt | Shots |
//! |---|---|---|---|---|
//! | HellaSwag | 4-way multiple choice | 4 | 16 | zero-shot |
//! | Lambada | open-vocabulary final token | vocab | 20 | zero-shot |
//! | PIQA | 2-way multiple choice | 2 | 12 | zero-shot |
//! | MMLU | 4-way multiple choice | 4 | 48 | 5-shot (long prompt) |
//! | TriQA | open-vocabulary | vocab | 48 | 5-shot (long prompt) |
//!
//! Prompts are uniform random token sequences: the reference model's
//! *behaviour on them* is the ground truth, so the prompt distribution
//! only needs to be fixed and shared, not "natural" (the synthetic models
//! have no natural text distribution to begin with). Multiple-choice
//! scoring restricts the argmax to an option set containing the
//! reference's top choice, so chance level is `1/options` just like the
//! real benchmarks.
//!
//! For evaluating several methods against one reference, prepare the
//! task once with [`PreparedTask::prepare`] (one reference forward per
//! prompt) and call [`PreparedTask::score`] per candidate (one candidate
//! forward per prompt).

use milo_moe::{MoeModel, Result};
use milo_tensor::pool;
use milo_tensor::rng::StdRng;
use milo_tensor::rng::{Rng, SeedableRng};

/// How a task scores a prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Pick among `options` candidate tokens (chance = 1/options).
    MultiChoice {
        /// Number of answer options.
        options: usize,
    },
    /// Predict the next token over the whole vocabulary.
    OpenVocab,
}

/// A fidelity task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Display name (paper benchmark it proxies).
    pub name: String,
    /// Scoring mode.
    pub kind: TaskKind,
    /// Prompt length in tokens (few-shot tasks use long prompts).
    pub prompt_len: usize,
    /// Number of prompts evaluated.
    pub n_prompts: usize,
    /// RNG seed for prompt and option sampling.
    pub seed: u64,
}

/// The paper's benchmark suite as proxy tasks. `n_prompts` scales the
/// evaluation cost; the zero-shot average in the tables is over the
/// first three (HellaSwag, Lambada, PIQA), matching the paper's "Avg"
/// column.
pub fn task_suite(n_prompts: usize) -> Vec<Task> {
    vec![
        Task {
            name: "HellaSwag".into(),
            kind: TaskKind::MultiChoice { options: 4 },
            prompt_len: 16,
            n_prompts,
            seed: 101,
        },
        Task {
            name: "Lambada".into(),
            kind: TaskKind::OpenVocab,
            prompt_len: 20,
            n_prompts,
            seed: 102,
        },
        Task {
            name: "PIQA".into(),
            kind: TaskKind::MultiChoice { options: 2 },
            prompt_len: 12,
            n_prompts,
            seed: 103,
        },
        Task {
            name: "MMLU".into(),
            kind: TaskKind::MultiChoice { options: 4 },
            prompt_len: 48,
            n_prompts,
            seed: 104,
        },
        Task {
            name: "TriQA".into(),
            kind: TaskKind::OpenVocab,
            prompt_len: 48,
            n_prompts,
            seed: 105,
        },
    ]
}

/// Index of the maximum logit within a candidate set.
fn argmax_within(logits: &[f32], candidates: &[u32]) -> u32 {
    *candidates
        .iter()
        .max_by(|&&a, &&b| {
            logits[a as usize]
                .partial_cmp(&logits[b as usize])
                .expect("finite logits")
        })
        .expect("non-empty candidate set")
}

/// A task with its prompts, option sets, and reference answers
/// precomputed, ready to score any number of candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedTask {
    task: Task,
    prompts: Vec<Vec<u32>>,
    /// Option set per prompt (full vocabulary for open-vocab tasks is
    /// represented as an empty vector).
    options: Vec<Vec<u32>>,
    /// The reference model's answer per prompt.
    answers: Vec<u32>,
}

impl PreparedTask {
    /// Generates prompts, samples option sets, and records the reference
    /// model's answers — one reference forward pass per prompt, run in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn prepare(task: &Task, reference: &MoeModel) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(task.seed);
        let vocab = reference.config.vocab as u32;
        let all: Vec<u32> = (0..vocab).collect();

        // Phase 1 (serial RNG): prompts.
        let prompts: Vec<Vec<u32>> = (0..task.n_prompts)
            .map(|_| (0..task.prompt_len).map(|_| rng.gen_range(0..vocab)).collect())
            .collect();

        // Phase 2 (parallel): reference answers.
        let answer_results = pool::par_map(prompts.len(), |i| -> Result<u32> {
            let logits = reference.forward(&prompts[i])?;
            Ok(argmax_within(logits.row(prompts[i].len() - 1), &all))
        });
        let answers: Vec<u32> = answer_results.into_iter().collect::<Result<_>>()?;

        // Phase 3 (serial RNG): distractor options around each answer.
        let options: Vec<Vec<u32>> = answers
            .iter()
            .map(|&answer| match task.kind {
                TaskKind::OpenVocab => Vec::new(),
                TaskKind::MultiChoice { options } => {
                    let mut opts = vec![answer];
                    while opts.len() < options {
                        let t = rng.gen_range(0..vocab);
                        if !opts.contains(&t) {
                            opts.push(t);
                        }
                    }
                    opts
                }
            })
            .collect();

        Ok(Self { task: task.clone(), prompts, options, answers })
    }

    /// The underlying task definition.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// Scores a candidate model: percentage of prompts where its answer
    /// matches the reference's (one candidate forward per prompt, run in
    /// parallel).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass failures.
    pub fn score(&self, candidate: &MoeModel) -> Result<f32> {
        let vocab = candidate.config.vocab as u32;
        let all: Vec<u32> = (0..vocab).collect();
        let hits = pool::par_map(self.prompts.len(), |i| -> Result<bool> {
            let prompt = &self.prompts[i];
            let logits = candidate.forward(prompt)?;
            let row = logits.row(prompt.len() - 1);
            let pick = if self.options[i].is_empty() {
                argmax_within(row, &all)
            } else {
                argmax_within(row, &self.options[i])
            };
            Ok(pick == self.answers[i])
        });
        let mut correct = 0usize;
        for h in hits {
            if h? {
                correct += 1;
            }
        }
        Ok(100.0 * correct as f32 / self.prompts.len().max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_moe::config::MoeConfig;

    fn model(seed: u64) -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_mixtral(), seed)
    }

    #[test]
    fn suite_has_five_tasks() {
        let suite = task_suite(10);
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["HellaSwag", "Lambada", "PIQA", "MMLU", "TriQA"]);
    }

    #[test]
    fn reference_scores_100_against_itself() {
        let m = model(1);
        for task in task_suite(5) {
            let acc = PreparedTask::prepare(&task, &m).unwrap().score(&m).unwrap();
            assert_eq!(acc, 100.0, "{}", task.name);
        }
    }

    #[test]
    fn unrelated_model_scores_near_chance_on_multichoice() {
        let a = model(2);
        let b = model(999); // independent weights
        let task = Task {
            name: "2way".into(),
            kind: TaskKind::MultiChoice { options: 2 },
            prompt_len: 8,
            n_prompts: 60,
            seed: 7,
        };
        let acc = PreparedTask::prepare(&task, &a).unwrap().score(&b).unwrap();
        // Chance is 50%; a completely unrelated model should be in a wide
        // band around it.
        assert!(acc > 20.0 && acc < 80.0, "accuracy {acc}");
    }

    #[test]
    fn mildly_perturbed_model_beats_unrelated_model() {
        let a = model(3);
        let mut perturbed = a.clone();
        perturbed.layers[0].attn.wq = perturbed.layers[0].attn.wq.scale(1.05);
        let unrelated = model(1000);
        let task = &task_suite(40)[0];
        let prepared = PreparedTask::prepare(task, &a).unwrap();
        let acc_pert = prepared.score(&perturbed).unwrap();
        let acc_unrel = prepared.score(&unrelated).unwrap();
        assert!(
            acc_pert > acc_unrel,
            "perturbed {acc_pert} should beat unrelated {acc_unrel}"
        );
    }

    #[test]
    fn preparation_is_deterministic() {
        let a = model(5);
        let task = &task_suite(6)[0];
        assert_eq!(
            PreparedTask::prepare(task, &a).unwrap(),
            PreparedTask::prepare(task, &a).unwrap()
        );
    }

    #[test]
    fn argmax_within_restricts_to_candidates() {
        let logits = vec![0.0, 10.0, 5.0, 3.0];
        assert_eq!(argmax_within(&logits, &[0, 2, 3]), 2);
        assert_eq!(argmax_within(&logits, &[0, 1, 2, 3]), 1);
    }
}
