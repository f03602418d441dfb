//! Teacher-as-ground-truth perplexity.
//!
//! The FP16 synthetic model defines the data distribution: a corpus is
//! sampled from it, and any model is scored by its perplexity on that
//! corpus. By construction the FP16 teacher has the lowest achievable
//! expected perplexity (its own cross-entropy), and a compressed model's
//! excess perplexity is `exp(KL(teacher ‖ model))`-shaped — it grows with
//! weight reconstruction error, giving the same method ordering as
//! Wikitext-2 PPL does in the paper.

use milo_moe::{MoeModel, Result};
use milo_tensor::pool::par_map;
use milo_tensor::rng::StdRng;
use milo_tensor::rng::{Rng, SeedableRng};

/// Samples an evaluation corpus of `n_seqs` sequences of `seq_len`
/// tokens each from the teacher model at temperature 1.0, in parallel
/// (each sequence derives its own RNG stream from `seed`). The first
/// token of each sequence is uniform-random.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn generate_corpus(
    teacher: &MoeModel,
    n_seqs: usize,
    seq_len: usize,
    seed: u64,
) -> Result<Vec<Vec<u32>>> {
    let vocab = teacher.config.vocab as u32;
    let results = par_map(n_seqs, |i| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let first = rng.gen_range(0..vocab);
        teacher.sample(&[first], seq_len.saturating_sub(1), 1.0, &mut rng)
    });
    results.into_iter().collect()
}

/// Perplexity of `model` on `corpus`:
/// `exp( − mean log p(token_{i+1} | tokens_{..=i}) )`, evaluated with one
/// forward pass per sequence, in parallel.
///
/// # Errors
///
/// Propagates forward-pass failures; returns an error for an empty
/// corpus.
pub fn perplexity(model: &MoeModel, corpus: &[Vec<u32>]) -> Result<f32> {
    if corpus.is_empty() {
        return Err(milo_moe::MoeError::InvalidInput("empty corpus".into()));
    }
    let mut total_nll = 0.0f64;
    let mut count = 0usize;
    for (nll, c) in per_sequence_nll(model, corpus)? {
        total_nll += nll;
        count += c;
    }
    if count == 0 {
        return Err(milo_moe::MoeError::InvalidInput(
            "corpus has no next-token prediction targets".into(),
        ));
    }
    Ok((total_nll / count as f64).exp() as f32)
}

/// Per-sequence negative-log-likelihood contributions
/// `(sum NLL, prediction count)`, one forward pass per sequence, in
/// parallel. A sequence shorter than two tokens contributes `(0.0, 0)`.
/// This is both the sum behind [`perplexity`] and the resampling unit of
/// [`perplexity_ci`](crate::ci::perplexity_ci).
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn per_sequence_nll(model: &MoeModel, corpus: &[Vec<u32>]) -> Result<Vec<(f64, usize)>> {
    let results = par_map(corpus.len(), |s| -> Result<(f64, usize)> {
        let seq = &corpus[s];
        if seq.len() < 2 {
            return Ok((0.0, 0));
        }
        let logits = model.forward(seq)?;
        let mut nll = 0.0f64;
        for i in 0..seq.len() - 1 {
            nll -= log_softmax_at(logits.row(i), seq[i + 1] as usize);
        }
        Ok((nll, seq.len() - 1))
    });
    results.into_iter().collect()
}

/// Numerically stable `log softmax(logits)[target]`.
fn log_softmax_at(logits: &[f32], target: usize) -> f64 {
    let max_l = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse: f64 = logits.iter().map(|&l| ((l as f64) - max_l).exp()).sum::<f64>().ln() + max_l;
    logits[target] as f64 - lse
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_moe::config::MoeConfig;

    fn teacher() -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 11)
    }

    #[test]
    fn corpus_has_requested_shape() {
        let t = teacher();
        let corpus = generate_corpus(&t, 3, 10, 1).unwrap();
        assert_eq!(corpus.len(), 3);
        assert!(corpus.iter().all(|s| s.len() == 10));
    }

    #[test]
    fn corpus_is_deterministic() {
        let t = teacher();
        assert_eq!(
            generate_corpus(&t, 2, 8, 5).unwrap(),
            generate_corpus(&t, 2, 8, 5).unwrap()
        );
    }

    #[test]
    fn teacher_ppl_is_finite_and_below_uniform() {
        let t = teacher();
        let corpus = generate_corpus(&t, 4, 16, 2).unwrap();
        let ppl = perplexity(&t, &corpus).unwrap();
        // Uniform guessing over 64 tokens has PPL 64; the teacher must do
        // better on its own samples.
        assert!(ppl.is_finite() && ppl > 1.0);
        assert!(ppl < 64.0, "teacher ppl {ppl} not better than uniform");
    }

    #[test]
    fn perturbed_model_has_higher_ppl() {
        let t = teacher();
        let corpus = generate_corpus(&t, 4, 16, 3).unwrap();
        let base = perplexity(&t, &corpus).unwrap();
        // Corrupt the weights: perplexity on the teacher's corpus must
        // increase.
        let mut bad = t.clone();
        for layer in &mut bad.layers {
            layer.attn.wq = layer.attn.wq.scale(0.2);
            layer.attn.wv = layer.attn.wv.scale(2.0);
        }
        let worse = perplexity(&bad, &corpus).unwrap();
        assert!(worse > base, "perturbed {worse} should exceed teacher {base}");
    }

    #[test]
    fn log_softmax_sums_to_one() {
        let logits = vec![1.0f32, 2.0, 3.0, -1.0];
        let total: f64 = (0..4).map(|i| log_softmax_at(&logits, i).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_corpus_is_error() {
        let t = teacher();
        assert!(perplexity(&t, &[]).is_err());
        assert!(perplexity(&t, &[vec![1u32]]).is_err());
    }
}
