//! The engine-direct generation pass (`decode-packed`): one client runs
//! a fixed list of sessions, each a `PackedMoeModel::prefill` followed by
//! greedy `forward_step`s.

use std::time::{Duration, Instant};

use milo_engine::{PackedDecodeState, PackedMoeModel};
use milo_tensor::pool;

/// One generation session as its client saw it.
#[derive(Debug, Clone)]
pub struct Session {
    /// Prompt tokens.
    pub prompt_len: usize,
    /// When `prefill` was called.
    pub start: Instant,
    /// When `prefill` returned: the first token is known.
    pub prefill_end: Instant,
    /// Start and end of every `forward_step` after the prefill.
    pub steps: Vec<(Instant, Instant)>,
    /// Greedy tokens, the prefill's first.
    pub stream: Vec<u32>,
    /// Whether the session generated every token it was meant to.
    pub ok: bool,
}

impl Session {
    /// Time to first token.
    pub fn ttft(&self) -> Duration {
        self.prefill_end - self.start
    }

    /// When the last token was known.
    pub fn end(&self) -> Instant {
        self.steps.last().map_or(self.prefill_end, |&(_, end)| end)
    }
}

/// Index of the largest logit (the first on ties).
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

/// Runs one session of `gen_tokens` greedy tokens at `pool_width`.
pub fn session(
    model: &PackedMoeModel,
    prompt: &[u32],
    gen_tokens: usize,
    pool_width: usize,
) -> Session {
    pool::with_threads(pool_width, || {
        let mut state = PackedDecodeState::new(model);
        let start = Instant::now();
        let first = model.prefill(prompt, &mut state);
        let mut s = Session {
            prompt_len: prompt.len(),
            start,
            prefill_end: Instant::now(),
            steps: Vec::with_capacity(gen_tokens),
            stream: Vec::with_capacity(gen_tokens),
            ok: false,
        };
        let Ok(logits) = first else { return s };
        let mut token = argmax(&logits);
        s.stream.push(token);
        while s.stream.len() < gen_tokens {
            let t0 = Instant::now();
            let Ok(logits) = model.forward_step(token, &mut state) else { return s };
            s.steps.push((t0, Instant::now()));
            token = argmax(&logits);
            s.stream.push(token);
        }
        s.ok = true;
        s
    })
}

/// Everything one decode pass observed.
pub struct DecodePass {
    /// One entry per session, in list order.
    pub sessions: Vec<Session>,
    /// First prefill call to last token.
    pub wall: Duration,
}

/// Runs every prompt as a session, one after another.
pub fn run(
    model: &PackedMoeModel,
    prompts: &[Vec<u32>],
    gen_tokens: usize,
    pool_width: usize,
) -> DecodePass {
    let t0 = Instant::now();
    let sessions: Vec<Session> =
        prompts.iter().map(|p| session(model, p, gen_tokens, pool_width)).collect();
    DecodePass { sessions, wall: t0.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9, -1.0]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }
}
