//! Cross-crate determinism suite for the threading PR: every parallel
//! path (dense matmul, fused/unfused packed GEMM, `PackedLinear`
//! including its dense fallback, the full packed engine forward and its
//! decode loop) must be **bit-identical** at every thread count. The pool's static contiguous
//! chunking plus unchanged per-element FP32 accumulation order makes the
//! guarantee exact equality, not tolerance-based closeness.
//!
//! Thread counts are swept with `pool::with_threads` (a thread-local
//! override), so these tests never mutate `MILO_THREADS` and stay safe
//! under cargo's parallel test runner.

use milo::core::{compress_model, milo_compress, MiloOptions, RankPolicy};
use milo::engine::{PackedDecodeState, PackedLinear, PackedMoeModel};
use milo::moe::{layer_tensors, MoeConfig, MoeModel};
use milo::pack::{GemmKernel, PackedMatrix, TileShape};
use milo::quant::{rtn_quantize, QuantConfig};
use milo::tensor::pool;
use milo::tensor::rng::{SeedableRng, StdRng, WeightDist};
use milo::tensor::Matrix;
use milo_tensor::proptest::{check, uniform_f32, vec_of, Config};
use milo_tensor::prop_assert_eq;

/// The thread counts every equivalence test sweeps: serial, even splits,
/// and a count that does not divide typical dimensions.
const SWEEP: [usize; 4] = [1, 2, 4, 7];

fn gaussian(rows: usize, cols: usize, std: f32, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightDist::Gaussian { std }.sample_matrix(rows, cols, &mut rng)
}

#[test]
fn dense_matmul_identical_across_thread_counts() {
    // Above the parallel-matmul work threshold and with row counts that
    // leave ragged final chunks at 4 and 7 threads.
    let a = gaussian(37, 96, 1.0, 1);
    let b = gaussian(96, 83, 0.5, 2);
    let serial = pool::with_threads(1, || a.matmul(&b).unwrap());
    for threads in SWEEP {
        let par = pool::with_threads(threads, || a.matmul(&b).unwrap());
        assert_eq!(serial, par, "matmul diverged at {threads} threads");
    }
}

#[test]
fn packed_gemm_identical_across_thread_counts_all_tiles() {
    let w = gaussian(256, 256, 0.05, 3);
    let q = rtn_quantize(&w, &QuantConfig::int3_asym()).unwrap();
    let packed = PackedMatrix::pack(&q).unwrap();
    for batch in [1usize, 5, 17] {
        let x = gaussian(batch, 256, 1.0, 4 + batch as u64);
        for tile in TileShape::all() {
            let kernel = GemmKernel { tile };
            let serial = pool::with_threads(1, || kernel.gemm(&x, &packed).unwrap());
            let serial_unfused =
                pool::with_threads(1, || kernel.gemm_unfused(&x, &packed).unwrap());
            for threads in SWEEP {
                pool::with_threads(threads, || {
                    assert_eq!(serial, kernel.gemm(&x, &packed).unwrap());
                    assert_eq!(serial_unfused, kernel.gemm_unfused(&x, &packed).unwrap());
                });
            }
        }
    }
}

#[test]
fn packed_linear_identical_including_dense_fallback() {
    // 256×128 takes the packed kernel path; 96×192 is untileable and
    // exercises the dense-fallback matmul under the pool.
    for (rows, cols) in [(256usize, 128usize), (96, 192)] {
        let w = gaussian(rows, cols, 0.06, 5);
        let opts = MiloOptions { max_iters: 2, ..MiloOptions::default() };
        let layer = milo_compress(&w, 4, &opts).unwrap();
        let lin = PackedLinear::build(&layer).unwrap();
        let x = gaussian(9, cols, 1.0, 6);
        let serial = pool::with_threads(1, || lin.forward(&x).unwrap());
        for threads in SWEEP {
            let par = pool::with_threads(threads, || lin.forward(&x).unwrap());
            assert_eq!(serial, par, "({rows},{cols}) diverged at {threads} threads");
        }
    }
}

/// A packed engine over a freshly synthesized `cfg` model (rank-2 MiLo,
/// one alternation).
fn packed_engine(cfg: &MoeConfig, seed: u64) -> PackedMoeModel {
    let reference = MoeModel::synthesize(cfg, seed);
    let tensors = layer_tensors(&reference, None);
    let opts = MiloOptions { max_iters: 1, ..MiloOptions::default() };
    let compressed =
        compress_model(&tensors, &RankPolicy::uniform(2), &opts, 2).unwrap();
    PackedMoeModel::build(&reference, &compressed).unwrap()
}

/// Tiny-Mixtral widened so every projection is tileable: the whole
/// engine runs on the fused packed kernel.
fn tileable_config() -> MoeConfig {
    let mut cfg = MoeConfig::tiny_mixtral();
    cfg.n_layers = 2;
    cfg.d_model = 128;
    cfg.expert_ffn = 256;
    cfg.n_heads = 2;
    cfg
}

#[test]
fn packed_engine_forward_identical_across_thread_counts() {
    let mut cfg = MoeConfig::tiny_mixtral();
    cfg.n_layers = 2;
    let engine = packed_engine(&cfg, 57);
    let tokens: Vec<u32> = (0..16).map(|i| (i * 5) % cfg.vocab as u32).collect();

    let serial = pool::with_threads(1, || engine.forward(&tokens).unwrap());
    for threads in SWEEP {
        let par = pool::with_threads(threads, || engine.forward(&tokens).unwrap());
        assert_eq!(serial, par, "engine forward diverged at {threads} threads");
    }

    // Fully packed: the batch forward and the decode loop (prefill, then
    // one forward_step per token) are both thread-count invariant, and
    // the decode loop reproduces the batch forward's rows exactly.
    let engine = packed_engine(&tileable_config(), 57);
    assert_eq!(engine.packed_fraction(), 1.0);
    let decode = |threads: usize| {
        pool::with_threads(threads, || {
            let mut state = PackedDecodeState::new(&engine);
            let mut logits = vec![engine.prefill(&tokens[..5], &mut state).unwrap()];
            for &t in &tokens[5..] {
                logits.push(engine.forward_step(t, &mut state).unwrap());
            }
            logits
        })
    };
    let prefill = |threads: usize| {
        pool::with_threads(threads, || {
            engine.prefill(&tokens, &mut PackedDecodeState::new(&engine)).unwrap()
        })
    };
    let serial = pool::with_threads(1, || engine.forward(&tokens).unwrap());
    let serial_decode = decode(1);
    for (i, row) in serial_decode.iter().enumerate() {
        assert_eq!(*row, serial.row(4 + i), "decode row {} differs from forward", 4 + i);
    }
    let last = serial.row(tokens.len() - 1);
    assert_eq!(prefill(1), last, "prefill differs from the last forward row");
    for threads in SWEEP {
        let par = pool::with_threads(threads, || engine.forward(&tokens).unwrap());
        assert_eq!(serial, par, "packed forward diverged at {threads} threads");
        assert_eq!(serial_decode, decode(threads), "packed decode diverged at {threads} threads");
        assert_eq!(prefill(threads), last, "prefill diverged at {threads} threads");
    }
}

#[test]
fn plain_and_resilient_forwards_identical_across_thread_counts() {
    // Plain forward is the resilient forward under a strict context; on
    // healthy experts degrade mode must not perturb a single bit either.
    // DeepSeek-like covers the dense first layer and shared experts.
    use milo::moe::ResilienceContext;

    let cfg = MoeConfig::tiny_deepseek();
    let reference = MoeModel::synthesize(&cfg, 58);
    let engine = packed_engine(&tileable_config(), 58);
    let tokens: Vec<u32> = (0..12).map(|i| (i * 7) % 64).collect();
    let serial = pool::with_threads(1, || reference.forward(&tokens).unwrap());
    let serial_packed = pool::with_threads(1, || engine.forward(&tokens).unwrap());
    for threads in SWEEP {
        pool::with_threads(threads, || {
            for ctx in [ResilienceContext::strict(), ResilienceContext::degrade()] {
                let mode = ctx.mode;
                assert_eq!(serial, reference.forward(&tokens).unwrap(), "{threads} threads");
                assert_eq!(
                    serial,
                    reference.forward_resilient(&tokens, &ctx).unwrap(),
                    "reference {mode:?} at {threads} threads"
                );
                assert_eq!(serial_packed, engine.forward(&tokens).unwrap(), "{threads} threads");
                assert_eq!(
                    serial_packed,
                    engine.forward_resilient(&tokens, &ctx).unwrap(),
                    "engine {mode:?} at {threads} threads"
                );
                assert_eq!(ctx.health.n_failed(), 0);
            }
        });
    }
}

#[test]
fn fault_free_serving_identical_to_direct_forward() {
    // The serving layer must be a pure request-lifecycle wrapper: with
    // no faults injected, logits served through the queue/worker/retry
    // machinery are bit-identical to a direct `forward_resilient` call,
    // at every worker count (the pool's own thread-count invariance is
    // covered above, so together these pin the whole serving stack).
    use milo::moe::{FaultMode, ResilienceContext};
    use milo::serve::{Request, Server, ServerConfig};
    use std::sync::Arc;

    let mut cfg = MoeConfig::tiny_mixtral();
    cfg.n_layers = 2;
    let engine = Arc::new(packed_engine(&cfg, 57));

    let prompts: Vec<Vec<u32>> = (0..6)
        .map(|p| (0..8).map(|i| ((p * 11 + i * 5) % cfg.vocab) as u32).collect())
        .collect();
    let ctx = ResilienceContext::new(FaultMode::Degrade);
    let direct: Vec<Matrix> = prompts
        .iter()
        .map(|t| engine.forward_resilient(t, &ctx).unwrap())
        .collect();

    for workers in SWEEP {
        let model: Arc<PackedMoeModel> = Arc::clone(&engine);
        let server =
            Server::start(model, ServerConfig { workers, ..ServerConfig::default() });
        let tickets: Vec<_> = prompts
            .iter()
            .map(|t| server.submit(Request::new(t.clone())).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.wait().unwrap_or_else(|e| {
                panic!("request {i} failed at {workers} workers: {e}")
            });
            assert_eq!(
                direct[i], resp.logits,
                "served logits diverged from direct forward (prompt {i}, {workers} workers)"
            );
        }
        server.shutdown();
    }
}

#[test]
fn prop_matmul_independent_of_thread_count() {
    // Property: for random matrices the parallel product is bit-identical
    // to the serial one at every swept thread count. Rows/cols chosen so
    // chunk boundaries land mid-matrix.
    let (rows, inner, cols) = (19usize, 64usize, 23usize);
    let strategy = vec_of(uniform_f32(-1.0, 1.0), rows * inner + inner * cols);
    check(&Config::with_cases(32), &strategy, |data| {
        let a = Matrix::from_vec(rows, inner, data[..rows * inner].to_vec());
        let b = Matrix::from_vec(inner, cols, data[rows * inner..].to_vec());
        let serial = pool::with_threads(1, || a.matmul(&b).unwrap());
        for threads in SWEEP {
            let par = pool::with_threads(threads, || a.matmul(&b).unwrap());
            prop_assert_eq!(&serial, &par);
        }
        Ok(())
    });
}
