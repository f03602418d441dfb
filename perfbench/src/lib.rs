//! `perfbench` — the repository's end-to-end benchmark.
//!
//! Three workloads drive the MiLo serving stack and report what a user
//! sees, with tracing off; a separate traced run breaks the same work
//! down by layer, named after the crates (`serve`, `engine`, `moe`,
//! `pack`, `pool`, set-up). Every layer is measured from outside: the
//! benchmark times its own calls into public functions and reads the
//! counters `milo-obs` already exports; it adds no instrumentation to the
//! program.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --slo-ms serve-finegrained=100,decode-packed=400,prefill-packed=600 \
//!     --workload decode-packed --seed 1 --seconds 25 --trace 0
//! ```
//!
//! # Workloads
//!
//! | workload | traffic | what does the work |
//! |---|---|---|
//! | `serve-finegrained` | open loop: seeded Poisson arrivals at 40 req/s from one generator thread into `Server` (2 workers, pool width 1); DeepSeek-like model cut to 4 layers (64 experts top-6, 2 shared); 4–32-token prompts | admission, queueing, worker hand-off and dispatch over 64 skewed experts; `packed_fraction` 0, so the packed kernel does nothing |
//! | `decode-packed` | one client, a fixed list of sessions: `prefill` of 4–12 tokens, then greedy `forward_step` to 32 tokens, pool width 2; Tiny-Mixtral widened to d_model 128, expert FFN 256 | batch-1 GEMV through the fused INT3 kernel; `packed_fraction` 1; no server |
//! | `prefill-packed` | 2 closed-loop clients into `Server` (2 workers, pool width 1), 32–64-token prompts, one forward each; same model | the same kernel at tens of rows per call |
//!
//! Inputs are a pure function of `--seed` ([`inputs`]); models are fixed.
//! A run holds a fixed list of `items_per_s × --seconds` requests or
//! sessions (rounded to whole rounds over the prompt lengths), sized
//! so the parent code takes about `--seconds` on a 2-core host.
//!
//! # End-to-end metrics (tracing off)
//!
//! Timings are a median plus the highest percentile with at least ten
//! samples beyond it ([`stats`]); the percentile chosen and the sample
//! counts are printed in the provenance line.
//!
//! | metric | serve workloads | `decode-packed` |
//! |---|---|---|
//! | `setup_s` | median of repeated `synthesize` → `compress_model` → `PackedMoeModel::build` | same |
//! | `latency_ms.p50` / `.tail` | response latency, from when the request was due | time to first token (the `prefill` call) |
//! | `step_ms.p50` / `.tail` | the forward call the server made (service time) | inter-token latency (one `forward_step`) |
//! | `tok_s` | prompt tokens answered per second | tokens generated per second |
//! | `slo_ok_share` | share of attempted requests answered within `--slo-ms`; failures count as misses | same, on time to first token |
//! | `ok_share` | 1 − (failed + refused) / attempted | same, per session |
//! | `top1_agree` | argmax agreement with the FP32 `MoeModel` on a fixed prompt sample | same |
//! | `weight_bytes` | `PackedMoeModel::memory_bytes` | same |
//!
//! # Per-layer metrics (traced run)
//!
//! A traced run repeats the pass at `milo-obs` trace level and writes a
//! Chrome trace (`.bench_out/trace-<workload>-seed<n>.json`) that must
//! pass `milo_obs::validate_trace`. Where a layer is bypassed its metrics
//! read 0. The end-to-end metric each should move:
//!
//! | metric | moves |
//! |---|---|
//! | `serve.queue_wait_ms.*` (submit → forward start), `serve.max_queue_depth`, `serve.rejected`, `serve.shed` | `latency_ms.tail`, `slo_ok_share`, `ok_share` (serve-finegrained) |
//! | `serve.service_ms.*`, `serve.handoff_ms.p50` (forward end → `Ticket::wait` return), `serve.busy_share`, `serve.forwards_per_request` | `latency_ms.p50` (serve-finegrained, prefill-packed), `tok_s` (prefill-packed) |
//! | `engine.us_per_token`, `engine.ffn_share` (`engine.ffn` / `engine.forward` span sums over a `forward_resilient` replay) | `latency_ms.p50` (serve-finegrained), `tok_s` (prefill-packed) |
//! | `engine.prefill_ms_per_token` | `latency_ms.p50` (decode-packed) |
//! | `moe.load_skew.max` (max `engine.load_skew`), `moe.rows_per_expert_call.mean` (Σ `engine.expert_tokens` / expert calls) | `latency_ms.tail` (serve-finegrained), `tok_s` (prefill-packed) |
//! | `pack.linear_us.bs1`, `pack.step_share`, `pack.calls_per_token` | `step_ms.p50`, `tok_s` (decode-packed) |
//! | `pack.linear_us.bs32` | `latency_ms.p50` (prefill-packed) |
//! | `pack.dequant_share` (`pack.gemm.dequant_ns` over dequant + MAC) | `step_ms.p50` (decode-packed, dequant-bound) vs `tok_s` (prefill-packed, MAC-bound) |
//! | `pack.bytes_per_token` | `tok_s`, `weight_bytes` (decode-packed) |
//! | `pool.busy_share` (Σ `pool.busy_ns` over wall × busy threads), `pool.tasks_per_token` | `step_ms.p50` (decode-packed; width 1 elsewhere) |
//! | `setup.synth_s`, `setup.compress_s`, `setup.build_s`, `core.iterations` | `setup_s` (all; largest on serve-finegrained) |
//! | `loadgen.lag_ms.tail`, `trace.overhead_share` | validity: generator lateness; traced vs untraced `latency_ms.p50` |
//!
//! `pack.calls_per_token` and `pack.bytes_per_token` are computed from
//! the config and tensor sizes (`PackedLinear::memory_bytes`), not
//! measured. `pack.linear_us.*` replay `PackedLinear::forward` on the
//! run's compressed layers; `pack.step_share` sets their batch-1 sum
//! against a replayed `forward_step`. The program counts nested serial
//! pool calls at each level, so `pool.busy_share` can exceed 1 at pool
//! width 1.
//!
//! # Gates
//!
//! A result is printed only if the correctness gate passes (served
//! responses bit-identical to a direct `forward_resilient` with a fresh
//! degrade context; decode streams identical when replayed at pool width
//! 1; `top1_agree` above a floor; `packed_fraction` 0 or 1 as designed)
//! and the run is valid (generator lag within bound, no more busy threads
//! than cores, `MILO_TELEMETRY` off for the end-to-end pass).

pub mod decode;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod serving;
pub mod stats;
pub mod tracer;
pub mod workload;
