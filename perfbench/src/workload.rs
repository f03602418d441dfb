//! The named workloads, the models they serve, and model set-up.

use std::sync::Arc;
use std::time::Instant;

use milo_core::{compress_model, CompressedModel, MiloOptions, RankPolicy};
use milo_engine::PackedMoeModel;
use milo_moe::{layer_tensors, MoeConfig, MoeModel};
use milo_quant::HqqOptions;

use crate::stats::MIN_SAMPLES;
use crate::tracer::Tracer;

/// Seed of every synthesized model. Models are part of the workload
/// definition, not of its inputs, so `--seed` leaves them unchanged.
pub const MODEL_SEED: u64 = 0x4D69_4C6F;

/// Compensator rank of every compressed projection.
pub const RANK: usize = 4;

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One generator thread submits to `Server` on a seeded Poisson
    /// schedule at a fixed absolute rate, whatever the backlog.
    OpenLoop {
        /// Arrivals per second.
        rate_per_s: f64,
    },
    /// `clients` threads, each submitting its next request to `Server`
    /// only after the previous one returned.
    ClosedLoop {
        /// Concurrent clients.
        clients: usize,
    },
    /// One client running generation sessions directly on the engine:
    /// `PackedMoeModel::prefill`, then greedy `forward_step` until the
    /// session has generated `gen_tokens` tokens.
    Decode {
        /// Tokens generated per session, the prefill's included.
        gen_tokens: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The served model's architecture.
    pub model: MoeConfig,
    /// Traffic shape.
    pub drive: Drive,
    /// Prompt lengths, inclusive.
    pub prompt_len: (usize, usize),
    /// Requests (or sessions) per second of `--seconds`. This fixes how
    /// many a run holds, calibrated so a run of the parent code takes
    /// about `--seconds`; the list, not the clock, bounds a run.
    pub items_per_s: f64,
    /// Server worker threads; 0 when the client calls the engine itself.
    pub workers: usize,
    /// `milo_tensor::pool` width of every thread that runs the model.
    pub pool_width: usize,
    /// The `PackedMoeModel::packed_fraction` the workload is built to
    /// have: 0 bypasses the packed kernel, 1 runs every projection on it.
    pub packed_fraction: f32,
}

impl Workload {
    /// Requests (or sessions) in a run of `seconds`, rounded to the
    /// nearest whole number of rounds over the prompt lengths. Every
    /// length then appears equally often, so the median and tail ranks
    /// fall inside a group of equal-length prompts rather than on the
    /// edge between two lengths, where noise would flip them from one to
    /// the other.
    pub fn items(&self, seconds: u64) -> usize {
        let span = self.prompt_len.1 - self.prompt_len.0 + 1;
        let rounds = (self.items_per_s * seconds as f64 / span as f64).round() as usize;
        (rounds.max(1) * span).max(MIN_SAMPLES.div_ceil(span) * span)
    }

    /// Client threads the workload starts.
    pub fn clients(&self) -> usize {
        match self.drive {
            Drive::ClosedLoop { clients } => clients,
            Drive::OpenLoop { .. } | Drive::Decode { .. } => 1,
        }
    }

    /// Threads that run model code at the same time: server workers ×
    /// pool width, or — when clients call the engine themselves —
    /// clients × pool width. Server clients block in `Ticket::wait` and
    /// the open-loop generator sleeps between sends, so neither is busy.
    pub fn compute_threads(&self) -> usize {
        match self.drive {
            Drive::Decode { .. } => self.clients() * self.pool_width,
            Drive::OpenLoop { .. } | Drive::ClosedLoop { .. } => self.workers * self.pool_width,
        }
    }
}

/// `MoeConfig::deepseek_like` cut to 4 layers: 64 routed experts top-6,
/// 2 shared experts, a dense first layer and a skewed router. No
/// projection fits the packed kernel's tiles, so all take the dense
/// fallback.
pub fn deepseek_4l() -> MoeConfig {
    let mut cfg = MoeConfig::deepseek_like();
    cfg.name = "DeepSeek-like-4L".into();
    cfg.n_layers = 4;
    cfg
}

/// The `tiny_mixtral` shape widened to d_model 128 and expert FFN 256,
/// 2 layers, 4 experts top-2: every projection fits the packed kernel.
pub fn packed_mixtral() -> MoeConfig {
    let mut cfg = MoeConfig::tiny_mixtral();
    cfg.name = "Tiny-Mixtral-128".into();
    cfg.d_model = 128;
    cfg.expert_ffn = 256;
    cfg.n_layers = 2;
    cfg
}

/// Open-loop fine-grained serving: admission, queueing, worker hand-off
/// and dispatch over 64 skewed experts; the packed kernel does nothing.
pub fn serve_finegrained() -> Workload {
    Workload {
        name: "serve-finegrained",
        model: deepseek_4l(),
        drive: Drive::OpenLoop { rate_per_s: 40.0 },
        prompt_len: (4, 32),
        items_per_s: 40.0,
        workers: 2,
        pool_width: 1,
        packed_fraction: 0.0,
    }
}

/// Single-stream generation on the fully packed model: batch-1 GEMV
/// through the fused INT3 kernel, with the pool's parallel path.
pub fn decode_packed() -> Workload {
    Workload {
        name: "decode-packed",
        model: packed_mixtral(),
        drive: Drive::Decode { gen_tokens: 32 },
        prompt_len: (4, 12),
        items_per_s: 1.8,
        workers: 0,
        pool_width: 2,
        packed_fraction: 1.0,
    }
}

/// Packed prefill behind `Server`: the fused kernel at tens of rows per
/// call, closed loop so no queue builds.
pub fn prefill_packed() -> Workload {
    Workload {
        name: "prefill-packed",
        model: packed_mixtral(),
        drive: Drive::ClosedLoop { clients: 2 },
        prompt_len: (32, 64),
        items_per_s: 9.0,
        workers: 2,
        pool_width: 1,
        packed_fraction: 1.0,
    }
}

/// Every named workload.
pub fn all() -> Vec<Workload> {
    vec![serve_finegrained(), decode_packed(), prefill_packed()]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The FP32 reference, its compressed form, and the deployment model.
pub struct Models {
    /// The synthesized FP32 reference.
    pub reference: MoeModel,
    /// MiLo output for every projection.
    pub compressed: CompressedModel,
    /// The packed deployment model every workload serves.
    pub packed: Arc<PackedMoeModel>,
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `MoeModel::synthesize`.
    pub synth_s: f64,
    /// `layer_tensors` + `compress_model` (MiLo with HQQ).
    pub compress_s: f64,
    /// `PackedMoeModel::build`.
    pub build_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.synth_s + self.compress_s + self.build_s
    }
}

/// MiLo settings of the set-up: one outer iteration of five HQQ steps,
/// enough to produce deployment-form weights in seconds.
pub fn milo_options() -> MiloOptions {
    MiloOptions {
        max_iters: 1,
        hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
        ..MiloOptions::default()
    }
}

/// Synthesizes, compresses (on `threads` threads) and builds the model
/// for `cfg`, recording a span per stage when traced.
///
/// # Errors
///
/// Compression or build failures, as text.
pub fn setup(
    cfg: &MoeConfig,
    threads: usize,
    tracer: Option<&Tracer>,
) -> Result<(Models, SetupTimes), String> {
    let span = |name: &str, start: Instant, end: Instant| {
        if let Some(t) = tracer {
            t.span(format!("bench.setup.{name}"), start, end);
        }
    };
    let t0 = Instant::now();
    let reference = MoeModel::synthesize(cfg, MODEL_SEED);
    let t1 = Instant::now();
    span("synthesize", t0, t1);
    let tensors = layer_tensors(&reference, None);
    let compressed = compress_model(&tensors, &RankPolicy::uniform(RANK), &milo_options(), threads)
        .map_err(|e| format!("compress_model failed: {e}"))?;
    let t2 = Instant::now();
    span("compress", t1, t2);
    let packed = PackedMoeModel::build(&reference, &compressed)
        .map_err(|e| format!("PackedMoeModel::build failed: {e}"))?;
    let t3 = Instant::now();
    span("build", t2, t3);
    let times = SetupTimes {
        synth_s: (t1 - t0).as_secs_f64(),
        compress_s: (t2 - t1).as_secs_f64(),
        build_s: (t3 - t2).as_secs_f64(),
    };
    Ok((Models { reference, compressed, packed: Arc::new(packed) }, times))
}
