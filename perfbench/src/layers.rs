//! Layer measurements of the traced run, made from outside the program:
//! counters `milo-obs` already exports, and timed replays of public
//! functions on the run's own model.

use std::time::Instant;

use milo_core::CompressedModel;
use milo_engine::{PackedDecodeState, PackedLinear, PackedMoeModel};
use milo_moe::{MoeConfig, ResilienceContext};
use milo_obs::MetricSnapshot;
use milo_tensor::{pool, Matrix};

use crate::stats::median;
use crate::tracer::Tracer;

/// Totals of the counters, gauges and histograms the program exports,
/// read from the `milo_obs` registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exported {
    /// `pack.gemm.dequant_ns`: time the fused GEMM spent de-quantizing.
    pub dequant_ns: u64,
    /// `pack.gemm.mac_ns`: time the fused GEMM spent multiplying.
    pub mac_ns: u64,
    /// Σ `engine.expert_tokens`: token rows routed to experts.
    pub expert_rows: u64,
    /// Σ count of `engine.expert_ns`: expert forward calls.
    pub expert_calls: u64,
    /// max `engine.load_skew`: busiest expert over the mean, per layer.
    pub load_skew_max: f64,
    /// Σ `pool.busy_ns`.
    pub pool_busy_ns: u64,
    /// Σ `pool.tasks`.
    pub pool_tasks: u64,
    /// `core.iterations`: MiLo outer iterations run by the set-up.
    pub core_iterations: u64,
    /// Σ of the `engine.ffn` span histogram.
    pub ffn_ns: u64,
    /// Σ of the `engine.forward` span histogram.
    pub forward_ns: u64,
}

/// Reads the registry.
pub fn read_exported() -> Exported {
    let mut e = Exported::default();
    for (key, metric) in milo_obs::registry::snapshot() {
        let name = key.split('{').next().unwrap_or_default();
        match (name, metric) {
            ("pack.gemm.dequant_ns", MetricSnapshot::Counter(v)) => e.dequant_ns += v,
            ("pack.gemm.mac_ns", MetricSnapshot::Counter(v)) => e.mac_ns += v,
            ("engine.expert_tokens", MetricSnapshot::Counter(v)) => e.expert_rows += v,
            ("engine.expert_ns", MetricSnapshot::Histogram(h)) => e.expert_calls += h.count,
            ("engine.load_skew", MetricSnapshot::Gauge(v)) => {
                e.load_skew_max = e.load_skew_max.max(v)
            }
            ("pool.busy_ns", MetricSnapshot::Counter(v)) => e.pool_busy_ns += v,
            ("pool.tasks", MetricSnapshot::Counter(v)) => e.pool_tasks += v,
            ("core.iterations", MetricSnapshot::Counter(v)) => e.core_iterations += v,
            ("engine.ffn", MetricSnapshot::Histogram(h)) => e.ffn_ns += h.sum,
            ("engine.forward", MetricSnapshot::Histogram(h)) => e.forward_ns += h.sum,
            _ => {}
        }
    }
    e
}

/// One projection a token passes through: a `PackedLinear` built from
/// the run's compressed layer, and how often per token a forward pass
/// calls a projection like it.
pub struct LinearUse {
    /// The deployment-form projection.
    pub linear: PackedLinear,
    /// Calls per token.
    pub calls_per_token: f64,
}

/// The projections one token passes through, layer by layer: four
/// attention projections, then either the dense FFN or `top_k` routed
/// experts plus every shared expert (expert 0 and shared expert 0 stand
/// for their peers, which have the same shape and rank).
///
/// # Errors
///
/// If the compressed model lacks a projection the config implies.
pub fn linear_uses(
    cfg: &MoeConfig,
    compressed: &CompressedModel,
) -> Result<Vec<LinearUse>, String> {
    let build = |name: String, calls_per_token: f64| -> Result<LinearUse, String> {
        let rec = compressed
            .layer(&name)
            .ok_or_else(|| format!("compressed model has no layer {name}"))?;
        let linear = PackedLinear::build(&rec.layer).map_err(|e| format!("{name}: {e}"))?;
        Ok(LinearUse { linear, calls_per_token })
    };
    let mut uses = Vec::new();
    for li in 0..cfg.n_layers {
        for p in ["wq", "wk", "wv", "wo"] {
            uses.push(build(format!("layer{li}.attn.{p}"), 1.0)?);
        }
        for w in ["w1", "w2", "w3"] {
            if cfg.first_layer_dense && li == 0 {
                uses.push(build(format!("layer{li}.dense.{w}"), 1.0)?);
                continue;
            }
            uses.push(build(format!("layer{li}.expert0.{w}"), cfg.top_k as f64)?);
            if cfg.n_shared_experts > 0 {
                uses.push(build(format!("layer{li}.shared0.{w}"), cfg.n_shared_experts as f64)?);
            }
        }
    }
    Ok(uses)
}

/// `PackedLinear::forward` calls per token (computed from the config).
pub fn calls_per_token(uses: &[LinearUse]) -> f64 {
    uses.iter().map(|u| u.calls_per_token).sum()
}

/// Weight bytes streamed per token (computed from tensor sizes): every
/// projection a token passes through moves its packed INT3 weight and
/// its compensator once, `PackedLinear::memory_bytes` each.
pub fn bytes_per_token(uses: &[LinearUse]) -> f64 {
    uses.iter().map(|u| u.calls_per_token * u.linear.memory_bytes() as f64).sum()
}

/// Median time of one `PackedLinear::forward` call on `rows` rows at
/// `pool_width`, in µs.
fn time_linear(
    linear: &PackedLinear,
    rows: usize,
    reps: usize,
    pool_width: usize,
    tracer: &Tracer,
) -> Result<f64, String> {
    let x = Matrix::from_fn(rows, linear.in_features(), |r, c| {
        ((r * 31 + c * 17) % 97) as f32 / 97.0 - 0.5
    });
    let shape = format!("{}x{}", linear.out_features(), linear.in_features());
    pool::with_threads(pool_width, || {
        linear.forward(&x).map_err(|e| e.to_string())?; // warm-up
        let mut us = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(
                linear.forward(std::hint::black_box(&x)).map_err(|e| e.to_string())?,
            );
            let t1 = Instant::now();
            tracer.span(format!("bench.pack.linear{{bs={rows},shape={shape}}}"), t0, t1);
            us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        Ok(median(&us))
    })
}

/// Calls-weighted mean time of one `PackedLinear::forward` over the
/// projections a token passes through, replayed at `rows` rows, in µs.
/// Projections of one shape are timed once.
///
/// # Errors
///
/// Kernel errors, as text.
pub fn linear_us(
    uses: &[LinearUse],
    rows: usize,
    reps: usize,
    pool_width: usize,
    tracer: &Tracer,
) -> Result<f64, String> {
    let mut timed: Vec<((usize, usize), f64)> = Vec::new();
    let mut total = 0.0;
    for u in uses {
        let shape = (u.linear.out_features(), u.linear.in_features());
        let us = match timed.iter().find(|(s, _)| *s == shape) {
            Some(&(_, us)) => us,
            None => {
                let us = time_linear(&u.linear, rows, reps, pool_width, tracer)?;
                timed.push((shape, us));
                us
            }
        };
        total += u.calls_per_token * us;
    }
    Ok(total / calls_per_token(uses))
}

/// Median `forward_step` time after a short prefill, at `pool_width`,
/// in µs — the cost of one token at batch 1.
///
/// # Errors
///
/// Engine errors, as text.
pub fn step_us(model: &PackedMoeModel, pool_width: usize, tracer: &Tracer) -> Result<f64, String> {
    const STEPS: u32 = 16;
    let vocab = model.vocab() as u32;
    pool::with_threads(pool_width, || {
        let mut state = PackedDecodeState::new(model);
        model.prefill(&[1, 2, 3, 4], &mut state).map_err(|e| e.to_string())?;
        let mut us = Vec::with_capacity(STEPS as usize);
        for i in 0..STEPS {
            let t0 = Instant::now();
            model.forward_step((5 + 7 * i) % vocab, &mut state).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.span("bench.engine.step_replay".into(), t0, t1);
            us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        Ok(median(&us))
    })
}

/// Share of `forward_resilient` time the engine spends in its FFN
/// blocks, from the engine's own `engine.ffn` / `engine.forward` span
/// histograms over a replay of `inputs`. Clears the metric registry.
///
/// # Errors
///
/// Engine errors, as text.
pub fn ffn_share(
    model: &PackedMoeModel,
    inputs: &[Vec<u32>],
    pool_width: usize,
) -> Result<f64, String> {
    milo_obs::registry::reset();
    for tokens in inputs {
        pool::with_threads(pool_width, || {
            model.forward_resilient(tokens, &ResilienceContext::degrade())
        })
        .map_err(|e| e.to_string())?;
    }
    let e = read_exported();
    Ok(if e.forward_ns == 0 { 0.0 } else { e.ffn_ns as f64 / e.forward_ns as f64 })
}
