//! Expert dispatch: the one MoE step every model in the workspace runs
//! per layer (paper §4.3.1) — route each token, gather each expert's
//! tokens into one batch, run the expert GEMMs, and scatter the gated
//! outputs back.
//!
//! [`MoeBlock::dispatch`] is generic over the model's [`Linear`]
//! projection type, so the FP32 reference, the packed engine,
//! calibration capture and expert-frequency profiling share the routing,
//! the panic isolation, the fault policy, and the telemetry.

use crate::health::{FaultKind, FaultMode, ResilienceContext};
use crate::linear::Linear;
use crate::model::{FfnBlock, MoeBlock};
use crate::router::Router;
use crate::{MoeError, Result};
use milo_tensor::{pool, Matrix};
use std::time::{Duration, Instant};

/// `assignment[e]` lists the `(token row, gate)` pairs routed to expert
/// `e`, in token order.
type Assignment = Vec<Vec<(usize, f32)>>;

/// Routes every row of `x`, grouping the `(token, gate)` pairs by
/// expert.
///
/// # Errors
///
/// Routing errors from [`Router::try_route`] (dimension mismatch,
/// non-finite routing logits).
fn assign(router: &Router, x: &Matrix) -> Result<Assignment> {
    let mut assignment = vec![Vec::new(); router.n_experts()];
    for t in 0..x.rows() {
        for (e, gate) in router.try_route(x.row(t))? {
            assignment[e].push((t, gate));
        }
    }
    Ok(assignment)
}

/// Copies the rows of `x` named in `toks` into one `toks.len() × d`
/// batch.
fn gather(x: &Matrix, toks: &[(usize, f32)]) -> Matrix {
    let mut sub = Matrix::zeros(toks.len(), x.cols());
    for (i, &(t, _)) in toks.iter().enumerate() {
        sub.row_mut(i).copy_from_slice(x.row(t));
    }
    sub
}

/// Adds row `i` of the expert output `y`, scaled by its gate, into row
/// `toks[i].0` of `out`.
fn scatter_add(out: &mut Matrix, y: &Matrix, toks: &[(usize, f32)]) {
    for (i, &(t, gate)) in toks.iter().enumerate() {
        for (o, v) in out.row_mut(t).iter_mut().zip(y.row(i)) {
            *o += gate * v;
        }
    }
}

impl<P: Linear> MoeBlock<P> {
    /// Runs the block on a batch of token rows (`tokens × d`) as layer
    /// `layer` of a model.
    ///
    /// Routed experts (ledger index `e`) and shared experts (ledger index
    /// `n_experts + s`) run concurrently on the [`milo_tensor::pool`]
    /// behind panic isolation ([`pool::try_par_map`]); every output is
    /// checked for non-finite values at the expert boundary. Outcomes are
    /// classified serially in ledger order and a failure follows the
    /// context's [`FaultMode`]:
    ///
    /// * **Strict** — the first failure aborts with
    ///   [`MoeError::ExpertFailed`] naming the layer, expert, and cause.
    /// * **Degrade** — the expert is quarantined in the health tracker.
    ///   For every token that had routed to a missing expert (failed now
    ///   or quarantined earlier) the survivors' gates are rescaled to the
    ///   token's full top-k mass; a token whose experts all failed loses
    ///   its routed contribution. A failed shared expert is dropped
    ///   without rescaling, since shared contributions are not gated.
    ///
    /// A clean dispatch of a half-open expert is its recovery probe
    /// passing. Injected faults from the context fire when the matching
    /// expert is dispatched.
    ///
    /// The scatter-back runs serially in expert order, then token order,
    /// with shared experts last, so the output is bit-identical at every
    /// `MILO_THREADS` setting, and a healthy token's output is the same
    /// under either mode.
    ///
    /// # Errors
    ///
    /// Routing errors always propagate (a sick router poisons every
    /// expert, so there is nothing to degrade to); expert failures
    /// propagate only in strict mode.
    pub fn dispatch(&self, x: &Matrix, layer: usize, ctx: &ResilienceContext) -> Result<Matrix> {
        let n_experts = self.experts.len();
        let mut assignment = assign(&self.router, x)?;
        let telemetry = milo_obs::enabled();
        if telemetry {
            record_routing(P::METRIC_PREFIX, layer, x.rows(), &assignment);
        }

        let raw = pool::try_par_map(n_experts + self.shared.len(), |i| {
            let routed = i < n_experts;
            if (routed && assignment[i].is_empty()) || ctx.health.is_failed(layer, i) {
                return None;
            }
            match ctx.injected_kind(layer, i) {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: expert {i} of layer {layer} killed mid-dispatch")
                }
                Some(FaultKind::Slow { millis }) => {
                    ctx.sleep_interruptible(Duration::from_millis(millis));
                }
                _ => {}
            }
            let res = if routed {
                let sub = gather(x, &assignment[i]);
                let t0 = telemetry.then(Instant::now);
                let res = self.experts[i].forward(&sub);
                if let Some(t0) = t0 {
                    record_expert_ns(P::METRIC_PREFIX, layer, i, t0);
                }
                res
            } else {
                self.shared[i - n_experts].forward(x)
            };
            let mut res = res.map_err(|e| e.to_string());
            if ctx.injected_kind(layer, i) == Some(FaultKind::NanOutput) {
                if let Ok(y) = &mut res {
                    y.row_mut(0)[0] = f32::NAN;
                }
            }
            Some(res)
        });

        let mut outputs: Vec<Option<Matrix>> = Vec::with_capacity(raw.len());
        for (i, task) in raw.into_iter().enumerate() {
            let outcome = match task {
                Err(panic) => Err(panic.message),
                Ok(Some(Ok(y))) if !y.as_slice().iter().all(|v| v.is_finite()) => {
                    Err("non-finite output".to_string())
                }
                Ok(res) => res.transpose(),
            };
            match outcome {
                Ok(y) => {
                    if y.is_some() {
                        ctx.health.probe_succeeded(layer, i);
                    }
                    outputs.push(y);
                }
                Err(reason) => match ctx.mode {
                    FaultMode::Strict => {
                        return Err(MoeError::ExpertFailed { layer, expert: i, reason });
                    }
                    FaultMode::Degrade => {
                        ctx.health.record(layer, i, reason);
                        outputs.push(None);
                    }
                },
            }
        }
        let shared = outputs.split_off(n_experts);

        // Per-token full and surviving gate mass. A healthy token has
        // full == alive, so its gates are left untouched and its output
        // stays bit-identical to a fault-free dispatch.
        let mut full = vec![0f32; x.rows()];
        let mut alive = vec![0f32; x.rows()];
        for (toks, y) in assignment.iter().zip(&outputs) {
            for &(t, g) in toks {
                full[t] += g;
                if y.is_some() {
                    alive[t] += g;
                }
            }
        }
        for toks in &mut assignment {
            for (t, g) in toks.iter_mut() {
                if alive[*t] != full[*t] {
                    *g = *g * full[*t] / alive[*t];
                }
            }
        }

        let mut out = Matrix::zeros(x.rows(), x.cols());
        for (y, toks) in outputs.iter().zip(&assignment) {
            if let Some(y) = y {
                scatter_add(&mut out, y, toks);
            }
        }
        for y in shared.iter().flatten() {
            for (o, v) in out.as_mut_slice().iter_mut().zip(y.as_slice()) {
                *o += v;
            }
        }
        Ok(out)
    }
}

impl<P: Linear> FfnBlock<P> {
    /// Applies the FFN of layer `layer`: a dense block directly, a MoE
    /// block through [`MoeBlock::dispatch`].
    ///
    /// # Errors
    ///
    /// The dense block's forward errors, or those of
    /// [`MoeBlock::dispatch`].
    pub fn forward(&self, x: &Matrix, layer: usize, ctx: &ResilienceContext) -> Result<Matrix> {
        match self {
            FfnBlock::Dense(mlp) => mlp.forward(x),
            FfnBlock::Moe(moe) => moe.dispatch(x, layer, ctx),
        }
    }
}

/// Records one dispatch's routing telemetry under `prefix`:
///
/// * `{prefix}.gate_entropy_micro` — each token's routing entropy
///   `-Σ g·ln g` (nats ×1e6). Low entropy means a confident router; the
///   paper's Fig. 3 skew shows up as a depressed median.
/// * `{prefix}.expert_tokens{layer,expert}` — routed-token counters.
/// * `{prefix}.load_skew{layer}` — max/mean of the *cumulative*
///   per-expert counts (1.0 is perfectly balanced).
fn record_routing(prefix: &str, layer: usize, tokens: usize, assignment: &Assignment) {
    let mut entropy = vec![0f64; tokens];
    for &(t, g) in assignment.iter().flatten() {
        if g > 0.0 {
            let g = g as f64;
            entropy[t] -= g * g.ln();
        }
    }
    let hist = format!("{prefix}.gate_entropy_micro");
    for h in entropy {
        milo_obs::hist_record(&hist, (h * 1e6).round().max(0.0) as u64, milo_obs::Unit::Micro);
    }

    let lv = layer.to_string();
    let name = format!("{prefix}.expert_tokens");
    let mut loads = Vec::with_capacity(assignment.len());
    for (e, toks) in assignment.iter().enumerate() {
        let key = milo_obs::metric_key(&name, &[("layer", &lv), ("expert", &e.to_string())]);
        milo_obs::counter_add(&key, toks.len() as u64);
        loads.push(milo_obs::counter_get(&key));
    }
    // A router has at least one expert (`Router::new` checks top_k ≥ 1).
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean > 0.0 {
        let max = *loads.iter().max().expect("mean > 0 implies a load") as f64;
        milo_obs::gauge_set(
            &milo_obs::metric_key(&format!("{prefix}.load_skew"), &[("layer", &lv)]),
            max / mean,
        );
    }
}

/// Records one routed expert's forward latency into
/// `{prefix}.expert_ns{layer,expert}`. Shared experts are not timed, so
/// the histogram counts routed expert calls only.
fn record_expert_ns(prefix: &str, layer: usize, expert: usize, t0: Instant) {
    milo_obs::hist_record(
        &milo_obs::metric_key(
            &format!("{prefix}.expert_ns"),
            &[("layer", &layer.to_string()), ("expert", &expert.to_string())],
        ),
        t0.elapsed().as_nanos() as u64,
        milo_obs::Unit::Nanos,
    );
}
