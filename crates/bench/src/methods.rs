//! Method runners: compress a whole synthetic MoE model with each of the
//! paper's methods and return the effective inference model plus memory
//! and timing.

use milo_core::{
    compress_model, CompressedLayer, CompressedModel, LayerRecord, MiloOptions, RankPolicy,
};
use milo_eval::time_it;
use milo_moe::{apply_compressed, layer_tensors, FrequencyProfile, MoeModel};
use milo_quant::{gptq_quantize, rtn_quantize, GptqOptions, QuantConfig};
use milo_tensor::pool::par_map;

/// The result of compressing a model with one method.
#[derive(Debug, Clone)]
pub struct CompressionOutcome {
    /// The inference model with effective (de-quantized + compensated)
    /// weights substituted in.
    pub model: MoeModel,
    /// Deployment memory of the compressed weights, bytes.
    pub memory_bytes: usize,
    /// Wall-clock compression time, seconds.
    pub seconds: f64,
    /// The underlying compressed representation.
    pub compressed: CompressedModel,
}

/// Box-standard error type for the runners.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

fn outcome(
    reference: &MoeModel,
    compressed: CompressedModel,
    seconds: f64,
) -> Result<CompressionOutcome, BoxError> {
    let model = apply_compressed(reference, &compressed)?;
    Ok(CompressionOutcome {
        model,
        memory_bytes: compressed.memory_bytes(),
        seconds,
        compressed,
    })
}

/// Round-to-nearest baseline: every quantizable weight through RTN.
pub fn run_rtn(reference: &MoeModel, cfg: &QuantConfig) -> Result<CompressionOutcome, BoxError> {
    let tensors = layer_tensors(reference, None);
    let (records, seconds) = time_it(|| {
        par_map(tensors.len(), |i| {
            let t = &tensors[i];
            rtn_quantize(&t.weight, cfg).map(|qweight| LayerRecord {
                name: t.name.clone(),
                meta: t.meta,
                rank: 0,
                layer: CompressedLayer { qweight, compensator: None, convergence: vec![] },
            })
        })
    });
    let layers = records.into_iter().collect::<Result<Vec<_>, _>>()?;
    outcome(reference, CompressedModel { layers }, seconds)
}

/// Quantizes a set of tensors with GPTQ against captured activations,
/// topping up thin capture sets so the Hessian stays well-conditioned.
fn gptq_records(
    tensors: &[milo_core::LayerTensor],
    activations: &std::collections::HashMap<String, milo_tensor::Matrix>,
    cfg: &QuantConfig,
    seed: u64,
) -> Result<Vec<LayerRecord>, BoxError> {
    use milo_tensor::{rng::WeightDist, stats, Matrix};
    use milo_tensor::rng::SeedableRng;

    let records = par_map(tensors.len(), |i| {
        let t = &tensors[i];
        let dim = t.weight.cols();
        let min_rows = dim + 16;
        let mut rng = milo_tensor::rng::StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let x = match activations.get(&t.name) {
            Some(captured) if captured.rows() >= min_rows => captured.clone(),
            Some(captured) => {
                // Top up with Gaussian rows at the captured scale.
                let std = stats::variance(captured.as_slice()).sqrt().max(1e-6);
                let extra = WeightDist::Gaussian { std }
                    .sample_matrix(min_rows - captured.rows(), dim, &mut rng);
                let mut data = captured.as_slice().to_vec();
                data.extend_from_slice(extra.as_slice());
                Matrix::from_vec(min_rows, dim, data)
            }
            None => WeightDist::Gaussian { std: 1.0 }.sample_matrix(min_rows, dim, &mut rng),
        };
        gptq_quantize(&t.weight, &x, cfg, &GptqOptions::default()).map(|qweight| LayerRecord {
            name: t.name.clone(),
            meta: t.meta,
            rank: 0,
            layer: CompressedLayer { qweight, compensator: None, convergence: vec![] },
        })
    });
    Ok(records.into_iter().collect::<Result<Vec<_>, _>>()?)
}

/// The full GPTQ pipeline as the paper runs it: *sequential* layer-by-
/// layer quantization, where each layer's calibration activations are
/// propagated through the already-quantized prefix of the model. The
/// reported time includes all calibration forward passes — the cost that
/// makes GPTQ an order of magnitude slower than the calibration-free
/// methods (paper Table 1 / Fig. 8).
pub fn run_gptq_full(
    reference: &MoeModel,
    cfg: &QuantConfig,
    calib_corpus: &[Vec<u32>],
    seed: u64,
) -> Result<CompressionOutcome, BoxError> {
    let all_tensors = layer_tensors(reference, None);
    let start = std::time::Instant::now();

    let mut working = reference.clone();
    let mut all_records: Vec<LayerRecord> = Vec::new();
    for li in 0..reference.layers.len() {
        // Inputs for layer `li` reflect layers 0..li already quantized.
        // Generous capture (up to 2048 rows/weight): GPTQ's held-out gain
        // grows with calibration size, and thin Hessians overfit.
        let acts = milo_moe::capture_layer_activations(&working, calib_corpus, li, 2048)?;
        let prefix = format!("layer{li}.");
        let layer_slice: Vec<milo_core::LayerTensor> = all_tensors
            .iter()
            .filter(|t| t.name.starts_with(&prefix))
            .cloned()
            .collect();
        let records = gptq_records(&layer_slice, &acts, cfg, seed.wrapping_add(li as u64))?;
        let partial = CompressedModel { layers: records.clone() };
        working = apply_compressed(&working, &partial)?;
        all_records.extend(records);
    }
    let seconds = start.elapsed().as_secs_f64();
    outcome(reference, CompressedModel { layers: all_records }, seconds)
}

/// MiLo (and, with `RankPolicy::uniform(0)`, plain HQQ): the full
/// iterative pipeline under a rank policy.
pub fn run_milo(
    reference: &MoeModel,
    profile: Option<&FrequencyProfile>,
    policy: &RankPolicy,
    opts: &MiloOptions,
    threads: usize,
) -> Result<CompressionOutcome, BoxError> {
    let tensors = layer_tensors(reference, profile);
    let (compressed, seconds) = time_it(|| compress_model(&tensors, policy, opts, threads));
    outcome(reference, compressed?, seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_eval::{perplexity, generate_corpus};
    use milo_moe::MoeConfig;
    use milo_quant::HqqOptions;

    fn reference() -> MoeModel {
        MoeModel::synthesize(&MoeConfig::tiny_mixtral(), 3)
    }

    fn fast_opts() -> MiloOptions {
        MiloOptions {
            max_iters: 2,
            hqq: HqqOptions { max_iters: 5, ..HqqOptions::default() },
            ..MiloOptions::default()
        }
    }

    #[test]
    fn all_methods_produce_runnable_models() {
        let r = reference();
        let cfg = QuantConfig::int3_asym();
        let rtn = run_rtn(&r, &cfg).unwrap();
        let gptq = run_gptq_full(&r, &cfg, &generate_corpus(&r, 4, 12, 5).unwrap(), 0).unwrap();
        let hqq = run_milo(&r, None, &RankPolicy::uniform(0), &fast_opts(), 2).unwrap();
        let milo = run_milo(&r, None, &RankPolicy::uniform(4), &fast_opts(), 2).unwrap();
        for (name, o) in
            [("rtn", &rtn), ("gptq", &gptq), ("hqq", &hqq), ("milo", &milo)]
        {
            assert!(o.model.forward(&[1, 2, 3]).is_ok(), "{name}");
            assert!(o.memory_bytes > 0, "{name}");
            assert!(o.seconds >= 0.0, "{name}");
        }
        // MiLo carries compensators, so it uses more memory than HQQ.
        assert!(milo.memory_bytes > hqq.memory_bytes);
    }

    #[test]
    fn milo_reconstruction_beats_rtn() {
        // The mechanism behind paper Table 3's ordering: MiLo's effective
        // weights are strictly closer to FP16 than RTN's on average.
        // (The tiny test model is too small for the PPL gap itself to be
        // statistically stable, so the full PPL ordering is asserted by
        // the integration tests on larger models; here we check the
        // weight-space invariant plus a loose PPL sanity bound.)
        let r = reference();
        let rtn = run_rtn(&r, &QuantConfig::int3_asym()).unwrap();
        let milo = run_milo(&r, None, &RankPolicy::uniform(16), &fast_opts(), 2).unwrap();

        let mean_err = |out: &CompressionOutcome| -> f32 {
            let tensors = layer_tensors(&r, None);
            let mut total = 0.0;
            for t in &tensors {
                let rec = out.compressed.layer(&t.name).unwrap();
                total += milo_tensor::stats::relative_frobenius_error(
                    &t.weight,
                    &rec.layer.effective_weight(),
                );
            }
            total / tensors.len() as f32
        };
        let e_rtn = mean_err(&rtn);
        let e_milo = mean_err(&milo);
        assert!(
            e_milo < e_rtn,
            "MiLo weight error {e_milo} should beat RTN {e_rtn}"
        );

        let corpus = generate_corpus(&r, 6, 20, 7).unwrap();
        let ppl_rtn = perplexity(&rtn.model, &corpus).unwrap();
        let ppl_milo = perplexity(&milo.model, &corpus).unwrap();
        assert!(
            ppl_milo < ppl_rtn * 1.05,
            "MiLo ppl {ppl_milo} should not be materially worse than RTN ppl {ppl_rtn}"
        );
    }
}
