//! Regenerates paper Fig. 5: the correlation between a weight matrix's
//! excess kurtosis and its relative quantization error
//! `‖W − W_dq‖_F / ‖W‖_F` under INT3, over the weight matrices of layer
//! 1 of the DeepSeek-like model.
//!
//! Run: `cargo run --release -p milo-bench --bin fig5_kurtosis_error`

use milo_bench::{banner, Args, Setup};
use milo_eval::Table;
use milo_moe::{layer_tensors, MoeModel};
use milo_quant::{hqq_quantize, HqqOptions, QuantConfig};
use milo_tensor::pool::par_map;
use milo_tensor::stats;

/// Pearson correlation coefficient.
fn pearson(xs: &[f32], ys: &[f32]) -> f32 {
    let n = xs.len() as f64;
    let mx = xs.iter().map(|&v| v as f64).sum::<f64>() / n;
    let my = ys.iter().map(|&v| v as f64).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x as f64 - mx;
        let dy = y as f64 - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    (cov / (vx * vy).sqrt().max(1e-12)) as f32
}

fn main() {
    banner(
        "Figure 5: relative quantization error vs kurtosis (DeepSeek layer 1)",
        "positive correlation: heavier-tailed (higher-kurtosis) weight matrices suffer \
         larger relative Frobenius error under extreme quantization",
    );
    let args = Args::parse();
    let setup = Setup::from_args(&args);

    let model = MoeModel::synthesize(&setup.deepseek, setup.seed);
    let tensors: Vec<_> = layer_tensors(&model, None)
        .into_iter()
        .filter(|t| t.name.starts_with("layer1."))
        .collect();

    let cfg = QuantConfig::int3_asym();
    let hqq = HqqOptions::default();
    let points = par_map(tensors.len(), |i| {
        let t = &tensors[i];
        let dq = hqq_quantize(&t.weight, &cfg, &hqq).expect("hqq succeeds").dequantize();
        let err = stats::relative_frobenius_error(&t.weight, &dq);
        (t.name.clone(), t.meta.kurtosis, err)
    });

    let mut t = Table::new(["weight", "kurtosis", "relative F-norm error"]);
    for (name, k, e) in &points {
        t.push_row([name.clone(), format!("{k:+.3}"), format!("{e:.4}")]);
    }
    println!("{}", t.render());

    let ks: Vec<f32> = points.iter().map(|p| p.1).collect();
    let es: Vec<f32> = points.iter().map(|p| p.2).collect();
    let r = pearson(&ks, &es);
    println!("Pearson correlation (kurtosis vs relative error): {r:+.3}");
    println!("Shape check: the paper's Fig. 5 shows a clearly positive correlation.");
}
