//! Regenerates paper Table 2: average excess kurtosis and residual-matrix
//! rank (number of singular values below τ·σ_max, τ = 0.5) per layer
//! class — attention (A), sparse experts (E), and DeepSeek shared
//! experts (SE).
//!
//! Run: `cargo run --release -p milo-bench --bin table2_kurtosis_rank [--fast]`

use milo_bench::{banner, Args, Setup};
use milo_core::LayerKind;
use milo_eval::Table;
use milo_moe::{layer_tensors, MoeModel};
use milo_quant::{rtn_quantize, QuantConfig};
use milo_tensor::linalg::jacobi_svd;
use milo_tensor::pool::par_map;
use milo_tensor::stats;

/// Per-class accumulators: (kurtosis sum, residual-rank sum, count).
#[derive(Default, Clone, Copy)]
struct ClassStats {
    kurtosis: f64,
    rank: f64,
    count: usize,
}

fn classify(kind: LayerKind) -> Option<usize> {
    match kind {
        LayerKind::Attention => Some(0),
        LayerKind::Expert { .. } => Some(1),
        LayerKind::SharedExpert => Some(2),
        LayerKind::DenseFfn => None, // not a Table 2 class
    }
}

fn analyze(model: &MoeModel, tau: f32, max_per_class: usize) -> [ClassStats; 3] {
    let cfg = QuantConfig::int3_asym();
    let tensors = layer_tensors(model, None);
    // Cap the number of full SVDs per class to keep runtime reasonable on
    // the fine-grained DeepSeek-like model.
    let mut selected: Vec<usize> = Vec::new();
    let mut counts = [0usize; 3];
    for (i, t) in tensors.iter().enumerate() {
        if let Some(c) = classify(t.meta.kind) {
            if counts[c] < max_per_class {
                counts[c] += 1;
                selected.push(i);
            }
        }
    }

    let per_tensor = par_map(selected.len(), |j| {
        let t = &tensors[selected[j]];
        let class = classify(t.meta.kind).expect("selected tensors are classified");
        let kurt = stats::matrix_kurtosis(&t.weight) as f64;
        let dq = rtn_quantize(&t.weight, &cfg).expect("RTN succeeds").dequantize();
        let residual = t.weight.sub(&dq).expect("shapes match");
        let svd = jacobi_svd(&residual).expect("SVD converges");
        let rank = stats::residual_rank(&svd.sigma, tau) as f64;
        (class, kurt, rank)
    });

    let mut out = [ClassStats::default(); 3];
    for (class, kurt, rank) in per_tensor {
        out[class].kurtosis += kurt;
        out[class].rank += rank;
        out[class].count += 1;
    }
    out
}

fn main() {
    banner(
        "Table 2: kurtosis and residual rank across layer classes",
        "Mixtral: A(D) kurtosis 1.57 / E(S) -0.53, residual rank A 514 < E 1730; \
         DeepSeek: A 0.016, SE 0.32, E -0.89, ranks A 438 / SE 286 / E 602 — dense \
         classes are heavier-tailed, and rank anti-correlates with kurtosis",
    );
    let args = Args::parse();
    let setup = Setup::from_args(&args);
    let tau = args.get_f32("tau").unwrap_or(0.5);
    let cap = if args.flag("fast") { 6 } else { 24 };

    let mut t = Table::new(["model", "class", "avg kurtosis", "avg residual rank", "matrices"]);
    for cfg in [&setup.mixtral, &setup.deepseek] {
        let model = MoeModel::synthesize(cfg, setup.seed);
        let classes = analyze(&model, tau, cap);
        for (label, c) in [("A(D)", classes[0]), ("E(S)", classes[1]), ("SE(D)", classes[2])] {
            if c.count == 0 {
                continue;
            }
            t.push_row([
                cfg.name.clone(),
                label.to_string(),
                format!("{:.3}", c.kurtosis / c.count as f64),
                format!("{:.0}", c.rank / c.count as f64),
                c.count.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "Expected shape: attention kurtosis > expert kurtosis within each model, and the\n\
         class with higher kurtosis has the *lower* residual rank (negative correlation)."
    );
}
