//! Microbenchmarks of the fused packed GEMM against the unfused
//! two-pass pipeline and the FP32 reference, across tile shapes, batch
//! sizes, and — since the threading PR — a `threads` axis swept with
//! `milo_tensor::pool::with_threads`.
//!
//! Besides the usual `gemm` suite (JSON via `MILO_BENCH_JSON`), this
//! bench records the repo's first performance baseline at
//! `results/BENCH_gemm_threads.json`: the fused 256×256 kernel at
//! batch 16 for 1/2/4 threads, and at batch 1 on one thread. Override
//! the output path with `MILO_BENCH_BASELINE` (empty string disables).

use milo_eval::bench::{black_box, BenchResult, Config, Harness};
use milo_obs::json::JsonValue;
use milo_pack::gemm::reference_gemm;
use milo_pack::{GemmKernel, PackedMatrix, TileShape};
use milo_quant::{rtn_quantize, QuantConfig};
use milo_tensor::pool;
use milo_tensor::rng::SeedableRng;
use milo_tensor::rng::WeightDist;
use milo_tensor::Matrix;

fn setup(batch: usize, k: usize, n: usize) -> (Matrix, Matrix, PackedMatrix) {
    let mut rng = milo_tensor::rng::StdRng::seed_from_u64(7);
    let w = WeightDist::Gaussian { std: 0.05 }.sample_matrix(n, k, &mut rng);
    let x = WeightDist::Gaussian { std: 1.0 }.sample_matrix(batch, k, &mut rng);
    let q = rtn_quantize(&w, &QuantConfig::int3_asym()).unwrap();
    (x, q.dequantize(), PackedMatrix::pack(&q).unwrap())
}

fn bench_fused_vs_unfused(c: &mut Harness) {
    for batch in [1usize, 16] {
        let (x, dense, packed) = setup(batch, 256, 256);
        let kernel = GemmKernel::default();
        c.bench_function(format!("packed_gemm_256x256/fused/{batch}"), |b| {
            b.iter(|| kernel.gemm(black_box(&x), black_box(&packed)).unwrap())
        });
        c.bench_function(format!("packed_gemm_256x256/unfused/{batch}"), |b| {
            b.iter(|| kernel.gemm_unfused(black_box(&x), black_box(&packed)).unwrap())
        });
        c.bench_function(format!("packed_gemm_256x256/fp32_reference/{batch}"), |b| {
            b.iter(|| reference_gemm(black_box(&x), black_box(&dense)))
        });
    }
}

fn bench_tile_shapes(c: &mut Harness) {
    let (x, _, packed) = setup(16, 256, 256);
    for tile in TileShape::all() {
        let kernel = GemmKernel { tile };
        c.bench_function(format!("tile_shapes_256x256_bs16/{tile:?}"), |b| {
            b.iter(|| kernel.gemm(black_box(&x), black_box(&packed)).unwrap())
        });
    }
}

/// The recorded baseline suite: fused GEMM across the `threads` axis,
/// and at batch 1.
fn bench_threads_baseline(c: &mut Harness) {
    let kernel = GemmKernel::default();

    let (x16, _, packed16) = setup(16, 256, 256);
    for threads in [1usize, 2, 4] {
        c.bench_function(format!("fused_256x256/bs16/threads{threads}"), |b| {
            pool::with_threads(threads, || {
                b.iter(|| kernel.gemm(black_box(&x16), black_box(&packed16)).unwrap())
            })
        });
    }

    let (x1, _, packed1) = setup(1, 256, 256);
    c.bench_function("fused_256x256/bs1/threads1", |b| {
        pool::with_threads(1, || {
            b.iter(|| kernel.gemm(black_box(&x1), black_box(&packed1)).unwrap())
        })
    });
}

fn median_of<'a>(results: &'a [BenchResult], name: &str) -> Option<f64> {
    results.iter().find(|r| r.name == name).map(|r| r.median_ns)
}

/// Writes the recorded baseline JSON: harness rows plus host metadata and
/// the threads-4 over threads-1 speedup at batch 16.
fn write_baseline(results: &[BenchResult], harness_json: JsonValue) {
    let path = match std::env::var("MILO_BENCH_BASELINE") {
        Ok(p) if p.is_empty() => return,
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_gemm_threads.json"),
    };
    let host_threads =
        std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let speedup = |a: &str, b: &str| -> f64 {
        match (median_of(results, a), median_of(results, b)) {
            (Some(num), Some(den)) if den > 0.0 => num / den,
            _ => 0.0,
        }
    };
    let field = |k: &str, v: JsonValue| (k.to_string(), v);
    let json = JsonValue::Object(vec![
        field("baseline", harness_json),
        field("host_threads", JsonValue::Number(host_threads as f64)),
        field("quick", JsonValue::Bool(Config::quick_mode())),
        field(
            "shape",
            JsonValue::Object(vec![
                field("k", JsonValue::Number(256.0)),
                field("n", JsonValue::Number(256.0)),
            ]),
        ),
        field(
            "derived",
            JsonValue::Object(vec![
                field(
                    "speedup_bs16_threads4_vs_threads1",
                    JsonValue::Number(speedup(
                        "fused_256x256/bs16/threads1",
                        "fused_256x256/bs16/threads4",
                    )),
                ),
            ]),
        ),
    ])
    .render();
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let mut h = Harness::new("gemm");
    bench_fused_vs_unfused(&mut h);
    bench_tile_shapes(&mut h);
    h.finish();

    let mut base = Harness::new("BENCH_gemm_threads");
    bench_threads_baseline(&mut base);
    let json = base.to_json();
    let results = base.finish();
    write_baseline(&results, json);
}
