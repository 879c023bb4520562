//! Quantized-path throughput benchmark (quantized-path PR acceptance
//! evidence).
//!
//! Two families of rows:
//!
//! * **Kernel rows** — the vectorized [`tie_quant::qmatmul`] (runtime
//!   AVX-512/AVX2/portable dispatch + thread pool) against the naive
//!   per-output reference over representative GEMM shapes. Codes and
//!   saturation reports are asserted bit-identical before any timing, so
//!   a speedup can never come from computing different bits.
//! * **Simulated batch rows** — Table 4 FC layers on the cycle-accurate
//!   [`TieAccelerator`], batch 16, on the fast path (one-shot load-time
//!   calibration + one `qmatmul` stage GEMM per batch). The rows measure
//!   the *host* simulation throughput.
//!
//! Writes `BENCH_quant.json` at the repository root.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie_bench::report::{fnum, Report};
use tie_quant::{qmatmul, qmatmul_naive, QFormat, QTensor};
use tie_sim::{TieAccelerator, TieConfig};
use tie_tensor::{init, Tensor};
use tie_tt::TtMatrix;
use tie_workloads::benchmarks::table4_benchmarks;

const KERNEL_SHAPES: [(usize, usize, usize); 4] = [
    (64, 64, 64),
    (128, 128, 128),
    (256, 256, 256),
    (64, 256, 1024),
];
const KERNEL_REPS: usize = 30;
const BATCH: usize = 16;
const FAST_REPS: usize = 30;

fn median_secs(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn qtensor(rows: usize, cols: usize, seed: u64, frac_bits: u32) -> QTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t: Tensor<f64> = init::uniform(&mut rng, vec![rows, cols], 1.0);
    QTensor::quantize(&t, QFormat::new(frac_bits).expect("valid"))
}

/// Median times of the dispatched kernel vs the naive reference on one
/// GEMM shape, with a bit-identity check up front.
fn measure_kernel(m: usize, k: usize, n: usize) -> (f64, f64) {
    let a = qtensor(m, k, 1000 + m as u64, 12);
    let b = qtensor(k, n, 2000 + n as u64, 8);
    let out = QFormat::new(8).expect("valid");

    let (c_fast, r_fast) = qmatmul(&a, &b, out).unwrap();
    let (c_naive, r_naive) = qmatmul_naive(&a, &b, out).unwrap();
    assert_eq!(
        c_fast.codes(),
        c_naive.codes(),
        "{m}x{k}x{n}: codes diverge"
    );
    assert_eq!(r_fast, r_naive, "{m}x{k}x{n}: saturation reports diverge");

    let mut fast = Vec::with_capacity(KERNEL_REPS);
    let mut naive = Vec::with_capacity(KERNEL_REPS);
    let naive_reps = KERNEL_REPS.min(8); // the reference is slow; medians stabilize fast
    for i in 0..KERNEL_REPS {
        let t = Instant::now();
        let _ = qmatmul(&a, &b, out).unwrap();
        fast.push(t.elapsed().as_secs_f64());
        if i < naive_reps {
            let t = Instant::now();
            let _ = qmatmul_naive(&a, &b, out).unwrap();
            naive.push(t.elapsed().as_secs_f64());
        }
    }
    (median_secs(fast) * 1e3, median_secs(naive) * 1e3)
}

/// Simulated batch-16 throughput of one Table 4 layer on the one-shot
/// calibrated, batched stage-GEMM fast path, in samples/second.
fn measure_sim(name: &str) -> f64 {
    let bench = table4_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("known Table 4 layer");
    let mut rng = ChaCha8Rng::seed_from_u64(0x51e5);
    let matrix = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.3).unwrap();
    let n = bench.shape.num_cols();
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, BATCH], 1.0);

    // Table 5's 384 KB working SRAMs hold one sample's intermediates, not
    // 16: scale them up so the batch fits — memory provisioning, not
    // datapath.
    let cfg = TieConfig {
        working_sram_bytes: 8 * 1024 * 1024,
        ..TieConfig::default()
    };
    let mut tie = TieAccelerator::new(cfg).unwrap();
    let layer = tie.load_layer(matrix).unwrap();
    let mut samples = Vec::with_capacity(FAST_REPS);
    for _ in 0..FAST_REPS {
        let t = Instant::now();
        let (ys, _) = tie.run_batch(&layer, &xs, false).unwrap();
        samples.push(t.elapsed().as_secs_f64());
        assert!(ys.data().iter().all(|v| v.is_finite()));
    }
    BATCH as f64 / median_secs(samples)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant");
    group.sample_size(10);
    for &(m, k, n) in &KERNEL_SHAPES[..2] {
        group.bench_with_input(
            BenchmarkId::new("qmatmul", format!("{m}x{k}x{n}")),
            &(m, k, n),
            |bch, &(m, k, n)| {
                let a = qtensor(m, k, 1, 12);
                let b = qtensor(k, n, 2, 8);
                let out = QFormat::new(8).expect("valid");
                bch.iter(|| qmatmul(&a, &b, out).unwrap());
            },
        );
    }
    group.finish();

    write_json();
}

fn write_json() {
    let mut report = Report::new(
        "BENCH_quant",
        "Quantized path: SIMD kernel vs naive, one-shot + batched sim throughput",
        "not a paper figure — the vectorized qmatmul must beat the naive \
         reference bit-identically; the sim rows record simulated FC \
         batch-16 throughput on the one-shot + batched stage-GEMM path",
    );
    report.headers(["workload", "before", "after", "speedup", "unit"]);

    for &(m, k, n) in &KERNEL_SHAPES {
        let (fast_ms, naive_ms) = measure_kernel(m, k, n);
        report.row([
            format!("qmatmul {m}x{k}x{n}"),
            fnum(naive_ms),
            fnum(fast_ms),
            fnum(naive_ms / fast_ms),
            "ms (naive -> dispatched)".to_string(),
        ]);
    }
    for name in ["VGG-FC7", "VGG-FC6"] {
        report.row([
            format!("{name} sim batch-{BATCH}"),
            "-".to_string(),
            fnum(measure_sim(name)),
            "-".to_string(),
            "samples/s (fast path)".to_string(),
        ]);
    }

    report.note(format!(
        "kernel rows: medians of {KERNEL_REPS} reps (naive capped at 8), codes \
         and saturation reports asserted bit-identical before timing; sim \
         rows: medians of {FAST_REPS} reps, batch {BATCH}, random Table 4 \
         layers at unit-amplitude inputs, working SRAMs scaled to 8 MB so \
         batch-{BATCH} intermediates fit (memory provisioning)"
    ));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_quant.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
