//! Tuned-vs-default deployment plans on every Table 4 layer.
//!
//! Runs the `tie-workloads` design-space autotuner over each Table 4
//! layer and writes `BENCH_autotune.json` at the repository root with,
//! per layer:
//!
//! * **modeled cycles/sample** of the default plan (paper layout at
//!   batch 1) vs the tuned plan (searched layout and batch), both run
//!   sequentially, and the resulting modeled speedup,
//! * **measured wall-clock** per sample of the quantized engine each plan
//!   describes, serving `batch` samples on this host (best of 3),
//! * the measured validation **saturation rate** of both plans' engines
//!   and the calibration margin the tuned plan validated at,
//! * the winning candidate's measured compile seconds.
//!
//! Plain `main` bench (no criterion): one tuning run per layer is the
//! benchmark — paper-scale TT-SVD compiles dominate, and best-of-N
//! applies only to the serving wall-clock rows.

use std::path::Path;
use std::time::Instant;

use tie_bench::report::{fnum, Report};
use tie_core::{plans_to_json, DeploymentPlan};
use tie_sim::QuantizedEngine;
use tie_tensor::linalg::SvdMethod;
use tie_workloads::autotune::{autotune_layer, compile_plan_matrix, SearchSpace, TunerConfig};
use tie_workloads::compile::spec_weights;
use tie_workloads::table4_layer_specs;

const REPS: usize = 3;

/// Best-of-`reps` wall-clock seconds for `f` (one untimed warm-up call).
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Measured wall-clock seconds **per sample** of the quantized engine a
/// plan describes, serving `plan.batch` samples per call.
fn serve_seconds_per_sample(plan: &DeploymentPlan, engine: &QuantizedEngine) -> f64 {
    let (n, m, b) = (engine.num_cols(), engine.num_rows(), plan.batch);
    let xs: Vec<f64> = (0..n * b)
        .map(|i| ((i % 23) as f64 - 11.0) / 17.0)
        .collect();
    let mut ys = vec![0.0f64; m * b];
    best_of(REPS, || engine.matvec_batch_into(&xs, b, &mut ys).unwrap()) / b as f64
}

fn main() {
    let cfg = TunerConfig {
        space: SearchSpace {
            layouts_per_dim: 3,
            ..SearchSpace::default()
        },
        top_k: 2,
        ..TunerConfig::default()
    };

    let mut report = Report::new(
        "BENCH_autotune",
        "Design-space autotuner: tuned vs default deployment plans (Table 4)",
        "per-layer DSE over TT layouts/ranks/knobs yields latency wins on the \
         same hardware model (cf. the paper's hand-picked Table 4 settings)",
    );
    report.headers([
        "layer",
        "default cyc/smp",
        "tuned cyc/smp",
        "speedup",
        "default us/smp",
        "tuned us/smp",
        "default sat rate",
        "tuned sat rate",
        "margin",
        "compile s",
    ]);

    let mut plans: Vec<DeploymentPlan> = Vec::new();
    let mut modeled_wins = 0usize;
    for spec in table4_layer_specs() {
        let t0 = Instant::now();
        let tuned = autotune_layer(&spec, &cfg).expect("tuning must succeed");
        let tuned_secs = t0.elapsed().as_secs_f64();

        // Build both plans' quantized engines once for the wall-clock rows.
        let w = spec_weights(&spec).expect("synthesize weights");
        let quantized = |plan: &DeploymentPlan| {
            let matrix = compile_plan_matrix(plan, &w).expect("compile plan layout");
            QuantizedEngine::new(matrix, cfg.quant.with_probe_margin(plan.quant_margin))
                .expect("quantize")
                .with_activation(plan.activation)
        };
        let default_engine = quantized(&tuned.default_plan);
        let tuned_engine = quantized(&tuned.plan);
        let default_us = serve_seconds_per_sample(&tuned.default_plan, &default_engine) * 1e6;
        let tuned_us = serve_seconds_per_sample(&tuned.plan, &tuned_engine) * 1e6;

        if tuned.tuned_cycles_per_sample < tuned.default_cycles_per_sample {
            modeled_wins += 1;
        }
        report.row([
            spec.name.to_string(),
            fnum(tuned.default_cycles_per_sample),
            fnum(tuned.tuned_cycles_per_sample),
            format!("{:.2}x", tuned.modeled_speedup()),
            fnum(default_us),
            fnum(tuned_us),
            format!("{:.2e}", tuned.default_saturation_rate.unwrap_or(0.0)),
            format!("{:.2e}", tuned.tuned_saturation_rate.unwrap_or(0.0)),
            format!("{:.2}", tuned.plan.quant_margin),
            fnum(tuned.compile_seconds),
        ]);
        report.note(format!(
            "{}: tuned layout m={:?} n={:?} r<={} batch={} (search {:.1}s, \
             {} layout-batch points, {} compiled)",
            spec.name,
            tuned.plan.shape.row_modes,
            tuned.plan.shape.col_modes,
            tuned.plan.shape.ranks.iter().max().unwrap(),
            tuned.plan.batch,
            tuned_secs,
            tuned.candidates_scored,
            tuned.candidates.len(),
        ));
        plans.push(tuned.plan);
    }
    report.note(format!(
        "modeled-cycle wins: {modeled_wins}/4 layers; svd = {:?}; \
         wall-clock rows are best-of-{REPS} on this host, quantized datapath, \
         batch = each plan's batch",
        SvdMethod::default(),
    ));
    report.note(
        "saturation rates measured on the held-out validation probe set \
         (seed distinct from calibration); tuned margin is the value that \
         validated clean, not the requested one",
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_autotune.json");
    std::fs::write(root.join("tuned_plans_table4.json"), plans_to_json(&plans))
        .expect("write tuned plans");
    println!("{report}");
}
