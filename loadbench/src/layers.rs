//! Per-layer timings taken from outside the program: the benchmark calls
//! each layer's public functions itself and times the calls.

use crate::trace::{Span, Tracer, NONE};
use crate::workload::Engine;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tie_core::{CompactEngine, InferencePlan};
use tie_quant::{alignment, qmatmul_raw, QFormat, QTensor};
use tie_sim::TieConfig;
use tie_tensor::linalg::gemm_into;
use tie_tt::TtMatrix;

/// Batch sizes the engine layer is timed at; serving overhead
/// interpolates engine time between them.
const BATCHES: [usize; 3] = [1, 4, 16];
/// Calls timed per measurement at least, whatever the budget.
const MIN_REPS: usize = 5;
/// Calls timed per measurement at most.
const MAX_REPS: usize = 1_000;

/// Direct timings of one served layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Median engine call at batch 1, 4 and 16, µs per call.
    pub engine_us: [f64; 3],
    /// Sum over stages of the median stage GEMM at batch 16, µs.
    pub gemm_b16_us: f64,
    /// Floating-point operations of one batch-16 call (2 per MAC).
    pub flops_b16: f64,
    /// Bytes the engine copies per sample outside its GEMMs.
    pub bytes_moved_per_sample: f64,
    /// `CostModel` cycles per sample at batch 16, in thousands.
    pub kcycles_per_sample_b16: f64,
}

impl LayerTimes {
    /// Engine time of one call at batch `b`, linear between the timed
    /// batch sizes and beyond the last one.
    #[must_use]
    pub fn engine_us_at(&self, b: usize) -> f64 {
        let b = b.max(1) as f64;
        let (lo, hi) = if b <= BATCHES[1] as f64 {
            (0, 1)
        } else {
            (1, 2)
        };
        let (b0, b1) = (BATCHES[lo] as f64, BATCHES[hi] as f64);
        let (t0, t1) = (self.engine_us[lo], self.engine_us[hi]);
        t0 + (t1 - t0) * (b - b0) / (b1 - b0)
    }
}

/// Times `call` for at least `budget` and [`MIN_REPS`] calls after one
/// untimed warm-up call; returns the median in µs. Each timed call is
/// also recorded as a span when tracing.
fn median_us(
    budget: Duration,
    span: &mut dyn FnMut(Instant, Instant),
    call: &mut dyn FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    call()?;
    let began = Instant::now();
    let mut times = Vec::new();
    while times.len() < MAX_REPS && (times.len() < MIN_REPS || began.elapsed() < budget) {
        let t0 = Instant::now();
        call()?;
        let t1 = Instant::now();
        span(t0, t1);
        times.push((t1 - t0).as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&times))
}

/// Times layer `index`: its engine at every batch size in [`BATCHES`],
/// and each stage GEMM at batch 16 with the kernel its backend uses
/// (`gemm_into` for float, `qmatmul_raw` for quantized), each for
/// `budget`. Spans go to `spans` when `tracer` is set.
///
/// # Errors
///
/// Propagates engine errors.
pub fn measure_layer(
    index: usize,
    engine: &Engine,
    matrix: &TtMatrix<f64>,
    pool: &[Vec<f64>],
    budget: Duration,
    tracer: Option<&Tracer>,
    spans: &mut Vec<Span>,
) -> Result<LayerTimes, String> {
    let plan = InferencePlan::new(matrix.shape()).map_err(|e| e.to_string())?;
    let (m, n) = (matrix.shape().num_rows(), matrix.shape().num_cols());
    let mut times = LayerTimes {
        flops_b16: 2.0 * plan.total_muls() as f64 * 16.0,
        bytes_moved_per_sample: engine.bytes_moved_per_sample() as f64,
        ..LayerTimes::default()
    };
    let record = |name: &'static str, arg: usize| {
        move |spans: &mut Vec<Span>, t0: Instant, t1: Instant| {
            if let Some(tr) = tracer {
                spans.push(tr.span(tr.id(), NONE, NONE, name, index, arg, t0, t1));
            }
        }
    };

    for (slot, &b) in BATCHES.iter().enumerate() {
        let mut xs = vec![0.0; n * b];
        for c in 0..b {
            for (j, &v) in pool[c % pool.len()].iter().enumerate() {
                xs[j * b + c] = v;
            }
        }
        let mut ys = vec![0.0; m * b];
        let rec = record("engine.matvec_batch_into", b);
        times.engine_us[slot] = median_us(budget, &mut |t0, t1| rec(spans, t0, t1), &mut || {
            engine.matvec_batch_into(black_box(&xs), b, &mut ys)?;
            black_box(&ys);
            Ok(())
        })?;
    }

    let (depth, micro) = engine.pipeline();
    times.kcycles_per_sample_b16 = TieConfig::default()
        .cost_model()
        .cycles_per_sample(&plan, 16, depth, micro)
        / 1e3;

    let float = CompactEngine::new(matrix.clone()).map_err(|e| e.to_string())?;
    let mut rng = ChaCha8Rng::seed_from_u64(index as u64);
    for stage in plan.stages() {
        let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols * 16);
        let core = &float.unfolded_cores()[stage.h - 1];
        let stage_us = if engine.is_quantized() {
            let q = QTensor::quantize_calibrated(core).map_err(|e| e.to_string())?;
            let act = QFormat::new(8).map_err(|e| e.to_string())?;
            let (prod_shift, out_shift) = alignment(q.format(), act, act);
            let b: Vec<i16> = (0..k * cols).map(|_| rng.gen_range(-4096..4096)).collect();
            let mut c = vec![0i16; rows * cols];
            let rec = record("gemm.qmatmul_raw", stage.h);
            median_us(budget, &mut |t0, t1| rec(spans, t0, t1), &mut || {
                let report = qmatmul_raw(
                    q.codes(),
                    black_box(&b),
                    rows,
                    k,
                    cols,
                    prod_shift,
                    out_shift,
                    &mut c,
                );
                black_box((&c, report));
                Ok(())
            })?
        } else {
            let b: Vec<f64> = (0..k * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0; rows * cols];
            let rec = record("gemm.gemm_into", stage.h);
            median_us(budget, &mut |t0, t1| rec(spans, t0, t1), &mut || {
                gemm_into(core.data(), black_box(&b), &mut c, rows, k, cols)
                    .map_err(|e| e.to_string())?;
                black_box(&c);
                Ok(())
            })?
        };
        times.gemm_b16_us += stage_us;
    }
    Ok(times)
}
