//! Steady-state allocation accounting for the compact-engine pipeline.
//!
//! The fused stage pipeline (Transform evaluated inside the GEMM write
//! epilogue — both the float `CompactEngine` and the fixed-point
//! `QuantizedEngine`) promises that after the first call has grown the
//! engine's ping-pong workspace, `matvec_into` / `matvec_batch_into`
//! perform **no heap allocation**. This binary installs a counting global
//! allocator to hold both engines to that promise.
//!
//! The counter is thread-local so the test-harness coordinator thread (and
//! anything else in the process) cannot pollute the measurement; the dense
//! kernels stay below the spawn threshold at these sizes, so all engine
//! work happens on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie::core::CompactEngine;
use tie::prelude::*;
use tie::tensor::init;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping uses a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_matvec_performs_no_heap_allocation() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let engine = CompactEngine::new(ttm).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let x: Tensor<f64> = init::uniform(&mut rng, vec![n], 1.0);
    let mut y = vec![0.0f64; m];
    let b = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, b], 1.0);
    let mut ys = vec![0.0f64; m * b];

    // Warm-up: the first calls grow the ping-pong workspace (the batched
    // call needs the larger, B-scaled capacity).
    engine.matvec_into(x.data(), &mut y).unwrap();
    engine.matvec_batch_into(xs.data(), b, &mut ys).unwrap();

    let before = allocs_on_this_thread();
    for _ in 0..16 {
        engine.matvec_into(x.data(), &mut y).unwrap();
        engine.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state compact passes must not allocate"
    );

    // Sanity: the result is still correct after the counted passes.
    let dense = engine.matrix().to_dense().unwrap();
    let want = tie::tensor::linalg::matvec(&dense, &x).unwrap();
    let y_t = Tensor::from_vec(vec![m], y).unwrap();
    assert!(y_t.approx_eq(&want, 1e-9));
}

/// The quantized kernel's caller-owned-scratch entry point must not
/// allocate either: the accumulators are fixed-size stack tiles inside the
/// kernel frame, and below the pool's spawn threshold the whole product
/// runs inline on the calling thread.
#[test]
fn steady_state_qmatmul_into_performs_no_heap_allocation() {
    use tie::quant::{qmatmul_into, QTensor};
    let mut rng = ChaCha8Rng::seed_from_u64(4243);
    // 16 * 24 * 20 = 7680 < the 1<<14 spawn threshold: runs inline.
    let (m, k, n) = (16usize, 24usize, 20usize);
    let a_f: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
    let b_f: Tensor<f64> = init::uniform(&mut rng, vec![k, n], 1.0);
    let a = QTensor::quantize(&a_f, QFormat::new(12).unwrap());
    let b = QTensor::quantize(&b_f, QFormat::new(8).unwrap());
    let out = QFormat::new(8).unwrap();
    let mut codes = vec![0i16; m * n];

    qmatmul_into(&a, &b, out, &mut codes).unwrap(); // warm-up (paranoia; needs none)
    let before = allocs_on_this_thread();
    let mut report = tie::quant::QMatmulReport::default();
    for _ in 0..16 {
        report = qmatmul_into(&a, &b, out, &mut codes).unwrap();
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state qmatmul_into must not allocate"
    );
    assert_eq!(report.outputs, (m * n) as u64);
}

/// The quantized serving engine keeps the same promise as the float one:
/// after the first call grows the i16 ping-pong workspace, batched
/// execution performs no heap allocation.
#[test]
fn steady_state_quantized_engine_performs_no_heap_allocation() {
    use tie::sim::{QuantConfig, QuantizedEngine};
    let mut rng = ChaCha8Rng::seed_from_u64(4244);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let engine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let b = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
    let mut ys = vec![0.0f64; m * b];

    engine.matvec_batch_into(xs.data(), b, &mut ys).unwrap(); // warm-up
    let before = allocs_on_this_thread();
    for _ in 0..16 {
        engine.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state quantized batched passes must not allocate"
    );
}

/// One-shot calibration's probe pass (`matvec_max_abs_into`, run at
/// width 1 as the calibration runs it) allocates nothing after its first
/// probe: the workspace is grown once, and the max|·| scans and the
/// unepilogued final stage run in place. On a Table 4 layout (LSTM-UCF11).
#[test]
fn probe_maxima_pass_allocates_nothing_after_its_first_probe() {
    let mut rng = ChaCha8Rng::seed_from_u64(4245);
    let shape = TtShape::uniform_rank(vec![4; 4], vec![8, 20, 20, 18], 4).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.3).unwrap();
    let engine = CompactEngine::new(ttm).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let probes: Vec<Tensor<f64>> = (0..8)
        .map(|_| init::uniform(&mut rng, vec![n], 1.0))
        .collect();
    let mut y = vec![0.0f64; m];
    let mut maxima = vec![0.0f64; shape.ndim() + 1];
    tie::tensor::parallel::as_serial_executor(|| {
        engine
            .matvec_max_abs_into(probes[0].data(), &mut y, &mut maxima)
            .unwrap();
        let before = allocs_on_this_thread();
        for p in &probes[1..] {
            engine
                .matvec_max_abs_into(p.data(), &mut y, &mut maxima)
                .unwrap();
        }
        assert_eq!(
            allocs_on_this_thread() - before,
            0,
            "probe passes after the first must not allocate"
        );
    });
    assert!(maxima.iter().all(|&v| v > 0.0));
}

/// `TtMatrix::get`, which the compile's sampled error check calls once
/// per sampled entry, allocates nothing at Table 4 ranks.
#[test]
fn tt_matrix_get_performs_no_heap_allocation() {
    let mut rng = ChaCha8Rng::seed_from_u64(4246);
    let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let before = allocs_on_this_thread();
    let mut sum = 0.0;
    for e in 0..256 {
        sum += ttm.get(e * 13 % 4096, e * 29 % 4096).unwrap();
    }
    assert_eq!(allocs_on_this_thread() - before, 0, "get must not allocate");
    assert!(sum.is_finite());
}

/// The pipeline-parallel executor preallocates every channel slab,
/// ping-pong scratch, and park buffer at construction (sized by the
/// micro-batch, not the batch), so a warmed `StagePipeline` run is
/// allocation-free on the calling thread — which drives the *final*
/// pipeline segment through the same chunk choreography (channel recv,
/// stage GEMMs, slab recycling, output assembly) every worker segment
/// runs. Cut count > 1 so chunks genuinely stream across threads.
#[test]
fn steady_state_pipelined_engines_perform_no_heap_allocation() {
    use tie::core::pipeline::PipelineConfig;
    use tie::sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
    let mut rng = ChaCha8Rng::seed_from_u64(4246);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let fengine = CompactEngine::new(ttm.clone()).unwrap();
    let qengine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
    let cfg = PipelineConfig {
        depth: 3,
        micro_batch: 2,
    };
    let fpipe = PipelinedEngine::float(&fengine, cfg).unwrap();
    let qpipe = PipelinedEngine::quantized(&qengine, cfg).unwrap();
    assert!(fpipe.depth() > 1 && qpipe.depth() > 1);

    let (n, m) = (shape.num_cols(), shape.num_rows());
    let b = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
    let mut ys = vec![0.0f64; m * b];

    // Warm-up: the first call may touch lazily-initialized thread/channel
    // state; everything after must reuse the preallocated slabs.
    fpipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
    qpipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();

    let before = allocs_on_this_thread();
    let mut chunks = 0u64;
    for _ in 0..16 {
        let fr = fpipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
        let qr = qpipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
        chunks += fr.run.chunks + qr.run.chunks;
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state pipelined passes must not allocate on the driving thread"
    );
    // Both pipelines really streamed b/micro = 2 chunks per run.
    assert_eq!(chunks, 16 * 2 * 2);
}

/// Batch-size changes must not re-allocate either: the fused ping-pong
/// buffers are sized `max_stage_input · b`, so once a workspace has seen
/// the largest batch, smaller (and repeated largest) batches shrink/grow
/// within retained capacity on both the float and the quantized engine.
#[test]
fn steady_state_fused_paths_hold_across_batch_sizes() {
    use tie::sim::{QuantConfig, QuantizedEngine};
    let mut rng = ChaCha8Rng::seed_from_u64(4245);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let fengine = CompactEngine::new(ttm.clone()).unwrap();
    let qengine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    // Largest batch that keeps every stage GEMM under the pool's spawn
    // threshold, so all work stays on the measuring thread.
    let bmax = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * bmax], 1.0);
    let mut ys = vec![0.0f64; m * bmax];

    // Warm-up at the largest batch grows both workspaces to capacity.
    fengine.matvec_batch_into(xs.data(), bmax, &mut ys).unwrap();
    qengine.matvec_batch_into(xs.data(), bmax, &mut ys).unwrap();

    let before = allocs_on_this_thread();
    for &b in &[1usize, 2, 4] {
        for _ in 0..4 {
            fengine
                .matvec_batch_into(&xs.data()[..n * b], b, &mut ys[..m * b])
                .unwrap();
            qengine
                .matvec_batch_into(&xs.data()[..n * b], b, &mut ys[..m * b])
                .unwrap();
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "fused engines must not allocate at any batch size once warmed"
    );
}

/// Epilogue fusion must not cost the zero-alloc promise either: a float
/// engine with bias + ReLU fused into the final-stage GEMM store and a
/// quantized engine with ReLU fused into its requantization epilogue stay
/// allocation-free across batch sizes once warmed. The epilogues index
/// pre-built tables (the bias vector lives in the engine), so the hot
/// path gains no per-call buffers.
#[test]
fn steady_state_epilogue_fused_engines_hold_across_batch_sizes() {
    use tie::core::Activation;
    use tie::sim::{QuantConfig, QuantizedEngine};
    let mut rng = ChaCha8Rng::seed_from_u64(4247);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let bias: Vec<f64> = (0..m).map(|o| (o as f64 - 3.0) * 0.1).collect();
    let fengine = CompactEngine::new(ttm.clone())
        .unwrap()
        .with_bias(bias)
        .unwrap()
        .with_activation(Activation::Relu);
    let qengine = QuantizedEngine::new(ttm, QuantConfig::default())
        .unwrap()
        .with_activation(Activation::Relu);
    let bmax = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * bmax], 1.0);
    let mut ys = vec![0.0f64; m * bmax];

    fengine.matvec_batch_into(xs.data(), bmax, &mut ys).unwrap();
    qengine.matvec_batch_into(xs.data(), bmax, &mut ys).unwrap();

    let before = allocs_on_this_thread();
    for &b in &[1usize, 2, 4] {
        for _ in 0..4 {
            fengine
                .matvec_batch_into(&xs.data()[..n * b], b, &mut ys[..m * b])
                .unwrap();
            qengine
                .matvec_batch_into(&xs.data()[..n * b], b, &mut ys[..m * b])
                .unwrap();
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "epilogue-fused engines must not allocate at any batch size once warmed"
    );
    // Sanity: the ReLU really fired — every served output is non-negative.
    assert!(ys[..m].iter().all(|&v| v >= 0.0));
}

use std::sync::atomic::{AtomicBool, Ordering};
use tie::core::pipeline::{FloatChain, PipelineConfig, StageChain, StagePipeline};

/// A float chain whose stage `fail_at` panics once when armed: a stand-in
/// for a stage fault inside a served pipelined layer.
struct PanicOnce {
    inner: FloatChain,
    fail_at: usize,
    armed: AtomicBool,
}

impl StageChain for PanicOnce {
    type Code = f64;
    type Report = <FloatChain as StageChain>::Report;

    fn plan(&self) -> &InferencePlan {
        self.inner.plan()
    }
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }
    fn num_cols(&self) -> usize {
        self.inner.num_cols()
    }
    fn prepare(&self, xs: &[f64], b: usize, c0: usize, w: usize, dst: &mut [f64]) {
        self.inner.prepare(xs, b, c0, w, dst);
    }
    fn run_stage(
        &self,
        idx: usize,
        input: &[f64],
        output: &mut [f64],
        w: usize,
        report: &mut Self::Report,
    ) -> tie::tensor::Result<()> {
        if idx == self.fail_at && self.armed.swap(false, Ordering::AcqRel) {
            panic!("injected stage fault");
        }
        self.inner.run_stage(idx, input, output, w, report)
    }
    fn finish(&self, codes: &[f64], ys: &mut [f64], b: usize, c0: usize, w: usize) {
        self.inner.finish(codes, ys, b, c0, w);
    }
    fn merge(into: &mut Self::Report, other: &Self::Report) {
        FloatChain::merge(into, other);
    }
}

/// A stage panic poisons the pipeline's channels and drops the slabs the
/// unwinding branches held. The next call heals them and answers
/// bit-identically to the sequential engine; after that one recovery,
/// runs are allocation-free again on the driving thread.
#[test]
fn pipeline_heals_after_a_stage_panic_and_stays_allocation_free() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut rng = ChaCha8Rng::seed_from_u64(4247);
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.8).unwrap();
    let engine = CompactEngine::new(ttm).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let b = 4usize;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
    let mut want = vec![0.0f64; m * b];
    engine.matvec_batch_into(xs.data(), b, &mut want).unwrap();

    for depth in [1, 2, 3] {
        for fail_at in 0..shape.ndim() {
            let chain = PanicOnce {
                inner: FloatChain::new(&engine).unwrap(),
                fail_at,
                armed: AtomicBool::new(false),
            };
            let cfg = PipelineConfig {
                depth,
                micro_batch: 1,
            };
            let pipe = StagePipeline::new(chain, cfg).unwrap();
            let mut ys = vec![0.0f64; m * b];
            pipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap(); // warm-up

            pipe.chain().armed.store(true, Ordering::Release);
            let fault = catch_unwind(AssertUnwindSafe(|| {
                pipe.matvec_batch_into(xs.data(), b, &mut ys)
            }));
            assert!(fault.is_err(), "depth {depth}: stage {fail_at} must panic");

            ys.fill(0.0);
            pipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
            for (i, (g, w)) in ys.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "depth {depth}, fault at stage {fail_at}: element {i} after recovery"
                );
            }

            let before = allocs_on_this_thread();
            for _ in 0..8 {
                pipe.matvec_batch_into(xs.data(), b, &mut ys).unwrap();
            }
            let after = allocs_on_this_thread();
            assert_eq!(
                after - before,
                0,
                "depth {depth}, fault at stage {fail_at}: runs after recovery must not allocate"
            );
        }
    }
}
