//! Quantized-kernel equivalence and calibration-counter suite.
//!
//! The vectorized [`tie::quant::qmatmul`] rides a runtime
//! AVX-512/AVX2/portable dispatch and the workspace thread pool; its
//! contract is that codes **and** saturation reports are bit-identical to
//! the naive per-output reference at every dispatch tier and every pool
//! size. Random inputs rarely exercise the saturation paths, so the
//! property tests here engineer inputs that saturate both the 24-bit
//! mid-accumulation clamp and the final 16-bit requantization, then prove
//! the three kernels (dispatched, forced-portable, naive) agree across
//! pool sizes {1, 2, 8}.
//!
//! The suite also holds the one-shot calibration to its "zero float work
//! on the hot path" promise via the accelerator's probe-pass counter.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie::prelude::*;
use tie::quant::{
    alignment, qmatmul, qmatmul_naive, qmatmul_raw, qmatmul_raw_mapped, QMatmulReport, QuantPath,
};
use tie::tensor::linalg::DestMap;
use tie::tensor::tile::{
    stream_gemm, Activation, Epilogue, PortableTile, Requant, RequantRelu, RowMajor,
};
use tie::tensor::{init, parallel};

/// Builds a `QTensor` from explicit codes.
fn qt(rows: usize, cols: usize, codes: Vec<i16>, frac_bits: u32) -> QTensor {
    QTensor::from_codes(vec![rows, cols], codes, QFormat::new(frac_bits).unwrap()).unwrap()
}

/// The forced-portable tier: the quantized datapath on the pinned
/// `PortableTile<8, 1>` kernel, row-major, with the given epilogue.
#[allow(clippy::too_many_arguments)]
fn qmatmul_portable<E: Epilogue<i32>>(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    prod_shift: u32,
    out_shift: u32,
    codes: &mut [i16],
    epi: &E,
) -> QMatmulReport {
    let (acc_saturations, out_saturations) = stream_gemm(
        QuantPath::new(prod_shift, out_shift),
        PortableTile::<8, 1>,
        a,
        b,
        codes,
        m,
        k,
        n,
        1,
        &RowMajor::new(m, n),
        epi,
    );
    QMatmulReport {
        acc_saturations,
        out_saturations,
        outputs: (m * n) as u64,
    }
}

/// Runs all three kernels on the same raw operands and asserts exact
/// agreement of codes and reports, at the given pool size.
fn assert_three_way_agreement(a: &QTensor, b: &QTensor, out: QFormat, threads: usize) {
    let prev = parallel::set_num_threads(threads);
    let (c_fast, r_fast) = qmatmul(a, b, out).unwrap();
    let (c_naive, r_naive) = qmatmul_naive(a, b, out).unwrap();

    let (m, k) = (a.shape().dims()[0], a.shape().dims()[1]);
    let n = b.shape().dims()[1];
    let (prod_shift, out_shift) = alignment(a.format(), b.format(), out);
    let mut c_port = vec![0i16; m * n];
    let r_port = qmatmul_portable(
        a.codes(),
        b.codes(),
        m,
        k,
        n,
        prod_shift,
        out_shift,
        &mut c_port,
        &Requant,
    );

    // Fused-ReLU variants: the epilogue clamps the clipped 32-bit code at
    // zero *after* both saturation counters are taken, so codes must be
    // exactly requant-then-relu and reports must be exactly the plain
    // kernel's — under the same engineered saturation.
    let mut c_relu = vec![0i16; m * n];
    let r_relu = qmatmul_raw_mapped(
        a.codes(),
        b.codes(),
        m,
        k,
        n,
        1,
        prod_shift,
        out_shift,
        &mut c_relu,
        &DestMap::identity(m, n),
        Activation::Relu,
    );
    let mut c_relu_port = vec![0i16; m * n];
    let r_relu_port = qmatmul_portable(
        a.codes(),
        b.codes(),
        m,
        k,
        n,
        prod_shift,
        out_shift,
        &mut c_relu_port,
        &RequantRelu,
    );
    parallel::set_num_threads(prev);

    assert_eq!(
        c_fast.codes(),
        c_naive.codes(),
        "dispatched vs naive codes, {threads} threads"
    );
    assert_eq!(
        c_fast.codes(),
        &c_port[..],
        "dispatched vs portable codes, {threads} threads"
    );
    assert_eq!(
        r_fast, r_naive,
        "dispatched vs naive report, {threads} threads"
    );
    assert_eq!(
        r_fast, r_port,
        "dispatched vs portable report, {threads} threads"
    );

    let want_relu: Vec<i16> = c_naive.codes().iter().map(|&v| v.max(0)).collect();
    assert_eq!(
        &c_relu[..],
        &want_relu[..],
        "fused relu vs requant-then-relu, {threads} threads"
    );
    assert_eq!(
        &c_relu_port[..],
        &want_relu[..],
        "portable fused relu codes, {threads} threads"
    );
    assert_eq!(
        r_relu, r_naive,
        "fused relu report must equal the plain report, {threads} threads"
    );
    assert_eq!(
        r_relu_port, r_naive,
        "portable fused relu report, {threads} threads"
    );
}

/// Deterministic saturation smoke test: an all-max-code product long
/// enough to blow the 24-bit accumulator on every output, plus an
/// out-shift that clips the requantization. Every kernel must report the
/// same (full) saturation counts.
#[test]
fn engineered_saturation_agrees_across_kernels_and_pool_sizes() {
    // k = 1024 MACs of 32767·32767 ≈ 2^30 each: saturates 24-bit lanes
    // mid-accumulation, repeatedly, on every output.
    let (m, k, n) = (24, 1024, 40);
    let a = qt(m, k, vec![i16::MAX; m * k], 12);
    let b = qt(k, n, vec![i16::MAX; k * n], 8);
    let out = QFormat::new(14).unwrap(); // coarse shift: requant clips too

    for threads in [1usize, 2, 8] {
        assert_three_way_agreement(&a, &b, out, threads);
    }
    let (_, report) = qmatmul_naive(&a, &b, out).unwrap();
    assert_eq!(report.outputs, (m * n) as u64);
    assert_eq!(
        report.acc_saturations,
        (m * n) as u64,
        "every accumulator must saturate"
    );
    assert!(report.out_saturations > 0, "requantization must clip");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Saturation-engineered property: random shapes (including ragged
    /// tile tails), random codes with a heavy-tail bias toward extreme
    /// values, random formats — dispatched, portable, and naive kernels
    /// agree bit-for-bit on codes and saturation reports at pool sizes
    /// {1, 2, 8}.
    #[test]
    fn kernels_agree_bitwise_under_saturation(
        m in 1usize..40,
        k in 1usize..96,
        n in 1usize..70,
        seed in 0u64..10_000,
        a_frac in 0u32..16,
        b_frac in 0u32..16,
        out_frac in 0u32..16,
    ) {
        // Heavy-tailed codes: ~1/4 of entries pinned at ±i16::MAX so long
        // dot products regularly saturate the 24-bit accumulator.
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut gen_codes = |len: usize| -> Vec<i16> {
            (0..len)
                .map(|_| {
                    let r = next();
                    match r % 4 {
                        0 => if r & 8 == 0 { i16::MAX } else { i16::MIN },
                        _ => (r >> 16) as i16,
                    }
                })
                .collect()
        };
        let a = qt(m, k, gen_codes(m * k), a_frac);
        let b = qt(k, n, gen_codes(k * n), b_frac);
        // The datapath clamps the output format to what the products can
        // express (see the stage alignment in tie-sim); mirror that here —
        // finer-than-product output formats never reach the kernel.
        let out = QFormat::new(out_frac.min(a_frac + b_frac).min(15)).unwrap();
        for threads in [1usize, 2, 8] {
            assert_three_way_agreement(&a, &b, out, threads);
        }
    }

    /// The merged report over row-partitioned slabs equals the whole-matrix
    /// report: saturation counting is per-output and order-independent, so
    /// any pool slab decomposition yields the same totals.
    #[test]
    fn report_is_slab_decomposition_invariant(
        m in 2usize..24,
        k in 1usize..64,
        n in 1usize..48,
        seed in 0u64..10_000,
        split in 1usize..23,
    ) {
        let split = split.min(m - 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a_f: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 4.0);
        let b_f: Tensor<f64> = init::uniform(&mut rng, vec![k, n], 4.0);
        let a = QTensor::quantize(&a_f, QFormat::new(13).unwrap());
        let b = QTensor::quantize(&b_f, QFormat::new(13).unwrap());
        let out = QFormat::new(13).unwrap(); // deliberately tight: clips often
        let (prod_shift, out_shift) = alignment(a.format(), b.format(), out);

        let mut whole = vec![0i16; m * n];
        let r_whole = qmatmul_raw(a.codes(), b.codes(), m, k, n, prod_shift, out_shift, &mut whole);

        let mut top = vec![0i16; split * n];
        let mut bot = vec![0i16; (m - split) * n];
        let r_top = qmatmul_raw(&a.codes()[..split * k], b.codes(), split, k, n, prod_shift, out_shift, &mut top);
        let r_bot = qmatmul_raw(&a.codes()[split * k..], b.codes(), m - split, k, n, prod_shift, out_shift, &mut bot);

        prop_assert_eq!(r_top.merged(&r_bot), r_whole);
        prop_assert_eq!(&whole[..split * n], &top[..]);
        prop_assert_eq!(&whole[split * n..], &bot[..]);
    }
}

/// Wall-clock gate on the quantized fast path (run by `scripts/ci.sh`
/// under `--release`, `--ignored` otherwise): a VGG-FC7 batch-16
/// simulated run must finish within `TIE_QUANT_BUDGET_S` seconds
/// (default 5) once the layer is loaded. The seed MAC-walk path took
/// ~110 ms/sample here; the fast path's ~1.5 ms/sample leaves the budget
/// slack even on loaded CI hosts.
#[test]
#[ignore = "wall-clock gate; run via scripts/ci.sh in release"]
fn fc7_quantized_batch_runs_within_budget() {
    use std::time::Instant;
    use tie::workloads::table4_benchmarks;
    let budget_s: f64 = std::env::var("TIE_QUANT_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);

    let bench = table4_benchmarks()
        .into_iter()
        .find(|b| b.name == "VGG-FC7")
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xfc7);
    let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.3).unwrap();
    // Batch-16 intermediates outgrow the Table 5 working SRAM (see
    // BENCH_quant.json note); provision for the batch.
    let cfg = TieConfig {
        working_sram_bytes: 8 * 1024 * 1024,
        ..TieConfig::default()
    };
    let mut tie = TieAccelerator::new(cfg).unwrap();
    let layer = tie.load_layer(ttm).unwrap();

    const B: usize = 16;
    let xs: Tensor<f64> = init::uniform(&mut rng, vec![bench.shape.num_cols(), B], 1.0);
    tie.run_batch(&layer, &xs, false).unwrap(); // warm-up: scratch growth

    let t = Instant::now();
    let (ys, stats) = tie.run_batch(&layer, &xs, false).unwrap();
    let elapsed = t.elapsed().as_secs_f64();
    assert!(ys.data().iter().all(|v| v.is_finite()));
    assert_eq!(
        stats.saturations(),
        0,
        "calibrated FC7 run must not saturate"
    );
    assert!(
        elapsed < budget_s,
        "FC7 batch-{B} took {elapsed:.2}s, budget {budget_s}s — fast path regressed"
    );
}

/// One-shot calibration does all its float work at load time and none
/// afterwards: the probe-pass counter moves by exactly `probe_count`
/// during `load_layer` and stays frozen over any number of `run_batch`
/// calls.
#[test]
fn one_shot_calibration_traces_only_at_load() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 3).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let n = shape.num_cols();

    let mut tie = TieAccelerator::new(TieConfig::default()).unwrap();
    assert_eq!(tie.calibration_traces(), 0);
    let layer = tie.load_layer(ttm).unwrap();
    let probes = TieConfig::default().quant.probe_count as u64;
    assert_eq!(
        tie.calibration_traces(),
        probes,
        "load must trace exactly the probe set"
    );

    let xs: Tensor<f64> = init::uniform(&mut rng, vec![n, 4], 1.0);
    for _ in 0..5 {
        tie.run_batch(&layer, &xs, false).unwrap();
    }
    assert_eq!(
        tie.calibration_traces(),
        probes,
        "steady-state run_batch must perform zero float reference traces"
    );
}
