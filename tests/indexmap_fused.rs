//! Integration suite for the fused-Transform indexing-map compiler
//! (DESIGN.md §13).
//!
//! Five promises are held here, end to end:
//!
//! 1. The composed affine maps (`stage_transform_map`, `prepare_map`,
//!    `assemble_map`) agree **index-for-index** with the legacy
//!    precomputed gather tables on random layouts (property test, shapes
//!    including rank-1, singleton modes, and single-stage `d = 1`) and on
//!    every Table 4 stage plan.
//! 2. The fused engines (float `CompactEngine`, fixed-point
//!    `QuantizedEngine`) are **bitwise equal** to the gather-table oracle
//!    on all Table 4 layers at pool sizes {1, 2, 8}, saturation reports
//!    included.
//! 3. (`--ignored`, release CI) fused FC7 batch-16 stays under the
//!    `TIE_TRANSFORM_BUDGET_S` wall-clock budget.
//! 4. (`--ignored`, release CI) on every Table 4 layer at batch 16, the
//!    mapped stage GEMM takes at most 2.5× the time of plain `gemm_into`
//!    on the same operands — a ratio measured in one process, so host
//!    speed cancels.
//! 5. (`--ignored`, release CI) on every Table 4 layer, a batch-1
//!    quantized engine call takes at most 1.6× a float engine call, and
//!    the fused float engine is no slower than the gather oracle at
//!    batch 1 and 16 — again ratios within one process.
//! 6. (`--ignored`, release CI) every inner Table 4 stage at batch 1,
//!    through `gemm_into_mapped` with the engine's own map, takes at most
//!    1.5× the same shape through `stream_gemm` with a row-major
//!    destination: the mapped store costs about what a plain one does.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tie::core::indexmap::{assemble_map, prepare_map, stage_dest_map, stage_transform_map};
use tie::core::transform::{assemble_output_gather, prepare_input_scatter, TransformMap};
use tie::core::CompactEngine;
use tie::prelude::*;
use tie::sim::{QuantConfig, QuantizedEngine};
use tie::tensor::linalg::{gemm_into, gemm_into_mapped, DestMap};
use tie::tensor::parallel;
use tie::tensor::tile::{stream_gemm, Activation, FloatAuto, FloatPath, Identity, RowMajor};
use tie::workloads::table4_benchmarks;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Asserts every composed map against its legacy table on one layout.
///
/// Conventions (each verified against the executable legacy code, not just
/// documentation):
/// - stage `h ≥ 2`: `TransformMap::gather` is dest-indexed
///   (`out[o] = in[g[o]]`), so the source→dest affine map must invert it.
/// - prepare: `prepare_input_scatter` is source-indexed
///   (`out[s[j]] = x[j]`), matching the map directly.
/// - assemble: `assemble_output_gather` is dest-indexed like the stages.
fn assert_maps_match_legacy(shape: &TtShape) {
    for h in 2..=shape.ndim() {
        let t = TransformMap::new(shape, h).unwrap();
        let map = stage_transform_map(shape, h).unwrap();
        let g = t.gather();
        assert_eq!(map.source_len(), g.len(), "stage {h}: element count");
        for (o, &src) in g.iter().enumerate() {
            assert_eq!(map.apply(src), o, "stage {h}: source {src}");
        }
    }
    let s = prepare_input_scatter(shape);
    let pmap = prepare_map(shape);
    assert_eq!(pmap.source_len(), s.len(), "prepare: element count");
    for (j, &dest) in s.iter().enumerate() {
        assert_eq!(pmap.apply(j), dest, "prepare: source {j}");
    }
    let g = assemble_output_gather(shape);
    let amap = assemble_map(shape);
    assert_eq!(amap.source_len(), g.len(), "assemble: element count");
    for (o, &src) in g.iter().enumerate() {
        assert_eq!(amap.apply(src), o, "assemble: source {src}");
    }
}

/// Strategy: valid layouts including every degenerate family the compiler
/// must survive — `d = 1` (no inter-stage transform at all), singleton
/// modes (extent-1 digits), and rank-1 (trivial `r` axes).
fn tt_shape_strategy() -> impl Strategy<Value = TtShape> {
    (1usize..=4)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(1usize..=5, d),
                proptest::collection::vec(1usize..=5, d),
                proptest::collection::vec(1usize..=4, d.saturating_sub(1)),
            )
        })
        .prop_map(|(m, n, interior)| {
            let mut ranks = vec![1usize];
            ranks.extend(interior);
            ranks.push(1);
            TtShape::new(m, n, ranks).expect("generated shape is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promise 1, random layouts: composed maps == legacy gather tables,
    /// index for index.
    #[test]
    fn composed_maps_equal_legacy_tables(shape in tt_shape_strategy()) {
        assert_maps_match_legacy(&shape);
    }
}

/// Promise 1, the paper's workloads: every Table 4 stage plan.
#[test]
fn table4_stage_maps_equal_legacy_tables() {
    for bench in table4_benchmarks() {
        assert_maps_match_legacy(&bench.shape);
    }
}

fn batch_input(rng: &mut ChaCha8Rng, n: usize, b: usize) -> Vec<f64> {
    (0..n * b).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Promise 2, float: on every Table 4 layer, the fused write-epilogue
/// pipeline and the gather-table oracle produce bit-identical outputs and
/// identical operation counts at every pool size.
#[test]
fn fused_float_matches_gather_oracle_on_table4_at_all_pool_sizes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_0006);
    for bench in table4_benchmarks() {
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
        let engine = CompactEngine::new(ttm).unwrap();
        let (n, m) = (bench.shape.num_cols(), bench.shape.num_rows());
        for b in [1usize, 3] {
            let xs = batch_input(&mut rng, n, b);
            let mut fused = vec![0.0f64; m * b];
            let mut oracle = vec![0.0f64; m * b];
            let prev = parallel::set_num_threads(1);
            for threads in POOL_SIZES {
                parallel::set_num_threads(threads);
                let cf = engine.matvec_batch_into(&xs, b, &mut fused).unwrap();
                let co = engine
                    .matvec_batch_into_gather(&xs, b, &mut oracle)
                    .unwrap();
                assert_eq!(cf, co, "{}: op counts (b={b}, pool={threads})", bench.name);
                for (i, (f, o)) in fused.iter().zip(&oracle).enumerate() {
                    assert!(
                        f.to_bits() == o.to_bits(),
                        "{}: element {i} differs (b={b}, pool={threads})",
                        bench.name
                    );
                }
            }
            parallel::set_num_threads(prev);
        }
    }
}

/// Promise 2, fixed-point: on every Table 4 layer the fused quantized
/// engine is bit-stable across pool sizes — outputs *and* the
/// `QMatmulReport` saturation counters — and the batched pass equals `b`
/// independent single-sample passes bitwise.
#[test]
fn fused_quantized_is_bit_stable_on_table4_at_all_pool_sizes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_0007);
    for bench in table4_benchmarks() {
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
        let engine = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
        let (n, m) = (bench.shape.num_cols(), bench.shape.num_rows());
        let b = 2usize;
        let xs = batch_input(&mut rng, n, b);

        let prev = parallel::set_num_threads(1);
        let mut reference = vec![0.0f64; m * b];
        let ref_report = engine.matvec_batch_into(&xs, b, &mut reference).unwrap();
        for threads in POOL_SIZES {
            parallel::set_num_threads(threads);
            let mut ys = vec![0.0f64; m * b];
            let report = engine.matvec_batch_into(&xs, b, &mut ys).unwrap();
            assert_eq!(
                report, ref_report,
                "{}: report (pool={threads})",
                bench.name
            );
            for (i, (g, w)) in ys.iter().zip(&reference).enumerate() {
                assert!(
                    g.to_bits() == w.to_bits(),
                    "{}: element {i} differs (pool={threads})",
                    bench.name
                );
            }
        }
        parallel::set_num_threads(1);
        // Batched == b single-sample passes, bitwise.
        let mut single = vec![0.0f64; m];
        let mut x1 = vec![0.0f64; n];
        for c in 0..b {
            for j in 0..n {
                x1[j] = xs[j * b + c];
            }
            engine.matvec_batch_into(&x1, 1, &mut single).unwrap();
            for r in 0..m {
                assert!(
                    single[r].to_bits() == reference[r * b + c].to_bits(),
                    "{}: sample {c} row {r} differs from batched",
                    bench.name
                );
            }
        }
        parallel::set_num_threads(prev);
    }
}

/// Promise 3 (release CI, `--ignored`): fused FC7 batch-16 under the
/// `TIE_TRANSFORM_BUDGET_S` wall-clock budget (seconds, default 2.0).
/// Best-of-3 so a cold pool or scheduler hiccup cannot fail the gate.
#[test]
#[ignore = "wall-clock budget gate; run in release via scripts/ci.sh"]
fn fused_fc7_batch16_meets_wall_clock_budget() {
    let budget_s: f64 = std::env::var("TIE_TRANSFORM_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_0008);
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let engine = CompactEngine::new(ttm).unwrap();
    let (n, m) = (shape.num_cols(), shape.num_rows());
    let b = 16usize;
    let xs = batch_input(&mut rng, n, b);
    let mut ys = vec![0.0f64; m * b];

    engine.matvec_batch_into(&xs, b, &mut ys).unwrap(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        engine.matvec_batch_into(&xs, b, &mut ys).unwrap();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(
        best < budget_s,
        "fused FC7 batch-16 took {best:.4}s, budget {budget_s}s"
    );
}

/// Promise 4 (release CI, `--ignored`): the streaming stage behind
/// `gemm_into_mapped` must stay within a small factor of the k-blocked
/// `gemm_into`. For each Table 4 layer at batch 16, the median time of
/// every stage GEMM (identity map, no epilogue) is summed and divided by
/// the same sum for `gemm_into` on identical operands. The two kernels are
/// timed alternately, so drift in host speed hits both alike.
///
/// This guards the register-tile codegen of the streaming stage: when the
/// accumulating tile is spilled to the stack, the ratio reads 4–7×.
#[test]
#[ignore = "wall-clock ratio gate; run in release via scripts/ci.sh"]
fn mapped_stage_gemm_within_ratio_of_gemm_into_on_table4() {
    const MAX_RATIO: f64 = 2.5;
    const REPS: usize = 15;
    let b = 16usize;
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_0009);
    let mut failures = Vec::new();
    for bench in table4_benchmarks() {
        let plan = InferencePlan::new(&bench.shape).unwrap();
        let (mut mapped_s, mut plain_s) = (0.0f64, 0.0f64);
        for stage in plan.stages() {
            let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            let a = batch_input(&mut rng, rows * k, 1);
            let v = batch_input(&mut rng, k * cols, b);
            let map = DestMap::identity(rows, cols);
            let mut c = vec![0.0f64; rows * cols * b];
            let run_mapped = |c: &mut [f64]| {
                let t0 = std::time::Instant::now();
                gemm_into_mapped(
                    &a,
                    &v,
                    c,
                    rows,
                    k,
                    cols,
                    b,
                    &map,
                    None,
                    Activation::Identity,
                )
                .unwrap();
                t0.elapsed().as_secs_f64()
            };
            let run_plain = |c: &mut [f64]| {
                let t0 = std::time::Instant::now();
                gemm_into(&a, &v, c, rows, k, cols * b).unwrap();
                t0.elapsed().as_secs_f64()
            };
            run_mapped(&mut c); // warm-up
            run_plain(&mut c);
            let (mut tm, mut tp) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
            for _ in 0..REPS {
                tm.push(run_mapped(&mut c));
                tp.push(run_plain(&mut c));
            }
            mapped_s += median(tm);
            plain_s += median(tp);
        }
        let ratio = mapped_s / plain_s;
        eprintln!(
            "{}: mapped {:.3} ms, gemm_into {:.3} ms, ratio {ratio:.2}",
            bench.name,
            mapped_s * 1e3,
            plain_s * 1e3
        );
        if ratio > MAX_RATIO {
            failures.push(format!("{} {ratio:.2}", bench.name));
        }
    }
    assert!(
        failures.is_empty(),
        "mapped/gemm_into stage-time ratio above {MAX_RATIO}: {failures:?}"
    );
}

/// Promise 5 (release CI, `--ignored`): batch-1 calls run at memory speed.
/// On every Table 4 layer, with the engines alternated call by call and
/// the median of `CALLS` calls taken:
///
/// (a) a batch-1 `QuantizedEngine` call takes at most 1.6× a
///     `CompactEngine` call on the same cores. It reads 1.8–2.4× on the
///     LSTM layers when quantization pays a `rint` library call per
///     element and the batch-1 retire walks runs of length one;
/// (b) the fused float engine takes no longer than the gather oracle
///     (`matvec_batch_into_gather`: plain GEMM plus a separate
///     permutation pass) at batch 1 and 16.
///
/// It also prints, without a bound, the float batch-1 call at width 1
/// (`set_num_threads(1)`, restored afterwards) next to the default-width
/// reading: the pool dispatch a direct library caller still pays at
/// batch 1, which served calls no longer do (DESIGN.md §11.3).
#[test]
#[ignore = "wall-clock ratio gate; run in release via scripts/ci.sh"]
fn batch1_quantized_and_fused_float_within_ratio_on_table4() {
    const MAX_QUANT_RATIO: f64 = 1.6;
    const MAX_FUSED_RATIO: f64 = 1.0;
    const CALLS: usize = 31;
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let time = |f: &mut dyn FnMut()| -> f64 {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_000A);
    let mut failures = Vec::new();
    for bench in table4_benchmarks() {
        let ttm = TtMatrix::<f64>::random(&mut rng, &bench.shape, 0.5).unwrap();
        let float = CompactEngine::new(ttm.clone()).unwrap();
        let quant = QuantizedEngine::new(ttm, QuantConfig::default()).unwrap();
        let (n, m) = (bench.shape.num_cols(), bench.shape.num_rows());

        // (a) quantized vs float at batch 1.
        let x = batch_input(&mut rng, n, 1);
        let mut y = vec![0.0f64; m];
        let mut run_quant = || {
            quant.matvec_batch_into(&x, 1, &mut y).unwrap();
        };
        run_quant();
        let mut y2 = vec![0.0f64; m];
        let mut run_float = || {
            float.matvec_batch_into(&x, 1, &mut y2).unwrap();
        };
        run_float();
        let (mut tq, mut tf) = (Vec::with_capacity(CALLS), Vec::with_capacity(CALLS));
        for _ in 0..CALLS {
            tq.push(time(&mut run_quant));
            tf.push(time(&mut run_float));
        }
        let prev = parallel::set_num_threads(1);
        run_float();
        let tf1: Vec<f64> = (0..CALLS).map(|_| time(&mut run_float)).collect();
        parallel::set_num_threads(prev);
        let (q_s, f_s, f1_s) = (median(tq), median(tf), median(tf1));
        let ratio = q_s / f_s;
        eprintln!(
            "{}: b1 quantized {:.3} ms, float {:.3} ms, ratio {ratio:.2}; float at width 1 {:.3} ms",
            bench.name,
            q_s * 1e3,
            f_s * 1e3,
            f1_s * 1e3
        );
        if ratio > MAX_QUANT_RATIO {
            failures.push(format!("{} quantized/float b1 {ratio:.2}", bench.name));
        }

        // (b) fused float vs the gather oracle at batch 1 and 16.
        for b in [1usize, 16] {
            let xs = batch_input(&mut rng, n, b);
            let mut ys = vec![0.0f64; m * b];
            let mut run_fused = || {
                float.matvec_batch_into(&xs, b, &mut ys).unwrap();
            };
            run_fused();
            let mut yg = vec![0.0f64; m * b];
            let mut run_gather = || {
                float.matvec_batch_into_gather(&xs, b, &mut yg).unwrap();
            };
            run_gather();
            let (mut tfu, mut tg) = (Vec::with_capacity(CALLS), Vec::with_capacity(CALLS));
            for _ in 0..CALLS {
                tfu.push(time(&mut run_fused));
                tg.push(time(&mut run_gather));
            }
            let (fu_s, g_s) = (median(tfu), median(tg));
            let ratio = fu_s / g_s;
            eprintln!(
                "{}: b{b} fused {:.3} ms, gather {:.3} ms, ratio {ratio:.2}",
                bench.name,
                fu_s * 1e3,
                g_s * 1e3
            );
            if ratio > MAX_FUSED_RATIO {
                failures.push(format!("{} fused/gather b{b} {ratio:.2}", bench.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "batch-1 ratio gate failed: {failures:?}"
    );
}

/// Promise 6 (release CI, `--ignored`): the batch-1 mapped store is not
/// the bottleneck. For every inner stage (`h ≥ 2`) of every Table 4
/// layer at `bsz = 1`, the median of `CALLS` alternated calls of
/// `gemm_into_mapped` with the engine's stage map is divided by the same
/// for `stream_gemm` with `RowMajor` on identical operands. Every ratio is
/// printed; each must be at most 1.5.
///
/// Storing one element per lane through the map reads up to 3.3× here
/// (VGG-FC7 h6, where `k = 4` leaves the store as the stage's main cost).
/// The block retire (DESIGN.md §16.6) stores whole vectors instead.
#[test]
#[ignore = "wall-clock ratio gate; run in release via scripts/ci.sh"]
fn batch1_mapped_stage_within_ratio_of_row_major_on_table4() {
    const MAX_RATIO: f64 = 1.5;
    const CALLS: usize = 61;
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0x713E_000B);
    let mut failures = Vec::new();
    for bench in table4_benchmarks() {
        let plan = InferencePlan::new(&bench.shape).unwrap();
        let d = bench.shape.ndim();
        for (stage, h) in plan.stages().iter().zip((2..=d).rev()) {
            let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            let map = stage_dest_map(&bench.shape, h).unwrap();
            let a = batch_input(&mut rng, rows * k, 1);
            let v = batch_input(&mut rng, k * cols, 1);
            let mut c = vec![0.0f64; rows * cols];
            let run_mapped = |c: &mut [f64]| {
                let t0 = std::time::Instant::now();
                gemm_into_mapped(
                    &a,
                    &v,
                    c,
                    rows,
                    k,
                    cols,
                    1,
                    &map,
                    None,
                    Activation::Identity,
                )
                .unwrap();
                t0.elapsed().as_secs_f64()
            };
            let dest = RowMajor::new(rows, cols);
            let run_plain = |c: &mut [f64]| {
                let t0 = std::time::Instant::now();
                stream_gemm(
                    FloatPath::<f64>::new(),
                    FloatAuto,
                    &a,
                    &v,
                    c,
                    rows,
                    k,
                    cols,
                    1,
                    &dest,
                    &Identity,
                );
                t0.elapsed().as_secs_f64()
            };
            run_mapped(&mut c); // warm-up
            run_plain(&mut c);
            let (mut tm, mut tp) = (Vec::with_capacity(CALLS), Vec::with_capacity(CALLS));
            for _ in 0..CALLS {
                tm.push(run_mapped(&mut c));
                tp.push(run_plain(&mut c));
            }
            let (m_s, p_s) = (median(tm), median(tp));
            let ratio = m_s / p_s;
            eprintln!(
                "{} h{h} ({rows}x{k}x{cols}): b1 mapped {:.2} us, row-major {:.2} us, ratio {ratio:.2}",
                bench.name,
                m_s * 1e6,
                p_s * 1e6
            );
            if ratio > MAX_RATIO {
                failures.push(format!("{} h{h} {ratio:.2}", bench.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "batch-1 mapped/row-major stage ratio above {MAX_RATIO}: {failures:?}"
    );
}
