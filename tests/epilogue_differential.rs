//! Epilogue-fusion differential suite.
//!
//! The Tile/Stage/Global GEMM hierarchy promises that every fused kernel —
//! any (tile kernel × epilogue × destination map) instantiation, at any
//! pool size — is **bit-identical** to the naive reference GEMM followed
//! by a separate scatter pass and a separate epilogue pass. This suite
//! sweeps the full combination lattice on both datapaths:
//!
//! * float: {dispatched `FloatAuto`, forced-portable} × {Identity, Relu,
//!   Bias, BiasRelu} × {RowMajor, identity `DestMap`, permuted `DestMap`}
//!   × pool {1, 8};
//! * quantized: {dispatched `IntAuto`, forced-portable} × {Requant,
//!   RequantRelu} × {row-major, permuted `DestMap`} × batch width {1, 3}
//!   × pool {1, 8}, with saturation reports compared exactly.
//!
//! The dispatched kernels are reached through the one public entry per
//! datapath (`gemm_into_mapped`, `qmatmul_raw_mapped`, plus the row-major
//! `qmatmul_raw`); the forced-portable tier and the `RowMajor`
//! destination are driven straight through `tile::stream_gemm`.
//!
//! Shapes include the degenerate corners (`m = 1`, `k = 1`, single
//! element), tile-remainder edges straddling the 8/16/32 SIMD lane
//! widths, where ragged-tail handling historically hides bugs, and one
//! shape with at least two full register tiles in both dimensions.
//!
//! A third sweep pins the batch-1 block retire (DESIGN.md §16.6): maps
//! whose tiles land in contiguous blocks — the real Table 4 stage maps and
//! synthetic maps with short, long and strip-straddling column runs — at
//! the tile shapes of every float tier (8 × 2 portable, 16 × 2 AVX,
//! 32 × 4 AVX-512) plus the dispatched kernel, under every epilogue, and
//! at the integer tiers' tile shapes (8 × 1, 16 × 2, 32 × 4) with
//! saturating and settling codes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tie::core::indexmap::stage_dest_map;
use tie::quant::{
    alignment, qmatmul_naive, qmatmul_raw, qmatmul_raw_mapped, QFormat, QTensor, QuantPath,
};
use tie::tensor::linalg::{gemm_into_mapped, DestMap};
use tie::tensor::tile::{
    stream_gemm, Activation, Bias, BiasRelu, Dest, FloatPath, Identity, Mapped, PortableTile, Relu,
    Requant, RequantRelu, RowMajor, TileKernel,
};
use tie::tensor::{init, parallel, Tensor};
use tie::workloads::table4_benchmarks;

/// Shapes covering the degenerate corners and the SIMD-lane remainder
/// edges (lane widths are 32/16/8 for f64 AVX-512/AVX2/portable tiles).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),  // single element
    (1, 7, 5),  // m = 1
    (3, 1, 4),  // k = 1
    (5, 9, 31), // one short of a full 32-lane tile
    (4, 6, 33), // one past a full 32-lane tile
    (7, 11, 17),
    (9, 5, 70), // ≥ 2 full register tiles in both dimensions (R = 4, TJ = 32)
];

/// A deterministic permuted `DestMap`: rows reversed, columns rotated.
/// Separable, bijective, and different from identity whenever the output
/// has more than one element.
fn permuted_map(rows: usize, cols: usize) -> DestMap {
    let row: Vec<usize> = (0..rows).map(|i| (rows - 1 - i) * cols).collect();
    let col: Vec<usize> = (0..cols).map(|q| (q + 1) % cols).collect();
    DestMap::new(row, col).unwrap()
}

/// Naive oracle: plain triple-loop GEMM (ascending `k`, no blocking —
/// the same accumulation order the streaming kernels promise), then a
/// separate scatter pass through `map`, then a separate epilogue pass
/// over the scattered output.
#[allow(clippy::too_many_arguments)]
fn oracle_f64(
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    map: &DestMap,
    bias: Option<&[f64]>,
    act: Activation,
) -> Vec<f64> {
    let n = n_mat * bsz;
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    // Separate scatter pass.
    let mut scattered = vec![0.0f64; m * n];
    for i in 0..m {
        for q in 0..n_mat {
            for cb in 0..bsz {
                scattered[map.offset(i, q) * bsz + cb] = c[i * n + q * bsz + cb];
            }
        }
    }
    // Separate epilogue pass, indexed by the logical destination element.
    for e in 0..m * n_mat {
        for cb in 0..bsz {
            let mut v = scattered[e * bsz + cb];
            if let Some(bias) = bias {
                v += bias[e];
            }
            if act == Activation::Relu {
                v = if v > 0.0 { v } else { 0.0 };
            }
            scattered[e * bsz + cb] = v;
        }
    }
    scattered
}

/// Runs the float lattice for one shape at one pool size: both kernels
/// (dispatched via `gemm_into_mapped`, forced-portable via `stream_gemm`)
/// × all four epilogues × all three destinations.
fn float_lattice(m: usize, k: usize, n_mat: usize, bsz: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
    let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1.0);
    let bias: Vec<f64> = (0..m * n_mat).map(|e| (e as f64 - 3.0) * 0.25).collect();
    let identity = DestMap::identity(m, n_mat);
    let permuted = permuted_map(m, n_mat);

    for act in [Activation::Identity, Activation::Relu] {
        for with_bias in [false, true] {
            let bias_opt = with_bias.then_some(&bias[..]);
            for (map, mapped) in [(&identity, false), (&identity, true), (&permuted, true)] {
                let want = oracle_f64(a.data(), b.data(), m, k, n_mat, bsz, map, bias_opt, act);

                // Dispatched kernel through the single public entry.
                let mut got = vec![0.0f64; m * n_mat * bsz];
                gemm_into_mapped(
                    a.data(),
                    b.data(),
                    &mut got,
                    m,
                    k,
                    n_mat,
                    bsz,
                    map,
                    bias_opt,
                    act,
                )
                .unwrap();
                assert_bits_eq(&got, &want, "dispatched", act, with_bias, mapped);

                // Forced-portable kernel straight through the streaming
                // stage, exercising every epilogue type explicitly. R = 2
                // so odd `m` exercises both the row-pair and the
                // single-row paths.
                let mut port = vec![0.0f64; m * n_mat * bsz];
                let kern = PortableTile::<8, 2>;
                let (a, b, dims) = (a.data(), b.data(), (m, k, n_mat, bsz));
                if mapped {
                    let dest = Mapped::new(map);
                    stream_float(kern, a, b, &mut port, dims, &dest, bias_opt, act);
                } else {
                    let dest = RowMajor::new(m, n_mat);
                    stream_float(kern, a, b, &mut port, dims, &dest, bias_opt, act);
                }
                assert_bits_eq(&port, &want, "portable", act, with_bias, mapped);
            }
        }
    }
}

fn assert_bits_eq(
    got: &[f64],
    want: &[f64],
    kernel: &str,
    act: Activation,
    with_bias: bool,
    mapped: bool,
) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{kernel} kernel, act {act:?}, bias {with_bias}, mapped {mapped}, element {i}: {g} != {w}"
        );
    }
}

#[test]
fn float_kernel_epilogue_dest_lattice_matches_oracle_at_pool_1_and_8() {
    for (threads, seed) in [(1usize, 0x51u64), (8, 0x52)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().enumerate() {
            for bsz in [1usize, 3] {
                float_lattice(m, k, n_mat, bsz, seed + si as u64 * 31);
            }
        }
        parallel::set_num_threads(prev);
    }
}

/// A map shaped like every inner Table 4 stage map: `u·f` rows and
/// `run·runs` columns, row `i` at `(i % f)·u·run + i / f`, column `q` at
/// `(q / run)·rows·run + (q % run)·u`. Groups of `u` rows land side by
/// side once sorted, and the column stride is `u`, so a tile of `R = u`
/// rows retires in blocks.
fn interleaved_map(u: usize, f: usize, run: usize, runs: usize) -> DestMap {
    let rows = u * f;
    let row = (0..rows).map(|i| (i % f) * u * run + i / f).collect();
    let col = (0..run * runs)
        .map(|q| (q / run) * rows * run + (q % run) * u)
        .collect();
    let map = DestMap::new(row, col).unwrap();
    assert_eq!(map.col_runs(), (u, run));
    map
}

/// `stream_gemm` on the float datapath at kernel `kern` through `dest`,
/// with the epilogue that `(bias, act)` names.
#[allow(clippy::too_many_arguments)]
fn stream_float<K: TileKernel, D: Dest>(
    kern: K,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    (m, k, n_mat, bsz): (usize, usize, usize, usize),
    dest: &D,
    bias: Option<&[f64]>,
    act: Activation,
) {
    let path = FloatPath::<f64>::new();
    macro_rules! run {
        ($epi:expr) => {
            stream_gemm(path, kern, a, b, c, m, k, n_mat, bsz, dest, $epi)
        };
    }
    match (bias, act) {
        (None, Activation::Identity) => run!(&Identity),
        (None, Activation::Relu) => run!(&Relu),
        (Some(bias), Activation::Identity) => run!(&Bias::new(bias)),
        (Some(bias), Activation::Relu) => run!(&BiasRelu::new(bias)),
    }
}

/// Every float tier's tile shape plus the dispatched kernel, against the
/// oracle, bit for bit, on one map and epilogue set.
fn block_retire_case(
    map: &DestMap,
    k: usize,
    bsz: usize,
    epilogues: &[(bool, Activation)],
    seed: u64,
) {
    let (m, n_mat) = (map.rows(), map.cols());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
    let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1.0);
    let bias: Vec<f64> = (0..m * n_mat)
        .map(|e| (e % 13) as f64 * 0.25 - 1.5)
        .collect();
    let dims = (m, k, n_mat, bsz);
    for &(with_bias, act) in epilogues {
        let bias_opt = with_bias.then_some(&bias[..]);
        let want = oracle_f64(a.data(), b.data(), m, k, n_mat, bsz, map, bias_opt, act);
        let mut got = vec![f64::NAN; m * n_mat * bsz];
        gemm_into_mapped(
            a.data(),
            b.data(),
            &mut got,
            m,
            k,
            n_mat,
            bsz,
            map,
            bias_opt,
            act,
        )
        .unwrap();
        assert_bits_eq(&got, &want, "dispatched", act, with_bias, true);
        let (a, b, dest) = (a.data(), b.data(), Mapped::new(map));
        macro_rules! tier {
            ($name:literal, $kern:expr) => {{
                let mut got = vec![f64::NAN; m * n_mat * bsz];
                stream_float($kern, a, b, &mut got, dims, &dest, bias_opt, act);
                assert_bits_eq(&got, &want, $name, act, with_bias, true);
            }};
        }
        tier!("8x2", PortableTile::<8, 2>);
        tier!("16x2", PortableTile::<16, 2>);
        tier!("32x4", PortableTile::<32, 4>);
    }
}

#[test]
fn float_block_retire_matches_oracle_on_stage_and_synthetic_maps() {
    let all_epilogues = [
        (false, Activation::Identity),
        (false, Activation::Relu),
        (true, Activation::Identity),
        (true, Activation::Relu),
    ];
    // (u, f, run, runs, k): runs shorter than every TJ and straddling
    // strips, n % TJ != 0 (42 columns); runs longer than TJ = 32 that
    // straddle a strip (40); `u = 2`, so the 2-row tiers take blocks while
    // the 4-row tier sees rows % R != 0 (6 rows) and falls back; aligned
    // full-strip runs for the 2-row tiers (16); 12 rows, whose 2- and
    // 8-way row partitions split groups of adjacent rows.
    let synthetic = [
        (4, 2, 6, 7, 5),
        (4, 4, 40, 2, 3),
        (2, 3, 12, 3, 7),
        (2, 2, 16, 4, 4),
        (4, 3, 32, 3, 2),
    ];
    for (threads, seed) in [(1usize, 0x71u64), (2, 0x72), (8, 0x73)] {
        let prev = parallel::set_num_threads(threads);
        for (ci, &(u, f, run, runs, k)) in synthetic.iter().enumerate() {
            let map = interleaved_map(u, f, run, runs);
            for bsz in [1usize, 3] {
                block_retire_case(&map, k, bsz, &all_epilogues, seed + ci as u64 * 17);
            }
        }
        parallel::set_num_threads(prev);
    }
    // The real inner-stage maps of every Table 4 layer, at batch 1.
    let prev = parallel::set_num_threads(1);
    for (bi, bench) in table4_benchmarks().iter().enumerate() {
        let plan = tie::core::InferencePlan::new(&bench.shape).unwrap();
        let d = bench.shape.ndim();
        for (stage, h) in plan.stages().iter().zip((2..=d).rev()) {
            let map = stage_dest_map(&bench.shape, h).unwrap();
            assert_eq!(map.col_runs().0, 4, "{} h{h}: column stride", bench.name);
            block_retire_case(
                &map,
                stage.gtilde_cols,
                1,
                &[(false, Activation::Identity), (true, Activation::Relu)],
                0x81 + (bi * 8 + h) as u64,
            );
        }
    }
    parallel::set_num_threads(prev);
}

/// The quantized datapath on one map: the dispatched kernel and every
/// integer tier's tile shape (8 × 1 portable, 16 × 2 AVX2, 32 × 4
/// AVX-512, whose tile runs `vpmaddwd` where AVX-512BW is present)
/// against the naive kernel then scatter then ReLU, codes and saturation
/// reports exact. `heavy` codes saturate often (tiles take the exact
/// re-accumulation); otherwise codes are small and every tile settles.
fn quant_block_case(map: &DestMap, k: usize, bsz: usize, heavy: bool, prod_frac: u32, seed: u64) {
    let (m, n_mat) = (map.rows(), map.cols());
    let n = n_mat * bsz;
    let codes = |len: usize, seed: u64| -> Vec<i16> {
        let c = heavy_codes(len, seed);
        if heavy {
            c
        } else {
            c.into_iter().map(|v| v >> 6).collect()
        }
    };
    let a_frac = prod_frac / 2;
    let a = QTensor::from_codes(
        vec![m, k],
        codes(m * k, seed),
        QFormat::new(a_frac).unwrap(),
    )
    .unwrap();
    let b = QTensor::from_codes(
        vec![k, n],
        codes(k * n, seed ^ 0xabcd),
        QFormat::new(prod_frac - a_frac).unwrap(),
    )
    .unwrap();
    let out = QFormat::new(prod_frac.min(15) / 2).unwrap();
    let (prod_shift, out_shift) = alignment(a.format(), b.format(), out);
    let (c_naive, r_naive) = qmatmul_naive(&a, &b, out).unwrap();
    let sat_naive = (r_naive.acc_saturations, r_naive.out_saturations);
    if !heavy {
        assert_eq!(r_naive.acc_saturations, 0, "mild codes must not saturate");
    }
    for act in [Activation::Identity, Activation::Relu] {
        let mut want = vec![0i16; m * n];
        for i in 0..m {
            for q in 0..n_mat {
                for cb in 0..bsz {
                    let v = c_naive.codes()[i * n + q * bsz + cb];
                    want[map.offset(i, q) * bsz + cb] =
                        if act == Activation::Relu { v.max(0) } else { v };
                }
            }
        }
        let what =
            format!("{act:?} ({m}x{k}x{n_mat}, bsz {bsz}, heavy {heavy}, prod_shift {prod_shift})");
        let mut got = vec![0i16; m * n];
        let r = qmatmul_raw_mapped(
            a.codes(),
            b.codes(),
            m,
            k,
            n_mat,
            bsz,
            prod_shift,
            out_shift,
            &mut got,
            map,
            act,
        );
        assert_eq!(got, want, "dispatched codes, {what}");
        assert_eq!(r, r_naive, "dispatched report, {what}");
        let path = QuantPath::new(prod_shift, out_shift);
        let dest = Mapped::new(map);
        macro_rules! tier {
            ($name:literal, $kern:expr) => {{
                let mut got = vec![0i16; m * n];
                let (a, b) = (a.codes(), b.codes());
                let sat = match act {
                    Activation::Identity => stream_gemm(
                        path, $kern, a, b, &mut got, m, k, n_mat, bsz, &dest, &Requant,
                    ),
                    Activation::Relu => stream_gemm(
                        path,
                        $kern,
                        a,
                        b,
                        &mut got,
                        m,
                        k,
                        n_mat,
                        bsz,
                        &dest,
                        &RequantRelu,
                    ),
                };
                assert_eq!(got, want, "{} codes, {what}", $name);
                assert_eq!(sat, sat_naive, "{} saturation counts, {what}", $name);
            }};
        }
        tier!("8x1", PortableTile::<8, 1>);
        tier!("16x2", PortableTile::<16, 2>);
        tier!("32x4", PortableTile::<32, 4>);
    }
}

#[test]
fn quant_block_retire_matches_oracle_on_stage_and_synthetic_maps() {
    // The synthetic map set of the float test above, with saturating and
    // settling codes, at product alignments that take the `vpmaddwd`
    // tile (shift ≤ 15) and that leave it to the generic loop (22).
    let synthetic = [
        (4, 2, 6, 7, 5),
        (4, 4, 40, 2, 3),
        (2, 3, 12, 3, 7),
        (2, 2, 16, 4, 4),
        (4, 3, 32, 3, 2),
    ];
    for (threads, seed) in [(1usize, 0x91u64), (8, 0x92)] {
        let prev = parallel::set_num_threads(threads);
        for (ci, &(u, f, run, runs, k)) in synthetic.iter().enumerate() {
            let map = interleaved_map(u, f, run, runs);
            for bsz in [1usize, 3] {
                for (heavy, prod_frac) in [(true, 20), (false, 20), (true, 30), (false, 14)] {
                    let seed = seed + ci as u64 * 17 + u64::from(prod_frac);
                    quant_block_case(&map, k, bsz, heavy, prod_frac, seed);
                }
            }
        }
        parallel::set_num_threads(prev);
    }
    // The real inner-stage maps of every Table 4 layer, at batch 1.
    let prev = parallel::set_num_threads(1);
    for (bi, bench) in table4_benchmarks().iter().enumerate() {
        let plan = tie::core::InferencePlan::new(&bench.shape).unwrap();
        let d = bench.shape.ndim();
        for (stage, h) in plan.stages().iter().zip((2..=d).rev()) {
            let map = stage_dest_map(&bench.shape, h).unwrap();
            for heavy in [true, false] {
                quant_block_case(
                    &map,
                    stage.gtilde_cols,
                    1,
                    heavy,
                    20,
                    0xa1 + (bi * 8 + h) as u64,
                );
            }
        }
    }
    parallel::set_num_threads(prev);
}

/// Heavy-tailed random codes: ~1/4 pinned at ±`i16::MAX` so both
/// saturation paths fire regularly (same generator family as
/// `tests/quant_kernels.rs`).
fn heavy_codes(len: usize, seed: u64) -> Vec<i16> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let r = next();
            match r % 4 {
                0 => {
                    if r & 8 == 0 {
                        i16::MAX
                    } else {
                        i16::MIN
                    }
                }
                _ => (r >> 16) as i16,
            }
        })
        .collect()
}

/// Quantized lattice for one shape and batch width at the current pool
/// size: both kernels (dispatched via `qmatmul_raw_mapped`, forced-portable
/// via `stream_gemm`) × {Requant, RequantRelu} × {row-major, permuted map}
/// against naive-then-scatter-then-relu, codes and reports exact.
fn quant_lattice(m: usize, k: usize, n_mat: usize, bsz: usize, seed: u64) {
    let n = n_mat * bsz;
    let a = QTensor::from_codes(
        vec![m, k],
        heavy_codes(m * k, seed),
        QFormat::new(12).unwrap(),
    )
    .unwrap();
    let b = QTensor::from_codes(
        vec![k, n],
        heavy_codes(k * n, seed ^ 0xabcd),
        QFormat::new(8).unwrap(),
    )
    .unwrap();
    let out = QFormat::new(14).unwrap();
    let (prod_shift, out_shift) = alignment(a.format(), b.format(), out);

    // Oracle: the retained naive kernel, then separate scatter and relu
    // passes on its codes. Its report must carry over unchanged — the
    // fused relu counts saturation on the pre-epilogue code.
    let (c_naive, r_naive) = qmatmul_naive(&a, &b, out).unwrap();
    let sat_naive = (r_naive.acc_saturations, r_naive.out_saturations);

    // The row-major entry the loadbench stage timings and `qmatmul_into`
    // ride.
    let mut got = vec![0i16; m * n];
    let r = qmatmul_raw(
        a.codes(),
        b.codes(),
        m,
        k,
        n,
        prod_shift,
        out_shift,
        &mut got,
    );
    assert_eq!(
        &got[..],
        c_naive.codes(),
        "raw vs naive codes ({m}x{k}x{n})"
    );
    assert_eq!(r, r_naive, "raw vs naive report");

    let identity = DestMap::identity(m, n_mat);
    let permuted = permuted_map(m, n_mat);
    for act in [Activation::Identity, Activation::Relu] {
        for (map, mapped) in [(&identity, false), (&permuted, true)] {
            let mut want = vec![0i16; m * n];
            for i in 0..m {
                for q in 0..n_mat {
                    for cb in 0..bsz {
                        let v = c_naive.codes()[i * n + q * bsz + cb];
                        want[map.offset(i, q) * bsz + cb] =
                            if act == Activation::Relu { v.max(0) } else { v };
                    }
                }
            }
            let what = format!("{act:?}, mapped {mapped} ({m}x{k}x{n_mat}, bsz {bsz})");

            let r = qmatmul_raw_mapped(
                a.codes(),
                b.codes(),
                m,
                k,
                n_mat,
                bsz,
                prod_shift,
                out_shift,
                &mut got,
                map,
                act,
            );
            assert_eq!(got, want, "dispatched codes, {what}");
            assert_eq!(r, r_naive, "dispatched report, {what}");

            let mut port = vec![0i16; m * n];
            let path = QuantPath::new(prod_shift, out_shift);
            let kern = PortableTile::<8, 1>;
            macro_rules! run_portable {
                ($epi:expr) => {
                    if mapped {
                        stream_gemm(
                            path,
                            kern,
                            a.codes(),
                            b.codes(),
                            &mut port,
                            m,
                            k,
                            n_mat,
                            bsz,
                            &Mapped::new(map),
                            $epi,
                        )
                    } else {
                        stream_gemm(
                            path,
                            kern,
                            a.codes(),
                            b.codes(),
                            &mut port,
                            m,
                            k,
                            n_mat,
                            bsz,
                            &RowMajor::new(m, n_mat),
                            $epi,
                        )
                    }
                };
            }
            let sat = match act {
                Activation::Identity => run_portable!(&Requant),
                Activation::Relu => run_portable!(&RequantRelu),
            };
            assert_eq!(port, want, "portable codes, {what}");
            assert_eq!(sat, sat_naive, "portable saturation counts, {what}");
        }
    }
}

#[test]
fn quant_kernel_epilogue_dest_lattice_matches_oracle_at_pool_1_and_8() {
    for (threads, seed) in [(1usize, 0x61u64), (8, 0x62)] {
        let prev = parallel::set_num_threads(threads);
        for (si, &(m, k, n_mat)) in SHAPES.iter().enumerate() {
            for bsz in [1usize, 3] {
                quant_lattice(m, k, n_mat, bsz, seed + si as u64 * 37);
            }
        }
        parallel::set_num_threads(prev);
    }
    // Sanity: the heavy-tailed generator really exercises saturation on
    // the larger shapes (otherwise the report comparison proves little).
    let a = QTensor::from_codes(
        vec![6, 64],
        heavy_codes(6 * 64, 9),
        QFormat::new(12).unwrap(),
    )
    .unwrap();
    let b = QTensor::from_codes(
        vec![64, 9],
        heavy_codes(64 * 9, 10),
        QFormat::new(8).unwrap(),
    )
    .unwrap();
    let (_, report) = qmatmul_naive(&a, &b, QFormat::new(14).unwrap()).unwrap();
    assert!(
        report.acc_saturations > 0 && report.out_saturations > 0,
        "generator must saturate both paths: {report:?}"
    );
}
