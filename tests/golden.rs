//! Golden-fixture suite: frozen TT cores + inputs + expected outputs,
//! compared **exactly** (bit-for-bit).
//!
//! The fixtures under `tests/fixtures/` pin the compact engine's numerics:
//! any change to the stage order, transform indexing, or GEMM kernel that
//! alters even one output ULP fails this suite. Floats survive the JSON
//! round trip losslessly because the vendored serializer emits shortest
//! round-trip decimal strings.
//!
//! Regenerate after an *intentional* numerics change with:
//! `cargo test --test golden -- --ignored regenerate`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use tie::core::CompactEngine;
use tie::prelude::*;
use tie::tensor::init;

/// A frozen shape: (fixture name, seed, row modes, col modes, rank).
type GoldenCase = (&'static str, u64, Vec<usize>, Vec<usize>, usize);

/// The frozen shapes: one degenerate single-mode layer (d = 1, rank 1: a
/// plain dense matrix in TT clothing), one small d = 2 layer, one d = 3
/// layer with rank > 1.
fn cases() -> Vec<GoldenCase> {
    vec![
        ("single_mode_5x7", 11, vec![5], vec![7], 1),
        ("d2_6x6_rank2", 12, vec![2, 3], vec![3, 2], 2),
        ("d3_24x24_rank3", 13, vec![2, 3, 4], vec![4, 3, 2], 3),
    ]
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_{name}.json"))
}

fn build_case(seed: u64, m: &[usize], n: &[usize], r: usize) -> (TtMatrix<f64>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shape = TtShape::uniform_rank(m.to_vec(), n.to_vec(), r).unwrap();
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.7).unwrap();
    let x: Tensor<f64> = init::uniform(&mut rng, vec![shape.num_cols()], 1.0);
    (ttm, x.data().to_vec())
}

fn floats_to_value(data: &[f64]) -> Value {
    Value::Array(data.iter().map(|&f| Value::Float(f)).collect())
}

fn value_to_floats(v: &Value) -> Vec<f64> {
    v.as_array()
        .expect("expected a JSON array")
        .iter()
        .map(|x| x.as_f64().expect("expected a number"))
        .collect()
}

fn usizes_to_value(dims: &[usize]) -> Value {
    Value::Array(dims.iter().map(|&d| Value::UInt(d as u64)).collect())
}

fn value_to_usizes(v: &Value) -> Vec<usize> {
    v.as_array()
        .expect("expected a JSON array")
        .iter()
        .map(|x| x.as_u64().expect("expected an unsigned integer") as usize)
        .collect()
}

/// Regenerates every fixture from the frozen seeds. Ignored in normal
/// runs; the committed fixtures are the source of truth.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional numerics change"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    for (name, seed, m, n, r) in cases() {
        let (ttm, x) = build_case(seed, &m, &n, r);
        let engine = CompactEngine::new(ttm.clone()).unwrap();
        let mut y = vec![0.0f64; ttm.shape().num_rows()];
        engine.matvec_into(&x, &mut y).unwrap();

        let cores: Vec<Value> = ttm
            .cores()
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("dims".into(), usizes_to_value(c.dims())),
                    ("data".into(), floats_to_value(c.data())),
                ])
            })
            .collect();
        let fixture = Value::Object(vec![
            ("name".into(), Value::String(name.into())),
            ("seed".into(), Value::UInt(seed)),
            ("row_modes".into(), usizes_to_value(&m)),
            ("col_modes".into(), usizes_to_value(&n)),
            ("rank".into(), Value::UInt(r as u64)),
            ("cores".into(), Value::Array(cores)),
            ("input".into(), floats_to_value(&x)),
            ("output".into(), floats_to_value(&y)),
        ]);
        let text = serde_json::to_string_pretty(&fixture).unwrap();
        std::fs::write(fixture_path(name), text + "\n").unwrap();
    }
}

fn check_fixture(name: &str) {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let fixture = serde_json::from_str(&text).unwrap();

    let cores: Vec<Tensor<f64>> = fixture
        .get("cores")
        .expect("cores")
        .as_array()
        .expect("cores array")
        .iter()
        .map(|c| {
            let dims = value_to_usizes(c.get("dims").expect("dims"));
            let data = value_to_floats(c.get("data").expect("data"));
            Tensor::from_vec(dims, data).unwrap()
        })
        .collect();
    let ttm = TtMatrix::new(cores).unwrap();
    let input = value_to_floats(fixture.get("input").expect("input"));
    let expected = value_to_floats(fixture.get("output").expect("output"));

    let engine = CompactEngine::new(ttm).unwrap();
    let mut y = vec![0.0f64; expected.len()];
    engine.matvec_into(&input, &mut y).unwrap();

    assert_eq!(y.len(), expected.len(), "{name}: output length changed");
    for (i, (&got, &want)) in y.iter().zip(&expected).enumerate() {
        assert!(
            got.to_bits() == want.to_bits(),
            "{name}: output[{i}] drifted: got {got:e} ({:#x}), fixture {want:e} ({:#x})",
            got.to_bits(),
            want.to_bits()
        );
    }
}

#[test]
fn golden_single_mode_5x7() {
    check_fixture("single_mode_5x7");
}

#[test]
fn golden_d2_6x6_rank2() {
    check_fixture("d2_6x6_rank2");
}

#[test]
fn golden_d3_24x24_rank3() {
    check_fixture("d3_24x24_rank3");
}

/// The fixtures themselves must stay self-consistent: seeds + shapes in
/// the file regenerate the very cores and input stored beside them. This
/// catches hand-edits that would silently weaken the golden guarantee.
#[test]
fn fixtures_are_reproducible_from_their_seeds() {
    for (name, ..) in cases() {
        let text = std::fs::read_to_string(fixture_path(name)).unwrap();
        let fixture = serde_json::from_str(&text).unwrap();
        let seed = fixture.get("seed").expect("seed").as_u64().unwrap();
        let m = value_to_usizes(fixture.get("row_modes").expect("row_modes"));
        let n = value_to_usizes(fixture.get("col_modes").expect("col_modes"));
        let r = fixture.get("rank").expect("rank").as_u64().unwrap() as usize;

        let (ttm, x) = build_case(seed, &m, &n, r);
        let stored_input = value_to_floats(fixture.get("input").expect("input"));
        assert_eq!(x, stored_input, "{name}: stored input diverges from seed");
        for (k, (core, stored)) in ttm
            .cores()
            .iter()
            .zip(fixture.get("cores").unwrap().as_array().unwrap())
            .enumerate()
        {
            let stored_data = value_to_floats(stored.get("data").expect("data"));
            assert_eq!(
                core.data(),
                stored_data.as_slice(),
                "{name}: core {k} diverges"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-map golden fixture: the consistent-hash ring's layer→shard
// assignment for the Table 4 layer set is part of the serving contract —
// a silent change to the hash or ring layout would reshuffle every
// deployed registry partition.
// ---------------------------------------------------------------------------

/// The pinned ring configurations: vnodes is the `ShardConfig` default.
const SHARD_MAP_SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const SHARD_MAP_VNODES: usize = 64;

fn table4_layer_names() -> Vec<String> {
    tie::workloads::table4_benchmarks()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

fn shard_map_value() -> Value {
    let maps: Vec<Value> = SHARD_MAP_SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let ring = HashRing::new(shards, SHARD_MAP_VNODES).unwrap();
            let assignments: Vec<Value> = table4_layer_names()
                .iter()
                .map(|name| {
                    Value::Object(vec![
                        ("layer".into(), Value::String(name.clone())),
                        ("shard".into(), Value::UInt(ring.shard_for(name) as u64)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("shards".into(), Value::UInt(shards as u64)),
                ("vnodes".into(), Value::UInt(SHARD_MAP_VNODES as u64)),
                ("assignments".into(), Value::Array(assignments)),
            ])
        })
        .collect();
    Value::Object(vec![("maps".into(), Value::Array(maps))])
}

/// Regenerate `golden_shard_map.json` after an *intentional* ring change.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional ring change"]
fn regenerate_shard_map_fixture() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    let text = serde_json::to_string_pretty(&shard_map_value()).unwrap();
    std::fs::write(fixture_path("shard_map"), text + "\n").unwrap();
}

// ---------------------------------------------------------------------------
// Pipeline-cut golden fixture: the cut-point planner's stage partition for
// every Table 4 layer is part of the pipelined-serving contract — a silent
// change to the cost model or the DP tie-break would re-balance deployed
// pipelines (and shift their per-stage SRAM footprints) without anyone
// noticing.
// ---------------------------------------------------------------------------

/// The pinned pipeline depths.
const PIPELINE_CUT_DEPTHS: [usize; 2] = [2, 4];

fn pipeline_cuts_value() -> Value {
    use tie::core::pipeline::plan_cuts;
    let layers: Vec<Value> = tie::workloads::table4_benchmarks()
        .iter()
        .map(|b| {
            let plan = InferencePlan::new(&b.shape).unwrap();
            let plans: Vec<Value> = PIPELINE_CUT_DEPTHS
                .iter()
                .map(|&depth| {
                    let cut = plan_cuts(&plan, depth);
                    Value::Object(vec![
                        ("depth".into(), Value::UInt(depth as u64)),
                        ("cuts".into(), usizes_to_value(&cut.cuts())),
                        ("bottleneck_cost".into(), Value::UInt(cut.bottleneck_cost())),
                        ("total_cost".into(), Value::UInt(cut.total_cost())),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("layer".into(), Value::String(b.name.into())),
                ("stages".into(), Value::UInt(b.shape.ndim() as u64)),
                ("plans".into(), Value::Array(plans)),
            ])
        })
        .collect();
    Value::Object(vec![("layers".into(), Value::Array(layers))])
}

/// Regenerate `golden_pipeline_cuts.json` after an *intentional* planner
/// change.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional planner change"]
fn regenerate_pipeline_cuts_fixture() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    let text = serde_json::to_string_pretty(&pipeline_cuts_value()).unwrap();
    std::fs::write(fixture_path("pipeline_cuts"), text + "\n").unwrap();
}

#[test]
fn golden_pipeline_cuts_table4() {
    let path = fixture_path("pipeline_cuts");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let fixture: Value = serde_json::from_str(&text).unwrap();
    let want = pipeline_cuts_value();
    assert_eq!(
        serde_json::to_string_pretty(&fixture).unwrap(),
        serde_json::to_string_pretty(&want).unwrap(),
        "the cut planner's Table 4 partition drifted from the committed fixture"
    );
    // The stored layer set must cover all of Table 4 at every pinned depth.
    let layers = fixture.get("layers").expect("layers").as_array().unwrap();
    assert_eq!(layers.len(), table4_layer_names().len());
    for layer in layers {
        let plans = layer.get("plans").expect("plans").as_array().unwrap();
        assert_eq!(plans.len(), PIPELINE_CUT_DEPTHS.len());
    }
}

#[test]
fn golden_shard_map_table4() {
    let path = fixture_path("shard_map");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let fixture: Value = serde_json::from_str(&text).unwrap();
    let maps = fixture
        .get("maps")
        .expect("maps")
        .as_array()
        .expect("array");
    assert_eq!(maps.len(), SHARD_MAP_SHARD_COUNTS.len());
    for map in maps {
        let shards = map.get("shards").expect("shards").as_u64().unwrap() as usize;
        let vnodes = map.get("vnodes").expect("vnodes").as_u64().unwrap() as usize;
        let ring = HashRing::new(shards, vnodes).unwrap();
        let assignments = map
            .get("assignments")
            .expect("assignments")
            .as_array()
            .unwrap();
        assert_eq!(
            assignments.len(),
            table4_layer_names().len(),
            "every Table 4 layer must be pinned"
        );
        for a in assignments {
            let layer = a.get("layer").expect("layer").as_str().expect("string");
            let want = a.get("shard").expect("shard").as_u64().unwrap() as usize;
            assert_eq!(
                ring.shard_for(layer),
                want,
                "layer {layer} moved off shard {want} ({shards} shards): \
                 the hash ring's placement contract changed"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden compile fixture: the TT-SVD's compiled cores, bit for bit. Each
// pinned layer is a small seeded planted-TT dense matrix whose first
// unfolding (of the fused-mode tensor, read from `w` through the index
// map) takes one route of `SvdMethod::Auto` (rank cap 4, so a short side
// of at least 24 counts as rank-capped). The kernels under the TT-SVD
// (the fused-unfolding gather, the Gram and its projection, `matmul_tn`,
// the one-sided Jacobi) may be rewritten for speed only if every core
// keeps its bits.
// ---------------------------------------------------------------------------

/// A pinned compile: (route, seed, row modes, col modes). Rank cap 4.
type CompileCase = (&'static str, u64, Vec<usize>, Vec<usize>);

const COMPILE_RANK: usize = 4;

fn compile_cases() -> Vec<CompileCase> {
    vec![
        // 30 × 1280: wide Gram, a row count that is not a multiple of 4
        // and a column count that ends in a partial 512-column block.
        ("wide_gram", 31, vec![5, 4, 4], vec![6, 8, 10]),
        // 560 × 30: tall Gram (`AᵀA` by `matmul_tn`).
        ("tall_gram", 32, vec![35, 5], vec![16, 6]),
        // 270 × 300: short side above 256, rank-capped, wide sketch.
        ("randomized_wide", 33, vec![15, 15], vec![18, 20]),
        // 300 × 270: the tall sketch.
        ("randomized_tall", 34, vec![15, 15], vec![20, 18]),
        // 8 × 72: below 2¹⁴ elements, exact Jacobi.
        ("small_jacobi", 35, vec![2, 3, 4], vec![4, 3, 2]),
    ]
}

fn compile_fixture_value() -> Value {
    use tie::tensor::linalg::SvdMethod;
    let layers: Vec<Value> = compile_cases()
        .into_iter()
        .map(|(route, seed, m, n)| {
            let shape = TtShape::uniform_rank(m.clone(), n.clone(), COMPILE_RANK).unwrap();
            let w = tie::workloads::synthetic_layer_weights(&shape, 1e-4, seed).unwrap();
            let ttm = TtMatrix::from_dense_with(
                &w,
                &m,
                &n,
                Truncation::rank(COMPILE_RANK),
                SvdMethod::default(),
            )
            .unwrap();
            let cores: Vec<Value> = ttm
                .cores()
                .iter()
                .map(|c| {
                    let bits = c
                        .data()
                        .iter()
                        .map(|v| Value::String(format!("{:016x}", v.to_bits())))
                        .collect();
                    Value::Object(vec![
                        ("dims".into(), usizes_to_value(c.dims())),
                        ("bits".into(), Value::Array(bits)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("route".into(), Value::String(route.into())),
                ("seed".into(), Value::UInt(seed)),
                ("row_modes".into(), usizes_to_value(&m)),
                ("col_modes".into(), usizes_to_value(&n)),
                ("rank".into(), Value::UInt(COMPILE_RANK as u64)),
                ("cores".into(), Value::Array(cores)),
            ])
        })
        .collect();
    Value::Object(vec![("layers".into(), Value::Array(layers))])
}

/// Regenerate `golden_compile.json` after an *intentional* change to the
/// TT-SVD's numerics.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional TT-SVD numerics change"]
fn regenerate_compile_fixture() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    let text = serde_json::to_string_pretty(&compile_fixture_value()).unwrap();
    std::fs::write(fixture_path("compile"), text + "\n").unwrap();
}

#[test]
fn golden_compile_cores_are_bit_identical() {
    let path = fixture_path("compile");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let fixture: Value = serde_json::from_str(&text).unwrap();
    let stored = fixture.get("layers").expect("layers").as_array().unwrap();
    let fresh = compile_fixture_value();
    let fresh = fresh.get("layers").unwrap().as_array().unwrap();
    assert_eq!(stored.len(), compile_cases().len(), "every route is pinned");
    for (want, got) in stored.iter().zip(fresh) {
        let route = want.get("route").expect("route").as_str().unwrap();
        assert_eq!(
            serde_json::to_string_pretty(want).unwrap(),
            serde_json::to_string_pretty(got).unwrap(),
            "{route}: compiled cores drifted from the committed fixture"
        );
    }
}
