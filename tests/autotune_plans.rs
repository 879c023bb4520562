//! Autotuner deployment-plan suite: the JSON round-trip property, golden
//! tuned-plan fixtures for two Table 4 layers, the shipped
//! `tuned_plans_table4.json`, worker-pool determinism, and the saturation
//! re-probe loop at integration scale.
//!
//! The golden fixtures under `tests/fixtures/golden_tuned_plan_*.json`
//! pin the tuner's *output contract*: the exact plan (layout, ranks, SVD
//! seed, serving batch, validated margin) the pinned search config
//! produces for LSTM-UCF11 and LSTM-Youtube. The fast tests parse and
//! re-derive the fixtures without running the search; the `#[ignore]`d
//! reproduction test re-runs the search in release mode (ci.sh tier-2)
//! and must land on the committed bytes — that is the determinism gate,
//! and `TIE_AUTOTUNE_BUDGET_S` turns it into a wall-clock gate too.
//!
//! Regenerate after an *intentional* tuner change with:
//! `cargo test --release --test autotune_plans -- --ignored regenerate`

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use tie::core::{plans_from_json, plans_to_json};
use tie::core::{Activation, CostModel, DeploymentPlan, InferencePlan, PlanBackend};
use tie::serve::EngineRegistry;
use tie::sim::{QuantConfig, ReprobeConfig, TieConfig};
use tie::tensor::linalg::{RsvdParams, SvdMethod};
use tie::tensor::parallel;
use tie::tt::{TtMatrix, TtShape};
use tie::workloads::autotune::{autotune_layer, SearchSpace, TunerConfig};
use tie::workloads::{table4_layer_specs, LayerSpec, Task};

// ---------------------------------------------------------------------------
// Property: every well-formed plan survives the JSON round trip
// bit-identically (the fixture/diff/load contract of `DeploymentPlan`).
// ---------------------------------------------------------------------------

/// Strategy: a valid TT layout with d in 1..=4, modes in 1..=8, uniform
/// interior rank in 1..=4.
fn shape_strategy() -> impl Strategy<Value = TtShape> {
    (1usize..=4).prop_flat_map(|d| {
        (
            proptest::collection::vec(1usize..=8, d),
            proptest::collection::vec(1usize..=8, d),
            1usize..=4,
        )
            .prop_map(|(m, n, r)| TtShape::uniform_rank(m, n, r).expect("valid layout"))
    })
}

/// Strategy: every `SvdMethod` variant, seeds and rSVD params included.
fn svd_strategy() -> impl Strategy<Value = SvdMethod> {
    (0usize..3, 0u64..u64::MAX, 1usize..16, 0usize..4).prop_map(
        |(variant, seed, oversample, power_iters)| match variant {
            0 => SvdMethod::Jacobi,
            1 => SvdMethod::Auto { seed },
            _ => SvdMethod::Randomized(RsvdParams {
                seed,
                oversample,
                power_iters,
            }),
        },
    )
}

fn plan_strategy() -> impl Strategy<Value = DeploymentPlan> {
    (
        (0usize..4, 1u32..1000),
        shape_strategy(),
        svd_strategy(),
        (0usize..2, 0usize..2, 1usize..=64),
        (1e-3f64..1e3, 0.0f64..1e12),
    )
        .prop_map(
            |((name_ix, tag), shape, svd, (backend, act, batch), (margin, cps))| DeploymentPlan {
                layer: format!("{}-{tag}", ["fc", "lstm", "conv", "attn"][name_ix]),
                shape,
                svd,
                backend: [PlanBackend::Float, PlanBackend::Quantized][backend],
                batch,
                activation: [Activation::Identity, Activation::Relu][act],
                quant_margin: margin,
                modeled_cycles_per_sample: cps,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serialize → parse lands on the identical plan, floats bit-for-bit.
    #[test]
    fn plan_json_round_trip_is_bit_identical(plan in plan_strategy()) {
        let back = DeploymentPlan::from_json(&plan.to_json()).expect("round trip parses");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.quant_margin.to_bits(), plan.quant_margin.to_bits());
        prop_assert_eq!(
            back.modeled_cycles_per_sample.to_bits(),
            plan.modeled_cycles_per_sample.to_bits()
        );
        // Serializing the parsed plan reproduces the exact bytes.
        prop_assert_eq!(back.to_json(), plan.to_json());
    }

    /// Whole deployments (arrays of plans) round-trip the same way.
    #[test]
    fn deployment_arrays_round_trip(plans in proptest::collection::vec(plan_strategy(), 0..4)) {
        let text = plans_to_json(&plans);
        let back = plans_from_json(&text).expect("array round trip parses");
        prop_assert_eq!(&back, &plans);
        prop_assert_eq!(plans_to_json(&back), text);
    }
}

// ---------------------------------------------------------------------------
// Golden tuned-plan fixtures: LSTM-UCF11 and LSTM-Youtube under the
// pinned search config below. `{ "default": <plan>, "tuned": <plan> }`.
// ---------------------------------------------------------------------------

/// The two pinned layers (the LSTM rows of Table 4 — paper-scale inputs
/// whose searches run in seconds in release mode).
const GOLDEN_LAYERS: [&str; 2] = ["LSTM-UCF11", "LSTM-Youtube"];

/// The frozen search config the fixtures were generated with. Every knob
/// that shapes the search is spelled out here so a default-drift anywhere
/// upstream shows up as a fixture diff, not a silent re-tune.
fn fixture_cfg() -> TunerConfig {
    TunerConfig {
        space: SearchSpace {
            layouts_per_dim: 2,
            ..SearchSpace::default()
        },
        top_k: 2,
        ..TunerConfig::default()
    }
}

fn fixture_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden_tuned_plan_{name}.json"))
}

fn golden_spec(name: &str) -> LayerSpec {
    table4_layer_specs()
        .into_iter()
        .find(|s| s.name == name)
        .expect("pinned layer is in Table 4")
}

fn read_fixture(name: &str) -> (DeploymentPlan, DeploymentPlan) {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}; regenerate with \
             `cargo test --release --test autotune_plans -- --ignored regenerate`",
            path.display()
        )
    });
    let fixture: Value = serde_json::from_str(&text).expect("fixture parses");
    let default =
        DeploymentPlan::from_value(fixture.get("default").expect("default plan")).unwrap();
    let tuned = DeploymentPlan::from_value(fixture.get("tuned").expect("tuned plan")).unwrap();
    (default, tuned)
}

fn fixture_text(default: &DeploymentPlan, tuned: &DeploymentPlan) -> String {
    use serde::Serialize;
    let fixture = Value::Object(vec![
        ("default".into(), default.to_value()),
        ("tuned".into(), tuned.to_value()),
    ]);
    serde_json::to_string_pretty(&fixture).unwrap() + "\n"
}

/// Regenerates both tuned-plan fixtures from the frozen search config.
/// Run in **release** mode — each layer's search TT-SVD-compiles its
/// paper-scale dense weights a few times.
#[test]
#[ignore = "writes tests/fixtures/; run only after an intentional tuner change"]
fn regenerate_tuned_plan_fixtures() {
    std::fs::create_dir_all(fixture_path("x").parent().unwrap()).unwrap();
    let cfg = fixture_cfg();
    for name in GOLDEN_LAYERS {
        let tuned = autotune_layer(&golden_spec(name), &cfg).expect("search succeeds");
        std::fs::write(
            fixture_path(name),
            fixture_text(&tuned.default_plan, &tuned.plan),
        )
        .unwrap();
    }
}

fn check_fixture(name: &str) {
    let (default, tuned) = read_fixture(name);
    let spec = golden_spec(name);

    // Both plans address the pinned layer and factorize its dense dims.
    let (rows, cols) = spec.size();
    for plan in [&default, &tuned] {
        assert_eq!(plan.layer, name);
        assert_eq!(plan.shape.num_rows(), rows, "{name}: row dim drifted");
        assert_eq!(plan.shape.num_cols(), cols, "{name}: col dim drifted");
        plan.validate().expect("fixture plans are valid");
        assert_eq!(plan.backend, PlanBackend::Quantized);
        // Bit-identical JSON round trip on the committed bytes.
        let back = DeploymentPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(&back, plan, "{name}: fixture plan does not round-trip");
    }

    // The stored score is re-derivable from the shape + batch with the
    // same cost model the tuner used — the fixture can't smuggle in a
    // number the hardware model wouldn't produce.
    for plan in [&default, &tuned] {
        assert_score_rederives(plan);
    }

    // The default plan is the paper setting: spec layout, batch 1. The
    // tuned plan never loses to it on modeled cycles, and its validated
    // margin is no wider than the default's. (On these layers the
    // sequential batch knob ties, so the search keeps the paper layout.)
    assert_eq!(default.shape.row_modes, spec.row_modes);
    assert_eq!(default.shape.col_modes, spec.col_modes);
    assert_eq!(default.batch, 1);
    assert!(
        tuned.modeled_cycles_per_sample <= default.modeled_cycles_per_sample,
        "{name}: tuned {} must not lose to default {}",
        tuned.modeled_cycles_per_sample,
        default.modeled_cycles_per_sample
    );
    assert!(
        tuned.quant_margin <= default.quant_margin,
        "{name}: tuned margin {} wider than default {}",
        tuned.quant_margin,
        default.quant_margin
    );
    // The validated margin is positive and at least the tightest searched
    // one (the re-probe ladder can only widen, never tighten).
    let tightest = fixture_cfg()
        .space
        .quant_margins
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert!(tuned.quant_margin >= tightest);
}

/// Asserts that a plan's stored `modeled_cycles_per_sample` is exactly the
/// cost model's sequential score at the plan's batch.
fn assert_score_rederives(plan: &DeploymentPlan) {
    let model: CostModel = TieConfig::default().cost_model();
    let inference = InferencePlan::new(&plan.shape).unwrap();
    let cps = model.cycles_per_sample(&inference, plan.batch, 1, 1);
    assert_eq!(
        cps.to_bits(),
        plan.modeled_cycles_per_sample.to_bits(),
        "{}: stored modeled_cycles_per_sample diverges from the cost model",
        plan.layer
    );
}

#[test]
fn golden_tuned_plan_lstm_ucf11() {
    check_fixture("LSTM-UCF11");
}

#[test]
fn golden_tuned_plan_lstm_youtube() {
    check_fixture("LSTM-Youtube");
}

/// Re-runs the pinned search and demands the committed fixture bytes —
/// the tuner determinism gate (ci.sh tier-2, release mode, both thread
/// settings). With `TIE_AUTOTUNE_BUDGET_S` set, each layer's search must
/// also finish inside that wall-clock budget.
#[test]
#[ignore = "re-runs paper-scale searches; ci.sh tier-2 runs it in release mode"]
fn tuned_plan_search_reproduces_the_fixtures() {
    let budget_s: Option<f64> = std::env::var("TIE_AUTOTUNE_BUDGET_S")
        .ok()
        .map(|v| v.parse().expect("TIE_AUTOTUNE_BUDGET_S must be seconds"));
    let cfg = fixture_cfg();
    for name in GOLDEN_LAYERS {
        let committed = std::fs::read_to_string(fixture_path(name)).unwrap();
        let t0 = std::time::Instant::now();
        let tuned = autotune_layer(&golden_spec(name), &cfg).expect("search succeeds");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            fixture_text(&tuned.default_plan, &tuned.plan),
            committed,
            "{name}: the search no longer reproduces the committed fixture"
        );
        if let Some(budget) = budget_s {
            assert!(
                elapsed <= budget,
                "{name}: search took {elapsed:.2}s, over the {budget:.2}s budget"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The shipped deployment: `tuned_plans_table4.json` at the repo root, which
// the `table4-tuned` benchmark workload serves. No search, so it is cheap.
// ---------------------------------------------------------------------------

/// The shipped plans parse, carry scores the cost model re-derives bit for
/// bit, and register as sequential quantized engines.
#[test]
fn shipped_table4_plans_rederive_and_register_sequentially() {
    let plans = plans_from_json(include_str!("../tuned_plans_table4.json")).unwrap();
    let names: Vec<&str> = plans.iter().map(|p| p.layer.as_str()).collect();
    let specs: Vec<&str> = table4_layer_specs().iter().map(|s| s.name).collect();
    assert_eq!(names, specs, "one shipped plan per Table 4 layer, in order");
    let mut registry = EngineRegistry::new();
    for (i, plan) in plans.iter().enumerate() {
        assert_score_rederives(plan);
        let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
        let matrix = TtMatrix::random(&mut rng, &plan.shape, 0.5).unwrap();
        registry
            .insert_from_plan(plan, matrix, QuantConfig::default())
            .unwrap();
        let name = plan.layer.as_str();
        assert!(
            registry.get_quantized(name).is_some(),
            "{name}: not quantized"
        );
        assert!(registry.get_pipelined(name).is_none(), "{name}: pipelined");
    }
}

// ---------------------------------------------------------------------------
// Determinism across worker-pool sizes, and the re-probe loop, on a
// compile-in-milliseconds layer (runs in debug mode as part of tier 1).
// ---------------------------------------------------------------------------

/// A small planted-rank-2 layer whose full search runs in milliseconds.
fn small_spec() -> LayerSpec {
    LayerSpec {
        name: "tiny-fc",
        row_modes: vec![4, 4],
        col_modes: vec![4, 4],
        rank: 2,
        task: Task::ImageClassification,
        paper_cr: None,
        activation: Activation::Relu,
        noise: 1e-4,
    }
}

fn small_cfg() -> TunerConfig {
    TunerConfig {
        space: SearchSpace {
            layouts_per_dim: 2,
            batch_sizes: vec![1, 8],
            ..SearchSpace::default()
        },
        top_k: 2,
        error_entries: 1 << 10,
        ..TunerConfig::default()
    }
}

/// Same seed ⇒ byte-identical plan at every pool size: the SVD routes,
/// probe generators and margin walk are all seed-deterministic, and with
/// `compile_budget_s = None` no wall-clock measurement feeds back into
/// the search.
#[test]
fn autotuned_plan_is_identical_across_pool_sizes() {
    let spec = small_spec();
    let cfg = small_cfg();
    let prev = parallel::set_num_threads(1);
    let reference = autotune_layer(&spec, &cfg).unwrap();
    for threads in [2usize, 8] {
        parallel::set_num_threads(threads);
        let got = autotune_layer(&spec, &cfg).unwrap();
        assert_eq!(
            got.plan.to_json(),
            reference.plan.to_json(),
            "plan drifted at pool size {threads}"
        );
        assert_eq!(got.plan, reference.plan);
        assert_eq!(got.default_plan, reference.default_plan);
    }
    parallel::set_num_threads(prev);
}

/// Calibrating far too tight forces saturation drift on the held-out
/// validation probes; the tuner must walk the margin ladder, accept a
/// widened margin, and end clean — the re-probe loop end to end.
#[test]
fn reprobe_ladder_widens_on_saturation_drift() {
    let spec = small_spec();
    let cfg = TunerConfig {
        quant: QuantConfig {
            probe_amplitude: 0.05,
            ..QuantConfig::default()
        },
        space: SearchSpace {
            quant_margins: vec![1.0, 2.0],
            ..small_cfg().space
        },
        reprobe: ReprobeConfig {
            widen_factor: 2.0,
            max_widenings: 8,
            ..ReprobeConfig::default()
        },
        ..small_cfg()
    };
    let tuned = autotune_layer(&spec, &cfg).unwrap();
    let trail = tuned.reprobe_attempts.as_ref().expect("quantized backend");
    assert!(trail.len() > 1, "drift must force more than one attempt");
    assert!(
        trail[0].saturation_rate > 0.0,
        "the tightest margin must saturate on validation probes"
    );
    assert!(tuned.plan.quant_margin > 1.0, "accepted margin widened");
    assert_eq!(tuned.tuned_saturation_rate.unwrap(), 0.0, "ends clean");
}
