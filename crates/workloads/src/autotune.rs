//! Per-layer design-space autotuning of deployment plans.
//!
//! `compile_table4` ships the paper's hand-picked Table 4 settings; this
//! module *searches* instead. For one [`LayerSpec`] the tuner walks a
//! [`SearchSpace`] of candidate TT layouts (divisor-based mode splits of
//! the in/out dims via [`crate::factorize`]), rank budgets, SVD routes,
//! serving batch widths, and quant calibration margins, and emits the
//! winning knobs as a serializable [`DeploymentPlan`] the serving
//! registry loads directly (`EngineRegistry::insert_from_plan`).
//!
//! The search runs in three phases:
//!
//! 1. **Analytic enumeration** — every `(layout, rank)` candidate that
//!    fits the SRAM budgets ([`crate::factorize::fits_budget`]) is scored
//!    with the closed-form [`tie_core::CostModel`] at every serving batch
//!    width, with the stages run one after another as TIE runs them; only
//!    the best batch per layout survives. Thousands of candidates cost
//!    microseconds — no weights are touched.
//! 2. **Compile & gate** — the top-`k` surviving layouts (per SVD route)
//!    are actually TT-SVD-compiled, with wall-clock seconds measured and
//!    sampled reconstruction error checked against the default plan's
//!    error times [`TunerConfig::error_tolerance`]; candidates that lose
//!    accuracy (e.g. under-ranked layouts on planted-rank weights) or
//!    blow the optional [`TunerConfig::compile_budget_s`] are dropped.
//!    Survivors are re-scored on their **achieved** ranks (TT-SVD may
//!    come out below the cap), and the cheapest wins.
//! 3. **Quantized validation** — for a `Quantized` backend, the winner's
//!    calibration margin is chosen by walking the searched margins
//!    ascending against live measured saturation
//!    ([`tie_sim::quantize_with_reprobe`] on a held-out validation probe
//!    set); if even the widest searched margin drifts, the automatic
//!    widening ladder takes over. The plan records the margin that
//!    *validated*, not the one that was wished for.
//!
//! Everything is seed-deterministic: with `compile_budget_s = None`
//! (the default) the same spec and config produce the identical plan at
//! any worker-pool size — pinned by the tier-2 determinism suite.

use std::collections::BTreeSet;

use tie_core::{CostModel, DeploymentPlan, InferencePlan, PlanBackend};
use tie_serve::EngineRegistry;
use tie_sim::{quantize_with_reprobe, QuantConfig, ReprobeAttempt, ReprobeConfig, TieConfig};
use tie_tensor::linalg::{SvdMethod, Truncation};
use tie_tensor::{Result, Tensor, TensorError};
use tie_tt::{TtMatrix, TtShape};

use crate::benchmarks::{table4_layer_specs, LayerSpec};
use crate::compile::{compile_dense_layer, spec_weights, CompileOptions, ErrorCheck};
use crate::factorize::{fits_budget, propose_layouts, LayoutProposal};

/// The candidate axes the tuner enumerates. Empty layout/rank/SVD lists
/// mean "the spec's own setting only"; the knob lists always contain at
/// least the default serving point.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Candidate mode counts `d` for divisor-based re-factorization
    /// (empty ⇒ only the spec's own `d`). The spec's layout is always a
    /// candidate at its own `d`.
    pub dims: Vec<usize>,
    /// Balanced layout proposals taken per `(d, rank)` pair.
    pub layouts_per_dim: usize,
    /// Candidate uniform rank caps (empty ⇒ the spec's rank only).
    pub ranks: Vec<usize>,
    /// Serving batch widths to score.
    pub batch_sizes: Vec<usize>,
    /// SVD routes to compile the survivors with (empty ⇒ the default
    /// seeded [`SvdMethod`]).
    pub svd_methods: Vec<SvdMethod>,
    /// Datapath the emitted plan targets. `Quantized` adds phase 3.
    pub backend: PlanBackend,
    /// Quant calibration margins, walked ascending during validation
    /// (tightest clean margin wins LSB precision).
    pub quant_margins: Vec<f64>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            dims: Vec::new(),
            layouts_per_dim: 4,
            ranks: Vec::new(),
            batch_sizes: vec![1, 8, 16],
            svd_methods: Vec::new(),
            backend: PlanBackend::Quantized,
            quant_margins: vec![1.25, 1.5, 2.0],
        }
    }
}

/// Tuner configuration: the search space, the hardware model scoring it,
/// and the validation knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerConfig {
    /// The enumerated axes.
    pub space: SearchSpace,
    /// Hardware the plans are scored against (cost model geometry + SRAM
    /// feasibility budgets).
    pub hardware: TieConfig,
    /// Layout survivors compiled per SVD route in phase 2.
    pub top_k: usize,
    /// A candidate's sampled reconstruction error may exceed the default
    /// plan's by at most this factor.
    pub error_tolerance: f64,
    /// Sampled entries per reconstruction-error check.
    pub error_entries: usize,
    /// Seed of the error-sample positions.
    pub error_seed: u64,
    /// Validation/re-probe loop settings for `Quantized` plans.
    pub reprobe: ReprobeConfig,
    /// Base quantization config (formats, calibration probes); the
    /// searched margin overrides its `probe_margin`.
    pub quant: QuantConfig,
    /// Optional wall-clock cap per candidate compile, in seconds.
    /// Candidates that measured over budget are dropped. **Trades
    /// determinism for bounded tuning time** — leave `None` (default)
    /// when reproducible plans matter.
    pub compile_budget_s: Option<f64>,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            space: SearchSpace::default(),
            hardware: TieConfig::default(),
            top_k: 3,
            error_tolerance: 2.0,
            error_entries: 1 << 12,
            error_seed: 0x00C0_FFEE,
            reprobe: ReprobeConfig::default(),
            quant: QuantConfig::default(),
            compile_budget_s: None,
        }
    }
}

/// One compiled-and-gated candidate, for the audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateReport {
    /// The candidate layout (rank-capped request).
    pub shape: TtShape,
    /// SVD route it was compiled with.
    pub svd: SvdMethod,
    /// Best analytic cycles/sample over the batch widths (capped ranks).
    pub analytic_cycles_per_sample: f64,
    /// Cycles/sample re-scored on the achieved ranks (`None` if the
    /// candidate was dropped before/at compile).
    pub achieved_cycles_per_sample: Option<f64>,
    /// Measured compile seconds.
    pub compile_seconds: f64,
    /// Sampled relative reconstruction error.
    pub rel_error: Option<f64>,
    /// Why the candidate is out (`None` = survived).
    pub rejected: Option<String>,
}

/// The tuner's full result for one layer: the winning plan plus
/// everything needed to judge it against the default.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedLayer {
    /// The winning deployment plan.
    pub plan: DeploymentPlan,
    /// The spec's default plan (paper layout, batch 1, sequential) in the
    /// same format, for apples-to-apples comparison.
    pub default_plan: DeploymentPlan,
    /// Modeled cycles/sample of the default plan.
    pub default_cycles_per_sample: f64,
    /// Modeled cycles/sample of the tuned plan.
    pub tuned_cycles_per_sample: f64,
    /// Sampled reconstruction error of the default compile.
    pub default_error: Option<f64>,
    /// Sampled reconstruction error of the tuned compile.
    pub tuned_error: Option<f64>,
    /// Wall-clock seconds the winning candidate's compile took.
    pub compile_seconds: f64,
    /// Margin-validation trail of the tuned plan (`None` for `Float`).
    pub reprobe_attempts: Option<Vec<ReprobeAttempt>>,
    /// Measured saturation rate of the *default* plan's engine on the
    /// same validation probes (`None` for `Float`).
    pub default_saturation_rate: Option<f64>,
    /// Measured saturation rate of the tuned plan's engine.
    pub tuned_saturation_rate: Option<f64>,
    /// Phase-2 audit trail (compiled candidates, in rank order).
    pub candidates: Vec<CandidateReport>,
    /// Layout×batch combinations scored analytically in phase 1.
    pub candidates_scored: usize,
}

impl TunedLayer {
    /// Modeled speedup of the tuned plan over the default (> 1 = win).
    #[must_use]
    pub fn modeled_speedup(&self) -> f64 {
        self.default_cycles_per_sample / self.tuned_cycles_per_sample.max(f64::MIN_POSITIVE)
    }
}

fn invalid(message: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument {
        message: message.into(),
    }
}

/// Best `(cycles/sample, batch)` of one plan run sequentially (depth 1,
/// one chunk) over the batch widths — deterministic tie-break on list
/// order.
fn best_batch(model: &CostModel, plan: &InferencePlan, space: &SearchSpace) -> (f64, usize) {
    let mut best = (f64::INFINITY, 1);
    for &b in space.batch_sizes.iter().filter(|&&b| b > 0) {
        let cps = model.cycles_per_sample(plan, b, 1, 1);
        if cps < best.0 {
            best = (cps, b);
        }
    }
    best
}

/// Wraps a bare shape as a [`LayoutProposal`] (the spec's own layout
/// enters the pool through here).
fn proposal_of(shape: TtShape) -> Result<LayoutProposal> {
    let plan = InferencePlan::new(&shape)?;
    Ok(LayoutProposal {
        params: shape.num_params(),
        compression: shape.compression_ratio(),
        muls: plan.total_muls(),
        peak_intermediate: plan.max_intermediate_elems(),
        shape,
    })
}

/// One phase-1 survivor: a feasible layout with its best analytic
/// `(cycles/sample, batch)` over the batch widths.
type ScoredCandidate = (LayoutProposal, (f64, usize));

/// Phase 1: enumerate SRAM-feasible layout candidates and score each with
/// the analytic model over the batch widths. Returns candidates sorted
/// best first, plus the number of layout×batch points scored.
fn enumerate_candidates(
    spec: &LayerSpec,
    cfg: &TunerConfig,
) -> Result<(Vec<ScoredCandidate>, usize)> {
    let space = &cfg.space;
    let (rows, cols) = spec.size();
    let model = cfg.hardware.cost_model();
    let ranks: Vec<usize> = if space.ranks.is_empty() {
        vec![spec.rank]
    } else {
        space.ranks.clone()
    };
    let mut dims: Vec<usize> = if space.dims.is_empty() {
        vec![spec.row_modes.len()]
    } else {
        space.dims.clone()
    };
    dims.sort_unstable();
    dims.dedup();

    // Candidate pool: the spec's own layout (at every candidate rank) plus
    // balanced divisor-split proposals per (d, rank).
    let mut pool: Vec<LayoutProposal> = Vec::new();
    let mut seen: BTreeSet<(Vec<usize>, Vec<usize>, usize)> = BTreeSet::new();
    let mut push = |pool: &mut Vec<LayoutProposal>, p: LayoutProposal| {
        let max_rank = p.shape.ranks.iter().copied().max().unwrap_or(1);
        let key = (
            p.shape.row_modes.clone(),
            p.shape.col_modes.clone(),
            max_rank,
        );
        if seen.insert(key) {
            pool.push(p);
        }
    };
    for &rank in &ranks {
        push(
            &mut pool,
            proposal_of(TtShape::uniform_rank(
                spec.row_modes.clone(),
                spec.col_modes.clone(),
                rank,
            )?)?,
        );
        for &d in &dims {
            // A dim with no non-trivial d-factorization still yields the
            // padded-with-ones layout; propose_layouts errors only on
            // degenerate inputs, which a valid spec can't produce.
            for p in propose_layouts(rows, cols, d, rank, space.layouts_per_dim)? {
                push(&mut pool, p);
            }
        }
    }

    let mut scored = 0usize;
    let mut candidates = Vec::new();
    for p in pool {
        if !fits_budget(
            &p,
            cfg.hardware.weight_capacity_elems(),
            cfg.hardware.working_capacity_elems(),
            cfg.hardware.n_mac,
        ) {
            continue;
        }
        let plan = InferencePlan::new(&p.shape)?;
        scored += space.batch_sizes.len();
        let best = best_batch(&model, &plan, space);
        if best.0.is_finite() {
            candidates.push((p, best));
        }
    }
    if candidates.is_empty() {
        return Err(invalid(format!(
            "no SRAM-feasible layout candidate for layer `{}`",
            spec.name
        )));
    }
    // Deterministic order: analytic score, then pool insertion order
    // (stable sort).
    candidates.sort_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite scores"));
    Ok((candidates, scored))
}

/// Phase 3: margin selection against live saturation. Walks the searched
/// margins ascending with no widening; falls back to the automatic
/// widening ladder from the widest searched margin if none validates.
/// Returns the accepted engine's matrix-agnostic outcome: the margin, the
/// measured rate, and the full attempt trail.
fn validate_margins(
    matrix: &TtMatrix<f64>,
    spec: &LayerSpec,
    cfg: &TunerConfig,
) -> Result<(f64, f64, Vec<ReprobeAttempt>)> {
    let mut margins = cfg.space.quant_margins.clone();
    if margins.is_empty() {
        margins.push(cfg.quant.probe_margin);
    }
    margins.sort_by(|a, b| a.partial_cmp(b).expect("finite margins"));
    let mut trail: Vec<ReprobeAttempt> = Vec::new();
    for (i, &margin) in margins.iter().enumerate() {
        let last = i + 1 == margins.len();
        let probe = ReprobeConfig {
            // Searched margins are tried as-is; the widest one is allowed
            // to auto-widen (the re-probe ladder proper).
            max_widenings: if last { cfg.reprobe.max_widenings } else { 0 },
            ..cfg.reprobe
        };
        let (_, report) = quantize_with_reprobe(
            matrix,
            cfg.quant.with_probe_margin(margin),
            spec.activation,
            &probe,
        )?;
        trail.extend(report.attempts.iter().copied());
        let accepted = report.accepted();
        if accepted.saturation_rate <= cfg.reprobe.max_saturation_rate || last {
            return Ok((accepted.margin, accepted.saturation_rate, trail));
        }
    }
    unreachable!("the last margin always returns");
}

/// Measures one margin's live saturation rate without widening (used to
/// grade the *default* plan on the same validation probes the tuned plan
/// was accepted on).
fn measure_saturation(
    matrix: &TtMatrix<f64>,
    spec: &LayerSpec,
    cfg: &TunerConfig,
    margin: f64,
) -> Result<f64> {
    let probe = ReprobeConfig {
        max_widenings: 0,
        ..cfg.reprobe
    };
    let (_, report) = quantize_with_reprobe(
        matrix,
        cfg.quant.with_probe_margin(margin),
        spec.activation,
        &probe,
    )?;
    Ok(report.final_rate())
}

/// Runs the full three-phase search for one layer over its synthetic
/// weights ([`spec_weights`]). See the module docs for the phases.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when no candidate survives
/// (no feasible layout, or every compile failed the error gate), and
/// propagates compile/validation errors.
pub fn autotune_layer(spec: &LayerSpec, cfg: &TunerConfig) -> Result<TunedLayer> {
    let w = spec_weights(spec)?;
    autotune_layer_weights(spec, &w, cfg)
}

/// [`autotune_layer`] over caller-provided dense weights (the spec still
/// supplies the name, default layout, rank, and epilogue).
///
/// # Errors
///
/// As [`autotune_layer`].
pub fn autotune_layer_weights(
    spec: &LayerSpec,
    w: &Tensor<f64>,
    cfg: &TunerConfig,
) -> Result<TunedLayer> {
    let model = cfg.hardware.cost_model();
    let space = &cfg.space;
    let svd_methods: Vec<SvdMethod> = if space.svd_methods.is_empty() {
        vec![SvdMethod::default()]
    } else {
        space.svd_methods.clone()
    };
    let error_check = ErrorCheck::Sampled {
        entries: cfg.error_entries,
        seed: cfg.error_seed,
    };

    // ----- The default (reference) compile: the spec's own setting. -----
    let default_opts = CompileOptions {
        method: svd_methods[0],
        error_check,
    };
    let default_compiled =
        compile_dense_layer(spec.name, w, &spec.shape(), spec.paper_cr, &default_opts)?;
    let default_shape = default_compiled.engine.matrix().shape().clone();
    let default_cps = model.cycles_per_sample(default_compiled.engine.plan(), 1, 1, 1);
    let default_margin = cfg.quant.probe_margin;
    let default_plan = DeploymentPlan {
        layer: spec.name.to_string(),
        shape: default_shape,
        svd: svd_methods[0],
        backend: space.backend,
        batch: 1,
        activation: spec.activation,
        quant_margin: default_margin,
        modeled_cycles_per_sample: default_cps,
    };
    let error_gate = default_compiled
        .report
        .rel_error
        .map(|e| (e * cfg.error_tolerance).max(1e-12));

    // ----- Phase 1: analytic enumeration. -----
    let (candidates, candidates_scored) = enumerate_candidates(spec, cfg)?;

    // ----- Phase 2: compile the top-k survivors, gate, re-score. -----
    struct Winner {
        matrix: TtMatrix<f64>,
        cps: f64,
        batch: usize,
        svd: SvdMethod,
        seconds: f64,
        rel_error: Option<f64>,
    }
    let mut reports: Vec<CandidateReport> = Vec::new();
    let mut winner: Option<Winner> = None;
    for (compiled_count, (proposal, (analytic_cps, b))) in candidates.into_iter().enumerate() {
        // Compile the analytic top-k; keep descending past k only while
        // every compiled candidate has been rejected (the gate must never
        // leave the tuner empty-handed when a feasible candidate exists).
        if compiled_count >= cfg.top_k.max(1) && winner.is_some() {
            break;
        }
        for &svd in &svd_methods {
            let max_rank = proposal.shape.ranks.iter().copied().max().unwrap_or(1);
            let t0 = std::time::Instant::now();
            let compiled = TtMatrix::from_dense_with(
                w,
                &proposal.shape.row_modes,
                &proposal.shape.col_modes,
                Truncation::rank(max_rank),
                svd,
            );
            let seconds = t0.elapsed().as_secs_f64();
            let mut report = CandidateReport {
                shape: proposal.shape.clone(),
                svd,
                analytic_cycles_per_sample: analytic_cps,
                achieved_cycles_per_sample: None,
                compile_seconds: seconds,
                rel_error: None,
                rejected: None,
            };
            let matrix = match compiled {
                Ok(m) => m,
                Err(e) => {
                    report.rejected = Some(format!("compile failed: {e}"));
                    reports.push(report);
                    continue;
                }
            };
            // Grade the matrix we already have — no recompile.
            let rel_error = match sampled_error(w, &matrix, cfg) {
                Ok(e) => Some(e),
                Err(e) => {
                    report.rejected = Some(format!("error check failed: {e}"));
                    reports.push(report);
                    continue;
                }
            };
            report.rel_error = rel_error;
            if let (Some(gate), Some(err)) = (error_gate, rel_error) {
                if err > gate {
                    report.rejected = Some(format!(
                        "reconstruction error {err:.3e} over gate {gate:.3e}"
                    ));
                    reports.push(report);
                    continue;
                }
            }
            if let Some(budget) = cfg.compile_budget_s {
                if seconds > budget {
                    report.rejected = Some(format!(
                        "compile took {seconds:.2}s, over budget {budget:.2}s"
                    ));
                    reports.push(report);
                    continue;
                }
            }
            // Re-score on the achieved ranks.
            let achieved_plan = InferencePlan::new(matrix.shape())?;
            let cps = model.cycles_per_sample(&achieved_plan, b, 1, 1);
            report.achieved_cycles_per_sample = Some(cps);
            reports.push(report);
            let better = winner.as_ref().is_none_or(|best| cps < best.cps);
            if better {
                winner = Some(Winner {
                    matrix,
                    cps,
                    batch: b,
                    svd,
                    seconds,
                    rel_error,
                });
            }
        }
    }
    let winner = winner.ok_or_else(|| {
        invalid(format!(
            "every compiled candidate for `{}` was rejected: {:?}",
            spec.name,
            reports
                .iter()
                .filter_map(|r| r.rejected.clone())
                .collect::<Vec<_>>()
        ))
    })?;

    // ----- Phase 3: quantized margin validation (live saturation). -----
    let (quant_margin, tuned_rate, trail, default_rate) = match space.backend {
        PlanBackend::Float => (default_margin, None, None, None),
        PlanBackend::Quantized => {
            let (margin, rate, trail) = validate_margins(&winner.matrix, spec, cfg)?;
            let default_rate =
                measure_saturation(default_compiled.engine.matrix(), spec, cfg, default_margin)?;
            (margin, Some(rate), Some(trail), Some(default_rate))
        }
    };

    let plan = DeploymentPlan {
        layer: spec.name.to_string(),
        shape: winner.matrix.shape().clone(),
        svd: winner.svd,
        backend: space.backend,
        batch: winner.batch,
        activation: spec.activation,
        quant_margin,
        modeled_cycles_per_sample: winner.cps,
    };
    plan.validate()?;
    Ok(TunedLayer {
        plan,
        default_plan,
        default_cycles_per_sample: default_cps,
        tuned_cycles_per_sample: winner.cps,
        default_error: default_compiled.report.rel_error,
        tuned_error: winner.rel_error,
        compile_seconds: winner.seconds,
        reprobe_attempts: trail,
        default_saturation_rate: default_rate,
        tuned_saturation_rate: tuned_rate,
        candidates: reports,
        candidates_scored,
    })
}

/// Sampled relative reconstruction error of an already-compiled TT matrix
/// (the phase-2 gate; same estimator as [`ErrorCheck::Sampled`]).
fn sampled_error(w: &Tensor<f64>, ttm: &TtMatrix<f64>, cfg: &TunerConfig) -> Result<f64> {
    use rand::{Rng, SeedableRng};
    let (rows, cols) = (w.nrows()?, w.ncols()?);
    if cfg.error_entries == 0 {
        return Err(invalid("sampled error check needs at least one entry"));
    }
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.error_seed);
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for _ in 0..cfg.error_entries {
        let i = rng.gen_range(0..rows);
        let j = rng.gen_range(0..cols);
        let dense = w.data()[i * cols + j];
        let diff = dense - ttm.get(i, j)?;
        num += diff * diff;
        den += dense * dense;
    }
    Ok((num / den.max(f64::MIN_POSITIVE)).sqrt())
}

/// Autotunes every Table 4 layer ([`table4_layer_specs`]).
///
/// # Errors
///
/// As [`autotune_layer`], per layer.
pub fn autotune_table4(cfg: &TunerConfig) -> Result<Vec<TunedLayer>> {
    table4_layer_specs()
        .iter()
        .map(|spec| autotune_layer(spec, cfg))
        .collect()
}

/// Compiles the TT matrix a [`DeploymentPlan`] describes from dense
/// weights: TT-SVD at the plan's layout, rank cap, and SVD route.
///
/// # Errors
///
/// Propagates factorization-mismatch and SVD errors.
pub fn compile_plan_matrix(plan: &DeploymentPlan, w: &Tensor<f64>) -> Result<TtMatrix<f64>> {
    let max_rank = plan.shape.ranks.iter().copied().max().unwrap_or(1);
    TtMatrix::from_dense_with(
        w,
        &plan.shape.row_modes,
        &plan.shape.col_modes,
        Truncation::rank(max_rank),
        plan.svd,
    )
}

/// Builds a serving registry from deployment plans: for each plan, find
/// its [`LayerSpec`] by name, synthesize the spec's weights, compile the
/// plan's layout ([`compile_plan_matrix`]) and register the sequential
/// engine the plan's backend and epilogue describe
/// (`EngineRegistry::insert_from_plan`). This is the load path a tuned
/// deployment ships with — no search re-run, just plan + weights.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when a plan names a layer the
/// spec table doesn't have, and propagates compile errors.
pub fn registry_from_plans(
    plans: &[DeploymentPlan],
    specs: &[LayerSpec],
    quant: QuantConfig,
) -> Result<EngineRegistry> {
    let mut registry = EngineRegistry::new();
    for plan in plans {
        let spec = specs
            .iter()
            .find(|s| s.name == plan.layer)
            .ok_or_else(|| invalid(format!("no layer spec named `{}`", plan.layer)))?;
        let w = spec_weights(spec)?;
        let matrix = compile_plan_matrix(plan, &w)?;
        registry.insert_from_plan(plan, matrix, quant)?;
    }
    Ok(registry)
}

/// One-command tuned Table 4 deployment: search every layer, then build
/// the registry the winning plans describe. Returns the registry and the
/// per-layer tuning results (whose `plan`s serialize via
/// [`tie_core::plans_to_json`]).
///
/// # Errors
///
/// As [`autotune_table4`] and [`registry_from_plans`].
pub fn tuned_table4_registry(cfg: &TunerConfig) -> Result<(EngineRegistry, Vec<TunedLayer>)> {
    let tuned = autotune_table4(cfg)?;
    let plans: Vec<DeploymentPlan> = tuned.iter().map(|t| t.plan.clone()).collect();
    let registry = registry_from_plans(&plans, &table4_layer_specs(), cfg.quant)?;
    Ok((registry, tuned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Task;
    use tie_core::Activation;

    /// A compile-in-milliseconds layer with planted rank 2: rank-1
    /// candidates must fail the error gate, rank-2 candidates must pass.
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

    fn fast_cfg() -> TunerConfig {
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

    #[test]
    fn tuned_plan_beats_the_default_on_modeled_cycles() {
        let tuned = autotune_layer(&small_spec(), &fast_cfg()).unwrap();
        assert!(
            tuned.tuned_cycles_per_sample < tuned.default_cycles_per_sample,
            "tuned {} vs default {}",
            tuned.tuned_cycles_per_sample,
            tuned.default_cycles_per_sample
        );
        assert!(tuned.modeled_speedup() > 1.0);
        // The searched batch actually moved off the default point.
        assert!(tuned.plan.batch > 1);
        assert!(tuned.candidates_scored > 0);
        // Plan JSON round-trips bit-identically.
        let back = DeploymentPlan::from_json(&tuned.plan.to_json()).unwrap();
        assert_eq!(back, tuned.plan);
    }

    #[test]
    fn error_gate_rejects_under_ranked_candidates() {
        let spec = small_spec();
        let cfg = TunerConfig {
            space: SearchSpace {
                ranks: vec![1, 2],
                ..fast_cfg().space
            },
            ..fast_cfg()
        };
        let tuned = autotune_layer(&spec, &cfg).unwrap();
        // Planted rank is 2: some rank-1 candidate must have been compiled
        // and rejected for accuracy, and the winner must keep rank 2.
        assert!(
            tuned
                .candidates
                .iter()
                .any(|c| c.rejected.as_deref().is_some_and(|r| r.contains("error"))),
            "expected an accuracy rejection: {:?}",
            tuned.candidates
        );
        assert_eq!(
            tuned.plan.shape.ranks.iter().copied().max().unwrap(),
            2,
            "winner must keep the planted rank"
        );
    }

    #[test]
    fn quantized_validation_reports_saturation_and_margin() {
        let tuned = autotune_layer(&small_spec(), &fast_cfg()).unwrap();
        let trail = tuned.reprobe_attempts.as_ref().unwrap();
        assert!(!trail.is_empty());
        let tuned_rate = tuned.tuned_saturation_rate.unwrap();
        let default_rate = tuned.default_saturation_rate.unwrap();
        assert!(
            tuned_rate <= default_rate,
            "tuned saturation {tuned_rate} must not exceed default {default_rate}"
        );
        // The accepted margin is one the trail actually measured.
        assert!(trail.iter().any(|a| a.margin == tuned.plan.quant_margin));
    }

    #[test]
    fn reprobe_ladder_is_exercised_on_saturation_drift() {
        // Calibrate far too tight: tiny probe amplitude with margin 1.0
        // while validation probes run at amplitude 1.0 — the first
        // searched margins must drift and the trail must widen.
        let spec = small_spec();
        let cfg = TunerConfig {
            quant: QuantConfig {
                probe_amplitude: 0.05,
                ..QuantConfig::default()
            },
            space: SearchSpace {
                quant_margins: vec![1.0, 2.0],
                ..fast_cfg().space
            },
            reprobe: ReprobeConfig {
                widen_factor: 2.0,
                max_widenings: 8,
                ..ReprobeConfig::default()
            },
            ..fast_cfg()
        };
        let tuned = autotune_layer(&spec, &cfg).unwrap();
        let trail = tuned.reprobe_attempts.as_ref().unwrap();
        assert!(
            trail.len() > 1,
            "drift must force more than one attempt: {trail:?}"
        );
        assert!(trail[0].saturation_rate > 0.0, "first margin must drift");
        assert!(
            tuned.plan.quant_margin > 1.0,
            "accepted margin must have widened: {}",
            tuned.plan.quant_margin
        );
        assert_eq!(tuned.tuned_saturation_rate.unwrap(), 0.0);
    }

    #[test]
    fn float_backend_skips_quant_validation() {
        let cfg = TunerConfig {
            space: SearchSpace {
                backend: PlanBackend::Float,
                ..fast_cfg().space
            },
            ..fast_cfg()
        };
        let tuned = autotune_layer(&small_spec(), &cfg).unwrap();
        assert!(tuned.reprobe_attempts.is_none());
        assert!(tuned.tuned_saturation_rate.is_none());
        assert_eq!(tuned.plan.backend, PlanBackend::Float);
    }

    #[test]
    fn tuned_registry_serves_the_plan_backends() {
        let spec = small_spec();
        let cfg = fast_cfg();
        let tuned = autotune_layer(&spec, &cfg).unwrap();
        let registry = registry_from_plans(
            std::slice::from_ref(&tuned.plan),
            std::slice::from_ref(&spec),
            cfg.quant,
        )
        .unwrap();
        assert_eq!(registry.names(), vec!["tiny-fc".to_string()]);
        assert!(registry.get_quantized("tiny-fc").is_some());
        assert!(registry.get_pipelined("tiny-fc").is_none());
        // Unknown plan names are rejected.
        let mut stray = tuned.plan.clone();
        stray.layer = "nope".into();
        assert!(registry_from_plans(&[stray], &[spec], cfg.quant).is_err());
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = small_spec();
        let cfg = fast_cfg();
        let a = autotune_layer(&spec, &cfg).unwrap();
        let b = autotune_layer(&spec, &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.plan.to_json(), b.plan.to_json());
    }
}
