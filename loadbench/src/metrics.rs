//! The metrics a run reports, and the one-line JSON result.
//!
//! The names and units here must equal those `BENCHMARK.json` declares;
//! a test checks that they do.

use serde_json::Value;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn decl(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: &[Decl] = &[
    decl("setup_s", "s"),
    decl("setup_heap_mib", "MiB"),
    decl("latency_p50_ms", "ms"),
    decl("heavy_latency_p50_ms", "ms"),
    decl("slo_attainment", "fraction"),
];

/// Per-layer metrics, printed by traced runs.
pub const PER_LAYER: &[Decl] = &[
    decl("serve.throughput_rps", "req/s"),
    decl("serve.submit_p50_us", "us"),
    decl("serve.submit_p99_us", "us"),
    decl("serve.service_p50_ms", "ms"),
    decl("serve.delivery_p50_us", "us"),
    decl("serve.overhead_p50_us", "us"),
    decl("serve.batch_mean", "count"),
    decl("serve.full_batch_share", "fraction"),
    decl("serve.deadline_batch_share", "fraction"),
    decl("serve.start_s", "s"),
    decl("engine.b1_us", "us"),
    decl("engine.b16_us", "us"),
    decl("engine.gflops_b16", "GFLOP/s"),
    decl("engine.non_gemm_b16_us", "us"),
    decl("engine.load", "ratio"),
    decl("engine.bytes_moved_per_sample", "B"),
    decl("gemm.b16_us", "us"),
    decl("gemm.gflops_b16", "GFLOP/s"),
    decl("model.kcycles_per_sample_b16", "count"),
    decl("model.us_per_kcycle", "us"),
    decl("pipeline.stall_fraction", "fraction"),
    decl("quant.saturation_rate", "fraction"),
    decl("quant.output_rel_err", "ratio"),
    decl("compile.s", "s"),
    decl("compile.rel_error", "ratio"),
    decl("quant.calibrate_s", "s"),
    decl("bench.gen_lag_p99_us", "us"),
    decl("bench.weights_s", "s"),
    decl("bench.trace_overhead", "ratio"),
    decl("bench.steal_share", "fraction"),
];

/// Measured values keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every recorded value as `{"name": value, …}`.
    #[must_use]
    pub fn to_object(&self) -> Value {
        Value::Object(
            self.0
                .iter()
                .map(|(n, v)| ((*n).to_string(), Value::Float(*v)))
                .collect(),
        )
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `decls`, in their order.
    ///
    /// # Errors
    ///
    /// Names a declared metric the run did not measure.
    pub fn to_json(&self, decls: &[Decl]) -> Result<Value, String> {
        decls
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                Ok((
                    d.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(v)),
                        ("unit".into(), Value::String(d.unit.into())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Value::Object)
    }
}

/// The benchmark definition at the repository root, compiled in so the
/// repeat mode and the tests see the bounds this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn definition() -> Result<Value, String> {
    serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures, and the
/// default of `--seconds`.
///
/// # Errors
///
/// Reports a malformed `BENCHMARK.json`.
pub fn run_seconds() -> Result<f64, String> {
    definition()?
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
///
/// # Errors
///
/// Reports a malformed `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    definition()?
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]))
    .expect("rendering a value tree cannot fail")
}
