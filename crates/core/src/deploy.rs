//! Serializable per-layer deployment plans.
//!
//! A [`DeploymentPlan`] is the autotuner's output and the serving layer's
//! input: everything needed to reconstruct a layer's engine exactly — the
//! searched TT factorization and rank budget, the SVD route used to
//! compile it, the datapath backend, the serving batch width, the fused
//! epilogue, and the quantization calibration margin. A plan's stages run
//! one after another, as TIE runs Algorithm 1's stages on one PE array.
//! Plans render to JSON through the in-tree serializer and parse back
//! **bit-identically** (floats round-trip exactly; see the vendored
//! `serde_json` docs), so a tuned deployment can be pinned as a fixture,
//! diffed in review, and loaded by `tie-serve`'s registry without
//! re-running the search.

use tie_tensor::linalg::{RsvdParams, SvdMethod};
use tie_tensor::tile::Activation;
use tie_tensor::{Result, TensorError};
use tie_tt::TtShape;

use serde::{Serialize, Value};

/// Which datapath executes the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanBackend {
    /// The float compact engine (`CompactEngine<f64>`).
    Float,
    /// The bit-accurate 16-bit fixed-point engine (`QuantizedEngine`).
    Quantized,
}

/// One layer's complete deployment decision. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Layer name (the registry key).
    pub layer: String,
    /// The searched TT layout: mode factorizations and achieved ranks.
    pub shape: TtShape,
    /// SVD route the compile used (seed-carrying, so recompiles are
    /// bit-identical).
    pub svd: SvdMethod,
    /// Datapath backend.
    pub backend: PlanBackend,
    /// Serving batch width the plan was scored at.
    pub batch: usize,
    /// Activation fused into the final stage's write epilogue.
    pub activation: Activation,
    /// Headroom multiplier for quantized activation-format calibration
    /// (the re-probe loop may have widened it from the searched value).
    pub quant_margin: f64,
    /// Modeled cycles per sample at the plan's batch — the score
    /// that won the search (informational; re-derivable from the shape).
    pub modeled_cycles_per_sample: f64,
}

fn invalid(message: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument {
        message: message.into(),
    }
}

fn usizes(v: &[usize]) -> Value {
    Value::Array(v.iter().map(|&x| Value::UInt(x as u64)).collect())
}

fn svd_value(svd: &SvdMethod) -> Value {
    match svd {
        SvdMethod::Auto { seed } => Value::Object(vec![
            ("method".into(), Value::String("auto".into())),
            ("seed".into(), Value::UInt(*seed)),
        ]),
        SvdMethod::Jacobi => Value::Object(vec![("method".into(), Value::String("jacobi".into()))]),
        SvdMethod::Randomized(p) => Value::Object(vec![
            ("method".into(), Value::String("randomized".into())),
            ("seed".into(), Value::UInt(p.seed)),
            ("oversample".into(), Value::UInt(p.oversample as u64)),
            ("power_iters".into(), Value::UInt(p.power_iters as u64)),
        ]),
    }
}

impl Serialize for DeploymentPlan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("layer".into(), Value::String(self.layer.clone())),
            ("row_modes".into(), usizes(&self.shape.row_modes)),
            ("col_modes".into(), usizes(&self.shape.col_modes)),
            ("ranks".into(), usizes(&self.shape.ranks)),
            ("svd".into(), svd_value(&self.svd)),
            (
                "backend".into(),
                Value::String(
                    match self.backend {
                        PlanBackend::Float => "float",
                        PlanBackend::Quantized => "quantized",
                    }
                    .into(),
                ),
            ),
            ("batch".into(), Value::UInt(self.batch as u64)),
            (
                "activation".into(),
                Value::String(
                    match self.activation {
                        Activation::Identity => "identity",
                        Activation::Relu => "relu",
                    }
                    .into(),
                ),
            ),
            ("quant_margin".into(), Value::Float(self.quant_margin)),
            (
                "modeled_cycles_per_sample".into(),
                Value::Float(self.modeled_cycles_per_sample),
            ),
        ])
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| invalid(format!("deployment plan missing field `{key}`")))
}

fn parse_usize(v: &Value, key: &str) -> Result<usize> {
    field(v, key)?
        .as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| invalid(format!("field `{key}` must be an unsigned integer")))
}

fn parse_f64(v: &Value, key: &str) -> Result<f64> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| invalid(format!("field `{key}` must be a number")))
}

fn parse_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| invalid(format!("field `{key}` must be a string")))
}

fn parse_usizes(v: &Value, key: &str) -> Result<Vec<usize>> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| invalid(format!("field `{key}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| invalid(format!("field `{key}` must hold unsigned integers")))
        })
        .collect()
}

fn parse_svd(v: &Value) -> Result<SvdMethod> {
    let svd = field(v, "svd")?;
    match parse_str(svd, "method")? {
        "auto" => Ok(SvdMethod::Auto {
            seed: field(svd, "seed")?
                .as_u64()
                .ok_or_else(|| invalid("svd seed must be an unsigned integer"))?,
        }),
        "jacobi" => Ok(SvdMethod::Jacobi),
        "randomized" => Ok(SvdMethod::Randomized(RsvdParams {
            seed: field(svd, "seed")?
                .as_u64()
                .ok_or_else(|| invalid("svd seed must be an unsigned integer"))?,
            oversample: parse_usize(svd, "oversample")?,
            power_iters: parse_usize(svd, "power_iters")?,
        })),
        other => Err(invalid(format!("unknown svd method `{other}`"))),
    }
}

impl DeploymentPlan {
    /// Renders the plan as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    /// Reconstructs a plan from a parsed JSON [`Value`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for missing/ill-typed
    /// fields or an invalid TT layout.
    pub fn from_value(v: &Value) -> Result<Self> {
        let shape = TtShape::new(
            parse_usizes(v, "row_modes")?,
            parse_usizes(v, "col_modes")?,
            parse_usizes(v, "ranks")?,
        )?;
        let backend = match parse_str(v, "backend")? {
            "float" => PlanBackend::Float,
            "quantized" => PlanBackend::Quantized,
            other => return Err(invalid(format!("unknown backend `{other}`"))),
        };
        let activation = match parse_str(v, "activation")? {
            "identity" => Activation::Identity,
            "relu" => Activation::Relu,
            other => return Err(invalid(format!("unknown activation `{other}`"))),
        };
        let plan = DeploymentPlan {
            layer: parse_str(v, "layer")?.to_string(),
            shape,
            svd: parse_svd(v)?,
            backend,
            batch: parse_usize(v, "batch")?,
            activation,
            quant_margin: parse_f64(v, "quant_margin")?,
            modeled_cycles_per_sample: parse_f64(v, "modeled_cycles_per_sample")?,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Parses a plan from JSON text (inverse of [`DeploymentPlan::to_json`],
    /// bit-identical for every finite float).
    ///
    /// # Errors
    ///
    /// As [`DeploymentPlan::from_value`], plus JSON syntax errors.
    pub fn from_json(text: &str) -> Result<Self> {
        let v = serde_json::from_str(text).map_err(|e| invalid(e.to_string()))?;
        Self::from_value(&v)
    }

    /// Structural sanity of the knob values (the [`TtShape`] validates
    /// itself at construction).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero batch or a
    /// non-positive quantization margin.
    pub fn validate(&self) -> Result<()> {
        if self.layer.is_empty() {
            return Err(invalid("deployment plan needs a layer name"));
        }
        if self.batch == 0 {
            return Err(invalid("batch must be at least 1"));
        }
        if !(self.quant_margin > 0.0 && self.quant_margin.is_finite()) {
            return Err(invalid("quant_margin must be positive and finite"));
        }
        Ok(())
    }
}

/// Renders a whole deployment (one plan per layer) as a JSON array.
#[must_use]
pub fn plans_to_json(plans: &[DeploymentPlan]) -> String {
    serde_json::to_string_pretty(&Value::Array(
        plans.iter().map(Serialize::to_value).collect(),
    ))
    .expect("plan serialization is infallible")
}

/// Parses a deployment back from [`plans_to_json`] output.
///
/// # Errors
///
/// As [`DeploymentPlan::from_json`].
pub fn plans_from_json(text: &str) -> Result<Vec<DeploymentPlan>> {
    let v = serde_json::from_str(text).map_err(|e| invalid(e.to_string()))?;
    v.as_array()
        .ok_or_else(|| invalid("deployment file must be a JSON array of plans"))?
        .iter()
        .map(DeploymentPlan::from_value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> DeploymentPlan {
        DeploymentPlan {
            layer: "VGG-FC7".into(),
            shape: TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap(),
            svd: SvdMethod::Auto { seed: 0x5EED },
            backend: PlanBackend::Quantized,
            batch: 16,
            activation: Activation::Relu,
            quant_margin: 1.5,
            modeled_cycles_per_sample: 336.25,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let plan = sample_plan();
        let back = DeploymentPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(
            back.quant_margin.to_bits(),
            plan.quant_margin.to_bits(),
            "floats must survive bit-for-bit"
        );
    }

    #[test]
    fn round_trips_every_svd_method_and_backend() {
        for svd in [
            SvdMethod::Jacobi,
            SvdMethod::Auto { seed: 7 },
            SvdMethod::Randomized(RsvdParams {
                seed: 9,
                oversample: 5,
                power_iters: 3,
            }),
        ] {
            for backend in [PlanBackend::Float, PlanBackend::Quantized] {
                for activation in [Activation::Identity, Activation::Relu] {
                    let plan = DeploymentPlan {
                        svd,
                        backend,
                        activation,
                        ..sample_plan()
                    };
                    assert_eq!(DeploymentPlan::from_json(&plan.to_json()).unwrap(), plan);
                }
            }
        }
    }

    #[test]
    fn plan_arrays_round_trip() {
        let plans = vec![
            sample_plan(),
            DeploymentPlan {
                layer: "LSTM-UCF11".into(),
                shape: TtShape::uniform_rank(vec![4; 4], vec![8, 20, 20, 18], 4).unwrap(),
                backend: PlanBackend::Float,
                ..sample_plan()
            },
        ];
        let back = plans_from_json(&plans_to_json(&plans)).unwrap();
        assert_eq!(back, plans);
    }

    #[test]
    fn older_pipeline_keys_are_ignored() {
        let text = sample_plan().to_json().replace(
            "\"batch\": 16,",
            "\"batch\": 16, \"pipeline_depth\": 4, \"micro_batch\": 1,",
        );
        assert!(text.contains("pipeline_depth"));
        assert_eq!(DeploymentPlan::from_json(&text).unwrap(), sample_plan());
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(DeploymentPlan::from_json("not json").is_err());
        assert!(DeploymentPlan::from_json("{}").is_err());
        // Structurally valid JSON, semantically invalid knobs.
        let mut plan = sample_plan();
        plan.batch = 0;
        assert!(DeploymentPlan::from_json(&plan.to_json()).is_err());
        let mut plan = sample_plan();
        plan.quant_margin = 0.0;
        assert!(DeploymentPlan::from_json(&plan.to_json()).is_err());
        // Unknown backend string.
        let text = sample_plan().to_json().replace("quantized", "analog");
        assert!(DeploymentPlan::from_json(&text).is_err());
    }
}
