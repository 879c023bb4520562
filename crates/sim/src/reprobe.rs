//! Saturation-validated quantized construction: the margin re-probe loop.
//!
//! One-shot calibration ([`crate::QuantConfig::calibrate_activations`])
//! chooses activation formats from a seeded probe set scaled by
//! `QuantConfig::probe_margin`. That margin is a bet: inputs the probes
//! never saw may still overflow the chosen formats, and the only honest
//! check is to *measure* saturation on a **distinct** validation probe set
//! (different seed than calibration, so the engine is never graded on its
//! own training data). [`quantize_with_reprobe`] closes the loop: build
//! the engine at the requested margin, measure the live
//! `QMatmulReport::saturation_rate` over the validation set, and — on
//! drift above the acceptance threshold — rebuild with a widened margin,
//! up to a bounded ladder. Every attempt is logged in the returned
//! [`ReprobeReport`], so deployment plans record the margin that actually
//! shipped, not the one that was asked for.
//!
//! Widening trades LSB precision for headroom (one widening step costs
//! `log2(widen_factor)` bits of the 16-bit depth), so the loop stops at
//! the **first** margin that passes — tightest format that is clean under
//! validation.

use crate::accelerator::probe_vectors;
use crate::config::QuantConfig;
use crate::qengine::QuantizedEngine;
use tie_core::Activation;
use tie_quant::QMatmulReport;
use tie_tensor::{Result, TensorError};
use tie_tt::TtMatrix;

/// Knobs of the validation/re-probe loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReprobeConfig {
    /// Seed of the validation probe set. Must differ from the calibration
    /// `probe_seed` — [`quantize_with_reprobe`] rejects a collision.
    pub validation_seed: u64,
    /// Validation vectors traced per attempt.
    pub validation_count: usize,
    /// Max-abs of validation probe components. Push it **above** the
    /// calibration `probe_amplitude` to model inputs hotter than the
    /// calibration data.
    pub validation_amplitude: f64,
    /// Acceptable measured saturation rate (events per output element).
    /// 0.0 demands a fully clean validation pass.
    pub max_saturation_rate: f64,
    /// Multiplier applied to the margin on each failed attempt (> 1).
    pub widen_factor: f64,
    /// Re-probe attempts after the first (bounds the ladder; the final
    /// attempt's engine is returned even if it still drifts).
    pub max_widenings: usize,
}

impl Default for ReprobeConfig {
    fn default() -> Self {
        ReprobeConfig {
            validation_seed: 0x7a11_da7e,
            validation_count: 8,
            validation_amplitude: 1.0,
            max_saturation_rate: 0.0,
            widen_factor: 1.6,
            max_widenings: 4,
        }
    }
}

/// One attempt of the re-probe ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReprobeAttempt {
    /// Margin the engine was calibrated with.
    pub margin: f64,
    /// Measured saturation rate over the validation set.
    pub saturation_rate: f64,
    /// The raw saturation counters behind the rate.
    pub report: QMatmulReport,
}

/// The audit trail of one [`quantize_with_reprobe`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReprobeReport {
    /// Every attempt, in ladder order (first entry = requested margin).
    pub attempts: Vec<ReprobeAttempt>,
}

impl ReprobeReport {
    /// The attempt whose engine was returned (always the last).
    #[must_use]
    pub fn accepted(&self) -> &ReprobeAttempt {
        self.attempts
            .last()
            .expect("at least one attempt always runs")
    }

    /// Margin of the shipped engine.
    #[must_use]
    pub fn final_margin(&self) -> f64 {
        self.accepted().margin
    }

    /// Measured saturation rate of the shipped engine.
    #[must_use]
    pub fn final_rate(&self) -> f64 {
        self.accepted().saturation_rate
    }

    /// True when the requested margin drifted and had to be widened.
    #[must_use]
    pub fn widened(&self) -> bool {
        self.attempts.len() > 1
    }

    /// True when even the last ladder step still exceeded the threshold
    /// (the caller may want to fall back to the float backend).
    #[must_use]
    pub fn exhausted(&self, cfg: &ReprobeConfig) -> bool {
        self.final_rate() > cfg.max_saturation_rate
    }
}

/// Measures the engine's saturation rate over a seeded validation set
/// run as one batch (batching is bit-identical to per-sample runs under
/// one-shot calibration).
fn validation_rate(engine: &QuantizedEngine, cfg: &ReprobeConfig) -> Result<QMatmulReport> {
    let n = engine.num_cols();
    let b = cfg.validation_count;
    let probes = probe_vectors(cfg.validation_seed, b, n, cfg.validation_amplitude)?;
    // Row-major N × b, batch inner-most.
    let mut xs = vec![0.0f64; n * b];
    for (s, p) in probes.iter().enumerate() {
        for (i, &v) in p.data().iter().enumerate() {
            xs[i * b + s] = v;
        }
    }
    let mut ys = vec![0.0f64; engine.num_rows() * b];
    engine.matvec_batch_into(&xs, b, &mut ys)
}

/// Builds a [`QuantizedEngine`] whose one-shot calibration is validated
/// against live saturation measurement, widening the probe margin on
/// drift. See the module docs for the loop contract.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for a degenerate
/// [`ReprobeConfig`] (no probes, non-positive threshold geometry,
/// `widen_factor ≤ 1`, or a validation seed equal to the calibration
/// seed), and propagates construction/execution errors.
pub fn quantize_with_reprobe(
    matrix: &TtMatrix<f64>,
    quant: QuantConfig,
    activation: Activation,
    cfg: &ReprobeConfig,
) -> Result<(QuantizedEngine, ReprobeReport)> {
    if cfg.validation_count == 0 {
        return Err(TensorError::InvalidArgument {
            message: "re-probe needs at least one validation vector".into(),
        });
    }
    if cfg.validation_seed == quant.probe_seed {
        return Err(TensorError::InvalidArgument {
            message: "validation probes must use a different seed than calibration".into(),
        });
    }
    if !(cfg.widen_factor > 1.0 && cfg.widen_factor.is_finite()) {
        return Err(TensorError::InvalidArgument {
            message: format!("widen_factor must exceed 1, got {}", cfg.widen_factor),
        });
    }
    if cfg.max_saturation_rate.is_nan() || cfg.max_saturation_rate < 0.0 {
        return Err(TensorError::InvalidArgument {
            message: "max_saturation_rate must be non-negative".into(),
        });
    }

    let mut margin = quant.probe_margin;
    let mut attempts = Vec::with_capacity(1 + cfg.max_widenings);
    loop {
        let engine = QuantizedEngine::new(matrix.clone(), quant.with_probe_margin(margin))?
            .with_activation(activation);
        let report = validation_rate(&engine, cfg)?;
        let rate = report.saturation_rate();
        attempts.push(ReprobeAttempt {
            margin,
            saturation_rate: rate,
            report,
        });
        if rate <= cfg.max_saturation_rate || attempts.len() > cfg.max_widenings {
            return Ok((engine, ReprobeReport { attempts }));
        }
        margin *= cfg.widen_factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tt::TtShape;

    fn layer() -> TtMatrix<f64> {
        let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        TtMatrix::random(&mut rng, &shape, 0.7).unwrap()
    }

    #[test]
    fn clean_margin_passes_first_try() {
        let (_, report) = quantize_with_reprobe(
            &layer(),
            QuantConfig::default(),
            Activation::Identity,
            &ReprobeConfig::default(),
        )
        .unwrap();
        assert!(!report.widened(), "default margin should validate clean");
        assert_eq!(report.final_rate(), 0.0);
        assert_eq!(report.final_margin(), QuantConfig::default().probe_margin);
    }

    #[test]
    fn tight_margin_triggers_widening() {
        // Calibrate at amplitude 0.05 but validate at 1.0: the formats are
        // chosen for tiny probes, so hot validation inputs must saturate
        // until the ladder widens the margin enough to cover them.
        let quant = QuantConfig {
            probe_amplitude: 0.05,
            probe_margin: 1.0,
            ..QuantConfig::default()
        };
        let cfg = ReprobeConfig {
            widen_factor: 2.0,
            max_widenings: 8,
            ..ReprobeConfig::default()
        };
        let (engine, report) =
            quantize_with_reprobe(&layer(), quant, Activation::Identity, &cfg).unwrap();
        assert!(report.widened(), "drift must trigger a re-probe");
        assert!(report.attempts[0].saturation_rate > 0.0);
        assert!(!report.exhausted(&cfg), "ladder should recover: {report:?}");
        assert!(report.final_margin() > 1.0);
        // The shipped engine really is the validated one.
        let live = validation_rate(&engine, &cfg).unwrap();
        assert_eq!(live.saturation_rate(), report.final_rate());
    }

    #[test]
    fn ladder_is_bounded() {
        let quant = QuantConfig {
            probe_amplitude: 1e-6,
            probe_margin: 1.0,
            ..QuantConfig::default()
        };
        let cfg = ReprobeConfig {
            widen_factor: 1.01, // far too timid to ever recover
            max_widenings: 3,
            ..ReprobeConfig::default()
        };
        let (_, report) =
            quantize_with_reprobe(&layer(), quant, Activation::Identity, &cfg).unwrap();
        assert_eq!(report.attempts.len(), cfg.max_widenings + 1);
        assert!(report.exhausted(&cfg));
    }

    #[test]
    fn rejects_degenerate_configs() {
        let q = QuantConfig::default();
        let base = ReprobeConfig::default();
        for bad in [
            ReprobeConfig {
                validation_count: 0,
                ..base
            },
            ReprobeConfig {
                validation_seed: q.probe_seed,
                ..base
            },
            ReprobeConfig {
                widen_factor: 1.0,
                ..base
            },
            ReprobeConfig {
                max_saturation_rate: -0.5,
                ..base
            },
        ] {
            assert!(quantize_with_reprobe(&layer(), q, Activation::Identity, &bad).is_err());
        }
    }
}
