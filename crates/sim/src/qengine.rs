//! A standalone quantized compact-scheme executor ([`QuantizedEngine`]):
//! the bit-accurate TIE datapath packaged as a serving-grade engine.
//!
//! [`crate::TieAccelerator`] is the cycle-accurate model — it carries the
//! SRAM/PE bookkeeping a performance study needs. `QuantizedEngine` is
//! the same arithmetic with the bookkeeping stripped: the unfolded cores
//! quantized once at construction (with one-shot probe calibration of the
//! activation formats), every stage a single [`tie_quant::qmatmul`]-exact
//! GEMM over the whole batch, and the inter-stage Transforms as
//! precomputed gather copies — a drop-in quantized counterpart of
//! [`CompactEngine`]'s `matvec_batch_into`, suitable as a serving backend.
//!
//! Its codes are produced by the same `qmatmul` kernel family the
//! simulator's fast path uses, so its outputs are bit-identical to the
//! accelerator run with the same formats. Since the fused-epilogue
//! rework, the inter-stage Transforms no longer exist as copies at all:
//! each stage's quantized GEMM scatters its codes straight into the next
//! stage's layout through the composed affine map of
//! [`tie_core::indexmap`].

use crate::accelerator::{probe_maxima, probe_vectors};
use crate::config::QuantConfig;
use std::sync::Mutex;
use tie_core::indexmap::{assemble_dest_map, prepare_copy_plan, stage_dest_map, CopyPlan};
use tie_core::{Activation, CompactEngine, InferencePlan};
use tie_quant::{qmatmul_raw_mapped, QFormat, QMatmulReport, QTensor};
use tie_tensor::linalg::DestMap;
use tie_tensor::{Result, TensorError};
use tie_tt::{TtMatrix, TtShape};

/// A TT layer compiled to the 16-bit fixed-point compact scheme.
///
/// # Example
///
/// ```
/// use tie_sim::{QuantConfig, QuantizedEngine};
/// use tie_tt::{TtMatrix, TtShape};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 2)?;
/// let layer = TtMatrix::<f64>::random(&mut rng, &shape, 0.5)?;
/// let engine = QuantizedEngine::new(layer, QuantConfig::default())?;
/// let xs = vec![0.25f64; 16 * 2]; // batch of 2, element-major
/// let mut ys = vec![0.0f64; 16 * 2];
/// let report = engine.matvec_batch_into(&xs, 2, &mut ys)?;
/// assert!(report.is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QuantizedEngine {
    shape: TtShape,
    plan: InferencePlan,
    /// Quantized unfolded stage matrices `G̃_1 … G̃_d` (0-based core index).
    cores: Vec<QTensor>,
    /// Prepared-input activation format (one-shot probe calibration).
    input_format: QFormat,
    /// Per-stage output formats, in plan-stage order, post alignment
    /// clamping — fixed at construction, so every batch is bit-identical
    /// to the same samples run one at a time.
    stage_formats: Vec<QFormat>,
    /// Fused write epilogues, one per stage in execution order: composed
    /// Transform maps for `h = d … 2`, the output-assembly map last.
    dest_maps: Vec<DestMap>,
    /// Minimal block-copy plan for the input layout (Eqn. (8)).
    prep_plan: CopyPlan,
    /// Activation fused into the final stage's requantization epilogue —
    /// applied to the clipped 32-bit code before narrowing, exactly like
    /// the TIE PE's output pass. Saturation reports are unchanged by it.
    activation: Activation,
    /// Ping-pong code scratch, grown on demand and reused across calls.
    workspace: Mutex<QWorkspace>,
}

/// Reusable i16 scratch for the stage pipeline (the two working SRAMs).
#[derive(Debug, Default)]
struct QWorkspace {
    ping: Vec<i16>,
    pong: Vec<i16>,
}

impl Clone for QuantizedEngine {
    fn clone(&self) -> Self {
        QuantizedEngine {
            shape: self.shape.clone(),
            plan: self.plan.clone(),
            cores: self.cores.clone(),
            input_format: self.input_format,
            stage_formats: self.stage_formats.clone(),
            dest_maps: self.dest_maps.clone(),
            prep_plan: self.prep_plan.clone(),
            activation: self.activation,
            // Scratch is per-engine state, not semantic state.
            workspace: Mutex::new(QWorkspace::default()),
        }
    }
}

/// Compile-time audit: the serving layer shares the engine across worker
/// threads behind `Arc`; all state is immutable after construction except
/// the `Mutex`-guarded scratch.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<QuantizedEngine>;
};

impl QuantizedEngine {
    /// Compiles one TT layer to the quantized compact scheme.
    ///
    /// Weights are quantized per core (max-abs calibrated when
    /// `quant.calibrate_weights`); activation formats come from a
    /// one-shot trace of the seeded probe set whenever
    /// `quant.calibrate_activations` is set — the engine always
    /// calibrates at construction (there is no per-batch refresh here:
    /// a serving backend must be deterministic across batch shapes).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from plan or transform construction.
    pub fn new(matrix: TtMatrix<f64>, quant: QuantConfig) -> Result<Self> {
        let reference = CompactEngine::new(matrix)?;
        let shape = reference.matrix().shape().clone();
        let plan = reference.plan().clone();
        let d = shape.ndim();

        let mut weight_formats = Vec::with_capacity(d);
        let mut cores = Vec::with_capacity(d);
        for g in reference.unfolded_cores() {
            let q = if quant.calibrate_weights && g.max_abs() > 0.0 {
                QTensor::quantize_calibrated(g)?
            } else {
                QTensor::quantize(g, quant.weight_format)
            };
            weight_formats.push(q.format());
            cores.push(q);
        }

        let (input_max, stage_max) = if quant.calibrate_activations && quant.probe_count > 0 {
            let probes = probe_vectors(
                quant.probe_seed,
                quant.probe_count,
                shape.num_cols(),
                quant.probe_amplitude,
            )?;
            let (im, sm, _) = probe_maxima(&reference, &probes)?;
            (im, sm)
        } else {
            (0.0, vec![0.0f64; d])
        };
        let select = |max_abs: f64| -> QFormat {
            if quant.calibrate_activations && max_abs > 0.0 {
                QFormat::calibrate(max_abs * quant.probe_margin).unwrap_or(quant.activation_format)
            } else {
                quant.activation_format
            }
        };
        let input_format = select(input_max);
        // Resolve the alignment clamp (a stage format finer than the
        // products it stores is meaningless) once, here, so the hot path
        // does pure table lookups.
        let mut stage_formats = Vec::with_capacity(d);
        let mut in_frac = input_format.frac_bits();
        for (idx, stage) in plan.stages().iter().enumerate() {
            let w_frac = weight_formats[stage.h - 1].frac_bits();
            let prod_frac = w_frac + in_frac;
            let mut f = select(stage_max[idx]);
            if f.frac_bits() > prod_frac {
                f = QFormat::new(prod_frac.min(15))?;
            }
            stage_formats.push(f);
            in_frac = f.frac_bits();
        }

        let mut dest_maps = Vec::with_capacity(d);
        for h in (2..=d).rev() {
            dest_maps.push(stage_dest_map(&shape, h)?);
        }
        dest_maps.push(assemble_dest_map(&shape)?);
        let prep_plan = prepare_copy_plan(&shape)?;

        Ok(QuantizedEngine {
            shape,
            plan,
            cores,
            input_format,
            stage_formats,
            dest_maps,
            prep_plan,
            activation: Activation::Identity,
            workspace: Mutex::new(QWorkspace::default()),
        })
    }

    /// Selects the activation fused into the final stage's requantization
    /// epilogue (builder style). ReLU applies to the clipped 32-bit code
    /// before narrowing, so the saturation report is bit-identical to the
    /// unfused engine's.
    #[must_use]
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self.plan = self.plan.clone().with_activation(activation);
        self
    }

    /// The fused final-stage activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The layer's TT layout.
    pub fn shape(&self) -> &TtShape {
        &self.shape
    }

    /// The execution plan.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// Output length `M`.
    pub fn num_rows(&self) -> usize {
        self.shape.num_rows()
    }

    /// Input length `N`.
    pub fn num_cols(&self) -> usize {
        self.shape.num_cols()
    }

    /// Bytes of inter-stage and output-assembly traffic the fused write
    /// epilogues eliminate per sample: every post-GEMM intermediate
    /// (`V_h`, `h ≥ 2`) plus the assembled output — one `i16` code each —
    /// no longer passes through a separate permutation copy.
    pub fn transform_elided_bytes_per_sample(&self) -> u64 {
        let elem = std::mem::size_of::<i16>() as u64;
        let stage_elems: u64 = self
            .plan
            .stages()
            .iter()
            .filter(|s| s.h >= 2)
            .map(|s| s.output_elems() as u64)
            .sum();
        (stage_elems + self.shape.num_rows() as u64) * elem
    }

    /// Bytes still moved per sample by pure copying — the Eqn. (8) input
    /// preparation (quantize-on-copy), the one bijection with no producing
    /// GEMM to fuse into.
    pub fn bytes_moved_per_sample(&self) -> u64 {
        self.shape.num_cols() as u64 * std::mem::size_of::<i16>() as u64
    }

    /// Prepared-input activation format.
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// Per-stage activation formats (plan order, post alignment clamp).
    pub fn stage_formats(&self) -> &[QFormat] {
        &self.stage_formats
    }

    /// Per-core weight formats (0-based core index).
    pub fn weight_formats(&self) -> Vec<QFormat> {
        self.cores.iter().map(QTensor::format).collect()
    }

    /// Quantized unfolded cores (0-based core index) — the pipelined
    /// executor shares these verbatim so its arithmetic is the engine's.
    pub(crate) fn cores(&self) -> &[QTensor] {
        &self.cores
    }

    /// Fused write epilogues in execution order.
    pub(crate) fn dest_maps(&self) -> &[DestMap] {
        &self.dest_maps
    }

    /// The Eqn. (8) input copy plan.
    pub(crate) fn prep_plan(&self) -> &CopyPlan {
        &self.prep_plan
    }

    /// Batched quantized product: `xs` is row-major `N × b` (batch
    /// inner-most, the [`CompactEngine::matvec_batch_into`] convention),
    /// `ys` receives row-major `M × b`. Inputs are quantized to the
    /// calibrated input format, the `d` stages run as single quantized
    /// GEMMs over the whole batch, and outputs are dequantized from the
    /// final stage format. Steady-state the call performs **no heap
    /// allocation** (ping-pong scratch grown once).
    ///
    /// Returns the merged saturation report across all stages — the
    /// serving layer surfaces these counters in its stats.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `xs` is not `N·b`
    /// elements or `ys` is not `M·b` elements.
    pub fn matvec_batch_into(&self, xs: &[f64], b: usize, ys: &mut [f64]) -> Result<QMatmulReport> {
        let n = self.shape.num_cols();
        let m = self.shape.num_rows();
        if xs.len() != n * b {
            return Err(TensorError::ShapeMismatch {
                left: vec![xs.len()],
                right: vec![n * b],
            });
        }
        if ys.len() != m * b {
            return Err(TensorError::ShapeMismatch {
                left: vec![ys.len()],
                right: vec![m * b],
            });
        }
        let mut report = QMatmulReport::default();
        if b == 0 {
            return Ok(report);
        }
        let d = self.shape.ndim();
        let mut guard = self
            .workspace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ws = &mut *guard;
        // Each buffer only ever holds a stage input, except that the final
        // stage parks its assembled codes (`M·b`) before the contiguous
        // dequantize — hence the `max(…, m)` term.
        let per_buf = self.plan.max_stage_input_elems().max(m) * b;
        if ws.ping.len() < per_buf {
            ws.ping.resize(per_buf, 0);
        }
        if ws.pong.len() < per_buf {
            ws.pong.resize(per_buf, 0);
        }
        let (mut cur, mut nxt) = (&mut ws.ping, &mut ws.pong);
        // Quantize the input contiguously into the spare buffer (a
        // vectorized pass), then lay the 16-bit codes out in the
        // prepared-input order of Eqn. (8) with the minimal copy plan: the
        // gather then moves a quarter of the bytes it would move as f64.
        self.input_format.quantize_into(xs, &mut nxt[..n * b]);
        self.prep_plan.apply_batched(&nxt[..n * b], cur, b);
        let mut in_format = self.input_format;
        for (idx, h) in (1..=d).rev().enumerate() {
            let stage = &self.plan.stages()[idx];
            let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            let out_format = self.stage_formats[idx];
            let (prod_shift, out_shift) =
                tie_quant::alignment(self.cores[h - 1].format(), in_format, out_format);
            // The GEMM's write loop evaluates the stage's composed
            // Transform map (or, for h = 1, the output-assembly map): the
            // codes land directly in the next stage's layout and the
            // separate permutation pass of the legacy pipeline is gone.
            let out_elems = rows * cols * b;
            // The final stage (h = 1) additionally fuses the activation
            // into the requantization epilogue — no separate pass over
            // the assembled codes.
            let act = if h == 1 {
                self.activation
            } else {
                Activation::Identity
            };
            let stage_report = qmatmul_raw_mapped(
                self.cores[h - 1].codes(),
                &cur[..k * cols * b],
                rows,
                k,
                cols,
                b,
                prod_shift,
                out_shift,
                &mut nxt[..out_elems],
                &self.dest_maps[idx],
                act,
            );
            report = report.merged(&stage_report);
            std::mem::swap(&mut cur, &mut nxt);
            in_format = out_format;
        }
        // The final stage wrote its codes in assembled order: dequantize
        // contiguously into the caller's buffer.
        in_format.dequantize_into(&cur[..m * b], ys);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TieAccelerator, TieConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_quant::error_stats;
    use tie_tensor::{init, Tensor};

    fn random_layer(seed: u64, shape: &TtShape) -> TtMatrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TtMatrix::random(&mut rng, shape, 0.5).unwrap()
    }

    #[test]
    fn tracks_float_reference_closely() {
        let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 4).unwrap();
        let layer = random_layer(300, &shape);
        let reference = CompactEngine::new(layer.clone()).unwrap();
        let engine = QuantizedEngine::new(layer, QuantConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(301);
        let x: Tensor<f64> = init::uniform(&mut rng, vec![64], 1.0);
        let (want, _) = reference.matvec(&x).unwrap();
        let mut ys = vec![0.0f64; 64];
        let report = engine.matvec_batch_into(x.data(), 1, &mut ys).unwrap();
        assert!(report.is_clean(), "calibrated run must not saturate");
        let got = Tensor::from_vec(vec![64], ys).unwrap();
        let s = error_stats(&got, &want).unwrap();
        assert!(s.sqnr_db > 40.0, "SQNR {} dB", s.sqnr_db);
    }

    #[test]
    fn batched_bits_equal_single_sample_bits() {
        let shape = TtShape::uniform_rank(vec![3, 3], vec![4, 4], 3).unwrap();
        let layer = random_layer(302, &shape);
        let engine = QuantizedEngine::new(layer, QuantConfig::default()).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(303);
        let b = 5usize;
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![16 * b], 1.0);
        // Interleave element-major: xs[j*b + c].
        let mut batch_ys = vec![0.0f64; 9 * b];
        engine
            .matvec_batch_into(xs.data(), b, &mut batch_ys)
            .unwrap();
        for c in 0..b {
            let x1: Vec<f64> = (0..16).map(|j| xs.data()[j * b + c]).collect();
            let mut y1 = vec![0.0f64; 9];
            engine.matvec_batch_into(&x1, 1, &mut y1).unwrap();
            for r in 0..9 {
                assert_eq!(
                    batch_ys[r * b + c].to_bits(),
                    y1[r].to_bits(),
                    "batch column {c} row {r} diverges"
                );
            }
        }
    }

    #[test]
    fn matches_accelerator_codes_bitwise() {
        // Same formats, same kernel arithmetic → the serving engine must
        // reproduce the cycle-accurate accelerator's outputs exactly.
        let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 4).unwrap();
        let layer = random_layer(304, &shape);
        let engine = QuantizedEngine::new(layer.clone(), QuantConfig::default()).unwrap();
        let mut tie = TieAccelerator::new(TieConfig::default()).unwrap();
        let loaded = tie.load_layer(layer).unwrap();
        assert_eq!(engine.input_format(), loaded.input_format());
        let mut rng = ChaCha8Rng::seed_from_u64(305);
        let x: Tensor<f64> = init::uniform(&mut rng, vec![16], 1.0);
        let (want, _) = tie.run(&loaded, &x, false).unwrap();
        let mut ys = vec![0.0f64; 16];
        engine.matvec_batch_into(x.data(), 1, &mut ys).unwrap();
        for (a, b) in ys.iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_relu_matches_separate_relu_pass_bitwise() {
        // ReLU fused into the final requantization must equal the unfused
        // engine followed by a separate relu pass — outputs bitwise, and
        // the saturation report untouched by the epilogue.
        let shape = TtShape::uniform_rank(vec![3, 3], vec![4, 4], 3).unwrap();
        let layer = random_layer(308, &shape);
        let plain = QuantizedEngine::new(layer.clone(), QuantConfig::default()).unwrap();
        let fused = QuantizedEngine::new(layer, QuantConfig::default())
            .unwrap()
            .with_activation(Activation::Relu);
        assert_eq!(fused.activation(), Activation::Relu);
        assert_eq!(fused.plan().activation(), Activation::Relu);
        let mut rng = ChaCha8Rng::seed_from_u64(309);
        for b in [1usize, 4] {
            let xs: Tensor<f64> = init::uniform(&mut rng, vec![16 * b], 1.0);
            let mut want = vec![0.0f64; 9 * b];
            let r_plain = plain.matvec_batch_into(xs.data(), b, &mut want).unwrap();
            for v in &mut want {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
            let mut got = vec![0.0f64; 9 * b];
            let r_fused = fused.matvec_batch_into(xs.data(), b, &mut got).unwrap();
            assert_eq!(r_fused, r_plain, "reports must be epilogue-invariant");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "b={b}");
            }
            assert!(got.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn rejects_wrong_lengths_and_accepts_empty_batch() {
        let shape = TtShape::uniform_rank(vec![2, 2], vec![2, 2], 2).unwrap();
        let engine =
            QuantizedEngine::new(random_layer(306, &shape), QuantConfig::default()).unwrap();
        let mut ys = vec![0.0f64; 4];
        assert!(engine.matvec_batch_into(&[0.0; 3], 1, &mut ys).is_err());
        assert!(engine
            .matvec_batch_into(&[0.0; 4], 1, &mut ys[..3])
            .is_err());
        let report = engine.matvec_batch_into(&[], 0, &mut []).unwrap();
        assert_eq!(report.outputs, 0);
    }

    #[test]
    fn clone_is_independent_and_identical() {
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let engine =
            QuantizedEngine::new(random_layer(307, &shape), QuantConfig::default()).unwrap();
        let cloned = engine.clone();
        let xs = vec![0.5f64; 6];
        let (mut y0, mut y1) = (vec![0.0f64; 6], vec![0.0f64; 6]);
        engine.matvec_batch_into(&xs, 1, &mut y0).unwrap();
        cloned.matvec_batch_into(&xs, 1, &mut y1).unwrap();
        assert_eq!(y0, y1);
    }
}
