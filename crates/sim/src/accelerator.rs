//! The full TIE engine: main controller, weight SRAM, ping-pong working
//! SRAMs and the PE array (paper Fig. 8).

use crate::config::{CalibrationMode, TieConfig};
use crate::pe_array::{PeArray, StageOutcome};
use crate::sram::{WeightSram, WorkingSram};
use crate::stats::{RunStats, StageStats};
use tie_core::indexmap::stage_transform_map;
use tie_core::transform::{assemble_output, prepare_input, TransformMap};
use tie_core::{Activation, CompactEngine, InferencePlan};
use tie_quant::{qmatmul_raw_mapped, QFormat, QTensor};
use tie_tensor::linalg::DestMap;
use tie_tensor::{Result, Tensor, TensorError};
use tie_tt::{TtMatrix, TtShape};

/// The fused fast path's destination map for one stage over the batched
/// working-SRAM layout: `V_h` element `(p, col)` (with `col = blk·v_cols +
/// q_local` — sample-major column blocks) lands at row `p'`, column
/// `blk·cols_out + q'` of the destination SRAM, where `(p', q') =
/// TransformMap::map(p, q_local)`. Built from the composed affine map's
/// separable offset tables: the single-sample row/column contributions
/// split exactly at the `cols_out` place (no carries — the column part of
/// a destination offset is always `< cols_out`), so the batched tables are
/// a pure re-basing of the single-sample ones.
fn batched_stage_dest_map(shape: &TtShape, h: usize, batch: usize) -> Result<DestMap> {
    let t = TransformMap::new(shape, h)?;
    let map = stage_transform_map(shape, h)?;
    let (r0, c0) = map.offset_tables(t.rows_in, t.cols_in)?;
    let w = t.cols_out;
    let rebase = |v: usize, blk: usize| (v / w) * w * batch + blk * w + v % w;
    let row: Vec<usize> = r0.iter().map(|&v| rebase(v, 0)).collect();
    let mut col = Vec::with_capacity(c0.len() * batch);
    for blk in 0..batch {
        col.extend(c0.iter().map(|&v| rebase(v, blk)));
    }
    DestMap::new(row, col)
}

/// Deterministic probe generator for one-shot calibration (xorshift64 —
/// self-contained so calibration needs no RNG dependency and the probe
/// set is a pure function of `QuantConfig::probe_seed`).
struct ProbeRng(u64);

impl ProbeRng {
    fn new(seed: u64) -> Self {
        // xorshift has a fixed point at 0; mixing with an odd constant
        // keeps every seed (including 0) on a full-period orbit.
        ProbeRng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next value, uniform in `[-1, 1)`.
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    fn vector(&mut self, len: usize, amplitude: f64) -> Result<Tensor<f64>> {
        Tensor::from_vec(
            vec![len],
            (0..len).map(|_| amplitude * self.next_unit()).collect(),
        )
    }
}

/// The seeded probe set for one-shot calibration of a layer with `len`
/// inputs.
pub(crate) fn probe_vectors(
    seed: u64,
    count: usize,
    len: usize,
    amplitude: f64,
) -> Result<Vec<Tensor<f64>>> {
    let mut rng = ProbeRng::new(seed);
    (0..count).map(|_| rng.vector(len, amplitude)).collect()
}

/// Traces `probes` through the float reference engine, returning
/// `(input_max, stage_max, probe_outputs)`. The outputs let network loads
/// propagate the probe set layer to layer, so deeper layers calibrate at
/// realistic amplitudes. Outputs are propagated *linearly* (no ReLU):
/// ReLU only shrinks magnitudes, so the resulting formats cover both the
/// linear and the rectified runtime paths.
pub(crate) fn probe_maxima(
    engine: &CompactEngine<f64>,
    probes: &[Tensor<f64>],
) -> Result<(f64, Vec<f64>, Vec<Tensor<f64>>)> {
    let d = engine.plan().stages().len();
    let mut input_max = 0.0f64;
    let mut stage_max = vec![0.0f64; d];
    let mut outputs = Vec::with_capacity(probes.len());
    for p in probes {
        let (y, trace) = engine.matvec_traced(p)?;
        input_max = input_max.max(trace.prepared_input.max_abs());
        for (sm, out) in stage_max.iter_mut().zip(&trace.stage_outputs) {
            *sm = sm.max(out.max_abs());
        }
        outputs.push(y);
    }
    Ok((input_max, stage_max, outputs))
}

/// A TT layer resident in the accelerator's weight SRAM.
///
/// Holds the layout, the per-core quantization formats chosen at load
/// time, the **memoized activation formats** from one-shot probe
/// calibration, and the float reference engine used for calibration and
/// functional cross-checking.
#[derive(Debug)]
pub struct LoadedLayer {
    shape: TtShape,
    plan: InferencePlan,
    weight_formats: Vec<QFormat>,
    engine: CompactEngine<f64>,
    /// Prepared-input format chosen at load time (probe calibration, or
    /// the configured fallback when calibration is off / per-batch).
    input_format: QFormat,
    /// Per-stage `V_h` output formats, in plan-stage order.
    stage_formats: Vec<QFormat>,
    /// Probe maxima behind `input_format` (0 when probes were skipped).
    input_max: f64,
    /// Probe maxima behind `stage_formats`, in plan-stage order.
    stage_max: Vec<f64>,
}

impl LoadedLayer {
    /// The layer's TT layout.
    pub fn shape(&self) -> &TtShape {
        &self.shape
    }

    /// The compact-scheme execution plan.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// Per-core weight quantization formats.
    pub fn weight_formats(&self) -> &[QFormat] {
        &self.weight_formats
    }

    /// The float reference engine.
    pub fn reference(&self) -> &CompactEngine<f64> {
        &self.engine
    }

    /// Prepared-input activation format memoized at load time.
    pub fn input_format(&self) -> QFormat {
        self.input_format
    }

    /// Per-stage activation formats memoized at load time (plan order).
    pub fn stage_formats(&self) -> &[QFormat] {
        &self.stage_formats
    }

    /// Max-abs of the prepared input over the calibration probe set
    /// (0 when probe calibration was skipped).
    pub fn probe_input_max(&self) -> f64 {
        self.input_max
    }

    /// Per-stage max-abs over the calibration probe set (plan order).
    pub fn probe_stage_max(&self) -> &[f64] {
        &self.stage_max
    }
}

/// A multi-layer TT network resident in the accelerator (see
/// [`TieAccelerator::load_network`]).
#[derive(Debug)]
pub struct LoadedNetwork {
    layers: Vec<LoadedLayer>,
    bases: Vec<usize>,
}

impl LoadedNetwork {
    /// The layers, in execution order.
    pub fn layers(&self) -> &[LoadedLayer] {
        &self.layers
    }

    /// Total stored weight elements across all layers.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(|l| l.shape.num_params()).sum()
    }
}

/// The TIE accelerator (paper Fig. 8): PE array + weight SRAM + two
/// working SRAMs under a main controller.
///
/// # Example
///
/// ```
/// use tie_sim::{TieAccelerator, TieConfig};
/// use tie_tt::{TtMatrix, TtShape};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 2)?;
/// let layer = TtMatrix::<f64>::random(&mut rng, &shape, 0.5)?;
/// let mut tie = TieAccelerator::new(TieConfig::default())?;
/// let loaded = tie.load_layer(layer)?;
/// let x = tie_tensor::Tensor::<f64>::filled(vec![16], 0.25)?;
/// let (y, stats) = tie.run(&loaded, &x, false)?;
/// assert_eq!(y.num_elements(), 16);
/// assert!(stats.cycles() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TieAccelerator {
    config: TieConfig,
    pe: PeArray,
    weight_sram: WeightSram,
    working: [WorkingSram; 2],
    /// Float reference traces performed for activation calibration
    /// (probe traces at load time + per-batch refresh traces). Lets
    /// tests assert that steady-state `run_batch` does zero float work.
    calibration_traces: u64,
}

impl TieAccelerator {
    /// Builds an accelerator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration-validation errors.
    pub fn new(config: TieConfig) -> Result<Self> {
        config.validate()?;
        Ok(TieAccelerator {
            pe: PeArray::new(config.n_pe, config.n_mac),
            weight_sram: WeightSram::new(config.n_mac, config.weight_capacity_elems()),
            working: [
                WorkingSram::new(config.working_sram_banks, config.working_capacity_elems()),
                WorkingSram::new(config.working_sram_banks, config.working_capacity_elems()),
            ],
            config,
            calibration_traces: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &TieConfig {
        &self.config
    }

    /// Current weight SRAM occupancy in elements (padded words).
    pub fn weight_sram_used(&self) -> usize {
        self.weight_sram.used_elems()
    }

    /// Float reference traces performed for activation calibration since
    /// construction. With the default [`CalibrationMode::OneShot`] this
    /// grows only at `load_layer` / `load_network` time (probe set); with
    /// [`CalibrationMode::PerBatch`] it also grows by up to 8 per batch.
    pub fn calibration_traces(&self) -> u64 {
        self.calibration_traces
    }

    /// Chooses an activation format from a traced max-abs, falling back
    /// to the configured `activation_format`.
    fn select_format(&self, max_abs: f64, margin: f64) -> QFormat {
        if self.config.quant.calibrate_activations && max_abs > 0.0 {
            QFormat::calibrate(max_abs * margin).unwrap_or(self.config.quant.activation_format)
        } else {
            self.config.quant.activation_format
        }
    }

    /// Whether load-time probe calibration is active.
    fn one_shot(&self) -> bool {
        self.config.quant.calibrate_activations
            && self.config.quant.calibration == CalibrationMode::OneShot
            && self.config.quant.probe_count > 0
    }

    /// Derives the memoized load-time formats for one layer: probe
    /// calibration under [`CalibrationMode::OneShot`], the configured
    /// fallback otherwise. Returns the layer's calibration fields plus
    /// the probe outputs (empty when probes were skipped).
    #[allow(clippy::type_complexity)]
    fn calibrate_layer(
        &mut self,
        engine: &CompactEngine<f64>,
        probes: &[Tensor<f64>],
    ) -> Result<(QFormat, Vec<QFormat>, f64, Vec<f64>, Vec<Tensor<f64>>)> {
        let d = engine.plan().stages().len();
        let (input_max, stage_max, outputs) = if self.one_shot() {
            self.calibration_traces += probes.len() as u64;
            probe_maxima(engine, probes)?
        } else {
            (0.0, vec![0.0f64; d], Vec::new())
        };
        let margin = self.config.quant.probe_margin;
        let input_format = self.select_format(input_max, margin);
        let stage_formats = stage_max
            .iter()
            .map(|&m| self.select_format(m, margin))
            .collect();
        Ok((input_format, stage_formats, input_max, stage_max, outputs))
    }

    /// Quantizes and loads one TT layer into the weight SRAM (replacing
    /// any previous layer), checking the capacity constraints the paper's
    /// 16 KB budget implies.
    ///
    /// # Errors
    ///
    /// Returns capacity errors from the weight SRAM or working-SRAM
    /// feasibility (§3.2 bound), plus shape errors for invalid layers.
    pub fn load_layer(&mut self, matrix: TtMatrix<f64>) -> Result<LoadedLayer> {
        let shape = matrix.shape().clone();
        let plan = InferencePlan::new(&shape)?;
        // §3.2: the largest intermediate must fit one working SRAM copy.
        if plan.max_intermediate_elems() > self.config.working_capacity_elems() {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "peak intermediate {} elems exceeds working SRAM {}",
                    plan.max_intermediate_elems(),
                    self.config.working_capacity_elems()
                ),
            });
        }
        let engine = CompactEngine::new(matrix)?;
        let mut formats = Vec::with_capacity(shape.ndim());
        let mut quantized = Vec::with_capacity(shape.ndim());
        for g in engine.unfolded_cores() {
            let q = if self.config.quant.calibrate_weights && g.max_abs() > 0.0 {
                QTensor::quantize_calibrated(g)?
            } else {
                QTensor::quantize(g, self.config.quant.weight_format)
            };
            formats.push(q.format());
            quantized.push(q);
        }
        // One-shot activation calibration over the seeded probe set: the
        // formats are fixed here, so steady-state runs do zero float
        // reference work and batched runs are bit-identical to the same
        // samples run one at a time.
        let probes = if self.one_shot() {
            let q = &self.config.quant;
            probe_vectors(
                q.probe_seed,
                q.probe_count,
                shape.num_cols(),
                q.probe_amplitude,
            )?
        } else {
            Vec::new()
        };
        let (input_format, stage_formats, input_max, stage_max, _) =
            self.calibrate_layer(&engine, &probes)?;
        self.weight_sram.load(quantized)?;
        Ok(LoadedLayer {
            shape,
            plan,
            weight_formats: formats,
            engine,
            input_format,
            stage_formats,
            input_max,
            stage_max,
        })
    }

    /// Runs one inference `y = W x` on the loaded layer.
    ///
    /// `relu` applies the PE activation units to the final stage (set
    /// false to compare against the linear float reference).
    ///
    /// Returns the dequantized output and the full [`RunStats`].
    ///
    /// # Errors
    ///
    /// Returns shape errors for a wrong-length input and capacity errors
    /// if an intermediate overflows the working SRAM.
    pub fn run(
        &mut self,
        layer: &LoadedLayer,
        x: &Tensor<f64>,
        relu: bool,
    ) -> Result<(Tensor<f64>, RunStats)> {
        let n = layer.shape.num_cols();
        if x.ndim() != 1 || x.num_elements() != n {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![n],
            });
        }
        let xs = x.reshaped(vec![n, 1])?;
        let (ys, stats) = self.run_batch_layer(layer, &xs, relu, 0)?;
        Ok((ys.reshaped(vec![layer.shape.num_rows()])?, stats))
    }

    /// Runs a batch of inferences `Y = W X` (`xs` is `N × B`, one sample
    /// per column) in a single pass: the batch columns ride along as
    /// extra `V` columns of every stage — exactly how TIE executes CONV
    /// layers, where each output pixel is one column (paper Fig. 3).
    ///
    /// Each stage executes as **one quantized GEMM** over the whole
    /// batch (the fast path); the cycle/traffic model is fed the exact
    /// activity counts the cycle-level PE walk would produce, and the
    /// codes are bit-identical to it (see [`TieAccelerator::run_batch_walk`]).
    ///
    /// # Errors
    ///
    /// As [`TieAccelerator::run`], plus a capacity error if the batched
    /// intermediates exceed the working SRAM (chunk the batch then).
    pub fn run_batch(
        &mut self,
        layer: &LoadedLayer,
        xs: &Tensor<f64>,
        relu: bool,
    ) -> Result<(Tensor<f64>, RunStats)> {
        self.run_batch_layer(layer, xs, relu, 0)
    }

    /// Cycle-level reference executor: identical semantics (outputs,
    /// stats) to [`TieAccelerator::run_batch`], but every MAC is walked
    /// through the PE-array schedule one gather/broadcast at a time.
    /// Kept as the differential oracle for the fast path and as the
    /// before-side baseline of the quantized throughput bench.
    #[doc(hidden)]
    pub fn run_batch_walk(
        &mut self,
        layer: &LoadedLayer,
        xs: &Tensor<f64>,
        relu: bool,
    ) -> Result<(Tensor<f64>, RunStats)> {
        self.run_batch_inner(layer, xs, relu, 0, true)
    }

    fn run_layer(
        &mut self,
        layer: &LoadedLayer,
        x: &Tensor<f64>,
        relu: bool,
        core_base: usize,
    ) -> Result<(Tensor<f64>, RunStats)> {
        let n = layer.shape.num_cols();
        let xs = x.reshaped(vec![n, 1])?;
        let (ys, stats) = self.run_batch_layer(layer, &xs, relu, core_base)?;
        Ok((ys.reshaped(vec![layer.shape.num_rows()])?, stats))
    }

    fn run_batch_layer(
        &mut self,
        layer: &LoadedLayer,
        xs: &Tensor<f64>,
        relu: bool,
        core_base: usize,
    ) -> Result<(Tensor<f64>, RunStats)> {
        self.run_batch_inner(layer, xs, relu, core_base, false)
    }

    /// Activation formats for one batch: the memoized load-time formats
    /// under [`CalibrationMode::OneShot`] (zero float work), or a fresh
    /// float-trace refresh over up to 8 samples under
    /// [`CalibrationMode::PerBatch`].
    fn formats_for_batch(
        &mut self,
        layer: &LoadedLayer,
        xs: &Tensor<f64>,
        batch: usize,
    ) -> Result<(QFormat, Vec<QFormat>)> {
        let quant = self.config.quant;
        if !(quant.calibrate_activations && quant.calibration == CalibrationMode::PerBatch) {
            return Ok((layer.input_format, layer.stage_formats.clone()));
        }
        let d = layer.shape.ndim();
        let n = layer.shape.num_cols();
        // The format must cover every sample; tracing is capped at 8
        // samples with extra headroom standing in for the rest.
        let traced = batch.min(8);
        let mut input_max = 0.0f64;
        let mut stage_max = vec![0.0f64; d];
        for b in 0..traced {
            let col = xs.cols(b, b + 1)?.reshaped(vec![n])?;
            let (_, trace) = layer.engine.matvec_traced(&col)?;
            self.calibration_traces += 1;
            input_max = input_max.max(trace.prepared_input.max_abs());
            for (sm, out) in stage_max.iter_mut().zip(&trace.stage_outputs) {
                *sm = sm.max(out.max_abs());
            }
        }
        let margin = if traced < batch { 1.25 } else { 1.05 };
        let input_format = self.select_format(input_max, margin);
        let stage_formats = stage_max
            .iter()
            .map(|&m| self.select_format(m, margin))
            .collect();
        Ok((input_format, stage_formats))
    }

    #[allow(clippy::too_many_lines)]
    fn run_batch_inner(
        &mut self,
        layer: &LoadedLayer,
        xs: &Tensor<f64>,
        relu: bool,
        core_base: usize,
        walk: bool,
    ) -> Result<(Tensor<f64>, RunStats)> {
        let shape = &layer.shape;
        let d = shape.ndim();
        let n = shape.num_cols();
        if xs.ndim() != 2 || xs.dims()[0] != n {
            return Err(TensorError::ShapeMismatch {
                left: xs.dims().to_vec(),
                right: vec![n, 0],
            });
        }
        let batch = xs.dims()[1];
        let (input_format, stage_formats) = self.formats_for_batch(layer, xs, batch)?;

        // Stage the prepared inputs block-wise (sample-major columns) in
        // working SRAM 0.
        let n_d = shape.col_modes[d - 1];
        let cols_single = n / n_d;
        {
            let mut staged = Tensor::<f64>::zeros(vec![n_d, cols_single * batch]);
            for b in 0..batch {
                let col = xs.cols(b, b + 1)?.reshaped(vec![n])?;
                let xp = prepare_input(&col, shape)?;
                for r in 0..n_d {
                    for c in 0..cols_single {
                        staged.data_mut()[r * cols_single * batch + b * cols_single + c] =
                            xp.data()[r * cols_single + c];
                    }
                }
            }
            let qx = QTensor::quantize(&staged, input_format);
            self.working[0].load_matrix(&qx)?;
        }
        self.working[0].reset_counters();
        self.working[1].reset_counters();

        let mut stats = RunStats::default();
        let mut in_format = input_format;
        for (idx, stage) in layer.plan.stages().iter().enumerate() {
            let h = stage.h;
            let src_i = idx % 2;
            // Fixed-point alignment for this stage.
            let w_frac = layer.weight_formats[h - 1].frac_bits();
            let prod_frac = w_frac + in_format.frac_bits();
            let mut out_format = stage_formats[idx];
            if out_format.frac_bits() > prod_frac {
                out_format = QFormat::new(prod_frac.min(15))?;
            }
            let acc_frac = prod_frac.min(out_format.frac_bits() + 8);
            let prod_shift = prod_frac - acc_frac;
            let out_shift = acc_frac - out_format.frac_bits();

            // Write-side ReArrange (paper Algorithm 2 / Fig. 10): the
            // controller stores every produced V_h element directly at its
            // *transformed* position, so each next-stage read is a plain
            // sequential row fetch (conflict-free by construction) and the
            // Transform costs no cycles — the paper's "zero-cost matrix
            // transform". Batch columns keep their per-sample blocks. The
            // final stage stores V_1 raw for the drain.
            let tmap_out = if h >= 2 {
                Some(TransformMap::new(shape, h)?)
            } else {
                None
            };

            let (gr, gc, vc) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
            let vc_total = vc * batch;
            // Split the working pair into disjoint src/dst borrows.
            let (left, right) = self.working.split_at_mut(1);
            let (src, dst) = if src_i == 0 {
                (&mut left[0], &mut right[0])
            } else {
                (&mut right[0], &mut left[0])
            };
            let out_block_cols = match &tmap_out {
                Some(t) => {
                    dst.allocate(t.rows_out, t.cols_out * batch)?;
                    t.cols_out
                }
                None => {
                    dst.allocate(gr, vc_total)?;
                    vc
                }
            };
            let w0 = self.weight_sram.reads();
            let r0 = src.reads();
            let c0 = src.conflict_extra_cycles();
            let weight_sram = &mut self.weight_sram;
            let n_pe = self.config.n_pe;
            let n_mac = self.config.n_mac;
            let core_idx = core_base + h - 1;
            let apply_relu = relu && h == 1;
            let outcome = if walk {
                let mut read_weights =
                    |rt: usize, col: usize| weight_sram.read_column(core_idx, rt, col);
                let src_ref = &mut *src;
                // Reads are sequential rows of the (already transformed)
                // stored matrix — the payoff of the write-side ReArrange.
                let mut read_acts = |gcol: usize, pt: usize| -> (Vec<i16>, u64) {
                    let mut positions = Vec::with_capacity(n_pe);
                    let mut live = Vec::with_capacity(n_pe);
                    for j in 0..n_pe {
                        let col = pt * n_pe + j;
                        if col < vc_total {
                            positions.push((gcol, col));
                            live.push(j);
                        }
                    }
                    let (vals, cycles) = src_ref.read_gather(&positions);
                    let mut row = vec![0i16; n_pe];
                    for (v, &j) in vals.into_iter().zip(&live) {
                        row[j] = v;
                    }
                    (row, cycles)
                };
                let dst_ref = &mut *dst;
                let tmap_ref = &tmap_out;
                let mut write_block = |rt: usize, pt: usize, block: &[Vec<i16>]| {
                    let live_rows = (gr - rt * n_mac).min(n_mac);
                    let mut items = Vec::with_capacity(live_rows * n_pe);
                    for j in 0..n_pe {
                        let col = pt * n_pe + j;
                        if col >= vc_total {
                            continue;
                        }
                        let (blk, q_local) = (col / vc, col % vc);
                        for (i, row) in block.iter().enumerate().take(live_rows) {
                            let mut v = row[j];
                            if apply_relu && v < 0 {
                                v = 0;
                            }
                            let (pr, qc) = match tmap_ref {
                                Some(t) => t.map(rt * n_mac + i, q_local),
                                None => (rt * n_mac + i, q_local),
                            };
                            items.push((pr, blk * out_block_cols + qc, v));
                        }
                    }
                    dst_ref.write_scatter(&items);
                };
                self.pe.run_stage(
                    gr,
                    gc,
                    vc_total,
                    &mut read_weights,
                    &mut read_acts,
                    &mut write_block,
                    prod_shift,
                    out_shift,
                    self.config.pass_overhead_cycles,
                )
            } else {
                // Fused fast path: the whole stage as one quantized GEMM
                // over the batch, bit-identical to the walk (same
                // ascending-k MAC order, same 24-bit clamp and
                // requantization — see `tie_quant::qmatmul`), with the
                // ReArrange evaluated inside the GEMM's write loop: every
                // produced code is stored straight at its transformed
                // position in the destination SRAM. No stage scratch, no
                // replay copy — the cycle/traffic model is fed the
                // closed-form activity counts of the Fig. 7 schedule.
                let row_tiles = gr.div_ceil(n_mac);
                let pe_tiles = vc_total.div_ceil(n_pe);
                debug_assert_eq!(
                    src.dims(),
                    (gc, vc_total),
                    "stage source must be the transformed V'_{{h+1}} matrix"
                );
                let dmap = match &tmap_out {
                    Some(_) => batched_stage_dest_map(shape, h, batch)?,
                    None => DestMap::identity(gr, vc_total),
                };
                let report = qmatmul_raw_mapped(
                    weight_sram.cores()[core_idx].codes(),
                    src.contents(),
                    gr,
                    gc,
                    vc_total,
                    1,
                    prod_shift,
                    out_shift,
                    dst.contents_mut(),
                    &dmap,
                    // The walk clamps each code before its store; the fused
                    // epilogue clamps the same requantized code, and the
                    // saturation report is taken before it either way.
                    if apply_relu {
                        Activation::Relu
                    } else {
                        Activation::Identity
                    },
                );
                // Traffic the walk would generate: one weight word per
                // (row_tile, pe_tile, gcol) broadcast, one element read
                // per live V' operand. The gathers are same-row
                // consecutive-column reads, so under the skewed banking
                // (validated n_banks >= n_pe) they are conflict-free by
                // construction — zero extra cycles, like the walk.
                weight_sram.charge_reads((row_tiles * pe_tiles * gc) as u64);
                src.charge_reads((row_tiles * gc * vc_total) as u64);
                // Write-word accounting replayed from the map alone: the
                // walk issues one `write_scatter` per (row-tile, pe-tile)
                // pass and pays one word per distinct bank that pass
                // touches. Same positions, same counts — no data moves.
                let w_cols = out_block_cols * batch;
                let mut banks = vec![false; self.config.working_sram_banks];
                let mut words = 0u64;
                for rt in 0..row_tiles {
                    let live_rows = (gr - rt * n_mac).min(n_mac);
                    for pt in 0..pe_tiles {
                        banks.fill(false);
                        for j in 0..n_pe {
                            let col = pt * n_pe + j;
                            if col >= vc_total {
                                continue;
                            }
                            for i in 0..live_rows {
                                let flat = dmap.offset(rt * n_mac + i, col);
                                let pr = flat / w_cols;
                                let bank = dst.bank_of(pr, flat - pr * w_cols);
                                if !banks[bank] {
                                    banks[bank] = true;
                                    words += 1;
                                }
                            }
                        }
                    }
                }
                dst.charge_writes(words);
                StageOutcome {
                    cycles: (row_tiles * pe_tiles) as u64
                        * (gc as u64 + self.config.pass_overhead_cycles),
                    macs: (gr * gc * vc_total) as u64,
                    acc_saturations: report.acc_saturations,
                    out_saturations: report.out_saturations,
                }
            };
            stats.stages.push(StageStats {
                h,
                cycles: outcome.cycles,
                macs: outcome.macs,
                weight_word_reads: self.weight_sram.reads() - w0,
                act_reads: src.reads() - r0,
                act_writes: dst.writes(),
                conflict_cycles: src.conflict_extra_cycles() - c0,
                acc_saturations: outcome.acc_saturations,
                out_saturations: outcome.out_saturations,
            });
            dst.reset_counters();
            in_format = out_format;
        }

        // Drain V_1 blocks from the final working SRAM and gather each
        // sample's output.
        let m = shape.num_rows();
        let final_sram = &self.working[d % 2];
        let (rows, cols) = final_sram.dims();
        let m1 = shape.row_modes[0];
        let v1_cols = m / m1;
        debug_assert_eq!(rows, m1);
        let mut ys = Tensor::<f64>::zeros(vec![m, batch]);
        for b in 0..batch {
            let mut v1 = Tensor::<f64>::zeros(vec![m1, v1_cols]);
            for r in 0..m1 {
                in_format.dequantize_into(
                    &final_sram.contents()[r * cols + b * v1_cols..][..v1_cols],
                    &mut v1.data_mut()[r * v1_cols..][..v1_cols],
                );
            }
            let y = assemble_output(&v1, shape)?;
            for r in 0..m {
                ys.data_mut()[r * batch + b] = y.data()[r];
            }
        }
        Ok((ys, stats))
    }

    /// Loads a whole TT network (layers executed back-to-back) into the
    /// weight SRAM at once — the paper's deployment model for the
    /// FC6+FC7-style stacks its 16 KB budget is sized for.
    ///
    /// # Errors
    ///
    /// Returns capacity errors if the combined cores (or any layer's peak
    /// intermediate) exceed the budgets, plus shape errors for
    /// incompatible consecutive layers (`rows(i) != cols(i+1)`).
    pub fn load_network(&mut self, matrices: Vec<TtMatrix<f64>>) -> Result<LoadedNetwork> {
        if matrices.is_empty() {
            return Err(TensorError::InvalidArgument {
                message: "network needs at least one layer".into(),
            });
        }
        for w in matrices.windows(2) {
            if w[0].shape().num_rows() != w[1].shape().num_cols() {
                return Err(TensorError::ShapeMismatch {
                    left: vec![w[0].shape().num_rows()],
                    right: vec![w[1].shape().num_cols()],
                });
            }
        }
        let mut layers = Vec::with_capacity(matrices.len());
        let mut bases = Vec::with_capacity(matrices.len());
        let mut all_cores = Vec::new();
        let mut base = 0usize;
        // One-shot calibration probes chain through the stack: layer i+1
        // is calibrated on layer i's probe outputs, so every layer sees
        // realistic input amplitudes.
        let mut probes = if self.one_shot() {
            let q = &self.config.quant;
            probe_vectors(
                q.probe_seed,
                q.probe_count,
                matrices[0].shape().num_cols(),
                q.probe_amplitude,
            )?
        } else {
            Vec::new()
        };
        for matrix in matrices {
            let shape = matrix.shape().clone();
            let plan = InferencePlan::new(&shape)?;
            if plan.max_intermediate_elems() > self.config.working_capacity_elems() {
                return Err(TensorError::InvalidArgument {
                    message: format!(
                        "layer {shape}: peak intermediate {} exceeds working SRAM {}",
                        plan.max_intermediate_elems(),
                        self.config.working_capacity_elems()
                    ),
                });
            }
            let engine = CompactEngine::new(matrix)?;
            let mut formats = Vec::with_capacity(shape.ndim());
            for g in engine.unfolded_cores() {
                let q = if self.config.quant.calibrate_weights && g.max_abs() > 0.0 {
                    QTensor::quantize_calibrated(g)?
                } else {
                    QTensor::quantize(g, self.config.quant.weight_format)
                };
                formats.push(q.format());
                all_cores.push(q);
            }
            let (input_format, stage_formats, input_max, stage_max, probe_outputs) =
                self.calibrate_layer(&engine, &probes)?;
            probes = probe_outputs;
            bases.push(base);
            base += shape.ndim();
            layers.push(LoadedLayer {
                shape,
                plan,
                weight_formats: formats,
                engine,
                input_format,
                stage_formats,
                input_max,
                stage_max,
            });
        }
        self.weight_sram.load(all_cores)?;
        Ok(LoadedNetwork { layers, bases })
    }

    /// Runs a whole loaded network: layers execute back-to-back, with the
    /// PE activation units (ReLU) applied between layers when
    /// `relu_between` is set (never after the last layer, matching the
    /// usual classifier-head convention).
    ///
    /// Returns the final output plus per-layer statistics.
    ///
    /// # Errors
    ///
    /// As [`TieAccelerator::run`], per layer.
    pub fn run_network(
        &mut self,
        net: &LoadedNetwork,
        x: &Tensor<f64>,
        relu_between: bool,
    ) -> Result<(Tensor<f64>, Vec<RunStats>)> {
        let mut v = x.clone();
        let mut all_stats = Vec::with_capacity(net.layers.len());
        let last = net.layers.len() - 1;
        for (i, (layer, &base)) in net.layers.iter().zip(&net.bases).enumerate() {
            let relu = relu_between && i < last;
            let (y, stats) = self.run_layer(layer, &v, relu, base)?;
            all_stats.push(stats);
            v = y;
        }
        Ok((v, all_stats))
    }

    /// Convenience: analytic cycle prediction for a layout on this
    /// configuration, ignoring bank conflicts — the closed-form tiling
    /// model the tests compare the simulator against:
    /// `Σ_h ceil(R_h/N_MAC) · ceil(W_h/N_PE) · (C_h + overhead)`.
    /// Delegates to [`tie_core::CostModel`] (via
    /// [`TieConfig::cost_model`]), so planner-side scoring and the
    /// simulator can never drift apart.
    pub fn predict_cycles(&self, plan: &InferencePlan) -> u64 {
        self.config.cost_model().total_cycles(plan, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_quant::error_stats;
    use tie_tensor::init;

    fn accel() -> TieAccelerator {
        TieAccelerator::new(TieConfig::default()).unwrap()
    }

    fn random_layer(seed: u64, shape: &TtShape) -> TtMatrix<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TtMatrix::random(&mut rng, shape, 0.5).unwrap()
    }

    #[test]
    fn simulator_matches_float_reference_closely() {
        let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 4).unwrap();
        let layer = random_layer(200, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(201);
        let x: Tensor<f64> = init::uniform(&mut rng, vec![64], 1.0);
        let (y_ref, _) = loaded.reference().matvec(&x).unwrap();
        let (y_sim, stats) = tie.run(&loaded, &x, false).unwrap();
        let s = error_stats(&y_sim, &y_ref).unwrap();
        assert!(
            s.sqnr_db > 40.0,
            "16-bit datapath should track float: SQNR {} dB, rmse {}",
            s.sqnr_db,
            s.rmse
        );
        assert_eq!(stats.saturations(), 0, "calibrated run must not saturate");
    }

    #[test]
    fn cycle_count_matches_analytic_model_when_conflict_free() {
        let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap(); // FC7
        let layer = random_layer(202, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let x = Tensor::<f64>::filled(vec![4096], 0.01).unwrap();
        let (_, stats) = tie.run(&loaded, &x, false).unwrap();
        let predicted = tie.predict_cycles(loaded.plan());
        let conflicts: u64 = stats.stages.iter().map(|s| s.conflict_cycles).sum();
        assert_eq!(
            stats.cycles(),
            predicted + conflicts,
            "cycles = tiling model + serialized conflicts"
        );
    }

    #[test]
    fn fc7_latency_lands_in_the_paper_regime() {
        // Sanity-anchor for Table 8: TIE's dense-equivalent throughput on
        // FC7 must be in the several-TOPS range at 1 GHz.
        let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
        let layer = random_layer(203, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let x = Tensor::<f64>::filled(vec![4096], 0.01).unwrap();
        let (_, stats) = tie.run(&loaded, &x, false).unwrap();
        let tops =
            stats.equivalent_ops_per_sec(loaded.plan().dense_equivalent_ops(), 1000.0) / 1e12;
        assert!(
            (2.0..20.0).contains(&tops),
            "FC7 equivalent throughput {tops:.2} TOPS out of expected range"
        );
    }

    #[test]
    fn macs_match_plan_mul_count() {
        let shape = TtShape::uniform_rank(vec![2, 3, 2], vec![3, 2, 2], 3).unwrap();
        let layer = random_layer(204, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let x = Tensor::<f64>::filled(vec![12], 0.1).unwrap();
        let (_, stats) = tie.run(&loaded, &x, false).unwrap();
        assert_eq!(
            stats.macs(),
            loaded.plan().total_muls(),
            "real MACs must equal the compact-scheme multiply count"
        );
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let shape = TtShape::uniform_rank(vec![2, 2], vec![2, 2], 2).unwrap();
        let layer = random_layer(205, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(206);
        let x: Tensor<f64> = init::uniform(&mut rng, vec![4], 1.0);
        let (y_lin, _) = tie.run(&loaded, &x, false).unwrap();
        let (y_relu, _) = tie.run(&loaded, &x, true).unwrap();
        assert!(
            y_lin.data().iter().any(|&v| v < 0.0),
            "test needs a negative output"
        );
        for (a, b) in y_lin.data().iter().zip(y_relu.data()) {
            let want = a.max(0.0);
            assert!((want - b).abs() < 1e-9 + want.abs() * 1e-6);
        }
    }

    #[test]
    fn oversized_layer_is_rejected_by_weight_sram() {
        // Huge ranks blow the 16 KB weight budget.
        let shape = TtShape::uniform_rank(vec![8, 8], vec![8, 8], 64).unwrap();
        let layer = random_layer(207, &shape);
        let mut tie = accel();
        assert!(tie.load_layer(layer).is_err());
    }

    #[test]
    fn paper_benchmarks_fit_the_prototype_srams() {
        // The Table 4 workloads must fit the Table 5 budget — the paper's
        // sizing claim.
        for (m, n) in [
            (vec![4usize; 6], vec![2usize, 7, 8, 8, 7, 4]), // FC6
            (vec![4; 6], vec![4; 6]),                       // FC7
            (vec![4; 4], vec![8, 20, 20, 18]),              // LSTM-UCF11
            (vec![4; 4], vec![4, 20, 20, 36]),              // LSTM-Youtube
        ] {
            let shape = TtShape::uniform_rank(m, n, 4).unwrap();
            let layer = random_layer(208, &shape);
            let mut tie = accel();
            assert!(
                tie.load_layer(layer).is_ok(),
                "workload {shape} should fit the prototype"
            );
        }
    }

    #[test]
    fn pass_overhead_charges_per_tile_pass() {
        let shape = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
        let layer0 = random_layer(250, &shape);
        let x = Tensor::<f64>::filled(vec![4096], 0.01).unwrap();
        let mut ideal = accel();
        let l0 = ideal.load_layer(layer0.clone()).unwrap();
        let (_, s0) = ideal.run(&l0, &x, false).unwrap();
        let cfg = TieConfig {
            pass_overhead_cycles: 3,
            ..TieConfig::default()
        };
        let mut real = TieAccelerator::new(cfg).unwrap();
        let l1 = real.load_layer(layer0).unwrap();
        let (_, s1) = real.run(&l1, &x, false).unwrap();
        assert_eq!(s1.cycles(), real.predict_cycles(l1.plan()));
        // FC7: 6 stages x (1 row tile x 64 pe tiles) = 384 passes.
        assert_eq!(s1.cycles(), s0.cycles() + 3 * 384);
    }

    #[test]
    fn run_batch_matches_per_sample_runs() {
        let shape = TtShape::uniform_rank(vec![3, 3], vec![4, 4], 3).unwrap();
        let layer_m = random_layer(240, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer_m).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(241);
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![16, 5], 1.0);
        let (ys, _) = tie.run_batch(&loaded, &xs, false).unwrap();
        for b in 0..5 {
            let x = xs.cols(b, b + 1).unwrap().reshaped(vec![16]).unwrap();
            let (want_f, _) = loaded.reference().matvec(&x).unwrap();
            let got = ys.cols(b, b + 1).unwrap().reshaped(vec![9]).unwrap();
            assert!(
                got.relative_error(&want_f).unwrap() < 2e-2,
                "batch column {b} diverges"
            );
        }
    }

    #[test]
    fn run_batch_cycles_match_batched_tiling_model() {
        // The Table 9 analytic model (ceil over v_cols·B) must equal the
        // cycle-accurate simulator on a batched run.
        let shape = TtShape::uniform_rank(vec![4, 4], vec![4, 4], 4).unwrap();
        let layer_m = random_layer(242, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer_m).unwrap();
        let batch = 7usize;
        let xs = Tensor::<f64>::filled(vec![16, batch], 0.05).unwrap();
        let (_, stats) = tie.run_batch(&loaded, &xs, false).unwrap();
        let predicted: u64 = loaded
            .plan()
            .stages()
            .iter()
            .map(|st| {
                (st.gtilde_rows.div_ceil(16) * (st.v_cols * batch).div_ceil(16) * st.gtilde_cols)
                    as u64
            })
            .sum();
        let conflicts: u64 = stats.stages.iter().map(|s| s.conflict_cycles).sum();
        assert_eq!(stats.cycles(), predicted + conflicts);
        // Batching amortizes padding: per-sample cost strictly below B
        // single runs.
        let x1 = Tensor::<f64>::filled(vec![16], 0.05).unwrap();
        let (_, single) = tie.run(&loaded, &x1, false).unwrap();
        assert!(stats.cycles() < single.cycles() * batch as u64);
    }

    #[test]
    fn run_batch_rejects_oversized_batches() {
        // FC6's peak intermediate is ~100k elements; a batch of 3 cannot
        // fit the 196k-element working SRAM copy.
        let shape = TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap();
        let layer_m = random_layer(243, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer_m).unwrap();
        let xs = Tensor::<f64>::filled(vec![25088, 3], 0.01).unwrap();
        assert!(tie.run_batch(&loaded, &xs, false).is_err());
    }

    #[test]
    fn network_of_two_layers_matches_reference_chain() {
        // FC7-style pair: 256 -> 256 -> 256 with ReLU in between.
        let shape = TtShape::uniform_rank(vec![4; 4], vec![4; 4], 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(210);
        let l1 = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
        let l2 = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
        let e1 = tie_core::CompactEngine::new(l1.clone()).unwrap();
        let e2 = tie_core::CompactEngine::new(l2.clone()).unwrap();
        let x: Tensor<f64> = init::uniform(&mut rng, vec![256], 1.0);
        // Float reference: y2 = W2 · relu(W1 · x).
        let (h, _) = e1.matvec(&x).unwrap();
        let h_relu = h.map(|v| v.max(0.0));
        let (want, _) = e2.matvec(&h_relu).unwrap();

        let mut tie = accel();
        let net = tie.load_network(vec![l1, l2]).unwrap();
        assert_eq!(net.layers().len(), 2);
        let (got, stats) = tie.run_network(&net, &x, true).unwrap();
        assert_eq!(stats.len(), 2);
        let err = got.relative_error(&want).unwrap();
        assert!(err < 2e-2, "network output err {err}");
        assert!(stats.iter().all(|s| s.cycles() > 0));
    }

    #[test]
    fn network_rejects_incompatible_and_oversized_stacks() {
        let mut tie = accel();
        assert!(tie.load_network(vec![]).is_err());
        // 16 -> 16 followed by a layer expecting 64 inputs: mismatch.
        let a = random_layer(
            211,
            &TtShape::uniform_rank(vec![4, 4], vec![4, 4], 2).unwrap(),
        );
        let b = random_layer(
            212,
            &TtShape::uniform_rank(vec![4, 4], vec![8, 8], 2).unwrap(),
        );
        assert!(tie.load_network(vec![a.clone(), b]).is_err());
        // Too many layers for the 16 KB weight SRAM (each 256->256 r=4
        // layer pads to 832 elements; 12 of them exceed 8192).
        let big = TtShape::uniform_rank(vec![4; 4], vec![4; 4], 4).unwrap();
        let stack: Vec<TtMatrix<f64>> = (0..12).map(|i| random_layer(220 + i, &big)).collect();
        assert!(tie.load_network(stack).is_err());
        // A single layer still loads fine afterwards.
        assert!(tie.load_layer(a).is_ok());
    }

    #[test]
    fn fc6_fc7_pair_fits_the_paper_budget_together() {
        // The paper's "sufficient for most TT-DNN models" claim: both VGG
        // TT FC layers resident at once.
        let fc6 = TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap();
        let fc7 = TtShape::uniform_rank(vec![4; 6], vec![4; 6], 4).unwrap();
        let mut tie = accel();
        // FC6 (25088 -> 4096) feeding FC7 (4096 -> 4096): the real VGG order.
        let net = tie
            .load_network(vec![random_layer(230, &fc6), random_layer(231, &fc7)])
            .unwrap();
        assert_eq!(net.total_params(), fc6.num_params() + fc7.num_params());
    }

    #[test]
    fn conflict_cycles_are_small_for_paper_workloads() {
        // The Algorithm-2 banking claim: permuted reads are (near)
        // conflict-free on the real workloads.
        let shape = TtShape::uniform_rank(vec![4; 4], vec![4, 20, 20, 36], 4).unwrap();
        let layer = random_layer(209, &shape);
        let mut tie = accel();
        let loaded = tie.load_layer(layer).unwrap();
        let x = Tensor::<f64>::filled(vec![57600], 0.001).unwrap();
        let (_, stats) = tie.run(&loaded, &x, false).unwrap();
        let conflicts: u64 = stats.stages.iter().map(|s| s.conflict_cycles).sum();
        let frac = conflicts as f64 / stats.cycles() as f64;
        assert!(
            frac < 0.05,
            "bank conflicts should be rare: {frac:.3} of cycles"
        );
    }
}
