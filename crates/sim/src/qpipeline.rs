//! Pipeline-parallel execution for the quantized engine, and the unified
//! [`PipelinedEngine`] serving backend.
//!
//! [`QuantChain`] is the [`StageChain`] counterpart of
//! [`tie_core::pipeline::FloatChain`]: it shares the [`QuantizedEngine`]'s
//! quantized cores, fused write epilogues, and construction-frozen
//! activation formats, with the per-stage fixed-point alignment shifts
//! resolved once up front. Because `qmatmul`'s lane arithmetic is
//! independent of the batch width and the saturation counters are
//! per-output-element, a chunked pipelined pass produces codes **and** a
//! [`QMatmulReport`] bit-identical to the sequential engine.
//!
//! [`PipelinedEngine`] wraps either chain behind one serving-facing type
//! so `tie-serve` can register a pipelined float or quantized layer the
//! same way it registers the sequential ones.

use tie_core::pipeline::{
    FloatChain, PipeRunStats, PipelineConfig, StageChain, StageCounterSnapshot, StagePipeline,
};
use tie_core::{Activation, CompactEngine, CutPlan, InferencePlan};
use tie_quant::{alignment, qmatmul_raw_mapped, QFormat, QMatmulReport, QTensor};
use tie_tensor::linalg::DestMap;
use tie_tensor::Result;
use tie_tt::inference::OpCount;

use crate::qengine::QuantizedEngine;

/// [`StageChain`] over the 16-bit fixed-point compact scheme (module
/// docs). Built from — and bit-identical to — a [`QuantizedEngine`].
#[derive(Debug, Clone)]
pub struct QuantChain {
    plan: InferencePlan,
    cores: Vec<QTensor>,
    dest_maps: Vec<DestMap>,
    prep_run: usize,
    prep_src_starts: Vec<usize>,
    /// Per-stage `(prod_shift, out_shift)` in execution order — the same
    /// [`alignment`] results the sequential engine resolves per call,
    /// frozen here because the stage formats are construction-frozen.
    shifts: Vec<(u32, u32)>,
    input_format: QFormat,
    output_format: QFormat,
    rows: usize,
    cols: usize,
    /// Final-stage fused activation, copied from the engine — applied
    /// inside the last stage's requantization epilogue at any cut.
    activation: Activation,
}

impl QuantChain {
    /// Builds the chain from a calibrated engine (shares the quantized
    /// cores; no float reference work happens here or later).
    ///
    /// # Errors
    ///
    /// None in practice — kept fallible for parity with
    /// [`FloatChain::new`].
    pub fn new(engine: &QuantizedEngine) -> Result<Self> {
        let plan = engine.plan().clone();
        let mut shifts = Vec::with_capacity(plan.stages().len());
        let mut in_format = engine.input_format();
        for (idx, stage) in plan.stages().iter().enumerate() {
            let out_format = engine.stage_formats()[idx];
            shifts.push(alignment(
                engine.cores()[stage.h - 1].format(),
                in_format,
                out_format,
            ));
            in_format = out_format;
        }
        let prep = engine.prep_plan();
        Ok(QuantChain {
            cores: engine.cores().to_vec(),
            dest_maps: engine.dest_maps().to_vec(),
            prep_run: prep.run,
            prep_src_starts: prep.src_starts.clone(),
            shifts,
            input_format: engine.input_format(),
            output_format: *engine.stage_formats().last().expect("d >= 1"),
            rows: engine.num_rows(),
            cols: engine.num_cols(),
            activation: engine.activation(),
            plan,
        })
    }
}

impl StageChain for QuantChain {
    type Code = i16;
    type Report = QMatmulReport;

    fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    fn num_rows(&self) -> usize {
        self.rows
    }

    fn num_cols(&self) -> usize {
        self.cols
    }

    fn prepare(&self, xs: &[f64], b: usize, c0: usize, w: usize, dst: &mut [i16]) {
        // Quantize-on-copy into the Eqn. (8) layout, restricted to the
        // chunk's columns — the same element-wise quantize the sequential
        // engine applies, so the codes agree bit-for-bit.
        let run = self.prep_run;
        let fmt = self.input_format;
        if run * w == 1 {
            // Single-element blocks: a plain gather, as in the sequential
            // engine.
            for (d, &src) in dst.iter_mut().zip(&self.prep_src_starts) {
                *d = fmt.quantize(xs[src * b + c0]);
            }
            return;
        }
        for (i, &src) in self.prep_src_starts.iter().enumerate() {
            for e in 0..run {
                let d0 = (i * run + e) * w;
                let s0 = (src + e) * b + c0;
                fmt.quantize_into(&xs[s0..][..w], &mut dst[d0..][..w]);
            }
        }
    }

    fn run_stage(
        &self,
        idx: usize,
        input: &[i16],
        output: &mut [i16],
        w: usize,
        report: &mut QMatmulReport,
    ) -> Result<()> {
        let stage = &self.plan.stages()[idx];
        let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
        let (prod_shift, out_shift) = self.shifts[idx];
        let act = if idx + 1 == self.plan.stages().len() {
            self.activation
        } else {
            Activation::Identity
        };
        let stage_report = qmatmul_raw_mapped(
            self.cores[stage.h - 1].codes(),
            &input[..k * cols * w],
            rows,
            k,
            cols,
            w,
            prod_shift,
            out_shift,
            &mut output[..rows * cols * w],
            &self.dest_maps[idx],
            act,
        );
        *report = report.merged(&stage_report);
        Ok(())
    }

    fn finish(&self, codes: &[i16], ys: &mut [f64], b: usize, c0: usize, w: usize) {
        let fmt = self.output_format;
        for o in 0..self.rows {
            fmt.dequantize_into(&codes[o * w..][..w], &mut ys[o * b + c0..][..w]);
        }
    }

    fn merge(into: &mut QMatmulReport, other: &QMatmulReport) {
        *into = into.merged(other);
    }
}

/// Merged accounting of one pipelined batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeReport {
    /// Float arithmetic counters (zero for a quantized pipeline).
    pub ops: OpCount,
    /// Quantized saturation counters (zero for a float pipeline) —
    /// bit-identical to the sequential [`QuantizedEngine`] report.
    pub quant: QMatmulReport,
    /// Scheduling telemetry of the run (chunks, handoffs, stalls).
    pub run: PipeRunStats,
}

#[derive(Debug, Clone)]
enum Inner {
    Float(StagePipeline<FloatChain>),
    Quant(StagePipeline<QuantChain>),
}

/// A float or quantized TT layer executing pipeline-parallel (module
/// docs) — the serving-facing wrapper `tie-serve` registers next to the
/// sequential [`CompactEngine`] / [`QuantizedEngine`].
#[derive(Debug, Clone)]
pub struct PipelinedEngine {
    inner: Inner,
    /// Per-sample traffic of the wrapped engine plus the final-stage park
    /// copy (`M` elements the sequential path writes straight into the
    /// caller's buffer, but a pipeline must stage in its output slab).
    bytes_moved: u64,
    elided: u64,
}

impl PipelinedEngine {
    /// Pipelines a float engine. The chain re-derives the engine's maps
    /// from its shape and clones its unfolded cores — outputs are
    /// bit-identical to [`CompactEngine::matvec_batch_into`].
    ///
    /// # Errors
    ///
    /// Propagates invalid [`PipelineConfig`] values.
    pub fn float(engine: &CompactEngine<f64>, config: PipelineConfig) -> Result<Self> {
        let park = engine.matrix().shape().num_rows() as u64 * std::mem::size_of::<f64>() as u64;
        Ok(PipelinedEngine {
            inner: Inner::Float(StagePipeline::new(FloatChain::new(engine)?, config)?),
            bytes_moved: engine.bytes_moved_per_sample() + park,
            elided: engine.transform_elided_bytes_per_sample(),
        })
    }

    /// Pipelines a quantized engine; codes and saturation counts are
    /// bit-identical to [`QuantizedEngine::matvec_batch_into`].
    ///
    /// # Errors
    ///
    /// Propagates invalid [`PipelineConfig`] values.
    pub fn quantized(engine: &QuantizedEngine, config: PipelineConfig) -> Result<Self> {
        let park = engine.num_rows() as u64 * std::mem::size_of::<i16>() as u64;
        Ok(PipelinedEngine {
            inner: Inner::Quant(StagePipeline::new(QuantChain::new(engine)?, config)?),
            bytes_moved: engine.bytes_moved_per_sample() + park,
            elided: engine.transform_elided_bytes_per_sample(),
        })
    }

    /// Output length `M`.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        match &self.inner {
            Inner::Float(p) => p.chain().num_rows(),
            Inner::Quant(p) => p.chain().num_rows(),
        }
    }

    /// Input length `N`.
    #[must_use]
    pub fn num_cols(&self) -> usize {
        match &self.inner {
            Inner::Float(p) => p.chain().num_cols(),
            Inner::Quant(p) => p.chain().num_cols(),
        }
    }

    /// True when the wrapped datapath is the 16-bit fixed-point one.
    #[must_use]
    pub fn is_quantized(&self) -> bool {
        matches!(self.inner, Inner::Quant(_))
    }

    /// Pipeline stages actually running (requested depth clamped to `d`).
    #[must_use]
    pub fn depth(&self) -> usize {
        match &self.inner {
            Inner::Float(p) => p.depth(),
            Inner::Quant(p) => p.depth(),
        }
    }

    /// Columns per streamed chunk.
    #[must_use]
    pub fn micro_batch(&self) -> usize {
        match &self.inner {
            Inner::Float(p) => p.micro_batch(),
            Inner::Quant(p) => p.micro_batch(),
        }
    }

    /// The planner's chosen cut points.
    #[must_use]
    pub fn cut_plan(&self) -> &CutPlan {
        match &self.inner {
            Inner::Float(p) => p.cut_plan(),
            Inner::Quant(p) => p.cut_plan(),
        }
    }

    /// Cumulative per-stage occupancy/handoff/stall counters.
    #[must_use]
    pub fn stage_counters(&self) -> Vec<StageCounterSnapshot> {
        match &self.inner {
            Inner::Float(p) => p.stage_counters(),
            Inner::Quant(p) => p.stage_counters(),
        }
    }

    /// Bytes moved per sample by pure copying (wrapped engine's input
    /// preparation plus the final-stage park copy).
    #[must_use]
    pub fn bytes_moved_per_sample(&self) -> u64 {
        self.bytes_moved
    }

    /// Bytes of permutation traffic per sample elided by the fused write
    /// epilogues — unchanged by pipelining: cut boundaries reuse the same
    /// composed maps, so no permutation pass reappears.
    #[must_use]
    pub fn transform_elided_bytes_per_sample(&self) -> u64 {
        self.elided
    }

    /// Pipelined batched matvec (`xs` row-major `N × b` batch inner-most,
    /// `ys` `M × b`) — bit-identical to the sequential engine's outputs at
    /// any depth, micro-batch, and pool size.
    ///
    /// # Errors
    ///
    /// Wrong buffer lengths or `b == 0`.
    pub fn matvec_batch_into(&self, xs: &[f64], b: usize, ys: &mut [f64]) -> Result<PipeReport> {
        match &self.inner {
            Inner::Float(p) => {
                let (ops, run) = p.matvec_batch_into(xs, b, ys)?;
                Ok(PipeReport {
                    ops,
                    quant: QMatmulReport::default(),
                    run,
                })
            }
            Inner::Quant(p) => {
                let (quant, run) = p.matvec_batch_into(xs, b, ys)?;
                Ok(PipeReport {
                    ops: OpCount::default(),
                    quant,
                    run,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::{init, Tensor};
    use tie_tt::{TtMatrix, TtShape};

    fn layer(seed: u64) -> TtMatrix<f64> {
        let shape = TtShape::uniform_rank(vec![3, 2, 4], vec![4, 2, 3], 3).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        TtMatrix::random(&mut rng, &shape, 0.5).unwrap()
    }

    #[test]
    fn quant_pipeline_matches_sequential_bitwise_with_reports() {
        let engine = QuantizedEngine::new(layer(40), QuantConfig::default()).unwrap();
        let (n, m) = (engine.num_cols(), engine.num_rows());
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for depth in [1, 2, 3] {
            for micro in [1, 4] {
                let pipe = PipelinedEngine::quantized(
                    &engine,
                    PipelineConfig {
                        depth,
                        micro_batch: micro,
                    },
                )
                .unwrap();
                let b = 6;
                let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
                let mut want = vec![0.0f64; m * b];
                let seq = engine.matvec_batch_into(xs.data(), b, &mut want).unwrap();
                let mut got = vec![0.0f64; m * b];
                let rep = pipe.matvec_batch_into(xs.data(), b, &mut got).unwrap();
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "depth {depth} micro {micro}");
                }
                // Saturation counters are per-output-element: chunk sums
                // must equal the sequential report exactly.
                assert_eq!(rep.quant, seq);
                assert_eq!(rep.run.handoffs, rep.run.chunks * (rep.run.depth - 1));
            }
        }
    }

    #[test]
    fn fused_relu_quant_pipeline_matches_sequential_bitwise() {
        // The final-stage ReLU epilogue must survive pipelining: codes and
        // saturation reports stay bitwise equal to the sequential fused
        // engine at every cut.
        let engine = QuantizedEngine::new(layer(45), QuantConfig::default())
            .unwrap()
            .with_activation(tie_core::Activation::Relu);
        let (n, m) = (engine.num_cols(), engine.num_rows());
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        let b = 5;
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
        let mut want = vec![0.0f64; m * b];
        let seq = engine.matvec_batch_into(xs.data(), b, &mut want).unwrap();
        for depth in [1, 2, 3] {
            let pipe = PipelinedEngine::quantized(
                &engine,
                PipelineConfig {
                    depth,
                    micro_batch: 2,
                },
            )
            .unwrap();
            let mut got = vec![0.0f64; m * b];
            let rep = pipe.matvec_batch_into(xs.data(), b, &mut got).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "depth {depth}");
            }
            assert_eq!(rep.quant, seq);
            assert!(got.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn float_pipeline_engine_matches_compact_engine() {
        let engine = CompactEngine::new(layer(42)).unwrap();
        let shape = engine.matrix().shape();
        let (n, m) = (shape.num_cols(), shape.num_rows());
        let pipe = PipelinedEngine::float(
            &engine,
            PipelineConfig {
                depth: 3,
                micro_batch: 2,
            },
        )
        .unwrap();
        assert!(!pipe.is_quantized());
        assert_eq!((pipe.num_rows(), pipe.num_cols()), (m, n));
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let b = 5;
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
        let mut want = vec![0.0f64; m * b];
        engine.matvec_batch_into(xs.data(), b, &mut want).unwrap();
        let mut got = vec![0.0f64; m * b];
        let rep = pipe.matvec_batch_into(xs.data(), b, &mut got).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(rep.quant, QMatmulReport::default());
        assert!(rep.ops.mults > 0);
    }

    #[test]
    fn pipelined_cycles_model_degenerates_and_overlaps() {
        use crate::stats::{RunStats, StageStats};
        let engine = CompactEngine::new(layer(44)).unwrap();
        let cut2 = tie_core::pipeline::plan_cuts(engine.plan(), 2);
        let cut1 = tie_core::pipeline::plan_cuts(engine.plan(), 1);
        let stages: Vec<StageStats> = engine
            .plan()
            .stages()
            .iter()
            .map(|s| StageStats {
                h: s.h,
                cycles: s.muls(),
                ..StageStats::default()
            })
            .collect();
        let run = RunStats { stages };
        // depth 1 or a single chunk: no overlap, the sequential count.
        assert_eq!(run.pipelined_cycles(&cut1, 8), run.cycles());
        assert_eq!(run.pipelined_cycles(&cut2, 1), run.cycles());
        // Real pipelining strictly helps and is bounded below by the
        // bottleneck stage's share.
        let over = run.pipelined_cycles(&cut2, 8);
        assert!(over < run.cycles());
        assert!(over >= run.cycles().div_ceil(2));
    }
}
