//! Worker threads: take batches from the queue and run them on private
//! engine clones.
//!
//! Each worker holds its own clone of every registered engine (fresh
//! scratch workspace, no shared mutable state — see
//! [`crate::EngineRegistry::clone_engines`]), a reused batch buffer and
//! two reusable interleave buffers, so steady-state batch execution
//! allocates only the per-request output vectors it hands back to
//! callers. A batch of one skips the interleave buffers: its input is
//! already in the engine's layout, and the engine writes straight into
//! the vector that becomes the response.
//!
//! The workers pull from the shared [`Queue`]: each takes the lane whose
//! head request is oldest, runs it outside the queue's lock, and comes
//! back; an idle worker spins for the measured cost of a park before it
//! parks (see the `queue` module). Once the queue is closed the workers
//! drain it and exit, and shutdown joins them.
//!
//! Each worker is a serial executor
//! ([`tie_tensor::parallel::as_serial_executor`]): the service already
//! runs one worker per core, so a worker's kernels run at width 1 and
//! never dispatch to the shared kernel pool, whose wake-up would cost a
//! batch-1 call more than the second core saves (DESIGN.md §11.3).
//!
//! A panic inside an engine call is contained to its batch: the batch is
//! answered with [`ServeError::Engine`], counted in `engine_panics`, and
//! the worker carries on. A panic anywhere else ends the worker thread;
//! its unanswered requests fail as `ShuttingDown` and shutdown counts the
//! thread in `thread_panics`. However a worker ends, it retires from the
//! queue, and the last one out fails whatever is still queued.

use crate::error::ServeError;
use crate::queue::Queue;
use crate::request::{Request, Response};
use crate::stats::StatsCore;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use tie_core::CompactEngine;
use tie_sim::{PipelinedEngine, QuantizedEngine};
use tie_tensor::Result;

/// Per-batch accounting a worker folds into the service stats: the
/// quantized saturation counters (zero on the float datapath) and, for
/// the pipelined backend, the run's scheduling telemetry.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BatchAccounting {
    pub outputs: u64,
    pub acc_saturations: u64,
    pub out_saturations: u64,
    /// `Some` iff the batch ran on a pipelined engine:
    /// `(chunks, stage_chunks, handoffs, send_stalls, recv_stalls)`.
    pub pipeline: Option<(u64, u64, u64, u64, u64)>,
}

/// A worker's private copy of one registered layer: the float reference
/// engine, the bit-accurate fixed-point engine, or the pipeline-parallel
/// wrapper around either. All expose the same batch-inner-most
/// `matvec_batch_into` contract, so the worker loop is backend-agnostic;
/// the quantized and pipelined backends additionally report counters,
/// which the worker folds into the service stats.
#[derive(Debug)]
pub(crate) enum WorkerEngine {
    Float(CompactEngine<f64>),
    Quantized(QuantizedEngine),
    Pipelined(PipelinedEngine),
    /// Fault injection: the wrapped engine, except that a batch whose
    /// first input element is [`PANIC_TRIGGER`] panics inside the call.
    #[cfg(test)]
    Faulty(Box<WorkerEngine>),
}

/// The input value that makes a [`WorkerEngine::Faulty`] engine panic.
#[cfg(test)]
pub(crate) const PANIC_TRIGGER: f64 = 1234.5;

/// The input value that makes response assembly panic, after the engine
/// call and outside its containment.
#[cfg(test)]
pub(crate) const ASSEMBLY_PANIC_TRIGGER: f64 = 4321.5;

impl WorkerEngine {
    /// `(rows M, cols N)` of the layer.
    fn dims(&self) -> (usize, usize) {
        match self {
            WorkerEngine::Float(e) => {
                let shape = e.matrix().shape();
                (shape.num_rows(), shape.num_cols())
            }
            #[cfg(test)]
            WorkerEngine::Faulty(e) => e.dims(),
            WorkerEngine::Quantized(e) => (e.num_rows(), e.num_cols()),
            WorkerEngine::Pipelined(e) => (e.num_rows(), e.num_cols()),
        }
    }

    /// Per-sample copy traffic `(bytes_moved, transform_elided_bytes)`:
    /// what the engine still copies (input preparation) and what its fused
    /// write epilogues no longer re-copy (inter-stage Transform + output
    /// assembly).
    fn traffic_per_sample(&self) -> (u64, u64) {
        match self {
            WorkerEngine::Float(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
            WorkerEngine::Quantized(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
            WorkerEngine::Pipelined(e) => (
                e.bytes_moved_per_sample(),
                e.transform_elided_bytes_per_sample(),
            ),
            #[cfg(test)]
            WorkerEngine::Faulty(e) => e.traffic_per_sample(),
        }
    }

    /// Batched matvec; returns the batch's stats-facing accounting.
    fn matvec_batch_into(&self, xs: &[f64], b: usize, ys: &mut [f64]) -> Result<BatchAccounting> {
        match self {
            WorkerEngine::Float(e) => e
                .matvec_batch_into(xs, b, ys)
                .map(|_ops| BatchAccounting::default()),
            WorkerEngine::Quantized(e) => e.matvec_batch_into(xs, b, ys).map(|r| BatchAccounting {
                outputs: r.outputs,
                acc_saturations: r.acc_saturations,
                out_saturations: r.out_saturations,
                pipeline: None,
            }),
            WorkerEngine::Pipelined(e) => e.matvec_batch_into(xs, b, ys).map(|r| {
                let run = r.run;
                BatchAccounting {
                    outputs: r.quant.outputs,
                    acc_saturations: r.quant.acc_saturations,
                    out_saturations: r.quant.out_saturations,
                    pipeline: Some((
                        run.chunks,
                        // Summed per-stage occupancy of this run: every
                        // chunk occupies every stage exactly once.
                        run.chunks * run.depth,
                        run.handoffs,
                        run.send_stalls,
                        run.recv_stalls,
                    )),
                }
            }),
            #[cfg(test)]
            WorkerEngine::Faulty(e) => {
                assert!(xs[0] != PANIC_TRIGGER, "injected engine fault");
                e.matvec_batch_into(xs, b, ys)
            }
        }
    }
}

/// Retires its worker from the queue when dropped, so a worker that
/// unwinds retires too.
struct Retire<'a>(&'a Queue);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.0.retire_worker();
    }
}

/// Worker thread body: runs batches until the queue is closed and empty.
pub(crate) fn run_worker(
    queue: Arc<Queue>,
    engines: HashMap<String, WorkerEngine>,
    stats: Arc<StatsCore>,
) {
    let _retire = Retire(&queue);
    tie_tensor::parallel::as_serial_executor(|| {
        let mut batch = Vec::new();
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        while queue.next_batch(&mut batch) {
            execute(&engines, &stats, &mut batch, &mut xs, &mut ys);
        }
    });
}

/// Runs one batch of one layer's requests through `matvec_batch_into`
/// and answers every request, leaving `batch` empty.
///
/// The inputs are interleaved batch-inner-most (`xs[j * b + c]` is element
/// `j` of request `c`) to match the engine's batched layout, which keeps
/// the batched pass **bitwise identical** to `b` independent single-input
/// calls (the property suite proves this for both backends). At `b = 1`
/// that layout is the request's own input, so it goes to the engine as
/// is, and the engine's output vector is handed to the response.
fn execute(
    engines: &HashMap<String, WorkerEngine>,
    stats: &StatsCore,
    batch: &mut Vec<Request>,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) {
    let Some(engine) = engines.get(&*batch[0].layer) else {
        // Unreachable in practice: clients validate the layer name against
        // the registry before submitting. Answer rather than panic.
        for req in batch.drain(..) {
            let layer = req.layer.to_string();
            req.respond(Err(ServeError::UnknownLayer(layer)));
        }
        return;
    };
    let (m, n) = engine.dims();
    let b = batch.len();

    let mut single = Vec::new();
    let (input, output): (&[f64], &mut [f64]) = if b == 1 {
        single.resize(m, 0.0);
        (&batch[0].input, &mut single)
    } else {
        xs.clear();
        xs.resize(n * b, 0.0);
        for (c, req) in batch.iter().enumerate() {
            for (j, &v) in req.input.iter().enumerate() {
                xs[j * b + c] = v;
            }
        }
        ys.clear();
        ys.resize(m * b, 0.0);
        (xs, ys)
    };

    // The buffers are plain scratch, fully rewritten before every call, so
    // a panic mid-call leaves nothing the next batch could observe.
    let call = || engine.matvec_batch_into(input, b, output);
    let result = match catch_unwind(AssertUnwindSafe(call)) {
        Ok(result) => result.map_err(|e| ServeError::Engine(e.to_string())),
        Err(payload) => {
            stats.record_engine_panic();
            Err(ServeError::Engine(format!(
                "engine panicked: {}",
                panic_message(payload.as_ref())
            )))
        }
    };
    match result {
        Ok(acct) => {
            if acct.outputs > 0 {
                stats.record_quant(acct.outputs, acct.acc_saturations, acct.out_saturations);
            }
            if let Some((chunks, stage_chunks, handoffs, send_stalls, recv_stalls)) = acct.pipeline
            {
                stats.record_pipeline(chunks, stage_chunks, handoffs, send_stalls, recv_stalls);
            }
            let (moved, elided) = engine.traffic_per_sample();
            stats.record_traffic(moved * b as u64, elided * b as u64);
            for (c, req) in batch.drain(..).enumerate() {
                #[cfg(test)]
                assert!(
                    req.input.first() != Some(&ASSEMBLY_PANIC_TRIGGER),
                    "injected response-assembly fault"
                );
                let output: Vec<f64> = if b == 1 {
                    std::mem::take(&mut single)
                } else {
                    (0..m).map(|r| ys[r * b + c]).collect()
                };
                let latency = req.submitted_at.elapsed();
                req.respond(Ok(Response {
                    output,
                    batch_size: b,
                    latency,
                }));
            }
        }
        Err(err) => {
            for req in batch.drain(..) {
                req.respond(Err(err.clone()));
            }
        }
    }
}

/// The message of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EngineRegistry;
    use crate::request::Request;
    use crate::stats::StatsCore;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tie_tt::{TtMatrix, TtShape};

    fn registry(seed: u64) -> EngineRegistry {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let engine = CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.5).unwrap()).unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine);
        reg
    }

    #[test]
    fn batch_results_match_direct_single_calls_bitwise() {
        let reg = registry(7);
        let stats = Arc::new(StatsCore::new());
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let engine = reg.get("fc").unwrap();
        let n = engine.matrix().shape().num_cols();

        let inputs: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for input in &inputs {
            let (req, ticket) = Request::new("fc".into(), input.clone(), Arc::clone(&stats));
            requests.push(req);
            tickets.push(ticket);
        }
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        execute(
            &reg.worker_engines(),
            &stats,
            &mut requests,
            &mut xs,
            &mut ys,
        );
        assert!(requests.is_empty());

        let m = engine.matrix().shape().num_rows();
        for (input, ticket) in inputs.iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            assert_eq!(resp.batch_size, 5);
            let mut direct = vec![0.0; m];
            engine.matvec_into(input, &mut direct).unwrap();
            assert_eq!(
                resp.output, direct,
                "batched response must be bit-identical"
            );
        }
        let s = stats.snapshot();
        assert_eq!(s.completed, 5);
        assert_eq!(s.bytes_moved, 5 * engine.bytes_moved_per_sample());
        assert_eq!(
            s.transform_elided_bytes,
            5 * engine.transform_elided_bytes_per_sample()
        );
        assert!(s.transform_elided_fraction() > 0.0);
    }

    #[test]
    fn batch_of_one_is_bit_identical_and_contains_an_engine_panic() {
        let reg = registry(11);
        let stats = Arc::new(StatsCore::new());
        let engine = reg.get("fc").unwrap();
        let (m, n) = (
            engine.matrix().shape().num_rows(),
            engine.matrix().shape().num_cols(),
        );
        let mut engines = reg.worker_engines();
        let fc = engines.remove("fc").unwrap();
        engines.insert("fc".into(), WorkerEngine::Faulty(Box::new(fc)));
        let one = |input: Vec<f64>| {
            let (req, ticket) = Request::new("fc".into(), input, Arc::clone(&stats));
            // Scratch left over from a wider batch must not leak into a
            // batch of one, which uses neither buffer.
            let (mut xs, mut ys) = (vec![f64::NAN; 4 * n], vec![f64::NAN; 4 * m]);
            execute(&engines, &stats, &mut vec![req], &mut xs, &mut ys);
            ticket.wait()
        };

        let mut poisoned = vec![0.5; n];
        poisoned[0] = PANIC_TRIGGER;
        assert!(matches!(
            one(poisoned),
            Err(ServeError::Engine(msg)) if msg.starts_with("engine panicked")
        ));

        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for _ in 0..3 {
            let input: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let resp = one(input.clone()).unwrap();
            assert_eq!(resp.batch_size, 1);
            let mut direct = vec![0.0; m];
            engine.matvec_into(&input, &mut direct).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&resp.output), bits(&direct));
        }
        let s = stats.snapshot();
        assert_eq!((s.completed, s.failed, s.engine_panics), (3, 1, 1));
        assert_eq!(s.bytes_moved, 3 * engine.bytes_moved_per_sample());
    }

    #[test]
    fn unknown_layer_answers_every_request() {
        let reg = registry(8);
        let stats = Arc::new(StatsCore::new());
        let (req, ticket) = Request::new("nope".into(), vec![0.0; 6], Arc::clone(&stats));
        execute(
            &reg.worker_engines(),
            &stats,
            &mut vec![req],
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert!(matches!(ticket.wait(), Err(ServeError::UnknownLayer(_))));
        assert_eq!(stats.snapshot().failed, 1);
    }

    #[test]
    fn worker_drains_a_closed_queue_exits_and_retires() {
        let reg = registry(9);
        let stats = Arc::new(StatsCore::new());
        let queue = Arc::new(Queue::new(8, 2, 1, Arc::clone(&stats)));
        let tickets: Vec<_> = (0..3)
            .map(|_| {
                let (req, ticket) = Request::new("fc".into(), vec![0.5; 6], Arc::clone(&stats));
                queue.push(req, false).unwrap();
                ticket
            })
            .collect();
        queue.close();
        run_worker(Arc::clone(&queue), reg.worker_engines(), Arc::clone(&stats));
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let s = stats.snapshot();
        assert_eq!((s.completed, s.batches, s.drain_batches), (3, 2, 2));
    }

    #[test]
    fn pipelined_batch_matches_direct_engine_and_reconciles_counters() {
        use tie_core::PipelineConfig;
        use tie_sim::{PipelinedEngine, QuantConfig, QuantizedEngine};
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let shape = TtShape::uniform_rank(vec![2, 3, 2], vec![2, 3, 2], 2).unwrap();
        let qengine = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        let pipelined = PipelinedEngine::quantized(
            &qengine,
            PipelineConfig {
                depth: 3,
                micro_batch: 1,
            },
        )
        .unwrap();
        let depth = pipelined.depth() as u64;
        let mut reg = EngineRegistry::new();
        reg.insert_pipelined("pfc", pipelined);
        let stats = Arc::new(StatsCore::new());

        let b = 5usize;
        let inputs: Vec<Vec<f64>> = (0..b)
            .map(|_| (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for input in &inputs {
            let (req, ticket) = Request::new("pfc".into(), input.clone(), Arc::clone(&stats));
            requests.push(req);
            tickets.push(ticket);
        }
        execute(
            &reg.worker_engines(),
            &stats,
            &mut requests,
            &mut Vec::new(),
            &mut Vec::new(),
        );

        for (input, ticket) in inputs.iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            let mut direct = vec![0.0; 12];
            qengine.matvec_batch_into(input, 1, &mut direct).unwrap();
            assert_eq!(resp.output, direct, "pipelined batch must be bit-identical");
        }
        let s = stats.snapshot();
        assert_eq!(s.completed, b as u64);
        assert!(
            s.quant_outputs > 0,
            "quantized pipeline feeds quant counters"
        );
        // Stall counters reconcile exactly against handoffs.
        assert_eq!(s.pipeline_batches, 1);
        assert_eq!(s.pipeline_chunks, b as u64);
        assert_eq!(s.pipeline_handoffs, b as u64 * (depth - 1));
        assert_eq!(
            s.pipeline_stage_chunks,
            s.pipeline_chunks + s.pipeline_handoffs
        );
        assert!(s.pipeline_send_stalls <= s.pipeline_handoffs);
        assert!(s.pipeline_recv_stalls <= s.pipeline_handoffs);
    }

    #[test]
    fn quantized_batch_matches_direct_engine_and_records_counters() {
        use tie_sim::{QuantConfig, QuantizedEngine};
        use tie_tt::{TtMatrix, TtShape};
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let engine = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert_quantized("qfc", engine.clone());
        let stats = Arc::new(StatsCore::new());

        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for input in &inputs {
            let (req, ticket) = Request::new("qfc".into(), input.clone(), Arc::clone(&stats));
            requests.push(req);
            tickets.push(ticket);
        }
        execute(
            &reg.worker_engines(),
            &stats,
            &mut requests,
            &mut Vec::new(),
            &mut Vec::new(),
        );

        for (input, ticket) in inputs.iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            let mut direct = vec![0.0; 6];
            engine.matvec_batch_into(input, 1, &mut direct).unwrap();
            assert_eq!(resp.output, direct, "quantized batch must be bit-identical");
        }
        let s = stats.snapshot();
        assert_eq!(s.completed, 4);
        assert!(
            s.quant_outputs > 0,
            "quantized batches must feed the counters"
        );
        assert_eq!(s.quant_acc_saturations + s.quant_out_saturations, 0);
        assert_eq!(s.bytes_moved, 4 * engine.bytes_moved_per_sample());
        assert_eq!(
            s.transform_elided_bytes,
            4 * engine.transform_elided_bytes_per_sample()
        );
    }
}
