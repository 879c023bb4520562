//! The service façade: the worker pool, client handles, shutdown.

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::queue::Queue;
use crate::registry::EngineRegistry;
use crate::request::{Request, Ticket};
use crate::stats::{ServiceStats, StatsCore};
use crate::worker::{run_worker, WorkerEngine};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Submit-time request validation shared by [`Client`] and the sharded
/// client: the layer must be registered, the input must have the layer's
/// `N` elements, and every element must be finite. Returns the registry's
/// shared copy of the layer name, so a request carries it without
/// copying the string.
pub(crate) fn validate_input(
    registry: &EngineRegistry,
    layer: &str,
    input: &[f64],
) -> Result<Arc<str>, ServeError> {
    let (name, (_m, n)) = registry
        .lookup(layer)
        .ok_or_else(|| ServeError::UnknownLayer(layer.to_string()))?;
    if input.len() != n {
        return Err(ServeError::WrongInputLength {
            got: input.len(),
            want: n,
        });
    }
    match first_non_finite(input) {
        Some(index) => Err(ServeError::NonFiniteInput { index }),
        None => Ok(Arc::clone(name)),
    }
}

/// Index of the first NaN or ±∞ in `input`. Each fixed-size chunk folds
/// branch-free (a value is non-finite when its exponent bits are all
/// ones), so the all-finite case vectorizes; only a chunk that fails is
/// searched for its first bad index.
fn first_non_finite(input: &[f64]) -> Option<usize> {
    const CHUNK: usize = 64;
    const EXP: u64 = 0x7FF0_0000_0000_0000;
    input.chunks(CHUNK).enumerate().find_map(|(c, chunk)| {
        let bad = chunk
            .iter()
            .fold(false, |acc, v| acc | (v.to_bits() & EXP == EXP));
        bad.then(|| c * CHUNK + chunk.iter().position(|v| !v.is_finite()).unwrap())
    })
}

/// A cloneable handle for submitting inference requests.
///
/// Clients validate eagerly (layer name against the registry, input length
/// against the layer's `N`, every element finite) so the only errors that
/// travel through the service are operational ones. [`Client::submit`] blocks when the
/// bounded queue is full — that is the backpressure contract —
/// while [`Client::try_submit`] returns [`ServeError::QueueFull`] instead.
#[derive(Debug, Clone)]
pub struct Client {
    queue: Arc<Queue>,
    registry: Arc<EngineRegistry>,
    stats: Arc<StatsCore>,
}

impl Client {
    fn make_request(&self, layer: &str, input: Vec<f64>) -> Result<(Request, Ticket), ServeError> {
        let layer = validate_input(&self.registry, layer, &input)?;
        Ok(Request::new(layer, input, Arc::clone(&self.stats)))
    }

    /// Submits a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLayer`], [`ServeError::WrongInputLength`] or
    /// [`ServeError::NonFiniteInput`] for invalid requests;
    /// [`ServeError::ShuttingDown`] once shutdown began.
    pub fn submit(&self, layer: &str, input: Vec<f64>) -> Result<Ticket, ServeError> {
        let (req, ticket) = self.make_request(layer, input)?;
        self.queue.push(req, true).map(|()| ticket)
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], plus [`ServeError::QueueFull`] when the
    /// bounded queue is at capacity (counted in
    /// [`ServiceStats::rejected`]).
    pub fn try_submit(&self, layer: &str, input: Vec<f64>) -> Result<Ticket, ServeError> {
        let (req, ticket) = self.make_request(layer, input)?;
        self.queue.push(req, false).map(|()| ticket)
    }

    /// The registry this client validates against.
    #[must_use]
    pub fn registry(&self) -> &EngineRegistry {
        &self.registry
    }

    /// A point-in-time snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }
}

/// A running dynamic-batching inference service.
///
/// Owns the request queue and the worker pool that pulls from it.
/// Dropping the service (or calling [`InferenceService::shutdown`]) stops
/// accepting new requests, drains everything already queued through the
/// workers, and joins them — no accepted request is ever silently lost.
#[derive(Debug)]
pub struct InferenceService {
    client: Client,
    workers: Vec<JoinHandle<()>>,
}

impl InferenceService {
    /// Starts the service: spawns [`ServeConfig::resolved_workers`]
    /// worker threads, each holding private clones of every registered
    /// engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid configuration or an empty
    /// registry.
    pub fn start(registry: EngineRegistry, config: ServeConfig) -> Result<Self, ServeError> {
        Self::start_with(registry, config, EngineRegistry::worker_engines)
    }

    /// [`InferenceService::start`] with the workers' engine copies built
    /// by `worker_engines` (tests swap in a fault-injecting engine).
    fn start_with(
        registry: EngineRegistry,
        config: ServeConfig,
        worker_engines: impl Fn(&EngineRegistry) -> HashMap<String, WorkerEngine>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        if registry.is_empty() {
            return Err(ServeError::Config("registry has no layers".into()));
        }
        let stats = Arc::new(StatsCore::new());
        let worker_count = config.resolved_workers();
        let queue = Arc::new(Queue::new(
            config.queue_capacity,
            config.max_batch,
            worker_count,
            Arc::clone(&stats),
        ));
        let mut service = InferenceService {
            client: Client {
                queue,
                registry: Arc::new(registry),
                stats,
            },
            workers: Vec::with_capacity(worker_count),
        };
        // On a failed spawn the early return drops `service`, whose
        // shutdown stops and joins the workers spawned so far.
        for i in 0..worker_count {
            let queue = Arc::clone(&service.client.queue);
            let engines = worker_engines(&service.client.registry);
            let stats = Arc::clone(&service.client.stats);
            let handle = std::thread::Builder::new()
                .name(format!("tie-serve-worker-{i}"))
                .spawn(move || run_worker(queue, engines, stats))
                .map_err(|e| ServeError::Config(format!("failed to spawn worker: {e}")))?;
            service.workers.push(handle);
        }
        Ok(service)
    }

    /// A new client handle. Handles are cheap to clone and outlive the
    /// service (their submissions then fail with
    /// [`ServeError::ShuttingDown`]).
    #[must_use]
    pub fn client(&self) -> Client {
        self.client.clone()
    }

    /// A point-in-time snapshot of the service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.client.stats()
    }

    /// Graceful shutdown protocol:
    ///
    /// 1. close the queue, so new submissions fail with
    ///    [`ServeError::ShuttingDown`] and parked workers and blocked
    ///    `submit` calls wake,
    /// 2. join the workers (they drain every lane as `Drain` batches, then
    ///    exit),
    /// 3. fail anything still queued, which only a pool that died before
    ///    draining can leave.
    ///
    /// A worker that ended in a panic is counted in
    /// [`ServiceStats::thread_panics`]. Returns the final counter
    /// snapshot, for which `submitted == completed + failed` holds.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.client.queue.close();
        // A worker that panicked outside any engine call has already
        // failed the requests it held (their drop guards answer
        // `ShuttingDown`); count the thread so the panic stays visible.
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                self.client.stats.record_thread_panic();
            }
        }
        self.client.queue.abandon();
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A client around a queue with no workers behind it — the deterministic
/// way for in-crate tests to exercise the `QueueFull` and `ShuttingDown`
/// paths (timing-free: the queue stays exactly as full as the test leaves
/// it). Abandoning the returned queue closes it and fails what it holds.
#[cfg(test)]
pub(crate) fn rigged_client(
    registry: Arc<EngineRegistry>,
    stats: Arc<StatsCore>,
    capacity: usize,
) -> (Client, Arc<Queue>) {
    let queue = Arc::new(Queue::new(capacity, 1, 0, Arc::clone(&stats)));
    let client = Client {
        queue: Arc::clone(&queue),
        registry,
        stats,
    };
    (client, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::time::Duration;
    use tie_core::CompactEngine;
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
    fn start_rejects_empty_registry_and_bad_config() {
        assert!(matches!(
            InferenceService::start(EngineRegistry::new(), ServeConfig::default()),
            Err(ServeError::Config(_))
        ));
        let bad = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(InferenceService::start(registry(1), bad).is_err());
    }

    #[test]
    fn submit_roundtrip_matches_direct_engine_call() {
        let reg = registry(2);
        let engine = reg.get("fc").unwrap();
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let resp = client.submit("fc", x.clone()).unwrap().wait().unwrap();
        let mut direct = vec![0.0; 6];
        engine.matvec_into(&x, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn quantized_backend_roundtrip_and_saturation_counters() {
        use tie_sim::{QuantConfig, QuantizedEngine};
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let engine = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert_quantized("qfc", engine.clone());
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let x: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let resp = client.submit("qfc", x.clone()).unwrap().wait().unwrap();
        let mut direct = vec![0.0; 6];
        engine.matvec_batch_into(&x, 1, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(stats.quant_outputs > 0);
        assert_eq!(stats.quant_saturation_rate(), 0.0);
    }

    #[test]
    fn validation_errors_do_not_touch_the_queue() {
        let svc = InferenceService::start(registry(4), ServeConfig::default()).unwrap();
        let client = svc.client();
        assert!(matches!(
            client.submit("nope", vec![0.0; 6]),
            Err(ServeError::UnknownLayer(_))
        ));
        assert_eq!(
            client.submit("fc", vec![0.0; 5]).unwrap_err(),
            ServeError::WrongInputLength { got: 5, want: 6 }
        );
        let stats = svc.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (0, 0, 0));
    }

    #[test]
    fn first_non_finite_reports_the_first_bad_index_across_chunks() {
        let n = 200;
        let base: Vec<f64> = (0..n).map(|i| (i as f64 - 99.5) / 7.0).collect();
        assert_eq!(first_non_finite(&base), None);
        assert_eq!(first_non_finite(&[]), None);
        // Finite edge values pass: -0.0, subnormals and the extremes.
        let edges = [-0.0, f64::MIN_POSITIVE / 2.0, -5e-324, f64::MAX, f64::MIN];
        assert_eq!(first_non_finite(&[&base[..60], &edges[..]].concat()), None);
        // 0, the last index, and each side of the 64-element chunk borders.
        for idx in [0, 1, 63, 64, 65, 127, 128, n - 1] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut x = base.clone();
                x[idx] = bad;
                // Later bad values, in the same and the next chunk, do not
                // move the reported index.
                for later in [idx + 1, idx + 70] {
                    if let Some(v) = x.get_mut(later) {
                        *v = f64::NAN;
                    }
                }
                assert_eq!(first_non_finite(&x), Some(idx), "{bad} at {idx}");
            }
        }
    }

    #[test]
    fn non_finite_inputs_are_rejected_and_counters_reconcile() {
        let reg = registry(10);
        let engine = reg.get("fc").unwrap();
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let mut nan = vec![0.5; 6];
        nan[2] = f64::NAN;
        assert_eq!(
            client.submit("fc", nan).unwrap_err(),
            ServeError::NonFiniteInput { index: 2 }
        );
        let mut inf = vec![0.5; 6];
        inf[5] = f64::NEG_INFINITY;
        assert_eq!(
            client.try_submit("fc", inf).unwrap_err(),
            ServeError::NonFiniteInput { index: 5 }
        );
        // A finite request still goes through, and only it is counted.
        let x = vec![0.25; 6];
        let resp = client.submit("fc", x.clone()).unwrap().wait().unwrap();
        let mut direct = vec![0.0; 6];
        engine.matvec_into(&x, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert_eq!(
            (
                stats.submitted,
                stats.completed,
                stats.failed,
                stats.rejected
            ),
            (1, 1, 0, 0)
        );
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let svc = InferenceService::start(registry(5), ServeConfig::default()).unwrap();
        let client = svc.client();
        svc.shutdown();
        assert_eq!(
            client.submit("fc", vec![0.0; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(
            client.try_submit("fc", vec![0.0; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let reg = registry(6);
        let engine = reg.get("fc").unwrap();
        // Huge max_batch: no batch is full, so every request leaves
        // through an idle worker or the drain.
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let inputs: Vec<Vec<f64>> = (0..9)
            .map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| client.submit("fc", x.clone()).unwrap())
            .collect();
        let stats = svc.shutdown();
        for (x, ticket) in inputs.iter().zip(tickets) {
            let resp = ticket.wait().expect("drained request must be answered");
            let mut direct = vec![0.0; 6];
            engine.matvec_into(x, &mut direct).unwrap();
            assert_eq!(resp.output, direct);
        }
        assert_eq!(stats.submitted, 9);
        assert_eq!(stats.completed + stats.failed, 9);
        assert_eq!((stats.full_batches, stats.deadline_batches), (0, 0));
        assert_eq!(stats.batches, stats.idle_batches + stats.drain_batches);
        assert_eq!(stats.batched_requests, 9);
    }

    #[test]
    fn idle_worker_answers_a_lone_request_at_once() {
        let reg = registry(12);
        let engine = reg.get("fc").unwrap();
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 64,
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        for seed in 0..3 {
            let x = vec![0.1 * f64::from(seed); 6];
            // Nothing fills the batch: the idle worker takes it as it is.
            let resp = client
                .submit("fc", x.clone())
                .unwrap()
                .wait_timeout(Duration::from_secs(5))
                .unwrap();
            let mut direct = vec![0.0; 6];
            engine.matvec_into(&x, &mut direct).unwrap();
            assert_eq!(resp.output, direct);
        }
        let stats = svc.shutdown();
        assert_eq!((stats.completed, stats.idle_batches), (3, 3));
        assert_eq!(stats.deadline_batches, 0);
    }

    #[test]
    fn engine_panic_fails_its_batch_and_keeps_the_worker() {
        use crate::worker::PANIC_TRIGGER;
        let reg = registry(13);
        let engine = reg.get("fc").unwrap();
        // One worker: if the panic killed it, nothing would answer after.
        let svc = InferenceService::start_with(
            reg,
            ServeConfig {
                max_batch: 1,
                workers: 1,
                ..Default::default()
            },
            |reg| {
                let mut engines = reg.worker_engines();
                let fc = engines.remove("fc").unwrap();
                engines.insert("fc".into(), WorkerEngine::Faulty(Box::new(fc)));
                engines
            },
        )
        .unwrap();
        let client = svc.client();
        let mut poisoned = vec![0.5; 6];
        poisoned[0] = PANIC_TRIGGER;
        assert!(matches!(
            client.submit("fc", poisoned).unwrap().wait(),
            Err(ServeError::Engine(msg)) if msg.starts_with("engine panicked")
        ));
        let x = vec![0.25; 6];
        let resp = client
            .submit("fc", x.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(5))
            .expect("the worker survived the panic");
        let mut direct = vec![0.0; 6];
        engine.matvec_into(&x, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!(
            (stats.completed, stats.failed, stats.engine_panics),
            (1, 1, 1)
        );
    }

    #[test]
    fn panic_outside_the_engine_call_is_counted_and_accounted() {
        use crate::worker::ASSEMBLY_PANIC_TRIGGER;
        // Two workers: a response-assembly panic ends one of them; the
        // other keeps serving.
        let reg = registry(14);
        let engine = reg.get("fc").unwrap();
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 1,
                workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let mut poisoned = vec![0.5; 6];
        poisoned[0] = ASSEMBLY_PANIC_TRIGGER;
        assert_eq!(
            client.submit("fc", poisoned).unwrap().wait(),
            Err(ServeError::ShuttingDown),
            "the dead worker's request is answered by its drop guard"
        );
        let x = vec![0.25; 6];
        let resp = client
            .submit("fc", x.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(5))
            .expect("the other worker still serves");
        let mut direct = vec![0.0; 6];
        engine.matvec_into(&x, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!(
            (
                stats.completed,
                stats.failed,
                stats.engine_panics,
                stats.thread_panics
            ),
            (1, 1, 0, 1)
        );
    }

    #[test]
    fn a_dead_pool_refuses_or_fails_later_requests() {
        use crate::worker::ASSEMBLY_PANIC_TRIGGER;
        // One worker, killed by a panic outside its engine call: nothing
        // is left to take a request, so none may wait for an answer.
        let svc = InferenceService::start(
            registry(15),
            ServeConfig {
                max_batch: 1,
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        let mut poisoned = vec![0.5; 6];
        poisoned[0] = ASSEMBLY_PANIC_TRIGGER;
        assert_eq!(
            client.submit("fc", poisoned).unwrap().wait(),
            Err(ServeError::ShuttingDown)
        );
        // Refused once the dead worker closed the queue; if it raced in
        // before, the retiring worker failed it.
        match client.submit("fc", vec![0.25; 6]) {
            Err(e) => assert_eq!(e, ServeError::ShuttingDown),
            Ok(ticket) => assert_eq!(
                ticket.wait_timeout(Duration::from_secs(5)),
                Err(ServeError::ShuttingDown)
            ),
        }
        let stats = svc.shutdown();
        assert_eq!(stats.submitted, stats.completed + stats.failed);
        assert_eq!((stats.completed, stats.thread_panics), (0, 1));
    }

    #[test]
    fn try_submit_reports_queue_full_and_shutdown() {
        // Rig a client around a capacity-1 queue with no worker draining
        // it, so the Full and ShuttingDown paths are deterministic.
        let stats = Arc::new(StatsCore::new());
        let (client, queue) = rigged_client(Arc::new(registry(8)), Arc::clone(&stats), 1);
        let ticket = client.try_submit("fc", vec![0.1; 6]).unwrap();
        assert_eq!(
            client.try_submit("fc", vec![0.1; 6]).unwrap_err(),
            ServeError::QueueFull
        );
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.rejected), (1, 1));
        // No worker left: abandoning fails the queued request.
        queue.abandon();
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
        for block in [false, true] {
            let refused = if block {
                client.submit("fc", vec![0.1; 6])
            } else {
                client.try_submit("fc", vec![0.1; 6])
            };
            assert_eq!(refused.unwrap_err(), ServeError::ShuttingDown);
        }
        // Neither the rejected nor the refused attempts leak into the
        // submitted/failed accounting.
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.rejected, s.failed), (1, 1, 1));
    }

    #[test]
    fn drop_performs_graceful_shutdown() {
        let svc = InferenceService::start(registry(9), ServeConfig::default()).unwrap();
        let client = svc.client();
        let ticket = client.submit("fc", vec![0.2; 6]).unwrap();
        drop(svc);
        // The pending request was drained, not lost.
        assert!(ticket.wait().is_ok());
        assert_eq!(
            client.submit("fc", vec![0.2; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
    }
}
