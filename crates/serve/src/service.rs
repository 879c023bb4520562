//! The service façade: thread ownership, client handles, shutdown.

use crate::batcher::{run_batcher, Batch, IdleWorkers, Msg};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::registry::EngineRegistry;
use crate::request::{Request, Ticket};
use crate::stats::{ServiceStats, StatsCore};
use crate::worker::{run_worker, WorkerEngine};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
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
    tx: SyncSender<Msg>,
    registry: Arc<EngineRegistry>,
    stats: Arc<StatsCore>,
    accepting: Arc<AtomicBool>,
}

impl Client {
    fn make_request(&self, layer: &str, input: Vec<f64>) -> Result<(Request, Ticket), ServeError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
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
        match self.tx.send(Msg::Request(req)) {
            Ok(()) => {
                self.stats.record_submit();
                Ok(ticket)
            }
            Err(e) => {
                if let Msg::Request(req) = e.0 {
                    req.defuse();
                }
                Err(ServeError::ShuttingDown)
            }
        }
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
        match self.tx.try_send(Msg::Request(req)) {
            Ok(()) => {
                self.stats.record_submit();
                Ok(ticket)
            }
            Err(TrySendError::Full(msg)) => {
                if let Msg::Request(req) = msg {
                    req.defuse();
                }
                self.stats.record_reject();
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(msg)) => {
                if let Msg::Request(req) = msg {
                    req.defuse();
                }
                Err(ServeError::ShuttingDown)
            }
        }
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
/// Owns the batcher thread and the worker pool. Dropping the service (or
/// calling [`InferenceService::shutdown`]) stops accepting new requests,
/// drains everything already queued through the workers, and joins all
/// threads — no accepted request is ever silently lost.
#[derive(Debug)]
pub struct InferenceService {
    client: Client,
    tx: SyncSender<Msg>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    accepting: Arc<AtomicBool>,
    stats: Arc<StatsCore>,
}

impl InferenceService {
    /// Starts the service: spawns one batcher thread plus
    /// [`ServeConfig::resolved_workers`] worker threads, each holding
    /// private clones of every registered engine.
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
        let registry = Arc::new(registry);
        let stats = Arc::new(StatsCore::new());
        let accepting = Arc::new(AtomicBool::new(true));

        let (req_tx, req_rx) = sync_channel::<Msg>(config.queue_capacity);
        let worker_count = config.resolved_workers();
        let (batch_tx, batch_rx) = sync_channel::<Batch>(worker_count.saturating_mul(2).max(1));
        let batch_rx = Arc::new(Mutex::new(batch_rx));
        let idle = Arc::new(IdleWorkers::default());

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let rx = Arc::clone(&batch_rx);
            let engines = worker_engines(&registry);
            let stats_w = Arc::clone(&stats);
            let idle_w = Arc::clone(&idle);
            let wake = req_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("tie-serve-worker-{i}"))
                .spawn(move || run_worker(rx, engines, stats_w, idle_w, wake))
                .map_err(|e| ServeError::Config(format!("failed to spawn worker: {e}")))?;
            workers.push(handle);
        }

        let stats_b = Arc::clone(&stats);
        let (max_batch, max_wait) = (config.max_batch, config.max_wait);
        let batcher = std::thread::Builder::new()
            .name("tie-serve-batcher".into())
            .spawn(move || run_batcher(req_rx, batch_tx, max_batch, max_wait, stats_b, idle))
            .map_err(|e| ServeError::Config(format!("failed to spawn batcher: {e}")))?;

        let client = Client {
            tx: req_tx.clone(),
            registry,
            stats: Arc::clone(&stats),
            accepting: Arc::clone(&accepting),
        };
        Ok(InferenceService {
            client,
            tx: req_tx,
            batcher: Some(batcher),
            workers,
            accepting,
            stats,
        })
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
        self.stats.snapshot()
    }

    /// Graceful shutdown protocol:
    ///
    /// 1. flip `accepting` so new `submit` calls fail fast,
    /// 2. push the `Shutdown` sentinel through the request queue (behind
    ///    any already-queued requests, so they are all still served),
    /// 3. join the batcher (it drains lanes to the workers and exits,
    ///    dropping the batch channel),
    /// 4. join the workers (they finish queued batches, then see the
    ///    disconnect and exit).
    ///
    /// A thread that ended in a panic is counted in
    /// [`ServiceStats::thread_panics`]. Returns the final counter
    /// snapshot, for which `submitted == completed + failed` holds.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.stats.snapshot()
    }

    fn shutdown_in_place(&mut self) {
        let Some(batcher) = self.batcher.take() else {
            return;
        };
        self.accepting.store(false, Ordering::Release);
        // The sentinel may block while the queue is full; the batcher is
        // draining it, so this terminates. If the batcher already exited
        // (queue disconnected) the send fails, which is equally fine.
        let _ = self.tx.send(Msg::Shutdown);
        // A thread that panicked outside any engine call has already
        // failed the requests it held (their drop guards answer
        // `ShuttingDown`); count the thread so the panic stays visible.
        let handles = std::iter::once(batcher).chain(self.workers.drain(..));
        for handle in handles {
            if handle.join().is_err() {
                self.stats.record_thread_panic();
            }
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A client around a bare bounded channel with no batcher draining it —
/// the deterministic way for in-crate tests to exercise the `QueueFull`
/// and `Disconnected` paths (timing-free: the queue stays exactly as full
/// as the test leaves it).
#[cfg(test)]
pub(crate) fn rigged_client(
    registry: Arc<EngineRegistry>,
    stats: Arc<StatsCore>,
    capacity: usize,
) -> (Client, std::sync::mpsc::Receiver<Msg>) {
    let (tx, rx) = sync_channel::<Msg>(capacity);
    let client = Client {
        tx,
        registry,
        stats,
        accepting: Arc::new(AtomicBool::new(true)),
    };
    (client, rx)
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
                max_wait: Duration::from_millis(1),
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
                max_wait: Duration::from_millis(1),
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
                max_wait: Duration::from_millis(1),
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
        // Huge max_batch + long max_wait: nothing is full or expires, so
        // every request leaves through an idle worker or the drain.
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 1024,
                max_wait: Duration::from_secs(60),
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
    fn idle_worker_answers_long_before_max_wait() {
        let reg = registry(12);
        let engine = reg.get("fc").unwrap();
        let svc = InferenceService::start(
            reg,
            ServeConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(60),
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let client = svc.client();
        for seed in 0..3 {
            let x = vec![0.1 * f64::from(seed); 6];
            // The deadline is a minute away; only the idle rule answers
            // inside the timeout.
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
    fn try_submit_reports_queue_full_and_disconnect() {
        // Rig a client around a capacity-1 queue with no batcher draining
        // it, so the Full and Disconnected paths are deterministic.
        let stats = Arc::new(StatsCore::new());
        let (tx, rx) = sync_channel::<Msg>(1);
        let client = Client {
            tx,
            registry: Arc::new(registry(8)),
            stats: Arc::clone(&stats),
            accepting: Arc::new(AtomicBool::new(true)),
        };
        let _ticket = client.try_submit("fc", vec![0.1; 6]).unwrap();
        assert_eq!(
            client.try_submit("fc", vec![0.1; 6]).unwrap_err(),
            ServeError::QueueFull
        );
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.rejected), (1, 1));
        drop(rx);
        assert_eq!(
            client.try_submit("fc", vec![0.1; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
        // Neither the rejected nor the disconnected attempt leaks into the
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
