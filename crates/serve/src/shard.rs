//! The sharded, replicated serving layer: a consistent-hash router over
//! shard-local [`InferenceService`] replicas.
//!
//! ## Topology
//!
//! A [`ShardedService`] is `shards × replicas` independent
//! [`InferenceService`]s behind one [`HashRing`]:
//!
//! * the ring assigns every registered layer to exactly one **shard**
//!   ([`EngineRegistry::partition`]), so a shard owns a fixed slice of the
//!   registry — the serving-level analogue of the paper's compact scheme
//!   pinning each TT stage to a fixed core set;
//! * each shard runs `R` **replicas**, each a full dynamic-batching
//!   service over the shard's partition with its own bounded queue and
//!   worker pool — the backpressure and graceful-drain
//!   discipline is inherited wholesale, not re-implemented;
//! * a cloneable [`ShardedClient`] routes by layer key, spreads load over
//!   a shard's replicas round-robin, retries with bounded linear backoff
//!   when every replica reports a full queue, and fails fast with
//!   [`ServeError::ShardUnavailable`] when every replica is draining.
//!
//! ## Failure semantics
//!
//! Replicas can be **drained** (graceful: [`ShardedService::drain_replica`]
//! returns the final counters) or **killed**
//! ([`ShardedService::kill_replica`]: the handle is dropped, modelling an
//! operator yanking the process) at any time, including mid-load. Either
//! way the replica's own drain discipline answers every accepted request —
//! with a response or `ShuttingDown` — so nothing is lost or double
//! completed, and the retired replica's counters are retained in the
//! shard's accounting so the books still balance
//! (`routed == submitted == completed + failed`, per shard and globally).
//! [`ShardedService::reregister_replica`] brings a fresh replica up on the
//! shard's partition while the service keeps running.

use crate::config::ShardConfig;
use crate::error::ServeError;
use crate::registry::EngineRegistry;
use crate::request::Ticket;
use crate::router::HashRing;
use crate::service::validate_input;
use crate::service::{Client, InferenceService};
use crate::stats::{RouteCore, ServiceStats, ShardStats, ShardedStats};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One replica slot. A retired replica (drained or killed) keeps its
/// client so its final counters stay part of the shard's accounting; its
/// `service` is gone, so its client deterministically answers
/// `ShuttingDown` and the router skips it.
#[derive(Debug)]
struct Replica {
    client: Client,
    service: Option<InferenceService>,
}

impl Replica {
    fn start(registry: &EngineRegistry, config: &crate::ServeConfig) -> Result<Self, ServeError> {
        let service = InferenceService::start(registry.clone(), config.clone())?;
        Ok(Replica {
            client: service.client(),
            service: Some(service),
        })
    }
}

/// One shard: its registry partition, replica slots, and router counters.
#[derive(Debug)]
struct ShardState {
    /// The partition this shard owns (kept for re-registration).
    registry: EngineRegistry,
    replicas: RwLock<Vec<Replica>>,
    route: RouteCore,
    /// Round-robin cursor for replica selection.
    cursor: AtomicUsize,
}

/// State shared by the service handle and every client.
#[derive(Debug)]
struct SharedState {
    ring: HashRing,
    /// The full registry, for submit-time validation (a client must be
    /// able to reject an unknown layer even when it would route to an
    /// empty shard).
    registry: Arc<EngineRegistry>,
    shards: Vec<ShardState>,
    accepting: AtomicBool,
    submit_retries: usize,
    retry_backoff: Duration,
    /// Per-replica service config, kept so re-registered replicas start
    /// with exactly the knobs of the originals.
    replica_config: crate::ServeConfig,
}

/// Outcome of one routing pass over a shard's replicas.
enum RoutePass {
    Accepted(Ticket),
    /// At least one replica had a full queue (worth retrying).
    Full,
    /// Every replica is draining or retired (fail fast).
    Draining,
}

impl SharedState {
    /// One round-robin pass over the shard's replicas with `try_submit`.
    fn route_once(
        &self,
        shard: &ShardState,
        layer: &str,
        input: &[f64],
    ) -> Result<RoutePass, ServeError> {
        let replicas = read_lock(&shard.replicas);
        let k = replicas.len();
        if k == 0 {
            return Ok(RoutePass::Draining);
        }
        let start = shard.cursor.fetch_add(1, Ordering::Relaxed) % k;
        let mut saw_full = false;
        for i in 0..k {
            let replica = &replicas[(start + i) % k];
            match replica.client.try_submit(layer, input.to_vec()) {
                Ok(ticket) => return Ok(RoutePass::Accepted(ticket)),
                Err(ServeError::QueueFull) => saw_full = true,
                Err(ServeError::ShuttingDown) => {} // draining/retired: skip
                Err(e) => return Err(e),            // validation — cannot depend on the replica
            }
        }
        Ok(if saw_full {
            RoutePass::Full
        } else {
            RoutePass::Draining
        })
    }

    /// Shared submit body: validate, route, retry on full, fail fast on a
    /// draining shard. `retries` is the number of backoff rounds allowed.
    fn submit(&self, layer: &str, input: &[f64], retries: usize) -> Result<Ticket, ServeError> {
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        validate_input(&self.registry, layer, input)?;
        let shard_id = self.ring.shard_for(layer);
        let shard = &self.shards[shard_id];
        let mut round = 0usize;
        loop {
            match self.route_once(shard, layer, input)? {
                RoutePass::Accepted(ticket) => {
                    shard.route.record_routed();
                    return Ok(ticket);
                }
                RoutePass::Draining => {
                    shard.route.record_drained();
                    return Err(ServeError::ShardUnavailable { shard: shard_id });
                }
                RoutePass::Full => {
                    if round >= retries {
                        shard.route.record_rejected();
                        return Err(ServeError::QueueFull);
                    }
                    round += 1;
                    shard.route.record_retry();
                    // Linear bounded backoff: round k sleeps k × base.
                    std::thread::sleep(
                        self.retry_backoff * u32::try_from(round).unwrap_or(u32::MAX),
                    );
                }
            }
        }
    }

    fn stats(&self) -> ShardedStats {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let replicas = read_lock(&shard.replicas);
                shard
                    .route
                    .snapshot(s, replicas.iter().map(|r| r.client.stats()).collect())
            })
            .collect();
        ShardedStats { shards }
    }
}

/// A cloneable handle for submitting requests to a [`ShardedService`].
///
/// Routing is deterministic: `layer` → [`HashRing::shard_for`] → one of
/// the shard's replicas (round-robin start, first with queue room wins).
/// [`ShardedClient::submit`] retries a fully-backpressured shard with
/// bounded linear backoff before giving up with [`ServeError::QueueFull`];
/// [`ShardedClient::try_submit`] is a single non-blocking pass. Both fail
/// fast with [`ServeError::ShardUnavailable`] when every replica of the
/// target shard is draining.
#[derive(Debug, Clone)]
pub struct ShardedClient {
    state: Arc<SharedState>,
}

impl ShardedClient {
    /// Submits a request, retrying a fully-backpressured shard up to
    /// [`ShardConfig::submit_retries`] times with linear backoff.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownLayer`] / [`ServeError::WrongInputLength`] /
    /// [`ServeError::NonFiniteInput`] for invalid requests, [`ServeError::QueueFull`] after retry exhaustion,
    /// [`ServeError::ShardUnavailable`] when the target shard has no
    /// accepting replica, [`ServeError::ShuttingDown`] once shutdown
    /// began.
    pub fn submit(&self, layer: &str, input: Vec<f64>) -> Result<Ticket, ServeError> {
        self.state.submit(layer, &input, self.state.submit_retries)
    }

    /// Submits without blocking: one routing pass, no backoff.
    ///
    /// # Errors
    ///
    /// As [`ShardedClient::submit`], with [`ServeError::QueueFull`]
    /// surfacing immediately when every replica of the shard is full.
    pub fn try_submit(&self, layer: &str, input: Vec<f64>) -> Result<Ticket, ServeError> {
        self.state.submit(layer, &input, 0)
    }

    /// The shard the ring assigns `layer` to (what `submit` will target).
    #[must_use]
    pub fn shard_for(&self, layer: &str) -> usize {
        self.state.ring.shard_for(layer)
    }

    /// The consistent-hash ring the router uses.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.state.ring
    }

    /// The full registry this client validates against.
    #[must_use]
    pub fn registry(&self) -> &EngineRegistry {
        &self.state.registry
    }

    /// A point-in-time snapshot of the per-shard/per-replica counters.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        self.state.stats()
    }
}

/// A running sharded, replicated inference service (see the module docs
/// for topology and failure semantics).
///
/// ```
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
/// use tie_core::CompactEngine;
/// use tie_serve::{EngineRegistry, ServeConfig, ShardConfig, ShardedService};
/// use tie_tt::{TtMatrix, TtShape};
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let mut registry = EngineRegistry::new();
/// for name in ["fc6", "fc7", "lstm"] {
///     let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
///     let tt = TtMatrix::random(&mut rng, &shape, 0.5).unwrap();
///     registry.insert(name, CompactEngine::new(tt).unwrap());
/// }
///
/// let config = ShardConfig {
///     shards: 2,
///     replicas: 2,
///     replica: ServeConfig { max_batch: 8, ..Default::default() },
///     ..Default::default()
/// };
/// let service = ShardedService::start(registry, config).unwrap();
/// let client = service.client();
/// let response = client.submit("fc7", vec![0.25; 6]).unwrap().wait().unwrap();
/// assert_eq!(response.output.len(), 6);
///
/// let stats = service.shutdown();
/// let global = stats.global();
/// assert_eq!(global.submitted, global.completed + global.failed);
/// assert_eq!(stats.routed(), global.submitted);
/// ```
#[derive(Debug)]
pub struct ShardedService {
    state: Arc<SharedState>,
}

impl ShardedService {
    /// Starts the sharded service: builds the ring, partitions the
    /// registry, and spawns [`ShardConfig::replicas`] replicas for every
    /// shard that owns at least one layer (shards with an empty partition
    /// get no replicas — no valid key can route to them).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid configuration or an empty
    /// registry.
    pub fn start(registry: EngineRegistry, config: ShardConfig) -> Result<Self, ServeError> {
        config.validate()?;
        if registry.is_empty() {
            return Err(ServeError::Config("registry has no layers".into()));
        }
        let ring = HashRing::new(config.shards, config.vnodes).map_err(ServeError::Config)?;
        let partitions = registry.partition(&ring);
        let mut shards = Vec::with_capacity(config.shards);
        for partition in partitions {
            let mut replicas = Vec::new();
            if !partition.is_empty() {
                for _ in 0..config.replicas {
                    replicas.push(Replica::start(&partition, &config.replica)?);
                }
            }
            shards.push(ShardState {
                registry: partition,
                replicas: RwLock::new(replicas),
                route: RouteCore::default(),
                cursor: AtomicUsize::new(0),
            });
        }
        let state = Arc::new(SharedState {
            ring,
            registry: Arc::new(registry),
            shards,
            accepting: AtomicBool::new(true),
            submit_retries: config.submit_retries,
            retry_backoff: config.retry_backoff,
            replica_config: config.replica,
        });
        Ok(ShardedService { state })
    }

    /// A new routing client. Clients are cheap to clone and outlive the
    /// service (their submissions then fail with
    /// [`ServeError::ShuttingDown`]).
    #[must_use]
    pub fn client(&self) -> ShardedClient {
        ShardedClient {
            state: Arc::clone(&self.state),
        }
    }

    /// The consistent-hash ring in use.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.state.ring
    }

    /// Number of replica slots (live + retired) of `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn replica_slots(&self, shard: usize) -> usize {
        read_lock(&self.state.shards[shard].replicas).len()
    }

    /// Number of live (accepting) replicas of `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    #[must_use]
    pub fn live_replicas(&self, shard: usize) -> usize {
        read_lock(&self.state.shards[shard].replicas)
            .iter()
            .filter(|r| r.service.is_some())
            .count()
    }

    /// A point-in-time snapshot of the per-shard/per-replica counters.
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        self.state.stats()
    }

    /// Gracefully drains one replica: stops it accepting, waits for its
    /// queued work to finish, joins its threads, and returns its final
    /// counters. The slot is retained (retired) so the shard's accounting
    /// keeps the replica's history; the router skips it from now on.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an out-of-range slot or a replica that
    /// is already retired.
    pub fn drain_replica(&self, shard: usize, slot: usize) -> Result<ServiceStats, ServeError> {
        let service = self.take_service(shard, slot)?;
        // Shutdown outside the lock: draining can take as long as the
        // queued work, and the shard's other replicas must keep serving.
        Ok(service.shutdown())
    }

    /// Kills one replica: the service handle is dropped, modelling an
    /// operator yanking the process. The drop still runs the drain
    /// discipline (every accepted request is answered — completed or
    /// `ShuttingDown` — before the threads exit), so even a "kill" loses
    /// nothing; the difference from [`ShardedService::drain_replica`] is
    /// purely that the caller gets no final snapshot back. The retired
    /// slot keeps the replica's counters in the shard's accounting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an out-of-range slot or a replica that
    /// is already retired.
    pub fn kill_replica(&self, shard: usize, slot: usize) -> Result<(), ServeError> {
        drop(self.take_service(shard, slot)?);
        Ok(())
    }

    /// Starts a fresh replica on `shard`'s partition while the service is
    /// running, and returns its slot index. Retired slots are never
    /// reused — the new replica starts with zeroed counters in a new slot
    /// and immediately joins the router's round-robin.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the shard owns no layers (an empty
    /// partition can never be routed to), [`ServeError::ShuttingDown`]
    /// once service shutdown began.
    pub fn reregister_replica(&self, shard: usize) -> Result<usize, ServeError> {
        if !self.state.accepting.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let Some(st) = self.state.shards.get(shard) else {
            return Err(ServeError::Config(format!("shard {shard} out of range")));
        };
        if st.registry.is_empty() {
            return Err(ServeError::Config(format!("shard {shard} owns no layers")));
        }
        // Start before taking the lock: replica startup spawns threads
        // and must not block the routing path.
        let replica = Replica::start(&st.registry, &self.state.replica_config)?;
        let mut replicas = write_lock(&st.replicas);
        replicas.push(replica);
        Ok(replicas.len() - 1)
    }

    /// Gracefully shuts down every live replica of one shard. Subsequent
    /// submissions routed there fail fast with
    /// [`ServeError::ShardUnavailable`] until
    /// [`ShardedService::reregister_replica`] revives it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an out-of-range shard.
    pub fn shutdown_shard(&self, shard: usize) -> Result<ShardStats, ServeError> {
        let Some(st) = self.state.shards.get(shard) else {
            return Err(ServeError::Config(format!("shard {shard} out of range")));
        };
        let services: Vec<InferenceService> = {
            let mut replicas = write_lock(&st.replicas);
            replicas
                .iter_mut()
                .filter_map(|r| r.service.take())
                .collect()
        };
        for service in services {
            service.shutdown();
        }
        let replicas = read_lock(&st.replicas);
        Ok(st
            .route
            .snapshot(shard, replicas.iter().map(|r| r.client.stats()).collect()))
    }

    /// Graceful shutdown of the whole service: stop accepting, drain
    /// every live replica of every shard, and return the final snapshot,
    /// for which — per shard and globally —
    /// `routed == submitted == completed + failed` holds.
    pub fn shutdown(self) -> ShardedStats {
        self.shutdown_in_place();
        self.state.stats()
    }

    fn shutdown_in_place(&self) {
        self.state.accepting.store(false, Ordering::Release);
        for st in &self.state.shards {
            let services: Vec<InferenceService> = {
                let mut replicas = write_lock(&st.replicas);
                replicas
                    .iter_mut()
                    .filter_map(|r| r.service.take())
                    .collect()
            };
            for service in services {
                service.shutdown();
            }
        }
    }

    fn take_service(&self, shard: usize, slot: usize) -> Result<InferenceService, ServeError> {
        let Some(st) = self.state.shards.get(shard) else {
            return Err(ServeError::Config(format!("shard {shard} out of range")));
        };
        let mut replicas = write_lock(&st.replicas);
        let Some(replica) = replicas.get_mut(slot) else {
            return Err(ServeError::Config(format!(
                "shard {shard} has no slot {slot}"
            )));
        };
        replica.service.take().ok_or_else(|| {
            ServeError::Config(format!(
                "replica {slot} of shard {shard} is already retired"
            ))
        })
    }
}

impl Drop for ShardedService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tie_core::CompactEngine;
    use tie_tt::{TtMatrix, TtShape};

    fn engine(seed: u64) -> CompactEngine<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.5).unwrap()).unwrap()
    }

    fn registry(layers: usize) -> EngineRegistry {
        let mut reg = EngineRegistry::new();
        for i in 0..layers {
            reg.insert(format!("fc{i}"), engine(100 + i as u64));
        }
        reg
    }

    fn fast_config(shards: usize, replicas: usize) -> ShardConfig {
        ShardConfig {
            shards,
            replicas,
            replica: ServeConfig {
                max_batch: 4,
                queue_capacity: 64,
                workers: 1,
            },
            ..ShardConfig::default()
        }
    }

    #[test]
    fn start_rejects_empty_registry_and_bad_config() {
        assert!(matches!(
            ShardedService::start(EngineRegistry::new(), ShardConfig::default()),
            Err(ServeError::Config(_))
        ));
        let bad = ShardConfig {
            shards: 0,
            ..ShardConfig::default()
        };
        assert!(ShardedService::start(registry(3), bad).is_err());
    }

    #[test]
    fn routed_responses_are_bit_identical_to_direct_calls() {
        let reg = registry(8);
        let svc = ShardedService::start(reg.clone(), fast_config(4, 2)).unwrap();
        let client = svc.client();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for i in 0..8 {
            let name = format!("fc{i}");
            let x: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let resp = client.submit(&name, x.clone()).unwrap().wait().unwrap();
            let mut direct = vec![0.0; 6];
            reg.get(&name)
                .unwrap()
                .matvec_batch_into(&x, 1, &mut direct)
                .unwrap();
            assert_eq!(resp.output, direct, "{name}");
            assert_eq!(client.shard_for(&name), svc.ring().shard_for(&name));
        }
        let stats = svc.shutdown();
        let global = stats.global();
        assert_eq!(global.submitted, 8);
        assert_eq!(global.completed, 8);
        assert_eq!(global.failed, 0);
        assert_eq!(stats.routed(), 8);
        for shard in &stats.shards {
            assert_eq!(
                shard.routed,
                shard.service().submitted,
                "shard {}",
                shard.shard
            );
        }
    }

    #[test]
    fn validation_errors_bypass_routing() {
        let svc = ShardedService::start(registry(3), fast_config(2, 1)).unwrap();
        let client = svc.client();
        assert!(matches!(
            client.submit("nope", vec![0.0; 6]),
            Err(ServeError::UnknownLayer(_))
        ));
        assert_eq!(
            client.submit("fc0", vec![0.0; 5]).unwrap_err(),
            ServeError::WrongInputLength { got: 5, want: 6 }
        );
        let stats = svc.shutdown();
        assert_eq!(stats.routed() + stats.rejected() + stats.drained(), 0);
    }

    #[test]
    fn drain_and_kill_retire_replicas_and_reregister_revives() {
        let svc = ShardedService::start(registry(6), fast_config(2, 2)).unwrap();
        let client = svc.client();
        // Find a shard that owns a layer, via any registered name.
        let name = "fc0";
        let shard = client.shard_for(name);
        assert_eq!(svc.live_replicas(shard), 2);

        let final_stats = svc.drain_replica(shard, 0).unwrap();
        assert_eq!(
            final_stats.submitted,
            final_stats.completed + final_stats.failed
        );
        assert!(
            svc.drain_replica(shard, 0).is_err(),
            "double drain must fail"
        );
        svc.kill_replica(shard, 1).unwrap();
        assert_eq!(svc.live_replicas(shard), 0);

        // All replicas down: fail fast.
        assert_eq!(
            client.submit(name, vec![0.1; 6]).unwrap_err(),
            ServeError::ShardUnavailable { shard }
        );

        // Revive and serve again.
        let slot = svc.reregister_replica(shard).unwrap();
        assert_eq!(slot, 2, "retired slots are never reused");
        assert_eq!(svc.live_replicas(shard), 1);
        assert!(client.submit(name, vec![0.1; 6]).unwrap().wait().is_ok());

        let stats = svc.shutdown();
        let st = &stats.shards[shard];
        assert_eq!(st.replicas.len(), 3);
        assert_eq!(st.drained, 1, "the fail-fast submission is accounted");
        assert_eq!(st.routed, st.service().submitted);
        let global = stats.global();
        assert_eq!(global.submitted, global.completed + global.failed);
    }

    #[test]
    fn shutdown_shard_fails_fast_until_reregistered() {
        let svc = ShardedService::start(registry(6), fast_config(2, 2)).unwrap();
        let client = svc.client();
        let name = "fc1";
        let shard = client.shard_for(name);
        let st = svc.shutdown_shard(shard).unwrap();
        assert_eq!(st.shard, shard);
        assert_eq!(svc.live_replicas(shard), 0);
        assert!(matches!(
            client.submit(name, vec![0.0; 6]),
            Err(ServeError::ShardUnavailable { .. })
        ));
        svc.reregister_replica(shard).unwrap();
        assert!(client.submit(name, vec![0.0; 6]).unwrap().wait().is_ok());
        svc.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_fast() {
        let svc = ShardedService::start(registry(3), fast_config(2, 1)).unwrap();
        let client = svc.client();
        svc.shutdown();
        assert_eq!(
            client.submit("fc0", vec![0.0; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(
            client.try_submit("fc0", vec![0.0; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn full_queues_reject_after_bounded_retries() {
        // Deterministic backpressure: one rigged replica around a
        // capacity-1 queue nobody drains, so "full" is not transient
        // (a real worker drains its queue and races the assertion).
        use crate::stats::StatsCore;
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(1));
        let registry = Arc::new(reg);
        let stats = Arc::new(StatsCore::new());
        let (client, _queue) =
            crate::service::rigged_client(Arc::clone(&registry), Arc::clone(&stats), 1);
        let state = SharedState {
            ring: HashRing::new(1, 8).unwrap(),
            registry,
            shards: vec![ShardState {
                registry: EngineRegistry::new(),
                replicas: RwLock::new(vec![Replica {
                    client,
                    service: None,
                }]),
                route: RouteCore::default(),
                cursor: AtomicUsize::new(0),
            }],
            accepting: AtomicBool::new(true),
            submit_retries: 2,
            retry_backoff: Duration::from_micros(10),
            replica_config: ServeConfig::default(),
        };

        // First submission fills the only queue slot.
        let _ticket = state.submit("fc", &[0.2; 6], 2).unwrap();
        // Second: every pass sees Full, retries twice, then gives up.
        assert_eq!(
            state.submit("fc", &[0.2; 6], 2).unwrap_err(),
            ServeError::QueueFull
        );
        // try_submit semantics: zero retry rounds.
        assert_eq!(
            state.submit("fc", &[0.2; 6], 0).unwrap_err(),
            ServeError::QueueFull
        );

        let snapshot = state.stats();
        let shard = &snapshot.shards[0];
        assert_eq!(shard.routed, 1);
        assert_eq!(shard.retried, 2, "submit_retries bounds the backoff rounds");
        assert_eq!(shard.rejected, 2);
        assert_eq!(shard.drained, 0);
        assert_eq!(shard.routed, shard.service().submitted);
    }

    #[test]
    fn drop_performs_graceful_shutdown() {
        let svc = ShardedService::start(registry(3), fast_config(2, 1)).unwrap();
        let client = svc.client();
        let ticket = client.submit("fc0", vec![0.2; 6]).unwrap();
        drop(svc);
        assert!(ticket.wait().is_ok(), "pending request drained, not lost");
        assert_eq!(
            client.submit("fc0", vec![0.2; 6]).unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn quantized_layers_ride_the_same_router() {
        use tie_sim::{QuantConfig, QuantizedEngine};
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let qe = QuantizedEngine::new(
            TtMatrix::random(&mut rng, &shape, 0.5).unwrap(),
            QuantConfig::default(),
        )
        .unwrap();
        let mut reg = EngineRegistry::new();
        reg.insert("fc", engine(2))
            .insert_quantized("qfc", qe.clone());
        let svc = ShardedService::start(reg, fast_config(3, 1)).unwrap();
        let client = svc.client();
        let x: Vec<f64> = (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let resp = client.submit("qfc", x.clone()).unwrap().wait().unwrap();
        let mut direct = vec![0.0; 6];
        qe.matvec_batch_into(&x, 1, &mut direct).unwrap();
        assert_eq!(resp.output, direct);
        let stats = svc.shutdown();
        assert!(stats.global().quant_outputs > 0);
    }
}
