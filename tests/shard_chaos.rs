//! Chaos suite for the sharded serving layer: fault injection under
//! live load.
//!
//! The scenarios (ISSUE 7 acceptance):
//!
//! * **Replica kill + drain + re-registration mid-load** — while client
//!   threads hammer the service, one replica of a busy shard is drained
//!   (graceful) and the other killed (handle dropped), leaving the shard
//!   dark; submissions fail fast with `ShardUnavailable` until a fresh
//!   replica is re-registered. Afterwards every counter must reconcile
//!   **exactly** against the client-side tallies: no request lost, none
//!   double-completed, every router retry/reject/drain accounted.
//! * **Shutdown under load leaks no threads** — a full service lifecycle
//!   under load must return the process to its baseline thread count
//!   (the persistent kernel pool excluded: its workers are process-wide
//!   and live across services by design).
//!
//! Both run at kernel-pool sizes {1, 8}. Reproducible via
//! `TIE_STRESS_SEED` (printed on stderr).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tie::core::CompactEngine;
use tie::serve::{EngineRegistry, HashRing, ServeConfig, ServeError, ShardConfig, ShardedService};
use tie::tensor::parallel;
use tie::tt::{TtMatrix, TtShape};

const POOL_SIZES: [usize; 2] = [1, 8];

/// Both tests measure or perturb process-global state (thread counts,
/// the kernel-pool size override), so they must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn suite_seed() -> u64 {
    let seed = std::env::var("TIE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00_5EED);
    eprintln!("shard_chaos: TIE_STRESS_SEED={seed}");
    seed
}

/// Layers covering every shard of the ring (see shard_stress.rs).
fn layers_covering_all_shards(
    seed: u64,
    ring: &HashRing,
) -> Vec<(String, Arc<CompactEngine<f64>>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shapes = [
        TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap(),
        TtShape::uniform_rank(vec![2, 2, 2], vec![2, 3, 2], 2).unwrap(),
        TtShape::uniform_rank(vec![4], vec![9], 1).unwrap(),
    ];
    let mut owned = vec![0usize; ring.shards().len()];
    let mut layers = Vec::new();
    for i in 0..256 {
        let name = format!("layer{i}");
        let pos = ring
            .shards()
            .iter()
            .position(|&s| s == ring.shard_for(&name))
            .unwrap();
        if owned.iter().all(|&c| c > 0) && layers.len() >= 2 * ring.shards().len() {
            break;
        }
        owned[pos] += 1;
        let ttm = TtMatrix::<f64>::random(&mut rng, &shapes[i % shapes.len()], 0.6).unwrap();
        layers.push((name, Arc::new(CompactEngine::new(ttm).unwrap())));
    }
    assert!(
        owned.iter().all(|&c| c > 0),
        "candidates must cover every shard"
    );
    layers
}

fn input_for(nonce: u64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn direct_eval(engine: &CompactEngine<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; engine.matrix().shape().num_rows()];
    engine.matvec_batch_into(x, 1, &mut y).unwrap();
    y
}

/// Client-side tally of one thread's outcomes — the ground truth the
/// service counters are reconciled against.
#[derive(Default)]
struct Tally {
    ok_nonces: Vec<u64>,
    torn_down: u64,
    queue_full: u64,
    unavailable: u64,
}

fn chaos_round(seed: u64, pool: usize) {
    let shards = 4;
    let config = ShardConfig {
        shards,
        replicas: 2,
        vnodes: 64,
        replica: ServeConfig {
            max_batch: 4,
            queue_capacity: 64,
            workers: 1,
        },
        submit_retries: 4,
        retry_backoff: Duration::from_micros(50),
    };
    let ring = HashRing::new(config.shards, config.vnodes).unwrap();
    let layers = layers_covering_all_shards(seed, &ring);
    let mut registry = EngineRegistry::new();
    for (name, engine) in &layers {
        registry.insert_shared(name.clone(), Arc::clone(engine));
    }
    let service = Arc::new(ShardedService::start(registry, config).unwrap());
    let layers = Arc::new(layers);
    let stop = Arc::new(AtomicBool::new(false));

    const CLIENTS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = service.client();
            let layers = Arc::clone(&layers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let nonce = (t as u64) << 32 | i;
                    i += 1;
                    let li = nonce as usize % layers.len();
                    let (name, engine) = &layers[li];
                    let n = engine.matrix().shape().num_cols();
                    let x = input_for(nonce, n, seed);
                    match client.submit(name, x.clone()) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(resp) => {
                                let want = direct_eval(engine, &x);
                                assert_eq!(resp.output, want, "nonce {nonce}: bit-identity");
                                tally.ok_nonces.push(nonce);
                            }
                            // Accepted, then the replica was torn down:
                            // the accounted-for failure path.
                            Err(ServeError::ShuttingDown) => tally.torn_down += 1,
                            Err(e) => panic!("nonce {nonce}: unexpected wait error {e}"),
                        },
                        Err(ServeError::QueueFull) => tally.queue_full += 1,
                        Err(ServeError::ShardUnavailable { .. }) => {
                            tally.unavailable += 1;
                            // The shard is dark; give the conductor a
                            // moment instead of spinning.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(ServeError::ShuttingDown) => break,
                        Err(e) => panic!("nonce {nonce}: unexpected submit error {e}"),
                    }
                }
                tally
            })
        })
        .collect();

    // The chaos conductor: pick the shard owning layer 0, drain one
    // replica mid-load, kill the other, let ShardUnavailable storms hit
    // the clients, then re-register and let the shard recover.
    let victim = ring.shard_for(&layers[0].0);
    std::thread::sleep(Duration::from_millis(20));
    let drained_stats = service
        .drain_replica(victim, 0)
        .expect("drain live replica");
    assert_eq!(
        drained_stats.submitted,
        drained_stats.completed + drained_stats.failed,
        "drained replica's own books balance"
    );
    std::thread::sleep(Duration::from_millis(10));
    service
        .kill_replica(victim, 1)
        .expect("kill second replica");
    assert_eq!(service.live_replicas(victim), 0, "shard is dark");
    std::thread::sleep(Duration::from_millis(10));
    let slot = service.reregister_replica(victim).expect("re-register");
    assert_eq!(slot, 2, "fresh slot, retired slots retained");
    std::thread::sleep(Duration::from_millis(20));

    stop.store(true, Ordering::Release);
    let tallies: Vec<Tally> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // After re-registration the shard serves again (the clients above
    // may all have moved past it, so check explicitly).
    let probe = service.client();
    let (name0, engine0) = &layers[0];
    let x = input_for(u64::MAX, engine0.matrix().shape().num_cols(), seed);
    let resp = probe.submit(name0, x.clone()).unwrap().wait().unwrap();
    assert_eq!(
        resp.output,
        direct_eval(engine0, &x),
        "revived shard serves bit-identically"
    );

    let service = Arc::try_unwrap(service).expect("all client handles joined");
    let stats = service.shutdown();
    let global = stats.global();

    // Exact reconciliation against the client-side ground truth.
    let mut ok_nonces = HashSet::new();
    let mut total_ok = 0u64;
    let (mut torn, mut full, mut unavailable) = (0u64, 0u64, 0u64);
    for t in &tallies {
        for &n in &t.ok_nonces {
            assert!(ok_nonces.insert(n), "nonce {n} completed twice");
        }
        total_ok += t.ok_nonces.len() as u64;
        torn += t.torn_down;
        full += t.queue_full;
        unavailable += t.unavailable;
    }
    total_ok += 1; // the post-recovery probe above

    assert!(
        total_ok > 1,
        "some requests must have completed around the chaos"
    );
    assert_eq!(
        global.completed, total_ok,
        "no response lost or double-completed"
    );
    assert_eq!(
        global.failed, torn,
        "every torn-down request accounted exactly once"
    );
    assert_eq!(
        global.submitted,
        total_ok + torn,
        "accepted = completed + torn down"
    );
    assert_eq!(
        global.submitted,
        global.completed + global.failed,
        "global balance"
    );
    assert_eq!(
        stats.routed(),
        global.submitted,
        "router routed == replicas accepted"
    );
    assert_eq!(
        stats.rejected(),
        full,
        "router rejects reconcile with client QueueFulls"
    );
    assert_eq!(
        stats.drained(),
        unavailable,
        "fail-fasts reconcile with ShardUnavailable"
    );
    for shard in &stats.shards {
        let view = shard.service();
        assert_eq!(
            shard.routed, view.submitted,
            "shard {} routed balance",
            shard.shard
        );
        assert_eq!(
            view.submitted,
            view.completed + view.failed,
            "shard {} replica balance",
            shard.shard
        );
    }
    let st = &stats.shards[victim];
    assert_eq!(st.replicas.len(), 3, "2 retired + 1 re-registered slot");
    assert!(
        st.drained == unavailable,
        "all fail-fasts happened on the victim shard ({} vs {unavailable})",
        st.drained
    );
    eprintln!(
        "shard_chaos pool={pool}: ok={total_ok} torn={torn} full={full} \
         unavailable={unavailable} routed={}",
        stats.routed()
    );
}

#[test]
fn chaos_kill_drain_reregister_reconciles_exactly() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let seed = suite_seed();
    let prev = parallel::set_num_threads(0);
    for &pool in &POOL_SIZES {
        parallel::set_num_threads(pool);
        chaos_round(seed.wrapping_add(pool as u64), pool);
    }
    parallel::set_num_threads(prev);
}

/// Current thread count of this process (Linux: `/proc/self/status`).
/// Returns `None` on platforms without procfs — the leak check then
/// degrades to the join-based guarantees of the other tests.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

/// One service lifecycle under load: 4 clients submit continuously,
/// shutdown lands mid-flight, everything joins.
fn lifecycle_under_load(seed: u64) {
    let config = ShardConfig {
        shards: 4,
        replicas: 2,
        replica: ServeConfig {
            max_batch: 4,
            queue_capacity: 64,
            workers: 2,
        },
        ..ShardConfig::default()
    };
    let ring = HashRing::new(config.shards, config.vnodes).unwrap();
    let layers = layers_covering_all_shards(seed, &ring);
    let mut registry = EngineRegistry::new();
    for (name, engine) in &layers {
        registry.insert_shared(name.clone(), Arc::clone(engine));
    }
    let service = ShardedService::start(registry, config).unwrap();
    let layers = Arc::new(layers);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let client = service.client();
            let layers = Arc::clone(&layers);
            std::thread::spawn(move || {
                for i in 0..u64::MAX {
                    let nonce = (t as u64) << 32 | i;
                    let li = nonce as usize % layers.len();
                    let (name, engine) = &layers[li];
                    let x = input_for(nonce, engine.matrix().shape().num_cols(), seed);
                    match client.submit(name, x) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(_) | Err(ServeError::ShuttingDown) => {}
                            Err(e) => panic!("unexpected wait error {e}"),
                        },
                        Err(ServeError::ShuttingDown) => break,
                        Err(ServeError::QueueFull | ServeError::ShardUnavailable { .. }) => {}
                        Err(e) => panic!("unexpected submit error {e}"),
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    let stats = service.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    let global = stats.global();
    assert_eq!(global.submitted, global.completed + global.failed);
}

#[test]
fn shutdown_under_load_leaves_no_leaked_threads() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let seed = suite_seed().wrapping_add(0xCAFE);
    let prev = parallel::set_num_threads(0);

    // Warm the persistent kernel pool to its largest size first, so its
    // (process-wide, by-design persistent) workers are part of the
    // baseline and not mistaken for a leak.
    parallel::set_num_threads(8);
    lifecycle_under_load(seed);

    let Some(baseline) = thread_count() else {
        eprintln!("shard_chaos: no procfs; skipping the thread-count assertion");
        parallel::set_num_threads(prev);
        return;
    };

    for &pool in &POOL_SIZES {
        parallel::set_num_threads(pool);
        lifecycle_under_load(seed.wrapping_add(pool as u64));
        // The OS may reap exited threads a beat after join returns.
        let mut now = thread_count().unwrap();
        for _ in 0..50 {
            if now <= baseline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            now = thread_count().unwrap();
        }
        assert!(
            now <= baseline,
            "pool={pool}: {now} threads alive vs baseline {baseline} — serve threads leaked"
        );
    }
    parallel::set_num_threads(prev);
}
