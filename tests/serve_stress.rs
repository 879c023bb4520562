//! Stress suite for the serving layer: many client threads hammering one
//! service with randomized batching knobs, and sparse arrivals across an
//! idle worker's spin-then-park hand-off.
//!
//! Correctness bar (ISSUE acceptance): no response is lost, duplicated or
//! cross-wired — every response must be **bit-identical** to a direct
//! single-call `CompactEngine` evaluation of that request's input. Inputs
//! are derived from a per-request nonce, so two requests never share an
//! input vector and a cross-wired response cannot pass the comparison.
//!
//! The run is reproducible: set `TIE_STRESS_SEED` to replay a failure
//! (the seed in use is printed on stderr).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;
use tie::core::CompactEngine;
use tie::serve::{EngineRegistry, InferenceService, ServeConfig, ServeError};
use tie::tt::{TtMatrix, TtShape};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 64;

fn suite_seed() -> u64 {
    let seed = std::env::var("TIE_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00_5EED);
    eprintln!("serve_stress: TIE_STRESS_SEED={seed}");
    seed
}

/// Three layers with distinct dimensions, so a cross-layer mix-up would
/// also show up as a wrong-length output.
fn layers(seed: u64) -> Vec<(&'static str, Arc<CompactEngine<f64>>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let shapes = [
        (
            "fc_a",
            TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap(),
        ),
        (
            "fc_b",
            TtShape::uniform_rank(vec![2, 2, 2], vec![2, 3, 2], 2).unwrap(),
        ),
        ("fc_c", TtShape::uniform_rank(vec![4], vec![9], 1).unwrap()),
    ];
    shapes
        .into_iter()
        .map(|(name, shape)| {
            let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.6).unwrap();
            (name, Arc::new(CompactEngine::new(ttm).unwrap()))
        })
        .collect()
}

/// The per-request input: derived from the nonce alone, so every request
/// carries a unique, reproducible payload.
fn input_for(nonce: u64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn direct_eval(engine: &CompactEngine<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; engine.matrix().shape().num_rows()];
    engine.matvec_into(x, &mut y).unwrap();
    y
}

/// Main stress test: 8 client threads × 64 requests each, across three
/// randomized service configurations. Every response is checked bit-exact
/// against a direct engine call; the final counters must balance.
#[test]
fn stress_no_lost_duplicated_or_cross_wired_responses() {
    let seed = suite_seed();
    let layers = layers(seed);
    let mut cfg_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));

    for round in 0..3u64 {
        let config = ServeConfig {
            max_batch: [1usize, 2, 4, 8, 16, 33][cfg_rng.gen_range(0..6usize)],
            queue_capacity: cfg_rng.gen_range(16..512usize),
            workers: cfg_rng.gen_range(0..5usize),
        };
        eprintln!(
            "serve_stress round {round}: max_batch={} queue={} workers={}",
            config.max_batch, config.queue_capacity, config.workers
        );

        let mut registry = EngineRegistry::new();
        for (name, engine) in &layers {
            registry.insert_shared(*name, Arc::clone(engine));
        }
        let service = InferenceService::start(registry, config).unwrap();

        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let client = service.client();
                let layers = layers.clone();
                std::thread::spawn(move || {
                    let mut completed = 0u64;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let nonce = (t * REQUESTS_PER_CLIENT + i) as u64;
                        let (name, engine) = &layers[nonce as usize % layers.len()];
                        let n = engine.matrix().shape().num_cols();
                        let x = input_for(nonce, n, seed);
                        // Alternate blocking and non-blocking submission;
                        // fall back to the blocking path on backpressure.
                        let ticket = if i % 2 == 0 {
                            client.submit(name, x.clone()).unwrap()
                        } else {
                            match client.try_submit(name, x.clone()) {
                                Ok(t) => t,
                                Err(ServeError::QueueFull) => {
                                    client.submit(name, x.clone()).unwrap()
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        };
                        let resp = ticket
                            .wait()
                            .unwrap_or_else(|e| panic!("nonce {nonce}: response lost to {e}"));
                        let want = direct_eval(engine, &x);
                        assert_eq!(
                            resp.output.len(),
                            want.len(),
                            "nonce {nonce}: output length (cross-layer wiring?)"
                        );
                        for (r, (&got, &exp)) in resp.output.iter().zip(&want).enumerate() {
                            assert!(
                                got.to_bits() == exp.to_bits(),
                                "nonce {nonce} row {r}: {got:e} != direct {exp:e} \
                                 (lost/cross-wired response)"
                            );
                        }
                        completed += 1;
                    }
                    completed
                })
            })
            .collect();

        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, (CLIENTS * REQUESTS_PER_CLIENT) as u64);

        let stats = service.shutdown();
        assert_eq!(
            stats.submitted,
            stats.completed + stats.failed,
            "counter balance"
        );
        assert_eq!(stats.failed, 0, "no request may fail in a clean run");
        assert!(
            stats.submitted >= total,
            "every checked response was submitted through the service"
        );
        assert_eq!(
            stats.batched_requests, stats.submitted,
            "every accepted request rode in exactly one batch"
        );
        assert!(stats.batches > 0);
        assert_eq!(
            stats.batches,
            stats.full_batches + stats.deadline_batches + stats.idle_batches + stats.drain_batches,
            "every batch has exactly one dispatch cause"
        );
        assert_eq!(stats.engine_panics, 0);
        assert!(stats.max_latency() >= stats.mean_latency());
    }
}

/// Shutdown under load: clients keep submitting while the service shuts
/// down. Every accepted request must resolve — with a correct response or
/// `ShuttingDown` — and the whole thing must not deadlock (enforced by
/// the harness-level test timeout and the final joins).
#[test]
fn stress_shutdown_under_load_drains_cleanly() {
    let seed = suite_seed().wrapping_add(0xD1E);
    let layers = layers(seed);
    let mut registry = EngineRegistry::new();
    for (name, engine) in &layers {
        registry.insert_shared(*name, Arc::clone(engine));
    }
    let config = ServeConfig {
        max_batch: 8,
        queue_capacity: 64,
        workers: 2,
    };
    let service = InferenceService::start(registry, config).unwrap();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = service.client();
            let layers = layers.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shut_down = 0u64;
                for i in 0..u64::MAX {
                    let nonce = (t as u64) << 32 | i;
                    let (name, engine) = &layers[(nonce % layers.len() as u64) as usize];
                    let n = engine.matrix().shape().num_cols();
                    let x = input_for(nonce, n, seed);
                    match client.submit(name, x.clone()) {
                        Ok(ticket) => match ticket.wait() {
                            Ok(resp) => {
                                let want = direct_eval(engine, &x);
                                assert_eq!(resp.output, want, "nonce {nonce}");
                                ok += 1;
                            }
                            Err(ServeError::ShuttingDown) => {
                                // Accepted but torn down mid-flight: the
                                // accounted-for failure path.
                                shut_down += 1;
                                break;
                            }
                            Err(e) => panic!("nonce {nonce}: unexpected error {e}"),
                        },
                        Err(ServeError::ShuttingDown) => break,
                        Err(e) => panic!("nonce {nonce}: unexpected submit error {e}"),
                    }
                }
                (ok, shut_down)
            })
        })
        .collect();

    // Let the clients build up real in-flight load, then pull the plug.
    // The final counter snapshot is taken only after the client threads
    // join: a client that squeezed a request in during the drain may not
    // have bumped `submitted` yet when `shutdown` returns.
    let observer = service.client();
    std::thread::sleep(Duration::from_millis(30));
    service.shutdown();

    let mut total_ok = 0u64;
    for h in handles {
        let (ok, _shut_down) = h.join().unwrap();
        total_ok += ok;
    }
    let stats = observer.stats();
    assert!(
        total_ok > 0,
        "some requests must have completed before shutdown"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "every accepted request resolved exactly once"
    );
    assert_eq!(
        stats.batches,
        stats.full_batches + stats.deadline_batches + stats.idle_batches + stats.drain_batches,
        "every batch has exactly one dispatch cause"
    );
    // The workers drain whatever was queued: batched_requests covers all
    // requests that reached a batch; the remainder failed at teardown.
    assert!(stats.completed >= total_ok);
}

/// Sparse arrivals across the spin-then-park hand-off: two clients each
/// send one request at a time after a seeded pause of 0–500 µs, so
/// requests land before, during and after an idle worker's spin budget
/// (the measured cost of a park), at one and two workers. A request that
/// a lost wake-up stranded would miss its 5 s wait.
#[test]
fn stress_sparse_arrivals_cross_the_spin_park_handoff() {
    const SPARSE_CLIENTS: usize = 2;
    const SPARSE_REQUESTS: usize = 150;
    let seed = suite_seed().wrapping_add(0x5B1);
    let layers = layers(seed);
    for workers in [1usize, 2] {
        let mut registry = EngineRegistry::new();
        for (name, engine) in &layers {
            registry.insert_shared(*name, Arc::clone(engine));
        }
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let service = InferenceService::start(registry, config).unwrap();
        let handles: Vec<_> = (0..SPARSE_CLIENTS)
            .map(|t| {
                let client = service.client();
                let layers = layers.clone();
                let mut pauses = ChaCha8Rng::seed_from_u64(seed ^ (workers * 16 + t) as u64);
                std::thread::spawn(move || {
                    for i in 0..SPARSE_REQUESTS {
                        std::thread::sleep(Duration::from_micros(pauses.gen_range(0..=500u64)));
                        let nonce = (t * SPARSE_REQUESTS + i) as u64;
                        let (name, engine) = &layers[nonce as usize % layers.len()];
                        let x = input_for(nonce, engine.matrix().shape().num_cols(), seed);
                        let resp = client
                            .submit(name, x.clone())
                            .unwrap()
                            .wait_timeout(Duration::from_secs(5))
                            .unwrap_or_else(|e| panic!("workers={workers} nonce {nonce}: {e}"));
                        let want = direct_eval(engine, &x);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&resp.output), bits(&want), "nonce {nonce}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.submitted, (SPARSE_CLIENTS * SPARSE_REQUESTS) as u64);
        assert_eq!(stats.completed, stats.submitted, "workers={workers}");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.batched_requests, stats.submitted);
        assert_eq!(
            stats.batches,
            stats.full_batches + stats.deadline_batches + stats.idle_batches + stats.drain_batches,
            "every batch has exactly one dispatch cause"
        );
    }
}
