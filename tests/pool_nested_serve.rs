//! Serving never touches the kernel pool: every `tie-serve` worker is a
//! serial executor (DESIGN.md §11.3), so under sustained load its engine
//! calls run at width 1 on the worker's own thread.
//!
//! The promises under test, at a pinned kernel width of 4 with the pool
//! pre-spawned and a layer sized above the spawn threshold (so the same
//! calls from any other thread would fan out):
//!
//! * serving publishes **zero** pool jobs (`pool::dispatches` does not
//!   move between the end of set-up and shutdown),
//! * every response stays bit-identical to a direct engine call,
//! * `ServiceStats` balances exactly.
//!
//! Deadlock freedom under many concurrent dispatchers stays with the
//! pool's own `concurrent_dispatchers_all_complete` unit test. This file
//! is the only test in its binary, so no other test can dispatch while
//! the counter is read.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use tie::core::CompactEngine;
use tie::serve::{EngineRegistry, InferenceService, ServeConfig};
use tie::tensor::{parallel, pool};
use tie::tt::{TtMatrix, TtShape};

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 48;

/// Input for request `nonce`, the same on the client and checking side.
fn input(nonce: u64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(nonce.wrapping_mul(0x9E37));
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn serving_under_load_makes_no_pool_dispatch_and_stays_exact() {
    let prev = parallel::set_num_threads(4);
    pool::prewarm(4);

    // Stage GEMMs ≈ 24×24×(16·b) madds: above the spawn threshold from
    // b = 2, so a direct batch-8 call from this thread does dispatch
    // (checked below).
    let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![4, 4, 4], 6).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0DD_BA11);
    let ttm = TtMatrix::<f64>::random(&mut rng, &shape, 0.5).unwrap();
    let engine = Arc::new(CompactEngine::new(ttm).unwrap());
    let (m, n) = (
        engine.matrix().shape().num_rows(),
        engine.matrix().shape().num_cols(),
    );

    let before_direct = pool::dispatches();
    let xs = input(0, n * 8);
    let mut ys = vec![0.0; m * 8];
    engine.matvec_batch_into(&xs, 8, &mut ys).unwrap();
    assert!(
        pool::dispatches() > before_direct,
        "the layer must be large enough that a direct call dispatches"
    );

    let mut registry = EngineRegistry::new();
    registry.insert_shared("fc", Arc::clone(&engine));
    let service = InferenceService::start(
        registry,
        ServeConfig {
            max_batch: 8,
            queue_capacity: 128,
            workers: 4,
        },
    )
    .unwrap();

    // Clients only submit and collect; the direct reference calls run
    // after shutdown, so nothing but serving runs while the counter is
    // watched.
    let serving_from = pool::dispatches();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = service.client();
            std::thread::spawn(move || {
                (0..REQUESTS_PER_CLIENT)
                    .map(|i| {
                        let nonce = (t * REQUESTS_PER_CLIENT + i) as u64;
                        let resp = client
                            .submit("fc", input(nonce, n))
                            .unwrap()
                            .wait()
                            .unwrap_or_else(|e| panic!("nonce {nonce}: lost to {e}"));
                        (nonce, resp.output)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answers: Vec<(u64, Vec<f64>)> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let stats = service.shutdown();
    assert_eq!(
        pool::dispatches(),
        serving_from,
        "serve workers must run their kernels at width 1, off the pool"
    );

    let mut want = vec![0.0; m];
    for (nonce, got) in &answers {
        engine.matvec_into(&input(*nonce, n), &mut want).unwrap();
        assert_eq!(got.len(), want.len(), "nonce {nonce}: length");
        for (r, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "nonce {nonce} row {r}: {g:e} != direct {w:e}"
            );
        }
    }
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "ServiceStats must balance"
    );
    assert_eq!(stats.failed, 0, "clean run: no failures");
    assert_eq!(stats.submitted, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(stats.thread_panics, 0);

    parallel::set_num_threads(prev);
}
