//! Serving-layer throughput benchmark (serving PR acceptance evidence).
//!
//! Sweeps the service's `max_batch` over {1, 4, 16, 64} with a
//! fixed offered load (8 client threads pipelining requests against one
//! VGG-FC6-shaped layer) and records completed requests per second plus
//! the realized mean batch occupancy and latency. `max_batch = 1`
//! degrades the service to per-request dispatch, so the sweep isolates
//! exactly what batching buys: every request still costs the same
//! per-stage GEMM *rows*, but batched requests share the per-dispatch
//! overhead and the per-stage weight streaming (`core_reads ==
//! num_params` for any B — the paper's Eqn. 10 batching argument).
//!
//! Writes `BENCH_serve.json` at the repository root.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tie_bench::report::{fnum, Report};
use tie_core::CompactEngine;
use tie_serve::{EngineRegistry, InferenceService, ServeConfig, ServiceStats};
use tie_tt::{TtMatrix, TtShape};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 256;
/// Tickets a client keeps in flight before reaping the oldest: without
/// pipelining, per-client round trips serialize and no batch ever forms.
const PIPELINE_DEPTH: usize = 32;
const MAX_BATCH_SWEEP: [usize; 4] = [1, 4, 16, 64];

fn fc6_engine() -> CompactEngine<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    // VGG-FC6 (Table 4): 25088 -> 4096, d = 6, r = 4.
    let shape = TtShape::uniform_rank(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4).unwrap();
    CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.5).unwrap()).unwrap()
}

fn inputs_for(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// One offered-load run at the given `max_batch`; returns the final
/// counters and the wall-clock seconds for all CLIENTS × `per_client`
/// requests.
fn run_load(
    engine: &CompactEngine<f64>,
    max_batch: usize,
    per_client: usize,
) -> (ServiceStats, f64) {
    let mut registry = EngineRegistry::new();
    registry.insert("fc6", engine.clone());
    let config = ServeConfig {
        max_batch,
        queue_capacity: 1024,
        workers: 0, // resolve from tie_tensor::parallel
    };
    let service = InferenceService::start(registry, config).unwrap();
    let n = engine.matrix().shape().num_cols();

    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = service.client();
            let inputs = inputs_for(n, per_client, 100 + t as u64);
            std::thread::spawn(move || {
                let mut in_flight = std::collections::VecDeque::new();
                for x in inputs {
                    in_flight.push_back(client.submit("fc6", x).unwrap());
                    if in_flight.len() >= PIPELINE_DEPTH {
                        in_flight.pop_front().unwrap().wait().unwrap();
                    }
                }
                for ticket in in_flight {
                    ticket.wait().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = started.elapsed().as_secs_f64();
    (service.shutdown(), elapsed)
}

fn bench(c: &mut Criterion) {
    let engine = fc6_engine();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    // Criterion pass at a reduced load (service start/stop included in
    // the measurement); the JSON numbers below use the full load.
    for &mb in &MAX_BATCH_SWEEP {
        group.bench_with_input(BenchmarkId::new("throughput", mb), &mb, |bch, &mb| {
            bch.iter(|| run_load(&engine, mb, 32));
        });
    }
    group.finish();

    write_json(&engine);
}

fn write_json(engine: &CompactEngine<f64>) {
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let mut report = Report::new(
        "BENCH_serve",
        "Dynamic-batching service throughput vs max_batch (VGG-FC6 layer)",
        "not a paper figure — acceptance evidence for the serving PR \
         (batched dispatch must beat max_batch=1 at fixed offered load)",
    );
    report.headers([
        "max_batch",
        "req_per_s",
        "mean_occupancy",
        "mean_latency_us",
        "p_full_batches",
        "speedup_vs_b1",
    ]);

    let mut base_rps = 0.0;
    for &mb in &MAX_BATCH_SWEEP {
        let (stats, elapsed) = run_load(engine, mb, REQUESTS_PER_CLIENT);
        assert_eq!(stats.completed, total as u64, "all requests must complete");
        assert_eq!(stats.failed, 0);
        let rps = total / elapsed;
        if mb == 1 {
            base_rps = rps;
        }
        let full_share = if stats.batches == 0 {
            0.0
        } else {
            stats.full_batches as f64 / stats.batches as f64
        };
        report.row([
            mb.to_string(),
            fnum(rps),
            fnum(stats.mean_occupancy()),
            fnum(stats.mean_latency().as_secs_f64() * 1e6),
            fnum(full_share),
            fnum(rps / base_rps),
        ]);
    }
    report.note(format!(
        "{CLIENTS} client threads x {REQUESTS_PER_CLIENT} requests, pipeline depth \
         {PIPELINE_DEPTH}, workers auto"
    ));
    report.note(
        "occupancy > 1 shares per-dispatch overhead and per-stage weight \
         streaming across the batch (core_reads == num_params for any B)",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_serve.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
