//! Sharded-serving throughput benchmark (sharding PR acceptance
//! evidence).
//!
//! A fixed offered load (8 client threads pipelining nonce-keyed
//! requests over a 16-layer registry) is driven through four topologies:
//! one plain `InferenceService` (no router), and a `ShardedService` at
//! 1, 2 and 4 shards (one replica each, one worker per replica). Every
//! topology sees the identical request stream, so the sweep isolates
//! what the shard router costs at S = 1 (hash + round-robin + retry
//! bookkeeping on top of the same single service) and what independent
//! per-shard queues and workers buy as S grows.
//!
//! Writes `BENCH_shard.json` at the repository root.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tie_bench::report::{fnum, Report};
use tie_core::CompactEngine;
use tie_serve::{
    EngineRegistry, InferenceService, ServeConfig, ServiceStats, ShardConfig, ShardedService,
};
use tie_tt::{TtMatrix, TtShape};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 192;
const PIPELINE_DEPTH: usize = 32;
const LAYERS: usize = 16;
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// 16 mid-size layers (64 → 512, d = 3, r = 4): heavy enough that the
/// stage GEMMs dominate the router, small enough for a quick sweep.
fn build_layers() -> Vec<(String, std::sync::Arc<CompactEngine<f64>>)> {
    (0..LAYERS)
        .map(|i| {
            let mut rng = ChaCha8Rng::seed_from_u64(4200 + i as u64);
            let shape = TtShape::uniform_rank(vec![4, 4, 4], vec![8, 8, 8], 4).unwrap();
            let engine = CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.5).unwrap());
            (format!("layer{i}"), std::sync::Arc::new(engine.unwrap()))
        })
        .collect()
}

fn registry_of(layers: &[(String, std::sync::Arc<CompactEngine<f64>>)]) -> EngineRegistry {
    let mut registry = EngineRegistry::new();
    for (name, engine) in layers {
        registry.insert_shared(name.clone(), std::sync::Arc::clone(engine));
    }
    registry
}

fn input_for(nonce: u64, n: usize) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn replica_config() -> ServeConfig {
    ServeConfig {
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    }
}

/// Drives the fixed load through `submit`; the closure abstracts over
/// the plain `Client` and the `ShardedClient`.
fn drive<C, F>(
    make_client: C,
    layers: &[(String, std::sync::Arc<CompactEngine<f64>>)],
    per_client: usize,
) -> f64
where
    C: Fn() -> F,
    F: FnMut(&str, Vec<f64>) -> tie_serve::Ticket + Send + 'static,
{
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let mut submit = make_client();
            let names: Vec<String> = layers.iter().map(|(n, _)| n.clone()).collect();
            let cols: Vec<usize> = layers
                .iter()
                .map(|(_, e)| e.matrix().shape().num_cols())
                .collect();
            std::thread::spawn(move || {
                let mut in_flight = std::collections::VecDeque::new();
                for i in 0..per_client {
                    let nonce = (t * per_client + i) as u64;
                    let li = nonce as usize % names.len();
                    in_flight.push_back(submit(&names[li], input_for(nonce, cols[li])));
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
    started.elapsed().as_secs_f64()
}

fn run_single(
    layers: &[(String, std::sync::Arc<CompactEngine<f64>>)],
    per_client: usize,
) -> (ServiceStats, f64) {
    let service = InferenceService::start(registry_of(layers), replica_config()).unwrap();
    let elapsed = drive(
        || {
            let client = service.client();
            move |name: &str, x: Vec<f64>| client.submit(name, x).unwrap()
        },
        layers,
        per_client,
    );
    (service.shutdown(), elapsed)
}

fn run_sharded(
    layers: &[(String, std::sync::Arc<CompactEngine<f64>>)],
    shards: usize,
    per_client: usize,
) -> (ServiceStats, f64) {
    let config = ShardConfig {
        shards,
        replicas: 1,
        replica: replica_config(),
        ..ShardConfig::default()
    };
    let service = ShardedService::start(registry_of(layers), config).unwrap();
    let elapsed = drive(
        || {
            let client = service.client();
            move |name: &str, x: Vec<f64>| client.submit(name, x).unwrap()
        },
        layers,
        per_client,
    );
    (service.shutdown().global(), elapsed)
}

fn bench(c: &mut Criterion) {
    let layers = build_layers();
    let mut group = c.benchmark_group("shard");
    group.sample_size(10);
    group.bench_function("single_service", |bch| {
        bch.iter(|| run_single(&layers, 24));
    });
    for &shards in &SHARD_SWEEP {
        group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |bch, &s| {
            bch.iter(|| run_sharded(&layers, s, 24));
        });
    }
    group.finish();

    write_json(&layers);
}

fn write_json(layers: &[(String, std::sync::Arc<CompactEngine<f64>>)]) {
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let mut report = Report::new(
        "BENCH_shard",
        "Sharded vs single-service throughput at fixed offered load (16 layers)",
        "not a paper figure — acceptance evidence for the sharding PR \
         (the router must cost little at S=1 and scale with independent shards)",
    );
    report.headers([
        "topology",
        "req_per_s",
        "mean_occupancy",
        "mean_latency_us",
        "speedup_vs_single",
    ]);

    let (stats, elapsed) = run_single(layers, REQUESTS_PER_CLIENT);
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.failed, 0);
    let base_rps = total / elapsed;
    report.row([
        "single-service".into(),
        fnum(base_rps),
        fnum(stats.mean_occupancy()),
        fnum(stats.mean_latency().as_secs_f64() * 1e6),
        fnum(1.0),
    ]);

    for &shards in &SHARD_SWEEP {
        let (stats, elapsed) = run_sharded(layers, shards, REQUESTS_PER_CLIENT);
        assert_eq!(stats.completed, total as u64, "all requests must complete");
        assert_eq!(stats.failed, 0);
        let rps = total / elapsed;
        report.row([
            format!("{shards}-shard"),
            fnum(rps),
            fnum(stats.mean_occupancy()),
            fnum(stats.mean_latency().as_secs_f64() * 1e6),
            fnum(rps / base_rps),
        ]);
    }
    report.note(format!(
        "{CLIENTS} client threads x {REQUESTS_PER_CLIENT} requests over {LAYERS} layers \
         (64->512, d=3, r=4), pipeline depth {PIPELINE_DEPTH}; one replica and one worker \
         per shard, max_batch 16"
    ));
    report.note(
        "each shard owns an independent queue + worker, so shard count scales \
         worker parallelism too — the S=1 row isolates pure router overhead vs the \
         no-router single service",
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    report.save_json(&root).expect("write BENCH_shard.json");
    println!("{report}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
