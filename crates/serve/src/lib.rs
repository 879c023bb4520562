//! # tie-serve — dynamic-batching inference service over the compact TT
//! # engine
//!
//! TIE's compact inference scheme (PAPER.md, Eqns. 8/10) turns a TT-layer
//! forward pass into `d` GEMMs, and its batched form rides the batch
//! dimension inner-most so a batch of `B` inputs still costs one GEMM per
//! stage with `core_reads == num_params`. That makes *dynamic batching*
//! the natural serving strategy: amortise per-request overhead by grouping
//! concurrent requests for the same layer into one
//! [`CompactEngine::matvec_batch_into`](tie_core::CompactEngine) call.
//!
//! This crate is a self-contained serving layer on `std` threads, one
//! `Mutex`-guarded queue and its condvars — no external dependencies:
//!
//! * [`EngineRegistry`] — prepared engines keyed by layer name, shared via
//!   `Arc`. Three backends coexist: float `CompactEngine`s
//!   ([`EngineRegistry::insert`]), bit-accurate fixed-point
//!   [`tie_sim::QuantizedEngine`]s
//!   ([`EngineRegistry::insert_quantized`]), and pipeline-parallel
//!   [`tie_sim::PipelinedEngine`]s wrapping either datapath
//!   ([`EngineRegistry::insert_pipelined`]) — clients submit the same
//!   `f64` requests every way, quantized batches feed the `quant_*`
//!   saturation counters in [`ServiceStats`]
//!   (see [`ServiceStats::quant_saturation_rate`]), and pipelined batches
//!   feed the `pipeline_*` occupancy/stall/handoff counters (see
//!   [`ServiceStats::pipeline_stall_fraction`]; the books reconcile
//!   exactly: `pipeline_stage_chunks == pipeline_chunks +
//!   pipeline_handoffs`).
//! * [`InferenceService`] — owns a bounded request queue with one lane
//!   per layer and a worker pool sized by [`tie_tensor::parallel`] that
//!   pulls from it: an idle worker takes the lane whose head request is
//!   oldest, up to `max_batch` requests, and runs it as one engine call.
//!   Workers hold private engine clones, so execution never contends on a
//!   scratch-workspace lock, and an idle worker spins for the measured
//!   cost of a park before it parks.
//! * [`Client`] — cheap cloneable submission handle; blocking
//!   [`Client::submit`] and non-blocking [`Client::try_submit`] push
//!   straight into the bounded queue (backpressure).
//! * [`Ticket`] — per-request future; [`Ticket::wait`] returns the
//!   [`Response`].
//! * [`ServiceStats`] — per-request latency and per-batch
//!   occupancy/throughput counters; after a clean
//!   [`InferenceService::shutdown`], `submitted == completed + failed`.
//! * [`ShardedService`] / [`ShardedClient`] — the scale-out layer: a
//!   deterministic consistent-hash [`HashRing`] partitions the registry
//!   into shards, each served by `R` replica [`InferenceService`]s with
//!   their own bounded queues; the client routes by layer key, retries a
//!   fully-backpressured shard with bounded backoff, and fails fast when
//!   a shard is draining. [`ShardedStats`] rolls per-replica counters up
//!   into per-shard ([`ShardStats`]) and global views whose books always
//!   balance (see `shard.rs` module docs for the failure semantics).
//!
//! Batching changes *scheduling*, never *numerics*: the batched pass is
//! bitwise identical to `B` independent single-input calls (proved by the
//! engine's property suite and re-checked end-to-end by the stress suite).
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use tie_core::CompactEngine;
//! use tie_serve::{EngineRegistry, InferenceService, ServeConfig};
//! use tie_tt::{TtMatrix, TtShape};
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
//! let tt = TtMatrix::random(&mut rng, &shape, 0.5).unwrap();
//!
//! let mut registry = EngineRegistry::new();
//! registry.insert("fc", CompactEngine::new(tt).unwrap());
//!
//! let service = InferenceService::start(registry, ServeConfig::default()).unwrap();
//! let client = service.client();
//! let ticket = client.submit("fc", vec![0.5; 6]).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.output.len(), 6);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.submitted, stats.completed + stats.failed);
//! ```

mod config;
mod error;
mod queue;
mod registry;
mod request;
mod router;
mod service;
mod shard;
mod stats;
mod worker;

pub use config::{ServeConfig, ShardConfig};
pub use error::ServeError;
pub use registry::EngineRegistry;
pub use request::{Response, Ticket};
pub use router::HashRing;
pub use service::{Client, InferenceService};
pub use shard::{ShardedClient, ShardedService};
pub use stats::{ServiceStats, ShardStats, ShardedStats};
pub use tie_core::Activation;
