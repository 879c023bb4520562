//! # loadbench — the TIE serving stack under load, end to end and per layer
//!
//! One run builds a workload from a seed, deploys it on `tie-serve`,
//! checks every response against the engine's own batch-1 output, drives
//! a closed loop and two open-loop rates, and prints its metrics. A traced
//! run instead times calls into each layer's public functions from here
//! and writes the spans. See `README.md` for the workloads and metrics.

pub mod drive;
pub mod heap;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

pub use run::{run, Options, Outcome};
pub use workload::Workload;
