//! Cycle-accurate, bit-accurate simulator of the TIE accelerator
//! (paper §4, Figs. 7–10).
//!
//! The paper's prototype is a 16-PE × 16-MAC fixed-point engine at
//! 1000 MHz in 28 nm CMOS (Table 5 / Fig. 11). This crate models that
//! micro-architecture faithfully enough to regenerate the paper's
//! performance tables:
//!
//! * [`TieConfig`] — the Table 5 design configuration (PE/MAC counts,
//!   SRAM capacities, quantization widths), with the paper prototype as
//!   `Default`,
//! * [`WeightSram`] — the tensor-core weight memory with the Fig. 9
//!   *interleaved* intra-core allocation (sequential inter-core),
//! * [`WorkingSram`] — one of the two ping-pong activation memories. The
//!   inter-stage Transform is realized "for free" by the Algorithm-2
//!   ReArrange, modeled on the write path: each produced element is stored
//!   at its transformed position (writes have an `N_Gcol`-cycle slack per
//!   block), so the every-cycle reads are sequential rows and provably
//!   conflict-free under the skewed banking; any residual conflicts would
//!   be detected and serialized, never ignored,
//! * [`PeArray`] — the Fig. 7 dataflow: each cycle broadcasts one column
//!   of `G̃_h` to all PEs and one row element of `V'_{h+1}` to each PE;
//!   an `N_MAC × N_PE` output block completes every `N_Gcol` cycles,
//! * [`TieAccelerator`] — the full engine: loads a TT layer into weight
//!   SRAM (16-bit quantized), executes the `d` compact-scheme stages with
//!   ping-pong working SRAMs, applies the activation units on the final
//!   stage, and reports [`RunStats`] (cycles, memory traffic, MAC
//!   counts, utilization, saturation events).
//!
//! Functional outputs are cross-checked against the float
//! [`tie_core::CompactEngine`] reference in the test suite; cycle counts
//! are cross-checked against the closed-form tiling model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod config;
mod pe_array;
mod qengine;
mod qpipeline;
mod reprobe;
mod sram;
mod stats;

pub use accelerator::{LoadedLayer, LoadedNetwork, TieAccelerator};
pub use config::{QuantConfig, TieConfig};
pub use pe_array::PeArray;
pub use qengine::QuantizedEngine;
pub use qpipeline::{PipeReport, PipelinedEngine, QuantChain};
pub use reprobe::{quantize_with_reprobe, ReprobeAttempt, ReprobeConfig, ReprobeReport};
pub use sram::{WeightSram, WorkingSram};
pub use stats::{RunStats, StageStats};

pub use tie_tensor::{Result, TensorError};
