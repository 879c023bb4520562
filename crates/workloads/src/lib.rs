//! Benchmark workload definitions for the TIE reproduction.
//!
//! * [`benchmarks`] — the paper's Table 4 workloads (VGG-FC6, VGG-FC7,
//!   LSTM-UCF11, LSTM-Youtube) with their exact TT settings,
//! * [`vgg_conv`] — the VGG-16 CONV stack as TT workloads (Table 9); the
//!   paper does not print its CONV TT settings, so the factorization and
//!   rank choice are documented here and swept in the experiments,
//! * [`sparsity`] — per-layer weight/activation density profiles for the
//!   EIE comparison (from the EIE paper's measurements),
//! * [`sweep`] — rank sweeps (Fig. 13) and random-workload generators for
//!   property tests and robustness experiments,
//! * [`factorize`] — automatic TT-layout planning (the paper picks its
//!   mode factorizations by hand; this searches balanced candidates and
//!   checks them against the SRAM budgets),
//! * [`compile`] — end-to-end model compilation: dense weights → TT-SVD →
//!   [`tie_core::CompactEngine`] registered in a serving
//!   `EngineRegistry`, with compression-ratio and reconstruction-error
//!   reporting against Table 4,
//! * [`autotune`] — per-layer design-space search over TT layouts, rank
//!   budgets, SVD routes, batch widths and quant calibration margins,
//!   emitting serializable [`tie_core::DeploymentPlan`]s validated
//!   against live saturation measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod benchmarks;
pub mod compile;
pub mod factorize;
pub mod sparsity;
pub mod sweep;
pub mod vgg_conv;

pub use autotune::{
    autotune_layer, autotune_table4, registry_from_plans, tuned_table4_registry, SearchSpace,
    TunedLayer, TunerConfig,
};
pub use benchmarks::{
    layer_weight_seed, table4_benchmarks, table4_layer_specs, Benchmark, LayerSpec, Task,
};
pub use compile::{
    compile_dense_layer, compile_spec, compile_table4, spec_weights, synthetic_layer_weights,
    CompileOptions, CompiledLayer, ErrorCheck, LayerCompileReport,
};

pub use tie_tensor::{Result, TensorError};
