//! # tie — a from-scratch Rust reproduction of TIE (ISCA '19)
//!
//! *TIE: Energy-efficient Tensor Train-based Inference Engine for Deep
//! Neural Network*, Deng, Sun, Qian, Lin, Wang & Yuan, ISCA 2019.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `tie-tensor` | dense tensors, matmul, QR, Jacobi SVD |
//! | [`tt`] | `tie-tt` | TT-SVD, TT tensors/matrices, naive Eqn. (2) inference, tensor-ring |
//! | [`core`] | `tie-core` | **the paper's compact inference scheme** (Algorithm 1), transforms, op counting |
//! | [`quant`] | `tie-quant` | 16-bit fixed point with 24-bit saturating accumulators |
//! | [`nn`] | `tie-nn` | trainable dense/conv/recurrent layers, TT layers with exact backprop |
//! | [`sim`] | `tie-sim` | cycle-accurate, bit-accurate TIE accelerator simulator |
//! | [`energy`] | `tie-energy` | Table 6-calibrated area/power model, node projection |
//! | [`baselines`] | `tie-baselines` | EIE, CirCNN (with from-scratch FFT), Eyeriss models |
//! | [`workloads`] | `tie-workloads` | Table 4 benchmarks, VGG CONV workloads, sweeps |
//! | [`serve`] | `tie-serve` | dynamic-batching multi-threaded inference service |
//!
//! # Quickstart
//!
//! ```
//! use tie::prelude::*;
//!
//! # fn main() -> Result<(), tie::TensorError> {
//! // 1. A weight matrix, TT-decomposed at full rank (lossless here).
//! let w = Tensor::<f64>::from_fn(vec![8, 12], |i| ((i[0] * 13 + i[1] * 7) % 10) as f64 * 0.1)?;
//! let ttm = TtMatrix::from_dense(&w, &[2, 4], &[3, 4], Truncation::none())?;
//!
//! // 2. The compact inference scheme (the paper's contribution).
//! let engine = CompactEngine::new(ttm.clone())?;
//! // Normalized activations: the accelerator's one-shot fixed-point
//! // calibration (see `tie::sim::QuantConfig`) probes at unit
//! // amplitude by default.
//! let x = Tensor::<f64>::from_fn(vec![12], |i| i[0] as f64 / 11.0)?;
//! let (y, ops) = engine.matvec(&x)?;
//! assert!(y.approx_eq(&tie::tensor::linalg::matvec(&w, &x)?, 1e-9));
//!
//! // 3. The same layer on the cycle-accurate TIE accelerator.
//! let mut tie = TieAccelerator::new(TieConfig::default())?;
//! let layer = tie.load_layer(ttm)?;
//! let (y_hw, stats) = tie.run(&layer, &x, false)?;
//! assert!(y_hw.approx_eq(&y, 1e-2));
//! assert_eq!(stats.macs(), ops.mults);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tie_baselines as baselines;
pub use tie_core as core;
pub use tie_energy as energy;
pub use tie_nn as nn;
pub use tie_quant as quant;
pub use tie_serve as serve;
pub use tie_sim as sim;
pub use tie_tensor as tensor;
pub use tie_tt as tt;
pub use tie_workloads as workloads;

pub use tie_tensor::{Result, TensorError};

/// The most common imports in one place.
pub mod prelude {
    pub use tie_core::{CompactEngine, InferencePlan};
    pub use tie_energy::{Metrics, TieAreaPowerModel};
    pub use tie_quant::{QFormat, QTensor};
    pub use tie_serve::{
        EngineRegistry, HashRing, InferenceService, ServeConfig, ShardConfig, ShardedService,
    };
    pub use tie_sim::{TieAccelerator, TieConfig};
    pub use tie_tensor::linalg::Truncation;
    pub use tie_tensor::{Scalar, Shape, Tensor};
    pub use tie_tt::{TtMatrix, TtShape, TtTensor};
}
