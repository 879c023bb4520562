//! Dense tensor and linear-algebra substrate for the TIE reproduction.
//!
//! This crate provides the numeric foundation every other crate in the
//! workspace builds on:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides,
//! * [`Tensor`] — an owned, row-major, `d`-dimensional array over any
//!   [`Scalar`] element type (`f32` / `f64`),
//! * [`linalg`] — cache-blocked, optionally multi-threaded matrix
//!   multiplication, Householder QR and one-sided Jacobi SVD (including the
//!   truncated SVD used by TT-SVD decomposition),
//! * [`parallel`] — thread-count control for the dense kernels
//!   (`TIE_THREADS` env var, runtime override, spawn threshold),
//! * [`init`] — deterministic pseudo-random initialization helpers.
//!
//! The TIE paper (ISCA '19) evaluates tensor-train compressed layers; the
//! decomposition pipeline in `tie-tt` is a chain of reshapes and truncated
//! SVDs over these tensors, and the compact inference scheme in `tie-core`
//! is a chain of matrix multiplications and index transforms.
//!
//! # Example
//!
//! ```
//! use tie_tensor::{Tensor, linalg};
//!
//! # fn main() -> Result<(), tie_tensor::TensorError> {
//! let a = Tensor::<f64>::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::<f64>::eye(2);
//! let c = linalg::matmul(&a, &b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: five sanctioned exceptions. (1) The
// `#[target_feature]` SIMD multiversioning in `tile` (runtime-dispatched
// AVX/AVX2/AVX-512 instantiations of the shared tile-job bodies) — no
// raw-pointer code, the `unsafe` is solely the target-feature calling
// contract, discharged by `is_x86_feature_detected!` at the call site.
// (2) The lifetime-erased job handoff and disjoint slab carving in `pool`
// — each `unsafe` block there carries a SAFETY comment tying it to the
// dispatch protocol (a dispatcher never returns while a worker can still
// reach its job frame, and distinct slab indices map to non-overlapping
// sub-slices). (3) The streaming stage's scatter store in `tile` — raw
// writes through a `Dest` whose **unsafe trait** contract demands a
// proven bijection (`DestMap::new` validates it; `RowMajor` holds it by
// construction), so the stores are in-bounds and disjoint across the
// row-partitioned workers. (4) The same lifetime-erased job handoff, in
// barrier form, for the dedicated stage-pipeline threads in `pipeline`.
// (5) The per-span carving in `tile`'s k-blocked stages, the Gram
// route's column-block projection among them — `from_raw_parts_mut`
// over disjoint row or column spans handed out by the global driver's
// partition.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod scalar;
mod shape;
mod tensor;

pub mod init;
pub mod linalg;
pub mod parallel;
pub mod pipeline;
pub mod pool;
pub mod tile;

pub use error::TensorError;
pub use scalar::Scalar;
pub use shape::Shape;
pub use tensor::{max_abs, Tensor};

/// Convenience result alias used across the tensor substrate.
pub type Result<T, E = TensorError> = std::result::Result<T, E>;
