//! TT-SVD: decomposing a dense tensor into tensor-train format.
//!
//! This is the standard algorithm of Oseledets (2011), Algorithm 1: sweep
//! over the dimensions, at each step computing a truncated SVD of the
//! current unfolding matrix; the left factor becomes the next TT core and
//! the right factor carries on.

use crate::TtTensor;
use tie_tensor::linalg::{truncated_svd_of, truncated_svd_with, SvdMethod, Truncation};
use tie_tensor::tile::{ColumnBlocks, Dense};
use tie_tensor::{Result, Scalar, Tensor};

/// Decomposes a dense tensor into TT format.
///
/// `trunc` controls the rank growth at every internal SVD:
/// [`Truncation::none`] gives an (up to numerical noise) exact
/// decomposition, [`Truncation::rank`] caps every interior rank (the
/// configuration used throughout the paper, e.g. `r = 4`), and
/// [`Truncation::tolerance`] implements the delta-truncation rule.
///
/// For a *relative* target error `ε` over the whole tensor, pass
/// `Truncation::tolerance(ε · ‖A‖_F / sqrt(d−1))` — each of the `d−1` SVDs
/// then contributes at most its share of the budget, and the total error is
/// bounded by `ε · ‖A‖_F` (Oseledets, Thm. 2.2). [`tt_svd_relative`] wraps
/// exactly that.
///
/// # Errors
///
/// Propagates SVD convergence failures and shape errors from the substrate.
///
/// # Example
///
/// ```
/// use tie_tensor::{Tensor, linalg::Truncation};
/// use tie_tt::decompose::tt_svd;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let a = Tensor::<f64>::from_fn(vec![2, 3, 4], |i| (i[0] + i[1] + i[2]) as f64)?;
/// let tt = tt_svd(&a, Truncation::none())?;
/// assert_eq!(tt.mode_sizes(), vec![2, 3, 4]);
/// assert!(tt.to_dense()?.approx_eq(&a, 1e-10));
/// # Ok(())
/// # }
/// ```
pub fn tt_svd<T: Scalar>(tensor: &Tensor<T>, trunc: Truncation) -> Result<TtTensor<T>> {
    tt_svd_with(tensor, trunc, SvdMethod::default())
}

/// [`tt_svd`] with explicit SVD algorithm selection per unfolding.
///
/// [`SvdMethod::default`] (`Auto`) sends small unfoldings to exact Jacobi
/// and large rank-capped or extremely thin ones to the seeded randomized
/// SVD; pass [`SvdMethod::Jacobi`] to pin the legacy exact path or
/// [`SvdMethod::Randomized`] to force the sketch with explicit parameters.
/// The method (and its seed) fully determines the result: the randomized
/// path is bit-identical for a fixed seed at any `TIE_THREADS` setting.
///
/// # Errors
///
/// Propagates SVD convergence failures and shape errors from the substrate.
pub fn tt_svd_with<T: Scalar>(
    tensor: &Tensor<T>,
    trunc: Truncation,
    method: SvdMethod,
) -> Result<TtTensor<T>> {
    let modes = tensor.dims();
    let rest = modes[1..].iter().product();
    tt_svd_from(
        &Dense::new(tensor.data(), modes[0], rest),
        modes,
        trunc,
        method,
    )
}

/// The TT-SVD sweep over a tensor with the given `modes`, whose first
/// unfolding (`modes[0] × ∏ modes[1..]`) is read through `first`.
///
/// The first step takes its SVD straight from the source
/// ([`truncated_svd_of`]): on the wide Gram route it reads the source one
/// column block at a time, and no copy of the tensor is made. Every later
/// remainder is the owned `S·Vᵀ` buffer of the step before, and the sweep
/// only ever reshapes it, a metadata change on a row-major tensor.
pub(crate) fn tt_svd_from<T: Scalar, S: ColumnBlocks<T>>(
    first: &S,
    modes: &[usize],
    trunc: Truncation,
    method: SvdMethod,
) -> Result<TtTensor<T>> {
    let d = modes.len();
    let mut cores = Vec::with_capacity(d);
    // C is the remainder matrix, (r_{k-1} * n_k) × (rest) at step k; the
    // first step reads `first` instead.
    let mut c: Option<Tensor<T>> = None;
    let mut r_prev = 1usize;
    for k in 0..d - 1 {
        let svd = match &c {
            None => truncated_svd_of(first, trunc, method)?,
            Some(c) => truncated_svd_with(c, trunc, method)?,
        };
        let rest: usize = modes[k + 1..].iter().product();
        let rk = svd.s.len();
        let mut u = svd.u;
        u.reshape(vec![r_prev, modes[k], rk])?;
        cores.push(u);
        // C ← diag(S) · Vᵀ  (rk × rest)
        let mut sv = svd.vt;
        for i in 0..rk {
            let row = &mut sv.data_mut()[i * rest..(i + 1) * rest];
            for v in row.iter_mut() {
                *v *= svd.s[i];
            }
        }
        // Prepare for the next step: fold the produced rank into the row
        // dimension of the next unfolding.
        let next_n = modes[k + 1];
        sv.reshape(vec![rk * next_n, rest / next_n])?;
        c = Some(sv);
        r_prev = rk;
    }
    // Last core is the remainder itself.
    let mut c = c.unwrap_or_else(|| first.gathered());
    c.reshape(vec![r_prev, modes[d - 1], 1])?;
    cores.push(c);
    TtTensor::new(cores)
}

/// TT-SVD with a *relative* Frobenius error target over the whole tensor.
///
/// Distributes the budget `rel_tol · ‖A‖_F` uniformly over the `d − 1`
/// internal SVDs. `max_rank`, when given, additionally caps every interior
/// rank.
///
/// # Errors
///
/// Propagates [`tt_svd`] errors.
pub fn tt_svd_relative<T: Scalar>(
    tensor: &Tensor<T>,
    rel_tol: f64,
    max_rank: Option<usize>,
) -> Result<TtTensor<T>> {
    tt_svd_relative_with(tensor, rel_tol, max_rank, SvdMethod::default())
}

/// [`tt_svd_relative`] with explicit SVD algorithm selection.
///
/// # Errors
///
/// Propagates [`tt_svd_with`] errors.
pub fn tt_svd_relative_with<T: Scalar>(
    tensor: &Tensor<T>,
    rel_tol: f64,
    max_rank: Option<usize>,
    method: SvdMethod,
) -> Result<TtTensor<T>> {
    let d = tensor.ndim().max(2);
    let budget = rel_tol * tensor.frobenius_norm() / ((d - 1) as f64).sqrt();
    let trunc = Truncation {
        max_rank,
        frobenius_tol: budget,
    };
    tt_svd_with(tensor, trunc, method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::init;

    #[test]
    fn exact_decomposition_roundtrips() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        for dims in [vec![2, 3, 4], vec![5, 2], vec![2, 2, 2, 2, 2], vec![7]] {
            let a: Tensor<f64> = init::uniform(&mut rng, dims.clone(), 1.0);
            let tt = tt_svd(&a, Truncation::none()).unwrap();
            let back = tt.to_dense().unwrap();
            assert!(
                back.approx_eq(&a, 1e-9),
                "roundtrip failed for {dims:?}: rel err {}",
                back.relative_error(&a).unwrap()
            );
        }
    }

    #[test]
    fn ranks_bounded_by_unfolding_dims() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![3, 4, 5], 1.0);
        let tt = tt_svd(&a, Truncation::none()).unwrap();
        let r = tt.ranks();
        // r_1 <= n_1, r_2 <= n_3 (from the right), standard TT rank bounds.
        assert!(r[1] <= 3);
        assert!(r[2] <= 5);
    }

    #[test]
    fn low_rank_structure_is_detected() {
        // A separable tensor A(i,j,k) = x_i * y_j * z_k has all TT ranks 1.
        let x = [1.0, -2.0, 0.5];
        let y = [3.0, 1.0];
        let z = [0.2, 0.4, 0.8, 1.6];
        let a = Tensor::<f64>::from_fn(vec![3, 2, 4], |i| x[i[0]] * y[i[1]] * z[i[2]]).unwrap();
        let tt = tt_svd(&a, Truncation::tolerance(1e-10)).unwrap();
        assert_eq!(tt.ranks(), vec![1, 1, 1, 1]);
        assert!(tt.to_dense().unwrap().approx_eq(&a, 1e-10));
    }

    #[test]
    fn rank_cap_is_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![4, 4, 4, 4], 1.0);
        let tt = tt_svd(&a, Truncation::rank(2)).unwrap();
        assert!(tt.ranks().iter().all(|&r| r <= 2));
        // With capped ranks the reconstruction is approximate but finite.
        let back = tt.to_dense().unwrap();
        assert!(back.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relative_tolerance_bounds_total_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        // Low-rank + small noise: decomposing with rel_tol above the noise
        // floor must give error <= rel_tol.
        let base = crate::TtTensor::<f64>::random(&mut rng, &[4, 4, 4], &[1, 2, 2, 1], 1.0)
            .unwrap()
            .to_dense()
            .unwrap();
        let noise: Tensor<f64> = init::uniform(&mut rng, vec![4, 4, 4], 1e-6);
        let a = base.add(&noise).unwrap();
        let tt = tt_svd_relative(&a, 1e-3, None).unwrap();
        let err = tt.to_dense().unwrap().relative_error(&a).unwrap();
        assert!(err <= 1e-3, "relative error {err} exceeds target");
        // And it should have found the low ranks.
        assert!(tt.ranks().iter().all(|&r| r <= 2 || r == 1));
    }

    #[test]
    fn decomposition_of_2d_matrix_matches_svd_rank() {
        // For a 2-D tensor TT-SVD is just an SVD; rank of identity is n.
        let a = Tensor::<f64>::eye(4);
        let tt = tt_svd(&a, Truncation::tolerance(1e-12)).unwrap();
        assert_eq!(tt.ranks()[1], 4);
        assert!(tt.to_dense().unwrap().approx_eq(&a, 1e-10));
    }
}
