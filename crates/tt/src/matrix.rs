use crate::{decompose::tt_svd_from, TtShape, TtTensor};
use tie_tensor::linalg::{SvdMethod, Truncation};
use tie_tensor::tile::ColumnBlocks;
use tie_tensor::{Result, Scalar, Tensor, TensorError};

use rand::Rng;

/// A matrix `W ∈ R^{M×N}` stored in TT-matrix format (paper §2.2).
///
/// With `M = ∏ m_k` and `N = ∏ n_k`, the matrix is kept as `d` 4-D cores
/// `G_k ∈ R^{r_{k-1} × m_k × n_k × r_k}` such that
///
/// ```text
/// W(i, j) = G_1[i_1, j_1] · G_2[i_2, j_2] ⋯ G_d[i_d, j_d]
/// ```
///
/// where `G_k[i_k, j_k]` is an `r_{k-1} × r_k` slice and the row/column
/// indices decompose **row-major** (`i_1` most significant):
/// `i = Σ_k i_k ∏_{t>k} m_t`, `j = Σ_k j_k ∏_{t>k} n_t`.
///
/// The decomposition of a dense matrix follows Novikov et al. (NIPS '15):
/// TT-decompose `W` as the `d`-mode tensor with fused modes `l_k = i_k n_k
/// + j_k`, and split each fused mode back into `(m_k, n_k)`. That tensor
/// is only a permutation of `W`, so it is never stored: the TT-SVD reads
/// `W` through the fused-mode index map.
#[derive(Debug, Clone, PartialEq)]
pub struct TtMatrix<T: Scalar> {
    shape: TtShape,
    cores: Vec<Tensor<T>>,
}

impl<T: Scalar> TtMatrix<T> {
    /// Builds a TT matrix from explicit 4-D cores.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if a core is not 4-D or the
    /// rank chain / boundary conditions are violated.
    pub fn new(cores: Vec<Tensor<T>>) -> Result<Self> {
        if cores.is_empty() {
            return Err(TensorError::InvalidArgument {
                message: "TT matrix needs at least one core".into(),
            });
        }
        for (k, c) in cores.iter().enumerate() {
            if c.ndim() != 4 {
                return Err(TensorError::InvalidArgument {
                    message: format!("core {k} must be 4-d, has {} dims", c.ndim()),
                });
            }
        }
        let d = cores.len();
        let row_modes: Vec<usize> = cores.iter().map(|c| c.dims()[1]).collect();
        let col_modes: Vec<usize> = cores.iter().map(|c| c.dims()[2]).collect();
        let mut ranks: Vec<usize> = cores.iter().map(|c| c.dims()[0]).collect();
        ranks.push(cores[d - 1].dims()[3]);
        for k in 0..d - 1 {
            if cores[k].dims()[3] != cores[k + 1].dims()[0] {
                return Err(TensorError::InvalidArgument {
                    message: format!(
                        "rank chain broken between cores {k} and {}: {} vs {}",
                        k + 1,
                        cores[k].dims()[3],
                        cores[k + 1].dims()[0]
                    ),
                });
            }
        }
        let shape = TtShape::new(row_modes, col_modes, ranks)?;
        Ok(TtMatrix { shape, cores })
    }

    /// Random TT matrix with the given layout (elements uniform in
    /// `[-scale, scale]`); used to synthesize the performance workloads,
    /// whose behavior depends only on the layout.
    ///
    /// # Errors
    ///
    /// Cannot fail for a valid [`TtShape`]; propagates internal shape errors.
    pub fn random<R: Rng>(rng: &mut R, shape: &TtShape, scale: f64) -> Result<Self> {
        let cores = (0..shape.ndim())
            .map(|k| {
                let [r0, m, n, r1] = shape.core_dims(k);
                tie_tensor::init::uniform(rng, vec![r0, m, n, r1], scale)
            })
            .collect();
        TtMatrix::new(cores)
    }

    /// Decomposes a dense `M × N` matrix into TT format.
    ///
    /// `row_modes` / `col_modes` give the factorization `M = ∏ m_k`,
    /// `N = ∏ n_k`; `trunc` bounds the rank growth at every internal SVD
    /// ([`Truncation::rank`] reproduces the paper's fixed-rank setting).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the factorizations do not
    /// multiply out to the matrix dimensions, plus any SVD failure.
    pub fn from_dense(
        w: &Tensor<T>,
        row_modes: &[usize],
        col_modes: &[usize],
        trunc: Truncation,
    ) -> Result<Self> {
        Self::from_dense_with(w, row_modes, col_modes, trunc, SvdMethod::default())
    }

    /// [`TtMatrix::from_dense`] with explicit SVD algorithm selection for
    /// the internal TT-SVD (see
    /// [`tie_tensor::linalg::truncated_svd_with`] for the `Auto` rule;
    /// the randomized path makes paper-scale layers — VGG FC6 is
    /// 25088×4096 — compile in seconds).
    ///
    /// The first TT-SVD step reads `w` through the fused-mode index map
    /// ([`tie_tensor::linalg::truncated_svd_of`]). On the wide Gram route,
    /// which every Table 4 layer's first step takes, its Gram matrix and
    /// projection gather each 512-column block of the fused tensor's
    /// first unfolding straight from `w`, so the largest buffer the
    /// compile allocates is that step's `Vᵀ` (`r_1 × N·M / (m_1 n_1)`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the factorizations do not
    /// multiply out to the matrix dimensions, plus any SVD failure.
    pub fn from_dense_with(
        w: &Tensor<T>,
        row_modes: &[usize],
        col_modes: &[usize],
        trunc: Truncation,
        method: SvdMethod,
    ) -> Result<Self> {
        let (rows, cols) = (w.nrows()?, w.ncols()?);
        if row_modes.iter().product::<usize>() != rows
            || col_modes.iter().product::<usize>() != cols
            || row_modes.len() != col_modes.len()
            || row_modes.is_empty()
        {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "mode factorization {row_modes:?} x {col_modes:?} does not match {rows}x{cols}"
                ),
            });
        }
        let fused_modes: Vec<usize> = row_modes
            .iter()
            .zip(col_modes)
            .map(|(&m, &n)| m * n)
            .collect();
        let first = FusedUnfolding::new(w.data(), row_modes, col_modes);
        let tt = tt_svd_from(&first, &fused_modes, trunc, method)?;
        let cores = tt
            .into_cores()
            .into_iter()
            .enumerate()
            .map(|(k, c)| {
                let [r0, _, r1] = [c.dims()[0], c.dims()[1], c.dims()[2]];
                c.reshaped(vec![r0, row_modes[k], col_modes[k], r1])
            })
            .collect::<Result<Vec<_>>>()?;
        TtMatrix::new(cores)
    }

    /// The layout tuple `(d, m, n, r)`.
    pub fn shape(&self) -> &TtShape {
        &self.shape
    }

    /// The 4-D cores.
    pub fn cores(&self) -> &[Tensor<T>] {
        &self.cores
    }

    /// Consumes the matrix and returns the cores.
    pub fn into_cores(self) -> Vec<Tensor<T>> {
        self.cores
    }

    /// Number of TT dimensions `d`.
    pub fn ndim(&self) -> usize {
        self.cores.len()
    }

    /// Total stored parameters.
    pub fn num_params(&self) -> usize {
        self.cores.iter().map(Tensor::num_elements).sum()
    }

    /// The `r_{k-1} × r_k` slice `G_k[i_k, j_k]` (copied).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for bad indices.
    pub fn core_slice(&self, k: usize, ik: usize, jk: usize) -> Result<Tensor<T>> {
        if k >= self.ndim() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![k],
                shape: vec![self.ndim()],
            });
        }
        let core = &self.cores[k];
        let [r0, m, n, r1] = [
            core.dims()[0],
            core.dims()[1],
            core.dims()[2],
            core.dims()[3],
        ];
        if ik >= m || jk >= n {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![ik, jk],
                shape: vec![m, n],
            });
        }
        let mut out = Tensor::zeros(vec![r0, r1]);
        for a in 0..r0 {
            let base = ((a * m + ik) * n + jk) * r1;
            out.data_mut()[a * r1..(a + 1) * r1].copy_from_slice(&core.data()[base..base + r1]);
        }
        Ok(out)
    }

    /// Single matrix element `W(i, j)` via the slice-product chain.
    ///
    /// Allocation-free for ranks up to 32: the mode digits are peeled off
    /// as the chain walks the cores, and the running row vector ping-pongs
    /// between two stack buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for bad indices.
    pub fn get(&self, i: usize, j: usize) -> Result<T> {
        const STACK_RANK: usize = 32;
        let (rows, cols) = (self.shape.num_rows(), self.shape.num_cols());
        if i >= rows || j >= cols {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i, j],
                shape: vec![rows, cols],
            });
        }
        let r = self.shape.max_rank();
        if r <= STACK_RANK {
            let mut bufs = [[T::ZERO; STACK_RANK]; 2];
            let [v, next] = &mut bufs;
            Ok(self.slice_chain(i, j, v, next))
        } else {
            Ok(self.slice_chain(i, j, &mut vec![T::ZERO; r], &mut vec![T::ZERO; r]))
        }
    }

    /// The body of [`TtMatrix::get`] for in-range `(i, j)`, on two
    /// scratch buffers of at least the maximum rank. Each entry of the
    /// running vector sums over `a` in ascending order, skipping zeros.
    fn slice_chain<'a>(&self, i: usize, j: usize, mut v: &'a mut [T], mut next: &'a mut [T]) -> T {
        // Mixed-radix digits, most significant (core 0) first: the place
        // value of mode k is the product of the modes after it.
        let (mut i_place, mut j_place) = (self.shape.num_rows(), self.shape.num_cols());
        v[0] = T::ONE;
        let mut len = 1;
        for core in &self.cores {
            let [r0, m, n, r1] = [
                core.dims()[0],
                core.dims()[1],
                core.dims()[2],
                core.dims()[3],
            ];
            debug_assert_eq!(len, r0);
            i_place /= m;
            j_place /= n;
            let (ik, jk) = ((i / i_place) % m, (j / j_place) % n);
            let d = core.data();
            next[..r1].fill(T::ZERO);
            for (a, &va) in v[..len].iter().enumerate() {
                if va == T::ZERO {
                    continue;
                }
                let base = ((a * m + ik) * n + jk) * r1;
                for (nb, &g) in next[..r1].iter_mut().zip(&d[base..base + r1]) {
                    *nb += va * g;
                }
            }
            std::mem::swap(&mut v, &mut next);
            len = r1;
        }
        v[0]
    }

    /// Reconstructs the dense `M × N` matrix (validation / small layers).
    ///
    /// # Errors
    ///
    /// Propagates internal shape errors (cannot occur for a valid TT).
    pub fn to_dense(&self) -> Result<Tensor<T>> {
        // Reuse the TtTensor contraction over fused modes, then unfuse.
        let fused: Vec<Tensor<T>> = self
            .cores
            .iter()
            .map(|c| {
                let [r0, m, n, r1] = [c.dims()[0], c.dims()[1], c.dims()[2], c.dims()[3]];
                c.reshaped(vec![r0, m * n, r1])
            })
            .collect::<Result<Vec<_>>>()?;
        let b = TtTensor::new(fused)?.to_dense()?;
        let (rows, cols) = (self.shape.num_rows(), self.shape.num_cols());
        let mut w = Tensor::zeros(vec![rows, cols]);
        let fused_shape = b.shape().clone();
        for off in 0..b.num_elements() {
            let l = fused_shape.unflatten(off);
            let mut i = 0usize;
            let mut j = 0usize;
            let modes = self.shape.row_modes.iter().zip(&self.shape.col_modes);
            for (&lk, (&rm, &cm)) in l.iter().zip(modes) {
                i = i * rm + lk / cm;
                j = j * cm + lk % cm;
            }
            w.data_mut()[i * cols + j] = b.data()[off];
        }
        Ok(w)
    }

    /// Casts the element type.
    pub fn cast<U: Scalar>(&self) -> TtMatrix<U> {
        TtMatrix {
            shape: self.shape.clone(),
            cores: self.cores.iter().map(Tensor::cast).collect(),
        }
    }
}

/// The first unfolding of the Novikov fused tensor `B(l_1, …, l_d)`,
/// `l_k = i_k·n_k + j_k`, read straight from the row-major dense `w`.
///
/// `B` is a pure permutation of `W`: element `(l_1, …, l_d)` is `W(i, j)`
/// with `i = Σ i_k ∏_{t>k} m_t`, `j = Σ j_k ∏_{t>k} n_t`. Its first
/// unfolding has rows `l_1` and columns `(l_2, …, l_d)` row-major. The
/// source offset of an element is a sum of per-mode lookup tables,
/// `contrib[k][l_k] = i_k·(row stride)·cols + j_k·(col stride)`, so a
/// column block is gathered with no div/mod per element: an incremental
/// odometer over the middle modes walks the block in runs of the last
/// mode, and each run reads `w` through the last mode's table. Each
/// gathered block holds the values the stored fused tensor held, in the
/// same order.
struct FusedUnfolding<'a, T> {
    w: &'a [T],
    /// `contrib[0]`: the source offset of each row `l_1`.
    rows: Vec<usize>,
    /// Sizes of the fused modes `2 .. d-1`, the odometer's digits.
    mid_modes: Vec<usize>,
    /// `contrib[1 .. d-1]`.
    mid: Vec<Vec<usize>>,
    /// `contrib[d-1]`, or `[0]` for a single-mode matrix (one column).
    last: Vec<usize>,
}

impl<'a, T: Scalar> FusedUnfolding<'a, T> {
    /// The map for a row-major `w` of `∏ row_modes × ∏ col_modes`.
    fn new(w: &'a [T], row_modes: &[usize], col_modes: &[usize]) -> Self {
        let d = row_modes.len();
        let cols: usize = col_modes.iter().product();
        // Row-major strides of the row/column digit positions in the flat
        // source offset i*cols + j.
        let mut row_stride = vec![1usize; d];
        let mut col_stride = vec![1usize; d];
        for k in (0..d.saturating_sub(1)).rev() {
            row_stride[k] = row_stride[k + 1] * row_modes[k + 1];
            col_stride[k] = col_stride[k + 1] * col_modes[k + 1];
        }
        let mut contrib: Vec<Vec<usize>> = (0..d)
            .map(|k| {
                (0..row_modes[k] * col_modes[k])
                    .map(|l| {
                        (l / col_modes[k]) * row_stride[k] * cols
                            + (l % col_modes[k]) * col_stride[k]
                    })
                    .collect()
            })
            .collect();
        let rows = contrib.remove(0);
        let last = contrib.pop().unwrap_or_else(|| vec![0]);
        FusedUnfolding {
            w,
            rows,
            mid_modes: contrib.iter().map(Vec::len).collect(),
            mid: contrib,
            last,
        }
    }
}

impl<T: Scalar> ColumnBlocks<T> for FusedUnfolding<'_, T> {
    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn cols(&self) -> usize {
        self.mid_modes.iter().product::<usize>() * self.last.len()
    }

    fn block<'s>(&'s self, j0: usize, len: usize, scratch: &'s mut Vec<T>) -> (&'s [T], usize) {
        scratch.resize(self.rows.len() * len, T::ZERO);
        let (w, last) = (self.w, &self.last);
        // Middle-mode digits of column `j0`, and the offset they
        // contribute; the odometer then advances them run by run.
        let mut digits = decompose_index(j0 / last.len(), &self.mid_modes);
        let mut base: usize = digits.iter().zip(&self.mid).map(|(&l, c)| c[l]).sum();
        let (mut x, mut l0) = (0, j0 % last.len());
        while x < len {
            let run = &last[l0..(l0 + len - x).min(last.len())];
            for (&row, out) in self.rows.iter().zip(scratch.chunks_exact_mut(len)) {
                let src = row + base;
                for (o, &c) in out[x..x + run.len()].iter_mut().zip(run) {
                    *o = w[src + c];
                }
            }
            x += run.len();
            l0 = 0;
            for k in (0..digits.len()).rev() {
                base -= self.mid[k][digits[k]];
                digits[k] += 1;
                if digits[k] < self.mid_modes[k] {
                    base += self.mid[k][digits[k]];
                    break;
                }
                // `contrib[k][0]` is 0.
                digits[k] = 0;
            }
        }
        (scratch, len)
    }
}

/// Splits a flat row-major index into per-mode digits (`i_1` first).
pub fn decompose_index(mut index: usize, modes: &[usize]) -> Vec<usize> {
    let mut digits = vec![0usize; modes.len()];
    for (k, &m) in modes.iter().enumerate().rev() {
        digits[k] = index % m;
        index /= m;
    }
    digits
}

/// Fuses per-mode digits back into a flat row-major index.
pub fn compose_index(digits: &[usize], modes: &[usize]) -> usize {
    digits
        .iter()
        .zip(modes)
        .fold(0usize, |acc, (&d, &m)| acc * m + d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::init;

    #[test]
    fn index_decompose_compose_roundtrip() {
        let modes = [2usize, 7, 8];
        for i in 0..(2 * 7 * 8) {
            let d = decompose_index(i, &modes);
            assert_eq!(compose_index(&d, &modes), i);
            assert!(d.iter().zip(&modes).all(|(&x, &m)| x < m));
        }
    }

    #[test]
    fn new_validates_cores() {
        let ok1 = Tensor::<f64>::zeros(vec![1, 2, 3, 2]);
        let ok2 = Tensor::<f64>::zeros(vec![2, 2, 2, 1]);
        assert!(TtMatrix::new(vec![ok1.clone(), ok2.clone()]).is_ok());
        let bad_rank = Tensor::<f64>::zeros(vec![3, 2, 2, 1]);
        assert!(TtMatrix::new(vec![ok1.clone(), bad_rank]).is_err());
        let not4d = Tensor::<f64>::zeros(vec![1, 2, 2]);
        assert!(TtMatrix::new(vec![not4d]).is_err());
        assert!(TtMatrix::<f64>::new(vec![]).is_err());
    }

    #[test]
    fn from_dense_roundtrips_exactly_at_full_rank() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        let w: Tensor<f64> = init::uniform(&mut rng, vec![6, 6], 1.0);
        let tt = TtMatrix::from_dense(&w, &[2, 3], &[3, 2], Truncation::none()).unwrap();
        let back = tt.to_dense().unwrap();
        assert!(
            back.approx_eq(&w, 1e-9),
            "rel err {}",
            back.relative_error(&w).unwrap()
        );
    }

    #[test]
    fn from_dense_three_modes() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let w: Tensor<f64> = init::uniform(&mut rng, vec![8, 12], 1.0);
        let tt = TtMatrix::from_dense(&w, &[2, 2, 2], &[2, 3, 2], Truncation::none()).unwrap();
        assert_eq!(tt.shape().num_rows(), 8);
        assert_eq!(tt.shape().num_cols(), 12);
        assert!(tt.to_dense().unwrap().approx_eq(&w, 1e-9));
    }

    #[test]
    fn from_dense_rejects_bad_factorization() {
        let w = Tensor::<f64>::zeros(vec![6, 6]);
        assert!(TtMatrix::from_dense(&w, &[2, 2], &[3, 2], Truncation::none()).is_err());
        assert!(TtMatrix::from_dense(&w, &[2, 3], &[6], Truncation::none()).is_err());
    }

    #[test]
    fn get_matches_to_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let shape = TtShape::uniform_rank(vec![2, 3], vec![3, 2], 2).unwrap();
        let tt = TtMatrix::<f64>::random(&mut rng, &shape, 1.0).unwrap();
        let dense = tt.to_dense().unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert!(
                    (tt.get(i, j).unwrap() - dense.get(&[i, j]).unwrap()).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
        assert!(tt.get(6, 0).is_err());
        assert!(tt.get(0, 6).is_err());
    }

    /// `get` against the allocating slice-product chain it replaced, bit
    /// for bit: on stack-sized ranks, on a rank past the stack buffers,
    /// with unit modes, and with zero core entries that the chain skips.
    #[test]
    fn differential_get_matches_allocating_chain() {
        fn chain(tt: &TtMatrix<f64>, i: usize, j: usize) -> f64 {
            let iks = decompose_index(i, &tt.shape.row_modes);
            let jks = decompose_index(j, &tt.shape.col_modes);
            let mut v = vec![1.0];
            for (k, core) in tt.cores.iter().enumerate() {
                let [_, m, n, r1] = [
                    core.dims()[0],
                    core.dims()[1],
                    core.dims()[2],
                    core.dims()[3],
                ];
                let mut next = vec![0.0; r1];
                for (a, &va) in v.iter().enumerate() {
                    if va == 0.0 {
                        continue;
                    }
                    let base = ((a * m + iks[k]) * n + jks[k]) * r1;
                    for (b, nb) in next.iter_mut().enumerate() {
                        *nb += va * core.data()[base + b];
                    }
                }
                v = next;
            }
            v[0]
        }
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for (m, n, r) in [
            (vec![2, 3, 2], vec![3, 1, 2], 4),
            (vec![3, 2], vec![2, 3], 40),
            (vec![5], vec![7], 1),
            (vec![1, 2, 1], vec![2, 1, 1], 3),
        ] {
            let shape = TtShape::uniform_rank(m, n, r).unwrap();
            let mut tt = TtMatrix::<f64>::random(&mut rng, &shape, 1.0).unwrap();
            for core in &mut tt.cores {
                for (e, v) in core.data_mut().iter_mut().enumerate() {
                    if e % 5 == 0 {
                        *v = 0.0;
                    }
                }
            }
            for i in 0..shape.num_rows() {
                for j in 0..shape.num_cols() {
                    assert_eq!(
                        tt.get(i, j).unwrap().to_bits(),
                        chain(&tt, i, j).to_bits(),
                        "{shape} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn core_slice_matches_direct_indexing() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let shape = TtShape::new(vec![2, 2], vec![3, 3], vec![1, 3, 1]).unwrap();
        let tt = TtMatrix::<f64>::random(&mut rng, &shape, 1.0).unwrap();
        let s = tt.core_slice(0, 1, 2).unwrap();
        assert_eq!(s.dims(), &[1, 3]);
        for b in 0..3 {
            assert_eq!(
                s.get(&[0, b]).unwrap(),
                tt.cores()[0].get(&[0, 1, 2, b]).unwrap()
            );
        }
        assert!(tt.core_slice(2, 0, 0).is_err());
        assert!(
            tt.core_slice(0, 2, 0).is_err(),
            "m_1 = 2, so i_1 = 2 is out of bounds"
        );
        assert!(tt.core_slice(0, 1, 2).is_ok());
        assert!(tt.core_slice(0, 0, 3).is_err());
    }

    #[test]
    fn truncated_decomposition_of_low_rank_matrix_is_exact() {
        // W = u vᵀ is rank 1, so every TT rank can be 1... for the *fused*
        // tensor the TT ranks of a Kronecker-structured matrix are 1.
        let u = [1.0, 2.0, -1.0, 0.5]; // will build W as kron(a, b)
        let a = Tensor::<f64>::from_vec(vec![2, 2], u.to_vec()).unwrap();
        let b = Tensor::<f64>::from_vec(vec![3, 2], vec![1., 0., -1., 2., 0.5, 1.]).unwrap();
        // kron: W[(ia*3+ib), (ja*2+jb)] = a[ia,ja] * b[ib,jb]
        let w = Tensor::<f64>::from_fn(vec![6, 4], |idx| {
            let (i, j) = (idx[0], idx[1]);
            let (ia, ib) = (i / 3, i % 3);
            let (ja, jb) = (j / 2, j % 2);
            a.get(&[ia, ja]).unwrap() * b.get(&[ib, jb]).unwrap()
        })
        .unwrap();
        let tt = TtMatrix::from_dense(&w, &[2, 3], &[2, 2], Truncation::tolerance(1e-10)).unwrap();
        assert_eq!(
            tt.shape().ranks,
            vec![1, 1, 1],
            "Kronecker factor => rank 1"
        );
        assert!(tt.to_dense().unwrap().approx_eq(&w, 1e-10));
    }

    /// The fused tensor's first unfolding by the naive div/mod gather.
    fn naive_unfolding(w: &Tensor<f64>, row_modes: &[usize], col_modes: &[usize]) -> Vec<f64> {
        let cols = w.ncols().unwrap();
        let fused: Vec<usize> = row_modes
            .iter()
            .zip(col_modes)
            .map(|(&m, &n)| m * n)
            .collect();
        let total: usize = fused.iter().product();
        (0..total)
            .map(|off| {
                let l = decompose_index(off, &fused);
                let mut i = 0usize;
                let mut j = 0usize;
                for k in 0..l.len() {
                    i = i * row_modes[k] + l[k] / col_modes[k];
                    j = j * col_modes[k] + l[k] % col_modes[k];
                }
                w.data()[i * cols + j]
            })
            .collect()
    }

    #[test]
    fn differential_fused_unfolding_blocks_match_naive_gather() {
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        // Asymmetric modes so row/column stride bugs can't cancel out, unit
        // modes, one to five modes (the single-mode case is one column of
        // the flattened matrix).
        for (row_modes, col_modes) in [
            (vec![2usize, 3, 2], vec![3usize, 2, 4]),
            (vec![3, 2, 5, 2], vec![2, 5, 3, 2]),
            (vec![2, 3, 2, 2, 3], vec![3, 2, 2, 3, 2]),
            (vec![2, 1, 3], vec![1, 4, 1]),
            (vec![4, 3], vec![5, 7]),
            (vec![6], vec![5]),
        ] {
            let rows: usize = row_modes.iter().product();
            let cols: usize = col_modes.iter().product();
            let w: Tensor<f64> = init::uniform(&mut rng, vec![rows, cols], 1.0);
            let src = FusedUnfolding::new(w.data(), &row_modes, &col_modes);
            let (m, n) = (src.rows(), src.cols());
            assert_eq!(m * n, rows * cols);
            let naive = naive_unfolding(&w, &row_modes, &col_modes);
            // Blocks of every width from every start, so runs of the last
            // mode begin and end mid-block and the last block is partial.
            for width in [1, 3, 7, 16, 512] {
                let mut scratch = Vec::new();
                for j0 in (0..n).step_by(width) {
                    let len = width.min(n - j0);
                    let (view, stride) = src.block(j0, len, &mut scratch);
                    for r in 0..m {
                        assert_eq!(
                            &view[r * stride..][..len],
                            &naive[r * n + j0..][..len],
                            "{row_modes:?}x{col_modes:?} block {j0}+{len} row {r}"
                        );
                    }
                }
            }
            assert_eq!(src.gathered().data(), &naive[..]);
        }
    }

    #[test]
    fn cast_preserves_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let shape = TtShape::uniform_rank(vec![2, 2], vec![2, 2], 2).unwrap();
        let tt = TtMatrix::<f64>::random(&mut rng, &shape, 1.0).unwrap();
        let f32v: TtMatrix<f32> = tt.cast();
        assert_eq!(f32v.shape(), tt.shape());
        assert!(f32v
            .to_dense()
            .unwrap()
            .cast::<f64>()
            .approx_eq(&tt.to_dense().unwrap(), 1e-5));
    }
}
