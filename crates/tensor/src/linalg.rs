//! Matrix kernels: multiplication, Householder QR, one-sided Jacobi SVD.
//!
//! TT-SVD (in `tie-tt`) repeatedly computes truncated SVDs of unfolding
//! matrices; the compact inference scheme (in `tie-core`) is a chain of
//! matrix products. Both are served from here, with no external BLAS/LAPACK
//! dependency — everything is implemented from scratch per the reproduction
//! ground rules.

use crate::tile::{
    self, Activation, Bias, BiasRelu, ColumnBlocks, Dense, FloatAuto, FloatPath, Identity, Mapped,
    Relu,
};
use crate::{parallel, Result, Scalar, Tensor, TensorError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Dense matrix product `C = A · B`.
///
/// Cache-blocked (`BLOCK_M × BLOCK_K × BLOCK_N` tiles) and, above
/// [`parallel::PARALLEL_MIN_WORK`] multiply-adds, row-partitioned across
/// `std::thread::scope` workers (count from [`parallel::num_threads`]).
///
/// # Bit-consistency
///
/// For every output element the products `A[i,k]·B[k,j]` are accumulated in
/// ascending `k` with plain multiply-then-add, exactly like
/// [`matmul_naive`]; blocking and threading only reorder *independent*
/// outputs, so `matmul` and `matmul_naive` agree bit-for-bit at any thread
/// count. Both kernels skip `A[i,k] == 0.0` terms entirely. On finite
/// inputs the skip is also bitwise-neutral: the accumulator starts at
/// `+0.0` and can never become `-0.0` (IEEE 754 sums of zeros of either
/// sign are `+0.0`), and adding the skipped `±0.0` product to any such
/// accumulator returns it unchanged. The skip *is* observable when `B`
/// holds non-finite values (`0.0 · ∞` and `0.0 · NaN` are `NaN`, which the
/// skip never materializes) — callers that care about NaN propagation from
/// `B` must not place zeros in `A`.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] if an operand is not 2-D or
/// [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
///
/// # Example
///
/// ```
/// use tie_tensor::{Tensor, linalg::matmul};
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let a = Tensor::<f64>::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// let b = Tensor::<f64>::from_vec(vec![3, 1], vec![1., 0., -1.])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.data(), &[-2.0, -2.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (m, ka) = (a.nrows()?, a.ncols()?);
    let (kb, n) = (b.nrows()?, b.ncols()?);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    tile::kblocked_gemm(FloatAuto, a.data(), b.data(), out.data_mut(), m, ka, n);
    Ok(out)
}

/// Reference `i-k-j` matrix product (the pre-blocking workhorse kernel).
///
/// Kept as the ground truth the blocked [`matmul`] is property-tested
/// against; the innermost loop streams rows of `B` (row-major friendly)
/// and `A[i,k] == 0.0` terms are skipped.
///
/// # Errors
///
/// Returns shape errors as in [`matmul`].
pub fn matmul_naive<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (m, ka) = (a.nrows()?, a.ncols()?);
    let (kb, n) = (b.nrows()?, b.ncols()?);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    {
        let ad = a.data();
        let bd = b.data();
        let cd = out.data_mut();
        for i in 0..m {
            let arow = &ad[i * ka..(i + 1) * ka];
            let crow = &mut cd[i * n..(i + 1) * n];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == T::ZERO {
                    continue;
                }
                let brow = &bd[k * n..(k + 1) * n];
                for (c, &bkj) in crow.iter_mut().zip(brow) {
                    *c += aik * bkj;
                }
            }
        }
    }
    Ok(out)
}

/// Slice-level `C = A · B` into a caller-owned buffer (no allocation).
///
/// `a` is `m × k`, `b` is `k × n`, `c` is `m × n`, all row-major. `c` is
/// overwritten (zeroed, then accumulated). This is the zero-copy entry
/// point the compact engine's stage pipeline uses to keep its steady state
/// allocation-free; numerics are identical to [`matmul`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if a slice length does not
/// match its `m`/`k`/`n` dimensions.
pub fn gemm_into<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) -> Result<()> {
    if a.len() != m * k || b.len() != k * n || c.len() != m * n {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "gemm_into: buffer lengths (a={}, b={}, c={}) do not match {m}x{k} · {k}x{n}",
                a.len(),
                b.len(),
                c.len()
            ),
        });
    }
    c.fill(T::ZERO);
    tile::kblocked_gemm(FloatAuto, a, b, c, m, k, n);
    Ok(())
}

/// [`gemm_into`] over freshly spawned `std::thread::scope` workers instead
/// of the persistent pool — same slab partition, same blocked kernel, same
/// bits. Kept solely as the dispatch-latency baseline for the pool benches
/// and the tier-2 regression gate; production code uses [`gemm_into`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] as [`gemm_into`] does.
#[doc(hidden)]
pub fn gemm_into_scoped<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) -> Result<()> {
    if a.len() != m * k || b.len() != k * n || c.len() != m * n {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "gemm_into_scoped: buffer lengths (a={}, b={}, c={}) do not match {m}x{k} · {k}x{n}",
                a.len(),
                b.len(),
                c.len()
            ),
        });
    }
    c.fill(T::ZERO);
    let threads = parallel::threads_for(m * k * n, m);
    parallel::for_each_row_slab_scoped(c, m, n, threads, |row0, c_slab| {
        let rows = c_slab.len() / n.max(1);
        let a_slab = &a[row0 * k..(row0 + rows) * k];
        tile::kblocked_span(FloatAuto, rows, k, n, a_slab, b, c_slab);
    });
    Ok(())
}

/// A separable destination map: the write epilogue of the mapped GEMM
/// kernels ([`gemm_into_mapped`]).
///
/// A plain GEMM stores output element `(i, q)` of an `rows × cols` product
/// at row-major offset `i·cols + q`. A mapped GEMM instead stores it at
/// `row[i] + col[q]` — any permutation of the output that *separates* into
/// independent row and column contributions can be fused into the store,
/// eliminating the follow-up permutation pass entirely. The inter-stage
/// Transform of the TIE compact scheme (Eqns. 8/10) is exactly such a map:
/// `tie-core`'s indexing-map compiler composes the transpose/reshape chain
/// into one strided affine map and splits it at the row/column boundary
/// into these two offset tables.
///
/// Construction validates full bijectivity — every `row[i] + col[q]` must
/// hit `[0, rows·cols)` exactly once — so the kernels can scatter through
/// the tables without bounds checks and without pre-zeroing the output.
///
/// # Batched destinations
///
/// The tables are in *logical element* units. The kernels take a separate
/// batch width `bsz`: GEMM column `q·bsz + cb` (sample `cb` of logical
/// column `q`, the batch-innermost layout the compact engine uses) lands at
/// `(row[i] + col[q])·bsz + cb`. One single-sample map therefore serves
/// every batch size with no per-batch table rebuild.
///
/// # Store shape
///
/// Construction also records, once, two facts the streaming stage uses to
/// store whole vectors instead of one element per lane at batch 1
/// (DESIGN.md §16.6):
///
/// * a **tile row order** ([`DestMap::row_order`]): the logical rows
///   sorted by destination row offset. The kernel walks rows in this
///   order, so `R` consecutive rows of a register tile can be rows whose
///   destinations are adjacent;
/// * a **column-run descriptor** ([`DestMap::col_runs`]): one stride and
///   one run length, `col[q] = col[q - 1] + stride` inside every run of
///   `run` columns.
///
/// Where a tile's `R` rows are adjacent and the stride is `R`, the tile's
/// lanes inside one run fill one contiguous block. Every inner Table 4
/// stage map has this shape (rows `(i % 4)·S + i / 4`, stride 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestMap {
    row: Vec<usize>,
    col: Vec<usize>,
    order: Vec<usize>,
    runs: (usize, usize),
}

impl DestMap {
    /// Builds a map from per-row and per-column destination offsets,
    /// verifying that `(i, q) ↦ row[i] + col[q]` is a bijection onto
    /// `[0, row.len()·col.len())`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if any combined offset is
    /// out of range or duplicated.
    pub fn new(row: Vec<usize>, col: Vec<usize>) -> Result<Self> {
        let total = row.len() * col.len();
        let mut seen = vec![false; total];
        for (i, &r) in row.iter().enumerate() {
            for (q, &c) in col.iter().enumerate() {
                let off = r + c;
                if off >= total || seen[off] {
                    return Err(TensorError::InvalidArgument {
                        message: format!(
                            "DestMap: offset {off} for ({i}, {q}) is {} (space {total})",
                            if off >= total {
                                "out of range"
                            } else {
                                "duplicated"
                            }
                        ),
                    });
                }
                seen[off] = true;
            }
        }
        Ok(Self::with_store_shape(row, col))
    }

    /// The identity map: `(i, q) ↦ i·cols + q`, i.e. plain row-major
    /// storage. A mapped kernel with this map is bitwise the unmapped one.
    #[must_use]
    pub fn identity(rows: usize, cols: usize) -> Self {
        Self::with_store_shape((0..rows).map(|i| i * cols).collect(), (0..cols).collect())
    }

    /// Completes validated tables with the tile row order and the column
    /// run descriptor.
    fn with_store_shape(row: Vec<usize>, col: Vec<usize>) -> Self {
        let mut order: Vec<usize> = (0..row.len()).collect();
        order.sort_unstable_by_key(|&i| (row[i], i));
        // The stride of the first step, and the first run's length; then
        // every later column must continue its run or start one at a
        // multiple of that length. A table that does not is recorded as
        // runs of one column with stride 0, which no tile matches.
        let stride = match col[..] {
            [c0, c1, ..] if c1 > c0 => c1 - c0,
            _ => 0,
        };
        let steps = |q: usize| col[q] == col[q - 1].wrapping_add(stride);
        let run = if stride == 0 {
            1
        } else {
            (1..col.len()).find(|&q| !steps(q)).unwrap_or(col.len())
        };
        let periodic = (1..col.len()).all(|q| (q % run == 0) || steps(q));
        let runs = if periodic { (stride, run) } else { (0, 1) };
        DestMap {
            row,
            col,
            order,
            runs,
        }
    }

    /// Number of logical output rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.row.len()
    }

    /// Number of logical output columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.col.len()
    }

    /// Destination offset of logical element `(i, q)`, in elements.
    #[must_use]
    pub fn offset(&self, i: usize, q: usize) -> usize {
        self.row[i] + self.col[q]
    }

    /// The per-row offset table (validated at construction).
    #[must_use]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row
    }

    /// The per-column offset table (validated at construction).
    #[must_use]
    pub fn col_offsets(&self) -> &[usize] {
        &self.col
    }

    /// The logical rows sorted by destination row offset: the order the
    /// streaming stage walks rows in (a permutation of `0..rows()`).
    #[must_use]
    pub fn row_order(&self) -> &[usize] {
        &self.order
    }

    /// The column-run descriptor `(stride, run)`: for every column `q`
    /// with `q % run != 0`, `col[q] = col[q - 1] + stride`. `run ≥ 1`.
    #[must_use]
    pub fn col_runs(&self) -> (usize, usize) {
        self.runs
    }
}

/// `C = epilogue(A · B)` with a fused destination-map write — the one
/// float entry to the streaming stage and the software realization of
/// TIE's zero-cost Transform: the permutation that used to be a separate
/// gather pass, and the final stage's bias add and activation, all happen
/// *inside* the GEMM's store.
///
/// `a` is `m × k`, `b` is `k × (n_mat·bsz)` (logical columns batch-inner),
/// and output element `(i, q·bsz + cb)` is stored at
/// `(map.row[i] + map.col[q])·bsz + cb` of `c`. `bias` (when present) is
/// indexed by **logical destination element** `map.row[i] + map.col[q]` —
/// for the engines' final assemble maps, the output-neuron index — and
/// must have `m·n_mat` elements. Inner TT stages pass
/// `(None, Activation::Identity)`; with [`DestMap::identity`] that is
/// exactly [`gemm_into`].
///
/// # Bit-consistency
///
/// Every output accumulates its products in ascending `k` with plain
/// multiply-then-add — the same sequence as [`gemm_into`] (whose cache
/// blocking stores and reloads exact partial sums, a bitwise no-op) — and
/// the row-span partition matches the unmapped kernel's slab partition.
/// The epilogue transforms each output's *finished* full-`k` accumulator.
/// So the result is bit-identical to [`gemm_into`]-then-permute followed
/// by a separate bias/activation pass, at any thread count, on every SIMD
/// path.
///
/// No pre-zero: the map's bijection guarantees every element of `c` is
/// written exactly once.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on slice-length, map-extent or
/// bias-length mismatch, or `bsz == 0`.
#[allow(clippy::too_many_arguments)] // GEMM kernel ABI: dims + slices are positional by design
pub fn gemm_into_mapped<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    map: &DestMap,
    bias: Option<&[T]>,
    act: Activation,
) -> Result<()> {
    let n = n_mat * bsz;
    if bsz == 0 || map.rows() != m || map.cols() != n_mat {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "gemm_into_mapped: map {}x{} (bsz {bsz}) does not match {m}x{n_mat}",
                map.rows(),
                map.cols()
            ),
        });
    }
    if a.len() != m * k || b.len() != k * n || c.len() != m * n {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "gemm_into_mapped: buffer lengths (a={}, b={}, c={}) do not match {m}x{k} · {k}x{n}",
                a.len(),
                b.len(),
                c.len()
            ),
        });
    }
    if let Some(bias) = bias {
        if bias.len() != m * n_mat {
            return Err(TensorError::InvalidArgument {
                message: format!(
                    "gemm_into_mapped: bias length {} does not match {m}x{n_mat} output",
                    bias.len()
                ),
            });
        }
    }
    let (path, dest) = (FloatPath::<T>::new(), Mapped::new(map));
    macro_rules! run {
        ($epi:expr) => {
            tile::stream_gemm(path, FloatAuto, a, b, c, m, k, n_mat, bsz, &dest, $epi)
        };
    }
    match (bias, act) {
        (None, Activation::Identity) => run!(&Identity),
        (None, Activation::Relu) => run!(&Relu),
        (Some(bias), Activation::Identity) => run!(&Bias::new(bias)),
        (Some(bias), Activation::Relu) => run!(&BiasRelu::new(bias)),
    }
    Ok(())
}

/// Matrix-vector product `y = A · x` where `x` is a 1-D tensor.
///
/// Row-partitioned across threads above the work threshold; each row's dot
/// product accumulates in ascending column order (same as the serial
/// kernel), so results are identical at any thread count.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] / [`TensorError::MatmulDimMismatch`]
/// on shape problems.
pub fn matvec<T: Scalar>(a: &Tensor<T>, x: &Tensor<T>) -> Result<Tensor<T>> {
    let (m, k) = (a.nrows()?, a.ncols()?);
    if x.ndim() != 1 || x.num_elements() != k {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, k),
            right: (x.num_elements(), 1),
        });
    }
    let mut out = Tensor::zeros(vec![m]);
    matvec_slices(m, k, a.data(), x.data(), out.data_mut());
    Ok(out)
}

/// Slice-level `y = A · x` into a caller-owned buffer (no allocation).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on slice-length mismatch.
pub fn matvec_into<T: Scalar>(a: &[T], x: &[T], y: &mut [T], m: usize, k: usize) -> Result<()> {
    if a.len() != m * k || x.len() != k || y.len() != m {
        return Err(TensorError::InvalidArgument {
            message: format!(
                "matvec_into: buffer lengths (a={}, x={}, y={}) do not match {m}x{k} · {k}",
                a.len(),
                x.len(),
                y.len()
            ),
        });
    }
    matvec_slices(m, k, a, x, y);
    Ok(())
}

fn matvec_slices<T: Scalar>(m: usize, k: usize, a: &[T], x: &[T], y: &mut [T]) {
    let threads = parallel::threads_for(m * k, m);
    parallel::for_each_row_slab(y, m, 1, threads, |row0, y_slab| {
        for (r, out) in y_slab.iter_mut().enumerate() {
            let i = row0 + r;
            let arow = &a[i * k..(i + 1) * k];
            let mut acc = T::ZERO;
            for (&aij, &xj) in arow.iter().zip(x) {
                acc += aij * xj;
            }
            *out = acc;
        }
    });
}

/// Product `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// Register-tiled and cache-blocked like [`matmul`], reading `Aᵀ`'s rows
/// as runs of `A`'s columns, and partitioned on the pool by rows (or by
/// columns, with fewer than 4 rows per thread). Every output
/// accumulates in ascending `k` and skips `A[k][i] == 0` terms, so results
/// match [`matmul_tn_naive`] bit-for-bit at any thread count (see the note
/// on [`matmul`]).
///
/// # Errors
///
/// Returns shape errors as in [`matmul`].
pub fn matmul_tn<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (ka, m) = (a.nrows()?, a.ncols()?);
    let (kb, n) = (b.nrows()?, b.ncols()?);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    tile::kblocked_gemm_tn(FloatAuto, a.data(), b.data(), out.data_mut(), m, ka, n);
    Ok(out)
}

/// Reference `k-i-j` kernel for `C = Aᵀ · B` (the pre-blocking loop).
///
/// # Errors
///
/// Returns shape errors as in [`matmul`].
pub fn matmul_tn_naive<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (ka, m) = (a.nrows()?, a.ncols()?);
    let (kb, n) = (b.nrows()?, b.ncols()?);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    let ad = a.data();
    let bd = b.data();
    let cd = out.data_mut();
    for k in 0..ka {
        let arow = &ad[k * m..(k + 1) * m];
        let brow = &bd[k * n..(k + 1) * n];
        for (i, &aki) in arow.iter().enumerate() {
            if aki == T::ZERO {
                continue;
            }
            let crow = &mut cd[i * n..(i + 1) * n];
            for (c, &bkj) in crow.iter_mut().zip(brow) {
                *c += aki * bkj;
            }
        }
    }
    Ok(out)
}

/// Product `C = A · Bᵀ` without materializing `Bᵀ`.
///
/// Both operands are walked along contiguous rows (dot products), so the
/// kernel is already cache-friendly; large problems are row-partitioned
/// across threads with per-output accumulation order unchanged.
///
/// # Errors
///
/// Returns shape errors as in [`matmul`].
pub fn matmul_nt<T: Scalar>(a: &Tensor<T>, b: &Tensor<T>) -> Result<Tensor<T>> {
    let (m, ka) = (a.nrows()?, a.ncols()?);
    let (n, kb) = (b.nrows()?, b.ncols()?);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    let ad = a.data();
    let bd = b.data();
    let cd = out.data_mut();
    let threads = parallel::threads_for(m * ka * n, m);
    parallel::for_each_row_slab(cd, m, n, threads, |row0, c_slab| {
        for (r, crow) in c_slab.chunks_mut(n).enumerate() {
            let arow = &ad[(row0 + r) * ka..(row0 + r + 1) * ka];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &bd[j * kb..(j + 1) * kb];
                let mut acc = T::ZERO;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *cv = acc;
            }
        }
    });
    Ok(out)
}

/// Gram matrix `G = A · Aᵀ` of an `m × n` column-block source, without
/// materializing `Aᵀ` (or, for a gathering source, `A`).
///
/// Column-blocked so each block of every row is read once and reused from
/// cache across all `m²/2` pairwise dot products — the naive per-pair dot
/// would stream `A` from memory `m` times. Only the lower triangle is
/// computed; the upper is mirrored, so `G` is exactly symmetric.
///
/// The blocks are split across the persistent pool (see
/// [`tile::gram_into`]); every element `G[i][j]` still adds its block sums
/// in ascending block order, hence bit-deterministic at any
/// `TIE_THREADS` setting (and identical to the serial path).
fn gram_nt<T: Scalar, S: ColumnBlocks<T>>(src: &S) -> Tensor<T> {
    let m = src.rows();
    let mut g = Tensor::zeros(vec![m, m]);
    let gd = g.data_mut();
    tile::gram_into(FloatAuto, src, gd);
    for i in 0..m {
        for j in i + 1..m {
            gd[i * m + j] = gd[j * m + i];
        }
    }
    g
}

/// Result of a (thin) QR factorization `A = Q · R`.
#[derive(Debug, Clone)]
pub struct Qr<T: Scalar> {
    /// `m × k` matrix with orthonormal columns (`k = min(m, n)`).
    pub q: Tensor<T>,
    /// `k × n` upper-triangular factor.
    pub r: Tensor<T>,
}

/// Applies the Householder reflector `H = I - 2 v vᵀ / (vᵀv)` to the
/// column block `[c0, cn)` of the row-major `rows × cn` matrix `md`,
/// acting on rows `j..j+v.len()`. `dots` is caller-provided scratch of
/// length ≥ `cn`.
///
/// Two row-major passes: first `dots[c] = Σ_t v[t]·M[j+t, c]`, then
/// `M[j+t, c] -= (2·dots[c]/vᵀv)·v[t]`. Every memory walk is along
/// contiguous rows (the original per-column walk strode by `cn`, which
/// thrashes the cache on tall-skinny panels — the randomized-SVD hot
/// path). Per output element the accumulation order over `t` is
/// unchanged, so results are bit-identical to the per-column form.
///
/// Large panels parallelize on the pool with the partition chosen per
/// pass to keep determinism free: pass 1 splits the **columns** (each
/// `dots[c]` sums over `t` in ascending order within one slab — exactly
/// the serial order), pass 2 splits the **rows** (each output element is
/// written once). Results are bit-identical at any thread count.
fn apply_reflector<T: Scalar>(
    md: &mut [T],
    cn: usize,
    j: usize,
    c0: usize,
    v: &[T],
    vnorm2: T,
    dots: &mut [T],
) {
    let width = cn - c0;
    let dots = &mut dots[..width];
    dots.fill(T::ZERO);
    let work = v.len().saturating_mul(width);
    let md_ro: &[T] = md;
    parallel::for_each_row_slab(
        dots,
        width,
        1,
        parallel::threads_for(work, width),
        |col0, dslab| {
            for (t, &vi) in v.iter().enumerate() {
                let base = (j + t) * cn + c0 + col0;
                let row = &md_ro[base..base + dslab.len()];
                for (d, &x) in dslab.iter_mut().zip(row) {
                    *d += vi * x;
                }
            }
        },
    );
    for d in dots.iter_mut() {
        *d = (T::ONE + T::ONE) * *d / vnorm2;
    }
    let panel = &mut md[j * cn..(j + v.len()) * cn];
    parallel::for_each_row_slab(
        panel,
        v.len(),
        cn,
        parallel::threads_for(work, v.len()),
        |t0, pslab| {
            for (r, row) in pslab.chunks_mut(cn).enumerate() {
                let vi = v[t0 + r];
                for (x, &d) in row[c0..].iter_mut().zip(dots.iter()) {
                    *x -= d * vi;
                }
            }
        },
    );
}

/// Thin Householder QR factorization.
///
/// Reflector applications run as contiguous row-major passes (see
/// [`apply_reflector`]), and `Q` is accumulated directly into the thin
/// `m × k` matrix touching only columns `j..k` when applying reflector
/// `j` — columns `c < j` of the partially formed `Q` are still unit
/// vectors supported above row `j`, so the skipped work is exactly zero.
/// Tall-skinny panels (the randomized-SVD hot path) therefore cost
/// `O(m·n·k)` with streaming access instead of strided column walks.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] for non-2-D input.
pub fn qr<T: Scalar>(a: &Tensor<T>) -> Result<Qr<T>> {
    let (m, n) = (a.nrows()?, a.ncols()?);
    let k = m.min(n);
    let mut r = a.clone();
    // Accumulate Householder reflectors; apply them to a thin identity to
    // get Q.
    let mut vs: Vec<Vec<T>> = Vec::with_capacity(k);
    let mut dots = vec![T::ZERO; n];
    let rd = r.data_mut();
    for j in 0..k {
        // Build reflector for column j below the diagonal.
        let mut norm2 = T::ZERO;
        for i in j..m {
            let v = rd[i * n + j];
            norm2 += v * v;
        }
        let norm = norm2.sqrt();
        let x0 = rd[j * n + j];
        if norm == T::ZERO {
            vs.push(vec![T::ZERO; m - j]);
            continue;
        }
        let alpha = if x0 >= T::ZERO { -norm } else { norm };
        let mut v: Vec<T> = (j..m).map(|i| rd[i * n + j]).collect();
        v[0] -= alpha;
        let vnorm2: T = v.iter().map(|&x| x * x).sum();
        if vnorm2 > T::ZERO {
            // Apply H = I - 2 v vᵀ / (vᵀv) to R[j.., j..].
            apply_reflector(rd, n, j, j, &v, vnorm2, &mut dots);
        }
        vs.push(v);
    }
    // Q = H_0 H_1 … H_{k-1} · I_{m×k}, applied in reverse. When H_j is
    // applied, columns c < j are still e_c (supported at row c < j), so the
    // update is restricted to columns j..k.
    let mut q = Tensor::<T>::zeros(vec![m, k]);
    let qd = q.data_mut();
    for j in 0..k {
        qd[j * k + j] = T::ONE;
    }
    for j in (0..k).rev() {
        let v = &vs[j];
        let vnorm2: T = v.iter().map(|&x| x * x).sum();
        if vnorm2 == T::ZERO {
            continue;
        }
        apply_reflector(qd, k, j, j, v, vnorm2, &mut dots);
    }
    // Truncate R to k×n.
    let r_thin = r.rows(0, k).unwrap_or(r);
    Ok(Qr { q, r: r_thin })
}

/// Result of a singular value decomposition `A = U · diag(S) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd<T: Scalar> {
    /// `m × k` left singular vectors (orthonormal columns).
    pub u: Tensor<T>,
    /// `k` singular values, descending.
    pub s: Vec<T>,
    /// `k × n` right singular vectors, transposed.
    pub vt: Tensor<T>,
}

impl<T: Scalar> Svd<T> {
    /// Reconstructs `U · diag(S) · Vᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates matmul shape errors (cannot occur for a well-formed SVD).
    pub fn reconstruct(&self) -> Result<Tensor<T>> {
        let mut us = self.u.clone();
        let k = self.s.len();
        let m = us.nrows()?;
        for i in 0..m {
            for j in 0..k {
                let off = i * k + j;
                let cur = us.data()[off];
                us.data_mut()[off] = cur * self.s[j];
            }
        }
        matmul(&us, &self.vt)
    }

    /// Keeps only the leading `rank` triplets.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `rank` is zero or exceeds
    /// the stored rank.
    pub fn truncated(&self, rank: usize) -> Result<Svd<T>> {
        if rank == 0 || rank > self.s.len() {
            return Err(TensorError::InvalidArgument {
                message: format!("rank {rank} out of 1..={}", self.s.len()),
            });
        }
        Ok(Svd {
            u: self.u.cols(0, rank)?,
            s: self.s[..rank].to_vec(),
            vt: self.vt.rows(0, rank)?,
        })
    }
}

const JACOBI_MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD.
///
/// Orthogonalizes the columns of (a copy of) `A` with Givens rotations; the
/// accumulated rotations form `V`, the column norms the singular values.
/// Chosen over bidiagonalization for robustness and simplicity — TT-SVD
/// calls this on unfolding matrices whose smaller dimension is at most a few
/// hundred, well within Jacobi's comfortable range.
///
/// For `m < n` the decomposition is computed on `Aᵀ` and swapped back, so
/// the rotation count is always governed by the smaller dimension. The
/// rotated columns (and `V`'s) are stored as contiguous rows, so that each
/// column pair's dot products and rotation stream two rows; every
/// operation is the column form's, in the same order.
///
/// # Errors
///
/// Returns [`TensorError::NoConvergence`] if the off-diagonal mass does not
/// fall below tolerance within 60 sweeps (pathological inputs only), or
/// shape errors for non-2-D input.
pub fn svd<T: Scalar>(a: &Tensor<T>) -> Result<Svd<T>> {
    let (m, n) = (a.nrows()?, a.ncols()?);
    if m < n {
        // A = U S Vᵀ  ⇔  Aᵀ = V S Uᵀ, and the columns of Aᵀ are A's rows.
        let svd_t = jacobi_on_rows(a.data().to_vec(), n, m)?;
        let u = svd_t.vt.transposed()?;
        let vt = svd_t.u.transposed()?;
        return Ok(Svd { u, s: svd_t.s, vt });
    }
    jacobi_on_rows(a.transposed()?.into_vec(), m, n)
}

/// The one-sided Jacobi SVD of the `m × n` matrix `W` (`m ≥ n`) whose
/// columns are the rows of `wt` (`n × m`, row-major).
fn jacobi_on_rows<T: Scalar>(mut wt: Vec<T>, m: usize, n: usize) -> Result<Svd<T>> {
    let k = n;
    // `V` stored transposed: row `p` is column `p` of `V`.
    let mut vr = Tensor::<T>::eye(n).into_vec();
    let eps = T::EPSILON * T::from_f64(8.0);
    // Columns whose squared norm is below this are numerical zeros (rank
    // deficiency); rotating against them only churns noise and prevents
    // convergence, so they are treated as already orthogonal. The norm
    // sums `W` in row-major order.
    let norm = (0..m)
        .flat_map(|i| wt.iter().skip(i).step_by(m))
        .map(|v| {
            let x = v.to_f64();
            x * x
        })
        .sum::<f64>()
        .sqrt();
    let tiny = T::from_f64((norm * T::EPSILON.to_f64()).powi(2).max(f64::MIN_POSITIVE));
    // Rows `p < q` of a row-major matrix with rows of length `len`.
    fn pair<T>(d: &mut [T], len: usize, p: usize, q: usize) -> (&mut [T], &mut [T]) {
        let (head, tail) = d.split_at_mut(q * len);
        (&mut head[p * len..(p + 1) * len], &mut tail[..len])
    }
    let mut converged = false;
    for _sweep in 0..JACOBI_MAX_SWEEPS {
        let mut off = T::ZERO;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = pair(&mut wt, m, p, q);
                // The 2x2 Gram entries of columns p, q.
                let (mut app, mut aqq, mut apq) = (T::ZERO, T::ZERO, T::ZERO);
                for (&xp, &xq) in wp.iter().zip(wq.iter()) {
                    app += xp * xp;
                    aqq += xq * xq;
                    apq += xp * xq;
                }
                if app <= tiny || aqq <= tiny || apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                off += apq.abs();
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let tau = (aqq - app) / ((T::ONE + T::ONE) * apq);
                let t = {
                    let sign = if tau >= T::ZERO { T::ONE } else { -T::ONE };
                    sign / (tau.abs() + (T::ONE + tau * tau).sqrt())
                };
                let c = T::ONE / (T::ONE + t * t).sqrt();
                let s = c * t;
                for (xp, xq) in wp.iter_mut().zip(wq.iter_mut()) {
                    let (p0, q0) = (*xp, *xq);
                    *xp = c * p0 - s * q0;
                    *xq = s * p0 + c * q0;
                }
                let (vp, vq) = pair(&mut vr, n, p, q);
                for (xp, xq) in vp.iter_mut().zip(vq.iter_mut()) {
                    let (p0, q0) = (*xp, *xq);
                    *xp = c * p0 - s * q0;
                    *xq = s * p0 + c * q0;
                }
            }
        }
        if off == T::ZERO {
            converged = true;
            break;
        }
    }
    if !converged {
        // One more tolerance check: small residual off-diagonal mass is fine.
        let mut worst = 0.0f64;
        let tiny64 = tiny.to_f64();
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = (&wt[p * m..(p + 1) * m], &wt[q * m..(q + 1) * m]);
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for (&xp, &xq) in wp.iter().zip(wq) {
                    let (xp, xq) = (xp.to_f64(), xq.to_f64());
                    app += xp * xp;
                    aqq += xq * xq;
                    apq += xp * xq;
                }
                if app <= tiny64 || aqq <= tiny64 {
                    continue;
                }
                let denom = (app * aqq).sqrt().max(1e-300);
                worst = worst.max(apq.abs() / denom);
            }
        }
        if worst > 1e-6 {
            return Err(TensorError::NoConvergence {
                algorithm: "one-sided Jacobi SVD",
                iterations: JACOBI_MAX_SWEEPS,
            });
        }
    }
    // Column norms are the singular values; normalize columns to get U.
    let mut order: Vec<usize> = (0..k).collect();
    let sigmas: Vec<T> = wt
        .chunks_exact(m)
        .map(|col| {
            let mut norm2 = T::ZERO;
            for &x in col {
                norm2 += x * x;
            }
            norm2.sqrt()
        })
        .collect();
    order.sort_by(|&a, &b| {
        sigmas[b]
            .partial_cmp(&sigmas[a])
            .expect("finite singular values")
    });
    let mut u = Tensor::<T>::zeros(vec![m, k]);
    let mut vt = Tensor::<T>::zeros(vec![k, n]);
    let mut s = Vec::with_capacity(k);
    let (ud, vtd) = (u.data_mut(), vt.data_mut());
    for (out_j, &j) in order.iter().enumerate() {
        let sigma = sigmas[j];
        s.push(sigma);
        if sigma > T::ZERO {
            for (i, &x) in wt[j * m..(j + 1) * m].iter().enumerate() {
                ud[i * k + out_j] = x / sigma;
            }
        } else if out_j < m {
            // Degenerate column: keep U well-formed with a unit vector.
            ud[out_j * k + out_j] = T::ONE;
        }
        vtd[out_j * n..(out_j + 1) * n].copy_from_slice(&vr[j * n..(j + 1) * n]);
    }
    Ok(Svd { u, s, vt })
}

/// Rank selection for a truncated SVD.
///
/// `max_rank` caps the rank; `frobenius_tol` (absolute) drops trailing
/// singular values whose squared sum stays below `frobenius_tol²` — the
/// standard TT-SVD delta-truncation rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truncation {
    /// Hard cap on the retained rank (`None` = no cap).
    pub max_rank: Option<usize>,
    /// Absolute Frobenius-norm budget for the discarded tail (`0.0` = exact).
    pub frobenius_tol: f64,
}

impl Truncation {
    /// Truncation that keeps at most `rank` singular triplets.
    pub fn rank(rank: usize) -> Self {
        Truncation {
            max_rank: Some(rank),
            frobenius_tol: 0.0,
        }
    }

    /// Truncation by absolute Frobenius tolerance only.
    pub fn tolerance(tol: f64) -> Self {
        Truncation {
            max_rank: None,
            frobenius_tol: tol,
        }
    }

    /// Exact decomposition (keep everything above numerical noise).
    pub fn none() -> Self {
        Truncation {
            max_rank: None,
            frobenius_tol: 0.0,
        }
    }

    /// Number of singular values from `s` (descending) that survive.
    ///
    /// Always keeps at least one.
    pub fn select<T: Scalar>(&self, s: &[T]) -> usize {
        let mut keep = s.len();
        if self.frobenius_tol > 0.0 {
            let budget = self.frobenius_tol * self.frobenius_tol;
            let mut tail = 0.0f64;
            // Walk from the smallest singular value, dropping while the
            // accumulated squared tail stays within budget.
            while keep > 1 {
                let sv = s[keep - 1].to_f64();
                if tail + sv * sv > budget {
                    break;
                }
                tail += sv * sv;
                keep -= 1;
            }
        } else {
            // Drop exact numerical zeros.
            while keep > 1 && s[keep - 1].to_f64() == 0.0 {
                keep -= 1;
            }
        }
        if let Some(cap) = self.max_rank {
            keep = keep.min(cap.max(1));
        }
        keep.max(1)
    }
}

/// Truncated SVD: full Jacobi SVD followed by [`Truncation`] selection.
///
/// Equivalent to [`truncated_svd_with`] pinned to [`SvdMethod::Jacobi`];
/// callers that want the automatic Jacobi/randomized dispatch (large
/// rank-capped unfoldings go randomized) should use [`truncated_svd_with`]
/// with [`SvdMethod::default`].
///
/// # Errors
///
/// Propagates [`svd`] errors.
pub fn truncated_svd<T: Scalar>(a: &Tensor<T>, trunc: Truncation) -> Result<Svd<T>> {
    let full = svd(a)?;
    let keep = trunc.select(&full.s);
    full.truncated(keep)
}

/// Seed used by [`SvdMethod::default`] / [`RsvdParams::default`] so that
/// decompositions are reproducible without every caller threading a seed.
pub const DEFAULT_SVD_SEED: u64 = 0x5EED_71E0;

/// Default Gaussian-sketch oversampling (Halko et al. recommend 5–10).
const RSVD_DEFAULT_OVERSAMPLE: usize = 8;
/// Default subspace (power) iterations; 2 is enough for the slowly decaying
/// spectra of weight-matrix unfoldings.
const RSVD_DEFAULT_POWER_ITERS: usize = 2;
/// Below this element count [`SvdMethod::Auto`] always picks Jacobi — the
/// sketch setup would cost more than the exact decomposition.
const RSVD_MIN_ELEMS: usize = 1 << 14;
/// [`SvdMethod::Auto`] routes uncapped problems to the exact-sketch
/// randomized path only when the aspect ratio is at least this extreme
/// (the Jacobi rotations on such thin matrices stride over enormous rows).
const RSVD_THIN_ASPECT: usize = 8;
/// ... and the matrix is at least this large ...
const RSVD_THIN_MIN_ELEMS: usize = 1 << 20;
/// ... and the short side is at most this long — the Gram route's Jacobi
/// finish is `O(k³)` per sweep, which stops being cheap past a few
/// hundred.
const RSVD_GRAM_MAX_SIDE: usize = 256;

/// Tuning knobs for [`randomized_svd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsvdParams {
    /// Seed for the Gaussian test matrix. Same seed ⇒ bit-identical
    /// factors at any thread count (see the determinism note on
    /// [`randomized_svd`]).
    pub seed: u64,
    /// Extra sketch columns beyond the target rank.
    pub oversample: usize,
    /// Subspace-iteration count `q` (each adds two large GEMMs and one
    /// thin QR, and sharpens the basis for slowly decaying spectra).
    pub power_iters: usize,
}

impl Default for RsvdParams {
    fn default() -> Self {
        RsvdParams {
            seed: DEFAULT_SVD_SEED,
            oversample: RSVD_DEFAULT_OVERSAMPLE,
            power_iters: RSVD_DEFAULT_POWER_ITERS,
        }
    }
}

impl RsvdParams {
    /// Default parameters with an explicit `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        RsvdParams {
            seed,
            ..RsvdParams::default()
        }
    }
}

/// Algorithm selector for [`truncated_svd_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdMethod {
    /// Pick per problem: Jacobi for small or near-full-rank matrices,
    /// [`randomized_svd`] (with this seed and default oversampling/power
    /// iterations) for large rank-capped ones and for extremely thin
    /// uncapped ones (exact Gram regime). The exact rule is documented
    /// on [`truncated_svd_with`].
    Auto {
        /// Seed handed to the randomized path when it is chosen.
        seed: u64,
    },
    /// Always the exact one-sided Jacobi [`svd`] (legacy [`truncated_svd`]
    /// behaviour).
    Jacobi,
    /// Always [`randomized_svd`] with these parameters.
    Randomized(RsvdParams),
}

impl Default for SvdMethod {
    fn default() -> Self {
        SvdMethod::Auto {
            seed: DEFAULT_SVD_SEED,
        }
    }
}

impl SvdMethod {
    /// [`SvdMethod::Auto`] with an explicit seed for the randomized path.
    #[must_use]
    pub fn auto_seeded(seed: u64) -> Self {
        SvdMethod::Auto { seed }
    }
}

/// Exact truncated SVD of an extreme-aspect matrix via its small Gram
/// matrix.
///
/// With `k = min(m, n)`, forms the `k × k` Gram matrix (`AᵀA` for tall,
/// `A·Aᵀ` for wide) with one streaming pass over `A`, Jacobi-diagonalizes
/// it (`G = W Σ² Wᵀ`), and recovers the long singular factor with a single
/// blocked GEMM: `U = A W Σ⁻¹` (tall) or `Vᵀ = Σ⁻¹ Wᵀ A` (wide). Total
/// traffic is ~2 passes over `A` and the only `O(k³)` work is on the tiny
/// Gram matrix — no giant QR, no sketch. Fully deterministic (no RNG).
///
/// The price is the usual squared condition number of the normal-equations
/// route: singular values below `‖A‖₂ · √ε` lose all relative accuracy.
/// That is exactly the regime [`truncated_svd_with`] routes here — huge
/// thin unfoldings truncated far above the noise floor — and directions
/// with `σ ≈ 0` are guarded by leaving their (zero) long-factor columns
/// unscaled.
fn gram_svd<T: Scalar>(a: &Tensor<T>, trunc: Truncation) -> Result<Svd<T>> {
    let (m, n) = (a.nrows()?, a.ncols()?);
    if m < n {
        return gram_svd_wide(&Dense::new(a.data(), m, n), trunc);
    }
    // Tall: G = AᵀA = V Σ² Vᵀ; matmul_tn(a, a) streams row-major A once.
    let (w, s) = gram_eigen(&matmul_tn(a, a)?, trunc)?;
    let keep = s.len();
    // U = A W Σ⁻¹ (m × keep), scaling columns.
    let mut u = matmul(a, &w)?;
    let ud = u.data_mut();
    for row in ud.chunks_mut(keep) {
        for (x, &sj) in row.iter_mut().zip(&s) {
            if sj > T::ZERO {
                *x /= sj;
            }
        }
    }
    Ok(Svd {
        u,
        s,
        vt: w.transposed()?,
    })
}

/// The wide half of [`gram_svd`], reading `A` through a column-block
/// source: `G = A·Aᵀ = U Σ² Uᵀ` and the projection `Vᵀ = Σ⁻¹ Uᵀ A` each
/// take `A` one 512-column block at a time, so a gathering source is
/// never stored whole and the only long buffer is `Vᵀ`.
fn gram_svd_wide<T: Scalar, S: ColumnBlocks<T>>(src: &S, trunc: Truncation) -> Result<Svd<T>> {
    let n = src.cols();
    let (w, s) = gram_eigen(&gram_nt(src), trunc)?;
    let keep = s.len();
    // Vᵀ = Σ⁻¹ Wᵀ A (keep × n), scaling rows.
    let mut vt = Tensor::zeros(vec![keep, n]);
    tile::kblocked_gemm_tn_blocks(FloatAuto, w.data(), src, vt.data_mut(), keep);
    let vd = vt.data_mut();
    for (row, &sj) in vd.chunks_mut(n).zip(&s) {
        if sj > T::ZERO {
            for x in row.iter_mut() {
                *x /= sj;
            }
        }
    }
    Ok(Svd { u: w, s, vt })
}

/// The kept eigenbasis `W` (`k × keep`) and singular values of a Gram
/// matrix `G = W Σ² Wᵀ`, truncated by `trunc`.
fn gram_eigen<T: Scalar>(g: &Tensor<T>, trunc: Truncation) -> Result<(Tensor<T>, Vec<T>)> {
    let eig = svd(g)?;
    // Eigenvalues of the PSD Gram matrix are squared singular values;
    // rounding can push tiny ones negative, so clamp before the sqrt.
    let s: Vec<T> = eig.s.iter().map(|&e| e.max(T::ZERO).sqrt()).collect();
    let keep = trunc.select(&s);
    Ok((eig.u.cols(0, keep)?, s[..keep].to_vec()))
}

/// Randomized truncated SVD (Halko–Martinsson–Tropp range finder with
/// subspace iteration and a small-core Jacobi finish).
///
/// Sketches the range with a seeded Gaussian test matrix of
/// `ℓ = min(target_rank + oversample, min(m,n))` columns, optionally
/// sharpens it with `power_iters` QR-reorthogonalized subspace iterations,
/// projects `A` into the ℓ-dimensional subspace, and runs the exact
/// [`svd`] on the small projected core. All large products go through the
/// blocked, multithreaded [`matmul`]/[`matmul_tn`], so the routine
/// inherits the AVX dispatch and `TIE_THREADS` scaling of the kernel
/// layer; wide inputs are handled by sketching `Aᵀ` implicitly (via
/// [`matmul_tn`]) without ever materializing the transpose.
///
/// When `ℓ = min(m,n)` a sketch would span the full row/column space, so
/// the routine skips it and takes the deterministic Gram route instead
/// (diagonalize the small `k × k` Gram matrix, recover the long factor
/// with one GEMM) — exact up to roundoff and seed-independent.
/// [`truncated_svd_with`] uses this regime for huge thin unfoldings where
/// Jacobi's strided rotations are the bottleneck.
///
/// # Determinism
///
/// The only randomness is the ChaCha8-generated test matrix seeded from
/// `params.seed`. Every threaded kernel used here partitions independent
/// outputs only (see [`matmul`]'s bit-consistency contract), and the
/// QR/Jacobi finish is serial — so the same seed yields bit-identical
/// factors at any `TIE_THREADS` setting.
///
/// # Errors
///
/// Propagates shape errors and [`svd`] convergence failures on the
/// projected core.
pub fn randomized_svd<T: Scalar>(
    a: &Tensor<T>,
    trunc: Truncation,
    params: RsvdParams,
) -> Result<Svd<T>> {
    let (m, n) = (a.nrows()?, a.ncols()?);
    let k = m.min(n);
    let target = trunc.max_rank.unwrap_or(k).max(1).min(k);
    let l = (target + params.oversample).min(k).max(1);
    // ℓ = min(m,n): the sketch would span the whole smaller space, so skip
    // it entirely and take the deterministic Gram route — exact up to
    // roundoff, one streaming pass instead of a giant sketch + QR.
    if l == k {
        return gram_svd(a, trunc);
    }
    let iters = params.power_iters;
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);

    if m >= n {
        // Tall: find an orthonormal basis Q for the column space of A.
        let omega: Tensor<T> = crate::init::normal(&mut rng, vec![n, l], 1.0);
        let mut y = matmul(a, &omega)?; // m × ℓ
        for _ in 0..iters {
            let q = qr(&y)?.q;
            let z = matmul_tn(a, &q)?; // n × ℓ, Aᵀ·Q without transposing A
            y = matmul(a, &z)?;
        }
        let q = qr(&y)?.q; // m × ℓ
        let b = matmul_tn(&q, a)?; // ℓ × n projected core
        let small = svd(&b)?;
        let keep = trunc.select(&small.s);
        Ok(Svd {
            u: matmul(&q, &small.u.cols(0, keep)?)?,
            s: small.s[..keep].to_vec(),
            vt: small.vt.rows(0, keep)?,
        })
    } else {
        // Wide: run the tall scheme on Aᵀ implicitly. Q spans the row
        // space of A; the core B = A·Q is m × ℓ (ℓ ≤ m), small for Jacobi.
        let omega: Tensor<T> = crate::init::normal(&mut rng, vec![m, l], 1.0);
        let mut y = matmul_tn(a, &omega)?; // n × ℓ
        for _ in 0..iters {
            let q = qr(&y)?.q;
            let z = matmul(a, &q)?; // m × ℓ
            y = matmul_tn(a, &z)?;
        }
        let q = qr(&y)?.q; // n × ℓ
        let b = matmul(a, &q)?; // m × ℓ
        let small = svd(&b)?;
        let keep = trunc.select(&small.s);
        // A ≈ B Qᵀ = U_B S (Q V_B)ᵀ.
        let v_small = small.vt.transposed()?.cols(0, keep)?;
        Ok(Svd {
            u: small.u.cols(0, keep)?,
            s: small.s[..keep].to_vec(),
            vt: matmul(&q, &v_small)?.transposed()?,
        })
    }
}

/// Truncated SVD with explicit algorithm selection.
///
/// [`SvdMethod::Auto`] applies this rule (in order):
///
/// 1. fewer than 2¹⁴ elements → Jacobi (exact, and faster at this size);
/// 2. a truncation-friendly problem — `max_rank = r` with
///    `2·(r + oversample) ≤ min(m,n)` (the paper's rank-capped `r ≤ 16`
///    compression regime), or uncapped but extremely thin
///    (`max(m,n) ≥ 8·min(m,n)` and ≥ 2²⁰ elements) — goes to a fast path
///    chosen by the short side `k = min(m,n)`:
///    - `k ≤ 256` → the deterministic exact Gram route (diagonalize the
///      `k × k` Gram matrix, one streaming GEMM to recover the long
///      factor) — replaces Jacobi's strided giant-row rotations and is
///      seed-independent;
///    - `k > 256` (rank-capped only) → the seeded [`randomized_svd`]
///      sketch, whose cost scales with the target rank rather than `k`;
/// 3. otherwise → Jacobi.
///
/// # Errors
///
/// Propagates [`svd`] / [`randomized_svd`] errors.
pub fn truncated_svd_with<T: Scalar>(
    a: &Tensor<T>,
    trunc: Truncation,
    method: SvdMethod,
) -> Result<Svd<T>> {
    match method {
        SvdMethod::Jacobi => truncated_svd(a, trunc),
        SvdMethod::Randomized(params) => randomized_svd(a, trunc, params),
        SvdMethod::Auto { seed } => match auto_route(a.nrows()?, a.ncols()?, trunc) {
            AutoRoute::Jacobi => truncated_svd(a, trunc),
            AutoRoute::Gram => gram_svd(a, trunc),
            AutoRoute::Randomized => randomized_svd(a, trunc, RsvdParams::seeded(seed)),
        },
    }
}

/// [`truncated_svd_with`] of an `m × n` matrix read through a column-block
/// source, bit-identical to [`truncated_svd_with`] of the gathered matrix.
///
/// Where [`SvdMethod::Auto`] sends a wide matrix down the Gram route, its
/// Gram matrix and its projection each read the source one 512-column
/// block at a time, so the matrix is never stored whole: the TT-SVD's
/// first step reads the weight matrix through the fused-mode map this
/// way. Every other route gathers the matrix into a dense tensor first.
///
/// # Errors
///
/// Propagates [`truncated_svd_with`] errors.
pub fn truncated_svd_of<T: Scalar, S: ColumnBlocks<T>>(
    src: &S,
    trunc: Truncation,
    method: SvdMethod,
) -> Result<Svd<T>> {
    let (m, n) = (src.rows(), src.cols());
    if matches!(method, SvdMethod::Auto { .. })
        && m < n
        && auto_route(m, n, trunc) == AutoRoute::Gram
    {
        return gram_svd_wide(src, trunc);
    }
    truncated_svd_with(&src.gathered(), trunc, method)
}

/// The algorithm [`SvdMethod::Auto`] picks for an `m × n` problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AutoRoute {
    Jacobi,
    Gram,
    Randomized,
}

/// The [`SvdMethod::Auto`] rule documented on [`truncated_svd_with`].
fn auto_route(m: usize, n: usize, trunc: Truncation) -> AutoRoute {
    let (k, big, elems) = (m.min(n), m.max(n), m * n);
    let capped_small = trunc
        .max_rank
        .is_some_and(|r| 2 * (r + RSVD_DEFAULT_OVERSAMPLE) <= k);
    let thin = big >= RSVD_THIN_ASPECT * k && elems >= RSVD_THIN_MIN_ELEMS;
    if elems < RSVD_MIN_ELEMS || !(capped_small || thin) {
        AutoRoute::Jacobi
    } else if k <= RSVD_GRAM_MAX_SIDE {
        AutoRoute::Gram
    } else if capped_small {
        AutoRoute::Randomized
    } else {
        // Thin but with a short side too long for the Gram route's
        // O(k³) Jacobi finish, and no rank cap to sketch against.
        AutoRoute::Jacobi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_orthonormal_cols(m: &Tensor<f64>, tol: f64) {
        let g = matmul_tn(m, m).unwrap();
        let k = g.nrows().unwrap();
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (g.get(&[i, j]).unwrap() - want).abs() < tol,
                    "gram[{i},{j}] = {}",
                    g.get(&[i, j]).unwrap()
                );
            }
        }
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::<f64>::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::<f64>::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::<f64>::zeros(vec![2, 3]);
        let b = Tensor::<f64>::zeros(vec![2, 3]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![4, 5], 1.0);
        let x = init::uniform(&mut rng, vec![5], 1.0);
        let xm = x.reshaped(vec![5, 1]).unwrap();
        let y = matvec(&a, &x).unwrap();
        let ym = matmul(&a, &xm).unwrap();
        assert!(y.reshaped(vec![4, 1]).unwrap().approx_eq(&ym, 1e-12));
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![4, 3], 1.0);
        let b = init::uniform(&mut rng, vec![4, 5], 1.0);
        let c1 = matmul_tn(&a, &b).unwrap();
        let c2 = matmul(&a.transposed().unwrap(), &b).unwrap();
        assert!(c1.approx_eq(&c2, 1e-12));

        let d: Tensor<f64> = init::uniform(&mut rng, vec![5, 4], 1.0);
        let e1 = matmul_nt(&a.transposed().unwrap(), &d).unwrap();
        let e2 = matmul(&a.transposed().unwrap(), &d.transposed().unwrap()).unwrap();
        assert!(e1.approx_eq(&e2, 1e-12));
    }

    #[test]
    fn qr_reconstructs_and_q_is_orthonormal() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (m, n) in [(5, 3), (3, 5), (4, 4), (1, 3), (6, 1)] {
            let a = init::uniform(&mut rng, vec![m, n], 1.0);
            let f = qr(&a).unwrap();
            let back = matmul(&f.q, &f.r).unwrap();
            assert!(
                back.approx_eq(&a, 1e-10),
                "QR reconstruct failed for {m}x{n}"
            );
            assert_orthonormal_cols(&f.q, 1e-10);
            // R upper triangular
            let k = f.r.nrows().unwrap();
            for i in 0..k {
                for j in 0..i.min(f.r.ncols().unwrap()) {
                    assert!(f.r.get(&[i, j]).unwrap().abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn svd_reconstructs_tall_wide_square() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for (m, n) in [(6, 3), (3, 6), (5, 5), (1, 4), (4, 1)] {
            let a = init::uniform(&mut rng, vec![m, n], 1.0);
            let f = svd(&a).unwrap();
            let back = f.reconstruct().unwrap();
            assert!(
                back.approx_eq(&a, 1e-9),
                "SVD reconstruct failed for {m}x{n}: err {}",
                back.relative_error(&a).unwrap()
            );
            assert_orthonormal_cols(&f.u, 1e-9);
            assert_orthonormal_cols(&f.vt.transposed().unwrap(), 1e-9);
            for w in f.s.windows(2) {
                assert!(w[0] >= w[1], "singular values not sorted: {:?}", f.s);
            }
        }
    }

    #[test]
    fn svd_of_rank_deficient_matrix() {
        // rank-1 matrix: outer product
        let u = Tensor::<f64>::from_vec(vec![4, 1], vec![1., 2., 3., 4.]).unwrap();
        let v = Tensor::<f64>::from_vec(vec![1, 3], vec![1., 0., -1.]).unwrap();
        let a = matmul(&u, &v).unwrap();
        let f = svd(&a).unwrap();
        assert!(f.s[0] > 1.0);
        for &sv in &f.s[1..] {
            assert!(
                sv < 1e-10,
                "expected tiny trailing singular values: {:?}",
                f.s
            );
        }
        assert!(f.reconstruct().unwrap().approx_eq(&a, 1e-10));
    }

    #[test]
    fn svd_singular_values_match_known_diagonal() {
        let a =
            Tensor::<f64>::from_vec(vec![3, 3], vec![3., 0., 0., 0., 1., 0., 0., 0., 2.]).unwrap();
        let f = svd(&a).unwrap();
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn truncation_rank_and_tolerance() {
        let s = [4.0f64, 2.0, 1.0, 0.5];
        assert_eq!(Truncation::rank(2).select(&s), 2);
        assert_eq!(Truncation::none().select(&s), 4);
        // tol 1.2: can drop 0.5 (0.25) and 1.0 (1.0+0.25=1.25 > 1.44? no,
        // 1.25 <= 1.44 so both dropped); next would add 4.0 -> stop at 2.
        assert_eq!(Truncation::tolerance(1.2).select(&s), 2);
        // tol 0.6: 0.25 <= 0.36, adding 1.0 exceeds -> keep 3.
        assert_eq!(Truncation::tolerance(0.6).select(&s), 3);
        // Always keeps at least 1.
        assert_eq!(Truncation::tolerance(1e9).select(&s), 1);
        assert_eq!(Truncation::rank(0).select(&s), 1);
    }

    #[test]
    fn truncated_svd_error_is_bounded_by_dropped_mass() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![8, 6], 1.0);
        let full = svd(&a).unwrap();
        let t = truncated_svd(&a, Truncation::rank(3)).unwrap();
        let back = t.reconstruct().unwrap();
        let err = back.sub(&a).unwrap().frobenius_norm();
        let bound: f64 = full.s[3..].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            err <= bound * (1.0 + 1e-8) + 1e-12,
            "truncation error {err} exceeds bound {bound}"
        );
    }

    /// Low-rank matrix plus small noise: `rank`-dominant spectrum so
    /// randomized truncation has a meaningful tail to drop.
    fn low_rank_plus_noise(
        rng: &mut ChaCha8Rng,
        m: usize,
        n: usize,
        rank: usize,
        noise: f64,
    ) -> Tensor<f64> {
        let u: Tensor<f64> = init::uniform(rng, vec![m, rank], 1.0);
        let v: Tensor<f64> = init::uniform(rng, vec![rank, n], 1.0);
        let mut a = matmul(&u, &v).unwrap();
        let e: Tensor<f64> = init::uniform(rng, vec![m, n], noise);
        a = a.add(&e).unwrap();
        a
    }

    #[test]
    fn randomized_svd_exact_gram_regime_matches_matrix() {
        // ℓ = min(m,n): the Gram route replaces the sketch, and the result
        // is exact up to roundoff even for generic (full-rank) input.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (m, n) in [(40, 12), (12, 40), (17, 17)] {
            let a: Tensor<f64> = init::uniform(&mut rng, vec![m, n], 1.0);
            let f = randomized_svd(&a, Truncation::none(), RsvdParams::seeded(1)).unwrap();
            let back = f.reconstruct().unwrap();
            assert!(
                back.approx_eq(&a, 1e-9),
                "exact-regime rSVD failed for {m}x{n}: err {}",
                back.relative_error(&a).unwrap()
            );
            assert_orthonormal_cols(&f.u, 1e-9);
            assert_orthonormal_cols(&f.vt.transposed().unwrap(), 1e-9);
        }
    }

    #[test]
    fn randomized_svd_rank_capped_within_dropped_mass_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for (m, n) in [(60, 30), (30, 60)] {
            let a = low_rank_plus_noise(&mut rng, m, n, 5, 1e-3);
            let exact = svd(&a).unwrap();
            let f = randomized_svd(&a, Truncation::rank(5), RsvdParams::seeded(2)).unwrap();
            assert_eq!(f.s.len(), 5);
            let err = f.reconstruct().unwrap().sub(&a).unwrap().frobenius_norm();
            let bound: f64 = exact.s[5..].iter().map(|v| v * v).sum::<f64>().sqrt();
            // On a sharply decaying spectrum the sketch captures the
            // dominant subspace almost perfectly; allow 10% slack.
            assert!(
                err <= bound * 1.1 + 1e-12,
                "rSVD error {err} vs optimal {bound} for {m}x{n}"
            );
        }
    }

    #[test]
    fn randomized_svd_same_seed_is_bit_identical_at_any_thread_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let a = low_rank_plus_noise(&mut rng, 96, 48, 6, 1e-2);
        let trunc = Truncation::rank(6);
        let params = RsvdParams::seeded(42);
        let prev = parallel::set_num_threads(1);
        let serial = randomized_svd(&a, trunc, params).unwrap();
        parallel::set_num_threads(4);
        let threaded = randomized_svd(&a, trunc, params).unwrap();
        parallel::set_num_threads(prev);
        assert_eq!(serial.u.data(), threaded.u.data());
        assert_eq!(serial.s, threaded.s);
        assert_eq!(serial.vt.data(), threaded.vt.data());
        // And a different seed actually changes the sketch (sanity check
        // that the seed is wired through).
        let other = randomized_svd(&a, trunc, RsvdParams::seeded(43)).unwrap();
        assert_ne!(serial.u.data(), other.u.data());
    }

    #[test]
    fn truncated_svd_with_jacobi_matches_legacy_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![12, 9], 1.0);
        let trunc = Truncation::rank(4);
        let legacy = truncated_svd(&a, trunc).unwrap();
        let pinned = truncated_svd_with(&a, trunc, SvdMethod::Jacobi).unwrap();
        assert_eq!(legacy.u.data(), pinned.u.data());
        assert_eq!(legacy.s, pinned.s);
        assert_eq!(legacy.vt.data(), pinned.vt.data());
        // Auto on a sub-threshold matrix also takes the Jacobi path.
        let auto = truncated_svd_with(&a, trunc, SvdMethod::default()).unwrap();
        assert_eq!(legacy.u.data(), auto.u.data());
    }

    #[test]
    fn truncated_svd_with_auto_sketches_large_rank_capped() {
        // 272×320 with rank cap 8: the short side exceeds the Gram
        // threshold, so Auto must take the seeded sketch and still land
        // within the optimal-truncation bound (plus slack).
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let a = low_rank_plus_noise(&mut rng, 272, 320, 8, 1e-3);
        let auto = truncated_svd_with(&a, Truncation::rank(8), SvdMethod::default()).unwrap();
        let pinned = randomized_svd(
            &a,
            Truncation::rank(8),
            RsvdParams::seeded(DEFAULT_SVD_SEED),
        )
        .unwrap();
        // Auto must be exactly the seeded randomized path (proves dispatch).
        assert_eq!(auto.u.data(), pinned.u.data());
        let exact = svd(&a).unwrap();
        let err = auto
            .reconstruct()
            .unwrap()
            .sub(&a)
            .unwrap()
            .frobenius_norm();
        let bound: f64 = exact.s[8..].iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err <= bound * 1.1 + 1e-12, "err {err} vs bound {bound}");
    }

    #[test]
    fn truncated_svd_with_auto_takes_gram_route_for_short_side() {
        // 128×2048 with rank cap 8: large, rank-capped, short side ≤ 256 —
        // Auto must take the exact Gram route, which a forced ℓ = min(m,n)
        // sketch (oversample ≥ k) also reaches; the two must agree bitwise
        // and match Jacobi's optimal truncation to roundoff.
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let a = low_rank_plus_noise(&mut rng, 128, 2048, 8, 1e-3);
        let trunc = Truncation::rank(8);
        let auto = truncated_svd_with(&a, trunc, SvdMethod::default()).unwrap();
        let gram = randomized_svd(
            &a,
            trunc,
            RsvdParams {
                seed: 7, // must be irrelevant: the Gram route is seed-free
                oversample: 128,
                power_iters: 0,
            },
        )
        .unwrap();
        assert_eq!(auto.u.data(), gram.u.data());
        assert_eq!(auto.vt.data(), gram.vt.data());
        let exact = truncated_svd(&a, trunc).unwrap();
        for (sg, sj) in auto.s.iter().zip(&exact.s) {
            assert!((sg - sj).abs() <= 1e-8 * exact.s[0], "{sg} vs {sj}");
        }
        let err = auto
            .reconstruct()
            .unwrap()
            .sub(&a)
            .unwrap()
            .frobenius_norm();
        let jerr = exact
            .reconstruct()
            .unwrap()
            .sub(&a)
            .unwrap()
            .frobenius_norm();
        assert!(err <= jerr * (1.0 + 1e-6), "gram {err} vs jacobi {jerr}");
    }

    #[test]
    fn svd_f32_also_works() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a64: Tensor<f64> = init::uniform(&mut rng, vec![5, 4], 1.0);
        let a: Tensor<f32> = a64.cast();
        let f = svd(&a).unwrap();
        let back = f.reconstruct().unwrap();
        assert!(back.approx_eq(&a, 1e-4));
    }

    #[test]
    fn dest_map_rejects_non_bijections() {
        // Duplicate offset.
        assert!(DestMap::new(vec![0, 0], vec![0, 1]).is_err());
        // Out of range.
        assert!(DestMap::new(vec![0, 4], vec![0, 1]).is_err());
        // A genuine transpose of a 2x3 output into 3x2 storage.
        let t = DestMap::new(vec![0, 1], vec![0, 2, 4]).unwrap();
        assert_eq!(t.offset(1, 2), 5);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    /// The inner-stage call: mapped store, no epilogue.
    fn mapped_plain(a: &Tensor<f64>, b: &Tensor<f64>, c: &mut [f64], map: &DestMap, bsz: usize) {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n_mat = map.cols();
        gemm_into_mapped(
            a.data(),
            b.data(),
            c,
            m,
            k,
            n_mat,
            bsz,
            map,
            None,
            Activation::Identity,
        )
        .unwrap();
    }

    #[test]
    fn gemm_mapped_identity_is_bitwise_gemm_into() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for (m, k, n_mat, bsz) in [(7, 5, 6, 1), (16, 24, 10, 3), (33, 9, 17, 4)] {
            let a: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
            let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1.0);
            let mut plain = vec![0.0f64; m * n_mat * bsz];
            gemm_into(a.data(), b.data(), &mut plain, m, k, n_mat * bsz).unwrap();
            let map = DestMap::identity(m, n_mat);
            let mut mapped = vec![f64::NAN; m * n_mat * bsz];
            mapped_plain(&a, &b, &mut mapped, &map, bsz);
            for (x, y) in mapped.iter().zip(&plain) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n_mat} bsz={bsz}");
            }
        }
    }

    #[test]
    fn gemm_mapped_transpose_matches_gemm_then_permute_at_any_pool_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let (m, k, n_mat) = (12, 20, 9);
        // Transposed destination: (i, q) -> q*m + i.
        let map = DestMap::new((0..m).collect(), (0..n_mat).map(|q| q * m).collect()).unwrap();
        for bsz in [1usize, 2, 5] {
            let a: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1.0);
            let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1.0);
            let mut plain = vec![0.0f64; m * n_mat * bsz];
            gemm_into(a.data(), b.data(), &mut plain, m, k, n_mat * bsz).unwrap();
            let mut want = vec![0.0f64; m * n_mat * bsz];
            for i in 0..m {
                for q in 0..n_mat {
                    for cb in 0..bsz {
                        want[(q * m + i) * bsz + cb] = plain[i * n_mat * bsz + q * bsz + cb];
                    }
                }
            }
            let prev = parallel::set_num_threads(1);
            let mut serial = vec![f64::NAN; m * n_mat * bsz];
            mapped_plain(&a, &b, &mut serial, &map, bsz);
            for threads in [2usize, 8] {
                parallel::set_num_threads(threads);
                let mut pooled = vec![f64::NAN; m * n_mat * bsz];
                mapped_plain(&a, &b, &mut pooled, &map, bsz);
                for (x, y) in pooled.iter().zip(&serial) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bsz={bsz} threads={threads}");
                }
            }
            parallel::set_num_threads(prev);
            for (x, y) in serial.iter().zip(&want) {
                assert_eq!(x.to_bits(), y.to_bits(), "bsz={bsz}");
            }
        }
    }

    #[test]
    fn gemm_mapped_rejects_mismatched_map_and_lengths() {
        let a = [0.0f64; 6];
        let b = [0.0f64; 6];
        let map = DestMap::identity(2, 2);
        let ok = |bsz: usize, map: &DestMap, bias: Option<&[f64]>| {
            let mut c = [0.0f64; 4];
            gemm_into_mapped(&a, &b, &mut c, 2, 3, 2, bsz, map, bias, Activation::Relu).is_ok()
        };
        assert!(ok(1, &map, None));
        // k*n mismatch for b.
        assert!(!ok(2, &map, None));
        assert!(!ok(1, &DestMap::identity(3, 2), None));
        assert!(!ok(0, &map, None));
        // Bias must cover the m·n_mat logical outputs.
        assert!(ok(1, &map, Some(&[0.5; 4])));
        assert!(!ok(1, &map, Some(&[0.5; 3])));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Uniform entries with exact `0.0` and `-0.0` sprinkled in.
    fn with_zeros(rng: &mut ChaCha8Rng, dims: Vec<usize>) -> Tensor<f64> {
        let mut t: Tensor<f64> = init::uniform(rng, dims, 1.0);
        for (i, x) in t.data_mut().iter_mut().enumerate() {
            match i % 7 {
                2 => *x = 0.0,
                5 => *x = -0.0,
                _ => {}
            }
        }
        t
    }

    /// The Gram oracle: `matmul_naive` of each 512-column block with its
    /// transpose, the block products added into `G` in ascending order.
    fn gram_oracle(a: &Tensor<f64>) -> Vec<f64> {
        let (m, n) = (a.nrows().unwrap(), a.ncols().unwrap());
        let mut g = vec![0.0; m * m];
        for k0 in (0..n).step_by(tile::GRAM_BLOCK_K) {
            let len = (n - k0).min(tile::GRAM_BLOCK_K);
            let blk = Tensor::from_fn(vec![m, len], |ix| a.data()[ix[0] * n + k0 + ix[1]]).unwrap();
            let prod = matmul_naive(&blk, &blk.transposed().unwrap()).unwrap();
            for (gv, &p) in g.iter_mut().zip(prod.data()) {
                *gv += p;
            }
        }
        g
    }

    #[test]
    fn differential_gram_matches_blockwise_naive_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        // Row counts around the 4-row tiles and 8-column lanes; column
        // counts below, at and across the 512-column block; sizes large
        // enough to split the blocks across threads.
        for m in [1, 3, 4, 5, 8, 9, 16, 17, 33, 64] {
            for n in [1, 7, 100, 511, 512, 513, 1100, 2048] {
                let a = with_zeros(&mut rng, vec![m, n]);
                let g = gram_nt(&Dense::new(a.data(), m, n));
                assert_eq!(bits(g.data()), bits(&gram_oracle(&a)), "gram {m}x{n}");
            }
        }
        // More blocks than one round of the pool's jobs holds.
        let a = with_zeros(&mut rng, vec![64, 17 * 512 + 3]);
        let g = gram_nt(&Dense::new(a.data(), 64, 17 * 512 + 3));
        assert_eq!(bits(g.data()), bits(&gram_oracle(&a)), "gram in rounds");
        // The portable tier computes the same bits.
        let a = with_zeros(&mut rng, vec![13, 1500]);
        let mut g = vec![0.0; 13 * 13];
        let src = Dense::new(a.data(), 13, 1500);
        tile::gram_into(tile::PortableTile::<8, 2>, &src, &mut g);
        let mut want = vec![0.0; 13 * 13];
        tile::gram_into(FloatAuto, &src, &mut want);
        assert_eq!(bits(&g), bits(&want), "portable gram");
        // Empty dimensions leave G zero.
        let mut g = vec![0.0; 9];
        tile::gram_into(FloatAuto, &Dense::new(&[], 3, 0), &mut g);
        assert_eq!(bits(&g), bits(&[0.0; 9]));
        tile::gram_into::<f64, _, _>(FloatAuto, &Dense::new(&[], 0, 5), &mut []);
    }

    #[test]
    fn differential_matmul_tn_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        // (k, m, n): tile remainders on every axis, a narrow `n` under
        // tall `m` (8- and 4-wide strips), fewer rows than 4 per thread
        // (column spans), k across the 128-deep block, and products big
        // enough to go parallel.
        for (k, m, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (16, 4, 4099),
            (16, 2, 1000),
            (300, 12, 144),
            (320, 515, 12),
            (129, 70, 3),
            (560, 30, 30),
            (257, 129, 41),
        ] {
            let a = with_zeros(&mut rng, vec![k, m]);
            let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n], 1.0);
            let want = matmul_tn_naive(&a, &b).unwrap();
            let got = matmul_tn(&a, &b).unwrap();
            assert_eq!(bits(got.data()), bits(want.data()), "tn {k}x{m} · {k}x{n}");
            // The Gram route's projection stage: the same job over
            // 512-column blocks of a column-block source.
            let mut c = vec![0.0; m * n];
            tile::kblocked_gemm_tn_blocks(
                FloatAuto,
                a.data(),
                &Dense::new(b.data(), k, n),
                &mut c,
                m,
            );
            assert_eq!(bits(&c), bits(want.data()), "tn blocks {k}x{m} · {k}x{n}");
            // Non-finite B where A is zero: the skipped terms never
            // materialize `0·∞ = NaN`.
            let mut bad = b.clone();
            for x in bad.data_mut().iter_mut().step_by(11) {
                *x = f64::INFINITY;
            }
            let want = matmul_tn_naive(&a, &bad).unwrap();
            let got = matmul_tn(&a, &bad).unwrap();
            assert_eq!(
                bits(got.data()),
                bits(want.data()),
                "tn ∞ {k}x{m} · {k}x{n}"
            );
            let mut c = vec![0.0; m * n];
            tile::kblocked_gemm_tn_blocks(
                FloatAuto,
                a.data(),
                &Dense::new(bad.data(), k, n),
                &mut c,
                m,
            );
            assert_eq!(bits(&c), bits(want.data()), "tn blocks ∞ {k}x{m} · {k}x{n}");
        }
        // The portable tier computes the same bits.
        let (k, m, n) = (130, 70, 45);
        let a = with_zeros(&mut rng, vec![k, m]);
        let b: Tensor<f64> = init::uniform(&mut rng, vec![k, n], 1.0);
        let mut c = vec![0.0; m * n];
        tile::kblocked_gemm_tn(
            tile::PortableTile::<8, 2>,
            a.data(),
            b.data(),
            &mut c,
            m,
            k,
            n,
        );
        let want = matmul_tn_naive(&a, &b).unwrap();
        assert_eq!(bits(&c), bits(want.data()), "portable tn");
        // Empty dimensions: k = 0 leaves C zero; m = 0 or n = 0 is empty.
        let mut c = vec![0.0; 6];
        tile::kblocked_gemm_tn(FloatAuto, &[], &[], &mut c, 2, 0, 3);
        assert_eq!(bits(&c), bits(&[0.0; 6]));
        tile::kblocked_gemm_tn::<f64, _>(FloatAuto, &[], &[1.0; 4], &mut [], 0, 2, 2);
        tile::kblocked_gemm_tn::<f64, _>(FloatAuto, &[1.0; 4], &[], &mut [], 2, 2, 0);
        let mut c = vec![0.0; 2 * 600];
        tile::kblocked_gemm_tn_blocks(FloatAuto, &[], &Dense::new(&[], 0, 600), &mut c, 2);
        assert_eq!(bits(&c), bits(&[0.0; 2 * 600]));
    }

    /// A matrix stored transposed, with its columns in a permuted order:
    /// element `(r, j)` is `store[perm[j]·rows + r]`. Its blocks are
    /// gathered into the caller's scratch.
    struct Permuted {
        store: Vec<f64>,
        perm: Vec<usize>,
        rows: usize,
    }

    impl ColumnBlocks<f64> for Permuted {
        fn rows(&self) -> usize {
            self.rows
        }

        fn cols(&self) -> usize {
            self.perm.len()
        }

        fn block<'s>(
            &'s self,
            j0: usize,
            len: usize,
            scratch: &'s mut Vec<f64>,
        ) -> (&'s [f64], usize) {
            scratch.resize(self.rows * len, 0.0);
            for r in 0..self.rows {
                for (x, &p) in self.perm[j0..j0 + len].iter().enumerate() {
                    scratch[r * len + x] = self.store[p * self.rows + r];
                }
            }
            (scratch, len)
        }
    }

    #[test]
    fn differential_gram_svd_through_permuted_source_matches_materialized() {
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        // 64 × 8707: the Gram takes its blocks in more than one round, and
        // the last block is partial; `0.0`/`-0.0` entries included.
        let (m, n) = (64, 17 * 512 + 3);
        let store = with_zeros(&mut rng, vec![n, m]).into_vec();
        let perm: Vec<usize> = (0..n).map(|j| (j * 7919 + 13) % n).collect();
        let src = Permuted {
            store,
            perm,
            rows: m,
        };
        let dense = src.gathered();
        assert_eq!(dense.dims(), &[m, n]);
        for trunc in [Truncation::rank(4), Truncation::rank(24)] {
            let got = gram_svd_wide(&src, trunc).unwrap();
            let want = gram_svd(&dense, trunc).unwrap();
            assert_eq!(bits(got.u.data()), bits(want.u.data()), "u");
            assert_eq!(bits(&got.s), bits(&want.s), "s");
            assert_eq!(bits(got.vt.data()), bits(want.vt.data()), "vt");
            // The public entry takes the same route, and any other route
            // reads the gathered matrix.
            for method in [
                SvdMethod::default(),
                SvdMethod::Randomized(RsvdParams::default()),
            ] {
                let got = truncated_svd_of(&src, trunc, method).unwrap();
                let want = truncated_svd_with(&dense, trunc, method).unwrap();
                assert_eq!(bits(got.vt.data()), bits(want.vt.data()), "{method:?}");
            }
        }
    }
}
