use crate::{Result, Scalar, Shape, TensorError};

/// Largest absolute element of `data`, in `f64`; `0.0` when `data` is
/// empty or all NaN.
///
/// Bit-identical to the sequential fold `fold(0.0, f64::max)` over
/// `|v|`, but split over independent accumulators so the scan is not
/// bound by the latency of one dependent `max` chain. The order cannot
/// matter: every `|v|` is `+0.0` or above (or NaN, which `f64::max`
/// skips), and the maximum of such a set does not depend on how it is
/// grouped.
pub fn max_abs<T: Scalar>(data: &[T]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [0.0f64; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a = a.max(v.to_f64().abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0, |m: f64, v| m.max(v.to_f64().abs()));
    acc.into_iter().fold(tail, f64::max)
}

/// An owned, row-major, `d`-dimensional dense array.
///
/// `Tensor` is the universal data container in the workspace: weight
/// matrices, activations, tensor-train cores (as 3-D / 4-D tensors), and the
/// intermediate `V_h` matrices of the compact inference scheme are all
/// `Tensor`s. Data is stored contiguously in row-major order and the type is
/// cheap to reshape (metadata only) and explicit about anything that moves
/// data (`permuted`, `transposed`).
///
/// # Example
///
/// ```
/// use tie_tensor::Tensor;
///
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let t = Tensor::<f32>::from_fn(vec![2, 3], |idx| (idx[0] * 3 + idx[1]) as f32)?;
/// assert_eq!(t.get(&[1, 2])?, 5.0);
/// let r = t.reshaped(vec![3, 2])?;
/// assert_eq!(r.get(&[2, 1])?, 5.0); // same linear order
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Scalar> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Scalar> Tensor<T> {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or contains a zero (programmer error: shapes
    /// are static in all call sites; use [`Tensor::try_zeros`] for dynamic
    /// shapes).
    pub fn zeros(dims: Vec<usize>) -> Self {
        Self::try_zeros(dims).expect("valid shape")
    }

    /// Creates a tensor filled with zeros, reporting invalid shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] for an empty/zero shape.
    pub fn try_zeros(dims: Vec<usize>) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let n = shape.num_elements();
        Ok(Tensor {
            shape,
            data: vec![T::ZERO; n],
        })
    }

    /// Creates a tensor with every element equal to `value`.
    pub fn filled(dims: Vec<usize>, value: T) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let n = shape.num_elements();
        Ok(Tensor {
            shape,
            data: vec![value; n],
        })
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if `data.len()` differs
    /// from the shape's element count, or [`TensorError::EmptyShape`] for an
    /// invalid shape.
    pub fn from_vec(dims: Vec<usize>, data: Vec<T>) -> Result<Self> {
        let shape = Shape::new(dims)?;
        if shape.num_elements() != data.len() {
            return Err(TensorError::ElementCountMismatch {
                expected: shape.num_elements(),
                got: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyShape`] for an invalid shape.
    pub fn from_fn(dims: Vec<usize>, mut f: impl FnMut(&[usize]) -> T) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        for off in 0..n {
            let idx = shape.unflatten(off);
            data.push(f(&idx));
        }
        Ok(Tensor { shape, data })
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = T::ONE;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list (shortcut for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Read-only view of the row-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the row-major buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        Ok(self.data[self.shape.flatten(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a bad index.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let off = self.shape.flatten(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Reshapes in place (metadata only; the buffer is untouched).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if the element count
    /// changes.
    pub fn reshape(&mut self, dims: Vec<usize>) -> Result<()> {
        let shape = Shape::new(dims)?;
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ElementCountMismatch {
                expected: shape.num_elements(),
                got: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Returns a reshaped copy of the tensor (same linear order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if the element count
    /// changes.
    pub fn reshaped(&self, dims: Vec<usize>) -> Result<Self> {
        let mut t = self.clone();
        t.reshape(dims)?;
        Ok(t)
    }

    /// Returns a copy with axes permuted (data is physically reordered).
    ///
    /// `perm[k]` names the source axis that becomes output axis `k`, matching
    /// NumPy's `transpose` convention.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] for a bad permutation.
    pub fn permuted(&self, perm: &[usize]) -> Result<Self> {
        let out_shape = self.shape.permute(perm)?;
        let in_strides = self.shape.strides();
        let mut out = Tensor {
            shape: out_shape.clone(),
            data: vec![T::ZERO; self.data.len()],
        };
        // Walk the output in linear order, computing the matching input
        // offset incrementally (odometer) to avoid re-deriving indices.
        let ndim = perm.len();
        let mut out_idx = vec![0usize; ndim];
        let mut in_off = 0usize;
        let perm_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        for out_off in 0..self.data.len() {
            out.data[out_off] = self.data[in_off];
            // increment odometer over out_idx (row-major, last axis fastest)
            for k in (0..ndim).rev() {
                out_idx[k] += 1;
                in_off += perm_strides[k];
                if out_idx[k] < out_shape.dim(k) {
                    break;
                }
                in_off -= perm_strides[k] * out_shape.dim(k);
                out_idx[k] = 0;
            }
        }
        Ok(out)
    }

    /// Matrix transpose (fast path of [`Tensor::permuted`] for 2-D tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-2-D tensors.
    pub fn transposed(&self) -> Result<Self> {
        if self.ndim() != 2 {
            return Err(TensorError::NotAMatrix { ndim: self.ndim() });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut data = vec![T::ZERO; self.data.len()];
        for i in 0..r {
            for j in 0..c {
                data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            shape: Shape::matrix(c, r).expect("nonzero dims"),
            data,
        })
    }

    /// Number of rows (2-D tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-2-D tensors.
    pub fn nrows(&self) -> Result<usize> {
        if self.ndim() != 2 {
            return Err(TensorError::NotAMatrix { ndim: self.ndim() });
        }
        Ok(self.shape.dim(0))
    }

    /// Number of columns (2-D tensors).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-2-D tensors.
    pub fn ncols(&self) -> Result<usize> {
        if self.ndim() != 2 {
            return Err(TensorError::NotAMatrix { ndim: self.ndim() });
        }
        Ok(self.shape.dim(1))
    }

    /// Copies a contiguous row range `[r0, r1)` of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-2-D tensors or
    /// [`TensorError::InvalidArgument`] for a bad range.
    pub fn rows(&self, r0: usize, r1: usize) -> Result<Self> {
        let (r, c) = (self.nrows()?, self.ncols()?);
        if r0 >= r1 || r1 > r {
            return Err(TensorError::InvalidArgument {
                message: format!("row range {r0}..{r1} out of 0..{r}"),
            });
        }
        Ok(Tensor {
            shape: Shape::matrix(r1 - r0, c).expect("nonzero dims"),
            data: self.data[r0 * c..r1 * c].to_vec(),
        })
    }

    /// Copies a contiguous column range `[c0, c1)` of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-2-D tensors or
    /// [`TensorError::InvalidArgument`] for a bad range.
    pub fn cols(&self, c0: usize, c1: usize) -> Result<Self> {
        let (r, c) = (self.nrows()?, self.ncols()?);
        if c0 >= c1 || c1 > c {
            return Err(TensorError::InvalidArgument {
                message: format!("column range {c0}..{c1} out of 0..{c}"),
            });
        }
        let w = c1 - c0;
        let mut data = Vec::with_capacity(r * w);
        for i in 0..r {
            data.extend_from_slice(&self.data[i * c + c0..i * c + c1]);
        }
        Ok(Tensor {
            shape: Shape::matrix(r, w).expect("nonzero dims"),
            data,
        })
    }

    /// One row of a matrix as a slice (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a matrix or `i` is out of range.
    pub fn row(&self, i: usize) -> &[T] {
        let c = self.ncols().expect("matrix");
        &self.data[i * c..(i + 1) * c]
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(T) -> T) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combination with a binary closure.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Self, f: impl Fn(T, T) -> T) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: T, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns the scaled copy `alpha * self`.
    pub fn scaled(&self, alpha: T) -> Self {
        let mut t = self.clone();
        t.scale(alpha);
        t
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }

    /// Frobenius norm (`sqrt(Σ x²)`), computed in `f64` for stability.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let x = v.to_f64();
                x * x
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute element, in `f64` (see [`max_abs`]).
    pub fn max_abs(&self) -> f64 {
        max_abs(&self.data)
    }

    /// Index (flat) and value of the maximum element.
    pub fn argmax(&self) -> (usize, T) {
        let mut best = (0usize, self.data[0]);
        for (i, &v) in self.data.iter().enumerate() {
            if v > best.1 {
                best = (i, v);
            }
        }
        best
    }

    /// True when every element differs from `other` by at most `tol`
    /// (absolute, in `f64`).
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a.to_f64() - b.to_f64()).abs() <= tol)
    }

    /// Relative Frobenius distance `‖self − other‖_F / max(‖other‖_F, 1e-30)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn relative_error(&self, other: &Self) -> Result<f64> {
        let diff = self.sub(other)?;
        Ok(diff.frobenius_norm() / other.frobenius_norm().max(1e-30))
    }

    /// Converts the element type (e.g. `f64` reference → `f32` training).
    pub fn cast<U: Scalar>(&self) -> Tensor<U> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: Vec<usize>) -> Tensor<f64> {
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::<f32>::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::<f32>::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::<f64>::zeros(vec![3, 4]);
        t.set(&[2, 1], 7.5).unwrap();
        assert_eq!(t.get(&[2, 1]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[3, 0]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::<f64>::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(&[r, c]).unwrap(), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_preserves_linear_order() {
        let t = iota(vec![2, 6]);
        let r = t.reshaped(vec![3, 4]).unwrap();
        assert_eq!(r.get(&[2, 3]).unwrap(), 11.0);
        assert!(t.reshaped(vec![5, 5]).is_err());
    }

    #[test]
    fn permuted_matches_manual_transpose() {
        let t = iota(vec![2, 3]);
        let p = t.permuted(&[1, 0]).unwrap();
        let tr = t.transposed().unwrap();
        assert_eq!(p, tr);
        assert_eq!(p.get(&[2, 1]).unwrap(), t.get(&[1, 2]).unwrap());
    }

    #[test]
    fn permuted_3d_moves_elements_correctly() {
        let t = iota(vec![2, 3, 4]);
        let p = t.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(
                        p.get(&[c, a, b]).unwrap(),
                        t.get(&[a, b, c]).unwrap(),
                        "mismatch at ({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn double_permute_is_identity() {
        let t = iota(vec![3, 4, 5]);
        let p = t.permuted(&[1, 2, 0]).unwrap();
        // inverse of [1,2,0] is [2,0,1]
        let back = p.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn rows_and_cols_slices() {
        let t = iota(vec![4, 3]);
        let r = t.rows(1, 3).unwrap();
        assert_eq!(r.dims(), &[2, 3]);
        assert_eq!(r.get(&[0, 0]).unwrap(), 3.0);
        let c = t.cols(1, 2).unwrap();
        assert_eq!(c.dims(), &[4, 1]);
        assert_eq!(c.get(&[2, 0]).unwrap(), 7.0);
        assert!(t.rows(3, 3).is_err());
        assert!(t.cols(0, 4).is_err());
    }

    #[test]
    fn row_returns_borrowed_slice() {
        let t = iota(vec![2, 3]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = iota(vec![2, 2]);
        let b = Tensor::filled(vec![2, 2], 2.0).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-2.0, -1.0, 0.0, 1.0]);
        assert_eq!(a.hadamard(&b).unwrap().data(), &[0.0, 2.0, 4.0, 6.0]);
        let bad = Tensor::<f64>::zeros(vec![3]);
        assert!(a.add(&bad).is_err());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = iota(vec![3]);
        let b = Tensor::filled(vec![3], 1.0).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.0, 1.5, 2.0]);
    }

    #[test]
    fn norms_and_argmax() {
        let t = Tensor::<f64>::from_vec(vec![2, 2], vec![3.0, -4.0, 0.0, 0.0]).unwrap();
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.argmax(), (0, 3.0));
        assert_eq!(t.sum(), -1.0);
    }

    /// The accumulator-split scan against the sequential fold it
    /// replaced, bit for bit, on every special value and on lengths
    /// around multiples of the accumulator count.
    #[test]
    fn differential_max_abs_matches_sequential_fold() {
        let fold = |d: &[f64]| d.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let special = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            -f64::MAX,
            1.5,
            -2.25,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..=35 {
            for round in 0..24usize {
                let data: Vec<f64> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let pick = (state >> 32) as usize;
                        // Every third round is all special values; the
                        // rest are ordinary with a special one here and
                        // there.
                        if round.is_multiple_of(3) || pick.is_multiple_of(7) {
                            special[pick % special.len()]
                        } else {
                            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                        }
                    })
                    .collect();
                let want = fold(&data);
                assert_eq!(max_abs(&data).to_bits(), want.to_bits(), "{data:?}");
                let single: Vec<f32> = data.iter().map(|&v| v as f32).collect();
                let want32 = single
                    .iter()
                    .map(|v| f64::from(*v).abs())
                    .fold(0.0, f64::max);
                assert_eq!(max_abs(&single).to_bits(), want32.to_bits());
            }
        }
        // All-NaN and all-negative-zero inputs keep the fold's +0.0.
        assert_eq!(max_abs(&[f64::NAN; 19]).to_bits(), 0.0f64.to_bits());
        assert_eq!(max_abs(&[-0.0f64; 9]).to_bits(), 0.0f64.to_bits());
        assert_eq!(max_abs::<f64>(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn approx_and_relative_error() {
        let a = iota(vec![2, 2]);
        let mut b = a.clone();
        b.data_mut()[0] += 1e-9;
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        assert!(a.relative_error(&b).unwrap() < 1e-9);
    }

    #[test]
    fn cast_roundtrips_within_f32_precision() {
        let a = iota(vec![2, 3]);
        let f: Tensor<f32> = a.cast();
        let back: Tensor<f64> = f.cast();
        assert!(a.approx_eq(&back, 1e-6));
    }

    #[test]
    fn map_applies_elementwise() {
        let a = iota(vec![2]);
        let m = a.map(|v| v * v);
        assert_eq!(m.data(), &[0.0, 1.0]);
        let mut b = a.clone();
        b.map_inplace(|v| v + 1.0);
        assert_eq!(b.data(), &[1.0, 2.0]);
    }
}
