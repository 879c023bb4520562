//! Symbolic indexing-map compiler for the Eqn. 8/10 Transform chain.
//!
//! The inter-stage Transform of the compact scheme is a composition of
//! transpose / reshape / split / assemble steps, each of which is a
//! **strided affine map** over the stage's flat index space: a bijection
//! `i ↦ Σ_digit d·stride` where the digits are a mixed-radix decomposition
//! of the source index. This module represents those maps symbolically
//! ([`AffineMap`]), composes whole chains into a single map per TT stage
//! ([`AffineMap::then`], in the style of XLA's indexing analysis), and
//! lowers the result into the two forms the runtime wants:
//!
//! * **offset tables** ([`AffineMap::offset_tables`]) — the separable
//!   row/column form consumed by the fused GEMM write epilogues
//!   (`tie_tensor::linalg::DestMap`), which eliminate the permutation pass
//!   entirely by scattering stage outputs straight into the next stage's
//!   layout;
//! * **copy plans** ([`CopyPlan`]) — provably-minimal contiguous block
//!   copies for the remaining cold-path moves (input preparation), derived
//!   by inverting and simplifying the map rather than by ad-hoc gather
//!   tables.
//!
//! Enumeration never decodes indices with per-element division: the
//! [`Odometer`] walks a map's destination offsets incrementally
//! (increment-and-wrap per digit, O(1) amortized), and is verified against
//! the direct [`AffineMap::apply`] evaluation by the test suite.
//!
//! # Digit convention
//!
//! `digits[0]` is the **slowest** source digit (largest place value), the
//! last digit the fastest — row-major, matching every tensor in the
//! workspace. A map is applied to a flat source index by decomposing it
//! into digits and summing `digit · stride`. All maps built here are
//! bijections onto `[0, source_len)` and composition verifies that
//! property structurally (no carries between routed digits), so a composed
//! chain is exactly as trustworthy as its steps.

use tie_tensor::{linalg::DestMap, Result, TensorError};
use tie_tt::TtShape;

use crate::transform::TransformMap;

/// One mixed-radix digit of an [`AffineMap`]: `extent` values contributing
/// `value · stride` to the destination offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digit {
    /// Radix of this digit (number of values it takes, ≥ 1).
    pub extent: usize,
    /// Destination place value of this digit.
    pub stride: usize,
}

/// A strided affine indexing map: a bijection from flat source indices to
/// destination offsets, represented as mixed-radix digits with arbitrary
/// destination strides. See the [module docs](self) for the conventions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineMap {
    digits: Vec<Digit>,
}

fn invalid(msg: String) -> TensorError {
    TensorError::InvalidArgument { message: msg }
}

impl AffineMap {
    /// The identity map over a row-major index space of the given
    /// dimensions: digit `j` has stride `∏_{l>j} dims[l]`.
    #[must_use]
    pub fn identity(dims: &[usize]) -> Self {
        let mut digits: Vec<Digit> = dims
            .iter()
            .map(|&e| Digit {
                extent: e,
                stride: 0,
            })
            .collect();
        let mut place = 1usize;
        for d in digits.iter_mut().rev() {
            d.stride = place;
            place *= d.extent;
        }
        AffineMap { digits }
    }

    /// A transpose: the source is row-major over `dims`; destination
    /// position `j` (row-major over `dims[perm[0]], dims[perm[1]], …`)
    /// holds source digit `perm[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `perm` is not a
    /// permutation of `0..dims.len()`.
    pub fn transpose(dims: &[usize], perm: &[usize]) -> Result<Self> {
        let n = dims.len();
        let mut seen = vec![false; n];
        if perm.len() != n
            || perm
                .iter()
                .any(|&p| p >= n || std::mem::replace(&mut seen[p], true))
        {
            return Err(invalid(format!(
                "transpose: {perm:?} is not a permutation of 0..{n}"
            )));
        }
        let mut digits: Vec<Digit> = dims
            .iter()
            .map(|&e| Digit {
                extent: e,
                stride: 0,
            })
            .collect();
        let mut place = 1usize;
        for &src in perm.iter().rev() {
            digits[src].stride = place;
            place *= dims[src];
        }
        Ok(AffineMap { digits })
    }

    /// The map's digits, slowest first.
    #[must_use]
    pub fn digits(&self) -> &[Digit] {
        &self.digits
    }

    /// Number of source indices (product of extents).
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.digits.iter().map(|d| d.extent).product()
    }

    /// Destination offset of flat source index `i` by direct digit
    /// decomposition (div/mod per digit — the reference evaluation the
    /// [`Odometer`] is verified against).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of range.
    #[must_use]
    pub fn apply(&self, i: usize) -> usize {
        debug_assert!(i < self.source_len().max(1));
        let mut rem = i;
        let mut off = 0usize;
        for d in self.digits.iter().rev() {
            let v = rem % d.extent;
            rem /= d.extent;
            off += v * d.stride;
        }
        off
    }

    /// Verifies the map is a bijection onto `[0, source_len)` by the
    /// strides-tile criterion: sorted by descending stride, the fastest
    /// digit has stride 1 and each stride equals the next digit's
    /// `extent · stride` (extent-1 digits are ignored). This is exactly
    /// the condition under which distinct digit values can never collide
    /// or leave gaps.
    #[must_use]
    pub fn is_bijection(&self) -> bool {
        let mut digs: Vec<Digit> = self
            .digits
            .iter()
            .copied()
            .filter(|d| d.extent > 1)
            .collect();
        digs.sort_by_key(|d| std::cmp::Reverse(d.stride));
        let mut place = 1usize;
        for d in digs.iter().rev() {
            if d.stride != place {
                return false;
            }
            place *= d.extent;
        }
        true
    }

    /// Drops extent-1 digits and merges adjacent digits that form one
    /// contiguous row-major group (`stride_slow == extent_fast ·
    /// stride_fast`). The result maps every index to the same offset with
    /// the fewest digits — what makes [`CopyPlan`] runs provably maximal.
    #[must_use]
    pub fn simplified(&self) -> AffineMap {
        let mut out: Vec<Digit> = Vec::with_capacity(self.digits.len());
        for &d in &self.digits {
            if d.extent == 1 {
                continue;
            }
            if let Some(last) = out.last_mut() {
                if last.stride == d.extent * d.stride {
                    last.extent *= d.extent;
                    last.stride = d.stride;
                    continue;
                }
            }
            out.push(d);
        }
        AffineMap { digits: out }
    }

    /// Composition `g ∘ self`: a single map sending each source index of
    /// `self` to `g.apply(self.apply(i))` — symbolically, with no index
    /// enumeration.
    ///
    /// Each digit of `self` is **routed** through `g`'s place values: a
    /// digit with stride `s = c · place_j` advances `g`'s digit `j` by `c`
    /// per step, so it lands at stride `c · g_stride_j`; a digit whose
    /// range overflows digit `j` is split at the radix boundary and its
    /// upper part recursively routed at the coarser place. Composition
    /// verifies structurally that routed digits can never carry into each
    /// other (per-destination-digit capacity `Σ (extent−1)·c ≤ extent_j −
    /// 1`), which makes the symbolic composition exact — the tests
    /// additionally confirm it index-for-index against the legacy tables.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if either map is not a
    /// bijection, extents disagree, or a digit cannot be routed without
    /// carries (never the case for the transpose/reshape chains built
    /// here).
    pub fn then(&self, g: &AffineMap) -> Result<AffineMap> {
        if !self.is_bijection() || !g.is_bijection() {
            return Err(invalid("then: both maps must be bijections".into()));
        }
        if self.source_len() != g.source_len() {
            return Err(invalid(format!(
                "then: intermediate space mismatch ({} vs {})",
                self.source_len(),
                g.source_len()
            )));
        }
        // Source place values of g's digits: `apply` decomposes g's source
        // index in digit-list order (digits[0] slowest), so digit j's place
        // is the product of the extents after it. Extent-1 digits
        // contribute a factor of 1 and are dropped up front.
        let g_digits: Vec<Digit> = g.digits.iter().copied().filter(|d| d.extent > 1).collect();
        let mut places = vec![0usize; g_digits.len()];
        {
            let mut place = 1usize;
            for j in (0..g_digits.len()).rev() {
                places[j] = place;
                place *= g_digits[j].extent;
            }
        }
        let mut routed: Vec<Digit> = Vec::new();
        // Capacity audit: how much of each g digit's range the routed
        // fractions consume. Any overflow would mean a carry — reject.
        let mut used = vec![0usize; g_digits.len()];
        for &d in &self.digits {
            route_digit(d, &g_digits, &places, &mut routed, &mut used)?;
        }
        for (j, gd) in g_digits.iter().enumerate() {
            if used[j] > gd.extent - 1 {
                return Err(invalid(format!(
                    "then: routed digits overflow destination digit {j} ({} > {})",
                    used[j],
                    gd.extent - 1
                )));
            }
        }
        Ok(AffineMap { digits: routed })
    }

    /// The inverse bijection: a map sending each *destination* offset of
    /// `self` back to its source index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the map is not a
    /// bijection.
    pub fn inverse(&self) -> Result<AffineMap> {
        if !self.is_bijection() {
            return Err(invalid("inverse: map is not a bijection".into()));
        }
        // Source place value of each digit (row-major over `digits`).
        let mut src_place = vec![1usize; self.digits.len()];
        let mut place = 1usize;
        for (j, d) in self.digits.iter().enumerate().rev() {
            src_place[j] = place;
            place *= d.extent;
        }
        // The destination decomposes row-major over the digits sorted by
        // descending stride; the inverse contributes each digit's source
        // place at that position.
        let mut order: Vec<usize> = (0..self.digits.len())
            .filter(|&j| self.digits[j].extent > 1)
            .collect();
        order.sort_by(|&a, &b| self.digits[b].stride.cmp(&self.digits[a].stride));
        let digits = order
            .iter()
            .map(|&j| Digit {
                extent: self.digits[j].extent,
                stride: src_place[j],
            })
            .collect();
        Ok(AffineMap { digits })
    }

    /// Splits the map of an `rows × cols` source space at the row/column
    /// boundary into separable offset tables: `R[p] = apply(p·cols)` and
    /// `C[q] = apply(q)`, so `apply(p·cols + q) = R[p] + C[q]` for every
    /// element. Both tables are enumerated with [`Odometer`] walks (no
    /// per-element division).
    ///
    /// This is the lowering the fused GEMM epilogue consumes: the pair
    /// plugs straight into `tie_tensor::linalg::DestMap::new`, whose
    /// constructor re-verifies the bijection numerically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `rows·cols` is not the
    /// source length or the digit radices cannot be split at the `cols`
    /// boundary (cannot happen for maps over matrix index spaces built
    /// with matching extents).
    pub fn offset_tables(&self, rows: usize, cols: usize) -> Result<(Vec<usize>, Vec<usize>)> {
        if rows * cols != self.source_len() {
            return Err(invalid(format!(
                "offset_tables: {rows}x{cols} does not cover source length {}",
                self.source_len()
            )));
        }
        // Walk digits from fastest to slowest accumulating the trailing
        // extent product until it reaches `cols`, splitting a straddling
        // digit at the radix boundary when divisible.
        let mut row_digits: Vec<Digit> = Vec::new();
        let mut col_digits: Vec<Digit> = Vec::new();
        let mut trailing = 1usize;
        for &d in self.digits.iter().rev() {
            if trailing >= cols {
                row_digits.push(d);
                continue;
            }
            if trailing * d.extent <= cols {
                col_digits.push(d);
                trailing *= d.extent;
                continue;
            }
            // Straddling digit: the lower `f` values belong to the column
            // part, the upper `extent / f` to the row part.
            let f = cols / trailing;
            if !cols.is_multiple_of(trailing) || d.extent % f != 0 {
                return Err(invalid(format!(
                    "offset_tables: digit of extent {} straddles the column boundary {cols} \
                     indivisibly",
                    d.extent
                )));
            }
            col_digits.push(Digit {
                extent: f,
                stride: d.stride,
            });
            row_digits.push(Digit {
                extent: d.extent / f,
                stride: d.stride * f,
            });
            trailing *= d.extent;
        }
        row_digits.reverse();
        col_digits.reverse();
        let walk = |digits: Vec<Digit>, len: usize| -> Vec<usize> {
            let sub = AffineMap { digits };
            debug_assert_eq!(sub.source_len(), len);
            let mut odo = Odometer::new(&sub);
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                out.push(odo.offset());
                odo.advance();
            }
            out
        };
        Ok((walk(row_digits, rows), walk(col_digits, cols)))
    }
}

/// Routes one source digit of `f` through `g`'s radix decomposition (see
/// [`AffineMap::then`]): finds the destination digit whose place value
/// divides the stride, splits at radix boundaries as needed (upper part
/// first, preserving slowest-first digit order), and records per-digit
/// range consumption in `used` for the carry audit.
fn route_digit(
    d: Digit,
    g_digits: &[Digit],
    places: &[usize],
    out: &mut Vec<Digit>,
    used: &mut [usize],
) -> Result<()> {
    if d.extent <= 1 {
        out.push(Digit {
            extent: d.extent.max(1),
            stride: 0,
        });
        return Ok(());
    }
    // Find the g digit this stride addresses: places[j] | stride with a
    // multiplier below the radix.
    let Some(j) = (0..g_digits.len()).find(|&j| {
        d.stride.is_multiple_of(places[j])
            && (d.stride / places[j]) < g_digits[j].extent
            && d.stride >= places[j]
    }) else {
        return Err(invalid(format!(
            "then: no destination digit admits stride {}",
            d.stride
        )));
    };
    let c = d.stride / places[j];
    if c == 0 {
        return Err(invalid(format!(
            "then: zero stride on extent-{} digit",
            d.extent
        )));
    }
    if (d.extent - 1) * c < g_digits[j].extent {
        used[j] += (d.extent - 1) * c;
        out.push(Digit {
            extent: d.extent,
            stride: c * g_digits[j].stride,
        });
        return Ok(());
    }
    // The digit's range overflows g digit j: split. The low `e_lo` values
    // stay within digit j (requires c | extent_j so the boundary aligns),
    // the upper part advances at the next coarser place.
    let e_lo = g_digits[j].extent / c;
    if !g_digits[j].extent.is_multiple_of(c) || !d.extent.is_multiple_of(e_lo) {
        return Err(invalid(format!(
            "then: digit of extent {} (stride {}) cannot split at radix {} cleanly",
            d.extent, d.stride, g_digits[j].extent
        )));
    }
    route_digit(
        Digit {
            extent: d.extent / e_lo,
            stride: d.stride * e_lo,
        },
        g_digits,
        places,
        out,
        used,
    )?;
    used[j] += (e_lo - 1) * c;
    out.push(Digit {
        extent: e_lo,
        stride: c * g_digits[j].stride,
    });
    Ok(())
}

/// Incremental evaluator of an [`AffineMap`]: visits destination offsets
/// of source indices `0, 1, 2, …` with increment-and-wrap digit updates —
/// no per-element division (the property the fused write epilogues and
/// table builders rely on; verified against [`AffineMap::apply`] by the
/// test suite).
#[derive(Debug, Clone)]
pub struct Odometer<'a> {
    map: &'a AffineMap,
    vals: Vec<usize>,
    offset: usize,
}

impl<'a> Odometer<'a> {
    /// Starts at source index 0.
    #[must_use]
    pub fn new(map: &'a AffineMap) -> Self {
        Odometer {
            map,
            vals: vec![0; map.digits.len()],
            offset: 0,
        }
    }

    /// Destination offset of the current source index.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Advances to the next source index (wrapping to 0 after the last).
    pub fn advance(&mut self) {
        for (v, d) in self.vals.iter_mut().zip(&self.map.digits).rev() {
            *v += 1;
            if *v < d.extent {
                self.offset += d.stride;
                return;
            }
            *v = 0;
            self.offset -= (d.extent - 1) * d.stride;
        }
    }
}

/// A provably-minimal contiguous block-copy plan, lowered from an affine
/// map: destination block `i` (of `run` consecutive logical elements) is
/// copied from source offset `src_starts[i]`.
///
/// The plan is built from the map's **inverse** (so the destination is
/// walked in order — unit-stride writes) after [`AffineMap::simplified`]
/// merges every mergeable digit; the trailing stride-1 digit of that
/// simplified inverse is then the *longest possible* contiguous run, which
/// is what makes the plan minimal in block count. For batched buffers
/// (logical element = `b`-wide sample block) multiply offsets by `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyPlan {
    /// Logical elements per contiguous block.
    pub run: usize,
    /// Source offset (in logical elements) of each destination block, in
    /// destination order.
    pub src_starts: Vec<usize>,
}

impl CopyPlan {
    /// Lowers a source→destination affine bijection into a copy plan.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the map is not a
    /// bijection.
    pub fn from_map(map: &AffineMap) -> Result<Self> {
        let inv = map.inverse()?.simplified();
        let mut digits = inv.digits.clone();
        let run = match digits.last() {
            Some(d) if d.stride == 1 => {
                let e = d.extent;
                digits.pop();
                e
            }
            _ => 1,
        };
        let heads = AffineMap { digits };
        let blocks = heads.source_len();
        let mut odo = Odometer::new(&heads);
        let mut src_starts = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            src_starts.push(odo.offset());
            odo.advance();
        }
        Ok(CopyPlan { run, src_starts })
    }

    /// Total logical elements moved.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run * self.src_starts.len()
    }

    /// True when the plan moves nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes the plan on batched buffers: destination block `i` (a
    /// `run·b` contiguous span) is copied from `src[src_starts[i]·b..]`.
    /// Allocation-free; `dst` beyond `len()·b` is untouched.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the buffers are too short.
    pub fn apply_batched<T: Copy>(&self, src: &[T], dst: &mut [T], b: usize) {
        let rb = self.run * b;
        debug_assert!(dst.len() >= self.len() * b);
        if rb == 1 {
            // Single-element blocks (every Table 4 layer at batch 1): a
            // plain gather, not one variable-length copy per element.
            for (d, &s) in dst.iter_mut().zip(&self.src_starts) {
                *d = src[s];
            }
            return;
        }
        for (i, &s) in self.src_starts.iter().enumerate() {
            dst[i * rb..(i + 1) * rb].copy_from_slice(&src[s * b..s * b + rb]);
        }
    }
}

/// The composed affine map of the stage-`h` Transform `V_h → V'_h`
/// (Eqn. 10), `2 ≤ h ≤ d`: a transpose of the stage matrix chained with
/// the split/assemble regrouping, composed symbolically into one map.
/// Index-for-index equal to [`TransformMap::map`] (the proptest suite pins
/// this on every Table 4 stage and on degenerate shapes).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if `h` is out of `2..=d`.
pub fn stage_transform_map(shape: &TtShape, h: usize) -> Result<AffineMap> {
    let t = TransformMap::new(shape, h)?;
    let d = shape.ndim();
    let r = shape.ranks[h - 1];
    let n_prev = shape.col_modes[h - 2];
    debug_assert!(h >= 2 && h <= d);
    // Step 1: transpose the stage matrix (rows_in × cols_in → flat).
    let t1 = AffineMap::transpose(&[t.rows_in, t.cols_in], &[1, 0])?;
    // Step 2: regroup the flat transposed space [n_prev, cols_out, r] by
    // rotating the rank digit ahead of the chunk digit — the Eqn. 10
    // split/assemble collapses to exactly this 3-digit transpose (the
    // proptest suite certifies the claim against the legacy tables).
    let t2 = AffineMap::transpose(&[n_prev, t.cols_out, r], &[0, 2, 1])?;
    t1.then(&t2)
}

/// The affine map of the Eqn. 8 input preparation `x → X'`: a full
/// digit-reversal transpose of the column modes. Index-for-index equal to
/// the legacy scatter table.
#[must_use]
pub fn prepare_map(shape: &TtShape) -> AffineMap {
    let d = shape.ndim();
    let dims: Vec<usize> = shape.col_modes.clone();
    let perm: Vec<usize> = (0..d).rev().collect();
    AffineMap::transpose(&dims, &perm).expect("reversal is a permutation")
}

/// The affine map of the output assembly `V_1 → y`: row digit `i_1` stays
/// slowest, the column digits `i_d … i_2` (fastest-first in `V_1`) reverse
/// into row-major order in `y`. Index-for-index equal to the legacy gather
/// table; `d == 1` degenerates to the identity.
#[must_use]
pub fn assemble_map(shape: &TtShape) -> AffineMap {
    let d = shape.ndim();
    if d == 1 {
        return AffineMap::identity(&[shape.row_modes[0]]);
    }
    // Source digit order of V_1's flat index: i_1 (rows), then columns
    // with i_d slowest … i_2 fastest.
    let mut dims = Vec::with_capacity(d);
    dims.push(shape.row_modes[0]);
    for u in (1..d).rev() {
        dims.push(shape.row_modes[u]);
    }
    // y is row-major [m_1, m_2, …, m_d]: i_1 first, then i_2 (source
    // position d-1), i_3 (d-2), …, i_d (position 1).
    let mut perm = Vec::with_capacity(d);
    perm.push(0);
    for j in (1..d).rev() {
        perm.push(j);
    }
    AffineMap::transpose(&dims, &perm).expect("assembled order is a permutation")
}

/// Lowers the stage-`h` Transform into the separable [`DestMap`] the fused
/// GEMM epilogue consumes: `V_h` element `(p, q)` is written at
/// `row[p] + col[q]` of `V'_h`'s flat storage.
///
/// # Errors
///
/// Propagates map-construction errors; the final [`DestMap::new`]
/// re-verifies the bijection numerically.
pub fn stage_dest_map(shape: &TtShape, h: usize) -> Result<DestMap> {
    let t = TransformMap::new(shape, h)?;
    let map = stage_transform_map(shape, h)?;
    let (rows, cols) = map.offset_tables(t.rows_in, t.cols_in)?;
    DestMap::new(rows, cols)
}

/// Lowers the output assembly into the [`DestMap`] for the final stage's
/// fused write: `V_1` element `(p, q)` lands at `row[p] + col[q]` of `y`.
///
/// # Errors
///
/// Propagates table/bijection errors as [`stage_dest_map`].
pub fn assemble_dest_map(shape: &TtShape) -> Result<DestMap> {
    let m1 = shape.row_modes[0];
    let cols = shape.num_rows() / m1;
    let (r, c) = assemble_map(shape).offset_tables(m1, cols)?;
    DestMap::new(r, c)
}

/// The minimal copy plan of the Eqn. 8 input preparation (the one
/// remaining cold-path move after fusion): destination-ordered contiguous
/// blocks, derived from the composed map's inverse.
///
/// # Errors
///
/// Propagates inversion errors (never for a valid shape).
pub fn prepare_copy_plan(shape: &TtShape) -> Result<CopyPlan> {
    CopyPlan::from_map(&prepare_map(shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{assemble_output_gather, four_step_transform, prepare_input_scatter};
    use tie_tensor::Tensor;

    fn shape(rows: Vec<usize>, cols: Vec<usize>, rank: usize) -> TtShape {
        TtShape::uniform_rank(rows, cols, rank).unwrap()
    }

    #[test]
    fn identity_and_transpose_apply() {
        let id = AffineMap::identity(&[3, 4]);
        for i in 0..12 {
            assert_eq!(id.apply(i), i);
        }
        let t = AffineMap::transpose(&[3, 4], &[1, 0]).unwrap();
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(t.apply(r * 4 + c), c * 3 + r);
            }
        }
        assert!(AffineMap::transpose(&[3, 4], &[0, 0]).is_err());
        assert!(AffineMap::transpose(&[3, 4], &[0]).is_err());
    }

    #[test]
    fn odometer_matches_apply_on_every_index() {
        let maps = [
            AffineMap::identity(&[5]),
            AffineMap::transpose(&[2, 3, 4], &[2, 0, 1]).unwrap(),
            AffineMap::transpose(&[4, 1, 6], &[1, 2, 0]).unwrap(),
        ];
        for map in &maps {
            let mut odo = Odometer::new(map);
            for i in 0..map.source_len() {
                assert_eq!(odo.offset(), map.apply(i), "index {i}");
                odo.advance();
            }
            // Wraps back to the start.
            assert_eq!(odo.offset(), map.apply(0));
        }
    }

    #[test]
    fn composition_equals_pointwise_chain() {
        let f = AffineMap::transpose(&[2, 3, 4], &[1, 2, 0]).unwrap();
        let g = AffineMap::transpose(&[3, 4, 2], &[2, 1, 0]).unwrap();
        let fg = f.then(&g).unwrap();
        assert!(fg.is_bijection());
        for i in 0..24 {
            assert_eq!(fg.apply(i), g.apply(f.apply(i)), "index {i}");
        }
        // Mismatched spaces are rejected.
        let h = AffineMap::identity(&[5]);
        assert!(f.then(&h).is_err());
    }

    #[test]
    fn composition_splits_digits_across_radix_boundaries() {
        // f is the identity over a 4x6 space; g regroups it as [2,2,2,3]
        // transposed — composing forces digit splitting in the router.
        let f = AffineMap::transpose(&[4, 6], &[1, 0]).unwrap();
        let g = AffineMap::transpose(&[6, 2, 2], &[1, 0, 2]).unwrap();
        let fg = f.then(&g).unwrap();
        for i in 0..24 {
            assert_eq!(fg.apply(i), g.apply(f.apply(i)), "index {i}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let maps = [
            AffineMap::transpose(&[2, 3, 4], &[2, 0, 1]).unwrap(),
            AffineMap::identity(&[7]),
            AffineMap::transpose(&[5, 1, 2], &[1, 0, 2]).unwrap(),
        ];
        for map in &maps {
            let inv = map.inverse().unwrap();
            for i in 0..map.source_len() {
                assert_eq!(inv.apply(map.apply(i)), i, "index {i}");
            }
        }
    }

    #[test]
    fn simplified_preserves_the_map_and_merges_runs() {
        let id = AffineMap::identity(&[2, 3, 4]);
        let s = id.simplified();
        assert_eq!(s.digits().len(), 1, "row-major identity merges fully");
        for i in 0..24 {
            assert_eq!(s.apply(i), id.apply(i));
        }
    }

    #[test]
    fn stage_map_matches_legacy_transform_on_table4_stages() {
        for sh in [
            shape(vec![4; 6], vec![2, 7, 8, 8, 7, 4], 4),
            shape(vec![4; 6], vec![4; 6], 4),
            shape(vec![4; 4], vec![8, 20, 20, 18], 4),
            shape(vec![4; 4], vec![4, 20, 20, 36], 4),
        ] {
            for h in 2..=sh.ndim() {
                let t = TransformMap::new(&sh, h).unwrap();
                let map = stage_transform_map(&sh, h).unwrap();
                assert_eq!(map.source_len(), t.rows_in * t.cols_in);
                for p in 0..t.rows_in {
                    for q in 0..t.cols_in {
                        let (pp, qq) = t.map(p, q);
                        assert_eq!(
                            map.apply(p * t.cols_in + q),
                            pp * t.cols_out + qq,
                            "h={h} p={p} q={q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stage_map_agrees_with_four_step_reference() {
        let sh = shape(vec![3, 2, 4], vec![2, 3, 2], 2);
        for h in 2..=3 {
            let t = TransformMap::new(&sh, h).unwrap();
            let v = Tensor::<f64>::from_fn(vec![t.rows_in, t.cols_in], |i| {
                (i[0] * t.cols_in + i[1]) as f64
            })
            .unwrap();
            let want = four_step_transform(&v, &sh, h).unwrap();
            let map = stage_transform_map(&sh, h).unwrap();
            let mut got = vec![0.0; t.rows_out * t.cols_out];
            for (i, &x) in v.data().iter().enumerate() {
                got[map.apply(i)] = x;
            }
            assert_eq!(got, want.data(), "h={h}");
        }
    }

    #[test]
    fn prepare_map_matches_legacy_scatter() {
        for sh in [
            shape(vec![4, 4], vec![3, 5], 2),
            shape(vec![2; 3], vec![2, 3, 4], 2),
            shape(vec![6], vec![7], 1),
        ] {
            let scatter = prepare_input_scatter(&sh);
            let map = prepare_map(&sh);
            assert_eq!(map.source_len(), scatter.len());
            for (j, &dst) in scatter.iter().enumerate() {
                assert_eq!(map.apply(j), dst, "j={j}");
            }
        }
    }

    #[test]
    fn assemble_map_matches_legacy_gather() {
        for sh in [
            shape(vec![3, 5], vec![4, 4], 2),
            shape(vec![2, 3, 4], vec![2; 3], 2),
            shape(vec![7], vec![6], 1),
        ] {
            let gather = assemble_output_gather(&sh);
            let map = assemble_map(&sh);
            assert_eq!(map.source_len(), gather.len());
            // gather is dest-indexed: y[i] <- v1[gather[i]]; the map is
            // source-indexed: v1[s] -> y[map(s)].
            for (i, &src) in gather.iter().enumerate() {
                assert_eq!(map.apply(src), i, "i={i}");
            }
        }
    }

    #[test]
    fn copy_plan_is_minimal_and_correct() {
        // d == 1: the reversal is the identity — one maximal run.
        let sh1 = shape(vec![6], vec![8], 1);
        let plan = prepare_copy_plan(&sh1).unwrap();
        assert_eq!(plan.run, 8);
        assert_eq!(plan.src_starts, vec![0]);

        // Generic shape: blocks reproduce the legacy scatter exactly.
        let sh = shape(vec![2; 3], vec![2, 3, 4], 2);
        let plan = prepare_copy_plan(&sh).unwrap();
        let scatter = prepare_input_scatter(&sh);
        let n = scatter.len();
        for b in [1usize, 3] {
            let src: Vec<u32> = (0..n * b).map(|v| v as u32).collect();
            let mut dst = vec![u32::MAX; n * b];
            plan.apply_batched(&src, &mut dst, b);
            for (j, &d) in scatter.iter().enumerate() {
                for c in 0..b {
                    assert_eq!(dst[d * b + c], src[j * b + c], "j={j} c={c} b={b}");
                }
            }
        }
        assert_eq!(plan.len(), n);
    }

    #[test]
    fn dest_maps_cover_degenerate_shapes() {
        // Rank-1, singleton modes, single-stage: every lowering must still
        // produce validated bijections.
        for sh in [
            shape(vec![1, 4], vec![3, 1], 1),
            shape(vec![2, 1, 3], vec![1, 2, 1], 2),
            shape(vec![5], vec![4], 1),
            shape(vec![1], vec![1], 1),
        ] {
            for h in 2..=sh.ndim() {
                let dm = stage_dest_map(&sh, h).unwrap();
                let t = TransformMap::new(&sh, h).unwrap();
                for p in 0..t.rows_in {
                    for q in 0..t.cols_in {
                        let (pp, qq) = t.map(p, q);
                        assert_eq!(dm.offset(p, q), pp * t.cols_out + qq);
                    }
                }
            }
            let am = assemble_dest_map(&sh).unwrap();
            assert_eq!(am.rows() * am.cols(), sh.num_rows());
        }
    }
}
