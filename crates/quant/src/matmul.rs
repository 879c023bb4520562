//! Quantized matrix multiplication on the modeled TIE datapath.
//!
//! # Kernel structure and bit-identity
//!
//! Saturation makes the fixed-point datapath non-associative: the 24-bit
//! register clamps *mid-accumulation*, so every output's MAC sequence must
//! stay in ascending `k` for any restructured kernel to reproduce the
//! per-output reference ([`qmatmul_naive`]) bit-for-bit. Since the
//! Tile/Stage/Global refactor the kernel is an instantiation of
//! `tie_tensor::tile`'s streaming stage with the [`QuantPath`] datapath,
//! which keeps that invariant by construction:
//!
//! * outputs are produced in column tiles of `TJ` lanes per row; each lane
//!   is one independent output accumulated over the **full** `k` range in
//!   ascending order (the streaming stage never `k`-blocks — partial
//!   accumulator state can never be merged across blocks without changing
//!   clamp points),
//! * each lane emulates the [`Accumulator`] arithmetic in pure `i32`:
//!   widen the `i16×i16` product, round-shift by `prod_shift`, add, clamp
//!   to the 24-bit range with a sticky saturation flag, and finally
//!   round-shift by `out_shift` into a saturating 16-bit code. All of it
//!   fits `i32` (see the proof on [`QuantPath`]), so the lanes vectorize.
//!
//! Because per-output arithmetic is independent of the tile width, *any*
//! `TJ` produces identical codes and reports — which is what makes the
//! runtime AVX-512/AVX2/portable dispatch (`tie_tensor::tile::IntAuto`,
//! the same idiom as the float GEMMs) bit-safe. Row spans split across the
//! persistent pool exactly like the float kernels; pool stealing moves
//! whole spans, never the MAC order inside one, so results are identical
//! at any `TIE_THREADS` / pool size.
//!
//! The per-output state is two fixed-size stack arrays (`[i32; TJ]` values
//! and lane flags, structure-of-arrays for the vectorizer) living in the
//! pool job frame — steady state performs **zero heap allocation** (the
//! counting-allocator suite pins this).
//!
//! Epilogues ([`Requant`], [`RequantRelu`]) apply at the clipped `i32`
//! code *before* narrowing, after both saturation counters have been
//! taken — so a [`qmatmul_raw_mapped`] call with `Activation::Relu` reports
//! bit-identically to requant-then-relu run separately.

use crate::{Accumulator, QFormat, QTensor};
use tie_tensor::linalg::DestMap;
use tie_tensor::tile::{
    stream_gemm, Activation, Datapath, Dest, Epilogue, IntAuto, Mapped, Requant, RequantRelu,
    RowMajor, SatSink, Tile,
};
use tie_tensor::{Result, TensorError};

/// Saturation diagnostics of one quantized matrix multiply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QMatmulReport {
    /// Outputs whose 24-bit accumulator saturated mid-accumulation.
    pub acc_saturations: u64,
    /// Outputs that saturated during the final 16-bit requantization.
    pub out_saturations: u64,
    /// Total output elements produced.
    pub outputs: u64,
}

impl QMatmulReport {
    /// True when no saturation of any kind occurred.
    pub fn is_clean(&self) -> bool {
        self.acc_saturations == 0 && self.out_saturations == 0
    }

    /// Saturation events (accumulator + requantization) per output
    /// element — 0.0 for an empty report. The same figure the serving
    /// layer tracks as `quant_saturation_rate()`, available per-multiply
    /// so calibration loops can gate on it directly.
    #[must_use]
    pub fn saturation_rate(&self) -> f64 {
        if self.outputs == 0 {
            return 0.0;
        }
        (self.acc_saturations + self.out_saturations) as f64 / self.outputs as f64
    }

    /// Element-wise sum of two reports (stage-wise aggregation).
    #[must_use]
    pub fn merged(&self, other: &QMatmulReport) -> QMatmulReport {
        QMatmulReport {
            acc_saturations: self.acc_saturations + other.acc_saturations,
            out_saturations: self.out_saturations + other.out_saturations,
            outputs: self.outputs + other.outputs,
        }
    }
}

/// Fixed-point alignment of one quantized GEMM, derived from the operand
/// and output formats.
///
/// Raw products sit at `frac_a + frac_b` fraction bits; the accumulator
/// working fraction is `min(frac_a + frac_b, out_frac + 8)` — full product
/// precision when it fits, otherwise 8 guard bits above the output step
/// (the headroom a 24-bit register offers over the 16-bit output). Each
/// product is arithmetically shifted right by `prod_shift` before entering
/// the accumulator, and the final value by `out_shift` on requantization.
#[must_use]
pub fn alignment(a: QFormat, b: QFormat, out: QFormat) -> (u32, u32) {
    let prod_frac = a.frac_bits() + b.frac_bits();
    let acc_frac = prod_frac.min(out.frac_bits() + 8);
    let prod_shift = prod_frac - acc_frac;
    let out_shift = acc_frac.saturating_sub(out.frac_bits());
    (prod_shift, out_shift)
}

/// The saturating fixed-point datapath of the streaming tile stage — one
/// `i32` lane per output, reproducing [`Accumulator::mac`] +
/// [`Accumulator::to_i16`] exactly.
///
/// # Why pure `i32` lanes are exact
///
/// The reference accumulator adds in `i64` before clamping; these lanes
/// add in `i32`, which is only valid because no intermediate can overflow:
///
/// * `prod = a·b` with `|a|,|b| ≤ 2^15` gives `|prod| ≤ 2^30`;
/// * `prod + half` with `half = 2^(prod_shift−1) ≤ 2^29` stays below
///   `2^31` (and `prod_shift > 0` implies `half ≤ 2^(30−8−1)` for any
///   alignment produced by [`alignment`], far smaller);
/// * the running value is always post-clamp, so its biased form (see
///   below) lies in `[0, 2^24)` and `value + shifted` is bounded by
///   `2^24 + 2^30 < 2^31 − 1`;
/// * requantization adds `half ≤ 2^(out_shift−1)` and removes the bias.
///
/// So every `i32` add of the exact step equals the reference's `i64` add,
/// and the subsequent clamp lands identically.
///
/// `x >> 0` is the identity and both halves are 0 then, so the shifts
/// need no branch in the lane loop.
///
/// # Biased lanes, and the clamp left out
///
/// A lane holds the running value plus `2^23`, so the 24-bit range
/// `[-2^23, 2^23)` becomes `[0, 2^24)`: a biased sum is out of range
/// exactly when one of its bits 24–31 is set. The sticky flag ORs in
/// every biased sum *before* the clamp, so it has a bit above 23 set
/// exactly when the clamp fired at least once.
///
/// [`Datapath::mac`] leaves the clamp out. Until a lane first leaves the
/// range, its unclamped and clamped histories are the same values, and
/// that first excursion cannot overflow `i32` (it adds at most `2^30` to
/// a value below `2^24`), so it sets a high bit of the flag. A tile
/// whose flags all stay below `2^24` is therefore exact as accumulated;
/// any other tile is accumulated again by [`Datapath::mac_exact`], which
/// clamps after every add. Saturation is rare in a calibrated engine, so
/// the common step is a multiply, a rounding shift, an add and an OR.
///
/// Epilogues see the post-clip `i32` code (both saturation counters
/// already taken); [`RequantRelu`]'s `max(0)` there equals `max(0)` on
/// the narrowed `i16`.
#[derive(Debug, Clone, Copy)]
pub struct QuantPath {
    prod_shift: u32,
    out_shift: u32,
    prod_half: i32,
    /// The requantization rounding half, less the lane bias.
    out_round: i32,
}

/// Lane bias: maps the accumulator range onto `[0, 2^24)`.
const BIAS: i32 = -Accumulator::MIN;

impl QuantPath {
    /// Datapath for the given [`alignment`] shifts.
    #[must_use]
    pub fn new(prod_shift: u32, out_shift: u32) -> Self {
        QuantPath {
            prod_shift,
            out_shift,
            prod_half: if prod_shift > 0 {
                1i32 << (prod_shift - 1)
            } else {
                0
            },
            out_round: if out_shift > 0 {
                1i32 << (out_shift - 1)
            } else {
                0
            } - BIAS,
        }
    }
}

impl Datapath for QuantPath {
    type In = i16;
    type Out = i16;
    type Lane = i32;
    type Sat = i32;
    type EpiV = i32;
    type Stats = (u64, u64);
    type Tally = (u32, u32);
    type Sink = SatSink;

    const ROW_AT_A_TIME: bool = true;

    #[inline(always)]
    fn lane_zero(self) -> i32 {
        BIAS
    }
    #[inline(always)]
    fn sat_zero(self) -> i32 {
        0
    }
    #[inline(always)]
    fn mac(self, lane: &mut i32, sat: &mut i32, a: i16, b: i16) {
        // Wrapping: after an excursion the tile is accumulated again, so
        // a later overflow here is harmless.
        let sum = lane.wrapping_add((a as i32 * b as i32 + self.prod_half) >> self.prod_shift);
        *sat |= sum;
        *lane = sum;
    }
    #[inline(always)]
    fn mac_exact(self, lane: &mut i32, sat: &mut i32, a: i16, b: i16) {
        let sum = *lane + ((a as i32 * b as i32 + self.prod_half) >> self.prod_shift);
        *sat |= sum;
        *lane = sum.clamp(0, Accumulator::MAX + BIAS);
    }
    #[inline(always)]
    fn tile_kernel<const TJ: usize, const R: usize>(
        self,
        arows: [&[i16]; R],
        b: &[i16],
        n: usize,
        jt: usize,
    ) -> Option<Tile<Self, TJ, R>> {
        #[cfg(target_arch = "x86_64")]
        if TJ == 32
            && R == 4
            && self.prod_half <= i32::from(i16::MAX)
            && is_x86_feature_detected!("avx512bw")
        {
            // SAFETY: `avx512bw` support was just detected on this CPU.
            #[allow(unsafe_code)]
            let (lanes, sats) =
                unsafe { tile_avx512bw(self, std::array::from_fn(|r| arows[r]), b, n, jt) };
            let fit = |t: &[[i32; 32]; 4]| -> [[i32; TJ]; R] {
                std::array::from_fn(|r| std::array::from_fn(|j| t[r][j]))
            };
            return Some((fit(&lanes), fit(&sats)));
        }
        let _ = (arows, b, n, jt);
        None
    }
    #[inline(always)]
    fn sat_merge(self, a: i32, b: i32) -> i32 {
        a | b
    }
    #[inline(always)]
    fn settled(self, sat: i32) -> bool {
        !saturated(sat)
    }
    #[inline(always)]
    fn finish<E: Epilogue<i32>>(
        self,
        lane: i32,
        sat: i32,
        e: usize,
        epi: &E,
        tally: &mut (u32, u32),
    ) -> i16 {
        tally.0 += u32::from(saturated(sat));
        let v = (lane + self.out_round) >> self.out_shift;
        let clipped = v.clamp(i16::MIN as i32, i16::MAX as i32);
        tally.1 += u32::from(clipped != v);
        epi.apply(clipped, e) as i16
    }
    #[inline(always)]
    fn fold(stats: &mut (u64, u64), tally: (u32, u32)) {
        stats.0 += u64::from(tally.0);
        stats.1 += u64::from(tally.1);
    }
    #[inline(always)]
    fn stats_add(sink: &SatSink, stats: (u64, u64)) {
        sink.add(stats.0, stats.1);
    }
    #[inline(always)]
    fn stats_take(sink: SatSink) -> (u64, u64) {
        sink.take()
    }
}

/// [`QuantPath`]'s `32 × 4` tile on AVX-512BW, for `prod_half < 2^15`:
/// the lanes of its [`Datapath::mac`] steps bit for bit, and flags that
/// read the same to [`Datapath::settled`] and [`Datapath::finish`] (each
/// lane carries the OR of its own and its neighbour's sums, so the tile's
/// merged flag is unchanged, and a settled tile's flags are all clear).
///
/// On 512-bit vectors LLVM multiplies sign-extended `i16` lanes with
/// `vpmulld` (two uops each), after widening each row of `B` with a
/// shuffle. Here the 32 codes of a `B` row stay one `i16` vector: masking
/// and shifting its 32-bit words splits it into even and odd codes, each
/// paired with a 1 in the high half. `vpmaddwd` against the weight paired
/// with the rounding half then yields `a·b + half` in one uop. Even and
/// odd lanes stay apart until the end, where one permute per half
/// restores column order; both sums fold into the flag in one ternary
/// OR. Shared by the four rows, the `B` row costs one load and four ALU
/// ops per `k` step.
///
/// # Safety
///
/// The CPU must support AVX-512BW. Every memory access is through
/// bounds-checked slices of `b` (one 32-code strip per row of `b`) and of
/// the 32-lane output rows.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512bw")]
#[inline]
unsafe fn tile_avx512bw(
    path: QuantPath,
    arows: [&[i16]; 4],
    b: &[i16],
    n: usize,
    jt: usize,
) -> ([[i32; 32]; 4], [[i32; 32]; 4]) {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd_epi16,
        _mm512_or_si512, _mm512_permutex2var_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
        _mm512_setzero_si512, _mm512_srav_epi32, _mm512_srli_epi32, _mm512_storeu_si512,
        _mm512_ternarylogic_epi32,
    };
    let shift = _mm512_set1_epi32(path.prod_shift as i32);
    let low = _mm512_set1_epi32(0xFFFF);
    let one_high = _mm512_set1_epi32(0x1_0000);
    // The high half of each weight pair multiplies the 1 beside each code.
    let half_high = (path.prod_half as u32) << 16;
    let mut even = [_mm512_set1_epi32(BIAS); 4];
    let mut odd = even;
    let mut sat = [_mm512_setzero_si512(); 4];
    let [a0, a1, a2, a3] = arows;
    let weights = a0.iter().zip(a1).zip(a2.iter().zip(a3));
    for (((&w0, &w1), (&w2, &w3)), brow) in weights.zip(b.chunks_exact(n)) {
        let bv = &brow[jt..][..32];
        // SAFETY: `bv` is 32 `i16`, one unaligned 512-bit load.
        let bw = unsafe { _mm512_loadu_si512(bv.as_ptr().cast()) };
        let be = _mm512_or_si512(_mm512_and_si512(bw, low), one_high);
        let bo = _mm512_or_si512(_mm512_srli_epi32::<16>(bw), one_high);
        for (r, a) in [w0, w1, w2, w3].into_iter().enumerate() {
            let pair = _mm512_set1_epi32((u32::from(a as u16) | half_high) as i32);
            let step = |acc: __m512i, bx: __m512i| {
                _mm512_add_epi32(acc, _mm512_srav_epi32(_mm512_madd_epi16(bx, pair), shift))
            };
            even[r] = step(even[r], be);
            odd[r] = step(odd[r], bo);
            // `sat | even | odd`.
            sat[r] = _mm512_ternarylogic_epi32::<0xFE>(sat[r], even[r], odd[r]);
        }
    }
    let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    let hi = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
    let interleave = |e: [__m512i; 4], o: [__m512i; 4]| {
        let mut out = [[0i32; 32]; 4];
        for (row, (e, o)) in out.iter_mut().zip(e.into_iter().zip(o)) {
            let (first, second) = row.split_at_mut(16);
            // SAFETY: each half is 16 `i32`, one unaligned 512-bit store.
            unsafe {
                _mm512_storeu_si512(
                    first.as_mut_ptr().cast(),
                    _mm512_permutex2var_epi32(e, lo, o),
                );
                _mm512_storeu_si512(
                    second.as_mut_ptr().cast(),
                    _mm512_permutex2var_epi32(e, hi, o),
                );
            }
        }
        out
    };
    (interleave(even, odd), interleave(sat, sat))
}

/// Whether a lane flag records a biased sum outside `[0, 2^24)`.
#[inline(always)]
fn saturated(sat: i32) -> bool {
    sat as u32 >= 1 << 24
}

/// Drives one quantized streaming GEMM on the dispatched integer tile
/// kernel and folds the saturation totals into a [`QMatmulReport`].
#[allow(clippy::too_many_arguments)]
fn qmm_stream<D: Dest, E: Epilogue<i32>>(
    a: &[i16],
    b: &[i16],
    codes: &mut [i16],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    prod_shift: u32,
    out_shift: u32,
    dest: &D,
    epi: &E,
) -> QMatmulReport {
    let (acc_saturations, out_saturations) = stream_gemm(
        QuantPath::new(prod_shift, out_shift),
        IntAuto,
        a,
        b,
        codes,
        m,
        k,
        n_mat,
        bsz,
        dest,
        epi,
    );
    QMatmulReport {
        acc_saturations,
        out_saturations,
        outputs: (m * n_mat * bsz) as u64,
    }
}

fn check_dims(a: &QTensor, b: &QTensor) -> Result<(usize, usize, usize)> {
    let a_dims = a.shape().dims();
    let b_dims = b.shape().dims();
    if a_dims.len() != 2 {
        return Err(TensorError::NotAMatrix { ndim: a_dims.len() });
    }
    if b_dims.len() != 2 {
        return Err(TensorError::NotAMatrix { ndim: b_dims.len() });
    }
    let (m, ka) = (a_dims[0], a_dims[1]);
    let (kb, n) = (b_dims[0], b_dims[1]);
    if ka != kb {
        return Err(TensorError::MatmulDimMismatch {
            left: (m, ka),
            right: (kb, n),
        });
    }
    Ok((m, ka, n))
}

/// Quantized product `C = A · B` with TIE datapath semantics.
///
/// Inputs carry formats `Qa` and `Qb`; the fixed-point alignment is chosen
/// by [`alignment`]. The kernel is the vectorized tile engine described in
/// the [module docs](self) — bit-identical to [`qmatmul_naive`] in codes
/// and saturation reports at every dispatch tier and pool size.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] / [`TensorError::MatmulDimMismatch`]
/// on shape problems.
///
/// # Example
///
/// ```
/// use tie_quant::{qmatmul, QFormat, QTensor};
/// # fn main() -> Result<(), tie_tensor::TensorError> {
/// let fmt = QFormat::new(0)?; // integer mode
/// let a = QTensor::from_codes(vec![1, 2], vec![3, -2], fmt)?;
/// let b = QTensor::from_codes(vec![2, 1], vec![10, 4], fmt)?;
/// let (c, report) = qmatmul(&a, &b, fmt)?;
/// assert_eq!(c.codes(), &[22]);
/// assert!(report.is_clean());
/// # Ok(())
/// # }
/// ```
pub fn qmatmul(a: &QTensor, b: &QTensor, out_format: QFormat) -> Result<(QTensor, QMatmulReport)> {
    let (m, _, n) = check_dims(a, b)?;
    let mut codes = vec![0i16; m * n];
    let report = qmatmul_into(a, b, out_format, &mut codes)?;
    let out = QTensor::from_codes(vec![m, n], codes, out_format)?;
    Ok((out, report))
}

/// [`qmatmul`] into a caller-owned code buffer: zero heap allocation in
/// steady state (the accumulator scratch is fixed-size stack tiles inside
/// the pool job frame — see the [module docs](self)).
///
/// `codes` must hold exactly `m·n` elements; it is fully overwritten.
///
/// # Errors
///
/// Returns shape errors as [`qmatmul`], plus
/// [`TensorError::ElementCountMismatch`] if `codes` has the wrong length.
pub fn qmatmul_into(
    a: &QTensor,
    b: &QTensor,
    out_format: QFormat,
    codes: &mut [i16],
) -> Result<QMatmulReport> {
    let (m, ka, n) = check_dims(a, b)?;
    if codes.len() != m * n {
        return Err(TensorError::ElementCountMismatch {
            expected: m * n,
            got: codes.len(),
        });
    }
    let (prod_shift, out_shift) = alignment(a.format(), b.format(), out_format);
    debug_assert!(
        a.format().frac_bits() + b.format().frac_bits() >= out_format.frac_bits().min(15),
        "alignment keeps acc_frac >= out_frac whenever products can express it"
    );
    Ok(qmatmul_raw(
        a.codes(),
        b.codes(),
        m,
        ka,
        n,
        prod_shift,
        out_shift,
        codes,
    ))
}

/// Raw-slice quantized GEMM: `codes = requant(A · B)` over `m×k · k×n`
/// code matrices with explicit `prod_shift` / `out_shift` alignment (see
/// [`alignment`]). This is the engine under [`qmatmul`] — the simulator's
/// batched stage path and the quantized serving engine call it directly
/// with their own stage alignment.
///
/// # Panics
///
/// Panics (via `assert!`) on slice-length mismatches — callers own the
/// shape bookkeeping on this path.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn qmatmul_raw(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
    prod_shift: u32,
    out_shift: u32,
    codes: &mut [i16],
) -> QMatmulReport {
    assert_eq!(a.len(), m * k, "A is m×k");
    assert_eq!(b.len(), k * n, "B is k×n");
    assert_eq!(codes.len(), m * n, "C is m×n");
    qmm_stream(
        a,
        b,
        codes,
        m,
        k,
        n,
        1,
        prod_shift,
        out_shift,
        &RowMajor::new(m, n),
        &Requant,
    )
}

/// Quantized stage GEMM with a fused destination-map write and
/// activation epilogue — the one quantized entry the serving engine, the
/// pipelined stage chain and the simulator's batched fast path call, and
/// the quantized twin of `tie_tensor::linalg::gemm_into_mapped`.
///
/// `b` is `k × (n_mat·bsz)` with logical columns batch-inner; output
/// element `(i, q·bsz + cb)` lands at `(map.row[i] + map.col[q])·bsz + cb`
/// of `codes`. The lane arithmetic is [`QuantPath`] verbatim (same MAC
/// order, same clamp points), only the final store is redirected, so codes
/// *and* the saturation report are bit-identical to [`qmatmul_raw`]
/// followed by a permutation, at any tile width and pool size.
///
/// `act` is applied at the clipped `i32` code before narrowing:
/// `Activation::Relu` gives `max(requant(A · B), 0)`, the final TT stage's
/// fused activation; inner stages pass `Activation::Identity`. Both
/// saturation counters are taken before the epilogue runs, so the report
/// does not depend on `act`.
///
/// # Panics
///
/// Panics (via `assert!`) on slice-length / map-extent mismatches.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn qmatmul_raw_mapped(
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    prod_shift: u32,
    out_shift: u32,
    codes: &mut [i16],
    map: &DestMap,
    act: Activation,
) -> QMatmulReport {
    let n = n_mat * bsz;
    assert!(bsz > 0, "batch width must be positive");
    assert_eq!(map.rows(), m, "map rows are m");
    assert_eq!(map.cols(), n_mat, "map cols are n_mat");
    assert_eq!(a.len(), m * k, "A is m×k");
    assert_eq!(b.len(), k * n, "B is k×(n_mat·bsz)");
    assert_eq!(codes.len(), m * n, "C is m×(n_mat·bsz)");
    let dest = Mapped::new(map);
    match act {
        Activation::Identity => qmm_stream(
            a, b, codes, m, k, n_mat, bsz, prod_shift, out_shift, &dest, &Requant,
        ),
        Activation::Relu => qmm_stream(
            a,
            b,
            codes,
            m,
            k,
            n_mat,
            bsz,
            prod_shift,
            out_shift,
            &dest,
            &RequantRelu,
        ),
    }
}

/// Reference kernel with the naive per-output loop, kept for equivalence
/// testing against the vectorized [`qmatmul`] (which must reproduce its
/// codes and saturation reports bit-for-bit).
#[doc(hidden)]
pub fn qmatmul_naive(
    a: &QTensor,
    b: &QTensor,
    out_format: QFormat,
) -> Result<(QTensor, QMatmulReport)> {
    let (m, ka, n) = check_dims(a, b)?;
    let (prod_shift, out_shift) = alignment(a.format(), b.format(), out_format);

    let mut codes = vec![0i16; m * n];
    let mut report = QMatmulReport {
        outputs: (m * n) as u64,
        ..QMatmulReport::default()
    };
    let ad = a.codes();
    let bd = b.codes();
    for i in 0..m {
        for j in 0..n {
            let mut acc = Accumulator::new(prod_shift);
            for k in 0..ka {
                acc.mac(ad[i * ka + k], bd[k * n + j]);
            }
            if acc.saturated() {
                report.acc_saturations += 1;
            }
            let (v, sat) = acc.to_i16(out_shift);
            if sat {
                report.out_saturations += 1;
            }
            codes[i * n + j] = v;
        }
    }
    let out = QTensor::from_codes(vec![m, n], codes, out_format)?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::{init, linalg::matmul, Tensor};

    #[test]
    fn qmatmul_tracks_float_matmul_within_quant_noise() {
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        let a: Tensor<f64> = init::uniform(&mut rng, vec![6, 5], 1.0);
        let b: Tensor<f64> = init::uniform(&mut rng, vec![5, 7], 1.0);
        let fmt = QFormat::new(12).unwrap();
        let qa = QTensor::quantize(&a, fmt);
        let qb = QTensor::quantize(&b, fmt);
        let (qc, report) = qmatmul(&qa, &qb, QFormat::new(11).unwrap()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let want = matmul(&a, &b).unwrap();
        let got = qc.dequantize();
        // Error budget: input rounding (5 terms) + output rounding.
        let tol = 5.0 * fmt.step() + QFormat::new(11).unwrap().step();
        assert!(
            got.approx_eq(&want, tol),
            "max err {} vs tol {tol}",
            got.sub(&want).unwrap().max_abs()
        );
    }

    #[test]
    fn qmatmul_exact_for_integer_values() {
        // With frac_bits = 0 the datapath is plain integer arithmetic.
        let fmt = QFormat::new(0).unwrap();
        let a = QTensor::from_codes(vec![2, 2], vec![1, 2, 3, 4], fmt).unwrap();
        let b = QTensor::from_codes(vec![2, 2], vec![5, 6, 7, 8], fmt).unwrap();
        let (c, report) = qmatmul(&a, &b, fmt).unwrap();
        assert_eq!(c.codes(), &[19, 22, 43, 50]);
        assert!(report.is_clean());
    }

    #[test]
    fn output_saturation_is_reported_not_silent() {
        let fmt = QFormat::new(0).unwrap();
        let a = QTensor::from_codes(vec![1, 1], vec![30000], fmt).unwrap();
        let b = QTensor::from_codes(vec![1, 1], vec![2], fmt).unwrap();
        let (c, report) = qmatmul(&a, &b, fmt).unwrap();
        assert_eq!(c.codes(), &[i16::MAX]);
        assert_eq!(report.out_saturations, 1);
    }

    #[test]
    fn accumulator_saturation_is_reported() {
        let fmt = QFormat::new(0).unwrap();
        // 300 * 30000 * 1... one product = 9e6 > 24-bit max 8388607.
        let a = QTensor::from_codes(vec![1, 1], vec![300], fmt).unwrap();
        let b = QTensor::from_codes(vec![1, 1], vec![30000], fmt).unwrap();
        let (_, report) = qmatmul(&a, &b, fmt).unwrap();
        assert_eq!(report.acc_saturations, 1);
    }

    #[test]
    fn restructured_kernel_bitwise_matches_naive() {
        // Saturation makes the datapath non-associative, so this is the
        // load-bearing check: the vectorized tile kernel must agree with
        // the per-output reference on codes AND reports, including inputs
        // engineered to saturate mid-accumulation, at any thread count.
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        let fmt = QFormat::new(4).unwrap();
        let big: Tensor<f64> = init::uniform(&mut rng, vec![9, 13], 1800.0);
        let spread: Tensor<f64> = init::uniform(&mut rng, vec![13, 11], 1500.0);
        let qa = QTensor::quantize(&big, fmt);
        let qb = QTensor::quantize(&spread, fmt);
        for threads in [1usize, 4] {
            let prev = tie_tensor::parallel::set_num_threads(threads);
            let (c_fast, r_fast) = qmatmul(&qa, &qb, QFormat::new(2).unwrap()).unwrap();
            tie_tensor::parallel::set_num_threads(prev);
            let (c_ref, r_ref) = qmatmul_naive(&qa, &qb, QFormat::new(2).unwrap()).unwrap();
            assert_eq!(c_fast.codes(), c_ref.codes(), "threads={threads}");
            assert_eq!(r_fast, r_ref, "threads={threads}");
        }
        // The engineered inputs should actually exercise saturation.
        let (_, r) = qmatmul_naive(&qa, &qb, QFormat::new(2).unwrap()).unwrap();
        assert!(
            r.acc_saturations > 0 || r.out_saturations > 0,
            "test inputs failed to saturate: {r:?}"
        );
    }

    #[test]
    fn into_variant_matches_allocating_variant() {
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let fmt = QFormat::new(6).unwrap();
        let a: Tensor<f64> = init::uniform(&mut rng, vec![7, 10], 40.0);
        let b: Tensor<f64> = init::uniform(&mut rng, vec![10, 9], 40.0);
        let qa = QTensor::quantize(&a, fmt);
        let qb = QTensor::quantize(&b, fmt);
        let out_fmt = QFormat::new(3).unwrap();
        let (c, r) = qmatmul(&qa, &qb, out_fmt).unwrap();
        let mut codes = vec![0i16; 7 * 9];
        let r2 = qmatmul_into(&qa, &qb, out_fmt, &mut codes).unwrap();
        assert_eq!(c.codes(), &codes[..]);
        assert_eq!(r, r2);
        // Wrong buffer length is rejected, not truncated.
        let mut short = vec![0i16; 7 * 9 - 1];
        assert!(qmatmul_into(&qa, &qb, out_fmt, &mut short).is_err());
    }

    #[test]
    fn mapped_kernel_matches_raw_then_permute_with_saturation() {
        // Saturating inputs: the mapped store and the fused ReLU must not
        // disturb the clamp points, so codes AND reports must match
        // raw-then-permute(-then-relu) exactly, for identity and transposed
        // maps, at several pool sizes.
        let mut rng = ChaCha8Rng::seed_from_u64(93);
        let fmt = QFormat::new(4).unwrap();
        let (m, k, n_mat) = (9usize, 13usize, 11usize);
        let a_f: Tensor<f64> = init::uniform(&mut rng, vec![m, k], 1800.0);
        let qa = QTensor::quantize(&a_f, fmt);
        let (ps, os) = alignment(fmt, fmt, QFormat::new(2).unwrap());
        let tmap = DestMap::new((0..m).collect(), (0..n_mat).map(|q| q * m).collect()).unwrap();
        for bsz in [1usize, 2, 3] {
            let b_f: Tensor<f64> = init::uniform(&mut rng, vec![k, n_mat * bsz], 1500.0);
            let qb = QTensor::quantize(&b_f, fmt);
            let mut plain = vec![0i16; m * n_mat * bsz];
            let r_plain = qmatmul_raw(
                qa.codes(),
                qb.codes(),
                m,
                k,
                n_mat * bsz,
                ps,
                os,
                &mut plain,
            );
            assert!(
                r_plain.acc_saturations > 0 || r_plain.out_saturations > 0,
                "test inputs failed to saturate"
            );
            for (map, name) in [(DestMap::identity(m, n_mat), "id"), (tmap.clone(), "t")] {
                let mut want = vec![0i16; m * n_mat * bsz];
                for i in 0..m {
                    for q in 0..n_mat {
                        for cb in 0..bsz {
                            want[map.offset(i, q) * bsz + cb] =
                                plain[i * n_mat * bsz + q * bsz + cb];
                        }
                    }
                }
                for threads in [1usize, 2, 8] {
                    let prev = tie_tensor::parallel::set_num_threads(threads);
                    let mut got = vec![0i16; m * n_mat * bsz];
                    let r = qmatmul_raw_mapped(
                        qa.codes(),
                        qb.codes(),
                        m,
                        k,
                        n_mat,
                        bsz,
                        ps,
                        os,
                        &mut got,
                        &map,
                        Activation::Identity,
                    );
                    let mut got_relu = vec![0i16; m * n_mat * bsz];
                    let rr = qmatmul_raw_mapped(
                        qa.codes(),
                        qb.codes(),
                        m,
                        k,
                        n_mat,
                        bsz,
                        ps,
                        os,
                        &mut got_relu,
                        &map,
                        Activation::Relu,
                    );
                    tie_tensor::parallel::set_num_threads(prev);
                    assert_eq!(got, want, "{name} bsz={bsz} threads={threads}");
                    assert_eq!(r, r_plain, "{name} bsz={bsz} threads={threads}");
                    let want_relu: Vec<i16> = want.iter().map(|&v| v.max(0)).collect();
                    assert_eq!(got_relu, want_relu, "{name} bsz={bsz}");
                    assert_eq!(rr, r_plain, "{name} bsz={bsz}");
                }
            }
        }
    }

    #[test]
    fn shape_errors() {
        let fmt = QFormat::new(0).unwrap();
        let a = QTensor::from_codes(vec![2, 3], vec![0; 6], fmt).unwrap();
        let b = QTensor::from_codes(vec![2, 3], vec![0; 6], fmt).unwrap();
        assert!(qmatmul(&a, &b, fmt).is_err());
        let v = QTensor::from_codes(vec![6], vec![0; 6], fmt).unwrap();
        assert!(qmatmul(&v, &b, fmt).is_err());
    }
}
