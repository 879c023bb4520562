//! Composable Tile/Stage/Global GEMM hierarchy with fused epilogues.
//!
//! TIE's PE array performs each stage GEMM and the following
//! requantization/activation in **one pass** over the output. This module
//! restructures the repo's formerly hand-specialized GEMM bodies (blocked
//! float, mapped float, quantized, Gram) as instantiations of one skeleton,
//! in the style of kubecl's `StageMatmul` (see DESIGN.md §16):
//!
//! * **Tile** — [`TileKernel`]: picks a register-tile instantiation
//!   (`TJ` output columns × `R` rows) and the SIMD ISA it compiles for.
//!   [`PortableTile`] is the pinned baseline; [`FloatAuto`] / [`IntAuto`]
//!   dispatch at runtime to AVX-512 / AVX(2) instantiations of the *same*
//!   generic body, so every tier computes identical bits.
//! * **Stage** — [`StageMatmul`]: one row-span's worth of work. The
//!   streaming stage ([`stream_gemm`]) accumulates full-`k` register tiles
//!   through a [`Datapath`] (pluggable accumulator: float, or the
//!   saturating fixed-point path in `tie-quant`) and retires each output
//!   through an [`Epilogue`] at the wide accumulator, *before* narrowing —
//!   bias add and ReLU cost zero extra output passes. The k-blocked stage
//!   ([`kblocked_gemm`]) keeps the cache-blocked float body for large
//!   pre-zeroed outputs (no epilogue there: its partial sums round-trip
//!   through `C`, and an epilogue must only ever see *final* sums).
//! * **Global** — [`global_matmul`]: partitions output rows over the
//!   persistent pool and merges per-span statistics through the stage's
//!   sink.
//!
//! # Bit-consistency contract
//!
//! Every output element accumulates its products in ascending `k` with
//! plain multiply-then-add (never FMA-contracted); tiles, stages and the
//! row partition only reorder *independent* outputs. Epilogues apply once,
//! to the finished accumulator of each output. Hence every (kernel ×
//! epilogue × destination × thread count) combination is bit-identical to
//! naive-GEMM-then-epilogue — property-tested in `tests/epilogue_differential.rs`.

use crate::{parallel, Scalar, Tensor};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rows of `A`/`C` processed per cache block by the k-blocked stage
/// (reuses one `B` panel across a slab of output rows).
pub(crate) const BLOCK_M: usize = 128;
/// Depth (inner dimension) per cache block. Blocks are walked in ascending
/// order so each output element accumulates its products in the same `k`
/// order as the naive kernels.
pub(crate) const BLOCK_K: usize = 128;
/// Columns of `B`/`C` per cache block; `BLOCK_K × BLOCK_N` elements of `B`
/// (256 KiB at `f64`) stay L2-resident while a row slab streams past.
pub(crate) const BLOCK_N: usize = 256;
/// Float register-tile width on the portable (128-bit SIMD) path: 8 `f64`
/// = 4 `xmm` accumulators per row.
pub(crate) const TILE_J: usize = 8;
/// Float register-tile width on the runtime-detected AVX path: 16 `f64` =
/// 4 `ymm` accumulators per row. Width only changes how many independent
/// output columns are grouped per pass — accumulation order per output is
/// unchanged, so all tiers are bit-identical.
pub(crate) const TILE_J_WIDE: usize = 16;
/// Float register-tile width on the runtime-detected AVX-512 path: 32
/// `f64` = 4 `zmm` accumulators per row.
pub(crate) const TILE_J_512: usize = 32;
/// Integer (i32-lane) tile width on the portable path: 8 lanes = 2 `xmm`.
pub(crate) const QTILE_J: usize = 8;
/// Integer tile width on the runtime-detected AVX2 path: 16 i32 lanes.
pub(crate) const QTILE_J_WIDE: usize = 16;
/// Integer tile width on the runtime-detected AVX-512 path: 32 i32 lanes.
pub(crate) const QTILE_J_512: usize = 32;

/// Activation applied by a fused epilogue (and recorded in inference
/// plans). `Identity` keeps the raw GEMM output; `Relu` clamps negatives
/// to zero at the accumulator, exactly like `tie-nn`'s `Relu` layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation — the epilogue passes accumulators through.
    #[default]
    Identity,
    /// Rectified linear unit: `max(x, 0)`, fused into the GEMM store.
    Relu,
}

// ---------------------------------------------------------------------------
// Epilogue: per-output transform applied at the wide accumulator.
// ---------------------------------------------------------------------------

/// Per-output transform fused into the GEMM store loop.
///
/// `apply` receives the finished accumulator value `v` (at the datapath's
/// *wide* epilogue type — `f32`/`f64` for the float path, the clipped
/// `i32` for the quantized path, before narrowing to `i16`) and the
/// **logical destination element** `e = row_base(i) + col_off(q)` — for
/// the engines' final assemble maps this is exactly the output-neuron
/// index, which is what per-element bias needs.
///
/// The contract: `apply` must be pure (no interior mutability observable
/// across calls), because outputs retire in whatever order the row
/// partition and register tiling produce.
pub trait Epilogue<V: Copy>: Sync {
    /// Transforms one finished accumulator value.
    fn apply(&self, v: V, e: usize) -> V;
}

/// Pass-through epilogue: the plain GEMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl<V: Copy> Epilogue<V> for Identity {
    #[inline(always)]
    fn apply(&self, v: V, _e: usize) -> V {
        v
    }
}

/// Fused ReLU for the float datapath: `if v > 0 { v } else { 0 }` — the
/// exact comparison `tie-nn`'s `Relu` layer uses, so a fused forward is
/// bit-identical to GEMM-then-activation (and `-0.0` maps to `+0.0`, like
/// the layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl<T: Scalar> Epilogue<T> for Relu {
    #[inline(always)]
    fn apply(&self, v: T, _e: usize) -> T {
        if v > T::ZERO {
            v
        } else {
            T::ZERO
        }
    }
}

/// Fused per-element bias add: `v + bias[e]`.
#[derive(Debug, Clone, Copy)]
pub struct Bias<'a, T: Scalar> {
    bias: &'a [T],
}

impl<'a, T: Scalar> Bias<'a, T> {
    /// Wraps a bias table indexed by logical destination element.
    #[must_use]
    pub fn new(bias: &'a [T]) -> Self {
        Bias { bias }
    }
}

impl<T: Scalar> Epilogue<T> for Bias<'_, T> {
    #[inline(always)]
    fn apply(&self, v: T, e: usize) -> T {
        v + self.bias[e]
    }
}

/// Fused bias-then-ReLU: `max(v + bias[e], 0)` with the same comparison
/// as [`Relu`].
#[derive(Debug, Clone, Copy)]
pub struct BiasRelu<'a, T: Scalar> {
    bias: &'a [T],
}

impl<'a, T: Scalar> BiasRelu<'a, T> {
    /// Wraps a bias table indexed by logical destination element.
    #[must_use]
    pub fn new(bias: &'a [T]) -> Self {
        BiasRelu { bias }
    }
}

impl<T: Scalar> Epilogue<T> for BiasRelu<'_, T> {
    #[inline(always)]
    fn apply(&self, v: T, e: usize) -> T {
        let s = v + self.bias[e];
        if s > T::ZERO {
            s
        } else {
            T::ZERO
        }
    }
}

/// Quantized pass-through epilogue: requantization only (the datapath has
/// already rounded, shifted and clipped to the `i16` code range by the
/// time the epilogue sees the value).
#[derive(Debug, Clone, Copy, Default)]
pub struct Requant;

impl Epilogue<i32> for Requant {
    #[inline(always)]
    fn apply(&self, v: i32, _e: usize) -> i32 {
        v
    }
}

/// Quantized requantize-then-ReLU: `max(v, 0)` on the **clipped** `i32`
/// code, before narrowing to `i16`. Because the datapath's output clip is
/// monotone and the Q-format is zero-point-free, `max(0)` on the clipped
/// `i32` equals `max(0)` applied to the narrowed `i16` code — so the fused
/// path is bit-identical to requant-then-relu run separately, and the
/// saturation counts (taken *before* the epilogue) are untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequantRelu;

impl Epilogue<i32> for RequantRelu {
    #[inline(always)]
    fn apply(&self, v: i32, _e: usize) -> i32 {
        v.max(0)
    }
}

// ---------------------------------------------------------------------------
// Dest: separable destination of the streaming store.
// ---------------------------------------------------------------------------

/// Separable destination of the streaming stage's scatter store.
///
/// Logical output element `(i, q)` of an `rows() × cols()` product lands
/// at element offset `row_base(i) + col_off(q)`; with a batch width
/// `bsz`, GEMM column `q·bsz + cb` lands at
/// `(row_base(i) + col_off(q))·bsz + cb` — the batch-innermost layout the
/// compact engine uses.
///
/// # Safety
///
/// Implementors must guarantee `(i, q) ↦ row_base(i) + col_off(q)` is a
/// **bijection onto `[0, rows()·cols())`** for `i < rows()`,
/// `q < cols()`. The streaming kernel scatters through raw pointers on
/// that basis: in-bounds because the image is `[0, rows()·cols())`, and
/// race-free because distinct `(i, q)` map to distinct offsets while the
/// global driver partitions by row. Both provided impls hold the
/// invariant by construction ([`RowMajor`] trivially; [`Mapped`] because
/// [`DestMap::new`](crate::linalg::DestMap::new) validates bijectivity).
///
/// The batch-1 block store also relies on the two store-shape facts:
/// [`Dest::row_at`] must be a permutation of `0..rows()`, and
/// [`Dest::col_runs`] must describe `col_off` exactly.
#[allow(unsafe_code)]
pub unsafe trait Dest: Sync {
    /// Number of logical output rows.
    fn rows(&self) -> usize;
    /// Number of logical output columns.
    fn cols(&self) -> usize;
    /// Destination row offset (in elements) of logical row `i`.
    fn row_base(&self, i: usize) -> usize;
    /// Destination column offset (in elements) of logical column `q`.
    fn col_off(&self, q: usize) -> usize;
    /// The logical row the streaming stage computes at position `p` of
    /// its row walk (rows sorted by destination, so that a register
    /// tile's rows can land side by side).
    fn row_at(&self, p: usize) -> usize;
    /// Column-run descriptor `(stride, run)`, `run ≥ 1`: for every `q`
    /// with `q % run != 0`, `col_off(q) = col_off(q - 1) + stride`.
    fn col_runs(&self) -> (usize, usize);
}

/// Plain row-major destination: `(i, q) ↦ i·cols + q`. A streaming GEMM
/// with this destination is bitwise the unmapped kernel, with no per-call
/// offset-table allocation (the zero-alloc steady state depends on that).
#[derive(Debug, Clone, Copy)]
pub struct RowMajor {
    rows: usize,
    cols: usize,
}

impl RowMajor {
    /// Row-major destination for an `rows × cols` logical output.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        RowMajor { rows, cols }
    }
}

// SAFETY: `(i, q) ↦ i·cols + q` is the canonical row-major bijection onto
// `[0, rows·cols)`.
#[allow(unsafe_code)]
unsafe impl Dest for RowMajor {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.rows
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline(always)]
    fn row_base(&self, i: usize) -> usize {
        i * self.cols
    }
    #[inline(always)]
    fn col_off(&self, q: usize) -> usize {
        q
    }
    #[inline(always)]
    fn row_at(&self, p: usize) -> usize {
        p
    }
    #[inline(always)]
    fn col_runs(&self) -> (usize, usize) {
        (1, self.cols.max(1))
    }
}

/// Destination redirected through a validated
/// [`DestMap`](crate::linalg::DestMap) — the fused inter-stage Transform.
#[derive(Debug, Clone, Copy)]
pub struct Mapped<'a> {
    map: &'a crate::linalg::DestMap,
}

impl<'a> Mapped<'a> {
    /// Wraps a validated destination map.
    #[must_use]
    pub fn new(map: &'a crate::linalg::DestMap) -> Self {
        Mapped { map }
    }
}

// SAFETY: `DestMap::new` proves `(i, q) ↦ row[i] + col[q]` is a bijection
// onto `[0, rows·cols)` at construction time, and derives the row order
// (a sorted permutation) and the run descriptor from the same tables.
#[allow(unsafe_code)]
unsafe impl Dest for Mapped<'_> {
    #[inline(always)]
    fn rows(&self) -> usize {
        self.map.rows()
    }
    #[inline(always)]
    fn cols(&self) -> usize {
        self.map.cols()
    }
    #[inline(always)]
    fn row_base(&self, i: usize) -> usize {
        self.map.row_offsets()[i]
    }
    #[inline(always)]
    fn col_off(&self, q: usize) -> usize {
        self.map.col_offsets()[q]
    }
    #[inline(always)]
    fn row_at(&self, p: usize) -> usize {
        self.map.row_order()[p]
    }
    #[inline(always)]
    fn col_runs(&self) -> (usize, usize) {
        self.map.col_runs()
    }
}

// ---------------------------------------------------------------------------
// Datapath: the pluggable accumulator.
// ---------------------------------------------------------------------------

/// The pluggable accumulator of the streaming stage: element types, the
/// per-lane multiply-accumulate step, and how a finished lane retires
/// through the epilogue into the output type (plus saturation-statistics
/// plumbing for the fixed-point path).
///
/// A datapath is the *arithmetic* of a GEMM; the [`TileKernel`] chooses
/// vector width, the [`Dest`] chooses where outputs land, the
/// [`Epilogue`] transforms them. `FloatPath` lives here; the saturating
/// fixed-point `QuantPath` lives in `tie-quant` — adding a dtype is a new
/// `Datapath` impl, not a fourth kernel body.
pub trait Datapath: Copy + Sync {
    /// Input element type of `A` and `B`.
    type In: Copy + Sync;
    /// Output element type written to `C`.
    type Out: Copy + Default;
    /// Per-lane accumulator state.
    type Lane: Copy;
    /// Per-lane sticky saturation flag (`()` for exact paths). Kept in a
    /// separate array from the lanes so the hot loop stays
    /// structure-of-arrays and vectorizes.
    type Sat: Copy;
    /// Value type the epilogue sees (the wide pre-narrowing type).
    type EpiV: Copy;
    /// Per-span statistics accumulated while retiring outputs.
    type Stats: Copy + Default;
    /// Statistics of one retire call (at most one register tile of
    /// lanes), folded into `Stats` by [`Datapath::fold`]. Counting a tile
    /// in `u32` rather than the span's `u64` keeps the counts in full
    /// vector lanes.
    type Tally: Copy + Default;
    /// Shared sink the global driver merges per-span statistics into.
    type Sink: Sync + Default;

    /// Whether the streaming stage accumulates a register tile one row
    /// at a time, re-reading the `B` strip from L1 per row, instead of
    /// all rows per `k` step. LLVM keeps a tile whose lanes carry flags
    /// in registers only a row at a time: with all rows at once it
    /// vectorizes the lane loop over stack arrays, one load and store per
    /// lane and step (seen on the quantized AVX-512 `32 × 4` tile).
    const ROW_AT_A_TIME: bool = false;

    /// A fresh zero lane.
    fn lane_zero(self) -> Self::Lane;
    /// A fresh clear saturation flag.
    fn sat_zero(self) -> Self::Sat;
    /// One multiply-accumulate step: `lane ⊕= a · b`, updating `sat`.
    ///
    /// The step may be optimistic: a datapath whose exact step is costly
    /// (the saturating path clamps after every add) can leave that part
    /// out here, as long as [`Datapath::settled`] can tell from the flags
    /// whether every lane still holds the exact result. The streaming
    /// stage accumulates any tile that is not settled again with
    /// [`Datapath::mac_exact`].
    fn mac(self, lane: &mut Self::Lane, sat: &mut Self::Sat, a: Self::In, b: Self::In);
    /// The exact multiply-accumulate step (with whatever rounding and
    /// clamping the datapath defines). Defaults to [`Datapath::mac`].
    #[inline(always)]
    fn mac_exact(self, lane: &mut Self::Lane, sat: &mut Self::Sat, a: Self::In, b: Self::In) {
        self.mac(lane, sat, a, b);
    }
    /// A kernel of the datapath's own for a whole tile, tried before the
    /// generic loop: it must return the lanes that loop of
    /// [`Datapath::mac`] steps would (rows `arows[r]`, each `k` long,
    /// lane `t` column `jt + t` of the `k × n` matrix `b`), with flags
    /// that [`Datapath::settled`] and [`Datapath::finish`] read as they
    /// would read that loop's, or `None` to leave the tile to that loop.
    /// Defaults to `None`.
    #[inline(always)]
    fn tile_kernel<const TJ: usize, const R: usize>(
        self,
        _arows: [&[Self::In]; R],
        _b: &[Self::In],
        _n: usize,
        _jt: usize,
    ) -> Option<Tile<Self, TJ, R>> {
        None
    }
    /// Merges two lanes' flags, for [`Datapath::settled`] to read many
    /// lanes at once. Defaults to the first (flags carry nothing).
    #[inline(always)]
    fn sat_merge(self, a: Self::Sat, _b: Self::Sat) -> Self::Sat {
        a
    }
    /// Whether the lanes whose merged flags are `sat`, accumulated by
    /// [`Datapath::mac`], hold exactly what [`Datapath::mac_exact`] would
    /// have produced, with flags that [`Datapath::finish`] reads as it
    /// would read that step's. Defaults to `true` (`mac` is exact).
    #[inline(always)]
    fn settled(self, _sat: Self::Sat) -> bool {
        true
    }
    /// Retires one finished lane: folds `sat` into `tally`, applies the
    /// datapath's narrowing pipeline and the epilogue (at the wide type),
    /// and produces the output element for destination element `e`.
    fn finish<E: Epilogue<Self::EpiV>>(
        self,
        lane: Self::Lane,
        sat: Self::Sat,
        e: usize,
        epi: &E,
        tally: &mut Self::Tally,
    ) -> Self::Out;
    /// Folds one retire call's tally into the span's statistics.
    fn fold(stats: &mut Self::Stats, tally: Self::Tally);
    /// Merges one span's statistics into the shared sink.
    fn stats_add(sink: &Self::Sink, stats: Self::Stats);
    /// Extracts the final statistics from the sink.
    fn stats_take(sink: Self::Sink) -> Self::Stats;
}

/// A register tile of a [`Datapath`]: `R` rows of `TJ` lanes, and the
/// lanes' flags.
pub type Tile<P, const TJ: usize, const R: usize> = (
    [[<P as Datapath>::Lane; TJ]; R],
    [[<P as Datapath>::Sat; TJ]; R],
);

/// Exact float datapath: plain multiply-then-add (never FMA-contracted),
/// no saturation, no statistics.
#[derive(Debug)]
pub struct FloatPath<T: Scalar>(PhantomData<T>);

impl<T: Scalar> FloatPath<T> {
    /// The float datapath (stateless).
    #[must_use]
    pub fn new() -> Self {
        FloatPath(PhantomData)
    }
}

impl<T: Scalar> Default for FloatPath<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Clone for FloatPath<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Scalar> Copy for FloatPath<T> {}

impl<T: Scalar> Datapath for FloatPath<T> {
    type In = T;
    type Out = T;
    type Lane = T;
    type Sat = ();
    type EpiV = T;
    type Stats = ();
    type Tally = ();
    type Sink = ();

    #[inline(always)]
    fn lane_zero(self) -> T {
        T::ZERO
    }
    #[inline(always)]
    fn sat_zero(self) {}
    #[inline(always)]
    fn mac(self, lane: &mut T, _sat: &mut (), a: T, b: T) {
        *lane += a * b;
    }
    #[inline(always)]
    fn finish<E: Epilogue<T>>(self, lane: T, _sat: (), e: usize, epi: &E, _tally: &mut ()) -> T {
        epi.apply(lane, e)
    }
    #[inline(always)]
    fn fold(_stats: &mut (), _tally: ()) {}
    #[inline(always)]
    fn stats_add(_sink: &(), _stats: ()) {}
    #[inline(always)]
    fn stats_take(_sink: ()) {}
}

/// Shared atomic sink for `(accumulator, output)` saturation counters —
/// the quantized datapath's `Sink`. Exposed so `tie-quant` can name it
/// without its own atomics plumbing.
#[derive(Debug, Default)]
pub struct SatSink {
    /// Mid-accumulation (24-bit) clamp events.
    pub acc: AtomicU64,
    /// Output-narrowing clip events.
    pub out: AtomicU64,
}

impl SatSink {
    /// Adds one span's `(acc, out)` counts. Relaxed ordering suffices: the
    /// pool's dispatch join orders all worker writes before the read.
    #[inline]
    pub fn add(&self, acc: u64, out: u64) {
        self.acc.fetch_add(acc, Ordering::Relaxed);
        self.out.fetch_add(out, Ordering::Relaxed);
    }

    /// Consumes the sink, returning `(acc, out)` totals.
    #[inline]
    #[must_use]
    pub fn take(self) -> (u64, u64) {
        (self.acc.into_inner(), self.out.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Tile: register-tile instantiation choice + SIMD multiversioning.
// ---------------------------------------------------------------------------

/// A unit of work that can run at any register-tile instantiation. The
/// tile kernel picks the `TJ` (output columns per tile) and `R` (rows per
/// tile) constants and the ISA the body is compiled for; the job supplies
/// the loop nest. Implementations of `run` must be `#[inline(always)]`
/// so the body inlines *into* the `#[target_feature]` wrapper and LLVM
/// vectorizes it for that ISA.
pub trait TileJob {
    /// Result of the job (per-span statistics, or `()`).
    type Out;
    /// Runs the job at the `TJ × R` register-tile instantiation.
    fn run<const TJ: usize, const R: usize>(self) -> Self::Out;
}

/// Chooses the register-tile instantiation (and ISA) a [`TileJob`] runs
/// at. All kernels execute the same generic body in the same arithmetic
/// order — wider tiles only group more independent output columns per
/// pass — so every kernel is bit-identical.
pub trait TileKernel: Copy + Sync {
    /// Runs `job` at this kernel's tile instantiation.
    fn run<J: TileJob>(self, job: J) -> J::Out;
}

/// Pinned portable kernel: always runs the `TJ × R` instantiation with no
/// runtime dispatch. `PortableTile::<8, 2>` (float) and
/// `PortableTile::<8, 1>` (quant) are the reference tiers the
/// differential suites pin against the auto-dispatched kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortableTile<const TJ: usize, const R: usize>;

impl<const TJ: usize, const R: usize> TileKernel for PortableTile<TJ, R> {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        job.run::<TJ, R>()
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn tile_run_avx512<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512bw")]
unsafe fn tile_run_avx512bw<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx")]
unsafe fn tile_run_avx<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn tile_run_avx2<J: TileJob, const TJ: usize, const R: usize>(job: J) -> J::Out {
    job.run::<TJ, R>()
}

/// Runtime-dispatched float kernel: AVX-512 (`32 × 4` tile) → AVX
/// (`16 × 2`) → portable (`8 × 2`), mirroring the historical
/// `gemm_nn_block` tiering so the refactor is bitwise invisible.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloatAuto;

impl TileKernel for FloatAuto {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` support was just detected on this CPU;
                // the callee is ordinary safe slice code whose only
                // `unsafe` obligation is target-feature availability.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx512::<J, TILE_J_512, 4>(job) };
            }
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: as above, for `avx`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx::<J, TILE_J_WIDE, 2>(job) };
            }
        }
        job.run::<TILE_J, 2>()
    }
}

/// Runtime-dispatched integer kernel: AVX-512BW (`32 × 4` tile) → AVX2
/// (`16 × 2`) → portable (`8 × 1`). Four-row tiles let the stride-4 stage
/// maps retire as blocks at batch 1 and give the quantized datapath's
/// AVX-512BW tile kernel four rows to share each `B` row across; the
/// generic body still accumulates them a row at a time
/// ([`Datapath::ROW_AT_A_TIME`]). The AVX-512 tier is compiled for
/// AVX-512BW, the kernel's own feature set.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntAuto;

impl TileKernel for IntAuto {
    #[inline]
    fn run<J: TileJob>(self, job: J) -> J::Out {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                // SAFETY: `avx512bw` (which implies `avx512f`) support was
                // just detected on this CPU; see `FloatAuto`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx512bw::<J, QTILE_J_512, 4>(job) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: as above, for `avx2`.
                #[allow(unsafe_code)]
                return unsafe { tile_run_avx2::<J, QTILE_J_WIDE, 2>(job) };
            }
        }
        job.run::<QTILE_J, 1>()
    }
}

// ---------------------------------------------------------------------------
// Shared raw-pointer plumbing.
// ---------------------------------------------------------------------------

/// Shareable raw destination pointer for scatter stores and disjoint
/// blocks: spans write bijection-disjoint offsets (streaming stage) or
/// non-overlapping row or column blocks (k-blocked stage), so no two
/// workers touch the same element.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

#[allow(unsafe_code)]
// SAFETY: the pointer is only dereferenced at offsets derived from a
// validated `Dest` bijection or a disjoint row or column partition — no
// two threads ever write the same element, and the buffer outlives the
// dispatch (the caller holds `&mut` across the pool join).
unsafe impl<T> Send for SendPtr<T> {}
#[allow(unsafe_code)]
// SAFETY: as above — shared references to the wrapper only hand out the
// raw pointer; disjointness is guaranteed by the partition.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Stage + Global: row-partitioned drivers.
// ---------------------------------------------------------------------------

/// One matmul stage: a row-partitionable unit of GEMM work plus its
/// statistics plumbing. [`global_matmul`] drives it over the pool.
pub trait StageMatmul: Sync {
    /// Shared sink per-span statistics merge into.
    type Sink: Sync + Default;
    /// Final statistics extracted from the sink.
    type Stats;

    /// Total output rows.
    fn rows(&self) -> usize;
    /// Work estimate (multiply-accumulates) for the spawn threshold.
    fn work(&self) -> usize;
    /// Runs rows `row0 .. row0 + rows` of the stage.
    fn run_span(&self, row0: usize, rows: usize, sink: &Self::Sink);
    /// Extracts final statistics after all spans completed.
    fn take(sink: Self::Sink) -> Self::Stats;
}

/// Global driver: decides the thread count from the stage's work estimate,
/// splits the output rows into near-equal spans, runs every span on the
/// persistent pool, and extracts the merged statistics.
///
/// Row-span boundaries depend only on `(rows, threads)` — identical to the
/// historical slab partition (`parallel::for_each_row_span` and
/// `parallel::for_each_row_slab` produce the same spans) — so outputs are
/// bit-deterministic at any `TIE_THREADS` setting.
pub fn global_matmul<S: StageMatmul>(stage: &S) -> S::Stats {
    let sink = S::Sink::default();
    let m = stage.rows();
    let threads = parallel::threads_for(stage.work(), m);
    parallel::for_each_row_span(m, threads, |row0, rows| {
        stage.run_span(row0, rows, &sink);
    });
    S::take(sink)
}

// ---------------------------------------------------------------------------
// Streaming stage: full-k accumulation, fused epilogue + scatter store.
// ---------------------------------------------------------------------------

/// The streaming stage's per-span job: `R`-row × `TJ`-column register
/// tiles accumulated across the **whole** `k` extent (no k-blocking — the
/// tile never round-trips through `C`, which a scattered destination could
/// not reload cheaply anyway; since the k-blocked kernel's partial-sum
/// store/reload is exact, full-`k` accumulation produces identical bits),
/// then retired through `Datapath::finish` + the epilogue and scattered
/// through the destination.
struct StreamJob<'a, P: Datapath, D, E> {
    path: P,
    a: &'a [P::In],
    b: &'a [P::In],
    c: *mut P::Out,
    row0: usize,
    rows: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &'a D,
    epi: &'a E,
}

/// Retires one row of a register tile: lane `t` is GEMM column `jt + t` of
/// logical row whose destination row offset is `base_row`.
///
/// `UNIT` means `bsz == 1`: each lane is its own logical column
/// `q = jt + t`, and the row retires in two passes. The first computes
/// every lane's destination element and finished value (a contiguous
/// offset read and the datapath's narrowing plus epilogue, with no store
/// through the map, so it vectorizes); the second is a plain store per
/// lane.
///
/// Otherwise lanes are retired in runs that share one logical column
/// `q`: the `bsz` samples of a column are contiguous in the destination,
/// so each run is one destination lookup and a contiguous, vectorizable
/// store.
///
/// # Safety
///
/// `c` must point at a buffer of `dest.rows()·dest.cols()·bsz` elements
/// and `dest` must uphold the [`Dest`] bijection invariant with
/// `base_row = dest.row_base(i)` for a row `i` owned by this span.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)] // kernel-internal ABI: dims + state are positional
#[inline(always)]
unsafe fn finish_store<
    P: Datapath,
    D: Dest,
    E: Epilogue<P::EpiV>,
    const W: usize,
    const UNIT: bool,
>(
    path: P,
    c: *mut P::Out,
    base_row: usize,
    dest: &D,
    bsz: usize,
    jt: usize,
    lanes: &[P::Lane; W],
    sats: &[P::Sat; W],
    epi: &E,
    stats: &mut P::Stats,
) {
    let mut tally = P::Tally::default();
    if UNIT {
        let mut es = [0usize; W];
        for (t, e) in es.iter_mut().enumerate() {
            *e = base_row + dest.col_off(jt + t);
        }
        let mut outs = [P::Out::default(); W];
        for ((out, &e), (&lane, &sat)) in outs.iter_mut().zip(&es).zip(lanes.iter().zip(sats)) {
            *out = path.finish(lane, sat, e, epi, &mut tally);
        }
        for (&e, &v) in es.iter().zip(&outs) {
            // SAFETY: `e < dest.rows()·dest.cols()` by the `Dest`
            // bijection invariant (see trait docs).
            unsafe {
                *c.add(e) = v;
            }
        }
        P::fold(stats, tally);
        return;
    }
    let mut q = jt / bsz;
    let mut cb = jt - q * bsz;
    let mut t = 0;
    while t < lanes.len() {
        let run = (bsz - cb).min(lanes.len() - t);
        let e = base_row + dest.col_off(q);
        // SAFETY: `e·bsz + cb .. e·bsz + cb + run` lies inside the
        // destination buffer by the `Dest` bijection invariant (see trait
        // docs), since `cb + run <= bsz`.
        let out = unsafe { c.add(e * bsz + cb) };
        for (u, (&lane, &sat)) in lanes[t..t + run].iter().zip(&sats[t..t + run]).enumerate() {
            // SAFETY: `u < run`, see above.
            unsafe {
                *out.add(u) = path.finish(lane, sat, e, epi, &mut tally);
            }
        }
        t += run;
        cb = 0;
        q += 1;
    }
    P::fold(stats, tally);
}

/// Retires an `R`-row register tile at `bsz == 1` whose rows land side by
/// side (row offsets `base, base + 1, …, base + R - 1`) through a
/// destination with column stride `R`. Inside one column run, lane `t` of
/// row `u` lands at `base + col_off(q0) + t·R + u`, so the run's lanes
/// fill one contiguous block, lane-major. A strip that straddles a run
/// boundary retires one block per run.
///
/// # Safety
///
/// As [`finish_store`], with `base = dest.row_base(·)` of the tile's first
/// row, the tile's rows adjacent as above, and `dest.col_runs()` equal to
/// `(R, run)`.
#[allow(unsafe_code)]
#[allow(clippy::too_many_arguments)] // kernel-internal ABI: dims + state are positional
#[inline(always)]
unsafe fn finish_block<
    P: Datapath,
    D: Dest,
    E: Epilogue<P::EpiV>,
    const TJ: usize,
    const R: usize,
>(
    path: P,
    c: *mut P::Out,
    base: usize,
    dest: &D,
    run: usize,
    jt: usize,
    lanes: &[[P::Lane; TJ]; R],
    sats: &[[P::Sat; TJ]; R],
    epi: &E,
    stats: &mut P::Stats,
) {
    let mut tally = P::Tally::default();
    let mut t0 = 0;
    while t0 < TJ {
        let q = jt + t0;
        let len = (run - q % run).min(TJ - t0);
        let e0 = base + dest.col_off(q);
        // SAFETY: `e0 .. e0 + len·R` are the destinations of the block's
        // elements by the run descriptor and row adjacency, all inside
        // the buffer by the `Dest` bijection invariant.
        let out = unsafe { c.add(e0) };
        if len == TJ {
            // The whole strip lies in one run: a fixed-size block, which
            // compiles to an in-register transpose and full-width stores.
            let mut block = [[P::Out::default(); R]; TJ];
            for (t, bt) in block.iter_mut().enumerate() {
                for (u, o) in bt.iter_mut().enumerate() {
                    *o = path.finish(lanes[u][t], sats[u][t], e0 + t * R + u, epi, &mut tally);
                }
            }
            // SAFETY: see above; `block` is `TJ·R` elements, lane-major.
            unsafe { std::ptr::copy_nonoverlapping(block.as_ptr().cast(), out, TJ * R) };
        } else {
            for t in 0..len {
                for u in 0..R {
                    let e = e0 + t * R + u;
                    let v = path.finish(lanes[u][t0 + t], sats[u][t0 + t], e, epi, &mut tally);
                    // SAFETY: `t·R + u < len·R`, see above.
                    unsafe { *out.add(t * R + u) = v };
                }
            }
        }
        t0 += len;
    }
    P::fold(stats, tally);
}

/// Accumulates an `R`-row × `TJ`-column register tile over the `k`
/// extent with the datapath's [`Datapath::mac`]: row `r` multiplies the
/// weights `arows[r][..k]`, lane `t` column `jt + t` of `b` (row stride
/// `n`), in ascending `k`. A tile that is not settled is accumulated
/// again by [`accumulate_exact`].
#[inline(always)]
fn accumulate<P: Datapath, const TJ: usize, const R: usize>(
    path: P,
    arows: [&[P::In]; R],
    b: &[P::In],
    k: usize,
    n: usize,
    jt: usize,
) -> Tile<P, TJ, R> {
    // Each row's weights are sliced to `k` once, which hoists the bounds
    // checks out of the `k` loop; the loads stay broadcasts.
    let arows = arows.map(|r| &r[..k]);
    let (lanes, sats) = if let Some(tile) = path.tile_kernel::<TJ, R>(arows, b, n, jt) {
        tile
    } else if P::ROW_AT_A_TIME && R > 1 {
        let mut lanes = [[path.lane_zero(); TJ]; R];
        let mut sats = [[path.sat_zero(); TJ]; R];
        for r in 0..R {
            ([lanes[r]], [sats[r]]) = accumulate::<P, TJ, 1>(path, [arows[r]], b, k, n, jt);
        }
        return (lanes, sats);
    } else {
        let mut lanes = [[path.lane_zero(); TJ]; R];
        let mut sats = [[path.sat_zero(); TJ]; R];
        // Rows of `b` as exact chunks: their length is the loop-invariant
        // `n`, so the strip's bounds check leaves the `k` loop.
        for (kk, brow) in b.chunks_exact(n).take(k).enumerate() {
            let bv = &brow[jt..][..TJ];
            for r in 0..R {
                let ar = arows[r][kk];
                let (tr, sr) = (&mut lanes[r], &mut sats[r]);
                for (t, &bt) in bv.iter().enumerate() {
                    path.mac(&mut tr[t], &mut sr[t], ar, bt);
                }
            }
        }
        (lanes, sats)
    };
    let mut merged = path.sat_zero();
    for row in &sats {
        for &sat in row {
            merged = path.sat_merge(merged, sat);
        }
    }
    if path.settled(merged) {
        (lanes, sats)
    } else {
        accumulate_exact::<P, TJ, R>(path, arows, b, k, n, jt)
    }
}

/// [`accumulate`] with the exact step, for the rare tile whose optimistic
/// lanes are not settled: out of line, so it never shares registers or a
/// loop body with the common path.
#[cold]
#[inline(never)]
fn accumulate_exact<P: Datapath, const TJ: usize, const R: usize>(
    path: P,
    arows: [&[P::In]; R],
    b: &[P::In],
    k: usize,
    n: usize,
    jt: usize,
) -> Tile<P, TJ, R> {
    let mut lanes = [[path.lane_zero(); TJ]; R];
    let mut sats = [[path.sat_zero(); TJ]; R];
    for (kk, brow) in b.chunks_exact(n).take(k).enumerate() {
        let bv = &brow[jt..][..TJ];
        for r in 0..R {
            let ar = arows[r][kk];
            for (t, &bt) in bv.iter().enumerate() {
                path.mac_exact(&mut lanes[r][t], &mut sats[r][t], ar, bt);
            }
        }
    }
    (lanes, sats)
}

impl<P: Datapath, D: Dest, E: Epilogue<P::EpiV>> TileJob for StreamJob<'_, P, D, E> {
    type Out = P::Stats;

    #[inline(always)]
    fn run<const TJ: usize, const R: usize>(self) -> P::Stats {
        // Separate instantiations per retire path, so the batch-1 path's
        // stack arrays never share a loop body with the run path.
        if self.bsz == 1 {
            self.sweep::<TJ, R, true>()
        } else {
            self.sweep::<TJ, R, false>()
        }
    }
}

impl<P: Datapath, D: Dest, E: Epilogue<P::EpiV>> StreamJob<'_, P, D, E> {
    /// The span's loop nest at one register-tile instantiation; `UNIT`
    /// is `bsz == 1` (see `finish_store`).
    #[inline(always)]
    fn sweep<const TJ: usize, const R: usize, const UNIT: bool>(self) -> P::Stats {
        let StreamJob {
            path,
            a,
            b,
            c,
            row0,
            rows,
            k,
            n_mat,
            bsz,
            dest,
            epi,
        } = self;
        let n = n_mat * bsz;
        let mut stats = P::Stats::default();
        // Positions `row0 .. row0 + rows` of the destination's row walk.
        let i1 = row0 + rows;
        // Batch-1 tiles whose rows land side by side retire as blocks
        // when the column stride is `R` (see `finish_block`).
        let (stride, run) = dest.col_runs();
        let block = UNIT && stride == R;
        // Column strips outermost: one `k × TJ` strip of `B` stays
        // L1-resident while every row tile of the span sweeps over it, so
        // `B` streams from memory once per span rather than once per row
        // tile.
        let mut jt = 0;
        while jt + TJ <= n {
            let mut i = row0;
            while i + R <= i1 {
                // The tile's rows in the destination's walk order.
                let rows_at: [usize; R] = std::array::from_fn(|r| dest.row_at(i + r));
                let arows: [&[P::In]; R] = std::array::from_fn(|r| &a[rows_at[r] * k..]);
                // The tile comes back by value: retiring straight from
                // the accumulating arrays would pin them to a stack slot
                // and scalarize the MAC loop (one store per multiply-add).
                let (done, done_sats) = accumulate::<P, TJ, R>(path, arows, b, k, n, jt);
                let base = dest.row_base(rows_at[0]);
                if block && (1..R).all(|r| dest.row_base(rows_at[r]) == base + r) {
                    // SAFETY: the tile's rows belong to this span and land
                    // side by side, and the stride is `R`; see
                    // `finish_block`.
                    #[allow(unsafe_code)]
                    unsafe {
                        finish_block::<P, D, E, TJ, R>(
                            path, c, base, dest, run, jt, &done, &done_sats, epi, &mut stats,
                        );
                    }
                    i += R;
                    continue;
                }
                for r in 0..R {
                    // SAFETY: the tile's rows belong to this span; see
                    // `finish_store`.
                    #[allow(unsafe_code)]
                    unsafe {
                        finish_store::<P, D, E, TJ, UNIT>(
                            path,
                            c,
                            dest.row_base(rows_at[r]),
                            dest,
                            bsz,
                            jt,
                            &done[r],
                            &done_sats[r],
                            epi,
                            &mut stats,
                        );
                    }
                }
                i += R;
            }
            while i < i1 {
                let row = dest.row_at(i);
                let ([done], [done_sat]) =
                    accumulate::<P, TJ, 1>(path, [&a[row * k..]], b, k, n, jt);
                // SAFETY: row `row` belongs to this span; see
                // `finish_store`.
                #[allow(unsafe_code)]
                unsafe {
                    finish_store::<P, D, E, TJ, UNIT>(
                        path,
                        c,
                        dest.row_base(row),
                        dest,
                        bsz,
                        jt,
                        &done,
                        &done_sat,
                        epi,
                        &mut stats,
                    );
                }
                i += 1;
            }
            jt += TJ;
        }
        // Remainder columns (< TJ wide): one scalar lane per output, same
        // ascending-k order.
        for j in jt..n {
            for i in row0..i1 {
                let row = dest.row_at(i);
                let ([[lane]], [[sat]]) = accumulate::<P, 1, 1>(path, [&a[row * k..]], b, k, n, j);
                // SAFETY: single in-range offset; see `finish_store`.
                #[allow(unsafe_code)]
                unsafe {
                    finish_store::<P, D, E, 1, UNIT>(
                        path,
                        c,
                        dest.row_base(row),
                        dest,
                        bsz,
                        j,
                        &[lane],
                        &[sat],
                        epi,
                        &mut stats,
                    );
                }
            }
        }
        stats
    }
}

/// The streaming stage: binds a datapath, tile kernel, operands,
/// destination and epilogue into a [`StageMatmul`].
struct StreamStage<'a, P: Datapath, K, D, E> {
    path: P,
    kern: K,
    a: &'a [P::In],
    b: &'a [P::In],
    c: SendPtr<P::Out>,
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &'a D,
    epi: &'a E,
}

impl<P: Datapath, K: TileKernel, D: Dest, E: Epilogue<P::EpiV>> StageMatmul
    for StreamStage<'_, P, K, D, E>
{
    type Sink = P::Sink;
    type Stats = P::Stats;

    fn rows(&self) -> usize {
        self.m
    }
    fn work(&self) -> usize {
        self.m * self.k * self.n_mat * self.bsz
    }
    fn run_span(&self, row0: usize, rows: usize, sink: &P::Sink) {
        let job = StreamJob {
            path: self.path,
            a: self.a,
            b: self.b,
            c: self.c.get(),
            row0,
            rows,
            k: self.k,
            n_mat: self.n_mat,
            bsz: self.bsz,
            dest: self.dest,
            epi: self.epi,
        };
        let stats = self.kern.run(job);
        P::stats_add(sink, stats);
    }
    fn take(sink: P::Sink) -> P::Stats {
        P::stats_take(sink)
    }
}

/// Streaming GEMM with fused epilogue and destination redirection:
/// `C = epilogue(A · B)` scattered through `dest`.
///
/// `a` is `m × k`, `b` is `k × (n_mat·bsz)` (logical columns
/// batch-inner), and output element `(i, q·bsz + cb)` lands at
/// `(dest.row_base(i) + dest.col_off(q))·bsz + cb` of `c`, transformed by
/// `epi` at the datapath's wide accumulator type. No pre-zero: the
/// destination bijection guarantees every element of `c` is written
/// exactly once. Returns the datapath's statistics (saturation counts for
/// the quantized path, `()` for float).
///
/// This is the kernel-layer entry; shape validation is by `assert!`
/// (the `Result`-returning wrappers live in [`crate::linalg`] and
/// `tie-quant`).
#[allow(clippy::too_many_arguments)] // GEMM kernel ABI: dims + slices are positional by design
pub fn stream_gemm<P: Datapath, K: TileKernel, D: Dest, E: Epilogue<P::EpiV>>(
    path: P,
    kern: K,
    a: &[P::In],
    b: &[P::In],
    c: &mut [P::Out],
    m: usize,
    k: usize,
    n_mat: usize,
    bsz: usize,
    dest: &D,
    epi: &E,
) -> P::Stats {
    assert!(bsz > 0, "stream_gemm: bsz must be positive");
    assert_eq!(dest.rows(), m, "stream_gemm: dest rows != m");
    assert_eq!(dest.cols(), n_mat, "stream_gemm: dest cols != n_mat");
    assert_eq!(a.len(), m * k, "stream_gemm: a length != m*k");
    assert_eq!(b.len(), k * n_mat * bsz, "stream_gemm: b length != k*n*bsz");
    assert_eq!(c.len(), m * n_mat * bsz, "stream_gemm: c length != m*n*bsz");
    let stage = StreamStage {
        path,
        kern,
        a,
        b,
        c: SendPtr(c.as_mut_ptr()),
        m,
        k,
        n_mat,
        bsz,
        dest,
        epi,
    };
    global_matmul(&stage)
}

// ---------------------------------------------------------------------------
// K-blocked stage: the cache-blocked float accumulate kernel.
// ---------------------------------------------------------------------------

/// The k-blocked stage's per-span job: `C = L · B` over rows
/// `0 .. rows` and columns `j_lo .. j_hi` of the span's output, where the
/// left operand `L` is either the span's rows of a row-major `A`
/// (`TN == false`, the plain GEMM) or the span's columns of a row-major
/// `k × lda` matrix `A`, read as rows of `Aᵀ` (`TN`, the `Aᵀ·B` product).
///
/// `C` must hold `+0.0` on entry: the first k-block's tiles start from
/// zero without reading it. Later k-blocks load their tiles from `C`,
/// accumulate across the block, and store back; ascending `k0`/`kk` keeps each output's
/// accumulation order identical to the naive kernels, and the partial-sum
/// store/reload through `C` is bitwise exact. The `Aᵀ·B` form skips
/// `A[k][i] == 0` terms like its reference, `matmul_tn_naive`. **No
/// epilogue**: mid-k partial sums round-trip through `C`, and an epilogue
/// must only ever see final sums — callers wanting fusion use the
/// streaming stage.
struct KBlockJob<'a, T, const TN: bool> {
    rows: usize,
    k: usize,
    /// Row length of `C`.
    n: usize,
    j_lo: usize,
    j_hi: usize,
    a: &'a [T],
    /// Row length of `A` in the `TN` form (`A` is `k × lda`).
    lda: usize,
    /// First column of `A` the span reads in the `TN` form.
    col0: usize,
    b: &'a [T],
    /// Row length of `B`: `n`, or a gathered column block's width.
    ldb: usize,
    /// Row 0 of the span's output.
    c: *mut T,
}

impl<T: Scalar, const TN: bool> TileJob for KBlockJob<'_, T, TN> {
    type Out = ();

    #[inline(always)]
    fn run<const TJ: usize, const R: usize>(self) {
        for i0 in (0..self.rows).step_by(BLOCK_M) {
            let i1 = (i0 + BLOCK_M).min(self.rows);
            for k0 in (0..self.k).step_by(BLOCK_K) {
                let k1 = (k0 + BLOCK_K).min(self.k);
                // Which rows of `Aᵀ` hold a zero term in this k-block.
                let mut zero_rows = [false; BLOCK_M];
                if TN {
                    for kk in k0..k1 {
                        let run = &self.a[kk * self.lda + self.col0 + i0..][..i1 - i0];
                        for (z, &x) in zero_rows.iter_mut().zip(run) {
                            *z |= x == T::ZERO;
                        }
                    }
                }
                let blk = KBlock {
                    i0,
                    k0,
                    k1,
                    zero_rows: &zero_rows,
                };
                for j0 in (self.j_lo..self.j_hi).step_by(BLOCK_N) {
                    let j1 = (j0 + BLOCK_N).min(self.j_hi);
                    // Full-width strips, then 8- and 4-wide ones, then
                    // single columns: each width only groups independent
                    // outputs.
                    let mut jt = self.strips::<TJ, R>(&blk, i1, j0, j1);
                    if TJ > 8 {
                        jt = self.strips::<8, R>(&blk, i1, jt, j1);
                    }
                    jt = self.strips::<4, R>(&blk, i1, jt, j1);
                    self.strips::<1, R>(&blk, i1, jt, j1);
                }
            }
        }
    }
}

/// One cache block of the k-blocked stage: depth `k0 .. k1` over the row
/// block from `i0`, and which of its rows (from `i0`) have a zero `Aᵀ`
/// term in that depth.
struct KBlock<'z> {
    i0: usize,
    k0: usize,
    k1: usize,
    zero_rows: &'z [bool],
}

impl<T: Scalar, const TN: bool> KBlockJob<'_, T, TN> {
    /// Every whole `W`-column strip of columns `jt .. j1` over rows
    /// `blk.i0 .. i1` of the block; returns the first column left.
    ///
    /// The strip loop sits OUTSIDE the row loop so one `BLOCK_K × W`
    /// column strip of `B` stays L1-resident while every row tile of the
    /// block sweeps over it.
    #[inline(always)]
    fn strips<const W: usize, const R: usize>(
        &self,
        blk: &KBlock<'_>,
        i1: usize,
        mut jt: usize,
        j1: usize,
    ) -> usize {
        while jt + W <= j1 {
            // Whether the strip's `B` is finite, read once a tile needs it.
            let mut finite = None;
            let mut i = blk.i0;
            while i + R <= i1 {
                self.tile_at::<W, R>(blk, i, jt, &mut finite);
                i += R;
            }
            while i < i1 {
                self.tile_at::<W, 1>(blk, i, jt, &mut finite);
                i += 1;
            }
            jt += W;
        }
        jt
    }

    /// The tile at rows `i ..`, columns `jb ..` of the block. A skipped
    /// `Aᵀ` term differs from an added one only when it meets a
    /// non-finite `B` (`0·∞` is NaN); otherwise its product is `±0.0`,
    /// which leaves every partial sum unchanged (sums from `+0.0` are never
    /// `-0.0`). So only a tile with a zero `Aᵀ` term over a strip of `B`
    /// that is not all finite takes the skipping path.
    #[inline(always)]
    fn tile_at<const W: usize, const R: usize>(
        &self,
        blk: &KBlock<'_>,
        i: usize,
        jb: usize,
        finite: &mut Option<bool>,
    ) {
        if TN && blk.zero_rows[i - blk.i0..][..R].contains(&true) {
            let (b, ldb) = (self.b, self.ldb);
            let finite = *finite.get_or_insert_with(|| {
                (blk.k0..blk.k1).all(|kk| b[kk * ldb + jb..][..W].iter().all(|v| v.is_finite()))
            });
            if !finite {
                self.tile_skipping::<W, R>(blk, i, jb);
                return;
            }
        }
        self.tile::<W, R, false>(blk, i, jb);
    }

    /// [`KBlockJob::tile`] skipping zero `Aᵀ` terms: out of line, so the
    /// common tile's loop never shares registers with it.
    #[cold]
    #[inline(never)]
    fn tile_skipping<const W: usize, const R: usize>(&self, blk: &KBlock<'_>, i: usize, jb: usize) {
        self.tile::<W, R, true>(blk, i, jb);
    }

    /// One `R`-row × `W`-column register tile at rows `i ..`, columns
    /// `jb ..` of the block: the C tile is loaded into locals once,
    /// accumulated across the block's whole depth (one B-vector load per
    /// `R` output rows, no C traffic) and stored back once. The fixed-size
    /// arrays give the compiler provable lengths, eliding bounds checks
    /// and vectorizing across the tile. With `SKIP`, zero `Aᵀ` terms are
    /// skipped.
    #[inline(always)]
    fn tile<const W: usize, const R: usize, const SKIP: bool>(
        &self,
        blk: &KBlock<'_>,
        i: usize,
        jb: usize,
    ) {
        let (a, b, k, n, ldb) = (self.a, self.b, self.k, self.n, self.ldb);
        let (k0, k1) = (blk.k0, blk.k1);
        // SAFETY: rows `i .. i + R` and columns `jb .. jb + W` lie inside
        // the span's output block, which no other span touches (see
        // `KBlockStage::run_span`).
        #[allow(unsafe_code)]
        let crow =
            |r: usize| unsafe { std::slice::from_raw_parts_mut(self.c.add((i + r) * n + jb), W) };
        // The first k-block starts from the pre-zeroed output without
        // reading it (a fresh output page is then faulted in once, by the
        // store).
        let mut t = [[T::ZERO; W]; R];
        if k0 > 0 {
            for (r, tr) in t.iter_mut().enumerate() {
                tr.copy_from_slice(crow(r));
            }
        }
        // Row `r` of the tile multiplies `L[i + r][kk]`: `R` adjacent
        // elements of row `kk` of the transposed operand, or a row of `A`
        // sliced once per tile. The tile comes back by value, so that it
        // stays in registers.
        let t = if TN {
            let (lda, col0) = (self.lda, self.col0);
            let run = |kk: usize| -> [T; R] {
                let run = &a[kk * lda + col0 + i..][..R];
                std::array::from_fn(|r| run[r])
            };
            mac_tile::<T, W, R, SKIP>(t, b, ldb, jb, k0, k1, run)
        } else {
            let arows: [&[T]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
            mac_tile::<T, W, R, false>(t, b, ldb, jb, k0, k1, |kk| {
                std::array::from_fn(|r| arows[r][kk])
            })
        };
        for (r, tr) in t.iter().enumerate() {
            crow(r).copy_from_slice(tr);
        }
    }
}

/// Accumulates `t[r][x] += L[r][kk]·B[kk][jb + x]` for `kk` in `k0 .. k1`
/// ascending, with `L[·][kk]` from `at(kk)` and `B`'s rows `ldb` apart;
/// with `SKIP`, zero `L` terms add `+0.0`, which leaves every partial sum
/// unchanged (sums from `+0.0` are never `-0.0`).
#[allow(clippy::too_many_arguments)] // kernel-internal: positional like the job
#[inline(always)]
fn mac_tile<T: Scalar, const W: usize, const R: usize, const SKIP: bool>(
    mut t: [[T; W]; R],
    b: &[T],
    ldb: usize,
    jb: usize,
    k0: usize,
    k1: usize,
    at: impl Fn(usize) -> [T; R],
) -> [[T; W]; R] {
    let zeros = [T::ZERO; W];
    for kk in k0..k1 {
        let bv: &[T; W] = (&b[kk * ldb + jb..][..W]).try_into().expect("W lanes");
        let at = at(kk);
        for (tr, &ar) in t.iter_mut().zip(&at) {
            let src = if SKIP && ar == T::ZERO { &zeros } else { bv };
            for (x, &v) in tr.iter_mut().zip(src) {
                *x += ar * v;
            }
        }
    }
    t
}

/// Output columns per partition unit when the k-blocked stage splits
/// columns rather than rows.
const KBLOCK_COL_UNIT: usize = 64;

/// The k-blocked stage: row-major `C = L · B` into a zeroed output,
/// with `L = A` or (`TN`) `L = Aᵀ`.
///
/// Spans are row ranges, unless the product has fewer than 4 rows per
/// thread (the `keep × n` projection of the Gram route has 4): then they
/// are ranges of 64-column units over every row, so that each thread
/// streams its own share of `B` and each span still fills whole register
/// tiles.
struct KBlockStage<'a, T, K, const TN: bool> {
    kern: K,
    a: &'a [T],
    b: &'a [T],
    c: SendPtr<T>,
    m: usize,
    k: usize,
    n: usize,
    by_cols: bool,
}

impl<'a, T: Scalar, K: TileKernel, const TN: bool> KBlockStage<'a, T, K, TN> {
    fn new(kern: K, a: &'a [T], b: &'a [T], c: &mut [T], m: usize, k: usize, n: usize) -> Self {
        KBlockStage {
            kern,
            a,
            b,
            c: SendPtr(c.as_mut_ptr()),
            m,
            k,
            n,
            by_cols: m < 4 * parallel::threads_for(m * k * n, usize::MAX),
        }
    }
}

impl<T: Scalar, K: TileKernel, const TN: bool> StageMatmul for KBlockStage<'_, T, K, TN> {
    type Sink = ();
    type Stats = ();

    fn rows(&self) -> usize {
        if self.by_cols {
            self.n.div_ceil(KBLOCK_COL_UNIT)
        } else {
            self.m
        }
    }
    fn work(&self) -> usize {
        self.m * self.k * self.n
    }
    fn run_span(&self, u0: usize, units: usize, _sink: &()) {
        let (m, k, n) = (self.m, self.k, self.n);
        let (row0, rows, j_lo, j_hi) = if self.by_cols {
            let j_hi = ((u0 + units) * KBLOCK_COL_UNIT).min(n);
            (0, m, u0 * KBLOCK_COL_UNIT, j_hi)
        } else {
            (u0, units, 0, n)
        };
        let (a, col0) = if TN {
            (self.a, row0)
        } else {
            (&self.a[row0 * k..(row0 + rows) * k], 0)
        };
        self.kern.run(KBlockJob::<T, TN> {
            rows,
            k,
            n,
            j_lo,
            j_hi,
            a,
            lda: m,
            col0,
            b: self.b,
            ldb: n,
            // SAFETY: `global_matmul` hands each worker a disjoint span —
            // rows, or columns over every row — so no two spans write the
            // same element; the buffer outlives the dispatch (the caller
            // holds `&mut` across the pool join).
            #[allow(unsafe_code)]
            c: unsafe { self.c.get().add(row0 * n) },
        });
    }
    fn take(_sink: ()) {}
}

/// Cache/k-blocked `C = A · B` (row-major) into a `c` that the caller has
/// filled with `+0.0` — the [`crate::linalg::gemm_into`] engine. It does
/// not accumulate into `c`: the first k-block never reads it. No epilogue
/// by design: see [`KBlockJob`].
pub fn kblocked_gemm<T: Scalar, K: TileKernel>(
    kern: K,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "kblocked_gemm: a length != m*k");
    assert_eq!(b.len(), k * n, "kblocked_gemm: b length != k*n");
    assert_eq!(c.len(), m * n, "kblocked_gemm: c length != m*n");
    debug_assert!(is_zeroed(c), "kblocked_gemm: c must hold +0.0");
    global_matmul(&KBlockStage::<T, K, false>::new(kern, a, b, c, m, k, n))
}

/// Cache/k-blocked `C = Aᵀ · B` without materializing `Aᵀ` — the
/// [`crate::linalg::matmul_tn`] engine. `a` is `k × m`, `b` is `k × n`,
/// `c` is `m × n` and must hold `+0.0` (it is overwritten, not
/// accumulated into); `A[kk][i] == 0` terms are skipped.
pub fn kblocked_gemm_tn<T: Scalar, K: TileKernel>(
    kern: K,
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "kblocked_gemm_tn: a length != k*m");
    assert_eq!(b.len(), k * n, "kblocked_gemm_tn: b length != k*n");
    assert_eq!(c.len(), m * n, "kblocked_gemm_tn: c length != m*n");
    debug_assert!(is_zeroed(c), "kblocked_gemm_tn: c must hold +0.0");
    global_matmul(&KBlockStage::<T, K, true>::new(kern, a, b, c, m, k, n))
}

/// One k-blocked span, `C = A · B` into a `c` holding `+0.0`, run inline
/// on the calling thread — the slab body `gemm_into_scoped` (the
/// pool-perf baseline) drives under its own `std::thread::scope`
/// partition.
pub(crate) fn kblocked_span<T: Scalar, K: TileKernel>(
    kern: K,
    rows: usize,
    k: usize,
    n: usize,
    a: &[T],
    b: &[T],
    c: &mut [T],
) {
    assert_eq!(a.len(), rows * k, "kblocked_span: a length != rows*k");
    assert_eq!(c.len(), rows * n, "kblocked_span: c length != rows*n");
    debug_assert!(is_zeroed(c), "kblocked_span: c must hold +0.0");
    kern.run(KBlockJob::<T, false> {
        rows,
        k,
        n,
        j_lo: 0,
        j_hi: n,
        a,
        lda: 0,
        col0: 0,
        b,
        ldb: n,
        c: c.as_mut_ptr(),
    });
}

/// Whether every element of `c` is `+0.0`, the k-blocked entries'
/// precondition.
fn is_zeroed<T: Scalar>(c: &[T]) -> bool {
    c.iter().all(|x| x.to_f64().to_bits() == 0)
}

// ---------------------------------------------------------------------------
// Column-block sources: the operand of the Gram route's two products.
// ---------------------------------------------------------------------------

/// A `rows × cols` matrix that the Gram route's kernels (the Gram matrix
/// and the `Vᵀ` projection behind
/// [`truncated_svd_of`](crate::linalg::truncated_svd_of)) read one block
/// of whole columns at a time.
///
/// A dense row-major matrix ([`Dense`]) hands out views of its own rows.
/// A matrix that exists only as a reindexing of other storage — the
/// TT-SVD's first unfolding, a permutation of the weight matrix — gathers
/// each block into the caller's scratch instead, so the whole matrix is
/// never stored. Either way a block holds the same values in the same
/// order, so the kernels compute the same bits.
pub trait ColumnBlocks<T: Scalar>: Sync {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Columns `j0 .. j0 + len` of every row as a row-major view whose
    /// rows start `stride` apart: returns `(view, stride)`, with element
    /// `(r, x)` of the block at `view[r·stride + x]`. A source that does
    /// not store the block gathers it into `scratch`, resized to
    /// `rows · len`, and returns it with stride `len`.
    fn block<'s>(&'s self, j0: usize, len: usize, scratch: &'s mut Vec<T>) -> (&'s [T], usize);

    /// The whole matrix, gathered block by block into a fresh dense
    /// `rows × cols` tensor.
    fn gathered(&self) -> Tensor<T> {
        let (m, n) = (self.rows(), self.cols());
        let mut out = Tensor::zeros(vec![m, n]);
        let data = out.data_mut();
        let mut scratch = Vec::new();
        for j0 in (0..n).step_by(GRAM_BLOCK_K) {
            let len = (n - j0).min(GRAM_BLOCK_K);
            let (view, stride) = self.block(j0, len, &mut scratch);
            for r in 0..m {
                data[r * n + j0..][..len].copy_from_slice(&view[r * stride..][..len]);
            }
        }
        out
    }
}

/// A dense row-major `rows × cols` matrix as a [`ColumnBlocks`] source:
/// the identity case, whose blocks are views of its own rows.
#[derive(Debug, Clone, Copy)]
pub struct Dense<'a, T> {
    a: &'a [T],
    rows: usize,
    cols: usize,
}

impl<'a, T: Scalar> Dense<'a, T> {
    /// Views `a` as `rows × cols`, row-major.
    ///
    /// # Panics
    ///
    /// If `a.len() != rows · cols`.
    pub fn new(a: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(a.len(), rows * cols, "Dense: length != rows*cols");
        Dense { a, rows, cols }
    }
}

impl<T: Scalar> ColumnBlocks<T> for Dense<'_, T> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn block<'s>(&'s self, j0: usize, _len: usize, _scratch: &'s mut Vec<T>) -> (&'s [T], usize) {
        (&self.a[j0.min(self.a.len())..], self.cols)
    }
}

// ---------------------------------------------------------------------------
// Gram stage: the triangular A·Aᵀ kernel.
// ---------------------------------------------------------------------------

/// Column-block size of the Gram route's kernels: each block of every row
/// is read (or gathered) once, packed transposed, and reused from cache by
/// all the block's pairwise products. Every `G[i][j]` sums each block from
/// zero and adds the block sums into `G` in ascending block order. The
/// projection ([`kblocked_gemm_tn_blocks`]) reads its operand in blocks of
/// the same width.
pub(crate) const GRAM_BLOCK_K: usize = 512;

/// Output-column lanes of the Gram stage's register tile.
const GRAM_LANES: usize = 8;

/// Copies columns `k0 .. k0 + len` of rows `0 .. width` of the row-major
/// matrix `a`, whose rows start `n` apart, into `p` transposed
/// (`p[kk·width + j] = a[j][k0 + kk]`), eight rows at a time through an
/// `8 × 8` register block. Rows at and past `jmax` repeat row `jmax - 1`:
/// they fill lanes whose outputs are never stored.
#[inline(always)]
fn pack_transposed<T: Scalar>(
    a: &[T],
    n: usize,
    k0: usize,
    len: usize,
    jmax: usize,
    width: usize,
    p: &mut [T],
) {
    for j in (0..width).step_by(GRAM_LANES) {
        let rows: [&[T]; GRAM_LANES] =
            std::array::from_fn(|t| &a[(j + t).min(jmax - 1) * n + k0..][..len]);
        let mut kk = 0;
        while kk + GRAM_LANES <= len {
            let blk: [[T; GRAM_LANES]; GRAM_LANES] =
                std::array::from_fn(|t| std::array::from_fn(|u| rows[t][kk + u]));
            for u in 0..GRAM_LANES {
                let dst = &mut p[(kk + u) * width + j..][..GRAM_LANES];
                for (t, d) in dst.iter_mut().enumerate() {
                    *d = blk[t][u];
                }
            }
            kk += GRAM_LANES;
        }
        for kk in kk..len {
            for (t, row) in rows.iter().enumerate() {
                p[kk * width + j + t] = row[kk];
            }
        }
    }
}

/// The Gram job: the lower-triangle sums of consecutive 512-column blocks
/// of `A`, from block `b0` on, one `m × m` slot of `sums` per block.
///
/// Each block is taken from the source (gathered into the job's scratch
/// if the source does not store it), its columns are packed transposed,
/// and `R`-row × 8-lane register tiles accumulate `A[i][k]·A[j][k]` over
/// the block in ascending `k` from zero, multiply then add — the same sum
/// the per-pair dot product forms — and store it into the block's slot.
/// Lanes above the diagonal are computed and dropped; rows past `m`
/// repeat row `m - 1`.
struct GramJob<'a, T, S> {
    src: &'a S,
    sums: &'a mut [T],
    m: usize,
    n: usize,
    b0: usize,
}

impl<T: Scalar, S: ColumnBlocks<T>> TileJob for GramJob<'_, T, S> {
    type Out = ();

    #[inline(always)]
    fn run<const TJ: usize, const R: usize>(self) {
        let GramJob {
            src,
            sums,
            m,
            n,
            b0,
        } = self;
        let width = m.div_ceil(GRAM_LANES) * GRAM_LANES;
        let mut packed = vec![T::ZERO; n.min(GRAM_BLOCK_K) * width];
        let mut scratch = Vec::new();
        for (b, slot) in sums.chunks_exact_mut(m * m).enumerate() {
            let k0 = (b0 + b) * GRAM_BLOCK_K;
            let len = (n - k0).min(GRAM_BLOCK_K);
            let (a, lda) = src.block(k0, len, &mut scratch);
            let packed = &mut packed[..len * width];
            pack_transposed(a, lda, 0, len, m, width, packed);
            for i in (0..m).step_by(R) {
                let arows: [&[T]; R] =
                    std::array::from_fn(|r| &a[(i + r).min(m - 1) * lda..][..len]);
                let last = (i + R).min(m) - 1;
                for jt in (0..=last).step_by(GRAM_LANES) {
                    let mut acc = [[T::ZERO; GRAM_LANES]; R];
                    for (kk, prow) in packed.chunks_exact(width).enumerate() {
                        let pv = &prow[jt..][..GRAM_LANES];
                        for (tr, arow) in acc.iter_mut().zip(&arows) {
                            let ar = arow[kk];
                            for (x, &y) in tr.iter_mut().zip(pv) {
                                *x += ar * y;
                            }
                        }
                    }
                    for (r, tr) in acc.iter().enumerate().take(last + 1 - i) {
                        // Lanes `jt ..= i + r` of row `i + r`.
                        let lanes = (i + r + 1).saturating_sub(jt).min(GRAM_LANES);
                        let si = (i + r) * m + jt;
                        slot[si..si + lanes].copy_from_slice(&tr[..lanes]);
                    }
                }
            }
        }
    }
}

/// Lower triangle of the Gram matrix `G += A · Aᵀ` into pre-zeroed `g`
/// (`m × m`, row-major) for the `m × n` source `A`. The caller mirrors the
/// upper triangle (see [`crate::linalg`]'s `gram_nt`).
///
/// The 512-column blocks are split across the pool in rounds, each job
/// summing a run of blocks into slots of its own, and the caller adds the
/// round's block sums into `G` in ascending block order — the order a
/// serial pass adds them — so `A` is read once and every `G[i][j]` is
/// bit-identical at any thread count. A job's run of blocks holds about
/// as many sums as one packed block holds elements.
pub(crate) fn gram_into<T: Scalar, K: TileKernel, S: ColumnBlocks<T>>(
    kern: K,
    src: &S,
    g: &mut [T],
) {
    let (m, n) = (src.rows(), src.cols());
    assert_eq!(g.len(), m * m, "gram_into: g length != m*m");
    if m == 0 {
        return;
    }
    let blocks = n.div_ceil(GRAM_BLOCK_K);
    let threads = parallel::threads_for(m * m * n / 2, blocks);
    let per_job = GRAM_BLOCK_K.div_ceil(m);
    let round = (threads * per_job).min(blocks);
    let mut sums = vec![T::ZERO; round * m * m];
    for b0 in (0..blocks).step_by(round.max(1)) {
        let nb = round.min(blocks - b0);
        let sums = &mut sums[..nb * m * m];
        parallel::for_each_row_slab(sums, nb, m * m, threads, |s0, slab| {
            kern.run(GramJob {
                src,
                sums: slab,
                m,
                n,
                b0: b0 + s0,
            });
        });
        for block in sums.chunks_exact(m * m) {
            for (gv, &x) in g.iter_mut().zip(block) {
                *gv += x;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Projection stage: Aᵀ · (column-block source), for the Gram route's Vᵀ.
// ---------------------------------------------------------------------------

/// `C = Aᵀ · B` with `B` a column-block source, for the wide Gram route's
/// projection `Vᵀ = Wᵀ · A`: spans are runs of 512-column blocks of `B`
/// (and of `C`), and each span takes every block from the source, through
/// its own scratch, and runs the k-blocked `Aᵀ·B` job
/// ([`KBlockJob`] in its `TN` form) on it.
///
/// `k` and `n` are the source's shape, read once: the stores through `c`
/// rely on `n`, so a source cannot move them.
struct BlocksTnStage<'a, T, K, S> {
    kern: K,
    a: &'a [T],
    src: &'a S,
    c: SendPtr<T>,
    m: usize,
    k: usize,
    n: usize,
}

impl<T: Scalar, K: TileKernel, S: ColumnBlocks<T>> StageMatmul for BlocksTnStage<'_, T, K, S> {
    type Sink = ();
    type Stats = ();

    fn rows(&self) -> usize {
        self.n.div_ceil(GRAM_BLOCK_K)
    }
    fn work(&self) -> usize {
        self.m * self.k * self.n
    }
    fn run_span(&self, b0: usize, blocks: usize, _sink: &()) {
        let (m, k, n) = (self.m, self.k, self.n);
        let mut scratch = Vec::new();
        for b in b0..b0 + blocks {
            let j0 = b * GRAM_BLOCK_K;
            let len = (n - j0).min(GRAM_BLOCK_K);
            let (view, ldb) = self.src.block(j0, len, &mut scratch);
            self.kern.run(KBlockJob::<T, true> {
                rows: m,
                k,
                n,
                j_lo: 0,
                j_hi: len,
                a: self.a,
                lda: m,
                col0: 0,
                b: view,
                ldb,
                // SAFETY: `global_matmul` hands each worker a disjoint run
                // of column blocks, and the job writes only columns
                // `j0 .. j0 + len` of `C`'s `m` rows, so no two spans write
                // the same element; the buffer outlives the dispatch (the
                // caller holds `&mut` across the pool join).
                #[allow(unsafe_code)]
                c: unsafe { self.c.get().add(j0) },
            });
        }
    }
    fn take(_sink: ()) {}
}

/// Cache/k-blocked `C = Aᵀ · B` for a column-block source `B` (`k × n`),
/// without materializing `Aᵀ` or `B`: `a` is `k × m`, `c` is `m × n` and
/// must hold `+0.0` (it is overwritten, not accumulated into). Each
/// output sums `A[kk][i]·B[kk][j]` over `kk` ascending from `+0.0`,
/// skipping `A[kk][i] == 0` terms, exactly as [`kblocked_gemm_tn`] does.
pub(crate) fn kblocked_gemm_tn_blocks<T: Scalar, K: TileKernel, S: ColumnBlocks<T>>(
    kern: K,
    a: &[T],
    src: &S,
    c: &mut [T],
    m: usize,
) {
    let (k, n) = (src.rows(), src.cols());
    assert_eq!(a.len(), k * m, "kblocked_gemm_tn_blocks: a length != k*m");
    assert_eq!(c.len(), m * n, "kblocked_gemm_tn_blocks: c length != m*n");
    debug_assert!(is_zeroed(c), "kblocked_gemm_tn_blocks: c must hold +0.0");
    global_matmul(&BlocksTnStage {
        kern,
        a,
        src,
        c: SendPtr(c.as_mut_ptr()),
        m,
        k,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 11) as f64 * scale - 2.0)
            .collect()
    }

    fn naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn stream_rowmajor_identity_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (9, 17, 33), (4, 1, 31)] {
            let a = seq(m * k, 0.5);
            let b = seq(k * n, 0.25);
            let want = naive(&a, &b, m, k, n);
            let mut c = vec![f64::NAN; m * n];
            stream_gemm(
                FloatPath::<f64>::new(),
                FloatAuto,
                &a,
                &b,
                &mut c,
                m,
                k,
                n,
                1,
                &RowMajor::new(m, n),
                &Identity,
            );
            assert_eq!(c, want, "auto kernel {m}x{k}x{n}");
            let mut cp = vec![f64::NAN; m * n];
            stream_gemm(
                FloatPath::<f64>::new(),
                PortableTile::<8, 2>,
                &a,
                &b,
                &mut cp,
                m,
                k,
                n,
                1,
                &RowMajor::new(m, n),
                &Identity,
            );
            assert_eq!(cp, want, "portable kernel {m}x{k}x{n}");
        }
    }

    #[test]
    fn fused_bias_relu_matches_separate_passes() {
        let (m, k, n) = (5, 9, 13);
        let a = seq(m * k, 0.3);
        let b = seq(k * n, -0.2);
        let bias = seq(m * n, 0.1);
        let plain = naive(&a, &b, m, k, n);
        let want: Vec<f64> = plain
            .iter()
            .zip(&bias)
            .map(|(&v, &bb)| {
                let s = v + bb;
                if s > 0.0 {
                    s
                } else {
                    0.0
                }
            })
            .collect();
        let mut c = vec![f64::NAN; m * n];
        stream_gemm(
            FloatPath::<f64>::new(),
            FloatAuto,
            &a,
            &b,
            &mut c,
            m,
            k,
            n,
            1,
            &RowMajor::new(m, n),
            &BiasRelu::new(&bias),
        );
        assert_eq!(
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn kblocked_matches_streaming_bits() {
        let (m, k, n) = (37, 65, 41);
        let a = seq(m * k, 0.7);
        let b = seq(k * n, 0.9);
        let mut c1 = vec![0.0; m * n];
        kblocked_gemm(FloatAuto, &a, &b, &mut c1, m, k, n);
        let mut c2 = vec![f64::NAN; m * n];
        stream_gemm(
            FloatPath::<f64>::new(),
            FloatAuto,
            &a,
            &b,
            &mut c2,
            m,
            k,
            n,
            1,
            &RowMajor::new(m, n),
            &Identity,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c2));
    }

    #[test]
    fn activation_default_is_identity() {
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
