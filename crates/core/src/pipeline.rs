//! Pipeline-parallel execution of one layer's TT stage chain.
//!
//! The compact scheme (PAPER.md, Algorithm 2 / Fig. 9) is already shaped
//! like a hardware pipeline: one core group per TT stage, streaming the
//! `V'_h` intermediate to the next stage. This module realizes that
//! pipeline in software so a *single layer's* latency scales with worker
//! count, not only with batch size:
//!
//! * [`plan_cuts`] — the **cut-point planner**: splits the plan's stage
//!   sequence into `depth` contiguous runs, balancing each run's share of
//!   the cycle model's per-stage MAC and SRAM costs ([`stage_costs`]).
//!   Because every stage's GEMM already scatters its output through the
//!   *composed* inter-stage `AffineMap` (the fused [`DestMap`] write
//!   epilogue spans the cut), a run boundary needs **no permutation
//!   pass**: the producer's last GEMM writes `V'_h` in exactly the layout
//!   the consumer's first GEMM reads.
//! * [`StagePipeline`] — the executor: each pipeline stage owns its run
//!   of TT stages plus a double-buffered ping-pong slab, and streams
//!   micro-batched `V'_h` chunks downstream through bounded SPSC channels
//!   (two recycled slabs per boundary, so the steady state is
//!   allocation-free). Stage drivers are the dedicated persistent threads
//!   of a [`PipelineHost`] — never the shared work-stealing pool, whose
//!   job-adoption and inline-nesting rules could deadlock against a
//!   bounded channel — while the GEMMs *inside* a stage still parallelize
//!   on the shared pool.
//!
//! Chunking the batch never changes numerics: each output column's
//! arithmetic is independent of its neighbors (the batched kernels are
//! bitwise equal to per-column runs — property-tested), and the chunk
//! boundaries only decide *when* a column is computed. A pipelined pass is
//! therefore **bit-identical** to the sequential engine at any cut count,
//! micro-batch size, and pool size.
//!
//! The executor is generic over a [`StageChain`] — [`FloatChain`] wraps
//! the float [`CompactEngine`] here; the quantized chain lives in
//! `tie-sim` next to its engine.

use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use tie_tensor::linalg::{gemm_into_mapped, DestMap};
use tie_tensor::pipeline::PipelineHost;
use tie_tensor::tile::Activation;
use tie_tensor::{Result, Tensor, TensorError};
use tie_tt::inference::OpCount;

use crate::indexmap::{assemble_dest_map, prepare_copy_plan, stage_dest_map, CopyPlan};
use crate::plan::InferencePlan;
use crate::scheme::CompactEngine;

/// Recycled slabs per cut boundary: the double-buffered ping-pong of the
/// paper's working SRAMs — one slab in flight downstream while the
/// producer fills the other.
const CHANNEL_SLOTS: usize = 2;

fn invalid(message: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument {
        message: message.into(),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Cut-point planner
// ---------------------------------------------------------------------------

/// Per-stage cost terms of the cycle model, in scalar units.
///
/// These are the two axes of the paper's Fig. 7 per-stage cycle
/// accounting: the MAC-array term (one multiply-accumulate per scalar
/// product) and the SRAM-traffic term (weight reads plus working-SRAM
/// activation reads and writes). A pipeline stage's latency is governed by
/// whichever sum dominates, so the planner balances their total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCost {
    /// Multiply-accumulates: `StagePlan::muls()` per sample.
    pub macs: u64,
    /// SRAM traffic in scalar elements per sample: weight reads
    /// (`core_elems`) + activation reads (`input_elems`) + activation
    /// writes (`output_elems`).
    pub sram: u64,
}

impl StageCost {
    /// Combined balance weight.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.macs + self.sram
    }
}

/// The per-stage [`StageCost`]s of a plan, in execution order (`h = d`
/// first) — the planner's input, exposed for diagnostics and benches.
#[must_use]
pub fn stage_costs(plan: &InferencePlan) -> Vec<StageCost> {
    plan.stages()
        .iter()
        .map(|s| StageCost {
            macs: s.muls(),
            sram: (s.core_elems() + s.input_elems() + s.output_elems()) as u64,
        })
        .collect()
}

/// One pipeline stage's contiguous run of TT stages: plan indices
/// `[lo, hi)` in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRun {
    /// First plan-stage index of the run (inclusive, execution order).
    pub lo: usize,
    /// One past the last plan-stage index of the run.
    pub hi: usize,
    /// Summed [`StageCost::total`] of the run's stages.
    pub cost: u64,
}

impl StageRun {
    /// Number of TT stages in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True for an empty run (never produced by [`plan_cuts`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }
}

/// The planner's output: contiguous stage runs covering the whole plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutPlan {
    runs: Vec<StageRun>,
}

impl CutPlan {
    /// The pipeline stages, upstream first.
    #[must_use]
    pub fn runs(&self) -> &[StageRun] {
        &self.runs
    }

    /// Number of pipeline stages (`min(requested depth, d)`).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.runs.len()
    }

    /// The interior cut points: plan-stage indices where a new pipeline
    /// stage begins (length `depth() - 1`).
    #[must_use]
    pub fn cuts(&self) -> Vec<usize> {
        self.runs[1..].iter().map(|r| r.lo).collect()
    }

    /// Cost of the most expensive run — the pipeline's steady-state
    /// bottleneck.
    #[must_use]
    pub fn bottleneck_cost(&self) -> u64 {
        self.runs.iter().map(|r| r.cost).max().unwrap_or(0)
    }

    /// Summed cost of all runs (the sequential cost).
    #[must_use]
    pub fn total_cost(&self) -> u64 {
        self.runs.iter().map(|r| r.cost).sum()
    }
}

/// Chooses cut points for `depth` pipeline stages over `plan`'s TT
/// stages: the contiguous partition minimizing the maximum per-run
/// [`StageCost::total`] (the classic linear-partition DP). `depth` is
/// clamped to `[1, d]`. Deterministic: among equal-bottleneck partitions
/// the earliest cut sequence wins.
#[must_use]
pub fn plan_cuts(plan: &InferencePlan, depth: usize) -> CutPlan {
    let costs = stage_costs(plan);
    let n = costs.len();
    let k = depth.clamp(1, n);
    // Prefix sums: run cost of [i, j) is prefix[j] - prefix[i].
    let mut prefix = vec![0u64; n + 1];
    for (i, c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c.total();
    }
    let run_cost = |i: usize, j: usize| prefix[j] - prefix[i];

    // dp[t][j]: minimal achievable bottleneck splitting stages [0, j)
    // into t runs; choice[t][j]: the earliest split point attaining it.
    let mut dp = vec![vec![u64::MAX; n + 1]; k + 1];
    let mut choice = vec![vec![0usize; n + 1]; k + 1];
    for (j, cell) in dp[1].iter_mut().enumerate().take(n + 1).skip(1) {
        *cell = run_cost(0, j);
    }
    for t in 2..=k {
        for j in t..=n {
            for i in t - 1..j {
                let candidate = dp[t - 1][i].max(run_cost(i, j));
                // Strict `<` keeps the earliest split on ties.
                if candidate < dp[t][j] {
                    dp[t][j] = candidate;
                    choice[t][j] = i;
                }
            }
        }
    }

    let mut bounds = vec![n];
    let mut j = n;
    for t in (2..=k).rev() {
        j = choice[t][j];
        bounds.push(j);
    }
    bounds.push(0);
    bounds.reverse();
    let runs = bounds
        .windows(2)
        .map(|win| StageRun {
            lo: win[0],
            hi: win[1],
            cost: run_cost(win[0], win[1]),
        })
        .collect();
    CutPlan { runs }
}

// ---------------------------------------------------------------------------
// Stage chain abstraction
// ---------------------------------------------------------------------------

/// A backend's view of one layer's TT stage chain, as the pipeline
/// executor consumes it: encode a column slice of the batch into the
/// prepared layout, run one plan stage (GEMM + fused scatter epilogue),
/// decode the assembled output columns.
///
/// All methods use the engines' batch-inner-most layout with the *chunk
/// width* `w` as the batch dimension: element `e`, chunk column `j` sits
/// at `e * w + j`. Because every output column's arithmetic is independent
/// of its neighbors, chunked execution is bit-identical to the
/// full-batch sequential pass.
pub trait StageChain: Send + Sync + 'static {
    /// Element type flowing between stages (`f64` float, `i16` codes).
    type Code: Copy + Default + Send + Sync + 'static;
    /// Per-run accounting folded across stages and chunks.
    type Report: Default + Clone + Send + 'static;

    /// The stage plan (execution order, `h = d` first).
    fn plan(&self) -> &InferencePlan;
    /// Output length `M` of the layer.
    fn num_rows(&self) -> usize;
    /// Input length `N` of the layer.
    fn num_cols(&self) -> usize;

    /// Encodes columns `[c0, c0 + w)` of the `N × b` batch `xs` into the
    /// prepared Eqn. (8) input layout at chunk width `w`.
    fn prepare(&self, xs: &[f64], b: usize, c0: usize, w: usize, dst: &mut [Self::Code]);

    /// Runs plan stage `idx` at chunk width `w`: reads the stage input
    /// from `input`, scatters through the stage's fused [`DestMap`] into
    /// `output`, folds arithmetic accounting into `report`.
    ///
    /// # Errors
    ///
    /// Dimension mismatches only — unreachable for buffers sized from the
    /// plan (the executor validates once at construction).
    fn run_stage(
        &self,
        idx: usize,
        input: &[Self::Code],
        output: &mut [Self::Code],
        w: usize,
        report: &mut Self::Report,
    ) -> Result<()>;

    /// Decodes the assembled `M × w` final-stage output `codes` into
    /// columns `[c0, c0 + w)` of the `M × b` batch output `ys`.
    fn finish(&self, codes: &[Self::Code], ys: &mut [f64], b: usize, c0: usize, w: usize);

    /// Folds one segment's report into the run total (commutative).
    fn merge(into: &mut Self::Report, other: &Self::Report);
}

// ---------------------------------------------------------------------------
// Bounded SPSC chunk channel
// ---------------------------------------------------------------------------

/// One streamed chunk: an owned boundary slab holding `elems × w` codes.
struct ChunkMsg<T> {
    slab: Vec<T>,
    w: usize,
}

/// Bounded single-producer/single-consumer channel for one cut boundary.
///
/// Capacity is enforced by slab recycling: [`CHANNEL_SLOTS`] slabs are
/// allocated up front and circulate producer → consumer → producer, so a
/// send can only stall waiting for a *free* slab (backpressure) and a
/// receive only for a *filled* one (starvation). Steady state moves owned
/// `Vec`s between preallocated deques — no allocation.
struct ChunkChannel<T> {
    data: Mutex<VecDeque<ChunkMsg<T>>>,
    avail: Condvar,
    free: Mutex<Vec<Vec<T>>>,
    space: Condvar,
    /// Set when a peer branch panicked; waiters bail out instead of
    /// blocking on a producer/consumer that no longer exists.
    poisoned: AtomicBool,
    slab_len: usize,
}

impl<T: Copy + Default> ChunkChannel<T> {
    fn new(slab_len: usize) -> Self {
        let channel = ChunkChannel {
            data: Mutex::new(VecDeque::with_capacity(CHANNEL_SLOTS + 1)),
            avail: Condvar::new(),
            free: Mutex::new(Vec::with_capacity(CHANNEL_SLOTS)),
            space: Condvar::new(),
            poisoned: AtomicBool::new(false),
            slab_len,
        };
        channel.heal();
        channel
    }

    /// Returns the channel to its idle state after a poisoned run: queued
    /// slabs go back to the free list, slabs dropped by an unwinding
    /// branch are reallocated, and the flag clears. Only called while no
    /// branch runs, so nothing races the reset.
    fn heal(&self) {
        let mut free = lock(&self.free);
        free.extend(lock(&self.data).drain(..).map(|msg| msg.slab));
        while free.len() < CHANNEL_SLOTS {
            free.push(vec![T::default(); self.slab_len]);
        }
        self.poisoned.store(false, Ordering::Release);
    }

    /// Takes a free slab to fill; `true` if the producer had to stall for
    /// downstream backpressure.
    fn acquire(&self) -> (Vec<T>, bool) {
        let mut free = lock(&self.free);
        let stalled = free.is_empty();
        while free.is_empty() {
            assert!(
                !self.poisoned.load(Ordering::Acquire),
                "stage pipeline poisoned by a peer panic"
            );
            free = self
                .space
                .wait(free)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        (free.pop().expect("non-empty free list"), stalled)
    }

    /// Publishes a filled slab downstream. Never blocks: occupancy is
    /// bounded by the recycled slab count.
    fn send(&self, msg: ChunkMsg<T>) {
        let mut data = lock(&self.data);
        data.push_back(msg);
        drop(data);
        self.avail.notify_all();
    }

    /// Takes the next chunk; `true` if the consumer had to stall for the
    /// producer (starvation).
    fn recv(&self) -> (ChunkMsg<T>, bool) {
        let mut data = lock(&self.data);
        let stalled = data.is_empty();
        while data.is_empty() {
            assert!(
                !self.poisoned.load(Ordering::Acquire),
                "stage pipeline poisoned by a peer panic"
            );
            data = self
                .avail
                .wait(data)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        (data.pop_front().expect("non-empty data queue"), stalled)
    }

    /// Returns a consumed slab to the producer's free list.
    fn release(&self, slab: Vec<T>) {
        let mut free = lock(&self.free);
        free.push(slab);
        drop(free);
        self.space.notify_all();
    }

    /// Wakes every waiter into a panic (peer branch died mid-run).
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(lock(&self.data));
        self.avail.notify_all();
        drop(lock(&self.free));
        self.space.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Cumulative per-pipeline-stage counters (see
/// [`StagePipeline::stage_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounterSnapshot {
    /// Chunks this stage processed (its occupancy, in chunk units).
    pub chunks: u64,
    /// Chunks this stage handed to the next one (0 for the last stage).
    pub handoffs: u64,
    /// Sends that had to wait for a recycled slab (downstream
    /// backpressure).
    pub send_stalls: u64,
    /// Receives that had to wait for the producer (upstream starvation).
    pub recv_stalls: u64,
}

#[derive(Debug, Default)]
struct SegCounters {
    chunks: AtomicU64,
    handoffs: AtomicU64,
    send_stalls: AtomicU64,
    recv_stalls: AtomicU64,
}

impl SegCounters {
    fn snapshot(&self) -> StageCounterSnapshot {
        StageCounterSnapshot {
            chunks: self.chunks.load(Ordering::Relaxed),
            handoffs: self.handoffs.load(Ordering::Relaxed),
            send_stalls: self.send_stalls.load(Ordering::Relaxed),
            recv_stalls: self.recv_stalls.load(Ordering::Relaxed),
        }
    }
}

/// One pipelined run's scheduling telemetry, summed over all pipeline
/// stages. Exact reconciliation invariants (asserted by the differential
/// suite and the serving stats):
///
/// * `handoffs == chunks_streamed × (depth − 1)` — every chunk crosses
///   every boundary exactly once;
/// * `send_stalls ≤ handoffs` and `recv_stalls ≤ handoffs` — a stall is
///   always resolved by the matching handoff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeRunStats {
    /// Pipeline stages the layer ran with.
    pub depth: u64,
    /// Micro-batch chunks streamed through the pipeline (per stage).
    pub chunks: u64,
    /// Chunk handoffs across all cut boundaries.
    pub handoffs: u64,
    /// Producer stalls (waiting for a recycled slab) across all stages.
    pub send_stalls: u64,
    /// Consumer stalls (waiting for the upstream producer) across all
    /// stages.
    pub recv_stalls: u64,
}

/// Per-segment reusable buffers: the stage's internal ping-pong slab pair
/// plus the first stage's prepared-input buffer and the final stage's
/// assembled-output park.
struct SegWs<T> {
    inbuf: Vec<T>,
    scratch_a: Vec<T>,
    scratch_b: Vec<T>,
    park: Vec<T>,
    /// Planned lengths of the four buffers, in field order.
    lens: [usize; 4],
}

impl<T: Copy + Default> SegWs<T> {
    fn new(lens: [usize; 4]) -> Self {
        let mut ws = SegWs {
            inbuf: Vec::new(),
            scratch_a: Vec::new(),
            scratch_b: Vec::new(),
            park: Vec::new(),
            lens,
        };
        ws.heal();
        ws
    }

    /// Reallocates any buffer a panicking run took and dropped.
    fn heal(&mut self) {
        let bufs = [
            &mut self.inbuf,
            &mut self.scratch_a,
            &mut self.scratch_b,
            &mut self.park,
        ];
        for (buf, &len) in bufs.into_iter().zip(&self.lens) {
            buf.resize(len, T::default());
        }
    }
}

/// Pipeline-parallel executor for one layer's stage chain (module docs).
///
/// Construction plans the cuts, allocates every channel slab and
/// workspace, and spawns `depth − 1` dedicated stage threads; after the
/// first call, [`StagePipeline::matvec_batch_into`] is allocation-free on
/// every participating thread. One run executes at a time (concurrent
/// callers serialize on an internal lock, like the sequential engines'
/// workspace mutex).
pub struct StagePipeline<C: StageChain> {
    chain: Arc<C>,
    cut: CutPlan,
    micro: usize,
    host: PipelineHost,
    channels: Vec<ChunkChannel<C::Code>>,
    segs: Vec<Mutex<SegWs<C::Code>>>,
    counters: Vec<SegCounters>,
    reports: Vec<Mutex<C::Report>>,
    call_lock: Mutex<()>,
    /// Set when a run panicked; the next run heals channels and
    /// workspaces before it starts.
    faulted: AtomicBool,
}

impl<C: StageChain> std::fmt::Debug for StagePipeline<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagePipeline")
            .field("depth", &self.cut.depth())
            .field("micro_batch", &self.micro)
            .field("cuts", &self.cut.cuts())
            .finish()
    }
}

/// Configuration for a [`StagePipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Requested pipeline stages (cut count); clamped to the layer's `d`.
    pub depth: usize,
    /// Batch columns per streamed chunk. `1` streams sample by sample —
    /// the paper's per-sample `V'_h` streaming — which maximizes overlap;
    /// larger chunks amortize handoffs for very small stages.
    pub micro_batch: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 2,
            micro_batch: 1,
        }
    }
}

impl<C: StageChain> StagePipeline<C> {
    /// Plans the cuts and builds the executor (see the type docs).
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] on a zero `depth`/`micro_batch` or
    /// a plan/chain dimension inconsistency.
    pub fn new(chain: C, config: PipelineConfig) -> Result<Self> {
        Self::from_arc(Arc::new(chain), config)
    }

    /// [`StagePipeline::new`] over an already-shared chain (cloning an
    /// executor shares the chain, never the channels or workspaces).
    ///
    /// # Errors
    ///
    /// See [`StagePipeline::new`].
    pub fn from_arc(chain: Arc<C>, config: PipelineConfig) -> Result<Self> {
        if config.depth == 0 {
            return Err(invalid("pipeline depth must be at least 1"));
        }
        if config.micro_batch == 0 {
            return Err(invalid("pipeline micro_batch must be at least 1"));
        }
        let cut = plan_cuts(chain.plan(), config.depth);
        let depth = cut.depth();
        let micro = config.micro_batch;
        let stages = chain.plan().stages().to_vec();
        if stages.is_empty() {
            return Err(invalid("pipeline needs at least one plan stage"));
        }
        for win in stages.windows(2) {
            if win[0].output_elems() != win[1].input_elems() {
                return Err(invalid("plan stage chain is not size-consistent"));
            }
        }

        let channels = cut.runs()[..depth - 1]
            .iter()
            .map(|run| ChunkChannel::new(stages[run.hi].input_elems() * micro))
            .collect();
        let segs = cut
            .runs()
            .iter()
            .enumerate()
            .map(|(s, run)| {
                let inbuf = if s == 0 {
                    stages[0].input_elems() * micro
                } else {
                    0
                };
                let interior = (run.lo + 1..run.hi)
                    .map(|idx| stages[idx].input_elems())
                    .max()
                    .unwrap_or(0);
                let scratch_a = if run.len() >= 2 { interior * micro } else { 0 };
                let scratch_b = if run.len() >= 3 { interior * micro } else { 0 };
                let park = if s + 1 == depth {
                    stages.last().expect("non-empty plan").output_elems() * micro
                } else {
                    0
                };
                Mutex::new(SegWs::new([inbuf, scratch_a, scratch_b, park]))
            })
            .collect();
        let counters = (0..depth).map(|_| SegCounters::default()).collect();
        let reports = (0..depth)
            .map(|_| Mutex::new(C::Report::default()))
            .collect();
        Ok(StagePipeline {
            chain,
            cut,
            micro,
            host: PipelineHost::new(depth - 1),
            channels,
            segs,
            counters,
            reports,
            call_lock: Mutex::new(()),
            faulted: AtomicBool::new(false),
        })
    }

    /// The planned cut points.
    #[must_use]
    pub fn cut_plan(&self) -> &CutPlan {
        &self.cut
    }

    /// Number of pipeline stages actually running.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.cut.depth()
    }

    /// Columns per streamed chunk.
    #[must_use]
    pub fn micro_batch(&self) -> usize {
        self.micro
    }

    /// The wrapped stage chain.
    #[must_use]
    pub fn chain(&self) -> &C {
        &self.chain
    }

    /// Cumulative per-stage occupancy/handoff/stall counters since
    /// construction, upstream stage first.
    #[must_use]
    pub fn stage_counters(&self) -> Vec<StageCounterSnapshot> {
        self.counters.iter().map(SegCounters::snapshot).collect()
    }

    fn totals(&self) -> StageCounterSnapshot {
        let mut total = StageCounterSnapshot::default();
        for c in &self.counters {
            let s = c.snapshot();
            total.chunks += s.chunks;
            total.handoffs += s.handoffs;
            total.send_stalls += s.send_stalls;
            total.recv_stalls += s.recv_stalls;
        }
        total
    }

    /// Pipelined batched matvec: streams the `N × b` batch `xs` through
    /// the stage runs in micro-batch chunks and assembles the `M × b`
    /// output into `ys`. Bit-identical to the sequential engine the chain
    /// wraps, at any depth, micro-batch size, and pool size.
    ///
    /// # Errors
    ///
    /// [`TensorError::ElementCountMismatch`] on wrong buffer lengths,
    /// [`TensorError::InvalidArgument`] on `b == 0`.
    pub fn matvec_batch_into(
        &self,
        xs: &[f64],
        b: usize,
        ys: &mut [f64],
    ) -> Result<(C::Report, PipeRunStats)> {
        let n = self.chain.num_cols();
        let m = self.chain.num_rows();
        if b == 0 {
            return Err(invalid("batch size must be at least 1"));
        }
        if xs.len() != n * b {
            return Err(TensorError::ElementCountMismatch {
                expected: n * b,
                got: xs.len(),
            });
        }
        if ys.len() != m * b {
            return Err(TensorError::ElementCountMismatch {
                expected: m * b,
                got: ys.len(),
            });
        }

        let _call = lock(&self.call_lock);
        // A panicked run leaves poisoned channels and dropped slabs behind.
        // The previous `host.run` joined every branch, so under the call
        // lock nothing else touches them: restore them before this run.
        if self.faulted.swap(false, Ordering::AcqRel) {
            for ch in &self.channels {
                ch.heal();
            }
            for seg in &self.segs {
                lock(seg).heal();
            }
        }
        let chunks = b.div_ceil(self.micro);
        let before = self.totals();
        for slot in &self.reports {
            *lock(slot) = C::Report::default();
        }

        let ys_cell = Mutex::new(ys);
        self.host.run(|branch| {
            let body = catch_unwind(AssertUnwindSafe(|| {
                self.segment_body(branch, xs, b, chunks, &ys_cell);
            }));
            if let Err(payload) = body {
                self.faulted.store(true, Ordering::Release);
                for ch in &self.channels {
                    ch.poison();
                }
                resume_unwind(payload);
            }
        });

        let mut report = C::Report::default();
        for slot in &self.reports {
            C::merge(&mut report, &lock(slot));
        }
        let after = self.totals();
        let stats = PipeRunStats {
            depth: self.depth() as u64,
            chunks: chunks as u64,
            handoffs: after.handoffs - before.handoffs,
            send_stalls: after.send_stalls - before.send_stalls,
            recv_stalls: after.recv_stalls - before.recv_stalls,
        };
        Ok((report, stats))
    }

    /// One pipeline stage's whole run: consume `chunks` chunks from
    /// upstream (or prepare them from `xs`), execute the owned TT stage
    /// run through the ping-pong slabs, ship downstream (or decode into
    /// `ys`).
    fn segment_body(
        &self,
        s: usize,
        xs: &[f64],
        b: usize,
        chunks: usize,
        ys_cell: &Mutex<&mut [f64]>,
    ) {
        let depth = self.cut.depth();
        let seg = self.cut.runs()[s];
        let counters = &self.counters[s];
        let mut report = C::Report::default();
        let mut ws_guard = lock(&self.segs[s]);
        let ws = &mut *ws_guard;
        let mut ys_guard = if s + 1 == depth {
            Some(lock(ys_cell))
        } else {
            None
        };

        for c in 0..chunks {
            let c0 = c * self.micro;
            let w = self.micro.min(b - c0);

            let cur: Vec<C::Code> = if s == 0 {
                let mut buf = mem::take(&mut ws.inbuf);
                self.chain.prepare(xs, b, c0, w, &mut buf);
                buf
            } else {
                let (msg, stalled) = self.channels[s - 1].recv();
                if stalled {
                    counters.recv_stalls.fetch_add(1, Ordering::Relaxed);
                }
                debug_assert_eq!(msg.w, w, "chunk stream out of order");
                msg.slab
            };

            let mut out: Vec<C::Code> = if s + 1 < depth {
                let (slab, stalled) = self.channels[s].acquire();
                if stalled {
                    counters.send_stalls.fetch_add(1, Ordering::Relaxed);
                }
                slab
            } else {
                mem::take(&mut ws.park)
            };

            // Dimensions are validated at construction; a failure here is
            // a bug, and panicking poisons the channels (see the caller).
            let run_ok = "stage dimensions validated at construction";
            if seg.len() == 1 {
                self.chain
                    .run_stage(seg.lo, &cur, &mut out, w, &mut report)
                    .expect(run_ok);
            } else {
                let mut ping = mem::take(&mut ws.scratch_a);
                let mut pong = mem::take(&mut ws.scratch_b);
                self.chain
                    .run_stage(seg.lo, &cur, &mut ping, w, &mut report)
                    .expect(run_ok);
                let mut src_is_ping = true;
                for idx in seg.lo + 1..seg.hi - 1 {
                    if src_is_ping {
                        self.chain
                            .run_stage(idx, &ping, &mut pong, w, &mut report)
                            .expect(run_ok);
                    } else {
                        self.chain
                            .run_stage(idx, &pong, &mut ping, w, &mut report)
                            .expect(run_ok);
                    }
                    src_is_ping = !src_is_ping;
                }
                let last = seg.hi - 1;
                if src_is_ping {
                    self.chain
                        .run_stage(last, &ping, &mut out, w, &mut report)
                        .expect(run_ok);
                } else {
                    self.chain
                        .run_stage(last, &pong, &mut out, w, &mut report)
                        .expect(run_ok);
                }
                ws.scratch_a = ping;
                ws.scratch_b = pong;
            }

            if s == 0 {
                ws.inbuf = cur;
            } else {
                self.channels[s - 1].release(cur);
            }

            if s + 1 < depth {
                counters.handoffs.fetch_add(1, Ordering::Relaxed);
                self.channels[s].send(ChunkMsg { slab: out, w });
            } else {
                let ys = ys_guard
                    .as_mut()
                    .expect("final segment holds the output lock");
                self.chain.finish(&out, ys, b, c0, w);
                ws.park = out;
            }
            counters.chunks.fetch_add(1, Ordering::Relaxed);
        }

        *lock(&self.reports[s]) = report;
    }
}

impl<C: StageChain> Clone for StagePipeline<C> {
    /// A clone shares the (immutable) chain but gets its own stage
    /// threads, channels, workspaces, and counters — the same contract as
    /// cloning a sequential engine.
    fn clone(&self) -> Self {
        Self::from_arc(
            Arc::clone(&self.chain),
            PipelineConfig {
                depth: self.cut.depth(),
                micro_batch: self.micro,
            },
        )
        .expect("cloning a validated pipeline cannot fail")
    }
}

// ---------------------------------------------------------------------------
// Float chain
// ---------------------------------------------------------------------------

/// [`StageChain`] over the float compact scheme: the same unfolded cores,
/// fused [`DestMap`] write epilogues, and preparation copy plan as
/// [`CompactEngine`], re-derived from the layer's [`TtShape`] so the
/// pipelined pass runs the identical arithmetic.
///
/// [`TtShape`]: tie_tt::TtShape
#[derive(Debug, Clone)]
pub struct FloatChain {
    plan: InferencePlan,
    gtildes: Vec<Tensor<f64>>,
    dest_maps: Vec<DestMap>,
    prep: CopyPlan,
    rows: usize,
    cols: usize,
    /// Final-stage fused epilogue, copied from the engine: the pipelined
    /// pass applies bias + activation inside the last stage's GEMM store,
    /// exactly like the sequential engine (bit-identical at any cut).
    bias: Option<Vec<f64>>,
    activation: Activation,
}

impl FloatChain {
    /// Builds the chain from a prepared engine (shares no state with it).
    ///
    /// # Errors
    ///
    /// Propagates shape errors (cannot occur for a valid engine).
    pub fn new(engine: &CompactEngine<f64>) -> Result<Self> {
        let shape = engine.matrix().shape();
        let plan = engine.plan().clone();
        let d = plan.stages().len();
        let mut dest_maps = Vec::with_capacity(d);
        for h in (2..=d).rev() {
            dest_maps.push(stage_dest_map(shape, h)?);
        }
        dest_maps.push(assemble_dest_map(shape)?);
        Ok(FloatChain {
            plan,
            gtildes: engine.unfolded_cores().to_vec(),
            dest_maps,
            prep: prepare_copy_plan(shape)?,
            rows: shape.num_rows(),
            cols: shape.num_cols(),
            bias: engine.bias().map(<[f64]>::to_vec),
            activation: engine.activation(),
        })
    }
}

impl StageChain for FloatChain {
    type Code = f64;
    type Report = OpCount;

    fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    fn num_rows(&self) -> usize {
        self.rows
    }

    fn num_cols(&self) -> usize {
        self.cols
    }

    fn prepare(&self, xs: &[f64], b: usize, c0: usize, w: usize, dst: &mut [f64]) {
        // The batched copy plan, restricted to a column slice: each
        // logical element's `w` columns are contiguous in both layouts.
        let run = self.prep.run;
        if run * w == 1 {
            // Single-element blocks: a plain gather (see
            // `CopyPlan::apply_batched`).
            for (d, &src) in dst.iter_mut().zip(&self.prep.src_starts) {
                *d = xs[src * b + c0];
            }
            return;
        }
        for (i, &src) in self.prep.src_starts.iter().enumerate() {
            for e in 0..run {
                let d0 = (i * run + e) * w;
                let s0 = (src + e) * b + c0;
                dst[d0..d0 + w].copy_from_slice(&xs[s0..s0 + w]);
            }
        }
    }

    fn run_stage(
        &self,
        idx: usize,
        input: &[f64],
        output: &mut [f64],
        w: usize,
        report: &mut OpCount,
    ) -> Result<()> {
        let stage = &self.plan.stages()[idx];
        let (rows, k, cols) = (stage.gtilde_rows, stage.gtilde_cols, stage.v_cols);
        // Final stage: the bias/activation epilogue fuses into the same
        // store that assembles the output. The epilogue indexes the
        // logical destination element, so chunking the batch cannot
        // perturb it.
        let (bias, act) = if idx + 1 == self.plan.stages().len() {
            (self.bias.as_deref(), self.activation)
        } else {
            (None, Activation::Identity)
        };
        gemm_into_mapped(
            self.gtildes[stage.h - 1].data(),
            &input[..k * cols * w],
            &mut output[..rows * cols * w],
            rows,
            k,
            cols,
            w,
            &self.dest_maps[idx],
            bias,
            act,
        )?;
        report.mults += stage.muls() * w as u64;
        report.adds += stage.muls() * w as u64;
        // Unlike the one-GEMM-per-batch sequential pass, a pipelined stage
        // re-reads its core once per streamed chunk — that is the traffic
        // pipelining trades for overlap, and the counter reports it
        // honestly.
        report.core_reads += stage.core_elems() as u64;
        Ok(())
    }

    fn finish(&self, codes: &[f64], ys: &mut [f64], b: usize, c0: usize, w: usize) {
        for o in 0..self.rows {
            ys[o * b + c0..o * b + c0 + w].copy_from_slice(&codes[o * w..o * w + w]);
        }
    }

    fn merge(into: &mut OpCount, other: &OpCount) {
        *into = into.merge(*other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tie_tensor::init;
    use tie_tt::{TtMatrix, TtShape};

    fn engine(seed: u64, m: Vec<usize>, n: Vec<usize>, r: usize) -> CompactEngine<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let shape = TtShape::uniform_rank(m, n, r).unwrap();
        CompactEngine::new(TtMatrix::random(&mut rng, &shape, 0.6).unwrap()).unwrap()
    }

    #[test]
    fn planner_covers_all_stages_contiguously() {
        let e = engine(1, vec![2, 3, 4], vec![4, 3, 2], 3);
        for depth in 1..=5 {
            let cut = plan_cuts(e.plan(), depth);
            assert_eq!(cut.depth(), depth.min(3));
            assert_eq!(cut.runs()[0].lo, 0);
            assert_eq!(cut.runs().last().unwrap().hi, 3);
            for win in cut.runs().windows(2) {
                assert_eq!(win[0].hi, win[1].lo, "runs must tile the plan");
            }
            assert!(cut.bottleneck_cost() <= cut.total_cost());
        }
    }

    #[test]
    fn planner_minimizes_the_bottleneck() {
        let e = engine(2, vec![4, 2, 2], vec![8, 2, 2], 3);
        let costs = stage_costs(e.plan());
        let cut = plan_cuts(e.plan(), 2);
        // Exhaustive check over the 2 possible cut points.
        let best = (1..3)
            .map(|c| {
                let left: u64 = costs[..c].iter().map(StageCost::total).sum();
                let right: u64 = costs[c..].iter().map(StageCost::total).sum();
                left.max(right)
            })
            .min()
            .unwrap();
        assert_eq!(cut.bottleneck_cost(), best);
    }

    #[test]
    fn planner_is_deterministic() {
        let e = engine(3, vec![2, 2, 2, 2], vec![2, 2, 2, 2], 2);
        let a = plan_cuts(e.plan(), 3);
        let b = plan_cuts(e.plan(), 3);
        assert_eq!(a, b);
    }

    fn assert_pipeline_matches(e: &CompactEngine<f64>, depth: usize, micro: usize, b: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let shape = e.matrix().shape();
        let (n, m) = (shape.num_cols(), shape.num_rows());
        let xs: Tensor<f64> = init::uniform(&mut rng, vec![n * b], 1.0);
        let mut want = vec![0.0f64; m * b];
        e.matvec_batch_into(xs.data(), b, &mut want).unwrap();

        let chain = FloatChain::new(e).unwrap();
        let pipe = StagePipeline::new(
            chain,
            PipelineConfig {
                depth,
                micro_batch: micro,
            },
        )
        .unwrap();
        let mut got = vec![0.0f64; m * b];
        let (ops, stats) = pipe.matvec_batch_into(xs.data(), b, &mut got).unwrap();
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "depth {depth} micro {micro} b {b}: output {i} drifted"
            );
        }
        assert_eq!(stats.depth, pipe.depth() as u64);
        assert_eq!(stats.chunks, b.div_ceil(micro) as u64);
        assert_eq!(stats.handoffs, stats.chunks * (stats.depth - 1));
        assert!(stats.send_stalls <= stats.handoffs);
        assert!(stats.recv_stalls <= stats.handoffs);
        // Arithmetic counters are chunk-invariant.
        let seq = e.matvec_batch_into(xs.data(), b, &mut want).unwrap();
        assert_eq!(ops.mults, seq.mults);
        assert_eq!(ops.adds, seq.adds);
    }

    #[test]
    fn pipelined_outputs_are_bit_identical_across_depths_and_chunks() {
        let e = engine(4, vec![2, 3, 4], vec![4, 3, 2], 3);
        for depth in [1, 2, 3, 4] {
            for micro in [1, 3, 8] {
                for b in [1, 5, 8] {
                    assert_pipeline_matches(&e, depth, micro, b);
                }
            }
        }
    }

    #[test]
    fn fused_epilogue_survives_pipelining_bitwise() {
        // The final-stage bias+ReLU epilogue must not perturb pipelined
        // execution: every depth/micro/batch combination stays bitwise
        // equal to the sequential fused engine.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let base = engine(9, vec![2, 3, 4], vec![4, 3, 2], 3);
        let m = base.matrix().shape().num_rows();
        let bias: Tensor<f64> = init::uniform(&mut rng, vec![m], 0.5);
        let e = base
            .with_activation(Activation::Relu)
            .with_bias(bias.data().to_vec())
            .unwrap();
        for depth in [1, 2, 3] {
            for micro in [1, 3] {
                assert_pipeline_matches(&e, depth, micro, 5);
            }
        }
    }

    #[test]
    fn single_stage_layer_degenerates_cleanly() {
        let e = engine(5, vec![5], vec![7], 1);
        assert_pipeline_matches(&e, 4, 2, 3);
    }

    #[test]
    fn per_stage_counters_reconcile_exactly() {
        let e = engine(6, vec![2, 3, 4], vec![4, 3, 2], 3);
        let pipe = StagePipeline::new(
            FloatChain::new(&e).unwrap(),
            PipelineConfig {
                depth: 3,
                micro_batch: 1,
            },
        )
        .unwrap();
        let (n, m) = (e.matrix().shape().num_cols(), e.matrix().shape().num_rows());
        let b = 6;
        let xs = vec![0.25f64; n * b];
        let mut ys = vec![0.0f64; m * b];
        for _ in 0..3 {
            pipe.matvec_batch_into(&xs, b, &mut ys).unwrap();
        }
        let counters = pipe.stage_counters();
        assert_eq!(counters.len(), 3);
        for (s, c) in counters.iter().enumerate() {
            assert_eq!(c.chunks, 18, "stage {s} occupancy");
            if s + 1 < counters.len() {
                // Every handoff is received by the next stage as one chunk.
                assert_eq!(c.handoffs, counters[s + 1].chunks, "boundary {s}");
            } else {
                assert_eq!(c.handoffs, 0);
            }
            assert!(c.send_stalls <= c.handoffs);
        }
    }

    #[test]
    fn rejects_bad_arguments() {
        let e = engine(7, vec![2, 3], vec![3, 2], 2);
        let pipe =
            StagePipeline::new(FloatChain::new(&e).unwrap(), PipelineConfig::default()).unwrap();
        let mut ys = vec![0.0f64; 6];
        assert!(pipe.matvec_batch_into(&[0.0; 6], 0, &mut ys).is_err());
        assert!(pipe.matvec_batch_into(&[0.0; 5], 1, &mut ys).is_err());
        assert!(pipe.matvec_batch_into(&[0.0; 6], 1, &mut ys[..5]).is_err());
        assert!(StagePipeline::new(
            FloatChain::new(&e).unwrap(),
            PipelineConfig {
                depth: 0,
                micro_batch: 1
            }
        )
        .is_err());
        assert!(StagePipeline::new(
            FloatChain::new(&e).unwrap(),
            PipelineConfig {
                depth: 2,
                micro_batch: 0
            }
        )
        .is_err());
    }

    #[test]
    fn clones_share_results_not_state() {
        let e = engine(8, vec![2, 3], vec![3, 2], 2);
        let pipe = StagePipeline::new(
            FloatChain::new(&e).unwrap(),
            PipelineConfig {
                depth: 2,
                micro_batch: 1,
            },
        )
        .unwrap();
        let clone = pipe.clone();
        let xs = vec![0.5f64; 6 * 2];
        let (mut a, mut b) = (vec![0.0f64; 6 * 2], vec![0.0f64; 6 * 2]);
        pipe.matvec_batch_into(&xs, 2, &mut a).unwrap();
        clone.matvec_batch_into(&xs, 2, &mut b).unwrap();
        assert_eq!(a, b);
        // The clone's counters started fresh.
        assert_eq!(clone.stage_counters()[0].chunks, 2);
    }

    /// The engine must stay shareable across serving threads.
    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        let _ = assert_send_sync::<StagePipeline<FloatChain>>;
    };
}
