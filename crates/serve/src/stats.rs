//! Service counters: lock-free recording, consistent snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a worker took a batch from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DispatchCause {
    /// The batch holds `max_batch` requests.
    Full,
    /// A worker took a shorter lane as it stood.
    Idle,
    /// Shutdown drain.
    Drain,
}

/// Shared atomic counters. Clients and workers record into this;
/// [`StatsCore::snapshot`] reads it out as a [`ServiceStats`].
#[derive(Debug)]
pub(crate) struct StatsCore {
    started: Instant,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    engine_panics: AtomicU64,
    thread_panics: AtomicU64,
    batches: AtomicU64,
    full_batches: AtomicU64,
    deadline_batches: AtomicU64,
    idle_batches: AtomicU64,
    drain_batches: AtomicU64,
    batched_requests: AtomicU64,
    latency_ns_sum: AtomicU64,
    latency_ns_max: AtomicU64,
    quant_outputs: AtomicU64,
    quant_acc_saturations: AtomicU64,
    quant_out_saturations: AtomicU64,
    bytes_moved: AtomicU64,
    transform_elided_bytes: AtomicU64,
    pipeline_batches: AtomicU64,
    pipeline_chunks: AtomicU64,
    pipeline_stage_chunks: AtomicU64,
    pipeline_handoffs: AtomicU64,
    pipeline_send_stalls: AtomicU64,
    pipeline_recv_stalls: AtomicU64,
}

impl StatsCore {
    pub(crate) fn new() -> Self {
        StatsCore {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            engine_panics: AtomicU64::new(0),
            thread_panics: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            full_batches: AtomicU64::new(0),
            deadline_batches: AtomicU64::new(0),
            idle_batches: AtomicU64::new(0),
            drain_batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            latency_ns_sum: AtomicU64::new(0),
            latency_ns_max: AtomicU64::new(0),
            quant_outputs: AtomicU64::new(0),
            quant_acc_saturations: AtomicU64::new(0),
            quant_out_saturations: AtomicU64::new(0),
            bytes_moved: AtomicU64::new(0),
            transform_elided_bytes: AtomicU64::new(0),
            pipeline_batches: AtomicU64::new(0),
            pipeline_chunks: AtomicU64::new(0),
            pipeline_stage_chunks: AtomicU64::new(0),
            pipeline_handoffs: AtomicU64::new(0),
            pipeline_send_stalls: AtomicU64::new(0),
            pipeline_recv_stalls: AtomicU64::new(0),
        }
    }

    pub(crate) fn record_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, occupancy: usize, cause: DispatchCause) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(occupancy as u64, Ordering::Relaxed);
        let counter = match cause {
            DispatchCause::Full => &self.full_batches,
            DispatchCause::Idle => &self.idle_batches,
            DispatchCause::Drain => &self.drain_batches,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_response(&self, latency: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency_ns_sum.fetch_add(ns, Ordering::Relaxed);
        self.latency_ns_max.fetch_max(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one batch whose engine call panicked (its requests are
    /// counted as failed one by one when they are answered).
    pub(crate) fn record_engine_panic(&self) {
        self.engine_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one worker thread that ended in a panic outside any engine
    /// call.
    pub(crate) fn record_thread_panic(&self) {
        self.thread_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one quantized batch's saturation report into the counters.
    pub(crate) fn record_quant(&self, outputs: u64, acc_saturations: u64, out_saturations: u64) {
        self.quant_outputs.fetch_add(outputs, Ordering::Relaxed);
        self.quant_acc_saturations
            .fetch_add(acc_saturations, Ordering::Relaxed);
        self.quant_out_saturations
            .fetch_add(out_saturations, Ordering::Relaxed);
    }

    /// Folds one batch's copy-traffic accounting into the counters:
    /// `bytes_moved` actually copied (input preparation), and
    /// `transform_elided_bytes` of permutation traffic the fused write
    /// epilogues avoided.
    pub(crate) fn record_traffic(&self, bytes_moved: u64, transform_elided_bytes: u64) {
        self.bytes_moved.fetch_add(bytes_moved, Ordering::Relaxed);
        self.transform_elided_bytes
            .fetch_add(transform_elided_bytes, Ordering::Relaxed);
    }

    /// Folds one pipelined batch's scheduling telemetry into the
    /// counters. `stage_chunks` is the summed per-stage occupancy
    /// (`chunks × depth` for this run), so the exact reconciliation
    /// `pipeline_stage_chunks == pipeline_chunks + pipeline_handoffs`
    /// holds layer-depth-independently.
    pub(crate) fn record_pipeline(
        &self,
        chunks: u64,
        stage_chunks: u64,
        handoffs: u64,
        send_stalls: u64,
        recv_stalls: u64,
    ) {
        self.pipeline_batches.fetch_add(1, Ordering::Relaxed);
        self.pipeline_chunks.fetch_add(chunks, Ordering::Relaxed);
        self.pipeline_stage_chunks
            .fetch_add(stage_chunks, Ordering::Relaxed);
        self.pipeline_handoffs
            .fetch_add(handoffs, Ordering::Relaxed);
        self.pipeline_send_stalls
            .fetch_add(send_stalls, Ordering::Relaxed);
        self.pipeline_recv_stalls
            .fetch_add(recv_stalls, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            engine_panics: self.engine_panics.load(Ordering::Relaxed),
            thread_panics: self.thread_panics.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            full_batches: self.full_batches.load(Ordering::Relaxed),
            deadline_batches: self.deadline_batches.load(Ordering::Relaxed),
            idle_batches: self.idle_batches.load(Ordering::Relaxed),
            drain_batches: self.drain_batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            latency_ns_sum: self.latency_ns_sum.load(Ordering::Relaxed),
            latency_ns_max: self.latency_ns_max.load(Ordering::Relaxed),
            quant_outputs: self.quant_outputs.load(Ordering::Relaxed),
            quant_acc_saturations: self.quant_acc_saturations.load(Ordering::Relaxed),
            quant_out_saturations: self.quant_out_saturations.load(Ordering::Relaxed),
            bytes_moved: self.bytes_moved.load(Ordering::Relaxed),
            transform_elided_bytes: self.transform_elided_bytes.load(Ordering::Relaxed),
            pipeline_batches: self.pipeline_batches.load(Ordering::Relaxed),
            pipeline_chunks: self.pipeline_chunks.load(Ordering::Relaxed),
            pipeline_stage_chunks: self.pipeline_stage_chunks.load(Ordering::Relaxed),
            pipeline_handoffs: self.pipeline_handoffs.load(Ordering::Relaxed),
            pipeline_send_stalls: self.pipeline_send_stalls.load(Ordering::Relaxed),
            pipeline_recv_stalls: self.pipeline_recv_stalls.load(Ordering::Relaxed),
            elapsed: self.started.elapsed(),
        }
    }
}

/// Router-side counters of one shard: lock-free recording by every
/// [`crate::ShardedClient`], snapshot into [`ShardStats`].
#[derive(Debug, Default)]
pub(crate) struct RouteCore {
    routed: AtomicU64,
    retried: AtomicU64,
    rejected: AtomicU64,
    drained: AtomicU64,
}

impl RouteCore {
    pub(crate) fn record_routed(&self) {
        self.routed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_drained(&self) {
        self.drained.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, shard: usize, replicas: Vec<ServiceStats>) -> ShardStats {
        ShardStats {
            shard,
            routed: self.routed.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            replicas,
        }
    }
}

/// Per-shard accounting of a [`crate::ShardedService`]: the router's
/// counters for this shard plus one [`ServiceStats`] per replica that ever
/// served it (drained/killed replicas keep their final snapshot, so the
/// shard's history always adds up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id (ring position).
    pub shard: usize,
    /// Requests the router successfully handed to one of this shard's
    /// replica queues. At quiescence `routed == service().submitted`.
    pub routed: u64,
    /// Bounded-backoff retry rounds the router performed because every
    /// replica reported a full queue.
    pub retried: u64,
    /// Submissions the router gave up on after exhausting its retry
    /// budget (surfaced to the caller as `QueueFull`).
    pub rejected: u64,
    /// Submissions that failed fast because every replica of this shard
    /// was draining or retired (surfaced as `ShardUnavailable`).
    pub drained: u64,
    /// One snapshot per replica, in registration order: live replicas
    /// first at their creation slots, retired replicas retain their final
    /// counters.
    pub replicas: Vec<ServiceStats>,
}

impl ShardStats {
    /// The shard's replica counters summed into one [`ServiceStats`].
    #[must_use]
    pub fn service(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for r in &self.replicas {
            total.absorb(r);
        }
        total
    }
}

/// A point-in-time snapshot of a whole [`crate::ShardedService`]:
/// [`ShardStats`] per shard plus the derived global view.
///
/// Two invariants hold after a clean shutdown (asserted by the stress and
/// chaos suites):
///
/// 1. per shard, `routed == service().submitted` and
///    `submitted == completed + failed` — the router hands a request to
///    exactly one replica queue, and every accepted request resolves
///    exactly once;
/// 2. the global view is the exact sum of the per-shard views — no
///    counter is double-reported or dropped in aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// Per-shard accounting, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl ShardedStats {
    /// All replica counters of all shards summed into one
    /// [`ServiceStats`].
    #[must_use]
    pub fn global(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.shards {
            total.absorb(&shard.service());
        }
        total
    }

    /// Total requests routed into replica queues.
    #[must_use]
    pub fn routed(&self) -> u64 {
        self.shards.iter().map(|s| s.routed).sum()
    }

    /// Total bounded-backoff retry rounds.
    #[must_use]
    pub fn retried(&self) -> u64 {
        self.shards.iter().map(|s| s.retried).sum()
    }

    /// Total submissions rejected after retry exhaustion.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Total submissions failed fast on a draining shard.
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.shards.iter().map(|s| s.drained).sum()
    }
}

/// A point-in-time snapshot of the service counters
/// ([`crate::InferenceService::stats`]).
///
/// Accounting invariant (asserted by the stress suite): every request
/// whose submit succeeded ends up in exactly one of `completed` or
/// `failed`, so after a clean shutdown `submitted == completed + failed`.
/// `rejected` counts `try_submit` calls that never entered the queue.
/// Every batch has exactly one dispatch cause, so
/// `batches == full_batches + deadline_batches + idle_batches +
/// drain_batches` holds at any snapshot taken while no batch is being
/// taken, and always after shutdown (`deadline_batches` is always 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// `try_submit` calls bounced by backpressure.
    pub rejected: u64,
    /// Responses delivered (or ready for pickup) with a result.
    pub completed: u64,
    /// Accepted requests that were answered with an error (including
    /// tear-down during shutdown races).
    pub failed: u64,
    /// Batches whose engine call panicked. The worker survives; the
    /// batch's requests are answered with [`crate::ServeError::Engine`]
    /// and counted in `failed`.
    pub engine_panics: u64,
    /// Worker threads that ended in a panic outside any engine call,
    /// counted when shutdown joins them. The requests such a thread held
    /// are answered [`crate::ServeError::ShuttingDown`] and counted in
    /// `failed`; if it was the last worker, so is every queued request.
    pub thread_panics: u64,
    /// Batches the workers took from the queue.
    pub batches: u64,
    /// Batches of `max_batch` requests.
    pub full_batches: u64,
    /// Always 0. Batches once dispatched on a wait deadline; workers now
    /// take requests straight from the queue, with no deadline to wait
    /// out. Kept so readers of the counter still compile.
    pub deadline_batches: u64,
    /// Batches a worker took shorter than `max_batch`, as the lane stood.
    pub idle_batches: u64,
    /// Batches flushed by the shutdown drain.
    pub drain_batches: u64,
    /// Total requests over all dispatched batches.
    pub batched_requests: u64,
    /// Sum of per-request latencies (submit → response), nanoseconds.
    pub latency_ns_sum: u64,
    /// Maximum per-request latency, nanoseconds.
    pub latency_ns_max: u64,
    /// Fixed-point stage-GEMM outputs produced by quantized-backend
    /// batches (zero when only float engines are registered).
    pub quant_outputs: u64,
    /// Quantized outputs whose 24-bit accumulator saturated
    /// mid-accumulation (see `tie_quant::QMatmulReport`).
    pub quant_acc_saturations: u64,
    /// Quantized outputs clipped during the final 16-bit requantization.
    pub quant_out_saturations: u64,
    /// Activation bytes actually copied across all executed batches — the
    /// Eqn. (8) input preparation, the one permutation with no producing
    /// GEMM to fuse into.
    pub bytes_moved: u64,
    /// Bytes of inter-stage Transform and output-assembly traffic the
    /// fused GEMM write epilogues eliminated across all executed batches
    /// (what the legacy pipeline would have re-copied).
    pub transform_elided_bytes: u64,
    /// Batches executed by a pipelined backend (zero when only sequential
    /// engines are registered).
    pub pipeline_batches: u64,
    /// Micro-batch chunks streamed through pipelined layers (counted once
    /// per chunk, not per stage).
    pub pipeline_chunks: u64,
    /// Summed per-stage occupancy in chunk units: every pipeline stage's
    /// chunk executions. Exact reconciliation against the channel
    /// counters, regardless of per-layer depth:
    /// `pipeline_stage_chunks == pipeline_chunks + pipeline_handoffs`
    /// (each chunk runs once on the first stage and once more per
    /// boundary it crosses).
    pub pipeline_stage_chunks: u64,
    /// Chunk handoffs across pipeline cut boundaries — each one a `V'_h`
    /// slab streamed downstream (`chunks × (depth − 1)` per batch).
    pub pipeline_handoffs: u64,
    /// Handoffs where the producer stalled waiting for a recycled slab
    /// (downstream backpressure).
    pub pipeline_send_stalls: u64,
    /// Handoffs where the consumer stalled waiting for the producer
    /// (upstream starvation).
    pub pipeline_recv_stalls: u64,
    /// Wall-clock time since the service started.
    pub elapsed: Duration,
}

impl ServiceStats {
    /// Folds `other` into `self`: counters and latency sums add, latency
    /// maxima and `elapsed` take the max. This is the aggregation the
    /// sharded layer uses to roll replica snapshots up into per-shard and
    /// global views ([`ShardStats::service`], [`ShardedStats::global`]),
    /// so `absorb` preserves the accounting invariant: if both operands
    /// satisfy `submitted == completed + failed`, so does the sum.
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.engine_panics += other.engine_panics;
        self.thread_panics += other.thread_panics;
        self.batches += other.batches;
        self.full_batches += other.full_batches;
        self.deadline_batches += other.deadline_batches;
        self.idle_batches += other.idle_batches;
        self.drain_batches += other.drain_batches;
        self.batched_requests += other.batched_requests;
        self.latency_ns_sum += other.latency_ns_sum;
        self.latency_ns_max = self.latency_ns_max.max(other.latency_ns_max);
        self.quant_outputs += other.quant_outputs;
        self.quant_acc_saturations += other.quant_acc_saturations;
        self.quant_out_saturations += other.quant_out_saturations;
        self.bytes_moved += other.bytes_moved;
        self.transform_elided_bytes += other.transform_elided_bytes;
        self.pipeline_batches += other.pipeline_batches;
        self.pipeline_chunks += other.pipeline_chunks;
        self.pipeline_stage_chunks += other.pipeline_stage_chunks;
        self.pipeline_handoffs += other.pipeline_handoffs;
        self.pipeline_send_stalls += other.pipeline_send_stalls;
        self.pipeline_recv_stalls += other.pipeline_recv_stalls;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Mean requests per dispatched batch (`0` before the first batch).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Mean submit→response latency (`0` before the first response).
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        self.latency_ns_sum
            .checked_div(self.completed)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Maximum submit→response latency.
    #[must_use]
    pub fn max_latency(&self) -> Duration {
        Duration::from_nanos(self.latency_ns_max)
    }

    /// Completed requests per second of service lifetime.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Accepted requests not yet answered.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(self.completed + self.failed)
    }

    /// Fraction of quantized stage-GEMM outputs that saturated anywhere in
    /// the datapath (`0` when no quantized batch ran). A persistently
    /// nonzero rate means the one-shot calibration no longer covers the
    /// live traffic — re-load the layer with fresh probes or a wider
    /// margin.
    /// Fraction of the pipeline's copy traffic the fused Transform
    /// eliminated: `elided / (elided + moved)` (`0` before any batch).
    /// The legacy pipeline would have copied both terms; the fused one
    /// only copies `bytes_moved`.
    #[must_use]
    pub fn transform_elided_fraction(&self) -> f64 {
        let total = self.transform_elided_bytes + self.bytes_moved;
        if total == 0 {
            0.0
        } else {
            self.transform_elided_bytes as f64 / total as f64
        }
    }

    /// Fraction of pipeline handoffs where either side stalled (`0`
    /// before any pipelined batch). High send-stall rates mean the cut
    /// plan's downstream runs are the bottleneck; high recv-stall rates
    /// mean the upstream runs are.
    #[must_use]
    pub fn pipeline_stall_fraction(&self) -> f64 {
        if self.pipeline_handoffs == 0 {
            0.0
        } else {
            (self.pipeline_send_stalls + self.pipeline_recv_stalls) as f64
                / self.pipeline_handoffs as f64
        }
    }

    #[must_use]
    pub fn quant_saturation_rate(&self) -> f64 {
        if self.quant_outputs == 0 {
            0.0
        } else {
            (self.quant_acc_saturations + self.quant_out_saturations) as f64
                / self.quant_outputs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let core = StatsCore::new();
        core.record_submit();
        core.record_submit();
        core.record_reject();
        core.record_batch(2, DispatchCause::Full);
        core.record_response(Duration::from_micros(10));
        core.record_response(Duration::from_micros(30));
        let s = core.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.failed, 0);
        assert_eq!(s.batches, 1);
        assert_eq!(s.full_batches, 1);
        assert_eq!(s.deadline_batches, 0);
        assert!((s.mean_occupancy() - 2.0).abs() < 1e-12);
        assert_eq!(s.mean_latency(), Duration::from_micros(20));
        assert_eq!(s.max_latency(), Duration::from_micros(30));
        assert_eq!(s.in_flight(), 0);
        assert!(s.throughput() > 0.0);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = StatsCore::new().snapshot();
        assert_eq!(s.mean_occupancy(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn quant_counters_accumulate() {
        let core = StatsCore::new();
        assert_eq!(core.snapshot().quant_saturation_rate(), 0.0);
        core.record_quant(100, 2, 3);
        core.record_quant(100, 0, 0);
        let s = core.snapshot();
        assert_eq!(s.quant_outputs, 200);
        assert_eq!(s.quant_acc_saturations, 2);
        assert_eq!(s.quant_out_saturations, 3);
        assert!((s.quant_saturation_rate() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let core = StatsCore::new();
        assert_eq!(core.snapshot().transform_elided_fraction(), 0.0);
        core.record_traffic(100, 300);
        core.record_traffic(50, 150);
        let s = core.snapshot();
        assert_eq!(s.bytes_moved, 150);
        assert_eq!(s.transform_elided_bytes, 450);
        assert!((s.transform_elided_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absorb_sums_counters_and_maxes_latency() {
        let core = StatsCore::new();
        core.record_submit();
        core.record_response(Duration::from_micros(10));
        let a = core.snapshot();
        let core2 = StatsCore::new();
        core2.record_submit();
        core2.record_submit();
        core2.record_response(Duration::from_micros(40));
        core2.record_failure();
        core2.record_engine_panic();
        core2.record_thread_panic();
        core2.record_batch(1, DispatchCause::Idle);
        core2.record_batch(1, DispatchCause::Full);
        core2.record_batch(1, DispatchCause::Drain);
        let b = core2.snapshot();
        let mut total = ServiceStats::default();
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.submitted, 3);
        assert_eq!(total.completed, 2);
        assert_eq!(total.failed, 1);
        assert_eq!(total.submitted, total.completed + total.failed);
        assert_eq!(total.engine_panics, 1);
        assert_eq!(total.thread_panics, 1);
        assert_eq!(total.batches, 3);
        assert_eq!(
            total.batches,
            total.full_batches + total.deadline_batches + total.idle_batches + total.drain_batches,
            "every batch has exactly one dispatch cause"
        );
        assert_eq!(total.idle_batches, 1);
        assert_eq!(total.max_latency(), Duration::from_micros(40));
        assert_eq!(total.latency_ns_sum, a.latency_ns_sum + b.latency_ns_sum);
        assert_eq!(total.elapsed, a.elapsed.max(b.elapsed));
    }

    #[test]
    fn route_core_snapshots_into_shard_stats() {
        let route = RouteCore::default();
        route.record_routed();
        route.record_routed();
        route.record_retry();
        route.record_rejected();
        route.record_drained();
        let core = StatsCore::new();
        core.record_submit();
        core.record_submit();
        core.record_response(Duration::from_micros(3));
        core.record_response(Duration::from_micros(5));
        let shard = route.snapshot(2, vec![core.snapshot()]);
        assert_eq!((shard.shard, shard.routed, shard.retried), (2, 2, 1));
        assert_eq!((shard.rejected, shard.drained), (1, 1));
        assert_eq!(shard.service().submitted, 2);
        assert_eq!(shard.routed, shard.service().submitted);
    }

    #[test]
    fn sharded_stats_global_is_exact_sum_of_shards() {
        let mk = |routed: u64, submitted: u64| {
            let route = RouteCore::default();
            for _ in 0..routed {
                route.record_routed();
            }
            let core = StatsCore::new();
            for _ in 0..submitted {
                core.record_submit();
                core.record_response(Duration::from_micros(1));
            }
            route.snapshot(0, vec![core.snapshot()])
        };
        let stats = ShardedStats {
            shards: vec![mk(3, 3), mk(5, 5)],
        };
        assert_eq!(stats.routed(), 8);
        assert_eq!(stats.global().submitted, 8);
        assert_eq!(stats.global().completed, 8);
        assert_eq!(
            stats.global().submitted,
            stats
                .shards
                .iter()
                .map(|s| s.service().submitted)
                .sum::<u64>()
        );
    }

    #[test]
    fn pipeline_counters_accumulate_and_reconcile() {
        let core = StatsCore::new();
        assert_eq!(core.snapshot().pipeline_stall_fraction(), 0.0);
        // Depth-3 run of 8 chunks, then a depth-2 run of 4 chunks.
        core.record_pipeline(8, 24, 16, 3, 2);
        core.record_pipeline(4, 8, 4, 0, 1);
        let s = core.snapshot();
        assert_eq!(s.pipeline_batches, 2);
        assert_eq!(s.pipeline_chunks, 12);
        assert_eq!(s.pipeline_stage_chunks, 32);
        assert_eq!(s.pipeline_handoffs, 20);
        // The depth-independent reconciliation invariant.
        assert_eq!(
            s.pipeline_stage_chunks,
            s.pipeline_chunks + s.pipeline_handoffs
        );
        assert_eq!((s.pipeline_send_stalls, s.pipeline_recv_stalls), (3, 3));
        assert!((s.pipeline_stall_fraction() - 0.3).abs() < 1e-12);
        // absorb carries the pipeline counters.
        let mut total = ServiceStats::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.pipeline_handoffs, 40);
        assert_eq!(
            total.pipeline_stage_chunks,
            total.pipeline_chunks + total.pipeline_handoffs
        );
    }

    #[test]
    fn cause_counters_split() {
        let core = StatsCore::new();
        core.record_batch(1, DispatchCause::Full);
        core.record_batch(3, DispatchCause::Drain);
        core.record_batch(2, DispatchCause::Idle);
        let s = core.snapshot();
        assert_eq!(
            (
                s.full_batches,
                s.deadline_batches,
                s.idle_batches,
                s.drain_batches
            ),
            (1, 0, 1, 1)
        );
        assert_eq!(s.batched_requests, 6);
    }
}
