//! The request queue the workers pull from.
//!
//! A client pushes each request into its layer's *lane* under one
//! `Mutex`; a worker takes the lane whose head request is oldest, up to
//! `max_batch` requests, and runs them as one engine call. No thread sits
//! between the two, so a request crosses one hand-off: from the thread
//! that submits it to the worker that takes it. An idle worker takes the
//! oldest lane at once, whatever its size, and while every worker is busy
//! lanes grow during the workers' own service time, so batches grow with
//! load without a timer. Lanes are kept once created (one per layer ever
//! seen), so a push to an existing lane allocates nothing.
//!
//! ## Idle workers spin, then park
//!
//! Waking a parked worker costs a futex wake plus, when its vCPU has
//! halted, the vCPU's own wake-up: on a 2-vCPU VM about 15 µs to an awake
//! vCPU and 150–250 µs to a halted one. So an idle worker first spins,
//! yielding each turn and polling an atomic copy of the queued count, and
//! parks on the `work` condvar only once the spin budget runs out. The
//! budget is the queue's own measurement of a park: when a push notifies
//! a parked worker it stamps the time, and the worker that wakes folds
//! the elapsed time into an EWMA that takes a costlier sample at once and
//! falls by 1/8 of the gap to a cheaper one (one sample capped at 1 ms).
//! At most one worker spins at a time, so the other vCPUs stay free for
//! the callers.
//!
//! No wake-up is lost. A worker parks only after finding every lane empty
//! under the lock, and the parked count is kept under the same lock. A
//! push notifies when that count is non-zero. A spinning worker re-checks
//! the lanes under the lock before it parks.
//!
//! ## Backpressure and shutdown
//!
//! `queue_capacity` bounds the requests queued over all lanes. At
//! capacity a non-blocking push fails with [`ServeError::QueueFull`] and
//! a blocking one waits on the `space` condvar until a worker takes a
//! batch. [`Queue::close`] refuses every later push and wakes everyone;
//! the workers drain the lanes as `Drain` batches and exit once the queue
//! is closed and empty. The last worker to exit closes the queue and
//! fails whatever is still queued, so no ticket waits on a dead pool.

use crate::error::ServeError;
use crate::request::Request;
use crate::stats::{DispatchCause, StatsCore};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The cap on one park-cost sample, so a worker that the scheduler kept
/// off its vCPU for long cannot stretch the spin budget.
const MAX_PARK_SAMPLE: Duration = Duration::from_millis(1);

/// Everything the queue's lock guards.
#[derive(Debug, Default)]
struct State {
    /// One lane per layer, created on the layer's first request and kept.
    lanes: HashMap<Arc<str>, VecDeque<Request>>,
    /// Requests queued over all lanes.
    queued: usize,
    closed: bool,
    /// Workers waiting on `work`.
    parked: usize,
    /// Workers that have not exited yet.
    live_workers: usize,
    /// When a push notified a parked worker that has not woken since.
    notified_at: Option<Instant>,
}

/// The shared queue between the clients and the worker pool.
#[derive(Debug)]
pub(crate) struct Queue {
    state: Mutex<State>,
    /// Parked workers wait here.
    work: Condvar,
    /// Blocking pushes wait here while the queue is full.
    space: Condvar,
    /// `State::queued`, written under the lock, polled by the spinning
    /// worker. It publishes no other data: the spinner takes the lock
    /// before it reads a lane, so `Relaxed` suffices.
    queued: AtomicUsize,
    /// A worker is spinning: the others park at once.
    spinning: AtomicBool,
    /// The spin budget, in ns: the recent park-to-wake time (see
    /// [`Queue::fold_park_cost`]). Written only under the lock.
    park_ns: AtomicU64,
    capacity: usize,
    max_batch: usize,
    stats: Arc<StatsCore>,
}

impl Queue {
    /// A queue for `workers` worker threads, each of which must call
    /// [`Queue::retire_worker`] once when it exits.
    pub(crate) fn new(
        capacity: usize,
        max_batch: usize,
        workers: usize,
        stats: Arc<StatsCore>,
    ) -> Self {
        Queue {
            state: Mutex::new(State {
                live_workers: workers,
                ..State::default()
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            queued: AtomicUsize::new(0),
            spinning: AtomicBool::new(false),
            park_ns: AtomicU64::new(0),
            capacity,
            max_batch,
            stats,
        }
    }

    /// Every update under the lock leaves the state valid, and none of
    /// them can panic midway, so a poisoned lock is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `req` on its layer's lane and counts it as submitted. A full
    /// queue fails with [`ServeError::QueueFull`] (counted as a rejection)
    /// or, with `block`, waits for space.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] as above; [`ServeError::ShuttingDown`]
    /// once the queue is closed. A refused request is defused: it counts
    /// as neither completed nor failed.
    pub(crate) fn push(&self, req: Request, block: bool) -> Result<(), ServeError> {
        let mut guard = self.lock();
        while !guard.closed && guard.queued >= self.capacity {
            if !block {
                drop(guard);
                req.defuse();
                self.stats.record_reject();
                return Err(ServeError::QueueFull);
            }
            guard = self
                .space
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if guard.closed {
            drop(guard);
            req.defuse();
            return Err(ServeError::ShuttingDown);
        }
        let st = &mut *guard;
        // Look up by `&str` first: only a layer's first request allocates
        // its lane, which shares the request's name.
        let lane = match st.lanes.get_mut(&*req.layer) {
            Some(lane) => lane,
            None => st.lanes.entry(Arc::clone(&req.layer)).or_default(),
        };
        lane.push_back(req);
        st.queued += 1;
        self.queued.store(st.queued, Ordering::Relaxed);
        self.stats.record_submit();
        let wake = st.parked > 0;
        if wake {
            st.notified_at.get_or_insert_with(Instant::now);
        }
        drop(guard);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Fills `batch`, which the caller leaves empty, with the next batch:
    /// up to `max_batch` requests of the lane whose head is oldest. While
    /// every lane is empty the worker spins for the measured park cost,
    /// then parks. Returns `false` once the queue is closed and empty,
    /// and the worker then exits.
    pub(crate) fn next_batch(&self, batch: &mut Vec<Request>) -> bool {
        let mut st = self.lock();
        let mut spun = false;
        loop {
            if let Some(cause) = self.take(&mut st, batch) {
                drop(st);
                self.stats.record_batch(batch.len(), cause);
                return true;
            }
            if st.closed {
                return false;
            }
            if !spun && !self.spinning.swap(true, Ordering::Relaxed) {
                drop(st);
                self.spin();
                self.spinning.store(false, Ordering::Relaxed);
                spun = true;
                st = self.lock();
                continue;
            }
            st.parked += 1;
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked -= 1;
            if let Some(at) = st.notified_at.take() {
                self.fold_park_cost(at.elapsed());
            }
        }
    }

    /// Moves the oldest-headed lane's first `max_batch` requests into
    /// `batch` and returns why the batch left, or `None` if every lane is
    /// empty. The rest of a longer lane stays at its head.
    fn take(&self, st: &mut State, batch: &mut Vec<Request>) -> Option<DispatchCause> {
        let lane = st
            .lanes
            .values_mut()
            .filter(|lane| !lane.is_empty())
            .min_by_key(|lane| lane[0].submitted_at)?;
        let k = lane.len().min(self.max_batch);
        batch.extend(lane.drain(..k));
        // Pushes wait for space only at capacity.
        if st.queued >= self.capacity {
            self.space.notify_all();
        }
        st.queued -= k;
        self.queued.store(st.queued, Ordering::Relaxed);
        Some(if st.closed {
            DispatchCause::Drain
        } else if k == self.max_batch {
            DispatchCause::Full
        } else {
            DispatchCause::Idle
        })
    }

    /// Polls the queued count, yielding each turn, until a request is
    /// queued or the spin budget runs out.
    fn spin(&self) {
        let budget = Duration::from_nanos(self.park_ns.load(Ordering::Relaxed));
        let start = Instant::now();
        while self.queued.load(Ordering::Relaxed) == 0 && start.elapsed() < budget {
            std::thread::yield_now();
        }
    }

    /// Folds one park-to-wake time into the spin budget: a costlier
    /// sample is taken at once, a cheaper one moves the budget an eighth
    /// of the way down to it. A park's cost is bimodal (an awake or a
    /// halted vCPU), and a plain mean sits between the modes, too short
    /// to outlast the costly one. Called under the lock, the only place
    /// `park_ns` changes.
    fn fold_park_cost(&self, sample: Duration) {
        let sample = u64::try_from(sample.min(MAX_PARK_SAMPLE).as_nanos()).unwrap_or(u64::MAX);
        let old = self.park_ns.load(Ordering::Relaxed);
        let new = if sample >= old {
            sample
        } else {
            old - (old - sample) / 8
        };
        self.park_ns.store(new, Ordering::Relaxed);
    }

    /// Refuses every later push and wakes every parked worker and blocked
    /// push. The workers drain what is queued, then exit.
    pub(crate) fn close(&self) {
        self.shut(false);
    }

    /// Closes the queue and answers every queued request
    /// [`ServeError::ShuttingDown`] (through its drop guard): for when no
    /// worker is left to drain it.
    pub(crate) fn abandon(&self) {
        self.shut(true);
    }

    fn shut(&self, fail_queued: bool) {
        let mut failed = Vec::new();
        {
            let mut st = self.lock();
            st.closed = true;
            if fail_queued {
                for lane in st.lanes.values_mut() {
                    failed.extend(lane.drain(..));
                }
                st.queued = 0;
                self.queued.store(0, Ordering::Relaxed);
            }
        }
        self.work.notify_all();
        self.space.notify_all();
        // Answered outside the lock: each drop guard sends on a channel.
        drop(failed);
    }

    /// Called once by each worker as it exits, a panic included. The last
    /// one out abandons the queue.
    pub(crate) fn retire_worker(&self) {
        let last = {
            let mut st = self.lock();
            st.live_workers = st.live_workers.saturating_sub(1);
            st.live_workers == 0
        };
        if last {
            self.abandon();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Ticket;
    use std::sync::mpsc;

    fn request(layer: &str, stats: &Arc<StatsCore>) -> (Request, Ticket) {
        Request::new(layer.into(), vec![0.0], Arc::clone(stats))
    }

    /// A queue with no workers behind it; the test plays the worker.
    fn queue(capacity: usize, max_batch: usize) -> (Queue, Arc<StatsCore>) {
        let stats = Arc::new(StatsCore::new());
        (
            Queue::new(capacity, max_batch, 0, Arc::clone(&stats)),
            stats,
        )
    }

    fn layers(batch: &[Request]) -> Vec<&str> {
        batch.iter().map(|r| &*r.layer).collect()
    }

    #[test]
    fn the_oldest_head_is_taken_first_across_layers() {
        let (q, stats) = queue(16, 8);
        let (old, _t1) = request("old", &stats);
        let (mut new, _t2) = request("new", &stats);
        new.submitted_at = old.submitted_at + Duration::from_micros(1);
        let (old2, _t3) = request("old", &stats);
        // The younger lane forms first; the older head still wins.
        q.push(new, false).unwrap();
        q.push(old, false).unwrap();
        q.push(old2, false).unwrap();
        let mut batch = Vec::new();
        assert!(q.next_batch(&mut batch));
        assert_eq!(layers(&batch), ["old", "old"]);
        batch.clear();
        assert!(q.next_batch(&mut batch));
        assert_eq!(layers(&batch), ["new"]);
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.batches, s.idle_batches), (3, 2, 2));
        assert_eq!(s.batched_requests, 3);
    }

    #[test]
    fn a_long_lane_yields_a_full_batch_and_keeps_its_remainder() {
        let (q, stats) = queue(16, 3);
        let mut tickets = Vec::new();
        let mut firsts = Vec::new();
        for _ in 0..5 {
            let (req, ticket) = request("fc", &stats);
            firsts.push(req.submitted_at);
            q.push(req, false).unwrap();
            tickets.push(ticket);
        }
        let mut batch = Vec::new();
        assert!(q.next_batch(&mut batch));
        assert_eq!(batch.len(), 3);
        let at: Vec<Instant> = batch.iter().map(|r| r.submitted_at).collect();
        assert_eq!(at, firsts[..3]);
        batch.clear();
        assert!(q.next_batch(&mut batch));
        let at: Vec<Instant> = batch.iter().map(|r| r.submitted_at).collect();
        assert_eq!(
            at,
            firsts[3..],
            "the remainder stayed at the head, in order"
        );
        let s = stats.snapshot();
        assert_eq!((s.full_batches, s.idle_batches), (1, 1));
    }

    #[test]
    fn queue_full_at_capacity_and_a_blocked_push_resumes_after_a_take() {
        let (q, stats) = queue(2, 8);
        let q = Arc::new(q);
        let mut tickets = Vec::new();
        for _ in 0..2 {
            let (req, ticket) = request("fc", &stats);
            q.push(req, false).unwrap();
            tickets.push(ticket);
        }
        let (req, _ticket) = request("fc", &stats);
        assert_eq!(q.push(req, false), Err(ServeError::QueueFull));
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.rejected, s.failed), (2, 1, 0));

        let (done_tx, done_rx) = mpsc::channel();
        let pusher = {
            let (q, stats) = (Arc::clone(&q), Arc::clone(&stats));
            std::thread::spawn(move || {
                let (req, ticket) = request("fc", &stats);
                let pushed = q.push(req, true);
                done_tx.send(()).unwrap();
                (pushed, ticket)
            })
        };
        // The queue stays full until the take below, so the push cannot
        // have returned yet.
        assert!(done_rx.recv_timeout(Duration::from_millis(50)).is_err());
        let mut batch = Vec::new();
        assert!(q.next_batch(&mut batch));
        assert_eq!(batch.len(), 2);
        done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let (pushed, _ticket) = pusher.join().unwrap();
        assert_eq!(pushed, Ok(()));
        assert_eq!(stats.snapshot().submitted, 3);
    }

    #[test]
    fn push_after_close_is_refused_and_close_drains_the_lanes() {
        let (q, stats) = queue(16, 8);
        let mut tickets = Vec::new();
        for layer in ["a", "b", "a"] {
            let (req, ticket) = request(layer, &stats);
            q.push(req, false).unwrap();
            tickets.push(ticket);
        }
        q.close();
        for block in [false, true] {
            let (req, _ticket) = request("a", &stats);
            assert_eq!(q.push(req, block), Err(ServeError::ShuttingDown));
        }
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.failed), (3, 0), "refusals count nowhere");
        let mut batch = Vec::new();
        let mut drained = 0;
        while q.next_batch(&mut batch) {
            drained += batch.len();
            batch.clear();
        }
        assert_eq!(drained, 3);
        let s = stats.snapshot();
        assert_eq!((s.batches, s.drain_batches), (2, 2));
    }

    #[test]
    fn lanes_and_the_batch_buffer_keep_their_capacity() {
        let (q, stats) = queue(16, 8);
        let mut batch = Vec::new();
        let mut buffers = Vec::new();
        let mut tickets = Vec::new();
        for _ in 0..2 {
            for _ in 0..4 {
                let (req, ticket) = request("fc", &stats);
                q.push(req, false).unwrap();
                tickets.push(ticket);
            }
            assert!(q.next_batch(&mut batch));
            assert_eq!(batch.len(), 4);
            buffers.push((batch.as_ptr(), batch.capacity()));
            batch.clear();
        }
        assert_eq!(buffers[0], buffers[1], "the batch buffer is reused");
        let st = q.lock();
        let lane = &st.lanes["fc"];
        assert!(
            lane.is_empty() && lane.capacity() >= 4,
            "the lane kept its buffer"
        );
        assert_eq!(st.queued, 0);
    }

    #[test]
    fn the_last_worker_out_fails_what_is_queued() {
        let stats = Arc::new(StatsCore::new());
        let q = Queue::new(16, 8, 2, Arc::clone(&stats));
        let (req, ticket) = request("fc", &stats);
        q.push(req, false).unwrap();
        q.retire_worker();
        assert!(!q.lock().closed, "one worker is still live");
        q.retire_worker();
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
        let (req, _ticket) = request("fc", &stats);
        assert_eq!(q.push(req, true), Err(ServeError::ShuttingDown));
        let s = stats.snapshot();
        assert_eq!((s.submitted, s.completed, s.failed), (1, 0, 1));
    }

    #[test]
    fn park_cost_rises_at_once_falls_by_an_eighth_and_caps_a_sample() {
        let (q, _) = queue(1, 1);
        let budget = || q.park_ns.load(Ordering::Relaxed);
        q.fold_park_cost(Duration::from_micros(80));
        assert_eq!(budget(), 80_000);
        q.fold_park_cost(Duration::from_micros(200));
        assert_eq!(budget(), 200_000);
        q.fold_park_cost(Duration::from_micros(40));
        assert_eq!(budget(), 180_000);
        q.fold_park_cost(Duration::from_secs(1));
        assert_eq!(budget(), 1_000_000, "one sample is capped at 1 ms");
    }
}
