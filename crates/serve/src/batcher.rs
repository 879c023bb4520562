//! The dynamic batcher: one thread assembling per-layer batches.
//!
//! ## State machine
//!
//! The batcher owns the request queue's receiving end and a map of
//! per-layer *lanes* (pending requests + the time the lane started
//! forming). Dispatch is **work-conserving**: a pending lane never waits
//! while a worker sits idle. Each loop iteration:
//!
//! 1. **Flush expired lanes** — any lane that has been forming for
//!    `max_wait` is dispatched (cause `Deadline`). Doing this *before*
//!    blocking guarantees deadline dispatch even under continuous load,
//!    where `recv` would otherwise always return a message first. The
//!    deadline counts from lane formation, not request submission, so a
//!    backlog in the request queue cannot pre-expire every batch.
//! 2. **Feed idle workers** — while [`IdleWorkers`] reports a worker with
//!    nothing queued for it, the oldest pending lane is dispatched (cause
//!    `Idle`). `max_wait` therefore only bounds the busy case: while every
//!    worker is busy, lanes keep forming until a worker frees up (it wakes
//!    the batcher) or the deadline passes, so a cold layer's lane cannot
//!    starve behind a hot layer's `Full` batches.
//! 3. **Wait** — block on the queue until the earliest lane deadline
//!    (or indefinitely if nothing is pending).
//! 4. **Handle** — a new request joins its lane; a lane reaching
//!    `max_batch` dispatches immediately (cause `Full`). Everything
//!    already waiting in the queue is drained greedily before the next
//!    dispatch decision, so lanes fill to `max_batch` under backlog. A
//!    `Wake` from a worker that just went idle carries no work: it only
//!    brings the batcher back to step 2. The `Shutdown` sentinel drains
//!    whatever raced into the queue behind it, flushes all lanes (cause
//!    `Drain`), and exits. A disconnected queue (every sender dropped)
//!    behaves like `Shutdown`.
//!
//! Dispatch sends the batch over a bounded channel to the worker pool;
//! when workers lag, a `Full` or `Deadline` send blocks and the
//! backpressure propagates naturally to the request queue and from there
//! to `submit` callers. An `Idle` send never blocks: it is only made for a
//! worker that is already waiting.
//!
//! Lanes are kept in the map once created (one per layer ever seen), so a
//! request joining an existing lane allocates nothing on this thread.

use crate::request::Request;
use crate::stats::{DispatchCause, StatsCore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What travels through the request queue.
#[derive(Debug)]
pub(crate) enum Msg {
    /// An accepted, validated request.
    Request(Request),
    /// A worker went idle with nothing queued for it: re-run the idle
    /// dispatch. Not a request — never counted as submitted or rejected.
    Wake,
    /// Shutdown sentinel: drain and exit.
    Shutdown,
}

/// A dispatched unit of work: all requests share one layer and execute as
/// one `matvec_batch_into` call.
#[derive(Debug)]
pub(crate) struct Batch {
    pub(crate) layer: Arc<str>,
    pub(crate) requests: Vec<Request>,
}

/// The work-conservation state the batcher shares with the workers.
///
/// All operations are `SeqCst`: the wake protocol is a store-buffering
/// handshake across the two atomics (a worker bumps `count` then tests
/// `wake_pending`; the batcher clears `wake_pending` then reads `count`),
/// and only a single total order guarantees that one of the two sides
/// sees the other's write, so no idle worker is ever missed.
#[derive(Debug, Default)]
pub(crate) struct IdleWorkers {
    /// Idle workers minus batches queued for them. A worker adds one each
    /// time it goes to fetch a batch; the batcher subtracts one for every
    /// batch it dispatches, whatever the cause. The count is exact, so a
    /// positive value means a worker is waiting with nothing queued for
    /// it, and an `Idle` dispatch never over-fills the batch queue.
    count: AtomicIsize,
    /// A [`Msg::Wake`] sits in the request queue, not yet consumed. At
    /// most one wake is ever in flight, so wakes occupy at most one queue
    /// slot.
    wake_pending: AtomicBool,
}

impl IdleWorkers {
    /// Called by a worker each time it goes to fetch a batch. The worker
    /// that moves the count from 0 to 1 wakes the batcher, because lanes
    /// may have formed while every worker was busy. The wake is a
    /// `try_send`: if the queue is full, the batcher has messages to
    /// handle anyway and re-checks the count after them.
    pub(crate) fn worker_ready(&self, wake: &SyncSender<Msg>) {
        if self.count.fetch_add(1, Ordering::SeqCst) == 0
            && !self.wake_pending.swap(true, Ordering::SeqCst)
            && wake.try_send(Msg::Wake).is_err()
        {
            self.wake_pending.store(false, Ordering::SeqCst);
        }
    }

    fn has_idle(&self) -> bool {
        self.count.load(Ordering::SeqCst) > 0
    }

    fn dispatched(&self) {
        self.count.fetch_sub(1, Ordering::SeqCst);
    }

    /// The batcher received the in-flight wake. Cleared *before* the next
    /// [`IdleWorkers::has_idle`] check, so a worker going idle after that
    /// check sends a fresh wake.
    fn wake_consumed(&self) {
        self.wake_pending.store(false, Ordering::SeqCst);
    }
}

/// Pending requests for one layer.
struct Lane {
    layer: Arc<str>,
    requests: Vec<Request>,
    /// When the lane started forming (first request entered an empty
    /// lane). The `max_wait` deadline counts from here, *not* from the
    /// request's submit time: under backlog the queue wait alone exceeds
    /// any reasonable `max_wait`, and a submit-time deadline would arrive
    /// pre-expired and degenerate every batch to size 1. Meaningless while
    /// the lane is empty.
    formed_at: Instant,
}

impl Lane {
    fn is_pending(&self) -> bool {
        !self.requests.is_empty()
    }
}

/// The dispatch side of the batcher, split from the lane map so a lane
/// can be dispatched while the map is borrowed.
struct Outlet {
    batch_tx: SyncSender<Batch>,
    stats: Arc<StatsCore>,
    idle: Arc<IdleWorkers>,
}

impl Outlet {
    /// Sends every pending request of `lane` as one batch. The lane stays
    /// (empty) in the map and keeps its buffer for the next batch.
    fn dispatch(&self, lane: &mut Lane, cause: DispatchCause) {
        self.stats.record_batch(lane.requests.len(), cause);
        self.idle.dispatched();
        // A failed send (worker channel torn down) drops the batch; each
        // Request's Drop then answers ShuttingDown, so no caller hangs.
        let _ = self.batch_tx.send(Batch {
            layer: Arc::clone(&lane.layer),
            requests: lane.requests.drain(..).collect(),
        });
    }
}

struct Batcher {
    lanes: HashMap<Arc<str>, Lane>,
    out: Outlet,
    max_batch: usize,
    max_wait: Duration,
}

impl Batcher {
    fn enqueue(&mut self, req: Request) {
        // Look up by `&str` first: only a layer's first request allocates
        // its lane, which shares the request's name.
        let lane = match self.lanes.get_mut(&*req.layer) {
            Some(lane) => lane,
            None => self.lanes.entry(Arc::clone(&req.layer)).or_insert(Lane {
                layer: Arc::clone(&req.layer),
                requests: Vec::new(),
                formed_at: Instant::now(),
            }),
        };
        if !lane.is_pending() {
            lane.formed_at = Instant::now();
        }
        lane.requests.push(req);
        if lane.requests.len() >= self.max_batch {
            self.out.dispatch(lane, DispatchCause::Full);
        }
    }

    /// Flushes every lane that has been forming for at least `max_wait`.
    fn flush_expired(&mut self, now: Instant) {
        for lane in self.lanes.values_mut() {
            if lane.is_pending() && now.duration_since(lane.formed_at) >= self.max_wait {
                self.out.dispatch(lane, DispatchCause::Deadline);
            }
        }
    }

    /// Hands pending lanes to idle workers, oldest `formed_at` first.
    fn feed_idle(&mut self) {
        while self.out.idle.has_idle() {
            let Some(lane) = self
                .lanes
                .values_mut()
                .filter(|l| l.is_pending())
                .min_by_key(|l| l.formed_at)
            else {
                return;
            };
            self.out.dispatch(lane, DispatchCause::Idle);
        }
    }

    fn flush_all(&mut self, cause: DispatchCause) {
        for lane in self.lanes.values_mut().filter(|l| l.is_pending()) {
            self.out.dispatch(lane, cause);
        }
    }

    /// Earliest `formed_at + max_wait` over all pending lanes.
    fn next_deadline(&self) -> Option<Instant> {
        self.lanes
            .values()
            .filter(|l| l.is_pending())
            .map(|l| l.formed_at + self.max_wait)
            .min()
    }
}

/// Batcher thread body. Runs until the `Shutdown` sentinel arrives or
/// every queue sender is dropped; either way all pending work is flushed
/// to the workers before returning (graceful drain).
pub(crate) fn run_batcher(
    req_rx: Receiver<Msg>,
    batch_tx: SyncSender<Batch>,
    max_batch: usize,
    max_wait: Duration,
    stats: Arc<StatsCore>,
    idle: Arc<IdleWorkers>,
) {
    let mut b = Batcher {
        lanes: HashMap::new(),
        out: Outlet {
            batch_tx,
            stats,
            idle,
        },
        max_batch,
        max_wait,
    };
    loop {
        b.flush_expired(Instant::now());
        b.feed_idle();
        let msg = match b.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(Instant::now());
                match req_rx.recv_timeout(wait) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => continue, // flush at loop top
                    Err(RecvTimeoutError::Disconnected) => Msg::Shutdown,
                }
            }
            None => match req_rx.recv() {
                Ok(m) => m,
                Err(_) => Msg::Shutdown,
            },
        };
        // Greedily drain everything already waiting in the queue before
        // the next dispatch decision: under backlog this is what lets
        // lanes actually fill to `max_batch` instead of flushing one
        // request per loop iteration.
        let mut next = Some(msg);
        while let Some(m) = next.take() {
            match m {
                Msg::Request(req) => {
                    b.enqueue(req);
                    next = req_rx.try_recv().ok();
                }
                Msg::Wake => {
                    b.out.idle.wake_consumed();
                    next = req_rx.try_recv().ok();
                }
                Msg::Shutdown => {
                    // Requests that raced into the queue behind the
                    // sentinel are still honoured.
                    while let Ok(m) = req_rx.try_recv() {
                        if let Msg::Request(req) = m {
                            b.enqueue(req);
                        }
                    }
                    b.flush_all(DispatchCause::Drain);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    impl IdleWorkers {
        fn with_count(count: isize) -> Arc<Self> {
            Arc::new(IdleWorkers {
                count: AtomicIsize::new(count),
                wake_pending: AtomicBool::new(false),
            })
        }
    }

    fn mk_request(layer: &str, stats: &Arc<StatsCore>) -> Request {
        let (req, ticket) = Request::new(layer.into(), vec![0.0], Arc::clone(stats));
        std::mem::forget(ticket); // tests only observe batches, not responses
        req
    }

    /// A batcher with no workers behind it: `idle` starts at the given
    /// token count, and the test plays the workers' part by hand.
    fn spawn_batcher_with_idle(
        max_batch: usize,
        max_wait: Duration,
        stats: Arc<StatsCore>,
        idle: Arc<IdleWorkers>,
    ) -> (
        SyncSender<Msg>,
        Receiver<Batch>,
        std::thread::JoinHandle<()>,
    ) {
        let (req_tx, req_rx) = sync_channel(64);
        let (batch_tx, batch_rx) = sync_channel(64);
        let handle = std::thread::spawn(move || {
            run_batcher(req_rx, batch_tx, max_batch, max_wait, stats, idle)
        });
        (req_tx, batch_rx, handle)
    }

    /// Zero idle tokens: the deadline, full-batch and drain paths behave
    /// as if every worker were busy.
    fn spawn_batcher(
        max_batch: usize,
        max_wait: Duration,
        stats: Arc<StatsCore>,
    ) -> (
        SyncSender<Msg>,
        Receiver<Batch>,
        std::thread::JoinHandle<()>,
    ) {
        spawn_batcher_with_idle(max_batch, max_wait, stats, IdleWorkers::with_count(0))
    }

    #[test]
    fn full_batch_dispatches_without_waiting() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(3, Duration::from_secs(60), Arc::clone(&stats));
        for _ in 0..3 {
            tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        }
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&*batch.layer, "fc");
        assert_eq!(batch.requests.len(), 3);
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        let s = stats.snapshot();
        assert_eq!((s.batches, s.full_batches), (1, 1));
    }

    #[test]
    fn deadline_dispatches_partial_batch() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(64, Duration::from_millis(5), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        assert_eq!(stats.snapshot().deadline_batches, 1);
    }

    #[test]
    fn layers_batch_independently() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(2, Duration::from_secs(60), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("a", &stats))).unwrap();
        tx.send(Msg::Request(mk_request("b", &stats))).unwrap();
        tx.send(Msg::Request(mk_request("a", &stats))).unwrap();
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&*batch.layer, "a");
        assert_eq!(batch.requests.len(), 2);
        // "b" is still pending; shutdown drains it.
        tx.send(Msg::Shutdown).unwrap();
        let drained = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&*drained.layer, "b");
        assert_eq!(drained.requests.len(), 1);
        handle.join().unwrap();
        assert_eq!(stats.snapshot().drain_batches, 1);
    }

    #[test]
    fn disconnect_acts_as_shutdown() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(8, Duration::from_secs(60), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        drop(tx);
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_honours_racing_requests_behind_sentinel() {
        let stats = Arc::new(StatsCore::new());
        let (req_tx, req_rx) = sync_channel(64);
        let (batch_tx, batch_rx) = sync_channel(64);
        // Enqueue request, sentinel, request *before* the batcher runs.
        req_tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        req_tx.send(Msg::Shutdown).unwrap();
        req_tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        let stats2 = Arc::clone(&stats);
        let handle = std::thread::spawn(move || {
            run_batcher(
                req_rx,
                batch_tx,
                64,
                Duration::from_secs(60),
                stats2,
                IdleWorkers::with_count(0),
            )
        });
        let batch = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            batch.requests.len(),
            2,
            "the post-sentinel request is honoured"
        );
        handle.join().unwrap();
    }

    #[test]
    fn idle_worker_takes_a_lone_request_at_once() {
        let stats = Arc::new(StatsCore::new());
        let idle = IdleWorkers::with_count(1);
        let (tx, rx, handle) = spawn_batcher_with_idle(
            64,
            Duration::from_secs(60),
            Arc::clone(&stats),
            Arc::clone(&idle),
        );
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        // Far inside the 60 s deadline: only the idle rule can have sent it.
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        assert!(!idle.has_idle(), "the token was spent on the dispatch");
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        let s = stats.snapshot();
        assert_eq!((s.batches, s.idle_batches), (1, 1));
    }

    #[test]
    fn busy_workers_hold_the_lane_until_a_wake() {
        let stats = Arc::new(StatsCore::new());
        let idle = IdleWorkers::with_count(0);
        let (tx, rx, handle) = spawn_batcher_with_idle(
            64,
            Duration::from_secs(60),
            Arc::clone(&stats),
            Arc::clone(&idle),
        );
        tx.send(Msg::Request(mk_request("fc", &stats))).unwrap();
        // Every worker busy and the deadline a minute away: nothing goes.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        // A worker frees up: 0 → 1 sends the one wake.
        idle.worker_ready(&tx);
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.requests.len(), 1);
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        let s = stats.snapshot();
        assert_eq!((s.batches, s.idle_batches, s.deadline_batches), (1, 1, 0));
    }

    #[test]
    fn deadline_still_bounds_the_busy_case() {
        let stats = Arc::new(StatsCore::new());
        let (tx, rx, handle) = spawn_batcher(64, Duration::from_millis(20), Arc::clone(&stats));
        tx.send(Msg::Request(mk_request("cold", &stats))).unwrap();
        // No token and no wake ever arrive; the deadline alone sends it.
        let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&*batch.layer, "cold");
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        let s = stats.snapshot();
        assert_eq!((s.batches, s.deadline_batches, s.idle_batches), (1, 1, 0));
    }

    #[test]
    fn idle_workers_take_the_oldest_lane_first() {
        let stats = Arc::new(StatsCore::new());
        let idle = IdleWorkers::with_count(0);
        let (tx, rx, handle) = spawn_batcher_with_idle(
            64,
            Duration::from_secs(60),
            Arc::clone(&stats),
            Arc::clone(&idle),
        );
        tx.send(Msg::Request(mk_request("old", &stats))).unwrap();
        // Separates the two lanes' formation instants.
        std::thread::sleep(Duration::from_millis(5));
        tx.send(Msg::Request(mk_request("new", &stats))).unwrap();
        for want in ["old", "new"] {
            idle.worker_ready(&tx);
            let batch = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&*batch.layer, want);
        }
        tx.send(Msg::Shutdown).unwrap();
        handle.join().unwrap();
        assert_eq!(stats.snapshot().idle_batches, 2);
    }

    #[test]
    fn at_most_one_wake_is_in_flight() {
        let idle = IdleWorkers::with_count(-1);
        let (tx, rx) = sync_channel(8);
        idle.worker_ready(&tx); // -1 → 0: a batch was queued for it
        assert!(rx.try_recv().is_err(), "no wake while a batch is queued");
        idle.worker_ready(&tx); // 0 → 1: wake
        idle.dispatched(); // 1 → 0 without the batcher consuming the wake
        idle.worker_ready(&tx); // 0 → 1 again, but a wake is pending
        assert!(matches!(rx.try_recv(), Ok(Msg::Wake)));
        assert!(rx.try_recv().is_err(), "the second wake was suppressed");
        idle.wake_consumed();
        idle.dispatched();
        idle.worker_ready(&tx);
        assert!(matches!(rx.try_recv(), Ok(Msg::Wake)));
    }

    #[test]
    fn lanes_survive_dispatch_and_reuse_their_buffer() {
        let stats = Arc::new(StatsCore::new());
        let (batch_tx, batch_rx) = sync_channel(8);
        let mut b = Batcher {
            lanes: HashMap::new(),
            out: Outlet {
                batch_tx,
                stats: Arc::clone(&stats),
                idle: IdleWorkers::with_count(0),
            },
            max_batch: 2,
            max_wait: Duration::from_secs(60),
        };
        for _ in 0..2 {
            b.enqueue(mk_request("fc", &stats));
        }
        assert_eq!(batch_rx.try_recv().unwrap().requests.len(), 2);
        let lane = &b.lanes["fc"];
        assert!(!lane.is_pending() && lane.requests.capacity() >= 2);
        assert_eq!(b.next_deadline(), None, "empty lanes have no deadline");
        b.feed_idle();
        b.flush_expired(Instant::now() + Duration::from_secs(120));
        assert!(batch_rx.try_recv().is_err(), "empty lanes never dispatch");
    }
}
