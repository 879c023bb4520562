//! Persistent work-stealing thread pool — the execution substrate for every
//! parallel kernel in the workspace.
//!
//! Before this module existed, each parallel kernel paid a fresh
//! `std::thread::scope` spawn/join per call: tens of microseconds of OS
//! overhead that forced the spawn threshold
//! ([`crate::parallel::PARALLEL_MIN_WORK`]) to stay conservative and left
//! mid-size stage GEMMs of the compact scheme single-threaded. Here the
//! workers are spawned **once**, parked on a condvar while idle, and woken
//! per dispatch — warm-pool dispatch is a mutex hand-off plus a wake, not a
//! `clone(2)`.
//!
//! # Execution model
//!
//! A dispatch publishes a **job**: a borrowed closure `f(slab_idx)` plus a
//! slab count. Slabs are *statically assigned, disjoint* units of work
//! (e.g. row ranges of an output matrix) — the pool's atomic claim counter
//! only decides **who** runs a slab, never how that slab's outputs are
//! accumulated. Workers and the dispatching thread all pull slab indices
//! from the same `fetch_add` counter (dynamic stealing/rebalancing), so an
//! uneven slab costs no tail latency, yet results are **bit-identical for
//! any pool size** and identical to a serial left-to-right execution of the
//! slabs. The dispatcher participates in its own job (help-first) and only
//! blocks once the claim counter is exhausted.
//!
//! # Nesting policy
//!
//! A thread that is itself one of several concurrent executors runs its
//! kernels serially ([`crate::parallel::as_serial_executor`]). Pool
//! workers are such threads: one that reaches another dispatch (a pooled
//! GEMM calling a pooled transform) runs the inner job's slabs **inline,
//! in ascending slab order** on its own thread. Inline execution is
//! bit-identical to distributed execution (slabs are independent), and a
//! worker never blocks on a nested join — so nested parallelism cannot
//! deadlock the pool. `tie-serve` worker threads follow the same rule:
//! the service runs one worker per core, so each served engine call runs
//! at width 1 and never dispatches here. The remaining dispatchers
//! (set-up work on the caller's thread, pipeline stage threads, direct
//! library callers) may dispatch concurrently; the pool holds a list of
//! in-flight jobs and idle workers adopt the oldest one with unclaimed
//! slabs.
//!
//! # Sizing
//!
//! The pool is lazily grown: a dispatch that wants `w` parallel slabs
//! ensures `w − 1` workers exist (capped at [`MAX_WORKERS`]). The *dispatch
//! width* is resolved per call by [`crate::parallel::threads_for`], so
//! [`crate::parallel::set_num_threads`] and `TIE_THREADS` take effect on
//! the next dispatch: a pool grown to 16 workers dispatched at width 2
//! creates 2 slabs — the extra workers never see work. Workers are never
//! reaped; parked threads cost a few kilobytes each and no CPU.
//!
//! # Steady-state allocation
//!
//! Dispatch is allocation-free in steady state: the job lives on the
//! dispatcher's stack, workers reference it through a pointer registered in
//! a pre-grown job list, and a participation count keeps the frame alive
//! until every reference is dropped. (First-ever dispatches pay one-time
//! worker spawns and job-list growth.) This preserves the compact engine's
//! zero-alloc hot path (`tests/zero_alloc.rs`) now that its transforms
//! dispatch here.

use crate::parallel::{as_serial_executor, is_serial_executor};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Hard cap on spawned workers, a guard against pathological `TIE_THREADS`
/// values. Parked workers are cheap but not free (stack reservations).
pub const MAX_WORKERS: usize = 256;

/// Rounds an idle worker busy-polls the publish epoch before parking on the
/// condvar. Back-to-back stage dispatches (the compact scheme issues `d`
/// GEMMs per inference) land in this window and skip the park/unpark
/// round-trip entirely.
const SPIN_ROUNDS: usize = 4096;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight dispatch. Lives on the **dispatcher's stack**; workers
/// reach it through a raw pointer registered in the pool's job list. The
/// dispatcher does not return (and the frame does not die) until every slab
/// has completed *and* every adopting worker has dropped its reference.
struct JobCore {
    /// Type-erased borrow of the dispatch closure. Only ever dereferenced
    /// between a successful slab claim (`next.fetch_add < total`) and the
    /// matching `completed` increment — both of which the dispatcher waits
    /// out in [`JobCore::wait_done`] before its frame is torn down.
    f: *const (dyn Fn(usize) + Sync),
    /// Total slab count.
    total: usize,
    /// Next unclaimed slab index (may overshoot `total` by one per
    /// claimant; claims at or past `total` are no-ops).
    next: AtomicUsize,
    /// Completed slab count; the job is done when this reaches `total`.
    completed: AtomicUsize,
    /// Workers currently holding a reference to this frame (adoption is
    /// counted under the pool lock, release under `done`).
    refs: AtomicUsize,
    /// First panic payload caught while running a slab; re-thrown on the
    /// dispatcher once the job has fully quiesced.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion signal: guards the `completed == total && refs == 0`
    /// predicate the dispatcher sleeps on.
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: all fields are themselves thread-safe (atomics, mutexes) except
// `f`, whose dereference discipline is documented on the field: it is only
// called while the dispatcher is pinned inside `dispatch`, which outlives
// every dereference by construction of the claim/refs protocol.
#[allow(unsafe_code)]
unsafe impl Send for JobCore {}
#[allow(unsafe_code)]
unsafe impl Sync for JobCore {}

impl JobCore {
    fn new(f: &(dyn Fn(usize) + Sync), total: usize) -> Self {
        // SAFETY: lifetime erasure only — the pointer is dereferenced
        // exclusively while the borrow is live (see `f`'s field docs and
        // the claim/refs protocol in `dispatch`).
        #[allow(unsafe_code)]
        let f = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        JobCore {
            f,
            total,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            refs: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    fn has_remaining(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.total
    }

    /// Claims and runs slabs until the claim counter is exhausted. Called
    /// by the dispatcher (help-first) and by every adopting worker.
    fn run_claims(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.total {
                return;
            }
            // SAFETY: the claim above grants this thread the exclusive
            // right to slab `idx`; the dispatcher cannot return (and the
            // closure's borrow cannot end) until `completed` reaches
            // `total`, which requires this call to have finished.
            #[allow(unsafe_code)]
            let f = unsafe { &*self.f };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
                let mut slot = lock(&self.panic);
                slot.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                let _g = lock(&self.done);
                self.done_cv.notify_all();
            }
        }
    }

    /// Drops a worker's reference and wakes the dispatcher if it is the
    /// last thing holding the frame open.
    fn release_ref(&self) {
        let _g = lock(&self.done);
        self.refs.fetch_sub(1, Ordering::AcqRel);
        self.done_cv.notify_all();
    }

    /// Blocks the dispatcher until every slab completed and no worker
    /// still references this frame. Must be called after the job has been
    /// removed from the pool's job list (no new adoptions possible).
    fn wait_done(&self) {
        let mut g = lock(&self.done);
        while self.completed.load(Ordering::Acquire) < self.total
            || self.refs.load(Ordering::Acquire) > 0
        {
            g = self.done_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Copyable handle to a stack-resident [`JobCore`], stored in the pool's
/// job list.
#[derive(Clone, Copy)]
struct JobRef(*const JobCore);

// SAFETY: the pointee is kept alive by the dispatch protocol (handles are
// removed from the job list before the dispatcher's frame can die, and
// adopted handles are tracked by `refs`); `JobCore` itself is `Sync`.
#[allow(unsafe_code)]
unsafe impl Send for JobRef {}

struct PoolState {
    /// In-flight jobs, oldest first. Entries are removed by their
    /// dispatcher (always, before it returns) and opportunistically by
    /// workers once fully claimed.
    jobs: Vec<JobRef>,
    /// Workers spawned so far (never shrinks; see module docs on sizing).
    spawned: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes parked workers when a job is published.
    work_cv: Condvar,
    /// Bumped on every publish; idle workers spin on it briefly before
    /// parking so back-to-back dispatches skip the condvar round-trip.
    epoch: AtomicU64,
}

fn shared() -> &'static PoolShared {
    static POOL: OnceLock<PoolShared> = OnceLock::new();
    POOL.get_or_init(|| PoolShared {
        state: Mutex::new(PoolState {
            // Pre-grown so steady-state publishes never reallocate; only
            // more than `MAX_WORKERS` *concurrent* dispatchers could
            // outgrow this, and growth is amortized anyway.
            jobs: Vec::with_capacity(MAX_WORKERS),
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        epoch: AtomicU64::new(0),
    })
}

/// Number of pool workers spawned so far in this process (diagnostic; used
/// by benches and tests).
#[must_use]
pub fn spawned_workers() -> usize {
    lock(&shared().state).spawned
}

/// Number of jobs published to the pool so far in this process
/// (diagnostic; used by tests). Inline runs — one slab, or a dispatch on a
/// serial executor — publish nothing and do not count.
#[must_use]
pub fn dispatches() -> u64 {
    shared().epoch.load(Ordering::Acquire)
}

/// Ensures at least `min(n, MAX_WORKERS)` workers exist, spawning any
/// missing ones now. Dispatch does this automatically; benches call it to
/// measure warm-pool latency without a first-dispatch spawn in the timing.
pub fn prewarm(n: usize) {
    let pool = shared();
    let mut st = lock(&pool.state);
    ensure_workers(pool, &mut st, n);
}

fn ensure_workers(pool: &'static PoolShared, st: &mut PoolState, want: usize) {
    let want = want.min(MAX_WORKERS);
    while st.spawned < want {
        let id = st.spawned;
        std::thread::Builder::new()
            .name(format!("tie-pool-{id}"))
            .spawn(move || as_serial_executor(|| worker_loop(pool)))
            .expect("spawn tie-pool worker");
        st.spawned += 1;
    }
}

fn worker_loop(pool: &'static PoolShared) {
    loop {
        // Adopt the oldest job with unclaimed slabs, if any.
        let adopted: Option<JobRef> = {
            let mut st = lock(&pool.state);
            st.jobs.retain(|j| {
                // SAFETY: list entries point at live dispatcher frames —
                // each dispatcher removes its own entry before returning.
                #[allow(unsafe_code)]
                let core = unsafe { &*j.0 };
                core.has_remaining()
            });
            st.jobs.first().copied().inspect(|j| {
                // Count the adoption while still holding the pool lock, so
                // the dispatcher's removal (also under this lock) strictly
                // precedes or strictly follows it.
                #[allow(unsafe_code)]
                let core = unsafe { &*j.0 };
                core.refs.fetch_add(1, Ordering::AcqRel);
            })
        };
        if let Some(j) = adopted {
            // SAFETY: `refs` was incremented under the pool lock above, so
            // the dispatcher's `wait_done` keeps the frame alive until
            // `release_ref` below.
            #[allow(unsafe_code)]
            let core = unsafe { &*j.0 };
            core.run_claims();
            core.release_ref();
            continue;
        }
        // Idle: spin briefly on the publish epoch, then park.
        let seen = pool.epoch.load(Ordering::Acquire);
        let mut woke_early = false;
        for i in 0..SPIN_ROUNDS {
            if pool.epoch.load(Ordering::Acquire) != seen {
                woke_early = true;
                break;
            }
            if i % 64 == 63 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        if woke_early {
            continue;
        }
        let mut st = lock(&pool.state);
        while st.jobs.is_empty() && pool.epoch.load(Ordering::Acquire) == seen {
            st = pool
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `f(0), f(1), …, f(slabs − 1)`, each exactly once, distributing the
/// calls across the persistent pool; returns once **all** calls have
/// finished. `f` must treat distinct slab indices as fully independent
/// units (the pool may run them concurrently, in any assignment, on any
/// thread — including the calling one).
///
/// On a serial executor — a pool worker (nested dispatch) or a
/// `tie-serve` worker — the slabs run inline in ascending order:
/// bit-identical for independent slabs and immune to pool exhaustion
/// deadlocks. Panics from any slab are resurfaced on the calling thread
/// after the job has quiesced.
pub fn dispatch<F: Fn(usize) + Sync>(slabs: usize, f: F) {
    if slabs == 0 {
        return;
    }
    if slabs == 1 || is_serial_executor() {
        for i in 0..slabs {
            f(i);
        }
        return;
    }
    let f: &(dyn Fn(usize) + Sync) = &f;
    let pool = shared();
    let job = JobCore::new(f, slabs);
    {
        let mut st = lock(&pool.state);
        ensure_workers(pool, &mut st, slabs - 1);
        st.jobs.push(JobRef(&job));
        pool.epoch.fetch_add(1, Ordering::Release);
        pool.work_cv.notify_all();
    }
    // Help-first: the dispatcher claims slabs alongside the workers.
    job.run_claims();
    // Unpublish before waiting: after this no NEW worker can adopt the
    // job; workers already holding it are accounted for in `refs`.
    {
        let mut st = lock(&pool.state);
        st.jobs.retain(|j| !std::ptr::eq(j.0, &job));
    }
    job.wait_done();
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Pointer wrapper that lets a dispatch closure carve disjoint `&mut`
/// slabs out of one buffer across threads.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Method (not field) access, so closures capture the whole wrapper —
    /// keeping the `Send`/`Sync` impls below in force — rather than the
    /// bare `*mut T` via Rust 2021 precise capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer is only used to materialize disjoint sub-slices
// (distinct slab indices → non-overlapping ranges), each touched by exactly
// one claimant at a time.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Splits `buf` into contiguous chunks of `chunk_len` elements (the last
/// may be short) and runs `f(chunk_idx, chunk)` for each across the pool.
///
/// This is the mutable-buffer form of [`dispatch`]: every chunk is a
/// disjoint `&mut` slab handed to exactly one invocation, and the call
/// returns only after all invocations finish — equivalent to
/// `buf.chunks_mut(chunk_len).enumerate().for_each(…)` but parallel.
pub fn for_each_slab<T, F>(buf: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = buf.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let slabs = len.div_ceil(chunk_len);
    if slabs == 1 {
        f(0, buf);
        return;
    }
    let base = SendPtr(buf.as_mut_ptr());
    dispatch(slabs, move |idx| {
        let start = idx * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: `dispatch` runs each index exactly once and `buf`
        // outlives the call (it is borrowed for the duration); distinct
        // indices map to disjoint `[start, end)` ranges of the original
        // slice, so each invocation holds the only live reference to its
        // chunk.
        #[allow(unsafe_code)]
        let slab = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(idx, slab);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_slab_runs_exactly_once() {
        for slabs in [1usize, 2, 3, 7, 16, 61] {
            let counts: Vec<AtomicU32> = (0..slabs).map(|_| AtomicU32::new(0)).collect();
            dispatch(slabs, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "slab {i} of {slabs}");
            }
        }
    }

    #[test]
    fn for_each_slab_covers_buffer_with_disjoint_chunks() {
        let mut buf = vec![0u32; 103];
        for_each_slab(&mut buf, 10, |idx, slab| {
            for v in slab.iter_mut() {
                *v += idx as u32 + 1;
            }
        });
        for (e, &v) in buf.iter().enumerate() {
            assert_eq!(v, (e / 10) as u32 + 1, "element {e}");
        }
        // Degenerate inputs.
        for_each_slab(&mut [] as &mut [u32], 4, |_, _| panic!("no chunks"));
        let mut one = [7u8];
        for_each_slab(&mut one, 0, |idx, slab| {
            assert_eq!((idx, slab.len()), (0, 1));
        });
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let hits = AtomicU32::new(0);
        dispatch(4, |_outer| {
            // On a pool worker this inner dispatch must run inline; on the
            // dispatcher thread it goes through the pool. Either way all
            // inner slabs must execute.
            dispatch(3, |_inner| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn serial_executor_runs_slabs_inline_in_order() {
        let me = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        crate::parallel::as_serial_executor(|| {
            dispatch(5, |i| {
                assert_eq!(std::thread::current().id(), me, "slab {i} left the thread");
                lock(&order).push(i);
            });
        });
        assert_eq!(*lock(&order), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_dispatchers_all_complete() {
        let total = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        dispatch(5, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 8 * 5);
    }

    #[test]
    fn slab_panic_propagates_to_dispatcher() {
        let result = std::panic::catch_unwind(|| {
            dispatch(4, |i| {
                assert!(i != 2, "slab 2 exploded");
            });
        });
        assert!(result.is_err(), "panic must resurface on the dispatcher");
        // The pool must still be usable afterwards.
        let ok = AtomicU32::new(0);
        dispatch(4, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn prewarm_is_capped_and_monotone() {
        prewarm(2);
        let a = spawned_workers();
        assert!(a >= 2);
        prewarm(1); // never shrinks
        assert!(spawned_workers() >= a);
        prewarm(MAX_WORKERS + 1000);
        assert!(spawned_workers() <= MAX_WORKERS);
    }
}
