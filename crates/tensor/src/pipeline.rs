//! Persistent dedicated worker group for stage pipelines.
//!
//! [`crate::pool`] is a *work-stealing* substrate: parked workers adopt
//! whichever job is oldest, and a nested dispatch runs inline on the
//! calling thread. Both properties are exactly wrong for a *pipeline*,
//! where each participant may block on a bounded channel waiting for a
//! peer — an adopted pipeline stage could park a pool worker behind a
//! channel whose producer is an unclaimed slab (a cross-job deadlock),
//! and inline nested execution would run the stages sequentially against
//! a bounded channel that assumes a live consumer.
//!
//! [`PipelineHost`] is the complement: a small set of *dedicated*
//! persistent threads that participate in every [`PipelineHost::run`]
//! call, never adopt foreign work, and park between calls. `run(f)`
//! invokes `f(i)` on worker thread `i` for `i < workers` and `f(workers)`
//! on the calling thread, returning only when **all** invocations have
//! finished — the same blocking-barrier contract as `pool::dispatch`, so
//! the closure may freely borrow caller-stack state (inputs, outputs,
//! channels). Because every branch has a dedicated live thread, bounded
//! producer/consumer handoffs between branches cannot deadlock.
//!
//! Warm `run` calls are allocation-free: the job is published as a
//! lifetime-erased borrow in a mutex-guarded slot (no boxing), exactly
//! like the pool's stack-resident job frames. The compute inside a branch
//! run by a host thread may still dispatch onto the shared
//! [`crate::pool`] — the host threads are not serial executors, so a
//! nested GEMM parallelizes normally. The branch `run` keeps on the
//! calling thread follows that thread's rule: on a serial executor (a
//! `tie-serve` worker) it runs at width 1
//! ([`crate::parallel::as_serial_executor`]).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Type-erased borrow of the closure of the `run` call in flight. Only
/// dereferenced between the epoch bump that publishes it and the matching
/// `done` increment — the caller waits out every increment before its
/// frame (and the borrow) can die.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: lifetime-erased borrow; the dereference discipline is documented
// on the type and enforced by the barrier in `PipelineHost::run`.
#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}

struct HostCtrl {
    /// Bumped once per published job; workers run a job exactly once.
    epoch: u64,
    /// The in-flight job, `None` between runs.
    job: Option<JobPtr>,
    /// Worker branches finished for the current epoch.
    done: usize,
    /// Worker branches that panicked in the current epoch.
    panics: usize,
    /// Set once by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
}

struct HostShared {
    ctrl: Mutex<HostCtrl>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The caller parks here until `done == workers`.
    done_cv: Condvar,
}

fn lock(m: &Mutex<HostCtrl>) -> MutexGuard<'_, HostCtrl> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent group of dedicated worker threads with a blocking
/// closure-barrier dispatch (see the module docs).
///
/// Dropping the host signals shutdown and joins every worker.
pub struct PipelineHost {
    shared: Arc<HostShared>,
    workers: usize,
    /// One run at a time: concurrent `run` calls serialize here (the job
    /// slot and the done counter are single-occupancy).
    run_lock: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PipelineHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHost")
            .field("workers", &self.workers)
            .finish()
    }
}

impl PipelineHost {
    /// Spawns `workers` dedicated threads (0 is valid: `run(f)` then just
    /// calls `f(0)` inline).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(HostShared {
            ctrl: Mutex::new(HostCtrl {
                epoch: 0,
                job: None,
                done: 0,
                panics: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tie-pipeline-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawn pipeline worker")
            })
            .collect();
        PipelineHost {
            shared,
            workers,
            run_lock: Mutex::new(()),
            handles,
        }
    }

    /// Number of dedicated worker threads (the caller is one extra
    /// participant: `run` passes branch indices `0..=workers`).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(i)` on worker `i` for every `i < workers` and `f(workers)`
    /// on the calling thread; returns when all branches have finished.
    ///
    /// # Panics
    ///
    /// Re-raises the calling branch's panic; a worker-branch panic is
    /// surfaced as a panic after all branches have settled (the barrier is
    /// honored either way, so borrows stay sound).
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.workers == 0 {
            f(0);
            return;
        }
        let _serial = self
            .run_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let erased: &(dyn Fn(usize) + Sync) = &f;
            // SAFETY: lifetime erasure only — the pointer is dereferenced
            // exclusively while this frame is pinned below waiting for
            // `done == workers`.
            #[allow(unsafe_code)]
            let erased = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    erased,
                )
            };
            let mut ctrl = lock(&self.shared.ctrl);
            ctrl.job = Some(JobPtr(erased));
            ctrl.done = 0;
            ctrl.panics = 0;
            ctrl.epoch += 1;
            self.shared.work_cv.notify_all();
        }

        // The caller is the most-downstream branch. Even if it panics, the
        // barrier below must complete before unwinding: the workers still
        // hold the lifetime-erased borrow.
        let caller = catch_unwind(AssertUnwindSafe(|| f(self.workers)));

        let mut ctrl = lock(&self.shared.ctrl);
        while ctrl.done < self.workers {
            ctrl = self
                .shared
                .done_cv
                .wait(ctrl)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        ctrl.job = None;
        let worker_panics = ctrl.panics;
        drop(ctrl);

        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) => {
                assert_eq!(worker_panics, 0, "pipeline worker branch panicked");
            }
        }
    }
}

impl Drop for PipelineHost {
    fn drop(&mut self) {
        {
            let mut ctrl = lock(&self.shared.ctrl);
            ctrl.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, shared: &HostShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut ctrl = lock(&shared.ctrl);
            loop {
                if ctrl.shutdown {
                    return;
                }
                if ctrl.epoch > seen {
                    break;
                }
                ctrl = shared
                    .work_cv
                    .wait(ctrl)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            seen = ctrl.epoch;
            ctrl.job.expect("published epoch carries a job")
        };
        // SAFETY: the caller of `run` is pinned until `done` below reaches
        // `workers`, so the borrow behind the pointer is live for the
        // whole call.
        #[allow(unsafe_code)]
        let f = unsafe { &*job.0 };
        let panicked = catch_unwind(AssertUnwindSafe(|| f(index))).is_err();
        let mut ctrl = lock(&shared.ctrl);
        ctrl.done += 1;
        if panicked {
            ctrl.panics += 1;
        }
        drop(ctrl);
        // Unconditional: the caller re-checks `done` under the lock, and a
        // branch finishing is rare enough that a spurious wake is free.
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_branches_run_exactly_once() {
        let host = PipelineHost::new(3);
        let hits = [const { AtomicUsize::new(0) }; 4];
        host.run(|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
        // Warm reuse: same threads, fresh epoch.
        host.run(|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn zero_workers_runs_inline() {
        let host = PipelineHost::new(0);
        let hits = AtomicUsize::new(0);
        host.run(|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn branches_can_borrow_caller_stack_mutably_via_mutexes() {
        let host = PipelineHost::new(2);
        let outputs: Vec<Mutex<Vec<u32>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
        host.run(|i| {
            outputs[i].lock().unwrap().push(i as u32 + 10);
        });
        let got: Vec<u32> = outputs.iter().map(|m| m.lock().unwrap()[0]).collect();
        assert_eq!(got, vec![10, 11, 12]);
    }

    #[test]
    fn worker_panic_is_surfaced_after_the_barrier() {
        let host = PipelineHost::new(1);
        let result = catch_unwind(AssertUnwindSafe(|| {
            host.run(|i| {
                if i == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The host survives: the next run proceeds normally.
        let hits = AtomicUsize::new(0);
        host.run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_cleanly_with_parked_workers() {
        let host = PipelineHost::new(4);
        host.run(|_| {});
        drop(host); // must not hang
    }
}
