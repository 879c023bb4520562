//! Thread-count control and row-partitioned dispatch for the dense kernels.
//!
//! The blocked kernels in [`crate::linalg`] split their output rows across
//! the persistent worker pool in [`crate::pool`] once a problem is large
//! enough to amortize dispatch. The worker count is resolved, in order,
//! from:
//!
//! 1. a process-wide runtime override ([`set_num_threads`], used by tests
//!    to pin determinism checks to specific counts),
//! 2. the `TIE_THREADS` environment variable (parsed once),
//! 3. [`std::thread::available_parallelism`].
//!
//! # Precedence and the live pool
//!
//! The pool never caches a thread count: [`num_threads`] is re-resolved on
//! **every** dispatch, and the resolved value decides how many slabs the
//! work is cut into. So a runtime override deterministically wins over a
//! pool whose workers were spawned under a different `TIE_THREADS` — a
//! pool grown to 8 workers dispatched after `set_num_threads(2)` produces
//! exactly 2 slabs (bit-identical to a fresh 2-thread process); the six
//! idle workers never receive work. Raising the count mid-process likewise
//! takes effect on the next dispatch (the pool lazily spawns the missing
//! workers). Clearing the override (`set_num_threads(0)`) falls back to
//! `TIE_THREADS`, which is parsed once per process.
//!
//! Small problems never dispatch: work below [`PARALLEL_MIN_WORK`] scalar
//! multiply-adds stays on the calling thread regardless of the configured
//! count. With the persistent pool, warm dispatch costs on the order of a
//! microsecond instead of the tens of microseconds a `std::thread::scope`
//! spawn/join cost, so the threshold sits 8x lower than the scoped-spawn
//! era (`1 << 17`) and mid-size compact-scheme stage GEMMs now
//! parallelize. The remaining cold-path copies (engine construction, the
//! prepared-input staging) share the same threshold through
//! [`threads_for`] — the separate element-count copy threshold died with
//! the read-side Transform permutation pass, whose hot-loop copies are now
//! fused into the GEMM write epilogue.
//!
//! # Serial executors
//!
//! A thread that is itself one of several concurrent executors runs its
//! kernels at width 1: inside [`as_serial_executor`], [`threads_for`]
//! returns 1 whatever the configured count, and [`crate::pool::dispatch`]
//! runs every slab inline. Pool workers live in this scope (the pool's
//! nesting policy), and so does every `tie-serve` worker thread: the
//! service already runs one worker per core, so a served call that also
//! fanned out onto the pool would pay a dispatch and a wake-up only to
//! compete with the other workers. Width 1 is the same code path as
//! `TIE_THREADS=1`, so results are bit-identical. Set-up work (TT-SVD
//! compilation, calibration, engine construction) runs outside the
//! scope on the caller's thread and keeps the full pool.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Minimum number of scalar multiply-adds (`m·k·n` for a GEMM) before a
/// kernel considers splitting across threads. Below this, even warm-pool
/// dispatch costs more than the compute. Re-tuned from `1 << 17` when
/// per-call `std::thread::scope` spawning was replaced by [`crate::pool`].
pub const PARALLEL_MIN_WORK: usize = 1 << 14;

/// Runtime override; `0` means "not set" (fall back to env / hardware).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `TIE_THREADS` parsed once; `0` means unset or unparsable.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// True inside [`as_serial_executor`] on this thread.
    static SERIAL_EXECUTOR: Cell<bool> = const { Cell::new(false) };
}

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("TIE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map_or(0, |n| n.max(1))
    })
}

/// Number of worker threads the hardware offers (≥ 1).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolved worker count for the dense kernels (≥ 1). Re-evaluated on
/// every dispatch; see the module docs for precedence over a live pool.
#[must_use]
pub fn num_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    let e = env_threads();
    if e > 0 {
        return e;
    }
    available_parallelism()
}

/// Overrides the worker count for this process; `0` clears the override
/// (back to `TIE_THREADS` / hardware). Returns the previous override
/// (`0` if none), so tests can restore it.
///
/// Takes effect on the **next** dispatch: the persistent pool re-resolves
/// the width per call, so an override set while the pool is warm still
/// deterministically bounds every subsequent kernel (the pool's spawned
/// workers are an upper bound on concurrency, never a floor).
pub fn set_num_threads(n: usize) -> usize {
    OVERRIDE.swap(n, Ordering::Relaxed)
}

/// Runs `f` with the calling thread marked as one of several concurrent
/// executors, so every kernel it reaches runs at width 1 and never
/// dispatches to the pool (see the module docs). The previous state comes
/// back when `f` returns or unwinds, so scopes nest.
pub fn as_serial_executor<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL_EXECUTOR.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SERIAL_EXECUTOR.with(|c| c.replace(true)));
    f()
}

/// True inside [`as_serial_executor`] on the calling thread (on pool
/// workers, always).
#[must_use]
pub fn is_serial_executor() -> bool {
    SERIAL_EXECUTOR.with(Cell::get)
}

/// Worker count for a kernel with `work` scalar multiply-adds spread over
/// `rows` independent output rows: 1 below the spawn threshold or on a
/// serial executor, otherwise the configured count capped by the row
/// count.
#[must_use]
pub fn threads_for(work: usize, rows: usize) -> usize {
    if work < PARALLEL_MIN_WORK || is_serial_executor() {
        return 1;
    }
    num_threads().min(rows.max(1))
}

/// Runs `f` over `buf` split into `threads` near-equal row slabs on the
/// persistent pool.
///
/// `buf` holds `rows` rows of `row_len` elements; each invocation gets the
/// global index of its first row and the mutable slab. With one thread (or
/// one slab) this calls `f` inline without dispatching. Slab boundaries
/// depend only on `(rows, threads)` — never on which thread runs a slab —
/// and every output element is produced by exactly one invocation, so
/// results are bit-identical for any pool size and identical to
/// [`for_each_row_slab_scoped`].
pub fn for_each_row_slab<T, F>(buf: &mut [T], rows: usize, row_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(buf.len(), rows * row_len);
    let slab_rows = rows.div_ceil(threads.max(1)).max(1);
    if threads <= 1 || slab_rows >= rows {
        f(0, buf);
        return;
    }
    crate::pool::for_each_slab(buf, slab_rows * row_len, |slab_idx, slab| {
        f(slab_idx * slab_rows, slab);
    });
}

/// Runs `f(row0, rows_in_span)` for each of `threads` near-equal row spans
/// on the persistent pool — the *range-only* form of
/// [`for_each_row_slab`], for kernels whose outputs are **scattered** (a
/// destination-mapped GEMM epilogue writes each span's rows to
/// non-contiguous, bijection-disjoint positions, so no `&mut` slab can be
/// carved out up front).
///
/// Span boundaries are the same `rows.div_ceil(threads)` partition as
/// [`for_each_row_slab`] — they depend only on `(rows, threads)`, so a
/// mapped kernel splits its rows identically to its unmapped twin and
/// stays bit-identical at any pool size. With one thread (or one span)
/// `f` runs inline on the calling thread.
pub fn for_each_row_span<F>(rows: usize, threads: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let slab_rows = rows.div_ceil(threads.max(1)).max(1);
    if threads <= 1 || slab_rows >= rows {
        f(0, rows);
        return;
    }
    let spans = rows.div_ceil(slab_rows);
    crate::pool::dispatch(spans, |idx| {
        let row0 = idx * slab_rows;
        f(row0, (row0 + slab_rows).min(rows) - row0);
    });
}

/// The pre-pool implementation of [`for_each_row_slab`]: identical slab
/// partition, but workers are freshly spawned per call via
/// `std::thread::scope`. Kept as the dispatch-latency baseline for the
/// pool benches and the tier-2 regression gate — not used by any kernel.
#[doc(hidden)]
pub fn for_each_row_slab_scoped<T, F>(
    buf: &mut [T],
    rows: usize,
    row_len: usize,
    threads: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    debug_assert_eq!(buf.len(), rows * row_len);
    let slab_rows = rows.div_ceil(threads.max(1)).max(1);
    if threads <= 1 || slab_rows >= rows {
        f(0, buf);
        return;
    }
    // Row slabs are disjoint `chunks_mut` regions, so the scoped borrows
    // are independent; `scope` joins every worker before returning.
    std::thread::scope(|scope| {
        for (slab_idx, slab) in buf.chunks_mut(slab_rows * row_len).enumerate() {
            let f = &f;
            scope.spawn(move || f(slab_idx * slab_rows, slab));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that set the process-wide override, so one
    /// test's assertions never read another's count.
    fn override_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn num_threads_is_positive_and_overridable() {
        let _serial = override_lock();
        assert!(num_threads() >= 1);
        let prev = set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(prev);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn small_work_never_splits() {
        let _serial = override_lock();
        let prev = set_num_threads(8);
        assert_eq!(threads_for(PARALLEL_MIN_WORK - 1, 1024), 1);
        assert_eq!(threads_for(PARALLEL_MIN_WORK, 1024), 8);
        // Never more threads than rows.
        assert_eq!(threads_for(PARALLEL_MIN_WORK, 2), 2);
        set_num_threads(prev);
    }

    #[test]
    fn serial_executor_runs_at_width_one_and_restores() {
        let _serial = override_lock();
        let prev = set_num_threads(8);
        assert!(!is_serial_executor());
        let inside = as_serial_executor(|| {
            // Nesting keeps the rule and does not clear it on exit.
            as_serial_executor(|| ());
            threads_for(PARALLEL_MIN_WORK, 1024)
        });
        assert_eq!(inside, 1);
        assert!(!is_serial_executor());
        assert_eq!(threads_for(PARALLEL_MIN_WORK, 1024), 8);

        let unwound = std::panic::catch_unwind(|| {
            as_serial_executor(|| panic!("executor body panics"));
        });
        assert!(unwound.is_err());
        assert!(!is_serial_executor(), "unwinding restores the state");
        assert_eq!(threads_for(PARALLEL_MIN_WORK, 1024), 8);
        set_num_threads(prev);
    }

    #[test]
    fn row_spans_match_row_slab_partition() {
        // The scatter-write form must cut rows exactly where the
        // contiguous form does, at every thread count.
        for rows in [1usize, 2, 10, 37] {
            for threads in [1usize, 2, 3, 8] {
                let spans = std::sync::Mutex::new(Vec::new());
                for_each_row_span(rows, threads, |row0, len| {
                    spans.lock().unwrap().push((row0, len));
                });
                let mut got = spans.into_inner().unwrap();
                got.sort_unstable();
                let slabs = std::sync::Mutex::new(Vec::new());
                let mut buf = vec![0u8; rows];
                for_each_row_slab(&mut buf, rows, 1, threads, |row0, slab| {
                    slabs.lock().unwrap().push((row0, slab.len()));
                });
                let mut want = slabs.into_inner().unwrap();
                want.sort_unstable();
                assert_eq!(got, want, "rows={rows} threads={threads}");
            }
        }
    }

    #[test]
    fn row_slabs_cover_everything_exactly_once() {
        let rows = 10;
        let row_len = 3;
        let mut buf = vec![0u32; rows * row_len];
        for_each_row_slab(&mut buf, rows, row_len, 4, |row0, slab| {
            for (r, row) in slab.chunks_mut(row_len).enumerate() {
                for v in row.iter_mut() {
                    *v += (row0 + r) as u32 + 1;
                }
            }
        });
        let want: Vec<u32> = (0..rows)
            .flat_map(|r| std::iter::repeat_n(r as u32 + 1, row_len))
            .collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn pooled_and_scoped_partitions_are_identical() {
        let rows = 37;
        let row_len = 5;
        for threads in [2usize, 3, 8] {
            let mut pooled = vec![0u32; rows * row_len];
            let mut scoped = vec![0u32; rows * row_len];
            let fill = |row0: usize, slab: &mut [u32]| {
                for (r, row) in slab.chunks_mut(row_len).enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = ((row0 + r) * 1000 + c) as u32;
                    }
                }
            };
            for_each_row_slab(&mut pooled, rows, row_len, threads, fill);
            for_each_row_slab_scoped(&mut scoped, rows, row_len, threads, fill);
            assert_eq!(pooled, scoped, "threads={threads}");
        }
    }

    #[test]
    fn inline_path_used_for_single_thread() {
        let mut buf = vec![0u8; 6];
        for_each_row_slab(&mut buf, 2, 3, 1, |row0, slab| {
            assert_eq!(row0, 0);
            assert_eq!(slab.len(), 6);
        });
    }

    #[test]
    fn override_flips_win_over_live_pool_mid_process() {
        // Warm the pool wide, then force a narrow override: the dispatch
        // width (observable as the set of distinct slab start rows) must
        // follow the override immediately, not the pool size.
        let _serial = override_lock();
        let prev = set_num_threads(0);
        crate::pool::prewarm(8);
        let rows = 64;
        let distinct_slabs = |threads: usize| {
            let mut buf = vec![0u8; rows];
            let starts = std::sync::Mutex::new(Vec::new());
            for_each_row_slab(&mut buf, rows, 1, threads, |row0, _slab| {
                starts.lock().unwrap().push(row0);
            });
            let mut s = starts.into_inner().unwrap();
            s.sort_unstable();
            s
        };
        set_num_threads(8);
        assert_eq!(distinct_slabs(super::num_threads().min(rows)).len(), 8);
        // Narrow mid-process: 8 spawned workers must NOT widen this.
        set_num_threads(2);
        assert_eq!(distinct_slabs(super::num_threads().min(rows)).len(), 2);
        // Widen again on the very next dispatch.
        set_num_threads(4);
        assert_eq!(distinct_slabs(super::num_threads().min(rows)).len(), 4);
        set_num_threads(prev);
    }
}
