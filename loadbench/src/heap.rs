//! Heap accounting for `setup_heap_mib`: the process allocator is
//! `System` plus, while armed, a count of the bytes allocated and not yet
//! freed since arming, and their peak. Disarmed, each call adds one relaxed
//! load of a flag that is never written while serving.
//!
//! Counting bytes rather than reading `VmHWM` keeps the figure free of
//! page granularity, allocator arenas and memory the allocator retains
//! after a free, all of which make resident size jump between runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`arm`]; negative when blocks
/// from before arming are freed.
static NET: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        let bytes = bytes as isize;
        let now = NET.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        NET.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: delegates every operation to `System`; the bookkeeping only
// touches atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts counting from zero.
pub fn arm() {
    NET.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops counting and returns the peak of the net bytes held since
/// [`arm`], in MiB.
#[must_use]
pub fn disarm_peak_mib() -> f64 {
    ARMED.store(false, Ordering::SeqCst);
    PEAK.load(Ordering::SeqCst).max(0) as f64 / (1024.0 * 1024.0)
}
