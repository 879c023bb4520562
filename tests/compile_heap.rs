//! Heap held by a layer compile.
//!
//! The TT-SVD's first step reads the dense weights through the fused-mode
//! index map, so compiling a layer never stores the fused tensor (a full
//! permuted copy of `w`): the largest buffer is the first step's `Vᵀ`,
//! `r_1 / (m_1 n_1)` of `w`. This binary installs a process-wide counting
//! allocator (net bytes allocated and not yet freed, and their peak, pool
//! workers included) and holds a compile to that. It keeps a single test,
//! so no other test's allocations can land in the window it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

use tie::prelude::*;
use tie::tensor::linalg::SvdMethod;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`arm`].
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
fn arm() {
    NET.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops counting and returns the peak net bytes held since [`arm`].
fn disarm_peak() -> usize {
    ARMED.store(false, Ordering::SeqCst);
    PEAK.load(Ordering::SeqCst).max(0) as usize
}

#[test]
fn compile_peak_heap_stays_below_half_of_the_weights() {
    // 1024 × 1024, modes [4; 5], rank 4: the first unfolding is
    // 16 × 65 536 and takes the wide Gram route, so `Vᵀ` is 4 × 65 536,
    // a quarter of `w`.
    let modes = vec![4usize; 5];
    let shape = TtShape::uniform_rank(modes.clone(), modes.clone(), 4).unwrap();
    let w = tie::workloads::synthetic_layer_weights(&shape, 1e-4, 2601).unwrap();
    let w_bytes = w.num_elements() * std::mem::size_of::<f64>();
    arm();
    let tt = TtMatrix::from_dense_with(
        &w,
        &modes,
        &modes,
        Truncation::rank(4),
        SvdMethod::default(),
    );
    let peak = disarm_peak();
    let tt = tt.unwrap();
    assert_eq!(tt.shape().ranks, vec![1, 4, 4, 4, 4, 1]);
    assert!(
        peak < w_bytes / 2,
        "compile held {peak} B of heap at its peak, w is {w_bytes} B"
    );
}
