//! The set-up heap figure counts only what is allocated after arming, so
//! the request pools and weights generated before set-up never inflate it.
//! One test in its own binary: the counter is process-wide.

use std::hint::black_box;
use tie_loadbench::heap;

const MIB: usize = 1 << 20;

#[test]
fn peak_counts_only_allocations_held_after_arming() {
    let inputs = black_box(vec![1u8; 64 * MIB]);
    heap::arm();
    let first = black_box(vec![2u8; 3 * MIB]);
    drop(first);
    let second = black_box(vec![3u8; 2 * MIB]);
    drop(inputs);
    let peak = heap::disarm_peak_mib();
    drop(second);
    assert!((3.0..3.5).contains(&peak), "peak {peak} MiB");

    // Disarmed, nothing is counted; arming again starts from zero.
    let _ignored = black_box(vec![4u8; 8 * MIB]);
    heap::arm();
    assert!(heap::disarm_peak_mib() < 0.5);
}
