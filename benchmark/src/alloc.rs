//! A counting `#[global_allocator]`: allocations, bytes allocated and
//! bytes freed, per thread, recorded only while a flag is set.
//!
//! The traced run sets the flag so each span can report how many
//! allocations its layer made; counts of this kind repeat exactly from
//! run to run, which timings never do. End-to-end runs leave the flag
//! clear and pay one relaxed load per allocator call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct CountingAlloc;

/// Counter values at one instant; subtract two to get a span's share.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub freed_bytes: u64,
}

// A switch, publishing no data: `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Per thread, so the single-threaded traced replica pays plain
    // loads and stores rather than atomic read-modify-writes (forty
    // allocations per one-prefix UPDATE would otherwise dominate the
    // tracing overhead). Const-initialised and without a destructor:
    // touching it never allocates and is valid for the thread's whole
    // life, both of which an allocator needs.
    static COUNTS: Cell<AllocSnapshot> = const {
        Cell::new(AllocSnapshot { allocs: 0, alloc_bytes: 0, freed_bytes: 0 })
    };
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// The calling thread's counters.
pub fn snapshot() -> AllocSnapshot {
    COUNTS.with(Cell::get)
}

fn count(allocated: usize, freed: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNTS.with(|counts| {
            let mut now = counts.get();
            if allocated > 0 {
                now.allocs += 1;
                now.alloc_bytes += allocated as u64;
            }
            now.freed_bytes += freed as u64;
            counts.set(now);
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_while_the_flag_is_set() {
        let idle = snapshot();
        let ignored = std::hint::black_box(vec![0u8; 64]);
        assert_eq!(
            snapshot().allocs,
            idle.allocs,
            "counted with the flag clear"
        );
        drop(ignored);

        set_counting(true);
        let before = snapshot();
        let block = std::hint::black_box(vec![0u8; 4096]);
        let during = snapshot();
        drop(block);
        let after = snapshot();
        set_counting(false);
        assert_eq!(during.allocs, before.allocs + 1);
        assert_eq!(during.alloc_bytes, before.alloc_bytes + 4096);
        assert_eq!(after.freed_bytes, during.freed_bytes + 4096);
    }
}
