//! A counting `#[global_allocator]` for the allocation tests: per
//! thread, and counted only inside [`allocations`].
//!
//! Included by `#[path]` from each test that measures a path, so the
//! workspace keeps one copy. Files under `tests/support/` are not test
//! targets of their own.

#![allow(
    unsafe_code,
    reason = "a global allocator is an `unsafe impl`; this is the workspace's only one"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// A switch, publishing no data: `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, which an allocator needs.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f`, returning its result and how many allocations it made on
/// this thread.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (value, ALLOCS.with(Cell::get) - before)
}
