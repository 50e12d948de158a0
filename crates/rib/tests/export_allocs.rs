//! Importing and exporting a short AS path touches no path buffer:
//! `RouteAttributes::from_wire` clones the UPDATE's path inline, and
//! `exported`'s prepend builds the re-advertised path inline too, so an
//! attribute set with nothing but the mandatory attributes and a path
//! of up to 13 ASes goes in and out without an allocation.
//!
//! A counting `#[global_allocator]` (per thread, counted only while a
//! flag is set) measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};

use bgpbench_rib::RouteAttributes;
use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute};

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
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    (value, ALLOCS.with(Cell::get) - before)
}

#[test]
fn importing_and_exporting_a_short_path_allocates_nothing() {
    for hops in 1..=13 {
        let wire = [
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence((1..=hops).map(|n| Asn(64_500 + n)))),
            PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
            PathAttribute::Med(10),
        ];
        let (exported, allocs) = allocations(|| {
            let imported = RouteAttributes::from_wire(&wire)?;
            Ok::<_, bgpbench_rib::RibError>(
                imported.exported(Asn(65_000), Ipv4Addr::new(198, 51, 100, 1)),
            )
        });
        let exported = exported.unwrap();
        assert_eq!(exported.as_path().length(), usize::from(hops) + 1);
        assert_eq!(exported.as_path().first_as(), Some(Asn(65_000)));
        assert_eq!(exported.med(), None);
        assert_eq!(allocs, 0, "{hops} hops");
    }
}
