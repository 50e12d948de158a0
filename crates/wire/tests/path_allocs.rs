//! A short AS path lives inline: decoding a one-prefix UPDATE whose
//! path has at most 14 ASes allocates only the UPDATE's attribute and
//! NLRI lists, and prepending to a path that stays within 14 ASes
//! allocates nothing.
//!
//! A counting `#[global_allocator]` (per thread, counted only while a
//! flag is set) measures it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};

use bgpbench_wire::{AsPath, Asn, Message, Origin, PathAttribute, Prefix, UpdateMessage};

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

fn path(hops: u16) -> AsPath {
    AsPath::from_sequence((1..=hops).map(|n| Asn(64_500 + n)))
}

/// One UPDATE announcing 10.0.0.0/24 over a path of `hops` ASes: the
/// paper's small packet.
fn small_update(hops: u16) -> Vec<u8> {
    let update = UpdateMessage::builder()
        .attribute(PathAttribute::Origin(Origin::Igp))
        .attribute(PathAttribute::AsPath(path(hops)))
        .attribute(PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)))
        .announce(Prefix::new_masked(Ipv4Addr::new(10, 0, 0, 0), 24).unwrap())
        .build();
    Message::Update(update).encode().unwrap()
}

#[test]
fn decoding_a_small_update_allocates_only_its_two_lists() {
    for hops in 1..=14 {
        let bytes = small_update(hops);
        let (decoded, allocs) = allocations(|| Message::decode(&bytes));
        let Ok((Message::Update(update), _)) = decoded else {
            panic!("{hops} hops: not an UPDATE: {decoded:?}");
        };
        assert_eq!(update.nlri().len(), 1);
        assert_eq!(allocs, 2, "{hops} hops: attributes + NLRI, no path block");
    }
}

#[test]
fn prepending_within_fourteen_ases_allocates_nothing() {
    for hops in 0..=13 {
        let path = path(hops);
        let (prepended, allocs) = allocations(|| path.prepend(Asn(65_000)));
        assert_eq!(prepended.length(), usize::from(hops) + 1);
        assert_eq!(allocs, 0, "{hops} hops");
    }
    // The fifteenth AS spills the segment to one heap block.
    let path = path(14);
    let (prepended, allocs) = allocations(|| path.prepend(Asn(65_000)));
    assert_eq!(prepended.length(), 15);
    assert_eq!(allocs, 1);
}
