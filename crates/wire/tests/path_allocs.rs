//! A short AS path lives inline: decoding a one-prefix UPDATE whose
//! path has at most 14 ASes allocates only the UPDATE's attribute and
//! NLRI lists, and prepending to a path that stays within 14 ASes
//! allocates nothing.
//!
//! The shared counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`) measures it.

use std::net::Ipv4Addr;

use bgpbench_wire::{AsPath, Asn, Message, Origin, PathAttribute, Prefix, UpdateMessage};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

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
