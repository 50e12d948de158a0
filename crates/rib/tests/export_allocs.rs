//! Importing and exporting a short AS path touches no path buffer:
//! `RouteAttributes::from_wire` clones the UPDATE's path inline, and
//! `exported`'s prepend builds the re-advertised path inline too, so an
//! attribute set with nothing but the mandatory attributes and a path
//! of up to 13 ASes goes in and out without an allocation.
//!
//! The shared counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`) measures it.

use std::net::Ipv4Addr;

use bgpbench_rib::RouteAttributes;
use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

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
