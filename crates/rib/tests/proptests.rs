//! Property-based tests for the decision process and RIB engine.

use std::cmp::Ordering;
use std::net::Ipv4Addr;

use bgpbench_rib::{compare_routes, DecisionConfig, PeerId, PeerInfo, RibEngine, RouteAttributes};
use bgpbench_wire::{
    AsPath, AsPathSegment, Asn, Origin, PathAttribute, Prefix, RouterId, UpdateMessage,
};
use proptest::prelude::*;

const LOCAL_ASN: Asn = Asn(65000);

fn arb_attrs() -> impl Strategy<Value = RouteAttributes> {
    (
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        prop::collection::vec(1u16..9999, 1..6),
        any::<u32>(),
        prop::option::of(0u32..1000),
        prop::option::of(0u32..1000),
    )
        .prop_map(|(origin, path, hop, med, pref)| {
            let mut builder = RouteAttributes::builder()
                .origin(origin)
                .as_path(AsPath::from_sequence(path.into_iter().map(Asn)))
                .next_hop(Ipv4Addr::from(hop));
            if let Some(med) = med {
                builder = builder.med(med);
            }
            if let Some(pref) = pref {
                builder = builder.local_pref(pref);
            }
            builder.build()
        })
}

fn arb_peer(id: u32) -> impl Strategy<Value = PeerInfo> {
    (1u16..u16::MAX, 1u32..u32::MAX, any::<u32>()).prop_map(move |(asn, rid, addr)| {
        PeerInfo::new(PeerId(id), Asn(asn), RouterId(rid), Ipv4Addr::from(addr))
    })
}

proptest! {
    /// The preference relation must be antisymmetric: swapping the
    /// arguments reverses the ordering.
    #[test]
    fn decision_is_antisymmetric(
        a in arb_attrs(), b in arb_attrs(),
        pa in arb_peer(1), pb in arb_peer(2),
    ) {
        let config = DecisionConfig::default();
        let fwd = compare_routes(&config, LOCAL_ASN, &a, &pa, &b, &pb);
        let bwd = compare_routes(&config, LOCAL_ASN, &b, &pb, &a, &pa);
        prop_assert_eq!(fwd, bwd.reverse());
    }

    /// With distinct peer addresses the relation is total: equality can
    /// only arise when both routes come from the same peer state.
    #[test]
    fn decision_is_total_for_distinct_peers(
        a in arb_attrs(), b in arb_attrs(),
        pa in arb_peer(1), pb in arb_peer(2),
    ) {
        prop_assume!(pa.address() != pb.address() || pa.router_id() != pb.router_id());
        let config = DecisionConfig::default();
        let ordering = compare_routes(&config, LOCAL_ASN, &a, &pa, &b, &pb);
        prop_assert_ne!(ordering, Ordering::Equal);
    }

    /// The relation must be transitive so that "pick the max" is
    /// well-defined regardless of comparison order.
    #[test]
    fn decision_is_transitive(
        a in arb_attrs(), b in arb_attrs(), c in arb_attrs(),
        pa in arb_peer(1), pb in arb_peer(2), pc in arb_peer(3),
    ) {
        let config = DecisionConfig::default();
        let ab = compare_routes(&config, LOCAL_ASN, &a, &pa, &b, &pb);
        let bc = compare_routes(&config, LOCAL_ASN, &b, &pb, &c, &pc);
        let ac = compare_routes(&config, LOCAL_ASN, &a, &pa, &c, &pc);
        if ab == Ordering::Greater && bc == Ordering::Greater {
            prop_assert_eq!(ac, Ordering::Greater);
        }
        if ab == Ordering::Less && bc == Ordering::Less {
            prop_assert_eq!(ac, Ordering::Less);
        }
    }
}

fn build_update(attrs: &RouteAttributes, prefixes: &[Prefix]) -> UpdateMessage {
    let mut builder = UpdateMessage::builder();
    for attr in attrs.to_wire() {
        builder = builder.attribute(attr);
    }
    builder.announce_all(prefixes.iter().copied()).build()
}

proptest! {
    /// Feeding the same announcements in any order must converge to the
    /// same Loc-RIB (selection is order-independent).
    #[test]
    fn loc_rib_is_announcement_order_independent(
        attrs1 in arb_attrs(),
        attrs2 in arb_attrs(),
        prefixes in prop::collection::btree_set(any::<u16>(), 1..20),
    ) {
        let prefixes: Vec<Prefix> = prefixes
            .into_iter()
            .map(|seed| {
                Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap()
            })
            .collect();

        let make_engine = || {
            let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
            engine.add_peer(PeerInfo::new(
                PeerId(1), Asn(65001), RouterId(2), Ipv4Addr::new(10, 0, 0, 2),
            ));
            engine.add_peer(PeerInfo::new(
                PeerId(2), Asn(65002), RouterId(3), Ipv4Addr::new(10, 0, 0, 3),
            ));
            engine
        };

        prop_assume!(!attrs1.as_path().contains(LOCAL_ASN));
        prop_assume!(!attrs2.as_path().contains(LOCAL_ASN));

        let u1 = build_update(&attrs1, &prefixes);
        let u2 = build_update(&attrs2, &prefixes);

        let mut forward = make_engine();
        forward.apply_update(PeerId(1), &u1).unwrap();
        forward.apply_update(PeerId(2), &u2).unwrap();

        let mut backward = make_engine();
        backward.apply_update(PeerId(2), &u2).unwrap();
        backward.apply_update(PeerId(1), &u1).unwrap();

        for prefix in &prefixes {
            let a = forward.loc_rib().get(prefix).map(|r| r.learned_from());
            let b = backward.loc_rib().get(prefix).map(|r| r.learned_from());
            prop_assert_eq!(a, b, "selection differs for {}", prefix);
        }
    }

    /// Announce-then-withdraw from the same peer always returns the
    /// engine to an empty Loc-RIB, and the directed FIB operations
    /// balance out.
    #[test]
    fn announce_withdraw_roundtrip_empties_loc_rib(
        attrs in arb_attrs(),
        prefixes in prop::collection::btree_set(any::<u16>(), 1..30),
    ) {
        prop_assume!(!attrs.as_path().contains(LOCAL_ASN));
        let prefixes: Vec<Prefix> = prefixes
            .into_iter()
            .map(|seed| Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap())
            .collect();
        let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
        engine.add_peer(PeerInfo::new(
            PeerId(1), Asn(65001), RouterId(2), Ipv4Addr::new(10, 0, 0, 2),
        ));
        engine
            .apply_update(PeerId(1), &build_update(&attrs, &prefixes))
            .unwrap();
        prop_assert_eq!(engine.loc_rib().len(), prefixes.len());

        let withdraw = UpdateMessage::builder()
            .withdraw_all(prefixes.iter().copied())
            .build();
        engine.apply_update(PeerId(1), &withdraw).unwrap();
        prop_assert!(engine.loc_rib().is_empty());
        let stats = engine.stats();
        prop_assert_eq!(stats.fib_installs, prefixes.len() as u64);
        prop_assert_eq!(stats.fib_removes, prefixes.len() as u64);
    }

    /// Session-down purge must be indistinguishable from the peer
    /// withdrawing its whole table: same Loc-RIB, same per-prefix
    /// outcomes, same FIB traffic — and the peer stays registered and
    /// usable afterwards.
    #[test]
    fn purge_equals_withdraw_all(
        attrs1 in arb_attrs(),
        attrs2 in arb_attrs(),
        prefixes1 in prop::collection::btree_set(any::<u16>(), 1..24),
        prefixes2 in prop::collection::btree_set(any::<u16>(), 1..24),
    ) {
        prop_assume!(!attrs1.as_path().contains(LOCAL_ASN));
        prop_assume!(!attrs2.as_path().contains(LOCAL_ASN));
        let as_prefixes = |seeds: std::collections::BTreeSet<u16>| -> Vec<Prefix> {
            seeds
                .into_iter()
                .map(|seed| Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap())
                .collect()
        };
        // Overlapping tables so purging peer 1 re-runs best-path onto
        // peer 2's routes for the shared prefixes.
        let prefixes1 = as_prefixes(prefixes1);
        let prefixes2 = as_prefixes(prefixes2);

        let make_engine = || {
            let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
            engine.add_peer(PeerInfo::new(
                PeerId(1), Asn(65001), RouterId(2), Ipv4Addr::new(10, 0, 0, 2),
            ));
            engine.add_peer(PeerInfo::new(
                PeerId(2), Asn(65002), RouterId(3), Ipv4Addr::new(10, 0, 0, 3),
            ));
            engine
                .apply_update(PeerId(1), &build_update(&attrs1, &prefixes1))
                .unwrap();
            engine
                .apply_update(PeerId(2), &build_update(&attrs2, &prefixes2))
                .unwrap();
            engine
        };

        let mut purged = make_engine();
        let mut purge_outcomes = purged.purge_peer(PeerId(1)).unwrap();

        let mut withdrawn = make_engine();
        let withdraw = UpdateMessage::builder()
            .withdraw_all(prefixes1.iter().copied())
            .build();
        let mut withdraw_outcomes = withdrawn.apply_update(PeerId(1), &withdraw).unwrap();

        // Identical per-prefix outcomes (purge iterates in table order,
        // the withdraw in message order — prefixes are unique per set,
        // so sorting by prefix aligns them).
        purge_outcomes.sort_by_key(|o| o.prefix);
        withdraw_outcomes.sort_by_key(|o| o.prefix);
        prop_assert_eq!(&purge_outcomes, &withdraw_outcomes);

        // Identical Loc-RIB afterwards: peer 1's routes are gone and
        // every surviving prefix selected peer 2's route.
        prop_assert_eq!(purged.loc_rib().len(), withdrawn.loc_rib().len());
        for prefix in prefixes1.iter().chain(prefixes2.iter()) {
            let a = purged.loc_rib().get(prefix).map(|r| (r.learned_from(), r.attrs().clone()));
            let b = withdrawn.loc_rib().get(prefix).map(|r| (r.learned_from(), r.attrs().clone()));
            prop_assert_eq!(a.as_ref().map(|(p, _)| *p), b.as_ref().map(|(p, _)| *p));
            prop_assert_eq!(a.map(|(_, r)| r), b.map(|(_, r)| r));
            prop_assert_ne!(
                purged.loc_rib().get(prefix).map(|r| r.learned_from()),
                Some(PeerId(1))
            );
        }
        prop_assert_eq!(purged.stats().fib_removes, withdrawn.stats().fib_removes);
        prop_assert_eq!(purged.stats().fib_installs, withdrawn.stats().fib_installs);

        // Unlike remove_peer, the peer survives and can re-announce.
        prop_assert!(purged.adj_rib_in(PeerId(1)).is_some());
        purged
            .apply_update(PeerId(1), &build_update(&attrs1, &prefixes1))
            .unwrap();
        for prefix in &prefixes1 {
            prop_assert!(purged.loc_rib().get(prefix).is_some());
        }
    }

    /// The Loc-RIB winner must always be the maximum of the Adj-RIBs-In
    /// under the comparison function (engine/decision consistency).
    #[test]
    fn loc_rib_holds_the_decision_maximum(
        attrs1 in arb_attrs(),
        attrs2 in arb_attrs(),
    ) {
        prop_assume!(!attrs1.as_path().contains(LOCAL_ASN));
        prop_assume!(!attrs2.as_path().contains(LOCAL_ASN));
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let p1 = PeerInfo::new(PeerId(1), Asn(65001), RouterId(2), Ipv4Addr::new(10, 0, 0, 2));
        let p2 = PeerInfo::new(PeerId(2), Asn(65002), RouterId(3), Ipv4Addr::new(10, 0, 0, 3));
        let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
        engine.add_peer(p1);
        engine.add_peer(p2);
        engine.apply_update(PeerId(1), &build_update(&attrs1, &[prefix])).unwrap();
        engine.apply_update(PeerId(2), &build_update(&attrs2, &[prefix])).unwrap();

        let winner = engine.loc_rib().get(&prefix).unwrap().learned_from();
        let expected = match compare_routes(
            &DecisionConfig::default(), LOCAL_ASN, &attrs1, &p1, &attrs2, &p2,
        ) {
            Ordering::Greater | Ordering::Equal => PeerId(1),
            Ordering::Less => PeerId(2),
        };
        prop_assert_eq!(winner, expected);
    }
}

/// The part of an attribute set export keeps, drawn from pools small
/// enough that two draws often agree. The paths include `[]` and
/// `[SEQ()]`, full 255-AS leading sequences, and empty leading
/// sequences ahead of either a full one or a set.
#[derive(Debug, Clone)]
struct Kept {
    origin: Origin,
    path: Vec<AsPathSegment>,
    atomic_aggregate: bool,
    aggregator: Option<u16>,
    communities: Vec<u32>,
    unknown: Option<u8>,
}

/// The part export rewrites or strips, and the unknown attribute's
/// partial bit, which it sets.
#[derive(Debug, Clone)]
struct Dropped {
    next_hop: u32,
    med: Option<u32>,
    local_pref: Option<u32>,
    partial: bool,
}

fn arb_kept() -> impl Strategy<Value = Kept> {
    let seq = |asns: &[u16]| AsPathSegment::Sequence(asns.iter().copied().map(Asn).collect());
    let full = AsPathSegment::Sequence(vec![Asn(1); 255].into());
    let set = AsPathSegment::Set(vec![Asn(1)].into());
    let path = prop_oneof![
        Just(vec![]),
        Just(vec![seq(&[])]),
        Just(vec![seq(&[1])]),
        Just(vec![seq(&[]), seq(&[1])]),
        Just(vec![full.clone()]),
        Just(vec![seq(&[]), full]),
        Just(vec![set.clone()]),
        Just(vec![seq(&[]), set]),
        prop::collection::vec(1u16..3, 1..3).prop_map(move |asns| vec![seq(&asns)]),
    ];
    (
        prop_oneof![Just(Origin::Igp), Just(Origin::Egp)],
        path,
        any::<bool>(),
        prop::option::of(1u16..3),
        prop::collection::vec(1u32..3, 0..2),
        prop::option::of(1u8..3),
    )
        .prop_map(
            |(origin, path, atomic_aggregate, aggregator, communities, unknown)| Kept {
                origin,
                path,
                atomic_aggregate,
                aggregator,
                communities,
                unknown,
            },
        )
}

fn arb_dropped() -> impl Strategy<Value = Dropped> {
    (
        1u32..3,
        prop::option::of(1u32..3),
        prop::option::of(1u32..3),
        any::<bool>(),
    )
        .prop_map(|(next_hop, med, local_pref, partial)| Dropped {
            next_hop,
            med,
            local_pref,
            partial,
        })
}

fn build_attrs(kept: &Kept, dropped: &Dropped) -> RouteAttributes {
    let mut builder = RouteAttributes::builder()
        .origin(kept.origin)
        .as_path(AsPath::from_segments(kept.path.iter().cloned()))
        .next_hop(Ipv4Addr::from(dropped.next_hop))
        .atomic_aggregate(kept.atomic_aggregate)
        .communities(kept.communities.clone());
    if let Some(asn) = kept.aggregator {
        builder = builder.aggregator(Asn(asn), Ipv4Addr::new(10, 0, 0, 9));
    }
    if let Some(value) = kept.unknown {
        let flags = if dropped.partial { 0xE0 } else { 0xC0 };
        builder = builder.unknown_transitive(flags, 77, vec![value]);
    }
    if let Some(med) = dropped.med {
        builder = builder.med(med);
    }
    if let Some(local_pref) = dropped.local_pref {
        builder = builder.local_pref(local_pref);
    }
    builder.build()
}

/// Pairs that often export the same: the second set is drawn on its
/// own, or is the first with what export drops redrawn and at most one
/// kept part redrawn — or its path respelled with a leading empty
/// AS_SEQUENCE added or taken away, which leaves the prepended path as
/// it was unless the path then starts with a sequence that has room.
fn arb_export_pair() -> impl Strategy<Value = (RouteAttributes, RouteAttributes)> {
    (arb_kept(), arb_kept(), arb_dropped(), arb_dropped(), 0u8..9).prop_map(
        |(kept, other, dropped, other_dropped, mode)| {
            let mut mixed = kept.clone();
            match mode {
                0 => mixed = other,
                1 => mixed.origin = other.origin,
                2 => mixed.path = other.path,
                3 => mixed.atomic_aggregate = other.atomic_aggregate,
                4 => mixed.aggregator = other.aggregator,
                5 => mixed.communities = other.communities,
                6 => mixed.unknown = other.unknown,
                7 => match mixed.path.first() {
                    Some(AsPathSegment::Sequence(asns)) if asns.is_empty() => {
                        mixed.path.remove(0);
                    }
                    _ => mixed
                        .path
                        .insert(0, AsPathSegment::Sequence(Vec::new().into())),
                },
                _ => {}
            }
            (
                build_attrs(&kept, &dropped),
                build_attrs(&mixed, &other_dropped),
            )
        },
    )
}

proptest! {
    /// `exports_equal` is the comparison of the exported sets it stands
    /// in for, at any local AS (one inside the paths included).
    #[test]
    fn exports_equal_is_equality_of_the_exported_sets(
        (a, b) in arb_export_pair(),
        asn in 1u16..4,
    ) {
        let next_hop = Ipv4Addr::new(10, 0, 0, 1);
        let exported = |attrs: &RouteAttributes| attrs.exported(Asn(asn), next_hop);
        prop_assert_eq!(a.exports_equal(&b), exported(&a) == exported(&b));
        prop_assert_eq!(b.exports_equal(&a), a.exports_equal(&b));
        prop_assert!(a.exports_equal(&a));
    }
}

#[test]
fn update_with_announcement_requires_mandatory_attrs() {
    let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
    engine.add_peer(PeerInfo::new(
        PeerId(1),
        Asn(65001),
        RouterId(2),
        Ipv4Addr::new(10, 0, 0, 2),
    ));
    let update = UpdateMessage::builder()
        .attribute(PathAttribute::Origin(Origin::Igp))
        .announce("10.0.0.0/8".parse().unwrap())
        .build();
    assert!(engine.apply_update(PeerId(1), &update).is_err());
}
