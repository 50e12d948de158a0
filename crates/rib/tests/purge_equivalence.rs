//! Property: `ShardedRibEngine::purge_peer` is shard-count
//! independent.
//!
//! A peer purge (session flap / peer removal) walks every shard and
//! withdraws the peer's routes. Outcomes concatenate in shard order —
//! an order the API deliberately leaves unspecified, matching the
//! single engine's own unspecified table-iteration order — so the
//! contract to hold is *set* equivalence: the same per-prefix outcome
//! multiset, and bit-identical surviving table state, for shards ∈
//! {1, 4, 8}.

use std::net::Ipv4Addr;

use bgpbench_rib::{PeerId, PeerInfo, PrefixOutcome, RouteAttributes, ShardedRibEngine};
use bgpbench_wire::{AsPath, Asn, Origin, Prefix, RouterId, UpdateMessage};
use proptest::prelude::*;

const LOCAL_ASN: Asn = Asn(65000);
const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// The peers every engine registers. Peer 1 is always the purge
/// victim; peers 2 and 3 provide alternate routes that must survive
/// (and be promoted by) the purge identically across shard counts.
fn peer_roster() -> Vec<PeerInfo> {
    (1u32..=3)
        .map(|id| {
            PeerInfo::new(
                PeerId(id),
                Asn(65000 + id as u16),
                RouterId(id + 10),
                Ipv4Addr::from(0x0A00_0000 | id),
            )
        })
        .collect()
}

/// Distinct attribute sets per peer so best-route selection after the
/// purge has real work to do (different AS-path lengths break ties
/// differently per prefix owner).
fn attrs_for(peer: u32, pref_seed: u32) -> RouteAttributes {
    let path: Vec<Asn> = (0..=(peer as u16 % 3))
        .map(|hop| Asn(65000 + peer as u16 + hop))
        .collect();
    RouteAttributes::builder()
        .origin(Origin::Igp)
        .as_path(AsPath::from_sequence(path))
        .next_hop(Ipv4Addr::from(0x0A00_0000 | peer))
        .local_pref(100 + pref_seed % 3)
        .build()
}

fn announce(attrs: &RouteAttributes, prefixes: &[Prefix]) -> UpdateMessage {
    let mut builder = UpdateMessage::builder();
    for attr in attrs.to_wire() {
        builder = builder.attribute(attr);
    }
    builder.announce_all(prefixes.iter().copied()).build()
}

/// Builds an engine with `shards` shards, loads the generated
/// announcements, purges peer 1, and returns the purge outcomes plus
/// the surviving Loc-RIB as a sorted value snapshot.
fn run_purge(
    shards: usize,
    prefixes: &[Prefix],
    announcements: &[(u32, Vec<Prefix>)],
) -> (
    Vec<PrefixOutcome>,
    Vec<(Prefix, PeerId, RouteAttributes)>,
    usize,
) {
    let mut engine = ShardedRibEngine::new(LOCAL_ASN, RouterId(1));
    for info in peer_roster() {
        engine.add_peer(info);
    }
    engine.set_shards(shards);

    for (peer, announced) in announcements {
        if announced.is_empty() {
            continue;
        }
        let attrs = attrs_for(*peer, announced.len() as u32);
        engine
            .apply_update(PeerId(*peer), &announce(&attrs, announced))
            .expect("announcement applies");
    }

    let mut outcomes = engine.purge_peer(PeerId(1)).expect("peer 1 is registered");
    outcomes.sort_by_key(|a| a.prefix);

    let mut survivors: Vec<(Prefix, PeerId, RouteAttributes)> = engine
        .loc_rib()
        .iter()
        .map(|route| {
            (
                route.prefix(),
                route.learned_from(),
                route.attrs().as_ref().clone(),
            )
        })
        .collect();
    survivors.sort_by_key(|a| a.0);

    // Sanity: the partition must actually route prefixes to every
    // shard it can (vacuous multi-shard runs would prove nothing).
    let populated = engine
        .shards()
        .iter()
        .filter(|shard| !shard.loc_rib().is_empty())
        .count();
    let _ = prefixes;
    (outcomes, survivors, populated)
}

proptest! {
    /// Purging a peer yields the same outcome multiset and the same
    /// surviving Loc-RIB whether the table lives in 1, 4, or 8
    /// shards.
    #[test]
    fn purge_peer_is_shard_count_independent(
        prefix_seeds in prop::collection::btree_set(any::<u16>(), 1..40),
        // Per prefix: a 3-bit mask of which peers announce it.
        masks in prop::collection::vec(1u8..8, 40..41),
    ) {
        let prefixes: Vec<Prefix> = prefix_seeds
            .into_iter()
            .map(|seed| {
                Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap()
            })
            .collect();

        // Assign each prefix to the peers its mask selects.
        let announcements: Vec<(u32, Vec<Prefix>)> = (1u32..=3)
            .map(|peer| {
                let owned: Vec<Prefix> = prefixes
                    .iter()
                    .zip(&masks)
                    .filter(|(_, mask)| *mask & (1 << (peer - 1)) != 0)
                    .map(|(prefix, _)| *prefix)
                    .collect();
                (peer, owned)
            })
            .collect();

        let (base_outcomes, base_survivors, _) =
            run_purge(SHARD_COUNTS[0], &prefixes, &announcements);
        for &shards in &SHARD_COUNTS[1..] {
            let (outcomes, survivors, _) = run_purge(shards, &prefixes, &announcements);
            prop_assert_eq!(
                &outcomes, &base_outcomes,
                "purge outcomes diverge at {} shards", shards
            );
            prop_assert_eq!(
                &survivors, &base_survivors,
                "surviving Loc-RIB diverges at {} shards", shards
            );
        }

        // Every purged prefix was one peer 1 announced; every prefix
        // peer 1 exclusively owned is gone from the survivors.
        let victim_prefixes = &announcements[0].1;
        for outcome in &base_outcomes {
            prop_assert!(victim_prefixes.contains(&outcome.prefix));
        }
        let exclusive: Vec<Prefix> = prefixes
            .iter()
            .zip(&masks)
            .filter(|(_, mask)| **mask == 0b001)
            .map(|(prefix, _)| *prefix)
            .collect();
        for prefix in &exclusive {
            prop_assert!(
                !base_survivors.iter().any(|(p, _, _)| p == prefix),
                "{} was only peer 1's and must not survive its purge", prefix
            );
        }
    }

    /// With enough prefixes the 8-shard engine genuinely spreads the
    /// table, so the equivalence above exercises the multi-shard
    /// concatenation path rather than a single populated shard.
    #[test]
    fn purge_equivalence_is_not_vacuous(
        prefix_seeds in prop::collection::btree_set(any::<u16>(), 30..60),
    ) {
        let prefixes: Vec<Prefix> = prefix_seeds
            .into_iter()
            .map(|seed| {
                Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap()
            })
            .collect();
        let announcements = vec![(1u32, prefixes.clone())];
        let (outcomes, survivors, populated) = run_purge(8, &prefixes, &announcements);
        prop_assert!(populated == 0, "purge empties every shard");
        prop_assert!(survivors.is_empty());
        prop_assert_eq!(outcomes.len(), prefixes.len());

        // Before the purge the same table spans several shards: rebuild
        // and count. (Separate engine; purge above consumed the first.)
        let mut engine = ShardedRibEngine::new(LOCAL_ASN, RouterId(1));
        for info in peer_roster() {
            engine.add_peer(info);
        }
        engine.set_shards(8);
        let attrs = attrs_for(1, prefixes.len() as u32);
        engine
            .apply_update(PeerId(1), &announce(&attrs, &prefixes))
            .expect("announcement applies");
        let populated_before = engine
            .shards()
            .iter()
            .filter(|shard| !shard.loc_rib().is_empty())
            .count();
        prop_assert!(
            populated_before >= 4,
            "30+ prefixes landed on only {} of 8 shards", populated_before
        );
    }
}
