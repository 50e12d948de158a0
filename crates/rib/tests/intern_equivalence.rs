//! Equivalence proptests: the interned, batched engine must behave
//! exactly like a naive reference implementation that clones attribute
//! sets per prefix and re-runs the full decision scan on every change
//! (the pre-interning semantics).
//!
//! The reference engine here deliberately avoids every fast path the
//! real engine uses: no hash-consing (fresh `RouteAttributes` value per
//! prefix), value-equality everywhere, `BTreeMap` tables, and a full
//! rescan of all Adj-RIBs-In after each announce/withdraw. If the real
//! engine's pointer-identity shortcuts or decision early-outs ever
//! diverge from plain value semantics, these tests catch it.
//!
//! The per-message properties run a [`RibEngine`] against the
//! reference. The train properties run [`ShardedRibEngine`]'s
//! `apply_update_train` at several shard counts against a `RibEngine`
//! fed the same messages one at a time, so the partition / per-shard
//! apply / message-order merge machinery is proven bit-invariant, not
//! just internally consistent.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bgpbench_rib::{
    compare_routes, DecisionConfig, FibDirective, MatchClause, PeerId, PeerInfo, PrefixList,
    PrefixMatch, PrefixOutcome, RibEngine, RibError, RibStats, RouteAttributes, RouteChange,
    RouteMap, RouteMapEntry, SetClause, ShardedRibEngine,
};
use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute, Prefix, RouterId, UpdateMessage};
use proptest::prelude::*;

const LOCAL_ASN: Asn = Asn(65000);

/// A prefix's selected route, by value.
type Best = Option<(PeerId, RouteAttributes)>;

/// One prefix's step: its outcome and the best before and after it.
type Step = (PrefixOutcome, Best, Best);

/// The naive reference: value semantics, full rescans, no sharing.
struct RefEngine {
    local_asn: Asn,
    config: DecisionConfig,
    policy: RouteMap,
    peers: Vec<PeerInfo>,
    adj_in: BTreeMap<PeerId, BTreeMap<Prefix, RouteAttributes>>,
    loc_rib: BTreeMap<Prefix, (PeerId, RouteAttributes)>,
    stats: RibStats,
    /// The steps of the last `apply_update`, bests read off `loc_rib`.
    steps: Vec<Step>,
}

impl RefEngine {
    fn new(peers: Vec<PeerInfo>, policy: RouteMap) -> Self {
        let adj_in = peers
            .iter()
            .map(|info| (info.id(), BTreeMap::new()))
            .collect();
        RefEngine {
            local_asn: LOCAL_ASN,
            config: DecisionConfig::default(),
            policy,
            peers,
            adj_in,
            loc_rib: BTreeMap::new(),
            stats: RibStats::default(),
            steps: Vec::new(),
        }
    }

    fn peer_info(&self, peer: PeerId) -> &PeerInfo {
        self.peers.iter().find(|info| info.id() == peer).unwrap()
    }

    fn best(&self, prefix: &Prefix) -> Best {
        self.loc_rib.get(prefix).cloned()
    }

    fn apply_update(&mut self, peer: PeerId, update: &UpdateMessage) -> Vec<PrefixOutcome> {
        self.steps.clear();
        self.stats.updates += 1;
        for prefix in update.withdrawn() {
            self.stats.withdrawals += 1;
            let before = self.best(prefix);
            let outcome = self.withdraw_one(peer, *prefix);
            self.steps.push((outcome, before, self.best(prefix)));
        }
        if !update.nlri().is_empty() {
            let attrs = RouteAttributes::from_wire(update.attributes()).unwrap();
            for prefix in update.nlri() {
                let before = self.best(prefix);
                let outcome = self.announce_one(peer, *prefix, &attrs);
                self.steps.push((outcome, before, self.best(prefix)));
            }
        }
        self.steps
            .iter()
            .map(|(outcome, ..)| outcome.clone())
            .collect()
    }

    fn announce_one(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        attrs: &RouteAttributes,
    ) -> PrefixOutcome {
        self.stats.announcements += 1;
        if attrs.as_path().contains(self.local_asn) {
            self.stats.loop_rejected += 1;
            return PrefixOutcome {
                prefix,
                change: RouteChange::RejectedAsLoop,
                fib: None,
            };
        }
        match self.policy.evaluate(&prefix, attrs.clone()) {
            Some(final_attrs) => {
                self.adj_in
                    .get_mut(&peer)
                    .unwrap()
                    .insert(prefix, final_attrs);
                self.reselect(prefix)
            }
            None => {
                self.stats.policy_rejected += 1;
                PrefixOutcome {
                    prefix,
                    change: RouteChange::RejectedByPolicy,
                    fib: None,
                }
            }
        }
    }

    fn withdraw_one(&mut self, peer: PeerId, prefix: Prefix) -> PrefixOutcome {
        if self
            .adj_in
            .get_mut(&peer)
            .unwrap()
            .remove(&prefix)
            .is_none()
        {
            return PrefixOutcome {
                prefix,
                change: RouteChange::WithdrawnUnknown,
                fib: None,
            };
        }
        self.reselect(prefix)
    }

    /// Full rescan of every Adj-RIB-In, exactly the pre-optimization
    /// classification.
    fn reselect(&mut self, prefix: Prefix) -> PrefixOutcome {
        let mut new_best: Option<(PeerId, RouteAttributes)> = None;
        for info in &self.peers {
            let Some(attrs) = self.adj_in[&info.id()].get(&prefix) else {
                continue;
            };
            new_best = match new_best {
                None => Some((info.id(), attrs.clone())),
                Some((best_peer, best_attrs)) => {
                    let ordering = compare_routes(
                        &self.config,
                        self.local_asn,
                        attrs,
                        info,
                        &best_attrs,
                        self.peer_info(best_peer),
                    );
                    if ordering == Ordering::Greater {
                        Some((info.id(), attrs.clone()))
                    } else {
                        Some((best_peer, best_attrs))
                    }
                }
            };
        }
        let old_best = self.loc_rib.get(&prefix);
        let (change, fib) = match (old_best, &new_best) {
            (None, None) => (RouteChange::Unchanged, None),
            (None, Some((_, new))) => (
                RouteChange::Installed,
                Some(FibDirective::Install {
                    prefix,
                    next_hop: new.next_hop(),
                }),
            ),
            (Some(_), None) => (
                RouteChange::Withdrawn,
                Some(FibDirective::Remove { prefix }),
            ),
            (Some((old_peer, old)), Some((new_peer, new))) => {
                if old_peer == new_peer && old == new {
                    (RouteChange::Unchanged, None)
                } else {
                    let fib_changed = old.next_hop() != new.next_hop();
                    let fib = fib_changed.then_some(FibDirective::Install {
                        prefix,
                        next_hop: new.next_hop(),
                    });
                    (RouteChange::Replaced { fib_changed }, fib)
                }
            }
        };
        match &fib {
            Some(FibDirective::Install { .. }) => self.stats.fib_installs += 1,
            Some(FibDirective::Remove { .. }) => self.stats.fib_removes += 1,
            None => {}
        }
        if !matches!(change, RouteChange::Unchanged) {
            self.stats.best_changed += 1;
        }
        match new_best {
            Some((peer, attrs)) => {
                self.loc_rib.insert(prefix, (peer, attrs));
            }
            None => {
                self.loc_rib.remove(&prefix);
            }
        }
        PrefixOutcome {
            prefix,
            change,
            fib,
        }
    }

    /// Point-in-time table sizes by value semantics: where the real
    /// engine counts interned entries and distinct best-route Arc
    /// pointers, the reference counts distinct attribute *values* —
    /// the two must agree if hash-consing upholds its invariant.
    fn stats(&self) -> RibStats {
        let mut stats = self.stats;
        let mut distinct: Vec<&RouteAttributes> = Vec::new();
        for rib in self.adj_in.values() {
            for attrs in rib.values() {
                if !distinct.contains(&attrs) {
                    distinct.push(attrs);
                }
            }
        }
        stats.attr_store_entries = distinct.len() as u64;
        let mut groups: Vec<&RouteAttributes> = Vec::new();
        for (_, attrs) in self.loc_rib.values() {
            if !groups.contains(&attrs) {
                groups.push(attrs);
            }
        }
        stats.adj_out_groups = groups.len() as u64;
        stats
    }
}

fn peer_pool() -> Vec<PeerInfo> {
    vec![
        PeerInfo::new(
            PeerId(1),
            Asn(65001),
            RouterId(0x0A00_0002),
            Ipv4Addr::new(10, 0, 0, 2),
        ),
        PeerInfo::new(
            PeerId(2),
            Asn(65002),
            RouterId(0x0A00_0003),
            Ipv4Addr::new(10, 0, 0, 3),
        ),
        PeerInfo::new(
            PeerId(3),
            Asn(65003),
            RouterId(0x0A00_0004),
            Ipv4Addr::new(10, 0, 0, 4),
        ),
    ]
}

fn arb_attrs() -> impl Strategy<Value = RouteAttributes> {
    (
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        prop::collection::vec(1u16..9999, 1..5),
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

/// One step of an update stream: a subset of the prefix pool announced
/// with one attribute set from the pool, another subset withdrawn, from
/// one peer.
#[derive(Debug, Clone)]
struct Op {
    peer: usize,
    attr: prop::sample::Index,
    announce_mask: u8,
    withdraw_mask: u8,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0..3usize,
            any::<prop::sample::Index>(),
            any::<u8>(),
            any::<u8>(),
        )
            .prop_map(|(peer, attr, announce_mask, withdraw_mask)| Op {
                peer,
                attr,
                announce_mask,
                withdraw_mask,
            }),
        1..32,
    )
}

fn masked(pool: &[Prefix], mask: u8) -> Vec<Prefix> {
    pool.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << (i % 8)) != 0 && *i < 8)
        .map(|(_, prefix)| *prefix)
        .collect()
}

fn build_message(
    attrs: &RouteAttributes,
    announce: &[Prefix],
    withdraw: &[Prefix],
) -> UpdateMessage {
    let mut builder = UpdateMessage::builder().withdraw_all(withdraw.iter().copied());
    if !announce.is_empty() {
        for attr in attrs.to_wire() {
            builder = builder.attribute(attr);
        }
        builder = builder.announce_all(announce.iter().copied());
    }
    builder.build()
}

/// The shard counts the train property samples: the one-engine loop
/// (1), counts that split the prefix pools unevenly (2, 3), and the
/// benchmarked count plus one beyond it (4, 8).
fn arb_shards() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)]
}

/// A train engine at `shards` shards with `peers` registered.
fn train_engine(shards: usize, peers: &[PeerInfo]) -> ShardedRibEngine {
    let mut engine = ShardedRibEngine::new(LOCAL_ASN, RouterId(1));
    for info in peers {
        engine.add_peer(*info);
    }
    engine.set_shards(shards);
    engine
}

/// A plain engine with `peers` registered.
fn plain_engine(peers: &[PeerInfo]) -> RibEngine {
    let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
    for info in peers {
        engine.add_peer(*info);
    }
    engine
}

/// The union of `engines`' Loc-RIBs, by value.
fn loc_rib_of(engines: &[RibEngine]) -> BTreeMap<Prefix, (PeerId, RouteAttributes)> {
    let mut routes = BTreeMap::new();
    for engine in engines {
        for route in engine.loc_rib().iter() {
            let previous = routes.insert(
                route.prefix(),
                (route.learned_from(), RouteAttributes::clone(route.attrs())),
            );
            assert!(previous.is_none(), "a prefix lives on one shard");
        }
    }
    routes
}

/// Distinct attribute values interned across `engines`' stores.
fn distinct_attrs(engines: &[RibEngine]) -> usize {
    let mut values: Vec<&RouteAttributes> = Vec::new();
    for engine in engines {
        for attrs in engine.attr_store().iter() {
            if !values.contains(&attrs.as_ref()) {
                values.push(attrs);
            }
        }
    }
    values.len()
}

/// Drives the engines through the same stream and asserts identical
/// outcome sequences, Loc-RIB contents, Adj-RIB-In contents, and stats.
/// A second real engine takes the stream through the sink form, whose
/// per-prefix bests must be the reference's.
fn check_equivalence(
    attr_pool: &[RouteAttributes],
    prefix_pool: &[Prefix],
    ops: &[Op],
    policy: RouteMap,
) -> Result<(), TestCaseError> {
    let peers = peer_pool();
    let build = || {
        let mut engine = plain_engine(&peers);
        engine.set_import_policy(policy.clone());
        engine
    };
    let mut real = build();
    let mut sunk = build();
    let mut reference = RefEngine::new(peers.clone(), policy.clone());

    for (step, op) in ops.iter().enumerate() {
        let peer = peers[op.peer].id();
        let attrs = &attr_pool[op.attr.index(attr_pool.len())];
        let announce = masked(prefix_pool, op.announce_mask);
        let withdraw = masked(prefix_pool, op.withdraw_mask);
        let update = build_message(attrs, &announce, &withdraw);

        let got = real.apply_update(peer, &update).unwrap();
        let want = reference.apply_update(peer, &update);
        prop_assert_eq!(&got, &want, "outcomes diverge at step {}", step);

        let mut reported: Vec<Step> = Vec::new();
        sunk.apply_update_with(peer, &update, |outcome, before, after| {
            let before = before.map(|(peer, attrs)| (peer, attrs.clone()));
            let after = after.map(|(peer, attrs)| (peer, RouteAttributes::clone(attrs)));
            reported.push((outcome, before, after));
        })
        .unwrap();
        prop_assert_eq!(
            &reported,
            &reference.steps,
            "sink reports diverge at step {}",
            step
        );

        let entries = reference.stats().attr_store_entries;
        for engine in [&real, &sunk] {
            prop_assert_eq!(
                engine.stats().attr_store_entries,
                entries,
                "at step {}",
                step
            );
            prop_assert_eq!(
                engine.attr_store().len() as u64,
                entries,
                "at step {}",
                step
            );
        }
    }
    prop_assert_eq!(sunk.stats(), real.stats());

    // Loc-RIB: same prefixes, same selected peer, same attribute values.
    prop_assert_eq!(real.loc_rib().len(), reference.loc_rib.len());
    for (prefix, (want_peer, want_attrs)) in &reference.loc_rib {
        let route = real.loc_rib().get(prefix).expect("missing Loc-RIB entry");
        prop_assert_eq!(route.learned_from(), *want_peer);
        prop_assert_eq!(route.attrs().as_ref(), want_attrs);
    }
    // Adj-RIBs-In: identical contents by value.
    for info in &peer_pool() {
        let real_rib = real.adj_rib_in(info.id()).unwrap();
        let want_rib = &reference.adj_in[&info.id()];
        prop_assert_eq!(real_rib.len(), want_rib.len());
        for (prefix, want_attrs) in want_rib {
            let got = real_rib.get(prefix).expect("missing Adj-RIB-In entry");
            prop_assert_eq!(got.as_ref(), want_attrs);
        }
    }
    let stats = real.stats();
    prop_assert_eq!(stats, reference.stats());
    // The point-in-time sizes are internally consistent too: the store
    // backs every live Adj-RIB-In entry, and each export group is one
    // of its interned sets chosen as a best route.
    prop_assert_eq!(stats.attr_store_entries, real.attr_store().len() as u64);
    prop_assert!(stats.adj_out_groups <= stats.attr_store_entries);
    prop_assert!(stats.adj_out_groups <= real.loc_rib().len() as u64);
    if !reference.loc_rib.is_empty() {
        prop_assert!(stats.adj_out_groups >= 1);
    }
    Ok(())
}

fn arb_prefix_pool() -> impl Strategy<Value = Vec<Prefix>> {
    prop::collection::btree_set(any::<u16>(), 3..8).prop_map(|seeds| {
        seeds
            .into_iter()
            .map(|seed| Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 12), 20).unwrap())
            .collect()
    })
}

fn test_policy() -> RouteMap {
    RouteMap::new([
        RouteMapEntry::deny(10).matching(MatchClause::AsPathContains(Asn(666))),
        RouteMapEntry::permit(20)
            .matching(MatchClause::Prefix(PrefixList::new([(
                true,
                PrefixMatch::range("0.0.0.0/0".parse().unwrap(), 0, 20),
            )])))
            .set(SetClause::LocalPref(120))
            .set(SetClause::AddCommunity(0x0001_0002)),
        RouteMapEntry::permit(30).set(SetClause::AddCommunity(0x0001_0002)),
    ])
}

proptest! {
    /// Permit-all policy: the pure interned fast path.
    #[test]
    fn interned_engine_matches_reference(
        attr_pool in prop::collection::vec(arb_attrs(), 2..5),
        prefix_pool in arb_prefix_pool(),
        ops in arb_ops(),
    ) {
        check_equivalence(&attr_pool, &prefix_pool, &ops, RouteMap::permit_all())?;
    }

    /// A rewriting/rejecting policy exercises the intern-after-policy
    /// path (rewritten attribute sets are interned separately).
    #[test]
    fn interned_engine_matches_reference_under_policy(
        attr_pool in prop::collection::vec(arb_attrs(), 2..5),
        prefix_pool in arb_prefix_pool(),
        ops in arb_ops(),
    ) {
        check_equivalence(&attr_pool, &prefix_pool, &ops, test_policy())?;
    }

    /// A whole train through the batch API must be indistinguishable
    /// from feeding the same messages to one engine one at a time:
    /// same per-update outcome vectors, same Loc-RIB across the
    /// shards, same distinct attribute values — at every shard count,
    /// which on a multi-core host drives the scoped-thread fan-out
    /// itself.
    #[test]
    fn update_train_matches_one_at_a_time(
        shards in arb_shards(),
        attr_pool in prop::collection::vec(arb_attrs(), 2..5),
        prefix_pool in arb_prefix_pool(),
        ops in arb_ops(),
    ) {
        let peers = peer_pool();
        let mut train = train_engine(shards, &peers);
        let mut sequential = plain_engine(&peers);
        // A train comes from one peer, so the ops' peer field stays
        // out of this property.
        let peer = peers[0].id();
        let updates: Vec<UpdateMessage> = ops
            .iter()
            .map(|op| {
                build_message(
                    &attr_pool[op.attr.index(attr_pool.len())],
                    &masked(&prefix_pool, op.announce_mask),
                    &masked(&prefix_pool, op.withdraw_mask),
                )
            })
            .collect();

        let got = train.apply_update_train(peer, &updates).unwrap();
        let mut want = Vec::with_capacity(updates.len());
        for update in &updates {
            want.push(sequential.apply_update(peer, update).unwrap());
        }
        prop_assert_eq!(&got, &want);
        let one = std::slice::from_ref(&sequential);
        prop_assert_eq!(loc_rib_of(train.shards()), loc_rib_of(one));
        prop_assert_eq!(distinct_attrs(train.shards()), distinct_attrs(one));
    }

    /// A route-map whose single entry permits everything and rewrites
    /// nothing must be observationally identical to the *empty* map:
    /// the engine's permit-all fast path (which skips evaluation and
    /// reuses the interned Arc) may not be distinguishable from the
    /// evaluate-and-re-intern path.
    #[test]
    fn no_op_route_map_is_identity(
        attr_pool in prop::collection::vec(arb_attrs(), 2..5),
        prefix_pool in arb_prefix_pool(),
        ops in arb_ops(),
    ) {
        let peers = peer_pool();
        let build = |policy: RouteMap| {
            let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
            for info in &peers {
                engine.add_peer(*info);
            }
            engine.set_import_policy(policy);
            engine
        };
        let mut fast = build(RouteMap::permit_all());
        let mut slow = build(RouteMap::new([RouteMapEntry::permit(10)]));

        for (step, op) in ops.iter().enumerate() {
            let peer = peers[op.peer].id();
            let attrs = &attr_pool[op.attr.index(attr_pool.len())];
            let update = build_message(
                attrs,
                &masked(&prefix_pool, op.announce_mask),
                &masked(&prefix_pool, op.withdraw_mask),
            );
            let a = fast.apply_update(peer, &update).unwrap();
            let b = slow.apply_update(peer, &update).unwrap();
            prop_assert_eq!(&a, &b, "outcomes diverge at step {}", step);
        }
        prop_assert_eq!(fast.stats(), slow.stats());
        prop_assert_eq!(fast.loc_rib().len(), slow.loc_rib().len());
        for route in fast.loc_rib().iter() {
            let other = slow
                .loc_rib()
                .get(&route.prefix())
                .expect("missing Loc-RIB entry");
            prop_assert_eq!(other.learned_from(), route.learned_from());
            prop_assert_eq!(other.attrs().as_ref(), route.attrs().as_ref());
        }
    }
}

/// An announcement whose attribute block lacks NEXT_HOP.
fn without_next_hop(asn: u16, announce: &[Prefix], withdraw: &[Prefix]) -> UpdateMessage {
    UpdateMessage::builder()
        .withdraw_all(withdraw.iter().copied())
        .attribute(PathAttribute::Origin(Origin::Igp))
        .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(asn)])))
        .announce_all(announce.iter().copied())
        .build()
}

/// A train whose message `k` lacks NEXT_HOP stops where one engine fed
/// it one message at a time stops: with the same error, every message
/// before `k` applied, and `k`'s withdrawals applied too.
#[test]
fn malformed_train_stops_where_one_at_a_time_stops() {
    let peers = peer_pool();
    let peer = peers[0].id();
    let pool: Vec<Prefix> = (0..16u32)
        .map(|i| Prefix::new_masked(Ipv4Addr::from(0x0A00_0000 + (i << 12)), 20).unwrap())
        .collect();
    // Message i withdraws the two prefixes the message before it
    // announced first and announces four, so every message past the
    // first changes what its predecessors left. The malformed message
    // keeps its withdrawals.
    let withdrawn = |i: usize| &pool[(2 * i).saturating_sub(2)..2 * i];
    let message = |i: usize, k: usize| {
        if i == k {
            return without_next_hop(65001, &pool[2 * i..2 * i + 2], withdrawn(i));
        }
        let attrs = RouteAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(65001), Asn(100 + i as u16)]),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        build_message(&attrs, &pool[2 * i..2 * i + 4], withdrawn(i))
    };
    for k in 0..6 {
        let updates: Vec<UpdateMessage> = (0..6).map(|i| message(i, k)).collect();

        let mut sequential = plain_engine(&peers);
        let mut want = None;
        for update in &updates {
            if let Err(error) = sequential.apply_update(peer, update) {
                want = Some(error);
                break;
            }
        }
        let want = want.expect("message k is malformed");
        assert!(matches!(
            want,
            RibError::MissingMandatoryAttribute {
                attribute: "NEXT_HOP",
                ..
            }
        ));
        if k > 0 {
            assert!(
                sequential.loc_rib().get(&pool[2 * k - 1]).is_none(),
                "message {k}'s withdrawals must matter"
            );
        }

        for shards in [1, 2, 4] {
            let mut train = train_engine(shards, &peers);
            let got = train.apply_update_train(peer, &updates);
            assert_eq!(got, Err(want.clone()), "k={k}, {shards} shard(s)");
            assert_eq!(
                loc_rib_of(train.shards()),
                loc_rib_of(std::slice::from_ref(&sequential)),
                "k={k}, {shards} shard(s)"
            );
        }
    }
}

/// Sustained churn must not leak interned attribute sets: after a full
/// withdraw of everything, the store is empty.
#[test]
fn attr_store_is_bounded_across_withdraw_storms() {
    let peers = peer_pool();
    let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
    for info in &peers {
        engine.add_peer(*info);
    }
    let prefixes: Vec<Prefix> = (0..32u32)
        .map(|i| Prefix::new_masked(Ipv4Addr::from(i << 16), 16).unwrap())
        .collect();
    for round in 0..20u16 {
        for info in &peers {
            let attrs = RouteAttributes::new(
                Origin::Igp,
                AsPath::from_sequence([Asn(info.asn().0), Asn(1000 + round)]),
                info.address(),
            );
            let update = build_message(&attrs, &prefixes, &[]);
            engine.apply_update(info.id(), &update).unwrap();
        }
        // The store holds exactly one entry per announcing peer.
        assert_eq!(engine.attr_store().len(), peers.len());
        let withdraw = build_message(
            &RouteAttributes::new(
                Origin::Igp,
                AsPath::from_sequence([Asn(1)]),
                Ipv4Addr::UNSPECIFIED,
            ),
            &[],
            &prefixes,
        );
        for info in &peers {
            engine.apply_update(info.id(), &withdraw).unwrap();
        }
        assert_eq!(
            engine.attr_store().len(),
            0,
            "store leaked in round {round}"
        );
    }
    assert!(engine.loc_rib().is_empty());
}
