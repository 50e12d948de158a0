//! Property tests for the Adj-RIB-Out: applying the actions `sync`
//! emits to a mirror table must always reproduce the desired state,
//! and packetization must preserve every action.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use bgpbench_rib::{AdjRibOut, ExportAction, RouteAttributes};
use bgpbench_wire::{AsPath, Asn, Message, Origin, Prefix};
use proptest::prelude::*;

fn arb_attrs() -> impl Strategy<Value = Arc<RouteAttributes>> {
    (1u16..50, any::<u32>()).prop_map(|(asn, hop)| {
        Arc::new(RouteAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(asn)]),
            Ipv4Addr::from(hop),
        ))
    })
}

fn arb_state() -> impl Strategy<Value = Vec<(Prefix, Arc<RouteAttributes>)>> {
    prop::collection::btree_map(0u16..64, arb_attrs(), 0..32).prop_map(|map| {
        map.into_iter()
            .map(|(seed, attrs)| {
                let prefix = Prefix::new_masked(Ipv4Addr::from(u32::from(seed) << 16), 16).unwrap();
                (prefix, attrs)
            })
            .collect()
    })
}

/// A mirror of what the neighbor would hold after applying actions.
fn apply_actions(mirror: &mut HashMap<Prefix, Arc<RouteAttributes>>, actions: &[ExportAction]) {
    for action in actions {
        match action {
            ExportAction::Announce(prefix, attrs) => {
                mirror.insert(*prefix, attrs.clone());
            }
            ExportAction::Withdraw(prefix) => {
                mirror.remove(prefix);
            }
        }
    }
}

proptest! {
    /// After any sequence of desired-state syncs, the neighbor's
    /// mirror equals the last desired state.
    #[test]
    fn sync_converges_to_desired_state(
        states in prop::collection::vec(arb_state(), 1..6)
    ) {
        let mut adj_out = AdjRibOut::new();
        let mut mirror: HashMap<Prefix, Arc<RouteAttributes>> = HashMap::new();
        for desired in &states {
            let actions = adj_out.sync(desired.clone());
            apply_actions(&mut mirror, &actions);
            let expected: HashMap<Prefix, Arc<RouteAttributes>> =
                desired.iter().cloned().collect();
            prop_assert_eq!(mirror.len(), expected.len());
            for (prefix, attrs) in &expected {
                prop_assert_eq!(
                    mirror.get(prefix).map(|a| a.as_ref()),
                    Some(attrs.as_ref()),
                    "mismatch at {}", prefix
                );
            }
        }
    }

    /// A second sync against an unchanged desired state is empty
    /// (sync is idempotent).
    #[test]
    fn sync_is_idempotent(state in arb_state()) {
        let mut adj_out = AdjRibOut::new();
        adj_out.sync(state.clone());
        let again = adj_out.sync(state);
        prop_assert!(again.is_empty(), "second sync emitted {:?}", again);
    }

    /// Per-prefix sync and full-table sync agree.
    #[test]
    fn sync_prefix_agrees_with_full_sync(
        initial in arb_state(),
        target in arb_state(),
    ) {
        let mut full = AdjRibOut::new();
        full.sync(initial.clone());
        let mut incremental = AdjRibOut::new();
        incremental.sync(initial.clone());

        // Full sync to the target on one copy.
        let mut mirror_full: HashMap<Prefix, Arc<RouteAttributes>> =
            initial.iter().cloned().collect();
        apply_actions(&mut mirror_full, &full.sync(target.clone()));

        // Per-prefix sync on the other: touch the union of prefixes.
        let target_map: HashMap<Prefix, Arc<RouteAttributes>> =
            target.iter().cloned().collect();
        let mut mirror_incr: HashMap<Prefix, Arc<RouteAttributes>> =
            initial.iter().cloned().collect();
        let mut touched: Vec<Prefix> = initial.iter().map(|(p, _)| *p).collect();
        touched.extend(target.iter().map(|(p, _)| *p));
        touched.sort();
        touched.dedup();
        for prefix in touched {
            if let Some(action) =
                incremental.sync_prefix(prefix, target_map.get(&prefix).cloned())
            {
                apply_actions(&mut mirror_incr, std::slice::from_ref(&action));
            }
        }
        prop_assert_eq!(mirror_full.len(), mirror_incr.len());
        for (prefix, attrs) in &mirror_full {
            prop_assert_eq!(
                mirror_incr.get(prefix).map(|a| a.as_ref()),
                Some(attrs.as_ref())
            );
        }
    }

    /// Packetization never loses or duplicates a prefix, at any packet
    /// size.
    #[test]
    fn to_updates_preserves_all_actions(
        state in arb_state(),
        pkt in 1usize..600,
    ) {
        let mut adj_out = AdjRibOut::new();
        let actions = adj_out.sync(state.clone());
        let updates = AdjRibOut::to_updates(&actions, pkt);
        let announced: usize = updates.iter().map(|u| u.nlri().len()).sum();
        prop_assert_eq!(announced, state.len());
        for update in &updates {
            prop_assert!(update.nlri().len() <= pkt);
            prop_assert!(update.withdrawn().len() <= pkt);
        }
    }

    /// What `packetize` encodes straight onto the wire is, byte for
    /// byte, what `to_updates` builds and `Message::encode` writes —
    /// for withdrawals and announcements, one action or many, at any
    /// packet size.
    #[test]
    fn packetize_encodes_what_to_updates_builds(
        before in arb_state(),
        after in arb_state(),
        pkt in 1usize..600,
    ) {
        let mut adj_out = AdjRibOut::new();
        adj_out.sync(before);
        let actions = adj_out.sync(after);

        let mut direct = Vec::new();
        let mut transactions = 0;
        AdjRibOut::packetize(&actions, pkt, |update| {
            update.encode_into(&mut direct).expect("fits one message");
            transactions += update.transaction_count();
        });

        let updates = AdjRibOut::to_updates(&actions, pkt);
        let built: Vec<u8> = updates
            .iter()
            .flat_map(|update| Message::Update(update.clone()).encode().expect("fits"))
            .collect();
        prop_assert_eq!(direct, built);
        prop_assert_eq!(
            transactions,
            updates.iter().map(|u| u.transaction_count()).sum::<usize>()
        );
    }
}
