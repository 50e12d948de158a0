//! The Adj-RIB-Out: per-neighbor advertisement state and UPDATE
//! generation (RFC 4271 §3.2, §9.2).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use bgpbench_telemetry::{self as telemetry, MetricId, SpanId};
use bgpbench_wire::{Prefix, UpdateMessage, WireError};

use crate::fxhash::FxHashMap;
use crate::route::RouteAttributes;

/// One advertisement-stream action toward a neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportAction {
    /// Announce (or re-announce with new attributes) a prefix.
    Announce(Prefix, Arc<RouteAttributes>),
    /// Withdraw a previously advertised prefix.
    Withdraw(Prefix),
}

/// One UPDATE's worth of packetized [`ExportAction`]s, borrowed from
/// the action list: what [`AdjRibOut::packetize`] hands its caller, to
/// encode straight onto the wire or to build an [`UpdateMessage`] from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutboundUpdate<'a> {
    /// Withdraws the prefixes.
    Withdraw(&'a [Prefix]),
    /// Announces the prefixes, all with one attribute set.
    Announce(&'a RouteAttributes, &'a [Prefix]),
}

impl OutboundUpdate<'_> {
    /// Prefix-level operations carried — what
    /// [`UpdateMessage::transaction_count`] reports for the built
    /// message.
    pub fn transaction_count(&self) -> usize {
        match self {
            OutboundUpdate::Withdraw(prefixes) | OutboundUpdate::Announce(_, prefixes) => {
                prefixes.len()
            }
        }
    }

    /// Appends the UPDATE as a complete wire message, copying neither
    /// the attribute set nor the prefixes on the way.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] when the prefixes and
    /// attributes do not fit one BGP message; `out` is then unchanged.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match *self {
            OutboundUpdate::Withdraw(prefixes) => {
                UpdateMessage::encode_parts_into(prefixes, [], &[], out)
            }
            OutboundUpdate::Announce(attrs, prefixes) => {
                UpdateMessage::encode_parts_into(&[], attrs.wire_attrs(), prefixes, out)
            }
        }
    }

    /// Builds the owned message (cloning the attribute set).
    pub fn to_message(&self) -> UpdateMessage {
        match *self {
            OutboundUpdate::Withdraw(prefixes) => UpdateMessage::builder()
                .withdraw_all(prefixes.iter().copied())
                .build(),
            OutboundUpdate::Announce(attrs, prefixes) => {
                let mut builder = UpdateMessage::builder();
                for attr in attrs.to_wire() {
                    builder = builder.attribute(attr);
                }
                builder.announce_all(prefixes.iter().copied()).build()
            }
        }
    }
}

/// The per-neighbor Adj-RIB-Out: what has been advertised, plus diffing
/// against the desired state and packetization into UPDATE messages.
///
/// Packetization is where the benchmark's *small packet* / *large
/// packet* distinction lives: [`AdjRibOut::packetize`] groups
/// announcements sharing an attribute set into messages carrying up to
/// `max_prefixes_per_update` prefixes each.
#[derive(Debug, Clone, Default)]
pub struct AdjRibOut {
    advertised: FxHashMap<Prefix, Arc<RouteAttributes>>,
}

impl AdjRibOut {
    /// Creates an empty Adj-RIB-Out.
    pub fn new() -> Self {
        AdjRibOut::default()
    }

    /// Number of currently advertised prefixes.
    pub fn len(&self) -> usize {
        self.advertised.len()
    }

    /// Whether nothing is advertised.
    pub fn is_empty(&self) -> bool {
        self.advertised.is_empty()
    }

    /// The attributes most recently advertised for `prefix`.
    pub fn get(&self, prefix: &Prefix) -> Option<&Arc<RouteAttributes>> {
        self.advertised.get(prefix)
    }

    /// Diffs the full desired advertisement set against what has been
    /// advertised, records the new state, and returns the actions that
    /// realize it (announcements for new/changed prefixes, withdrawals
    /// for disappeared ones).
    pub fn sync<I>(&mut self, desired: I) -> Vec<ExportAction>
    where
        I: IntoIterator<Item = (Prefix, Arc<RouteAttributes>)>,
    {
        let _span = telemetry::span(SpanId::AdjOutSync);
        let desired: FxHashMap<Prefix, Arc<RouteAttributes>> = desired.into_iter().collect();
        let mut actions = Vec::new();
        for (prefix, attrs) in &desired {
            let unchanged = self
                .advertised
                .get(prefix)
                .is_some_and(|old| Arc::ptr_eq(old, attrs) || old == attrs);
            if !unchanged {
                actions.push(ExportAction::Announce(*prefix, attrs.clone()));
            }
        }
        for prefix in self.advertised.keys() {
            if !desired.contains_key(prefix) {
                actions.push(ExportAction::Withdraw(*prefix));
            }
        }
        self.advertised = desired;
        // Deterministic order: withdrawals first (RFC message layout
        // convention), then announcements by prefix.
        actions.sort_by_key(|action| match action {
            ExportAction::Withdraw(prefix) => (0, *prefix),
            ExportAction::Announce(prefix, _) => (1, *prefix),
        });
        telemetry::add(MetricId::AdjOutActions, actions.len() as u64);
        actions
    }

    /// Updates the advertisement state for a single prefix and returns
    /// the action required, if any.
    pub fn sync_prefix(
        &mut self,
        prefix: Prefix,
        desired: Option<Arc<RouteAttributes>>,
    ) -> Option<ExportAction> {
        match desired {
            Some(attrs) => {
                match self.advertised.entry(prefix) {
                    Entry::Occupied(mut slot) => {
                        let old = slot.get();
                        if Arc::ptr_eq(old, &attrs) || old == &attrs {
                            return None;
                        }
                        slot.insert(attrs.clone());
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(attrs.clone());
                    }
                }
                telemetry::incr(MetricId::AdjOutActions);
                Some(ExportAction::Announce(prefix, attrs))
            }
            None => self.advertised.remove(&prefix).map(|_| {
                telemetry::incr(MetricId::AdjOutActions);
                ExportAction::Withdraw(prefix)
            }),
        }
    }

    /// Packetizes actions into UPDATEs, handing each to `emit` in send
    /// order.
    ///
    /// Withdrawals are batched up to `max_prefixes_per_update` per
    /// message. Announcements are grouped by attribute set (an UPDATE
    /// carries exactly one), then split to the same limit. The limit
    /// models the benchmark's packet sizes: 1 for small packets, 500
    /// for large ones.
    ///
    /// # Panics
    ///
    /// Panics if `max_prefixes_per_update` is zero.
    pub fn packetize(
        actions: &[ExportAction],
        max_prefixes_per_update: usize,
        mut emit: impl FnMut(OutboundUpdate<'_>),
    ) {
        assert!(max_prefixes_per_update > 0, "packet size must be positive");
        let _span = telemetry::span(SpanId::AdjOutPacketize);

        // One action is one UPDATE — every propagation round at one
        // prefix per UPDATE — and needs none of the grouping below.
        if let [action] = actions {
            match action {
                ExportAction::Withdraw(prefix) => {
                    emit(OutboundUpdate::Withdraw(std::slice::from_ref(prefix)));
                }
                ExportAction::Announce(prefix, attrs) => {
                    telemetry::incr(MetricId::AdjOutAttrGroups);
                    emit(OutboundUpdate::Announce(
                        attrs,
                        std::slice::from_ref(prefix),
                    ));
                }
            }
            telemetry::incr(MetricId::AdjOutUpdates);
            return;
        }

        let mut updates = 0u64;
        let withdrawals: Vec<Prefix> = actions
            .iter()
            .filter_map(|action| match action {
                ExportAction::Withdraw(prefix) => Some(*prefix),
                ExportAction::Announce(..) => None,
            })
            .collect();
        for chunk in withdrawals.chunks(max_prefixes_per_update) {
            updates += 1;
            emit(OutboundUpdate::Withdraw(chunk));
        }

        // Group announcements by attribute set, preserving first-seen
        // order of each group. Interned attribute sets resolve through
        // the O(1) pointer-keyed map; the value-keyed map behind it
        // keeps grouping correct for value-equal sets allocated
        // separately (callers that bypass the interner).
        let mut groups: Vec<(&RouteAttributes, Vec<Prefix>)> = Vec::new();
        let mut index_by_ptr: FxHashMap<*const RouteAttributes, usize> = FxHashMap::default();
        let mut index_by_value: FxHashMap<&RouteAttributes, usize> = FxHashMap::default();
        for action in actions {
            let ExportAction::Announce(prefix, attrs) = action else {
                continue;
            };
            let index = *index_by_ptr.entry(Arc::as_ptr(attrs)).or_insert_with(|| {
                *index_by_value.entry(attrs).or_insert_with(|| {
                    groups.push((attrs, Vec::new()));
                    groups.len() - 1
                })
            });
            groups[index].1.push(*prefix);
        }
        telemetry::add(MetricId::AdjOutAttrGroups, groups.len() as u64);
        for (attrs, prefixes) in &groups {
            for chunk in prefixes.chunks(max_prefixes_per_update) {
                updates += 1;
                emit(OutboundUpdate::Announce(attrs, chunk));
            }
        }
        telemetry::add(MetricId::AdjOutUpdates, updates);
    }

    /// [`AdjRibOut::packetize`], collected into owned messages.
    ///
    /// # Panics
    ///
    /// Panics if `max_prefixes_per_update` is zero.
    pub fn to_updates(
        actions: &[ExportAction],
        max_prefixes_per_update: usize,
    ) -> Vec<UpdateMessage> {
        let mut updates = Vec::new();
        Self::packetize(actions, max_prefixes_per_update, |update| {
            updates.push(update.to_message());
        });
        updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPath, Asn, Origin};
    use std::net::Ipv4Addr;

    fn attrs(seed: u16) -> Arc<RouteAttributes> {
        Arc::new(RouteAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(seed)]),
            Ipv4Addr::new(10, 0, 0, 1),
        ))
    }

    fn p(text: &str) -> Prefix {
        text.parse().unwrap()
    }

    #[test]
    fn initial_sync_announces_everything() {
        let mut out = AdjRibOut::new();
        let a = attrs(1);
        let actions = out.sync([(p("10.0.0.0/8"), a.clone()), (p("11.0.0.0/8"), a)]);
        assert_eq!(actions.len(), 2);
        assert!(actions
            .iter()
            .all(|action| matches!(action, ExportAction::Announce(..))));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn resync_with_same_state_is_empty() {
        let mut out = AdjRibOut::new();
        let a = attrs(1);
        out.sync([(p("10.0.0.0/8"), a.clone())]);
        let actions = out.sync([(p("10.0.0.0/8"), a)]);
        assert!(actions.is_empty());
    }

    #[test]
    fn sync_detects_attribute_changes_and_disappearances() {
        let mut out = AdjRibOut::new();
        out.sync([(p("10.0.0.0/8"), attrs(1)), (p("11.0.0.0/8"), attrs(1))]);
        let actions = out.sync([(p("10.0.0.0/8"), attrs(2))]);
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[0], ExportAction::Withdraw(p("11.0.0.0/8")));
        assert!(
            matches!(actions[1], ExportAction::Announce(prefix, _) if prefix == p("10.0.0.0/8"))
        );
    }

    #[test]
    fn sync_prefix_single_route_lifecycle() {
        let mut out = AdjRibOut::new();
        let a = attrs(1);
        assert!(matches!(
            out.sync_prefix(p("10.0.0.0/8"), Some(a.clone())),
            Some(ExportAction::Announce(..))
        ));
        // Unchanged: no action.
        assert_eq!(out.sync_prefix(p("10.0.0.0/8"), Some(a)), None);
        assert!(matches!(
            out.sync_prefix(p("10.0.0.0/8"), None),
            Some(ExportAction::Withdraw(_))
        ));
        // Withdrawing again: no action.
        assert_eq!(out.sync_prefix(p("10.0.0.0/8"), None), None);
    }

    #[test]
    fn sync_prefix_compares_attributes_by_value_not_by_allocation() {
        let mut out = AdjRibOut::new();
        let a = attrs(1);
        out.sync_prefix(p("10.0.0.0/8"), Some(a.clone()));
        // Value-equal but separately allocated: still unchanged, and
        // the recorded allocation stays the first one.
        let b = Arc::new((*a).clone());
        assert_eq!(out.sync_prefix(p("10.0.0.0/8"), Some(b)), None);
        assert!(out
            .get(&p("10.0.0.0/8"))
            .is_some_and(|held| Arc::ptr_eq(held, &a)));
        // A different value replaces it.
        let c = attrs(2);
        assert_eq!(
            out.sync_prefix(p("10.0.0.0/8"), Some(c.clone())),
            Some(ExportAction::Announce(p("10.0.0.0/8"), c.clone()))
        );
        assert!(out
            .get(&p("10.0.0.0/8"))
            .is_some_and(|held| Arc::ptr_eq(held, &c)));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn to_updates_small_packets_one_prefix_each() {
        let a = attrs(1);
        let actions: Vec<ExportAction> = (0..5)
            .map(|i| ExportAction::Announce(p(&format!("{}.0.0.0/8", 10 + i)), a.clone()))
            .collect();
        let updates = AdjRibOut::to_updates(&actions, 1);
        assert_eq!(updates.len(), 5);
        assert!(updates.iter().all(|u| u.nlri().len() == 1));
    }

    #[test]
    fn to_updates_large_packets_batch_up_to_limit() {
        let a = attrs(1);
        let actions: Vec<ExportAction> = (0..1100u32)
            .map(|i| {
                let prefix =
                    Prefix::new_masked(Ipv4Addr::from(0x0A00_0000 | (i << 8)), 24).unwrap();
                ExportAction::Announce(prefix, a.clone())
            })
            .collect();
        let updates = AdjRibOut::to_updates(&actions, 500);
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].nlri().len(), 500);
        assert_eq!(updates[1].nlri().len(), 500);
        assert_eq!(updates[2].nlri().len(), 100);
    }

    #[test]
    fn to_updates_groups_by_attribute_set() {
        let actions = vec![
            ExportAction::Announce(p("10.0.0.0/8"), attrs(1)),
            ExportAction::Announce(p("11.0.0.0/8"), attrs(2)),
            ExportAction::Announce(p("12.0.0.0/8"), attrs(1)),
        ];
        let updates = AdjRibOut::to_updates(&actions, 500);
        // Two attribute groups → two messages even though all fit in one.
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].nlri().len(), 2);
        assert_eq!(updates[1].nlri().len(), 1);
    }

    #[test]
    fn to_updates_groups_value_equal_distinct_arcs() {
        let a = attrs(1);
        // Value-equal but separately allocated: must land in the same
        // group even though the pointer-keyed fast path misses.
        let b = Arc::new((*a).clone());
        let actions = vec![
            ExportAction::Announce(p("10.0.0.0/8"), a.clone()),
            ExportAction::Announce(p("11.0.0.0/8"), b),
            ExportAction::Announce(p("12.0.0.0/8"), a),
        ];
        let updates = AdjRibOut::to_updates(&actions, 500);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].nlri().len(), 3);
    }

    #[test]
    fn to_updates_mixes_withdrawals_and_announcements() {
        let actions = vec![
            ExportAction::Withdraw(p("9.0.0.0/8")),
            ExportAction::Announce(p("10.0.0.0/8"), attrs(1)),
        ];
        let updates = AdjRibOut::to_updates(&actions, 500);
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].withdrawn().len(), 1);
        assert_eq!(updates[1].nlri().len(), 1);
    }

    #[test]
    #[should_panic(expected = "packet size must be positive")]
    fn to_updates_rejects_zero_packet_size() {
        AdjRibOut::to_updates(&[], 0);
    }
}
