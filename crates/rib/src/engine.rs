//! The RIB engine: Adj-RIB-In, Loc-RIB, and the update-processing
//! pipeline that classifies every prefix-level change.
//!
//! Internally the engine keeps a *single* prefix-keyed table whose
//! entries hold every peer's route for that prefix plus the index of
//! the decision winner — the shared-entry layout production stacks
//! use. One probe of the table's index per prefix then covers "look up
//! the peer's old route", "store the new one", and "consult the current
//! best", where the textbook per-peer-map-plus-Loc-RIB-map arrangement
//! needs three. The index maps a prefix to a 4-byte slot number in an
//! arena whose entries never move (`table`), so a growing table
//! rehashes 12-byte buckets, not whole entries.
//! [`AdjRibIn`] and [`LocRib`] remain available as borrowing views
//! over that table, so the RFC 4271 §3.2 structure is still visible at
//! the API.

use std::cmp::Ordering;
use std::sync::Arc;

use bgpbench_telemetry::{self as telemetry, MetricId, SpanId};
use bgpbench_wire::{Asn, Prefix, RouterId, UpdateMessage};

use crate::attr_store::AttrStore;
use crate::decision::{compare_routes, DecisionConfig};
use crate::fxhash::FxHashMap;
use crate::policy::RouteMap;
use crate::route::{PeerId, PeerInfo, Route, RouteAttributes};
use crate::table::{Entry, PrefixTable};
use crate::RibError;

/// One peer's contribution to a prefix entry.
type PeerRoute = (PeerId, Arc<RouteAttributes>);

/// Everything the engine knows about one prefix: each peer's route
/// (the Adj-RIB-In slices) and which of them the decision process
/// selected (the Loc-RIB slice). `rest` stays empty — and therefore
/// allocation-free — in the common case of a prefix announced by a
/// single peer, so installing a fresh route costs one table slot and
/// nothing else.
#[derive(Debug, Clone)]
struct PrefixEntry {
    first: PeerRoute,
    rest: Vec<PeerRoute>,
    /// Index of the selected best: 0 is `first`, `i` is `rest[i - 1]`.
    best: u32,
}

impl PrefixEntry {
    fn new(peer: PeerId, attrs: Arc<RouteAttributes>) -> Self {
        PrefixEntry {
            first: (peer, attrs),
            rest: Vec::new(),
            best: 0,
        }
    }

    fn len(&self) -> u32 {
        1 + self.rest.len() as u32
    }

    fn route(&self, index: u32) -> &PeerRoute {
        if index == 0 {
            &self.first
        } else {
            &self.rest[index as usize - 1]
        }
    }

    fn route_mut(&mut self, index: u32) -> &mut PeerRoute {
        if index == 0 {
            &mut self.first
        } else {
            &mut self.rest[index as usize - 1]
        }
    }

    fn best_route(&self) -> &PeerRoute {
        self.route(self.best)
    }

    /// The selected route, in the form a [`DecisionSink`] is handed it.
    fn best(&self) -> (PeerId, &Arc<RouteAttributes>) {
        self.route_ref(self.best)
    }

    /// The route at `index` in that form.
    fn route_ref(&self, index: u32) -> (PeerId, &Arc<RouteAttributes>) {
        let (peer, attrs) = self.route(index);
        (*peer, attrs)
    }

    fn position(&self, peer: PeerId) -> Option<u32> {
        if self.first.0 == peer {
            return Some(0);
        }
        self.rest
            .iter()
            .position(|(candidate, _)| *candidate == peer)
            .map(|i| i as u32 + 1)
    }

    fn get(&self, peer: PeerId) -> Option<&Arc<RouteAttributes>> {
        if self.first.0 == peer {
            return Some(&self.first.1);
        }
        self.rest
            .iter()
            .find(|(candidate, _)| *candidate == peer)
            .map(|(_, attrs)| attrs)
    }

    fn push(&mut self, peer: PeerId, attrs: Arc<RouteAttributes>) -> u32 {
        self.rest.push((peer, attrs));
        self.rest.len() as u32
    }

    /// Removes the route at `index`, preserving the order of the
    /// others. The caller is responsible for fixing up `best`.
    fn remove(&mut self, index: u32) -> PeerRoute {
        if index == 0 {
            let promoted = self.rest.remove(0);
            std::mem::replace(&mut self.first, promoted)
        } else {
            self.rest.remove(index as usize - 1)
        }
    }

    fn into_only(self) -> PeerRoute {
        debug_assert!(self.rest.is_empty());
        self.first
    }
}

/// Re-runs the decision process over one entry's routes and returns
/// the index of the winner. First-seen wins a tie, which cannot arise
/// between distinct peers: [`compare_routes`] breaks exact attribute
/// ties by router id.
fn best_index(
    config: &DecisionConfig,
    local_asn: Asn,
    peers: &FxHashMap<PeerId, PeerInfo>,
    entry: &PrefixEntry,
) -> u32 {
    let mut best = 0;
    for index in 1..entry.len() {
        let (peer, attrs) = entry.route(index);
        let (best_peer, best_attrs) = entry.route(best);
        if compare_routes(
            config,
            local_asn,
            attrs,
            &peers[peer],
            best_attrs,
            &peers[best_peer],
        ) == Ordering::Greater
        {
            best = index;
        }
    }
    best
}

/// Lets the (non-best) route at `index` challenge the current best:
/// if it wins the comparison it becomes the best and the change is a
/// replacement; otherwise nothing changes. `compare_routes` is a total
/// order, so a route that loses to the maximum leaves it untouched —
/// this is the Scenario 5/6 "no FIB change" fast path.
fn challenge(
    config: &DecisionConfig,
    local_asn: Asn,
    peers: &FxHashMap<PeerId, PeerInfo>,
    prefix: Prefix,
    entry: &mut PrefixEntry,
    index: u32,
) -> (RouteChange, Option<FibDirective>) {
    let (peer, attrs) = entry.route(index);
    let (best_peer, best_attrs) = entry.best_route();
    if compare_routes(
        config,
        local_asn,
        attrs,
        &peers[peer],
        best_attrs,
        &peers[best_peer],
    ) != Ordering::Greater
    {
        return (RouteChange::Unchanged, None);
    }
    // One route per peer per prefix, so a winning challenger is
    // necessarily from a different peer than the previous best.
    let fib_changed = best_attrs.next_hop() != attrs.next_hop();
    let next_hop = attrs.next_hop();
    entry.best = index;
    let fib = fib_changed.then_some(FibDirective::Install { prefix, next_hop });
    (RouteChange::Replaced { fib_changed }, fib)
}

/// Classifies the transition from the previously selected
/// `(old_peer, old_attrs)` to the entry's new best.
fn classify_replacement(
    prefix: Prefix,
    old_peer: PeerId,
    old_attrs: &Arc<RouteAttributes>,
    new_peer: PeerId,
    new_attrs: &Arc<RouteAttributes>,
) -> (RouteChange, Option<FibDirective>) {
    let same_attrs = Arc::ptr_eq(old_attrs, new_attrs) || old_attrs == new_attrs;
    if old_peer == new_peer && same_attrs {
        return (RouteChange::Unchanged, None);
    }
    let fib_changed = old_attrs.next_hop() != new_attrs.next_hop();
    let fib = fib_changed.then_some(FibDirective::Install {
        prefix,
        next_hop: new_attrs.next_hop(),
    });
    (RouteChange::Replaced { fib_changed }, fib)
}

/// Folds a classified change into the statistics and wraps it in the
/// per-prefix outcome.
fn finish(
    stats: &mut RibStats,
    prefix: Prefix,
    change: RouteChange,
    fib: Option<FibDirective>,
) -> PrefixOutcome {
    match &fib {
        Some(FibDirective::Install { .. }) => stats.fib_installs += 1,
        Some(FibDirective::Remove { .. }) => stats.fib_removes += 1,
        None => {}
    }
    if !matches!(change, RouteChange::Unchanged) {
        stats.best_changed += 1;
    }
    PrefixOutcome {
        prefix,
        change,
        fib,
    }
}

/// A selected route as a [`DecisionSink`]'s *before*: attributes
/// borrowed past the `Arc`.
fn borrowed((peer, attrs): (PeerId, &Arc<RouteAttributes>)) -> (PeerId, &RouteAttributes) {
    (peer, attrs)
}

/// A read-only view of one peer's Adj-RIB-In: the unprocessed routes
/// received from that neighbor (RFC 4271 §3.2).
///
/// Obtained from [`RibEngine::adj_rib_in`]. The engine stores every
/// peer's routes in one shared prefix-keyed table; this view filters
/// it down to a single peer, so [`AdjRibIn::get`] is one lookup while
/// [`AdjRibIn::len`] and [`AdjRibIn::iter`] walk the table.
#[derive(Debug, Clone, Copy)]
pub struct AdjRibIn<'a> {
    rib: &'a PrefixTable<PrefixEntry>,
    peer: PeerId,
}

impl<'a> AdjRibIn<'a> {
    /// Number of routes held for this peer.
    pub fn len(&self) -> usize {
        let peer = self.peer;
        self.rib
            .values()
            .filter(|entry| entry.get(peer).is_some())
            .count()
    }

    /// Whether the peer contributed no routes.
    pub fn is_empty(&self) -> bool {
        let peer = self.peer;
        !self.rib.values().any(|entry| entry.get(peer).is_some())
    }

    /// The attributes stored for `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<&'a Arc<RouteAttributes>> {
        self.rib.get(prefix).and_then(|entry| entry.get(self.peer))
    }

    /// Iterates over `(prefix, attributes)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a Prefix, &'a Arc<RouteAttributes>)> + 'a {
        let peer = self.peer;
        self.rib
            .iter()
            .filter_map(move |(prefix, entry)| entry.get(peer).map(|attrs| (prefix, attrs)))
    }
}

/// A read-only view of the Loc-RIB: the routes selected by the local
/// decision process (RFC 4271 §3.2). Distinct from the forwarding
/// table — the paper emphasizes that updating the FIB after a Loc-RIB
/// change is a separately costed operation.
///
/// Obtained from [`RibEngine::loc_rib`]. Every entry in the engine's
/// shared table carries its selected best, so [`LocRib::len`] is the
/// table length and [`LocRib::get`] is one lookup; it returns an owned
/// [`Route`] (two `Copy` fields plus an `Arc` bump).
#[derive(Debug, Clone, Copy)]
pub struct LocRib<'a> {
    rib: &'a PrefixTable<PrefixEntry>,
}

impl<'a> LocRib<'a> {
    /// Number of selected routes.
    pub fn len(&self) -> usize {
        self.rib.len()
    }

    /// Whether no routes are selected.
    pub fn is_empty(&self) -> bool {
        self.rib.is_empty()
    }

    /// The selected route for `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<Route> {
        self.rib.get(prefix).map(|entry| {
            let (peer, attrs) = entry.best();
            Route::new(*prefix, attrs.clone(), peer)
        })
    }

    /// Iterates over selected routes in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = Route> + 'a {
        self.rib.iter().map(|(prefix, entry)| {
            let (peer, attrs) = entry.best_route();
            Route::new(*prefix, attrs.clone(), *peer)
        })
    }
}

/// What happened to one prefix as a result of an UPDATE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChange {
    /// A route for a previously-unknown prefix was selected.
    Installed,
    /// The best route was replaced by a different one.
    Replaced {
        /// Whether the replacement changed the next hop, requiring a
        /// forwarding-table write (Scenario 7/8 territory).
        fib_changed: bool,
    },
    /// The announcement lost the decision process (or re-announced the
    /// same best route); the Loc-RIB best is unchanged (Scenario 5/6).
    Unchanged,
    /// The last route for the prefix was withdrawn.
    Withdrawn,
    /// A withdrawal for a route this peer never announced (no-op).
    WithdrawnUnknown,
    /// Import policy rejected the route.
    RejectedByPolicy,
    /// The AS path contained the local AS (loop prevention,
    /// RFC 4271 §9.1.2).
    RejectedAsLoop,
}

/// The forwarding-table write a [`PrefixOutcome`] requires, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibDirective {
    /// Install (or overwrite) the route.
    Install {
        /// The destination prefix.
        prefix: Prefix,
        /// The BGP next hop to forward through.
        next_hop: std::net::Ipv4Addr,
    },
    /// Remove the route.
    Remove {
        /// The destination prefix.
        prefix: Prefix,
    },
}

/// Per-prefix result of [`RibEngine::apply_update`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixOutcome {
    /// The prefix this outcome describes.
    pub prefix: Prefix,
    /// What changed.
    pub change: RouteChange,
    /// The forwarding-table write to perform, if any.
    pub fib: Option<FibDirective>,
}

/// What [`RibEngine::apply_update_with`] and
/// [`RibEngine::remove_peer_with`] call once per prefix, while the
/// engine still holds the prefix's entry, with
///
/// * the prefix's [`PrefixOutcome`];
/// * the selected route *before* this step: the peer it was learned
///   from and its attributes;
/// * the selected route *after* it, the same way.
///
/// A step that changes nothing (an unchanged, rejected or unknown
/// outcome) reports the same route on both sides. The borrows last for
/// the call only: the sink runs before a replaced attribute set goes
/// back to the [`AttrStore`], and the set before is deliberately not an
/// `Arc` the sink could keep, since a kept reference would stop that
/// release from evicting it. Any closure of this shape is a sink.
pub trait DecisionSink:
    FnMut(PrefixOutcome, Option<(PeerId, &RouteAttributes)>, Option<(PeerId, &Arc<RouteAttributes>)>)
{
}

impl<F> DecisionSink for F where
    F: FnMut(
        PrefixOutcome,
        Option<(PeerId, &RouteAttributes)>,
        Option<(PeerId, &Arc<RouteAttributes>)>,
    )
{
}

/// The sink behind the collecting forms ([`RibEngine::apply_update`]
/// and friends): keeps the outcome and nothing else.
pub(crate) fn collect_into(outcomes: &mut Vec<PrefixOutcome>) -> impl DecisionSink + '_ {
    |outcome, _, _| outcomes.push(outcome)
}

/// Per-message counts for [`record_apply_telemetry`].
#[derive(Debug, Clone, Copy, Default)]
struct ApplyCounts {
    prefixes: u64,
    best_changed: u64,
}

impl ApplyCounts {
    fn add(&mut self, outcome: &PrefixOutcome) {
        self.prefixes += 1;
        match outcome.change {
            RouteChange::Installed | RouteChange::Replaced { .. } | RouteChange::Withdrawn => {
                self.best_changed += 1;
            }
            RouteChange::Unchanged
            | RouteChange::WithdrawnUnknown
            | RouteChange::RejectedByPolicy
            | RouteChange::RejectedAsLoop => {}
        }
    }

    fn of(outcomes: &[PrefixOutcome]) -> Self {
        let mut counts = ApplyCounts::default();
        for outcome in outcomes {
            counts.add(outcome);
        }
        counts
    }
}

/// Aggregate counters kept by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibStats {
    /// UPDATE messages processed.
    pub updates: u64,
    /// Announced prefixes processed.
    pub announcements: u64,
    /// Withdrawn prefixes processed.
    pub withdrawals: u64,
    /// Prefixes whose best route changed.
    pub best_changed: u64,
    /// Forwarding-table installs directed.
    pub fib_installs: u64,
    /// Forwarding-table removes directed.
    pub fib_removes: u64,
    /// Routes rejected by import policy.
    pub policy_rejected: u64,
    /// Routes rejected by AS-loop detection.
    pub loop_rejected: u64,
    /// Distinct attribute sets currently interned by the engine's
    /// store (a point-in-time size, not a running count).
    pub attr_store_entries: u64,
    /// Attribute groups a full-table Adj-RIB-Out export would pack:
    /// the number of distinct best-route attribute sets in the
    /// Loc-RIB (also point-in-time).
    pub adj_out_groups: u64,
}

/// A complete BGP routing-table engine: per-peer Adj-RIBs-In, the
/// decision process, import policy, and the Loc-RIB.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug)]
pub struct RibEngine {
    local_asn: Asn,
    local_id: RouterId,
    config: DecisionConfig,
    import_policy: RouteMap,
    export_policy: RouteMap,
    peers: FxHashMap<PeerId, PeerInfo>,
    rib: PrefixTable<PrefixEntry>,
    attr_store: AttrStore,
    stats: RibStats,
}

impl RibEngine {
    /// Creates an engine for a speaker with the given AS and identifier,
    /// default decision configuration, and permit-all import policy.
    pub fn new(local_asn: Asn, local_id: RouterId) -> Self {
        RibEngine {
            local_asn,
            local_id,
            config: DecisionConfig::default(),
            import_policy: RouteMap::permit_all(),
            export_policy: RouteMap::permit_all(),
            peers: FxHashMap::default(),
            rib: PrefixTable::default(),
            attr_store: AttrStore::new(),
            stats: RibStats::default(),
        }
    }

    /// Replaces the decision configuration.
    pub fn set_decision_config(&mut self, config: DecisionConfig) {
        self.config = config;
    }

    /// Replaces the import route-map, evaluated per prefix before the
    /// decision process.
    pub fn set_import_policy(&mut self, policy: RouteMap) {
        self.import_policy = policy;
    }

    /// The import route-map currently in force.
    pub fn import_policy(&self) -> &RouteMap {
        &self.import_policy
    }

    /// Replaces the export route-map, evaluated per prefix when routes
    /// are staged for an Adj-RIB-Out via [`RibEngine::export_routes`].
    pub fn set_export_policy(&mut self, policy: RouteMap) {
        self.export_policy = policy;
    }

    /// The export route-map currently in force.
    pub fn export_policy(&self) -> &RouteMap {
        &self.export_policy
    }

    /// The local AS number.
    pub fn local_asn(&self) -> Asn {
        self.local_asn
    }

    /// The local BGP identifier.
    pub fn local_id(&self) -> RouterId {
        self.local_id
    }

    /// Registers a neighbor and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the peer id is already registered; peer ids are chosen
    /// by the caller and must be unique.
    pub fn add_peer(&mut self, info: PeerInfo) -> PeerId {
        let id = info.id();
        assert!(!self.peers.contains_key(&id), "peer {id} registered twice");
        self.peers.insert(id, info);
        id
    }

    /// Removes a neighbor and withdraws everything learned from it, as
    /// happens when a session drops. Returns the per-prefix outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered id.
    pub fn remove_peer(&mut self, peer: PeerId) -> Result<Vec<PrefixOutcome>, RibError> {
        let mut outcomes = Vec::new();
        self.remove_peer_with(peer, collect_into(&mut outcomes))?;
        Ok(outcomes)
    }

    /// [`RibEngine::remove_peer`], handing each prefix's step to `sink`
    /// (see [`DecisionSink`]) instead of collecting outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered id.
    pub fn remove_peer_with(
        &mut self,
        peer: PeerId,
        sink: impl DecisionSink,
    ) -> Result<(), RibError> {
        self.purge_peer_with(peer, sink)?;
        self.peers.remove(&peer);
        Ok(())
    }

    /// Withdraws everything learned from `peer` — re-running best-path
    /// selection per affected prefix — while keeping the peer
    /// registered, as happens when a session flaps and is expected to
    /// re-establish. Returns the per-prefix outcomes (each carrying
    /// the FIB directive for the new best path, if any).
    ///
    /// Equivalent to the peer withdrawing its whole Adj-RIB-In one
    /// prefix at a time (see the `purge_equals_withdraw_all` proptest).
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered id.
    pub fn purge_peer(&mut self, peer: PeerId) -> Result<Vec<PrefixOutcome>, RibError> {
        let mut outcomes = Vec::new();
        self.purge_peer_with(peer, collect_into(&mut outcomes))?;
        Ok(outcomes)
    }

    fn purge_peer_with(
        &mut self,
        peer: PeerId,
        mut sink: impl DecisionSink,
    ) -> Result<(), RibError> {
        if !self.peers.contains_key(&peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        let prefixes: Vec<Prefix> = self
            .rib
            .iter()
            .filter(|(_, entry)| entry.get(peer).is_some())
            .map(|(prefix, _)| *prefix)
            .collect();
        for prefix in prefixes {
            self.withdraw_one(peer, prefix, &mut sink);
        }
        Ok(())
    }

    /// The registered peers.
    pub fn peers(&self) -> impl Iterator<Item = &PeerInfo> {
        self.peers.values()
    }

    /// A view of a peer's Adj-RIB-In, or `None` for an unknown peer.
    pub fn adj_rib_in(&self, peer: PeerId) -> Option<AdjRibIn<'_>> {
        self.peers.contains_key(&peer).then_some(AdjRibIn {
            rib: &self.rib,
            peer,
        })
    }

    /// A view of the Loc-RIB.
    pub fn loc_rib(&self) -> LocRib<'_> {
        LocRib { rib: &self.rib }
    }

    /// Accumulated statistics, with the point-in-time table sizes
    /// (`attr_store_entries`, `adj_out_groups`) filled in at call time.
    pub fn stats(&self) -> RibStats {
        let mut stats = self.stats;
        stats.attr_store_entries = self.attr_store.len() as u64;
        let mut groups: crate::fxhash::FxHashSet<*const RouteAttributes> =
            crate::fxhash::FxHashSet::default();
        for entry in self.rib.values() {
            groups.insert(Arc::as_ptr(&entry.best_route().1));
        }
        stats.adj_out_groups = groups.len() as u64;
        stats
    }

    /// Bytes of heap the prefix table holds: its index buckets and its
    /// route arena in whole chunks, full or not (the way the FIB counts
    /// its trie). The attribute sets the routes share are the
    /// [`AttrStore`]'s, and a multi-route prefix's overflow list is not
    /// counted.
    pub fn heap_bytes(&self) -> usize {
        self.rib.heap_bytes()
    }

    /// The path-attribute interner backing this engine's RIBs.
    pub fn attr_store(&self) -> &AttrStore {
        &self.attr_store
    }

    /// Processes one UPDATE from `peer`: withdrawals first, then
    /// announcements, per RFC 4271 §3.1. Returns one outcome per
    /// prefix, in message order.
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered peer and
    /// [`RibError::MissingMandatoryAttribute`] if the message announces
    /// NLRI without the mandatory attributes.
    pub fn apply_update(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> Result<Vec<PrefixOutcome>, RibError> {
        let mut outcomes = Vec::with_capacity(update.transaction_count());
        self.apply_update_with(peer, update, collect_into(&mut outcomes))?;
        Ok(outcomes)
    }

    /// [`RibEngine::apply_update`], handing each prefix's step to `sink`
    /// (see [`DecisionSink`]), in message order, instead of collecting
    /// outcomes. On an error after the withdrawals, their steps have
    /// been handed over: they are applied, as with `apply_update`.
    ///
    /// # Errors
    ///
    /// As for [`RibEngine::apply_update`].
    pub fn apply_update_with(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
        mut sink: impl DecisionSink,
    ) -> Result<(), RibError> {
        // The disabled path pays one relaxed load and a predicted
        // branch; everything else (spans, the host clock, counter
        // deltas) lives behind it.
        if telemetry::disabled() {
            return self.apply_update_inner(peer, update, sink);
        }
        let _span = telemetry::span(SpanId::RibApplyUpdate);
        let start = std::time::Instant::now();
        let attrs_before = self.attr_store.stats();
        let mut counts = ApplyCounts::default();
        let result =
            self.apply_update_inner(peer, update, |outcome: PrefixOutcome, before, after| {
                counts.add(&outcome);
                sink(outcome, before, after);
            });
        record_apply_telemetry(
            update,
            start.elapsed().as_nanos() as u64,
            attrs_before,
            self.attr_store.stats(),
            self.attr_store.len() as u64,
            self.rib.len() as u64,
            result.is_ok().then_some(counts),
        );
        result
    }

    /// The uninstrumented body of [`RibEngine::apply_update_with`].
    fn apply_update_inner(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
        mut sink: impl DecisionSink,
    ) -> Result<(), RibError> {
        if !self.peers.contains_key(&peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        self.stats.updates += 1;
        self.apply_withdrawals(peer, update.withdrawn(), &mut sink);
        if update.nlri().is_empty() {
            return Ok(());
        }
        let attrs = RouteAttributes::from_wire(update.attributes())?;
        self.apply_announcements(peer, update.nlri(), attrs, sink);
        Ok(())
    }

    /// Processes a batch of withdrawals in order, one step per prefix.
    /// Shared by the single-engine path and the sharded train (each
    /// shard receives the message's sub-slice for its prefixes);
    /// deliberately does *not* bump [`RibStats::updates`] — a shard
    /// sees only a slice of a message, so only `apply_update` counts
    /// whole messages.
    pub(crate) fn apply_withdrawals(
        &mut self,
        peer: PeerId,
        withdrawn: &[Prefix],
        mut sink: impl DecisionSink,
    ) {
        for prefix in withdrawn {
            self.stats.withdrawals += 1;
            self.withdraw_one(peer, *prefix, &mut sink);
        }
    }

    /// Processes a batch of announcements sharing one decoded attribute
    /// set, one step per prefix. Shared by the single-engine path and
    /// the sharded train; like [`RibEngine::apply_withdrawals`], does
    /// not bump [`RibStats::updates`].
    pub(crate) fn apply_announcements(
        &mut self,
        peer: PeerId,
        nlri: &[Prefix],
        attrs: RouteAttributes,
        mut sink: impl DecisionSink,
    ) {
        // Loop prevention applies to the whole attribute set.
        if attrs.as_path().contains(self.local_asn) {
            for prefix in nlri {
                self.stats.announcements += 1;
                self.stats.loop_rejected += 1;
                self.reject(*prefix, RouteChange::RejectedAsLoop, &mut sink);
            }
            return;
        }

        // The batched hot path: the packet's attribute set is decoded
        // once (by the caller) and interned once — every prefix below
        // shares the same canonical Arc, and attribute equality against
        // stored routes degenerates to pointer identity.
        let interned = self.attr_store.intern(attrs);
        // Policy may rewrite attributes per prefix; the permit-all
        // common case reuses the interned Arc without evaluation.
        let permit_all = self.import_policy.is_empty();
        // Grow the table's index once per batch, not mid-loop.
        self.rib.reserve(nlri.len());

        for prefix in nlri {
            self.stats.announcements += 1;
            let final_attrs = if permit_all {
                Some(interned.clone())
            } else {
                let verdict = self
                    .import_policy
                    .evaluate(prefix, (*interned).clone())
                    .map(|rewritten| self.attr_store.intern(rewritten));
                telemetry::trace_instant(
                    telemetry::TraceEventId::PolicyEval,
                    0,
                    u64::from(verdict.is_some()),
                );
                verdict
            };
            match final_attrs {
                Some(final_attrs) => self.announce_one(peer, *prefix, final_attrs, &mut sink),
                None => {
                    self.stats.policy_rejected += 1;
                    self.reject(*prefix, RouteChange::RejectedByPolicy, &mut sink);
                }
            }
        }
        // Drop the batch's working reference; if nothing admitted the
        // set (all rejected), this evicts it from the store.
        self.attr_store.release(interned);
    }

    /// The step for a prefix whose route set this message leaves as it
    /// was: `change` says why.
    fn reject(&self, prefix: Prefix, change: RouteChange, mut sink: impl DecisionSink) {
        let outcome = PrefixOutcome {
            prefix,
            change,
            fib: None,
        };
        let best = self.rib.get(&prefix).map(PrefixEntry::best);
        sink(outcome, best.map(borrowed), best);
    }

    fn announce_one(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        attrs: Arc<RouteAttributes>,
        mut sink: impl DecisionSink,
    ) {
        let stats = &mut self.stats;
        let old = match self.rib.entry(prefix) {
            Entry::Vacant(slot) => {
                // First route for the prefix: it wins by definition,
                // with no comparison and no further lookup.
                let next_hop = attrs.next_hop();
                let entry = slot.insert(PrefixEntry::new(peer, attrs));
                let fib = Some(FibDirective::Install { prefix, next_hop });
                let outcome = finish(stats, prefix, RouteChange::Installed, fib);
                sink(outcome, None, Some(entry.best()));
                None
            }
            Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                let before = entry.best;
                match entry.position(peer) {
                    // Identical re-announcement (interned sets are
                    // value-equal iff pointer-equal): the route set did
                    // not change, so the decision outcome cannot change
                    // either.
                    Some(index) if Arc::ptr_eq(&entry.route(index).1, &attrs) => {
                        let outcome = finish(stats, prefix, RouteChange::Unchanged, None);
                        sink(outcome, Some(borrowed(entry.best())), Some(entry.best()));
                        None
                    }
                    Some(index) => {
                        let old = std::mem::replace(&mut entry.route_mut(index).1, attrs);
                        let (change, fib) = if before == index {
                            // The best route's attributes changed: any
                            // route may now win — rescan.
                            entry.best =
                                best_index(&self.config, self.local_asn, &self.peers, entry);
                            let (new_peer, new_attrs) = entry.best_route();
                            classify_replacement(prefix, peer, &old, *new_peer, new_attrs)
                        } else {
                            challenge(
                                &self.config,
                                self.local_asn,
                                &self.peers,
                                prefix,
                                entry,
                                index,
                            )
                        };
                        let before = if before == index {
                            (peer, &*old)
                        } else {
                            borrowed(entry.route_ref(before))
                        };
                        let outcome = finish(stats, prefix, change, fib);
                        sink(outcome, Some(before), Some(entry.best()));
                        Some(old)
                    }
                    None => {
                        let index = entry.push(peer, attrs);
                        let (change, fib) = challenge(
                            &self.config,
                            self.local_asn,
                            &self.peers,
                            prefix,
                            entry,
                            index,
                        );
                        let outcome = finish(stats, prefix, change, fib);
                        sink(
                            outcome,
                            Some(borrowed(entry.route_ref(before))),
                            Some(entry.best()),
                        );
                        None
                    }
                }
            }
        };
        if let Some(old) = old {
            self.attr_store.release(old);
        }
    }

    fn withdraw_one(&mut self, peer: PeerId, prefix: Prefix, mut sink: impl DecisionSink) {
        let unknown = PrefixOutcome {
            prefix,
            change: RouteChange::WithdrawnUnknown,
            fib: None,
        };
        let Entry::Occupied(slot) = self.rib.entry(prefix) else {
            sink(unknown, None, None);
            return;
        };
        let Some(index) = slot.get().position(peer) else {
            let best = slot.into_mut().best();
            sink(unknown, Some(borrowed(best)), Some(best));
            return;
        };
        let stats = &mut self.stats;
        let old = if slot.get().len() == 1 {
            // Last route for the prefix: drop the whole entry.
            let (_, old) = slot.remove().into_only();
            let fib = Some(FibDirective::Remove { prefix });
            let outcome = finish(stats, prefix, RouteChange::Withdrawn, fib);
            sink(outcome, Some((peer, &*old)), None);
            old
        } else {
            let entry = slot.into_mut();
            let was_best = entry.best == index;
            let (_, old) = entry.remove(index);
            let (change, fib) = if was_best {
                entry.best = best_index(&self.config, self.local_asn, &self.peers, entry);
                let (new_peer, new_attrs) = entry.best_route();
                classify_replacement(prefix, peer, &old, *new_peer, new_attrs)
            } else {
                // Removing a losing route cannot change the best; just
                // repair the index shifted by the removal.
                if entry.best > index {
                    entry.best -= 1;
                }
                (RouteChange::Unchanged, None)
            };
            let before = if was_best {
                (peer, &*old)
            } else {
                borrowed(entry.best())
            };
            let outcome = finish(stats, prefix, change, fib);
            sink(outcome, Some(before), Some(entry.best()));
            old
        };
        self.attr_store.release(old);
    }

    /// Computes the routes to advertise to `peer`: every Loc-RIB best
    /// not learned from that peer, passed through the export route-map,
    /// in exported form (own AS prepended, next hop set to
    /// `local_address`). Attribute sets shared by many prefixes are
    /// transformed once; routes the export policy denies are omitted.
    pub fn export_routes(
        &self,
        peer: PeerId,
        local_address: std::net::Ipv4Addr,
    ) -> Vec<(Prefix, Arc<RouteAttributes>)> {
        let _span = telemetry::span(SpanId::ExportRoutes);
        let mut cache: FxHashMap<*const RouteAttributes, Arc<RouteAttributes>> =
            FxHashMap::default();
        let permit_all = self.export_policy.is_empty();
        // The export route-map can rewrite per prefix, which would break
        // the pointer-keyed sharing above; a value-keyed table re-groups
        // rewritten sets so Adj-RIB-Out packing still sees shared Arcs.
        let mut rewritten_cache: FxHashMap<RouteAttributes, Arc<RouteAttributes>> =
            FxHashMap::default();
        let mut routes: Vec<(Prefix, Arc<RouteAttributes>)> = self
            .rib
            .iter()
            .filter(|(_, entry)| entry.best_route().0 != peer)
            .filter_map(|(prefix, entry)| {
                let attrs = &entry.best_route().1;
                let exported = cache
                    .entry(Arc::as_ptr(attrs))
                    .or_insert_with(|| Arc::new(attrs.exported(self.local_asn, local_address)))
                    .clone();
                if permit_all {
                    return Some((*prefix, exported));
                }
                let rewritten = self.export_policy.evaluate(prefix, (*exported).clone());
                telemetry::trace_instant(
                    telemetry::TraceEventId::PolicyEval,
                    1,
                    u64::from(rewritten.is_some()),
                );
                let rewritten = rewritten?;
                let shared = match rewritten_cache.get(&rewritten) {
                    Some(arc) => arc.clone(),
                    None => {
                        let arc = Arc::new(rewritten.clone());
                        rewritten_cache.insert(rewritten, Arc::clone(&arc));
                        arc
                    }
                };
                Some((*prefix, shared))
            })
            .collect();
        routes.sort_by_key(|(prefix, _)| *prefix);
        routes
    }
}

/// Records the per-update metrics, counter deltas and gauges for one
/// applied UPDATE: [`RibEngine::apply_update`]'s, and per message of a
/// sharded train through [`record_train_telemetry`], so both emit an
/// identical telemetry shape.
fn record_apply_telemetry(
    update: &UpdateMessage,
    host_ns: u64,
    attrs_before: crate::attr_store::AttrStoreStats,
    attrs_after: crate::attr_store::AttrStoreStats,
    attr_store_entries: u64,
    loc_rib_prefixes: u64,
    counts: Option<ApplyCounts>,
) {
    telemetry::observe(MetricId::ApplyHostNs, host_ns);
    telemetry::observe(MetricId::UpdatePrefixes, update.transaction_count() as u64);
    telemetry::incr(MetricId::RibUpdates);
    telemetry::add(
        MetricId::AttrStoreHits,
        attrs_after.hits - attrs_before.hits,
    );
    telemetry::add(
        MetricId::AttrStoreMisses,
        attrs_after.misses - attrs_before.misses,
    );
    telemetry::add(
        MetricId::AttrStoreReleased,
        attrs_after.released - attrs_before.released,
    );
    telemetry::gauge(MetricId::AttrStoreEntries, attr_store_entries);
    telemetry::gauge(MetricId::LocRibPrefixes, loc_rib_prefixes);
    if let Some(counts) = counts {
        telemetry::add(MetricId::RibPrefixes, counts.prefixes);
        telemetry::add(MetricId::RibBestChanged, counts.best_changed);
    }
}

/// Records the train-path equivalent of [`record_apply_telemetry`]:
/// one `RibApplyUpdate` span occurrence plus one per-update metric
/// set per message, so a multi-shard train is indistinguishable in
/// telemetry *counts* from sequential application (the span-count
/// parity the fig. 3–4 breakdown relies on). The train's wall time is
/// attributed evenly across its updates; attribute-store deltas are
/// charged to the first update, since the train decodes and interns
/// up front.
pub(crate) fn record_train_telemetry(
    updates: &[UpdateMessage],
    host_ns: u64,
    attrs_before: crate::attr_store::AttrStoreStats,
    attrs_after: crate::attr_store::AttrStoreStats,
    attr_store_entries: u64,
    loc_rib_prefixes: u64,
    merged: &[Vec<PrefixOutcome>],
) {
    let n = updates.len() as u64;
    if n == 0 {
        return;
    }
    let per_update_ns = host_ns / n;
    let remainder_ns = host_ns % n;
    for (index, update) in updates.iter().enumerate() {
        let slice_ns = per_update_ns + if index == 0 { remainder_ns } else { 0 };
        let (before, after) = if index == 0 {
            (attrs_before, attrs_after)
        } else {
            (attrs_after, attrs_after)
        };
        // Virtual duration is zero, matching a span that opens and
        // closes within one simulator tick.
        telemetry::global().span_record(SpanId::RibApplyUpdate, slice_ns, 0);
        record_apply_telemetry(
            update,
            slice_ns,
            before,
            after,
            attr_store_entries,
            loc_rib_prefixes,
            Some(ApplyCounts::of(
                merged.get(index).map(Vec::as_slice).unwrap_or(&[]),
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPath, Origin, PathAttribute};
    use std::net::Ipv4Addr;

    const LOCAL_ASN: Asn = Asn(65000);

    fn engine_with_two_peers() -> (RibEngine, PeerId, PeerId) {
        let mut engine = RibEngine::new(LOCAL_ASN, RouterId(1));
        let p1 = engine.add_peer(PeerInfo::new(
            PeerId(1),
            Asn(65001),
            RouterId(0x0A000002),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        let p2 = engine.add_peer(PeerInfo::new(
            PeerId(2),
            Asn(65002),
            RouterId(0x0A000003),
            Ipv4Addr::new(10, 0, 0, 3),
        ));
        (engine, p1, p2)
    }

    fn announce(path: &[u16], next_hop: Ipv4Addr, prefixes: &[&str]) -> UpdateMessage {
        let mut builder = UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence(
                path.iter().copied().map(Asn),
            )))
            .attribute(PathAttribute::NextHop(next_hop));
        for prefix in prefixes {
            builder = builder.announce(prefix.parse().unwrap());
        }
        builder.build()
    }

    fn withdraw(prefixes: &[&str]) -> UpdateMessage {
        UpdateMessage::builder()
            .withdraw_all(prefixes.iter().map(|p| p.parse().unwrap()))
            .build()
    }

    const HOP1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const HOP2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    #[test]
    fn scenario_1_startup_announcements_install() {
        let (mut engine, p1, _) = engine_with_two_peers();
        let outcomes = engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert_eq!(outcome.change, RouteChange::Installed);
            assert!(matches!(outcome.fib, Some(FibDirective::Install { .. })));
        }
        assert_eq!(engine.loc_rib().len(), 2);
        assert_eq!(engine.stats().fib_installs, 2);
    }

    #[test]
    fn scenario_3_withdrawals_remove_from_fib() {
        let (mut engine, p1, _) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        let outcomes = engine.apply_update(p1, &withdraw(&["10.0.0.0/8"])).unwrap();
        assert_eq!(outcomes[0].change, RouteChange::Withdrawn);
        assert_eq!(
            outcomes[0].fib,
            Some(FibDirective::Remove {
                prefix: "10.0.0.0/8".parse().unwrap()
            })
        );
        assert!(engine.loc_rib().is_empty());
    }

    #[test]
    fn scenario_5_longer_path_loses_without_fib_change() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        // Same prefix, longer AS path, from the other speaker.
        let outcomes = engine
            .apply_update(p2, &announce(&[65002, 65010, 65011], HOP2, &["10.0.0.0/8"]))
            .unwrap();
        assert_eq!(outcomes[0].change, RouteChange::Unchanged);
        assert_eq!(outcomes[0].fib, None);
        // But it is retained in the Adj-RIB-In.
        assert_eq!(engine.adj_rib_in(p2).unwrap().len(), 1);
        // The best is still peer 1's route.
        let best = engine
            .loc_rib()
            .get(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert_eq!(best.learned_from(), p1);
    }

    #[test]
    fn scenario_7_shorter_path_wins_and_changes_fib() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001, 65010], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        let outcomes = engine
            .apply_update(p2, &announce(&[65002], HOP2, &["10.0.0.0/8"]))
            .unwrap();
        assert_eq!(
            outcomes[0].change,
            RouteChange::Replaced { fib_changed: true }
        );
        assert_eq!(
            outcomes[0].fib,
            Some(FibDirective::Install {
                prefix: "10.0.0.0/8".parse().unwrap(),
                next_hop: HOP2,
            })
        );
        let best = engine
            .loc_rib()
            .get(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert_eq!(best.learned_from(), p2);
    }

    #[test]
    fn withdrawal_falls_back_to_second_best() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        engine
            .apply_update(p2, &announce(&[65002, 65010], HOP2, &["10.0.0.0/8"]))
            .unwrap();
        // Withdraw the best; the longer path from peer 2 takes over.
        let outcomes = engine.apply_update(p1, &withdraw(&["10.0.0.0/8"])).unwrap();
        assert_eq!(
            outcomes[0].change,
            RouteChange::Replaced { fib_changed: true }
        );
        let best = engine
            .loc_rib()
            .get(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert_eq!(best.learned_from(), p2);
    }

    #[test]
    fn withdrawing_unknown_prefix_is_a_noop() {
        let (mut engine, p1, _) = engine_with_two_peers();
        let outcomes = engine.apply_update(p1, &withdraw(&["10.0.0.0/8"])).unwrap();
        assert_eq!(outcomes[0].change, RouteChange::WithdrawnUnknown);
        assert_eq!(outcomes[0].fib, None);
    }

    #[test]
    fn reannouncing_identical_route_is_unchanged() {
        let (mut engine, p1, _) = engine_with_two_peers();
        let update = announce(&[65001], HOP1, &["10.0.0.0/8"]);
        engine.apply_update(p1, &update).unwrap();
        let outcomes = engine.apply_update(p1, &update).unwrap();
        assert_eq!(outcomes[0].change, RouteChange::Unchanged);
    }

    #[test]
    fn implicit_replacement_same_peer_new_next_hop() {
        let (mut engine, p1, _) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        let new_hop = Ipv4Addr::new(10, 0, 0, 9);
        let outcomes = engine
            .apply_update(p1, &announce(&[65001], new_hop, &["10.0.0.0/8"]))
            .unwrap();
        assert_eq!(
            outcomes[0].change,
            RouteChange::Replaced { fib_changed: true }
        );
    }

    #[test]
    fn replacement_with_same_next_hop_needs_no_fib_write() {
        let (mut engine, p1, _) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001, 65010], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        // Same peer, same next hop, shorter path: best changes but the
        // forwarding behaviour does not.
        let outcomes = engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        assert_eq!(
            outcomes[0].change,
            RouteChange::Replaced { fib_changed: false }
        );
        assert_eq!(outcomes[0].fib, None);
    }

    #[test]
    fn as_loop_is_rejected() {
        let (mut engine, p1, _) = engine_with_two_peers();
        let outcomes = engine
            .apply_update(
                p1,
                &announce(&[65001, LOCAL_ASN.0, 65010], HOP1, &["10.0.0.0/8"]),
            )
            .unwrap();
        assert_eq!(outcomes[0].change, RouteChange::RejectedAsLoop);
        assert!(engine.loc_rib().is_empty());
        assert_eq!(engine.stats().loop_rejected, 1);
    }

    #[test]
    fn policy_rejection_is_reported() {
        use crate::policy::{MatchClause, PrefixList, PrefixMatch, RouteMapEntry};
        let (mut engine, p1, _) = engine_with_two_peers();
        engine.set_import_policy(RouteMap::new([
            RouteMapEntry::deny(10).matching(MatchClause::Prefix(PrefixList::new([(
                true,
                PrefixMatch::within("10.0.0.0/8".parse().unwrap()),
            )]))),
            RouteMapEntry::permit(20),
        ]));
        let outcomes = engine
            .apply_update(
                p1,
                &announce(&[65001], HOP1, &["10.1.0.0/16", "11.0.0.0/8"]),
            )
            .unwrap();
        assert_eq!(outcomes[0].change, RouteChange::RejectedByPolicy);
        assert_eq!(outcomes[1].change, RouteChange::Installed);
        assert_eq!(engine.stats().policy_rejected, 1);
    }

    #[test]
    fn import_policy_rewrites_are_interned() {
        use crate::policy::{RouteMapEntry, SetClause};
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine.set_import_policy(RouteMap::new([
            RouteMapEntry::permit(10).set(SetClause::LocalPref(300))
        ]));
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["11.0.0.0/8"]))
            .unwrap();
        let _ = p2;
        let rib = engine.loc_rib();
        let a = rib.get(&"10.0.0.0/8".parse().unwrap()).unwrap();
        let b = rib.get(&"11.0.0.0/8".parse().unwrap()).unwrap();
        assert_eq!(a.attrs().local_pref(), Some(300));
        // The rewritten sets are re-interned: equal values share one Arc.
        assert!(Arc::ptr_eq(a.attrs(), b.attrs()));
    }

    #[test]
    fn export_policy_filters_and_rewrites() {
        use crate::policy::{MatchClause, PrefixList, PrefixMatch, RouteMapEntry, SetClause};
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        engine.set_export_policy(RouteMap::new([
            RouteMapEntry::deny(10).matching(MatchClause::Prefix(PrefixList::new([(
                true,
                PrefixMatch::exact("11.0.0.0/8".parse().unwrap()),
            )]))),
            RouteMapEntry::permit(20).set(SetClause::AddCommunity(0x0001_0002)),
        ]));
        let exported = engine.export_routes(p2, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(exported.len(), 1);
        let (prefix, attrs) = &exported[0];
        assert_eq!(*prefix, "10.0.0.0/8".parse().unwrap());
        assert!(attrs.communities().contains(&0x0001_0002));
        // Export transform still applied under the policy.
        assert_eq!(attrs.as_path().first_as(), Some(LOCAL_ASN));
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let (mut engine, _, _) = engine_with_two_peers();
        let result = engine.apply_update(PeerId(99), &withdraw(&["10.0.0.0/8"]));
        assert_eq!(result, Err(RibError::UnknownPeer(99)));
    }

    #[test]
    fn remove_peer_withdraws_its_routes() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        engine
            .apply_update(p2, &announce(&[65002, 65010], HOP2, &["10.0.0.0/8"]))
            .unwrap();
        let outcomes = engine.remove_peer(p1).unwrap();
        assert_eq!(outcomes.len(), 2);
        // 10/8 falls back to peer 2; 11/8 disappears.
        let best = engine
            .loc_rib()
            .get(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert_eq!(best.learned_from(), p2);
        assert!(engine
            .loc_rib()
            .get(&"11.0.0.0/8".parse().unwrap())
            .is_none());
        assert!(engine.remove_peer(p1).is_err());
    }

    #[test]
    fn export_routes_excludes_learning_peer_and_transforms() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        let local_addr = Ipv4Addr::new(10, 0, 0, 1);
        // Toward peer 2: both routes, exported form.
        let toward_p2 = engine.export_routes(p2, local_addr);
        assert_eq!(toward_p2.len(), 2);
        for (_, attrs) in &toward_p2 {
            assert_eq!(attrs.next_hop(), local_addr);
            assert_eq!(attrs.as_path().first_as(), Some(LOCAL_ASN));
        }
        // Toward peer 1 (the learning peer): nothing.
        assert!(engine.export_routes(p1, local_addr).is_empty());
    }

    #[test]
    fn export_routes_shares_transformed_attribute_sets() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        let exported = engine.export_routes(p2, Ipv4Addr::new(10, 0, 0, 1));
        assert!(Arc::ptr_eq(&exported[0].1, &exported[1].1));
    }

    #[test]
    fn stats_track_the_full_lifecycle() {
        let (mut engine, p1, _) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        engine.apply_update(p1, &withdraw(&["10.0.0.0/8"])).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.announcements, 1);
        assert_eq!(stats.withdrawals, 1);
        assert_eq!(stats.fib_installs, 1);
        assert_eq!(stats.fib_removes, 1);
        assert_eq!(stats.best_changed, 2);
    }

    #[test]
    fn attributes_are_interned_across_prefixes_and_messages() {
        let (mut engine, p1, _) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8", "11.0.0.0/8"]))
            .unwrap();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["12.0.0.0/8"]))
            .unwrap();
        // Three prefixes, one attribute set: one allocation.
        assert_eq!(engine.attr_store().len(), 1);
        let rib = engine.adj_rib_in(p1).unwrap();
        let a = rib.get(&"10.0.0.0/8".parse().unwrap()).unwrap();
        let b = rib.get(&"12.0.0.0/8".parse().unwrap()).unwrap();
        assert!(Arc::ptr_eq(a, b));
        // The Loc-RIB best shares the same allocation.
        let best = engine
            .loc_rib()
            .get(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert!(Arc::ptr_eq(best.attrs(), a));
    }

    #[test]
    fn attr_store_drains_after_withdraw_storm() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        let prefixes: Vec<String> = (0..64).map(|i| format!("10.{i}.0.0/16")).collect();
        let prefix_refs: Vec<&str> = prefixes.iter().map(String::as_str).collect();
        for round in 0..10u16 {
            engine
                .apply_update(p1, &announce(&[65001, 64000 + round], HOP1, &prefix_refs))
                .unwrap();
            engine
                .apply_update(p2, &announce(&[65002, 64000 + round], HOP2, &prefix_refs))
                .unwrap();
            engine.apply_update(p1, &withdraw(&prefix_refs)).unwrap();
            engine.apply_update(p2, &withdraw(&prefix_refs)).unwrap();
        }
        // Every round's attribute sets were fully withdrawn: the store
        // must not accumulate dead entries.
        assert_eq!(engine.attr_store().len(), 0);
        assert!(engine.loc_rib().is_empty());
        assert_eq!(engine.attr_store().stats().released, 20);
    }

    /// Outcomes are collected by the hundred thousand (a teardown purges
    /// a whole table in one call), and hold no `Arc`: one would keep a
    /// released set interned for as long as the outcome lives.
    #[test]
    fn prefix_outcome_stays_28_bytes() {
        assert_eq!(std::mem::size_of::<PrefixOutcome>(), 28);
    }

    #[test]
    fn remove_peer_releases_interned_attributes() {
        let (mut engine, p1, p2) = engine_with_two_peers();
        engine
            .apply_update(p1, &announce(&[65001], HOP1, &["10.0.0.0/8"]))
            .unwrap();
        engine
            .apply_update(p2, &announce(&[65002, 65001], HOP2, &["10.0.0.0/8"]))
            .unwrap();
        assert_eq!(engine.attr_store().len(), 2);
        engine.remove_peer(p1).unwrap();
        engine.remove_peer(p2).unwrap();
        assert_eq!(engine.attr_store().len(), 0);
    }
}
