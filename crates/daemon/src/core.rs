//! The daemon's shared routing core: one lock around the RIB engine,
//! the shadow FIB, and the sessions' staged output.
//!
//! Holding a single lock across "apply update → update FIB → stage
//! advertisements" gives every peer a consistent, totally-ordered view
//! — the same serialization point the `xorp_rib` process provides in
//! the paper's software routers.
//!
//! Export keeps no per-peer table. The engine hands the core each
//! prefix's best route before and after the change while it still holds
//! the entry; the core writes the FIB from that and keeps one [`Change`]
//! row per prefix whose best moved, and [`Core::propagate`] derives every
//! peer's announcements and withdrawals from those rows alone. A stored
//! Adj-RIB-Out would only ever hold "the exported best, unless I am its
//! source" (DESIGN.md §14.2), which the rows already say.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the core runs under the one core lock for every message of every peer; a panic poisons the lock for all"
)]

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;

use bgpbench_fib::{Fib, NextHop};
use bgpbench_rib::fxhash::{FxHashMap, FxHashSet};
use bgpbench_rib::{
    AdjRibOut, ExportAction, FibDirective, OutboundUpdate, PeerId, PeerInfo, PrefixOutcome,
    RibEngine, RibError, RibStats, RouteAttributes, RouteChange,
};
use bgpbench_telemetry::{self as telemetry, MetricId, SpanId, TraceEventId};
use bgpbench_wire::{Prefix, UpdateMessage};

use crate::DaemonConfig;

/// Staged output is handed to a peer's writer once it reaches this
/// size, without waiting for the batch to end, so table dumps, teardown
/// fallout and long bursts stream out in pieces instead of piling up
/// under the lock. It sits a little above one 16 KiB socket read on
/// purpose: re-advertisement runs a few percent larger than its input
/// (our AS is prepended), and a flooded session should still flush once
/// per read, not once plus a sliver.
const FLUSH_BYTES: usize = 20 * 1024;

/// An UPDATE carrying at least this many prefixes has what it staged
/// flushed as soon as it is applied. Holding output buys one thing: the
/// cost of a flush (a channel send, a thread wake, a `write`) is shared
/// by the UPDATEs behind it. A large UPDATE has already spread that cost
/// over its prefixes, and held back it would only wait out the
/// processing of whatever else the read delivered — a few more large
/// UPDATEs' worth of time, which a peer measuring propagation sees.
const EAGER_FLUSH_TRANSACTIONS: usize = 32;

/// The most exported sets [`Core::propagate`]'s cache keeps room for
/// between rounds. A round exports one set per distinct best it moved:
/// one for a small UPDATE, one for a large UPDATE over one attribute
/// set, and many only when a teardown's fallout is a table.
const EXPORT_CACHE_KEPT: usize = 64;

/// Counters the daemon exposes in snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CoreStats {
    pub updates_received: u64,
}

/// Per-session counters, exposed via
/// [`crate::BgpDaemon::peer_snapshots`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSnapshot {
    /// The daemon-side session id.
    pub peer: PeerId,
    /// The peer's AS number.
    pub asn: bgpbench_wire::Asn,
    /// The peer's session address.
    pub address: Ipv4Addr,
    /// UPDATE messages received from this peer.
    pub updates_in: u64,
    /// Prefix-level transactions received from this peer.
    pub prefixes_in: u64,
    /// UPDATE messages sent to this peer.
    pub updates_out: u64,
    /// Prefix-level announcements/withdrawals sent to this peer.
    pub prefixes_out: u64,
    /// UPDATE messages owed to this peer that could not be sent: their
    /// exported attributes left no room for a prefix in 4096 octets.
    pub updates_oversize: u64,
}

/// Everything the core keeps about one established session.
#[derive(Debug)]
struct Peer {
    writer: Sender<Vec<u8>>,
    stats: PeerSnapshot,
    /// Encoded UPDATEs not yet handed to `writer`. Empty whenever the
    /// core lock is free: whoever stages flushes before releasing it.
    staged: Vec<u8>,
}

impl Peer {
    /// Packetizes `actions` and encodes the UPDATEs onto `staged`.
    fn stage(&mut self, actions: &[ExportAction], max_prefixes_per_update: usize) {
        telemetry::add(MetricId::AdjOutActions, actions.len() as u64);
        let before = self.stats.updates_out;
        AdjRibOut::packetize(actions, max_prefixes_per_update, |update| {
            self.stage_update(update);
        });
        telemetry::add(MetricId::DaemonUpdatesSent, self.stats.updates_out - before);
    }

    fn stage_update(&mut self, update: OutboundUpdate<'_>) {
        // An UPDATE too long for one message (a packet-size limit the
        // attributes leave no room for) cannot be sent, only counted.
        if update.encode_into(&mut self.staged).is_err() {
            self.stats.updates_oversize += 1;
            telemetry::incr(MetricId::DaemonUpdatesOversize);
            return;
        }
        self.stats.updates_out += 1;
        self.stats.prefixes_out += update.transaction_count() as u64;
        if self.staged.len() >= FLUSH_BYTES {
            self.flush();
        }
    }

    /// Hands everything staged to the writer as one buffer, hence one
    /// channel send and one `write`.
    fn flush(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        // A disconnected writer means the session died; its session
        // thread will unregister it, and the bytes have nowhere to go.
        let _ = self.writer.send(self.staged.as_slice().to_vec());
        self.staged.clear();
    }
}

/// One prefix whose selected route an engine call changed: every peer's
/// export action for it follows from this row alone.
#[derive(Debug)]
struct Change {
    prefix: Prefix,
    /// The source of the best route before, and whether that route
    /// exports the same attributes as the best after.
    before: Option<(PeerId, bool)>,
    /// The best route after: its source and attributes — the engine's
    /// interned set, which [`Core::propagate`] swaps for the exported
    /// one.
    after: Option<(PeerId, Arc<RouteAttributes>)>,
}

/// The core's side of one engine call, handed each prefix while the
/// engine still holds it: writes the FIB, counts the transactions and
/// records a [`Change`] for every prefix whose best moved.
struct Decisions<'a> {
    fib: &'a mut Fib,
    changes: &'a mut Vec<Change>,
    /// Whether any session is left to export to; without one, no row
    /// is kept (a teardown's fallout can be a whole table).
    export: bool,
    /// Prefixes the UPDATE both withdraws and announces (RFC 4271 §4.3
    /// allows it), each with the row of its first step and the
    /// attributes before it, once that step has come. All their steps
    /// fold into that row, so a peer is told the net change once, at the
    /// prefix's first place in the message.
    repeated: FxHashMap<Prefix, Option<(usize, Option<RouteAttributes>)>>,
    transactions: usize,
}

impl<'a> Decisions<'a> {
    /// For applying `update`, if given; for a teardown otherwise.
    fn new(
        fib: &'a mut Fib,
        changes: &'a mut Vec<Change>,
        export: bool,
        update: Option<&UpdateMessage>,
    ) -> Self {
        let mut repeated = FxHashMap::default();
        if let Some(update) = update.filter(|u| !u.withdrawn().is_empty() && !u.nlri().is_empty()) {
            let withdrawn: FxHashSet<Prefix> = update.withdrawn().iter().copied().collect();
            repeated = update
                .nlri()
                .iter()
                .filter(|prefix| withdrawn.contains(prefix))
                .map(|prefix| (*prefix, None))
                .collect();
        }
        Decisions {
            fib,
            changes,
            export,
            repeated,
            transactions: 0,
        }
    }

    /// The engine's sink (see [`bgpbench_rib::DecisionSink`]).
    fn record(
        &mut self,
        outcome: PrefixOutcome,
        before: Option<(PeerId, &RouteAttributes)>,
        after: Option<(PeerId, &Arc<RouteAttributes>)>,
    ) {
        self.transactions += 1;
        match outcome.fib {
            Some(FibDirective::Install { prefix, next_hop }) => {
                telemetry::incr(MetricId::FibInstalls);
                self.fib.insert(prefix, NextHop::new(next_hop, 0));
            }
            Some(FibDirective::Remove { prefix }) => {
                telemetry::incr(MetricId::FibRemoves);
                self.fib.remove(&prefix);
            }
            None => {}
        }
        if !self.export {
            return;
        }
        let kept_after = || after.map(|(source, attrs)| (source, Arc::clone(attrs)));
        let repeated = if self.repeated.is_empty() {
            None
        } else {
            self.repeated.get_mut(&outcome.prefix)
        };
        if let Some(first) = repeated {
            match first {
                Some((row, _)) => self.changes[*row].after = kept_after(),
                None => {
                    *first = Some((self.changes.len(), before.map(|(_, attrs)| attrs.clone())));
                    self.changes.push(Change {
                        prefix: outcome.prefix,
                        before: before.map(|(source, _)| (source, false)),
                        after: kept_after(),
                    });
                }
            }
            return;
        }
        // Any other step that leaves the best as it was has nothing to
        // tell anyone.
        if !matches!(
            outcome.change,
            RouteChange::Installed | RouteChange::Replaced { .. } | RouteChange::Withdrawn
        ) {
            return;
        }
        self.changes.push(Change {
            prefix: outcome.prefix,
            before: before.map(|(source, attrs)| {
                let equal = after.is_some_and(|(_, after)| attrs.exports_equal(after));
                (source, equal)
            }),
            after: kept_after(),
        });
    }

    /// Settles the folded rows' export equality against their final
    /// best, and returns the call's transaction count.
    fn finish(self) -> usize {
        for (row, before) in self.repeated.into_values().flatten() {
            let change = &mut self.changes[row];
            if let (Some((_, equal)), Some(before), Some((_, after))) =
                (&mut change.before, &before, &change.after)
            {
                *equal = before.exports_equal(after);
            }
        }
        self.transactions
    }
}

#[derive(Debug)]
pub(crate) struct Core {
    config: DaemonConfig,
    engine: RibEngine,
    fib: Fib,
    peers: BTreeMap<PeerId, Peer>,
    /// What the last engine call changed, for [`Core::propagate`]; empty
    /// between calls, and reused so its capacity is too.
    changes: Vec<Change>,
    /// [`Core::propagate`]'s exported-set cache, keyed by the address of
    /// the interned set it exports (as a `usize`: a raw pointer would
    /// make the core `!Send`). Empty between rounds, so no key outlives
    /// the set at its address; kept so its allocation is.
    exported: FxHashMap<usize, Arc<RouteAttributes>>,
    /// [`Core::propagate`]'s export actions toward one peer; empty
    /// between rounds, kept for the same reason.
    actions: Vec<ExportAction>,
    next_peer: u32,
    stats: CoreStats,
    /// Prefix-level transactions processed, published once per UPDATE
    /// so progress can be polled without the core lock. Only the lock
    /// holder writes it. Its `Release` store pairs with the `Acquire`
    /// load in [`crate::BgpDaemon::transactions`]: a poller that reads a
    /// count also sees the work that produced it.
    transactions: Arc<AtomicU64>,
}

/// A run of input handled under one hold of the core lock. Output it
/// causes is staged per peer and flushed when the batch is dropped, so
/// the lock cannot be released with bytes still staged.
pub(crate) struct Batch<'a> {
    core: &'a mut Core,
}

impl Batch<'_> {
    /// Applies one UPDATE from `peer`: RIB processing, FIB writes, and
    /// propagation to every other established session.
    ///
    /// # Errors
    ///
    /// The engine's rejection of the UPDATE (RFC 4271 §6.3); the
    /// session layer owes the peer a NOTIFICATION. Only the UPDATE's
    /// withdrawals were applied, and they have been propagated.
    pub(crate) fn apply_update(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> Result<(), RibError> {
        self.core.apply_update_from(peer, update)
    }

    /// Handles a ROUTE-REFRESH request (RFC 2918): re-advertises the
    /// full table.
    pub(crate) fn refresh(&mut self, peer: PeerId) {
        self.core.advertise_table(peer);
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        self.core.flush();
    }
}

impl Core {
    pub(crate) fn new(config: DaemonConfig) -> Self {
        let engine = RibEngine::new(config.local_asn, config.router_id);
        Core {
            config,
            engine,
            fib: Fib::new(),
            peers: BTreeMap::new(),
            changes: Vec::new(),
            exported: FxHashMap::default(),
            actions: Vec::new(),
            next_peer: 1,
            stats: CoreStats::default(),
            transactions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The published transaction count, read by
    /// [`crate::BgpDaemon::transactions`].
    pub(crate) fn transactions_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.transactions)
    }

    pub(crate) fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Opens a batch; see [`Batch`].
    pub(crate) fn batch(&mut self) -> Batch<'_> {
        Batch { core: self }
    }

    /// The id of a session that has just been accepted; it names the
    /// session on the trace timeline from its first FSM transition and
    /// in [`Core::register_peer`] once it is up.
    pub(crate) fn allocate_peer(&mut self) -> PeerId {
        let id = PeerId(self.next_peer);
        self.next_peer += 1;
        id
    }

    /// Registers an established session: adds the peer to the engine,
    /// stores its writer, and sends the initial full-table
    /// advertisement (Phase 2 of the benchmark methodology).
    pub(crate) fn register_peer(
        &mut self,
        id: PeerId,
        asn: bgpbench_wire::Asn,
        router_id: bgpbench_wire::RouterId,
        address: Ipv4Addr,
        writer: Sender<Vec<u8>>,
    ) {
        self.engine
            .add_peer(PeerInfo::new(id, asn, router_id, address));
        let stats = PeerSnapshot {
            peer: id,
            asn,
            address,
            updates_in: 0,
            prefixes_in: 0,
            updates_out: 0,
            prefixes_out: 0,
            updates_oversize: 0,
        };
        self.peers.insert(
            id,
            Peer {
                writer,
                stats,
                staged: Vec::new(),
            },
        );
        self.advertise_table(id);
        self.flush();
        telemetry::incr(MetricId::SessionsOpened);
        telemetry::trace_instant(TraceEventId::SessionUp, u64::from(id.0), u64::from(asn.0));
    }

    /// Tears a session down: withdraws everything learned from the
    /// peer and propagates the fallout to the remaining peers.
    pub(crate) fn unregister_peer(&mut self, peer: PeerId) {
        if self.peers.remove(&peer).is_some() {
            telemetry::incr(MetricId::SessionsClosed);
            telemetry::trace_instant(TraceEventId::SessionDown, u64::from(peer.0), 0);
        }
        let export = !self.peers.is_empty();
        let mut decisions = Decisions::new(&mut self.fib, &mut self.changes, export, None);
        let removed = self
            .engine
            .remove_peer_with(peer, |outcome, before, after| {
                decisions.record(outcome, before, after);
            });
        decisions.finish();
        if removed.is_ok() {
            self.table_gauges();
            self.propagate();
            self.flush();
        }
    }

    fn apply_update_from(&mut self, peer: PeerId, update: &UpdateMessage) -> Result<(), RibError> {
        let export = !self.peers.is_empty();
        let mut decisions = Decisions::new(&mut self.fib, &mut self.changes, export, Some(update));
        let applied = self
            .engine
            .apply_update_with(peer, update, |outcome, before, after| {
                decisions.record(outcome, before, after);
            });
        let transactions = decisions.finish();
        self.table_gauges();
        self.propagate();
        applied?;
        self.stats.updates_received += 1;
        let total = self.transactions.load(Ordering::Relaxed) + transactions as u64;
        self.transactions.store(total, Ordering::Release);
        if let Some(peer) = self.peers.get_mut(&peer) {
            peer.stats.updates_in += 1;
            peer.stats.prefixes_in += transactions as u64;
        }
        if transactions >= EAGER_FLUSH_TRANSACTIONS {
            self.flush();
        }
        Ok(())
    }

    fn table_gauges(&self) {
        telemetry::gauge(MetricId::FibNodes, self.fib.node_count() as u64);
        telemetry::gauge(MetricId::FibBytes, self.fib.heap_bytes() as u64);
        telemetry::gauge(MetricId::RibBytes, self.engine.heap_bytes() as u64);
    }

    /// Stages, toward every established peer, what the last engine
    /// call's changes mean for it, and clears them. Peer P *had* a
    /// prefix's route iff there was a best before and P was not its
    /// source, and *should have* it iff there is a best after and P is
    /// not its source. P is sent the route when it should have it,
    /// unless it had one that exports the same; it is sent a withdrawal
    /// when it had the route and should not.
    fn propagate(&mut self) {
        let _span = telemetry::span(SpanId::DaemonPropagate);
        telemetry::incr(MetricId::DaemonPropagateRounds);
        // The exported form of a best (own AS prepended, next hop
        // rewritten) is the same toward every peer, and the engine
        // interns attribute sets, so one cache keyed on pointer identity
        // exports each set once per round. The rows hold every set they
        // key alive until it is swapped, and the engine frees none
        // here, so no key's address is reused meanwhile. Shared exported
        // sets also keep packetization's grouping on its pointer path.
        for change in &mut self.changes {
            if let Some((_, attrs)) = &mut change.after {
                let key = Arc::as_ptr(attrs) as usize;
                *attrs = Arc::clone(self.exported.entry(key).or_insert_with(|| {
                    Arc::new(attrs.exported(self.config.local_asn, self.config.next_hop))
                }));
            }
        }
        for (&id, peer) in &mut self.peers {
            self.actions.clear();
            for change in &self.changes {
                let had = change.before.filter(|(source, _)| *source != id);
                let should = change.after.as_ref().filter(|(source, _)| *source != id);
                match (had, should) {
                    (Some((_, true)), Some(_)) | (None, None) => {}
                    (_, Some((_, attrs))) => {
                        self.actions
                            .push(ExportAction::Announce(change.prefix, Arc::clone(attrs)));
                    }
                    (Some(_), None) => self.actions.push(ExportAction::Withdraw(change.prefix)),
                }
            }
            if !self.actions.is_empty() {
                peer.stage(&self.actions, self.config.export_prefixes_per_update);
            }
        }
        self.changes.clear();
        self.actions.clear();
        self.exported.clear();
        // Clearing a map costs its capacity, not its length: a round
        // that exported a whole table (a teardown) must not leave every
        // later one-prefix round sweeping that much.
        self.exported.shrink_to(EXPORT_CACHE_KEPT);
    }

    /// Stages the full table toward `peer`: every Loc-RIB best it is not
    /// the source of, exported, in prefix order.
    fn advertise_table(&mut self, id: PeerId) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let actions: Vec<ExportAction> = self
            .engine
            .export_routes(id, self.config.next_hop)
            .into_iter()
            .map(|(prefix, attrs)| ExportAction::Announce(prefix, attrs))
            .collect();
        peer.stage(&actions, self.config.export_prefixes_per_update);
    }

    fn flush(&mut self) {
        for peer in self.peers.values_mut() {
            peer.flush();
        }
    }

    pub(crate) fn established_sessions(&self) -> usize {
        self.peers.len()
    }

    pub(crate) fn peer_snapshots(&self) -> Vec<PeerSnapshot> {
        self.peers.values().map(|peer| peer.stats.clone()).collect()
    }

    pub(crate) fn loc_rib_len(&self) -> usize {
        self.engine.loc_rib().len()
    }

    pub(crate) fn fib_len(&self) -> usize {
        self.fib.len()
    }

    pub(crate) fn rib_stats(&self) -> RibStats {
        self.engine.stats()
    }

    pub(crate) fn stats(&self) -> CoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPath, AsPathSegment, Asn, Message, Origin, PathAttribute, RouterId};
    use crossbeam::channel::{unbounded, Receiver};

    fn register(core: &mut Core, asn: u16) -> (PeerId, Receiver<Vec<u8>>) {
        let (tx, rx) = unbounded();
        let id = core.allocate_peer();
        core.register_peer(
            id,
            Asn(asn),
            RouterId(u32::from(asn)),
            Ipv4Addr::LOCALHOST,
            tx,
        );
        (id, rx)
    }

    /// The `n`th /32 under 11.0.0.0/8.
    fn host(n: u32) -> Prefix {
        Prefix::new_masked(Ipv4Addr::from(0x0B00_0000 | n), 32).unwrap()
    }

    fn hosts(range: std::ops::Range<u32>) -> Vec<Prefix> {
        range.map(host).collect()
    }

    /// One UPDATE announcing the given hosts.
    fn announce(hosts: std::ops::Range<u32>) -> UpdateMessage {
        update(&[65001], 0..0, hosts)
    }

    /// The prefixes announced in a buffer handed to a writer.
    fn announced(delivered: &[u8]) -> Vec<Prefix> {
        changes(delivered).1
    }

    fn staged(core: &Core, peer: PeerId) -> usize {
        core.peers[&peer].staged.len()
    }

    /// One UPDATE withdrawing and announcing the given hosts, the
    /// announcements over `path` via 127.0.0.1.
    fn update(
        path: &[u16],
        withdraw: std::ops::Range<u32>,
        announce: std::ops::Range<u32>,
    ) -> UpdateMessage {
        update_via(path, Ipv4Addr::LOCALHOST, None, withdraw, announce)
    }

    /// [`update`] with the announcements' NEXT_HOP and MED given.
    fn update_via(
        path: &[u16],
        next_hop: Ipv4Addr,
        med: Option<u32>,
        withdraw: std::ops::Range<u32>,
        announce: std::ops::Range<u32>,
    ) -> UpdateMessage {
        let mut builder = UpdateMessage::builder()
            .withdraw_all(withdraw.map(host))
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence(
                path.iter().copied().map(Asn),
            )))
            .attribute(PathAttribute::NextHop(next_hop));
        if let Some(med) = med {
            builder = builder.attribute(PathAttribute::Med(med));
        }
        builder.announce_all(announce.map(host)).build()
    }

    /// The prefixes withdrawn and announced in a byte stream.
    fn changes(delivered: &[u8]) -> (Vec<Prefix>, Vec<Prefix>) {
        let mut decoder = bgpbench_wire::StreamDecoder::new();
        decoder.extend(delivered);
        let mut withdrawn = Vec::new();
        let mut announced = Vec::new();
        for message in decoder.drain().unwrap() {
            let Message::Update(update) = message else {
                panic!("unexpected {message:?}");
            };
            withdrawn.extend_from_slice(update.withdrawn());
            announced.extend_from_slice(update.nlri());
        }
        (withdrawn, announced)
    }

    /// `actions` as the owned messages the reference sends, encoded.
    fn encoded(core: &Core, actions: &[ExportAction]) -> Vec<u8> {
        AdjRibOut::to_updates(actions, core.config().export_prefixes_per_update)
            .into_iter()
            .flat_map(|update| Message::Update(update).encode().unwrap())
            .collect()
    }

    /// What propagating `prefixes` must send `peer`, the stored way:
    /// one Loc-RIB lookup per prefix for this peer alone, synced into
    /// the peer's own Adj-RIB-Out, owned messages, each encoded on its
    /// own.
    fn reference_bytes(
        core: &Core,
        peer: PeerId,
        adj_out: &mut AdjRibOut,
        prefixes: &[Prefix],
    ) -> Vec<u8> {
        let config = core.config();
        let actions: Vec<ExportAction> = prefixes
            .iter()
            .filter_map(|prefix| {
                let desired = core
                    .engine
                    .loc_rib()
                    .get(prefix)
                    .filter(|route| route.learned_from() != peer)
                    .map(|route| {
                        Arc::new(route.attrs().exported(config.local_asn, config.next_hop))
                    });
                adj_out.sync_prefix(*prefix, desired)
            })
            .collect();
        encoded(core, &actions)
    }

    /// What one session was told, decoded: (withdrawn, announced).
    type Told = (Vec<Prefix>, Vec<Prefix>);

    fn drain(rx: &Receiver<Vec<u8>>) -> Vec<u8> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .flatten()
            .collect()
    }

    /// A core and its sessions as the test sees them: each session's
    /// writer, and its reference Adj-RIB-Out.
    struct Net {
        core: Core,
        sessions: Vec<(PeerId, Receiver<Vec<u8>>, AdjRibOut)>,
    }

    impl Net {
        fn new(asns: &[u16]) -> Self {
            let mut core = Core::new(DaemonConfig::default());
            let sessions = asns
                .iter()
                .map(|&asn| {
                    let (id, rx) = register(&mut core, asn);
                    (id, rx, AdjRibOut::new())
                })
                .collect();
            Net { core, sessions }
        }

        /// Checks every session's bytes against the reference for
        /// `prefixes`, the input's prefixes in order, and returns what
        /// each was told.
        fn check(&mut self, prefixes: &[Prefix]) -> Vec<Told> {
            let core = &self.core;
            self.sessions
                .iter_mut()
                .map(|(id, rx, reference)| {
                    let delivered = drain(rx);
                    let expected = reference_bytes(core, *id, reference, prefixes);
                    assert_eq!(delivered, expected, "bytes sent to {id:?}");
                    changes(&delivered)
                })
                .collect()
        }

        /// Applies one UPDATE and checks every session's bytes.
        fn step(&mut self, from: PeerId, update: UpdateMessage) -> Vec<Told> {
            self.core.batch().apply_update(from, &update).unwrap();
            let prefixes: Vec<Prefix> = update
                .withdrawn()
                .iter()
                .chain(update.nlri())
                .copied()
                .collect();
            self.check(&prefixes)
        }
    }

    #[test]
    fn each_peer_is_sent_the_best_route_unless_it_is_the_source() {
        let mut net = Net::new(&[65001, 65002, 65003]);
        let [a, b, observer] = [0, 1, 2].map(|i| net.sessions[i].0);
        let nothing: Told = (Vec::new(), Vec::new());
        let told_nothing = vec![nothing.clone(); 3];

        // A is the only source of 1..5.
        let told = net.step(a, update(&[65001, 64999], 0..0, 1..5));
        assert_eq!(told[0], nothing);
        assert_eq!(told[1], (vec![], hosts(1..5)));
        assert_eq!(told[2], (vec![], hosts(1..5)));

        // B brings a shorter path for 3 and 4, and 5 and 6 besides. A,
        // no longer the source of 3 and 4, is sent their replacement; B,
        // now their source, has A's routes to them withdrawn.
        let told = net.step(b, update(&[65002], 0..0, 3..7));
        assert_eq!(told[0], (vec![], hosts(3..7)));
        assert_eq!(told[1], (hosts(3..5), vec![]));
        assert_eq!(told[2], (vec![], hosts(3..7)));

        // A withdraws 1, 2 and 3: 1 and 2 are gone, 3 stays B's.
        let told = net.step(a, update(&[], 1..4, 0..0));
        assert_eq!(told[0], nothing);
        assert_eq!(told[1], (hosts(1..3), vec![]));
        assert_eq!(told[2], (hosts(1..3), vec![]));

        // B withdraws 4 and 5: 4 falls back to A's path, so the roles
        // swap again; 5 is gone.
        let told = net.step(b, update(&[], 4..6, 0..0));
        assert_eq!(told[0], (hosts(4..6), vec![]));
        assert_eq!(told[1], (vec![], hosts(4..5)));
        assert_eq!(told[2], (hosts(5..6), hosts(4..5)));

        // (a) A re-announces 4 with only its NEXT_HOP changed, then only
        // its MED: each replaces the best, neither changes what is
        // exported, and no one is told anything.
        let path = [65001, 64999];
        let hop = Ipv4Addr::new(127, 0, 0, 2);
        assert_eq!(
            net.step(a, update_via(&path, hop, None, 0..0, 4..5)),
            told_nothing
        );
        assert_eq!(
            net.step(a, update_via(&path, hop, Some(7), 0..0, 4..5)),
            told_nothing
        );

        // (b) B brings 4 over the same path without a MED and wins on
        // it: the best moves from A to B but exports the same. A is sent
        // the route, B has it withdrawn, the observer hears nothing.
        let told = net.step(b, update(&path, 0..0, 4..5));
        assert_eq!(told[0], (vec![], hosts(4..5)));
        assert_eq!(told[1], (hosts(4..5), vec![]));
        assert_eq!(told[2], nothing);

        // (c) The observer asks for a ROUTE-REFRESH mid-stream: it alone
        // is sent the whole table again ...
        net.core.batch().refresh(observer);
        let (_, rx, reference) = &mut net.sessions[2];
        *reference = AdjRibOut::new();
        let next_hop = net.core.config.next_hop;
        let actions = reference.sync(net.core.engine.export_routes(observer, next_hop));
        let delivered = drain(rx);
        assert_eq!(delivered, encoded(&net.core, &actions));
        let mut table = announced(&delivered);
        table.sort();
        assert_eq!(table, [host(3), host(4), host(6)]);
        assert_eq!(net.check(&[]), told_nothing);
        // ... and changes go on being propagated: A alone brings 8, then
        // B a longer path to it, which loses; A alone brings 9.
        let told = net.step(a, update(&[65001], 0..0, 8..9));
        assert_eq!(told[2], (vec![], hosts(8..9)));
        assert_eq!(
            net.step(b, update(&[65002, 64998], 0..0, 8..9)),
            told_nothing
        );
        let told = net.step(a, update(&[65001, 64997], 0..0, 9..10));
        assert_eq!(told[2], (vec![], hosts(9..10)));

        // One UPDATE from A withdraws 8 and announces it again, as RFC
        // 4271 §4.3 allows: the best goes to B and back, to a new
        // allocation of an equal set (the withdrawal released the only
        // one), and no one is told anything.
        assert_eq!(net.step(a, update(&[65001], 8..9, 8..9)), told_nothing);

        // (d) A's session goes while B holds a fallback for 8: B, now
        // its source, has A's route withdrawn, as does everyone A's 9,
        // and the observer is moved to B's route. A's non-best route to
        // 4 goes without a word.
        let purged: Vec<Prefix> = net
            .core
            .engine
            .adj_rib_in(a)
            .unwrap()
            .iter()
            .map(|(prefix, _)| *prefix)
            .collect();
        net.core.unregister_peer(a);
        let (_, gone, _) = net.sessions.remove(0);
        assert!(gone.try_recv().is_err());
        let told: Vec<Told> = net
            .check(&purged)
            .into_iter()
            .map(|(mut withdrawn, mut announced)| {
                withdrawn.sort();
                announced.sort();
                (withdrawn, announced)
            })
            .collect();
        assert_eq!(told[0], (hosts(8..10), vec![]));
        assert_eq!(told[1], (hosts(9..10), hosts(8..9)));
    }

    #[test]
    fn a_batch_reaches_each_live_writer_as_one_buffer_and_skips_a_dead_one() {
        let mut core = Core::new(DaemonConfig::default());
        let (source, source_rx) = register(&mut core, 65001);
        let (dead, dead_rx) = register(&mut core, 65002);
        let (live, live_rx) = register(&mut core, 65003);

        {
            let mut batch = core.batch();
            batch.apply_update(source, &announce(1..2)).unwrap();
            // Nothing leaves before the batch ends.
            assert!(live_rx.try_recv().is_err());
            assert!(staged(batch.core, dead) > 0);
            // The peer's writer goes away mid-batch ...
            drop(dead_rx);
            batch.apply_update(source, &announce(2..3)).unwrap();
        }

        // ... so its bytes are dropped, not kept, while the other peer
        // gets both UPDATEs in arrival order as one buffer.
        assert_eq!(staged(&core, dead), 0);
        assert_eq!(staged(&core, live), 0);
        let delivered = live_rx.try_recv().expect("one buffer per batch");
        assert!(live_rx.try_recv().is_err(), "exactly one buffer");
        assert_eq!(announced(&delivered), [host(1), host(2)]);
        // A route is never advertised back to its source.
        assert!(source_rx.try_recv().is_err());
        assert_eq!(core.peers[&live].stats.updates_out, 2);
    }

    #[test]
    fn an_update_too_long_to_export_is_counted_not_sent() {
        let mut core = Core::new(DaemonConfig::default());
        let (source, _source_rx) = register(&mut core, 65001);
        let (observer, observer_rx) = register(&mut core, 65003);
        // One prefix over an AS_PATH of `asns` hops, first segment full,
        // so prepending our AS opens a new segment: four more octets.
        let long = |asns: u16| {
            let path: Vec<Asn> = (1..=asns).map(Asn).collect();
            let segments = path
                .chunks(255)
                .map(|c| AsPathSegment::Sequence(c.to_vec().into()));
            UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(AsPath::from_segments(segments)))
                .attribute(PathAttribute::NextHop(Ipv4Addr::new(127, 0, 0, 1)))
                .announce(host(1))
                .build()
        };
        // The longest such path a peer can send us in 4096 octets.
        let asns = (256..4096)
            .rev()
            .find(|&asns| Message::Update(long(asns)).encode().is_ok())
            .unwrap();
        core.batch().apply_update(source, &long(asns)).unwrap();

        assert!(observer_rx.try_recv().is_err(), "nothing is written");
        let stats = &core.peers[&observer].stats;
        assert_eq!(stats.updates_oversize, 1);
        assert_eq!((stats.updates_out, stats.prefixes_out), (0, 0));
        assert_eq!(staged(&core, observer), 0);

        // The next ordinary UPDATE still goes out.
        core.batch().apply_update(source, &announce(2..3)).unwrap();
        assert_eq!(announced(&observer_rx.try_recv().unwrap()), [host(2)]);
        let stats = &core.peers[&observer].stats;
        assert_eq!((stats.updates_oversize, stats.updates_out), (1, 1));
    }

    #[test]
    fn a_rejected_update_still_exports_the_withdrawals_it_applied() {
        let mut core = Core::new(DaemonConfig::default());
        let (source, _source_rx) = register(&mut core, 65001);
        let (_, observer_rx) = register(&mut core, 65003);
        core.batch().apply_update(source, &announce(1..2)).unwrap();
        assert_eq!(announced(&observer_rx.try_recv().unwrap()), [host(1)]);

        // Withdraws 1, then announces 2 without a NEXT_HOP: the engine
        // has applied the withdrawal by the time it finds the error.
        let rejected = UpdateMessage::builder()
            .withdraw(host(1))
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(65001)])))
            .announce(host(2))
            .build();
        assert!(core.batch().apply_update(source, &rejected).is_err());
        assert_eq!(core.loc_rib_len(), 0);
        assert_eq!(core.fib_len(), 0);
        assert_eq!(
            changes(&observer_rx.try_recv().unwrap()),
            (vec![host(1)], vec![])
        );
    }

    #[test]
    fn a_large_update_is_flushed_as_soon_as_it_is_applied() {
        let mut core = Core::new(DaemonConfig::default());
        let (source, _source_rx) = register(&mut core, 65001);
        let (_, live_rx) = register(&mut core, 65003);
        let mut batch = core.batch();
        // Small UPDATEs wait for the batch to end ...
        batch.apply_update(source, &announce(0..1)).unwrap();
        assert!(live_rx.try_recv().is_err());
        // ... a large one takes them along at once, mid-batch.
        let large = 1 + EAGER_FLUSH_TRANSACTIONS as u32;
        batch.apply_update(source, &announce(1..large)).unwrap();
        let delivered = live_rx.try_recv().expect("flushed mid-batch");
        assert_eq!(announced(&delivered).len(), large as usize);
    }

    #[test]
    fn staged_output_streams_out_once_it_passes_the_threshold() {
        let mut core = Core::new(DaemonConfig::default());
        let (source, _source_rx) = register(&mut core, 65001);
        let (_, live_rx) = register(&mut core, 65003);
        let mut batch = core.batch();
        // Mid-batch: the lock (here, the batch) is still held.
        let first = (0..10_000)
            .find_map(|n| {
                batch.apply_update(source, &announce(n..n + 1)).unwrap();
                live_rx.try_recv().ok()
            })
            .expect("the threshold never triggered");
        assert!(first.len() >= FLUSH_BYTES && first.len() < FLUSH_BYTES + 4096);
    }
}
