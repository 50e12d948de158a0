//! The daemon's shared routing core: one lock around the RIB engine,
//! the shadow FIB, and per-peer advertisement state.
//!
//! Holding a single lock across "apply update → update FIB → stage
//! advertisements" gives every peer a consistent, totally-ordered view
//! — the same serialization point the `xorp_rib` process provides in
//! the paper's software routers.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crossbeam::channel::Sender;

use bgpbench_fib::{Fib, NextHop};
use bgpbench_rib::fxhash::FxHashMap;
use bgpbench_rib::{
    AdjRibOut, ExportAction, FibDirective, OutboundUpdate, PeerId, PeerInfo, PrefixOutcome,
    RibEngine, RibError, RibStats, RouteAttributes,
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

/// Counters the daemon exposes in snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CoreStats {
    pub updates_received: u64,
    pub transactions: u64,
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
    adj_out: AdjRibOut,
    writer: Sender<Vec<u8>>,
    stats: PeerSnapshot,
    /// Encoded UPDATEs not yet handed to `writer`. Empty whenever the
    /// core lock is free: whoever stages flushes before releasing it.
    staged: Vec<u8>,
}

impl Peer {
    /// Packetizes `actions` and encodes the UPDATEs onto `staged`.
    fn stage(&mut self, actions: &[ExportAction], max_prefixes_per_update: usize) {
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

#[derive(Debug)]
pub(crate) struct Core {
    config: DaemonConfig,
    engine: RibEngine,
    fib: Fib,
    peers: BTreeMap<PeerId, Peer>,
    next_peer: u32,
    stats: CoreStats,
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
    /// The engine's rejection of the UPDATE (RFC 4271 §6.3); nothing
    /// was applied, and the session layer owes the peer a NOTIFICATION.
    pub(crate) fn apply_update(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> Result<(), RibError> {
        self.core.apply_update_from(peer, update)
    }

    /// Handles a ROUTE-REFRESH request (RFC 2918): resets the peer's
    /// Adj-RIB-Out and re-advertises the full table.
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
            next_peer: 1,
            stats: CoreStats::default(),
        }
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
                adj_out: AdjRibOut::new(),
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
        if let Ok(outcomes) = self.engine.remove_peer(peer) {
            self.apply_fib(&outcomes);
            self.propagate(outcomes.iter().map(|o| o.prefix));
            self.flush();
        }
    }

    fn apply_update_from(&mut self, peer: PeerId, update: &UpdateMessage) -> Result<(), RibError> {
        let outcomes = self.engine.apply_update(peer, update)?;
        self.stats.updates_received += 1;
        self.stats.transactions += outcomes.len() as u64;
        if let Some(peer) = self.peers.get_mut(&peer) {
            peer.stats.updates_in += 1;
            peer.stats.prefixes_in += outcomes.len() as u64;
        }
        self.apply_fib(&outcomes);
        self.propagate(outcomes.iter().map(|o| o.prefix));
        if outcomes.len() >= EAGER_FLUSH_TRANSACTIONS {
            self.flush();
        }
        Ok(())
    }

    /// Carries out the forwarding-table writes `outcomes` call for.
    fn apply_fib(&mut self, outcomes: &[PrefixOutcome]) {
        let _span = telemetry::span(SpanId::FibApply);
        for outcome in outcomes {
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
        }
        telemetry::gauge(MetricId::FibNodes, self.fib.node_count() as u64);
        telemetry::gauge(MetricId::FibBytes, self.fib.heap_bytes() as u64);
    }

    /// Re-syncs the advertisement state of `prefixes` toward every
    /// established peer and stages the resulting UPDATEs.
    fn propagate(&mut self, prefixes: impl Iterator<Item = Prefix>) {
        let _span = telemetry::span(SpanId::DaemonPropagate);
        telemetry::incr(MetricId::DaemonPropagateRounds);
        // What to advertise for a prefix is the same toward every peer
        // but the one it was learned from, so each prefix's best route
        // is looked up once, here, not once per peer. Its exported form
        // (own AS prepended, next hop rewritten) is peer-independent
        // too, and the engine interns attribute sets, so one cache keyed
        // on pointer identity covers every prefix of the round. This
        // also keeps Adj-RIB-Out grouping on the pointer fast path.
        let loc_rib = self.engine.loc_rib();
        let mut exported: FxHashMap<*const RouteAttributes, Arc<RouteAttributes>> =
            FxHashMap::default();
        let resolved: Vec<_> = prefixes
            .map(|prefix| {
                let best = loc_rib.best(&prefix).map(|(learned_from, attrs)| {
                    let exported = exported.entry(Arc::as_ptr(attrs)).or_insert_with(|| {
                        Arc::new(attrs.exported(self.config.local_asn, self.config.next_hop))
                    });
                    (learned_from, Arc::clone(exported))
                });
                (prefix, best)
            })
            .collect();
        let mut actions: Vec<ExportAction> = Vec::new();
        for (&id, peer) in &mut self.peers {
            actions.clear();
            for (prefix, best) in &resolved {
                let desired = match best {
                    // Never advertise a route back to its source.
                    Some((learned_from, attrs)) if *learned_from != id => Some(Arc::clone(attrs)),
                    _ => None,
                };
                actions.extend(peer.adj_out.sync_prefix(*prefix, desired));
            }
            if !actions.is_empty() {
                peer.stage(&actions, self.config.export_prefixes_per_update);
            }
        }
    }

    /// Resets `peer`'s Adj-RIB-Out and stages the full table toward it.
    fn advertise_table(&mut self, id: PeerId) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let routes = self.engine.export_routes(id, self.config.next_hop);
        peer.adj_out = AdjRibOut::new();
        let actions = peer.adj_out.sync(routes);
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
    /// announcements over `path`.
    fn update(
        path: &[u16],
        withdraw: std::ops::Range<u32>,
        announce: std::ops::Range<u32>,
    ) -> UpdateMessage {
        UpdateMessage::builder()
            .withdraw_all(withdraw.map(host))
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence(
                path.iter().copied().map(Asn),
            )))
            .attribute(PathAttribute::NextHop(Ipv4Addr::new(127, 0, 0, 1)))
            .announce_all(announce.map(host))
            .build()
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

    /// What propagating `prefixes` must send `peer`, the plain way: one
    /// Loc-RIB lookup per prefix for this peer alone, owned messages,
    /// each encoded on its own.
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
        AdjRibOut::to_updates(&actions, config.export_prefixes_per_update)
            .into_iter()
            .flat_map(|update| Message::Update(update).encode().unwrap())
            .collect()
    }

    #[test]
    fn each_peer_is_sent_the_best_route_unless_it_is_the_source() {
        let mut core = Core::new(DaemonConfig::default());
        let (a, a_rx) = register(&mut core, 65001);
        let (b, b_rx) = register(&mut core, 65002);
        let (observer, observer_rx) = register(&mut core, 65003);
        let peers = [(a, &a_rx), (b, &b_rx), (observer, &observer_rx)];
        let mut reference = [AdjRibOut::new(), AdjRibOut::new(), AdjRibOut::new()];

        // Applies one UPDATE, checks every peer's bytes against the
        // reference, and returns what each was told, decoded.
        let mut step = |core: &mut Core, from: PeerId, update: UpdateMessage| {
            core.batch().apply_update(from, &update).unwrap();
            let prefixes: Vec<Prefix> = update
                .withdrawn()
                .iter()
                .chain(update.nlri())
                .copied()
                .collect();
            let mut told = Vec::new();
            for ((peer, rx), adj_out) in peers.iter().zip(&mut reference) {
                let delivered: Vec<u8> = std::iter::from_fn(|| rx.try_recv().ok())
                    .flatten()
                    .collect();
                let expected = reference_bytes(core, *peer, adj_out, &prefixes);
                assert_eq!(delivered, expected, "bytes sent to {peer:?}");
                told.push(changes(&delivered));
            }
            told
        };
        let hosts = |range: std::ops::Range<u32>| range.map(host).collect::<Vec<_>>();
        let nothing = (Vec::new(), Vec::new());

        // A is the only source of 1..5.
        let told = step(&mut core, a, update(&[65001, 64999], 0..0, 1..5));
        assert_eq!(told[0], nothing);
        assert_eq!(told[1], (vec![], hosts(1..5)));
        assert_eq!(told[2], (vec![], hosts(1..5)));

        // B brings a shorter path for 3 and 4, and 5 and 6 besides. A,
        // no longer the source of 3 and 4, is sent their replacement; B,
        // now their source, has A's routes to them withdrawn.
        let told = step(&mut core, b, update(&[65002], 0..0, 3..7));
        assert_eq!(told[0], (vec![], hosts(3..7)));
        assert_eq!(told[1], (hosts(3..5), vec![]));
        assert_eq!(told[2], (vec![], hosts(3..7)));

        // A withdraws 1, 2 and 3: 1 and 2 are gone, 3 stays B's.
        let told = step(&mut core, a, update(&[], 1..4, 0..0));
        assert_eq!(told[0], nothing);
        assert_eq!(told[1], (hosts(1..3), vec![]));
        assert_eq!(told[2], (hosts(1..3), vec![]));

        // B withdraws 4 and 5: 4 falls back to A's path, so the roles
        // swap again; 5 is gone.
        let told = step(&mut core, b, update(&[], 4..6, 0..0));
        assert_eq!(told[0], (hosts(4..6), vec![]));
        assert_eq!(told[1], (vec![], hosts(4..5)));
        assert_eq!(told[2], (hosts(5..6), hosts(4..5)));
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
                .map(|c| AsPathSegment::Sequence(c.to_vec()));
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
