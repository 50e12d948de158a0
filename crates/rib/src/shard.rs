//! Sharded parallel RIB engine: one router's decision process spread
//! across cores.
//!
//! BGP's decision process is per-prefix independent — nothing in RFC
//! 4271's tie-break consults any *other* prefix — so the prefix-keyed
//! table partitions cleanly: [`ShardedRibEngine`] keeps N complete
//! [`RibEngine`]s, routes every prefix to the shard selected by a
//! stable hash of its bits, and fans each UPDATE's withdrawn/NLRI
//! lists out as per-shard sub-batches. Each shard owns its own
//! `PrefixEntry` map *and its own [`AttrStore`]* — interning stays a
//! single-threaded hash-set probe, and pointer-identity equality holds
//! within a shard, which is the only place the engine ever compares
//! stored attribute pointers.
//!
//! # Determinism
//!
//! Output is bit-identical regardless of shard count:
//!
//! * **Outcome order.** A shard's sub-batch preserves the message's
//!   relative prefix order, and each shard's outcomes come back as an
//!   order-preserving subsequence (withdrawals first, then
//!   announcements — exactly the order the single engine emits them).
//!   The merge step walks the *original* message order and pops the
//!   next outcome from whichever shard owns each prefix, which
//!   reconstructs the single-engine outcome stream exactly.
//! * **Per-prefix results.** A prefix's entire history lands on one
//!   shard (the hash depends only on the prefix), so the routes and
//!   decision inputs that shard sees are precisely the single engine's
//!   state restricted to its prefixes.
//! * **Exports.** [`ShardedRibEngine::export_routes`] concatenates the
//!   per-shard exports and re-sorts by prefix — the same prefix order
//!   the single engine produces. Equal attribute sets from different
//!   shards are distinct `Arc`s, but `AdjRibOut`'s pointer-keyed
//!   grouping falls back to value equality, so the staged wire
//!   messages come out identical too.
//!
//! With one shard (the default) every call delegates wholesale to the
//! inner engine — the fan-out, merge, and cross-shard stats paths are
//! never touched, so `shards = 1` is the PR-2 engine, instruction for
//! instruction.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bgpbench_telemetry::{self as telemetry, SpanId, TraceEventId};
use bgpbench_wire::{Asn, Prefix, RouterId, UpdateMessage};

use crate::attr_store::AttrStoreStats;
use crate::decision::DecisionConfig;
use crate::engine::{
    collect_into, record_apply_telemetry, record_train_telemetry, ApplyCounts, DecisionSink,
    PrefixOutcome, RibEngine, RibStats,
};
use crate::fxhash::FxHashSet;
use crate::policy::RouteMap;
use crate::route::{PeerId, PeerInfo, Route, RouteAttributes};
use crate::RibError;

/// Upper bound on the shard count: shards are per-core workers, and
/// the train partitioner records shard indices as `u8`.
pub const MAX_RIB_SHARDS: usize = 256;

/// Selects the shard owning `prefix`.
///
/// The key must be *stable* — identical across runs, platforms, and
/// engine instances — because shard assignment decides which
/// `AttrStore` interns a route and therefore the exact allocation
/// pattern a scenario replays. A SplitMix64 finalizer over the
/// prefix's value bits gives a deterministic, well-mixed key without
/// consulting any per-process hasher state.
#[inline]
fn shard_of(prefix: &Prefix, shards: usize) -> usize {
    let mut x = (u64::from(prefix.network_bits()) << 8) | u64::from(prefix.len());
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// A complete BGP routing-table engine whose prefix table is
/// partitioned across N independent [`RibEngine`] shards.
///
/// Mirrors the [`RibEngine`] API (the simulator models hold one of
/// these); with the default single shard it *is* that engine plus one
/// level of delegation. [`ShardedRibEngine::set_shards`] repartitions
/// an empty engine; [`ShardedRibEngine::apply_update_train`] is the
/// parallel batch entry point that actually uses the cores.
#[derive(Debug)]
pub struct ShardedRibEngine {
    shards: Vec<RibEngine>,
    /// UPDATE messages fanned out across shards. Sub-batches must not
    /// bump the per-shard `updates` counters (one message is one
    /// update no matter how many shards its prefixes span), so the
    /// fan-out paths count messages here and [`ShardedRibEngine::stats`]
    /// folds the two sources together.
    updates: u64,
    // The shard template: enough configuration to rebuild the shard
    // vector when the partition count changes on an empty engine.
    local_asn: Asn,
    local_id: RouterId,
    config: DecisionConfig,
    import_policy: RouteMap,
    export_policy: RouteMap,
    peers: Vec<PeerInfo>,
}

impl ShardedRibEngine {
    /// Creates a single-shard engine for a speaker with the given AS
    /// and identifier — behaviorally identical to
    /// [`RibEngine::new`].
    pub fn new(local_asn: Asn, local_id: RouterId) -> Self {
        ShardedRibEngine {
            shards: vec![RibEngine::new(local_asn, local_id)],
            updates: 0,
            local_asn,
            local_id,
            config: DecisionConfig::default(),
            import_policy: RouteMap::permit_all(),
            export_policy: RouteMap::permit_all(),
            peers: Vec::new(),
        }
    }

    /// Repartitions the engine into `shards` shards, rebuilding each
    /// from the configured template (decision config, policies,
    /// registered peers).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds [`MAX_RIB_SHARDS`], or if
    /// the engine already holds routes — repartitioning a live table
    /// would have to rehash every entry *and* re-intern every
    /// attribute set, which no caller needs: shard count is a
    /// configuration-time knob, set before the first UPDATE.
    pub fn set_shards(&mut self, shards: usize) {
        assert!(
            (1..=MAX_RIB_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_RIB_SHARDS}"
        );
        assert!(
            self.loc_rib_is_empty(),
            "shard count can only change while the RIB is empty"
        );
        if shards == self.shards.len() {
            return;
        }
        self.shards = (0..shards).map(|_| self.blank_shard()).collect();
    }

    fn blank_shard(&self) -> RibEngine {
        let mut engine = RibEngine::new(self.local_asn, self.local_id);
        engine.set_decision_config(self.config);
        engine.set_import_policy(self.import_policy.clone());
        engine.set_export_policy(self.export_policy.clone());
        for info in &self.peers {
            engine.add_peer(*info);
        }
        engine
    }

    /// The current shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order (read-only; primarily for
    /// tests and diagnostics).
    pub fn shards(&self) -> &[RibEngine] {
        &self.shards
    }

    /// The shard index that owns `prefix` under the current partition.
    pub fn shard_for(&self, prefix: &Prefix) -> usize {
        shard_of(prefix, self.shards.len())
    }

    fn knows_peer(&self, peer: PeerId) -> bool {
        self.peers.iter().any(|info| info.id() == peer)
    }

    fn loc_rib_is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.loc_rib().is_empty())
    }

    /// Replaces the decision configuration on every shard.
    pub fn set_decision_config(&mut self, config: DecisionConfig) {
        self.config = config;
        for shard in &mut self.shards {
            shard.set_decision_config(config);
        }
    }

    /// Replaces the import route-map on every shard; policy evaluation
    /// runs *inside* the shard, on the shard's own interner, so policy
    /// scenarios scale with the shard count too.
    pub fn set_import_policy(&mut self, policy: RouteMap) {
        for shard in &mut self.shards {
            shard.set_import_policy(policy.clone());
        }
        self.import_policy = policy;
    }

    /// The import route-map currently in force.
    pub fn import_policy(&self) -> &RouteMap {
        &self.import_policy
    }

    /// Replaces the export route-map on every shard.
    pub fn set_export_policy(&mut self, policy: RouteMap) {
        for shard in &mut self.shards {
            shard.set_export_policy(policy.clone());
        }
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

    /// Registers a neighbor on every shard and returns its id.
    ///
    /// # Panics
    ///
    /// As for [`RibEngine::add_peer`]: panics on a duplicate id.
    pub fn add_peer(&mut self, info: PeerInfo) -> PeerId {
        self.peers.push(info);
        let mut id = info.id();
        for shard in &mut self.shards {
            id = shard.add_peer(info);
        }
        id
    }

    /// Removes a neighbor and withdraws everything learned from it.
    /// Outcomes are reported in shard order (see
    /// [`ShardedRibEngine::purge_peer`] for why that is sufficient).
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered id.
    pub fn remove_peer(&mut self, peer: PeerId) -> Result<Vec<PrefixOutcome>, RibError> {
        let outcomes = self.purge_peer(peer)?;
        self.peers.retain(|info| info.id() != peer);
        for shard in &mut self.shards {
            let _ = shard.remove_peer(peer);
        }
        Ok(outcomes)
    }

    /// Withdraws everything learned from `peer` while keeping it
    /// registered (session flap). Outcomes concatenate in shard order;
    /// each prefix appears at most once, so consumers that apply the
    /// FIB directives or count transactions see the same result as the
    /// single engine, whose own iteration order over the table is
    /// likewise unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`RibError::UnknownPeer`] for an unregistered id.
    pub fn purge_peer(&mut self, peer: PeerId) -> Result<Vec<PrefixOutcome>, RibError> {
        if self.shards.len() == 1 {
            return self.shards[0].purge_peer(peer);
        }
        if !self.knows_peer(peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        let mut outcomes = Vec::new();
        for shard in &mut self.shards {
            outcomes.extend(shard.purge_peer(peer)?);
        }
        Ok(outcomes)
    }

    /// The registered peers, in registration order.
    pub fn peers(&self) -> impl Iterator<Item = &PeerInfo> {
        self.peers.iter()
    }

    /// A view of a peer's Adj-RIB-In across all shards, or `None` for
    /// an unknown peer.
    pub fn adj_rib_in(&self, peer: PeerId) -> Option<ShardedAdjRibIn<'_>> {
        self.knows_peer(peer).then_some(ShardedAdjRibIn {
            shards: &self.shards,
            peer,
        })
    }

    /// A view of the Loc-RIB across all shards.
    pub fn loc_rib(&self) -> ShardedLocRib<'_> {
        ShardedLocRib {
            shards: &self.shards,
        }
    }

    /// Accumulated statistics merged across shards. Counters sum; the
    /// point-in-time table sizes dedup by *value* across the per-shard
    /// stores, which reproduces the single engine's numbers exactly: a
    /// store holds precisely the attribute values its shard's routes
    /// reference, so the union over shards is the set of values the
    /// whole table references — the single store's contents.
    pub fn stats(&self) -> RibStats {
        if self.shards.len() == 1 {
            let mut stats = self.shards[0].stats();
            stats.updates += self.updates;
            return stats;
        }
        let mut merged = RibStats {
            updates: self.updates,
            ..RibStats::default()
        };
        for shard in &self.shards {
            let stats = shard.stats();
            merged.updates += stats.updates;
            merged.announcements += stats.announcements;
            merged.withdrawals += stats.withdrawals;
            merged.best_changed += stats.best_changed;
            merged.fib_installs += stats.fib_installs;
            merged.fib_removes += stats.fib_removes;
            merged.policy_rejected += stats.policy_rejected;
            merged.loop_rejected += stats.loop_rejected;
        }
        merged.attr_store_entries = self.attr_store_len() as u64;
        let mut groups: FxHashSet<&RouteAttributes> = FxHashSet::default();
        for shard in &self.shards {
            for attrs in shard.distinct_best_attrs() {
                groups.insert(attrs);
            }
        }
        merged.adj_out_groups = groups.len() as u64;
        merged
    }

    /// Number of distinct attribute *values* interned across all
    /// shards (equals [`crate::AttrStore::len`] at one shard).
    pub fn attr_store_len(&self) -> usize {
        if self.shards.len() == 1 {
            return self.shards[0].attr_store().len();
        }
        let mut values: FxHashSet<&RouteAttributes> = FxHashSet::default();
        for shard in &self.shards {
            for arc in shard.attr_store().iter() {
                values.insert(arc);
            }
        }
        values.len()
    }

    /// Summed interner hit/miss/release counters across shards.
    pub fn attr_store_stats(&self) -> AttrStoreStats {
        let mut merged = AttrStoreStats::default();
        for shard in &self.shards {
            let stats = shard.attr_store().stats();
            merged.hits += stats.hits;
            merged.misses += stats.misses;
            merged.released += stats.released;
        }
        merged
    }

    /// Processes one UPDATE from `peer` (see
    /// [`RibEngine::apply_update`]). Outcomes come back in message
    /// order regardless of shard count.
    ///
    /// # Errors
    ///
    /// As for [`RibEngine::apply_update`].
    pub fn apply_update(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
    ) -> Result<Vec<PrefixOutcome>, RibError> {
        let shards = self.shards.len();
        if shards == 1 {
            // Wholesale delegation: telemetry, error paths, and stats
            // all come from the single engine unmodified. The flight
            // recorder still gets a shard-0 busy span so single-shard
            // runs produce a RIB shard track.
            let _trace = telemetry::trace_span(
                TraceEventId::ShardApply,
                0,
                update.transaction_count() as u64,
            );
            return self.shards[0].apply_update(peer, update);
        }
        let mut per_shard: Vec<Vec<PrefixOutcome>> = vec![Vec::new(); shards];
        self.apply_update_with(peer, update, |outcome: PrefixOutcome, _, _| {
            per_shard[shard_of(&outcome.prefix, shards)].push(outcome);
        })?;
        Ok(merge_in_message_order(update, shards, per_shard))
    }

    /// [`RibEngine::apply_update_with`] across the shards. At one shard
    /// the steps come in message order; at more, each shard's steps
    /// come together — withdrawals shard by shard, then announcements
    /// shard by shard — so the steps of any one prefix keep their
    /// message order, since the prefix lives on one shard.
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
        if self.shards.len() == 1 {
            let _trace = telemetry::trace_span(
                TraceEventId::ShardApply,
                0,
                update.transaction_count() as u64,
            );
            return self.shards[0].apply_update_with(peer, update, sink);
        }
        if telemetry::disabled() {
            return self.fan_out_update(peer, update, sink);
        }
        let _span = telemetry::span(SpanId::RibApplyUpdate);
        let start = std::time::Instant::now();
        let attrs_before = self.attr_store_stats();
        let mut counts = ApplyCounts::default();
        let result = self.fan_out_update(peer, update, |outcome: PrefixOutcome, before, after| {
            counts.add(&outcome);
            sink(outcome, before, after);
        });
        record_apply_telemetry(
            update,
            start.elapsed().as_nanos() as u64,
            attrs_before,
            self.attr_store_stats(),
            self.attr_store_len() as u64,
            self.loc_rib().len() as u64,
            result.is_ok().then_some(counts),
        );
        result
    }

    /// The multi-shard per-update path: partition, then apply per shard
    /// on the calling thread. One UPDATE is far too little work to
    /// amortize a thread hand-off — batch parallelism lives in
    /// [`ShardedRibEngine::apply_update_train`].
    fn fan_out_update(
        &mut self,
        peer: PeerId,
        update: &UpdateMessage,
        mut sink: impl DecisionSink,
    ) -> Result<(), RibError> {
        if !self.knows_peer(peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        self.updates += 1;
        let shards = self.shards.len();
        let mut withdrawn: Vec<Vec<Prefix>> = vec![Vec::new(); shards];
        for prefix in update.withdrawn() {
            withdrawn[shard_of(prefix, shards)].push(*prefix);
        }
        for (index, prefixes) in withdrawn.iter().enumerate() {
            if !prefixes.is_empty() {
                let _busy = telemetry::trace_span(
                    TraceEventId::ShardApply,
                    index as u64,
                    prefixes.len() as u64,
                );
                self.shards[index].apply_withdrawals(peer, prefixes, &mut sink);
            }
        }
        if update.nlri().is_empty() {
            return Ok(());
        }
        // Decoded once here; each owning shard clones the set and
        // interns it in its own store. The `?` sits *after* the
        // withdrawals above, matching the single engine: a malformed
        // attribute block still applies the message's withdrawals.
        let attrs = RouteAttributes::from_wire(update.attributes())?;
        let mut nlri: Vec<Vec<Prefix>> = vec![Vec::new(); shards];
        for prefix in update.nlri() {
            nlri[shard_of(prefix, shards)].push(*prefix);
        }
        for (index, prefixes) in nlri.iter().enumerate() {
            if !prefixes.is_empty() {
                let _busy = telemetry::trace_span(
                    TraceEventId::ShardApply,
                    index as u64,
                    prefixes.len() as u64,
                );
                self.shards[index].apply_announcements(peer, prefixes, attrs.clone(), &mut sink);
            }
        }
        Ok(())
    }

    /// Applies a train of UPDATEs from `peer`, processing shards in
    /// parallel on scoped threads, and returns per-update outcome
    /// vectors — element `i` is exactly what
    /// [`ShardedRibEngine::apply_update`] would have returned for
    /// `updates[i]`.
    ///
    /// Every message's attributes are decoded once up front; each
    /// shard then runs its sub-batches in train order, so per-shard
    /// state evolves exactly as under sequential application. The
    /// calling thread works shard 0 while `shards - 1` scoped workers
    /// take the rest; one fork/join per *train*, not per update, is
    /// what lets 4 shards pay off even at sub-microsecond per-update
    /// cost.
    ///
    /// # Errors
    ///
    /// As for [`RibEngine::apply_update`]; on a malformed message the
    /// train falls back to sequential application so updates before
    /// the failing one are applied and the error surfaces at the same
    /// point.
    pub fn apply_update_train(
        &mut self,
        peer: PeerId,
        updates: &[UpdateMessage],
    ) -> Result<Vec<Vec<PrefixOutcome>>, RibError> {
        telemetry::trace_instant(
            TraceEventId::TrainBegin,
            updates.len() as u64,
            self.shards.len() as u64,
        );
        let mut decoded: Vec<Option<RouteAttributes>> = Vec::with_capacity(updates.len());
        let mut all_ok = true;
        for update in updates {
            if update.nlri().is_empty() {
                decoded.push(None);
                continue;
            }
            match RouteAttributes::from_wire(update.attributes()) {
                Ok(attrs) => decoded.push(Some(attrs)),
                Err(_) => {
                    all_ok = false;
                    break;
                }
            }
        }
        if !all_ok || self.shards.len() == 1 || updates.len() <= 1 {
            let mut outcomes = Vec::with_capacity(updates.len());
            for update in updates {
                outcomes.push(self.apply_update(peer, update)?);
            }
            return Ok(outcomes);
        }
        if !self.knows_peer(peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        self.updates += updates.len() as u64;
        let shards = self.shards.len();

        // Partition every message once, remembering each prefix's
        // shard so the merge below is a queue pop, not a rehash.
        let mut work: Vec<Vec<(Vec<Prefix>, Vec<Prefix>)>> =
            vec![Vec::with_capacity(updates.len()); shards];
        let mut plans: Vec<Vec<u8>> = Vec::with_capacity(updates.len());
        for (index, update) in updates.iter().enumerate() {
            for batches in &mut work {
                batches.push((Vec::new(), Vec::new()));
            }
            let mut plan = Vec::with_capacity(update.transaction_count());
            for prefix in update.withdrawn() {
                let shard = shard_of(prefix, shards);
                plan.push(shard as u8);
                work[shard][index].0.push(*prefix);
            }
            for prefix in update.nlri() {
                let shard = shard_of(prefix, shards);
                plan.push(shard as u8);
                work[shard][index].1.push(*prefix);
            }
            plans.push(plan);
        }

        // One race-detector cell per shard's outcome slot: the worker
        // writes it, the merge reads it, and the scoped join is the
        // only thing ordering the two.
        #[cfg(feature = "check-sync")]
        let train_cells: Vec<u64> = (0..shards)
            .map(|_| parking_lot::sync_check::next_cell_id())
            .collect();

        // Aggregate-telemetry pre-state; the fallback path above gets
        // this per update from `apply_update` instead.
        let train_start = if telemetry::enabled() {
            Some((std::time::Instant::now(), self.attr_store_stats()))
        } else {
            None
        };

        let decoded = &decoded;
        #[cfg(feature = "check-sync")]
        let train_cells_ref = &train_cells;
        let run_shard = |shard_index: usize,
                         engine: &mut RibEngine,
                         batches: &[(Vec<Prefix>, Vec<Prefix>)]|
         -> Vec<Vec<PrefixOutcome>> {
            // Recorded from whichever thread runs the shard, so the
            // exported timeline shows per-shard busy intervals (and
            // their imbalance) directly.
            let _busy = if telemetry::trace_enabled() {
                let prefixes: usize = batches.iter().map(|(w, n)| w.len() + n.len()).sum();
                telemetry::trace_span(TraceEventId::ShardBusy, shard_index as u64, prefixes as u64)
            } else {
                None
            };
            let mut per_update = Vec::with_capacity(batches.len());
            for (index, (withdrawn, nlri)) in batches.iter().enumerate() {
                let mut outcomes = Vec::with_capacity(withdrawn.len() + nlri.len());
                if !withdrawn.is_empty() {
                    engine.apply_withdrawals(peer, withdrawn, collect_into(&mut outcomes));
                }
                if !nlri.is_empty() {
                    if let Some(attrs) = &decoded[index] {
                        engine.apply_announcements(
                            peer,
                            nlri,
                            attrs.clone(),
                            collect_into(&mut outcomes),
                        );
                    }
                }
                per_update.push(outcomes);
            }
            #[cfg(feature = "check-sync")]
            parking_lot::sync_check::record_cell_write(
                train_cells_ref[shard_index],
                "rib::shard::train_worker",
            );
            per_update
        };

        // On a single-CPU host scoped workers only timeshare the one
        // core, so the fork/join is pure loss; run the same per-shard
        // closure on the caller thread instead. Output is bit-identical
        // either way — shards never observe each other.
        let parallel = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            > 1;
        let shard_results: Vec<Vec<Vec<PrefixOutcome>>> = if !parallel {
            self.shards
                .iter_mut()
                .zip(&work)
                .enumerate()
                .map(|(index, (engine, batches))| run_shard(index, engine, batches))
                .collect()
        } else {
            let (first_shard, rest_shards) = match self.shards.split_first_mut() {
                Some(split) => split,
                None => return Ok(Vec::new()), // unreachable: shards >= 1
            };
            let (first_work, rest_work) = match work.split_first() {
                Some(split) => split,
                None => return Ok(Vec::new()),
            };
            let run_shard = &run_shard;
            std::thread::scope(|scope| {
                #[cfg(feature = "check-sync")]
                let mut spawn_tokens: Vec<u64> = Vec::with_capacity(shards - 1);
                let handles: Vec<_> = rest_shards
                    .iter_mut()
                    .zip(rest_work)
                    .enumerate()
                    .map(|(offset, (engine, batches))| {
                        #[cfg(feature = "check-sync")]
                        let token = {
                            let token = parking_lot::sync_check::next_task_token();
                            parking_lot::sync_check::on_task_spawn(token);
                            spawn_tokens.push(token);
                            token
                        };
                        scope.spawn(move || {
                            #[cfg(feature = "check-sync")]
                            parking_lot::sync_check::on_task_start(token);
                            let result = run_shard(offset + 1, engine, batches);
                            #[cfg(feature = "check-sync")]
                            parking_lot::sync_check::on_task_end(token);
                            result
                        })
                    })
                    .collect();
                let mut results = Vec::with_capacity(shards);
                results.push(run_shard(0, first_shard, first_work));
                for handle in handles {
                    match handle.join() {
                        Ok(result) => results.push(result),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                #[cfg(feature = "check-sync")]
                for token in spawn_tokens {
                    parking_lot::sync_check::on_task_join(token);
                }
                results
            })
        };

        // Merge: per update, walk the recorded shard sequence (message
        // order) and pop that shard's next outcome.
        #[cfg(feature = "check-sync")]
        for cell in &train_cells {
            parking_lot::sync_check::record_cell_read(*cell, "rib::shard::train_merge");
        }
        let mut queues: Vec<Vec<std::vec::IntoIter<PrefixOutcome>>> = shard_results
            .into_iter()
            .map(|per_update| per_update.into_iter().map(Vec::into_iter).collect())
            .collect();
        let mut merged = Vec::with_capacity(updates.len());
        {
            let _merge_span = telemetry::trace_span(
                TraceEventId::TrainMerge,
                updates.len() as u64,
                shards as u64,
            );
            let mut queued: u64 = if telemetry::trace_enabled() {
                plans.iter().map(|p| p.len() as u64).sum()
            } else {
                0
            };
            for (index, plan) in plans.iter().enumerate() {
                let mut outcomes = Vec::with_capacity(plan.len());
                for &shard in plan {
                    if let Some(outcome) = queues[shard as usize][index].next() {
                        outcomes.push(outcome);
                    }
                }
                debug_assert_eq!(outcomes.len(), plan.len());
                merged.push(outcomes);
                if telemetry::trace_enabled() {
                    queued = queued.saturating_sub(plan.len() as u64);
                    telemetry::trace_counter(TraceEventId::MergeQueueDepth, queued);
                }
            }
        }
        if let Some((start, attrs_before)) = train_start {
            record_train_telemetry(
                updates,
                start.elapsed().as_nanos() as u64,
                attrs_before,
                self.attr_store_stats(),
                self.attr_store_len() as u64,
                self.loc_rib().len() as u64,
                &merged,
            );
        }
        Ok(merged)
    }

    /// Computes the routes to advertise to `peer` (see
    /// [`RibEngine::export_routes`]): per-shard exports concatenated
    /// and re-sorted into the single engine's global prefix order.
    pub fn export_routes(
        &self,
        peer: PeerId,
        local_address: Ipv4Addr,
    ) -> Vec<(Prefix, Arc<RouteAttributes>)> {
        if self.shards.len() == 1 {
            return self.shards[0].export_routes(peer, local_address);
        }
        let mut routes = Vec::new();
        for shard in &self.shards {
            routes.extend(shard.export_routes(peer, local_address));
        }
        routes.sort_by_key(|(prefix, _)| *prefix);
        routes
    }
}

/// Merges per-shard outcome subsequences back into the original
/// message order (withdrawn prefixes, then NLRI).
fn merge_in_message_order(
    update: &UpdateMessage,
    shards: usize,
    per_shard: Vec<Vec<PrefixOutcome>>,
) -> Vec<PrefixOutcome> {
    let mut queues: Vec<std::vec::IntoIter<PrefixOutcome>> =
        per_shard.into_iter().map(Vec::into_iter).collect();
    let mut merged = Vec::with_capacity(update.transaction_count());
    for prefix in update.withdrawn().iter().chain(update.nlri()) {
        if let Some(outcome) = queues[shard_of(prefix, shards)].next() {
            merged.push(outcome);
        }
    }
    debug_assert_eq!(merged.len(), update.transaction_count());
    merged
}

/// A read view of one peer's Adj-RIB-In across every shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardedAdjRibIn<'a> {
    shards: &'a [RibEngine],
    peer: PeerId,
}

impl<'a> ShardedAdjRibIn<'a> {
    /// Number of routes learned from the peer.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .filter_map(|shard| shard.adj_rib_in(self.peer))
            .map(|view| view.len())
            .sum()
    }

    /// Whether the peer contributed no routes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The peer's route for `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<&'a Arc<RouteAttributes>> {
        self.shards[shard_of(prefix, self.shards.len())]
            .adj_rib_in(self.peer)
            .and_then(|view| view.get(prefix))
    }

    /// Iterates the peer's routes, shard by shard (order within a
    /// shard is unspecified, as for the single engine).
    pub fn iter(&self) -> impl Iterator<Item = (&'a Prefix, &'a Arc<RouteAttributes>)> + 'a {
        let peer = self.peer;
        self.shards
            .iter()
            .filter_map(move |shard| shard.adj_rib_in(peer))
            .flat_map(|view| view.iter())
    }
}

/// A read view of the Loc-RIB across every shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardedLocRib<'a> {
    shards: &'a [RibEngine],
}

impl<'a> ShardedLocRib<'a> {
    /// Number of prefixes with a selected best route.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.loc_rib().len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.loc_rib().is_empty())
    }

    /// The selected best route for `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<Route> {
        self.shards[shard_of(prefix, self.shards.len())]
            .loc_rib()
            .get(prefix)
    }

    /// Iterates the selected best routes, shard by shard (order within
    /// a shard is unspecified, as for the single engine).
    pub fn iter(&self) -> impl Iterator<Item = Route> + 'a {
        self.shards.iter().flat_map(|shard| shard.loc_rib().iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteChange;
    use bgpbench_wire::{AsPath, Origin};

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The shard key is a pure function of the prefix's value bits —
    /// these pins document the exact assignment so an accidental
    /// change to the hash (which would silently re-partition every
    /// scenario's allocation pattern) fails loudly.
    #[test]
    fn shard_key_is_stable() {
        let cases = [
            ("10.0.0.0/8", [1, 1, 3, 7]),
            ("192.168.0.0/16", [0, 0, 2, 2]),
            ("192.0.2.0/24", [1, 0, 1, 5]),
            ("0.0.0.0/0", [0, 0, 0, 0]),
        ];
        for (text, expected) in cases {
            for (counts, want) in [2usize, 3, 4, 8].iter().zip(expected) {
                assert_eq!(
                    shard_of(&prefix(text), *counts),
                    want,
                    "{text} at {counts} shards"
                );
            }
        }
    }

    fn two_peer_engine(shards: usize) -> ShardedRibEngine {
        let mut engine = ShardedRibEngine::new(Asn(65000), RouterId(1));
        engine.add_peer(PeerInfo::new(
            PeerId(1),
            Asn(65001),
            RouterId(2),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        engine.add_peer(PeerInfo::new(
            PeerId(2),
            Asn(65002),
            RouterId(3),
            Ipv4Addr::new(10, 0, 0, 3),
        ));
        engine.set_shards(shards);
        engine
    }

    fn announce(prefixes: &[&str], asn: u16) -> UpdateMessage {
        let attrs = RouteAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(asn)]),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let mut builder = UpdateMessage::builder();
        for attr in attrs.to_wire() {
            builder = builder.attribute(attr);
        }
        builder
            .announce_all(prefixes.iter().map(|p| prefix(p)))
            .build()
    }

    #[test]
    fn fan_out_merge_restores_message_order() {
        let prefixes = ["10.0.0.0/8", "192.168.0.0/16", "192.0.2.0/24", "0.0.0.0/0"];
        let update = announce(&prefixes, 65001);
        let mut single = two_peer_engine(1);
        let mut sharded = two_peer_engine(4);
        let want = single.apply_update(PeerId(1), &update).unwrap();
        let got = sharded.apply_update(PeerId(1), &update).unwrap();
        assert_eq!(got, want);
        assert_eq!(
            got.iter().map(|o| o.prefix).collect::<Vec<_>>(),
            prefixes.iter().map(|p| prefix(p)).collect::<Vec<_>>(),
            "outcomes must come back in message order"
        );
        assert!(got.iter().all(|o| o.change == RouteChange::Installed));
        assert_eq!(single.stats(), sharded.stats());
        assert_eq!(single.attr_store_len(), sharded.attr_store_len());
    }

    #[test]
    fn set_shards_repartitions_an_empty_engine() {
        let mut engine = two_peer_engine(1);
        engine.set_shards(8);
        assert_eq!(engine.shard_count(), 8);
        engine.set_shards(2);
        let update = announce(&["10.0.0.0/8"], 65001);
        assert_eq!(
            engine.apply_update(PeerId(1), &update).unwrap().len(),
            1,
            "peers must survive repartitioning"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn set_shards_refuses_a_loaded_engine() {
        let mut engine = two_peer_engine(1);
        engine
            .apply_update(PeerId(1), &announce(&["10.0.0.0/8"], 65001))
            .unwrap();
        engine.set_shards(4);
    }

    #[test]
    fn exports_are_bit_identical_across_shard_counts() {
        let prefixes = ["10.0.0.0/8", "192.168.0.0/16", "192.0.2.0/24"];
        let update = announce(&prefixes, 65001);
        let mut single = two_peer_engine(1);
        let mut sharded = two_peer_engine(4);
        single.apply_update(PeerId(1), &update).unwrap();
        sharded.apply_update(PeerId(1), &update).unwrap();
        let local = Ipv4Addr::new(10, 0, 0, 1);
        let a = single.export_routes(PeerId(2), local);
        let b = sharded.export_routes(PeerId(2), local);
        assert_eq!(a.len(), b.len());
        for ((ap, aa), (bp, ba)) in a.iter().zip(&b) {
            assert_eq!(ap, bp);
            assert_eq!(aa.as_ref(), ba.as_ref());
        }
    }
}
