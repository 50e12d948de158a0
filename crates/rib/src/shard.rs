//! The sharded UPDATE train: one router's decision process spread
//! across cores, one fork/join per train of messages.
//!
//! BGP's decision process is per-prefix independent — nothing in RFC
//! 4271's tie-break consults any *other* prefix — so the prefix-keyed
//! table partitions cleanly: [`ShardedRibEngine`] keeps N complete
//! [`RibEngine`]s, routes every prefix to the shard selected by a
//! stable hash of its bits, and fans a train's withdrawn/NLRI lists out
//! as per-shard sub-batches. Each shard owns its own `PrefixEntry` map
//! *and its own [`crate::AttrStore`]* — interning stays a
//! single-threaded hash-set probe, and pointer-identity equality holds
//! within a shard, which is the only place the engine ever compares
//! stored attribute pointers.
//!
//! The simulator and `bgpd` run one [`RibEngine`]; this type is the
//! sampler the repo benchmark times the train with (`rib.train` at one
//! shard, `rib.shard` at the host's parallelism), and the subject of
//! `check`'s race and interleaving models.
//!
//! # Determinism
//!
//! A train's outcomes are bit-identical regardless of shard count:
//!
//! * **Per-prefix results.** A prefix's entire history lands on one
//!   shard (the hash depends only on the prefix), and each shard runs
//!   its sub-batches in train order, so the routes and decision inputs
//!   that shard sees are precisely the single engine's state
//!   restricted to its prefixes.
//! * **Outcome order.** A shard's sub-batch preserves the message's
//!   relative prefix order, and each shard's outcomes come back as an
//!   order-preserving subsequence (withdrawals first, then
//!   announcements — exactly the order the single engine emits them).
//!   The merge walks each message's recorded shard sequence and pops
//!   the next outcome from that shard, which reconstructs the
//!   single-engine outcome stream exactly.
//!
//! With one shard (the default) the train is [`RibEngine::apply_update`]
//! in a loop: the partition and merge are never touched.

use bgpbench_telemetry::{self as telemetry, TraceEventId};
use bgpbench_wire::{Asn, Prefix, RouterId, UpdateMessage};

use crate::attr_store::AttrStoreStats;
use crate::engine::{collect_into, record_train_telemetry, PrefixOutcome, RibEngine};
use crate::fxhash::FxHashSet;
use crate::route::{PeerId, PeerInfo, RouteAttributes};
use crate::RibError;

/// Upper bound on the shard count: shards are per-core workers, and
/// the train partitioner records shard indices as `u8`.
const MAX_RIB_SHARDS: usize = 256;

/// Selects the shard owning `prefix`.
///
/// The key must be *stable* — identical across runs, platforms, and
/// engine instances — because shard assignment decides which
/// `AttrStore` interns a route and therefore the exact allocation
/// pattern a train replays. A SplitMix64 finalizer over the prefix's
/// value bits gives a deterministic, well-mixed key without consulting
/// any per-process hasher state.
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

/// A BGP routing table partitioned across N independent [`RibEngine`]
/// shards, fed in trains of UPDATEs.
///
/// [`ShardedRibEngine::set_shards`] repartitions an empty engine;
/// [`ShardedRibEngine::apply_update_train`] is the batch entry point
/// that uses the cores. The shards themselves are readable through
/// [`ShardedRibEngine::shards`].
#[derive(Debug)]
pub struct ShardedRibEngine {
    shards: Vec<RibEngine>,
    // The shard template: enough to rebuild the shard vector when the
    // partition count changes on an empty engine.
    local_asn: Asn,
    local_id: RouterId,
    peers: Vec<PeerInfo>,
}

impl ShardedRibEngine {
    /// Creates a single-shard engine for a speaker with the given AS
    /// and identifier.
    pub fn new(local_asn: Asn, local_id: RouterId) -> Self {
        ShardedRibEngine {
            shards: vec![RibEngine::new(local_asn, local_id)],
            local_asn,
            local_id,
            peers: Vec::new(),
        }
    }

    /// Repartitions the engine into `shards` shards, rebuilding each
    /// with the registered peers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds 256 (`MAX_RIB_SHARDS`), or if
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
            self.shards.iter().all(|shard| shard.loc_rib().is_empty()),
            "shard count can only change while the RIB is empty"
        );
        if shards == self.shards.len() {
            return;
        }
        self.shards = (0..shards)
            .map(|_| {
                let mut engine = RibEngine::new(self.local_asn, self.local_id);
                for info in &self.peers {
                    engine.add_peer(*info);
                }
                engine
            })
            .collect();
    }

    /// The per-shard engines, in shard order (read-only; for tests and
    /// diagnostics).
    pub fn shards(&self) -> &[RibEngine] {
        &self.shards
    }

    /// The shard index that owns `prefix` under the current partition.
    pub fn shard_for(&self, prefix: &Prefix) -> usize {
        shard_of(prefix, self.shards.len())
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

    /// Applies a train of UPDATEs from `peer` and returns per-update
    /// outcome vectors: element `i` is exactly what
    /// [`RibEngine::apply_update`] returns for `updates[i]` when one
    /// engine is fed the train one message at a time.
    ///
    /// At one shard the train is that loop. At more, every message's
    /// attributes are decoded once up front; each shard then runs its
    /// sub-batches in train order, so per-shard state evolves exactly
    /// as under sequential application. The calling thread works shard
    /// 0 while `shards - 1` scoped workers take the rest; one fork/join
    /// per *train*, not per update, is what lets 4 shards pay off even
    /// at sub-microsecond per-update cost.
    ///
    /// # Errors
    ///
    /// As for [`RibEngine::apply_update`]. When a message's attributes
    /// do not decode, the messages before it and its own withdrawals
    /// are applied — the state sequential application leaves — and
    /// its error is returned.
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
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        if let [engine] = self.shards.as_mut_slice() {
            return updates
                .iter()
                .map(|update| engine.apply_update(peer, update))
                .collect();
        }
        if !self.peers.iter().any(|info| info.id() == peer) {
            return Err(RibError::UnknownPeer(peer.0));
        }
        // Decode up to the first malformed message. That message keeps
        // its withdrawals and loses its NLRI, as in
        // `RibEngine::apply_update`, and ends the train.
        let mut decoded: Vec<Option<RouteAttributes>> = Vec::with_capacity(updates.len());
        let mut malformed = None;
        for update in updates {
            if update.nlri().is_empty() {
                decoded.push(None);
                continue;
            }
            match RouteAttributes::from_wire(update.attributes()) {
                Ok(attrs) => decoded.push(Some(attrs)),
                Err(error) => {
                    decoded.push(None);
                    malformed = Some(error);
                    break;
                }
            }
        }
        let updates = &updates[..decoded.len()];
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
            if decoded[index].is_some() {
                for prefix in update.nlri() {
                    let shard = shard_of(prefix, shards);
                    plan.push(shard as u8);
                    work[shard][index].1.push(*prefix);
                }
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

        #[expect(
            clippy::disallowed_methods,
            reason = "the sharded train mirrors engine.rs's ApplyHostNs instrumentation"
        )]
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
            let loc_rib_len: usize = self.shards.iter().map(|shard| shard.loc_rib().len()).sum();
            record_train_telemetry(
                updates,
                start.elapsed().as_nanos() as u64,
                attrs_before,
                self.attr_store_stats(),
                self.distinct_attrs() as u64,
                loc_rib_len as u64,
                &merged,
            );
        }
        match malformed {
            Some(error) => Err(error),
            None => Ok(merged),
        }
    }

    /// Interner hit/miss/release counters summed across shards.
    fn attr_store_stats(&self) -> AttrStoreStats {
        let mut merged = AttrStoreStats::default();
        for shard in &self.shards {
            let stats = shard.attr_store().stats();
            merged.hits += stats.hits;
            merged.misses += stats.misses;
            merged.released += stats.released;
        }
        merged
    }

    /// Distinct attribute *values* interned across all shards: what
    /// one engine's store would hold for the same routes.
    fn distinct_attrs(&self) -> usize {
        let mut values: FxHashSet<&RouteAttributes> = FxHashSet::default();
        for shard in &self.shards {
            values.extend(shard.attr_store().iter().map(|arc| &**arc));
        }
        values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPath, Origin};
    use std::net::Ipv4Addr;

    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The shard key is a pure function of the prefix's value bits —
    /// these pins document the exact assignment so an accidental
    /// change to the hash (which would silently re-partition every
    /// train's allocation pattern) fails loudly.
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
    fn set_shards_repartitions_an_empty_engine() {
        let mut engine = two_peer_engine(1);
        engine.set_shards(8);
        assert_eq!(engine.shards().len(), 8);
        engine.set_shards(2);
        let train = [announce(&["10.0.0.0/8"], 65001)];
        assert_eq!(
            engine.apply_update_train(PeerId(1), &train).unwrap()[0].len(),
            1,
            "peers must survive repartitioning"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn set_shards_refuses_a_loaded_engine() {
        let mut engine = two_peer_engine(1);
        engine
            .apply_update_train(PeerId(1), &[announce(&["10.0.0.0/8"], 65001)])
            .unwrap();
        engine.set_shards(4);
    }
}
