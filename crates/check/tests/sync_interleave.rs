//! Concurrency checks over real workspace subsystems, built on the
//! `check-sync` instrumentation in the `parking_lot`/`crossbeam`
//! shims plus the [`bgpbench_check::interleave`] mini-interleaver.
//!
//! Run with:
//!
//! ```text
//! cargo test -p bgpbench-check --features check-sync
//! ```
//!
//! The shim recorders are process-global, so every test touching them
//! takes the [`serial`] guard — the harness's default parallelism
//! would otherwise interleave unrelated tests' lock/channel logs.

#![cfg(feature = "check-sync")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock};

use bgpbench_check::interleave::{explore, explore_dpor, ExploreError};
use bgpbench_check::sync::{recorded_lock_graph, LockOrderGraph};
use bgpbench_core::{CellSpec, GridRunner, Scenario};
use bgpbench_models::pentium3;
use bgpbench_telemetry::{MetricId, Registry, Snapshot};
use crossbeam::sync_check::ChannelOp;
use parking_lot::Mutex;

/// Serializes tests that read or reset the global shim recorders.
fn serial() -> StdMutexGuard<'static, ()> {
    static GUARD: OnceLock<StdMutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

// ───────────────────────── lock ordering ─────────────────────────

#[test]
fn consistent_lock_order_leaves_no_cycle() {
    let _serial = serial();
    parking_lot::sync_check::reset();

    let a = Arc::new(Mutex::new(0u64));
    let b = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let mut outer = a.lock();
                    let mut inner = b.lock();
                    *outer += 1;
                    *inner += 1;
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }

    let graph = recorded_lock_graph();
    assert!(graph.edge_count() >= 1, "nesting must record an edge");
    assert_eq!(graph.find_cycle(), None);
}

#[test]
fn inverted_lock_order_is_detected_without_a_deadlock() {
    // The negative test the detector exists for: A→B in one region,
    // B→A in another. Run *sequentially*, this never deadlocks — an
    // execution-based checker sees nothing — but the order graph has
    // the cycle that an unlucky parallel schedule would hit.
    let _serial = serial();
    parking_lot::sync_check::reset();

    let a = Mutex::new(0u64);
    let b = Mutex::new(0u64);
    {
        let _first = a.lock();
        let _second = b.lock();
    }
    {
        let _first = b.lock();
        let _second = a.lock();
    }

    let graph = recorded_lock_graph();
    let cycle = graph
        .find_cycle()
        .expect("inverted acquisition order must produce a cycle");
    assert_eq!(cycle.first(), cycle.last());
    assert!(cycle.contains(&a.sync_id()) && cycle.contains(&b.sync_id()));
}

#[test]
fn lock_graph_builds_from_arbitrary_edges() {
    // The graph logic itself is feature-independent; exercise it here
    // too so a `--features check-sync` run covers both layers.
    let graph = LockOrderGraph::from_edges([(10, 20), (20, 30)]);
    assert_eq!(graph.find_cycle(), None);
}

// ─────────────── registry sharded recording (loom-lite) ───────────────

#[test]
fn sharded_metric_recording_commutes_across_all_schedules() {
    // Three "threads" record into three distinct registry shards —
    // the exact write pattern GridRunner workers produce. Every
    // interleaving must yield the same snapshot, or sharding would
    // make measured numbers schedule-dependent.
    let ops: [Vec<(usize, MetricId, u64)>; 3] = [
        vec![
            (0, MetricId::RibUpdates, 1),
            (0, MetricId::RibPrefixes, 10),
            (0, MetricId::RibUpdates, 2),
        ],
        vec![(1, MetricId::RibUpdates, 4), (1, MetricId::FibInstalls, 7)],
        vec![(2, MetricId::RibPrefixes, 5), (2, MetricId::RibUpdates, 8)],
    ];

    let apply = |schedule: &[(usize, usize)]| {
        let registry = Registry::new();
        for &(thread, index) in schedule {
            let (shard, id, n) = ops[thread][index];
            registry.add_to_shard(shard, id, n);
        }
        registry.snapshot()
    };

    // Sequential baseline: thread 0 fully, then 1, then 2.
    let baseline = {
        let sequential: Vec<(usize, usize)> = (0..3)
            .flat_map(|t| (0..ops[t].len()).map(move |i| (t, i)))
            .collect();
        apply(&sequential)
    };
    assert_eq!(baseline.get(MetricId::RibUpdates), 15);
    assert_eq!(baseline.get(MetricId::RibPrefixes), 15);
    assert_eq!(baseline.get(MetricId::FibInstalls), 7);

    let lens = [ops[0].len(), ops[1].len(), ops[2].len()];
    let explored = explore(&lens, |schedule| {
        let snapshot = apply(schedule);
        if snapshot == baseline {
            Ok(())
        } else {
            Err(format!(
                "snapshot diverged: RibUpdates {} vs {}",
                snapshot.get(MetricId::RibUpdates),
                baseline.get(MetricId::RibUpdates)
            ))
        }
    })
    .expect("all schedules must agree");
    // C(7; 3,2,2) = 210 distinct interleavings.
    assert_eq!(explored, 210);
}

#[test]
fn histogram_shard_recording_commutes() {
    let ops: [Vec<u64>; 2] = [vec![3, 900, 17], vec![250_000, 12]];
    let apply = |schedule: &[(usize, usize)]| {
        let registry = Registry::new();
        for &(thread, index) in schedule {
            registry.observe_in_shard(thread, MetricId::UpdatePrefixes, ops[thread][index]);
        }
        registry.snapshot()
    };
    let baseline = apply(&[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
    assert_eq!(baseline.histogram(MetricId::UpdatePrefixes).count, 5);

    explore(&[3, 2], |schedule| {
        if apply(schedule) == baseline {
            Ok(())
        } else {
            Err("histogram snapshot diverged".to_owned())
        }
    })
    .expect("histogram recording must commute");
}

// ───────────────────── snapshot merge algebra ─────────────────────

#[test]
fn snapshot_merge_is_schedule_independent() {
    // GridRunner merges per-worker snapshots in completion order,
    // which varies run to run; the merged report must not.
    let part = |updates: u64, gauge: u64, observed: u64| {
        let registry = Registry::new();
        registry.add(MetricId::RibUpdates, updates);
        registry.gauge_set(MetricId::LocRibPrefixes, gauge);
        registry.observe(MetricId::UpdatePrefixes, observed);
        registry.snapshot()
    };
    let parts = [part(3, 100, 7), part(5, 900, 2), part(11, 4, 40)];

    let merged_in = |schedule: &[(usize, usize)]| {
        let mut total = Snapshot::default();
        for &(thread, _) in schedule {
            total.merge(&parts[thread]);
        }
        total
    };
    let baseline = merged_in(&[(0, 0), (1, 0), (2, 0)]);
    assert_eq!(baseline.get(MetricId::RibUpdates), 19);
    // Gauges merge by max, not sum.
    assert_eq!(baseline.get(MetricId::LocRibPrefixes), 900);
    assert_eq!(baseline.histogram(MetricId::UpdatePrefixes).count, 3);

    let explored = explore(&[1, 1, 1], |schedule| {
        if merged_in(schedule) == baseline {
            Ok(())
        } else {
            Err("merge order changed the merged snapshot".to_owned())
        }
    })
    .expect("merge must commute");
    assert_eq!(explored, 6);
}

#[test]
fn interleaver_rejects_a_planted_non_commutative_op() {
    // Self-test of the harness: feed the interleaver an op set that is
    // *not* commutative and require it to find the breaking schedule.
    let result = explore(&[1, 1], |schedule| {
        let mut value = 1u64;
        for &(thread, _) in schedule {
            value = if thread == 0 { value + 10 } else { value * 2 };
        }
        if value == 22 {
            Ok(())
        } else {
            Err(format!("value {value}"))
        }
    });
    assert!(matches!(
        result,
        Err(ExploreError::InvariantViolated { .. })
    ));
}

// ─────────────────── grid runner work queue (FIFO) ───────────────────

#[test]
fn grid_runner_channels_obey_fifo_and_lose_nothing() {
    let _serial = serial();
    crossbeam::sync_check::reset();
    parking_lot::sync_check::reset();

    const CELLS: usize = 24;
    let cells: Vec<CellSpec> = (0..CELLS)
        .map(|i| {
            CellSpec::new(Scenario::S2, pentium3())
                .prefixes(10)
                .seed(i as u64)
        })
        .collect();
    let touched = AtomicU64::new(0);
    let runs = GridRunner::new(4).run_map(&cells, |cell| {
        touched.fetch_add(1, Ordering::Relaxed);
        cell.cell_seed()
    });

    // The runner's contract first: everything ran, in grid order.
    assert_eq!(runs.len(), CELLS);
    assert_eq!(touched.load(Ordering::Relaxed), CELLS as u64);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(*run.result.as_ref().expect("cell failed"), i as u64);
    }

    // Now the recorded channel discipline. Group operations by
    // channel id.
    use std::collections::BTreeMap;
    let mut sends: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut recvs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for op in crossbeam::sync_check::ops() {
        match op {
            ChannelOp::Send { chan, seq } => sends.entry(chan).or_default().push(seq),
            ChannelOp::Recv { chan, seq } => recvs.entry(chan).or_default().push(seq),
            ChannelOp::SendDisconnected { .. } | ChannelOp::RecvDisconnected { .. } => {}
        }
    }
    assert!(!sends.is_empty(), "the runner must use recorded channels");

    for (chan, seqs) in &recvs {
        // FIFO: dequeue order equals enqueue order, per channel.
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "channel {chan} delivered out of order: {seqs:?}"
        );
        let sent = &sends[chan];
        assert!(
            seqs.len() <= sent.len(),
            "channel {chan} delivered more than was sent"
        );
    }
    // The work queue: some channel carried exactly one send and one
    // receive per cell, with nothing lost.
    let work_queues: Vec<u64> = sends
        .iter()
        .filter(|(chan, sent)| {
            sent.len() == CELLS && recvs.get(chan).is_some_and(|r| r.len() == CELLS)
        })
        .map(|(chan, _)| *chan)
        .collect();
    assert!(
        !work_queues.is_empty(),
        "no channel matches the work queue's send/recv profile"
    );

    // And while the workers ran: no lock-order hazard anywhere in the
    // runner/telemetry stack they exercised.
    assert_eq!(recorded_lock_graph().find_cycle(), None);
}

// ─────────────── sharded RIB fan-out/merge (loom-lite) ───────────────

/// The 3-shard fan-out/merge model the exhaustive and DPOR
/// explorations below share: per-shard engines preloaded with slices
/// of a base table, one withdraw op and one announce op per shard
/// (that per-thread order is the program order every explorer
/// preserves), merged back in message order and compared against the
/// unsharded engine's outcome stream.
mod shard_model {
    use std::net::Ipv4Addr;

    use bgpbench_check::interleave::Access;
    use bgpbench_rib::{
        PeerId, PeerInfo, PrefixOutcome, RibEngine, RouteAttributes, ShardedRibEngine,
    };
    use bgpbench_wire::{AsPath, Asn, Origin, Prefix, RouterId, UpdateMessage};

    pub const SHARDS: usize = 3;

    pub struct ShardModel {
        peer: PeerId,
        info: PeerInfo,
        partitioner: ShardedRibEngine,
        attrs_base: RouteAttributes,
        attrs_new: RouteAttributes,
        withdrawn: Vec<Prefix>,
        announced: Vec<Prefix>,
        base_parts: Vec<Vec<Prefix>>,
        withdraw_parts: Vec<Vec<Prefix>>,
        announce_parts: Vec<Vec<Prefix>>,
        single_outcomes: Vec<PrefixOutcome>,
    }

    fn build(attrs: &RouteAttributes, announce: &[Prefix], withdraw: &[Prefix]) -> UpdateMessage {
        let mut builder = UpdateMessage::builder().withdraw_all(withdraw.iter().copied());
        if !announce.is_empty() {
            for attr in attrs.to_wire() {
                builder = builder.attribute(attr);
            }
            builder = builder.announce_all(announce.iter().copied());
        }
        builder.build()
    }

    impl ShardModel {
        pub fn new() -> Self {
            let peer = PeerId(1);
            let info = PeerInfo::new(peer, Asn(65001), RouterId(2), Ipv4Addr::new(10, 0, 0, 2));
            // A sharded engine used only for its stable prefix→shard
            // key.
            let partitioner = {
                let mut engine = ShardedRibEngine::new(Asn(65000), RouterId(1));
                engine.add_peer(info);
                engine.set_shards(SHARDS);
                engine
            };

            let prefixes: Vec<Prefix> = (0..12u32)
                .map(|i| Prefix::new_masked(Ipv4Addr::from(0x0A00_0000 + (i << 12)), 20).unwrap())
                .collect();
            let attrs_base = RouteAttributes::new(
                Origin::Igp,
                AsPath::from_sequence([Asn(65001)]),
                Ipv4Addr::new(10, 0, 0, 2),
            );
            let attrs_new = RouteAttributes::new(
                Origin::Egp,
                AsPath::from_sequence([Asn(65001), Asn(64512)]),
                Ipv4Addr::new(10, 0, 0, 2),
            );

            // Base table: everything announced; then one message that
            // withdraws a third of it and flips attributes on another
            // third.
            let base = build(&attrs_base, &prefixes, &[]);
            let withdrawn: Vec<Prefix> = prefixes.iter().copied().step_by(3).collect();
            let announced: Vec<Prefix> = prefixes.iter().copied().skip(1).step_by(3).collect();
            let update = build(&attrs_new, &announced, &withdrawn);

            // Sequential baseline: the unsharded engine's stream.
            let single_outcomes = {
                let mut engine = RibEngine::new(Asn(65000), RouterId(1));
                engine.add_peer(info);
                engine.apply_update(peer, &base).expect("base load");
                engine.apply_update(peer, &update).expect("update")
            };

            let partition = |prefixes: &[Prefix]| {
                let mut parts: Vec<Vec<Prefix>> = vec![Vec::new(); SHARDS];
                for prefix in prefixes {
                    parts[partitioner.shard_for(prefix)].push(*prefix);
                }
                parts
            };
            let base_parts = partition(&prefixes);
            let withdraw_parts = partition(&withdrawn);
            let announce_parts = partition(&announced);

            ShardModel {
                peer,
                info,
                partitioner,
                attrs_base,
                attrs_new,
                withdrawn,
                announced,
                base_parts,
                withdraw_parts,
                announce_parts,
                single_outcomes,
            }
        }

        /// Runs one cross-shard schedule and checks that the merge
        /// reproduces the single-engine outcome stream.
        pub fn check(&self, schedule: &[(usize, usize)]) -> Result<(), String> {
            // Fresh per-shard engines, each preloaded with its slice
            // of the base table.
            let mut shards: Vec<RibEngine> = self
                .base_parts
                .iter()
                .map(|slice| {
                    let mut engine = RibEngine::new(Asn(65000), RouterId(1));
                    engine.add_peer(self.info);
                    engine
                        .apply_update(self.peer, &build(&self.attrs_base, slice, &[]))
                        .expect("shard base load");
                    engine
                })
                .collect();
            let mut per_shard: Vec<Vec<PrefixOutcome>> = vec![Vec::new(); SHARDS];
            for &(shard, op) in schedule {
                let message = if op == 0 {
                    build(&self.attrs_new, &[], &self.withdraw_parts[shard])
                } else {
                    build(&self.attrs_new, &self.announce_parts[shard], &[])
                };
                let outcomes = shards[shard]
                    .apply_update(self.peer, &message)
                    .map_err(|error| format!("shard {shard} op {op}: {error:?}"))?;
                per_shard[shard].extend(outcomes);
            }
            // The merge step: walk the original message order and pop
            // the owning shard's next outcome.
            let mut queues: Vec<std::vec::IntoIter<PrefixOutcome>> =
                per_shard.into_iter().map(Vec::into_iter).collect();
            let mut merged = Vec::new();
            for prefix in self.withdrawn.iter().chain(&self.announced) {
                match queues[self.partitioner.shard_for(prefix)].next() {
                    Some(outcome) => merged.push(outcome),
                    None => return Err(format!("shard queue exhausted at {prefix:?}")),
                }
            }
            if merged == self.single_outcomes {
                Ok(())
            } else {
                Err("merged outcome stream diverged from the single engine".to_owned())
            }
        }

        /// Honest declared accesses: each shard's two ops touch only
        /// that shard's private engine state.
        pub fn private_accesses(&self) -> Vec<Vec<Vec<Access>>> {
            (0..SHARDS)
                .map(|shard| {
                    vec![
                        vec![Access::Write(shard as u64)],
                        vec![Access::Write(shard as u64)],
                    ]
                })
                .collect()
        }
    }
}

#[test]
fn shard_fan_out_and_merge_commute_across_all_schedules() {
    // The sharded RIB's parallel claim, checked exhaustively: each
    // shard applies its sub-batches against private state, so *any*
    // execution order across shards must merge back into exactly the
    // single engine's outcome stream.
    let model = shard_model::ShardModel::new();
    let explored = explore(&[2, 2, 2], |schedule| model.check(schedule))
        .expect("every schedule must merge to the single-engine stream");
    // C(6; 2,2,2) = 90 interleavings, each checked against the
    // sequential baseline.
    assert_eq!(explored, 90);
}

#[test]
fn dpor_prunes_the_shard_model_to_one_trace_representative() {
    // The same model under the sleep-set explorer. Every cross-shard
    // op pair is independent (private per-shard state), so the 90
    // exhaustive interleavings collapse into a single Mazurkiewicz
    // trace — DPOR must execute exactly one representative, and the
    // asserted pruning ratio is the whole point of the explorer.
    let model = shard_model::ShardModel::new();
    let exhaustive = explore(&[2, 2, 2], |schedule| model.check(schedule))
        .expect("exhaustive baseline must pass");
    let executed = explore_dpor(&model.private_accesses(), |schedule| model.check(schedule))
        .expect("DPOR exploration must pass");
    assert!(
        executed < exhaustive,
        "DPOR must execute strictly fewer schedules ({executed} vs {exhaustive})"
    );
    assert_eq!(executed, 1, "all cross-shard ops are independent");
    assert_eq!(exhaustive / executed, 90, "pruning ratio 90:1");
}

#[test]
fn dpor_executes_one_representative_per_conflicting_order() {
    // Declare a shared resource touched by each shard's second op:
    // now only the relative order of those three ops matters, so the
    // 90 interleavings collapse to 3! = 6 trace representatives —
    // pruned, but honestly covering every order of the real conflict.
    use bgpbench_check::interleave::Access;

    let model = shard_model::ShardModel::new();
    let mut accesses = model.private_accesses();
    for (shard, ops) in accesses.iter_mut().enumerate() {
        ops[1] = vec![Access::Write(shard as u64), Access::Write(100)];
    }
    let executed = explore_dpor(&accesses, |schedule| model.check(schedule))
        .expect("conflicting-order exploration must pass");
    assert_eq!(executed, 6, "3! orders of the shared-resource writes");
}
