//! The XORP cost model: five cooperating processes with calibrated
//! per-stage cycle costs, over the shared [`ControlPlane`].

use std::collections::HashMap;

use bgpbench_rib::{FibDirective, PeerId, RouteChange};
use bgpbench_simnet::{Job, ProcessBuilder, ProcessId, SchedClass, TickContext};
use bgpbench_wire::UpdateMessage;

use crate::costs::XorpCosts;
use crate::crosstraffic::JOB_KFWD;
use crate::plane::{self, ControlPlane};

const JOB_PARSE: u16 = 1;
const JOB_POLICY: u16 = 2;
const JOB_DECIDE: u16 = 3;
const JOB_RIB: u16 = 4;
const JOB_FEA: u16 = 5;
const JOB_KFIB: u16 = 6;
const JOB_EXPORT: u16 = 7;
const JOB_RTRMGR: u16 = 8;

/// How many received-but-unparsed messages the BGP process buffers
/// before TCP backpressure stops the speaker (socket receive buffer).
const INPUT_LIMIT: usize = 8;

/// Backlog cap for the periodic `xorp_rtrmgr` housekeeping.
const RTRMGR_BACKLOG: usize = 4;

/// Maximum UPDATE messages in flight across the whole pipeline —
/// XORP's bounded inter-process (XRL) queues. This is what makes the
/// paper's Fig. 4 contrast: with small packets the bound keeps
/// `xorp_bgp` pacing itself to the pipeline for the entire run, while
/// with large packets the same bound holds thousands of prefixes, so
/// parsing races ahead and finishes early.
const PIPELINE_LIMIT: usize = 16;

/// The process handles of the XORP model.
#[derive(Debug, Clone, Copy)]
struct Procs {
    bgp: ProcessId,
    policy: ProcessId,
    rib: ProcessId,
    fea: ProcessId,
    rtrmgr: ProcessId,
    kernel: ProcessId,
    irq: ProcessId,
}

/// Stage costs and bookkeeping for one in-flight UPDATE.
#[derive(Debug)]
struct Pending {
    peer: PeerId,
    transactions: u32,
    policy_cycles: f64,
    decide_cycles: f64,
    rib_cycles: f64,
    fea_cycles: f64,
    kfib_cycles: f64,
    directives: Vec<FibDirective>,
}

/// The XORP 1.3 software model (paper §IV.B): `xorp_bgp`,
/// `xorp_policy`, `xorp_rib`, `xorp_fea`, and `xorp_rtrmgr` as
/// user-space processes, plus kernel forwarding/route-apply and
/// interrupt handling. A received UPDATE waits in the inbox while
/// `xorp_bgp` parses it; the plane's engine sees it when the parse
/// completes, and the stages it then owes are priced from the
/// per-prefix outcomes. The cost table only decides *when* things
/// happen, never *what*.
#[derive(Debug)]
pub(crate) struct XorpPipeline {
    costs: XorpCosts,
    cpu_hz: f64,
    procs: Procs,
    inbox: HashMap<u64, (PeerId, UpdateMessage)>,
    pending: HashMap<u64, Pending>,
    next_tag: u64,
    /// Last time (seconds) pipeline backlogs were sampled.
    last_backlog_sample_s: f64,
}

impl XorpPipeline {
    /// Registers the model's seven processes with `builder`.
    pub(crate) fn new(costs: XorpCosts, cpu_hz: f64, builder: &mut ProcessBuilder) -> Self {
        let procs = Procs {
            bgp: builder.add_process("xorp_bgp", SchedClass::User),
            policy: builder.add_process("xorp_policy", SchedClass::User),
            rib: builder.add_process("xorp_rib", SchedClass::User),
            fea: builder.add_process("xorp_fea", SchedClass::User),
            rtrmgr: builder.add_process("xorp_rtrmgr", SchedClass::User),
            kernel: builder.add_process("kernel", SchedClass::Kernel),
            irq: builder.add_process("interrupts", SchedClass::Interrupt),
        };
        XorpPipeline {
            costs,
            cpu_hz,
            procs,
            inbox: HashMap::new(),
            pending: HashMap::new(),
            next_tag: 0,
            last_backlog_sample_s: 0.0,
        }
    }

    /// Whether no UPDATE is waiting for its parse or its later stages.
    pub(crate) fn is_idle(&self) -> bool {
        self.inbox.is_empty() && self.pending.is_empty()
    }

    /// Session down: unparsed messages from `peer` are discarded and
    /// the stale FIB directives of its messages past the parse are
    /// cancelled (their jobs still run out).
    pub(crate) fn cancel_in_flight(&mut self, peer: PeerId) {
        self.inbox.retain(|_, (from, _)| *from != peer);
        for pending in self.pending.values_mut() {
            if pending.peer == peer {
                pending.directives.clear();
            }
        }
    }

    fn classify(&mut self, tag: u64, plane: &mut ControlPlane) -> Pending {
        let (peer, update) = self.inbox.remove(&tag).expect("parse without inbox entry");
        let n_ann = update.nlri().len() as u32;
        let n_wd = update.withdrawn().len() as u32;
        let outcomes = plane::apply_update(&mut plane.engine, peer, &update);
        let costs = &self.costs;
        // Each configured route-map entry adds one evaluation pass on
        // top of the baseline policy cost, so an empty (permit-all)
        // map prices exactly as before policies existed.
        let policy_scale = 1.0 + plane.engine.import_policy().len() as f64;
        let mut pending = Pending {
            peer,
            transactions: n_ann + n_wd,
            policy_cycles: f64::from(n_ann) * costs.policy * policy_scale,
            decide_cycles: f64::from(n_ann + n_wd) * costs.decide,
            rib_cycles: 0.0,
            fea_cycles: 0.0,
            kfib_cycles: 0.0,
            directives: Vec::new(),
        };
        for outcome in outcomes {
            match outcome.change {
                RouteChange::Installed => pending.rib_cycles += costs.rib_insert,
                RouteChange::Replaced { .. } => pending.rib_cycles += costs.rib_replace,
                RouteChange::Withdrawn => pending.rib_cycles += costs.rib_remove,
                RouteChange::Unchanged
                | RouteChange::WithdrawnUnknown
                | RouteChange::RejectedByPolicy
                | RouteChange::RejectedAsLoop => {}
            }
            if let Some(directive) = outcome.fib {
                let (user, kernel) = match (&directive, outcome.change) {
                    (FibDirective::Install { .. }, RouteChange::Replaced { .. }) => {
                        (costs.fib_user_replace, costs.fib_kernel_replace)
                    }
                    (FibDirective::Install { .. }, _) => {
                        (costs.fib_user_install, costs.fib_kernel_install)
                    }
                    (FibDirective::Remove { .. }, _) => {
                        (costs.fib_user_remove, costs.fib_kernel_remove)
                    }
                };
                pending.fea_cycles += user;
                pending.kfib_cycles += kernel;
                pending.directives.push(directive);
            }
        }
        if !pending.directives.is_empty() {
            pending.fea_cycles += costs.ipc_batch;
        }
        pending
    }

    /// Advances a message to its next nonzero pipeline stage, or
    /// retires it.
    fn advance(
        &mut self,
        tag: u64,
        completed_kind: u16,
        plane: &mut ControlPlane,
        ctx: &mut TickContext<'_>,
    ) {
        let Some(pending) = self.pending.get(&tag) else {
            return;
        };
        let count = pending.transactions;
        let stages = [
            (JOB_POLICY, self.procs.policy, pending.policy_cycles),
            (JOB_DECIDE, self.procs.bgp, pending.decide_cycles),
            (JOB_RIB, self.procs.rib, pending.rib_cycles),
            (JOB_FEA, self.procs.fea, pending.fea_cycles),
            (JOB_KFIB, self.procs.kernel, pending.kfib_cycles),
        ];
        let next_index = match completed_kind {
            JOB_PARSE => 0,
            JOB_POLICY => 1,
            JOB_DECIDE => 2,
            JOB_RIB => 3,
            JOB_FEA => 4,
            _ => stages.len(),
        };
        for &(kind, pid, cycles) in &stages[next_index..] {
            if cycles > 0.0 {
                ctx.push(pid, Job::new(kind, cycles).with_tag(tag).with_count(count));
                return;
            }
        }
        let pending = self.pending.remove(&tag).expect("checked above");
        plane.complete(pending.transactions, pending.directives);
    }

    pub(crate) fn on_tick(&mut self, plane: &mut ControlPlane, ctx: &mut TickContext<'_>) {
        // Periodic router-manager housekeeping: only while routing
        // work is in flight (its idle-state load is negligible and
        // gating it lets drained simulations terminate).
        if self.costs.rtrmgr_frac > 0.0
            && !(self.is_idle() && plane.is_drained())
            && ctx.queue_len(self.procs.rtrmgr) < RTRMGR_BACKLOG
        {
            let cycles = self.costs.rtrmgr_frac * self.cpu_hz * plane.tick_secs();
            ctx.push(self.procs.rtrmgr, Job::new(JOB_RTRMGR, cycles));
        }

        // Pipeline-backlog diagnostics: job counts waiting at each
        // stage, sampled every 100 ms. These series expose the Fig. 4
        // mechanism directly — with large packets the downstream
        // stages (rib/fea) accumulate deep backlogs while xorp_bgp
        // idles; with small packets TCP backpressure keeps every queue
        // shallow.
        let now = ctx.now().as_secs_f64();
        if now - self.last_backlog_sample_s >= 0.1 {
            self.last_backlog_sample_s = now;
            let rib_backlog = ctx.queue_len(self.procs.rib) as f64;
            let fea_backlog = ctx.queue_len(self.procs.fea) as f64;
            ctx.record("backlog:xorp_rib", rib_backlog);
            ctx.record("backlog:xorp_fea", fea_backlog);
            let inflight_prefixes: u32 = self.pending.values().map(|p| p.transactions).sum::<u32>()
                + self
                    .inbox
                    .values()
                    .map(|(_, u)| u.transaction_count() as u32)
                    .sum::<u32>();
            ctx.record("inflight_prefixes", f64::from(inflight_prefixes));
        }

        plane.cross_tick(ctx, self.procs.irq, self.procs.kernel);

        // Speaker input with two levels of backpressure: the socket
        // buffer ahead of `xorp_bgp` (INPUT_LIMIT) and the bounded
        // inter-process queues across the pipeline (PIPELINE_LIMIT).
        let inflight_messages = self.inbox.len() + self.pending.len();
        let mut room = INPUT_LIMIT
            .saturating_sub(ctx.queue_len(self.procs.bgp))
            .min(PIPELINE_LIMIT.saturating_sub(inflight_messages));
        plane.take_input(&mut room, |_engine, peer, update| {
            let n_ann = update.nlri().len() as u32;
            let n_wd = update.withdrawn().len() as u32;
            let cycles = self.costs.pkt_base
                + f64::from(n_ann) * self.costs.parse_ann
                + f64::from(n_wd) * self.costs.parse_wd;
            let tag = self.next_tag;
            self.next_tag += 1;
            self.inbox.insert(tag, (peer, update));
            ctx.push(
                self.procs.bgp,
                Job::new(JOB_PARSE, cycles)
                    .with_tag(tag)
                    .with_count(n_ann + n_wd),
            );
        });

        // Phase-2 exports share the BGP process. Export route-map
        // entries scale the per-prefix cost like import entries do.
        let export_scale = 1.0 + plane.engine.export_policy().len() as f64;
        plane.take_exports(room, |n| {
            let cycles =
                self.costs.pkt_base + f64::from(n) * self.costs.export_per_prefix * export_scale;
            ctx.push(self.procs.bgp, Job::new(JOB_EXPORT, cycles).with_count(n));
        });
    }

    pub(crate) fn on_job_complete(
        &mut self,
        plane: &mut ControlPlane,
        job: Job,
        ctx: &mut TickContext<'_>,
    ) {
        match job.kind {
            // The inbox entry may have been purged by a session-down
            // event while the parse was in flight; such a parse
            // completes into the catch-all below.
            JOB_PARSE if self.inbox.contains_key(&job.tag) => {
                let pending = self.classify(job.tag, plane);
                self.pending.insert(job.tag, pending);
                self.advance(job.tag, JOB_PARSE, plane, ctx);
            }
            JOB_POLICY | JOB_DECIDE | JOB_RIB | JOB_FEA | JOB_KFIB => {
                self.advance(job.tag, job.kind, plane, ctx);
            }
            JOB_EXPORT => plane.on_exported(job.count),
            JOB_KFWD => plane.cross.on_forwarded(job.count),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use bgpbench_rib::{PeerId, PeerInfo};
    use bgpbench_simnet::{SimDuration, Simulator};
    use bgpbench_speaker::{workload, SpeakerScript, TableGenerator};
    use bgpbench_wire::{Asn, Prefix, RouterId, UpdateMessage};

    use crate::plane::LOCAL_ASN;
    use crate::router::RouterModel;

    fn two_speakers() -> Vec<PeerInfo> {
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
        ]
    }

    fn pentium3_sim() -> Simulator<RouterModel> {
        RouterModel::simulator(&crate::pentium3(), &two_speakers(), LOCAL_ASN)
    }

    fn load(sim: &mut Simulator<RouterModel>, speaker: usize, updates: Vec<UpdateMessage>) {
        let script = SpeakerScript::new(updates);
        sim.model_mut().plane.load_script(speaker, script, None);
    }

    fn spec_for(asn: u16, pkt: usize, path_len: usize) -> workload::AnnounceSpec {
        workload::AnnounceSpec {
            speaker_asn: Asn(asn),
            path_len,
            next_hop: Ipv4Addr::new(10, 0, 0, if asn == 65001 { 2 } else { 3 }),
            prefixes_per_update: pkt,
            seed: 1,
        }
    }

    #[test]
    fn startup_announcements_populate_rib_and_fib() {
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(200);
        let updates = workload::announcements(&table, &spec_for(65001, 500, 3));
        load(&mut sim, 0, updates);
        let outcome = sim.run(SimDuration::from_secs(60));
        assert!(outcome.went_idle());
        let model = &sim.model().plane;
        assert_eq!(model.transactions_done(), 200);
        assert_eq!(model.engine.loc_rib().len(), 200);
        assert_eq!(model.fib().len(), 200);
        assert!(sim.model().is_quiescent());
    }

    #[test]
    fn interning_shares_attributes_across_a_simulated_run() {
        // Attribute interning is a host-side optimization: the model
        // charges cycles per RouteChange classification, which the
        // calibrated-band tests pin. This test pins the other side —
        // after a full simulated startup, every prefix of the single
        // large update shares one interned allocation.
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(200);
        let updates = workload::announcements(&table, &spec_for(65001, 500, 3));
        assert_eq!(updates.len(), 1);
        load(&mut sim, 0, updates);
        let outcome = sim.run(SimDuration::from_secs(60));
        assert!(outcome.went_idle());
        let model = &sim.model().plane;
        assert_eq!(model.engine.loc_rib().len(), 200);
        assert_eq!(model.engine.attr_store().len(), 1);
        let rib = model.engine.adj_rib_in(PeerId(1)).unwrap();
        let a = rib.get(&table[0]).unwrap();
        let b = rib.get(&table[199]).unwrap();
        assert!(std::sync::Arc::ptr_eq(a, b));
    }

    #[test]
    fn throughput_matches_the_calibrated_scenario_2_rate() {
        // Scenario 2 on the Pentium III: large-packet start-up
        // announcements; the paper reports 312.5 transactions/s.
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(1000);
        let updates = workload::announcements(&table, &spec_for(65001, 500, 3));
        load(&mut sim, 0, updates);
        let outcome = sim.run(SimDuration::from_secs(60));
        let tps = 1000.0 / outcome.elapsed.as_secs_f64();
        assert!(
            (250.0..380.0).contains(&tps),
            "scenario-2 rate {tps} outside the calibrated band"
        );
    }

    #[test]
    fn losing_announcements_do_not_touch_the_fib() {
        // Scenario 5/6 situation: speaker 2 re-announces with a longer
        // path; Loc-RIB best and FIB stay put.
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(100);
        load(
            &mut sim,
            0,
            workload::announcements(&table, &spec_for(65001, 500, 3)),
        );
        sim.run(SimDuration::from_secs(60));
        let fib_gen_before = sim.model().plane.fib().generation();

        load(
            &mut sim,
            1,
            workload::announcements(&table, &spec_for(65002, 500, 6)),
        );
        sim.run(SimDuration::from_secs(60));
        let model = &sim.model().plane;
        assert_eq!(model.transactions_done(), 200);
        assert_eq!(
            model.fib().generation(),
            fib_gen_before,
            "FIB must not change"
        );
    }

    #[test]
    fn winning_announcements_rewrite_the_fib() {
        // Scenario 7/8 situation: speaker 2 announces a shorter path.
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(50);
        load(
            &mut sim,
            0,
            workload::announcements(&table, &spec_for(65001, 500, 4)),
        );
        sim.run(SimDuration::from_secs(60));
        load(
            &mut sim,
            1,
            workload::announcements(&table, &spec_for(65002, 500, 2)),
        );
        sim.run(SimDuration::from_secs(120));
        let model = &sim.model().plane;
        // Every prefix now forwards toward speaker 2.
        let hop = model
            .fib()
            .lookup(table[0].network())
            .expect("route installed");
        assert_eq!(hop.gateway(), Ipv4Addr::new(10, 0, 0, 3));
    }

    #[test]
    fn withdrawals_empty_the_tables() {
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(100);
        load(
            &mut sim,
            0,
            workload::announcements(&table, &spec_for(65001, 500, 3)),
        );
        sim.run(SimDuration::from_secs(60));
        load(&mut sim, 0, workload::withdrawals(&table, 500));
        sim.run(SimDuration::from_secs(60));
        let model = &sim.model().plane;
        assert_eq!(model.transactions_done(), 200);
        assert!(model.engine.loc_rib().is_empty());
        assert!(model.fib().is_empty());
    }

    #[test]
    fn export_phase_advertises_the_table() {
        let mut sim = pentium3_sim();
        let table = TableGenerator::new(1).generate(300);
        load(
            &mut sim,
            0,
            workload::announcements(&table, &spec_for(65001, 500, 3)),
        );
        sim.run(SimDuration::from_secs(60));
        let queued = sim.model_mut().plane.queue_export(1, 500);
        assert!(queued >= 1);
        sim.run(SimDuration::from_secs(60));
        assert_eq!(sim.model().plane.exported_transactions(), 300);
    }

    #[test]
    fn cross_traffic_slows_bgp_processing() {
        let table = TableGenerator::new(1).generate(300);
        let elapsed = |mbps: f64| {
            let mut sim = pentium3_sim();
            sim.model_mut().plane.cross.set_rate_mbps(mbps);
            load(
                &mut sim,
                0,
                workload::announcements(&table, &spec_for(65001, 500, 3)),
            );
            let done = |m: &RouterModel| m.plane.transactions_done() >= 300;
            let outcome = sim.run_until(SimDuration::from_secs(120), done);
            outcome.elapsed.as_secs_f64()
        };
        let idle = elapsed(0.0);
        let loaded = elapsed(300.0);
        assert!(
            loaded > idle * 1.1,
            "cross traffic must slow BGP: idle {idle}s vs loaded {loaded}s"
        );
    }

    #[test]
    fn cross_traffic_is_forwarded_when_cpu_allows() {
        let mut sim = pentium3_sim();
        sim.model_mut().plane.cross.set_rate_mbps(100.0);
        sim.run_until(SimDuration::from_secs(2), |_| false);
        let summary = sim.model().plane.cross.summary();
        assert!(summary.offered_pkts > 10_000);
        assert!(summary.delivery_ratio() > 0.99, "{summary:?}");
    }

    #[test]
    fn small_packets_are_slower_than_large() {
        let table = TableGenerator::new(1).generate(200);
        let run = |pkt: usize| {
            let mut sim = pentium3_sim();
            load(
                &mut sim,
                0,
                workload::announcements(&table, &spec_for(65001, pkt, 3)),
            );
            sim.run(SimDuration::from_secs(120)).elapsed.as_secs_f64()
        };
        let small = run(1);
        let large = run(500);
        assert!(
            small > large * 1.3,
            "small packets must be slower: {small}s vs {large}s"
        );
    }

    #[test]
    fn loop_poisoned_routes_are_rejected_without_fib_activity() {
        let mut sim = pentium3_sim();
        let prefix: Prefix = "20.0.0.0/8".parse().unwrap();
        let update = UpdateMessage::builder()
            .attribute(bgpbench_wire::PathAttribute::Origin(
                bgpbench_wire::Origin::Igp,
            ))
            .attribute(bgpbench_wire::PathAttribute::AsPath(
                bgpbench_wire::AsPath::from_sequence([Asn(65001), LOCAL_ASN]),
            ))
            .attribute(bgpbench_wire::PathAttribute::NextHop(Ipv4Addr::new(
                10, 0, 0, 2,
            )))
            .announce(prefix)
            .build();
        load(&mut sim, 0, vec![update]);
        sim.run(SimDuration::from_secs(10));
        let model = &sim.model().plane;
        assert_eq!(model.transactions_done(), 1);
        assert!(model.fib().is_empty());
        assert_eq!(model.engine.stats().loop_rejected, 1);
    }
}
