//! The black-box commercial-router (IOS) cost model, over the shared
//! [`ControlPlane`].

use bgpbench_rib::fxhash::FxHashMap;
use bgpbench_rib::{FibDirective, PeerId, RouteChange};
use bgpbench_simnet::{Job, ProcessBuilder, ProcessId, SchedClass, TickContext};

use crate::costs::IosCosts;
use crate::crosstraffic::JOB_KFWD;
use crate::plane::{self, ControlPlane};

const JOB_MSG: u16 = 20;
const JOB_EXPORT: u16 = 21;

/// Messages buffered ahead of the serialized IOS BGP process.
const INPUT_LIMIT: usize = 4;

/// The Cisco 3620 model (paper §IV.A.4 treats it as a black box).
///
/// Observed behaviour decomposes cleanly: every received UPDATE waits a
/// fixed process-scheduling delay (~92 ms — idle wait, not CPU) and
/// then consumes per-prefix processing cycles. Forwarding runs at
/// kernel priority on the same CPU, so cross-traffic starves the
/// per-prefix work (collapsing large-packet rates near the 78 Mbps port
/// limit) while leaving the fixed delay — and therefore small-packet
/// rates — untouched. Both Fig. 5 Cisco signatures fall out of this
/// one mechanism.
///
/// With one job per UPDATE there is no stage to price separately, so
/// the plane's engine sees a message on arrival: its per-prefix
/// outcomes are what the single job costs.
#[derive(Debug)]
pub(crate) struct IosPipeline {
    costs: IosCosts,
    ios: ProcessId,
    kernel: ProcessId,
    irq: ProcessId,
    /// UPDATEs inside the BGP process, by job tag: transaction count,
    /// sender, and the FIB writes owed on completion.
    pending: FxHashMap<u64, (u32, PeerId, Vec<FibDirective>)>,
    next_tag: u64,
}

impl IosPipeline {
    /// Registers the model's three processes with `builder`.
    pub(crate) fn new(costs: IosCosts, builder: &mut ProcessBuilder) -> Self {
        IosPipeline {
            costs,
            ios: builder.add_process("ios_bgp", SchedClass::User),
            kernel: builder.add_process("ios_fwd", SchedClass::Kernel),
            irq: builder.add_process("interrupts", SchedClass::Interrupt),
            pending: FxHashMap::default(),
            next_tag: 0,
        }
    }

    /// Whether no UPDATE is inside the BGP process.
    pub(crate) fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Session down: the stale FIB directives of `peer`'s in-flight
    /// messages are cancelled (their jobs still run out).
    pub(crate) fn cancel_in_flight(&mut self, peer: PeerId) {
        for (_, from, directives) in self.pending.values_mut() {
            if *from == peer {
                directives.clear();
            }
        }
    }

    /// A policy changes *which* outcome each route takes (a rejection
    /// prices as `nochange`) rather than scaling a separate policy
    /// process: the per-update costs come from measured totals.
    fn cost_of(&self, change: RouteChange, is_withdrawal: bool) -> f64 {
        match change {
            RouteChange::Installed => self.costs.ann_fib,
            RouteChange::Replaced { .. } => self.costs.replace,
            RouteChange::Withdrawn | RouteChange::WithdrawnUnknown => self.costs.withdraw,
            RouteChange::Unchanged if is_withdrawal => self.costs.withdraw,
            RouteChange::Unchanged
            | RouteChange::RejectedByPolicy
            | RouteChange::RejectedAsLoop => self.costs.nochange,
        }
    }

    pub(crate) fn on_tick(&mut self, plane: &mut ControlPlane, ctx: &mut TickContext<'_>) {
        plane.cross_tick(ctx, self.irq, self.kernel);

        let mut room = INPUT_LIMIT.saturating_sub(ctx.queue_len(self.ios));
        plane.take_input(&mut room, |engine, peer, update| {
            let n_wd = update.withdrawn().len();
            let outcomes = plane::apply_update(engine, peer, update);
            let mut cycles = 0.0;
            let mut directives = Vec::new();
            for (i, outcome) in outcomes.iter().enumerate() {
                cycles += self.cost_of(outcome.change, i < n_wd);
                if let Some(directive) = outcome.fib {
                    directives.push(directive);
                }
            }
            let tag = self.next_tag;
            self.next_tag += 1;
            let count = outcomes.len() as u32;
            self.pending.insert(tag, (count, peer, directives));
            ctx.push(
                self.ios,
                Job::new(JOB_MSG, cycles)
                    .with_tag(tag)
                    .with_count(count)
                    .with_delay_ns(self.costs.pkt_delay_ns),
            );
        });

        plane.take_exports(room, |n| {
            ctx.push(
                self.ios,
                Job::new(JOB_EXPORT, f64::from(n) * self.costs.nochange).with_count(n),
            );
        });
    }

    pub(crate) fn on_job_complete(&mut self, plane: &mut ControlPlane, job: Job) {
        match job.kind {
            JOB_MSG => {
                let (count, _peer, directives) = self
                    .pending
                    .remove(&job.tag)
                    .expect("completion without pending entry");
                plane.complete(count, directives);
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
    use bgpbench_wire::{Asn, RouterId, UpdateMessage};

    use crate::plane::LOCAL_ASN;
    use crate::router::RouterModel;

    fn cisco_sim() -> Simulator<RouterModel> {
        let speakers = [
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
        ];
        RouterModel::simulator(&crate::cisco3620(), &speakers, LOCAL_ASN)
    }

    fn load(sim: &mut Simulator<RouterModel>, updates: Vec<UpdateMessage>) {
        let script = SpeakerScript::new(updates);
        sim.model_mut().plane.load_script(0, script, None);
    }

    fn spec_for(pkt: usize) -> workload::AnnounceSpec {
        workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: pkt,
            seed: 1,
        }
    }

    #[test]
    fn small_packet_rate_is_near_eleven_per_second() {
        // The paper's signature Cisco result: ~10.7 transactions/s on
        // small packets regardless of scenario.
        let mut sim = cisco_sim();
        let table = TableGenerator::new(1).generate(30);
        load(&mut sim, workload::announcements(&table, &spec_for(1)));
        let outcome = sim.run(SimDuration::from_secs(60));
        let tps = 30.0 / outcome.elapsed.as_secs_f64();
        assert!((8.0..13.0).contains(&tps), "small-packet rate {tps}");
    }

    #[test]
    fn large_packets_amortize_the_scheduling_delay() {
        let mut sim = cisco_sim();
        let table = TableGenerator::new(1).generate(2000);
        load(&mut sim, workload::announcements(&table, &spec_for(500)));
        let outcome = sim.run(SimDuration::from_secs(60));
        let tps = 2000.0 / outcome.elapsed.as_secs_f64();
        assert!(
            (1800.0..3200.0).contains(&tps),
            "large-packet rate {tps} outside the calibrated band"
        );
        assert_eq!(sim.model().plane.fib().len(), 2000);
    }

    #[test]
    fn cross_traffic_collapses_large_packet_rates_only() {
        let table = TableGenerator::new(1).generate(500);
        let rate = |pkt: usize, mbps: f64| {
            let mut sim = cisco_sim();
            sim.model_mut().plane.cross.set_rate_mbps(mbps);
            load(&mut sim, workload::announcements(&table, &spec_for(pkt)));
            let done = |m: &RouterModel| m.plane.transactions_done() >= 100;
            let outcome = sim.run_until(SimDuration::from_secs(200), done);
            sim.model().plane.transactions_done() as f64 / outcome.elapsed.as_secs_f64()
        };
        let large_idle = rate(500, 0.0);
        let large_loaded = rate(500, 75.0);
        assert!(
            large_loaded < large_idle / 3.0,
            "large-packet rate must collapse: {large_idle} -> {large_loaded}"
        );
        let small_idle = rate(1, 0.0);
        let small_loaded = rate(1, 75.0);
        assert!(
            small_loaded > small_idle * 0.7,
            "small-packet rate must stay flat: {small_idle} -> {small_loaded}"
        );
    }
}
