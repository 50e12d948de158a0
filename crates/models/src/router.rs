//! The simulated router under test: the shared control plane, one
//! platform's cost model, and the benchmark-facing front over both.

use std::net::Ipv4Addr;

use bgpbench_rib::{PeerId, PeerInfo, RouteMap};
use bgpbench_simnet::{
    Job, Model, ProcessId, Recorder, RunOutcome, SimConfig, SimDuration, Simulator, TickContext,
};
use bgpbench_speaker::SpeakerScript;
use bgpbench_wire::{Asn, RouterId, UpdateMessage};

use crate::ios::IosPipeline;
use crate::plane::{ControlPlane, LOCAL_ASN};
use crate::platform::{PlatformKind, PlatformSpec};
use crate::xorp::XorpPipeline;
use crate::CrossSummary;

/// Index of a speaker attached to a [`SimRouter`] (0 = Speaker 1,
/// 1 = Speaker 2, matching the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeakerHandle(pub usize);

/// Speaker 1 of the benchmark setup.
pub const SPEAKER_1: SpeakerHandle = SpeakerHandle(0);
/// Speaker 2 of the benchmark setup.
pub const SPEAKER_2: SpeakerHandle = SpeakerHandle(1);

/// A platform's cost model. The platforms differ only in what an
/// operation costs, so this is matched where cost is incurred (a tick,
/// a finished job) or in-flight work is asked after — nowhere else.
#[derive(Debug)]
enum Pipeline {
    Xorp(XorpPipeline),
    Ios(IosPipeline),
}

/// What the simulator runs: one control plane, one cost model.
#[derive(Debug)]
pub(crate) struct RouterModel {
    pub(crate) plane: ControlPlane,
    pipeline: Pipeline,
}

impl RouterModel {
    /// A simulator running `spec`'s model with `peers` attached.
    pub(crate) fn simulator(
        spec: &PlatformSpec,
        peers: &[PeerInfo],
        local_asn: Asn,
    ) -> Simulator<RouterModel> {
        let config = SimConfig::new(vec![spec.core; spec.cores]);
        let tick_secs = config.tick.as_secs_f64();
        Simulator::new(config, |builder| RouterModel {
            pipeline: match spec.kind {
                PlatformKind::Xorp(costs) => {
                    Pipeline::Xorp(XorpPipeline::new(costs, spec.core.hz, builder))
                }
                PlatformKind::Ios(costs) => Pipeline::Ios(IosPipeline::new(costs, builder)),
            },
            plane: ControlPlane::new(spec.cross, tick_secs, peers, local_asn),
        })
    }

    /// Whether all loaded scripts, exports, and in-flight work have
    /// drained.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.plane.is_drained()
            && match &self.pipeline {
                Pipeline::Xorp(xorp) => xorp.is_idle(),
                Pipeline::Ios(ios) => ios.is_idle(),
            }
    }

    /// Session-down purge of everything learned from the speaker's
    /// peer, in-flight messages included; returns the number of
    /// affected prefixes.
    fn purge_speaker(&mut self, speaker: usize) -> usize {
        let peer = self.plane.link(speaker).peer;
        match &mut self.pipeline {
            Pipeline::Xorp(xorp) => xorp.cancel_in_flight(peer),
            Pipeline::Ios(ios) => ios.cancel_in_flight(peer),
        }
        self.plane.purge_peer(peer)
    }
}

impl Model for RouterModel {
    fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
        match &mut self.pipeline {
            Pipeline::Xorp(xorp) => xorp.on_tick(&mut self.plane, ctx),
            Pipeline::Ios(ios) => ios.on_tick(&mut self.plane, ctx),
        }
    }

    fn on_job_complete(&mut self, _pid: ProcessId, job: Job, ctx: &mut TickContext<'_>) {
        match &mut self.pipeline {
            Pipeline::Xorp(xorp) => xorp.on_job_complete(&mut self.plane, job, ctx),
            Pipeline::Ios(ios) => ios.on_job_complete(&mut self.plane, job),
        }
    }
}

/// A simulated router under test: one of the four platforms wired to
/// the benchmark's two speakers.
///
/// ```
/// use bgpbench_models::{pentium3, SimRouter, SPEAKER_1};
/// use bgpbench_speaker::{workload, SpeakerScript, TableGenerator};
/// use bgpbench_wire::Asn;
/// use std::net::Ipv4Addr;
///
/// let mut router = SimRouter::new(&pentium3());
/// let table = TableGenerator::new(1).generate(100);
/// let updates = workload::announcements(&table, &workload::AnnounceSpec {
///     speaker_asn: Asn(65001),
///     path_len: 3,
///     next_hop: Ipv4Addr::new(10, 0, 0, 2),
///     prefixes_per_update: 500,
///     seed: 1,
/// });
/// router.load_script(SPEAKER_1, SpeakerScript::new(updates));
/// let elapsed = router.run_until_transactions(100, 60.0);
/// assert!(elapsed.is_some());
/// assert_eq!(router.fib_len(), 100);
/// ```
#[derive(Debug)]
pub struct SimRouter {
    spec: PlatformSpec,
    sim: Simulator<RouterModel>,
}

impl SimRouter {
    /// Builds a router of the given platform with the benchmark's two
    /// speakers attached (AS 65001 at 10.0.0.2 and AS 65002 at
    /// 10.0.0.3).
    pub fn new(spec: &PlatformSpec) -> Self {
        Self::with_local_asn(spec, LOCAL_ASN)
    }

    /// [`SimRouter::new`] with an explicit local AS — needed when
    /// chaining several simulated routers (each must have a distinct
    /// AS, or loop prevention rejects re-exported routes).
    pub fn with_local_asn(spec: &PlatformSpec, local_asn: Asn) -> Self {
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
        Self::with_peers(spec, &speakers, local_asn)
    }

    /// Builds a router with an arbitrary set of attached speakers —
    /// the constructor behind multi-peer topologies. Speaker index `i`
    /// (as a [`SpeakerHandle`]) maps to `peers[i]`.
    pub fn with_peers(spec: &PlatformSpec, peers: &[PeerInfo], local_asn: Asn) -> Self {
        SimRouter {
            spec: spec.clone(),
            sim: RouterModel::simulator(spec, peers, local_asn),
        }
    }

    fn plane(&self) -> &ControlPlane {
        &self.sim.model().plane
    }

    fn plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.sim.model_mut().plane
    }

    /// Computes the UPDATE messages a Phase-2 export toward `speaker`
    /// would carry, without queueing any simulated work — the handoff
    /// point for chaining routers (hop k's exports become hop k+1's
    /// input script).
    pub fn export_messages(
        &self,
        speaker: SpeakerHandle,
        prefixes_per_update: usize,
    ) -> Vec<UpdateMessage> {
        self.plane().export_updates(speaker.0, prefixes_per_update)
    }

    /// The platform this router models.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Assigns the stream a speaker sends next.
    pub fn load_script(&mut self, speaker: SpeakerHandle, script: SpeakerScript) {
        self.plane_mut().load_script(speaker.0, script, None);
    }

    /// Assigns a stream the speaker paces to `msgs_per_sec` instead of
    /// flooding — for steady-state experiments at the paper's "order
    /// of 100 BGP messages per second" operating point.
    ///
    /// # Panics
    ///
    /// Panics if `msgs_per_sec` is not strictly positive.
    pub fn load_script_rated(
        &mut self,
        speaker: SpeakerHandle,
        script: SpeakerScript,
        msgs_per_sec: f64,
    ) {
        assert!(msgs_per_sec > 0.0, "rate must be positive");
        self.plane_mut()
            .load_script(speaker.0, script, Some(msgs_per_sec));
    }

    /// Mean CPU load (percent of one core) of a recorded process
    /// channel over `[from, to)` seconds — steady-state utilization
    /// readout.
    pub fn mean_cpu_pct(&self, process: &str, from: f64, to: f64) -> f64 {
        self.recorder()
            .series(&format!("cpu:{process}"))
            .map(|series| series.mean_between(from, to))
            .unwrap_or(0.0)
    }

    /// Queues a Phase-2 full-table export toward a speaker; returns
    /// the number of UPDATE messages queued.
    pub fn queue_export(&mut self, speaker: SpeakerHandle, prefixes_per_update: usize) -> usize {
        self.plane_mut()
            .queue_export(speaker.0, prefixes_per_update)
    }

    /// Sets the cross-traffic offered load in Mbps (clamped to the
    /// platform's forwarding limit).
    pub fn set_cross_traffic_mbps(&mut self, mbps: f64) {
        self.plane_mut().cross.set_rate_mbps(mbps);
    }

    /// Prefix-level transactions fully processed so far.
    pub fn transactions_done(&self) -> u64 {
        self.plane().transactions_done()
    }

    /// Phase-2 transactions advertised so far.
    pub fn exported_transactions(&self) -> u64 {
        self.plane().exported_transactions()
    }

    /// Runs until `target` total transactions have been processed.
    /// Returns the simulated seconds this call took, or `None` if
    /// `limit_secs` elapsed first.
    pub fn run_until_transactions(&mut self, target: u64, limit_secs: f64) -> Option<f64> {
        let limit = SimDuration::from_secs_f64(limit_secs);
        let outcome = self
            .sim
            .run_until(limit, |m| m.plane.transactions_done() >= target);
        finished(outcome, target, self.transactions_done())
    }

    /// Runs until `target` total exported transactions have been sent.
    pub fn run_until_exports(&mut self, target: u64, limit_secs: f64) -> Option<f64> {
        let limit = SimDuration::from_secs_f64(limit_secs);
        let outcome = self
            .sim
            .run_until(limit, |m| m.plane.exported_transactions() >= target);
        finished(outcome, target, self.exported_transactions())
    }

    /// Runs for a fixed simulated duration regardless of progress.
    pub fn run_for(&mut self, secs: f64) {
        self.sim.run_for(SimDuration::from_secs_f64(secs));
    }

    /// Advances the simulation by exactly one tick — the granularity
    /// at which the topology engine interleaves FSM timers and fault
    /// injection with router work.
    pub fn step(&mut self) {
        self.sim.step();
    }

    /// Whether all loaded work (scripts, pipeline, exports) has
    /// drained.
    pub fn is_quiescent(&self) -> bool {
        self.sim.model().is_quiescent()
    }

    /// Gates a speaker's input on session state: while `false` the
    /// link is down and the script is untouched.
    pub fn set_speaker_enabled(&mut self, speaker: SpeakerHandle, enabled: bool) {
        self.plane_mut().link_mut(speaker.0).enabled = enabled;
    }

    /// Arms the speaker's link to drop its next `n` messages (taken
    /// off the script, never processed).
    pub fn drop_next(&mut self, speaker: SpeakerHandle, n: u32) {
        self.plane_mut().link_mut(speaker.0).drop_next = n;
    }

    /// Arms the speaker's link to swap its next `n` message pairs.
    pub fn reorder_next(&mut self, speaker: SpeakerHandle, n: u32) {
        self.plane_mut().link_mut(speaker.0).reorder_next = n;
    }

    /// Rewinds the speaker's script for a full re-advertisement (peer
    /// restart semantics). The caller accounts for transactions already
    /// taken — [`SpeakerScript::reset`] zeroes the counter.
    pub fn reset_script(&mut self, speaker: SpeakerHandle) {
        if let Some(script) = &mut self.plane_mut().link_mut(speaker.0).script {
            script.reset();
        }
    }

    /// Prefix-level transactions the speaker's script has handed out
    /// since its last load or [`SimRouter::reset_script`].
    pub fn speaker_transactions_taken(&self, speaker: SpeakerHandle) -> u64 {
        let script = self.plane().link(speaker.0).script.as_ref();
        script.map_or(0, |s| s.transactions_taken() as u64)
    }

    /// Session-down purge of everything learned from the speaker's
    /// peer; returns the number of affected prefixes.
    pub fn purge_speaker(&mut self, speaker: SpeakerHandle) -> usize {
        self.sim.model_mut().purge_speaker(speaker.0)
    }

    /// Full simulator ticks elapsed so far — the virtual-time cost of
    /// the run, comparable across serial and parallel grid executions.
    pub fn ticks_elapsed(&self) -> u64 {
        self.sim.ticks_elapsed()
    }

    /// Current simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.sim.now().as_secs_f64()
    }

    /// Number of routes selected into the Loc-RIB.
    pub fn loc_rib_len(&self) -> usize {
        self.plane().engine.loc_rib().len()
    }

    /// Number of routes installed in the forwarding table.
    pub fn fib_len(&self) -> usize {
        self.plane().fib().len()
    }

    /// The gateway currently installed for `prefix`, if any — lets the
    /// harness assert which speaker won the decision process.
    pub fn fib_gateway(&self, prefix: &bgpbench_wire::Prefix) -> Option<Ipv4Addr> {
        self.plane().fib().get(prefix).map(|hop| hop.gateway())
    }

    /// Installs the import route-map (Adj-RIB-In → Loc-RIB) on the
    /// platform's routing engine.
    pub fn set_import_policy(&mut self, policy: RouteMap) {
        self.plane_mut().engine.set_import_policy(policy);
    }

    /// Installs the export route-map (Loc-RIB → Adj-RIB-Out) on the
    /// platform's routing engine.
    pub fn set_export_policy(&mut self, policy: RouteMap) {
        self.plane_mut().engine.set_export_policy(policy);
    }

    /// Cross-traffic accounting.
    pub fn cross_summary(&self) -> CrossSummary {
        self.plane().cross.summary()
    }

    /// The recorder with CPU-load and forwarding-rate series.
    pub fn recorder(&self) -> &Recorder {
        self.sim.recorder()
    }

    /// Places a phase mark at the current simulated time.
    pub fn mark(&mut self, label: &str) {
        let now = self.now_secs();
        self.sim.recorder_mut().mark(label, now);
    }
}

fn finished(outcome: RunOutcome, target: u64, achieved: u64) -> Option<f64> {
    if achieved >= target {
        Some(outcome.elapsed.as_secs_f64())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_platforms, cisco3620, pentium3};
    use bgpbench_speaker::{workload, TableGenerator};

    fn announce_spec(pkt: usize, path_len: usize, asn: u16) -> workload::AnnounceSpec {
        workload::AnnounceSpec {
            speaker_asn: Asn(asn),
            path_len,
            next_hop: Ipv4Addr::new(10, 0, 0, if asn == 65001 { 2 } else { 3 }),
            prefixes_per_update: pkt,
            seed: 1,
        }
    }

    #[test]
    fn all_platforms_construct_and_process() {
        let table = TableGenerator::new(1).generate(20);
        for spec in all_platforms() {
            let mut router = SimRouter::new(&spec);
            router.load_script(
                SPEAKER_1,
                SpeakerScript::new(workload::announcements(
                    &table,
                    &announce_spec(500, 3, 65001),
                )),
            );
            let elapsed = router.run_until_transactions(20, 120.0);
            assert!(elapsed.is_some(), "{} timed out", spec.name);
            assert_eq!(router.fib_len(), 20, "{}", spec.name);
            assert_eq!(router.loc_rib_len(), 20, "{}", spec.name);
        }
    }

    #[test]
    fn phase_marks_are_recorded() {
        let mut router = SimRouter::new(&pentium3());
        router.mark("phase 1");
        router.run_for(0.5);
        router.mark("phase 2");
        assert_eq!(router.recorder().mark_time("phase 1"), Some(0.0));
        assert_eq!(router.recorder().mark_time("phase 2"), Some(0.5));
    }

    #[test]
    fn run_until_transactions_times_out_gracefully() {
        let mut router = SimRouter::new(&cisco3620());
        let table = TableGenerator::new(1).generate(100);
        router.load_script(
            SPEAKER_1,
            SpeakerScript::new(workload::announcements(&table, &announce_spec(1, 3, 65001))),
        );
        // 100 small packets on the Cisco take ~9 s; 1 s must time out.
        assert_eq!(router.run_until_transactions(100, 1.0), None);
        // But progress was made and can be completed afterwards.
        assert!(router.transactions_done() > 0);
        assert!(router.run_until_transactions(100, 60.0).is_some());
    }

    #[test]
    fn export_roundtrip_via_wrapper() {
        let mut router = SimRouter::new(&pentium3());
        let table = TableGenerator::new(1).generate(150);
        router.load_script(
            SPEAKER_1,
            SpeakerScript::new(workload::announcements(
                &table,
                &announce_spec(500, 3, 65001),
            )),
        );
        router.run_until_transactions(150, 60.0).unwrap();
        let queued = router.queue_export(SPEAKER_2, 500);
        assert!(queued >= 1);
        assert!(router.run_until_exports(150, 60.0).is_some());
    }

    #[test]
    fn exports_resolve_the_registered_peer_not_the_handle() {
        // Peer ids need not be handle + 1: the export must still apply
        // split horizon toward the speaker the routes came from.
        let peers = [
            PeerInfo::new(
                PeerId(7),
                Asn(65001),
                RouterId(0x0A00_0002),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
            PeerInfo::new(
                PeerId(9),
                Asn(65002),
                RouterId(0x0A00_0003),
                Ipv4Addr::new(10, 0, 0, 3),
            ),
        ];
        let mut router = SimRouter::with_peers(&pentium3(), &peers, LOCAL_ASN);
        let table = TableGenerator::new(1).generate(40);
        router.load_script(
            SPEAKER_1,
            SpeakerScript::new(workload::announcements(
                &table,
                &announce_spec(500, 3, 65001),
            )),
        );
        router.run_until_transactions(40, 60.0).unwrap();
        assert!(router.export_messages(SPEAKER_1, 10).is_empty());
        let toward_speaker2 = router.export_messages(SPEAKER_2, 10);
        assert_eq!(workload::transaction_count(&toward_speaker2), 40);
        assert_eq!(router.queue_export(SPEAKER_2, 10), toward_speaker2.len());
        assert!(router.run_until_exports(40, 60.0).is_some());
        assert_eq!(router.exported_transactions(), 40);
    }

    #[test]
    fn a_reordering_link_swaps_one_pair_on_arrival() {
        // Announce-then-withdraw leaves the tables empty. Swapped on
        // the wire, the withdrawal arrives first (for a route not yet
        // there) and the announcement sticks.
        let table = TableGenerator::new(1).generate(1);
        let script = || {
            let mut updates = workload::announcements(&table, &announce_spec(1, 3, 65001));
            updates.extend(workload::withdrawals(&table, 1));
            SpeakerScript::new(updates)
        };
        for spec in [pentium3(), cisco3620()] {
            let mut in_order = SimRouter::new(&spec);
            in_order.load_script(SPEAKER_1, script());
            in_order.run_until_transactions(2, 60.0).unwrap();
            assert_eq!(in_order.fib_len(), 0, "{}", spec.name);

            let mut swapped = SimRouter::new(&spec);
            swapped.reorder_next(SPEAKER_1, 1);
            swapped.load_script(SPEAKER_1, script());
            swapped.run_until_transactions(2, 60.0).unwrap();
            assert_eq!(swapped.fib_len(), 1, "{}", spec.name);
            assert_eq!(swapped.loc_rib_len(), 1, "{}", spec.name);
        }
    }
}
