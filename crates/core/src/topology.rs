//! The multi-peer topology engine behind the session-churn scenarios.
//!
//! Where the paper's harness hard-wires Speaker 1 → DUT → Speaker 2,
//! this module attaches N speakers to one simulated router and drives
//! a full RFC 4271 session FSM ([`bgpbench_daemon::SessionFsm`]) per
//! peer, one tick at a time, interleaved with a seeded [`FaultPlan`]:
//!
//! 1. due fault events are injected at the simnet layer (session
//!    flaps, link blackouts, message drops/reorders);
//! 2. each peer's FSM advances — the engine plays the remote endpoint,
//!    answering the handshake and delivering keepalives while the link
//!    is up;
//! 3. the router simulation advances exactly one tick.
//!
//! A session reaching Established opens the speaker's link and
//! (re-)advertises its full table; a session going down purges
//! everything learned from that peer and re-runs best-path selection.
//! The run converges when the plan is exhausted, every session is
//! Established, and the router has drained — the tick count and the
//! duplicate-update amplification are the scenario's metrics.

use std::net::Ipv4Addr;

use bgpbench_daemon::{FsmAction, FsmEvent, FsmState, SessionFsm, SessionTimers};
use bgpbench_models::{PlatformSpec, SimRouter, SpeakerHandle};
use bgpbench_rib::{PeerId, PeerInfo};
use bgpbench_speaker::{workload, SpeakerScript, TableGenerator};
use bgpbench_telemetry::{self as telemetry, MetricId, TraceEventId};
use bgpbench_wire::{Asn, RouterId};

use crate::experiments::{Figure, Panel};
use crate::faults::{FaultAction, FaultPlan};
use crate::report::Render;
use crate::runner::{CellSpec, GridRunner};
use crate::scenario::Scenario;

/// Safety limit on a churn run, in ticks (10 simulated minutes).
const LIMIT_TICKS: u64 = 600_000;

/// What a churn run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceOutcome {
    /// Whether the run converged before the tick limit.
    pub converged: bool,
    /// Ticks from start to convergence (or the limit).
    pub ticks: u64,
    /// Established sessions that went down (FSM flap count, summed).
    pub flaps: u64,
    /// Prefix transactions announced beyond one full table per peer —
    /// the re-advertisement amplification caused by session churn.
    pub duplicate_updates: u64,
    /// Prefix transactions the router fully processed.
    pub transactions: u64,
    /// Prefixes purged by session-down best-path re-runs.
    pub purged_prefixes: u64,
}

/// Per-peer engine state alongside the FSM.
#[derive(Debug)]
struct PeerRuntime {
    handle: SpeakerHandle,
    fsm: SessionFsm,
    /// Link carries no traffic before this tick (blackout fault).
    blackout_until: u64,
    /// Ticks since the engine last delivered a keepalive.
    since_keepalive: u64,
    /// Prefix transactions announced before the last script reset.
    announced: u64,
    /// Mirror of the model's link gate, to issue transitions once.
    input_open: bool,
}

/// N speakers, one simulated router, a fault plan, and a per-peer
/// session FSM — the session-churn scenario engine.
#[derive(Debug)]
pub struct Topology {
    router: SimRouter,
    peers: Vec<PeerRuntime>,
    plan: FaultPlan,
    /// Table size each peer advertises (the duplicate-update baseline).
    prefixes: usize,
    purged: u64,
}

impl Topology {
    /// Builds the topology on the cell's platform: the cell's peer
    /// count of speakers (AS 65001+i at 10.0.0.2+i), each loaded with
    /// a full-table announcement script at the cell's packetization,
    /// all sessions Idle and all links closed until their FSMs reach
    /// Established. The cell's scenario only picks the default
    /// packetization; the faults are `plan`'s.
    ///
    /// # Panics
    ///
    /// Panics if the cell's peer count is zero or above 64, or its
    /// table size is zero.
    pub fn new(cell: &CellSpec, plan: FaultPlan) -> Self {
        let peers = cell.churn.peers;
        let hold_ticks = cell.churn.hold_ticks;
        let prefixes_per_update = cell.prefixes_per_update();
        assert!((1..=64).contains(&peers), "peer count must be in 1..=64");
        assert!(cell.prefixes > 0, "topology needs at least one prefix");
        let infos: Vec<PeerInfo> = (0..peers)
            .map(|i| {
                let host = 2 + i as u32;
                PeerInfo::new(
                    PeerId(i as u32 + 1),
                    Asn(65001 + i as u16),
                    RouterId(0x0A00_0000 + host),
                    Ipv4Addr::new(10, 0, 0, host as u8),
                )
            })
            .collect();
        let mut router = SimRouter::with_peers(&cell.platform, &infos, Asn(65000));
        let table = TableGenerator::new(cell.seed).generate(cell.prefixes);
        let timers = SessionTimers {
            hold_ticks: hold_ticks.max(3),
            keepalive_ticks: (hold_ticks / 3).max(1),
            connect_retry_ticks: (hold_ticks / 2).max(1),
            // The simulated handshake has one hold value throughout.
            open_hold_ticks: hold_ticks.max(3),
        };
        let peers = infos
            .iter()
            .enumerate()
            .map(|(i, info)| {
                let handle = SpeakerHandle(i);
                router.load_script(
                    handle,
                    SpeakerScript::new(workload::announcements(
                        &table,
                        &workload::AnnounceSpec {
                            speaker_asn: info.asn(),
                            path_len: 3,
                            next_hop: info.address(),
                            prefixes_per_update,
                            seed: cell.seed + i as u64,
                        },
                    )),
                );
                // Sessions start Idle: no input until Established.
                router.set_speaker_enabled(handle, false);
                let mut fsm = SessionFsm::new(timers);
                // Peer ids are 1-based on the trace timeline (0 means
                // "unlabeled"), as on the live daemon's sessions.
                fsm.set_trace_label(i as u64 + 1);
                PeerRuntime {
                    handle,
                    fsm,
                    blackout_until: 0,
                    since_keepalive: 0,
                    announced: 0,
                    input_open: false,
                }
            })
            .collect();
        router.set_cross_traffic_mbps(cell.cross_traffic_mbps);
        Topology {
            router,
            peers,
            plan,
            prefixes: cell.prefixes,
            purged: 0,
        }
    }

    /// Runs the tick loop to convergence (or the 600 000-tick safety
    /// limit) and
    /// reports what happened. Records [`MetricId::SessionFlaps`],
    /// [`MetricId::DuplicateUpdates`], and
    /// [`MetricId::ConvergenceTicks`].
    pub fn run_to_convergence(&mut self) -> ConvergenceOutcome {
        let mut next_event = 0;
        let mut actions: Vec<FsmAction> = Vec::new();
        let mut tick: u64 = 0;
        let horizon = self.plan.horizon();
        let converged = loop {
            if tick >= LIMIT_TICKS {
                break false;
            }
            while next_event < self.plan.events().len()
                && self.plan.events()[next_event].at_tick <= tick
            {
                let action = self.plan.events()[next_event].action;
                next_event += 1;
                self.inject(action, tick, &mut actions);
            }
            for i in 0..self.peers.len() {
                self.step_peer(i, tick, &mut actions);
            }
            self.router.step();
            tick += 1;
            if next_event == self.plan.events().len()
                && tick > horizon
                && self
                    .peers
                    .iter()
                    .all(|p| p.fsm.state() == FsmState::Established)
                && self.router.is_quiescent()
            {
                break true;
            }
        };
        let flaps: u64 = self.peers.iter().map(|p| p.fsm.flaps()).sum();
        let total_announced: u64 = self
            .peers
            .iter()
            .map(|p| p.announced + self.router.speaker_transactions_taken(p.handle))
            .sum();
        let baseline = (self.peers.len() * self.prefixes) as u64;
        let duplicate_updates = total_announced.saturating_sub(baseline);
        telemetry::add(MetricId::DuplicateUpdates, duplicate_updates);
        telemetry::gauge(MetricId::ConvergenceTicks, tick);
        ConvergenceOutcome {
            converged,
            ticks: tick,
            flaps,
            duplicate_updates,
            transactions: self.router.transactions_done(),
            purged_prefixes: self.purged,
        }
    }

    /// The simulated router, for post-run inspection.
    pub fn router(&self) -> &SimRouter {
        &self.router
    }

    /// Hands the router back (the harness returns it to figure
    /// drivers).
    pub fn into_router(self) -> SimRouter {
        self.router
    }

    /// Session states in peer order.
    pub fn session_states(&self) -> Vec<FsmState> {
        self.peers.iter().map(|p| p.fsm.state()).collect()
    }

    fn inject(&mut self, action: FaultAction, tick: u64, actions: &mut Vec<FsmAction>) {
        let (peer, kind) = match action {
            FaultAction::Flap { peer } => (peer, 1),
            FaultAction::BlackoutUntil { peer, .. } => (peer, 2),
            FaultAction::Drop { peer, .. } => (peer, 3),
            FaultAction::Reorder { peer, .. } => (peer, 4),
        };
        telemetry::trace_instant(TraceEventId::FaultInjected, peer as u64 + 1, kind);
        match action {
            FaultAction::Flap { peer } => {
                actions.clear();
                self.peers[peer].fsm.handle(FsmEvent::ManualStop, actions);
                self.apply_actions(peer, actions);
            }
            FaultAction::BlackoutUntil { peer, until_tick } => {
                self.peers[peer].blackout_until = until_tick.max(tick);
            }
            FaultAction::Drop { peer, n } => {
                self.router.drop_next(SpeakerHandle(peer), n);
            }
            FaultAction::Reorder { peer, pairs } => {
                self.router.reorder_next(SpeakerHandle(peer), pairs);
            }
        }
    }

    /// One engine tick for one peer: play the remote endpoint while
    /// the link is up, advance the FSM clock, apply the fallout, and
    /// reconcile the model's input gate with the session state.
    fn step_peer(&mut self, i: usize, tick: u64, actions: &mut Vec<FsmAction>) {
        let link_up = tick >= self.peers[i].blackout_until;
        actions.clear();
        if link_up {
            let keepalive_every = self.peers[i].fsm.timers().keepalive_ticks;
            match self.peers[i].fsm.state() {
                FsmState::Idle => self.peers[i].fsm.handle(FsmEvent::ManualStart, actions),
                FsmState::Connect => self.peers[i].fsm.handle(FsmEvent::TcpConnected, actions),
                FsmState::OpenSent => self.peers[i].fsm.handle(FsmEvent::OpenReceived, actions),
                FsmState::OpenConfirm => self.peers[i]
                    .fsm
                    .handle(FsmEvent::KeepaliveReceived, actions),
                FsmState::Established => {
                    self.peers[i].since_keepalive += 1;
                    if self.peers[i].since_keepalive >= keepalive_every {
                        self.peers[i].since_keepalive = 0;
                        self.peers[i]
                            .fsm
                            .handle(FsmEvent::KeepaliveReceived, actions);
                    }
                }
            }
        }
        self.peers[i].fsm.on_tick(actions);
        self.apply_actions(i, actions);
        let open = link_up && self.peers[i].fsm.state() == FsmState::Established;
        if open != self.peers[i].input_open {
            self.peers[i].input_open = open;
            self.router.set_speaker_enabled(self.peers[i].handle, open);
        }
    }

    /// Applies session-level consequences of FSM actions: purge on
    /// session down, full re-advertisement on session up.
    fn apply_actions(&mut self, i: usize, actions: &[FsmAction]) {
        let handle = self.peers[i].handle;
        for action in actions {
            match action {
                FsmAction::SessionDown => {
                    telemetry::incr(MetricId::SessionFlaps);
                    telemetry::trace_instant(TraceEventId::SessionDown, i as u64 + 1, 0);
                    self.purged += self.router.purge_speaker(handle) as u64;
                }
                FsmAction::SessionUp => {
                    // Peer i speaks as AS 65001 + i (see `Topology::new`).
                    telemetry::trace_instant(
                        TraceEventId::SessionUp,
                        i as u64 + 1,
                        65001 + i as u64,
                    );
                    // BGP has no incremental resync: a fresh session
                    // re-advertises the whole table. Bank what the old
                    // session already sent (reset zeroes the counter),
                    // then rewind.
                    self.peers[i].announced += self.router.speaker_transactions_taken(handle);
                    self.router.reset_script(handle);
                    self.peers[i].since_keepalive = 0;
                }
                FsmAction::StartConnect
                | FsmAction::SendOpen
                | FsmAction::SendKeepalive
                | FsmAction::SendNotification(_) => {}
            }
        }
    }
}

/// One churn cell's full result: the cell's identity plus what the
/// engine measured. `Eq` on purpose — the determinism contract is
/// bit-identical runs, not approximate agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceRun {
    /// The fault scenario that ran (S9–S12).
    pub scenario: Scenario,
    /// The platform's display name.
    pub platform: &'static str,
    /// Attached peers.
    pub peers: usize,
    /// Table size each peer advertises.
    pub prefixes: usize,
    /// The cell seed (workload tables and fault plan).
    pub seed: u64,
    /// Mean flap spacing used for storm plans, in ticks.
    pub flap_interval_ticks: u64,
    /// What the run measured.
    pub outcome: ConvergenceOutcome,
}

/// The S9–S12 results as a renderable artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// One row per executed churn cell.
    pub runs: Vec<ConvergenceRun>,
}

impl Render for ConvergenceReport {
    fn title(&self) -> String {
        "Session-churn convergence (Scenarios 9-12)".to_owned()
    }

    fn text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n\n", self.title()));
        out.push_str(&format!(
            "{:<9} {:<12} {:>5} {:>8} {:>10} {:>6} {:>11} {:>12} {:>9}\n",
            "scenario",
            "platform",
            "peers",
            "prefixes",
            "conv_ticks",
            "flaps",
            "duplicates",
            "transactions",
            "converged"
        ));
        for run in &self.runs {
            out.push_str(&format!(
                "{:<9} {:<12} {:>5} {:>8} {:>10} {:>6} {:>11} {:>12} {:>9}\n",
                format!("{:?}", run.scenario),
                run.platform,
                run.peers,
                run.prefixes,
                run.outcome.ticks,
                run.outcome.flaps,
                run.outcome.duplicate_updates,
                run.outcome.transactions,
                if run.outcome.converged { "yes" } else { "NO" },
            ));
        }
        out
    }

    fn csv(&self) -> String {
        let mut out = String::from(
            "scenario,platform,peers,prefixes,seed,flap_interval_ticks,\
             converged,convergence_ticks,flaps,duplicate_updates,transactions,purged_prefixes\n",
        );
        for run in &self.runs {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                run.scenario.number(),
                run.platform,
                run.peers,
                run.prefixes,
                run.seed,
                run.flap_interval_ticks,
                run.outcome.converged,
                run.outcome.ticks,
                run.outcome.flaps,
                run.outcome.duplicate_updates,
                run.outcome.transactions,
                run.outcome.purged_prefixes,
            ));
        }
        out
    }
}

/// Runs every fault scenario (S9–S12) on every given platform through
/// the grid engine and collects the report. Cells execute across the
/// runner's thread pool; rows come back in grid order, so serial and
/// parallel runs are bit-identical.
///
/// # Panics
///
/// Panics if a cell itself panics (fault scenarios are expected to
/// converge within the engine's safety limit).
pub fn convergence_report(
    runner: &mut GridRunner,
    platforms: &[PlatformSpec],
    base: &CellSpec,
) -> ConvergenceReport {
    let cells: Vec<CellSpec> = Scenario::FAULTS
        .iter()
        .flat_map(|&scenario| {
            platforms.iter().map(move |platform| {
                base.clone()
                    .with_scenario_platform(scenario, platform.clone())
            })
        })
        .collect();
    let runs = runner
        .run_map(&cells, CellSpec::run_churn)
        .into_iter()
        .map(|run| run.result.expect("churn cell must complete"))
        .collect();
    ConvergenceReport { runs }
}

/// The flap-storm sweep (extension figure): ticks-to-converge and
/// duplicate-update amplification versus session flap rate, one series
/// per platform. `intervals` are mean flap spacings in ticks; the
/// x axis is the resulting flap rate in flaps per simulated second.
pub fn flap_storm_figure(
    runner: &mut GridRunner,
    platforms: &[PlatformSpec],
    intervals: &[u64],
    base: &CellSpec,
) -> Figure {
    let cells: Vec<CellSpec> = intervals
        .iter()
        .flat_map(|&interval| {
            platforms.iter().map(move |platform| {
                base.clone()
                    .with_scenario_platform(Scenario::S9, platform.clone())
                    .flap_interval(interval)
            })
        })
        .collect();
    let runs = runner.run_map(&cells, CellSpec::run_churn);
    let blank: Vec<(String, Vec<(f64, f64)>)> = platforms
        .iter()
        .map(|p| (p.name.to_owned(), Vec::new()))
        .collect();
    let mut ticks_series = blank.clone();
    let mut duplicate_series = blank;
    for (index, run) in runs.iter().enumerate() {
        let Ok(row) = &run.result else { continue };
        let platform = index % platforms.len();
        // Ticks are milliseconds, so rate = 1000 / spacing.
        let x = 1000.0 / intervals[index / platforms.len()] as f64;
        ticks_series[platform].1.push((x, row.outcome.ticks as f64));
        duplicate_series[platform]
            .1
            .push((x, row.outcome.duplicate_updates as f64));
    }
    Figure {
        title: "Flap-storm sweep: convergence cost versus session flap rate".to_owned(),
        panels: vec![
            Panel {
                title: "ticks to converge".to_owned(),
                series: ticks_series,
                marks: Vec::new(),
            },
            Panel {
                title: "duplicate prefix announcements".to_owned(),
                series: duplicate_series,
                marks: Vec::new(),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_models::xeon;

    const PREFIXES: usize = 120;
    const PEERS: usize = 3;
    const HOLD_TICKS: u64 = 300;

    fn quick_cell() -> CellSpec {
        CellSpec::new(Scenario::S9, xeon())
            .peers(PEERS)
            .prefixes(PREFIXES)
            .seed(1)
            .hold_ticks(HOLD_TICKS)
    }

    #[test]
    fn faultless_startup_converges_with_no_duplicates() {
        let mut topo = Topology::new(&quick_cell(), FaultPlan::none());
        let outcome = topo.run_to_convergence();
        assert!(outcome.converged, "startup must converge");
        assert_eq!(outcome.flaps, 0);
        assert_eq!(outcome.duplicate_updates, 0);
        assert_eq!(outcome.purged_prefixes, 0);
        assert_eq!(topo.router().loc_rib_len(), PREFIXES);
        assert_eq!(topo.router().fib_len(), PREFIXES);
        assert!(topo
            .session_states()
            .iter()
            .all(|s| *s == FsmState::Established));
    }

    #[test]
    fn a_flap_forces_a_full_readvertisement() {
        let mut topo = Topology::new(&quick_cell(), FaultPlan::restart(0, 2000));
        let outcome = topo.run_to_convergence();
        assert!(outcome.converged);
        assert_eq!(outcome.flaps, 1);
        assert!(
            outcome.duplicate_updates > 0,
            "restart must re-announce previously sent prefixes"
        );
        assert!(outcome.purged_prefixes > 0, "session down must purge");
        // The table heals completely after re-sync.
        assert_eq!(topo.router().loc_rib_len(), PREFIXES);
        assert_eq!(topo.router().fib_len(), PREFIXES);
    }

    #[test]
    fn blackout_expires_the_hold_timer_and_recovers() {
        let plan = FaultPlan::hold_expiry_cascade(1, HOLD_TICKS);
        let mut topo = Topology::new(&quick_cell(), plan);
        let outcome = topo.run_to_convergence();
        assert!(outcome.converged);
        assert!(outcome.flaps >= 1, "blackout must expire the hold timer");
        assert_eq!(topo.router().fib_len(), PREFIXES);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let run = || {
            let plan = FaultPlan::flap_storm(1, PEERS, 4, 1500);
            Topology::new(&quick_cell(), plan).run_to_convergence()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "peer count")]
    fn zero_peers_panics() {
        let _ = Topology::new(&quick_cell().peers(0), FaultPlan::none());
    }
}
