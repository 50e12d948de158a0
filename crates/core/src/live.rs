//! Live mode: the benchmark methodology applied to a real BGP daemon
//! over TCP.
//!
//! The paper's benchmark is explicitly "applicable to any BGP router";
//! this module is that claim realized in software — the same phases
//! and metric, but against a [`BgpDaemon`] (or, with minor adaptation,
//! any RFC 4271 speaker reachable over TCP), measured in wall-clock
//! time on the host machine.

#![expect(
    clippy::disallowed_methods,
    reason = "live-mode wall-clock pacing and timeouts against a real TCP peer"
)]

use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bgpbench_daemon::BgpDaemon;
use bgpbench_models::SpeakerHandle;
use bgpbench_speaker::{workload, LiveSpeaker, LiveSpeakerConfig};
use bgpbench_wire::{Asn, RouterId};

use crate::harness::ScenarioResult;
use crate::plan::{self, Action};
use crate::scenario::{BgpOperation, Scenario};

/// Parameters of a live scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Routing-table size.
    pub prefixes: usize,
    /// Workload seed.
    pub seed: u64,
    /// Per-phase timeout.
    pub phase_timeout: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            prefixes: 10_000,
            seed: 2007,
            phase_timeout: Duration::from_secs(120),
        }
    }
}

/// The AS and next hop Speaker 1 and Speaker 2 announce with.
const SPEAKERS: [(Asn, Ipv4Addr); 2] = [
    (Asn(65001), Ipv4Addr::new(127, 0, 0, 1)),
    (Asn(65002), Ipv4Addr::new(127, 0, 0, 2)),
];

/// The live session of a plan's speaker, opened on first use.
fn session<'a>(
    sessions: &'a mut [Option<LiveSpeaker>; 2],
    speaker: SpeakerHandle,
    daemon: &BgpDaemon,
) -> io::Result<&'a mut LiveSpeaker> {
    let slot = &mut sessions[speaker.0];
    if slot.is_none() {
        let config = LiveSpeakerConfig {
            local_asn: SPEAKERS[speaker.0].0,
            router_id: RouterId(0x0A00_0002 + speaker.0 as u32),
            hold_time_secs: 90,
        };
        let handshake = Duration::from_secs(10);
        *slot = Some(LiveSpeaker::connect(
            daemon.local_addr(),
            &config,
            handshake,
        )?);
    }
    Ok(slot.as_mut().expect("connected above"))
}

/// Waits until the daemon has processed `target` transactions,
/// returning the elapsed wall-clock seconds.
fn wait_transactions(daemon: &BgpDaemon, target: u64, timeout: Duration) -> io::Result<f64> {
    let start = Instant::now();
    loop {
        if daemon.transactions() >= target {
            return Ok(start.elapsed().as_secs_f64());
        }
        if start.elapsed() > timeout {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "daemon processed {} of {target} transactions before timeout",
                    daemon.transactions()
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs one benchmark scenario against a live daemon, timing only the
/// scenario's relevant phase (wall-clock).
///
/// # Errors
///
/// Propagates socket errors and phase timeouts.
pub fn run_live_scenario(
    daemon: &BgpDaemon,
    scenario: Scenario,
    config: &LiveConfig,
) -> io::Result<ScenarioResult> {
    run_phases(daemon, scenario, config).map(|(result, _speakers)| result)
}

/// The live executor of a scenario's [`plan::phase_plan`]: each step
/// floods a speaker's stream over TCP (or connects the receiving
/// speaker and collects the table) and polls the daemon until the
/// step's transactions are through.
///
/// Also returns the speakers with their sessions still up: until they
/// are dropped, the daemon's counters show the measured phases alone,
/// with no teardown fallout (a dropped Speaker 2 hands its prefixes
/// back to Speaker 1's routes).
fn run_phases(
    daemon: &BgpDaemon,
    scenario: Scenario,
    config: &LiveConfig,
) -> io::Result<(ScenarioResult, [Option<LiveSpeaker>; 2])> {
    let unsupported = |needs: &str| {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("{scenario} needs {needs}"),
        ))
    };
    if scenario.operation() == BgpOperation::SessionChurn {
        return unsupported("the simulated topology engine, not a live daemon");
    }
    if scenario.policy().is_some() {
        return unsupported("route-map configuration, which the live daemon lacks");
    }
    let mut source = scenario
        .workload()
        .spec()
        .source(config.seed)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let table = source.table(config.prefixes);
    let pkt = scenario.packet_size().prefixes_per_update();

    let mut sessions = [None, None];
    // The daemon's counter is cumulative, so each sending step waits
    // for the running total of what has been sent so far.
    let mut sent = 0;
    let mut timed = (0, 0.0);
    for step in plan::phase_plan(scenario, config.seed, pkt, SPEAKERS) {
        let speaker = session(&mut sessions, step.speaker, daemon)?;
        timed = match step.action {
            Action::Send(traffic) => {
                let updates = traffic.generate(&mut *source, &table);
                let transactions = workload::transaction_count(&updates) as u64;
                sent += transactions;
                let start = Instant::now();
                speaker.flood(&updates)?;
                wait_transactions(daemon, sent, config.phase_timeout)?;
                (transactions, start.elapsed().as_secs_f64())
            }
            // The daemon re-advertises to whoever connects; its own
            // packetization is not configurable.
            Action::Export { .. } => {
                let start = Instant::now();
                speaker.collect_routes_until(table.len(), 0, config.phase_timeout)?;
                (table.len() as u64, start.elapsed().as_secs_f64())
            }
        };
    }

    let (transactions, elapsed_secs) = timed;
    let result = ScenarioResult {
        scenario,
        platform: "live daemon",
        transactions,
        elapsed_secs,
        cross_traffic_mbps: 0.0,
        completed: true,
        // The live daemon runs on host time; there is no simulator
        // clock to count.
        virtual_ticks: 0,
    };
    Ok((result, sessions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_daemon::DaemonConfig;

    fn quick_config() -> LiveConfig {
        LiveConfig {
            prefixes: 500,
            seed: 1,
            phase_timeout: Duration::from_secs(30),
        }
    }

    #[test]
    fn live_scenario_2_measures_real_throughput() {
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        let result = run_live_scenario(&daemon, Scenario::S2, &quick_config()).unwrap();
        assert_eq!(result.transactions, 500);
        assert!(result.tps() > 100.0, "live tps {}", result.tps());
        daemon.shutdown();
    }

    #[test]
    fn live_scenario_4_withdrawals() {
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        let result = run_live_scenario(&daemon, Scenario::S4, &quick_config()).unwrap();
        assert_eq!(result.transactions, 500);
        assert_eq!(daemon.snapshot().loc_rib_len, 0);
        daemon.shutdown();
    }

    #[test]
    fn live_scenario_6_no_fib_change() {
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        let (result, _speakers) = run_phases(&daemon, Scenario::S6, &quick_config()).unwrap();
        assert!(result.completed);
        let snapshot = daemon.snapshot();
        // Phase 3 must not have touched the FIB beyond phase 1.
        assert_eq!(snapshot.rib.fib_installs, 500);
        daemon.shutdown();
    }

    #[test]
    fn live_scenario_8_fib_change() {
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        let (result, _speakers) = run_phases(&daemon, Scenario::S8, &quick_config()).unwrap();
        assert!(result.completed);
        let snapshot = daemon.snapshot();
        // Phase 3 replaced every route: installs from phase 1 plus the
        // replacements.
        assert_eq!(snapshot.rib.fib_installs, 1000);
        daemon.shutdown();
    }

    #[test]
    fn policy_scenarios_are_refused_live() {
        // S13 is an incremental change through an import filter: run
        // without its filter it would silently be S8.
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        for scenario in [Scenario::S13, Scenario::S14, Scenario::S15] {
            let err = run_live_scenario(&daemon, scenario, &quick_config()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::Unsupported, "{scenario}: {err}");
        }
        assert_eq!(daemon.snapshot().transactions, 0);
        daemon.shutdown();
    }

    #[test]
    fn simulated_and_live_runs_of_one_plan_agree() {
        // Both executors run `plan::phase_plan`, so the same scenario
        // must leave the simulated router and the live daemon with the
        // same tables. The speakers stay up while the snapshot is read
        // (see `run_phases`).
        let config = LiveConfig {
            prefixes: 300,
            ..quick_config()
        };
        for scenario in [Scenario::S2, Scenario::S4, Scenario::S6, Scenario::S8] {
            let cell = crate::CellSpec::new(scenario, bgpbench_models::xeon())
                .prefixes(config.prefixes)
                .seed(config.seed);
            let (simulated, router) = cell.run_with_router();
            assert!(simulated.completed, "{scenario}");

            let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
            let (live, _sessions) = run_phases(&daemon, scenario, &config).unwrap();
            let snapshot = daemon.snapshot();
            assert_eq!(live.transactions, simulated.transactions, "{scenario}");
            assert_eq!(snapshot.loc_rib_len, router.loc_rib_len(), "{scenario}");
            assert_eq!(snapshot.fib_len, router.fib_len(), "{scenario}");
            daemon.shutdown();
        }
    }
}
