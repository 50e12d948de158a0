//! Live mode: the benchmark methodology applied to a real BGP daemon
//! over TCP.
//!
//! The paper's benchmark is explicitly "applicable to any BGP router";
//! this module is that claim realized in software — the same phases
//! and metric, but against a [`BgpDaemon`] (or, with minor adaptation,
//! any RFC 4271 speaker reachable over TCP), measured in wall-clock
//! time on the host machine.

use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bgpbench_daemon::BgpDaemon;
use bgpbench_speaker::{workload, LiveSpeaker, LiveSpeakerConfig, WorkloadSpec};
use bgpbench_wire::{Asn, RouterId};

use crate::harness::ScenarioResult;
use crate::scenario::{BgpOperation, Scenario, WorkloadKind};

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

fn speaker_config(asn: u16, id: u32) -> LiveSpeakerConfig {
    LiveSpeakerConfig {
        local_asn: Asn(asn),
        router_id: RouterId(id),
        hold_time_secs: 90,
    }
}

/// Waits until the daemon has processed `target` transactions,
/// returning the elapsed wall-clock seconds.
fn wait_transactions(daemon: &BgpDaemon, target: u64, timeout: Duration) -> io::Result<f64> {
    let start = Instant::now();
    loop {
        if daemon.snapshot().transactions >= target {
            return Ok(start.elapsed().as_secs_f64());
        }
        if start.elapsed() > timeout {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "daemon processed {} of {target} transactions before timeout",
                    daemon.snapshot().transactions
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

/// [`run_live_scenario`], also returning the speakers with their
/// sessions still up: until they are dropped, the daemon's counters
/// show the measured phases alone, with no teardown fallout (a dropped
/// Speaker 2 hands its prefixes back to Speaker 1's routes).
fn run_phases(
    daemon: &BgpDaemon,
    scenario: Scenario,
    config: &LiveConfig,
) -> io::Result<(ScenarioResult, (LiveSpeaker, Option<LiveSpeaker>))> {
    let mut source = match scenario.workload() {
        WorkloadKind::Classic => WorkloadSpec::Classic,
        WorkloadKind::Modern => WorkloadSpec::Modern,
    }
    .source(config.seed)
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let table = source.table(config.prefixes);
    let pkt = scenario.packet_size().prefixes_per_update();
    let n = table.len() as u64;
    let addr = daemon.local_addr();
    let handshake = Duration::from_secs(10);

    let mut speaker1 = LiveSpeaker::connect(addr, &speaker_config(65001, 0x0A00_0002), handshake)?;
    let mut second = None;
    let base_spec = workload::AnnounceSpec {
        speaker_asn: Asn(65001),
        path_len: 3,
        next_hop: Ipv4Addr::new(127, 0, 0, 1),
        prefixes_per_update: workload::LARGE_PACKET_PREFIXES,
        seed: config.seed,
    };

    let (transactions, elapsed) = match scenario.operation() {
        BgpOperation::StartupAnnounce => {
            let updates = source.announcements(
                &table,
                &workload::AnnounceSpec {
                    prefixes_per_update: pkt,
                    ..base_spec
                },
            );
            let start = Instant::now();
            speaker1.flood(&updates)?;
            wait_transactions(daemon, n, config.phase_timeout)?;
            (n, start.elapsed().as_secs_f64())
        }
        BgpOperation::EndingWithdraw => {
            speaker1.flood(&source.announcements(&table, &base_spec))?;
            wait_transactions(daemon, n, config.phase_timeout)?;
            let updates = source.withdrawals(&table, pkt);
            let start = Instant::now();
            speaker1.flood(&updates)?;
            wait_transactions(daemon, 2 * n, config.phase_timeout)?;
            (n, start.elapsed().as_secs_f64())
        }
        BgpOperation::IncrementalNoChange | BgpOperation::IncrementalChange => {
            // Phase 1: inject.
            speaker1.flood(&source.announcements(&table, &base_spec))?;
            wait_transactions(daemon, n, config.phase_timeout)?;
            // Phase 2: speaker 2 connects and receives the table.
            let speaker2 = second.insert(LiveSpeaker::connect(
                addr,
                &speaker_config(65002, 0x0A00_0003),
                handshake,
            )?);
            speaker2.collect_routes_until(table.len(), 0, config.phase_timeout)?;
            // Phase 3: speaker 2 announces the same prefixes with a
            // longer (losing) or shorter (winning) path.
            let path_len = if scenario.operation() == BgpOperation::IncrementalNoChange {
                6
            } else {
                2
            };
            let updates = source.announcements(
                &table,
                &workload::AnnounceSpec {
                    speaker_asn: Asn(65002),
                    path_len,
                    next_hop: Ipv4Addr::new(127, 0, 0, 2),
                    prefixes_per_update: pkt,
                    seed: config.seed + 1,
                },
            );
            let start = Instant::now();
            speaker2.flood(&updates)?;
            wait_transactions(daemon, 2 * n, config.phase_timeout)?;
            (n, start.elapsed().as_secs_f64())
        }
        BgpOperation::UpdateTrainReplay => {
            // Phase 1: inject the full table.
            speaker1.flood(&source.announcements(&table, &base_spec))?;
            wait_transactions(daemon, n, config.phase_timeout)?;
            // Phase 3: replay the source's update train.
            let train = source.update_train(
                &table,
                &workload::AnnounceSpec {
                    prefixes_per_update: pkt,
                    ..base_spec
                },
            );
            let train_tx = workload::transaction_count(&train) as u64;
            let start = Instant::now();
            speaker1.flood(&train)?;
            wait_transactions(daemon, n + train_tx, config.phase_timeout)?;
            (train_tx, start.elapsed().as_secs_f64())
        }
        BgpOperation::SessionChurn => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{scenario} needs the simulated topology engine, not a live daemon"),
            ));
        }
        BgpOperation::ExportRewrite | BgpOperation::MedOscillation => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{scenario} needs route-map configuration, which the live daemon lacks"),
            ));
        }
    };

    let result = ScenarioResult {
        scenario,
        platform: "live daemon",
        transactions,
        elapsed_secs: elapsed,
        cross_traffic_mbps: 0.0,
        completed: true,
        // The live daemon runs on host time; there is no simulator
        // clock to count.
        virtual_ticks: 0,
    };
    Ok((result, (speaker1, second)))
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
}
