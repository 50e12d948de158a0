//! Live-mode integration: the benchmark methodology against the real
//! daemon, through the facade.

use std::time::Duration;

use bgpbench::bench::live::{run_live_scenario, LiveConfig};
use bgpbench::bench::Scenario;
use bgpbench::daemon::{BgpDaemon, DaemonConfig};

fn quick() -> LiveConfig {
    LiveConfig {
        prefixes: 400,
        seed: 42,
        phase_timeout: Duration::from_secs(60),
    }
}

#[test]
fn live_mode_runs_every_scenario_class() {
    // One representative per operation class keeps the suite fast;
    // the live_daemon example runs all eight.
    for scenario in [Scenario::S2, Scenario::S3, Scenario::S5, Scenario::S8] {
        let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
        let result = run_live_scenario(&daemon, scenario, &quick())
            .unwrap_or_else(|err| panic!("{scenario} failed: {err}"));
        assert_eq!(result.transactions, 400, "{scenario}");
        assert!(result.tps() > 0.0, "{scenario}");
        daemon.shutdown();
    }
}

#[test]
fn live_mode_shape_no_change_beats_replace() {
    // Scenario 6 (no FIB change) must outrun scenario 8 (replace) on
    // the live daemon too — the paper's Table III ordering, measured
    // on real sockets. Use a healthy margin to tolerate host noise: the
    // phase must span many of the 2 ms polls that time it, and at 5 000
    // prefixes both scenarios came in under one.
    let config = LiveConfig {
        prefixes: 50_000,
        seed: 42,
        phase_timeout: Duration::from_secs(120),
    };
    let daemon6 = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let s6 = run_live_scenario(&daemon6, Scenario::S6, &config).unwrap();
    daemon6.shutdown();
    let daemon8 = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let s8 = run_live_scenario(&daemon8, Scenario::S8, &config).unwrap();
    daemon8.shutdown();
    assert!(
        s6.tps() > s8.tps(),
        "scenario 6 ({:.0} tps) should beat scenario 8 ({:.0} tps)",
        s6.tps(),
        s8.tps()
    );
}
