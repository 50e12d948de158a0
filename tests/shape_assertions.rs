//! Shape assertions: the paper's qualitative findings must hold in the
//! reproduction (reduced sizes; the `bgpbench` subcommands run full size).

use bgpbench::bench::experiments::{table3, ExperimentConfig};
use bgpbench::bench::{CellSpec, GridRunner, Scenario, ScenarioResult};
use bgpbench::models::{cisco3620, ixp2400, pentium3, xeon, PlatformSpec};

/// One cell at the quick sizes used throughout this suite.
fn run_cell(
    platform: &PlatformSpec,
    scenario: Scenario,
    prefixes: usize,
    cross_traffic_mbps: f64,
) -> ScenarioResult {
    CellSpec::new(scenario, platform.clone())
        .prefixes(prefixes)
        .cross_traffic(cross_traffic_mbps)
        .run()
}

#[test]
fn table3_observations_hold_at_quick_size() {
    let table = table3(&mut GridRunner::serial(), &ExperimentConfig::quick());
    let violations = table.check_observations();
    assert!(
        violations.is_empty(),
        "Table III observations violated:\n{}",
        violations.join("\n")
    );
}

#[test]
fn table3_cells_are_within_2x_of_the_paper() {
    // Not an absolute-number claim — a guard that calibration stays in
    // the right decade. Every measured cell must be within a factor of
    // two of the paper's value (the paper's own Xeon inversions are the
    // loosest fit).
    let table = table3(&mut GridRunner::serial(), &ExperimentConfig::quick());
    for scenario in Scenario::ALL {
        for platform in 0..4 {
            let cell = table.cell(scenario, platform);
            assert!(cell.completed, "{scenario} platform {platform} timed out");
            let ratio = cell.measured_tps / cell.paper_tps;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{scenario} platform {platform}: measured {:.1} vs paper {:.1} (ratio {ratio:.2})",
                cell.measured_tps,
                cell.paper_tps
            );
        }
    }
}

#[test]
fn fig3_wall_clock_ordering_across_platforms() {
    // The paper's Fig. 3 x-axes: the Xeon completes Scenario 6 "in
    // less than 90 seconds whereas the IXP2400 requires more than half
    // an hour" — a ~20x+ spread, with the Pentium III in between.
    let elapsed = |platform| {
        CellSpec::new(Scenario::S6, platform)
            .prefixes(1000)
            .seed(3)
            .run()
            .elapsed_secs
    };
    let xeon_secs = elapsed(xeon());
    let p3_secs = elapsed(pentium3());
    let ixp_secs = elapsed(ixp2400());
    assert!(
        p3_secs > 2.0 * xeon_secs,
        "Pentium III ({p3_secs:.2}s) should be well behind the Xeon ({xeon_secs:.2}s)"
    );
    assert!(
        ixp_secs > 10.0 * p3_secs,
        "IXP2400 ({ixp_secs:.2}s) should be an order of magnitude behind the Pentium III ({p3_secs:.2}s)"
    );
}

#[test]
fn fig5_pentium3_degrades_with_cross_traffic() {
    let platform = pentium3();
    let idle = run_cell(&platform, Scenario::S2, 600, 0.0);
    let loaded = run_cell(&platform, Scenario::S2, 600, 300.0);
    assert!(
        loaded.tps() < idle.tps() * 0.9,
        "Pentium III should degrade: {:.1} -> {:.1}",
        idle.tps(),
        loaded.tps()
    );
}

#[test]
fn fig5_xeon_degrades_gradually() {
    let platform = xeon();
    let idle = run_cell(&platform, Scenario::S2, 1000, 0.0);
    let loaded = run_cell(&platform, Scenario::S2, 1000, 784.0);
    let ratio = loaded.tps() / idle.tps();
    assert!(
        (0.4..0.98).contains(&ratio),
        "Xeon degradation should be gradual, got ratio {ratio:.2}"
    );
}

#[test]
fn fig5_ixp_is_flat_under_line_rate_cross_traffic() {
    // "The network processor router uses completely independent
    // processing resources for forwarding and thus can achieve the
    // same BGP processing performance ... for 1 Gbps of cross-traffic."
    let platform = ixp2400();
    let idle = run_cell(&platform, Scenario::S6, 600, 0.0);
    let loaded = run_cell(&platform, Scenario::S6, 600, 940.0);
    let ratio = loaded.tps() / idle.tps();
    assert!(
        (0.97..=1.03).contains(&ratio),
        "IXP2400 must be unaffected by cross traffic, got ratio {ratio:.3}"
    );
}

#[test]
fn fig5_cisco_large_packets_collapse_small_stay_flat() {
    let platform = cisco3620();
    let large_idle = run_cell(&platform, Scenario::S2, 1000, 0.0);
    let large_loaded = run_cell(&platform, Scenario::S2, 1000, 75.0);
    assert!(
        large_loaded.tps() < large_idle.tps() / 3.0,
        "Cisco large packets must collapse near line rate: {:.1} -> {:.1}",
        large_idle.tps(),
        large_loaded.tps()
    );
    let small_idle = run_cell(&platform, Scenario::S1, 60, 0.0);
    let small_loaded = run_cell(&platform, Scenario::S1, 60, 75.0);
    let ratio = small_loaded.tps() / small_idle.tps();
    assert!(
        ratio > 0.8,
        "Cisco small packets must stay flat, got ratio {ratio:.2}"
    );
}

#[test]
fn fig6_fib_churn_causes_forwarding_loss() {
    // Fig. 6(c): during Phase 3 of Scenario 8 under 300 Mbps of
    // cross-traffic, FIB updates block the kernel forwarding path and
    // packets drop — but most traffic still gets through.
    use bgpbench::models::{SimRouter, SPEAKER_1, SPEAKER_2};
    use bgpbench::speaker::{workload, SpeakerScript, TableGenerator};
    use bgpbench::wire::Asn;
    use std::net::Ipv4Addr;

    let mut router = SimRouter::new(&pentium3());
    router.set_cross_traffic_mbps(300.0);
    let table = TableGenerator::new(7).generate(800);
    let spec = |asn: u16, path_len: usize, hop: u8| workload::AnnounceSpec {
        speaker_asn: Asn(asn),
        path_len,
        next_hop: Ipv4Addr::new(10, 0, 0, hop),
        prefixes_per_update: 500,
        seed: 7,
    };
    router.load_script(
        SPEAKER_1,
        SpeakerScript::new(workload::announcements(&table, &spec(65001, 4, 2))),
    );
    router.run_until_transactions(800, 600.0).unwrap();
    let before = router.cross_summary();
    // Phase 3: replace every route (heavy FIB churn).
    router.load_script(
        SPEAKER_2,
        SpeakerScript::new(workload::announcements(&table, &spec(65002, 2, 3))),
    );
    router.run_until_transactions(1600, 600.0).unwrap();
    let after = router.cross_summary();
    let phase3_offered = after.offered_pkts - before.offered_pkts;
    let phase3_dropped = after.dropped_pkts - before.dropped_pkts;
    let loss = phase3_dropped as f64 / phase3_offered as f64;
    assert!(
        loss > 0.01,
        "phase 3 FIB churn must cause packet loss, got {loss:.4}"
    );
    assert!(
        loss < 0.5,
        "loss should be a dip, not a collapse, got {loss:.4}"
    );
}

#[test]
fn cross_traffic_never_speeds_anything_up() {
    for platform in [pentium3(), xeon(), cisco3620()] {
        let idle = run_cell(&platform, Scenario::S6, 600, 0.0);
        let half = run_cell(
            &platform,
            Scenario::S6,
            600,
            platform.cross.max_forward_mbps / 2.0,
        );
        assert!(
            half.tps() <= idle.tps() * 1.05,
            "{}: cross traffic must not increase tps",
            platform.name
        );
    }
}
