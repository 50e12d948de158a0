//! End-to-end integration across the whole workspace, exercised
//! through the `bgpbench` facade.

use std::net::Ipv4Addr;

use bgpbench::bench::{CellSpec, Scenario};
use bgpbench::fib::{Fib, NextHop};
use bgpbench::models::{all_platforms, pentium3, PlatformSpec, SimRouter, SPEAKER_1, SPEAKER_2};
use bgpbench::rib::{PeerId, PeerInfo, RibEngine};
use bgpbench::speaker::{workload, SpeakerScript, TableGenerator};
use bgpbench::wire::{Asn, Message, RouterId};

fn quick(scenario: Scenario, platform: PlatformSpec, prefixes: usize) -> CellSpec {
    CellSpec::new(scenario, platform)
        .prefixes(prefixes)
        .seed(99)
}

#[test]
fn every_platform_runs_every_scenario_to_completion() {
    for platform in all_platforms() {
        for scenario in Scenario::ALL {
            let prefixes = match scenario.packet_size() {
                bgpbench::bench::PacketSize::Small => 40,
                bgpbench::bench::PacketSize::Large => 600,
            };
            let result = quick(scenario, platform.clone(), prefixes).run();
            assert!(
                result.completed,
                "{} {} did not complete",
                platform.name, scenario
            );
            assert!(result.tps() > 0.0);
        }
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let run = || {
        let r = quick(Scenario::S8, pentium3(), 300).run();
        (r.transactions, r.elapsed_secs.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn wire_to_rib_to_fib_chain() {
    // Generate a workload, push it through wire encode/decode, into a
    // RIB engine, install the directives into a FIB, and look a
    // destination up in the result — every layer of the stack in one
    // test.
    let table = TableGenerator::new(5).generate(50);
    let updates = workload::announcements(
        &table,
        &workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(192, 0, 2, 9),
            prefixes_per_update: 25,
            seed: 5,
        },
    );

    let mut engine = RibEngine::new(Asn(65000), RouterId(1));
    let peer = engine.add_peer(PeerInfo::new(
        PeerId(1),
        Asn(65001),
        RouterId(2),
        Ipv4Addr::new(10, 0, 0, 2),
    ));
    let mut fib = Fib::new();

    for update in &updates {
        // Round-trip over the wire first.
        let bytes = Message::Update(update.clone()).encode().unwrap();
        let (decoded, _) = Message::decode(&bytes).unwrap();
        let Message::Update(decoded) = decoded else {
            panic!("expected update");
        };
        for outcome in engine.apply_update(peer, &decoded).unwrap() {
            if let Some(directive) = outcome.fib {
                match directive {
                    bgpbench::rib::FibDirective::Install { prefix, next_hop } => {
                        fib.insert(prefix, NextHop::new(next_hop, 1));
                    }
                    bgpbench::rib::FibDirective::Remove { prefix } => {
                        fib.remove(&prefix);
                    }
                }
            }
        }
    }
    assert_eq!(fib.len(), 50);

    // A destination inside the first installed prefix resolves to the
    // workload's next hop.
    let hop = fib.lookup(table[0].network()).expect("route installed");
    assert_eq!(hop.gateway(), Ipv4Addr::new(192, 0, 2, 9));
}

#[test]
fn scenario5_fib_stays_put_scenario7_fib_moves() {
    // The core distinction of the benchmark, verified through the
    // model's real FIB at the facade level.
    const SEED: u64 = 99;
    for (scenario, expect_speaker2_hop) in [(Scenario::S6, false), (Scenario::S8, true)] {
        let mut router = SimRouter::new(&pentium3());
        let table = TableGenerator::new(SEED).generate(200);
        let base = workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: 500,
            seed: SEED,
        };
        router.load_script(
            SPEAKER_1,
            SpeakerScript::new(workload::announcements(&table, &base)),
        );
        router.run_until_transactions(200, 600.0).unwrap();
        let variant = workload::AnnounceSpec {
            speaker_asn: Asn(65002),
            path_len: if expect_speaker2_hop { 2 } else { 6 },
            next_hop: Ipv4Addr::new(10, 0, 0, 3),
            prefixes_per_update: 500,
            seed: SEED + 1,
        };
        router.load_script(
            SPEAKER_2,
            SpeakerScript::new(workload::announcements(&table, &variant)),
        );
        router.run_until_transactions(400, 600.0).unwrap();
        assert_eq!(router.fib_len(), 200, "{scenario}");
        assert_eq!(router.loc_rib_len(), 200, "{scenario}");
    }
}

#[test]
fn backlog_series_expose_the_fig4_mechanism() {
    // With large packets, xorp_bgp parses far ahead of the FIB
    // installer, so deep rib/fea backlogs build; with small packets
    // TCP backpressure keeps queues shallow.
    let run = |pkt: usize| {
        let mut router = SimRouter::new(&pentium3());
        let table = TableGenerator::new(8).generate(1500);
        router.load_script(
            SPEAKER_1,
            SpeakerScript::new(workload::announcements(
                &table,
                &workload::AnnounceSpec {
                    speaker_asn: Asn(65001),
                    path_len: 3,
                    next_hop: Ipv4Addr::new(10, 0, 0, 2),
                    prefixes_per_update: pkt,
                    seed: 8,
                },
            )),
        );
        router.run_until_transactions(1500, 600.0).unwrap();
        router
            .recorder()
            .series("inflight_prefixes")
            .map(|s| s.max_value())
            .unwrap_or(0.0)
    };
    let small = run(1);
    let large = run(500);
    // Bounded inter-process queues (16 messages): with small packets
    // at most 16 prefixes are in flight; with large packets the same
    // bound holds thousands.
    assert!(small <= 16.0, "small-packet inflight {small}");
    assert!(
        large > small * 30.0,
        "large packets should hold far more prefixes in flight: {small} vs {large}"
    );
}

#[test]
fn mixed_updates_churn_through_the_pipeline() {
    // RFC 4271 allows one UPDATE to withdraw and announce at once; the
    // sliding-window churn stream leaves exactly the last window
    // installed.
    let mut router = SimRouter::new(&pentium3());
    let table = TableGenerator::new(21).generate(200);
    let updates = workload::mixed_churn(
        &table,
        &workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: 50,
            seed: 21,
        },
        50,
    );
    let transactions = workload::transaction_count(&updates) as u64;
    assert_eq!(transactions, 200 + 150);
    router.load_script(SPEAKER_1, SpeakerScript::new(updates));
    router.run_until_transactions(transactions, 600.0).unwrap();
    assert_eq!(router.fib_len(), 50);
    assert_eq!(router.loc_rib_len(), 50);
}

#[test]
fn hypothetical_platforms_scale_sanely() {
    use bgpbench::bench::CellSpec;
    use bgpbench::models::hypothetical;
    // Faster hypothetical hardware must be monotonically faster, and a
    // 1x/2-core hypothetical must equal the stock Xeon (it is one).
    let cell = |platform| CellSpec::new(Scenario::S2, platform).prefixes(600).run();
    let stock = cell(bgpbench::models::xeon());
    let same = cell(hypothetical(2, 1.0));
    assert!((stock.tps() - same.tps()).abs() < 1e-6);
    let fast = cell(hypothetical(2, 4.0));
    assert!(
        fast.tps() > stock.tps() * 3.0,
        "4x cores should be ~4x faster: {} vs {}",
        stock.tps(),
        fast.tps()
    );
}

#[test]
fn recorder_channels_cover_the_xorp_processes() {
    let mut router = SimRouter::new(&pentium3());
    let table = TableGenerator::new(1).generate(400);
    router.load_script(
        SPEAKER_1,
        SpeakerScript::new(workload::announcements(
            &table,
            &workload::AnnounceSpec {
                speaker_asn: Asn(65001),
                path_len: 3,
                next_hop: Ipv4Addr::new(10, 0, 0, 2),
                prefixes_per_update: 500,
                seed: 1,
            },
        )),
    );
    router.run_until_transactions(400, 600.0).unwrap();
    for process in ["xorp_bgp", "xorp_fea", "xorp_rib", "xorp_policy"] {
        let channel = format!("cpu:{process}");
        let series = router
            .recorder()
            .series(&channel)
            .unwrap_or_else(|| panic!("missing channel {channel}"));
        assert!(
            series.max_value() > 0.0,
            "{channel} never showed any activity"
        );
    }
}
