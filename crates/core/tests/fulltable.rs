//! Internet-scale workload scenarios (S16–S18): quick-size smoke
//! runs, serial/parallel grid determinism, and the `WorkloadSpec`
//! override path (including MRT replay driving the harness).

use std::net::Ipv4Addr;
use std::sync::Arc;

use bgpbench_core::{CellSpec, GridRunner, Scenario, WorkloadKind, WorkloadSpec};
use bgpbench_models::xeon;
use bgpbench_wire::mrt::{self, MrtPeer, PeerIndexTable, RibEntry, RibPrefix};
use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute, Prefix, RouterId};

/// Quick sizing for the full-table scenarios — same workload shape as
/// the 1M-prefix runs, scaled down to test time.
fn quick(scenario: Scenario) -> CellSpec {
    CellSpec::new(scenario, xeon()).prefixes(2000).seed(7)
}

#[test]
fn fulltable_scenarios_complete_at_quick_size() {
    for scenario in Scenario::FULLTABLE {
        assert_eq!(scenario.workload(), WorkloadKind::Modern);
        let result = quick(scenario).run();
        assert!(result.completed, "{scenario} timed out");
        assert!(result.tps() > 0.0, "{scenario} produced zero tps");
        assert!(
            result.transactions >= 1000,
            "{scenario} measured too few transactions: {}",
            result.transactions
        );
    }
}

#[test]
fn fulltable_grid_is_bit_identical_serial_vs_parallel() {
    let cells: Vec<CellSpec> = Scenario::FULLTABLE
        .into_iter()
        .flat_map(|s| [quick(s).seed(7), quick(s).seed(8)])
        .collect();
    let serial: Vec<_> = GridRunner::new(1)
        .run_cells(&cells)
        .into_iter()
        .map(|run| run.result.expect("cell must complete"))
        .collect();
    let parallel: Vec<_> = GridRunner::new(8)
        .run_cells(&cells)
        .into_iter()
        .map(|run| run.result.expect("cell must complete"))
        .collect();
    assert_eq!(
        serial, parallel,
        "thread count must never change a full-table result"
    );
}

#[test]
fn repeated_modern_runs_are_deterministic() {
    let cell = CellSpec::new(Scenario::S17, xeon()).prefixes(1500).seed(42);
    let first = cell.run();
    let second = cell.run();
    assert_eq!(first, second, "same seed must reproduce the same run");
}

#[test]
fn workload_override_swaps_the_generator_on_a_classic_scenario() {
    // S2 defaults to the 2007-era classic table; the override drives
    // it from the modern generator instead. Both must complete and
    // measure the full requested table.
    let classic = quick(Scenario::S2).run();
    let modern = quick(Scenario::S2).workload(WorkloadSpec::Modern).run();
    assert!(classic.completed && modern.completed);
    assert_eq!(classic.transactions, 2000);
    assert_eq!(modern.transactions, 2000);
}

/// A minimal TABLE_DUMP_V2 dump with `prefixes` RIB entries.
fn tiny_dump(prefixes: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    let next_hop = Ipv4Addr::new(10, 0, 0, 2);
    PeerIndexTable {
        collector_id: RouterId(0xC000_0201),
        view_name: String::new(),
        peers: vec![MrtPeer {
            bgp_id: RouterId(0x0A00_0002),
            asn: Asn(65001),
            addr: Some(next_hop),
        }],
    }
    .encode(1_186_617_600, &mut out);
    for (seq, text) in prefixes.iter().enumerate() {
        RibPrefix {
            sequence: seq as u32,
            prefix: text.parse::<Prefix>().expect("test prefix"),
            entries: vec![RibEntry {
                peer_index: 0,
                originated: 1_186_610_000,
                attributes: vec![
                    PathAttribute::Origin(Origin::Igp),
                    PathAttribute::AsPath(AsPath::from_sequence([Asn(65001), Asn(3356)])),
                    PathAttribute::NextHop(next_hop),
                ],
            }],
        }
        .encode(1_186_617_600, &mut out);
    }
    out
}

#[test]
fn mrt_replay_sizes_the_run_from_the_dump_not_the_request() {
    let dump = tiny_dump(&[
        "198.51.100.0/24",
        "203.0.113.0/24",
        "192.0.2.0/25",
        "198.18.0.0/24",
        "198.19.0.0/24",
    ]);
    // Sanity: the dump decodes (1 peer index + 5 RIB records).
    assert_eq!(mrt::MrtReader::new(&dump).count(), 6);
    let result = CellSpec::new(Scenario::S1, xeon())
        .prefixes(1000) // asks for far more than the dump holds
        .seed(7)
        .workload(WorkloadSpec::MrtBytes(Arc::new(dump)))
        .run();
    assert!(result.completed);
    // Phase targets follow the dump's actual table size.
    assert_eq!(result.transactions, 5);
}
