//! Golden pin of every registered scenario on every platform at tiny
//! sizes. Table III's golden CSV covers S1–S8 only, and the S9–S18
//! determinism gates compare a run with itself, so a change that moved
//! drop/reorder/purge or policy/train behaviour identically in both
//! runs would pass them; this file compares against committed numbers.
//!
//! The rows are cycle-model outputs, so they are exact. Regenerate
//! after an intentional model change with:
//! `cargo test -p bgpbench-core --test golden_registry -- --ignored regenerate`

use std::path::PathBuf;

use bgpbench_core::{
    CellSpec, ChurnKind, ConvergenceOutcome, FaultAction, FaultPlan, PacketSize, Scenario, Topology,
};
use bgpbench_models::all_platforms;

const SEED: u64 = 7;
const SMALL_PACKET_PREFIXES: usize = 150;
const LARGE_PACKET_PREFIXES: usize = 1000;
const CHURN_PREFIXES: usize = 120;
const CHURN_PEERS: usize = 3;
const CHURN_HOLD_TICKS: u64 = 400;
const CHURN_FLAP_INTERVAL: u64 = 800;
/// Packetization of the extra flap-storm rows: at the scenario's own
/// 500 prefixes per UPDATE a tiny table is one message, which a
/// reordering link cannot swap.
const STORM_PREFIXES_PER_UPDATE: usize = 10;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
        .join("golden")
        .join("registry_quick.csv")
}

fn churn_columns(outcome: &ConvergenceOutcome) -> String {
    format!(
        "{},{},{},{},{},{}",
        outcome.transactions,
        outcome.converged,
        outcome.ticks,
        outcome.flaps,
        outcome.duplicate_updates,
        outcome.purged_prefixes
    )
}

/// The storm plan the extra rows run; it must carry both wire faults
/// or the rows pin nothing the registry rows do not. (A swap of two
/// equal-sized messages for disjoint prefixes costs the same either
/// way, so these rows pin *that* reordering runs, and dropping in full;
/// what a swap does to the tables is pinned in `models::router`.)
fn storm_plan() -> FaultPlan {
    let plan = FaultPlan::for_churn(
        ChurnKind::FlapStorm,
        SEED,
        CHURN_PEERS,
        CHURN_FLAP_INTERVAL,
        CHURN_HOLD_TICKS,
    );
    let has = |wanted: fn(&FaultAction) -> bool| plan.events().iter().any(|e| wanted(&e.action));
    assert!(has(|a| matches!(a, FaultAction::Drop { .. })));
    assert!(has(|a| matches!(a, FaultAction::Reorder { .. })));
    plan
}

fn registry_csv() -> String {
    let mut out = String::from(
        "scenario,platform,transactions,completed,virtual_ticks,\
         flaps,duplicate_updates,purged_prefixes\n",
    );
    for scenario in Scenario::registered() {
        for platform in all_platforms() {
            let name = platform.name;
            let cell = CellSpec::new(scenario, platform).seed(SEED);
            let columns = if scenario.is_fault() {
                let run = cell
                    .prefixes(CHURN_PREFIXES)
                    .peers(CHURN_PEERS)
                    .hold_ticks(CHURN_HOLD_TICKS)
                    .flap_interval(CHURN_FLAP_INTERVAL)
                    .run_churn();
                churn_columns(&run.outcome)
            } else {
                let prefixes = match scenario.packet_size() {
                    PacketSize::Small => SMALL_PACKET_PREFIXES,
                    PacketSize::Large => LARGE_PACKET_PREFIXES,
                };
                let result = cell.prefixes(prefixes).run();
                format!(
                    "{},{},{},,,",
                    result.transactions, result.completed, result.virtual_ticks
                )
            };
            out.push_str(&format!("{},{name},{columns}\n", scenario.number()));
        }
    }
    // The flap storm again with many messages per table, so its Drop
    // and Reorder events act on scripts that are mid-flight.
    for platform in all_platforms() {
        let name = platform.name;
        let cell = CellSpec::new(Scenario::S9, platform)
            .peers(CHURN_PEERS)
            .prefixes(SMALL_PACKET_PREFIXES)
            .seed(SEED)
            .hold_ticks(CHURN_HOLD_TICKS)
            .packetization(STORM_PREFIXES_PER_UPDATE);
        let outcome = Topology::new(&cell, storm_plan()).run_to_convergence();
        out.push_str(&format!(
            "9@{STORM_PREFIXES_PER_UPDATE},{name},{}\n",
            churn_columns(&outcome)
        ));
    }
    out
}

#[test]
fn every_registered_scenario_matches_the_golden_csv() {
    let golden = std::fs::read_to_string(golden_path()).expect(
        "missing results/golden/registry_quick.csv — regenerate with \
         `cargo test -p bgpbench-core --test golden_registry -- --ignored regenerate`",
    );
    let current = registry_csv();
    for (want, got) in golden.lines().zip(current.lines()) {
        assert_eq!(got, want, "registry row differs from the golden CSV");
    }
    assert_eq!(current, golden);
}

#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate() {
    std::fs::write(golden_path(), registry_csv()).unwrap();
}
