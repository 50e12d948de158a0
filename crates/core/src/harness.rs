//! The three-phase measurement harness for simulated platforms.

use std::net::Ipv4Addr;

use bgpbench_models::SimRouter;
use bgpbench_speaker::{workload, SpeakerScript};
use bgpbench_telemetry::{self as telemetry, SpanId};
use bgpbench_wire::Asn;

use crate::faults::FaultPlan;
use crate::plan::{self, Action, Step};
use crate::runner::CellSpec;
use crate::scenario::{BgpOperation, Scenario};
use crate::topology::{ConvergenceRun, Topology};

const SPEAKER1_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SPEAKER2_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// The AS and next hop each of the simulated router's two speakers
/// announces with (they match the peers [`SimRouter::new`] attaches).
const SPEAKERS: [(Asn, Ipv4Addr); 2] = [(Asn(65001), SPEAKER1_HOP), (Asn(65002), SPEAKER2_HOP)];

/// Session-churn knobs of a scenario run: topology size and fault
/// timing. Hold times are in simnet ticks and deliberately short next
/// to RFC 4271's 90 s, so expiry cascades fit in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Peers attached to the router under test.
    pub peers: usize,
    /// Mean spacing of storm flaps, in ticks (S9; the sweep's axis).
    pub flap_interval_ticks: u64,
    /// Session hold time in ticks (keepalive is derived as hold/3).
    pub hold_ticks: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            peers: 4,
            flap_interval_ticks: 1500,
            hold_ticks: 900,
        }
    }
}

/// The outcome of one scenario on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The platform's display name.
    pub platform: &'static str,
    /// Prefix-level transactions processed in the timed phase.
    pub transactions: u64,
    /// Simulated seconds the timed phase took.
    pub elapsed_secs: f64,
    /// Cross-traffic level during the timed phase (Mbps).
    pub cross_traffic_mbps: f64,
    /// Whether the run finished before the safety time limit.
    pub completed: bool,
    /// Full simulator ticks the whole run consumed (all phases). This
    /// is virtual cost: deterministic for a given cell, and directly
    /// comparable between serial and parallel grid executions, unlike
    /// wall-clock.
    pub virtual_ticks: u64,
}

impl ScenarioResult {
    /// Transactions per second — the benchmark's metric (paper §III.C).
    pub fn tps(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.transactions as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// Safety limit on any single simulated phase.
const PHASE_LIMIT_SECS: f64 = 7200.0;

/// Statistics over repeated runs of one scenario with varied workload
/// seeds — the benchmark's repeatability check. The paper's stated
/// goal is "repeatable performance measurements"; this quantifies how
/// repeatable the reproduction is under workload variation.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedResult {
    /// The individual runs, one per seed.
    pub runs: Vec<ScenarioResult>,
}

impl RepeatedResult {
    /// Mean transactions per second across runs.
    pub fn mean_tps(&self) -> f64 {
        self.runs.iter().map(ScenarioResult::tps).sum::<f64>() / self.runs.len() as f64
    }

    /// Lowest observed rate.
    pub fn min_tps(&self) -> f64 {
        self.runs
            .iter()
            .map(ScenarioResult::tps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Highest observed rate.
    pub fn max_tps(&self) -> f64 {
        self.runs
            .iter()
            .map(ScenarioResult::tps)
            .fold(0.0, f64::max)
    }

    /// `(max - min) / mean` — zero for perfectly repeatable results.
    pub fn relative_spread(&self) -> f64 {
        let mean = self.mean_tps();
        if mean > 0.0 {
            (self.max_tps() - self.min_tps()) / mean
        } else {
            0.0
        }
    }
}

/// Runs one benchmark cell on its simulated platform, timing only the
/// phase the scenario defines (paper §III.D: "only the appropriate
/// phase of the benchmark scenario is considered"), and hands back the
/// router for post-run inspection. Session-churn scenarios go through
/// the topology engine and report its convergence run flattened.
///
/// Setup phases always use large packets — they are not measured, and
/// the paper's methodology only constrains the timed phase's
/// packetization.
pub(crate) fn run_cell(cell: &CellSpec) -> (ScenarioResult, SimRouter) {
    assert!(cell.prefixes > 0, "scenario needs at least one prefix");
    if cell.scenario.operation() == BgpOperation::SessionChurn {
        let (run, router) = run_churn(cell);
        let result = ScenarioResult {
            scenario: run.scenario,
            platform: run.platform,
            transactions: run.outcome.transactions,
            elapsed_secs: router.now_secs(),
            cross_traffic_mbps: cell.cross_traffic_mbps,
            completed: run.outcome.converged,
            virtual_ticks: router.ticks_elapsed(),
        };
        return (result, router);
    }
    let mut router = SimRouter::new(&cell.platform);
    let result = drive(&mut router, cell);
    (result, router)
}

/// Runs a session-churn cell (S9–S12) through the topology engine and
/// returns its full convergence row.
pub(crate) fn run_churn(cell: &CellSpec) -> (ConvergenceRun, SimRouter) {
    let scenario = cell.scenario;
    let churn = scenario
        .churn()
        .unwrap_or_else(|| panic!("{scenario} is not a session-churn scenario"));
    let plan = FaultPlan::for_churn(
        churn,
        cell.seed,
        cell.churn.peers,
        cell.churn.flap_interval_ticks,
        cell.churn.hold_ticks,
    );
    let mut topology = Topology::new(cell, plan);
    let _span = telemetry::span(SpanId::Phase1);
    let outcome = topology.run_to_convergence();
    let run = ConvergenceRun {
        scenario,
        platform: cell.platform.name,
        peers: cell.churn.peers,
        prefixes: cell.prefixes,
        seed: cell.seed,
        flap_interval_ticks: cell.churn.flap_interval_ticks,
        outcome,
    };
    (run, topology.into_router())
}

/// The simulated executor of a scenario's [`plan::phase_plan`]: each
/// step loads a speaker script or queues an export and runs the router
/// until the step's transactions are through.
fn drive(router: &mut SimRouter, cell: &CellSpec) -> ScenarioResult {
    let scenario = cell.scenario;
    // The workload source: a cell override wins; otherwise the
    // scenario's registered kind picks between the 2007-era synthetic
    // generator (S1–S15) and the modern Internet generator (S16–S18).
    let workload_spec = cell
        .workload
        .clone()
        .unwrap_or_else(|| scenario.workload().spec());
    let mut source = workload_spec
        .source(cell.seed)
        .unwrap_or_else(|e| panic!("workload source failed to load: {e}"));
    // Replay sources may hold fewer prefixes than requested; phase
    // targets follow what the source actually produced.
    let table = source.table(cell.prefixes);
    assert!(
        !table.is_empty(),
        "workload source {} produced an empty table",
        source.describe()
    );
    router.set_cross_traffic_mbps(cell.cross_traffic_mbps);
    // A cell override beats the scenario's own profile; both absent
    // leaves the engine's default permit-all maps in place, which is
    // the paper's unpoliced configuration.
    if let Some(profile) = cell.policy.or_else(|| scenario.policy()) {
        router.set_import_policy(profile.import_map());
        router.set_export_policy(profile.export_map());
    }
    // The router's counters are cumulative, so each step runs to the
    // running total of what has been sent (or exported) so far.
    let mut sent = 0;
    let mut exported = 0;
    let mut run_step = |step: &Step| -> (u64, Option<f64>) {
        let _span = begin_phase(router, step.phase);
        match step.action {
            Action::Send(traffic) => {
                let updates = traffic.generate(&mut *source, &table);
                let transactions = workload::transaction_count(&updates) as u64;
                assert!(
                    transactions > 0,
                    "workload source {} produced an empty update stream for phase {}",
                    source.describe(),
                    step.phase
                );
                router.load_script(step.speaker, SpeakerScript::new(updates));
                sent += transactions;
                (
                    transactions,
                    router.run_until_transactions(sent, PHASE_LIMIT_SECS),
                )
            }
            Action::Export { per_update } => {
                router.queue_export(step.speaker, per_update);
                exported += table.len() as u64;
                (
                    table.len() as u64,
                    router.run_until_exports(exported, PHASE_LIMIT_SECS),
                )
            }
        }
    };
    let steps = plan::phase_plan(scenario, cell.seed, cell.prefixes_per_update(), SPEAKERS);
    // Churn scenarios have no phases; `run_cell` routes them through
    // the topology engine.
    let (timed, setup) = steps.split_last().expect("a phased scenario");
    for step in setup {
        run_step(step).1.expect("setup phase must complete");
    }
    let (transactions, elapsed) = run_step(timed);
    ScenarioResult {
        scenario,
        platform: cell.platform.name,
        transactions,
        elapsed_secs: elapsed.unwrap_or(PHASE_LIMIT_SECS),
        cross_traffic_mbps: cell.cross_traffic_mbps,
        completed: elapsed.is_some(),
        virtual_ticks: router.ticks_elapsed(),
    }
}

/// Marks a phase boundary on the router's recorder and on the trace
/// timeline (the instant carries the virtual tick at which the phase
/// began), and opens the phase's span.
fn begin_phase(router: &mut SimRouter, phase: u64) -> Option<telemetry::SpanGuard> {
    let (label, span) = match phase {
        1 => ("phase 1", SpanId::Phase1),
        2 => ("phase 2", SpanId::Phase2),
        _ => ("phase 3", SpanId::Phase3),
    };
    router.mark(label);
    telemetry::trace_instant(
        bgpbench_telemetry::TraceEventId::PhaseMark,
        phase,
        router.ticks_elapsed(),
    );
    telemetry::span(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_models::{pentium3, xeon, PlatformSpec};
    use bgpbench_speaker::TableGenerator;

    use crate::policy::PolicyProfile;

    fn quick(scenario: Scenario, platform: PlatformSpec, prefixes: usize) -> CellSpec {
        CellSpec::new(scenario, platform).prefixes(prefixes).seed(1)
    }

    #[test]
    fn all_scenarios_complete_on_the_xeon() {
        for scenario in Scenario::ALL {
            let prefixes = match scenario.packet_size() {
                crate::PacketSize::Small => 150,
                crate::PacketSize::Large => 1000,
            };
            let result = quick(scenario, xeon(), prefixes).run();
            assert!(result.completed, "{scenario} timed out");
            assert!(result.tps() > 0.0, "{scenario} produced zero tps");
        }
    }

    #[test]
    fn policy_scenarios_complete_on_the_xeon() {
        for scenario in Scenario::POLICY {
            let result = quick(scenario, xeon(), 1000).run();
            assert!(result.completed, "{scenario} timed out");
            assert!(result.tps() > 0.0, "{scenario} produced zero tps");
        }
    }

    #[test]
    fn filter_churn_rejects_roughly_half_of_the_fib_rewrites() {
        // S13 is S8 plus an import filter that denies Speaker 2's
        // routes in 0.0.0.0/1 — about half the synthetic table. The
        // rejected half must keep Speaker 1's next hop; the permitted
        // half flips to Speaker 2.
        let (result, router) = quick(Scenario::S13, xeon(), 1000).run_with_router();
        assert!(result.completed);
        let table = TableGenerator::new(1).generate(1000);
        let from_speaker2 = table
            .iter()
            .filter(|p| router.fib_gateway(p) == Some(SPEAKER2_HOP))
            .count();
        let from_speaker1 = table
            .iter()
            .filter(|p| router.fib_gateway(p) == Some(SPEAKER1_HOP))
            .count();
        assert_eq!(from_speaker1 + from_speaker2, 1000);
        assert!(
            (300..=700).contains(&from_speaker1),
            "filter should hold ~half the table on Speaker 1: {from_speaker1}"
        );
        // The unpoliced variant hands the whole table to Speaker 2.
        let (_, unpoliced) = quick(Scenario::S8, xeon(), 1000).run_with_router();
        let still_speaker1 = table
            .iter()
            .filter(|p| unpoliced.fib_gateway(p) == Some(SPEAKER1_HOP))
            .count();
        assert_eq!(still_speaker1, 0);
    }

    #[test]
    fn med_oscillation_ends_back_on_speaker_one() {
        // Round 1 (MED 50) lifts Speaker 2's routes via LOCAL_PREF;
        // round 2 (MED 0) drops them back to the router-ID tie-break,
        // which Speaker 1 wins — so the final FIB points at Speaker 1
        // again even though every round rewrote it.
        let (result, router) = quick(Scenario::S15, xeon(), 500).run_with_router();
        assert!(result.completed);
        assert_eq!(result.transactions, 2 * 500);
        let table = TableGenerator::new(1).generate(500);
        assert!(table
            .iter()
            .all(|p| router.fib_gateway(p) == Some(SPEAKER1_HOP)));
    }

    #[test]
    fn export_rewrite_is_slower_than_the_plain_export_phase() {
        // S14 times the same Phase-2 export as S6, but through a
        // one-entry export map — on the process-model platforms the
        // extra evaluation pass must cost measurable time.
        let cell = quick(Scenario::S14, xeon(), 1000);
        let s14 = cell.run();
        assert!(s14.completed);
        assert_eq!(s14.transactions, 1000);
        // FilterChurn's export side is permit-all, and its import
        // filter never matches Speaker 1's routes, so this override
        // isolates the export-map cost.
        let baseline = cell.policy(PolicyProfile::FilterChurn).run();
        assert!(
            s14.elapsed_secs > baseline.elapsed_secs,
            "export map must add cost: {} vs {}",
            s14.elapsed_secs,
            baseline.elapsed_secs
        );
    }

    #[test]
    fn cell_policy_override_beats_the_scenario_profile() {
        // S8 with the FilterChurn profile attached must match S13
        // (same operation, same packetization, same maps).
        let s13 = quick(Scenario::S13, xeon(), 800).run();
        let overridden = quick(Scenario::S8, xeon(), 800)
            .policy(PolicyProfile::FilterChurn)
            .run();
        assert_eq!(s13.transactions, overridden.transactions);
        assert!((s13.elapsed_secs - overridden.elapsed_secs).abs() < 1e-9);
        assert_eq!(s13.virtual_ticks, overridden.virtual_ticks);
    }

    #[test]
    fn no_change_scenarios_are_fastest_on_pentium3() {
        let s2 = quick(Scenario::S2, pentium3(), 500).run();
        let s6 = quick(Scenario::S6, pentium3(), 500).run();
        let s8 = quick(Scenario::S8, pentium3(), 500).run();
        assert!(s6.tps() > s2.tps(), "s6 {} vs s2 {}", s6.tps(), s2.tps());
        assert!(s2.tps() > s8.tps(), "s2 {} vs s8 {}", s2.tps(), s8.tps());
    }

    #[test]
    fn the_router_retains_final_state_for_inspection() {
        let (result, router) = quick(Scenario::S2, pentium3(), 300).run_with_router();
        assert_eq!(result.transactions, 300);
        assert_eq!(router.fib_len(), 300);
        assert!(router.recorder().mark_time("phase 1").is_some());
    }

    #[test]
    fn cross_traffic_reduces_tps() {
        let cell = quick(Scenario::S2, pentium3(), 500);
        let idle = cell.run();
        let loaded = cell.cross_traffic(300.0).run();
        assert!(
            loaded.tps() < idle.tps() * 0.95,
            "cross traffic must reduce tps: {} vs {}",
            idle.tps(),
            loaded.tps()
        );
    }

    #[test]
    #[should_panic(expected = "at least one prefix")]
    fn zero_prefixes_panics() {
        let _ = quick(Scenario::S1, xeon(), 0).run();
    }

    #[test]
    fn repeated_runs_are_tightly_clustered() {
        // The benchmark's repeatability claim: across five different
        // synthetic tables, the measured rate varies by under 5 %.
        let repeated = quick(Scenario::S2, pentium3(), 500).run_repeated(5);
        assert_eq!(repeated.runs.len(), 5);
        assert!(repeated.mean_tps() > 0.0);
        assert!(repeated.min_tps() <= repeated.mean_tps());
        assert!(repeated.mean_tps() <= repeated.max_tps());
        let spread = repeated.relative_spread();
        assert!(
            spread < 0.05,
            "benchmark not repeatable: spread {spread:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_panics() {
        let _ = quick(Scenario::S2, xeon(), 10).run_repeated(0);
    }
}
