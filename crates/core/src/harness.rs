//! The three-phase measurement harness for simulated platforms.

use std::net::Ipv4Addr;

use bgpbench_models::{PlatformSpec, SimRouter};
use bgpbench_speaker::{workload, SpeakerScript, WorkloadSpec};
use bgpbench_telemetry::{self as telemetry, EventKind, SpanId};
use bgpbench_wire::Asn;

use crate::faults::FaultPlan;
use crate::plan::{self, Action, Step};
use crate::policy::PolicyProfile;
use crate::scenario::{BgpOperation, Scenario};
use crate::topology::{ConvergenceRun, Topology, TopologyConfig};

const SPEAKER1_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SPEAKER2_HOP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// The AS and next hop each of the simulated router's two speakers
/// announces with (they match the peers [`SimRouter::new`] attaches).
const SPEAKERS: [(Asn, Ipv4Addr); 2] = [(Asn(65001), SPEAKER1_HOP), (Asn(65002), SPEAKER2_HOP)];

/// Parameters of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Routing-table size (prefixes injected and measured). Workload
    /// sources that replay a fixed dump may yield fewer prefixes; the
    /// harness then sizes its phase targets from what the source
    /// actually produced.
    pub prefixes: usize,
    /// Workload seed (same seed → identical run).
    pub seed: u64,
    /// Cross-traffic offered load during the *timed* phase, in Mbps.
    pub cross_traffic_mbps: f64,
    /// Topology and fault sizing for session-churn scenarios (S9–S12);
    /// ignored by the paper's eight.
    pub churn: ChurnConfig,
    /// Policy profile override: `Some` attaches that profile's
    /// route-maps to the router under test regardless of scenario
    /// (policy-on/off A-B runs); `None` uses the scenario's own
    /// profile, if any.
    pub policy: Option<PolicyProfile>,
    /// RIB shard count on the router under test (host-side
    /// parallelism). Results are bit-identical for every value; 1 (the
    /// default) is the single-threaded engine.
    pub rib_shards: usize,
    /// Workload-source override: `Some` drives the run from that
    /// source (synthetic classic/modern table or an MRT replay)
    /// regardless of scenario; `None` uses the scenario's registered
    /// workload kind (classic for S1–S15, modern for S16–S18).
    pub workload: Option<WorkloadSpec>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            prefixes: 4000,
            seed: 2007,
            cross_traffic_mbps: 0.0,
            churn: ChurnConfig::default(),
            policy: None,
            rib_shards: 1,
            workload: None,
        }
    }
}

impl ScenarioConfig {
    /// A fluent builder over the default configuration, mirroring
    /// [`crate::CellSpec`]'s API:
    ///
    /// ```
    /// use bgpbench_core::ScenarioConfig;
    ///
    /// let config = ScenarioConfig::builder()
    ///     .prefixes(1000)
    ///     .seed(7)
    ///     .rib_shards(4)
    ///     .build();
    /// assert_eq!(config.prefixes, 1000);
    /// assert_eq!(config.rib_shards, 4);
    /// ```
    pub fn builder() -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            config: ScenarioConfig::default(),
        }
    }
}

/// Builder for [`ScenarioConfig`]; see [`ScenarioConfig::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioConfigBuilder {
    config: ScenarioConfig,
}

impl ScenarioConfigBuilder {
    /// Sets the routing-table size (prefixes injected and measured).
    pub fn prefixes(mut self, prefixes: usize) -> Self {
        self.config.prefixes = prefixes;
        self
    }

    /// Sets the workload seed (same seed → identical run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the cross-traffic offered load during the timed phase.
    pub fn cross_traffic(mut self, mbps: f64) -> Self {
        self.config.cross_traffic_mbps = mbps;
        self
    }

    /// Sets the churn knobs for session-churn scenarios (S9–S12).
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.config.churn = churn;
        self
    }

    /// Attaches a policy profile's route-maps to the router under
    /// test, overriding the scenario's own profile.
    pub fn policy(mut self, profile: PolicyProfile) -> Self {
        self.config.policy = Some(profile);
        self
    }

    /// Sets the RIB shard count on the router under test.
    pub fn rib_shards(mut self, shards: usize) -> Self {
        self.config.rib_shards = shards;
        self
    }

    /// Drives the run from the given workload source instead of the
    /// scenario's registered kind.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.config.workload = Some(spec);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ScenarioConfig {
        self.config
    }
}

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

/// Runs a scenario `repetitions` times with distinct workload seeds
/// (`config.seed`, `config.seed + 1`, …) and collects the results.
///
/// # Panics
///
/// Panics if `repetitions` is zero or `config.prefixes` is zero.
pub fn run_scenario_repeated(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
    repetitions: usize,
) -> RepeatedResult {
    assert!(repetitions > 0, "need at least one repetition");
    let runs = (0..repetitions)
        .map(|rep| {
            run_scenario(
                platform,
                scenario,
                &ScenarioConfig {
                    seed: config.seed + rep as u64,
                    ..config.clone()
                },
            )
        })
        .collect();
    RepeatedResult { runs }
}

/// Runs one benchmark scenario on a simulated platform, timing only
/// the phase the scenario defines (paper §III.D: "only the appropriate
/// phase of the benchmark scenario is considered").
///
/// Setup phases always use large packets — they are not measured, and
/// the paper's methodology only constrains the timed phase's
/// packetization.
///
/// # Panics
///
/// Panics if `config.prefixes` is zero or an unmeasured setup phase
/// fails to complete within the safety limit.
pub fn run_scenario(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
) -> ScenarioResult {
    run_scenario_with_router(platform, scenario, config).0
}

/// Runs a scenario and hands back the router for post-run inspection
/// (figure experiments need the recorder and phase marks).
pub(crate) fn run_scenario_with_router(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
) -> (ScenarioResult, SimRouter) {
    run_scenario_with_packetization(platform, scenario, config, None)
}

/// Like [`run_scenario_with_router`], but with the timed phase's
/// prefixes-per-UPDATE overridden (the packet-size extension sweeps
/// measure packetizations between the paper's small/large endpoints).
pub(crate) fn run_scenario_with_packetization(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
    prefixes_per_update: Option<usize>,
) -> (ScenarioResult, SimRouter) {
    assert!(config.prefixes > 0, "scenario needs at least one prefix");
    if scenario.operation() == BgpOperation::SessionChurn {
        let (run, router) = run_churn_with_router(platform, scenario, config, prefixes_per_update);
        let result = ScenarioResult {
            scenario: run.scenario,
            platform: run.platform,
            transactions: run.outcome.transactions,
            elapsed_secs: router.now_secs(),
            cross_traffic_mbps: config.cross_traffic_mbps,
            completed: run.outcome.converged,
            virtual_ticks: router.ticks_elapsed(),
        };
        return (result, router);
    }
    let mut router = SimRouter::new(platform);
    let result = drive(&mut router, platform, scenario, config, prefixes_per_update);
    (result, router)
}

/// Safety limit on a churn run, in ticks (10 simulated minutes).
const CHURN_LIMIT_TICKS: u64 = 600_000;

/// Runs a session-churn scenario (S9–S12) through the topology engine
/// and returns its full convergence row.
///
/// # Panics
///
/// Panics if `scenario` is not a fault scenario or `config.prefixes`
/// is zero.
pub fn run_churn(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
) -> ConvergenceRun {
    run_churn_with_router(platform, scenario, config, None).0
}

pub(crate) fn run_churn_with_router(
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
    prefixes_per_update: Option<usize>,
) -> (ConvergenceRun, SimRouter) {
    let churn = scenario
        .churn()
        .unwrap_or_else(|| panic!("{scenario} is not a session-churn scenario"));
    let topology_config = TopologyConfig {
        peers: config.churn.peers,
        prefixes: config.prefixes,
        seed: config.seed,
        hold_ticks: config.churn.hold_ticks,
        prefixes_per_update: prefixes_per_update
            .unwrap_or_else(|| scenario.packet_size().prefixes_per_update()),
        limit_ticks: CHURN_LIMIT_TICKS,
        rib_shards: config.rib_shards,
    };
    let plan = FaultPlan::for_churn(
        churn,
        config.seed,
        topology_config.peers,
        config.churn.flap_interval_ticks,
        topology_config.hold_ticks,
    );
    let mut topology = Topology::new(platform, &topology_config, plan);
    topology.set_cross_traffic_mbps(config.cross_traffic_mbps);
    let _span = telemetry::span(SpanId::Phase1);
    let outcome = topology.run_to_convergence();
    let run = ConvergenceRun {
        scenario,
        platform: platform.name,
        peers: topology_config.peers,
        prefixes: topology_config.prefixes,
        seed: topology_config.seed,
        flap_interval_ticks: config.churn.flap_interval_ticks,
        outcome,
    };
    (run, topology.into_router())
}

/// The simulated executor of a scenario's [`plan::phase_plan`]: each
/// step loads a speaker script or queues an export and runs the router
/// until the step's transactions are through.
fn drive(
    router: &mut SimRouter,
    platform: &PlatformSpec,
    scenario: Scenario,
    config: &ScenarioConfig,
    prefixes_per_update: Option<usize>,
) -> ScenarioResult {
    // The workload source: a config override wins; otherwise the
    // scenario's registered kind picks between the 2007-era synthetic
    // generator (S1–S15) and the modern Internet generator (S16–S18).
    let workload_spec = config
        .workload
        .clone()
        .unwrap_or_else(|| scenario.workload().spec());
    let mut source = workload_spec
        .source(config.seed)
        .unwrap_or_else(|e| panic!("workload source failed to load: {e}"));
    // Replay sources may hold fewer prefixes than requested; phase
    // targets follow what the source actually produced.
    let table = source.table(config.prefixes);
    assert!(
        !table.is_empty(),
        "workload source {} produced an empty table",
        source.describe()
    );
    let pkt = prefixes_per_update.unwrap_or_else(|| scenario.packet_size().prefixes_per_update());
    // Shard count must be set while the RIB is still empty.
    router.set_rib_shards(config.rib_shards);
    router.set_cross_traffic_mbps(config.cross_traffic_mbps);
    // A config override beats the scenario's own profile; both absent
    // leaves the engine's default permit-all maps in place, which is
    // the paper's unpoliced configuration.
    if let Some(profile) = config.policy.or_else(|| scenario.policy()) {
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
    let steps = plan::phase_plan(scenario, config.seed, pkt, SPEAKERS);
    // Churn scenarios have no phases; `run_scenario_with_packetization`
    // routes them through the topology engine.
    let (timed, setup) = steps.split_last().expect("a phased scenario");
    for step in setup {
        run_step(step).1.expect("setup phase must complete");
    }
    let (transactions, elapsed) = run_step(timed);
    ScenarioResult {
        scenario,
        platform: platform.name,
        transactions,
        elapsed_secs: elapsed.unwrap_or(PHASE_LIMIT_SECS),
        cross_traffic_mbps: config.cross_traffic_mbps,
        completed: elapsed.is_some(),
        virtual_ticks: router.ticks_elapsed(),
    }
}

/// Marks a phase boundary on the router's recorder and in the
/// telemetry journal (the journal entry carries the virtual tick at
/// which the phase began), and opens the phase's span.
fn begin_phase(router: &mut SimRouter, phase: u64) -> Option<telemetry::SpanGuard> {
    let (label, span) = match phase {
        1 => ("phase 1", SpanId::Phase1),
        2 => ("phase 2", SpanId::Phase2),
        _ => ("phase 3", SpanId::Phase3),
    };
    router.mark(label);
    telemetry::event(EventKind::PhaseStart, phase, router.ticks_elapsed());
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
    use bgpbench_models::{pentium3, xeon};
    use bgpbench_speaker::TableGenerator;

    fn quick(prefixes: usize) -> ScenarioConfig {
        ScenarioConfig {
            prefixes,
            seed: 1,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn all_scenarios_complete_on_the_xeon() {
        for scenario in Scenario::ALL {
            let prefixes = match scenario.packet_size() {
                crate::PacketSize::Small => 150,
                crate::PacketSize::Large => 1000,
            };
            let result = run_scenario(&xeon(), scenario, &quick(prefixes));
            assert!(result.completed, "{scenario} timed out");
            assert!(result.tps() > 0.0, "{scenario} produced zero tps");
        }
    }

    #[test]
    fn policy_scenarios_complete_on_the_xeon() {
        for scenario in Scenario::POLICY {
            let result = run_scenario(&xeon(), scenario, &quick(1000));
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
        let config = quick(1000);
        let (result, router) = run_scenario_with_router(&xeon(), Scenario::S13, &config);
        assert!(result.completed);
        let table = TableGenerator::new(config.seed).generate(config.prefixes);
        let from_speaker2 = table
            .iter()
            .filter(|p| router.fib_gateway(p) == Some(SPEAKER2_HOP))
            .count();
        let from_speaker1 = table
            .iter()
            .filter(|p| router.fib_gateway(p) == Some(SPEAKER1_HOP))
            .count();
        assert_eq!(from_speaker1 + from_speaker2, config.prefixes);
        assert!(
            (300..=700).contains(&from_speaker1),
            "filter should hold ~half the table on Speaker 1: {from_speaker1}"
        );
        // The unpoliced variant hands the whole table to Speaker 2.
        let (_, unpoliced) = run_scenario_with_router(&xeon(), Scenario::S8, &config);
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
        let config = quick(500);
        let (result, router) = run_scenario_with_router(&xeon(), Scenario::S15, &config);
        assert!(result.completed);
        assert_eq!(result.transactions, 2 * config.prefixes as u64);
        let table = TableGenerator::new(config.seed).generate(config.prefixes);
        assert!(table
            .iter()
            .all(|p| router.fib_gateway(p) == Some(SPEAKER1_HOP)));
    }

    #[test]
    fn export_rewrite_is_slower_than_the_plain_export_phase() {
        // S14 times the same Phase-2 export as S6, but through a
        // one-entry export map — on the process-model platforms the
        // extra evaluation pass must cost measurable time.
        let config = quick(1000);
        let s14 = run_scenario(&xeon(), Scenario::S14, &config);
        assert!(s14.completed);
        assert_eq!(s14.transactions, 1000);
        let baseline = run_scenario(
            &xeon(),
            Scenario::S14,
            &ScenarioConfig {
                // FilterChurn's export side is permit-all, and its
                // import filter never matches Speaker 1's routes, so
                // this override isolates the export-map cost.
                policy: Some(PolicyProfile::FilterChurn),
                ..config
            },
        );
        assert!(
            s14.elapsed_secs > baseline.elapsed_secs,
            "export map must add cost: {} vs {}",
            s14.elapsed_secs,
            baseline.elapsed_secs
        );
    }

    #[test]
    fn config_policy_override_beats_the_scenario_profile() {
        // S8 with the FilterChurn profile attached must match S13
        // (same operation, same packetization, same maps).
        let config = quick(800);
        let s13 = run_scenario(&xeon(), Scenario::S13, &config);
        let overridden = run_scenario(
            &xeon(),
            Scenario::S8,
            &ScenarioConfig {
                policy: Some(PolicyProfile::FilterChurn),
                ..config
            },
        );
        assert_eq!(s13.transactions, overridden.transactions);
        assert!((s13.elapsed_secs - overridden.elapsed_secs).abs() < 1e-9);
        assert_eq!(s13.virtual_ticks, overridden.virtual_ticks);
    }

    #[test]
    fn no_change_scenarios_are_fastest_on_pentium3() {
        let p3 = pentium3();
        let s2 = run_scenario(&p3, Scenario::S2, &quick(500));
        let s6 = run_scenario(&p3, Scenario::S6, &quick(500));
        let s8 = run_scenario(&p3, Scenario::S8, &quick(500));
        assert!(s6.tps() > s2.tps(), "s6 {} vs s2 {}", s6.tps(), s2.tps());
        assert!(s2.tps() > s8.tps(), "s2 {} vs s8 {}", s2.tps(), s8.tps());
    }

    #[test]
    fn result_and_router_variant_agree() {
        let config = quick(300);
        let direct = run_scenario(&pentium3(), Scenario::S2, &config);
        let (with_router, router) = run_scenario_with_router(&pentium3(), Scenario::S2, &config);
        assert_eq!(direct.transactions, with_router.transactions);
        assert!((direct.elapsed_secs - with_router.elapsed_secs).abs() < 1e-9);
        // The router retains final state for inspection.
        assert_eq!(router.fib_len(), 300);
        assert!(router.recorder().mark_time("phase 1").is_some());
    }

    #[test]
    fn cross_traffic_reduces_tps() {
        let config = quick(500);
        let idle = run_scenario(&pentium3(), Scenario::S2, &config);
        let loaded = run_scenario(
            &pentium3(),
            Scenario::S2,
            &ScenarioConfig {
                cross_traffic_mbps: 300.0,
                ..config
            },
        );
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
        let _ = run_scenario(&xeon(), Scenario::S1, &quick(0));
    }

    #[test]
    fn repeated_runs_are_tightly_clustered() {
        // The benchmark's repeatability claim: across five different
        // synthetic tables, the measured rate varies by under 5 %.
        let repeated = run_scenario_repeated(&pentium3(), Scenario::S2, &quick(500), 5);
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
        let _ = run_scenario_repeated(&xeon(), Scenario::S2, &quick(10), 0);
    }
}
