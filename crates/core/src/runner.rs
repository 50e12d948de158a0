//! The parallel experiment execution engine.
//!
//! Every artifact of the paper's evaluation — Table III, Figures 3–6,
//! the extension sweeps — is an embarrassingly parallel grid of
//! independent, deterministic cells. This module makes that grid the
//! core abstraction:
//!
//! * [`CellSpec`] — one cell (scenario × platform × sizing knobs) as
//!   data, with a builder API;
//! * [`ExperimentSpec`] — a whole grid of cells;
//! * [`GridRunner`] — executes cells across a configurable thread
//!   pool; results come back in grid order, so serial and parallel
//!   execution produce **bit-identical** output;
//! * [`RunObserver`] — progress, per-cell wall-clock, and failure
//!   reporting; a panic in one cell becomes a per-cell [`CellError`],
//!   not a whole-run abort.
//!
//! # Determinism
//!
//! Each cell carries its own seed and constructs its own simulated
//! router; no state is shared between cells. [`GridRunner`] assigns
//! results to slots by cell index, so `GridRunner::new(1)` and
//! `GridRunner::new(8)` return identical vectors for the same spec
//! (asserted by the `runner_determinism` integration test).
//!
//! # Example
//!
//! ```
//! use bgpbench_core::{CellSpec, GridRunner, Scenario};
//! use bgpbench_models::{pentium3, xeon};
//!
//! let cells = vec![
//!     CellSpec::new(Scenario::S2, xeon()).prefixes(500).seed(1),
//!     CellSpec::new(Scenario::S2, pentium3()).prefixes(500).seed(1),
//! ];
//! let runs = GridRunner::new(2).run_cells(&cells);
//! assert_eq!(runs.len(), 2);
//! let xeon_tps = runs[0].result.as_ref().unwrap().tps();
//! let p3_tps = runs[1].result.as_ref().unwrap().tps();
//! assert!(xeon_tps > p3_tps);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bgpbench_models::PlatformSpec;
use bgpbench_telemetry::{self as telemetry, TraceConfig, TraceEventId};
use crossbeam::channel;

use crate::experiments::ExperimentConfig;
use crate::harness::{self, ChurnConfig, RepeatedResult, ScenarioResult};
use crate::policy::PolicyProfile;
use crate::scenario::Scenario;
use bgpbench_models::SimRouter;
use bgpbench_speaker::WorkloadSpec;

/// One benchmark cell as data: which scenario runs on which platform,
/// with which table size, seed, cross-traffic level, and (optionally)
/// a packetization override.
///
/// Built fluently:
///
/// ```
/// use bgpbench_core::{CellSpec, Scenario};
/// use bgpbench_models::xeon;
///
/// let cell = CellSpec::new(Scenario::S2, xeon())
///     .prefixes(1000)
///     .seed(7)
///     .cross_traffic(300.0);
/// assert_eq!(cell.prefix_count(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    pub(crate) scenario: Scenario,
    pub(crate) platform: PlatformSpec,
    pub(crate) prefixes: usize,
    pub(crate) seed: u64,
    pub(crate) cross_traffic_mbps: f64,
    prefixes_per_update: Option<usize>,
    pub(crate) churn: ChurnConfig,
    pub(crate) policy: Option<PolicyProfile>,
    pub(crate) workload: Option<WorkloadSpec>,
}

impl CellSpec {
    /// A cell with the default sizing: 4000 prefixes, seed 2007, no
    /// cross-traffic, the scenario's own packetization, and default
    /// churn knobs for fault scenarios.
    pub fn new(scenario: Scenario, platform: PlatformSpec) -> Self {
        CellSpec {
            scenario,
            platform,
            prefixes: 4000,
            seed: 2007,
            cross_traffic_mbps: 0.0,
            prefixes_per_update: None,
            churn: ChurnConfig::default(),
            policy: None,
            workload: None,
        }
    }

    /// Sets the routing-table size (prefixes injected and measured).
    pub fn prefixes(mut self, prefixes: usize) -> Self {
        self.prefixes = prefixes;
        self
    }

    /// Sets the workload seed (same seed → identical run).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cross-traffic offered load during the timed phase.
    pub fn cross_traffic(mut self, mbps: f64) -> Self {
        self.cross_traffic_mbps = mbps;
        self
    }

    /// Overrides the timed phase's prefixes-per-UPDATE (the extension
    /// sweeps measure packetizations between the paper's endpoints).
    pub fn packetization(mut self, prefixes_per_update: usize) -> Self {
        self.prefixes_per_update = Some(prefixes_per_update);
        self
    }

    /// Sets the attached-peer count for session-churn scenarios.
    pub fn peers(mut self, peers: usize) -> Self {
        self.churn.peers = peers;
        self
    }

    /// Sets the mean flap spacing (ticks) for S9's storm plan — the
    /// flap-rate sweep's axis.
    pub fn flap_interval(mut self, ticks: u64) -> Self {
        self.churn.flap_interval_ticks = ticks;
        self
    }

    /// Sets the session hold time in ticks for churn scenarios.
    pub fn hold_ticks(mut self, ticks: u64) -> Self {
        self.churn.hold_ticks = ticks;
        self
    }

    /// Attaches a policy profile's route-maps to the router under
    /// test, overriding the scenario's own profile — the knob behind
    /// policy-on/off A-B comparisons on the paper's eight scenarios.
    pub fn policy(mut self, profile: PolicyProfile) -> Self {
        self.policy = Some(profile);
        self
    }

    /// Drives the cell from the given workload source (synthetic
    /// classic/modern table or an MRT replay) instead of the
    /// scenario's registered kind.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// The same cell retargeted at another scenario/platform pair —
    /// how grid builders stamp one sizing template across a grid.
    pub fn with_scenario_platform(mut self, scenario: Scenario, platform: PlatformSpec) -> Self {
        self.scenario = scenario;
        self.platform = platform;
        self
    }

    /// The scenario this cell runs.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The platform this cell runs on.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// The configured table size.
    pub fn prefix_count(&self) -> usize {
        self.prefixes
    }

    /// The configured workload seed.
    pub fn cell_seed(&self) -> u64 {
        self.seed
    }

    /// The configured cross-traffic level in Mbps.
    pub fn cross_traffic_mbps(&self) -> f64 {
        self.cross_traffic_mbps
    }

    /// The configured churn knobs (used by fault scenarios).
    pub fn churn_config(&self) -> ChurnConfig {
        self.churn
    }

    /// Prefixes per UPDATE in the timed phase: the override, or the
    /// scenario's own packet size.
    pub(crate) fn prefixes_per_update(&self) -> usize {
        self.prefixes_per_update
            .unwrap_or_else(|| self.scenario.packet_size().prefixes_per_update())
    }

    /// Runs the cell on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the table size is zero or an unmeasured setup phase
    /// exceeds the safety limit (under [`GridRunner`] such panics are
    /// captured as per-cell [`CellError`]s).
    pub fn run(&self) -> ScenarioResult {
        self.run_with_router().0
    }

    /// Runs the cell and hands back the simulated router for post-run
    /// inspection (figure experiments read its recorder).
    pub fn run_with_router(&self) -> (ScenarioResult, SimRouter) {
        self.trace_start();
        harness::run_cell(self)
    }

    /// Runs a session-churn cell (S9–S12) through the topology engine
    /// and returns its full convergence row (flaps, duplicate updates,
    /// ticks to converge) instead of the flattened [`ScenarioResult`].
    ///
    /// # Panics
    ///
    /// Panics if the cell's scenario is not a fault scenario.
    pub fn run_churn(&self) -> crate::topology::ConvergenceRun {
        self.trace_start();
        harness::run_churn(self).0
    }

    /// Runs the cell `repetitions` times with distinct workload seeds
    /// (the cell's seed, seed + 1, …) and collects the results — the
    /// benchmark's repeatability check.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero or the table size is zero.
    pub fn run_repeated(&self, repetitions: usize) -> RepeatedResult {
        assert!(repetitions > 0, "need at least one repetition");
        let runs = (0..repetitions as u64)
            .map(|rep| self.clone().seed(self.seed + rep).run())
            .collect();
        RepeatedResult { runs }
    }

    /// Opens the cell on the flight-recorder timeline with its seed
    /// and table size (a no-op while tracing is off).
    fn trace_start(&self) {
        telemetry::trace_instant(TraceEventId::CellStart, self.seed, self.prefixes as u64);
    }

    fn label(&self) -> String {
        if self.cross_traffic_mbps > 0.0 {
            format!(
                "{} on {} ({} prefixes, {:.0} Mbps cross)",
                self.scenario, self.platform.name, self.prefixes, self.cross_traffic_mbps
            )
        } else {
            format!(
                "{} on {} ({} prefixes)",
                self.scenario, self.platform.name, self.prefixes
            )
        }
    }
}

/// A grid of cells to execute — the experiment as data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentSpec {
    cells: Vec<CellSpec>,
}

impl ExperimentSpec {
    /// A spec over explicit cells.
    pub fn from_cells(cells: Vec<CellSpec>) -> Self {
        ExperimentSpec { cells }
    }

    /// The scenario × platform cross product (row-major: all platforms
    /// of scenario 1, then scenario 2, …), sized per `config`, without
    /// cross-traffic. This is Table III's grid when given all eight
    /// scenarios and all four platforms.
    pub fn grid(
        scenarios: &[Scenario],
        platforms: &[PlatformSpec],
        config: &ExperimentConfig,
    ) -> Self {
        let cells = scenarios
            .iter()
            .flat_map(|&scenario| {
                platforms.iter().map(move |platform| {
                    CellSpec::new(scenario, platform.clone())
                        .prefixes(config.prefixes_for(scenario))
                        .seed(config.seed)
                })
            })
            .collect();
        ExperimentSpec { cells }
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: CellSpec) {
        self.cells.push(cell);
    }

    /// The cells in grid order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A captured failure of one cell (the payload of a panic in the
/// cell's scenario run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell panicked: {}", self.message)
    }
}

impl std::error::Error for CellError {}

/// The outcome of one executed cell.
#[derive(Debug, Clone)]
pub struct CellRun<T = ScenarioResult> {
    /// The cell's index in grid order.
    pub index: usize,
    /// The cell's product, or the captured failure.
    pub result: Result<T, CellError>,
    /// Wall-clock time the cell took on its worker thread.
    pub wall: Duration,
}

/// Progress and failure reporting for a grid run. All callbacks fire
/// on the thread that called the runner, in event order (cell starts
/// and completions interleave under parallel execution).
pub trait RunObserver {
    /// The run is about to execute `total` cells.
    fn on_run_start(&mut self, total: usize) {
        let _ = total;
    }

    /// A worker picked up cell `index`.
    fn on_cell_start(&mut self, index: usize, cell: &CellSpec) {
        let _ = (index, cell);
    }

    /// Cell `index` finished; `error` is the captured panic, if any.
    /// `virtual_ticks` is the cell's simulated-clock cost when the job
    /// produces a [`ScenarioResult`] (None for custom `run_map` jobs)
    /// — deterministic per cell, so serial and parallel runs report
    /// the same value.
    fn on_cell_complete(
        &mut self,
        index: usize,
        cell: &CellSpec,
        error: Option<&CellError>,
        wall: Duration,
        virtual_ticks: Option<u64>,
    ) {
        let _ = (index, cell, error, wall, virtual_ticks);
    }

    /// The whole grid finished.
    fn on_run_complete(&mut self, total: usize, failed: usize, wall: Duration) {
        let _ = (total, failed, wall);
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// An observer that prints one line per completed cell (and a summary
/// line) to stderr — what the `bgpbench` binary uses.
#[derive(Debug, Default)]
pub struct StderrProgress {
    total: usize,
    done: usize,
}

impl RunObserver for StderrProgress {
    fn on_run_start(&mut self, total: usize) {
        self.total = total;
        self.done = 0;
    }

    fn on_cell_complete(
        &mut self,
        _index: usize,
        cell: &CellSpec,
        error: Option<&CellError>,
        wall: Duration,
        virtual_ticks: Option<u64>,
    ) {
        self.done += 1;
        match error {
            None => match virtual_ticks {
                Some(ticks) => eprintln!(
                    "[{}/{}] {} done in {:.2?} ({ticks} virtual ticks)",
                    self.done,
                    self.total,
                    cell.label(),
                    wall
                ),
                None => eprintln!(
                    "[{}/{}] {} done in {:.2?}",
                    self.done,
                    self.total,
                    cell.label(),
                    wall
                ),
            },
            Some(error) => {
                eprintln!(
                    "[{}/{}] {} FAILED after {:.2?}: {}",
                    self.done,
                    self.total,
                    cell.label(),
                    wall,
                    error.message
                );
                // Post-mortem: the flight recorder's newest events
                // (phase and cell boundaries, FSM transitions, session
                // churn) leading up to the panic, when it is armed.
                let tail = panic_tail();
                if !tail.is_empty() {
                    eprintln!("--- flight recorder (most recent last) ---");
                    eprint!("{tail}");
                    eprintln!("------------------------------------------");
                }
            }
        }
    }

    fn on_run_complete(&mut self, total: usize, failed: usize, wall: Duration) {
        if failed > 0 {
            eprintln!("{total} cells in {wall:.2?} ({failed} failed)");
        } else {
            eprintln!("{total} cells in {wall:.2?}");
        }
    }
}

/// The newest 32 flight-recorder events as text, one per line: what
/// [`StderrProgress`] prints under a failed cell. Empty unless tracing
/// is armed.
pub fn panic_tail() -> String {
    if !telemetry::trace_enabled() {
        return String::new();
    }
    telemetry::trace::export::tail_text(&telemetry::trace_dump(), 32)
}

enum Event<T> {
    Started(usize),
    Finished(CellRun<T>),
}

/// Executes experiment grids across a thread pool.
///
/// Results always come back in grid order with per-cell outcomes;
/// thread count affects wall-clock only, never values (see the module
/// docs on determinism).
pub struct GridRunner {
    threads: usize,
    observer: Box<dyn RunObserver>,
    trace: Option<TraceConfig>,
}

impl std::fmt::Debug for GridRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridRunner")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl GridRunner {
    /// A runner over `threads` worker threads (0 is clamped to 1) with
    /// no progress reporting.
    pub fn new(threads: usize) -> Self {
        GridRunner {
            threads: threads.max(1),
            observer: Box::new(NullObserver),
            trace: None,
        }
    }

    /// A single-threaded runner: cells execute on the calling thread
    /// in grid order.
    pub fn serial() -> Self {
        GridRunner::new(1)
    }

    /// Replaces the progress observer.
    pub fn with_observer(mut self, observer: Box<dyn RunObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Arms the flight recorder for the whole run. When any cell
    /// panics and the config names a post-mortem path, the ring is
    /// exported there as Chrome trace JSON next to the stderr tail.
    pub fn with_trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of `spec` through the standard scenario
    /// harness.
    pub fn run(&mut self, spec: &ExperimentSpec) -> Vec<CellRun> {
        self.run_cells(spec.cells())
    }

    /// Runs explicit cells through the standard scenario harness.
    pub fn run_cells(&mut self, cells: &[CellSpec]) -> Vec<CellRun> {
        self.run_map_inner(cells, CellSpec::run, |result| Some(result.virtual_ticks))
    }

    /// Runs `job` once per cell across the thread pool and returns the
    /// outcomes in grid order. This is the engine's primitive: the
    /// figure drivers pass jobs that extract recorder data from the
    /// simulated router before it is dropped.
    ///
    /// A panicking job is captured per cell: its slot holds
    /// `Err(CellError)` and every other cell's result is preserved.
    pub fn run_map<T, F>(&mut self, cells: &[CellSpec], job: F) -> Vec<CellRun<T>>
    where
        T: Send,
        F: Fn(&CellSpec) -> T + Sync,
    {
        self.run_map_inner(cells, job, |_| None)
    }

    /// The shared engine behind [`GridRunner::run_cells`] and
    /// [`GridRunner::run_map`]. `ticks_of` extracts the virtual-tick
    /// count the observer reports, when the job's product carries one.
    fn run_map_inner<T, F, V>(&mut self, cells: &[CellSpec], job: F, ticks_of: V) -> Vec<CellRun<T>>
    where
        T: Send,
        F: Fn(&CellSpec) -> T + Sync,
        V: Fn(&T) -> Option<u64>,
    {
        let started = Instant::now();
        if let Some(config) = &self.trace {
            telemetry::enable_trace(config);
        }
        self.observer.on_run_start(cells.len());
        let mut slots: Vec<Option<CellRun<T>>> = Vec::new();
        slots.resize_with(cells.len(), || None);

        if self.threads == 1 || cells.len() <= 1 {
            for (index, cell) in cells.iter().enumerate() {
                self.observer.on_cell_start(index, cell);
                let run = execute(index, cell, &job);
                let ticks = run.result.as_ref().ok().and_then(&ticks_of);
                self.observer.on_cell_complete(
                    index,
                    cell,
                    run.result.as_ref().err(),
                    run.wall,
                    ticks,
                );
                slots[index] = Some(run);
            }
        } else {
            let workers = self.threads.min(cells.len());
            let (work_tx, work_rx) = channel::unbounded::<usize>();
            let (event_tx, event_rx) = channel::unbounded::<Event<T>>();
            for index in 0..cells.len() {
                let _ = work_tx.send(index);
            }
            drop(work_tx);
            let observer = &mut self.observer;
            // One race-detector cell per result slot: the worker that
            // executes the cell writes it, the collecting main thread
            // reads it, and the `Finished` channel message is the only
            // thing ordering the two.
            #[cfg(feature = "check-sync")]
            let result_cells: Vec<u64> = (0..cells.len())
                .map(|_| parking_lot::sync_check::next_cell_id())
                .collect();
            #[cfg(feature = "check-sync")]
            let result_cells = &result_cells;
            #[cfg(feature = "check-sync")]
            let mut worker_tokens: Vec<u64> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let work_rx = work_rx.clone();
                    let event_tx = event_tx.clone();
                    let job = &job;
                    #[cfg(feature = "check-sync")]
                    let token = {
                        let token = parking_lot::sync_check::next_task_token();
                        parking_lot::sync_check::on_task_spawn(token);
                        worker_tokens.push(token);
                        token
                    };
                    scope.spawn(move || {
                        #[cfg(feature = "check-sync")]
                        parking_lot::sync_check::on_task_start(token);
                        while let Ok(index) = work_rx.recv() {
                            let _ = event_tx.send(Event::Started(index));
                            let run = execute(index, &cells[index], job);
                            #[cfg(feature = "check-sync")]
                            parking_lot::sync_check::record_cell_write(
                                result_cells[index],
                                "core::runner::worker_result",
                            );
                            let _ = event_tx.send(Event::Finished(run));
                        }
                        #[cfg(feature = "check-sync")]
                        parking_lot::sync_check::on_task_end(token);
                    });
                }
                drop(event_tx);
                for event in event_rx.iter() {
                    match event {
                        Event::Started(index) => {
                            observer.on_cell_start(index, &cells[index]);
                        }
                        Event::Finished(run) => {
                            let index = run.index;
                            #[cfg(feature = "check-sync")]
                            parking_lot::sync_check::record_cell_read(
                                result_cells[index],
                                "core::runner::collect",
                            );
                            let ticks = run.result.as_ref().ok().and_then(&ticks_of);
                            observer.on_cell_complete(
                                index,
                                &cells[index],
                                run.result.as_ref().err(),
                                run.wall,
                                ticks,
                            );
                            slots[index] = Some(run);
                        }
                    }
                }
            });
            #[cfg(feature = "check-sync")]
            for token in worker_tokens {
                parking_lot::sync_check::on_task_join(token);
            }
        }

        let runs: Vec<CellRun<T>> = slots
            .into_iter()
            .map(|slot| slot.expect("every cell reports exactly once"))
            .collect();
        let failed = runs.iter().filter(|run| run.result.is_err()).count();
        if failed > 0 {
            self.write_trace_postmortem();
        }
        self.observer
            .on_run_complete(cells.len(), failed, started.elapsed());
        runs
    }

    /// Dumps the flight-recorder ring as Chrome trace JSON to the
    /// configured post-mortem path — the whole timeline whose tail
    /// [`StderrProgress`] prints on a cell panic.
    fn write_trace_postmortem(&self) {
        let Some(path) = self
            .trace
            .as_ref()
            .and_then(|config| config.postmortem.as_deref())
        else {
            return;
        };
        if !telemetry::trace_enabled() {
            return;
        }
        let json = telemetry::trace::export::chrome_json(&telemetry::trace_dump());
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("trace post-mortem written to {}", path.display()),
            Err(error) => eprintln!(
                "failed to write trace post-mortem {}: {error}",
                path.display()
            ),
        }
    }
}

fn execute<T, F>(index: usize, cell: &CellSpec, job: &F) -> CellRun<T>
where
    F: Fn(&CellSpec) -> T,
{
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| job(cell))).map_err(|payload| {
        let message = if let Some(text) = payload.downcast_ref::<&str>() {
            (*text).to_owned()
        } else if let Some(text) = payload.downcast_ref::<String>() {
            text.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        CellError { message }
    });
    CellRun {
        index,
        result,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_models::{pentium3, xeon};

    #[test]
    fn cell_spec_builder_sets_every_knob() {
        let cell = CellSpec::new(Scenario::S5, pentium3())
            .prefixes(250)
            .seed(11)
            .cross_traffic(120.0)
            .packetization(25);
        assert_eq!(cell.scenario(), Scenario::S5);
        assert_eq!(cell.platform().name, "Pentium III");
        assert_eq!(cell.prefix_count(), 250);
        assert_eq!(cell.cell_seed(), 11);
        assert_eq!(cell.cross_traffic_mbps(), 120.0);
        assert_eq!(cell.prefixes_per_update(), 25);
        // Without the override the scenario's packet size applies.
        let plain = CellSpec::new(Scenario::S5, pentium3());
        assert_eq!(plain.prefixes_per_update(), 1);
    }

    #[test]
    fn grid_spec_is_row_major() {
        let config = ExperimentConfig::quick();
        let spec = ExperimentSpec::grid(
            &[Scenario::S1, Scenario::S2],
            &[pentium3(), xeon()],
            &config,
        );
        assert_eq!(spec.len(), 4);
        let cells = spec.cells();
        assert_eq!(cells[0].scenario(), Scenario::S1);
        assert_eq!(cells[0].platform().name, "Pentium III");
        assert_eq!(cells[1].scenario(), Scenario::S1);
        assert_eq!(cells[1].platform().name, "Xeon");
        assert_eq!(cells[2].scenario(), Scenario::S2);
        // Sizing follows the scenario's packet class.
        assert_eq!(cells[0].prefix_count(), config.small_prefixes);
        assert_eq!(cells[2].prefix_count(), config.large_prefixes);
    }

    #[test]
    fn runner_clamps_zero_threads() {
        assert_eq!(GridRunner::new(0).threads(), 1);
        assert_eq!(GridRunner::serial().threads(), 1);
    }

    #[test]
    fn observer_sees_every_cell_in_order_when_serial() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Recording(Rc<RefCell<Vec<String>>>);
        impl RunObserver for Recording {
            fn on_run_start(&mut self, total: usize) {
                self.0.borrow_mut().push(format!("start {total}"));
            }
            fn on_cell_start(&mut self, index: usize, _cell: &CellSpec) {
                self.0.borrow_mut().push(format!("cell {index}"));
            }
            fn on_cell_complete(
                &mut self,
                index: usize,
                _cell: &CellSpec,
                error: Option<&CellError>,
                _wall: Duration,
                _virtual_ticks: Option<u64>,
            ) {
                self.0
                    .borrow_mut()
                    .push(format!("done {index} ok={}", error.is_none()));
            }
            fn on_run_complete(&mut self, total: usize, failed: usize, _wall: Duration) {
                self.0.borrow_mut().push(format!("end {total} {failed}"));
            }
        }

        let cells = vec![
            CellSpec::new(Scenario::S2, xeon()).prefixes(100).seed(1),
            CellSpec::new(Scenario::S2, xeon()).prefixes(100).seed(2),
        ];
        let events = Rc::new(RefCell::new(Vec::new()));
        let mut runner = GridRunner::serial().with_observer(Box::new(Recording(events.clone())));
        let runs = runner.run_map(&cells, |cell| cell.cell_seed());
        assert_eq!(runs.len(), 2);
        assert_eq!(
            *events.borrow(),
            vec![
                "start 2",
                "cell 0",
                "done 0 ok=true",
                "cell 1",
                "done 1 ok=true",
                "end 2 0",
            ]
        );
    }

    #[test]
    fn panicking_job_is_captured_per_cell() {
        let cells = vec![
            CellSpec::new(Scenario::S2, xeon()).seed(1),
            CellSpec::new(Scenario::S2, xeon()).seed(2),
            CellSpec::new(Scenario::S2, xeon()).seed(3),
        ];
        let runs = GridRunner::new(2).run_map(&cells, |cell| {
            if cell.cell_seed() == 2 {
                panic!("injected fault in cell seed 2");
            }
            cell.cell_seed() * 10
        });
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].result, Ok(10));
        assert_eq!(runs[2].result, Ok(30));
        let err = runs[1].result.as_ref().unwrap_err();
        assert!(err.message.contains("injected fault"), "got: {err}");
    }

    #[test]
    fn parallel_results_come_back_in_grid_order() {
        let cells: Vec<CellSpec> = (0..16)
            .map(|i| CellSpec::new(Scenario::S2, xeon()).seed(i))
            .collect();
        let runs = GridRunner::new(8).run_map(&cells, |cell| cell.cell_seed());
        let seeds: Vec<u64> = runs.into_iter().map(|run| run.result.unwrap()).collect();
        assert_eq!(seeds, (0..16).collect::<Vec<u64>>());
    }
}
