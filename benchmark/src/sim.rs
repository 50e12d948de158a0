//! `sim_table3`: the simulated Table III grid on the serial runner —
//! the harness a user waits on. The live stack does no work here, so a
//! daemon or wire change must not move it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgpbench_core::experiments::{table3, ExperimentConfig};
use bgpbench_core::report::table3_csv;
use bgpbench_core::{CellError, CellSpec, GridRunner, RunObserver};
use bgpbench_models::PlatformKind;
use bgpbench_simnet::{
    CoreSpec, Job, Model, ProcessId, SimConfig, SimDuration, Simulator, TickContext,
};

use crate::host;
use crate::stats;

/// The committed quick-grid artifact, compiled in so the check does
/// not depend on the working directory.
const GOLDEN_QUICK_CSV: &str = include_str!("../../results/golden/table3_quick.csv");

/// One grid cell as the observer saw it complete.
#[derive(Debug, Clone, Copy)]
pub struct CellSample {
    /// Since the grid started.
    pub done_at: Duration,
    pub wall: Duration,
    pub virtual_ticks: u64,
    pub transactions: usize,
    pub ios: bool,
}

struct CellRecorder {
    started: Instant,
    cells: Arc<Mutex<Vec<CellSample>>>,
}

impl RunObserver for CellRecorder {
    fn on_run_start(&mut self, _total: usize) {
        self.started = Instant::now();
    }

    fn on_cell_complete(
        &mut self,
        _index: usize,
        cell: &CellSpec,
        _error: Option<&CellError>,
        wall: Duration,
        virtual_ticks: Option<u64>,
    ) {
        let sample = CellSample {
            done_at: self.started.elapsed(),
            wall,
            virtual_ticks: virtual_ticks.unwrap_or(0),
            // Scenarios 1–8 time exactly one transaction per prefix.
            transactions: cell.prefix_count(),
            ios: matches!(cell.platform().kind, PlatformKind::Ios(_)),
        };
        self.cells
            .lock()
            .expect("no cell panics while recording")
            .push(sample);
    }
}

/// What one rep of the grid measured.
#[derive(Debug)]
pub struct Rep {
    /// The quick grid and its comparison with the golden CSV.
    pub setup_s: f64,
    pub elapsed_s: f64,
    pub cpu_ns: u64,
    pub transactions: usize,
    /// µs from the grid's start to a cell's result, over the cells.
    pub completion_p50_us: f64,
    pub completion_p99_us: f64,
    pub cells: Vec<CellSample>,
    pub failures: Vec<String>,
}

fn grid_config(seed: u64, smoke: bool) -> ExperimentConfig {
    let base = if smoke {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    ExperimentConfig { seed, ..base }
}

/// Runs the timed grid on `threads` workers: its wall time, the
/// per-cell samples and what the table's checks found wrong.
fn run_grid(threads: usize, config: &ExperimentConfig) -> (Duration, Vec<CellSample>, Vec<String>) {
    let cells = Arc::new(Mutex::new(Vec::new()));
    let mut runner = GridRunner::new(threads).with_observer(Box::new(CellRecorder {
        started: Instant::now(),
        cells: Arc::clone(&cells),
    }));
    let started = Instant::now();
    let table = table3(&mut runner, config);
    let elapsed = started.elapsed();
    let mut failures = table.check_observations();
    let incomplete = table
        .cells
        .iter()
        .flatten()
        .filter(|c| !c.completed)
        .count();
    if incomplete > 0 {
        failures.push(format!("{incomplete} cells did not complete"));
    }
    let cells = std::mem::take(&mut *cells.lock().expect("runner is done"));
    (elapsed, cells, failures)
}

/// One rep: the golden check as set-up, then the timed grid.
pub fn run_rep(seed: u64, smoke: bool) -> Rep {
    let setup_started = Instant::now();
    let mut failures = Vec::new();
    let quick = table3(&mut GridRunner::serial(), &ExperimentConfig::quick());
    if table3_csv(&quick) != GOLDEN_QUICK_CSV {
        failures.push("quick grid differs from results/golden/table3_quick.csv".to_owned());
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let cpu_before = host::process_cpu_ns();
    let (elapsed, cells, grid_failures) = run_grid(1, &grid_config(seed, smoke));
    let cpu_ns = host::process_cpu_ns() - cpu_before;
    failures.extend(grid_failures);

    let mut done_us: Vec<f64> = cells
        .iter()
        .map(|c| c.done_at.as_secs_f64() * 1e6)
        .collect();
    stats::sort(&mut done_us);
    Rep {
        setup_s,
        elapsed_s: elapsed.as_secs_f64(),
        cpu_ns,
        transactions: cells.iter().map(|c| c.transactions).sum(),
        completion_p50_us: stats::percentile_sorted(&done_us, 50.0),
        completion_p99_us: stats::percentile_sorted(&done_us, 99.0),
        cells,
        failures,
    }
}

/// Wall time of the same grid on `threads` workers.
pub fn parallel_elapsed_s(seed: u64, smoke: bool, threads: usize) -> f64 {
    run_grid(threads, &grid_config(seed, smoke)).0.as_secs_f64()
}

struct EmptyModel;

impl Model for EmptyModel {
    fn on_tick(&mut self, _: &mut TickContext<'_>) {}
    fn on_job_complete(&mut self, _: ProcessId, _: Job, _: &mut TickContext<'_>) {}
}

/// Host ns per tick of the bare `simnet` loop: one core, no process,
/// a model that does nothing.
pub fn empty_tick_ns() -> f64 {
    const TICKS: u64 = 2_000_000;
    let config = SimConfig::new(vec![CoreSpec::ghz(1.0)]);
    let tick = config.tick;
    let mut simulator = Simulator::new(config, |_| EmptyModel);
    let started = Instant::now();
    simulator.run_for(SimDuration::from_nanos(tick.as_nanos() * TICKS));
    let elapsed = started.elapsed();
    std::hint::black_box(simulator.ticks_elapsed());
    elapsed.as_nanos() as f64 / TICKS as f64
}
