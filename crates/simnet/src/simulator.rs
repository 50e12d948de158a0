//! The tick loop: scheduling, job completion dispatch, and sampling.

use bgpbench_telemetry::{self as telemetry, MetricId};

use crate::process::{Job, Process, ProcessId, ProcessStats, SchedClass};
use crate::recorder::Recorder;
use crate::time::{SimDuration, SimTime};
use crate::CoreSpec;

/// Static simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Scheduling quantum; state advances in steps of this size.
    pub tick: SimDuration,
    /// The control-plane cores. All cores must have equal speed
    /// (the benchmarked platforms are symmetric).
    pub cores: Vec<CoreSpec>,
    /// CPU-load sampling period for the recorder.
    pub sample_every: SimDuration,
}

impl SimConfig {
    /// A configuration with the given cores, a 1 ms tick, and 100 ms
    /// CPU sampling — the defaults used throughout the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty or the cores have unequal speeds.
    pub fn new(cores: Vec<CoreSpec>) -> Self {
        let config = SimConfig {
            tick: SimDuration::from_millis(1),
            cores,
            sample_every: SimDuration::from_millis(100),
        };
        config.validate();
        config
    }

    /// Overrides the sampling period, returning `self` for chaining.
    pub fn with_sample_every(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be positive");
        self.sample_every = period;
        self
    }

    fn validate(&self) {
        assert!(!self.cores.is_empty(), "at least one core is required");
        assert!(!self.tick.is_zero(), "tick must be positive");
        let first = self.cores[0].hz;
        assert!(
            self.cores.iter().all(|c| (c.hz - first).abs() < 1e-6),
            "cores must be symmetric"
        );
    }

    /// Cycles one core retires per tick.
    fn core_budget(&self) -> f64 {
        self.cores[0].hz * self.tick.as_secs_f64()
    }
}

/// Registers processes during [`Simulator::new`].
#[derive(Debug, Default)]
pub struct ProcessBuilder {
    processes: Vec<Process>,
}

impl ProcessBuilder {
    /// Adds a process and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a process of this name is already registered: the
    /// name keys its `cpu:<name>` series and its telemetry counter.
    pub fn add_process(&mut self, name: &str, class: SchedClass) -> ProcessId {
        assert!(
            self.processes.iter().all(|p| p.name != name),
            "process name {name:?} registered twice"
        );
        self.processes.push(Process::new(name.to_owned(), class));
        ProcessId(self.processes.len() - 1)
    }
}

/// The model's window into the simulator during a tick.
#[derive(Debug)]
pub struct TickContext<'a> {
    now: SimTime,
    queue_lens: &'a [usize],
    pushes: &'a mut Vec<(ProcessId, Job)>,
    recorder: &'a mut Recorder,
}

impl TickContext<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queue length of a process at the start of this tick (jobs, not
    /// cycles) — what flow-control decisions key on.
    pub fn queue_len(&self, pid: ProcessId) -> usize {
        self.queue_lens[pid.0]
    }

    /// Enqueues a job. Jobs pushed from [`Model::on_tick`] are runnable
    /// within the same tick; jobs pushed from
    /// [`Model::on_job_complete`] become runnable the next tick.
    pub fn push(&mut self, pid: ProcessId, job: Job) {
        self.pushes.push((pid, job));
    }

    /// Appends a point to a custom recorder channel.
    pub fn record(&mut self, channel: &str, value: f64) {
        let now = self.now.as_secs_f64();
        self.recorder.add_point(channel, now, value);
    }

    /// Records a labeled instant (phase boundary).
    pub fn mark(&mut self, label: &str) {
        let now = self.now.as_secs_f64();
        self.recorder.mark(label, now);
    }
}

/// A platform/workload model plugged into the simulator.
pub trait Model {
    /// Called at the start of every tick; inject external work here
    /// (packet arrivals, periodic housekeeping, cross-traffic).
    fn on_tick(&mut self, ctx: &mut TickContext<'_>);

    /// Called once per completed job, in completion order; enqueue
    /// follow-up pipeline stages here.
    fn on_job_complete(&mut self, pid: ProcessId, job: Job, ctx: &mut TickContext<'_>);
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every queue drained and no work was deferred.
    Idle,
    /// The caller's predicate returned `true`.
    Predicate,
    /// The time limit was reached.
    Limit,
}

/// Result of [`Simulator::run`] / [`Simulator::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated time that elapsed during this call.
    pub elapsed: SimDuration,
    /// Why the run stopped.
    pub reason: StopReason,
}

impl RunOutcome {
    /// Whether the run stopped because the system drained.
    pub fn went_idle(&self) -> bool {
        self.reason == StopReason::Idle
    }
}

/// The simulator: owns the processes, the clock, the recorder, and the
/// model. See the [crate documentation](crate) for the full tick
/// semantics and an example.
#[derive(Debug)]
pub struct Simulator<M> {
    config: SimConfig,
    now: SimTime,
    processes: Vec<Process>,
    model: M,
    recorder: Recorder,
    deferred: Vec<(ProcessId, Job)>,
    last_sample: SimTime,
    /// Telemetry cycle counter for each process, resolved from its
    /// name at build time so the per-tick attribution loop is an
    /// indexed lookup.
    cycle_metric: Vec<MetricId>,
    /// Each process's `cpu:<name>` recorder channel.
    cpu_channel: Vec<String>,
    /// The indices of each [`SchedClass::ALL`] entry's processes, in
    /// registration order: a water-filling pass scans only its class.
    class_members: [Vec<usize>; 3],
    /// Per-tick scratch, owned so that a steady-state tick allocates
    /// nothing: queue lengths as the model sees them, the model's
    /// `on_tick` pushes, one pass's runnable processes, and the jobs
    /// completed this tick.
    queue_lens: Vec<usize>,
    pushes: Vec<(ProcessId, Job)>,
    runnable: Vec<usize>,
    completed: Vec<(Job, usize)>,
    /// Whether the most recent step injected, executed, or completed
    /// anything — used to distinguish a drained system from one that is
    /// busy every tick.
    step_was_active: bool,
}

impl<M: Model> Simulator<M> {
    /// Builds a simulator: `build` registers processes and returns the
    /// model that drives them.
    pub fn new(config: SimConfig, build: impl FnOnce(&mut ProcessBuilder) -> M) -> Self {
        config.validate();
        let mut builder = ProcessBuilder::default();
        let model = build(&mut builder);
        let processes = builder.processes;
        let cycle_metric = processes
            .iter()
            .map(|p| MetricId::for_process(&p.name))
            .collect();
        let cpu_channel = processes
            .iter()
            .map(|p| format!("cpu:{}", p.name))
            .collect();
        let class_members = SchedClass::ALL.map(|class| {
            (0..processes.len())
                .filter(|&i| processes[i].class == class)
                .collect()
        });
        Simulator {
            config,
            now: SimTime::ZERO,
            model,
            recorder: Recorder::new(),
            deferred: Vec::new(),
            last_sample: SimTime::ZERO,
            cycle_metric,
            cpu_channel,
            class_members,
            queue_lens: Vec::with_capacity(processes.len()),
            pushes: Vec::new(),
            runnable: Vec::with_capacity(processes.len()),
            completed: Vec::new(),
            processes,
            step_was_active: false,
        }
    }

    /// The model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The model, mutably.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The recorder with all series collected so far.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The recorder, mutably (for marks placed by an external harness).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Consumes the simulator, returning the model and recorder.
    pub fn into_parts(self) -> (M, Recorder) {
        (self.model, self.recorder)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative statistics for a process.
    pub fn process_stats(&self, pid: ProcessId) -> ProcessStats {
        self.processes[pid.0].stats
    }

    /// The name a process was registered with.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.processes[pid.0].name
    }

    /// Whether all queues are empty and nothing is deferred.
    pub fn is_idle(&self) -> bool {
        self.deferred.is_empty() && self.processes.iter().all(|p| p.queue.is_empty())
    }

    /// Full ticks the clock has advanced since construction.
    pub fn ticks_elapsed(&self) -> u64 {
        self.now.as_nanos() / self.config.tick.as_nanos()
    }

    /// Advances one tick.
    pub fn step(&mut self) {
        let queue_budget = self.config.core_budget();
        let ncores = self.config.cores.len();
        let tick_ns = self.config.tick.as_nanos();
        let telemetry_on = telemetry::enabled();
        if telemetry_on {
            // Publish the virtual clock before the model runs so spans
            // opened inside its callbacks stamp this tick's time.
            telemetry::set_virtual_now_ns(self.now.as_nanos());
        }

        let mut active = !self.deferred.is_empty();

        // 1. Deferred jobs from last tick's completions become visible.
        for (pid, job) in self.deferred.drain(..) {
            self.processes[pid.0].push(job);
        }

        // 2. Model injects external work; its pushes are runnable now.
        self.snapshot_queue_lens();
        let mut ctx = TickContext {
            now: self.now,
            queue_lens: &self.queue_lens,
            pushes: &mut self.pushes,
            recorder: &mut self.recorder,
        };
        self.model.on_tick(&mut ctx);
        active |= !self.pushes.is_empty();
        for (pid, job) in self.pushes.drain(..) {
            self.processes[pid.0].push(job);
        }

        // 3. Wall-clock delays elapse.
        for process in &mut self.processes {
            process.advance_delay(tick_ns);
        }

        // 4. Water-filling scheduler: strict class priority, fair share
        //    within a class, one core's budget per process.
        let mut pool = queue_budget * ncores as f64;
        for process in &mut self.processes {
            process.tick_used = 0.0;
        }
        for members in &self.class_members {
            let mut guard = 0;
            loop {
                guard += 1;
                self.runnable.clear();
                self.runnable.extend(members.iter().copied().filter(|&i| {
                    let p = &self.processes[i];
                    p.runnable() && p.tick_used < queue_budget - 1e-9
                }));
                if self.runnable.is_empty() || pool <= 1e-9 || guard > 64 {
                    break;
                }
                let share = pool / self.runnable.len() as f64;
                let mut progressed = false;
                for &idx in &self.runnable {
                    let process = &mut self.processes[idx];
                    let budget = share.min(queue_budget - process.tick_used);
                    let used = process.consume(budget, &mut self.completed, idx);
                    pool -= used;
                    if used > 1e-9 {
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        // 5. Completion callbacks; their pushes land next tick (step 1
        //    left `deferred` empty, so they collect there directly).
        let n_completed = self.completed.len();
        active |= !self.completed.is_empty();
        active |= self.processes.iter().any(|p| p.tick_used > 1e-9);
        self.step_was_active = active;
        if !self.completed.is_empty() {
            self.snapshot_queue_lens();
            let mut ctx = TickContext {
                now: self.now,
                queue_lens: &self.queue_lens,
                pushes: &mut self.deferred,
                recorder: &mut self.recorder,
            };
            for (job, pid) in self.completed.drain(..) {
                self.model.on_job_complete(ProcessId(pid), job, &mut ctx);
            }
        }

        // 6. Advance the clock and sample CPU load.
        self.now += self.config.tick;
        if self.now.duration_since(self.last_sample) >= self.config.sample_every {
            let window = self.now.duration_since(self.last_sample).as_secs_f64();
            let cycles_per_core = self.config.cores[0].hz * window;
            let t = self.now.as_secs_f64();
            for (process, channel) in self.processes.iter_mut().zip(&self.cpu_channel) {
                let pct = process.sample_busy / cycles_per_core * 100.0;
                self.recorder.add_point(channel, t, pct);
                process.sample_busy = 0.0;
            }
            self.last_sample = self.now;
        }

        // 7. Telemetry: advance the published virtual clock and
        //    attribute this tick's cycles to each process's component
        //    counter (the raw material of the Fig. 3–4 breakdown).
        if telemetry_on {
            telemetry::set_virtual_now_ns(self.now.as_nanos());
            telemetry::incr(MetricId::SimTicks);
            telemetry::add(MetricId::SimJobsCompleted, n_completed as u64);
            for (i, process) in self.processes.iter().enumerate() {
                if process.tick_used > 0.0 {
                    telemetry::add(self.cycle_metric[i], process.tick_used as u64);
                }
            }
        }
    }

    /// Refills `queue_lens` with every process's current queue length.
    fn snapshot_queue_lens(&mut self) {
        self.queue_lens.clear();
        self.queue_lens
            .extend(self.processes.iter().map(|p| p.queue.len()));
    }

    /// Runs until the system drains or `limit` elapses.
    pub fn run(&mut self, limit: SimDuration) -> RunOutcome {
        self.run_until(limit, |_| false)
    }

    /// Runs for exactly `duration` of simulated time, ignoring
    /// idleness (for steady-state observation windows).
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.now + duration;
        while self.now < deadline {
            self.step();
        }
    }

    /// Runs until `stop(model)` returns true, the system drains, or
    /// `limit` elapses. The predicate is checked between ticks.
    pub fn run_until(
        &mut self,
        limit: SimDuration,
        mut stop: impl FnMut(&M) -> bool,
    ) -> RunOutcome {
        let start = self.now;
        let deadline = start + limit;
        loop {
            if stop(&self.model) {
                return RunOutcome {
                    elapsed: self.now - start,
                    reason: StopReason::Predicate,
                };
            }
            if self.now >= deadline {
                return RunOutcome {
                    elapsed: self.now - start,
                    reason: StopReason::Limit,
                };
            }
            self.step();
            if !self.step_was_active && self.is_idle() {
                // Nothing was injected, executed, or completed and the
                // queues are empty: the system has drained.
                return RunOutcome {
                    elapsed: self.now - start,
                    reason: StopReason::Idle,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::recorder::Series;

    impl<M: Model> Simulator<M> {
        /// The scheduler's step before it owned its scratch buffers,
        /// kept verbatim but for the borrowed `pushes` (marked): the
        /// reference `step` must match bit for bit.
        fn step_reference(&mut self) {
            let queue_budget = self.config.core_budget();
            let ncores = self.config.cores.len();
            let tick_ns = self.config.tick.as_nanos();
            let telemetry_on = telemetry::enabled();
            if telemetry_on {
                // Publish the virtual clock before the model runs so spans
                // opened inside its callbacks stamp this tick's time.
                telemetry::set_virtual_now_ns(self.now.as_nanos());
            }

            let mut active = !self.deferred.is_empty();

            // 1. Deferred jobs from last tick's completions become visible.
            for (pid, job) in self.deferred.drain(..) {
                self.processes[pid.0].push(job);
            }

            // 2. Model injects external work; its pushes are runnable now.
            let queue_lens: Vec<usize> = self.processes.iter().map(|p| p.queue.len()).collect();
            let mut ctx = TickContext {
                now: self.now,
                queue_lens: &queue_lens,
                pushes: &mut Vec::new(), // borrowed
                recorder: &mut self.recorder,
            };
            self.model.on_tick(&mut ctx);
            let pushes = std::mem::take(ctx.pushes); // borrowed
            active |= !pushes.is_empty();
            for (pid, job) in pushes {
                self.processes[pid.0].push(job);
            }

            // 3. Wall-clock delays elapse.
            for process in &mut self.processes {
                process.advance_delay(tick_ns);
            }

            // 4. Water-filling scheduler: strict class priority, fair share
            //    within a class, one core's budget per process.
            let mut completed: Vec<(Job, usize)> = Vec::new();
            let mut pool = queue_budget * ncores as f64;
            for process in &mut self.processes {
                process.tick_used = 0.0;
            }
            for class in SchedClass::ALL {
                let mut guard = 0;
                loop {
                    guard += 1;
                    let runnable: Vec<usize> = self
                        .processes
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| {
                            p.class == class && p.runnable() && p.tick_used < queue_budget - 1e-9
                        })
                        .map(|(i, _)| i)
                        .collect();
                    if runnable.is_empty() || pool <= 1e-9 || guard > 64 {
                        break;
                    }
                    let share = pool / runnable.len() as f64;
                    let mut progressed = false;
                    for idx in runnable {
                        let process = &mut self.processes[idx];
                        let budget = share.min(queue_budget - process.tick_used);
                        let used = process.consume(budget, &mut completed, idx);
                        pool -= used;
                        if used > 1e-9 {
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            }

            // 5. Completion callbacks; their pushes land next tick.
            let n_completed = completed.len();
            active |= !completed.is_empty();
            active |= self.processes.iter().any(|p| p.tick_used > 1e-9);
            self.step_was_active = active;
            if !completed.is_empty() {
                let queue_lens: Vec<usize> = self.processes.iter().map(|p| p.queue.len()).collect();
                let mut ctx = TickContext {
                    now: self.now,
                    queue_lens: &queue_lens,
                    pushes: &mut Vec::new(), // borrowed
                    recorder: &mut self.recorder,
                };
                for (job, pid) in completed {
                    self.model.on_job_complete(ProcessId(pid), job, &mut ctx);
                }
                self.deferred.append(ctx.pushes); // borrowed
            }

            // 6. Advance the clock and sample CPU load.
            self.now += self.config.tick;
            if self.now.duration_since(self.last_sample) >= self.config.sample_every {
                let window = self.now.duration_since(self.last_sample).as_secs_f64();
                let cycles_per_core = self.config.cores[0].hz * window;
                let t = self.now.as_secs_f64();
                for i in 0..self.processes.len() {
                    let pct = self.processes[i].sample_busy / cycles_per_core * 100.0;
                    let channel = format!("cpu:{}", self.processes[i].name);
                    self.recorder.add_point(&channel, t, pct);
                    self.processes[i].sample_busy = 0.0;
                }
                self.last_sample = self.now;
            }

            // 7. Telemetry: advance the published virtual clock and
            //    attribute this tick's cycles to each process's component
            //    counter (the raw material of the Fig. 3–4 breakdown).
            if telemetry_on {
                telemetry::set_virtual_now_ns(self.now.as_nanos());
                telemetry::incr(MetricId::SimTicks);
                telemetry::add(MetricId::SimJobsCompleted, n_completed as u64);
                for (i, process) in self.processes.iter().enumerate() {
                    if process.tick_used > 0.0 {
                        telemetry::add(self.cycle_metric[i], process.tick_used as u64);
                    }
                }
            }
        }
    }

    /// A model that feeds `total` equal jobs to each of its processes
    /// at start, then counts completions.
    struct Feeder {
        targets: Vec<ProcessId>,
        per_job_cycles: f64,
        total: u32,
        injected: bool,
        completions: Vec<u32>,
    }

    impl Model for Feeder {
        fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
            if self.injected {
                return;
            }
            self.injected = true;
            for &target in &self.targets {
                for _ in 0..self.total {
                    ctx.push(target, Job::new(0, self.per_job_cycles));
                }
            }
        }

        fn on_job_complete(&mut self, pid: ProcessId, _job: Job, _ctx: &mut TickContext<'_>) {
            self.completions[pid.0] += 1;
        }
    }

    fn feeder_sim(ncores: usize, nprocs: usize, per_job: f64, total: u32) -> Simulator<Feeder> {
        let cores = vec![CoreSpec::ghz(1.0); ncores];
        Simulator::new(SimConfig::new(cores), |builder| {
            let targets: Vec<ProcessId> = (0..nprocs)
                .map(|i| builder.add_process(&format!("p{i}"), SchedClass::User))
                .collect();
            Feeder {
                targets,
                per_job_cycles: per_job,
                total,
                injected: false,
                completions: vec![0; nprocs],
            }
        })
    }

    #[test]
    fn single_process_throughput_matches_core_speed() {
        // 1 GHz core, 1 M cycles per job → 1000 jobs/s.
        let mut sim = feeder_sim(1, 1, 1_000_000.0, 500);
        let outcome = sim.run(SimDuration::from_secs(10));
        assert!(outcome.went_idle());
        // 500 jobs at 1 ms each = 0.5 s (+ one idle-detection tick).
        let secs = outcome.elapsed.as_secs_f64();
        assert!((0.49..0.55).contains(&secs), "elapsed {secs}");
        assert_eq!(sim.model().completions[0], 500);
    }

    #[test]
    fn two_processes_share_one_core_fairly() {
        let mut sim = feeder_sim(1, 2, 1_000_000.0, 300);
        sim.run(SimDuration::from_secs(10));
        // Both finish the same amount of work; total time doubles.
        assert_eq!(sim.model().completions, vec![300, 300]);
        let busy0 = sim.process_stats(ProcessId(0)).busy_cycles;
        let busy1 = sim.process_stats(ProcessId(1)).busy_cycles;
        assert!((busy0 - busy1).abs() < 1e-3);
    }

    #[test]
    fn two_processes_on_two_cores_run_in_parallel() {
        let mut one_core = feeder_sim(1, 2, 1_000_000.0, 300);
        let t1 = one_core.run(SimDuration::from_secs(10)).elapsed;
        let mut two_cores = feeder_sim(2, 2, 1_000_000.0, 300);
        let t2 = two_cores.run(SimDuration::from_secs(10)).elapsed;
        let ratio = t1.as_secs_f64() / t2.as_secs_f64();
        assert!(ratio > 1.9, "two cores should ~halve the time, got {ratio}");
    }

    #[test]
    fn single_process_cannot_exceed_one_core() {
        // One process, two cores: the second core must stay unused.
        let mut sim = feeder_sim(2, 1, 1_000_000.0, 300);
        let elapsed = sim.run(SimDuration::from_secs(10)).elapsed;
        let secs = elapsed.as_secs_f64();
        assert!((0.29..0.35).contains(&secs), "elapsed {secs}");
    }

    /// Interrupt work starves user work, not vice versa.
    struct PriorityModel {
        interrupt: ProcessId,
        user: ProcessId,
        ticks: u64,
        user_done: u32,
        interrupt_done: u32,
    }

    impl Model for PriorityModel {
        fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
            self.ticks += 1;
            if self.ticks == 1 {
                // 10 M cycles of user work (10 ms on one core).
                for _ in 0..10 {
                    ctx.push(self.user, Job::new(1, 1_000_000.0));
                }
            }
            if self.ticks <= 20 {
                // Interrupt load filling 80 % of every tick.
                ctx.push(self.interrupt, Job::new(0, 800_000.0));
            }
        }

        fn on_job_complete(&mut self, pid: ProcessId, _job: Job, _ctx: &mut TickContext<'_>) {
            if pid == self.user {
                self.user_done += 1;
            } else {
                self.interrupt_done += 1;
            }
        }
    }

    #[test]
    fn interrupts_preempt_user_work() {
        let mut sim = Simulator::new(SimConfig::new(vec![CoreSpec::ghz(1.0)]), |b| {
            PriorityModel {
                interrupt: b.add_process("irq", SchedClass::Interrupt),
                user: b.add_process("bgp", SchedClass::User),
                ticks: 0,
                user_done: 0,
                interrupt_done: 0,
            }
        });
        let outcome = sim.run(SimDuration::from_secs(1));
        assert!(outcome.went_idle());
        // All interrupt jobs ran; user work got only the leftover 20 %
        // for the first 20 ticks, so it finished well after tick 10.
        assert_eq!(sim.model().interrupt_done, 20);
        assert_eq!(sim.model().user_done, 10);
        // 10 M user cycles at 0.2 M cycles/tick for 20 ticks = 4 M done,
        // remaining 6 M at full speed = 6 ticks; total ≳ 26 ticks.
        assert!(sim.now().as_secs_f64() >= 0.026);
    }

    #[test]
    fn cpu_load_series_are_recorded() {
        let mut sim = feeder_sim(1, 1, 1_000_000.0, 500);
        sim.run(SimDuration::from_secs(10));
        let series = sim.recorder().series("cpu:p0").expect("series exists");
        assert!(!series.is_empty());
        // While saturated, load is ~100 % of one core.
        assert!(series.max_value() > 99.0);
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut sim = feeder_sim(1, 1, 1_000_000.0, 1000);
        let outcome = sim.run_until(SimDuration::from_secs(10), |m| m.completions[0] >= 100);
        assert_eq!(outcome.reason, StopReason::Predicate);
        assert!(sim.model().completions[0] >= 100);
        assert!(sim.model().completions[0] < 150);
    }

    #[test]
    fn run_hits_limit_when_work_remains() {
        let mut sim = feeder_sim(1, 1, 1_000_000.0, 100_000);
        let outcome = sim.run(SimDuration::from_millis(50));
        assert_eq!(outcome.reason, StopReason::Limit);
        assert_eq!(outcome.elapsed, SimDuration::from_millis(50));
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let run = || {
            let mut sim = feeder_sim(2, 3, 777_777.0, 123);
            let outcome = sim.run(SimDuration::from_secs(10));
            (
                outcome.elapsed,
                sim.model().completions.clone(),
                sim.process_stats(ProcessId(0)).busy_cycles,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "cores must be symmetric")]
    fn asymmetric_cores_rejected() {
        let _ = SimConfig::new(vec![CoreSpec::ghz(1.0), CoreSpec::ghz(2.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_cores_rejected() {
        let _ = SimConfig::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_process_names_rejected() {
        let mut builder = ProcessBuilder::default();
        builder.add_process("bgp", SchedClass::User);
        builder.add_process("bgp", SchedClass::Kernel);
    }

    /// One scripted injection: `(tick, process, cycles, delay choice,
    /// follow-up chain length)`.
    type Injection = (u64, usize, f64, usize, u16);

    /// A model exercising every scheduler path: scripted injections
    /// with and without delays, follow-up pushes from completions,
    /// flow control on queue lengths from both callbacks, and custom
    /// recorder channels. It logs every completion.
    struct Mix {
        targets: Vec<ProcessId>,
        script: Vec<Injection>,
        /// `(ns, pid, kind, count, tag, cycle bits, delay)` per completion.
        log: Vec<(u64, usize, u16, u32, u64, u64, u64)>,
    }

    impl Model for Mix {
        fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
            let tick = ctx.now().as_nanos() / 1_000_000;
            for &(at, proc_index, cycles, delay, chain) in &self.script {
                let target = self.targets[proc_index];
                if at == tick && ctx.queue_len(target) < 10 {
                    let delay_ns = [0, 0, 400_000, 2_300_000][delay];
                    let job = Job::new(chain, cycles)
                        .with_tag(proc_index as u64)
                        .with_delay_ns(delay_ns);
                    ctx.push(target, job);
                }
            }
            let backlog: usize = self.targets.iter().map(|&t| ctx.queue_len(t)).sum();
            ctx.record("backlog", backlog as f64);
        }

        fn on_job_complete(&mut self, pid: ProcessId, job: Job, ctx: &mut TickContext<'_>) {
            self.log.push((
                ctx.now().as_nanos(),
                pid.0,
                job.kind,
                job.count,
                job.tag,
                job.cycles.to_bits(),
                job.delay_ns,
            ));
            ctx.record("done", job.cycles);
            if job.kind > 0 {
                let next = self.targets[(pid.0 + job.tag as usize + 1) % self.targets.len()];
                if ctx.queue_len(next) < 6 {
                    let follow = Job::new(job.kind - 1, job.cycles * 0.5 + 1_000.0)
                        .with_count(job.count + 1)
                        .with_tag(job.tag + 1)
                        .with_delay_ns(job.delay_ns / 2);
                    ctx.push(next, follow);
                }
            }
        }
    }

    fn mix_sim(cores: usize, classes: &[SchedClass], script: &[Injection]) -> Simulator<Mix> {
        let config = SimConfig::new(vec![CoreSpec::ghz(1.0); cores])
            .with_sample_every(SimDuration::from_millis(7));
        Simulator::new(config, |builder| Mix {
            targets: classes
                .iter()
                .enumerate()
                .map(|(i, &class)| builder.add_process(&format!("p{i}"), class))
                .collect(),
            script: script
                .iter()
                .map(|&(at, p, cycles, delay, chain)| (at, p % classes.len(), cycles, delay, chain))
                .collect(),
            log: Vec::new(),
        })
    }

    fn series_bits(sim: &Simulator<Mix>) -> Vec<(String, Vec<(u64, u64)>)> {
        let recorder = sim.recorder();
        recorder
            .channels()
            .map(|channel| {
                let points = recorder.series(channel).map_or(&[][..], Series::points);
                let bits = points.iter().map(|&(t, v)| (t.to_bits(), v.to_bits()));
                (channel.to_owned(), bits.collect())
            })
            .collect()
    }

    fn arb_class() -> impl Strategy<Value = SchedClass> {
        prop_oneof![
            Just(SchedClass::Interrupt),
            Just(SchedClass::Kernel),
            Just(SchedClass::User),
        ]
    }

    proptest! {
        /// The owned-buffer, class-list scheduler is bit-identical to
        /// the reference: the same completions in the same order, the
        /// same per-process cycle totals, the same recorder series.
        #[test]
        fn scheduler_equivalence(
            cores in 1usize..5,
            classes in prop::collection::vec(arb_class(), 1..8),
            script in prop::collection::vec(
                (0u64..40, 0usize..8, 0.0f64..3_000_000.0, 0usize..4, 0u16..4),
                1..60,
            ),
        ) {
            let mut fast = mix_sim(cores, &classes, &script);
            let mut reference = mix_sim(cores, &classes, &script);
            for _ in 0..300 {
                fast.step();
                reference.step_reference();
                prop_assert_eq!(fast.step_was_active, reference.step_was_active);
            }
            prop_assert_eq!(&fast.model().log, &reference.model().log);
            for i in 0..classes.len() {
                let (a, b) = (fast.process_stats(ProcessId(i)), reference.process_stats(ProcessId(i)));
                prop_assert_eq!(a.busy_cycles.to_bits(), b.busy_cycles.to_bits());
                prop_assert_eq!(a.jobs_completed, b.jobs_completed);
            }
            prop_assert_eq!(series_bits(&fast), series_bits(&reference));
            prop_assert_eq!(fast.is_idle(), reference.is_idle());
        }
    }
}
