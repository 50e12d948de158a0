//! A deterministic, tick-based multi-core CPU simulator.
//!
//! The paper measures four physical router platforms; this crate is the
//! substitute substrate: it models *where CPU cycles go* — across
//! cores, scheduling classes (interrupt ≻ kernel ≻ user), and
//! single-threaded processes — with enough fidelity to reproduce the
//! paper's CPU-load time series (Figs. 3, 4, 6) and throughput trends
//! (Table III, Fig. 5).
//!
//! Time advances in fixed ticks. Each tick the simulator:
//!
//! 1. asks the [`Model`] to inject work ([`Model::on_tick`]) — packet
//!    arrivals, periodic housekeeping, cross-traffic interrupts;
//! 2. distributes the cores' cycle budget over runnable processes:
//!    strictly by scheduling class, fair-share (water-filling) within a
//!    class, with each process capped at one core's worth of cycles per
//!    tick (processes are single-threaded — this cap is what makes a
//!    dual-core machine behave like the paper's Xeon in Fig. 3b);
//! 3. reports completed [`Job`]s back to the model
//!    ([`Model::on_job_complete`]), which may enqueue follow-up jobs —
//!    that is how a multi-process pipeline like XORP's is expressed;
//! 4. samples per-process CPU load into the [`Recorder`].
//!
//! Everything is deterministic: the same model and parameters produce
//! bit-identical results.
//!
//! A steady-state tick allocates nothing: the simulator owns its
//! per-tick buffers and lists each class's processes once, at build
//! time, so only the model's own work and a new recorder point touch
//! the heap.
//!
//! # Examples
//!
//! A single process burning through one job:
//!
//! ```
//! use bgpbench_simnet::{
//!     CoreSpec, Job, Model, ProcessId, SchedClass, SimConfig, SimDuration, Simulator,
//!     TickContext,
//! };
//!
//! struct OneShot {
//!     target: ProcessId,
//!     injected: bool,
//!     completed: u32,
//! }
//!
//! impl Model for OneShot {
//!     fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
//!         if !self.injected {
//!             self.injected = true;
//!             // 2.5 million cycles on a 1 GHz core = 2.5 ms of work.
//!             ctx.push(self.target, Job::new(0, 2_500_000.0));
//!         }
//!     }
//!     fn on_job_complete(&mut self, _pid: ProcessId, _job: Job, _ctx: &mut TickContext<'_>) {
//!         self.completed += 1;
//!     }
//! }
//!
//! let mut sim = Simulator::new(
//!     SimConfig::new(vec![CoreSpec::ghz(1.0)]),
//!     |builder| OneShot {
//!         target: builder.add_process("worker", SchedClass::User),
//!         injected: false,
//!         completed: 0,
//!     },
//! );
//! let outcome = sim.run(SimDuration::from_secs(1));
//! assert!(outcome.went_idle());
//! assert_eq!(sim.model().completed, 1);
//! // 2.5 ms of work at 1 ms ticks finishes during the third tick; the
//! // run ends one tick later when the simulator observes the drain.
//! assert_eq!(outcome.elapsed.as_millis(), 4);
//! ```

#![forbid(unsafe_code)]

mod process;
mod recorder;
mod simulator;
mod time;

pub use process::{Job, ProcessId, ProcessStats, SchedClass};
pub use recorder::{Recorder, Series};
pub use simulator::{Model, ProcessBuilder, RunOutcome, SimConfig, Simulator, TickContext};
pub use time::{SimDuration, SimTime};

/// Core speed expressed as *reference cycles per second*.
///
/// Platform cost tables are written in reference cycles; a platform's
/// effective speed folds clock rate and IPC differences into one number
/// (e.g. the paper's 800 MHz Pentium III ≈ 0.8 G reference cycles/s,
/// the XScale far less despite its 600 MHz clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSpec {
    /// Reference cycles per second this core retires.
    pub hz: f64,
}

impl CoreSpec {
    /// A core retiring `ghz` billion reference cycles per second.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "core speed must be positive");
        CoreSpec { hz: ghz * 1e9 }
    }
}
