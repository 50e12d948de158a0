//! A steady-state tick allocates nothing: the simulator owns its
//! per-tick buffers, so once they and the run queues have grown to the
//! workload's size, ticking touches the heap no more.
//!
//! The shared counting `#[global_allocator]`
//! (`tests/support/counting_alloc.rs`) measures it.

use bgpbench_simnet::{
    CoreSpec, Job, Model, ProcessId, SchedClass, SimConfig, SimDuration, Simulator, TickContext,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// Every tick, one job to each process from `on_tick`; every finished
/// first-stage job pushes a second stage to the next process from
/// `on_job_complete`. The load is well under two cores, so the queues
/// stay bounded.
struct Pipeline {
    procs: Vec<ProcessId>,
}

impl Model for Pipeline {
    fn on_tick(&mut self, ctx: &mut TickContext<'_>) {
        for &pid in &self.procs {
            ctx.push(pid, Job::new(1, 150_000.0));
        }
    }

    fn on_job_complete(&mut self, pid: ProcessId, job: Job, ctx: &mut TickContext<'_>) {
        if job.kind == 1 {
            let at = self.procs.iter().position(|&p| p == pid).unwrap_or(0);
            let next = self.procs[(at + 1) % self.procs.len()];
            ctx.push(next, Job::new(2, 100_000.0).with_delay_ns(500_000));
        }
    }
}

#[test]
fn steady_state_ticks_allocate_nothing() {
    const WARM_UP: usize = 1_000;
    const MEASURED: usize = 10_000;
    // One sample period longer than the whole run: a recorder point
    // grows its series, which is the recorder's job, not the tick's.
    let config =
        SimConfig::new(vec![CoreSpec::ghz(1.0); 2]).with_sample_every(SimDuration::from_secs(60));
    let mut sim = Simulator::new(config, |builder| Pipeline {
        procs: vec![
            builder.add_process("irq", SchedClass::Interrupt),
            builder.add_process("kernel", SchedClass::Kernel),
            builder.add_process("bgp", SchedClass::User),
            builder.add_process("rib", SchedClass::User),
        ],
    });
    for _ in 0..WARM_UP {
        sim.step();
    }
    let done_before = sim.process_stats(sim.model().procs[3]).jobs_completed;

    let ((), allocs) = allocations(|| {
        for _ in 0..MEASURED {
            sim.step();
        }
    });

    let completed = sim.process_stats(sim.model().procs[3]).jobs_completed - done_before;
    assert!(
        completed >= 2 * MEASURED as u64,
        "the workload ran: {completed}"
    );
    assert_eq!(allocs, 0, "{MEASURED} ticks made {allocs} allocations");
}
