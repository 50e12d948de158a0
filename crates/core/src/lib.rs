//! The BGP router benchmark of *Benchmarking BGP Routers* (IISWC
//! 2007): scenario definitions, the two-speaker/three-phase
//! methodology, the transactions-per-second metric, and the experiment
//! drivers that regenerate every table and figure of the paper.
//!
//! # The benchmark in one paragraph
//!
//! A router under test peers with two speakers (paper Fig. 1). In
//! Phase 1, Speaker 1 injects a full routing table; in Phase 2 the
//! router re-advertises its table to Speaker 2; in Phase 3 a speaker
//! sends incremental updates. Eight scenarios (Table I) cross the BGP
//! operation {start-up announce, ending withdraw, incremental announce
//! that loses the decision process, incremental announce that wins it}
//! with the packetization {1 prefix per UPDATE, 500 prefixes per
//! UPDATE}. Only the scenario's relevant phase is timed; the score is
//! prefix-level *transactions per second*.
//!
//! # Entry points
//!
//! * [`Scenario`] — the open scenario registry: the paper's eight
//!   ([`Scenario::ALL`]) plus the session-churn fault scenarios
//!   S9–S12 ([`Scenario::FAULTS`]), the route-map policy scenarios
//!   S13–S15 ([`Scenario::POLICY`], see [`PolicyProfile`]), and the
//!   Internet-scale full-table scenarios S16–S18
//!   ([`Scenario::FULLTABLE`], driven by a [`WorkloadSpec`] source);
//! * [`CellSpec`] — the one run description: a scenario × platform
//!   cell as data, with a builder for sizing, seed, cross-traffic,
//!   policy, workload and churn knobs, and the `run*` methods that
//!   execute it;
//! * [`Topology`] — the multi-peer session engine: N speakers, a
//!   per-peer RFC 4271 FSM, and a seeded [`FaultPlan`] injected at the
//!   simnet layer (see [`topology`] and [`faults`]);
//! * [`GridRunner`] — executes cell grids across a thread pool with
//!   bit-identical serial/parallel results (see [`runner`]);
//! * [`experiments`] — drivers for Table III and Figures 3–6, all
//!   running on the grid engine;
//! * [`breakdown`] — the Fig. 3–4 per-process decomposition re-derived
//!   from telemetry spans and simulator cycle attribution instead of
//!   model constants;
//! * [`live`] — the same methodology against a real BGP daemon over
//!   TCP;
//! * [`report`] — the [`Render`] trait: text and CSV output for every
//!   table and figure, next to the paper's numbers.
//!
//! # Examples
//!
//! ```
//! use bgpbench_core::{CellSpec, Scenario};
//! use bgpbench_models::xeon;
//!
//! let result = CellSpec::new(Scenario::S2, xeon()).prefixes(500).seed(1).run();
//! assert_eq!(result.transactions, 500);
//! assert!(result.tps() > 100.0);
//! ```

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod experiments;
pub mod extensions;
pub mod faults;
mod harness;
pub mod live;
mod plan;
pub mod policy;
pub mod report;
pub mod runner;
mod scenario;
pub mod topology;

pub use bgpbench_speaker::{BurstSpec, WorkloadError, WorkloadSource, WorkloadSpec};
pub use breakdown::{fig34_breakdown, BreakdownRow, Fig34Breakdown};
pub use faults::{FaultAction, FaultEvent, FaultPlan};
pub use harness::{ChurnConfig, RepeatedResult, ScenarioResult};
pub use policy::PolicyProfile;
pub use report::{Render, StaticReport};
pub use runner::{
    CellError, CellRun, CellSpec, ExperimentSpec, GridRunner, NullObserver, RunObserver,
    StderrProgress,
};
pub use scenario::{BgpOperation, ChurnKind, PacketSize, Scenario, ScenarioSpec, WorkloadKind};
pub use topology::{
    convergence_report, flap_storm_figure, ConvergenceOutcome, ConvergenceReport, ConvergenceRun,
    Topology,
};
