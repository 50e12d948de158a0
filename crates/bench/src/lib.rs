//! The `bgpbench` binary: `bgpbench <subcommand> [flags]`, one
//! subcommand per table or figure of the paper's evaluation section
//! ([`SUBCOMMANDS`]: `table1`–`table3`, `fig3`–`fig6`,
//! `fig34_breakdown`, `ablation_*`, `faults`). Everything here is
//! cycle-model output; host-time measurement lives in one place, the
//! repo benchmark under `benchmark/` (end to end and per layer).
//!
//! All subcommands share one command line ([`cli`]):
//!
//! * `--quick` — reduced workload sizes for smoke runs;
//! * `--threads <n>` — worker threads for the experiment grid
//!   (defaults to the host's parallelism; results are bit-identical
//!   at any thread count);
//! * `--csv [<path>]` — emit the artifact's raw data as CSV, to the
//!   given file or to stdout;
//! * `--prefixes <n>` — resize the routing tables;
//! * `--telemetry [text|json|csv]` — enable the telemetry registry for
//!   the run and dump its snapshot to stderr at the end;
//! * `--trace <path>` — record a flight-recorder timeline and write it
//!   as Chrome trace-event JSON.

#![forbid(unsafe_code)]

pub mod cli;
pub mod statics;
pub mod subcommands;

pub use cli::{Cli, TelemetryFormat};
pub use subcommands::{Subcommand, SUBCOMMANDS};
