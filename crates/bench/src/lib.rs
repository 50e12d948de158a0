//! Shared driver for the benchmark binaries (`table1`–`table3`,
//! `fig3`–`fig6`, `fig34_breakdown`, `ablation_*`, `faults`,
//! `perf_baseline`). Host-time measurement lives in one place: the
//! repo benchmark under `benchmark/` (end to end and per layer) and
//! `perf_baseline`'s RIB samplers.
//!
//! Every binary regenerates one table or figure of the paper's
//! evaluation section. All of them share one command line ([`cli`]):
//!
//! * `--quick` — reduced workload sizes for smoke runs;
//! * `--threads <n>` — worker threads for the experiment grid
//!   (defaults to the host's parallelism; results are bit-identical
//!   at any thread count);
//! * `--csv [<path>]` — emit the artifact's raw data as CSV, to the
//!   given file or to stdout;
//! * `--telemetry [text|json|csv]` — enable the telemetry registry for
//!   the run and dump its snapshot to stderr at the end.

#![forbid(unsafe_code)]

pub mod cli;
pub mod statics;

pub use cli::{Cli, TelemetryFormat};
