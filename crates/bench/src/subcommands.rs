//! The `bgpbench` subcommand registry: one row per table or figure of
//! the paper's evaluation (and the extension sweeps), all under the
//! one [`Cli`].

use bgpbench_core::experiments::{figure3, figure4, figure5, figure6, table3};
use bgpbench_core::extensions::{core_scaling, packet_size_sweep};
use bgpbench_core::{convergence_report, fig34_breakdown, flap_storm_figure, CellSpec, Scenario};
use bgpbench_models::{all_platforms, xeon};

use crate::cli::{Cli, USAGE_FLAGS};
use crate::statics;

/// One `bgpbench` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Subcommand {
    /// The name on the command line.
    pub name: &'static str,
    /// One line for the usage listing.
    pub about: &'static str,
    /// Regenerates the artifact and prints it per the command line.
    pub run: fn(&Cli),
}

/// Every subcommand, in usage-listing order.
pub const SUBCOMMANDS: [Subcommand; 11] = [
    Subcommand {
        name: "table1",
        about: "Table I: the benchmark scenario definitions",
        run: |cli| cli.emit(&statics::table1()),
    },
    Subcommand {
        name: "table2",
        about: "Table II: the modeled system configurations",
        run: |cli| cli.emit(&statics::table2()),
    },
    Subcommand {
        name: "table3",
        about: "Table III: transactions/s, 8 scenarios x 4 platforms, next to the paper's numbers",
        run: run_table3,
    },
    Subcommand {
        name: "fig3",
        about: "Fig. 3: per-process CPU load during Scenario 6 on the three XORP platforms",
        run: |cli| cli.emit(&figure3(&mut cli.runner(), &cli.config)),
    },
    Subcommand {
        name: "fig4",
        about: "Fig. 4: Pentium III CPU load with small (Scenario 1) vs large (Scenario 2) packets",
        run: |cli| cli.emit(&figure4(&mut cli.runner(), &cli.config)),
    },
    Subcommand {
        name: "fig5",
        about: "Fig. 5: transactions/s versus cross-traffic for every scenario and platform",
        run: run_fig5,
    },
    Subcommand {
        name: "fig6",
        about: "Fig. 6: Pentium III CPU breakdown during Scenario 8 without and with cross-traffic",
        run: |cli| cli.emit(&figure6(&mut cli.runner(), &cli.config)),
    },
    Subcommand {
        name: "ablation_packets",
        about: "Ablation: transactions/s versus prefixes per UPDATE (the paper's §V.C aggregation implication)",
        run: run_ablation_packets,
    },
    Subcommand {
        name: "ablation_cores",
        about: "Ablation: start-up throughput versus control cores on the Xeon cost table",
        run: run_ablation_cores,
    },
    Subcommand {
        name: "fig34_breakdown",
        about: "Figs. 3-4 measured: per-process shares from telemetry spans (cells run serially)",
        run: run_fig34_breakdown,
    },
    Subcommand {
        name: "faults",
        about: "Scenarios 9-12 convergence table plus the S9 flap-storm sweep (second CSV: <path>_sweep)",
        run: run_faults,
    },
];

/// Runs the subcommand the process's arguments name; prints the usage
/// and exits with status 2 on an unknown or missing subcommand or an
/// invalid flag.
pub fn run_from_env() {
    let mut args = std::env::args().skip(1);
    let name = args.next();
    let Some(subcommand) = SUBCOMMANDS
        .iter()
        .find(|row| Some(row.name) == name.as_deref())
    else {
        usage_exit(&match name {
            Some(name) => format!("unknown subcommand `{name}`"),
            None => "missing subcommand".to_owned(),
        });
    };
    match Cli::parse(args) {
        Ok(cli) => {
            cli.arm_recorders();
            (subcommand.run)(&cli);
        }
        Err(message) => usage_exit(&message),
    }
}

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: bgpbench <subcommand> {USAGE_FLAGS}");
    eprintln!("subcommands:");
    for row in &SUBCOMMANDS {
        eprintln!("  {:<17} {}", row.name, row.about);
    }
    std::process::exit(2);
}

fn run_table3(cli: &Cli) {
    eprintln!(
        "running 8 scenarios x 4 platforms ({}/{} prefixes small/large) on {} threads...",
        cli.config.small_prefixes, cli.config.large_prefixes, cli.threads
    );
    let table = table3(&mut cli.runner(), &cli.config);
    cli.emit_with_verdict(
        &table,
        &table.check_observations(),
        "all of the paper's Table III observations reproduced",
        "observation mismatches:",
    );
}

fn run_fig5(cli: &Cli) {
    eprintln!(
        "sweeping cross-traffic over 8 scenarios x 4 platforms x {} levels on {} threads...",
        cli.config.cross_points, cli.threads
    );
    cli.emit(&figure5(&mut cli.runner(), &cli.config));
}

fn run_ablation_packets(cli: &Cli) {
    let figure = packet_size_sweep(
        &mut cli.runner(),
        &all_platforms(),
        cli.config.large_prefixes.min(4000),
        cli.config.seed,
    );
    cli.emit(&figure);
}

fn run_ablation_cores(cli: &Cli) {
    let figure = core_scaling(
        &mut cli.runner(),
        &xeon(),
        cli.config.large_prefixes.min(4000),
        cli.config.seed,
    );
    cli.emit(&figure);
}

/// Cells run serially regardless of `--threads`: the telemetry
/// registry is process-global, so parallel cells would blend their
/// attribution.
fn run_fig34_breakdown(cli: &Cli) {
    eprintln!(
        "measuring 8 scenarios on the Pentium III ({}/{} prefixes small/large), serially...",
        cli.config.small_prefixes, cli.config.large_prefixes
    );
    let breakdown = fig34_breakdown(&cli.config);
    cli.emit_with_verdict(
        &breakdown,
        &breakdown.check_shape(),
        "the paper's Fig. 3-4 shape emerges from the instrumentation",
        "shape mismatches:",
    );
}

/// Storm-flap spacings swept for the figure, densest first; `--quick`
/// takes the first `cross_points` of them.
const FLAP_INTERVALS: [u64; 6] = [400, 800, 1500, 2500, 4000, 6000];

/// Two artifacts: the S9–S12 convergence table (ticks to converge,
/// session flaps, duplicate re-advertisements, purged prefixes) and
/// the flap-storm figure (convergence time and duplicate announcements
/// versus flap rate). With `--csv <path>`, the table goes to `<path>`
/// and the figure to `<path>` with a `_sweep` suffix on its stem.
fn run_faults(cli: &Cli) {
    let platforms = all_platforms();
    let intervals = &FLAP_INTERVALS[..cli.config.cross_points.min(FLAP_INTERVALS.len())];
    let base = CellSpec::new(Scenario::S9, platforms[0].clone())
        .prefixes(cli.config.small_prefixes)
        .seed(cli.config.seed);
    eprintln!(
        "running scenarios 9-12 x {} platforms plus a {}-point flap sweep ({} prefixes/peer) on {} threads...",
        platforms.len(),
        intervals.len(),
        cli.config.small_prefixes,
        cli.threads
    );
    let mut runner = cli.runner();
    let report = convergence_report(&mut runner, &platforms, &base);
    let figure = flap_storm_figure(&mut runner, &platforms, intervals, &base);
    cli.emit(&report);
    cli.emit_second(&figure, "_sweep");
}
