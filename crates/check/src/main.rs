//! `bgpbench-check`: the workspace's fuzzing and dynamic-analysis
//! front end.
//!
//! ```text
//! bgpbench-check fuzz-wire [--seed N] [--iters N] [--target wire|mrt]
//! bgpbench-check fuzz-wire --repro HEX
//! bgpbench-check trace-schema PATH
//! bgpbench-check races [--seeded]        (needs --features check-sync)
//! ```
//!
//! `fuzz-wire` exits 1 when a mutant violates a fuzz property (and
//! prints a minimized hex reproducer); `trace-schema` exits 1 when a
//! `--trace` dump is not valid Chrome trace-event JSON; `races` runs
//! the instrumented parallel models under the happens-before detector
//! and exits 1 on any unordered conflicting access pair (`--seeded`
//! inverts it: run the deliberately racy model and exit 0 only if the
//! detector catches it). All are wired into CI.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use bgpbench_check::fuzz;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz-wire") => run_fuzz(&args[1..]),
        Some("trace-schema") => run_trace_schema(&args[1..]),
        Some("races") => run_races(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print_usage();
            ExitCode::SUCCESS
        }
        other => {
            if let Some(cmd) = other {
                eprintln!("unknown command `{cmd}`\n");
            }
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         bgpbench-check fuzz-wire [--seed N] [--iters N] [--target wire|mrt]\n  \
         bgpbench-check fuzz-wire --repro HEX\n  \
         bgpbench-check trace-schema PATH\n  \
         bgpbench-check races [--seeded]"
    );
}

/// Validates a `--trace` dump as Chrome trace-event JSON and prints
/// its track census (the CI trace-smoke step gates on this).
fn run_trace_schema(args: &[String]) -> ExitCode {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("trace-schema needs the path of a trace dump");
        return ExitCode::from(2);
    };
    let body = match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(err) => {
            eprintln!("{path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match bgpbench_telemetry::trace::export::validate_chrome_json(&body) {
        Ok(stats) => {
            println!(
                "trace-schema: {path}: {} event(s), {} thread / {} shard / {} peer track(s)",
                stats.events, stats.thread_tracks, stats.shard_tracks, stats.peer_tracks
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{path}: invalid Chrome trace JSON: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Value of `--flag VALUE` in `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Runs the instrumented parallel models under the happens-before
/// detector. Without the `check-sync` feature the shims record
/// nothing, so the pass explains itself and exits 2 rather than
/// reporting a vacuous pass.
#[cfg(feature = "check-sync")]
fn run_races(args: &[String]) -> ExitCode {
    use bgpbench_check::race_models;

    if args.iter().any(|a| a == "--seeded") {
        // Negative control: the detector must catch the planted race.
        let report = race_models::seeded_race_model();
        for race in &report.races {
            println!("races: seeded: {race}");
        }
        return if report.races.iter().any(|race| race.write_write()) {
            println!(
                "races: seeded control caught ({} access(es) over {} cell(s))",
                report.accesses_checked, report.cells_seen
            );
            ExitCode::SUCCESS
        } else {
            println!("races: seeded control NOT caught — detector is broken");
            ExitCode::FAILURE
        };
    }

    let mut racy = 0usize;
    for (name, expect_clean, report) in race_models::run_all() {
        for race in &report.races {
            println!("races: {name}: {race}");
        }
        let verdict = if report.is_race_free() { "ok" } else { "RACES" };
        println!(
            "races: {name}: {verdict} — {} event(s) replayed, {} access(es) over {} cell(s), {} race(s)",
            report.events_replayed,
            report.accesses_checked,
            report.cells_seen,
            report.races.len()
        );
        if expect_clean && !report.is_race_free() {
            racy += 1;
        }
    }
    if racy == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(not(feature = "check-sync"))]
fn run_races(_args: &[String]) -> ExitCode {
    eprintln!(
        "races: the shims recorded nothing — rebuild with\n  \
         cargo run -p bgpbench-check --features check-sync -- races"
    );
    ExitCode::from(2)
}

fn run_fuzz(args: &[String]) -> ExitCode {
    let target = match fuzz::Target::from_name(flag_value(args, "--target").unwrap_or("wire")) {
        Some(target) => target,
        None => {
            eprintln!("--target expects `wire` or `mrt`");
            return ExitCode::from(2);
        }
    };
    if let Some(hex) = flag_value(args, "--repro") {
        return match fuzz::run_reproducer_target(target, hex) {
            Ok(()) => {
                println!("reproducer no longer fails");
                ExitCode::SUCCESS
            }
            Err(failure) => {
                println!("reproducer still fails: {failure}");
                ExitCode::FAILURE
            }
        };
    }

    let seed = match flag_value(args, "--seed").unwrap_or("7").parse::<u64>() {
        Ok(seed) => seed,
        Err(_) => {
            eprintln!("--seed expects an unsigned integer");
            return ExitCode::from(2);
        }
    };
    let iters = match flag_value(args, "--iters")
        .unwrap_or("10000")
        .parse::<u64>()
    {
        Ok(iters) => iters,
        Err(_) => {
            eprintln!("--iters expects an unsigned integer");
            return ExitCode::from(2);
        }
    };

    let report = fuzz::run_target(target, seed, iters);
    println!(
        "fuzz-wire[{}]: seed {}, {} iteration(s): {} decoded, {} rejected with typed errors",
        target.name(),
        report.seed,
        report.iterations,
        report.decoded_ok,
        report.rejected
    );
    match report.failure {
        None => ExitCode::SUCCESS,
        Some(reproducer) => {
            println!("FAILURE at {reproducer}");
            println!(
                "replay with: bgpbench-check fuzz-wire --target {} --repro {}",
                target.name(),
                reproducer.hex()
            );
            ExitCode::FAILURE
        }
    }
}
