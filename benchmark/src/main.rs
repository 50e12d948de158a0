//! The repo benchmark: live-daemon end-to-end runs and an outside-in
//! per-layer ledger. See README.md next to this package.
//!
//! ```text
//! bgpbench-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! Prints the host and input record, every metric by name with its
//! unit, and, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero if
//! any correctness check failed.

mod alloc;
mod digest;
mod host;
mod inputs;
mod live;
mod metrics;
mod replica;
mod run;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Workload;
use run::Options;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: bgpbench-benchmark --workload <fulltable_large|startup_small|\
churn_flood|churn_paced|sim_table3> [--seed <n>] [--seconds <s>] [--trace <0|1> | --traced] \
[--smoke]";

struct Cli {
    options: Options,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 2007;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let parsed: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Cli {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            // The smoke size is for `cargo test`: seconds, not minutes.
            seconds: seconds.unwrap_or(if smoke { 1.0 } else { 20.0 }),
            smoke,
        },
        traced,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let options = &cli.options;
    println!(
        "workload {} | seed {} | {} s | {} | {} size",
        options.workload.name(),
        options.seed,
        options.seconds,
        if cli.traced {
            "traced (per-layer)"
        } else {
            "end to end"
        },
        if options.smoke { "smoke" } else { "full" }
    );
    println!("host: {}", host::record());

    let outcome = if cli.traced {
        run::traced(options)
    } else {
        run::end_to_end(options)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    let correct = outcome.failed == 0 && !outcome.metrics.is_empty();
    println!(
        "failed_share {} of {} operations",
        outcome.failed, outcome.attempted
    );
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&args(
            "--workload churn_paced --seed 41 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.options.workload, Workload::ChurnPaced);
        assert_eq!(cli.options.seed, 41);
        assert_eq!(cli.options.seconds, 12.0);
        assert!(cli.traced);
        assert!(!cli.options.smoke);
    }

    #[test]
    fn defaults_and_rejections() {
        let cli = parse(&args("--workload sim_table3 --smoke")).unwrap();
        assert_eq!(cli.options.seed, 2007);
        assert!(!cli.traced);
        assert!(cli.options.smoke);
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload sim_table3 --trace 2")).is_err());
        assert!(parse(&args("--workload sim_table3 --seconds 0")).is_err());
        assert!(parse(&args("--workload sim_table3 --bogus")).is_err());
    }
}
