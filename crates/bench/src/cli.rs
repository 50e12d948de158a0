//! The one command line shared by every `bgpbench` subcommand.

use std::path::{Path, PathBuf};

use bgpbench_core::experiments::ExperimentConfig;
use bgpbench_core::{GridRunner, Render, StderrProgress};
use bgpbench_telemetry as telemetry;

/// Where `--csv` output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvSink {
    /// Print the CSV to stdout after the text rendering.
    Stdout,
    /// Write the CSV to a file.
    File(PathBuf),
}

/// Rendering of the `--telemetry` metrics dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryFormat {
    /// Human-readable listing (the bare `--telemetry` default).
    Text,
    /// JSON object per metric.
    Json,
    /// CSV rows.
    Csv,
}

impl TelemetryFormat {
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "text" => Ok(TelemetryFormat::Text),
            "json" => Ok(TelemetryFormat::Json),
            "csv" => Ok(TelemetryFormat::Csv),
            other => Err(format!(
                "unknown telemetry format `{other}` (expected text, json, or csv)"
            )),
        }
    }
}

/// The flags every subcommand takes, as the usage line prints them.
pub const USAGE_FLAGS: &str = "[--quick] [--threads <n>] [--csv [<path>]] \
     [--prefixes <n>] [--telemetry [text|json|csv]] [--trace <path>]";

/// Parsed flags of a `bgpbench` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Workload sizing (`--quick` selects [`ExperimentConfig::quick`];
    /// `--prefixes <n>` resizes either base config via
    /// [`ExperimentConfig::with_prefixes`]).
    pub config: ExperimentConfig,
    /// Worker threads for the experiment grid (`--threads <n>`).
    pub threads: usize,
    /// CSV output destination, if `--csv` was given.
    pub csv: Option<CsvSink>,
    /// Dump the telemetry registry to stderr after the run
    /// (`--telemetry [text|json|csv]`).
    pub telemetry: Option<TelemetryFormat>,
    /// Record a flight-recorder timeline and write it as Chrome
    /// trace-event JSON to this path after the run (`--trace <path>`).
    pub trace: Option<PathBuf>,
}

impl Cli {
    /// Switches on the recorders the command line asked for
    /// (`--telemetry`, `--trace`) before the subcommand runs.
    pub fn arm_recorders(&self) {
        if self.telemetry.is_some() {
            telemetry::enable();
        }
        if self.trace.is_some() {
            telemetry::enable_trace(&telemetry::TraceConfig::default());
        }
    }

    /// Parses the flags after the subcommand name.
    pub fn parse<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut quick = false;
        let mut prefixes: Option<usize> = None;
        let mut threads: Option<usize> = None;
        let mut csv: Option<CsvSink> = None;
        let mut telemetry_format: Option<TelemetryFormat> = None;
        let mut trace: Option<PathBuf> = None;
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--telemetry" => {
                    // The format operand is optional: bare `--telemetry`
                    // prints the human-readable listing.
                    let format = iter.peek().filter(|next| !next.starts_with("--")).cloned();
                    telemetry_format = Some(match format {
                        Some(value) => {
                            iter.next();
                            TelemetryFormat::parse(&value)?
                        }
                        None => TelemetryFormat::Text,
                    });
                }
                "--trace" => {
                    let path = iter
                        .next()
                        .ok_or_else(|| "--trace needs an output path".to_owned())?;
                    trace = Some(PathBuf::from(path));
                }
                "--threads" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--threads needs a count".to_owned())?;
                    threads = Some(parse_threads(&value)?);
                }
                "--prefixes" => {
                    let value = iter
                        .next()
                        .ok_or_else(|| "--prefixes needs a table size".to_owned())?;
                    prefixes = Some(parse_prefixes(&value)?);
                }
                "--csv" => {
                    // The path operand is optional: bare `--csv` prints
                    // to stdout.
                    let path = iter.peek().filter(|next| !next.starts_with("--")).cloned();
                    if path.is_some() {
                        iter.next();
                    }
                    csv = Some(match path {
                        Some(path) => CsvSink::File(PathBuf::from(path)),
                        None => CsvSink::Stdout,
                    });
                }
                other => {
                    if let Some(value) = other.strip_prefix("--threads=") {
                        threads = Some(parse_threads(value)?);
                    } else if let Some(value) = other.strip_prefix("--prefixes=") {
                        prefixes = Some(parse_prefixes(value)?);
                    } else if let Some(value) = other.strip_prefix("--csv=") {
                        csv = Some(CsvSink::File(PathBuf::from(value)));
                    } else if let Some(value) = other.strip_prefix("--telemetry=") {
                        telemetry_format = Some(TelemetryFormat::parse(value)?);
                    } else if let Some(value) = other.strip_prefix("--trace=") {
                        trace = Some(PathBuf::from(value));
                    } else {
                        return Err(format!("unknown argument `{other}`"));
                    }
                }
            }
        }
        let base = if quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::full()
        };
        let config = match prefixes {
            Some(n) => base.with_prefixes(n),
            None => base,
        };
        Ok(Cli {
            config,
            threads: threads.unwrap_or_else(default_threads),
            csv,
            telemetry: telemetry_format,
            trace,
        })
    }

    /// A grid runner configured per the command line, with per-cell
    /// progress on stderr.
    pub fn runner(&self) -> GridRunner {
        GridRunner::new(self.threads).with_observer(Box::new(StderrProgress::default()))
    }

    /// Prints the artifact's text rendering to stdout and routes its
    /// CSV to wherever `--csv` pointed. With `--telemetry`, dumps the
    /// registry snapshot to stderr afterwards (stderr so the metrics
    /// never mix into a piped artifact); with `--trace`, writes the
    /// timeline.
    pub fn emit(&self, artifact: &dyn Render) {
        print!("{}", artifact.text());
        self.route_csv(artifact, "");
        if self.csv == Some(CsvSink::Stdout) {
            // A blank line closes the CSV block, so whatever follows
            // (a verdict, a second artifact) stays apart from it.
            println!();
        }
        if let Some(format) = self.telemetry {
            let snapshot = telemetry::snapshot();
            let rendered = match format {
                TelemetryFormat::Text => snapshot.to_text(),
                TelemetryFormat::Json => snapshot.to_json(),
                TelemetryFormat::Csv => snapshot.to_csv(),
            };
            eprint!("{rendered}");
        }
        if let Some(path) = &self.trace {
            let json = telemetry::trace::export::chrome_json(&telemetry::trace_dump());
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("wrote trace {}", path.display()),
                Err(error) => {
                    eprintln!("error: cannot write trace {}: {error}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }

    /// [`Cli::emit`], then the artifact's self-check: `reproduced` when
    /// there are no violations, else `mismatches` and one line each.
    pub fn emit_with_verdict(
        &self,
        artifact: &dyn Render,
        violations: &[String],
        reproduced: &str,
        mismatches: &str,
    ) {
        self.emit(artifact);
        if violations.is_empty() {
            println!("\n{reproduced}");
        } else {
            println!("\n{mismatches}");
            for violation in violations {
                println!("  - {violation}");
            }
        }
    }

    /// Prints a run's second artifact after a blank line. Its CSV goes
    /// to the same `--csv` sink, with `suffix` on the file's stem so
    /// the two artifacts never overwrite each other.
    pub fn emit_second(&self, artifact: &dyn Render, suffix: &str) {
        println!();
        print!("{}", artifact.text());
        self.route_csv(artifact, suffix);
    }

    /// Sends the artifact's CSV to the `--csv` sink: stdout after a
    /// blank line, or the named file with `suffix` appended to its
    /// stem (exit 1 when it cannot be written — after the text has
    /// been printed).
    fn route_csv(&self, artifact: &dyn Render, suffix: &str) {
        match &self.csv {
            None => {}
            Some(CsvSink::Stdout) => print!("\n{}", artifact.csv()),
            Some(CsvSink::File(path)) => {
                let path = with_stem_suffix(path, suffix);
                match std::fs::write(&path, artifact.csv()) {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(error) => {
                        eprintln!("error: cannot write {}: {error}", path.display());
                        std::process::exit(1);
                    }
                }
            }
        }
    }
}

/// `<stem>.<ext>` -> `<stem><suffix>.<ext>`.
fn with_stem_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_stem().unwrap_or_default().to_os_string();
    name.push(suffix);
    if let Some(extension) = path.extension() {
        name.push(".");
        name.push(extension);
    }
    path.with_file_name(name)
}

fn parse_prefixes(value: &str) -> Result<usize, String> {
    let prefixes: usize = value
        .parse()
        .map_err(|_| format!("invalid table size `{value}`"))?;
    if prefixes == 0 {
        return Err("--prefixes must be at least 1".to_owned());
    }
    Ok(prefixes)
}

fn parse_threads(value: &str) -> Result<usize, String> {
    let threads: usize = value
        .parse()
        .map_err(|_| format!("invalid thread count `{value}`"))?;
    if threads == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    Ok(threads)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli_is_full_without_csv() {
        let cli = Cli::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cli.config, ExperimentConfig::full());
        assert_eq!(cli.csv, None);
        assert!(cli.threads >= 1);
    }

    #[test]
    fn all_flags_parse() {
        let cli = Cli::parse(["--quick", "--threads", "4", "--csv", "out.csv"]).unwrap();
        assert_eq!(cli.config, ExperimentConfig::quick());
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.csv, Some(CsvSink::File(PathBuf::from("out.csv"))));
    }

    #[test]
    fn equals_forms_and_bare_csv_parse() {
        let cli = Cli::parse(["--threads=2", "--csv"]).unwrap();
        assert_eq!(cli.threads, 2);
        assert_eq!(cli.csv, Some(CsvSink::Stdout));
        let cli = Cli::parse(["--csv=data.csv"]).unwrap();
        assert_eq!(cli.csv, Some(CsvSink::File(PathBuf::from("data.csv"))));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(Cli::parse(["--threads"]).is_err());
        assert!(Cli::parse(["--threads", "zero"]).is_err());
        assert!(Cli::parse(["--threads", "0"]).is_err());
        assert!(Cli::parse(["--prefixes"]).is_err());
        assert!(Cli::parse(["--prefixes", "0"]).is_err());
        assert!(Cli::parse(["--prefixes", "many"]).is_err());
        assert!(Cli::parse(["--bogus"]).is_err());
    }

    #[test]
    fn prefixes_flag_resizes_both_table_sizes() {
        let cli = Cli::parse(["--prefixes", "1000000"]).unwrap();
        assert_eq!(cli.config.large_prefixes, 1_000_000);
        assert_eq!(cli.config.small_prefixes, 200_000);
        // The flag composes with --quick: same sizes, quick cross grid.
        let quick = Cli::parse(["--quick", "--prefixes=50"]).unwrap();
        assert_eq!(quick.config.large_prefixes, 50);
        assert_eq!(quick.config.small_prefixes, 10);
        assert_eq!(
            quick.config.cross_points,
            ExperimentConfig::quick().cross_points
        );
        // Bare --quick keeps the quick sizes untouched.
        assert_eq!(
            Cli::parse(["--quick"]).unwrap().config,
            ExperimentConfig::quick()
        );
    }

    #[test]
    fn csv_followed_by_flag_prints_to_stdout() {
        let cli = Cli::parse(["--csv", "--quick"]).unwrap();
        assert_eq!(cli.csv, Some(CsvSink::Stdout));
        assert_eq!(cli.config, ExperimentConfig::quick());
    }

    #[test]
    fn telemetry_flag_parses_every_form() {
        assert_eq!(Cli::parse(Vec::<String>::new()).unwrap().telemetry, None);
        let cli = Cli::parse(["--telemetry"]).unwrap();
        assert_eq!(cli.telemetry, Some(TelemetryFormat::Text));
        let cli = Cli::parse(["--telemetry", "json", "--quick"]).unwrap();
        assert_eq!(cli.telemetry, Some(TelemetryFormat::Json));
        assert_eq!(cli.config, ExperimentConfig::quick());
        let cli = Cli::parse(["--telemetry=csv"]).unwrap();
        assert_eq!(cli.telemetry, Some(TelemetryFormat::Csv));
        // A following flag is not mistaken for the format operand.
        let cli = Cli::parse(["--telemetry", "--csv"]).unwrap();
        assert_eq!(cli.telemetry, Some(TelemetryFormat::Text));
        assert_eq!(cli.csv, Some(CsvSink::Stdout));
        assert!(Cli::parse(["--telemetry", "yaml"]).is_err());
    }

    #[test]
    fn trace_flag_parses_both_forms_and_needs_a_path() {
        assert_eq!(Cli::parse(Vec::<String>::new()).unwrap().trace, None);
        let cli = Cli::parse(["--trace", "out.json", "--quick"]).unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("out.json")));
        assert_eq!(cli.config, ExperimentConfig::quick());
        let cli = Cli::parse(["--trace=s9.json"]).unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("s9.json")));
        assert!(Cli::parse(["--trace"]).is_err());
    }

    #[test]
    fn stem_suffix_keeps_the_directory_and_extension() {
        let sweep = |path: &str| with_stem_suffix(Path::new(path), "_sweep");
        assert_eq!(sweep("/tmp/fq.csv"), PathBuf::from("/tmp/fq_sweep.csv"));
        assert_eq!(sweep("out"), PathBuf::from("out_sweep"));
        assert_eq!(
            with_stem_suffix(Path::new("a/b.csv"), ""),
            PathBuf::from("a/b.csv")
        );
    }

    #[test]
    fn runner_honors_thread_count() {
        let cli = Cli::parse(["--threads", "3"]).unwrap();
        assert_eq!(cli.runner().threads(), 3);
    }
}
