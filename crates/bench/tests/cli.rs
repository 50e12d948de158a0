//! Drives the built `bgpbench` binary: the golden CSVs must come out
//! byte-for-byte, and every row of the subcommand registry must honor
//! the shared command line's contract (exit codes, usage, `--csv`).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgpbench_bench::SUBCOMMANDS;

fn bgpbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpbench"))
        .args(args)
        .output()
        .expect("bgpbench binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A scratch path unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bgpbench-cli-{}-{name}", std::process::id()))
}

/// Reads a scratch file and removes it.
fn take(path: &Path) -> String {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    body
}

#[test]
fn table3_quick_csv_matches_the_golden_file() {
    let csv = scratch("table3.csv");
    let output = bgpbench(&["table3", "--quick", "--csv", csv.to_str().unwrap()]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(take(&csv), golden("table3_quick.csv"));
    // The verdict follows the artifact.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.ends_with("\nall of the paper's Table III observations reproduced\n"));
}

#[test]
fn faults_quick_csvs_match_the_golden_files() {
    let csv = scratch("faults.csv");
    let output = bgpbench(&["faults", "--quick", "--csv", csv.to_str().unwrap()]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert_eq!(take(&csv), golden("faults_quick.csv"));
    assert_eq!(
        take(&scratch("faults_sweep.csv")),
        golden("faults_quick_sweep.csv")
    );
}

#[test]
fn registry_names_are_unique() {
    let mut names: Vec<&str> = SUBCOMMANDS.iter().map(|row| row.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), SUBCOMMANDS.len());
}

#[test]
fn unknown_or_missing_subcommand_lists_every_row_and_exits_2() {
    for args in [&[][..], &["table9"], &["--quick"]] {
        let output = bgpbench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let usage = stderr(&output);
        assert!(usage.contains("usage: bgpbench <subcommand>"), "{usage}");
        for row in &SUBCOMMANDS {
            assert!(
                usage.contains(&format!("  {:<17} {}", row.name, row.about)),
                "usage must list {}: {usage}",
                row.name
            );
        }
    }
}

#[test]
fn every_subcommand_honors_the_shared_command_line() {
    for row in &SUBCOMMANDS {
        let name = row.name;
        let output = bgpbench(&[name, "--quick"]);
        assert!(output.status.success(), "{name}: {}", stderr(&output));
        assert!(!output.stdout.is_empty(), "{name} printed nothing");
        let text = output.stdout;

        for bad in [&["--threads", "0"][..], &["--bogus"]] {
            let output = bgpbench(&[&[name], bad].concat());
            assert_eq!(output.status.code(), Some(2), "{name} {bad:?}");
            assert!(output.stdout.is_empty(), "{name} {bad:?}");
            assert!(stderr(&output).contains("usage: bgpbench"), "{name}");
        }

        // An unwritable --csv path fails the run only after the text
        // has been printed.
        let output = bgpbench(&[name, "--quick", "--csv", "/nonexistent-dir/x.csv"]);
        assert_eq!(output.status.code(), Some(1), "{name}");
        assert!(stderr(&output).contains("cannot write"), "{name}");
        if name != "fig34_breakdown" {
            // (fig34_breakdown's span shares are host time.)
            assert!(text.starts_with(&output.stdout), "{name}");
        }
        assert!(!output.stdout.is_empty(), "{name}");
    }
}
