//! Runs the benchmark binary end to end at its `--smoke` size: every
//! workload, both kinds of run, through the real daemon over loopback.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "fulltable_large",
    "startup_small",
    "churn_flood",
    "churn_paced",
    "sim_table3",
];

/// Runs one smoke run and returns its result line.
fn smoke(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_bgpbench-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(["--seconds", "1", "--trace", trace])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} exited with {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
        .lines()
        .last()
        .expect("a result line is printed")
        .to_owned()
}

#[test]
fn every_workload_runs_end_to_end_and_is_correct() {
    for workload in WORKLOADS {
        let result = smoke(workload, "0");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0, "), "{workload}: {result}");
        for metric in [
            "tps",
            "cpu_ns_per_tx",
            "propagation_p50_us",
            "propagation_p99_us",
            "peak_rss_mb",
            "setup_s",
        ] {
            let key = format!("\"{metric}\": {{\"value\": ");
            let at = result
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: {metric} missing from {result}"));
            // End-to-end metrics are never zero.
            assert!(
                !result[at + key.len()..].starts_with("0,"),
                "{workload}: {metric} is zero"
            );
        }
    }
}

#[test]
fn every_workload_runs_traced_and_reports_its_ledger() {
    for workload in WORKLOADS {
        let result = smoke(workload, "1");
        assert!(
            result.starts_with("{\"correct\": true, "),
            "{workload}: {result}"
        );
        let layer_metric = if workload == "sim_table3" {
            "\"simnet.ticks\": {\"value\": "
        } else {
            "\"rib.apply.calls\": {\"value\": "
        };
        let at = result.find(layer_metric).expect("ledger metric present");
        assert!(
            !result[at + layer_metric.len()..].starts_with("0,"),
            "{workload}: the layer that does the work reads zero"
        );
        assert!(result.contains("\"daemon.residue_ns_per_tx\""));
        assert!(result.contains("\"core.runner.parallel_speedup_x\""));
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_bgpbench-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
