#!/usr/bin/env bash
# Builds the benchmark (a no-op when it is fresh) and runs it.
#
#   benchmark/run.sh                      all five workloads, end to end
#   benchmark/run.sh --traced             ... each followed by its traced (per-layer) run
#   benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
#
# Every run prints the host and input record, each metric by name with
# its unit, and a JSON result object as its last line. The exit status
# is non-zero if any run failed a correctness check.
set -euo pipefail

manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"

run() {
    cargo run --release --quiet --manifest-path "$manifest" -- "$@"
}

rest=()
traced=0
single=0
for arg in "$@"; do
    case "$arg" in
        --traced) traced=1 ;;
        --workload) single=1; rest+=("$arg") ;;
        *) rest+=("$arg") ;;
    esac
done

if ((single)); then
    # One workload, exactly as asked (this is what BENCHMARK.json runs).
    run "$@"
    exit
fi

status=0
for workload in fulltable_large startup_small churn_flood churn_paced sim_table3; do
    run --workload "$workload" ${rest[@]+"${rest[@]}"} || status=1
    if ((traced)); then
        run --workload "$workload" --trace 1 ${rest[@]+"${rest[@]}"} || status=1
    fi
done
exit "$status"
