//! Internet-scale workloads: replay a modern ~1M-prefix table through
//! the full-table scenarios S16–S18 end-to-end.
//!
//! ```text
//! cargo run --release --example fulltable [-- <prefixes>]
//! ```
//!
//! Defaults to 1,000,000 prefixes — the size of a 2020s IPv4 global
//! routing table.

use bgpbench::bench::{CellSpec, Scenario};
use bgpbench::models::xeon;

fn run(scenario: Scenario, prefixes: usize) {
    let cell = CellSpec::new(scenario, xeon())
        .prefixes(prefixes)
        .seed(2007);
    let start = std::time::Instant::now();
    let result = cell.run();
    let wall = start.elapsed();
    assert!(
        result.completed,
        "{scenario} must complete at {prefixes} prefixes"
    );
    println!(
        "  {scenario}: {} transactions in {:.2} simulated s \
         ({:.0} tps), {:.1}s wall",
        result.transactions,
        result.elapsed_secs,
        result.tps(),
        wall.as_secs_f64(),
    );
}

fn main() {
    let prefixes: usize = std::env::args()
        .nth(1)
        .map(|arg| {
            arg.parse().unwrap_or_else(|_| {
                eprintln!("expected a prefix count, got {arg:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(1_000_000);

    println!("Full-table scenarios, {prefixes} modern prefixes, simulated Xeon:");
    for scenario in Scenario::FULLTABLE {
        run(scenario, prefixes);
    }
}
