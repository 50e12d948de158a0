//! Quickstart: run one benchmark scenario on one simulated platform.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bgpbench::bench::{CellSpec, Scenario};
use bgpbench::models::{all_platforms, xeon};

fn main() {
    // One scenario, one platform.
    let cell = |platform| {
        CellSpec::new(Scenario::S2, platform)
            .prefixes(5000)
            .seed(2007)
    };
    let result = cell(xeon()).run();
    println!(
        "{} on {}: {} transactions in {:.2} simulated seconds = {:.1} transactions/s",
        result.scenario,
        result.platform,
        result.transactions,
        result.elapsed_secs,
        result.tps()
    );

    // The same scenario across all four platforms of the paper.
    println!("\n{} across all platforms:", Scenario::S2);
    for platform in all_platforms() {
        let name = platform.name;
        let result = cell(platform).run();
        println!("  {name:<12} {:>10.1} transactions/s", result.tps());
    }
}
