//! Control-plane convergence across a chain of routers: how long does
//! a full table take to propagate through N hops of each platform?
//!
//! This quantifies the network-level consequence of the paper's §V.C
//! observation that underpowered control processors cannot keep up:
//! per-router processing time compounds hop by hop across an AS path.
//!
//! ```text
//! cargo run --release --example convergence_chain
//! ```

use bgpbench::bench::extensions::chain_convergence;
use bgpbench::models::all_platforms;

const HOPS: usize = 4;
const PREFIXES: usize = 5000;

fn main() {
    println!(
        "full-table ({PREFIXES} prefixes) propagation through {HOPS} hops of each platform\n\
         (real message passing: hop k's exported UPDATEs are hop k+1's input)\n"
    );
    println!(
        "{:<13} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "platform", "hop 1", "hop 2", "hop 3", "hop 4", "total"
    );
    for platform in all_platforms() {
        let hops = chain_convergence(&platform, HOPS, PREFIXES, 2007);
        let total: f64 = hops.iter().map(|h| h.secs).sum();
        print!("{:<13}", platform.name);
        for hop in &hops {
            print!(" {:>11.1}s", hop.secs);
        }
        println!(" {:>13.1}s", total);
    }
    println!(
        "\na route learned at hop 1 is not usable at hop {HOPS} until the total elapses — \
         on the IXP2400-class control plane that is tens of minutes for one table, which \
         is why the paper calls embedded control processors insufficient for BGP."
    );
}
