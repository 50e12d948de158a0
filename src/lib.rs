//! # bgpbench
//!
//! A comprehensive reproduction of **“Benchmarking BGP Routers”**
//! (Wu, Liao, Wolf, Gao — IEEE IISWC 2007) as a Rust workspace: a full
//! BGP protocol stack, the paper's control-plane benchmark, simulated
//! models of all four evaluated router platforms, and a real TCP BGP
//! daemon for live measurements.
//!
//! This crate is the facade: it re-exports every workspace crate under
//! one name so applications can depend on `bgpbench` alone.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`wire`] | `bgpbench-wire` | RFC 4271 messages, path attributes, prefixes, stream framing |
//! | [`rib`] | `bgpbench-rib` | Adj-RIB-In / Loc-RIB / Adj-RIB-Out, decision process, policy |
//! | [`fib`] | `bgpbench-fib` | LPM trie and next-hop table the RIB installs into |
//! | [`simnet`] | `bgpbench-simnet` | deterministic tick-based CPU/scheduler simulator |
//! | [`models`] | `bgpbench-models` | the four platform models (Pentium III, Xeon, IXP2400, Cisco 3620) |
//! | [`speaker`] | `bgpbench-speaker` | workload generation, scripted and live speakers |
//! | [`daemon`] | `bgpbench-daemon` | a real BGP daemon over TCP |
//! | [`bench`](mod@bench) | `bgpbench-core` | the benchmark: scenarios, harness, experiments, reports |
//!
//! # Quickstart
//!
//! Run benchmark Scenario 2 (start-up announcements, large packets) on
//! the simulated dual-core Xeon:
//!
//! ```
//! use bgpbench::bench::{CellSpec, Scenario};
//! use bgpbench::models::xeon;
//!
//! let result = CellSpec::new(Scenario::S2, xeon()).prefixes(1000).seed(1).run();
//! println!("{}: {:.1} transactions/s", result.scenario, result.tps());
//! assert!(result.completed);
//! ```

#![forbid(unsafe_code)]

pub use bgpbench_core as bench;
pub use bgpbench_daemon as daemon;
pub use bgpbench_fib as fib;
pub use bgpbench_models as models;
pub use bgpbench_rib as rib;
pub use bgpbench_simnet as simnet;
pub use bgpbench_speaker as speaker;
pub use bgpbench_wire as wire;
