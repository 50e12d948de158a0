//! A real, runnable BGP daemon.
//!
//! Where `bgpbench-models` *simulates* the paper's router platforms,
//! this crate is an actual BGP speaker: a TCP listener, one thread per
//! session driving the RFC 4271 §8 state machine ([`SessionFsm`], the
//! same one the simulated topology ticks) off its socket and the wall
//! clock, a shared [`bgpbench_rib::RibEngine`], a shadow
//! [`bgpbench_fib::Fib`], and re-advertisement of every change to every
//! other established session.
//!
//! It serves two purposes in the reproduction:
//!
//! 1. it proves the protocol stack end-to-end (the live speakers talk
//!    to it over real sockets with real RFC 4271 bytes), and
//! 2. it is the *software router under test* for the benchmark's live
//!    mode — the same role the XORP hosts play in the paper, with the
//!    measuring host as the hardware platform.
//!
//! # Examples
//!
//! ```no_run
//! use bgpbench_daemon::{BgpDaemon, DaemonConfig};
//!
//! let daemon = BgpDaemon::start(DaemonConfig::default())?;
//! println!("listening on {}", daemon.local_addr());
//! // ... connect speakers, run a benchmark phase ...
//! let snapshot = daemon.snapshot();
//! println!("{} routes selected", snapshot.loc_rib_len);
//! daemon.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

mod config;
mod core;
mod daemon;
pub mod fsm;
pub mod http;
mod session;

pub use config::{DaemonConfig, DaemonConfigBuilder};
pub use core::PeerSnapshot;
pub use daemon::{BgpDaemon, DaemonSnapshot};
pub use fsm::{FsmAction, FsmEvent, FsmState, NotifyCause, SessionFsm, SessionTimers};
pub use http::MetricsServer;
