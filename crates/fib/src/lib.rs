//! Forwarding information base: the table the control plane installs
//! its best routes into.
//!
//! * [`CompressedTrie`] — a path-compressed (Patricia) trie keyed by
//!   IPv4 prefixes supporting longest-prefix-match lookup, rooted at
//!   the /16 and stored in a chunked arena;
//! * [`Fib`] — the forwarding table proper (backed by that trie),
//!   mapping prefixes to next hops, with a generation counter so the
//!   control plane can observe update visibility.
//!
//! No packet is forwarded: the paper's cross-traffic is modelled as
//! interrupt and kernel cycles in `models::crosstraffic`.
//!
//! # Examples
//!
//! ```
//! use bgpbench_fib::{Fib, NextHop};
//! use std::net::Ipv4Addr;
//!
//! let mut fib = Fib::new();
//! fib.insert(
//!     "10.0.0.0/8".parse().unwrap(),
//!     NextHop::new(Ipv4Addr::new(192, 0, 2, 1), 0),
//! );
//! let hop = fib.lookup(Ipv4Addr::new(10, 42, 0, 1)).unwrap();
//! assert_eq!(hop.gateway(), Ipv4Addr::new(192, 0, 2, 1));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the FIB is written once per best-route change; a panic here aborts the router mid-run"
)]

mod compressed;
mod fib;

pub use compressed::CompressedTrie;
pub use fib::{Fib, NextHop};
