//! Forwarding information base and data-plane pipeline.
//!
//! This crate implements the *data plane* side of the benchmarked
//! routers:
//!
//! * [`CompressedTrie`] — a path-compressed (Patricia) trie keyed by
//!   IPv4 prefixes supporting longest-prefix-match lookup, rooted at
//!   the /16 and stored in a chunked arena;
//! * [`Fib`] — the forwarding table proper (backed by that trie),
//!   mapping prefixes to next hops, with a generation counter so the
//!   control plane can observe update visibility;
//! * [`Ipv4Header`] and the RFC 1071/1624 checksum helpers
//!   ([`internet_checksum`], [`incremental_update`]);
//! * [`Forwarder`] — an RFC 1812-compliant forwarding pipeline
//!   (validate → TTL decrement → incremental checksum → LPM lookup)
//!   with per-port statistics, used to carry the benchmark's
//!   cross-traffic.
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

mod checksum;
mod compressed;
mod fib;
mod forwarder;
mod packet;

pub use checksum::{incremental_update, internet_checksum};
pub use compressed::CompressedTrie;
pub use fib::{Fib, NextHop};
pub use forwarder::{DropReason, ForwardDecision, Forwarder, ForwarderStats};
pub use packet::{Ipv4Header, PacketError, IPV4_HEADER_LEN};
