//! BGP routing information bases and the decision process.
//!
//! RFC 4271 structures a BGP speaker's routing state into three RIBs
//! (§3.2), all implemented here:
//!
//! * [`AdjRibIn`] — unprocessed routes received from each neighbor;
//! * [`LocRib`] — the routes selected by the local decision process;
//! * [`AdjRibOut`] — the per-neighbor subset staged for advertisement,
//!   kept as a stored map by the simulator's Phase-2 dump
//!   (`models::plane`), the benchmark's replica and the tests' export
//!   reference. `bgpd` keeps none: it derives each peer's actions from
//!   the decision's best-before and best-after
//!   ([`RibEngine::apply_update_with`]), which the stored map always
//!   equals.
//!
//! The [`RibEngine`] ties them together: feed it UPDATE messages with
//! [`RibEngine::apply_update`] and it returns, per prefix, exactly what
//! happened — including whether the *forwarding table* must change.
//! That distinction is the crux of the paper's benchmark: Scenarios 5/6
//! send announcements that lose the decision process (no FIB change),
//! while Scenarios 7/8 send announcements that win it (FIB change).
//! The simulator's platform models and `bgpd` both run one
//! [`RibEngine`].
//!
//! [`ShardedRibEngine`] partitions the table across N engines and
//! applies a *train* of UPDATEs with one fork/join; it is what the
//! repo benchmark samples the train with, not a second engine behind
//! either caller.
//!
//! # Examples
//!
//! ```
//! use bgpbench_rib::{PeerId, PeerInfo, RibEngine, RouteChange};
//! use bgpbench_wire::{Asn, AsPath, Origin, PathAttribute, RouterId, UpdateMessage};
//! use std::net::Ipv4Addr;
//!
//! let mut engine = RibEngine::new(Asn(65000), RouterId(0x0A000001));
//! let peer = engine.add_peer(PeerInfo::new(
//!     PeerId(1),
//!     Asn(65001),
//!     RouterId(0x0A000002),
//!     Ipv4Addr::new(10, 0, 0, 2),
//! ));
//! let update = UpdateMessage::builder()
//!     .attribute(PathAttribute::Origin(Origin::Igp))
//!     .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(65001)])))
//!     .attribute(PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 2)))
//!     .announce("10.7.0.0/16".parse().unwrap())
//!     .build();
//! let outcomes = engine.apply_update(peer, &update)?;
//! assert!(matches!(outcomes[0].change, RouteChange::Installed));
//! # Ok::<(), bgpbench_rib::RibError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the RIB applies every prefix of every UPDATE; a panic here aborts the router instead of rejecting one message"
)]
#![deny(
    clippy::disallowed_types,
    reason = "rib hashes prefix keys millions of times per run; use crate::fxhash::FxHashMap"
)]

mod adj_out;
mod attr_store;
mod decision;
mod engine;
mod error;
pub mod fxhash;
mod policy;
mod route;
mod shard;
mod table;

pub use adj_out::{AdjRibOut, ExportAction, OutboundUpdate};
pub use attr_store::{AttrStore, AttrStoreStats};
pub use decision::{compare_routes, DecisionConfig};
pub use engine::{
    AdjRibIn, DecisionSink, FibDirective, LocRib, PrefixOutcome, RibEngine, RibStats, RouteChange,
};
pub use error::RibError;
pub use policy::{MatchClause, PrefixList, PrefixMatch, RouteMap, RouteMapEntry, SetClause};
pub use route::{
    Aggregator, PeerId, PeerInfo, Route, RouteAttributes, RouteAttributesBuilder, UnknownTransitive,
};
pub use shard::ShardedRibEngine;
