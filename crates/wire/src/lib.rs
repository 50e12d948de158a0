//! RFC 4271 BGP-4 wire format.
//!
//! This crate implements the on-the-wire representation of the Border
//! Gateway Protocol version 4: the four message types (OPEN, UPDATE,
//! NOTIFICATION, KEEPALIVE), path attributes, IPv4 prefix encoding
//! (NLRI), and an incremental framing decoder for TCP byte streams.
//!
//! It is the lowest layer of the `bgpbench` reproduction of
//! *Benchmarking BGP Routers* (IISWC 2007): both the simulated router
//! models and the real TCP daemon parse and emit messages through this
//! crate.
//!
//! # Examples
//!
//! Encode an UPDATE announcing one prefix and decode it back:
//!
//! ```
//! use bgpbench_wire::{
//!     Asn, Prefix, Message, UpdateMessage, PathAttribute, AsPath, Origin,
//! };
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), bgpbench_wire::WireError> {
//! let prefix: Prefix = "10.1.0.0/16".parse().unwrap();
//! let update = UpdateMessage::builder()
//!     .attribute(PathAttribute::Origin(Origin::Igp))
//!     .attribute(PathAttribute::AsPath(AsPath::from_sequence([
//!         Asn(65001),
//!         Asn(65002),
//!     ])))
//!     .attribute(PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)))
//!     .announce(prefix)
//!     .build();
//! let bytes = Message::Update(update.clone()).encode()?;
//! let (decoded, consumed) = Message::decode(&bytes)?;
//! assert_eq!(consumed, bytes.len());
//! assert_eq!(decoded, Message::Update(update));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a malformed or hostile UPDATE must surface as a typed `WireError`, not abort the router"
)]

mod attrs;
mod error;
mod framing;
mod message;
pub mod mrt;
mod notification;
mod open;
mod types;
mod update;

pub use attrs::{
    AsPath, AsPathSegment, AsnList, LargeCommunity, Origin, PathAttribute, PathAttributeRef,
};
pub use error::WireError;
pub use framing::StreamDecoder;
pub use message::{Message, MessageType, HEADER_LEN, MAX_MESSAGE_LEN};
pub use notification::{ErrorCode, NotificationMessage};
pub use open::{Capability, OpenMessage, BGP_VERSION};
pub use types::{Asn, Prefix, PrefixParseError, RouterId};
pub use update::{UpdateBuilder, UpdateMessage};
