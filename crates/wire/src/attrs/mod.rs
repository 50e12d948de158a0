//! BGP path attributes (RFC 4271 §4.3, §5).
//!
//! Layout follows the per-attribute module idiom: each type code lives
//! in its own `attr_NN_name` module exposing `parse_*`/`encode_*`
//! functions over the attribute *value* octets, while this module owns
//! the parts every attribute shares — the flag octet, the one- or
//! two-octet length, and the [`PathAttribute`] enum that dispatches
//! between them. Adding an attribute means adding one module and one
//! arm per `match` below; the framing never changes.

mod attr_01_origin;
mod attr_02_as_path;
mod attr_03_next_hop;
mod attr_04_med;
mod attr_05_local_pref;
mod attr_06_atomic_aggregate;
mod attr_07_aggregator;
mod attr_08_communities;
mod attr_32_large_communities;

pub use attr_01_origin::Origin;
pub use attr_02_as_path::{AsPath, AsPathSegment, AsnList};
pub use attr_32_large_communities::LargeCommunity;

use std::net::Ipv4Addr;

use crate::{Asn, WireError};

/// Attribute flag bit: optional (not well-known).
pub(crate) const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag bit: transitive.
pub(crate) const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag bit: partial.
pub(crate) const FLAG_PARTIAL: u8 = 0x20;
/// Attribute flag bit: extended (two-octet) length.
pub(crate) const FLAG_EXTENDED: u8 = 0x10;

pub(crate) const TYPE_ORIGIN: u8 = 1;
pub(crate) const TYPE_AS_PATH: u8 = 2;
pub(crate) const TYPE_NEXT_HOP: u8 = 3;
pub(crate) const TYPE_MED: u8 = 4;
pub(crate) const TYPE_LOCAL_PREF: u8 = 5;
pub(crate) const TYPE_ATOMIC_AGGREGATE: u8 = 6;
pub(crate) const TYPE_AGGREGATOR: u8 = 7;
pub(crate) const TYPE_COMMUNITIES: u8 = 8;
pub(crate) const TYPE_LARGE_COMMUNITIES: u8 = 32;

/// A decoded BGP path attribute.
///
/// Well-known and widely deployed optional attributes are represented
/// structurally; anything else is preserved byte-for-byte in
/// [`PathAttribute::Unknown`] so transitive attributes survive
/// re-encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathAttribute {
    /// ORIGIN (type 1, well-known mandatory).
    Origin(Origin),
    /// AS_PATH (type 2, well-known mandatory).
    AsPath(AsPath),
    /// NEXT_HOP (type 3, well-known mandatory).
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC (type 4, optional non-transitive).
    Med(u32),
    /// LOCAL_PREF (type 5, well-known on iBGP sessions).
    LocalPref(u32),
    /// ATOMIC_AGGREGATE (type 6, well-known discretionary).
    AtomicAggregate,
    /// AGGREGATOR (type 7, optional transitive).
    Aggregator {
        /// AS that performed the aggregation.
        asn: Asn,
        /// Router that performed the aggregation.
        router_id: Ipv4Addr,
    },
    /// COMMUNITIES (type 8, RFC 1997, optional transitive).
    Communities(Vec<u32>),
    /// LARGE_COMMUNITIES (type 32, RFC 8092, optional transitive).
    LargeCommunities(Vec<LargeCommunity>),
    /// Any attribute this crate does not model structurally.
    Unknown {
        /// The flag octet as seen on the wire (length bit is recomputed
        /// on encode).
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw attribute value.
        value: Vec<u8>,
    },
}

/// A borrowed view of one path attribute: what [`PathAttribute`] owns,
/// this points at.
///
/// Encoding goes through this type so a caller that keeps its
/// attributes decomposed (the RIB's attribute sets) can put them on the
/// wire without first cloning AS paths and community lists into owned
/// [`PathAttribute`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAttributeRef<'a> {
    /// ORIGIN (type 1).
    Origin(Origin),
    /// AS_PATH (type 2).
    AsPath(&'a AsPath),
    /// NEXT_HOP (type 3).
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC (type 4).
    Med(u32),
    /// LOCAL_PREF (type 5).
    LocalPref(u32),
    /// ATOMIC_AGGREGATE (type 6).
    AtomicAggregate,
    /// AGGREGATOR (type 7).
    Aggregator {
        /// AS that performed the aggregation.
        asn: Asn,
        /// Router that performed the aggregation.
        router_id: Ipv4Addr,
    },
    /// COMMUNITIES (type 8).
    Communities(&'a [u32]),
    /// LARGE_COMMUNITIES (type 32).
    LargeCommunities(&'a [LargeCommunity]),
    /// Any attribute this crate does not model structurally.
    Unknown {
        /// The flag octet (length bit is recomputed on encode).
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw attribute value.
        value: &'a [u8],
    },
}

impl PathAttributeRef<'_> {
    /// The attribute type code (RFC 4271 §5).
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttributeRef::Origin(_) => TYPE_ORIGIN,
            PathAttributeRef::AsPath(_) => TYPE_AS_PATH,
            PathAttributeRef::NextHop(_) => TYPE_NEXT_HOP,
            PathAttributeRef::Med(_) => TYPE_MED,
            PathAttributeRef::LocalPref(_) => TYPE_LOCAL_PREF,
            PathAttributeRef::AtomicAggregate => TYPE_ATOMIC_AGGREGATE,
            PathAttributeRef::Aggregator { .. } => TYPE_AGGREGATOR,
            PathAttributeRef::Communities(_) => TYPE_COMMUNITIES,
            PathAttributeRef::LargeCommunities(_) => TYPE_LARGE_COMMUNITIES,
            PathAttributeRef::Unknown { type_code, .. } => *type_code,
        }
    }

    fn flags(&self) -> u8 {
        match self {
            PathAttributeRef::Origin(_)
            | PathAttributeRef::AsPath(_)
            | PathAttributeRef::NextHop(_)
            | PathAttributeRef::LocalPref(_)
            | PathAttributeRef::AtomicAggregate => FLAG_TRANSITIVE,
            PathAttributeRef::Med(_) => FLAG_OPTIONAL,
            PathAttributeRef::Aggregator { .. }
            | PathAttributeRef::Communities(_)
            | PathAttributeRef::LargeCommunities(_) => FLAG_OPTIONAL | FLAG_TRANSITIVE,
            PathAttributeRef::Unknown { flags, .. } => *flags & !FLAG_EXTENDED,
        }
    }

    fn value_len(&self) -> usize {
        match self {
            PathAttributeRef::Origin(_) => 1,
            PathAttributeRef::AsPath(path) => path.wire_len(),
            PathAttributeRef::NextHop(_)
            | PathAttributeRef::Med(_)
            | PathAttributeRef::LocalPref(_) => 4,
            PathAttributeRef::AtomicAggregate => 0,
            PathAttributeRef::Aggregator { .. } => 6,
            PathAttributeRef::Communities(values) => values.len() * 4,
            PathAttributeRef::LargeCommunities(values) => values.len() * 12,
            PathAttributeRef::Unknown { value, .. } => value.len(),
        }
    }

    /// On-the-wire size of this attribute including flags/type/length.
    pub fn wire_len(&self) -> usize {
        let value_len = self.value_len();
        let header = if value_len > 255 { 4 } else { 3 };
        header + value_len
    }

    /// Appends the wire encoding (flags, type, length, value) to `out`.
    /// The value is written in place: its length is known up front, so
    /// nothing is staged in a temporary.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        let value_len = self.value_len();
        encode_header(self.flags(), self.type_code(), value_len, out);
        let value_start = out.len();
        match *self {
            PathAttributeRef::Origin(origin) => attr_01_origin::encode_origin(origin, out),
            PathAttributeRef::AsPath(path) => path.encode_to(out),
            PathAttributeRef::NextHop(addr) => attr_03_next_hop::encode_next_hop(addr, out),
            PathAttributeRef::Med(value) => attr_04_med::encode_med(value, out),
            PathAttributeRef::LocalPref(value) => attr_05_local_pref::encode_local_pref(value, out),
            PathAttributeRef::AtomicAggregate => {}
            PathAttributeRef::Aggregator { asn, router_id } => {
                attr_07_aggregator::encode_aggregator(asn, router_id, out)
            }
            PathAttributeRef::Communities(values) => {
                attr_08_communities::encode_communities(values, out)
            }
            PathAttributeRef::LargeCommunities(values) => {
                attr_32_large_communities::encode_large_communities(values, out)
            }
            PathAttributeRef::Unknown { value, .. } => out.extend_from_slice(value),
        }
        debug_assert_eq!(out.len() - value_start, value_len, "value_len out of step");
    }

    /// Clones the borrowed parts into an owned [`PathAttribute`].
    pub fn to_attribute(&self) -> PathAttribute {
        match *self {
            PathAttributeRef::Origin(origin) => PathAttribute::Origin(origin),
            PathAttributeRef::AsPath(path) => PathAttribute::AsPath(path.clone()),
            PathAttributeRef::NextHop(addr) => PathAttribute::NextHop(addr),
            PathAttributeRef::Med(value) => PathAttribute::Med(value),
            PathAttributeRef::LocalPref(value) => PathAttribute::LocalPref(value),
            PathAttributeRef::AtomicAggregate => PathAttribute::AtomicAggregate,
            PathAttributeRef::Aggregator { asn, router_id } => {
                PathAttribute::Aggregator { asn, router_id }
            }
            PathAttributeRef::Communities(values) => PathAttribute::Communities(values.to_vec()),
            PathAttributeRef::LargeCommunities(values) => {
                PathAttribute::LargeCommunities(values.to_vec())
            }
            PathAttributeRef::Unknown {
                flags,
                type_code,
                value,
            } => PathAttribute::Unknown {
                flags,
                type_code,
                value: value.to_vec(),
            },
        }
    }
}

impl PathAttribute {
    /// This attribute as a borrowed view.
    pub fn borrowed(&self) -> PathAttributeRef<'_> {
        match self {
            PathAttribute::Origin(origin) => PathAttributeRef::Origin(*origin),
            PathAttribute::AsPath(path) => PathAttributeRef::AsPath(path),
            PathAttribute::NextHop(addr) => PathAttributeRef::NextHop(*addr),
            PathAttribute::Med(value) => PathAttributeRef::Med(*value),
            PathAttribute::LocalPref(value) => PathAttributeRef::LocalPref(*value),
            PathAttribute::AtomicAggregate => PathAttributeRef::AtomicAggregate,
            PathAttribute::Aggregator { asn, router_id } => PathAttributeRef::Aggregator {
                asn: *asn,
                router_id: *router_id,
            },
            PathAttribute::Communities(values) => PathAttributeRef::Communities(values),
            PathAttribute::LargeCommunities(values) => PathAttributeRef::LargeCommunities(values),
            PathAttribute::Unknown {
                flags,
                type_code,
                value,
            } => PathAttributeRef::Unknown {
                flags: *flags,
                type_code: *type_code,
                value,
            },
        }
    }

    /// The attribute type code (RFC 4271 §5).
    pub fn type_code(&self) -> u8 {
        self.borrowed().type_code()
    }

    /// On-the-wire size of this attribute including flags/type/length.
    pub fn wire_len(&self) -> usize {
        self.borrowed().wire_len()
    }

    /// Appends the wire encoding (flags, type, length, value) to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        self.borrowed().encode_to(out);
    }

    /// Decodes one attribute from the front of `input`, returning it and
    /// the number of octets consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`], [`WireError::AttributeFlags`],
    /// or [`WireError::MalformedAttribute`] per RFC 4271 §6.3.
    pub fn decode_from(input: &[u8]) -> Result<(Self, usize), WireError> {
        let header = decode_header(input)?;
        let AttrHeader {
            flags,
            type_code,
            value,
            consumed,
        } = header;

        let attr = match type_code {
            TYPE_ORIGIN => {
                check_well_known_flags(flags, type_code)?;
                PathAttribute::Origin(attr_01_origin::parse_origin(value)?)
            }
            TYPE_AS_PATH => {
                check_well_known_flags(flags, type_code)?;
                PathAttribute::AsPath(attr_02_as_path::parse_as_path(value)?)
            }
            TYPE_NEXT_HOP => {
                check_well_known_flags(flags, type_code)?;
                PathAttribute::NextHop(attr_03_next_hop::parse_next_hop(value)?)
            }
            TYPE_MED => PathAttribute::Med(attr_04_med::parse_med(value)?),
            TYPE_LOCAL_PREF => {
                PathAttribute::LocalPref(attr_05_local_pref::parse_local_pref(value)?)
            }
            TYPE_ATOMIC_AGGREGATE => {
                attr_06_atomic_aggregate::parse_atomic_aggregate(value)?;
                PathAttribute::AtomicAggregate
            }
            TYPE_AGGREGATOR => {
                let (asn, router_id) = attr_07_aggregator::parse_aggregator(value)?;
                PathAttribute::Aggregator { asn, router_id }
            }
            TYPE_COMMUNITIES => {
                PathAttribute::Communities(attr_08_communities::parse_communities(value)?)
            }
            TYPE_LARGE_COMMUNITIES => PathAttribute::LargeCommunities(
                attr_32_large_communities::parse_large_communities(value)?,
            ),
            _ => {
                if flags & FLAG_OPTIONAL == 0 {
                    // Unrecognized well-known attribute: session error.
                    return Err(WireError::MalformedAttribute {
                        type_code,
                        reason: "unrecognized well-known attribute",
                    });
                }
                PathAttribute::Unknown {
                    // The extended-length bit is a pure encoding artifact
                    // and is recomputed on encode, so normalize it away.
                    flags: flags & !FLAG_EXTENDED,
                    type_code,
                    value: value.to_vec(),
                }
            }
        };
        Ok((attr, consumed))
    }
}

/// A decoded attribute header: the shared framing every per-attribute
/// module sits behind.
struct AttrHeader<'a> {
    flags: u8,
    type_code: u8,
    value: &'a [u8],
    consumed: usize,
}

/// Decodes the flags/type/length framing, returning the value slice and
/// total octets consumed.
fn decode_header(input: &[u8]) -> Result<AttrHeader<'_>, WireError> {
    if input.len() < 3 {
        return Err(WireError::Truncated {
            context: "attribute header",
        });
    }
    let flags = input[0];
    let type_code = input[1];
    let (value_len, header_len) = if flags & FLAG_EXTENDED != 0 {
        if input.len() < 4 {
            return Err(WireError::Truncated {
                context: "extended attribute length",
            });
        }
        (usize::from(u16::from_be_bytes([input[2], input[3]])), 4)
    } else {
        (usize::from(input[2]), 3)
    };
    if input.len() < header_len + value_len {
        return Err(WireError::Truncated {
            context: "attribute value",
        });
    }
    Ok(AttrHeader {
        flags,
        type_code,
        value: &input[header_len..header_len + value_len],
        consumed: header_len + value_len,
    })
}

/// Appends the flags/type/length framing for a value of `value_len`
/// octets, setting the extended-length bit iff it needs a two-octet
/// length.
fn encode_header(flags: u8, type_code: u8, value_len: usize, out: &mut Vec<u8>) {
    let mut flags = flags;
    if value_len > 255 {
        flags |= FLAG_EXTENDED;
    }
    out.push(flags);
    out.push(type_code);
    if flags & FLAG_EXTENDED != 0 {
        out.extend_from_slice(&(value_len as u16).to_be_bytes());
    } else {
        out.push(value_len as u8);
    }
}

fn check_well_known_flags(flags: u8, type_code: u8) -> Result<(), WireError> {
    if flags & FLAG_OPTIONAL != 0 || flags & FLAG_PARTIAL != 0 {
        return Err(WireError::AttributeFlags { type_code, flags });
    }
    Ok(())
}

/// Decodes a four-octet big-endian value (MED, LOCAL_PREF).
fn decode_u32(value: &[u8], type_code: u8) -> Result<u32, WireError> {
    let octets: [u8; 4] = value
        .try_into()
        .map_err(|_| WireError::MalformedAttribute {
            type_code,
            reason: "value must be four octets",
        })?;
    Ok(u32::from_be_bytes(octets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attr: PathAttribute) {
        let mut buf = Vec::new();
        attr.encode_to(&mut buf);
        assert_eq!(buf.len(), attr.wire_len(), "wire_len mismatch for {attr:?}");
        let (decoded, consumed) = PathAttribute::decode_from(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, attr);
    }

    #[test]
    fn roundtrip_all_known_attributes() {
        roundtrip(PathAttribute::Origin(Origin::Igp));
        roundtrip(PathAttribute::Origin(Origin::Incomplete));
        roundtrip(PathAttribute::AsPath(AsPath::from_sequence([
            Asn(1),
            Asn(65535),
        ])));
        roundtrip(PathAttribute::AsPath(AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(3), Asn(4)].into()),
            AsPathSegment::Set(vec![Asn(9), Asn(10)].into()),
        ])));
        roundtrip(PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 254)));
        roundtrip(PathAttribute::Med(0));
        roundtrip(PathAttribute::Med(u32::MAX));
        roundtrip(PathAttribute::LocalPref(100));
        roundtrip(PathAttribute::AtomicAggregate);
        roundtrip(PathAttribute::Aggregator {
            asn: Asn(65000),
            router_id: Ipv4Addr::new(10, 255, 0, 1),
        });
        roundtrip(PathAttribute::Communities(vec![0x0001_0002, 0xFFFF_FF01]));
        roundtrip(PathAttribute::LargeCommunities(vec![
            LargeCommunity::new(65000, 1, 2),
            LargeCommunity::new(0xFFFF_FFFF, 0, u32::MAX),
        ]));
        roundtrip(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL,
            type_code: 99,
            value: vec![1, 2, 3],
        });
    }

    #[test]
    fn extended_length_used_for_long_values() {
        let long = PathAttribute::Unknown {
            flags: FLAG_OPTIONAL,
            type_code: 200,
            value: vec![0xAB; 300],
        };
        let mut buf = Vec::new();
        long.encode_to(&mut buf);
        assert_ne!(buf[0] & FLAG_EXTENDED, 0);
        assert_eq!(buf.len(), 4 + 300);
        assert_eq!(buf.len(), long.wire_len());
        let (decoded, _) = PathAttribute::decode_from(&buf).unwrap();
        assert_eq!(decoded, long);
    }

    #[test]
    fn well_known_attributes_reject_optional_flag() {
        // ORIGIN with the optional bit set.
        let buf = [FLAG_OPTIONAL | FLAG_TRANSITIVE, TYPE_ORIGIN, 1, 0];
        assert!(matches!(
            PathAttribute::decode_from(&buf),
            Err(WireError::AttributeFlags { type_code: 1, .. })
        ));
    }

    #[test]
    fn unknown_well_known_attribute_is_an_error() {
        // Type 77 with the optional bit clear must be rejected.
        let buf = [FLAG_TRANSITIVE, 77, 1, 0];
        assert!(PathAttribute::decode_from(&buf).is_err());
    }

    #[test]
    fn truncated_attribute_headers() {
        assert!(matches!(
            PathAttribute::decode_from(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            PathAttribute::decode_from(&[0x40, 1]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            PathAttribute::decode_from(&[FLAG_EXTENDED | 0x40, 1, 0]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            PathAttribute::decode_from(&[0x40, 1, 5, 0]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_transitive_passthrough_preserves_partial_bit() {
        // A partial, transitive attribute from a router that did not
        // understand it must survive decode → encode byte-for-byte.
        let buf = [
            FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL,
            77,
            2,
            0xBE,
            0xEF,
        ];
        let (decoded, consumed) = PathAttribute::decode_from(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        let mut out = Vec::new();
        decoded.encode_to(&mut out);
        assert_eq!(out, buf);
    }
}
