//! Property-based tests for the BGP wire format.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use bgpbench_wire::{
    AsPath, AsPathSegment, Asn, AsnList, Capability, ErrorCode, LargeCommunity, Message,
    NotificationMessage, OpenMessage, Origin, PathAttribute, Prefix, RouterId, StreamDecoder,
    UpdateMessage,
};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32)
        .prop_map(|(bits, len)| Prefix::new_masked(Ipv4Addr::from(bits), len).unwrap())
}

fn arb_asn() -> impl Strategy<Value = Asn> {
    any::<u16>().prop_map(Asn)
}

fn arb_segment() -> impl Strategy<Value = AsPathSegment> {
    prop_oneof![
        prop::collection::vec(arb_asn(), 1..8)
            .prop_map(|asns| AsPathSegment::Sequence(asns.into())),
        prop::collection::vec(arb_asn(), 1..8).prop_map(|asns| AsPathSegment::Set(asns.into())),
    ]
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_segment(), 0..4).prop_map(AsPath::from_segments)
}

fn arb_large_community() -> impl Strategy<Value = LargeCommunity> {
    (any::<u32>(), any::<u32>(), any::<u32>())
        .prop_map(|(global, data1, data2)| LargeCommunity::new(global, data1, data2))
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![
        Just(Origin::Igp),
        Just(Origin::Egp),
        Just(Origin::Incomplete)
    ]
}

fn arb_attribute() -> impl Strategy<Value = PathAttribute> {
    prop_oneof![
        arb_origin().prop_map(PathAttribute::Origin),
        arb_as_path().prop_map(PathAttribute::AsPath),
        any::<u32>().prop_map(|b| PathAttribute::NextHop(Ipv4Addr::from(b))),
        any::<u32>().prop_map(PathAttribute::Med),
        any::<u32>().prop_map(PathAttribute::LocalPref),
        Just(PathAttribute::AtomicAggregate),
        (arb_asn(), any::<u32>()).prop_map(|(asn, id)| PathAttribute::Aggregator {
            asn,
            router_id: Ipv4Addr::from(id),
        }),
        prop::collection::vec(any::<u32>(), 0..6).prop_map(PathAttribute::Communities),
        prop::collection::vec(arb_large_community(), 0..4)
            .prop_map(PathAttribute::LargeCommunities),
        // Unknown optional attribute with arbitrary payload. Type 32
        // (LARGE_COMMUNITIES) is excluded: it decodes structurally, so
        // an arbitrary payload would not round-trip as Unknown.
        (
            any::<bool>(),
            prop_oneof![16u8..=31, 33u8..=255],
            prop::collection::vec(any::<u8>(), 0..300)
        )
            .prop_map(|(transitive, type_code, value)| {
                let mut flags = 0x80; // optional
                if transitive {
                    flags |= 0x40;
                }
                PathAttribute::Unknown {
                    flags,
                    type_code,
                    value,
                }
            }),
    ]
}

fn arb_update() -> impl Strategy<Value = UpdateMessage> {
    (
        prop::collection::vec(arb_prefix(), 0..20),
        prop::collection::vec(arb_attribute(), 1..6),
        prop::collection::vec(arb_prefix(), 0..20),
    )
        .prop_map(|(withdrawn, attrs, nlri)| {
            let mut builder = UpdateMessage::builder().withdraw_all(withdrawn);
            for attr in attrs {
                builder = builder.attribute(attr);
            }
            builder.announce_all(nlri).build()
        })
}

fn arb_open() -> impl Strategy<Value = OpenMessage> {
    (
        1u16..=u16::MAX,
        prop_oneof![Just(0u16), 3u16..=u16::MAX],
        1u32..=u32::MAX,
        prop::collection::vec(
            prop_oneof![
                Just(Capability::RouteRefresh),
                (any::<u16>(), any::<u8>())
                    .prop_map(|(afi, safi)| Capability::Multiprotocol { afi, safi }),
                (64u8..=255, prop::collection::vec(any::<u8>(), 0..16))
                    .prop_map(|(code, value)| Capability::Unknown { code, value }),
            ],
            0..4,
        ),
    )
        .prop_map(|(asn, hold, id, caps)| {
            let mut open = OpenMessage::new(Asn(asn), hold, RouterId(id));
            for cap in caps {
                open = open.with_capability(cap);
            }
            open
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_open().prop_map(Message::Open),
        arb_update().prop_map(Message::Update),
        (
            any::<u8>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(code, sub, data)| {
                Message::Notification(NotificationMessage::with_data(
                    ErrorCode::from_wire(code),
                    sub,
                    data,
                ))
            }),
        Just(Message::Keepalive),
    ]
}

/// The AS path as it was before segments held their ASes inline: a
/// `Vec` of segments, each a `Vec` of ASes, with everything derived.
/// The names match the library's, so derived `Debug` prints what the
/// library's `Debug` must print, and derived `Hash` feeds a hasher
/// exactly what the library's `Hash` must feed it.
mod reference {
    use bgpbench_wire::Asn;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum AsPathSegment {
        Sequence(Vec<Asn>),
        Set(Vec<Asn>),
    }

    impl AsPathSegment {
        pub fn asns(&self) -> &[Asn] {
            match self {
                AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns) => asns,
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct AsPath {
        pub segments: Vec<AsPathSegment>,
    }

    impl AsPath {
        pub fn length(&self) -> usize {
            self.segments
                .iter()
                .map(|segment| match segment {
                    AsPathSegment::Sequence(asns) => asns.len(),
                    AsPathSegment::Set(_) => 1,
                })
                .sum()
        }

        pub fn contains(&self, asn: Asn) -> bool {
            self.segments.iter().any(|s| s.asns().contains(&asn))
        }

        pub fn first_as(&self) -> Option<Asn> {
            match self.segments.first() {
                Some(AsPathSegment::Sequence(asns)) => asns.first().copied(),
                _ => None,
            }
        }

        pub fn origin_as(&self) -> Option<Asn> {
            match self.segments.last() {
                Some(AsPathSegment::Sequence(asns)) => asns.last().copied(),
                _ => None,
            }
        }

        /// RFC 4271 §5.1.2: extend a leading sequence with room, or open
        /// a new one.
        pub fn prepend(&self, asn: Asn) -> AsPath {
            let mut segments = self.segments.clone();
            match segments.first_mut() {
                Some(AsPathSegment::Sequence(asns)) if asns.len() < 255 => asns.insert(0, asn),
                _ => segments.insert(0, AsPathSegment::Sequence(vec![asn])),
            }
            AsPath { segments }
        }

        /// The attribute value octets (RFC 4271 §4.3).
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            for segment in &self.segments {
                let kind = match segment {
                    AsPathSegment::Set(_) => 1,
                    AsPathSegment::Sequence(_) => 2,
                };
                out.push(kind);
                out.push(segment.asns().len() as u8);
                for asn in segment.asns() {
                    out.extend_from_slice(&asn.0.to_be_bytes());
                }
            }
            out
        }
    }
}

/// An AS drawn either from the whole space or from a handful of
/// values, so `contains` probes hit as well as miss.
fn arb_ref_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![arb_asn(), (0u16..4).prop_map(Asn)]
}

/// Segments of 0 to 40 ASes, either side of the 14 held inline, and
/// now and then one of 255, the most a segment can hold.
fn arb_ref_segment() -> impl Strategy<Value = reference::AsPathSegment> {
    let asns = prop_oneof![
        prop::collection::vec(arb_ref_asn(), 0..41),
        prop::collection::vec(arb_ref_asn(), 0..41),
        prop::collection::vec(arb_ref_asn(), 0..41),
        prop::collection::vec(arb_ref_asn(), 255..256),
    ];
    (any::<bool>(), asns).prop_map(|(set, asns)| {
        if set {
            reference::AsPathSegment::Set(asns)
        } else {
            reference::AsPathSegment::Sequence(asns)
        }
    })
}

fn arb_ref_path() -> impl Strategy<Value = reference::AsPath> {
    prop::collection::vec(arb_ref_segment(), 0..4)
        .prop_map(|segments| reference::AsPath { segments })
}

/// The library path equal to `path`, its lists built from `Vec`s.
fn from_reference(path: &reference::AsPath) -> AsPath {
    AsPath::from_segments(path.segments.iter().map(|segment| match segment {
        reference::AsPathSegment::Sequence(asns) => AsPathSegment::Sequence(asns.clone().into()),
        reference::AsPathSegment::Set(asns) => AsPathSegment::Set(asns.clone().into()),
    }))
}

/// The library path equal to `path`, its lists built one AS at a time.
fn collected_from_reference(path: &reference::AsPath) -> AsPath {
    AsPath::from_segments(path.segments.iter().map(|segment| {
        let asns: AsnList = segment.asns().iter().copied().collect();
        match segment {
            reference::AsPathSegment::Sequence(_) => AsPathSegment::Sequence(asns),
            reference::AsPathSegment::Set(_) => AsPathSegment::Set(asns),
        }
    }))
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The AS_PATH attribute's value octets, past its 3- or 4-octet header.
fn encoded_value(path: &AsPath) -> Vec<u8> {
    let attr = PathAttribute::AsPath(path.clone());
    let mut buf = Vec::new();
    attr.encode_to(&mut buf);
    assert_eq!(buf.len(), attr.wire_len(), "wire_len");
    let header = if buf[0] & 0x10 != 0 { 4 } else { 3 };
    buf.split_off(header)
}

/// `path` agrees with `expected` on every observation the library
/// offers.
fn assert_matches_reference(
    path: &AsPath,
    expected: &reference::AsPath,
    probe: Asn,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(path.segments().len(), expected.segments.len());
    for (segment, want) in path.segments().iter().zip(&expected.segments) {
        let (AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns)) = segment;
        prop_assert_eq!(&asns[..], want.asns());
        prop_assert_eq!(
            asns.iter().copied().collect::<Vec<_>>(),
            want.asns().to_vec()
        );
        prop_assert_eq!(hash_of(asns), hash_of(&want.asns().to_vec()));
        prop_assert_eq!(format!("{asns:?}"), format!("{:?}", want.asns()));
    }
    prop_assert_eq!(format!("{path:?}"), format!("{expected:?}"));
    prop_assert_eq!(hash_of(path), hash_of(expected));
    prop_assert_eq!(path.length(), expected.length());
    prop_assert_eq!(path.contains(probe), expected.contains(probe));
    prop_assert_eq!(path.first_as(), expected.first_as());
    prop_assert_eq!(path.origin_as(), expected.origin_as());
    prop_assert_eq!(encoded_value(path), expected.encode());
    Ok(())
}

/// Hands `stream` out `chunk_len` octets per `read`, then reports end
/// of stream: a socket delivering short segments.
struct ShortReads<'a> {
    chunks: std::slice::Chunks<'a, u8>,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks.next().unwrap_or(&[]);
        buf[..chunk.len()].copy_from_slice(chunk);
        Ok(chunk.len())
    }
}

/// Decodes `stream` delivered `chunk_len` octets at a time, twice over:
/// one decoder is fed slices through `extend`, the other reads for
/// itself through `read_from`. They must agree after every chunk.
fn decode_chunked(stream: &[u8], chunk_len: usize) -> Vec<Message> {
    let mut extended = StreamDecoder::new();
    let mut reading = StreamDecoder::new();
    let mut reader = ShortReads {
        chunks: stream.chunks(chunk_len),
    };
    let mut decoded = Vec::new();
    for chunk in stream.chunks(chunk_len) {
        extended.extend(chunk);
        assert_eq!(reading.read_from(&mut reader).unwrap(), chunk.len());
        assert_eq!(reading.buffered(), extended.buffered());
        while let Some(message) = extended.next_message().unwrap() {
            assert_eq!(reading.next_message().unwrap(), Some(message.clone()));
            decoded.push(message);
        }
        assert_eq!(reading.next_message().unwrap(), None);
    }
    assert_eq!(reading.read_from(&mut reader).unwrap(), 0, "end of stream");
    assert_eq!(extended.buffered(), 0);
    assert_eq!(reading.buffered(), 0);
    decoded
}

/// Single-octet reads, and reads that cut every 19-octet header in two,
/// reassemble exactly as one whole read does.
#[test]
fn stream_decoder_survives_single_byte_and_split_header_reads() {
    let messages = bgpbench_check::corpus::seed_messages();
    let stream = bgpbench_check::corpus::seed_bytes().concat();
    for chunk_len in [1, 7, 18, 19, 20, stream.len()] {
        assert_eq!(decode_chunked(&stream, chunk_len), messages, "{chunk_len}");
    }
}

proptest! {
    #[test]
    fn prefix_roundtrip(prefix in arb_prefix()) {
        let mut buf = Vec::new();
        prefix.encode_to(&mut buf);
        let (decoded, consumed) = Prefix::decode_from(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, prefix);
    }

    #[test]
    fn prefix_display_parse_roundtrip(prefix in arb_prefix()) {
        let text = prefix.to_string();
        let parsed: Prefix = text.parse().unwrap();
        prop_assert_eq!(parsed, prefix);
    }

    #[test]
    fn prefix_contains_its_network(prefix in arb_prefix()) {
        prop_assert!(prefix.contains(prefix.network()));
        prop_assert!(prefix.covers(&prefix));
    }

    #[test]
    fn attribute_roundtrip(attr in arb_attribute()) {
        let mut buf = Vec::new();
        attr.encode_to(&mut buf);
        prop_assert_eq!(buf.len(), attr.wire_len());
        let (decoded, consumed) = PathAttribute::decode_from(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, attr);
    }

    #[test]
    fn message_roundtrip(message in arb_message()) {
        match message.encode() {
            Ok(bytes) => {
                let (decoded, consumed) = Message::decode(&bytes).unwrap();
                prop_assert_eq!(consumed, bytes.len());
                prop_assert_eq!(decoded, message);
            }
            Err(err) => {
                // Only legitimately oversized messages may fail.
                prop_assert!(matches!(
                    err,
                    bgpbench_wire::WireError::MessageTooLong(_)
                ));
            }
        }
    }

    #[test]
    fn stream_decoder_reassembles_any_chunking(
        messages in prop::collection::vec(arb_message(), 1..6),
        chunk_len in 1usize..64,
    ) {
        let mut stream = Vec::new();
        let mut encodable = Vec::new();
        for message in messages {
            if let Ok(bytes) = message.encode() {
                stream.extend(bytes);
                encodable.push(message);
            }
        }
        prop_assert_eq!(decode_chunked(&stream, chunk_len), encodable);
    }

    #[test]
    fn as_path_prepend_grows_length_by_one(path in arb_as_path(), asn in arb_asn()) {
        let prepended = path.prepend(asn);
        prop_assert_eq!(prepended.first_as(), Some(asn));
        prop_assert!(prepended.contains(asn));
        // Prepending adds exactly one AS to a sequence (or a fresh
        // one-element sequence), so the comparison length grows by one
        // unless the leading segment was a set (then it grows by one too,
        // since a new sequence segment is inserted).
        prop_assert_eq!(prepended.length(), path.length() + 1);
    }

    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
        let mut decoder = StreamDecoder::new();
        decoder.extend(&bytes);
        let _ = decoder.drain();
    }

    #[test]
    fn decode_corrupted_valid_message_never_panics(
        update in arb_update(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        if let Ok(mut bytes) = Message::Update(update).encode() {
            let idx = flip_at.index(bytes.len());
            bytes[idx] ^= flip_bits;
            let _ = Message::decode(&bytes);
        }
    }

    #[test]
    fn inline_as_path_matches_vec_reference(
        expected in arb_ref_path(),
        other in arb_ref_path(),
        asn in arb_ref_asn(),
        probe in arb_ref_asn(),
    ) {
        let path = from_reference(&expected);
        assert_matches_reference(&path, &expected, probe)?;
        prop_assert_eq!(&collected_from_reference(&expected), &path);

        let other_path = from_reference(&other);
        prop_assert_eq!(path == other_path, expected == other);

        let prepended = path.prepend(asn);
        assert_matches_reference(&prepended, &expected.prepend(asn), probe)?;
        let (head, rest) = path.prepend_parts();
        let (other_head, other_rest) = other_path.prepend_parts();
        prop_assert_eq!(
            (head, rest) == (other_head, other_rest),
            expected.prepend(asn) == other.prepend(asn)
        );
        prop_assert_eq!(prepended.segments().get(1..), Some(rest));

        // decode ∘ encode: a path with an empty segment does not decode
        // (RFC 4271 §6.3); every other one comes back equal and
        // re-encodes to the same octets.
        let bytes = Message::Update(
            UpdateMessage::builder()
                .attribute(PathAttribute::AsPath(path.clone()))
                .build(),
        )
        .encode()
        .unwrap();
        let empty_segment = expected.segments.iter().any(|s| s.asns().is_empty());
        match Message::decode(&bytes) {
            Ok((Message::Update(update), _)) => {
                prop_assert!(!empty_segment);
                prop_assert_eq!(update.attributes(), &[PathAttribute::AsPath(path.clone())][..]);
                prop_assert_eq!(Message::Update(update).encode().unwrap(), bytes);
            }
            Ok((message, _)) => prop_assert!(false, "decoded as {message:?}"),
            Err(_) => prop_assert!(empty_segment),
        }
    }
}
