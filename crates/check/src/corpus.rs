//! The shared valid-message corpus.
//!
//! One set of representative, *valid* BGP messages feeds both the
//! mutational fuzzer ([`crate::fuzz`]) and the wire crate's
//! corpus-seeded round-trip proptests, so a message shape added here
//! is automatically exercised by both. Every seed must encode and
//! decode cleanly; [`seed_bytes`] asserts as much in tests.

use std::net::Ipv4Addr;

use bgpbench_wire::{
    AsPath, AsPathSegment, Asn, Capability, ErrorCode, LargeCommunity, Message,
    NotificationMessage, OpenMessage, Origin, PathAttribute, Prefix, RouterId, UpdateMessage,
};

/// A prefix that is valid by construction.
fn prefix(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
    Prefix::new_masked(Ipv4Addr::new(a, b, c, d), len)
        .expect("corpus prefixes are valid by construction")
}

/// A full-table-style UPDATE: mandatory attributes plus a batch of
/// announced prefixes.
fn update_announce() -> UpdateMessage {
    UpdateMessage::builder()
        .attribute(PathAttribute::Origin(Origin::Igp))
        .attribute(PathAttribute::AsPath(AsPath::from_sequence([
            Asn(64512),
            Asn(3356),
            Asn(1299),
        ])))
        .attribute(PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 1)))
        .announce_all([
            prefix(10, 0, 0, 0, 8),
            prefix(192, 0, 2, 0, 24),
            prefix(198, 51, 100, 0, 24),
            prefix(203, 0, 113, 0, 24),
        ])
        .build()
}

/// An UPDATE exercising the optional attributes: MED, LOCAL_PREF,
/// ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES, LARGE_COMMUNITIES, an
/// AS_SET segment, and an unmodeled transitive attribute.
fn update_rich_attributes() -> UpdateMessage {
    UpdateMessage::builder()
        .attribute(PathAttribute::Origin(Origin::Incomplete))
        .attribute(PathAttribute::AsPath(AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(65001), Asn(65002)].into()),
            AsPathSegment::Set(vec![Asn(64496), Asn(64497)].into()),
        ])))
        .attribute(PathAttribute::NextHop(Ipv4Addr::new(172, 16, 0, 254)))
        .attribute(PathAttribute::Med(50))
        .attribute(PathAttribute::LocalPref(200))
        .attribute(PathAttribute::AtomicAggregate)
        .attribute(PathAttribute::Aggregator {
            asn: Asn(65001),
            router_id: Ipv4Addr::new(192, 0, 2, 1),
        })
        .attribute(PathAttribute::Communities(vec![
            (65001 << 16) | 100,
            (65001 << 16) | 200,
        ]))
        .attribute(PathAttribute::LargeCommunities(vec![
            LargeCommunity::new(65001, 0, 100),
            LargeCommunity::new(65001, 1, 200),
        ]))
        .attribute(PathAttribute::Unknown {
            flags: 0xC0,
            type_code: 77,
            value: vec![0xDE, 0xAD, 0xBE, 0xEF],
        })
        .announce(prefix(100, 64, 0, 0, 10))
        .build()
}

/// A withdraw-plus-announce UPDATE, the churn-workload shape.
fn update_mixed() -> UpdateMessage {
    UpdateMessage::builder()
        .withdraw_all([prefix(10, 1, 0, 0, 16), prefix(10, 2, 0, 0, 16)])
        .attribute(PathAttribute::Origin(Origin::Egp))
        .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(64999)])))
        .attribute(PathAttribute::NextHop(Ipv4Addr::new(10, 9, 9, 9)))
        .announce(prefix(10, 3, 0, 0, 16))
        .build()
}

/// The corpus: every message shape the stack speaks, as typed values.
///
/// Order is stable — the fuzzer's determinism depends on it.
pub fn seed_messages() -> Vec<Message> {
    vec![
        Message::Open(OpenMessage::new(Asn(64512), 180, RouterId(0x0A00_0001))),
        Message::Open(
            OpenMessage::new(Asn(65001), 90, RouterId(0xC0A8_0101))
                .with_capability(Capability::Multiprotocol { afi: 1, safi: 1 })
                .with_capability(Capability::RouteRefresh)
                .with_capability(Capability::Unknown {
                    code: 65,
                    value: vec![0x00, 0x01, 0x02, 0x03],
                }),
        ),
        Message::Update(update_announce()),
        Message::Update(update_rich_attributes()),
        Message::Update(update_mixed()),
        // Withdraw-only UPDATE (end-of-RIB-adjacent shape).
        Message::Update(
            UpdateMessage::builder()
                .withdraw(prefix(192, 0, 2, 0, 24))
                .build(),
        ),
        Message::Notification(NotificationMessage::new(ErrorCode::Cease, 2)),
        Message::Notification(NotificationMessage::with_data(
            ErrorCode::UpdateMessageError,
            1,
            vec![0x40, 0x01, 0x01],
        )),
        Message::Keepalive,
        Message::RouteRefresh { afi: 1, safi: 1 },
    ]
}

/// The corpus as encoded wire images (header included).
///
/// # Panics
///
/// Never for the checked-in corpus: every seed encodes by
/// construction, and the unit tests below pin that.
pub fn seed_bytes() -> Vec<Vec<u8>> {
    seed_messages()
        .iter()
        .filter_map(|m| m.encode().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_encodes_and_roundtrips() {
        let messages = seed_messages();
        let bytes = seed_bytes();
        assert_eq!(
            messages.len(),
            bytes.len(),
            "a corpus seed failed to encode"
        );
        for (message, image) in messages.iter().zip(&bytes) {
            let (decoded, consumed) = Message::decode(image).unwrap();
            assert_eq!(consumed, image.len());
            assert_eq!(&decoded, message);
        }
    }

    #[test]
    fn corpus_covers_every_message_type() {
        use std::collections::BTreeSet;
        let types: BTreeSet<u8> = seed_messages()
            .iter()
            .map(|m| m.message_type().to_wire())
            .collect();
        assert_eq!(types.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
    }
}
