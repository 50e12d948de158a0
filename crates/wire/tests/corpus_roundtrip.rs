//! Corpus-seeded round-trip properties for OPEN and NOTIFICATION, and
//! `encode_into` ≡ `encode` over every corpus message.
//!
//! The seeds come from `bgpbench_check::corpus` — the same set the
//! mutational fuzzer (`bgpbench-check fuzz-wire`) starts from — so a
//! message shape added to the corpus is exercised by both the fuzzer's
//! byte-level mutations and these structured perturbations.

use bgpbench_wire::{
    Capability, ErrorCode, Message, NotificationMessage, OpenMessage, Origin, PathAttribute,
    Prefix, UpdateMessage, WireError,
};
use proptest::prelude::*;

/// The corpus OPENs, decoded back out of the shared seed set.
fn corpus_opens() -> Vec<OpenMessage> {
    bgpbench_check::corpus::seed_messages()
        .into_iter()
        .filter_map(|m| match m {
            Message::Open(open) => Some(open),
            _ => None,
        })
        .collect()
}

/// The corpus NOTIFICATIONs.
fn corpus_notifications() -> Vec<NotificationMessage> {
    bgpbench_check::corpus::seed_messages()
        .into_iter()
        .filter_map(|m| match m {
            Message::Notification(note) => Some(note),
            _ => None,
        })
        .collect()
}

fn roundtrip(message: Message) {
    let bytes = message.encode().expect("corpus-derived message encodes");
    let (decoded, consumed) = Message::decode(&bytes).expect("decodes back");
    assert_eq!(consumed, bytes.len());
    assert_eq!(decoded, message);
}

#[test]
fn corpus_has_open_and_notification_seeds() {
    assert!(corpus_opens().len() >= 2);
    assert!(corpus_notifications().len() >= 2);
}

#[test]
fn every_corpus_seed_image_is_a_decode_fixpoint() {
    for (message, image) in bgpbench_check::corpus::seed_messages()
        .into_iter()
        .zip(bgpbench_check::corpus::seed_bytes())
    {
        let (decoded, consumed) = Message::decode(&image).expect("seed image decodes");
        assert_eq!(consumed, image.len());
        assert_eq!(decoded, message);
        roundtrip(decoded);
    }
}

/// An UPDATE whose encoding overruns the 4096-octet message limit.
fn oversized_update() -> Message {
    let prefixes =
        (0u32..2000).map(|i| Prefix::new_masked(std::net::Ipv4Addr::from(i << 8), 32).unwrap());
    Message::Update(
        UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .announce_all(prefixes)
            .build(),
    )
}

proptest! {
    /// Appending the whole corpus (all five message types) to a buffer
    /// that already holds arbitrary bytes leaves those bytes alone and
    /// adds exactly each message's `encode()` image, in order.
    #[test]
    fn encode_into_appends_what_encode_returns(
        existing in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut appended = existing.clone();
        let mut expected = existing;
        for message in bgpbench_check::corpus::seed_messages() {
            message.encode_into(&mut appended).expect("corpus message encodes");
            expected.extend(message.encode().expect("corpus message encodes"));
        }
        prop_assert_eq!(appended, expected);
    }

    /// A message too long to encode leaves the caller's buffer exactly
    /// as it was, so one bad UPDATE cannot corrupt a staged run.
    #[test]
    fn message_too_long_leaves_the_buffer_untouched(
        existing in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut buffer = existing.clone();
        let result = oversized_update().encode_into(&mut buffer);
        prop_assert!(matches!(result, Err(WireError::MessageTooLong(_))));
        prop_assert_eq!(buffer, existing);
    }

    /// A corpus OPEN with perturbed session fields still round-trips.
    #[test]
    fn perturbed_corpus_open_roundtrips(
        which in any::<u8>(),
        asn_raw in 1u16..=u16::MAX,
        hold in prop_oneof![Just(0u16), 3u16..=u16::MAX],
        router_id_raw in 1u32..=u32::MAX,
    ) {
        let opens = corpus_opens();
        let base = &opens[usize::from(which) % opens.len()];
        let mut open = OpenMessage::new(
            bgpbench_wire::Asn(asn_raw),
            hold,
            bgpbench_wire::RouterId(router_id_raw),
        );
        for capability in base.capabilities() {
            open = open.with_capability(capability.clone());
        }
        roundtrip(Message::Open(open));
    }

    /// A corpus OPEN with extra capabilities appended still
    /// round-trips (dense capability packing).
    #[test]
    fn corpus_open_with_extra_capabilities_roundtrips(
        which in any::<u8>(),
        afi in any::<u16>(),
        safi in any::<u8>(),
        code in 3u8..=u8::MAX,
        value in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let opens = corpus_opens();
        let mut open = opens[usize::from(which) % opens.len()].clone();
        open = open
            .with_capability(Capability::Multiprotocol { afi, safi })
            .with_capability(Capability::Unknown { code, value });
        roundtrip(Message::Open(open));
    }

    /// A corpus NOTIFICATION with perturbed code/subcode/data still
    /// round-trips, including codes outside the RFC 4271 range.
    #[test]
    fn perturbed_corpus_notification_roundtrips(
        which in any::<u8>(),
        code in any::<u8>(),
        subcode in any::<u8>(),
        extend in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let notes = corpus_notifications();
        let base = &notes[usize::from(which) % notes.len()];
        let mut data = base.data().to_vec();
        data.extend_from_slice(&extend);
        let note = NotificationMessage::with_data(ErrorCode::from_wire(code), subcode, data);
        roundtrip(Message::Notification(note));
    }
}
