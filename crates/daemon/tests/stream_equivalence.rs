//! Batching must be invisible on the wire.
//!
//! The daemon applies every message one socket read delivered under one
//! hold of the core lock and hands each peer its output as one buffer.
//! This test feeds one mixed stream over loopback, chopped at arbitrary
//! write boundaries, and requires the bytes a second speaker receives
//! to equal what a single-threaded reference produces UPDATE by UPDATE
//! (`AdjRibOut::sync_prefix` → `to_updates` → `Message::encode`,
//! concatenated): nothing reordered, merged, or split across
//! input-UPDATE boundaries.

#![expect(
    clippy::disallowed_methods,
    reason = "loopback stream tests poll the live daemon against wall-clock deadlines"
)]

use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgpbench_daemon::{BgpDaemon, DaemonConfig};
use bgpbench_rib::{AdjRibOut, PeerId, PeerInfo, RibEngine};
use bgpbench_speaker::{LiveSpeaker, LiveSpeakerConfig};
use bgpbench_wire::{AsPath, Asn, Message, Origin, PathAttribute, Prefix, RouterId, UpdateMessage};
use proptest::prelude::*;

const SENDER_ASN: Asn = Asn(65001);
const SENDER_ID: RouterId = RouterId(0x0A00_0002);
const OBSERVER_ASN: Asn = Asn(65002);
const OBSERVER_ID: RouterId = RouterId(0x0A00_0003);
/// The observer connects first, so the daemon numbers it 1.
const OBSERVER: PeerId = PeerId(1);
const SENDER: PeerId = PeerId(2);

/// One message of the sender's stream.
#[derive(Debug, Clone)]
enum Op {
    /// One prefix per UPDATE: the paper's small packets.
    AnnounceOne {
        slot: u8,
        path: u8,
    },
    /// 500 prefixes sharing one attribute set: the large packets.
    AnnounceBlock {
        block: u8,
        path: u8,
    },
    WithdrawOne {
        slot: u8,
    },
    WithdrawBlock {
        block: u8,
    },
    Keepalive,
    RouteRefresh,
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Few slots, blocks and paths, so announcements collide: replaces,
    // identical re-announcements and withdrawals of absent routes all
    // turn up. One-prefix announcements are listed twice to make them
    // the commonest message, as in the workload batching is for.
    prop_oneof![
        (0u8..6, 0u8..3).prop_map(|(slot, path)| Op::AnnounceOne { slot, path }),
        (0u8..6, 0u8..3).prop_map(|(slot, path)| Op::AnnounceOne { slot, path }),
        (0u8..2, 0u8..3).prop_map(|(block, path)| Op::AnnounceBlock { block, path }),
        (0u8..6).prop_map(|slot| Op::WithdrawOne { slot }),
        (0u8..2).prop_map(|block| Op::WithdrawBlock { block }),
        Just(Op::Keepalive),
        Just(Op::RouteRefresh),
    ]
}

fn slot_prefix(slot: u8) -> Prefix {
    Prefix::new_masked(Ipv4Addr::new(10, slot, 0, 0), 16).unwrap()
}

fn block_prefixes(block: u8) -> impl Iterator<Item = Prefix> {
    (0u32..500).map(move |i| {
        let bits = (20 + u32::from(block)) << 24 | i << 8;
        Prefix::new_masked(Ipv4Addr::from(bits), 24).unwrap()
    })
}

fn announce(prefixes: impl IntoIterator<Item = Prefix>, path: u8) -> Message {
    Message::Update(
        UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence([
                SENDER_ASN,
                Asn(100 + u16::from(path)),
            ])))
            .attribute(PathAttribute::NextHop(Ipv4Addr::new(127, 0, 0, 1)))
            .announce_all(prefixes)
            .build(),
    )
}

fn withdraw(prefixes: impl IntoIterator<Item = Prefix>) -> Message {
    Message::Update(UpdateMessage::builder().withdraw_all(prefixes).build())
}

impl Op {
    fn message(&self) -> Message {
        match *self {
            Op::AnnounceOne { slot, path } => announce([slot_prefix(slot)], path),
            Op::AnnounceBlock { block, path } => announce(block_prefixes(block), path),
            Op::WithdrawOne { slot } => withdraw([slot_prefix(slot)]),
            Op::WithdrawBlock { block } => withdraw(block_prefixes(block)),
            Op::Keepalive => Message::Keepalive,
            Op::RouteRefresh => Message::RouteRefresh { afi: 1, safi: 1 },
        }
    }
}

/// What the observer must receive: each input UPDATE applied and
/// re-advertised on its own, one after the other.
fn reference_output(config: &DaemonConfig, messages: &[Message]) -> Vec<u8> {
    let mut engine = RibEngine::new(config.local_asn, config.router_id);
    let loopback = Ipv4Addr::LOCALHOST;
    engine.add_peer(PeerInfo::new(OBSERVER, OBSERVER_ASN, OBSERVER_ID, loopback));
    engine.add_peer(PeerInfo::new(SENDER, SENDER_ASN, SENDER_ID, loopback));
    let mut adj_out = AdjRibOut::new();
    let mut output = Vec::new();
    for message in messages {
        // A KEEPALIVE changes nothing, and a ROUTE-REFRESH from the
        // sender re-advertises toward the sender only (nothing: every
        // route is its own).
        let Message::Update(update) = message else {
            continue;
        };
        let outcomes = engine.apply_update(SENDER, update).unwrap();
        let actions: Vec<_> = outcomes
            .iter()
            .filter_map(|outcome| {
                let desired = engine.loc_rib().get(&outcome.prefix).map(|route| {
                    Arc::new(route.attrs().exported(config.local_asn, config.next_hop))
                });
                adj_out.sync_prefix(outcome.prefix, desired)
            })
            .collect();
        for update in AdjRibOut::to_updates(&actions, config.export_prefixes_per_update) {
            output.extend(Message::Update(update).encode().unwrap());
        }
    }
    output
}

/// Connects a speaker and waits until the daemon counts its session:
/// the handshake completes on the speaker's side a moment before the
/// daemon registers the peer, and an observer registered late would be
/// sent a table dump instead of the UPDATE-by-UPDATE stream.
fn connect(daemon: &BgpDaemon, local_asn: Asn, router_id: RouterId) -> LiveSpeaker {
    let config = LiveSpeakerConfig {
        local_asn,
        router_id,
        hold_time_secs: 90,
    };
    let sessions = daemon.snapshot().sessions;
    let speaker =
        LiveSpeaker::connect(daemon.local_addr(), &config, Duration::from_secs(5)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while daemon.snapshot().sessions == sessions {
        assert!(Instant::now() < deadline, "session never registered");
        std::thread::sleep(Duration::from_millis(1));
    }
    speaker
}

/// Reads the observer's socket until `want` octets have arrived (or
/// five seconds pass) and returns whatever did.
fn read_raw(observer: &LiveSpeaker, want: usize) -> Vec<u8> {
    let mut stream = observer.raw_stream();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut received = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    while received.len() < want && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&buf[..n]),
            Err(_) => {} // read timeout; keep waiting
        }
    }
    received
}

proptest! {
    #[test]
    fn observer_receives_the_per_update_reference_stream(
        ops in prop::collection::vec(arb_op(), 1..40),
        cuts in prop::collection::vec(1usize..3000, 1..24),
    ) {
        let config = DaemonConfig::default();
        let mut messages: Vec<Message> = ops.iter().map(Op::message).collect();
        // A last announcement of a prefix nothing else touches always
        // produces output, so the end of the stream is recognisable.
        messages.push(announce(["192.0.2.0/24".parse().unwrap()], 0));
        let expected = reference_output(&config, &messages);

        let daemon = BgpDaemon::start(config).unwrap();
        let observer = connect(&daemon, OBSERVER_ASN, OBSERVER_ID);
        let sender = connect(&daemon, SENDER_ASN, SENDER_ID);

        let mut input = Vec::new();
        for message in &messages {
            message.encode_into(&mut input).unwrap();
        }
        let mut rest = input.as_slice();
        let mut stream = sender.raw_stream();
        for cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at((*cut).min(rest.len()));
            stream.write_all(piece).unwrap();
            rest = tail;
        }

        let received = read_raw(&observer, expected.len());
        drop((sender, observer));
        daemon.shutdown();
        prop_assert!(
            received == expected,
            "observer received {} octets, the reference produced {}",
            received.len(),
            expected.len()
        );
    }
}
