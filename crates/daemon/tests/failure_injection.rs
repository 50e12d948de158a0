//! Failure injection against the live daemon: timer expiry, protocol
//! garbage mid-session, and abrupt disconnects mid-transfer.

#![expect(
    clippy::disallowed_methods,
    reason = "hold-timer expiry and disconnect waits against a real TCP session run on the host clock"
)]

use std::io::Write;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bgpbench_daemon::{BgpDaemon, DaemonConfig};
use bgpbench_speaker::{workload, LiveSpeaker, LiveSpeakerConfig, TableGenerator};
use bgpbench_wire::{Asn, ErrorCode, Message, NotificationMessage, RouterId};

fn wait_sessions(daemon: &BgpDaemon, expected: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if daemon.snapshot().sessions == expected {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn hold_timer_expiry_tears_the_session_down() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    // Negotiate the RFC minimum hold time (3 s) and then go silent.
    let mut speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &LiveSpeakerConfig {
            local_asn: Asn(65001),
            router_id: RouterId(0x0A00_0002),
            hold_time_secs: 3,
        },
        Duration::from_secs(5),
    )
    .unwrap();
    assert!(wait_sessions(&daemon, 1, Duration::from_secs(5)));

    // Stay silent; the daemon must notify HoldTimerExpired and close.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut saw_hold_expired = false;
    while Instant::now() < deadline && !saw_hold_expired {
        match speaker.recv() {
            Ok(Some(Message::Notification(note))) => {
                assert_eq!(note.error_code(), ErrorCode::HoldTimerExpired);
                saw_hold_expired = true;
            }
            Ok(Some(Message::Keepalive)) => {
                // Deliberately do not answer.
            }
            Ok(Some(other)) => panic!("unexpected message: {other:?}"),
            Ok(None) => {}
            Err(_) => break, // connection closed after the notification
        }
    }
    assert!(saw_hold_expired, "daemon never sent HoldTimerExpired");
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    daemon.shutdown();
}

#[test]
fn answered_keepalives_keep_the_session_alive() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &LiveSpeakerConfig {
            local_asn: Asn(65001),
            router_id: RouterId(0x0A00_0002),
            hold_time_secs: 3,
        },
        Duration::from_secs(5),
    )
    .unwrap();
    // Answer keepalives for well past the hold time.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match speaker.recv() {
            Ok(Some(Message::Keepalive)) => speaker.send_keepalive().unwrap(),
            Ok(Some(Message::Notification(note))) => {
                panic!("session died despite keepalives: {note}")
            }
            Ok(_) | Err(_) => {}
        }
    }
    assert_eq!(daemon.snapshot().sessions, 1);
    daemon.shutdown();
}

#[test]
fn garbage_mid_session_closes_only_that_session() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let config = LiveSpeakerConfig {
        local_asn: Asn(65001),
        router_id: RouterId(0x0A00_0002),
        hold_time_secs: 90,
    };
    // A healthy second session that must survive.
    let healthy = LiveSpeaker::connect(
        daemon.local_addr(),
        &LiveSpeakerConfig {
            local_asn: Asn(65002),
            router_id: RouterId(0x0A00_0003),
            hold_time_secs: 90,
        },
        Duration::from_secs(5),
    )
    .unwrap();
    assert!(wait_sessions(&daemon, 1, Duration::from_secs(5)));

    // The victim session sends a corrupted marker mid-stream.
    {
        let mut victim =
            LiveSpeaker::connect(daemon.local_addr(), &config, Duration::from_secs(5)).unwrap();
        assert!(wait_sessions(&daemon, 2, Duration::from_secs(5)));
        // Reach under the speaker: send raw garbage over a fresh update.
        victim
            .send_update(
                &bgpbench_wire::UpdateMessage::builder()
                    .withdraw("10.0.0.0/8".parse().unwrap())
                    .build(),
            )
            .unwrap();
        // Now raw bytes that cannot be a BGP header.
        let mut stream = victim_stream(&mut victim);
        stream.write_all(&[0u8; 19]).unwrap();
        // The daemon says what was wrong — the marker, so Message
        // Header Error / Connection Not Synchronized — and drops this
        // session shortly.
        let note = next_notification(&mut victim);
        assert_eq!(note.error_code(), ErrorCode::MessageHeaderError);
        assert_eq!(note.subcode(), 1, "connection not synchronized");
        assert!(wait_sessions(&daemon, 1, Duration::from_secs(5)));
    }
    // The healthy session is untouched.
    assert_eq!(daemon.snapshot().sessions, 1);
    drop(healthy);
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    daemon.shutdown();
}

/// Grabs a raw handle to the speaker's socket for garbage injection.
fn victim_stream(speaker: &mut LiveSpeaker) -> std::net::TcpStream {
    speaker.raw_stream().try_clone().unwrap()
}

/// Reads until the daemon's NOTIFICATION arrives.
fn next_notification(speaker: &mut LiveSpeaker) -> NotificationMessage {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(Instant::now() < deadline, "no notification received");
        match speaker.recv() {
            Ok(Some(Message::Notification(note))) => return note,
            Ok(_) => {}
            Err(err) => panic!("session closed without a notification: {err}"),
        }
    }
}

#[test]
fn bad_length_mid_session_is_named_in_the_notification() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = connect(&daemon);
    // A well-formed marker, then a length below the 19-octet header.
    let mut header = [0xFFu8; 19];
    header[16..18].copy_from_slice(&18u16.to_be_bytes());
    header[18] = 2;
    speaker.raw_stream().write_all(&header).unwrap();
    let note = next_notification(&mut speaker);
    assert_eq!(note.error_code(), ErrorCode::MessageHeaderError);
    assert_eq!(note.subcode(), 2, "bad message length");
    assert_eq!(note.data(), 18u16.to_be_bytes(), "the length as sent");
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    daemon.shutdown();
}

fn connect(daemon: &BgpDaemon) -> LiveSpeaker {
    let config = LiveSpeakerConfig {
        local_asn: Asn(65001),
        router_id: RouterId(0x0A00_0002),
        hold_time_secs: 90,
    };
    let speaker =
        LiveSpeaker::connect(daemon.local_addr(), &config, Duration::from_secs(5)).unwrap();
    assert!(wait_sessions(daemon, 1, Duration::from_secs(5)));
    speaker
}

#[test]
fn an_open_mid_session_is_an_fsm_error() {
    use bgpbench_wire::OpenMessage;

    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = connect(&daemon);
    let open = Message::Open(OpenMessage::new(Asn(65001), 90, RouterId(0x0A00_0002)));
    speaker
        .raw_stream()
        .write_all(&open.encode().unwrap())
        .unwrap();
    let note = next_notification(&mut speaker);
    assert_eq!(note.error_code(), ErrorCode::FiniteStateMachineError);
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    daemon.shutdown();
}

#[test]
fn a_peer_notification_ends_the_session_without_a_reply() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = connect(&daemon);
    let cease = Message::Notification(NotificationMessage::new(ErrorCode::Cease, 0));
    speaker
        .raw_stream()
        .write_all(&cease.encode().unwrap())
        .unwrap();
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    // The daemon closes; nothing but the end of the stream comes back.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(Instant::now() < deadline, "the daemon never closed");
        match speaker.recv() {
            Ok(Some(Message::Notification(note))) => panic!("replied with {note}"),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    daemon.shutdown();
}

#[test]
fn shutdown_ceases_established_sessions() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = connect(&daemon);
    daemon.shutdown();
    let note = next_notification(&mut speaker);
    assert_eq!(note.error_code(), ErrorCode::Cease);
}

#[test]
fn unsupported_bgp_version_gets_the_rfc_subcode() {
    use bgpbench_wire::{Message, OpenMessage, StreamDecoder};
    use std::io::Read;

    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    // A valid OPEN with the version octet rewritten to 3.
    let mut open = Message::Open(OpenMessage::new(Asn(65001), 90, RouterId(7)))
        .encode()
        .unwrap();
    open[19] = 3; // version field immediately after the header
    stream.write_all(&open).unwrap();

    // Expect NOTIFICATION: OPEN message error (2), unsupported
    // version number (1) — behind the OPEN the daemon sent on connect.
    let mut decoder = StreamDecoder::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let note = 'read: loop {
        assert!(Instant::now() < deadline, "no notification received");
        let mut buf = [0u8; 1024];
        match stream.read(&mut buf) {
            Ok(0) => panic!("connection closed without notification"),
            Ok(n) => {
                decoder.extend(&buf[..n]);
                while let Some(message) = decoder.next_message().unwrap() {
                    if let Message::Notification(note) = message {
                        break 'read note;
                    }
                }
            }
            Err(_) => {}
        }
    };
    assert_eq!(note.error_code(), ErrorCode::OpenMessageError);
    assert_eq!(note.subcode(), 1);
    daemon.shutdown();
}

/// An UPDATE the RIB rejects (no NEXT_HOP) must earn the sender an
/// UPDATE Message Error and end its session — not be dropped silently —
/// and what the UPDATEs ahead of it in the same socket read caused must
/// still go out first.
#[test]
fn update_missing_next_hop_is_notified_after_the_batch_ahead_of_it() {
    use bgpbench_wire::{AsPath, Origin, PathAttribute, Prefix, UpdateMessage};

    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let connect = |asn: u16, id: u32| {
        LiveSpeaker::connect(
            daemon.local_addr(),
            &LiveSpeakerConfig {
                local_asn: Asn(asn),
                router_id: RouterId(id),
                hold_time_secs: 90,
            },
            Duration::from_secs(5),
        )
        .unwrap()
    };
    let mut observer = connect(65002, 0x0A00_0003);
    assert!(wait_sessions(&daemon, 1, Duration::from_secs(5)));
    let mut sender = connect(65001, 0x0A00_0002);
    assert!(wait_sessions(&daemon, 2, Duration::from_secs(5)));

    let good: Vec<Prefix> = vec![
        "10.1.0.0/16".parse().unwrap(),
        "10.2.0.0/16".parse().unwrap(),
    ];
    let announce = |prefix: Prefix, with_next_hop: bool| {
        let mut builder = UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(65001)])));
        if with_next_hop {
            builder = builder.attribute(PathAttribute::NextHop(Ipv4Addr::new(127, 0, 0, 1)));
        }
        Message::Update(builder.announce(prefix).build())
    };
    // One write, so one socket read, so one batch.
    let mut bytes = Vec::new();
    for prefix in &good {
        announce(*prefix, true).encode_into(&mut bytes).unwrap();
    }
    announce("10.3.0.0/16".parse().unwrap(), false)
        .encode_into(&mut bytes)
        .unwrap();
    sender.raw_stream().write_all(&bytes).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    let note = loop {
        assert!(Instant::now() < deadline, "no notification received");
        match sender.recv() {
            Ok(Some(Message::Notification(note))) => break note,
            Ok(_) => {}
            Err(err) => panic!("session closed without a notification: {err}"),
        }
    };
    assert_eq!(note.error_code(), ErrorCode::UpdateMessageError);
    assert_eq!(note.subcode(), 3, "missing well-known attribute");
    assert_eq!(note.data(), [3], "NEXT_HOP's type code");
    assert!(wait_sessions(&daemon, 1, Duration::from_secs(5)));

    // The observer hears both good routes, then (the session having
    // died) their withdrawal; the rejected prefix never appears.
    let mut announced = Vec::new();
    let mut withdrawn = Vec::new();
    while withdrawn.len() < good.len() {
        assert!(Instant::now() < deadline, "observer missed the fallout");
        if let Ok(Some(Message::Update(update))) = observer.recv() {
            assert!(
                update.withdrawn().is_empty() || announced.len() == good.len(),
                "withdrawn before both announcements arrived"
            );
            announced.extend_from_slice(update.nlri());
            withdrawn.extend_from_slice(update.withdrawn());
        }
    }
    withdrawn.sort();
    assert_eq!(announced, good);
    assert_eq!(withdrawn, good);
    assert_eq!(daemon.snapshot().loc_rib_len, 0);
    daemon.shutdown();
}

#[test]
fn disconnect_mid_table_transfer_is_cleaned_up() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let config = LiveSpeakerConfig {
        local_asn: Asn(65001),
        router_id: RouterId(0x0A00_0002),
        hold_time_secs: 90,
    };
    let table = TableGenerator::new(17).generate(5000);
    let updates = workload::announcements(
        &table,
        &workload::AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(127, 0, 0, 1),
            prefixes_per_update: 500,
            seed: 17,
        },
    );
    {
        let mut speaker =
            LiveSpeaker::connect(daemon.local_addr(), &config, Duration::from_secs(5)).unwrap();
        // Send half the table, then vanish.
        speaker.flood(&updates[..5]).unwrap();
        // Dropped here: TCP reset/EOF mid-transfer.
    }
    assert!(wait_sessions(&daemon, 0, Duration::from_secs(5)));
    // Whatever made it in was withdrawn on session loss.
    let snapshot = daemon.snapshot();
    assert_eq!(snapshot.loc_rib_len, 0);
    assert_eq!(snapshot.fib_len, 0);
    // And a fresh session still works.
    let mut speaker =
        LiveSpeaker::connect(daemon.local_addr(), &config, Duration::from_secs(5)).unwrap();
    speaker.flood(&updates).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && daemon.snapshot().loc_rib_len < 5000 {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(daemon.snapshot().loc_rib_len, 5000);
    daemon.shutdown();
}
