//! End-to-end tests: real speakers against the real daemon over
//! loopback TCP — the benchmark's Fig. 1 topology with live sockets.

#![expect(
    clippy::disallowed_methods,
    reason = "loopback session tests poll the live daemon against wall-clock deadlines"
)]

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bgpbench_daemon::{BgpDaemon, DaemonConfig};
use bgpbench_speaker::{workload, LiveSpeaker, LiveSpeakerConfig, TableGenerator};
use bgpbench_wire::{Asn, RouterId};

fn speaker1_config() -> LiveSpeakerConfig {
    LiveSpeakerConfig {
        local_asn: Asn(65001),
        router_id: RouterId(0x0A00_0002),
        hold_time_secs: 90,
    }
}

fn speaker2_config() -> LiveSpeakerConfig {
    LiveSpeakerConfig {
        local_asn: Asn(65002),
        router_id: RouterId(0x0A00_0003),
        hold_time_secs: 90,
    }
}

fn announce_spec(pkt: usize, path_len: usize, asn: u16) -> workload::AnnounceSpec {
    workload::AnnounceSpec {
        speaker_asn: Asn(asn),
        path_len,
        next_hop: Ipv4Addr::new(127, 0, 0, 1),
        prefixes_per_update: pkt,
        seed: 3,
    }
}

/// Polls until `predicate` holds on a snapshot or the timeout elapses.
fn wait_for(
    daemon: &BgpDaemon,
    timeout: Duration,
    predicate: impl Fn(&bgpbench_daemon::DaemonSnapshot) -> bool,
) -> bgpbench_daemon::DaemonSnapshot {
    let deadline = Instant::now() + timeout;
    loop {
        let snapshot = daemon.snapshot();
        if predicate(&snapshot) || Instant::now() > deadline {
            return snapshot;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn session_establishment_and_snapshot() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(speaker.peer_open().asn(), Asn(65000));
    let snapshot = wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 1);
    assert_eq!(snapshot.sessions, 1);
    drop(speaker);
    let snapshot = wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 0);
    assert_eq!(snapshot.sessions, 0);
    daemon.shutdown();
}

#[test]
fn phase1_table_injection_reaches_rib_and_fib() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let table = TableGenerator::new(10).generate(2000);
    let updates = workload::announcements(&table, &announce_spec(500, 3, 65001));
    speaker.flood(&updates).unwrap();
    let snapshot = wait_for(&daemon, Duration::from_secs(10), |s| s.loc_rib_len == 2000);
    assert_eq!(snapshot.loc_rib_len, 2000);
    assert_eq!(snapshot.fib_len, 2000);
    assert_eq!(snapshot.rib.fib_installs, 2000);
    daemon.shutdown();
}

/// The lock-free progress count is the snapshot's count, and both are
/// what the engine was fed.
#[test]
fn transactions_poll_agrees_with_the_snapshot_after_a_flood() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    assert_eq!(daemon.transactions(), 0);
    let table = TableGenerator::new(11).generate(3000);
    let updates = workload::announcements(&table, &announce_spec(7, 3, 65001));
    speaker.flood(&updates).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.transactions() < 3000 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let snapshot = daemon.snapshot();
    assert_eq!(daemon.transactions(), 3000);
    assert_eq!(snapshot.transactions, daemon.transactions());
    assert_eq!(snapshot.rib.announcements, 3000);
    assert_eq!(snapshot.updates_received, updates.len() as u64);
    daemon.shutdown();
}

#[test]
fn phase2_propagation_to_second_speaker() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let table = TableGenerator::new(11).generate(1000);
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(500, 3, 65001),
        ))
        .unwrap();
    wait_for(&daemon, Duration::from_secs(10), |s| s.loc_rib_len == 1000);

    // Speaker 2 connects afterwards and must receive the full table.
    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let summary = speaker2
        .collect_routes_until(1000, 0, Duration::from_secs(10))
        .unwrap();
    assert_eq!(summary.announced, 1000);
    daemon.shutdown();
}

#[test]
fn incremental_update_propagates_live() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 2);

    let table = TableGenerator::new(12).generate(100);
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(100, 3, 65001),
        ))
        .unwrap();
    // Speaker 2 receives the incremental announcements.
    let summary = speaker2
        .collect_routes_until(100, 0, Duration::from_secs(10))
        .unwrap();
    assert_eq!(summary.announced, 100);

    // Withdrawal flows through too.
    speaker1.flood(&workload::withdrawals(&table, 100)).unwrap();
    let summary = speaker2
        .collect_routes_until(0, 100, Duration::from_secs(10))
        .unwrap();
    assert_eq!(summary.withdrawn, 100);
    let snapshot = daemon.snapshot();
    assert_eq!(snapshot.loc_rib_len, 0);
    assert_eq!(snapshot.fib_len, 0);
    daemon.shutdown();
}

#[test]
fn session_drop_withdraws_routes_from_peers() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let table = TableGenerator::new(13).generate(50);
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(50, 3, 65001),
        ))
        .unwrap();
    speaker2
        .collect_routes_until(50, 0, Duration::from_secs(10))
        .unwrap();

    // Kill speaker 1; its routes must be withdrawn toward speaker 2.
    drop(speaker1);
    let summary = speaker2
        .collect_routes_until(0, 50, Duration::from_secs(10))
        .unwrap();
    assert_eq!(summary.withdrawn, 50);
    let snapshot = wait_for(&daemon, Duration::from_secs(5), |s| s.loc_rib_len == 0);
    assert_eq!(snapshot.fib_len, 0);
    daemon.shutdown();
}

#[test]
fn best_path_selection_happens_live() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 2);
    let table = TableGenerator::new(14).generate(20);

    // Speaker 1 announces with a long path, speaker 2 with a short one:
    // the daemon must prefer speaker 2 and re-advertise to speaker 1.
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(20, 5, 65001),
        ))
        .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.loc_rib_len == 20);
    speaker2
        .flood(&workload::announcements(
            &table,
            &announce_spec(20, 2, 65002),
        ))
        .unwrap();
    let summary = speaker1
        .collect_routes_until(20, 0, Duration::from_secs(10))
        .unwrap();
    // Speaker 1 first got nothing (it owned the best), then receives
    // the better routes sourced from speaker 2.
    assert_eq!(summary.announced, 20);
    let snapshot = daemon.snapshot();
    assert_eq!(snapshot.rib.best_changed, 40); // 20 installs + 20 replaces
    daemon.shutdown();
}

#[test]
fn peer_snapshots_count_both_directions() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 2);
    let table = TableGenerator::new(16).generate(40);
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(20, 3, 65001),
        ))
        .unwrap();
    speaker2
        .collect_routes_until(40, 0, Duration::from_secs(10))
        .unwrap();
    let peers = daemon.peer_snapshots();
    assert_eq!(peers.len(), 2);
    let p1 = peers.iter().find(|p| p.asn == Asn(65001)).unwrap();
    let p2 = peers.iter().find(|p| p.asn == Asn(65002)).unwrap();
    assert_eq!(p1.prefixes_in, 40);
    assert_eq!(p1.updates_in, 2);
    assert_eq!(
        p1.prefixes_out, 0,
        "no routes should flow back to the source"
    );
    assert_eq!(p2.prefixes_in, 0);
    assert_eq!(p2.prefixes_out, 40);
    daemon.shutdown();
}

#[test]
fn route_refresh_replays_the_full_table() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker1 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    // The daemon must advertise the RFC 2918 capability.
    assert!(speaker1
        .peer_open()
        .capabilities()
        .contains(&bgpbench_wire::Capability::RouteRefresh));
    let table = TableGenerator::new(15).generate(120);
    speaker1
        .flood(&workload::announcements(
            &table,
            &announce_spec(60, 3, 65001),
        ))
        .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.loc_rib_len == 120);

    let mut speaker2 = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker2_config(),
        Duration::from_secs(5),
    )
    .unwrap();
    // Initial table transfer.
    let first = speaker2
        .collect_routes_until(120, 0, Duration::from_secs(10))
        .unwrap();
    assert_eq!(first.announced, 120);
    // Refresh: the same 120 routes arrive again.
    speaker2.request_refresh().unwrap();
    let replay = speaker2
        .collect_routes_until(120, 0, Duration::from_secs(10))
        .unwrap();
    assert_eq!(replay.announced, 120);
    daemon.shutdown();
}

#[test]
fn daemon_survives_garbage_bytes() {
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
        stream.write_all(&[0u8; 64]).unwrap();
        // The daemon should answer with a NOTIFICATION and close.
    }
    // A proper session still works afterwards.
    let speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &speaker1_config(),
        Duration::from_secs(5),
    );
    assert!(speaker.is_ok());
    daemon.shutdown();
}

/// The daemon's session threads run the same `SessionFsm` the
/// simulated topology ticks, so a traced live peer leaves the same
/// timeline behind: the FSM's walk up and its session.up, the fall
/// back to Idle and its session.down, all under the peer's id.
#[test]
fn traced_live_session_walks_the_fsm() {
    use bgpbench_telemetry::{TraceConfig, TraceEventId};

    // Other tests of this binary run beside this one and are traced
    // while it is; an AS number nobody else uses finds this session.
    const ASN: u16 = 64_777;
    bgpbench_telemetry::enable_trace(&TraceConfig::default());
    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut speaker = LiveSpeaker::connect(
        daemon.local_addr(),
        &LiveSpeakerConfig {
            local_asn: Asn(ASN),
            ..speaker1_config()
        },
        Duration::from_secs(5),
    )
    .unwrap();
    let table = TableGenerator::new(18).generate(10);
    speaker
        .flood(&workload::announcements(&table, &announce_spec(10, 3, ASN)))
        .unwrap();
    wait_for(&daemon, Duration::from_secs(5), |s| s.loc_rib_len == 10);
    drop(speaker);
    wait_for(&daemon, Duration::from_secs(5), |s| s.sessions == 0);
    daemon.shutdown();
    bgpbench_telemetry::disable_trace();

    // A session's events are all recorded by its own thread.
    let dump = bgpbench_telemetry::trace_dump();
    let events = dump
        .threads
        .iter()
        .map(|thread| &thread.events)
        .find(|events| {
            events
                .iter()
                .any(|e| e.id == TraceEventId::SessionUp && e.b == u64::from(ASN))
        })
        .expect("the session was traced");
    let peer = events
        .iter()
        .find(|e| e.id == TraceEventId::SessionUp)
        .map(|e| e.a)
        .unwrap();
    let trail: Vec<(TraceEventId, u64)> = events
        .iter()
        .filter(|e| {
            matches!(
                e.id,
                TraceEventId::FsmTransition | TraceEventId::SessionUp | TraceEventId::SessionDown
            )
        })
        .map(|e| {
            assert_eq!(e.a, peer, "{e:?} is on another peer's track");
            (
                e.id,
                if e.id == TraceEventId::FsmTransition {
                    e.b
                } else {
                    0
                },
            )
        })
        .collect();
    // RFC 4271 state codes: Idle 1, Connect 2, OpenSent 4,
    // OpenConfirm 5, Established 6.
    assert_eq!(
        trail,
        [
            (TraceEventId::FsmTransition, 0x0102),
            (TraceEventId::FsmTransition, 0x0204),
            (TraceEventId::FsmTransition, 0x0405),
            (TraceEventId::FsmTransition, 0x0506),
            (TraceEventId::SessionUp, 0),
            (TraceEventId::FsmTransition, 0x0601),
            (TraceEventId::SessionDown, 0),
        ]
    );
}

/// A peer may send its first UPDATE right behind the KEEPALIVE that
/// completes the handshake. One socket read can then deliver both; the
/// UPDATE must be applied by the session the KEEPALIVE brought up.
#[test]
fn update_in_the_same_write_as_the_handshake_keepalive_is_applied() {
    use bgpbench_wire::{Message, OpenMessage, StreamDecoder};
    use std::io::{Read, Write};

    let daemon = BgpDaemon::start(DaemonConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let open = OpenMessage::new(Asn(65001), 90, RouterId(0x0A00_0002));
    stream
        .write_all(&Message::Open(open).encode().unwrap())
        .unwrap();
    // Wait for the daemon's OPEN and KEEPALIVE: it is in OpenConfirm.
    let mut decoder = StreamDecoder::new();
    let mut seen = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while seen.len() < 2 {
        assert!(Instant::now() < deadline, "no handshake from the daemon");
        let mut buf = [0u8; 1024];
        if let Ok(n) = stream.read(&mut buf) {
            decoder.extend(&buf[..n]);
            seen.extend(decoder.drain().unwrap());
        }
    }
    assert!(matches!(seen[..], [Message::Open(_), Message::Keepalive]));

    let table = TableGenerator::new(19).generate(5);
    let mut bytes = Message::Keepalive.encode().unwrap();
    for update in workload::announcements(&table, &announce_spec(5, 3, 65001)) {
        Message::Update(update).encode_into(&mut bytes).unwrap();
    }
    stream.write_all(&bytes).unwrap();
    let snapshot = wait_for(&daemon, Duration::from_secs(5), |s| s.loc_rib_len == 5);
    assert_eq!(snapshot.sessions, 1);
    assert_eq!(snapshot.loc_rib_len, 5);
    daemon.shutdown();
}
