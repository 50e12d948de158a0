//! One end-to-end rep against the real `BgpDaemon` over loopback TCP.
//!
//! Only public API is used: `BgpDaemon::start`, `LiveSpeaker::connect`,
//! pre-encoded bytes written through `raw_stream()` by one sender
//! thread, and `recv()` on Speaker 2 by the collector. The clock runs
//! from the first byte sent until the collector holds the last
//! re-advertised prefix the oracle expects — the paper's timed phase,
//! export half included. `core::live::run_live_scenario` is not used
//! because it attaches no Speaker 2 in the start-up scenarios and
//! detects completion by polling the core lock every 2 ms.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bgpbench_daemon::{BgpDaemon, DaemonConfig, DaemonSnapshot};
use bgpbench_speaker::{LiveSpeaker, LiveSpeakerConfig};
use bgpbench_wire::{Asn, Message, RouterId, UpdateMessage};

use crate::digest::RouteTable;
use crate::host;
use crate::inputs::{LiveInput, SLOT_PERIOD, SPEAKER1_ASN, SPEAKER2_ASN};
use crate::stats;

/// A phase that receives nothing for this long has lost transactions.
const STALL: Duration = Duration::from_secs(20);

/// What one rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Daemon start, both handshakes and the pre-load.
    pub setup_s: f64,
    /// First byte sent → last expected prefix received.
    pub elapsed_s: f64,
    /// Process CPU over the same interval.
    pub cpu_ns: u64,
    /// Per-transaction µs from due time to receipt, p50 and p99. Due
    /// is the slot's due time when paced; a flood offers everything at
    /// the phase start, so there it is the phase start.
    pub propagation_p50_us: f64,
    pub propagation_p99_us: f64,
    /// Share of the phase the sender spent inside `write_all`.
    pub send_share: f64,
    /// p99 of how late the paced sender started a slot (0 for floods).
    pub late_p99_us: f64,
    /// Failed correctness checks, in words; empty when the rep is good.
    pub failures: Vec<String>,
}

fn speaker_config(asn: Asn, id: u32) -> LiveSpeakerConfig {
    LiveSpeakerConfig {
        local_asn: asn,
        router_id: RouterId(id),
        hold_time_secs: 90,
    }
}

/// Receives UPDATEs until `want` prefix-level transactions arrived,
/// stamping each message with its arrival time since `t0`.
fn collect(
    speaker: &mut LiveSpeaker,
    want: usize,
    t0: Instant,
) -> io::Result<Vec<(Duration, UpdateMessage)>> {
    let mut received = Vec::new();
    let mut got = 0;
    let mut last_progress = Instant::now();
    while got < want {
        match speaker.recv()? {
            Some(Message::Update(update)) => {
                got += update.transaction_count();
                last_progress = Instant::now();
                received.push((last_progress - t0, update));
            }
            Some(Message::Notification(note)) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("daemon sent notification: {note}"),
                ));
            }
            Some(_) => {}
            None if last_progress.elapsed() > STALL => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("received {got} of {want} transactions, then nothing for {STALL:?}"),
                ));
            }
            None => {}
        }
    }
    Ok(received)
}

struct Sent {
    busy: Duration,
    late_us: Vec<f64>,
}

/// Writes the timed stream: all at once (closed loop against TCP flow
/// control), or one slot per `SLOT_PERIOD` on schedule (open loop).
fn send(mut stream: &TcpStream, input: &LiveInput, t0: Instant) -> io::Result<Sent> {
    let mut sent = Sent {
        busy: Duration::ZERO,
        late_us: Vec::new(),
    };
    if input.slots.is_empty() {
        let started = Instant::now();
        stream.write_all(&input.timed.bytes)?;
        sent.busy = started.elapsed();
        return Ok(sent);
    }
    for (index, slot) in input.slots.iter().enumerate() {
        if slot.bytes.is_empty() {
            continue;
        }
        let due = t0 + SLOT_PERIOD * index as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let started = Instant::now();
        sent.late_us
            .push(started.saturating_duration_since(due).as_secs_f64() * 1e6);
        stream.write_all(&input.timed.bytes[slot.bytes.clone()])?;
        sent.busy += started.elapsed();
    }
    Ok(sent)
}

/// Per-transaction propagation delays in µs, sorted ascending.
fn propagation_us(input: &LiveInput, received: &[(Duration, UpdateMessage)]) -> Vec<f64> {
    let mut delays = Vec::with_capacity(input.timed.out_transactions);
    let mut slot = 0;
    let mut seen = 0;
    for (at, update) in received {
        for _ in 0..update.transaction_count() {
            let due = if input.slots.is_empty() {
                Duration::ZERO
            } else {
                while slot + 1 < input.slots.len() && input.slots[slot].out_end <= seen {
                    slot += 1;
                }
                SLOT_PERIOD * slot as u32
            };
            delays.push(at.saturating_sub(due).as_secs_f64() * 1e6);
            seen += 1;
        }
    }
    stats::sort(&mut delays);
    delays
}

/// The daemon's own counters must agree with the streams it was fed.
fn check_snapshot(
    snapshot: &DaemonSnapshot,
    input: &LiveInput,
    prefixes_out: u64,
    failures: &mut Vec<String>,
) {
    let mut expect = |what: &str, got: u64, want: usize| {
        if got != want as u64 {
            failures.push(format!("daemon {what}: {got}, expected {want}"));
        }
    };
    expect(
        "transactions",
        snapshot.transactions,
        input.transactions_in(),
    );
    expect(
        "loc_rib_len",
        snapshot.loc_rib_len as u64,
        input.expected.routes,
    );
    expect("fib_len", snapshot.fib_len as u64, input.expected.routes);
    expect(
        "prefixes_out to Speaker 2",
        prefixes_out,
        input.transactions_out(),
    );
}

/// Waits (untimed) for the daemon to finish input that produces no
/// output — an identical re-announcement after the last re-advertised
/// prefix — so the snapshot check reads settled counters.
fn settled_snapshot(daemon: &BgpDaemon, transactions: usize) -> DaemonSnapshot {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let snapshot = daemon.snapshot();
        if snapshot.transactions >= transactions as u64 || Instant::now() > deadline {
            return snapshot;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs one rep: fresh daemon, two sessions, optional pre-load, the
/// timed phase, the correctness checks, teardown.
///
/// # Errors
///
/// Socket errors and stalls; a rep that completes but fails a check
/// returns `Ok` with `failures` filled.
pub fn run_rep(input: &LiveInput) -> io::Result<Rep> {
    let setup_started = Instant::now();
    let daemon = BgpDaemon::start(DaemonConfig::default())?;
    let addr = daemon.local_addr();
    let handshake = Duration::from_secs(10);
    let speaker1 =
        LiveSpeaker::connect(addr, &speaker_config(SPEAKER1_ASN, 0x0A00_0002), handshake)?;
    let mut speaker2 =
        LiveSpeaker::connect(addr, &speaker_config(SPEAKER2_ASN, 0x0A00_0003), handshake)?;

    let mut collected = RouteTable::default();
    if let Some(preload) = &input.preload {
        // The daemon queues its output without bound, so writing the
        // whole pre-load before reading any of it cannot deadlock.
        let mut stream = speaker1.raw_stream();
        stream.write_all(&preload.bytes)?;
        for (_, update) in collect(&mut speaker2, preload.out_transactions, Instant::now())? {
            collected.apply_received(&update);
        }
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let cpu_before = host::process_cpu_ns();
    let t0 = Instant::now();
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| send(speaker1.raw_stream(), input, t0));
        let received = collect(&mut speaker2, input.timed.out_transactions, t0);
        let sent = sender.join().expect("sender thread panicked");
        (sent, received)
    });
    let cpu_ns = host::process_cpu_ns() - cpu_before;
    let (sent, received) = (sent?, received?);
    let elapsed = received.last().map_or(Duration::ZERO, |(at, _)| *at);

    let mut failures = Vec::new();
    let mut got = 0;
    for (_, update) in &received {
        got += collected.apply_received(update);
    }
    if got != input.timed.out_transactions {
        failures.push(format!(
            "Speaker 2 saw {got} route changes, expected {}",
            input.timed.out_transactions
        ));
    }
    if collected.digest() != input.expected {
        failures.push(format!(
            "Speaker 2 holds {:?}, expected {:?}",
            collected.digest(),
            input.expected
        ));
    }
    let snapshot = settled_snapshot(&daemon, input.transactions_in());
    let prefixes_out = daemon
        .peer_snapshots()
        .iter()
        .find(|peer| peer.asn == SPEAKER2_ASN)
        .map_or(0, |peer| peer.prefixes_out);
    check_snapshot(&snapshot, input, prefixes_out, &mut failures);

    let delays = propagation_us(input, &received);
    let mut late_us = sent.late_us;
    stats::sort(&mut late_us);

    // Speaker 2 first: once it is gone, Speaker 1's teardown has no
    // neighbour left to send a table's worth of withdrawals to.
    drop(speaker2);
    drop(speaker1);
    daemon.shutdown();

    Ok(Rep {
        setup_s,
        elapsed_s: elapsed.as_secs_f64(),
        cpu_ns,
        propagation_p50_us: stats::percentile_sorted(&delays, 50.0),
        propagation_p99_us: stats::percentile_sorted(&delays, 99.0),
        send_share: sent.busy.as_secs_f64() / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        late_p99_us: if late_us.is_empty() {
            0.0
        } else {
            stats::percentile_sorted(&late_us, 99.0)
        },
        failures,
    })
}
