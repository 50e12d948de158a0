//! Trace export: Chrome trace-event JSON and a plain-text tail.
//!
//! The JSON form targets the [Trace Event Format] consumed by Perfetto
//! and `chrome://tracing`: an object with a `traceEvents` array whose
//! entries carry `name`, `ph` (phase), `ts` (microseconds), `pid`, and
//! `tid`. Spans are emitted as complete events (`ph:"X"` with `dur`),
//! instants as `ph:"i"`, counters as `ph:"C"`, and every synthetic
//! track gets a `thread_name` metadata event so the timeline reads
//! "rib shard 3" / "peer 2" instead of raw ids.
//!
//! Track layout: thread-track events keep their recording thread's
//! `tid`; shard- and peer-track events are regrouped onto synthetic
//! tids ([`SHARD_TID_BASE`], [`PEER_TID_BASE`]) keyed by label `a`, so
//! the exported timeline has one track per thread, per RIB shard, and
//! per peer.
//!
//! The emitter writes exactly one JSON object per line inside the
//! array; [`validate_chrome_json`] is the matching minimal-schema
//! reader used by the CI trace smoke step and the `bgpbench-check
//! trace-schema` subcommand.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use super::{TraceDump, TraceEvent, TraceKind, TraceTrack};

/// `pid` stamped on every exported event; the whole benchmark is one
/// process.
pub const TRACE_PID: u32 = 1;

/// Synthetic `tid` base for per-shard tracks (`tid = base + shard`).
pub const SHARD_TID_BASE: u64 = 2_000;

/// Synthetic `tid` base for per-peer tracks (`tid = base + peer`).
pub const PEER_TID_BASE: u64 = 1_000;

fn event_tid(thread_tid: u32, event: &TraceEvent) -> u64 {
    match event.id.track() {
        TraceTrack::Thread => u64::from(thread_tid),
        TraceTrack::Shard => SHARD_TID_BASE + event.a,
        TraceTrack::Peer => PEER_TID_BASE + event.a,
    }
}

fn track_name(thread_tid: u32, event: &TraceEvent) -> String {
    match event.id.track() {
        TraceTrack::Thread => format!("thread {thread_tid}"),
        TraceTrack::Shard => format!("rib shard {}", event.a),
        TraceTrack::Peer => format!("peer {}", event.a),
    }
}

/// Microseconds with nanosecond resolution kept as a decimal fraction.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_event_json(out: &mut String, event: &TraceEvent, tid: u64) {
    let (label_a, label_b) = event.id.label_names();
    let (ph, dur) = match event.id.kind() {
        TraceKind::Span => ("X", Some(event.dur_ns)),
        TraceKind::Instant => ("i", None),
        TraceKind::Counter => ("C", None),
    };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        event.id.name(),
        match event.id.track() {
            TraceTrack::Thread => "thread",
            TraceTrack::Shard => "shard",
            TraceTrack::Peer => "peer",
        },
        ph,
        ts_us(event.ts_ns),
        TRACE_PID,
        tid,
    );
    if let Some(dur_ns) = dur {
        let _ = write!(out, ",\"dur\":{}", ts_us(dur_ns));
    }
    if event.id.kind() == TraceKind::Instant {
        // Thread-scoped instants; Perfetto requires the scope field to
        // render "i" events.
        out.push_str(",\"s\":\"t\"");
    }
    let _ = match event.id.kind() {
        TraceKind::Counter => writeln!(out, ",\"args\":{{\"value\":{}}}}}", event.a),
        _ => writeln!(
            out,
            ",\"args\":{{\"{}\":{},\"{}\":{},\"virt_ns\":{}}}}}",
            label_a, event.a, label_b, event.b, event.virt_ns
        ),
    };
}

/// Renders a [`TraceDump`] as Chrome trace-event JSON.
pub fn chrome_json(dump: &TraceDump) -> String {
    // (tid, name) pairs for thread_name metadata, deduped and sorted
    // so output is deterministic for a given dump.
    let mut tracks: Vec<(u64, String)> = Vec::new();
    for thread in &dump.threads {
        for event in &thread.events {
            let tid = event_tid(thread.tid, event);
            if !tracks.iter().any(|(t, _)| *t == tid) {
                tracks.push((tid, track_name(thread.tid, event)));
            }
        }
    }
    tracks.sort();

    let mut out = String::with_capacity(dump.total_events() * 160 + 1024);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, name) in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = writeln!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            TRACE_PID, tid, name
        );
    }
    for thread in &dump.threads {
        for event in &thread.events {
            if !first {
                out.push(',');
            }
            first = false;
            push_event_json(&mut out, event, event_tid(thread.tid, event));
        }
    }
    let _ = writeln!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}}}}",
        dump.total_dropped()
    );
    out
}

/// Renders the newest `limit` events across all threads as text, one
/// line each, oldest first — the panic tail the grid runner prints
/// next to the post-mortem file.
pub fn tail_text(dump: &TraceDump, limit: usize) -> String {
    let mut events: Vec<&TraceEvent> = dump.threads.iter().flat_map(|t| &t.events).collect();
    events.sort_by_key(|event| event.ts_ns);
    let mut out = String::new();
    for event in events.iter().skip(events.len().saturating_sub(limit)) {
        let (label_a, label_b) = event.id.label_names();
        let _ = writeln!(
            out,
            "[{:>14} us | virt {:>12} ns] {} {}={} {}={}",
            ts_us(event.ts_ns),
            event.virt_ns,
            event.id.name(),
            label_a,
            event.a,
            label_b,
            event.b
        );
    }
    out
}

/// Summary of a validated Chrome trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Events excluding `thread_name` metadata.
    pub events: usize,
    /// Distinct `tid`s on the `thread` category.
    pub thread_tracks: usize,
    /// Distinct `tid`s on the `shard` category.
    pub shard_tracks: usize,
    /// Distinct `tid`s on the `peer` category.
    pub peer_tracks: usize,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line.get(start..)?;
    let end = rest
        .char_indices()
        .find(|(_, c)| *c == ',' || *c == '}')
        .map(|(i, _)| i)?;
    rest.get(..end)
}

fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

/// Validates the minimal Perfetto-required schema of a Chrome
/// trace-event file produced by [`chrome_json`]: every event object
/// must carry `name`, a known `ph`, a numeric `ts`, `pid`, and `tid`.
/// Returns track/event counts on success.
pub fn validate_chrome_json(text: &str) -> Result<ChromeTraceStats, String> {
    if !text.trim_start().starts_with("{\"traceEvents\":[") {
        return Err("missing traceEvents array header".into());
    }
    let mut stats = ChromeTraceStats::default();
    let mut tids: Vec<(u64, &str)> = Vec::new();
    let mut saw_any = false;
    for (lineno, raw) in text.lines().enumerate() {
        let body = raw.trim_start().trim_start_matches(',');
        if !body.starts_with('{') || body.starts_with("{\"traceEvents\"") {
            continue; // header/footer lines
        }
        let err = |what: &str| format!("line {}: {what}: {raw}", lineno + 1);
        let ph = string_field(raw, "ph").ok_or_else(|| err("missing ph"))?;
        if !matches!(ph, "X" | "i" | "C" | "M" | "B" | "E") {
            return Err(err("unknown ph"));
        }
        let ts = field(raw, "ts").ok_or_else(|| err("missing ts"))?;
        if ts.parse::<f64>().is_err() {
            return Err(err("non-numeric ts"));
        }
        let pid = field(raw, "pid").ok_or_else(|| err("missing pid"))?;
        if pid.parse::<u64>().is_err() {
            return Err(err("non-numeric pid"));
        }
        let tid: u64 = field(raw, "tid")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("missing tid"))?;
        if string_field(raw, "name").is_none() {
            return Err(err("missing name"));
        }
        if ph == "X" && field(raw, "dur").is_none_or(|d| d.parse::<f64>().is_err()) {
            return Err(err("complete event missing dur"));
        }
        saw_any = true;
        if ph == "M" {
            continue;
        }
        stats.events += 1;
        let cat = string_field(raw, "cat").unwrap_or("thread");
        if !tids.iter().any(|(t, _)| *t == tid) {
            tids.push((tid, cat));
        }
    }
    if !saw_any {
        return Err("no events".into());
    }
    for (_, cat) in &tids {
        match *cat {
            "shard" => stats.shard_tracks += 1,
            "peer" => stats.peer_tracks += 1,
            _ => stats.thread_tracks += 1,
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ThreadTrace, TraceEventId};

    fn sample_dump() -> TraceDump {
        let ev = |id: TraceEventId, ts: u64, dur: u64, a: u64, b: u64| TraceEvent {
            id,
            ts_ns: ts,
            dur_ns: dur,
            virt_ns: ts / 2,
            a,
            b,
        };
        TraceDump {
            threads: vec![
                ThreadTrace {
                    tid: 1,
                    dropped: 0,
                    events: vec![
                        ev(TraceEventId::PhaseMark, 100, 0, 1, 0),
                        ev(TraceEventId::ShardBusy, 200, 1_500, 0, 12),
                        ev(TraceEventId::FsmTransition, 300, 0, 2, 0x0106),
                        ev(TraceEventId::MergeQueueDepth, 400, 0, 5, 0),
                    ],
                },
                ThreadTrace {
                    tid: 2,
                    dropped: 3,
                    events: vec![
                        ev(TraceEventId::ShardBusy, 250, 900, 1, 7),
                        ev(TraceEventId::SessionDown, 500, 0, 1, 9),
                    ],
                },
            ],
        }
    }

    #[test]
    fn chrome_json_validates_and_counts_tracks() {
        let json = chrome_json(&sample_dump());
        let stats = validate_chrome_json(&json).expect("own output validates");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.shard_tracks, 2, "shards 0 and 1");
        assert_eq!(stats.peer_tracks, 2, "peers 1 and 2");
        // Thread 2's events all regroup onto shard/peer tracks, so
        // only thread 1 keeps a native track.
        assert_eq!(stats.thread_tracks, 1);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("rib shard 1"));
        assert!(json.contains("\"dropped_events\":3"));
    }

    #[test]
    fn tail_text_shows_the_newest_events_in_time_order() {
        let tail = tail_text(&sample_dump(), 3);
        let names: Vec<&str> = tail
            .lines()
            .map(|line| line.split("] ").nth(1).expect("line has a body"))
            .collect();
        assert_eq!(
            names,
            [
                "fsm.transition peer=2 from_to=262",
                "rib.merge.queue_depth depth=5 unused=0",
                "session.down peer=1 tick=9",
            ]
        );
        assert_eq!(tail_text(&sample_dump(), 100).lines().count(), 6);
        assert!(tail_text(&TraceDump::default(), 32).is_empty());
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_json("not a trace").is_err());
        let no_ts = "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"i\",\"pid\":1,\"tid\":1}\n]}";
        let err = validate_chrome_json(no_ts).expect_err("ts is required");
        assert!(err.contains("missing ts"), "{err}");
        let bad_ph =
            "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"Z\",\"ts\":0,\"pid\":1,\"tid\":1}\n]}";
        assert!(validate_chrome_json(bad_ph).is_err());
    }
}
