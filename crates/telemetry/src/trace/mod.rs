//! The flight recorder: bounded per-thread rings of individual trace
//! events, complementing the aggregate metrics registry.
//!
//! Aggregates (counters, histograms, span totals) answer *how much*;
//! they cannot answer *when*. Shard imbalance in the sharded RIB, FSM
//! stalls during a flap storm, or a convergence tail only show up on a
//! timeline. The flight recorder captures individual events — span
//! begin/end pairs (stored as one complete event with a duration),
//! instants, and counter samples — each stamped with both clocks
//! (host nanoseconds since the recorder epoch, plus the simulator's
//! virtual clock) and two structured labels whose meaning is declared
//! per [`TraceEventId`] (shard id, peer id, phase number, …).
//!
//! # Recording discipline
//!
//! Tracing is process-global and **off by default**, behind its own
//! flag so metrics can stay on while the (much chattier) recorder
//! stays off. Every recording helper first reads one relaxed
//! [`AtomicBool`]; disabled tracing costs that load and a predicted
//! branch — the same contract as the metrics registry, enforced by the
//! CI telemetry-overhead job.
//!
//! When enabled, each thread records into its **own** bounded ring.
//! The ring is guarded by a mutex that only its owner thread and the
//! drain path ever touch, so the hot path is an uncontended lock (one
//! CAS on `parking_lot`), a bump, and a slot write: no allocation, no
//! cross-thread contention, no unbounded growth. When a ring is full
//! the oldest event is overwritten and a drop counter advances — a
//! flight recorder keeps the newest history, because the interesting
//! part of a crash or a tail is the end.
//!
//! # Exporting
//!
//! [`drain`](crate::trace_dump) snapshots every thread's ring into a
//! [`TraceDump`]; the [`export`] module renders that as Chrome
//! trace-event JSON (loadable in Perfetto or `chrome://tracing`) or as
//! a plain-text tail of the newest events.

pub mod export;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::span::virtual_now_ns;

/// Default per-thread ring capacity, in events. At 56 bytes per event
/// this bounds a thread's history near 3.5 MiB; the S9 flap-storm
/// quick run fits with room to spare.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

id_catalog! {
    /// Trace event identities, in slot order. The discriminant is the
    /// slot index; the catalog ([`ALL`]) and the display names are
    /// generated from this one list, so every variant is registered
    /// exactly once by construction, as `MetricId`'s are.
    ///
    /// [`ALL`]: TraceEventId::ALL
    pub enum TraceEventId: [N_TRACE_EVENTS] {
        /// Benchmark phase boundary. `a` = phase number (1–3).
        PhaseMark => "harness.phase",
        /// A grid cell starts running. `a` = cell seed, `b` = prefixes.
        CellStart => "grid.cell_start",
        /// An update train enters the sharded RIB. `a` = updates in the
        /// train, `b` = shard count.
        TrainBegin => "rib.train.begin",
        /// One shard's slice of a train (span, shard track). `a` = shard
        /// id, `b` = updates routed to it.
        ShardBusy => "rib.shard.busy",
        /// Deterministic merge of a train's shard outcomes (span).
        /// `a` = updates merged, `b` = shard count.
        TrainMerge => "rib.train.merge",
        /// Merge-queue depth sample (counter): plan entries still to be
        /// drained across all shards. `a` = depth.
        MergeQueueDepth => "rib.merge.queue_depth",
        /// One `apply_update` through the sharded engine (span, shard
        /// track). `a` = shard id, `b` = NLRI+withdrawn prefix count.
        ShardApply => "rib.shard.apply",
        /// A session FSM state transition (peer track). `a` = peer label,
        /// `b` = `from_state << 8 | to_state` (RFC 4271 state codes).
        FsmTransition => "fsm.transition",
        /// A fault plan fires (peer track). `a` = peer label, `b` = fault
        /// kind.
        FaultInjected => "topology.fault",
        /// A session reaches Established (peer track). `a` = peer label,
        /// `b` = the peer's AS number.
        SessionUp => "session.up",
        /// A session leaves Established (peer track). `a` = peer label.
        SessionDown => "session.down",
        /// One route-map evaluation. `a` = direction (0 = import,
        /// 1 = export), `b` = verdict (1 = permitted, 0 = denied).
        PolicyEval => "policy.evaluate",
    }
}

/// Number of declared trace events.
pub const N_TRACE_EVENTS: usize = 12;

/// How an event renders on a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A begin/end pair stored as one complete event with `dur_ns`.
    Span,
    /// A point in time.
    Instant,
    /// A sampled value (`a`), rendered as a counter graph.
    Counter,
}

/// Which track an event belongs to in the exported timeline. `Thread`
/// events stay on the recording thread's track; `Shard` and `Peer`
/// events are regrouped onto one synthetic track per label `a`, which
/// is what makes shard imbalance and per-peer session history visible
/// at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTrack {
    /// The recording thread's own track.
    Thread,
    /// One track per RIB shard (label `a`).
    Shard,
    /// One track per peer (label `a`).
    Peer,
}

impl TraceEventId {
    /// How the event renders.
    pub fn kind(self) -> TraceKind {
        match self {
            TraceEventId::ShardBusy | TraceEventId::TrainMerge | TraceEventId::ShardApply => {
                TraceKind::Span
            }
            TraceEventId::MergeQueueDepth => TraceKind::Counter,
            _ => TraceKind::Instant,
        }
    }

    /// Which timeline track the event belongs to.
    pub fn track(self) -> TraceTrack {
        match self {
            TraceEventId::ShardBusy | TraceEventId::ShardApply => TraceTrack::Shard,
            TraceEventId::FsmTransition
            | TraceEventId::FaultInjected
            | TraceEventId::SessionUp
            | TraceEventId::SessionDown => TraceTrack::Peer,
            _ => TraceTrack::Thread,
        }
    }

    /// Display names for the two structured labels, in `(a, b)` order.
    pub fn label_names(self) -> (&'static str, &'static str) {
        match self {
            TraceEventId::PhaseMark => ("phase", "ticks"),
            TraceEventId::CellStart => ("seed", "prefixes"),
            TraceEventId::TrainBegin => ("updates", "shards"),
            TraceEventId::ShardBusy => ("shard", "updates"),
            TraceEventId::TrainMerge => ("updates", "shards"),
            TraceEventId::MergeQueueDepth => ("depth", "unused"),
            TraceEventId::ShardApply => ("shard", "prefixes"),
            TraceEventId::FsmTransition => ("peer", "from_to"),
            TraceEventId::FaultInjected => ("peer", "kind"),
            TraceEventId::SessionUp => ("peer", "asn"),
            TraceEventId::SessionDown => ("peer", "tick"),
            TraceEventId::PolicyEval => ("direction", "permitted"),
        }
    }
}

/// One recorded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub id: TraceEventId,
    /// Host nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Span duration in host nanoseconds; zero for instants/counters.
    pub dur_ns: u64,
    /// The simulator's virtual clock when the event was recorded.
    pub virt_ns: u64,
    /// First structured label (see [`TraceEventId::label_names`]).
    pub a: u64,
    /// Second structured label.
    pub b: u64,
}

/// Flight-recorder configuration: ring sizing plus the optional
/// post-mortem dump destination the grid runner writes next to the
/// panic tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-thread ring capacity, in events.
    pub capacity: usize,
    /// Where the grid runner writes a Chrome trace-event JSON dump if
    /// a cell panics (`None` = stderr note only).
    pub postmortem: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            postmortem: None,
        }
    }
}

impl TraceConfig {
    /// A config with the given per-thread ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity: capacity.max(1),
            postmortem: None,
        }
    }

    /// Sets the post-mortem dump path.
    pub fn postmortem(mut self, path: PathBuf) -> Self {
        self.postmortem = Some(path);
        self
    }
}

/// A bounded overwrite-oldest ring of [`TraceEvent`]s.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Slot the next event lands in once the ring has wrapped.
    head: usize,
    /// Events ever pushed; `total - len` is the drop count.
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            total: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            // Full: overwrite the oldest slot. The newest history is
            // the valuable part of a flight recording.
            if let Some(slot) = self.buf.get_mut(self.head) {
                *slot = event;
            }
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The retained events, oldest first.
    fn events_in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(self.buf.get(self.head..).unwrap_or(&[]));
        out.extend_from_slice(self.buf.get(..self.head).unwrap_or(&[]));
        out
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.total = 0;
    }
}

/// One thread's ring plus its stable recorder-assigned id.
#[derive(Debug)]
struct ThreadRing {
    tid: u32,
    /// Shared-cell id for the happens-before race pass. Ring contents
    /// are always touched under `ring`'s lock, so the recorded reads
    /// and writes must come out ordered — a zero-race baseline.
    #[cfg(feature = "check-sync")]
    cell: u64,
    ring: Mutex<Ring>,
}

/// The retained events of one thread, drained for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Recorder-assigned thread id, in registration order from 1.
    pub tid: u32,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time snapshot of every thread's ring.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Per-thread traces, ordered by `tid`.
    pub threads: Vec<ThreadTrace>,
}

impl TraceDump {
    /// Total retained events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events overwritten across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// The process-global flight recorder: a registry of per-thread rings
/// sharing one epoch.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    epoch: Instant,
    next_tid: AtomicU32,
    threads: Mutex<Vec<Arc<ThreadRing>>>,
}

impl TraceRecorder {
    fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_tid: AtomicU32::new(1),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Host nanoseconds since the recorder epoch.
    #[inline]
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn register_thread(&self) -> Arc<ThreadRing> {
        let handle = Arc::new(ThreadRing {
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            #[cfg(feature = "check-sync")]
            cell: parking_lot::sync_check::next_cell_id(),
            ring: Mutex::new(Ring::new(self.capacity)),
        });
        self.threads.lock().push(Arc::clone(&handle));
        handle
    }

    /// Pushes into the calling thread's ring, registering it on first
    /// use. The ring's mutex is only ever contended by a concurrent
    /// drain, so the common case is an uncontended lock.
    fn push(&'static self, event: TraceEvent) {
        MY_RING.with(|slot| {
            let handle = slot.get_or_init(|| self.register_thread());
            let mut ring = handle.ring.lock();
            #[cfg(feature = "check-sync")]
            parking_lot::sync_check::record_cell_write(handle.cell, "telemetry::trace::ring_push");
            ring.push(event);
        });
    }

    /// Snapshots every thread's ring without clearing.
    pub fn dump(&self) -> TraceDump {
        let threads = self.threads.lock();
        let mut out: Vec<ThreadTrace> = threads
            .iter()
            .map(|handle| {
                let ring = handle.ring.lock();
                #[cfg(feature = "check-sync")]
                parking_lot::sync_check::record_cell_read(
                    handle.cell,
                    "telemetry::trace::ring_dump",
                );
                ThreadTrace {
                    tid: handle.tid,
                    dropped: ring.dropped(),
                    events: ring.events_in_order(),
                }
            })
            .collect();
        out.sort_by_key(|t| t.tid);
        TraceDump { threads: out }
    }

    /// Empties every thread's ring and resets drop counters.
    pub fn clear(&self) {
        let threads = self.threads.lock();
        for handle in threads.iter() {
            let mut ring = handle.ring.lock();
            #[cfg(feature = "check-sync")]
            parking_lot::sync_check::record_cell_write(handle.cell, "telemetry::trace::ring_clear");
            ring.clear();
        }
    }
}

thread_local! {
    /// This thread's ring handle within the global recorder.
    static MY_RING: OnceLock<Arc<ThreadRing>> = const { OnceLock::new() };
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<TraceRecorder> = OnceLock::new();

/// Turns the flight recorder on, sizing rings from `config` if this is
/// the first enable (the recorder is created once; later enables keep
/// the existing rings and epoch).
pub fn enable_trace(config: &TraceConfig) {
    RECORDER.get_or_init(|| TraceRecorder::new(config.capacity));
    TRACE_ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the flight recorder off (rings keep their contents).
pub fn disable_trace() {
    TRACE_ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the flight recorder is on. One relaxed load; this is the
/// only cost tracing pays on the disabled path.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// The global recorder, if tracing has ever been enabled.
pub fn recorder() -> Option<&'static TraceRecorder> {
    RECORDER.get()
}

/// Records an instant event; no-op while tracing is disabled.
#[inline]
pub fn trace_instant(id: TraceEventId, a: u64, b: u64) {
    if trace_enabled() {
        record_instant(id, a, b);
    }
}

#[cold]
fn record_instant(id: TraceEventId, a: u64, b: u64) {
    if let Some(rec) = RECORDER.get() {
        let ts_ns = rec.now_ns();
        rec.push(TraceEvent {
            id,
            ts_ns,
            dur_ns: 0,
            virt_ns: virtual_now_ns(),
            a,
            b,
        });
    }
}

/// Records a counter sample (`value` lands in label `a`); no-op while
/// tracing is disabled.
#[inline]
pub fn trace_counter(id: TraceEventId, value: u64) {
    trace_instant(id, value, 0);
}

/// Opens a trace span. Returns `None` while tracing is disabled so the
/// off path never reads the host clock; the guard records one complete
/// event (begin timestamp + duration) when dropped.
#[inline]
pub fn trace_span(id: TraceEventId, a: u64, b: u64) -> Option<TraceSpanGuard> {
    if trace_enabled() {
        RECORDER.get().map(|rec| TraceSpanGuard {
            id,
            recorder: rec,
            start_ns: rec.now_ns(),
            virt_start: virtual_now_ns(),
            a,
            b,
        })
    } else {
        None
    }
}

/// Snapshots every thread's ring; empty if tracing was never enabled.
pub fn trace_dump() -> TraceDump {
    RECORDER.get().map(TraceRecorder::dump).unwrap_or_default()
}

/// Empties every thread's ring.
pub fn trace_clear() {
    if let Some(rec) = RECORDER.get() {
        rec.clear();
    }
}

/// A live trace span; records one complete event on drop.
#[derive(Debug)]
pub struct TraceSpanGuard {
    id: TraceEventId,
    recorder: &'static TraceRecorder,
    start_ns: u64,
    virt_start: u64,
    a: u64,
    b: u64,
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        let end_ns = self.recorder.now_ns();
        self.recorder.push(TraceEvent {
            id: self.id,
            ts_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            virt_ns: self.virt_start,
            a: self.a,
            b: self.b,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_catalog_is_contiguous() {
        for (slot, id) in TraceEventId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, slot, "{} out of order", id.name());
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        let ev = |n: u64| TraceEvent {
            id: TraceEventId::PhaseMark,
            ts_ns: n,
            dur_ns: 0,
            virt_ns: 0,
            a: n,
            b: 0,
        };
        for n in 0..5 {
            ring.push(ev(n));
        }
        assert_eq!(ring.dropped(), 2);
        let kept: Vec<u64> = ring.events_in_order().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![2, 3, 4], "newest history is retained");
        ring.clear();
        assert_eq!(ring.dropped(), 0);
        assert!(ring.events_in_order().is_empty());
    }

    #[test]
    fn global_recorder_round_trip() {
        // The only test in this binary that flips the global trace
        // flag, so parallel test threads cannot race it.
        assert!(!trace_enabled());
        trace_instant(TraceEventId::PhaseMark, 1, 0);
        assert!(trace_span(TraceEventId::ShardBusy, 0, 0).is_none());
        assert_eq!(trace_dump().total_events(), 0);

        enable_trace(&TraceConfig::default());
        trace_instant(TraceEventId::FsmTransition, 3, 0x0105);
        {
            let _span = trace_span(TraceEventId::ShardBusy, 2, 10);
        }
        trace_counter(TraceEventId::MergeQueueDepth, 7);
        disable_trace();
        trace_instant(TraceEventId::PhaseMark, 2, 0); // dropped: disabled again

        let dump = trace_dump();
        assert_eq!(dump.total_events(), 3);
        assert_eq!(dump.total_dropped(), 0);
        let events = &dump.threads.first().expect("one thread recorded").events;
        assert_eq!(
            events.first().map(|e| e.id),
            Some(TraceEventId::FsmTransition)
        );
        let busy = events
            .iter()
            .find(|e| e.id == TraceEventId::ShardBusy)
            .expect("span recorded");
        assert_eq!(busy.a, 2);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));

        trace_clear();
        assert_eq!(trace_dump().total_events(), 0);
    }
}
