//! Telemetry for the bgpbench stack. Two recorders: aggregates (a
//! sharded metrics registry with a dual-clock span tracer) and a
//! timeline (the flight recorder).
//!
//! The paper's most distinctive result beyond raw transactions/sec is
//! its *decomposition* of where BGP processing time goes (Figs. 3–4).
//! This crate is the measurement substrate that makes that
//! decomposition come from instrumentation rather than model constants:
//!
//! * **Metrics registry** — counters, gauges, and log-linear-bucket
//!   histograms identified by static [`MetricId`]s. Recording is an
//!   indexed relaxed atomic add into a thread-pinned shard: no locks,
//!   no hashing, no allocation. [`Snapshot`]s diff (per-cell
//!   attribution) and merge (across grid-runner threads).
//! * **Span tracer** — [`span`] guards stamp both the host
//!   [`std::time::Instant`] clock and the simulator's virtual clock
//!   (published per tick via [`set_virtual_now_ns`]), so a span over
//!   `RibEngine::apply_update` or a benchmark phase attributes cost
//!   per component per scenario.
//! * **Flight recorder** ([`trace`]) — bounded per-thread rings of
//!   individual events (FSM transitions, session up/down, phase and
//!   cell boundaries, shard spans), exported as a Chrome trace and
//!   printed as the panic tail when a grid cell fails.
//!
//! # The off switch
//!
//! Telemetry is process-global and **off by default**. Every recording
//! helper first reads one relaxed [`AtomicBool`]; when disabled the
//! entire instrumentation reduces to that load and a predicted branch
//! (the repo benchmark's `telemetry.metrics_on` / `telemetry.trace_on`
//! rows measure what switching each recorder on adds per transaction).
//! [`span`] returns `None` when disabled so the host clock is never
//! read off-path.
//!
//! # Examples
//!
//! ```
//! use bgpbench_telemetry::{MetricId, Registry};
//!
//! let registry = Registry::new();
//! registry.add(MetricId::RibUpdates, 1);
//! let before = registry.snapshot();
//! registry.add(MetricId::RibUpdates, 2);
//! registry.observe(MetricId::UpdatePrefixes, 500);
//! let delta = registry.snapshot().diff(&before);
//! assert_eq!(delta.get(MetricId::RibUpdates), 2);
//! assert_eq!(delta.histogram(MetricId::UpdatePrefixes).count, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "a telemetry record must never abort a measured run"
)]
#![allow(
    clippy::disallowed_methods,
    reason = "the dual-clock tracer is the workspace's one owner of the host clock"
)]

/// Declares an id enum and its catalog from one `Variant => "name"`
/// list: the `#[repr(u16)]` enum, whose discriminant is the slot index;
/// `ALL`, every variant in slot order; and `name()`, its dotted display
/// name. Each variant is therefore registered exactly once by
/// construction. A repeated variant is a duplicate definition, and a
/// list whose length differs from the declared count does not fit
/// `ALL`'s array type.
macro_rules! id_catalog {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident: [$len:ident] {
            $($(#[$vmeta:meta])* $variant:ident => $name:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[repr(u16)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)*
        }

        impl $ty {
            /// Every declared id, in slot order.
            pub const ALL: [$ty; $len] = [$($ty::$variant,)*];

            /// The id's dotted display name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

mod metrics;
mod snapshot;
mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use metrics::{
    bucket_bounds, bucket_index, MetricId, MetricKind, Registry, HIST_BUCKETS, N_HISTS, N_METRICS,
    N_SCALARS, N_SHARDS,
};
pub use snapshot::{HistogramSnapshot, Snapshot, SpanTotals};
pub use span::{set_virtual_now_ns, virtual_now_ns, Component, SpanGuard, SpanId, N_SPANS};
pub use trace::{
    disable_trace, enable_trace, trace_clear, trace_counter, trace_dump, trace_enabled,
    trace_instant, trace_span, TraceConfig, TraceDump, TraceEvent, TraceEventId, TraceKind,
    TraceRecorder, TraceSpanGuard, TraceTrack, N_TRACE_EVENTS,
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turns global telemetry on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns global telemetry off (the registry keeps its totals).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether global telemetry is on. One relaxed load; this is the only
/// cost instrumentation pays on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The complement of [`enabled`], for guards that read better positive.
#[inline(always)]
pub fn disabled() -> bool {
    !enabled()
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Adds `n` to a global counter; no-op while disabled.
#[inline]
pub fn add(id: MetricId, n: u64) {
    if enabled() {
        global().add(id, n);
    }
}

/// Adds 1 to a global counter; no-op while disabled.
#[inline]
pub fn incr(id: MetricId) {
    add(id, 1);
}

/// Sets a global gauge; no-op while disabled.
#[inline]
pub fn gauge(id: MetricId, value: u64) {
    if enabled() {
        global().gauge_set(id, value);
    }
}

/// Records a histogram observation globally; no-op while disabled.
#[inline]
pub fn observe(id: MetricId, value: u64) {
    if enabled() {
        global().observe(id, value);
    }
}

/// Opens a span against the global registry. Returns `None` while
/// disabled, so the off path never touches the host clock; the span
/// records itself when the guard drops.
#[inline]
pub fn span(id: SpanId) -> Option<SpanGuard> {
    if enabled() {
        Some(SpanGuard::start(id, global()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_dropped_and_spans_are_none() {
        // Telemetry starts disabled; nothing below may reach the
        // global registry. (This is the only test in this binary that
        // inspects the global, so parallel test threads cannot race
        // it.)
        assert!(disabled());
        let before = snapshot();
        add(MetricId::RibUpdates, 5);
        observe(MetricId::UpdatePrefixes, 9);
        assert!(span(SpanId::RibApplyUpdate).is_none());
        let delta = snapshot().diff(&before);
        assert!(delta.is_empty());

        // Enabled: the same calls land.
        enable();
        add(MetricId::RibUpdates, 5);
        {
            let _guard = span(SpanId::RibApplyUpdate).expect("enabled spans are Some");
        }
        disable();
        let delta = snapshot().diff(&before);
        assert_eq!(delta.get(MetricId::RibUpdates), 5);
        assert_eq!(delta.span(SpanId::RibApplyUpdate).count, 1);
    }
}
