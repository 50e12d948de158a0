//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer; nothing inside the crates under test is touched.
//! Per-layer totals cover every UPDATE; raw spans (name, start, end,
//! parent, sequence id) are kept in memory for the first
//! [`RAW_UPDATES`] UPDATEs and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::{self, AllocSnapshot};

/// UPDATEs whose raw spans are kept.
pub const RAW_UPDATES: u64 = 4096;

/// The layers of the UPDATE path, in call order, under their parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Parent of the rest: one per UPDATE, carrying its sequence id.
    PipelineUpdate,
    WireDecode,
    RibApply,
    FibApply,
    RibExport,
    AdjOutSync,
    AdjOutPacketize,
    WireEncode,
    SpeakerCollect,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::PipelineUpdate,
        Layer::WireDecode,
        Layer::RibApply,
        Layer::FibApply,
        Layer::RibExport,
        Layer::AdjOutSync,
        Layer::AdjOutPacketize,
        Layer::WireEncode,
        Layer::SpeakerCollect,
    ];

    /// The layers that do the work, i.e. all but the parent.
    pub fn children() -> &'static [Layer] {
        &Layer::ALL[1..]
    }

    pub fn name(self) -> &'static str {
        match self {
            Layer::PipelineUpdate => "pipeline.update",
            Layer::WireDecode => "wire.decode",
            Layer::RibApply => "rib.apply",
            Layer::FibApply => "fib.apply",
            Layer::RibExport => "rib.export",
            Layer::AdjOutSync => "rib.adj_out.sync",
            Layer::AdjOutPacketize => "rib.adj_out.packetize",
            Layer::WireEncode => "wire.encode",
            Layer::SpeakerCollect => "speaker.collect",
        }
    }
}

/// What the replica needs from a recorder. [`Tracer`] records;
/// [`Untraced`] compiles to nothing, so the untraced replica runs the
/// identical code minus the spans and the difference between the two
/// is the tracing overhead.
pub trait Spans {
    type Open;
    fn begin(&mut self, layer: Layer) -> Self::Open;
    fn end(&mut self, open: Self::Open, seq: u64);
}

pub struct Untraced;

impl Spans for Untraced {
    type Open = ();
    #[inline(always)]
    fn begin(&mut self, _: Layer) {}
    #[inline(always)]
    fn end(&mut self, (): (), _: u64) {}
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub ns: u64,
    pub calls: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Bytes allocated minus bytes freed inside the layer's spans:
    /// what the layer's data structures kept.
    pub live_bytes: i64,
}

#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub seq: u64,
}

pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    layer: Layer,
    start: Instant,
    mem: AllocSnapshot,
}

pub struct Tracer {
    origin: Instant,
    totals: [Totals; Layer::ALL.len()],
    raw: Vec<RawSpan>,
    raw_updates: u64,
    next_id: u64,
    open_parent: Option<u64>,
}

impl Tracer {
    /// A recorder keeping raw spans for the first `raw_updates` UPDATEs.
    pub fn new(raw_updates: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            totals: [Totals::default(); Layer::ALL.len()],
            raw: Vec::new(),
            raw_updates,
            next_id: 0,
            open_parent: None,
        }
    }

    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    /// Σ over the child layers of time inside their spans.
    pub fn children_ns(&self) -> u64 {
        Layer::children().iter().map(|&l| self.totals(l).ns).sum()
    }

    /// The parent's self time: its spans minus what its children cover.
    pub fn parent_self_ns(&self) -> u64 {
        self.totals(Layer::PipelineUpdate)
            .ns
            .saturating_sub(self.children_ns())
    }
}

impl Spans for Tracer {
    type Open = OpenSpan;

    fn begin(&mut self, layer: Layer) -> OpenSpan {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open_parent;
        if layer == Layer::PipelineUpdate {
            self.open_parent = Some(id);
        }
        OpenSpan {
            id,
            parent,
            layer,
            mem: alloc::snapshot(),
            start: Instant::now(),
        }
    }

    fn end(&mut self, open: OpenSpan, seq: u64) {
        let end = Instant::now();
        let mem = alloc::snapshot();
        let totals = &mut self.totals[open.layer as usize];
        totals.ns += (end - open.start).as_nanos() as u64;
        totals.calls += 1;
        totals.allocs += mem.allocs - open.mem.allocs;
        let allocated = mem.alloc_bytes - open.mem.alloc_bytes;
        totals.alloc_bytes += allocated;
        totals.live_bytes += allocated as i64 - (mem.freed_bytes - open.mem.freed_bytes) as i64;
        if open.layer == Layer::PipelineUpdate {
            self.open_parent = None;
        }
        if seq < self.raw_updates {
            self.raw.push(RawSpan {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                seq,
            });
        }
    }
}

/// Renders raw spans as a JSON array, one object per span.
pub fn raw_spans_json(spans: &[RawSpan]) -> String {
    let mut out = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"seq\":{}}}",
            span.id,
            span.layer.name(),
            span.start_ns,
            span.end_ns,
            span.seq
        );
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(tracer: &mut Tracer, layer: Layer, seq: u64) {
        let open = tracer.begin(layer);
        std::hint::black_box((0..200u64).sum::<u64>());
        tracer.end(open, seq);
    }

    #[test]
    fn children_nest_under_their_update_and_self_time_is_the_rest() {
        let mut tracer = Tracer::new(1);
        for seq in 0..2 {
            let parent = tracer.begin(Layer::PipelineUpdate);
            busy(&mut tracer, Layer::WireDecode, seq);
            busy(&mut tracer, Layer::RibApply, seq);
            tracer.end(parent, seq);
        }
        assert_eq!(tracer.totals(Layer::PipelineUpdate).calls, 2);
        assert_eq!(tracer.totals(Layer::WireDecode).calls, 2);
        assert_eq!(tracer.totals(Layer::FibApply).calls, 0);
        let parent_ns = tracer.totals(Layer::PipelineUpdate).ns;
        assert!(parent_ns >= tracer.children_ns());
        assert_eq!(tracer.parent_self_ns(), parent_ns - tracer.children_ns());

        // Raw spans only for sequence 0: two children, then the parent.
        let raw = tracer.raw();
        assert_eq!(raw.len(), 3);
        let parent = raw[2];
        assert_eq!(parent.layer, Layer::PipelineUpdate);
        assert_eq!(parent.parent, None);
        for child in &raw[..2] {
            assert_eq!(child.parent, Some(parent.id));
            assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
            assert_eq!(child.seq, 0);
        }
    }

    #[test]
    fn raw_spans_render_as_json() {
        let json = raw_spans_json(&[RawSpan {
            id: 1,
            parent: Some(0),
            layer: Layer::FibApply,
            start_ns: 10,
            end_ns: 30,
            seq: 7,
        }]);
        assert!(json.contains(
            "{\"id\":1,\"parent\":0,\"name\":\"fib.apply\",\"start_ns\":10,\"end_ns\":30,\"seq\":7}"
        ));
    }
}
