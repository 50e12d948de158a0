//! An in-process replica of the daemon's UPDATE path.
//!
//! `daemon::Core` is `pub(crate)`, so the per-layer run replays the
//! byte stream single-threaded through the same public calls
//! `Core::apply_update_from` makes — decode, `RibEngine::apply_update`,
//! `Fib::insert`/`remove`, `loc_rib().get` + `exported` cached per
//! pointer, `AdjRibOut::sync_prefix`, `AdjRibOut::to_updates`,
//! `Message::encode` — plus Speaker 2's decode of the output, with a
//! span around each. One deliberate difference: `propagate` interleaves
//! export and sync per prefix, and the replica runs them as two loops
//! per UPDATE so that each gets one span instead of one per prefix.
//!
//! What is absent is what `daemon.residue_ns_per_tx` measures: threads,
//! the core lock, channels and sockets.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use bgpbench_daemon::DaemonConfig;
use bgpbench_fib::{Fib, NextHop};
use bgpbench_rib::{
    AdjRibOut, ExportAction, FibDirective, PeerId, PeerInfo, RibEngine, RouteAttributes,
};
use bgpbench_wire::{Message, Prefix, RouterId, StreamDecoder, UpdateMessage};

use crate::digest::RouteTable;
use crate::inputs::{SPEAKER1_ASN, SPEAKER2_ASN};
use crate::trace::{Layer, Spans};

/// The daemon reads its sockets in 16 KiB pieces.
const READ_CHUNK: usize = 16 * 1024;

const SPEAKER1: PeerId = PeerId(1);
const SPEAKER2: PeerId = PeerId(2);

/// Counts taken at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub updates_in: u64,
    pub transactions_in: u64,
    pub fib_changes: u64,
    pub updates_out: u64,
    pub transactions_out: u64,
    pub bytes_out: u64,
}

pub struct Replica {
    config: DaemonConfig,
    engine: RibEngine,
    fib: Fib,
    /// Per-neighbour advertisement state, in session order.
    adj_out: [(PeerId, AdjRibOut); 2],
    decoder: StreamDecoder,
    collector: StreamDecoder,
    /// What Speaker 2 decoded and has not yet folded into `held`.
    inbox: Vec<Message>,
    /// What Speaker 2 holds.
    held: RouteTable,
    counts: Counts,
}

impl Replica {
    /// A router configured as `DaemonConfig::default()` with Speaker 1
    /// and Speaker 2 established.
    pub fn new() -> Self {
        let config = DaemonConfig::default();
        let mut engine = RibEngine::new(config.local_asn, config.router_id);
        let loopback = Ipv4Addr::LOCALHOST;
        engine.add_peer(PeerInfo::new(
            SPEAKER1,
            SPEAKER1_ASN,
            RouterId(0x0A00_0002),
            loopback,
        ));
        engine.add_peer(PeerInfo::new(
            SPEAKER2,
            SPEAKER2_ASN,
            RouterId(0x0A00_0003),
            loopback,
        ));
        Replica {
            config,
            engine,
            fib: Fib::new(),
            adj_out: [(SPEAKER1, AdjRibOut::new()), (SPEAKER2, AdjRibOut::new())],
            decoder: StreamDecoder::new(),
            collector: StreamDecoder::new(),
            inbox: Vec::new(),
            held: RouteTable::default(),
            counts: Counts::default(),
        }
    }

    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Restarts the counts — and with them the UPDATE sequence numbers
    /// the spans carry — so a timed stream is counted apart from the
    /// pre-load before it.
    pub fn reset_counts(&mut self) {
        self.counts = Counts::default();
    }

    /// What Speaker 2 holds after everything fed so far. Folding the
    /// received UPDATEs into the table is the checker's work, not the
    /// router's, so it happens here, off the clock, and not in `feed`.
    pub fn held(&mut self) -> &RouteTable {
        for message in self.inbox.drain(..) {
            if let Message::Update(update) = message {
                self.held.apply_received(&update);
            }
        }
        &self.held
    }

    pub fn engine(&self) -> &RibEngine {
        &self.engine
    }

    pub fn fib_len(&self) -> usize {
        self.fib.len()
    }

    /// Feeds Speaker 1's byte stream through the whole path.
    ///
    /// # Errors
    ///
    /// A description of the first wire, RIB or encode failure; none
    /// occurs on the generated workloads.
    pub fn feed<S: Spans>(&mut self, bytes: &[u8], spans: &mut S) -> Result<(), String> {
        let mut chunks = bytes.chunks(READ_CHUNK);
        loop {
            let seq = self.counts.updates_in;
            let parent = spans.begin(Layer::PipelineUpdate);
            let message = loop {
                let open = spans.begin(Layer::WireDecode);
                let message = self.decoder.next_message().map_err(|e| e.to_string())?;
                if message.is_none() {
                    match chunks.next() {
                        Some(chunk) => self.decoder.extend(chunk),
                        // The stream is exhausted; the parent opened
                        // for an UPDATE that never came is not recorded.
                        None => return Ok(()),
                    }
                }
                spans.end(open, seq);
                if let Some(message) = message {
                    break message;
                }
            };
            let Message::Update(update) = message else {
                return Err("a non-UPDATE message in the workload stream".to_owned());
            };
            self.apply(&update, spans, seq)?;
            spans.end(parent, seq);
        }
    }

    /// `Core::apply_update_from` plus Speaker 2's decode.
    fn apply<S: Spans>(
        &mut self,
        update: &UpdateMessage,
        spans: &mut S,
        seq: u64,
    ) -> Result<(), String> {
        let open = spans.begin(Layer::RibApply);
        let outcomes = self.engine.apply_update(SPEAKER1, update);
        spans.end(open, seq);
        let outcomes = outcomes.map_err(|e| e.to_string())?;
        self.counts.updates_in += 1;
        self.counts.transactions_in += outcomes.len() as u64;
        let prefixes: Vec<Prefix> = outcomes.iter().map(|o| o.prefix).collect();

        let open = spans.begin(Layer::FibApply);
        for outcome in &outcomes {
            match outcome.fib {
                Some(FibDirective::Install { prefix, next_hop }) => {
                    self.fib.insert(prefix, NextHop::new(next_hop, 0));
                    self.counts.fib_changes += 1;
                }
                Some(FibDirective::Remove { prefix }) => {
                    self.fib.remove(&prefix);
                    self.counts.fib_changes += 1;
                }
                None => {}
            }
        }
        spans.end(open, seq);

        let mut exported: HashMap<*const RouteAttributes, Arc<RouteAttributes>> = HashMap::new();
        for (peer, adj_out) in &mut self.adj_out {
            let open = spans.begin(Layer::RibExport);
            let desired: Vec<Option<Arc<RouteAttributes>>> =
                prefixes
                    .iter()
                    .map(|prefix| {
                        self.engine.loc_rib().get(prefix).and_then(|route| {
                            if route.learned_from() == *peer {
                                None // never advertise a route back to its source
                            } else {
                                Some(
                                    exported
                                        .entry(Arc::as_ptr(route.attrs()))
                                        .or_insert_with(|| {
                                            Arc::new(route.attrs().exported(
                                                self.config.local_asn,
                                                self.config.next_hop,
                                            ))
                                        })
                                        .clone(),
                                )
                            }
                        })
                    })
                    .collect();
            spans.end(open, seq);

            let open = spans.begin(Layer::AdjOutSync);
            let actions: Vec<ExportAction> = prefixes
                .iter()
                .zip(desired)
                .filter_map(|(prefix, desired)| adj_out.sync_prefix(*prefix, desired))
                .collect();
            spans.end(open, seq);
            if actions.is_empty() {
                continue;
            }

            let open = spans.begin(Layer::AdjOutPacketize);
            let updates = AdjRibOut::to_updates(&actions, self.config.export_prefixes_per_update);
            spans.end(open, seq);

            // `send_update` clones the UPDATE into a `Message` to
            // encode it, and so does the replica.
            let open = spans.begin(Layer::WireEncode);
            let encoded: Result<Vec<Vec<u8>>, _> = updates
                .iter()
                .map(|update| Message::Update(update.clone()).encode())
                .collect();
            spans.end(open, seq);
            let encoded = encoded.map_err(|e| e.to_string())?;
            self.counts.updates_out += updates.len() as u64;
            for update in &updates {
                self.counts.transactions_out += update.transaction_count() as u64;
            }

            let open = spans.begin(Layer::SpeakerCollect);
            for bytes in &encoded {
                self.counts.bytes_out += bytes.len() as u64;
                self.collector.extend(bytes);
            }
            let drained = loop {
                match self.collector.next_message() {
                    Ok(Some(message)) => self.inbox.push(message),
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e.to_string()),
                }
            };
            spans.end(open, seq);
            drained?;
        }
        Ok(())
    }
}

/// Decodes a workload stream back into UPDATEs (for the RIB-only train
/// samplers, which take decoded messages).
pub fn decode_updates(bytes: &[u8]) -> Result<Vec<UpdateMessage>, String> {
    let mut decoder = StreamDecoder::new();
    decoder.extend(bytes);
    let mut updates = Vec::new();
    while let Some(message) = decoder.next_message().map_err(|e| e.to_string())? {
        match message {
            Message::Update(update) => updates.push(update),
            _ => return Err("a non-UPDATE message in the workload stream".to_owned()),
        }
    }
    Ok(updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate_live, Workload};
    use crate::trace::{Tracer, Untraced};

    #[test]
    fn replica_output_matches_the_oracle_traced_and_untraced() {
        for workload in [Workload::FulltableLarge, Workload::ChurnFlood] {
            let input = generate_live(workload.live_spec(true).unwrap(), 2007);
            let mut traced = Replica::new();
            let mut untraced = Replica::new();
            let mut tracer = Tracer::new(8);
            if let Some(preload) = &input.preload {
                traced.feed(&preload.bytes, &mut Untraced).unwrap();
                untraced.feed(&preload.bytes, &mut Untraced).unwrap();
            }
            traced.reset_counts();
            traced.feed(&input.timed.bytes, &mut tracer).unwrap();
            untraced.feed(&input.timed.bytes, &mut Untraced).unwrap();

            assert_eq!(traced.held().digest(), input.expected, "{workload:?}");
            assert_eq!(untraced.held().digest(), input.expected, "{workload:?}");
            let counts = traced.counts();
            assert_eq!(counts.transactions_in as usize, input.timed.transactions);
            assert_eq!(
                counts.transactions_out as usize,
                input.timed.out_transactions
            );
            assert_eq!(traced.engine().loc_rib().len(), input.expected.routes);
            assert_eq!(traced.fib_len(), input.expected.routes);

            // One parent per UPDATE; one rib.apply under each.
            let updates = input.timed.updates as u64;
            assert_eq!(tracer.totals(Layer::PipelineUpdate).calls, updates);
            assert_eq!(tracer.totals(Layer::RibApply).calls, updates);
            assert!(tracer.totals(Layer::WireDecode).calls >= updates);
            // Speaker 1 gets nothing back, so only Speaker 2's side
            // packetizes, encodes and collects.
            assert!(tracer.totals(Layer::WireEncode).calls <= updates);
            assert_eq!(tracer.totals(Layer::RibExport).calls, 2 * updates);
        }
    }

    #[test]
    fn decode_updates_recovers_the_stream() {
        let input = generate_live(Workload::StartupSmall.live_spec(true).unwrap(), 1);
        let updates = decode_updates(&input.timed.bytes).unwrap();
        assert_eq!(updates.len(), input.timed.updates);
        assert!(updates.iter().all(|u| u.transaction_count() == 1));
    }
}
