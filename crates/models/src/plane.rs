//! The control plane both platform models run: the real RIB engine and
//! FIB, the speaker links with their fault state, the Phase-2 export
//! queue, cross-traffic and the transaction counters.
//!
//! A platform ([`crate::xorp`], [`crate::ios`]) adds only a cost
//! model: which jobs an accepted UPDATE turns into, what they cost,
//! and at which point of that pipeline the engine sees the message.
//! Everything the two platforms must agree on — which messages a
//! faulted link delivers and in what order, what an export carries,
//! how FIB directives are applied and counted, what a session-down
//! purge removes, how an UPDATE reaches the engine — is written here
//! once.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use bgpbench_fib::{Fib, NextHop};
use bgpbench_rib::{AdjRibOut, FibDirective, PeerId, PeerInfo, PrefixOutcome, RibEngine};
use bgpbench_simnet::{ProcessId, TickContext};
use bgpbench_speaker::SpeakerScript;
use bgpbench_telemetry::{self as telemetry, MetricId, SpanId, TraceEventId};
use bgpbench_wire::{Asn, RouterId, UpdateMessage};

use crate::crosstraffic::CrossTraffic;
use crate::CrossCosts;

/// The default local AS of a simulated router under test.
pub(crate) const LOCAL_ASN: Asn = Asn(65000);

/// One attached speaker: its RIB peer, the stream it sends, and the
/// state of the link it sends it over. The topology engine sets the
/// fault fields between ticks, so the same seeded fault plan produces
/// the same message interleaving on every run.
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) peer: PeerId,
    pub(crate) script: Option<SpeakerScript>,
    /// Messages per second the speaker is throttled to (`None` =
    /// as fast as flow control allows, the benchmark default).
    rate_msgs_per_sec: Option<f64>,
    /// Fractional-message carry for rated injection.
    carry: f64,
    /// Whether the session accepts input at all. A down session (flap,
    /// hold expiry, restart, blackout) blocks the speaker without
    /// consuming its script.
    pub(crate) enabled: bool,
    /// Messages to silently drop on arrival (consumed off the script,
    /// never handed to the platform) — a lossy link.
    pub(crate) drop_next: u32,
    /// Message pairs to swap on arrival — link reordering.
    pub(crate) reorder_next: u32,
}

/// What both platform models own and do identically.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    pub(crate) engine: RibEngine,
    fib: Fib,
    links: Vec<Link>,
    export_queue: VecDeque<UpdateMessage>,
    pub(crate) cross: CrossTraffic,
    tick_secs: f64,
    transactions_done: u64,
    exported_transactions: u64,
    local_address: Ipv4Addr,
}

impl ControlPlane {
    /// Registers one RIB peer and one link per entry of `speakers`.
    pub(crate) fn new(
        cross_costs: CrossCosts,
        tick_secs: f64,
        speakers: &[PeerInfo],
        local_asn: Asn,
    ) -> Self {
        let local_address = Ipv4Addr::new(10, 0, 0, 1);
        let mut engine = RibEngine::new(local_asn, RouterId(u32::from(local_address)));
        let links = speakers
            .iter()
            .map(|info| Link {
                peer: engine.add_peer(*info),
                script: None,
                rate_msgs_per_sec: None,
                carry: 0.0,
                enabled: true,
                drop_next: 0,
                reorder_next: 0,
            })
            .collect();
        ControlPlane {
            engine,
            fib: Fib::new(),
            links,
            export_queue: VecDeque::new(),
            cross: CrossTraffic::new(cross_costs),
            tick_secs,
            transactions_done: 0,
            exported_transactions: 0,
            local_address,
        }
    }

    /// The forwarding table; written only by the directives the engine
    /// emits.
    pub(crate) fn fib(&self) -> &Fib {
        &self.fib
    }

    pub(crate) fn tick_secs(&self) -> f64 {
        self.tick_secs
    }

    pub(crate) fn link(&self, speaker: usize) -> &Link {
        &self.links[speaker]
    }

    pub(crate) fn link_mut(&mut self, speaker: usize) -> &mut Link {
        &mut self.links[speaker]
    }

    /// Assigns the message stream a speaker will send, flooding
    /// (`None`) or paced to a message rate. Replaces any unfinished
    /// previous script.
    pub(crate) fn load_script(
        &mut self,
        speaker: usize,
        script: SpeakerScript,
        msgs_per_sec: Option<f64>,
    ) {
        let link = &mut self.links[speaker];
        link.script = Some(script);
        link.rate_msgs_per_sec = msgs_per_sec;
        link.carry = 0.0;
    }

    /// The UPDATE messages a full-table export toward `speaker`
    /// carries, packetized at `prefixes_per_update`.
    pub(crate) fn export_updates(
        &self,
        speaker: usize,
        prefixes_per_update: usize,
    ) -> Vec<UpdateMessage> {
        let routes = self
            .engine
            .export_routes(self.links[speaker].peer, self.local_address);
        let actions = AdjRibOut::new().sync(routes);
        AdjRibOut::to_updates(&actions, prefixes_per_update)
    }

    /// Queues a Phase-2 export toward `speaker`; returns the number of
    /// UPDATE messages queued.
    pub(crate) fn queue_export(&mut self, speaker: usize, prefixes_per_update: usize) -> usize {
        let updates = self.export_updates(speaker, prefixes_per_update);
        let n = updates.len();
        self.export_queue.extend(updates);
        n
    }

    /// Prefix-level transactions fully processed (through the FIB when
    /// the scenario requires it) — the benchmark's counted unit.
    pub(crate) fn transactions_done(&self) -> u64 {
        self.transactions_done
    }

    /// Prefix-level transactions advertised in Phase-2 exports.
    pub(crate) fn exported_transactions(&self) -> u64 {
        self.exported_transactions
    }

    /// Whether every loaded script and queued export has been handed
    /// to the platform (whose own in-flight work is its to report).
    pub(crate) fn is_drained(&self) -> bool {
        self.export_queue.is_empty()
            && self
                .links
                .iter()
                .all(|link| link.script.as_ref().is_none_or(SpeakerScript::is_exhausted))
    }

    /// Cross-traffic arrivals for this tick, charged to the platform's
    /// interrupt and kernel processes.
    pub(crate) fn cross_tick(
        &mut self,
        ctx: &mut TickContext<'_>,
        irq: ProcessId,
        kernel: ProcessId,
    ) {
        let kernel_backlog = ctx.queue_len(kernel);
        self.cross
            .on_tick(ctx, self.tick_secs, irq, kernel, kernel_backlog);
    }

    /// Takes this tick's speaker input off the links, at most `room`
    /// messages, and hands each delivered message to `accept` in
    /// arrival order (with the engine, for a platform that applies on
    /// arrival).
    pub(crate) fn take_input(
        &mut self,
        room: &mut usize,
        mut accept: impl FnMut(&mut RibEngine, PeerId, &UpdateMessage),
    ) {
        for link in &mut self.links {
            // A down link accepts no input and accrues no send
            // allowance — the speaker backs off with the session.
            if !link.enabled {
                continue;
            }
            // Rated speakers accrue an allowance per tick; flooding
            // speakers are bounded only by flow control.
            let mut allowance = match link.rate_msgs_per_sec {
                Some(rate) => {
                    link.carry += rate * self.tick_secs;
                    let whole = link.carry.floor();
                    link.carry -= whole;
                    whole as usize
                }
                None => usize::MAX,
            };
            while *room > 0 && allowance > 0 {
                let Some(script) = link.script.as_mut() else {
                    break;
                };
                // Lossy link: messages arrive but are dropped before
                // the platform sees them — they consume the script and
                // the sender's allowance, nothing else.
                if link.drop_next > 0 {
                    allowance -= 1;
                    if script.take(1).is_empty() {
                        break;
                    }
                    link.drop_next -= 1;
                    continue;
                }
                // Reordering link: take the next pair and deliver it in
                // reversed arrival order (needs room for both).
                let swap = link.reorder_next > 0 && *room >= 2 && allowance >= 2;
                let batch = script.take(if swap { 2 } else { 1 });
                if batch.is_empty() {
                    break;
                }
                let reversed = swap && batch.len() == 2;
                if reversed {
                    link.reorder_next -= 1;
                }
                for i in 0..batch.len() {
                    let update = &batch[if reversed { 1 - i } else { i }];
                    allowance = allowance.saturating_sub(1);
                    *room -= 1;
                    accept(&mut self.engine, link.peer, update);
                }
            }
        }
    }

    /// Hands up to `room` queued export messages to `send`, each with
    /// its prefix count. Exports share the platform's BGP process with
    /// input, so they take what room the input left.
    pub(crate) fn take_exports(&mut self, mut room: usize, mut send: impl FnMut(u32)) {
        while room > 0 {
            let Some(update) = self.export_queue.pop_front() else {
                break;
            };
            send(update.transaction_count() as u32);
            room -= 1;
        }
    }

    /// An export job completed: `count` prefixes were advertised.
    pub(crate) fn on_exported(&mut self, count: u32) {
        self.exported_transactions += u64::from(count);
    }

    /// An UPDATE left the platform's pipeline: write its FIB changes
    /// and count its transactions.
    pub(crate) fn complete(&mut self, transactions: u32, directives: Vec<FibDirective>) {
        self.apply_fib(directives);
        self.transactions_done += u64::from(transactions);
    }

    /// Session-down purge: withdraws everything learned from `peer`,
    /// re-running best-path per affected prefix, and applies the FIB
    /// fallout immediately (the purge is a local control-plane action,
    /// not a scripted message). The platform cancels the peer's
    /// in-flight work first. Returns the number of affected prefixes.
    pub(crate) fn purge_peer(&mut self, peer: PeerId) -> usize {
        let Ok(outcomes) = self.engine.purge_peer(peer) else {
            return 0;
        };
        self.apply_fib(outcomes.iter().filter_map(|outcome| outcome.fib));
        outcomes.len()
    }

    fn apply_fib(&mut self, directives: impl IntoIterator<Item = FibDirective>) {
        let mut directives = directives.into_iter().peekable();
        let _span = directives
            .peek()
            .and_then(|_| telemetry::span(SpanId::FibApply));
        for directive in directives {
            match directive {
                FibDirective::Install { prefix, next_hop } => {
                    telemetry::incr(MetricId::FibInstalls);
                    self.fib.insert(prefix, NextHop::new(next_hop, 0));
                }
                FibDirective::Remove { prefix } => {
                    telemetry::incr(MetricId::FibRemoves);
                    self.fib.remove(&prefix);
                }
            }
        }
    }
}

/// Runs one UPDATE through `engine`: what both cost models do when
/// their pipeline reaches the decision process. The flight recorder
/// gets a shard-0 `rib.shard.apply` span around it, so a simulated
/// run's timeline keeps its RIB track.
pub(crate) fn apply_update(
    engine: &mut RibEngine,
    peer: PeerId,
    update: &UpdateMessage,
) -> Vec<PrefixOutcome> {
    let _trace = telemetry::trace_span(
        TraceEventId::ShardApply,
        0,
        update.transaction_count() as u64,
    );
    engine
        .apply_update(peer, update)
        .expect("benchmark updates are well-formed")
}
