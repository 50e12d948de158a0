//! Telemetry-shape parity for the sharded train: a train applied
//! through 4 shards must record exactly the same aggregate span and
//! counter *counts* as the same train through 1 shard, which is
//! `RibEngine::apply_update` per message — or the benchmark's
//! `rib.shard` sample would count different work than its `rib.train`.
//!
//! This is deliberately the only test in this binary: it flips the
//! process-global telemetry switch, which parallel test threads in
//! the same process would race.

use std::net::Ipv4Addr;

use bgpbench_rib::{PeerId, PeerInfo, RouteAttributes, ShardedRibEngine};
use bgpbench_telemetry as telemetry;
use bgpbench_telemetry::{MetricId, SpanId};
use bgpbench_wire::{AsPath, Asn, Origin, Prefix, RouterId, UpdateMessage};

fn engine(shards: usize) -> ShardedRibEngine {
    let mut engine = ShardedRibEngine::new(Asn(65000), RouterId(1));
    engine.add_peer(PeerInfo::new(
        PeerId(1),
        Asn(65001),
        RouterId(2),
        Ipv4Addr::new(10, 0, 0, 2),
    ));
    engine.set_shards(shards);
    engine
}

fn train(updates: usize, prefixes_per_update: usize) -> Vec<UpdateMessage> {
    (0..updates)
        .map(|u| {
            let attrs = RouteAttributes::new(
                Origin::Igp,
                AsPath::from_sequence([Asn(65001), Asn(64000 + u as u16)]),
                Ipv4Addr::new(10, 0, 0, 2),
            );
            let mut builder = UpdateMessage::builder();
            for attr in attrs.to_wire() {
                builder = builder.attribute(attr);
            }
            builder
                .announce_all((0..prefixes_per_update).map(|p| {
                    let net = ((10 + u) as u32) << 24 | (p as u32) << 8;
                    Prefix::new(net.into(), 24).expect("constructed /24 is valid")
                }))
                .build()
        })
        .collect()
}

/// Applies the same train at a given shard count and returns the
/// telemetry delta it produced.
fn run_at(shards: usize) -> telemetry::Snapshot {
    let mut rib = engine(shards);
    let updates = train(16, 8);
    let before = telemetry::snapshot();
    rib.apply_update_train(PeerId(1), &updates)
        .expect("train applies");
    telemetry::snapshot().diff(&before)
}

#[test]
fn span_and_counter_counts_match_across_shard_counts() {
    telemetry::enable();
    let single = run_at(1);
    let sharded = run_at(4);
    telemetry::disable();

    let span_1 = single.span(SpanId::RibApplyUpdate);
    let span_4 = sharded.span(SpanId::RibApplyUpdate);
    assert_eq!(
        span_1.count, span_4.count,
        "RibApplyUpdate span count must not depend on shard count"
    );
    assert_eq!(span_1.count, 16, "one span per update in the train");
    assert!(span_4.host_ns > 0, "sharded spans carry attributed time");

    for id in [
        MetricId::RibUpdates,
        MetricId::RibPrefixes,
        MetricId::RibBestChanged,
    ] {
        assert_eq!(
            single.get(id),
            sharded.get(id),
            "{} must not depend on shard count",
            id.name()
        );
    }
    assert_eq!(single.get(MetricId::RibUpdates), 16);
    assert_eq!(single.get(MetricId::RibPrefixes), 16 * 8);

    let hist_1 = single.histogram(MetricId::UpdatePrefixes);
    let hist_4 = sharded.histogram(MetricId::UpdatePrefixes);
    assert_eq!(hist_1.count, hist_4.count, "one observation per update");
    assert_eq!(hist_1.sum, hist_4.sum, "prefix totals agree");
    assert_eq!(
        single.histogram(MetricId::ApplyHostNs).count,
        sharded.histogram(MetricId::ApplyHostNs).count,
        "per-update host-time observations stay per-update when sharded"
    );
}
