//! UPDATE-stream construction: packetization and AS-path shaping.
//!
//! The benchmark distinguishes *small packets* (one prefix per UPDATE)
//! from *large packets* (500 prefixes per UPDATE, Table I), and
//! Scenarios 5–8 hinge on Speaker 2 announcing the same prefixes with a
//! *longer* (losing) or *shorter* (winning) AS path than Speaker 1.
//! The functions here build exactly those streams.

use std::net::Ipv4Addr;

use bgpbench_telemetry::{self as telemetry, MetricId, SpanId};
use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute, Prefix, UpdateMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's large-packet size: 500 prefixes per UPDATE.
pub const LARGE_PACKET_PREFIXES: usize = 500;

/// The paper's small-packet size: one prefix per UPDATE.
pub const SMALL_PACKET_PREFIXES: usize = 1;

/// Parameters for an announcement stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnounceSpec {
    /// The sending speaker's AS (first AS of every path).
    pub speaker_asn: Asn,
    /// Total AS-path length of every announced route.
    pub path_len: usize,
    /// NEXT_HOP carried in every announcement.
    pub next_hop: Ipv4Addr,
    /// Packetization: prefixes per UPDATE message.
    pub prefixes_per_update: usize,
    /// Seed for the filler ASes in generated paths.
    pub seed: u64,
}

/// Builds an announcement stream: `prefixes` chunked into UPDATEs of
/// `spec.prefixes_per_update`, each UPDATE carrying ORIGIN/AS_PATH/
/// NEXT_HOP attributes with an AS path of exactly `spec.path_len` ASes
/// beginning with the speaker's own AS.
///
/// # Panics
///
/// Panics if `spec.path_len` is zero or `spec.prefixes_per_update` is
/// zero.
pub fn announcements(prefixes: &[Prefix], spec: &AnnounceSpec) -> Vec<UpdateMessage> {
    assert!(spec.path_len >= 1, "AS path must contain the speaker's AS");
    assert!(
        spec.prefixes_per_update >= 1,
        "packet size must be positive"
    );
    let _span = telemetry::span(SpanId::WorkloadGen);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let updates: Vec<UpdateMessage> = prefixes
        .chunks(spec.prefixes_per_update)
        .map(|chunk| {
            let path = generate_path(&mut rng, spec.speaker_asn, spec.path_len);
            let mut builder = UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(path))
                .attribute(PathAttribute::NextHop(spec.next_hop));
            for prefix in chunk {
                builder = builder.announce(*prefix);
            }
            builder.build()
        })
        .collect();
    telemetry::add(MetricId::SpeakerUpdatesGenerated, updates.len() as u64);
    updates
}

/// Builds a withdrawal stream for `prefixes`, chunked into UPDATEs of
/// `prefixes_per_update` (Scenarios 3/4).
///
/// # Panics
///
/// Panics if `prefixes_per_update` is zero.
pub fn withdrawals(prefixes: &[Prefix], prefixes_per_update: usize) -> Vec<UpdateMessage> {
    assert!(prefixes_per_update >= 1, "packet size must be positive");
    let _span = telemetry::span(SpanId::WorkloadGen);
    let updates: Vec<UpdateMessage> = prefixes
        .chunks(prefixes_per_update)
        .map(|chunk| {
            UpdateMessage::builder()
                .withdraw_all(chunk.iter().copied())
                .build()
        })
        .collect();
    telemetry::add(MetricId::SpeakerUpdatesGenerated, updates.len() as u64);
    updates
}

/// Builds a route-flap stream: alternating announce/withdraw rounds for
/// the same prefixes, the traffic pattern of the "network-wide events
/// (e.g., worm attacks)" the paper's introduction cites as the peak
/// load a router must survive.
pub fn flap_storm(prefixes: &[Prefix], spec: &AnnounceSpec, rounds: usize) -> Vec<UpdateMessage> {
    let mut updates = Vec::new();
    for round in 0..rounds {
        let round_spec = AnnounceSpec {
            seed: spec.seed.wrapping_add(round as u64),
            ..*spec
        };
        updates.extend(announcements(prefixes, &round_spec));
        updates.extend(withdrawals(prefixes, spec.prefixes_per_update));
    }
    updates
}

/// Builds a churn stream of *mixed* UPDATEs: each message withdraws
/// one batch of prefixes and announces the next (RFC 4271 §4.3 allows
/// both in one message). This is the steady-state shape of real BGP
/// feeds, where most messages carry both reachability changes.
///
/// The prefixes are consumed as a sliding window: message k withdraws
/// window k−1 and announces window k, so every prefix is announced
/// once and all but the final window withdrawn once.
///
/// # Panics
///
/// Panics if `window` is zero or `spec.path_len` is zero.
pub fn mixed_churn(prefixes: &[Prefix], spec: &AnnounceSpec, window: usize) -> Vec<UpdateMessage> {
    assert!(window >= 1, "window must be positive");
    assert!(spec.path_len >= 1, "AS path must contain the speaker's AS");
    let _span = telemetry::span(SpanId::WorkloadGen);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let windows: Vec<&[Prefix]> = prefixes.chunks(window).collect();
    let updates: Vec<UpdateMessage> = windows
        .iter()
        .enumerate()
        .map(|(k, announce)| {
            let path = generate_path(&mut rng, spec.speaker_asn, spec.path_len);
            let mut builder = UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(path))
                .attribute(PathAttribute::NextHop(spec.next_hop));
            if k > 0 {
                builder = builder.withdraw_all(windows[k - 1].iter().copied());
            }
            builder.announce_all(announce.iter().copied()).build()
        })
        .collect();
    telemetry::add(MetricId::SpeakerUpdatesGenerated, updates.len() as u64);
    updates
}

/// Builds a MED-oscillation stream (Scenario 15): `rounds` full
/// re-announcements of the same prefixes with the *same* AS-path
/// length, alternating MULTI_EXIT_DISC between `high_med` (even
/// rounds) and 0 (odd rounds). Under a MED-sensitive import policy the
/// best path flips on every round, so each re-announcement is a
/// decision-process rerun plus a forwarding-table rewrite.
///
/// # Panics
///
/// Panics if `spec.path_len` or `spec.prefixes_per_update` is zero.
pub fn med_oscillation(
    prefixes: &[Prefix],
    spec: &AnnounceSpec,
    rounds: usize,
    high_med: u32,
) -> Vec<UpdateMessage> {
    assert!(spec.path_len >= 1, "AS path must contain the speaker's AS");
    assert!(
        spec.prefixes_per_update >= 1,
        "packet size must be positive"
    );
    let _span = telemetry::span(SpanId::WorkloadGen);
    let mut updates = Vec::new();
    for round in 0..rounds {
        let med = if round % 2 == 0 { high_med } else { 0 };
        // Same seed every round: the AS paths are identical, so only
        // the MED distinguishes one round's routes from the next.
        let mut rng = StdRng::seed_from_u64(spec.seed);
        updates.extend(prefixes.chunks(spec.prefixes_per_update).map(|chunk| {
            let path = generate_path(&mut rng, spec.speaker_asn, spec.path_len);
            let mut builder = UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(path))
                .attribute(PathAttribute::NextHop(spec.next_hop))
                .attribute(PathAttribute::Med(med));
            for prefix in chunk {
                builder = builder.announce(*prefix);
            }
            builder.build()
        }));
    }
    telemetry::add(MetricId::SpeakerUpdatesGenerated, updates.len() as u64);
    updates
}

fn generate_path(rng: &mut StdRng, first: Asn, len: usize) -> AsPath {
    let rest = (1..len).map(|_| Asn(rng.gen_range(1000..60_000)));
    AsPath::from_sequence(std::iter::once(first).chain(rest))
}

/// Total prefix-level transactions in a stream (the denominator the
/// benchmark divides by elapsed time).
pub fn transaction_count(updates: &[UpdateMessage]) -> usize {
    updates.iter().map(UpdateMessage::transaction_count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableGenerator;

    fn spec(pkt: usize, path_len: usize) -> AnnounceSpec {
        AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: pkt,
            seed: 5,
        }
    }

    #[test]
    fn small_packets_carry_one_prefix_each() {
        let table = TableGenerator::new(1).generate(50);
        let updates = announcements(&table, &spec(SMALL_PACKET_PREFIXES, 3));
        assert_eq!(updates.len(), 50);
        assert!(updates.iter().all(|u| u.nlri().len() == 1));
        assert_eq!(transaction_count(&updates), 50);
    }

    #[test]
    fn large_packets_carry_up_to_500() {
        let table = TableGenerator::new(1).generate(1234);
        let updates = announcements(&table, &spec(LARGE_PACKET_PREFIXES, 3));
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].nlri().len(), 500);
        assert_eq!(updates[2].nlri().len(), 234);
        assert_eq!(transaction_count(&updates), 1234);
    }

    #[test]
    fn paths_have_exact_length_and_start_with_speaker() {
        let table = TableGenerator::new(1).generate(20);
        for path_len in [1usize, 2, 3, 6] {
            let updates = announcements(&table, &spec(5, path_len));
            for update in &updates {
                let Some(PathAttribute::AsPath(path)) =
                    update.find_attribute(|a| matches!(a, PathAttribute::AsPath(_)))
                else {
                    panic!("missing AS path");
                };
                assert_eq!(path.length(), path_len);
                assert_eq!(path.first_as(), Some(Asn(65001)));
            }
        }
    }

    #[test]
    fn all_messages_fit_the_wire_limit() {
        use bgpbench_wire::Message;
        let table = TableGenerator::new(1).generate(2000);
        let updates = announcements(&table, &spec(LARGE_PACKET_PREFIXES, 6));
        for update in updates {
            let bytes = Message::Update(update).encode().expect("must fit 4096");
            assert!(bytes.len() <= 4096);
        }
    }

    #[test]
    fn withdrawals_cover_all_prefixes() {
        let table = TableGenerator::new(1).generate(777);
        let updates = withdrawals(&table, 500);
        assert_eq!(updates.len(), 2);
        assert_eq!(transaction_count(&updates), 777);
        assert!(updates.iter().all(|u| u.nlri().is_empty()));
    }

    #[test]
    fn flap_storm_alternates_rounds() {
        let table = TableGenerator::new(1).generate(10);
        let updates = flap_storm(&table, &spec(10, 3), 3);
        // Per round: 1 announce update + 1 withdraw update.
        assert_eq!(updates.len(), 6);
        assert_eq!(transaction_count(&updates), 60);
        assert!(!updates[0].nlri().is_empty());
        assert!(!updates[1].withdrawn().is_empty());
    }

    #[test]
    fn mixed_churn_slides_a_window() {
        let table = TableGenerator::new(1).generate(100);
        let updates = mixed_churn(&table, &spec(0, 3), 25);
        assert_eq!(updates.len(), 4);
        // First message announces only; later ones withdraw the
        // previous window and announce the next.
        assert!(updates[0].withdrawn().is_empty());
        assert_eq!(updates[0].nlri().len(), 25);
        for k in 1..4 {
            assert_eq!(updates[k].withdrawn(), &table[(k - 1) * 25..k * 25]);
            assert_eq!(updates[k].nlri(), &table[k * 25..(k + 1) * 25]);
        }
        // Transactions: 100 announcements + 75 withdrawals.
        assert_eq!(transaction_count(&updates), 175);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn mixed_churn_rejects_zero_window() {
        let _ = mixed_churn(&[], &spec(1, 3), 0);
    }

    #[test]
    fn med_oscillation_alternates_med_and_keeps_paths_fixed() {
        let table = TableGenerator::new(1).generate(40);
        let updates = med_oscillation(&table, &spec(20, 3), 2, 50);
        // Two rounds of two updates each.
        assert_eq!(updates.len(), 4);
        assert_eq!(transaction_count(&updates), 80);
        let med_of =
            |u: &UpdateMessage| match u.find_attribute(|a| matches!(a, PathAttribute::Med(_))) {
                Some(PathAttribute::Med(med)) => *med,
                _ => panic!("missing MED"),
            };
        assert_eq!(med_of(&updates[0]), 50);
        assert_eq!(med_of(&updates[1]), 50);
        assert_eq!(med_of(&updates[2]), 0);
        assert_eq!(med_of(&updates[3]), 0);
        // Rounds reuse the same seed, so paths match message-for-message.
        let path_of = |u: &UpdateMessage| {
            u.find_attribute(|a| matches!(a, PathAttribute::AsPath(_)))
                .cloned()
        };
        assert_eq!(path_of(&updates[0]), path_of(&updates[2]));
        assert_eq!(path_of(&updates[1]), path_of(&updates[3]));
    }

    #[test]
    fn streams_are_deterministic() {
        let table = TableGenerator::new(1).generate(100);
        let a = announcements(&table, &spec(10, 4));
        let b = announcements(&table, &spec(10, 4));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "packet size must be positive")]
    fn zero_packet_size_panics() {
        let _ = announcements(&[], &spec(0, 3));
    }

    #[test]
    #[should_panic(expected = "AS path must contain")]
    fn zero_path_len_panics() {
        let _ = announcements(&[], &spec(1, 0));
    }
}
