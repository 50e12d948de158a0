//! Modern-Internet synthetic workloads.
//!
//! The paper's tables are 2007-sized (~250k routes, /24 share ≈ 53%).
//! This module scales the synthesis to today's Internet: ~1M IPv4
//! prefixes with a 2020s prefix-length mix (the /24 share has grown to
//! ~60% and the /22–/23 band has filled in as the last /8s were carved
//! up), AS-path lengths drawn from the observed distribution (mean
//! ≈ 4.3) instead of a fixed value, and update *trains* whose
//! inter-arrival structure is bursty with long-range dependence, after
//! Kitsak et al.'s measurements of real BGP update dynamics.
//!
//! Long-range dependence is produced by a deterministic multiplicative
//! (binomial) cascade: total update mass is recursively split over
//! `2^k` time slots with a random left/right fraction at each node.
//! The resulting per-slot counts are multifractal — variance decays
//! much slower under aggregation than the `1/m` of any Poisson-like
//! process, which is exactly the Hurst-exponent signature the paper's
//! uniform generators cannot reproduce.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bgpbench_wire::{AsPath, Asn, Origin, PathAttribute, Prefix, UpdateMessage};

use crate::workload::AnnounceSpec;

/// Prefix-length weights for a modern (2020s) global IPv4 table, in
/// parts per 10 000. The /24 share is ~60% and the /22–/23 band holds
/// most of the remainder — compare the 2007 mix in
/// [`crate::TableGenerator`].
const LENGTH_WEIGHTS: [(u8, u32); 17] = [
    (8, 2),
    (9, 2),
    (10, 10),
    (11, 10),
    (12, 15),
    (13, 20),
    (14, 40),
    (15, 50),
    (16, 150),
    (17, 100),
    (18, 220),
    (19, 300),
    (20, 500),
    (21, 500),
    (22, 1100),
    (23, 950),
    (24, 6031),
];

/// AS-path length weights (parts per 1000) matching the observed
/// modern distribution: mode at 4 hops, mean ≈ 4.3, a thin tail out
/// to 12.
const PATH_LENGTH_WEIGHTS: [(u8, u32); 12] = [
    (1, 5),
    (2, 80),
    (3, 220),
    (4, 300),
    (5, 210),
    (6, 110),
    (7, 45),
    (8, 18),
    (9, 7),
    (10, 3),
    (11, 1),
    (12, 1),
];

/// Deterministic generator for modern-Internet routing tables.
///
/// Same contract as [`crate::TableGenerator`]: a given seed always
/// yields the same table, incremental calls never repeat a prefix.
///
/// ```
/// use bgpbench_speaker::ModernTableGenerator;
/// let table = ModernTableGenerator::new(7).generate(10_000);
/// assert_eq!(table.len(), 10_000);
/// ```
#[derive(Debug)]
pub struct ModernTableGenerator {
    rng: StdRng,
    seen: HashSet<Prefix>,
}

impl ModernTableGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        ModernTableGenerator {
            rng: StdRng::seed_from_u64(seed),
            seen: HashSet::new(),
        }
    }

    /// Generates `count` further unique prefixes.
    pub fn generate(&mut self, count: usize) -> Vec<Prefix> {
        let total_weight: u32 = LENGTH_WEIGHTS.iter().map(|&(_, w)| w).sum();
        let mut out = Vec::with_capacity(count);
        // The routable space is far larger than any requested table
        // (>14M /24s alone), so rejection sampling converges fast; the
        // attempt bound only guards against a logic error.
        let mut attempts: usize = 0;
        let max_attempts = count.saturating_add(1000).saturating_mul(100);
        while out.len() < count && attempts < max_attempts {
            attempts += 1;
            let mut pick = self.rng.gen_range(0..total_weight);
            let mut len = 24;
            for &(candidate, weight) in LENGTH_WEIGHTS.iter() {
                if pick < weight {
                    len = candidate;
                    break;
                }
                pick -= weight;
            }
            let addr: u32 = self.rng.gen();
            if !routable(addr) {
                continue;
            }
            let Ok(prefix) = Prefix::new_masked(Ipv4Addr::from(addr), len) else {
                continue;
            };
            if self.seen.insert(prefix) {
                out.push(prefix);
            }
        }
        out
    }
}

/// Whether an address falls in globally routable unicast space
/// (excludes RFC 1918, loopback, and class D/E — the same exclusions
/// the 2007 generator applies).
fn routable(addr: u32) -> bool {
    let first = addr >> 24;
    if !(1..=223).contains(&first) {
        return false;
    }
    if first == 10 || first == 127 {
        return false;
    }
    if addr & 0xFFF0_0000 == 0xAC10_0000 {
        return false; // 172.16.0.0/12
    }
    if addr & 0xFFFF_0000 == 0xC0A8_0000 {
        return false; // 192.168.0.0/16
    }
    true
}

/// Draws an AS-path length from the modern distribution.
pub fn sample_path_length(rng: &mut StdRng) -> u8 {
    let total: u32 = PATH_LENGTH_WEIGHTS.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(len, weight) in PATH_LENGTH_WEIGHTS.iter() {
        if pick < weight {
            return len;
        }
        pick -= weight;
    }
    4
}

fn sample_path(rng: &mut StdRng, first: Asn) -> AsPath {
    let len = sample_path_length(rng);
    let rest = (1..len).map(|_| Asn(rng.gen_range(1000..60_000)));
    AsPath::from_sequence(std::iter::once(first).chain(rest))
}

/// Packetizes a cold-start announcement of `table` with AS-path
/// lengths drawn per update from the modern distribution (the classic
/// [`crate::workload::announcements`] uses one fixed length).
pub fn announcements(table: &[Prefix], spec: &AnnounceSpec) -> Vec<UpdateMessage> {
    let per_update = spec.prefixes_per_update.max(1);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    table
        .chunks(per_update)
        .map(|chunk| {
            let mut builder = UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(sample_path(
                    &mut rng,
                    spec.speaker_asn,
                )))
                .attribute(PathAttribute::NextHop(spec.next_hop));
            for &prefix in chunk {
                builder = builder.announce(prefix);
            }
            builder.build()
        })
        .collect()
}

/// Shape of a bursty update train.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Time resolution: the train spans `2^slots_log2` slots.
    pub slots_log2: u32,
    /// Total prefix events (announcements + withdrawals) in the train.
    pub events: usize,
    /// Fraction of events that are withdrawals (the rest re-announce
    /// with fresh attributes).
    pub withdraw_fraction: f64,
}

impl Default for BurstSpec {
    fn default() -> Self {
        BurstSpec {
            slots_log2: 10,
            events: 10_000,
            withdraw_fraction: 0.25,
        }
    }
}

/// Distributes `spec.events` over `2^spec.slots_log2` slots with a
/// multiplicative binomial cascade, yielding long-range-correlated
/// per-slot counts. Deterministic in `seed`; the counts always sum to
/// exactly `spec.events`.
pub fn burst_profile(seed: u64, spec: &BurstSpec) -> Vec<usize> {
    let slots = 1usize << spec.slots_log2.min(20);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6275_7273_7421);
    let mut mass = vec![1.0f64];
    for _ in 0..spec.slots_log2.min(20) {
        let mut next = Vec::with_capacity(mass.len() * 2);
        for &m in &mass {
            // Conservative cascade: each node splits its mass with a
            // random fraction; the skew (0.15..0.85) sets the
            // burstiness of the limit measure.
            let left = rng.gen_range(0.15f64..0.85);
            next.push(m * left);
            next.push(m * (1.0 - left));
        }
        mass = next;
    }
    // Largest-remainder-free rounding: carry the running total so the
    // integer counts sum to exactly `events`.
    let total = spec.events as f64;
    let mut counts = Vec::with_capacity(slots);
    let mut running = 0.0f64;
    let mut emitted = 0usize;
    for &m in &mass {
        running += m * total;
        let target = running.round() as usize;
        counts.push(target.saturating_sub(emitted));
        emitted = target.max(emitted);
    }
    counts
}

/// Builds a bursty update train over `table`: per-slot event counts
/// come from [`burst_profile`], withdrawals and re-announcements are
/// interleaved per `spec.withdraw_fraction`, and messages are packed
/// up to `announce.prefixes_per_update` but never across a slot
/// boundary (a burst's messages arrive together; quiet slots emit
/// nothing).
pub fn update_train(
    table: &[Prefix],
    announce: &AnnounceSpec,
    burst: &BurstSpec,
) -> Vec<UpdateMessage> {
    if table.is_empty() {
        return Vec::new();
    }
    let per_update = announce.prefixes_per_update.max(1);
    let profile = burst_profile(announce.seed, burst);
    let mut rng = StdRng::seed_from_u64(announce.seed ^ 0x7472_6169_6e21);
    let mut messages = Vec::new();
    let mut cursor = 0usize;
    for &count in &profile {
        let mut withdraws: Vec<Prefix> = Vec::new();
        let mut announces: Vec<Prefix> = Vec::new();
        for _ in 0..count {
            let prefix = table[cursor % table.len()];
            cursor += 1;
            if rng.gen_bool(burst.withdraw_fraction) {
                withdraws.push(prefix);
            } else {
                announces.push(prefix);
            }
        }
        for chunk in withdraws.chunks(per_update) {
            messages.push(
                UpdateMessage::builder()
                    .withdraw_all(chunk.iter().copied())
                    .build(),
            );
        }
        for chunk in announces.chunks(per_update) {
            let mut builder = UpdateMessage::builder()
                .attribute(PathAttribute::Origin(Origin::Igp))
                .attribute(PathAttribute::AsPath(sample_path(
                    &mut rng,
                    announce.speaker_asn,
                )))
                .attribute(PathAttribute::NextHop(announce.next_hop));
            for &prefix in chunk {
                builder = builder.announce(prefix);
            }
            messages.push(builder.build());
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn spec(seed: u64) -> AnnounceSpec {
        AnnounceSpec {
            speaker_asn: Asn(65001),
            path_len: 3,
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            prefixes_per_update: 500,
            seed,
        }
    }

    #[test]
    fn modern_table_is_deterministic_and_unique() {
        let a = ModernTableGenerator::new(9).generate(5000);
        let b = ModernTableGenerator::new(9).generate(5000);
        assert_eq!(a, b);
        let unique: HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), a.len());
    }

    #[test]
    fn modern_length_mix_matches_todays_table() {
        let table = ModernTableGenerator::new(11).generate(20_000);
        let share =
            |len: u8| table.iter().filter(|p| p.len() == len).count() as f64 / table.len() as f64;
        // /24 dominates at ~60%; /22+/23 together hold ~20%; nothing
        // longer than /24 and nothing shorter than /8 is generated.
        assert!((0.55..0.66).contains(&share(24)), "/24 share {}", share(24));
        let band = share(22) + share(23);
        assert!((0.14..0.28).contains(&band), "/22-/23 share {band}");
        assert!(table.iter().all(|p| (8..=24).contains(&p.len())));
    }

    #[test]
    fn path_lengths_center_on_the_modern_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let sum: u64 = (0..n)
            .map(|_| u64::from(sample_path_length(&mut rng)))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((3.9..4.7).contains(&mean), "mean path length {mean}");
    }

    #[test]
    fn burst_profile_conserves_events_and_is_deterministic() {
        let spec = BurstSpec {
            slots_log2: 10,
            events: 50_000,
            withdraw_fraction: 0.25,
        };
        let a = burst_profile(42, &spec);
        let b = burst_profile(42, &spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1024);
        assert_eq!(a.iter().sum::<usize>(), 50_000);
    }

    #[test]
    fn burst_profile_is_bursty_and_long_range_dependent() {
        let spec = BurstSpec {
            slots_log2: 10,
            events: 100_000,
            withdraw_fraction: 0.25,
        };
        let counts = burst_profile(7, &spec);
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        // A Poisson train at this rate would have CV ≈ 0.1; the
        // cascade must be far burstier.
        let cv = var.sqrt() / mean;
        assert!(cv > 1.0, "coefficient of variation {cv} not bursty");

        // Variance-time check: aggregate in blocks of m=16. For a
        // short-range process the variance of block means decays like
        // 1/m; long-range dependence keeps it an order of magnitude
        // higher (slope 2H-2 with H near 1).
        let m = 16;
        let blocks: Vec<f64> = counts
            .chunks(m)
            .map(|c| c.iter().sum::<usize>() as f64 / m as f64)
            .collect();
        let bn = blocks.len() as f64;
        let bmean = blocks.iter().sum::<f64>() / bn;
        let bvar = blocks.iter().map(|&b| (b - bmean).powi(2)).sum::<f64>() / bn;
        assert!(
            bvar > 4.0 * var / m as f64,
            "aggregated variance {bvar} decays like short-range noise (slot var {var})"
        );
    }

    #[test]
    fn update_train_covers_events_and_respects_packetization() {
        let table = ModernTableGenerator::new(5).generate(2000);
        let burst = BurstSpec {
            slots_log2: 8,
            events: 5000,
            withdraw_fraction: 0.3,
        };
        let train = update_train(&table, &spec(21), &burst);
        assert_eq!(workload::transaction_count(&train), 5000);
        assert!(train.iter().all(|u| u.transaction_count() <= 500));
        let withdrawals: usize = train.iter().map(|u| u.withdrawn().len()).sum();
        let share = withdrawals as f64 / 5000.0;
        assert!((0.2..0.4).contains(&share), "withdraw share {share}");
        // Announcements must carry full attribute sets.
        assert!(train
            .iter()
            .filter(|u| !u.nlri().is_empty())
            .all(|u| u.attributes().len() == 3));
    }

    #[test]
    fn modern_announcements_vary_path_lengths() {
        let table = ModernTableGenerator::new(5).generate(5000);
        let updates = announcements(&table, &spec(33));
        assert_eq!(updates.len(), 10);
        let lengths: HashSet<usize> = updates
            .iter()
            .filter_map(|u| {
                u.find_attribute(|a| matches!(a, PathAttribute::AsPath(_)))
                    .map(|a| match a {
                        PathAttribute::AsPath(p) => p.length(),
                        _ => 0,
                    })
            })
            .collect();
        assert!(lengths.len() > 1, "all updates share one path length");
        // Determinism.
        assert_eq!(updates, announcements(&table, &spec(33)));
    }
}
