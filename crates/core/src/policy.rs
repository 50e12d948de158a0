//! Named policy profiles for the policy benchmark scenarios S13–S15.
//!
//! The paper's eight scenarios run with an empty policy (every route
//! permitted unmodified); the policy scenarios attach one of these
//! profiles to the router under test before Phase 1. Each profile is a
//! pair of [`RouteMap`]s — one evaluated at import (Adj-RIB-In →
//! Loc-RIB), one at export (Loc-RIB → Adj-RIB-Out) — built from the
//! `bgpbench-rib` route-map DSL.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "profiles are built inside measured scenario setup; a panic aborts a whole grid cell instead of surfacing as a result"
)]

use bgpbench_rib::{MatchClause, PrefixList, PrefixMatch, RouteMap, RouteMapEntry, SetClause};
use bgpbench_wire::{Asn, Prefix};
use std::net::Ipv4Addr;

/// Speaker 2's AS — the source of every incremental (Phase 3) stream.
const SPEAKER2_ASN: Asn = Asn(65002);

/// Community the export-rewrite profile stamps on every advertised
/// route: `65000:500` in the conventional `AS:value` encoding.
pub const EXPORT_COMMUNITY: u32 = (65000 << 16) | 500;

/// LOCAL_PREF the MED-oscillation profile assigns to routes carrying a
/// nonzero MED (above the default degree of preference, so such routes
/// win the decision process outright).
pub const OSCILLATION_LOCAL_PREF: u32 = 200;

/// A named import/export route-map pair a scenario (or a [`crate::CellSpec`]
/// knob) attaches to the router under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyProfile {
    /// S13: an import filter that denies Speaker 2's announcements for
    /// the half of the address space under `0.0.0.0/1`. Phase-3 churn
    /// splits into policy rejections (no FIB change) and decision-
    /// process wins (FIB rewrite), so the scenario measures the filter
    /// on the import hot path.
    FilterChurn,
    /// S14: an export route-map that stamps [`EXPORT_COMMUNITY`] on
    /// every route advertised to a peer. The import side stays empty,
    /// so Phase 1 is bit-identical to the unpoliced scenarios.
    CommunityRewrite,
    /// S15: an import map that raises LOCAL_PREF to
    /// [`OSCILLATION_LOCAL_PREF`] for routes carrying a nonzero MED.
    /// Re-announcing the same prefixes with MED toggling between high
    /// and zero flips the best path on every round.
    MedOscillation,
}

impl PolicyProfile {
    /// Every profile, in scenario order (S13, S14, S15).
    pub const ALL: [PolicyProfile; 3] = [
        PolicyProfile::FilterChurn,
        PolicyProfile::CommunityRewrite,
        PolicyProfile::MedOscillation,
    ];

    /// Short name used in reports and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            PolicyProfile::FilterChurn => "filter-churn",
            PolicyProfile::CommunityRewrite => "community-rewrite",
            PolicyProfile::MedOscillation => "med-oscillation",
        }
    }

    /// The route-map evaluated at import (Adj-RIB-In → Loc-RIB).
    pub fn import_map(self) -> RouteMap {
        match self {
            PolicyProfile::FilterChurn => RouteMap::new([
                RouteMapEntry::deny(10)
                    .matching(MatchClause::AsPathContains(SPEAKER2_ASN))
                    .matching(MatchClause::Prefix(PrefixList::new([(
                        true,
                        PrefixMatch::range(low_half(), 1, 32),
                    )]))),
                RouteMapEntry::permit(20),
            ]),
            PolicyProfile::CommunityRewrite => RouteMap::permit_all(),
            PolicyProfile::MedOscillation => RouteMap::new([
                RouteMapEntry::permit(10)
                    .matching(MatchClause::MedAtLeast(1))
                    .set(SetClause::LocalPref(OSCILLATION_LOCAL_PREF)),
                RouteMapEntry::permit(20),
            ]),
        }
    }

    /// The route-map evaluated at export (Loc-RIB → Adj-RIB-Out).
    pub fn export_map(self) -> RouteMap {
        match self {
            PolicyProfile::FilterChurn | PolicyProfile::MedOscillation => RouteMap::permit_all(),
            PolicyProfile::CommunityRewrite => RouteMap::new([
                RouteMapEntry::permit(10).set(SetClause::AddCommunity(EXPORT_COMMUNITY))
            ]),
        }
    }
}

/// `0.0.0.0/1` — the lower half of the IPv4 space (the synthetic table
/// draws first octets uniformly from 1–223, so this covers a bit over
/// half of any generated table).
fn low_half() -> Prefix {
    Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 1).unwrap_or(Prefix::DEFAULT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_rib::RouteAttributes;
    use bgpbench_wire::{AsPath, Origin};

    fn attrs(asns: &[u16], med: Option<u32>) -> RouteAttributes {
        let mut builder = RouteAttributes::builder()
            .origin(Origin::Igp)
            .as_path(AsPath::from_sequence(asns.iter().copied().map(Asn)))
            .next_hop(Ipv4Addr::new(10, 0, 0, 2));
        if let Some(med) = med {
            builder = builder.med(med);
        }
        builder.build()
    }

    fn prefix(text: &str) -> Prefix {
        text.parse().unwrap()
    }

    #[test]
    fn filter_churn_denies_speaker2_low_half_only() {
        let map = PolicyProfile::FilterChurn.import_map();
        let low = prefix("64.10.0.0/16");
        let high = prefix("200.10.0.0/16");
        let from_s2 = attrs(&[65002, 1000], None);
        let from_s1 = attrs(&[65001, 1000], None);
        assert!(map.evaluate(&low, from_s2.clone()).is_none());
        assert!(map.evaluate(&high, from_s2).is_some());
        assert!(map.evaluate(&low, from_s1.clone()).is_some());
        assert!(map.evaluate(&high, from_s1).is_some());
    }

    #[test]
    fn community_rewrite_tags_exports_and_leaves_imports_open() {
        assert!(PolicyProfile::CommunityRewrite.import_map().is_empty());
        let map = PolicyProfile::CommunityRewrite.export_map();
        let out = map
            .evaluate(&prefix("10.0.0.0/8"), attrs(&[65001], None))
            .expect("export map permits everything");
        assert_eq!(out.communities(), &[EXPORT_COMMUNITY]);
    }

    #[test]
    fn med_oscillation_boosts_nonzero_med() {
        let map = PolicyProfile::MedOscillation.import_map();
        let boosted = map
            .evaluate(&prefix("10.0.0.0/8"), attrs(&[65002], Some(50)))
            .expect("permitted");
        assert_eq!(boosted.effective_local_pref(), OSCILLATION_LOCAL_PREF);
        let plain = map
            .evaluate(&prefix("10.0.0.0/8"), attrs(&[65002], Some(0)))
            .expect("permitted");
        assert_ne!(plain.effective_local_pref(), OSCILLATION_LOCAL_PREF);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = PolicyProfile::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["filter-churn", "community-rewrite", "med-oscillation"]
        );
    }
}
