//! The benchmark scenario registry.
//!
//! The paper's Table I fixes eight scenarios; this module keeps those
//! eight as [`Scenario::ALL`] but stores every scenario — including the
//! fault-injection scenarios S9–S12 added on top of the paper — in an
//! open [`ScenarioSpec`] registry. Downstream code looks behaviour up
//! from the spec (`operation`, `packet_size`, `churn`) instead of
//! matching on a closed enum, so new scenarios register here without
//! touching every `match` in the workspace.

use crate::policy::PolicyProfile;
use bgpbench_speaker::WorkloadSpec;
use std::fmt;

/// The BGP operation a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BgpOperation {
    /// Start-up: Speaker 1 injects a full table (Phase 1 timed).
    StartupAnnounce,
    /// Ending: Speaker 1 withdraws every previously announced prefix
    /// (Phase 3 timed; Phase 2 omitted).
    EndingWithdraw,
    /// Incremental announcements that *lose* the decision process
    /// (longer AS path from Speaker 2) and leave the forwarding table
    /// untouched (Phase 3 timed).
    IncrementalNoChange,
    /// Incremental announcements that *win* the decision process
    /// (shorter AS path from Speaker 2) and rewrite the forwarding
    /// table (Phase 3 timed).
    IncrementalChange,
    /// Session churn under a seeded fault plan: the timed quantity is
    /// convergence (ticks until every session is Established and the
    /// pipeline drains), not steady-state transactions per second.
    SessionChurn,
    /// Export with a rewriting route-map: Phase 2 (re-advertisement to
    /// Speaker 2 through the export policy) is the timed phase.
    ExportRewrite,
    /// MED oscillation: Speaker 2 repeatedly re-announces the same
    /// prefixes with the MED toggling between high and zero, so the
    /// import policy flips the best path on every round (Phase 3
    /// timed).
    MedOscillation,
    /// Update-train replay: after a full-table cold start, Phase 3
    /// replays the workload source's incremental update train (bursty
    /// mixed announcements and withdrawals for the synthetic sources,
    /// the recorded BGP4MP messages for MRT replay).
    UpdateTrainReplay,
}

/// Which workload source family a scenario runs by default
/// ([`crate::CellSpec::workload`] can override it with a concrete
/// [`bgpbench_speaker::WorkloadSpec`], e.g. to point a replay scenario
/// at an MRT dump).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The paper's 2007-era synthetic workload.
    Classic,
    /// The modern-Internet workload: ~1M-prefix tables, realistic
    /// AS-path lengths, long-range-dependent bursty trains.
    Modern,
}

impl WorkloadKind {
    /// The concrete source this family runs when no override is given.
    pub(crate) fn spec(self) -> WorkloadSpec {
        match self {
            WorkloadKind::Classic => WorkloadSpec::Classic,
            WorkloadKind::Modern => WorkloadSpec::Modern,
        }
    }
}

/// The benchmark's two packetizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketSize {
    /// One prefix per UPDATE message.
    Small,
    /// 500 prefixes per UPDATE message.
    Large,
}

impl PacketSize {
    /// Prefixes carried per UPDATE.
    pub fn prefixes_per_update(self) -> usize {
        match self {
            PacketSize::Small => 1,
            PacketSize::Large => 500,
        }
    }
}

impl fmt::Display for PacketSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketSize::Small => f.write_str("small"),
            PacketSize::Large => f.write_str("large"),
        }
    }
}

/// The session-churn workload a fault scenario runs (its "workload
/// builder" — [`crate::faults`] turns this into a concrete
/// [`crate::FaultPlan`] from the cell seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnKind {
    /// S9: seeded random session flaps across all peers.
    FlapStorm,
    /// S10: staggered link blackouts long enough to expire hold
    /// timers on every peer.
    HoldExpiryCascade,
    /// S11: no faults — N peers advertise full tables from cold start.
    StartupConvergence,
    /// S12: one peer restarts and re-advertises its full table.
    RestartResync,
}

/// Descriptor for one registered scenario.
///
/// The registry entry carries everything the harness, the grid runner,
/// and the report layer need: the paper-style number and name, the BGP
/// operation, the packetization, and — for fault scenarios — which
/// churn workload to build.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// Paper-style scenario number (Table I uses 1–8; faults are 9–12).
    pub number: u8,
    /// Short name, e.g. `"S1"`.
    pub name: &'static str,
    /// The BGP operation exercised.
    pub operation: BgpOperation,
    /// Prefixes per UPDATE for the scenario's workload.
    pub packet_size: PacketSize,
    /// Whether the timed phase changes the forwarding table (Table I's
    /// "Forwarding Table Changes" row; fault scenarios rewrite it on
    /// every purge).
    pub changes_forwarding_table: bool,
    /// One-line description matching the paper's Table I column.
    pub description: &'static str,
    /// The churn workload for fault scenarios; `None` for Table I.
    pub churn: Option<ChurnKind>,
    /// The route-map pair attached to the router under test before
    /// Phase 1; `None` runs the paper's unpoliced configuration.
    pub policy: Option<PolicyProfile>,
    /// The default workload source family.
    pub workload: WorkloadKind,
}

/// The scenario registry, in number order. `Scenario` values are
/// indices into this table, so lookups never fail.
static REGISTRY: [ScenarioSpec; 18] = [
    ScenarioSpec {
        number: 1,
        name: "S1",
        operation: BgpOperation::StartupAnnounce,
        packet_size: PacketSize::Small,
        changes_forwarding_table: true,
        description: "start-up announcements, small packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 2,
        name: "S2",
        operation: BgpOperation::StartupAnnounce,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "start-up announcements, large packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 3,
        name: "S3",
        operation: BgpOperation::EndingWithdraw,
        packet_size: PacketSize::Small,
        changes_forwarding_table: true,
        description: "ending withdrawals, small packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 4,
        name: "S4",
        operation: BgpOperation::EndingWithdraw,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "ending withdrawals, large packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 5,
        name: "S5",
        operation: BgpOperation::IncrementalNoChange,
        packet_size: PacketSize::Small,
        changes_forwarding_table: false,
        description: "incremental announcements (no FIB change), small packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 6,
        name: "S6",
        operation: BgpOperation::IncrementalNoChange,
        packet_size: PacketSize::Large,
        changes_forwarding_table: false,
        description: "incremental announcements (no FIB change), large packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 7,
        name: "S7",
        operation: BgpOperation::IncrementalChange,
        packet_size: PacketSize::Small,
        changes_forwarding_table: true,
        description: "incremental announcements (FIB change), small packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 8,
        name: "S8",
        operation: BgpOperation::IncrementalChange,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "incremental announcements (FIB change), large packets",
        churn: None,
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 9,
        name: "S9",
        operation: BgpOperation::SessionChurn,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "peer-flap storm, seeded random session resets",
        churn: Some(ChurnKind::FlapStorm),
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 10,
        name: "S10",
        operation: BgpOperation::SessionChurn,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "hold-timer expiry cascade under staggered blackouts",
        churn: Some(ChurnKind::HoldExpiryCascade),
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 11,
        name: "S11",
        operation: BgpOperation::SessionChurn,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "N-peer start-up convergence, no faults",
        churn: Some(ChurnKind::StartupConvergence),
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 12,
        name: "S12",
        operation: BgpOperation::SessionChurn,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "peer restart with full re-advertisement",
        churn: Some(ChurnKind::RestartResync),
        policy: None,
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 13,
        name: "S13",
        operation: BgpOperation::IncrementalChange,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "incremental announcements through an import filter",
        churn: None,
        policy: Some(PolicyProfile::FilterChurn),
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 14,
        name: "S14",
        operation: BgpOperation::ExportRewrite,
        packet_size: PacketSize::Large,
        changes_forwarding_table: false,
        description: "table re-advertisement through a rewriting export map",
        churn: None,
        policy: Some(PolicyProfile::CommunityRewrite),
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 15,
        name: "S15",
        operation: BgpOperation::MedOscillation,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "MED oscillation flipping the best path every round",
        churn: None,
        policy: Some(PolicyProfile::MedOscillation),
        workload: WorkloadKind::Classic,
    },
    ScenarioSpec {
        number: 16,
        name: "S16",
        operation: BgpOperation::StartupAnnounce,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "full-table cold start at modern Internet scale",
        churn: None,
        policy: None,
        workload: WorkloadKind::Modern,
    },
    ScenarioSpec {
        number: 17,
        name: "S17",
        operation: BgpOperation::UpdateTrainReplay,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "bursty update-train replay over a full table",
        churn: None,
        policy: None,
        workload: WorkloadKind::Modern,
    },
    ScenarioSpec {
        number: 18,
        name: "S18",
        operation: BgpOperation::EndingWithdraw,
        packet_size: PacketSize::Large,
        changes_forwarding_table: true,
        description: "full-table withdraw storm at modern Internet scale",
        churn: None,
        policy: None,
        workload: WorkloadKind::Modern,
    },
];

/// A registered benchmark scenario.
///
/// Values are handles into the scenario registry; the paper's eight
/// scenarios are [`Scenario::S1`]–[`Scenario::S8`] and the fault
/// scenarios are [`Scenario::S9`]–[`Scenario::S12`]. Scenario values
/// can only be obtained for registered numbers, so every accessor is
/// total.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario(u8);

impl Scenario {
    /// Start-up announcements, small packets.
    pub const S1: Scenario = Scenario(0);
    /// Start-up announcements, large packets.
    pub const S2: Scenario = Scenario(1);
    /// Ending withdrawals, small packets.
    pub const S3: Scenario = Scenario(2);
    /// Ending withdrawals, large packets.
    pub const S4: Scenario = Scenario(3);
    /// Incremental announcements without forwarding-table change,
    /// small packets.
    pub const S5: Scenario = Scenario(4);
    /// Incremental announcements without forwarding-table change,
    /// large packets.
    pub const S6: Scenario = Scenario(5);
    /// Incremental announcements with forwarding-table change, small
    /// packets.
    pub const S7: Scenario = Scenario(6);
    /// Incremental announcements with forwarding-table change, large
    /// packets.
    pub const S8: Scenario = Scenario(7);
    /// Peer-flap storm (fault scenario).
    pub const S9: Scenario = Scenario(8);
    /// Hold-timer expiry cascade (fault scenario).
    pub const S10: Scenario = Scenario(9);
    /// N-peer start-up convergence (fault scenario).
    pub const S11: Scenario = Scenario(10);
    /// Peer restart with full re-advertisement (fault scenario).
    pub const S12: Scenario = Scenario(11);
    /// Incremental announcements through an import filter (policy
    /// scenario).
    pub const S13: Scenario = Scenario(12);
    /// Table re-advertisement through a rewriting export map (policy
    /// scenario).
    pub const S14: Scenario = Scenario(13);
    /// MED oscillation flipping the best path every round (policy
    /// scenario).
    pub const S15: Scenario = Scenario(14);
    /// Full-table cold start at modern Internet scale (full-table
    /// scenario).
    pub const S16: Scenario = Scenario(15);
    /// Bursty update-train replay over a full table (full-table
    /// scenario).
    pub const S17: Scenario = Scenario(16);
    /// Full-table withdraw storm at modern Internet scale (full-table
    /// scenario).
    pub const S18: Scenario = Scenario(17);

    /// The paper's eight scenarios in Table I order. Table III and the
    /// golden CSVs iterate exactly this set, so it stays at eight.
    pub const ALL: [Scenario; 8] = [
        Scenario::S1,
        Scenario::S2,
        Scenario::S3,
        Scenario::S4,
        Scenario::S5,
        Scenario::S6,
        Scenario::S7,
        Scenario::S8,
    ];

    /// The fault-injection scenarios (S9–S12).
    pub const FAULTS: [Scenario; 4] = [Scenario::S9, Scenario::S10, Scenario::S11, Scenario::S12];

    /// The route-map policy scenarios (S13–S15).
    pub const POLICY: [Scenario; 3] = [Scenario::S13, Scenario::S14, Scenario::S15];

    /// The Internet-scale full-table scenarios (S16–S18).
    pub const FULLTABLE: [Scenario; 3] = [Scenario::S16, Scenario::S17, Scenario::S18];

    /// Every registered scenario, in number order.
    pub fn registered() -> impl Iterator<Item = Scenario> {
        (0..REGISTRY.len()).map(|i| Scenario(i as u8))
    }

    /// The registry entry backing this scenario.
    pub fn spec(self) -> &'static ScenarioSpec {
        // The only constructors are the associated consts and
        // `from_number`, all of which stay in bounds.
        &REGISTRY[usize::from(self.0)]
    }

    /// The scenario number as used in the paper (Table I: 1–8; fault
    /// scenarios: 9–12).
    pub fn number(self) -> u8 {
        self.spec().number
    }

    /// The scenario with the given number.
    ///
    /// # Panics
    ///
    /// Panics for unregistered numbers.
    pub fn from_number(number: u8) -> Scenario {
        Scenario::registered()
            .find(|s| s.number() == number)
            .unwrap_or_else(|| panic!("no scenario {number}"))
    }

    /// The BGP operation this scenario exercises.
    pub fn operation(self) -> BgpOperation {
        self.spec().operation
    }

    /// The packetization this scenario uses.
    pub fn packet_size(self) -> PacketSize {
        self.spec().packet_size
    }

    /// The churn workload, for fault scenarios.
    pub fn churn(self) -> Option<ChurnKind> {
        self.spec().churn
    }

    /// Whether this is a session-churn fault scenario (S9–S12).
    pub fn is_fault(self) -> bool {
        self.spec().churn.is_some()
    }

    /// The policy profile the scenario attaches to the router under
    /// test, for policy scenarios (S13–S15).
    pub fn policy(self) -> Option<PolicyProfile> {
        self.spec().policy
    }

    /// Whether the timed phase changes the forwarding table (Table I's
    /// "Forwarding Table Changes" row).
    pub fn changes_forwarding_table(self) -> bool {
        self.spec().changes_forwarding_table
    }

    /// One-line description matching the paper's Table I column.
    pub fn description(self) -> &'static str {
        self.spec().description
    }

    /// The default workload source family this scenario runs.
    pub fn workload(self) -> WorkloadKind {
        self.spec().workload
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scenario {}", self.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_structure() {
        // Odd scenarios are small packets, even large.
        for scenario in Scenario::ALL {
            let expected = if scenario.number() % 2 == 1 {
                PacketSize::Small
            } else {
                PacketSize::Large
            };
            assert_eq!(scenario.packet_size(), expected, "{scenario}");
        }
        // Only 5/6 leave the forwarding table untouched.
        for scenario in Scenario::ALL {
            let expected = !matches!(scenario.number(), 5 | 6);
            assert_eq!(scenario.changes_forwarding_table(), expected, "{scenario}");
        }
    }

    #[test]
    fn numbers_roundtrip() {
        for scenario in Scenario::registered() {
            assert_eq!(Scenario::from_number(scenario.number()), scenario);
        }
    }

    #[test]
    #[should_panic(expected = "no scenario 99")]
    fn invalid_number_panics() {
        let _ = Scenario::from_number(99);
    }

    #[test]
    fn packet_sizes_match_the_paper() {
        assert_eq!(PacketSize::Small.prefixes_per_update(), 1);
        assert_eq!(PacketSize::Large.prefixes_per_update(), 500);
    }

    #[test]
    fn operations_group_in_pairs() {
        assert_eq!(Scenario::S1.operation(), Scenario::S2.operation());
        assert_eq!(Scenario::S3.operation(), Scenario::S4.operation());
        assert_eq!(Scenario::S5.operation(), Scenario::S6.operation());
        assert_eq!(Scenario::S7.operation(), Scenario::S8.operation());
        assert_ne!(Scenario::S1.operation(), Scenario::S3.operation());
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(Scenario::S5.to_string(), "Scenario 5");
        assert_eq!(PacketSize::Large.to_string(), "large");
        assert_eq!(format!("{:?}", Scenario::S5), "S5");
    }

    #[test]
    fn registry_is_in_number_order_and_all_is_the_paper() {
        let numbers: Vec<u8> = Scenario::registered().map(Scenario::number).collect();
        assert_eq!(numbers, (1..=18).collect::<Vec<u8>>());
        assert_eq!(Scenario::ALL.len(), 8);
        assert!(Scenario::ALL.iter().all(|s| !s.is_fault()));
        assert!(Scenario::ALL.iter().all(|s| s.policy().is_none()));
        assert!(Scenario::FAULTS.iter().all(|s| s.is_fault()));
        for s in Scenario::FAULTS {
            assert_eq!(s.operation(), BgpOperation::SessionChurn);
        }
        assert!(Scenario::POLICY.iter().all(|s| !s.is_fault()));
        assert!(Scenario::POLICY.iter().all(|s| s.policy().is_some()));
        assert!(Scenario::FULLTABLE.iter().all(|s| !s.is_fault()));
        assert!(Scenario::FULLTABLE.iter().all(|s| s.policy().is_none()));
    }

    #[test]
    fn fulltable_scenarios_run_the_modern_workload() {
        for s in Scenario::FULLTABLE {
            assert_eq!(s.workload(), WorkloadKind::Modern, "{s}");
            assert_eq!(s.packet_size(), PacketSize::Large, "{s}");
            assert!(s.changes_forwarding_table(), "{s}");
        }
        assert_eq!(Scenario::S16.operation(), BgpOperation::StartupAnnounce);
        assert_eq!(Scenario::S17.operation(), BgpOperation::UpdateTrainReplay);
        assert_eq!(Scenario::S18.operation(), BgpOperation::EndingWithdraw);
        // Everything before S16 keeps the paper's workload.
        for s in Scenario::registered().filter(|s| s.number() < 16) {
            assert_eq!(s.workload(), WorkloadKind::Classic, "{s}");
        }
    }

    #[test]
    fn policy_scenarios_map_to_their_profiles() {
        assert_eq!(Scenario::S13.policy(), Some(PolicyProfile::FilterChurn));
        assert_eq!(
            Scenario::S14.policy(),
            Some(PolicyProfile::CommunityRewrite)
        );
        assert_eq!(Scenario::S15.policy(), Some(PolicyProfile::MedOscillation));
        assert_eq!(Scenario::S13.operation(), BgpOperation::IncrementalChange);
        assert_eq!(Scenario::S14.operation(), BgpOperation::ExportRewrite);
        assert_eq!(Scenario::S15.operation(), BgpOperation::MedOscillation);
        assert!(Scenario::POLICY
            .iter()
            .all(|s| s.packet_size() == PacketSize::Large));
        assert!(!Scenario::S14.changes_forwarding_table());
        assert!(Scenario::S13.changes_forwarding_table());
        assert!(Scenario::S15.changes_forwarding_table());
    }

    #[test]
    fn fault_scenarios_map_to_their_churn_kinds() {
        assert_eq!(Scenario::S9.churn(), Some(ChurnKind::FlapStorm));
        assert_eq!(Scenario::S10.churn(), Some(ChurnKind::HoldExpiryCascade));
        assert_eq!(Scenario::S11.churn(), Some(ChurnKind::StartupConvergence));
        assert_eq!(Scenario::S12.churn(), Some(ChurnKind::RestartResync));
        assert_eq!(Scenario::S1.churn(), None);
    }
}
