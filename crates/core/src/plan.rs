//! The paper's three phases as data (§III.B): which speaker sends what,
//! when the router re-advertises its table, and which phase is timed.
//!
//! [`phase_plan`] is the only place that turns a scenario's
//! [`BgpOperation`] into phases and traffic. The simulated harness
//! ([`crate::harness`]) and the live one ([`crate::live`]) execute the
//! same steps against their router, so the two cannot drift apart on
//! what a scenario *is* — only on how a step is carried out.

use std::net::Ipv4Addr;

use bgpbench_models::{SpeakerHandle, SPEAKER_1, SPEAKER_2};
use bgpbench_speaker::workload::{self, AnnounceSpec, LARGE_PACKET_PREFIXES};
use bgpbench_speaker::WorkloadSource;
use bgpbench_wire::{Asn, Prefix, UpdateMessage};

use crate::scenario::{BgpOperation, Scenario};

/// AS-path length Speaker 1 uses for its table.
const BASE_PATH_LEN: usize = 3;
/// Longer path for Scenario 5/6 (loses the decision process).
const LONGER_PATH_LEN: usize = 6;
/// Shorter path for Scenario 7/8 (wins the decision process).
const SHORTER_PATH_LEN: usize = 2;

/// Announcement rounds of the MED-oscillation scenario (S15): one with
/// a high MED (best path flips to Speaker 2), one with MED 0 (flips
/// back to Speaker 1 on the router-ID tie-break).
const OSCILLATION_ROUNDS: usize = 2;
/// MED carried by the odd rounds; anything ≥ 1 trips the profile's
/// `MedAtLeast(1)` match.
const OSCILLATION_HIGH_MED: u32 = 50;

/// What a speaker sends in one step, over the run's table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Traffic {
    /// The whole table, announced.
    Announce(AnnounceSpec),
    /// The whole table, withdrawn.
    Withdraw { per_update: usize },
    /// The workload source's incremental update train — for the modern
    /// generator a bursty LRD-shaped mix of re-announcements and
    /// withdrawals; for MRT replay the dump's own BGP4MP messages.
    Train(AnnounceSpec),
    /// The whole table re-announced [`OSCILLATION_ROUNDS`] times, the
    /// MED toggling between [`OSCILLATION_HIGH_MED`] and 0.
    MedOscillation(AnnounceSpec),
}

impl Traffic {
    /// Builds the step's UPDATE stream. An executor calls this when it
    /// reaches the step, so a run never holds two phases' messages.
    pub(crate) fn generate(
        &self,
        source: &mut dyn WorkloadSource,
        table: &[Prefix],
    ) -> Vec<UpdateMessage> {
        match self {
            Traffic::Announce(spec) => source.announcements(table, spec),
            Traffic::Withdraw { per_update } => source.withdrawals(table, *per_update),
            Traffic::Train(spec) => source.update_train(table, spec),
            Traffic::MedOscillation(spec) => {
                workload::med_oscillation(table, spec, OSCILLATION_ROUNDS, OSCILLATION_HIGH_MED)
            }
        }
    }
}

/// What happens in one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Action {
    /// The speaker sends; the step ends when the router has processed
    /// every prefix-level transaction of the stream.
    Send(Traffic),
    /// The router advertises its table to the speaker; the step ends
    /// when the whole table has gone out.
    Export { per_update: usize },
}

/// One step of a scenario. A plan's last step is the timed one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The paper's phase number (1, 2 or 3).
    pub(crate) phase: u64,
    /// The speaker that sends, or is exported to.
    pub(crate) speaker: SpeakerHandle,
    pub(crate) action: Action,
}

/// The steps of `scenario`, the last one timed at `per_update`
/// prefixes per UPDATE. `speakers` gives Speaker 1's and Speaker 2's AS
/// and the next hop each announces. Setup steps always use large
/// packets — they are not measured, and the paper's methodology only
/// constrains the timed phase's packetization.
///
/// Session-churn scenarios have no phases (the topology engine drives
/// them from a fault plan) and get an empty plan.
pub(crate) fn phase_plan(
    scenario: Scenario,
    seed: u64,
    per_update: usize,
    speakers: [(Asn, Ipv4Addr); 2],
) -> Vec<Step> {
    // Speaker 2 draws its path filler from the next seed, so its routes
    // differ from Speaker 1's in more than length.
    let spec = |speaker: SpeakerHandle, path_len, prefixes_per_update| AnnounceSpec {
        speaker_asn: speakers[speaker.0].0,
        path_len,
        next_hop: speakers[speaker.0].1,
        prefixes_per_update,
        seed: seed + speaker.0 as u64,
    };
    let step = |phase, speaker, action| Step {
        phase,
        speaker,
        action,
    };
    let inject = step(
        1,
        SPEAKER_1,
        Action::Send(Traffic::Announce(spec(
            SPEAKER_1,
            BASE_PATH_LEN,
            LARGE_PACKET_PREFIXES,
        ))),
    );
    let export = |per_update| step(2, SPEAKER_2, Action::Export { per_update });
    let update = |speaker, traffic| step(3, speaker, Action::Send(traffic));
    let from_speaker2 = |path_len| Traffic::Announce(spec(SPEAKER_2, path_len, per_update));
    let base = |speaker| spec(speaker, BASE_PATH_LEN, per_update);
    match scenario.operation() {
        BgpOperation::StartupAnnounce => {
            vec![step(
                1,
                SPEAKER_1,
                Action::Send(Traffic::Announce(base(SPEAKER_1))),
            )]
        }
        BgpOperation::EndingWithdraw => {
            vec![inject, update(SPEAKER_1, Traffic::Withdraw { per_update })]
        }
        BgpOperation::IncrementalNoChange => vec![
            inject,
            export(LARGE_PACKET_PREFIXES),
            update(SPEAKER_2, from_speaker2(LONGER_PATH_LEN)),
        ],
        BgpOperation::IncrementalChange => vec![
            inject,
            export(LARGE_PACKET_PREFIXES),
            update(SPEAKER_2, from_speaker2(SHORTER_PATH_LEN)),
        ],
        // The timed phase is the re-advertisement itself: every route
        // crosses the export route-map on its way to Speaker 2's
        // Adj-RIB-Out.
        BgpOperation::ExportRewrite => vec![inject, export(per_update)],
        BgpOperation::MedOscillation => {
            vec![
                inject,
                update(SPEAKER_2, Traffic::MedOscillation(base(SPEAKER_2))),
            ]
        }
        BgpOperation::UpdateTrainReplay => {
            vec![inject, update(SPEAKER_1, Traffic::Train(base(SPEAKER_1)))]
        }
        BgpOperation::SessionChurn => Vec::new(),
    }
}
