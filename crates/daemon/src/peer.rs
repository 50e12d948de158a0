//! The unified peer surface.
//!
//! The daemon exposes sessions through [`crate::PeerSnapshot`]s, and
//! the simulated topology engine keeps its own per-peer FSM and model
//! counters. [`PeerHandle`] is the single trait both sides implement:
//! session state as an [`FsmState`], directional counters, and UPDATE
//! injection, so the harness and topology code observe and drive a
//! peer the same way whether it is a live TCP session or a simulated
//! speaker.

use std::sync::Arc;

use parking_lot::Mutex;

use bgpbench_rib::PeerId;
use bgpbench_wire::UpdateMessage;

use crate::core::Core;
use crate::fsm::FsmState;

/// Directional per-peer counters, in messages and prefix-level
/// transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerCounters {
    /// UPDATE messages received from the peer.
    pub updates_in: u64,
    /// Prefix-level transactions received from the peer.
    pub prefixes_in: u64,
    /// UPDATE messages sent to the peer.
    pub updates_out: u64,
    /// Prefix-level transactions sent to the peer.
    pub prefixes_out: u64,
}

/// One peer of a BGP system under test, live or simulated.
pub trait PeerHandle {
    /// The session's current FSM state.
    fn state(&self) -> FsmState;

    /// Directional traffic counters for the session.
    fn counters(&self) -> PeerCounters;

    /// Injects one UPDATE as if received from this peer. Returns
    /// `false` when the session cannot accept input (not Established)
    /// or the UPDATE is rejected.
    fn inject(&mut self, update: &UpdateMessage) -> bool;
}

/// [`PeerHandle`] over one of a live [`crate::BgpDaemon`]'s sessions.
///
/// Obtained from [`crate::BgpDaemon::peer_handles`]; holds the daemon
/// core, so it stays valid (reporting `Idle`) after the session dies.
#[derive(Debug, Clone)]
pub struct DaemonPeerHandle {
    core: Arc<Mutex<Core>>,
    peer: PeerId,
}

impl DaemonPeerHandle {
    pub(crate) fn new(core: Arc<Mutex<Core>>, peer: PeerId) -> Self {
        DaemonPeerHandle { core, peer }
    }

    /// The daemon-side session id of this peer.
    pub fn peer_id(&self) -> PeerId {
        self.peer
    }
}

impl PeerHandle for DaemonPeerHandle {
    fn state(&self) -> FsmState {
        // The socket session layer registers a peer only once the OPEN
        // and first KEEPALIVE are exchanged, so registered == Established.
        if self.core.lock().is_registered(self.peer) {
            FsmState::Established
        } else {
            FsmState::Idle
        }
    }

    fn counters(&self) -> PeerCounters {
        self.core
            .lock()
            .peer_snapshot(self.peer)
            .map(|s| PeerCounters {
                updates_in: s.updates_in,
                prefixes_in: s.prefixes_in,
                updates_out: s.updates_out,
                prefixes_out: s.prefixes_out,
            })
            .unwrap_or_default()
    }

    fn inject(&mut self, update: &UpdateMessage) -> bool {
        let mut core = self.core.lock();
        if !core.is_registered(self.peer) {
            return false;
        }
        let applied = core.batch().apply_update(self.peer, update);
        applied.is_ok()
    }
}
