//! The RFC 4271 session FSM, counted in ticks.
//!
//! [`SessionFsm`] is a pure, socket-free state machine over the five
//! classic states (Idle, Connect, OpenSent, OpenConfirm, Established).
//! Transport and message arrivals are fed in as [`FsmEvent`]s; timers
//! (hold, keepalive, connect-retry) are counted in discrete ticks and
//! advanced by [`SessionFsm::on_tick`]. It has two drivers and no
//! sibling: the simulated topology ticks N sessions off the simnet
//! clock, and the live daemon's session threads ([`crate::session`])
//! feed it decoded messages and one tick per elapsed wall-clock
//! millisecond. Every transition is total: unexpected events are FSM
//! errors that reset the session to Idle (RFC 4271 §6.6), never panics
//! — this module denies the no-panic lints at its top.
//!
//! What a driver owes the machine:
//!
//! * the peer's proposed hold time, via
//!   [`SessionFsm::set_peer_hold_ticks`] before
//!   [`FsmEvent::OpenReceived`], when it has a real OPEN in hand — the
//!   timers are then armed from the negotiated value (RFC 4271 §4.2).
//!   A driver that never says (the topology) runs on its configured
//!   timers unchanged;
//! * the NOTIFICATION body for [`NotifyCause::MessageError`]: the
//!   machine knows *that* a malformed message ends the session
//!   ([`FsmEvent::MessageError`]), only the decoder knows which RFC
//!   4271 §6.1–§6.3 code describes it. Every other cause names its
//!   error code itself.
//!
//! Deviations from the full RFC figure:
//!
//! * no `Active` state — both drivers' transports either come up on
//!   request or fail (the daemon's is an already-accepted socket), so
//!   the passive-wait state collapses into `Connect`;
//! * hold-timer expiry from *every* state lands in Idle (the RFC
//!   leaves the timer stopped in Idle/Connect; treating a stray expiry
//!   as a reset keeps the transition table total);
//! * restart policy (when Idle re-enters Connect) belongs to the
//!   caller via [`FsmEvent::ManualStart`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the session FSM runs once per peer per tick and in the live reader threads; an unexpected event must drop the session, not the process"
)]

use std::fmt;

use bgpbench_telemetry::{self as telemetry, TraceEventId};

/// The five session states of RFC 4271 §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmState {
    /// No session; all timers stopped.
    Idle,
    /// Waiting for the transport to come up (connect-retry running).
    Connect,
    /// Transport up, OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPEN exchanged, waiting for the first KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow and the hold timer is armed.
    Established,
}

impl FsmState {
    /// RFC 4271 §8 state code (Active's 3 is unused in this model),
    /// packed into flight-recorder transition labels.
    pub fn code(self) -> u8 {
        match self {
            FsmState::Idle => 1,
            FsmState::Connect => 2,
            FsmState::OpenSent => 4,
            FsmState::OpenConfirm => 5,
            FsmState::Established => 6,
        }
    }
}

impl fmt::Display for FsmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FsmState::Idle => "Idle",
            FsmState::Connect => "Connect",
            FsmState::OpenSent => "OpenSent",
            FsmState::OpenConfirm => "OpenConfirm",
            FsmState::Established => "Established",
        };
        f.write_str(name)
    }
}

/// Input events of the session FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmEvent {
    /// Operator/topology start: leave Idle and begin connecting.
    ManualStart,
    /// Operator stop or peer restart: tear the session down.
    ManualStop,
    /// The transport connection came up.
    TcpConnected,
    /// The transport connection failed or dropped.
    TcpFailed,
    /// The connect-retry timer fired (re-attempt the transport).
    ConnectRetryExpired,
    /// The peer's OPEN message arrived.
    OpenReceived,
    /// A KEEPALIVE arrived.
    KeepaliveReceived,
    /// An UPDATE arrived.
    UpdateReceived,
    /// A NOTIFICATION arrived.
    NotificationReceived,
    /// The hold timer expired without hearing from the peer.
    HoldTimerExpired,
    /// Time to send our own KEEPALIVE.
    KeepaliveTimerExpired,
    /// The peer sent something that cannot be accepted: bytes that do
    /// not decode, or an UPDATE the routing engine rejects.
    MessageError,
}

impl FsmEvent {
    /// Every event, for exhaustive property tests.
    pub const ALL: [FsmEvent; 12] = [
        FsmEvent::ManualStart,
        FsmEvent::ManualStop,
        FsmEvent::TcpConnected,
        FsmEvent::TcpFailed,
        FsmEvent::ConnectRetryExpired,
        FsmEvent::OpenReceived,
        FsmEvent::KeepaliveReceived,
        FsmEvent::UpdateReceived,
        FsmEvent::NotificationReceived,
        FsmEvent::HoldTimerExpired,
        FsmEvent::KeepaliveTimerExpired,
        FsmEvent::MessageError,
    ];
}

/// Output actions the caller must perform after a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsmAction {
    /// Initiate the transport connection.
    StartConnect,
    /// Send our OPEN message.
    SendOpen,
    /// Send a KEEPALIVE.
    SendKeepalive,
    /// Send a NOTIFICATION (session is being torn down with cause).
    SendNotification(NotifyCause),
    /// The session reached Established.
    SessionUp,
    /// The session left Established (purge the peer's routes).
    SessionDown,
}

/// Why the FSM tears a session down with a NOTIFICATION: the RFC 4271
/// §6 error the message must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotifyCause {
    /// §6.5: the hold timer ran out.
    HoldTimerExpired,
    /// §6.6: an event the current state has no transition for.
    FsmError,
    /// §6.7: we are closing the session ourselves.
    Cease,
    /// §6.1–§6.3: the message behind [`FsmEvent::MessageError`]; the
    /// driver holds the code, subcode and data.
    MessageError,
}

impl NotifyCause {
    /// The cause a reset triggered by `event` reports.
    fn of(event: FsmEvent) -> Self {
        match event {
            FsmEvent::HoldTimerExpired => NotifyCause::HoldTimerExpired,
            FsmEvent::ManualStop => NotifyCause::Cease,
            FsmEvent::MessageError => NotifyCause::MessageError,
            _ => NotifyCause::FsmError,
        }
    }
}

/// Session timer durations in ticks. Zero disables a timer
/// (matching the hold-time-zero convention of RFC 4271 §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTimers {
    /// Ticks without hearing from the peer before the session resets:
    /// our proposal, until the peer's OPEN negotiates it down.
    pub hold_ticks: u64,
    /// Ticks between our own KEEPALIVEs (conventionally hold/3).
    pub keepalive_ticks: u64,
    /// Ticks between transport connection attempts.
    pub connect_retry_ticks: u64,
    /// Ticks OpenSent waits for the peer's OPEN — RFC 4271 §8's "large
    /// value", in force before any hold time has been negotiated.
    pub open_hold_ticks: u64,
}

/// The OpenSent hold time [`SessionTimers::from_secs`] arms: the four
/// minutes RFC 4271 §8.2.2 suggests.
pub const OPEN_HOLD_SECS: u64 = 240;

impl SessionTimers {
    /// Timers from second-granularity configuration at `ticks_per_sec`
    /// resolution. A zero keepalive derives hold/3.
    pub fn from_secs(hold: u16, keepalive: u16, connect_retry: u16, ticks_per_sec: u64) -> Self {
        let keepalive = if keepalive == 0 { hold / 3 } else { keepalive };
        SessionTimers {
            hold_ticks: u64::from(hold) * ticks_per_sec,
            keepalive_ticks: u64::from(keepalive) * ticks_per_sec,
            connect_retry_ticks: u64::from(connect_retry) * ticks_per_sec,
            open_hold_ticks: OPEN_HOLD_SECS * ticks_per_sec,
        }
    }

    /// Paper-faithful defaults: hold 90 s, keepalive 30 s,
    /// connect-retry 120 s (RFC 4271 §10 suggested values).
    pub fn paper_default(ticks_per_sec: u64) -> Self {
        SessionTimers::from_secs(90, 30, 120, ticks_per_sec)
    }

    /// RFC 4271 §4.2: the session runs on the smaller of the two
    /// proposed hold times, zero disables hold and keepalive alike,
    /// and our keepalive interval is the configured one but never
    /// slower than a third of the hold time.
    pub fn negotiated(self, peer_hold_ticks: u64) -> Self {
        let hold_ticks = self.hold_ticks.min(peer_hold_ticks);
        SessionTimers {
            hold_ticks,
            keepalive_ticks: self.keepalive_ticks.min(hold_ticks / 3),
            ..self
        }
    }
}

/// A deterministic, tick-driven BGP session FSM.
#[derive(Debug, Clone)]
pub struct SessionFsm {
    state: FsmState,
    configured: SessionTimers,
    /// The timers in force: `configured`, or what the peer's OPEN
    /// negotiated them down to.
    timers: SessionTimers,
    hold_remaining: u64,
    keepalive_remaining: u64,
    connect_retry_remaining: u64,
    flaps: u64,
    transitions: u64,
    /// Peer label stamped on flight-recorder transition events so the
    /// exported timeline groups this session onto its own track.
    trace_label: u64,
}

impl SessionFsm {
    /// A new FSM in Idle with all timers stopped.
    pub fn new(timers: SessionTimers) -> Self {
        SessionFsm {
            state: FsmState::Idle,
            configured: timers,
            timers,
            hold_remaining: 0,
            keepalive_remaining: 0,
            connect_retry_remaining: 0,
            flaps: 0,
            transitions: 0,
            trace_label: 0,
        }
    }

    /// Sets the peer label carried by this session's flight-recorder
    /// events (conventionally the peer id; 0 = unlabeled).
    pub fn set_trace_label(&mut self, label: u64) {
        self.trace_label = label;
    }

    /// The current state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// Times the session has left Established.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Total state transitions processed (self-transitions included).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Takes the hold time the peer's OPEN proposes, ahead of the
    /// [`FsmEvent::OpenReceived`] that arms the timers: from here to
    /// the next reset they are the negotiated ones.
    pub fn set_peer_hold_ticks(&mut self, ticks: u64) {
        self.timers = self.configured.negotiated(ticks);
    }

    /// The timer durations in force: as configured, until an OPEN
    /// whose hold time the driver reported negotiates them down.
    pub fn timers(&self) -> SessionTimers {
        self.timers
    }

    /// Advances the clock by one tick, firing any timers that reach
    /// zero. Actions are appended to `actions`.
    pub fn on_tick(&mut self, actions: &mut Vec<FsmAction>) {
        if matches!(self.state, FsmState::Connect) && self.connect_retry_remaining > 0 {
            self.connect_retry_remaining -= 1;
            if self.connect_retry_remaining == 0 {
                self.handle(FsmEvent::ConnectRetryExpired, actions);
            }
        }
        if matches!(
            self.state,
            FsmState::OpenSent | FsmState::OpenConfirm | FsmState::Established
        ) && self.hold_remaining > 0
        {
            self.hold_remaining -= 1;
            if self.hold_remaining == 0 {
                self.handle(FsmEvent::HoldTimerExpired, actions);
                return;
            }
        }
        if matches!(self.state, FsmState::OpenConfirm | FsmState::Established)
            && self.keepalive_remaining > 0
        {
            self.keepalive_remaining -= 1;
            if self.keepalive_remaining == 0 {
                self.handle(FsmEvent::KeepaliveTimerExpired, actions);
            }
        }
    }

    /// Feeds one event through the transition table, appending the
    /// resulting actions. Total: every `(state, event)` pair is
    /// defined; unexpected messages are FSM errors that reset to Idle.
    pub fn handle(&mut self, event: FsmEvent, actions: &mut Vec<FsmAction>) {
        self.transitions += 1;
        let from = self.state;
        self.dispatch(event, actions);
        if self.state != from {
            telemetry::trace_instant(
                TraceEventId::FsmTransition,
                self.trace_label,
                (u64::from(from.code()) << 8) | u64::from(self.state.code()),
            );
        }
    }

    fn dispatch(&mut self, event: FsmEvent, actions: &mut Vec<FsmAction>) {
        match (self.state, event) {
            // Stop and hold-expiry reset the session from any state.
            (_, FsmEvent::ManualStop) | (_, FsmEvent::HoldTimerExpired) => {
                let notify = matches!(
                    self.state,
                    FsmState::OpenSent | FsmState::OpenConfirm | FsmState::Established
                );
                self.reset(notify.then_some(event), actions);
            }

            (FsmState::Idle, FsmEvent::ManualStart) => {
                self.state = FsmState::Connect;
                self.connect_retry_remaining = self.timers.connect_retry_ticks;
                actions.push(FsmAction::StartConnect);
            }
            // Idle ignores everything else (RFC 4271 §8.2.2).
            (FsmState::Idle, _) => {}

            (FsmState::Connect, FsmEvent::TcpConnected) => {
                self.state = FsmState::OpenSent;
                self.connect_retry_remaining = 0;
                self.hold_remaining = self.timers.open_hold_ticks;
                actions.push(FsmAction::SendOpen);
            }
            // Transport failure: stay in Connect and retry (this model
            // folds the RFC's Active state into Connect).
            (FsmState::Connect, FsmEvent::TcpFailed)
            | (FsmState::Connect, FsmEvent::ConnectRetryExpired) => {
                self.connect_retry_remaining = self.timers.connect_retry_ticks;
                actions.push(FsmAction::StartConnect);
            }
            (FsmState::Connect, FsmEvent::ManualStart) => {}
            // BGP messages without a transport are an FSM error.
            (FsmState::Connect, _) => self.reset(None, actions),

            (FsmState::OpenSent, FsmEvent::OpenReceived) => {
                self.state = FsmState::OpenConfirm;
                self.hold_remaining = self.timers.hold_ticks;
                self.keepalive_remaining = self.timers.keepalive_ticks;
                actions.push(FsmAction::SendKeepalive);
            }
            (FsmState::OpenSent, FsmEvent::TcpFailed)
            | (FsmState::OpenSent, FsmEvent::NotificationReceived) => self.reset(None, actions),
            (FsmState::OpenSent, FsmEvent::ManualStart)
            | (FsmState::OpenSent, FsmEvent::ConnectRetryExpired) => {}
            (FsmState::OpenSent, _) => self.reset(Some(event), actions),

            (FsmState::OpenConfirm, FsmEvent::KeepaliveReceived) => {
                self.state = FsmState::Established;
                self.hold_remaining = self.timers.hold_ticks;
                actions.push(FsmAction::SessionUp);
            }
            (FsmState::OpenConfirm, FsmEvent::KeepaliveTimerExpired) => {
                self.keepalive_remaining = self.timers.keepalive_ticks;
                actions.push(FsmAction::SendKeepalive);
            }
            (FsmState::OpenConfirm, FsmEvent::TcpFailed)
            | (FsmState::OpenConfirm, FsmEvent::NotificationReceived) => self.reset(None, actions),
            (FsmState::OpenConfirm, FsmEvent::ManualStart)
            | (FsmState::OpenConfirm, FsmEvent::ConnectRetryExpired) => {}
            (FsmState::OpenConfirm, _) => self.reset(Some(event), actions),

            (FsmState::Established, FsmEvent::KeepaliveReceived)
            | (FsmState::Established, FsmEvent::UpdateReceived) => {
                self.hold_remaining = self.timers.hold_ticks;
            }
            (FsmState::Established, FsmEvent::KeepaliveTimerExpired) => {
                self.keepalive_remaining = self.timers.keepalive_ticks;
                actions.push(FsmAction::SendKeepalive);
            }
            (FsmState::Established, FsmEvent::TcpFailed)
            | (FsmState::Established, FsmEvent::NotificationReceived) => self.reset(None, actions),
            (FsmState::Established, FsmEvent::ManualStart)
            | (FsmState::Established, FsmEvent::ConnectRetryExpired) => {}
            (FsmState::Established, _) => self.reset(Some(event), actions),
        }
    }

    /// Drops to Idle, stopping all timers and forgetting what the
    /// peer negotiated. `notify` is the event we are tearing an open
    /// exchange down over, which owes the peer a NOTIFICATION;
    /// `SessionDown` is emitted when leaving Established.
    fn reset(&mut self, notify: Option<FsmEvent>, actions: &mut Vec<FsmAction>) {
        if let Some(event) = notify {
            actions.push(FsmAction::SendNotification(NotifyCause::of(event)));
        }
        if matches!(self.state, FsmState::Established) {
            self.flaps += 1;
            actions.push(FsmAction::SessionDown);
        }
        self.state = FsmState::Idle;
        self.timers = self.configured;
        self.hold_remaining = 0;
        self.keepalive_remaining = 0;
        self.connect_retry_remaining = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn established(timers: SessionTimers) -> SessionFsm {
        let mut fsm = SessionFsm::new(timers);
        let mut actions = Vec::new();
        fsm.handle(FsmEvent::ManualStart, &mut actions);
        fsm.handle(FsmEvent::TcpConnected, &mut actions);
        fsm.handle(FsmEvent::OpenReceived, &mut actions);
        fsm.handle(FsmEvent::KeepaliveReceived, &mut actions);
        assert_eq!(fsm.state(), FsmState::Established);
        assert!(actions.contains(&FsmAction::SessionUp));
        fsm
    }

    fn timers() -> SessionTimers {
        SessionTimers {
            hold_ticks: 9,
            keepalive_ticks: 3,
            connect_retry_ticks: 5,
            open_hold_ticks: 9,
        }
    }

    #[test]
    fn happy_path_reaches_established() {
        let fsm = established(timers());
        assert_eq!(fsm.flaps(), 0);
    }

    #[test]
    fn hold_timer_expires_without_keepalives() {
        let mut fsm = established(timers());
        let mut actions = Vec::new();
        for _ in 0..9 {
            fsm.on_tick(&mut actions);
        }
        assert_eq!(fsm.state(), FsmState::Idle);
        assert!(actions.contains(&FsmAction::SessionDown));
        assert_eq!(fsm.flaps(), 1);
    }

    #[test]
    fn keepalives_refresh_the_hold_timer() {
        let mut fsm = established(timers());
        let mut actions = Vec::new();
        for tick in 0..40 {
            if tick % 4 == 0 {
                fsm.handle(FsmEvent::KeepaliveReceived, &mut actions);
            }
            fsm.on_tick(&mut actions);
            assert_eq!(fsm.state(), FsmState::Established, "tick {tick}");
        }
        // Our own keepalive timer fired along the way.
        assert!(actions.contains(&FsmAction::SendKeepalive));
    }

    #[test]
    fn connect_retry_fires_until_transport_comes_up() {
        let mut fsm = SessionFsm::new(timers());
        let mut actions = Vec::new();
        fsm.handle(FsmEvent::ManualStart, &mut actions);
        actions.clear();
        for _ in 0..11 {
            fsm.on_tick(&mut actions);
        }
        assert_eq!(fsm.state(), FsmState::Connect);
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, FsmAction::StartConnect))
                .count(),
            2
        );
    }

    #[test]
    fn unexpected_update_in_open_sent_is_an_fsm_error() {
        let mut fsm = SessionFsm::new(timers());
        let mut actions = Vec::new();
        fsm.handle(FsmEvent::ManualStart, &mut actions);
        fsm.handle(FsmEvent::TcpConnected, &mut actions);
        actions.clear();
        fsm.handle(FsmEvent::UpdateReceived, &mut actions);
        assert_eq!(fsm.state(), FsmState::Idle);
        assert_eq!(
            actions,
            vec![FsmAction::SendNotification(NotifyCause::FsmError)]
        );
    }

    #[test]
    fn zero_hold_time_disables_the_hold_timer() {
        let mut fsm = established(SessionTimers::from_secs(0, 0, 5, 1));
        let mut actions = Vec::new();
        for _ in 0..10_000 {
            fsm.on_tick(&mut actions);
        }
        assert_eq!(fsm.state(), FsmState::Established);
    }

    #[test]
    fn paper_default_timers() {
        let t = SessionTimers::paper_default(1000);
        assert_eq!(t.hold_ticks, 90_000);
        assert_eq!(t.keepalive_ticks, 30_000);
        assert_eq!(t.connect_retry_ticks, 120_000);
        assert_eq!(t.open_hold_ticks, 240_000);
    }

    #[test]
    fn hold_negotiation_takes_the_minimum() {
        let ours = SessionTimers::from_secs(90, 30, 0, 1000);
        for (peer, hold, keepalive) in [(30_000, 30_000, 10_000), (180_000, 90_000, 30_000)] {
            let mut fsm = SessionFsm::new(ours);
            let mut actions = Vec::new();
            fsm.handle(FsmEvent::ManualStart, &mut actions);
            fsm.handle(FsmEvent::TcpConnected, &mut actions);
            fsm.set_peer_hold_ticks(peer);
            fsm.handle(FsmEvent::OpenReceived, &mut actions);
            assert_eq!(fsm.timers().hold_ticks, hold);
            assert_eq!(fsm.timers().keepalive_ticks, keepalive);
        }
        // Zero on either side disables both timers.
        assert_eq!(ours.negotiated(0).hold_ticks, 0);
        assert_eq!(ours.negotiated(0).keepalive_ticks, 0);
        let silent = SessionTimers::from_secs(0, 0, 0, 1000).negotiated(90_000);
        assert_eq!((silent.hold_ticks, silent.keepalive_ticks), (0, 0));
    }
}
