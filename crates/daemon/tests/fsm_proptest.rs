//! Property-based tests for the tick-driven session FSM — the machine
//! both the simulated topology and the live daemon's sessions run.

use bgpbench_daemon::{FsmAction, FsmEvent, FsmState, NotifyCause, SessionFsm, SessionTimers};
use proptest::prelude::*;

fn timers() -> SessionTimers {
    SessionTimers {
        hold_ticks: 12,
        keepalive_ticks: 4,
        connect_retry_ticks: 6,
        open_hold_ticks: 12,
    }
}

/// Drives an FSM into each of the five states.
fn fsm_in(state: FsmState) -> SessionFsm {
    let mut fsm = SessionFsm::new(timers());
    let mut actions = Vec::new();
    let path: &[FsmEvent] = match state {
        FsmState::Idle => &[],
        FsmState::Connect => &[FsmEvent::ManualStart],
        FsmState::OpenSent => &[FsmEvent::ManualStart, FsmEvent::TcpConnected],
        FsmState::OpenConfirm => &[
            FsmEvent::ManualStart,
            FsmEvent::TcpConnected,
            FsmEvent::OpenReceived,
        ],
        FsmState::Established => &[
            FsmEvent::ManualStart,
            FsmEvent::TcpConnected,
            FsmEvent::OpenReceived,
            FsmEvent::KeepaliveReceived,
        ],
    };
    for event in path {
        fsm.handle(*event, &mut actions);
    }
    assert_eq!(fsm.state(), state, "setup must reach {state}");
    fsm
}

const ALL_STATES: [FsmState; 5] = [
    FsmState::Idle,
    FsmState::Connect,
    FsmState::OpenSent,
    FsmState::OpenConfirm,
    FsmState::Established,
];

/// The full set of legal transitions. Anything the FSM does outside
/// this relation is a bug.
fn allowed(pre: FsmState, event: FsmEvent, post: FsmState) -> bool {
    use FsmEvent as E;
    use FsmState as S;
    match (pre, event) {
        // Global resets; a message that cannot be accepted ends the
        // session wherever it arrives (Idle, which ignores everything,
        // is already there).
        (_, E::ManualStop | E::HoldTimerExpired | E::MessageError) => post == S::Idle,
        (S::Idle, E::ManualStart) => post == S::Connect,
        (S::Idle, _) => post == S::Idle,
        (S::Connect, E::TcpConnected) => post == S::OpenSent,
        (S::Connect, E::TcpFailed | E::ConnectRetryExpired | E::ManualStart) => post == S::Connect,
        (S::Connect, _) => post == S::Idle,
        (S::OpenSent, E::OpenReceived) => post == S::OpenConfirm,
        (S::OpenSent, E::ManualStart | E::ConnectRetryExpired) => post == S::OpenSent,
        (S::OpenSent, _) => post == S::Idle,
        (S::OpenConfirm, E::KeepaliveReceived) => post == S::Established,
        (S::OpenConfirm, E::KeepaliveTimerExpired | E::ManualStart | E::ConnectRetryExpired) => {
            post == S::OpenConfirm
        }
        (S::OpenConfirm, _) => post == S::Idle,
        (
            S::Established,
            E::KeepaliveReceived
            | E::UpdateReceived
            | E::KeepaliveTimerExpired
            | E::ManualStart
            | E::ConnectRetryExpired,
        ) => post == S::Established,
        (S::Established, _) => post == S::Idle,
    }
}

fn arb_event() -> impl Strategy<Value = FsmEvent> {
    (0usize..FsmEvent::ALL.len()).prop_map(|i| FsmEvent::ALL[i])
}

/// An interleaving of external events and clock ticks.
#[derive(Debug, Clone)]
enum Step {
    Event(FsmEvent),
    Tick,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![arb_event().prop_map(Step::Event), Just(Step::Tick)]
}

/// A random walk from Idle rarely gets past Connect, so walks start in
/// any of the five states.
fn arb_state() -> impl Strategy<Value = FsmState> {
    (0usize..ALL_STATES.len()).prop_map(|i| ALL_STATES[i])
}

proptest! {
    /// Every transition the FSM takes — for any event from any
    /// reachable state, with ticks interleaved — is in the legal
    /// relation, and session-down bookkeeping matches observed
    /// Established exits.
    #[test]
    fn transitions_stay_within_the_table(
        start in arb_state(),
        steps in prop::collection::vec(arb_step(), 0..120),
    ) {
        let mut fsm = fsm_in(start);
        let mut actions = Vec::new();
        let mut established_exits = 0u64;
        for step in steps {
            let pre = fsm.state();
            actions.clear();
            match step {
                Step::Event(event) => {
                    fsm.handle(event, &mut actions);
                    prop_assert!(
                        allowed(pre, event, fsm.state()),
                        "illegal transition {pre} --{event:?}--> {}",
                        fsm.state()
                    );
                }
                Step::Tick => fsm.on_tick(&mut actions),
            }
            if pre == FsmState::Established && fsm.state() != FsmState::Established {
                established_exits += 1;
                prop_assert!(actions.contains(&FsmAction::SessionDown));
            }
            // SessionDown is only ever emitted when leaving Established.
            if actions.contains(&FsmAction::SessionDown) {
                prop_assert_eq!(pre, FsmState::Established);
                prop_assert_eq!(fsm.state(), FsmState::Idle);
            }
        }
        prop_assert_eq!(fsm.flaps(), established_exits);
    }

    /// A NOTIFICATION says why: Hold Timer Expired exactly when the
    /// hold timer is what ended the session — fed in directly or fired
    /// by `on_tick` — Cease exactly on `ManualStop`, and the decoder's
    /// own code exactly on `MessageError`; anything else the table has
    /// no transition for is an FSM error.
    #[test]
    fn notifications_carry_the_cause_of_the_reset(
        start in arb_state(),
        steps in prop::collection::vec(arb_step(), 0..120),
    ) {
        let mut fsm = fsm_in(start);
        let mut actions = Vec::new();
        for step in steps {
            actions.clear();
            let expected = match step {
                Step::Event(event) => {
                    fsm.handle(event, &mut actions);
                    match event {
                        FsmEvent::HoldTimerExpired => NotifyCause::HoldTimerExpired,
                        FsmEvent::ManualStop => NotifyCause::Cease,
                        FsmEvent::MessageError => NotifyCause::MessageError,
                        _ => NotifyCause::FsmError,
                    }
                }
                // The only timer whose expiry resets is the hold timer.
                Step::Tick => {
                    fsm.on_tick(&mut actions);
                    NotifyCause::HoldTimerExpired
                }
            };
            let sent: Vec<NotifyCause> = actions
                .iter()
                .filter_map(|action| match action {
                    FsmAction::SendNotification(cause) => Some(*cause),
                    _ => None,
                })
                .collect();
            prop_assert!(sent.len() <= 1, "{step:?} sent {sent:?}");
            for cause in sent {
                prop_assert_eq!(cause, expected, "after {:?}", step);
                prop_assert_eq!(fsm.state(), FsmState::Idle);
            }
        }
    }

    /// RFC 4271 §4.2: whatever the two sides propose, the timers an
    /// OPEN arms exceed neither proposal, keepalives fit three to a
    /// hold time, a zero on either side disables both, and the next
    /// session starts from the configuration again.
    #[test]
    fn negotiated_timers_never_exceed_either_proposal(
        ours in 0u64..400,
        keepalive in 0u64..400,
        theirs in 0u64..400,
    ) {
        let configured = SessionTimers {
            hold_ticks: ours,
            keepalive_ticks: keepalive,
            ..timers()
        };
        let mut fsm = SessionFsm::new(configured);
        let mut actions = Vec::new();
        fsm.handle(FsmEvent::ManualStart, &mut actions);
        fsm.handle(FsmEvent::TcpConnected, &mut actions);
        fsm.set_peer_hold_ticks(theirs);
        fsm.handle(FsmEvent::OpenReceived, &mut actions);
        prop_assert_eq!(fsm.state(), FsmState::OpenConfirm);
        let armed = fsm.timers();
        prop_assert_eq!(armed.hold_ticks, ours.min(theirs));
        prop_assert!(armed.keepalive_ticks <= keepalive);
        prop_assert!(armed.keepalive_ticks * 3 <= armed.hold_ticks);
        if ours == 0 || theirs == 0 {
            prop_assert_eq!((armed.hold_ticks, armed.keepalive_ticks), (0, 0));
        }
        fsm.handle(FsmEvent::ManualStop, &mut actions);
        prop_assert_eq!(fsm.timers(), configured);
    }

    /// The FSM is a pure function of its event sequence: two instances
    /// fed the same steps agree on every state and action.
    #[test]
    fn event_sequences_are_deterministic(
        steps in prop::collection::vec(arb_step(), 0..120),
    ) {
        let mut a = SessionFsm::new(timers());
        let mut b = SessionFsm::new(timers());
        for step in steps {
            let mut actions_a = Vec::new();
            let mut actions_b = Vec::new();
            match step {
                Step::Event(event) => {
                    a.handle(event, &mut actions_a);
                    b.handle(event, &mut actions_b);
                }
                Step::Tick => {
                    a.on_tick(&mut actions_a);
                    b.on_tick(&mut actions_b);
                }
            }
            prop_assert_eq!(a.state(), b.state());
            prop_assert_eq!(actions_a, actions_b);
        }
        prop_assert_eq!(a.flaps(), b.flaps());
        prop_assert_eq!(a.transitions(), b.transitions());
    }
}

#[test]
fn hold_timer_expiry_lands_in_idle_from_every_state() {
    for state in ALL_STATES {
        let mut fsm = fsm_in(state);
        let mut actions = Vec::new();
        fsm.handle(FsmEvent::HoldTimerExpired, &mut actions);
        assert_eq!(fsm.state(), FsmState::Idle, "from {state}");
    }
}

#[test]
fn a_session_left_alone_expires_and_only_then() {
    // Established with no keepalives: the hold timer (12 ticks) fires
    // exactly at tick 12.
    let mut fsm = fsm_in(FsmState::Established);
    let mut actions = Vec::new();
    for tick in 1..=11 {
        fsm.on_tick(&mut actions);
        assert_eq!(fsm.state(), FsmState::Established, "tick {tick}");
    }
    fsm.on_tick(&mut actions);
    assert_eq!(fsm.state(), FsmState::Idle);
    assert!(actions.contains(&FsmAction::SessionDown));
}
