//! Per-session finite state machine (RFC 4271 §8, passive side).

use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;

use bgpbench_rib::{PeerId, RibError};
use bgpbench_wire::{
    ErrorCode, Message, NotificationMessage, OpenMessage, StreamDecoder, WireError,
};

use crate::core::{Batch, Core};

/// Observable states of a daemon session.
///
/// The daemon is the passive side, so the FSM runs
/// `Active → OpenConfirm → Established` (Idle/Connect/OpenSent belong
/// to the initiating side, played by the live speakers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Connection accepted, waiting for the peer's OPEN.
    Active,
    /// OPEN exchanged, waiting for the peer's KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATE processing in progress.
    Established,
    /// Session terminated.
    Closed,
}

impl SessionState {
    /// The equivalent state in the full tick-driven FSM
    /// ([`crate::fsm::SessionFsm`]), for the unified
    /// [`crate::PeerHandle`] surface. The passive side's `Active`
    /// (transport up, awaiting OPEN) maps to `OpenSent` — the same
    /// point in the handshake seen from the initiating side — and
    /// `Closed` maps to `Idle`.
    pub fn fsm_state(self) -> crate::fsm::FsmState {
        match self {
            SessionState::Active => crate::fsm::FsmState::OpenSent,
            SessionState::OpenConfirm => crate::fsm::FsmState::OpenConfirm,
            SessionState::Established => crate::fsm::FsmState::Established,
            SessionState::Closed => crate::fsm::FsmState::Idle,
        }
    }
}

/// Runs one accepted connection to completion. Returns when the
/// session closes for any reason.
pub(crate) fn run_session(
    stream: TcpStream,
    peer_addr: SocketAddr,
    core: Arc<Mutex<Core>>,
    shutdown: Arc<AtomicBool>,
) {
    if let Err(err) = session_loop(stream, peer_addr, &core, &shutdown) {
        // Socket-level failures simply end the session; state cleanup
        // happened in session_loop's scope guards.
        let _ = err;
    }
}

fn session_loop(
    mut stream: TcpStream,
    peer_addr: SocketAddr,
    core: &Arc<Mutex<Core>>,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut decoder = StreamDecoder::new();

    // --- Handshake: wait for OPEN, answer OPEN + KEEPALIVE, wait for
    // KEEPALIVE. Holding the peer's OPEN is the OpenConfirm state.
    let local_open = {
        let core = core.lock();
        let config = core.config();
        OpenMessage::new(config.local_asn, config.hold_time_secs, config.router_id)
            .with_capability(bgpbench_wire::Capability::RouteRefresh)
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut confirmed: Option<OpenMessage> = None;
    let peer_open = loop {
        if shutdown.load(Ordering::Relaxed) || Instant::now() > deadline {
            send_now(
                &mut stream,
                &Message::Notification(NotificationMessage::new(ErrorCode::Cease, 0)),
            )?;
            return Ok(());
        }
        match (read_message(&mut stream, &mut decoder), confirmed.take()) {
            (Ok(Some(Message::Open(open))), None) => {
                send_now(&mut stream, &Message::Open(local_open.clone()))?;
                send_now(&mut stream, &Message::Keepalive)?;
                confirmed = Some(open);
            }
            (Ok(Some(Message::Keepalive)), Some(open)) => break open,
            (Ok(Some(Message::Notification(_))), _) => return Ok(()),
            (Ok(Some(_)), _) => {
                // UPDATE before establishment, or OPEN in the wrong
                // state: FSM error.
                send_now(
                    &mut stream,
                    &Message::Notification(NotificationMessage::new(
                        ErrorCode::FiniteStateMachineError,
                        0,
                    )),
                )?;
                return Ok(());
            }
            (Ok(None), open) => confirmed = open,
            (Err(err), _) if err.kind() == io::ErrorKind::InvalidData => {
                send_now(
                    &mut stream,
                    &Message::Notification(classify_wire_error(&err)),
                )?;
                return Ok(());
            }
            (Err(err), _) => return Err(err),
        }
    };
    let negotiated_hold = effective_hold(local_open.hold_time_secs(), peer_open.hold_time_secs());
    // Our keepalive interval: the configured value, never slower than
    // a third of the negotiated hold time.
    let keepalive = negotiated_hold.map(|hold| {
        let configured = Duration::from_secs(u64::from(
            core.lock().config().effective_keepalive_secs().max(1),
        ));
        configured.min(hold / 3)
    });

    // --- Writer thread: serializes everything the core or the timer
    // sends toward this peer.
    let (tx, rx): (_, Receiver<Vec<u8>>) = unbounded();
    let writer_stream = stream.try_clone()?;
    let writer = thread::spawn(move || writer_loop(writer_stream, rx));

    let peer_ip = match peer_addr.ip() {
        std::net::IpAddr::V4(ip) => ip,
        std::net::IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
    };
    let peer_id: PeerId =
        core.lock()
            .register_peer(peer_open.asn(), peer_open.router_id(), peer_ip, tx.clone());

    // --- Established loop.
    let result = established_loop(
        &mut stream,
        &mut decoder,
        core,
        shutdown,
        peer_id,
        negotiated_hold,
        keepalive,
        &tx,
    );

    core.lock().unregister_peer(peer_id);
    drop(tx);
    let _ = writer.join();
    result
}

#[allow(clippy::too_many_arguments)]
fn established_loop(
    stream: &mut TcpStream,
    decoder: &mut StreamDecoder,
    core: &Arc<Mutex<Core>>,
    shutdown: &Arc<AtomicBool>,
    peer_id: PeerId,
    hold: Option<Duration>,
    keepalive: Option<Duration>,
    tx: &crossbeam::channel::Sender<Vec<u8>>,
) -> io::Result<()> {
    let mut last_received = Instant::now();
    let mut last_sent = Instant::now();
    let mut inbox: Vec<Message> = Vec::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            let note = NotificationMessage::new(ErrorCode::Cease, 0);
            queue(tx, &Message::Notification(note));
            return Ok(());
        }
        if let Some(hold) = hold {
            if last_received.elapsed() > hold {
                let note = NotificationMessage::new(ErrorCode::HoldTimerExpired, 0);
                queue(tx, &Message::Notification(note));
                return Ok(());
            }
            if last_sent.elapsed() > keepalive.unwrap_or(hold / 3) {
                queue(tx, &Message::Keepalive);
                last_sent = Instant::now();
            }
        }
        // Everything the last read delivered is decoded before the lock
        // is taken, then applied in arrival order under one hold of it.
        let decoded = drain(decoder, &mut inbox);
        if inbox.is_empty() && decoded.is_ok() {
            match fill(stream, decoder) {
                Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
                other => other?,
            }
            continue;
        }
        last_received = Instant::now();
        // Leaving this block drops the batch, which flushes what it
        // staged — also what the UPDATEs ahead of a rejected one staged
        // — before the lock goes and before a NOTIFICATION is queued.
        let handled = {
            let mut core = core.lock();
            let mut batch = core.batch();
            inbox
                .drain(..)
                .try_for_each(|message| handle(&mut batch, peer_id, message))
        };
        let ended = handled.and_then(|()| {
            decoded.map_err(|_| {
                SessionEnd::Notify(NotificationMessage::new(ErrorCode::UpdateMessageError, 0))
            })
        });
        match ended {
            Ok(()) => {}
            Err(SessionEnd::PeerClosed) => return Ok(()),
            Err(SessionEnd::Notify(note)) => {
                queue(tx, &Message::Notification(note));
                return Ok(());
            }
        }
    }
}

/// Why an established session stops reading.
enum SessionEnd {
    /// The peer sent a NOTIFICATION.
    PeerClosed,
    /// We owe the peer this NOTIFICATION.
    Notify(NotificationMessage),
}

/// Handles one message of an established session inside `batch`.
fn handle(batch: &mut Batch<'_>, peer_id: PeerId, message: Message) -> Result<(), SessionEnd> {
    match message {
        Message::Update(update) => batch
            .apply_update(peer_id, &update)
            .map_err(|err| SessionEnd::Notify(classify_update_error(&err))),
        Message::Keepalive => Ok(()),
        Message::RouteRefresh { .. } => {
            batch.refresh(peer_id);
            Ok(())
        }
        Message::Notification(_) => Err(SessionEnd::PeerClosed),
        Message::Open(_) => Err(SessionEnd::Notify(NotificationMessage::new(
            ErrorCode::FiniteStateMachineError,
            0,
        ))),
    }
}

/// Moves every complete buffered message into `inbox`. On a wire error
/// the messages ahead of it are still delivered.
fn drain(decoder: &mut StreamDecoder, inbox: &mut Vec<Message>) -> Result<(), WireError> {
    while let Some(message) = decoder.next_message()? {
        inbox.push(message);
    }
    Ok(())
}

fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>) {
    while let Ok(bytes) = rx.recv() {
        if stream.write_all(&bytes).is_err() {
            return;
        }
    }
}

fn queue(tx: &crossbeam::channel::Sender<Vec<u8>>, message: &Message) {
    if let Ok(bytes) = message.encode() {
        let _ = tx.send(bytes);
    }
}

fn send_now(stream: &mut TcpStream, message: &Message) -> io::Result<()> {
    let bytes = message
        .encode()
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
    stream.write_all(&bytes)
}

fn read_message(
    stream: &mut TcpStream,
    decoder: &mut StreamDecoder,
) -> io::Result<Option<Message>> {
    let next = |decoder: &mut StreamDecoder| {
        decoder
            .next_message()
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))
    };
    if let Some(message) = next(decoder)? {
        return Ok(Some(message));
    }
    fill(stream, decoder)?;
    next(decoder)
}

/// One socket read, straight into the decoder's buffer. A read that
/// times out with nothing received is not an error.
fn fill(stream: &mut TcpStream, decoder: &mut StreamDecoder) -> io::Result<()> {
    match decoder.read_from(stream) {
        Ok(0) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed the session",
        )),
        Ok(_) => Ok(()),
        Err(err)
            if err.kind() == io::ErrorKind::WouldBlock || err.kind() == io::ErrorKind::TimedOut =>
        {
            Ok(())
        }
        Err(err) => Err(err),
    }
}

/// Maps the engine's rejection of an UPDATE onto the NOTIFICATION RFC
/// 4271 §6.3 prescribes: a missing well-known attribute is subcode 3
/// with the attribute's type code as data.
fn classify_update_error(err: &RibError) -> NotificationMessage {
    match err {
        RibError::MissingMandatoryAttribute { type_code, .. } => {
            NotificationMessage::with_data(ErrorCode::UpdateMessageError, 3, vec![*type_code])
        }
        RibError::UnknownPeer(_) | RibError::DuplicatePeer(_) => {
            NotificationMessage::new(ErrorCode::UpdateMessageError, 0)
        }
    }
}

/// Maps a wire-level decode failure onto the NOTIFICATION RFC 4271 §6
/// prescribes: OPEN errors get code 2 with the matching subcode,
/// anything else is a message-header error.
fn classify_wire_error(err: &io::Error) -> NotificationMessage {
    let Some(wire) = err.get_ref().and_then(|e| e.downcast_ref::<WireError>()) else {
        return NotificationMessage::new(ErrorCode::MessageHeaderError, 0);
    };
    match wire {
        // §6.2 subcodes: 1 unsupported version, 2 bad peer AS,
        // 3 bad BGP identifier, 6 unacceptable hold time.
        WireError::UnsupportedVersion(_) => {
            NotificationMessage::new(ErrorCode::OpenMessageError, 1)
        }
        WireError::MalformedOpen { field } => {
            let subcode = match *field {
                "zero AS number" => 2,
                "zero BGP identifier" => 3,
                "hold time below three seconds" => 6,
                _ => 0,
            };
            NotificationMessage::new(ErrorCode::OpenMessageError, subcode)
        }
        WireError::InconsistentLength { .. } | WireError::MalformedAttribute { .. } => {
            NotificationMessage::new(ErrorCode::UpdateMessageError, 0)
        }
        _ => NotificationMessage::new(ErrorCode::MessageHeaderError, 0),
    }
}

/// RFC 4271 §4.2: the session hold time is the minimum of both sides'
/// proposals; zero disables the timers.
fn effective_hold(ours: u16, theirs: u16) -> Option<Duration> {
    let hold = ours.min(theirs);
    (hold > 0).then(|| Duration::from_secs(u64::from(hold)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_negotiation_takes_the_minimum() {
        assert_eq!(effective_hold(90, 30), Some(Duration::from_secs(30)));
        assert_eq!(effective_hold(30, 90), Some(Duration::from_secs(30)));
        assert_eq!(effective_hold(0, 90), None);
        assert_eq!(effective_hold(90, 0), None);
    }

    #[test]
    fn session_states_are_distinct() {
        let states = [
            SessionState::Active,
            SessionState::OpenConfirm,
            SessionState::Established,
            SessionState::Closed,
        ];
        for (i, a) in states.iter().enumerate() {
            for (j, b) in states.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
