//! The socket driver of one session: an accepted connection, its
//! [`SessionFsm`], and nothing else that decides.
//!
//! The driver turns what happens on the socket into [`FsmEvent`]s —
//! accept is `ManualStart` + `TcpConnected` (so the daemon sends its
//! OPEN on connect, the plain Connect → OpenSent path), a decoded
//! message is its `…Received` event, bytes that do not decode or an
//! UPDATE the engine rejects are `MessageError`, EOF or a socket error
//! is `TcpFailed`, daemon shutdown is `ManualStop`, and every elapsed
//! wall-clock millisecond is one [`SessionFsm::on_tick`] — and carries
//! out the [`FsmAction`]s that come back: `SendOpen`, `SendKeepalive`
//! and `SendNotification` are writes, `SessionUp` registers the peer
//! with the [`Core`] and `SessionDown` unregisters it. The session is
//! over when the FSM is back in Idle.
//!
//! Established keeps the shape the hot path was built around: whatever
//! one socket read delivered is decoded outside the core lock, applied
//! in arrival order inside one [`Batch`] under one hold of it, and the
//! FSM hears about the read once (the hold-timer refresh, or the event
//! that ended it), never once per message.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    reason = "the session loop handles every message of its peer; a panic aborts the session thread instead of sending a NOTIFICATION"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "RFC 4271 hold/keepalive timers on a real TCP session need the host clock"
)]

use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use bgpbench_rib::{PeerId, RibError};
use bgpbench_wire::{
    Capability, ErrorCode, Message, NotificationMessage, OpenMessage, StreamDecoder, WireError,
};

use crate::core::{Batch, Core};
use crate::fsm::{FsmAction, FsmEvent, FsmState, NotifyCause, SessionFsm, SessionTimers};

/// One FSM tick is one wall-clock millisecond.
const TICKS_PER_SEC: u64 = 1000;

/// Runs one accepted connection to completion. Returns when the
/// session closes for any reason.
pub(crate) fn run_session(
    stream: TcpStream,
    peer_addr: SocketAddr,
    core: Arc<Mutex<Core>>,
    shutdown: Arc<AtomicBool>,
) {
    // A socket that cannot even be set up simply never starts a session.
    if let Ok(session) = Session::open(stream, peer_addr, &core) {
        session.run(&shutdown);
    }
}

struct Session<'a> {
    stream: TcpStream,
    core: &'a Mutex<Core>,
    fsm: SessionFsm,
    /// The wall-clock time the FSM has been ticked up to.
    clock: Instant,
    /// The session's id in the core and on the trace timeline.
    id: PeerId,
    address: Ipv4Addr,
    local_open: OpenMessage,
    peer_open: Option<OpenMessage>,
    /// What the NOTIFICATION for a `MessageError` must say.
    note: Option<NotificationMessage>,
    /// Everything sent toward the peer — ours and, once the session is
    /// up, the core's — goes through one writer thread, in order.
    tx: Sender<Vec<u8>>,
    writer: JoinHandle<()>,
}

impl<'a> Session<'a> {
    fn open(stream: TcpStream, peer_addr: SocketAddr, core: &'a Mutex<Core>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let (tx, rx) = unbounded();
        let writer_stream = stream.try_clone()?;
        let writer = thread::spawn(move || writer_loop(writer_stream, rx));
        let (id, local_open, timers) = {
            let mut core = core.lock();
            let id = core.allocate_peer();
            let config = core.config();
            let open = OpenMessage::new(config.local_asn, config.hold_time_secs, config.router_id)
                .with_capability(Capability::RouteRefresh);
            // A passive listener never dials out: no connect-retry.
            let timers = SessionTimers::from_secs(
                config.hold_time_secs,
                config.effective_keepalive_secs(),
                0,
                TICKS_PER_SEC,
            );
            (id, open, timers)
        };
        let mut fsm = SessionFsm::new(timers);
        fsm.set_trace_label(u64::from(id.0));
        Ok(Session {
            stream,
            core,
            fsm,
            clock: Instant::now(),
            id,
            address: match peer_addr.ip() {
                IpAddr::V4(ip) => ip,
                IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
            },
            local_open,
            peer_open: None,
            note: None,
            tx,
            writer,
        })
    }

    fn run(mut self, shutdown: &AtomicBool) {
        let mut decoder = StreamDecoder::new();
        let mut inbox: Vec<Message> = Vec::new();
        self.feed(FsmEvent::ManualStart);
        self.feed(FsmEvent::TcpConnected);
        loop {
            if shutdown.load(Ordering::Relaxed) {
                self.feed(FsmEvent::ManualStop);
            } else {
                self.tick();
            }
            if self.fsm.state() == FsmState::Idle {
                break;
            }
            // Everything the last read delivered is decoded before the
            // lock is taken; only with nothing left is the socket read.
            let decoded = drain(&mut decoder, &mut inbox);
            if inbox.is_empty() && decoded.is_ok() {
                if fill(&mut self.stream, &mut decoder).is_err() {
                    self.feed(FsmEvent::TcpFailed);
                }
                continue;
            }
            self.deliver(&mut inbox, decoded);
        }
        // The writer drains what is queued (a NOTIFICATION, the last
        // flush) before the socket closes.
        drop(self.tx);
        let _ = self.writer.join();
    }

    /// Hands the FSM the wall-clock time that passed since it was last
    /// ticked, a millisecond per tick.
    fn tick(&mut self) {
        let elapsed = self.clock.elapsed();
        let ticks = elapsed.as_secs() * TICKS_PER_SEC + u64::from(elapsed.subsec_millis());
        // Whole milliseconds only; the remainder counts next time.
        self.clock += Duration::from_millis(ticks);
        let mut actions = Vec::new();
        for _ in 0..ticks {
            self.fsm.on_tick(&mut actions);
        }
        self.perform(actions);
    }

    fn feed(&mut self, event: FsmEvent) {
        // Most events ask for nothing, and an empty Vec costs nothing.
        let mut actions = Vec::new();
        self.fsm.handle(event, &mut actions);
        self.perform(actions);
    }

    /// Carries out what the FSM asked for, in order.
    fn perform(&mut self, actions: Vec<FsmAction>) {
        for action in actions {
            match action {
                // The transport is the socket we accepted.
                FsmAction::StartConnect => {}
                FsmAction::SendOpen => self.send(&Message::Open(self.local_open.clone())),
                FsmAction::SendKeepalive => self.send(&Message::Keepalive),
                FsmAction::SendNotification(cause) => {
                    let note = match cause {
                        NotifyCause::HoldTimerExpired => {
                            NotificationMessage::new(ErrorCode::HoldTimerExpired, 0)
                        }
                        NotifyCause::FsmError => {
                            NotificationMessage::new(ErrorCode::FiniteStateMachineError, 0)
                        }
                        NotifyCause::Cease => NotificationMessage::new(ErrorCode::Cease, 0),
                        // Whoever raised the error classified it first.
                        NotifyCause::MessageError => self.note.take().unwrap_or_else(|| {
                            NotificationMessage::new(ErrorCode::MessageHeaderError, 0)
                        }),
                    };
                    self.send(&Message::Notification(note));
                }
                // Registering sends the peer the table (Phase 2 of the
                // benchmark methodology) through the same writer.
                FsmAction::SessionUp => {
                    if let Some(open) = &self.peer_open {
                        self.core.lock().register_peer(
                            self.id,
                            open.asn(),
                            open.router_id(),
                            self.address,
                            self.tx.clone(),
                        );
                    }
                }
                FsmAction::SessionDown => self.core.lock().unregister_peer(self.id),
            }
        }
    }

    fn send(&self, message: &Message) {
        if let Ok(bytes) = message.encode() {
            let _ = self.tx.send(bytes);
        }
    }

    /// The one message → event mapping. An OPEN also leaves behind
    /// what the FSM and the core will want from it: the hold time it
    /// proposes and who the peer says it is.
    fn event_for(&mut self, message: Message) -> FsmEvent {
        match message {
            Message::Open(open) => {
                self.fsm
                    .set_peer_hold_ticks(u64::from(open.hold_time_secs()) * TICKS_PER_SEC);
                self.peer_open = Some(open);
                FsmEvent::OpenReceived
            }
            Message::Keepalive => FsmEvent::KeepaliveReceived,
            // A ROUTE-REFRESH is UPDATE traffic to the FSM: fine once
            // Established, an error before.
            Message::Update(_) | Message::RouteRefresh { .. } => FsmEvent::UpdateReceived,
            Message::Notification(_) => FsmEvent::NotificationReceived,
        }
    }

    /// Hands the FSM and the core what one socket read delivered, and
    /// the decode error that ended it, if one did.
    fn deliver(&mut self, inbox: &mut Vec<Message>, decoded: Result<(), WireError>) {
        let mut messages = inbox.drain(..);
        // Until the session is up every message is its own event. (An
        // FSM that fell back to Idle ignores whatever is left.)
        while self.fsm.state() != FsmState::Established {
            let Some(message) = messages.next() else {
                break;
            };
            let event = self.event_for(message);
            self.feed(event);
        }
        // From then on — also for what the read held behind the
        // handshake's last KEEPALIVE — the rest is one batch. Leaving
        // the block drops the batch, which flushes what it staged, also
        // what the UPDATEs ahead of a rejected one staged, before the
        // lock goes and before the FSM can queue a NOTIFICATION.
        if self.fsm.state() == FsmState::Established {
            let ended = {
                let core = self.core;
                let mut core = core.lock();
                let mut batch = core.batch();
                messages.find_map(|message| self.apply(&mut batch, message))
            };
            self.feed(ended.unwrap_or(FsmEvent::UpdateReceived));
        }
        if let Err(err) = decoded {
            self.note = Some(classify_wire_error(&err));
            self.feed(FsmEvent::MessageError);
        }
    }

    /// Applies one message of an established session inside `batch`.
    /// Returns the event that ends the read, if this message does.
    fn apply(&mut self, batch: &mut Batch<'_>, message: Message) -> Option<FsmEvent> {
        match message {
            Message::Update(update) => {
                let err = batch.apply_update(self.id, &update).err()?;
                self.note = Some(classify_update_error(&err));
                Some(FsmEvent::MessageError)
            }
            Message::RouteRefresh { .. } => {
                batch.refresh(self.id);
                None
            }
            // A KEEPALIVE rides along; the read's one refresh covers it.
            other => {
                Some(self.event_for(other)).filter(|event| *event != FsmEvent::KeepaliveReceived)
            }
        }
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

/// One socket read, straight into the decoder's buffer. A read that
/// times out with nothing received is not an error; end of stream is.
fn fill(stream: &mut TcpStream, decoder: &mut StreamDecoder) -> io::Result<()> {
    match decoder.read_from(stream) {
        Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
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

/// Maps a decode failure onto the NOTIFICATION RFC 4271 §6 prescribes
/// for it, in whatever state it arrives: header errors are code 1
/// (§6.1) with the offending field as data, OPEN errors code 2 (§6.2),
/// everything inside an UPDATE code 3 (§6.3).
fn classify_wire_error(err: &WireError) -> NotificationMessage {
    use ErrorCode::{MessageHeaderError, OpenMessageError, UpdateMessageError};
    match err {
        // §6.1 subcodes: 1 connection not synchronized, 2 bad message
        // length, 3 bad message type.
        WireError::InvalidMarker => NotificationMessage::new(MessageHeaderError, 1),
        WireError::BadMessageLength(len) => {
            NotificationMessage::with_data(MessageHeaderError, 2, len.to_be_bytes().to_vec())
        }
        WireError::UnknownMessageType(kind) => {
            NotificationMessage::with_data(MessageHeaderError, 3, vec![*kind])
        }
        // §6.2 subcodes: 1 unsupported version, 2 bad peer AS,
        // 3 bad BGP identifier, 6 unacceptable hold time.
        WireError::UnsupportedVersion(_) => NotificationMessage::new(OpenMessageError, 1),
        WireError::MalformedOpen { field } => {
            let subcode = match *field {
                "zero AS number" => 2,
                "zero BGP identifier" => 3,
                "hold time below three seconds" => 6,
                _ => 0,
            };
            NotificationMessage::new(OpenMessageError, subcode)
        }
        // §6.3 subcodes: 1 malformed attribute list, 4 attribute flags
        // error, 10 invalid network field.
        WireError::InconsistentLength { .. } => NotificationMessage::new(UpdateMessageError, 1),
        WireError::AttributeFlags { .. } => NotificationMessage::new(UpdateMessageError, 4),
        WireError::InvalidPrefixLength(_) => NotificationMessage::new(UpdateMessageError, 10),
        WireError::MalformedAttribute { .. } => NotificationMessage::new(UpdateMessageError, 0),
        WireError::Truncated { .. } | WireError::MessageTooLong(_) => {
            NotificationMessage::new(MessageHeaderError, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_errors_name_the_offending_field() {
        let note = classify_wire_error(&WireError::InvalidMarker);
        assert_eq!(
            (note.error_code(), note.subcode()),
            (ErrorCode::MessageHeaderError, 1)
        );
        let note = classify_wire_error(&WireError::BadMessageLength(5000));
        assert_eq!(
            (note.error_code(), note.subcode()),
            (ErrorCode::MessageHeaderError, 2)
        );
        assert_eq!(note.data(), 5000u16.to_be_bytes());
        let note = classify_wire_error(&WireError::UnknownMessageType(9));
        assert_eq!((note.subcode(), note.data()), (3, &[9u8][..]));
        let note = classify_wire_error(&WireError::InconsistentLength { section: "nlri" });
        assert_eq!(note.error_code(), ErrorCode::UpdateMessageError);
    }
}
