//! A real BGP speaker over TCP, for benchmarking live daemons.

#![expect(
    clippy::disallowed_methods,
    reason = "live blackbox measurement harness: latency is measured at the TCP boundary"
)]

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use bgpbench_wire::{
    Asn, Message, OpenMessage, PathAttribute, RouterId, StreamDecoder, UpdateMessage, WireError,
};

/// Session parameters for a [`LiveSpeaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveSpeakerConfig {
    /// Our AS number.
    pub local_asn: Asn,
    /// Our BGP identifier.
    pub router_id: RouterId,
    /// Hold time to propose (zero disables keepalives).
    pub hold_time_secs: u16,
}

impl Default for LiveSpeakerConfig {
    fn default() -> Self {
        LiveSpeakerConfig {
            local_asn: Asn(65001),
            router_id: RouterId(0x0A00_0001),
            hold_time_secs: 90,
        }
    }
}

/// What a listening speaker observed during a collection window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// UPDATE messages received.
    pub updates: usize,
    /// Prefixes announced across those updates.
    pub announced: usize,
    /// Prefixes withdrawn across those updates.
    pub withdrawn: usize,
}

/// A live BGP speaker: connects over TCP, completes the OPEN handshake,
/// and then floods or collects UPDATE messages.
///
/// This is the benchmark's Speaker 1 / Speaker 2 when the router under
/// test is a real daemon rather than a simulated platform. Message
/// framing and encoding go through [`bgpbench_wire`], so the same bytes
/// a hardware router would see cross the socket.
#[derive(Debug)]
pub struct LiveSpeaker {
    stream: TcpStream,
    decoder: StreamDecoder,
    peer_open: OpenMessage,
}

impl LiveSpeaker {
    /// Connects to a BGP listener and completes the session handshake:
    /// OPEN exchanged both ways and the peer's first KEEPALIVE
    /// received (session Established).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; protocol violations surface as
    /// [`io::ErrorKind::InvalidData`], and a handshake exceeding
    /// `timeout` as [`io::ErrorKind::TimedOut`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: &LiveSpeakerConfig,
        timeout: Duration,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let mut speaker = LiveSpeaker {
            stream,
            decoder: StreamDecoder::new(),
            peer_open: OpenMessage::new(Asn(0), 0, RouterId(0)), // replaced below
        };

        let open = OpenMessage::new(config.local_asn, config.hold_time_secs, config.router_id)
            .with_capability(bgpbench_wire::Capability::RouteRefresh);
        speaker.send(&Message::Open(open))?;

        let deadline = Instant::now() + timeout;
        let mut got_open = false;
        let mut got_keepalive = false;
        while !(got_open && got_keepalive) {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "BGP handshake timed out",
                ));
            }
            match speaker.recv()? {
                Some(Message::Open(peer_open)) => {
                    speaker.peer_open = peer_open;
                    got_open = true;
                    speaker.send(&Message::Keepalive)?;
                }
                Some(Message::Keepalive) => got_keepalive = true,
                Some(Message::Notification(note)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("peer sent notification during handshake: {note}"),
                    ));
                }
                Some(Message::Update(_) | Message::RouteRefresh { .. }) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "update received before session establishment",
                    ));
                }
                None => {}
            }
        }
        Ok(speaker)
    }

    /// The OPEN message the peer sent during the handshake.
    pub fn peer_open(&self) -> &OpenMessage {
        &self.peer_open
    }

    /// Raw access to the underlying socket, for failure-injection
    /// tests that need to write non-BGP bytes mid-session.
    pub fn raw_stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sends one UPDATE.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and encoding failures.
    pub fn send_update(&mut self, update: &UpdateMessage) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(64);
        UpdateMessage::encode_parts_into(
            update.withdrawn(),
            update.attributes().iter().map(PathAttribute::borrowed),
            update.nlri(),
            &mut bytes,
        )
        .map_err(wire_to_io)?;
        self.stream.write_all(&bytes)
    }

    /// Sends every UPDATE in `updates`, answering any keepalives that
    /// arrive while sending. Returns the number of prefix-level
    /// transactions sent.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and encoding failures.
    pub fn flood(&mut self, updates: &[UpdateMessage]) -> io::Result<usize> {
        let mut transactions = 0;
        for update in updates {
            self.send_update(update)?;
            transactions += update.transaction_count();
        }
        Ok(transactions)
    }

    /// Sends a KEEPALIVE.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_keepalive(&mut self) -> io::Result<()> {
        self.send(&Message::Keepalive)
    }

    /// Sends an IPv4-unicast ROUTE-REFRESH request (RFC 2918), asking
    /// the peer to re-advertise its full Adj-RIB-Out.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn request_refresh(&mut self) -> io::Result<()> {
        self.send(&Message::RouteRefresh { afi: 1, safi: 1 })
    }

    /// Receives the next message, or `None` if nothing arrived within
    /// the socket's read timeout.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; wire violations surface as
    /// [`io::ErrorKind::InvalidData`]; a cleanly closed connection as
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some(message) = self.decoder.next_message().map_err(wire_to_io)? {
                return Ok(Some(message));
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the session",
                    ))
                }
                Ok(_) => {}
                Err(err)
                    if err.kind() == io::ErrorKind::WouldBlock
                        || err.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Collects UPDATEs until `quiet` elapses with no traffic (or
    /// `max` overall), answering keepalives. This is how Speaker 2
    /// receives the router's full table in Phase 2.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn collect_routes(&mut self, quiet: Duration, max: Duration) -> io::Result<SessionSummary> {
        let start = Instant::now();
        let mut last_traffic = Instant::now();
        let mut summary = SessionSummary::default();
        while last_traffic.elapsed() < quiet && start.elapsed() < max {
            match self.recv()? {
                Some(Message::Update(update)) => {
                    summary.updates += 1;
                    summary.announced += update.nlri().len();
                    summary.withdrawn += update.withdrawn().len();
                    last_traffic = Instant::now();
                }
                Some(Message::Keepalive) => {
                    self.send_keepalive()?;
                    // Keepalives do not count as table traffic.
                }
                Some(Message::Notification(note)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("peer sent notification: {note}"),
                    ));
                }
                Some(Message::Open(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected OPEN on established session",
                    ));
                }
                Some(Message::RouteRefresh { .. }) => {
                    // This speaker keeps no Adj-RIB-Out; a refresh
                    // request from the peer is acknowledged by silence.
                }
                None => {}
            }
        }
        Ok(summary)
    }

    /// Collects UPDATEs until at least `min_announced` prefixes have
    /// been announced *and* `min_withdrawn` withdrawn (or `max`
    /// elapses), answering keepalives. Unlike
    /// [`LiveSpeaker::collect_routes`] this is robust to arbitrary
    /// gaps in the stream, at the price of needing the expected counts.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; returns [`io::ErrorKind::TimedOut`]
    /// if the counts are not reached within `max`.
    pub fn collect_routes_until(
        &mut self,
        min_announced: usize,
        min_withdrawn: usize,
        max: Duration,
    ) -> io::Result<SessionSummary> {
        let start = Instant::now();
        let mut summary = SessionSummary::default();
        while summary.announced < min_announced || summary.withdrawn < min_withdrawn {
            if start.elapsed() > max {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "received {}/{min_announced} announcements and \
                         {}/{min_withdrawn} withdrawals before timeout",
                        summary.announced, summary.withdrawn
                    ),
                ));
            }
            match self.recv()? {
                Some(Message::Update(update)) => {
                    summary.updates += 1;
                    summary.announced += update.nlri().len();
                    summary.withdrawn += update.withdrawn().len();
                }
                Some(Message::Keepalive) => self.send_keepalive()?,
                Some(Message::Notification(note)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("peer sent notification: {note}"),
                    ));
                }
                Some(Message::Open(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected OPEN on established session",
                    ));
                }
                Some(Message::RouteRefresh { .. }) => {
                    // This speaker keeps no Adj-RIB-Out; a refresh
                    // request from the peer is acknowledged by silence.
                }
                None => {}
            }
        }
        Ok(summary)
    }

    fn send(&mut self, message: &Message) -> io::Result<()> {
        let bytes = message.encode().map_err(wire_to_io)?;
        self.stream.write_all(&bytes)
    }
}

fn wire_to_io(err: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::Origin;
    use std::io::Read;
    use std::net::{Ipv4Addr, TcpListener};
    use std::thread;

    /// A minimal hand-rolled BGP responder for exercising the speaker.
    fn spawn_responder(
        respond_updates: usize,
    ) -> (std::net::SocketAddr, thread::JoinHandle<SessionSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(20)))
                .unwrap();
            let mut decoder = StreamDecoder::new();
            let mut summary = SessionSummary::default();
            // Handshake: send OPEN + KEEPALIVE immediately.
            let open = OpenMessage::new(Asn(65000), 90, RouterId(0x0A00_0064));
            stream
                .write_all(&Message::Open(open).encode().unwrap())
                .unwrap();
            stream
                .write_all(&Message::Keepalive.encode().unwrap())
                .unwrap();
            // Send the requested number of updates.
            for i in 0..respond_updates {
                let update = UpdateMessage::builder()
                    .attribute(PathAttribute::Origin(Origin::Igp))
                    .attribute(PathAttribute::AsPath(bgpbench_wire::AsPath::from_sequence(
                        [Asn(65000)],
                    )))
                    .attribute(PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 100)))
                    .announce(
                        bgpbench_wire::Prefix::new_masked(
                            Ipv4Addr::from(0x0100_0000u32 + ((i as u32) << 8)),
                            24,
                        )
                        .unwrap(),
                    )
                    .build();
                stream
                    .write_all(&Message::Update(update).encode().unwrap())
                    .unwrap();
            }
            // Read whatever the speaker sends for a short while.
            let deadline = Instant::now() + Duration::from_millis(800);
            while Instant::now() < deadline {
                let mut buf = [0u8; 4096];
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        decoder.extend(&buf[..n]);
                        while let Ok(Some(message)) = decoder.next_message() {
                            if let Message::Update(update) = message {
                                summary.updates += 1;
                                summary.announced += update.nlri().len();
                                summary.withdrawn += update.withdrawn().len();
                            }
                        }
                    }
                    Err(_) => {}
                }
            }
            summary
        });
        (addr, handle)
    }

    #[test]
    fn handshake_establishes_and_reports_peer_open() {
        let (addr, handle) = spawn_responder(0);
        let speaker =
            LiveSpeaker::connect(addr, &LiveSpeakerConfig::default(), Duration::from_secs(5))
                .unwrap();
        assert_eq!(speaker.peer_open().asn(), Asn(65000));
        drop(speaker);
        handle.join().unwrap();
    }

    #[test]
    fn collect_routes_counts_received_prefixes() {
        let (addr, handle) = spawn_responder(25);
        let mut speaker =
            LiveSpeaker::connect(addr, &LiveSpeakerConfig::default(), Duration::from_secs(5))
                .unwrap();
        let summary = speaker
            .collect_routes(Duration::from_millis(300), Duration::from_secs(5))
            .unwrap();
        assert_eq!(summary.updates, 25);
        assert_eq!(summary.announced, 25);
        assert_eq!(summary.withdrawn, 0);
        drop(speaker);
        handle.join().unwrap();
    }

    #[test]
    fn flood_delivers_all_updates() {
        let (addr, handle) = spawn_responder(0);
        let mut speaker =
            LiveSpeaker::connect(addr, &LiveSpeakerConfig::default(), Duration::from_secs(5))
                .unwrap();
        let updates: Vec<UpdateMessage> = (0..10u32)
            .map(|i| {
                UpdateMessage::builder()
                    .withdraw(
                        bgpbench_wire::Prefix::new_masked(Ipv4Addr::from(i << 24), 8).unwrap(),
                    )
                    .build()
            })
            .collect();
        let sent = speaker.flood(&updates).unwrap();
        assert_eq!(sent, 10);
        drop(speaker);
        let seen = handle.join().unwrap();
        assert_eq!(seen.updates, 10);
        assert_eq!(seen.withdrawn, 10);
    }

    #[test]
    fn connect_to_closed_port_fails() {
        // Bind and drop to get a (very likely) unused port.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let result = LiveSpeaker::connect(
            addr,
            &LiveSpeakerConfig::default(),
            Duration::from_millis(500),
        );
        assert!(result.is_err());
    }
}
