//! The BGP common header and top-level message type (RFC 4271 §4.1).

use std::fmt;

use crate::{NotificationMessage, OpenMessage, UpdateMessage, WireError};

/// Length of the fixed common header: 16-octet marker, 2-octet length,
/// 1-octet type.
pub const HEADER_LEN: usize = 19;

/// Maximum BGP message size (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// The message type octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Session establishment (type 1).
    Open,
    /// Routing information exchange (type 2).
    Update,
    /// Error report and session teardown (type 3).
    Notification,
    /// Liveness probe (type 4).
    Keepalive,
    /// Re-advertisement request (type 5, RFC 2918).
    RouteRefresh,
}

impl MessageType {
    /// The wire octet.
    pub fn to_wire(self) -> u8 {
        match self {
            MessageType::Open => 1,
            MessageType::Update => 2,
            MessageType::Notification => 3,
            MessageType::Keepalive => 4,
            MessageType::RouteRefresh => 5,
        }
    }

    /// Decodes a wire octet.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownMessageType`] for anything outside 1–5.
    pub fn from_wire(value: u8) -> Result<Self, WireError> {
        match value {
            1 => Ok(MessageType::Open),
            2 => Ok(MessageType::Update),
            3 => Ok(MessageType::Notification),
            4 => Ok(MessageType::Keepalive),
            5 => Ok(MessageType::RouteRefresh),
            other => Err(WireError::UnknownMessageType(other)),
        }
    }
}

impl fmt::Display for MessageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            MessageType::Open => "OPEN",
            MessageType::Update => "UPDATE",
            MessageType::Notification => "NOTIFICATION",
            MessageType::Keepalive => "KEEPALIVE",
            MessageType::RouteRefresh => "ROUTE-REFRESH",
        };
        f.write_str(text)
    }
}

/// A complete BGP message.
///
/// ```
/// use bgpbench_wire::Message;
/// let bytes = Message::Keepalive.encode()?;
/// assert_eq!(bytes.len(), 19);
/// let (decoded, consumed) = Message::decode(&bytes)?;
/// assert_eq!(decoded, Message::Keepalive);
/// assert_eq!(consumed, 19);
/// # Ok::<(), bgpbench_wire::WireError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// An OPEN message.
    Open(OpenMessage),
    /// An UPDATE message.
    Update(UpdateMessage),
    /// A NOTIFICATION message.
    Notification(NotificationMessage),
    /// A KEEPALIVE message (no body).
    Keepalive,
    /// A ROUTE-REFRESH message (RFC 2918): asks the peer to re-send
    /// its Adj-RIB-Out for the address family.
    RouteRefresh {
        /// Address family identifier (1 = IPv4).
        afi: u16,
        /// Subsequent address family identifier (1 = unicast).
        safi: u8,
    },
}

impl Message {
    /// This message's type octet.
    pub fn message_type(&self) -> MessageType {
        match self {
            Message::Open(_) => MessageType::Open,
            Message::Update(_) => MessageType::Update,
            Message::Notification(_) => MessageType::Notification,
            Message::Keepalive => MessageType::Keepalive,
            Message::RouteRefresh { .. } => MessageType::RouteRefresh,
        }
    }

    /// Encodes the message, header included.
    ///
    /// # Errors
    ///
    /// As for [`Message::encode_into`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Appends the encoded message, header included, to `out` — the
    /// way to put several messages into one buffer (and one `write`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] if the encoding would
    /// exceed [`MAX_MESSAGE_LEN`], and [`WireError::MalformedOpen`]
    /// for OPEN capabilities that overflow the u8 length fields. On
    /// error `out` is left exactly as it was.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        frame(out, self.message_type(), |out| {
            match self {
                Message::Open(open) => open.encode_body(out)?,
                Message::Update(update) => update.encode_body(out),
                Message::Notification(note) => note.encode_body(out),
                Message::Keepalive => {}
                Message::RouteRefresh { afi, safi } => {
                    out.extend_from_slice(&afi.to_be_bytes());
                    out.push(0); // reserved
                    out.push(*safi);
                }
            }
            Ok(())
        })
    }

    /// Decodes one message from the front of `input`, returning the
    /// message and the number of octets consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if `input` holds less than a
    /// full message, and other [`WireError`] variants for protocol
    /// violations (RFC 4271 §6.1).
    pub fn decode(input: &[u8]) -> Result<(Self, usize), WireError> {
        let total_len = Self::peek_length(input)?;
        if input.len() < total_len {
            return Err(WireError::Truncated {
                context: "message body",
            });
        }
        let msg_type = MessageType::from_wire(input[18])?;
        let body = &input[HEADER_LEN..total_len];
        Self::check_type_length(msg_type, total_len)?;
        let message = match msg_type {
            MessageType::Open => Message::Open(OpenMessage::decode_body(body)?),
            MessageType::Update => Message::Update(UpdateMessage::decode_body(body)?),
            MessageType::Notification => {
                Message::Notification(NotificationMessage::decode_body(body)?)
            }
            MessageType::Keepalive => Message::Keepalive,
            MessageType::RouteRefresh => {
                let octets: [u8; 4] = body
                    .try_into()
                    .map_err(|_| WireError::BadMessageLength(total_len as u16))?;
                Message::RouteRefresh {
                    afi: u16::from_be_bytes([octets[0], octets[1]]),
                    safi: octets[3],
                }
            }
        };
        Ok((message, total_len))
    }

    /// Validates the header at the front of `input` and returns the
    /// total message length, without decoding the body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than [`HEADER_LEN`]
    /// octets are available, [`WireError::InvalidMarker`] for a bad
    /// marker, and [`WireError::BadMessageLength`] for lengths outside
    /// `[19, 4096]`.
    pub fn peek_length(input: &[u8]) -> Result<usize, WireError> {
        if input.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                context: "message header",
            });
        }
        if input[..16] != [0xFF; 16] {
            return Err(WireError::InvalidMarker);
        }
        let len = u16::from_be_bytes([input[16], input[17]]);
        if usize::from(len) < HEADER_LEN || usize::from(len) > MAX_MESSAGE_LEN {
            return Err(WireError::BadMessageLength(len));
        }
        Ok(usize::from(len))
    }

    fn check_type_length(msg_type: MessageType, total_len: usize) -> Result<(), WireError> {
        let min = match msg_type {
            MessageType::Open => HEADER_LEN + 10,
            MessageType::Update => HEADER_LEN + 4,
            MessageType::Notification => HEADER_LEN + 2,
            MessageType::Keepalive => HEADER_LEN,
            MessageType::RouteRefresh => HEADER_LEN + 4,
        };
        if total_len < min || (msg_type == MessageType::Keepalive && total_len != HEADER_LEN) {
            return Err(WireError::BadMessageLength(total_len as u16));
        }
        Ok(())
    }
}

/// Appends one framed message to `out`: the common header, whatever
/// `body` writes, then the length patched into the header. On error
/// `out` is truncated back to where it started.
pub(crate) fn frame(
    out: &mut Vec<u8>,
    msg_type: MessageType,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    out.extend_from_slice(&[0xFF; 16]);
    out.extend_from_slice(&[0, 0]); // length placeholder
    out.push(msg_type.to_wire());
    let result = body(out).and_then(|()| {
        let len = out.len() - start;
        if len > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(len));
        }
        out[start + 16..start + 18].copy_from_slice(&(len as u16).to_be_bytes());
        Ok(())
    });
    if result.is_err() {
        out.truncate(start);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asn, ErrorCode, RouterId};

    #[test]
    fn keepalive_is_exactly_nineteen_octets() {
        let bytes = Message::Keepalive.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[..16], &[0xFF; 16]);
        assert_eq!(bytes[18], 4);
    }

    #[test]
    fn open_roundtrip_through_full_message() {
        let open = OpenMessage::new(Asn(64512), 180, RouterId(0x01020304));
        let bytes = Message::Open(open.clone()).encode().unwrap();
        let (decoded, consumed) = Message::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, Message::Open(open));
    }

    #[test]
    fn notification_roundtrip() {
        let note = NotificationMessage::new(ErrorCode::Cease, 2);
        let bytes = Message::Notification(note.clone()).encode().unwrap();
        let (decoded, _) = Message::decode(&bytes).unwrap();
        assert_eq!(decoded, Message::Notification(note));
    }

    #[test]
    fn bad_marker_is_rejected() {
        let mut bytes = Message::Keepalive.encode().unwrap();
        bytes[5] = 0;
        assert_eq!(Message::decode(&bytes), Err(WireError::InvalidMarker));
    }

    #[test]
    fn length_out_of_range_is_rejected() {
        let mut bytes = Message::Keepalive.encode().unwrap();
        bytes[16..18].copy_from_slice(&10u16.to_be_bytes());
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::BadMessageLength(10))
        );
        let mut bytes = Message::Keepalive.encode().unwrap();
        bytes[16..18].copy_from_slice(&5000u16.to_be_bytes());
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::BadMessageLength(5000))
        );
    }

    #[test]
    fn keepalive_with_body_is_rejected() {
        let mut bytes = Message::Keepalive.encode().unwrap();
        bytes[16..18].copy_from_slice(&20u16.to_be_bytes());
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadMessageLength(20))
        ));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut bytes = Message::Keepalive.encode().unwrap();
        bytes[18] = 9;
        assert_eq!(
            Message::decode(&bytes),
            Err(WireError::UnknownMessageType(9))
        );
    }

    #[test]
    fn truncated_header_and_body() {
        assert!(matches!(
            Message::decode(&[0xFF; 10]),
            Err(WireError::Truncated { .. })
        ));
        let bytes = Message::Keepalive.encode().unwrap();
        assert!(matches!(
            Message::decode(&bytes[..18]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_consumes_only_one_message() {
        let mut stream = Message::Keepalive.encode().unwrap();
        stream.extend(Message::Keepalive.encode().unwrap());
        let (first, consumed) = Message::decode(&stream).unwrap();
        assert_eq!(first, Message::Keepalive);
        assert_eq!(consumed, HEADER_LEN);
        let (second, _) = Message::decode(&stream[consumed..]).unwrap();
        assert_eq!(second, Message::Keepalive);
    }

    #[test]
    fn route_refresh_roundtrip() {
        let refresh = Message::RouteRefresh { afi: 1, safi: 1 };
        let bytes = refresh.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert_eq!(bytes[18], 5);
        let (decoded, consumed) = Message::decode(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, refresh);
    }

    #[test]
    fn route_refresh_with_wrong_body_length_is_rejected() {
        let mut bytes = Message::RouteRefresh { afi: 1, safi: 1 }.encode().unwrap();
        bytes.pop();
        let len = (bytes.len()) as u16;
        bytes[16..18].copy_from_slice(&len.to_be_bytes());
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_update_encoding_fails() {
        use crate::{PathAttribute, Prefix};
        use std::net::Ipv4Addr;
        // 2000 /32 prefixes at 5 octets each exceeds 4096.
        let prefixes: Vec<Prefix> = (0u32..2000)
            .map(|i| Prefix::new_masked(Ipv4Addr::from(i << 8), 32).unwrap())
            .collect();
        let update = UpdateMessage::builder()
            .attribute(PathAttribute::Origin(crate::Origin::Igp))
            .announce_all(prefixes)
            .build();
        assert!(matches!(
            Message::Update(update).encode(),
            Err(WireError::MessageTooLong(_))
        ));
    }
}
