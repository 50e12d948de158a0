//! Incremental message framing for TCP byte streams.

use std::io::{self, Read};

use crate::{Message, WireError};

/// How much room [`StreamDecoder::read_from`] offers the reader: the
/// size of one socket read.
const READ_CHUNK: usize = 16 * 1024;

/// Reassembles complete BGP messages from an arbitrarily-chunked byte
/// stream, as delivered by TCP.
///
/// Feed received bytes with [`StreamDecoder::read_from`] (straight from
/// a socket) or [`StreamDecoder::extend`] (from a slice) and drain
/// complete messages with [`StreamDecoder::next_message`]. The decoder
/// is error-latching: once the stream violates the protocol, every
/// subsequent call returns the same error, because a BGP session cannot
/// resynchronize after a framing error (RFC 4271 §6.1 tears the session
/// down).
///
/// ```
/// use bgpbench_wire::{Message, StreamDecoder};
/// let mut decoder = StreamDecoder::new();
/// let bytes = Message::Keepalive.encode()?;
/// decoder.extend(&bytes[..7]);
/// assert_eq!(decoder.next_message()?, None); // incomplete
/// decoder.extend(&bytes[7..]);
/// assert_eq!(decoder.next_message()?, Some(Message::Keepalive));
/// # Ok::<(), bgpbench_wire::WireError>(())
/// ```
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// `buf[start..end]` holds the received, not-yet-consumed octets.
    /// What lies past `end` is spare room, kept initialised so a read
    /// can land in it without being zeroed first.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    poisoned: Option<WireError>,
}

impl StreamDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends received bytes to the reassembly buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Performs one `read` straight into the reassembly buffer's spare
    /// room (up to 16 KiB of it) and returns the reader's count; zero
    /// means end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the reader returns, `WouldBlock` and `TimedOut`
    /// included; nothing is buffered then.
    pub fn read_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        let n = reader.read(&mut self.spare(READ_CHUNK)[..READ_CHUNK])?;
        self.end += n;
        Ok(n)
    }

    /// At least `want` octets of spare room after the buffered ones.
    /// Consumed space is reclaimed first — a partial message slides to
    /// the front — so the buffer stays about one read long however
    /// reads and message boundaries fall.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < want {
                self.buf.resize(self.end + want, 0);
            }
        }
        &mut self.buf[self.end..]
    }

    /// Number of buffered, not-yet-consumed octets.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Attempts to decode the next complete message.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns the first [`WireError`] the stream produced; the same
    /// error is returned on every subsequent call.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let buffered = &self.buf[self.start..self.end];
        let total_len = match Message::peek_length(buffered) {
            Ok(len) => len,
            Err(WireError::Truncated { .. }) => return Ok(None),
            Err(err) => return Err(self.poison(err)),
        };
        if buffered.len() < total_len {
            return Ok(None);
        }
        match Message::decode(&buffered[..total_len]) {
            Ok((message, consumed)) => {
                self.start += consumed;
                Ok(Some(message))
            }
            Err(err) => Err(self.poison(err)),
        }
    }

    /// Drains every complete message currently buffered.
    ///
    /// # Errors
    ///
    /// As for [`StreamDecoder::next_message`]; messages decoded before
    /// the error are lost with this convenience method — use
    /// `next_message` in a loop to keep them.
    pub fn drain(&mut self) -> Result<Vec<Message>, WireError> {
        let mut messages = Vec::new();
        while let Some(message) = self.next_message()? {
            messages.push(message);
        }
        Ok(messages)
    }

    fn poison(&mut self, err: WireError) -> WireError {
        self.poisoned = Some(err.clone());
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Asn, OpenMessage, RouterId};

    #[test]
    fn single_byte_feed() {
        let bytes = Message::Open(OpenMessage::new(Asn(1), 90, RouterId(1)))
            .encode()
            .unwrap();
        let mut decoder = StreamDecoder::new();
        for (i, byte) in bytes.iter().enumerate() {
            decoder.extend(std::slice::from_ref(byte));
            let result = decoder.next_message().unwrap();
            if i + 1 < bytes.len() {
                assert!(result.is_none(), "message completed early at byte {i}");
            } else {
                assert!(result.is_some());
            }
        }
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn multiple_messages_in_one_chunk() {
        let mut stream = Vec::new();
        stream.extend(Message::Keepalive.encode().unwrap());
        stream.extend(
            Message::Open(OpenMessage::new(Asn(2), 30, RouterId(9)))
                .encode()
                .unwrap(),
        );
        stream.extend(Message::Keepalive.encode().unwrap());
        let mut decoder = StreamDecoder::new();
        decoder.extend(&stream);
        let messages = decoder.drain().unwrap();
        assert_eq!(messages.len(), 3);
        assert_eq!(messages[0], Message::Keepalive);
        assert_eq!(messages[2], Message::Keepalive);
    }

    #[test]
    fn error_latches() {
        let mut decoder = StreamDecoder::new();
        decoder.extend(&[0u8; 19]); // invalid marker
        assert_eq!(decoder.next_message(), Err(WireError::InvalidMarker));
        // Even after valid bytes arrive, the decoder stays poisoned.
        decoder.extend(&Message::Keepalive.encode().unwrap());
        assert_eq!(decoder.next_message(), Err(WireError::InvalidMarker));
    }

    #[test]
    fn message_split_across_many_chunks_interleaved_with_reads() {
        let bytes = Message::Keepalive.encode().unwrap();
        let mut decoder = StreamDecoder::new();
        decoder.extend(&bytes[..5]);
        assert_eq!(decoder.next_message().unwrap(), None);
        decoder.extend(&bytes[5..17]);
        assert_eq!(decoder.next_message().unwrap(), None);
        decoder.extend(&bytes[17..]);
        assert_eq!(decoder.next_message().unwrap(), Some(Message::Keepalive));
    }
}
