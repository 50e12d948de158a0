//! The UPDATE message (RFC 4271 §4.3).

use crate::message::frame;
use crate::{MessageType, PathAttribute, PathAttributeRef, Prefix, WireError};

/// A decoded UPDATE message: withdrawn routes, path attributes, and the
/// NLRI the attributes apply to.
///
/// The benchmark's two packetization modes map directly onto this type:
/// *small packets* carry one prefix per UPDATE, *large packets* carry
/// 500 prefixes sharing one attribute set.
///
/// ```
/// use bgpbench_wire::{UpdateMessage, Prefix};
/// let update = UpdateMessage::builder()
///     .withdraw("10.0.0.0/8".parse::<Prefix>().unwrap())
///     .build();
/// assert_eq!(update.withdrawn().len(), 1);
/// assert!(update.nlri().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMessage {
    withdrawn: Vec<Prefix>,
    attributes: Vec<PathAttribute>,
    nlri: Vec<Prefix>,
}

impl UpdateMessage {
    /// Starts building an UPDATE.
    pub fn builder() -> UpdateBuilder {
        UpdateBuilder::default()
    }

    /// Routes being withdrawn from service.
    pub fn withdrawn(&self) -> &[Prefix] {
        &self.withdrawn
    }

    /// Path attributes describing the announced routes.
    pub fn attributes(&self) -> &[PathAttribute] {
        &self.attributes
    }

    /// The announced prefixes (network layer reachability information).
    pub fn nlri(&self) -> &[Prefix] {
        &self.nlri
    }

    /// Finds the first attribute matching `predicate`.
    pub fn find_attribute<F>(&self, predicate: F) -> Option<&PathAttribute>
    where
        F: FnMut(&&PathAttribute) -> bool,
    {
        self.attributes.iter().find(predicate)
    }

    /// Total number of prefix-level operations this message carries
    /// (withdrawals plus announcements) — the unit the benchmark's
    /// transactions-per-second metric counts.
    pub fn transaction_count(&self) -> usize {
        self.withdrawn.len() + self.nlri.len()
    }

    /// On-the-wire body size (excludes the 19-octet common header).
    pub fn body_len(&self) -> usize {
        let withdrawn: usize = self.withdrawn.iter().map(Prefix::wire_len).sum();
        let attrs: usize = self.attributes.iter().map(PathAttribute::wire_len).sum();
        let nlri: usize = self.nlri.iter().map(Prefix::wire_len).sum();
        2 + withdrawn + 2 + attrs + nlri
    }

    /// Appends the UPDATE body (everything after the common header).
    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) {
        encode_body_parts(
            &self.withdrawn,
            self.attributes.iter().map(PathAttribute::borrowed),
            &self.nlri,
            out,
        );
    }

    /// Appends a complete UPDATE message, header included, assembled
    /// from borrowed parts — for callers that never build an
    /// [`UpdateMessage`] because the attributes live elsewhere. The
    /// bytes are those [`crate::Message::encode_into`] writes for the
    /// equivalent message.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] if the encoding would
    /// exceed [`crate::MAX_MESSAGE_LEN`]; `out` is then left exactly as
    /// it was.
    pub fn encode_parts_into<'a>(
        withdrawn: &[Prefix],
        attributes: impl IntoIterator<Item = PathAttributeRef<'a>>,
        nlri: &[Prefix],
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        frame(out, MessageType::Update, |out| {
            encode_body_parts(withdrawn, attributes, nlri, out);
            Ok(())
        })
    }

    /// Decodes an UPDATE body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] variants for truncation, inconsistent
    /// section lengths, or malformed attributes (RFC 4271 §6.3).
    pub(crate) fn decode_body(input: &[u8]) -> Result<Self, WireError> {
        if input.len() < 2 {
            return Err(WireError::Truncated {
                context: "withdrawn routes length",
            });
        }
        let withdrawn_len = usize::from(u16::from_be_bytes([input[0], input[1]]));
        if input.len() < 2 + withdrawn_len + 2 {
            return Err(WireError::InconsistentLength {
                section: "withdrawn routes",
            });
        }
        let mut withdrawn = Vec::new();
        let mut cursor = &input[2..2 + withdrawn_len];
        while !cursor.is_empty() {
            let (prefix, consumed) = Prefix::decode_from(cursor)?;
            withdrawn.push(prefix);
            cursor = &cursor[consumed..];
        }

        let attrs_offset = 2 + withdrawn_len;
        let attrs_len = usize::from(u16::from_be_bytes([
            input[attrs_offset],
            input[attrs_offset + 1],
        ]));
        let attrs_end = attrs_offset + 2 + attrs_len;
        if input.len() < attrs_end {
            return Err(WireError::InconsistentLength {
                section: "path attributes",
            });
        }
        let mut attributes = Vec::new();
        let mut cursor = &input[attrs_offset + 2..attrs_end];
        while !cursor.is_empty() {
            let (attr, consumed) = PathAttribute::decode_from(cursor)?;
            attributes.push(attr);
            cursor = &cursor[consumed..];
        }

        let mut nlri = Vec::new();
        let mut cursor = &input[attrs_end..];
        while !cursor.is_empty() {
            let (prefix, consumed) = Prefix::decode_from(cursor)?;
            nlri.push(prefix);
            cursor = &cursor[consumed..];
        }

        if !nlri.is_empty() && attributes.is_empty() {
            return Err(WireError::MalformedAttribute {
                type_code: 0,
                reason: "announcement without path attributes",
            });
        }

        Ok(UpdateMessage {
            withdrawn,
            attributes,
            nlri,
        })
    }
}

/// Appends an UPDATE body. The two section lengths are patched in after
/// their sections are written, so the attributes are walked once.
fn encode_body_parts<'a>(
    withdrawn: &[Prefix],
    attributes: impl IntoIterator<Item = PathAttributeRef<'a>>,
    nlri: &[Prefix],
    out: &mut Vec<u8>,
) {
    let withdrawn_at = out.len();
    out.extend_from_slice(&[0, 0]);
    for prefix in withdrawn {
        prefix.encode_to(out);
    }
    patch_section_len(out, withdrawn_at);
    let attrs_at = out.len();
    out.extend_from_slice(&[0, 0]);
    for attr in attributes {
        attr.encode_to(out);
    }
    patch_section_len(out, attrs_at);
    for prefix in nlri {
        prefix.encode_to(out);
    }
}

/// Fills in the two-octet length field at `at` with the size of the
/// section written after it. A section too long for the field also
/// makes the message longer than any BGP message may be, which `frame`
/// rejects.
fn patch_section_len(out: &mut [u8], at: usize) {
    let len = out.len() - at - 2;
    out[at..at + 2].copy_from_slice(&(len as u16).to_be_bytes());
}

/// Incrementally assembles an [`UpdateMessage`].
///
/// ```
/// use bgpbench_wire::{UpdateMessage, PathAttribute, Origin, Prefix};
/// let update = UpdateMessage::builder()
///     .attribute(PathAttribute::Origin(Origin::Igp))
///     .announce("10.0.0.0/8".parse::<Prefix>().unwrap())
///     .build();
/// assert_eq!(update.nlri().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UpdateBuilder {
    update: UpdateMessage,
}

impl UpdateBuilder {
    /// Adds a withdrawn route.
    pub fn withdraw(mut self, prefix: Prefix) -> Self {
        self.update.withdrawn.push(prefix);
        self
    }

    /// Adds several withdrawn routes.
    pub fn withdraw_all<I: IntoIterator<Item = Prefix>>(mut self, prefixes: I) -> Self {
        self.update.withdrawn.extend(prefixes);
        self
    }

    /// Adds a path attribute.
    pub fn attribute(mut self, attr: PathAttribute) -> Self {
        self.update.attributes.push(attr);
        self
    }

    /// Adds an announced prefix.
    pub fn announce(mut self, prefix: Prefix) -> Self {
        self.update.nlri.push(prefix);
        self
    }

    /// Adds several announced prefixes.
    pub fn announce_all<I: IntoIterator<Item = Prefix>>(mut self, prefixes: I) -> Self {
        self.update.nlri.extend(prefixes);
        self
    }

    /// Finishes building.
    pub fn build(self) -> UpdateMessage {
        self.update
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsPath, Asn, Origin};
    use std::net::Ipv4Addr;

    fn sample_attrs() -> Vec<PathAttribute> {
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence([Asn(65001), Asn(65002)])),
            PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
        ]
    }

    fn roundtrip(update: UpdateMessage) {
        let mut buf = Vec::new();
        update.encode_body(&mut buf);
        assert_eq!(buf.len(), update.body_len());
        let decoded = UpdateMessage::decode_body(&buf).unwrap();
        assert_eq!(decoded, update);
    }

    #[test]
    fn roundtrip_empty_update() {
        // An empty UPDATE is the end-of-rib marker in practice.
        roundtrip(UpdateMessage::default());
    }

    #[test]
    fn roundtrip_announcement() {
        let update = UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence([Asn(1)])))
            .attribute(PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 1)))
            .announce("10.0.0.0/8".parse().unwrap())
            .announce("192.168.0.0/16".parse().unwrap())
            .build();
        roundtrip(update);
    }

    #[test]
    fn roundtrip_withdrawal() {
        let update = UpdateMessage::builder()
            .withdraw("10.0.0.0/8".parse().unwrap())
            .withdraw("0.0.0.0/0".parse().unwrap())
            .build();
        roundtrip(update);
    }

    #[test]
    fn roundtrip_mixed_large() {
        let prefixes: Vec<Prefix> = (0u32..500)
            .map(|i| Prefix::new_masked(Ipv4Addr::from(0x0A00_0000 | (i << 8)), 24).unwrap())
            .collect();
        let mut builder = UpdateMessage::builder();
        for attr in sample_attrs() {
            builder = builder.attribute(attr);
        }
        let update = builder.announce_all(prefixes).build();
        assert_eq!(update.transaction_count(), 500);
        roundtrip(update);
    }

    #[test]
    fn announcement_without_attributes_is_rejected() {
        let update = UpdateMessage::builder()
            .announce("10.0.0.0/8".parse().unwrap())
            .build();
        let mut buf = Vec::new();
        update.encode_body(&mut buf);
        assert!(UpdateMessage::decode_body(&buf).is_err());
    }

    #[test]
    fn inconsistent_withdrawn_length() {
        // Claims 10 octets of withdrawn routes but provides none.
        let buf = [0u8, 10, 0, 0];
        assert!(matches!(
            UpdateMessage::decode_body(&buf),
            Err(WireError::InconsistentLength { .. })
        ));
    }

    #[test]
    fn inconsistent_attribute_length() {
        // No withdrawals, claims 50 octets of attributes, provides none.
        let buf = [0u8, 0, 0, 50];
        assert!(matches!(
            UpdateMessage::decode_body(&buf),
            Err(WireError::InconsistentLength { .. })
        ));
    }

    #[test]
    fn transaction_count_sums_both_directions() {
        let update = UpdateMessage::builder()
            .withdraw("10.0.0.0/8".parse().unwrap())
            .attribute(PathAttribute::Origin(Origin::Igp))
            .announce("11.0.0.0/8".parse().unwrap())
            .announce("12.0.0.0/8".parse().unwrap())
            .build();
        assert_eq!(update.transaction_count(), 3);
    }
}
