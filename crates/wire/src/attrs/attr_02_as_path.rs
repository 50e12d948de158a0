//! AS_PATH (type 2, well-known mandatory; RFC 4271 §5.1.2).

use std::fmt;

use crate::{Asn, WireError};

use super::TYPE_AS_PATH;

/// One segment of an AS_PATH (RFC 4271 §5.1.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered sequence of ASes the route has traversed.
    Sequence(Vec<Asn>),
    /// An unordered set (produced by aggregation).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// Number of ASes this segment contributes to path length
    /// comparison: a sequence counts each AS, a set counts as one
    /// (RFC 4271 §9.1.2.2 note).
    pub fn path_length(&self) -> usize {
        match self {
            AsPathSegment::Sequence(asns) => asns.len(),
            AsPathSegment::Set(_) => 1,
        }
    }

    fn segment_type(&self) -> u8 {
        match self {
            AsPathSegment::Set(_) => 1,
            AsPathSegment::Sequence(_) => 2,
        }
    }

    fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns) => asns,
        }
    }
}

/// An AS_PATH: the ordered list of segments a route accumulated while
/// crossing autonomous systems.
///
/// ```
/// use bgpbench_wire::{AsPath, Asn};
/// let path = AsPath::from_sequence([Asn(1), Asn(2), Asn(3)]);
/// assert_eq!(path.length(), 3);
/// assert!(path.contains(Asn(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// An empty path (routes originated locally).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path from a single AS_SEQUENCE segment.
    pub fn from_sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let asns: Vec<Asn> = asns.into_iter().collect();
        if asns.is_empty() {
            return AsPath::empty();
        }
        AsPath {
            segments: vec![AsPathSegment::Sequence(asns)],
        }
    }

    /// Builds a path from arbitrary segments.
    pub fn from_segments<I: IntoIterator<Item = AsPathSegment>>(segments: I) -> Self {
        AsPath {
            segments: segments.into_iter().collect(),
        }
    }

    /// The segments in wire order.
    pub fn segments(&self) -> &[AsPathSegment] {
        &self.segments
    }

    /// AS-path length as used by the decision process.
    pub fn length(&self) -> usize {
        self.segments.iter().map(AsPathSegment::path_length).sum()
    }

    /// Whether `asn` appears anywhere in the path (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// The first AS of the path (the neighbor that sent the route), if
    /// the leading segment is a sequence.
    pub fn first_as(&self) -> Option<Asn> {
        match self.segments.first() {
            Some(AsPathSegment::Sequence(asns)) => asns.first().copied(),
            _ => None,
        }
    }

    /// The originating AS (last AS of the last sequence segment), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments.last() {
            Some(AsPathSegment::Sequence(asns)) => asns.last().copied(),
            _ => None,
        }
    }

    /// Returns a new path with `asn` prepended, as done when a route is
    /// advertised over an eBGP session (RFC 4271 §5.1.2).
    pub fn prepend(&self, asn: Asn) -> AsPath {
        let (head, rest) = self.prepend_parts();
        let mut leading = Vec::with_capacity(1 + head.len());
        leading.push(asn);
        leading.extend_from_slice(head);
        let mut segments = Vec::with_capacity(1 + rest.len());
        segments.push(AsPathSegment::Sequence(leading));
        segments.extend_from_slice(rest);
        AsPath { segments }
    }

    /// What [`AsPath::prepend`] builds, for any `asn`, as two borrowed
    /// parts: the ASes that follow `asn` in the new leading AS_SEQUENCE,
    /// and the segments after that one. A leading sequence with room is
    /// extended (an empty one included); otherwise a new one is opened.
    /// Two paths prepend to equal paths exactly when their parts are
    /// equal, so callers can compare prepended paths without building
    /// them.
    pub fn prepend_parts(&self) -> (&[Asn], &[AsPathSegment]) {
        match self.segments.as_slice() {
            [AsPathSegment::Sequence(asns), rest @ ..] if asns.len() < 255 => (asns, rest),
            segments => (&[], segments),
        }
    }

    /// On-the-wire size of the attribute value.
    pub(crate) fn wire_len(&self) -> usize {
        self.segments.iter().map(|s| 2 + s.asns().len() * 2).sum()
    }

    /// Appends the attribute value octets.
    pub(crate) fn encode_to(&self, out: &mut Vec<u8>) {
        for segment in &self.segments {
            out.push(segment.segment_type());
            out.push(segment.asns().len() as u8);
            for asn in segment.asns() {
                out.extend_from_slice(&asn.0.to_be_bytes());
            }
        }
    }

    pub(crate) fn decode(mut input: &[u8]) -> Result<Self, WireError> {
        let mut segments = Vec::new();
        while !input.is_empty() {
            if input.len() < 2 {
                return Err(WireError::MalformedAttribute {
                    type_code: TYPE_AS_PATH,
                    reason: "truncated segment header",
                });
            }
            let seg_type = input[0];
            let count = usize::from(input[1]);
            let body_len = count * 2;
            if input.len() < 2 + body_len {
                return Err(WireError::MalformedAttribute {
                    type_code: TYPE_AS_PATH,
                    reason: "segment overruns attribute",
                });
            }
            if count == 0 {
                return Err(WireError::MalformedAttribute {
                    type_code: TYPE_AS_PATH,
                    reason: "empty segment",
                });
            }
            let asns: Vec<Asn> = input[2..2 + body_len]
                .chunks_exact(2)
                .map(|c| Asn(u16::from_be_bytes([c[0], c[1]])))
                .collect();
            let segment = match seg_type {
                1 => AsPathSegment::Set(asns),
                2 => AsPathSegment::Sequence(asns),
                _ => {
                    return Err(WireError::MalformedAttribute {
                        type_code: TYPE_AS_PATH,
                        reason: "unknown segment type",
                    })
                }
            };
            segments.push(segment);
            input = &input[2 + body_len..];
        }
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return f.write_str("(empty)");
        }
        let mut first = true;
        for segment in &self.segments {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            match segment {
                AsPathSegment::Sequence(asns) => {
                    let parts: Vec<String> = asns.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(asns) => {
                    let parts: Vec<String> = asns.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// Parses the attribute value octets of an AS_PATH attribute.
pub(super) fn parse_as_path(value: &[u8]) -> Result<AsPath, WireError> {
    AsPath::decode(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_path_length_counts_sets_as_one() {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
            AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)]),
        ]);
        assert_eq!(path.length(), 3);
    }

    #[test]
    fn as_path_prepend() {
        let path = AsPath::from_sequence([Asn(2), Asn(3)]);
        let prepended = path.prepend(Asn(1));
        assert_eq!(prepended, AsPath::from_sequence([Asn(1), Asn(2), Asn(3)]));
        assert_eq!(prepended.first_as(), Some(Asn(1)));
        assert_eq!(prepended.origin_as(), Some(Asn(3)));

        let from_empty = AsPath::empty().prepend(Asn(7));
        assert_eq!(from_empty, AsPath::from_sequence([Asn(7)]));
    }

    #[test]
    fn as_path_prepend_starts_new_segment_when_full() {
        let path = AsPath::from_sequence((0..255).map(Asn));
        let prepended = path.prepend(Asn(999));
        assert_eq!(prepended.segments().len(), 2);
        assert_eq!(prepended.length(), 256);
        assert_eq!(prepended.first_as(), Some(Asn(999)));
    }

    #[test]
    fn as_path_contains_detects_loops() {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(1)]),
            AsPathSegment::Set(vec![Asn(5)]),
        ]);
        assert!(path.contains(Asn(5)));
        assert!(!path.contains(Asn(6)));
    }

    #[test]
    fn as_path_display() {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(10), Asn(20)]),
            AsPathSegment::Set(vec![Asn(30), Asn(40)]),
        ]);
        assert_eq!(path.to_string(), "10 20 {30,40}");
        assert_eq!(AsPath::empty().to_string(), "(empty)");
    }

    #[test]
    fn as_path_decode_rejects_malformed_segments() {
        // Truncated header.
        assert!(AsPath::decode(&[2]).is_err());
        // Count overruns the value.
        assert!(AsPath::decode(&[2, 3, 0, 1]).is_err());
        // Unknown segment type.
        assert!(AsPath::decode(&[7, 1, 0, 1]).is_err());
        // Empty segment.
        assert!(AsPath::decode(&[2, 0]).is_err());
    }
}
