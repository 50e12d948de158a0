//! AS_PATH (type 2, well-known mandatory; RFC 4271 §5.1.2).

use std::hash::{Hash, Hasher};
use std::{fmt, iter, mem, ops, slice};

use crate::{Asn, WireError};

use super::TYPE_AS_PATH;

/// How many ASes an [`AsnList`] holds without a heap block: 28 bytes of
/// ASNs plus a length fit the 32 bytes a `Vec` and an enum tag take
/// anyway.
const INLINE_ASNS: usize = 14;

/// The ASes of one AS_PATH segment.
///
/// Up to 14 are stored inline, which covers the 1–12 AS paths of the
/// modern path-length distribution plus a router's own prepend; a
/// longer list spills to a `Vec`. The representation is invisible: equality, hashing and
/// `Debug` go through the slice it derefs to, so a list compares,
/// hashes and prints exactly like that slice.
///
/// ```
/// use bgpbench_wire::{AsnList, Asn};
/// let short: AsnList = vec![Asn(1), Asn(2)].into();
/// let long: AsnList = (0..40).map(Asn).collect();
/// assert_eq!(short.len(), 2);
/// assert_eq!(long[39], Asn(39));
/// ```
#[derive(Clone)]
pub struct AsnList(AsnRepr);

#[derive(Clone)]
enum AsnRepr {
    /// `asns[..len]`, with `len <= INLINE_ASNS`.
    Inline { len: u8, asns: [Asn; INLINE_ASNS] },
    /// More than [`INLINE_ASNS`] ASes.
    Spilled(Vec<Asn>),
}

impl AsnList {
    /// The ASes, in order.
    fn as_slice(&self) -> &[Asn] {
        match &self.0 {
            AsnRepr::Inline { len, asns } => &asns[..usize::from(*len)],
            AsnRepr::Spilled(asns) => asns,
        }
    }

    /// Appends `asn`, spilling to the heap when the inline room is used
    /// up.
    fn push(&mut self, asn: Asn) {
        match &mut self.0 {
            AsnRepr::Inline { len, asns } if usize::from(*len) < INLINE_ASNS => {
                asns[usize::from(*len)] = asn;
                *len += 1;
            }
            AsnRepr::Inline { asns, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_ASNS);
                spilled.extend_from_slice(asns);
                spilled.push(asn);
                self.0 = AsnRepr::Spilled(spilled);
            }
            AsnRepr::Spilled(asns) => asns.push(asn),
        }
    }

    /// `asn` followed by `rest`, allocating only if that is more than
    /// fits inline.
    fn prepended(asn: Asn, rest: &[Asn]) -> Self {
        if rest.len() < INLINE_ASNS {
            let mut asns = [Asn(0); INLINE_ASNS];
            asns[0] = asn;
            asns[1..=rest.len()].copy_from_slice(rest);
            return AsnList(AsnRepr::Inline {
                len: (1 + rest.len()) as u8,
                asns,
            });
        }
        let mut spilled = Vec::with_capacity(1 + rest.len());
        spilled.push(asn);
        spilled.extend_from_slice(rest);
        AsnList(AsnRepr::Spilled(spilled))
    }
}

impl Default for AsnList {
    fn default() -> Self {
        AsnList(AsnRepr::Inline {
            len: 0,
            asns: [Asn(0); INLINE_ASNS],
        })
    }
}

impl ops::Deref for AsnList {
    type Target = [Asn];

    fn deref(&self) -> &[Asn] {
        self.as_slice()
    }
}

impl PartialEq for AsnList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AsnList {}

impl Hash for AsnList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for AsnList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<Asn>> for AsnList {
    /// Moves the ASes inline when they fit, so the `Vec`'s block is
    /// freed; a longer `Vec` is kept as it is.
    fn from(asns: Vec<Asn>) -> Self {
        if asns.len() <= INLINE_ASNS {
            asns.into_iter().collect()
        } else {
            AsnList(AsnRepr::Spilled(asns))
        }
    }
}

impl FromIterator<Asn> for AsnList {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        let mut list = AsnList::default();
        for asn in iter {
            list.push(asn);
        }
        list
    }
}

impl<'a> IntoIterator for &'a AsnList {
    type Item = &'a Asn;
    type IntoIter = slice::Iter<'a, Asn>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One segment of an AS_PATH (RFC 4271 §5.1.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// An ordered sequence of ASes the route has traversed.
    Sequence(AsnList),
    /// An unordered set (produced by aggregation).
    Set(AsnList),
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
/// A path of one segment, which is nearly every path, is stored
/// without a segment `Vec`; with [`AsnList`] holding short segments
/// inline, such a path lives on the heap nowhere. Equality, hashing and
/// `Debug` go through [`AsPath::segments`], as for [`AsnList`].
///
/// ```
/// use bgpbench_wire::{AsPath, Asn};
/// let path = AsPath::from_sequence([Asn(1), Asn(2), Asn(3)]);
/// assert_eq!(path.length(), 3);
/// assert!(path.contains(Asn(2)));
/// ```
#[derive(Clone, Default)]
pub struct AsPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    /// Exactly one segment.
    One(AsPathSegment),
    /// Any other number of segments: none, or two and more.
    Many(Vec<AsPathSegment>),
}

impl Default for PathRepr {
    fn default() -> Self {
        PathRepr::Many(Vec::new())
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for AsPath {}

impl Hash for AsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segments().hash(state);
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsPath")
            .field("segments", &self.segments())
            .finish()
    }
}

impl AsPath {
    /// An empty path (routes originated locally).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a path from a single AS_SEQUENCE segment.
    pub fn from_sequence<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let asns: AsnList = asns.into_iter().collect();
        if asns.is_empty() {
            return AsPath::empty();
        }
        AsPath(PathRepr::One(AsPathSegment::Sequence(asns)))
    }

    /// Builds a path from arbitrary segments.
    pub fn from_segments<I: IntoIterator<Item = AsPathSegment>>(segments: I) -> Self {
        let mut path = AsPath::empty();
        for segment in segments {
            path.push(segment);
        }
        path
    }

    /// Appends `segment`, moving to a segment `Vec` at the second.
    fn push(&mut self, segment: AsPathSegment) {
        self.0 = match mem::take(&mut self.0) {
            PathRepr::Many(segments) if segments.is_empty() => PathRepr::One(segment),
            PathRepr::Many(mut segments) => {
                segments.push(segment);
                PathRepr::Many(segments)
            }
            PathRepr::One(first) => PathRepr::Many(vec![first, segment]),
        };
    }

    /// The segments in wire order.
    pub fn segments(&self) -> &[AsPathSegment] {
        match &self.0 {
            PathRepr::One(segment) => slice::from_ref(segment),
            PathRepr::Many(segments) => segments,
        }
    }

    /// AS-path length as used by the decision process.
    pub fn length(&self) -> usize {
        self.segments().iter().map(AsPathSegment::path_length).sum()
    }

    /// Whether `asn` appears anywhere in the path (loop detection).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments().iter().any(|s| s.asns().contains(&asn))
    }

    /// The first AS of the path (the neighbor that sent the route), if
    /// the leading segment is a sequence.
    pub fn first_as(&self) -> Option<Asn> {
        match self.segments().first() {
            Some(AsPathSegment::Sequence(asns)) => asns.first().copied(),
            _ => None,
        }
    }

    /// The originating AS (last AS of the last sequence segment), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments().last() {
            Some(AsPathSegment::Sequence(asns)) => asns.last().copied(),
            _ => None,
        }
    }

    /// Returns a new path with `asn` prepended, as done when a route is
    /// advertised over an eBGP session (RFC 4271 §5.1.2). A one-segment
    /// result of up to 14 ASes allocates nothing.
    pub fn prepend(&self, asn: Asn) -> AsPath {
        let (head, rest) = self.prepend_parts();
        let leading = AsPathSegment::Sequence(AsnList::prepended(asn, head));
        AsPath::from_segments(iter::once(leading).chain(rest.iter().cloned()))
    }

    /// What [`AsPath::prepend`] builds, for any `asn`, as two borrowed
    /// parts: the ASes that follow `asn` in the new leading AS_SEQUENCE,
    /// and the segments after that one. A leading sequence with room is
    /// extended (an empty one included); otherwise a new one is opened.
    /// Two paths prepend to equal paths exactly when their parts are
    /// equal, so callers can compare prepended paths without building
    /// them.
    pub fn prepend_parts(&self) -> (&[Asn], &[AsPathSegment]) {
        match self.segments() {
            [AsPathSegment::Sequence(asns), rest @ ..] if asns.len() < 255 => (asns, rest),
            segments => (&[], segments),
        }
    }

    /// On-the-wire size of the attribute value.
    pub(crate) fn wire_len(&self) -> usize {
        self.segments().iter().map(|s| 2 + s.asns().len() * 2).sum()
    }

    /// Appends the attribute value octets.
    pub(crate) fn encode_to(&self, out: &mut Vec<u8>) {
        for segment in self.segments() {
            out.push(segment.segment_type());
            out.push(segment.asns().len() as u8);
            for asn in segment.asns() {
                out.extend_from_slice(&asn.0.to_be_bytes());
            }
        }
    }

    pub(crate) fn decode(mut input: &[u8]) -> Result<Self, WireError> {
        let mut path = AsPath::empty();
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
            let asns: AsnList = input[2..2 + body_len]
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
            path.push(segment);
            input = &input[2 + body_len..];
        }
        Ok(path)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments().is_empty() {
            return f.write_str("(empty)");
        }
        let mut first = true;
        for segment in self.segments() {
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
            AsPathSegment::Sequence(vec![Asn(1), Asn(2)].into()),
            AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)].into()),
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
            AsPathSegment::Sequence(vec![Asn(1)].into()),
            AsPathSegment::Set(vec![Asn(5)].into()),
        ]);
        assert!(path.contains(Asn(5)));
        assert!(!path.contains(Asn(6)));
    }

    #[test]
    fn as_path_display() {
        let path = AsPath::from_segments([
            AsPathSegment::Sequence(vec![Asn(10), Asn(20)].into()),
            AsPathSegment::Set(vec![Asn(30), Asn(40)].into()),
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
