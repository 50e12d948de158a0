use std::error::Error;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::WireError;

/// A two-octet autonomous system number.
///
/// The paper predates widespread four-octet ASN deployment (RFC 4893 was
/// published mid-2007), so the benchmark uses classic two-octet AS
/// numbers throughout.
///
/// ```
/// use bgpbench_wire::Asn;
/// assert_eq!(Asn(65001).to_string(), "AS65001");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u16);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u16> for Asn {
    fn from(value: u16) -> Self {
        Asn(value)
    }
}

/// A BGP identifier (router ID), a 32-bit value conventionally written
/// as a dotted quad.
///
/// Used in OPEN messages and as the final decision-process tie-breaker.
///
/// ```
/// use bgpbench_wire::RouterId;
/// use std::net::Ipv4Addr;
/// let id = RouterId::from(Ipv4Addr::new(192, 0, 2, 1));
/// assert_eq!(id.to_string(), "192.0.2.1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Returns the identifier as an IPv4 address for display purposes.
    pub fn as_ipv4(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_ipv4())
    }
}

impl From<Ipv4Addr> for RouterId {
    fn from(addr: Ipv4Addr) -> Self {
        RouterId(u32::from(addr))
    }
}

impl From<u32> for RouterId {
    fn from(value: u32) -> Self {
        RouterId(value)
    }
}

/// An IPv4 prefix: a network address plus a mask length, as carried in
/// BGP NLRI and withdrawn-routes fields.
///
/// The type maintains the invariant that all host bits below the mask
/// are zero, so two equal networks always compare equal regardless of
/// how they were constructed.
///
/// ```
/// use bgpbench_wire::Prefix;
/// use std::net::Ipv4Addr;
/// let p: Prefix = "10.42.0.0/16".parse().unwrap();
/// assert!(p.contains(Ipv4Addr::new(10, 42, 7, 9)));
/// assert!(!p.contains(Ipv4Addr::new(10, 43, 0, 1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Creates a prefix from a network address and mask length.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidPrefixLength`] if `len > 32`, and
    /// `WireError::MalformedAttribute` if host bits below the mask are
    /// set (use [`Prefix::new_masked`] to silently clear them).
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, WireError> {
        if len > 32 {
            return Err(WireError::InvalidPrefixLength(len));
        }
        let bits = u32::from(addr);
        let masked = mask_bits(bits, len);
        if masked != bits {
            return Err(WireError::MalformedAttribute {
                type_code: 0,
                reason: "prefix has host bits set below the mask",
            });
        }
        Ok(Prefix { bits, len })
    }

    /// Creates a prefix, clearing any host bits below the mask.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidPrefixLength`] if `len > 32`.
    pub fn new_masked(addr: Ipv4Addr, len: u8) -> Result<Self, WireError> {
        if len > 32 {
            return Err(WireError::InvalidPrefixLength(len));
        }
        Ok(Prefix {
            bits: mask_bits(u32::from(addr), len),
            len,
        })
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The network address as a raw big-endian `u32`.
    pub fn network_bits(&self) -> u32 {
        self.bits
    }

    /// The mask length in bits.
    ///
    /// (Not a container length — there is deliberately no `is_empty`;
    /// see [`Prefix::is_default`] for the zero-length case.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default route.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        mask_bits(u32::from(addr), self.len) == self.bits
    }

    /// Whether `other` is equal to or more specific than this prefix.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && mask_bits(other.bits, self.len) == self.bits
    }

    /// The covering prefix of `len` bits; `len` is clamped to this
    /// prefix's own length, so the result always covers `self`.
    ///
    /// ```
    /// use bgpbench_wire::Prefix;
    /// let p: Prefix = "10.42.7.0/24".parse().unwrap();
    /// assert_eq!(p.truncated(16), "10.42.0.0/16".parse().unwrap());
    /// assert_eq!(p.truncated(0), Prefix::DEFAULT);
    /// assert_eq!(p.truncated(30), p);
    /// ```
    pub fn truncated(self, len: u8) -> Prefix {
        let len = len.min(self.len);
        Prefix {
            bits: mask_bits(self.bits, len),
            len,
        }
    }

    /// Number of octets this prefix occupies on the wire
    /// (RFC 4271 §4.3: `(len + 7) / 8`, plus the length octet).
    pub fn wire_len(&self) -> usize {
        1 + usize::from(self.len).div_ceil(8)
    }

    /// Appends the RFC 4271 NLRI encoding (length octet followed by the
    /// minimal number of prefix octets) to `out`.
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.push(self.len);
        let octets = self.bits.to_be_bytes();
        out.extend_from_slice(&octets[..usize::from(self.len).div_ceil(8)]);
    }

    /// Decodes one NLRI-encoded prefix from the front of `input`.
    ///
    /// Returns the prefix and the number of octets consumed. Trailing
    /// bits beyond the mask length are ignored, as the RFC requires.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the input is too short and
    /// [`WireError::InvalidPrefixLength`] if the length octet exceeds 32.
    pub fn decode_from(input: &[u8]) -> Result<(Self, usize), WireError> {
        let (&len, rest) = input.split_first().ok_or(WireError::Truncated {
            context: "prefix length octet",
        })?;
        if len > 32 {
            return Err(WireError::InvalidPrefixLength(len));
        }
        let nbytes = usize::from(len).div_ceil(8);
        if rest.len() < nbytes {
            return Err(WireError::Truncated {
                context: "prefix octets",
            });
        }
        let mut octets = [0u8; 4];
        octets[..nbytes].copy_from_slice(&rest[..nbytes]);
        let bits = mask_bits(u32::from_be_bytes(octets), len);
        Ok((Prefix { bits, len }, 1 + nbytes))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Error returned when parsing a [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError {
    input: String,
}

impl PrefixParseError {
    /// The offending input text.
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix syntax: {:?}", self.input)
    }
}

impl Error for PrefixParseError {}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixParseError {
            input: s.to_owned(),
        };
        let (addr_text, len_text) = s.split_once('/').ok_or_else(err)?;
        let addr: Ipv4Addr = addr_text.parse().map_err(|_| err())?;
        let len: u8 = len_text.parse().map_err(|_| err())?;
        Prefix::new(addr, len).map_err(|_| err())
    }
}

fn mask_bits(bits: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        bits & (u32::MAX << (32 - u32::from(len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_new_rejects_host_bits() {
        let err = Prefix::new(Ipv4Addr::new(10, 0, 0, 1), 24).unwrap_err();
        assert!(matches!(err, WireError::MalformedAttribute { .. }));
    }

    #[test]
    fn prefix_new_masked_clears_host_bits() {
        let p = Prefix::new_masked(Ipv4Addr::new(10, 0, 0, 1), 24).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(p.len(), 24);
    }

    #[test]
    fn prefix_rejects_len_over_32() {
        assert_eq!(
            Prefix::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(WireError::InvalidPrefixLength(33))
        );
        assert_eq!(
            Prefix::new_masked(Ipv4Addr::UNSPECIFIED, 40),
            Err(WireError::InvalidPrefixLength(40))
        );
    }

    #[test]
    fn default_route() {
        assert!(Prefix::DEFAULT.is_default());
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(203, 0, 113, 9)));
        assert_eq!(Prefix::DEFAULT.wire_len(), 1);
    }

    #[test]
    fn contains_boundaries() {
        let p: Prefix = "192.168.4.0/22".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 168, 4, 0)));
        assert!(p.contains(Ipv4Addr::new(192, 168, 7, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 168, 8, 0)));
        assert!(!p.contains(Ipv4Addr::new(192, 168, 3, 255)));
    }

    #[test]
    fn covers_is_reflexive_and_respects_specificity() {
        let wide: Prefix = "10.0.0.0/8".parse().unwrap();
        let narrow: Prefix = "10.5.0.0/16".parse().unwrap();
        assert!(wide.covers(&wide));
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
    }

    #[test]
    fn wire_roundtrip_all_lengths() {
        for len in 0..=32u8 {
            let addr = Ipv4Addr::new(172, 16, 33, 129);
            let p = Prefix::new_masked(addr, len).unwrap();
            let mut buf = Vec::new();
            p.encode_to(&mut buf);
            assert_eq!(buf.len(), p.wire_len());
            let (decoded, consumed) = Prefix::decode_from(&buf).unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn decode_ignores_trailing_garbage_bits() {
        // /9 needs two octets; bits below the mask must be cleared.
        let input = [9u8, 0x80, 0xFF];
        let (p, consumed) = Prefix::decode_from(&input).unwrap();
        assert_eq!(consumed, 3);
        assert_eq!(p, "128.128.0.0/9".parse().unwrap());
    }

    #[test]
    fn decode_truncated_inputs() {
        assert!(matches!(
            Prefix::decode_from(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            Prefix::decode_from(&[24, 10, 0]),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(
            Prefix::decode_from(&[60, 1, 2, 3, 4]),
            Err(WireError::InvalidPrefixLength(60))
        );
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for text in ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.128/25", "1.2.3.4/32"] {
            let p: Prefix = text.parse().unwrap();
            assert_eq!(p.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        for text in [
            "",
            "10.0.0.0",
            "10.0.0.0/33",
            "10.0.0.1/24",
            "x/8",
            "10.0.0.0/y",
        ] {
            assert!(text.parse::<Prefix>().is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn ordering_is_by_address_then_length() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Prefix = "10.0.0.0/16".parse().unwrap();
        let c: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn router_id_display() {
        assert_eq!(RouterId(0xC0000201).to_string(), "192.0.2.1");
        assert_eq!(
            RouterId::from(Ipv4Addr::new(10, 0, 0, 1)),
            RouterId(0x0A000001)
        );
    }
}
