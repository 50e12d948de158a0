//! Routes and their decomposed attribute sets.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use bgpbench_wire::{
    AsPath, Asn, LargeCommunity, Origin, PathAttribute, PathAttributeRef, Prefix, RouterId,
};

use crate::RibError;

/// Transitive flag bit of a path-attribute flag octet (RFC 4271 §4.3).
const FLAG_TRANSITIVE: u8 = 0x40;
/// Partial flag bit: set when an optional transitive attribute crossed
/// a speaker that did not recognize it (RFC 4271 §5).
const FLAG_PARTIAL: u8 = 0x20;

/// Identifies a configured neighbor within a [`crate::RibEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// Static facts about a configured neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    id: PeerId,
    asn: Asn,
    router_id: RouterId,
    address: Ipv4Addr,
}

impl PeerInfo {
    /// Describes a neighbor. Sessions to a different AS are eBGP; the
    /// engine derives iBGP/eBGP from the AS numbers.
    pub fn new(id: PeerId, asn: Asn, router_id: RouterId, address: Ipv4Addr) -> Self {
        PeerInfo {
            id,
            asn,
            router_id,
            address,
        }
    }

    /// The engine-local identifier.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The neighbor's AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The neighbor's BGP identifier.
    pub fn router_id(&self) -> RouterId {
        self.router_id
    }

    /// The neighbor's session address.
    pub fn address(&self) -> Ipv4Addr {
        self.address
    }
}

/// The AGGREGATOR attribute carried with a route: the AS and router
/// that performed aggregation (RFC 4271 §5.1.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aggregator {
    /// AS that performed the aggregation.
    pub asn: Asn,
    /// Router that performed the aggregation.
    pub router_id: Ipv4Addr,
}

/// An optional transitive attribute this stack does not model
/// structurally, carried byte-for-byte so it survives the trip through
/// the RIB and back onto the wire (RFC 4271 §5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnknownTransitive {
    /// The flag octet as seen on the wire.
    pub flags: u8,
    /// Attribute type code.
    pub type_code: u8,
    /// Raw attribute value.
    pub value: Vec<u8>,
}

/// The decomposed path-attribute set shared by every prefix announced
/// in one UPDATE.
///
/// Attribute sets are immutable once built and shared via [`Arc`], the
/// same "path attribute interning" real BGP implementations use to keep
/// per-prefix memory small. [`crate::AttrStore`] hash-conses them, so
/// the `Hash` implementation must stay consistent with `Eq`.
///
/// Construction goes through [`RouteAttributes::new`] for the three
/// mandatory attributes or [`RouteAttributes::builder`] for anything
/// richer; the fields themselves are private so every set in the system
/// is built through one of those two doors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RouteAttributes {
    origin: Origin,
    as_path: AsPath,
    next_hop: Ipv4Addr,
    med: Option<u32>,
    local_pref: Option<u32>,
    atomic_aggregate: bool,
    aggregator: Option<Aggregator>,
    communities: Vec<u32>,
    large_communities: Vec<LargeCommunity>,
    unknown_transitive: Vec<UnknownTransitive>,
}

impl RouteAttributes {
    /// Default LOCAL_PREF applied when a route carries none
    /// (the near-universal vendor default).
    pub const DEFAULT_LOCAL_PREF: u32 = 100;

    /// Builds an attribute set carrying only the three mandatory
    /// attributes (primarily for tests and workload generators).
    pub fn new(origin: Origin, as_path: AsPath, next_hop: Ipv4Addr) -> Self {
        RouteAttributes {
            origin,
            as_path,
            next_hop,
            med: None,
            local_pref: None,
            atomic_aggregate: false,
            aggregator: None,
            communities: Vec::new(),
            large_communities: Vec::new(),
            unknown_transitive: Vec::new(),
        }
    }

    /// Starts a builder over the full attribute set.
    ///
    /// ```
    /// use bgpbench_rib::RouteAttributes;
    /// use bgpbench_wire::{AsPath, Asn};
    /// use std::net::Ipv4Addr;
    ///
    /// let attrs = RouteAttributes::builder()
    ///     .as_path(AsPath::from_sequence([Asn(65001)]))
    ///     .next_hop(Ipv4Addr::new(10, 0, 0, 2))
    ///     .local_pref(200)
    ///     .communities(vec![0xFFFF_0001])
    ///     .build();
    /// assert_eq!(attrs.local_pref(), Some(200));
    /// ```
    pub fn builder() -> RouteAttributesBuilder {
        RouteAttributesBuilder {
            inner: RouteAttributes::new(Origin::Igp, AsPath::empty(), Ipv4Addr::UNSPECIFIED),
        }
    }

    /// Extracts an attribute set from the attributes of an UPDATE that
    /// announces NLRI.
    ///
    /// Clones each attribute value exactly once; when the caller owns
    /// the attribute vector, [`RouteAttributes::from_wire_owned`]
    /// avoids even that.
    ///
    /// # Errors
    ///
    /// Returns [`RibError::MissingMandatoryAttribute`] if ORIGIN,
    /// AS_PATH, or NEXT_HOP is absent (RFC 4271 §6.3).
    pub fn from_wire(attrs: &[PathAttribute]) -> Result<Self, RibError> {
        Self::from_wire_owned(attrs.iter().cloned())
    }

    /// [`RouteAttributes::from_wire`] over owned attributes: the AS
    /// path and community vectors are moved into the result instead of
    /// cloned.
    ///
    /// Optional transitive attributes the stack does not model are
    /// preserved in [`RouteAttributes::unknown_transitive`]; optional
    /// non-transitive unknowns are quietly dropped (RFC 4271 §5).
    ///
    /// # Errors
    ///
    /// As for [`RouteAttributes::from_wire`].
    pub fn from_wire_owned<I>(attrs: I) -> Result<Self, RibError>
    where
        I: IntoIterator<Item = PathAttribute>,
    {
        let mut origin = None;
        let mut as_path = None;
        let mut next_hop = None;
        let mut med = None;
        let mut local_pref = None;
        let mut atomic_aggregate = false;
        let mut aggregator = None;
        let mut communities = Vec::new();
        let mut large_communities = Vec::new();
        let mut unknown_transitive = Vec::new();
        for attr in attrs {
            match attr {
                PathAttribute::Origin(value) => origin = Some(value),
                PathAttribute::AsPath(value) => as_path = Some(value),
                PathAttribute::NextHop(value) => next_hop = Some(value),
                PathAttribute::Med(value) => med = Some(value),
                PathAttribute::LocalPref(value) => local_pref = Some(value),
                PathAttribute::AtomicAggregate => atomic_aggregate = true,
                PathAttribute::Aggregator { asn, router_id } => {
                    aggregator = Some(Aggregator { asn, router_id });
                }
                PathAttribute::Communities(values) => communities = values,
                PathAttribute::LargeCommunities(values) => large_communities = values,
                PathAttribute::Unknown {
                    flags,
                    type_code,
                    value,
                } => {
                    if flags & FLAG_TRANSITIVE != 0 {
                        unknown_transitive.push(UnknownTransitive {
                            flags,
                            type_code,
                            value,
                        });
                    }
                }
            }
        }
        Ok(RouteAttributes {
            origin: origin.ok_or(RibError::MissingMandatoryAttribute {
                attribute: "ORIGIN",
                type_code: 1,
            })?,
            as_path: as_path.ok_or(RibError::MissingMandatoryAttribute {
                attribute: "AS_PATH",
                type_code: 2,
            })?,
            next_hop: next_hop.ok_or(RibError::MissingMandatoryAttribute {
                attribute: "NEXT_HOP",
                type_code: 3,
            })?,
            med,
            local_pref,
            atomic_aggregate,
            aggregator,
            communities,
            large_communities,
            unknown_transitive,
        })
    }

    /// The set as wire path attributes, borrowed and in canonical
    /// (type-code) order: the one place that order is written down.
    /// Encoding from this view copies nothing.
    pub fn wire_attrs(&self) -> impl Iterator<Item = PathAttributeRef<'_>> {
        let known = [
            Some(PathAttributeRef::Origin(self.origin)),
            Some(PathAttributeRef::AsPath(&self.as_path)),
            Some(PathAttributeRef::NextHop(self.next_hop)),
            self.med.map(PathAttributeRef::Med),
            self.local_pref.map(PathAttributeRef::LocalPref),
            self.atomic_aggregate
                .then_some(PathAttributeRef::AtomicAggregate),
            self.aggregator
                .map(|aggregator| PathAttributeRef::Aggregator {
                    asn: aggregator.asn,
                    router_id: aggregator.router_id,
                }),
            (!self.communities.is_empty())
                .then_some(PathAttributeRef::Communities(&self.communities)),
            (!self.large_communities.is_empty())
                .then_some(PathAttributeRef::LargeCommunities(&self.large_communities)),
        ];
        let unknown = self
            .unknown_transitive
            .iter()
            .map(|unknown| PathAttributeRef::Unknown {
                flags: unknown.flags,
                type_code: unknown.type_code,
                value: &unknown.value,
            });
        known.into_iter().flatten().chain(unknown)
    }

    /// Serializes back into owned wire path attributes (cloning the AS
    /// path and community vectors).
    pub fn to_wire(&self) -> Vec<PathAttribute> {
        self.wire_attrs().map(|attr| attr.to_attribute()).collect()
    }

    /// The ORIGIN attribute.
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// The AS_PATH attribute.
    pub fn as_path(&self) -> &AsPath {
        &self.as_path
    }

    /// The NEXT_HOP attribute.
    pub fn next_hop(&self) -> Ipv4Addr {
        self.next_hop
    }

    /// The MULTI_EXIT_DISC, if present.
    pub fn med(&self) -> Option<u32> {
        self.med
    }

    /// The LOCAL_PREF, if present.
    pub fn local_pref(&self) -> Option<u32> {
        self.local_pref
    }

    /// LOCAL_PREF with the default applied.
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(Self::DEFAULT_LOCAL_PREF)
    }

    /// Whether ATOMIC_AGGREGATE is set.
    pub fn atomic_aggregate(&self) -> bool {
        self.atomic_aggregate
    }

    /// The AGGREGATOR attribute, if present.
    pub fn aggregator(&self) -> Option<Aggregator> {
        self.aggregator
    }

    /// The communities attached to the route.
    pub fn communities(&self) -> &[u32] {
        &self.communities
    }

    /// The large communities (RFC 8092) attached to the route.
    pub fn large_communities(&self) -> &[LargeCommunity] {
        &self.large_communities
    }

    /// Unmodeled optional transitive attributes riding along with the
    /// route.
    pub fn unknown_transitive(&self) -> &[UnknownTransitive] {
        &self.unknown_transitive
    }

    // Crate-private mutators: the policy engine rewrites attribute sets
    // through these before re-interning; outside the crate, attribute
    // sets stay immutable.

    pub(crate) fn set_local_pref(&mut self, value: u32) {
        self.local_pref = Some(value);
    }

    pub(crate) fn set_med(&mut self, value: u32) {
        self.med = Some(value);
    }

    pub(crate) fn set_next_hop(&mut self, value: Ipv4Addr) {
        self.next_hop = value;
    }

    pub(crate) fn prepend_as(&mut self, asn: Asn, count: u8) {
        for _ in 0..count {
            self.as_path = self.as_path.prepend(asn);
        }
    }

    pub(crate) fn add_community(&mut self, community: u32) {
        if !self.communities.contains(&community) {
            self.communities.push(community);
        }
    }

    pub(crate) fn delete_community(&mut self, community: u32) {
        self.communities.retain(|&c| c != community);
    }

    pub(crate) fn set_communities(&mut self, communities: Vec<u32>) {
        self.communities = communities;
    }

    pub(crate) fn add_large_community(&mut self, community: LargeCommunity) {
        if !self.large_communities.contains(&community) {
            self.large_communities.push(community);
        }
    }

    pub(crate) fn delete_large_communities_of(&mut self, global_admin: u32) {
        self.large_communities
            .retain(|lc| lc.global_admin != global_admin);
    }

    /// Returns the attribute set as advertised over an eBGP session:
    /// own AS prepended, next hop rewritten to the advertising address,
    /// non-transitive attributes (MED, LOCAL_PREF) stripped, and
    /// transitive ones — communities, large communities, AGGREGATOR,
    /// unmodeled transitive attributes — carried through (RFC 4271
    /// §5.1.2, §5.1.3; RFC 8092 §5). Unrecognized transitive
    /// attributes are marked partial on the way out (RFC 4271 §5).
    pub fn exported(&self, local_asn: Asn, next_hop: Ipv4Addr) -> RouteAttributes {
        RouteAttributes {
            origin: self.origin,
            as_path: self.as_path.prepend(local_asn),
            next_hop,
            med: None,
            local_pref: None,
            atomic_aggregate: self.atomic_aggregate,
            aggregator: self.aggregator,
            communities: self.communities.clone(),
            large_communities: self.large_communities.clone(),
            unknown_transitive: self
                .unknown_transitive
                .iter()
                .map(|unknown| UnknownTransitive {
                    flags: unknown.flags | FLAG_PARTIAL,
                    type_code: unknown.type_code,
                    value: unknown.value.clone(),
                })
                .collect(),
        }
    }

    /// Whether `self` and `other` are advertised identically over eBGP:
    /// `self.exported(asn, next_hop) == other.exported(asn, next_hop)`
    /// for every `asn` and `next_hop`, decided without building either
    /// set. NEXT_HOP, MED and LOCAL_PREF do not count, since export
    /// rewrites or strips them; AS paths are compared as they read after
    /// the prepend, so `[]` and `[SEQ()]` are equal; and partial bits,
    /// which export sets, do not count either.
    pub fn exports_equal(&self, other: &RouteAttributes) -> bool {
        std::ptr::eq(self, other)
            || (self.origin == other.origin
                && self.atomic_aggregate == other.atomic_aggregate
                && self.aggregator == other.aggregator
                && self.as_path.prepend_parts() == other.as_path.prepend_parts()
                && self.communities == other.communities
                && self.large_communities == other.large_communities
                && self.unknown_transitive.len() == other.unknown_transitive.len()
                && self
                    .unknown_transitive
                    .iter()
                    .zip(&other.unknown_transitive)
                    .all(|(a, b)| {
                        a.flags | FLAG_PARTIAL == b.flags | FLAG_PARTIAL
                            && a.type_code == b.type_code
                            && a.value == b.value
                    }))
    }
}

/// Builder for [`RouteAttributes`], the one construction path that
/// covers the full attribute set.
///
/// Unset mandatory attributes default to `Origin::Igp`, an empty AS
/// path, and an unspecified next hop — fine for workload generation,
/// where the builder replaces ad-hoc struct literals.
#[derive(Debug, Clone)]
pub struct RouteAttributesBuilder {
    inner: RouteAttributes,
}

impl RouteAttributesBuilder {
    /// Sets the ORIGIN attribute.
    pub fn origin(mut self, origin: Origin) -> Self {
        self.inner.origin = origin;
        self
    }

    /// Sets the AS_PATH attribute.
    pub fn as_path(mut self, as_path: AsPath) -> Self {
        self.inner.as_path = as_path;
        self
    }

    /// Sets the NEXT_HOP attribute.
    pub fn next_hop(mut self, next_hop: Ipv4Addr) -> Self {
        self.inner.next_hop = next_hop;
        self
    }

    /// Sets the MULTI_EXIT_DISC.
    pub fn med(mut self, med: u32) -> Self {
        self.inner.med = Some(med);
        self
    }

    /// Sets the LOCAL_PREF.
    pub fn local_pref(mut self, local_pref: u32) -> Self {
        self.inner.local_pref = Some(local_pref);
        self
    }

    /// Sets ATOMIC_AGGREGATE.
    pub fn atomic_aggregate(mut self, set: bool) -> Self {
        self.inner.atomic_aggregate = set;
        self
    }

    /// Sets the AGGREGATOR attribute.
    pub fn aggregator(mut self, asn: Asn, router_id: Ipv4Addr) -> Self {
        self.inner.aggregator = Some(Aggregator { asn, router_id });
        self
    }

    /// Sets the COMMUNITIES attribute.
    pub fn communities(mut self, communities: Vec<u32>) -> Self {
        self.inner.communities = communities;
        self
    }

    /// Sets the LARGE_COMMUNITIES attribute.
    pub fn large_communities(mut self, large_communities: Vec<LargeCommunity>) -> Self {
        self.inner.large_communities = large_communities;
        self
    }

    /// Appends an unmodeled optional transitive attribute.
    pub fn unknown_transitive(mut self, flags: u8, type_code: u8, value: Vec<u8>) -> Self {
        self.inner.unknown_transitive.push(UnknownTransitive {
            flags: flags | FLAG_TRANSITIVE,
            type_code,
            value,
        });
        self
    }

    /// Finishes the set.
    pub fn build(self) -> RouteAttributes {
        self.inner
    }
}

/// A route: a prefix bound to an attribute set learned from a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    prefix: Prefix,
    attrs: Arc<RouteAttributes>,
    learned_from: PeerId,
}

impl Route {
    /// Binds a prefix to an attribute set learned from `peer`.
    pub fn new(prefix: Prefix, attrs: Arc<RouteAttributes>, learned_from: PeerId) -> Self {
        Route {
            prefix,
            attrs,
            learned_from,
        }
    }

    /// The destination prefix.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The shared attribute set.
    pub fn attrs(&self) -> &Arc<RouteAttributes> {
        &self.attrs
    }

    /// The peer the route was learned from.
    pub fn learned_from(&self) -> PeerId {
        self.learned_from
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} path [{}] from {}",
            self.prefix,
            self.attrs.next_hop(),
            self.attrs.as_path(),
            self.learned_from
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPathSegment, LargeCommunity};

    fn base_attrs() -> Vec<PathAttribute> {
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence([Asn(65001), Asn(65002)])),
            PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 2)),
        ]
    }

    #[test]
    fn from_wire_extracts_everything() {
        let mut attrs = base_attrs();
        attrs.push(PathAttribute::Med(50));
        attrs.push(PathAttribute::LocalPref(200));
        attrs.push(PathAttribute::AtomicAggregate);
        attrs.push(PathAttribute::Aggregator {
            asn: Asn(65009),
            router_id: Ipv4Addr::new(192, 0, 2, 9),
        });
        attrs.push(PathAttribute::Communities(vec![0xFFFF0001]));
        attrs.push(PathAttribute::LargeCommunities(vec![LargeCommunity::new(
            65001, 7, 8,
        )]));
        attrs.push(PathAttribute::Unknown {
            flags: 0xC0,
            type_code: 77,
            value: vec![1, 2],
        });
        let parsed = RouteAttributes::from_wire(&attrs).unwrap();
        assert_eq!(parsed.origin(), Origin::Igp);
        assert_eq!(parsed.as_path().length(), 2);
        assert_eq!(parsed.next_hop(), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(parsed.med(), Some(50));
        assert_eq!(parsed.local_pref(), Some(200));
        assert_eq!(parsed.effective_local_pref(), 200);
        assert!(parsed.atomic_aggregate());
        assert_eq!(
            parsed.aggregator(),
            Some(Aggregator {
                asn: Asn(65009),
                router_id: Ipv4Addr::new(192, 0, 2, 9),
            })
        );
        assert_eq!(parsed.communities(), &[0xFFFF0001]);
        assert_eq!(
            parsed.large_communities(),
            &[LargeCommunity::new(65001, 7, 8)]
        );
        assert_eq!(parsed.unknown_transitive().len(), 1);
        assert_eq!(parsed.unknown_transitive()[0].type_code, 77);
    }

    #[test]
    fn from_wire_drops_unknown_non_transitive() {
        let mut attrs = base_attrs();
        attrs.push(PathAttribute::Unknown {
            flags: 0x80, // optional, NOT transitive
            type_code: 88,
            value: vec![9],
        });
        let parsed = RouteAttributes::from_wire(&attrs).unwrap();
        assert!(parsed.unknown_transitive().is_empty());
    }

    #[test]
    fn from_wire_requires_mandatory_attributes() {
        for missing in 0..3 {
            let mut attrs = base_attrs();
            let removed = attrs.remove(missing);
            // The error names the wire's own type code for what is
            // missing: the session sends it to the peer verbatim.
            assert!(matches!(
                RouteAttributes::from_wire(&attrs),
                Err(RibError::MissingMandatoryAttribute { type_code, .. })
                    if type_code == removed.type_code()
            ));
        }
    }

    #[test]
    fn wire_roundtrip() {
        let attrs = RouteAttributes::builder()
            .origin(Origin::Egp)
            .as_path(AsPath::from_sequence([Asn(7)]))
            .next_hop(Ipv4Addr::new(192, 0, 2, 9))
            .med(5)
            .local_pref(300)
            .aggregator(Asn(65001), Ipv4Addr::new(10, 0, 0, 9))
            .communities(vec![1, 2])
            .large_communities(vec![LargeCommunity::new(65001, 1, 2)])
            .unknown_transitive(0xC0, 77, vec![3, 4])
            .build();
        let wire = attrs.to_wire();
        let back = RouteAttributes::from_wire(&wire).unwrap();
        assert_eq!(back, attrs);
    }

    #[test]
    fn owned_wire_roundtrip_matches_borrowed() {
        let mut wire = base_attrs();
        wire.push(PathAttribute::Communities(vec![7, 8, 9]));
        let borrowed = RouteAttributes::from_wire(&wire).unwrap();
        let owned = RouteAttributes::from_wire_owned(wire.clone()).unwrap();
        assert_eq!(borrowed, owned);
        assert_eq!(owned.to_wire(), wire);
    }

    #[test]
    fn default_local_pref_is_100() {
        let attrs = RouteAttributes::new(Origin::Igp, AsPath::empty(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(attrs.local_pref(), None);
        assert_eq!(attrs.effective_local_pref(), 100);
    }

    #[test]
    fn builder_defaults_match_new() {
        assert_eq!(
            RouteAttributes::builder()
                .origin(Origin::Igp)
                .as_path(AsPath::empty())
                .next_hop(Ipv4Addr::UNSPECIFIED)
                .build(),
            RouteAttributes::new(Origin::Igp, AsPath::empty(), Ipv4Addr::UNSPECIFIED)
        );
    }

    #[test]
    fn export_prepends_as_and_strips_session_attributes() {
        let attrs = RouteAttributes::builder()
            .as_path(AsPath::from_sequence([Asn(65001)]))
            .next_hop(Ipv4Addr::new(10, 0, 0, 2))
            .med(9)
            .local_pref(500)
            .build();
        let exported = attrs.exported(Asn(65000), Ipv4Addr::new(10, 9, 9, 1));
        assert_eq!(
            exported.as_path(),
            &AsPath::from_sequence([Asn(65000), Asn(65001)])
        );
        assert_eq!(exported.next_hop(), Ipv4Addr::new(10, 9, 9, 1));
        assert_eq!(exported.med(), None);
        assert_eq!(exported.local_pref(), None);
    }

    #[test]
    fn export_carries_transitive_attributes_and_marks_partial() {
        let attrs = RouteAttributes::builder()
            .as_path(AsPath::from_sequence([Asn(65001)]))
            .next_hop(Ipv4Addr::new(10, 0, 0, 2))
            .aggregator(Asn(65001), Ipv4Addr::new(10, 0, 0, 9))
            .communities(vec![42])
            .large_communities(vec![LargeCommunity::new(65001, 0, 1)])
            .unknown_transitive(0xC0, 77, vec![5])
            .build();
        let exported = attrs.exported(Asn(65000), Ipv4Addr::new(10, 9, 9, 1));
        assert_eq!(exported.aggregator(), attrs.aggregator());
        assert_eq!(exported.communities(), attrs.communities());
        assert_eq!(exported.large_communities(), attrs.large_communities());
        assert_eq!(exported.unknown_transitive().len(), 1);
        // Partial bit set on the way out (RFC 4271 §5).
        assert_eq!(exported.unknown_transitive()[0].flags, 0xE0);
    }

    #[test]
    fn exports_equal_ignores_what_export_drops_and_compares_prepended_paths() {
        let with = |path: Vec<AsPathSegment>, hop: u8, med: u32, flags: u8| {
            RouteAttributes::builder()
                .as_path(AsPath::from_segments(path))
                .next_hop(Ipv4Addr::new(10, 0, 0, hop))
                .med(med)
                .local_pref(u32::from(hop))
                .unknown_transitive(flags, 77, vec![5])
                .build()
        };
        let seq = |asns: &[u16]| AsPathSegment::Sequence(asns.iter().copied().map(Asn).collect());
        let full = seq(&[7; 255]);
        let equal = [
            (vec![], vec![seq(&[])]),
            (vec![full.clone()], vec![seq(&[]), full]),
            (vec![seq(&[1, 2])], vec![seq(&[1, 2])]),
        ];
        for (a, b) in equal {
            // Different NEXT_HOP, MED, LOCAL_PREF and partial bit too.
            assert!(with(a, 1, 1, 0xC0).exports_equal(&with(b, 2, 2, 0xE0)));
        }
        let different = [
            (vec![seq(&[1])], vec![seq(&[]), seq(&[1])]),
            (
                vec![seq(&[1])],
                vec![AsPathSegment::Set(vec![Asn(1)].into())],
            ),
        ];
        for (a, b) in different {
            assert!(!with(a, 1, 1, 0xC0).exports_equal(&with(b, 1, 1, 0xC0)));
        }
    }

    #[test]
    fn route_display_mentions_prefix_and_path() {
        let route = Route::new(
            "10.0.0.0/8".parse().unwrap(),
            Arc::new(RouteAttributes::new(
                Origin::Igp,
                AsPath::from_sequence([Asn(3)]),
                Ipv4Addr::new(10, 0, 0, 2),
            )),
            PeerId(4),
        );
        let text = route.to_string();
        assert!(text.contains("10.0.0.0/8"));
        assert!(text.contains("peer#4"));
    }
}
