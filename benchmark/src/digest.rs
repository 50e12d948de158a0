//! The correctness gate's routing state: a prefix → (AS path, next
//! hop) map with an order-independent digest.
//!
//! Three parties fold UPDATEs into a [`RouteTable`] — the oracle over
//! the generated input (what Speaker 2 *should* end up holding), the
//! collector over what the live daemon actually sent, and the
//! in-process replica over its own output — and their digests must be
//! equal. The digest is a wrapping sum of per-route hashes, so the
//! order routes arrived in (which `AdjRibOut::to_updates` is free to
//! change within an UPDATE) does not matter, while a wrong path, a
//! wrong next hop, a missing or a surplus route all do.

use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

use bgpbench_rib::fxhash::FxHashMap;
use bgpbench_wire::{AsPath, AsPathSegment, Asn, PathAttribute, Prefix, UpdateMessage};

/// Digest of a whole table: route count and wrapping sum of route
/// hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub routes: usize,
    pub sum: u64,
}

/// Hash of one route. `asns` is the flattened AS path in wire order.
pub fn route_hash(prefix: Prefix, asns: impl Iterator<Item = Asn>, next_hop: Ipv4Addr) -> u64 {
    // `DefaultHasher::new()` is SipHash with fixed keys: the same
    // route hashes the same in every process.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    prefix.hash(&mut hasher);
    for asn in asns {
        asn.0.hash(&mut hasher);
    }
    next_hop.hash(&mut hasher);
    hasher.finish()
}

/// The ASes of a path in wire order, sets and sequences alike.
pub fn flatten(path: &AsPath) -> impl Iterator<Item = Asn> + '_ {
    path.segments().iter().flat_map(|segment| match segment {
        AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns) => asns.iter().copied(),
    })
}

/// What one neighbour has been told: prefix → route hash.
#[derive(Debug, Default)]
pub struct RouteTable {
    routes: FxHashMap<Prefix, u64>,
    sum: u64,
}

impl RouteTable {
    /// Records an announcement. Returns whether it changed the table
    /// (a re-announcement of the identical route does not).
    pub fn announce(&mut self, prefix: Prefix, hash: u64) -> bool {
        match self.routes.insert(prefix, hash) {
            Some(old) if old == hash => false,
            Some(old) => {
                self.sum = self.sum.wrapping_sub(old).wrapping_add(hash);
                true
            }
            None => {
                self.sum = self.sum.wrapping_add(hash);
                true
            }
        }
    }

    /// Records a withdrawal. Returns whether the prefix was present.
    pub fn withdraw(&mut self, prefix: Prefix) -> bool {
        match self.routes.remove(&prefix) {
            Some(old) => {
                self.sum = self.sum.wrapping_sub(old);
                true
            }
            None => false,
        }
    }

    /// Folds a received UPDATE in as Speaker 2 sees it: withdrawals,
    /// then announcements under the message's AS_PATH and NEXT_HOP.
    /// Returns the number of prefix-level changes.
    pub fn apply_received(&mut self, update: &UpdateMessage) -> usize {
        self.apply(update, None)
    }

    /// Folds one of Speaker 1's UPDATEs in as the router under test
    /// must re-advertise it over eBGP: its own AS prepended and the
    /// next hop rewritten to `next_hop` (RFC 4271 §5.1.2, §5.1.3).
    /// Returns the number of prefix-level changes, which is the number
    /// of transactions Speaker 2 must receive for this UPDATE.
    pub fn apply_exported(
        &mut self,
        update: &UpdateMessage,
        local_asn: Asn,
        next_hop: Ipv4Addr,
    ) -> usize {
        self.apply(update, Some((local_asn, next_hop)))
    }

    fn apply(&mut self, update: &UpdateMessage, export: Option<(Asn, Ipv4Addr)>) -> usize {
        let mut changed = 0;
        for prefix in update.withdrawn() {
            changed += usize::from(self.withdraw(*prefix));
        }
        if update.nlri().is_empty() {
            return changed;
        }
        let empty = AsPath::empty();
        let mut path = &empty;
        let mut next_hop = Ipv4Addr::UNSPECIFIED;
        for attribute in update.attributes() {
            match attribute {
                PathAttribute::AsPath(p) => path = p,
                PathAttribute::NextHop(hop) => next_hop = *hop,
                _ => {}
            }
        }
        for prefix in update.nlri() {
            let hash = match export {
                Some((asn, hop)) => {
                    route_hash(*prefix, std::iter::once(asn).chain(flatten(path)), hop)
                }
                None => route_hash(*prefix, flatten(path), next_hop),
            };
            changed += usize::from(self.announce(*prefix, hash));
        }
        changed
    }

    pub fn digest(&self) -> Digest {
        Digest {
            routes: self.routes.len(),
            sum: self.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::Origin;

    fn prefix(text: &str) -> Prefix {
        text.parse().unwrap()
    }

    fn announce(path: &[u16], hop: [u8; 4], prefixes: &[&str]) -> UpdateMessage {
        UpdateMessage::builder()
            .attribute(PathAttribute::Origin(Origin::Igp))
            .attribute(PathAttribute::AsPath(AsPath::from_sequence(
                path.iter().map(|&asn| Asn(asn)),
            )))
            .attribute(PathAttribute::NextHop(Ipv4Addr::from(hop)))
            .announce_all(prefixes.iter().map(|p| prefix(p)))
            .build()
    }

    #[test]
    fn digest_ignores_arrival_order() {
        let mut a = RouteTable::default();
        let mut b = RouteTable::default();
        a.apply_received(&announce(
            &[1, 2],
            [10, 0, 0, 1],
            &["1.0.0.0/8", "2.0.0.0/8"],
        ));
        a.apply_received(&announce(&[3], [10, 0, 0, 1], &["3.0.0.0/8"]));
        b.apply_received(&announce(&[3], [10, 0, 0, 1], &["3.0.0.0/8"]));
        b.apply_received(&announce(&[1, 2], [10, 0, 0, 1], &["2.0.0.0/8"]));
        b.apply_received(&announce(&[1, 2], [10, 0, 0, 1], &["1.0.0.0/8"]));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest().routes, 3);
    }

    #[test]
    fn digest_sees_path_next_hop_and_membership() {
        let base = {
            let mut t = RouteTable::default();
            t.apply_received(&announce(&[1, 2], [10, 0, 0, 1], &["1.0.0.0/8"]));
            t.digest()
        };
        let mut other_path = RouteTable::default();
        other_path.apply_received(&announce(&[1, 3], [10, 0, 0, 1], &["1.0.0.0/8"]));
        assert_ne!(other_path.digest(), base);
        let mut other_hop = RouteTable::default();
        other_hop.apply_received(&announce(&[1, 2], [10, 0, 0, 2], &["1.0.0.0/8"]));
        assert_ne!(other_hop.digest(), base);
        let mut other_prefix = RouteTable::default();
        other_prefix.apply_received(&announce(&[1, 2], [10, 0, 0, 1], &["1.0.0.0/9"]));
        assert_ne!(other_prefix.digest(), base);
    }

    #[test]
    fn withdrawal_and_replacement_restore_the_digest() {
        let mut table = RouteTable::default();
        table.apply_received(&announce(&[1], [10, 0, 0, 1], &["1.0.0.0/8"]));
        let one = table.digest();
        assert_eq!(
            table.apply_received(&announce(&[2], [10, 0, 0, 1], &["9.0.0.0/8"])),
            1
        );
        assert_eq!(
            table.apply_received(&announce(&[5], [10, 0, 0, 1], &["9.0.0.0/8"])),
            1
        );
        // Same route again: no change, no transaction.
        assert_eq!(
            table.apply_received(&announce(&[5], [10, 0, 0, 1], &["9.0.0.0/8"])),
            0
        );
        let withdraw = UpdateMessage::builder()
            .withdraw(prefix("9.0.0.0/8"))
            .withdraw(prefix("8.0.0.0/8"))
            .build();
        assert_eq!(table.apply_received(&withdraw), 1);
        assert_eq!(table.digest(), one);
    }

    #[test]
    fn exported_form_matches_what_a_neighbour_receives() {
        let sent = announce(&[65001, 7], [127, 0, 0, 1], &["1.0.0.0/8"]);
        let received = announce(&[65000, 65001, 7], [10, 0, 0, 1], &["1.0.0.0/8"]);
        let mut expected = RouteTable::default();
        expected.apply_exported(&sent, Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        let mut collected = RouteTable::default();
        collected.apply_received(&received);
        assert_eq!(expected.digest(), collected.digest());
    }
}
