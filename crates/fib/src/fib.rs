//! The forwarding table: prefixes mapped to next hops.

use std::fmt;
use std::net::Ipv4Addr;

use bgpbench_wire::Prefix;

use crate::compressed::CompressedTrie;

/// A forwarding next hop: the gateway address and the egress port.
///
/// ```
/// use bgpbench_fib::NextHop;
/// use std::net::Ipv4Addr;
/// let hop = NextHop::new(Ipv4Addr::new(192, 0, 2, 1), 2);
/// assert_eq!(hop.port(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NextHop {
    gateway: Ipv4Addr,
    port: u8,
}

impl NextHop {
    /// Creates a next hop.
    pub fn new(gateway: Ipv4Addr, port: u8) -> Self {
        NextHop { gateway, port }
    }

    /// The gateway (neighbor) address.
    pub fn gateway(&self) -> Ipv4Addr {
        self.gateway
    }

    /// The egress port index.
    pub fn port(&self) -> u8 {
        self.port
    }
}

impl fmt::Display for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "via {} port {}", self.gateway, self.port)
    }
}

/// The forwarding information base: the kernel- or hardware-resident
/// table the data plane consults for every packet.
///
/// A generation counter increments on every mutation so the benchmark
/// can verify that control-plane updates became visible to the data
/// plane (the property Scenarios 1–4 and 7–8 measure the cost of).
///
/// Backed by the path-compressed [`CompressedTrie`]: the FIB write is
/// the largest layer of the live pipeline at full-table size, and that
/// trie keeps an insert to a root-table load and a handful of nodes,
/// with no allocation per prefix.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    trie: CompressedTrie<NextHop>,
    generation: u64,
}

impl Fib {
    /// Creates an empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the FIB is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Monotone counter incremented by every mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Installs (or replaces) the route for `prefix`, returning the
    /// previous next hop if one was installed.
    pub fn insert(&mut self, prefix: Prefix, next_hop: NextHop) -> Option<NextHop> {
        self.generation += 1;
        self.trie.insert(prefix, next_hop)
    }

    /// Removes the route for exactly `prefix`.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<NextHop> {
        let removed = self.trie.remove(prefix);
        if removed.is_some() {
            self.generation += 1;
        }
        removed
    }

    /// Longest-prefix-match lookup for a destination address.
    pub fn lookup(&self, destination: Ipv4Addr) -> Option<&NextHop> {
        self.trie.lookup(destination).map(|(_, hop)| hop)
    }

    /// Longest-prefix-match lookup returning the matched prefix too.
    pub fn lookup_entry(&self, destination: Ipv4Addr) -> Option<(&Prefix, &NextHop)> {
        self.trie.lookup(destination)
    }

    /// The next hop installed for exactly `prefix`, if any.
    pub fn get(&self, prefix: &Prefix) -> Option<&NextHop> {
        self.trie.get(prefix)
    }

    /// Iterates over all installed routes in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &NextHop)> {
        self.trie.iter()
    }

    /// Removes every route.
    pub fn clear(&mut self) {
        if !self.trie.is_empty() {
            self.generation += 1;
        }
        self.trie.clear();
    }

    /// Number of trie nodes behind the installed routes (the root
    /// table counts as one).
    pub fn node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Bytes of heap the table holds: node chunks plus the root table.
    pub fn heap_bytes(&self) -> usize {
        self.trie.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(last: u8) -> NextHop {
        NextHop::new(Ipv4Addr::new(192, 0, 2, last), last)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut fib = Fib::new();
        assert!(fib.is_empty());
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(1));
        fib.insert("10.1.0.0/16".parse().unwrap(), hop(2));
        assert_eq!(fib.len(), 2);
        assert_eq!(fib.lookup(Ipv4Addr::new(10, 1, 0, 5)), Some(&hop(2)));
        assert_eq!(fib.lookup(Ipv4Addr::new(10, 2, 0, 5)), Some(&hop(1)));
        assert_eq!(fib.remove(&"10.1.0.0/16".parse().unwrap()), Some(hop(2)));
        assert_eq!(fib.lookup(Ipv4Addr::new(10, 1, 0, 5)), Some(&hop(1)));
    }

    #[test]
    fn generation_counts_effective_mutations() {
        let mut fib = Fib::new();
        let g0 = fib.generation();
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(1));
        let g1 = fib.generation();
        assert!(g1 > g0);
        // Removing a missing prefix is not a mutation.
        fib.remove(&"11.0.0.0/8".parse().unwrap());
        assert_eq!(fib.generation(), g1);
        // Replacing is a mutation.
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(2));
        assert!(fib.generation() > g1);
    }

    #[test]
    fn lookup_entry_returns_matched_prefix() {
        let mut fib = Fib::new();
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(1));
        let (prefix, _) = fib.lookup_entry(Ipv4Addr::new(10, 9, 9, 9)).unwrap();
        assert_eq!(prefix.to_string(), "10.0.0.0/8");
    }

    #[test]
    fn a_clone_and_its_original_diverge_independently() {
        let shared: Prefix = "10.1.0.0/16".parse().unwrap();
        let only_original: Prefix = "10.1.2.0/24".parse().unwrap();
        let only_clone: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut original = Fib::new();
        original.insert(shared, hop(1));
        let mut clone = original.clone();

        original.insert(only_original, hop(2));
        original.remove(&shared);
        clone.insert(only_clone, hop(3));
        clone.insert(shared, hop(4));

        let routes = |fib: &Fib| fib.iter().map(|(p, h)| (*p, *h)).collect::<Vec<_>>();
        assert_eq!(routes(&original), [(only_original, hop(2))]);
        assert_eq!(routes(&clone), [(only_clone, hop(3)), (shared, hop(4))]);
        assert_eq!(original.lookup(Ipv4Addr::new(10, 1, 9, 9)), None);
        assert_eq!(clone.lookup(Ipv4Addr::new(10, 1, 2, 9)), Some(&hop(4)));
        assert_eq!(original.node_count(), 2);
        assert_eq!(clone.node_count(), 3);
    }

    #[test]
    fn heap_bytes_is_the_root_table_until_the_first_insert() {
        let mut fib = Fib::new();
        let root_table = fib.heap_bytes();
        assert_eq!(root_table, 65_536 * 4);
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(1));
        let one_chunk = fib.heap_bytes() - root_table;
        assert!(one_chunk > 0);
        fib.insert("10.1.0.0/16".parse().unwrap(), hop(2));
        assert_eq!(fib.heap_bytes(), root_table + one_chunk);
    }

    #[test]
    fn clear_resets_routes_but_advances_generation() {
        let mut fib = Fib::new();
        fib.insert("10.0.0.0/8".parse().unwrap(), hop(1));
        let g = fib.generation();
        fib.clear();
        assert!(fib.is_empty());
        assert!(fib.generation() > g);
        // Clearing an empty FIB is a no-op.
        let g = fib.generation();
        fib.clear();
        assert_eq!(fib.generation(), g);
    }
}
