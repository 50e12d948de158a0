//! The test oracle: a binary trie keyed by IPv4 prefixes with
//! longest-prefix-match lookup. It was the crate's first FIB structure;
//! one `Box` per prefix bit makes it far too slow to forward with and
//! simple enough to check `CompressedTrie` against.

use std::net::Ipv4Addr;

use bgpbench_wire::Prefix;

#[derive(Debug, Clone)]
struct Node<T> {
    children: [Option<Box<Node<T>>>; 2],
    entry: Option<(Prefix, T)>,
}

impl<T> Node<T> {
    fn empty() -> Self {
        Node {
            children: [None, None],
            entry: None,
        }
    }

    fn is_leafless(&self) -> bool {
        self.entry.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A binary (one bit per level) trie over IPv4 prefixes.
///
/// This is the textbook FIB structure surveyed by Ruiz-Sánchez et al.
/// (cited as the paper's reference \[9\]); lookups walk at most 32 levels
/// and track the last node that carried an entry, yielding the longest
/// matching prefix.
#[derive(Debug, Clone)]
pub struct LpmTrie<T> {
    root: Node<T>,
    len: usize,
}

impl<T> Default for LpmTrie<T> {
    fn default() -> Self {
        LpmTrie::new()
    }
}

impl<T> LpmTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        LpmTrie {
            root: Node::empty(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` under `prefix`, returning the previous value for
    /// that exact prefix if there was one.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut node = &mut self.root;
        for depth in 0..prefix.len() {
            let bit = bit_at(prefix.network_bits(), depth);
            node = node.children[bit].get_or_insert_with(|| Box::new(Node::empty()));
        }
        let old = node.entry.replace((prefix, value));
        match old {
            Some((_, value)) => Some(value),
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Removes the entry stored under exactly `prefix`, pruning any
    /// branches left empty.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let (removed, _) = Self::remove_rec(&mut self.root, prefix, 0);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node<T>, prefix: &Prefix, depth: u8) -> (Option<T>, bool) {
        if depth == prefix.len() {
            let removed = node.entry.take().map(|(_, value)| value);
            return (removed, node.is_leafless());
        }
        let bit = bit_at(prefix.network_bits(), depth);
        let Some(child) = node.children[bit].as_deref_mut() else {
            return (None, false);
        };
        let (removed, prune_child) = Self::remove_rec(child, prefix, depth + 1);
        if prune_child {
            node.children[bit] = None;
        }
        let prune_self = removed.is_some() && node.is_leafless();
        (removed, prune_self)
    }

    /// Returns the value stored under exactly `prefix`.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut node = &self.root;
        for depth in 0..prefix.len() {
            let bit = bit_at(prefix.network_bits(), depth);
            node = node.children[bit].as_deref()?;
        }
        match &node.entry {
            Some((stored, value)) if stored == prefix => Some(value),
            _ => None,
        }
    }

    /// Returns a mutable reference to the value stored under exactly
    /// `prefix`.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut T> {
        let mut node = &mut self.root;
        for depth in 0..prefix.len() {
            let bit = bit_at(prefix.network_bits(), depth);
            node = node.children[bit].as_deref_mut()?;
        }
        match &mut node.entry {
            Some((stored, value)) if stored == prefix => Some(value),
            _ => None,
        }
    }

    /// Whether an entry exists under exactly `prefix`.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Longest-prefix-match lookup: the most specific stored prefix
    /// containing `addr`, with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(&Prefix, &T)> {
        let bits = u32::from(addr);
        let mut best = self.root.entry.as_ref();
        let mut node = &self.root;
        for depth in 0..32u8 {
            let bit = bit_at(bits, depth);
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    if node.entry.is_some() {
                        best = node.entry.as_ref();
                    }
                }
                None => break,
            }
        }
        best.map(|(prefix, value)| (prefix, value))
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic
    /// (address, then length) order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            stack: vec![&self.root],
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.root = Node::empty();
        self.len = 0;
    }
}

impl<T> FromIterator<(Prefix, T)> for LpmTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut trie = LpmTrie::new();
        for (prefix, value) in iter {
            trie.insert(prefix, value);
        }
        trie
    }
}

impl<T> Extend<(Prefix, T)> for LpmTrie<T> {
    fn extend<I: IntoIterator<Item = (Prefix, T)>>(&mut self, iter: I) {
        for (prefix, value) in iter {
            self.insert(prefix, value);
        }
    }
}

/// Iterator over trie entries, produced by [`LpmTrie::iter`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    stack: Vec<&'a Node<T>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (&'a Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(node) = self.stack.pop() {
            // Push right then left so the shorter/lower branch pops
            // first; parent entries emit before children (shorter
            // prefixes first at equal addresses).
            if let Some(right) = node.children[1].as_deref() {
                self.stack.push(right);
            }
            if let Some(left) = node.children[0].as_deref() {
                self.stack.push(left);
            }
            if let Some((prefix, value)) = &node.entry {
                return Some((prefix, value));
            }
        }
        None
    }
}

fn bit_at(bits: u32, depth: u8) -> usize {
    ((bits >> (31 - depth)) & 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(text: &str) -> Prefix {
        text.parse().unwrap()
    }

    #[test]
    fn empty_trie_lookup_is_none() {
        let trie: LpmTrie<u32> = LpmTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.lookup(Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut trie = LpmTrie::new();
        trie.insert(p("0.0.0.0/0"), 7);
        let (prefix, value) = trie.lookup(Ipv4Addr::new(203, 0, 113, 9)).unwrap();
        assert!(prefix.is_default());
        assert_eq!(*value, 7);
    }

    #[test]
    fn longest_match_wins() {
        let mut trie = LpmTrie::new();
        trie.insert(p("0.0.0.0/0"), 0);
        trie.insert(p("10.0.0.0/8"), 8);
        trie.insert(p("10.1.0.0/16"), 16);
        trie.insert(p("10.1.2.0/24"), 24);
        let cases = [
            (Ipv4Addr::new(11, 0, 0, 1), 0),
            (Ipv4Addr::new(10, 9, 9, 9), 8),
            (Ipv4Addr::new(10, 1, 9, 9), 16),
            (Ipv4Addr::new(10, 1, 2, 9), 24),
        ];
        for (addr, expected) in cases {
            assert_eq!(*trie.lookup(addr).unwrap().1, expected, "{addr}");
        }
    }

    #[test]
    fn insert_replaces_and_reports_old_value() {
        let mut trie = LpmTrie::new();
        assert_eq!(trie.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(&p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn get_requires_exact_prefix() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        assert_eq!(trie.get(&p("10.0.0.0/16")), None);
        assert_eq!(trie.get(&p("10.0.0.0/8")), Some(&1));
        assert!(!trie.contains(&p("11.0.0.0/8")));
    }

    #[test]
    fn remove_returns_value_and_shrinks() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        trie.insert(p("10.1.0.0/16"), 2);
        assert_eq!(trie.remove(&p("10.1.0.0/16")), Some(2));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.remove(&p("10.1.0.0/16")), None);
        // The /8 must still be reachable.
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 1, 0, 1)).unwrap().1, 1);
    }

    #[test]
    fn remove_prunes_but_keeps_ancestors_with_entries() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        trie.insert(p("10.1.2.0/24"), 2);
        assert_eq!(trie.remove(&p("10.1.2.0/24")), Some(2));
        assert_eq!(trie.get(&p("10.0.0.0/8")), Some(&1));
        assert_eq!(trie.remove(&p("10.0.0.0/8")), Some(1));
        assert!(trie.is_empty());
        // Root survives full pruning and accepts new entries.
        trie.insert(p("0.0.0.0/0"), 9);
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn remove_intermediate_keeps_descendants() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        trie.insert(p("10.1.0.0/16"), 2);
        assert_eq!(trie.remove(&p("10.0.0.0/8")), Some(1));
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 1, 0, 1)).unwrap().1, 2);
        // Address outside the /16 no longer matches anything.
        assert_eq!(trie.lookup(Ipv4Addr::new(10, 2, 0, 1)), None);
    }

    #[test]
    fn host_routes_at_depth_32() {
        let mut trie = LpmTrie::new();
        trie.insert(p("192.0.2.1/32"), 1);
        trie.insert(p("192.0.2.0/24"), 2);
        assert_eq!(*trie.lookup(Ipv4Addr::new(192, 0, 2, 1)).unwrap().1, 1);
        assert_eq!(*trie.lookup(Ipv4Addr::new(192, 0, 2, 2)).unwrap().1, 2);
    }

    #[test]
    fn iter_yields_sorted_entries() {
        let mut trie = LpmTrie::new();
        let prefixes = [
            "10.0.0.0/8",
            "9.0.0.0/8",
            "10.0.0.0/16",
            "0.0.0.0/0",
            "11.1.0.0/16",
        ];
        for (i, text) in prefixes.iter().enumerate() {
            trie.insert(p(text), i);
        }
        let collected: Vec<Prefix> = trie.iter().map(|(prefix, _)| *prefix).collect();
        let mut sorted = collected.clone();
        sorted.sort();
        assert_eq!(collected, sorted);
        assert_eq!(collected.len(), prefixes.len());
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        *trie.get_mut(&p("10.0.0.0/8")).unwrap() = 5;
        assert_eq!(trie.get(&p("10.0.0.0/8")), Some(&5));
        assert_eq!(trie.get_mut(&p("12.0.0.0/8")), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut trie: LpmTrie<u32> = [(p("10.0.0.0/8"), 1), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        trie.extend([(p("12.0.0.0/8"), 3)]);
        assert_eq!(trie.len(), 3);
    }

    #[test]
    fn clear_empties_the_trie() {
        let mut trie = LpmTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        trie.clear();
        assert!(trie.is_empty());
        assert_eq!(trie.lookup(Ipv4Addr::new(10, 0, 0, 1)), None);
    }

    #[test]
    fn sibling_branches_are_independent() {
        let mut trie = LpmTrie::new();
        trie.insert(p("128.0.0.0/1"), 1);
        trie.insert(p("0.0.0.0/1"), 0);
        assert_eq!(*trie.lookup(Ipv4Addr::new(200, 0, 0, 1)).unwrap().1, 1);
        assert_eq!(*trie.lookup(Ipv4Addr::new(100, 0, 0, 1)).unwrap().1, 0);
        trie.remove(&p("128.0.0.0/1"));
        assert_eq!(trie.lookup(Ipv4Addr::new(200, 0, 0, 1)), None);
        assert_eq!(*trie.lookup(Ipv4Addr::new(100, 0, 0, 1)).unwrap().1, 0);
    }
}
