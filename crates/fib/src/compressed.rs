//! A path-compressed (Patricia/radix) trie — the classic software
//! longest-prefix-match structure, per the lookup-algorithm survey the
//! paper cites (Ruiz-Sánchez et al., reference [9]).
//!
//! Chains of single-child nodes are collapsed into one node labelled
//! with the common prefix, so a walk touches O(distinct branch points)
//! nodes instead of O(32). Two things keep a full-table walk out of
//! main memory:
//!
//! * **A direct /16 root.** Every prefix of length ≥ 16 lives in the
//!   sub-trie of its /16, found by indexing a 65 536-entry table with
//!   the top 16 address bits; the few shorter prefixes share one
//!   ordinary trie. A walk is the table load plus the 3–6 nodes below
//!   it, not the ~20 dependent loads a single-rooted trie of 500k
//!   prefixes needs. Any match in an address's /16 is longer than any
//!   match among the short prefixes, so looking the short trie up only
//!   when the /16 had no match is still longest-prefix match.
//! * **A chunked arena.** Nodes sit in fixed-size chunks and name each
//!   other by `u32` id, with removed nodes recycled through a free
//!   list: no allocation per node, 24-byte nodes for a next hop, and a
//!   table that grows by whole chunks without ever being copied (one
//!   growing `Vec` was measured: each doubling leaves a hole behind,
//!   and peak RSS at 500k prefixes rose 14.5 %).

use std::net::Ipv4Addr;

use bgpbench_wire::Prefix;

/// "No node". Node ids are arena index + 1, so a zeroed root table —
/// which the allocator can hand out without touching its pages — is an
/// empty one.
const NIL: u32 = 0;

/// Nodes per arena chunk.
const CHUNK_BITS: u32 = 14;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// Prefixes at least this long are filed under their top `ROOT_BITS`
/// address bits.
const ROOT_BITS: u8 = 16;

#[derive(Debug, Clone)]
struct Node<T> {
    /// The absolute prefix this node stands for (its "label").
    key: Prefix,
    entry: Option<T>,
    /// Children branch on the bit at depth `key.len()`. A node without
    /// an entry always has both: it exists only as a branch point. On
    /// the free list, `children[0]` is the next free node.
    children: [u32; 2],
}

impl<T> Node<T> {
    fn leaf(key: Prefix, value: T) -> Self {
        Node {
            key,
            entry: Some(value),
            children: [NIL, NIL],
        }
    }
}

/// Where a node id is stored: the place an insert or a removal rewrites
/// to hang a different node there.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The top of the trie of prefixes shorter than `ROOT_BITS`.
    Short,
    /// The top of one /16's sub-trie.
    Bucket(usize),
    /// A child link of the node with this id.
    Child(u32, usize),
}

/// A path-compressed LPM trie over IPv4 prefixes.
///
/// ```
/// use bgpbench_fib::CompressedTrie;
/// use std::net::Ipv4Addr;
///
/// let mut trie = CompressedTrie::new();
/// trie.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// trie.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (prefix, value) = trie.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
/// assert_eq!(*value, "fine");
/// assert_eq!(prefix.len(), 16);
/// ```
#[derive(Debug)]
pub struct CompressedTrie<T> {
    /// The arena. Every chunk has capacity `CHUNK_LEN` and all but the
    /// last are full.
    chunks: Vec<Vec<Node<T>>>,
    /// Head of the free list.
    free: u32,
    /// Nodes in use (allocated and not on the free list).
    live: usize,
    short: u32,
    roots: Vec<u32>,
    len: usize,
}

impl<T: Clone> Clone for CompressedTrie<T> {
    fn clone(&self) -> Self {
        // Not `Vec::clone`, which sizes the last chunk to its length
        // and leaves the copy's next insert to reallocate it.
        let chunks = self.chunks.iter().map(|chunk| {
            let mut copy = Vec::with_capacity(CHUNK_LEN);
            copy.extend_from_slice(chunk);
            copy
        });
        CompressedTrie {
            chunks: chunks.collect(),
            roots: self.roots.clone(),
            ..*self
        }
    }
}

impl<T> Default for CompressedTrie<T> {
    fn default() -> Self {
        CompressedTrie::new()
    }
}

impl<T> CompressedTrie<T> {
    /// Creates an empty trie. Only the root table is allocated; the
    /// first chunk comes with the first insert.
    pub fn new() -> Self {
        CompressedTrie {
            chunks: Vec::new(),
            free: NIL,
            live: 0,
            short: NIL,
            roots: vec![NIL; 1 << ROOT_BITS],
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

    fn node(&self, id: u32) -> &Node<T> {
        let index = (id - 1) as usize;
        &self.chunks[index >> CHUNK_BITS][index & (CHUNK_LEN - 1)]
    }

    fn node_mut(&mut self, id: u32) -> &mut Node<T> {
        let index = (id - 1) as usize;
        &mut self.chunks[index >> CHUNK_BITS][index & (CHUNK_LEN - 1)]
    }

    /// Stores `node`, in a recycled slot if there is one.
    fn alloc(&mut self, node: Node<T>) -> u32 {
        self.live += 1;
        if self.free != NIL {
            let id = self.free;
            let recycled = std::mem::replace(self.node_mut(id), node);
            self.free = recycled.children[0];
            return id;
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK_LEN) {
            self.chunks.push(Vec::with_capacity(CHUNK_LEN));
        }
        let chunk = self.chunks.len() - 1;
        self.chunks[chunk].push(node);
        let id = (chunk << CHUNK_BITS) + self.chunks[chunk].len();
        assert!(id <= u32::MAX as usize, "more nodes than a u32 id can name");
        id as u32
    }

    /// Puts the node on the free list, dropping what it held.
    fn release(&mut self, id: u32) {
        self.live -= 1;
        let next = self.free;
        self.free = id;
        let node = self.node_mut(id);
        node.entry = None;
        node.children = [next, NIL];
    }

    /// The slot holding the top of the trie `prefix` belongs to.
    fn top_slot(prefix: &Prefix) -> Slot {
        if prefix.len() >= ROOT_BITS {
            Slot::Bucket(bucket_of(prefix.network_bits()))
        } else {
            Slot::Short
        }
    }

    fn link(&self, slot: Slot) -> u32 {
        match slot {
            Slot::Short => self.short,
            Slot::Bucket(bucket) => self.roots[bucket],
            Slot::Child(id, bit) => self.node(id).children[bit],
        }
    }

    fn set_link(&mut self, slot: Slot, id: u32) {
        match slot {
            Slot::Short => self.short = id,
            Slot::Bucket(bucket) => self.roots[bucket] = id,
            Slot::Child(parent, bit) => self.node_mut(parent).children[bit] = id,
        }
    }

    /// Inserts `value` under `prefix`, returning the previous value
    /// for that exact prefix if there was one.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        // `slot` is where `id` was read from.
        let mut slot = Self::top_slot(&prefix);
        let mut id = self.link(slot);
        while id != NIL {
            let node = self.node_mut(id);
            let key = node.key;
            let common = common_prefix_len(&key, &prefix);
            if common == key.len() {
                // The node's key is a prefix of `prefix`.
                if prefix.len() == key.len() {
                    let old = node.entry.replace(value);
                    if old.is_none() {
                        self.len += 1;
                    }
                    return old;
                }
                let bit = bit_at(prefix.network_bits(), key.len());
                slot = Slot::Child(id, bit);
                id = node.children[bit];
                continue;
            }
            // The keys part ways above this node: a node for their
            // common prefix takes its place and adopts it. Both keys
            // belong to this trie, so their common prefix does too.
            let mut split = Node {
                key: prefix.truncated(common),
                entry: None,
                children: [NIL, NIL],
            };
            split.children[bit_at(key.network_bits(), common)] = id;
            if prefix.len() == common {
                split.entry = Some(value);
            } else {
                split.children[bit_at(prefix.network_bits(), common)] =
                    self.alloc(Node::leaf(prefix, value));
            }
            let split = self.alloc(split);
            self.set_link(slot, split);
            self.len += 1;
            return None;
        }
        let leaf = self.alloc(Node::leaf(prefix, value));
        self.set_link(slot, leaf);
        self.len += 1;
        None
    }

    /// Removes the entry stored under exactly `prefix`, splicing out
    /// pass-through nodes.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        // `slot` is where `id` was read from; `parent` is the node above
        // it and the slot that one was read from.
        let mut slot = Self::top_slot(prefix);
        let mut id = self.link(slot);
        let mut parent: Option<(Slot, u32)> = None;
        loop {
            if id == NIL {
                return None;
            }
            let node = self.node(id);
            if node.key.len() >= prefix.len() {
                if node.key != *prefix {
                    return None;
                }
                break;
            }
            if !node.key.covers(prefix) {
                return None;
            }
            let bit = bit_at(prefix.network_bits(), node.key.len());
            parent = Some((slot, id));
            slot = Slot::Child(id, bit);
            id = node.children[bit];
        }
        let node = self.node_mut(id);
        let removed = node.entry.take()?;
        let children = node.children;
        self.len -= 1;
        match children {
            [NIL, NIL] => {
                self.set_link(slot, NIL);
                self.release(id);
                // A branch point left with one child passes it up. An
                // emptied /16 has no parent and just gives its root back.
                if let Some((parent_slot, parent_id)) = parent {
                    let above = self.node(parent_id);
                    if above.entry.is_none() {
                        let [left, right] = above.children;
                        self.set_link(parent_slot, if left == NIL { right } else { left });
                        self.release(parent_id);
                    }
                }
            }
            [only, NIL] | [NIL, only] => {
                self.set_link(slot, only);
                self.release(id);
            }
            // Two children: the node stays as their branch point.
            _ => {}
        }
        Some(removed)
    }

    /// Returns the value stored under exactly `prefix`.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut id = self.link(Self::top_slot(prefix));
        while id != NIL {
            let node = self.node(id);
            if node.key.len() >= prefix.len() {
                return if node.key == *prefix {
                    node.entry.as_ref()
                } else {
                    None
                };
            }
            if !node.key.covers(prefix) {
                return None;
            }
            id = node.children[bit_at(prefix.network_bits(), node.key.len())];
        }
        None
    }

    /// Whether an entry exists under exactly `prefix`.
    pub fn contains(&self, prefix: &Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(&Prefix, &T)> {
        self.longest_match(self.roots[bucket_of(u32::from(addr))], addr)
            .or_else(|| self.longest_match(self.short, addr))
    }

    /// The longest match for `addr` in the trie whose top is `id`.
    fn longest_match(&self, mut id: u32, addr: Ipv4Addr) -> Option<(&Prefix, &T)> {
        let mut best = None;
        while id != NIL {
            let node = self.node(id);
            if !node.key.contains(addr) {
                break;
            }
            if let Some(value) = &node.entry {
                best = Some((&node.key, value));
            }
            if node.key.len() == 32 {
                break;
            }
            id = node.children[bit_at(u32::from(addr), node.key.len())];
        }
        best
    }

    /// Iterates over all `(prefix, value)` pairs in [`Prefix`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &T)> {
        // Each side comes out sorted (a /16's prefixes all sort before
        // the next /16's); the short prefixes interleave with them.
        let mut short = self.preorder(std::iter::once(self.short)).peekable();
        let mut long = self.preorder(self.roots.iter().copied()).peekable();
        std::iter::from_fn(move || match (short.peek(), long.peek()) {
            (Some((s, _)), Some((l, _))) if s < l => short.next(),
            (Some(_), None) => short.next(),
            _ => long.next(),
        })
    }

    /// Pre-order walk — which is `Prefix` order — of the tries whose
    /// tops are `tops`, one after the other.
    fn preorder<'a>(
        &'a self,
        mut tops: impl Iterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = (&'a Prefix, &'a T)> + 'a {
        let mut stack = Vec::new();
        std::iter::from_fn(move || loop {
            let id = match stack.pop() {
                Some(id) => id,
                None => tops.find(|&top| top != NIL)?,
            };
            let node = self.node(id);
            let [left, right] = node.children;
            stack.extend([right, left].into_iter().filter(|&child| child != NIL));
            if let Some(value) = &node.entry {
                return Some((&node.key, value));
            }
        })
    }

    /// Removes every entry and gives the chunks back.
    pub fn clear(&mut self) {
        *self = CompressedTrie::new();
    }

    /// Number of trie nodes in use, the root table counting as one: at
    /// most `2 * len() + 1`, and 1 when empty.
    pub fn node_count(&self) -> usize {
        self.live + 1
    }

    /// Bytes of heap the trie holds: its chunks, full or not, and the
    /// root table.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_LEN * std::mem::size_of::<Node<T>>()
            + self.roots.len() * std::mem::size_of::<u32>()
    }
}

impl<T> FromIterator<(Prefix, T)> for CompressedTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut trie = CompressedTrie::new();
        for (prefix, value) in iter {
            trie.insert(prefix, value);
        }
        trie
    }
}

/// The root-table index of the /16 an address falls in.
fn bucket_of(bits: u32) -> usize {
    (bits >> (32 - u32::from(ROOT_BITS))) as usize
}

fn bit_at(bits: u32, depth: u8) -> usize {
    ((bits >> (31 - depth)) & 1) as usize
}

/// Length of the common prefix of two prefixes' network bits, capped
/// at the shorter mask.
fn common_prefix_len(a: &Prefix, b: &Prefix) -> u8 {
    let diff = a.network_bits() ^ b.network_bits();
    let agreement = diff.leading_zeros() as u8;
    agreement.min(a.len()).min(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(text: &str) -> Prefix {
        text.parse().unwrap()
    }

    #[test]
    fn basic_longest_match() {
        let mut trie = CompressedTrie::new();
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
    fn split_on_divergence() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("10.1.0.0/16"), 1);
        trie.insert(p("10.2.0.0/16"), 2);
        // The split point is 10.0.0.0/14 (bits agree through depth 14).
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 1, 5, 5)).unwrap().1, 1);
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 2, 5, 5)).unwrap().1, 2);
        assert_eq!(trie.lookup(Ipv4Addr::new(10, 3, 5, 5)), None);
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn insert_at_split_point() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("10.1.0.0/16"), 1);
        trie.insert(p("10.2.0.0/16"), 2);
        // Now insert exactly at a potential split ancestor.
        trie.insert(p("10.0.0.0/14"), 14);
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 3, 0, 1)).unwrap().1, 14);
        assert_eq!(trie.len(), 3);
    }

    #[test]
    fn replace_returns_old_value() {
        let mut trie = CompressedTrie::new();
        assert_eq!(trie.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(trie.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn remove_and_splice() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("10.1.0.0/16"), 1);
        trie.insert(p("10.2.0.0/16"), 2);
        assert_eq!(trie.remove(&p("10.1.0.0/16")), Some(1));
        assert_eq!(trie.len(), 1);
        assert_eq!(*trie.lookup(Ipv4Addr::new(10, 2, 0, 1)).unwrap().1, 2);
        assert_eq!(trie.lookup(Ipv4Addr::new(10, 1, 0, 1)), None);
        // Splicing keeps the node count minimal.
        assert!(trie.node_count() <= 2);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        assert_eq!(trie.remove(&p("10.0.0.0/16")), None);
        assert_eq!(trie.remove(&p("11.0.0.0/8")), None);
        assert_eq!(trie.remove(&p("0.0.0.0/0")), None);
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn default_route_and_host_routes() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("0.0.0.0/0"), 0);
        trie.insert(p("192.0.2.1/32"), 32);
        assert_eq!(*trie.lookup(Ipv4Addr::new(192, 0, 2, 1)).unwrap().1, 32);
        assert_eq!(*trie.lookup(Ipv4Addr::new(192, 0, 2, 2)).unwrap().1, 0);
        assert_eq!(trie.remove(&p("0.0.0.0/0")), Some(0));
        assert_eq!(trie.lookup(Ipv4Addr::new(192, 0, 2, 2)), None);
    }

    #[test]
    fn get_is_exact() {
        let mut trie = CompressedTrie::new();
        trie.insert(p("10.1.0.0/16"), 1);
        trie.insert(p("10.2.0.0/16"), 2);
        assert_eq!(trie.get(&p("10.1.0.0/16")), Some(&1));
        // The implicit split node is not gettable.
        assert_eq!(trie.get(&p("10.0.0.0/14")), None);
        assert!(!trie.contains(&p("10.0.0.0/8")));
    }

    #[test]
    fn compression_uses_far_fewer_nodes_than_depth() {
        let mut trie = CompressedTrie::new();
        // A single /32 should be root + 1 node, not 32 nodes.
        trie.insert(p("203.0.113.7/32"), 1);
        assert_eq!(trie.node_count(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut trie = CompressedTrie::new();
        for (i, text) in ["9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "11.1.0.0/16"]
            .iter()
            .enumerate()
        {
            trie.insert(p(text), i);
        }
        let keys: Vec<Prefix> = trie.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 4);
    }
}
