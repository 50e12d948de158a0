//! Property-based and differential tests: the oracle trie against a
//! naive reference and `CompressedTrie` against the oracle.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use bgpbench_fib::CompressedTrie;
use bgpbench_speaker::ModernTableGenerator;
use bgpbench_wire::Prefix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod oracle;
use oracle::LpmTrie;

/// Naive reference: linear scan over a map, longest match wins.
#[derive(Default)]
struct NaiveLpm {
    entries: BTreeMap<Prefix, u32>,
}

impl NaiveLpm {
    fn insert(&mut self, prefix: Prefix, value: u32) -> Option<u32> {
        self.entries.insert(prefix, value)
    }

    fn remove(&mut self, prefix: &Prefix) -> Option<u32> {
        self.entries.remove(prefix)
    }

    fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, u32)> {
        self.entries
            .iter()
            .filter(|(prefix, _)| prefix.contains(addr))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(prefix, value)| (*prefix, *value))
    }
}

/// One step: an operation on `prefix`, after which `prefix` and `addr`
/// are looked up in both tries.
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    prefix: Prefix,
    addr: Ipv4Addr,
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Remove,
    Probe,
}

/// The top 16 address bits the generated prefixes fall under: the two
/// halves of one /15, a /16 far from them, and the first and last /16
/// of the address space.
const BUCKETS: [u32; 5] = [0x0A00, 0x0A01, 0xAC14, 0x0000, 0xFFFF];

/// A few low halves, so prefixes and addresses collide and nest.
const HOSTS: [u32; 6] = [0x0000, 0x0001, 0x8000, 0x8080, 0x80FF, 0xFFFF];

fn masked(bucket: u32, host: u32, len: u8) -> Prefix {
    Prefix::new_masked(Ipv4Addr::from(bucket << 16 | host), len).unwrap()
}

/// Prefixes on both sides of the trie's /16 root boundary.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    prop_oneof![
        // Any length over a handful of addresses: lengths below 16 land
        // in the short trie (the default route among them), the rest in
        // one of five /16s.
        (0usize..5, 0usize..6, 0u8..=32).prop_map(|(b, h, len)| masked(BUCKETS[b], HOSTS[h], len)),
        // The lengths around the boundary, all of the same address.
        (0usize..5).prop_map(|i| masked(0x0A01, 0, [0, 15, 16, 17, 32][i])),
        // Many prefixes inside one /16.
        (any::<u16>(), 16u8..=32).prop_map(|(host, len)| masked(0x0A01, u32::from(host), len)),
    ]
}

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![
        (0usize..5, 0usize..6).prop_map(|(b, h)| Ipv4Addr::from(BUCKETS[b] << 16 | HOSTS[h])),
        any::<u16>().prop_map(|host| Ipv4Addr::from(0x0A01_0000 | u32::from(host))),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Insert is listed twice so that tables grow.
    let op = prop_oneof![
        any::<u32>().prop_map(Op::Insert),
        any::<u32>().prop_map(Op::Insert),
        Just(Op::Remove),
        Just(Op::Probe),
    ];
    (op, arb_prefix(), arb_addr()).prop_map(|(op, prefix, addr)| Step { op, prefix, addr })
}

fn contents<'a>(iter: impl Iterator<Item = (&'a Prefix, &'a u32)>) -> Vec<(Prefix, u32)> {
    iter.map(|(p, v)| (*p, *v)).collect()
}

proptest! {
    #[test]
    fn oracle_matches_naive_reference(steps in prop::collection::vec(arb_step(), 1..200)) {
        let mut trie = LpmTrie::new();
        let mut naive = NaiveLpm::default();
        for Step { op, prefix, addr } in steps {
            match op {
                Op::Insert(value) => {
                    prop_assert_eq!(trie.insert(prefix, value), naive.insert(prefix, value));
                }
                Op::Remove => prop_assert_eq!(trie.remove(&prefix), naive.remove(&prefix)),
                Op::Probe => {}
            }
            let got = trie.lookup(addr).map(|(p, v)| (*p, *v));
            prop_assert_eq!(got, naive.lookup(addr));
            prop_assert_eq!(trie.len(), naive.entries.len());
        }
        // Final full sweep: iteration agrees with the reference map.
        let from_naive: Vec<(Prefix, u32)> =
            naive.entries.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(contents(trie.iter()), from_naive);
    }

    /// The path-compressed trie must agree with the oracle under any
    /// operation sequence, on both sides of its /16 root, while never
    /// using more nodes than one per branch point plus leaves.
    #[test]
    fn compressed_trie_matches_the_oracle(steps in prop::collection::vec(arb_step(), 1..200)) {
        let mut oracle = LpmTrie::new();
        let mut trie = CompressedTrie::new();
        for Step { op, prefix, addr } in steps {
            match op {
                Op::Insert(value) => {
                    prop_assert_eq!(trie.insert(prefix, value), oracle.insert(prefix, value));
                }
                Op::Remove => prop_assert_eq!(trie.remove(&prefix), oracle.remove(&prefix)),
                Op::Probe => {}
            }
            prop_assert_eq!(trie.get(&prefix), oracle.get(&prefix));
            prop_assert_eq!(trie.contains(&prefix), oracle.contains(&prefix));
            prop_assert_eq!(trie.lookup(addr), oracle.lookup(addr));
            prop_assert_eq!(trie.len(), oracle.len());
            // Path compression bound: at most 2·entries + 1 nodes
            // (every entry adds at most one leaf and one split node).
            prop_assert!(trie.node_count() <= 2 * trie.len() + 1);
        }
        let held = contents(oracle.iter());
        prop_assert_eq!(contents(trie.iter()), held.clone());

        // Draining gives every node back, emptied /16 roots included,
        // and loading the same set again fits in what was given back.
        let bytes = trie.heap_bytes();
        for (prefix, value) in &held {
            prop_assert_eq!(trie.remove(prefix), Some(*value));
        }
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.node_count(), 1);
        prop_assert_eq!(trie.iter().count(), 0);
        for (prefix, value) in &held {
            prop_assert_eq!(trie.insert(*prefix, *value), None);
        }
        prop_assert_eq!(trie.heap_bytes(), bytes);
        prop_assert_eq!(contents(trie.iter()), held);
    }
}

/// A modern-Internet table, large enough to span several arena chunks:
/// load, look up, remove half, look up again, drain, and load again.
#[test]
fn modern_table_matches_the_oracle_from_load_to_drain() {
    let table = ModernTableGenerator::new(13).generate(50_000);
    let mut trie = CompressedTrie::new();
    let mut oracle = LpmTrie::new();
    for (i, prefix) in table.iter().enumerate() {
        assert_eq!(trie.insert(*prefix, i), oracle.insert(*prefix, i));
    }
    assert_eq!(trie.len(), table.len());
    let loaded_bytes = trie.heap_bytes();

    // Half the probes fall inside a table prefix, half anywhere.
    let mut rng = StdRng::seed_from_u64(13);
    let mut compare_lookups = |trie: &CompressedTrie<usize>, oracle: &LpmTrie<usize>| {
        for i in 0..100_000 {
            let random: u32 = rng.gen();
            let bits = if i % 2 == 0 {
                let prefix = table[random as usize % table.len()];
                prefix.network_bits() | random.checked_shr(u32::from(prefix.len())).unwrap_or(0)
            } else {
                random
            };
            let addr = Ipv4Addr::from(bits);
            assert_eq!(trie.lookup(addr), oracle.lookup(addr), "{addr}");
        }
    };
    compare_lookups(&trie, &oracle);

    for prefix in table.iter().step_by(2) {
        assert_eq!(trie.remove(prefix), oracle.remove(prefix));
    }
    assert_eq!(trie.len(), oracle.len());
    assert!(trie.node_count() <= 2 * trie.len() + 1);
    compare_lookups(&trie, &oracle);
    assert!(trie.iter().eq(oracle.iter()));

    // The second pass over the removed half finds nothing to remove.
    for prefix in &table {
        assert_eq!(trie.remove(prefix), oracle.remove(prefix));
    }
    assert!(trie.is_empty());
    assert_eq!(trie.node_count(), 1);

    // Reloading reuses the freed nodes: no new chunk.
    for (i, prefix) in table.iter().enumerate() {
        assert_eq!(trie.insert(*prefix, i), None);
    }
    assert_eq!(trie.heap_bytes(), loaded_bytes);
}
