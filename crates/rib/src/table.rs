//! The engine's prefix table: a small hash index over an arena of
//! slots that never moves.
//!
//! A prefix's entry is written once, into a slot of a chunked arena,
//! and stays there until it is removed; the index maps the prefix to
//! the slot's `u32` number. Growing the table therefore rehashes
//! 12-byte index buckets and never copies an entry: every chunk keeps
//! the capacity it was allocated with, and a new chunk joins when the
//! last one fills. A removed slot drops its entry at once (an entry
//! holds interned attribute sets, and an `Arc` left behind in a dead
//! slot would keep `AttrStore::release` from evicting one) and goes on
//! a free list the next insert takes from, so a table that loses and
//! regains its routes holds the same memory.
//!
//! The table iterates in arena order: insertion order, with freed slots
//! reused. Nothing the engine promises depends on that order.

use std::collections::hash_map;

use bgpbench_wire::Prefix;

use crate::fxhash::FxHashMap;

/// Slots per arena chunk.
const CHUNK_BITS: u32 = 12;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// How much larger the index becomes each time it fills. Growth
/// rehashes every bucket, and a table loaded from empty pays for every
/// growth on the way, so growing four-fold rather than two-fold halves
/// the rehashing. It is affordable here because a bucket is 12 bytes:
/// a 250k-prefix index grown this way holds about 13 MiB, where the
/// same policy over a map holding whole entries measured a 60 MiB
/// allocation and a third more peak RSS.
const GROWTH: usize = 4;

/// One arena slot: the prefix it was last filled for and, while live,
/// its entry.
type Slot<V> = (Prefix, Option<V>);

type Chunks<V> = Vec<Vec<Slot<V>>>;

#[derive(Debug)]
pub(crate) struct PrefixTable<V> {
    index: FxHashMap<Prefix, u32>,
    /// Every chunk has capacity `CHUNK_LEN`, and all but the last are
    /// full.
    chunks: Chunks<V>,
    /// Slots whose entry was removed, reused before the arena grows.
    free: Vec<u32>,
}

impl<V> Default for PrefixTable<V> {
    fn default() -> Self {
        PrefixTable {
            index: FxHashMap::default(),
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }
}

fn slot<V>(chunks: &Chunks<V>, id: u32) -> &Slot<V> {
    let id = id as usize;
    &chunks[id >> CHUNK_BITS][id & (CHUNK_LEN - 1)]
}

fn slot_mut<V>(chunks: &mut Chunks<V>, id: u32) -> &mut Slot<V> {
    let id = id as usize;
    &mut chunks[id >> CHUNK_BITS][id & (CHUNK_LEN - 1)]
}

/// A slot for a new entry of `prefix`: a freed one if there is one,
/// else the next one in the last chunk.
fn alloc<V>(chunks: &mut Chunks<V>, free: &mut Vec<u32>, prefix: Prefix) -> u32 {
    if let Some(id) = free.pop() {
        slot_mut(chunks, id).0 = prefix;
        return id;
    }
    if chunks.last().is_none_or(|chunk| chunk.len() == CHUNK_LEN) {
        chunks.push(Vec::with_capacity(CHUNK_LEN));
    }
    let chunk = chunks.len() - 1;
    chunks[chunk].push((prefix, None));
    let id = (chunk << CHUNK_BITS) + chunks[chunk].len() - 1;
    assert!(id <= u32::MAX as usize, "more slots than a u32 id can name");
    id as u32
}

impl<V> PrefixTable<V> {
    /// Number of prefixes held.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub(crate) fn get(&self, prefix: &Prefix) -> Option<&V> {
        let id = *self.index.get(prefix)?;
        slot(&self.chunks, id).1.as_ref()
    }

    /// Makes room for `additional` more prefixes without growing the
    /// index again, growing it by [`GROWTH`] if it is too small.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let len = self.index.len();
        let capacity = self.index.capacity();
        if len + additional > capacity {
            self.index
                .reserve((len + additional).max(GROWTH * capacity) - len);
        }
    }

    /// The prefix's place in the table, for an in-place insert, update
    /// or removal with one index probe.
    pub(crate) fn entry(&mut self, prefix: Prefix) -> Entry<'_, V> {
        self.reserve(1);
        let PrefixTable {
            index,
            chunks,
            free,
        } = self;
        let found = match index.entry(prefix) {
            hash_map::Entry::Occupied(found) => found,
            index => {
                return Entry::Vacant(VacantEntry {
                    index,
                    chunks,
                    free,
                })
            }
        };
        let id = *found.get();
        match slot_mut(chunks, id).1.take() {
            Some(value) => Entry::Occupied(OccupiedEntry {
                value,
                home: &mut slot_mut(chunks, id).1,
                index: found,
                free,
            }),
            // Only a dropped `OccupiedEntry` leaves the index naming an
            // empty slot; the prefix is absent, and an insert refills
            // that slot.
            None => Entry::Vacant(VacantEntry {
                index: hash_map::Entry::Occupied(found),
                chunks,
                free,
            }),
        }
    }

    /// Every `(prefix, entry)` pair, in arena order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Prefix, &V)> {
        // A drained table keeps its chunks for the next load, every slot
        // free: walking them would cost a pass over the whole arena (a
        // session that leaves after a full-table purge pays it under the
        // core lock) and find nothing.
        let chunks = if self.is_empty() {
            &[]
        } else {
            &self.chunks[..]
        };
        chunks
            .iter()
            .flatten()
            .filter_map(|(prefix, value)| value.as_ref().map(|value| (prefix, value)))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    /// Bytes of heap the table holds: its index buckets (entry plus
    /// control byte) and its arena chunks, full or not.
    pub(crate) fn heap_bytes(&self) -> usize {
        // The index's buckets are a power of two, of which it fills
        // seven eighths (all but one below eight buckets).
        let capacity = self.index.capacity();
        let buckets = match capacity {
            0 => 0,
            1..=7 => capacity + 1,
            _ => capacity / 7 * 8,
        };
        buckets * (std::mem::size_of::<(Prefix, u32)>() + 1)
            + self.chunks.len() * CHUNK_LEN * std::mem::size_of::<Slot<V>>()
    }
}

/// A prefix's place in a [`PrefixTable`].
pub(crate) enum Entry<'a, V> {
    Vacant(VacantEntry<'a, V>),
    Occupied(OccupiedEntry<'a, V>),
}

/// A prefix the table does not hold.
pub(crate) struct VacantEntry<'a, V> {
    /// Vacant, or occupied by an empty slot an insert refills.
    index: hash_map::Entry<'a, Prefix, u32>,
    chunks: &'a mut Chunks<V>,
    free: &'a mut Vec<u32>,
}

impl<'a, V> VacantEntry<'a, V> {
    pub(crate) fn insert(self, value: V) -> &'a mut V {
        let id = match self.index {
            hash_map::Entry::Vacant(index) => {
                let id = alloc(self.chunks, self.free, *index.key());
                index.insert(id);
                id
            }
            hash_map::Entry::Occupied(index) => *index.get(),
        };
        slot_mut(self.chunks, id).1.insert(value)
    }
}

/// A prefix the table holds. Its entry is out of its slot while this
/// lives, so it must end in [`OccupiedEntry::into_mut`] or
/// [`OccupiedEntry::remove`]: dropped, it takes the entry with it.
#[must_use]
pub(crate) struct OccupiedEntry<'a, V> {
    value: V,
    home: &'a mut Option<V>,
    index: hash_map::OccupiedEntry<'a, Prefix, u32>,
    free: &'a mut Vec<u32>,
}

impl<'a, V> OccupiedEntry<'a, V> {
    pub(crate) fn get(&self) -> &V {
        &self.value
    }

    /// Puts the entry back and borrows it for as long as the table was.
    pub(crate) fn into_mut(self) -> &'a mut V {
        self.home.insert(self.value)
    }

    /// Removes the prefix, frees its slot, and hands over its entry.
    pub(crate) fn remove(self) -> V {
        self.free.push(self.index.remove());
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// A table holding `value` under `prefix`, whatever it held before.
    fn upsert(table: &mut PrefixTable<u32>, prefix: Prefix, value: u32) {
        match table.entry(prefix) {
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
            Entry::Occupied(slot) => *slot.into_mut() = value,
        }
    }

    fn remove(table: &mut PrefixTable<u32>, prefix: Prefix) -> Option<u32> {
        match table.entry(prefix) {
            Entry::Vacant(_) => None,
            Entry::Occupied(slot) => Some(slot.remove()),
        }
    }

    /// The `n`th prefix of a table shaped like today's: mostly /24s,
    /// with /16–/23 aggregates spread among them.
    fn modern(n: u32) -> Prefix {
        let mixed = n.wrapping_mul(0x9E37_79B9);
        let len = if n % 5 < 3 {
            24
        } else {
            16 + (mixed >> 29) as u8
        };
        Prefix::new_masked(Ipv4Addr::from(mixed), len).unwrap_or(Prefix::DEFAULT)
    }

    fn check_against(
        table: &PrefixTable<u32>,
        model: &BTreeMap<Prefix, u32>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(table.len(), model.len());
        prop_assert_eq!(table.is_empty(), model.is_empty());
        let mut held: Vec<(Prefix, u32)> = table.iter().map(|(p, v)| (*p, *v)).collect();
        held.sort();
        let want: Vec<(Prefix, u32)> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(held, want);
        Ok(())
    }

    #[derive(Debug, Clone)]
    enum Op {
        Upsert(u8, u32),
        Remove(u8),
        /// Remove the prefix, then insert it again: its old slot is
        /// free at that moment and the insert takes it.
        Reinsert(u8, u32),
        Get(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Upsert(k, v)),
            any::<u8>().prop_map(Op::Remove),
            (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Reinsert(k, v)),
            any::<u8>().prop_map(Op::Get),
        ]
    }

    proptest! {
        /// Any sequence of inserts, updates, removals and lookups leaves
        /// the table holding what a `BTreeMap` given the same sequence
        /// holds, and no more arena slots than it ever held prefixes.
        #[test]
        fn table_matches_a_btree_map(ops in prop::collection::vec(op(), 1..300)) {
            let mut table = PrefixTable::default();
            let mut model = BTreeMap::new();
            let mut most = 0;
            for op in ops {
                match op {
                    Op::Upsert(key, value) => {
                        upsert(&mut table, modern(u32::from(key)), value);
                        model.insert(modern(u32::from(key)), value);
                    }
                    Op::Remove(key) => {
                        let prefix = modern(u32::from(key));
                        prop_assert_eq!(remove(&mut table, prefix), model.remove(&prefix));
                    }
                    Op::Reinsert(key, value) => {
                        let prefix = modern(u32::from(key));
                        prop_assert_eq!(remove(&mut table, prefix), model.remove(&prefix));
                        upsert(&mut table, prefix, value);
                        model.insert(prefix, value);
                    }
                    Op::Get(key) => {
                        let prefix = modern(u32::from(key));
                        prop_assert_eq!(table.get(&prefix), model.get(&prefix));
                    }
                }
                most = most.max(model.len());
                let slots: usize = table.chunks.iter().map(Vec::len).sum();
                prop_assert!(slots <= most);
            }
            check_against(&table, &model)?;
        }
    }

    /// 40k prefixes fill ten chunks: load them, remove every other one,
    /// put them back with new values, and compare with the model after
    /// each step.
    #[test]
    fn forty_thousand_modern_prefixes_across_chunks() {
        let prefixes: Vec<Prefix> = (0..40_000).map(modern).collect();
        let mut table = PrefixTable::default();
        let mut model = BTreeMap::new();
        for (n, prefix) in prefixes.iter().enumerate() {
            upsert(&mut table, *prefix, n as u32);
            model.insert(*prefix, n as u32);
        }
        assert!(table.chunks.len() > 1);
        check_against(&table, &model).unwrap();
        for prefix in prefixes.iter().step_by(2) {
            assert_eq!(remove(&mut table, *prefix), model.remove(prefix));
        }
        check_against(&table, &model).unwrap();
        let chunks = table.chunks.len();
        for prefix in prefixes.iter().step_by(2) {
            upsert(&mut table, *prefix, 7);
            model.insert(*prefix, 7);
        }
        assert_eq!(table.chunks.len(), chunks, "re-inserts take freed slots");
        check_against(&table, &model).unwrap();
        for prefix in &prefixes {
            assert_eq!(table.get(prefix), model.get(prefix));
        }
    }

    #[test]
    fn removal_drops_the_entry() {
        let value = std::sync::Arc::new(());
        let mut table = PrefixTable::default();
        let prefix = modern(1);
        if let Entry::Vacant(slot) = table.entry(prefix) {
            slot.insert(std::sync::Arc::clone(&value));
        }
        assert_eq!(std::sync::Arc::strong_count(&value), 2);
        if let Entry::Occupied(slot) = table.entry(prefix) {
            drop(slot.remove());
        }
        assert_eq!(std::sync::Arc::strong_count(&value), 1);
        assert!(table.is_empty());
    }

    #[test]
    fn heap_bytes_grows_by_whole_chunks_and_survives_a_reload() {
        // Distinct /24s, one per slot.
        let nth = |n: u32| Prefix::new_masked(Ipv4Addr::from(n << 8), 24).unwrap();
        let mut table = PrefixTable::default();
        assert_eq!(table.heap_bytes(), 0);
        upsert(&mut table, nth(0), 0);
        let one = table.heap_bytes();
        let chunk = CHUNK_LEN * std::mem::size_of::<Slot<u32>>();
        assert!(one > chunk);
        // The index alone moves while the first chunk fills.
        table.reserve(CHUNK_LEN);
        let index_only = table.heap_bytes() - chunk;
        for n in 1..CHUNK_LEN as u32 {
            upsert(&mut table, nth(n), n);
        }
        assert_eq!(table.heap_bytes(), chunk + index_only);
        upsert(&mut table, nth(CHUNK_LEN as u32), 0);
        let loaded = table.heap_bytes();
        assert!(loaded > 2 * chunk);
        // Withdraw everything and announce it again: slots are reused,
        // so nothing grows.
        for cycle in 0..2 {
            for n in 0..=CHUNK_LEN as u32 {
                assert!(remove(&mut table, nth(n)).is_some());
            }
            assert!(table.is_empty());
            for n in 0..=CHUNK_LEN as u32 {
                upsert(&mut table, nth(n), cycle);
            }
            assert_eq!(table.heap_bytes(), loaded);
        }
    }

    #[test]
    fn the_index_grows_four_fold() {
        let mut table: PrefixTable<u32> = PrefixTable::default();
        table.reserve(1000);
        let before = table.index.capacity();
        table.reserve(before + 1);
        assert!(table.index.capacity() >= GROWTH * before);
    }
}
