//! Hash-consing of path-attribute sets.
//!
//! An UPDATE shares one attribute set across all its prefixes (the
//! benchmark's 500-prefix "large packet" scenarios make the ratio
//! explicit). Across messages, the workloads this repo runs share
//! almost nothing: both table generators draw a fresh AS path for every
//! UPDATE, and traced at seed 4242 the store's hit ratio is 0.000 on
//! `startup_small`, 0.002 on `fulltable_large` and 0.003 on
//! `churn_flood`. The [`AttrStore`] is what lets sets that do recur be
//! kept once: every attribute set admitted to the RIB is canonicalized
//! through [`AttrStore::intern`], so
//!
//! * each distinct set is allocated exactly once per engine,
//! * equality between admitted sets degenerates to [`Arc::ptr_eq`], and
//! * Adj-RIB-Out grouping can key on pointer identity.
//!
//! The store owns one [`Arc`] per entry. When the engine drops a RIB
//! reference it calls [`AttrStore::release`]; an entry whose only
//! remaining owner is the store itself is removed, so withdraw storms
//! cannot grow the table without bound.

use std::sync::Arc;

use crate::fxhash::FxHashSet;
use crate::route::RouteAttributes;

/// Interning statistics, exposed for benchmarks and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrStoreStats {
    /// `intern` calls that found an existing entry.
    pub hits: u64,
    /// `intern` calls that allocated a new entry.
    pub misses: u64,
    /// Entries dropped because the last RIB reference was released.
    pub released: u64,
}

impl AttrStoreStats {
    /// Fraction of `intern` calls served from the table (0 when the
    /// store was never used).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A hash-consing table mapping canonical [`RouteAttributes`] values to
/// shared [`Arc`] allocations.
///
/// ```
/// use bgpbench_rib::{AttrStore, RouteAttributes};
/// use bgpbench_wire::{AsPath, Asn, Origin};
/// use std::net::Ipv4Addr;
/// use std::sync::Arc;
///
/// let mut store = AttrStore::new();
/// let make = || RouteAttributes::new(
///     Origin::Igp,
///     AsPath::from_sequence([Asn(65001)]),
///     Ipv4Addr::new(10, 0, 0, 2),
/// );
/// let a = store.intern(make());
/// let b = store.intern(make());
/// assert!(Arc::ptr_eq(&a, &b));
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct AttrStore {
    table: FxHashSet<Arc<RouteAttributes>>,
    stats: AttrStoreStats,
}

impl AttrStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        AttrStore::default()
    }

    /// Number of distinct attribute sets currently interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no attribute sets are interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Accumulated hit/miss/release counters.
    pub fn stats(&self) -> AttrStoreStats {
        self.stats
    }

    /// Iterates over the interned attribute sets in arbitrary order.
    /// The sharded engine uses this to count distinct attribute
    /// *values* across per-shard stores (the same set interned in two
    /// shards is two entries but one value).
    pub fn iter(&self) -> impl Iterator<Item = &Arc<RouteAttributes>> {
        self.table.iter()
    }

    /// Canonicalizes `attrs`: returns the shared [`Arc`] for an
    /// existing equal entry, or allocates, records, and returns a new
    /// one. Two interned sets are value-equal iff they are pointer-equal.
    pub fn intern(&mut self, attrs: RouteAttributes) -> Arc<RouteAttributes> {
        if let Some(existing) = self.table.get(&attrs) {
            self.stats.hits += 1;
            return existing.clone();
        }
        self.stats.misses += 1;
        let arc = Arc::new(attrs);
        self.table.insert(arc.clone());
        arc
    }

    /// Returns a RIB reference to the store. If the caller's `Arc` was
    /// the last reference outside the store, the entry is dropped —
    /// this is what keeps the table from growing without bound across
    /// withdraw storms.
    ///
    /// Passing an `Arc` that did not come from this store is harmless:
    /// the pointer-identity check below refuses to remove anything else.
    pub fn release(&mut self, attrs: Arc<RouteAttributes>) {
        // Two owners left = the store's entry + the Arc being released.
        if Arc::strong_count(&attrs) != 2 {
            return;
        }
        let is_ours = self
            .table
            .get(&*attrs)
            .is_some_and(|entry| Arc::ptr_eq(entry, &attrs));
        if is_ours {
            self.table.remove(&*attrs);
            self.stats.released += 1;
        }
    }

    /// Sweeps every entry no RIB reference holds anymore. [`release`]
    /// collects eagerly, so this is only a safety valve for callers
    /// that drop interned `Arc`s without telling the store.
    ///
    /// [`release`]: AttrStore::release
    pub fn prune(&mut self) -> usize {
        let before = self.table.len();
        self.table.retain(|entry| Arc::strong_count(entry) > 1);
        let removed = before - self.table.len();
        self.stats.released += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpbench_wire::{AsPath, Asn, Origin};
    use std::net::Ipv4Addr;

    fn attrs(seed: u16) -> RouteAttributes {
        RouteAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(seed)]),
            Ipv4Addr::new(10, 0, 0, 2),
        )
    }

    #[test]
    fn intern_dedups_equal_sets() {
        let mut store = AttrStore::new();
        let a = store.intern(attrs(1));
        let b = store.intern(attrs(1));
        let c = store.intern(attrs(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn release_drops_the_last_reference() {
        let mut store = AttrStore::new();
        let a = store.intern(attrs(1));
        let b = a.clone();
        // Two outside owners: releasing one keeps the entry.
        store.release(a);
        assert_eq!(store.len(), 1);
        // Releasing the last outside owner drops it.
        store.release(b);
        assert!(store.is_empty());
        assert_eq!(store.stats().released, 1);
    }

    #[test]
    fn release_ignores_foreign_arcs() {
        let mut store = AttrStore::new();
        let ours = store.intern(attrs(1));
        // Value-equal but separately allocated: must not evict the
        // entry other holders still share.
        let foreign = Arc::new(attrs(1));
        store.release(foreign);
        assert_eq!(store.len(), 1);
        drop(ours);
        assert_eq!(store.len(), 1); // dropped without release: prune's job
        assert_eq!(store.prune(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn prune_keeps_live_entries() {
        let mut store = AttrStore::new();
        let live = store.intern(attrs(1));
        let _dead = store.intern(attrs(2));
        drop(_dead);
        assert_eq!(store.prune(), 1);
        assert_eq!(store.len(), 1);
        assert!(Arc::ptr_eq(&store.intern(attrs(1)), &live));
    }
}
