//! A weight-budgeted least-recently-used map, shared by the process-wide
//! caches of the workspace (value dictionaries, the profile memo, the
//! daemon's completion cache).
//!
//! Every entry carries a caller-supplied weight. After an insertion the
//! map evicts its least-recently-used entries until the weight it retains
//! fits the budget; a hit ([`Lru::get`]) or a re-insertion makes an entry
//! the most recent. An entry heavier than the whole budget is never kept.
//! Nothing is cleared wholesale, and the map's memory is O(entries): one
//! hash-map slot and one recency-index slot per entry.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

struct Slot<V> {
    value: V,
    weight: usize,
    /// Key of this entry in `Lru::recency`.
    stamp: u64,
}

/// Least-recently-used map bounded by the summed weight of its entries.
pub struct Lru<K, V> {
    budget: usize,
    retained: usize,
    tick: u64,
    slots: HashMap<K, Slot<V>>,
    /// Entries by the stamp of their last use, oldest first.
    recency: BTreeMap<u64, K>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map that retains at most `budget` units of weight.
    pub fn new(budget: usize) -> Lru<K, V> {
        Lru { budget, retained: 0, tick: 0, slots: HashMap::new(), recency: BTreeMap::new() }
    }

    /// Summed weight of the entries held; never above the budget.
    pub fn retained(&self) -> usize {
        self.retained
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots of the recency index. Equal to [`Lru::len`]: hits move an
    /// entry's slot instead of adding one.
    pub fn recency_len(&self) -> usize {
        self.recency.len()
    }

    /// The keys held, least recently used first.
    pub fn keys_by_recency(&self) -> impl Iterator<Item = &K> {
        self.recency.values()
    }

    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The value under `key`, made the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let stamp = self.stamp();
        let slot = self.slots.get_mut(key)?;
        let key = self.recency.remove(&slot.stamp).expect("every slot is indexed");
        self.recency.insert(stamp, key);
        slot.stamp = stamp;
        Some(&slot.value)
    }

    /// Put `value` under `key` as the most recently used entry, replacing
    /// any value already there, and evict least-recently-used entries
    /// until the retained weight fits the budget. Returns the evicted
    /// entries, oldest first. A `value` heavier than the budget is not
    /// kept: it comes back as the only evicted entry, and the value it
    /// replaced is dropped.
    pub fn insert(&mut self, key: K, value: V, weight: usize) -> Vec<(K, V)> {
        if let Some(old) = self.slots.remove(&key) {
            self.recency.remove(&old.stamp);
            self.retained -= old.weight;
        }
        if weight > self.budget {
            return vec![(key, value)];
        }
        let stamp = self.stamp();
        self.recency.insert(stamp, key.clone());
        self.slots.insert(key, Slot { value, weight, stamp });
        self.retained += weight;
        let mut evicted = Vec::new();
        while self.retained > self.budget {
            let (_, oldest) = self.recency.pop_first().expect("retained weight has entries");
            let slot = self.slots.remove(&oldest).expect("every index entry has a slot");
            self.retained -= slot.weight;
            evicted.push((oldest, slot.value));
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The obvious model: a vector of `(key, value, weight)`, least
    /// recently used first.
    #[derive(Default)]
    struct Model {
        budget: usize,
        entries: Vec<(u8, u32, usize)>,
    }

    impl Model {
        fn get(&mut self, key: u8) -> Option<u32> {
            let at = self.entries.iter().position(|e| e.0 == key)?;
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32, weight: usize) -> Vec<(u8, u32)> {
            self.entries.retain(|e| e.0 != key);
            if weight > self.budget {
                return vec![(key, value)];
            }
            self.entries.push((key, value, weight));
            let mut evicted = Vec::new();
            while self.entries.iter().map(|e| e.2).sum::<usize>() > self.budget {
                let (k, v, _) = self.entries.remove(0);
                evicted.push((k, v));
            }
            evicted
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Get(u8),
        Insert(u8, usize),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0u8..12).prop_map(Op::Get),
            (0u8..12, 0usize..40).prop_map(|(k, w)| Op::Insert(k, w)),
        ];
        prop::collection::vec(op, 0..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_the_reference_model(budget in 0usize..100, trace in ops()) {
            let mut lru: Lru<u8, u32> = Lru::new(budget);
            let mut model = Model { budget, ..Model::default() };
            for (step, op) in trace.iter().enumerate() {
                let value = step as u32;
                match *op {
                    Op::Get(k) => prop_assert_eq!(lru.get(&k).copied(), model.get(k), "{op:?}"),
                    Op::Insert(k, w) => {
                        let evicted = lru.insert(k, value, w);
                        prop_assert_eq!(&evicted, &model.insert(k, value, w), "{op:?}");
                        if w > budget {
                            prop_assert_eq!(lru.get(&k), None, "oversize entry kept");
                        }
                    }
                }
                let want: Vec<u8> = model.entries.iter().map(|e| e.0).collect();
                prop_assert_eq!(lru.keys_by_recency().copied().collect::<Vec<_>>(), want);
                let weight: usize = model.entries.iter().map(|e| e.2).sum();
                prop_assert_eq!(lru.retained(), weight);
                prop_assert!(lru.retained() <= budget);
                prop_assert_eq!(lru.recency_len(), lru.len());
            }
        }
    }

    #[test]
    fn hits_refresh_without_growing_the_index() {
        let mut lru: Lru<u32, &str> = Lru::new(3);
        for (k, v) in [(1, "a"), (2, "b"), (3, "c")] {
            assert!(lru.insert(k, v, 1).is_empty());
        }
        for _ in 0..1000 {
            assert_eq!(lru.get(&1), Some(&"a"));
        }
        assert_eq!(lru.recency_len(), 3);
        assert_eq!(lru.insert(4, "d", 1), vec![(2, "b")]);
        assert_eq!(lru.insert(5, "e", 3), vec![(3, "c"), (1, "a"), (4, "d")]);
        assert_eq!(lru.insert(6, "f", 4), vec![(6, "f")]);
        assert_eq!(lru.keys_by_recency().collect::<Vec<_>>(), vec![&5]);
    }
}
