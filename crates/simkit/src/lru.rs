//! An intrusive-list LRU map.
//!
//! Used for the disk-controller page caches and the global database buffer.
//! Entries live in a slab of nodes linked into a doubly-linked recency list;
//! a `HashMap` provides O(1) key lookup. Eviction returns the victim so the
//! caller can model write-back of dirty pages.
//!
//! Nothing is allocated up front: a thousand-PE system builds thousands of
//! these, most of which never fill. The index and the node slab grow on
//! demand and stop at `capacity` entries — the slab grows by doubling but
//! is clamped to `capacity`, and the index is never larger than one sized
//! for `capacity + 1` entries at construction would be.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// Fixed-capacity LRU map; storage grows with occupancy.
pub struct LruMap<K, V> {
    map: FxHashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Create an empty LRU with the given capacity (≥ 1). Allocates
    /// nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be positive");
        LruMap {
            map: FxHashMap::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Look up `key`, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.detach(idx);
            self.attach_front(idx);
        }
        self.nodes[idx as usize].value.as_ref()
    }

    /// Look up without touching recency (for inspection/statistics).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.nodes[idx as usize].value.as_ref()
    }

    /// Mutable lookup, marking MRU on hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        if self.head != idx {
            self.detach(idx);
            self.attach_front(idx);
        }
        self.nodes[idx as usize].value.as_mut()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key → value` as MRU.
    ///
    /// Returns `Some((victim_key, victim_value))` if a *different* entry was
    /// evicted to make room; replacing an existing key returns `None` (the
    /// old value is dropped — page contents are not modelled).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            if self.head != idx {
                self.detach(idx);
                self.attach_front(idx);
            }
            self.nodes[idx as usize].value = Some(value);
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            self.evict_lru()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                // Only reached with every node live, so `len < capacity`:
                // double, but never past `capacity`.
                let len = self.nodes.len();
                if len == self.nodes.capacity() {
                    let grow = len.max(4).min(self.capacity - len);
                    self.nodes.reserve_exact(grow);
                }
                self.nodes.push(Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Remove and return the least-recently-used entry.
    pub fn evict_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        self.free.push(idx);
        let node = &mut self.nodes[idx as usize];
        self.map.remove(&node.key);
        let value = node.value.take().expect("live node has a value");
        Some((node.key.clone(), value))
    }

    /// Remove a specific key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.nodes[idx as usize].value.take()
    }

    /// Key of the current LRU victim candidate, if any.
    pub fn lru_key(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.nodes[self.tail as usize].key)
        }
    }

    /// Iterate entries from most- to least-recently used.
    pub fn iter_mru(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            while cur != NIL {
                let n = &self.nodes[cur as usize];
                cur = n.next;
                if let Some(v) = n.value.as_ref() {
                    return Some((&n.key, v));
                }
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn hit_and_miss() {
        let mut l = LruMap::new(2);
        assert!(l.insert(1, "a").is_none());
        assert!(l.insert(2, "b").is_none());
        assert_eq!(l.get(&1), Some(&"a"));
        assert_eq!(l.get(&3), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut l = LruMap::new(2);
        l.insert(1, "a");
        l.insert(2, "b");
        l.get(&1); // 2 is now LRU
        let evicted = l.insert(3, "c").unwrap();
        assert_eq!(evicted, (2, "b"));
        assert!(l.contains(&1) && l.contains(&3));
    }

    #[test]
    fn reinsert_existing_does_not_evict() {
        let mut l = LruMap::new(2);
        l.insert(1, 10);
        l.insert(2, 20);
        assert!(l.insert(1, 11).is_none());
        assert_eq!(l.peek(&1), Some(&11));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut l = LruMap::new(2);
        l.insert(1, "a");
        l.insert(2, "b");
        assert_eq!(l.remove(&1), Some("a"));
        assert!(l.insert(3, "c").is_none(), "no eviction needed");
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn mru_iteration_order() {
        let mut l = LruMap::new(3);
        l.insert(1, ());
        l.insert(2, ());
        l.insert(3, ());
        l.get(&1);
        let order: Vec<i32> = l.iter_mru().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![1, 3, 2]);
        assert_eq!(l.lru_key(), Some(&2));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut l = LruMap::new(2);
        l.insert(1, ());
        l.insert(2, ());
        l.peek(&1);
        let (k, _) = l.insert(3, ()).unwrap();
        assert_eq!(k, 1, "peek must not refresh recency");
    }

    /// Capacities around the storage growth steps: the slab doubles from
    /// 4 and the index's usable size goes 3, 7, 14, 28, … as it doubles.
    const PROP_CAPACITIES: [usize; 10] = [1, 3, 4, 5, 7, 8, 14, 15, 28, 29];

    /// Replay `ops` against an LRU of capacity `cap` and a naive
    /// VecDeque-based reference model; keys span twice the capacity so
    /// evictions are common.
    fn check_against_reference(cap: usize, ops: &[(u8, u32)]) -> Result<(), TestCaseError> {
        let mut lru = LruMap::new(cap);
        let mut model: VecDeque<(u32, u32)> = VecDeque::new(); // front = MRU
        for &(op, raw) in ops {
            let key = raw % (2 * cap as u32 + 2);
            match op {
                0 => {
                    // insert key -> key*10
                    let evicted = lru.insert(key, key * 10);
                    if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                        model.remove(pos);
                        model.push_front((key, key * 10));
                        prop_assert!(evicted.is_none());
                    } else {
                        if model.len() == cap {
                            let victim = model.pop_back().unwrap();
                            prop_assert_eq!(evicted, Some(victim));
                        } else {
                            prop_assert!(evicted.is_none());
                        }
                        model.push_front((key, key * 10));
                    }
                }
                1 => {
                    let got = lru.get(&key).copied();
                    if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                        let e = model.remove(pos).unwrap();
                        prop_assert_eq!(got, Some(e.1));
                        model.push_front(e);
                    } else {
                        prop_assert!(got.is_none());
                    }
                }
                _ => {
                    let got = lru.remove(&key);
                    if let Some(pos) = model.iter().position(|(k, _)| *k == key) {
                        let e = model.remove(pos).unwrap();
                        prop_assert_eq!(got, Some(e.1));
                    } else {
                        prop_assert!(got.is_none());
                    }
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert!(lru.nodes.capacity() <= cap, "slab grew past capacity");
            let order: Vec<u32> = lru.iter_mru().map(|(k, _)| *k).collect();
            let model_order: Vec<u32> = model.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(order, model_order);
        }
        Ok(())
    }

    proptest! {
        /// Behaviour matches the reference model at every capacity in
        /// [`PROP_CAPACITIES`], while storage grows from empty.
        #[test]
        fn prop_matches_reference(ops in proptest::collection::vec((0u8..3, 0u32..64), 1..500)) {
            for cap in PROP_CAPACITIES {
                check_against_reference(cap, &ops)?;
            }
        }
    }
}
