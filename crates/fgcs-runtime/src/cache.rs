//! A capacity-bounded LRU cache on `std` alone.
//!
//! Replaces the `lru` crate for the kernel-parameter memoization layer:
//! `get` and `put` are O(1) via a slab of doubly-linked nodes
//! (indices instead of pointers, so no `unsafe`) plus a `HashMap` from key
//! to slab slot. A `put` into a full cache writes the new node into the
//! evicted slot, so the slab never outgrows the capacity and needs no free
//! list. Eviction returns the displaced entry so callers can count or
//! inspect it.

use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel slab index meaning "no node".
const NIL: usize = usize::MAX;

/// One slab entry: the key/value pair plus intrusive list links.
#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache holding at most `capacity` entries.
///
/// `get` promotes the entry to most-recently-used; `put` on a full cache
/// evicts the least-recently-used entry and returns it.
///
/// ```
/// use fgcs_runtime::cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.put("a", 1);
/// cache.put("b", 2);
/// cache.get(&"a");                      // "a" is now most recent
/// let evicted = cache.put("c", 3);      // so "b" is evicted
/// assert_eq!(evicted, Some(("b", 2)));
/// assert_eq!(cache.get(&"a"), Some(&1));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    /// At most `capacity` nodes, every one linked.
    slab: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a zero-capacity LRU cannot satisfy
    /// the put-then-get contract and is always a configuration bug).
    #[must_use]
    pub fn new(capacity: usize) -> LruCache<K, V> {
        assert!(capacity > 0, "LruCache capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key` and promotes the entry to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slab[idx].value)
    }

    /// Inserts or replaces `key`; returns the entry evicted to make room
    /// (replacing an existing key returns its old value under that key).
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let old = std::mem::replace(&mut self.slab[idx].value, value);
            self.detach(idx);
            self.attach_front(idx);
            return Some((key, old));
        }
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let (idx, evicted) = if self.map.len() == self.capacity {
            // Full: the new entry takes over the least-recently-used slot.
            let lru = self.tail;
            self.detach(lru);
            let old = std::mem::replace(&mut self.slab[lru], node);
            self.map.remove(&old.key);
            (lru, Some((old.key, old.value)))
        } else {
            self.slab.push(node);
            (self.slab.len() - 1, None)
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Unlinks a node from the recency list.
    fn detach(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.slab[idx];
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let node = &mut self.slab[idx];
        node.prev = NIL;
        node.next = NIL;
    }

    /// Links a node at the most-recently-used end.
    fn attach_front(&mut self, idx: usize) {
        let head = self.head;
        let node = &mut self.slab[idx];
        node.prev = NIL;
        node.next = head;
        if head != NIL {
            self.slab[head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_promotes_and_put_evicts_lru() {
        let mut c = LruCache::new(2);
        assert_eq!(c.put(1, "one"), None);
        assert_eq!(c.put(2, "two"), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.put(3, "three"), Some((2, "two")));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.get(&3), Some(&"three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_a_key_returns_old_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.put("k", 1);
        assert_eq!(c.put("k", 2), Some(("k", 1)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"k"), Some(&2));
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = LruCache::new(2);
        c.put(1, ());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
        c.put(2, ());
        assert_eq!(c.get(&2), Some(&()));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn single_capacity_cache_always_holds_last_put() {
        let mut c = LruCache::new(1);
        assert_eq!(c.put(1, "a"), None);
        assert_eq!(c.put(2, "b"), Some((1, "a")));
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&"b"));
    }

    #[test]
    fn heavy_churn_keeps_len_bounded() {
        let mut c = LruCache::new(16);
        for i in 0..1000u32 {
            c.put(i, i);
            assert!(c.len() <= 16);
        }
        // The 16 most recent keys survive.
        for i in 984..1000 {
            assert_eq!(c.get(&i), Some(&i));
        }
    }

    #[test]
    fn churn_reuses_slots_and_evicts_in_lru_order() {
        // A reference LRU (a plain vector, most recent last) beside the
        // cache: every get and put must agree with it, and the slab must
        // stay at `capacity` nodes however many entries pass through.
        let capacity = 8;
        let mut c = LruCache::new(capacity);
        let mut reference: Vec<u32> = Vec::new();
        let mut x = 0x2545_f491_u32;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = x % 24;
            if x & (1 << 20) == 0 {
                let hit = c.get(&key).copied();
                let pos = reference.iter().position(|&k| k == key);
                assert_eq!(hit, pos.map(|_| key));
                if let Some(pos) = pos {
                    reference.remove(pos);
                    reference.push(key);
                }
            } else {
                let evicted = c.put(key, key);
                if let Some(pos) = reference.iter().position(|&k| k == key) {
                    reference.remove(pos);
                    assert_eq!(evicted, Some((key, key)));
                } else if reference.len() == capacity {
                    let lru = reference.remove(0);
                    assert_eq!(evicted, Some((lru, lru)));
                } else {
                    assert_eq!(evicted, None);
                }
                reference.push(key);
            }
            assert!(c.slab.len() <= capacity, "slab grew to {}", c.slab.len());
            assert_eq!(c.len(), reference.len());
        }
        assert_eq!(c.slab.len(), capacity);
    }
}
