//! Least-recently-used caches for the query service.
//!
//! Two layers:
//!
//! * [`LruCache`] — the single-threaded primitive. The service caches a few
//!   dozen to a few hundred compiled queries and reachability indexes; at
//!   that size a `HashMap` with last-use ticks and an `O(n)` eviction scan
//!   beats the constant factors (and the dependency weight) of an intrusive
//!   linked-list LRU, and the behaviour is trivially auditable. Eviction
//!   only runs on inserts that would exceed capacity.
//! * [`ShardedLru`] — the concurrent wrapper `QueryService` actually holds:
//!   keys are hashed onto N independently locked [`LruCache`] segments, so
//!   threads touching different keys rarely contend on the same mutex and a
//!   long miss-path insert on one segment never blocks hits on the others.
//!   Recency and eviction are exact *per segment*; globally the policy is
//!   the standard segmented-LRU approximation (total capacity is split
//!   evenly, rounded up, across segments). One segment restores exact
//!   global LRU semantics.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::Mutex;

#[derive(Debug)]
struct Entry<V> {
    last_used: u64,
    value: V,
}

/// A bounded map that evicts the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<K, Entry<V>>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be positive");
        LruCache {
            capacity,
            tick: 0,
            evictions: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `key`, marking the entry as most recently used. Accepts any
    /// borrowed form of the key (e.g. `&str` for `String` keys), like
    /// [`HashMap::get`].
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            &e.value
        })
    }

    /// Inserts `value` under `key` (as most recently used), evicting the
    /// least-recently-used entry if the cache is full and `key` is new.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                self.map.remove(&k);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                last_used: self.tick,
                value,
            },
        );
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many entries have been evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every entry matching `pred`, returning how many were removed.
    ///
    /// This is *invalidation*, not eviction: the [`Self::evictions`] counter
    /// is untouched (it measures capacity pressure), survivors keep their
    /// last-used ticks so the relative recency order among them — and
    /// therefore the future eviction order — is exactly what it was before
    /// the call, and the freed slots become ordinary spare capacity.
    pub fn invalidate_where(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|k, e| !pred(k, &e.value));
        before - self.map.len()
    }
}

/// A thread-safe segmented LRU: N independently locked [`LruCache`]
/// segments, keys distributed by a fixed (deterministic) hash.
///
/// `get` returns the value by clone — the service stores `Arc`s, so a hit
/// is a reference-count bump and no lock is held while the caller uses the
/// value. All methods take `&self`; a poisoned segment (a panic while its
/// lock was held) is recovered rather than propagated, since every cached
/// value is immutable once inserted.
#[derive(Debug)]
pub struct ShardedLru<K, V> {
    segments: Vec<Mutex<LruCache<K, V>>>,
    hasher: BuildHasherDefault<DefaultHasher>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// Creates a cache of `segments` independently locked segments holding
    /// `capacity` entries in total (split evenly, rounded up — the
    /// effective capacity is [`Self::capacity`]). Both knobs are clamped to
    /// at least 1, and the segment count to at most the capacity (so a
    /// small cache is never diluted into empty segments).
    pub fn new(capacity: usize, segments: usize) -> Self {
        let capacity = capacity.max(1);
        let segments = segments.clamp(1, capacity);
        let per_segment = capacity.div_ceil(segments);
        ShardedLru {
            segments: (0..segments)
                .map(|_| Mutex::new(LruCache::new(per_segment)))
                .collect(),
            hasher: BuildHasherDefault::default(),
        }
    }

    /// The segment `key` lives in, by deterministic hash.
    fn segment<Q>(&self, key: &Q) -> &Mutex<LruCache<K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let h = self.hasher.hash_one(key) as usize;
        &self.segments[h % self.segments.len()]
    }

    /// Looks up `key`, marking the entry as most recently used in its
    /// segment. Accepts any borrowed form of the key, like
    /// [`LruCache::get`].
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.segment(key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(key)
            .cloned()
    }

    /// Inserts `value` under `key`, evicting its segment's LRU entry if the
    /// segment is full and `key` is new.
    pub fn insert(&self, key: K, value: V) {
        self.segment(&key)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(key, value);
    }

    /// Number of cached entries, summed over segments.
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// `true` if nothing is cached in any segment.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The effective total capacity (per-segment capacity × segments; at
    /// least the capacity requested at construction).
    pub fn capacity(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).capacity())
            .sum()
    }

    /// Number of independently locked segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Lifetime eviction count, summed over segments.
    pub fn evictions(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).evictions())
            .sum()
    }

    /// Drops every entry matching `pred` in every segment, returning the
    /// total number removed.
    ///
    /// Like [`LruCache::invalidate_where`] this leaves the eviction
    /// counters and the survivors' recency order untouched. Segments are
    /// locked one at a time, so concurrent hits on other segments proceed
    /// while one segment is being swept; the sweep is atomic per segment,
    /// not across the cache (an insert racing the sweep may land in an
    /// already-swept segment — callers invalidating stale entries must
    /// ensure the stale key can no longer be *produced*, which the service
    /// does by swapping the document version before sweeping).
    pub fn invalidate_where(&self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.segments
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .invalidate_where(&mut pred)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_gets() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "b" is now the LRU entry
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b was least recently used");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_one_always_holds_the_newest() {
        let mut c = LruCache::new(1);
        for i in 0..5 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&4), Some(&40));
        assert_eq!(c.evictions(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    /// Full eviction-order audit: entries leave in exact recency order,
    /// where recency is set by the latest `get` *or* `insert`.
    #[test]
    fn eviction_follows_exact_recency_order() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        // Recency now a < b < c. Touch `a`, then overwrite `b`: c is LRU.
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("b", 20);
        c.insert("d", 4); // evicts c
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.evictions(), 1);
        // Recency now a < b < d; next eviction takes a, then b, then d.
        c.insert("e", 5);
        assert_eq!(c.get(&"a"), None);
        c.insert("f", 6);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.evictions(), 3);
        assert_eq!(c.len(), 3);
        for (k, v) in [("d", 4), ("e", 5), ("f", 6)] {
            assert_eq!(c.get(&k), Some(&v), "survivor `{k}`");
        }
    }

    /// A missed `get` must neither evict nor disturb recency.
    #[test]
    fn get_miss_leaves_the_cache_untouched() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        for _ in 0..10 {
            assert_eq!(c.get(&"zzz"), None);
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        // "a" is still the LRU entry despite the misses in between.
        c.insert("c", 3);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn capacity_one_eviction_interleaved_with_gets() {
        let mut c = LruCache::new(1);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("a", 10); // reinsert: no eviction
        assert_eq!(c.evictions(), 0);
        c.insert("b", 2); // evicts a
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 1);
    }

    /// Invalidation must not disturb the survivors' recency order: after
    /// sweeping, the eviction sequence is exactly the one the pre-sweep
    /// ticks dictate.
    #[test]
    fn invalidation_preserves_eviction_order_of_survivors() {
        let mut c = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        c.insert("d", 4);
        assert_eq!(c.get(&"a"), Some(&1)); // recency: b < c < d < a
        assert_eq!(c.invalidate_where(|_, v| *v == 3), 1); // drop c
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 0, "invalidation is not eviction");
        // Fill back up, then overflow: victims must come out b, d, a.
        c.insert("e", 5); // no eviction — invalidation freed a slot
        assert_eq!(c.evictions(), 0);
        c.insert("f", 6);
        assert_eq!(c.get(&"b"), None, "b was the pre-sweep LRU survivor");
        c.insert("g", 7);
        assert_eq!(c.get(&"d"), None);
        c.insert("h", 8);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.evictions(), 3);
    }

    /// Invalidation conserves capacity: freed slots are reusable, the
    /// configured capacity is unchanged, and a full sweep leaves an empty
    /// but fully usable cache.
    #[test]
    fn invalidation_conserves_capacity() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        assert_eq!(c.invalidate_where(|_, _| true), 3);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 3);
        for (k, v) in [("x", 10), ("y", 20), ("z", 30)] {
            c.insert(k, v);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 0, "refilling to capacity evicts nothing");
        // A no-match sweep is a no-op.
        assert_eq!(c.invalidate_where(|_, _| false), 0);
        assert_eq!(c.len(), 3);
    }

    // -- ShardedLru ---------------------------------------------------------

    #[test]
    fn sharded_zero_capacity_and_zero_segments_are_clamped() {
        let c: ShardedLru<String, u32> = ShardedLru::new(0, 0);
        assert_eq!(c.segment_count(), 1);
        assert_eq!(c.capacity(), 1);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.len(), 1, "capacity 1 holds exactly the newest entry");
        assert_eq!(c.get("b"), Some(2));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn sharded_segments_never_exceed_capacity() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(2, 8);
        assert_eq!(c.segment_count(), 2, "segment count is clamped to capacity");
        assert_eq!(c.capacity(), 2);
    }

    /// Audit of the `capacity < segments` family (and other degenerate
    /// shapes): no construction may ever yield a segment of capacity 0 —
    /// such a segment would instantly evict everything hashed onto it.
    /// The clamping chain `capacity.max(1)` → `segments.clamp(1, capacity)`
    /// → `div_ceil` guarantees per-segment capacity ≥ 1; this locks it in.
    #[test]
    fn sharded_edge_shapes_never_produce_a_dead_segment() {
        for (capacity, segments) in [
            (0, 0),
            (0, 8),
            (1, 1),
            (1, 8),
            (2, 8),
            (3, 4),
            (5, 4),
            (7, 8),
            (8, 3),
            (9, 4),
            (64, 7),
        ] {
            let c: ShardedLru<u32, u32> = ShardedLru::new(capacity, segments);
            assert!(
                c.segment_count() <= capacity.max(1),
                "({capacity},{segments}): more segments than capacity"
            );
            for (i, seg) in c.segments.iter().enumerate() {
                let cap = seg.lock().unwrap().capacity();
                assert!(
                    cap >= 1,
                    "({capacity},{segments}): segment {i} has capacity 0"
                );
            }
            assert!(
                c.capacity() >= capacity.max(1),
                "({capacity},{segments}): effective capacity undershoots the request"
            );
            // Behavioural check: an insert is always observable right after,
            // whatever segment the key routes to — a dead segment would
            // return None here.
            for k in 0..32u32 {
                c.insert(k, k + 100);
                assert_eq!(
                    c.get(&k),
                    Some(k + 100),
                    "({capacity},{segments}): key {k} vanished on insert"
                );
            }
        }
    }

    #[test]
    fn sharded_single_segment_is_an_exact_lru() {
        let c: ShardedLru<&str, u32> = ShardedLru::new(2, 1);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get("a"), Some(1)); // b becomes LRU
        c.insert("c", 3);
        assert_eq!(c.get("b"), None, "b was least recently used");
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn sharded_conserves_entries_across_evictions() {
        // Segmented capacity is approximate globally (a hot segment can
        // evict while another has room), but entries are conserved: every
        // insert of a distinct key either resides in the cache or was
        // evicted, and the advertised capacity is never undershot.
        let c: ShardedLru<u32, u32> = ShardedLru::new(64, 8);
        assert!(c.capacity() >= 64);
        for i in 0..64 {
            c.insert(i, i);
        }
        assert_eq!(c.len() as u64 + c.evictions(), 64);
        let resident = (0..64).filter(|i| c.get(i).is_some()).count();
        assert_eq!(resident, c.len());
    }

    #[test]
    fn sharded_len_is_bounded_by_capacity_under_overflow() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(8, 4);
        for i in 0..1000 {
            c.insert(i, i);
        }
        assert!(
            c.len() <= c.capacity(),
            "len {} > capacity {}",
            c.len(),
            c.capacity()
        );
        assert!(c.evictions() >= 1000 - c.capacity() as u64);
    }

    /// Cross-segment sweep: the predicate reaches every segment, the
    /// removal count sums across them, and untouched entries stay resident
    /// whatever segment they hashed onto.
    #[test]
    fn sharded_invalidation_sweeps_every_segment() {
        // Roomy per-segment capacity (32 each) so deterministic hash skew
        // cannot evict anything — this test is about invalidation only.
        let c: ShardedLru<u32, u32> = ShardedLru::new(256, 8);
        for i in 0..48u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 48);
        let removed = c.invalidate_where(|k, _| k % 3 == 0);
        assert_eq!(removed, 16, "every third key, wherever it hashed");
        assert_eq!(c.len(), 32);
        assert_eq!(c.evictions(), 0, "invalidation is not eviction");
        for i in 0..48u32 {
            let want = if i % 3 == 0 { None } else { Some(i) };
            assert_eq!(c.get(&i), want, "key {i}");
        }
        // Freed slots are reusable capacity in each segment.
        for i in 0..48u32 {
            c.insert(i, i + 1000);
        }
        assert_eq!(c.len(), 48);
    }

    #[test]
    fn sharded_invalidation_is_safe_under_concurrent_traffic() {
        let c: std::sync::Arc<ShardedLru<u32, u32>> = std::sync::Arc::new(ShardedLru::new(64, 4));
        std::thread::scope(|scope| {
            for t in 0..3u32 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..300u32 {
                        let k = (t * 11 + i) % 50;
                        c.insert(k, k * 2);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2);
                        }
                    }
                });
            }
            let c = std::sync::Arc::clone(&c);
            scope.spawn(move || {
                for _ in 0..50 {
                    c.invalidate_where(|k, _| k % 2 == 0);
                }
            });
        });
        // Whatever interleaving happened, no odd-keyed entry ever matched.
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn sharded_is_usable_from_many_threads() {
        let c: std::sync::Arc<ShardedLru<u32, u32>> = std::sync::Arc::new(ShardedLru::new(32, 4));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..200u32 {
                        let k = (t * 7 + i) % 40;
                        c.insert(k, k * 2);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, k * 2, "values are never torn or mixed up");
                        }
                    }
                });
            }
        });
        assert!(c.len() <= c.capacity());
    }
}
