//! The sharded query-result cache with targeted invalidation.
//!
//! Keys are `(region box, aggregate, semantics)`; values are epoch-stamped
//! [`AggResult`]s. Shards are plain `Mutex<HashMap>`s with a per-shard LRU
//! stamp — at server concurrency (tens of workers) lock striping is all
//! the scalability needed, and keeping the shard dumb keeps invalidation
//! easy to reason about.
//!
//! Invalidation is *targeted*: `/update` hands the coordinator the
//! bounding boxes of every touched region/component (Theorem 12's scope),
//! and only cache entries whose query region **overlaps** one of those
//! boxes are evicted. Entries over disjoint regions provably kept their
//! answer and stay hot.
//!
//! The stale-insert race (a reader computes from snapshot `N` while the
//! coordinator publishes `N+1`) is closed with an epoch guard:
//! [`ShardedCache::begin_epoch`] is called *before* invalidation and
//! snapshot publication, and [`ShardedCache::insert`] drops any result
//! computed against an older epoch, checking the epoch *while holding
//! the shard lock* so the check is ordered against the invalidation
//! sweep (which takes the same lock). Conservative — a disjoint-region
//! result from the old snapshot would still be valid — but it can never
//! re-admit a stale overlapping answer after its eviction.

use iolap_model::{RegionBox, MAX_DIMS};
use iolap_query::{AggFn, AggResult, Classical};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache key: the query region plus what was computed over it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    lo: [u32; MAX_DIMS],
    hi: [u32; MAX_DIMS],
    k: u8,
    /// Aggregate discriminant + classical semantics discriminant (always
    /// 0 from the server, which refuses classical queries).
    kind: u8,
}

impl CacheKey {
    /// Build a key for an aggregate over `region`. The server always
    /// passes `classical: None`; the argument stays for callers that key
    /// parsed requests as they come.
    pub fn new(region: &RegionBox, agg: AggFn, classical: Option<Classical>) -> Self {
        let a = match agg {
            AggFn::Sum => 0u8,
            AggFn::Count => 1,
            AggFn::Avg => 2,
        };
        let c = match classical {
            None => 0u8,
            Some(Classical::None) => 1,
            Some(Classical::Contains) => 2,
            Some(Classical::Overlaps) => 3,
        };
        CacheKey { lo: region.lo, hi: region.hi, k: region.k, kind: a | (c << 2) }
    }

    /// Does the key's region share a cell with a touched box?
    fn overlaps(&self, b: &RegionBox) -> bool {
        RegionBox { lo: self.lo, hi: self.hi, k: self.k }.overlaps(b)
    }
}

/// A cached aggregate stamped with the snapshot epoch it was computed on.
#[derive(Debug, Clone, Copy)]
pub struct CachedResult {
    /// The aggregate.
    pub result: AggResult,
    /// Epoch of the snapshot that produced it.
    pub epoch: u64,
}

struct Entry {
    val: CachedResult,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Counters returned by cache operations so the server can feed its
/// metrics registry without the cache depending on `iolap-obs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Entries evicted to make room (LRU pressure, not invalidation).
    pub evicted: u64,
    /// Whether the insert was accepted (false: stale epoch, dropped).
    pub inserted: bool,
}

/// The sharded, epoch-guarded LRU result cache.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    cap_per_shard: usize,
    epoch: AtomicU64,
}

impl ShardedCache {
    /// A cache holding at most `capacity` entries across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let cap_per_shard = capacity.div_ceil(shards).max(1);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            cap_per_shard,
            epoch: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Look up a key, refreshing its LRU stamp on hit.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        let e = shard.map.get_mut(key)?;
        e.stamp = tick;
        Some(e.val)
    }

    /// Insert a result. Rejected (dropped) when `val.epoch` is older than
    /// the cache's current epoch — see the module docs for the race this
    /// closes. Returns LRU evictions performed to make room.
    pub fn insert(&self, key: CacheKey, val: CachedResult) -> CacheOutcome {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|p| p.into_inner());
        // The epoch must be checked while the shard lock is held: the
        // coordinator stores the new epoch *before* sweeping shards, so
        // either we observe the new epoch here and drop, or the store
        // hasn't happened yet and the sweep will take this shard's lock
        // after us and evict whatever we insert. A check before the lock
        // leaves a window where a stale overlapping entry lands after
        // the sweep has already passed this shard.
        if val.epoch < self.epoch.load(Ordering::Acquire) {
            return CacheOutcome { evicted: 0, inserted: false };
        }
        let mut evicted = 0u64;
        while shard.map.len() >= self.cap_per_shard && !shard.map.contains_key(&key) {
            // Evict the least-recently-stamped entry (scan: shards are
            // small — capacity / shards entries).
            let Some(oldest) =
                shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            shard.map.remove(&oldest);
            evicted += 1;
        }
        shard.tick += 1;
        let stamp = shard.tick;
        shard.map.insert(key, Entry { val, stamp });
        CacheOutcome { evicted, inserted: true }
    }

    /// Open invalidation epoch `epoch`: from now on, inserts computed
    /// against older snapshots are dropped. Call *before* evicting and
    /// before publishing the new snapshot.
    pub fn begin_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Re-stamp every surviving entry to `epoch`. The publisher calls
    /// this *after* the targeted invalidation sweep: an entry that
    /// survived is disjoint from every touched box, so (Theorem 12's
    /// contrapositive) its answer is unchanged at the new epoch and a
    /// hit may honestly report it as current. Without the re-stamp,
    /// legitimately-surviving pre-update entries answer with their old
    /// epoch, and byte-identity harnesses had to disable caching to
    /// compare servers.
    pub fn retag_epoch(&self, epoch: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            for e in shard.map.values_mut() {
                if e.val.epoch < epoch {
                    e.val.epoch = epoch;
                }
            }
        }
    }

    /// Evict every entry whose region overlaps one of `boxes`; returns
    /// the number of entries removed.
    pub fn invalidate_overlapping(&self, boxes: &[RegionBox]) -> u64 {
        if boxes.is_empty() {
            return 0;
        }
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            let before = shard.map.len();
            shard.map.retain(|k, _| !boxes.iter().any(|b| k.overlaps(b)));
            removed += (before - shard.map.len()) as u64;
        }
        removed
    }

    /// Number of live entries (for tests and gauges).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).map.len()).sum()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(lo: [u32; 2], hi: [u32; 2]) -> RegionBox {
        let mut l = [0u32; MAX_DIMS];
        let mut h = [0u32; MAX_DIMS];
        l[..2].copy_from_slice(&lo);
        h[..2].copy_from_slice(&hi);
        RegionBox { lo: l, hi: h, k: 2 }
    }

    fn val(epoch: u64, x: f64) -> CachedResult {
        CachedResult { result: AggResult { value: x, sum: x, count: 1.0 }, epoch }
    }

    #[test]
    fn get_after_insert_round_trips() {
        let c = ShardedCache::new(64, 4);
        let k = CacheKey::new(&region([0, 0], [2, 2]), AggFn::Sum, None);
        assert!(c.get(&k).is_none());
        assert!(c.insert(k.clone(), val(0, 5.0)).inserted);
        assert_eq!(c.get(&k).unwrap().result.value, 5.0);
    }

    #[test]
    fn distinct_aggregates_do_not_collide() {
        let c = ShardedCache::new(64, 4);
        let r = region([0, 0], [2, 2]);
        let ks = CacheKey::new(&r, AggFn::Sum, None);
        let kc = CacheKey::new(&r, AggFn::Count, None);
        let kcl = CacheKey::new(&r, AggFn::Count, Some(Classical::Overlaps));
        c.insert(ks.clone(), val(0, 1.0));
        c.insert(kc.clone(), val(0, 2.0));
        c.insert(kcl.clone(), val(0, 3.0));
        assert_eq!(c.get(&ks).unwrap().result.value, 1.0);
        assert_eq!(c.get(&kc).unwrap().result.value, 2.0);
        assert_eq!(c.get(&kcl).unwrap().result.value, 3.0);
    }

    #[test]
    fn invalidation_is_targeted_to_overlapping_regions() {
        let c = ShardedCache::new(64, 4);
        let west = CacheKey::new(&region([2, 0], [4, 4]), AggFn::Sum, None);
        let east = CacheKey::new(&region([0, 0], [2, 4]), AggFn::Sum, None);
        c.insert(west.clone(), val(0, 1.0));
        c.insert(east.clone(), val(0, 2.0));
        // Touch a single cell in the west half: (3, 1).
        let touched = region([3, 1], [4, 2]);
        assert_eq!(c.invalidate_overlapping(&[touched]), 1);
        assert!(c.get(&west).is_none(), "overlapping entry must go");
        assert!(c.get(&east).is_some(), "disjoint entry must stay");
    }

    #[test]
    fn stale_epoch_inserts_are_dropped() {
        let c = ShardedCache::new(64, 4);
        let k = CacheKey::new(&region([0, 0], [2, 2]), AggFn::Sum, None);
        c.begin_epoch(2);
        assert!(!c.insert(k.clone(), val(1, 9.0)).inserted, "old-epoch insert must drop");
        assert!(c.get(&k).is_none());
        assert!(c.insert(k.clone(), val(2, 9.0)).inserted);
        assert!(c.get(&k).is_some());
    }

    #[test]
    fn surviving_entries_are_retagged_to_the_new_epoch() {
        let c = ShardedCache::new(64, 4);
        let west = CacheKey::new(&region([2, 0], [4, 4]), AggFn::Sum, None);
        let east = CacheKey::new(&region([0, 0], [2, 4]), AggFn::Sum, None);
        c.insert(west.clone(), val(0, 1.0));
        c.insert(east.clone(), val(0, 2.0));
        // The publisher's sequence for an update touching the west half.
        c.begin_epoch(1);
        c.invalidate_overlapping(&[region([3, 1], [4, 2])]);
        c.retag_epoch(1);
        assert!(c.get(&west).is_none());
        let hit = c.get(&east).expect("disjoint entry survives");
        assert_eq!(hit.epoch, 1, "survivor answers as the current epoch");
        assert_eq!(hit.result.value, 2.0, "with its (provably unchanged) value");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One shard so the LRU order is fully observable.
        let c = ShardedCache::new(2, 1);
        let k1 = CacheKey::new(&region([0, 0], [1, 1]), AggFn::Sum, None);
        let k2 = CacheKey::new(&region([1, 1], [2, 2]), AggFn::Sum, None);
        let k3 = CacheKey::new(&region([2, 2], [3, 3]), AggFn::Sum, None);
        c.insert(k1.clone(), val(0, 1.0));
        c.insert(k2.clone(), val(0, 2.0));
        c.get(&k1); // k1 now hotter than k2
        let out = c.insert(k3.clone(), val(0, 3.0));
        assert_eq!(out.evicted, 1);
        assert!(c.get(&k2).is_none(), "coldest entry (k2) must be the victim");
        assert!(c.get(&k1).is_some());
        assert!(c.get(&k3).is_some());
    }

    #[test]
    fn empty_box_list_invalidates_nothing() {
        let c = ShardedCache::new(8, 2);
        let k = CacheKey::new(&region([0, 0], [2, 2]), AggFn::Sum, None);
        c.insert(k.clone(), val(0, 1.0));
        assert_eq!(c.invalidate_overlapping(&[]), 0);
        assert!(c.get(&k).is_some());
    }
}
