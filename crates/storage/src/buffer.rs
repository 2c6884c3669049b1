//! A pin-count buffer pool with lock-striped shards and CLOCK eviction.
//!
//! The paper's algorithms are parameterized by a memory buffer `B` measured
//! in 4 KiB pages (Theorems 4, 7, 10). This pool is that buffer: it caches
//! pages of all files registered with it, up to a capacity measured in
//! pages, evicting unpinned frames with the CLOCK (second-chance) policy and
//! writing dirty frames back through the owning [`Pager`].
//!
//! Three properties matter for reproducing the paper's I/O behaviour:
//!
//! * When a table fits in the pool, repeated scans cost no I/O after the
//!   first (the "in-memory" experiment of Section 11.1).
//! * When a table is larger than the pool, a sequential scan floods the
//!   pool and every subsequent scan re-reads every page — exactly the
//!   "every pass reads the relation" assumption of the I/O analysis.
//! * A page discarded with its file (a consumed sort input, a merged run,
//!   a spill) is never written back, so it is never charged; the frames it
//!   held go on their shard's free list and are handed out before the
//!   CLOCK evicts any live page. The cost model charges a pass over the
//!   *live* relation only, as Theorems 6, 7 and 10 do.
//!
//! Algorithms that hold working sets outside the pool (e.g. the Block
//! algorithm's summary-table partitions, Section 6) account for that memory
//! by taking a [`Reservation`], which shrinks the pool's capacity for the
//! reservation's lifetime.
//!
//! # Concurrency
//!
//! One thread uses the pool at a time: allocation, which is
//! single-threaded, and then the query server's ingest coordinator, which
//! folds update batches through the same environment (compaction touches
//! no pager). The frame table is nonetheless split into power-of-two
//! **shards**, each guarded by its own latch and running its own CLOCK
//! hand over its own share of the capacity. A page's shard is a hash of
//! `(FileId, PageId)`. Each shard counts its own hits, misses and
//! evictions under its latch; [`BufferPool::hit_stats`] sums them.
//!
//! Pools smaller than [`SHARDING_THRESHOLD`] pages use a single shard and
//! so one global CLOCK. Larger pools stay striped although no latch is
//! contended, because the eviction order is part of the recorded cost:
//! every accounted page count at 128 pages and up (the `e2e` ledger's
//! `alloc_io_pages`, 1521 / 1725, and `tests/io_cost_model.rs`'s striped
//! pin) was measured under per-shard CLOCK, and one global CLOCK charges
//! a different number of pages. Changing the shard count or the hash
//! moves those numbers.

use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies a file registered with a [`BufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

/// Pools with at least this many pages of capacity are lock-striped; below
/// it a single shard preserves exact global CLOCK semantics.
pub const SHARDING_THRESHOLD: usize = 128;

/// Hard cap on the number of shards.
const MAX_SHARDS: usize = 16;

type FrameBuf = Arc<RwLock<Box<[u8; PAGE_SIZE]>>>;
type SharedPager = Arc<Mutex<Box<dyn Pager>>>;

struct Frame {
    key: Option<(FileId, PageId)>,
    /// The pager of `key`'s file, so eviction write-back needs no trip back
    /// through the file table (lock order stays shard → pager).
    pager: Option<SharedPager>,
    buf: FrameBuf,
    pin: usize,
    dirty: bool,
    referenced: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            key: None,
            pager: None,
            buf: Arc::new(RwLock::new(Box::new([0u8; PAGE_SIZE]))),
            pin: 0,
            dirty: false,
            referenced: false,
        }
    }
}

/// One stripe of the frame table: its own map, CLOCK hand, and share of the
/// pool capacity.
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<(FileId, PageId), usize>,
    /// Indices of the frames that hold no page (`key == None`), emptied by
    /// a dropped, truncated or purged file. Reused before anything else.
    free: Vec<usize>,
    /// This shard's share of the pool's effective capacity.
    capacity: usize,
    clock: usize,
    /// Per-shard traffic counters, maintained under the shard latch (plain
    /// integers — no extra atomics on the pin path).
    stats: ShardStats,
}

impl Shard {
    fn new() -> Self {
        Shard {
            frames: Vec::new(),
            map: HashMap::new(),
            free: Vec::new(),
            capacity: 1,
            clock: 0,
            stats: ShardStats::default(),
        }
    }

    /// Find a frame to (re)use: a free one first, then a new one while the
    /// shard is under capacity, and only then an unpinned live frame
    /// evicted by CLOCK. Returns the frame index with `key == None`.
    fn grab_frame(&mut self) -> Result<usize> {
        if let Some(i) = self.free.pop() {
            return Ok(i);
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame::empty());
            return Ok(self.frames.len() - 1);
        }
        // CLOCK sweep: at most two full rotations (first clears ref bits).
        let n = self.frames.len();
        for _ in 0..2 * n {
            let i = self.clock;
            self.clock = (self.clock + 1) % n;
            let f = &mut self.frames[i];
            if f.pin > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            self.evict(i)?;
            return Ok(i);
        }
        Err(StorageError::PoolExhausted { capacity: self.capacity })
    }

    fn evict(&mut self, i: usize) -> Result<()> {
        if let Some((file, page)) = self.frames[i].key.take() {
            self.stats.evictions += 1;
            self.map.remove(&(file, page));
            if self.frames[i].dirty {
                let pager = self.frames[i].pager.clone().expect("resident frame lost its pager");
                let buf = Arc::clone(&self.frames[i].buf);
                let guard = buf.read();
                pager.lock().write_page(page, &guard[..])?;
                self.frames[i].dirty = false;
            }
            self.frames[i].pager = None;
        }
        Ok(())
    }

    /// Shrink to the shard capacity, dropping free frames first and then
    /// evicting unpinned ones. Best-effort: pinned frames are skipped.
    fn shrink(&mut self) -> Result<()> {
        while self.frames.len() > self.capacity {
            let i = match self.free.pop() {
                Some(i) => i,
                None => {
                    let Some(i) = self.frames.iter().rposition(|f| f.pin == 0) else {
                        return Ok(());
                    };
                    self.evict(i)?;
                    i
                }
            };
            let last = self.frames.len() - 1;
            self.frames.swap_remove(i);
            // Re-point whatever referred to the frame that moved from the
            // last slot into slot `i`.
            if i < last {
                match self.frames[i].key {
                    Some(key) => {
                        self.map.insert(key, i);
                    }
                    None => {
                        if let Some(j) = self.free.iter_mut().find(|j| **j == last) {
                            *j = i;
                        }
                    }
                }
            }
            self.clock = 0;
        }
        Ok(())
    }

    /// Empty every frame of `file` whose page satisfies `drop_page`,
    /// without write-back, and put it on the free list.
    fn discard(&mut self, file: FileId, mut drop_page: impl FnMut(PageId) -> bool) {
        for i in 0..self.frames.len() {
            let f = &mut self.frames[i];
            match f.key {
                Some((fid, page)) if fid == file && drop_page(page) => {
                    assert_eq!(f.pin, 0, "discarding a pinned page");
                    f.key = None;
                    f.pager = None;
                    f.dirty = false;
                    self.map.remove(&(fid, page));
                    self.free.push(i);
                }
                _ => {}
            }
        }
    }

    /// Write back every dirty frame accepted by `select`, coalescing
    /// contiguous pages of the same file into single
    /// [`Pager::write_contiguous`] calls. Counts exactly one write per page
    /// either way; only the syscall shape changes.
    fn write_back_coalesced(&mut self, mut select: impl FnMut(&Frame) -> bool) -> Result<()> {
        let mut dirty: Vec<(FileId, PageId, usize)> = Vec::new();
        for (i, f) in self.frames.iter().enumerate() {
            if f.dirty && select(f) {
                if let Some((file, page)) = f.key {
                    dirty.push((file, page, i));
                }
            }
        }
        dirty.sort_unstable_by_key(|&(f, p, _)| (f, p));
        let mut i = 0;
        while i < dirty.len() {
            let start = i;
            i += 1;
            while i < dirty.len()
                && dirty[i].0 == dirty[start].0
                && dirty[i].1 == dirty[i - 1].1 + 1
                && i - start < MAX_COALESCED_PAGES
            {
                i += 1;
            }
            self.write_run(&dirty[start..i])?;
        }
        Ok(())
    }

    fn write_run(&mut self, run: &[(FileId, PageId, usize)]) -> Result<()> {
        let (_, first, idx0) = run[0];
        let pager = self.frames[idx0].pager.clone().expect("resident frame lost its pager");
        if run.len() == 1 {
            let buf = Arc::clone(&self.frames[idx0].buf);
            let guard = buf.read();
            pager.lock().write_page(first, &guard[..])?;
        } else {
            let mut big = vec![0u8; run.len() * PAGE_SIZE];
            for (j, &(_, _, fi)) in run.iter().enumerate() {
                let buf = Arc::clone(&self.frames[fi].buf);
                let guard = buf.read();
                big[j * PAGE_SIZE..(j + 1) * PAGE_SIZE].copy_from_slice(&guard[..]);
            }
            pager.lock().write_contiguous(first, &big)?;
        }
        for &(_, _, fi) in run {
            self.frames[fi].dirty = false;
        }
        Ok(())
    }
}

/// Longest run of contiguous dirty pages merged into one write-back call.
const MAX_COALESCED_PAGES: usize = 64;

/// State shared by all handles to one pool.
struct PoolShared {
    shards: Vec<Arc<Mutex<Shard>>>,
    files: Mutex<Vec<Option<SharedPager>>>,
    /// Nominal capacity in pages (before reservations).
    capacity: AtomicUsize,
    /// Pages currently carved out by live [`Reservation`]s.
    reserved: AtomicUsize,
}

impl PoolShared {
    fn shard_of(&self, file: FileId, page: PageId) -> &Arc<Mutex<Shard>> {
        let n = self.shards.len();
        if n == 1 {
            return &self.shards[0];
        }
        // Multiplicative hash of (file, page); top bits select the shard
        // (n is a power of two).
        let h = ((file.0 as u64) << 48 ^ page).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 60) as usize & (n - 1)]
    }

    fn pager(&self, file: FileId) -> SharedPager {
        self.files.lock()[file.0 as usize]
            .clone()
            .expect("file used after being dropped from the pool")
    }

    /// Recompute every shard's capacity share from the nominal capacity and
    /// the reservation total, shrinking shards that are now over budget.
    fn redistribute(&self) -> Result<()> {
        let capacity = self.capacity.load(Ordering::Relaxed);
        let reserved = self.reserved.load(Ordering::Relaxed);
        let n = self.shards.len();
        let effective = capacity.saturating_sub(reserved).max(n);
        for (i, shard) in self.shards.iter().enumerate() {
            let share = effective / n + usize::from(i < effective % n);
            let mut shard = shard.lock();
            shard.capacity = share;
            shard.shrink()?;
        }
        Ok(())
    }
}

/// The buffer pool. Cloning clones the handle; all clones share frames.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Create a pool holding at most `capacity_pages` pages.
    ///
    /// The shard count is fixed at construction from the initial capacity:
    /// one shard below [`SHARDING_THRESHOLD`] pages, then one per 64 pages
    /// up to 16, rounded to a power of two. Later
    /// [`set_capacity`](BufferPool::set_capacity) calls re-split the new
    /// capacity across the existing shards.
    pub fn new(capacity_pages: usize) -> Self {
        let capacity = capacity_pages.max(1);
        let n = if capacity < SHARDING_THRESHOLD {
            1
        } else {
            (capacity / 64).next_power_of_two().min(MAX_SHARDS)
        };
        let pool = BufferPool {
            shared: Arc::new(PoolShared {
                shards: (0..n).map(|_| Arc::new(Mutex::new(Shard::new()))).collect(),
                files: Mutex::new(Vec::new()),
                capacity: AtomicUsize::new(capacity),
                reserved: AtomicUsize::new(0),
            }),
        };
        pool.shared.redistribute().expect("initial redistribute cannot evict");
        pool
    }

    /// Register a pager; the pool takes ownership and serializes access.
    pub fn register(&self, pager: Box<dyn Pager>) -> FileId {
        let mut files = self.shared.files.lock();
        let id = FileId(files.len() as u32);
        files.push(Some(Arc::new(Mutex::new(pager))));
        id
    }

    /// Drop a file: free its frames without write-back (dirty pages are
    /// discarded, never charged), delete its backing storage and release
    /// the pager. Any page guard for this file must have been dropped.
    pub fn forget_file(&self, file: FileId) -> Result<()> {
        for shard in &self.shared.shards {
            shard.lock().discard(file, |_| true);
        }
        let pager = self.shared.files.lock()[file.0 as usize]
            .take()
            .expect("file used after being dropped from the pool");
        pager.lock().delete()?;
        Ok(())
    }

    /// Number of pages in `file` (cached metadata from the pager).
    pub fn file_pages(&self, file: FileId) -> u64 {
        self.shared.pager(file).lock().num_pages()
    }

    /// Pin an existing page of `file` into the pool and return a guard.
    pub fn pin(&self, file: FileId, page: PageId) -> Result<PageGuard> {
        let shard_arc = Arc::clone(self.shared.shard_of(file, page));
        let mut shard = shard_arc.lock();
        if let Some(&i) = shard.map.get(&(file, page)) {
            shard.stats.hits += 1;
            let f = &mut shard.frames[i];
            f.pin += 1;
            f.referenced = true;
            let buf = Arc::clone(&f.buf);
            drop(shard);
            return Ok(PageGuard { shard: shard_arc, key: (file, page), buf, dirty: false });
        }
        shard.stats.misses += 1;
        let pager = self.shared.pager(file);
        let i = shard.grab_frame()?;
        {
            let buf = Arc::clone(&shard.frames[i].buf);
            let mut guard = buf.write();
            if let Err(e) = pager.lock().read_page(page, &mut guard[..]) {
                shard.free.push(i);
                return Err(e);
            }
        }
        let f = &mut shard.frames[i];
        f.key = Some((file, page));
        f.pager = Some(pager);
        f.pin = 1;
        f.dirty = false;
        f.referenced = true;
        let buf = Arc::clone(&f.buf);
        shard.map.insert((file, page), i);
        drop(shard);
        Ok(PageGuard { shard: shard_arc, key: (file, page), buf, dirty: false })
    }

    /// Allocate a fresh (zeroed) page at the end of `file` and pin it,
    /// without reading from disk. The page is written back on eviction or
    /// flush. Returns the page id and its guard.
    pub fn pin_new(&self, file: FileId) -> Result<(PageId, PageGuard)> {
        let pager = self.shared.pager(file);
        let page = pager.lock().allocate_page()?;
        let shard_arc = Arc::clone(self.shared.shard_of(file, page));
        let mut shard = shard_arc.lock();
        let i = shard.grab_frame()?;
        {
            let buf = Arc::clone(&shard.frames[i].buf);
            buf.write().fill(0);
        }
        let f = &mut shard.frames[i];
        f.key = Some((file, page));
        f.pager = Some(pager);
        f.pin = 1;
        f.dirty = true;
        f.referenced = true;
        let buf = Arc::clone(&f.buf);
        shard.map.insert((file, page), i);
        drop(shard);
        Ok((page, PageGuard { shard: shard_arc, key: (file, page), buf, dirty: true }))
    }

    /// Write every dirty frame back to its file, coalescing contiguous
    /// pages into single transfers. Pinned frames are flushed too (they
    /// stay resident and pinned, but become clean).
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shared.shards {
            let mut shard = shard.lock();
            shard.write_back_coalesced(|_| true)?;
        }
        Ok(())
    }

    /// Write `file`'s dirty frames back and fsync its pager: the
    /// durability point for write-ahead logging. Other files' frames are
    /// left alone.
    pub fn sync_file(&self, file: FileId) -> Result<()> {
        for shard in &self.shared.shards {
            let mut shard = shard.lock();
            shard.write_back_coalesced(|f| matches!(f.key, Some((fid, _)) if fid == file))?;
        }
        self.shared.pager(file).lock().sync()
    }

    /// Discard all frames of `file` without write-back and truncate the
    /// underlying pager to `pages` pages. Any page guard for this file must
    /// have been dropped.
    pub fn truncate_file(&self, file: FileId, pages: u64) -> Result<()> {
        for shard in &self.shared.shards {
            shard.lock().discard(file, |p| p >= pages);
        }
        self.shared.pager(file).lock().truncate(pages)
    }

    /// Drop every unpinned frame of `file` (writing dirty ones back), so the
    /// next scan re-reads from disk. Used by tests to reproduce "cold"
    /// passes deterministically.
    pub fn purge_file(&self, file: FileId) -> Result<()> {
        for shard in &self.shared.shards {
            let mut shard = shard.lock();
            for i in 0..shard.frames.len() {
                match shard.frames[i].key {
                    Some((f, _)) if f == file && shard.frames[i].pin == 0 => {
                        shard.evict(i)?;
                        shard.free.push(i);
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Take `pages` pages away from the pool's capacity for the lifetime of
    /// the returned guard. Models algorithm working memory (e.g. Block's
    /// partitions) being carved out of the same buffer as the page cache.
    pub fn reserve(&self, pages: usize) -> Result<Reservation> {
        self.shared.reserved.fetch_add(pages, Ordering::Relaxed);
        self.shared.redistribute()?;
        Ok(Reservation { shared: Arc::clone(&self.shared), pages })
    }

    /// Current capacity in pages (before reservations).
    pub fn capacity(&self) -> usize {
        self.shared.capacity.load(Ordering::Relaxed)
    }

    /// Number of lock stripes in this pool.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Re-size the pool. Shrinking evicts unpinned frames immediately.
    pub fn set_capacity(&self, pages: usize) -> Result<()> {
        self.shared.capacity.store(pages.max(1), Ordering::Relaxed);
        self.shared.redistribute()
    }

    /// (hits, misses) since pool creation, summed over the shards.
    pub fn hit_stats(&self) -> (u64, u64) {
        self.shard_stats().iter().fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
    }

    /// Fraction of pins served from the pool without touching the pager,
    /// `hits / (hits + misses)`. `1.0` for an untouched pool.
    pub fn hit_ratio(&self) -> f64 {
        let (hits, misses) = self.hit_stats();
        if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Per-shard traffic counters since pool creation, one entry per lock
    /// stripe. Feeds the observability layer's per-shard series and
    /// [`hit_stats`](BufferPool::hit_stats).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shared.shards.iter().map(|s| s.lock().stats).collect()
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().frames.iter().filter(|f| f.key.is_some()).count())
            .sum()
    }
}

/// Pin traffic through one lock stripe of a [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to read through the pager.
    pub misses: u64,
    /// Frames evicted (including purges and capacity shrinks).
    pub evictions: u64,
}

/// Keeps `pages` pages of the pool reserved while alive.
pub struct Reservation {
    shared: Arc<PoolShared>,
    pages: usize,
}

impl Reservation {
    /// Number of reserved pages.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.shared.reserved.fetch_sub(self.pages, Ordering::Relaxed);
        // Growing shares never evicts, so redistribute cannot fail here.
        let _ = self.shared.redistribute();
    }
}

/// A pinned page. Holding the guard keeps the frame resident; dropping it
/// unpins (the data is written back lazily on eviction or flush).
pub struct PageGuard {
    shard: Arc<Mutex<Shard>>,
    key: (FileId, PageId),
    buf: FrameBuf,
    dirty: bool,
}

impl PageGuard {
    /// Read access to the page bytes.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let guard = self.buf.read();
        f(&guard[..])
    }

    /// Write access to the page bytes; marks the page dirty.
    #[inline]
    pub fn write<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.dirty = true;
        let mut guard = self.buf.write();
        f(&mut guard[..])
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        let mut shard = self.shard.lock();
        // A pinned frame can't be evicted or moved by shrink, so the key is
        // still mapped.
        let i = shard.map[&self.key];
        let f = &mut shard.frames[i];
        debug_assert!(f.pin > 0);
        f.pin -= 1;
        f.dirty |= self.dirty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use crate::stats::IoStats;

    fn pool_with_file(capacity: usize) -> (BufferPool, FileId, IoStats) {
        let stats = IoStats::new();
        let pool = BufferPool::new(capacity);
        let file = pool.register(Box::new(MemPager::new(stats.clone())));
        (pool, file, stats)
    }

    #[test]
    fn pin_new_then_reread() {
        let (pool, file, _) = pool_with_file(4);
        let (p0, mut g) = pool.pin_new(file).unwrap();
        assert_eq!(p0, 0);
        g.write(|b| b[10] = 42);
        drop(g);
        let g = pool.pin(file, 0).unwrap();
        assert_eq!(g.read(|b| b[10]), 42);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (pool, file, stats) = pool_with_file(2);
        for v in 0..5u8 {
            let (_, mut g) = pool.pin_new(file).unwrap();
            g.write(|b| b[0] = v);
        }
        // Capacity 2: at least 3 pages must have been evicted (written).
        assert!(stats.writes() >= 3, "writes = {}", stats.writes());
        pool.flush_all().unwrap();
        for v in 0..5u8 {
            let g = pool.pin(file, v as u64).unwrap();
            assert_eq!(g.read(|b| b[0]), v);
        }
    }

    #[test]
    fn cache_hit_costs_no_io() {
        let (pool, file, stats) = pool_with_file(4);
        let (_, g) = pool.pin_new(file).unwrap();
        drop(g);
        pool.flush_all().unwrap();
        pool.purge_file(file).unwrap();
        let before = stats.snapshot();
        let g1 = pool.pin(file, 0).unwrap();
        drop(g1);
        let g2 = pool.pin(file, 0).unwrap();
        drop(g2);
        let delta = stats.snapshot() - before;
        assert_eq!(delta.reads, 1, "second pin must be a cache hit");
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let (pool, file, _) = pool_with_file(2);
        let (_, g0) = pool.pin_new(file).unwrap();
        let (_, g1) = pool.pin_new(file).unwrap();
        let err = pool.pin_new(file);
        assert!(matches!(err, Err(StorageError::PoolExhausted { .. })));
        drop(g0);
        drop(g1);
        assert!(pool.pin_new(file).is_ok());
    }

    #[test]
    fn reservation_shrinks_capacity() {
        let (pool, file, _) = pool_with_file(4);
        for _ in 0..4 {
            let _ = pool.pin_new(file).unwrap();
        }
        assert_eq!(pool.resident(), 4);
        let r = pool.reserve(2).unwrap();
        assert!(pool.resident() <= 2);
        drop(r);
        // Capacity restored: we can again hold 4 pinned pages.
        let g: Vec<_> = (0..4).map(|p| pool.pin(file, p).unwrap()).collect();
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn purge_file_forces_cold_reads() {
        let (pool, file, stats) = pool_with_file(8);
        for _ in 0..3 {
            let _ = pool.pin_new(file).unwrap();
        }
        pool.flush_all().unwrap();
        pool.purge_file(file).unwrap();
        let before = stats.snapshot();
        for p in 0..3 {
            let _ = pool.pin(file, p).unwrap();
        }
        assert_eq!((stats.snapshot() - before).reads, 3);
    }

    #[test]
    fn forget_file_releases_frames() {
        let (pool, file, _) = pool_with_file(2);
        let (_, g) = pool.pin_new(file).unwrap();
        drop(g);
        pool.forget_file(file).unwrap();
        assert_eq!(pool.resident(), 0);
    }

    /// Every shard's map, frames and free list agree: each mapped key sits
    /// in its frame, and the free list holds exactly the empty frames.
    fn assert_consistent(pool: &BufferPool) {
        for shard in &pool.shared.shards {
            let s = shard.lock();
            for (key, &i) in &s.map {
                assert_eq!(s.frames[i].key, Some(*key), "map points at the wrong frame");
            }
            let mut free = s.free.clone();
            free.sort_unstable();
            let empty: Vec<usize> =
                (0..s.frames.len()).filter(|&i| s.frames[i].key.is_none()).collect();
            assert_eq!(free, empty, "free list must hold exactly the empty frames");
            assert_eq!(s.map.len() + empty.len(), s.frames.len());
        }
    }

    /// Append one dirty page per entry of `order` to that entry's file; page
    /// `v` of the sequence holds byte `v`. Nothing is flushed.
    fn fill(pool: &BufferPool, order: &[FileId]) {
        for (v, &file) in order.iter().enumerate() {
            let (_, mut g) = pool.pin_new(file).unwrap();
            g.write(|b| b[0] = v as u8);
        }
    }

    #[test]
    fn frames_of_a_forgotten_file_are_reused_before_live_pages_are_evicted() {
        let (pool, b, stats) = pool_with_file(8);
        let a = pool.register(Box::new(MemPager::new(stats.clone())));
        // B's five frames come first, so a CLOCK sweep from slot 0 would
        // pick one of them.
        fill(&pool, &[b, b, b, b, b, a, a, a]);
        pool.forget_file(a).unwrap();
        assert_consistent(&pool);
        for _ in 0..3 {
            let (_, g) = pool.pin_new(b).unwrap();
            drop(g);
        }
        assert_consistent(&pool);
        assert_eq!(stats.writes(), 0, "A's dirty pages were discarded, B's stayed resident");
        assert_eq!(pool.shard_stats()[0].evictions, 0);
        for p in 0..8 {
            let _ = pool.pin(b, p).unwrap();
        }
        assert_eq!(stats.reads(), 0, "every page of B is still resident");
    }

    #[test]
    fn frames_freed_by_truncation_are_reused_before_live_pages_are_evicted() {
        let (pool, b, stats) = pool_with_file(8);
        let a = pool.register(Box::new(MemPager::new(stats.clone())));
        fill(&pool, &[b, b, b, b, a, a, a, a]);
        pool.truncate_file(a, 1).unwrap();
        assert_consistent(&pool);
        for _ in 0..3 {
            let (_, g) = pool.pin_new(b).unwrap();
            drop(g);
        }
        assert_consistent(&pool);
        assert_eq!(stats.writes(), 0);
        assert_eq!(pool.shard_stats()[0].evictions, 0);
        for p in 0..7 {
            let _ = pool.pin(b, p).unwrap();
        }
        let _ = pool.pin(a, 0).unwrap();
        assert_eq!(stats.reads(), 0, "B's pages and A's kept page are still resident");
    }

    #[test]
    fn a_reservation_after_frees_drops_free_frames_and_keeps_the_map_consistent() {
        let (pool, b, stats) = pool_with_file(8);
        let a = pool.register(Box::new(MemPager::new(stats.clone())));
        let c = pool.register(Box::new(MemPager::new(stats.clone())));
        // Interleaved, so shrinking moves both free and live frames.
        fill(&pool, &[a, b, c, b, a, b, c, a]);
        pool.forget_file(a).unwrap();
        pool.forget_file(c).unwrap();
        assert_consistent(&pool);
        let r = pool.reserve(3).unwrap();
        assert_consistent(&pool);
        assert_eq!(pool.resident(), 3, "only free frames were dropped");
        assert_eq!(stats.writes(), 0);
        for (p, v) in [1u8, 3, 5].into_iter().enumerate() {
            let g = pool.pin(b, p as PageId).unwrap();
            assert_eq!(g.read(|bytes| bytes[0]), v);
        }
        drop(r);
        for _ in 0..5 {
            let (_, g) = pool.pin_new(b).unwrap();
            drop(g);
        }
        assert_consistent(&pool);
        assert_eq!((stats.reads(), stats.writes()), (0, 0));
    }

    #[test]
    fn sequential_flood_scan_rereads_when_larger_than_pool() {
        // A file of 8 pages scanned twice through a 4-page pool re-reads
        // almost everything: CLOCK gives next to no inter-scan reuse for a
        // flooding scan (a handful of lucky hits are possible depending on
        // where the clock hand sits).
        let (pool, file, stats) = pool_with_file(4);
        for _ in 0..8 {
            let _ = pool.pin_new(file).unwrap();
        }
        pool.flush_all().unwrap();
        pool.purge_file(file).unwrap();
        let before = stats.snapshot();
        for _ in 0..2 {
            for p in 0..8 {
                let _ = pool.pin(file, p).unwrap();
            }
        }
        let delta = stats.snapshot() - before;
        assert!(delta.reads >= 12, "reads = {}", delta.reads);
    }

    #[test]
    fn small_pools_use_one_shard_large_pools_stripe() {
        assert_eq!(BufferPool::new(4).shards(), 1);
        assert_eq!(BufferPool::new(SHARDING_THRESHOLD - 1).shards(), 1);
        assert!(BufferPool::new(SHARDING_THRESHOLD).shards() > 1);
        assert_eq!(BufferPool::new(4096).shards(), 16);
    }

    #[test]
    fn sharded_pool_round_trips_and_counts_hits() {
        let (pool, file, _) = pool_with_file(256);
        assert!(pool.shards() > 1);
        for v in 0..64u8 {
            let (_, mut g) = pool.pin_new(file).unwrap();
            g.write(|b| b[0] = v);
        }
        for v in 0..64u8 {
            let g = pool.pin(file, v as u64).unwrap();
            assert_eq!(g.read(|b| b[0]), v);
        }
        let (hits, misses) = pool.hit_stats();
        assert_eq!(hits, 64, "everything fits: second pass is all hits");
        assert_eq!(misses, 0, "pin_new is not a miss");
        assert!((pool.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sharded_capacity_shares_sum_to_effective_capacity() {
        let pool = BufferPool::new(200);
        let n = pool.shards();
        assert!(n > 1);
        let total: usize = pool.shared.shards.iter().map(|s| s.lock().capacity).sum();
        assert_eq!(total, 200);
        let r = pool.reserve(50).unwrap();
        let total: usize = pool.shared.shards.iter().map(|s| s.lock().capacity).sum();
        assert_eq!(total, 150);
        drop(r);
        let total: usize = pool.shared.shards.iter().map(|s| s.lock().capacity).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn hit_stats_sum_every_shard() {
        let (pool, file, _) = pool_with_file(SHARDING_THRESHOLD);
        for _ in 0..2 * SHARDING_THRESHOLD {
            let _ = pool.pin_new(file).unwrap(); // over capacity → evictions
        }
        pool.flush_all().unwrap();
        pool.purge_file(file).unwrap();
        for p in 0..64 {
            let _ = pool.pin(file, p).unwrap(); // miss
            let _ = pool.pin(file, p).unwrap(); // hit
        }
        let per_shard = pool.shard_stats();
        assert_eq!(per_shard.len(), pool.shards());
        assert!(per_shard.iter().filter(|s| s.hits > 0).count() > 1, "{per_shard:?}");
        let evictions: u64 = per_shard.iter().map(|s| s.evictions).sum();
        assert_eq!(pool.hit_stats(), (64, 64));
        assert!(evictions >= SHARDING_THRESHOLD as u64, "evictions = {evictions}");
    }

    #[test]
    fn hit_ratio_reflects_misses() {
        let (pool, file, _) = pool_with_file(4);
        let (_, g) = pool.pin_new(file).unwrap();
        drop(g);
        pool.flush_all().unwrap();
        pool.purge_file(file).unwrap();
        let _ = pool.pin(file, 0).unwrap(); // miss
        let _ = pool.pin(file, 0).unwrap(); // hit
        assert_eq!(pool.hit_stats(), (1, 1));
        assert!((pool.hit_ratio() - 0.5).abs() < 1e-12);
    }
}
