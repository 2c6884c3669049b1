//! Typed fixed-width record files over the buffer pool.
//!
//! A [`RecordFile`] stores records of one type back to back, `PAGE_SIZE /
//! record_size` per page, and offers random access ([`RecordFile::get`] /
//! [`RecordFile::set`]) plus sequential cursors ([`ScanCursor`]) that pin
//! one page at a time — the access pattern of every pass in the paper's
//! algorithms.

use crate::buffer::{BufferPool, FileId, PageGuard};
use crate::codec::Codec;
use crate::error::{Result, StorageError};
use crate::pager::{PageId, PAGE_SIZE};
use std::marker::PhantomData;

/// A file of fixed-width records of type `T`.
///
/// The record count is session metadata held in memory; files live for the
/// duration of one [`crate::Env`] (experiments re-generate their inputs,
/// so crash persistence of the count is deliberately out of scope).
pub struct RecordFile<T, C: Codec<T>> {
    pool: BufferPool,
    file: FileId,
    codec: C,
    len: u64,
    recs_per_page: usize,
    /// Cached guard for the page being appended to, to avoid re-pinning on
    /// every push.
    append_guard: Option<(PageId, PageGuard)>,
    _marker: PhantomData<fn() -> T>,
}

impl<T, C: Codec<T>> RecordFile<T, C> {
    /// Wrap a registered file. Exposed for [`crate::Env`]; use
    /// [`crate::Env::create_file`] instead.
    pub(crate) fn new(pool: BufferPool, file: FileId, codec: C) -> Self {
        let size = codec.size();
        assert!(size > 0 && size <= PAGE_SIZE, "record size {size} out of range");
        let recs_per_page = PAGE_SIZE / size;
        RecordFile {
            pool,
            file,
            codec,
            len: 0,
            recs_per_page,
            append_guard: None,
            _marker: PhantomData,
        }
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of records that fit in one page.
    pub fn recs_per_page(&self) -> usize {
        self.recs_per_page
    }

    /// Number of pages occupied by the current records.
    pub fn num_pages(&self) -> u64 {
        self.len.div_ceil(self.recs_per_page as u64)
    }

    /// The codec used by this file.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// The buffer pool this file lives in.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    #[inline]
    fn locate(&self, index: u64) -> (PageId, usize) {
        let page = index / self.recs_per_page as u64;
        let slot = (index % self.recs_per_page as u64) as usize;
        (page, slot * self.codec.size())
    }

    /// Append one record.
    pub fn push(&mut self, v: &T) -> Result<()> {
        let (page, off) = self.locate(self.len);
        let need_new_page = self.len.is_multiple_of(self.recs_per_page as u64);
        let reuse = matches!(&self.append_guard, Some((p, _)) if *p == page);
        if !reuse {
            self.append_guard = None; // drop (unpin) the old guard first
            let guard = if need_new_page {
                let (new_page, guard) = self.pool.pin_new(self.file)?;
                debug_assert_eq!(new_page, page);
                guard
            } else {
                self.pool.pin(self.file, page)?
            };
            self.append_guard = Some((page, guard));
        }
        let size = self.codec.size();
        let guard = &mut self.append_guard.as_mut().expect("guard set above").1;
        guard.write(|bytes| self.codec.encode(v, &mut bytes[off..off + size]));
        self.len += 1;
        Ok(())
    }

    /// Append every record from an iterator.
    pub fn extend<'a, I>(&mut self, iter: I) -> Result<()>
    where
        T: 'a,
        I: IntoIterator<Item = &'a T>,
    {
        for v in iter {
            self.push(v)?;
        }
        Ok(())
    }

    /// Read the record at `index`.
    pub fn get(&self, index: u64) -> Result<T> {
        if index >= self.len {
            return Err(StorageError::RecordOutOfBounds { index, len: self.len });
        }
        let (page, off) = self.locate(index);
        let size = self.codec.size();
        // The append guard may hold this page with newer data than disk;
        // pin() will find it in the pool, so this is coherent.
        let guard = self.pool.pin(self.file, page)?;
        Ok(guard.read(|bytes| self.codec.decode(&bytes[off..off + size])))
    }

    /// Overwrite the record at `index`.
    pub fn set(&mut self, index: u64, v: &T) -> Result<()> {
        if index >= self.len {
            return Err(StorageError::RecordOutOfBounds { index, len: self.len });
        }
        let (page, off) = self.locate(index);
        let size = self.codec.size();
        let mut guard = self.pool.pin(self.file, page)?;
        guard.write(|bytes| self.codec.encode(v, &mut bytes[off..off + size]));
        Ok(())
    }

    /// Sequential cursor over `[start, len)`. The cursor pins one page at a
    /// time and supports writing back the most recently read record.
    pub fn scan_from(&mut self, start: u64) -> ScanCursor<'_, T, C> {
        // Release the append guard so a full-file scan sees stable pages
        // and so the cursor's pins don't compete with it.
        self.append_guard = None;
        ScanCursor { file: self, next: start, current: None, last_read: None }
    }

    /// Sequential cursor over the whole file.
    pub fn scan(&mut self) -> ScanCursor<'_, T, C> {
        self.scan_from(0)
    }

    /// Read records `[start, start+out.len())` into `out`; returns how many
    /// were actually read (less if the file ends first).
    pub fn read_batch(&self, start: u64, out: &mut Vec<T>, max: usize) -> Result<usize> {
        let end = (start + max as u64).min(self.len);
        let size = self.codec.size();
        let mut i = start;
        let mut n = 0;
        while i < end {
            let (page, _) = self.locate(i);
            let guard = self.pool.pin(self.file, page)?;
            let first_slot = (i % self.recs_per_page as u64) as usize;
            let in_page = ((self.recs_per_page - first_slot) as u64).min(end - i) as usize;
            guard.read(|bytes| {
                for s in 0..in_page {
                    let off = (first_slot + s) * size;
                    out.push(self.codec.decode(&bytes[off..off + size]));
                }
            });
            i += in_page as u64;
            n += in_page;
        }
        Ok(n)
    }

    /// Drop all records (keeps the file registered; pages are discarded).
    pub fn clear(&mut self) -> Result<()> {
        self.append_guard = None;
        self.pool.truncate_file(self.file, 0)?;
        self.len = 0;
        Ok(())
    }

    /// Write this file's dirty pages back and fsync the backing device —
    /// the durability point of the write-ahead log. The append guard is
    /// released first so the in-progress page's latest bytes are included.
    pub fn sync(&mut self) -> Result<()> {
        self.append_guard = None;
        self.pool.sync_file(self.file)
    }

    /// Adopt a record count discovered by crash recovery (the count itself
    /// is session metadata — see the type docs). `len` must not exceed the
    /// capacity of the pages already in the backing device.
    pub(crate) fn set_recovered_len(&mut self, len: u64) {
        debug_assert!(len <= self.pool.file_pages(self.file) * self.recs_per_page as u64);
        self.append_guard = None;
        self.len = len;
    }

    /// Zero the unused slots of the final partial page, so stale bytes past
    /// the recovered tail can never decode as records on a later reopen
    /// (the write-ahead log's recovery hygiene).
    pub(crate) fn zero_tail(&mut self) -> Result<()> {
        if self.len == 0 || self.len.is_multiple_of(self.recs_per_page as u64) {
            return Ok(());
        }
        let (page, _) = self.locate(self.len - 1);
        let end = (self.len % self.recs_per_page as u64) as usize * self.codec.size();
        self.append_guard = None;
        let mut guard = self.pool.pin(self.file, page)?;
        guard.write(|bytes| bytes[end..].fill(0));
        Ok(())
    }

    /// Release the cached append-page pin. Call when a file has been fully
    /// written and will sit idle (e.g. a finished sort run) so its pinned
    /// page does not occupy a pool frame.
    pub fn seal(&mut self) {
        self.append_guard = None;
    }

    /// Remove this file from the pool and delete its backing storage. Its
    /// pages are discarded, not written back, so deleting costs no I/O.
    pub fn delete(mut self) -> Result<()> {
        self.append_guard = None;
        self.pool.forget_file(self.file)
    }

    /// Flush this file's dirty pages (flushes the whole pool; cheap when
    /// little is dirty).
    pub fn flush(&mut self) -> Result<()> {
        self.append_guard = None;
        self.pool.flush_all()
    }

    /// Evict this file's pages from the pool so the next scan is cold.
    pub fn purge_cache(&mut self) -> Result<()> {
        self.append_guard = None;
        self.pool.flush_all()?;
        self.pool.purge_file(self.file)
    }

    /// The pool-level id of this file.
    pub fn file_id(&self) -> FileId {
        self.file
    }
}

/// A sequential cursor. See [`RecordFile::scan`].
pub struct ScanCursor<'a, T, C: Codec<T>> {
    file: &'a mut RecordFile<T, C>,
    next: u64,
    current: Option<(PageId, PageGuard)>,
    last_read: Option<u64>,
}

impl<T, C: Codec<T>> ScanCursor<'_, T, C> {
    /// Index of the record the next `next()` call will return.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Read the next record, or `None` at end of file.
    #[allow(clippy::should_implement_trait)] // fallible cursor, not Iterator
    pub fn next(&mut self) -> Result<Option<T>> {
        if self.next >= self.file.len {
            return Ok(None);
        }
        let (page, off) = self.file.locate(self.next);
        self.ensure_page(page)?;
        let size = self.file.codec.size();
        let guard = &self.current.as_ref().expect("pinned above").1;
        let v = guard.read(|bytes| self.file.codec.decode(&bytes[off..off + size]));
        self.last_read = Some(self.next);
        self.next += 1;
        Ok(Some(v))
    }

    /// Overwrite the record most recently returned by `next()`.
    pub fn write_back(&mut self, v: &T) -> Result<()> {
        let index = self
            .last_read
            .ok_or_else(|| StorageError::InvalidConfig("write_back before next()".into()))?;
        let (page, off) = self.file.locate(index);
        self.ensure_page(page)?;
        let size = self.file.codec.size();
        let guard = &mut self.current.as_mut().expect("pinned above").1;
        guard.write(|bytes| self.file.codec.encode(v, &mut bytes[off..off + size]));
        Ok(())
    }

    /// Skip forward so the next `next()` returns record `index`.
    pub fn seek(&mut self, index: u64) {
        self.next = index;
        self.last_read = None;
    }

    fn ensure_page(&mut self, page: PageId) -> Result<()> {
        let held = matches!(&self.current, Some((p, _)) if *p == page);
        if !held {
            self.current = None; // unpin previous before pinning next
            let guard = self.file.pool.pin(self.file.file, page)?;
            self.current = Some((page, guard));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::codec::U64Codec;
    use crate::Env;

    fn env() -> Env {
        Env::builder("recfile-test").pool_pages(8).in_memory().build().unwrap()
    }

    #[test]
    fn push_get_roundtrip() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..5000u64 {
            f.push(&(i * 3)).unwrap();
        }
        assert_eq!(f.len(), 5000);
        for i in (0..5000).step_by(7) {
            assert_eq!(f.get(i).unwrap(), i * 3);
        }
        assert!(f.get(5000).is_err());
    }

    #[test]
    fn set_overwrites() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..100u64 {
            f.push(&i).unwrap();
        }
        f.set(42, &999).unwrap();
        assert_eq!(f.get(42).unwrap(), 999);
        assert_eq!(f.get(41).unwrap(), 41);
        assert!(f.set(100, &0).is_err());
    }

    #[test]
    fn scan_sees_all_records_in_order() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        let n = 2048u64; // 4 pages of 512
        for i in 0..n {
            f.push(&(i * i)).unwrap();
        }
        let mut cursor = f.scan();
        let mut count = 0u64;
        while let Some(v) = cursor.next().unwrap() {
            assert_eq!(v, count * count);
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn scan_write_back_persists() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..1000u64 {
            f.push(&i).unwrap();
        }
        let mut cursor = f.scan();
        while let Some(v) = cursor.next().unwrap() {
            cursor.write_back(&(v * 2)).unwrap();
        }
        drop(cursor);
        for i in 0..1000u64 {
            assert_eq!(f.get(i).unwrap(), i * 2);
        }
    }

    #[test]
    fn scan_from_middle() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..100u64 {
            f.push(&i).unwrap();
        }
        let mut cursor = f.scan_from(90);
        let mut seen = Vec::new();
        while let Some(v) = cursor.next().unwrap() {
            seen.push(v);
        }
        assert_eq!(seen, (90..100).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_scan_costs_one_read_per_page() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        let n = 512u64 * 6; // 6 pages
        for i in 0..n {
            f.push(&i).unwrap();
        }
        f.purge_cache().unwrap();
        let before = env.stats().snapshot();
        let mut cursor = f.scan();
        while cursor.next().unwrap().is_some() {}
        drop(cursor);
        let delta = env.stats().snapshot() - before;
        assert_eq!(delta.reads, 6);
        assert_eq!(delta.writes, 0);
    }

    #[test]
    fn read_write_scan_costs_read_plus_write_per_page() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        let n = 512u64 * 4;
        for i in 0..n {
            f.push(&i).unwrap();
        }
        f.purge_cache().unwrap();
        let before = env.stats().snapshot();
        let mut cursor = f.scan();
        while let Some(v) = cursor.next().unwrap() {
            cursor.write_back(&(v + 1)).unwrap();
        }
        drop(cursor);
        f.purge_cache().unwrap(); // force dirty write-back
        let delta = env.stats().snapshot() - before;
        assert_eq!(delta.reads, 4);
        assert_eq!(delta.writes, 4);
    }

    #[test]
    fn clear_resets() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..100u64 {
            f.push(&i).unwrap();
        }
        f.clear().unwrap();
        assert!(f.is_empty());
        f.push(&7).unwrap();
        assert_eq!(f.get(0).unwrap(), 7);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn delete_discards_dirty_pages_without_charging_writes() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..512 * 3u64 {
            f.push(&i).unwrap(); // three dirty pages, all resident
        }
        f.delete().unwrap();
        assert_eq!(env.stats().snapshot().total(), 0);
        assert_eq!(env.pool().resident(), 0);
    }

    #[test]
    fn delete_removes_the_backing_file() {
        let dir = crate::TempDir::new("recfile-delete").unwrap();
        let env = Env::builder("recfile-delete").pool_pages(8).dir(dir.path()).build().unwrap();
        let files = || std::fs::read_dir(dir.path()).unwrap().count();
        let mut keep = env.create_file("keep", U64Codec).unwrap();
        let mut gone = env.create_file("gone", U64Codec).unwrap();
        for i in 0..2048u64 {
            keep.push(&i).unwrap();
            gone.push(&i).unwrap();
        }
        assert_eq!(files(), 2);
        gone.delete().unwrap();
        assert_eq!(files(), 1);
        assert_eq!(keep.get(2047).unwrap(), 2047);
    }

    #[test]
    fn read_batch_spans_pages() {
        let env = env();
        let mut f = env.create_file("a", U64Codec).unwrap();
        for i in 0..1500u64 {
            f.push(&i).unwrap();
        }
        let mut out = Vec::new();
        let n = f.read_batch(500, &mut out, 700).unwrap();
        assert_eq!(n, 700);
        assert_eq!(out[0], 500);
        assert_eq!(out[699], 1199);
        out.clear();
        let n = f.read_batch(1400, &mut out, 700).unwrap();
        assert_eq!(n, 100);
    }
}
