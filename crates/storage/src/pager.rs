//! Page-granular storage devices.
//!
//! A [`Pager`] reads and writes fixed-size pages and reports every transfer
//! to an [`IoStats`]. Two implementations are provided:
//!
//! * [`FilePager`] — a real file on disk, one page per [`PAGE_SIZE`] bytes.
//! * [`MemPager`] — an in-memory vector of pages, for tests and for
//!   deterministic unit benchmarks.
//!
//! The page size is fixed at 4 KiB to match the paper's setup ("We set the
//! page size to 4KB").

use crate::error::{Result, StorageError};
use crate::stats::IoStats;
use iolap_obs::{Counter, Metrics};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Size of one page in bytes (4 KiB, as in the paper's experiments).
pub const PAGE_SIZE: usize = 4096;

/// Identifies a page within one pager: just its ordinal number.
pub type PageId = u64;

/// A page-granular storage device with I/O accounting.
///
/// All methods take `&mut self`: a pager is owned by exactly one
/// [`crate::BufferPool`] frame table at a time, which serializes access.
pub trait Pager: Send {
    /// Number of pages currently in the device.
    fn num_pages(&self) -> u64;

    /// Read page `page` into `buf` (`buf.len() == PAGE_SIZE`), charging one
    /// read to [`IoStats`].
    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` (`buf.len() == PAGE_SIZE`) to page `page`, charging one
    /// write to [`IoStats`].
    ///
    /// Writing the page exactly one past the end extends the device by one
    /// page; writing further past the end is an error.
    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()>;

    /// Write `buf.len() / PAGE_SIZE` contiguous pages starting at `first`.
    ///
    /// Counts exactly one write per page — identical to a loop of
    /// [`write_page`](Pager::write_page) (the default implementation) — but
    /// lets disk-backed pagers turn a coalesced write-back into a single
    /// seek + one contiguous transfer.
    fn write_contiguous(&mut self, first: PageId, buf: &[u8]) -> Result<()> {
        debug_assert!(buf.len().is_multiple_of(PAGE_SIZE));
        for (i, chunk) in buf.chunks_exact(PAGE_SIZE).enumerate() {
            self.write_page(first + i as u64, chunk)?;
        }
        Ok(())
    }

    /// Append a zeroed page and return its id.
    fn allocate_page(&mut self) -> Result<PageId>;

    /// Truncate the device to `pages` pages.
    fn truncate(&mut self, pages: u64) -> Result<()>;

    /// Force everything written so far onto durable storage (fsync).
    ///
    /// The write-ahead log's durability point: a batch is acknowledged
    /// only after its pages have both been written back *and* synced.
    /// In-memory devices are as durable as they will ever get, so the
    /// default is a no-op.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    /// Delete the backing storage; the pager is not used afterwards.
    /// Nothing is written or charged. In-memory devices free their pages
    /// when dropped, so the default is a no-op.
    fn delete(&mut self) -> Result<()> {
        Ok(())
    }

    /// The stats handle this pager reports into.
    fn stats(&self) -> &IoStats;
}

/// A [`Pager`] backed by a real file.
pub struct FilePager {
    file: File,
    path: PathBuf,
    num_pages: u64,
    stats: IoStats,
}

impl FilePager {
    /// Create (truncating) a pager file at `path`.
    pub fn create(path: impl AsRef<Path>, stats: IoStats) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| StorageError::io(format!("creating pager file {}", path.display()), e))?;
        Ok(Self { file, path, num_pages: 0, stats })
    }

    /// Open an existing pager file at `path`.
    pub fn open(path: impl AsRef<Path>, stats: IoStats) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).open(&path).map_err(|e| {
                StorageError::io(format!("opening pager file {}", path.display()), e)
            })?;
        let len =
            file.metadata().map_err(|e| StorageError::io("reading pager file metadata", e))?.len();
        Ok(Self { file, path, num_pages: len / PAGE_SIZE as u64, stats })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn seek_to(&mut self, page: PageId) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(page * PAGE_SIZE as u64))
            .map_err(|e| StorageError::io(format!("seeking to page {page}"), e))?;
        Ok(())
    }
}

impl Pager for FilePager {
    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if page >= self.num_pages {
            return Err(StorageError::PageOutOfBounds { page, len: self.num_pages });
        }
        self.seek_to(page)?;
        self.file
            .read_exact(buf)
            .map_err(|e| StorageError::io(format!("reading page {page}"), e))?;
        self.stats.add_reads(1);
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        if page > self.num_pages {
            return Err(StorageError::PageOutOfBounds { page, len: self.num_pages });
        }
        self.seek_to(page)?;
        self.file
            .write_all(buf)
            .map_err(|e| StorageError::io(format!("writing page {page}"), e))?;
        if page == self.num_pages {
            self.num_pages += 1;
        }
        self.stats.add_writes(1);
        Ok(())
    }

    fn write_contiguous(&mut self, first: PageId, buf: &[u8]) -> Result<()> {
        debug_assert!(buf.len().is_multiple_of(PAGE_SIZE));
        let n = (buf.len() / PAGE_SIZE) as u64;
        if n == 0 {
            return Ok(());
        }
        if first > self.num_pages {
            return Err(StorageError::PageOutOfBounds { page: first, len: self.num_pages });
        }
        self.seek_to(first)?;
        self.file
            .write_all(buf)
            .map_err(|e| StorageError::io(format!("writing pages {first}..{}", first + n), e))?;
        self.num_pages = self.num_pages.max(first + n);
        self.stats.add_writes(n);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = self.num_pages;
        // Extending the file is metadata work, not a counted data transfer;
        // the page is counted when its contents are actually written back.
        self.file
            .set_len((id + 1) * PAGE_SIZE as u64)
            .map_err(|e| StorageError::io("extending pager file", e))?;
        self.num_pages += 1;
        Ok(id)
    }

    fn truncate(&mut self, pages: u64) -> Result<()> {
        self.file
            .set_len(pages * PAGE_SIZE as u64)
            .map_err(|e| StorageError::io("truncating pager file", e))?;
        self.num_pages = pages;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_all()
            .map_err(|e| StorageError::io(format!("syncing pager file {}", self.path.display()), e))
    }

    fn delete(&mut self) -> Result<()> {
        std::fs::remove_file(&self.path).map_err(|e| {
            StorageError::io(format!("removing pager file {}", self.path.display()), e)
        })
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A [`Pager`] kept entirely in memory. Still counts I/Os, so tests can
/// assert exact I/O behaviour without touching the filesystem.
pub struct MemPager {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    stats: IoStats,
}

impl MemPager {
    /// Create an empty in-memory pager reporting into `stats`.
    pub fn new(stats: IoStats) -> Self {
        Self { pages: Vec::new(), stats }
    }
}

impl Pager for MemPager {
    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let src = self
            .pages
            .get(page as usize)
            .ok_or(StorageError::PageOutOfBounds { page, len: self.pages.len() as u64 })?;
        buf.copy_from_slice(&src[..]);
        self.stats.add_reads(1);
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        let n = self.pages.len() as u64;
        if page > n {
            return Err(StorageError::PageOutOfBounds { page, len: n });
        }
        if page == n {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
        }
        self.pages[page as usize].copy_from_slice(buf);
        self.stats.add_writes(1);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        self.pages.push(Box::new([0u8; PAGE_SIZE]));
        Ok(self.pages.len() as u64 - 1)
    }

    fn truncate(&mut self, pages: u64) -> Result<()> {
        self.pages.truncate(pages as usize);
        Ok(())
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }
}

/// A [`Pager`] decorator that mirrors every transfer into observability
/// counters (`pager.reads` / `pager.writes` / `pager.allocs`).
///
/// The wrapped pager's [`IoStats`] accounting is untouched — this type
/// only *adds* a second, independent set of counters — so wrapping a
/// pager can never change the cost model's page counts. [`crate::Env`]
/// applies the wrapper only when its observability handle is enabled;
/// the default (disabled) path never constructs one.
pub struct ObservedPager {
    inner: Box<dyn Pager>,
    reads: Counter,
    writes: Counter,
    allocs: Counter,
}

impl ObservedPager {
    /// Wrap `inner`, resolving the counter handles from `metrics` once so
    /// the per-page cost is a single relaxed atomic add.
    pub fn new(inner: Box<dyn Pager>, metrics: &Metrics) -> Self {
        Self {
            inner,
            reads: metrics.counter("pager.reads"),
            writes: metrics.counter("pager.writes"),
            allocs: metrics.counter("pager.allocs"),
        }
    }
}

impl Pager for ObservedPager {
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&mut self, page: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(page, buf)?;
        self.reads.inc();
        Ok(())
    }

    fn write_page(&mut self, page: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_page(page, buf)?;
        self.writes.inc();
        Ok(())
    }

    fn write_contiguous(&mut self, first: PageId, buf: &[u8]) -> Result<()> {
        self.inner.write_contiguous(first, buf)?;
        self.writes.add((buf.len() / PAGE_SIZE) as u64);
        Ok(())
    }

    fn allocate_page(&mut self) -> Result<PageId> {
        let id = self.inner.allocate_page()?;
        self.allocs.inc();
        Ok(id)
    }

    fn truncate(&mut self, pages: u64) -> Result<()> {
        self.inner.truncate(pages)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    fn delete(&mut self) -> Result<()> {
        self.inner.delete()
    }

    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_filled(v: u8) -> [u8; PAGE_SIZE] {
        [v; PAGE_SIZE]
    }

    fn exercise(pager: &mut dyn Pager) {
        let before = pager.stats().snapshot();
        pager.write_page(0, &page_filled(7)).unwrap();
        pager.write_page(1, &page_filled(9)).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[100], 7);
        pager.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        assert_eq!(pager.num_pages(), 2);
        let delta = pager.stats().snapshot() - before;
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.writes, 2);

        // Overwrite and re-read.
        pager.write_page(0, &page_filled(1)).unwrap();
        pager.read_page(0, &mut buf).unwrap();
        assert_eq!(buf[4095], 1);

        // Out of bounds.
        assert!(matches!(
            pager.read_page(5, &mut buf),
            Err(StorageError::PageOutOfBounds { page: 5, .. })
        ));
        assert!(matches!(
            pager.write_page(5, &page_filled(0)),
            Err(StorageError::PageOutOfBounds { page: 5, .. })
        ));

        // Allocation extends by one zeroed page.
        let id = pager.allocate_page().unwrap();
        assert_eq!(id, 2);
        pager.read_page(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));

        pager.truncate(1).unwrap();
        assert_eq!(pager.num_pages(), 1);
        assert!(pager.read_page(1, &mut buf).is_err());
    }

    #[test]
    fn mem_pager_roundtrip() {
        let mut p = MemPager::new(IoStats::new());
        exercise(&mut p);
    }

    #[test]
    fn file_pager_roundtrip() {
        let dir = crate::TempDir::new("pager-test").unwrap();
        let mut p = FilePager::create(dir.path().join("t.pages"), IoStats::new()).unwrap();
        exercise(&mut p);
    }

    #[test]
    fn observed_pager_counts_without_touching_io_stats() {
        let stats = IoStats::new();
        let metrics = Metrics::new();
        let mut p = ObservedPager::new(Box::new(MemPager::new(stats.clone())), &metrics);
        exercise(&mut p);
        // Obs counters saw the traffic…
        assert!(metrics.counter("pager.reads").get() >= 4);
        assert!(metrics.counter("pager.writes").get() >= 3);
        assert_eq!(metrics.counter("pager.allocs").get(), 1);
        // …and the accounted stats are exactly what a bare MemPager reports.
        let mut bare = MemPager::new(IoStats::new());
        exercise(&mut bare);
        assert_eq!(stats.snapshot(), bare.stats().snapshot());
    }

    #[test]
    fn file_pager_reopen_preserves_pages() {
        let dir = crate::TempDir::new("pager-reopen").unwrap();
        let path = dir.path().join("t.pages");
        {
            let mut p = FilePager::create(&path, IoStats::new()).unwrap();
            p.write_page(0, &page_filled(3)).unwrap();
            p.write_page(1, &page_filled(4)).unwrap();
        }
        let mut p = FilePager::open(&path, IoStats::new()).unwrap();
        assert_eq!(p.num_pages(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        p.read_page(1, &mut buf).unwrap();
        assert_eq!(buf[17], 4);
    }
}
