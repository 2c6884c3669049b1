//! Immutable, indexed EDB segments and the shared pruning cursor.
//!
//! An [`EdbSegment`] holds Extended Database entries sorted in canonical
//! cell order ([`iolap_model::cmp_cells`]) in compressed columnar pages:
//! each page is one blob (per-dimension delta+varint coordinate streams,
//! change-bitmap f64 streams, checksum; see `iolap_model::segment_page`)
//! packed to fit a single `PAGE_SIZE` disk block, so page density varies
//! with the data.
//!
//! The footer carries one fence (min/max leaf id per dimension) per page,
//! so Theorem 12 contrapositive pruning, exclusion sets and compaction
//! never look inside a page they skip. Segments are immutable: allocation
//! produces one base segment, incremental maintenance appends delta
//! segments and retires superseded facts through per-segment *exclusion
//! sets* ([`SegmentView`]), and compaction rewrites tiers without touching
//! published `Arc`s.
//!
//! [`SegmentCursor`] is the one scan loop shared by the query crate
//! (`aggregate_edb`, `rollup`, `pivot`) and the server's snapshot answer
//! path: it walks the views in order, skips pages whose fence box is
//! disjoint from the query box, and visits the surviving live entries in
//! segment order. Every page goes through the fused scan kernel
//! (`iolap_model::segment_page::PageScratch`): its checksum is verified on
//! the first decode after the segment was built or loaded and not again
//! (pages are immutable in memory), its columns are decoded into one
//! reusable per-scan scratch with the query box folded into a keep-mask on
//! the way, and records are built only for the rows that survive — the
//! exclusion set is probed for those alone. Because pruning only ever skips
//! pages that contain **no** cell
//! of the query box, the visited entry sequence — and therefore every f64
//! accumulation over it — is bit-identical to an unpruned scan of the same
//! views. A corrupt or truncated page surfaces as a storage error from the
//! cursor, and a corrupt footer (checksummed) as one from
//! [`EdbSegment::load`]; neither panics or yields a short read.

use crate::error::{CoreError, Result};
use iolap_model::{
    cmp_cells, EdbRecord, FactId, PageBuilder, PageScratch, PageSelect, RegionBox, SegmentFooter,
    MAX_DIMS, MAX_V2_PAGE_BYTES,
};
use iolap_storage::StorageError;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[cfg(test)]
thread_local! {
    /// Checksum passes this thread has asked the page kernel for.
    static CHECKSUM_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Pages this thread has decoded, through any entry point.
    static PAGE_DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Pages this thread has decoded so far.
#[cfg(test)]
pub(crate) fn page_decodes() -> u64 {
    PAGE_DECODES.with(|c| c.get())
}

/// One immutable, sorted, page-aligned run of EDB entries with its fence
/// index. The encoded pages are decoded lazily at scan time, so at-rest
/// corruption inside a page surfaces from the cursor as an error, not at
/// load.
pub struct EdbSegment {
    k: usize,
    pages: Vec<Box<[u8]>>,
    /// Per page: set once the page has decoded cleanly with its checksum
    /// verified. The payloads are immutable behind the segment's `Arc`, so
    /// later decodes skip the checksum pass (and nothing else); a page
    /// that fails is never marked.
    verified: Vec<AtomicBool>,
    footer: SegmentFooter,
}

impl EdbSegment {
    /// Build a segment from entries in any order: stable-sorts them into
    /// canonical cell order (ties keep input order, so a deterministic
    /// input order yields a deterministic — and thus bit-reproducible —
    /// segment) and encodes the pages. Input made of runs that are each
    /// already sorted — a compaction's concatenated tiers — costs the sort
    /// only the merges of those runs.
    pub fn build(k: usize, mut entries: Vec<EdbRecord>) -> Self {
        entries.sort_by(|a, b| cmp_cells(&a.cell, &b.cell, k));
        let mut pages = Vec::new();
        let mut footer = SegmentFooter::new(k);
        let mut builder = PageBuilder::new(k);
        let mut close = |builder: &mut PageBuilder| {
            let (recs, bytes) = builder.finish();
            footer.push_page(&recs, bytes.len());
            pages.push(bytes.into_boxed_slice());
        };
        for e in entries {
            if !builder.is_empty() && builder.len_with(&e) > MAX_V2_PAGE_BYTES {
                close(&mut builder);
            }
            builder.push(e);
        }
        if !builder.is_empty() {
            close(&mut builder);
        }
        Self::unverified(k, pages, footer)
    }

    fn unverified(k: usize, pages: Vec<Box<[u8]>>, footer: SegmentFooter) -> Self {
        let verified = pages.iter().map(|_| AtomicBool::new(false)).collect();
        EdbSegment { k, pages, verified, footer }
    }

    /// Number of dimensions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.footer.stats.entries
    }

    /// True when the segment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages (each indexed by one fence).
    pub fn num_pages(&self) -> u64 {
        self.footer.num_pages()
    }

    /// Bytes the exact-I/O meter charges for reading page `p`: its
    /// compressed payload length.
    pub fn page_io_bytes(&self, p: u64) -> u64 {
        u64::from(self.footer.page_bytes[p as usize])
    }

    /// Total at-rest payload bytes of the entry pages.
    pub fn encoded_bytes(&self) -> u64 {
        self.footer.page_bytes.iter().map(|&b| u64::from(b)).sum()
    }

    /// Uncompressed row bytes of the same entries (`entries × (4k + 24)`).
    pub fn uncompressed_bytes(&self) -> u64 {
        self.len() * (4 * self.k + 24) as u64
    }

    /// Compression ratio `uncompressed / encoded` (1.0 for an empty
    /// segment).
    pub fn compression_ratio(&self) -> f64 {
        let enc = self.encoded_bytes();
        if enc == 0 {
            return 1.0;
        }
        self.uncompressed_bytes() as f64 / enc as f64
    }

    /// The entries of page `p`, decoded through `buf`. A corrupt page
    /// yields a storage error, a `p` past the last page a bad-input error.
    /// Random access pays for a kernel scratch per call; scans go through
    /// [`SegmentCursor`] or [`EdbSegment::for_each_entry`], which reuse
    /// one.
    pub fn page_decoded<'s>(
        &'s self,
        p: u64,
        buf: &'s mut Vec<EdbRecord>,
    ) -> Result<&'s [EdbRecord]> {
        if p >= self.num_pages() {
            return Err(CoreError::BadInput(format!(
                "segment page {p} out of range: the segment has {} pages",
                self.num_pages()
            )));
        }
        self.page_into(p, &mut PageScratch::default(), buf)
    }

    /// [`EdbSegment::page_decoded`] for an in-range `p`, through a
    /// caller-owned kernel scratch.
    fn page_into<'s>(
        &'s self,
        p: u64,
        scratch: &mut PageScratch,
        buf: &'s mut Vec<EdbRecord>,
    ) -> Result<&'s [EdbRecord]> {
        self.decode(p, &PageSelect::all(), scratch)?;
        buf.clear();
        buf.extend(scratch.rows());
        Ok(&buf[..])
    }

    /// Decode page `p` into `scratch`, keeping the rows `select` keeps.
    /// The one gate every read of a page goes through: it verifies the
    /// checksum unless an earlier decode of this page already did, always
    /// runs the kernel's structural checks and the footer row-count check,
    /// and marks the page verified only after all of them passed.
    fn decode(&self, p: u64, select: &PageSelect, scratch: &mut PageScratch) -> Result<()> {
        let p = p as usize;
        // Acquire pairs with the Release store below. The flag publishes
        // nothing but "these immutable bytes passed": two threads racing on
        // an unverified page both verify it, and both store `true`.
        let seen = self.verified[p].load(Ordering::Acquire);
        #[cfg(test)]
        {
            PAGE_DECODES.with(|c| c.set(c.get() + 1));
            if !seen {
                CHECKSUM_PASSES.with(|c| c.set(c.get() + 1));
            }
        }
        let rows = scratch
            .decode(self.k, &self.pages[p], !seen, select)
            .map_err(|e| StorageError::Corrupt(format!("segment page {p}: {e}")))?;
        let want = self.footer.page_rows[p] as usize;
        if rows != want {
            return Err(StorageError::Corrupt(format!(
                "segment page {p} decoded to {rows} rows, footer says {want}"
            ))
            .into());
        }
        if !seen {
            self.verified[p].store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Visit every entry in segment order, decoding pages as needed.
    pub fn for_each_entry(&self, mut f: impl FnMut(&EdbRecord) -> Result<()>) -> Result<()> {
        let mut scratch = PageScratch::default();
        let mut buf = Vec::new();
        for p in 0..self.num_pages() {
            for e in self.page_into(p, &mut scratch, &mut buf)? {
                f(e)?;
            }
        }
        Ok(())
    }

    /// All entries, decoded, in segment order.
    pub fn records(&self) -> Result<Vec<EdbRecord>> {
        let mut out = Vec::with_capacity(self.len() as usize);
        self.for_each_entry(|e| {
            out.push(e.clone());
            Ok(())
        })?;
        Ok(out)
    }

    /// The footer (fences + stats).
    pub fn footer(&self) -> &SegmentFooter {
        &self.footer
    }

    /// Persist the segment to `path` in the page-aligned segment file
    /// format (see [`iolap_storage::segfile`]): one encoded page per block,
    /// then the checksummed footer.
    pub fn save(&self, path: &Path) -> Result<()> {
        iolap_storage::segfile::write_segment(path, &self.pages, &self.footer.encode())?;
        Ok(())
    }

    /// Load a segment written by [`EdbSegment::save`]. The footer is
    /// verified against its checksum and the file; every failure there is
    /// [`StorageError::Corrupt`]. Page payloads are *not* decoded here —
    /// a page's checksum is verified by the first decode that touches it,
    /// so a bit-flipped page surfaces from the cursor as a storage error
    /// rather than slowing every load.
    pub fn load(path: &Path, k: usize) -> Result<Self> {
        let (pages, footer_bytes) = iolap_storage::segfile::read_segment(path)?;
        let corrupt = |m: String| CoreError::from(StorageError::Corrupt(m));
        let footer = SegmentFooter::decode(&footer_bytes)
            .map_err(|e| corrupt(format!("{}: {e}", path.display())))?;
        if footer.k != k {
            return Err(corrupt(format!("segment footer has k={}, want k={k}", footer.k)));
        }
        if footer.num_pages() != pages.len() as u64 {
            return Err(corrupt(format!(
                "segment file has {} pages, footer indexes {}",
                pages.len(),
                footer.num_pages()
            )));
        }
        for (p, page) in pages.iter().enumerate() {
            if footer.page_bytes[p] as usize != page.len() {
                return Err(corrupt(format!(
                    "segment page {p} is {} bytes, footer says {}",
                    page.len(),
                    footer.page_bytes[p]
                )));
            }
        }
        Ok(Self::unverified(k, pages, footer))
    }
}

/// A published view of one segment: the immutable entries plus the set of
/// fact ids retired from it (superseded by a newer segment or deleted).
///
/// Exclusion sets are copy-on-write: a maintenance step that retires facts
/// from a segment clones the set, while the segment itself — the large
/// allocation — is shared by `Arc` across every snapshot that contains it.
#[derive(Clone)]
pub struct SegmentView {
    /// The immutable segment.
    pub segment: Arc<EdbSegment>,
    /// Fact ids whose entries in this segment are no longer live.
    pub exclude: Arc<HashSet<FactId>>,
}

impl SegmentView {
    /// A view with nothing excluded.
    pub fn new(segment: Arc<EdbSegment>) -> Self {
        SegmentView { segment, exclude: Arc::new(HashSet::new()) }
    }

    /// Number of live entries (entries whose fact is not excluded).
    pub fn live_entries(&self) -> Result<u64> {
        if self.exclude.is_empty() {
            return Ok(self.segment.len());
        }
        let mut live = 0u64;
        self.segment.for_each_entry(|e| {
            if !self.exclude.contains(&e.fact_id) {
                live += 1;
            }
            Ok(())
        })?;
        Ok(live)
    }
}

/// Page-level counters from one cursor scan.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegScanStats {
    /// Pages whose entries were visited.
    pub pages_read: u64,
    /// Pages skipped because their fence box is disjoint from the query.
    pub pages_pruned: u64,
    /// Bytes charged for the pages read: their compressed payload bytes.
    pub bytes_read: u64,
}

impl SegScanStats {
    /// Merge another scan's counters into this one.
    pub fn absorb(&mut self, other: SegScanStats) {
        self.pages_read += other.pages_read;
        self.pages_pruned += other.pages_pruned;
        self.bytes_read += other.bytes_read;
    }
}

/// The shared pruned scan over a list of segment views.
pub struct SegmentCursor<'a> {
    views: &'a [SegmentView],
    region: RegionBox,
    prune: bool,
    stats: SegScanStats,
    scratch: PageScratch,
}

impl<'a> SegmentCursor<'a> {
    /// A pruning cursor over `views` restricted to `region`.
    pub fn new(views: &'a [SegmentView], region: RegionBox) -> Self {
        SegmentCursor {
            views,
            region,
            prune: true,
            stats: SegScanStats::default(),
            scratch: PageScratch::default(),
        }
    }

    /// A baseline cursor that reads every page (no fence pruning) but
    /// applies the same region/exclusion filters — the reference the
    /// pruned scan must match bit-for-bit.
    pub fn full_scan(views: &'a [SegmentView], region: RegionBox) -> Self {
        SegmentCursor {
            views,
            region,
            prune: false,
            stats: SegScanStats::default(),
            scratch: PageScratch::default(),
        }
    }

    /// The full-space region for dimensionality `k` (every leaf interval
    /// unconstrained up to `u32::MAX`).
    pub fn all_region(k: usize) -> RegionBox {
        RegionBox { lo: [0; MAX_DIMS], hi: [u32::MAX; MAX_DIMS], k: k as u8 }
    }

    /// Visit every live entry inside the region, in segment order then
    /// canonical cell order within each segment. Pages decode through one
    /// column scratch reused across the whole scan, which builds records
    /// for the in-region rows only; a corrupt page aborts the scan with a
    /// storage error.
    pub fn for_each(&mut self, mut f: impl FnMut(&EdbRecord)) -> Result<()> {
        for view in self.views {
            let seg = &*view.segment;
            let excl = &*view.exclude;
            let mut live = |e: &EdbRecord| {
                if excl.is_empty() || !excl.contains(&e.fact_id) {
                    f(e);
                }
            };
            for p in 0..seg.num_pages() {
                let fence = &seg.footer().fences[p as usize];
                if self.prune && fence.disjoint(&self.region) {
                    self.stats.pages_pruned += 1;
                    continue;
                }
                self.stats.pages_read += 1;
                self.stats.bytes_read += seg.page_io_bytes(p);
                // The unpruned baseline trusts no fence: it compares every
                // dimension of every row.
                let select = if self.prune {
                    PageSelect::within(&self.region, fence)
                } else {
                    PageSelect::region(&self.region)
                };
                seg.decode(p, &select, &mut self.scratch)?;
                for e in self.scratch.kept() {
                    live(&e);
                }
            }
        }
        Ok(())
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SegScanStats {
        self.stats
    }
}

/// The canonical weighted accumulation (`sum += w·m; count += w`) over the
/// live entries of `views` inside `region`, with fence pruning. Shared by
/// the query crate and the server so both produce bit-identical `(sum,
/// count)` pairs from identical views.
pub fn accumulate_region(
    views: &[SegmentView],
    region: &RegionBox,
) -> Result<(f64, f64, SegScanStats)> {
    let mut cursor = SegmentCursor::new(views, *region);
    let mut sum = 0.0;
    let mut count = 0.0;
    cursor.for_each(|e| {
        sum += e.weight * e.measure;
        count += e.weight;
    })?;
    Ok((sum, count, cursor.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_model::CellKey;
    use iolap_storage::PAGE_SIZE;

    fn cell(v: &[u32]) -> CellKey {
        let mut c = [0u32; MAX_DIMS];
        c[..v.len()].copy_from_slice(v);
        c
    }

    fn bx(lo: &[u32], hi: &[u32]) -> RegionBox {
        let mut l = [0u32; MAX_DIMS];
        let mut h = [0u32; MAX_DIMS];
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        RegionBox { lo: l, hi: h, k: lo.len() as u8 }
    }

    fn rec(fact_id: u64, c: &[u32], weight: f64, measure: f64) -> EdbRecord {
        EdbRecord { fact_id, cell: cell(c), weight, measure }
    }

    /// Entries spread over many cells so the segment spans several pages.
    fn wide_segment(k: usize, n: u32) -> EdbSegment {
        let entries: Vec<EdbRecord> =
            (0..n).map(|i| rec(i as u64, &[i % 97, i / 97], 1.0, i as f64)).collect();
        EdbSegment::build(k, entries)
    }

    #[test]
    fn build_sorts_canonically_and_paginates() {
        let entries =
            vec![rec(1, &[3, 0], 1.0, 5.0), rec(2, &[0, 1], 0.5, 2.0), rec(3, &[0, 0], 0.5, 2.0)];
        let seg = EdbSegment::build(2, entries);
        let cells: Vec<u32> = seg.records().unwrap().iter().map(|e| e.cell[0]).collect();
        assert_eq!(cells, vec![0, 0, 3]);
        assert_eq!(seg.num_pages(), 1);
        assert_eq!(seg.footer().stats.entries, 3);
        assert!(seg.compression_ratio() > 1.0);
    }

    #[test]
    fn stable_sort_keeps_equal_cell_input_order() {
        let seg =
            EdbSegment::build(2, vec![rec(9, &[1, 1], 0.25, 1.0), rec(7, &[1, 1], 0.75, 2.0)]);
        let ids: Vec<u64> = seg.records().unwrap().iter().map(|e| e.fact_id).collect();
        assert_eq!(ids, vec![9, 7], "ties must keep input order");
    }

    #[test]
    fn pruned_scan_is_bit_identical_to_full_scan() {
        let seg = Arc::new(wide_segment(2, 10_000));
        let views = vec![SegmentView::new(seg.clone())];
        for region in [
            bx(&[5, 0], &[6, 100]),
            bx(&[0, 0], &[97, 104]),
            bx(&[96, 90], &[97, 104]),
            bx(&[40, 40], &[40, 60]), // empty box
        ] {
            let (sum_p, count_p, stats_p) = accumulate_region(&views, &region).unwrap();
            let mut full = SegmentCursor::full_scan(&views, region);
            let (mut sum_f, mut count_f) = (0.0, 0.0);
            full.for_each(|e| {
                sum_f += e.weight * e.measure;
                count_f += e.weight;
            })
            .unwrap();
            assert_eq!(sum_p.to_bits(), sum_f.to_bits(), "{region:?}");
            assert_eq!(count_p.to_bits(), count_f.to_bits(), "{region:?}");
            assert_eq!(full.stats().pages_read, seg.num_pages());
            assert_eq!(full.stats().pages_pruned, 0);
            assert_eq!(stats_p.pages_read + stats_p.pages_pruned, seg.num_pages());
        }
    }

    #[test]
    fn selective_regions_prune_most_pages() {
        let seg = Arc::new(wide_segment(2, 10_000));
        let views = vec![SegmentView::new(seg.clone())];
        let (_, count, stats) = accumulate_region(&views, &bx(&[5, 0], &[6, 104])).unwrap();
        assert!(count > 0.0);
        assert!(
            stats.pages_pruned > stats.pages_read * 5,
            "selective box should prune most of {} pages (read {}, pruned {})",
            seg.num_pages(),
            stats.pages_read,
            stats.pages_pruned
        );
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn compression_shrinks_pages_and_the_meter_charges_compressed_bytes() {
        let seg = Arc::new(wide_segment(2, 10_000));
        assert!(seg.compression_ratio() > 1.5, "got {}", seg.compression_ratio());
        assert_eq!(seg.uncompressed_bytes(), 10_000 * 32);
        let rows_pages = seg.uncompressed_bytes().div_ceil(PAGE_SIZE as u64);
        assert!(seg.num_pages() < rows_pages, "compressed pages hold more rows");
        let region = SegmentCursor::all_region(2);
        let (_, _, stats) = accumulate_region(&[SegmentView::new(seg.clone())], &region).unwrap();
        assert_eq!(stats.bytes_read, seg.encoded_bytes());
    }

    #[test]
    fn exclusions_hide_facts_without_touching_the_segment() {
        let seg = Arc::new(EdbSegment::build(
            2,
            vec![rec(1, &[0, 0], 1.0, 10.0), rec(2, &[0, 1], 1.0, 20.0)],
        ));
        let mut view = SegmentView::new(seg.clone());
        assert_eq!(view.live_entries().unwrap(), 2);
        view.exclude = Arc::new([1u64].into_iter().collect());
        assert_eq!(view.live_entries().unwrap(), 1);
        let (sum, count, _) = accumulate_region(&[view], &SegmentCursor::all_region(2)).unwrap();
        assert_eq!(sum, 20.0);
        assert_eq!(count, 1.0);
        assert_eq!(seg.len(), 2, "segment itself is untouched");
    }

    #[test]
    fn segment_save_load_round_trips() {
        let dir = iolap_storage::TempDir::new("segment-io").unwrap();
        let path = dir.path().join("seg");
        let seg = wide_segment(2, 5_000);
        seg.save(&path).unwrap();
        let back = EdbSegment::load(&path, 2).unwrap();
        assert_eq!(back.records().unwrap(), seg.records().unwrap());
        assert_eq!(back.footer(), seg.footer());
        let err = EdbSegment::load(&path, 3).err().expect("wrong k must be rejected");
        assert!(matches!(err, CoreError::Storage(StorageError::Corrupt(_))), "{err:?}");
    }

    /// One flipped fence bit used to load cleanly and then prune a page
    /// that holds cells of the box, dropping it from every answer. The
    /// footer checksum makes the load itself fail.
    #[test]
    fn a_flipped_fence_bit_fails_the_load() {
        let dir = iolap_storage::TempDir::new("segment-fence-flip").unwrap();
        let path = dir.path().join("seg");
        let seg = wide_segment(2, 5_000);
        seg.save(&path).unwrap();
        let mut flipped = seg.footer().clone();
        flipped.fences[0].lo[0] ^= 1 << 31;
        let region = bx(&[0, 0], &[100, 50]);
        assert!(!seg.footer().fences[0].disjoint(&region));
        assert!(flipped.fences[0].disjoint(&region), "the flip would prune page 0");
        // The first footer byte the flip changes, located in the file.
        let (good, bad) = (seg.footer().encode(), flipped.encode());
        let at = (0..good.len()).find(|&i| good[i] != bad[i]).unwrap();
        let footer_start = (1 + seg.num_pages() as usize) * PAGE_SIZE;
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[footer_start + at], good[at]);
        bytes[footer_start + at] = bad[at];
        std::fs::write(&path, &bytes).unwrap();
        let err = EdbSegment::load(&path, 2).err().expect("a flipped fence must not load");
        assert!(
            matches!(&err, CoreError::Storage(StorageError::Corrupt(m)) if m.contains("checksum")),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_range_page_is_an_error() {
        let seg = wide_segment(2, 1_000);
        let mut buf = Vec::new();
        let last = seg.num_pages() - 1;
        assert!(!seg.page_decoded(last, &mut buf).unwrap().is_empty());
        for p in [seg.num_pages(), seg.num_pages() + 7, u64::MAX] {
            let err = seg.page_decoded(p, &mut buf).unwrap_err();
            assert!(
                matches!(&err, CoreError::BadInput(m) if m.contains(&p.to_string())
                    && m.contains(&format!("{} pages", seg.num_pages()))),
                "page {p}: {err:?}"
            );
        }
    }

    /// A saved segment, one payload bit of data page 3 flipped on disk.
    fn segment_file_with_page_3_flipped(dir: &iolap_storage::TempDir) -> std::path::PathBuf {
        let path = dir.path().join("seg");
        wide_segment(2, 5_000).save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3 * PAGE_SIZE + PAGE_SIZE / 2] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    fn checksum_passes() -> u64 {
        CHECKSUM_PASSES.with(|c| c.get())
    }

    #[test]
    fn a_corrupt_page_fails_through_every_entry_point_every_time() {
        let dir = iolap_storage::TempDir::new("segment-verify-once").unwrap();
        let path = segment_file_with_page_3_flipped(&dir);
        type Touch = fn(&Arc<EdbSegment>) -> Result<()>;
        let entry_points: [(&str, Touch); 5] = [
            ("cursor", |seg| {
                let views = [SegmentView::new(seg.clone())];
                accumulate_region(&views, &SegmentCursor::all_region(2)).map(|_| ())
            }),
            ("page_decoded", |seg| seg.page_decoded(2, &mut Vec::new()).map(|_| ())),
            ("for_each_entry", |seg| seg.for_each_entry(|_| Ok(()))),
            ("records", |seg| seg.records().map(|_| ())),
            ("live_entries", |seg| {
                let mut view = SegmentView::new(seg.clone());
                view.exclude = Arc::new([1u64].into_iter().collect());
                view.live_entries().map(|_| ())
            }),
        ];
        for (first, touch) in entry_points {
            // Data page 3 of the file is segment page 2 (page 0 is the header).
            let seg = Arc::new(EdbSegment::load(&path, 2).unwrap());
            let before = checksum_passes();
            for attempt in ["first", "second"] {
                let err = touch(&seg).unwrap_err();
                assert!(
                    matches!(&err, CoreError::Storage(StorageError::Corrupt(m)) if m.contains("page 2")),
                    "{attempt} touch through {first}: {err:?}"
                );
            }
            // A failed page is never marked: it was checksummed both times,
            // and it fails through every other entry point too.
            assert!(checksum_passes() - before >= 2, "{first}");
            for (other, touch) in entry_points {
                assert!(touch(&seg).is_err(), "{other} after {first}");
            }
        }
    }

    #[test]
    fn a_clean_segment_is_checksummed_once() {
        let dir = iolap_storage::TempDir::new("segment-verify-clean").unwrap();
        let path = dir.path().join("seg");
        wide_segment(2, 5_000).save(&path).unwrap();
        let seg = Arc::new(EdbSegment::load(&path, 2).unwrap());
        let views = [SegmentView::new(seg.clone())];
        let region = bx(&[3, 0], &[40, 30]);
        let before = checksum_passes();
        let (s1, c1, st1) = accumulate_region(&views, &region).unwrap();
        assert_eq!(checksum_passes() - before, st1.pages_read, "one pass per page first read");
        let (s2, c2, st2) = accumulate_region(&views, &region).unwrap();
        assert_eq!((s1.to_bits(), c1.to_bits(), st1), (s2.to_bits(), c2.to_bits(), st2));
        assert_eq!(checksum_passes() - before, st1.pages_read, "the second scan computes none");
        // The other entry points share the flags: the rest of the pages
        // are verified by the first full read, and nothing after that.
        let recs = seg.records().unwrap();
        assert_eq!(checksum_passes() - before, seg.num_pages());
        assert_eq!(seg.records().unwrap(), recs);
        seg.page_decoded(0, &mut Vec::new()).unwrap();
        accumulate_region(&views, &SegmentCursor::all_region(2)).unwrap();
        assert_eq!(checksum_passes() - before, seg.num_pages());
    }

    #[test]
    fn concurrent_first_scans_of_one_segment_agree() {
        let seg = Arc::new(wide_segment(2, 10_000));
        let views = [SegmentView::new(seg.clone())];
        let region = SegmentCursor::all_region(2);
        let start = std::sync::Barrier::new(2);
        let scan = || {
            start.wait();
            let before = checksum_passes();
            let (sum, count, stats) = accumulate_region(&views, &region).unwrap();
            (sum.to_bits(), count.to_bits(), stats, checksum_passes() - before)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(scan);
            let b = s.spawn(scan);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        // Between them the two scans verified every page at least once.
        assert!(a.3 + b.3 >= seg.num_pages(), "{} + {}", a.3, b.3);
        // And agree with a scan of an untouched copy.
        let fresh = [SegmentView::new(Arc::new(wide_segment(2, 10_000)))];
        let (sum, count, _) = accumulate_region(&fresh, &region).unwrap();
        assert_eq!((sum.to_bits(), count.to_bits()), (a.0, a.1));
    }

    #[test]
    fn corrupt_compressed_page_errors_from_the_cursor_not_load() {
        let dir = iolap_storage::TempDir::new("segment-corrupt").unwrap();
        let path = segment_file_with_page_3_flipped(&dir);
        let seg = wide_segment(2, 5_000);
        // Load succeeds — payloads decode lazily.
        let back = Arc::new(EdbSegment::load(&path, 2).unwrap());
        let views = vec![SegmentView::new(back)];
        let err = accumulate_region(&views, &SegmentCursor::all_region(2)).unwrap_err();
        assert!(matches!(&err, CoreError::Storage(StorageError::Corrupt(_))), "got {err:?}");
        // A region whose pages exclude the corrupt one still answers.
        let first = seg.footer().fences[0];
        let narrow = RegionBox {
            lo: first.lo,
            hi: {
                let mut h = first.lo;
                for d in h.iter_mut().take(2) {
                    *d += 1;
                }
                h
            },
            k: 2,
        };
        let views2 = vec![SegmentView::new(Arc::new(EdbSegment::load(&path, 2).unwrap()))];
        accumulate_region(&views2, &narrow).unwrap();
    }
}
