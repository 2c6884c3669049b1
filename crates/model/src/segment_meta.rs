//! Segment metadata: fence pointers, stats and the versioned footer codec.
//!
//! An EDB *segment* stores entries sorted in canonical cell order
//! ([`crate::cmp_cells`]) and page-aligned (`PAGE_SIZE / record width` per page).
//! Its footer carries a sparse index — one [`PageFence`] per page holding
//! the min/max leaf id per dimension over that page's entries — plus
//! whole-segment [`SegmentStats`]. A query box that is disjoint from a
//! page's fence box cannot contain any cell on that page (the
//! contrapositive of the paper's Theorem 12 geometry, the same interval
//! reasoning the serve-layer cache invalidation uses), so the page can be
//! skipped without reading it and without changing a single output bit.
//!
//! The byte encoding is versioned and pinned by a golden-file test
//! (`tests/segment_footer_golden.rs`): any format drift fails CI.

use crate::region::{CellKey, RegionBox};
use crate::segment_page::{CellOrder, PageFormat};
use crate::MAX_DIMS;
use bytes::{Buf, BufMut};
use iolap_storage::PAGE_SIZE;

/// Footer magic: "iolap segment footer".
pub const FOOTER_MAGIC: [u8; 4] = *b"IOSF";

/// Version-1 footer format: canonical order, row-oriented pages.
pub const FOOTER_VERSION: u16 = 1;

/// Version-2 footer format: carries the cell order, the page format, and
/// (for columnar pages) per-page row counts and encoded byte lengths.
pub const FOOTER_VERSION_V2: u16 = 2;

/// Zero-pad a cell beyond its meaningful `k` dimensions so that whole-array
/// comparison equals [`crate::cmp_cells`] — the canonical segment sort key.
#[inline]
pub fn canonical_sort_key(cell: &CellKey, k: usize) -> CellKey {
    let mut key = [0u32; MAX_DIMS];
    key[..k].copy_from_slice(&cell[..k]);
    key
}

/// Min/max leaf id per dimension over one page's entries (both inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFence {
    /// Per-dimension minimum leaf id on the page.
    pub lo: CellKey,
    /// Per-dimension maximum leaf id on the page (inclusive).
    pub hi: CellKey,
}

impl PageFence {
    /// The fence covering exactly one cell.
    pub fn point(cell: &CellKey) -> Self {
        PageFence { lo: *cell, hi: *cell }
    }

    /// Grow the fence to cover `cell`.
    pub fn grow(&mut self, cell: &CellKey, k: usize) {
        for (d, &leaf) in cell.iter().enumerate().take(k) {
            self.lo[d] = self.lo[d].min(leaf);
            self.hi[d] = self.hi[d].max(leaf);
        }
    }

    /// True when no cell inside the fence can lie in `region` — the page
    /// is safe to prune. (`region.hi` is exclusive, the fence `hi` is
    /// inclusive.)
    #[inline]
    pub fn disjoint(&self, region: &RegionBox) -> bool {
        (0..region.k()).any(|d| self.hi[d] < region.lo[d] || self.lo[d] >= region.hi[d])
    }
}

/// Whole-segment statistics carried by the footer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Number of entries in the segment.
    pub entries: u64,
    /// Bounding box of all entry cells (empty box for an empty segment).
    pub bbox: RegionBox,
    /// `Σ weight` over all entries.
    pub sum_weight: f64,
    /// `Σ weight · measure` over all entries.
    pub sum_weighted_measure: f64,
}

/// The per-segment footer: format header, stats, and one fence per page.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFooter {
    /// Number of meaningful dimensions.
    pub k: usize,
    /// Records per page for [`PageFormat::Rows`] segments
    /// (`PAGE_SIZE / record width` at build time); 0 for columnar pages,
    /// whose density varies per page (see [`SegmentFooter::page_rows`]).
    pub recs_per_page: u32,
    /// The order entries were sorted into at build time.
    pub order: CellOrder,
    /// The page encoding.
    pub format: PageFormat,
    /// Whole-segment stats.
    pub stats: SegmentStats,
    /// One fence per page, in page order.
    pub fences: Vec<PageFence>,
    /// Rows per page ([`PageFormat::ColumnarV2`] only; empty for rows).
    pub page_rows: Vec<u32>,
    /// Encoded payload bytes per page (`ColumnarV2` only; empty for rows).
    pub page_bytes: Vec<u32>,
}

impl SegmentFooter {
    /// Records per page for the EDB record width at dimensionality `k`
    /// (width `4k + 24`; see `EdbCodec`).
    pub fn edb_recs_per_page(k: usize) -> usize {
        PAGE_SIZE / (4 * k + 24)
    }

    /// Build a footer over sorted, page-partitioned entry cells.
    ///
    /// `cells` yields `(cell, weight, measure)` in segment order; pages
    /// are formed every `recs_per_page` entries.
    pub fn build<'a, I>(k: usize, recs_per_page: usize, cells: I) -> SegmentFooter
    where
        I: Iterator<Item = (&'a CellKey, f64, f64)>,
    {
        let mut fences: Vec<PageFence> = Vec::new();
        let mut bbox: Option<RegionBox> = None;
        let mut entries = 0u64;
        let mut sum_weight = 0.0f64;
        let mut sum_wm = 0.0f64;
        for (cell, weight, measure) in cells {
            let slot = (entries % recs_per_page as u64) as usize;
            if slot == 0 {
                fences.push(PageFence::point(cell));
            } else {
                fences.last_mut().expect("fence exists").grow(cell, k);
            }
            match bbox.as_mut() {
                None => bbox = Some(RegionBox::point(cell, k)),
                Some(b) => b.grow_to_cell(cell),
            }
            entries += 1;
            sum_weight += weight;
            sum_wm += weight * measure;
        }
        let bbox = bbox.unwrap_or(RegionBox { lo: [0; MAX_DIMS], hi: [0; MAX_DIMS], k: k as u8 });
        SegmentFooter {
            k,
            recs_per_page: recs_per_page as u32,
            order: CellOrder::Canonical,
            format: PageFormat::Rows,
            stats: SegmentStats { entries, bbox, sum_weight, sum_weighted_measure: sum_wm },
            fences,
            page_rows: Vec::new(),
            page_bytes: Vec::new(),
        }
    }

    /// Number of pages the footer indexes.
    pub fn num_pages(&self) -> u64 {
        self.fences.len() as u64
    }

    /// Encode the footer.
    ///
    /// A canonical-order rows footer uses the original version-1 layout —
    /// files written before the columnar format stay byte-identical:
    ///
    /// ```text
    /// magic "IOSF" | version u16 = 1 | k u8 | pad u8 | recs_per_page u32
    /// entries u64 | num_pages u64
    /// bbox lo (k × u32) | bbox hi (k × u32)
    /// sum_weight f64 | sum_weighted_measure f64
    /// fences: num_pages × (lo k × u32, hi k × u32)
    /// ```
    ///
    /// Any other layout uses the version-2 layout, which inserts the cell
    /// order and page format after `k` and, for columnar pages, stores the
    /// per-page row count and encoded byte length ahead of each fence:
    ///
    /// ```text
    /// magic "IOSF" | version u16 = 2 | k u8 | order u8 | format u8 | pad u8
    /// recs_per_page u32 (0 for columnar)
    /// entries u64 | num_pages u64
    /// bbox lo/hi | sum_weight f64 | sum_weighted_measure f64
    /// pages: num_pages × ([rows u32 | bytes u32 — columnar only]
    ///                     fence lo k × u32, hi k × u32)
    /// ```
    /// All integers and floats little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.k;
        let v1 = self.order == CellOrder::Canonical && self.format == PageFormat::Rows;
        let mut out = Vec::with_capacity(48 + 8 * k + self.fences.len() * (8 * k + 8));
        let buf = &mut out;
        buf.put_slice(&FOOTER_MAGIC);
        if v1 {
            buf.put_u16_le(FOOTER_VERSION);
            buf.put_u8(k as u8);
            buf.put_u8(0);
        } else {
            buf.put_u16_le(FOOTER_VERSION_V2);
            buf.put_u8(k as u8);
            buf.put_u8(self.order.tag());
            buf.put_u8(self.format.tag());
            buf.put_u8(0);
        }
        buf.put_u32_le(self.recs_per_page);
        buf.put_u64_le(self.stats.entries);
        buf.put_u64_le(self.fences.len() as u64);
        for d in 0..k {
            buf.put_u32_le(self.stats.bbox.lo[d]);
        }
        for d in 0..k {
            buf.put_u32_le(self.stats.bbox.hi[d]);
        }
        buf.put_f64_le(self.stats.sum_weight);
        buf.put_f64_le(self.stats.sum_weighted_measure);
        for (p, f) in self.fences.iter().enumerate() {
            if !v1 && self.format == PageFormat::ColumnarV2 {
                buf.put_u32_le(self.page_rows[p]);
                buf.put_u32_le(self.page_bytes[p]);
            }
            for d in 0..k {
                buf.put_u32_le(f.lo[d]);
            }
            for d in 0..k {
                buf.put_u32_le(f.hi[d]);
            }
        }
        out
    }

    /// Decode a footer, validating magic, version, dimensionality and
    /// length. Never panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<SegmentFooter, String> {
        if bytes.len() < 28 {
            return Err(format!("footer truncated: {} bytes", bytes.len()));
        }
        let mut buf = bytes;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != FOOTER_MAGIC {
            return Err(format!("bad footer magic {magic:?}"));
        }
        let version = buf.get_u16_le();
        if version != FOOTER_VERSION && version != FOOTER_VERSION_V2 {
            return Err(format!("unsupported footer version {version}"));
        }
        let k = buf.get_u8() as usize;
        if k == 0 || k > MAX_DIMS {
            return Err(format!("footer dimensionality {k} out of range"));
        }
        let (order, format) = if version == FOOTER_VERSION {
            let _pad = buf.get_u8();
            (CellOrder::Canonical, PageFormat::Rows)
        } else {
            if buf.remaining() < 3 {
                return Err("footer truncated before order/format tags".into());
            }
            let order = CellOrder::from_tag(buf.get_u8())
                .ok_or_else(|| "unknown footer cell-order tag".to_string())?;
            let format = PageFormat::from_tag(buf.get_u8())
                .ok_or_else(|| "unknown footer page-format tag".to_string())?;
            let _pad = buf.get_u8();
            if order == CellOrder::Canonical && format == PageFormat::Rows {
                return Err("canonical rows footers must use version 1".into());
            }
            (order, format)
        };
        if buf.remaining() < 20 {
            return Err("footer truncated before page counts".into());
        }
        let recs_per_page = buf.get_u32_le();
        let entries = buf.get_u64_le();
        let num_pages = buf.get_u64_le();
        match format {
            PageFormat::Rows => {
                if recs_per_page == 0 {
                    return Err("footer recs_per_page is zero".into());
                }
                if num_pages != entries.div_ceil(recs_per_page as u64) {
                    return Err(format!(
                        "footer page count {num_pages} inconsistent with {entries} entries"
                    ));
                }
            }
            PageFormat::ColumnarV2 => {
                if recs_per_page != 0 {
                    return Err("columnar footers have variable page density; \
                         recs_per_page must be zero"
                        .into());
                }
            }
        }
        let per_page = 8 * k + if format == PageFormat::ColumnarV2 { 8 } else { 0 };
        let need = usize::try_from(num_pages)
            .ok()
            .and_then(|n| n.checked_mul(per_page))
            .and_then(|b| b.checked_add(8 * k + 16));
        if need != Some(buf.remaining()) {
            return Err(format!(
                "footer body {} bytes does not hold {num_pages} pages",
                buf.remaining()
            ));
        }
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for d in lo.iter_mut().take(k) {
            *d = buf.get_u32_le();
        }
        for d in hi.iter_mut().take(k) {
            *d = buf.get_u32_le();
        }
        let bbox = RegionBox { lo, hi, k: k as u8 };
        let sum_weight = buf.get_f64_le();
        let sum_weighted_measure = buf.get_f64_le();
        let mut fences = Vec::with_capacity(num_pages as usize);
        let mut page_rows = Vec::new();
        let mut page_bytes = Vec::new();
        for _ in 0..num_pages {
            if format == PageFormat::ColumnarV2 {
                page_rows.push(buf.get_u32_le());
                page_bytes.push(buf.get_u32_le());
            }
            let mut lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            for d in lo.iter_mut().take(k) {
                *d = buf.get_u32_le();
            }
            for d in hi.iter_mut().take(k) {
                *d = buf.get_u32_le();
            }
            fences.push(PageFence { lo, hi });
        }
        if format == PageFormat::ColumnarV2 {
            let total: u64 = page_rows.iter().map(|&r| u64::from(r)).sum();
            if total != entries {
                return Err(format!(
                    "columnar footer page rows sum to {total}, want {entries} entries"
                ));
            }
            if page_rows.contains(&0) || page_bytes.contains(&0) {
                return Err("columnar footer has an empty page".into());
            }
        }
        Ok(SegmentFooter {
            k,
            recs_per_page,
            order,
            format,
            stats: SegmentStats { entries, bbox, sum_weight, sum_weighted_measure },
            fences,
            page_rows,
            page_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fence_disjointness_matches_box_geometry() {
        let mut f = PageFence::point(&cell(&[2, 3]));
        f.grow(&cell(&[4, 1]), 2);
        // Fence box is [2..4] × [1..3] inclusive.
        assert!(!f.disjoint(&bx(&[4, 3], &[5, 4]))); // touches the max corner
        assert!(f.disjoint(&bx(&[5, 0], &[6, 9]))); // right of max
        assert!(f.disjoint(&bx(&[0, 0], &[2, 9]))); // left of min (hi exclusive)
        assert!(f.disjoint(&bx(&[0, 0], &[3, 1]))); // dim 1 below the min
        assert!(!f.disjoint(&bx(&[0, 0], &[3, 2]))); // overlaps the min corner
        assert!(f.disjoint(&bx(&[0, 4], &[9, 9]))); // above in dim 1
    }

    #[test]
    fn build_paginates_and_accumulates() {
        let entries: Vec<(CellKey, f64, f64)> = vec![
            (cell(&[0, 1]), 0.5, 10.0),
            (cell(&[0, 3]), 1.0, 2.0),
            (cell(&[1, 0]), 0.5, 10.0),
            (cell(&[2, 2]), 1.0, 4.0),
            (cell(&[2, 2]), 0.25, 8.0),
        ];
        let f = SegmentFooter::build(2, 2, entries.iter().map(|(c, w, m)| (c, *w, *m)));
        assert_eq!(f.num_pages(), 3);
        assert_eq!(f.stats.entries, 5);
        assert_eq!(f.fences[0], PageFence { lo: cell(&[0, 1]), hi: cell(&[0, 3]) });
        assert_eq!(f.fences[1], PageFence { lo: cell(&[1, 0]), hi: cell(&[2, 2]) });
        assert_eq!(f.fences[2], PageFence { lo: cell(&[2, 2]), hi: cell(&[2, 2]) });
        assert_eq!(f.stats.bbox, bx(&[0, 0], &[3, 4]));
        assert_eq!(f.stats.sum_weight, 3.25);
        assert_eq!(f.stats.sum_weighted_measure, 0.5 * 10.0 + 2.0 + 5.0 + 4.0 + 2.0);
    }

    #[test]
    fn footer_round_trips() {
        let entries: Vec<(CellKey, f64, f64)> =
            (0..100).map(|i| (cell(&[i / 10, i % 10, 3]), 0.125, i as f64)).collect();
        let f = SegmentFooter::build(3, 7, entries.iter().map(|(c, w, m)| (c, *w, *m)));
        let bytes = f.encode();
        assert_eq!(SegmentFooter::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_footer_round_trips() {
        let f = SegmentFooter::build(2, 4, std::iter::empty());
        assert_eq!(f.num_pages(), 0);
        assert_eq!(f.stats.entries, 0);
        assert_eq!(SegmentFooter::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn malformed_footers_are_rejected_not_panicked() {
        let f = SegmentFooter::build(
            2,
            4,
            [(cell(&[1, 2]), 1.0, 3.0)].iter().map(|(c, w, m)| (c, *w, *m)),
        );
        let good = f.encode();
        assert!(SegmentFooter::decode(&[]).is_err());
        assert!(SegmentFooter::decode(&good[..10]).is_err());
        let mut bad = good.clone();
        bad[0] = b'X'; // magic
        assert!(SegmentFooter::decode(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 99; // version
        assert!(SegmentFooter::decode(&bad).is_err());
        let mut bad = good.clone();
        bad[6] = 0; // k
        assert!(SegmentFooter::decode(&bad).is_err());
        let mut bad = good.clone();
        bad.push(0); // trailing garbage
        assert!(SegmentFooter::decode(&bad).is_err());
    }

    #[test]
    fn a_maxed_page_count_is_rejected_not_panicked() {
        // Rows: the page count must match the entries, so both are maxed
        // (one record per page). Columnar: only the count (bytes 22..30).
        let mut rows = SegmentFooter::build(2, 1, std::iter::empty()).encode();
        rows[12..28].fill(0xff);
        assert!(SegmentFooter::decode(&rows).is_err());
        let mut f = SegmentFooter::build(2, 4, std::iter::empty());
        f.format = PageFormat::ColumnarV2;
        f.recs_per_page = 0;
        let mut columnar = f.encode();
        columnar[22..30].fill(0xff);
        assert!(SegmentFooter::decode(&columnar).is_err());
    }

    #[test]
    fn v2_columnar_footer_round_trips() {
        let entries: Vec<(CellKey, f64, f64)> =
            (0..10).map(|i| (cell(&[i, i * 2]), 0.5, i as f64)).collect();
        let mut f = SegmentFooter::build(2, 4, entries.iter().map(|(c, w, m)| (c, *w, *m)));
        f.order = CellOrder::Morton;
        f.format = PageFormat::ColumnarV2;
        f.recs_per_page = 0;
        f.page_rows = vec![4, 4, 2];
        f.page_bytes = vec![97, 102, 33];
        let bytes = f.encode();
        assert_eq!(SegmentFooter::decode(&bytes).unwrap(), f);

        // Row sums are validated.
        let mut g = f.clone();
        g.page_rows = vec![4, 4, 3];
        assert!(SegmentFooter::decode(&g.encode()).is_err());
        // Zero-length pages are rejected.
        let mut g = f.clone();
        g.page_rows = vec![10, 0, 0];
        assert!(SegmentFooter::decode(&g.encode()).is_err());
    }

    #[test]
    fn morton_rows_footer_uses_version_2() {
        let entries: Vec<(CellKey, f64, f64)> =
            (0..5).map(|i| (cell(&[i, 9 - i]), 1.0, i as f64)).collect();
        let mut f = SegmentFooter::build(2, 2, entries.iter().map(|(c, w, m)| (c, *w, *m)));
        f.order = CellOrder::Morton;
        let bytes = f.encode();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FOOTER_VERSION_V2);
        assert_eq!(SegmentFooter::decode(&bytes).unwrap(), f);
        // The canonical rows layout stays on version 1 byte for byte.
        f.order = CellOrder::Canonical;
        let bytes = f.encode();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FOOTER_VERSION);
        assert_eq!(SegmentFooter::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn canonical_sort_key_zeroes_trailing_dims() {
        let mut c = cell(&[3, 1]);
        c[5] = 77; // stale garbage beyond k
        let key = canonical_sort_key(&c, 2);
        assert_eq!(key[..2], [3, 1]);
        assert_eq!(key[2..], [0u32; 6]);
    }
}
