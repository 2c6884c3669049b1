//! Segment metadata: fence pointers, stats and the checksummed footer
//! codec.
//!
//! An EDB *segment* stores entries sorted in canonical cell order
//! ([`crate::cmp_cells`]) in compressed columnar pages
//! ([`crate::segment_page`]), each packed to fit one `PAGE_SIZE` block, so
//! page density varies with the data. Its footer carries a sparse index —
//! per page its row count, its encoded byte length and a [`PageFence`]
//! holding the min/max leaf id per dimension over that page's entries —
//! plus whole-segment [`SegmentStats`]. A query box that is disjoint from a
//! page's fence box cannot contain any cell on that page (the
//! contrapositive of the paper's Theorem 12 geometry, the same interval
//! reasoning the serve-layer cache invalidation uses), so the page can be
//! skipped without reading it and without changing a single output bit.
//!
//! Because a fence decides which pages are read at all, a damaged fence
//! would silently drop a page from every answer. The footer therefore ends
//! in an FNV-1a 64 checksum over all its bytes, which
//! [`SegmentFooter::decode`] verifies before it parses anything. The byte
//! encoding is versioned and pinned by a golden-file test
//! (`tests/segment_page_golden.rs`): any format drift fails CI.

use crate::records::EdbRecord;
use crate::region::{CellKey, RegionBox};
use crate::MAX_DIMS;
use iolap_storage::fnv1a64;

/// Footer magic: "iolap segment footer".
pub const FOOTER_MAGIC: [u8; 4] = *b"IOSF";

/// The footer format version. Versions 1 (fixed-width row pages) and 2
/// (tagged order and page format, no checksum) are retired.
pub const FOOTER_VERSION: u16 = 3;

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

/// The per-segment footer: stats plus, per page, its row count, encoded
/// length and fence.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFooter {
    /// Number of meaningful dimensions.
    pub k: usize,
    /// Whole-segment stats.
    pub stats: SegmentStats,
    /// One fence per page, in page order.
    pub fences: Vec<PageFence>,
    /// Rows per page.
    pub page_rows: Vec<u32>,
    /// Encoded payload bytes per page.
    pub page_bytes: Vec<u32>,
}

/// Bytes ahead of the bounding box: magic, version, `k`, pad, entries,
/// page count.
const HEAD_BYTES: usize = 24;

impl SegmentFooter {
    /// The footer of an empty segment, ready for [`SegmentFooter::push_page`].
    pub fn new(k: usize) -> Self {
        let bbox = RegionBox { lo: [0; MAX_DIMS], hi: [0; MAX_DIMS], k: k as u8 };
        SegmentFooter {
            k,
            stats: SegmentStats { entries: 0, bbox, sum_weight: 0.0, sum_weighted_measure: 0.0 },
            fences: Vec::new(),
            page_rows: Vec::new(),
            page_bytes: Vec::new(),
        }
    }

    /// Append the next page: its (non-empty) entries in segment order and
    /// its encoded length. The stats accumulate in entry order.
    pub fn push_page(&mut self, recs: &[EdbRecord], encoded_bytes: usize) {
        let k = self.k;
        let mut fence = PageFence::point(&recs[0].cell);
        for e in recs {
            fence.grow(&e.cell, k);
            if self.stats.entries == 0 {
                self.stats.bbox = RegionBox::point(&e.cell, k);
            } else {
                self.stats.bbox.grow_to_cell(&e.cell);
            }
            self.stats.entries += 1;
            self.stats.sum_weight += e.weight;
            self.stats.sum_weighted_measure += e.weight * e.measure;
        }
        self.fences.push(fence);
        self.page_rows.push(recs.len() as u32);
        self.page_bytes.push(encoded_bytes as u32);
    }

    /// Number of pages the footer indexes.
    pub fn num_pages(&self) -> u64 {
        self.fences.len() as u64
    }

    /// Encode the footer:
    ///
    /// ```text
    /// magic "IOSF" | version u16 = 3 | k u8 | pad u8
    /// entries u64 | num_pages u64
    /// bbox lo (k × u32) | bbox hi (k × u32)
    /// sum_weight f64 | sum_weighted_measure f64
    /// pages: num_pages × (rows u32 | bytes u32 | fence lo k × u32 | fence hi k × u32)
    /// checksum u64                      FNV-1a 64 over everything above
    /// ```
    /// All integers and floats little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.k;
        let mut out = Vec::with_capacity(HEAD_BYTES + 8 * k + 24 + self.fences.len() * (8 * k + 8));
        let cells = |out: &mut Vec<u8>, cell: &CellKey| {
            for v in &cell[..k] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        out.extend_from_slice(&FOOTER_MAGIC);
        out.extend_from_slice(&FOOTER_VERSION.to_le_bytes());
        out.extend_from_slice(&[k as u8, 0]);
        out.extend_from_slice(&self.stats.entries.to_le_bytes());
        out.extend_from_slice(&self.num_pages().to_le_bytes());
        cells(&mut out, &self.stats.bbox.lo);
        cells(&mut out, &self.stats.bbox.hi);
        out.extend_from_slice(&self.stats.sum_weight.to_le_bytes());
        out.extend_from_slice(&self.stats.sum_weighted_measure.to_le_bytes());
        for (p, f) in self.fences.iter().enumerate() {
            out.extend_from_slice(&self.page_rows[p].to_le_bytes());
            out.extend_from_slice(&self.page_bytes[p].to_le_bytes());
            cells(&mut out, &f.lo);
            cells(&mut out, &f.hi);
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode a footer: the checksum first, then magic, version,
    /// dimensionality, length and per-page counts. Never panics on
    /// malformed input.
    pub fn decode(bytes: &[u8]) -> Result<SegmentFooter, String> {
        let Some(split) = bytes.len().checked_sub(8).filter(|&n| n >= HEAD_BYTES) else {
            return Err(format!("footer truncated: {} bytes", bytes.len()));
        };
        let (body, checksum) = bytes.split_at(split);
        let want = u64::from_le_bytes(checksum.try_into().expect("8 bytes"));
        if fnv1a64(body) != want {
            return Err("footer checksum mismatch".into());
        }
        let mut r = Reader(body);
        let magic: [u8; 4] = r.array()?;
        if magic != FOOTER_MAGIC {
            return Err(format!("bad footer magic {magic:?}"));
        }
        let version = u16::from_le_bytes(r.array()?);
        if version != FOOTER_VERSION {
            return Err(format!("unsupported footer version {version}"));
        }
        let [k, _pad] = r.array()?;
        let k = usize::from(k);
        if k == 0 || k > MAX_DIMS {
            return Err(format!("footer dimensionality {k} out of range"));
        }
        let entries = r.u64()?;
        let num_pages = r.u64()?;
        let need = usize::try_from(num_pages)
            .ok()
            .and_then(|n| n.checked_mul(8 * k + 8))
            .and_then(|b| b.checked_add(8 * k + 16));
        if need != Some(r.0.len()) {
            return Err(format!("footer body {} bytes does not hold {num_pages} pages", r.0.len()));
        }
        let bbox = RegionBox { lo: r.cell(k)?, hi: r.cell(k)?, k: k as u8 };
        let sum_weight = f64::from_bits(r.u64()?);
        let sum_weighted_measure = f64::from_bits(r.u64()?);
        let mut footer = SegmentFooter::new(k);
        footer.stats = SegmentStats { entries, bbox, sum_weight, sum_weighted_measure };
        for _ in 0..num_pages {
            footer.page_rows.push(r.u32()?);
            footer.page_bytes.push(r.u32()?);
            footer.fences.push(PageFence { lo: r.cell(k)?, hi: r.cell(k)? });
        }
        let total: u64 = footer.page_rows.iter().map(|&n| u64::from(n)).sum();
        if total != entries {
            return Err(format!("footer page rows sum to {total}, want {entries} entries"));
        }
        if footer.page_rows.contains(&0) || footer.page_bytes.contains(&0) {
            return Err("footer has an empty page".into());
        }
        Ok(footer)
    }
}

/// Bounds-checked little-endian reader over a footer body.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let Some(head) = self.0.get(..N) else {
            return Err("footer truncated".into());
        };
        self.0 = &self.0[N..];
        Ok(head.try_into().expect("N bytes"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// `k` leaf ids, zero beyond `k`.
    fn cell(&mut self, k: usize) -> Result<CellKey, String> {
        let mut cell = [0u32; MAX_DIMS];
        for v in &mut cell[..k] {
            *v = self.u32()?;
        }
        Ok(cell)
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

    fn rec(c: &[u32], weight: f64, measure: f64) -> EdbRecord {
        EdbRecord { fact_id: 1, cell: cell(c), weight, measure }
    }

    /// A footer over `recs` cut into pages of `per_page` entries, with
    /// made-up encoded lengths.
    fn footer(k: usize, recs: &[EdbRecord], per_page: usize) -> SegmentFooter {
        let mut f = SegmentFooter::new(k);
        for (i, page) in recs.chunks(per_page).enumerate() {
            f.push_page(page, 40 + i);
        }
        f
    }

    /// Recompute the trailing checksum after a deliberate edit, so the
    /// structural checks behind it are reached.
    fn reseal(bytes: &mut [u8]) {
        let split = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..split]);
        bytes[split..].copy_from_slice(&sum.to_le_bytes());
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
    fn pages_grow_fences_and_accumulate_stats() {
        let recs = [
            rec(&[0, 1], 0.5, 10.0),
            rec(&[0, 3], 1.0, 2.0),
            rec(&[1, 0], 0.5, 10.0),
            rec(&[2, 2], 1.0, 4.0),
            rec(&[2, 2], 0.25, 8.0),
        ];
        let f = footer(2, &recs, 2);
        assert_eq!(f.num_pages(), 3);
        assert_eq!(f.stats.entries, 5);
        assert_eq!((f.page_rows, f.page_bytes), (vec![2, 2, 1], vec![40, 41, 42]));
        assert_eq!(f.fences[0], PageFence { lo: cell(&[0, 1]), hi: cell(&[0, 3]) });
        assert_eq!(f.fences[1], PageFence { lo: cell(&[1, 0]), hi: cell(&[2, 2]) });
        assert_eq!(f.fences[2], PageFence { lo: cell(&[2, 2]), hi: cell(&[2, 2]) });
        assert_eq!(f.stats.bbox, bx(&[0, 0], &[3, 4]));
        assert_eq!(f.stats.sum_weight, 3.25);
        assert_eq!(f.stats.sum_weighted_measure, 0.5 * 10.0 + 2.0 + 5.0 + 4.0 + 2.0);
    }

    #[test]
    fn footers_round_trip() {
        let recs: Vec<EdbRecord> =
            (0..100).map(|i| rec(&[i / 10, i % 10, 3], 0.125, i as f64)).collect();
        let f = footer(3, &recs, 7);
        assert_eq!(SegmentFooter::decode(&f.encode()).unwrap(), f);
        let empty = SegmentFooter::new(2);
        assert_eq!(empty.num_pages(), 0);
        assert_eq!(SegmentFooter::decode(&empty.encode()).unwrap(), empty);
    }

    /// A footer decides which pages a scan reads, so no single flipped
    /// bit may decode: a flipped fence bit would prune a page silently.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let recs: Vec<EdbRecord> = (0..9).map(|i| rec(&[i, 9 - i], 0.5, i as f64)).collect();
        let good = footer(2, &recs, 4).encode();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let err = SegmentFooter::decode(&bad).unwrap_err();
                assert!(err.contains("checksum"), "byte {byte} bit {bit}: {err}");
            }
        }
    }

    #[test]
    fn malformed_footers_are_rejected_not_panicked() {
        let recs = [rec(&[1, 2], 1.0, 3.0), rec(&[1, 3], 1.0, 3.0)];
        let good = footer(2, &recs, 1).encode();
        let resealed = |at: usize, v: u8| {
            let mut bad = good.clone();
            bad[at] = v;
            reseal(&mut bad);
            SegmentFooter::decode(&bad).unwrap_err()
        };
        assert!(SegmentFooter::decode(&[]).unwrap_err().contains("truncated"));
        assert!(SegmentFooter::decode(&good[..10]).unwrap_err().contains("truncated"));
        assert!(resealed(0, b'X').contains("magic"));
        assert!(resealed(4, 99).contains("version"));
        assert!(resealed(6, 0).contains("dimensionality"));
        // The page count, 2 → 258.
        assert!(resealed(17, 1).contains("pages"));
        // Page 1's row count: offset 24 + 8k + 16, past one page of 8 + 8k.
        let rows1 = 24 + 16 + 16 + 24;
        assert!(resealed(rows1, 2).contains("sum to 3"));
        assert!(resealed(rows1 + 4, 0).contains("empty page")); // its byte length
        let mut longer = good[..good.len() - 8].to_vec();
        longer.extend_from_slice(&[0; 9]); // trailing garbage
        reseal(&mut longer);
        assert!(SegmentFooter::decode(&longer).unwrap_err().contains("does not hold"));
    }

    #[test]
    fn a_maxed_page_count_is_rejected_not_panicked() {
        let mut bad = SegmentFooter::new(2).encode();
        bad[16..24].fill(0xff);
        reseal(&mut bad);
        assert!(SegmentFooter::decode(&bad).is_err());
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
