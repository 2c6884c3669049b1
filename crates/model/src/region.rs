//! Cells and regions (Definition 3 of the paper).
//!
//! Thanks to the DFS leaf numbering of `iolap-hierarchy`, a fact's region
//! is always a *product of leaf-id intervals* — a k-dimensional box. All
//! region reasoning (containment, overlap, lexicographic span) reduces to
//! integer-interval arithmetic on these boxes.

use crate::MAX_DIMS;
use std::cmp::Ordering;

/// A cell: one leaf id per dimension. Entries at positions `≥ k` are zero.
pub type CellKey = [u32; MAX_DIMS];

/// Lexicographic comparison of two cells over the first `k` dimensions
/// (the *canonical cell order* used by the Block algorithm).
#[inline]
pub fn cmp_cells(a: &CellKey, b: &CellKey, k: usize) -> Ordering {
    a[..k].cmp(&b[..k])
}

/// A region: the k-dimensional box `∏ [lo_d, hi_d)` of leaf ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionBox {
    /// Inclusive lower corner.
    pub lo: [u32; MAX_DIMS],
    /// Exclusive upper corner.
    pub hi: [u32; MAX_DIMS],
    /// Number of meaningful dimensions.
    pub k: u8,
}

impl RegionBox {
    /// A single-cell box.
    pub fn point(cell: &CellKey, k: usize) -> Self {
        let mut hi = [0u32; MAX_DIMS];
        for (d, h) in hi.iter_mut().enumerate().take(k) {
            *h = cell[d] + 1;
        }
        RegionBox { lo: *cell, hi, k: k as u8 }
    }

    /// Number of dimensions.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of cells in the box.
    pub fn num_cells(&self) -> u64 {
        (0..self.k())
            .map(|d| (self.hi[d] - self.lo[d]) as u64)
            .try_fold(1u64, |a, b| a.checked_mul(b))
            .unwrap_or(u64::MAX)
    }

    /// Does the box contain `cell`?
    #[inline]
    pub fn contains_cell(&self, cell: &CellKey) -> bool {
        (0..self.k()).all(|d| self.lo[d] <= cell[d] && cell[d] < self.hi[d])
    }

    /// Does the box fully contain `other`?
    pub fn contains_box(&self, other: &RegionBox) -> bool {
        debug_assert_eq!(self.k, other.k);
        (0..self.k()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Do the boxes share at least one cell?
    pub fn overlaps(&self, other: &RegionBox) -> bool {
        debug_assert_eq!(self.k, other.k);
        (0..self.k()).all(|d| self.lo[d] < other.hi[d] && other.lo[d] < self.hi[d])
    }

    /// The lexicographically smallest cell of the box.
    pub fn lex_first(&self) -> CellKey {
        self.lo
    }

    /// The lexicographically largest cell of the box.
    pub fn lex_last(&self) -> CellKey {
        let mut c = [0u32; MAX_DIMS];
        for (d, v) in c.iter_mut().enumerate().take(self.k()) {
            *v = self.hi[d] - 1;
        }
        c
    }

    /// Smallest box covering both inputs (used for connected-component
    /// bounding boxes in EDB maintenance).
    pub fn union(&self, other: &RegionBox) -> RegionBox {
        debug_assert_eq!(self.k, other.k);
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for d in 0..self.k() {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        RegionBox { lo, hi, k: self.k }
    }

    /// Grow this box to cover `cell`.
    pub fn grow_to_cell(&mut self, cell: &CellKey) {
        let k = self.k();
        for (d, &c) in cell.iter().enumerate().take(k) {
            self.lo[d] = self.lo[d].min(c);
            self.hi[d] = self.hi[d].max(c + 1);
        }
    }

    /// Iterate over every cell of the box in lexicographic order.
    ///
    /// Only sensible for small boxes (tests, in-memory reference
    /// algorithms, and EDB materialization of small regions); the scalable
    /// algorithms never enumerate regions.
    pub fn cells(&self) -> RegionCellIter {
        RegionCellIter { bx: *self, cur: self.lo, done: self.num_cells() == 0 }
    }
}

/// Iterator over a box's cells; see [`RegionBox::cells`].
pub struct RegionCellIter {
    bx: RegionBox,
    cur: CellKey,
    done: bool,
}

impl Iterator for RegionCellIter {
    type Item = CellKey;

    fn next(&mut self) -> Option<CellKey> {
        if self.done {
            return None;
        }
        let out = self.cur;
        // Odometer increment, last dimension fastest.
        let k = self.bx.k();
        let mut d = k;
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.cur[d] += 1;
            if self.cur[d] < self.bx.hi[d] {
                break;
            }
            self.cur[d] = self.bx.lo[d];
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bx(lo: &[u32], hi: &[u32]) -> RegionBox {
        let mut l = [0u32; MAX_DIMS];
        let mut h = [0u32; MAX_DIMS];
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        RegionBox { lo: l, hi: h, k: lo.len() as u8 }
    }

    fn cell(v: &[u32]) -> CellKey {
        let mut c = [0u32; MAX_DIMS];
        c[..v.len()].copy_from_slice(v);
        c
    }

    #[test]
    fn containment_and_overlap() {
        let a = bx(&[0, 0], &[4, 4]);
        let b = bx(&[1, 1], &[2, 3]);
        let c = bx(&[4, 0], &[5, 4]);
        assert!(a.contains_box(&b));
        assert!(!b.contains_box(&a));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // adjacent, not overlapping
        assert!(a.contains_cell(&cell(&[3, 3])));
        assert!(!a.contains_cell(&cell(&[4, 0])));
    }

    #[test]
    fn num_cells_and_lex_span() {
        let b = bx(&[1, 2], &[3, 5]);
        assert_eq!(b.num_cells(), 6);
        assert_eq!(b.lex_first()[..2], [1, 2]);
        assert_eq!(b.lex_last()[..2], [2, 4]);
    }

    #[test]
    fn point_box() {
        let c = cell(&[7, 9]);
        let b = RegionBox::point(&c, 2);
        assert_eq!(b.num_cells(), 1);
        assert!(b.contains_cell(&c));
        assert!(!b.contains_cell(&cell(&[7, 10])));
    }

    #[test]
    fn union_and_grow() {
        let a = bx(&[0, 5], &[2, 6]);
        let b = bx(&[1, 0], &[3, 2]);
        let u = a.union(&b);
        assert_eq!(u.lo[..2], [0, 0]);
        assert_eq!(u.hi[..2], [3, 6]);
        let mut g = a;
        g.grow_to_cell(&cell(&[9, 9]));
        assert!(g.contains_cell(&cell(&[9, 9])));
        assert!(g.contains_box(&a));
    }

    #[test]
    fn cell_iteration_is_lexicographic_and_complete() {
        let b = bx(&[1, 2], &[3, 4]);
        let cells: Vec<_> = b.cells().collect();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0][..2], [1, 2]);
        assert_eq!(cells[1][..2], [1, 3]);
        assert_eq!(cells[2][..2], [2, 2]);
        assert_eq!(cells[3][..2], [2, 3]);
        for w in cells.windows(2) {
            assert_eq!(cmp_cells(&w[0], &w[1], 2), Ordering::Less);
        }
    }

    #[test]
    fn three_dim_iteration_count() {
        let b = bx(&[0, 0, 0], &[2, 3, 2]);
        assert_eq!(b.cells().count() as u64, b.num_cells());
    }

    #[test]
    fn cmp_cells_respects_k() {
        let a = cell(&[1, 2]);
        let mut b = cell(&[1, 2]);
        b[5] = 99; // beyond k — must be ignored
        assert_eq!(cmp_cells(&a, &b, 2), Ordering::Equal);
        assert_eq!(cmp_cells(&a, &b, 6), Ordering::Less);
    }
}
