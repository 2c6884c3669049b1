//! Axis-aligned bounding boxes over integer coordinates.

use crate::MAX_DIMS;

/// A k-dimensional half-open box `∏ [lo_d, hi_d)` of `u32` coordinates.
///
/// Degenerate boxes (`lo_d == hi_d` in some dimension) are empty and never
/// overlap anything; construction enforces `lo ≤ hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aabb {
    /// Inclusive lower corner (entries ≥ `k` are zero).
    pub lo: [u32; MAX_DIMS],
    /// Exclusive upper corner.
    pub hi: [u32; MAX_DIMS],
    /// Dimensionality.
    pub k: u8,
}

impl Aabb {
    /// Box from corner slices of equal length `k ≤ MAX_DIMS`.
    pub fn new(lo: &[u32], hi: &[u32]) -> Self {
        assert_eq!(lo.len(), hi.len());
        assert!(lo.len() <= MAX_DIMS);
        let mut l = [0u32; MAX_DIMS];
        let mut h = [0u32; MAX_DIMS];
        l[..lo.len()].copy_from_slice(lo);
        h[..hi.len()].copy_from_slice(hi);
        for d in 0..lo.len() {
            assert!(l[d] <= h[d], "inverted box in dimension {d}");
        }
        Aabb { lo: l, hi: h, k: lo.len() as u8 }
    }

    /// An empty box (useful as a fold identity via [`Aabb::union`]).
    pub fn empty(k: usize) -> Self {
        let mut lo = [0u32; MAX_DIMS];
        let hi = [0u32; MAX_DIMS];
        for l in lo.iter_mut().take(k) {
            *l = u32::MAX;
        }
        Aabb { lo, hi, k: k as u8 }
    }

    /// Dimensionality.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Is the box empty (zero extent in any dimension)?
    pub fn is_empty(&self) -> bool {
        (0..self.k()).any(|d| self.lo[d] >= self.hi[d])
    }

    /// Volume as `f64` (cells covered); `0.0` for empty boxes.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.k()).map(|d| (self.hi[d] - self.lo[d]) as f64).product()
    }

    /// Half-perimeter (sum of extents) — cheaper tie-breaker than volume.
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.k()).map(|d| (self.hi[d] - self.lo[d]) as f64).sum()
    }

    /// Do the boxes share any cell?
    pub fn overlaps(&self, other: &Aabb) -> bool {
        debug_assert_eq!(self.k, other.k);
        if self.is_empty() || other.is_empty() {
            return false;
        }
        (0..self.k()).all(|d| self.lo[d] < other.hi[d] && other.lo[d] < self.hi[d])
    }

    /// Does `self` fully contain `other`? (Empty boxes are contained
    /// everywhere.)
    pub fn contains(&self, other: &Aabb) -> bool {
        debug_assert_eq!(self.k, other.k);
        if other.is_empty() {
            return true;
        }
        (0..self.k()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Smallest box covering both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        debug_assert_eq!(self.k, other.k);
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for d in 0..self.k() {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Aabb { lo, hi, k: self.k }
    }

    /// Volume increase if `self` were grown to cover `other` (Guttman's
    /// enlargement rule).
    pub fn enlargement(&self, other: &Aabb) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// Center point (for STR bulk-load sorting), as f64 per dimension.
    pub fn center(&self, d: usize) -> f64 {
        (self.lo[d] as f64 + self.hi[d] as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_margin_center() {
        let b = Aabb::new(&[1, 2], &[4, 6]);
        assert_eq!(b.volume(), 12.0);
        assert_eq!(b.margin(), 7.0);
        assert_eq!(b.center(0), 2.5);
        assert!(!b.is_empty());
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb::empty(2);
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        let b = Aabb::new(&[0, 0], &[5, 5]);
        assert!(!e.overlaps(&b));
        assert!(!b.overlaps(&e));
        assert_eq!(e.union(&b), b);
        assert_eq!(b.union(&e), b);
        assert!(b.contains(&e));
    }

    #[test]
    fn overlap_and_containment() {
        let a = Aabb::new(&[0, 0], &[4, 4]);
        let b = Aabb::new(&[3, 3], &[6, 6]);
        let c = Aabb::new(&[4, 0], &[6, 4]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching is not overlap
        assert!(a.contains(&Aabb::new(&[1, 1], &[2, 2])));
        assert!(!a.contains(&b));
    }

    #[test]
    fn union_and_enlargement() {
        let a = Aabb::new(&[0, 0], &[2, 2]);
        let b = Aabb::new(&[4, 4], &[6, 6]);
        let u = a.union(&b);
        assert_eq!(u, Aabb::new(&[0, 0], &[6, 6]));
        assert_eq!(a.enlargement(&b), 36.0 - 4.0);
        assert_eq!(a.enlargement(&Aabb::new(&[0, 0], &[1, 1])), 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_box_panics() {
        let _ = Aabb::new(&[5, 0], &[1, 1]);
    }
}
