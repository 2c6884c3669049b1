//! Materialized cuboid lattice: per-segment pre-aggregated rollup cells.
//!
//! A coarse-level rollup over the leaf-grain EDB pays the same page I/O as
//! a leaf dice, because every entry must be read and attributed upward
//! through the leaf→ancestor table. The allocation weights make aggregates
//! *additive* (each fact's allocations sum to its weight, and children sum
//! exactly to parents), so pre-aggregation is sound: for a chosen
//! *grain* — one hierarchy level per dimension — the `(sum, count)` pair
//! of every grain cell fully determines any query whose boundaries align
//! with that grain.
//!
//! [`CuboidLattice`] materializes a small set of such cuboids per segment
//! view, chosen greedily by estimated benefit (segment page count ×
//! query-coverage of the grain) under a configurable storage budget
//! ([`LatticeConfig`]). A [`Cuboid`] is its grain plus one dense
//! `(sum, count)` slot per grain cell and one presence bit per slot: the
//! cell holding leaf cell `c` is slot `Σ_d pos_d × stride_d`, where
//! `pos_d` is the position of `c`'s level-`grain[d]` ancestor among that
//! level's nodes
//! ([`Hierarchy::level_offsets`](iolap_hierarchy::Hierarchy::level_offsets))
//! and dimension 0 is the most significant digit. A level's nodes ascend
//! by leaf interval, so slot order is canonical lex order of the cells'
//! lo corners. The planner reads present slots directly; a cuboid read
//! decodes no page.
//!
//! **Bit-identity contract.** Every stored `(sum, count)` is produced by
//! accumulating `weight * measure` / `weight` over exactly the entries of
//! that grain cell, in segment-scan order, from a fresh `0.0` accumulator.
//! That is byte-for-byte the loop a fresh [`SegmentCursor`] leaf scan of
//! the grain-cell box performs on the same view, so a stored pair is
//! f64-bit-identical to an on-demand leaf scan of its cell — the property
//! the query planner's *forced leaf* verification mode checks. A slot
//! with no live entry is not present (a fresh scan of such a box
//! contributes nothing, not `±0.0`).
//!
//! **One accumulation kernel.** Every slot is filled by one cursor per
//! segment view that feeds every cuboid at once. Grain selection admits
//! only grains of at most half the segment's entry count, which bounds
//! the slot array. A cell's sub-sequence of the scan is the one a fresh
//! scan of its box visits, so the kernel keeps the bit-identity contract.
//!
//! **Maintenance.** Segments are immutable; the only way a published
//! segment's content changes is through its exclusion set growing as
//! facts are retired. [`CuboidLattice::sync`] therefore has one rule: a
//! segment's lattice is kept while its segment and exclusion set still
//! match the view, and every other view — a new segment from a fold or a
//! compaction, or a surviving one whose exclusion set grew — gets its
//! cuboids built again, all grains in one full scan. Grain selection
//! reads the segment only, so a rebuilt view keeps its grains.

use crate::error::Result;
use crate::segment::{EdbSegment, SegScanStats, SegmentCursor, SegmentView};
use iolap_hierarchy::LevelNo;
use iolap_model::{CellKey, FactId, Schema, MAX_DIMS};
use std::sync::Arc;

/// One hierarchy level per dimension: the granularity of a cuboid.
/// `grain[d] == 1` keeps dimension `d` at leaf grain; `schema.dim(d).levels()`
/// collapses it to the ALL root.
pub type Grain = [LevelNo; MAX_DIMS];

/// The selection's price per grain cell, in bytes: candidate cuboids are
/// priced at `cells × EST_ENTRY_BYTES` against
/// [`LatticeConfig::budget_bytes`] before they are built.
const EST_ENTRY_BYTES: u64 = 48;

/// Storage/selection budget for the per-segment cuboid lattice.
#[derive(Debug, Clone, Copy)]
pub struct LatticeConfig {
    /// Estimated byte budget for all cuboids of one segment.
    pub budget_bytes: u64,
    /// Segments with fewer live entries than this get no lattice at all
    /// (a leaf scan is already cheap).
    pub min_segment_entries: u64,
    /// Hard cap on cuboids per segment, however cheap they look.
    pub max_cuboids: usize,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig { budget_bytes: 1 << 20, min_segment_entries: 256, max_cuboids: 4 }
    }
}

/// One pre-aggregated grain cell, as [`Cuboid::cells`] yields it: the
/// half-open leaf box `[lo, hi)` of a grain cell that holds at least one
/// live entry, with its accumulated allocation-weighted sum and count.
#[derive(Debug, Clone, Copy)]
pub struct CuboidCell {
    /// Lo corner (inclusive) of the grain cell's leaf box.
    pub lo: CellKey,
    /// Hi corner (exclusive) of the grain cell's leaf box.
    pub hi: CellKey,
    /// `Σ weight × measure` over the cell's live entries, in scan order.
    pub sum: f64,
    /// `Σ weight` over the cell's live entries, in scan order.
    pub count: f64,
}

/// One grain cell's accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    sum: f64,
    count: f64,
}

/// One materialized cuboid: every grain cell of one segment view at one
/// grain, addressed densely — the cell holding leaf cell `c` is slot
/// `Σ_d level_offsets(grain[d])[c[d]] × stride[d]` — with a presence bit
/// per slot that is set iff at least one live entry landed there.
#[derive(Clone)]
pub struct Cuboid {
    /// The level-vector this cuboid is aggregated at.
    pub grain: Grain,
    stride: [usize; MAX_DIMS],
    slots: Vec<Slot>,
    present: Vec<u64>,
}

impl Cuboid {
    /// Build the cuboid for `view` at `grain` with one full pruning scan:
    /// the one-grain call of the lattice's accumulation kernel. The slot
    /// array spans every cell of the grain, so `grain` should be one
    /// [`CuboidLattice`] would select.
    ///
    /// Each entry is slotted into the accumulator of the grain cell that
    /// contains it, so per cell the visited sub-sequence (and therefore
    /// the f64 accumulation) is identical to a fresh leaf scan of that
    /// cell's box on the same view.
    pub fn build(schema: &Schema, view: &SegmentView, grain: Grain) -> Result<Cuboid> {
        let (mut cuboids, _) = build_cuboids(schema, view, &[grain])?;
        Ok(cuboids.pop().expect("one grain builds one cuboid"))
    }

    /// An empty cuboid: a zero slot for every cell of `grain`, none present.
    fn new(schema: &Schema, grain: Grain) -> Cuboid {
        let mut stride = [0usize; MAX_DIMS];
        let mut len = 1usize;
        for d in (0..schema.k()).rev() {
            stride[d] = len;
            len = len
                .checked_mul(schema.dim(d).nodes_at_level(grain[d]).len())
                .expect("a grain's cell count fits in memory");
        }
        Cuboid {
            grain,
            stride,
            slots: vec![Slot::default(); len],
            present: vec![0; len.div_ceil(64)],
        }
    }

    /// Per dimension, the leaf → slot-digit table of this grain.
    fn offsets<'s>(&self, schema: &'s Schema) -> [&'s [u32]; MAX_DIMS] {
        let mut offsets: [&[u32]; MAX_DIMS] = [&[]; MAX_DIMS];
        for (d, o) in offsets.iter_mut().enumerate().take(schema.k()) {
            *o = schema.dim(d).level_offsets(self.grain[d]);
        }
        offsets
    }

    /// The slot of the grain cell holding leaf cell `cell`.
    #[inline]
    fn slot(&self, k: usize, offsets: &[&[u32]; MAX_DIMS], cell: &CellKey) -> usize {
        (0..k).map(|d| offsets[d][cell[d] as usize] as usize * self.stride[d]).sum()
    }

    /// Slot `i`'s grain cell with its accumulators.
    fn cell(&self, schema: &Schema, i: usize) -> CuboidCell {
        let mut lo: CellKey = [0; MAX_DIMS];
        let mut hi: CellKey = [0; MAX_DIMS];
        for d in 0..schema.k() {
            let h = schema.dim(d);
            let nodes = h.nodes_at_level(self.grain[d]);
            let r = h.leaf_range(nodes[i / self.stride[d] % nodes.len()]);
            lo[d] = r.start;
            hi[d] = r.end;
        }
        let Slot { sum, count } = self.slots[i];
        CuboidCell { lo, hi, sum, count }
    }

    /// The present cells, in slot order (canonical lex order of `lo`).
    pub fn cells<'a>(&'a self, schema: &'a Schema) -> impl Iterator<Item = CuboidCell> + 'a {
        (0..self.slots.len())
            .filter(|&i| has_bit(&self.present, i))
            .map(move |i| self.cell(schema, i))
    }

    /// Number of present grain cells.
    pub fn num_cells(&self) -> usize {
        self.present.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes held: the slot array plus the presence bits.
    pub fn encoded_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Slot>() + self.present.len() * 8) as u64
    }
}

/// Bit `i` of a slot bitset.
fn has_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// The accumulation kernel every cuboid slot comes from: one cuboid per
/// grain of `grains` for `view`, from one full scan that adds each live
/// entry's `w·m` and `w` into its slot of every cuboid.
fn build_cuboids(
    schema: &Schema,
    view: &SegmentView,
    grains: &[Grain],
) -> Result<(Vec<Cuboid>, SegScanStats)> {
    let k = schema.k();
    let mut cuboids: Vec<Cuboid> = grains.iter().map(|&g| Cuboid::new(schema, g)).collect();
    let offsets: Vec<_> = cuboids.iter().map(|c| c.offsets(schema)).collect();
    let views = [view.clone()];
    let mut cursor = SegmentCursor::new(&views, SegmentCursor::all_region(k));
    cursor.for_each(|e| {
        for (c, o) in cuboids.iter_mut().zip(&offsets) {
            let i = c.slot(k, o, &e.cell);
            let s = &mut c.slots[i];
            s.sum += e.weight * e.measure;
            s.count += e.weight;
            c.present[i / 64] |= 1 << (i % 64);
        }
    })?;
    Ok((cuboids, cursor.stats()))
}

/// The lattice of one segment view: the segment's identity (its `Arc` and
/// the exclusion set the cuboids were computed against) plus its cuboids.
#[derive(Clone)]
pub struct SegLattice {
    /// The leaf segment these cuboids pre-aggregate.
    pub seg: Arc<EdbSegment>,
    /// The exclusion set the cells were computed against. A view only
    /// matches this lattice if its exclusions are equal, so a stale
    /// lattice can never produce a wrong answer — it is simply skipped.
    pub excl: Arc<std::collections::HashSet<FactId>>,
    /// Materialized cuboids, in selection order.
    pub cuboids: Vec<Cuboid>,
}

impl SegLattice {
    /// True if `view` reads exactly the data these cuboids summarize.
    pub fn matches(&self, view: &SegmentView) -> bool {
        Arc::ptr_eq(&self.seg, &view.segment)
            && (Arc::ptr_eq(&self.excl, &view.exclude) || *self.excl == *view.exclude)
    }

    /// Bytes held across all cuboids (slot arrays and presence bits).
    pub fn encoded_bytes(&self) -> u64 {
        self.cuboids.iter().map(|c| c.encoded_bytes()).sum()
    }
}

/// A materialized rollup lattice over a set of segment views.
///
/// Built per segment under [`LatticeConfig`]; consulted by the query
/// planner via [`CuboidLattice::for_view`]. Cloneable so maintenance can
/// evolve it copy-on-write behind an `Arc` while published snapshots keep
/// serving the previous epoch.
#[derive(Clone)]
pub struct CuboidLattice {
    k: usize,
    config: LatticeConfig,
    segs: Vec<SegLattice>,
}

impl CuboidLattice {
    /// An empty lattice for a `k`-dimensional schema.
    pub fn new(k: usize, config: LatticeConfig) -> Self {
        CuboidLattice { k, config, segs: Vec::new() }
    }

    /// Per-segment lattices, in view order of the last sync.
    pub fn segs(&self) -> &[SegLattice] {
        &self.segs
    }

    /// The lattice for `view`, if one exists and matches its exclusions.
    pub fn for_view(&self, view: &SegmentView) -> Option<&SegLattice> {
        self.segs.iter().find(|sl| sl.matches(view))
    }

    /// Bytes held across every cuboid: the slot arrays and presence bits
    /// the lattice holds.
    pub fn encoded_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.encoded_bytes()).sum()
    }

    /// Total number of materialized cuboids.
    pub fn num_cuboids(&self) -> usize {
        self.segs.iter().map(|s| s.cuboids.len()).sum()
    }

    /// Reconcile the lattice with the current `views` and return the
    /// leaf-scan cost paid: a lattice whose segment and exclusion set still
    /// match its view is kept, and every other view with at least
    /// [`LatticeConfig::min_segment_entries`] entries gets its grains
    /// selected and its cuboids built in one scan. Lattices of segments no
    /// longer among `views` (compaction replaced the tier) are dropped.
    pub fn sync(&mut self, schema: &Schema, views: &[SegmentView]) -> Result<SegScanStats> {
        debug_assert_eq!(schema.k(), self.k, "a lattice serves one schema");
        let mut scan = SegScanStats::default();
        let mut old = std::mem::take(&mut self.segs);
        for view in views {
            if let Some(i) = old.iter().position(|sl| sl.matches(view)) {
                let mut sl = old.swap_remove(i);
                sl.excl = Arc::clone(&view.exclude);
                self.segs.push(sl);
                continue;
            }
            if view.segment.len() < self.config.min_segment_entries {
                continue;
            }
            let grains = select_grains(schema, &view.segment, &self.config);
            if grains.is_empty() {
                continue;
            }
            let (cuboids, io) = build_cuboids(schema, view, &grains)?;
            scan.absorb(io);
            self.segs.push(SegLattice {
                seg: Arc::clone(&view.segment),
                excl: Arc::clone(&view.exclude),
                cuboids,
            });
        }
        Ok(scan)
    }
}

/// Every non-leaf level vector of the schema, in lex order.
fn candidate_grains(schema: &Schema) -> Vec<Grain> {
    let k = schema.k();
    let mut out = Vec::new();
    let mut g: Grain = [1; MAX_DIMS];
    'outer: loop {
        if (0..k).any(|d| g[d] > 1) {
            out.push(g);
        }
        let mut d = k;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            g[d] += 1;
            if g[d] <= schema.dim(d).levels() {
                break;
            }
            g[d] = 1;
        }
    }
    out
}

/// Greedy benefit/cost grain selection for one segment.
///
/// Benefit is `segment pages × coverage`, where coverage is the fraction
/// of (dim, level) query targets this grain can serve exactly (a grain
/// serves every level at or above it). Cost is the grain's cell count,
/// priced at [`EST_ENTRY_BYTES`] a cell. Grains whose cell count approaches the segment's
/// entry count are skipped — reading them would cost as much as the leaf
/// scan they replace.
fn select_grains(schema: &Schema, seg: &EdbSegment, config: &LatticeConfig) -> Vec<Grain> {
    let k = schema.k();
    let total_levels: f64 = (0..k).map(|d| schema.dim(d).levels() as f64).product();
    let pages = seg.num_pages() as f64;
    let mut scored: Vec<(f64, Grain, u64)> = Vec::new();
    for g in candidate_grains(schema) {
        let cells = (0..k).fold(1u64, |acc, d| {
            acc.saturating_mul(schema.dim(d).nodes_at_level(g[d]).len() as u64)
        });
        let est_cells = cells.min(seg.len());
        if est_cells.saturating_mul(2) > seg.len() {
            continue;
        }
        let coverage: f64 =
            (0..k).map(|d| (schema.dim(d).levels() - g[d] + 1) as f64).product::<f64>()
                / total_levels;
        let cost = (est_cells * EST_ENTRY_BYTES).max(1);
        let score = pages * coverage / cost as f64;
        scored.push((score, g, cost));
    }
    // A fixed order: score desc, then grain lex asc as tie-break.
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    let mut picked = Vec::new();
    let mut spent = 0u64;
    for (_, g, cost) in scored {
        if picked.len() >= config.max_cuboids {
            break;
        }
        if spent.saturating_add(cost) > config.budget_bytes {
            continue;
        }
        spent += cost;
        picked.push(g);
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_hierarchy::HierarchyBuilder;
    use iolap_model::{EdbRecord, RegionBox};

    fn two_level(tag: &str, parents: &[u32], groups: u32) -> iolap_hierarchy::Hierarchy {
        HierarchyBuilder::new(tag)
            .level("Leaf", parents.len() as u32)
            .level("Group", groups)
            .parents(2, parents)
            .build()
    }

    fn schema2() -> Schema {
        Schema::new(
            vec![
                Arc::new(two_level("loc", &[0, 0, 0, 1, 1], 2)),
                Arc::new(two_level("auto", &[0, 0, 1, 1, 1], 2)),
            ],
            "sales",
        )
    }

    fn seg_view(schema: &Schema, entries: Vec<EdbRecord>) -> SegmentView {
        SegmentView::new(Arc::new(EdbSegment::build(schema.k(), entries)))
    }

    fn rec(id: u64, a: u32, b: u32, w: f64, m: f64) -> EdbRecord {
        let mut cell: CellKey = [0; MAX_DIMS];
        cell[0] = a;
        cell[1] = b;
        EdbRecord { fact_id: id, cell, weight: w, measure: m }
    }

    #[test]
    fn cuboid_cells_match_fresh_leaf_scans_bitwise() {
        let schema = schema2();
        let entries: Vec<EdbRecord> = (0..40)
            .map(|i| rec(i, (i % 5) as u32, (i % 5) as u32, 0.25 + (i as f64) * 0.01, i as f64))
            .collect();
        let view = seg_view(&schema, entries);
        let grain: Grain = [2, 2, 0, 0, 0, 0, 0, 0];
        let cuboid = Cuboid::build(&schema, &view, grain).unwrap();
        assert!(cuboid.num_cells() > 0);
        let views = [view];
        for cell in cuboid.cells(&schema) {
            let mut cb = RegionBox::point(&cell.lo, schema.k());
            cb.lo = cell.lo;
            cb.hi = cell.hi;
            let mut sum = 0.0;
            let mut count = 0.0;
            SegmentCursor::new(&views, cb)
                .for_each(|e| {
                    sum += e.weight * e.measure;
                    count += e.weight;
                })
                .unwrap();
            assert_eq!(sum.to_bits(), cell.sum.to_bits());
            assert_eq!(count.to_bits(), cell.count.to_bits());
        }
        // Slot order is canonical lex order of the lo corners.
        let cells: Vec<CuboidCell> = cuboid.cells(&schema).collect();
        assert_eq!(cells.len(), cuboid.num_cells());
        assert!(cells.windows(2).all(|w| w[0].lo < w[1].lo));
    }

    #[test]
    fn sync_builds_drops_and_rebuilds() {
        let schema = schema2();
        let entries: Vec<EdbRecord> =
            (0..32).map(|i| rec(i, (i % 5) as u32, ((i / 5) % 5) as u32, 1.0, 2.0)).collect();
        let view = seg_view(&schema, entries.clone());
        let pages = view.segment.num_pages();
        let cfg = LatticeConfig { min_segment_entries: 1, ..LatticeConfig::default() };
        let mut lat = CuboidLattice::new(schema.k(), cfg);
        let s0 = lat.sync(&schema, std::slice::from_ref(&view)).unwrap();
        assert_eq!(s0.pages_read, pages, "a build reads every page once");
        assert_eq!(lat.segs().len(), 1);
        assert!(lat.num_cuboids() > 0);
        assert!(lat.for_view(&view).is_some());
        assert!(lat.encoded_bytes() > 0);
        let grains: Vec<Grain> = lat.segs()[0].cuboids.iter().map(|c| c.grain).collect();
        // A matching lattice is kept: no scan.
        assert_eq!(lat.sync(&schema, std::slice::from_ref(&view)).unwrap().pages_read, 0);

        // Exclude one fact: same segment, different exclusions — the stale
        // lattice must refuse to match until synced, and the sync rebuilds
        // it at the same grains.
        let mut excl = std::collections::HashSet::new();
        excl.insert(7u64);
        let dirtied = SegmentView { segment: Arc::clone(&view.segment), exclude: Arc::new(excl) };
        assert!(lat.for_view(&dirtied).is_none());
        let s = lat.sync(&schema, std::slice::from_ref(&dirtied)).unwrap();
        assert_eq!(s.pages_read, pages, "a rebuild reads every page once");
        assert_eq!(lat.segs().len(), 1);
        let sl = lat.for_view(&dirtied).expect("lattice matches after sync");
        assert_eq!(sl.cuboids.iter().map(|c| c.grain).collect::<Vec<_>>(), grains);
        // Rebuilt cells are bit-identical to fresh scans of the new view.
        let views = [dirtied.clone()];
        for cuboid in &sl.cuboids {
            for cell in cuboid.cells(&schema) {
                let mut cb = RegionBox::point(&cell.lo, schema.k());
                cb.lo = cell.lo;
                cb.hi = cell.hi;
                let mut sum = 0.0;
                let mut count = 0.0;
                SegmentCursor::new(&views, cb)
                    .for_each(|e| {
                        sum += e.weight * e.measure;
                        count += e.weight;
                    })
                    .unwrap();
                assert_eq!(sum.to_bits(), cell.sum.to_bits());
                assert_eq!(count.to_bits(), cell.count.to_bits());
            }
        }

        // Replace the segment entirely: old lattice dropped, new one built.
        let replacement = seg_view(&schema, entries);
        let s2 = lat.sync(&schema, std::slice::from_ref(&replacement)).unwrap();
        assert_eq!(s2.pages_read, replacement.segment.num_pages());
        assert_eq!(lat.segs().len(), 1);
        assert!(lat.for_view(&replacement).is_some());
        assert!(lat.for_view(&dirtied).is_none());
    }

    #[test]
    fn selection_respects_budget_and_cap() {
        let schema = schema2();
        let entries: Vec<EdbRecord> =
            (0..64).map(|i| rec(i, (i % 5) as u32, ((i / 5) % 5) as u32, 1.0, 1.0)).collect();
        let seg = EdbSegment::build(schema.k(), entries);
        let grains = select_grains(
            &schema,
            &seg,
            &LatticeConfig { budget_bytes: 1 << 20, min_segment_entries: 1, max_cuboids: 2 },
        );
        assert!(grains.len() <= 2);
        assert!(!grains.is_empty());
        // All-leaves grain never selected.
        assert!(grains.iter().all(|g| g[..schema.k()].iter().any(|&l| l > 1)));
        let zero = select_grains(
            &schema,
            &seg,
            &LatticeConfig { budget_bytes: 0, min_segment_entries: 1, max_cuboids: 4 },
        );
        assert!(zero.is_empty());
    }
}
