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
//! ([`LatticeConfig`]). Each cuboid is stored as a *mini* [`EdbSegment`]
//! through the ordinary segment/page machinery — entry `cell` is the
//! lo-corner leaf cell of the grain cell, `weight` the pre-aggregated
//! count, `measure` the pre-aggregated sum — so cuboid reads reuse fence
//! pruning, the page codecs and [`SegScanStats`] accounting unchanged.
//!
//! **Bit-identity contract.** Every stored `(sum, count)` is produced by
//! accumulating `weight * measure` / `weight` over exactly the entries of
//! that grain cell, in segment-scan order, from a fresh `0.0` accumulator.
//! That is byte-for-byte the loop a fresh [`SegmentCursor`] leaf scan of
//! the grain-cell box performs on the same view, so a stored pair is
//! f64-bit-identical to an on-demand leaf scan of its cell — the property
//! the query planner's *forced leaf* verification mode checks. Cells with
//! no live entries are not stored at all (a fresh scan of such a box
//! contributes nothing, not `±0.0`).
//!
//! **Maintenance.** Segments are immutable; the only way a published
//! segment's content changes is through its exclusion set growing as
//! facts are retired. [`CuboidLattice::sync`] therefore (1) drops lattices
//! whose segment no longer exists (compaction rewrote the tier — fresh
//! cuboids are built for the new segments), and (2) for a surviving
//! segment whose exclusion set changed, recomputes exactly the cells
//! overlapping the supplied dirty region boxes (the same
//! `UpdateReport.touched` geometry that drives server cache
//! invalidation) by fresh leaf scans of the current view.

use crate::error::Result;
use crate::segment::{EdbSegment, SegScanStats, SegmentCursor, SegmentView};
use iolap_hierarchy::LevelNo;
use iolap_model::{cmp_cells, CellKey, EdbRecord, FactId, RegionBox, Schema, MAX_DIMS};
use std::collections::HashMap;
use std::sync::Arc;

/// One hierarchy level per dimension: the granularity of a cuboid.
/// `grain[d] == 1` keeps dimension `d` at leaf grain; `schema.dim(d).levels()`
/// collapses it to the ALL root.
pub type Grain = [LevelNo; MAX_DIMS];

/// Rough at-rest bytes per mini-segment entry, used only to price
/// candidate cuboids against [`LatticeConfig::budget_bytes`] before they
/// are built.
const EST_ENTRY_BYTES: u64 = 48;

/// Storage/selection budget for the per-segment cuboid lattice.
#[derive(Debug, Clone, Copy)]
pub struct LatticeConfig {
    /// Estimated at-rest byte budget for all cuboids of one segment.
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

/// One pre-aggregated grain cell: the half-open leaf box `[lo, hi)` of a
/// grain cell that holds at least one live entry, with its accumulated
/// allocation-weighted sum and count.
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

/// One materialized cuboid: every non-empty grain cell of one segment
/// view at one grain, plus its mini-segment encoding.
#[derive(Clone)]
pub struct Cuboid {
    /// The level-vector this cuboid is aggregated at.
    pub grain: Grain,
    /// Non-empty cells, sorted by canonical lex order of `lo`. Source of
    /// truth for maintenance; `mini` is its encoded mirror.
    pub cells: Vec<CuboidCell>,
    /// The cells encoded as a mini [`EdbSegment`] (`cell = lo`,
    /// `weight = count`, `measure = sum`, `fact_id` = cell index), so
    /// cuboid reads go through fence pruning and page I/O accounting.
    pub mini: Arc<EdbSegment>,
}

impl Cuboid {
    /// Build the cuboid for `view` at `grain` with one full pruning scan.
    ///
    /// Each entry is slotted into the accumulator of the grain cell that
    /// contains it, so per cell the visited sub-sequence (and therefore
    /// the f64 accumulation) is identical to a fresh leaf scan of that
    /// cell's box on the same view.
    pub fn build(schema: &Schema, view: &SegmentView, grain: Grain) -> Result<Cuboid> {
        let k = schema.k();
        let mut slots: HashMap<CellKey, usize> = HashMap::new();
        let mut cells: Vec<CuboidCell> = Vec::new();
        let region = SegmentCursor::all_region(k);
        let views = [view.clone()];
        let mut cursor = SegmentCursor::new(&views, region);
        cursor.for_each(|e| {
            let mut lo: CellKey = [0; MAX_DIMS];
            let mut hi: CellKey = [0; MAX_DIMS];
            for d in 0..k {
                let h = schema.dim(d);
                let r = h.leaf_range(h.ancestor_at(e.cell[d], grain[d]));
                lo[d] = r.start;
                hi[d] = r.end;
            }
            let i = *slots.entry(lo).or_insert_with(|| {
                cells.push(CuboidCell { lo, hi, sum: 0.0, count: 0.0 });
                cells.len() - 1
            });
            let c = &mut cells[i];
            c.sum += e.weight * e.measure;
            c.count += e.weight;
        })?;
        cells.sort_unstable_by(|a, b| cmp_cells(&a.lo, &b.lo, k));
        let mini = encode_mini(k, &cells);
        Ok(Cuboid { grain, cells, mini })
    }

    /// Number of grain cells materialized.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// At-rest encoded bytes of the mini segment.
    pub fn encoded_bytes(&self) -> u64 {
        self.mini.encoded_bytes()
    }

    /// A scannable view of the mini segment (no exclusions).
    pub fn mini_view(&self) -> SegmentView {
        SegmentView::new(Arc::clone(&self.mini))
    }

    /// Recompute every cell whose box overlaps one of `dirty` by a fresh
    /// leaf scan of the current `view`; drop cells that became empty and
    /// re-encode the mini segment if anything changed. Returns the number
    /// of cells recomputed and the scan cost paid.
    pub fn recompute_dirty(
        &mut self,
        k: usize,
        view: &SegmentView,
        dirty: &[RegionBox],
    ) -> Result<(u64, SegScanStats)> {
        let mut io = SegScanStats::default();
        let mut recomputed = 0u64;
        let mut changed = false;
        let views = [view.clone()];
        let mut keep: Vec<CuboidCell> = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let mut cb = RegionBox::point(&cell.lo, k);
            cb.lo = cell.lo;
            cb.hi = cell.hi;
            if !dirty.iter().any(|b| b.overlaps(&cb)) {
                keep.push(*cell);
                continue;
            }
            recomputed += 1;
            let mut sum = 0.0f64;
            let mut count = 0.0f64;
            let mut visited = false;
            let mut cursor = SegmentCursor::new(&views, cb);
            cursor.for_each(|e| {
                sum += e.weight * e.measure;
                count += e.weight;
                visited = true;
            })?;
            io.absorb(cursor.stats());
            if sum.to_bits() != cell.sum.to_bits() || count.to_bits() != cell.count.to_bits() {
                changed = true;
            }
            if visited {
                keep.push(CuboidCell { lo: cell.lo, hi: cell.hi, sum, count });
            } else {
                changed = true; // cell emptied out — must disappear from the mini
            }
        }
        if changed {
            self.mini = encode_mini(k, &keep);
        }
        self.cells = keep;
        Ok((recomputed, io))
    }
}

/// Encode cuboid cells as a mini segment (canonical order), so the mini
/// cursor visits cells in lex order of their lo corners.
fn encode_mini(k: usize, cells: &[CuboidCell]) -> Arc<EdbSegment> {
    let entries: Vec<EdbRecord> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| EdbRecord {
            fact_id: i as FactId,
            cell: c.lo,
            weight: c.count,
            measure: c.sum,
        })
        .collect();
    Arc::new(EdbSegment::build(k, entries))
}

/// The lattice of one segment view: the segment's identity (its `Arc` and
/// the exclusion set the cuboids were computed against) plus its cuboids.
#[derive(Clone)]
pub struct SegLattice {
    /// The leaf segment these cuboids pre-aggregate.
    pub seg: Arc<EdbSegment>,
    /// The exclusion set the cells were (re)computed against. A view only
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

    /// At-rest encoded bytes across all cuboids.
    pub fn encoded_bytes(&self) -> u64 {
        self.cuboids.iter().map(|c| c.encoded_bytes()).sum()
    }
}

/// Counters describing one [`CuboidLattice::sync`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeSync {
    /// Segment lattices dropped because their segment was compacted away.
    pub dropped: u64,
    /// Segment lattices built fresh for new segments.
    pub built: u64,
    /// Individual cuboid cells recomputed by dirty-box overlap.
    pub cells_recomputed: u64,
    /// Leaf-scan cost paid building and recomputing.
    pub scan: SegScanStats,
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

    /// Dimensionality this lattice was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The selection budget in force.
    pub fn config(&self) -> LatticeConfig {
        self.config
    }

    /// Per-segment lattices, in view order of the last sync.
    pub fn segs(&self) -> &[SegLattice] {
        &self.segs
    }

    /// The lattice for `view`, if one exists and matches its exclusions.
    pub fn for_view(&self, view: &SegmentView) -> Option<&SegLattice> {
        self.segs.iter().find(|sl| sl.matches(view))
    }

    /// Total at-rest encoded bytes across every cuboid.
    pub fn encoded_bytes(&self) -> u64 {
        self.segs.iter().map(|s| s.encoded_bytes()).sum()
    }

    /// Total number of materialized cuboids.
    pub fn num_cuboids(&self) -> usize {
        self.segs.iter().map(|s| s.cuboids.len()).sum()
    }

    /// Reconcile the lattice with the current `views`.
    ///
    /// * Lattices whose segment is no longer among `views` are dropped
    ///   (compaction replaced the tier).
    /// * A surviving lattice whose view's exclusion set changed has every
    ///   cell overlapping a `dirty` box recomputed by fresh leaf scans; if
    ///   `dirty` is empty it is rebuilt outright (defensive — exclusions
    ///   only ever change inside reported touched boxes).
    /// * New segments meeting [`LatticeConfig::min_segment_entries`] get
    ///   cuboids selected and built.
    pub fn sync(
        &mut self,
        schema: &Schema,
        views: &[SegmentView],
        dirty: &[RegionBox],
    ) -> Result<LatticeSync> {
        let mut out = LatticeSync::default();
        let before = self.segs.len();
        self.segs.retain(|sl| views.iter().any(|v| Arc::ptr_eq(&sl.seg, &v.segment)));
        out.dropped = (before - self.segs.len()) as u64;
        for view in views {
            let existing = self.segs.iter_mut().find(|sl| Arc::ptr_eq(&sl.seg, &view.segment));
            match existing {
                Some(sl) => {
                    if Arc::ptr_eq(&sl.excl, &view.exclude) || *sl.excl == *view.exclude {
                        sl.excl = Arc::clone(&view.exclude);
                        continue;
                    }
                    if dirty.is_empty() {
                        // No geometry to localize the change: rebuild.
                        let grains: Vec<Grain> = sl.cuboids.iter().map(|c| c.grain).collect();
                        let mut cuboids = Vec::with_capacity(grains.len());
                        for g in grains {
                            cuboids.push(Cuboid::build(schema, view, g)?);
                        }
                        sl.cuboids = cuboids;
                    } else {
                        for c in &mut sl.cuboids {
                            let (n, io) = c.recompute_dirty(self.k, view, dirty)?;
                            out.cells_recomputed += n;
                            out.scan.absorb(io);
                        }
                    }
                    sl.excl = Arc::clone(&view.exclude);
                }
                None => {
                    if view.segment.len() < self.config.min_segment_entries {
                        continue;
                    }
                    let mut cuboids = Vec::new();
                    for grain in select_grains(schema, &view.segment, &self.config) {
                        cuboids.push(Cuboid::build(schema, view, grain)?);
                    }
                    if cuboids.is_empty() {
                        continue;
                    }
                    out.built += 1;
                    self.segs.push(SegLattice {
                        seg: Arc::clone(&view.segment),
                        excl: Arc::clone(&view.exclude),
                        cuboids,
                    });
                }
            }
        }
        Ok(out)
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
/// serves every level at or above it). Cost is the estimated at-rest size
/// of the mini segment. Grains whose cell count approaches the segment's
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
    // Deterministic order: score desc, then grain lex asc as tie-break.
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
        assert!(!cuboid.cells.is_empty());
        let views = [view];
        for cell in &cuboid.cells {
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
        // Mini segment mirrors the cells in the same order.
        let recs = cuboid.mini.records().unwrap();
        assert_eq!(recs.len(), cuboid.cells.len());
        for (r, c) in recs.iter().zip(&cuboid.cells) {
            assert_eq!(r.cell, c.lo);
            assert_eq!(r.measure.to_bits(), c.sum.to_bits());
            assert_eq!(r.weight.to_bits(), c.count.to_bits());
        }
    }

    #[test]
    fn sync_builds_drops_and_recomputes() {
        let schema = schema2();
        let entries: Vec<EdbRecord> =
            (0..32).map(|i| rec(i, (i % 5) as u32, ((i / 5) % 5) as u32, 1.0, 2.0)).collect();
        let view = seg_view(&schema, entries.clone());
        let cfg = LatticeConfig { min_segment_entries: 1, ..LatticeConfig::default() };
        let mut lat = CuboidLattice::new(schema.k(), cfg);
        let s0 = lat.sync(&schema, std::slice::from_ref(&view), &[]).unwrap();
        assert_eq!(s0.built, 1);
        assert!(lat.num_cuboids() > 0);
        assert!(lat.for_view(&view).is_some());
        assert!(lat.encoded_bytes() > 0);

        // Exclude one fact: same segment, different exclusions — the stale
        // lattice must refuse to match until synced.
        let mut excl = std::collections::HashSet::new();
        excl.insert(7u64);
        let dirtied = SegmentView { segment: Arc::clone(&view.segment), exclude: Arc::new(excl) };
        assert!(lat.for_view(&dirtied).is_none());
        let dirty = [RegionBox::point(&[2, 1, 0, 0, 0, 0, 0, 0], schema.k())];
        let s = lat.sync(&schema, std::slice::from_ref(&dirtied), &dirty).unwrap();
        assert!(s.cells_recomputed > 0);
        let sl = lat.for_view(&dirtied).expect("lattice matches after sync");
        // Recomputed cells are bit-identical to fresh scans of the new view.
        let views = [dirtied.clone()];
        for cuboid in &sl.cuboids {
            for cell in &cuboid.cells {
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
        let s2 = lat.sync(&schema, std::slice::from_ref(&replacement), &[]).unwrap();
        assert_eq!(s2.dropped, 1);
        assert_eq!(s2.built, 1);
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
