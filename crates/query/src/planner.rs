//! Lattice-aware rollup planner: the one evaluator for rollups and
//! drill-downs. With a lattice it answers each view from the coarsest
//! covering cuboid, leaf-scanning only the partial-overlap residue; with
//! `lattice: None` it is one pruned leaf scan per view. (Region
//! aggregates run through `iolap_core::accumulate_region`; a rollup at a
//! dimension's top level, diced by the region, is the same answer.)
//!
//! ## Decomposition
//!
//! For one segment view and one query box, the planner asks its
//! [`CuboidLattice`] for the view's cuboids and, per cuboid, splits every
//! dimension of the box into up to three intervals: a *head* `[q.lo,
//! core.lo)` and *tail* `[core.hi, q.hi)` that cut through grain cells,
//! and a *core* `[core.lo, core.hi)` whose boundaries are grain-cell
//! boundaries. The product of those per-dimension choices tiles the query
//! box into at most `3^k` disjoint pieces; the all-core piece is answered
//! from the cuboid's mini segment, every other non-empty piece by an
//! ordinary leaf scan. A cuboid is usable only if its core is non-empty in
//! every dimension and its grain on the rollup dimension is at or below
//! the target level, so each grain cell nests inside exactly one output
//! node; among usable cuboids the planner picks the
//! one with the largest core volume — the *coarsest covering* cuboid,
//! because coarser grains materialize fewer, bigger cells over the same
//! core. Views with no usable cuboid fall back to a whole-box leaf scan
//! (`cuboid_misses`).
//!
//! ## Bit-identity
//!
//! Answers are merged in deterministic order — views in snapshot order,
//! pieces in lexicographic order of the per-dimension choice vectors,
//! entries in segment-scan order — and every accumulator starts at `0.0`.
//! [`PlanMode::ForcedLeaf`] executes the *same* plan with cuboid reads
//! replaced by fresh leaf scans of each grain cell (skipping cells that
//! visit no entry, since empty cells are not materialized): because each
//! stored `(sum, count)` is bit-identical to exactly that fresh scan (see
//! `iolap_core::cuboid`), the two modes produce f64-bit-identical results
//! in every lifecycle state — cold, after update batches (dirty-cell
//! recompute) and after compaction (cuboid rebuild). The proptest suite
//! (`tests/lattice.rs`) asserts this per query.

use crate::agg::{AggFn, AggResult};
use crate::rollup::RollupRow;
use iolap_core::{Cuboid, CuboidLattice, Result, SegScanStats, SegmentCursor, SegmentView};
use iolap_hierarchy::LevelNo;
use iolap_model::{CellKey, RegionBox, Schema, MAX_DIMS};

/// How the planner executes the plan it builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Answer core pieces from materialized cuboid mini segments.
    Lattice,
    /// Verification harness: build the same plan, but answer each core
    /// grain cell with a fresh leaf scan of its box. Bit-identical to
    /// `Lattice` by the cuboid build contract; pays leaf-scan I/O.
    ForcedLeaf,
}

/// Planner counters for one query: lattice consults plus scan I/O.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// Views whose core was answered from a cuboid.
    pub cuboid_hits: u64,
    /// Views that fell back to a pure leaf scan (no lattice coverage or
    /// no usable cuboid for this query).
    pub cuboid_misses: u64,
    /// Page/byte counters over every cursor the plan ran (mini-segment
    /// reads in `Lattice` mode, leaf reads otherwise).
    pub scan: SegScanStats,
}

impl PlanStats {
    /// Fold another query's counters into this one.
    pub fn absorb(&mut self, other: PlanStats) {
        self.cuboid_hits += other.cuboid_hits;
        self.cuboid_misses += other.cuboid_misses;
        self.scan.absorb(other.scan);
    }
}

/// One unit of work handed to the accumulation sink, in plan order.
enum Piece<'a> {
    /// A leaf entry from a residue scan (or an uncovered view): the
    /// caller slots `weight` / `weight × measure` itself.
    Leaf(&'a iolap_model::EdbRecord),
    /// One pre-aggregated grain cell: lo corner, `(sum, count)`. The lo
    /// corner is enough to slot the whole cell because the planner only
    /// uses cuboids whose grain cells nest inside one output node.
    Cell(&'a CellKey, f64, f64),
}

/// Per-dimension split of the query interval against one grain.
#[derive(Clone, Copy)]
struct DimSplit {
    q_lo: u32,
    q_hi: u32,
    core_lo: u32,
    core_hi: u32,
}

/// Split `region` against `grain`, returning one [`DimSplit`] per
/// dimension, or `None` if the core is empty somewhere (the cuboid cannot
/// help) or the region itself is empty.
fn decompose(
    schema: &Schema,
    region: &RegionBox,
    grain: &[LevelNo; MAX_DIMS],
) -> Option<Vec<DimSplit>> {
    let k = schema.k();
    let mut out = Vec::with_capacity(k);
    for (d, &g) in grain.iter().enumerate().take(k) {
        let h = schema.dim(d);
        // Clamp the "unbounded" full-space box (hi = u32::MAX) to the
        // leaves that exist; no entry lives beyond them.
        let q_lo = region.lo[d].min(h.num_leaves());
        let q_hi = region.hi[d].min(h.num_leaves());
        if q_lo >= q_hi {
            return None;
        }
        let first = h.leaf_range(h.ancestor_at(q_lo, g));
        let core_lo = if first.start == q_lo { q_lo } else { first.end };
        let last = h.leaf_range(h.ancestor_at(q_hi - 1, g));
        let core_hi = if last.end == q_hi { q_hi } else { last.start };
        if core_lo >= core_hi {
            return None;
        }
        out.push(DimSplit { q_lo, q_hi, core_lo, core_hi });
    }
    Some(out)
}

/// Tile the query box from a decomposition: the product of per-dimension
/// {head, core, tail} choices in lexicographic choice order (dimension 0
/// most significant). Returns `(box, is_core)` pieces; exactly one piece
/// has `is_core == true`.
fn pieces(k: usize, split: &[DimSplit]) -> Vec<(RegionBox, bool)> {
    // Per dimension: the non-empty choices, core flagged.
    let choices: Vec<Vec<(u32, u32, bool)>> = split
        .iter()
        .map(|s| {
            let mut v = Vec::with_capacity(3);
            if s.q_lo < s.core_lo {
                v.push((s.q_lo, s.core_lo, false));
            }
            v.push((s.core_lo, s.core_hi, true));
            if s.core_hi < s.q_hi {
                v.push((s.core_hi, s.q_hi, false));
            }
            v
        })
        .collect();
    let mut out = Vec::new();
    let mut idx = vec![0usize; k];
    'outer: loop {
        let mut b = RegionBox { lo: [0; MAX_DIMS], hi: [0; MAX_DIMS], k: k as u8 };
        let mut core = true;
        for d in 0..k {
            let (lo, hi, is_core) = choices[d][idx[d]];
            b.lo[d] = lo;
            b.hi[d] = hi;
            core &= is_core;
        }
        out.push((b, core));
        // Odometer: last dimension fastest, so pieces come out in lex
        // order of the choice vectors.
        let mut d = k;
        loop {
            if d == 0 {
                break 'outer;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < choices[d].len() {
                break;
            }
            idx[d] = 0;
        }
    }
    out
}

/// Grain cells of `cuboid.grain` inside the (grain-aligned) `core` box,
/// per dimension, in leaf order.
fn core_grain_ranges(
    schema: &Schema,
    grain: &[LevelNo; MAX_DIMS],
    core: &RegionBox,
) -> Vec<Vec<(u32, u32)>> {
    let k = schema.k();
    let mut out = Vec::with_capacity(k);
    for (d, &g) in grain.iter().enumerate().take(k) {
        let h = schema.dim(d);
        let mut v = Vec::new();
        let mut x = core.lo[d];
        while x < core.hi[d] {
            let r = h.leaf_range(h.ancestor_at(x, g));
            v.push((r.start, r.end));
            x = r.end;
        }
        out.push(v);
    }
    out
}

/// Number of grain cells the core spans (selection tie-break: prefer the
/// cuboid that answers the core with fewer, coarser cells).
fn core_cell_count(ranges: &[Vec<(u32, u32)>]) -> u64 {
    ranges.iter().map(|v| v.len() as u64).product()
}

/// Pick the best usable cuboid of `cuboids` for `region` under the
/// per-dimension grain `limit` (rollup target levels; `levels()`
/// where unconstrained). Returns the cuboid and its decomposition.
fn choose_cuboid<'a>(
    cuboids: &'a [Cuboid],
    schema: &Schema,
    region: &RegionBox,
    limit: &[LevelNo; MAX_DIMS],
) -> Option<(&'a Cuboid, Vec<DimSplit>)> {
    let k = schema.k();
    let mut best: Option<(u64, u64, usize, Vec<DimSplit>)> = None;
    for (i, c) in cuboids.iter().enumerate() {
        if (0..k).any(|d| c.grain[d] > limit[d]) {
            continue;
        }
        let Some(split) = decompose(schema, region, &c.grain) else { continue };
        let core_vol: u64 = split.iter().map(|s| (s.core_hi - s.core_lo) as u64).product();
        let core = {
            let mut b = RegionBox { lo: [0; MAX_DIMS], hi: [0; MAX_DIMS], k: k as u8 };
            for (d, s) in split.iter().enumerate() {
                b.lo[d] = s.core_lo;
                b.hi[d] = s.core_hi;
            }
            b
        };
        let cells = core_cell_count(&core_grain_ranges(schema, &c.grain, &core));
        // Largest core first; then fewest grain cells; then first in
        // selection order. All deterministic.
        let better = match &best {
            None => true,
            Some((bv, bc, bi, _)) => {
                (core_vol, std::cmp::Reverse(cells), std::cmp::Reverse(i))
                    > (*bv, std::cmp::Reverse(*bc), std::cmp::Reverse(*bi))
            }
        };
        if better {
            best = Some((core_vol, cells, i, split));
        }
    }
    best.map(|(_, _, i, split)| (&cuboids[i], split))
}

/// Evaluate one view's share of the query, feeding every leaf entry or
/// pre-aggregated cell to `sink` in deterministic plan order.
#[allow(clippy::too_many_arguments)]
fn scan_view(
    view: &SegmentView,
    lattice: Option<&CuboidLattice>,
    schema: &Schema,
    region: &RegionBox,
    limit: &[LevelNo; MAX_DIMS],
    mode: PlanMode,
    stats: &mut PlanStats,
    sink: &mut dyn FnMut(Piece<'_>),
) -> Result<()> {
    let views = std::slice::from_ref(view);
    let chosen = lattice
        .and_then(|l| l.for_view(view))
        .and_then(|sl| choose_cuboid(&sl.cuboids, schema, region, limit));
    let Some((cuboid, split)) = chosen else {
        stats.cuboid_misses += 1;
        let mut cursor = SegmentCursor::new(views, *region);
        cursor.for_each(|e| sink(Piece::Leaf(e)))?;
        stats.scan.absorb(cursor.stats());
        return Ok(());
    };
    stats.cuboid_hits += 1;
    for (piece, is_core) in pieces(schema.k(), &split) {
        if !is_core {
            let mut cursor = SegmentCursor::new(views, piece);
            cursor.for_each(|e| sink(Piece::Leaf(e)))?;
            stats.scan.absorb(cursor.stats());
            continue;
        }
        match mode {
            PlanMode::Lattice => {
                // The grain divides the core, so a grain cell's box is
                // inside the core iff its lo corner is — lo-corner region
                // filtering on the mini segment is exact.
                let mini = [cuboid.mini_view()];
                let mut cursor = SegmentCursor::new(&mini, piece);
                cursor.for_each(|e| sink(Piece::Cell(&e.cell, e.measure, e.weight)))?;
                stats.scan.absorb(cursor.stats());
            }
            PlanMode::ForcedLeaf => {
                // Same cells, same order (lex by lo corner), each from a
                // fresh leaf scan; cells with no live entry are skipped,
                // mirroring "empty cells are not materialized".
                let ranges = core_grain_ranges(schema, &cuboid.grain, &piece);
                let k = schema.k();
                let mut idx = vec![0usize; k];
                'cells: loop {
                    let mut cb = RegionBox { lo: [0; MAX_DIMS], hi: [0; MAX_DIMS], k: k as u8 };
                    for d in 0..k {
                        let (lo, hi) = ranges[d][idx[d]];
                        cb.lo[d] = lo;
                        cb.hi[d] = hi;
                    }
                    let mut sum = 0.0f64;
                    let mut count = 0.0f64;
                    let mut visited = false;
                    let mut cursor = SegmentCursor::new(views, cb);
                    cursor.for_each(|e| {
                        sum += e.weight * e.measure;
                        count += e.weight;
                        visited = true;
                    })?;
                    stats.scan.absorb(cursor.stats());
                    if visited {
                        sink(Piece::Cell(&cb.lo, sum, count));
                    }
                    let mut d = k;
                    loop {
                        if d == 0 {
                            break 'cells;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < ranges[d].len() {
                            break;
                        }
                        idx[d] = 0;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Plan and evaluate a rollup along `dim` at `level` over `views`,
/// optionally diced by `region`.
///
/// Only cuboids whose grain on `dim` is at or below `level` are used, so
/// each pre-aggregated cell lies inside exactly one output node and can
/// be slotted by its lo corner.
#[allow(clippy::too_many_arguments)]
pub fn plan_rollup_views(
    views: &[SegmentView],
    lattice: Option<&CuboidLattice>,
    schema: &Schema,
    dim: usize,
    level: LevelNo,
    region: Option<&RegionBox>,
    agg: AggFn,
    mode: PlanMode,
) -> Result<(Vec<RollupRow>, PlanStats)> {
    let h = schema.dim(dim);
    let nodes = h.nodes_at_level(level);
    let mut pos_of = std::collections::HashMap::with_capacity(nodes.len());
    for (i, &n) in nodes.iter().enumerate() {
        pos_of.insert(n, i);
    }
    let mut sums = vec![0.0f64; nodes.len()];
    let mut counts = vec![0.0f64; nodes.len()];
    let rg = region.copied().unwrap_or_else(|| SegmentCursor::all_region(schema.k()));
    // Grain limit: `level` on the rollup dimension, none elsewhere.
    let mut limit = [1; MAX_DIMS];
    for (d, slot) in limit.iter_mut().enumerate().take(schema.k()) {
        *slot = if d == dim { level } else { schema.dim(d).levels() };
    }
    let mut stats = PlanStats::default();
    for view in views {
        scan_view(view, lattice, schema, &rg, &limit, mode, &mut stats, &mut |p| match p {
            Piece::Leaf(e) => {
                let i = pos_of[&h.ancestor_at(e.cell[dim], level)];
                sums[i] += e.weight * e.measure;
                counts[i] += e.weight;
            }
            Piece::Cell(lo, s, c) => {
                let i = pos_of[&h.ancestor_at(lo[dim], level)];
                sums[i] += s;
                counts[i] += c;
            }
        })?;
    }
    let rows = nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| RollupRow {
            node,
            name: h.node_name(node),
            result: AggResult::from_parts(agg, sums[i], counts[i]),
        })
        .collect();
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use iolap_core::{
        accumulate_region, allocate, Algorithm, AllocConfig, LatticeConfig, MaintainableEdb,
        PolicySpec,
    };
    use iolap_model::paper_example;
    use std::sync::Arc;

    /// The paper example's maintained EDB, as the server publishes it:
    /// segment views plus their lattice (forced to materialize on the
    /// tiny segment).
    fn snapshot() -> (Vec<SegmentView>, Arc<CuboidLattice>) {
        let policy = PolicySpec::em_count(0.001);
        let run = allocate(
            &paper_example::table1(),
            &policy,
            Algorithm::Transitive,
            &AllocConfig::builder().in_memory(256).build(),
        )
        .unwrap();
        let mut medb = MaintainableEdb::build(run, policy).unwrap();
        medb.set_lattice_config(LatticeConfig { min_segment_entries: 1, ..Default::default() });
        (medb.snapshot_segments().unwrap(), medb.snapshot_lattice().unwrap())
    }

    #[allow(clippy::too_many_arguments)]
    fn plan(
        views: &[SegmentView],
        lattice: Option<&CuboidLattice>,
        schema: &Schema,
        dim: usize,
        level: LevelNo,
        region: Option<&RegionBox>,
        mode: PlanMode,
    ) -> (Vec<RollupRow>, PlanStats) {
        plan_rollup_views(views, lattice, schema, dim, level, region, AggFn::Sum, mode).unwrap()
    }

    /// A region aggregate is the one row of a rollup at a dimension's top
    /// level, diced by the region.
    #[test]
    fn top_level_rollups_agree_bitwise_between_lattice_and_forced_leaf() {
        let (views, lattice) = snapshot();
        let schema = paper_example::schema();
        let regions = [
            QueryBuilder::new(schema.clone()).build().unwrap().region,
            QueryBuilder::new(schema.clone()).at("Location", "East").build().unwrap().region,
            QueryBuilder::new(schema.clone()).at("Location", "MA").build().unwrap().region,
            QueryBuilder::new(schema.clone())
                .at("Location", "West")
                .at("Automobile", "Truck")
                .build()
                .unwrap()
                .region,
        ];
        for region in &regions {
            for dim in 0..schema.k() {
                let top = schema.dim(dim).levels();
                let (a, _) = plan(
                    &views,
                    Some(&lattice),
                    &schema,
                    dim,
                    top,
                    Some(region),
                    PlanMode::Lattice,
                );
                let (b, _) = plan(
                    &views,
                    Some(&lattice),
                    &schema,
                    dim,
                    top,
                    Some(region),
                    PlanMode::ForcedLeaf,
                );
                assert_eq!(a.len(), 1);
                assert_eq!(a[0].result.sum.to_bits(), b[0].result.sum.to_bits());
                assert_eq!(a[0].result.count.to_bits(), b[0].result.count.to_bits());
            }
        }
    }

    #[test]
    fn full_space_top_level_rollup_hits_the_lattice() {
        let (views, lattice) = snapshot();
        let schema = paper_example::schema();
        let top = schema.dim(0).levels();
        let (_, st) = plan(&views, Some(&lattice), &schema, 0, top, None, PlanMode::Lattice);
        assert_eq!(st.cuboid_hits, 1);
        assert_eq!(st.cuboid_misses, 0);
        assert!(st.scan.pages_read >= 1);
    }

    #[test]
    fn planned_rollup_matches_the_leaf_scan_rollup_within_tolerance() {
        let (views, lattice) = snapshot();
        let schema = paper_example::schema();
        for dim in 0..2 {
            for level in 1..=schema.dim(dim).levels() {
                let (rows, _) =
                    plan(&views, Some(&lattice), &schema, dim, level, None, PlanMode::Lattice);
                let (leaf, _) = plan(&views, None, &schema, dim, level, None, PlanMode::Lattice);
                assert_eq!(rows.len(), leaf.len());
                for (a, b) in rows.iter().zip(&leaf) {
                    assert_eq!(a.node, b.node);
                    assert!(
                        (a.result.sum - b.result.sum).abs() < 1e-9,
                        "{}: {} vs {}",
                        a.name,
                        a.result.sum,
                        b.result.sum
                    );
                }
            }
        }
    }

    #[test]
    fn planned_rollup_bitwise_matches_forced_leaf() {
        let (views, lattice) = snapshot();
        let schema = paper_example::schema();
        let dice = QueryBuilder::new(schema.clone()).at("Location", "East").build().unwrap().region;
        for dim in 0..2 {
            for level in 1..=schema.dim(dim).levels() {
                for q in [None, Some(&dice)] {
                    let (a, _) =
                        plan(&views, Some(&lattice), &schema, dim, level, q, PlanMode::Lattice);
                    let (b, _) =
                        plan(&views, Some(&lattice), &schema, dim, level, q, PlanMode::ForcedLeaf);
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.result.sum.to_bits(), y.result.sum.to_bits());
                        assert_eq!(x.result.count.to_bits(), y.result.count.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn no_lattice_baseline_is_one_leaf_scan_per_view() {
        let (views, _) = snapshot();
        let schema = paper_example::schema();
        let top = schema.dim(0).levels();
        let (rows, st) = plan(&views, None, &schema, 0, top, None, PlanMode::Lattice);
        assert_eq!(st.cuboid_hits, 0);
        assert_eq!(st.cuboid_misses, views.len() as u64);
        // Identical to the region aggregate: the same single pass.
        let (sum, count, _) =
            accumulate_region(&views, &SegmentCursor::all_region(schema.k())).unwrap();
        assert_eq!(rows[0].result.sum.to_bits(), sum.to_bits());
        assert_eq!(rows[0].result.count.to_bits(), count.to_bits());
    }
}
