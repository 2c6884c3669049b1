//! The epoch-swapped read snapshot.
//!
//! Request workers never touch the mutable [`iolap_core::MaintainableEdb`]
//! — they clone an `Arc<EdbSnapshot>` and aggregate over its immutable
//! segment views. The coordinator thread refreshes the views after each
//! `/update` batch (via `MaintainableEdb::snapshot_segments`, which folds
//! only the runs the batch re-emitted into a new delta tier and reuses
//! unchanged segments by `Arc` identity) and publishes a new snapshot
//! atomically, so readers never block on writers, writers never wait for
//! readers, and publishing costs O(segments) rather than O(entries).
//!
//! The aggregation here **is** the library's: `/query` runs the same
//! [`iolap_core::accumulate_region`] + [`AggResult::from_parts`] loop as
//! `iolap_query::aggregate_edb`, so a server answer is bit-identical to
//! querying the materialized EDB directly when the views hold the same
//! entries (`tests/serve_consistency.rs` asserts the f64 bits). Fence
//! pruning skips only pages provably disjoint from the query box, so it
//! never perturbs those bits. `/rollup` runs the library's one rollup
//! evaluator, `plan_rollup_views`, with the published lattice.

use iolap_core::{accumulate_region, CuboidLattice, SegScanStats, SegmentView};
use iolap_hierarchy::LevelNo;
use iolap_model::{FactTable, RegionBox, Schema, MAX_DIMS};
use iolap_query::{plan_rollup_views, AggFn, AggResult, PlanMode, PlanStats, RollupRow};
use std::sync::Arc;

/// One immutable published view of the maintained EDB.
pub struct EdbSnapshot {
    /// Monotone version: 0 at startup, +1 per applied `/update` batch.
    pub epoch: u64,
    /// The dataset schema (shared across all epochs).
    pub schema: Arc<Schema>,
    /// Always empty: the server keeps no fact table and reads this field
    /// nowhere. Every snapshot shares one empty table made at boot; the
    /// field goes when the pinned snapshot shape next changes.
    pub table: Arc<FactTable>,
    /// The EDB as immutable segment views (base + deltas). Each view is
    /// two `Arc`s, so cloning a snapshot's worth is O(segments); segments
    /// untouched by an update batch are shared with the previous epoch.
    pub segments: Vec<SegmentView>,
    /// The materialized cuboid lattice over `segments`, synced by the
    /// coordinator through the same epoch swap (`None` degrades `/rollup`
    /// to plain leaf scans — never to wrong answers).
    pub lattice: Option<Arc<CuboidLattice>>,
}

impl EdbSnapshot {
    /// Allocation-weighted aggregate over the snapshot's segments, with
    /// fence pruning. A corrupt compressed page surfaces as the storage
    /// error it is, never a short answer.
    pub fn aggregate(&self, region: &RegionBox, agg: AggFn) -> iolap_core::Result<AggResult> {
        Ok(self.aggregate_with_stats(region, agg)?.0)
    }

    /// [`EdbSnapshot::aggregate`] plus the scan's page/byte counters
    /// (pages read vs pruned, compressed bytes), for the server's metrics.
    pub fn aggregate_with_stats(
        &self,
        region: &RegionBox,
        agg: AggFn,
    ) -> iolap_core::Result<(AggResult, SegScanStats)> {
        let (sum, count, stats) = accumulate_region(&self.segments, region)?;
        Ok((AggResult::from_parts(agg, sum, count), stats))
    }

    /// Roll up along `dim` at `level` within an optional dice region,
    /// planned over the snapshot's cuboid lattice: the coarsest usable
    /// cuboid answers the grain-aligned core of the region and only the
    /// partial-overlap residue is leaf-scanned — f64-bit-identical to the
    /// plain one-scan accumulation by the planner's construction. Returns
    /// the rows plus the plan's page counters and cuboid hit/miss tallies.
    pub fn rollup(
        &self,
        dim: usize,
        level: LevelNo,
        region: Option<&RegionBox>,
        agg: AggFn,
    ) -> iolap_core::Result<(Vec<RollupRow>, PlanStats)> {
        plan_rollup_views(
            &self.segments,
            self.lattice.as_deref(),
            &self.schema,
            dim,
            level,
            region,
            agg,
            PlanMode::Lattice,
        )
    }
}

/// Resolve `(dimension name, node name)` pairs into a query region;
/// unlisted dimensions default to `ALL`. Unlike `QueryBuilder::at` (which
/// is lenient for exploratory use), unknown node names are errors here —
/// a typo over HTTP must surface as a 400, not silently mean `ALL`.
pub fn resolve_region(schema: &Schema, at: &[(String, String)]) -> Result<RegionBox, String> {
    let k = schema.k();
    let mut lo = [0u32; MAX_DIMS];
    let mut hi = [0u32; MAX_DIMS];
    for d in 0..k {
        let r = schema.dim(d).leaf_range(schema.dim(d).all());
        lo[d] = r.start;
        hi[d] = r.end;
    }
    for (dim_name, node_name) in at {
        let d = (0..k)
            .find(|&d| schema.dim(d).name() == dim_name)
            .ok_or_else(|| format!("unknown dimension {dim_name:?}"))?;
        let h = schema.dim(d);
        let node = h
            .resolve_name(node_name)
            .ok_or_else(|| format!("unknown node {node_name:?} in dimension {dim_name:?}"))?;
        let r = h.leaf_range(node);
        lo[d] = r.start;
        hi[d] = r.end;
    }
    Ok(RegionBox { lo, hi, k: k as u8 })
}

/// Resolve a `(dimension name, level name)` pair for `/rollup`.
pub fn resolve_level(schema: &Schema, dim: &str, level: &str) -> Result<(usize, LevelNo), String> {
    let d = (0..schema.k())
        .find(|&d| schema.dim(d).name() == dim)
        .ok_or_else(|| format!("unknown dimension {dim:?}"))?;
    let h = schema.dim(d);
    let l = (1..=h.levels())
        .find(|&l| h.level_name(l) == level)
        .ok_or_else(|| format!("unknown level {level:?} in dimension {dim:?}"))?;
    Ok((d, l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_model::paper_example;

    #[test]
    fn resolve_region_defaults_and_errors() {
        let s = paper_example::schema();
        let all = resolve_region(&s, &[]).unwrap();
        assert_eq!(all.num_cells(), 16);
        let ma = resolve_region(&s, &[("Location".into(), "MA".into())]).unwrap();
        assert_eq!(ma.num_cells(), 4);
        assert!(resolve_region(&s, &[("Nope".into(), "MA".into())]).is_err());
        assert!(resolve_region(&s, &[("Location".into(), "Atlantis".into())]).is_err());
    }

    #[test]
    fn resolve_level_names() {
        let s = paper_example::schema();
        assert_eq!(resolve_level(&s, "Location", "Region").unwrap(), (0, 2));
        assert_eq!(resolve_level(&s, "Automobile", "Category").unwrap(), (1, 2));
        assert!(resolve_level(&s, "Location", "Continent").is_err());
        assert!(resolve_level(&s, "Time", "Region").is_err());
    }
}
