//! Roll-ups: one aggregate per node of a hierarchy level — the OLAP
//! operation the Extended Database exists to serve.
//!
//! A roll-up along dimension `d` at level `l` returns, for every node at
//! that level, the allocation-weighted aggregate of all EDB entries whose
//! completing cell falls under the node — optionally restricted by an
//! outer query region (a "dice"). Because every fact's weights sum to 1,
//! roll-ups are *additive*: children sum exactly to their parent, level by
//! level, all the way to `ALL` — the consistency property that classical
//! `Overlaps` double-counting breaks.

use crate::agg::{AggFn, AggResult};
use crate::builder::Query;
use iolap_core::ExtendedDatabase;
use iolap_hierarchy::{LevelNo, NodeId};
use iolap_model::Schema;

/// One row of a roll-up result.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupRow {
    /// The hierarchy node this row aggregates.
    pub node: NodeId,
    /// Its display name.
    pub name: String,
    /// The aggregate.
    pub result: AggResult,
}

/// Roll the EDB up along dimension `dim` at hierarchy level `level`,
/// within the (optional) region of `query`; `agg` picks the aggregate.
///
/// Runs in one scan of the EDB: each entry is attributed to its ancestor
/// node via the O(1) leaf→ancestor table.
pub fn rollup(
    edb: &ExtendedDatabase,
    schema: &Schema,
    dim: usize,
    level: LevelNo,
    query: Option<&Query>,
    agg: AggFn,
) -> iolap_core::Result<Vec<RollupRow>> {
    rollup_impl(edb, schema, dim, level, query, agg, None)
}

#[allow(clippy::too_many_arguments)]
fn rollup_impl(
    edb: &ExtendedDatabase,
    schema: &Schema,
    dim: usize,
    level: LevelNo,
    query: Option<&Query>,
    agg: AggFn,
    restrict: Option<(usize, std::ops::Range<u32>)>,
) -> iolap_core::Result<Vec<RollupRow>> {
    let h = schema.dim(dim);
    let nodes = h.nodes_at_level(level);
    // Dense accumulator indexed by the node's position at its level.
    let mut pos_of = std::collections::HashMap::with_capacity(nodes.len());
    for (i, &n) in nodes.iter().enumerate() {
        pos_of.insert(n, i);
    }
    let mut sums = vec![0.0f64; nodes.len()];
    let mut counts = vec![0.0f64; nodes.len()];

    // Fold the dice region and the drill-down restriction into one box so
    // the segment cursor can fence-prune against their intersection.
    let mut region =
        query.map_or_else(|| iolap_core::SegmentCursor::all_region(schema.k()), |q| q.region);
    if let Some((rd, range)) = &restrict {
        region.lo[*rd] = region.lo[*rd].max(range.start);
        region.hi[*rd] = region.hi[*rd].min(range.end);
    }
    let views = edb.segments()?;
    let mut cursor = iolap_core::SegmentCursor::new(&views, region);
    cursor.for_each(|e| {
        let anc = h.ancestor_at(e.cell[dim], level);
        let i = pos_of[&anc];
        sums[i] += e.weight * e.measure;
        counts[i] += e.weight;
    })?;
    let stats = cursor.stats();
    edb.note_segment_scan(stats);

    Ok(nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| RollupRow {
            node,
            name: h.node_name(node),
            result: AggResult::from_parts(agg, sums[i], counts[i]),
        })
        .collect())
}

/// Drill down one step: aggregate each *child* of `parent` (a node at
/// level ≥ 2 of dimension `dim`), restricted to `parent`'s own region —
/// the interactive OLAP navigation the EDB enables.
pub fn drilldown(
    edb: &ExtendedDatabase,
    schema: &Schema,
    dim: usize,
    parent: NodeId,
    agg: AggFn,
) -> iolap_core::Result<Vec<RollupRow>> {
    let h = schema.dim(dim);
    let parent_level = h.level_of(parent);
    assert!(parent_level >= 2, "leaves have no children");
    let child_level = parent_level - 1;
    let range = h.leaf_range(parent);
    let rows = rollup_impl(edb, schema, dim, child_level, None, agg, Some((dim, range)))?;
    Ok(rows.into_iter().filter(|r| h.contains(parent, r.node)).collect())
}

/// Render a roll-up as an aligned text table (for examples and CLIs).
pub fn render_rollup(title: &str, rows: &[RollupRow]) -> String {
    let mut out = format!("{title}\n");
    let w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    for r in rows {
        out.push_str(&format!(
            "  {:<w$}  value {:>12.2}  (sum {:>12.2}, count {:>10.2})\n",
            r.name, r.result.value, r.result.sum, r.result.count,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use iolap_core::{allocate, Algorithm, AllocConfig, PolicySpec};
    use iolap_model::paper_example;

    fn edb() -> ExtendedDatabase {
        let t = paper_example::table1();
        allocate(
            &t,
            &PolicySpec::em_count(0.001),
            Algorithm::Transitive,
            &AllocConfig::builder().in_memory(256).build(),
        )
        .unwrap()
        .edb
    }

    #[test]
    fn rollup_is_additive_up_the_hierarchy() {
        let edb = edb();
        let schema = paper_example::schema();
        // Sales per state, per region, and overall — each level must sum
        // to the next.
        let states = rollup(&edb, &schema, 0, 1, None, AggFn::Sum).unwrap();
        let regions = rollup(&edb, &schema, 0, 2, None, AggFn::Sum).unwrap();
        let all = rollup(&edb, &schema, 0, 3, None, AggFn::Sum).unwrap();
        let state_total: f64 = states.iter().map(|r| r.result.sum).sum();
        let region_total: f64 = regions.iter().map(|r| r.result.sum).sum();
        assert!((state_total - region_total).abs() < 1e-9);
        assert!((region_total - all[0].result.sum).abs() < 1e-9);
        // East = MA + NY.
        let east = regions.iter().find(|r| r.name == "East").unwrap();
        let ma = states.iter().find(|r| r.name == "MA").unwrap();
        let ny = states.iter().find(|r| r.name == "NY").unwrap();
        assert!((east.result.sum - ma.result.sum - ny.result.sum).abs() < 1e-9);
    }

    #[test]
    fn total_equals_table_total() {
        let edb = edb();
        let schema = paper_example::schema();
        let all = rollup(&edb, &schema, 1, 3, None, AggFn::Sum).unwrap();
        let want: f64 = paper_example::table1().facts().iter().map(|f| f.measure).sum();
        assert!((all[0].result.sum - want).abs() < 1e-6);
        assert!((all[0].result.count - 14.0).abs() < 1e-9);
    }

    #[test]
    fn diced_rollup_restricts_to_the_region() {
        let edb = edb();
        let schema = paper_example::schema();
        let q = QueryBuilder::new(schema.clone()).at("Location", "West").build().unwrap();
        let by_cat = rollup(&edb, &schema, 1, 2, Some(&q), AggFn::Count).unwrap();
        let total: f64 = by_cat.iter().map(|r| r.result.count).sum();
        // Must match the plain aggregate over the same region.
        let direct = crate::agg::aggregate_edb(
            &edb,
            &QueryBuilder::new(schema.clone())
                .at("Location", "West")
                .agg(AggFn::Count)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert!((total - direct.count).abs() < 1e-9);
    }

    #[test]
    fn drilldown_children_sum_to_parent() {
        let edb = edb();
        let schema = paper_example::schema();
        let regions = rollup(&edb, &schema, 0, 2, None, AggFn::Sum).unwrap();
        for region in &regions {
            let kids = drilldown(&edb, &schema, 0, region.node, AggFn::Sum).unwrap();
            assert_eq!(kids.len(), 2, "each region has two states");
            let s: f64 = kids.iter().map(|r| r.result.sum).sum();
            assert!(
                (s - region.result.sum).abs() < 1e-9,
                "{}: children {s} vs parent {}",
                region.name,
                region.result.sum
            );
        }
    }

    #[test]
    fn render_contains_names() {
        let edb = edb();
        let schema = paper_example::schema();
        let rows = rollup(&edb, &schema, 0, 2, None, AggFn::Sum).unwrap();
        let s = render_rollup("by region", &rows);
        assert!(s.contains("East") && s.contains("West"), "{s}");
    }
}
