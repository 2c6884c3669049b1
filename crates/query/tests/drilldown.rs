//! `drilldown` is a rollup at the child level, diced by the parent's box
//! (Kuijpers–Vaisman's drill-down as a restricted roll-up). Checked at
//! every non-leaf node of every dimension, on the paper's Table 1 and on
//! a generated 2 000-fact Automotive table:
//!
//! 1. the rows are exactly the parent's children, in DFS order;
//! 2. their bits equal `plan_rollup_views` without a lattice at the child
//!    level, diced by the parent's box;
//! 3. the children's sums and counts add up to the parent's `rollup` row.

use iolap_core::{allocate, Algorithm, AllocConfig, ExtendedDatabase, PolicySpec, SegmentCursor};
use iolap_datagen::{scaled, DatasetKind};
use iolap_hierarchy::NodeId;
use iolap_model::{paper_example, FactTable, Schema};
use iolap_query::{drilldown, plan_rollup_views, rollup, AggFn, PlanMode};

fn allocated(table: &FactTable) -> ExtendedDatabase {
    let cfg = AllocConfig::builder().in_memory(2048).build();
    allocate(table, &PolicySpec::em_count(0.05), Algorithm::Transitive, &cfg)
        .expect("allocation")
        .edb
}

/// Within 1e-9 of the parent, relative to its magnitude: the children
/// are summed in a different order than the parent's own accumulator.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// Run the three checks at every non-leaf node; returns how many
/// parents were checked.
fn check_every_parent(edb: &ExtendedDatabase, schema: &Schema) -> usize {
    let views = edb.segments().expect("segments");
    let mut checked = 0;
    for dim in 0..schema.k() {
        let h = schema.dim(dim);
        for parent_level in 2..=h.levels() {
            let child_level = parent_level - 1;
            let parents = rollup(edb, schema, dim, parent_level, None, AggFn::Sum).unwrap();
            for prow in &parents {
                let parent = prow.node;
                let kids = drilldown(edb, schema, dim, parent, AggFn::Sum).unwrap();

                let want: Vec<NodeId> = h
                    .nodes_at_level(child_level)
                    .iter()
                    .copied()
                    .filter(|&n| h.ancestor_of(n, parent_level) == parent)
                    .collect();
                let got: Vec<NodeId> = kids.iter().map(|r| r.node).collect();
                assert_eq!(got, want, "dim {dim}: children of {}", prow.name);

                let range = h.leaf_range(parent);
                let mut dice = SegmentCursor::all_region(schema.k());
                dice.lo[dim] = range.start;
                dice.hi[dim] = range.end;
                let (planned, _) = plan_rollup_views(
                    &views,
                    None,
                    schema,
                    dim,
                    child_level,
                    Some(&dice),
                    AggFn::Sum,
                    PlanMode::Lattice,
                )
                .unwrap();
                let planned: Vec<_> =
                    planned.into_iter().filter(|r| h.contains(parent, r.node)).collect();
                assert_eq!(planned.len(), kids.len(), "dim {dim}: {}", prow.name);
                for (k, p) in kids.iter().zip(&planned) {
                    assert_eq!(k.node, p.node);
                    assert_eq!(k.result.sum.to_bits(), p.result.sum.to_bits(), "{}", k.name);
                    assert_eq!(k.result.count.to_bits(), p.result.count.to_bits(), "{}", k.name);
                }

                let sum: f64 = kids.iter().map(|r| r.result.sum).sum();
                let count: f64 = kids.iter().map(|r| r.result.count).sum();
                assert!(
                    close(sum, prow.result.sum),
                    "dim {dim}: children of {} sum to {sum}, parent {}",
                    prow.name,
                    prow.result.sum
                );
                assert!(
                    close(count, prow.result.count),
                    "dim {dim}: children of {} count {count}, parent {}",
                    prow.name,
                    prow.result.count
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn drilldown_on_the_paper_example_is_a_diced_child_rollup() {
    let table = paper_example::table1();
    let edb = allocated(&table);
    // Location: 4 states, 2 regions, ALL; Automobile likewise.
    assert_eq!(check_every_parent(&edb, &paper_example::schema()), 6);
}

#[test]
fn drilldown_on_generated_automotive_data_is_a_diced_child_rollup() {
    let table = scaled(DatasetKind::Automotive, 2_000, 3);
    let edb = allocated(&table);
    assert!(check_every_parent(&edb, table.schema()) > 0);
}
