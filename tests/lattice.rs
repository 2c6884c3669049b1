//! Property tests for the materialized rollup lattice (DESIGN.md §2.18):
//! a lattice-planned answer is **f64-bit-identical** to the same plan
//! executed with forced leaf scans, across random hierarchies, regions
//! and rollup levels — cold, after `/update` batches (dirty cuboid cells
//! recomputed), and after a compaction (cuboids rebuilt against the
//! re-encoded segment). The forced-leaf mode replays
//! the exact piece decomposition with fresh per-grain-cell scans, so any
//! bit divergence pinpoints a stale or mis-merged cuboid cell.

use iolap::core::maintain::EdbMutation;
use iolap::core::{allocate, Algorithm, AllocConfig, LatticeConfig, MaintainableEdb, PolicySpec};
use iolap::datagen::{scaled, DatasetKind};
use iolap::hierarchy::{Hierarchy, HierarchyBuilder};
use iolap::model::{Fact, FactTable, RegionBox, Schema, MAX_DIMS};
use iolap::query::{plan_rollup_views, AggFn, PlanMode, PlanStats};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random 2-level hierarchy (plus ALL) with ≤ 12 leaves.
fn arb_hierarchy(tag: &'static str) -> impl Strategy<Value = Hierarchy> {
    (2u32..=12, 1u32..=4, any::<u64>()).prop_map(move |(leaves, groups, seed)| {
        let groups = groups.min(leaves);
        let parents: Vec<u32> = (0..leaves)
            .map(|i| if i < groups { i } else { ((seed >> (i % 48)) as u32 ^ i) % groups })
            .collect();
        HierarchyBuilder::new(tag)
            .level("Leaf", leaves)
            .level("Group", groups)
            .parents(2, &parents)
            .build()
    })
}

/// Strategy: a schema plus a random fact table over it (~60% precise
/// per dimension, as in `tests/properties.rs`).
fn arb_table() -> impl Strategy<Value = FactTable> {
    (arb_hierarchy("D0"), arb_hierarchy("D1"), 4usize..40, any::<u64>()).prop_map(
        |(h0, h1, n, seed)| {
            let schema = Arc::new(Schema::new(vec![Arc::new(h0), Arc::new(h1)], "M"));
            let mut facts = Vec::with_capacity(n);
            let mut s = seed | 1;
            let mut next = move || {
                // xorshift64
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for id in 1..=n as u64 {
                let mut dims = [0u32; 2];
                for (d, slot) in dims.iter_mut().enumerate() {
                    let h = schema.dim(d);
                    let r = next();
                    *slot = if r % 10 < 6 {
                        h.leaf_node((r >> 8) as u32 % h.num_leaves()).0
                    } else {
                        (r >> 8) as u32 % h.num_nodes()
                    };
                }
                let measure = 1.0 + (next() % 100) as f64;
                facts.push(Fact::new(id, &dims, measure));
            }
            FactTable::from_facts(schema, facts)
        },
    )
}

/// A random query box over the schema's leaf grid, derived from `seed`
/// (possibly empty on a dimension — the planner must tolerate that).
fn random_region(schema: &Schema, seed: u64) -> RegionBox {
    let mut lo = [0u32; MAX_DIMS];
    let mut hi = [0u32; MAX_DIMS];
    let mut s = seed | 1;
    for d in 0..schema.k() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let n = schema.dim(d).num_leaves();
        let a = (s as u32) % (n + 1);
        let b = ((s >> 32) as u32) % (n + 1);
        lo[d] = a.min(b);
        hi[d] = a.max(b);
    }
    RegionBox { lo, hi, k: schema.k() as u8 }
}

/// Assert Lattice and ForcedLeaf modes agree bit-for-bit on the region
/// aggregate (a top-level rollup) and on rollups along both dimensions
/// (full space and diced).
fn assert_bit_identical(medb: &mut MaintainableEdb, seed: u64, phase: &str) {
    let schema = medb.schema().clone();
    let views = medb.snapshot_segments().expect("segments");
    let lattice = medb.snapshot_lattice().expect("lattice");
    let region = random_region(&schema, seed);

    // A region aggregate is the one row of a rollup at a dimension's top
    // level, diced by the region.
    for d in 0..schema.k() {
        let top = schema.dim(d).levels();
        for agg in [AggFn::Sum, AggFn::Count, AggFn::Avg] {
            let plan = |mode| {
                let dice = Some(&region);
                plan_rollup_views(&views, Some(&lattice), &schema, d, top, dice, agg, mode)
                    .expect("top-level rollup")
                    .0
            };
            let (a, b) = (plan(PlanMode::Lattice), plan(PlanMode::ForcedLeaf));
            assert_eq!((a.len(), b.len()), (1, 1), "{phase}: one row at the top level");
            let (a, b) = (a[0].result, b[0].result);
            assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{phase}: agg sum bits {agg:?} dim {d}");
            assert_eq!(a.count.to_bits(), b.count.to_bits(), "{phase}: agg count bits {agg:?}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{phase}: agg value bits {agg:?}");
        }
    }

    for dim in 0..schema.k() {
        for level in 1..=2u8 {
            for dice in [None, Some(&region)] {
                let (ra, sa) = plan_rollup_views(
                    &views,
                    Some(&lattice),
                    &schema,
                    dim,
                    level,
                    dice,
                    AggFn::Sum,
                    PlanMode::Lattice,
                )
                .expect("lattice rollup");
                let (rb, sb) = plan_rollup_views(
                    &views,
                    Some(&lattice),
                    &schema,
                    dim,
                    level,
                    dice,
                    AggFn::Sum,
                    PlanMode::ForcedLeaf,
                )
                .expect("forced-leaf rollup");
                assert_eq!(ra.len(), rb.len(), "{phase}: rollup row count");
                for (x, y) in ra.iter().zip(rb.iter()) {
                    assert_eq!(x.node, y.node, "{phase}: rollup node order");
                    assert_eq!(
                        x.result.sum.to_bits(),
                        y.result.sum.to_bits(),
                        "{phase}: rollup sum bits dim {dim} level {level} node {}",
                        x.name
                    );
                    assert_eq!(
                        x.result.count.to_bits(),
                        y.result.count.to_bits(),
                        "{phase}: rollup count bits dim {dim} level {level} node {}",
                        x.name
                    );
                }
                // Both modes walk the same plan, so the hit/miss split
                // must match exactly.
                assert_eq!(
                    (sa.cuboid_hits, sa.cuboid_misses),
                    (sb.cuboid_hits, sb.cuboid_misses),
                    "{phase}: plan shape differs between modes"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The lattice lifecycle keeps bit-identity: cold build, incremental
    /// dirty-cell recompute after an update batch, and whole-cuboid
    /// rebuild after compaction.
    #[test]
    fn lattice_plans_are_bit_identical_to_forced_leaf_scans(
        table in arb_table(),
        qseed in any::<u64>(),
    ) {
        let has_precise = table.num_precise() > 0;
        prop_assume!(has_precise || table.num_imprecise() == 0);

        let n = table.len() as u64;
        let policy = PolicySpec::em_count(0.01);
        let cfg = AllocConfig::builder().in_memory(256).build();
        let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
        let mut medb = MaintainableEdb::build(run, policy).unwrap();
        // Materialize cuboids even for the tiny segments these tables
        // produce.
        medb.set_lattice_config(LatticeConfig { min_segment_entries: 1, ..Default::default() });

        // Cold: lattice built fresh over the base segment.
        assert_bit_identical(&mut medb, qseed, "cold");

        // After an update batch: the touched boxes queue dirty cells and
        // the next lattice snapshot recomputes exactly those.
        let batch: Vec<EdbMutation> = (1..=n.min(5))
            .map(|id| EdbMutation::UpdateMeasure {
                fact_id: id,
                new_measure: 1.0 + ((qseed.wrapping_mul(id) >> 7) % 100) as f64,
            })
            .collect();
        medb.apply_batch(&batch).unwrap();
        assert_bit_identical(&mut medb, qseed.wrapping_add(1), "post-update");

        // After compaction: tiers merge into one re-encoded segment and
        // its cuboids are rebuilt whole.
        medb.set_compaction_threshold(1);
        let batch: Vec<EdbMutation> = (1..=n.min(3))
            .map(|id| EdbMutation::UpdateMeasure {
                fact_id: id,
                new_measure: 2.0 + ((qseed.wrapping_mul(id + 7) >> 9) % 100) as f64,
            })
            .collect();
        medb.apply_batch(&batch).unwrap();
        assert_bit_identical(&mut medb, qseed.wrapping_add(2), "post-compaction");
        prop_assert!(medb.num_compactions() > 0, "threshold 1 must have compacted");
    }
}

/// What the lattice buys, as exact counts: for each dimension, the
/// full-space rollup at its coarsest named level reads at least 10× fewer
/// pages *and* bytes when the cuboids answer the core than when the same
/// plan is forced down to leaf scans — cold, after an update batch, and
/// after a compaction. The counts are pinned, not bounded with slack: a
/// lattice that stops covering a coarse core, a grain selection that
/// changes, or a page format that moves a byte shows up as a number.
/// Re-record only with a change that is meant to move them, and say so.
#[test]
fn coarse_rollups_read_ten_times_less_through_the_lattice() {
    /// Per phase, (pages, bytes) read over one rollup per dimension: in
    /// `Lattice` mode, in `ForcedLeaf` mode (one fresh scan per grain
    /// cell), and as one plain leaf scan without a lattice. The last is
    /// pinned but not held to 10× in pages: the base segment has 14, so
    /// one mini-segment page per view is already a seventh of a plain
    /// scan.
    type Read = (u64, u64);
    const PINNED: [(&str, [Read; 3]); 3] = [
        ("cold", [(4, 1299), (438, 1_727_560), (56, 220_808)]),
        ("post-update", [(8, 2389), (468, 1_744_360), (60, 223_048)]),
        ("post-compaction", [(8, 5599), (442, 1_731_860), (60, 225_108)]),
    ];
    let table = scaled(DatasetKind::Automotive, 5_000, 42);
    let schema = table.schema().clone();
    let policy = PolicySpec::em_count(0.01);
    let cfg = AllocConfig::builder().in_memory(2048).build();
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let mut medb = MaintainableEdb::build(run, policy).unwrap();
    // A serving-tier budget: enough cuboids that every dimension's coarse
    // rollup finds a usable grain.
    medb.set_lattice_config(LatticeConfig {
        budget_bytes: 8 << 20,
        min_segment_entries: 1,
        max_cuboids: 16,
    });
    let batch = |salt: u64| -> Vec<EdbMutation> {
        (0..50u64)
            .map(|i| EdbMutation::UpdateMeasure {
                fact_id: table.facts()[((i * 2_654_435_761 + salt) % 5_000) as usize].id,
                new_measure: 500.0 + i as f64,
            })
            .collect()
    };

    let mut got = Vec::new();
    for (phase, _) in PINNED {
        match phase {
            "post-update" => {
                medb.apply_batch(&batch(0x9e37)).unwrap();
            }
            "post-compaction" => {
                medb.set_compaction_threshold(1);
                medb.apply_batch(&batch(0x85eb)).unwrap();
            }
            _ => {}
        }
        let views = medb.snapshot_segments().unwrap();
        let lattice = medb.snapshot_lattice().unwrap();
        let plans = [
            (Some(&*lattice), PlanMode::Lattice),
            (Some(&*lattice), PlanMode::ForcedLeaf),
            (None, PlanMode::Lattice),
        ];
        let read = plans.map(|(lattice, mode)| {
            let mut total = PlanStats::default();
            for dim in 0..schema.k() {
                let level = (schema.dim(dim).levels() - 1).max(1);
                let (_, stats) =
                    plan_rollup_views(&views, lattice, &schema, dim, level, None, AggFn::Sum, mode)
                        .unwrap();
                total.absorb(stats);
            }
            (total.scan.pages_read, total.scan.bytes_read)
        });
        let [lat, forced, plain] = read;
        assert!(
            lat.0 * 10 <= forced.0 && lat.1 * 10 <= forced.1 && lat.1 * 10 <= plain.1,
            "{phase}: lattice {lat:?} vs forced leaf {forced:?}, plain {plain:?} (pages, bytes)"
        );
        got.push((phase, read));
    }
    assert!(medb.num_compactions() > 0, "threshold 1 must have compacted");
    assert_eq!(got, PINNED, "a coarse rollup's page or byte count moved");
}
