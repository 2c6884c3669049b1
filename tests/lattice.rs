//! Property tests for the materialized rollup lattice (DESIGN.md §2.18):
//! a lattice-planned answer is **f64-bit-identical** to the same plan
//! executed with forced leaf scans, across random hierarchies, regions
//! and rollup levels — cold, after `/update` batches (the cuboids of every
//! view whose exclusion set grew rebuilt), and after a compaction (cuboids
//! built for the re-encoded segment). The forced-leaf mode replays
//! the exact piece decomposition with fresh per-grain-cell scans, so any
//! bit divergence pinpoints a stale or mis-merged cuboid cell. A second
//! oracle (P6) holds the maintained lattice itself to a fresh build after
//! every batch of a seeded update/insert/delete history, and the upkeep
//! is pinned at one scan per segment view per sync.

use iolap::core::maintain::EdbMutation;
use iolap::core::{
    allocate, Algorithm, AllocConfig, Cuboid, CuboidLattice, LatticeConfig, MaintainableEdb,
    PolicySpec, SegmentView,
};
use iolap::datagen::{scaled, DatasetKind};
use iolap::hierarchy::{Hierarchy, HierarchyBuilder};
use iolap::model::{Fact, FactTable, RegionBox, Schema, MAX_DIMS};
use iolap::obs::Obs;
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

    /// The lattice lifecycle keeps bit-identity: cold build, the rebuild of
    /// the views an update batch changed, and the build for the merged
    /// segment after compaction.
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

        // After an update batch: the next lattice snapshot rebuilds the
        // cuboids of every view whose exclusion set grew.
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
    /// pinned but held to 10× in bytes only: the base segment has 14
    /// pages, so a single residue or uncovered-view page would already be
    /// a seventh of a plain scan. A covered core reads no page: the
    /// cuboid's slots are read directly, so the `Lattice` column counts
    /// only the leaf pages of views whose rollup no cuboid covers.
    type Read = (u64, u64);
    const PINNED: [(&str, [Read; 3]); 3] = [
        ("cold", [(0, 0), (438, 1_727_560), (56, 220_808)]),
        ("post-update", [(1, 560), (468, 1_744_360), (60, 223_048)]),
        ("post-compaction", [(0, 0), (495, 1_788_835), (60, 225_108)]),
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

/// xorshift64: the seeded histories' only source of randomness.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// P6: the maintained lattice equals a fresh build of the current views —
/// the same segments carry a lattice, with the same grains, and every
/// cuboid has the present cells (`lo`, `hi`) and `sum` / `count` bits
/// `Cuboid::build` produces over the same view.
fn assert_lattice_is_fresh(
    medb: &mut MaintainableEdb,
    cfg: LatticeConfig,
    phase: &str,
) -> Result<(), TestCaseError> {
    let schema = medb.schema().clone();
    let lattice = medb.snapshot_lattice().unwrap();
    let views = medb.snapshot_segments().unwrap();
    let mut fresh = CuboidLattice::new(schema.k(), cfg);
    fresh.sync(&schema, &views).unwrap();
    prop_assert_eq!(lattice.segs().len(), fresh.segs().len(), "{}: lattice count", phase);
    for (v, view) in views.iter().enumerate() {
        let (got, want) = (lattice.for_view(view), fresh.for_view(view));
        prop_assert_eq!(got.is_some(), want.is_some(), "{}: view {} has a lattice", phase, v);
        let (Some(got), Some(want)) = (got, want) else { continue };
        let grains = |sl: &iolap::core::SegLattice| -> Vec<_> {
            sl.cuboids.iter().map(|c| c.grain).collect()
        };
        prop_assert_eq!(grains(got), grains(want), "{}: view {} grains", phase, v);
        for cuboid in &got.cuboids {
            let built = Cuboid::build(&schema, view, cuboid.grain).unwrap();
            let cells = |c: &Cuboid| -> Vec<_> {
                c.cells(&schema).map(|c| (c.lo, c.hi, c.sum.to_bits(), c.count.to_bits())).collect()
            };
            prop_assert_eq!(
                cells(cuboid),
                cells(&built),
                "{}: view {} grain {:?} cells",
                phase,
                v,
                cuboid.grain
            );
        }
    }
    Ok(())
}

proptest! {
    /// P6: seeded histories of measure updates, inserts and deletes keep
    /// the maintained lattice equal to a fresh build after every batch,
    /// with compaction after every tier (threshold 1) and after four. The
    /// compactions run either as the server runs them, between batches,
    /// or inline inside `snapshot_segments`; either way two snapshots in a
    /// row must see the same views.
    #[test]
    fn maintained_lattice_equals_a_fresh_build_after_every_batch(
        table in arb_table(),
        seed in any::<u64>(),
        threshold in prop_oneof![Just(1usize), Just(4usize)],
        inline in any::<bool>(),
    ) {
        let schema = table.schema().clone();
        let mut live: Vec<u64> = table.facts().iter().map(|f| f.id).collect();
        let mut next_id = live.iter().max().copied().unwrap_or(0) + 1;
        let policy = PolicySpec::em_count(0.01);
        let cfg = AllocConfig::builder().in_memory(256).build();
        let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
        let mut medb = MaintainableEdb::build(run, policy).unwrap();
        let lattice_cfg =
            LatticeConfig { min_segment_entries: 1, max_cuboids: 8, ..Default::default() };
        medb.set_lattice_config(lattice_cfg);
        medb.set_compaction_threshold(threshold);
        medb.set_background_compaction(!inline);
        assert_lattice_is_fresh(&mut medb, lattice_cfg, "cold")?;

        let mut s = seed | 1;
        for b in 0..6 {
            let mut batch = Vec::new();
            for _ in 0..1 + xorshift(&mut s) % 4 {
                let r = xorshift(&mut s);
                let pick = (r >> 8) as usize % live.len();
                let m = match r % 3 {
                    0 => EdbMutation::UpdateMeasure {
                        fact_id: live[pick],
                        new_measure: 1.0 + (r >> 20) as f64 % 100.0,
                    },
                    1 if live.len() > 1 => EdbMutation::Delete(live.swap_remove(pick)),
                    _ => {
                        let dims: Vec<u32> = (0..schema.k())
                            .map(|d| {
                                let (h, r) = (schema.dim(d), xorshift(&mut s));
                                if r % 10 < 6 {
                                    h.leaf_node((r >> 8) as u32 % h.num_leaves()).0
                                } else {
                                    (r >> 8) as u32 % h.num_nodes()
                                }
                            })
                            .collect();
                        live.push(next_id);
                        next_id += 1;
                        EdbMutation::Insert(Fact::new(next_id - 1, &dims, 1.0 + (r % 50) as f64))
                    }
                };
                batch.push(m);
            }
            medb.apply_batch(&batch).unwrap();
            if !inline {
                if let Some(plan) = medb.prepare_compaction().unwrap() {
                    prop_assert!(medb.install_compaction(plan.run().unwrap()).unwrap());
                }
            }
            assert_lattice_is_fresh(&mut medb, lattice_cfg, &format!("batch {b}"))?;
        }
    }
}

/// Lattice upkeep is one scan per changed segment view and is counted:
/// each `CuboidLattice::sync` reads exactly the pages of the views no
/// lattice matched before it (segment and exclusion set) — all of them,
/// once, for a cold build — however many cuboids it builds, and leaves
/// every view matched. `snapshot_lattice` reports the same sync as
/// `edb.cuboid_upkeep_pages`.
#[test]
fn each_sync_scans_a_view_once_and_counts_its_upkeep() {
    let table = scaled(DatasetKind::Automotive, 5_000, 42);
    let schema = table.schema().clone();
    let policy = PolicySpec::em_count(0.01);
    let obs = Obs::metrics_only();
    let cfg = AllocConfig::builder().in_memory(2048).obs(obs.clone()).build();
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let mut medb = MaintainableEdb::build(run, policy).unwrap();
    let lattice_cfg =
        LatticeConfig { budget_bytes: 8 << 20, min_segment_entries: 1, max_cuboids: 16 };
    medb.set_lattice_config(lattice_cfg);
    let counter = |name: &str| obs.counter(name).unwrap().get();
    // A lattice matches a view when it holds the view's segment and was
    // computed against an equal exclusion set; checked here on the
    // lattice's own fields, not through `for_view`.
    let matched = |lattice: &CuboidLattice, v: &SegmentView| {
        lattice.segs().iter().any(|sl| Arc::ptr_eq(&sl.seg, &v.segment) && *sl.excl == *v.exclude)
    };

    // The mirror runs the syncs `snapshot_lattice` runs, on the same views,
    // so the scan costs it returns are what the counter saw.
    let mut mirror = CuboidLattice::new(schema.k(), lattice_cfg);
    let views = medb.snapshot_segments().unwrap();
    let cold = mirror.sync(&schema, &views).unwrap();
    medb.snapshot_lattice().unwrap();
    let pages: u64 = views.iter().map(|v| v.segment.num_pages()).sum();
    assert!(
        mirror.num_cuboids() > 1 && pages > 1,
        "{} cuboids, {pages} pages",
        mirror.num_cuboids()
    );
    assert_eq!(cold.pages_read, pages, "a cold build reads every page once");
    assert_eq!(counter("edb.cuboid_upkeep_pages"), pages);
    assert!(views.iter().all(|v| matched(&mirror, v)), "every view matches after a cold build");

    let batch: Vec<EdbMutation> = (0..50u64)
        .map(|i| EdbMutation::UpdateMeasure {
            fact_id: table.facts()[((i * 2_654_435_761) % 5_000) as usize].id,
            new_measure: 500.0 + i as f64,
        })
        .collect();
    medb.apply_batch(&batch).unwrap();
    let views = medb.snapshot_segments().unwrap();
    // The base tier's exclusion set grew and the fold added a delta tier:
    // neither matches the lattice before the sync.
    let unmatched: Vec<&SegmentView> = views.iter().filter(|v| !matched(&mirror, v)).collect();
    assert_eq!(unmatched.len(), 2, "the base tier and the new delta tier of {} views", views.len());
    let expected: u64 = unmatched.iter().map(|v| v.segment.num_pages()).sum();
    let warm = mirror.sync(&schema, &views).unwrap();
    medb.snapshot_lattice().unwrap();
    assert_eq!(
        warm.pages_read, expected,
        "a sync reads exactly the pages of the views no lattice matched"
    );
    // `min_segment_entries` is 1, so every view is eligible for a lattice.
    assert!(views.iter().all(|v| matched(&mirror, v)), "every view matches after the sync");
    assert_eq!(counter("edb.cuboid_upkeep_pages"), pages + expected);
}
