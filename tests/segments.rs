//! The segment layer's contracts, end to end:
//!
//! 1. **Pruning is invisible** (proptest): over random fact tables and
//!    random query boxes, SUM/COUNT/AVG computed through the fence-pruned
//!    cursor are bit-identical to a naive scan of every entry in every
//!    segment page — pruning may only skip pages provably disjoint from
//!    the box, so the visited entry sequence (and every f64) is unchanged.
//! 2. **Compaction is a rewrite, not an edit** — base + k delta segments
//!    compacted back into few tiers hold exactly the same live entry
//!    multiset as `snapshot_entries`, and its accounted page I/O is exact:
//!    the same mutation sequence charges the same meter reading, run to
//!    run.

use iolap::core::maintain::{EdbMutation, MaintainableEdb};
use iolap::core::{
    accumulate_region, allocate, Algorithm, AllocConfig, CoreError, PolicySpec, SegmentCursor,
    SegmentLayout, SegmentView,
};
use iolap::datagen::{scaled, DatasetKind};
use iolap::hierarchy::{Hierarchy, HierarchyBuilder};
use iolap::model::{paper_example, Fact, FactId, FactTable, RegionBox, Schema, MAX_DIMS};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random 2-level hierarchy with ≤ 12 leaves.
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

/// Strategy: a random fact table (mixed precise/imprecise facts).
fn arb_table() -> impl Strategy<Value = FactTable> {
    (arb_hierarchy("D0"), arb_hierarchy("D1"), 1usize..40, any::<u64>()).prop_map(
        |(h0, h1, n, seed)| {
            let schema = Arc::new(Schema::new(vec![Arc::new(h0), Arc::new(h1)], "M"));
            let mut facts = Vec::with_capacity(n);
            let mut s = seed;
            let mut next = move || {
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

/// Strategy: a random (possibly empty, possibly full-space) query box for
/// a 2-dimensional schema; widths are clamped to the leaf domains later.
fn arb_box() -> impl Strategy<Value = (u32, u32, u32, u32)> {
    (0u32..12, 0u32..12, 1u32..13, 1u32..13)
}

/// A naive full-entry scan: every page of every segment decoded in page
/// order, no fences — the independent reimplementation the pruned cursor
/// is checked against. `records()` decompresses columnar pages, so this
/// also exercises the v2 decode path.
fn naive_scan(views: &[SegmentView], region: &RegionBox) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0.0;
    for v in views {
        for e in v.segment.records().expect("decode") {
            if !v.exclude.contains(&e.fact_id) && region.contains_cell(&e.cell) {
                sum += e.weight * e.measure;
                count += e.weight;
            }
        }
    }
    (sum, count)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// SUM/COUNT/AVG through the pruned segment cursor are bit-identical
    /// to the naive every-entry scan, and the page accounting always
    /// covers the whole segment set.
    #[test]
    fn pruned_aggregates_are_bit_identical_to_a_naive_scan(
        table in arb_table(),
        boxes in proptest::collection::vec(arb_box(), 1..8),
    ) {
        let has_precise = table.num_precise() > 0;
        prop_assume!(has_precise || table.num_imprecise() == 0);

        let schema = table.schema().clone();
        let cfg = AllocConfig::builder().in_memory(128).build();
        let policy = PolicySpec::em_count(0.01);
        let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
        let views = run.edb.segments().unwrap();
        let total_pages: u64 = views.iter().map(|v| v.segment.num_pages()).sum();

        for &(x, y, w, h) in &boxes {
            let mut lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            let (l0, l1) = (schema.dim(0).num_leaves(), schema.dim(1).num_leaves());
            lo[0] = x.min(l0);
            lo[1] = y.min(l1);
            hi[0] = (x + w).min(l0);
            hi[1] = (y + h).min(l1);
            let region = RegionBox { lo, hi, k: 2 };

            let (want_sum, want_count) = naive_scan(&views, &region);
            let (sum, count, stats) = accumulate_region(&views, &region).unwrap();
            prop_assert_eq!(sum.to_bits(), want_sum.to_bits(), "SUM bits for {:?}", region);
            prop_assert_eq!(count.to_bits(), want_count.to_bits(), "COUNT bits for {:?}", region);
            // AVG is sum/count on both sides; identical ingredients give
            // identical bits (the 0-count guard included).
            let avg = if count > 0.0 { sum / count } else { 0.0 };
            let want_avg = if want_count > 0.0 { want_sum / want_count } else { 0.0 };
            prop_assert_eq!(avg.to_bits(), want_avg.to_bits());
            prop_assert_eq!(stats.pages_read + stats.pages_pruned, total_pages,
                "every page is either read or pruned");

            // The unpruned cursor agrees too (and reads everything).
            let mut full = SegmentCursor::full_scan(&views, region);
            let mut fsum = 0.0;
            let mut fcount = 0.0;
            full.for_each(|e| { fsum += e.weight * e.measure; fcount += e.weight; }).unwrap();
            prop_assert_eq!(fsum.to_bits(), want_sum.to_bits());
            prop_assert_eq!(fcount.to_bits(), want_count.to_bits());
            prop_assert_eq!(full.stats().pages_read, total_pages);
        }
    }
}

/// Live-entry multiset of a set of segment views, as sortable keys.
fn live_multiset(views: &[SegmentView]) -> Vec<(FactId, [u32; MAX_DIMS], u64, u64)> {
    let mut out: Vec<_> = views
        .iter()
        .flat_map(|v| {
            v.segment
                .records()
                .expect("decode")
                .iter()
                .filter(|e| !v.exclude.contains(&e.fact_id))
                .map(|e| (e.fact_id, e.cell, e.weight.to_bits(), e.measure.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort_unstable();
    out
}

/// A Transitive allocation of `table` under `cfg`, made maintainable.
fn build_medb(table: &FactTable, cfg: AllocConfig) -> MaintainableEdb {
    let run = allocate(table, &PolicySpec::em_count(0.01), Algorithm::Transitive, &cfg).unwrap();
    MaintainableEdb::build(run, PolicySpec::em_count(0.01)).unwrap()
}

/// The mutation batches the compaction tests replay on `table`: enough
/// rounds to drive several delta segments through a threshold-1
/// compaction — two measure updates, an insert that is imprecise in
/// dimension 0, a delete, an update of the inserted fact, and last an
/// update of every original live fact, which outgrows the base tier so its
/// compaction folds the base in.
fn compaction_batches(table: &FactTable) -> Vec<Vec<EdbMutation>> {
    let new_id = table.facts().iter().map(|f| f.id).max().unwrap() + 1;
    let (last, facts) = table.facts().split_last().unwrap();
    let mut inserted = facts[0].clone();
    inserted.id = new_id;
    inserted.dims[0] = table.schema().dim(0).all().0;
    let update =
        |f: &Fact| EdbMutation::UpdateMeasure { fact_id: f.id, new_measure: f.measure + 1.0 };
    vec![
        vec![EdbMutation::UpdateMeasure { fact_id: facts[0].id, new_measure: 111.0 }],
        vec![EdbMutation::Insert(inserted)],
        vec![EdbMutation::UpdateMeasure { fact_id: facts[1].id, new_measure: 222.0 }],
        vec![EdbMutation::Delete(last.id)],
        vec![EdbMutation::UpdateMeasure { fact_id: new_id, new_measure: 333.0 }],
        facts.iter().map(update).collect(),
    ]
}

#[test]
fn compaction_round_trip_preserves_the_sorted_live_multiset() {
    let table = paper_example::table1();
    let mut medb = build_medb(&table, AllocConfig::builder().in_memory(256).build());
    medb.set_compaction_threshold(1); // compact on every refresh
    for batch in compaction_batches(&table) {
        medb.apply_batch(&batch).unwrap();
        let views = medb.snapshot_segments().unwrap();
        // threshold 1 keeps the tier count at base + at most one delta.
        assert!(views.len() <= 2, "{} segments after compaction", views.len());

        // The compacted tiers hold exactly the live multiset the flat
        // snapshot reports.
        let mut want: Vec<_> = medb
            .snapshot_entries()
            .unwrap()
            .iter()
            .map(|e| (e.fact_id, e.cell, e.weight.to_bits(), e.measure.to_bits()))
            .collect();
        want.sort_unstable();
        let views = medb.snapshot_segments().unwrap();
        assert_eq!(live_multiset(&views), want);
    }
    assert!(medb.num_compactions() >= 1, "threshold 1 must have compacted");
}

#[test]
fn compaction_io_is_exactly_accounted_and_reproducible() {
    // Two independent replicas replay the identical mutation sequence;
    // exact I/O accounting means their meters agree read for read, write
    // for write — including every compaction's temp file and external
    // sort. Any hidden (unaccounted) I/O path would have to desynchronize
    // eventually; equality run-to-run plus a nonzero compaction delta is
    // the strongest pin that doesn't hardcode a page count. The last
    // compaction folds the base tier in: its spill (≈ 1 440 entries, 15
    // pages) outgrows the 8-page pool, so it pays real eviction and
    // re-read I/O. Deleting the temp files charges none.
    let table = scaled(DatasetKind::Automotive, 2_000, 7);
    let run_all = || {
        let mut medb = build_medb(&table, AllocConfig::builder().in_memory(8).build());
        medb.set_compaction_threshold(1);
        let before = medb.accounted_io();
        let mut deltas = Vec::new();
        for batch in compaction_batches(&table) {
            medb.apply_batch(&batch).unwrap();
            let pre = medb.accounted_io();
            let _ = medb.snapshot_segments().unwrap();
            deltas.push(medb.accounted_io() - pre);
        }
        (medb.num_compactions(), medb.accounted_io() - before, deltas)
    };
    let (compactions_a, total_a, deltas_a) = run_all();
    let (compactions_b, total_b, deltas_b) = run_all();
    assert_eq!(compactions_a, compactions_b);
    assert!(compactions_a >= 1);
    assert_eq!(total_a, total_b, "accounted I/O must be exact, not approximate");
    assert_eq!(deltas_a, deltas_b, "per-refresh I/O must replay identically");
    assert!(
        deltas_a.iter().any(|d| d.total() > 0),
        "compaction must charge the meter (temp file + external sort)"
    );
}

/// A compaction's spill and sorted output are deleted with their pagers,
/// so a disk-backed environment's directory holds the same files after
/// twenty compactions as before them.
#[test]
fn compaction_leaves_no_temp_files_behind() {
    let dir = std::env::temp_dir().join(format!("iolap-seg-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let files = || std::fs::read_dir(&dir).unwrap().count();
    let table = paper_example::table1();
    let mut medb = build_medb(&table, AllocConfig::builder().buffer_pages(256).dir(&dir).build());
    medb.set_compaction_threshold(1);
    let before = files();
    for i in 0..20 {
        let update = EdbMutation::UpdateMeasure { fact_id: 1, new_measure: 100.0 + i as f64 };
        medb.apply_batch(&[update]).unwrap();
        let _ = medb.snapshot_segments().unwrap();
    }
    assert_eq!(medb.num_compactions(), 20);
    assert_eq!(files(), before, "every compaction must delete its temp files");
    drop(medb);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every layout (row/columnar × canonical/Morton) answers bit-identically
/// to the naive decoded scan of its own views, and all layouts hold the
/// same live multiset. Bit-identity across *orders* is not promised —
/// reordering reorders f64 accumulation — but within an order the
/// compressed format must not perturb a single bit.
#[test]
fn every_layout_is_bit_identical_to_its_own_naive_scan() {
    use iolap::core::{CellOrder, PageFormat};
    let run = allocate(
        &paper_example::table1(),
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(256).build(),
    )
    .unwrap();
    let mut edb = run.edb;
    let schema = paper_example::schema();
    let boxes: Vec<RegionBox> = {
        let full = SegmentCursor::all_region(schema.k());
        let mut ma = full;
        ma.hi[0] = 2; // MA leaves
        let mut sedan = full;
        sedan.lo[1] = 0;
        sedan.hi[1] = 2;
        vec![full, ma, sedan]
    };

    let layouts = [
        SegmentLayout::v1_canonical(),
        SegmentLayout::v2_canonical(),
        SegmentLayout { order: CellOrder::Morton, format: PageFormat::Rows },
        SegmentLayout::v2_morton(),
    ];
    let mut multisets = Vec::new();
    for layout in layouts {
        edb.set_segment_layout(layout);
        let views = edb.segments().unwrap();
        for region in &boxes {
            let (want_sum, want_count) = naive_scan(&views, region);
            let (sum, count, _) = accumulate_region(&views, region).unwrap();
            assert_eq!(sum.to_bits(), want_sum.to_bits(), "{layout:?} SUM bits for {region:?}");
            assert_eq!(count.to_bits(), want_count.to_bits(), "{layout:?} COUNT bits");
        }
        multisets.push(live_multiset(&views));
    }
    for m in &multisets[1..] {
        assert_eq!(m, &multisets[0], "layouts must hold the same live multiset");
    }
}

/// Pages a fence-pruned scan reads, per layout, over one fixed set of
/// boxes that restrict only *trailing* dimensions — the dice shape where
/// canonical fences (tight on the leading dimension only) prune little
/// and Morton fences prune in every dimension. The counts are exact:
/// same dataset, same allocation, same boxes, same fences. Re-record only
/// with a change that is meant to move a layout's page count, and say so
/// — they are the page-count half of the next layout decision (ROADMAP
/// item 2); the wall-time half is `e2e`'s `dice_cold`.
#[test]
fn pages_read_per_layout_are_pinned_on_trailing_dimension_boxes() {
    use iolap::core::{CellOrder, PageFormat};
    /// (layout, pages in the segment, pages read over all boxes).
    const PINNED: [(SegmentLayout, u64, u64); 4] = [
        (SegmentLayout { order: CellOrder::Canonical, format: PageFormat::Rows }, 36, 546),
        (SegmentLayout { order: CellOrder::Canonical, format: PageFormat::ColumnarV2 }, 14, 222),
        (SegmentLayout { order: CellOrder::Morton, format: PageFormat::Rows }, 36, 370),
        (SegmentLayout { order: CellOrder::Morton, format: PageFormat::ColumnarV2 }, 13, 154),
    ];
    let table = scaled(DatasetKind::Automotive, 5_000, 42);
    let schema = table.schema().clone();
    let k = schema.k();
    let run = allocate(
        &table,
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(2048).build(),
    )
    .unwrap();
    let mut edb = run.edb;

    // Per trailing dimension d ≥ 1: four boxes a twentieth of d wide, ALL
    // elsewhere; then four dices restricting the last two dimensions to a
    // tenth each (≤ 1 % of the cells). Starts come from a fixed xorshift.
    let mut s = 0x5e97_13a7_u64;
    let mut slice = |bx: &mut RegionBox, d: usize, frac: u32| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let leaves = schema.dim(d).num_leaves();
        let width = (leaves / frac).max(1);
        bx.lo[d] = (s >> 16) as u32 % (leaves - width + 1);
        bx.hi[d] = bx.lo[d] + width;
    };
    let mut boxes = Vec::new();
    for d in 1..k {
        for _ in 0..4 {
            let mut bx = SegmentCursor::all_region(k);
            slice(&mut bx, d, 20);
            boxes.push(bx);
        }
    }
    for _ in 0..4 {
        let mut bx = SegmentCursor::all_region(k);
        slice(&mut bx, k - 2, 10);
        slice(&mut bx, k - 1, 10);
        boxes.push(bx);
    }

    let mut got = Vec::new();
    for (layout, ..) in PINNED {
        edb.set_segment_layout(layout);
        let views = edb.segments().unwrap();
        let total: u64 = views.iter().map(|v| v.segment.num_pages()).sum();
        let mut read = 0;
        for bx in &boxes {
            read += accumulate_region(&views, bx).unwrap().2.pages_read;
        }
        got.push((layout, total, read));
    }
    assert_eq!(got, PINNED, "a layout's page count moved");
    // The gate the retired segment bench enforced, now a relation between
    // constants: v2 + Morton reads at most half of what v1 canonical does.
    assert!(2 * PINNED[3].2 <= PINNED[0].2);
}

/// A bit-flipped compressed page must surface from the scan as the
/// storage error it is — through `iolap::Error` — never a panic or a
/// silently short answer; and a truncated segment file must fail at load.
#[test]
fn corrupt_and_truncated_compressed_segments_surface_as_storage_errors() {
    use iolap::core::EdbSegment;
    let run = allocate(
        &paper_example::table1(),
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(256).build(),
    )
    .unwrap();
    let mut edb = run.edb;
    edb.set_segment_layout(SegmentLayout::v2_canonical());
    let views = edb.segments().unwrap();
    let k = paper_example::schema().k();

    let dir = std::env::temp_dir().join(format!("iolap-seg-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.seg");
    views[0].segment.save(&path).unwrap();

    // Flip one bit inside the first encoded page's payload (the first
    // data block follows the one-page header; its u32 length prefix is
    // followed by the payload, so offset 16 is well inside it).
    let mut bytes = std::fs::read(&path).unwrap();
    let page = 4096;
    bytes[page + 16] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    // Loading only validates the frame; the damage surfaces at scan time.
    let seg = EdbSegment::load(&path, k).unwrap();
    let views = vec![SegmentView {
        segment: Arc::new(seg),
        exclude: Arc::new(std::collections::HashSet::new()),
    }];
    let region = SegmentCursor::all_region(k);
    let err = accumulate_region(&views, &region).unwrap_err();
    assert!(matches!(err, CoreError::Storage(_)), "want a storage error, got {err:?}");
    let facade: iolap::Error = err.into();
    assert!(facade.to_string().contains("corrupt"), "{facade}");

    // Truncating the file kills the load itself (the footer frame is
    // incomplete) — an error, not a panic or a short segment.
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&path, &bytes).unwrap();
    assert!(EdbSegment::load(&path, k).is_err(), "truncated segment must not load");

    std::fs::remove_dir_all(&dir).ok();
}
