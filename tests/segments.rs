//! The segment layer's contracts, end to end:
//!
//! 1. **Pruning is invisible** (proptest): over random fact tables and
//!    random query boxes, SUM/COUNT/AVG computed through the fence-pruned
//!    cursor are bit-identical to a naive scan of every entry in every
//!    segment page — pruning may only skip pages provably disjoint from
//!    the box, so the visited entry sequence (and every f64) is unchanged.
//!    The same holds after each segment is saved and loaded back.
//! 2. **Compaction is a rewrite, not an edit** — base + k delta segments
//!    compacted back into few tiers hold bit for bit the live entry
//!    multiset of a replica that never compacts, and both match a full
//!    rebuild; and its accounted page I/O is exact: the same mutation
//!    sequence charges the same meter reading, run to run. Every merged
//!    tier is byte for byte the one a spill-and-external-sort reference
//!    merge builds (proptest).
//! 3. **Pages read are pinned** on one fixed set of trailing-dimension
//!    boxes.
//! 4. **Damage at rest is loud**: any single flipped bit in a saved
//!    segment file gives a typed error at load or scan, or (in padding)
//!    the bit-identical answer — never a different one; and a file cut
//!    short anywhere never loads.

use iolap::core::maintain::{EdbMutation, MaintainableEdb};
use iolap::core::{
    accumulate_region, allocate, Algorithm, AllocConfig, CoreError, EdbSegment, PolicySpec,
    SegmentCursor, SegmentView,
};
use iolap::datagen::{scaled, DatasetKind};
use iolap::hierarchy::{Hierarchy, HierarchyBuilder};
use iolap::model::{
    canonical_sort_key, paper_example, EdbCodec, Fact, FactId, FactTable, RegionBox, Schema,
    MAX_DIMS,
};
use iolap::storage::{external_sort, Env, SortBudget, StorageError, TempDir, PAGE_SIZE};
use proptest::prelude::*;
use std::path::Path;
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
/// is checked against. `records()` decodes every page, so this also
/// exercises the whole-page decode path.
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
        let dir = TempDir::new("seg-prop").unwrap();
        let loaded = save_and_load(&views, dir.path());

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

            // Saved and loaded back, the views answer the same bits.
            let (lsum, lcount, _) = accumulate_region(&loaded, &region).unwrap();
            prop_assert_eq!(lsum.to_bits(), want_sum.to_bits());
            prop_assert_eq!(lcount.to_bits(), want_count.to_bits());
        }

        // A flipped fence bit in a saved file never loads.
        for (i, v) in views.iter().enumerate() {
            let path = dir.path().join(format!("seg{i}"));
            flip_first_fence_bit(&path, &v.segment);
            let err = EdbSegment::load(&path, 2).err();
            prop_assert!(
                matches!(err, Some(CoreError::Storage(StorageError::Corrupt(_)))),
                "view {} loaded with a flipped fence bit: {:?}", i, err
            );
        }
    }
}

/// Save every view's segment to `dir` (`seg0`, `seg1`, …) and load it back
/// under the view's exclusion set.
fn save_and_load(views: &[SegmentView], dir: &Path) -> Vec<SegmentView> {
    views
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let path = dir.join(format!("seg{i}"));
            v.segment.save(&path).unwrap();
            let segment = Arc::new(EdbSegment::load(&path, v.segment.k()).unwrap());
            SegmentView { segment, exclude: v.exclude.clone() }
        })
        .collect()
}

/// Flip the top bit of page 0's fence `lo[0]` in the file `seg` was saved
/// to. The byte is found by diffing two footer encodings, so this does not
/// restate the footer layout.
fn flip_first_fence_bit(path: &Path, seg: &EdbSegment) {
    let mut flipped = seg.footer().clone();
    flipped.fences[0].lo[0] ^= 1 << 31;
    let (good, bad) = (seg.footer().encode(), flipped.encode());
    let at = (0..good.len()).find(|&i| good[i] != bad[i]).unwrap();
    let footer_start = (1 + seg.num_pages() as usize) * PAGE_SIZE;
    let mut bytes = std::fs::read(path).unwrap();
    bytes[footer_start + at] = bad[at];
    std::fs::write(path, &bytes).unwrap();
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

/// `table` after `batch`.
fn apply_to(table: &FactTable, batch: &[EdbMutation]) -> FactTable {
    let mut facts = table.facts().to_vec();
    for m in batch {
        match m {
            EdbMutation::UpdateMeasure { fact_id, new_measure } => {
                facts.iter_mut().filter(|f| f.id == *fact_id).for_each(|f| f.measure = *new_measure)
            }
            EdbMutation::Insert(f) => facts.push(f.clone()),
            EdbMutation::Delete(id) => facts.retain(|f| f.id != *id),
        }
    }
    FactTable::from_facts(table.schema().clone(), facts)
}

/// The live entries of `views` are a full rebuild of `table`'s:
/// the same (fact, cell) entries, weights within 1e-6, measures exact.
fn assert_matches_rebuild(views: &[SegmentView], table: &FactTable) {
    let cfg = AllocConfig::builder().in_memory(256).build();
    let mut run =
        allocate(table, &PolicySpec::em_count(0.01), Algorithm::Transitive, &cfg).unwrap();
    let mut want = Vec::new();
    run.edb.for_each(|e| want.push((e.fact_id, e.cell, e.weight, e.measure))).unwrap();
    want.sort_unstable_by_key(|&(id, cell, ..)| (id, cell));
    let got = live_multiset(views);
    assert_eq!(got.len(), want.len(), "live entry counts differ");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!((g.0, g.1), (w.0, w.1), "served (fact, cell) entries differ");
        assert!(
            (f64::from_bits(g.2) - w.2).abs() < 1e-6,
            "fact {}: weight {} vs {}",
            g.0,
            f64::from_bits(g.2),
            w.2
        );
        assert_eq!(g.3, w.3.to_bits(), "fact {}: stale measure", g.0);
    }
}

#[test]
fn compaction_round_trip_preserves_the_sorted_live_multiset() {
    let mut table = paper_example::table1();
    let cfg = || AllocConfig::builder().in_memory(256).build();
    let mut medb = build_medb(&table, cfg());
    medb.set_compaction_threshold(1); // compact on every refresh
    let mut uncompacted = build_medb(&table, cfg());
    uncompacted.set_compaction_threshold(usize::MAX);
    for batch in compaction_batches(&table) {
        medb.apply_batch(&batch).unwrap();
        uncompacted.apply_batch(&batch).unwrap();
        table = apply_to(&table, &batch);
        let views = medb.snapshot_segments().unwrap();
        // threshold 1 keeps the tier count at base + at most one delta.
        assert!(views.len() <= 2, "{} segments after compaction", views.len());

        // Compaction rewrites tiers and moves no live entry, and the live
        // entries are the rebuild's.
        let flat = uncompacted.snapshot_segments().unwrap();
        assert_eq!(live_multiset(&views), live_multiset(&flat));
        assert_matches_rebuild(&views, &table);
    }
    assert!(medb.num_compactions() >= 1, "threshold 1 must have compacted");
    assert_eq!(uncompacted.num_compactions(), 0);
}

#[test]
fn compaction_io_is_exactly_accounted_and_reproducible() {
    // Two independent replicas replay the identical mutation sequence;
    // exact I/O accounting means their meters agree read for read, write
    // for write. Any hidden (unaccounted) I/O path would have to
    // desynchronize eventually; equality run-to-run is the strongest pin
    // that doesn't hardcode a page count. The pool is 8 pages, far below
    // the merged tiers (the last compaction folds the base tier in,
    // ≈ 1 440 entries), yet every refresh that compacted charges exactly
    // zero pages: the merge runs in memory and touches no pager.
    let table = scaled(DatasetKind::Automotive, 2_000, 7);
    let run_all = || {
        let mut medb = build_medb(&table, AllocConfig::builder().in_memory(8).build());
        medb.set_compaction_threshold(1);
        let before = medb.accounted_io();
        let mut deltas = Vec::new();
        for batch in compaction_batches(&table) {
            medb.apply_batch(&batch).unwrap();
            let (pre, compactions) = (medb.accounted_io(), medb.num_compactions());
            let _ = medb.snapshot_segments().unwrap();
            let compacted = medb.num_compactions() > compactions;
            deltas.push((compacted, medb.accounted_io() - pre));
        }
        (medb.num_compactions(), medb.accounted_io() - before, deltas)
    };
    let (compactions_a, total_a, deltas_a) = run_all();
    let (compactions_b, total_b, deltas_b) = run_all();
    assert_eq!(compactions_a, compactions_b);
    assert!(compactions_a >= 1);
    assert_eq!(total_a, total_b, "accounted I/O must be exact, not approximate");
    assert_eq!(deltas_a, deltas_b, "per-refresh I/O must replay identically");
    for (i, (compacted, io)) in deltas_a.iter().enumerate() {
        if *compacted {
            assert_eq!(io.total(), 0, "refresh {i} compacted and charged {io:?}");
        }
    }
}

/// A compaction creates no file, so a disk-backed environment's directory
/// holds the same files after nineteen compactions as before them.
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
    // The first batch's lone delta tier is not rewritten alone; every
    // later batch merges two tiers.
    assert_eq!(medb.num_compactions(), 19);
    assert_eq!(files(), before, "every compaction must delete its temp files");
    drop(medb);
    std::fs::remove_dir_all(&dir).ok();
}

/// The reference merge: the live entries of `inputs`, in tier order,
/// spilled to a temp file on a tiny in-memory pool, external-sorted by
/// canonical cell key (a stable sort, so ties keep tier order), read back
/// and built into a segment.
fn reference_merge(inputs: &[SegmentView]) -> EdbSegment {
    let k = inputs[0].segment.k();
    let env = Env::builder("seg-ref").in_memory().pool_pages(8).build().unwrap();
    let mut tmp = env.create_file("seg-compact", EdbCodec { k }).unwrap();
    for v in inputs {
        for e in v.segment.records().unwrap() {
            if !v.exclude.contains(&e.fact_id) {
                tmp.push(&e).unwrap();
            }
        }
    }
    let mut sorted =
        external_sort(&env, tmp, SortBudget::pages(2), |e| canonical_sort_key(&e.cell, k)).unwrap();
    let mut entries = Vec::new();
    let mut cursor = sorted.scan();
    while let Some(e) = cursor.next().unwrap() {
        entries.push(e);
    }
    drop(cursor);
    sorted.delete().unwrap();
    EdbSegment::build(k, entries)
}

/// A seeded batch over `live`: measure updates, deletes and fresh inserts
/// (precise or imprecise), and now and then an update of every live fact,
/// which outgrows the base tier so a merge folds it in.
fn random_batch(
    schema: &Schema,
    live: &mut Vec<FactId>,
    next_id: &mut FactId,
    s: &mut u64,
) -> Vec<EdbMutation> {
    let mut next = || {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    };
    if next() % 6 == 0 {
        return live
            .iter()
            .map(|&id| EdbMutation::UpdateMeasure { fact_id: id, new_measure: 5.0 })
            .collect();
    }
    (0..1 + next() % 4)
        .map(|_| {
            let r = next();
            let pick = (r >> 8) as usize % live.len();
            match r % 3 {
                0 => EdbMutation::UpdateMeasure {
                    fact_id: live[pick],
                    new_measure: 1.0 + (r >> 20) as f64 % 100.0,
                },
                1 if live.len() > 1 => EdbMutation::Delete(live.swap_remove(pick)),
                _ => {
                    let dims: Vec<u32> = (0..schema.k())
                        .map(|d| {
                            let (h, r) = (schema.dim(d), next());
                            if r % 10 < 6 {
                                h.leaf_node((r >> 8) as u32 % h.num_leaves()).0
                            } else {
                                (r >> 8) as u32 % h.num_nodes()
                            }
                        })
                        .collect();
                    live.push(*next_id);
                    *next_id += 1;
                    EdbMutation::Insert(Fact::new(*next_id - 1, &dims, 1.0 + (r % 50) as f64))
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every tier a background compaction installs, at thresholds 1 and 4,
    /// equals the reference merge of the views its plan froze: the same
    /// records, the same footer bytes and the same saved file. Some plans
    /// are held across a batch, so exclusions grow between plan and
    /// install.
    #[test]
    fn merged_tiers_are_byte_identical_to_an_external_sort_merge(
        table in arb_table(),
        seed in any::<u64>(),
    ) {
        prop_assume!(table.num_precise() > 0 || table.num_imprecise() == 0);
        let dir = TempDir::new("seg-merge-prop").unwrap();
        for threshold in [1, 4] {
            let mut medb = build_medb(&table, AllocConfig::builder().in_memory(128).build());
            medb.set_compaction_threshold(threshold);
            medb.set_background_compaction(true);
            let mut live: Vec<FactId> = table.facts().iter().map(|f| f.id).collect();
            let mut next_id = live.iter().max().unwrap() + 1;
            let mut s = seed | 1;
            let mut held = None;
            for b in 0..12 {
                let batch = random_batch(table.schema(), &mut live, &mut next_id, &mut s);
                medb.apply_batch(&batch).unwrap();
                let views = medb.snapshot_segments().unwrap();
                let (frozen, plan) = match held.take() {
                    Some(held) => held,
                    None => match medb.prepare_compaction().unwrap() {
                        Some(plan) if b % 3 == 0 => {
                            held = Some((views, plan));
                            continue;
                        }
                        Some(plan) => (views, plan),
                        None => continue,
                    },
                };
                prop_assert!(medb.install_compaction(plan.run().unwrap()).unwrap());
                let after = medb.snapshot_segments().unwrap();
                let start = usize::from(Arc::ptr_eq(&after[0].segment, &frozen[0].segment));
                let (merged, want) = (&after[start].segment, reference_merge(&frozen[start..]));
                let at = format!("threshold {threshold}, batch {b}, start {start}");
                prop_assert_eq!(merged.records().unwrap(), want.records().unwrap(), "{}", at);
                prop_assert_eq!(merged.footer().encode(), want.footer().encode(), "{}", at);
                let (got_path, want_path) = (dir.path().join("got"), dir.path().join("want"));
                merged.save(&got_path).unwrap();
                want.save(&want_path).unwrap();
                prop_assert!(
                    std::fs::read(&got_path).unwrap() == std::fs::read(&want_path).unwrap(),
                    "{}: saved bytes differ", at
                );
            }
        }
    }
}

/// Pages a fence-pruned scan reads over one fixed set of boxes that
/// restrict only *trailing* dimensions — the dice shape where canonical
/// fences (tight on the leading dimension only) prune least. The counts
/// are exact: same dataset, same allocation, same boxes, same fences.
/// Re-record only with a change that is meant to move them, and say so;
/// the wall-time half is `e2e`'s `dice_cold`.
#[test]
fn pages_read_are_pinned_on_trailing_dimension_boxes() {
    /// (pages in the segment, pages read over all boxes).
    const PINNED: (u64, u64) = (14, 222);
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

    let views = run.edb.segments().unwrap();
    let total: u64 = views.iter().map(|v| v.segment.num_pages()).sum();
    let mut read = 0;
    for bx in &boxes {
        read += accumulate_region(&views, bx).unwrap().2.pages_read;
    }
    assert_eq!((total, read), PINNED, "the segment's page count moved");
}

/// The base segment of a Transitive allocation of Automotive-2k: several
/// pages, small enough to rewrite once per flipped bit.
fn automotive_base_segment() -> (Arc<Schema>, Arc<EdbSegment>) {
    let table = scaled(DatasetKind::Automotive, 2_000, 7);
    let run = allocate(
        &table,
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(256).build(),
    )
    .unwrap();
    let seg = run.edb.segments().unwrap()[0].segment.clone();
    (table.schema().clone(), seg)
}

/// What one damaged segment file gave: a typed error, or answers.
fn answers_or_error(path: &Path, k: usize, boxes: &[RegionBox]) -> Option<Vec<(u64, u64)>> {
    let seg = match EdbSegment::load(path, k) {
        Ok(seg) => Arc::new(seg),
        Err(CoreError::Storage(_)) => return None,
        Err(e) => panic!("load failed with an untyped error: {e:?}"),
    };
    let views = [SegmentView::new(seg)];
    let mut out = Vec::new();
    for bx in boxes {
        match accumulate_region(&views, bx) {
            Ok((sum, count, _)) => out.push((sum.to_bits(), count.to_bits())),
            Err(CoreError::Storage(_)) => return None,
            Err(e) => panic!("scan failed with an untyped error: {e:?}"),
        }
    }
    Some(out)
}

/// A bit-flipped segment file must fail as the storage error it is —
/// through `iolap::Error` — or, where the bit is padding, answer exactly
/// as before; never a panic or a different answer. The sweep flips every
/// bit of the header fields and of the footer (fences, stats, checksum),
/// every bit of each page's length prefix, and sampled payload and
/// padding bits.
#[test]
fn corrupt_and_truncated_compressed_segments_surface_as_storage_errors() {
    let (schema, seg) = automotive_base_segment();
    let k = schema.k();
    assert!(seg.num_pages() >= 3, "the sweep wants several pages");
    // The whole space, and each half of every dimension.
    let mut boxes = vec![SegmentCursor::all_region(k)];
    for d in 0..k {
        let mid = schema.dim(d).num_leaves() / 2;
        let (mut low, mut high) = (SegmentCursor::all_region(k), SegmentCursor::all_region(k));
        low.hi[d] = mid;
        high.lo[d] = mid;
        boxes.extend([low, high]);
    }

    let dir = TempDir::new("seg-corrupt").unwrap();
    let path = dir.path().join("base.seg");
    seg.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let want = answers_or_error(&path, k, &boxes).expect("the clean file answers");

    // Whole bytes to sweep bit by bit, and whether they are padding.
    let mut sweep: Vec<(usize, bool)> = (0..26).map(|at| (at, false)).collect();
    sweep.extend([(26, true), (PAGE_SIZE - 1, true)]);
    let pages = seg.num_pages() as usize;
    for (p, &len) in seg.footer().page_bytes.iter().enumerate() {
        let block = (1 + p) * PAGE_SIZE;
        let len = len as usize;
        sweep.extend((block..block + 4).map(|at| (at, false)));
        sweep.extend([block + 4, block + 4 + len / 2, block + 3 + len].map(|at| (at, false)));
        if 4 + len < PAGE_SIZE {
            sweep.push((block + PAGE_SIZE - 1, true));
        }
    }
    let footer_start = (1 + pages) * PAGE_SIZE;
    let footer_len = seg.footer().encode().len();
    sweep.extend((footer_start..footer_start + footer_len).map(|at| (at, false)));
    if footer_start + footer_len < good.len() {
        sweep.push((good.len() - 1, true));
    }

    let (mut errors, mut same) = (0, 0);
    for (at, padding) in sweep {
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            match answers_or_error(&path, k, &boxes) {
                None => errors += 1,
                Some(got) => {
                    assert_eq!(got, want, "byte {at} bit {bit} changed an answer");
                    same += 1;
                    // Only padding may be flipped unnoticed.
                    assert!(padding, "byte {at} bit {bit} loaded and answered unnoticed");
                }
            }
        }
    }
    assert!(errors > 0 && same > 0, "{errors} errors, {same} unchanged");

    // A flipped payload bit surfaces from the scan as a corrupt page,
    // through the facade error too.
    let mut bytes = good.clone();
    bytes[PAGE_SIZE + 16] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let views = [SegmentView::new(Arc::new(EdbSegment::load(&path, k).unwrap()))];
    let err = accumulate_region(&views, &boxes[0]).unwrap_err();
    assert!(matches!(err, CoreError::Storage(StorageError::Corrupt(_))), "{err:?}");
    let facade: iolap::Error = err.into();
    assert!(facade.to_string().contains("corrupt"), "{facade}");
}

/// A segment file cut short anywhere — inside the header, at or inside a
/// data page, inside the footer — fails at load with a storage error, never
/// a panic or a short segment.
#[test]
fn truncated_segment_files_never_load() {
    let (_, seg) = automotive_base_segment();
    let k = seg.k();
    let dir = TempDir::new("seg-truncated").unwrap();
    let path = dir.path().join("base.seg");
    seg.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut cuts = vec![0, 25, good.len() - 7, good.len() - 1];
    for block in (PAGE_SIZE..good.len()).step_by(PAGE_SIZE) {
        cuts.extend([block - 1, block, block + 3, block + PAGE_SIZE / 2]);
    }
    for cut in cuts.into_iter().filter(|&c| c < good.len()) {
        std::fs::write(&path, &good[..cut]).unwrap();
        let err = EdbSegment::load(&path, k).err();
        assert!(matches!(err, Some(CoreError::Storage(_))), "cut at {cut}: {err:?}");
    }
}
