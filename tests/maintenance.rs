//! Integration tests for the EDB maintenance path (Section 9) on
//! generated data: the maintained EDB must always equal a from-scratch
//! rebuild.

use iolap::core::maintain::{EdbMutation, MaintainableEdb};
use iolap::core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap::datagen::{generate, scaled, DatasetKind, GeneratorConfig};
use iolap::model::FactId;

fn update(fact_id: FactId, new_measure: f64) -> EdbMutation {
    EdbMutation::UpdateMeasure { fact_id, new_measure }
}

#[test]
fn batched_updates_match_rebuild_on_generated_data() {
    let policy = PolicySpec::em_measure(0.001);
    let cfg = AllocConfig::builder().in_memory(2048).build();
    let mut table = generate(&GeneratorConfig::automotive(1_500, 21));

    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let mut maintained = MaintainableEdb::build(run, policy.clone()).unwrap();

    // Update ~1% of the facts (mixed precise/imprecise by construction of
    // the id space: low ids are imprecise).
    let updates: Vec<(FactId, f64)> =
        (1..=15).map(|i| (i * 97 % 1_500 + 1, 5_000.0 + i as f64)).collect();
    let muts: Vec<EdbMutation> = updates.iter().map(|&(id, m)| update(id, m)).collect();
    let rep = maintained.apply_batch(&muts).unwrap();
    assert!(rep.affected_components >= 1);
    let got = maintained.current_weights().unwrap();

    // Rebuild from scratch with the same measures.
    for f in table.facts_mut() {
        for &(id, measure) in &updates {
            if f.id == id {
                f.measure = measure;
            }
        }
    }
    let mut rebuilt_run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let want = rebuilt_run.edb.weight_map().unwrap();

    assert_eq!(got.len(), want.len());
    for (id, entries) in &want {
        let g: std::collections::HashMap<_, _> = got[id].iter().cloned().collect();
        assert_eq!(g.len(), entries.len(), "fact {id}");
        for (cell, w) in entries {
            let gw = g[cell];
            assert!(
                (w - gw).abs() < 1e-5,
                "fact {id} cell {:?}: rebuilt {w} vs maintained {gw}",
                &cell[..4]
            );
        }
    }
}

#[test]
fn repeated_updates_to_same_fact_keep_latest() {
    let policy = PolicySpec::em_measure(0.001);
    let cfg = AllocConfig::builder().in_memory(1024).build();
    // A dense little dataset over the paper's 4×4 cell space, so every
    // imprecise fact overlaps plenty of precise cells.
    let schema = iolap::model::paper_example::schema();
    let mut table = generate(&GeneratorConfig::uniform(schema, 200, 0.4, 33));

    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let mut maintained = MaintainableEdb::build(run, policy.clone()).unwrap();

    // Pick an imprecise fact that actually has EDB entries (ids 1..=80
    // are imprecise).
    let target = {
        let w = maintained.current_weights().unwrap();
        (1u64..=80).find(|id| w.contains_key(id)).expect("some imprecise fact allocates")
    };
    maintained.apply_batch(&[update(target, 1.0)]).unwrap();
    maintained.apply_batch(&[update(target, 9_999.0)]).unwrap();
    let got = maintained.current_weights().unwrap();

    for f in table.facts_mut() {
        if f.id == target {
            f.measure = 9_999.0;
        }
    }
    let mut rebuilt = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let want = rebuilt.edb.weight_map().unwrap();
    let g: std::collections::HashMap<_, _> = got[&target].iter().cloned().collect();
    for (cell, w) in &want[&target] {
        assert!((g[cell] - w).abs() < 1e-5);
    }
}

#[test]
fn non_overlapped_precise_updates_are_cheap() {
    // Updating precise facts in singleton components must not trigger any
    // component re-allocation work (the flat curve of Figure 6).
    let policy = PolicySpec::em_count(0.01);
    let cfg = AllocConfig::builder().in_memory(2048).build();
    let table = generate(&GeneratorConfig::automotive(2_000, 55));
    let schema = table.schema().clone();

    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let stats = run.report.components.clone().unwrap();
    assert!(stats.singleton_cells > 0, "sparse data must have isolated cells");

    // Find precise facts overlapped by nothing: their cell's degree is 0.
    let prep = &run.prep;
    let mut isolated: Vec<u64> = Vec::new();
    {
        let mut degrees = std::collections::HashMap::new();
        // Recover degrees through the public index + regions.
        let keys = prep.index.keys().to_vec();
        let mut deg = vec![0u32; keys.len()];
        for f in table.facts().iter().filter(|f| !schema.is_precise(f)) {
            prep.index.for_each_in_box(&schema.region(f), |i| deg[i as usize] += 1);
        }
        for (i, k) in keys.iter().enumerate() {
            degrees.insert(*k, deg[i]);
        }
        for f in table.facts() {
            if let Some(cell) = schema.cell_of(f) {
                if degrees.get(&cell) == Some(&0) {
                    isolated.push(f.id);
                }
            }
        }
    }
    assert!(!isolated.is_empty());

    let mut maintained = MaintainableEdb::build(run, policy).unwrap();
    let updates: Vec<EdbMutation> = isolated.iter().take(10).map(|&id| update(id, 1.0)).collect();
    let rep = maintained.apply_batch(&updates).unwrap();
    // Singleton components have no imprecise facts → no equations
    // re-evaluated, no entries rewritten.
    assert_eq!(rep.entries_rewritten, 0);
}

/// Bytes of every file directly inside `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
}

/// Maintenance replaces entries; it does not accumulate them. Measure
/// updates re-emit runs batch after batch, yet a disk-backed EDB whose
/// pool is far too small to hide them holds the same bytes on disk after
/// the 200th batch as after the first.
#[test]
fn measure_updates_do_not_grow_the_data_directory() {
    let dir = std::env::temp_dir().join(format!("iolap-no-growth-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = PolicySpec::em_measure(0.01);
    let table = scaled(DatasetKind::Automotive, 2_000, 7);
    let cfg = AllocConfig::builder().buffer_pages(8).dir(&dir).build();
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
    let mut maintained = MaintainableEdb::build(run, policy).unwrap();
    let ids: Vec<FactId> = table.facts().iter().map(|f| f.id).collect();
    let mut after_first = 0;
    for b in 0..200u64 {
        let batch: Vec<EdbMutation> = (0..10u64)
            .map(|i| update(ids[((b * 10 + i) * 7_919 % ids.len() as u64) as usize], b as f64))
            .collect();
        maintained.apply_batch(&batch).unwrap();
        let _ = maintained.snapshot_segments().unwrap();
        if b == 0 {
            after_first = dir_bytes(&dir);
        }
    }
    assert_eq!(dir_bytes(&dir), after_first, "200 batches grew the data directory");
    drop(maintained);
    std::fs::remove_dir_all(&dir).ok();
}
