//! Cross-algorithm equivalence on generated datasets: the Independent,
//! Block and Transitive algorithms must reach the Basic Algorithm's
//! fixpoint (Corollaries 1–2, Theorem 9) on data large enough to exercise
//! multi-page files, bin-packed table sets, chain covers, and the
//! component machinery.

use iolap::core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap::datagen::{generate, GeneratorConfig};
use iolap::model::FactTable;
use std::collections::HashMap;

type Weights = HashMap<u64, Vec<([u32; 8], f64)>>;

fn weights_of(table: &FactTable, policy: &PolicySpec, alg: Algorithm, pages: usize) -> Weights {
    let mut run =
        allocate(table, policy, alg, &AllocConfig::builder().in_memory(pages).build()).unwrap();
    assert!(run.report.converged, "{alg} did not converge");
    let mut m = run.edb.weight_map().unwrap();
    for v in m.values_mut() {
        v.sort_by_key(|e| e.0);
    }
    m
}

fn assert_same(a: &Weights, b: &Weights, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: fact counts differ");
    for (id, ea) in a {
        let eb = &b[id];
        assert_eq!(ea.len(), eb.len(), "{label}: fact {id} entry counts differ");
        for ((ca, wa), (cb, wb)) in ea.iter().zip(eb.iter()) {
            assert_eq!(ca, cb, "{label}: fact {id} cells differ");
            assert!((wa - wb).abs() < 1e-6, "{label}: fact {id} weights {wa} vs {wb}");
        }
    }
}

#[test]
fn automotive_slice_all_algorithms_agree() {
    let table = generate(&GeneratorConfig::automotive(4_000, 42));
    let policy = PolicySpec::em_count(0.01);
    let reference = weights_of(&table, &policy, Algorithm::Basic, 4096);
    for alg in [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
        let got = weights_of(&table, &policy, alg, 4096);
        assert_same(&reference, &got, &format!("{alg}"));
    }
}

#[test]
fn synthetic_slice_with_alls_all_algorithms_agree() {
    // ALL values create wide regions, interleaved partition groups, and a
    // large connected component — the hard case.
    let table = generate(&GeneratorConfig::synthetic(3_000, 7));
    let policy = PolicySpec::em_count(0.02);
    let reference = weights_of(&table, &policy, Algorithm::Basic, 4096);
    for alg in [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
        let got = weights_of(&table, &policy, alg, 4096);
        assert_same(&reference, &got, &format!("{alg}"));
    }
}

#[test]
fn tiny_buffers_do_not_change_results() {
    // Shrinking the buffer changes table sets, window sizes, sort runs and
    // the external-component fallback — but never the weights.
    let table = generate(&GeneratorConfig::synthetic(1_500, 3));
    let policy = PolicySpec::em_count(0.02);
    let big = weights_of(&table, &policy, Algorithm::Block, 4096);
    for pages in [16, 32, 64] {
        let small_block = weights_of(&table, &policy, Algorithm::Block, pages);
        assert_same(&big, &small_block, &format!("block@{pages}p"));
        let small_trans = weights_of(&table, &policy, Algorithm::Transitive, pages);
        assert_same(&big, &small_trans, &format!("transitive@{pages}p"));
    }
}

#[test]
fn transitive_components_match_bfs_reference() {
    use iolap::graph::{AllocationGraph, CellSetIndex};

    let table = generate(&GeneratorConfig::automotive(3_000, 5));
    let schema = table.schema().clone();
    let run = allocate(
        &table,
        &PolicySpec::em_count(0.05),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(2048).build(),
    )
    .unwrap();
    let stats = run.report.components.unwrap();

    // Reference: explicit graph + BFS.
    let keys: Vec<_> = table.facts().iter().filter_map(|f| schema.cell_of(f)).collect();
    let index = CellSetIndex::from_unsorted(keys, schema.k());
    let regions: Vec<_> =
        table.facts().iter().filter(|f| !schema.is_precise(f)).map(|f| schema.region(f)).collect();
    let g = AllocationGraph::build(&index, &regions);
    let (cell_labels, fact_labels, _n) = g.components_bfs();

    // Count only components containing at least one cell (region-less
    // facts are excluded from Transitive's census — they are
    // unallocatable) plus BFS singletons that are cells.
    let mut bfs_components = std::collections::HashSet::new();
    for l in &cell_labels {
        bfs_components.insert(*l);
    }
    let mut sizes: HashMap<u32, u64> = HashMap::new();
    for l in &cell_labels {
        *sizes.entry(*l).or_insert(0) += 1;
    }
    for l in &fact_labels {
        if bfs_components.contains(l) {
            *sizes.entry(*l).or_insert(0) += 1;
        }
    }
    assert_eq!(stats.total, bfs_components.len() as u64, "component counts");
    assert_eq!(stats.largest, sizes.values().copied().max().unwrap_or(0), "largest component size");
}

#[test]
fn measure_policy_agrees_across_algorithms() {
    let table = generate(&GeneratorConfig::automotive(2_000, 9));
    let policy = PolicySpec::em_measure(0.02);
    let reference = weights_of(&table, &policy, Algorithm::Basic, 4096);
    for alg in [Algorithm::Block, Algorithm::Transitive] {
        let got = weights_of(&table, &policy, alg, 4096);
        assert_same(&reference, &got, &format!("{alg}"));
    }
}
