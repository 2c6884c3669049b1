//! The paper's I/O analysis as executable assertions.
//!
//! Theorem 7 (Block): `3T(|S|·|C| + |I|)` I/Os — linear in the iteration
//! count `T`. Theorem 10 (Transitive): `2(|S||C|+|I|) + 5(|C|+|I|) +
//! 3|L|(T+1)` — *independent* of `T` when every component fits the buffer
//! (`|L| = 0`). These shapes, not the constants, are what the evaluation
//! (and this test) checks: Block's measured allocation I/O must grow
//! roughly linearly with pinned iteration counts, Transitive's must stay
//! flat, and Independent must exceed Block (the `7T·W|C|` sorts).

use iolap::core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap::datagen::{generate, scaled, DatasetKind, GeneratorConfig};
use iolap::model::FactTable;

fn table() -> FactTable {
    // Big enough that C and I span hundreds of pages.
    generate(&GeneratorConfig::automotive(30_000, 13))
}

/// Allocation-phase I/O at a pinned iteration count, under a buffer much
/// smaller than the files (so caching cannot absorb the passes).
fn alloc_ios(table: &FactTable, alg: Algorithm, iters: u32) -> u64 {
    let policy = PolicySpec::em_count(0.0).with_max_iters(iters);
    let cfg = AllocConfig::builder().in_memory(96).build(); // 384 KB
    let run = allocate(table, &policy, alg, &cfg).unwrap();
    assert_eq!(run.report.iterations, iters);
    run.report.io_alloc.total()
}

#[test]
fn block_io_grows_linearly_with_iterations() {
    let t = table();
    let io2 = alloc_ios(&t, Algorithm::Block, 2);
    let io6 = alloc_ios(&t, Algorithm::Block, 6);
    let ratio = io6 as f64 / io2 as f64;
    // Theorem 7 predicts exactly 3.0; allow slack for cache edge effects.
    assert!((2.2..=3.8).contains(&ratio), "Block I/O ratio T=6/T=2 was {ratio:.2} ({io2} → {io6})");
}

#[test]
fn transitive_io_is_independent_of_iterations() {
    let t = table();
    let io2 = alloc_ios(&t, Algorithm::Transitive, 2);
    let io6 = alloc_ios(&t, Algorithm::Transitive, 6);
    let ratio = io6 as f64 / io2 as f64;
    // Theorem 10 with |L| = 0: identical I/O regardless of T.
    assert!(
        (0.9..=1.1).contains(&ratio),
        "Transitive I/O ratio T=6/T=2 was {ratio:.2} ({io2} → {io6})"
    );
}

#[test]
fn independent_io_dominates_block() {
    let t = table();
    let ind = alloc_ios(&t, Algorithm::Independent, 3);
    let blk = alloc_ios(&t, Algorithm::Block, 3);
    // Theorem 6 vs 7: 7T(W|C|+|I|) vs 3T(|S||C|+|I|); with W ≈ 10 and
    // |S| = 1 the gap is large.
    assert!(ind > 3 * blk, "Independent ({ind}) should dwarf Block ({blk})");
}

#[test]
fn block_io_tracks_theorem7_magnitude() {
    let t = table();
    let policy = PolicySpec::em_count(0.0).with_max_iters(4);
    let cfg = AllocConfig::builder().in_memory(96).build();
    let run = allocate(&t, &policy, Algorithm::Block, &cfg).unwrap();
    let c_pages = run.prep.cells.num_pages();
    let i_pages = run.prep.facts.num_pages();
    let s = run.report.num_table_sets.max(1);
    let t_iters = 4u64;
    let predicted = 3 * t_iters * (s * c_pages + i_pages);
    let measured = run.report.io_alloc.total();
    let ratio = measured as f64 / predicted as f64;
    // The same asymptotic term, within a small constant (our windows and
    // partial caching shift the constant a little).
    assert!(
        (0.4..=2.0).contains(&ratio),
        "measured {measured} vs Theorem 7 prediction {predicted} (ratio {ratio:.2})"
    );
}

/// Accounted page traffic of one run: (reads, writes) of the prep, alloc and
/// EDB phases, pool hits and misses, EDB entries.
type Pinned = ([(u64, u64); 3], (u64, u64), u64);

#[test]
fn accounted_io_is_pinned_per_algorithm() {
    // The cost model counts every transfer at a fixed point of the one
    // synchronous schedule, so a change to the pager, pool or record-file
    // layers that moves a single page shows up here as a number, not as a
    // tolerance. Re-record only with a change that is meant to move
    // accounted I/O, and say so (DESIGN.md §2.13).
    const PINNED: [(Algorithm, Pinned); 4] = [
        (Algorithm::Basic, ([(0, 66), (0, 0), (28, 41)], (222, 28), 3600)),
        (Algorithm::Independent, ([(0, 66), (93, 1439), (51, 75)], (12308, 144), 3600)),
        (Algorithm::Block, ([(0, 66), (0, 0), (28, 41)], (22038, 28), 3600)),
        (Algorithm::Transitive, ([(0, 66), (23, 73), (28, 42)], (10769, 51), 3600)),
    ];
    let t = scaled(DatasetKind::Automotive, 5_000, 42);
    let policy = PolicySpec::em_count(0.01);
    let cfg = AllocConfig::builder().in_memory(96).build();
    for (alg, want) in PINNED {
        let run = allocate(&t, &policy, alg, &cfg).unwrap();
        let r = &run.report;
        let got: Pinned = (
            [r.io_prep, r.io_alloc, r.io_edb].map(|io| (io.reads, io.writes)),
            (r.pool_hits, r.pool_misses),
            run.edb.num_entries(),
        );
        assert_eq!(got, want, "{alg}: accounted I/O moved");
    }
}
