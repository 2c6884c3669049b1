//! The paper's I/O analysis as executable assertions.
//!
//! Theorem 7 (Block): `3T(|S|·|C| + |I|)` I/Os — linear in the iteration
//! count `T`. Theorem 10 (Transitive): `2(|S||C|+|I|) + 5(|C|+|I|) +
//! 3|L|(T+1)` — *independent* of `T` when every component fits the buffer
//! (`|L| = 0`). These shapes, not the constants, are what the evaluation
//! (and this test) checks: Block's measured allocation I/O must grow
//! roughly linearly with pinned iteration counts, Transitive's must stay
//! flat, and Independent must exceed Block (the `7T·W|C|` sorts).

use iolap::core::{
    allocate, Algorithm, AllocConfig, AllocConfigBuilder, AllocationRun, PolicySpec,
};
use iolap::datagen::{generate, scaled, DatasetKind, GeneratorConfig};
use iolap::model::FactTable;
use iolap::obs::Obs;

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

/// One run on the small fixed dataset every pinned constant below is
/// recorded on: ε = 0.01 under a `pages`-page buffer. `cfg` carries the
/// knob under test, if any.
fn pinned_run(alg: Algorithm, pages: usize, cfg: AllocConfigBuilder) -> AllocationRun {
    let t = scaled(DatasetKind::Automotive, 5_000, 42);
    allocate(&t, &PolicySpec::em_count(0.01), alg, &cfg.in_memory(pages).build()).unwrap()
}

/// Accounted page traffic of one run: (reads, writes) of the prep, alloc and
/// EDB phases, pool hits and misses, EDB entries.
type Pinned = ([(u64, u64); 3], (u64, u64), u64);

/// The [`Pinned`] traffic of `run`.
fn pinned(run: &AllocationRun) -> Pinned {
    let r = &run.report;
    (
        [r.io_prep, r.io_alloc, r.io_edb].map(|io| (io.reads, io.writes)),
        (r.pool_hits, r.pool_misses),
        run.edb.num_entries(),
    )
}

#[test]
fn accounted_io_is_pinned_per_algorithm() {
    // The cost model counts every transfer at a fixed point of the one
    // synchronous schedule, so a change to the pager, pool or record-file
    // layers that moves a single page shows up here as a number, not as a
    // tolerance. Re-record only with a change that is meant to move
    // accounted I/O, and say so (DESIGN.md §2.13).
    const PINNED: [(Algorithm, Pinned); 4] = [
        (Algorithm::Basic, ([(0, 0), (0, 0), (0, 33)], (250, 0), 3600)),
        (Algorithm::Independent, ([(0, 0), (88, 53), (40, 31)], (12324, 128), 3600)),
        (Algorithm::Block, ([(0, 0), (0, 0), (0, 33)], (22066, 0), 3600)),
        (Algorithm::Transitive, ([(0, 0), (23, 43), (20, 29)], (10777, 43), 3600)),
    ];
    for (alg, want) in PINNED {
        let run = pinned_run(alg, 96, AllocConfig::builder());
        assert_eq!(pinned(&run), want, "{alg}: accounted I/O moved");
    }
}

/// Section 11.1's in-memory experiment assumes no I/O once the data fits:
/// with a pool larger than every file, no algorithm charges a page in any
/// phase. Temp files (sort inputs and runs, Independent's chains) are
/// discarded with their files, never written back.
#[test]
fn the_in_memory_experiment_charges_no_io() {
    for alg in [Algorithm::Basic, Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
        let run = pinned_run(alg, 4096, AllocConfig::builder());
        let r = &run.report;
        let phases = [r.io_prep, r.io_alloc, r.io_edb].map(|io| (io.reads, io.writes));
        assert_eq!(phases, [(0, 0); 3], "{alg}: the in-memory run charged I/O");
        assert_eq!(r.pool_misses, 0, "{alg}");
    }
}

/// The constants above run under a single CLOCK: 96 pages is below
/// `SHARDING_THRESHOLD`. At 128 pages, the first striped size, each shard
/// runs its own CLOCK over its share, and that eviction order is what the
/// `e2e` ledger's `alloc_io_pages` was recorded under. One global CLOCK
/// at the same size charges the alloc phase (7, 7) and the EDB phase
/// (0, 1) instead of (5, 7) and (0, 6).
#[test]
fn transitive_io_is_pinned_under_a_striped_pool() {
    const PINNED: Pinned = ([(0, 0), (5, 7), (0, 6)], (10815, 5), 3600);
    let run = pinned_run(Algorithm::Transitive, 128, AllocConfig::builder());
    assert_eq!(pinned(&run), PINNED, "accounted I/O moved under the striped pool");
}

/// One fact's EDB entries as (cell, weight), in cell order.
type FactWeights = (u64, Vec<([u32; 8], f64)>);

/// One run's weights, facts in id order.
fn weights(run: &mut AllocationRun) -> Vec<FactWeights> {
    let mut m: Vec<_> = run.edb.weight_map().unwrap().into_iter().collect();
    m.sort_by_key(|(id, _)| *id);
    for (_, v) in &mut m {
        v.sort_by_key(|e| e.0);
    }
    m
}

/// Section 11.1's first ablation: Transitive iterates each component only
/// until *its* cells converge. Switched off, every component runs the
/// global cap; the work shows up in component iterations and nowhere in
/// accounted I/O (Theorem 10 with `|L| = 0`), and the weights agree with
/// the converged ones within ε.
#[test]
fn per_component_convergence_saves_iterations_not_io() {
    /// (Σ iterations over 58 components, `report.iterations`, alloc I/O).
    const ON: (u64, u32, (u64, u64)) = (124, 4, (23, 43));
    const OFF: (u64, u32, (u64, u64)) = (5800, 100, (23, 43));
    let mut runs = [(true, ON), (false, OFF)].map(|(on, want)| {
        let obs = Obs::metrics_only();
        let cfg = AllocConfig::builder().per_component_convergence(on).obs(obs.clone());
        let run = pinned_run(Algorithm::Transitive, 96, cfg);
        let iters = obs.histogram("transitive.component_iters").expect("metrics on");
        assert_eq!(iters.count(), 58, "components solved in memory");
        let io = run.report.io_alloc;
        assert_eq!(
            (iters.sum(), run.report.iterations, (io.reads, io.writes)),
            want,
            "per_component_convergence({on})"
        );
        run
    });
    let [on, off] = runs.each_mut().map(weights);
    assert_eq!(on.len(), off.len());
    for ((id, a), (id_off, b)) in on.iter().zip(&off) {
        assert_eq!((id, a.len()), (id_off, b.len()));
        for ((cell, w), (cell_off, w_off)) in a.iter().zip(b) {
            assert_eq!(cell, cell_off, "fact {id}");
            assert!((w - w_off).abs() < 0.01, "fact {id}: {w} vs {w_off}");
        }
    }
}

/// Section 11.1's second ablation: Algorithm 3 re-sorts the facts into
/// every summary table's order each iteration. Keeping the sorted chain
/// files instead (not in the paper) charges strictly fewer sort pages and
/// writes the same EDB. The cached chains write a few more pages (their
/// files stay live), so the relation holds on the total.
#[test]
fn cached_chains_save_independent_sort_pages_at_the_same_edb() {
    const PAPER: (u64, u64) = (88, 53);
    const CACHED: (u64, u64) = (27, 60);
    assert!(CACHED.0 + CACHED.1 < PAPER.0 + PAPER.1);
    let mut runs = [(true, PAPER), (false, CACHED)].map(|(resort, want)| {
        let cfg = AllocConfig::builder().resort_facts(resort);
        let run = pinned_run(Algorithm::Independent, 96, cfg);
        let io = run.report.io_alloc;
        assert_eq!((io.reads, io.writes), want, "resort_facts({resort})");
        assert_eq!(run.report.iterations, 4);
        run
    });
    // Weights are positive and finite, so `==` on f64 is bit equality.
    let [paper, cached] = runs.each_mut().map(weights);
    assert_eq!(paper, cached);
}
