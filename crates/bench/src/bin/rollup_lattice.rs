//! Rollup-lattice benchmark: coarse-level rollups planned over the
//! materialized cuboid lattice vs the same queries leaf-scanned, across
//! the maintenance lifecycle.
//!
//! The lattice (DESIGN.md §2.18) pre-aggregates each published segment
//! at greedily selected level-vectors; the planner answers the
//! grain-aligned core of a rollup from the coarsest usable cuboid's
//! mini-segment and leaf-scans only the partial-overlap residue. Because
//! every cuboid cell stores exactly the bits a fresh leaf scan of that
//! cell produces and the merge order is deterministic, the planned
//! answer is **f64-bit-identical** to the forced-leaf execution of the
//! same plan — this binary asserts that per query, in all three phases:
//!
//! * **cold** — lattice built fresh over the base segment;
//! * **post-update** — after an `apply_updates` batch: the touched boxes
//!   mark dirty cuboid cells, recomputed at the next lattice snapshot;
//! * **post-compaction** — after tiers merge: cuboids rebuilt whole
//!   against the re-encoded segment.
//!
//! Enforced gates (any failure exits non-zero — CI smoke check): bit
//! identity between the Lattice and ForcedLeaf modes on every query and
//! phase; agreement with the lattice-less leaf baseline within float
//! tolerance; and the coarse full-space rollup workload must read at
//! least `--min-gain`× fewer pages AND bytes through the lattice than
//! the leaf baseline (default 10×).
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin rollup_lattice
//! cargo run --release -p iolap-bench --bin rollup_lattice -- --facts 5000 --json BENCH_rollup.json
//! ```

use iolap_bench::runs::{bench_config, print_table, write_json};
use iolap_bench::{Args, Json};
use iolap_core::maintain::FactUpdate;
use iolap_core::{
    allocate, Algorithm, CuboidLattice, LatticeConfig, MaintainableEdb, PolicySpec, SegmentView,
};
use iolap_datagen::scaled;
use iolap_model::{RegionBox, Schema, MAX_DIMS};
use iolap_query::{plan_aggregate_views, plan_rollup_views, AggFn, PlanMode, RollupRow};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Per-workload running totals across all phases.
#[derive(Default, Clone, Copy)]
struct Totals {
    lat_pages: u64,
    lat_bytes: u64,
    base_pages: u64,
    base_bytes: u64,
    hits: u64,
    misses: u64,
    lat_us: f64,
    base_us: f64,
    queries: u64,
}

/// `rows` must carry the same nodes in the same order with bit-equal
/// sums and counts; returns false (and prints) on divergence.
fn rows_bit_equal(phase: &str, label: &str, a: &[RollupRow], b: &[RollupRow]) -> bool {
    if a.len() != b.len() {
        eprintln!("DIVERGED: {phase} {label}: {} vs {} rows", a.len(), b.len());
        return false;
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if x.node != y.node
            || x.result.sum.to_bits() != y.result.sum.to_bits()
            || x.result.count.to_bits() != y.result.count.to_bits()
        {
            eprintln!(
                "DIVERGED: {phase} {label} node {}: ({}, {}) vs ({}, {})",
                x.name, x.result.sum, x.result.count, y.result.sum, y.result.count
            );
            return false;
        }
    }
    true
}

/// Leaf-baseline agreement: same plan-independent answer up to float
/// associativity (the piecewise merge legitimately reorders the sums).
fn rows_close(phase: &str, label: &str, a: &[RollupRow], b: &[RollupRow]) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * (1.0 + x.abs().max(y.abs()));
    for (x, y) in a.iter().zip(b.iter()) {
        if !close(x.result.sum, y.result.sum) || !close(x.result.count, y.result.count) {
            eprintln!(
                "DIVERGED: {phase} {label} node {} vs leaf baseline: ({}, {}) vs ({}, {})",
                x.name, x.result.sum, x.result.count, y.result.sum, y.result.count
            );
            return false;
        }
    }
    true
}

/// Run one rollup three ways (lattice, forced-leaf, no-lattice baseline),
/// check identity, and fold the counters into `t`.
#[allow(clippy::too_many_arguments)]
fn measure(
    phase: &str,
    views: &[SegmentView],
    lattice: &CuboidLattice,
    schema: &Schema,
    dim: usize,
    level: u8,
    region: Option<&RegionBox>,
    t: &mut Totals,
    diverged: &mut bool,
) -> (u64, u64) {
    let label = format!("rollup dim {dim} level {level} diced {}", region.is_some());
    let t0 = Instant::now();
    let (rows, stats) = plan_rollup_views(
        views,
        Some(lattice),
        schema,
        dim,
        level,
        region,
        AggFn::Sum,
        PlanMode::Lattice,
    )
    .expect("lattice rollup");
    let lat_us = t0.elapsed().as_secs_f64() * 1e6;
    let (forced, fstats) = plan_rollup_views(
        views,
        Some(lattice),
        schema,
        dim,
        level,
        region,
        AggFn::Sum,
        PlanMode::ForcedLeaf,
    )
    .expect("forced-leaf rollup");
    let t1 = Instant::now();
    let (base, bstats) =
        plan_rollup_views(views, None, schema, dim, level, region, AggFn::Sum, PlanMode::Lattice)
            .expect("leaf baseline rollup");
    let base_us = t1.elapsed().as_secs_f64() * 1e6;

    if !rows_bit_equal(phase, &label, &rows, &forced) || !rows_close(phase, &label, &rows, &base) {
        *diverged = true;
    }
    if (stats.cuboid_hits, stats.cuboid_misses) != (fstats.cuboid_hits, fstats.cuboid_misses) {
        eprintln!("DIVERGED: {phase} {label}: plan shape differs between modes");
        *diverged = true;
    }
    t.lat_pages += stats.scan.pages_read;
    t.lat_bytes += stats.scan.bytes_read;
    t.base_pages += bstats.scan.pages_read;
    t.base_bytes += bstats.scan.bytes_read;
    t.hits += stats.cuboid_hits;
    t.misses += stats.cuboid_misses;
    t.lat_us += lat_us;
    t.base_us += base_us;
    t.queries += 1;
    (stats.scan.pages_read, bstats.scan.pages_read)
}

fn main() {
    let args = Args::parse(20_000);
    let min_gain: f64 = args.extra_or("min-gain", 10.0);
    let diced_queries: usize = args.extra_or("diced-queries", 24);
    let epsilon: f64 = args.extra_or("eps", 0.01);
    let buffer_pages: usize = args.extra_or("buffer-pages", 2048);
    let update_pct: f64 = args.extra_or("update-pct", 1.0);

    let table = scaled(args.dataset, args.facts, args.seed);
    let schema = table.schema().clone();
    let k = schema.k();
    println!("Rollup lattice — {:?} dataset, {} facts, {k} dimensions", args.dataset, args.facts);

    let obs = args.obs();
    let cfg = bench_config(buffer_pages, args.on_disk, args.threads, obs.clone());
    let policy = PolicySpec::em_count(epsilon).with_max_iters(16);
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).expect("allocation");
    let all_facts: Vec<u64> = table.facts().iter().map(|f| f.id).collect();
    let mut medb = MaintainableEdb::build(run, policy).expect("maintainable");
    // A serving-tier budget: enough cuboids that every dimension's
    // coarse rollup finds a usable grain.
    medb.set_lattice_config(LatticeConfig {
        budget_bytes: 8 << 20,
        min_segment_entries: 1,
        max_cuboids: 16,
    });

    // The coarse workload the gate measures: for each dimension, the
    // full-space rollup at its top named (non-ALL) level.
    let coarse: Vec<(usize, u8)> =
        (0..k).map(|d| (d, (schema.dim(d).levels() - 1).max(1))).collect();
    // Diced: the same rollups restricted to random boxes (reported and
    // bit-checked, not perf-gated — residue scans legitimately dominate
    // narrow dices).
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e97_13a7);
    let diced: Vec<(usize, u8, RegionBox)> = (0..diced_queries)
        .map(|_| {
            let (d, l) = coarse[rng.random_range(0..k)];
            let mut lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            for dd in 0..k {
                let leaves = schema.dim(dd).num_leaves();
                let width = rng.random_range(1..=leaves);
                let start = rng.random_range(0..=leaves - width);
                lo[dd] = start;
                hi[dd] = start + width;
            }
            (d, l, RegionBox { lo, hi, k: k as u8 })
        })
        .collect();

    let n_updates = ((args.facts as f64) * update_pct / 100.0).max(1.0) as usize;
    let batch = |salt: u64| -> Vec<FactUpdate> {
        (0..n_updates)
            .map(|i| {
                let idx = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(args.seed ^ salt)
                    % all_facts.len() as u64;
                FactUpdate { fact_id: all_facts[idx as usize], new_measure: 500.0 + i as f64 }
            })
            .collect()
    };

    let mut diverged = false;
    let mut coarse_tot = Totals::default();
    let mut diced_tot = Totals::default();
    let mut points = Vec::new();
    let mut rows = Vec::new();

    for phase in ["cold", "post-update", "post-compaction"] {
        match phase {
            "post-update" => {
                medb.apply_updates(&batch(0x9e37)).expect("update batch");
            }
            "post-compaction" => {
                medb.set_compaction_threshold(1);
                medb.apply_updates(&batch(0x85eb)).expect("update batch");
            }
            _ => {}
        }
        let views = medb.snapshot_segments().expect("segments");
        let lattice = medb.snapshot_lattice().expect("lattice");
        if phase == "post-compaction" {
            assert!(medb.num_compactions() > 0, "threshold 1 must have compacted");
        }

        // Full-space aggregates are the degenerate rollup — bit-check
        // them too (SUM/COUNT/AVG share one accumulation).
        let all = {
            let lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            for (d, h) in hi.iter_mut().enumerate().take(k) {
                *h = schema.dim(d).num_leaves();
            }
            RegionBox { lo, hi, k: k as u8 }
        };
        let (a, _) = plan_aggregate_views(
            &views,
            Some(&lattice),
            &schema,
            &all,
            AggFn::Sum,
            PlanMode::Lattice,
        )
        .expect("aggregate");
        let (b, _) = plan_aggregate_views(
            &views,
            Some(&lattice),
            &schema,
            &all,
            AggFn::Sum,
            PlanMode::ForcedLeaf,
        )
        .expect("aggregate");
        if a.sum.to_bits() != b.sum.to_bits() || a.count.to_bits() != b.count.to_bits() {
            eprintln!("DIVERGED: {phase} full-space aggregate: ({}, {})", a.sum - b.sum, a.count);
            diverged = true;
        }

        let phase_start = coarse_tot;
        for &(d, l) in &coarse {
            let (lp, bp) = measure(
                phase,
                &views,
                &lattice,
                &schema,
                d,
                l,
                None,
                &mut coarse_tot,
                &mut diverged,
            );
            points.push(vec![
                ("kind", Json::S("coarse".into())),
                ("phase", Json::S(phase.into())),
                ("dim", Json::U(d as u64)),
                ("level", Json::U(l as u64)),
                ("lattice_pages", Json::U(lp)),
                ("baseline_pages", Json::U(bp)),
            ]);
        }
        for (i, (d, l, bx)) in diced.iter().enumerate() {
            let (lp, bp) = measure(
                phase,
                &views,
                &lattice,
                &schema,
                *d,
                *l,
                Some(bx),
                &mut diced_tot,
                &mut diverged,
            );
            points.push(vec![
                ("kind", Json::S("diced".into())),
                ("phase", Json::S(phase.into())),
                ("query", Json::U(i as u64)),
                ("box_cells", Json::U(bx.num_cells())),
                ("lattice_pages", Json::U(lp)),
                ("baseline_pages", Json::U(bp)),
            ]);
        }

        let seg_pages: u64 = views.iter().map(|v| v.segment.num_pages()).sum();
        rows.push(vec![
            phase.to_string(),
            format!("{}", views.len()),
            format!("{seg_pages}"),
            format!("{}", lattice.num_cuboids()),
            format!("{}", lattice.encoded_bytes()),
            format!("{}", coarse_tot.lat_pages - phase_start.lat_pages),
            format!("{}", coarse_tot.base_pages - phase_start.base_pages),
            format!(
                "{}/{}",
                coarse_tot.hits - phase_start.hits,
                coarse_tot.misses - phase_start.misses
            ),
        ]);
    }

    print_table(
        "coarse full-space rollups: lattice vs leaf baseline, per phase",
        &[
            "phase",
            "segs",
            "seg pages",
            "cuboids",
            "lattice bytes",
            "lat pages",
            "base pages",
            "hit/miss",
        ],
        &rows,
    );

    let page_gain = coarse_tot.base_pages as f64 / coarse_tot.lat_pages.max(1) as f64;
    let byte_gain = coarse_tot.base_bytes as f64 / coarse_tot.lat_bytes.max(1) as f64;
    println!(
        "coarse gate: pages {}→{} ({page_gain:.1}×), bytes {}→{} ({byte_gain:.1}×), \
         {:.1} µs/query vs {:.1} µs/query leaf",
        coarse_tot.base_pages,
        coarse_tot.lat_pages,
        coarse_tot.base_bytes,
        coarse_tot.lat_bytes,
        coarse_tot.lat_us / coarse_tot.queries.max(1) as f64,
        coarse_tot.base_us / coarse_tot.queries.max(1) as f64,
    );
    println!(
        "diced (not gated): pages {}→{}, cuboid hit/miss {}/{}",
        diced_tot.base_pages, diced_tot.lat_pages, diced_tot.hits, diced_tot.misses
    );

    let path = args.json.as_deref().unwrap_or("BENCH_rollup.json");
    let meta = vec![
        ("experiment", Json::S("rollup_lattice".into())),
        ("dataset", Json::S(format!("{:?}", args.dataset))),
        ("facts", Json::U(args.facts)),
        ("seed", Json::U(args.seed)),
        ("update_batch", Json::U(n_updates as u64)),
        ("coarse_queries", Json::U(coarse_tot.queries)),
        ("diced_queries", Json::U(diced_tot.queries)),
        ("coarse.lattice_pages", Json::U(coarse_tot.lat_pages)),
        ("coarse.baseline_pages", Json::U(coarse_tot.base_pages)),
        ("coarse.lattice_bytes", Json::U(coarse_tot.lat_bytes)),
        ("coarse.baseline_bytes", Json::U(coarse_tot.base_bytes)),
        ("coarse.page_gain", Json::F(page_gain)),
        ("coarse.byte_gain", Json::F(byte_gain)),
        ("coarse.cuboid_hits", Json::U(coarse_tot.hits)),
        ("coarse.cuboid_misses", Json::U(coarse_tot.misses)),
        ("coarse.lattice_mean_us", Json::F(coarse_tot.lat_us / coarse_tot.queries.max(1) as f64)),
        ("coarse.baseline_mean_us", Json::F(coarse_tot.base_us / coarse_tot.queries.max(1) as f64)),
        ("diced.lattice_pages", Json::U(diced_tot.lat_pages)),
        ("diced.baseline_pages", Json::U(diced_tot.base_pages)),
        ("diced.cuboid_hits", Json::U(diced_tot.hits)),
        ("diced.cuboid_misses", Json::U(diced_tot.misses)),
        ("bit_identical", Json::B(!diverged)),
    ];
    write_json(path, &meta, &points).expect("write BENCH_rollup.json");
    obs.flush();

    if diverged {
        eprintln!("a lattice-planned answer changed bits vs the forced-leaf plan — failing");
        std::process::exit(1);
    }
    if page_gain < min_gain || byte_gain < min_gain {
        eprintln!(
            "coarse rollup gain pages {page_gain:.1}× / bytes {byte_gain:.1}× below the \
             {min_gain}× bar — failing"
        );
        std::process::exit(1);
    }
}
