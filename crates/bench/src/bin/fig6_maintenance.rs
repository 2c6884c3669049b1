//! Reproduce **Figure 6**: EDB maintenance cost vs. update volume.
//!
//! Three workload classes over the automotive dataset, as in Section 11.2:
//! 1. updates to precise facts overlapped by no imprecise fact
//!    ("Non-Overlap Precise" — flat, cheap);
//! 2. updates to randomly selected precise facts ("Random Precise");
//! 3. updates to randomly selected facts of any kind ("Random Fact").
//!
//! For each workload size (0.1 % … 10 % of the facts), the plotted value
//! is the ratio *update time / full rebuild time*; > 1 means rebuilding
//! would have been cheaper. Beside it, the `pins` column counts the
//! buffer-pool page pins (hits + misses) the batch took: a deterministic
//! measure of its work that does not move with the host. Pass `census=1`
//! to also print the connected-component distribution Section 11.2
//! reports.
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin fig6_maintenance
//! cargo run --release -p iolap-bench --bin fig6_maintenance -- --paper-scale census=1
//! ```

use iolap_bench::runs::print_table;
use iolap_bench::{Args, Json};
use iolap_core::maintain::{EdbMutation, MaintainableEdb};
use iolap_core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap_datagen::scaled;
use std::time::Instant;

fn main() {
    let args = Args::parse(100_000);
    let table = scaled(args.dataset, args.facts, args.seed);
    let schema = table.schema().clone();
    // EM-Measure: precise measure updates genuinely move weights, so the
    // re-allocation work the paper times actually happens.
    let policy = PolicySpec::em_measure(0.01);
    let obs = args.obs();
    let cfg = AllocConfig::builder()
        .buffer_pages(1 << 18)
        .in_memory_backing(!args.on_disk)
        .obs(obs.clone())
        .build();

    println!("Figure 6 — EDB maintenance, {:?} dataset, {} facts", args.dataset, args.facts);

    // Rebuild baseline (also provides the component census).
    let t0 = Instant::now();
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).expect("allocation");
    let rebuild = t0.elapsed();
    let stats = run.report.components.clone().expect("transitive run");
    println!(
        "rebuild takes {rebuild:?}; components: {} total, {} singleton cells, {} >20, {} >100, {} ≥1000, largest {}",
        stats.total, stats.singleton_cells, stats.over_20, stats.over_100, stats.over_1000,
        stats.largest
    );
    if args.extra_or("census", 0u32) == 1 {
        println!(
            "paper (real automotive): 283,199 components; 205,874 non-overlapped precise; 1,152 >20; 500 >100; 93 in 1000–7092"
        );
    }

    // Identify the workload pools.
    let mut non_overlap_precise: Vec<u64> = Vec::new();
    let mut all_precise: Vec<u64> = Vec::new();
    {
        let prep = &run.prep;
        let keys = prep.index.keys().to_vec();
        let mut deg = vec![0u32; keys.len()];
        for f in table.facts().iter().filter(|f| !schema.is_precise(f)) {
            prep.index.for_each_in_box(&schema.region(f), |i| deg[i as usize] += 1);
        }
        let degree_of: std::collections::HashMap<_, _> =
            keys.iter().enumerate().map(|(i, k)| (*k, deg[i])).collect();
        for f in table.facts() {
            if let Some(cell) = schema.cell_of(f) {
                all_precise.push(f.id);
                if degree_of[&cell] == 0 {
                    non_overlap_precise.push(f.id);
                }
            }
        }
    }
    let all_facts: Vec<u64> = table.facts().iter().map(|f| f.id).collect();

    // The maintained EDB keeps the run's environment, and with it the
    // buffer pool whose pins the work column counts.
    let env = run.prep.env.clone();
    let pins = || {
        let (hits, misses) = env.pool().hit_stats();
        hits + misses
    };
    let mut maintained = MaintainableEdb::build(run, policy.clone()).expect("maintainable");

    let workloads: Vec<(&str, &[u64])> = vec![
        ("Non-Overlap Precise", &non_overlap_precise),
        ("Random Precise", &all_precise),
        ("Random Fact", &all_facts),
    ];
    let percents = [0.1f64, 1.0, 2.5, 5.0, 10.0];

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (name, pool) in &workloads {
        for &pct in &percents {
            let n = ((args.facts as f64) * pct / 100.0).max(1.0) as usize;
            let updates: Vec<EdbMutation> = (0..n)
                .map(|i| {
                    // Deterministic pseudo-random pick from the pool.
                    let idx = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(args.seed)
                        % pool.len() as u64;
                    EdbMutation::UpdateMeasure {
                        fact_id: pool[idx as usize],
                        new_measure: 500.0 + i as f64,
                    }
                })
                .collect();
            let pins_before = pins();
            let rep = maintained.apply_batch(&updates).expect("updates");
            let batch_pins = pins() - pins_before;
            let ratio = rep.wall.as_secs_f64() / rebuild.as_secs_f64();
            points.push(vec![
                ("workload", Json::S(name.to_string())),
                ("percent", Json::F(pct)),
                ("updates", Json::U(n as u64)),
                ("components", Json::U(rep.affected_components)),
                ("tuples", Json::U(rep.affected_tuples)),
                ("pins", Json::U(batch_pins)),
                ("update_secs", Json::F(rep.wall.as_secs_f64())),
                ("ratio", Json::F(ratio)),
            ]);
            rows.push(vec![
                name.to_string(),
                format!("{pct}%"),
                format!("{n}"),
                format!("{}", rep.affected_components),
                format!("{}", rep.affected_tuples),
                format!("{batch_pins}"),
                format!("{:?}", rep.wall),
                format!("{ratio:.3}"),
            ]);
        }
    }
    print_table(
        "update time / rebuild time",
        &["workload", "size", "updates", "components", "tuples", "pins", "update time", "ratio"],
        &rows,
    );
    println!("\nPaper shape: Non-Overlap Precise flat and ≪ 1; the random workloads");
    println!("degrade past a few percent and cross 1 near 5–10 %.");
    if let Some(path) = &args.json {
        let meta = [
            ("figure", Json::S("6".into())),
            ("dataset", Json::S(format!("{:?}", args.dataset))),
            ("facts", Json::U(args.facts)),
            ("seed", Json::U(args.seed)),
            ("rebuild_secs", Json::F(rebuild.as_secs_f64())),
            ("components", Json::U(stats.total)),
        ];
        iolap_bench::runs::write_json(path, &meta, &points).expect("write --json output");
    }
    obs.flush();
}
