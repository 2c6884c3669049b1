//! Reproduce **Figures 5c–h**: running time vs. buffer size, at three
//! convergence thresholds, for the automotive (5c–e) and synthetic (5f–h)
//! datasets.
//!
//! The paper's buffers: 600 KB, 1 MB, 2 MB (automotive) / 6 MB
//! (synthetic), 12 MB against a 32 MB fact table. Expected shapes:
//! automotive curves flat (total partition size 143 pages < 600 KB);
//! synthetic Block/Transitive improve as |S| drops 3 → 1; Independent
//! worst throughout; Block beats Transitive at few iterations, Transitive
//! wins at many.
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin fig5_buffer -- --dataset automotive
//! cargo run --release -p iolap-bench --bin fig5_buffer -- --dataset synthetic
//! ```

use iolap_bench::runs::{bench_config, kb_to_pages, print_table, run_once};
use iolap_bench::{Args, Json};
use iolap_core::Algorithm;
use iolap_datagen::{scaled, DatasetKind};

fn main() {
    let args = Args::parse(200_000);
    let table = scaled(args.dataset, args.facts, args.seed);
    println!(
        "Figures 5c–h — time vs buffer size, {:?} dataset, {} facts",
        args.dataset, args.facts
    );

    // The 128/256 KB rows sit *below* the paper's smallest buffer: they are
    // the I/O-bound regime (pool hit ratio well under 0.9), which the
    // publication-size grid never exercises.
    let buffers_kb: Vec<u64> = match args.dataset {
        DatasetKind::Automotive => vec![128, 256, 600, 1024, 2 * 1024, 12 * 1024],
        DatasetKind::Synthetic => vec![128, 256, 600, 1024, 6 * 1024, 12 * 1024],
    };
    let epsilons = [0.1f64, 0.05, 0.005];
    let algorithms = [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive];

    let obs = args.obs();
    let mut points = Vec::new();
    for eps in epsilons {
        let mut rows = Vec::new();
        for &kb in &buffers_kb {
            for alg in algorithms {
                let cfg = bench_config(kb_to_pages(kb), args.on_disk, obs.clone());
                let p = run_once(&table, alg, eps, 60, &cfg);
                points.push(p.json_fields());
                rows.push(vec![
                    format!("{} KB", kb),
                    alg.to_string(),
                    format!("{}", p.report.iterations),
                    format!("{:.3}", p.alloc_secs()),
                    format!("{}", p.alloc_ios()),
                    format!("{}", p.report.num_table_sets.max(1)),
                    format!("{}", p.report.partition_pages),
                ]);
            }
        }
        print_table(
            &format!("epsilon = {eps}"),
            &["buffer", "algorithm", "iters", "alloc s", "alloc I/Os", "|S|", "|P| pages"],
            &rows,
        );
    }
    if let Some(path) = &args.json {
        let meta = [
            ("figure", Json::S("5c-h".into())),
            ("dataset", Json::S(format!("{:?}", args.dataset))),
            ("facts", Json::U(args.facts)),
            ("seed", Json::U(args.seed)),
        ];
        iolap_bench::runs::write_json(path, &meta, &points).expect("write --json output");
    }
    obs.flush();
}
