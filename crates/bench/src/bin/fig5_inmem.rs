//! Reproduce **Figures 5a–b**: in-memory running time vs. number of
//! iterations, for the automotive (5a) and synthetic (5b) datasets.
//!
//! The paper gives every algorithm a buffer larger than the fact table
//! ("the entire fact table fits into memory… directly compare the CPU
//! time each algorithm requires"), then sweeps ε so the run takes 2–10
//! iterations. Expected shape: Independent worst (re-sorting),
//! Block best at few iterations, Transitive flat and winning as the
//! iteration count grows.
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin fig5_inmem -- --dataset automotive
//! cargo run --release -p iolap-bench --bin fig5_inmem -- --dataset synthetic --paper-scale
//! ```

use iolap_bench::runs::{bench_config, print_table, run_once};
use iolap_bench::{Args, Json};
use iolap_core::Algorithm;
use iolap_datagen::scaled;

fn main() {
    let args = Args::parse(150_000);
    let table = scaled(args.dataset, args.facts, args.seed);
    println!("Figure 5a/b — in-memory CPU time, {:?} dataset, {} facts", args.dataset, args.facts);

    // Buffer comfortably larger than all working files.
    let buffer_pages = 1 << 20; // 4 GiB of page budget = effectively ∞
    let epsilons = [0.1f64, 0.05, 0.01, 0.005];

    let obs = args.obs();
    let cfg = bench_config(buffer_pages, args.on_disk, obs.clone());
    let algorithms = [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive];
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for eps in epsilons {
        for alg in algorithms {
            let p = run_once(&table, alg, eps, 60, &cfg);
            points.push(p.json_fields());
            rows.push(vec![
                format!("{eps}"),
                format!("{}", p.report.iterations),
                alg.to_string(),
                format!("{:.3}", p.alloc_secs()),
                format!("{}", p.alloc_ios()),
                if p.report.converged { "yes".into() } else { "CAP".into() },
            ]);
        }
    }
    print_table(
        "time vs iterations (in-memory)",
        &["epsilon", "iters", "algorithm", "alloc s", "alloc I/Os", "converged"],
        &rows,
    );
    println!("\nPaper shape: Independent > Block and > Transitive everywhere;");
    println!("Transitive ~flat in iterations and overtakes Block at higher iteration counts.");
    if let Some(path) = &args.json {
        let meta = [
            ("figure", Json::S("5a-b".into())),
            ("dataset", Json::S(format!("{:?}", args.dataset))),
            ("facts", Json::U(args.facts)),
            ("seed", Json::U(args.seed)),
        ];
        iolap_bench::runs::write_json(path, &meta, &points).expect("write --json output");
    }
    obs.flush();
}
