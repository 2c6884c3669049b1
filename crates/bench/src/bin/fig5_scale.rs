//! Reproduce **Figures 5i–j**: the scalability experiment — 5M-tuple
//! synthetic datasets (200 MB, 30 % imprecise) with proportionally larger
//! buffers, Block vs. Transitive at ε = 0.005.
//!
//! Defaults to a laptop-scale slice (500k facts, buffers scaled by the
//! same factor); `--paper-scale` runs the full 5M. Expected shape:
//! relative behaviour identical to the smaller experiment (Block ahead at
//! few iterations, Transitive stable and competitive, both improving
//! modestly with buffer size).
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin fig5_scale
//! cargo run --release -p iolap-bench --bin fig5_scale -- --paper-scale
//! ```

use iolap_bench::runs::{bench_config, kb_to_pages, print_table, run_once};
use iolap_bench::{Args, Json};
use iolap_core::Algorithm;
use iolap_datagen::{scaled, DatasetKind};

fn main() {
    let mut args = Args::parse(500_000);
    if args.paper_scale {
        args.facts = 5_000_000;
    }
    // Buffers from the paper, scaled with the dataset.
    let scale = args.facts as f64 / 5_000_000.0;
    let fig5i_kb: Vec<u64> =
        [4 * 1024, 10 * 1024, 40 * 1024, 50 * 1024].iter().map(|&kb| scale_kb(kb, scale)).collect();
    let fig5j_kb: Vec<u64> =
        [7 * 1024, 20 * 1024, 50 * 1024].iter().map(|&kb| scale_kb(kb, scale)).collect();

    let obs = args.obs();
    let mut points = Vec::new();
    for (fig, seed_off, buffers) in [("5i", 0u64, &fig5i_kb), ("5j", 1, &fig5j_kb)] {
        let table = scaled(DatasetKind::Synthetic, args.facts, args.seed + seed_off);
        println!("\nFigure {fig} — synthetic dataset, {} facts, ε = 0.005", args.facts);
        let mut rows = Vec::new();
        for &kb in buffers {
            for alg in [Algorithm::Block, Algorithm::Transitive] {
                let cfg = bench_config(kb_to_pages(kb), args.on_disk, obs.clone());
                let p = run_once(&table, alg, 0.005, 60, &cfg);
                let mut fields = p.json_fields();
                fields.push(("figure", Json::S(fig.to_string())));
                points.push(fields);
                rows.push(vec![
                    format!("{:.1} MB", kb as f64 / 1024.0),
                    alg.to_string(),
                    format!("{}", p.report.iterations),
                    format!("{:.3}", p.alloc_secs()),
                    format!("{}", p.alloc_ios()),
                    format!("{}", p.report.num_table_sets.max(1)),
                ]);
            }
        }
        print_table(
            &format!("Figure {fig}"),
            &["buffer", "algorithm", "iters", "alloc s", "alloc I/Os", "|S|"],
            &rows,
        );
    }
    if let Some(path) = &args.json {
        let meta = [
            ("figure", Json::S("5i-j".into())),
            ("facts", Json::U(args.facts)),
            ("seed", Json::U(args.seed)),
        ];
        iolap_bench::runs::write_json(path, &meta, &points).expect("write --json output");
    }
    obs.flush();
}

fn scale_kb(kb: u64, scale: f64) -> u64 {
    ((kb as f64 * scale).round() as u64).max(256)
}
