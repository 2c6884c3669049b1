//! Parallel-speedup experiment for the Transitive step-3 worker pool:
//! wall-clock of the allocation passes at 1/2/4/8 worker threads on the
//! synthetic (Figure 5b-style) dataset, buffer large enough that most
//! components stay buffer-resident (the parallelizable regime; external
//! components always run sequentially on the coordinator).
//!
//! Theorem 2 makes the schedule irrelevant to the fixpoint, so every row
//! reports the same iteration count and the same EDB — only the
//! wall-clock moves. Page I/O is identical across thread counts because
//! the coordinator performs all of it.
//!
//! A second sweep repeats the thread counts under a tiny (I/O-bound)
//! buffer, where speedup saturates on the coordinator's page I/O.
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin par_speedup
//! cargo run --release -p iolap-bench --bin par_speedup -- --facts 400000 --json BENCH_par.json
//! ```

use iolap_bench::runs::{bench_config, print_table, run_once, write_json};
use iolap_bench::{Args, Json};
use iolap_core::Algorithm;
use iolap_datagen::{scaled, DatasetKind};

fn main() {
    let mut args = Args::parse(200_000);
    args.dataset = DatasetKind::Synthetic;
    let table = scaled(args.dataset, args.facts, args.seed);
    let buffer_pages: usize = args.extra_or("buffer-pages", 1 << 16); // 256 MB
    let epsilon: f64 = args.extra_or("eps", 0.005);
    let repeats: u32 = args.extra_or("repeats", 3);
    println!(
        "Parallel speedup — Transitive step 3, synthetic dataset, {} facts, \
         {buffer_pages} pages, ε = {epsilon}, best of {repeats}",
        args.facts
    );

    let obs = args.obs();
    let thread_counts = [1usize, 2, 4, 8];
    let mut points = Vec::new();
    // Two regimes: the CPU-bound one the worker pool targets (components
    // buffer-resident), and an I/O-bound one (tiny pool, hit ratio well
    // under 0.9) where wall-clock is dominated by the coordinator's page
    // I/O.
    let io_bound_pages: usize = args.extra_or("io-buffer-pages", 96);
    for (label, pages) in [
        ("CPU-bound (components resident)", buffer_pages),
        ("I/O-bound (tiny pool)", io_bound_pages),
    ] {
        let mut rows = Vec::new();
        let mut base_secs = 0.0f64;
        for threads in thread_counts {
            let cfg = bench_config(pages, args.on_disk, threads, obs.clone());
            // Best-of-N: the quantity of interest is the schedule's cost,
            // not allocator/OS noise.
            let mut best = run_once(&table, Algorithm::Transitive, epsilon, 60, &cfg);
            for _ in 1..repeats {
                let p = run_once(&table, Algorithm::Transitive, epsilon, 60, &cfg);
                if p.alloc_secs() < best.alloc_secs() {
                    best = p;
                }
            }
            if threads == 1 {
                base_secs = best.alloc_secs();
            }
            let speedup = base_secs / best.alloc_secs();
            let mut fields = best.json_fields();
            fields.push(("speedup", Json::F(speedup)));
            points.push(fields);
            rows.push(vec![
                format!("{threads}"),
                format!("{}", best.report.iterations),
                format!("{:.3}", best.alloc_secs()),
                format!("{:.2}x", speedup),
                format!("{}", best.alloc_ios()),
                format!("{:.3}", best.report.pool_hit_ratio()),
            ]);
        }
        print_table(
            &format!("Transitive alloc wall-clock vs worker threads — {label}, {pages} pages"),
            &["threads", "iters", "alloc s", "speedup", "alloc I/Os", "hit ratio"],
            &rows,
        );
    }

    let path = args.json.as_deref().unwrap_or("BENCH_par.json");
    let meta = [
        ("experiment", Json::S("par_speedup".into())),
        ("dataset", Json::S(format!("{:?}", args.dataset))),
        ("facts", Json::U(args.facts)),
        ("seed", Json::U(args.seed)),
        ("buffer_pages", Json::U(buffer_pages as u64)),
        ("epsilon", Json::F(epsilon)),
        ("repeats", Json::U(u64::from(repeats))),
    ];
    write_json(path, &meta, &points).expect("write BENCH_par.json");
    obs.flush();
}
