//! Reproduce **Table 2**: the dimension characteristics of the automotive
//! dataset, plus the Section 11 dataset description (fact counts, the
//! imprecision mix, summary-table count).
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin table2 -- --paper-scale
//! ```

use iolap_bench::runs::print_table;
use iolap_bench::{Args, Json};
use iolap_datagen::census::dimension_shape;
use iolap_datagen::{census, scaled};

fn main() {
    let args = Args::parse(100_000);
    let table = scaled(args.dataset, args.facts, args.seed);
    let c = census(&table);

    // The Table 2 replica: per dimension, each level's node count and the
    // percentage of facts taking a value from that level.
    let shape = dimension_shape(&table);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    let max_levels = shape.iter().map(Vec::len).max().unwrap_or(0);
    for t in 0..max_levels {
        // Row t from the top: ALL first, leaves last (as in the paper).
        let mut row = Vec::new();
        for (d, dim_shape) in shape.iter().enumerate() {
            if t < dim_shape.len() {
                let level_idx = dim_shape.len() - 1 - t;
                let (name, nodes) = &dim_shape[level_idx];
                let pct =
                    100.0 * c.per_dim_level_counts[d][level_idx] as f64 / c.n_facts.max(1) as f64;
                row.push(format!("{name}({nodes})({pct:.0}%)"));
                points.push(vec![
                    ("dimension", Json::U(d as u64)),
                    ("level", Json::S(name.to_string())),
                    ("nodes", Json::U(*nodes as u64)),
                    ("percent_facts", Json::F(pct)),
                ]);
            } else {
                row.push(String::new());
            }
        }
        rows.push(row);
    }
    print_table(
        &format!("Table 2 — dimensions of the {:?} dataset", args.dataset),
        &["SR-AREA", "BRAND", "TIME", "LOCATION"],
        &rows,
    );

    println!("\nDataset description (Section 11):");
    println!("{c}");
    println!("Paper's real data for reference: 797,570 facts; 557,255 precise;");
    println!("240,315 imprecise (30%); 67% / 33% / 0.01% imprecise in 1 / 2 / 3 dims;");
    println!("35 imprecise summary tables; no ALL values.");
    if let Some(path) = &args.json {
        let meta = [
            ("table", Json::S("2".into())),
            ("dataset", Json::S(format!("{:?}", args.dataset))),
            ("facts", Json::U(args.facts)),
            ("seed", Json::U(args.seed)),
        ];
        iolap_bench::runs::write_json(path, &meta, &points).expect("write --json output");
    }
}
