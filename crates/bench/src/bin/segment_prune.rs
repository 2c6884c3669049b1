//! Fence-pruning benchmark: selective region queries over the segment
//! layer, pruned scan vs full scan, across page layouts.
//!
//! The segment footer's per-page fence intervals (min/max leaf id per
//! dimension) let a query skip every page provably disjoint from its box
//! — Theorem 12's contrapositive: a page whose fences miss the box on
//! some dimension cannot contain a contributing entry. The contract is
//! that pruning only ever skips such pages, so the visited entry sequence
//! — and therefore every f64 in the answer — is **bit-identical** to the
//! unpruned scan *of the same layout*.
//!
//! This binary compares four layouts built from the same allocation:
//!
//! * `v1-canonical` — the PR 5 baseline: row pages, canonical order;
//! * `v2-canonical` — compressed columnar pages, canonical order (the
//!   default): identical entry order, so identical answer bits, fewer
//!   bytes at rest;
//! * `v1-morton` — row pages reordered along the Morton curve: the
//!   uncompressed reference for the Morton accumulation order;
//! * `v2-morton` — compressed columnar pages in Morton order: fences
//!   tighten in every dimension, multiplying prune rates.
//!
//! Enforced gates (any failure exits non-zero — CI smoke check):
//! answer bits identical between pruned and full scans within each
//! layout; compressed scans bit-identical to the uncompressed full scan
//! of the same order; `v1-canonical` full/pruned page ratio ≥
//! `--min-ratio`; and `v2-morton` reads ≥ `--min-v2-gain`× fewer pages
//! than the `v1-canonical` baseline on the random ≤`--max-frac` box
//! workload.
//!
//! ```bash
//! cargo run --release -p iolap-bench --bin segment_prune
//! cargo run --release -p iolap-bench --bin segment_prune -- --facts 5000 --json BENCH_segments.json
//! ```

use iolap_bench::runs::{bench_config, print_table, write_json};
use iolap_bench::{Args, Json};
use iolap_core::{
    allocate, Algorithm, CellOrder, PageFormat, PolicySpec, SegmentCursor, SegmentLayout,
    SegmentView,
};
use iolap_datagen::scaled;
use iolap_model::{RegionBox, MAX_DIMS};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// One scan: sum/count accumulation over a cursor, timed, with stats.
struct Scan {
    sum: f64,
    count: f64,
    pages_read: u64,
    pages_pruned: u64,
    bytes_read: u64,
    us: f64,
}

fn scan(mut cursor: SegmentCursor<'_>) -> Scan {
    let t0 = Instant::now();
    let mut sum = 0.0;
    let mut count = 0.0;
    cursor
        .for_each(|e| {
            sum += e.weight * e.measure;
            count += e.weight;
        })
        .expect("scan");
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let st = cursor.stats();
    Scan {
        sum,
        count,
        pages_read: st.pages_read,
        pages_pruned: st.pages_pruned,
        bytes_read: st.bytes_read,
        us,
    }
}

/// Per-workload running totals for one layout.
#[derive(Default, Clone, Copy)]
struct Totals {
    full_pages: u64,
    pruned_pages: u64,
    bytes_read: u64,
    full_us: f64,
    pruned_us: f64,
}

/// A layout under test: its views plus per-workload totals.
struct LayoutRun {
    name: &'static str,
    layout: SegmentLayout,
    views: Vec<SegmentView>,
    total_pages: u64,
    encoded_bytes: u64,
    raw_bytes: u64,
    totals: [Totals; 2],
}

impl LayoutRun {
    fn compression(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

fn main() {
    let args = Args::parse(20_000);
    let queries: usize = args.extra_or("queries", 64);
    // Selectivity ceiling: a query box may cover at most this fraction of
    // the cell space (the acceptance bar targets boxes ≤ 1% of cells).
    let max_frac: f64 = args.extra_or("max-frac", 0.01);
    let min_ratio: f64 = args.extra_or("min-ratio", 5.0);
    // v2+Morton must read at least this many times fewer pages than the
    // v1 row baseline over the same workload.
    let min_v2_gain: f64 = args.extra_or("min-v2-gain", 2.0);
    let sweep_queries: usize = args.extra_or("sweep-queries", 8);
    let epsilon: f64 = args.extra_or("eps", 0.01);
    let buffer_pages: usize = args.extra_or("buffer-pages", 2048);

    let table = scaled(args.dataset, args.facts, args.seed);
    let schema = table.schema().clone();
    let k = schema.k();
    println!(
        "Segment pruning — {:?} dataset, {} facts, {queries} boxes ≤ {max_frac} of {} cells",
        args.dataset,
        args.facts,
        schema.num_possible_cells()
    );

    let obs = args.obs();
    let cfg = bench_config(buffer_pages, args.on_disk, args.threads, obs.clone());
    let policy = PolicySpec::em_count(epsilon).with_max_iters(16);
    let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).expect("allocation");
    let mut edb = run.edb;

    // The same allocation, four layouts. `set_segment_layout` drops the
    // cached segments, so each `segments()` call re-sorts and re-encodes.
    let mut layouts: Vec<LayoutRun> = [
        ("v1-canonical", SegmentLayout::v1_canonical()),
        ("v2-canonical", SegmentLayout::v2_canonical()),
        ("v1-morton", SegmentLayout { order: CellOrder::Morton, format: PageFormat::Rows }),
        ("v2-morton", SegmentLayout::v2_morton()),
    ]
    .into_iter()
    .map(|(name, layout)| {
        edb.set_segment_layout(layout);
        let views = edb.segments().expect("segment view");
        let total_pages: u64 = views.iter().map(|v| v.segment.num_pages()).sum();
        let encoded_bytes: u64 = views.iter().map(|v| v.segment.encoded_bytes()).sum();
        let raw_bytes: u64 = views.iter().map(|v| v.segment.uncompressed_bytes()).sum();
        LayoutRun {
            name,
            layout,
            views,
            total_pages,
            encoded_bytes,
            raw_bytes,
            totals: [Totals::default(); 2],
        }
    })
    .collect();
    println!(
        "EDB: {} entries in {} segment(s); pages per layout: {}",
        edb.num_entries(),
        layouts[0].views.len(),
        layouts
            .iter()
            .map(|l| format!("{}={}", l.name, l.total_pages))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Two random ≤`max_frac` box workloads:
    //
    // * `all-dims` — every dimension restricted to a narrow interval
    //   (the PR 5 workload). Canonical fences are already tight on the
    //   leading dimension here, so this guards the baseline pruning
    //   machinery (`--min-ratio`).
    // * `dice` — each box restricts a random *subset* of 1..=k
    //   dimensions (the rest stay `ALL`), widths chosen so the
    //   restrictions compound to ~`max_frac`. This is the OLAP dice
    //   shape value reordering exists for: canonical fences are only
    //   tight in leading dimensions, Morton fences are moderately tight
    //   in all of them (`--min-v2-gain`).
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e97_13a7);
    let mut gen_boxes = |all_dims: bool| -> Vec<RegionBox> {
        let mut boxes = Vec::with_capacity(queries);
        while boxes.len() < queries {
            let m = if all_dims { k } else { rng.random_range(1..=k) };
            let mut dims: Vec<usize> = (0..k).collect();
            for i in 0..m {
                let j = rng.random_range(i..k);
                dims.swap(i, j);
            }
            let mut lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            for d in 0..k {
                lo[d] = 0;
                hi[d] = schema.dim(d).num_leaves();
            }
            for &d in &dims[..m] {
                let leaves = schema.dim(d).num_leaves();
                let width = if all_dims {
                    // ~a tenth of the dimension; k such restrictions
                    // compound to well under max_frac.
                    (leaves / 10).max(1)
                } else {
                    // The m restrictions multiply out to ~max_frac.
                    ((leaves as f64 * max_frac.powf(1.0 / m as f64)) as u32).max(1)
                };
                let start = rng.random_range(0..leaves.saturating_sub(width - 1).max(1));
                lo[d] = start;
                hi[d] = (start + width).min(leaves);
            }
            let bx = RegionBox { lo, hi, k: k as u8 };
            if (bx.num_cells() as f64) <= max_frac * schema.num_possible_cells() as f64 {
                boxes.push(bx);
            }
        }
        boxes
    };
    let workloads = [("all-dims", gen_boxes(true)), ("dice", gen_boxes(false))];

    let mut points = Vec::new();
    let mut diverged = false;
    for (w, (wname, boxes)) in workloads.iter().enumerate() {
        for (i, bx) in boxes.iter().enumerate() {
            // The uncompressed full scan per order — the bit reference
            // that the compressed (and pruned) scans of the same order
            // must match.
            let mut reference: Option<(u64, u64)> = None; // (sum, count) bits
            let mut point = vec![
                ("kind", Json::S(format!("box:{wname}"))),
                ("query", Json::U(i as u64)),
                ("box_cells", Json::U(bx.num_cells())),
            ];
            for l in layouts.iter_mut() {
                let full = scan(SegmentCursor::full_scan(&l.views, *bx));
                let pruned = scan(SegmentCursor::new(&l.views, *bx));
                if full.sum.to_bits() != pruned.sum.to_bits()
                    || full.count.to_bits() != pruned.count.to_bits()
                {
                    eprintln!(
                        "DIVERGED: {wname} box {i} {} pruned ({}, {}) vs full ({}, {})",
                        l.name, pruned.sum, pruned.count, full.sum, full.count
                    );
                    diverged = true;
                }
                // Same order ⇒ same bits, compressed or not. The Rows
                // layout of each order defines the reference.
                match l.layout.format {
                    PageFormat::Rows => {
                        reference = Some((full.sum.to_bits(), full.count.to_bits()))
                    }
                    PageFormat::ColumnarV2 => {
                        let (rs, rc) = reference.expect("Rows layout precedes ColumnarV2");
                        if full.sum.to_bits() != rs || full.count.to_bits() != rc {
                            eprintln!(
                                "DIVERGED: {wname} box {i} {} vs the uncompressed scan of the \
                                 same order",
                                l.name
                            );
                            diverged = true;
                        }
                    }
                }
                assert_eq!(full.pages_read, l.total_pages, "full scan must read every page");
                assert_eq!(
                    pruned.pages_read + pruned.pages_pruned,
                    l.total_pages,
                    "pruned + read must cover every page"
                );
                let t = &mut l.totals[w];
                t.full_pages += full.pages_read;
                t.pruned_pages += pruned.pages_read;
                t.bytes_read += pruned.bytes_read;
                t.full_us += full.us;
                t.pruned_us += pruned.us;
                point.push((l.name, Json::U(pruned.pages_read)));
                if l.name == "v2-morton" {
                    point.push(("sum", Json::F(pruned.sum)));
                    point.push(("count", Json::F(pruned.count)));
                }
            }
            points.push(point);
        }
    }

    // Per-dimension sweep: boxes selective in dimension d only (full
    // range elsewhere). Canonical fences only help on leading dimensions;
    // Morton fences tighten in all of them — this is where it shows.
    for d in 0..k {
        let leaves = schema.dim(d).num_leaves();
        let width = (leaves / 20).max(1);
        let mut sweep: Vec<(&'static str, u64)> = layouts.iter().map(|l| (l.name, 0u64)).collect();
        for q in 0..sweep_queries {
            let mut lo = [0u32; MAX_DIMS];
            let mut hi = [0u32; MAX_DIMS];
            for dd in 0..k {
                lo[dd] = 0;
                hi[dd] = schema.dim(dd).num_leaves();
            }
            let start = rng.random_range(0..leaves.saturating_sub(width - 1).max(1));
            lo[d] = start;
            hi[d] = (start + width).min(leaves);
            let bx = RegionBox { lo, hi, k: k as u8 };
            let _ = q;
            for (l, s) in layouts.iter().zip(sweep.iter_mut()) {
                s.1 += scan(SegmentCursor::new(&l.views, bx)).pages_read;
            }
        }
        let mut point = vec![
            ("kind", Json::S("dim_sweep".into())),
            ("dim", Json::U(d as u64)),
            ("sweep_queries", Json::U(sweep_queries as u64)),
        ];
        for (name, pages) in &sweep {
            point.push((name, Json::U(*pages)));
        }
        println!(
            "dim {d} sweep ({sweep_queries} boxes): {}",
            sweep.iter().map(|(n, p)| format!("{n}={p}")).collect::<Vec<_>>().join(" ")
        );
        points.push(point);
    }

    for (w, (wname, _)) in workloads.iter().enumerate() {
        let rows: Vec<Vec<String>> = layouts
            .iter()
            .map(|l| {
                let t = &l.totals[w];
                vec![
                    l.name.into(),
                    format!("{}", t.full_pages),
                    format!("{}", t.pruned_pages),
                    format!("{:.2}", t.full_pages as f64 / t.pruned_pages.max(1) as f64),
                    format!("{}", t.bytes_read),
                    format!("{:.2}", l.compression()),
                    format!("{:.1}", t.pruned_us / queries as f64),
                ]
            })
            .collect();
        print_table(
            &format!("{wname} workload: page reads by layout, full scan vs fence-pruned"),
            &[
                "layout",
                "full pages",
                "pruned pages",
                "ratio",
                "bytes read",
                "compress",
                "µs/query",
            ],
            &rows,
        );
    }

    let v1 = layouts.iter().find(|l| l.name == "v1-canonical").unwrap();
    let v2m = layouts.iter().find(|l| l.name == "v2-morton").unwrap();
    // Gate 1: the PR 5 pruning machinery, on the PR 5 workload.
    let baseline_ratio = v1.totals[0].full_pages as f64 / v1.totals[0].pruned_pages.max(1) as f64;
    // Gate 2: v2+Morton vs the v1 row baseline, on the dice workload.
    let v2_gain = v1.totals[1].pruned_pages as f64 / v2m.totals[1].pruned_pages.max(1) as f64;
    println!(
        "all-dims baseline full/pruned: {baseline_ratio:.2}×  \
         dice v2-morton vs v1 pages: {v2_gain:.2}×  v2 compression: {:.2}×",
        v2m.compression()
    );

    let path = args.json.as_deref().unwrap_or("BENCH_segments.json");
    let mut meta = vec![
        ("experiment", Json::S("segment_prune".into())),
        ("dataset", Json::S(format!("{:?}", args.dataset))),
        ("facts", Json::U(args.facts)),
        ("seed", Json::U(args.seed)),
        ("queries", Json::U(queries as u64)),
        ("segments", Json::U(layouts[0].views.len() as u64)),
        ("baseline_page_read_ratio", Json::F(baseline_ratio)),
        ("v2_morton_page_gain", Json::F(v2_gain)),
        ("bit_identical", Json::B(!diverged)),
    ];
    for l in &layouts {
        // Flattened aggregates, keys like "v2-morton.dice.pruned_pages".
        for (w, (wname, _)) in workloads.iter().enumerate() {
            let t = &l.totals[w];
            let key = |s: &str| -> &'static str {
                Box::leak(format!("{}.{wname}.{s}", l.name).into_boxed_str())
            };
            meta.push((key("full_pages"), Json::U(t.full_pages)));
            meta.push((key("pruned_pages"), Json::U(t.pruned_pages)));
            meta.push((key("bytes_read"), Json::U(t.bytes_read)));
            meta.push((key("pruned_mean_us"), Json::F(t.pruned_us / queries as f64)));
            meta.push((key("full_mean_us"), Json::F(t.full_us / queries as f64)));
        }
        let key =
            |s: &str| -> &'static str { Box::leak(format!("{}.{s}", l.name).into_boxed_str()) };
        meta.push((key("total_pages"), Json::U(l.total_pages)));
        meta.push((key("encoded_bytes"), Json::U(l.encoded_bytes)));
        meta.push((key("compression_ratio"), Json::F(l.compression())));
    }
    write_json(path, &meta, &points).expect("write BENCH_segments.json");
    obs.flush();
    if diverged {
        eprintln!("a compressed or pruned scan changed answer bits — failing");
        std::process::exit(1);
    }
    if baseline_ratio < min_ratio {
        eprintln!(
            "all-dims baseline page-read ratio {baseline_ratio:.2}× below the {min_ratio}× bar — failing"
        );
        std::process::exit(1);
    }
    if v2_gain < min_v2_gain {
        eprintln!("dice v2-morton page gain {v2_gain:.2}× below the {min_v2_gain}× bar — failing");
        std::process::exit(1);
    }
}
