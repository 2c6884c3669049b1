//! `iolap` — command-line front end for the imprecise-OLAP library.
//!
//! ```text
//! iolap demo
//!     Run the paper's running example end to end and print everything.
//!
//! iolap gen --kind automotive|synthetic --facts N --seed S --out DIR
//!     Generate a dataset and write it as CSV: one file per dimension
//!     (header = level names, one row per leaf) plus facts.csv.
//!
//! iolap allocate --data DIR [--algorithm basic|independent|block|transitive]
//!                [--policy em-count|em-measure|count|measure|uniform]
//!                [--epsilon E] [--buffer-kb KB] [--rollup DIM:LEVEL]
//!                [--edb-out FILE] [--trace-out FILE]
//!     Ingest the CSVs from DIR (as written by `gen`), run allocation,
//!     print the run report, optionally print roll-ups, dump the EDB,
//!     and/or write a JSONL span trace.
//!
//! iolap serve --data DIR [--addr HOST:PORT] [--policy P] [--epsilon E]
//!             [--buffer-kb KB] [--workers N] [--queue N] [--cache N]
//!             [--max-conns N] [--timeout-ms MS] [--idle-ms MS] [--no-wal]
//!             [--group-ms MS] [--group-frames N]
//!     Allocate DIR with the Transitive algorithm and serve the EDB over
//!     HTTP (POST /query, /rollup, /update; GET /healthz, /metrics).
//!     The first stdout line is the actually-bound address (use
//!     `--addr HOST:0` for an OS-assigned port); progress chatter goes
//!     to stderr. Runs until stdin reaches EOF, then drains and exits.
//!
//! iolap query --data DIR [--region Dim=Node,...] [--rollup DIM@LEVEL]
//!             [--agg sum|count|avg] [--policy P] [--epsilon E]
//!             [--buffer-kb KB] [--stats]
//!     One-shot query: allocate DIR (Transitive), evaluate the aggregate
//!     over the region — or, with --rollup, the per-node rollup along
//!     DIM at LEVEL diced to the region — and print the server's JSON
//!     response shape to stdout. Region, level, and aggregate names
//!     resolve exactly as over HTTP, and the answer is `/query`'s or
//!     `/rollup`'s evaluator run over the freshly allocated EDB's leaf
//!     segments (--stats prints the pages and bytes that scan read as a
//!     second JSON line).
//! ```

use iolap::datagen::{scaled, DatasetKind};
use iolap::model::paper_example;
use iolap::prelude::*;
use iolap::query::render_rollup;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "usage: iolap demo | gen | allocate | serve | query   (see --help per command)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("allocate") => cmd_allocate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        // Asking for help is a successful run: usage on stdout, exit 0.
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        Some("version" | "--version" | "-V") => {
            println!("iolap {}", env!("CARGO_PKG_VERSION"));
            0
        }
        // A command we don't know (or no command) is an error: usage on
        // stderr, exit 2 (the conventional usage-error status).
        Some(other) => {
            eprintln!("iolap: unknown command {other:?}");
            eprintln!("{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// What every subcommand does before reading its flags: `--help` prints
/// the usage line and succeeds, and a `--flag` the usage line does not
/// name is a usage error (exit 2). `flag()` looks flags up by name, so
/// without this a misspelt or retired flag would run with the default
/// and say nothing. Returns the exit code when the command is done.
fn preflight(usage: &str, args: &[String]) -> Option<i32> {
    if has_flag(args, "--help") {
        eprintln!("{usage}");
        return Some(0);
    }
    let known = |a: &str| {
        usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).any(|tok| tok == a)
    };
    let bad = args.iter().find(|a| a.starts_with("--") && !known(a))?;
    eprintln!("iolap: unknown flag {bad}");
    eprintln!("{usage}");
    Some(2)
}

/// `name`'s value parsed as `T`, or `default` when the flag is absent.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        Some(raw) => raw.parse().unwrap_or_else(|_| bad_value(name, &raw)),
        None => default,
    }
}

/// A malformed flag value is a usage error: name the flag and the value
/// on stderr, print nothing on stdout, exit 2.
fn bad_value(name: &str, raw: &str) -> ! {
    eprintln!("iolap: invalid value {raw:?} for {name}");
    std::process::exit(2)
}

/// `--policy P` with its `--epsilon E` (default: EM-Count, ε = 0.01).
fn policy_flag(args: &[String]) -> PolicySpec {
    let epsilon: f64 = parse_flag(args, "--epsilon", 0.01);
    match flag(args, "--policy").as_deref().unwrap_or("em-count") {
        "em-count" => PolicySpec::em_count(epsilon),
        "em-measure" => PolicySpec::em_measure(epsilon),
        "count" => PolicySpec::count(),
        "measure" => PolicySpec::measure(),
        "uniform" => PolicySpec::uniform(),
        other => bad_value("--policy", other),
    }
}

/// `--buffer-kb KB` in 4 KiB pages (default 4 MiB, at least 8 pages).
fn buffer_pages_flag(args: &[String]) -> usize {
    let kb: u64 = parse_flag(args, "--buffer-kb", 4096);
    (kb.saturating_mul(1024) as usize).div_ceil(4096).max(8)
}

// ---------------------------------------------------------------------------

fn cmd_demo(args: &[String]) -> i32 {
    if let Some(code) = preflight("iolap demo", args) {
        return code;
    }
    let table = paper_example::table1();
    let schema = table.schema().clone();
    println!("Paper running example (Table 1): {} facts", table.len());
    let run = Iolap::from_table(table)
        .config(AllocConfig::builder().in_memory(256).build())
        .policy(PolicySpec::em_count(0.005))
        .allocate(Algorithm::Transitive)
        .expect("allocation");
    println!("{}", run.report);
    let rows = rollup(&run.edb, &schema, 0, 2, None, AggFn::Sum).expect("rollup");
    print!("{}", render_rollup("SUM(Sales) by Region:", &rows));
    0
}

// ---------------------------------------------------------------------------

const GEN_USAGE: &str = "iolap gen --kind automotive|synthetic --facts N --seed S --out DIR";

fn cmd_gen(args: &[String]) -> i32 {
    if let Some(code) = preflight(GEN_USAGE, args) {
        return code;
    }
    let kind = parse_flag(args, "--kind", DatasetKind::Automotive);
    let n: u64 = parse_flag(args, "--facts", 10_000);
    let seed: u64 = parse_flag(args, "--seed", 42);
    let out = PathBuf::from(flag(args, "--out").unwrap_or_else(|| "iolap-data".into()));
    std::fs::create_dir_all(&out).expect("creating output dir");

    let table = scaled(kind, n, seed);
    let schema = table.schema().clone();
    iolap::model::csv::write_dataset(&table, &out).expect("writing CSVs");
    println!("wrote {} facts over {} dimensions to {}", table.len(), schema.k(), out.display());
    0
}

fn quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

// ---------------------------------------------------------------------------

const ALLOCATE_USAGE: &str = "iolap allocate --data DIR [--algorithm A] [--policy P] \
     [--epsilon E] [--buffer-kb KB] [--rollup DIM:LEVEL] \
     [--edb-out FILE] [--trace-out FILE]";

fn cmd_allocate(args: &[String]) -> i32 {
    if let Some(code) = preflight(ALLOCATE_USAGE, args) {
        return code;
    }
    let Some(dir) = flag(args, "--data") else {
        eprintln!("iolap allocate: --data DIR is required");
        eprintln!("{ALLOCATE_USAGE}");
        return 2;
    };
    let algorithm = parse_flag(args, "--algorithm", Algorithm::Transitive);
    let policy = policy_flag(args);
    let buffer_pages = buffer_pages_flag(args);

    // Ingest.
    let db = match Iolap::open(&dir) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let (schema, table) = (db.schema().clone(), db.table());
    // `--rollup DIM:LEVEL` names a dimension and one of its levels;
    // resolved before paying for allocation.
    let rollup_at = flag(args, "--rollup").map(|spec| {
        let resolved = spec.split_once(':').and_then(|(dim, level)| {
            let d = (0..schema.k()).find(|&d| schema.dim(d).name() == dim)?;
            let h = schema.dim(d);
            Some((d, (1..=h.levels()).find(|&l| h.level_name(l) == level)?))
        });
        resolved.unwrap_or_else(|| bad_value("--rollup", &spec))
    });
    println!(
        "loaded {} facts ({} imprecise) over {} dimensions",
        table.len(),
        table.num_imprecise(),
        schema.k()
    );

    let mut obs = Obs::disabled();
    if let Some(path) = flag(args, "--trace-out") {
        let sink = JsonlSink::create(&path).expect("--trace-out file");
        obs = Obs::with_sink(Arc::new(sink));
    }
    let cfg = AllocConfig::builder().buffer_pages(buffer_pages).obs(obs.clone()).build();
    let mut run = db.config(cfg).policy(policy).allocate(algorithm).expect("allocation");
    obs.flush();
    println!("{}", run.report);
    println!("EDB: {} entries for {} facts", run.edb.num_entries(), run.edb.num_facts_allocated());

    if let Some((d, level)) = rollup_at {
        let level_name = schema.dim(d).level_name(level);
        let rows = rollup(&run.edb, &schema, d, level, None, AggFn::Sum).expect("rollup");
        // Print the top 20 by value.
        let mut rows = rows;
        rows.sort_by(|a, b| b.result.value.total_cmp(&a.result.value));
        rows.truncate(20);
        print!("{}", render_rollup(&format!("SUM by {level_name} (top 20):"), &rows));
    }

    if let Some(path) = flag(args, "--edb-out") {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("EDB out file"));
        writeln!(
            f,
            "fact_id,{},weight,measure",
            (0..schema.k()).map(|d| schema.dim(d).name().to_string()).collect::<Vec<_>>().join(",")
        )
        .unwrap();
        let schema2 = schema.clone();
        run.edb
            .for_each(|e| {
                let names: Vec<String> = (0..schema2.k())
                    .map(|d| quote(&schema2.dim(d).node_name(schema2.dim(d).leaf_node(e.cell[d]))))
                    .collect();
                writeln!(f, "{},{},{},{}", e.fact_id, names.join(","), e.weight, e.measure)
                    .unwrap();
            })
            .expect("EDB scan");
        println!("EDB written to {path}");
    }
    0
}

// ---------------------------------------------------------------------------

const QUERY_USAGE: &str = "iolap query --data DIR [--region Dim=Node,...] \
     [--rollup DIM@LEVEL] [--agg sum|count|avg] [--policy P] [--epsilon E] \
     [--buffer-kb KB] [--stats]   (--dir is an alias for --data)";

fn cmd_query(args: &[String]) -> i32 {
    if let Some(code) = preflight(QUERY_USAGE, args) {
        return code;
    }
    let Some(dir) = flag(args, "--data").or_else(|| flag(args, "--dir")) else {
        eprintln!("iolap query: --data DIR is required");
        eprintln!("{QUERY_USAGE}");
        return 2;
    };
    // `--region Location=MA,Automobile=Sedan`; unlisted dimensions mean
    // ALL, exactly as the server's `at` list.
    let mut at: Vec<(String, String)> = Vec::new();
    if let Some(spec) = flag(args, "--region") {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let Some((dim, node)) = part.split_once('=') else {
                eprintln!("iolap query: bad --region part {part:?} (want Dim=Node)");
                eprintln!("{QUERY_USAGE}");
                return 2;
            };
            at.push((dim.trim().to_string(), node.trim().to_string()));
        }
    }
    let agg =
        match iolap::serve::wire::parse_agg(&flag(args, "--agg").unwrap_or_else(|| "sum".into())) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("iolap query: {msg}");
                eprintln!("{QUERY_USAGE}");
                return 2;
            }
        };
    let policy = policy_flag(args);
    let buffer_pages = buffer_pages_flag(args);

    let db = match Iolap::open(&dir) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let schema = db.schema().clone();
    // Resolve the region before paying for allocation, so a typo'd node
    // name fails fast with a usage error.
    let region = match iolap::serve::snapshot::resolve_region(&schema, &at) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("iolap query: {msg}");
            eprintln!("{QUERY_USAGE}");
            return 2;
        }
    };
    // `--rollup Dim@Level` resolves names exactly as the server's
    // /rollup endpoint; also validated before allocation.
    let rollup_at = match flag(args, "--rollup") {
        Some(spec) => {
            let Some((dim, level)) = spec.split_once('@') else {
                eprintln!("iolap query: bad --rollup {spec:?} (want DIM@LEVEL)");
                eprintln!("{QUERY_USAGE}");
                return 2;
            };
            match iolap::serve::snapshot::resolve_level(&schema, dim.trim(), level.trim()) {
                Ok(dl) => Some(dl),
                Err(msg) => {
                    eprintln!("iolap query: {msg}");
                    eprintln!("{QUERY_USAGE}");
                    return 2;
                }
            }
        }
        None => None,
    };
    let run = match db
        .config(AllocConfig::builder().buffer_pages(buffer_pages).build())
        .policy(policy)
        .allocate(Algorithm::Transitive)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    use iolap::query::{aggregate_edb_stats, plan_rollup_views, PlanMode, Query};
    use iolap::serve::wire;
    let q = Query { region, agg };
    // Each shape runs through its one evaluator — the server's answer
    // paths — and prints the matching wire response (epoch 0: freshly
    // allocated).
    let answer = match rollup_at {
        Some((dim, level)) => run
            .edb
            .segments()
            .and_then(|views| {
                let dice = Some(&q.region);
                plan_rollup_views(&views, None, &schema, dim, level, dice, agg, PlanMode::Lattice)
            })
            .map(|(rows, stats)| (wire::rollup_response(&rows, agg, 0), stats.scan)),
        None => aggregate_edb_stats(&run.edb, &q)
            .map(|(result, stats)| (wire::query_response(&result, agg, false, 0), stats)),
    };
    let (line, stats) = match answer {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!("{line}");
    if has_flag(args, "--stats") {
        // Counters as a second JSON line so the first line stays
        // byte-identical to the server's response shape.
        println!(
            "{{\"pages_read\":{},\"pages_pruned\":{},\"bytes_read\":{}}}",
            stats.pages_read, stats.pages_pruned, stats.bytes_read
        );
    }
    0
}

// ---------------------------------------------------------------------------

const SERVE_USAGE: &str = "iolap serve --data DIR [--addr HOST:PORT] [--policy P] \
     [--epsilon E] [--buffer-kb KB] [--workers N] [--queue N] [--cache N] \
     [--max-conns N] [--timeout-ms MS] [--idle-ms MS] [--no-wal] \
     [--group-ms MS] [--group-frames N]   (--dir is an alias for --data)";

fn cmd_serve(args: &[String]) -> i32 {
    if let Some(code) = preflight(SERVE_USAGE, args) {
        return code;
    }
    let Some(dir) = flag(args, "--data").or_else(|| flag(args, "--dir")) else {
        eprintln!("iolap serve: --data DIR is required");
        return 2;
    };
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:8642".into());
    let policy = policy_flag(args);
    let buffer_pages = buffer_pages_flag(args);
    let workers: usize = parse_flag(args, "--workers", 4);
    let queue: usize = parse_flag(args, "--queue", 128);
    let cache: usize = parse_flag(args, "--cache", 4096);
    let max_conns: usize = parse_flag(args, "--max-conns", 8192);
    // --timeout-ms sets the read AND write socket timeouts; --idle-ms
    // bounds how long a parked keep-alive connection is kept.
    let timeout_ms: u64 = parse_flag(args, "--timeout-ms", 5000);
    let idle_ms: u64 = parse_flag(args, "--idle-ms", 60_000);

    // Streaming ingest: updates are WAL-durable by default (the log
    // lives next to the data); --group-ms > 0 acks at durable and folds
    // on the group-commit cadence instead of per request.
    let no_wal = has_flag(args, "--no-wal");
    let group_ms: u64 = parse_flag(args, "--group-ms", 0);
    let group_frames: u64 = parse_flag(args, "--group-frames", 256);

    let db = match Iolap::open(&dir) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    eprintln!(
        "loaded {} facts ({} imprecise); allocating (transitive)...",
        db.table().len(),
        db.table().num_imprecise()
    );
    // One `Obs` for allocation and serving, so the counters maintenance
    // keeps on the environment's (`edb.cuboid_upkeep_pages`) reach
    // `/metrics`.
    let obs = Obs::metrics_only();
    let mut builder = ServeConfig::builder()
        .obs(obs.clone())
        .workers(workers)
        .queue_depth(queue)
        .cache_capacity(cache)
        .max_connections(max_conns)
        .read_timeout(std::time::Duration::from_millis(timeout_ms))
        .write_timeout(std::time::Duration::from_millis(timeout_ms))
        .idle_timeout(std::time::Duration::from_millis(idle_ms))
        .group_window(std::time::Duration::from_millis(group_ms))
        .group_frames(group_frames);
    if !no_wal {
        builder = builder.wal_path(std::path::Path::new(&dir).join("ingest.wal"));
    }
    let serve_cfg = builder.build();
    let handle = match db
        .config(AllocConfig::builder().buffer_pages(buffer_pages).obs(obs).build())
        .policy(policy)
        .serve(&addr, serve_cfg)
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    // The actually-bound address is the FIRST stdout line (and the only
    // startup output on stdout) so scripts can `--addr host:0` and read
    // the OS-assigned port; everything else is stderr chatter.
    println!("{}", handle.addr());
    let _ = std::io::stdout().flush();
    eprintln!("iolap serve: listening on http://{}", handle.addr());
    eprintln!("endpoints: POST /query /rollup /update; GET /healthz /metrics");
    eprintln!("(reading stdin; EOF shuts the server down)");

    wait_for_stdin_eof();
    eprintln!("iolap serve: shutting down");
    handle.shutdown();
    0
}

/// Block until stdin closes — works interactively (Ctrl-D), under a
/// FIFO (CI), and when the parent process exits.
fn wait_for_stdin_eof() {
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}
