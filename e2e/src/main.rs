//! `e2e` — one harness, one ledger.
//!
//! Five workloads run one life cycle each (set up, then rounds of read →
//! write → allocate → restart on the log) against an in-process server
//! on loopback and print ten end-to-end metrics; a traced run replays
//! the same requests through each layer's public functions and prints
//! the per-layer metrics.
//! `README.md` beside this crate says why each workload exists and which
//! layer metric should move which end-to-end metric.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one pass; last line is JSON
//! e2e [--seed N] [--seconds S] [--traced] [--repeat N] [--json PATH]   the whole ledger
//! e2e compare A.json B.json                               row per (workload, metric)
//! e2e --smoke --traced                                    tiny sizes; checks wiring
//! e2e describe                                            BENCHMARK.json, from the registry
//! ```

mod client;
mod drive;
mod fixture;
mod gen;
mod host;
mod ledger;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Opts, Outcome};
use std::path::{Path, PathBuf};

/// Errors are messages: the harness reports and exits, it never recovers.
pub type Res<T> = Result<T, String>;

/// `run_seconds` of `BENCHMARK.json`, the default reading time of a pass.
pub const RUN_SECONDS: u32 = 8;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    untraced: bool,
    traced: bool,
    repeat: usize,
    smoke: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// Internal: where a child process leaves its pass for the parent.
    pass_json: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Res<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        untraced: true,
        traced: false,
        repeat: 1,
        smoke: false,
        json: None,
        trace_out: None,
        pass_json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("{flag} needs a value")).map(|v| (flag, v));
        let number = |(flag, v): (&String, String)| -> Res<f64> {
            v.parse().map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.1),
            "--seed" => {
                let (flag, v) = value()?;
                cli.seed = v.parse().map_err(|_| format!("{flag}: {v:?} is not a seed"))?;
            }
            "--seconds" => cli.seconds = Some(number(value()?)?),
            "--repeat" => cli.repeat = (number(value()?)? as usize).max(1),
            "--trace" => {
                cli.traced = number(value()?)? != 0.0;
                cli.untraced = !cli.traced;
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--json" => cli.json = Some(PathBuf::from(value()?.1)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?.1)),
            "--pass-json" => cli.pass_json = Some(PathBuf::from(value()?.1)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

/// Print one pass: `workload metric value unit` per metric, the counts,
/// then the one-line JSON result the driver reads.
fn print_outcome(o: &Outcome) {
    let values = o.per_layer.as_ref().unwrap_or(&o.end_to_end);
    for (name, unit, v) in values.iter() {
        println!("{} {name} {} {unit}", o.workload, metrics::json_number(v));
    }
    for (what, n) in &o.samples {
        println!("{} {what} {n} count", o.workload);
    }
    println!("{} wall_s {} s", o.workload, metrics::json_number(o.wall_s));
    println!("{} ops_attempted {} count", o.workload, o.attempted);
    println!("{} ops_failed {} count", o.workload, o.failed);
    for e in &o.errors {
        eprintln!("{}: {e}", o.workload);
    }
    if o.disturbed {
        eprintln!("{}: host calibration moved by over 10% during this pass", o.workload);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics::values_json(values)
    );
}

/// One `(workload, traced)` pass per entry, in run order.
fn planned_passes(cli: &Cli) -> Res<Vec<(workloads::Spec, bool)>> {
    let specs: Vec<_> = workloads::all()
        .into_iter()
        .filter(|s| cli.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();
    if specs.is_empty() {
        let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
        return Err(format!("unknown workload; choose one of {}", names.join(", ")));
    }
    let modes: Vec<bool> =
        [(false, cli.untraced), (true, cli.traced)].iter().filter(|m| m.1).map(|m| m.0).collect();
    let mut passes = Vec::new();
    for _ in 0..cli.repeat {
        for spec in &specs {
            passes.extend(modes.iter().map(|&traced| (spec.clone(), traced)));
        }
    }
    Ok(passes)
}

fn seconds_of(cli: &Cli) -> f64 {
    cli.seconds.unwrap_or(if cli.smoke { 0.3 } else { f64::from(RUN_SECONDS) })
}

/// Run one pass in this process (what the driver invokes). True when no
/// operation failed.
fn run_one(cli: &Cli, spec: &workloads::Spec, traced: bool, tmp_root: &Path) -> Res<bool> {
    let opts = Opts {
        seed: cli.seed,
        seconds: seconds_of(cli),
        trace: traced,
        smoke: cli.smoke,
        tmp_root: tmp_root.to_path_buf(),
        trace_out: cli
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(".bench_trace").join(format!("{}.jsonl", spec.name))),
    };
    let outcome = run::run_workload(spec, &opts)?;
    print_outcome(&outcome);
    if let Some(path) = &cli.pass_json {
        std::fs::write(path, ledger::pass_json(&outcome))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome.failed == 0)
}

/// Run several passes, each in a child process of its own: a pass's peak
/// memory, allocator state and page cache footprint are then its own and
/// not what the passes before it left behind.
fn run_many(
    cli: &Cli,
    passes: &[(workloads::Spec, bool)],
    nproc: usize,
    tmp_root: &Path,
) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let jiffies0 = host::cpu_jiffies();
    let mut done: Vec<String> = Vec::new();
    let mut clean = true;
    for (spec, traced) in passes {
        // When a ledger is being written, a pass the host disturbed is
        // kept in it, flagged (`compare` skips it), and run once more.
        for attempt in 0..2 {
            let file = tmp_root.join("pass.json");
            let _ = std::fs::remove_file(&file);
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", spec.name, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &seconds_of(cli).to_string()])
                .args(["--trace", if *traced { "1" } else { "0" }])
                .arg("--pass-json")
                .arg(&file);
            if cli.smoke {
                child.arg("--smoke");
            }
            if let Some(out) = &cli.trace_out {
                child.arg("--trace-out").arg(out);
            }
            let status = child.status().map_err(|e| format!("spawning a pass: {e}"))?;
            let Ok(pass) = std::fs::read_to_string(&file) else {
                return Err(format!("{} pass ended with {status} and left no result", spec.name));
            };
            clean &= status.success();
            let rerun = cli.json.is_some() && attempt == 0 && pass.contains("\"disturbed\":true");
            done.push(pass);
            if !rerun {
                break;
            }
        }
    }
    let steal = host::steal_pct(jiffies0, host::cpu_jiffies());
    let text = ledger::to_json(cli.seed, seconds_of(cli), nproc, steal, &done);
    if cli.repeat > 1 {
        ledger::print_repeat_summary(&text)?;
    }
    if let Some(path) = &cli.json {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(clean)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let code = match args.as_slice() {
            [_, a, b] => match ledger::compare(a.as_ref(), b.as_ref()) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("e2e compare: {e}");
                    1
                }
            },
            _ => {
                eprintln!("usage: e2e compare A.json B.json");
                2
            }
        };
        std::process::exit(code);
    }
    if args.first().map(String::as_str) == Some("describe") {
        print!("{}", ledger::benchmark_json());
        return;
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host::pin_to_one_cpu().is_none() {
        eprintln!("e2e: could not pin to one CPU; timings will carry scheduler and steal noise");
    }
    // Everything the run leaves on disk — datasets, page files, logs —
    // goes under the working directory, and is removed at the end. The
    // storage layer places its page files under $TMPDIR.
    let tmp_root = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp_root) {
        eprintln!("e2e: creating {}: {e}", tmp_root.display());
        std::process::exit(2);
    }
    std::env::set_var("TMPDIR", &tmp_root);
    let result = planned_passes(&cli).and_then(|passes| match passes.as_slice() {
        [(spec, traced)] if cli.json.is_none() => run_one(&cli, spec, *traced, &tmp_root),
        _ => run_many(&cli, &passes, nproc, &tmp_root),
    });
    let _ = std::fs::remove_dir_all(&tmp_root);
    match result {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("e2e: some operations failed or answered wrongly");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
    }
}
