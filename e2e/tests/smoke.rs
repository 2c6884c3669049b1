//! End-to-end checks of the harness itself: `BENCHMARK.json` says what
//! the binary prints, and a tiny pass over every workload fails nothing.

use iolap_obs::json::{self, Json};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_iolap-e2e"));
    // The harness keeps its scratch files under its working directory.
    c.current_dir(env!("CARGO_MANIFEST_DIR"));
    c
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} array"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

#[test]
fn benchmark_json_is_what_describe_prints() {
    let out = bin().arg("describe").output().expect("run e2e describe");
    assert!(out.status.success());
    let described =
        json::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("describe parses");
    assert_eq!(described, benchmark_json(), "regenerate with `e2e describe > BENCHMARK.json`");
}

#[test]
fn benchmark_json_fits_the_contract() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let workloads = doc.get("workloads").and_then(Json::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {} chars", why.len());
    }
    let e2e = doc.get("end_to_end").and_then(Json::as_array).unwrap();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e.iter().find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
}

/// `--smoke --traced`: 0.3 s of reads per workload, 2 rounds, 8
/// batches, 20k-fact datasets, both passes. Asserts the printed workload and metric names
/// are exactly BENCHMARK.json's and that no operation failed.
#[test]
fn smoke_pass_prints_every_metric_and_fails_nothing() {
    let out =
        bin().args(["--smoke", "--traced", "--seed", "42"]).output().expect("run e2e --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke pass failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let doc = benchmark_json();
    let want_workloads: BTreeSet<String> = names(&doc, "workloads").into_iter().collect();
    let want_metrics: BTreeSet<String> =
        names(&doc, "end_to_end").into_iter().chain(names(&doc, "per_layer")).collect();

    let mut printed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut results = 0;
    for line in stdout.lines() {
        if line.starts_with('{') {
            let v = json::parse(line).expect("result line parses");
            assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true), "{line}");
            assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0), "{line}");
            assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            results += 1;
            continue;
        }
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "not `workload metric value unit`: {line:?}");
        fields[2].parse::<f64>().unwrap_or_else(|_| panic!("value is not a number: {line:?}"));
        if fields[1] == "ops_failed" {
            assert_eq!(fields[2], "0", "{line}");
        }
        if want_metrics.contains(fields[1]) {
            printed.insert((fields[0].to_string(), fields[1].to_string()));
        }
    }
    assert_eq!(results, 2 * want_workloads.len(), "one result line per pass");
    let printed_workloads: BTreeSet<String> = printed.iter().map(|(w, _)| w.clone()).collect();
    assert_eq!(printed_workloads, want_workloads);
    for w in &want_workloads {
        let got: BTreeSet<String> =
            printed.iter().filter(|(pw, _)| pw == w).map(|(_, m)| m.clone()).collect();
        assert_eq!(got, want_metrics, "metrics printed for {w}");
    }
}
