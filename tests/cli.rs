//! End-to-end tests of the `iolap` CLI binary: generate → ingest →
//! allocate → roll-up, all through the real executable.

use std::process::Command;

fn iolap() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iolap"))
}

#[test]
fn demo_runs_and_prints_regions() {
    let out = iolap().arg("demo").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("East"), "{text}");
    assert!(text.contains("West"), "{text}");
    assert!(text.contains("transitive"), "{text}");
}

#[test]
fn gen_then_allocate_roundtrip() {
    let dir = std::env::temp_dir().join(format!("iolap-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "2000", "--seed", "3", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("facts.csv").exists());
    assert!(dir.join("dim3_LOCATION.csv").exists());

    let out = iolap()
        .args(["allocate", "--data"])
        .arg(&dir)
        .args(["--algorithm", "transitive", "--epsilon", "0.05", "--rollup", "LOCATION:Region"])
        .output()
        .expect("spawn allocate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loaded 2000 facts"), "{text}");
    assert!(text.contains("EDB:"), "{text}");
    assert!(text.contains("SUM by Region"), "{text}");

    // EDB export writes a parseable CSV.
    let edb_path = dir.join("edb.csv");
    let out = iolap()
        .args(["allocate", "--data"])
        .arg(&dir)
        .args(["--algorithm", "block", "--edb-out"])
        .arg(&edb_path)
        .output()
        .expect("spawn allocate with edb-out");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let edb_text = std::fs::read_to_string(&edb_path).unwrap();
    let header = edb_text.lines().next().unwrap();
    assert!(header.starts_with("fact_id,"), "{header}");
    assert!(edb_text.lines().count() > 1000);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    // `shard` and `router` were the retired cluster plane's commands.
    for cmd in ["frobnicate", "shard", "router"] {
        let out = iolap().arg(cmd).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command \"{cmd}\"")), "{err}");
        assert!(err.contains("usage"), "{err}");
        assert!(out.stdout.is_empty(), "errors go to stderr, not stdout");
    }
}

#[test]
fn bare_invocation_is_a_usage_error() {
    let out = iolap().output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"), "usage goes to stderr");
}

#[test]
fn explicit_help_succeeds_on_stdout() {
    for arg in ["help", "--help", "-h"] {
        let out = iolap().arg(arg).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0), "{arg} is not an error");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage"), "{arg}: {text}");
        assert!(out.stderr.is_empty(), "{arg}: help goes to stdout");
    }
}

#[test]
fn version_prints_cargo_package_version() {
    for arg in ["version", "--version", "-V"] {
        let out = iolap().arg(arg).output().expect("spawn");
        assert_eq!(out.status.code(), Some(0));
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.trim(), format!("iolap {}", env!("CARGO_PKG_VERSION")), "{arg}");
    }
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    // Flags are looked up by name, so before this check a misspelt or
    // retired one ran with the default and said nothing. The check comes
    // first: none of these gets as far as asking for its required flags.
    for (cmd, flag) in [
        ("demo", "--verbose"),
        ("gen", "--fact"),
        ("allocate", "--bufer-kb"),
        ("allocate", "--threads"),
        ("query", "--aggregate"),
        ("serve", "--worker"),
    ] {
        let out = iolap().args([cmd, flag, "64"]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{cmd}: {err}");
        assert!(err.contains(&format!("iolap {cmd}")), "{cmd}: prints its usage line: {err}");
        assert!(out.stdout.is_empty(), "{cmd}: errors go to stderr, not stdout");
    }
}

/// A value that does not parse is a usage error naming the flag, never a
/// panic: one malformed value per subcommand that takes values, plus a
/// `--rollup` naming a dimension the dataset does not have.
#[test]
fn malformed_flag_values_are_usage_errors_not_panics() {
    let dir = std::env::temp_dir().join(format!("iolap-cli-bad-values-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "300", "--seed", "5", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let data = dir.to_str().expect("utf-8 temp dir");

    for (args, flag) in [
        (vec!["gen", "--facts", "-3", "--out", data], "--facts"),
        (vec!["allocate", "--data", data, "--epsilon", "abc"], "--epsilon"),
        (vec!["allocate", "--data", data, "--rollup", "Nope:Region"], "--rollup"),
        (vec!["query", "--data", data, "--buffer-kb", "x"], "--buffer-kb"),
        (vec!["serve", "--data", data, "--workers", "x"], "--workers"),
    ] {
        let out = iolap().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: stderr names {flag}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}: errors go to stderr, not stdout");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_requires_data_flag() {
    let out = iolap().arg("serve").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"), "names the missing flag");
}

#[test]
fn query_requires_data_and_rejects_bad_args_with_usage() {
    // Missing --data.
    let out = iolap().arg("query").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--data"), "{err}");
    assert!(err.contains("iolap query"), "usage line names the subcommand: {err}");

    let dir = std::env::temp_dir().join(format!("iolap-cli-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "300", "--seed", "5", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Malformed region (no '='), unknown node, unknown aggregate: all
    // usage errors (exit 2), nothing on stdout.
    for args in [
        vec!["--region", "LOCATION"],
        vec!["--region", "LOCATION=Atlantis"],
        vec!["--agg", "median"],
    ] {
        let out =
            iolap().args(["query", "--data"]).arg(&dir).args(&args).output().expect("spawn query");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: errors go to stderr");
        assert!(String::from_utf8_lossy(&out.stderr).contains("iolap query"), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_prints_the_server_json_shape() {
    let dir = std::env::temp_dir().join(format!("iolap-cli-query-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "300", "--seed", "5", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = iolap()
        .args(["query", "--data"])
        .arg(&dir)
        .args(["--agg", "count", "--epsilon", "0.05"])
        .output()
        .expect("spawn query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let v = iolap::obs::json::parse(text.trim()).expect("JSON output");
    // Every allocatable fact carries total weight 1, so COUNT over the
    // full space is a whole number ≤ the fact count.
    let count = v.get("count").and_then(|x| x.as_f64()).expect("count field");
    assert!(count > 0.0 && count <= 300.0, "{text}");
    assert_eq!(v.get("agg").and_then(|x| x.as_str()), Some("count"), "{text}");
    assert_eq!(v.get("epoch").and_then(|x| x.as_u64()), Some(0), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_stats_prints_scan_counters_as_a_second_json_line() {
    let dir = std::env::temp_dir().join(format!("iolap-cli-query-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "300", "--seed", "5", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = iolap()
        .args(["query", "--data"])
        .arg(&dir)
        .args(["--agg", "sum", "--epsilon", "0.05", "--stats"])
        .output()
        .expect("spawn query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    // Line 1: the server's /query response shape, unchanged by --stats.
    let resp = iolap::obs::json::parse(lines.next().expect("response line")).expect("JSON");
    assert_eq!(resp.get("agg").and_then(|x| x.as_str()), Some("sum"), "{text}");
    // Line 2: the scan counters. A full-space query prunes nothing, reads
    // every page, and the exact-I/O meter charges the compressed bytes.
    let stats = iolap::obs::json::parse(lines.next().expect("stats line")).expect("stats JSON");
    let u =
        |k: &str| stats.get(k).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("{k}: {text}"));
    assert!(u("pages_read") > 0, "{text}");
    assert!(u("bytes_read") > 0, "{text}");
    assert_eq!(u("pages_pruned"), 0, "full-space query prunes nothing: {text}");
    assert!(lines.next().is_none(), "exactly two lines: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full `iolap serve` flag matrix: every tuning knob accepted
/// together, the server comes up, answers, and drains on stdin EOF.
#[test]
fn serve_accepts_the_full_flag_matrix() {
    use std::io::{Read, Write};

    // --help names every knob.
    let out = iolap().args(["serve", "--help"]).output().expect("spawn serve --help");
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stderr);
    for f in ["--workers", "--queue", "--cache", "--max-conns", "--timeout-ms", "--idle-ms"] {
        assert!(help.contains(f), "help must mention {f}: {help}");
    }

    let dir = std::env::temp_dir().join(format!("iolap-cli-serve-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "300", "--seed", "11", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut child = iolap()
        .args(["serve", "--data"])
        .arg(&dir)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--epsilon",
            "0.05",
            "--workers",
            "2",
            "--queue",
            "16",
            "--cache",
            "64",
            "--max-conns",
            "100",
            "--timeout-ms",
            "2000",
            "--idle-ms",
            "30000",
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The bound address is the first stdout line (the --addr host:0
    // contract scripts rely on).
    let mut stdout = child.stdout.take().unwrap();
    let mut seen = String::new();
    let addr = loop {
        let mut buf = [0u8; 256];
        let n = stdout.read(&mut buf).expect("read serve stdout");
        assert!(n > 0, "serve exited early: {seen}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        if let Some((line, _)) = seen.split_once('\n') {
            break line.trim().to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    write!(conn, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");

    drop(child.stdin.take());
    let status = child.wait().expect("serve exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_answers_queries_until_stdin_closes() {
    use std::io::{Read, Write};
    let dir = std::env::temp_dir().join(format!("iolap-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = iolap()
        .args(["gen", "--kind", "automotive", "--facts", "500", "--seed", "7", "--out"])
        .arg(&dir)
        .output()
        .expect("spawn gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut child = iolap()
        .args(["serve", "--data"])
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--epsilon", "0.05"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The bound address is the first stdout line.
    let mut stdout = child.stdout.take().unwrap();
    let mut seen = String::new();
    let addr = loop {
        let mut buf = [0u8; 256];
        let n = stdout.read(&mut buf).expect("read serve stdout");
        assert!(n > 0, "serve exited early: {seen}");
        seen.push_str(&String::from_utf8_lossy(&buf[..n]));
        if let Some((line, _)) = seen.split_once('\n') {
            break line.trim().to_string();
        }
    };

    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    let body = r#"{"region":{"LOCATION":"ALL"},"agg":"count"}"#;
    write!(
        conn,
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"count\":"), "{resp}");

    // EOF on stdin is the shutdown signal.
    drop(child.stdin.take());
    let status = child.wait().expect("serve exits");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
