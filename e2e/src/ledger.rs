//! The ledger file (`--json`), the `--repeat` summary, and `compare`.
//!
//! One JSON shape for every workload and every pass; `compare` reads two
//! of them and says, per workload and end-to-end metric, whether the
//! second is better, unchanged, worse, or cannot be told apart from the
//! first's own run-to-run spread.

use crate::host;
use crate::metrics::{self, Better, END_TO_END};
use crate::run::Outcome;
use crate::stats::{median, quartiles, spread};
use crate::workloads;
use crate::Res;
use iolap_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// `BENCHMARK.json`, written from the registry so the two cannot drift
/// (`e2e describe > BENCHMARK.json`; a test compares them).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = workloads::all()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// One pass as a ledger object.
pub fn pass_json(o: &Outcome) -> String {
    let samples: Vec<String> =
        o.samples.iter().map(|(what, n)| format!("\"{what}\":{n}")).collect();
    let mut s = format!(
        "{{\"workload\":\"{}\",\"traced\":{},\
         \"disturbed\":{},\"ops_attempted\":{},\"ops_failed\":{},\"wall_s\":{},\
         \"samples\":{{{}}},\"end_to_end\":{}",
        o.workload,
        o.per_layer.is_some(),
        o.disturbed,
        o.attempted,
        o.failed,
        metrics::json_number(o.wall_s),
        samples.join(","),
        metrics::values_json(&o.end_to_end),
    );
    if let Some(layer) = &o.per_layer {
        s.push_str(&format!(",\"per_layer\":{}", metrics::values_json(layer)));
    }
    s.push('}');
    s
}

/// The ledger: host facts, then the passes ([`pass_json`] objects) in
/// run order. `nproc` is the host's, read before the harness pinned
/// itself to one CPU.
pub fn to_json(seed: u64, seconds: f64, nproc: usize, steal_pct: f64, passes: &[String]) -> String {
    let host: Vec<String> = host::describe()
        .into_iter()
        .chain([("nproc", nproc.to_string()), ("steal_pct", metrics::json_number(steal_pct))])
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"schema\":\"iolap-e2e/1\",\"claim\":null,\"seed\":{seed},\"seconds\":{},\
         \"host\":{{{}}},\n\"passes\":[\n{}\n]}}\n",
        metrics::json_number(seconds),
        host.join(","),
        passes.join(",\n")
    )
}

/// (workload, metric) → one value per undisturbed untraced pass.
type Series = BTreeMap<(String, String), Vec<f64>>;

fn series_of(text: &str, origin: &str) -> Res<Series> {
    let doc = json::parse(text).map_err(|e| format!("{origin}: {e}"))?;
    let passes = doc
        .get("passes")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{origin}: no \"passes\" array"))?;
    let mut out = Series::new();
    for p in passes {
        let flag = |k: &str| p.get(k).and_then(Json::as_bool).unwrap_or(false);
        if flag("traced") || flag("disturbed") {
            continue;
        }
        let workload = p.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, m) in p.get("end_to_end").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone())).or_default().push(v);
            }
        }
    }
    Ok(out)
}

fn series_of_file(path: &Path) -> Res<Series> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    series_of(&text, &path.display().to_string())
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{q1:.4} .. {q3:.4}"),
        None => "-".into(),
    }
}

/// After `--repeat N`: median and quartiles of every end-to-end metric
/// over the ledger's undisturbed untraced passes.
pub fn print_repeat_summary(ledger: &str) -> Res<()> {
    println!("# repeat summary: workload metric median q1..q3 spread passes");
    for ((workload, metric), values) in series_of(ledger, "ledger")? {
        println!(
            "# {workload} {metric} {:.4} {} {} {}",
            median(&values),
            quartile_text(&values),
            spread(&values).map_or("-".into(), |s| format!("{:.1}%", 100.0 * s)),
            values.len()
        );
    }
    Ok(())
}

/// How B compares with A on one metric: the share of A's median by
/// which B is worse (negative = better), and the verdict under `bound`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, &'static str) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match (ma == 0.0, better) {
        (true, _) => 0.0,
        (false, Better::Lower) => (mb - ma) / ma.abs(),
        (false, Better::Higher) => (ma - mb) / ma.abs(),
    };
    let word = if spread(a).is_some_and(|s| s > bound) {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "unchanged"
    };
    (worse_by, word)
}

/// `e2e compare A.json B.json`: one row per (workload, end-to-end metric).
pub fn compare(a: &Path, b: &Path) -> Res<()> {
    let (sa, sb) = (series_of_file(a)?, series_of_file(b)?);
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for spec in workloads::all() {
        for m in END_TO_END {
            let key = (spec.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else { continue };
            let (worse_by, word) = verdict(va, vb, m.better, m.bound);
            println!(
                "{:<15} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {word}",
                spec.name,
                m.name,
                median(va),
                median(vb),
                100.0 * worse_by,
                100.0 * m.bound
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(verdict(&a, &[104.0], Better::Lower, 0.10).1, "unchanged");
        assert_eq!(verdict(&a, &[120.0], Better::Lower, 0.10).1, "worse");
        assert_eq!(verdict(&a, &[80.0], Better::Lower, 0.10).1, "better");
        assert_eq!(verdict(&a, &[80.0], Better::Higher, 0.10).1, "worse");
        assert_eq!(verdict(&a, &[120.0], Better::Higher, 0.10).1, "better");
        // A's own quartiles are 40 % of its median apart: nothing can be said.
        assert_eq!(verdict(&[80.0, 100.0, 120.0], &[150.0], Better::Lower, 0.10).1, "unresolved");
        let (by, _) = verdict(&a, &[110.0], Better::Lower, 0.25);
        assert!((by - 0.10).abs() < 1e-12);
    }
}
