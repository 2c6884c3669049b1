//! Minimal flag parsing shared by the harness binaries (no external CLI
//! crate — the sanctioned dependency list is small and these flags are
//! trivial).

use iolap_datagen::DatasetKind;
use iolap_obs::{JsonlSink, Obs};
use std::sync::Arc;

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Number of facts (scaled-down default; `--paper-scale` overrides).
    pub facts: u64,
    /// Dataset family.
    pub dataset: DatasetKind,
    /// RNG seed.
    pub seed: u64,
    /// Use the publication dataset sizes.
    pub paper_scale: bool,
    /// Use real temp files instead of in-memory pagers.
    pub on_disk: bool,
    /// Write machine-readable results to this path as JSON.
    pub json: Option<String>,
    /// Write a JSONL span/metric trace of every run to this path.
    pub trace_out: Option<String>,
    /// Extra `key=value` pairs for experiment-specific knobs.
    pub extra: Vec<(String, String)>,
}

impl Args {
    /// Parse `std::env::args()`, with `default_facts` as the laptop-scale
    /// default.
    pub fn parse(default_facts: u64) -> Self {
        let mut out = Args {
            facts: default_facts,
            dataset: DatasetKind::Automotive,
            seed: 42,
            paper_scale: false,
            on_disk: false,
            json: None,
            trace_out: None,
            extra: Vec::new(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = argv[i].as_str();
            let take = |out_i: &mut usize| -> String {
                *out_i += 1;
                argv.get(*out_i).cloned().unwrap_or_else(|| {
                    eprintln!("missing value for {a}");
                    std::process::exit(2);
                })
            };
            match a {
                "--facts" => out.facts = value(a, &take(&mut i)),
                "--seed" => out.seed = value(a, &take(&mut i)),
                "--dataset" => out.dataset = value(a, &take(&mut i)),
                "--paper-scale" => out.paper_scale = true,
                "--on-disk" => out.on_disk = true,
                "--json" => out.json = Some(take(&mut i)),
                "--trace-out" => out.trace_out = Some(take(&mut i)),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --facts N --seed S --dataset automotive|synthetic --paper-scale --on-disk --json PATH --trace-out PATH [key=value ...]"
                    );
                    std::process::exit(0);
                }
                kv if kv.contains('=') => {
                    let (k, v) = kv.split_once('=').expect("checked");
                    out.extra.push((k.trim_start_matches('-').to_string(), v.to_string()));
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        if out.paper_scale {
            out.facts = iolap_datagen::AUTOMOTIVE_FACTS;
        }
        out
    }

    /// Look up an experiment-specific `key=value` flag.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Parse an extra flag into any `FromStr` type, with a default.
    pub fn extra_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.extra(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Build the observability handle this invocation asked for: a JSONL
    /// trace sink when `--trace-out PATH` was given, disabled otherwise.
    ///
    /// Creating the sink truncates the file, so call this **once** per
    /// process and clone the returned handle into each run's config.
    pub fn obs(&self) -> Obs {
        match &self.trace_out {
            Some(path) => {
                let sink = JsonlSink::create(path).unwrap_or_else(|e| {
                    eprintln!("cannot create --trace-out {path}: {e}");
                    std::process::exit(2);
                });
                Obs::with_sink(Arc::new(sink))
            }
            None => Obs::disabled(),
        }
    }
}

/// Parse `raw` as the value of `flag`. A malformed value is a usage
/// error: the flag and the value go to stderr and the process exits 2.
fn value<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}; try --help");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extras_lookup() {
        let a = Args {
            facts: 1,
            dataset: DatasetKind::Automotive,
            seed: 1,
            paper_scale: false,
            on_disk: false,
            json: None,
            trace_out: None,
            extra: vec![("eps".into(), "0.05".into())],
        };
        assert_eq!(a.extra("eps"), Some("0.05"));
        assert_eq!(a.extra_or("eps", 0.0f64), 0.05);
        assert_eq!(a.extra_or("missing", 7u32), 7);
        assert!(!a.obs().is_enabled(), "no --trace-out means a disabled handle");
    }
}
