//! Shared measurement helpers for the harness binaries.

use iolap_core::{allocate_in_env, Algorithm, AllocConfig, PolicySpec, RunReport};
use iolap_model::FactTable;
use iolap_obs::Obs;
use iolap_storage::Env;

/// One measured point of a figure: algorithm, configuration, and the run
/// report (wall-clock + page I/O).
#[derive(Debug, Clone)]
pub struct OnePoint {
    /// Algorithm that produced the point.
    pub algorithm: Algorithm,
    /// Buffer size in pages.
    pub buffer_pages: usize,
    /// Convergence threshold used.
    pub epsilon: f64,
    /// Full run report.
    pub report: RunReport,
}

impl OnePoint {
    /// Seconds spent in the allocation passes (the paper's reported time
    /// excludes preprocessing and the final EDB write).
    pub fn alloc_secs(&self) -> f64 {
        self.report.wall_alloc.as_secs_f64()
    }

    /// Allocation-phase page I/Os.
    pub fn alloc_ios(&self) -> u64 {
        self.report.io_alloc.total()
    }

    /// The point as JSON fields, for `write_json` outputs.
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("algorithm", Json::S(self.algorithm.to_string())),
            ("buffer_pages", Json::U(self.buffer_pages as u64)),
            ("epsilon", Json::F(self.epsilon)),
            ("iterations", Json::U(u64::from(self.report.iterations))),
            ("converged", Json::B(self.report.converged)),
            ("alloc_secs", Json::F(self.alloc_secs())),
            ("alloc_ios", Json::U(self.alloc_ios())),
            ("pool_hits", Json::U(self.report.pool_hits)),
            ("pool_misses", Json::U(self.report.pool_misses)),
            ("pool_hit_ratio", Json::F(self.report.pool_hit_ratio())),
        ]
    }
}

/// Run one (algorithm, config, ε) cell of an experiment grid in a fresh
/// environment, returning the measured point. The config carries the
/// buffer size, backing and observability handle — build it
/// with [`AllocConfig::builder`], e.g. via [`bench_config`].
pub fn run_once(
    table: &FactTable,
    algorithm: Algorithm,
    epsilon: f64,
    max_iters: u32,
    cfg: &AllocConfig,
) -> OnePoint {
    let policy = PolicySpec::em_count(epsilon).with_max_iters(max_iters);
    let env: Env = cfg.build_env(&format!("bench-{algorithm}")).expect("env");
    let run = allocate_in_env(table, &policy, algorithm, cfg, &env).expect("allocation");
    OnePoint { algorithm, buffer_pages: cfg.buffer_pages, epsilon, report: run.report }
}

/// The harness binaries' standard config: `buffer_pages` of in-memory
/// (or real-file, with `--on-disk`) backing and the invocation's
/// observability handle.
pub fn bench_config(buffer_pages: usize, on_disk: bool, obs: Obs) -> AllocConfig {
    AllocConfig::builder().buffer_pages(buffer_pages).in_memory_backing(!on_disk).obs(obs).build()
}

/// Pages for a buffer given in KB (the paper quotes buffer sizes in
/// KB/MB).
pub fn kb_to_pages(kb: u64) -> usize {
    ((kb * 1024) as usize).div_ceil(iolap_storage::PAGE_SIZE)
}

/// Render a header + rows of aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter().map(|r| r[i].len()).chain(std::iter::once(h.len())).max().unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|s| s.to_string()).collect());
    for r in rows {
        line(r.clone());
    }
}

/// A JSON scalar for machine-readable outputs (the sanctioned dependency
/// list has no JSON crate, and these outputs are flat enough that a
/// hand-rolled emitter stays trivial). Strings and floats go through
/// `iolap_obs::json`'s escaper and float writer, as the wire format's do.
#[derive(Debug, Clone)]
pub enum Json {
    /// Unsigned integer.
    U(u64),
    /// Float (non-finite values render as `null`).
    F(f64),
    /// String (escaped on output).
    S(String),
    /// Boolean.
    B(bool),
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::U(v) => write!(f, "{v}"),
            Json::F(v) => {
                let mut out = String::new();
                iolap_obs::json::write_f64_into(&mut out, *v);
                f.write_str(&out)
            }
            Json::B(v) => write!(f, "{v}"),
            Json::S(s) => {
                let mut out = String::from("\"");
                iolap_obs::json::escape_json_into(&mut out, s);
                out.push('"');
                f.write_str(&out)
            }
        }
    }
}

fn json_object(fields: &[(&str, Json)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", Json::S(k.to_string()))).collect();
    format!("{{{}}}", body.join(", "))
}

/// Render `{"meta": {…}, "points": [{…}, …]}` for a benchmark run.
pub fn json_report(meta: &[(&str, Json)], points: &[Vec<(&str, Json)>]) -> String {
    let rows: Vec<String> = points.iter().map(|p| format!("    {}", json_object(p))).collect();
    format!(
        "{{\n  \"meta\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_object(meta),
        rows.join(",\n")
    )
}

/// Write a `json_report` to `path` (used by the harness binaries'
/// `--json` flag).
pub fn write_json(
    path: &str,
    meta: &[(&str, Json)],
    points: &[Vec<(&str, Json)>],
) -> std::io::Result<()> {
    std::fs::write(path, json_report(meta, points))?;
    println!("wrote {path} ({} points)", points.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kb_conversion() {
        assert_eq!(kb_to_pages(600), 150); // the paper's 600 KB buffer
        assert_eq!(kb_to_pages(1024), 256); // 1 MB
        assert_eq!(kb_to_pages(12 * 1024), 3072); // 12 MB
    }

    #[test]
    fn run_once_smoke() {
        let table = iolap_model::paper_example::table1();
        let cfg = bench_config(64, false, Obs::disabled());
        let p = run_once(&table, Algorithm::Block, 0.05, 50, &cfg);
        assert!(p.report.converged);
        assert_eq!(p.buffer_pages, 64);
    }

    #[test]
    fn json_report_shape_and_escaping() {
        let s = json_report(
            &[("dataset", Json::S("syn\"thetic".into())), ("facts", Json::U(5))],
            &[vec![("alloc_secs", Json::F(0.25)), ("converged", Json::B(true))]],
        );
        assert!(s.contains("\"syn\\\"thetic\""));
        assert!(s.contains("\"alloc_secs\": 0.25"));
        assert!(s.contains("\"converged\": true"));
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
        assert_eq!(format!("{}", Json::F(f64::NAN)), "null");
    }
}
