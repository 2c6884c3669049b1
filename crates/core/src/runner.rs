//! High-level entry point: run a policy + algorithm over a fact table and
//! get back the Extended Database plus a full [`RunReport`].

use crate::basic::run_basic;
use crate::block::{plan_sets, run_block};
use crate::edb::{emit_precise_entries, materialize, ExtendedDatabase};
use crate::error::Result;
use crate::independent::{restore_canonical, run_independent};
use crate::policy::PolicySpec;
use crate::prep::{prepare, PreparedData};
use crate::report::RunReport;
use crate::transitive::run_transitive;
use iolap_model::FactTable;
use iolap_obs::Obs;
use iolap_storage::Env;
use std::path::PathBuf;
use std::time::Instant;

/// Which of the paper's algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1 — in-memory reference.
    Basic,
    /// Algorithm 3 — chain-per-scan with repeated sorting of `C`.
    Independent,
    /// Algorithm 4 — canonical order + partition windows.
    Block,
    /// Algorithm 5 — connected components, per-component iteration.
    Transitive,
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "basic" => Ok(Algorithm::Basic),
            "independent" | "indep" => Ok(Algorithm::Independent),
            "block" => Ok(Algorithm::Block),
            "transitive" | "trans" => Ok(Algorithm::Transitive),
            other => Err(format!("unknown algorithm {other:?}")),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::Basic => "basic",
            Algorithm::Independent => "independent",
            Algorithm::Block => "block",
            Algorithm::Transitive => "transitive",
        };
        write!(f, "{name}")
    }
}

/// Runtime configuration (the experimental knobs of Section 11).
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// Buffer pool size |B| in 4 KiB pages (the paper sweeps 600 KB–50 MB).
    pub buffer_pages: usize,
    /// External-sort budget in pages (defaults to the buffer size).
    pub sort_pages: usize,
    /// Keep all pages in memory (unit tests / CI) instead of temp files.
    pub in_memory_backing: bool,
    /// Directory for the paged files (temp dir if `None`).
    pub dir: Option<PathBuf>,
    /// Independent fidelity flag: re-sort the summary tables every
    /// iteration, as Algorithm 3 specifies (`false` = ablation).
    pub resort_facts: bool,
    /// Transitive optimization: iterate each component only until *its*
    /// cells converge (`false` = ablation: global iteration count).
    pub per_component_convergence: bool,
    /// Observability handle threaded into the storage environment and
    /// the allocation passes. Disabled (free) by default.
    pub obs: Obs,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            buffer_pages: 1024, // 4 MiB
            sort_pages: 0,      // 0 = same as buffer_pages
            in_memory_backing: false,
            dir: None,
            resort_facts: true,
            per_component_convergence: true,
            obs: Obs::disabled(),
        }
    }
}

impl AllocConfig {
    /// Start building a config (the preferred construction path).
    pub fn builder() -> AllocConfigBuilder {
        AllocConfigBuilder { cfg: AllocConfig::default() }
    }

    fn effective_sort_pages(&self) -> usize {
        if self.sort_pages == 0 {
            self.buffer_pages.max(2)
        } else {
            self.sort_pages
        }
    }

    /// Build the storage environment this config describes.
    pub fn build_env(&self, tag: &str) -> Result<Env> {
        let mut b = Env::builder(tag).pool_pages(self.buffer_pages).obs(self.obs.clone());
        if self.in_memory_backing {
            b = b.in_memory();
        }
        if let Some(dir) = &self.dir {
            b = b.dir(dir.clone());
        }
        Ok(b.build()?)
    }
}

/// Builder for [`AllocConfig`] — the knobs of the paper's Section 11
/// experiments plus the observability handle.
///
/// ```
/// use iolap_core::AllocConfig;
///
/// let cfg = AllocConfig::builder().buffer_pages(256).in_memory_backing(true).build();
/// assert_eq!(cfg.buffer_pages, 256);
/// assert!(cfg.in_memory_backing);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AllocConfigBuilder {
    cfg: AllocConfig,
}

impl AllocConfigBuilder {
    /// Buffer pool size |B| in 4 KiB pages.
    pub fn buffer_pages(mut self, pages: usize) -> Self {
        self.cfg.buffer_pages = pages;
        self
    }

    /// External-sort budget in pages (`0` = same as the buffer size).
    pub fn sort_pages(mut self, pages: usize) -> Self {
        self.cfg.sort_pages = pages;
        self
    }

    /// Keep all pages in memory instead of temp files.
    pub fn in_memory_backing(mut self, yes: bool) -> Self {
        self.cfg.in_memory_backing = yes;
        self
    }

    /// Shorthand: in-memory backing with the given pool size (the common
    /// test/example configuration).
    pub fn in_memory(self, buffer_pages: usize) -> Self {
        self.buffer_pages(buffer_pages).in_memory_backing(true)
    }

    /// Directory for the paged files (temp dir if unset).
    pub fn dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.dir = Some(dir.into());
        self
    }

    /// Independent fidelity flag: re-sort the summary tables every
    /// iteration, as Algorithm 3 specifies (`false` = ablation).
    pub fn resort_facts(mut self, yes: bool) -> Self {
        self.cfg.resort_facts = yes;
        self
    }

    /// Transitive optimization: iterate each component only until *its*
    /// cells converge (`false` = ablation).
    pub fn per_component_convergence(mut self, yes: bool) -> Self {
        self.cfg.per_component_convergence = yes;
        self
    }

    /// Attach an observability handle (spans + metrics).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Finish building.
    pub fn build(self) -> AllocConfig {
        self.cfg
    }
}

/// The result of [`allocate`]: the EDB, the report, and the prepared data
/// (kept for maintenance and inspection).
pub struct AllocationRun {
    /// The materialized Extended Database.
    pub edb: ExtendedDatabase,
    /// Timing / I/O / structure statistics.
    pub report: RunReport,
    /// The post-run prepared data (cell deltas hold the fixpoint).
    pub prep: PreparedData,
    /// For Transitive runs: the raw→resolved ccid map (for maintenance).
    pub ccid_resolution: Option<Vec<u32>>,
}

/// Apply `policy` to `table` with `algorithm` and materialize the EDB.
pub fn allocate(
    table: &FactTable,
    policy: &PolicySpec,
    algorithm: Algorithm,
    cfg: &AllocConfig,
) -> Result<AllocationRun> {
    let env = cfg.build_env(&format!("alloc-{algorithm}"))?;
    allocate_in_env(table, policy, algorithm, cfg, &env)
}

/// [`allocate`] against a caller-provided environment (benchmarks share
/// one environment across runs to control the page cache).
pub fn allocate_in_env(
    table: &FactTable,
    policy: &PolicySpec,
    algorithm: Algorithm,
    cfg: &AllocConfig,
    env: &Env,
) -> Result<AllocationRun> {
    let sort_pages = cfg.effective_sort_pages();
    let mut report = RunReport { algorithm: algorithm.to_string(), ..Default::default() };
    let (hits0, misses0) = env.pool().hit_stats();
    let obs = env.obs().clone();
    let mut run_span =
        obs.span_with("alloc.run", vec![("algorithm".to_string(), algorithm.to_string().into())]);

    // ---- preprocessing ----------------------------------------------------
    let t0 = Instant::now();
    let io0 = env.stats().snapshot();
    let mut prep = {
        let _s = obs.span("alloc.prep");
        prepare(table, policy, env, sort_pages)?
    };
    report.wall_prep = t0.elapsed();
    report.io_prep = env.stats().snapshot() - io0;
    report.num_cells = prep.cells.len();
    report.num_imprecise = prep.facts.len();
    report.num_tables = prep.tables.len() as u64;
    report.width = prep.cover.width() as u64;
    report.partition_pages = prep.partition_pages();
    report.unallocatable = prep.unallocatable;

    let mut edb = ExtendedDatabase::create(env, prep.k())?;
    let mut ccid_resolution = None;

    // ---- allocation passes -------------------------------------------------
    let t1 = Instant::now();
    let io1 = env.stats().snapshot();
    let mut pass_span = obs.span("alloc.passes");
    let mut basic_problem = None;
    match algorithm {
        Algorithm::Basic => {
            let (prob, iters, conv) = run_basic(&mut prep, policy)?;
            report.iterations = iters;
            report.converged = conv;
            basic_problem = Some(prob);
        }
        Algorithm::Independent => {
            let out = run_independent(&mut prep, policy, sort_pages, cfg.resort_facts)?;
            report.iterations = out.iterations;
            report.converged = out.converged;
        }
        Algorithm::Block => {
            let out = run_block(&mut prep, policy, cfg.buffer_pages)?;
            report.iterations = out.iterations;
            report.converged = out.converged;
            report.num_table_sets = out.sets.len() as u64;
            report.over_budget = out.over_budget;
        }
        Algorithm::Transitive => {
            let out = run_transitive(
                &mut prep,
                policy,
                cfg.buffer_pages,
                sort_pages,
                &mut edb,
                cfg.per_component_convergence,
            )?;
            report.iterations = out.iterations_max;
            report.converged = out.converged;
            report.num_table_sets = out.num_table_sets;
            report.over_budget = out.over_budget;
            report.components = Some(out.stats);
            ccid_resolution = Some(out.resolved);
        }
    }
    pass_span.record("iterations", report.iterations);
    pass_span.record("converged", report.converged);
    drop(pass_span);
    report.wall_alloc = t1.elapsed();
    report.io_alloc = env.stats().snapshot() - io1;

    // ---- EDB materialization -------------------------------------------------
    let t2 = Instant::now();
    let io2 = env.stats().snapshot();
    let edb_span = obs.span("alloc.edb");
    match algorithm {
        Algorithm::Basic => {
            let mut prob = basic_problem.expect("set above");
            // Persist the fixpoint into the cells file (so queries and
            // inspection over `prep` see it), then emit.
            {
                let mut cursor = prep.cells.scan();
                let mut i = 0usize;
                while let Some(mut cell) = cursor.next()? {
                    let solved = &prob.cells[i];
                    debug_assert_eq!(solved.key, cell.key);
                    cell.delta = solved.delta;
                    cell.converged = solved.converged;
                    cursor.write_back(&cell)?;
                    i += 1;
                }
            }
            let mut seen = std::collections::HashSet::new();
            let mut pending = Vec::new();
            prob.emit(|e| pending.push(e));
            for e in pending {
                let first = seen.insert(e.fact_id);
                edb.push(&e, false, first)?;
            }
            emit_precise_entries(&mut prep, &mut edb)?;
        }
        Algorithm::Independent => {
            restore_canonical(&mut prep, sort_pages)?;
            let window_pages = (cfg.buffer_pages as u64).saturating_sub(4).max(1);
            let (sets, _) = plan_sets(&prep, window_pages);
            materialize(&mut prep, &sets, &mut edb, true)?;
        }
        Algorithm::Block => {
            let window_pages = (cfg.buffer_pages as u64).saturating_sub(4).max(1);
            let (sets, _) = plan_sets(&prep, window_pages);
            materialize(&mut prep, &sets, &mut edb, true)?;
        }
        Algorithm::Transitive => {
            // Imprecise entries were emitted per component; add precise.
            emit_precise_entries(&mut prep, &mut edb)?;
        }
    }
    drop(edb_span);
    report.wall_edb = t2.elapsed();
    report.io_edb = env.stats().snapshot() - io2;
    // The freshly materialized EDB is one base segment; maintenance and
    // queries refine this once deltas and pruning statistics accrue.
    report.edb_segments = 1;
    let (hits1, misses1) = env.pool().hit_stats();
    report.pool_hits = hits1 - hits0;
    report.pool_misses = misses1 - misses0;

    run_span.record("iterations", report.iterations);
    drop(run_span);
    if let Some(metrics) = obs.metrics() {
        report.record_into(metrics);
        // Per-shard buffer-pool census — gauges, so re-running against a
        // shared environment overwrites rather than double-counts.
        for (i, s) in env.pool().shard_stats().iter().enumerate() {
            metrics.gauge(&format!("pool.shard.{i}.hits")).set(s.hits as i64);
            metrics.gauge(&format!("pool.shard.{i}.misses")).set(s.misses as i64);
            metrics.gauge(&format!("pool.shard.{i}.evictions")).set(s.evictions as i64);
        }
    }

    Ok(AllocationRun { edb, report, prep, ccid_resolution })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_model::paper_example;

    fn run(algorithm: Algorithm, policy: &PolicySpec) -> AllocationRun {
        let t = paper_example::table1();
        let cfg = AllocConfig::builder().in_memory(256).build();
        allocate(&t, policy, algorithm, &cfg).unwrap()
    }

    #[test]
    fn all_algorithms_allocate_table1() {
        for alg in
            [Algorithm::Basic, Algorithm::Independent, Algorithm::Block, Algorithm::Transitive]
        {
            let mut r = run(alg, &PolicySpec::em_count(0.01));
            assert!(r.report.converged, "{alg}");
            assert_eq!(r.edb.num_facts_allocated(), 14, "{alg}");
            assert_eq!(r.edb.num_precise_entries(), 5, "{alg}");
            assert_eq!(r.edb.num_imprecise_entries(), 12, "{alg}");
            let checked = r.edb.validate_weights(1e-9).unwrap().unwrap();
            assert_eq!(checked, 14, "{alg}");
        }
    }

    #[test]
    fn all_algorithms_agree_on_weights() {
        let policy = PolicySpec::em_count(0.0005);
        let mut reference = run(Algorithm::Basic, &policy);
        let want = reference.edb.weight_map().unwrap();
        for alg in [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
            let mut r = run(alg, &policy);
            let got = r.edb.weight_map().unwrap();
            assert_eq!(got.len(), want.len(), "{alg}");
            for (id, entries) in &want {
                let g = &got[id];
                assert_eq!(g.len(), entries.len(), "{alg} fact {id}");
                for (a, b) in entries.iter().zip(g.iter()) {
                    assert_eq!(a.0, b.0, "{alg} fact {id}");
                    assert!((a.1 - b.1).abs() < 1e-6, "{alg} fact {id}: {} vs {}", a.1, b.1);
                }
            }
        }
    }

    #[test]
    fn report_structure_is_filled() {
        let r = run(Algorithm::Transitive, &PolicySpec::em_count(0.05));
        assert_eq!(r.report.num_cells, 5);
        assert_eq!(r.report.num_imprecise, 9);
        assert_eq!(r.report.num_tables, 5);
        assert_eq!(r.report.width, 3);
        assert!(r.report.components.is_some());
        assert!(r.ccid_resolution.is_some());
        let s = format!("{}", r.report);
        assert!(s.contains("transitive"), "{s}");
    }

    #[test]
    fn builder_covers_every_knob() {
        let obs = iolap_obs::Obs::metrics_only();
        let cfg = AllocConfig::builder()
            .buffer_pages(512)
            .sort_pages(64)
            .in_memory_backing(true)
            .resort_facts(false)
            .per_component_convergence(false)
            .obs(obs)
            .build();
        assert_eq!(cfg.buffer_pages, 512);
        assert_eq!(cfg.sort_pages, 64);
        assert!(cfg.in_memory_backing);
        assert!(!cfg.resort_facts);
        assert!(!cfg.per_component_convergence);
        assert!(cfg.obs.is_enabled());
    }

    #[test]
    fn observed_run_records_report_metrics() {
        let t = paper_example::table1();
        let obs = iolap_obs::Obs::metrics_only();
        let cfg = AllocConfig::builder().in_memory(256).obs(obs.clone()).build();
        let r = allocate(&t, &PolicySpec::em_count(0.01), Algorithm::Transitive, &cfg).unwrap();
        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.counter("report.iterations").get(), u64::from(r.report.iterations));
        assert_eq!(metrics.counter("report.io.alloc.reads").get(), r.report.io_alloc.reads);
        assert!(metrics.counter("pager.allocs").get() > 0);
        assert!(metrics.histogram("transitive.component_tuples").count() > 0);
    }

    #[test]
    fn algorithm_parsing() {
        assert_eq!("block".parse::<Algorithm>().unwrap(), Algorithm::Block);
        assert_eq!("TRANS".parse::<Algorithm>().unwrap(), Algorithm::Transitive);
        assert!("nope".parse::<Algorithm>().is_err());
    }
}
