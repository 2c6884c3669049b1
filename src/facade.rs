//! The `Iolap` entry point: open a dataset, configure a run, allocate.
//!
//! ```
//! use iolap::prelude::*;
//!
//! let table = iolap::model::paper_example::table1();
//! let mut run = Iolap::from_table(table)
//!     .config(AllocConfig::builder().in_memory(256).build())
//!     .policy(PolicySpec::em_count(0.005))
//!     .allocate(Algorithm::Transitive)
//!     .unwrap();
//! assert!(run.report.converged);
//! assert_eq!(run.edb.num_facts_allocated(), 14);
//! ```

use crate::error::{Error, Result, ResultExt};
use iolap_core::{allocate, Algorithm, AllocConfig, AllocationRun, PolicySpec};
use iolap_model::{FactTable, Schema};
use iolap_obs::Obs;
use iolap_serve::{Server, ServerHandle};
use std::path::Path;
use std::sync::Arc;

/// A configured imprecise-OLAP database: one fact table plus the knobs of
/// a run. Construction is cheap — the storage environment is built (and
/// the paged files written) only when [`allocate`](Self::allocate) runs.
pub struct Iolap {
    schema: Arc<Schema>,
    table: FactTable,
    cfg: AllocConfig,
    policy: PolicySpec,
}

impl Iolap {
    /// Open a CSV dataset directory (as written by `iolap gen`):
    /// `dimN_<name>.csv` hierarchy files plus `facts.csv`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let (schema, table) =
            load_dataset(dir).context(format!("loading dataset from {}", dir.display()))?;
        Ok(Self::new(schema, table))
    }

    /// Wrap an in-memory fact table (tests, examples, generated data).
    pub fn from_table(table: FactTable) -> Self {
        Self::new(table.schema().clone(), table)
    }

    /// Default configuration and the paper's baseline policy, EM-Count
    /// with ε = 0.01.
    fn new(schema: Arc<Schema>, table: FactTable) -> Self {
        Iolap { schema, table, cfg: AllocConfig::default(), policy: PolicySpec::em_count(0.01) }
    }

    /// Replace the run configuration (see [`AllocConfig::builder`]).
    pub fn config(mut self, cfg: AllocConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the allocation policy (default: EM-Count with ε = 0.01).
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.policy = policy;
        self
    }

    /// Attach an observability handle for the next run.
    pub fn observe(mut self, obs: Obs) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// The dataset's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The loaded fact table.
    pub fn table(&self) -> &FactTable {
        &self.table
    }

    /// Run `algorithm` with the configured policy and materialize the EDB.
    pub fn allocate(&self, algorithm: Algorithm) -> Result<AllocationRun> {
        allocate(&self.table, &self.policy, algorithm, &self.cfg)
            .context(format!("running {algorithm} allocation"))
    }

    /// Allocate (Transitive — required for incremental maintenance) and
    /// serve the materialized EDB over HTTP on `addr`. Blocks until the
    /// initial allocation is built and the socket is listening; the
    /// returned handle owns the server threads and shuts the server down
    /// when dropped. See `iolap_serve` for the endpoint surface.
    pub fn serve(&self, addr: &str, cfg: iolap_serve::ServeConfig) -> Result<ServerHandle> {
        Server::builder(self.table.clone(), self.policy.clone())
            .alloc(self.cfg.clone())
            .config(cfg)
            .bind(addr)
            .map_err(|e| Error::data(format!("starting query server: {e}")))
    }
}

/// Load `dimN_*.csv` + `facts.csv` from a directory (the layout written
/// by [`iolap_model::csv::write_dataset`]).
fn load_dataset(dir: &Path) -> Result<(Arc<Schema>, FactTable)> {
    iolap_model::csv::read_dataset(dir).map_err(Error::data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_model::paper_example;

    #[test]
    fn from_table_allocates_with_defaults() {
        let db = Iolap::from_table(paper_example::table1())
            .config(AllocConfig::builder().in_memory(256).build());
        let run = db.allocate(Algorithm::Block).unwrap();
        assert!(run.report.converged);
        assert_eq!(db.schema().k(), 2);
        assert_eq!(db.table().len(), 14);
    }

    #[test]
    fn policy_and_observe_thread_through() {
        let obs = Obs::metrics_only();
        let db = Iolap::from_table(paper_example::table1())
            .config(AllocConfig::builder().in_memory(256).build())
            .policy(PolicySpec::uniform())
            .observe(obs.clone());
        let run = db.allocate(Algorithm::Transitive).unwrap();
        assert!(run.report.converged);
        assert!(obs.metrics().unwrap().counter("report.iterations").get() <= 1);
    }

    #[test]
    fn open_missing_directory_reports_context() {
        let err = match Iolap::open("/nonexistent/iolap-dataset") {
            Err(e) => e,
            Ok(_) => panic!("open of a missing directory must fail"),
        };
        let s = format!("{err}");
        assert!(s.contains("loading dataset from"), "{s}");
    }
}
