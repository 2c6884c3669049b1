//! Set-up: dataset → library reference → running server, and the same
//! again on an existing write-ahead log for recovery.
//!
//! The reference is the library path the server wraps
//! (`allocate` → `MaintainableEdb::build` → `snapshot_segments` /
//! `snapshot_lattice`), built with the same configuration, so a server
//! answer must equal the reference answer byte for byte.

use crate::gen::Batch;
use crate::workloads::{Spec, DATA_SEED};
use crate::Res;
use iolap_core::{
    allocate, Algorithm, AllocConfig, AllocationRun, MaintainableEdb, PolicySpec, RunReport,
};
use iolap_datagen::scaled;
use iolap_model::csv::{read_dataset, write_dataset};
use iolap_model::{FactTable, Schema};
use iolap_serve::{EdbSnapshot, ServeConfig, Server, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Group-commit window of every server: acknowledge at WAL-fsync, fold
/// within 5 ms or 64 frames (the configuration ROADMAP item 3 is written
/// against).
const GROUP_WINDOW: Duration = Duration::from_millis(5);
const GROUP_FRAMES: u64 = 64;

/// Where the seconds of one set-up went.
#[derive(Debug, Clone, Default)]
pub struct SetupTimings {
    pub generate_s: f64,
    pub csv_s: f64,
    pub maintain_build_s: f64,
    pub snapshot_segments_s: f64,
    pub snapshot_lattice_s: f64,
    pub bind_s: f64,
}

/// The dataset after the `gen` → CSV → `serve` round trip every
/// deployment goes through (it is also what names the hierarchy nodes,
/// without which `/update` cannot insert).
pub struct Dataset {
    pub schema: Arc<Schema>,
    pub table: Arc<FactTable>,
}

/// The library-built oracle.
pub struct Reference {
    pub medb: MaintainableEdb,
    pub snapshot: EdbSnapshot,
    pub report: RunReport,
}

impl Reference {
    /// Allocate and index `table` exactly as a server does at start-up.
    pub fn build(
        table: &Arc<FactTable>,
        policy: &PolicySpec,
        t: &mut SetupTimings,
    ) -> Res<Reference> {
        let run = allocate(table, policy, Algorithm::Transitive, &AllocConfig::default())
            .map_err(|e| format!("allocate: {e}"))?;
        Reference::from_run(run, table, policy, &[], t)
    }

    /// Index a finished allocation of `table` and replay `batches` on it
    /// as a restarting server replays its log — every batch, then one
    /// snapshot — so that the segment tiers, and with them the order the
    /// f64 sums are taken in, are the restarted server's.
    pub fn from_run(
        run: AllocationRun,
        table: &Arc<FactTable>,
        policy: &PolicySpec,
        batches: &[&Batch],
        t: &mut SetupTimings,
    ) -> Res<Reference> {
        let report = run.report.clone();
        let t0 = Instant::now();
        let mut medb = MaintainableEdb::build(run, policy.clone())
            .map_err(|e| format!("MaintainableEdb::build: {e}"))?;
        // The coordinator drives compaction off the apply path; the
        // reference does the same so its write-path replay can time it.
        medb.set_background_compaction(true);
        t.maintain_build_s = t0.elapsed().as_secs_f64();
        for (i, b) in batches.iter().enumerate() {
            medb.apply_batch(&b.muts).map_err(|e| format!("apply_batch {i}: {e}"))?;
        }
        let t0 = Instant::now();
        let segments = medb.snapshot_segments().map_err(|e| format!("snapshot_segments: {e}"))?;
        t.snapshot_segments_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let lattice = medb.snapshot_lattice().map_err(|e| format!("snapshot_lattice: {e}"))?;
        t.snapshot_lattice_s = t0.elapsed().as_secs_f64();
        let snapshot = EdbSnapshot {
            epoch: batches.len() as u64,
            schema: medb.schema().clone(),
            table: Arc::clone(table),
            segments,
            lattice: Some(lattice),
        };
        Ok(Reference { medb, snapshot, report })
    }

    /// Live entries and encoded bytes (segments, lattice) at rest.
    pub fn bytes_at_rest(&self) -> Res<(u64, u64, u64)> {
        let mut entries = 0u64;
        let mut seg_bytes = 0u64;
        for v in &self.snapshot.segments {
            entries += v.live_entries().map_err(|e| format!("live_entries: {e}"))?;
            seg_bytes += v.segment.encoded_bytes();
        }
        let lattice_bytes = self.snapshot.lattice.as_ref().map_or(0, |l| l.encoded_bytes());
        Ok((entries, seg_bytes, lattice_bytes))
    }
}

/// Everything a workload's measured phase runs against.
pub struct Fixture {
    pub policy: PolicySpec,
    pub dir: PathBuf,
    pub data: Dataset,
    pub reference: Reference,
    pub server: Option<ServerHandle>,
    pub timings: SetupTimings,
}

impl Fixture {
    /// Generate, load, build the reference, bind.
    pub fn build(spec: &Spec, facts: u64, dir: &Path) -> Res<Fixture> {
        let mut t = SetupTimings::default();
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let generated = scaled(spec.dataset, facts, DATA_SEED);
        t.generate_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let data_dir = dir.join("data");
        write_dataset(&generated, &data_dir).map_err(|e| format!("write_dataset: {e}"))?;
        drop(generated);
        let (schema, table) = read_dataset(&data_dir)?;
        t.csv_s = t0.elapsed().as_secs_f64();
        let data = Dataset { schema, table: Arc::new(table) };

        let policy = PolicySpec::em_count(spec.epsilon);
        let reference = Reference::build(&data.table, &policy, &mut t)?;
        let mut fx =
            Fixture { policy, dir: dir.to_path_buf(), data, reference, server: None, timings: t };
        fx.timings.bind_s = fx.bind()?;
        Ok(fx)
    }

    /// Bind the server on this fixture's write-ahead log (a fresh log the
    /// first time, recovery afterwards). Returns the seconds it took.
    pub fn bind(&mut self) -> Res<f64> {
        let t0 = Instant::now();
        let config = ServeConfig::builder()
            .workers(2)
            .wal_path(self.dir.join("node.wal"))
            .group_window(GROUP_WINDOW)
            .group_frames(GROUP_FRAMES)
            .build();
        let server = Server::builder(FactTable::clone(&self.data.table), self.policy.clone())
            .alloc(AllocConfig::default())
            .config(config)
            .bind("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        self.server = Some(server);
        Ok(t0.elapsed().as_secs_f64())
    }

    /// The running server.
    pub fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server is bound")
    }

    /// One of the server's counters (`serve.*`, `edb.*`, `ingest.*`).
    pub fn counter(&self, name: &str) -> u64 {
        self.server().obs().counter(name).map_or(0, |c| c.get())
    }

    /// One of the server's gauges.
    pub fn gauge(&self, name: &str) -> i64 {
        self.server().obs().gauge(name).map_or(0, |g| g.get())
    }

    /// Stop the server (a graceful shutdown folds any acknowledged
    /// backlog) and wait for every thread.
    pub fn stop(&mut self) {
        self.server = None;
    }
}
