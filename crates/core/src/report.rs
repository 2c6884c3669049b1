//! Run reports: wall-clock, page I/O, and structural statistics for each
//! allocation run — the quantities Section 11's figures plot.

use iolap_obs::Metrics;
use iolap_storage::IoSnapshot;
use std::fmt;
use std::time::Duration;

/// Statistics of one allocation run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Algorithm name ("basic" / "independent" / "block" / "transitive").
    pub algorithm: String,
    /// Iterations executed (max over components for Transitive).
    pub iterations: u32,
    /// Whether every cell converged before the iteration cap.
    pub converged: bool,
    /// Page I/O spent in preprocessing (sort into summary-table order,
    /// first/last computation) — reported separately because the paper
    /// excludes it from the algorithm costs ("we omit the costs of sorting
    /// D into summary table order…").
    pub io_prep: IoSnapshot,
    /// Page I/O spent in the allocation passes proper.
    pub io_alloc: IoSnapshot,
    /// Page I/O spent writing the Extended Database (also excluded from
    /// the paper's per-algorithm costs).
    pub io_edb: IoSnapshot,
    /// Wall-clock of preprocessing.
    pub wall_prep: Duration,
    /// Wall-clock of the allocation passes.
    pub wall_alloc: Duration,
    /// Wall-clock of EDB materialization.
    pub wall_edb: Duration,
    /// Number of cells |C|.
    pub num_cells: u64,
    /// Number of imprecise facts |I|.
    pub num_imprecise: u64,
    /// Number of imprecise summary tables.
    pub num_tables: u64,
    /// Width W of the summary-table partial order (chains).
    pub width: u64,
    /// Number of bin-packed table sets |S| (Block / Transitive).
    pub num_table_sets: u64,
    /// Total partition size |P| in pages.
    pub partition_pages: u64,
    /// True if some single table's partition exceeded the buffer (the
    /// paper's analysis assumes this never happens).
    pub over_budget: bool,
    /// Imprecise facts covering no candidate cell (no EDB entries; see
    /// DESIGN.md on the Γ = 0 fallback).
    pub unallocatable: u64,
    /// Buffer-pool pin hits over the whole run (lock-free counter).
    pub pool_hits: u64,
    /// Buffer-pool pin misses over the whole run (lock-free counter).
    pub pool_misses: u64,
    /// Component statistics (Transitive only).
    pub components: Option<ComponentStats>,
    /// Number of EDB segments in the run's output view (1 for a fresh
    /// allocation; base + deltas under maintenance).
    pub edb_segments: u64,
    /// Segment compactions performed (maintenance only).
    pub edb_compactions: u64,
    /// Segment pages skipped by fence pruning across query scans.
    pub edb_pages_pruned: u64,
    /// Segment pages actually visited across query scans.
    pub edb_pages_read: u64,
    /// Bytes charged for the pages visited (their compressed payload
    /// bytes).
    pub edb_bytes_read: u64,
    /// Segment compression milli-ratio: `uncompressed / encoded × 1000`
    /// (1000 = uncompressed, 1700 = pages 1.7× smaller).
    pub edb_compression_ratio_milli: u64,
}

/// Connected-component census from the Transitive algorithm — the numbers
/// Section 11.2 reports (283,199 components, 205,874 singletons, …).
#[derive(Debug, Clone, Default)]
pub struct ComponentStats {
    /// Total connected components (including singleton precise cells).
    pub total: u64,
    /// Components that are a single non-overlapped cell.
    pub singleton_cells: u64,
    /// Components with more than 20 tuples.
    pub over_20: u64,
    /// Components with more than 100 tuples.
    pub over_100: u64,
    /// Components with at least 1000 tuples.
    pub over_1000: u64,
    /// Size (in tuples) of the largest component.
    pub largest: u64,
    /// Components processed via the external Block fallback.
    pub large_external: u64,
    /// Tuples in external (larger-than-buffer) components — the paper's
    /// |L| (in records here; pages derivable from record widths).
    pub external_tuples: u64,
}

impl RunReport {
    /// Total allocation-phase page I/O.
    pub fn alloc_ios(&self) -> u64 {
        self.io_alloc.total()
    }

    /// End-to-end wall-clock.
    pub fn total_wall(&self) -> Duration {
        self.wall_prep + self.wall_alloc + self.wall_edb
    }

    /// Buffer-pool hit ratio over the whole run, `hits / (hits + misses)`.
    /// `1.0` when the pool was never pinned.
    pub fn pool_hit_ratio(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Record this report into `metrics` as `report.*` series.
    ///
    /// Counters use add semantics, so recording several runs into one
    /// registry accumulates their I/O and wall-clock totals; structural
    /// quantities (|C|, |I|, W, …) land in gauges and reflect the most
    /// recent run.
    pub fn record_into(&self, metrics: &Metrics) {
        for (phase, io) in [("prep", self.io_prep), ("alloc", self.io_alloc), ("edb", self.io_edb)]
        {
            metrics.counter(&format!("report.io.{phase}.reads")).add(io.reads);
            metrics.counter(&format!("report.io.{phase}.writes")).add(io.writes);
        }
        for (phase, wall) in
            [("prep", self.wall_prep), ("alloc", self.wall_alloc), ("edb", self.wall_edb)]
        {
            metrics.counter(&format!("report.wall.{phase}.us")).add(wall.as_micros() as u64);
        }
        metrics.counter("report.pool.hits").add(self.pool_hits);
        metrics.counter("report.pool.misses").add(self.pool_misses);
        metrics.counter("report.iterations").add(u64::from(self.iterations));
        metrics.gauge("report.edb.segments").set(self.edb_segments as i64);
        metrics.counter("report.edb.compactions").add(self.edb_compactions);
        metrics.counter("report.edb.pages_pruned").add(self.edb_pages_pruned);
        metrics.counter("report.edb.pages_read").add(self.edb_pages_read);
        metrics.counter("report.edb.bytes_read").add(self.edb_bytes_read);
        metrics.gauge("report.edb.compression_ratio").set(self.edb_compression_ratio_milli as i64);
        metrics.gauge("report.converged").set(i64::from(self.converged));
        metrics.gauge("report.over_budget").set(i64::from(self.over_budget));
        for (name, v) in [
            ("num_cells", self.num_cells),
            ("num_imprecise", self.num_imprecise),
            ("num_tables", self.num_tables),
            ("width", self.width),
            ("num_table_sets", self.num_table_sets),
            ("partition_pages", self.partition_pages),
            ("unallocatable", self.unallocatable),
        ] {
            metrics.gauge(&format!("report.{name}")).set(v as i64);
        }
        if let Some(c) = &self.components {
            for (name, v) in [
                ("total", c.total),
                ("singleton_cells", c.singleton_cells),
                ("over_20", c.over_20),
                ("over_100", c.over_100),
                ("over_1000", c.over_1000),
                ("largest", c.largest),
                ("large_external", c.large_external),
                ("external_tuples", c.external_tuples),
            ] {
                metrics.gauge(&format!("report.components.{name}")).set(v as i64);
            }
        }
    }

    /// Project the report into a fresh metrics registry (the basis of the
    /// [`to_json`](Self::to_json) / [`to_prometheus`](Self::to_prometheus)
    /// exports).
    pub fn to_metrics(&self) -> Metrics {
        let m = Metrics::new();
        self.record_into(&m);
        m
    }

    /// The report as one JSON object (see [`Metrics::to_json`] for the
    /// shape), with every series under a `report.` prefix.
    pub fn to_json(&self) -> String {
        self.to_metrics().to_json()
    }

    /// The report in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        self.to_metrics().to_prometheus()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} iterations ({}), |C|={} |I|={} tables={} W={} |S|={} |P|={}p",
            self.algorithm,
            self.iterations,
            if self.converged { "converged" } else { "iteration cap hit" },
            self.num_cells,
            self.num_imprecise,
            self.num_tables,
            self.width,
            self.num_table_sets,
            self.partition_pages,
        )?;
        writeln!(f, "  prep : {:>10.3?}  {}", self.wall_prep, self.io_prep)?;
        writeln!(f, "  alloc: {:>10.3?}  {}", self.wall_alloc, self.io_alloc)?;
        writeln!(f, "  edb  : {:>10.3?}  {}", self.wall_edb, self.io_edb)?;
        writeln!(
            f,
            "  pool : {} hits / {} misses (hit ratio {:.3})",
            self.pool_hits,
            self.pool_misses,
            self.pool_hit_ratio()
        )?;
        if self.unallocatable > 0 {
            writeln!(f, "  unallocatable imprecise facts: {}", self.unallocatable)?;
        }
        if let Some(c) = &self.components {
            writeln!(
                f,
                "  components: {} total, {} singleton cells, {} >20, {} >100, {} ≥1000, largest {}, {} external",
                c.total, c.singleton_cells, c.over_20, c.over_100, c.over_1000, c.largest,
                c.large_external
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_fields() {
        let mut r = RunReport {
            algorithm: "block".into(),
            iterations: 4,
            converged: true,
            num_cells: 100,
            num_imprecise: 30,
            ..Default::default()
        };
        r.components = Some(ComponentStats { total: 7, largest: 5, ..Default::default() });
        let s = format!("{r}");
        assert!(s.contains("block"));
        assert!(s.contains("4 iterations"));
        assert!(s.contains("components: 7"));
    }

    #[test]
    fn json_export_round_trips() {
        let r = RunReport {
            algorithm: "transitive".into(),
            iterations: 6,
            converged: true,
            io_alloc: IoSnapshot { reads: 100, writes: 40 },
            num_cells: 55,
            pool_hits: 9,
            components: Some(ComponentStats { total: 3, largest: 2, ..Default::default() }),
            ..Default::default()
        };
        let json = iolap_obs::json::parse(&r.to_json()).unwrap();
        let counter = |name: &str| {
            json.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap()
        };
        let gauge = |name: &str| {
            json.get("gauges").and_then(|g| g.get(name)).and_then(|v| v.as_f64()).unwrap()
        };
        assert_eq!(counter("report.io.alloc.reads"), 100);
        assert_eq!(counter("report.io.alloc.writes"), 40);
        assert_eq!(counter("report.iterations"), 6);
        assert_eq!(counter("report.pool.hits"), 9);
        assert_eq!(gauge("report.num_cells"), 55.0);
        assert_eq!(gauge("report.converged"), 1.0);
        assert_eq!(gauge("report.components.total"), 3.0);
    }

    #[test]
    fn prometheus_export_names_series() {
        let r = RunReport { io_prep: IoSnapshot { reads: 7, writes: 2 }, ..Default::default() };
        let prom = r.to_prometheus();
        assert!(prom.contains("iolap_report_io_prep_reads 7"), "{prom}");
        assert!(prom.contains("iolap_report_io_prep_writes 2"), "{prom}");
        assert!(prom.contains("# TYPE iolap_report_converged gauge"), "{prom}");
    }

    #[test]
    fn prometheus_export_includes_segment_series() {
        let r = RunReport {
            edb_segments: 3,
            edb_compactions: 1,
            edb_pages_pruned: 90,
            edb_pages_read: 10,
            edb_bytes_read: 4096,
            edb_compression_ratio_milli: 1700,
            ..Default::default()
        };
        let prom = r.to_prometheus();
        assert!(prom.contains("iolap_report_edb_segments 3"), "{prom}");
        assert!(prom.contains("iolap_report_edb_compactions 1"), "{prom}");
        assert!(prom.contains("iolap_report_edb_pages_pruned 90"), "{prom}");
        assert!(prom.contains("iolap_report_edb_pages_read 10"), "{prom}");
        assert!(prom.contains("iolap_report_edb_bytes_read 4096"), "{prom}");
        assert!(prom.contains("iolap_report_edb_compression_ratio 1700"), "{prom}");
    }

    #[test]
    fn record_into_accumulates_counters() {
        let m = Metrics::new();
        let r = RunReport {
            io_alloc: IoSnapshot { reads: 10, writes: 5 },
            iterations: 2,
            ..Default::default()
        };
        r.record_into(&m);
        r.record_into(&m);
        assert_eq!(m.counter("report.io.alloc.reads").get(), 20);
        assert_eq!(m.counter("report.iterations").get(), 4);
    }
}
