//! The metric registry: every name this benchmark can print, with its
//! unit and direction. `BENCHMARK.json` lists the same names; a test
//! keeps the two equal, so neither can drift.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: something a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("read_ops_per_s", "ops/s", Better::Higher, 0.25),
    e2e("read_p50_us", "us", Better::Lower, 0.25),
    e2e("read_p90_us", "us", Better::Lower, 0.25),
    e2e("write_ops_per_s", "batches/s", Better::Higher, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("alloc_s", "s", Better::Lower, 0.25),
    e2e("alloc_io_pages", "pages", Better::Lower, 0.02),
    e2e("edb_bytes_per_entry", "bytes", Better::Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

/// One per-layer metric; the part of its name before the last dot is
/// the module it measures.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// The per-layer metrics, reported (zero where a workload does not
/// reach the layer) by every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    lo("server.http.parse_us", "us"),
    lo("server.http.respond_us", "us"),
    lo("server.wire.parse_us", "us"),
    lo("server.wire.serialize_us", "us"),
    lo("server.wire.parse_update_us", "us"),
    lo("server.cache.get_us", "us"),
    lo("server.cache.insert_us", "us"),
    lo("server.cache.invalidate_us", "us"),
    hi("server.cache.hit_ratio", "ratio"),
    lo("server.cache.evicted_per_op", "count"),
    lo("server.cache.invalidated_per_update", "count"),
    lo("server.snapshot.aggregate_us", "us"),
    lo("server.snapshot.rollup_us", "us"),
    lo("server.reactor.residual_us", "us"),
    lo("server.bind_s", "s"),
    lo("core.segment.cursor_us", "us"),
    lo("core.segment.accumulate_us", "us"),
    lo("core.segment.pages_read_per_op", "pages"),
    hi("core.segment.pages_pruned_per_op", "pages"),
    lo("core.segment.bytes_read_per_op", "bytes"),
    lo("core.segment.bytes_per_entry", "bytes"),
    lo("core.segment.count", "count"),
    lo("model.segment_page.decode_us_per_page", "us"),
    hi("model.segment_page.rows_per_page", "count"),
    lo("model.csv.roundtrip_s", "s"),
    hi("core.cuboid.hit_ratio", "ratio"),
    lo("core.cuboid.bytes", "bytes"),
    lo("core.cuboid.build_s", "s"),
    lo("query.planner.pages_read_per_op", "pages"),
    lo("core.ingest.wal_append_us", "us"),
    lo("core.ingest.wal_sync_us", "us"),
    lo("core.ingest.wal_bytes_per_update", "bytes"),
    lo("core.ingest.folds_per_update", "ratio"),
    lo("core.ingest.replay_us_per_batch", "us"),
    lo("core.maintain.build_s", "s"),
    lo("core.maintain.apply_batch_us", "us"),
    lo("core.maintain.snapshot_segments_us", "us"),
    lo("core.maintain.snapshot_lattice_us", "us"),
    lo("core.maintain.compaction_run_us", "us"),
    lo("core.maintain.compactions_per_kupdate", "count"),
    lo("core.maintain.affected_components_per_update", "count"),
    lo("core.maintain.entries_rewritten_per_update", "count"),
    lo("core.alloc.prep_s", "s"),
    lo("core.alloc.passes_s", "s"),
    lo("core.alloc.edb_s", "s"),
    lo("core.alloc.iterations", "count"),
    lo("core.alloc.edb_entries", "count"),
    lo("core.alloc.block_s", "s"),
    lo("core.alloc.block_io_pages", "pages"),
    lo("storage.io.reads", "pages"),
    lo("storage.io.writes", "pages"),
    hi("storage.buffer.hit_ratio", "ratio"),
    lo("storage.buffer.misses", "count"),
    lo("datagen.generate_s", "s"),
    lo("client.read_p99_us", "us"),
    lo("client.read_max_us", "us"),
    lo("client.write_p50_us", "us"),
    lo("client.write_p99_us", "us"),
    lo("client.write_mixed_p50_us", "us"),
    lo("client.overhead_us", "us"),
    lo("client.echo_p50_us", "us"),
    lo("trace.replay_op_us", "us"),
    lo("trace.overhead_us", "us"),
    lo("trace.spans", "count"),
    lo("host.calib_ms", "ms"),
    lo("host.calib_drift_pct", "%"),
    lo("host.steal_pct", "%"),
    hi("host.clean_windows", "count"),
];

/// Named values being filled in for one run. Setting a name that is not
/// in the registry is a bug in the harness and panics.
#[derive(Debug, Clone)]
pub struct Values {
    names: Vec<(&'static str, &'static str)>,
    values: Vec<f64>,
}

impl Values {
    /// Every end-to-end metric, at zero.
    pub fn end_to_end() -> Self {
        Self::zeros(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    /// Every per-layer metric, at zero.
    pub fn per_layer() -> Self {
        Self::zeros(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn zeros(names: Vec<(&'static str, &'static str)>) -> Self {
        let values = vec![0.0; names.len()];
        Values { names, values }
    }

    /// Set `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        self.values[i] = value;
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(n, _, _)| *n == name).map_or(0.0, |(_, _, v)| v)
    }

    /// `(name, unit, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.names.iter().zip(&self.values).map(|(&(n, u), &v)| (n, u, v))
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// no metric should produce, print as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn values_json(values: &Values) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(v)))
        .collect();
    format!("{{{}}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(n), "bad name {n}");
            assert!(unit_ok(u), "bad unit {u}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn values_print_in_registry_order_with_units() {
        let mut v = Values::end_to_end();
        v.set("setup_s", 1.25);
        assert_eq!(v.get("setup_s"), 1.25);
        assert!(values_json(&v).starts_with("{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"},"));
    }
}
