//! The traced run: generated requests replayed in-process through the
//! public functions a handler calls, in the handler's order, each call
//! an `iolap-obs` span kept in a ring and written out as JSONL at the
//! end. The servers themselves carry no spans yet (ROADMAP item 6), so
//! the spans are recorded here, around the calls into each layer.
//!
//! `iolap-obs` stamps spans in whole microseconds, too coarse for a
//! 300 ns cache probe, so every span also records the call's duration
//! in nanoseconds (field `ns`). A stage's metric is the median over ops
//! of its self time: its `ns` minus its child spans' `ns`.

use crate::fixture::Reference;
use crate::gen::{Batch, ReadKind, ReadOp};
use crate::stats::median;
use crate::Res;
use iolap_core::maintain::EdbMutation;
use iolap_core::{MutationWal, SegmentCursor};
use iolap_model::{Fact, Schema, MAX_DIMS};
use iolap_obs::{Event, EventKind, EventSink, Obs, RingSink, Value};
use iolap_serve::http::{self, ParseStatus};
use iolap_serve::snapshot::{resolve_level, resolve_region};
use iolap_serve::{wire, CacheKey, CachedResult, EdbSnapshot, ShardedCache};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `ServeConfig::default()`'s cache and body limits, which the replay
/// mirrors.
const CACHE_CAPACITY: usize = 4096;
const CACHE_SHARDS: usize = 8;
const MAX_BODY: usize = 1 << 20;

/// Span recorder shared by the replays of one run.
pub struct Tracer {
    ring: Arc<RingSink>,
    obs: Obs,
}

impl Default for Tracer {
    fn default() -> Self {
        let ring = Arc::new(RingSink::new(1 << 19));
        let obs = Obs::with_sink(Arc::clone(&ring) as Arc<dyn EventSink>);
        Tracer { ring, obs }
    }
}

/// Run `f` as one span named `name`, recording its nanoseconds. With a
/// disabled handle the span is inert and only the clock reads remain.
fn stage<T>(obs: &Obs, name: &str, f: impl FnOnce() -> T) -> T {
    let mut span = obs.span(name);
    let t0 = Instant::now();
    let out = f();
    span.record("ns", t0.elapsed().as_nanos() as u64);
    out
}

/// Open the root span of one replayed request.
fn root(obs: &Obs, name: &str, op: usize) -> iolap_obs::Span {
    obs.span_with(name, vec![("op".to_string(), Value::U64(op as u64))])
}

fn parse_request(obs: &Obs, bytes: &[u8]) -> Res<http::Request> {
    match stage(obs, "server.http.parse", || http::try_parse(bytes, MAX_BODY)) {
        Ok(ParseStatus::Complete(req, _)) => Ok(req),
        Ok(ParseStatus::Partial { .. }) => Err("generated request is incomplete".into()),
        Err(e) => Err(format!("try_parse: {e:?}")),
    }
}

/// One request through the read handler's steps. Returns the response
/// bytes the reactor would write.
fn replay_read(
    obs: &Obs,
    snapshot: &EdbSnapshot,
    cache: &ShardedCache,
    op: &ReadOp,
) -> Res<Vec<u8>> {
    let req = parse_request(obs, &op.request)?;
    let body = match &op.kind {
        ReadKind::Query { .. } => {
            let (q, region) = stage(obs, "server.wire.parse", || -> Res<_> {
                let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
                let q = wire::parse_query(text)?;
                let region = resolve_region(&snapshot.schema, &q.at)?;
                Ok((q, region))
            })?;
            let key = CacheKey::new(&region, q.agg, q.classical);
            let hit = stage(obs, "server.cache.get", || cache.get(&key));
            let (result, cached, epoch) = match hit {
                Some(h) => (h.result, true, h.epoch),
                None => {
                    let (result, _) = stage(obs, "server.snapshot.aggregate", || {
                        snapshot.aggregate_with_stats(&region, q.agg)
                    })
                    .map_err(|e| format!("aggregate: {e}"))?;
                    stage(obs, "server.cache.insert", || {
                        cache.insert(key, CachedResult { result, epoch: snapshot.epoch })
                    });
                    (result, false, snapshot.epoch)
                }
            };
            stage(obs, "server.wire.serialize", || {
                wire::query_response(&result, q.agg, cached, epoch)
            })
        }
        ReadKind::Rollup { .. } => {
            let (r, dim, level, region) = stage(obs, "server.wire.parse", || -> Res<_> {
                let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
                let r = wire::parse_rollup(text)?;
                let (dim, level) = resolve_level(&snapshot.schema, &r.dim, &r.level)?;
                let region = resolve_region(&snapshot.schema, &r.at)?;
                Ok((r, dim, level, region))
            })?;
            let (rows, _) = stage(obs, "server.snapshot.rollup", || {
                snapshot.rollup(dim, level, Some(&region), r.agg)
            })
            .map_err(|e| format!("rollup: {e}"))?;
            stage(obs, "server.wire.serialize", || {
                wire::rollup_response(&rows, r.agg, snapshot.epoch)
            })
        }
    };
    Ok(stage(obs, "server.http.respond", || {
        http::response_bytes(200, "application/json", body.as_bytes(), req.keep_alive)
    }))
}

/// What the read replay measured besides its spans.
pub struct ReadReplay {
    /// Median in-process microseconds per request with spans recorded.
    pub traced_op_us: f64,
    /// The same requests with a disabled handle: the difference is what
    /// recording costs.
    pub untraced_op_us: f64,
    /// In-process microseconds of each replayed request (disabled
    /// handle), in replay order.
    pub per_op_us: Vec<f64>,
}

impl Tracer {
    /// Replay the requests `which` indexes in `ops`, in that order (fewer
    /// when a pass has used `budget`), twice against fresh result caches — first with a
    /// disabled handle, then recording — pre-filling the cache with the
    /// stream's repeats when `prewarm` (the hot set is all hits on a
    /// running server, so it must be here). When `probe_cursor`, each
    /// recorded query is followed by a bare `SegmentCursor::for_each`
    /// over its box, outside the request's span.
    pub fn replay_reads(
        &self,
        snapshot: &EdbSnapshot,
        ops: &[ReadOp],
        which: &[usize],
        budget: Duration,
        prewarm: bool,
        probe_cursor: bool,
    ) -> Res<ReadReplay> {
        let mut medians = [0.0f64; 2];
        let mut n = which.len();
        let mut untraced = Vec::new();
        for (pass, obs) in [Obs::disabled(), self.obs.clone()].iter().enumerate() {
            let cache = ShardedCache::new(CACHE_CAPACITY, CACHE_SHARDS);
            if prewarm {
                for op in ops {
                    replay_read(&Obs::disabled(), snapshot, &cache, op)?;
                }
            }
            let mut per_op = Vec::with_capacity(n);
            let started = Instant::now();
            for (i, op) in which.iter().map(|&w| &ops[w]).take(n).enumerate() {
                // Both passes replay the same requests: the first one's
                // budget fixes how many.
                if pass == 0 && i >= 50 && started.elapsed() >= budget {
                    n = i;
                    break;
                }
                let t0 = Instant::now();
                {
                    let mut span = root(obs, "read", i);
                    let bytes = replay_read(obs, snapshot, &cache, op)?;
                    span.record("bytes", bytes.len() as u64);
                }
                per_op.push(t0.elapsed().as_nanos() as f64 / 1000.0);
                if let (true, true, ReadKind::Query { region, .. }) =
                    (probe_cursor, obs.is_enabled(), &op.kind)
                {
                    let _probe = root(obs, "probe", i);
                    stage(obs, "core.segment.cursor", || {
                        SegmentCursor::new(&snapshot.segments, *region).for_each(|_| {})
                    })
                    .map_err(|e| format!("cursor: {e}"))?;
                }
            }
            medians[pass] = median(&per_op);
            if pass == 0 {
                untraced = per_op;
            }
        }
        Ok(ReadReplay { untraced_op_us: medians[0], traced_op_us: medians[1], per_op_us: untraced })
    }
}

/// Convert wire mutations to the library's, as the `/update` handler
/// does (insert dimensions arrive as node names).
fn to_mutations(schema: &Schema, reqs: Vec<wire::MutationReq>) -> Res<Vec<EdbMutation>> {
    reqs.into_iter()
        .map(|m| match m {
            wire::MutationReq::Update { fact_id, measure } => {
                Ok(EdbMutation::UpdateMeasure { fact_id, new_measure: measure })
            }
            wire::MutationReq::Delete { fact_id } => Ok(EdbMutation::Delete(fact_id)),
            wire::MutationReq::Insert { id, dims, measure } => {
                if dims.len() != schema.k() {
                    return Err(format!("insert {id}: {} dims", dims.len()));
                }
                let mut fact_dims = [0u32; MAX_DIMS];
                for (d, name) in dims.iter().enumerate() {
                    fact_dims[d] = schema
                        .dim(d)
                        .node_by_name(name)
                        .ok_or_else(|| format!("insert {id}: unknown node {name:?}"))?
                        .0;
                }
                Ok(EdbMutation::Insert(Fact { id, dims: fact_dims, measure }))
            }
        })
        .collect()
}

/// Totals of the write-path replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteReplay {
    pub batches: u64,
    pub affected_components: u64,
    pub entries_rewritten: u64,
    pub invalidated: u64,
    pub compactions: u64,
}

impl std::ops::AddAssign for WriteReplay {
    fn add_assign(&mut self, o: WriteReplay) {
        self.batches += o.batches;
        self.affected_components += o.affected_components;
        self.entries_rewritten += o.entries_rewritten;
        self.invalidated += o.invalidated;
        self.compactions += o.compactions;
    }
}

/// Apply `batches` to the reference synchronously, in the coordinator's
/// order, every step a span: parse → WAL append (a real file at
/// `wal_path`) → fsync → `apply_batch` → snapshots → cache invalidation →
/// compaction when due. Publishing after every batch leaves the
/// reference with a running server's segment tiers, not a restarted
/// one's, so after this it is no oracle for answers any more.
pub fn apply_batches(
    reference: &mut Reference,
    batches: &[&Batch],
    tracer: &Tracer,
    wal_path: &Path,
) -> Res<WriteReplay> {
    let obs = &tracer.obs;
    let mut wal = MutationWal::open_or_create(wal_path, reference.medb.io_stats())
        .map_err(|e| format!("trace WAL: {e}"))?
        .0;
    let cache = ShardedCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let schema = reference.medb.schema().clone();
    let mut out = WriteReplay::default();
    for (i, batch) in batches.iter().enumerate() {
        let epoch = i as u64 + 1;
        let _span = root(obs, "update", i);
        // `server.http.parse_us` is the read path's; an update's larger
        // head is parsed outside any span so it cannot mix in.
        let req = parse_request(&Obs::disabled(), &batch.request)?;
        let muts = stage(obs, "server.wire.parse_update", || -> Res<_> {
            let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            to_mutations(&schema, wire::parse_update(text)?.muts)
        })?;
        stage(obs, "core.ingest.wal_append", || wal.append_batch(&muts))
            .map_err(|e| format!("wal append: {e}"))?;
        stage(obs, "core.ingest.wal_sync", || wal.sync()).map_err(|e| format!("wal sync: {e}"))?;
        let report = stage(obs, "core.maintain.apply_batch", || reference.medb.apply_batch(&muts))
            .map_err(|e| format!("apply_batch {i}: {e}"))?;
        out.batches += 1;
        out.affected_components += report.affected_components;
        out.entries_rewritten += report.entries_rewritten;
        stage(obs, "core.maintain.snapshot_segments", || reference.medb.snapshot_segments())
            .map_err(|e| format!("snapshot_segments: {e}"))?;
        stage(obs, "core.maintain.snapshot_lattice", || reference.medb.snapshot_lattice())
            .map_err(|e| format!("snapshot_lattice: {e}"))?;
        out.invalidated += stage(obs, "server.cache.invalidate", || {
            cache.begin_epoch(epoch);
            let n = cache.invalidate_overlapping(&report.touched);
            cache.retag_epoch(epoch);
            n
        });
        if reference.medb.needs_compaction() {
            let installed = stage(obs, "core.maintain.compaction_run", || -> Res<bool> {
                let Some(plan) =
                    reference.medb.prepare_compaction().map_err(|e| format!("plan: {e}"))?
                else {
                    return Ok(false);
                };
                let done = plan.run().map_err(|e| format!("compaction: {e}"))?;
                reference.medb.install_compaction(done).map_err(|e| format!("install: {e}"))
            })?;
            out.compactions += u64::from(installed);
        }
    }
    Ok(out)
}

fn field_u64(e: &Event, key: &str) -> Option<u64> {
    e.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        Value::U64(n) => Some(*n),
        _ => None,
    })
}

/// Per span name: the median over requests of the span's self time in
/// microseconds (summed when a request ran the stage more than once),
/// and how many requests ran it.
pub type StageMedians = BTreeMap<String, (f64, usize)>;

impl Tracer {
    /// Fold the recorded spans into per-stage medians of self time.
    pub fn stage_medians(&self) -> StageMedians {
        stage_medians(&self.ring.events())
    }

    /// Write every recorded event as one JSON line.
    pub fn dump_jsonl(&self, path: &Path) -> Res<usize> {
        let events = self.ring.events();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for e in &events {
            writeln!(out, "{}", e.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(events.len())
    }
}

fn stage_medians(events: &[Event]) -> StageMedians {
    // id → (name, parent, ns); root spans carry no `ns`.
    let mut spans: HashMap<u64, (&str, u64, u64)> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::SpanEnd) {
        spans.insert(e.span_id, (e.name.as_str(), e.parent_id, field_u64(e, "ns").unwrap_or(0)));
    }
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for &(_, parent, ns) in spans.values() {
        *child_ns.entry(parent).or_default() += ns;
    }
    // (root span, stage name) → self ns.
    let mut per_request: HashMap<(u64, &str), u64> = HashMap::new();
    for (&id, &(name, parent, ns)) in &spans {
        if parent == 0 {
            continue;
        }
        let mut top = parent;
        while let Some(&(_, up, _)) = spans.get(&top) {
            if up == 0 {
                break;
            }
            top = up;
        }
        let own = ns.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
        *per_request.entry((top, name)).or_default() += own;
    }
    let mut by_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((_, name), ns) in per_request {
        by_stage.entry(name.to_string()).or_default().push(ns as f64 / 1000.0);
    }
    by_stage.into_iter().map(|(name, v)| (name, (median(&v), v.len()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_request() {
        let t = Tracer::default();
        for (op, inner_ns) in [(0usize, 400u64), (1, 600)] {
            let _r = root(&t.obs, "read", op);
            let mut outer = t.obs.span("outer");
            {
                let mut inner = t.obs.span("inner");
                inner.record("ns", inner_ns);
            }
            outer.record("ns", 1_000u64);
        }
        let m = t.stage_medians();
        // outer self = 1000 − inner; median over the two requests.
        assert_eq!(m["outer"], (0.5, 2));
        assert_eq!(m["inner"], (0.5, 2));
        assert!(!m.contains_key("read"));
    }

    #[test]
    fn dumped_spans_pair_up_by_id() {
        let t = Tracer::default();
        {
            let _r = root(&t.obs, "read", 0);
            stage(&t.obs, "server.cache.get", || ());
        }
        let dir = std::env::temp_dir().join(format!("iolap-e2e-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(t.dump_jsonl(&path).unwrap(), 4);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut open: HashMap<u64, String> = HashMap::new();
        for line in text.lines() {
            let v = iolap_obs::json::parse(line).unwrap();
            let id = v.get("span").and_then(|s| s.as_u64()).unwrap();
            match v.get("kind").and_then(|k| k.as_str()).unwrap() {
                "span_start" => assert!(open.insert(id, line.to_string()).is_none()),
                "span_end" => assert!(open.remove(&id).is_some()),
                other => panic!("unexpected event kind {other}"),
            }
        }
        assert!(open.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
