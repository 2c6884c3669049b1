//! The scatter-gather router: one HTTP front door over a cluster of
//! range-sharded, replicated single-node servers.
//!
//! The router reuses the serve crate's reactor/worker engine (metrics
//! under `cluster.*`) and speaks the same wire protocol as a single
//! node, so clients cannot tell a cluster from one server — including
//! at the f64-bit level:
//!
//! * **Reads** fan out only to shards whose fence box overlaps the
//!   query box (the shard-level Theorem 12 prune), with the box clipped
//!   to each shard's dim0 leaf interval. Shards return canonical
//!   `(view, slab)` chunk lists; the router concatenates them in shard
//!   index order, re-sorts, and folds — bit-identical to a single node
//!   folding its own chunks, because chunks never straddle a dim0 cut.
//! * **Writes** flow through every replica of every shard under one
//!   cross-shard epoch: phase one `{"prepare": true}` applies the batch
//!   and stages the snapshot on each replica (readers keep the old
//!   epoch), phase two `POST /epoch` flips every replica to the new
//!   epoch. Replicas that fail either phase are drained and only
//!   rejoin when a health probe sees them healthy *at the cluster
//!   epoch*.
//! * **Replica reads** rotate round-robin within a shard's replica
//!   group; a failing replica is drained and the request retried on the
//!   next, with one bounded backoff pass before giving up.
//!
//! Failures never half-merge: a scatter with any failed leg answers
//! `503 {"code":"scatter_failed"}`, and a shard with no live replica
//! answers `503 {"code":"shard_unavailable"}` — the documented error
//! shape, never a partial `200`.

use crate::partition::cluster_schema;
use iolap_core::{fold_parts, sort_parts, ChunkPart};
use iolap_model::{ClusterManifest, RegionBox, Schema, MAX_DIMS};
use iolap_obs::{json, Counter, Gauge, Obs};
use iolap_query::{AggResult, RollupParts};
use iolap_serve::http::Request;
use iolap_serve::snapshot::{resolve_level, resolve_region};
use iolap_serve::{
    engine, http_roundtrip, wire, EngineHandle, Handler, Response, ServeConfig, Step,
};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wire::ServeError;

/// One backend server process holding a shard replica.
struct Replica {
    addr: SocketAddr,
    /// False while drained: skipped by reads, restored by the health
    /// probe once it answers at the cluster epoch.
    healthy: AtomicBool,
}

/// One shard: its manifest plus the replica group serving it.
struct ShardGroup {
    manifest: iolap_model::ShardManifest,
    replicas: Vec<Replica>,
    /// Round-robin cursor for read fan-out.
    rr: AtomicUsize,
}

impl ShardGroup {
    fn has_healthy(&self) -> bool {
        self.replicas.iter().any(|r| r.healthy.load(Ordering::Acquire))
    }
}

/// Router-plane metric handles (`cluster.*`; the engine adds the
/// transport series under the same prefix).
struct RouterMetrics {
    req_query: Counter,
    req_rollup: Counter,
    req_update: Counter,
    req_healthz: Counter,
    req_metrics: Counter,
    scatter_legs: Counter,
    scatter_pruned: Counter,
    forwards: Counter,
    retries: Counter,
    replica_drained: Counter,
    replica_restored: Counter,
    updates_committed: Counter,
    epoch: Gauge,
}

impl RouterMetrics {
    fn new(obs: &Obs) -> Self {
        let c = |n: &str| obs.counter(n).expect("router obs is always enabled");
        RouterMetrics {
            req_query: c("cluster.requests.query"),
            req_rollup: c("cluster.requests.rollup"),
            req_update: c("cluster.requests.update"),
            req_healthz: c("cluster.requests.healthz"),
            req_metrics: c("cluster.requests.metrics"),
            scatter_legs: c("cluster.scatter.legs"),
            scatter_pruned: c("cluster.scatter.pruned"),
            forwards: c("cluster.forward"),
            retries: c("cluster.retries"),
            replica_drained: c("cluster.replica.drained"),
            replica_restored: c("cluster.replica.restored"),
            updates_committed: c("cluster.updates.committed"),
            epoch: obs.gauge("cluster.epoch").expect("enabled"),
        }
    }
}

struct RouterShared {
    schema: Arc<Schema>,
    groups: Vec<ShardGroup>,
    /// The cluster epoch: advanced only by a fully-committed `/update`.
    epoch: AtomicU64,
    obs: Obs,
    metrics: RouterMetrics,
    /// Serializes the two-phase write path.
    update_lock: Mutex<()>,
    /// Global round-robin cursor for whole-cluster forwards (classical).
    any_rr: AtomicUsize,
    connect_timeout: Duration,
    io_timeout: Duration,
    shutdown: AtomicBool,
}

/// Configures and starts a [`RouterHandle`]. Obtained from
/// [`Router::builder`].
pub struct RouterBuilder {
    dir: PathBuf,
    replicas: Vec<Vec<String>>,
    cfg: ServeConfig,
    probe_interval: Duration,
    connect_timeout: Duration,
    io_timeout: Duration,
}

/// Namespace for [`Router::builder`].
pub struct Router;

impl Router {
    /// Start configuring a router over the cluster directory `dir`
    /// (holding `cluster.json` and the shard dataset directories).
    pub fn builder(dir: impl Into<PathBuf>) -> RouterBuilder {
        RouterBuilder {
            dir: dir.into(),
            replicas: Vec::new(),
            cfg: ServeConfig::default(),
            probe_interval: Duration::from_millis(1000),
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(10),
        }
    }
}

impl RouterBuilder {
    /// Register the replica addresses serving shard `index`. Every shard
    /// in the cluster manifest needs at least one.
    pub fn shard_replicas(mut self, index: usize, addrs: &[&str]) -> Self {
        if self.replicas.len() <= index {
            self.replicas.resize(index + 1, Vec::new());
        }
        self.replicas[index] = addrs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Transport configuration (workers, timeouts, shedding) for the
    /// router's own HTTP front.
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// How often the health probe retries drained replicas.
    pub fn probe_interval(mut self, d: Duration) -> Self {
        self.probe_interval = d;
        self
    }

    /// Per-attempt connect timeout for backend calls.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.connect_timeout = d;
        self
    }

    /// Bind `addr` and start serving.
    pub fn bind(self, addr: &str) -> Result<RouterHandle, ServeError> {
        let RouterBuilder { dir, replicas, cfg, probe_interval, connect_timeout, io_timeout } =
            self;
        let manifest = ClusterManifest::load(&dir).map_err(ServeError::BadRequest)?;
        let schema = cluster_schema(&dir).map_err(ServeError::BadRequest)?;
        if replicas.len() != manifest.shards.len() {
            return Err(ServeError::BadRequest(format!(
                "cluster has {} shards but {} replica groups were registered",
                manifest.shards.len(),
                replicas.len()
            )));
        }
        let mut groups = Vec::with_capacity(manifest.shards.len());
        for (i, (m, addrs)) in manifest.shards.iter().zip(&replicas).enumerate() {
            if addrs.is_empty() {
                return Err(ServeError::BadRequest(format!("shard {i} has no replicas")));
            }
            let mut reps = Vec::with_capacity(addrs.len());
            for a in addrs {
                let addr: SocketAddr = a
                    .parse()
                    .map_err(|_| ServeError::BadRequest(format!("bad replica address {a:?}")))?;
                reps.push(Replica { addr, healthy: AtomicBool::new(true) });
            }
            groups.push(ShardGroup {
                manifest: m.clone(),
                replicas: reps,
                rr: AtomicUsize::new(0),
            });
        }

        let obs = if cfg.obs.is_enabled() { cfg.obs.clone() } else { Obs::metrics_only() };
        let metrics = RouterMetrics::new(&obs);
        let shared = Arc::new(RouterShared {
            schema,
            groups,
            epoch: AtomicU64::new(0),
            obs: obs.clone(),
            metrics,
            update_lock: Mutex::new(()),
            any_rr: AtomicUsize::new(0),
            connect_timeout,
            io_timeout,
            shutdown: AtomicBool::new(false),
        });

        // Adopt the backends' published epoch (a router restart must not
        // reset the cluster clock). Unreachable replicas stay optimistic
        // — the first failing request drains them.
        let mut seen = 0u64;
        for g in &shared.groups {
            for r in &g.replicas {
                if let Ok((200, body)) = call(&r.addr, "GET", "/healthz", "", &shared) {
                    if let Ok(v) = json::parse(&body) {
                        if let Some(e) = v.get("epoch").and_then(|e| e.as_u64()) {
                            seen = seen.max(e);
                        }
                    }
                }
            }
        }
        shared.epoch.store(seen, Ordering::SeqCst);
        shared.metrics.epoch.set(seen as i64);

        let app = Arc::new(RouterApp { shared: shared.clone() });
        let engine = engine::start(addr, &cfg, "router", "cluster", &obs, app)?;

        let probe_shared = shared.clone();
        let probe = std::thread::Builder::new()
            .name("iolap-router-probe".into())
            .spawn(move || probe_main(probe_shared, probe_interval))
            .map_err(ServeError::Io)?;
        Ok(RouterHandle { engine, shared, probe: Some(probe) })
    }
}

/// A running router; dropping it stops the front door and the probe.
pub struct RouterHandle {
    engine: EngineHandle,
    shared: Arc<RouterShared>,
    probe: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front-door address.
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The observability handle (always at least metrics-only).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The current cluster epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Stop serving and join every thread.
    pub fn shutdown(self) {}

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.engine.stop();
        if let Some(p) = self.probe.take() {
            let _ = p.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn probe_main(shared: Arc<RouterShared>, interval: Duration) {
    while !shared.shutdown.load(Ordering::Acquire) {
        // Sleep in small slices so shutdown stays prompt.
        let mut left = interval;
        while !left.is_zero() && !shared.shutdown.load(Ordering::Acquire) {
            let step = left.min(Duration::from_millis(50));
            std::thread::sleep(step);
            left = left.saturating_sub(step);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let cluster_epoch = shared.epoch.load(Ordering::SeqCst);
        for g in &shared.groups {
            for r in &g.replicas {
                if r.healthy.load(Ordering::Acquire) {
                    continue;
                }
                // Rejoin only when the replica is up *and* publishes the
                // cluster epoch — a drained replica that missed a commit
                // would otherwise serve stale bits.
                if let Ok((200, body)) = call(&r.addr, "GET", "/healthz", "", &shared) {
                    let at_epoch = json::parse(&body)
                        .ok()
                        .and_then(|v| v.get("epoch").and_then(|e| e.as_u64()))
                        == Some(cluster_epoch);
                    if at_epoch {
                        r.healthy.store(true, Ordering::Release);
                        shared.metrics.replica_restored.inc();
                    }
                }
            }
        }
    }
}

/// One backend HTTP call with connect/read/write timeouts.
fn call(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    shared: &RouterShared,
) -> std::io::Result<(u16, String)> {
    let mut s = TcpStream::connect_timeout(addr, shared.connect_timeout)?;
    s.set_read_timeout(Some(shared.io_timeout))?;
    s.set_write_timeout(Some(shared.io_timeout))?;
    http_roundtrip(&mut s, method, path, body)
}

/// Send one request to shard `gi`, rotating over healthy replicas and
/// draining the ones that fail. Makes two passes (the second after a
/// short backoff, retrying even just-drained replicas) before reporting
/// the shard unavailable. Returns whatever HTTP response the replica
/// gave — backend 4xx/5xx are the caller's to interpret.
fn group_call(
    shared: &RouterShared,
    gi: usize,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), ServeError> {
    let g = &shared.groups[gi];
    let n = g.replicas.len();
    let start = g.rr.fetch_add(1, Ordering::Relaxed);
    for pass in 0..2 {
        for j in 0..n {
            let r = &g.replicas[(start + j) % n];
            // First pass honors drain flags; the backoff pass retries
            // every replica — a drained one may have just recovered.
            if pass == 0 && !r.healthy.load(Ordering::Acquire) {
                continue;
            }
            match call(&r.addr, method, path, body, shared) {
                Ok(resp) => {
                    if pass == 1 {
                        r.healthy.store(true, Ordering::Release);
                    }
                    return Ok(resp);
                }
                Err(_) => {
                    if r.healthy.swap(false, Ordering::AcqRel) {
                        shared.metrics.replica_drained.inc();
                    }
                    shared.metrics.retries.inc();
                }
            }
        }
        if pass == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    Err(ServeError::ShardUnavailable(format!("shard {gi}: no replica answered")))
}

struct RouterApp {
    shared: Arc<RouterShared>,
}

impl Handler for RouterApp {
    /// Every leg blocks on a backend socket, so nothing is answered on
    /// the reactor.
    fn begin(&self, req: Request) -> Step {
        let shared = self.shared.clone();
        Step::Work(Box::new(move || handle_request(&req, &shared)))
    }
}

fn err_response(e: ServeError) -> Response {
    let (status, body) = e.to_response();
    (status, "application/json", body)
}

fn handle_request(req: &Request, shared: &RouterShared) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return err_response(ServeError::BadRequest("body is not UTF-8".into())),
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            shared.metrics.req_healthz.inc();
            let ok = shared.groups.iter().all(ShardGroup::has_healthy);
            let status = if ok { 200 } else { 503 };
            let epoch = shared.epoch.load(Ordering::SeqCst);
            (status, "application/json", wire::health_response(epoch, ok, "router", 0))
        }
        ("GET", "/metrics") => {
            shared.metrics.req_metrics.inc();
            let text = shared.obs.metrics().map(|m| m.to_prometheus()).unwrap_or_default();
            (200, "text/plain; version=0.0.4", text)
        }
        ("POST", "/query") => {
            shared.metrics.req_query.inc();
            match handle_query(body, shared) {
                Ok(r) => r,
                Err(e) => err_response(e),
            }
        }
        ("POST", "/rollup") => {
            shared.metrics.req_rollup.inc();
            match handle_rollup(body, shared) {
                Ok(r) => r,
                Err(e) => err_response(e),
            }
        }
        ("POST", "/update") => {
            shared.metrics.req_update.inc();
            match handle_update(body, shared) {
                Ok(r) => r,
                Err(e) => err_response(e),
            }
        }
        (_, "/healthz" | "/metrics" | "/query" | "/rollup" | "/update") => {
            err_response(ServeError::MethodNotAllowed("method not allowed".into()))
        }
        _ => err_response(ServeError::NotFound("no such endpoint".into())),
    }
}

/// Resolve the request's region: an explicit box wins over names.
fn request_region(
    schema: &Schema,
    at: &[(String, String)],
    raw: &Option<Vec<(u32, u32)>>,
) -> Result<RegionBox, String> {
    if let Some(b) = raw {
        if b.len() != schema.k() {
            return Err(format!("\"box\" has {} dimensions, want {}", b.len(), schema.k()));
        }
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for (d, &(l, h)) in b.iter().enumerate() {
            lo[d] = l;
            hi[d] = h;
        }
        return Ok(RegionBox { lo, hi, k: schema.k() as u8 });
    }
    resolve_region(schema, at)
}

/// The region clipped to shard `m`'s dim0 interval, as wire box pairs.
fn clip_to_shard(region: &RegionBox, m: &iolap_model::ShardManifest) -> Vec<(u32, u32)> {
    let k = region.k as usize;
    (0..k)
        .map(|d| {
            if d == 0 {
                (region.lo[0].max(m.lo), region.hi[0].min(m.hi))
            } else {
                (region.lo[d], region.hi[d])
            }
        })
        .collect()
}

/// Indexes of shards whose fence overlaps the region, in merge order.
fn overlapping(shared: &RouterShared, region: &RegionBox) -> Vec<usize> {
    let hit: Vec<usize> =
        (0..shared.groups.len()).filter(|&i| shared.groups[i].manifest.overlaps(region)).collect();
    let pruned = shared.groups.len() - hit.len();
    shared.metrics.scatter_pruned.add(pruned as u64);
    hit
}

/// Forward `body` verbatim to any shard (every shard holds the full
/// table and EDB), rotating across groups.
fn forward_any(shared: &RouterShared, path: &str, body: &str) -> Result<(u16, String), ServeError> {
    let n = shared.groups.len();
    let start = shared.any_rr.fetch_add(1, Ordering::Relaxed);
    for j in 0..n {
        let gi = (start + j) % n;
        if !shared.groups[gi].has_healthy() && j + 1 < n {
            continue;
        }
        match group_call(shared, gi, "POST", path, body) {
            Ok(r) => {
                shared.metrics.forwards.inc();
                return Ok(r);
            }
            Err(_) if j + 1 < n => continue,
            Err(e) => return Err(e),
        }
    }
    Err(ServeError::ShardUnavailable("no shard answered".into()))
}

/// Scatter one request body per leg to the given shards concurrently,
/// demanding HTTP 200 and a consistent epoch from every leg. Returns the
/// legs' bodies in shard order plus the common epoch.
fn scatter<F>(shared: &RouterShared, legs: &[usize], path: &str, mk_body: F) -> ScatterResult
where
    F: Fn(usize) -> String + Sync,
{
    // One retry for transient epoch skew: a read racing a commit can see
    // some shards pre-flip and some post-flip; the window is one /epoch
    // round, so a single retry settles it.
    for attempt in 0..2 {
        let mut out: Vec<Option<Result<(u16, String), ServeError>>> = Vec::new();
        out.resize_with(legs.len(), || None);
        std::thread::scope(|scope| {
            for (slot, &gi) in out.iter_mut().zip(legs) {
                let body = mk_body(gi);
                scope.spawn(move || {
                    shared.metrics.scatter_legs.inc();
                    *slot = Some(group_call(shared, gi, "POST", path, &body));
                });
            }
        });
        let mut bodies = Vec::with_capacity(legs.len());
        for (slot, &gi) in out.into_iter().zip(legs) {
            match slot.expect("scatter leg ran") {
                Ok((200, body)) => bodies.push(body),
                Ok((status, body)) if (400..500).contains(&status) => {
                    // A deterministic client error is identical on every
                    // shard — forward the first one verbatim.
                    return ScatterResult::ClientError(status, body);
                }
                Ok((status, _)) => {
                    return ScatterResult::Failed(ServeError::ScatterFailed(format!(
                        "shard {gi} answered {status}"
                    )));
                }
                Err(ServeError::ShardUnavailable(m)) => {
                    return ScatterResult::Failed(ServeError::ScatterFailed(m));
                }
                Err(e) => return ScatterResult::Failed(e),
            }
        }
        let epochs: Vec<Option<u64>> = bodies
            .iter()
            .map(|b| json::parse(b).ok().and_then(|v| v.get("epoch").and_then(|e| e.as_u64())))
            .collect();
        match (epochs.first().copied().flatten(), epochs.iter().all(|e| e == &epochs[0])) {
            (Some(e), true) => return ScatterResult::Ok(bodies, e),
            _ if attempt == 0 => std::thread::sleep(Duration::from_millis(25)),
            _ => {
                return ScatterResult::Failed(ServeError::ScatterFailed(
                    "shards disagree on epoch".into(),
                ))
            }
        }
    }
    unreachable!("scatter retries twice then returns")
}

enum ScatterResult {
    /// Every leg answered 200 at one epoch: bodies in shard order.
    Ok(Vec<String>, u64),
    /// A deterministic backend 4xx, forwarded verbatim.
    ClientError(u16, String),
    Failed(ServeError),
}

fn handle_query(body: &str, shared: &RouterShared) -> Result<Response, ServeError> {
    let q = wire::parse_query(body).map_err(ServeError::BadRequest)?;
    if q.classical.is_some() {
        if q.parts {
            return Err(ServeError::BadRequest(
                "\"classical\" and \"parts\" are mutually exclusive".into(),
            ));
        }
        let (status, resp) = forward_any(shared, "/query", body)?;
        return Ok((status, "application/json", resp));
    }
    let region =
        request_region(&shared.schema, &q.at, &q.raw_box).map_err(ServeError::BadRequest)?;
    let legs = overlapping(shared, &region);
    let epoch = shared.epoch.load(Ordering::SeqCst);

    if legs.is_empty() {
        let r = AggResult::from_parts(q.agg, 0.0, 0.0);
        let body = if q.parts {
            wire::parts_response(&[], q.agg, epoch)
        } else {
            wire::query_response(&r, q.agg, false, epoch)
        };
        return Ok((200, "application/json", body));
    }
    if legs.len() == 1 && !q.parts {
        // Every cell of the box lives on this one shard: forwarding the
        // original body verbatim is the single-node computation.
        shared.metrics.forwards.inc();
        let (status, resp) = group_call(shared, legs[0], "POST", "/query", body)?;
        return Ok((status, "application/json", resp));
    }

    let merged = match scatter(shared, &legs, "/query", |gi| {
        wire::query_parts_body(&clip_to_shard(&region, &shared.groups[gi].manifest), q.agg)
    }) {
        ScatterResult::Ok(bodies, epoch) => {
            let mut parts: Vec<ChunkPart> = Vec::new();
            for b in &bodies {
                let (p, _) = wire::parse_parts_response(b)
                    .map_err(|e| ServeError::ScatterFailed(format!("bad shard response: {e}")))?;
                parts.extend(p);
            }
            sort_parts(&mut parts);
            (parts, epoch)
        }
        ScatterResult::ClientError(status, body) => return Ok((status, "application/json", body)),
        ScatterResult::Failed(e) => return Err(e),
    };
    let (parts, epoch) = merged;
    let body = if q.parts {
        wire::parts_response(&parts, q.agg, epoch)
    } else {
        let (sum, count) = fold_parts(&parts);
        wire::query_response(&AggResult::from_parts(q.agg, sum, count), q.agg, false, epoch)
    };
    Ok((200, "application/json", body))
}

fn handle_rollup(body: &str, shared: &RouterShared) -> Result<Response, ServeError> {
    let r = wire::parse_rollup(body).map_err(ServeError::BadRequest)?;
    let (dim, level) =
        resolve_level(&shared.schema, &r.dim, &r.level).map_err(ServeError::BadRequest)?;
    let region =
        request_region(&shared.schema, &r.at, &r.raw_box).map_err(ServeError::BadRequest)?;
    let legs = overlapping(shared, &region);
    let epoch = shared.epoch.load(Ordering::SeqCst);

    // Cluster rollups are always scan-planned chunk merges (the lattice
    // plan groups leaf slabs differently and would not merge bit-stably
    // across shards); a single-node server's `"plan":"scan"` rollup is
    // the bit-reference.
    let merge = |bodies: Vec<String>| -> Result<Vec<RollupParts>, ServeError> {
        let mut rows: Option<Vec<RollupParts>> = None;
        for b in &bodies {
            let (shard_rows, _) = wire::parse_rollup_parts_response(b)
                .map_err(|e| ServeError::ScatterFailed(format!("bad shard response: {e}")))?;
            match &mut rows {
                None => rows = Some(shard_rows),
                Some(acc) => {
                    if acc.len() != shard_rows.len()
                        || acc
                            .iter()
                            .zip(&shard_rows)
                            .any(|(a, b)| a.node != b.node || a.name != b.name)
                    {
                        return Err(ServeError::ScatterFailed(
                            "shards disagree on rollup rows".into(),
                        ));
                    }
                    for (a, b) in acc.iter_mut().zip(shard_rows) {
                        a.parts.extend(b.parts);
                    }
                }
            }
        }
        let mut rows = rows.unwrap_or_default();
        for row in &mut rows {
            sort_parts(&mut row.parts);
        }
        Ok(rows)
    };

    let (rows, epoch) = if legs.is_empty() {
        // Dense zero rows, same row set and order as any shard's answer.
        let h = shared.schema.dim(dim);
        let rows: Vec<RollupParts> = h
            .nodes_at_level(level)
            .iter()
            .map(|&n| RollupParts { node: n, name: h.node_name(n), parts: Vec::new() })
            .collect();
        (rows, epoch)
    } else {
        match scatter(shared, &legs, "/rollup", |gi| {
            wire::rollup_parts_body(
                &r.dim,
                &r.level,
                &clip_to_shard(&region, &shared.groups[gi].manifest),
                r.agg,
            )
        }) {
            ScatterResult::Ok(bodies, epoch) => (merge(bodies)?, epoch),
            ScatterResult::ClientError(status, body) => {
                return Ok((status, "application/json", body))
            }
            ScatterResult::Failed(e) => return Err(e),
        }
    };
    let body = if r.parts {
        wire::rollup_parts_response(&rows, r.agg, epoch)
    } else {
        wire::rollup_response(&iolap_query::finish_rollup_parts(&rows, r.agg), r.agg, epoch)
    };
    Ok((200, "application/json", body))
}

fn handle_update(body: &str, shared: &RouterShared) -> Result<Response, ServeError> {
    let upd = wire::parse_update(body).map_err(ServeError::BadRequest)?;
    let _guard = shared.update_lock.lock().unwrap_or_else(|p| p.into_inner());

    // Every shard needs a live replica before anything mutates.
    for (gi, g) in shared.groups.iter().enumerate() {
        if !g.has_healthy() {
            return Err(ServeError::ShardUnavailable(format!("shard {gi}: all replicas drained")));
        }
    }

    // Phase 1: prepare on every healthy replica of every shard. Each
    // replica applies the batch and stages the snapshot; readers keep
    // the old epoch until phase 2.
    let prepare_body = wire::update_body_opts(&upd.muts, true);
    let mut staged: Vec<Vec<(usize, usize, String)>> = Vec::new(); // (gi, ri, body)
    let mut client_error: Option<(u16, String)> = None;
    let mut any_staged = false;
    for (gi, g) in shared.groups.iter().enumerate() {
        let mut group_staged = Vec::new();
        for (ri, r) in g.replicas.iter().enumerate() {
            if !r.healthy.load(Ordering::Acquire) {
                continue;
            }
            match call(&r.addr, "POST", "/update", &prepare_body, shared) {
                Ok((200, b)) => {
                    group_staged.push((gi, ri, b));
                    any_staged = true;
                }
                Ok((status, b)) if (400..500).contains(&status) && !any_staged => {
                    // Deterministic rejection happens before any replica
                    // mutates — every peer rejects identically, so stop
                    // scattering and forward it.
                    client_error = Some((status, b));
                    break;
                }
                _ => {
                    // Replica failed or diverged mid-scatter: drain it.
                    // It keeps serving nothing until the probe sees it
                    // healthy at the cluster epoch.
                    if r.healthy.swap(false, Ordering::AcqRel) {
                        shared.metrics.replica_drained.inc();
                    }
                }
            }
        }
        if client_error.is_some() {
            break;
        }
        staged.push(group_staged);
    }
    if let Some((status, b)) = client_error {
        return Ok((status, "application/json", b));
    }

    // Commit only if every shard still has a staged replica; otherwise
    // the batch never publishes anywhere (staged replicas answer reads
    // at the old epoch and get drained by the next write's prepare).
    if let Some(gi) = staged.iter().position(Vec::is_empty) {
        return Err(ServeError::ScatterFailed(format!("shard {gi}: no replica staged the batch")));
    }

    // Deterministic peers agree on the staged epoch; drain any that
    // drifted.
    let parse_epoch =
        |b: &str| json::parse(b).ok().and_then(|v| v.get("epoch").and_then(|e| e.as_u64()));
    let target = staged
        .first()
        .and_then(|g| g.first())
        .and_then(|(_, _, b)| parse_epoch(b))
        .ok_or_else(|| ServeError::ScatterFailed("unparseable prepare response".into()))?;
    let first_report = staged[0][0].2.clone();
    for g in &mut staged {
        g.retain(|(gi, ri, b)| {
            let keep = parse_epoch(b) == Some(target);
            if !keep {
                let r = &shared.groups[*gi].replicas[*ri];
                if r.healthy.swap(false, Ordering::AcqRel) {
                    shared.metrics.replica_drained.inc();
                }
            }
            keep
        });
    }
    if let Some(gi) = staged.iter().position(Vec::is_empty) {
        return Err(ServeError::ScatterFailed(format!(
            "shard {gi}: replicas disagree on the staged epoch"
        )));
    }

    // Phase 2: flip every staged replica to the new epoch.
    let commit_body = wire::commit_body(target);
    let mut invalidated = None;
    let mut committed_everywhere = true;
    for g in &staged {
        let mut group_committed = false;
        for (gi, ri, _) in g {
            let r = &shared.groups[*gi].replicas[*ri];
            match call(&r.addr, "POST", "/epoch", &commit_body, shared) {
                Ok((200, b)) => {
                    group_committed = true;
                    if invalidated.is_none() {
                        invalidated = json::parse(&b)
                            .ok()
                            .and_then(|v| v.get("invalidated").and_then(|x| x.as_u64()));
                    }
                }
                _ => {
                    if r.healthy.swap(false, Ordering::AcqRel) {
                        shared.metrics.replica_drained.inc();
                    }
                }
            }
        }
        committed_everywhere &= group_committed;
    }
    // Any successful commit advances the cluster clock — replicas left
    // behind must not rejoin at the old epoch.
    shared.epoch.store(target, Ordering::SeqCst);
    shared.metrics.epoch.set(target as i64);
    if !committed_everywhere {
        return Err(ServeError::ScatterFailed("a shard lost every replica during commit".into()));
    }
    shared.metrics.updates_committed.inc();

    // Answer with the first replica's maintenance report at the
    // committed epoch.
    let v = json::parse(&first_report)
        .map_err(|e| ServeError::ScatterFailed(format!("bad prepare response: {e}")))?;
    let f = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let body = wire::update_response(
        target,
        invalidated.unwrap_or(0),
        f("affected_components"),
        f("affected_tuples"),
        f("entries_rewritten"),
        f("merges"),
        f("splits"),
    );
    Ok((200, "application/json", body))
}
