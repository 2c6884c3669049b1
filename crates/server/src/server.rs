//! The server proper: reactor, worker pool, and update coordinator.
//!
//! Thread topology (all `std::thread`, no async runtime):
//!
//! * **reactor** (1) — owns the listener and every connection socket
//!   behind an epoll/poll readiness loop (the private `reactor` module;
//!   DESIGN.md §2.17 documents the state machine). Accepts,
//!   reads, and incrementally parses on nonblocking sockets, then runs
//!   each request's *begin* stage: a cached `/query` hit and the cheap
//!   rejections (malformed JSON, unknown node, 404/405) are answered
//!   right there; everything else goes as *ready work* into a bounded
//!   queue. A full queue (or a connection count at `max_connections`)
//!   is saturation: the client gets an inline `503` and the connection
//!   closes (*load shedding* — fail fast instead of queueing unboundedly).
//! * **workers** (N) — pull ready work off the shared queue and run it:
//!   scans, rollups, updates, `/healthz`, `/metrics`. Each job is
//!   wrapped in `catch_unwind`, so a handler panic costs one `500`, not
//!   a worker. The worker writes the response bytes straight to the
//!   nonblocking socket and notifies the reactor, which finishes any
//!   tail the socket wouldn't take.
//! * **coordinator** (1) — owns the mutable [`MaintainableEdb`]. Builds
//!   the initial allocation, then serially applies `/update` batches,
//!   invalidates the cache, and publishes fresh [`EdbSnapshot`]s. A
//!   fold that crosses the tier threshold also compacts, inline; no
//!   other thread touches the EDB.
//!
//! Shutdown: [`ServerHandle::shutdown`] (or drop) raises a flag and
//! wakes the reactor, which stops accepting, closes idle keep-alive
//! connections (the peer observes EOF), and drains in-flight responses;
//! dropping the ready queue stops the workers and dropping the update
//! sender stops the coordinator.

use crate::cache::{CacheKey, CachedResult, ShardedCache};
use crate::engine::{self, EngineHandle, Handler, Response, Step};
use crate::http::Request;
use crate::snapshot::{resolve_level, resolve_region, EdbSnapshot};
use crate::wire;
pub use crate::wire::ServeError;
use iolap_core::maintain::EdbMutation;
use iolap_core::{allocate, Algorithm, AllocConfig, MaintainableEdb, MutationWal, PolicySpec};
use iolap_model::{Fact, FactId, FactTable, RegionBox, Schema, MAX_DIMS};
use iolap_obs::{Counter, Gauge, Histogram, Obs};
use iolap_query::AggFn;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for serving. Construct with [`ServeConfig::builder`];
/// the fields stay public for inspection and struct-literal updates.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Request worker threads. Bounds concurrent *compute*, not
    /// concurrent connections (the reactor owns those).
    pub workers: usize,
    /// Bounded ready-request queue between the reactor and the workers;
    /// a full queue sheds load with a `503`.
    pub queue_depth: usize,
    /// Maximum concurrent connections; excess accepts are shed with a
    /// `503`.
    pub max_connections: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Number of cache shards.
    pub cache_shards: usize,
    /// How long a partially-received request may dribble in before the
    /// connection is closed.
    pub read_timeout: Duration,
    /// How long a response may take to drain to a slow client.
    pub write_timeout: Duration,
    /// How long an idle keep-alive connection is kept before closing.
    pub idle_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Observability handle. A disabled handle is silently upgraded to
    /// [`Obs::metrics_only`] so `/metrics` always has something to say.
    pub obs: Obs,
    /// Write-ahead log path. `Some` makes every `/update` durable before
    /// it is acknowledged and replays un-applied batches on startup;
    /// `None` keeps the purely in-memory write path.
    pub wal_path: Option<PathBuf>,
    /// Group-commit window. `ZERO` (the default) keeps the synchronous
    /// contract: each `/update` folds into the EDB before its response.
    /// A nonzero window acks at WAL-durable and defers the fold until
    /// the window elapses or [`group_frames`](Self::group_frames) WAL
    /// frames are staged: it moves the fold off the ack path. The fold
    /// itself still applies, snapshots, syncs the lattice and publishes
    /// once per batch, and the group drained together shares one fsync
    /// either way.
    pub group_window: Duration,
    /// Staged-frame threshold that triggers an early fold when the
    /// group-commit window is nonzero.
    pub group_frames: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 128,
            max_connections: 8192,
            cache_capacity: 4096,
            cache_shards: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_body_bytes: 1 << 20,
            obs: Obs::disabled(),
            wal_path: None,
            group_window: Duration::ZERO,
            group_frames: 256,
        }
    }
}

impl ServeConfig {
    /// Start building a config from the defaults. Mirrors
    /// [`AllocConfig::builder`]: chain only the knobs you care about.
    ///
    /// ```
    /// use iolap_serve::ServeConfig;
    /// use std::time::Duration;
    ///
    /// let cfg = ServeConfig::builder()
    ///     .workers(2)
    ///     .max_connections(10_000)
    ///     .idle_timeout(Duration::from_secs(30))
    ///     .build();
    /// assert_eq!(cfg.workers, 2);
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: ServeConfig::default() }
    }
}

/// Builder for [`ServeConfig`]; see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Request worker threads (compute concurrency).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Ready-request queue depth between the reactor and workers.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.cfg.queue_depth = n;
        self
    }

    /// Maximum concurrent connections before accepts are shed.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.cfg.max_connections = n;
        self
    }

    /// Result-cache capacity in entries (0 disables caching).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cfg.cache_capacity = n;
        self
    }

    /// Number of result-cache shards.
    pub fn cache_shards(mut self, n: usize) -> Self {
        self.cfg.cache_shards = n;
        self
    }

    /// Timeout for a partially-received request.
    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.cfg.read_timeout = d;
        self
    }

    /// Timeout for draining a response to a slow client.
    pub fn write_timeout(mut self, d: Duration) -> Self {
        self.cfg.write_timeout = d;
        self
    }

    /// Timeout for idle keep-alive connections.
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.cfg.idle_timeout = d;
        self
    }

    /// Largest accepted request body, in bytes.
    pub fn max_body_bytes(mut self, n: usize) -> Self {
        self.cfg.max_body_bytes = n;
        self
    }

    /// Observability handle.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Write-ahead log path (durable acks + startup replay).
    pub fn wal_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.wal_path = Some(path.into());
        self
    }

    /// Group-commit window (`ZERO` = synchronous folds).
    pub fn group_window(mut self, d: Duration) -> Self {
        self.cfg.group_window = d;
        self
    }

    /// Staged-frame threshold for an early fold in deferred mode.
    pub fn group_frames(mut self, n: u64) -> Self {
        self.cfg.group_frames = n;
        self
    }

    /// Finish building.
    pub fn build(self) -> ServeConfig {
        self.cfg
    }
}

/// Outcome of one applied `/update` batch (for the response body).
struct UpdateOutcome {
    epoch: u64,
    invalidated: u64,
    report: iolap_core::UpdateReport,
}

/// What the coordinator sends back for one `/update` batch.
enum UpdateReply {
    /// Folded into the EDB and published: the full apply outcome for the
    /// classic response body.
    Applied(UpdateOutcome),
    /// Acknowledged at WAL-durable; the fold rides a later group-commit
    /// trigger. `epoch` is the epoch the batch will fold *after*.
    Durable { wal_batch: u64, staged: u64, epoch: u64 },
}

/// Application-level metric handles resolved once at startup (hot paths
/// never re-hash names); the transport-level handles live in the engine.
/// The server's `Obs` is always at least metrics-only.
pub(crate) struct ServeMetrics {
    req_query: Counter,
    req_rollup: Counter,
    req_update: Counter,
    req_metrics: Counter,
    req_healthz: Counter,
    cache_hit: Counter,
    cache_miss: Counter,
    cache_insert: Counter,
    cache_invalidated: Counter,
    cache_evicted: Counter,
    epoch: Gauge,
    /// Segment-layer counters for the answer path: pages actually
    /// scanned vs pages skipped by fence pruning, plus the published
    /// segment count and compactions run by the coordinator.
    pages_read: Counter,
    pages_pruned: Counter,
    bytes_read: Counter,
    /// Cuboid-lattice counters for `/rollup`: per-view planner decisions
    /// (a hit answers the region's grain-aligned core from a materialized
    /// cuboid; a miss leaf-scans that view), plus the encoded bytes of
    /// the published lattice.
    cuboid_hits: Counter,
    cuboid_misses: Counter,
    cuboid_bytes: Gauge,
    edb_segments: Gauge,
    edb_compactions: Counter,
    /// Aggregate compression ratio of the published segments, in
    /// milli-units (1000 = uncompressed, 1700 = 1.7× smaller).
    compression_ratio: Gauge,
    /// Streaming-ingest instruments: WAL bytes appended, WAL batches
    /// replayed at startup, durable-but-unfolded backlog frames, folds
    /// of staged batches into delta segments, and group-commit fsync
    /// latency.
    ingest_wal_bytes: Counter,
    ingest_recovered: Counter,
    ingest_backlog: Gauge,
    ingest_folds: Counter,
    ingest_group_commit_us: Histogram,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> Self {
        let c = |n: &str| obs.counter(n).expect("server obs is always enabled");
        ServeMetrics {
            req_query: c("serve.requests.query"),
            req_rollup: c("serve.requests.rollup"),
            req_update: c("serve.requests.update"),
            req_metrics: c("serve.requests.metrics"),
            req_healthz: c("serve.requests.healthz"),
            cache_hit: c("serve.cache.hit"),
            cache_miss: c("serve.cache.miss"),
            cache_insert: c("serve.cache.insert"),
            cache_invalidated: c("serve.cache.invalidated"),
            cache_evicted: c("serve.cache.evicted"),
            epoch: obs.gauge("serve.epoch").expect("enabled"),
            pages_read: c("edb.pages_read"),
            pages_pruned: c("edb.pages_pruned"),
            bytes_read: c("edb.bytes_read"),
            cuboid_hits: c("edb.cuboid_hits"),
            cuboid_misses: c("edb.cuboid_misses"),
            cuboid_bytes: obs.gauge("edb.cuboid_bytes").expect("enabled"),
            edb_segments: obs.gauge("edb.segments").expect("enabled"),
            edb_compactions: c("edb.compactions"),
            compression_ratio: obs.gauge("edb.compression_ratio").expect("enabled"),
            ingest_wal_bytes: c("ingest.wal_bytes"),
            ingest_recovered: c("ingest.recovered_batches"),
            ingest_backlog: obs.gauge("ingest.backlog").expect("enabled"),
            ingest_folds: c("ingest.folds"),
            ingest_group_commit_us: obs.histogram("ingest.group_commit_us").expect("enabled"),
        }
    }
}

/// Aggregate compression ratio of a snapshot's segments in milli-units
/// (1000 = uncompressed). Weighted by entry bytes, so one big base
/// segment dominates many tiny deltas.
fn compression_milli(segments: &[iolap_core::SegmentView]) -> i64 {
    let raw: u64 = segments.iter().map(|v| v.segment.uncompressed_bytes()).sum();
    let enc: u64 = segments.iter().map(|v| v.segment.encoded_bytes()).sum();
    if enc == 0 {
        1000
    } else {
        (raw as f64 / enc as f64 * 1000.0) as i64
    }
}

/// State shared by the request handlers and the coordinator.
pub(crate) struct Shared {
    snapshot: Mutex<Arc<EdbSnapshot>>,
    /// The dataset schema, the same at every epoch. The reactor resolves
    /// a query's region against this copy, so a cache hit never holds
    /// (and so can never be the last to drop) a whole snapshot.
    schema: Arc<Schema>,
    cache: ShardedCache,
    cache_enabled: bool,
    obs: Obs,
    pub(crate) metrics: ServeMetrics,
    update_tx: Mutex<Option<Sender<UpdateJob>>>,
    /// Set when a maintenance batch failed partway: the EDB may be
    /// inconsistent with the published snapshot, so further `/update`s
    /// are refused (503) and `/healthz` reports degraded. Reads keep
    /// serving the last consistent snapshot.
    poisoned: AtomicBool,
    /// WAL frames acknowledged durable but not yet folded into a delta
    /// segment; `/healthz` reports it so operators (and the smoke test)
    /// can watch the group-commit backlog drain.
    wal_backlog: AtomicU64,
}

impl Shared {
    fn snapshot(&self) -> Arc<EdbSnapshot> {
        self.snapshot.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// The server. Construct with [`Server::builder`]; the returned
/// [`ServerHandle`] owns every thread.
pub struct Server;

impl Server {
    /// Start building a server for `table` under `policy` (Transitive —
    /// required for maintenance). Finish with [`ServerBuilder::bind`].
    pub fn builder(table: FactTable, policy: PolicySpec) -> ServerBuilder {
        ServerBuilder { table, policy, alloc: AllocConfig::default(), cfg: ServeConfig::default() }
    }
}

/// Builder for a running server; see [`Server::builder`].
///
/// ```no_run
/// use iolap_serve::{Server, ServeConfig};
/// use iolap_core::{AllocConfig, PolicySpec};
/// use iolap_model::paper_example;
///
/// let handle = Server::builder(paper_example::table1(), PolicySpec::em_count(0.01))
///     .alloc(AllocConfig::builder().in_memory(256).build())
///     .config(ServeConfig::builder().workers(2).build())
///     .bind("127.0.0.1:0")?;
/// println!("listening on {}", handle.addr());
/// handle.shutdown();
/// # Ok::<(), iolap_serve::ServeError>(())
/// ```
pub struct ServerBuilder {
    table: FactTable,
    policy: PolicySpec,
    alloc: AllocConfig,
    cfg: ServeConfig,
}

impl ServerBuilder {
    /// Allocation config for the initial EDB build.
    pub fn alloc(mut self, alloc: AllocConfig) -> Self {
        self.alloc = alloc;
        self
    }

    /// Serving config (see [`ServeConfig::builder`]).
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Bind `addr` and serve.
    ///
    /// Blocks until the initial allocation is built and the socket is
    /// listening, so a returned handle is immediately queryable.
    pub fn bind(self, addr: &str) -> Result<ServerHandle, ServeError> {
        let ServerBuilder { table, policy, alloc, cfg } = self;
        let obs = if cfg.obs.is_enabled() { cfg.obs.clone() } else { Obs::metrics_only() };
        let metrics = ServeMetrics::new(&obs);

        // The coordinator builds the allocation inside its own thread and
        // owns the MaintainableEdb for its whole life; startup blocks on
        // the readiness channel below.
        let (ready_tx, ready_rx) = mpsc::channel::<Result<Arc<EdbSnapshot>, String>>();
        let (shared_tx, shared_rx) = mpsc::channel::<Arc<Shared>>();
        let (update_tx, update_rx) = mpsc::channel::<UpdateJob>();
        let ingest = IngestCfg {
            wal_path: cfg.wal_path.clone(),
            group_window: cfg.group_window,
            group_frames: cfg.group_frames.max(1),
        };
        let coordinator = std::thread::Builder::new()
            .name("iolap-serve-coord".into())
            .spawn(move || {
                coordinator_main(table, policy, alloc, ingest, ready_tx, shared_rx, update_rx)
            })
            .map_err(ServeError::Io)?;

        let first = match ready_rx.recv() {
            Ok(Ok(snap)) => snap,
            Ok(Err(msg)) => {
                let _ = coordinator.join();
                return Err(ServeError::Init(msg));
            }
            Err(_) => {
                let _ = coordinator.join();
                return Err(ServeError::Init("coordinator died during startup".into()));
            }
        };

        metrics.epoch.set(first.epoch as i64);
        metrics.edb_segments.set(first.segments.len() as i64);
        metrics.compression_ratio.set(compression_milli(&first.segments));
        let shared = Arc::new(Shared {
            schema: first.schema.clone(),
            snapshot: Mutex::new(first),
            cache: ShardedCache::new(cfg.cache_capacity.max(1), cfg.cache_shards),
            cache_enabled: cfg.cache_capacity > 0,
            obs: obs.clone(),
            metrics,
            update_tx: Mutex::new(Some(update_tx)),
            poisoned: AtomicBool::new(false),
            wal_backlog: AtomicU64::new(0),
        });
        // Hand the coordinator its view of the shared state; it only now
        // enters the update loop.
        let _ = shared_tx.send(shared.clone());

        let app = Arc::new(ServerApp { shared: shared.clone() });
        let engine = engine::start(addr, &cfg, &obs, app)?;
        Ok(ServerHandle { shared, engine, coordinator: Some(coordinator) })
    }
}

/// The single-node application behind the engine.
struct ServerApp {
    shared: Arc<Shared>,
}

impl ServerApp {
    /// The worker-side stage of an endpoint that has no reactor-side one.
    fn work(&self, f: impl FnOnce(&Shared) -> Response + Send + 'static) -> Step {
        let shared = self.shared.clone();
        Step::Work(Box::new(move || f(&shared)))
    }
}

impl Handler for ServerApp {
    /// Routing, the per-endpoint counters, the cheap rejections and the
    /// cached `/query` hit happen here, on the reactor; anything that
    /// scans, waits on the coordinator, or renders the metrics registry
    /// is `Work`. `/healthz` is `Work` on purpose: a probe that bypassed
    /// the ready queue could not report saturation.
    fn begin(&self, req: Request) -> Step {
        let m = &self.shared.metrics;
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                m.req_healthz.inc();
                self.work(handle_healthz)
            }
            ("GET", "/metrics") => {
                m.req_metrics.inc();
                self.work(|shared| {
                    let text = shared.obs.metrics().map(|m| m.to_prometheus()).unwrap_or_default();
                    (200, "text/plain; version=0.0.4", text)
                })
            }
            ("POST", "/query") => {
                m.req_query.inc();
                begin_query(&req.body, &self.shared)
            }
            ("POST", "/rollup") => {
                m.req_rollup.inc();
                self.work(move |shared| handle_rollup(&req.body, shared))
            }
            ("POST", "/update") => {
                m.req_update.inc();
                self.work(move |shared| handle_update(&req.body, shared))
            }
            (_, "/healthz" | "/metrics" | "/query" | "/rollup" | "/update") => Step::Respond(
                err_response(ServeError::MethodNotAllowed("method not allowed".into())),
            ),
            _ => Step::Respond(err_response(ServeError::NotFound("no such endpoint".into()))),
        }
    }
}

/// A running server. Dropping it (or calling [`shutdown`]) stops every
/// thread gracefully: in-flight requests finish, idle keep-alive
/// connections observe EOF, then the workers, reactor, and coordinator
/// exit.
///
/// [`shutdown`]: ServerHandle::shutdown
pub struct ServerHandle {
    shared: Arc<Shared>,
    engine: EngineHandle,
    coordinator: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` for an OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.engine.addr()
    }

    /// The observability handle (always at least metrics-only).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The currently published snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().epoch
    }

    /// Stop accepting, drain, and join every thread.
    pub fn shutdown(self) {
        // Drop runs the teardown.
    }

    fn stop(&mut self) {
        // Stop the coordinator: no sender, no more jobs (in-flight
        // requests hold clones; the coordinator exits when the engine
        // drains them).
        self.shared.update_tx.lock().unwrap_or_else(|p| p.into_inner()).take();
        // Drain in-flight responses, join the reactor and workers.
        self.engine.stop();
        if let Some(c) = self.coordinator.take() {
            let _ = c.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Route a [`ServeError`] through the one status + JSON body mapping.
fn err_response(err: ServeError) -> Response {
    let (status, body) = err.to_response();
    (status, "application/json", body)
}

fn handle_healthz(shared: &Shared) -> Response {
    let ok = !shared.poisoned.load(Ordering::Acquire);
    let status = if ok { 200 } else { 503 };
    let backlog = shared.wal_backlog.load(Ordering::Relaxed);
    let body = wire::health_response(shared.snapshot().epoch, ok, backlog);
    (status, "application/json", body)
}

fn bad_request(msg: &str) -> Response {
    err_response(ServeError::BadRequest(msg.into()))
}

fn utf8_body(body: &[u8]) -> Result<&str, Response> {
    std::str::from_utf8(body).map_err(|_| bad_request("request body must be UTF-8"))
}

/// Why `/query` refuses a `"classical"` field: the server holds the EDB,
/// not the fact table the companion paper's baselines scan.
const CLASSICAL_MSG: &str = "classical baselines are not served: evaluate them over the fact \
     table with iolap_query::aggregate_classical";

/// The reactor-side stage of `/query`: parse, resolve the region, probe
/// the cache. A hit — and every malformed request — is answered here; a
/// miss hands its region, cache key and snapshot to a worker, which
/// scans without parsing, resolving or probing again.
fn begin_query(body: &[u8], shared: &Arc<Shared>) -> Step {
    let reject = |msg: &str| Step::Respond(bad_request(msg));
    let body = match utf8_body(body) {
        Ok(b) => b,
        Err(r) => return Step::Respond(r),
    };
    let q = match wire::parse_query(body) {
        Ok(q) => q,
        Err(msg) => return reject(&msg),
    };
    if q.classical.is_some() {
        return reject(CLASSICAL_MSG);
    }
    let region = match resolve_region(&shared.schema, &q.at) {
        Ok(r) => r,
        Err(msg) => return reject(&msg),
    };
    let agg = q.agg;
    let key = CacheKey::new(&region, agg, None);
    if shared.cache_enabled {
        if let Some(hit) = shared.cache.get(&key) {
            shared.metrics.cache_hit.inc();
            let body = wire::query_response(&hit.result, agg, true, hit.epoch);
            return Step::Respond((200, "application/json", body));
        }
        shared.metrics.cache_miss.inc();
    }
    let (snap, shared) = (shared.snapshot(), shared.clone());
    Step::Work(Box::new(move || scan_query(region, key, agg, &snap, &shared)))
}

/// The worker-side stage of a `/query` the cache missed: scan, insert,
/// serialize.
fn scan_query(
    region: RegionBox,
    key: CacheKey,
    agg: AggFn,
    snap: &EdbSnapshot,
    shared: &Shared,
) -> Response {
    // A corrupt compressed page surfaces from the cursor as the storage
    // error it is — a 500, never a silent short answer.
    let (result, stats) = match snap.aggregate_with_stats(&region, agg) {
        Ok(rs) => rs,
        Err(e) => return err_response(ServeError::Internal(format!("scan failed: {e}"))),
    };
    shared.metrics.pages_read.add(stats.pages_read);
    shared.metrics.pages_pruned.add(stats.pages_pruned);
    shared.metrics.bytes_read.add(stats.bytes_read);
    if shared.cache_enabled {
        let out = shared.cache.insert(key, CachedResult { result, epoch: snap.epoch });
        if out.inserted {
            shared.metrics.cache_insert.inc();
        }
        shared.metrics.cache_evicted.add(out.evicted);
    }
    (200, "application/json", wire::query_response(&result, agg, false, snap.epoch))
}

fn handle_rollup(body: &[u8], shared: &Shared) -> Response {
    let body = match utf8_body(body) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let r = match wire::parse_rollup(body) {
        Ok(r) => r,
        Err(msg) => return bad_request(&msg),
    };
    let snap = shared.snapshot();
    let (dim, level) = match resolve_level(&snap.schema, &r.dim, &r.level) {
        Ok(dl) => dl,
        Err(msg) => return bad_request(&msg),
    };
    let region = match resolve_region(&snap.schema, &r.at) {
        Ok(rg) => rg,
        Err(msg) => return bad_request(&msg),
    };
    let (rows, stats) = match snap.rollup(dim, level, Some(&region), r.agg) {
        Ok(rs) => rs,
        Err(e) => {
            return err_response(ServeError::Internal(format!("scan failed: {e}")));
        }
    };
    shared.metrics.pages_read.add(stats.scan.pages_read);
    shared.metrics.pages_pruned.add(stats.scan.pages_pruned);
    shared.metrics.bytes_read.add(stats.scan.bytes_read);
    shared.metrics.cuboid_hits.add(stats.cuboid_hits);
    shared.metrics.cuboid_misses.add(stats.cuboid_misses);
    (200, "application/json", wire::rollup_response(&rows, r.agg, snap.epoch))
}

fn handle_update(body: &[u8], shared: &Shared) -> Response {
    let body = match utf8_body(body) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let upd = match wire::parse_update(body) {
        Ok(m) => m,
        Err(msg) => return bad_request(&msg),
    };
    let snap = shared.snapshot();
    let mut muts = Vec::with_capacity(upd.muts.len());
    for (i, m) in upd.muts.into_iter().enumerate() {
        muts.push(match m {
            wire::MutationReq::Update { fact_id, measure } => {
                EdbMutation::UpdateMeasure { fact_id, new_measure: measure }
            }
            wire::MutationReq::Delete { fact_id } => EdbMutation::Delete(fact_id),
            wire::MutationReq::Insert { id, dims, measure } => {
                let k = snap.schema.k();
                if dims.len() != k {
                    return bad_request(&format!(
                        "mutation {i}: expected {k} dims, got {}",
                        dims.len()
                    ));
                }
                let mut fact_dims = [0u32; MAX_DIMS];
                for (d, name) in dims.iter().enumerate() {
                    let h = snap.schema.dim(d);
                    let Some(node) = h.resolve_name(name) else {
                        return bad_request(&format!(
                            "mutation {i}: unknown node {name:?} in dimension {:?}",
                            h.name()
                        ));
                    };
                    fact_dims[d] = node.0;
                }
                EdbMutation::Insert(Fact { id, dims: fact_dims, measure })
            }
        });
    }

    // Enqueue for the coordinator and wait for the published epoch.
    if shared.poisoned.load(Ordering::Acquire) {
        return err_response(ServeError::Unavailable(
            "maintenance failed earlier; updates disabled (reads still serve the last consistent snapshot)".into(),
        ));
    }
    let tx = shared.update_tx.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let Some(tx) = tx else {
        return err_response(ServeError::Unavailable("server is shutting down".into()));
    };
    let (reply_tx, reply_rx) = mpsc::channel();
    if tx.send((muts, reply_tx)).is_err() {
        return err_response(ServeError::Unavailable("server is shutting down".into()));
    }
    match reply_rx.recv() {
        Ok(Ok(UpdateReply::Applied(out))) => {
            let r = &out.report;
            let body = wire::update_response(
                out.epoch,
                out.invalidated,
                r.affected_components,
                r.affected_tuples,
                r.entries_rewritten,
                r.merges,
                r.splits,
            );
            (200, "application/json", body)
        }
        Ok(Ok(UpdateReply::Durable { wal_batch, staged, epoch })) => {
            (200, "application/json", wire::staged_response(wal_batch, staged, epoch))
        }
        Ok(Err((status, msg))) => err_response(ServeError::from_status(status, msg)),
        Err(_) => err_response(ServeError::Internal("update coordinator died".into())),
    }
}

// ---------------------------------------------------------------------------
// Update coordinator
// ---------------------------------------------------------------------------

/// Ingest knobs handed to the coordinator (a slice of [`ServeConfig`]).
struct IngestCfg {
    wal_path: Option<PathBuf>,
    group_window: Duration,
    group_frames: u64,
}

/// One accepted-but-unfolded batch: its mutations are WAL-durable and
/// its `/update` already answered.
struct PendingBatch {
    muts: Vec<EdbMutation>,
}

const POISONED_MSG: &str =
    "maintenance failed earlier; updates disabled (reads still serve the last consistent snapshot)";

/// One `/update` batch and where its reply goes.
type UpdateJob = (Vec<EdbMutation>, Sender<Result<UpdateReply, (u16, String)>>);

fn coordinator_main(
    table: FactTable,
    policy: PolicySpec,
    alloc: AllocConfig,
    ingest: IngestCfg,
    ready_tx: Sender<Result<Arc<EdbSnapshot>, String>>,
    shared_rx: Receiver<Arc<Shared>>,
    update_rx: Receiver<UpdateJob>,
) {
    // Build the initial allocation. Maintenance requires Transitive (the
    // component index is piggybacked on its component-processing step).
    let built = allocate(&table, &policy, Algorithm::Transitive, &alloc)
        .and_then(|run| MaintainableEdb::build(run, policy.clone()));
    let mut medb = match built {
        Ok(m) => m,
        Err(e) => {
            let _ = ready_tx.send(Err(format!("{e}")));
            return;
        }
    };
    // Past allocation the boot table yields only the acknowledged id set;
    // it drops here, and every snapshot shares one empty table.
    let mut acked_ids: HashSet<FactId> = table.facts().iter().map(|f| f.id).collect();
    let empty_table = Arc::new(FactTable::new(table.schema().clone()));
    drop(table);
    let mut epoch = 0u64;

    // Recover the write-ahead log *before* the first snapshot publishes.
    // Each committed WAL batch replays through the same `apply_batch`
    // path at the same batch granularity, so the recovered EDB — and the
    // epoch — are bit-identical to a synchronous replay of the
    // acknowledged history. A torn tail was never acknowledged and is
    // truncated by `open`; true corruption refuses to start.
    let mut wal: Option<MutationWal> = None;
    let mut recovered = 0u64;
    if let Some(path) = &ingest.wal_path {
        match MutationWal::open_or_create(path, medb.io_stats()) {
            Ok((w, rec)) => {
                for muts in &rec.batches {
                    if let Err(e) = medb.apply_batch(muts) {
                        let _ =
                            ready_tx.send(Err(format!("WAL replay failed at batch {epoch}: {e}")));
                        return;
                    }
                    apply_id_effects(&mut acked_ids, muts);
                    epoch += 1;
                    recovered += 1;
                }
                wal = Some(w);
            }
            Err(e) => {
                let _ = ready_tx.send(Err(format!("WAL recovery failed: {e}")));
                return;
            }
        }
    }

    let schema = medb.schema().clone();
    let segments = match medb.snapshot_segments() {
        Ok(s) => s,
        Err(e) => {
            let _ = ready_tx.send(Err(format!("snapshot failed: {e}")));
            return;
        }
    };
    // The lattice is an accelerator: if its build fails, publish `None`
    // and serve leaf scans rather than refusing to start.
    let lattice = medb.snapshot_lattice().ok();
    let first = Arc::new(EdbSnapshot {
        epoch,
        schema: schema.clone(),
        table: empty_table,
        segments,
        lattice: lattice.clone(),
    });
    if ready_tx.send(Ok(first)).is_err() {
        return;
    }
    let Ok(shared) = shared_rx.recv() else {
        return;
    };
    shared.metrics.cuboid_bytes.set(lattice.as_ref().map_or(0, |l| l.encoded_bytes()) as i64);
    shared.metrics.ingest_recovered.add(recovered);
    let wal_bytes_seen = wal.as_ref().map_or(0, |w| w.appended_bytes());
    shared.metrics.ingest_wal_bytes.add(wal_bytes_seen);

    let compactions_seen = medb.num_compactions();
    let coord = Coord {
        medb,
        acked_ids,
        epoch,
        wal,
        wal_bytes_seen,
        shared,
        ingest,
        compactions_seen,
        pending: VecDeque::new(),
        pending_frames: 0,
        oldest_pending: None,
    };
    coord.run(update_rx);
}

/// The update coordinator's working state (one thread owns it all).
struct Coord {
    medb: MaintainableEdb,
    /// Ids as of the last *acknowledged* batch — includes the deferred
    /// backlog, so validation at ack time sees pending effects.
    acked_ids: HashSet<FactId>,
    epoch: u64,
    wal: Option<MutationWal>,
    wal_bytes_seen: u64,
    shared: Arc<Shared>,
    ingest: IngestCfg,
    compactions_seen: u64,
    pending: VecDeque<PendingBatch>,
    pending_frames: u64,
    oldest_pending: Option<Instant>,
}

impl Coord {
    fn run(mut self, update_rx: Receiver<UpdateJob>) {
        loop {
            let job = match self.oldest_pending {
                // Nothing staged: block until the next job or shutdown.
                None => match update_rx.recv() {
                    Ok(j) => j,
                    Err(_) => break,
                },
                // Deferred batches wait at most `group_window` past the
                // oldest ack before folding.
                Some(t0) => {
                    let deadline = t0 + self.ingest.group_window;
                    let now = Instant::now();
                    if deadline <= now {
                        self.fold_pending();
                        continue;
                    }
                    match update_rx.recv_timeout(deadline - now) {
                        Ok(j) => j,
                        Err(RecvTimeoutError::Timeout) => {
                            self.fold_pending();
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            // Group-commit drain: updates already queued behind this one
            // ride the same fsync.
            let mut group = vec![job];
            group.extend(update_rx.try_iter());
            self.handle_group(group);
        }
        // Graceful shutdown (stdin EOF / handle drop): every batch below
        // was acknowledged durable, so flush the backlog into a delta
        // segment before exit — restart then replays nothing.
        self.fold_pending();
    }

    /// Validate, WAL-append, group-fsync, then fold or stage one group
    /// of `/update` batches.
    fn handle_group(&mut self, group: Vec<UpdateJob>) {
        let t0 = Instant::now();
        // Phase 1: validate in arrival order against the acknowledged id
        // set and append accepted batches to the WAL (not yet synced).
        let mut accepted: Vec<(Vec<EdbMutation>, _, Option<u64>)> = Vec::new();
        for (muts, reply) in group {
            if self.shared.poisoned.load(Ordering::Acquire) {
                let _ = reply.send(Err((503, POISONED_MSG.into())));
                continue;
            }
            if let Err((status, msg)) = validate_batch(&mut self.acked_ids, &muts) {
                let _ = reply.send(Err((status, msg)));
                continue;
            }
            let wal_batch = match &mut self.wal {
                None => None,
                Some(w) => match w.append_batch(&muts) {
                    Ok(b) => Some(b),
                    Err(e) => {
                        // The log is broken mid-frame; a later append
                        // could commit orphaned frames, so the write
                        // path poisons rather than guessing.
                        self.shared.poisoned.store(true, Ordering::Release);
                        let _ = reply.send(Err((500, format!("WAL append failed: {e}"))));
                        continue;
                    }
                },
            };
            accepted.push((muts, reply, wal_batch));
        }
        if accepted.is_empty() {
            return;
        }
        // Phase 2: one fsync covers every accepted batch in the group —
        // this is the whole point of group commit.
        if let Some(w) = &mut self.wal {
            if let Err(e) = w.sync() {
                self.shared.poisoned.store(true, Ordering::Release);
                for (_, reply, _) in accepted {
                    let reply: Sender<Result<UpdateReply, (u16, String)>> = reply;
                    let _ = reply.send(Err((500, format!("WAL fsync failed: {e}"))));
                }
                return;
            }
            let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.shared.metrics.ingest_group_commit_us.observe(micros);
            self.sync_wal_metrics();
        }
        // Phase 3: answer. Synchronous mode folds now; deferred mode acks
        // at durable and stages the fold.
        let defer = self.ingest.group_window > Duration::ZERO && self.wal.is_some();
        for (muts, reply, wal_batch) in accepted {
            if self.shared.poisoned.load(Ordering::Acquire) {
                // A batch earlier in this group poisoned the EDB. This
                // one is WAL-durable and will replay on restart.
                let _ = reply.send(Err((503, POISONED_MSG.into())));
                continue;
            }
            if !defer {
                let result = match self.fold_publish(&muts) {
                    Ok(out) => Ok(UpdateReply::Applied(out)),
                    Err(msg) => {
                        // apply_batch / snapshot_segments failed partway:
                        // the EDB may disagree with the published
                        // snapshot and the acknowledged ids, and
                        // apply_batch has no rollback. Poison: reads keep
                        // the last consistent snapshot, writes get 503.
                        self.shared.poisoned.store(true, Ordering::Release);
                        Err((500, msg))
                    }
                };
                self.sync_compaction_metric();
                let _ = reply.send(result);
            } else {
                self.pending_frames += muts.len() as u64;
                self.pending.push_back(PendingBatch { muts });
                if self.oldest_pending.is_none() {
                    self.oldest_pending = Some(Instant::now());
                }
                self.set_backlog();
                let _ = reply.send(Ok(UpdateReply::Durable {
                    wal_batch: wal_batch.unwrap_or(0),
                    staged: self.pending_frames,
                    epoch: self.epoch,
                }));
            }
        }
        if self.pending_frames >= self.ingest.group_frames {
            self.fold_pending();
        }
    }

    /// Fold every deferred batch into the EDB, one `apply_batch` per
    /// acknowledged batch (bit-identity demands the original batch
    /// granularity), publishing after each fold.
    fn fold_pending(&mut self) {
        if self.pending.is_empty() {
            self.oldest_pending = None;
            return;
        }
        if self.shared.poisoned.load(Ordering::Acquire) {
            // The backlog stays durable in the WAL for the next start;
            // the gauge keeps reporting it as unfolded.
            self.pending.clear();
            self.oldest_pending = None;
            return;
        }
        let folds = self.pending.len() as u64;
        while let Some(batch) = self.pending.pop_front() {
            match self.fold_publish(&batch.muts) {
                Ok(_) => self.pending_frames -= batch.muts.len() as u64,
                Err(_) => {
                    self.shared.poisoned.store(true, Ordering::Release);
                    self.pending.clear();
                    self.oldest_pending = None;
                    self.set_backlog();
                    return;
                }
            }
        }
        self.oldest_pending = None;
        self.set_backlog();
        self.shared.metrics.ingest_folds.add(folds);
        self.sync_compaction_metric();
    }

    /// Apply one batch, snapshot, bump the epoch, and publish. An `Err`
    /// always means *poison* — the caller must set the flag.
    fn fold_publish(&mut self, muts: &[EdbMutation]) -> Result<UpdateOutcome, String> {
        let report = self.medb.apply_batch(muts).map_err(|e| format!("maintenance failed: {e}"))?;

        // `snapshot_segments` folds only the runs this batch re-emitted
        // into one new delta tier and hands back the same `Arc`s for
        // segments the batch left alone, so publication cost is
        // O(segments), not O(entries) — except in the fold that crosses
        // the compaction threshold, which merges tiers in memory before
        // the lattice sync below, so a merged tier's lattice is built
        // once. Readers keep the previous snapshot meanwhile.
        let segments =
            self.medb.snapshot_segments().map_err(|e| format!("snapshot failed: {e}"))?;
        // Sync the cuboid lattice to the batch. A failure here degrades
        // the next epoch's `/rollup`s to leaf scans — never to wrong
        // answers — so it does not poison the coordinator.
        let lattice = self.medb.snapshot_lattice().ok();

        self.epoch += 1;
        let snap = Arc::new(EdbSnapshot {
            epoch: self.epoch,
            schema: self.medb.schema().clone(),
            table: self.shared.snapshot().table.clone(),
            segments,
            lattice,
        });
        let invalidated = publish(&self.shared, self.epoch, &snap, &report.touched);
        Ok(UpdateOutcome { epoch: self.epoch, invalidated, report })
    }

    fn set_backlog(&self) {
        self.shared.wal_backlog.store(self.pending_frames, Ordering::Relaxed);
        let gauge = i64::try_from(self.pending_frames).unwrap_or(i64::MAX);
        self.shared.metrics.ingest_backlog.set(gauge);
    }

    fn sync_wal_metrics(&mut self) {
        if let Some(w) = &self.wal {
            let total = w.appended_bytes();
            self.shared.metrics.ingest_wal_bytes.add(total - self.wal_bytes_seen);
            self.wal_bytes_seen = total;
        }
    }

    /// Surface segment-layer maintenance work since the last sync.
    fn sync_compaction_metric(&mut self) {
        let now = self.medb.num_compactions();
        self.shared.metrics.edb_compactions.add(now - self.compactions_seen);
        self.compactions_seen = now;
    }
}

/// Publish a snapshot: open the cache epoch, purge overlapping entries,
/// sync the gauges, then swap the snapshot readers clone.
fn publish(shared: &Shared, epoch: u64, snap: &Arc<EdbSnapshot>, touched: &[RegionBox]) -> u64 {
    // Publication order matters: open the epoch (stale inserts start
    // dropping), purge overlapping entries, then publish the snapshot.
    shared.cache.begin_epoch(epoch);
    let invalidated = shared.cache.invalidate_overlapping(touched);
    // Survivors are disjoint from every touched box, so their answers are
    // unchanged at the new epoch (Theorem 12's contrapositive) — restamp
    // them so hits keep reporting the live epoch. Must run *after* the
    // sweep: restamping first would let a stale overlapping entry serve
    // one last hit wearing the new epoch.
    shared.cache.retag_epoch(epoch);
    shared.metrics.cache_invalidated.add(invalidated);
    shared.metrics.edb_segments.set(snap.segments.len() as i64);
    shared.metrics.compression_ratio.set(compression_milli(&snap.segments));
    shared.metrics.cuboid_bytes.set(snap.lattice.as_ref().map_or(0, |l| l.encoded_bytes()) as i64);
    *shared.snapshot.lock().unwrap_or_else(|p| p.into_inner()) = snap.clone();
    shared.metrics.epoch.set(epoch as i64);
    invalidated
}

/// Validate one batch against the acknowledged id set *without*
/// mutating it unless every mutation passes (apply_batch has no
/// rollback, and a rejected batch must leave no trace). The batch's own
/// inserts and deletes go to an overlay (`true` = present) that is
/// committed only on success, so the cost is O(batch), not O(ids).
fn validate_batch(
    acked_ids: &mut HashSet<FactId>,
    muts: &[EdbMutation],
) -> Result<(), (u16, String)> {
    let reject = |i: usize, msg: String| (400u16, format!("mutation {i}: {msg}"));
    let mut overlay: HashMap<FactId, bool> = HashMap::new();
    let present = |overlay: &HashMap<FactId, bool>, id: &FactId| {
        overlay.get(id).copied().unwrap_or_else(|| acked_ids.contains(id))
    };
    for (i, m) in muts.iter().enumerate() {
        match m {
            EdbMutation::UpdateMeasure { fact_id, new_measure } => {
                if !present(&overlay, fact_id) {
                    return Err(reject(i, format!("no fact {fact_id}")));
                }
                if !new_measure.is_finite() {
                    return Err(reject(i, "measure must be finite".into()));
                }
            }
            EdbMutation::Delete(fact_id) => {
                if !present(&overlay, fact_id) {
                    return Err(reject(i, format!("no fact {fact_id}")));
                }
                overlay.insert(*fact_id, false);
            }
            EdbMutation::Insert(f) => {
                if !f.measure.is_finite() {
                    return Err(reject(i, "measure must be finite".into()));
                }
                if present(&overlay, &f.id) {
                    return Err(reject(i, format!("fact id {} already exists", f.id)));
                }
                overlay.insert(f.id, true);
            }
        }
    }
    for (id, present) in overlay {
        if present {
            acked_ids.insert(id);
        } else {
            acked_ids.remove(&id);
        }
    }
    Ok(())
}

/// Project a validated batch's insert/delete effects onto an id set
/// (used by WAL replay, where the batch was validated before it was
/// ever logged).
fn apply_id_effects(ids: &mut HashSet<FactId>, muts: &[EdbMutation]) {
    for m in muts {
        match m {
            EdbMutation::UpdateMeasure { .. } => {}
            EdbMutation::Insert(f) => {
                ids.insert(f.id);
            }
            EdbMutation::Delete(fact_id) => {
                ids.remove(fact_id);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A tiny blocking client (bench bins, tests, CI smoke).
// ---------------------------------------------------------------------------

/// Send one request over an open connection and read the response.
/// Returns `(status, body)`. The connection stays usable (keep-alive).
pub fn http_roundtrip(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    // One buffered write: `write!` straight to the socket would emit one
    // syscall per format fragment, and the multi-packet request then hits
    // the Nagle + delayed-ACK 40 ms stall on loopback.
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: iolap\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.set_nodelay(true);
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    read_response(stream)
}

/// Read one HTTP response off a stream (Content-Length framing only).
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    read_response_from(&mut BufReader::new(stream))
}

/// [`read_response`] over a reader the caller keeps, so the responses to
/// pipelined requests can be read one after another without losing what
/// the buffer read ahead.
pub fn read_response_from<R: std::io::BufRead>(reader: &mut R) -> std::io::Result<(u16, String)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 =
        status_line.split_ascii_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(
            || {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            },
        )?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_config_builder_matches_struct_defaults() {
        let built = ServeConfig::builder().build();
        let def = ServeConfig::default();
        assert_eq!(built.workers, def.workers);
        assert_eq!(built.queue_depth, def.queue_depth);
        assert_eq!(built.max_connections, def.max_connections);
        assert_eq!(built.cache_capacity, def.cache_capacity);
        assert_eq!(built.cache_shards, def.cache_shards);
        assert_eq!(built.read_timeout, def.read_timeout);
        assert_eq!(built.write_timeout, def.write_timeout);
        assert_eq!(built.idle_timeout, def.idle_timeout);
        assert_eq!(built.max_body_bytes, def.max_body_bytes);
    }

    #[test]
    fn serve_config_builder_sets_every_knob() {
        let cfg = ServeConfig::builder()
            .workers(3)
            .queue_depth(7)
            .max_connections(11)
            .cache_capacity(13)
            .cache_shards(2)
            .read_timeout(Duration::from_millis(101))
            .write_timeout(Duration::from_millis(102))
            .idle_timeout(Duration::from_millis(103))
            .max_body_bytes(1024)
            .build();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 7);
        assert_eq!(cfg.max_connections, 11);
        assert_eq!(cfg.cache_capacity, 13);
        assert_eq!(cfg.cache_shards, 2);
        assert_eq!(cfg.read_timeout, Duration::from_millis(101));
        assert_eq!(cfg.write_timeout, Duration::from_millis(102));
        assert_eq!(cfg.idle_timeout, Duration::from_millis(103));
        assert_eq!(cfg.max_body_bytes, 1024);
    }
}
