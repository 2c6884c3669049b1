//! The HTTP engine: one reactor thread plus a worker pool, parameterized
//! over a [`Handler`] so the transport can be driven (and tested) apart
//! from the query server's application logic.
//!
//! The engine owns everything transport-shaped — accepting, parsing,
//! shedding, timeouts, panic isolation, graceful drain — and knows
//! nothing about snapshots or caches. Every fully-parsed
//! [`Request`] goes through the handler's [`begin`](Handler::begin)
//! stage on the reactor thread, which either finishes the
//! `(status, content-type, body)` there or returns the remaining work
//! for the worker pool; whichever thread finishes it, the engine counts
//! it, times it, and writes it. Its metrics register under `serve.*`.

use crate::http::{response_bytes, Request};
use crate::reactor::{write_nonblocking, Completion, Reactor, ReadyRequest, WriteOutcome};
use crate::server::ServeConfig;
use crate::sys::Waker;
use crate::wire::ServeError;
use iolap_obs::{Counter, Gauge, Histogram, Obs};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One HTTP response: status, content type, body.
pub type Response = (u16, &'static str, String);

/// What [`Handler::begin`] made of a request.
pub enum Step {
    /// Answered on the reactor thread; written to the socket at once.
    Respond(Response),
    /// The rest of the request, for a worker. The closure owns whatever
    /// `begin` already worked out (parsed body, resolved region, …) so
    /// the worker does none of it again.
    Work(Box<dyn FnOnce() -> Response + Send>),
}

/// Application logic behind the engine: map one parsed request to a
/// response, in two stages.
pub trait Handler: Send + Sync + 'static {
    /// First stage, called on the **reactor thread** for every parsed
    /// request: finish the response here, or hand back the remaining
    /// work.
    ///
    /// While `begin` runs no other socket is served, so it must be
    /// bounded and must not block: no file or socket I/O, no channel to
    /// another thread, no segment or table scan, nothing proportional to
    /// the data — only work bounded by the request body (itself capped
    /// by `max_body_bytes`) plus map probes under short, uncontended
    /// locks. Anything else goes into [`Step::Work`], which runs on a
    /// worker. A handler with nothing cheap to answer returns `Work` for
    /// everything.
    ///
    /// Panics in either stage are caught and answered with a `500`.
    fn begin(&self, req: Request) -> Step;
}

/// Transport-level metric handles, resolved once at startup (hot paths
/// never re-hash names).
pub(crate) struct EngineMetrics {
    pub(crate) requests: Counter,
    pub(crate) resp_ok: Counter,
    pub(crate) resp_client_error: Counter,
    pub(crate) resp_server_error: Counter,
    pub(crate) shed: Counter,
    pub(crate) panics: Counter,
    /// Requests finished on the reactor thread ([`Step::Respond`]).
    pub(crate) inline: Counter,
    /// Depth of the ready-request queue (requests parsed by the reactor
    /// but not yet picked up by a worker).
    pub(crate) queue_depth: Gauge,
    /// Live connection count owned by the reactor.
    pub(crate) connections: Gauge,
    pub(crate) latency_us: Histogram,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> Self {
        let c = |n: &str| obs.counter(n).expect("engine obs is always enabled");
        EngineMetrics {
            requests: c("serve.requests"),
            resp_ok: c("serve.responses.ok"),
            resp_client_error: c("serve.responses.client_error"),
            resp_server_error: c("serve.responses.server_error"),
            shed: c("serve.shed"),
            panics: c("serve.panics"),
            inline: c("serve.inline"),
            queue_depth: obs.gauge("serve.queue.depth").expect("enabled"),
            connections: obs.gauge("serve.connections").expect("enabled"),
            latency_us: obs.histogram("serve.latency_us").expect("enabled"),
        }
    }
}

/// State shared by the reactor and every worker.
pub(crate) struct EngineShared {
    pub(crate) metrics: EngineMetrics,
    pub(crate) shutdown: AtomicBool,
    pub(crate) handler: Arc<dyn Handler>,
}

/// Classify a status into the ok / client-error / server-error counters.
pub(crate) fn count_status(shared: &EngineShared, status: u16) {
    match status {
        200..=299 => shared.metrics.resp_ok.inc(),
        400..=499 => shared.metrics.resp_client_error.inc(),
        _ => shared.metrics.resp_server_error.inc(),
    }
}

/// Count one handler outcome — from either stage, on either thread — and
/// frame it for the wire. A caught panic becomes the `500`. Returns the
/// response bytes and whether the connection stays open after them.
pub(crate) fn finish_request(
    shared: &EngineShared,
    out: std::thread::Result<Response>,
    keep_alive: bool,
) -> (Vec<u8>, bool) {
    let (status, content_type, body) = out.unwrap_or_else(|_| {
        shared.metrics.panics.inc();
        let (status, body) = ServeError::Internal("internal error".into()).to_response();
        (status, "application/json", body)
    });
    shared.metrics.requests.inc();
    count_status(shared, status);
    let keep_alive = keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    (response_bytes(status, content_type, body.as_bytes(), keep_alive), keep_alive)
}

/// Record a request's latency: parse-complete to bytes handed to the
/// socket, the same span whichever thread finished it.
pub(crate) fn observe_latency(shared: &EngineShared, started: Instant) {
    shared.metrics.latency_us.observe(started.elapsed().as_micros() as u64);
}

/// A running engine. Dropping it (or calling [`stop`](EngineHandle::stop))
/// drains in-flight responses and joins the reactor and workers.
pub struct EngineHandle {
    addr: SocketAddr,
    shared: Arc<EngineShared>,
    waker: Arc<Waker>,
    threads: Vec<JoinHandle<()>>,
}

impl EngineHandle {
    /// The bound address (useful with `:0` for an OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight responses, join every thread.
    /// Idempotent; also runs on drop.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` and start the reactor plus `cfg.workers` worker threads
/// running `handler` (`iolap-serve-reactor`, `iolap-serve-worker-N`).
pub fn start(
    addr: &str,
    cfg: &ServeConfig,
    obs: &Obs,
    handler: Arc<dyn Handler>,
) -> Result<EngineHandle, ServeError> {
    let metrics = EngineMetrics::new(obs);
    let shared = Arc::new(EngineShared { metrics, shutdown: AtomicBool::new(false), handler });

    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let waker = Arc::new(Waker::new()?);

    let (work_tx, work_rx) = mpsc::sync_channel::<ReadyRequest>(cfg.queue_depth.max(1));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut threads = Vec::with_capacity(cfg.workers + 1);

    for i in 0..cfg.workers.max(1) {
        let rx = work_rx.clone();
        let sh = shared.clone();
        let done = done_tx.clone();
        let wk = waker.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("iolap-serve-worker-{i}"))
                .spawn(move || worker_main(rx, sh, done, wk))
                .map_err(ServeError::Io)?,
        );
    }
    drop(done_tx); // reactor's done_rx disconnects when workers exit

    let reactor =
        Reactor::new(listener, waker.clone(), work_tx, done_rx, shared.clone(), cfg.clone())?;
    threads.push(
        std::thread::Builder::new()
            .name("iolap-serve-reactor".into())
            .spawn(move || reactor.run())
            .map_err(ServeError::Io)?,
    );

    Ok(EngineHandle { addr: local, shared, waker, threads })
}

fn worker_main(
    rx: Arc<Mutex<Receiver<ReadyRequest>>>,
    shared: Arc<EngineShared>,
    done_tx: Sender<Completion>,
    waker: Arc<Waker>,
) {
    loop {
        let job = {
            let rx = rx.lock().unwrap_or_else(|p| p.into_inner());
            match rx.recv() {
                Ok(j) => j,
                Err(_) => return, // reactor gone, queue drained
            }
        };
        shared.metrics.queue_depth.add(-1);

        let out = catch_unwind(AssertUnwindSafe(job.work));
        let (bytes, keep_alive) = finish_request(&shared, out, job.keep_alive);
        // Write straight to the socket — the reactor holds this
        // connection's interest at zero until our completion arrives, so
        // the two threads never touch the stream concurrently.
        let outcome = match write_nonblocking(&job.stream, &bytes, 0) {
            Ok(off) if off == bytes.len() => WriteOutcome::Done { keep_alive },
            Ok(off) => WriteOutcome::Blocked { bytes, off, keep_alive },
            Err(_) => WriteOutcome::Failed,
        };
        observe_latency(&shared, job.started);
        drop(job.stream);
        if done_tx.send(Completion { conn_id: job.conn_id, outcome }).is_err() {
            return;
        }
        waker.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{http_roundtrip, read_response, read_response_from};
    use std::io::Write;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Requests pipelined in the turn-taking test: far more than one
    /// wake's inline budget.
    const PIPELINED: usize = 2000;

    /// Whoever passes through announces itself, then waits to be let go.
    struct Gate {
        entered: Mutex<Sender<()>>,
        release: Mutex<Receiver<()>>,
    }

    impl Gate {
        fn pass(&self) -> Response {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
            ok("released".into())
        }
    }

    /// A handler with one endpoint per behaviour under test.
    struct Toy {
        /// `/hit` answers so far; each answer's body is its ordinal.
        hits: AtomicUsize,
        /// `hits` at the moment `/work`'s begin stage ran.
        hits_at_work: AtomicUsize,
        /// `/hold` waits here in its worker stage; `/gate` in `begin`
        /// itself — what no real handler may do, here to pile requests
        /// up behind a busy reactor.
        gate: Arc<Gate>,
    }

    fn ok(body: String) -> Response {
        (200, "text/plain", body)
    }

    impl Handler for Toy {
        fn begin(&self, req: Request) -> Step {
            match req.path.as_str() {
                "/hit" => Step::Respond(ok(self.hits.fetch_add(1, Ordering::SeqCst).to_string())),
                "/work" => {
                    self.hits_at_work.store(self.hits.load(Ordering::SeqCst), Ordering::SeqCst);
                    Step::Work(Box::new(|| ok("worked".into())))
                }
                "/hold" => {
                    let gate = self.gate.clone();
                    Step::Work(Box::new(move || gate.pass()))
                }
                "/gate" => Step::Respond(self.gate.pass()),
                "/boom" => panic!("toy begin panics"),
                _ => Step::Respond((404, "text/plain", String::new())),
            }
        }
    }

    struct Rig {
        engine: EngineHandle,
        obs: Obs,
        toy: Arc<Toy>,
        entered: Receiver<()>,
        release: Sender<()>,
    }

    fn rig(workers: usize) -> Rig {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let toy = Arc::new(Toy {
            hits: AtomicUsize::new(0),
            hits_at_work: AtomicUsize::new(usize::MAX),
            gate: Arc::new(Gate {
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            }),
        });
        let obs = Obs::metrics_only();
        let cfg = ServeConfig::builder().workers(workers).build();
        let engine = start("127.0.0.1:0", &cfg, &obs, toy.clone()).unwrap();
        Rig { engine, obs, toy, entered, release }
    }

    impl Rig {
        fn connect(&self) -> TcpStream {
            let s = TcpStream::connect(self.engine.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        }

        fn counter(&self, name: &str) -> u64 {
            self.obs.counter(name).unwrap().get()
        }
    }

    fn send(stream: &mut TcpStream, path: &str) {
        stream.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
    }

    #[test]
    fn inline_answers_do_not_wait_for_a_busy_worker_pool() {
        let r = rig(1);
        let mut held = r.connect();
        send(&mut held, "/hold");
        r.entered.recv().unwrap(); // the only worker is now inside `/hold`

        let mut c = r.connect();
        let t0 = Instant::now();
        let (status, body) = http_roundtrip(&mut c, "GET", "/hit", "").unwrap();
        assert!(t0.elapsed() < Duration::from_millis(100), "{:?}", t0.elapsed());
        assert_eq!((status, body.as_str()), (200, "0"));
        assert_eq!(r.counter("serve.inline"), 1);
        assert_eq!(r.counter("serve.requests"), 1, "the held request has not finished");

        r.release.send(()).unwrap();
        assert_eq!(read_response(&mut held).unwrap(), (200, "released".into()));
        assert_eq!(r.counter("serve.inline"), 1, "worker answers are not inline");
        assert_eq!(r.counter("serve.requests"), 2);
        assert_eq!(r.counter("serve.responses.ok"), 2);
        // The clock stops after the bytes are handed to the socket, so
        // the worker's observation may trail the answer we already hold.
        let latency = r.obs.histogram("serve.latency_us").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while latency.count() < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(latency.count(), 2);
    }

    #[test]
    fn a_panic_in_begin_is_a_500_not_a_dead_reactor() {
        let r = rig(1);
        let mut c = r.connect();
        let (status, body) = http_roundtrip(&mut c, "GET", "/boom", "").unwrap();
        assert_eq!(status, 500, "{body}");
        assert_eq!(r.counter("serve.panics"), 1);
        assert_eq!(r.counter("serve.responses.server_error"), 1);
        // The same connection and a fresh one both still answer, inline
        // and through a worker.
        assert_eq!(http_roundtrip(&mut c, "GET", "/hit", "").unwrap().0, 200);
        let mut fresh = r.connect();
        assert_eq!(http_roundtrip(&mut fresh, "GET", "/hit", "").unwrap().0, 200);
        assert_eq!(http_roundtrip(&mut fresh, "GET", "/work", "").unwrap().0, 200);
        assert_eq!(r.counter("serve.requests"), 4);
    }

    /// A deep pipeline of inline answers takes turns: with the reactor
    /// held busy, one connection buffers 2000 `/hit`s and a second one a
    /// `/work`; once the reactor is let go, the second connection's
    /// request is begun before the first one's pipeline is finished
    /// (without the per-wake budget it would see all 2000 answered), and
    /// the pipeline still comes back whole and in order.
    #[test]
    fn a_deep_inline_pipeline_takes_turns_and_stays_ordered() {
        let r = rig(1);
        let mut pipeline = r.connect();
        let mut other = r.connect();
        let mut gate = r.connect();
        send(&mut gate, "/gate");
        r.entered.recv().unwrap(); // the reactor is now stuck in `begin`

        pipeline.write_all("GET /hit HTTP/1.1\r\n\r\n".repeat(PIPELINED).as_bytes()).unwrap();
        send(&mut other, "/work");
        r.release.send(()).unwrap();

        assert_eq!(read_response(&mut other).unwrap(), (200, "worked".into()));
        let mut reader = std::io::BufReader::new(&mut pipeline);
        for i in 0..PIPELINED {
            assert_eq!(read_response_from(&mut reader).unwrap(), (200, i.to_string()));
        }
        let seen = r.toy.hits_at_work.load(Ordering::SeqCst);
        assert!(seen < PIPELINED, "/work began after {seen} pipelined answers");
        assert_eq!(r.counter("serve.inline"), PIPELINED as u64 + 1);
    }

    #[test]
    fn work_then_inline_on_one_connection_answer_in_request_order() {
        let r = rig(1);
        let mut c = r.connect();
        c.write_all(b"GET /hold HTTP/1.1\r\n\r\nGET /hit HTTP/1.1\r\n\r\n").unwrap();
        r.entered.recv().unwrap();
        // `/hit` is buffered behind a dispatched request: it must not be
        // begun, let alone answered, until the worker's answer is out.
        let mut probe = r.connect();
        assert_eq!(http_roundtrip(&mut probe, "GET", "/hit", "").unwrap().1, "0");
        r.release.send(()).unwrap();
        let mut reader = std::io::BufReader::new(&mut c);
        assert_eq!(read_response_from(&mut reader).unwrap(), (200, "released".into()));
        assert_eq!(read_response_from(&mut reader).unwrap(), (200, "1".into()));
    }
}
