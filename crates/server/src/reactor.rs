//! The readiness loop at the heart of iolap-serve: one thread owning
//! every socket. It parses each request and runs the handler's *begin*
//! stage itself; workers pull only what `begin` handed back — the
//! remaining work of a *ready, fully-parsed request* — instead of owning
//! connections.
//!
//! Per-connection state machine:
//!
//! ```text
//!                  ┌── begin → Respond (written whole,
//!                  │            keep-alive: stay Reading)
//!                  ▼     │
//!            readable    │     begin → Work
//!   accept ──► Reading ──┴───────────────► Dispatched ──┐
//!                ▲  │                       (worker      │ worker wrote
//!                │  │ response fully        computes +   │ response
//!                │  │ written, keep-alive   writes)      ▼
//!                └──│────── Writing ◄─────────── (residual bytes only)
//!                   │          ▲   │
//!                   └──────────┘   └──► Closing (close/EOF/timeout/shed)
//!            inline response the
//!            socket would not take
//! ```
//!
//! Staged requests: the moment a complete request parses, the reactor
//! calls [`Handler::begin`](crate::engine::Handler::begin) under
//! `catch_unwind`. `Step::Respond` — a cache hit, a cheap rejection — is
//! framed and written to the nonblocking socket right there, and the
//! connection never leaves `Reading`: no queue, no `epoll_ctl`, no
//! thread hop. What may run in `begin` is the handler trait's rule:
//! bounded by the request, never blocking, nothing proportional to the
//! data. `Step::Work` carries everything else to the worker pool.
//!
//! Readiness protocol: a `Reading` connection is registered for
//! readability; when `begin` returns `Work`, the connection's interest
//! set is *zeroed* (the registration stays, so errors are still
//! observed) and the work goes to the worker queue — buffered pipelined
//! bytes therefore cannot busy-wake the loop while the worker computes,
//! and because `begin` is only reached in `Reading`, an inline answer
//! can never overtake a worker's answer on the same connection. The
//! worker writes the response straight to the nonblocking socket; only
//! bytes the socket wouldn't take come back to the reactor as a residual
//! `Writing` state with write interest. On completion the connection
//! re-enters `Reading` and any buffered pipelined request is parsed
//! immediately, without waiting for another readable event.
//!
//! Bounded turns: one wake answers at most [`INLINE_BUDGET`] requests of
//! one connection inline. A connection with more still buffered goes on
//! the *resume list*, which the loop drains after a zero-timeout `wait`,
//! so a pipelining client takes turns with accepts, completions and
//! every other socket — and `advance` is a loop, so a deep pipeline
//! costs no stack.
//!
//! Why workers pull requests, not connections: a pulled *connection*
//! pins a worker for the socket's whole keep-alive lifetime, so idle
//! sockets exhaust the pool (the pre-reactor design's limit). A pulled
//! *request* costs a worker only the compute time of one answer, so the
//! connection count is bounded by memory and `max_connections`, not by
//! the worker count.

use crate::engine::{count_status, finish_request, observe_latency, EngineShared, Response, Step};
use crate::http::{response_bytes, try_parse, ParseStatus, ReadError};
use crate::server::{ServeConfig, ShedPolicy};
use crate::sys::{Event, Interest, Poller, Waker};
use crate::wire::ServeError;
use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// How long the poller sleeps with nothing to do. Timeout sweeps run on
/// this cadence; shutdown and completions interrupt it via the waker.
const TICK: Duration = Duration::from_millis(250);

/// Max bytes pulled off one socket per readable event, so a
/// fast-streaming peer cannot monopolize the loop (level-triggered
/// polling re-reports the fd if more is buffered).
const READ_BUDGET: usize = 64 * 1024;

/// Requests one connection may have answered inline per wake before it
/// yields the loop (and goes on the resume list if more are buffered).
const INLINE_BUDGET: usize = 32;

/// The worker-side remainder of a parsed request.
pub(crate) struct ReadyRequest {
    /// Reactor token of the owning connection (echoed in [`Completion`]).
    pub conn_id: u64,
    /// The socket, shared with the reactor. The worker writes the
    /// response bytes directly; the reactor does not touch a dispatched
    /// connection's stream until the completion arrives.
    pub stream: Arc<TcpStream>,
    /// The request's `Connection` disposition.
    pub keep_alive: bool,
    /// When the request finished parsing (the latency clock's zero).
    pub started: Instant,
    /// What `begin` left to do.
    pub work: Box<dyn FnOnce() -> Response + Send>,
}

/// What happened when a worker wrote its response.
pub(crate) enum WriteOutcome {
    /// Everything was written.
    Done {
        /// Whether the connection should await another request.
        keep_alive: bool,
    },
    /// The socket buffer filled; the reactor finishes the tail.
    Blocked {
        /// The full response bytes.
        bytes: Vec<u8>,
        /// Offset of the first unwritten byte.
        off: usize,
        /// Keep-alive after the tail drains.
        keep_alive: bool,
    },
    /// The socket is dead (peer reset mid-write).
    Failed,
}

/// Worker → reactor notification that a dispatched request finished.
pub(crate) struct Completion {
    pub conn_id: u64,
    pub outcome: WriteOutcome,
}

/// Write as much of `bytes[off..]` as the nonblocking socket accepts.
/// Returns the new offset, or `Err` if the socket is dead.
pub(crate) fn write_nonblocking(
    stream: &TcpStream,
    bytes: &[u8],
    mut off: usize,
) -> std::io::Result<usize> {
    use std::io::Write;
    while off < bytes.len() {
        match (&*stream).write(&bytes[off..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(off)
}

enum ConnState {
    /// Waiting for (more) request bytes; read interest. The only state
    /// in which requests are parsed and `begin` runs.
    Reading,
    /// A request is with a worker; interest zeroed.
    Dispatched,
    /// The reactor is draining response bytes; write interest.
    Writing { bytes: Vec<u8>, off: usize, keep_alive: bool },
}

struct Conn {
    stream: Arc<TcpStream>,
    /// Received-but-unparsed bytes (pipelined successors accumulate here).
    buf: Vec<u8>,
    state: ConnState,
    /// When the connection entered its current state (timeout sweeps).
    since: Instant,
    /// Peer sent EOF; close once the buffer can't yield another request.
    peer_closed: bool,
    /// An error event arrived while dispatched; close on completion
    /// instead of yanking the stream out from under the worker.
    errored: bool,
    /// What the poller currently reports for this socket (spares an
    /// `epoll_ctl` when a state change leaves it as it is).
    interest: Interest,
    /// On the resume list: buffered requests wait for the next turn, and
    /// nothing more is read off the socket until they are answered.
    resume_queued: bool,
}

pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    poller: Poller,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    ready_tx: Option<SyncSender<ReadyRequest>>,
    done_rx: Receiver<Completion>,
    shared: Arc<EngineShared>,
    cfg: ServeConfig,
    draining: bool,
    /// Connections that spent their inline budget with bytes still
    /// buffered. Ids are never reused, so a stale entry is harmless.
    resume: Vec<u64>,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        waker: Arc<Waker>,
        ready_tx: SyncSender<ReadyRequest>,
        done_rx: Receiver<Completion>,
        shared: Arc<EngineShared>,
        cfg: ServeConfig,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker.read_fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor {
            listener: Some(listener),
            poller,
            waker,
            conns: HashMap::new(),
            next_id: FIRST_CONN,
            ready_tx: Some(ready_tx),
            done_rx,
            shared,
            cfg,
            draining: false,
            resume: Vec::new(),
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            // With connections waiting to resume, only look at what is
            // ready now; they take their turn after it.
            let timeout = if self.resume.is_empty() { TICK } else { Duration::ZERO };
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // A failing poller is unrecoverable; drain and exit so
                // shutdown still joins.
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
                continue;
            }
            // Clear the waker *before* draining completions: a wake that
            // races the drain either lands in this batch or re-signals
            // the socket for the next wait.
            self.waker.clear();
            while let Ok(c) = self.done_rx.try_recv() {
                self.on_completion(c);
            }
            // Split borrows: take the event list, act, put it back.
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.on_accept(),
                    TOKEN_WAKER => {}
                    id => self.on_conn_event(id, ev),
                }
            }
            events = batch;
            for id in std::mem::take(&mut self.resume) {
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.resume_queued = false;
                    self.advance(id);
                }
            }
            let now = Instant::now();
            if now.duration_since(last_sweep) >= TICK {
                self.sweep_timeouts(now);
                last_sweep = now;
            }
        }
        // Dropping ready_tx lets workers drain the queue and exit.
    }

    /// Shutdown: stop accepting, close every parked connection (the
    /// half-close the old design applied per-socket), and let dispatched
    /// or writing connections finish their in-flight response.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.remove(l.as_raw_fd());
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, ConnState::Reading))
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close(id);
        }
    }

    fn on_accept(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            let (stream, _) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            if self.conns.len() >= self.cfg.max_connections {
                self.shed_connection(stream);
                continue;
            }
            let id = self.next_id;
            self.next_id += 1;
            if self.poller.add(stream.as_raw_fd(), id, Interest::READ).is_err() {
                continue;
            }
            self.shared.metrics.connections.add(1);
            self.conns.insert(
                id,
                Conn {
                    stream: Arc::new(stream),
                    buf: Vec::new(),
                    state: ConnState::Reading,
                    since: Instant::now(),
                    peer_closed: false,
                    errored: false,
                    interest: Interest::READ,
                    resume_queued: false,
                },
            );
        }
    }

    /// Over `max_connections`: refuse the newly-accepted socket according
    /// to the shed policy. The 503 is written best-effort in one
    /// nonblocking call — a fresh socket's send buffer is empty, so the
    /// ~150-byte response either lands immediately or the client just
    /// sees a dropped connection; the reactor never stalls on a shed.
    fn shed_connection(&self, stream: TcpStream) {
        self.shared.metrics.shed.inc();
        if let ShedPolicy::Respond503 = self.cfg.shed {
            self.shared.metrics.resp_server_error.inc();
            let (status, body) =
                ServeError::Unavailable("server at connection capacity, retry later".into())
                    .to_response();
            let bytes = response_bytes(status, "application/json", body.as_bytes(), false);
            let _ = write_nonblocking(&stream, &bytes, 0);
        }
    }

    fn on_conn_event(&mut self, id: u64, ev: &Event) {
        enum Action {
            Close,
            Read,
            Write,
            Nothing,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if ev.error {
                match conn.state {
                    // Never close under a worker holding the stream;
                    // remember and act when the completion arrives.
                    ConnState::Dispatched => {
                        conn.errored = true;
                        Action::Nothing
                    }
                    // A hangup may still carry final buffered bytes; the
                    // read path observes the EOF properly.
                    ConnState::Reading => Action::Read,
                    ConnState::Writing { .. } => Action::Close,
                }
            } else {
                match conn.state {
                    ConnState::Reading if ev.readable => Action::Read,
                    ConnState::Writing { .. } if ev.writable => Action::Write,
                    _ => Action::Nothing,
                }
            }
        };
        match action {
            Action::Close => self.close(id),
            Action::Read => self.on_readable(id),
            Action::Write => self.on_writable(id),
            Action::Nothing => {}
        }
    }

    fn on_readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.resume_queued {
            return; // its buffered requests come first; the fd re-reports
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut pulled = 0usize;
        loop {
            match (&*conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.since = Instant::now();
                    pulled += n;
                    // A short read drained the socket: asking again would
                    // only fetch `EAGAIN`. Level-triggered polling
                    // re-reports later bytes, the FIN, and whatever a
                    // spent budget left behind.
                    if n < chunk.len() || pulled >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        self.advance(id);
    }

    /// Turn buffered bytes into requests and run each one's `begin`
    /// stage, until the buffer runs dry, a request goes to a worker, a
    /// response blocks, or the turn's budget is spent. Called after
    /// reads, after each completed response (so pipelined successors
    /// don't wait for new readiness), and from the resume list.
    fn advance(&mut self, id: u64) {
        for _ in 0..INLINE_BUDGET {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            debug_assert!(matches!(conn.state, ConnState::Reading));
            let req = match try_parse(&conn.buf, self.cfg.max_body_bytes) {
                Ok(ParseStatus::Complete(req, consumed)) => {
                    conn.buf.drain(..consumed);
                    req
                }
                Ok(ParseStatus::Partial { in_body, .. }) => {
                    if conn.peer_closed {
                        if conn.buf.is_empty() || in_body {
                            // Clean close between requests, or EOF mid-body
                            // (nobody is left to read an error).
                            self.close(id);
                        } else {
                            // EOF inside headers: the peer may have only
                            // half-closed; answer 400 like the blocking
                            // reader did, then close.
                            let err = ServeError::BadRequest("eof inside headers".into());
                            self.respond_error(id, err);
                        }
                    }
                    return; // else: stay Reading, wait for more bytes.
                }
                Err(ReadError::Bad(status, msg)) => {
                    self.respond_error(id, ServeError::from_status(status, msg));
                    return;
                }
                Err(ReadError::Io(_)) => {
                    self.close(id); // unreachable: try_parse does no I/O
                    return;
                }
            };
            let started = Instant::now();
            let keep_alive = req.keep_alive;
            let handler = &self.shared.handler;
            let out = match catch_unwind(AssertUnwindSafe(|| handler.begin(req))) {
                Ok(Step::Work(work)) => {
                    let stream = conn.stream.clone();
                    self.dispatch(ReadyRequest { conn_id: id, stream, keep_alive, started, work });
                    return;
                }
                Ok(Step::Respond(resp)) => Ok(resp),
                Err(panic) => Err(panic),
            };
            self.shared.metrics.inline.inc();
            let (bytes, keep_alive) = finish_request(&self.shared, out, keep_alive);
            let written = self.write_out(id, bytes, 0, keep_alive);
            observe_latency(&self.shared, started);
            if !(written && self.rearm(id, keep_alive)) {
                return;
            }
        }
        // Budget spent. Whatever is still buffered takes another turn
        // after the other sockets had theirs.
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if !conn.buf.is_empty() || conn.peer_closed {
            conn.resume_queued = true;
            self.resume.push(id);
        }
    }

    /// Hand a request's remaining work to the worker pool, or shed if
    /// the ready queue is full (the workers are the bottleneck, not the
    /// sockets).
    fn dispatch(&mut self, job: ReadyRequest) {
        let id = job.conn_id;
        let Some(ready_tx) = self.ready_tx.as_ref() else {
            self.close(id);
            return;
        };
        match ready_tx.try_send(job) {
            Ok(()) => {
                self.shared.metrics.queue_depth.add(1);
                let Some(conn) = self.conns.get_mut(&id) else { return };
                conn.state = ConnState::Dispatched;
                conn.since = Instant::now();
                Self::set_interest(&self.poller, conn, id, Interest::NONE);
            }
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.shed.inc();
                match self.cfg.shed {
                    ShedPolicy::Respond503 => {
                        let err = ServeError::Unavailable("server saturated, retry later".into());
                        self.respond_error(id, err);
                    }
                    ShedPolicy::DropConnection => self.close(id),
                }
            }
            Err(TrySendError::Disconnected(_)) => self.close(id),
        }
    }

    /// Point the poller at what the connection's new state waits for.
    fn set_interest(poller: &Poller, conn: &mut Conn, id: u64, want: Interest) {
        if conn.interest != want {
            conn.interest = want;
            let _ = poller.modify(conn.stream.as_raw_fd(), id, want);
        }
    }

    /// Write a reactor-generated error response (parse failure or shed)
    /// and close, spilling to `Writing` state if the socket blocks. These
    /// never reached a handler, so they count a status but no request.
    fn respond_error(&mut self, id: u64, err: ServeError) {
        let (status, body) = err.to_response();
        count_status(&self.shared, status);
        let bytes = response_bytes(status, "application/json", body.as_bytes(), false);
        self.start_write(id, bytes, 0, false);
    }

    /// Write `bytes[off..]` to the socket. `true`: all of it went out.
    /// `false`: the connection is now `Writing` the tail, or closed.
    fn write_out(&mut self, id: u64, bytes: Vec<u8>, off: usize, keep_alive: bool) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else { return false };
        match write_nonblocking(&conn.stream, &bytes, off) {
            Ok(done) if done == bytes.len() => true,
            Ok(off) => {
                conn.state = ConnState::Writing { bytes, off, keep_alive };
                conn.since = Instant::now();
                Self::set_interest(&self.poller, conn, id, Interest::WRITE);
                false
            }
            Err(_) => {
                self.close(id);
                false
            }
        }
    }

    /// Begin (or continue) draining `bytes[off..]` of a response that is
    /// not part of an `advance` turn, then carry on with the connection.
    fn start_write(&mut self, id: u64, bytes: Vec<u8>, off: usize, keep_alive: bool) {
        if self.write_out(id, bytes, off, keep_alive) {
            self.finish_response(id, keep_alive);
        }
    }

    fn on_writable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if !matches!(conn.state, ConnState::Writing { .. }) {
            return; // spurious writable event
        }
        let ConnState::Writing { bytes, off, keep_alive } =
            std::mem::replace(&mut conn.state, ConnState::Reading)
        else {
            unreachable!()
        };
        self.start_write(id, bytes, off, keep_alive);
    }

    /// A response has been fully written: close (`false`), or put the
    /// connection back in `Reading` for its next request (`true`).
    fn rearm(&mut self, id: u64, keep_alive: bool) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else { return false };
        if !keep_alive || self.draining || conn.errored {
            self.close(id);
            return false;
        }
        conn.state = ConnState::Reading;
        conn.since = Instant::now();
        Self::set_interest(&self.poller, conn, id, Interest::READ);
        true
    }

    /// A worker's (or a drained `Writing`) response is out: rearm and
    /// parse any pipelined bytes already buffered.
    fn finish_response(&mut self, id: u64, keep_alive: bool) {
        if self.rearm(id, keep_alive) {
            self.advance(id);
        }
    }

    fn on_completion(&mut self, c: Completion) {
        let Some(conn) = self.conns.get(&c.conn_id) else { return };
        debug_assert!(matches!(conn.state, ConnState::Dispatched));
        match c.outcome {
            WriteOutcome::Failed => self.close(c.conn_id),
            // `finish_response` handles the errored flag and pipelined
            // successors.
            WriteOutcome::Done { keep_alive } => self.finish_response(c.conn_id, keep_alive),
            WriteOutcome::Blocked { bytes, off, keep_alive } => {
                if conn.errored {
                    self.close(c.conn_id);
                } else {
                    self.start_write(c.conn_id, bytes, off, keep_alive);
                }
            }
        }
    }

    fn sweep_timeouts(&mut self, now: Instant) {
        let cfg = &self.cfg;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                let age = now.duration_since(c.since);
                match &c.state {
                    ConnState::Reading if c.buf.is_empty() => age >= cfg.idle_timeout,
                    ConnState::Reading => age >= cfg.read_timeout,
                    ConnState::Writing { .. } => age >= cfg.write_timeout,
                    // A worker is computing: its runtime is not the
                    // socket's fault; no timeout applies.
                    ConnState::Dispatched => false,
                }
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.close(id);
        }
    }

    fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.shared.metrics.connections.add(-1);
            // The fd itself closes when the last Arc clone drops — if a
            // worker still holds one, the close completes at its send.
        }
    }
}
