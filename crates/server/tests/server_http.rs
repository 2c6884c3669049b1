//! End-to-end HTTP behavior of the query server: the protocol surface
//! (routing, status codes, malformed input) and the robustness story
//! (load shedding, timeouts, graceful shutdown) — all exercised through
//! the reactor. Aggregate *correctness* against the library is covered
//! by the workspace-level `serve_consistency` test; this file is about
//! the server being a well-behaved HTTP peer.

use iolap_core::{AllocConfig, PolicySpec};
use iolap_model::paper_example;
use iolap_obs::Obs;
use iolap_query::AggFn;
use iolap_serve::http::Request;
use iolap_serve::{
    http_roundtrip, read_response, Handler, ServeConfig, Server, ServerHandle, Step,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn start(cfg: ServeConfig) -> ServerHandle {
    Server::builder(paper_example::table1(), PolicySpec::em_count(0.01))
        .alloc(AllocConfig::builder().in_memory(256).build())
        .config(cfg)
        .bind("127.0.0.1:0")
        .expect("server starts")
}

fn connect(h: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(h.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

#[test]
fn healthz_reports_ok_and_epoch_zero() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let (status, body) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = iolap_obs::json::parse(&body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(0));
    h.shutdown();
}

#[test]
fn query_and_metrics_round_trip_over_keep_alive() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    // Two queries and a metrics scrape over the same connection.
    let body = iolap_serve::wire::query_body(&[("Location", "MA")], AggFn::Sum, None);
    let (status, first) = http_roundtrip(&mut c, "POST", "/query", &body).unwrap();
    assert_eq!(status, 200, "{first}");
    let v = iolap_obs::json::parse(&first).unwrap();
    assert_eq!(v.get("cached").and_then(|b| b.as_bool()), Some(false));

    let (status, second) = http_roundtrip(&mut c, "POST", "/query", &body).unwrap();
    assert_eq!(status, 200);
    let v = iolap_obs::json::parse(&second).unwrap();
    assert_eq!(v.get("cached").and_then(|b| b.as_bool()), Some(true), "{second}");
    // The cached answer must be byte-identical apart from the flag.
    assert_eq!(first.replace("\"cached\":false", ""), second.replace("\"cached\":true", ""));

    let (status, metrics) = http_roundtrip(&mut c, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("iolap_serve_requests"), "{metrics}");
    assert!(metrics.contains("iolap_serve_cache_hit"), "{metrics}");
    assert!(metrics.contains("iolap_serve_connections"), "{metrics}");
    h.shutdown();
}

#[test]
fn unknown_paths_and_methods_get_404_and_405() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let (status, _) = http_roundtrip(&mut c, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_roundtrip(&mut c, "POST", "/epoch", "{\"commit\":1}").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_roundtrip(&mut c, "GET", "/query", "").unwrap();
    assert_eq!(status, 405);
    let (status, _) = http_roundtrip(&mut c, "POST", "/healthz", "").unwrap();
    assert_eq!(status, 405);
    h.shutdown();
}

#[test]
fn malformed_bodies_are_400_and_never_kill_the_worker() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    for bad in ["not json", "{\"agg\": \"median\"}", "{\"region\": {\"Nowhere\": \"MA\"}}"] {
        let (status, body) = http_roundtrip(&mut c, "POST", "/query", bad).unwrap();
        assert_eq!(status, 400, "{bad:?} → {body}");
        assert!(iolap_obs::json::parse(&body).unwrap().get("error").is_some());
    }
    // Classical baselines are a library comparison, not a served query.
    for sem in ["none", "contains", "overlaps"] {
        let bad = format!("{{\"region\":{{\"Location\":\"MA\"}},\"classical\":\"{sem}\"}}");
        let (status, body) = http_roundtrip(&mut c, "POST", "/query", &bad).unwrap();
        assert_eq!(status, 400, "{bad:?} → {body}");
        let v = iolap_obs::json::parse(&body).unwrap();
        let err = v.get("error").and_then(|e| e.as_str()).unwrap_or_default();
        assert!(err.contains("aggregate_classical"), "{body}");
    }
    assert_eq!(counter(&h, "serve.cache.insert"), 0, "a refused query caches nothing");
    let (status, body) = http_roundtrip(&mut c, "POST", "/query", "{}").unwrap();
    assert_eq!(status, 200, "{body}");
    // The same worker still answers afterwards.
    let (status, _) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    h.shutdown();
}

#[test]
fn protocol_violations_close_with_4xx() {
    let h = start(ServeConfig::default());
    // Not HTTP at all.
    let mut c = connect(&h);
    c.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut c).unwrap();
    assert_eq!(status, 400);
    // Chunked transfer encoding is outside the subset.
    let mut c = connect(&h);
    c.write_all(b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut c).unwrap();
    assert_eq!(status, 400);
    h.shutdown();
}

#[test]
fn oversized_bodies_are_413() {
    let h = start(ServeConfig::builder().max_body_bytes(64).build());
    let mut c = connect(&h);
    let huge = "x".repeat(1000);
    let mut s = String::from("{\"pad\": \"");
    s.push_str(&huge);
    s.push_str("\"}");
    c.write_all(
        format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}", s.len(), s).as_bytes(),
    )
    .unwrap();
    let (status, _) = read_response(&mut c).unwrap();
    assert_eq!(status, 413);
    h.shutdown();
}

/// Every handler error path must emit the documented JSON error shape:
/// `{"error": string, "code": string, "status": number}` with the
/// `status` field matching the HTTP status line.
#[test]
fn every_error_status_shares_the_documented_json_shape() {
    let h = start(ServeConfig::builder().max_body_bytes(64).max_connections(3).build());

    let assert_shape = |status: u16, body: &str| {
        let v = iolap_obs::json::parse(body).unwrap_or_else(|e| panic!("{status}: {e}: {body}"));
        assert!(v.get("error").and_then(|x| x.as_str()).is_some(), "{status}: {body}");
        assert!(v.get("code").and_then(|x| x.as_str()).is_some(), "{status}: {body}");
        assert_eq!(v.get("status").and_then(|x| x.as_u64()), Some(status as u64), "{body}");
    };

    // 404 / 405 / 400 through the normal request path.
    let mut c = connect(&h);
    let (status, body) = http_roundtrip(&mut c, "GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    assert_shape(status, &body);
    let (status, body) = http_roundtrip(&mut c, "GET", "/query", "").unwrap();
    assert_eq!(status, 405);
    assert_shape(status, &body);
    let (status, body) = http_roundtrip(&mut c, "POST", "/query", "not json").unwrap();
    assert_eq!(status, 400);
    assert_shape(status, &body);

    // 400 from the parser (reactor-side error path).
    let mut g = connect(&h);
    g.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let (status, body) = read_response(&mut g).unwrap();
    assert_eq!(status, 400);
    assert_shape(status, &body);

    // 413 from the parser before body bytes arrive.
    let mut big = connect(&h);
    big.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n").unwrap();
    let (status, body) = read_response(&mut big).unwrap();
    assert_eq!(status, 413);
    assert_shape(status, &body);

    // 431 for an absurd header line.
    let mut wide = connect(&h);
    let long = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(10_000));
    wide.write_all(long.as_bytes()).unwrap();
    let (status, body) = read_response(&mut wide).unwrap();
    assert_eq!(status, 431);
    assert_shape(status, &body);

    // 503 from the connection-capacity shed (cap is 3; the sockets
    // above may linger until the reactor observes their EOF, so hold
    // three fresh ones open to pin the count at the cap).
    drop(c);
    drop(g);
    drop(big);
    drop(wide);
    let hold: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = connect(&h);
            let (st, _) = http_roundtrip(&mut s, "GET", "/healthz", "").unwrap();
            assert_eq!(st, 200);
            s
        })
        .collect();
    let mut shed = connect(&h);
    let (status, body) = read_response(&mut shed).unwrap();
    assert_eq!(status, 503, "{body}");
    assert_shape(status, &body);
    drop(hold);
    h.shutdown();
}

/// The reactor must shed accepts beyond `max_connections` with a 503
/// written promptly (the old design's 100ms inline budget), while the
/// connections already admitted keep working.
#[test]
fn connection_cap_sheds_with_503() {
    let h = start(ServeConfig::builder().max_connections(2).build());

    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut s = connect(&h);
            let (st, _) = http_roundtrip(&mut s, "GET", "/healthz", "").unwrap();
            assert_eq!(st, 200);
            s
        })
        .collect();

    let t0 = Instant::now();
    let mut c = connect(&h);
    let (status, body) = read_response(&mut c).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("capacity"), "{body}");
    assert!(t0.elapsed() < Duration::from_secs(1), "shed 503 must be prompt");
    assert!(
        h.obs().counter("serve.shed").unwrap().get() >= 1,
        "shed counter must record the rejection"
    );

    // The admitted connections still answer.
    for c in held.iter_mut() {
        let (status, _) = http_roundtrip(c, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
    }
    h.shutdown();
}

/// Stand-in application for the saturation test: every request is worker
/// work, and `/hold` parks its worker until the test lets it go. Each
/// stage reports in, so the test knows where every request is without
/// waiting on a clock.
struct Holding {
    events: Sender<&'static str>,
    release: Arc<Mutex<Receiver<()>>>,
}

impl Handler for Holding {
    fn begin(&self, req: Request) -> Step {
        let events = self.events.clone();
        events.send("begun").unwrap();
        let release = self.release.clone();
        Step::Work(Box::new(move || {
            if req.path == "/hold" {
                events.send("held").unwrap();
                release.lock().unwrap().recv().unwrap();
            }
            (200, "text/plain", "done".into())
        }))
    }
}

/// With one worker and a ready queue of one, a request that arrives
/// while a first holds the worker and a second holds the queue slot is
/// answered 503 `saturated` at once rather than queued without bound —
/// and the two it could not displace still finish.
#[test]
fn saturated_server_sheds_with_503() {
    let (events_tx, events) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let app = Arc::new(Holding { events: events_tx, release: Arc::new(Mutex::new(release_rx)) });
    let obs = Obs::metrics_only();
    let cfg = ServeConfig::builder().workers(1).queue_depth(1).build();
    let engine = iolap_serve::engine::start("127.0.0.1:0", &cfg, &obs, app).expect("engine starts");
    // Declared after the engine so that it drops first: if an assertion
    // below fails, the held worker sees the hang-up and the engine's
    // drop can join it — a failure, not a hang.
    let release = release_tx;
    let connect = || {
        let s = TcpStream::connect(engine.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    let send = |s: &mut TcpStream, path: &str| {
        s.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
    };

    // The first request is inside the only worker …
    let mut first = connect();
    send(&mut first, "/hold");
    assert_eq!(events.recv().unwrap(), "begun");
    assert_eq!(events.recv().unwrap(), "held");
    // … and the second has been begun, so the reactor — one thread — puts
    // it in the free queue slot before it reads anything sent after this.
    let mut second = connect();
    send(&mut second, "/hold");
    assert_eq!(events.recv().unwrap(), "begun");

    let mut third = connect();
    let (status, body) = http_roundtrip(&mut third, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("saturated"), "{body}");
    assert_eq!(obs.counter("serve.shed").unwrap().get(), 1);
    assert_eq!(obs.gauge("serve.queue.depth").unwrap().get(), 1, "the second is still queued");

    // Let both go: neither was lost, and the server answers normally.
    release.send(()).unwrap();
    release.send(()).unwrap();
    assert_eq!(read_response(&mut first).unwrap(), (200, "done".into()));
    assert_eq!(read_response(&mut second).unwrap(), (200, "done".into()));
    let (status, _) = http_roundtrip(&mut connect(), "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
}

/// The regression the reactor exists for: idle keep-alive sockets must
/// not consume worker threads. With a single worker and several parked
/// connections, a newcomer is still served immediately.
#[test]
fn idle_keep_alive_connections_consume_no_worker() {
    let h = start(ServeConfig::builder().workers(1).build());

    // Park four keep-alive connections (each proven live first). Under
    // the old thread-per-connection design the first would pin the only
    // worker forever and this test would hang.
    let parked: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut s = connect(&h);
            let (st, _) = http_roundtrip(&mut s, "GET", "/healthz", "").unwrap();
            assert_eq!(st, 200);
            s
        })
        .collect();

    let t0 = Instant::now();
    let mut fresh = connect(&h);
    let (status, _) = http_roundtrip(&mut fresh, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(t0.elapsed() < Duration::from_secs(2), "a newcomer must not wait behind idle sockets");

    // The parked connections are all still live too.
    for mut s in parked {
        let (status, _) = http_roundtrip(&mut s, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200);
    }
    h.shutdown();
}

/// Two requests written back-to-back in one packet come back as two
/// ordered responses on the same connection.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let q = iolap_serve::wire::query_body(&[], AggFn::Count, None);
    let wire = format!(
        "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
         POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        q.len(),
        q
    );
    c.write_all(wire.as_bytes()).unwrap();
    // One reader across both responses: a fresh `read_response` call per
    // response would buffer (and drop) bytes of the successor.
    let mut reader = std::io::BufReader::new(&mut c);
    let first = read_one(&mut reader);
    assert_eq!(first.0, 200, "{}", first.1);
    assert!(first.1.contains("\"status\":\"ok\""), "first response is healthz: {}", first.1);
    let second = read_one(&mut reader);
    assert_eq!(second.0, 200, "{}", second.1);
    assert!(second.1.contains("\"count\":"), "second response is the query: {}", second.1);
    h.shutdown();
}

/// Parse one Content-Length-framed HTTP response from a shared reader.
fn read_one<R: std::io::BufRead>(reader: &mut R) -> (u16, String) {
    iolap_serve::read_response_from(reader).unwrap()
}

/// An idle keep-alive connection is closed once `idle_timeout` elapses.
#[test]
fn idle_timeout_closes_parked_connections() {
    let h = start(ServeConfig::builder().idle_timeout(Duration::from_millis(300)).build());
    let mut c = connect(&h);
    let (status, _) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    // No further request: the server should close within a few sweeps.
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 64];
    let n = c.read(&mut buf).expect("EOF, not a read timeout");
    assert_eq!(n, 0, "server closes the idle connection");
    h.shutdown();
}

/// Shutdown must half-close registered idle connections (the peer
/// observes EOF promptly) and join without hanging.
#[test]
fn shutdown_half_closes_idle_connections() {
    let h = start(ServeConfig::default());
    let mut idle = connect(&h);
    let (status, _) = http_roundtrip(&mut idle, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);

    let t0 = Instant::now();
    let joiner = std::thread::spawn(move || h.shutdown());
    // The parked connection sees EOF, not a hang until idle_timeout.
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 64];
    let n = idle.read(&mut buf).expect("EOF, not a timeout");
    assert_eq!(n, 0, "shutdown half-closes the idle connection");
    joiner.join().unwrap();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown must be prompt");
}

#[test]
fn shutdown_drains_and_joins() {
    let h = start(ServeConfig::default());
    let addr = h.addr();
    let mut c = connect(&h);
    let (status, _) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    drop(c);
    h.shutdown(); // must not hang
                  // The listener is gone (allow a beat for the OS to tear down).
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut s) => {
            // Accept backlog may still hand us a socket; it must be dead.
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            assert!(
                http_roundtrip(&mut s, "GET", "/healthz", "").is_err(),
                "server must not answer after shutdown"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The staged request pipeline: cache hits and cheap rejections are
// answered on the reactor thread, everything else by a worker.
// ---------------------------------------------------------------------------

fn counter(h: &ServerHandle, name: &str) -> u64 {
    h.obs().counter(name).unwrap().get()
}

fn post(path: &str, body: &str) -> String {
    format!("POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
}

/// With the only worker stuck in a long `/update`, a cached `/query` on
/// another connection is still answered at once — by the reactor.
#[test]
fn cached_queries_are_answered_while_the_only_worker_is_busy() {
    let h = start(ServeConfig::builder().workers(1).build());
    let query = iolap_serve::wire::query_body(&[("Location", "NY")], AggFn::Sum, None);
    let mut c = connect(&h);
    let (_, cold) = http_roundtrip(&mut c, "POST", "/query", &query).unwrap();
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert_eq!(counter(&h, "serve.inline"), 0, "a miss is a worker's");

    // A slow batch: the cached answer stays servable until it publishes.
    let muts: Vec<iolap_serve::wire::MutationReq> = (0..500)
        .map(|i| iolap_serve::wire::MutationReq::Insert {
            id: 50_000 + i,
            dims: vec!["MA".into(), "Civic".into()],
            measure: 1.0,
        })
        .collect();
    let update = post("/update", &iolap_serve::wire::update_body(&muts));
    let mut writer = connect(&h);
    writer.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    writer.write_all(update.as_bytes()).unwrap();
    // The worker has the update once the per-endpoint counter (bumped by
    // the reactor as it hands the work over) says so.
    while counter(&h, "serve.requests.update") == 0 {
        std::thread::yield_now();
    }

    // Before the update's 200 is counted, `responses.ok` is the cold read
    // plus the cached reads so far: a read that still finds it so ran
    // while the update held the worker.
    let (mut reads, mut during) = (0u64, 0u64);
    loop {
        let t0 = Instant::now();
        let (status, warm) = http_roundtrip(&mut c, "POST", "/query", &query).unwrap();
        let took = t0.elapsed();
        assert_eq!(status, 200, "{warm}");
        reads += 1;
        if counter(&h, "serve.responses.ok") != 1 + reads {
            break;
        }
        assert_eq!(normalize_cached(&warm), cold);
        assert!(warm.contains("\"cached\":true"), "{warm}");
        assert!(took < Duration::from_millis(100), "cached read took {took:?}");
        during += 1;
    }
    assert!(during > 0, "no cached read overlapped the update");
    assert!(counter(&h, "serve.inline") >= during);
    let (status, body) = read_response(&mut writer).unwrap();
    assert_eq!(status, 200, "{body}");
    h.shutdown();
}

/// 2000 cached queries written in one `write_all` come back as 2000
/// ordered 200s (`advance` loops, it does not recurse; the per-wake
/// budget and the resume list carry the pipeline), and a `/healthz` on a
/// second connection is answered while the pipeline is still unread.
#[test]
fn a_deep_pipeline_of_cached_queries_is_answered_in_order() {
    const N: usize = 2000;
    let h = start(ServeConfig::default());
    // Two distinguishable hot answers, alternating.
    let bodies = [
        iolap_serve::wire::query_body(&[], AggFn::Count, None),
        iolap_serve::wire::query_body(&[("Location", "MA")], AggFn::Count, None),
    ];
    let mut c = connect(&h);
    let warm: Vec<String> = bodies
        .iter()
        .map(|b| {
            http_roundtrip(&mut c, "POST", "/query", b).unwrap();
            http_roundtrip(&mut c, "POST", "/query", b).unwrap().1
        })
        .collect();
    assert_ne!(warm[0], warm[1]);
    let inline_before = counter(&h, "serve.inline");

    let wire: String = (0..N).map(|i| post("/query", &bodies[i % 2])).collect();
    let mut tx = c.try_clone().unwrap();
    // The writer runs beside the reader: nobody reads while `write_all`
    // blocks otherwise, and both directions' socket buffers could fill.
    let writer = std::thread::spawn(move || tx.write_all(wire.as_bytes()).unwrap());

    let mut probe = connect(&h);
    let (status, body) = http_roundtrip(&mut probe, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");

    let mut reader = std::io::BufReader::new(&mut c);
    for i in 0..N {
        let (status, body) = read_one(&mut reader);
        assert_eq!(status, 200, "response {i}: {body}");
        assert_eq!(body, warm[i % 2], "response {i} out of order");
    }
    writer.join().unwrap();
    assert_eq!(counter(&h, "serve.inline") - inline_before, N as u64);
    h.shutdown();
}

/// A miss (worker) followed by a hit (reactor) on one connection: the
/// hit is not even begun until the miss has been answered.
#[test]
fn a_pipelined_miss_then_hit_answers_in_request_order() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let hot = iolap_serve::wire::query_body(&[], AggFn::Sum, None);
    let cold = iolap_serve::wire::query_body(&[("Location", "TX")], AggFn::Sum, None);
    let (_, first) = http_roundtrip(&mut c, "POST", "/query", &hot).unwrap();

    c.write_all(format!("{}{}", post("/query", &cold), post("/query", &hot)).as_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(&mut c);
    let miss = read_one(&mut reader);
    let hit = read_one(&mut reader);
    assert!(miss.1.contains("\"cached\":false"), "first answer is the miss: {}", miss.1);
    assert_ne!(normalize_cached(&miss.1), first, "the miss is TX, not ALL");
    assert!(hit.1.contains("\"cached\":true"), "second answer is the hit: {}", hit.1);
    assert_eq!(normalize_cached(&hit.1), first);
    h.shutdown();
}

/// A cached query that dribbles in one byte per packet is parsed
/// incrementally and answered exactly once.
#[test]
fn byte_at_a_time_delivery_of_a_cached_query_answers_once() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    c.set_nodelay(true).unwrap();
    let body = iolap_serve::wire::query_body(&[("Automobile", "Sedan")], AggFn::Avg, None);
    let (_, cold) = http_roundtrip(&mut c, "POST", "/query", &body).unwrap();

    for b in post("/query", &body).bytes() {
        c.write_all(&[b]).unwrap();
    }
    let (status, warm) = read_response(&mut c).unwrap();
    assert_eq!(status, 200, "{warm}");
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert_eq!(normalize_cached(&warm), cold);
    assert_eq!(counter(&h, "serve.requests.query"), 2);
    assert_eq!(counter(&h, "serve.inline"), 1);
    // Nothing else arrives: the one request got one answer.
    c.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let mut buf = [0u8; 16];
    let more = c.read(&mut buf);
    assert!(more.is_err(), "expected a read timeout, got {more:?}");
    h.shutdown();
}

/// Every `/query` is counted once as a request and once as a hit or a
/// miss, whichever thread answered it, and `serve.inline` is on
/// `/metrics`.
#[test]
fn query_accounting_balances_across_reactor_and_workers() {
    let h = start(ServeConfig::builder().cache_capacity(4).cache_shards(1).build());
    let mut c = connect(&h);
    let states = ["MA", "NY", "TX", "CA", "East", "West"];
    let mut sent = 0u64;
    for round in 0..5 {
        for (i, st) in states.iter().enumerate() {
            // MA recurs and hits; the others cycle through a 4-entry cache.
            let st = if (round + i) % 3 == 0 { "MA" } else { st };
            let body = iolap_serve::wire::query_body(&[("Location", st)], AggFn::Sum, None);
            let (status, _) = http_roundtrip(&mut c, "POST", "/query", &body).unwrap();
            assert_eq!(status, 200);
            sent += 1;
        }
    }
    // Rejections are requests too, but neither hits nor misses.
    for bad in ["not json", "{\"region\":{\"Location\":\"Atlantis\"}}"] {
        assert_eq!(http_roundtrip(&mut c, "POST", "/query", bad).unwrap().0, 400);
    }
    assert_eq!(http_roundtrip(&mut c, "GET", "/nope", "").unwrap().0, 404);

    let (hit, miss) = (counter(&h, "serve.cache.hit"), counter(&h, "serve.cache.miss"));
    assert!(hit > 0 && miss > 0, "hit {hit} miss {miss}");
    assert_eq!(hit + miss, sent);
    assert_eq!(counter(&h, "serve.requests.query"), sent + 2);
    assert_eq!(counter(&h, "serve.requests"), sent + 3);
    // Hits and the three rejections finished on the reactor, misses on a
    // worker.
    assert_eq!(counter(&h, "serve.inline"), hit + 3);
    assert_eq!(counter(&h, "serve.responses.ok"), sent);
    assert_eq!(counter(&h, "serve.responses.client_error"), 3);
    // The latency histogram saw them all. A request's clock stops after
    // its bytes are handed to the socket, so the last observation may
    // trail the answer we already hold.
    let latency = h.obs().histogram("serve.latency_us").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while latency.count() < sent + 3 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(latency.count(), sent + 3);

    let (_, metrics) = http_roundtrip(&mut c, "GET", "/metrics", "").unwrap();
    let line = metrics.lines().find(|l| l.starts_with("iolap_serve_inline"));
    assert_eq!(line, Some(format!("iolap_serve_inline {}", hit + 3).as_str()), "{metrics}");
    h.shutdown();
}

/// A generated dataset's nodes are anonymous — printed as `Level[lo..hi]`
/// — and an insert naming them resolves without a CSV round trip.
#[test]
fn generated_datasets_accept_inserts_by_printed_node_name() {
    let table = iolap_datagen::scaled(iolap_datagen::DatasetKind::Automotive, 2_000, 7);
    let schema = table.schema().clone();
    let h = Server::builder(table, PolicySpec::em_count(0.01))
        .alloc(AllocConfig::builder().in_memory(256).build())
        .bind("127.0.0.1:0")
        .expect("server starts");
    let mut c = connect(&h);

    // One precise fact: a leaf per dimension, named as the system prints it.
    let dims: Vec<String> = (0..schema.k())
        .map(|d| {
            let dim = schema.dim(d);
            let name = dim.node_name(dim.leaf_node(dim.num_leaves() / 2));
            assert!(dim.node_by_name(&name).is_none(), "{name} should be anonymous");
            name
        })
        .collect();
    let at: Vec<(&str, &str)> =
        (0..schema.k()).map(|d| (schema.dim(d).name(), dims[d].as_str())).collect();
    let query = iolap_serve::wire::query_body(&at, AggFn::Count, None);
    let count = |body: &str| {
        iolap_obs::json::parse(body).unwrap().get("count").and_then(|c| c.as_f64()).unwrap()
    };
    let (status, before) = http_roundtrip(&mut c, "POST", "/query", &query).unwrap();
    assert_eq!(status, 200, "{before}");

    let insert = |id, dims| {
        let m = iolap_serve::wire::MutationReq::Insert { id, dims, measure: 3.5 };
        iolap_serve::wire::update_body(&[m])
    };
    let body = insert(9_000_000, dims.clone());
    let (status, resp) = http_roundtrip(&mut c, "POST", "/update", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let (_, after) = http_roundtrip(&mut c, "POST", "/query", &query).unwrap();
    assert_eq!(count(&after), count(&before) + 1.0, "{before} → {after}");

    // A name the system never printed is still a 400.
    let mut wrong = dims;
    wrong[0] = "Nope[0..1]".into();
    let bad = insert(9_000_001, wrong);
    let (status, resp) = http_roundtrip(&mut c, "POST", "/update", &bad).unwrap();
    assert_eq!(status, 400, "{resp}");
    h.shutdown();
}

/// A rejected batch leaves no trace: its insert and delete, which passed
/// before the bad update, are not committed, so each succeeds afterwards.
#[test]
fn a_rejected_batch_commits_none_of_its_mutations() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let insert = r#"{"op":"insert","id":9001,"dims":["MA","Civic"],"measure":5.0}"#;
    let bad = format!(
        r#"{{"mutations":[{insert},{{"op":"delete","fact_id":2}},{{"op":"update","fact_id":999999,"measure":1.0}}]}}"#
    );
    let (status, resp) = http_roundtrip(&mut c, "POST", "/update", &bad).unwrap();
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("mutation 2"), "the update is what fails: {resp}");

    let (status, resp) =
        http_roundtrip(&mut c, "POST", "/update", &format!(r#"{{"mutations":[{insert}]}}"#))
            .unwrap();
    assert_eq!(status, 200, "fact 9001 was not inserted by the rejected batch: {resp}");
    let update = r#"{"mutations":[{"op":"update","fact_id":2,"measure":7.0}]}"#;
    let (status, resp) = http_roundtrip(&mut c, "POST", "/update", update).unwrap();
    assert_eq!(status, 200, "fact 2 was not deleted by the rejected batch: {resp}");
    h.shutdown();
}

// ---------------------------------------------------------------------------
// Streaming ingest: WAL durability, group commit, restart recovery.
// ---------------------------------------------------------------------------

fn normalize_cached(body: &str) -> String {
    body.replace("\"cached\":true", "\"cached\":false")
}

#[test]
fn healthz_reports_wal_backlog() {
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let (status, body) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "{body}");
    let v = iolap_obs::json::parse(&body).unwrap();
    assert_eq!(v.get("wal_backlog").and_then(|b| b.as_u64()), Some(0), "{body}");
    h.shutdown();
}

#[test]
fn synchronous_wal_updates_survive_restart() {
    let dir = iolap_storage::TempDir::new("serve-wal-sync").unwrap();
    let wal = dir.path().join("ingest.wal");
    let cfg = || ServeConfig::builder().wal_path(&wal).workers(2).build();
    let query = "{\"region\":{\"Location\":\"MA\"}}";

    let h = start(cfg());
    let mut c = connect(&h);
    let upd = "{\"mutations\":[{\"op\":\"update\",\"fact_id\":2,\"measure\":500.0},\
               {\"op\":\"delete\",\"fact_id\":2},\
               {\"op\":\"insert\",\"id\":9001,\"dims\":[\"MA\",\"Civic\"],\"measure\":42.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = iolap_obs::json::parse(&body).unwrap();
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(1), "synchronous fold: {body}");
    let (_, before) = http_roundtrip(&mut c, "POST", "/query", query).unwrap();
    drop(c);
    h.shutdown();

    // A fresh process starts from the *original* table plus the WAL; the
    // replay must restore both the bits and the epoch.
    let h = start(cfg());
    let mut c = connect(&h);
    let (_, hb) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    let v = iolap_obs::json::parse(&hb).unwrap();
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(1), "epoch survives restart: {hb}");
    let (_, after) = http_roundtrip(&mut c, "POST", "/query", query).unwrap();
    assert_eq!(normalize_cached(&after), normalize_cached(&before), "recovered bits differ");
    // Id validation sees the replayed batch's delete and insert.
    let upd = "{\"mutations\":[{\"op\":\"update\",\"fact_id\":2,\"measure\":1.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("no fact 2"), "{body}");
    let upd = "{\"mutations\":[{\"op\":\"insert\",\"id\":9001,\"dims\":[\"MA\",\"Civic\"],\
               \"measure\":1.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("already exists"), "{body}");
    let upd = "{\"mutations\":[{\"op\":\"delete\",\"fact_id\":9001}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 200, "{body}");
    h.shutdown();
}

#[test]
fn deferred_acks_are_durable_then_fold_on_the_frame_trigger() {
    let dir = iolap_storage::TempDir::new("serve-wal-defer").unwrap();
    let wal = dir.path().join("ingest.wal");
    // A long window with a 2-frame trigger: the first update stays
    // staged, the second forces the fold.
    let h = start(
        ServeConfig::builder()
            .wal_path(&wal)
            .group_window(Duration::from_secs(30))
            .group_frames(2)
            .build(),
    );
    let mut c = connect(&h);
    let upd1 = "{\"mutations\":[{\"op\":\"update\",\"fact_id\":2,\"measure\":500.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd1).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = iolap_obs::json::parse(&body).unwrap();
    assert_eq!(v.get("durable").and_then(|d| d.as_bool()), Some(true), "{body}");
    assert_eq!(v.get("staged").and_then(|s| s.as_u64()), Some(1), "{body}");
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(0), "fold deferred: {body}");
    let (_, hb) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    let v = iolap_obs::json::parse(&hb).unwrap();
    assert_eq!(v.get("wal_backlog").and_then(|b| b.as_u64()), Some(1), "{hb}");

    let upd2 = "{\"mutations\":[{\"op\":\"update\",\"fact_id\":3,\"measure\":7.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd2).unwrap();
    assert_eq!(status, 200, "{body}");
    // The frame trigger folds both staged batches right after the ack;
    // poll healthz briefly for the published epochs.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, hb) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
        let v = iolap_obs::json::parse(&hb).unwrap();
        let epoch = v.get("epoch").and_then(|e| e.as_u64()).unwrap_or(0);
        let backlog = v.get("wal_backlog").and_then(|b| b.as_u64()).unwrap_or(99);
        if epoch == 2 && backlog == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "fold never happened: {hb}");
        std::thread::sleep(Duration::from_millis(20));
    }
    h.shutdown();
}

#[test]
fn shutdown_flushes_the_deferred_backlog() {
    let dir = iolap_storage::TempDir::new("serve-wal-flush").unwrap();
    let wal = dir.path().join("ingest.wal");
    let cfg = |window: Duration| {
        ServeConfig::builder().wal_path(&wal).group_window(window).group_frames(1000).build()
    };

    let h = start(cfg(Duration::from_secs(30)));
    let mut c = connect(&h);
    let upd = "{\"mutations\":[{\"op\":\"update\",\"fact_id\":2,\"measure\":500.0}]}";
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = iolap_obs::json::parse(&body).unwrap();
    assert_eq!(v.get("durable").and_then(|d| d.as_bool()), Some(true), "{body}");
    drop(c);
    // Graceful shutdown folds the staged batch into a delta segment
    // before the coordinator exits (the stdin-EOF path in the CLI).
    h.shutdown();

    // Synchronous restart: the WAL replays one committed batch whether
    // or not the flush ran; the flush is observable as epoch 1 *before*
    // any new traffic plus the updated bits.
    let h = start(cfg(Duration::ZERO));
    let mut c = connect(&h);
    let (_, hb) = http_roundtrip(&mut c, "GET", "/healthz", "").unwrap();
    let v = iolap_obs::json::parse(&hb).unwrap();
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(1), "{hb}");
    let query = "{\"region\":{\"Location\":\"MA\"}}";
    let (_, recovered) = http_roundtrip(&mut c, "POST", "/query", query).unwrap();
    h.shutdown();

    // Reference: the same update folded synchronously on a WAL-less
    // server must produce byte-identical bits at the same epoch.
    let h = start(ServeConfig::default());
    let mut c = connect(&h);
    let (status, body) = http_roundtrip(&mut c, "POST", "/update", upd).unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, reference) = http_roundtrip(&mut c, "POST", "/query", query).unwrap();
    assert_eq!(
        normalize_cached(&recovered),
        normalize_cached(&reference),
        "replayed bits must match the synchronous fold"
    );
    h.shutdown();
}
