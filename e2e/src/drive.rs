//! The load loops and the answer check.
//!
//! Reads are a closed loop: one client thread, one keep-alive
//! connection, the next request only after the previous answer — OLAP
//! callers wait for their result. Responses picked for checking are
//! copied aside and compared after the burst, so checking never sits
//! between two timed requests.

use crate::client::Conn;
use crate::gen::{Batch, ReadKind, ReadOp};
use crate::stats::Window;
use crate::Res;
use iolap_serve::{wire, EdbSnapshot};
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Per burst, the warm-up responses and the measured responses kept for
/// the byte-for-byte check, at most this many of each.
const SAMPLE_CAP: usize = 64;
/// One measured response in this many is kept for checking.
const SAMPLE_EVERY: u64 = 64;

/// A response kept for checking.
pub struct Sample {
    /// Index of the op in the stream.
    pub op: usize,
    /// The response body.
    pub body: Vec<u8>,
}

/// What one read burst saw.
#[derive(Default)]
pub struct ReadBurst {
    /// The measured window: latencies, and the steal the host suffered
    /// while it was open.
    pub window: Window,
    /// Per measured request: nanoseconds of the round trip not spent
    /// blocked in `read` (the client's own cost).
    pub own_ns: Vec<u64>,
    /// The first measured requests, `(op index, nanoseconds)`, in order:
    /// the traced run replays exactly these in-process and pairs them.
    pub first: Vec<(usize, u64)>,
    /// Index of the op the next burst of the same stream begins at.
    pub next_op: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Responses kept for checking; the first `warm_samples` of them
    /// were answered during warm-up.
    pub samples: Vec<Sample>,
    pub warm_samples: usize,
    /// First failure, for the error message.
    pub first_error: Option<String>,
}

/// Drive `ops` (cycling, beginning at `first_op`) from now: warm-up until
/// `measured_start`, then one measured window of length `window`. A
/// request belongs to the window when it completes inside it. Up to
/// `first_cap` measured requests are remembered one by one.
pub fn read_burst(
    addr: SocketAddr,
    ops: &[ReadOp],
    first_op: usize,
    measured_start: Instant,
    window: Duration,
    first_cap: usize,
) -> ReadBurst {
    let mut out = ReadBurst { next_op: first_op, ..Default::default() };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.first_error = Some(format!("connect: {e}"));
            return out;
        }
    };
    let measured_end = measured_start + window;
    let (mut warm_samples, mut measured, mut measured_samples) = (0usize, 0u64, 0usize);
    // The host's jiffies when the window opened.
    let mut opened_at: Option<Option<(u64, u64)>> = None;
    let mut i = first_op;
    loop {
        let t0 = Instant::now();
        if t0 >= measured_end {
            break;
        }
        if t0 >= measured_start {
            opened_at.get_or_insert_with(crate::host::cpu_jiffies);
        }
        let idx = i % ops.len();
        i += 1;
        out.attempted += 1;
        let reply = match conn.roundtrip(&ops[idx].request) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert_with(|| format!("read {idx}: {e}"));
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
                continue;
            }
        };
        let t1 = Instant::now();
        if reply.status != 200 {
            out.failed += 1;
            let body = String::from_utf8_lossy(&conn.bytes()[reply.body.clone()]).into_owned();
            out.first_error.get_or_insert_with(|| format!("read {idx}: {} {body}", reply.status));
            continue;
        }
        let keep = if t0 < measured_start {
            warm_samples += 1;
            warm_samples <= SAMPLE_CAP
        } else {
            if t1 >= measured_end {
                break;
            }
            let ns = (t1 - t0).as_nanos() as u64;
            out.window.lat_ns.push(ns);
            out.own_ns.push(ns.saturating_sub(reply.wait_ns));
            if out.first.len() < first_cap {
                out.first.push((idx, ns));
            }
            measured += 1;
            let keep = measured % SAMPLE_EVERY == 0 && measured_samples < SAMPLE_CAP;
            measured_samples += usize::from(keep);
            keep
        };
        if keep {
            out.warm_samples += usize::from(t0 < measured_start);
            out.samples.push(Sample { op: idx, body: conn.bytes()[reply.body].to_vec() });
        }
    }
    out.next_op = i;
    if let Some(then) = opened_at {
        out.window.steal_pct = crate::host::steal_pct(then, crate::host::cpu_jiffies());
    }
    out
}

/// The library answer a response must equal, formatted by the wire
/// layer's own serializer.
pub fn expected_body(snapshot: &EdbSnapshot, kind: &ReadKind) -> Res<String> {
    match kind {
        ReadKind::Query { region, agg } => {
            let r = snapshot.aggregate(region, *agg).map_err(|e| format!("aggregate: {e}"))?;
            Ok(wire::query_response(&r, *agg, false, snapshot.epoch))
        }
        ReadKind::Rollup { dim, level, region, agg } => {
            let (rows, _) = snapshot
                .rollup(*dim, *level, Some(region), *agg)
                .map_err(|e| format!("rollup: {e}"))?;
            Ok(wire::rollup_response(&rows, *agg, snapshot.epoch))
        }
    }
}

/// Compare kept responses with the reference, byte for byte after
/// normalizing the per-process `cached` flag. Returns (checked,
/// mismatches) and records the first mismatch in `first_error`.
pub fn check_samples(
    snapshot: &EdbSnapshot,
    ops: &[ReadOp],
    samples: &[Sample],
    first_error: &mut Option<String>,
) -> Res<(u64, u64)> {
    let mut expected: HashMap<usize, String> = HashMap::new();
    let mut wrong = 0u64;
    for s in samples {
        let want = match expected.entry(s.op) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(expected_body(snapshot, &ops[s.op].kind)?),
        };
        let got = String::from_utf8_lossy(&s.body).replace("\"cached\":true", "\"cached\":false");
        if got != *want {
            wrong += 1;
            first_error.get_or_insert_with(|| {
                format!("op {} answered {got}, reference says {want}", s.op)
            });
        }
    }
    Ok((samples.len() as u64, wrong))
}

/// What a write phase saw.
#[derive(Default)]
pub struct WritePhase {
    /// Request → acknowledgement, nanoseconds, in send order.
    pub lat_ns: Vec<u64>,
    /// Indexes of the batches that were acknowledged.
    pub acked: Vec<usize>,
    /// Per acknowledged batch, nanoseconds from its send until the
    /// server had folded it (closed loop only).
    pub folded_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Wait until the server has folded its acknowledged backlog
/// (`/healthz` reports `wal_backlog` 0). Write throughput counts the
/// folds: an acknowledgement only promises durability, and the fold is
/// where an update's cost is paid.
fn drain(conn: &mut Conn, deadline: Instant) -> Res<()> {
    let request = crate::client::http_request("GET", "/healthz", "");
    loop {
        let r = conn.roundtrip(&request).map_err(|e| format!("healthz: {e}"))?;
        let body = String::from_utf8_lossy(&conn.bytes()[r.body.clone()]).into_owned();
        let backlog = iolap_obs::json::parse(&body)
            .ok()
            .and_then(|v| v.get("wal_backlog").and_then(|b| b.as_u64()))
            .ok_or_else(|| format!("healthz answered {} {body}", r.status))?;
        if backlog == 0 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("backlog of {backlog} frames did not drain"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Post `batches` in order on one connection. With `rate` (batches/s)
/// the schedule is open-loop from `t_start` and a batch's latency counts
/// from when it was due. Without, the loop is closed around the fold:
/// it begins once the server has folded whatever ran before, and each
/// batch follows the fold of the previous one. Stops at `deadline`;
/// batches not acknowledged by then count as failed.
pub fn write_phase(
    addr: SocketAddr,
    batches: &[Batch],
    rate: Option<f64>,
    t_start: Instant,
    deadline: Instant,
) -> WritePhase {
    let mut out = WritePhase::default();
    let (mut conn, mut health) =
        match Conn::connect(addr).and_then(|c| Ok((c, Conn::connect(addr)?))) {
            Ok(c) => c,
            Err(e) => {
                out.attempted = batches.len() as u64;
                out.failed = out.attempted;
                out.first_error = Some(format!("connect: {e}"));
                return out;
            }
        };
    if rate.is_none() {
        if let Err(e) = drain(&mut health, deadline) {
            out.first_error.get_or_insert(e);
        }
    }
    for (i, b) in batches.iter().enumerate() {
        let due = match rate {
            Some(r) => {
                let due = t_start + Duration::from_secs_f64(i as f64 / r);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due
            }
            None => Instant::now(),
        };
        if Instant::now() >= deadline {
            let left = (batches.len() - i) as u64;
            out.attempted += left;
            out.failed += left;
            out.first_error.get_or_insert_with(|| format!("{left} batches missed the deadline"));
            break;
        }
        out.attempted += 1;
        match conn.roundtrip(&b.request) {
            Ok(r) if r.status == 200 => {
                out.lat_ns.push(due.elapsed().as_nanos() as u64);
                out.acked.push(i);
                if rate.is_none() {
                    if let Err(e) = drain(&mut health, deadline) {
                        out.failed += 1;
                        out.first_error.get_or_insert(e);
                    }
                    out.folded_ns.push(due.elapsed().as_nanos() as u64);
                }
            }
            Ok(r) => {
                out.failed += 1;
                let body = String::from_utf8_lossy(&conn.bytes()[r.body.clone()]).into_owned();
                out.first_error.get_or_insert_with(|| format!("batch {i}: {} {body}", r.status));
            }
            Err(e) => {
                out.failed += 1;
                out.first_error.get_or_insert_with(|| format!("batch {i}: {e}"));
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
            }
        }
    }
    out
}

/// One request on a fresh connection; `Ok(body)` only on a 200.
pub fn get(addr: SocketAddr, request: &[u8]) -> Res<String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let r = conn.roundtrip(request).map_err(|e| format!("roundtrip: {e}"))?;
    let body = String::from_utf8_lossy(&conn.bytes()[r.body.clone()]).into_owned();
    if r.status == 200 {
        Ok(body)
    } else {
        Err(format!("{} {body}", r.status))
    }
}
