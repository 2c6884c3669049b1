//! One pass of one workload: set up (several times), then a fixed
//! number of rounds — read, post update batches, stop, allocate, restart
//! on the write-ahead log, check what came back — so that every metric's
//! samples are spread over the whole pass.

use crate::client::{http_request, Conn, Echo};
use crate::drive;
use crate::fixture::{Fixture, Reference, SetupTimings};
use crate::gen::{self, ReadOp, Rng};
use crate::host;
use crate::metrics::Values;
use crate::stats::{faster_half_mean, median, percentile, Windows};
use crate::trace::{apply_batches, Tracer, WriteReplay};
use crate::workloads::{Spec, Stream, DATA_SEED, TAIL_BATCHES};
use crate::Res;
use iolap_core::{allocate, Algorithm, AllocConfig, RunReport};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds per pass. This host runs identical work at speeds that differ
/// by a tenth to a third and change every few seconds, so a metric
/// whose samples sit in one two-second stretch of the pass reports that
/// stretch's speed. In rounds, every metric samples every stretch.
const ROUNDS: usize = 6;
/// Requests answered (and checked) at the end of each set-up, and again
/// after each restart.
const WARM_OPS: usize = 64;

/// How one pass is run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// How long the pass reads for, over all rounds.
    pub seconds: f64,
    /// Record per-layer metrics (the traced run) instead of end-to-end.
    pub trace: bool,
    /// Tiny datasets and phases: checks wiring, measures nothing.
    pub smoke: bool,
    /// Scratch directory inside the checkout.
    pub tmp_root: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: PathBuf,
}

/// What one pass produced.
pub struct Outcome {
    pub workload: &'static str,
    pub end_to_end: Values,
    /// Filled by the traced run only.
    pub per_layer: Option<Values>,
    pub attempted: u64,
    pub failed: u64,
    /// The two calibration spins around the pass differ by over a tenth.
    pub disturbed: bool,
    /// Sample counts behind the medians, `(what, n)`.
    pub samples: Vec<(&'static str, u64)>,
    /// First failure of each kind, for the operator.
    pub errors: Vec<String>,
    pub wall_s: f64,
}

struct Sizes {
    facts: u64,
    setup_reps: usize,
    rounds: usize,
    /// Discarded head of each read burst.
    warm: Duration,
    /// Update batches of the fixed tail, over all rounds.
    tail: usize,
    dice_ops: usize,
    replay_ops: usize,
}

fn sizes(spec: &Spec, smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            facts: spec.facts.min(20_000),
            setup_reps: 1,
            rounds: 2,
            warm: Duration::from_millis(50),
            tail: 8,
            dice_ops: 2_048,
            replay_ops: 100,
        }
    } else {
        Sizes {
            facts: spec.facts,
            setup_reps: 3,
            rounds: ROUNDS,
            warm: Duration::from_millis(100),
            tail: TAIL_BATCHES,
            dice_ops: 32_768,
            replay_ops: 2_000,
        }
    }
}

fn read_ops(spec: &Spec, fx: &Fixture, seed: u64, sz: &Sizes) -> Vec<ReadOp> {
    let schema = &fx.data.schema;
    let mut rng = Rng::new(seed, 1);
    match spec.stream {
        Stream::HotPoints => gen::hot_points(schema),
        Stream::ColdDice => gen::cold_dice(schema, &mut rng, sz.dice_ops),
        Stream::CoarseRollups => gen::coarse_rollups(schema, &mut rng, 1_024),
    }
}

/// Server-side counters the per-layer ratios are made of. A restart
/// begins them again at zero, so they are read around each round and the
/// differences summed.
const COUNTERS: [&str; 12] = [
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.evicted",
    "serve.cache.invalidated",
    "edb.pages_read",
    "edb.pages_pruned",
    "edb.bytes_read",
    "edb.cuboid_hits",
    "edb.cuboid_misses",
    "edb.compactions",
    "ingest.wal_bytes",
    "ingest.folds",
];

#[derive(Debug, Clone, Copy, Default)]
struct Counters([u64; COUNTERS.len()]);

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        Counters(COUNTERS.map(|name| fx.counter(name)))
    }

    /// Add what was counted between `before` and `after`.
    fn add_between(&mut self, before: &Counters, after: &Counters) {
        for (sum, (b, a)) in self.0.iter_mut().zip(before.0.iter().zip(&after.0)) {
            *sum += a.saturating_sub(*b);
        }
    }

    fn get(&self, name: &str) -> u64 {
        COUNTERS.iter().position(|n| *n == name).map_or(0, |i| self.0[i])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Send the head of the stream (the whole hot set, which fills the result
/// cache) and compare every answer with the reference. Returns (requests
/// sent, requests that failed or answered wrongly).
fn check_head(
    fx: &Fixture,
    oracle: Option<&Reference>,
    ops: &[ReadOp],
    errors: &mut Vec<String>,
) -> Res<(u64, u64)> {
    let n = ops.len().min(WARM_OPS);
    let (samples, failed) = fetch(fx, ops, n, errors);
    let mut first = None;
    let snapshot = &oracle.unwrap_or(&fx.reference).snapshot;
    let (_, wrong) = drive::check_samples(snapshot, ops, &samples, &mut first)?;
    errors.extend(first);
    Ok((n as u64, failed + wrong))
}

/// Fetch the first `n` ops on one connection; non-200s and I/O errors
/// are counted, not returned.
fn fetch(
    fx: &Fixture,
    ops: &[ReadOp],
    n: usize,
    errors: &mut Vec<String>,
) -> (Vec<drive::Sample>, u64) {
    let mut samples = Vec::with_capacity(n);
    let mut failed = 0u64;
    let mut conn = match Conn::connect(fx.server().addr()) {
        Ok(c) => c,
        Err(e) => {
            errors.push(format!("connect: {e}"));
            return (samples, n as u64);
        }
    };
    for (i, op) in ops.iter().enumerate().take(n) {
        match conn.roundtrip(&op.request) {
            Ok(r) if r.status == 200 => {
                samples.push(drive::Sample { op: i, body: conn.bytes()[r.body].to_vec() })
            }
            Ok(r) => {
                failed += 1;
                errors.push(format!("op {i}: status {}", r.status));
            }
            Err(e) => {
                errors.push(format!("op {i}: {e}"));
                return (samples, (n - i) as u64);
            }
        }
    }
    (samples, failed)
}

fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// One timed set-up.
struct SetUp {
    fx: Fixture,
    seconds: f64,
    /// Requests of the checked head, and how many failed or were wrong.
    attempted: u64,
    failed: u64,
}

/// Set up in `dir` — build the fixture, answer and check the head of the
/// stream — generating `ops` first if there are none yet.
fn set_up(
    spec: &Spec,
    sz: &Sizes,
    seed: u64,
    dir: &Path,
    ops: &mut Vec<ReadOp>,
    errors: &mut Vec<String>,
) -> Res<SetUp> {
    let t0 = Instant::now();
    let fx = Fixture::build(spec, sz.facts, dir)?;
    // Building request bytes is the harness's work, not the system's:
    // keep it out of the set-up time.
    let g0 = Instant::now();
    if ops.is_empty() {
        *ops = read_ops(spec, &fx, seed, sz);
    }
    let generating = g0.elapsed();
    let (attempted, failed) = check_head(&fx, None, ops, errors)?;
    Ok(SetUp { fx, seconds: (t0.elapsed() - generating).as_secs_f64(), attempted, failed })
}

/// Run `spec` once.
pub fn run_workload(spec: &Spec, opts: &Opts) -> Res<Outcome> {
    let wall = Instant::now();
    let sz = sizes(spec, opts.smoke);
    let dir = opts.tmp_root.join(spec.name);
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    host::reset_peak_rss();
    let jiffies0 = host::cpu_jiffies();
    let calib0 = host::calib_ms();

    // ---- set-up: once now, and again between the rounds ----------------
    let mut setup_s = Vec::new();
    let mut timings: Vec<SetupTimings> = Vec::new();
    let mut reports: Vec<RunReport> = Vec::new();
    let mut ops: Vec<ReadOp> = Vec::new();
    let first = set_up(spec, &sz, opts.seed, &dir.join("fx0"), &mut ops, &mut errors)?;
    attempted += first.attempted;
    failed += first.failed;
    setup_s.push(first.seconds);
    timings.push(first.fx.timings.clone());
    reports.push(first.fx.reference.report.clone());
    let mut fx = first.fx;

    let at_rest = fx.reference.bytes_at_rest()?;

    // ---- what each round does -------------------------------------------
    // `--seconds` is the reading time of the pass (the traced run needs
    // the reads for its counters and one p50, not for steady metrics:
    // half is enough); `alloc_build` gives a share of it to repeating the
    // out-of-core allocation. Everything else in a round is fixed work.
    let rounds = sz.rounds;
    let alloc_budget = opts.seconds * spec.alloc_share / rounds as f64;
    let read_seconds = opts.seconds * (1.0 - spec.alloc_share) * if opts.trace { 0.5 } else { 1.0 };
    let burst = Duration::from_secs_f64(read_seconds / rounds as f64);
    let warm = sz.warm.min(burst / 2);
    let window = burst - warm;
    let mixed_per_round = if spec.mixed_write_rate > 0.0 {
        ((spec.mixed_write_rate * window.as_secs_f64()).round() as usize).max(1)
    } else {
        0
    };
    let tail_per_round = sz.tail / rounds;
    let mixed_batches = gen::update_batches(
        &fx.data.table,
        &mut Rng::new(opts.seed, 3),
        mixed_per_round * rounds,
        0,
    );
    let tail_batches = gen::update_batches(
        &fx.data.table,
        &mut Rng::new(DATA_SEED, 4),
        tail_per_round * rounds,
        1,
    );

    let tracer = opts.trace.then(Tracer::default);
    let trace_wal = dir.join("trace.wal");
    let mut windows = Windows { wins: Vec::new(), window_s: window.as_secs_f64() };
    let mut own_ns: Vec<u64> = Vec::new();
    let mut fold_s: Vec<f64> = Vec::new();
    let (mut tail_lat_ns, mut mixed_lat_ns): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let mut recover_s = Vec::new();
    // Per restart: seconds in `bind` above a fresh one, per batch replayed.
    let mut replay_us_per_batch = Vec::new();
    // Counted during the reads, and during the reads and writes.
    let (mut read_counts, mut round_counts) = (Counters::default(), Counters::default());
    let (mut read_ok, mut checked) = (0u64, 0u64);
    // Every batch the server acknowledged, in order: what its log holds.
    let mut logged: Vec<&gen::Batch> = Vec::new();
    // What the running server must answer like: the set-up's reference
    // until the first restart, then the one rebuilt at each restart.
    let mut oracle: Option<Reference> = None;
    let mut written = WriteReplay::default();
    let mut segments_published = 0;
    // Set-up answered the head of the stream; a cold stream resumes
    // behind it so that those answers are not cache hits now.
    let mut next_op = if spec.stream == Stream::HotPoints { 0 } else { WARM_OPS };
    // Round 0 of the traced run, while everything is as set-up left it.
    let mut first_reads: Vec<(usize, u64)> = Vec::new();
    let mut read_replay = None;
    let mut decode = (0.0, 0.0);
    let mut echo_p50_us = 0.0;

    for round in 0..rounds {
        let addr = fx.server().addr();
        let mixed_now = &mixed_batches[round * mixed_per_round..(round + 1) * mixed_per_round];
        let tail_now = &tail_batches[round * tail_per_round..(round + 1) * tail_per_round];

        // ---- reads, writes beside them if mixed ---------------------------
        let first_cap = if round == 0 && opts.trace { sz.replay_ops } else { 0 };
        let c0 = Counters::read(&fx);
        let measured_start = Instant::now() + warm;
        let (reads, mixed) = std::thread::scope(|s| {
            let writer = (!mixed_now.is_empty()).then(|| {
                let deadline = measured_start + 3 * window + Duration::from_secs(5);
                s.spawn(move || {
                    drive::write_phase(
                        addr,
                        mixed_now,
                        Some(spec.mixed_write_rate),
                        measured_start,
                        deadline,
                    )
                })
            });
            let reads = drive::read_burst(addr, &ops, next_op, measured_start, window, first_cap);
            (reads, writer.map(|w| w.join().expect("writer thread")))
        });
        let c1 = Counters::read(&fx);
        read_counts.add_between(&c0, &c1);
        next_op = reads.next_op;
        attempted += reads.attempted;
        failed += reads.failed;
        read_ok += reads.attempted - reads.failed;
        errors.extend(reads.first_error.clone());
        // Answers move under the writer, so only warm-up responses (which
        // precede it) can be held against the reference there.
        let checkable =
            if mixed.is_some() { &reads.samples[..reads.warm_samples] } else { &reads.samples[..] };
        let mut wrong_first = None;
        let snapshot = &oracle.as_ref().unwrap_or(&fx.reference).snapshot;
        let (n, wrong) = drive::check_samples(snapshot, &ops, checkable, &mut wrong_first)?;
        checked += n;
        failed += wrong;
        errors.extend(wrong_first);
        windows.wins.push(reads.window);
        own_ns.extend(reads.own_ns);
        if let Some(m) = &mixed {
            attempted += m.attempted;
            failed += m.failed;
            errors.extend(m.first_error.clone());
            mixed_lat_ns.extend(&m.lat_ns);
        }
        if let (0, Some(t)) = (round, &tracer) {
            first_reads = reads.first;
            echo_p50_us = Echo::start()
                .and_then(|e| e.calibrate(&ops[0].request, 2_000))
                .map_err(|e| format!("echo calibration: {e}"))?;
            let which: Vec<usize> = first_reads.iter().map(|f| f.0).collect();
            read_replay = Some(t.replay_reads(
                &fx.reference.snapshot,
                &ops,
                &which,
                Duration::from_secs(1),
                spec.stream == Stream::HotPoints,
                spec.stream == Stream::ColdDice,
            )?);
            decode = decode_probe(&fx)?;
        }

        // ---- this round's share of the fixed tail, one closed-loop writer --
        // Each batch is timed from its send until the server has folded it.
        let now = Instant::now();
        let tail = drive::write_phase(addr, tail_now, None, now, now + Duration::from_secs(60));
        attempted += tail.attempted;
        failed += tail.failed;
        errors.extend(tail.first_error.clone());
        fold_s.extend(tail.folded_ns.iter().map(|&ns| ns as f64 / 1e9));
        tail_lat_ns.extend(&tail.lat_ns);
        round_counts.add_between(&c0, &Counters::read(&fx));
        segments_published = fx.gauge("edb.segments");

        // ---- the traced run replays the write path, step by step ---------
        let acked_now = mixed
            .iter()
            .flat_map(|m| m.acked.iter().map(|&i| &mixed_now[i]))
            .chain(tail.acked.iter().map(|&i| &tail_now[i]));
        let logged_before = logged.len();
        logged.extend(acked_now);
        if let Some(t) = &tracer {
            written += apply_batches(&mut fx.reference, &logged[logged_before..], t, &trace_wal)?;
        }

        // ---- stop; allocate with nothing beside it ------------------------
        fx.stop();
        drop(oracle.take());
        // The other set-ups, timed like the first and thrown away: spread
        // over the pass like everything else, after every third round.
        let extra = sz.setup_reps - 1;
        if extra > 0 && ((round + 1) * extra).is_multiple_of(rounds) {
            let at = dir.join(format!("fx{}", setup_s.len()));
            let other = set_up(spec, &sz, opts.seed, &at, &mut ops, &mut errors)?;
            attempted += other.attempted;
            failed += other.failed;
            setup_s.push(other.seconds);
            timings.push(other.fx.timings.clone());
            reports.push(other.fx.reference.report.clone());
        }
        let t0 = Instant::now();
        let run = loop {
            let config = AllocConfig::default();
            let run = allocate(&fx.data.table, &fx.policy, Algorithm::Transitive, &config)
                .map_err(|e| format!("allocate: {e}"))?;
            reports.push(run.report.clone());
            if t0.elapsed().as_secs_f64() >= alloc_budget {
                break run;
            }
        };
        // That allocation, with the logged batches replayed on it the way
        // a restart replays them, is what the restarted server must
        // answer like.
        let table = &fx.data.table;
        oracle =
            Some(Reference::from_run(run, table, &fx.policy, &logged, &mut Default::default())?);

        // ---- restart on the log ---------------------------------------------
        let t0 = Instant::now();
        let rebind_s = fx.bind()?;
        attempted += 1;
        if let Err(e) = drive::get(fx.server().addr(), &http_request("GET", "/healthz", "")) {
            failed += 1;
            errors.push(format!("healthz after restart: {e}"));
        }
        recover_s.push(t0.elapsed().as_secs_f64());
        let fresh_bind_s = median_by(&timings, |t| t.bind_s);
        let replayed = logged.len().max(1) as f64;
        replay_us_per_batch.push((rebind_s - fresh_bind_s).max(0.0) * 1e6 / replayed);
        // (Checking the head also fills the result cache with the hot set.)
        let (n, wrong) = check_head(&fx, oracle.as_ref(), &ops, &mut errors)?;
        attempted += n;
        checked += n;
        failed += wrong;
    }
    let acked = logged.len() as u64;

    // ---- end-to-end metrics ----------------------------------------------
    let mut e2e = Values::end_to_end();
    e2e.set("setup_s", median(&setup_s));
    e2e.set("read_ops_per_s", windows.ops_per_s());
    e2e.set("read_p50_us", windows.percentile_us(0.5));
    e2e.set("read_p90_us", windows.percentile_us(0.9));
    let fold = faster_half_mean(&fold_s);
    e2e.set("write_ops_per_s", if fold > 0.0 { 1.0 / fold } else { 0.0 });
    e2e.set("recover_s", median(&recover_s));
    e2e.set("alloc_s", median_by(&reports, |r| r.total_wall().as_secs_f64()));
    let io_total =
        |r: &RunReport| (r.io_prep.total() + r.io_alloc.total() + r.io_edb.total()) as f64;
    e2e.set("alloc_io_pages", median_by(&reports, io_total));
    let (entries, seg_bytes, lattice_bytes) = at_rest;
    e2e.set("edb_bytes_per_entry", ratio(seg_bytes + lattice_bytes, entries));
    e2e.set("peak_rss_mb", host::peak_rss_mb());

    // ---- per-layer metrics (traced run) ----------------------------------
    // Stop the server before the closing calibration spin: on one CPU an
    // idle server's background compaction would read as a slower host.
    let block_inputs = opts.trace.then(|| (fx.data.table.clone(), fx.policy.clone()));
    fx.stop();
    drop(fx);
    let calib1 = host::calib_ms();
    let drift = host::calib_drift(calib0, calib1);
    let mut per_layer = None;
    if let (Some(t), Some(replay)) = (&tracer, &read_replay) {
        let mut v = Values::per_layer();
        let stages = t.stage_medians();
        for (name, (us, _)) in &stages {
            v.set(&format!("{name}_us"), *us);
        }
        for name in [
            "server.http.parse",
            "server.wire.parse",
            "server.cache.get",
            "server.snapshot.aggregate",
            "server.snapshot.rollup",
            "server.cache.insert",
            "server.wire.serialize",
            "server.http.respond",
        ] {
            // A stage counts toward the handler's time only on the
            // workload that runs it for most requests (the hot set's one
            // filling miss per key does not make `aggregate` a stage of
            // a cached read).
            match stages.get(name) {
                Some((_, n)) if *n * 2 > replay.per_op_us.len() => {}
                _ => v.set(&format!("{name}_us"), 0.0),
            }
        }
        // What the server adds to a request beyond its handler: the same
        // requests, over the socket minus in-process, paired one by one
        // (on a skewed mix a difference of two medians means nothing).
        let paired: Vec<f64> = first_reads
            .iter()
            .zip(&replay.per_op_us)
            .map(|(&(_, ns), us)| ns as f64 / 1000.0 - us)
            .collect();
        v.set("server.reactor.residual_us", median(&paired));
        let cursor = v.get("core.segment.cursor_us");
        v.set(
            "core.segment.accumulate_us",
            (v.get("server.snapshot.aggregate_us") - cursor).max(0.0),
        );
        v.set("trace.replay_op_us", replay.untraced_op_us);
        v.set("trace.overhead_us", replay.traced_op_us - replay.untraced_op_us);
        v.set("trace.spans", t.dump_jsonl(&opts.trace_out)? as f64 / 2.0);

        let (rc, wc) = (&read_counts, &round_counts);
        let hits = rc.get("serve.cache.hit");
        v.set("server.cache.hit_ratio", ratio(hits, hits + rc.get("serve.cache.miss")));
        v.set("server.cache.evicted_per_op", ratio(rc.get("serve.cache.evicted"), read_ok));
        v.set(
            "server.cache.invalidated_per_update",
            ratio(wc.get("serve.cache.invalidated"), acked),
        );
        v.set("server.bind_s", median_by(&timings, |t| t.bind_s));
        let pages_per_op = ratio(rc.get("edb.pages_read"), read_ok);
        v.set("core.segment.pages_read_per_op", pages_per_op);
        v.set("core.segment.pages_pruned_per_op", ratio(rc.get("edb.pages_pruned"), read_ok));
        v.set("core.segment.bytes_read_per_op", ratio(rc.get("edb.bytes_read"), read_ok));
        v.set("core.segment.bytes_per_entry", ratio(seg_bytes, entries));
        v.set("core.segment.count", segments_published as f64);
        v.set("model.segment_page.decode_us_per_page", decode.0);
        v.set("model.segment_page.rows_per_page", decode.1);
        v.set("model.csv.roundtrip_s", median_by(&timings, |t| t.csv_s));
        let cuboid_hits = rc.get("edb.cuboid_hits");
        v.set(
            "core.cuboid.hit_ratio",
            ratio(cuboid_hits, cuboid_hits + rc.get("edb.cuboid_misses")),
        );
        v.set("core.cuboid.bytes", lattice_bytes as f64);
        v.set("core.cuboid.build_s", median_by(&timings, |t| t.snapshot_lattice_s));
        if spec.stream == Stream::CoarseRollups {
            v.set("query.planner.pages_read_per_op", pages_per_op);
        }
        v.set("core.ingest.wal_bytes_per_update", ratio(wc.get("ingest.wal_bytes"), acked));
        v.set("core.ingest.folds_per_update", ratio(wc.get("ingest.folds"), acked));
        v.set("core.ingest.replay_us_per_batch", median(&replay_us_per_batch));
        v.set("core.maintain.build_s", median_by(&timings, |t| t.maintain_build_s));
        v.set(
            "core.maintain.compactions_per_kupdate",
            1000.0 * ratio(wc.get("edb.compactions"), acked),
        );
        v.set(
            "core.maintain.affected_components_per_update",
            ratio(written.affected_components, written.batches),
        );
        v.set(
            "core.maintain.entries_rewritten_per_update",
            ratio(written.entries_rewritten, written.batches),
        );
        v.set("core.alloc.prep_s", median_by(&reports, |r| r.wall_prep.as_secs_f64()));
        v.set("core.alloc.passes_s", median_by(&reports, |r| r.wall_alloc.as_secs_f64()));
        v.set("core.alloc.edb_s", median_by(&reports, |r| r.wall_edb.as_secs_f64()));
        v.set("core.alloc.iterations", median_by(&reports, |r| f64::from(r.iterations)));
        v.set("core.alloc.edb_entries", entries as f64);
        let (table, policy) = block_inputs.as_ref().expect("kept for the traced run");
        let block = allocate(table, policy, Algorithm::Block, &AllocConfig::default())
            .map_err(|e| format!("allocate (Block): {e}"))?
            .report;
        v.set("core.alloc.block_s", block.total_wall().as_secs_f64());
        v.set("core.alloc.block_io_pages", io_total(&block));
        let reads_of = |r: &RunReport| (r.io_prep.reads + r.io_alloc.reads + r.io_edb.reads) as f64;
        let writes_of =
            |r: &RunReport| (r.io_prep.writes + r.io_alloc.writes + r.io_edb.writes) as f64;
        v.set("storage.io.reads", median_by(&reports, reads_of));
        v.set("storage.io.writes", median_by(&reports, writes_of));
        v.set("storage.buffer.hit_ratio", median_by(&reports, RunReport::pool_hit_ratio));
        v.set("storage.buffer.misses", median_by(&reports, |r| r.pool_misses as f64));
        v.set("datagen.generate_s", median_by(&timings, |t| t.generate_s));
        v.set("client.read_p99_us", windows.overall_percentile_us(0.99));
        v.set("client.read_max_us", windows.overall_percentile_us(1.0));
        let percentile_us = |ns: &mut Vec<u64>, p: f64| {
            ns.sort_unstable();
            percentile(ns, p) / 1000.0
        };
        v.set("client.write_p50_us", percentile_us(&mut tail_lat_ns, 0.5));
        v.set("client.write_p99_us", percentile_us(&mut tail_lat_ns, 0.99));
        v.set("client.write_mixed_p50_us", percentile_us(&mut mixed_lat_ns, 0.5));
        v.set("client.overhead_us", percentile_us(&mut own_ns, 0.5));
        v.set("client.echo_p50_us", echo_p50_us);
        v.set("host.calib_ms", (calib0 + calib1) / 2.0);
        v.set("host.calib_drift_pct", 100.0 * drift);
        v.set("host.steal_pct", host::steal_pct(jiffies0, host::cpu_jiffies()));
        v.set("host.clean_windows", windows.clean_count() as f64);
        per_layer = Some(v);
    }
    let _ = std::fs::remove_dir_all(&dir);

    Ok(Outcome {
        workload: spec.name,
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        disturbed: drift > 0.10,
        samples: vec![
            ("setup_reps", setup_s.len() as u64),
            ("alloc_reps", reports.len() as u64),
            ("read_samples", windows.samples() as u64),
            ("read_windows", windows.wins.len() as u64),
            ("read_windows_clean", windows.clean_count() as u64),
            ("write_samples", fold_s.len() as u64),
            ("recoveries", recover_s.len() as u64),
            ("mixed_write_samples", mixed_lat_ns.len() as u64),
            ("answers_checked", checked),
        ],
        errors,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// Decode every page of the reference's base segment once: (µs per page,
/// rows per page).
fn decode_probe(fx: &Fixture) -> Res<(f64, f64)> {
    let Some(base) = fx.reference.snapshot.segments.first() else { return Ok((0.0, 0.0)) };
    let seg = &base.segment;
    let mut buf = Vec::new();
    let mut rows = 0usize;
    let t0 = Instant::now();
    for p in 0..seg.num_pages() {
        rows += seg.page_decoded(p, &mut buf).map_err(|e| format!("page_decoded: {e}"))?.len();
    }
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let pages = seg.num_pages().max(1) as f64;
    Ok((us / pages, rows as f64 / pages))
}
