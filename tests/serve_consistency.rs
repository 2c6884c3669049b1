//! The server's core guarantee: an HTTP answer is **bit-identical** to
//! querying the materialized EDB through the library's snapshot
//! machinery — cold cache, warm cache, and across an `/update`
//! round-trip — and updates invalidate only the cache entries whose
//! region overlaps what the batch touched.
//!
//! Allocation is deterministic (single-threaded Transitive), so a local
//! run with the same table/policy/config reproduces the server's EDB
//! exactly; Rust's shortest-round-trip f64 formatting then makes the
//! JSON wire lossless, and `to_bits` equality is a fair comparison. The
//! server and the library share one answer definition — the flat
//! `accumulate_region` + `AggResult::from_parts` loop of
//! [`aggregate_edb`] — so the reference is either that function or
//! [`EdbSnapshot::aggregate`] over the same segments.

use iolap::core::maintain::EdbMutation;
use iolap::core::{allocate, Algorithm, AllocConfig, MaintainableEdb, PolicySpec};
use iolap::datagen::{scaled, DatasetKind};
use iolap::model::{paper_example, FactTable};
use iolap::obs::{json, Obs};
use iolap::query::{aggregate_edb, AggFn, Query, QueryBuilder};
use iolap::serve::snapshot::resolve_region;
use iolap::serve::wire;
use iolap::serve::{http_roundtrip, EdbSnapshot, ServeConfig, Server, ServerHandle};
use std::net::TcpStream;
use std::sync::Arc;

fn policy() -> PolicySpec {
    PolicySpec::em_count(0.01)
}

fn alloc_cfg() -> AllocConfig {
    AllocConfig::builder().in_memory(256).build()
}

fn start_server() -> ServerHandle {
    start_server_on(paper_example::table1())
}

fn start_server_on(table: FactTable) -> ServerHandle {
    Server::builder(table, policy())
        .alloc(alloc_cfg())
        .config(ServeConfig::default())
        .bind("127.0.0.1:0")
        .expect("server starts")
}

/// `(value, sum, count)` bits from a `/query` JSON response, plus the
/// `cached` flag.
fn parse_agg(body: &str) -> (u64, u64, u64, bool) {
    let v = json::parse(body).expect("valid JSON");
    let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).expect(k).to_bits();
    let cached = v.get("cached").and_then(|x| x.as_bool()).expect("cached");
    (f("value"), f("sum"), f("count"), cached)
}

fn server_query(conn: &mut TcpStream, at: &[(&str, &str)], agg: AggFn) -> (u64, u64, u64, bool) {
    let body = wire::query_body(at, agg, None);
    let (status, resp) = http_roundtrip(conn, "POST", "/query", &body).expect("roundtrip");
    assert_eq!(status, 200, "{resp}");
    parse_agg(&resp)
}

const QUERIES: &[(&[(&str, &str)], AggFn)] = &[
    (&[("Location", "MA")], AggFn::Sum),
    (&[("Location", "MA")], AggFn::Count),
    (&[("Location", "MA")], AggFn::Avg),
    (&[("Location", "West"), ("Automobile", "Sedan")], AggFn::Sum),
    (&[("Location", "East")], AggFn::Count),
    (&[], AggFn::Sum),
];

#[test]
fn server_answers_match_aggregate_edb_bit_for_bit() {
    let h = start_server();
    let mut conn = TcpStream::connect(h.addr()).expect("connect");

    // `/healthz` must expose the current epoch.
    let (status, body) = http_roundtrip(&mut conn, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "{body}");
    let hv = json::parse(&body).unwrap();
    assert_eq!(hv.get("epoch").and_then(|e| e.as_u64()), Some(0), "{body}");

    // The same allocation, through the library's snapshot machinery.
    let run = allocate(&paper_example::table1(), &policy(), Algorithm::Transitive, &alloc_cfg())
        .expect("local allocation");
    let mut medb = MaintainableEdb::build(run, policy()).expect("maintainable");
    let snap = EdbSnapshot {
        epoch: 0,
        schema: medb.schema().clone(),
        table: Arc::new(paper_example::table1()),
        segments: medb.snapshot_segments().expect("segments"),
        lattice: None,
    };

    for &(at, agg) in QUERIES {
        let mut b = QueryBuilder::new(paper_example::schema()).agg(agg);
        for (d, n) in at {
            b = b.at(d, n);
        }
        let q = b.build().expect("query");
        let local = snap.aggregate(&q.region, agg).expect("snapshot aggregate");

        // Cold: computed from the snapshot.
        let (v, s, c, cached) = server_query(&mut conn, at, agg);
        assert!(!cached, "{at:?} first ask must be a miss");
        assert_eq!(v, local.value.to_bits(), "{at:?} {agg:?} value");
        assert_eq!(s, local.sum.to_bits(), "{at:?} {agg:?} sum");
        assert_eq!(c, local.count.to_bits(), "{at:?} {agg:?} count");

        // Warm: served from the cache, still the same bits.
        let (v, s, c, cached) = server_query(&mut conn, at, agg);
        assert!(cached, "{at:?} second ask must hit");
        assert_eq!((v, s, c), (local.value.to_bits(), local.sum.to_bits(), local.count.to_bits()));
    }
    h.shutdown();
}

/// About a dozen regions over the generated Automotive schema, each
/// spanning many dimension-0 leaves: the full space under every
/// aggregate, whole SR_AREA areas, areas crossed with a node of each other
/// dimension, and nodes of the other dimensions alone.
fn multi_slab_queries(table: &FactTable) -> Vec<(Vec<(String, String)>, AggFn)> {
    let s = table.schema();
    // The `i`-th node one level below ALL in dimension `d`, by name.
    let at = |d: usize, i: usize| {
        let h = s.dim(d);
        let nodes = h.nodes_at_level(h.levels() - 1);
        (h.name().to_string(), h.node_name(nodes[i % nodes.len()]))
    };
    let mut qs = vec![(vec![], AggFn::Sum), (vec![], AggFn::Count), (vec![], AggFn::Avg)];
    for i in 0..3 {
        qs.push((vec![at(0, i)], AggFn::Sum));
    }
    qs.push((vec![at(0, 0), at(3, 0)], AggFn::Avg));
    qs.push((vec![at(0, 1), at(2, 0)], AggFn::Count));
    qs.push((vec![at(0, 2), at(1, 0)], AggFn::Sum));
    qs.push((vec![at(3, 1)], AggFn::Sum));
    qs.push((vec![at(2, 1)], AggFn::Avg));
    qs.push((vec![at(1, 1)], AggFn::Count));
    qs
}

/// One answer definition: at epoch 0 the server's `/query` bits equal
/// [`aggregate_edb`] over the same allocation, on the paper example and on
/// multi-slab regions of a generated dataset — the regions where any
/// other summation order (say, per dimension-0 slab) shows in the last
/// bits.
#[test]
fn server_query_is_aggregate_edb_bit_for_bit() {
    let paper: Vec<(Vec<(String, String)>, AggFn)> = QUERIES
        .iter()
        .map(|&(at, agg)| (at.iter().map(|&(d, n)| (d.to_string(), n.to_string())).collect(), agg))
        .collect();
    let automotive = scaled(DatasetKind::Automotive, 2_000, 7);
    let autos = multi_slab_queries(&automotive);
    for (table, queries) in [(paper_example::table1(), paper), (automotive, autos)] {
        let edb = allocate(&table, &policy(), Algorithm::Transitive, &alloc_cfg())
            .expect("local allocation")
            .edb;
        let h = start_server_on(table.clone());
        let mut conn = TcpStream::connect(h.addr()).expect("connect");
        for (at, agg) in &queries {
            let region = resolve_region(table.schema(), at).expect("region");
            let lib = aggregate_edb(&edb, &Query { region, agg: *agg }).expect("aggregate_edb");
            let refs: Vec<(&str, &str)> = at.iter().map(|(d, n)| (&d[..], &n[..])).collect();
            let (v, s, c, _) = server_query(&mut conn, &refs, *agg);
            let want = (lib.value.to_bits(), lib.sum.to_bits(), lib.count.to_bits());
            assert_eq!((v, s, c), want, "{at:?} {agg:?}: server {v:x}/{s:x}/{c:x}");
        }
        h.shutdown();
    }
}

/// Every `QUERIES` answer from the server equals, bit for bit, the same
/// query over the local replica's current segments. Returns how many
/// segments the replica publishes.
fn assert_matches_replica(conn: &mut TcpStream, medb: &mut MaintainableEdb, epoch: u64) -> usize {
    let snap = EdbSnapshot {
        epoch,
        schema: medb.schema().clone(),
        table: Arc::new(paper_example::table1()), // unused for EDB aggregates
        segments: medb.snapshot_segments().expect("segments"),
        lattice: None, // /query aggregates never consult the lattice
    };
    for &(at, agg) in QUERIES {
        let b = at
            .iter()
            .fold(QueryBuilder::new(paper_example::schema()).agg(agg), |b, (d, n)| b.at(d, n));
        let q = b.build().expect("query");
        let local = snap.aggregate(&q.region, agg).expect("snapshot aggregate");
        let (v, s, c, _) = server_query(conn, at, agg);
        assert_eq!(v, local.value.to_bits(), "{at:?} {agg:?} value at epoch {epoch}");
        assert_eq!(s, local.sum.to_bits(), "{at:?} {agg:?} sum at epoch {epoch}");
        assert_eq!(c, local.count.to_bits(), "{at:?} {agg:?} count at epoch {epoch}");
    }
    snap.segments.len()
}

/// The server equals a library replica at every epoch, across the
/// compactions its coordinator runs inside the fold. Allocation and
/// serving share one `Obs`, so each merge must be counted once.
#[test]
fn update_round_trip_stays_bit_identical_to_the_library() {
    let obs = Obs::metrics_only();
    let h = Server::builder(paper_example::table1(), policy())
        .alloc(AllocConfig::builder().in_memory(256).obs(obs.clone()).build())
        .config(ServeConfig::builder().obs(obs).build())
        .bind("127.0.0.1:0")
        .expect("server starts");
    let mut conn = TcpStream::connect(h.addr()).expect("connect");

    // Mirror the server's state through the maintenance machinery, in
    // the default inline-compaction mode the coordinator runs.
    let run = allocate(&paper_example::table1(), &policy(), Algorithm::Transitive, &alloc_cfg())
        .expect("local allocation");
    let mut medb = MaintainableEdb::build(run, policy()).expect("maintainable");

    let ny_f150 = {
        let s = paper_example::schema();
        let l = s.dim(0).node_by_name("NY").unwrap().0;
        let a = s.dim(1).node_by_name("F150").unwrap().0;
        let mut dims = [0u32; iolap::model::MAX_DIMS];
        dims[0] = l;
        dims[1] = a;
        iolap::model::Fact { id: 50, dims, measure: 42.0 }
    };
    let mut batches = vec![(
        vec![
            wire::MutationReq::Update { fact_id: 2, measure: 500.0 },
            wire::MutationReq::Insert {
                id: 50,
                dims: vec!["NY".into(), "F150".into()],
                measure: 42.0,
            },
        ],
        vec![
            EdbMutation::UpdateMeasure { fact_id: 2, new_measure: 500.0 },
            EdbMutation::Insert(ny_f150),
        ],
    )];
    // Six single-mutation batches on precise facts (p1–p5): each adds a
    // delta tier, enough to cross the default threshold of 4.
    for (fact_id, measure) in
        [(1, 110.0), (3, 130.0), (4, 140.0), (5, 150.0), (2, 120.0), (1, 111.0)]
    {
        batches.push((
            vec![wire::MutationReq::Update { fact_id, measure }],
            vec![EdbMutation::UpdateMeasure { fact_id, new_measure: measure }],
        ));
    }

    for (epoch, (muts, local)) in (1u64..).zip(batches) {
        let (status, resp) =
            http_roundtrip(&mut conn, "POST", "/update", &wire::update_body(&muts))
                .expect("update");
        assert_eq!(status, 200, "{resp}");
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(epoch));

        // The epoch flip is visible through `/healthz`.
        let (status, body) = http_roundtrip(&mut conn, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200, "{body}");
        let hv = json::parse(&body).unwrap();
        assert_eq!(hv.get("epoch").and_then(|e| e.as_u64()), Some(epoch), "{body}");

        medb.apply_batch(&local).expect("local batch");
        // Local post-update view, through the same snapshot machinery the
        // server publishes from.
        let views = assert_matches_replica(&mut conn, &mut medb, epoch);
        assert_eq!(h.obs().gauge("edb.segments").unwrap().get(), views as i64, "epoch {epoch}");
        assert_eq!(
            h.obs().counter("edb.compactions").unwrap().get(),
            medb.num_compactions(),
            "epoch {epoch}: each merge counted once"
        );
    }
    assert!(medb.num_compactions() >= 1, "seven batches must cross the threshold");
    h.shutdown();
}

#[test]
fn updates_invalidate_only_overlapping_cache_entries() {
    let h = start_server();
    let mut conn = TcpStream::connect(h.addr()).expect("connect");

    // Fact 2 lives at (MA, Sierra) in component CC2 = {p2,p3,p7,p9,p12},
    // whose cells and fact regions all sit in the Truck half of the cube.
    // Updating it therefore touches boxes confined to Truck × Location:
    // a cached Sedan-half query must survive, a Truck-half query must go.
    let sedan: &[(&str, &str)] = &[("Automobile", "Sedan")];
    let truck: &[(&str, &str)] = &[("Automobile", "Truck")];
    let (.., cached) = server_query(&mut conn, sedan, AggFn::Sum);
    assert!(!cached);
    let (.., cached) = server_query(&mut conn, truck, AggFn::Sum);
    assert!(!cached);

    let muts = vec![wire::MutationReq::Update { fact_id: 2, measure: 300.0 }];
    let (status, resp) =
        http_roundtrip(&mut conn, "POST", "/update", &wire::update_body(&muts)).expect("update");
    assert_eq!(status, 200, "{resp}");
    let v = json::parse(&resp).unwrap();
    let invalidated = v.get("invalidated").and_then(|x| x.as_u64()).expect("invalidated");
    assert!(invalidated >= 1, "the Truck entry overlaps a touched box: {resp}");

    let (.., cached) = server_query(&mut conn, sedan, AggFn::Sum);
    assert!(cached, "Sedan-half entry is disjoint from every touched box and must survive");
    let (.., cached) = server_query(&mut conn, truck, AggFn::Sum);
    assert!(!cached, "Truck-half entry must have been invalidated");

    assert!(
        h.obs().counter("serve.cache.invalidated").unwrap().get() >= 1,
        "invalidation must be visible in the metrics"
    );

    // The segment layer's answer-path counters are exported over HTTP:
    // every served (non-cached) aggregate either read or pruned pages.
    let (status, prom) = http_roundtrip(&mut conn, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    for series in [
        "iolap_edb_pages_read",
        "iolap_edb_pages_pruned",
        "iolap_edb_bytes_read",
        "iolap_edb_segments",
        "iolap_edb_compression_ratio",
        "iolap_edb_cuboid_hits",
        "iolap_edb_cuboid_misses",
        "iolap_edb_cuboid_bytes",
    ] {
        assert!(prom.contains(series), "missing {series} in /metrics:\n{prom}");
    }
    let read = h.obs().counter("edb.pages_read").unwrap().get();
    let pruned = h.obs().counter("edb.pages_pruned").unwrap().get();
    assert!(read + pruned > 0, "served queries must account their page scans");
    // Every page read moved bytes through the exact-I/O meter, and the
    // published segments compress: the gauge reports
    // milli-ratio > 1000 = shrinking at rest.
    if read > 0 {
        assert!(
            h.obs().counter("edb.bytes_read").unwrap().get() > 0,
            "read pages must account their bytes"
        );
    }
    assert!(
        h.obs().gauge("edb.compression_ratio").unwrap().get() > 1000,
        "compressed default layout must report ratio above 1000 milli"
    );
    h.shutdown();
}
