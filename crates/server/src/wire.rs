//! The server's JSON wire format — hand-rolled emitters that write
//! strings and floats through `iolap_obs::json`'s one escaper and float
//! writer, with `iolap_obs::json::parse` as the reader, shared between
//! the request handlers and the bench/CI clients so neither side
//! duplicates the parsing.
//!
//! Every `parse_*` function returns `Err` (never panics) on malformed
//! input; the server maps those to `400 Bad Request`.
//!
//! Floats are emitted with Rust's shortest-round-trip `Display`
//! ([`write_f64_into`]), so a value parsed back with `str::parse::<f64>`
//! (which the JSON reader uses) is **bit-identical** to the one the
//! server computed — the property `tests/serve_consistency.rs` leans on.

use iolap_obs::json::{self, escape_json_into, write_f64_into, Json};
use iolap_query::{AggFn, AggResult, Classical, RollupRow};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------------

/// Append `s` to `out` as a JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

/// Append `"region":{"Dim":"Node",…}`.
fn push_region(out: &mut String, at: &[(&str, &str)]) {
    out.push_str("\"region\":{");
    for (i, (d, n)) in at.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str_lit(out, d);
        out.push(':');
        push_str_lit(out, n);
    }
    out.push('}');
}

/// Append `"value":…,"sum":…,"count":…`.
fn push_result(out: &mut String, r: &AggResult) {
    out.push_str("\"value\":");
    write_f64_into(out, r.value);
    out.push_str(",\"sum\":");
    write_f64_into(out, r.sum);
    out.push_str(",\"count\":");
    write_f64_into(out, r.count);
}

/// The wire name of an aggregate function.
pub fn agg_name(agg: AggFn) -> &'static str {
    match agg {
        AggFn::Sum => "sum",
        AggFn::Count => "count",
        AggFn::Avg => "average",
    }
}

/// Parse an aggregate function name (case-insensitive).
pub fn parse_agg(name: &str) -> Result<AggFn, String> {
    match name.to_ascii_lowercase().as_str() {
        "sum" => Ok(AggFn::Sum),
        "count" => Ok(AggFn::Count),
        "avg" | "average" => Ok(AggFn::Avg),
        other => Err(format!("unknown aggregate {other:?} (want sum|count|average)")),
    }
}

/// Parse a classical-semantics name (case-insensitive).
pub fn parse_classical(name: &str) -> Result<Classical, String> {
    match name.to_ascii_lowercase().as_str() {
        "none" => Ok(Classical::None),
        "contains" => Ok(Classical::Contains),
        "overlaps" => Ok(Classical::Overlaps),
        other => {
            Err(format!("unknown classical semantics {other:?} (want none|contains|overlaps)"))
        }
    }
}

fn classical_name(sem: Classical) -> &'static str {
    match sem {
        Classical::None => "none",
        Classical::Contains => "contains",
        Classical::Overlaps => "overlaps",
    }
}

// ---------------------------------------------------------------------------
// POST /query
// ---------------------------------------------------------------------------

/// A parsed `/query` body.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// `(dimension name, node name)` constraints; unlisted dimensions are
    /// `ALL`.
    pub at: Vec<(String, String)>,
    /// The aggregate (default SUM).
    pub agg: AggFn,
    /// A classical baseline semantics. The server answers a request that
    /// sets it with a 400: it holds the EDB, not the fact table, and the
    /// baselines are `iolap_query::aggregate_classical`'s.
    pub classical: Option<Classical>,
}

/// Parse a `/query` body: `{"region": {"Dim": "Node", ...}, "agg":
/// "sum"|"count"|"average", "classical": "none"|"contains"|"overlaps"}`.
/// Every field is optional; the default is SUM over `ALL × … × ALL`.
pub fn parse_query(body: &str) -> Result<QueryRequest, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request body must be a JSON object".into());
    }
    let at = parse_region(&v)?;
    let agg = parse_agg_field(&v)?;
    let classical = match v.get("classical") {
        None | Some(Json::Null) => None,
        Some(c) => Some(parse_classical(c.as_str().ok_or("\"classical\" must be a string")?)?),
    };
    Ok(QueryRequest { at, agg, classical })
}

/// Parse the optional `"agg"` field (default SUM).
fn parse_agg_field(v: &Json) -> Result<AggFn, String> {
    match v.get("agg") {
        None | Some(Json::Null) => Ok(AggFn::Sum),
        Some(a) => parse_agg(a.as_str().ok_or("\"agg\" must be a string")?),
    }
}

fn parse_region(v: &Json) -> Result<Vec<(String, String)>, String> {
    match v.get("region") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(r) => {
            let members =
                r.as_object().ok_or("\"region\" must be an object of dimension: node pairs")?;
            let mut at = Vec::with_capacity(members.len());
            for (dim, node) in members {
                let node = node
                    .as_str()
                    .ok_or_else(|| format!("region[{dim:?}] must be a node name string"))?;
                at.push((dim.clone(), node.to_string()));
            }
            Ok(at)
        }
    }
}

/// Build a `/query` body (client side: bench bins, tests, examples).
pub fn query_body(at: &[(&str, &str)], agg: AggFn, classical: Option<Classical>) -> String {
    let mut s = String::from("{");
    push_region(&mut s, at);
    let _ = write!(s, ",\"agg\":\"{}\"", agg_name(agg));
    if let Some(sem) = classical {
        let _ = write!(s, ",\"classical\":\"{}\"", classical_name(sem));
    }
    s.push('}');
    s
}

/// Serialize a `/query` response.
pub fn query_response(r: &AggResult, agg: AggFn, cached: bool, epoch: u64) -> String {
    let mut s = String::from("{");
    push_result(&mut s, r);
    let _ = write!(s, ",\"agg\":\"{}\",\"cached\":{cached},\"epoch\":{epoch}}}", agg_name(agg));
    s
}

// ---------------------------------------------------------------------------
// POST /rollup
// ---------------------------------------------------------------------------

/// A parsed `/rollup` body.
#[derive(Debug, Clone)]
pub struct RollupRequest {
    /// Dimension to roll up along (by name).
    pub dim: String,
    /// Level name within that dimension (e.g. `"Region"`, or `"ALL"`).
    pub level: String,
    /// Optional dice region, same form as `/query`.
    pub at: Vec<(String, String)>,
    /// The aggregate (default SUM).
    pub agg: AggFn,
}

/// Parse a `/rollup` body: `{"dim": "Location", "level": "Region",
/// "region": {...}, "agg": "sum"}`.
pub fn parse_rollup(body: &str) -> Result<RollupRequest, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request body must be a JSON object".into());
    }
    let dim = v
        .get("dim")
        .and_then(|d| d.as_str())
        .ok_or("\"dim\" (dimension name) is required")?
        .to_string();
    let level = v
        .get("level")
        .and_then(|l| l.as_str())
        .ok_or("\"level\" (level name) is required")?
        .to_string();
    let at = parse_region(&v)?;
    Ok(RollupRequest { dim, level, at, agg: parse_agg_field(&v)? })
}

/// Build a `/rollup` body (client side).
pub fn rollup_body(dim: &str, level: &str, at: &[(&str, &str)], agg: AggFn) -> String {
    let mut s = String::from("{\"dim\":");
    push_str_lit(&mut s, dim);
    s.push_str(",\"level\":");
    push_str_lit(&mut s, level);
    s.push(',');
    push_region(&mut s, at);
    let _ = write!(s, ",\"agg\":\"{}\"}}", agg_name(agg));
    s
}

/// Serialize a `/rollup` response.
pub fn rollup_response(rows: &[RollupRow], agg: AggFn, epoch: u64) -> String {
    let mut s = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_str_lit(&mut s, &row.name);
        s.push(',');
        push_result(&mut s, &row.result);
        s.push('}');
    }
    let _ = write!(s, "],\"agg\":\"{}\",\"epoch\":{epoch}}}", agg_name(agg));
    s
}

// ---------------------------------------------------------------------------
// POST /update
// ---------------------------------------------------------------------------

/// One mutation in a `/update` batch, with dimension values still as
/// node *names* (resolved against the schema by the server).
#[derive(Debug, Clone)]
pub enum MutationReq {
    /// `{"op": "update", "fact_id": N, "measure": M}`
    Update {
        /// The fact to update.
        fact_id: u64,
        /// Its new measure.
        measure: f64,
    },
    /// `{"op": "insert", "id": N, "dims": ["MA", "Civic"], "measure": M}`
    Insert {
        /// Id for the new fact (must be unused).
        id: u64,
        /// One node name per dimension, in schema order.
        dims: Vec<String>,
        /// The fact's measure.
        measure: f64,
    },
    /// `{"op": "delete", "fact_id": N}`
    Delete {
        /// The fact to delete.
        fact_id: u64,
    },
}

/// A parsed `/update` body.
#[derive(Debug, Clone)]
pub struct UpdateRequest {
    /// The mutation batch.
    pub muts: Vec<MutationReq>,
}

/// Parse a `/update` body: `{"mutations": [ ... ]}`.
pub fn parse_update(body: &str) -> Result<UpdateRequest, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let muts =
        v.get("mutations").and_then(|m| m.as_array()).ok_or("\"mutations\" must be an array")?;
    if muts.is_empty() {
        return Err("\"mutations\" must not be empty".into());
    }
    let mut out = Vec::with_capacity(muts.len());
    for (i, m) in muts.iter().enumerate() {
        let op = m
            .get("op")
            .and_then(|o| o.as_str())
            .ok_or_else(|| format!("mutation {i}: \"op\" is required"))?;
        let fact_id = |field: &str| -> Result<u64, String> {
            m.get(field)
                .and_then(|f| f.as_u64())
                .ok_or_else(|| format!("mutation {i}: \"{field}\" must be a non-negative integer"))
        };
        let measure = || -> Result<f64, String> {
            m.get("measure")
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("mutation {i}: \"measure\" must be a number"))
        };
        out.push(match op {
            "update" => MutationReq::Update { fact_id: fact_id("fact_id")?, measure: measure()? },
            "insert" => {
                let dims = m
                    .get("dims")
                    .and_then(|d| d.as_array())
                    .ok_or_else(|| format!("mutation {i}: \"dims\" must be an array"))?;
                let mut names = Vec::with_capacity(dims.len());
                for d in dims {
                    names.push(
                        d.as_str()
                            .ok_or_else(|| format!("mutation {i}: dims must be node names"))?
                            .to_string(),
                    );
                }
                MutationReq::Insert { id: fact_id("id")?, dims: names, measure: measure()? }
            }
            "delete" => MutationReq::Delete { fact_id: fact_id("fact_id")? },
            other => {
                return Err(format!(
                    "mutation {i}: unknown op {other:?} (want update|insert|delete)"
                ))
            }
        });
    }
    Ok(UpdateRequest { muts: out })
}

/// Build a `/update` body (client side).
pub fn update_body(muts: &[MutationReq]) -> String {
    let mut s = String::from("{\"mutations\":[");
    for (i, m) in muts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        match m {
            MutationReq::Update { fact_id, measure } => {
                let _ = write!(s, "{{\"op\":\"update\",\"fact_id\":{fact_id},\"measure\":");
                write_f64_into(&mut s, *measure);
                s.push('}');
            }
            MutationReq::Insert { id, dims, measure } => {
                let _ = write!(s, "{{\"op\":\"insert\",\"id\":{id},\"dims\":[");
                for (j, d) in dims.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    push_str_lit(&mut s, d);
                }
                s.push_str("],\"measure\":");
                write_f64_into(&mut s, *measure);
                s.push('}');
            }
            MutationReq::Delete { fact_id } => {
                let _ = write!(s, "{{\"op\":\"delete\",\"fact_id\":{fact_id}}}");
            }
        }
    }
    s.push_str("]}");
    s
}

/// Serialize a `/update` response.
#[allow(clippy::too_many_arguments)]
pub fn update_response(
    epoch: u64,
    invalidated: u64,
    affected_components: u64,
    affected_tuples: u64,
    entries_rewritten: u64,
    merges: u64,
    splits: u64,
) -> String {
    format!(
        "{{\"epoch\":{epoch},\"invalidated\":{invalidated},\
         \"affected_components\":{affected_components},\
         \"affected_tuples\":{affected_tuples},\
         \"entries_rewritten\":{entries_rewritten},\
         \"merges\":{merges},\"splits\":{splits}}}"
    )
}

// ---------------------------------------------------------------------------
// Misc bodies
// ---------------------------------------------------------------------------

/// `GET /healthz` response. `ok = false` means the update coordinator
/// is poisoned: reads still serve, writes are refused. `wal_backlog` is
/// the number of WAL frames acknowledged durable but not yet folded into
/// a delta segment (always 0 without a WAL or in synchronous group-commit
/// mode).
pub fn health_response(epoch: u64, ok: bool, wal_backlog: u64) -> String {
    let status = if ok { "ok" } else { "degraded" };
    format!("{{\"status\":\"{status}\",\"epoch\":{epoch},\"wal_backlog\":{wal_backlog}}}")
}

/// Serialize a `/update` response acknowledged at WAL-durable: the batch
/// is fsynced in the log (`wal_batch` is its id) but not yet folded into
/// the EDB — `staged` frames are waiting on the group-commit trigger,
/// and `epoch` is the epoch readers currently see.
pub fn staged_response(wal_batch: u64, staged: u64, epoch: u64) -> String {
    format!("{{\"durable\":true,\"wal_batch\":{wal_batch},\"staged\":{staged},\"epoch\":{epoch}}}")
}

/// A JSON error envelope.
pub fn error_body(msg: &str) -> String {
    let mut s = String::from("{\"error\":");
    push_str_lit(&mut s, msg);
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// Unified error type
// ---------------------------------------------------------------------------

/// Every way serving can fail, unified behind one status + JSON-body
/// mapping so 400/404/405/413/431/500/503 share a single wire shape.
///
/// The request-scoped variants ([`to_response`](ServeError::to_response))
/// serialize as:
///
/// ```json
/// {"error": "<human-readable message>", "code": "<kebab-case-code>", "status": <u16>}
/// ```
///
/// The lifecycle variants ([`Io`](ServeError::Io),
/// [`Init`](ServeError::Init)) never reach a socket — they are returned
/// from server construction/startup and carried through `iolap::Error`.
#[derive(Debug)]
pub enum ServeError {
    /// 400 — malformed request line, header, or body.
    BadRequest(String),
    /// 404 — no route matches the request path.
    NotFound(String),
    /// 405 — route exists, method doesn't.
    MethodNotAllowed(String),
    /// 413 — declared `Content-Length` exceeds the configured cap.
    PayloadTooLarge(String),
    /// 431 — header line or header count over the parser limits.
    HeadersTooLarge(String),
    /// 500 — handler panicked or an internal invariant failed.
    Internal(String),
    /// 503 — load shed, shutdown in progress, or coordinator poisoned.
    Unavailable(String),
    /// Lifecycle: socket-level failure during startup (bind/listen).
    Io(std::io::Error),
    /// Lifecycle: the initial allocation or EDB build failed.
    Init(String),
}

impl ServeError {
    /// The HTTP status this error maps to (lifecycle variants report 500,
    /// though they are never written to a socket).
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::PayloadTooLarge(_) => 413,
            ServeError::HeadersTooLarge(_) => 431,
            ServeError::Internal(_) | ServeError::Io(_) | ServeError::Init(_) => 500,
            ServeError::Unavailable(_) => 503,
        }
    }

    /// Stable machine-readable code for the `"code"` field.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::NotFound(_) => "not-found",
            ServeError::MethodNotAllowed(_) => "method-not-allowed",
            ServeError::PayloadTooLarge(_) => "payload-too-large",
            ServeError::HeadersTooLarge(_) => "headers-too-large",
            ServeError::Internal(_) => "internal",
            ServeError::Unavailable(_) => "unavailable",
            ServeError::Io(_) => "io",
            ServeError::Init(_) => "init",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest(m)
            | ServeError::NotFound(m)
            | ServeError::MethodNotAllowed(m)
            | ServeError::PayloadTooLarge(m)
            | ServeError::HeadersTooLarge(m)
            | ServeError::Internal(m)
            | ServeError::Unavailable(m)
            | ServeError::Init(m) => m.clone(),
            ServeError::Io(e) => e.to_string(),
        }
    }

    /// Map a status produced elsewhere (the HTTP parser's
    /// [`ReadError::Bad`](crate::http::ReadError) carries raw numbers)
    /// into the matching variant. Unknown statuses become
    /// [`Internal`](ServeError::Internal).
    pub fn from_status(status: u16, msg: impl Into<String>) -> ServeError {
        let msg = msg.into();
        match status {
            400 => ServeError::BadRequest(msg),
            404 => ServeError::NotFound(msg),
            405 => ServeError::MethodNotAllowed(msg),
            413 => ServeError::PayloadTooLarge(msg),
            431 => ServeError::HeadersTooLarge(msg),
            503 => ServeError::Unavailable(msg),
            _ => ServeError::Internal(msg),
        }
    }

    /// The one status + JSON body mapping every handler error path goes
    /// through. The `"error"` field stays a plain string for backward
    /// compatibility; `"code"` and `"status"` are machine-readable.
    pub fn to_response(&self) -> (u16, String) {
        let status = self.status();
        let mut body = String::from("{\"error\":");
        push_str_lit(&mut body, &self.message());
        let _ = write!(body, ",\"code\":\"{}\",\"status\":{status}}}", self.code());
        (status, body)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Init(m) => write!(f, "serve init error: {m}"),
            other => write!(f, "{} {}: {}", other.status(), other.code(), other.message()),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips() {
        let body = query_body(&[("Location", "MA")], AggFn::Count, Some(Classical::Overlaps));
        let q = parse_query(&body).unwrap();
        assert_eq!(q.at, vec![("Location".to_string(), "MA".to_string())]);
        assert_eq!(q.agg, AggFn::Count);
        assert_eq!(q.classical, Some(Classical::Overlaps));
    }

    #[test]
    fn query_defaults_when_fields_absent() {
        let q = parse_query("{}").unwrap();
        assert!(q.at.is_empty());
        assert_eq!(q.agg, AggFn::Sum);
        assert_eq!(q.classical, None);
    }

    #[test]
    fn malformed_query_bodies_are_rejected_not_panicked() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "{\"region\": 5}",
            "{\"region\": {\"Location\": 3}}",
            "{\"agg\": \"median\"}",
            "{\"agg\": 1}",
            "{\"classical\": \"sometimes\"}",
            "{\"region\": {\"Location\": \"MA\"",
        ] {
            assert!(parse_query(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rollup_round_trips() {
        let body = rollup_body("Location", "Region", &[("Automobile", "Truck")], AggFn::Sum);
        let r = parse_rollup(&body).unwrap();
        assert_eq!(r.dim, "Location");
        assert_eq!(r.level, "Region");
        assert_eq!(r.at, vec![("Automobile".to_string(), "Truck".to_string())]);
    }

    #[test]
    fn rollup_requires_dim_and_level() {
        assert!(parse_rollup("{}").is_err());
        assert!(parse_rollup("{\"dim\":\"Location\"}").is_err());
        assert!(parse_rollup("{\"dim\":1,\"level\":\"Region\"}").is_err());
    }

    #[test]
    fn update_round_trips_every_op() {
        let muts = vec![
            MutationReq::Update { fact_id: 2, measure: 999.5 },
            MutationReq::Insert { id: 50, dims: vec!["MA".into(), "Civic".into()], measure: 70.0 },
            MutationReq::Delete { fact_id: 11 },
        ];
        let parsed = parse_update(&update_body(&muts)).unwrap().muts;
        assert_eq!(parsed.len(), 3);
        match &parsed[0] {
            MutationReq::Update { fact_id, measure } => {
                assert_eq!(*fact_id, 2);
                assert_eq!(*measure, 999.5);
            }
            other => panic!("{other:?}"),
        }
        match &parsed[1] {
            MutationReq::Insert { id, dims, measure } => {
                assert_eq!(*id, 50);
                assert_eq!(dims, &["MA".to_string(), "Civic".to_string()]);
                assert_eq!(*measure, 70.0);
            }
            other => panic!("{other:?}"),
        }
        match &parsed[2] {
            MutationReq::Delete { fact_id } => assert_eq!(*fact_id, 11),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_update_bodies_are_rejected() {
        for bad in [
            "{}",
            "{\"mutations\": []}",
            "{\"mutations\": [{}]}",
            "{\"mutations\": [{\"op\": \"upsert\"}]}",
            "{\"mutations\": [{\"op\": \"update\", \"fact_id\": -1, \"measure\": 1}]}",
            "{\"mutations\": [{\"op\": \"update\", \"fact_id\": 1}]}",
            "{\"mutations\": [{\"op\": \"insert\", \"id\": 1, \"dims\": [7], \"measure\": 1}]}",
        ] {
            assert!(parse_update(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn responses_parse_back() {
        let r = AggResult { value: 605.0, sum: 605.0, count: 5.0 };
        let v = iolap_obs::json::parse(&query_response(&r, AggFn::Sum, false, 3)).unwrap();
        assert_eq!(v.get("value").and_then(|x| x.as_f64()), Some(605.0));
        assert_eq!(v.get("cached").and_then(|x| x.as_bool()), Some(false));
        assert_eq!(v.get("epoch").and_then(|x| x.as_u64()), Some(3));
        let v = iolap_obs::json::parse(&update_response(1, 2, 3, 4, 5, 6, 7)).unwrap();
        assert_eq!(v.get("invalidated").and_then(|x| x.as_u64()), Some(2));
        let v = iolap_obs::json::parse(&error_body("boom \"quoted\"")).unwrap();
        assert_eq!(v.get("error").and_then(|x| x.as_str()), Some("boom \"quoted\""));
    }

    #[test]
    fn every_serve_error_variant_emits_the_documented_shape() {
        let cases: Vec<(ServeError, u16, &str)> = vec![
            (ServeError::BadRequest("bad \"body\"".into()), 400, "bad-request"),
            (ServeError::NotFound("no route".into()), 404, "not-found"),
            (ServeError::MethodNotAllowed("POST only".into()), 405, "method-not-allowed"),
            (ServeError::PayloadTooLarge("big".into()), 413, "payload-too-large"),
            (ServeError::HeadersTooLarge("wide".into()), 431, "headers-too-large"),
            (ServeError::Internal("boom".into()), 500, "internal"),
            (ServeError::Unavailable("shed".into()), 503, "unavailable"),
        ];
        for (err, want_status, want_code) in cases {
            let (status, body) = err.to_response();
            assert_eq!(status, want_status, "{err}");
            let v = iolap_obs::json::parse(&body).unwrap_or_else(|e| panic!("{err}: {e}: {body}"));
            assert!(v.get("error").and_then(|x| x.as_str()).is_some(), "{body}");
            assert_eq!(v.get("code").and_then(|x| x.as_str()), Some(want_code), "{body}");
            assert_eq!(
                v.get("status").and_then(|x| x.as_u64()),
                Some(want_status as u64),
                "{body}"
            );
        }
    }

    #[test]
    fn from_status_round_trips_the_parser_codes() {
        for status in [400u16, 404, 405, 413, 431, 503] {
            let e = ServeError::from_status(status, "x");
            assert_eq!(e.status(), status);
        }
        // Unknown statuses collapse to 500, never panic.
        assert_eq!(ServeError::from_status(999, "x").status(), 500);
    }

    #[test]
    fn health_response_reports_epoch_and_backlog() {
        let v = iolap_obs::json::parse(&health_response(5, true, 12)).unwrap();
        assert_eq!(v.get("epoch").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("ok"));
        assert_eq!(v.get("wal_backlog").and_then(|x| x.as_u64()), Some(12));
    }

    #[test]
    fn staged_response_reports_durability() {
        let v = iolap_obs::json::parse(&staged_response(3, 7, 2)).unwrap();
        assert_eq!(v.get("durable").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(v.get("wal_batch").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("staged").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("epoch").and_then(|x| x.as_u64()), Some(2));
    }

    #[test]
    fn lifecycle_variants_display_and_chain() {
        let io = ServeError::from(std::io::Error::new(std::io::ErrorKind::AddrInUse, "busy"));
        assert!(io.to_string().contains("busy"), "{io}");
        assert!(std::error::Error::source(&io).is_some());
        let init = ServeError::Init("allocation failed".into());
        assert!(init.to_string().contains("allocation failed"), "{init}");
    }
}
