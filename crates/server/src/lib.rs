//! `iolap-serve` — a concurrent query server over the materialized EDB.
//!
//! The paper's allocation algorithms produce an *Extended Database*: the
//! fact table with imprecise records expanded into weighted `(cell,
//! weight)` entries, over which OLAP aggregates are ordinary weighted
//! sums. This crate wraps that artifact in a long-lived process with the
//! three properties a serving path needs:
//!
//! 1. **Snapshot swapping** — readers aggregate over an immutable
//!    [`EdbSnapshot`] behind an `Arc`; a single coordinator thread applies
//!    `/update` batches through the Section 9 incremental-maintenance
//!    machinery (`iolap_core::MaintainableEdb`) and atomically publishes
//!    the next epoch. Queries never block updates and vice versa.
//! 2. **A sharded result cache with targeted invalidation** — results are
//!    keyed by `(region, aggregate)`; an update invalidates
//!    only the entries whose region overlaps a bounding box the batch
//!    touched (the same component-locality argument — Theorem 12 — that
//!    makes maintenance itself cheap).
//! 3. **An event-driven core** — one reactor thread owns every socket
//!    behind an epoll/poll readiness loop (vendored syscall shim, no
//!    external crate), so concurrent keep-alive connections are bounded
//!    by `max_connections`, not by the worker count. The reactor answers
//!    what is bounded and non-blocking itself (a cache hit, a cheap
//!    rejection — [`Handler::begin`]); workers pull the rest as *ready,
//!    fully-parsed requests*. Saturation sheds with a `503` and a
//!    close, sockets carry read/write/idle timeouts, handler
//!    panics cost one `500`, and shutdown drains gracefully.
//!
//! The HTTP surface is a deliberate std-only subset (no async runtime,
//! no TLS): `POST /query`, `POST /rollup`, `POST /update`,
//! `GET /healthz`, `GET /metrics` (Prometheus text via `iolap-obs`).
//! Every error status shares one JSON shape — see [`wire::ServeError`].
//!
//! ```no_run
//! use iolap_serve::{Server, ServeConfig};
//! use iolap_core::{AllocConfig, PolicySpec};
//! use iolap_model::paper_example;
//!
//! let h = Server::builder(paper_example::table1(), PolicySpec::em_count(0.01))
//!     .alloc(AllocConfig::builder().in_memory(256).build())
//!     .config(ServeConfig::builder().workers(2).max_connections(10_000).build())
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! println!("listening on {}", h.addr());
//! h.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod http;
mod reactor;
pub mod server;
pub mod snapshot;
mod sys;
pub mod wire;

pub use cache::{CacheKey, CachedResult, ShardedCache};
pub use engine::{EngineHandle, Handler, Response, Step};
pub use server::{
    http_roundtrip, read_response, read_response_from, ServeConfig, ServeConfigBuilder, ServeError,
    Server, ServerBuilder, ServerHandle,
};
pub use snapshot::EdbSnapshot;
pub use sys::raise_nofile_limit;
