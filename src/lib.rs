//! # iolap
//!
//! A full Rust reproduction of Burdick, Deshpande, Jayram, Ramakrishnan &
//! Vaithyanathan, *"Efficient Allocation Algorithms for OLAP Over
//! Imprecise Data"* (VLDB 2006).
//!
//! The facade gives one entry point — [`Iolap`] — plus a [`prelude`] so
//! applications import a single crate:
//!
//! ```
//! use iolap::prelude::*;
//!
//! // Table 1 of the paper: 5 precise + 9 imprecise facts.
//! let table = iolap::model::paper_example::table1();
//!
//! // Apply EM-Count allocation with the Transitive algorithm.
//! let mut run = Iolap::from_table(table)
//!     .config(AllocConfig::builder().in_memory(256).build())
//!     .policy(PolicySpec::em_count(0.005))
//!     .allocate(Algorithm::Transitive)
//!     .unwrap();
//! assert!(run.report.converged);
//!
//! // Query the Extended Database: total sales in the West region.
//! let q = QueryBuilder::new(iolap::model::paper_example::schema())
//!     .at("Location", "West")
//!     .agg(AggFn::Sum)
//!     .build()
//!     .unwrap();
//! let west = aggregate_edb(&run.edb, &q).unwrap();
//! assert!(west.value > 0.0);
//! ```
//!
//! To see *where inside a run* the time and I/O go, attach an
//! observability handle ([`obs::Obs`]) before allocating — spans, counters
//! and histograms cover the pager, buffer pool, external sort and every
//! allocation phase, and [`core::RunReport::to_json`] /
//! [`core::RunReport::to_prometheus`] export the end-of-run totals.
//!
//! The layer crates stay importable for lower-level work:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`hierarchy`] | `iolap-hierarchy` | Hierarchical domains (Def. 1) |
//! | [`model`] | `iolap-model` | Facts, cells, regions, EDB records (Defs. 2–4) |
//! | [`storage`] | `iolap-storage` | Pager, buffer pool, external sort |
//! | [`obs`] | `iolap-obs` | Structured tracing + metrics |
//! | [`graph`] | `iolap-graph` | Summary tables, chain cover, partitions, ccid map |
//! | [`core`] | `iolap-core` | Policies + Basic/Independent/Block/Transitive |
//! | [`query`] | `iolap-query` | Allocation-weighted aggregation |
//! | [`datagen`] | `iolap-datagen` | The paper's datasets, synthesized |
//! | [`serve`] | `iolap-serve` | Concurrent HTTP query server over the EDB |

#![warn(missing_docs)]

mod error;
mod facade;

pub use error::{Error, ErrorKind, Result, ResultExt};
pub use facade::Iolap;

pub use iolap_core as core;
pub use iolap_datagen as datagen;
pub use iolap_graph as graph;
pub use iolap_hierarchy as hierarchy;
pub use iolap_model as model;
pub use iolap_obs as obs;
pub use iolap_query as query;
pub use iolap_serve as serve;
pub use iolap_storage as storage;

/// The single-import surface for applications: the [`Iolap`] entry point,
/// the run knobs, the query builders, and the observability handles.
pub mod prelude {
    pub use crate::error::{Error, ErrorKind, Result, ResultExt};
    pub use crate::facade::Iolap;
    pub use iolap_core::{
        allocate, Algorithm, AllocConfig, AllocConfigBuilder, AllocationRun, PolicySpec, RunReport,
    };
    pub use iolap_model::{Fact, FactTable, Schema};
    pub use iolap_obs::{JsonlSink, Metrics, Obs, RingSink};
    pub use iolap_query::{aggregate_edb, pivot, rollup, AggFn, QueryBuilder};
    pub use iolap_serve::{
        ServeConfig, ServeConfigBuilder, ServeError, Server, ServerBuilder, ServerHandle,
    };
}
