//! # iolap-query
//!
//! OLAP aggregation over the Extended Database.
//!
//! The point of allocation (per the companion paper \[5\]) is that once the
//! EDB exists, aggregation queries over imprecise data reduce to ordinary
//! weighted aggregation: a query region `q` receives, from every fact `r`,
//! the fraction `Σ_{c ∈ q} p_{c,r}` of `r`'s mass. This crate provides
//!
//! * [`Query`] / [`QueryBuilder`] — a region (one hierarchy node per
//!   dimension) plus an aggregate ([`AggFn`]);
//! * [`aggregate_edb`] — allocation-weighted SUM / COUNT / AVERAGE over an
//!   EDB;
//! * [`aggregate_classical`] — the classical alternatives ([`Classical`]:
//!   `None` ignores imprecise facts, `Contains` counts them only when
//!   fully inside `q`, `Overlaps` counts them whenever they intersect
//!   `q`), used as baselines in the examples;
//! * [`planner`] — the lattice-aware planner that answers aggregates and
//!   rollups from the coarsest covering materialized cuboid
//!   (`iolap_core::CuboidLattice`), leaf-scanning only the
//!   partial-overlap residue, with a forced-leaf verification mode that
//!   is f64-bit-identical by construction.

#![warn(missing_docs)]

pub mod agg;
pub mod builder;
pub mod pivot;
pub mod planner;
pub mod rollup;

pub use agg::{
    aggregate_classical, aggregate_edb, aggregate_edb_stats, AggFn, AggResult, Classical,
};
pub use builder::{Query, QueryBuilder};
pub use pivot::{pivot, Pivot};
pub use planner::{
    plan_aggregate, plan_aggregate_views, plan_rollup, plan_rollup_views, PlanMode, PlanStats,
};
pub use rollup::{drilldown, render_rollup, rollup, RollupRow};
