//! # iolap-bench
//!
//! The benchmark harness reproducing every table and figure of Section 11
//! of Burdick et al. (VLDB 2006). One binary per experiment:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table2` | Table 2 — dataset dimension characteristics |
//! | `fig5_inmem` | Figures 5a–b — in-memory CPU time vs iterations |
//! | `fig5_buffer` | Figures 5c–h — time vs buffer size at several ε |
//! | `fig5_scale` | Figures 5i–j — 5M-tuple scalability sweep |
//! | `fig6_maintenance` | Figure 6 — update time / rebuild time ratios |
//!
//! Shared flags: `--facts N` scales the dataset (default: laptop-scale;
//! pass `--paper-scale` for the publication sizes), `--seed S` for
//! reproducibility, `--dataset automotive|synthetic` where applicable,
//! and `--trace-out PATH` to write a JSONL span/metric trace of every
//! run (see the `iolap-obs` crate).
//! Results print as aligned text tables; EXPERIMENTS.md records a full
//! set of measured outputs next to the paper's numbers.
//!
//! These binaries report the paper's accounted page I/O; wall-clock
//! claims about the serving stack are made only through the `e2e/`
//! ledger (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod cli;
pub mod runs;

pub use cli::Args;
pub use runs::{bench_config, run_once, Json, OnePoint};
