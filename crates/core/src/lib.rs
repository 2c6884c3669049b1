//! # iolap-core
//!
//! The paper's primary contribution: scalable algorithms that apply an
//! *allocation policy* to an imprecise fact table and materialize the
//! **Extended Database** (Burdick et al., VLDB 2006).
//!
//! ## The template (Definition 5)
//!
//! Every allocation policy instantiates one pair of update equations over
//! the bipartite allocation graph between cells `c` and imprecise facts
//! `r`:
//!
//! ```text
//! Γ⁽ᵗ⁾(r) = Σ_{c ∈ reg(r)} Δ⁽ᵗ⁻¹⁾(c)                   (E-step)
//! Δ⁽ᵗ⁾(c) = δ(c) + Σ_{r : c ∈ reg(r)} Δ⁽ᵗ⁻¹⁾(c)/Γ⁽ᵗ⁾(r) (M-step)
//! p_{c,r} = Δ⁽ᵗ⁾(c) / Γ⁽ᵗ⁾(r)
//! ```
//!
//! [`PolicySpec`] picks the allocation quantity δ (Count / Measure /
//! Uniform), the candidate cell set, and the convergence control; the
//! non-iterative policies of the companion paper (uniform, count-based,
//! measure-based) are the zero-iteration special case.
//!
//! ## The algorithms
//!
//! * [`basic`] — Algorithm 1 (in-memory reference) and Algorithm 2
//!   (Partitioned Basic), straight from the pseudocode.
//! * [`independent`] — Algorithm 3: one chain of the summary-table partial
//!   order per scan, re-sorting `C` per chain per iteration
//!   (Theorem 6: `7T(W·|C| + |I|)` I/Os).
//! * [`block`] — Algorithm 4: one canonical sort, partition windows per
//!   summary table, bin-packed table sets
//!   (Theorem 7: `3T(|S|·|C| + |I|)` I/Os).
//! * [`transitive`] — Algorithm 5: identify connected components with the
//!   in-memory `ccidMap`, sort by component, then allocate each component
//!   independently across **all** iterations — in memory if it fits, via
//!   Block if not (Theorem 10).
//! * [`maintain`] — Section 9: incremental EDB maintenance; the components
//!   an update overlaps are found by exact in-memory lookups (the cell
//!   index, a position → cell-file table, a dims → facts map), not the
//!   paper's R-tree over their bounding boxes.
//!
//! ```no_run
//! use iolap_core::{allocate, Algorithm, AllocConfig, PolicySpec};
//! use iolap_model::paper_example;
//!
//! let table = paper_example::table1();
//! let policy = PolicySpec::em_count(0.005);
//! let cfg = AllocConfig::default();
//! let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
//! assert_eq!(run.edb.num_facts_allocated(), 14);
//! println!("{}", run.report);
//! ```

#![warn(missing_docs)]

pub mod basic;
pub mod block;
pub mod cuboid;
pub mod edb;
pub mod error;
pub mod estimate;
pub mod independent;
pub mod ingest;
pub mod inmem;
pub mod maintain;
pub mod passes;
pub mod policy;
pub mod prep;
pub mod report;
pub mod runner;
pub mod segment;
pub mod transitive;

pub use cuboid::{Cuboid, CuboidCell, CuboidLattice, Grain, LatticeConfig, SegLattice};
pub use edb::ExtendedDatabase;
pub use error::{CoreError, Result};
pub use estimate::{plan, PlanEstimate};
pub use ingest::{MutationRecovery, MutationWal};
pub use maintain::{CompactionPlan, CompactionResult, MaintainableEdb, UpdateReport};
pub use policy::{CandidateCells, Convergence, PolicySpec, Quantity};
pub use prep::{prepare, PreparedData};
pub use report::{ComponentStats, RunReport};
pub use runner::{
    allocate, allocate_in_env, Algorithm, AllocConfig, AllocConfigBuilder, AllocationRun,
};
pub use segment::{accumulate_region, EdbSegment, SegScanStats, SegmentCursor, SegmentView};
