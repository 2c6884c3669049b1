//! # iolap-model
//!
//! The data model of Burdick et al. (VLDB 2006): fact-table schemas and
//! instances (Definition 2), cells and regions (Definition 3), and the
//! Extended Data Model records (Definition 4), plus fixed-width on-disk
//! codecs for all of them.
//!
//! A fact assigns each dimension attribute a *node* of that dimension's
//! hierarchical domain. Leaf nodes in every dimension make the fact
//! *precise* (it maps to a single cell); any internal node makes it
//! *imprecise* (it maps to a k-dimensional region — a product of leaf-id
//! intervals, thanks to the DFS leaf numbering of `iolap-hierarchy`).
//!
//! ```
//! use iolap_model::paper_example;
//!
//! // Table 1 of the paper: 5 precise + 9 imprecise facts.
//! let table = paper_example::table1();
//! assert_eq!(table.len(), 14);
//! assert_eq!(table.num_precise(), 5);
//! assert_eq!(table.num_imprecise(), 9);
//! ```

#![warn(missing_docs)]

pub mod csv;
pub mod fact;
pub mod paper_example;
pub mod records;
pub mod region;
pub mod schema;
pub mod segment_meta;
pub mod segment_page;
pub mod table;

pub use fact::{Fact, FactId, LevelVec};
pub use records::{
    CellCodec, CellRecord, EdbCodec, EdbRecord, FactCodec, WorkFactCodec, WorkFactRecord,
};
pub use region::{cmp_cells, CellKey, RegionBox};
pub use schema::Schema;
pub use segment_meta::{canonical_sort_key, PageFence, SegmentFooter, SegmentStats};
pub use segment_page::{
    decode_page, encode_page, PageBuilder, PageScratch, PageSelect, MAX_V2_PAGE_BYTES,
};
pub use table::FactTable;

/// Maximum number of dimensions supported by the fixed-width records.
///
/// The paper's datasets have 2 (running example) and 4 (evaluation)
/// dimensions; 8 leaves headroom without bloating records.
pub const MAX_DIMS: usize = 8;
