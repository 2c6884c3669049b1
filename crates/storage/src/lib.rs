//! # iolap-storage
//!
//! Paged storage substrate for the imprecise-OLAP allocation algorithms of
//! Burdick et al., *"Efficient Allocation Algorithms for OLAP Over Imprecise
//! Data"* (VLDB 2006).
//!
//! The paper evaluates its algorithms by their disk-I/O behaviour under a
//! restricted buffer pool (Section 11: "All algorithms were implemented as
//! stand-alone Java applications with memory limited to a restricted buffer
//! pool"). This crate provides the equivalent substrate:
//!
//! * [`pager`] — a page-granular storage device abstraction with exact I/O
//!   accounting ([`IoStats`]), backed by real files ([`FilePager`]) or memory
//!   ([`MemPager`]).
//! * [`buffer`] — a pin-count buffer pool with CLOCK eviction and dirty
//!   write-back, shared across the files of one [`Env`].
//! * [`mod@file`] — typed fixed-width record files ([`RecordFile`]) layered on
//!   the buffer pool, with sequential scan/append cursors.
//! * [`extsort`] — a two-pass external merge sort (quicksorted runs + k-way
//!   merge), the cost model assumed by the paper's Theorems 6, 7 and 10
//!   ("we make the standard assumption that external sort requires two
//!   passes over a relation").
//!
//! The default page size is 4 KiB, matching the paper's experimental setup
//! ("We set the page size to 4KB, and each tuple was 40 bytes in size").
//!
//! ```
//! use iolap_storage::{Env, RecordFile, codec::U64Codec};
//!
//! let env = Env::new_temp("doc-quickstart").unwrap();
//! let mut f: RecordFile<u64, U64Codec> = env.create_file("numbers", U64Codec).unwrap();
//! for i in 0..10_000u64 {
//!     f.push(&i).unwrap();
//! }
//! assert_eq!(f.len(), 10_000);
//! assert_eq!(f.get(1234).unwrap(), 1234);
//! f.flush().unwrap();
//! assert!(env.stats().writes() > 0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod codec;
pub mod error;
pub mod extsort;
pub mod file;
pub mod pager;
pub mod segfile;
pub mod stats;
pub mod tempdir;
pub mod wal;

mod env;
mod fnv;

pub use buffer::{BufferPool, Reservation, ShardStats};
pub use codec::Codec;
pub use env::{Env, EnvBuilder};
pub use error::{Result, StorageError};
pub use extsort::{external_sort, ExternalSorter, SortBudget};
pub use file::{RecordFile, ScanCursor};
pub use fnv::{fnv1a64, Fnv1a, Fnv1a64Legacy};
pub use pager::{FilePager, MemPager, ObservedPager, PageId, Pager, PAGE_SIZE};
pub use stats::{IoSnapshot, IoStats};
pub use tempdir::TempDir;
pub use wal::{Wal, WalRecovery};
