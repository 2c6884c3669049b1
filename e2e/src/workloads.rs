//! The five workloads. Each is the same life cycle — set up, then rounds
//! of reading, posting a share of a fixed tail of update batches,
//! allocating and restarting on the write-ahead log — with a different
//! dataset and traffic, so every end-to-end metric exists on every
//! workload and each layer has one workload that leans on it and one
//! that bypasses it.

use iolap_datagen::DatasetKind;

/// The read traffic of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The ~60-request hot set, cycled: every request a cache hit.
    HotPoints,
    /// Distinct seeded boxes: every request a cache miss and a scan.
    ColdDice,
    /// `/rollup` at coarse levels: answered from the cuboid lattice.
    CoarseRollups,
}

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub dataset: DatasetKind,
    pub facts: u64,
    /// EM-Count convergence threshold.
    pub epsilon: f64,
    pub stream: Stream,
    /// `/update` batches per second posted beside the reads, on a fixed
    /// open-loop schedule; 0 = the reads run alone.
    pub mixed_write_rate: f64,
    /// Share of `--seconds` spent repeating the out-of-core allocation
    /// instead of reading.
    pub alloc_share: f64,
}

/// Seed of every dataset and of the tail's update batches. `--seed`
/// drives the traffic — boxes, dices, the mixed stream — while the data
/// and the tail are fixed work, so that the counts (`alloc_io_pages`,
/// `edb_bytes_per_entry`) repeat exactly and set-up, allocation and
/// restart cost do not move with the seed.
pub const DATA_SEED: u64 = 42;

/// Update batches of the fixed tail, an equal share posted in each round
/// by one closed-loop writer with nothing beside it. Fixed work, so the
/// logs the restarts replay hold the same batches on both sides of a
/// comparison.
pub const TAIL_BATCHES: usize = 24;

/// Every workload, in ledger order.
pub fn all() -> Vec<Spec> {
    let base = Spec {
        name: "",
        why: "",
        dataset: DatasetKind::Automotive,
        facts: 60_000,
        epsilon: 0.01,
        stream: Stream::HotPoints,
        mixed_write_rate: 0.0,
        alloc_share: 0.0,
    };
    vec![
        Spec {
            name: "point_cached",
            why: "hot set that fits the result cache: http, wire, cache and reactor do all the \
                  work, segments and planner none; the bypass workload for storage and decode \
                  changes",
            ..base.clone()
        },
        Spec {
            name: "dice_cold",
            why: "distinct seeded boxes, working set far above the cache: fence prune, page \
                  decode and accumulate dominate and the cache only misses, inserts and evicts",
            stream: Stream::ColdDice,
            ..base.clone()
        },
        Spec {
            name: "rollup_coarse",
            why: "uncached /rollup at the coarsest levels: the cuboid lattice and planner \
                  answer the core and leaf scans only the residue, so page decode does little",
            stream: Stream::CoarseRollups,
            ..base.clone()
        },
        Spec {
            name: "ingest_mixed",
            why: "the hot-set reader beside a fixed-rate /update stream: invalidation, folds, \
                  lattice upkeep and background compaction take the reader's CPU; the one \
                  workload with contention",
            mixed_write_rate: 3.0,
            ..base.clone()
        },
        Spec {
            name: "alloc_build",
            why: "the paper's experiment: Transitive allocation of the Synthetic dataset through \
                  a 4 MiB buffer pool far below the data; pager, pool and external sort do the \
                  work, serving is a short tail",
            dataset: DatasetKind::Synthetic,
            epsilon: 0.005,
            alloc_share: 0.5,
            ..base
        },
    ]
}
