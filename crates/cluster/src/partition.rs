//! The leaf-interval range partitioner: split a dataset into shard
//! directories a serving cluster can host.
//!
//! Allocation is *global* — an imprecise fact's weight depends on every
//! other fact in its transitive component (Section 6 of the paper), so a
//! shard cannot allocate a subset of the facts and still agree with its
//! peers. Each shard directory therefore carries the **full** dataset
//! CSVs; every shard process rebuilds the identical Extended Database
//! deterministically (single-threaded Transitive allocation) and what the
//! manifest partitions is the *answer space*: a contiguous interval of
//! dimension-0 leaf ids that this shard is responsible for scanning.
//!
//! The router clips each query box to a shard's interval before fanning
//! out, so shards scan disjoint dim0 slabs whose chunk lists concatenate
//! into the canonical single-node answer (see
//! [`iolap_core::accumulate_region_parts`] — chunks never straddle a
//! dim0 cut). The fence box (bounding box of built entries inside the
//! interval) lets the router prune whole shards the way Theorem 12's
//! contrapositive prunes pages.

use iolap_core::{allocate, Algorithm, AllocConfig, MaintainableEdb, PolicySpec, SegmentCursor};
use iolap_model::csv::{read_dataset, write_dataset};
use iolap_model::manifest::FingerprintHasher;
use iolap_model::{ClusterManifest, FactTable, RegionBox, Schema, ShardManifest, MAX_DIMS};
use std::path::Path;
use std::sync::Arc;

/// FNV-1a over the dataset's deterministic content: every fact's id,
/// leaf coordinates, and measure bits, plus the dimension count. Shards
/// built from the same table agree; the router refuses to mix others.
pub fn dataset_fingerprint(schema: &Schema, table: &FactTable) -> u64 {
    let mut h = FingerprintHasher::new();
    let mut eat = |x: u64| h.write(&x.to_le_bytes());
    eat(schema.k() as u64);
    for f in table.facts() {
        eat(f.id);
        for d in 0..schema.k() {
            eat(u64::from(f.dims[d]));
        }
        eat(f.measure.to_bits());
    }
    h.finish()
}

/// Partition the dataset in `data` into `shards` shard directories under
/// `out` (`shard0000`, `shard0001`, …), each a complete single-node
/// dataset plus a `shard.json`, and write the `cluster.json` topology.
/// Returns the cluster manifest.
///
/// Cut points are entry-balanced: the partitioner builds the EDB once
/// (exactly as every shard process will), histograms entries per
/// dimension-0 leaf, and walks prefix sums so each shard owns roughly
/// `total / shards` entries. Leaf-skewed datasets degrade gracefully —
/// a shard can own an empty interval and serves zero chunks.
pub fn partition_dataset(
    data: &Path,
    out: &Path,
    shards: usize,
    policy: &PolicySpec,
    alloc: &AllocConfig,
) -> Result<ClusterManifest, String> {
    if shards == 0 {
        return Err("shards must be >= 1".into());
    }
    let (schema, table) = read_dataset(data)?;
    let fingerprint = dataset_fingerprint(&schema, &table);
    let k = schema.k();

    // Build the same EDB every shard will build, and histogram its
    // entries along dimension 0.
    let run = allocate(&table, policy, Algorithm::Transitive, alloc)
        .map_err(|e| format!("allocation failed: {e}"))?;
    let mut medb = MaintainableEdb::build(run, policy.clone())
        .map_err(|e| format!("building maintainable EDB: {e}"))?;
    let views = medb.snapshot_segments().map_err(|e| format!("snapshotting segments: {e}"))?;

    let dim0 = schema.dim(0);
    let n0 = dim0.leaf_range(dim0.all()).end;
    let mut hist = vec![0u64; n0 as usize];
    let mut cursor = SegmentCursor::new(&views, SegmentCursor::all_region(k));
    cursor.for_each(|e| hist[e.cell[0] as usize] += 1).map_err(|e| format!("scanning EDB: {e}"))?;
    let total: u64 = hist.iter().sum();

    // Entry-balanced prefix cuts: shard i ends at the first leaf whose
    // prefix sum reaches (i+1)/shards of the total (always advancing at
    // least the remaining-leaves-per-remaining-shard floor so every
    // shard gets an interval even when entries concentrate early).
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0u32);
    let mut acc = 0u64;
    let mut leaf = 0u32;
    for i in 1..shards {
        let target = total * i as u64 / shards as u64;
        while leaf < n0 && (acc < target || leaf < cuts[i - 1]) {
            acc += hist[leaf as usize];
            leaf += 1;
        }
        cuts.push(leaf.max(cuts[i - 1]));
    }
    cuts.push(n0);

    let mut manifests = Vec::with_capacity(shards);
    for i in 0..shards {
        let (lo, hi) = (cuts[i], cuts[i + 1]);
        let (fence, entries) = interval_fence(&views, k, lo, hi)?;
        let m = ShardManifest { index: i, shards, k, lo, hi, fence, entries, fingerprint };
        let dir = out.join(shard_dir_name(i));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write_dataset(&table, &dir).map_err(|e| format!("writing {}: {e}", dir.display()))?;
        m.save(&dir).map_err(|e| format!("writing shard.json in {}: {e}", dir.display()))?;
        manifests.push(m);
    }
    let cluster = ClusterManifest { k, fingerprint, shards: manifests };
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    cluster.save(out).map_err(|e| format!("writing cluster.json: {e}"))?;
    Ok(cluster)
}

/// The canonical shard directory name for index `i`.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard{i:04}")
}

/// Load the schema a cluster was partitioned over (from shard 0's copy
/// of the dataset — every shard carries an identical one).
pub fn cluster_schema(cluster_dir: &Path) -> Result<Arc<Schema>, String> {
    let (schema, _) = read_dataset(&cluster_dir.join(shard_dir_name(0)))?;
    Ok(schema)
}

/// Bounding box and entry count of the built entries whose dim0 leaf
/// falls in `[lo, hi)`; `(None, 0)` when the interval holds none.
fn interval_fence(
    views: &[iolap_core::SegmentView],
    k: usize,
    lo: u32,
    hi: u32,
) -> Result<(Option<RegionBox>, u64), String> {
    let mut min = [u32::MAX; MAX_DIMS];
    let mut max = [0u32; MAX_DIMS];
    let mut entries = 0u64;
    let mut cursor = SegmentCursor::new(views, SegmentCursor::all_region(k));
    cursor
        .for_each(|e| {
            if e.cell[0] < lo || e.cell[0] >= hi {
                return;
            }
            entries += 1;
            for d in 0..k {
                min[d] = min[d].min(e.cell[d]);
                max[d] = max[d].max(e.cell[d]);
            }
        })
        .map_err(|e| format!("scanning EDB: {e}"))?;
    if entries == 0 {
        return Ok((None, 0));
    }
    let mut lo_box = [0u32; MAX_DIMS];
    let mut hi_box = [0u32; MAX_DIMS];
    for d in 0..k {
        lo_box[d] = min[d];
        hi_box[d] = max[d] + 1; // half-open
    }
    Ok((Some(RegionBox { lo: lo_box, hi: hi_box, k: k as u8 }), entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_model::paper_example;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("iolap-cluster-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn partition_writes_complete_shard_dirs() {
        let base = tmpdir("partition");
        let data = base.join("data");
        std::fs::create_dir_all(&data).unwrap();
        write_dataset(&paper_example::table1(), &data).unwrap();
        let out = base.join("cluster");

        let policy = PolicySpec::em_count(0.01);
        let alloc = AllocConfig::builder().in_memory(256).build();
        let c = partition_dataset(&data, &out, 2, &policy, &alloc).unwrap();
        assert_eq!(c.shards.len(), 2);
        assert_eq!(c.k, 2);

        // Every shard dir is a loadable single-node dataset with a
        // manifest agreeing with cluster.json, and the intervals tile
        // the dim0 leaf axis.
        let reloaded = ClusterManifest::load(&out).unwrap();
        assert_eq!(reloaded, c);
        let mut covered = 0u32;
        for (i, m) in c.shards.iter().enumerate() {
            assert_eq!(m.lo, covered, "intervals tile without gaps");
            covered = m.hi;
            let dir = out.join(shard_dir_name(i));
            let (schema, table) = read_dataset(&dir).unwrap();
            assert_eq!(schema.k(), 2);
            assert_eq!(table.len(), paper_example::table1().len());
            assert_eq!(ShardManifest::load(&dir).unwrap(), *m);
            if let Some(f) = &m.fence {
                assert!(f.lo[0] >= m.lo && f.hi[0] <= m.hi, "fence clipped to interval");
            }
        }
        assert_eq!(covered, 4, "paper example has 4 dim0 leaves");
        let entries: u64 = c.shards.iter().map(|m| m.entries).sum();
        assert!(entries > 0, "paper example builds a nonempty EDB");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn oversharded_partition_yields_empty_tail_shards() {
        let base = tmpdir("oversharded");
        let data = base.join("data");
        std::fs::create_dir_all(&data).unwrap();
        write_dataset(&paper_example::table1(), &data).unwrap();
        let policy = PolicySpec::em_count(0.01);
        let alloc = AllocConfig::builder().in_memory(256).build();
        // 8 shards over 4 leaves: some intervals must be empty, and the
        // manifest still validates (disjoint ascending, dense indexes).
        let c = partition_dataset(&data, &base.join("cluster"), 8, &policy, &alloc).unwrap();
        assert_eq!(c.shards.len(), 8);
        assert!(c.shards.iter().any(|m| m.lo == m.hi || m.fence.is_none()));
        assert_eq!(c.shards.last().unwrap().hi, 4);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let t1 = paper_example::table1();
        let s = paper_example::schema();
        let a = dataset_fingerprint(&s, &t1);
        // Pinned: shard manifests written by earlier builds carry this value.
        assert_eq!(a, 0x1292_993b_b283_2cb0);
        let mut t2 = paper_example::table1();
        t2.facts_mut()[0].measure += 1.0;
        assert_ne!(a, dataset_fingerprint(&s, &t2));
    }
}
