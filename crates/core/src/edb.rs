//! The Extended Database (Definition 4) and its materialization.
//!
//! After the allocation fixpoint, each imprecise fact `r` gets one entry
//! `⟨ID(r), c, p_{c,r}⟩` per covered cell with `p_{c,r} > 0`, where
//! `p_{c,r} = Δ(c)/Γ(r)` and `Γ(r)` is recomputed from the *final* Δ
//! values so each fact's weights sum to exactly 1. Precise facts get a
//! single weight-1 entry.

use crate::cuboid::{CuboidLattice, LatticeConfig};
use crate::error::Result;
use crate::passes::{AncCache, GroupWindow, OnLoad};
use crate::prep::PreparedData;
use crate::segment::{EdbSegment, SegScanStats, SegmentView};
use iolap_model::{EdbCodec, EdbRecord, FactId, Schema, MAX_DIMS};
use iolap_storage::RecordFile;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Lock a mutex, recovering the value from a poisoned lock (all guarded
/// state here is a plain cache — a panic mid-update cannot corrupt it
/// beyond "rebuild on next read").
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-fact `(cell, weight)` entries, as returned by
/// [`ExtendedDatabase::weight_map`].
pub type WeightMap = HashMap<FactId, Vec<([u32; MAX_DIMS], f64)>>;

/// The materialized Extended Database.
pub struct ExtendedDatabase {
    file: RecordFile<EdbRecord, EdbCodec>,
    num_precise_entries: u64,
    num_imprecise_entries: u64,
    facts_allocated: u64,
    /// Lazily built segment view of the entries (invalidated on write).
    /// Behind a mutex so read-only query paths can share `&self`.
    segments: Mutex<Option<Vec<SegmentView>>>,
    /// Lazily built cuboid lattice over the segment view (invalidated
    /// together with `segments`).
    lattice: Mutex<Option<Arc<CuboidLattice>>>,
    /// Selection budget for [`ExtendedDatabase::lattice`].
    lattice_cfg: LatticeConfig,
    /// Cumulative cursor counters from segment scans over this EDB.
    segment_io: Mutex<SegScanStats>,
    /// Observability handle inherited from the env (disabled = free).
    obs: iolap_obs::Obs,
}

impl ExtendedDatabase {
    /// An empty EDB stored in `env`.
    pub fn create(env: &iolap_storage::Env, k: usize) -> Result<Self> {
        let file = env.create_file("edb", EdbCodec { k })?;
        Ok(ExtendedDatabase {
            file,
            num_precise_entries: 0,
            num_imprecise_entries: 0,
            facts_allocated: 0,
            segments: Mutex::new(None),
            lattice: Mutex::new(None),
            lattice_cfg: LatticeConfig::default(),
            segment_io: Mutex::new(SegScanStats::default()),
            obs: env.obs().clone(),
        })
    }

    /// Drop the cached segment view and lattice (any write invalidates
    /// both).
    fn invalidate_caches(&mut self) {
        *lock(&self.segments) = None;
        *lock(&self.lattice) = None;
    }

    /// Set the storage budget for the lazily built cuboid lattice.
    /// Invalidates any cached lattice.
    pub fn set_lattice_config(&mut self, cfg: LatticeConfig) {
        self.lattice_cfg = cfg;
        *lock(&self.lattice) = None;
    }

    /// The lattice selection budget in force.
    pub fn lattice_config(&self) -> LatticeConfig {
        self.lattice_cfg
    }

    /// Append one entry. `first_for_fact` must be true exactly once per
    /// originating fact (keeps the distinct-fact counter cheap).
    pub fn push(&mut self, rec: &EdbRecord, precise: bool, first_for_fact: bool) -> Result<()> {
        self.file.push(rec)?;
        self.invalidate_caches();
        if precise {
            self.num_precise_entries += 1;
        } else {
            self.num_imprecise_entries += 1;
        }
        if first_for_fact {
            self.facts_allocated += 1;
        }
        Ok(())
    }

    /// The immutable segment view of the current entries: one base
    /// [`EdbSegment`] holding every entry in canonical cell order, built
    /// lazily (one accounted scan of the entry file) and cached until the
    /// next write. All query-crate aggregation runs over this view. Takes
    /// `&self`: scans are read-only since the segment layer, so snapshots
    /// and concurrent readers never need an exclusive borrow.
    pub fn segments(&self) -> Result<Vec<SegmentView>> {
        let mut guard = lock(&self.segments);
        if guard.is_none() {
            let n = self.file.len();
            let k = self.file.codec().k;
            let mut entries = Vec::with_capacity(n as usize);
            for i in 0..n {
                entries.push(self.file.get(i)?);
            }
            let seg = Arc::new(EdbSegment::build(k, entries));
            if let Some(g) = self.obs.gauge("edb.compression_ratio") {
                // Milli-ratio: 1000 = uncompressed, 1700 = 1.7× smaller.
                g.set((seg.compression_ratio() * 1000.0) as i64);
            }
            let views = vec![SegmentView::new(seg)];
            if let Some(g) = self.obs.gauge("edb.segments") {
                g.set(views.len() as i64);
            }
            *guard = Some(views);
        }
        Ok(guard.as_ref().expect("just built").clone())
    }

    /// The lazily built cuboid lattice over [`ExtendedDatabase::segments`],
    /// cached until the next write. `schema` must be the schema this EDB
    /// was materialized under (the planner passes the same one it
    /// aggregates with).
    pub fn lattice(&self, schema: &Schema) -> Result<Arc<CuboidLattice>> {
        let mut guard = lock(&self.lattice);
        if guard.is_none() {
            let views = self.segments()?;
            let lat = CuboidLattice::build(schema, &views, self.lattice_cfg)?;
            if let Some(g) = self.obs.gauge("edb.cuboid_bytes") {
                g.set(lat.encoded_bytes() as i64);
            }
            *guard = Some(Arc::new(lat));
        }
        Ok(Arc::clone(guard.as_ref().expect("just built")))
    }

    /// Record one segment scan's page counters (called by the query crate
    /// after each pruned aggregation) into this EDB's running totals and
    /// the `edb.pages_read` / `edb.pages_pruned` obs counters.
    pub fn note_segment_scan(&self, stats: SegScanStats) {
        lock(&self.segment_io).absorb(stats);
        if let Some(c) = self.obs.counter("edb.pages_read") {
            c.add(stats.pages_read);
        }
        if let Some(c) = self.obs.counter("edb.pages_pruned") {
            c.add(stats.pages_pruned);
        }
        if let Some(c) = self.obs.counter("edb.bytes_read") {
            c.add(stats.bytes_read);
        }
    }

    /// Record one planner lattice consult (`hits` views answered from a
    /// cuboid, `misses` views that fell back to a pure leaf scan) into the
    /// `edb.cuboid_hits` / `edb.cuboid_misses` obs counters.
    pub fn note_cuboid_lookup(&self, hits: u64, misses: u64) {
        if let Some(c) = self.obs.counter("edb.cuboid_hits") {
            c.add(hits);
        }
        if let Some(c) = self.obs.counter("edb.cuboid_misses") {
            c.add(misses);
        }
    }

    /// Cumulative page counters over all segment scans of this EDB.
    pub fn segment_io(&self) -> SegScanStats {
        *lock(&self.segment_io)
    }

    /// Total entries.
    pub fn num_entries(&self) -> u64 {
        self.file.len()
    }

    /// Entries originating from precise facts (always weight 1).
    pub fn num_precise_entries(&self) -> u64 {
        self.num_precise_entries
    }

    /// Entries originating from imprecise facts.
    pub fn num_imprecise_entries(&self) -> u64 {
        self.num_imprecise_entries
    }

    /// Number of distinct facts with at least one entry.
    pub fn num_facts_allocated(&self) -> u64 {
        self.facts_allocated
    }

    /// Stream every entry.
    pub fn for_each(&mut self, mut f: impl FnMut(&EdbRecord)) -> Result<()> {
        let mut cursor = self.file.scan();
        while let Some(rec) = cursor.next()? {
            f(&rec);
        }
        Ok(())
    }

    /// Collect entries grouped by fact id (tests / small data only).
    pub fn weight_map(&mut self) -> Result<WeightMap> {
        let mut m: WeightMap = HashMap::new();
        self.for_each(|e| m.entry(e.fact_id).or_default().push((e.cell, e.weight)))?;
        Ok(m)
    }

    /// Check Definition 4's invariant: per-fact weights sum to 1 (within
    /// `tol`) and every weight is strictly positive. Returns the number of
    /// facts checked.
    pub fn validate_weights(&mut self, tol: f64) -> Result<std::result::Result<u64, String>> {
        let mut sums: HashMap<FactId, f64> = HashMap::new();
        let mut bad: Option<String> = None;
        self.for_each(|e| {
            if e.weight <= 0.0 && bad.is_none() {
                bad = Some(format!("fact {} has non-positive weight {}", e.fact_id, e.weight));
            }
            *sums.entry(e.fact_id).or_insert(0.0) += e.weight;
        })?;
        if let Some(msg) = bad {
            return Ok(Err(msg));
        }
        for (id, s) in &sums {
            if (s - 1.0).abs() > tol {
                return Ok(Err(format!("fact {id} weights sum to {s}")));
            }
        }
        Ok(Ok(sums.len() as u64))
    }

    /// Persist all entries to `path` as a flat binary file (a 16-byte
    /// header + fixed-width records), loadable with
    /// [`ExtendedDatabase::load`]. The EDB files inside an
    /// [`iolap_storage::Env`] are session-scoped; this is the hand-off
    /// format for query-only consumers.
    pub fn save(&mut self, path: impl AsRef<std::path::Path>, k: usize) -> Result<()> {
        use std::io::Write;
        let f = std::fs::File::create(path.as_ref())
            .map_err(|e| iolap_storage::StorageError::io("creating EDB export", e))?;
        let mut w = std::io::BufWriter::new(f);
        let codec = EdbCodec { k };
        let mut header = [0u8; 16];
        header[..4].copy_from_slice(b"EDB1");
        header[4..8].copy_from_slice(&(k as u32).to_le_bytes());
        header[8..16].copy_from_slice(&self.file.len().to_le_bytes());
        w.write_all(&header)
            .map_err(|e| iolap_storage::StorageError::io("writing EDB header", e))?;
        let mut buf = vec![0u8; iolap_storage::Codec::<EdbRecord>::size(&codec)];
        let mut err = None;
        self.for_each(|rec| {
            iolap_storage::Codec::encode(&codec, rec, &mut buf);
            if err.is_none() {
                if let Err(e) = w.write_all(&buf) {
                    err = Some(iolap_storage::StorageError::io("writing EDB entry", e));
                }
            }
        })?;
        if let Some(e) = err {
            return Err(e.into());
        }
        w.flush().map_err(|e| iolap_storage::StorageError::io("flushing EDB export", e))?;
        Ok(())
    }

    /// Load an EDB exported by [`ExtendedDatabase::save`] into `env`.
    /// Returns the EDB and its dimension count.
    pub fn load(
        env: &iolap_storage::Env,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, usize)> {
        use std::io::Read;
        let f = std::fs::File::open(path.as_ref())
            .map_err(|e| iolap_storage::StorageError::io("opening EDB export", e))?;
        let mut r = std::io::BufReader::new(f);
        let mut header = [0u8; 16];
        r.read_exact(&mut header)
            .map_err(|e| iolap_storage::StorageError::io("reading EDB header", e))?;
        if &header[..4] != b"EDB1" {
            return Err(crate::error::CoreError::BadInput("not an EDB export".into()));
        }
        let k = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let n = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let codec = EdbCodec { k };
        let size = iolap_storage::Codec::<EdbRecord>::size(&codec);
        let mut edb = Self::create(env, k)?;
        let mut buf = vec![0u8; size];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            r.read_exact(&mut buf)
                .map_err(|e| iolap_storage::StorageError::io("reading EDB entry", e))?;
            let rec: EdbRecord = iolap_storage::Codec::decode(&codec, &buf);
            let first = seen.insert(rec.fact_id);
            // Weight-1 entries are precise by convention; close enough for
            // the reloaded counters (exact counts ride with the entries).
            let precise = rec.weight == 1.0;
            edb.push(&rec, precise, first)?;
        }
        Ok((edb, k))
    }

    /// Free the entry file: its buffered pages are dropped without
    /// write-back and its backing file is removed. Maintenance calls this
    /// once the entries live in its base segment tier.
    pub fn delete(self) -> Result<()> {
        Ok(self.file.delete()?)
    }
}

/// Outcome counters of [`materialize`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MaterializeStats {
    /// Imprecise facts that produced at least one entry.
    pub imprecise_allocated: u64,
    /// Imprecise facts with no covered cell (no entries).
    pub uncovered: u64,
    /// Facts that needed the uniform Γ=0 fallback.
    pub zero_gamma: u64,
}

/// Materialize the EDB from a prepared dataset whose cell deltas hold the
/// final fixpoint (Block/Independent/Basic path; the Transitive algorithm
/// emits per component instead).
///
/// Two window passes over `C` per table set: pass A recomputes the final
/// Γ(r) (and per-fact covered-cell counts for the Γ=0 fallback); pass B
/// emits the entries. `emit_precise` additionally streams the weight-1
/// entries of the precise facts.
pub fn materialize(
    prep: &mut PreparedData,
    sets: &[Vec<usize>],
    edb: &mut ExtendedDatabase,
    emit_precise: bool,
) -> Result<MaterializeStats> {
    let schema = prep.schema.clone();
    let mut covered_count: Vec<u32> = vec![0; prep.facts.len() as usize];
    let mut stats = MaterializeStats::default();

    // Pass A: final Γ per fact.
    for set in sets {
        let mut windows: Vec<GroupWindow> = set
            .iter()
            .map(|&ti| GroupWindow::new(prep.tables[ti].clone(), OnLoad::ResetGamma))
            .collect();
        for i in 0..prep.cells.len() {
            let cell = prep.cells.get(i)?;
            let anc = AncCache::compute(&schema, &cell.key);
            for w in &mut windows {
                w.advance(i, &mut prep.facts, &schema)?;
                w.for_each_match(&anc, schema.k(), |af| {
                    af.rec.gamma += cell.delta;
                    covered_count[af.file_idx as usize] += 1;
                    af.dirty = true;
                });
            }
        }
        for w in &mut windows {
            w.flush(&mut prep.facts)?;
        }
    }

    // Pass B: emit entries. Track first-emission per fact for the
    // distinct-fact counter.
    let mut emitted: Vec<bool> = vec![false; prep.facts.len() as usize];
    for set in sets {
        let mut windows: Vec<GroupWindow> =
            set.iter().map(|&ti| GroupWindow::new(prep.tables[ti].clone(), OnLoad::Keep)).collect();
        for i in 0..prep.cells.len() {
            let cell = prep.cells.get(i)?;
            let anc = AncCache::compute(&schema, &cell.key);
            for w in &mut windows {
                w.advance(i, &mut prep.facts, &schema)?;
                let mut pending: Vec<(u64, EdbRecord)> = Vec::new();
                w.for_each_match(&anc, schema.k(), |af| {
                    let weight = if af.rec.gamma > 0.0 {
                        cell.delta / af.rec.gamma
                    } else {
                        1.0 / covered_count[af.file_idx as usize].max(1) as f64
                    };
                    if weight > 0.0 {
                        pending.push((
                            af.file_idx,
                            EdbRecord {
                                fact_id: af.rec.id,
                                cell: cell.key,
                                weight,
                                measure: af.rec.measure,
                            },
                        ));
                    }
                });
                for (idx, rec) in pending {
                    let first = !emitted[idx as usize];
                    emitted[idx as usize] = true;
                    edb.push(&rec, false, first)?;
                }
            }
        }
        for w in &mut windows {
            w.flush(&mut prep.facts)?;
        }
    }
    stats.imprecise_allocated = emitted.iter().filter(|&&b| b).count() as u64;

    // Count uncovered / zero-gamma facts.
    {
        let mut cursor = prep.facts.scan();
        let mut idx = 0usize;
        while let Some(rec) = cursor.next()? {
            if !rec.covers_any_cell() {
                stats.uncovered += 1;
            } else if rec.gamma <= 0.0 {
                stats.zero_gamma += 1;
            }
            idx += 1;
        }
        let _ = idx;
    }

    if emit_precise {
        emit_precise_entries(prep, edb)?;
    }
    Ok(stats)
}

/// Stream weight-1 entries for all precise facts.
pub fn emit_precise_entries(prep: &mut PreparedData, edb: &mut ExtendedDatabase) -> Result<()> {
    let schema = prep.schema.clone();
    let mut cursor = prep.precise.scan();
    let mut pending = Vec::new();
    while let Some(f) = cursor.next()? {
        let cell = schema.cell_of(&f).expect("precise file holds precise facts");
        pending.push(EdbRecord { fact_id: f.id, cell, weight: 1.0, measure: f.measure });
    }
    drop(cursor);
    for rec in pending {
        edb.push(&rec, true, true)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use crate::prep::prepare;
    use iolap_model::paper_example;

    #[test]
    fn materialize_count_policy_on_table1() {
        let env = iolap_storage::Env::builder("edb-t").pool_pages(64).in_memory().build().unwrap();
        let t = paper_example::table1();
        let mut p = prepare(&t, &PolicySpec::count(), &env, 8).unwrap();
        let sets = vec![(0..p.tables.len()).collect::<Vec<_>>()];
        let mut edb = ExtendedDatabase::create(&env, 2).unwrap();
        let stats = materialize(&mut p, &sets, &mut edb, true).unwrap();
        assert_eq!(stats.imprecise_allocated, 9);
        assert_eq!(stats.uncovered, 0);
        assert_eq!(edb.num_precise_entries(), 5);
        // 12 edges → 12 imprecise entries (all deltas are 1 → weights > 0).
        assert_eq!(edb.num_imprecise_entries(), 12);
        assert_eq!(edb.num_facts_allocated(), 14);
        let checked = edb.validate_weights(1e-9).unwrap().unwrap();
        assert_eq!(checked, 14);
        // Count policy: p8 splits 1/2–1/2 across (CA, Civic), (CA, Sierra).
        let m = edb.weight_map().unwrap();
        let w8: Vec<f64> = m[&8].iter().map(|(_, w)| *w).collect();
        assert_eq!(w8, vec![0.5, 0.5]);
    }

    #[test]
    fn save_load_roundtrip() {
        let env = iolap_storage::Env::builder("edb-io").pool_pages(64).in_memory().build().unwrap();
        let t = paper_example::table1();
        let mut p = prepare(&t, &PolicySpec::count(), &env, 8).unwrap();
        let sets = vec![(0..p.tables.len()).collect::<Vec<_>>()];
        let mut edb = ExtendedDatabase::create(&env, 2).unwrap();
        materialize(&mut p, &sets, &mut edb, true).unwrap();

        let dir = iolap_storage::TempDir::new("edb-save").unwrap();
        let path = dir.path().join("table1.edb");
        edb.save(&path, 2).unwrap();

        let (mut loaded, k) = ExtendedDatabase::load(&env, &path).unwrap();
        assert_eq!(k, 2);
        assert_eq!(loaded.num_entries(), edb.num_entries());
        assert_eq!(loaded.num_facts_allocated(), edb.num_facts_allocated());
        let a = edb.weight_map().unwrap();
        let b = loaded.weight_map().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_garbage() {
        let env = iolap_storage::Env::builder("edb-bad").in_memory().build().unwrap();
        let dir = iolap_storage::TempDir::new("edb-bad").unwrap();
        let path = dir.path().join("junk");
        std::fs::write(&path, b"not an edb file at all....").unwrap();
        assert!(ExtendedDatabase::load(&env, &path).is_err());
    }

    #[test]
    fn validate_catches_bad_weights() {
        let env = iolap_storage::Env::builder("edb-v").in_memory().build().unwrap();
        let mut edb = ExtendedDatabase::create(&env, 2).unwrap();
        let rec = EdbRecord { fact_id: 1, cell: [0; 8], weight: 0.5, measure: 1.0 };
        edb.push(&rec, false, true).unwrap();
        let res = edb.validate_weights(1e-9).unwrap();
        assert!(res.is_err(), "0.5 total weight must fail");
    }
}
