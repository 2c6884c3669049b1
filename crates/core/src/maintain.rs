//! Maintaining the Extended Database (Section 9).
//!
//! Theorem 12: an update to fact `r` can only change the allocation
//! weights of facts in connected components whose region overlaps
//! `reg(r)`. The maintenance structure therefore keeps:
//!
//! * the component-sorted cell and fact files from a Transitive run ("D
//!   has been sorted into connected component order");
//! * the component membership, so an overlapped component's tuples are a
//!   few sequential reads;
//! * each cell's and each covered fact's component, in memory.
//!
//! The paper finds the overlapped components through a disk R-tree over
//! their bounding boxes. Here the three questions it answers have exact
//! in-memory answers that read no page (DESIGN §2.23):
//! * a base cell's slot in the ccid-sorted cell file: its canonical
//!   position in `prep.index`, then a position → file-index table;
//! * the live cells inside a region: a box walk of `prep.index`, plus the
//!   cells maintenance appended;
//! * the imprecise facts covering a new cell: DESIGN §2.7's window match,
//!   one probe of a dims → facts map per level vector in use.
//!
//! [`MaintainableEdb::apply_batch`] follows the paper's four steps: find
//! the overlapped components, fetch them, re-run allocation over those
//! facts, and replace their EDB entries. The published segment tiers are
//! the only copy of the EDB: a re-emitted run waits in a pending list
//! until the next refresh folds it into a delta tier, and the run it
//! replaces is retired through its tier's exclusion set.
//!
//! Beyond the measure updates the paper evaluates (Figure 6), this
//! implementation also supports the **insertions and deletions** Section
//! 9 sketches: inserting a fact can *merge* connected components (handled
//! through the same smallest-id convention as the Transitive algorithm)
//! and deleting one can *split* them (re-identified with a local BFS).

use crate::cuboid::{CuboidLattice, LatticeConfig};
use crate::edb::WeightMap;
use crate::error::{CoreError, Result};
use crate::inmem::InMemProblem;
use crate::passes::AncCache;
use crate::policy::{PolicySpec, Quantity};
use crate::prep::{region_of, PreparedData};
use crate::runner::AllocationRun;
use crate::segment::{EdbSegment, SegmentView};
use iolap_model::records::NO_CCID;
use iolap_model::{
    CellKey, CellRecord, EdbRecord, Fact, FactId, LevelVec, RegionBox, WorkFactRecord, MAX_DIMS,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One mutation of the fact table.
#[derive(Debug, Clone)]
pub enum EdbMutation {
    /// Replace a fact's measure (the Figure 6 workload).
    UpdateMeasure {
        /// The fact to update.
        fact_id: FactId,
        /// Its new measure.
        new_measure: f64,
    },
    /// Insert a new fact (precise or imprecise).
    Insert(Fact),
    /// Delete an existing fact.
    Delete(FactId),
}

/// Where a fact lives in the maintenance files.
#[derive(Debug, Clone, Copy)]
enum FactLoc {
    /// Index into the precise file.
    Precise(u64),
    /// Index into the imprecise facts file; `true` if it covers at least
    /// one candidate cell (unallocatable facts have no entries).
    Imprecise(u64, bool),
}

/// Membership of one component: ranges into the component-sorted base
/// files plus explicitly-listed records (appended by maintenance or
/// reshuffled by merges/splits).
#[derive(Debug, Clone, Default)]
struct CompMeta {
    cell_ranges: Vec<(u64, u64)>,
    fact_ranges: Vec<(u64, u64)>,
    extra_cells: Vec<u64>,
    extra_facts: Vec<u64>,
    /// Bounding box of the component's tuples (feeds `report.touched`).
    bbox: Option<RegionBox>,
}

impl CompMeta {
    /// Grow the bounding box to cover `b`.
    fn grow(&mut self, b: &RegionBox) {
        self.bbox = Some(self.bbox.map_or(*b, |x| x.union(b)));
    }

    fn cell_indexes(&self, dead: &HashSet<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        for &(s, e) in &self.cell_ranges {
            out.extend((s..e).filter(|i| !dead.contains(i)));
        }
        out.extend(self.extra_cells.iter().copied().filter(|i| !dead.contains(i)));
        out
    }

    fn fact_indexes(&self, dead: &HashSet<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        for &(s, e) in &self.fact_ranges {
            out.extend((s..e).filter(|i| !dead.contains(i)));
        }
        out.extend(self.extra_facts.iter().copied().filter(|i| !dead.contains(i)));
        out
    }

    fn absorb(&mut self, other: CompMeta) {
        self.cell_ranges.extend(other.cell_ranges);
        self.fact_ranges.extend(other.fact_ranges);
        self.extra_cells.extend(other.extra_cells);
        self.extra_facts.extend(other.extra_facts);
        if let Some(b) = other.bbox {
            self.grow(&b);
        }
    }
}

/// Report of one maintenance batch.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Components whose bounding box overlapped a mutated region.
    pub affected_components: u64,
    /// Tuples (cells + imprecise facts) re-processed.
    pub affected_tuples: u64,
    /// EDB entries rewritten.
    pub entries_rewritten: u64,
    /// Component merges performed (insertions).
    pub merges: u64,
    /// Component splits performed (deletions).
    pub splits: u64,
    /// Wall-clock for the batch.
    pub wall: Duration,
    /// Bounding boxes touched by the batch: the region of every mutated
    /// fact plus the bounding box of every component that was re-solved.
    /// Downstream caches can invalidate exactly the results whose query
    /// region overlaps one of these boxes (Theorem 12's contrapositive:
    /// a query region disjoint from all of them kept its answer).
    pub touched: Vec<RegionBox>,
}

/// A compaction captured off the apply path by
/// [`MaintainableEdb::prepare_compaction`]: the frozen input tiers,
/// detached from the EDB so [`CompactionPlan::run`] can execute on
/// another thread, or between batches. The server never takes this path
/// (its coordinator merges inline, inside the fold); the benchmark
/// harness's write-path reference and the crash-recovery, lattice and
/// segment tests drive it.
pub struct CompactionPlan {
    /// First tier index being merged (0 when the base tier is included).
    start: usize,
    /// Input views frozen at prepare time.
    inputs: Vec<SegmentView>,
}

/// The merged tier produced by [`CompactionPlan::run`], ready for
/// [`MaintainableEdb::install_compaction`].
pub struct CompactionResult {
    start: usize,
    input_segs: Vec<Arc<EdbSegment>>,
    input_excl: Vec<Arc<HashSet<FactId>>>,
    merged: Arc<EdbSegment>,
}

impl CompactionPlan {
    /// Merge the input tiers in memory: their live entries, concatenated
    /// in tier order, go through [`EdbSegment::build`]. Each tier is
    /// already in canonical cell order and the build's sort is stable, so
    /// it only merges the runs, and entries of one cell keep tier order.
    /// Touches no pager or buffer pool; safe to call from any thread —
    /// the inputs are immutable `Arc` snapshots.
    pub fn run(self) -> Result<CompactionResult> {
        let mut entries = Vec::new();
        for v in &self.inputs {
            v.segment.for_each_entry(|e| {
                if !v.exclude.contains(&e.fact_id) {
                    entries.push(e.clone());
                }
                Ok(())
            })?;
        }
        Ok(CompactionResult {
            start: self.start,
            input_segs: self.inputs.iter().map(|v| v.segment.clone()).collect(),
            input_excl: self.inputs.iter().map(|v| v.exclude.clone()).collect(),
            merged: Arc::new(EdbSegment::build(self.inputs[0].segment.k(), entries)),
        })
    }
}

/// An EDB with the maintenance index of Section 9 attached.
pub struct MaintainableEdb {
    prep: PreparedData,
    policy: PolicySpec,
    comps: HashMap<u32, CompMeta>,
    next_ccid: u32,
    fact_locs: HashMap<FactId, FactLoc>,
    /// Component of each record in the cells file (index-aligned; grows
    /// with insertions).
    cell_ccid: Vec<u32>,
    /// Component of each live covered imprecise record (facts-file index).
    fact_ccid: HashMap<u64, u32>,
    /// Cells-file index of each base cell, by its canonical position in
    /// `prep.index` (the cells file is ccid-sorted, the index canonical).
    base_cell_file: Vec<u32>,
    /// Cells appended by maintenance: key → cells-file index.
    appended_cells: HashMap<CellKey, u64>,
    /// Every imprecise fact ever held, covered or not, by its dims
    /// vector: `(facts-file index, id)`. Deleted facts stay and are
    /// filtered through `dead_facts` on lookup.
    facts_by_dims: HashMap<[u32; MAX_DIMS], Vec<(u64, FactId)>>,
    /// The distinct level vectors of `facts_by_dims`' keys, sorted.
    level_vecs: Vec<LevelVec>,
    /// Precise facts mapped to each cell (so deletions know when a cell
    /// leaves the candidate set).
    precise_count: HashMap<u64, u32>,
    dead_cells: HashSet<u64>,
    dead_facts: HashSet<u64>,
    dead_precise: HashSet<u64>,
    /// Re-emitted runs not yet folded into a delta tier, each tagged with
    /// its emission sequence number: a fact's newer run replaces its
    /// older one and sorts last.
    pending: HashMap<FactId, (u64, Vec<EdbRecord>)>,
    /// Emission sequence number of the next pending run.
    pending_seq: u64,
    /// Published segments: index 0 is the base tier (the Transitive output
    /// or a post-compaction merge), later entries are delta segments in
    /// publication order.
    segs: Vec<Arc<EdbSegment>>,
    /// Per-segment retired-fact sets, parallel to `segs`. Copy-on-write:
    /// snapshots share these `Arc`s, so retiring a fact clones the set of
    /// the affected segment only.
    seg_excl: Vec<Arc<HashSet<FactId>>>,
    /// Per-segment live-entry counts, parallel to `segs`: what the
    /// size-tiering rule reads, so planning decodes no page.
    seg_live: Vec<u64>,
    /// The tier that holds each fact's run and how many of its entries
    /// there are live (0 once retired). A deleted fact's entry is
    /// dropped; a stranded one keeps its tier until its next run.
    live_runs: HashMap<FactId, (usize, u32)>,
    /// Delta-segment count that triggers a compaction.
    compaction_threshold: usize,
    /// When true (default) the threshold compacts inline on the refresh
    /// path; when false the owner drives compaction off-thread via
    /// [`MaintainableEdb::prepare_compaction`] /
    /// [`MaintainableEdb::install_compaction`].
    inline_compaction: bool,
    /// Completed compactions.
    compactions: u64,
    /// The materialized cuboid lattice over the published segments,
    /// evolved copy-on-write by [`MaintainableEdb::snapshot_lattice`].
    lattice: Option<Arc<CuboidLattice>>,
    /// Selection budget for lattice (re)builds.
    lattice_cfg: LatticeConfig,
    /// Touched boxes queued since the last lattice sync: every cuboid
    /// cell overlapping one of these is recomputed at the next
    /// [`MaintainableEdb::snapshot_lattice`].
    lattice_dirty: Vec<RegionBox>,
}

impl MaintainableEdb {
    /// Build from a completed **Transitive** run ("can be piggybacked onto
    /// the component processing step of the Transitive algorithm"). The
    /// run's EDB becomes the base segment tier, and its record file is
    /// freed.
    pub fn build(mut run: AllocationRun, policy: PolicySpec) -> Result<Self> {
        let resolved = run
            .ccid_resolution
            .ok_or_else(|| CoreError::Config("maintenance requires a Transitive run".into()))?;
        let mut prep = run.prep;
        let k = prep.schema.k();
        let schema = prep.schema.clone();

        let mut comps: HashMap<u32, CompMeta> = HashMap::new();
        let mut fact_locs: HashMap<FactId, FactLoc> = HashMap::new();
        let mut cell_ccid: Vec<u32> = Vec::with_capacity(prep.cells.len() as usize);
        let mut fact_ccid: HashMap<u64, u32> = HashMap::new();
        let mut base_cell_file = vec![0u32; prep.index.len() as usize];
        let mut facts_by_dims: HashMap<[u32; MAX_DIMS], Vec<(u64, FactId)>> = HashMap::new();
        let mut next_ccid = 0u32;

        // Cells are ccid-sorted: one contiguous range per component.
        {
            let mut cursor = prep.cells.scan();
            let mut i = 0u64;
            let mut open: Option<(u32, u64)> = None;
            while let Some(c) = cursor.next()? {
                let cc = resolved[c.ccid as usize];
                next_ccid = next_ccid.max(cc + 1);
                cell_ccid.push(cc);
                let pos = prep.index.position(&c.key).expect("every cell is indexed");
                base_cell_file[pos as usize] = i as u32;
                match &mut open {
                    Some((cur, _)) if *cur == cc => {}
                    _ => {
                        if let Some((prev, start)) = open.take() {
                            comps.get_mut(&prev).expect("opened").cell_ranges.push((start, i));
                        }
                        open = Some((cc, i));
                        comps.entry(cc).or_default();
                    }
                }
                comps.get_mut(&cc).expect("present").grow(&RegionBox::point(&c.key, k));
                i += 1;
            }
            if let Some((prev, start)) = open.take() {
                comps.get_mut(&prev).expect("opened").cell_ranges.push((start, i));
            }
        }
        // Facts likewise (unallocatable NO_CCID facts sort last).
        {
            let mut cursor = prep.facts.scan();
            let mut i = 0u64;
            let mut open: Option<(u32, u64)> = None;
            while let Some(f) = cursor.next()? {
                facts_by_dims.entry(f.dims).or_default().push((i, f.id));
                if f.ccid != NO_CCID {
                    let cc = resolved[f.ccid as usize];
                    fact_ccid.insert(i, cc);
                    match &mut open {
                        Some((cur, _)) if *cur == cc => {}
                        _ => {
                            if let Some((prev, start)) = open.take() {
                                comps
                                    .get_mut(&prev)
                                    .expect("fact component has cells")
                                    .fact_ranges
                                    .push((start, i));
                            }
                            open = Some((cc, i));
                        }
                    }
                    comps
                        .get_mut(&cc)
                        .expect("fact component has cells")
                        .grow(&region_of(&schema, &f.dims));
                    fact_locs.insert(f.id, FactLoc::Imprecise(i, true));
                } else {
                    if let Some((prev, start)) = open.take() {
                        comps
                            .get_mut(&prev)
                            .expect("fact component has cells")
                            .fact_ranges
                            .push((start, i));
                    }
                    fact_locs.insert(f.id, FactLoc::Imprecise(i, false));
                }
                i += 1;
            }
            if let Some((prev, start)) = open.take() {
                comps.get_mut(&prev).expect("opened").fact_ranges.push((start, i));
            }
        }
        // Precise facts: locations + per-cell precise counts.
        let mut precise_count: HashMap<u64, u32> = HashMap::new();
        {
            let mut cursor = prep.precise.scan();
            let mut i = 0u64;
            while let Some(f) = cursor.next()? {
                fact_locs.insert(f.id, FactLoc::Precise(i));
                let cell = schema.cell_of(&f).expect("precise file holds precise facts");
                if let Some(pos) = prep.index.position(&cell) {
                    *precise_count.entry(base_cell_file[pos as usize] as u64).or_insert(0) += 1;
                }
                i += 1;
            }
        }
        let mut level_vecs: Vec<LevelVec> =
            facts_by_dims.keys().map(|dims| level_vec_of(&schema, dims)).collect();
        level_vecs.sort_unstable();
        level_vecs.dedup();
        let mut base = Vec::with_capacity(run.edb.num_entries() as usize);
        let mut live_runs: HashMap<FactId, (usize, u32)> = HashMap::new();
        run.edb.for_each(|e| {
            live_runs.entry(e.fact_id).or_insert((0, 0)).1 += 1;
            base.push(e.clone());
        })?;
        run.edb.delete()?;

        Ok(MaintainableEdb {
            prep,
            policy,
            comps,
            next_ccid,
            fact_locs,
            cell_ccid,
            fact_ccid,
            base_cell_file,
            appended_cells: HashMap::new(),
            facts_by_dims,
            level_vecs,
            precise_count,
            dead_cells: HashSet::new(),
            dead_facts: HashSet::new(),
            dead_precise: HashSet::new(),
            pending: HashMap::new(),
            pending_seq: 0,
            seg_live: vec![base.len() as u64],
            segs: vec![Arc::new(EdbSegment::build(k, base))],
            seg_excl: vec![Arc::new(HashSet::new())],
            live_runs,
            compaction_threshold: 4,
            inline_compaction: true,
            compactions: 0,
            lattice: None,
            lattice_cfg: LatticeConfig::default(),
            lattice_dirty: Vec::new(),
        })
    }

    /// Number of live components.
    pub fn num_components(&self) -> usize {
        self.comps.len()
    }

    /// Current weights per fact: the live entries of the published
    /// tiers, after folding in any pending runs.
    pub fn current_weights(&mut self) -> Result<WeightMap> {
        let mut out = WeightMap::new();
        for v in self.snapshot_segments()? {
            v.segment.for_each_entry(|e| {
                if !v.exclude.contains(&e.fact_id) {
                    out.entry(e.fact_id).or_default().push((e.cell, e.weight));
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// The schema the maintained EDB lives in.
    pub fn schema(&self) -> &Arc<iolap_model::Schema> {
        &self.prep.schema
    }

    // -- segment layer -------------------------------------------------------

    /// The EDB as immutable segment views: one base segment (the Transitive
    /// output in canonical cell order) plus one delta segment per refresh
    /// of re-emitted runs, with replaced and deleted facts retired through
    /// per-view exclusion sets. Unchanged segments come back as
    /// the *same* `Arc`s on every call, so publishing a snapshot costs
    /// O(segments) plus the runs emitted since the last call.
    pub fn snapshot_segments(&mut self) -> Result<Vec<SegmentView>> {
        self.refresh_segments()?;
        Ok(self.views(0))
    }

    /// The published tiers from `start` on, as views.
    fn views(&self, start: usize) -> Vec<SegmentView> {
        let excl = &self.seg_excl[start..];
        let segs = self.segs[start..].iter().zip(excl);
        segs.map(|(s, e)| SegmentView { segment: s.clone(), exclude: e.clone() }).collect()
    }

    /// Number of segments the next snapshot will publish.
    pub fn num_segments(&mut self) -> Result<usize> {
        self.refresh_segments()?;
        Ok(self.segs.len())
    }

    /// Completed delta-tier compactions.
    pub fn num_compactions(&self) -> u64 {
        self.compactions
    }

    /// Cumulative accounted page I/O of the environment backing this EDB.
    /// Allocation and maintenance re-runs charge this one meter, so a test
    /// can pin a batch's exact I/O as a before/after delta. Segment
    /// refreshes and compactions run in memory and charge nothing.
    pub fn accounted_io(&self) -> iolap_storage::IoSnapshot {
        self.prep.env.stats().snapshot()
    }

    /// The live I/O meter of the environment backing this EDB. The
    /// counters are shared (cloning is cheap and stays connected), so the
    /// serve layer hands this same meter to its write-ahead log — WAL and
    /// recovery traffic show up in [`MaintainableEdb::accounted_io`] like
    /// every other pass.
    pub fn io_stats(&self) -> iolap_storage::IoStats {
        self.prep.env.stats().clone()
    }

    /// Delta-segment count that triggers a compaction (default 4; clamped
    /// to at least 1).
    pub fn set_compaction_threshold(&mut self, n: usize) {
        self.compaction_threshold = n.max(1);
    }

    /// Move size-tiered compaction off the apply path. With `background`
    /// set, [`MaintainableEdb::snapshot_segments`] never merges tiers
    /// inline; the owner polls [`MaintainableEdb::needs_compaction`] and
    /// drives [`MaintainableEdb::prepare_compaction`] →
    /// [`CompactionPlan::run`] (on its own thread, or between batches) →
    /// [`MaintainableEdb::install_compaction`]. The default, inline mode
    /// is what the server runs; this mode is driven by the benchmark
    /// harness's write-path reference, which times the merge as its own
    /// stage, and by the tests that crash or interleave batches around
    /// an install.
    pub fn set_background_compaction(&mut self, background: bool) {
        self.inline_compaction = !background;
    }

    /// True when [`MaintainableEdb::prepare_compaction`] would return a
    /// plan — with background compaction, the cue to schedule one.
    /// Reads tier counts only.
    pub fn needs_compaction(&self) -> bool {
        self.compaction_plan().is_some()
    }

    /// Capture a compaction plan off the apply path: the input tiers are
    /// frozen as `Arc` views (segments plus their exclusion sets at this
    /// instant), so [`CompactionPlan::run`] can merge them on a background
    /// thread while the coordinator keeps applying batches. Returns `None`
    /// when the tiering rule asks for no merge.
    pub fn prepare_compaction(&mut self) -> Result<Option<CompactionPlan>> {
        self.refresh_segments()?;
        Ok(self.compaction_plan())
    }

    /// The size-tiering rule: past the threshold, merge every delta tier,
    /// folding the base tier in too once the deltas have grown to its
    /// live size. `None` when the tier count is within threshold, or when
    /// that leaves a single input tier: rewriting it alone would lower no
    /// tier count and only swap its `Arc` (and so rebuild its lattice).
    fn compaction_plan(&self) -> Option<CompactionPlan> {
        let delta_live: u64 = self.seg_live[1..].iter().sum();
        let start = if delta_live >= self.seg_live[0] { 0 } else { 1 };
        let n = self.segs.len();
        (n > self.compaction_threshold && n - start >= 2)
            .then(|| CompactionPlan { start, inputs: self.views(start) })
    }

    /// Splice a background-merged tier into the published segment list.
    /// The handoff is the Arc identity of `snapshot_segments`: batches
    /// applied since [`MaintainableEdb::prepare_compaction`] only *append*
    /// new delta tiers and *grow* exclusion sets, so the plan's inputs
    /// must still sit unchanged at their tier positions — verified by
    /// `Arc::ptr_eq`, returning `false` (plan wasted, nothing changed)
    /// if anything else happened. Facts retired from an input tier after
    /// the plan was captured have entries inside the merged segment, so
    /// exactly the per-tier exclusion growth carries over to the merged
    /// tier's exclusion set — the live multiset is untouched, which is
    /// why installation needs no epoch bump and no cache invalidation.
    pub fn install_compaction(&mut self, done: CompactionResult) -> Result<bool> {
        let CompactionResult { start, input_segs, input_excl, merged } = done;
        let n = input_segs.len();
        if self.segs.len() < start + n {
            return Ok(false);
        }
        for (i, seg) in input_segs.iter().enumerate() {
            if !Arc::ptr_eq(&self.segs[start + i], seg) {
                return Ok(false);
            }
        }
        let mut excl: HashSet<FactId> = HashSet::new();
        for (i, snap) in input_excl.iter().enumerate() {
            excl.extend(self.seg_excl[start + i].iter().filter(|f| !snap.contains(*f)).copied());
        }
        self.segs.splice(start..start + n, [merged]);
        self.seg_excl.splice(start..start + n, [Arc::new(excl)]);
        let live = self.seg_live[start..start + n].iter().sum();
        self.seg_live.splice(start..start + n, [live]);
        for (tier, _) in self.live_runs.values_mut() {
            if (start..start + n).contains(tier) {
                *tier = start;
            } else if *tier >= start + n {
                *tier -= n - 1;
            }
        }
        // Counted here only; the server surfaces the delta as
        // `edb.compactions`, so an `Obs` shared with allocation counts
        // each merge once.
        self.compactions += 1;
        if let Some(g) = self.prep.env.obs().gauge("edb.segments") {
            g.set(self.segs.len() as i64);
        }
        Ok(true)
    }

    /// Selection budget for the cuboid lattice. Drops the current lattice
    /// so the next [`MaintainableEdb::snapshot_lattice`] rebuilds under
    /// the new budget.
    pub fn set_lattice_config(&mut self, cfg: LatticeConfig) {
        self.lattice_cfg = cfg;
        self.lattice = None;
    }

    /// The cuboid lattice over [`MaintainableEdb::snapshot_segments`],
    /// brought up to date incrementally and published as an `Arc` through
    /// the same epoch swap as the segments themselves.
    ///
    /// Reconciliation order matters: segments are refreshed first (which
    /// may compact tiers), then the lattice syncs — lattices of compacted
    /// segments are dropped and rebuilt whole, while a surviving segment
    /// whose exclusion set grew has exactly the cells overlapping the
    /// queued `UpdateReport::touched` boxes recomputed, every cuboid in
    /// one scan of the segment. Published snapshots keep their previous
    /// lattice `Arc` (copy-on-write), so readers never observe a
    /// half-synced lattice. The upkeep is counted in
    /// `edb.cuboid_cells_recomputed` and `edb.cuboid_upkeep_pages`.
    pub fn snapshot_lattice(&mut self) -> Result<Arc<CuboidLattice>> {
        let views = self.snapshot_segments()?;
        let schema = self.prep.schema.clone();
        let dirty = std::mem::take(&mut self.lattice_dirty);
        let mut arc = self
            .lattice
            .take()
            .unwrap_or_else(|| Arc::new(CuboidLattice::new(schema.k(), self.lattice_cfg)));
        let sync = Arc::make_mut(&mut arc).sync(&schema, &views, &dirty)?;
        let obs = self.prep.env.obs();
        if let Some(c) = obs.counter("edb.cuboid_cells_recomputed") {
            c.add(sync.cells_recomputed);
        }
        if let Some(c) = obs.counter("edb.cuboid_upkeep_pages") {
            c.add(sync.scan.pages_read);
        }
        if let Some(g) = obs.gauge("edb.cuboid_bytes") {
            g.set(arc.encoded_bytes() as i64);
        }
        self.lattice = Some(Arc::clone(&arc));
        Ok(arc)
    }

    /// Fold the pending runs into one new delta tier, retiring each
    /// fact's previous run.
    fn refresh_segments(&mut self) -> Result<()> {
        let mut runs: Vec<(FactId, (u64, Vec<EdbRecord>))> = self.pending.drain().collect();
        if !runs.is_empty() {
            // Emission order, which `EdbSegment::build`'s stable sort keeps
            // among entries of one cell.
            runs.sort_unstable_by_key(|(_, (seq, _))| *seq);
            let idx = self.segs.len();
            let mut entries = Vec::new();
            for (id, (_, run)) in runs {
                // The tier of its previous run, else the base tier (a no-op
                // for inserted facts — they have no base entries).
                let (owner, len) =
                    self.live_runs.insert(id, (idx, run.len() as u32)).unwrap_or((0, 0));
                self.seg_live[owner] -= u64::from(len);
                Arc::make_mut(&mut self.seg_excl[owner]).insert(id);
                entries.extend(run);
            }
            self.seg_live.push(entries.len() as u64);
            self.segs.push(Arc::new(EdbSegment::build(self.prep.schema.k(), entries)));
            self.seg_excl.push(Arc::new(HashSet::new()));
        }
        if self.inline_compaction {
            // The background compactor's plan, run and install, back to back.
            if let Some(plan) = self.compaction_plan() {
                self.install_compaction(plan.run()?)?;
            }
        }
        if let Some(g) = self.prep.env.obs().gauge("edb.segments") {
            g.set(self.segs.len() as i64);
        }
        if let Some(g) = self.prep.env.obs().gauge("edb.compression_ratio") {
            let encoded: u64 = self.segs.iter().map(|s| s.encoded_bytes()).sum();
            let raw: u64 = self.segs.iter().map(|s| s.uncompressed_bytes()).sum();
            if encoded > 0 {
                // Milli-ratio: 1000 = uncompressed, 1700 = 1.7× smaller.
                g.set((raw as f64 / encoded as f64 * 1000.0) as i64);
            }
        }
        Ok(())
    }

    /// Apply a batch of mutations: measure updates, insertions, deletions.
    pub fn apply_batch(&mut self, muts: &[EdbMutation]) -> Result<UpdateReport> {
        let t0 = Instant::now();
        let mut report = UpdateReport::default();
        // Components needing a re-solve after all structural changes.
        let mut dirty: HashSet<u32> = HashSet::new();

        for m in muts {
            match m {
                EdbMutation::UpdateMeasure { fact_id, new_measure } => {
                    self.update_measure(*fact_id, *new_measure, &mut dirty, &mut report)?;
                }
                EdbMutation::Insert(f) => {
                    self.insert_fact(f.clone(), &mut dirty, &mut report)?;
                }
                EdbMutation::Delete(id) => {
                    self.delete_fact(*id, &mut dirty, &mut report)?;
                }
            }
        }

        // Structural changes may have retired some dirty ids. Re-solve in
        // sorted order: HashSet iteration order varies per process, and
        // the re-emission order it would induce must not — replaying the
        // same batches (WAL recovery, a test's library-side mirror) has to
        // append runs in the same file order to stay bit-identical.
        let mut live: Vec<u32> =
            dirty.into_iter().filter(|cc| self.comps.contains_key(cc)).collect();
        live.sort_unstable();
        report.affected_components = live.len() as u64;
        for cc in live {
            if let Some(b) = self.comps.get(&cc).and_then(|m| m.bbox) {
                report.touched.push(b);
            }
            self.resolve_component(cc, &mut report)?;
        }
        self.lattice_dirty.extend_from_slice(&report.touched);
        report.wall = t0.elapsed();
        Ok(report)
    }

    // -- mutations ----------------------------------------------------------

    fn update_measure(
        &mut self,
        fact_id: FactId,
        new_measure: f64,
        dirty: &mut HashSet<u32>,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let schema = self.prep.schema.clone();
        match self.fact_locs.get(&fact_id).copied() {
            Some(FactLoc::Precise(i)) => {
                if self.dead_precise.contains(&i) {
                    return Err(CoreError::BadInput(format!("fact {fact_id} was deleted")));
                }
                let mut f = self.prep.precise.get(i)?;
                let old = f.measure;
                f.measure = new_measure;
                self.prep.precise.set(i, &f)?;
                let cell = schema.cell_of(&f).expect("precise");
                report.touched.push(RegionBox::point(&cell, schema.k()));
                if let Some(ci) = self.cell_file_index(&cell) {
                    if self.policy.quantity == Quantity::Measure {
                        let mut c = self.prep.cells.get(ci)?;
                        c.delta0 += new_measure - old;
                        self.prep.cells.set(ci, &c)?;
                        // Theorem 12, sharpened for existing facts: every
                        // candidate cell of reg(r) is *connected* to r, so
                        // the only component whose weights can change is
                        // the fact's own (the region search is for
                        // insertions).
                        dirty.insert(self.cell_ccid[ci as usize]);
                    }
                    // Under Count/Uniform a measure change cannot move any
                    // weight: no component re-solve at all (the paper's
                    // flat "Non-Overlap Precise" line).
                }
                // Refresh the fact's own weight-1 entry.
                self.push_run(
                    fact_id,
                    vec![EdbRecord { fact_id, cell, weight: 1.0, measure: new_measure }],
                );
            }
            Some(FactLoc::Imprecise(i, covered)) => {
                if self.dead_facts.contains(&i) {
                    return Err(CoreError::BadInput(format!("fact {fact_id} was deleted")));
                }
                let mut f = self.prep.facts.get(i)?;
                f.measure = new_measure;
                self.prep.facts.set(i, &f)?;
                report.touched.push(region_of(&schema, &f.dims));
                if covered {
                    // Own component only (Theorem 12, see above). Weights
                    // don't depend on imprecise measures, but the fact's
                    // entries denormalize the measure — re-emit them.
                    dirty.insert(*self.fact_ccid.get(&i).expect("covered fact has a component"));
                }
            }
            None => return Err(CoreError::BadInput(format!("update for unknown fact {fact_id}"))),
        }
        Ok(())
    }

    fn insert_fact(
        &mut self,
        fact: Fact,
        dirty: &mut HashSet<u32>,
        report: &mut UpdateReport,
    ) -> Result<()> {
        if self.fact_locs.contains_key(&fact.id) {
            return Err(CoreError::BadInput(format!("fact id {} already exists", fact.id)));
        }
        let schema = self.prep.schema.clone();

        report.touched.push(region_of(&schema, &fact.dims));
        if let Some(cell) = schema.cell_of(&fact) {
            // -- precise insertion ------------------------------------------
            self.prep.precise.push(&fact)?;
            let pi = self.prep.precise.len() - 1;
            self.fact_locs.insert(fact.id, FactLoc::Precise(pi));
            self.push_run(
                fact.id,
                vec![EdbRecord { fact_id: fact.id, cell, weight: 1.0, measure: fact.measure }],
            );
            let delta0_add = match self.policy.quantity {
                Quantity::Count => 1.0,
                Quantity::Measure => fact.measure,
                Quantity::Uniform => 0.0,
            };
            if let Some(ci) = self.cell_file_index(&cell) {
                // Existing candidate cell: bump δ and re-solve its comp.
                let mut c = self.prep.cells.get(ci)?;
                c.delta0 += delta0_add;
                self.prep.cells.set(ci, &c)?;
                *self.precise_count.entry(ci).or_insert(0) += 1;
                dirty.insert(self.cell_ccid[ci as usize]);
            } else {
                // Brand-new candidate cell: it may connect existing
                // components through the imprecise facts covering it.
                let base = match self.policy.quantity {
                    Quantity::Uniform => 1.0,
                    _ => delta0_add,
                };
                let rec = CellRecord::new(cell, base);
                self.prep.cells.push(&rec)?;
                let ci = self.prep.cells.len() - 1;
                self.appended_cells.insert(cell, ci);
                self.precise_count.insert(ci, 1);

                // Which live imprecise facts cover this cell? Those in a
                // component name the components it joins; the rest
                // (stranded by a delete, or never covering a cell) join
                // with it.
                let mut owners: Vec<u32> = Vec::new();
                let mut strays: Vec<(u64, FactId, [u32; MAX_DIMS])> = Vec::new();
                for (fi, id, dims) in self.covering_facts(&cell) {
                    match self.fact_ccid.get(&fi) {
                        Some(&cc) => owners.push(cc),
                        None => strays.push((fi, id, dims)),
                    }
                }
                let pb = RegionBox::point(&cell, schema.k());
                let cc = if owners.is_empty() {
                    let cc = self.alloc_ccid();
                    self.comps.insert(
                        cc,
                        CompMeta { extra_cells: vec![ci], bbox: Some(pb), ..Default::default() },
                    );
                    cc
                } else {
                    // Sorted so the surviving ccid (and with it all later
                    // re-emission order) is replay-deterministic.
                    owners.sort_unstable();
                    let cc = self.merge_components(&owners, report)?;
                    let m = self.comps.get_mut(&cc).expect("merged");
                    m.extra_cells.push(ci);
                    m.grow(&pb);
                    dirty.insert(cc);
                    cc
                };
                self.cell_ccid.push(cc);
                debug_assert_eq!(self.cell_ccid.len() as u64, self.prep.cells.len());
                for (fi, id, dims) in strays {
                    // A rebuild allocates the fact to this cell: it becomes
                    // covered, and the re-solve emits its new run.
                    self.fact_locs.insert(id, FactLoc::Imprecise(fi, true));
                    self.fact_ccid.insert(fi, cc);
                    let m = self.comps.get_mut(&cc).expect("live");
                    m.extra_facts.push(fi);
                    m.grow(&region_of(&schema, &dims));
                    dirty.insert(cc);
                }
            }
        } else {
            // -- imprecise insertion ----------------------------------------
            let rec = WorkFactRecord {
                id: fact.id,
                dims: fact.dims,
                measure: fact.measure,
                gamma: 0.0,
                table: u16::MAX, // not part of any base summary table
                ccid: NO_CCID,
                first: u64::MAX,
                last: 0,
            };
            self.prep.facts.push(&rec)?;
            let fi = self.prep.facts.len() - 1;
            self.facts_by_dims.entry(fact.dims).or_default().push((fi, fact.id));
            let lv = level_vec_of(&schema, &fact.dims);
            if let Err(at) = self.level_vecs.binary_search(&lv) {
                self.level_vecs.insert(at, lv);
            }
            let bx = region_of(&schema, &fact.dims);
            let covered = self.covered_cells(&bx);
            if covered.is_empty() {
                self.fact_locs.insert(fact.id, FactLoc::Imprecise(fi, false));
                return Ok(());
            }
            self.fact_locs.insert(fact.id, FactLoc::Imprecise(fi, true));
            let owners: Vec<u32> = {
                let set: HashSet<u32> =
                    covered.iter().map(|&ci| self.cell_ccid[ci as usize]).collect();
                let mut v: Vec<u32> = set.into_iter().collect();
                // Sorted for replay-deterministic merge order (see above).
                v.sort_unstable();
                v
            };
            let cc = self.merge_components(&owners, report)?;
            let m = self.comps.get_mut(&cc).expect("merged");
            m.extra_facts.push(fi);
            m.grow(&bx);
            self.fact_ccid.insert(fi, cc);
            dirty.insert(cc);
        }
        Ok(())
    }

    fn delete_fact(
        &mut self,
        fact_id: FactId,
        dirty: &mut HashSet<u32>,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let schema = self.prep.schema.clone();
        match self.fact_locs.get(&fact_id).copied() {
            Some(FactLoc::Precise(i)) => {
                if !self.dead_precise.insert(i) {
                    return Err(CoreError::BadInput(format!("fact {fact_id} already deleted")));
                }
                self.fact_locs.remove(&fact_id);
                self.retire(fact_id, true);
                let f = self.prep.precise.get(i)?;
                let cell = schema.cell_of(&f).expect("precise");
                report.touched.push(RegionBox::point(&cell, schema.k()));
                let Some(ci) = self.cell_file_index(&cell) else {
                    return Ok(());
                };
                let delta0_sub = match self.policy.quantity {
                    Quantity::Count => 1.0,
                    Quantity::Measure => f.measure,
                    Quantity::Uniform => 0.0,
                };
                let mut c = self.prep.cells.get(ci)?;
                c.delta0 -= delta0_sub;
                self.prep.cells.set(ci, &c)?;
                let remaining = {
                    let e = self.precise_count.entry(ci).or_insert(1);
                    *e -= 1;
                    *e
                };
                let cc = self.cell_ccid[ci as usize];
                if remaining == 0 {
                    // The cell leaves the candidate set; its component may
                    // split (or shed facts entirely).
                    self.dead_cells.insert(ci);
                    self.split_component(cc, dirty, report)?;
                } else {
                    dirty.insert(cc);
                }
            }
            Some(FactLoc::Imprecise(i, covered)) => {
                if !self.dead_facts.insert(i) {
                    return Err(CoreError::BadInput(format!("fact {fact_id} already deleted")));
                }
                self.fact_locs.remove(&fact_id);
                self.retire(fact_id, true);
                let f = self.prep.facts.get(i)?;
                report.touched.push(region_of(&schema, &f.dims));
                if covered {
                    let cc = *self.fact_ccid.get(&i).expect("covered fact has a component");
                    self.fact_ccid.remove(&i);
                    self.split_component(cc, dirty, report)?;
                }
            }
            None => return Err(CoreError::BadInput(format!("delete of unknown fact {fact_id}"))),
        }
        Ok(())
    }

    // -- component machinery -------------------------------------------------

    fn alloc_ccid(&mut self) -> u32 {
        let id = self.next_ccid;
        self.next_ccid += 1;
        id
    }

    /// File index of a live candidate cell, base or appended. (A cell
    /// re-created after its base record died is appended, so the appended
    /// map is asked first.)
    fn cell_file_index(&self, cell: &CellKey) -> Option<u64> {
        let ci = match self.appended_cells.get(cell) {
            Some(&ci) => ci,
            None => self.base_cell_file[self.prep.index.position(cell)? as usize] as u64,
        };
        (!self.dead_cells.contains(&ci)).then_some(ci)
    }

    /// Live candidate cells (file indexes) inside a region, sorted.
    fn covered_cells(&self, bx: &RegionBox) -> Vec<u64> {
        let mut out = Vec::new();
        self.prep.index.for_each_in_box(bx, |pos| {
            let ci = self.base_cell_file[pos as usize] as u64;
            if !self.dead_cells.contains(&ci) {
                out.push(ci);
            }
        });
        out.extend(
            self.appended_cells
                .iter()
                .filter(|(key, ci)| bx.contains_cell(key) && !self.dead_cells.contains(ci))
                .map(|(_, &ci)| ci),
        );
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Live imprecise facts whose region contains `cell`, covered or not,
    /// as `(facts-file index, id, dims)` sorted by file index. Facts of
    /// one level vector cover disjoint regions, so per level vector only
    /// the facts whose dims equal the cell's ancestors there can match
    /// (DESIGN §2.7).
    fn covering_facts(&self, cell: &CellKey) -> Vec<(u64, FactId, [u32; MAX_DIMS])> {
        let schema = &self.prep.schema;
        let anc = AncCache::compute(schema, cell);
        let mut out = Vec::new();
        for lv in &self.level_vecs {
            let mut dims = [0u32; MAX_DIMS];
            for (d, slot) in dims.iter_mut().enumerate().take(schema.k()) {
                *slot = anc.get(d, lv[d]);
            }
            if let Some(facts) = self.facts_by_dims.get(&dims) {
                out.extend(
                    facts
                        .iter()
                        .filter(|(fi, _)| !self.dead_facts.contains(fi))
                        .map(|&(fi, id)| (fi, id, dims)),
                );
            }
        }
        out.sort_unstable_by_key(|&(fi, ..)| fi);
        out
    }

    /// Merge components into the smallest id (the Transitive convention).
    fn merge_components(&mut self, ccids: &[u32], report: &mut UpdateReport) -> Result<u32> {
        let mut ids: Vec<u32> = ccids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let target = ids[0];
        if ids.len() == 1 {
            return Ok(target);
        }
        report.merges += ids.len() as u64 - 1;
        for &cc in &ids[1..] {
            let meta = self.comps.remove(&cc).expect("merging live component");
            for ci in meta.cell_indexes(&self.dead_cells) {
                self.cell_ccid[ci as usize] = target;
            }
            for fi in meta.fact_indexes(&self.dead_facts) {
                self.fact_ccid.insert(fi, target);
            }
            self.comps.get_mut(&target).expect("target live").absorb(meta);
        }
        Ok(target)
    }

    /// Re-identify connectivity inside `cc` after a deletion; every
    /// resulting piece gets a fresh id and explicit membership.
    fn split_component(
        &mut self,
        cc: u32,
        dirty: &mut HashSet<u32>,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let schema = self.prep.schema.clone();
        let meta = self.comps.remove(&cc).expect("splitting live component");
        dirty.remove(&cc);
        let cells = meta.cell_indexes(&self.dead_cells);
        let facts = meta.fact_indexes(&self.dead_facts);
        if cells.is_empty() && facts.is_empty() {
            return Ok(());
        }
        // Local BFS over the live tuples (brute containment; deletions are
        // rare and components small — the giant ones never split in the
        // paper's workloads either).
        let mut cell_recs = Vec::with_capacity(cells.len());
        for &ci in &cells {
            cell_recs.push(self.prep.cells.get(ci)?);
        }
        let mut fact_regions = Vec::with_capacity(facts.len());
        let mut fact_ids = Vec::with_capacity(facts.len());
        for &fi in &facts {
            let f = self.prep.facts.get(fi)?;
            fact_regions.push(region_of(&schema, &f.dims));
            fact_ids.push(f.id);
        }
        let n_cells = cells.len();
        let mut label = vec![u32::MAX; n_cells + facts.len()];
        let mut next_label = 0u32;
        for start in 0..label.len() {
            if label[start] != u32::MAX {
                continue;
            }
            // Facts stranded without cells form their own (unallocatable)
            // pieces; cells seed normal pieces.
            let mut stack = vec![start];
            label[start] = next_label;
            while let Some(t) = stack.pop() {
                if t < n_cells {
                    for (fj, bx) in fact_regions.iter().enumerate() {
                        let u = n_cells + fj;
                        if label[u] == u32::MAX && bx.contains_cell(&cell_recs[t].key) {
                            label[u] = next_label;
                            stack.push(u);
                        }
                    }
                } else {
                    let bx = &fact_regions[t - n_cells];
                    for (cj, c) in cell_recs.iter().enumerate() {
                        if label[cj] == u32::MAX && bx.contains_cell(&c.key) {
                            label[cj] = next_label;
                            stack.push(cj);
                        }
                    }
                }
            }
            next_label += 1;
        }
        if next_label > 1 {
            report.splits += next_label as u64 - 1;
        }
        for piece in 0..next_label {
            let piece_cells: Vec<usize> = (0..n_cells).filter(|&i| label[i] == piece).collect();
            let piece_facts: Vec<usize> =
                (0..facts.len()).filter(|&j| label[n_cells + j] == piece).collect();
            if piece_cells.is_empty() {
                // Facts stranded without candidate cells: unallocatable
                // until a new cell in their region takes them back in.
                for j in piece_facts {
                    self.fact_ccid.remove(&facts[j]);
                    self.fact_locs.insert(fact_ids[j], FactLoc::Imprecise(facts[j], false));
                    // Their old entries are stale.
                    self.retire(fact_ids[j], false);
                }
                continue;
            }
            let ncc = self.alloc_ccid();
            let mut meta = CompMeta::default();
            for i in piece_cells {
                self.cell_ccid[cells[i] as usize] = ncc;
                meta.extra_cells.push(cells[i]);
                meta.grow(&RegionBox::point(&cell_recs[i].key, schema.k()));
            }
            for j in piece_facts {
                self.fact_ccid.insert(facts[j], ncc);
                meta.extra_facts.push(facts[j]);
                meta.grow(&fact_regions[j]);
            }
            self.comps.insert(ncc, meta);
            dirty.insert(ncc);
        }
        Ok(())
    }

    /// Steps 2–3 of the paper's procedure for one component: fetch, re-run
    /// the allocation policy from δ, write back deltas, replace entries.
    fn resolve_component(&mut self, cc: u32, report: &mut UpdateReport) -> Result<()> {
        let schema = self.prep.schema.clone();
        let meta = self.comps.get(&cc).expect("resolving live component");
        let cell_idx = meta.cell_indexes(&self.dead_cells);
        let fact_idx = meta.fact_indexes(&self.dead_facts);
        report.affected_tuples += (cell_idx.len() + fact_idx.len()) as u64;
        if fact_idx.is_empty() {
            return Ok(()); // isolated cells: nothing to re-allocate
        }
        let mut cells = Vec::with_capacity(cell_idx.len());
        for &ci in &cell_idx {
            let mut c = self.prep.cells.get(ci)?;
            c.delta = c.delta0;
            c.converged = false;
            cells.push(c);
        }
        let mut facts = Vec::with_capacity(fact_idx.len());
        for &fi in &fact_idx {
            facts.push(self.prep.facts.get(fi)?);
        }
        let mut prob = InMemProblem::build(cells, facts, &schema);
        // Degrees may have changed (insertions/deletions): recompute from
        // the adjacency and freeze unoverlapped cells.
        let degree = prob.degrees();
        for (c, cell) in prob.cells.iter_mut().enumerate() {
            cell.degree = degree[c];
            cell.converged = degree[c] == 0;
        }
        prob.solve(&self.policy.convergence);
        for (off, c) in prob.cells.iter().enumerate() {
            self.prep.cells.set(cell_idx[off], c)?;
        }
        let mut emitted: Vec<EdbRecord> = Vec::new();
        prob.emit(|e| emitted.push(e));
        report.entries_rewritten += emitted.len() as u64;
        // `emit` writes each fact's entries contiguously: one run per fact.
        for run in emitted.chunk_by(|a, b| a.fact_id == b.fact_id) {
            self.push_run(run[0].fact_id, run.to_vec());
        }
        Ok(())
    }

    /// Queue `run` as the fact's live run, replacing any pending one.
    fn push_run(&mut self, fact_id: FactId, run: Vec<EdbRecord>) {
        self.pending.insert(fact_id, (self.pending_seq, run));
        self.pending_seq += 1;
    }

    /// Retire a deleted or stranded fact: exclude it from the tier that
    /// holds its run and drop any pending one. A deleted fact leaves
    /// `live_runs`; a stranded one keeps its tier with no live entry.
    fn retire(&mut self, fact_id: FactId, deleted: bool) {
        let (owner, len) = self.live_runs.remove(&fact_id).unwrap_or((0, 0));
        self.seg_live[owner] -= u64::from(len);
        if !deleted {
            self.live_runs.insert(fact_id, (owner, 0));
        }
        Arc::make_mut(&mut self.seg_excl[owner]).insert(fact_id);
        self.pending.remove(&fact_id);
    }
}

/// The level vector of an imprecise fact's dims.
fn level_vec_of(schema: &iolap_model::Schema, dims: &[u32; MAX_DIMS]) -> LevelVec {
    schema.level_vec(&Fact { id: 0, dims: *dims, measure: 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{allocate, Algorithm, AllocConfig};
    use iolap_model::paper_example;

    fn build_maintainable(policy: &PolicySpec) -> MaintainableEdb {
        let t = paper_example::table1();
        let run = allocate(
            &t,
            policy,
            Algorithm::Transitive,
            &AllocConfig::builder().in_memory(256).build(),
        )
        .unwrap();
        MaintainableEdb::build(run, policy.clone()).unwrap()
    }

    fn update(fact_id: FactId, new_measure: f64) -> EdbMutation {
        EdbMutation::UpdateMeasure { fact_id, new_measure }
    }

    #[test]
    fn builds_component_index() {
        let m = build_maintainable(&PolicySpec::em_count(0.01));
        assert_eq!(m.num_components(), 2, "Example 5 has two components");
    }

    #[test]
    fn requires_transitive_run() {
        let t = paper_example::table1();
        let policy = PolicySpec::em_count(0.01);
        let run =
            allocate(&t, &policy, Algorithm::Block, &AllocConfig::builder().in_memory(256).build())
                .unwrap();
        assert!(MaintainableEdb::build(run, policy).is_err());
    }

    #[test]
    fn update_scope_follows_theorem_12() {
        // Under EM-Count, a measure change moves no weight at all: no
        // component is re-solved (the flat "Non-Overlap Precise" line of
        // Figure 6).
        let mut m = build_maintainable(&PolicySpec::em_count(0.001));
        let rep = m.apply_batch(&[update(2, 999.0)]).unwrap();
        assert_eq!(rep.affected_components, 0);

        // Under EM-Measure, exactly the fact's own component is affected:
        // p2 = (MA, Sierra) lives in CC2 = cells {c2, c3} + facts
        // {p7, p9, p12}.
        let mut m = build_maintainable(&PolicySpec::em_measure(0.001));
        let rep = m.apply_batch(&[update(2, 999.0)]).unwrap();
        assert_eq!(rep.affected_components, 1);
        assert_eq!(rep.affected_tuples, 2 + 3);
    }

    #[test]
    fn measure_update_changes_weights_under_em_measure() {
        let policy = PolicySpec::em_measure(0.0001);
        let mut m = build_maintainable(&policy);
        let before = m.current_weights().unwrap();
        // Boost (MA, Sierra)'s measure: p9 = (East, Truck) should shift
        // weight toward c2.
        m.apply_batch(&[update(2, 100_000.0)]).unwrap();
        let after = m.current_weights().unwrap();
        let w_before: HashMap<_, _> = before[&9].iter().cloned().collect();
        let w_after: HashMap<_, _> = after[&9].iter().cloned().collect();
        let c2 = *paper_example::figure2_cells().get(1).unwrap();
        assert!(
            w_after[&c2] > w_before[&c2],
            "p9's weight on c2: {} → {}",
            w_before[&c2],
            w_after[&c2]
        );
        let s: f64 = w_after.values().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consecutive_runs_of_one_fact_do_not_double_count() {
        // Under EM-Count a precise measure update re-emits only the fact's
        // own weight-1 entry, so back-to-back updates emit runs for the
        // same fact with nothing between them. Run replacement must still
        // retire the older run — adjacency alone cannot tell them apart.
        let policy = PolicySpec::em_count(0.01);
        let mut m = build_maintainable(&policy);
        m.apply_batch(&[update(2, 100.0)]).unwrap();
        m.apply_batch(&[update(2, 200.0)]).unwrap();
        let w = m.current_weights().unwrap();
        assert_eq!(w[&2].len(), 1, "one live entry, not one per run: {:?}", w[&2]);
        assert_matches_rebuild(&mut m, &with_measure(paper_example::table1(), 2, 200.0), &policy);

        // Same fact twice within one batch: the refresh sees both runs
        // before one fold and must keep only the last.
        m.apply_batch(&[update(2, 300.0), update(2, 400.0)]).unwrap();
        assert_matches_rebuild(&mut m, &with_measure(paper_example::table1(), 2, 400.0), &policy);
    }

    /// Helper: the served EDB must equal a full rebuild of the
    /// mutated table: the same (fact, cell) entries, each once, weights
    /// within 1e-6, and each entry carrying its fact's current measure.
    fn assert_matches_rebuild(
        m: &mut MaintainableEdb,
        table: &iolap_model::FactTable,
        policy: &PolicySpec,
    ) {
        let got = live_multiset(&m.snapshot_segments().unwrap());
        let mut run = allocate(
            table,
            policy,
            Algorithm::Transitive,
            &AllocConfig::builder().in_memory(256).build(),
        )
        .unwrap();
        let mut want: Vec<EntryKey> = Vec::new();
        run.edb
            .for_each(|e| want.push((e.fact_id, e.cell, e.weight.to_bits(), e.measure.to_bits())))
            .unwrap();
        want.sort_unstable();
        let keys = |v: &[EntryKey]| v.iter().map(|e| (e.0, e.1)).collect::<Vec<_>>();
        assert_eq!(keys(&got), keys(&want), "served (fact, cell) entries differ");
        for ((id, cell, gw, gm), (_, _, w, measure)) in got.into_iter().zip(want) {
            let (gw, w) = (f64::from_bits(gw), f64::from_bits(w));
            assert!(
                (gw - w).abs() < 1e-6,
                "fact {id} cell {:?}: rebuilt {w} vs served {gw}",
                &cell[..2]
            );
            assert_eq!(gm, measure, "fact {id} cell {:?}: stale measure", &cell[..2]);
        }
    }

    #[test]
    fn maintenance_matches_full_rebuild() {
        let policy = PolicySpec::em_measure(0.00001);
        let mut m = build_maintainable(&policy);
        m.apply_batch(&[update(1, 500.0), update(13, 7.0)]).unwrap();
        let t = with_measure(with_measure(paper_example::table1(), 1, 500.0), 13, 7.0);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn unknown_fact_rejected() {
        let mut m = build_maintainable(&PolicySpec::em_count(0.01));
        assert!(m.apply_batch(&[update(999, 1.0)]).is_err());
        assert!(m.apply_batch(&[EdbMutation::Delete(999)]).is_err());
    }

    #[test]
    fn insert_precise_into_existing_cell_matches_rebuild() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        // Another sale at (MA, Civic) — c1's δ goes 1 → 2.
        let s = paper_example::schema();
        let ma = s.dim(0).node_by_name("MA").unwrap().0;
        let civic = s.dim(1).node_by_name("Civic").unwrap().0;
        let new = Fact::new(50, &[ma, civic], 70.0);
        m.apply_batch(&[EdbMutation::Insert(new.clone())]).unwrap();

        let mut t = paper_example::table1();
        t.push(new);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn insert_precise_new_cell_joins_covering_component_and_matches_rebuild() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        assert_eq!(m.num_components(), 2);
        // (NY, Sierra) is a brand-new cell covered by p9 = (East, Truck)
        // → joins CC2.
        let s = paper_example::schema();
        let ny = s.dim(0).node_by_name("NY").unwrap().0;
        let sierra = s.dim(1).node_by_name("Sierra").unwrap().0;
        let new = Fact::new(51, &[ny, sierra], 10.0);
        m.apply_batch(&[EdbMutation::Insert(new.clone())]).unwrap();
        assert_eq!(m.num_components(), 2, "no merge needed");

        let mut t = paper_example::table1();
        t.push(new);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn insert_imprecise_merging_both_components_matches_rebuild() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        assert_eq!(m.num_components(), 2);
        // (ALL, Sierra) covers c2 (CC2) and c5 (CC1) → merge.
        let s = paper_example::schema();
        let all = s.dim(0).node_by_name("ALL").unwrap().0;
        let sierra = s.dim(1).node_by_name("Sierra").unwrap().0;
        let new = Fact::new(52, &[all, sierra], 30.0);
        let rep = m.apply_batch(&[EdbMutation::Insert(new.clone())]).unwrap();
        assert!(rep.merges >= 1, "components must merge");
        assert_eq!(m.num_components(), 1);

        let mut t = paper_example::table1();
        t.push(new);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn delete_imprecise_splitting_component_matches_rebuild() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        // Deleting p11 = (ALL, Civic) disconnects c1 (with p6) from
        // c4/c5: CC1 splits.
        let rep = m.apply_batch(&[EdbMutation::Delete(11)]).unwrap();
        assert!(rep.splits >= 1, "CC1 must split");

        let t0 = paper_example::table1();
        let t = iolap_model::FactTable::from_facts(
            t0.schema().clone(),
            t0.facts().iter().filter(|f| f.id != 11).cloned().collect(),
        );
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn delete_precise_killing_cell_matches_rebuild() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        // Deleting p3 = (NY, F150) kills cell c3; p12 = (ALL, F150) loses
        // its only candidate cell and becomes unallocatable; p9 keeps c2.
        m.apply_batch(&[EdbMutation::Delete(3)]).unwrap();

        let t0 = paper_example::table1();
        let t = iolap_model::FactTable::from_facts(
            t0.schema().clone(),
            t0.facts().iter().filter(|f| f.id != 3).cloned().collect(),
        );
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    /// Table 1 with the facts `drop` removed and `add` appended.
    fn table1_with(drop: &[FactId], add: &[Fact]) -> iolap_model::FactTable {
        let t0 = paper_example::table1();
        let mut facts: Vec<Fact> =
            t0.facts().iter().filter(|f| !drop.contains(&f.id)).cloned().collect();
        facts.extend_from_slice(add);
        iolap_model::FactTable::from_facts(t0.schema().clone(), facts)
    }

    /// A fact over Table 1's schema, by node names.
    fn named_fact(id: FactId, loc: &str, auto: &str, measure: f64) -> Fact {
        let s = paper_example::schema();
        let l = s.dim(0).node_by_name(loc).unwrap().0;
        let a = s.dim(1).node_by_name(auto).unwrap().0;
        Fact::new(id, &[l, a], measure)
    }

    #[test]
    fn stranded_fact_rejoins_when_its_cell_returns_and_matches_rebuild() {
        // Deleting p3 = (NY, F150) strands p12 = (ALL, F150): no candidate
        // cell left. A new sale at (NY, F150) brings the cell back, and a
        // rebuild allocates p12 to it again.
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        m.apply_batch(&[EdbMutation::Delete(3)]).unwrap();
        assert!(!m.current_weights().unwrap().contains_key(&12), "p12 is stranded");
        let back = named_fact(60, "NY", "F150", 10.0);
        m.apply_batch(&[EdbMutation::Insert(back.clone())]).unwrap();
        assert_matches_rebuild(&mut m, &table1_with(&[3], &[back]), &policy);
    }

    #[test]
    fn uncovered_fact_joins_a_new_cell_and_matches_rebuild() {
        // (ALL, Camry) covers no candidate cell when inserted; the first
        // Camry sale, at (TX, Camry), gives it one.
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        let camry = named_fact(70, "ALL", "Camry", 40.0);
        m.apply_batch(&[EdbMutation::Insert(camry.clone())]).unwrap();
        assert!(!m.current_weights().unwrap().contains_key(&70), "nothing to allocate to yet");
        let sale = named_fact(71, "TX", "Camry", 5.0);
        m.apply_batch(&[EdbMutation::Insert(sale.clone())]).unwrap();
        assert_matches_rebuild(&mut m, &table1_with(&[], &[camry, sale]), &policy);
    }

    #[test]
    fn insert_after_a_merge_target_is_retired_matches_rebuild() {
        // Deleting p11 = (ALL, Civic) splits CC1 into pieces with fresh,
        // higher ids, so CC2 is the surviving id when (MA, ALL) merges it
        // with {c1, p6} and its bounding box grows. Deleting (MA, ALL)
        // splits the merge again and retires CC2's id. A new cell inside
        // CC2's old box, (TX, F150), must still find its one covering
        // fact, p12, and nothing that names the retired id.
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        m.apply_batch(&[EdbMutation::Delete(11)]).unwrap();
        let bridge = named_fact(53, "MA", "ALL", 30.0);
        let rep = m.apply_batch(&[EdbMutation::Insert(bridge)]).unwrap();
        assert_eq!(rep.merges, 1);
        let rep = m.apply_batch(&[EdbMutation::Delete(53)]).unwrap();
        assert_eq!(rep.splits, 1);
        let sale = named_fact(54, "TX", "F150", 20.0);
        m.apply_batch(&[EdbMutation::Insert(sale.clone())]).unwrap();
        assert_matches_rebuild(&mut m, &table1_with(&[11], &[sale]), &policy);
    }

    type EntryKey = (FactId, CellKey, u64, u64);

    fn live_multiset(views: &[SegmentView]) -> Vec<EntryKey> {
        let mut out = Vec::new();
        for v in views {
            for e in v.segment.records().unwrap() {
                if !v.exclude.contains(&e.fact_id) {
                    out.push((e.fact_id, e.cell, e.weight.to_bits(), e.measure.to_bits()));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// `t` with fact `id`'s measure replaced.
    fn with_measure(
        mut t: iolap_model::FactTable,
        id: FactId,
        measure: f64,
    ) -> iolap_model::FactTable {
        for f in t.facts_mut().iter_mut().filter(|f| f.id == id) {
            f.measure = measure;
        }
        t
    }

    #[test]
    fn segments_track_the_rebuild_through_mutations() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        let views = m.snapshot_segments().unwrap();
        assert_eq!(views.len(), 1, "pristine EDB is one base segment");
        assert_matches_rebuild(&mut m, &paper_example::table1(), &policy);

        let sierra = named_fact(60, "ALL", "Sierra", 30.0);
        m.apply_batch(&[EdbMutation::Insert(sierra.clone())]).unwrap();
        m.apply_batch(&[update(1, 500.0)]).unwrap();
        m.apply_batch(&[EdbMutation::Delete(11)]).unwrap();
        let views = m.snapshot_segments().unwrap();
        assert!(views.len() > 1, "mutations publish delta segments");
        let t = with_measure(table1_with(&[11], &[sierra]), 1, 500.0);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn unchanged_segments_are_shared_by_arc_identity() {
        let policy = PolicySpec::em_measure(0.001);
        let mut m = build_maintainable(&policy);
        let snap1 = m.snapshot_segments().unwrap();
        let snap2 = m.snapshot_segments().unwrap();
        assert!(Arc::ptr_eq(&snap1[0].segment, &snap2[0].segment));
        assert!(Arc::ptr_eq(&snap1[0].exclude, &snap2[0].exclude));

        m.apply_batch(&[update(2, 999.0)]).unwrap();
        let snap3 = m.snapshot_segments().unwrap();
        assert!(Arc::ptr_eq(&snap1[0].segment, &snap3[0].segment), "base segment is reused");
        assert_eq!(snap3.len(), 2, "one delta for the batch");
        // Copy-on-write: the old snapshot's exclusion view is untouched.
        assert!(snap1[0].exclude.is_empty());
        assert!(!snap3[0].exclude.is_empty(), "re-emitted facts retired from the base");
    }

    #[test]
    fn compaction_bounds_segments_and_preserves_the_live_multiset() {
        let policy = PolicySpec::em_measure(0.001);
        let mut m = build_maintainable(&policy);
        m.set_compaction_threshold(2);
        for round in 0..4 {
            let measure = 100.0 + round as f64;
            m.apply_batch(&[update(2, measure)]).unwrap();
            let views = m.snapshot_segments().unwrap();
            assert!(views.len() <= 3, "tiering keeps the segment count bounded");
            assert_matches_rebuild(
                &mut m,
                &with_measure(paper_example::table1(), 2, measure),
                &policy,
            );
        }
        assert!(m.num_compactions() >= 1, "threshold 2 must have compacted");
    }

    #[test]
    fn delete_after_compaction_is_still_excluded() {
        let policy = PolicySpec::em_measure(0.001);
        let mut m = build_maintainable(&policy);
        m.set_compaction_threshold(1);
        m.apply_batch(&[update(2, 50.0)]).unwrap();
        let _ = m.snapshot_segments().unwrap();
        m.apply_batch(&[update(2, 60.0)]).unwrap();
        let _ = m.snapshot_segments().unwrap(); // merges the two delta tiers
        assert!(m.num_compactions() >= 1);
        m.apply_batch(&[EdbMutation::Delete(11)]).unwrap();
        let t = with_measure(table1_with(&[11], &[]), 2, 60.0);
        assert_matches_rebuild(&mut m, &t, &policy);
    }

    #[test]
    fn a_lone_delta_tier_is_not_rewritten() {
        let policy = PolicySpec::em_measure(0.001);
        let mut m = build_maintainable(&policy);
        m.set_compaction_threshold(1);
        m.apply_batch(&[update(2, 50.0)]).unwrap();
        let first = m.snapshot_segments().unwrap();
        assert_eq!(first.len(), 2, "base plus one delta smaller than it");
        let compactions = m.num_compactions();
        for _ in 0..4 {
            let again = m.snapshot_segments().unwrap();
            assert_eq!(m.num_compactions(), compactions, "a one-tier merge ran");
            assert!(Arc::ptr_eq(&again[1].segment, &first[1].segment), "delta rewritten");
        }
    }

    #[test]
    fn background_compaction_installs_under_interleaved_batches() {
        let policy = PolicySpec::em_measure(0.001);
        let mut m = build_maintainable(&policy);
        m.set_compaction_threshold(2);
        m.set_background_compaction(true);
        for round in 0..4 {
            m.apply_batch(&[update(2, 100.0 + round as f64)]).unwrap();
            let _ = m.snapshot_segments().unwrap();
        }
        assert_eq!(m.num_compactions(), 0, "background mode never compacts inline");
        assert!(m.needs_compaction());

        // Two plans off the same state; batches keep landing while the
        // first merge "runs in the background" — the coordinator's real
        // schedule.
        let plan_a = m.prepare_compaction().unwrap().expect("over threshold");
        let plan_b = m.prepare_compaction().unwrap().expect("still over threshold");
        m.apply_batch(&[update(1, 7.0)]).unwrap();
        m.apply_batch(&[EdbMutation::Delete(11)]).unwrap();
        let before = live_multiset(&m.snapshot_segments().unwrap());

        let done = plan_a.run().unwrap();
        assert!(m.install_compaction(done).unwrap(), "append-only interleaving installs");
        assert_eq!(m.num_compactions(), 1);
        let views = m.snapshot_segments().unwrap();
        assert_eq!(live_multiset(&views), before, "installing moves no live entry");
        let t = with_measure(with_measure(table1_with(&[11], &[]), 2, 103.0), 1, 7.0);
        assert_matches_rebuild(&mut m, &t, &policy);

        // The second plan's inputs were spliced away: install refuses it.
        let stale = plan_b.run().unwrap();
        assert!(!m.install_compaction(stale).unwrap(), "stale plan must not install");
        assert_eq!(m.num_compactions(), 1);
        assert_eq!(live_multiset(&m.snapshot_segments().unwrap()), before);

        // Further mutations keep the invariant after the remap.
        m.apply_batch(&[update(2, 1.5)]).unwrap();
        assert_matches_rebuild(&mut m, &with_measure(t, 2, 1.5), &policy);
    }

    /// A seeded batch over `live` (ids of the table's current facts):
    /// measure updates, deletes, fresh inserts, the re-insert of an id
    /// deleted earlier, and now and then an update of a quarter of the
    /// table, so the deltas can outgrow the base tier.
    fn random_batch(
        table: &iolap_model::FactTable,
        live: &mut Vec<FactId>,
        gone: &mut Vec<Fact>,
        next_id: &mut FactId,
        s: &mut u64,
    ) -> Vec<EdbMutation> {
        let mut next = || {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        let mut batch = Vec::new();
        if next() % 8 == 0 {
            let all: Vec<FactId> = live.iter().copied().filter(|id| id % 4 == 0).collect();
            batch.extend(all.into_iter().map(|id| update(id, 7.0)));
        }
        for _ in 0..1 + next() % 6 {
            let r = next();
            let pick = (r >> 8) as usize % live.len();
            batch.push(match r % 5 {
                0 | 1 => update(live[pick], (r >> 20) as f64 % 100.0),
                2 if live.len() > 1 => {
                    let id = live.swap_remove(pick);
                    let mut f = table.facts().iter().find(|f| f.id == id).cloned();
                    gone.extend(f.take());
                    EdbMutation::Delete(id)
                }
                3 if !gone.is_empty() => {
                    let f = gone.swap_remove((r >> 8) as usize % gone.len());
                    live.push(f.id);
                    EdbMutation::Insert(f)
                }
                _ => {
                    let mut f = table.facts()[(r >> 8) as usize % table.len()].clone();
                    f.id = *next_id;
                    *next_id += 1;
                    live.push(f.id);
                    EdbMutation::Insert(f)
                }
            });
        }
        batch
    }

    #[test]
    fn planning_reads_counts_and_agrees_with_needs_compaction() {
        use iolap_datagen::{scaled, DatasetKind};
        for seed in [3u64, 11, 42] {
            let table = scaled(DatasetKind::Automotive, 400, seed);
            let policy = PolicySpec::em_count(0.01);
            for (threshold, background) in [(1, false), (1, true), (4, false), (4, true)] {
                let cfg = AllocConfig::builder().in_memory(256).build();
                let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
                let mut m = MaintainableEdb::build(run, policy.clone()).unwrap();
                m.set_compaction_threshold(threshold);
                m.set_background_compaction(background);
                let mut live: Vec<FactId> = table.facts().iter().map(|f| f.id).collect();
                let (mut gone, mut next_id) = (Vec::new(), 1_000_000);
                let mut s = seed * 2 + 1;
                let mut held: Option<CompactionPlan> = None;
                for b in 0..24 {
                    let batch = random_batch(&table, &mut live, &mut gone, &mut next_id, &mut s);
                    m.apply_batch(&batch).unwrap();
                    let views = m.snapshot_segments().unwrap();
                    let at = format!("seed {seed}, threshold {threshold}, batch {b}");
                    let decodes = crate::segment::page_decodes();
                    let needs = m.needs_compaction();
                    let plan = m.prepare_compaction().unwrap();
                    assert_eq!(crate::segment::page_decodes(), decodes, "{at}: planning decoded");
                    assert_eq!(needs, plan.is_some(), "{at}");
                    let counted: Vec<u64> =
                        views.iter().map(|v| v.live_entries().unwrap()).collect();
                    assert_eq!(m.seg_live, counted, "{at}: live counts drifted");
                    // A plan held across one batch installs over its
                    // retirements; the next is installed at once.
                    if let Some(plan) = held.take() {
                        assert!(m.install_compaction(plan.run().unwrap()).unwrap(), "{at}");
                    } else if let Some(plan) = plan {
                        if b % 2 == 0 {
                            held = Some(plan);
                        } else {
                            assert!(m.install_compaction(plan.run().unwrap()).unwrap(), "{at}");
                        }
                    }
                }
                if background {
                    assert!(m.num_compactions() >= 1, "seed {seed}, threshold {threshold}");
                }
            }
        }
    }

    #[test]
    fn insert_then_delete_roundtrips() {
        let policy = PolicySpec::em_count(0.00001);
        let mut m = build_maintainable(&policy);
        let s = paper_example::schema();
        let all = s.dim(0).node_by_name("ALL").unwrap().0;
        let sierra = s.dim(1).node_by_name("Sierra").unwrap().0;
        let new = Fact::new(53, &[all, sierra], 30.0);
        m.apply_batch(&[EdbMutation::Insert(new)]).unwrap();
        m.apply_batch(&[EdbMutation::Delete(53)]).unwrap();
        // Back to the original table's fixpoint.
        let t = paper_example::table1();
        assert_matches_rebuild(&mut m, &t, &policy);
    }
}
