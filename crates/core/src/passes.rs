//! Shared pass machinery: the summary-table cursors ("windows") that the
//! Block, Transitive and Independent algorithms slide over the cell scan.
//!
//! * [`GroupWindow`] — Block-style: the cell table is in canonical order
//!   and each summary table's facts are grouped into partition groups
//!   (Definition 9); at any moment at most one group per table is resident
//!   ("Update cursor on Si to partition p that could cover c").
//! * [`ChainWindow`] — Independent-style: cells are in a chain sort order
//!   and facts carry `[start, end]` stage keys; a fact is resident exactly
//!   while the scan key is inside its block (Theorem 5 guarantees blocks
//!   are contiguous, so residency is a single interval).

use crate::error::Result;
use crate::prep::region_of;
use iolap_graph::order::{ChainOrder, StageKey};
use iolap_graph::SummaryTableMeta;
use iolap_model::{CellKey, RegionBox, Schema, WorkFactCodec, WorkFactRecord};
use iolap_storage::RecordFile;

/// Per-cell cache of ancestor node ids at every (dimension, level): the
/// windows of all summary tables share it, so each cell pays for its
/// ancestor lookups once per scan instead of once per table.
pub struct AncCache {
    /// `anc[d][l-1]` = arena id of the ancestor of `cell[d]` at level `l`.
    anc: [[u32; 8]; iolap_model::MAX_DIMS],
}

impl AncCache {
    /// Compute the cache for `key` under `schema`.
    #[inline]
    pub fn compute(schema: &Schema, key: &CellKey) -> Self {
        let mut anc = [[0u32; 8]; iolap_model::MAX_DIMS];
        for d in 0..schema.k() {
            let h = schema.dim(d);
            for l in 1..=h.levels() {
                anc[d][(l - 1) as usize] = h.ancestor_at(key[d], l).0;
            }
        }
        AncCache { anc }
    }

    /// Ancestor id of dimension `d` at level `l`.
    #[inline]
    pub fn get(&self, d: usize, l: u8) -> u32 {
        self.anc[d][(l - 1) as usize]
    }
}

/// A fact resident in a window.
#[derive(Debug, Clone)]
pub struct ActiveFact {
    /// Index of the record in the facts file.
    pub file_idx: u64,
    /// The record (mutated in memory; flushed on retirement).
    pub rec: WorkFactRecord,
    /// Cached region.
    pub region: RegionBox,
    /// Whether the record changed and must be written back.
    pub dirty: bool,
}

/// What to do to a fact's `Γ` when it enters a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnLoad {
    /// Leave the record as read (second passes, component labelling).
    Keep,
    /// Zero `Γ` (start of an E-step pass).
    ResetGamma,
}

/// Block-style window over one summary table (see module docs).
///
/// Matching is O(1) per cell: all facts of one summary table sit at the
/// same level vector, so their per-dimension intervals are leaf ranges of
/// *same-level* nodes — pairwise disjoint. A cell is therefore covered by
/// exactly the facts whose dimension vector equals the cell's ancestor
/// vector at the table's levels, found by one hash lookup (duplicated
/// facts share the bucket).
pub struct GroupWindow {
    meta: SummaryTableMeta,
    on_load: OnLoad,
    /// Index of the next group to load.
    next_group: usize,
    /// Resident facts of the current group.
    window: Vec<ActiveFact>,
    /// dims-vector → window indexes (built per loaded group).
    by_dims: iolap_graph::FxHashMap<[u32; iolap_model::MAX_DIMS], Vec<u32>>,
    /// Scratch for batch reads.
    batch: Vec<WorkFactRecord>,
}

impl GroupWindow {
    /// A window over `meta`'s partition groups.
    pub fn new(meta: SummaryTableMeta, on_load: OnLoad) -> Self {
        GroupWindow {
            meta,
            on_load,
            next_group: 0,
            window: Vec::new(),
            by_dims: iolap_graph::FxHashMap::default(),
            batch: Vec::new(),
        }
    }

    /// Move the window to cover cell index `cell_idx` (monotonically
    /// increasing across calls). Retired facts are flushed.
    pub fn advance(
        &mut self,
        cell_idx: u64,
        facts: &mut RecordFile<WorkFactRecord, WorkFactCodec>,
        schema: &Schema,
    ) -> Result<()> {
        // Retire the current group once the scan passes its last cell.
        if !self.window.is_empty() {
            let last = self.meta.groups[self.next_group - 1].last_cell;
            if cell_idx > last {
                self.flush(facts)?;
            }
        }
        // Load the next group when the scan reaches it.
        while self.window.is_empty() && self.next_group < self.meta.groups.len() {
            let g = &self.meta.groups[self.next_group];
            if cell_idx < g.first_cell {
                break;
            }
            if cell_idx > g.last_cell {
                // Scan jumped past an entire group (possible when the
                // caller skips cells); nothing in it matched — still count
                // it as visited.
                self.next_group += 1;
                continue;
            }
            self.batch.clear();
            facts.read_batch(
                g.fact_start,
                &mut self.batch,
                (g.fact_end - g.fact_start) as usize,
            )?;
            for (off, mut rec) in self.batch.drain(..).enumerate() {
                if self.on_load == OnLoad::ResetGamma {
                    rec.gamma = 0.0;
                }
                let region = region_of(schema, &rec.dims);
                self.by_dims.entry(rec.dims).or_default().push(self.window.len() as u32);
                self.window.push(ActiveFact {
                    file_idx: g.fact_start + off as u64,
                    rec,
                    region,
                    dirty: self.on_load == OnLoad::ResetGamma,
                });
            }
            self.next_group += 1;
        }
        Ok(())
    }

    /// Visit every resident fact whose region contains the cell whose
    /// ancestor cache is `anc`: build the table's dimension vector from
    /// the cache and look it up.
    pub fn for_each_match(&mut self, anc: &AncCache, k: usize, mut f: impl FnMut(&mut ActiveFact)) {
        if self.window.is_empty() {
            return;
        }
        let mut dims = [0u32; iolap_model::MAX_DIMS];
        for (d, slot) in dims.iter_mut().enumerate().take(k) {
            *slot = anc.get(d, self.meta.level_vec[d]);
        }
        if let Some(idxs) = self.by_dims.get(&dims) {
            for &i in idxs {
                f(&mut self.window[i as usize]);
            }
        }
    }

    /// Collect the window-slot indexes of the facts covering the cell
    /// (lets a caller read matches, compute something, then mutate them
    /// without a second lookup).
    pub fn matches_into(&mut self, anc: &AncCache, k: usize, out: &mut Vec<u32>) {
        out.clear();
        if self.window.is_empty() {
            return;
        }
        let mut dims = [0u32; iolap_model::MAX_DIMS];
        for (d, slot) in dims.iter_mut().enumerate().take(k) {
            *slot = anc.get(d, self.meta.level_vec[d]);
        }
        if let Some(idxs) = self.by_dims.get(&dims) {
            out.extend_from_slice(idxs);
        }
    }

    /// Direct access to a resident fact by window slot (see
    /// [`Self::matches_into`]).
    pub fn fact_mut(&mut self, slot: u32) -> &mut ActiveFact {
        &mut self.window[slot as usize]
    }

    /// Write back dirty facts and empty the window.
    pub fn flush(&mut self, facts: &mut RecordFile<WorkFactRecord, WorkFactCodec>) -> Result<()> {
        for af in self.window.drain(..) {
            if af.dirty {
                facts.set(af.file_idx, &af.rec)?;
            }
        }
        self.by_dims.clear();
        Ok(())
    }

    /// Peak number of resident records (should equal the partition size
    /// when the whole table is scanned).
    pub fn meta(&self) -> &SummaryTableMeta {
        &self.meta
    }
}

/// Independent-style window over a chain-sorted fact file.
pub struct ChainWindow {
    order: ChainOrder,
    /// Next record to load.
    next_idx: u64,
    /// Total records in the file.
    len: u64,
    /// Read-ahead slot.
    pending: Option<(u64, WorkFactRecord, StageKey)>,
    /// Resident facts with their block-end keys.
    active: Vec<(ActiveFact, StageKey)>,
}

impl ChainWindow {
    /// A window over `facts` (sorted by block-start key under `order`).
    pub fn new(order: ChainOrder, len: u64) -> Self {
        ChainWindow { order, next_idx: 0, len, pending: None, active: Vec::new() }
    }

    /// Move the window to the cell with stage key `cell_key`
    /// (monotonically increasing). Loads facts whose blocks have begun,
    /// retires facts whose blocks have ended.
    pub fn advance(
        &mut self,
        cell_key: &StageKey,
        facts: &mut RecordFile<WorkFactRecord, WorkFactCodec>,
        schema: &Schema,
        on_load: OnLoad,
    ) -> Result<()> {
        // Retire.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].1 < *cell_key {
                let (af, _) = self.active.swap_remove(i);
                if af.dirty {
                    facts.set(af.file_idx, &af.rec)?;
                }
            } else {
                i += 1;
            }
        }
        // Load.
        loop {
            if self.pending.is_none() {
                if self.next_idx >= self.len {
                    break;
                }
                let rec = facts.get(self.next_idx)?;
                let region = region_of(schema, &rec.dims);
                let start = self.order.region_start_key(schema, &region);
                self.pending = Some((self.next_idx, rec, start));
                self.next_idx += 1;
            }
            let starts = self.pending.as_ref().map(|(_, _, s)| *s).expect("set above");
            if starts > *cell_key {
                break;
            }
            let (idx, mut rec, _) = self.pending.take().expect("checked");
            if on_load == OnLoad::ResetGamma {
                rec.gamma = 0.0;
            }
            let region = region_of(schema, &rec.dims);
            let end = self.order.region_end_key(schema, &region);
            self.active.push((
                ActiveFact { file_idx: idx, rec, region, dirty: on_load == OnLoad::ResetGamma },
                end,
            ));
        }
        Ok(())
    }

    /// Visit every resident fact whose region contains `key`.
    pub fn for_each_match(&mut self, key: &CellKey, mut f: impl FnMut(&mut ActiveFact)) {
        for (af, _) in &mut self.active {
            if af.region.contains_cell(key) {
                f(af);
            }
        }
    }

    /// Flush everything (end of scan).
    pub fn flush(&mut self, facts: &mut RecordFile<WorkFactRecord, WorkFactCodec>) -> Result<()> {
        for (af, _) in self.active.drain(..) {
            if af.dirty {
                facts.set(af.file_idx, &af.rec)?;
            }
        }
        if let Some((idx, rec, _)) = self.pending.take() {
            // Never became active; nothing changed.
            let _ = (idx, rec);
        }
        Ok(())
    }

    /// Current number of resident facts (tests).
    pub fn resident(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use crate::prep::prepare;
    use iolap_model::paper_example;

    #[test]
    fn group_window_visits_every_edge_once() {
        let env =
            iolap_storage::Env::builder("win-test").pool_pages(64).in_memory().build().unwrap();
        let t = paper_example::table1();
        let mut p = prepare(&t, &PolicySpec::em_count(0.05), &env, 8).unwrap();

        // Slide windows for all 5 tables over the 5 cells; count edges.
        let mut windows: Vec<GroupWindow> =
            p.tables.iter().map(|m| GroupWindow::new(m.clone(), OnLoad::Keep)).collect();
        let mut edges = 0u64;
        let n = p.cells.len();
        for i in 0..n {
            let cell = p.cells.get(i).unwrap();
            let anc = AncCache::compute(&p.schema, &cell.key);
            for w in &mut windows {
                w.advance(i, &mut p.facts, &p.schema).unwrap();
                w.for_each_match(&anc, 2, |_| edges += 1);
            }
        }
        for w in &mut windows {
            w.flush(&mut p.facts).unwrap();
        }
        assert_eq!(edges, 12, "Figure 2 has 12 edges");
    }

    #[test]
    fn group_window_gamma_accumulation_roundtrips() {
        let env = iolap_storage::Env::builder("win-g").pool_pages(64).in_memory().build().unwrap();
        let t = paper_example::table1();
        let mut p = prepare(&t, &PolicySpec::em_count(0.05), &env, 8).unwrap();
        let mut windows: Vec<GroupWindow> =
            p.tables.iter().map(|m| GroupWindow::new(m.clone(), OnLoad::ResetGamma)).collect();
        for i in 0..p.cells.len() {
            let cell = p.cells.get(i).unwrap();
            let anc = AncCache::compute(&p.schema, &cell.key);
            for w in &mut windows {
                w.advance(i, &mut p.facts, &p.schema).unwrap();
                w.for_each_match(&anc, 2, |af| {
                    af.rec.gamma += cell.delta;
                    af.dirty = true;
                });
            }
        }
        for w in &mut windows {
            w.flush(&mut p.facts).unwrap();
        }
        // With δ = 1 per cell, Γ(r) = number of covered cells.
        let mut by_id = std::collections::HashMap::new();
        let mut cursor = p.facts.scan();
        while let Some(r) = cursor.next().unwrap() {
            by_id.insert(r.id, r.gamma);
        }
        assert_eq!(by_id[&6], 1.0); // p6 covers c1
        assert_eq!(by_id[&8], 2.0); // p8 covers c4, c5
        assert_eq!(by_id[&9], 2.0); // p9 covers c2, c3
        assert_eq!(by_id[&11], 2.0); // p11 covers c1, c4
        assert_eq!(by_id[&12], 1.0);
    }

    #[test]
    fn chain_window_matches_group_window_edges() {
        let env = iolap_storage::Env::builder("win-c").pool_pages(64).in_memory().build().unwrap();
        let t = paper_example::table1();
        let p = prepare(&t, &PolicySpec::em_count(0.05), &env, 8).unwrap();
        let schema = p.schema.clone();

        // One chain with all five tables is NOT a chain of the partial
        // order, so exercise a real chain: ⟨2,1⟩ ⊑ ⟨2,2⟩.
        let chain_tables: Vec<&iolap_graph::SummaryTableMeta> = p
            .tables
            .iter()
            .filter(|m| m.level_vec[..2] == [2, 1] || m.level_vec[..2] == [2, 2])
            .collect();
        let lvs: Vec<_> = chain_tables.iter().map(|m| m.level_vec).collect();
        let order = ChainOrder::for_chain(&lvs, &schema);

        // Copy chain facts to a temp file sorted by block start key.
        let mut temp = env.create_file("chain", iolap_model::WorkFactCodec { k: 2 }).unwrap();
        {
            let mut all: Vec<WorkFactRecord> = Vec::new();
            for m in &chain_tables {
                let mut batch = Vec::new();
                p.facts
                    .read_batch(m.fact_start, &mut batch, (m.fact_end - m.fact_start) as usize)
                    .unwrap();
                all.extend(batch);
            }
            all.sort_by_key(|r| {
                let region = region_of(&schema, &r.dims);
                order.region_start_key(&schema, &region)
            });
            temp.extend(all.iter()).unwrap();
        }

        // Sort the cells by the chain order and slide the window.
        let mut cells: Vec<_> = (0..p.cells.len()).map(|i| p.cells.get(i).unwrap()).collect();
        cells.sort_by_key(|c| order.cell_key(&schema, &c.key));
        let mut w = ChainWindow::new(order, temp.len());
        let mut edges = 0;
        for c in &cells {
            let key = w.order.cell_key(&schema, &c.key);
            w.advance(&key, &mut temp, &schema, OnLoad::Keep).unwrap();
            w.for_each_match(&c.key, |_| edges += 1);
            assert!(w.resident() <= 3, "chain window should stay tiny");
        }
        w.flush(&mut temp).unwrap();
        // Edges of S5 {p13→c4, p14→c5} and S3 {p9→c2,c3, p10→c4}: 5 edges.
        assert_eq!(edges, 5);
    }
}
