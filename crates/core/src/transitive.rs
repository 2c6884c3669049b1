//! The Transitive Algorithm (Algorithm 5, Sections 7–8).
//!
//! Theorem 9: running the Basic Algorithm on the whole allocation graph is
//! equivalent to running it on each connected component separately,
//! *across all iterations*. Transitive exploits this:
//!
//! 1. **Identify** components with a Block-style pass per table set,
//!    assigning provisional ccids and merging them through the in-memory
//!    `ccidMap` (a union-find resolving to the smallest id — the paper's
//!    convention).
//! 2. **Sort** cells and facts by resolved ccid (external sort; stable, so
//!    within a component cells stay canonical and facts stay in
//!    `(table, first, last)` order).
//! 3. **Process** each component: if it fits the buffer, read it in and
//!    iterate to *local* convergence entirely in memory (each small
//!    component pays its I/O once, independent of the iteration count —
//!    the paper's headline win); otherwise fall back to the external
//!    Block algorithm on the component's own files.
//!
//! EDB entries are written out per component as it completes.

use crate::block::{plan_sets, run_block_with_sets};
use crate::edb::{materialize, ExtendedDatabase};
use crate::error::Result;
use crate::inmem::InMemProblem;
use crate::passes::{AncCache, GroupWindow, OnLoad};
use crate::policy::PolicySpec;
use crate::prep::{layout_facts, LayoutResult, PreparedData};
use crate::report::ComponentStats;
use iolap_graph::{CcidMap, CellSetIndex};
use iolap_model::records::NO_CCID;
use iolap_model::{
    CellCodec, CellRecord, EdbRecord, FactCodec, LevelVec, WorkFactCodec, WorkFactRecord,
};
use iolap_storage::{external_sort, RecordFile, SortBudget};
use std::collections::HashMap;

/// Outcome of a Transitive run.
#[derive(Debug, Clone)]
pub struct TransitiveOutcome {
    /// Maximum iterations any component needed.
    pub iterations_max: u32,
    /// Did every component converge?
    pub converged: bool,
    /// Table sets used by the identification pass.
    pub num_table_sets: u64,
    /// Component census (the Section 11.2 numbers).
    pub stats: ComponentStats,
    /// True if a single table's partition exceeded the window budget.
    pub over_budget: bool,
    /// The raw→resolved ccid map (index = the ccid stored in records).
    pub resolved: Vec<u32>,
}

/// Run the Transitive algorithm, emitting imprecise-fact EDB entries into
/// `edb`. (Precise entries are emitted by the runner.)
///
/// `per_component_convergence` is the Section 11.1 optimization ("iterate
/// over entries in CC until Δ(c) for each cell converge — the number of
/// iterations varies from component to component"); disabling it forces
/// every in-memory component to run the global maximum iteration count
/// (the ablation benchmark).
pub fn run_transitive(
    prep: &mut PreparedData,
    policy: &PolicySpec,
    buffer_pages: usize,
    sort_pages: usize,
    edb: &mut ExtendedDatabase,
    per_component_convergence: bool,
) -> Result<TransitiveOutcome> {
    let schema = prep.schema.clone();
    let k = schema.k();
    let window_pages = (buffer_pages as u64).saturating_sub(4).max(1);
    let (sets, over_budget) = plan_sets(prep, window_pages);
    let n_cells = prep.cells.len();

    // ---- Step 1: assign ccids (lines 8–19) ------------------------------
    let obs = prep.env.obs().clone();
    let mut step_span = obs.span("transitive.assign_ccids");
    let mut map = CcidMap::new();
    if sets.is_empty() {
        // No imprecise facts at all: every cell is its own component.
        let mut cursor = prep.cells.scan();
        while let Some(mut cell) = cursor.next()? {
            cell.ccid = map.alloc();
            cursor.write_back(&cell)?;
        }
    }
    let last_set = sets.len().saturating_sub(1);
    for (s, set) in sets.iter().enumerate() {
        let mut windows: Vec<GroupWindow> =
            set.iter().map(|&ti| GroupWindow::new(prep.tables[ti].clone(), OnLoad::Keep)).collect();
        let mut cursor = prep.cells.scan();
        let mut i = 0u64;
        let mut assigned: Vec<u32> = Vec::new();
        // Per-window scratch of matched slots, reused across cells.
        let mut slots: Vec<Vec<u32>> = windows.iter().map(|_| Vec::new()).collect();
        while let Some(mut cell) = cursor.next()? {
            assigned.clear();
            let anc = AncCache::compute(&schema, &cell.key);
            let mut any_fact = false;
            for (w, out) in windows.iter_mut().zip(slots.iter_mut()) {
                w.advance(i, &mut prep.facts, &schema)?;
                w.matches_into(&anc, schema.k(), out);
                for &slot in out.iter() {
                    any_fact = true;
                    let ccid = w.fact_mut(slot).rec.ccid;
                    if ccid != NO_CCID {
                        assigned.push(ccid);
                    }
                }
            }
            let cell_had = cell.ccid != NO_CCID;
            if cell_had {
                assigned.push(cell.ccid);
            }
            if assigned.is_empty() && !any_fact {
                // Isolated cell (so far). Assign its singleton component on
                // the last set's scan only — an earlier set's miss says
                // nothing about later sets.
                if s == last_set && !cell_had {
                    cell.ccid = map.alloc();
                    cursor.write_back(&cell)?;
                }
                i += 1;
                continue;
            }
            // "minCcid ← smallest currMap[t.ccid]; merge."
            let root = map.union_all(&assigned);
            if cell.ccid != root {
                cell.ccid = root;
                cursor.write_back(&cell)?;
            }
            for (w, out) in windows.iter_mut().zip(slots.iter()) {
                for &slot in out {
                    let af = w.fact_mut(slot);
                    if af.rec.ccid != root {
                        af.rec.ccid = root;
                        af.dirty = true;
                    }
                }
            }
            i += 1;
        }
        drop(cursor);
        for w in &mut windows {
            w.flush(&mut prep.facts)?;
        }
    }

    step_span.record("provisional_ccids", map.len());
    drop(step_span);

    // ---- Step 2: sort tuples into component order (lines 21–24) --------
    let mut step_span = obs.span("transitive.sort_by_ccid");
    map.resolve_all();
    let resolved: Vec<u32> = (0..map.len()).map(|i| map.peek(i)).collect();

    sort_cells_by_ccid(prep, &resolved, sort_pages)?;
    sort_facts_by_ccid(prep, &resolved, sort_pages)?;

    // Component sizes (cells, facts) — one cheap metadata pass; the
    // per-component HashMap mirrors the paper's memory-resident ccidMap.
    let mut comp_sizes: HashMap<u32, (u64, u64)> = HashMap::new();
    {
        let mut cursor = prep.cells.scan();
        while let Some(c) = cursor.next()? {
            comp_sizes.entry(resolved[c.ccid as usize]).or_insert((0, 0)).0 += 1;
        }
    }
    {
        let mut cursor = prep.facts.scan();
        while let Some(f) = cursor.next()? {
            if f.ccid != NO_CCID {
                comp_sizes.entry(resolved[f.ccid as usize]).or_insert((0, 0)).1 += 1;
            }
        }
    }

    step_span.record("components", comp_sizes.len());
    drop(step_span);

    // ---- Step 3: process components (lines 26–34) ------------------------
    let mut step_span = obs.span("transitive.process_components");
    // Per-component telemetry: size and iteration histograms.
    let h_tuples = obs.histogram("transitive.component_tuples");
    let h_iters = obs.histogram("transitive.component_iters");
    let external_ctr = obs.counter("transitive.external_components");
    let cell_codec = CellCodec { k };
    let work_codec = WorkFactCodec { k };
    let cell_bytes = iolap_storage::Codec::<CellRecord>::size(&cell_codec) as u64;
    let fact_bytes = iolap_storage::Codec::<WorkFactRecord>::size(&work_codec) as u64;
    let page = iolap_storage::PAGE_SIZE as u64;

    let mut stats = ComponentStats { total: comp_sizes.len() as u64, ..Default::default() };
    let mut iterations_max = 0u32;
    let mut converged = true;

    // Pre-size census.
    for (&_ccid, &(nc, nf)) in &comp_sizes {
        let tuples = nc + nf;
        if nc == 1 && nf == 0 {
            stats.singleton_cells += 1;
        }
        if tuples > 20 {
            stats.over_20 += 1;
        }
        if tuples > 100 {
            stats.over_100 += 1;
        }
        if tuples >= 1000 {
            stats.over_1000 += 1;
        }
        stats.largest = stats.largest.max(tuples);
    }

    let level_vecs: Vec<LevelVec> = prep.tables.iter().map(|t| t.level_vec).collect();
    let n_facts = prep.facts.len();

    let conv = if per_component_convergence {
        policy.convergence
    } else {
        // Ablation: force the global cap on every component.
        crate::policy::Convergence { epsilon: 0.0, max_iters: policy.convergence.max_iters }
    };

    let mut walk = ComponentWalk {
        prep,
        resolved: &resolved,
        comp_sizes: &comp_sizes,
        cell_pos: 0,
        fact_pos: 0,
        n_cells,
        n_facts,
        cell_bytes,
        fact_bytes,
        page,
    };
    let mut comp_cells: Vec<CellRecord> = Vec::new();
    let mut comp_facts: Vec<WorkFactRecord> = Vec::new();
    while let Some(head) = walk.next_component()? {
        if head.pages < window_pages.max(2) {
            // In-memory component: gather, solve to local convergence,
            // emit, advance.
            walk.gather(&head, &mut comp_cells, &mut comp_facts)?;
            if head.nf == 0 {
                continue; // isolated cells: Δ = δ forever, nothing to emit
            }
            let mut on_iter = |t: u32, max_rel: f64, remaining: u64| {
                obs.point(
                    "fixpoint.iteration",
                    vec![
                        ("algorithm".to_string(), "transitive".into()),
                        ("component_tuples".to_string(), (head.nc + head.nf).into()),
                        ("iter".to_string(), t.into()),
                        ("max_rel_delta".to_string(), max_rel.into()),
                        ("remaining".to_string(), remaining.into()),
                    ],
                );
            };
            let done = solve_component(
                std::mem::take(&mut comp_cells),
                std::mem::take(&mut comp_facts),
                &schema,
                &conv,
                if obs.is_tracing() { Some(&mut on_iter) } else { None },
            );
            if let Some(h) = &h_tuples {
                h.observe(head.nc + head.nf);
            }
            if let Some(h) = &h_iters {
                h.observe(done.iters as u64);
            }
            iterations_max = iterations_max.max(done.iters);
            converged &= done.converged;
            for (e, first) in &done.entries {
                edb.push(e, false, *first)?;
            }
        } else {
            let (iters, ok) = run_external_component(
                &mut walk,
                &head,
                policy,
                &level_vecs,
                window_pages,
                sort_pages,
                edb,
            )?;
            if let Some(h) = &h_tuples {
                h.observe(head.nc + head.nf);
            }
            if let Some(h) = &h_iters {
                h.observe(iters as u64);
            }
            if let Some(c) = &external_ctr {
                c.inc();
            }
            stats.large_external += 1;
            stats.external_tuples += head.nc + head.nf;
            iterations_max = iterations_max.max(iters);
            converged &= ok;
        }
    }

    step_span.record("components", stats.total);
    step_span.record("external_components", stats.large_external);
    drop(step_span);
    Ok(TransitiveOutcome {
        iterations_max,
        converged,
        num_table_sets: sets.len() as u64,
        stats,
        over_budget,
        resolved,
    })
}

/// A solved component on its way to the EDB.
struct CompDone {
    iters: u32,
    converged: bool,
    /// EDB entries with their "first entry for this fact" flags. Each
    /// imprecise fact lives in exactly one component, so flags computed
    /// per component are globally correct.
    entries: Vec<(EdbRecord, bool)>,
}

/// Solve one buffer-resident component: pure CPU, no storage access.
/// `on_iter` (iteration, max relative delta, unconverged cells) feeds the
/// fixpoint telemetry when a trace sink is attached.
fn solve_component(
    cells: Vec<CellRecord>,
    facts: Vec<WorkFactRecord>,
    schema: &iolap_model::Schema,
    conv: &crate::policy::Convergence,
    on_iter: Option<&mut dyn FnMut(u32, f64, u64)>,
) -> CompDone {
    let mut prob = InMemProblem::build(cells, facts, schema);
    let (iters, converged) = prob.solve_observed(conv, on_iter);
    let mut first_seen: HashMap<u64, ()> = HashMap::new();
    let mut entries = Vec::new();
    prob.emit(|e| {
        let first = first_seen.insert(e.fact_id, ()).is_none();
        entries.push((e, first));
    });
    CompDone { iters, converged, entries }
}

/// The head of the next component in the ccid-sorted files.
struct CompHead {
    nc: u64,
    nf: u64,
    pages: u64,
}

/// Sequential reader over the ccid-sorted cell and fact files. All storage
/// reads of step 3 go through this.
struct ComponentWalk<'a> {
    prep: &'a mut PreparedData,
    resolved: &'a [u32],
    comp_sizes: &'a HashMap<u32, (u64, u64)>,
    cell_pos: u64,
    fact_pos: u64,
    n_cells: u64,
    n_facts: u64,
    cell_bytes: u64,
    fact_bytes: u64,
    page: u64,
}

impl ComponentWalk<'_> {
    /// Peek the next component (min ccid of the two file heads) and its
    /// size. `None` when only uncovered facts (ccid = NO_CCID) remain.
    fn next_component(&mut self) -> Result<Option<CompHead>> {
        if self.cell_pos >= self.n_cells && self.fact_pos >= self.n_facts {
            return Ok(None);
        }
        let head_cell = if self.cell_pos < self.n_cells {
            Some(self.resolved[self.prep.cells.get(self.cell_pos)?.ccid as usize])
        } else {
            None
        };
        let head_fact = if self.fact_pos < self.n_facts {
            let f = self.prep.facts.get(self.fact_pos)?;
            (f.ccid != NO_CCID).then(|| self.resolved[f.ccid as usize])
        } else {
            None
        };
        let Some(current) = [head_cell, head_fact].into_iter().flatten().min() else {
            return Ok(None);
        };
        let (nc, nf) = self.comp_sizes[&current];
        let pages =
            (nc * self.cell_bytes).div_ceil(self.page) + (nf * self.fact_bytes).div_ceil(self.page);
        Ok(Some(CompHead { nc, nf, pages }))
    }

    /// Read the component's records into `cells`/`facts` and advance.
    fn gather(
        &mut self,
        head: &CompHead,
        cells: &mut Vec<CellRecord>,
        facts: &mut Vec<WorkFactRecord>,
    ) -> Result<()> {
        cells.clear();
        facts.clear();
        cells.reserve(head.nc as usize);
        facts.reserve(head.nf as usize);
        for _ in 0..head.nc {
            cells.push(self.prep.cells.get(self.cell_pos)?);
            self.cell_pos += 1;
        }
        for _ in 0..head.nf {
            facts.push(self.prep.facts.get(self.fact_pos)?);
            self.fact_pos += 1;
        }
        Ok(())
    }
}

/// Spill an oversized component to its own files and run the external
/// Block algorithm on them, materializing straight into `edb`. Returns
/// `(iterations, converged)`.
fn run_external_component(
    walk: &mut ComponentWalk<'_>,
    head: &CompHead,
    policy: &PolicySpec,
    level_vecs: &[LevelVec],
    window_pages: u64,
    sort_pages: usize,
    edb: &mut ExtendedDatabase,
) -> Result<(u32, bool)> {
    let env = walk.prep.env.clone();
    let schema = walk.prep.schema.clone();
    let k = schema.k();
    let cell_codec = CellCodec { k };
    let work_codec = WorkFactCodec { k };

    let mut sub_cells: RecordFile<CellRecord, CellCodec> =
        env.create_file("cc-cells", cell_codec)?;
    let mut keys = Vec::with_capacity(head.nc as usize);
    for _ in 0..head.nc {
        let c = walk.prep.cells.get(walk.cell_pos)?;
        keys.push(c.key);
        sub_cells.push(&c)?;
        walk.cell_pos += 1;
    }
    sub_cells.seal();
    let mut sub_facts_raw: RecordFile<WorkFactRecord, WorkFactCodec> =
        env.create_file("cc-facts", work_codec)?;
    for _ in 0..head.nf {
        sub_facts_raw.push(&walk.prep.facts.get(walk.fact_pos)?)?;
        walk.fact_pos += 1;
    }
    sub_facts_raw.seal();

    // Re-layout against the component's own cell index (first/last
    // were global indexes).
    let sub_index = CellSetIndex::from_sorted(keys, k);
    let lvs = level_vecs.to_vec();
    let layout = layout_facts(
        &env,
        &schema,
        &sub_index,
        sub_facts_raw,
        &move |t| lvs[t as usize],
        sort_pages,
    )?;
    let LayoutResult { facts, tables, .. } = layout;

    let mut sub = PreparedData {
        schema: schema.clone(),
        env: env.clone(),
        cells: sub_cells,
        facts,
        precise: env.create_file("cc-precise", FactCodec { k })?,
        index: sub_index,
        tables,
        cover: iolap_graph::order::chain_cover(&[], k),
        unallocatable: 0,
        num_edges: 0,
    };
    let (sub_sets, _) = plan_sets(&sub, window_pages);
    let out = run_block_with_sets(&mut sub, policy, &sub_sets)?;
    materialize(&mut sub, &sub_sets, edb, false)?;
    sub.cells.delete()?;
    sub.facts.delete()?;
    sub.precise.delete()?;
    Ok((out.iterations, out.converged))
}

fn sort_cells_by_ccid(prep: &mut PreparedData, resolved: &[u32], sort_pages: usize) -> Result<()> {
    let env = prep.env.clone();
    let k = prep.schema.k();
    let placeholder = env.create_file("cells-ph", CellCodec { k })?;
    let cells = std::mem::replace(&mut prep.cells, placeholder);
    let resolved = resolved.to_vec();
    let sorted = external_sort(&env, cells, SortBudget::pages(sort_pages), move |c| {
        resolved[c.ccid as usize]
    })?;
    let placeholder = std::mem::replace(&mut prep.cells, sorted);
    placeholder.delete()?;
    Ok(())
}

fn sort_facts_by_ccid(prep: &mut PreparedData, resolved: &[u32], sort_pages: usize) -> Result<()> {
    let env = prep.env.clone();
    let k = prep.schema.k();
    let placeholder = env.create_file("facts-ph", WorkFactCodec { k })?;
    let facts = std::mem::replace(&mut prep.facts, placeholder);
    let resolved = resolved.to_vec();
    let sorted = external_sort(&env, facts, SortBudget::pages(sort_pages), move |f| {
        if f.ccid == NO_CCID {
            u32::MAX
        } else {
            resolved[f.ccid as usize]
        }
    })?;
    let placeholder = std::mem::replace(&mut prep.facts, sorted);
    placeholder.delete()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::run_basic;
    use crate::policy::PolicySpec;
    use crate::prep::prepare;
    use iolap_model::paper_example;
    use iolap_storage::Env;

    fn env() -> Env {
        Env::builder("trans-test").pool_pages(256).in_memory().build().unwrap()
    }

    #[test]
    fn identifies_example5_components() {
        let policy = PolicySpec::em_count(0.001);
        let env = env();
        let t = paper_example::table1();
        let mut p = prepare(&t, &policy, &env, 8).unwrap();
        let mut edb = ExtendedDatabase::create(&env, 2).unwrap();
        let out = run_transitive(&mut p, &policy, 64, 8, &mut edb, true).unwrap();
        assert!(out.converged);
        // Figure 2 has exactly two components, no isolated cells.
        assert_eq!(out.stats.total, 2);
        assert_eq!(out.stats.singleton_cells, 0);
        assert_eq!(out.stats.largest, 9, "CC1 has 3 cells + 6 facts");
        assert_eq!(out.stats.large_external, 0);
    }

    #[test]
    fn transitive_weights_match_basic() {
        let policy = PolicySpec::em_count(0.0001);
        let t = paper_example::table1();

        let env1 = env();
        let mut p1 = prepare(&t, &policy, &env1, 8).unwrap();
        let (mut basic, _, c1) = run_basic(&mut p1, &policy).unwrap();
        assert!(c1);
        let mut basic_weights: HashMap<u64, Vec<(u64, f64)>> = HashMap::new();
        basic.emit(|e| {
            basic_weights
                .entry(e.fact_id)
                .or_default()
                .push((((e.cell[0] as u64) << 32) | e.cell[1] as u64, e.weight));
        });

        let env2 = env();
        let mut p2 = prepare(&t, &policy, &env2, 8).unwrap();
        let mut edb = ExtendedDatabase::create(&env2, 2).unwrap();
        let out = run_transitive(&mut p2, &policy, 64, 8, &mut edb, true).unwrap();
        assert!(out.converged);

        let m = edb.weight_map().unwrap();
        assert_eq!(m.len(), basic_weights.len());
        for (id, entries) in &basic_weights {
            let got = &m[id];
            assert_eq!(got.len(), entries.len(), "fact {id}");
            for ((cell, w), (gcell, gw)) in entries.iter().zip(got.iter()) {
                let gkey = ((gcell[0] as u64) << 32) | gcell[1] as u64;
                assert_eq!(*cell, gkey, "fact {id}");
                assert!((w - gw).abs() < 1e-6, "fact {id}: basic {w} vs transitive {gw}");
            }
        }
    }

    #[test]
    fn tiny_buffer_forces_external_components() {
        // With a 2-page window budget every multi-tuple component of a
        // larger dataset goes external; results must still match.
        let policy = PolicySpec::em_count(0.01);
        let t = paper_example::table1();

        let env1 = env();
        let mut p1 = prepare(&t, &policy, &env1, 8).unwrap();
        let mut edb1 = ExtendedDatabase::create(&env1, 2).unwrap();
        run_transitive(&mut p1, &policy, 256, 8, &mut edb1, true).unwrap();

        let env2 = env();
        let mut p2 = prepare(&t, &policy, &env2, 8).unwrap();
        let mut edb2 = ExtendedDatabase::create(&env2, 2).unwrap();
        let out = run_transitive(&mut p2, &policy, 5, 8, &mut edb2, true).unwrap();
        assert!(out.stats.large_external >= 1, "5-page budget must spill");

        let m1 = edb1.weight_map().unwrap();
        let m2 = edb2.weight_map().unwrap();
        assert_eq!(m1.len(), m2.len());
        for (id, e1) in &m1 {
            let e2 = &m2[id];
            assert_eq!(e1.len(), e2.len());
            for (a, b) in e1.iter().zip(e2.iter()) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() < 1e-9, "fact {id}");
            }
        }
    }

    #[test]
    fn isolated_cells_become_singleton_components() {
        use iolap_model::{Fact, FactTable};
        let schema = paper_example::schema();
        let loc = schema.dim(0);
        let auto = schema.dim(1);
        let l = |n: &str| loc.node_by_name(n).unwrap().0;
        let a = |n: &str| auto.node_by_name(n).unwrap().0;
        // Two precise facts far apart + one imprecise overlapping only one.
        let facts = vec![
            Fact::new(1, &[l("MA"), a("Civic")], 1.0),
            Fact::new(2, &[l("TX"), a("Sierra")], 1.0),
            Fact::new(3, &[l("MA"), a("Sedan")], 1.0),
        ];
        let t = FactTable::from_facts(schema, facts);
        let policy = PolicySpec::em_count(0.01);
        let env = env();
        let mut p = prepare(&t, &policy, &env, 8).unwrap();
        let mut edb = ExtendedDatabase::create(&env, 2).unwrap();
        let out = run_transitive(&mut p, &policy, 64, 8, &mut edb, true).unwrap();
        assert_eq!(out.stats.total, 2);
        assert_eq!(out.stats.singleton_cells, 1, "(TX, Sierra) is isolated");
    }
}
