//! The Block Algorithm (Algorithm 4, Section 6).
//!
//! One canonical sort order for everything; each summary table is
//! processed through a sliding partition window (Definition 9 bounds the
//! memory each window needs), and tables are bin-packed into *table sets*
//! whose combined partition sizes fit the buffer (Section 6.1). Per
//! iteration: one read-only scan of `C` per set for the Γ pass, one
//! read-write scan per set for the Δ pass — `3T(|S|·|C| + |I|)` I/Os
//! (Theorem 7).

use crate::error::Result;
use crate::passes::{AncCache, GroupWindow, OnLoad};
use crate::policy::PolicySpec;
use crate::prep::PreparedData;
use iolap_graph::pack_tables;

/// Outcome of a Block run.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Iterations executed.
    pub iterations: u32,
    /// Did every cell converge before the cap?
    pub converged: bool,
    /// The bin-packed table sets used (|S| = `sets.len()`).
    pub sets: Vec<Vec<usize>>,
    /// True if a single table's partition exceeded the window budget.
    pub over_budget: bool,
}

/// Bin-pack the summary tables into sets whose total partition size fits
/// `window_pages`.
pub fn plan_sets(prep: &PreparedData, window_pages: u64) -> (Vec<Vec<usize>>, bool) {
    let sizes: Vec<u64> = prep.tables.iter().map(|t| t.partition_pages).collect();
    let over = sizes.iter().any(|&s| s > window_pages);
    (pack_tables(&sizes, window_pages.max(1)), over)
}

/// Run the Block algorithm on prepared data. `buffer_pages` is the
/// paper's |B|; the windows get the buffer minus a small scan allowance.
pub fn run_block(
    prep: &mut PreparedData,
    policy: &PolicySpec,
    buffer_pages: usize,
) -> Result<BlockOutcome> {
    let window_pages = (buffer_pages as u64).saturating_sub(4).max(1);
    let (sets, over_budget) = plan_sets(prep, window_pages);
    let outcome = run_block_with_sets(prep, policy, &sets)?;
    Ok(BlockOutcome { sets, over_budget, ..outcome })
}

/// Run Block with explicit table sets (Transitive reuses this for large
/// components).
pub fn run_block_with_sets(
    prep: &mut PreparedData,
    policy: &PolicySpec,
    sets: &[Vec<usize>],
) -> Result<BlockOutcome> {
    let conv = policy.convergence;
    let schema = prep.schema.clone();
    let n_cells = prep.cells.len();
    let last_set = sets.len().saturating_sub(1);
    let obs = prep.env.obs().clone();
    // Per-iteration deltas are only worth computing when someone records
    // them; convergence decisions always go through `cell_converged`.
    let trace_iters = obs.is_tracing();

    let mut iterations = 0u32;
    let mut converged = prep.facts.is_empty() || conv.max_iters == 0;

    'outer: for t in 1..=conv.max_iters {
        // -- Γ pass (lines 4–11): one read-only scan of C per table set.
        for set in sets {
            let mut windows: Vec<GroupWindow> = set
                .iter()
                .map(|&ti| GroupWindow::new(prep.tables[ti].clone(), OnLoad::ResetGamma))
                .collect();
            for i in 0..n_cells {
                let cell = prep.cells.get(i)?;
                let anc = AncCache::compute(&schema, &cell.key);
                for w in &mut windows {
                    w.advance(i, &mut prep.facts, &schema)?;
                    w.for_each_match(&anc, schema.k(), |af| {
                        af.rec.gamma += cell.delta;
                        af.dirty = true;
                    });
                }
            }
            for w in &mut windows {
                w.flush(&mut prep.facts)?;
            }
        }

        // -- Δ pass (lines 12–19): one read-write scan of C per set, with
        // cross-set accumulation in `acc`; finalize on the last set.
        let mut remaining = 0u64;
        let mut max_rel = 0.0f64;
        for (s, set) in sets.iter().enumerate() {
            let mut windows: Vec<GroupWindow> = set
                .iter()
                .map(|&ti| GroupWindow::new(prep.tables[ti].clone(), OnLoad::Keep))
                .collect();
            let mut cursor = prep.cells.scan();
            let mut i = 0u64;
            while let Some(mut cell) = cursor.next()? {
                if s == 0 {
                    cell.acc = cell.delta0;
                }
                let mut add = 0.0;
                let anc = AncCache::compute(&schema, &cell.key);
                for w in &mut windows {
                    w.advance(i, &mut prep.facts, &schema)?;
                    w.for_each_match(&anc, schema.k(), |af| {
                        if af.rec.gamma > 0.0 {
                            add += cell.delta / af.rec.gamma;
                        }
                    });
                }
                cell.acc += add;
                if s == last_set {
                    let new = cell.acc;
                    if !cell.converged {
                        if trace_iters {
                            let rel = if cell.delta == 0.0 {
                                if new == 0.0 {
                                    0.0
                                } else {
                                    f64::INFINITY
                                }
                            } else {
                                ((new - cell.delta) / cell.delta).abs()
                            };
                            max_rel = max_rel.max(rel);
                        }
                        if conv.cell_converged(cell.delta, new) {
                            cell.converged = true;
                        } else {
                            remaining += 1;
                        }
                        cell.delta = new;
                    }
                    // Frozen cells keep their Δ (Section 11.1's skip).
                }
                cursor.write_back(&cell)?;
                i += 1;
            }
            drop(cursor);
            for w in &mut windows {
                w.flush(&mut prep.facts)?;
            }
        }

        if trace_iters {
            obs.point(
                "fixpoint.iteration",
                vec![
                    ("algorithm".to_string(), "block".into()),
                    ("iter".to_string(), t.into()),
                    ("max_rel_delta".to_string(), max_rel.into()),
                    ("remaining".to_string(), remaining.into()),
                ],
            );
        }
        iterations = t;
        if remaining == 0 {
            converged = true;
            break 'outer;
        }
    }

    Ok(BlockOutcome { iterations, converged, sets: sets.to_vec(), over_budget: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::InMemProblem;
    use crate::policy::PolicySpec;
    use crate::prep::prepare;
    use iolap_model::paper_example;
    use iolap_storage::Env;

    fn env() -> Env {
        Env::builder("block-test").pool_pages(128).in_memory().build().unwrap()
    }

    /// Block's fixpoint must equal the in-memory Basic fixpoint.
    #[test]
    fn block_matches_basic_on_table1() {
        let policy = PolicySpec::em_count(0.001);
        let t = paper_example::table1();

        // Reference: in-memory Basic.
        let env1 = env();
        let p1 = prepare(&t, &policy, &env1, 8).unwrap();
        let cells: Vec<_> = (0..p1.cells.len()).map(|i| p1.cells.get(i).unwrap()).collect();
        let mut facts = Vec::new();
        p1.facts.read_batch(0, &mut facts, p1.facts.len() as usize).unwrap();
        let mut basic = InMemProblem::build(cells, facts, &p1.schema);
        let (basic_iters, basic_conv) = basic.solve(&policy.convergence);
        assert!(basic_conv);

        // Block.
        let env2 = env();
        let mut p2 = prepare(&t, &policy, &env2, 8).unwrap();
        let out = run_block(&mut p2, &policy, 64).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, basic_iters, "same convergence trajectory");

        for i in 0..p2.cells.len() {
            let c = p2.cells.get(i).unwrap();
            let b = basic.cells.iter().find(|b| b.key == c.key).unwrap();
            assert!(
                (c.delta - b.delta).abs() < 1e-9,
                "cell {:?}: block {} vs basic {}",
                &c.key[..2],
                c.delta,
                b.delta
            );
        }
    }

    /// Splitting the tables into many sets must not change the fixpoint
    /// (Theorem 2: partitioning is free).
    #[test]
    fn set_partitioning_does_not_change_results() {
        let policy = PolicySpec::em_count(0.01);
        let t = paper_example::table1();

        let env1 = env();
        let mut one = prepare(&t, &policy, &env1, 8).unwrap();
        run_block_with_sets(&mut one, &policy, &[vec![0, 1, 2, 3, 4]]).unwrap();

        let env2 = env();
        let mut many = prepare(&t, &policy, &env2, 8).unwrap();
        run_block_with_sets(&mut many, &policy, &[vec![0], vec![1], vec![2], vec![3], vec![4]])
            .unwrap();

        for i in 0..one.cells.len() {
            let a = one.cells.get(i).unwrap();
            let b = many.cells.get(i).unwrap();
            assert_eq!(a.key, b.key);
            assert!((a.delta - b.delta).abs() < 1e-12);
        }
    }

    #[test]
    fn non_iterative_policy_runs_zero_iterations() {
        let policy = PolicySpec::count();
        let env = env();
        let t = paper_example::table1();
        let mut p = prepare(&t, &policy, &env, 8).unwrap();
        let out = run_block(&mut p, &policy, 64).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
        // Deltas untouched.
        assert_eq!(p.cells.get(0).unwrap().delta, p.cells.get(0).unwrap().delta0);
    }

    #[test]
    fn tiny_window_budget_splits_sets() {
        let policy = PolicySpec::em_count(0.05);
        let env = env();
        let t = paper_example::table1();
        let prep = prepare(&t, &policy, &env, 8).unwrap();
        let (sets, over) = plan_sets(&prep, 1);
        assert!(!over, "each table needs 1 page");
        assert_eq!(sets.len(), 5, "1-page budget → one table per set");
        let (sets, _) = plan_sets(&prep, 100);
        assert_eq!(sets.len(), 1);
    }
}
