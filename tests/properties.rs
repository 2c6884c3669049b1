//! Property-based tests (proptest) over randomly generated hierarchies
//! and fact tables — the invariants of DESIGN.md §5.

use iolap::core::maintain::{EdbMutation, MaintainableEdb};
use iolap::core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap::hierarchy::{Hierarchy, HierarchyBuilder};
use iolap::model::{cmp_cells, Fact, FactId, FactTable, RegionBox, Schema, MAX_DIMS};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Strategy: a random 2-or-3-level hierarchy with ≤ 12 leaves.
fn arb_hierarchy(tag: &'static str) -> impl Strategy<Value = Hierarchy> {
    (2u32..=12, 1u32..=4, any::<u64>()).prop_map(move |(leaves, groups, seed)| {
        let groups = groups.min(leaves);
        // Deterministic pseudo-random parent map from the seed.
        let parents: Vec<u32> = (0..leaves)
            .map(|i| {
                if i < groups {
                    i // guarantee non-empty parents
                } else {
                    ((seed >> (i % 48)) as u32 ^ i) % groups
                }
            })
            .collect();
        HierarchyBuilder::new(tag)
            .level("Leaf", leaves)
            .level("Group", groups)
            .parents(2, &parents)
            .build()
    })
}

/// Strategy: a schema plus a random fact table over it.
fn arb_table() -> impl Strategy<Value = FactTable> {
    (arb_hierarchy("D0"), arb_hierarchy("D1"), 1usize..40, any::<u64>()).prop_map(
        |(h0, h1, n, seed)| {
            let schema = Arc::new(Schema::new(vec![Arc::new(h0), Arc::new(h1)], "M"));
            let mut facts = Vec::with_capacity(n);
            let mut s = seed;
            let mut next = move || {
                // xorshift64
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for id in 1..=n as u64 {
                let mut dims = [0u32; 2];
                for (d, slot) in dims.iter_mut().enumerate() {
                    *slot = random_node(&schema, d, next());
                }
                let measure = 1.0 + (next() % 100) as f64;
                facts.push(Fact::new(id, &dims, measure));
            }
            FactTable::from_facts(schema, facts)
        },
    )
}

/// A node id of dimension `d` from 64 random bits: ~60 % a leaf,
/// otherwise any node.
fn random_node(schema: &Schema, d: usize, r: u64) -> u32 {
    let h = schema.dim(d);
    if r % 10 < 6 {
        h.leaf_node((r >> 8) as u32 % h.num_leaves()).0
    } else {
        (r >> 8) as u32 % h.num_nodes()
    }
}

/// A seeded script of `batches` mutation batches over `table`, with the
/// table each batch leaves behind: measure updates, inserts at any level
/// and deletes, only ever naming live facts. Now and then an insert takes
/// the id of a fact the script deleted, with new dims.
fn arb_script(table: &FactTable, seed: u64, batches: usize) -> Vec<(Vec<EdbMutation>, FactTable)> {
    let schema = table.schema().clone();
    let mut facts: Vec<Fact> = table.facts().to_vec();
    let mut next_id = facts.iter().map(|f| f.id).max().unwrap_or(0) + 1;
    let mut deleted: Vec<FactId> = Vec::new();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..batches)
        .map(|_| {
            let n = 1 + next() % 4;
            let mut muts = Vec::new();
            for _ in 0..n {
                let roll = next() % 10;
                if roll < 4 && !facts.is_empty() {
                    let i = (next() % facts.len() as u64) as usize;
                    let new_measure = 1.0 + (next() % 100) as f64;
                    facts[i].measure = new_measure;
                    muts.push(EdbMutation::UpdateMeasure { fact_id: facts[i].id, new_measure });
                } else if roll < 8 || facts.is_empty() {
                    let mut dims = [0u32; 2];
                    for (d, slot) in dims.iter_mut().enumerate() {
                        *slot = random_node(&schema, d, next());
                    }
                    let id = if roll == 7 && !deleted.is_empty() {
                        deleted.swap_remove((next() % deleted.len() as u64) as usize)
                    } else {
                        next_id += 1;
                        next_id - 1
                    };
                    let f = Fact::new(id, &dims, 1.0 + (next() % 100) as f64);
                    facts.push(f.clone());
                    muts.push(EdbMutation::Insert(f));
                } else {
                    let i = (next() % facts.len() as u64) as usize;
                    let id = facts.swap_remove(i).id;
                    deleted.push(id);
                    muts.push(EdbMutation::Delete(id));
                }
            }
            (muts, FactTable::from_facts(schema.clone(), facts.clone()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// P5: maintenance ≡ rebuild, read where `/query` reads. After every
    /// batch of a seeded script, the live entries of the published
    /// segment tiers equal a fresh Transitive run over the mutated
    /// table: the same (fact, cell) set, weights within 1e-5, and every
    /// entry carrying its fact's current measure (a re-solve skipped
    /// after an imprecise fact's measure update leaves the weights right
    /// and the measure stale). A table with imprecise facts but no
    /// candidate cell (which allocation rejects) counts as an empty EDB.
    /// Iterations are pinned with ε = 0, so a component re-solved by
    /// maintenance and the same component in a rebuild run the same
    /// trajectory.
    #[test]
    fn maintenance_matches_rebuild_after_every_batch(table in arb_table(), seed in any::<u64>()) {
        prop_assume!(table.num_precise() > 0);
        let policy = if seed % 2 == 0 {
            PolicySpec::em_count(0.0).with_max_iters(4)
        } else {
            PolicySpec::em_measure(0.0).with_max_iters(4)
        };
        let cfg = AllocConfig::builder().in_memory(128).build();
        let run = allocate(&table, &policy, Algorithm::Transitive, &cfg).unwrap();
        let mut maintained = MaintainableEdb::build(run, policy.clone()).unwrap();
        for (b, (muts, after)) in arb_script(&table, seed, 10).into_iter().enumerate() {
            maintained.apply_batch(&muts).unwrap();
            let measure: HashMap<FactId, f64> =
                after.facts().iter().map(|f| (f.id, f.measure)).collect();
            let mut got: HashMap<(FactId, [u32; MAX_DIMS]), f64> = HashMap::new();
            for v in maintained.snapshot_segments().unwrap() {
                for e in v.segment.records().unwrap() {
                    if v.exclude.contains(&e.fact_id) {
                        continue;
                    }
                    prop_assert_eq!(measure.get(&e.fact_id).map(|m| m.to_bits()),
                        Some(e.measure.to_bits()),
                        "batch {} fact {}: served measure {}", b, e.fact_id, e.measure);
                    prop_assert!(got.insert((e.fact_id, e.cell), e.weight).is_none(),
                        "batch {} fact {} served twice at {:?}", b, e.fact_id, &e.cell[..2]);
                }
            }
            let mut want: HashMap<(FactId, [u32; MAX_DIMS]), f64> = HashMap::new();
            if after.num_precise() > 0 || after.num_imprecise() == 0 {
                let mut rebuilt = allocate(&after, &policy, Algorithm::Transitive, &cfg).unwrap();
                rebuilt.edb.for_each(|e| {
                    want.insert((e.fact_id, e.cell), e.weight);
                }).unwrap();
            }
            let mut got_keys: Vec<_> = got.keys().copied().collect();
            let mut want_keys: Vec<_> = want.keys().copied().collect();
            got_keys.sort_unstable();
            want_keys.sort_unstable();
            prop_assert_eq!(&got_keys, &want_keys, "batch {}: served (fact, cell) sets differ", b);
            for (key, w) in &want {
                prop_assert!((got[key] - w).abs() < 1e-5,
                    "batch {} fact {} cell {:?}: rebuilt {} vs served {}",
                    b, key.0, &key.1[..2], w, got[key]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// P1 + P2 (exact form): with a *pinned* iteration count and no
    /// convergence freezing (ε = 0), every algorithm computes the same
    /// trajectory — weights match to within f64 associativity noise.
    #[test]
    fn algorithms_agree_exactly_at_pinned_iterations(table in arb_table()) {
        // Skip degenerate inputs with no candidate cells but imprecise
        // facts — prepare() rejects them by design.
        let has_precise = table.num_precise() > 0;
        prop_assume!(has_precise || table.num_imprecise() == 0);

        let policy = PolicySpec::em_count(0.0).with_max_iters(3);
        let cfg = AllocConfig::builder().in_memory(128).build();
        let mut reference = allocate(&table, &policy, Algorithm::Basic, &cfg).unwrap();
        reference.edb.validate_weights(1e-6).unwrap().unwrap();
        let want = reference.edb.weight_map().unwrap();

        for alg in [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
            let mut run = allocate(&table, &policy, alg, &cfg).unwrap();
            run.edb.validate_weights(1e-6).unwrap().unwrap();
            let got = run.edb.weight_map().unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (id, entries) in &want {
                let g = &got[id];
                prop_assert_eq!(g.len(), entries.len(), "fact {}", id);
                for ((ca, wa), (cb, wb)) in entries.iter().zip(g.iter()) {
                    prop_assert_eq!(ca, cb);
                    prop_assert!((wa - wb).abs() < 1e-9,
                        "{} fact {}: {} vs {}", alg, id, wa, wb);
                }
            }
        }
    }

    /// P1 + P2 (converged form): with ε-convergence enabled, algorithms
    /// may freeze a cell one iteration apart when its relative change
    /// lands *exactly on* ε (floating-point summation order breaks the
    /// tie; Theorem 2 assumes exact arithmetic), so converged runs agree
    /// only up to the convergence slack — a few ε.
    #[test]
    fn converged_allocations_agree_within_epsilon_slack(table in arb_table()) {
        let has_precise = table.num_precise() > 0;
        prop_assume!(has_precise || table.num_imprecise() == 0);

        let eps = 0.01;
        let policy = PolicySpec::em_count(eps);
        let cfg = AllocConfig::builder().in_memory(128).build();
        let mut reference = allocate(&table, &policy, Algorithm::Basic, &cfg).unwrap();
        reference.edb.validate_weights(1e-6).unwrap().unwrap();
        let want = reference.edb.weight_map().unwrap();
        let tol = 6.0 * eps; // weights ≤ 1; freeze-tie slack is O(ε)

        for alg in [Algorithm::Independent, Algorithm::Block, Algorithm::Transitive] {
            let mut run = allocate(&table, &policy, alg, &cfg).unwrap();
            run.edb.validate_weights(1e-6).unwrap().unwrap();
            let got = run.edb.weight_map().unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (id, entries) in &want {
                let g = &got[id];
                prop_assert_eq!(g.len(), entries.len(), "fact {}", id);
                for ((ca, wa), (cb, wb)) in entries.iter().zip(g.iter()) {
                    prop_assert_eq!(ca, cb);
                    prop_assert!((wa - wb).abs() < tol,
                        "{} fact {}: {} vs {}", alg, id, wa, wb);
                }
            }
        }
    }

    /// P8: region algebra — every cell reported inside a region's box is
    /// inside it per the hierarchy, and region sizes multiply.
    #[test]
    fn region_boxes_match_hierarchy_semantics(table in arb_table()) {
        let s = table.schema();
        for f in table.facts() {
            let bx: RegionBox = s.region(f);
            let mut n = 0u64;
            for cell in bx.cells() {
                prop_assert!(bx.contains_cell(&cell));
                n += 1;
            }
            prop_assert_eq!(n, bx.num_cells());
            let expected: u64 = (0..s.k())
                .map(|d| {
                    let node = iolap::hierarchy::NodeId(f.dims[d]);
                    s.dim(d).node(node).num_leaves() as u64
                })
                .product();
            prop_assert_eq!(bx.num_cells(), expected);
        }
    }

    /// P6: the external sorter sorts and preserves multiset + stability.
    #[test]
    fn external_sort_is_correct_and_stable(
        data in proptest::collection::vec((0u64..50, 0u64..1_000_000), 0..3_000),
        budget in 2usize..6,
    ) {
        use iolap::storage::{codec::U64PairCodec, external_sort, Env, SortBudget};
        let env = Env::builder("prop-sort").pool_pages(32).in_memory().build().unwrap();
        let mut f = env.create_file("in", U64PairCodec).unwrap();
        for (i, (k, _)) in data.iter().enumerate() {
            f.push(&(*k, i as u64)).unwrap();
        }
        let sorted = external_sort(&env, f, SortBudget::pages(budget), |v| v.0).unwrap();
        let mut out = Vec::new();
        sorted.read_batch(0, &mut out, data.len().max(1)).unwrap();
        prop_assert_eq!(out.len(), data.len());
        for w in out.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "sortedness");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability");
            }
        }
        let mut keys: Vec<u64> = out.iter().map(|v| v.0).collect();
        keys.sort_unstable();
        let mut want: Vec<u64> = data.iter().map(|v| v.0).collect();
        want.sort_unstable();
        prop_assert_eq!(keys, want, "multiset preserved");
    }

    /// Cell-index box queries equal brute force on random sparse sets.
    #[test]
    fn cell_index_box_queries_match_brute_force(
        cells in proptest::collection::vec((0u32..20, 0u32..20, 0u32..20), 0..300),
        q in (0u32..20, 0u32..20, 0u32..20, 1u32..8, 1u32..8, 1u32..8),
    ) {
        use iolap::graph::CellSetIndex;
        use iolap::model::{CellKey, MAX_DIMS};
        let keys: Vec<CellKey> = cells
            .iter()
            .map(|&(x, y, z)| {
                let mut c = [0u32; MAX_DIMS];
                c[0] = x; c[1] = y; c[2] = z;
                c
            })
            .collect();
        let idx = CellSetIndex::from_unsorted(keys, 3);
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        lo[0] = q.0; lo[1] = q.1; lo[2] = q.2;
        hi[0] = q.0 + q.3; hi[1] = q.1 + q.4; hi[2] = q.2 + q.5;
        let bx = RegionBox { lo, hi, k: 3 };
        let want: Vec<u64> = (0..idx.len())
            .filter(|&i| bx.contains_cell(idx.key(i)))
            .collect();
        let mut got = Vec::new();
        idx.for_each_in_box(&bx, |i| got.push(i));
        got.sort_unstable(); // visit order is rotation-dependent
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(idx.first_in_box(&bx), want.first().copied());
        prop_assert_eq!(idx.last_in_box(&bx), want.last().copied());
    }

    /// Canonical cell comparison is a total order consistent with sorting.
    #[test]
    fn cell_order_total(
        a in proptest::array::uniform8(0u32..5),
        b in proptest::array::uniform8(0u32..5),
    ) {
        let o1 = cmp_cells(&a, &b, 4);
        let o2 = cmp_cells(&b, &a, 4);
        prop_assert_eq!(o1, o2.reverse());
    }
}
