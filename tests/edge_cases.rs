//! Edge-case and failure-injection tests across the pipeline.

use iolap::core::{allocate, Algorithm, AllocConfig, PolicySpec};
use iolap::datagen::{generate, scaled, DatasetKind, GeneratorConfig};
use iolap::model::{paper_example, Fact, FactTable, Schema};
use std::sync::Arc;

fn tiny_schema() -> Arc<Schema> {
    paper_example::schema()
}

#[test]
fn empty_table_allocates_trivially() {
    let t = FactTable::new(tiny_schema());
    for alg in [Algorithm::Basic, Algorithm::Block, Algorithm::Transitive] {
        let run = allocate(
            &t,
            &PolicySpec::em_count(0.01),
            alg,
            &AllocConfig::builder().in_memory(64).build(),
        )
        .unwrap();
        assert_eq!(run.edb.num_entries(), 0, "{alg}");
        assert!(run.report.converged);
    }
}

#[test]
fn all_precise_table_yields_weight_one_entries_only() {
    let t = paper_example::table1();
    let precise_only =
        FactTable::from_facts(t.schema().clone(), t.facts().iter().take(5).cloned().collect());
    let mut run = allocate(
        &precise_only,
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(64).build(),
    )
    .unwrap();
    assert_eq!(run.edb.num_entries(), 5);
    run.edb.for_each(|e| assert_eq!(e.weight, 1.0)).unwrap();
}

#[test]
fn all_imprecise_without_candidates_is_rejected() {
    // Imprecise facts but zero precise facts → no candidate cells under
    // PreciseCells → a clear error, not a bogus EDB.
    let s = tiny_schema();
    let east = s.dim(0).node_by_name("East").unwrap().0;
    let sedan = s.dim(1).node_by_name("Sedan").unwrap().0;
    let t = FactTable::from_facts(s, vec![Fact::new(1, &[east, sedan], 10.0)]);
    let err = allocate(
        &t,
        &PolicySpec::em_count(0.01),
        Algorithm::Block,
        &AllocConfig::builder().in_memory(64).build(),
    );
    assert!(err.is_err());
    // …but the same table allocates fine under RegionUnion candidates.
    let run = allocate(
        &t,
        &PolicySpec::uniform(),
        Algorithm::Block,
        &AllocConfig::builder().in_memory(64).build(),
    )
    .unwrap();
    assert_eq!(run.edb.num_entries(), 4, "uniform over the 2×2 region");
}

#[test]
fn duplicate_regions_allocate_identically() {
    // Two imprecise facts with identical dimension values (same region):
    // both must appear in the EDB with identical weights.
    let t0 = paper_example::table1();
    let s = t0.schema().clone();
    let mut facts: Vec<Fact> = t0.facts().to_vec();
    let mut dup = facts[7].clone(); // p8 = (CA, ALL)
    dup.id = 99;
    facts.push(dup);
    let t = FactTable::from_facts(s, facts);
    let mut run = allocate(
        &t,
        &PolicySpec::em_count(0.001),
        Algorithm::Block,
        &AllocConfig::builder().in_memory(128).build(),
    )
    .unwrap();
    let m = run.edb.weight_map().unwrap();
    assert_eq!(m[&8].len(), m[&99].len());
    for (a, b) in m[&8].iter().zip(&m[&99]) {
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-12);
    }
}

#[test]
fn one_page_buffer_still_correct() {
    // The degenerate buffer: everything spills constantly, every group is
    // its own table set. Results must not change.
    let t = generate(&GeneratorConfig::uniform(tiny_schema(), 120, 0.4, 5));
    let policy = PolicySpec::em_count(0.01);
    let mut big =
        allocate(&t, &policy, Algorithm::Block, &AllocConfig::builder().in_memory(4096).build())
            .unwrap();
    let mut small =
        allocate(&t, &policy, Algorithm::Block, &AllocConfig::builder().in_memory(8).build())
            .unwrap();
    let a = big.edb.weight_map().unwrap();
    let b = small.edb.weight_map().unwrap();
    assert_eq!(a.len(), b.len());
    for (id, ea) in &a {
        for ((ca, wa), (cb, wb)) in ea.iter().zip(&b[id]) {
            assert_eq!(ca, cb);
            assert!((wa - wb).abs() < 1e-9);
        }
    }
}

#[test]
fn single_fact_table() {
    let s = tiny_schema();
    let ma = s.dim(0).node_by_name("MA").unwrap().0;
    let civic = s.dim(1).node_by_name("Civic").unwrap().0;
    let t = FactTable::from_facts(s, vec![Fact::new(1, &[ma, civic], 42.0)]);
    let mut run = allocate(
        &t,
        &PolicySpec::em_count(0.01),
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(64).build(),
    )
    .unwrap();
    assert_eq!(run.edb.num_entries(), 1);
    let m = run.edb.weight_map().unwrap();
    assert_eq!(m[&1][0].1, 1.0);
    let stats = run.report.components.unwrap();
    assert_eq!(stats.total, 1);
    assert_eq!(stats.singleton_cells, 1);
}

#[test]
fn scaled_api_and_dataset_kind_parsing() {
    assert_eq!("automotive".parse::<DatasetKind>().unwrap(), DatasetKind::Automotive);
    assert_eq!("SYN".parse::<DatasetKind>().unwrap(), DatasetKind::Synthetic);
    assert!("weird".parse::<DatasetKind>().is_err());
    let t = scaled(DatasetKind::Automotive, 500, 3);
    assert_eq!(t.len(), 500);
    assert_eq!(t.num_imprecise(), 150);
}

#[test]
fn on_disk_backing_matches_in_memory() {
    // Same inputs, real files vs MemPager — identical EDB.
    let t = generate(&GeneratorConfig::uniform(tiny_schema(), 150, 0.3, 11));
    let policy = PolicySpec::em_count(0.01);
    let mut mem = allocate(
        &t,
        &policy,
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(256).build(),
    )
    .unwrap();
    let disk_cfg = AllocConfig::builder().buffer_pages(256).build();
    let mut disk = allocate(&t, &policy, Algorithm::Transitive, &disk_cfg).unwrap();
    let a = mem.edb.weight_map().unwrap();
    let b = disk.edb.weight_map().unwrap();
    assert_eq!(a.len(), b.len());
    for (id, ea) in &a {
        for ((ca, wa), (cb, wb)) in ea.iter().zip(&b[id]) {
            assert_eq!(ca, cb);
            assert!((wa - wb).abs() < 1e-12, "fact {id}");
        }
    }
}

#[test]
fn measure_zero_everywhere_falls_back_to_uniform_for_all_facts() {
    // Measure quantity with all-zero measures: every Γ is 0; every fact
    // takes the uniform fallback — weights still sum to 1.
    let s = tiny_schema();
    let mut t = paper_example::table1();
    let facts = FactTable::from_facts(
        s,
        t.facts_mut().iter().map(|f| Fact { measure: 0.0, ..f.clone() }).collect(),
    );
    let mut run = allocate(
        &facts,
        &PolicySpec::measure(),
        Algorithm::Basic,
        &AllocConfig::builder().in_memory(64).build(),
    )
    .unwrap();
    let checked = run.edb.validate_weights(1e-9).unwrap().unwrap();
    assert_eq!(checked, 14);
}

#[test]
fn runs_are_deterministic() {
    // Same seed + same config ⇒ bit-identical weights, twice over.
    let t1 = generate(&GeneratorConfig::synthetic(1_000, 99));
    let t2 = generate(&GeneratorConfig::synthetic(1_000, 99));
    assert_eq!(t1.facts(), t2.facts());
    let policy = PolicySpec::em_count(0.01);
    let mut a = allocate(
        &t1,
        &policy,
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(512).build(),
    )
    .unwrap();
    let mut b = allocate(
        &t2,
        &policy,
        Algorithm::Transitive,
        &AllocConfig::builder().in_memory(512).build(),
    )
    .unwrap();
    let wa = a.edb.weight_map().unwrap();
    let wb = b.edb.weight_map().unwrap();
    assert_eq!(wa.len(), wb.len());
    for (id, ea) in &wa {
        assert_eq!(ea, &wb[id], "fact {id}");
    }
}

/// `Hierarchy::node_by_name` is a map built once and `resolve_name`
/// parses the printed `Level[lo..hi]` form; both must answer what the
/// linear scans they replaced answered — the first node, in arena order,
/// that carries (resp. prints as) the name — for every node of the paper
/// example and of both generated kinds, before and after the CSV round
/// trip that turns printed names into explicit ones.
#[test]
fn name_lookups_match_a_first_match_scan_on_every_dataset() {
    use iolap::hierarchy::NodeId;
    use iolap::model::csv::{read_dataset, write_dataset};

    let mut schemas = vec![paper_example::schema()];
    for kind in [DatasetKind::Automotive, DatasetKind::Synthetic] {
        let table = scaled(kind, 200, 11);
        let dir = iolap::storage::TempDir::new("names-roundtrip").unwrap();
        write_dataset(&table, dir.path()).unwrap();
        schemas.push(table.schema().clone());
        schemas.push(read_dataset(dir.path()).unwrap().0);
    }
    for schema in schemas {
        for d in 0..schema.k() {
            let h = schema.dim(d);
            let ids = || (0..h.num_nodes()).map(NodeId);
            let names: Vec<String> = ids().map(|i| h.node_name(i)).collect();
            for name in &names {
                let explicit = ids().find(|&i| h.node(i).name.as_ref() == Some(name));
                let printed = names.iter().position(|n| n == name).map(|i| NodeId(i as u32));
                assert_eq!(h.node_by_name(name), explicit, "{}: {name}", h.name());
                assert_eq!(h.resolve_name(name), explicit.or(printed), "{}: {name}", h.name());
                assert!(h.resolve_name(name).is_some());
            }
        }
    }
}
