//! Seeded request generation. Everything a server is sent is built here,
//! before the clock starts, from `--seed` alone: the same seed gives the
//! same bytes, and the server only ever sees the bytes.

use crate::client::http_request;
use iolap_core::maintain::EdbMutation;
use iolap_hierarchy::{LevelNo, NodeId};
use iolap_model::{Fact, FactTable, RegionBox, Schema, MAX_DIMS};
use iolap_query::AggFn;
use iolap_serve::snapshot::resolve_region;
use iolap_serve::wire;
use std::collections::HashSet;

/// SplitMix64: small, seedable, and good enough to pick boxes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the read and
    /// write generators of one run do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a read asks for, kept beside its bytes so the harness can
/// compute the library answer it must match.
#[derive(Debug, Clone)]
pub enum ReadKind {
    /// `POST /query`.
    Query {
        /// The resolved box.
        region: RegionBox,
        /// The aggregate.
        agg: AggFn,
    },
    /// `POST /rollup`.
    Rollup {
        /// Dimension rolled up along.
        dim: usize,
        /// Level of the rows.
        level: LevelNo,
        /// The dice region (the full space when the request named none).
        region: RegionBox,
        /// The aggregate.
        agg: AggFn,
    },
}

/// One pre-built read request.
#[derive(Debug, Clone)]
pub struct ReadOp {
    /// The bytes written to the socket.
    pub request: Vec<u8>,
    /// What they ask for.
    pub kind: ReadKind,
}

fn query_op(schema: &Schema, at: &[(usize, NodeId)], agg: AggFn) -> ReadOp {
    let (pairs, region) = named_region(schema, at);
    let refs: Vec<(&str, &str)> = pairs.iter().map(|(d, n)| (d.as_str(), n.as_str())).collect();
    let body = wire::query_body(&refs, agg, None);
    ReadOp { request: http_request("POST", "/query", &body), kind: ReadKind::Query { region, agg } }
}

/// `(dimension name, node name)` pairs for the wire plus the box the
/// server will resolve them to.
fn named_region(schema: &Schema, at: &[(usize, NodeId)]) -> (Vec<(String, String)>, RegionBox) {
    let pairs: Vec<(String, String)> = at
        .iter()
        .map(|&(d, n)| (schema.dim(d).name().to_string(), schema.dim(d).node_name(n)))
        .collect();
    let region = resolve_region(schema, &pairs).expect("generated names resolve");
    (pairs, region)
}

/// The hot set: SUM and COUNT over every node of the middle level of
/// dimension 0, plus the whole cube. Small enough to live in the result
/// cache, so after one pass every request is a hit.
pub fn hot_points(schema: &Schema) -> Vec<ReadOp> {
    let h = schema.dim(0);
    let level = if h.levels() >= 3 { 2 } else { 1 };
    let mut ops = Vec::new();
    for &n in h.nodes_at_level(level) {
        for agg in [AggFn::Sum, AggFn::Count] {
            ops.push(query_op(schema, &[(0, n)], agg));
        }
    }
    ops.push(query_op(schema, &[], AggFn::Sum));
    ops
}

/// A uniform node of a uniform non-root level of dimension `d`.
fn random_node(schema: &Schema, d: usize, rng: &mut Rng) -> NodeId {
    let h = schema.dim(d);
    let level = 1 + rng.below(h.levels() as usize - 1) as LevelNo;
    let nodes = h.nodes_at_level(level);
    nodes[rng.below(nodes.len())]
}

/// `n` distinct boxes: per dimension `ALL` with probability ½,
/// otherwise a uniform node of a uniform non-root level;
/// aggregate uniform over {sum, count, avg}. Distinct `(box, aggregate)`
/// pairs, because that is the result cache's key — a repeat would be a
/// hit.
pub fn cold_dice(schema: &Schema, rng: &mut Rng, n: usize) -> Vec<ReadOp> {
    let mut seen: HashSet<([u32; MAX_DIMS], [u32; MAX_DIMS], u8)> = HashSet::new();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut at: Vec<(usize, NodeId)> = Vec::new();
        for d in 0..schema.k() {
            if rng.below(2) == 1 {
                at.push((d, random_node(schema, d, rng)));
            }
        }
        let a = rng.below(3);
        let agg = [AggFn::Sum, AggFn::Count, AggFn::Avg][a];
        let op = query_op(schema, &at, agg);
        let ReadKind::Query { region, .. } = &op.kind else { unreachable!() };
        if seen.insert((region.lo, region.hi, a as u8)) {
            ops.push(op);
        }
    }
    ops
}

/// `/rollup` over every dimension at its two coarsest levels below `ALL`
/// (one where the dimension has only one): two requests over the full
/// space, then one under a seeded single-dimension dice. Two to one, not
/// alternating, so that the median request is a lattice-answered one and
/// the 90th percentile a diced one — at one to one the median sits on
/// the boundary between the two and flips from run to run. Rollups are
/// not cached, so the stream may cycle.
pub fn coarse_rollups(schema: &Schema, rng: &mut Rng, n: usize) -> Vec<ReadOp> {
    let mut grains: Vec<(usize, LevelNo)> = Vec::new();
    for d in 0..schema.k() {
        let top = schema.dim(d).levels() - 1;
        grains.push((d, top));
        if top >= 3 {
            grains.push((d, top - 1));
        }
    }
    let aggs = [AggFn::Sum, AggFn::Count, AggFn::Avg];
    (0..n)
        .map(|i| {
            let (dim, level) = grains[i % grains.len()];
            let agg = aggs[(i / grains.len()) % aggs.len()];
            let at: Vec<(usize, NodeId)> = if i % 3 == 2 && schema.k() > 1 {
                let d = (dim + 1 + rng.below(schema.k() - 1)) % schema.k();
                vec![(d, random_node(schema, d, rng))]
            } else {
                Vec::new()
            };
            let (pairs, region) = named_region(schema, &at);
            let refs: Vec<(&str, &str)> =
                pairs.iter().map(|(d, n)| (d.as_str(), n.as_str())).collect();
            let h = schema.dim(dim);
            let body = wire::rollup_body(h.name(), h.level_name(level), &refs, agg);
            ReadOp {
                request: http_request("POST", "/rollup", &body),
                kind: ReadKind::Rollup { dim, level, region, agg },
            }
        })
        .collect()
}

/// One pre-built `/update` batch: the bytes, and the same mutations in
/// the library's form for the reference replay.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The bytes written to the socket.
    pub request: Vec<u8>,
    /// The mutations the server will decode from them.
    pub muts: Vec<EdbMutation>,
}

/// Mutations per `/update` batch.
pub const BATCH_MUTATIONS: usize = 8;

/// `n` batches of [`BATCH_MUTATIONS`] seeded mutations over `table`:
/// 70 % measure updates, 20 % inserts, 10 % deletes. The generator keeps
/// the live id set, so no batch names a fact an earlier one deleted and
/// no operation can be refused. `lane` (0 or 1) picks which half of the
/// facts, and which half of the fresh ids, the stream may touch: two
/// streams on different lanes can be posted to one server in any order.
pub fn update_batches(table: &FactTable, rng: &mut Rng, n: usize, lane: u64) -> Vec<Batch> {
    let schema = table.schema();
    let ids = || table.facts().iter().map(|f| f.id);
    let mut live: Vec<u64> =
        ids().enumerate().filter(|(i, _)| *i as u64 % 2 == lane).map(|(_, id)| id).collect();
    let mut next_id = ids().max().map_or(1, |m| m + 1) + lane;
    (0..n)
        .map(|_| {
            let mut reqs = Vec::with_capacity(BATCH_MUTATIONS);
            let mut muts = Vec::with_capacity(BATCH_MUTATIONS);
            for _ in 0..BATCH_MUTATIONS {
                let roll = rng.below(10);
                let measure = rng.below(1_000_000) as f64 / 64.0;
                if roll < 7 || live.len() < 2 {
                    let id = live[rng.below(live.len())];
                    reqs.push(wire::MutationReq::Update { fact_id: id, measure });
                    muts.push(EdbMutation::UpdateMeasure { fact_id: id, new_measure: measure });
                } else if roll < 9 {
                    // Mostly precise; one in ten dimensions is reported a
                    // level up, as the datasets' own imprecise facts are.
                    let mut dims = [0u32; MAX_DIMS];
                    let mut names = Vec::with_capacity(schema.k());
                    for (d, slot) in dims.iter_mut().enumerate().take(schema.k()) {
                        let h = schema.dim(d);
                        let level = if rng.below(10) == 0 { 2 } else { 1 };
                        let nodes = h.nodes_at_level(level);
                        let node = nodes[rng.below(nodes.len())];
                        *slot = node.0;
                        names.push(h.node_name(node));
                    }
                    let id = next_id;
                    next_id += 2;
                    live.push(id);
                    reqs.push(wire::MutationReq::Insert { id, dims: names, measure });
                    muts.push(EdbMutation::Insert(Fact { id, dims, measure }));
                } else {
                    let id = live.swap_remove(rng.below(live.len()));
                    reqs.push(wire::MutationReq::Delete { fact_id: id });
                    muts.push(EdbMutation::Delete(id));
                }
            }
            Batch { request: http_request("POST", "/update", &wire::update_body(&reqs)), muts }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_datagen::{scaled, DatasetKind};

    fn bytes(ops: &[ReadOp]) -> Vec<&[u8]> {
        ops.iter().map(|o| o.request.as_slice()).collect()
    }

    #[test]
    fn same_seed_same_bytes_and_another_seed_differs() {
        let table = scaled(DatasetKind::Automotive, 2_000, 42);
        let schema = table.schema();
        let dice = |seed| cold_dice(schema, &mut Rng::new(seed, 1), 200);
        assert_eq!(bytes(&dice(42)), bytes(&dice(42)));
        assert_ne!(bytes(&dice(42)), bytes(&dice(43)));
        let roll = |seed| coarse_rollups(schema, &mut Rng::new(seed, 2), 50);
        assert_eq!(bytes(&roll(42)), bytes(&roll(42)));
        assert_ne!(bytes(&roll(42)), bytes(&roll(43)));
        let upd = |seed| {
            update_batches(&table, &mut Rng::new(seed, 3), 40, 0)
                .into_iter()
                .map(|b| b.request)
                .collect::<Vec<_>>()
        };
        assert_eq!(upd(42), upd(42));
        assert_ne!(upd(42), upd(43));
    }

    #[test]
    fn dice_boxes_are_distinct_cache_keys() {
        let table = scaled(DatasetKind::Automotive, 2_000, 7);
        let ops = cold_dice(table.schema(), &mut Rng::new(7, 1), 3_000);
        let keys: HashSet<_> = ops
            .iter()
            .map(|o| match &o.kind {
                ReadKind::Query { region, agg } => (region.lo, region.hi, *agg as u8),
                ReadKind::Rollup { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(keys.len(), ops.len());
    }

    #[test]
    fn hot_set_is_two_per_node_plus_the_cube() {
        let table = scaled(DatasetKind::Automotive, 2_000, 7);
        let h = table.schema().dim(0);
        assert_eq!(hot_points(table.schema()).len(), 2 * h.nodes_at_level(2).len() + 1);
    }

    #[test]
    fn batches_never_name_a_deleted_fact() {
        let table = scaled(DatasetKind::Automotive, 500, 9);
        let mut live: HashSet<u64> = table.facts().iter().map(|f| f.id).collect();
        // Two lanes interleaved, as the mixed stream and the tail are.
        let lane0 = update_batches(&table, &mut Rng::new(9, 3), 300, 0);
        let lane1 = update_batches(&table, &mut Rng::new(9, 4), 300, 1);
        for b in lane0.iter().zip(&lane1).flat_map(|(a, b)| [a, b]) {
            assert_eq!(b.muts.len(), BATCH_MUTATIONS);
            for m in &b.muts {
                match m {
                    EdbMutation::UpdateMeasure { fact_id, .. } => assert!(live.contains(fact_id)),
                    EdbMutation::Insert(f) => assert!(live.insert(f.id)),
                    EdbMutation::Delete(id) => assert!(live.remove(id)),
                }
            }
        }
    }
}
