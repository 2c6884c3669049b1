//! Fact-table schemas (Definition 2 of the paper).

use crate::fact::{Fact, LevelVec};
use crate::region::{CellKey, RegionBox};
use crate::MAX_DIMS;
use iolap_hierarchy::{Hierarchy, NodeId};
use std::sync::Arc;

/// A fact-table schema: `k` dimension attributes, each with a hierarchical
/// domain, and one numeric measure.
///
/// The paper's schema also carries explicit level attributes `L1..Lk`; here
/// levels are derived from the node a fact stores (every node knows its
/// level), which keeps the two trivially consistent — the paper's
/// `LEVEL(aᵢ) = ℓᵢ` invariant holds by construction.
#[derive(Debug, Clone)]
pub struct Schema {
    dims: Vec<Arc<Hierarchy>>,
    measure_name: String,
}

impl Schema {
    /// Build a schema over the given dimension hierarchies.
    pub fn new(dims: Vec<Arc<Hierarchy>>, measure_name: &str) -> Self {
        assert!(!dims.is_empty(), "at least one dimension required");
        assert!(dims.len() <= MAX_DIMS, "at most {MAX_DIMS} dimensions supported");
        Schema { dims, measure_name: measure_name.to_string() }
    }

    /// Number of dimensions `k`.
    pub fn k(&self) -> usize {
        self.dims.len()
    }

    /// The hierarchy of dimension `d`.
    pub fn dim(&self, d: usize) -> &Hierarchy {
        &self.dims[d]
    }

    /// All dimension hierarchies.
    pub fn dims(&self) -> &[Arc<Hierarchy>] {
        &self.dims
    }

    /// Name of the measure attribute.
    pub fn measure_name(&self) -> &str {
        &self.measure_name
    }

    /// Total number of possible cells (product of base-domain sizes).
    /// Saturates at `u64::MAX` for pathological schemas.
    pub fn num_possible_cells(&self) -> u64 {
        self.dims
            .iter()
            .map(|h| h.num_leaves() as u64)
            .try_fold(1u64, |a, b| a.checked_mul(b))
            .unwrap_or(u64::MAX)
    }

    /// The level vector `⟨ℓ1..ℓk⟩` of a fact (1 = leaf in that dimension).
    pub fn level_vec(&self, fact: &Fact) -> LevelVec {
        let mut lv = [0u8; MAX_DIMS];
        for (d, h) in self.dims.iter().enumerate() {
            lv[d] = h.level_of(NodeId(fact.dims[d]));
        }
        lv
    }

    /// Is the fact precise (leaf-level in every dimension)?
    pub fn is_precise(&self, fact: &Fact) -> bool {
        self.dims.iter().enumerate().all(|(d, h)| h.level_of(NodeId(fact.dims[d])) == 1)
    }

    /// The region of a fact: the product of the per-dimension leaf
    /// intervals (Definition 3). A precise fact's region is a single cell.
    pub fn region(&self, fact: &Fact) -> RegionBox {
        let mut lo = [0u32; MAX_DIMS];
        let mut hi = [0u32; MAX_DIMS];
        for (d, h) in self.dims.iter().enumerate() {
            let r = h.leaf_range(NodeId(fact.dims[d]));
            lo[d] = r.start;
            hi[d] = r.end;
        }
        RegionBox { lo, hi, k: self.k() as u8 }
    }

    /// For a precise fact, the cell it maps to.
    pub fn cell_of(&self, fact: &Fact) -> Option<CellKey> {
        if !self.is_precise(fact) {
            return None;
        }
        let mut key = [0u32; MAX_DIMS];
        for (d, h) in self.dims.iter().enumerate() {
            key[d] = h.leaf_index(NodeId(fact.dims[d])).expect("precise fact stores leaf nodes");
        }
        Some(key)
    }

    /// The number of distinct level vectors an imprecise fact could have
    /// (size of the space of potential summary tables, including the
    /// precise one).
    pub fn num_level_vectors(&self) -> u64 {
        self.dims.iter().map(|h| h.levels() as u64).product()
    }

    /// Check that a fact's node ids are valid for this schema.
    pub fn validate_fact(&self, fact: &Fact) -> Result<(), String> {
        for (d, h) in self.dims.iter().enumerate() {
            if fact.dims[d] >= h.num_nodes() {
                return Err(format!(
                    "fact {}: dimension {} node id {} out of range ({} nodes)",
                    fact.id,
                    h.name(),
                    fact.dims[d],
                    h.num_nodes()
                ));
            }
        }
        if !fact.measure.is_finite() {
            return Err(format!("fact {}: non-finite measure", fact.id));
        }
        Ok(())
    }

    /// Render a fact for humans (dimension node names + measure).
    pub fn describe_fact(&self, fact: &Fact) -> String {
        let mut parts = Vec::with_capacity(self.k() + 1);
        for (d, h) in self.dims.iter().enumerate() {
            parts.push(h.node_name(NodeId(fact.dims[d])));
        }
        format!("p{}({}; {})", fact.id, parts.join(", "), fact.measure)
    }
}

#[cfg(test)]
mod tests {
    use crate::paper_example;

    #[test]
    fn paper_schema_shape() {
        let t = paper_example::table1();
        let s = t.schema();
        assert_eq!(s.k(), 2);
        assert_eq!(s.dim(0).name(), "Location");
        assert_eq!(s.dim(1).name(), "Automobile");
        assert_eq!(s.num_possible_cells(), 16); // 4 states × 4 models
        assert_eq!(s.num_level_vectors(), 9); // 3 levels each
    }

    #[test]
    fn level_vec_and_precision() {
        let t = paper_example::table1();
        let s = t.schema();
        let p1 = &t.facts()[0];
        assert!(s.is_precise(p1));
        assert_eq!(s.level_vec(p1)[..2], [1, 1]);
        let p6 = &t.facts()[5];
        assert!(!s.is_precise(p6));
        assert_eq!(s.level_vec(p6)[..2], [1, 2]);
        let p8 = &t.facts()[7];
        assert_eq!(s.level_vec(p8)[..2], [1, 3]);
        let p11 = &t.facts()[10];
        assert_eq!(s.level_vec(p11)[..2], [3, 1]);
    }

    #[test]
    fn regions_match_figure1() {
        let t = paper_example::table1();
        let s = t.schema();
        // p6 = (MA, Sedan): MA is leaf 0, Sedan covers models {Civic,Camry}
        // = leaves 0..2 in the Automobile DFS order.
        let p6 = &t.facts()[5];
        let r = s.region(p6);
        assert_eq!(r.lo[..2], [0, 0]);
        assert_eq!(r.hi[..2], [1, 2]);
        assert_eq!(r.num_cells(), 2);
        // p8 = (CA, ALL): CA is leaf 3, ALL covers all 4 models.
        let p8 = &t.facts()[7];
        let r = s.region(p8);
        assert_eq!(r.lo[..2], [3, 0]);
        assert_eq!(r.hi[..2], [4, 4]);
        assert_eq!(r.num_cells(), 4);
    }

    #[test]
    fn cell_of_only_for_precise() {
        let t = paper_example::table1();
        let s = t.schema();
        assert_eq!(s.cell_of(&t.facts()[0]).unwrap()[..2], [0, 0]); // (MA, Civic)
        assert!(s.cell_of(&t.facts()[5]).is_none());
    }

    #[test]
    fn validate_rejects_bad_node_and_measure() {
        let t = paper_example::table1();
        let s = t.schema();
        let mut f = t.facts()[0].clone();
        f.dims[0] = 999;
        assert!(s.validate_fact(&f).is_err());
        let mut g = t.facts()[0].clone();
        g.measure = f64::NAN;
        assert!(s.validate_fact(&g).is_err());
        assert!(s.validate_fact(&t.facts()[0]).is_ok());
    }

    #[test]
    fn describe_fact_uses_names() {
        let t = paper_example::table1();
        let s = t.schema();
        let d = s.describe_fact(&t.facts()[5]);
        assert!(d.contains("MA") && d.contains("Sedan"), "{d}");
    }
}
