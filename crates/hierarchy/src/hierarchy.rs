//! The [`Hierarchy`] type: one dimension's hierarchical domain.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Index of a node within one [`Hierarchy`]'s arena.
///
/// Node ids are what fact records store for their dimension attributes
/// (a leaf node for a precise value, an internal node for an imprecise
/// one). `u32` keeps fact records at the paper's 40-byte width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A leaf's position in the DFS leaf numbering (`0..num_leaves`).
pub type LeafId = u32;

/// A level number: 1 = leaves, `levels()` = `ALL`.
pub type LevelNo = u8;

/// One node of a hierarchy.
#[derive(Debug, Clone)]
pub struct Node {
    /// Level of this node: 1 for leaves, `hierarchy.levels()` for `ALL`.
    pub level: LevelNo,
    /// Parent node; `None` only for `ALL`.
    pub parent: Option<NodeId>,
    /// Leaf interval `[lo, hi)` covered by this node (DFS numbering).
    pub lo: LeafId,
    /// End (exclusive) of the covered leaf interval.
    pub hi: LeafId,
    /// Optional display name.
    pub name: Option<String>,
}

impl Node {
    /// The contiguous DFS leaf interval covered by this node.
    pub fn leaf_range(&self) -> Range<LeafId> {
        self.lo..self.hi
    }

    /// Number of leaves under this node.
    pub fn num_leaves(&self) -> u32 {
        self.hi - self.lo
    }
}

/// A hierarchical domain (Definition 1 of the paper): a tree of nodes with
/// explicit levels, leaves numbered in DFS order.
///
/// Invariants (checked by [`Hierarchy::validate`]):
/// * every node at level `l > 1` has only children at level `l - 1`;
/// * every internal node covers the concatenation of its children's leaf
///   intervals (hence a contiguous interval);
/// * exactly one node (`ALL`) sits at the top level and covers all leaves;
/// * every internal node has at least one child (no empty regions,
///   honouring "∅ ∉ H").
#[derive(Debug, Clone)]
pub struct Hierarchy {
    name: String,
    /// `level_names[l-1]` names level `l`; the top level is always "ALL".
    level_names: Vec<String>,
    nodes: Vec<Node>,
    /// Leaf id (DFS order) → arena node id.
    leaf_nodes: Vec<NodeId>,
    /// `anc[l-1][leaf]` = arena id of the ancestor of `leaf` at level `l`.
    anc: Vec<Vec<u32>>,
    /// `off[l-1][leaf]` = position of that ancestor within
    /// `level_nodes[l-1]`.
    off: Vec<Vec<u32>>,
    /// Arena ids of the nodes at each level (index `l-1`), in DFS order.
    level_nodes: Vec<Vec<NodeId>>,
    /// Explicit display name → the lowest arena id carrying it (names
    /// need not be unique; a first-match scan of the arena is the
    /// contract). Built once here: the server resolves names per request.
    names: HashMap<Box<str>, NodeId>,
}

impl Hierarchy {
    /// Construct from a fully-specified arena. Used by
    /// [`crate::HierarchyBuilder`]; prefer the builder or the convenience
    /// constructors.
    pub(crate) fn from_parts(
        name: String,
        level_names: Vec<String>,
        nodes: Vec<Node>,
        leaf_nodes: Vec<NodeId>,
    ) -> Self {
        let levels = level_names.len();
        let mut level_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); levels];
        for (i, n) in nodes.iter().enumerate() {
            level_nodes[(n.level - 1) as usize].push(NodeId(i as u32));
        }
        for lvl in &mut level_nodes {
            lvl.sort_by_key(|&id| nodes[id.0 as usize].lo);
        }
        let mut anc: Vec<Vec<u32>> = Vec::with_capacity(levels);
        let mut off: Vec<Vec<u32>> = Vec::with_capacity(levels);
        for l in 1..=levels {
            let mut row = vec![0u32; leaf_nodes.len()];
            let mut pos = vec![0u32; leaf_nodes.len()];
            for (i, &nid) in level_nodes[l - 1].iter().enumerate() {
                let n = &nodes[nid.0 as usize];
                for leaf in n.lo..n.hi {
                    row[leaf as usize] = nid.0;
                    pos[leaf as usize] = i as u32;
                }
            }
            anc.push(row);
            off.push(pos);
        }
        let mut names = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if let Some(s) = &n.name {
                names.entry(s.as_str().into()).or_insert(NodeId(i as u32));
            }
        }
        let h = Hierarchy { name, level_names, nodes, leaf_nodes, anc, off, level_nodes, names };
        debug_assert!(h.validate().is_ok(), "builder produced invalid hierarchy");
        h
    }

    /// A balanced hierarchy: `fanouts[i]` children per node at level
    /// `i + 2` (so `fanouts[0]` leaves per level-2 node, etc.).
    /// `level_names` names the levels bottom-up, excluding `ALL`.
    ///
    /// `Hierarchy::balanced("Time", &["Week", "Month"], &[4, 12])` builds
    /// 48 weeks under 12 months under ALL.
    pub fn balanced(name: &str, level_names: &[&str], fanouts: &[u32]) -> Self {
        assert_eq!(level_names.len(), fanouts.len(), "one fanout per non-ALL level");
        let mut sizes: Vec<u32> = Vec::with_capacity(fanouts.len());
        let mut acc = 1u32;
        for &f in fanouts.iter().rev() {
            assert!(f > 0, "fanout must be positive");
            acc *= f;
            sizes.push(acc);
        }
        sizes.reverse(); // sizes[i] = number of nodes at level i+1
        let mut b = crate::HierarchyBuilder::new(name);
        for (i, &ln) in level_names.iter().enumerate() {
            b = b.level(ln, sizes[i]);
        }
        // Parent of node j at level l is j / fanout_of_that_level.
        for i in 1..sizes.len() {
            let fan = sizes[i - 1] / sizes[i];
            let parents: Vec<u32> = (0..sizes[i - 1]).map(|j| j / fan).collect();
            b = b.parents(i as LevelNo + 1, &parents);
        }
        b.build()
    }

    /// Dimension name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of levels including `ALL` (so ≥ 2: leaves + ALL).
    pub fn levels(&self) -> LevelNo {
        self.level_names.len() as LevelNo
    }

    /// Name of level `l` (1-based; the top level is "ALL").
    pub fn level_name(&self, l: LevelNo) -> &str {
        &self.level_names[(l - 1) as usize]
    }

    /// Number of leaves (the base domain size).
    pub fn num_leaves(&self) -> u32 {
        self.leaf_nodes.len() as u32
    }

    /// Total number of nodes across all levels.
    pub fn num_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The node record for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Level of node `id`.
    pub fn level_of(&self, id: NodeId) -> LevelNo {
        self.node(id).level
    }

    /// Leaf interval `[lo, hi)` of node `id`.
    pub fn leaf_range(&self, id: NodeId) -> Range<LeafId> {
        self.node(id).leaf_range()
    }

    /// The arena node of leaf `leaf` (level-1 node).
    pub fn leaf_node(&self, leaf: LeafId) -> NodeId {
        self.leaf_nodes[leaf as usize]
    }

    /// If `id` is a leaf node, its DFS leaf id.
    pub fn leaf_index(&self, id: NodeId) -> Option<LeafId> {
        let n = self.node(id);
        (n.level == 1).then_some(n.lo)
    }

    /// The ancestor of leaf `leaf` at level `level` (O(1) table lookup).
    /// `level = 1` returns the leaf's own node.
    pub fn ancestor_at(&self, leaf: LeafId, level: LevelNo) -> NodeId {
        NodeId(self.anc[(level - 1) as usize][leaf as usize])
    }

    /// The leaf → level-offset table of level `level`: entry `leaf` is the
    /// position of [`ancestor_at`](Self::ancestor_at)`(leaf, level)` within
    /// [`nodes_at_level`](Self::nodes_at_level)`(level)`. Offsets ascend
    /// with the leaf id, so they number a level's nodes in DFS order.
    pub fn level_offsets(&self, level: LevelNo) -> &[u32] {
        &self.off[(level - 1) as usize]
    }

    /// The ancestor of an arbitrary node at `level ≥ node.level`.
    pub fn ancestor_of(&self, id: NodeId, level: LevelNo) -> NodeId {
        let n = self.node(id);
        assert!(level >= n.level, "ancestor level below node level");
        self.ancestor_at(n.lo, level)
    }

    /// Nodes at level `l`, ordered by leaf interval (DFS order).
    pub fn nodes_at_level(&self, l: LevelNo) -> &[NodeId] {
        &self.level_nodes[(l - 1) as usize]
    }

    /// The unique top node `ALL`.
    pub fn all(&self) -> NodeId {
        self.level_nodes[self.level_names.len() - 1][0]
    }

    /// Does `outer` contain `inner` (⊇ over the underlying leaf sets)?
    /// By the hierarchy laws this is exactly interval containment.
    pub fn contains(&self, outer: NodeId, inner: NodeId) -> bool {
        let o = self.node(outer);
        let i = self.node(inner);
        o.lo <= i.lo && i.hi <= o.hi
    }

    /// Do two nodes overlap? By Definition 1 this implies one contains the
    /// other.
    pub fn overlaps(&self, a: NodeId, b: NodeId) -> bool {
        let x = self.node(a);
        let y = self.node(b);
        x.lo < y.hi && y.lo < x.hi
    }

    /// Look a node up by its explicit display name. Where several nodes
    /// share a name, the lowest arena id wins.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The inverse of [`node_name`](Self::node_name): explicit names
    /// first, then the `Level[lo..hi]` form synthesized for anonymous
    /// nodes — so any name the system prints resolves back.
    pub fn resolve_name(&self, name: &str) -> Option<NodeId> {
        self.node_by_name(name).or_else(|| self.anonymous_by_name(name))
    }

    /// Parse `Level[lo..hi]` and find the unnamed node it was printed for.
    fn anonymous_by_name(&self, name: &str) -> Option<NodeId> {
        // Only the canonical decimal `node_name` prints ("07" and "+7"
        // are not names of anything).
        fn index(s: &str) -> Option<u32> {
            let canonical =
                s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
            if canonical {
                s.parse().ok()
            } else {
                None
            }
        }
        let (level, range) = name.strip_suffix(']')?.rsplit_once('[')?;
        let (lo, hi) = range.split_once("..")?;
        let (lo, hi) = (index(lo)?, index(hi)?);
        // Level names need not be unique either: lowest id over them all.
        (1..=self.levels())
            .filter(|&l| self.level_name(l) == level)
            .filter_map(|l| {
                let at = self.nodes_at_level(l);
                let i = at.binary_search_by_key(&lo, |&id| self.node(id).lo).ok()?;
                let n = self.node(at[i]);
                (n.hi == hi && n.name.is_none()).then_some(at[i])
            })
            .min()
    }

    /// Display name of a node, falling back to `Level[lo..hi]`.
    pub fn node_name(&self, id: NodeId) -> String {
        let n = self.node(id);
        match &n.name {
            Some(s) => s.clone(),
            None => format!("{}[{}..{}]", self.level_name(n.level), n.lo, n.hi),
        }
    }

    /// Check every structural invariant; returns a description of the first
    /// violation. Exercised by unit and property tests.
    pub fn validate(&self) -> Result<(), String> {
        let levels = self.levels();
        if levels < 2 {
            return Err("hierarchy needs at least leaves + ALL".into());
        }
        if self.level_names.last().map(String::as_str) != Some("ALL") {
            return Err("top level must be named ALL".into());
        }
        if self.level_nodes[(levels - 1) as usize].len() != 1 {
            return Err("exactly one ALL node required".into());
        }
        let all = self.all();
        if self.node(all).lo != 0 || self.node(all).hi != self.num_leaves() {
            return Err("ALL must cover every leaf".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.lo >= n.hi {
                return Err(format!("node {i} covers an empty interval"));
            }
            match n.parent {
                None => {
                    if n.level != levels {
                        return Err(format!("non-ALL node {i} has no parent"));
                    }
                }
                Some(p) => {
                    let pn = self.node(p);
                    if pn.level != n.level + 1 {
                        return Err(format!("node {i}: parent not one level up"));
                    }
                    if !(pn.lo <= n.lo && n.hi <= pn.hi) {
                        return Err(format!("node {i}: interval not inside parent"));
                    }
                }
            }
        }
        // Per level: intervals partition [0, num_leaves).
        for l in 1..=levels {
            let mut expected = 0;
            for &id in self.nodes_at_level(l) {
                let n = self.node(id);
                if n.lo != expected {
                    return Err(format!("level {l}: gap/overlap at leaf {expected}"));
                }
                expected = n.hi;
            }
            if expected != self.num_leaves() {
                return Err(format!("level {l}: does not cover all leaves"));
            }
        }
        // Ancestor table consistency.
        for leaf in 0..self.num_leaves() {
            if self.node(self.leaf_node(leaf)).lo != leaf {
                return Err(format!("leaf table broken at {leaf}"));
            }
            for l in 1..=levels {
                let a = self.ancestor_at(leaf, l);
                let n = self.node(a);
                if n.level != l || !(n.lo <= leaf && leaf < n.hi) {
                    return Err(format!("ancestor table broken at leaf {leaf} level {l}"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (", self.name)?;
        for (i, ln) in self.level_names.iter().enumerate() {
            if i > 0 {
                write!(f, " < ")?;
            }
            write!(f, "{ln}:{}", self.level_nodes[i].len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Location hierarchy of the paper's Figure 1: four cities grouped
    /// into states (MA, NY, TX, CA) into regions (East, West) under ALL.
    fn location() -> Hierarchy {
        crate::HierarchyBuilder::new("Location")
            .level_named("City", &["Boston", "Albany", "Austin", "SF"])
            .level_named("State", &["MA", "NY", "TX", "CA"])
            .level_named("Region", &["East", "West"])
            .parents(2, &[0, 1, 2, 3]) // city -> state (1:1 here)
            .parents(3, &[0, 0, 1, 1]) // state -> region
            .build()
    }

    #[test]
    fn figure1_location_shape() {
        let h = location();
        assert_eq!(h.levels(), 4);
        assert_eq!(h.num_leaves(), 4);
        assert_eq!(h.level_name(1), "City");
        assert_eq!(h.level_name(4), "ALL");
        h.validate().unwrap();

        let east = h.node_by_name("East").unwrap();
        assert_eq!(h.leaf_range(east), 0..2);
        let ma = h.node_by_name("MA").unwrap();
        assert!(h.contains(east, ma));
        assert!(!h.contains(ma, east));
        assert!(h.overlaps(east, ma));
        let west = h.node_by_name("West").unwrap();
        assert!(!h.overlaps(east, west));
        assert!(h.contains(h.all(), east));
    }

    #[test]
    fn ancestor_lookup_matches_parents() {
        let h = location();
        for leaf in 0..h.num_leaves() {
            let mut id = h.leaf_node(leaf);
            for l in 1..=h.levels() {
                assert_eq!(h.ancestor_at(leaf, l), id, "leaf {leaf} level {l}");
                if let Some(p) = h.node(id).parent {
                    id = p;
                }
            }
        }
    }

    #[test]
    fn level_offsets_index_nodes_at_level() {
        let h = Hierarchy::balanced("Time", &["Week", "Month", "Quarter"], &[4, 3, 4]);
        for l in 1..=h.levels() {
            let off = h.level_offsets(l);
            assert_eq!(off.len(), h.num_leaves() as usize);
            for leaf in 0..h.num_leaves() {
                let pos = off[leaf as usize] as usize;
                assert_eq!(
                    h.nodes_at_level(l)[pos],
                    h.ancestor_at(leaf, l),
                    "leaf {leaf} level {l}"
                );
            }
        }
    }

    #[test]
    fn balanced_builds_expected_sizes() {
        let h = Hierarchy::balanced("Time", &["Week", "Month", "Quarter"], &[4, 3, 4]);
        assert_eq!(h.num_leaves(), 48);
        assert_eq!(h.nodes_at_level(2).len(), 12);
        assert_eq!(h.nodes_at_level(3).len(), 4);
        assert_eq!(h.nodes_at_level(4).len(), 1);
        h.validate().unwrap();
        // Week 13 (0-based) is in month 3, quarter 1.
        let m = h.ancestor_at(13, 2);
        assert_eq!(h.leaf_range(m), 12..16);
        let q = h.ancestor_at(13, 3);
        assert_eq!(h.leaf_range(q), 12..24);
    }

    #[test]
    fn minimal_two_level_hierarchy() {
        let h = Hierarchy::balanced("Flag", &["Value"], &[2]);
        assert_eq!(h.levels(), 2);
        assert_eq!(h.num_leaves(), 2);
        assert_eq!(h.leaf_range(h.all()), 0..2);
        h.validate().unwrap();
    }

    #[test]
    fn leaf_index_only_for_leaves() {
        let h = location();
        let boston = h.node_by_name("Boston").unwrap();
        assert_eq!(h.leaf_index(boston), Some(0));
        let east = h.node_by_name("East").unwrap();
        assert_eq!(h.leaf_index(east), None);
    }

    #[test]
    fn ancestor_of_internal_node() {
        let h = location();
        let ma = h.node_by_name("MA").unwrap();
        let east = h.node_by_name("East").unwrap();
        assert_eq!(h.ancestor_of(ma, 3), east);
        assert_eq!(h.ancestor_of(ma, 2), ma);
        assert_eq!(h.ancestor_of(ma, 4), h.all());
    }

    /// The name map and the `Level[lo..hi]` parser must answer exactly
    /// what the scans they replaced answered: the first node, in arena
    /// order, whose explicit (resp. printed) name matches.
    #[test]
    fn name_resolution_matches_a_first_match_scan() {
        let anonymous = Hierarchy::balanced("Time", &["Week", "Month"], &[4, 3]);
        // Duplicate explicit names and a duplicate level name.
        let dup = crate::HierarchyBuilder::new("D")
            .level_named("L", &["a", "b", "a"])
            .level("L", 3)
            .parents(2, &[0, 1, 2])
            .build();
        for h in [location(), anonymous, dup] {
            let ids = || (0..h.num_nodes()).map(NodeId);
            for id in ids() {
                let printed = h.node_name(id);
                let by_scan = ids().find(|&i| h.node(i).name.as_deref() == Some(printed.as_str()));
                assert_eq!(h.node_by_name(&printed), by_scan, "{printed}");
                let printed_scan = ids().find(|&i| h.node_name(i) == printed);
                assert_eq!(h.resolve_name(&printed), by_scan.or(printed_scan), "{printed}");
            }
            for bad in ["", "Week[0..4", "Week[00..4]", "Week[+0..4]", "Week[0..5]", "Nope[0..4]"] {
                assert_eq!(h.resolve_name(bad), None, "{bad:?}");
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let h = location();
        let s = format!("{h}");
        assert!(s.contains("Location"), "{s}");
        assert!(s.contains("City:4"), "{s}");
        assert!(s.contains("ALL:1"), "{s}");
    }
}
