//! Cross-tabulation: a two-dimensional pivot over the Extended Database.
//!
//! `pivot(edb, dim_a@level_a × dim_b@level_b)` is the classic OLAP
//! cross-tab — exactly the multidimensional view of Figure 1, computed
//! from allocation weights. Like [`crate::rollup()`], it is additive: row
//! and column margins equal the corresponding one-dimensional roll-ups.

use crate::agg::{AggFn, AggResult};
use crate::builder::Query;
use iolap_core::ExtendedDatabase;
use iolap_hierarchy::LevelNo;
use iolap_model::Schema;

/// A pivot table: row/column node names plus a dense value matrix.
#[derive(Debug, Clone)]
pub struct Pivot {
    /// Row labels (nodes of `dim_a` at `level_a`, DFS order).
    pub rows: Vec<String>,
    /// Column labels (nodes of `dim_b` at `level_b`, DFS order).
    pub cols: Vec<String>,
    /// `cells[r][c]` — the aggregate for (row r, column c).
    pub cells: Vec<Vec<AggResult>>,
    /// Row margins (aggregate over the whole row).
    pub row_margin: Vec<AggResult>,
    /// Column margins.
    pub col_margin: Vec<AggResult>,
    /// Grand total.
    pub total: AggResult,
}

/// Compute a pivot in one EDB scan.
#[allow(clippy::too_many_arguments)]
pub fn pivot(
    edb: &ExtendedDatabase,
    schema: &Schema,
    dim_a: usize,
    level_a: LevelNo,
    dim_b: usize,
    level_b: LevelNo,
    query: Option<&Query>,
    agg: AggFn,
) -> iolap_core::Result<Pivot> {
    let ha = schema.dim(dim_a);
    let hb = schema.dim(dim_b);
    let rows_nodes = ha.nodes_at_level(level_a).to_vec();
    let cols_nodes = hb.nodes_at_level(level_b).to_vec();
    let mut pos_a = std::collections::HashMap::new();
    for (i, &n) in rows_nodes.iter().enumerate() {
        pos_a.insert(n, i);
    }
    let mut pos_b = std::collections::HashMap::new();
    for (i, &n) in cols_nodes.iter().enumerate() {
        pos_b.insert(n, i);
    }
    let (nr, nc) = (rows_nodes.len(), cols_nodes.len());
    let mut sums = vec![vec![0.0f64; nc]; nr];
    let mut counts = vec![vec![0.0f64; nc]; nr];

    let region =
        query.map_or_else(|| iolap_core::SegmentCursor::all_region(schema.k()), |q| q.region);
    let views = edb.segments()?;
    let mut cursor = iolap_core::SegmentCursor::new(&views, region);
    cursor.for_each(|e| {
        let r = pos_a[&ha.ancestor_at(e.cell[dim_a], level_a)];
        let c = pos_b[&hb.ancestor_at(e.cell[dim_b], level_b)];
        sums[r][c] += e.weight * e.measure;
        counts[r][c] += e.weight;
    })?;
    let stats = cursor.stats();
    edb.note_segment_scan(stats);

    let finish = |sum: f64, count: f64| AggResult::from_parts(agg, sum, count);

    let cells: Vec<Vec<AggResult>> =
        (0..nr).map(|r| (0..nc).map(|c| finish(sums[r][c], counts[r][c])).collect()).collect();
    let row_margin: Vec<AggResult> =
        (0..nr).map(|r| finish(sums[r].iter().sum(), counts[r].iter().sum())).collect();
    let col_margin: Vec<AggResult> = (0..nc)
        .map(|c| finish(sums.iter().map(|row| row[c]).sum(), counts.iter().map(|row| row[c]).sum()))
        .collect();
    let total = finish(sums.iter().flatten().sum(), counts.iter().flatten().sum());

    Ok(Pivot {
        rows: rows_nodes.iter().map(|&n| ha.node_name(n)).collect(),
        cols: cols_nodes.iter().map(|&n| hb.node_name(n)).collect(),
        cells,
        row_margin,
        col_margin,
        total,
    })
}

impl Pivot {
    /// Render as an aligned text table with margins.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        let rw = self.rows.iter().map(String::len).max().unwrap_or(5).max(5);
        let cw = self.cols.iter().map(String::len).max().unwrap_or(8).max(9);
        out.push_str(&format!("{:<rw$}", ""));
        for c in &self.cols {
            out.push_str(&format!("  {c:>cw$}"));
        }
        out.push_str(&format!("  {:>cw$}\n", "TOTAL"));
        for (r, name) in self.rows.iter().enumerate() {
            out.push_str(&format!("{name:<rw$}"));
            for c in 0..self.cols.len() {
                out.push_str(&format!("  {:>cw$.2}", self.cells[r][c].value));
            }
            out.push_str(&format!("  {:>cw$.2}\n", self.row_margin[r].value));
        }
        out.push_str(&format!("{:<rw$}", "TOTAL"));
        for c in 0..self.cols.len() {
            out.push_str(&format!("  {:>cw$.2}", self.col_margin[c].value));
        }
        out.push_str(&format!("  {:>cw$.2}\n", self.total.value));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolap_core::{allocate, Algorithm, AllocConfig, PolicySpec};
    use iolap_model::paper_example;

    fn edb() -> ExtendedDatabase {
        allocate(
            &paper_example::table1(),
            &PolicySpec::em_count(0.001),
            Algorithm::Transitive,
            &AllocConfig::builder().in_memory(256).build(),
        )
        .unwrap()
        .edb
    }

    #[test]
    fn margins_match_rollups() {
        let edb = edb();
        let schema = paper_example::schema();
        let p = pivot(&edb, &schema, 0, 2, 1, 2, None, AggFn::Sum).unwrap();
        assert_eq!(p.rows, vec!["East", "West"]);
        assert_eq!(p.cols, vec!["Sedan", "Truck"]);
        let by_region = crate::rollup::rollup(&edb, &schema, 0, 2, None, AggFn::Sum).unwrap();
        for (r, row) in by_region.iter().enumerate() {
            assert!((p.row_margin[r].sum - row.result.sum).abs() < 1e-9);
        }
        let by_cat = crate::rollup::rollup(&edb, &schema, 1, 2, None, AggFn::Sum).unwrap();
        for (c, col) in by_cat.iter().enumerate() {
            assert!((p.col_margin[c].sum - col.result.sum).abs() < 1e-9);
        }
        // Grand total = all the sales.
        let want: f64 = paper_example::table1().facts().iter().map(|f| f.measure).sum();
        assert!((p.total.sum - want).abs() < 1e-6);
    }

    #[test]
    fn cells_are_additive_into_margins() {
        let edb = edb();
        let schema = paper_example::schema();
        let p = pivot(&edb, &schema, 0, 1, 1, 1, None, AggFn::Count).unwrap();
        for r in 0..p.rows.len() {
            let s: f64 = p.cells[r].iter().map(|a| a.count).sum();
            assert!((s - p.row_margin[r].count).abs() < 1e-9);
        }
        for c in 0..p.cols.len() {
            let s: f64 = p.cells.iter().map(|row| row[c].count).sum();
            assert!((s - p.col_margin[c].count).abs() < 1e-9);
        }
    }

    #[test]
    fn render_shape() {
        let edb = edb();
        let schema = paper_example::schema();
        let p = pivot(&edb, &schema, 0, 2, 1, 2, None, AggFn::Sum).unwrap();
        let s = p.render("Sales");
        assert!(s.contains("East") && s.contains("Sedan") && s.contains("TOTAL"), "{s}");
        assert_eq!(s.lines().count(), 1 + 1 + 2 + 1); // title, header, 2 rows, total
    }
}
