//! Allocation policies (Definitions 4–5 and the policy space of [5, 6]).

/// The allocation quantity assigned to cells — the policy template's
/// degree of freedom ("Each allocation policy instantiates this template
/// by selecting a particular allocation quantity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantity {
    /// δ(c) = number of precise facts mapped to `c` (EM-Count's quantity).
    Count,
    /// δ(c) = sum of the measures of the precise facts mapped to `c`.
    Measure,
    /// δ(c) = 1 for every candidate cell (uniform allocation's quantity).
    Uniform,
}

/// Which cells form the candidate set `C` — the paper lists exactly these
/// choices ("each allocation policy in [5, 6] used one of the following").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateCells {
    /// Cells mapped to by at least one precise fact (the default, and the
    /// only choice that scales to huge dimension domains).
    PreciseCells,
    /// The union of the imprecise facts' regions (∪ the precise cells, so
    /// δ has support). Materializing this enumerates region cells, so a
    /// hard limit guards against `ALL × ALL` blowups.
    RegionUnion {
        /// Refuse to materialize more than this many cells.
        max_cells: u64,
    },
}

/// Convergence control for the iterative template.
///
/// The paper's test (Section 3.2): `ε = |Δ⁽ᵗ⁾(c) − Δ⁽ᵗ⁺¹⁾(c)| / Δ⁽ᵗ⁾(c)`;
/// a cell converges when `ε < k`; the iteration stops when every cell has
/// converged. `max_iters = 0` yields the non-iterative policies
/// (`p_{c,r} = δ(c) / Σ_{c'∈reg(r)} δ(c')`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Relative-change threshold (the paper sweeps 0.1 … 0.005).
    pub epsilon: f64,
    /// Hard iteration cap (safety; the paper's datasets converge in ≤ 10).
    pub max_iters: u32,
}

impl Convergence {
    /// Has a cell's Δ converged between `old` and `new`?
    #[inline]
    pub fn cell_converged(&self, old: f64, new: f64) -> bool {
        if old == 0.0 {
            return new == 0.0;
        }
        ((new - old).abs() / old.abs()) < self.epsilon
    }
}

/// A fully specified allocation policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// The allocation quantity δ.
    pub quantity: Quantity,
    /// The candidate cell set `C`.
    pub cells: CandidateCells,
    /// Iteration control.
    pub convergence: Convergence,
}

impl PolicySpec {
    /// EM-Count (the paper's running policy): iterate the template with
    /// fact counts until every Δ(c) changes by less than `epsilon`.
    pub fn em_count(epsilon: f64) -> Self {
        PolicySpec {
            quantity: Quantity::Count,
            cells: CandidateCells::PreciseCells,
            convergence: Convergence { epsilon, max_iters: 100 },
        }
    }

    /// EM-Measure: like EM-Count but seeded with measure mass.
    pub fn em_measure(epsilon: f64) -> Self {
        PolicySpec {
            quantity: Quantity::Measure,
            cells: CandidateCells::PreciseCells,
            convergence: Convergence { epsilon, max_iters: 100 },
        }
    }

    /// Non-iterative count allocation:
    /// `p_{c,r} = count(c) / Σ_{c'∈reg(r)} count(c')`.
    pub fn count() -> Self {
        PolicySpec {
            quantity: Quantity::Count,
            cells: CandidateCells::PreciseCells,
            convergence: Convergence { epsilon: 0.0, max_iters: 0 },
        }
    }

    /// Non-iterative measure allocation.
    pub fn measure() -> Self {
        PolicySpec {
            quantity: Quantity::Measure,
            cells: CandidateCells::PreciseCells,
            convergence: Convergence { epsilon: 0.0, max_iters: 0 },
        }
    }

    /// Uniform allocation over each fact's candidate completions.
    /// Candidate cells default to the region union (bounded), so a fact's
    /// weight spreads over its whole region, as in \[5\].
    pub fn uniform() -> Self {
        PolicySpec {
            quantity: Quantity::Uniform,
            cells: CandidateCells::RegionUnion { max_cells: 10_000_000 },
            convergence: Convergence { epsilon: 0.0, max_iters: 0 },
        }
    }

    /// Same policy with a different iteration cap (used by the benches to
    /// pin exact iteration counts, as the paper's figures do).
    pub fn with_max_iters(mut self, max_iters: u32) -> Self {
        self.convergence.max_iters = max_iters;
        self
    }

    /// Is this a single-shot (non-iterative) policy?
    pub fn is_non_iterative(&self) -> bool {
        self.convergence.max_iters == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(PolicySpec::count().is_non_iterative());
        assert!(PolicySpec::uniform().is_non_iterative());
        assert!(!PolicySpec::em_count(0.05).is_non_iterative());
        assert_eq!(PolicySpec::em_count(0.05).convergence.epsilon, 0.05);
        assert_eq!(PolicySpec::em_count(0.1).with_max_iters(3).convergence.max_iters, 3);
    }

    #[test]
    fn convergence_test_matches_paper_definition() {
        let c = Convergence { epsilon: 0.05, max_iters: 10 };
        assert!(c.cell_converged(100.0, 104.9));
        assert!(!c.cell_converged(100.0, 105.1));
        assert!(c.cell_converged(0.0, 0.0));
        assert!(!c.cell_converged(0.0, 1.0));
        // Relative to the OLD value, as in the paper.
        assert!(!c.cell_converged(10.0, 11.0));
        assert!(c.cell_converged(10.0, 10.4));
    }
}
