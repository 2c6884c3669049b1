//! External merge sort over record files.
//!
//! Run formation quicksorts `budget.pages` worth of records at a time; runs
//! are then k-way merged with a binary heap. With a budget of `B` pages and
//! a relation of `N` pages, `N ≤ B·(B−1)` suffices for the classic two-pass
//! sort the paper's cost analysis assumes ("the standard assumption that
//! external sort requires two passes over a relation, with each page being
//! read and written during a pass").
//!
//! The sorter is stable **per run** but the merge breaks ties by run order,
//! making the whole sort stable: ties keep their input order.

use crate::codec::Codec;
use crate::env::Env;
use crate::error::{Result, StorageError};
use crate::file::RecordFile;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Memory budget for the sorter, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortBudget {
    /// Pages of records sorted per run; also bounds the merge fan-in.
    pub pages: usize,
}

impl SortBudget {
    /// A budget of `pages` pages (min 2).
    pub fn pages(pages: usize) -> Self {
        SortBudget { pages: pages.max(2) }
    }
}

/// Sort `input` by `key`, consuming it and returning a new sorted file.
///
/// Ties keep their input order (stable sort).
pub fn external_sort<T, C, K, F>(
    env: &Env,
    input: RecordFile<T, C>,
    budget: SortBudget,
    key: F,
) -> Result<RecordFile<T, C>>
where
    C: Codec<T>,
    K: Ord,
    F: Fn(&T) -> K,
{
    ExternalSorter::new(env.clone(), budget).sort(input, key)
}

/// Reusable external sorter (see [`external_sort`]).
pub struct ExternalSorter {
    env: Env,
    budget: SortBudget,
}

impl ExternalSorter {
    /// Create a sorter drawing scratch files from `env`.
    pub fn new(env: Env, budget: SortBudget) -> Self {
        ExternalSorter { env, budget }
    }

    /// Sort `input` by `key`; consumes the input file (its pages are
    /// released) and returns a freshly written sorted file.
    pub fn sort<T, C, K, F>(&self, mut input: RecordFile<T, C>, key: F) -> Result<RecordFile<T, C>>
    where
        C: Codec<T>,
        K: Ord,
        F: Fn(&T) -> K,
    {
        let codec = input.codec().clone();
        let run_records = (self.budget.pages * input.recs_per_page()).max(1);
        let obs = self.env.obs().clone();
        let mut sort_span = obs.span_with(
            "extsort.sort",
            vec![
                ("records".to_string(), input.len().into()),
                ("budget_pages".to_string(), self.budget.pages.into()),
            ],
        );

        // Pass 1: run formation.
        let mut runs: Vec<RecordFile<T, C>> = Vec::new();
        {
            let _run_span = obs.span("extsort.run_generation");
            let mut chunk: Vec<T> = Vec::with_capacity(run_records.min(input.len() as usize));
            let mut cursor = input.scan();
            loop {
                let rec = cursor.next()?;
                let at_end = rec.is_none();
                if let Some(r) = rec {
                    chunk.push(r);
                }
                if chunk.len() >= run_records || (at_end && !chunk.is_empty()) {
                    chunk.sort_by_key(|a| key(a));
                    let mut run = self.env.create_temp_file(codec.clone())?;
                    run.extend(chunk.iter())?;
                    run.seal();
                    runs.push(run);
                    chunk.clear();
                }
                if at_end {
                    break;
                }
            }
        }
        input.delete()?;
        sort_span.record("runs", runs.len());
        if let Some(c) = obs.counter("extsort.runs") {
            c.add(runs.len() as u64);
        }

        if runs.is_empty() {
            return self.env.create_temp_file(codec);
        }

        // Merge passes. Fan-in is bounded by the budget and by what the
        // shared pool can pin simultaneously (one page per run + output).
        let pool_cap = self.env.pool().capacity();
        let fanin = (self.budget.pages.saturating_sub(1)).min(pool_cap.saturating_sub(2)).max(2);

        let merge_passes = obs.counter("extsort.merge_passes");
        while runs.len() > 1 {
            let _pass_span =
                obs.span_with("extsort.merge_pass", vec![("runs".to_string(), runs.len().into())]);
            if let Some(c) = &merge_passes {
                c.inc();
            }
            let mut next_round: Vec<RecordFile<T, C>> = Vec::new();
            let mut batch: Vec<RecordFile<T, C>> = Vec::new();
            for run in runs.drain(..) {
                batch.push(run);
                if batch.len() == fanin {
                    next_round.push(self.merge_batch(std::mem::take(&mut batch), &key)?);
                }
            }
            match batch.len() {
                0 => {}
                1 => next_round.push(batch.pop().expect("len checked")),
                _ => next_round.push(self.merge_batch(batch, &key)?),
            }
            runs = next_round;
        }
        Ok(runs.pop().expect("at least one run"))
    }

    fn merge_batch<T, C, K, F>(
        &self,
        mut batch: Vec<RecordFile<T, C>>,
        key: &F,
    ) -> Result<RecordFile<T, C>>
    where
        C: Codec<T>,
        K: Ord,
        F: Fn(&T) -> K,
    {
        struct HeapEntry<K: Ord> {
            key: K,
            run: usize,
        }
        impl<K: Ord> PartialEq for HeapEntry<K> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl<K: Ord> Eq for HeapEntry<K> {}
        impl<K: Ord> PartialOrd for HeapEntry<K> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<K: Ord> Ord for HeapEntry<K> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reversed: BinaryHeap is a max-heap, we want the minimum.
                // Ties broken by run index for stability.
                other.key.cmp(&self.key).then(other.run.cmp(&self.run))
            }
        }

        let codec = batch[0].codec().clone();
        let mut out = self.env.create_temp_file(codec)?;
        {
            let mut cursors: Vec<_> = batch.iter_mut().map(|r| r.scan()).collect();
            let mut heap: BinaryHeap<HeapEntry<K>> = BinaryHeap::new();
            let mut current: Vec<Option<T>> = Vec::with_capacity(cursors.len());
            for (i, c) in cursors.iter_mut().enumerate() {
                let v = c.next()?;
                if let Some(v) = &v {
                    heap.push(HeapEntry { key: key(v), run: i });
                }
                current.push(v);
            }
            while let Some(HeapEntry { run, .. }) = heap.pop() {
                let v = current[run].take().expect("heap entry implies a current value");
                out.push(&v)?;
                let next = cursors[run].next()?;
                if let Some(nv) = &next {
                    heap.push(HeapEntry { key: key(nv), run });
                }
                current[run] = next;
            }
        }
        for run in batch {
            run.delete()?;
        }
        out.seal();
        Ok(out)
    }
}

/// Verify a file is sorted by `key`; used by tests and debug assertions.
pub fn is_sorted_by<T, C, K, F>(file: &mut RecordFile<T, C>, key: F) -> Result<bool>
where
    C: Codec<T>,
    K: Ord,
    F: Fn(&T) -> K,
{
    let mut cursor = file.scan();
    let mut prev: Option<K> = None;
    while let Some(v) = cursor.next()? {
        let k = key(&v);
        if let Some(p) = &prev {
            if *p > k {
                return Ok(false);
            }
        }
        prev = Some(k);
    }
    Ok(true)
}

/// A convenience guard for validating sorter configuration early.
pub fn validate_budget(budget: SortBudget) -> Result<()> {
    if budget.pages < 2 {
        return Err(StorageError::InvalidConfig("sort budget must be at least 2 pages".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{U64Codec, U64PairCodec};

    fn env(pool_pages: usize) -> Env {
        Env::builder("extsort-test").pool_pages(pool_pages).in_memory().build().unwrap()
    }

    fn fill(env: &Env, data: &[u64]) -> RecordFile<u64, U64Codec> {
        let mut f = env.create_file("in", U64Codec).unwrap();
        for v in data {
            f.push(v).unwrap();
        }
        f
    }

    #[test]
    fn sorts_small_input() {
        let env = env(16);
        let f = fill(&env, &[5, 3, 9, 1, 1, 0, 7]);
        let sorted = external_sort(&env, f, SortBudget::pages(2), |v| *v).unwrap();
        let mut out = Vec::new();
        sorted.read_batch(0, &mut out, 100).unwrap();
        assert_eq!(out, vec![0, 1, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn sorts_multi_run_input() {
        let env = env(32);
        // 20k records = ~40 pages of u64; budget 4 pages → ~10 runs.
        let data: Vec<u64> = (0..20_000u64).map(|i| (i * 2_654_435_761) % 100_000).collect();
        let f = fill(&env, &data);
        let mut sorted = external_sort(&env, f, SortBudget::pages(4), |v| *v).unwrap();
        assert_eq!(sorted.len(), 20_000);
        assert!(is_sorted_by(&mut sorted, |v| *v).unwrap());
    }

    #[test]
    fn multi_pass_merge_with_tiny_budget() {
        let env = env(8);
        let data: Vec<u64> = (0..30_000u64).rev().collect();
        let f = fill(&env, &data);
        // Budget 2 pages → fan-in 2 → several merge passes.
        let mut sorted = external_sort(&env, f, SortBudget::pages(2), |v| *v).unwrap();
        assert_eq!(sorted.len(), 30_000);
        assert!(is_sorted_by(&mut sorted, |v| *v).unwrap());
        assert_eq!(sorted.get(0).unwrap(), 0);
        assert_eq!(sorted.get(29_999).unwrap(), 29_999);
    }

    #[test]
    fn stable_for_equal_keys() {
        let env = env(16);
        let mut f = env.create_file("in", U64PairCodec).unwrap();
        // Key is .0 (lots of duplicates); payload .1 is the input position.
        for i in 0..5_000u64 {
            f.push(&(i % 7, i)).unwrap();
        }
        let mut sorted =
            external_sort(&env, f, SortBudget::pages(2), |v: &(u64, u64)| v.0).unwrap();
        let mut cursor = sorted.scan();
        let mut last: Option<(u64, u64)> = None;
        while let Some(v) = cursor.next().unwrap() {
            if let Some(p) = last {
                assert!(p.0 <= v.0);
                if p.0 == v.0 {
                    assert!(p.1 < v.1, "stability violated: {p:?} before {v:?}");
                }
            }
            last = Some(v);
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let env = env(8);
        let f = fill(&env, &[]);
        let sorted = external_sort(&env, f, SortBudget::pages(2), |v| *v).unwrap();
        assert!(sorted.is_empty());
    }

    #[test]
    fn two_pass_io_cost_shape() {
        // With data much larger than the pool, sorting should cost roughly
        // 2 reads + 2 writes per page (run pass + one merge pass), i.e.
        // ~4 I/Os per page, plus the input's initial write.
        let env = env(8);
        let n: u64 = 512 * 64; // 64 pages of u64
        let data: Vec<u64> = (0..n).rev().collect();
        let f = fill(&env, &data);
        let pages = f.num_pages();
        {
            // flush pending appends so accounting is clean
            let mut f = f;
            f.purge_cache().unwrap();
            let before = env.stats().snapshot();
            let mut sorted = external_sort(&env, f, SortBudget::pages(8), |v| *v).unwrap();
            sorted.purge_cache().unwrap();
            let delta = env.stats().snapshot() - before;
            // 64 pages / 8-page runs = 8 runs; fan-in min(7, cap-2=6) = 6
            // → two merge rounds. Expect ≥ 2 and ≤ 4 passes worth of I/O.
            let per_pass = pages * 2; // read + write each page
            assert!(delta.total() >= 2 * per_pass, "{delta:?} vs {per_pass}");
            assert!(delta.total() <= 5 * per_pass, "{delta:?} vs {per_pass}");
            assert!(is_sorted_by(&mut sorted, |v| *v).unwrap());
        }
    }

    #[test]
    fn budget_validation() {
        assert!(validate_budget(SortBudget { pages: 1 }).is_err());
        assert!(validate_budget(SortBudget::pages(1)).is_ok()); // clamped to 2
    }
}
