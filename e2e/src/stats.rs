//! Percentiles, medians and quartiles: the only arithmetic between a
//! latency sample and a reported metric.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`), the
/// definition the repository's earlier load generators used.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize] as f64
}

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the faster half of `values` (of the fastest one when there is
/// only one); `0.0` for an empty slice. For the fold times of the update
/// batches: a fold that shares the one CPU with a background compaction,
/// or loses it to the hypervisor, takes two to four times as long, and
/// in which folds that happens differs from run to run — enough of them
/// to move the median of 24 by a fifth between two runs. The faster half
/// is the folds that met neither.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = &v[..(v.len() / 2).max(1)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the driver's spread check uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the driver's
/// run-to-run spread. `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A window counts as clean when the hypervisor took at most this share
/// of the harness's CPU during it. Most windows read 0–6 %, a disturbed
/// one 15–50 %.
pub const CLEAN_STEAL_PCT: f64 = 10.0;

/// One measured window: the reads of one round.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Latency samples in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Share of the harness's CPU the hypervisor gave to someone else
    /// during the window, percent.
    pub steal_pct: f64,
}

/// Latencies of the measured reads, one window per round. A timing
/// metric is the median over the windows of the per-window statistic,
/// so up to a third of the rounds can meet a steal burst, a compaction
/// or a faster host without moving it.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    /// The windows, in time order.
    pub wins: Vec<Window>,
    /// Length of each window in seconds.
    pub window_s: f64,
}

impl Windows {
    /// Total samples across windows.
    pub fn samples(&self) -> usize {
        self.wins.iter().map(|w| w.lat_ns.len()).sum()
    }

    /// How many windows are clean.
    pub fn clean_count(&self) -> usize {
        self.wins.iter().filter(|w| w.steal_pct <= CLEAN_STEAL_PCT).count()
    }

    /// Median over the windows of the per-window percentile, in
    /// microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let per: Vec<f64> = self
            .wins
            .iter()
            .filter(|w| !w.lat_ns.is_empty())
            .map(|w| {
                let mut s = w.lat_ns.clone();
                s.sort_unstable();
                percentile(&s, p) / 1000.0
            })
            .collect();
        median(&per)
    }

    /// Median over the windows of completed operations per second the
    /// harness's CPU was running: a closed loop on one CPU completes
    /// nothing while the hypervisor runs someone else, so stolen time is
    /// taken out of the window's length (latencies need no such
    /// correction; a steal burst lengthens a handful of requests).
    pub fn ops_per_s(&self) -> f64 {
        let per: Vec<f64> = self
            .wins
            .iter()
            .map(|w| {
                w.lat_ns.len() as f64 / (self.window_s * (1.0 - w.steal_pct.min(90.0) / 100.0))
            })
            .collect();
        median(&per)
    }

    /// Percentile over every sample of every window, in microseconds
    /// (for the tail diagnostics that are deliberately not end-to-end).
    pub fn overall_percentile_us(&self, p: f64) -> f64 {
        let mut all: Vec<u64> = self.wins.iter().flat_map(|w| &w.lat_ns).copied().collect();
        all.sort_unstable();
        percentile(&all, p) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn faster_half_ignores_the_slow_half() {
        assert_eq!(faster_half_mean(&[0.4, 0.1, 0.3, 0.9, 0.1, 0.2]), (0.1 + 0.1 + 0.2) / 3.0);
        assert_eq!(faster_half_mean(&[0.5]), 0.5);
        assert_eq!(faster_half_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn window_median_shrugs_off_a_disturbed_window() {
        // Five windows of 100 samples at 10 µs; during window 3 the
        // hypervisor took 80 % of the CPU: a fifth of the work got done
        // and a tenth of the requests waited 50× as long.
        let wins = (0..5)
            .map(|i| {
                if i == 3 {
                    let mut lat_ns = vec![10_000; 18];
                    lat_ns.extend([500_000; 2]);
                    Window { lat_ns, steal_pct: 80.0 }
                } else {
                    Window { lat_ns: vec![10_000; 100], steal_pct: 0.0 }
                }
            })
            .collect();
        let w = Windows { wins, window_s: 2.0 };
        assert_eq!(w.samples(), 420);
        assert_eq!(w.clean_count(), 4);
        assert_eq!(w.percentile_us(0.5), 10.0);
        assert_eq!(w.percentile_us(0.9), 10.0);
        assert_eq!(w.ops_per_s(), 50.0);
        assert_eq!(w.overall_percentile_us(1.0), 500.0);
    }

    #[test]
    fn throughput_counts_the_seconds_the_cpu_was_ours() {
        // 60 reads in a 1 s window of which a quarter was stolen.
        let wins = vec![Window { lat_ns: vec![10_000; 60], steal_pct: 25.0 }];
        let w = Windows { wins, window_s: 1.0 };
        assert_eq!(w.ops_per_s(), 80.0);
    }
}
