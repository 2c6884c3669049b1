//! A small always-cheap metrics registry: named counters, gauges, and
//! power-of-two-bucketed histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are resolved once by
//! name and then updated lock-free with relaxed atomics, so instrumented
//! hot paths pay one atomic RMW per update — the same cost the storage
//! layer already pays for its I/O accounting. The registry itself is only
//! locked on registration and export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per bit position.
const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, in-flight budgets).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for `v`: 0 for zero, else `floor(log2 v) + 1`, so bucket
/// `i > 0` holds values in `[2^(i-1), 2^i)`.
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A histogram over `u64` observations with power-of-two buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Cumulative `(le, count)` pairs for every non-empty prefix bucket,
    /// oldest bound first. Empty when nothing was observed.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        let mut last_nonzero = 0usize;
        let raw: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        for (i, &c) in raw.iter().enumerate() {
            if c > 0 {
                last_nonzero = i;
            }
        }
        if raw.iter().all(|&c| c == 0) {
            return out;
        }
        for (i, &c) in raw.iter().enumerate().take(last_nonzero + 1) {
            cum += c;
            out.push((bucket_bound(i), cum));
        }
        out
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shareable metrics registry. Cloning shares the underlying maps.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Registry>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.inner.lock().unwrap();
        reg.counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = self.inner.lock().unwrap();
        reg.gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.inner.lock().unwrap();
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// Sorted `(name, value)` snapshot of every counter.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let reg = self.inner.lock().unwrap();
        reg.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect()
    }

    /// Sorted `(name, value)` snapshot of every gauge.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        let reg = self.inner.lock().unwrap();
        reg.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect()
    }

    /// Sorted `(name, handle)` snapshot of every histogram.
    pub fn histogram_values(&self) -> Vec<(String, Histogram)> {
        let reg = self.inner.lock().unwrap();
        reg.histograms.iter().map(|(k, h)| (k.clone(), h.clone())).collect()
    }

    /// Render the whole registry as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"sum":..,"buckets":[[le,cum],..]}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counter_values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::json::escape_json_into(&mut out, name);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauge_values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::json::escape_json_into(&mut out, name);
            let _ = write!(out, "\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histogram_values().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::json::escape_json_into(&mut out, name);
            let _ = write!(out, "\":{{\"count\":{},\"sum\":{},\"buckets\":[", h.count(), h.sum());
            for (j, (le, cum)) in h.cumulative_buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{cum}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counter_values() {
            let n = prom_name(&name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in self.gauge_values() {
            let n = prom_name(&name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in self.histogram_values() {
            let n = prom_name(&name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for (le, cum) in h.cumulative_buckets() {
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{n}_sum {}", h.sum());
            let _ = writeln!(out, "{n}_count {}", h.count());
        }
        out
    }
}

/// Sanitize a dotted metric name into a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    format!("iolap_{out}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let m = Metrics::new();
        let c = m.counter("pager.reads");
        c.add(3);
        m.counter("pager.reads").inc(); // same underlying cell
        assert_eq!(m.counter("pager.reads").get(), 4);
        let g = m.gauge("pool.queue_depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let m = Metrics::new();
        let h = m.histogram("sizes");
        for v in [0u64, 1, 1, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1005);
        let buckets = h.cumulative_buckets();
        // v=0 → le 0; v=1 → le 1; v=3 → le 3; v=1000 → le 1023.
        assert_eq!(buckets.first(), Some(&(0u64, 1u64)));
        assert!(buckets.contains(&(1, 3)));
        assert_eq!(buckets.last(), Some(&(1023u64, 5u64)));
    }

    #[test]
    fn exports_parse_and_cover_all_series() {
        let m = Metrics::new();
        m.counter("a.b").add(7);
        m.gauge("g").set(-2);
        m.histogram("h").observe(9);
        let json = crate::json::parse(&m.to_json()).unwrap();
        assert_eq!(
            json.get("counters").and_then(|c| c.get("a.b")).and_then(|v| v.as_u64()),
            Some(7)
        );
        assert_eq!(
            json.get("gauges").and_then(|c| c.get("g")).and_then(|v| v.as_f64()),
            Some(-2.0)
        );
        let prom = m.to_prometheus();
        assert!(prom.contains("iolap_a_b 7"));
        assert!(prom.contains("iolap_g -2"));
        assert!(prom.contains("iolap_h_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("iolap_h_sum 9"));
    }
}
