//! A small metrics registry: counters, gauges, and fixed-bucket histograms
//! with interpolated percentiles.
//!
//! The registry exists to answer tail questions the per-phase aggregates
//! cannot — p50/p95/p99 of PS request service time, queue depth, message
//! size, per-worker phase duration. Two design rules keep it compatible with
//! the repo-wide determinism contract:
//!
//! 1. **Fixed buckets.** Histogram bucket boundaries are declared up front
//!    (log-spaced by default), never adapted to the data, so the exported
//!    quantiles are a pure function of the observed multiset of values.
//! 2. **Name prefixes declare determinism.** Metrics fed from the simulated
//!    clock live under `sim/` and must be bit-identical across reruns;
//!    metrics fed from wall-clock measurements live under `wall/` and are
//!    excluded from canonical documents and from `report-diff` comparisons.
//!
//! Export order is the `BTreeMap` name order — stable by construction.

use std::collections::BTreeMap;

use crate::emit::JsonWriter;

/// A histogram over fixed, pre-declared bucket boundaries.
///
/// `bounds` holds ascending upper bounds; values above the last bound land
/// in an implicit overflow bucket. Alongside the buckets the histogram keeps
/// exact `count`, `sum`, `min`, and `max`, so quantile estimates can be
/// clamped to the observed range (a histogram of one value reports that
/// value for every percentile).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl FixedHistogram {
    /// A histogram with explicit ascending bucket upper bounds.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        let counts = vec![0; bounds.len() + 1];
        FixedHistogram {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Log-spaced bounds from `lo` to `hi` with `per_decade` buckets per
    /// factor of ten. The default resolution for registry metrics.
    pub fn log_spaced(lo: f64, hi: f64, per_decade: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let decades = (hi / lo).log10();
        let steps = (decades * per_decade as f64).ceil() as usize;
        let ratio = 10f64.powf(1.0 / per_decade as f64);
        let mut bounds = Vec::with_capacity(steps + 1);
        let mut b = lo;
        for _ in 0..=steps {
            bounds.push(b);
            b *= ratio;
        }
        FixedHistogram::with_bounds(bounds)
    }

    /// The registry-wide default: 1 ns .. 1e9 (seconds, bytes, or counts all
    /// fit), three buckets per decade.
    pub fn default_buckets() -> Self {
        FixedHistogram::log_spaced(1e-9, 1e9, 3)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => i,
            None => self.bounds.len(),
        };
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Interpolated quantile estimate, clamped to the observed `[min, max]`.
    ///
    /// Within the bucket containing the target rank the estimate is linear
    /// between the bucket's *effective* edges: the declared bounds tightened
    /// to the observed range. The implicit overflow bucket has no declared
    /// upper bound, so its right edge is the tracked `max` — the estimate
    /// clamps to the recorded maximum rather than extrapolating past the
    /// last bound or silently returning it. Exact for the extremes (q=0 →
    /// min, q=1 → max) and for single-value histograms.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                // Tighten the declared edges to the observed range: every
                // value in this bucket is >= min, and the overflow bucket's
                // only honest right edge is the recorded max.
                let lo = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                let frac = (target - cum as f64) / c as f64;
                let est = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return est.clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone event count.
    Counter(u64),
    /// A last-value gauge that also tracks its observed range.
    Gauge { last: f64, min: f64, max: f64 },
    /// A fixed-bucket histogram.
    Histogram(FixedHistogram),
}

/// Flat, export-friendly view of one metric, used by `RunReport`'s
/// `percentiles` section and by the trace tooling.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricExport {
    /// Registry name, e.g. `sim/ps_service_secs`.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// False for `wall/`-prefixed metrics, which may differ across reruns.
    pub deterministic: bool,
    /// Observation count (1 for counters and gauges).
    pub count: u64,
    /// Counter value, gauge last value, or histogram sum.
    pub value: f64,
    /// Observed minimum.
    pub min: f64,
    /// Observed maximum.
    pub max: f64,
    /// 50th percentile (histograms only; 0 otherwise).
    pub p50: f64,
    /// 95th percentile (histograms only; 0 otherwise).
    pub p95: f64,
    /// 99th percentile (histograms only; 0 otherwise).
    pub p99: f64,
}

impl MetricExport {
    /// Writes the metric as the next element of the array open on `w` —
    /// the one spelling of a `percentiles` entry. A `wall/` metric is left
    /// out of a canonical document.
    pub fn emit(&self, w: &mut JsonWriter) {
        if !self.deterministic && !w.wall {
            return;
        }
        w.elem_object(|w| {
            w.str("name", &self.name);
            w.str("kind", self.kind);
            w.u64("count", self.count);
            w.f64("value", self.value);
            w.f64("min", self.min);
            w.f64("max", self.max);
            w.f64("p50", self.p50);
            w.f64("p95", self.p95);
            w.f64("p99", self.p99);
        });
    }
}

/// Prefix that marks a metric as wall-clock (nondeterministic).
pub const WALL_PREFIX: &str = "wall/";

/// A named collection of metrics with deterministic iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The named metric, created by `make` on first use. Only that first
    /// use allocates the key: an existing metric is found by `&str`.
    fn metric_mut(&mut self, name: &str, make: impl FnOnce() -> Metric) -> &mut Metric {
        if !self.metrics.contains_key(name) {
            self.metrics.insert(name.to_string(), make());
        }
        self.metrics.get_mut(name).expect("inserted above")
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.metric_mut(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.metric_mut(name, || Metric::Gauge {
            last: v,
            min: v,
            max: v,
        }) {
            Metric::Gauge { last, min, max } => {
                *last = v;
                *min = min.min(v);
                *max = max.max(v);
            }
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Records one observation into the named histogram with the registry's
    /// default log-spaced buckets.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with(name, v, FixedHistogram::default_buckets);
    }

    /// Records one observation, creating the histogram with `make` if absent.
    pub fn observe_with(&mut self, name: &str, v: f64, make: impl FnOnce() -> FixedHistogram) {
        match self.metric_mut(name, || Metric::Histogram(make())) {
            Metric::Histogram(h) => h.observe(v),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Flat export of every metric, sorted by name.
    pub fn export(&self) -> Vec<MetricExport> {
        self.metrics
            .iter()
            .map(|(name, metric)| {
                let deterministic = !name.starts_with(WALL_PREFIX);
                match metric {
                    Metric::Counter(v) => MetricExport {
                        name: name.clone(),
                        kind: "counter",
                        deterministic,
                        count: 1,
                        value: *v as f64,
                        min: *v as f64,
                        max: *v as f64,
                        p50: 0.0,
                        p95: 0.0,
                        p99: 0.0,
                    },
                    Metric::Gauge { last, min, max } => MetricExport {
                        name: name.clone(),
                        kind: "gauge",
                        deterministic,
                        count: 1,
                        value: *last,
                        min: *min,
                        max: *max,
                        p50: 0.0,
                        p95: 0.0,
                        p99: 0.0,
                    },
                    Metric::Histogram(h) => MetricExport {
                        name: name.clone(),
                        kind: "histogram",
                        deterministic,
                        count: h.count(),
                        value: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut r = MetricsRegistry::new();
        r.counter_add("sim/requests", 3);
        r.counter_add("sim/requests", 2);
        r.gauge_set("sim/clock", 1.5);
        r.gauge_set("sim/clock", 0.5);
        assert_eq!(r.get("sim/requests"), Some(&Metric::Counter(5)));
        match r.get("sim/clock") {
            Some(Metric::Gauge { last, min, max }) => {
                assert_eq!(*last, 0.5);
                assert_eq!(*min, 0.5);
                assert_eq!(*max, 1.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = FixedHistogram::log_spaced(1e-6, 1e3, 4);
        for i in 1..=100 {
            h.observe(i as f64 * 0.01); // 0.01 .. 1.00
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((0.2..=0.8).contains(&p50), "p50={p50}");
        assert!(p99 > p50 && p99 <= 1.0, "p99={p99}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn single_value_histogram_is_exact() {
        let mut h = FixedHistogram::default_buckets();
        h.observe(0.125);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.125, "q={q}");
        }
        assert_eq!(h.sum(), 0.125);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = FixedHistogram::default_buckets();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn overflow_rank_interpolates_within_observed_range() {
        // Every sample lands above the top declared bound, so every rank —
        // not just q=1 — resolves in the implicit overflow bucket. The
        // estimate must interpolate between the observed min and max, never
        // from the stale last bound (which would report e.g. p50 = 155 for
        // bounds [1, 10] and samples {100, 200, 300}).
        let mut h = FixedHistogram::with_bounds(vec![1.0, 10.0]);
        for v in [100.0, 200.0, 300.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 100.0);
        assert_eq!(h.quantile(0.5), 200.0); // 100 + (300-100) * (1.5/3)
        assert_eq!(h.quantile(1.0), 300.0);
        for q in [0.25, 0.9, 0.99, 0.999] {
            let est = h.quantile(q);
            assert!(
                (100.0..=300.0).contains(&est),
                "q={q} escaped the observed range: {est}"
            );
        }
        // A single overflow sample is exact at every percentile.
        let mut one = FixedHistogram::with_bounds(vec![1.0]);
        one.observe(5e7);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(one.quantile(q), 5e7, "q={q}");
        }
    }

    #[test]
    fn overflow_bucket_catches_large_values() {
        let mut h = FixedHistogram::with_bounds(vec![1.0, 10.0]);
        h.observe(1e6);
        h.observe(0.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e6);
        assert_eq!(h.quantile(1.0), 1e6);
    }

    #[test]
    fn export_is_sorted_and_flags_wall_metrics() {
        let mut r = MetricsRegistry::new();
        r.observe("wall/phase_secs/build_histogram", 0.2);
        r.counter_add("sim/requests", 1);
        r.observe("sim/ps_service_secs", 0.001);
        let exp = r.export();
        let names: Vec<&str> = exp.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "sim/ps_service_secs",
                "sim/requests",
                "wall/phase_secs/build_histogram"
            ]
        );
        assert!(exp[0].deterministic);
        assert!(exp[1].deterministic);
        assert!(!exp[2].deterministic);
        assert_eq!(exp[1].kind, "counter");
        assert_eq!(exp[0].kind, "histogram");
        assert_eq!(exp[0].count, 1);
    }

    #[test]
    fn determinism_same_observations_same_export() {
        let feed = |r: &mut MetricsRegistry| {
            for i in 0..50 {
                r.observe("sim/x", (i as f64) * 1e-4 + 1e-6);
                r.counter_add("sim/n", 1);
            }
            r.gauge_set("sim/g", 0.25);
        };
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a.export(), b.export());
    }
}
