//! Per-node protocol metrics.
//!
//! A [`MetricRegistry`] holds named monotonic counters, point-in-time
//! gauges, and fixed-size log-bucket latency histograms
//! ([`LatencyHistogram`]), so a long-running node's telemetry takes the
//! same memory after a million samples as after one. It has no
//! dependencies and no background machinery: protocol code bumps
//! counters inline, and callers take a [`MetricsSnapshot`] when they
//! want to read or print the numbers. Benchmarks that report exact
//! quantiles keep their samples in [`crate::stats::Histogram`] instead.
//!
//! [`Observability`] bundles a registry with a bounded
//! [`crate::trace::TraceLog`]; its [`record`](Observability::record)
//! method appends a trace event *and* bumps the matching `ev.<kind>`
//! counter, so aggregate event counts stay exact even after the trace
//! ring has dropped old records.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceLog};

/// Named counters, gauges, and latency histograms for one node.
///
/// Names are dotted paths by convention: a component prefix, then the
/// measure (`"gcs.msgs_sent"`, `"inv.calls_issued"`, `"ev.rebind"`).
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    latencies: BTreeMap<String, LatencyHistogram>,
}

/// Sub-buckets per power of two. A bucket spans at most 1/16 of its
/// lower bound, so a reported quantile is within about 6 % of the exact
/// sample.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// The largest power of two with buckets of its own: samples from
/// 2^41 ns (about 37 minutes) up share the top bucket.
const MAX_EXP: u32 = 40;
/// One linear group below `SUB`, then `SUB` buckets per power of two.
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS;

/// A latency histogram of fixed size: log-scale buckets, HDR style.
///
/// Memory is constant whatever the number of samples, recording is
/// O(1), and two histograms merge by adding bucket counts. The count,
/// mean and maximum are exact; quantiles are exact to one bucket (see
/// [`Self::quantile`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }
}

/// The bucket holding a sample of `nanos`.
fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB {
        return nanos as usize;
    }
    let exp = nanos.ilog2();
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    let mantissa = (nanos >> shift) - SUB;
    (((shift + 1) as usize) << SUB_BITS) + mantissa as usize
}

/// The smallest sample bucket `idx` holds, and the bucket's width.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    let mantissa = idx & (SUB - 1);
    ((SUB + mantissa) << shift, 1 << shift)
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        if let Some(b) = self.buckets.get_mut(bucket_of(nanos)) {
            *b += 1;
        }
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.count).unwrap_or(usize::MAX)
    }

    /// True if no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean sample; zero when empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        match self.sum_nanos.checked_div(u128::from(self.count)) {
            Some(mean) => Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX)),
            None => Duration::ZERO,
        }
    }

    /// The `q`-quantile (clamped to 0.0..=1.0) by nearest rank, like
    /// [`crate::stats::Histogram::quantile`], but reported as the middle
    /// of the bucket that holds that sample (kept within the exact
    /// minimum and maximum); zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (low, width) = bucket_bounds(idx);
                let mid = low.saturating_add(width / 2);
                return Duration::from_nanos(mid.clamp(self.min_nanos, self.max_nanos));
            }
        }
        self.max()
    }

    /// Exact largest sample; zero when empty.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Adds `other`'s samples to this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

impl MetricRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first (so
    /// even a zero-delta add materialises the counter in snapshots).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The named counter's value (zero when never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The named gauge's value, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records one latency sample into the named histogram. Only the
    /// first sample of a name allocates (its key and buckets).
    pub fn record_latency(&mut self, name: &str, sample: Duration) {
        if let Some(h) = self.latencies.get_mut(name) {
            h.record(sample);
        } else {
            let mut h = LatencyHistogram::new();
            h.record(sample);
            self.latencies.insert(name.to_string(), h);
        }
    }

    /// The named latency histogram, if any samples were recorded.
    #[must_use]
    pub fn latency(&self, name: &str) -> Option<&LatencyHistogram> {
        self.latencies.get(name)
    }

    /// Iterates all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histograms add their bucket counts.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.latencies {
            self.latencies.entry(name.clone()).or_default().merge(h);
        }
    }

    /// A point-in-time copy suitable for printing or asserting against.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            latencies: self
                .latencies
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        LatencySummary {
                            count: h.len(),
                            mean: h.mean(),
                            p50: h.quantile(0.50),
                            p99: h.quantile(0.99),
                            max: h.max(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Five-number summary of one latency histogram in a snapshot. All
/// durations are zero when the histogram held no samples; `p50` and
/// `p99` are exact to one bucket (see [`LatencyHistogram::quantile`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: usize,
    /// Mean sample.
    pub mean: Duration,
    /// Median sample.
    pub p50: Duration,
    /// 99th-percentile sample.
    pub p99: Duration,
    /// Largest sample.
    pub max: Duration,
}

/// A point-in-time copy of a [`MetricRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency summaries by name.
    pub latencies: BTreeMap<String, LatencySummary>,
}

impl MetricsSnapshot {
    /// The named counter's value (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sums all counters whose name starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

fn fmt_dur(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1e3)
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name:<36} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<36} {v} (gauge)")?;
        }
        for (name, l) in &self.latencies {
            writeln!(
                f,
                "{name:<36} n={} mean={} p50={} p99={} max={}",
                l.count,
                fmt_dur(l.mean),
                fmt_dur(l.p50),
                fmt_dur(l.p99),
                fmt_dur(l.max),
            )?;
        }
        Ok(())
    }
}

/// A metric registry plus a trace log, recorded together.
#[derive(Clone, Debug, Default)]
pub struct Observability {
    /// Counters, gauges, latency histograms.
    pub metrics: MetricRegistry,
    /// Bounded ring of typed protocol events.
    pub trace: TraceLog,
}

impl Observability {
    /// Empty metrics and a default-capacity trace ring.
    #[must_use]
    pub fn new() -> Self {
        Observability::default()
    }

    /// Appends `event` to the trace and bumps its `ev.<kind>` counter.
    ///
    /// The counter is exact for the node's lifetime; the trace ring may
    /// drop old records under sustained load.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        self.metrics.incr(event.counter());
        self.trace.record(at, event);
    }

    /// Like [`Self::record`], but appends to `ring` — another owner's
    /// trace — instead of this registry's own, so a node keeps one ring
    /// for all its layers while each layer keeps its own counters.
    pub fn record_into(&mut self, ring: &mut TraceLog, at: SimTime, event: TraceEvent) {
        self.metrics.incr(event.counter());
        ring.record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::NodeId;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricRegistry::new();
        m.incr("a.x");
        m.add("a.x", 4);
        m.add("a.y", 0);
        m.set_gauge("g", -3);
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("a.y"), 0);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("g"), Some(-3));
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.x"), 5);
        assert_eq!(snap.counter_sum("a."), 5);
        assert!(snap.counters.contains_key("a.y"));
    }

    #[test]
    fn latency_summary() {
        let mut m = MetricRegistry::new();
        for ms in [1u64, 2, 3, 4] {
            m.record_latency("inv.latency", Duration::from_millis(ms));
        }
        let snap = m.snapshot();
        let l = snap.latencies.get("inv.latency").unwrap();
        assert_eq!(l.count, 4);
        assert_eq!(l.max, Duration::from_millis(4));
        assert!(l.mean >= Duration::from_millis(2));
        assert!(snap.to_string().contains("inv.latency"));
    }

    #[test]
    fn merge_adds_counters_and_samples() {
        let mut a = MetricRegistry::new();
        a.add("c", 2);
        a.record_latency("l", Duration::from_millis(1));
        let mut b = MetricRegistry::new();
        b.add("c", 3);
        b.add("only_b", 1);
        b.record_latency("l", Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.latency("l").unwrap().len(), 2);
    }

    #[test]
    fn histogram_memory_stays_flat_over_a_million_samples() {
        let mut m = MetricRegistry::new();
        m.record_latency("l", Duration::from_micros(1));
        let heap = |m: &MetricRegistry| std::mem::size_of_val(&*m.latency("l").unwrap().buckets);
        let one = heap(&m);
        for i in 0..1_000_000u64 {
            m.record_latency("l", Duration::from_nanos(i * 7919 % 50_000_000));
        }
        let h = m.latency("l").unwrap();
        assert_eq!(h.len(), 1_000_001);
        assert_eq!(heap(&m), one);
        assert!(one <= 8 * 1024, "{one} bytes per histogram");
    }

    #[test]
    fn histogram_merge_adds() {
        let samples = |range: std::ops::Range<u64>| {
            let mut h = LatencyHistogram::new();
            for us in range {
                h.record(Duration::from_micros(us));
            }
            h
        };
        let mut a = samples(1..101);
        let b = samples(101..301);
        a.merge(&b);
        assert_eq!(a, samples(1..301));
        assert_eq!(a.len(), 300);
        assert_eq!(a.max(), Duration::from_micros(300));
        assert_eq!(a.mean(), Duration::from_nanos(150_500));
    }

    #[test]
    fn histogram_quantiles_land_within_one_bucket_of_exact() {
        let mut exact = crate::stats::Histogram::new();
        let mut h = LatencyHistogram::new();
        // A skewed spread from 1 µs to about 60 ms, like call latencies.
        let mut x: u64 = 12345;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let nanos = 1_000 + (x >> 40) % 1_000_000 * (1 + (x >> 20) % 60);
            exact.record(Duration::from_nanos(nanos));
            h.record(Duration::from_nanos(nanos));
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let want = exact.quantile(q).as_nanos() as u64;
            let got = h.quantile(q).as_nanos() as u64;
            let (bw, bg) = (bucket_of(want), bucket_of(got));
            assert!(bw.abs_diff(bg) <= 1, "q={q}: exact {want} ns, got {got} ns");
        }
        assert_eq!(h.max(), exact.max());
        assert_eq!(h.mean(), exact.mean());
    }

    #[test]
    fn buckets_cover_the_range_in_order() {
        let mut last = 0;
        for nanos in [0, 1, 15, 16, 17, 31, 32, 1_000, 1 << 30, 1 << 40, u64::MAX] {
            let idx = bucket_of(nanos);
            assert!(idx >= last && idx < BUCKETS, "{nanos} -> {idx}");
            let (low, width) = bucket_bounds(idx);
            assert!(low <= nanos, "{nanos} below its bucket {idx}");
            if idx < BUCKETS - 1 {
                assert!(nanos - low < width, "{nanos} above its bucket {idx}");
            }
            last = idx;
        }
    }

    #[test]
    fn record_bumps_event_counter() {
        let mut obs = Observability::new();
        for _ in 0..3 {
            obs.record(
                SimTime::from_millis(1),
                TraceEvent::Suspected {
                    group: "g".into(),
                    suspect: NodeId::from_index(1),
                },
            );
        }
        assert_eq!(obs.metrics.counter("ev.suspected"), 3);
        assert_eq!(obs.trace.count_kind("suspected"), 3);
    }
}
