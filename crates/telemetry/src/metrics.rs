//! The metrics registry.
//!
//! Every Persona subsystem publishes into one [`MetricsRegistry`]
//! owned by the runtime: the executor (queue depth per priority lane,
//! task latency), the manifest server (queue occupancy), the
//! fair-share scheduler (admission wait, per-tenant in-flight), the
//! write-ahead journal (append/fsync latency per policy) and the wire
//! front end (frame decode latency, bytes in/out, in-flight seqs).
//! `docs/OBSERVABILITY.md` is the metric name catalog.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are registered once
//! per site, stage run or admission event and publish through plain
//! atomics — no lock is taken on a hot path. The registry's name → cell
//! map sits behind one lock, which only registration and
//! [`MetricsRegistry::snapshot`] take. A registry-wide enable flag
//! turns every handle into a no-op store-free read, which is how the
//! fused bench measures the cost of telemetry itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{field, DeError, Deserialize, Serialize, Value};

/// Log₂ latency buckets per histogram: bucket `b > 0` holds values in
/// `[2^(b-1), 2^b)` nanoseconds, bucket 0 holds zero. 64 buckets cover
/// every representable `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket index covering `v`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// The (inclusive) upper bound a bucket reports for percentiles.
fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b.min(63)
    }
}

#[derive(Default)]
struct CounterCell {
    v: AtomicU64,
}

#[derive(Default)]
struct GaugeCell {
    v: AtomicI64,
}

struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A monotonically increasing count (events, bytes, tasks).
#[derive(Clone)]
pub struct Counter {
    cell: Arc<CounterCell>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.cell.v.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (queue depth, in-flight work).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Adds `n` (which may be negative).
    pub fn add(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Sets the gauge to `n`.
    pub fn set(&self, n: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.v.store(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.cell.v.load(Ordering::Relaxed)
    }
}

/// A log-bucketed latency distribution (nanosecond observations).
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    /// Records one observation (nanoseconds by catalog convention).
    pub fn observe(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.count.fetch_add(1, Ordering::Relaxed);
            self.cell.sum.fetch_add(v, Ordering::Relaxed);
            self.cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a duration as nanoseconds (saturating past ~584 years).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Snapshot of this one histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::of(&self.cell)
    }
}

enum Metric {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The name → metric map every subsystem publishes into.
///
/// One registry is created per [`persona runtime`](self) (the executor
/// owns the construction path) and shared by `Arc` into every
/// instrumented component. Handle registration is get-or-create: two
/// sites asking for the same name share one cell, which is how e.g.
/// several streaming manifest servers aggregate into one occupancy
/// gauge.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Turns publishing on or off registry-wide. Disabled handles are a
    /// single relaxed load per call; existing values are kept (snapshot
    /// still reads them).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Gets or registers the counter `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind —
    /// the name catalog is fixed (see `docs/OBSERVABILITY.md`), so a
    /// kind collision is a programming error, not runtime input.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCell::default())));
        match metric {
            Metric::Counter(cell) => Counter { cell: cell.clone(), enabled: self.enabled.clone() },
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Gets or registers the gauge `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(GaugeCell::default())));
        match metric {
            Metric::Gauge(cell) => Gauge { cell: cell.clone(), enabled: self.enabled.clone() },
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Gets or registers the histogram `name`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCell::default())));
        match metric {
            Metric::Histogram(cell) => {
                Histogram { cell: cell.clone(), enabled: self.enabled.clone() }
            }
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every metric, sorted by name within each
    /// kind. Values are read with relaxed atomics while publishers keep
    /// running, so a snapshot is per-metric consistent, not globally
    /// atomic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in self.metrics.lock().iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.push((name.clone(), c.v.load(Ordering::Relaxed)));
                }
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.v.load(Ordering::Relaxed))),
                Metric::Histogram(h) => {
                    snap.histograms.push((name.clone(), HistogramSnapshot::of(h)));
                }
            }
        }
        snap
    }
}

/// One histogram's state at snapshot time. Buckets are sparse
/// `(bucket index, count)` pairs, ascending by index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    fn of(cell: &HistogramCell) -> HistogramSnapshot {
        let buckets = cell
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: cell.count.load(Ordering::Relaxed),
            sum: cell.sum.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket where the cumulative count crosses `q * count`. 0 for an
    /// empty histogram. Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(bucket, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_bound(bucket as usize);
            }
        }
        bucket_bound(self.buckets.last().map(|&(b, _)| b as usize).unwrap_or(0))
    }

    /// Median (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the raw observations (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

/// A mergeable point-in-time copy of a whole registry: what
/// `metrics-reply` carries over the wire and what `persona-cli stats`
/// renders. Entries are sorted by name within each kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Folds `other` into `self`: counters and gauges add (a gauge is
    /// an instantaneous level, so summing aggregates levels across
    /// e.g. several nodes), histograms merge bucket-wise. Output stays
    /// name-sorted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.gauges[i].1 += v,
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }
}

// Hand-written because buckets travel as `[index, count]` pairs.
impl Serialize for HistogramSnapshot {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("count".into(), self.count.serialize()),
            ("sum".into(), self.sum.serialize()),
            (
                "buckets".into(),
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Value::Array(vec![i.serialize(), n.serialize()]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for HistogramSnapshot {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let raw: Vec<Vec<u64>> = field::required(v, "buckets")?;
        let mut buckets = Vec::with_capacity(raw.len());
        for pair in raw {
            match pair.as_slice() {
                &[i, n] if i < HISTOGRAM_BUCKETS as u64 => buckets.push((i as u32, n)),
                _ => return Err(DeError::new("histogram bucket is not a valid [index, count]")),
            }
        }
        Ok(HistogramSnapshot {
            count: field::required(v, "count")?,
            sum: field::required(v, "sum")?,
            buckets,
        })
    }
}

/// Serializes `(name, value)` rows as one JSON object.
fn named_object<T: Serialize>(rows: &[(String, T)]) -> Value {
    Value::Object(rows.iter().map(|(n, v)| (n.clone(), v.serialize())).collect())
}

/// Deserializes a JSON object into `(name, value)` rows.
fn named_rows<T: Deserialize>(v: &Value, key: &str) -> Result<Vec<(String, T)>, DeError> {
    match v.get(key) {
        Some(Value::Object(fields)) => fields
            .iter()
            .map(|(n, f)| {
                T::deserialize(f)
                    .map(|t| (n.clone(), t))
                    .map_err(|e| DeError::new(format!("{key}.{n}: {e}")))
            })
            .collect(),
        Some(_) => Err(DeError::new(format!("field `{key}` must be an object"))),
        None => Err(DeError::new(format!("missing field `{key}`"))),
    }
}

// Hand-written because each section is an object of `name: value` rows.
impl Serialize for MetricsSnapshot {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("counters".into(), named_object(&self.counters)),
            ("gauges".into(), named_object(&self.gauges)),
            ("histograms".into(), named_object(&self.histograms)),
        ])
    }
}

impl Deserialize for MetricsSnapshot {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(MetricsSnapshot {
            counters: named_rows(v, "counters")?,
            gauges: named_rows(v, "gauges")?,
            histograms: named_rows(v, "histograms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Same name → same cell.
        assert_eq!(reg.counter("c").value(), 5);

        let g = reg.gauge("g");
        g.add(3);
        g.sub(1);
        assert_eq!(g.value(), 2);
        g.set(-7);
        assert_eq!(g.value(), -7);

        let h = reg.histogram("h");
        for v in [1u64, 2, 3, 1000, 1_000_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1_001_006);
        assert!(snap.p50() <= snap.p95() && snap.p95() <= snap.p99());
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_collision_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn disabled_registry_drops_updates_but_keeps_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        reg.set_enabled(false);
        c.add(100);
        reg.gauge("g").add(5);
        reg.histogram("h").observe(1);
        assert_eq!(c.value(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(1));
        assert_eq!(snap.gauge("g"), Some(0));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn quantiles_upper_bound_their_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for _ in 0..99 {
            h.observe(100); // bucket 7: [64, 128)
        }
        h.observe(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50(), 128);
        assert_eq!(s.p95(), 128);
        // The p99 rank (ceil(0.99 * 100) = 99) still lands in the
        // low bucket; p100 would cross into the outlier's.
        assert_eq!(s.p99(), 128);
        assert_eq!(s.quantile(1.0), 1 << 20);
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn snapshot_sorted_and_mergeable() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        reg.gauge("z").add(4);
        reg.histogram("m").observe(10);
        let mut snap = reg.snapshot();
        assert_eq!(
            snap.counters.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );

        let reg2 = MetricsRegistry::new();
        reg2.counter("a").add(10);
        reg2.counter("c").add(1);
        reg2.gauge("z").add(1);
        reg2.histogram("m").observe(20);
        snap.merge(&reg2.snapshot());
        assert_eq!(snap.counter("a"), Some(11));
        assert_eq!(snap.counter("b"), Some(2));
        assert_eq!(snap.counter("c"), Some(1));
        assert_eq!(snap.gauge("z"), Some(5));
        let m = snap.histogram("m").unwrap();
        assert_eq!(m.count, 2);
        assert_eq!(m.sum, 30);
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("wire.bytes_in").add(123);
        reg.gauge("executor.queue_depth.high").add(-2);
        let h = reg.histogram("executor.task_latency_ns");
        for v in [5u64, 50, 500, 5_000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back = MetricsSnapshot::deserialize(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }
}
