//! The metrics registry: counters, gauges, log₂ histograms.
//!
//! Everything here is lock-free on the record path (relaxed atomics;
//! the registry's `RwLock` is only taken to look a metric up by name,
//! and hot call sites hold the returned `Arc` instead). Snapshots are
//! taken metric-by-metric without stopping writers, so a snapshot under
//! concurrent recording is a consistent-enough point-in-time view: each
//! histogram's count is derived from its bucket array, never from a
//! second counter that could disagree with it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Number of histogram buckets: one per power-of-two magnitude of a
/// `u64` value, plus bucket 0 for the value 0 itself.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for 0, otherwise `⌊log₂ v⌋ + 1` — so
/// bucket `i ≥ 1` holds the half-open magnitude class `[2^(i-1), 2^i)`.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold (the `le` bound of the
/// exposition format): 0, 1, 3, 7, …, `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (current level of something: requests in flight,
/// resident cache entries).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` observations (latencies in
/// microseconds, pivot counts). 65 buckets cover the full `u64` range,
/// so recording never clamps; the observation sum saturates at
/// `u64::MAX` instead of wrapping.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum())
            .finish()
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating add: a CAS loop, but contention is per-metric and
        // the histograms record phases that each cost far more than one
        // retry ever will.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Total observations (derived from the buckets, so it is always
    /// consistent with the per-bucket counts a quantile walks).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        HistogramSnapshot::from_buckets(counts.enumerate(), self.sum())
    }
}

/// A log₂-bucketed distribution as a plain value: what
/// [`Histogram::snapshot`] returns, what a span file's phase durations
/// accumulate into, and what consumers merge across workers and diff
/// across probes. The count and every quantile are derived from the
/// buckets, so a merged or differenced value never carries a stale
/// summary (quantiles do not compose across workers; bucket counts
/// do). The sum and every bucket count saturate instead of wrapping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    sum: u64,
    /// `(bucket index, observations)` pairs: nonzero counts only,
    /// indices below [`BUCKETS`], strictly increasing.
    buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// A distribution from `(bucket index, observations)` pairs in any
    /// order: repeated indices add up, and zero counts and indices
    /// outside `0..BUCKETS` are dropped.
    pub fn from_buckets(
        pairs: impl IntoIterator<Item = (usize, u64)>,
        sum: u64,
    ) -> HistogramSnapshot {
        let mut dense = [0u64; BUCKETS];
        for (i, n) in pairs {
            if let Some(slot) = dense.get_mut(i) {
                *slot = slot.saturating_add(n);
            }
        }
        let buckets = dense.into_iter().enumerate().filter(|&(_, n)| n > 0);
        HistogramSnapshot {
            sum,
            buckets: buckets.collect(),
        }
    }

    /// Total observations (saturating).
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |total, &(_, n)| total.saturating_add(n))
    }

    /// Sum of the observations (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `(bucket index, observations)` pairs, nonzero buckets only, in
    /// index order (non-cumulative; the exposition renderer cumulates).
    pub fn buckets(&self) -> &[(usize, u64)] {
        &self.buckets
    }

    /// The `p`-th percentile: the upper bound of the bucket holding the
    /// rank-`⌈count·p/100⌉` observation (an upper estimate, exact for
    /// values that are bucket bounds); 0 for an empty distribution.
    pub fn quantile(&self, p: u64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count as u128 * p as u128).div_ceil(100) as u64).max(1);
        let mut cumulative = 0u64;
        for &(i, n) in &self.buckets {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let i = bucket_index(v);
        match self.buckets.binary_search_by_key(&i, |&(b, _)| b) {
            Ok(k) => self.buckets[k].1 = self.buckets[k].1.saturating_add(1),
            Err(k) => self.buckets.insert(k, (i, 1)),
        }
        self.sum = self.sum.saturating_add(v);
    }

    /// Adds `other`'s observations bucket by bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let pairs = self.buckets.iter().chain(&other.buckets).copied();
        *self = HistogramSnapshot::from_buckets(pairs, self.sum.saturating_add(other.sum));
    }

    /// The observations recorded since `before` was taken: the
    /// per-bucket difference, saturating at 0 so that a smaller `self`
    /// (the recording process restarted in between) cannot wrap.
    pub fn since(&self, before: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = [0u64; BUCKETS];
        for &(i, n) in &self.buckets {
            dense[i] = n;
        }
        for &(i, n) in &before.buckets {
            dense[i] = dense[i].saturating_sub(n);
        }
        let sum = self.sum.saturating_sub(before.sum);
        HistogramSnapshot::from_buckets(dense.into_iter().enumerate(), sum)
    }
}

/// Point-in-time view of a whole [`Metrics`] registry, name-sorted
/// (the registry stores metrics in `BTreeMap`s, so iteration order —
/// and therefore every rendering — is deterministic).
///
/// Snapshots of several processes [`merge`](MetricsSnapshot::merge)
/// into one, and two snapshots of one process diff into the window
/// between them with [`since`](MetricsSnapshot::since): counters and
/// histograms add and subtract saturating (never below 0), gauges add
/// and subtract as signed levels.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// Adds `other` metric by metric; names only one side has keep
    /// their value, and the result stays name-sorted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_named(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b)
        });
        merge_named(&mut self.gauges, &other.gauges, |a, b| {
            *a = a.saturating_add(*b)
        });
        merge_named(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// What happened between `before` and `self`, metric by metric over
    /// `self`'s names (a name `before` lacks is new, so its whole value
    /// counts). Counters and histograms saturate at 0, as
    /// [`HistogramSnapshot::since`] does.
    pub fn since(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: since_named(&self.counters, &before.counters, |a, b| {
                a.saturating_sub(*b)
            }),
            gauges: since_named(&self.gauges, &before.gauges, |a, b| a.saturating_sub(*b)),
            histograms: since_named(&self.histograms, &before.histograms, |a, b| a.since(b)),
        }
    }
}

fn lookup<'a, T>(named: &'a [(String, T)], name: &str) -> Option<&'a T> {
    named.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn merge_named<T: Clone>(
    mine: &mut Vec<(String, T)>,
    theirs: &[(String, T)],
    add: impl Fn(&mut T, &T),
) {
    for (name, value) in theirs {
        match mine.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => add(v, value),
            None => mine.push((name.clone(), value.clone())),
        }
    }
    mine.sort_by(|a, b| a.0.cmp(&b.0));
}

fn since_named<T: Clone>(
    after: &[(String, T)],
    before: &[(String, T)],
    sub: impl Fn(&T, &T) -> T,
) -> Vec<(String, T)> {
    let delta = |(name, v): &(String, T)| lookup(before, name).map_or(v.clone(), |old| sub(v, old));
    after.iter().map(|e| (e.0.clone(), delta(e))).collect()
}

/// A named registry of counters, gauges and histograms.
///
/// `Sync` and cheap to record into from any thread. Layers hold the
/// `Arc` a lookup returns when the call site is hot (cache shard
/// lookups); colder sites (session phases) look up by name each time —
/// a read-lock and a `BTreeMap` probe, no allocation on the hit path.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide registry every wired layer records into.
static GLOBAL: OnceLock<Metrics> = OnceLock::new();

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("metrics lock").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("metrics lock");
    Arc::clone(w.entry(name.to_owned()).or_default())
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The process-wide registry (created on first use).
    pub fn global() -> &'static Metrics {
        GLOBAL.get_or_init(Metrics::default)
    }

    /// The counter registered under `name` (registering it if new).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge registered under `name` (registering it if new).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram registered under `name` (registering it if new).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Name-sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    /// Every power of two opens a fresh bucket: `2^k - 1` and `2^k`
    /// always land apart, and each bucket's bound is its own maximum.
    #[test]
    fn bucket_boundaries_are_exact() {
        for k in 1..64u32 {
            let boundary = 1u64 << k;
            assert_eq!(
                bucket_index(boundary - 1) + 1,
                bucket_index(boundary),
                "2^{k}"
            );
            assert_eq!(bucket_upper_bound(bucket_index(boundary) - 1), boundary - 1);
        }
        // A value equal to a bucket's upper bound stays in that bucket,
        // so its percentile estimate is exact.
        let h = Histogram::default();
        h.observe(255);
        assert_eq!(h.snapshot().quantile(50), 255);
    }

    #[test]
    fn zero_observations_summarize_to_zero() {
        let h = Histogram::default();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.sum(), 0);
        assert_eq!(
            (snap.quantile(50), snap.quantile(95), snap.quantile(99)),
            (0, 0, 0)
        );
        assert!(snap.buckets().is_empty());
    }

    #[test]
    fn single_observation_is_every_percentile() {
        let h = Histogram::default();
        h.observe(300);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.sum(), 300);
        // 300 ∈ [256, 512): the summary reports the bucket bound.
        assert_eq!(
            (snap.quantile(50), snap.quantile(95), snap.quantile(99)),
            (511, 511, 511)
        );
        assert_eq!(snap.buckets(), vec![(bucket_index(300), 1)]);
    }

    #[test]
    fn u64_max_scale_values_saturate_the_sum() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(snap.quantile(99), u64::MAX);
        assert_eq!(snap.buckets(), vec![(64, 2)]);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let h = Histogram::default();
        // 90 small observations, 10 large: p50 small, p95/p99 large.
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(100_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.quantile(50), bucket_upper_bound(bucket_index(10)));
        assert_eq!(snap.quantile(95), bucket_upper_bound(bucket_index(100_000)));
        assert_eq!(snap.quantile(99), snap.quantile(95));
    }

    #[test]
    fn zero_values_count_in_bucket_zero() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(0);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum(), 0);
        assert_eq!(snap.quantile(50), 0);
        assert_eq!(snap.buckets(), vec![(0, 2)]);
    }

    #[test]
    fn registry_reuses_and_sorts_names() {
        let m = Metrics::new();
        m.counter("b_total").add(2);
        m.counter("a_total").inc();
        m.counter("b_total").inc();
        m.gauge("depth").set(7);
        m.histogram("lat_micros").observe(5);
        let snap = m.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".to_owned(), 1), ("b_total".to_owned(), 3)]
        );
        assert_eq!(snap.gauges, vec![("depth".to_owned(), 7)]);
        assert_eq!(snap.histograms[0].0, "lat_micros");
        assert_eq!(snap.histograms[0].1.count(), 1);
    }

    #[test]
    fn gauges_go_both_ways() {
        let g = Gauge::default();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec();
        assert_eq!(g.get(), -1);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    /// The concurrency contract: however N threads interleave their
    /// observations, the final count and sum are exact — the histogram
    /// loses nothing and double-counts nothing.
    #[test]
    fn concurrent_recording_is_exact() {
        let h = std::sync::Arc::new(Histogram::default());
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.observe(t * per_thread + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 8 * per_thread);
        let expected: u64 = (0..8 * per_thread).sum();
        assert_eq!(snap.sum(), expected);
    }

    /// A snapshot value records exactly what the live histogram does.
    #[test]
    fn value_observe_matches_the_live_histogram() {
        let live = Histogram::default();
        let mut value = HistogramSnapshot::default();
        for v in [300, 0, 7, 300, u64::MAX, 1 << 40, 6] {
            live.observe(v);
            value.observe(v);
        }
        assert_eq!(value, live.snapshot());
    }

    #[test]
    fn merge_adds_bucketwise_and_since_subtracts_saturating() {
        let mut a = HistogramSnapshot::from_buckets([(7, 10)], 1000);
        let b = HistogramSnapshot::from_buckets([(8, 1), (7, 3)], 500);
        a.merge(&b);
        assert_eq!(a.buckets(), [(7, 13), (8, 1)]);
        assert_eq!((a.count(), a.sum()), (14, 1500));
        assert_eq!(
            a.since(&HistogramSnapshot::from_buckets([(7, 10)], 1000)),
            b
        );
        // A restarted process (smaller "after") saturates to empty.
        assert_eq!(b.since(&a), HistogramSnapshot::default());
        // Counts and the sum saturate instead of wrapping.
        let big = HistogramSnapshot::from_buckets([(64, u64::MAX)], u64::MAX);
        let mut twice = big.clone();
        twice.merge(&big);
        assert_eq!(twice, big);
        assert_eq!(twice.quantile(50), u64::MAX);
    }

    #[test]
    fn from_buckets_normalizes_its_pairs() {
        let h = HistogramSnapshot::from_buckets([(9, 2), (3, 0), (BUCKETS, 5), (2, 1), (9, 1)], 4);
        assert_eq!(h.buckets(), [(2, 1), (9, 3)]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn registry_snapshots_merge_and_diff_by_name() {
        let m = Metrics::new();
        m.counter("requests_total").add(10);
        m.gauge("depth").set(3);
        m.histogram("lat_micros").observe(100);
        let before = m.snapshot();
        m.counter("requests_total").add(4);
        m.counter("errors_total").inc();
        m.histogram("lat_micros").observe(200);
        let after = m.snapshot();

        let delta = after.since(&before);
        assert_eq!(delta.counter("requests_total"), Some(4));
        assert_eq!(
            delta.counter("errors_total"),
            Some(1),
            "new names count whole"
        );
        assert_eq!(delta.gauges, vec![("depth".to_owned(), 0)]);
        let lat = delta.histogram("lat_micros").expect("histogram");
        assert_eq!((lat.count(), lat.sum()), (1, 200));
        assert_eq!(delta.counter("absent"), None);

        let mut merged = before.clone();
        merged.merge(&delta);
        assert_eq!(merged, after);
        let mut other = MetricsSnapshot::default();
        other.counters.push(("a_total".to_owned(), 1));
        merged.merge(&other);
        assert_eq!(merged.counters[0], ("a_total".to_owned(), 1), "name-sorted");
    }
}
