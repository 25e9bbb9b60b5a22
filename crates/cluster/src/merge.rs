//! [`ReportMerger`]: input-ordered report sink plus summed statistics.
//!
//! Workers finish shards in whatever order the network decides; the
//! merger is the deterministic end of the pipeline. Per-query reports
//! land in their original input slot (so `cq-cluster` output lines up
//! 1:1 with `cq-analyze` batch output), and the per-worker counters
//! sum into cluster totals.
//!
//! The soundness argument for summing is the same canonical-key purity
//! the cache rests on: a worker's report depends only on its query (and
//! its cache can only substitute bit-equal LP *values*), never on which
//! worker ran it or what else that worker analyzed — so reports merge
//! by position and counters merge by addition, with no cross-worker
//! reconciliation step.

use cq_engine::{CacheStats, Json, LpWork};
use cq_telemetry::{quantile_from_buckets, BUCKETS};

/// Collects per-query reports into their original input positions.
#[derive(Debug)]
pub struct ReportMerger {
    slots: Vec<Option<Json>>,
}

impl ReportMerger {
    /// A merger expecting `n` reports.
    pub fn new(n: usize) -> ReportMerger {
        ReportMerger {
            slots: (0..n).map(|_| None).collect(),
        }
    }

    /// Files the report for input `i`. Double delivery (a resubmitted
    /// chunk whose first run partially completed) keeps the first copy:
    /// analyses are deterministic, so both copies agree anyway.
    pub fn insert(&mut self, i: usize, report: Json) -> bool {
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some(report);
            true
        } else {
            false
        }
    }

    /// Input indices still missing a report.
    pub fn missing(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect()
    }

    /// All reports, in input order.
    ///
    /// # Panics
    /// Panics if any slot is still empty ([`ReportMerger::missing`]).
    pub fn into_reports(self) -> Vec<Json> {
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("no report for input {i}")))
            .collect()
    }
}

/// Cluster-summed solver work: the field-wise sum of every report's
/// `solver_stats` object (parse-error entries have none and contribute
/// zero; a key missing from an older report reads 0).
pub fn solver_totals(reports: &[Json]) -> LpWork {
    let mut totals = LpWork::default();
    for stats in reports.iter().filter_map(|r| r.get("solver_stats")) {
        totals.merge(&LpWork::from_fields(|name| counter(stats, name)));
    }
    totals
}

/// Cluster-summed decomposition-width accounting, aggregated from every
/// per-report `widths` object: how many reports carried an exact
/// hypertree width versus a greedy upper bound, and the largest width
/// seen either way (the workload's decomposition hardness at a glance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthTotals {
    /// Reports whose `hypertree_width` came from the exact search.
    pub hypertree_exact: u64,
    /// Reports whose `hypertree_width` is a greedy upper bound.
    pub hypertree_heuristic: u64,
    /// Largest `hypertree_width` across all reports.
    pub max_hypertree_width: u64,
    /// Largest `treewidth` across all reports.
    pub max_treewidth: u64,
}

impl WidthTotals {
    /// Sums the `widths` objects across reports (parse-error entries
    /// and pre-widths reports have none and contribute zero).
    pub fn from_reports(reports: &[Json]) -> WidthTotals {
        let mut totals = WidthTotals::default();
        for report in reports {
            let Some(widths) = report.get("widths") else {
                continue;
            };
            let field = |name: &str| {
                widths
                    .get(name)
                    .and_then(Json::as_i64)
                    .map_or(0, |n| n.max(0) as u64)
            };
            if widths.get("hypertree_exact") == Some(&Json::Bool(true)) {
                totals.hypertree_exact += 1;
            } else {
                totals.hypertree_heuristic += 1;
            }
            totals.max_hypertree_width = totals.max_hypertree_width.max(field("hypertree_width"));
            totals.max_treewidth = totals.max_treewidth.max(field("treewidth"));
        }
        totals
    }
}

/// Cluster-merged serve-side execution metrics: the per-worker delta of
/// the `metrics` command's `cq_serve_requests_total` counter and
/// `cq_serve_execute_micros` histogram over the run, merged bucket-wise
/// across workers. Because the daemon excludes `metrics` probes from
/// both series, the merged histogram count equals exactly the protocol
/// requests this run executed on the workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsTotals {
    /// `cq_serve_requests_total` delta summed across workers.
    pub requests: u64,
    /// `cq_serve_execute_micros` sum-of-observations delta.
    pub execute_sum: u64,
    /// Per-bucket observation deltas (log₂ buckets, index order).
    buckets: [u64; BUCKETS],
}

impl Default for MetricsTotals {
    fn default() -> MetricsTotals {
        MetricsTotals {
            requests: 0,
            execute_sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl MetricsTotals {
    /// Total `cq_serve_execute_micros` observations (derived from the
    /// merged buckets, so it always agrees with the quantiles).
    pub fn execute_count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-th percentile of the merged execute-latency
    /// distribution — merging bucket-wise is what makes cross-worker
    /// quantiles well-defined (summaries like p95 do not sum; bucket
    /// counts do).
    pub fn execute_quantile(&self, p: u64) -> u64 {
        let pairs: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, &n)| (n > 0).then_some((i, n)))
            .collect();
        quantile_from_buckets(&pairs, self.execute_count(), p)
    }

    /// Accumulates another worker's delta into the cluster totals.
    pub fn merge(&mut self, other: &MetricsTotals) {
        self.requests = self.requests.saturating_add(other.requests);
        self.execute_sum = self.execute_sum.saturating_add(other.execute_sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }
}

/// The requests/execute-histogram delta between two `metrics` response
/// bodies from the same daemon (the shape `cq-serve` returns for the
/// `metrics` command). Saturating per bucket, like
/// [`cache_stats_delta`]: a daemon restarted mid-run must not wrap.
pub fn metrics_delta(before: &Json, after: &Json) -> MetricsTotals {
    let counter = |m: &Json, name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_i64)
            .map_or(0, |n| n.max(0) as u64)
    };
    fn execute(m: &Json) -> Option<&Json> {
        m.get("histograms")
            .and_then(|h| h.get("cq_serve_execute_micros"))
    }
    let sum = |m: &Json| {
        execute(m)
            .and_then(|h| h.get("sum"))
            .and_then(Json::as_i64)
            .map_or(0, |n| n.max(0) as u64)
    };
    let buckets = |m: &Json| {
        let mut out = [0u64; BUCKETS];
        let pairs = execute(m)
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_array);
        for pair in pairs.into_iter().flatten() {
            let Some(pair) = pair.as_array() else {
                continue;
            };
            let (Some(i), Some(n)) = (
                pair.first().and_then(Json::as_usize),
                pair.get(1).and_then(Json::as_i64),
            ) else {
                continue;
            };
            if i < BUCKETS {
                out[i] = n.max(0) as u64;
            }
        }
        out
    };
    let before_buckets = buckets(before);
    let mut delta = MetricsTotals {
        requests: counter(after, "cq_serve_requests_total")
            .saturating_sub(counter(before, "cq_serve_requests_total")),
        execute_sum: sum(after).saturating_sub(sum(before)),
        buckets: buckets(after),
    };
    for (b, before_n) in delta.buckets.iter_mut().zip(before_buckets.iter()) {
        *b = b.saturating_sub(*before_n);
    }
    delta
}

/// The hit/miss/eviction delta between two `cache_stats` objects from
/// the same daemon (`entries` is taken from `after`: end-of-run
/// residency). Deltas keep a long-lived external daemon's history out
/// of this run's numbers. Saturating: a daemon restarted mid-run shows
/// a smaller `after`, which must not wrap into astronomical deltas.
pub fn cache_stats_delta(before: &Json, after: &Json) -> CacheStats {
    let delta = |name| counter(after, name).saturating_sub(counter(before, name));
    CacheStats {
        hits: delta("hits"),
        misses: delta("misses"),
        evictions: delta("evictions"),
        entries: counter(after, "entries"),
    }
}

/// The nonnegative integer at `obj[name]`; 0 when absent or negative.
fn counter(obj: &Json, name: &str) -> u64 {
    obj.get(name)
        .and_then(Json::as_i64)
        .map_or(0, |n| n.max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merger_orders_and_tracks_missing() {
        let mut m = ReportMerger::new(3);
        assert!(m.insert(2, Json::int(2)));
        assert_eq!(m.missing(), vec![0, 1]);
        assert!(m.insert(0, Json::int(0)));
        assert!(!m.insert(2, Json::int(99)), "first delivery wins");
        assert!(m.insert(1, Json::int(1)));
        assert!(m.missing().is_empty());
        assert_eq!(
            m.into_reports(),
            vec![Json::int(0), Json::int(1), Json::int(2)]
        );
    }

    #[test]
    fn solver_totals_skip_error_entries() {
        let report = Json::parse(
            r#"{"solver_stats":{"pivots":3,"refactorizations":1,"dense_solves":1,"sparse_solves":2,"hybrid_solves":1,"float_pivots":40,"float_verified":1,"exact_fallbacks":0}}"#,
        )
        .unwrap();
        // A report predating the hybrid keys sums as zero for them.
        let old = Json::parse(
            r#"{"solver_stats":{"pivots":1,"refactorizations":0,"dense_solves":1,"sparse_solves":0}}"#,
        )
        .unwrap();
        let error = Json::parse(r#"{"name":"bad","error":"parse error"}"#).unwrap();
        let totals = solver_totals(&[report.clone(), error, old, report]);
        assert_eq!(
            totals,
            LpWork {
                pivots: 7,
                refactorizations: 2,
                dense_solves: 3,
                sparse_solves: 4,
                hybrid_solves: 2,
                float_pivots: 80,
                float_verified: 2,
                exact_fallbacks: 0
            }
        );
    }

    #[test]
    fn width_totals_count_exact_and_heuristic_and_track_maxima() {
        let exact = Json::parse(
            r#"{"widths":{"treewidth":2,"treewidth_exact":true,"hypertree_width":2,"hypertree_exact":true}}"#,
        )
        .unwrap();
        let heuristic = Json::parse(
            r#"{"widths":{"treewidth":5,"treewidth_exact":false,"hypertree_width":3,"hypertree_exact":false}}"#,
        )
        .unwrap();
        // Parse errors and pre-widths reports contribute nothing.
        let error = Json::parse(r#"{"name":"bad","error":"parse error"}"#).unwrap();
        let old = Json::parse(r#"{"solver_stats":{"pivots":1}}"#).unwrap();
        let totals = WidthTotals::from_reports(&[exact.clone(), heuristic, error, old, exact]);
        assert_eq!(
            totals,
            WidthTotals {
                hypertree_exact: 2,
                hypertree_heuristic: 1,
                max_hypertree_width: 3,
                max_treewidth: 5
            }
        );
    }

    #[test]
    fn metrics_delta_subtracts_and_merges_bucketwise() {
        let before = Json::parse(
            r#"{"counters":{"cq_serve_requests_total":10},"gauges":{},"histograms":{"cq_serve_execute_micros":{"count":10,"sum":1000,"p50":127,"p95":127,"p99":127,"buckets":[[7,10]]}}}"#,
        )
        .unwrap();
        let after = Json::parse(
            r#"{"counters":{"cq_serve_requests_total":14},"gauges":{},"histograms":{"cq_serve_execute_micros":{"count":14,"sum":1500,"p50":127,"p95":255,"p99":255,"buckets":[[7,13],[8,1]]}}}"#,
        )
        .unwrap();
        let delta = metrics_delta(&before, &after);
        assert_eq!(delta.requests, 4);
        assert_eq!(delta.execute_count(), 4);
        assert_eq!(delta.execute_sum, 500);
        // Merging two workers' deltas sums bucket-wise, so quantiles of
        // the merged distribution stay well-defined.
        let mut totals = MetricsTotals::default();
        totals.merge(&delta);
        totals.merge(&delta);
        assert_eq!(totals.requests, 8);
        assert_eq!(totals.execute_count(), 8);
        assert_eq!(totals.execute_quantile(50), 127);
        assert_eq!(totals.execute_quantile(99), 255);
        // A restarted daemon (smaller "after") saturates to zero.
        assert_eq!(metrics_delta(&after, &before).requests, 0);
    }

    #[test]
    fn cache_delta_subtracts_history() {
        let before = Json::parse(r#"{"hits":100,"misses":40,"evictions":7,"entries":33}"#).unwrap();
        let after = Json::parse(r#"{"hits":150,"misses":42,"evictions":7,"entries":35}"#).unwrap();
        assert_eq!(
            cache_stats_delta(&before, &after),
            CacheStats {
                hits: 50,
                misses: 2,
                evictions: 0,
                entries: 35
            }
        );
        // restart mid-run: saturates instead of wrapping
        let restarted = Json::parse(r#"{"hits":1,"misses":1,"evictions":0,"entries":1}"#).unwrap();
        assert_eq!(cache_stats_delta(&before, &restarted).hits, 0);
    }
}
