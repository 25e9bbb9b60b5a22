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

use cq_engine::session::QueryWidths;
use cq_engine::{CacheStats, Json, LpWork, WidthTally};

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

/// Cluster-summed decomposition widths: every report's `widths`
/// object added into one tally (parse-error entries and pre-widths
/// reports have none and contribute nothing; a report is exact only
/// when its `hypertree_exact` is `true`).
pub fn width_totals(reports: &[Json]) -> WidthTally {
    let mut totals = WidthTally::default();
    for widths in reports.iter().filter_map(|r| r.get("widths")) {
        let width = |name| widths.get(name).and_then(Json::as_usize).unwrap_or(0);
        totals.add(&QueryWidths {
            treewidth: width("treewidth"),
            treewidth_exact: widths.get("treewidth_exact") == Some(&Json::Bool(true)),
            hypertree_width: width("hypertree_width"),
            hypertree_exact: widths.get("hypertree_exact") == Some(&Json::Bool(true)),
        });
    }
    totals
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
    use cq_engine::serve::metrics_from_json;
    use cq_telemetry::MetricsSnapshot;

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
        let totals = width_totals(&[exact.clone(), heuristic, error, old, exact]);
        assert_eq!(
            totals,
            WidthTally {
                hypertree_exact: 2,
                hypertree_heuristic: 1,
                max_hypertree_width: 3,
                max_treewidth: 5
            }
        );
    }

    #[test]
    fn metrics_delta_subtracts_and_merges_bucketwise() {
        let before = metrics_from_json(&Json::parse(
            r#"{"counters":{"cq_serve_requests_total":10},"gauges":{},"histograms":{"cq_serve_execute_micros":{"count":10,"sum":1000,"p50":127,"p95":127,"p99":127,"buckets":[[7,10]]}}}"#,
        )
        .unwrap());
        let after = metrics_from_json(&Json::parse(
            r#"{"counters":{"cq_serve_requests_total":14},"gauges":{},"histograms":{"cq_serve_execute_micros":{"count":14,"sum":1500,"p50":127,"p95":255,"p99":255,"buckets":[[7,13],[8,1]]}}}"#,
        )
        .unwrap());
        let requests = |m: &MetricsSnapshot| m.counter("cq_serve_requests_total");
        let execute = |m: &MetricsSnapshot| m.histogram("cq_serve_execute_micros").cloned();
        let delta = after.since(&before);
        assert_eq!(requests(&delta), Some(4));
        let delta_execute = execute(&delta).unwrap();
        assert_eq!(delta_execute.count(), 4);
        assert_eq!(delta_execute.sum(), 500);
        // Merging two workers' deltas sums bucket-wise, so quantiles of
        // the merged distribution stay well-defined.
        let mut totals = MetricsSnapshot::default();
        totals.merge(&delta);
        totals.merge(&delta);
        assert_eq!(requests(&totals), Some(8));
        let totals_execute = execute(&totals).unwrap();
        assert_eq!(totals_execute.count(), 8);
        assert_eq!(totals_execute.quantile(50), 127);
        assert_eq!(totals_execute.quantile(99), 255);
        // A restarted daemon (smaller "after") saturates to zero.
        assert_eq!(requests(&before.since(&after)), Some(0));
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
