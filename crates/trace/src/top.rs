//! Live cluster observation: poll `cq-serve` endpoints' `metrics` and
//! `stats` protocol commands and render a per-worker / per-phase table.
//!
//! Polling is a plain protocol client (the same NDJSON request/response
//! of `docs/PROTOCOL.md` the cluster client speaks): one connection per
//! poll, a `metrics` probe and a `stats` probe, both excluded from — or
//! at worst counted once by — the worker's own accounting exactly as
//! the cluster client's probes are. Quantiles in the merged per-phase
//! table come from bucket-wise histogram merging
//! ([`cq_telemetry::HistogramSnapshot::merge`]): quantiles do not
//! compose across workers, bucket counts do.

use cq_cluster::WorkerAddr;
use cq_engine::serve::metrics_from_json;
use cq_engine::Json;
use cq_telemetry::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};

/// One worker's `metrics` + `stats` bodies from a single poll.
#[derive(Debug)]
pub struct WorkerSnapshot {
    /// The `metrics` response body, parsed.
    pub metrics: MetricsSnapshot,
    /// The `stats` response body.
    pub stats: Json,
}

/// Polls one worker: connect, probe `metrics` then `stats`, read both
/// responses, disconnect.
pub fn poll_worker(addr: &WorkerAddr) -> Result<WorkerSnapshot, String> {
    let mut conn = addr.connect().map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| format!("clone: {e}"))?);
    writeln!(conn, "{{\"id\":1,\"cmd\":\"metrics\"}}").map_err(|e| format!("write: {e}"))?;
    writeln!(conn, "{{\"id\":2,\"cmd\":\"stats\"}}").map_err(|e| format!("write: {e}"))?;
    conn.flush().map_err(|e| format!("flush: {e}"))?;
    let mut read_line = || -> Result<Json, String> {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("worker closed the connection".into());
        }
        Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))
    };
    let mut metrics: Option<MetricsSnapshot> = None;
    let mut stats: Option<Json> = None;
    for _ in 0..2 {
        let response = read_line()?;
        if let Some(body) = response.get("metrics") {
            metrics = Some(metrics_from_json(body));
        } else if let Some(body) = response.get("stats") {
            stats = Some(body.clone());
        }
    }
    conn.shutdown();
    match (metrics, stats) {
        (Some(metrics), Some(stats)) => Ok(WorkerSnapshot { metrics, stats }),
        _ => Err("worker answered without metrics/stats bodies".into()),
    }
}

/// Renders one refresh frame: a per-worker table (requests, in-flight,
/// execute latency quantiles, cache traffic) and a per-phase table
/// merged across all reachable workers.
pub fn render_top(rows: &[(String, Result<WorkerSnapshot, String>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "worker", "requests", "in_flight", "errors", "p50us", "p95us", "p99us", "hits", "misses"
    );
    for (addr, snapshot) in rows {
        match snapshot {
            Err(e) => {
                let _ = writeln!(out, "{addr:<28} unreachable: {e}");
            }
            Ok(snap) => {
                let stat = |name: &str| -> i64 {
                    snap.stats.get(name).and_then(Json::as_i64).unwrap_or(0)
                };
                let (hits, misses) = cache_traffic(&snap.stats);
                let execute = snap.metrics.histogram("cq_serve_execute_micros");
                let q = |p| execute.map_or(0, |h| h.quantile(p));
                let _ = writeln!(
                    out,
                    "{:<28} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    addr,
                    stat("requests"),
                    stat("requests_in_flight"),
                    stat("errors"),
                    q(50),
                    q(95),
                    q(99),
                    hits,
                    misses
                );
            }
        }
    }

    // Bucket-wise merge of every worker's histograms, keyed by display
    // name (`cq_lp_exact_verify_micros` → `lp.exact_verify`).
    let mut merged: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
    for snap in rows.iter().filter_map(|(_, s)| s.as_ref().ok()) {
        for (name, hist) in &snap.metrics.histograms {
            merged
                .entry(phase_display_name(name))
                .or_default()
                .merge(hist);
        }
    }
    if !merged.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>12} {:>9} {:>9} {:>9}",
            "phase", "count", "total_ms", "p50us", "p95us", "p99us"
        );
        for (name, hist) in merged {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12} {:>9} {:>9} {:>9}",
                name,
                hist.count(),
                hist.sum() / 1000,
                hist.quantile(50),
                hist.quantile(95),
                hist.quantile(99)
            );
        }
    }
    out
}

/// `cq_serve_execute_micros` → `serve.execute`; names that do not fit
/// the convention pass through unchanged.
fn phase_display_name(metric: &str) -> String {
    let Some(core) = metric
        .strip_prefix("cq_")
        .and_then(|rest| rest.strip_suffix("_micros"))
    else {
        return metric.to_owned();
    };
    match core.split_once('_') {
        Some((layer, phase)) => format!("{layer}.{phase}"),
        None => core.to_owned(),
    }
}

/// Hits and misses summed over the `stats` body's cache shards
/// (saturating: a forged or corrupt body cannot overflow the row).
fn cache_traffic(stats: &Json) -> (i64, i64) {
    let (mut hits, mut misses) = (0i64, 0i64);
    if let Some(shards) = stats.get("cache_shards").and_then(Json::as_array) {
        for shard in shards {
            let field = |key| shard.get(key).and_then(Json::as_i64).unwrap_or(0);
            hits = hits.saturating_add(field("hits"));
            misses = misses.saturating_add(field("misses"));
        }
    }
    (hits, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(requests: i64, chase_count: i64, bucket: usize) -> WorkerSnapshot {
        let metrics = metrics_from_json(
            &Json::parse(&format!(
                r#"{{"counters":{{"cq_serve_requests_total":{requests}}},
                "histograms":{{
                  "cq_serve_execute_micros":{{"count":{requests},"sum":900,
                    "p50":511,"p95":1023,"p99":1023,"buckets":[[{bucket},{requests}]]}},
                  "cq_session_chase_micros":{{"count":{chase_count},"sum":100,
                    "p50":255,"p95":255,"p99":255,"buckets":[[8,{chase_count}]]}}}}}}"#
            ))
            .unwrap(),
        );
        let stats = Json::parse(&format!(
            r#"{{"requests":{requests},"errors":0,"requests_in_flight":0,
                "cache_shards":[{{"hits":3,"misses":4}},{{"hits":1,"misses":0}}]}}"#
        ))
        .unwrap();
        WorkerSnapshot { metrics, stats }
    }

    #[test]
    fn render_is_deterministic_and_merges_buckets() {
        let rows = vec![
            ("tcp:127.0.0.1:7001".to_owned(), Ok(snapshot(10, 6, 9))),
            ("tcp:127.0.0.1:7002".to_owned(), Ok(snapshot(4, 2, 10))),
            (
                "tcp:127.0.0.1:7003".to_owned(),
                Err("connect: refused".to_owned()),
            ),
        ];
        let a = render_top(&rows);
        let b = render_top(&rows);
        assert_eq!(a, b);
        assert!(a.contains("unreachable: connect: refused"), "{a}");
        assert!(a.contains("serve.execute"), "{a}");
        assert!(a.contains("session.chase"), "{a}");
        // Merged chase count: 6 + 2.
        let chase_line = a.lines().find(|l| l.starts_with("session.chase")).unwrap();
        assert!(chase_line.contains(" 8 "), "{chase_line}");
        // Cache traffic sums shards: 4 hits / 4 misses per worker.
        let worker_line = a
            .lines()
            .find(|l| l.starts_with("tcp:127.0.0.1:7001"))
            .unwrap();
        assert!(
            worker_line.trim_end().ends_with("4         4"),
            "{worker_line:?}"
        );
    }

    /// Forged bodies at the `i64` limit saturate instead of wrapping:
    /// three workers' `i64::MAX` histograms merge to a `u64::MAX`
    /// count, and two `i64::MAX` cache shards read `i64::MAX` hits.
    #[test]
    fn huge_worker_counters_saturate() {
        let max = i64::MAX;
        let worker = || {
            let metrics = metrics_from_json(
                &Json::parse(&format!(
                    r#"{{"counters":{{}},"histograms":{{"cq_x_micros":{{"count":{max},
                        "sum":{max},"p50":7,"p95":7,"p99":7,"buckets":[[3,{max}]]}}}}}}"#
                ))
                .unwrap(),
            );
            let stats = Json::parse(&format!(
                r#"{{"requests":1,"errors":0,"requests_in_flight":0,
                    "cache_shards":[{{"hits":{max},"misses":0}},{{"hits":{max},"misses":0}}]}}"#
            ))
            .unwrap();
            Ok(WorkerSnapshot { metrics, stats })
        };
        let rows: Vec<_> = (1..=3).map(|i| (format!("w{i}"), worker())).collect();
        let out = render_top(&rows);
        let worker_line = out.lines().find(|l| l.starts_with("w1")).unwrap();
        let fields: Vec<&str> = worker_line.split_whitespace().collect();
        assert_eq!(
            fields[fields.len() - 2..],
            [max.to_string(), "0".to_owned()]
        );
        let phase_line = out.lines().find(|l| l.starts_with("x ")).unwrap();
        let fields: Vec<&str> = phase_line.split_whitespace().collect();
        let (count, total_ms) = (u64::MAX.to_string(), (u64::MAX / 1000).to_string());
        assert_eq!(fields, ["x", &count, &total_ms, "7", "7", "7"]);
    }

    #[test]
    fn phase_display_names_follow_the_metric_convention() {
        assert_eq!(
            phase_display_name("cq_serve_execute_micros"),
            "serve.execute"
        );
        assert_eq!(
            phase_display_name("cq_lp_exact_verify_micros"),
            "lp.exact_verify"
        );
        assert_eq!(phase_display_name("other_metric"), "other_metric");
    }
}
