//! [`ClusterClient`]: the retrying connection pool that drives a
//! workload through N `cq-serve` workers.
//!
//! Per worker and per round, the client opens one connection and
//! pipelines its whole shard down it — a leading `stats` probe (the
//! baseline for this run's cache delta), the shard as `batch` requests
//! of at most `chunk` queries, and a trailing `stats` probe — while a
//! reader consumes the responses in order (the daemon guarantees
//! request-order responses, pipelined or not).
//!
//! **Failure model:** any transport error, protocol violation or
//! premature EOF marks the worker dead for the rest of the run. Chunks
//! it acknowledged keep their reports; everything unacknowledged —
//! in-flight and unsent — is resubmitted round-robin across the
//! surviving workers. Resubmission is sound for the same reason the
//! cache is: analysis is a pure function of the query text, so a chunk
//! that half-ran on a dying worker and reruns elsewhere produces the
//! same reports (the merger keeps whichever copy landed first). The
//! run fails only when every worker has died with work outstanding.

use crate::addr::{WorkerAddr, WorkerConn};
use crate::merge::{cache_stats_delta, solver_totals, width_totals, ReportMerger};
use crate::plan::ShardPlanner;
use crate::PlanMode;
use cq_engine::serve::metrics_from_json;
use cq_engine::{CacheStats, Json, LpWork, WidthTally, MAX_BATCH};
use cq_telemetry::MetricsSnapshot;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};

/// Why a cluster run could not complete.
#[derive(Debug)]
pub enum ClusterError {
    /// The client was built with an empty worker list.
    NoWorkers,
    /// Every worker died with `unfinished` queries still unreported.
    AllWorkersDead {
        /// Queries that never produced a report.
        unfinished: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoWorkers => write!(f, "no workers configured"),
            ClusterError::AllWorkersDead { unfinished } => {
                write!(f, "every worker died; {unfinished} queries have no report")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// One worker's view of a finished run.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// The worker's address (display form).
    pub addr: String,
    /// Queries assigned over all rounds (resubmissions count again).
    pub assigned: usize,
    /// Queries this worker actually reported.
    pub completed: usize,
    /// LP-cache hits, misses and evictions attributable to this run
    /// (deltas over the run), and the entries resident when the worker
    /// was last heard from.
    pub cache: CacheStats,
    /// Whether the worker died during the run.
    pub died: bool,
}

/// A completed cluster run: ordered reports plus merged statistics.
#[derive(Debug)]
pub struct ClusterRun {
    /// One report object per input, in input order — bit-compatible
    /// with the corresponding `cq-analyze --json` report lines (parse
    /// errors appear as the same `{"name":…,"error":…}` shape).
    pub reports: Vec<Json>,
    /// Summed per-worker cache deltas.
    pub cache: CacheStats,
    /// Summed `solver_stats` across all reports.
    pub solver: LpWork,
    /// Decomposition-width accounting across all reports.
    pub widths: WidthTally,
    /// Per-worker accounting, in `--worker` order.
    pub workers: Vec<WorkerSummary>,
    /// Queries resubmitted after a worker death.
    pub resubmitted: usize,
    /// Serve-side metrics attributable to this run: each worker
    /// round's `metrics` probe delta ([`MetricsSnapshot::since`]),
    /// merged across rounds and workers. Empty if no worker answered
    /// both probes. Because the daemon excludes `metrics` probes from
    /// its request counter and execute histogram, the merged
    /// `cq_serve_execute_micros` count equals exactly the protocol
    /// requests this run executed on the workers.
    pub metrics: MetricsSnapshot,
    /// The `trace_id` propagated with each input (`None` when tracing
    /// was off): index-aligned with `reports`, so a span log can be
    /// joined back to the report it explains.
    pub trace_ids: Vec<Option<String>>,
}

/// Drives workloads through a fixed pool of workers.
#[derive(Clone, Debug)]
pub struct ClusterClient {
    addrs: Vec<WorkerAddr>,
    mode: PlanMode,
    chunk: usize,
    witness: Option<usize>,
    trace: bool,
}

impl ClusterClient {
    /// A client over `addrs` with canonical-key sharding and the
    /// default chunk size (32).
    pub fn new(addrs: Vec<WorkerAddr>) -> ClusterClient {
        ClusterClient {
            addrs,
            mode: PlanMode::ByCanonicalKey,
            chunk: 32,
            witness: None,
            trace: false,
        }
    }

    /// Selects the shard-planning strategy.
    pub fn with_plan(mut self, mode: PlanMode) -> ClusterClient {
        self.mode = mode;
        self
    }

    /// Queries per `batch` request (clamped to `1..=MAX_BATCH`).
    /// Smaller chunks mean finer-grained resubmission on worker death;
    /// larger chunks amortize per-request overhead.
    pub fn with_chunk(mut self, chunk: usize) -> ClusterClient {
        self.chunk = chunk.clamp(1, MAX_BATCH);
        self
    }

    /// Asks workers for the Proposition 4.5 worst-case witness at `m`.
    pub fn with_witness(mut self, m: Option<usize>) -> ClusterClient {
        self.witness = m;
        self
    }

    /// Forces per-query `trace_id` propagation even without a local
    /// trace sink (ids are also generated whenever
    /// [`cq_telemetry::tracing_enabled`] says a sink is installed —
    /// e.g. `CQ_TRACE` or `--trace` on the `cq-cluster` binary). The
    /// worker stamps every span of a query's analysis with the id it
    /// received, so a cross-machine trace joins on it.
    pub fn with_trace(mut self, on: bool) -> ClusterClient {
        self.trace = on;
        self
    }

    /// The configured worker addresses.
    pub fn addrs(&self) -> &[WorkerAddr] {
        &self.addrs
    }

    /// Runs `(name, program_text)` inputs to completion across the
    /// pool. See the module docs for the failure/retry model.
    pub fn run(&self, inputs: &[(String, String)]) -> Result<ClusterRun, ClusterError> {
        if self.addrs.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        let n_workers = self.addrs.len();
        let planner = ShardPlanner::new(self.mode, n_workers);
        let mut pending: Vec<Vec<usize>> = planner.plan(inputs);
        // One trace id per input, minted up front so a resubmitted query
        // keeps its id across workers (the span log then shows the same
        // analysis attempted on two machines — exactly what happened).
        let trace_ids: Vec<Option<String>> = if self.trace || cq_telemetry::tracing_enabled() {
            inputs
                .iter()
                .map(|_| Some(cq_telemetry::fresh_trace_id()))
                .collect()
        } else {
            vec![None; inputs.len()]
        };
        let mut merger = ReportMerger::new(inputs.len());
        let mut alive = vec![true; n_workers];
        let mut summaries: Vec<WorkerSummary> = self
            .addrs
            .iter()
            .map(|addr| WorkerSummary {
                addr: addr.to_string(),
                assigned: 0,
                completed: 0,
                cache: CacheStats::default(),
                died: false,
            })
            .collect();
        let mut resubmitted = 0usize;
        let mut metrics = MetricsSnapshot::default();

        loop {
            let mut round: Vec<(usize, Vec<usize>)> = Vec::new();
            for w in 0..n_workers {
                if alive[w] && !pending[w].is_empty() {
                    round.push((w, std::mem::take(&mut pending[w])));
                }
            }
            if round.is_empty() {
                break;
            }
            let outcomes: Vec<RoundOutcome> = std::thread::scope(|scope| {
                let handles: Vec<_> = round
                    .iter()
                    .map(|(w, indices)| {
                        let addr = &self.addrs[*w];
                        let trace_ids = &trace_ids;
                        scope.spawn(move || self.run_worker_round(addr, indices, inputs, trace_ids))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("worker thread"))
                    .collect()
            });

            let mut leftover: Vec<usize> = Vec::new();
            for ((w, indices), outcome) in round.into_iter().zip(outcomes) {
                let summary = &mut summaries[w];
                summary.assigned += indices.len();
                if let Some(delta) = outcome.cache {
                    summary.cache.merge(&delta);
                    summary.cache.entries = delta.entries;
                }
                if let Some(delta) = &outcome.metrics {
                    metrics.merge(delta);
                }
                // A round with no stats at all (connect failed, baseline
                // never answered) contributes nothing and leaves
                // `entries` at its last-heard value.
                let mut done: HashSet<usize> = HashSet::new();
                for (i, report) in outcome.completed {
                    done.insert(i);
                    if merger.insert(i, report) {
                        summary.completed += 1;
                    }
                }
                if outcome.died {
                    summary.died = true;
                    alive[w] = false;
                    leftover.extend(indices.into_iter().filter(|i| !done.contains(i)));
                }
            }
            if leftover.is_empty() {
                continue;
            }
            let survivors: Vec<usize> = (0..n_workers).filter(|&w| alive[w]).collect();
            if survivors.is_empty() {
                return Err(ClusterError::AllWorkersDead {
                    unfinished: leftover.len(),
                });
            }
            resubmitted += leftover.len();
            for (j, i) in leftover.into_iter().enumerate() {
                pending[survivors[j % survivors.len()]].push(i);
            }
            for w in &survivors {
                pending[*w].sort_unstable();
            }
        }

        debug_assert!(merger.missing().is_empty(), "loop exits only when done");
        let reports = merger.into_reports();
        let mut cache = CacheStats::default();
        for summary in &summaries {
            cache.merge(&summary.cache);
        }
        let solver = solver_totals(&reports);
        let widths = width_totals(&reports);
        Ok(ClusterRun {
            reports,
            cache,
            solver,
            widths,
            workers: summaries,
            resubmitted,
            metrics,
            trace_ids,
        })
    }

    /// One connection, one shard, pipelined: `stats` + `metrics`
    /// probes, the chunks, and trailing `metrics` + `stats` probes.
    /// Returns whatever completed plus this round's cache and metrics
    /// deltas; `died` reports whether the worker is still usable.
    fn run_worker_round(
        &self,
        addr: &WorkerAddr,
        indices: &[usize],
        inputs: &[(String, String)],
        trace_ids: &[Option<String>],
    ) -> RoundOutcome {
        let mut outcome = RoundOutcome::default();
        let Ok(conn) = addr.connect() else {
            outcome.died = true;
            return outcome;
        };
        let (Ok(mut probe_half), Ok(write_half)) = (conn.try_clone(), conn.try_clone()) else {
            outcome.died = true;
            return outcome;
        };

        let chunks: Vec<&[usize]> = indices.chunks(self.chunk).collect();
        let mut requests = String::new();
        for (c, chunk) in chunks.iter().enumerate() {
            let queries: Vec<Json> = chunk
                .iter()
                .map(|&i| {
                    let mut query = vec![
                        ("name".to_owned(), Json::str(&inputs[i].0)),
                        ("query".to_owned(), Json::str(&inputs[i].1)),
                    ];
                    if let Some(id) = &trace_ids[i] {
                        query.push(("trace_id".to_owned(), Json::str(id)));
                    }
                    Json::Obj(query)
                })
                .collect();
            let mut fields = vec![
                ("id".to_owned(), Json::int(c)),
                ("cmd".to_owned(), Json::str("batch")),
                ("queries".to_owned(), Json::Arr(queries)),
            ];
            if let Some(m) = self.witness {
                fields.push(("witness".to_owned(), Json::int(m)));
            }
            requests.push_str(&Json::Obj(fields).render());
            requests.push('\n');
        }

        let mut reader = BufReader::new(conn);

        // Baseline probe, round-tripped *before* any chunk is queued:
        // pipelined requests execute concurrently inside the daemon, so
        // a probe racing a batch would snapshot mid-flight counters.
        // Round-tripping on an otherwise quiet connection makes both
        // probes observe a quiescent cache (for this client — deltas
        // against a daemon other clients are hammering are best-effort
        // by nature).
        let Some(baseline) = round_trip(&mut probe_half, &mut reader, -1, "stats", "cache_stats")
        else {
            outcome.died = true;
            reader.into_inner().shutdown();
            return outcome;
        };
        // Metrics baseline (id -3) rides the same quiet-connection
        // window. The daemon excludes `metrics` probes from its own
        // request counters, so the probe pair measures exactly the
        // requests between them — the stats probes included, which is
        // why the trailing metrics probe goes out *before* the trailing
        // stats probe: between -3 and -4 the connection carried the
        // chunks and nothing else.
        let Some(metrics_before) =
            round_trip(&mut probe_half, &mut reader, -3, "metrics", "metrics")
        else {
            outcome.died = true;
            reader.into_inner().shutdown();
            return outcome;
        };
        let mut last_cache_stats: Option<Json> = Some(baseline.clone());

        // Writer thread: stream every chunk down the socket while this
        // thread reads responses (the daemon applies backpressure
        // through its bounded queue; reading concurrently keeps the
        // pipeline moving without deadlocking on full buffers).
        let writer = std::thread::spawn(move || {
            let mut write_half = write_half;
            let _ = write_half.write_all(requests.as_bytes());
            let _ = write_half.flush();
        });

        let mut line = String::new();
        'read: for expect in 0..chunks.len() as i64 {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    outcome.died = true;
                    break 'read;
                }
                Ok(_) => {}
            }
            let Ok(resp) = Json::parse(line.trim_end()) else {
                outcome.died = true;
                break 'read;
            };
            if resp.get("id").and_then(Json::as_i64) != Some(expect)
                || resp.get("ok") != Some(&Json::Bool(true))
            {
                // Out-of-order, unidentified or refused: the protocol
                // contract is broken — stop trusting this worker.
                outcome.died = true;
                break 'read;
            }
            if let Some(stats) = resp.get("cache_stats") {
                last_cache_stats = Some(stats.clone());
            }
            let chunk = chunks[expect as usize];
            let Some(reports) = resp.get("reports").and_then(Json::as_array) else {
                outcome.died = true;
                break 'read;
            };
            if reports.len() != chunk.len() {
                outcome.died = true;
                break 'read;
            }
            for (&i, report) in chunk.iter().zip(reports) {
                outcome.completed.push((i, report.clone()));
            }
        }

        // Trailing probes, again round-tripped after every chunk is
        // acknowledged: metrics first (closing the request-count window
        // opened at -3), then stats. A dead worker keeps its last
        // response's rolling cache_stats as the best available "after";
        // its metrics delta is lost (None) — nothing trustworthy closes
        // the window.
        let metrics_after = if outcome.died {
            None
        } else {
            round_trip(&mut probe_half, &mut reader, -4, "metrics", "metrics")
        };
        if let Some(after) = &metrics_after {
            outcome.metrics =
                Some(metrics_from_json(after).since(&metrics_from_json(&metrics_before)));
        }
        let after = if outcome.died || metrics_after.is_none() {
            None
        } else {
            round_trip(&mut probe_half, &mut reader, -2, "stats", "cache_stats")
        };
        let after = match after {
            Some(stats) => Some(stats),
            None if outcome.died => last_cache_stats,
            None => {
                outcome.died = true;
                last_cache_stats
            }
        };

        // Unblock the writer if the connection died under it, then join.
        reader.into_inner().shutdown();
        let _ = writer.join();

        if let Some(after) = &after {
            outcome.cache = Some(cache_stats_delta(&baseline, after));
        }
        outcome
    }
}

/// What one worker round produced.
#[derive(Debug, Default)]
struct RoundOutcome {
    completed: Vec<(usize, Json)>,
    /// This round's cache delta; `None` when the worker was never
    /// heard from (so nothing can be said about its cache).
    cache: Option<CacheStats>,
    /// This round's serve-metrics delta; `None` when either `metrics`
    /// probe went unanswered.
    metrics: Option<MetricsSnapshot>,
    died: bool,
}

/// Round-trips one `cmd` request on an otherwise quiet connection
/// (`probe` writes, `reader` consumes the one response) and returns the
/// response's `field` object; `None` on any failure.
fn round_trip(
    probe: &mut WorkerConn,
    reader: &mut BufReader<WorkerConn>,
    id: i64,
    cmd: &str,
    field: &str,
) -> Option<Json> {
    probe
        .write_all(format!("{{\"id\":{id},\"cmd\":\"{cmd}\"}}\n").as_bytes())
        .ok()?;
    probe.flush().ok()?;
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {}
        _ => return None,
    }
    let resp = Json::parse(line.trim_end()).ok()?;
    if resp.get("id").and_then(Json::as_i64) != Some(id)
        || resp.get("ok") != Some(&Json::Bool(true))
    {
        return None;
    }
    resp.get(field).cloned()
}
