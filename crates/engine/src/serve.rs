//! [`ServeEngine`]: the long-lived serving layer under `cq-serve`.
//!
//! One process, one warm [`LpCache`], many requests: the daemon turns
//! the cross-query cache from a per-invocation optimization into a
//! serving asset. Requests arrive as newline-delimited JSON (over
//! stdin, a Unix-domain socket or TCP — the transport is the binary's
//! concern, this layer only sees `Read`/`Write` pairs) and every
//! response is one
//! JSON line carrying the request's `id`, the elapsed `micros`, and the
//! rolling cache counters. The wire protocol is specified, shape by
//! shape, in `docs/PROTOCOL.md`, and a test replays that document
//! against the real daemon so the two cannot drift.
//!
//! Five commands exist in protocol version 1:
//!
//! - `analyze` — one query through a cache-attached
//!   [`AnalysisSession`], returned as the same report object
//!   `cq-analyze --json` prints;
//! - `batch` — up to [`MAX_BATCH`] queries fanned out through
//!   [`BatchAnalyzer`] over the shared cache, one reports array back;
//! - `stats` — a [`ServeStats`] snapshot (plus per-shard cache
//!   residency/eviction counters) without analyzing anything;
//! - `metrics` — the process-wide `cq_telemetry` registry (counters,
//!   gauges, latency histograms) as one JSON object; also refreshes
//!   the `--metrics-file` exposition when one is configured;
//! - `cache` — `op: "save"` snapshots the warm [`LpCache`] to disk,
//!   `op: "load"` merges a snapshot file back in (the persistence and
//!   cache-sharing surface `cq-cluster` and multi-daemon deployments
//!   build on; entries are pure functions of their canonical key, so
//!   merging is always sound).
//!
//! Malformed lines never kill the process: every failure becomes an
//! `{"ok":false,…}` response and the loop keeps serving. A connection
//! ends on EOF (or a mid-stream disconnect, which is indistinguishable
//! and equally graceful); in-flight requests drain before
//! [`ServeEngine::serve_connection`] returns.
//!
//! Concurrency model: [`ServeEngine`] is `Sync` — counters are atomics
//! or, for the LP-work tally, behind a mutex, and the cache is already
//! thread-safe — so one engine serves any number of connections at
//! once. *Within* a connection,
//! [`ServeEngine::serve_connection`] reads on the calling thread. A
//! request that finds the connection idle — every earlier response
//! written and no further bytes buffered — runs right there, with no
//! thread hop; that is every request of a client that waits for each
//! response. Any other request goes to a bounded worker pool, started
//! on first use, so pipelined requests are analyzed in parallel.
//! Responses pass through one lock-guarded sequencer: the thread that
//! delivers a response writes every response that is then in turn, so
//! output stays strictly in request order. A request that panics is
//! answered with an error response in its turn, and the connection
//! keeps serving.

use crate::cache::{CacheStats, LpCache, SnapshotError};
use crate::json::{obj, Json};
use crate::report::ReportOptions;
use crate::session::{AnalysisSession, WidthTally};
use crate::BatchAnalyzer;
use cq_core::LpWork;
use cq_telemetry::{
    emit_event, next_span_id, now_micros, render_span_tree, Gauge, HistogramSnapshot, Metrics,
    MetricsSnapshot, Span, SpanEvent, TraceContext,
};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The wire protocol version this engine speaks. Requests may omit
/// `"v"` (it defaults to the current version); any other value is
/// rejected so a future v2 client fails loudly instead of subtly.
pub const PROTOCOL_VERSION: i64 = 1;

/// Upper bound on `"queries"` per `batch` request. Protects the daemon
/// from one client monopolizing the worker pool (and from accidental
/// `[file contents]` pastes); larger workloads should be split into
/// multiple batch requests.
pub const MAX_BATCH: usize = 1024;

/// Upper bound on one request line, in bytes, not counting its
/// newline. A line that runs past it (a client that never sends a
/// newline, say) is answered with an error response and ends its
/// connection, so a worker's read buffer stays bounded. The size fits a
/// full [`MAX_BATCH`] batch from `cq-cluster` at 16 KiB of escaped
/// program text per query.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Depth of the per-connection request queue: how many pipelined
/// requests may be admitted beyond the ones being analyzed before the
/// reader stops pulling input (backpressure).
const QUEUE_DEPTH: usize = 64;

/// Command-specific fields spliced into an `"ok":true` response.
type ResponseBody = Vec<(&'static str, Json)>;

/// Trace identity of a handled request, kept with its response so the
/// thread that writes it can stitch a `serve.write` span into the
/// request's tree. `None` when the request emitted no spans.
struct ResponseMeta {
    trace_id: Option<Arc<str>>,
    request_span: u64,
}

/// One request line's response, as [`ServeEngine::answer`] counts it.
struct Handled {
    response: String,
    meta: Option<ResponseMeta>,
    /// Execution time in microseconds.
    micros: u64,
    /// Whether the request was a `metrics` probe.
    probe: bool,
}

/// Lifetime counters of a [`ServeEngine`], snapshotted by the `stats`
/// command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines received (including malformed ones and the `stats`
    /// request reporting this snapshot).
    pub requests: u64,
    /// Queries analyzed: one per `analyze`, plus one per entry of every
    /// `batch` (parse failures included — they occupied a slot).
    pub analyses: u64,
    /// `batch` requests served.
    pub batches: u64,
    /// Error responses sent (malformed JSON, parse errors, bad fields).
    pub errors: u64,
    /// Solver work across every LP this process solved: the sum of the
    /// reports' `solver_stats` (cache hits contribute nothing — the
    /// point of a warm daemon).
    pub lp: LpWork,
    /// Width outcomes of every report served (rendered as
    /// `width_exact` / `width_heuristic`).
    pub widths: WidthTally,
}

/// The serving layer: a shared LP cache plus request dispatch.
///
/// ```
/// use cq_engine::serve::ServeEngine;
///
/// let engine = ServeEngine::new();
/// let resp = engine.handle_line(
///     r#"{"id":1,"cmd":"analyze","query":"S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)"}"#);
/// assert!(resp.contains(r#""ok":true"#));
/// assert!(resp.contains(r#""exponent":"3/2""#));
/// ```
pub struct ServeEngine {
    cache: Option<Arc<LpCache>>,
    /// Default snapshot path: loaded at attach time, written on
    /// graceful shutdown, and the fallback for pathless `cache` ops.
    cache_file: Option<PathBuf>,
    /// Whether `cache` requests may name their own filesystem path.
    /// `true` for the trust-implied transports (stdin, a
    /// permission-gated Unix socket); the binary turns it off for TCP,
    /// where an unauthenticated peer must not gain a file write/probe
    /// primitive beyond the operator-chosen `--cache-file`.
    request_paths: bool,
    workers: usize,
    /// Construction time, for the `stats` command's `uptime_micros`.
    started: Instant,
    /// Requests currently executing inside [`ServeEngine::handle_line`]
    /// (mirrored into the global `cq_serve_requests_in_flight` gauge).
    in_flight: AtomicI64,
    /// Prometheus-style exposition target: written on graceful shutdown
    /// (the binary calls [`ServeEngine::dump_metrics_file`]) and
    /// refreshed after every `metrics` request.
    metrics_file: Option<PathBuf>,
    /// Slow-request threshold in microseconds: requests at or above it
    /// get their full span tree logged to stderr. `None` = off.
    slow_micros: Option<u64>,
    requests: AtomicU64,
    analyses: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    /// Solver work and width outcomes, behind one lock so a request
    /// takes it once.
    work: Mutex<(LpWork, WidthTally)>,
}

impl Default for ServeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeEngine {
    /// An engine with a fresh warm-able cache and hardware parallelism.
    pub fn new() -> Self {
        ServeEngine {
            cache: Some(Arc::new(LpCache::new())),
            cache_file: None,
            request_paths: true,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            started: Instant::now(),
            in_flight: AtomicI64::new(0),
            metrics_file: None,
            slow_micros: None,
            requests: AtomicU64::new(0),
            analyses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            work: Mutex::default(),
        }
    }

    /// Caps the per-connection worker pool (and batch fan-out width).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Disables the cross-query LP cache (responses then report
    /// `"enabled":false`; mostly useful for benchmarking the win).
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Forbids client-chosen filesystem paths in `cache` requests:
    /// `save`/`load` then work only against the configured
    /// `--cache-file`. The binary applies this on the TCP transport,
    /// where peers are unauthenticated — a network client must not get
    /// an arbitrary-path file write (or existence-probe) primitive on
    /// the daemon host.
    pub fn restrict_cache_paths(mut self) -> Self {
        self.request_paths = false;
        self
    }

    /// The shared LP cache, if enabled.
    pub fn cache(&self) -> Option<&Arc<LpCache>> {
        self.cache.as_ref()
    }

    /// Attaches a Prometheus-style exposition file: the binary dumps the
    /// metrics registry there on graceful shutdown, and every `metrics`
    /// request refreshes it, so an external scraper always finds a
    /// recent snapshot at a stable path.
    pub fn with_metrics_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_file = Some(path.into());
        self
    }

    /// Enables the slow-query log: any request taking at least `ms`
    /// milliseconds gets its full span tree written to stderr (spans
    /// are force-collected for such requests even with tracing off).
    pub fn with_slow_millis(mut self, ms: u64) -> Self {
        self.slow_micros = Some(ms.saturating_mul(1000));
        self
    }

    /// Writes the global metrics registry to the configured
    /// `--metrics-file` in Prometheus text exposition format. `None`
    /// when no file is configured.
    pub fn dump_metrics_file(&self) -> Option<io::Result<()>> {
        let path = self.metrics_file.as_ref()?;
        self.sync_cache_gauges();
        let text = cq_telemetry::expo::render(&Metrics::global().snapshot());
        Some(std::fs::write(path, text))
    }

    /// Publishes the per-shard cache counters as registry gauges (the
    /// cache keeps its own atomics hot-path-side; the registry view is
    /// synced only when someone actually reads metrics).
    fn sync_cache_gauges(&self) {
        let Some(cache) = self.cache.as_deref() else {
            return;
        };
        let metrics = Metrics::global();
        for (i, shard) in cache.shard_stats().iter().enumerate() {
            let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
            metrics
                .gauge(&format!("cq_cache_shard{i:02}_entries"))
                .set(clamp(shard.entries));
            metrics
                .gauge(&format!("cq_cache_shard{i:02}_evictions"))
                .set(clamp(shard.evictions));
            metrics
                .gauge(&format!("cq_cache_shard{i:02}_hits"))
                .set(clamp(shard.hits));
            metrics
                .gauge(&format!("cq_cache_shard{i:02}_misses"))
                .set(clamp(shard.misses));
        }
    }

    /// Attaches a persistent snapshot path: entries from an existing
    /// snapshot at `path` are merged into the cache right now (a
    /// missing file is a cold start, not an error), and the path
    /// becomes the default for [`ServeEngine::snapshot_to_cache_file`]
    /// and pathless `cache` requests. Returns `(engine, entries
    /// loaded)`. A present-but-unreadable snapshot is an error — a
    /// daemon must not silently start cold over a corrupt cache file.
    ///
    /// # Panics
    /// Panics if the cache was disabled with
    /// [`ServeEngine::without_cache`]; callers decide that conflict at
    /// the flag level.
    pub fn with_cache_file(
        mut self,
        path: impl Into<PathBuf>,
    ) -> Result<(Self, usize), SnapshotError> {
        let path = path.into();
        let cache = self.cache.as_ref().expect("--cache-file needs the cache");
        let loaded = match std::fs::read_to_string(&path) {
            Ok(text) => cache.merge_snapshot(&text)?,
            Err(e) if e.kind() == ErrorKind::NotFound => 0,
            Err(e) => return Err(SnapshotError::Io(e)),
        };
        self.cache_file = Some(path);
        Ok((self, loaded))
    }

    /// Writes the cache to the configured cache file (`None` when no
    /// file or no cache is configured — nothing to do). The binary
    /// calls this on every graceful shutdown path: EOF, SIGINT and
    /// SIGTERM all persist the warm cache.
    pub fn snapshot_to_cache_file(&self) -> Option<Result<usize, SnapshotError>> {
        let path = self.cache_file.as_ref()?;
        let cache = self.cache.as_ref()?;
        Some(cache.save_to_file(path))
    }

    /// Lifetime request counters.
    pub fn stats(&self) -> ServeStats {
        let (lp, widths) = *self.work.lock().expect("work counters");
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            lp,
            widths,
        }
    }

    /// Folds one report's solver work and width outcome into the
    /// process-wide counters.
    fn note_solver(&self, report: &crate::report::AnalysisReport) {
        let mut work = self.work.lock().expect("work counters");
        work.0.merge(&report.solver);
        work.1.add(&report.widths);
    }

    /// Handles one request line, returning the one response line (no
    /// trailing newline). This is the entire daemon minus transport —
    /// the engine's unit tests and the protocol replay test drive it
    /// directly.
    pub fn handle_line(&self, line: &str) -> String {
        self.answer(Some(line), None).0
    }

    /// Answers one request line, or (`None`) a line that ran past
    /// [`MAX_LINE_BYTES`], and counts it: every answered line in
    /// `requests`, and every line but a `metrics` probe in
    /// `cq_serve_requests_total` and `cq_serve_execute_micros`. A
    /// request that panics is answered with an error response, so one
    /// request cannot take its connection down or leave a gap in the
    /// response order. `queued_for` is the queue wait the transport
    /// measured before a worker picked the line up.
    fn answer(
        &self,
        line: Option<&str>,
        queued_for: Option<Duration>,
    ) -> (String, Option<ResponseMeta>) {
        let start = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let handled = match line {
            Some(line) => panic::catch_unwind(AssertUnwindSafe(|| {
                self.handle_line_meta(line, queued_for, start)
            }))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("unknown panic");
                let id = Json::parse(line)
                    .ok()
                    .and_then(|req| req.get("id").cloned())
                    .unwrap_or(Json::Null);
                let message = format!("internal error: the request panicked: {message}");
                self.failed(id, message, start)
            }),
            None => self.failed(
                Json::Null,
                format!(
                    "request line exceeds the limit of {MAX_LINE_BYTES} bytes; connection closed"
                ),
                start,
            ),
        };
        if !handled.probe {
            Metrics::global().counter("cq_serve_requests_total").inc();
            Metrics::global()
                .histogram("cq_serve_execute_micros")
                .observe(handled.micros);
        }
        (handled.response, handled.meta)
    }

    /// The error response of a request that never reached a normal
    /// answer (it panicked, or its line was too long), counted as an
    /// error. Its `micros` field reads 0.
    fn failed(&self, id: Json, message: String, start: Instant) -> Handled {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Handled {
            response: error_response(id, message, Json::Int(0)),
            meta: None,
            micros: micros_since(start),
            probe: false,
        }
    }

    /// Parses, dispatches and renders one request line, tracing it and
    /// logging it when slow; [`ServeEngine::answer`] counts it.
    fn handle_line_meta(
        &self,
        line: &str,
        queued_for: Option<Duration>,
        start: Instant,
    ) -> Handled {
        let _in_flight = InFlight::enter(&self.in_flight);
        let parsed = Json::parse(line);
        let id = parsed
            .as_ref()
            .ok()
            .and_then(|req| req.get("id").cloned())
            .unwrap_or(Json::Null);
        // Trace identity: a client-propagated id wins (the cluster path);
        // otherwise mint one whenever this request will emit or collect
        // spans, so its tree is distinguishable from its neighbors'.
        let collect = self.slow_micros.is_some();
        let trace_id: Option<String> = parsed
            .as_ref()
            .ok()
            .and_then(|req| req.get("trace_id").and_then(Json::as_str))
            .map(str::to_owned)
            .or_else(|| {
                (cq_telemetry::tracing_enabled() || collect).then(cq_telemetry::fresh_trace_id)
            });
        let mut ctx = (trace_id.is_some() || collect)
            .then(|| TraceContext::enter(trace_id.as_deref(), collect));
        let request_span = Span::enter("serve.request");
        if let Some(wait) = queued_for {
            let wait_micros = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX);
            Metrics::global()
                .histogram("cq_serve_queue_wait_micros")
                .observe(wait_micros);
            if request_span.active() {
                // The wait happened on the reader→worker hop, before this
                // span existed: stitch it in as a synthetic child that
                // ended just now.
                emit_event(SpanEvent {
                    name: "serve.queue_wait",
                    trace_id: trace_id.as_deref().map(Arc::from),
                    span_id: next_span_id(),
                    parent_id: Some(request_span.id()),
                    start_micros: now_micros().saturating_sub(wait_micros),
                    duration_micros: wait_micros,
                    attrs: Vec::new(),
                });
            }
        }
        let result = {
            let _exec = Span::enter("serve.execute");
            match &parsed {
                Err(e) => Err(format!("malformed request: {e}")),
                Ok(req) => self.dispatch(req),
            }
        };
        let micros = micros_since(start);
        let micros_json = Json::count(micros);
        // `metrics` probes are not counted in `cq_serve_requests_total`
        // or `cq_serve_execute_micros`: observing the registry must not
        // perturb it, or a cluster client's before/after probes would
        // count themselves and the merged histogram could never equal
        // the request count.
        let probe = matches!(&result, Ok(("metrics", _)));
        let response = match result {
            Ok((cmd, body)) => {
                let mut fields = vec![
                    ("v", Json::Int(PROTOCOL_VERSION)),
                    ("id", id),
                    ("ok", Json::Bool(true)),
                    ("cmd", Json::str(cmd)),
                ];
                fields.extend(body);
                fields.push(("micros", micros_json));
                let cache = self.cache.as_deref().map(LpCache::stats);
                fields.push(("cache_stats", cache_stats_json(cache)));
                obj(fields).render()
            }
            Err(message) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                error_response(id, message, micros_json)
            }
        };
        let meta = request_span.active().then(|| ResponseMeta {
            trace_id: trace_id.as_deref().map(Arc::from),
            request_span: request_span.id(),
        });
        // Close `serve.request` before harvesting the collection so the
        // slow log shows the root too.
        drop(request_span);
        if let (Some(slow), Some(ctx)) = (self.slow_micros, ctx.as_mut()) {
            if micros >= slow {
                let tree = render_span_tree(&ctx.take_collected());
                eprintln!(
                    "cq-serve: slow request ({micros}us >= {slow}us){}\n{tree}",
                    trace_id
                        .as_deref()
                        .map(|id| format!(" trace_id={id}"))
                        .unwrap_or_default()
                );
            }
        }
        Handled {
            response,
            meta,
            micros,
            probe,
        }
    }

    fn dispatch(&self, req: &Json) -> Result<(&'static str, ResponseBody), String> {
        match req.get("v") {
            None => {}
            Some(v) if v.as_i64() == Some(PROTOCOL_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported protocol version {} (this daemon speaks v{PROTOCOL_VERSION})",
                    v.render()
                ))
            }
        }
        let cmd = req
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a string \"cmd\" field")?;
        match cmd {
            "analyze" => self.analyze(req).map(|body| ("analyze", body)),
            "batch" => self.batch(req).map(|body| ("batch", body)),
            "stats" => Ok(("stats", self.stats_body())),
            "metrics" => Ok(("metrics", self.metrics_body())),
            "cache" => self.cache_cmd(req).map(|body| ("cache", body)),
            #[cfg(test)]
            "test" => tests::seam(req).map(|body| ("test", body)),
            other => Err(format!("unknown cmd {:?}", other)),
        }
    }

    /// The `cache` command: `op: "save"` snapshots to disk, `op:
    /// "load"` merges a snapshot file in. `path` defaults to the
    /// daemon's `--cache-file`; with neither, the request errors.
    fn cache_cmd(&self, req: &Json) -> Result<ResponseBody, String> {
        let cache = self
            .cache
            .as_ref()
            .ok_or("the cache is disabled (--no-cache); nothing to save or load")?;
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or("cache needs an \"op\" field: \"save\" or \"load\"")?;
        if !matches!(op, "save" | "load") {
            return Err(format!(
                "unknown cache op {op:?} (expected \"save\" or \"load\")"
            ));
        }
        let path = match req.get("path") {
            Some(p) => {
                if !self.request_paths {
                    return Err("client-chosen cache paths are disabled on this transport; \
                         the daemon's --cache-file is the only snapshot location \
                         (omit \"path\")"
                        .to_owned());
                }
                PathBuf::from(
                    p.as_str()
                        .ok_or("cache \"path\" must be a string when present")?,
                )
            }
            None => self
                .cache_file
                .clone()
                .ok_or("cache needs a \"path\" (no --cache-file default is configured)")?,
        };
        let path_str = path.display().to_string();
        match op {
            "save" => {
                let entries = cache.save_to_file(&path).map_err(|e| e.to_string())?;
                Ok(vec![
                    ("op", Json::str("save")),
                    ("path", Json::str(path_str)),
                    ("entries", Json::int(entries)),
                ])
            }
            "load" => {
                let merged = cache.merge_from_file(&path).map_err(|e| e.to_string())?;
                Ok(vec![
                    ("op", Json::str("load")),
                    ("path", Json::str(path_str)),
                    ("merged", Json::int(merged)),
                ])
            }
            _ => unreachable!("op validated above"),
        }
    }

    fn analyze(&self, req: &Json) -> Result<ResponseBody, String> {
        let query = req
            .get("query")
            .and_then(Json::as_str)
            .ok_or("analyze needs a string \"query\" field")?;
        let name = req.get("name").and_then(Json::as_str).unwrap_or("-");
        let opts = ReportOptions {
            witness_m: witness_of(req)?,
            database: None,
        };
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let mut session = AnalysisSession::parse(name, query).map_err(|e| e.to_string())?;
        if let Some(cache) = &self.cache {
            session = session.with_cache(Arc::clone(cache));
        }
        if let Some(m) = opts.witness_m {
            session.check_witness(m).map_err(|e| e.to_string())?;
        }
        let report = session.report(&opts);
        self.note_solver(&report);
        Ok(vec![("report", report.to_json())])
    }

    fn batch(&self, req: &Json) -> Result<ResponseBody, String> {
        let items = req
            .get("queries")
            .and_then(Json::as_array)
            .ok_or("batch needs a \"queries\" array")?;
        if items.len() > MAX_BATCH {
            return Err(format!(
                "batch of {} queries exceeds the limit of {MAX_BATCH}; split the workload",
                items.len()
            ));
        }
        let inputs = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let query = item
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or(format!("queries[{i}] needs a string \"query\" field"))?;
                let name = item
                    .get("name")
                    .and_then(Json::as_str)
                    .map_or_else(|| format!("q{i}"), str::to_owned);
                Ok((name, query.to_owned()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Per-query trace ids (the cluster client stamps one on every
        // query it scatters): each analysis runs under its own id, so a
        // query's spans are attributable across the whole fleet.
        let trace_ids: Vec<Option<String>> = items
            .iter()
            .map(|item| {
                item.get("trace_id")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            })
            .collect();
        let opts = ReportOptions {
            witness_m: witness_of(req)?,
            database: None,
        };
        let mut analyzer = BatchAnalyzer::with_threads(self.workers);
        if let Some(cache) = &self.cache {
            analyzer = analyzer.with_cache(Arc::clone(cache));
        }
        if trace_ids.iter().any(Option::is_some) {
            analyzer = analyzer.with_trace_ids(trace_ids);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.analyses
            .fetch_add(inputs.len() as u64, Ordering::Relaxed);
        let reports = analyzer
            .analyze_texts(&inputs, &opts)
            .iter()
            .zip(&inputs)
            .map(|(result, (name, _))| match result {
                Ok(report) => {
                    self.note_solver(report);
                    report.to_json()
                }
                // Same shape as a cq-analyze --json parse-error line:
                // the reports array stays index-aligned with "queries".
                Err(e) => obj([
                    ("name", Json::str(name)),
                    ("error", Json::str(e.to_string())),
                ]),
            })
            .collect();
        Ok(vec![("reports", Json::Arr(reports))])
    }

    /// The `metrics` command: the whole global registry as one JSON
    /// object — counters and gauges by name, histograms as summaries
    /// plus their nonzero log₂ buckets. Refreshes the `--metrics-file`
    /// exposition when one is configured, so "scrape the file" and
    /// "ask the daemon" agree after every probe.
    fn metrics_body(&self) -> ResponseBody {
        self.sync_cache_gauges();
        let snap = Metrics::global().snapshot();
        if let Some(path) = &self.metrics_file {
            if let Err(e) = std::fs::write(path, cq_telemetry::expo::render(&snap)) {
                eprintln!("cq-serve: failed to write metrics file: {e}");
            }
        }
        vec![("metrics", metrics_json(&snap))]
    }

    fn stats_body(&self) -> ResponseBody {
        let stats = self.stats();
        // Per-shard cache residency/evictions: warm-cache benchmarks
        // read the eviction split to tell "cold workload" apart from
        // "capacity-bound workload". Empty array when the cache is off.
        let shards: Vec<Json> = self
            .cache
            .as_deref()
            .map(LpCache::shard_stats)
            .unwrap_or_default()
            .iter()
            .map(|s| {
                obj([
                    ("entries", Json::count(s.entries)),
                    ("evictions", Json::count(s.evictions)),
                    ("hits", Json::count(s.hits)),
                    ("misses", Json::count(s.misses)),
                ])
            })
            .collect();
        let uptime = self.started.elapsed().as_micros();
        vec![(
            "stats",
            obj([
                ("requests", Json::count(stats.requests)),
                ("analyses", Json::count(stats.analyses)),
                ("batches", Json::count(stats.batches)),
                ("errors", Json::count(stats.errors)),
                (
                    "uptime_micros",
                    Json::Int(i64::try_from(uptime).unwrap_or(i64::MAX)),
                ),
                (
                    "requests_in_flight",
                    Json::Int(self.in_flight.load(Ordering::Relaxed)),
                ),
                ("lp_pivots", Json::count(stats.lp.pivots)),
                ("lp_dense_solves", Json::count(stats.lp.dense_solves)),
                ("lp_sparse_solves", Json::count(stats.lp.sparse_solves)),
                ("lp_hybrid_solves", Json::count(stats.lp.hybrid_solves)),
                ("lp_float_verified", Json::count(stats.lp.float_verified)),
                ("lp_exact_fallbacks", Json::count(stats.lp.exact_fallbacks)),
                ("width_exact", Json::count(stats.widths.hypertree_exact)),
                (
                    "width_heuristic",
                    Json::count(stats.widths.hypertree_heuristic),
                ),
                ("cache_shards", Json::Arr(shards)),
            ]),
        )]
    }

    /// Serves one connection to completion: reads newline-delimited
    /// requests until EOF (or the peer vanishes), analyzes them, and
    /// writes responses **in request order**, flushing after each so
    /// non-pipelining clients never stall. A request that arrives on an
    /// idle connection (every earlier response written, no further
    /// bytes buffered) runs on the reading thread; pipelined requests go
    /// to a bounded worker pool, started on first use. A line longer
    /// than [`MAX_LINE_BYTES`] gets an error response in its turn and
    /// ends the connection.
    ///
    /// Returns the first write error if the peer stopped listening —
    /// callers serving sockets typically log and move on, since a
    /// client disconnect must never take the daemon down.
    pub fn serve_connection<R: Read, W: Write + Send>(
        &self,
        reader: R,
        writer: W,
    ) -> io::Result<()> {
        let mut reader = BufReader::new(reader);
        let sequencer = Mutex::new(Sequencer::new(writer));
        let (job_tx, job_rx) = mpsc::sync_channel::<(u64, String, Instant)>(QUEUE_DEPTH);
        let job_rx = Mutex::new(job_rx);
        std::thread::scope(|scope| {
            let mut pool_started = false;
            let mut seq = 0u64;
            let mut line = Vec::new();
            loop {
                line.clear();
                let limit = MAX_LINE_BYTES as u64 + 1;
                match (&mut reader).take(limit).read_until(b'\n', &mut line) {
                    Ok(0) => break, // EOF: graceful end of the connection
                    Ok(n) if n > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                        // Answered in sequence order like any other
                        // request; the rest of the line is never read.
                        let (response, meta) = self.answer(None, None);
                        sequencer
                            .lock()
                            .expect("response sequencer")
                            .deliver(seq, response, meta);
                        break;
                    }
                    Ok(_) => {
                        // Invalid UTF-8 ends the connection, as a
                        // failed read does.
                        let Ok(line) = std::str::from_utf8(&line) else {
                            break;
                        };
                        let request = line.trim();
                        if request.is_empty() {
                            continue; // blank keep-alive lines get no response
                        }
                        // A thread writing a response holds the lock:
                        // the connection is busy, and the reader must not
                        // wait behind a write the peer may not drain.
                        let idle = match sequencer.try_lock() {
                            Ok(sequencer) => {
                                if sequencer.error.is_some() {
                                    break; // the peer stopped listening
                                }
                                sequencer.next == seq && reader.buffer().is_empty()
                            }
                            Err(_) => false,
                        };
                        if idle {
                            let (response, meta) = self.answer(Some(request), None);
                            sequencer
                                .lock()
                                .expect("response sequencer")
                                .deliver(seq, response, meta);
                        } else {
                            if !pool_started {
                                pool_started = true;
                                for _ in 0..self.workers {
                                    scope.spawn(|| self.run_worker(&job_rx, &sequencer));
                                }
                            }
                            if job_tx
                                .send((seq, request.to_owned(), Instant::now()))
                                .is_err()
                            {
                                break;
                            }
                        }
                        seq += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // A reset/aborted read is a mid-stream disconnect:
                    // treat like EOF, drain in-flight work, keep serving
                    // other connections.
                    Err(_) => break,
                }
            }
            // Closing the queue ends the workers once it is drained; the
            // scope joins them.
            drop(job_tx);
        });
        match sequencer.into_inner().expect("response sequencer").error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// One pool worker of [`ServeEngine::serve_connection`]: handles
    /// queued requests until the queue closes. After a write error the
    /// rest of the queue is drained unanswered.
    fn run_worker<W: Write>(
        &self,
        jobs: &Mutex<mpsc::Receiver<(u64, String, Instant)>>,
        sequencer: &Mutex<Sequencer<W>>,
    ) {
        loop {
            // Hold the lock only to receive; analysis runs unlocked so
            // workers actually overlap.
            let job = jobs.lock().expect("job queue").recv();
            let Ok((seq, line, enqueued)) = job else {
                break;
            };
            if sequencer
                .lock()
                .expect("response sequencer")
                .error
                .is_some()
            {
                continue;
            }
            let (response, meta) = self.answer(Some(&line), Some(enqueued.elapsed()));
            sequencer
                .lock()
                .expect("response sequencer")
                .deliver(seq, response, meta);
        }
    }
}

/// The response side of one connection: the writer plus the responses
/// that arrived before their turn. Whichever thread delivers a response
/// writes every response that is ready, in request order.
struct Sequencer<W> {
    writer: W,
    pending: BTreeMap<u64, (String, Option<ResponseMeta>)>,
    /// Sequence number of the next response to write.
    next: u64,
    /// The first write error. Once set, responses are dropped unwritten.
    error: Option<io::Error>,
}

impl<W: Write> Sequencer<W> {
    fn new(writer: W) -> Self {
        Sequencer {
            writer,
            pending: BTreeMap::new(),
            next: 0,
            error: None,
        }
    }

    /// Accepts response `seq` and writes every response now in turn.
    fn deliver(&mut self, seq: u64, response: String, meta: Option<ResponseMeta>) {
        if seq != self.next {
            self.pending.insert(seq, (response, meta));
            return;
        }
        self.write(response, meta);
        while let Some((response, meta)) = self.pending.remove(&self.next) {
            self.write(response, meta);
        }
    }

    /// Writes the response in turn as one line and flushes it, timing
    /// the write as a `serve.write` span under the request's span.
    fn write(&mut self, mut response: String, meta: Option<ResponseMeta>) {
        self.next += 1;
        if self.error.is_some() {
            return;
        }
        let write_started = now_micros();
        let write_clock = Instant::now();
        response.push('\n');
        let written = self
            .writer
            .write_all(response.as_bytes())
            .and_then(|()| self.writer.flush());
        if let Err(e) = written {
            self.error = Some(e);
        }
        if let Some(meta) = meta {
            emit_event(SpanEvent {
                name: "serve.write",
                trace_id: meta.trace_id,
                span_id: next_span_id(),
                parent_id: Some(meta.request_span),
                start_micros: write_started,
                duration_micros: write_clock.elapsed().as_micros() as u64,
                attrs: Vec::new(),
            });
        }
    }
}

/// One request counted in `ServeEngine::in_flight` and the
/// `cq_serve_requests_in_flight` gauge; dropping it (also while a panic
/// unwinds) takes the request back out of both.
struct InFlight<'a> {
    count: &'a AtomicI64,
    gauge: Arc<Gauge>,
}

impl<'a> InFlight<'a> {
    fn enter(count: &'a AtomicI64) -> Self {
        let gauge = Metrics::global().gauge("cq_serve_requests_in_flight");
        count.fetch_add(1, Ordering::Relaxed);
        gauge.inc();
        InFlight { count, gauge }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, Ordering::Relaxed);
        self.gauge.dec();
    }
}

/// Microseconds since `start`, saturating.
fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// An `"ok":false` response line.
fn error_response(id: Json, message: String, micros: Json) -> String {
    obj([
        ("v", Json::Int(PROTOCOL_VERSION)),
        ("id", id),
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
        ("micros", micros),
    ])
    .render()
}

/// Parses the optional `"witness"` field shared by `analyze`/`batch`.
fn witness_of(req: &Json) -> Result<Option<usize>, String> {
    match req.get("witness") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_usize() {
            Some(m) if m >= 1 => Ok(Some(m)),
            _ => Err("witness needs an integer M >= 1".to_owned()),
        },
    }
}

/// The `cache_stats` object shared by every serve response, the
/// trailing `cq-analyze --json` summary line and the `cq-cluster`
/// summary: `enabled`, `hits`, `misses`, `evictions`, `entries`. A
/// disabled cache (`None`) reads `"enabled":false` and zero counters.
pub fn cache_stats_json(stats: Option<CacheStats>) -> Json {
    let enabled = stats.is_some();
    let stats = stats.unwrap_or_default();
    obj([
        ("enabled", Json::Bool(enabled)),
        ("hits", Json::count(stats.hits)),
        ("misses", Json::count(stats.misses)),
        ("evictions", Json::count(stats.evictions)),
        ("entries", Json::count(stats.entries)),
    ])
}

/// The `metrics` response body: counters and gauges by name,
/// histograms as `count`/`sum`/`p50`/`p95`/`p99` plus their nonzero
/// log₂ buckets as `[index, count]` pairs.
pub fn metrics_json(snap: &MetricsSnapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(name, v)| (name.clone(), Json::count(*v)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.clone(), Json::Int(*v)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| {
            let buckets = h
                .buckets()
                .iter()
                .map(|&(i, n)| Json::Arr(vec![Json::int(i), Json::count(n)]))
                .collect();
            let body = obj([
                ("count", Json::count(h.count())),
                ("sum", Json::count(h.sum())),
                ("p50", Json::count(h.quantile(50))),
                ("p95", Json::count(h.quantile(95))),
                ("p99", Json::count(h.quantile(99))),
                ("buckets", Json::Arr(buckets)),
            ]);
            (name.clone(), body)
        })
        .collect();
    obj([
        ("counters", Json::Obj(counters)),
        ("gauges", Json::Obj(gauges)),
        ("histograms", Json::Obj(histograms)),
    ])
}

/// Reads a [`metrics_json`] body back (what a cluster client or
/// `cq-trace top` gets from a worker). Lenient, because the body comes
/// off the network: a missing section is empty, a non-integer counter
/// or gauge is skipped, a negative counter, sum or bucket count reads
/// 0, and a malformed bucket pair or an index outside the log₂ range is
/// dropped. Count and quantiles are not read: the buckets determine
/// them.
pub fn metrics_from_json(body: &Json) -> MetricsSnapshot {
    fn entries<'a, T>(
        body: &'a Json,
        section: &str,
        value: impl Fn(&'a Json) -> Option<T>,
    ) -> Vec<(String, T)> {
        match body.get(section) {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(name, v)| Some((name.clone(), value(v)?)))
                .collect(),
            _ => Vec::new(),
        }
    }
    let count = |v: &Json| v.as_i64().map(|n| n.max(0) as u64);
    MetricsSnapshot {
        counters: entries(body, "counters", count),
        gauges: entries(body, "gauges", Json::as_i64),
        histograms: entries(body, "histograms", |h| {
            let pairs = h.get("buckets").and_then(Json::as_array).unwrap_or(&[]);
            let pairs = pairs.iter().filter_map(|pair| match pair.as_array()? {
                [i, n] => Some((i.as_usize()?, count(n)?)),
                _ => None,
            });
            let sum = h.get("sum").and_then(count).unwrap_or(0);
            Some(HistogramSnapshot::from_buckets(pairs, sum))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIANGLE: &str = "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)";

    /// The `test` command, compiled into test builds only. It answers
    /// with the name of the thread that ran it. `"panic":true` makes it
    /// panic; `"meet":"GROUP"` makes it wait, for at most ten seconds,
    /// until two requests of that group are running at once, and fail
    /// if they never are.
    pub(super) fn seam(req: &Json) -> Result<ResponseBody, String> {
        if req.get("panic") == Some(&Json::Bool(true)) {
            panic!("injected test panic");
        }
        if let Some(group) = req.get("meet").and_then(Json::as_str) {
            static ARRIVED: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
            static MET: std::sync::Condvar = std::sync::Condvar::new();
            let mut arrived = ARRIVED.lock().unwrap();
            *arrived.entry(group.to_owned()).or_insert(0) += 1;
            MET.notify_all();
            let (arrived, timeout) = MET
                .wait_timeout_while(arrived, Duration::from_secs(10), |a| a[group] < 2)
                .unwrap();
            if timeout.timed_out() {
                return Err(format!("group {group}: {} of 2 met", arrived[group]));
            }
        }
        let thread = std::thread::current();
        Ok(vec![("thread", Json::str(thread.name().unwrap_or("")))])
    }

    fn parse(response: &str) -> Json {
        Json::parse(response).expect("responses are valid JSON")
    }

    #[test]
    fn analyze_roundtrip_carries_id_and_report() {
        let engine = ServeEngine::new();
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"v":1,"id":"req-7","cmd":"analyze","query":"{TRIANGLE}"}}"#
        )));
        assert_eq!(resp.get("v").and_then(Json::as_i64), Some(1));
        assert_eq!(resp.get("id").and_then(Json::as_str), Some("req-7"));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let report = resp.get("report").unwrap();
        assert_eq!(
            report
                .get("size_bound")
                .and_then(|b| b.get("exponent"))
                .and_then(Json::as_str),
            Some("3/2")
        );
        assert!(resp.get("micros").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn cache_warms_across_requests() {
        let engine = ServeEngine::new();
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        let resp = parse(
            &engine
                .handle_line(r#"{"cmd":"analyze","query":"T(C,A,B) :- E(B,C), E(A,B), E(A,C)"}"#),
        );
        let cache = resp.get("cache_stats").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn malformed_and_invalid_requests_answer_without_dying() {
        let engine = ServeEngine::new();
        for (line, what) in [
            ("not json at all", "malformed request"),
            ("{\"cmd\":17}", "string \"cmd\""),
            ("{\"cmd\":\"frobnicate\"}", "unknown cmd"),
            ("{\"cmd\":\"analyze\"}", "\"query\" field"),
            (
                "{\"cmd\":\"analyze\",\"query\":\"not a query\"}",
                "parse error",
            ),
            (
                &format!(r#"{{"v":2,"cmd":"analyze","query":"{TRIANGLE}"}}"#),
                "unsupported protocol version",
            ),
            (
                &format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}","witness":0}}"#),
                "M >= 1",
            ),
            ("{\"cmd\":\"batch\"}", "\"queries\" array"),
        ] {
            let resp = parse(&engine.handle_line(line));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}");
            let error = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(what), "{line}: {error}");
        }
        // ... and the engine still serves.
        let resp =
            parse(&engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#)));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(engine.stats().errors, 8);
    }

    #[test]
    fn witness_over_the_tuple_budget_is_refused_before_building() {
        let engine = ServeEngine::new();
        // The triangle's certificate puts two colours on each atom:
        // 3 * 600^2 = 1,080,000 tuples, past the 2^20 budget.
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"analyze","query":"{TRIANGLE}","witness":600}}"#
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("budget of 1048576"), "{error}");
        // In a batch the refusal is per entry, like a parse error.
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"batch","queries":[{{"query":"{TRIANGLE}"}}],"witness":1000000}}"#
        )));
        let reports = resp.get("reports").and_then(Json::as_array).unwrap();
        let error = reports[0].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("budget"), "{error}");
        // A witness within the budget is built and measured (the exact
        // edge is pinned in the session's tests).
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"analyze","query":"{TRIANGLE}","witness":3}}"#
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn witness_whose_count_passes_u64_is_answered() {
        let engine = ServeEngine::new();
        // 4 * 65,536 tuples fit the budget; the 2^64 answers saturate the
        // count instead of overflowing it.
        let resp = parse(&engine.handle_line(
            r#"{"cmd":"analyze","query":"Q(A,B,C,D) :- R(A), S(B), T(C), U(D)","witness":65536}"#,
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn batch_keeps_queries_aligned_and_caps_size() {
        let engine = ServeEngine::new();
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"batch","queries":[{{"name":"tri","query":"{TRIANGLE}"}},{{"name":"bad","query":"nope"}},{{"query":"Q(X,Y) :- R(X,Y)"}}]}}"#
        )));
        let reports = resp.get("reports").and_then(Json::as_array).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].get("name").and_then(Json::as_str), Some("tri"));
        assert!(reports[1].get("error").is_some());
        assert_eq!(reports[2].get("name").and_then(Json::as_str), Some("q2"));

        let huge: Vec<String> = (0..MAX_BATCH + 1)
            .map(|_| format!(r#"{{"query":"{TRIANGLE}"}}"#))
            .collect();
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"batch","queries":[{}]}}"#,
            huge.join(",")
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("exceeds the limit"));
        let stats = engine.stats();
        assert_eq!(stats.batches, 1, "the oversized batch was refused");
        assert_eq!(stats.analyses, 3);
    }

    #[test]
    fn stats_counters_sum_the_served_reports() {
        let engine = ServeEngine::new();
        let compound = r#"Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]"#;
        let cycle = "Q(A,B,C,D) :- R(A,B), R(B,C), R(C,D), R(D,A)";
        let lines = [
            format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#),
            format!(r#"{{"cmd":"analyze","query":"{compound}"}}"#),
            r#"{"cmd":"analyze","query":"Q(X,Z) :- R(X,Y), S(Y,Z)","witness":2}"#.to_owned(),
            format!(
                r#"{{"cmd":"batch","queries":[{{"query":"{cycle}"}},{{"query":"nope"}},{{"query":"{TRIANGLE}"}}]}}"#
            ),
        ];
        let mut reports = Vec::new();
        for line in &lines {
            let resp = parse(&engine.handle_line(line));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{line}");
            match resp.get("reports") {
                Some(batch) => reports.extend(batch.as_array().unwrap().iter().cloned()),
                None => reports.push(resp.get("report").unwrap().clone()),
            }
        }
        assert_eq!(reports.len(), 6);

        let mut sum = LpWork::default();
        for stats in reports.iter().filter_map(|r| r.get("solver_stats")) {
            sum.merge(&LpWork::from_fields(|name| {
                stats.get(name).and_then(Json::as_i64).unwrap() as u64
            }));
        }
        // Three coloring-LP misses and the entropy LPs really solved.
        assert!(sum.dense_solves >= 3, "{sum:?}");
        assert!(sum.hybrid_solves + sum.sparse_solves >= 1, "{sum:?}");
        assert_eq!(engine.stats().lp, sum);

        let resp = parse(&engine.handle_line(r#"{"cmd":"stats"}"#));
        let stats = resp.get("stats").unwrap();
        let served = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap() as u64;
        for (name, value) in sum.fields() {
            if !matches!(name, "refactorizations" | "float_pivots") {
                assert_eq!(served(&format!("lp_{name}")), value, "lp_{name}");
            }
        }
        let with_widths = reports.iter().filter(|r| r.get("widths").is_some()).count();
        assert_eq!(with_widths, 5, "the parse error has no widths");
        assert_eq!(
            served("width_exact") + served("width_heuristic"),
            with_widths as u64
        );
    }

    #[test]
    fn cache_command_saves_and_loads_between_engines() {
        let path =
            std::env::temp_dir().join(format!("cq_engine_cache_cmd_{}.snap", std::process::id()));
        let path_str = path.to_str().unwrap();

        let warm = ServeEngine::new();
        warm.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        let resp = parse(&warm.handle_line(&format!(
            r#"{{"cmd":"cache","op":"save","path":"{path_str}"}}"#
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("cmd").and_then(Json::as_str), Some("cache"));
        assert_eq!(resp.get("entries").and_then(Json::as_i64), Some(1));

        // A second engine loads the snapshot over the wire and then
        // serves an isomorphic triangle as a pure hit.
        let cold = ServeEngine::new();
        let resp = parse(&cold.handle_line(&format!(
            r#"{{"cmd":"cache","op":"load","path":"{path_str}"}}"#
        )));
        assert_eq!(resp.get("merged").and_then(Json::as_i64), Some(1));
        let resp = parse(
            &cold.handle_line(r#"{"cmd":"analyze","query":"T(C,A,B) :- E(B,C), E(A,B), E(A,C)"}"#),
        );
        let cache = resp.get("cache_stats").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
        assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(0));
        assert_eq!(cold.stats().lp.pivots, 0, "a loaded entry solves nothing");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_command_rejects_bad_requests() {
        let engine = ServeEngine::new();
        for (line, what) in [
            (r#"{"cmd":"cache"}"#.to_owned(), "\"op\" field"),
            (
                r#"{"cmd":"cache","op":"gossip"}"#.to_owned(),
                "unknown cache op",
            ),
            (
                r#"{"cmd":"cache","op":"save"}"#.to_owned(),
                "needs a \"path\"",
            ),
            (
                r#"{"cmd":"cache","op":"load","path":"/nonexistent/cq.snap"}"#.to_owned(),
                "io error",
            ),
        ] {
            let resp = parse(&engine.handle_line(&line));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{line}");
            let error = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(what), "{line}: {error}");
        }
        let no_cache = ServeEngine::new().without_cache();
        let resp = parse(&no_cache.handle_line(r#"{"cmd":"cache","op":"save","path":"/tmp/x"}"#));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("disabled"));
    }

    #[test]
    fn restricted_engines_reject_client_chosen_paths() {
        let engine = ServeEngine::new().restrict_cache_paths();
        let resp = parse(&engine.handle_line(r#"{"cmd":"cache","op":"save","path":"/tmp/x"}"#));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("disabled on this transport"));
        // The pathless form still works once a --cache-file exists.
        let path =
            std::env::temp_dir().join(format!("cq_engine_restricted_{}.snap", std::process::id()));
        let (engine, loaded) = ServeEngine::new()
            .restrict_cache_paths()
            .with_cache_file(&path)
            .unwrap();
        assert_eq!(loaded, 0);
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        let resp = parse(&engine.handle_line(r#"{"cmd":"cache","op":"save"}"#));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("entries").and_then(Json::as_i64), Some(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_load_is_a_structured_error() {
        let path = std::env::temp_dir().join(format!(
            "cq_engine_cache_corrupt_{}.snap",
            std::process::id()
        ));
        std::fs::write(&path, "{\"format\":\"cq-lpcache\",\"vers").unwrap();
        let engine = ServeEngine::new();
        let resp = parse(&engine.handle_line(&format!(
            r#"{{"cmd":"cache","op":"load","path":"{}"}}"#,
            path.to_str().unwrap()
        )));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("malformed cache snapshot"), "{error}");
        // ... and the daemon keeps serving.
        let resp =
            parse(&engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#)));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_reports_per_shard_evictions() {
        let engine = ServeEngine::new();
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        let resp = parse(&engine.handle_line(r#"{"cmd":"stats"}"#));
        let shards = resp
            .get("stats")
            .and_then(|s| s.get("cache_shards"))
            .and_then(Json::as_array)
            .expect("stats carries cache_shards");
        assert_eq!(shards.len(), 16);
        let entries: i64 = shards
            .iter()
            .map(|s| s.get("entries").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(entries, 1);
        assert!(shards
            .iter()
            .all(|s| s.get("evictions").and_then(Json::as_i64) == Some(0)));
        // Cache off: the array is empty rather than 16 zeros.
        let no_cache = ServeEngine::new().without_cache();
        let resp = parse(&no_cache.handle_line(r#"{"cmd":"stats"}"#));
        let shards = resp
            .get("stats")
            .and_then(|s| s.get("cache_shards"))
            .and_then(Json::as_array)
            .unwrap();
        assert!(shards.is_empty());
    }

    #[test]
    fn stats_snapshot_counts_itself() {
        let engine = ServeEngine::new();
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        engine.handle_line("garbage");
        let resp = parse(&engine.handle_line(r#"{"id":9,"cmd":"stats"}"#));
        let stats = resp.get("stats").unwrap();
        assert_eq!(stats.get("requests").and_then(Json::as_i64), Some(3));
        assert_eq!(stats.get("analyses").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("errors").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn stats_counts_exact_and_heuristic_widths() {
        let engine = ServeEngine::new();
        // A 3-var triangle sits well under MAX_EXACT_DECOMP_VARS.
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{TRIANGLE}"}}"#));
        // A query with more variables than the exact cap takes the
        // greedy path and counts as heuristic.
        let n = cq_core::MAX_EXACT_DECOMP_VARS + 2;
        let body: Vec<String> = (0..n)
            .map(|i| format!("R{i}(X{i},X{})", (i + 1) % n))
            .collect();
        let head: Vec<String> = (0..n).map(|i| format!("X{i}")).collect();
        let big = format!("Q({}) :- {}", head.join(","), body.join(", "));
        engine.handle_line(&format!(r#"{{"cmd":"analyze","query":"{big}"}}"#));
        let resp = parse(&engine.handle_line(r#"{"cmd":"stats"}"#));
        let stats = resp.get("stats").unwrap();
        assert_eq!(stats.get("width_exact").and_then(Json::as_i64), Some(1));
        assert_eq!(stats.get("width_heuristic").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn serve_connection_orders_pipelined_responses() {
        let engine = ServeEngine::new().with_workers(8);
        let mut input = String::new();
        for i in 0..32 {
            input.push_str(&format!(
                r#"{{"id":{i},"cmd":"analyze","query":"{TRIANGLE}"}}"#
            ));
            input.push('\n');
        }
        input.push_str("{\"id\":32,\"cmd\":\"stats\"}\n");
        let mut out: Vec<u8> = Vec::new();
        engine
            .serve_connection(io::Cursor::new(input), &mut out)
            .unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 33);
        for (i, line) in lines.iter().enumerate() {
            let resp = parse(line);
            assert_eq!(
                resp.get("id").and_then(Json::as_i64),
                Some(i as i64),
                "responses must come back in request order"
            );
        }
    }

    #[test]
    fn serve_connection_skips_blank_lines_and_survives_errors() {
        let engine = ServeEngine::new();
        let input = format!("\n\nnot json\n{{\"cmd\":\"analyze\",\"query\":\"{TRIANGLE}\"}}\n\n");
        let mut out: Vec<u8> = Vec::new();
        engine
            .serve_connection(io::Cursor::new(input), &mut out)
            .unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "blank lines get no response");
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[1].contains("\"ok\":true"));
    }

    #[test]
    fn serve_connection_bounds_the_request_line() {
        let engine = ServeEngine::new();
        // Exactly at the limit: a stats request padded with blanks.
        let request = "{\"id\":1,\"cmd\":\"stats\"}";
        let mut input = request.to_owned();
        input.push_str(&" ".repeat(MAX_LINE_BYTES - request.len()));
        input.push('\n');
        // One byte over, with no newline in reach: answered, then the
        // connection ends before the request after it is read.
        input.push_str(&"x".repeat(MAX_LINE_BYTES + 1));
        input.push_str("\n{\"id\":3,\"cmd\":\"stats\"}\n");
        let mut out: Vec<u8> = Vec::new();
        engine
            .serve_connection(io::Cursor::new(input), &mut out)
            .unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(parse(lines[0]).get("id").and_then(Json::as_i64), Some(1));
        let rejected = parse(lines[1]);
        assert_eq!(rejected.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(rejected.get("id"), Some(&Json::Null));
        assert!(rejected
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exceeds the limit")));
        assert_eq!(engine.stats().errors, 1);
    }

    /// Runs `serve_connection` over `input` on its own thread, so a hang
    /// fails the test after a timeout instead of stalling the suite.
    fn serve_bounded<W: Write + Send + 'static>(
        engine: ServeEngine,
        input: String,
        mut writer: W,
    ) -> (io::Result<()>, W) {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = engine.serve_connection(io::Cursor::new(input), &mut writer);
            let _ = done_tx.send((result, writer));
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("serve_connection hung")
    }

    #[test]
    fn panicking_request_is_answered_in_turn_and_the_connection_serves_on() {
        let engine = ServeEngine::new().with_workers(4);
        let mut input = String::new();
        for i in 0..8 {
            let line = if i == 3 {
                r#"{"id":3,"cmd":"test","panic":true}"#.to_owned()
            } else {
                format!(r#"{{"id":{i},"cmd":"analyze","query":"{TRIANGLE}"}}"#)
            };
            input.push_str(&line);
            input.push('\n');
        }
        let (result, out) = serve_bounded(engine, input, Vec::new());
        result.unwrap();
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        assert_eq!(lines.len(), 8);
        for (i, resp) in lines.iter().enumerate() {
            assert_eq!(resp.get("id").and_then(Json::as_i64), Some(i as i64));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(i != 3)), "{resp:?}");
        }
        let error = lines[3].get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("injected test panic"), "{error}");

        // Inline (a lone line on an idle connection) as well as pooled:
        // the panic is answered and the next request still runs, and
        // the in-flight count comes back to zero either way.
        let engine = ServeEngine::new();
        let mut out = Vec::new();
        for line in [
            r#"{"id":"p","cmd":"test","panic":true}"#,
            r#"{"id":"s","cmd":"stats"}"#,
        ] {
            engine
                .serve_connection(io::Cursor::new(format!("{line}\n")), &mut out)
                .unwrap();
        }
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        assert_eq!(lines[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("p"));
        let stats = lines[1].get("stats").unwrap();
        assert_eq!(stats.get("errors").and_then(Json::as_i64), Some(1));
        assert_eq!(
            stats.get("requests_in_flight").and_then(Json::as_i64),
            Some(1),
            "only the stats request itself"
        );
        assert_eq!(engine.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pipelined_lines_run_in_parallel_and_a_lone_line_runs_inline() {
        // Both lines sit in one buffer, so both go to the pool, and each
        // answers only once the other is running too.
        let engine = ServeEngine::new().with_workers(2);
        let input = concat!(
            r#"{"id":0,"cmd":"test","meet":"pair"}"#,
            "\n",
            r#"{"id":1,"cmd":"test","meet":"pair"}"#,
            "\n"
        );
        let (result, out) = serve_bounded(engine, input.to_owned(), Vec::new());
        result.unwrap();
        let lines: Vec<Json> = std::str::from_utf8(&out)
            .unwrap()
            .lines()
            .map(parse)
            .collect();
        assert_eq!(lines.len(), 2);
        for resp in &lines {
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        }

        // A lone line on an idle connection runs on the reading thread.
        let reader = std::thread::Builder::new()
            .name("conn-reader".to_owned())
            .spawn(|| {
                let mut out = Vec::new();
                ServeEngine::new()
                    .serve_connection(io::Cursor::new("{\"cmd\":\"test\"}\n"), &mut out)
                    .unwrap();
                out
            })
            .unwrap();
        let out = reader.join().unwrap();
        let resp = parse(std::str::from_utf8(&out).unwrap().trim());
        assert_eq!(
            resp.get("thread").and_then(Json::as_str),
            Some("conn-reader")
        );
    }

    /// Accepts one write, then fails every later one.
    struct FailAfterFirst {
        written: Arc<Mutex<Vec<u8>>>,
        writes: usize,
    }

    impl Write for FailAfterFirst {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                return Err(io::Error::new(ErrorKind::BrokenPipe, "peer gone"));
            }
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_failure_ends_the_connection_and_drains_the_workers() {
        let engine = ServeEngine::new().with_workers(2);
        let mut input = String::new();
        // More requests than the queue holds, so the reader is still
        // admitting work when the write fails.
        for i in 0..QUEUE_DEPTH * 3 {
            input.push_str(&format!(r#"{{"id":{i},"cmd":"stats"}}"#));
            input.push('\n');
        }
        let written = Arc::new(Mutex::new(Vec::new()));
        let writer = FailAfterFirst {
            written: Arc::clone(&written),
            writes: 0,
        };
        let (result, _) = serve_bounded(engine, input, writer);
        let err = result.expect_err("the write error is returned");
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        let written = written.lock().unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&written).unwrap().lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(parse(lines[0]).get("id").and_then(Json::as_i64), Some(0));
    }
}
