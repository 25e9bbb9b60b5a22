//! # cq-telemetry — spans, metrics and a scrapeable exposition
//!
//! The observability layer of `cqbounds`, hand-rolled like the rest of
//! the workspace (no tracing/prometheus crates, std only, at the bottom
//! of the dependency graph so every layer above can record into it).
//!
//! Three pieces:
//!
//! - [`Metrics`] — a process-wide registry of atomic [`Counter`]s,
//!   [`Gauge`]s and log₂-bucketed [`Histogram`]s. Recording is a handful
//!   of relaxed atomic operations. A [`MetricsSnapshot`] is a plain
//!   value: its [`HistogramSnapshot`]s derive count and quantiles from
//!   their buckets, and snapshots merge across processes and diff
//!   across probes. [`Metrics::global`] is the registry the wired
//!   layers (session, LP, cache, serve, cluster) record into.
//! - [`Span`] — RAII phase timing. [`Span::enter`]`("phase")` opens a
//!   span; dropping it emits one NDJSON event to the installed
//!   [`TraceSink`] with parent/child nesting (thread-local stack) and
//!   the current request's `trace_id` ([`TraceContext`]). With no sink
//!   installed and no collector active, a span is a no-op — the wired
//!   code paths stay inert (see the differential guard in
//!   `tests/telemetry.rs`).
//! - [`expo`] — the Prometheus-style text exposition
//!   (`cq-serve --metrics-file`) with a strict parser so the format is
//!   round-trip tested and cannot silently drift.
//!
//! `CQ_TRACE=stderr|PATH` (or `--trace` on the binaries) installs the
//! NDJSON sink via [`init_tracing`]; the PR 6 `CQ_HYBRID_TRACE` env var
//! survives as a deprecated alias for `CQ_TRACE=stderr`. Span model,
//! naming conventions and the wire format live in `docs/TELEMETRY.md`.
//!
//! ```
//! use cq_telemetry::Metrics;
//!
//! let metrics = Metrics::new();
//! metrics.counter("demo_requests_total").inc();
//! metrics.histogram("demo_latency_micros").observe(300);
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counters[0], ("demo_requests_total".to_owned(), 1));
//! assert_eq!(snap.histograms[0].1.count(), 1);
//! // 300 falls in the bucket (255, 511]: p50 reports its upper bound.
//! assert_eq!(snap.histograms[0].1.quantile(50), 511);
//! ```

pub mod expo;
pub mod metrics;
pub mod span;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Metrics,
    MetricsSnapshot, BUCKETS,
};
pub use span::{
    emit_event, fresh_trace_id, init_tracing, next_span_id, now_micros, phase, render_span_tree,
    tracing_enabled, NdjsonSink, Phase, Span, SpanEvent, TraceContext, TraceSink, TraceTarget,
};
