//! RAII span tracing with parent/child nesting and NDJSON emission.
//!
//! A [`Span`] measures one phase: [`Span::enter`] stamps the clock and
//! pushes the span onto a thread-local nesting stack; dropping it pops
//! the stack and emits one [`SpanEvent`] to the process-wide
//! [`TraceSink`] (if one is installed) and to the current thread's
//! collector (if a [`TraceContext`] asked to collect — the slow-query
//! log's path). With neither active a span is a no-op: no clock read,
//! no allocation — the wired code paths cost nothing when tracing is
//! off, which is what lets the differential guard demand bit-identical
//! results with `CQ_TRACE` on and off.
//!
//! Nesting is per thread. Work that hops threads (the serve layer's
//! queue-wait and response-write phases, measured on the reader and
//! writer threads) is stitched in by constructing a [`SpanEvent`] with
//! an explicit parent and handing it to [`emit_event`].

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Histogram, Metrics};
use std::sync::Arc;

/// One closed span, as emitted to sinks and collectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name (`layer.phase`, e.g. `serve.execute`).
    pub name: &'static str,
    /// The request's trace id, when one is in scope.
    pub trace_id: Option<Arc<str>>,
    /// Process-unique span id.
    pub span_id: u64,
    /// Enclosing span on the same logical request, if any.
    pub parent_id: Option<u64>,
    /// Start time in microseconds since the process trace epoch.
    pub start_micros: u64,
    /// Wall-clock duration in microseconds.
    pub duration_micros: u64,
    /// Counts recorded on the span ([`Span::record`]), in order.
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanEvent {
    /// The NDJSON rendering: one JSON object, no trailing newline.
    /// `trace_id` and `parent` are omitted (not null) when absent; each
    /// attribute follows `micros` as an integer field of its own.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":\"");
        escape_into(self.name, &mut out);
        out.push('"');
        if let Some(id) = &self.trace_id {
            out.push_str(",\"trace_id\":\"");
            escape_into(id, &mut out);
            out.push('"');
        }
        out.push_str(&format!(",\"span\":{}", self.span_id));
        if let Some(parent) = self.parent_id {
            out.push_str(&format!(",\"parent\":{parent}"));
        }
        out.push_str(&format!(
            ",\"start_micros\":{},\"micros\":{}",
            self.start_micros, self.duration_micros
        ));
        for (key, value) in &self.attrs {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push('}');
        out
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Where closed spans go. Implementations must tolerate concurrent
/// `emit` calls from many threads.
pub trait TraceSink: Send + Sync {
    fn emit(&self, event: &SpanEvent);
}

static SINK: OnceLock<Box<dyn TraceSink>> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process trace epoch (the first telemetry
/// clock read). Shared by every thread, so span start times are
/// mutually comparable within one trace file.
pub fn now_micros() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Allocates a process-unique span id for a manually-constructed
/// [`SpanEvent`] (the cross-thread stitching path of [`emit_event`]).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Installs the process-wide sink. Returns `false` (leaving the
/// existing sink in place) if one was already installed.
fn install_sink(sink: Box<dyn TraceSink>) -> bool {
    SINK.set(sink).is_ok()
}

/// Whether a sink is installed (spans are being emitted).
pub fn tracing_enabled() -> bool {
    SINK.get().is_some()
}

struct ThreadCtx {
    trace_id: Option<Arc<str>>,
    parent: Option<u64>,
    collect: bool,
    collected: Vec<SpanEvent>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { trace_id: None, parent: None, collect: false, collected: Vec::new() })
    };
}

/// Hands `event` to the thread's collector (if collecting) and the
/// installed sink (if any). The escape hatch for spans measured off
/// the thread that owns the request — construct the event with an
/// explicit `parent_id` and emit it here.
pub fn emit_event(event: SpanEvent) {
    CTX.with(|ctx| {
        let mut c = ctx.borrow_mut();
        if c.collect {
            c.collected.push(event.clone());
        }
    });
    if let Some(sink) = SINK.get() {
        sink.emit(&event);
    }
}

/// An open span. Created by [`Span::enter`], closed (and emitted) on
/// drop.
pub struct Span {
    active: bool,
    name: &'static str,
    id: u64,
    prev_parent: Option<u64>,
    start: Option<Instant>,
    start_micros: u64,
    attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Opens a span named `name` under the thread's current span. A
    /// no-op unless a sink is installed or the current [`TraceContext`]
    /// is collecting.
    pub fn enter(name: &'static str) -> Span {
        let collecting = CTX.with(|ctx| ctx.borrow().collect);
        if !tracing_enabled() && !collecting {
            return Span {
                active: false,
                name,
                id: 0,
                prev_parent: None,
                start: None,
                start_micros: 0,
                attrs: Vec::new(),
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let prev_parent = CTX.with(|ctx| {
            let mut c = ctx.borrow_mut();
            c.parent.replace(id)
        });
        Span {
            active: true,
            name,
            id,
            prev_parent,
            start: Some(Instant::now()),
            start_micros: now_micros(),
            attrs: Vec::new(),
        }
    }

    /// Records `value` under `key` in the event this span emits; a
    /// no-op for an inactive span. `key` must need no JSON escaping.
    pub fn record(&mut self, key: &'static str, value: u64) {
        if self.active {
            self.attrs.push((key, value));
        }
    }

    /// This span's id (0 for an inactive span) — the parent to give
    /// manually-emitted child events.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether this span will emit an event on drop.
    pub fn active(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let duration_micros = self
            .start
            .map_or(0, |start| start.elapsed().as_micros() as u64);
        let trace_id = CTX.with(|ctx| {
            let mut c = ctx.borrow_mut();
            c.parent = self.prev_parent;
            c.trace_id.clone()
        });
        emit_event(SpanEvent {
            name: self.name,
            trace_id,
            span_id: self.id,
            parent_id: self.prev_parent,
            start_micros: self.start_micros,
            duration_micros,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Scoped trace identity for the current thread: spans opened while
/// the guard lives carry `trace_id`, and — when `collect` is set — are
/// also accumulated for [`TraceContext::take_collected`] (the
/// slow-query log reads the full tree there). The first span opened
/// under the guard is a root: a span still open in the outer context
/// belongs to another trace, so it is not its parent. Contexts nest;
/// dropping the guard restores the outer one.
pub struct TraceContext {
    prev_trace_id: Option<Arc<str>>,
    prev_parent: Option<u64>,
    prev_collect: bool,
    prev_collected: Vec<SpanEvent>,
}

impl TraceContext {
    pub fn enter(trace_id: Option<&str>, collect: bool) -> TraceContext {
        CTX.with(|ctx| {
            let mut c = ctx.borrow_mut();
            TraceContext {
                prev_trace_id: std::mem::replace(&mut c.trace_id, trace_id.map(Arc::from)),
                prev_parent: c.parent.take(),
                prev_collect: std::mem::replace(&mut c.collect, collect),
                prev_collected: std::mem::take(&mut c.collected),
            }
        })
    }

    /// The events collected so far under this context (empty unless the
    /// context was entered with `collect`).
    pub fn take_collected(&mut self) -> Vec<SpanEvent> {
        CTX.with(|ctx| std::mem::take(&mut ctx.borrow_mut().collected))
    }
}

impl Drop for TraceContext {
    fn drop(&mut self) {
        CTX.with(|ctx| {
            let mut c = ctx.borrow_mut();
            c.trace_id = self.prev_trace_id.take();
            c.parent = self.prev_parent;
            c.collect = self.prev_collect;
            c.collected = std::mem::take(&mut self.prev_collected);
        });
    }
}

static TRACE_SEED: OnceLock<u64> = OnceLock::new();
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// A process-unique trace id: a per-process seed (pid ⊕ wall clock)
/// plus a counter, rendered as fixed-width hex.
pub fn fresh_trace_id() -> String {
    let seed = *TRACE_SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        (std::process::id() as u64) << 32 ^ nanos
    });
    format!(
        "{:016x}-{:04x}",
        seed,
        NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
    )
}

/// A phase guard: a [`Span`] plus an always-on latency histogram in
/// the global [`Metrics`] registry. This is the one-liner the wired
/// layers use — tracing may be off, but the histogram records either
/// way, so `--metrics-file` and the `metrics` command always have
/// phase latencies to report.
pub struct Phase {
    span: Span,
    hist: Arc<Histogram>,
    start: Instant,
}

impl Phase {
    /// Records a count on the phase's span ([`Span::record`]): a no-op
    /// unless the span is active.
    pub fn record(&mut self, key: &'static str, value: u64) {
        self.span.record(key, value);
    }
}

/// Opens a span named `span_name` and times the scope into the global
/// histogram `hist_name` (microseconds).
pub fn phase(span_name: &'static str, hist_name: &str) -> Phase {
    Phase {
        span: Span::enter(span_name),
        hist: Metrics::global().histogram(hist_name),
        start: Instant::now(),
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_micros() as u64);
    }
}

/// Where `CQ_TRACE` points the NDJSON stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceTarget {
    Stderr,
    File(PathBuf),
}

/// Resolves the trace destination from the environment and the
/// binary's `--trace` flag:
///
/// - `CQ_TRACE=stderr` → stderr; `CQ_TRACE=PATH` → that file;
/// - `CQ_HYBRID_TRACE` (the PR 6 env var, now an alias) → stderr, with
///   a one-line deprecation note on stderr;
/// - `--trace` with neither variable set → stderr;
/// - otherwise tracing stays off.
fn trace_target_from_env(flag: bool) -> Option<TraceTarget> {
    if let Ok(value) = std::env::var("CQ_TRACE") {
        return Some(match value.as_str() {
            "stderr" | "" => TraceTarget::Stderr,
            path => TraceTarget::File(PathBuf::from(path)),
        });
    }
    if std::env::var_os("CQ_HYBRID_TRACE").is_some() {
        eprintln!(
            "cq-telemetry: CQ_HYBRID_TRACE is deprecated; use CQ_TRACE=stderr \
             (or --trace) for span NDJSON"
        );
        return Some(TraceTarget::Stderr);
    }
    flag.then_some(TraceTarget::Stderr)
}

/// Installs an [`NdjsonSink`] where `CQ_TRACE` or the binary's
/// `--trace` flag points it (see `trace_target_from_env`). Returns
/// whether tracing is now enabled. Binaries call this once at startup.
pub fn init_tracing(flag: bool) -> std::io::Result<bool> {
    match trace_target_from_env(flag) {
        None => Ok(tracing_enabled()),
        Some(target) => {
            install_sink(Box::new(NdjsonSink::open(&target)?));
            Ok(true)
        }
    }
}

enum SinkOut {
    Stderr,
    File(BufWriter<File>),
}

/// The standard sink: one NDJSON line per span close, flushed per line
/// (workers are sometimes SIGKILLed; a buffered tail would vanish).
pub struct NdjsonSink {
    out: Mutex<SinkOut>,
}

impl NdjsonSink {
    /// Opens the sink. File targets open in **append** mode (repeated
    /// runs pointed at one path accumulate instead of clobbering each
    /// other) and start with a `trace.header` line so consumers can
    /// segment a multi-run file at process boundaries.
    pub fn open(target: &TraceTarget) -> std::io::Result<NdjsonSink> {
        let out = match target {
            TraceTarget::Stderr => SinkOut::Stderr,
            TraceTarget::File(path) => {
                let file = File::options().append(true).create(true).open(path)?;
                let mut writer = BufWriter::new(file);
                writeln!(writer, "{}", header_event())?;
                writer.flush()?;
                SinkOut::File(writer)
            }
        };
        Ok(NdjsonSink {
            out: Mutex::new(out),
        })
    }
}

/// The per-process header line a file sink writes on open: a
/// `trace.header` pseudo-span (so the line carries the standard
/// `name`/`span`/`start_micros`/`micros` fields every NDJSON consumer
/// expects, with zero duration) extended with the process identity —
/// `pid`, `argv0` and the wall clock in `unix_micros`. A file that
/// several process runs appended to contains one header per run;
/// span ids are only unique within a run, so consumers segment on
/// these lines before resolving parent pointers.
fn header_event() -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"name\":\"trace.header\"");
    out.push_str(&format!(",\"span\":{}", next_span_id()));
    out.push_str(&format!(",\"start_micros\":{},\"micros\":0", now_micros()));
    out.push_str(&format!(",\"pid\":{}", std::process::id()));
    out.push_str(",\"argv0\":\"");
    let argv0 = std::env::args().next().unwrap_or_default();
    escape_into(&argv0, &mut out);
    out.push('"');
    let unix_micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64);
    out.push_str(&format!(",\"unix_micros\":{unix_micros}}}"));
    out
}

impl TraceSink for NdjsonSink {
    fn emit(&self, event: &SpanEvent) {
        let line = event.render();
        let mut out = self.out.lock().expect("trace sink lock");
        match &mut *out {
            SinkOut::Stderr => {
                let stderr = std::io::stderr();
                let mut handle = stderr.lock();
                let _ = writeln!(handle, "{line}");
            }
            SinkOut::File(file) => {
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
            }
        }
    }
}

/// Renders collected span events as an indented tree (the slow-query
/// log's format): children appear under their parent, ordered by start
/// time; spans whose parent is outside the collection are roots.
pub fn render_span_tree(events: &[SpanEvent]) -> String {
    let ids: std::collections::HashSet<u64> = events.iter().map(|e| e.span_id).collect();
    let mut children: std::collections::BTreeMap<u64, Vec<&SpanEvent>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<&SpanEvent> = Vec::new();
    for event in events {
        match event.parent_id.filter(|p| ids.contains(p)) {
            Some(parent) => children.entry(parent).or_default().push(event),
            None => roots.push(event),
        }
    }
    let by_start = |a: &&SpanEvent, b: &&SpanEvent| {
        a.start_micros
            .cmp(&b.start_micros)
            .then(a.span_id.cmp(&b.span_id))
    };
    roots.sort_by(by_start);
    for list in children.values_mut() {
        list.sort_by(by_start);
    }
    let mut out = String::new();
    let mut stack: Vec<(&SpanEvent, usize)> = roots.into_iter().rev().map(|e| (e, 0)).collect();
    while let Some((event, depth)) = stack.pop() {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("{} {}us\n", event.name, event.duration_micros));
        if let Some(kids) = children.get(&event.span_id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_spans_are_free_and_idless() {
        // No sink installed in unit tests, no collector: inert.
        let mut span = Span::enter("test.phase");
        assert!(!span.active());
        assert_eq!(span.id(), 0);
        span.record("bytes", 1);
        assert!(span.attrs.is_empty());
    }

    #[test]
    fn collecting_context_nests_spans() {
        let mut ctx = TraceContext::enter(Some("trace-1"), true);
        {
            let mut outer = Span::enter("test.outer");
            assert!(outer.active());
            outer.record("rows", 3);
            let _inner = Span::enter("test.inner");
        }
        let events = ctx.take_collected();
        // Children close first: inner, then outer.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "test.inner");
        assert_eq!(events[0].parent_id, Some(events[1].span_id));
        assert!(events[0].attrs.is_empty());
        assert_eq!(events[1].name, "test.outer");
        assert_eq!(events[1].parent_id, None);
        assert_eq!(events[1].attrs, [("rows", 3)]);
        for event in &events {
            assert_eq!(event.trace_id.as_deref(), Some("trace-1"));
        }
    }

    #[test]
    fn contexts_nest_and_restore() {
        let mut outer = TraceContext::enter(Some("outer"), true);
        {
            let _span = Span::enter("test.before");
        }
        {
            let _open = Span::enter("test.open");
            let mut inner = TraceContext::enter(Some("inner"), true);
            let _span = Span::enter("test.within");
            drop(_span);
            let events = inner.take_collected();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].trace_id.as_deref(), Some("inner"));
            // The outer context's open span is in another trace.
            assert_eq!(events[0].parent_id, None);
            drop(inner);
            let _child = Span::enter("test.child");
        }
        {
            let _span = Span::enter("test.after");
        }
        let events = outer.take_collected();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["test.before", "test.child", "test.open", "test.after"]
        );
        // Dropping the inner guard restored the outer parent.
        assert_eq!(events[1].parent_id, Some(events[2].span_id));
        assert!(events
            .iter()
            .all(|e| e.trace_id.as_deref() == Some("outer")));
    }

    #[test]
    fn events_render_as_one_json_object() {
        let event = SpanEvent {
            name: "serve.execute",
            trace_id: Some(Arc::from("abc-1")),
            span_id: 7,
            parent_id: Some(3),
            start_micros: 10,
            duration_micros: 25,
            attrs: Vec::new(),
        };
        assert_eq!(
            event.render(),
            "{\"name\":\"serve.execute\",\"trace_id\":\"abc-1\",\"span\":7,\
             \"parent\":3,\"start_micros\":10,\"micros\":25}"
        );
        let rootless = SpanEvent {
            trace_id: None,
            parent_id: None,
            attrs: vec![("bytes", 120), ("tuples", 4)],
            ..event
        };
        assert_eq!(
            rootless.render(),
            "{\"name\":\"serve.execute\",\"span\":7,\"start_micros\":10,\"micros\":25,\
             \"bytes\":120,\"tuples\":4}"
        );
    }

    #[test]
    fn fresh_trace_ids_are_unique() {
        let a = fresh_trace_id();
        let b = fresh_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), "0123456789abcdef-0001".len());
    }

    #[test]
    fn span_tree_renders_nested() {
        let events = vec![
            SpanEvent {
                name: "serve.execute",
                trace_id: None,
                span_id: 2,
                parent_id: Some(1),
                start_micros: 5,
                duration_micros: 90,
                attrs: Vec::new(),
            },
            SpanEvent {
                name: "serve.request",
                trace_id: None,
                span_id: 1,
                parent_id: None,
                start_micros: 0,
                duration_micros: 100,
                attrs: Vec::new(),
            },
            SpanEvent {
                name: "session.chase",
                trace_id: None,
                span_id: 3,
                parent_id: Some(2),
                start_micros: 6,
                duration_micros: 10,
                attrs: Vec::new(),
            },
        ];
        assert_eq!(
            render_span_tree(&events),
            "serve.request 100us\n  serve.execute 90us\n    session.chase 10us\n"
        );
    }

    #[test]
    fn trace_target_resolution_prefers_explicit_env() {
        // Pure policy helper: no env mutation (undefined behavior with
        // concurrent tests), just the flag-only path.
        if std::env::var_os("CQ_TRACE").is_none() && std::env::var_os("CQ_HYBRID_TRACE").is_none() {
            assert_eq!(trace_target_from_env(false), None);
            assert_eq!(trace_target_from_env(true), Some(TraceTarget::Stderr));
        }
    }

    #[test]
    fn file_sinks_append_and_write_one_header_per_open() {
        let path = std::env::temp_dir().join(format!("cq_span_append_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let event = SpanEvent {
            name: "test.append",
            trace_id: None,
            span_id: 1,
            parent_id: None,
            start_micros: 0,
            duration_micros: 5,
            attrs: Vec::new(),
        };
        for _ in 0..2 {
            let sink = NdjsonSink::open(&TraceTarget::File(path.clone())).unwrap();
            sink.emit(&event);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "2 opens x (header + event): {text}");
        for expected in [0usize, 2] {
            let header = lines[expected];
            assert!(header.contains("\"name\":\"trace.header\""), "{header}");
            // Standard span fields (every consumer requires them) plus
            // the process identity.
            for key in [
                "\"span\":",
                "\"start_micros\":",
                "\"micros\":0",
                "\"pid\":",
                "\"argv0\":",
                "\"unix_micros\":",
            ] {
                assert!(header.contains(key), "header missing {key}: {header}");
            }
        }
        assert!(lines[1].contains("\"name\":\"test.append\""), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phase_records_into_the_global_histogram() {
        let before = Metrics::global().histogram("test_phase_micros").count();
        {
            let _p = phase("test.phase", "test_phase_micros");
        }
        let after = Metrics::global().histogram("test_phase_micros").count();
        assert_eq!(after, before + 1);
    }
}
