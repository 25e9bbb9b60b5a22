//! Trace assembly and analysis over ingested span events.
//!
//! Assembly joins events on their globally-unique `trace_id` and
//! resolves parent pointers within one `(file, segment)` process run.
//! The input is hostile by assumption — a cluster run scatters a
//! trace's duplicate delivery across workers when a chunk is
//! resubmitted, and nothing stops a forged file from containing orphan
//! parents, duplicate span ids or parent cycles — so every pathology
//! degrades to a counted, deterministic report instead of a panic:
//!
//! - **duplicate delivery**: when one trace id appears in several
//!   process runs, the most complete run wins (has a root, then most
//!   spans, then earliest file/segment) and the rest are counted in
//!   [`Trace::duplicates_dropped`];
//! - **duplicate span ids** within a run: first occurrence wins,
//!   counted in [`Trace::duplicate_spans`];
//! - **orphans** (parent id never closed): promoted to roots, counted;
//! - **cycles** (forged parent loops): one edge per cycle is cut, the
//!   cut node becomes a root, counted in [`Trace::cycles_broken`].
//!
//! Analysis accumulates each phase's span durations into the telemetry
//! layer's [`HistogramSnapshot`], so the p50/p95/p99 a trace file
//! yields agree with what the live `metrics` command reports for the
//! same phase, and totals saturate instead of wrapping on forged
//! durations.

use crate::ingest::{Ingest, RawEvent};
use cq_telemetry::HistogramSnapshot;
use std::collections::{BTreeMap, HashMap};

/// One span inside an assembled trace tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    pub name: String,
    pub span: u64,
    /// Resolved parent as an index into [`Trace::spans`].
    pub parent: Option<usize>,
    pub start_micros: u64,
    pub micros: u64,
    pub children: Vec<usize>,
}

/// One assembled per-`trace_id` span tree.
#[derive(Clone, Debug)]
pub struct Trace {
    pub trace_id: String,
    /// Index into [`Assembly::files`] of the winning process run.
    pub file: usize,
    pub segment: usize,
    pub spans: Vec<SpanNode>,
    /// Root indices (no parent, orphaned, or cycle-cut), by start time.
    pub roots: Vec<usize>,
    /// Spans whose parent id never appeared in the run.
    pub orphans: usize,
    /// Later events reusing an already-seen span id (dropped).
    pub duplicate_spans: usize,
    /// Whole process runs holding this trace id that lost the
    /// duplicate-delivery tiebreak (resubmitted cluster chunks).
    pub duplicates_dropped: usize,
    pub cycles_broken: usize,
    /// Duration of the longest root span.
    pub total_micros: u64,
    /// Root-to-leaf chain following the slowest child at each step.
    pub critical_path: Vec<(String, u64)>,
}

impl Trace {
    /// Per-phase span counts within this trace.
    pub fn phase_counts(&self) -> BTreeMap<&str, u64> {
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for node in &self.spans {
            *counts.entry(node.name.as_str()).or_default() += 1;
        }
        counts
    }
}

/// Cluster-wide per-phase aggregation over **all** ingested events
/// (traced or not — single-process `cq-analyze` spans carry no trace
/// id but their time is just as attributable).
#[derive(Clone, Debug)]
pub struct PhaseStat {
    pub name: String,
    /// Total minus the summed durations of direct children: the time
    /// the phase spent in its own code (saturating).
    pub self_micros: u64,
    /// The phase's span durations: count, saturating total, quantiles.
    pub durations: HistogramSnapshot,
}

impl PhaseStat {
    /// The p-th percentile span duration, by the telemetry layer's
    /// log₂-bucket upper-bound convention.
    pub fn quantile(&self, p: u64) -> u64 {
        self.durations.quantile(p)
    }
}

/// The full result of assembling an [`Ingest`].
#[derive(Debug)]
pub struct Assembly {
    pub files: Vec<String>,
    pub warnings: Vec<crate::ingest::Warning>,
    pub headers: Vec<crate::ingest::RunHeader>,
    /// Assembled traces, sorted by trace id (deterministic output).
    pub traces: Vec<Trace>,
    /// Events carrying no trace id (still in [`Assembly::phases`]).
    pub untraced_spans: usize,
    pub spans_total: usize,
    /// Per-phase stats sorted by name.
    pub phases: Vec<PhaseStat>,
}

impl Assembly {
    pub fn orphans_total(&self) -> usize {
        self.traces.iter().map(|t| t.orphans).sum()
    }

    /// The `n` slowest traces, slowest first (ties by trace id).
    pub fn top_slowest(&self, n: usize) -> Vec<&Trace> {
        let mut ranked: Vec<&Trace> = self.traces.iter().collect();
        ranked.sort_by(|a, b| {
            b.total_micros
                .cmp(&a.total_micros)
                .then_with(|| a.trace_id.cmp(&b.trace_id))
        });
        ranked.truncate(n);
        ranked
    }
}

/// Assembles ingested events into per-trace trees and per-phase stats.
pub fn assemble(ingest: Ingest) -> Assembly {
    let Ingest {
        files,
        events,
        headers,
        warnings,
    } = ingest;

    // Direct-child duration sums, keyed by the parent's run-scoped id.
    let mut child_sums: HashMap<(usize, usize, u64), u64> = HashMap::new();
    for event in &events {
        if let Some(parent) = event.parent {
            let sum = child_sums
                .entry((event.file, event.segment, parent))
                .or_default();
            *sum = sum.saturating_add(event.micros);
        }
    }

    let mut phases: BTreeMap<&str, PhaseStat> = BTreeMap::new();
    for event in &events {
        let stat = phases
            .entry(event.name.as_str())
            .or_insert_with(|| PhaseStat {
                name: event.name.clone(),
                self_micros: 0,
                durations: HistogramSnapshot::default(),
            });
        stat.durations.observe(event.micros);
        let children = child_sums
            .get(&(event.file, event.segment, event.span))
            .copied()
            .unwrap_or(0);
        stat.self_micros = stat
            .self_micros
            .saturating_add(event.micros.saturating_sub(children));
    }
    let phases: Vec<PhaseStat> = phases.into_values().collect();

    let mut by_trace: BTreeMap<&str, Vec<&RawEvent>> = BTreeMap::new();
    let mut untraced_spans = 0usize;
    for event in &events {
        match event.trace_id.as_deref() {
            Some(id) => by_trace.entry(id).or_default().push(event),
            None => untraced_spans += 1,
        }
    }

    let traces: Vec<Trace> = by_trace
        .into_iter()
        .map(|(id, group)| assemble_trace(id, group))
        .collect();

    Assembly {
        files,
        warnings,
        headers,
        traces,
        untraced_spans,
        spans_total: events.len(),
        phases,
    }
}

fn assemble_trace(trace_id: &str, events: Vec<&RawEvent>) -> Trace {
    // Split the trace's events by process run. A healthy trace lives
    // in exactly one run; duplicate delivery (a chunk resubmitted
    // after a worker died mid-batch) leaves a partial copy on the dead
    // worker's file and a complete one on the survivor's.
    let mut runs: Vec<((usize, usize), Vec<&RawEvent>)> = Vec::new();
    for event in events {
        let key = (event.file, event.segment);
        match runs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(event),
            None => runs.push((key, vec![event])),
        }
    }
    // Most complete run wins: has a root, then most spans, then the
    // earliest (file, segment). Deterministic whatever the input order.
    runs.sort_by_key(|((file, segment), members)| {
        let has_root = members.iter().any(|e| e.parent.is_none());
        (
            std::cmp::Reverse(has_root),
            std::cmp::Reverse(members.len()),
            *file,
            *segment,
        )
    });
    let duplicates_dropped = runs.len().saturating_sub(1);
    let ((file, segment), mut members) = runs.into_iter().next().expect("nonempty trace group");
    members.sort_by_key(|e| (e.start_micros, e.span));

    // First occurrence of a span id wins; forged reuse is counted.
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut spans: Vec<SpanNode> = Vec::new();
    let mut raw_parents: Vec<Option<u64>> = Vec::new();
    let mut duplicate_spans = 0usize;
    for event in members {
        if index_of.contains_key(&event.span) {
            duplicate_spans += 1;
            continue;
        }
        index_of.insert(event.span, spans.len());
        raw_parents.push(event.parent);
        spans.push(SpanNode {
            name: event.name.clone(),
            span: event.span,
            parent: None,
            start_micros: event.start_micros,
            micros: event.micros,
            children: Vec::new(),
        });
    }

    // Resolve parent ids to indices; a self-parent or an id that never
    // closed is an orphan (promoted to root).
    let mut orphans = 0usize;
    let mut parent_idx: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for (i, raw) in raw_parents.iter().enumerate() {
        let resolved = raw
            .and_then(|p| index_of.get(&p).copied())
            .filter(|&p| p != i);
        if raw.is_some() && resolved.is_none() {
            orphans += 1;
        }
        parent_idx.push(resolved);
    }

    // Cut forged parent cycles: walk each parent chain, coloring nodes
    // in-progress/done; re-entering an in-progress node means the
    // chain looped, so that node's parent edge is cut and it becomes a
    // root.
    let mut cycles_broken = 0usize;
    let mut state: Vec<u8> = vec![0; spans.len()]; // 0 new, 1 walking, 2 done
    for start in 0..spans.len() {
        if state[start] != 0 {
            continue;
        }
        let mut path: Vec<usize> = Vec::new();
        let mut node = start;
        loop {
            match state[node] {
                1 => {
                    parent_idx[node] = None;
                    cycles_broken += 1;
                    break;
                }
                2 => break,
                _ => {
                    state[node] = 1;
                    path.push(node);
                    match parent_idx[node] {
                        Some(parent) => node = parent,
                        None => break,
                    }
                }
            }
        }
        for visited in path {
            state[visited] = 2;
        }
    }

    let mut roots: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        spans[i].parent = parent_idx[i];
        match parent_idx[i] {
            Some(parent) => spans[parent].children.push(i),
            None => roots.push(i),
        }
    }
    // members were sorted by (start, span) before insertion, so
    // children and roots inherit that order already.

    let total_micros = roots.iter().map(|&r| spans[r].micros).max().unwrap_or(0);
    let critical_path = critical_path_from(&spans, &roots);

    Trace {
        trace_id: trace_id.to_owned(),
        file,
        segment,
        spans,
        roots,
        orphans,
        duplicate_spans,
        duplicates_dropped,
        cycles_broken,
        total_micros,
        critical_path,
    }
}

/// Root-to-leaf chain following the slowest child at each step,
/// starting from the slowest root.
fn critical_path_from(spans: &[SpanNode], roots: &[usize]) -> Vec<(String, u64)> {
    let slowest = |candidates: &[usize]| -> Option<usize> {
        candidates
            .iter()
            .copied()
            .max_by_key(|&i| (spans[i].micros, std::cmp::Reverse(spans[i].span)))
    };
    let mut path = Vec::new();
    let mut node = match slowest(roots) {
        Some(root) => root,
        None => return path,
    };
    loop {
        path.push((spans[node].name.clone(), spans[node].micros));
        match slowest(&spans[node].children) {
            Some(next) => node = next,
            None => return path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_bytes;

    fn event(
        name: &str,
        trace_id: Option<&str>,
        span: u64,
        parent: Option<u64>,
        start: u64,
        micros: u64,
    ) -> String {
        let trace = trace_id.map_or(String::new(), |t| format!(",\"trace_id\":\"{t}\""));
        let parent = parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
        format!(
            "{{\"name\":\"{name}\"{trace},\"span\":{span}{parent},\
             \"start_micros\":{start},\"micros\":{micros}}}"
        )
    }

    fn assemble_lines(files: &[&[String]]) -> Assembly {
        let mut ingest = Ingest::default();
        for (i, lines) in files.iter().enumerate() {
            let mut text = lines.join("\n");
            text.push('\n');
            ingest_bytes(&format!("file{i}.trace"), text.as_bytes(), &mut ingest);
        }
        assemble(ingest)
    }

    #[test]
    fn a_healthy_trace_assembles_with_critical_path_and_self_time() {
        let lines = vec![
            event("serve.request", Some("t-1"), 1, None, 0, 100),
            event("serve.execute", Some("t-1"), 2, Some(1), 5, 90),
            event("session.chase", Some("t-1"), 3, Some(2), 6, 10),
            event("session.entropy", Some("t-1"), 4, Some(2), 20, 70),
        ];
        let assembly = assemble_lines(&[&lines]);
        assert_eq!(assembly.traces.len(), 1);
        let trace = &assembly.traces[0];
        assert_eq!(trace.orphans, 0);
        assert_eq!(trace.cycles_broken, 0);
        assert_eq!(trace.total_micros, 100);
        let path: Vec<&str> = trace
            .critical_path
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(path, ["serve.request", "serve.execute", "session.entropy"]);
        // Self time: execute spent 90 - (10 + 70) = 10 in its own code.
        let execute = assembly
            .phases
            .iter()
            .find(|p| p.name == "serve.execute")
            .unwrap();
        assert_eq!(execute.durations.sum(), 90);
        assert_eq!(execute.self_micros, 10);
        assert_eq!(execute.durations.count(), 1);
        assert!(execute.quantile(50) >= 90);
    }

    #[test]
    fn orphans_are_promoted_to_roots_and_counted() {
        let lines = vec![
            event("serve.execute", Some("t-1"), 2, Some(99), 0, 50),
            event("session.chase", Some("t-1"), 3, Some(2), 1, 10),
        ];
        let assembly = assemble_lines(&[&lines]);
        let trace = &assembly.traces[0];
        assert_eq!(trace.orphans, 1);
        assert_eq!(trace.roots.len(), 1);
        assert_eq!(trace.spans[trace.roots[0]].name, "serve.execute");
        assert_eq!(trace.critical_path.len(), 2);
    }

    #[test]
    fn forged_cycles_are_cut_deterministically() {
        // 1 -> 2 -> 3 -> 1 plus a self-parent (dropped as orphan).
        let lines = vec![
            event("a.x", Some("t-1"), 1, Some(3), 0, 10),
            event("a.y", Some("t-1"), 2, Some(1), 1, 10),
            event("a.z", Some("t-1"), 3, Some(2), 2, 10),
            event("a.selfie", Some("t-1"), 4, Some(4), 3, 10),
        ];
        let first = assemble_lines(&[&lines]);
        let again = assemble_lines(&[&lines]);
        let trace = &first.traces[0];
        assert_eq!(trace.cycles_broken, 1);
        assert_eq!(trace.orphans, 1, "self-parent is an orphan");
        assert_eq!(trace.roots.len(), 2);
        // Every span is still reachable exactly once from the roots.
        let mut seen = 0usize;
        let mut stack = trace.roots.clone();
        while let Some(node) = stack.pop() {
            seen += 1;
            stack.extend_from_slice(&trace.spans[node].children);
        }
        assert_eq!(seen, trace.spans.len());
        // Deterministic: identical input gives an identical report.
        assert_eq!(
            format!("{:?}", first.traces[0].critical_path),
            format!("{:?}", again.traces[0].critical_path)
        );
        assert_eq!(first.traces[0].roots, again.traces[0].roots);
    }

    #[test]
    fn duplicate_delivery_keeps_the_complete_run() {
        // Worker 0 died mid-batch: partial copy without a root. The
        // resubmitted copy on worker 1 is complete.
        let partial = vec![event("session.chase", Some("t-9"), 7, Some(5), 0, 10)];
        let complete = vec![
            event("serve.request", Some("t-9"), 4, None, 0, 80),
            event("serve.execute", Some("t-9"), 5, Some(4), 1, 70),
            event("session.chase", Some("t-9"), 6, Some(5), 2, 10),
        ];
        let assembly = assemble_lines(&[&partial, &complete]);
        assert_eq!(assembly.traces.len(), 1);
        let trace = &assembly.traces[0];
        assert_eq!(trace.duplicates_dropped, 1);
        assert_eq!(trace.file, 1, "the run with a root wins");
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.orphans, 0);
    }

    #[test]
    fn duplicate_span_ids_keep_first_occurrence() {
        let lines = vec![
            event("a.x", Some("t-1"), 1, None, 0, 10),
            event("a.y", Some("t-1"), 1, None, 5, 99),
        ];
        let assembly = assemble_lines(&[&lines]);
        let trace = &assembly.traces[0];
        assert_eq!(trace.duplicate_spans, 1);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "a.x");
    }

    #[test]
    fn untraced_spans_feed_phases_but_not_traces() {
        let lines = vec![
            event("session.chase", None, 1, None, 0, 10),
            event("session.chase", None, 2, None, 1, 30),
        ];
        let assembly = assemble_lines(&[&lines]);
        assert!(assembly.traces.is_empty());
        assert_eq!(assembly.untraced_spans, 2);
        assert_eq!(assembly.phases.len(), 1);
        assert_eq!(assembly.phases[0].durations.count(), 2);
        assert_eq!(assembly.phases[0].durations.sum(), 40);
    }

    #[test]
    fn top_slowest_ranks_by_duration_then_id() {
        let a = vec![event("serve.request", Some("t-a"), 1, None, 0, 10)];
        let b = vec![event("serve.request", Some("t-b"), 2, None, 0, 90)];
        let c = vec![event("serve.request", Some("t-c"), 3, None, 0, 90)];
        let all: Vec<String> = a.into_iter().chain(b).chain(c).collect();
        let assembly = assemble_lines(&[&all]);
        let top: Vec<&str> = assembly
            .top_slowest(2)
            .iter()
            .map(|t| t.trace_id.as_str())
            .collect();
        assert_eq!(top, ["t-b", "t-c"]);
    }
}
