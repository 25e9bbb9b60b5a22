//! [`BatchAnalyzer`]: N queries, one report sink, scoped threads.
//!
//! Sessions are deliberately single-threaded (`Cell`/`OnceCell` slots);
//! batching parallelizes **across** queries instead: each worker thread
//! pulls the next input off a shared atomic cursor, runs a full session
//! to a report, and pushes the result into a shared sink. Reports come
//! back in input order regardless of which worker finished first.
//!
//! With a shared [`LpCache`] attached, the batch is scheduled in waves
//! keyed by the renaming-invariant canonical keys each input's cache
//! lookups use: wave one runs the first input to look up each key — so
//! the *independent* cache misses solve concurrently — and later waves
//! run the inputs whose keys an earlier wave has already cached. The
//! cache has no miss coalescing, so without the planner concurrent
//! inputs with one key race the first lookup and every racer solves the
//! same LP; with it, a batch performs at most one miss per key *and*
//! keeps full parallelism across keys.

use crate::cache::{LpCache, LpKind};
use crate::report::{AnalysisReport, ReportOptions};
use crate::session::{AnalysisSession, WitnessTooLarge};
use cq_core::{ArityError, ParseError};
use cq_hypergraph::CanonicalKey;
use cq_telemetry::TraceContext;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Runs many analyses across threads with a shared report sink.
#[derive(Clone, Debug, Default)]
pub struct BatchAnalyzer {
    /// Worker cap; `None` means `std::thread::available_parallelism()`.
    threads: Option<usize>,
    /// Shared cross-query LP cache handed to every worker session.
    cache: Option<Arc<LpCache>>,
    /// Per-input trace ids (index-aligned with the batch inputs), used
    /// by `cq-serve` to propagate the ids a cluster client stamped on
    /// each query. Inputs without an id get a fresh one when tracing.
    trace_ids: Option<Arc<Vec<Option<String>>>>,
}

/// Why one input of [`BatchAnalyzer::analyze_texts`] has no report.
#[derive(Clone, Debug)]
pub enum AnalyzeError {
    /// The program text does not parse.
    Parse(ParseError),
    /// The query does not fit the database (a relation's arity differs).
    Database(ArityError),
    /// The requested witness database would exceed the tuple budget.
    Witness(WitnessTooLarge),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Parse(e) => e.fmt(f),
            AnalyzeError::Database(e) => write!(f, "database error: {e}"),
            AnalyzeError::Witness(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl BatchAnalyzer {
    pub fn new() -> Self {
        BatchAnalyzer::default()
    }

    /// Caps the worker count (useful for benchmarks and tests).
    pub fn with_threads(threads: usize) -> Self {
        BatchAnalyzer {
            threads: Some(threads.max(1)),
            ..BatchAnalyzer::default()
        }
    }

    /// Attaches per-input trace ids (index-aligned with the inputs of
    /// the next `analyze_*` call). Each worker enters the input's trace
    /// context before producing its report, so every span the analysis
    /// emits carries the id end to end — this is how a cluster client's
    /// ids survive the hop through a serve worker's batch.
    pub fn with_trace_ids(mut self, ids: Vec<Option<String>>) -> Self {
        self.trace_ids = Some(Arc::new(ids));
        self
    }

    /// Attaches a shared [`LpCache`]: every session the batch spawns
    /// gets a handle, so structurally isomorphic queries anywhere in the
    /// workload (and across successive batches reusing the same cache)
    /// solve their coloring/cover LPs once.
    pub fn with_cache(mut self, cache: Arc<LpCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    fn attach(&self, session: AnalysisSession) -> AnalysisSession {
        match &self.cache {
            Some(cache) => session.with_cache(Arc::clone(cache)),
            None => session,
        }
    }

    fn workers_for(&self, items: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
        self.threads.unwrap_or(hw).min(items).max(1)
    }

    /// Parses and analyzes `(name, program_text)` pairs. Per-input parse
    /// errors, queries the database of `opts` does not fit, and witness
    /// databases over the tuple budget are reported in place without
    /// sinking the batch.
    pub fn analyze_texts(
        &self,
        inputs: &[(String, String)],
        opts: &ReportOptions<'_>,
    ) -> Vec<Result<AnalysisReport, AnalyzeError>> {
        // Parse up front (cheap next to any LP solve) so the miss
        // planner can see each query's cache keys before scheduling.
        let sessions: Vec<Result<AnalysisSession, ParseError>> = inputs
            .iter()
            .map(|(name, text)| AnalysisSession::parse(name.as_str(), text).map(|s| self.attach(s)))
            .collect();
        let data = opts.database.is_some();
        self.run(
            sessions,
            |session| session.as_ref().map_or(Vec::new(), |s| s.cache_keys(data)),
            |session| {
                let session = session.map_err(AnalyzeError::Parse)?;
                if let Some(db) = opts.database {
                    session.check_database(db).map_err(AnalyzeError::Database)?;
                }
                if let Some(m) = opts.witness_m {
                    session.check_witness(m).map_err(AnalyzeError::Witness)?;
                }
                Ok(session.report(opts))
            },
        )
    }

    /// Runs `produce` on every input, in the waves that
    /// [`Self::plan_waves`] plans on `keys_of`: each wave runs to
    /// completion before the next starts, and within a wave each input
    /// runs on some worker thread under its trace id (a wave of one input
    /// runs on this thread, in a worker's empty context). Planning runs on
    /// this thread, under the same ids, and what it computes stays with
    /// the input (a session keeps the chase its keys needed), so the
    /// worker does not redo it. Results come back in input order
    /// regardless of the schedule.
    fn run<S: Send, T: Send>(
        &self,
        inputs: Vec<S>,
        keys_of: impl Fn(&S) -> Vec<(LpKind, CanonicalKey)>,
        produce: impl Fn(S) -> T + Sync,
    ) -> Vec<T> {
        let n = inputs.len();
        let ids: Vec<Option<String>> = (0..n).map(|i| self.trace_id_for(i)).collect();
        let waves = self.plan_waves(n, |i| traced(ids[i].as_deref(), || keys_of(&inputs[i])));
        let slots: Vec<Mutex<Option<S>>> =
            inputs.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let sink: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        for wave in waves.iter().filter(|w| !w.is_empty()) {
            let cursor = AtomicUsize::new(0);
            let work = || loop {
                let w = cursor.fetch_add(1, Ordering::Relaxed);
                if w >= wave.len() {
                    break;
                }
                let i = wave[w];
                let input = slots[i].lock().expect("slot poisoned").take();
                let input = input.expect("each input runs once");
                let result = traced(ids[i].as_deref(), || produce(input));
                sink.lock().expect("sink poisoned")[i] = Some(result);
            };
            if wave.len() == 1 {
                // One input needs no thread: run it here, in the empty
                // trace context a fresh worker thread would start in.
                let _ctx = TraceContext::enter(None, false);
                work();
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..self.workers_for(wave.len()) {
                        scope.spawn(work);
                    }
                });
            }
        }
        sink.into_inner()
            .expect("sink poisoned")
            .into_iter()
            .map(|slot| slot.expect("every index produced"))
            .collect()
    }

    /// The cache-miss plan: with a shared cache attached, each input runs
    /// one wave after the last wave holding the first lookup of any of
    /// its keys (wave one when all its keys are new), so every key's
    /// first lookup is the only one in its wave and the later ones find
    /// it cached. Inputs without keys (unparseable ones, which solve no
    /// LPs) run in wave one. The keys are the ones the lookups use — the
    /// coloring LP is cached under the chased, FD-reduced query, so
    /// inputs of different classes can share its key. With one key per
    /// input this is two waves: the first input of every key, then the
    /// repeats. Without a cache (or with no repeats) everything runs in
    /// a single wave.
    fn plan_waves(
        &self,
        n: usize,
        keys_of: impl Fn(usize) -> Vec<(LpKind, CanonicalKey)>,
    ) -> Vec<Vec<usize>> {
        if self.cache.is_none() || n < 2 {
            return vec![(0..n).collect()];
        }
        // The wave holding each key's first lookup.
        let mut first: HashMap<(LpKind, CanonicalKey), usize> = HashMap::new();
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let keys = keys_of(i);
            let wave = keys
                .iter()
                .filter_map(|key| first.get(key).map(|&w| w + 1))
                .max()
                .unwrap_or(0);
            for key in keys {
                first.entry(key).or_insert(wave);
            }
            if wave == waves.len() {
                waves.push(Vec::new());
            }
            waves[wave].push(i);
        }
        waves
    }

    /// The trace id input `i` should run under: its propagated id when
    /// one was attached, else a fresh id when a trace sink is live (so
    /// `cq-analyze --trace` tags each query's spans distinctly), else
    /// none.
    fn trace_id_for(&self, i: usize) -> Option<String> {
        let attached = self
            .trace_ids
            .as_ref()
            .and_then(|ids| ids.get(i).cloned().flatten());
        attached.or_else(|| cq_telemetry::tracing_enabled().then(cq_telemetry::fresh_trace_id))
    }
}

/// Runs `f` in the trace context of `id`; with no id, the context
/// switch is skipped entirely.
fn traced<T>(id: Option<&str>, f: impl FnOnce() -> T) -> T {
    let _ctx = id.map(|id| TraceContext::enter(Some(id), false));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_hypergraph::canonical_key;

    fn inputs() -> Vec<(String, String)> {
        vec![
            (
                "triangle".into(),
                "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)".into(),
            ),
            (
                "keyed".into(),
                "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]".into(),
            ),
            ("bad".into(), "not a query".into()),
            ("path".into(), "Q(X,Y,Z) :- S(X,Y), T(Y,Z)".into()),
        ]
    }

    #[test]
    fn results_keep_input_order() {
        let reports = BatchAnalyzer::new().analyze_texts(&inputs(), &ReportOptions::default());
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].as_ref().unwrap().name, "triangle");
        assert_eq!(
            reports[0]
                .as_ref()
                .unwrap()
                .size_bound
                .as_ref()
                .unwrap()
                .exponent,
            "3/2"
        );
        assert_eq!(
            reports[1]
                .as_ref()
                .unwrap()
                .size_bound
                .as_ref()
                .unwrap()
                .exponent,
            "1"
        );
        assert!(reports[2].is_err());
        assert_eq!(reports[3].as_ref().unwrap().name, "path");
    }

    #[test]
    fn shared_cache_hits_across_the_batch() {
        use crate::cache::LpCache;
        use std::sync::Arc;
        let cache = Arc::new(LpCache::new());
        // Three pairwise-isomorphic triangles under different labelings.
        let inputs: Vec<(String, String)> = [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "S(C,A,B) :- E(B,C), E(A,B), E(A,C)",
            "T(P,Q,W) :- F(Q,W), F(P,W), F(P,Q)",
        ]
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("tri{i}"), t.to_string()))
        .collect();
        // Parallel workers are safe: the miss planner runs one triangle
        // in wave one (the class's single miss) and the other two in
        // wave two, where the cache is already warm — the count stays
        // deterministic even though the cache has no miss coalescing.
        let reports = BatchAnalyzer::with_threads(8)
            .with_cache(Arc::clone(&cache))
            .analyze_texts(&inputs, &ReportOptions::default());
        for r in &reports {
            assert_eq!(
                r.as_ref().unwrap().size_bound.as_ref().unwrap().exponent,
                "3/2"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
        // A second batch over the same warm cache is all hits — now
        // safely parallel, since no worker needs to insert.
        BatchAnalyzer::new()
            .with_cache(Arc::clone(&cache))
            .analyze_texts(&inputs, &ReportOptions::default());
        assert_eq!(cache.stats().hits, stats.hits + 3);
    }

    #[test]
    fn miss_planner_defers_repeats_to_a_second_wave() {
        let key = |text: &str| {
            let (q, _) = cq_core::parse_program(text).unwrap();
            (
                LpKind::Coloring,
                canonical_key(&q.hypergraph(), &q.head_var_set()),
            )
        };
        let tri = key("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)");
        let path = key("Q(X,Y,Z) :- S(X,Y), T(Y,Z)");
        // Index 3 is a parse failure (no key): it solves no LPs, so it
        // rides along in wave one.
        let keys = [vec![tri], vec![path], vec![tri], vec![], vec![tri]];
        let planned = BatchAnalyzer::new().with_cache(Arc::new(LpCache::new()));
        assert_eq!(
            planned.plan_waves(5, |i| keys[i].clone()),
            vec![vec![0, 1, 3], vec![2, 4]]
        );
        // All-distinct prefix collapses back to a single wave.
        assert_eq!(planned.plan_waves(2, |i| keys[i].clone()), vec![vec![0, 1]]);
        // No cache attached: nothing to protect, single wave.
        assert_eq!(
            BatchAnalyzer::new().plan_waves(5, |i| keys[i].clone()),
            vec![vec![0, 1, 2, 3, 4]]
        );
    }

    /// The keyed star chases to `R2(X,Y,Y) :- R(X,Y)`, which `twin` is
    /// already: the two inputs are of different classes but their
    /// coloring LPs share a key, so they must not miss it together. The
    /// path is of the keyed star's input class but its LP's key differs,
    /// so it does not hold the keyed star back.
    const KEYED: &str = "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]";
    const TWIN: &str = "P(A,B,B) :- S(A,B)\nkey S[1]";
    const PATH: &str = "Q(X,Y,Z) :- S(X,Y), T(Y,Z)";

    #[test]
    fn miss_planner_keys_on_the_chased_lp_query() {
        let sessions: Vec<AnalysisSession> = [KEYED, TWIN, PATH]
            .iter()
            .map(|text| AnalysisSession::parse("q", text).unwrap())
            .collect();
        let input_key =
            |s: &AnalysisSession| canonical_key(&s.query().hypergraph(), &s.query().head_var_set());
        assert_ne!(input_key(&sessions[0]), input_key(&sessions[1]));
        assert_eq!(input_key(&sessions[0]), input_key(&sessions[2]));
        assert_eq!(sessions[0].cache_keys(false), sessions[1].cache_keys(false));
        assert_ne!(sessions[0].cache_keys(false), sessions[2].cache_keys(false));
        let planned = BatchAnalyzer::new().with_cache(Arc::new(LpCache::new()));
        assert_eq!(
            planned.plan_waves(3, |i| sessions[i].cache_keys(false)),
            vec![vec![0, 2], vec![1]]
        );
        // With a database the head-cover LP is looked up under each
        // input's own key too: the path now waits for the keyed star,
        // whose input class (and so head cover) it shares, and a second
        // twin waits for the first twin's head cover.
        let data = |i: usize| sessions[[0, 1, 2, 1][i]].cache_keys(true);
        assert_eq!(
            planned.plan_waves(4, data),
            vec![vec![0], vec![1, 2], vec![3]]
        );
    }

    #[test]
    fn inputs_sharing_an_lp_key_miss_it_once() {
        let cache = Arc::new(LpCache::new());
        let inputs: Vec<(String, String)> = [KEYED, TWIN, PATH, KEYED, TWIN, PATH]
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("q{i}"), t.to_string()))
            .collect();
        let reports = BatchAnalyzer::with_threads(8)
            .with_cache(Arc::clone(&cache))
            .analyze_texts(&inputs, &ReportOptions::default());
        assert!(reports.iter().all(Result::is_ok));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 4), "{stats:?}");
    }

    #[test]
    fn a_panicking_input_propagates_whether_or_not_it_gets_a_thread() {
        for n in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                BatchAnalyzer::with_threads(2).run(
                    (0..n).collect(),
                    |_| Vec::new(),
                    |i: usize| assert!(i + 1 < n, "input {i} panics"),
                )
            });
            assert!(caught.is_err(), "a panic in a wave of {n} was lost");
        }
        // A one-input wave runs on the caller's thread but not in its
        // trace context: the caller's collector sees none of its spans.
        let mut outer = TraceContext::enter(Some("outer"), true);
        BatchAnalyzer::new().run(
            vec![()],
            |_| Vec::new(),
            |()| drop(cq_telemetry::Span::enter("test.batch_input")),
        );
        assert_eq!(outer.take_collected(), Vec::new());
    }

    #[test]
    fn single_thread_agrees_with_parallel() {
        let opts = ReportOptions {
            witness_m: Some(2),
            database: None,
        };
        let seq = BatchAnalyzer::with_threads(1).analyze_texts(&inputs(), &opts);
        let par = BatchAnalyzer::with_threads(8).analyze_texts(&inputs(), &opts);
        for (a, b) in seq.iter().zip(&par) {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_json_string(), b.to_json_string()),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                _ => panic!("parallel and sequential disagree"),
            }
        }
    }
}
