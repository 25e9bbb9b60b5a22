//! [`BatchAnalyzer`]: N queries, one report sink, scoped threads.
//!
//! Sessions are deliberately single-threaded (`Cell`/`OnceCell` slots);
//! batching parallelizes **across** queries instead: each worker thread
//! pulls the next input off a shared atomic cursor, runs a full session
//! to a report, and pushes the result into a shared sink. Reports come
//! back in input order regardless of which worker finished first.
//!
//! With a shared [`LpCache`] attached, the batch is scheduled in two
//! waves keyed by each query's renaming-invariant canonical form: wave
//! one runs one representative of every structural-isomorphism class —
//! so the *independent* cache misses solve concurrently — and wave two
//! runs the remaining inputs, which find their class's LPs already
//! cached. The cache has no miss coalescing, so without the planner
//! concurrent isomorphic inputs race the first lookup and every racer
//! solves the same LP; with it, a batch performs at most one miss per
//! class *and* keeps full parallelism across classes.

use crate::cache::LpCache;
use crate::report::{AnalysisReport, ReportOptions};
use crate::session::AnalysisSession;
use cq_core::{ArityError, ConjunctiveQuery, ParseError};
use cq_hypergraph::{canonical_key, CanonicalKey};
use cq_relation::FdSet;
use cq_telemetry::TraceContext;
use std::collections::HashSet;
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
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Parse(e) => e.fmt(f),
            AnalyzeError::Database(e) => write!(f, "database error: {e}"),
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

    fn session(&self, name: &str, query: ConjunctiveQuery, fds: FdSet) -> AnalysisSession {
        let session = AnalysisSession::from_parts(name, query, fds);
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
    /// errors, and queries the database of `opts` does not fit, are
    /// reported in place without sinking the batch.
    pub fn analyze_texts(
        &self,
        inputs: &[(String, String)],
        opts: &ReportOptions<'_>,
    ) -> Vec<Result<AnalysisReport, AnalyzeError>> {
        // Parse up front (cheap next to any LP solve) so the miss
        // planner can see each query's canonical key before scheduling.
        let parsed: Vec<Result<(ConjunctiveQuery, FdSet), ParseError>> = inputs
            .iter()
            .map(|(_, text)| cq_core::parse_program(text))
            .collect();
        let waves = self.plan_waves(parsed.len(), |i| {
            parsed[i]
                .as_ref()
                .ok()
                .map(|(q, _)| canonical_key(&q.hypergraph(), &q.head_var_set()))
        });
        self.run_waves(&waves, parsed.len(), |i| match &parsed[i] {
            Ok((query, fds)) => {
                let session = self.session(&inputs[i].0, query.clone(), fds.clone());
                match opts.database.map(|db| session.check_database(db)) {
                    Some(Err(e)) => Err(AnalyzeError::Database(e)),
                    _ => Ok(session.report(opts)),
                }
            }
            Err(e) => Err(AnalyzeError::Parse(e.clone())),
        })
    }

    /// Analyzes already-built queries (the query generators' path —
    /// no parsing involved).
    ///
    /// # Panics
    /// Panics if the database of `opts` does not fit some query (see
    /// [`AnalysisSession::check_database`]).
    pub fn analyze_queries(
        &self,
        items: &[(String, ConjunctiveQuery, FdSet)],
        opts: &ReportOptions<'_>,
    ) -> Vec<AnalysisReport> {
        let waves = self.plan_waves(items.len(), |i| {
            let q = &items[i].1;
            Some(canonical_key(&q.hypergraph(), &q.head_var_set()))
        });
        self.run_waves(&waves, items.len(), |i| {
            let (name, query, fds) = &items[i];
            self.session(name, query.clone(), fds.clone()).report(opts)
        })
    }

    /// The cache-miss plan: with a shared cache attached, wave one holds
    /// the first input of every canonical class (plus unparseable inputs,
    /// which solve no LPs), wave two the repeats. Wave one's misses are
    /// pairwise non-isomorphic, so they parallelize without duplicating
    /// work; by wave two every class's LPs are cached. Classes are keyed
    /// on the *input* query — sessions cache under the chased/FD-reduced
    /// form, which isomorphic inputs reach identically, so the ≤1-miss-
    /// per-class guarantee survives the rewrite steps. Without a cache
    /// (or with no repeats) everything runs in a single wave.
    fn plan_waves(
        &self,
        n: usize,
        key_of: impl Fn(usize) -> Option<CanonicalKey>,
    ) -> Vec<Vec<usize>> {
        if self.cache.is_none() || n < 2 {
            return vec![(0..n).collect()];
        }
        let mut seen: HashSet<CanonicalKey> = HashSet::new();
        let mut first = Vec::new();
        let mut rest = Vec::new();
        for i in 0..n {
            match key_of(i) {
                Some(key) if !seen.insert(key) => rest.push(i),
                _ => first.push(i),
            }
        }
        if rest.is_empty() {
            vec![first]
        } else {
            vec![first, rest]
        }
    }

    /// The trace id input `i` should run under: its propagated id when
    /// one was attached, else a fresh id when a trace sink is live (so
    /// `cq-analyze --trace` tags each query's spans distinctly), else
    /// none — and the context switch is skipped entirely.
    fn trace_id_for(&self, i: usize) -> Option<String> {
        let attached = self
            .trace_ids
            .as_ref()
            .and_then(|ids| ids.get(i).cloned().flatten());
        attached.or_else(|| cq_telemetry::tracing_enabled().then(cq_telemetry::fresh_trace_id))
    }

    /// The shared work loop: each wave runs to completion before the
    /// next starts; within a wave, `produce(i)` runs on some worker
    /// thread for every listed index. Results land at index `i` of the
    /// returned vec, so output order is input order regardless of the
    /// schedule.
    fn run_waves<T: Send>(
        &self,
        waves: &[Vec<usize>],
        n: usize,
        produce: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let sink: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        for wave in waves.iter().filter(|w| !w.is_empty()) {
            let workers = self.workers_for(wave.len());
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let w = cursor.fetch_add(1, Ordering::Relaxed);
                        if w >= wave.len() {
                            break;
                        }
                        let i = wave[w];
                        let result = match self.trace_id_for(i) {
                            Some(id) => {
                                let _ctx = TraceContext::enter(Some(&id), false);
                                produce(i)
                            }
                            None => produce(i),
                        };
                        sink.lock().expect("sink poisoned")[i] = Some(result);
                    });
                }
            });
        }
        sink.into_inner()
            .expect("sink poisoned")
            .into_iter()
            .map(|slot| slot.expect("every index produced"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            canonical_key(&q.hypergraph(), &q.head_var_set())
        };
        let tri = key("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)");
        let path = key("Q(X,Y,Z) :- S(X,Y), T(Y,Z)");
        // Index 3 is a parse failure (no key): it solves no LPs, so it
        // rides along in wave one.
        let keys = [Some(tri), Some(path), Some(tri), None, Some(tri)];
        let planned = BatchAnalyzer::new().with_cache(Arc::new(LpCache::new()));
        assert_eq!(
            planned.plan_waves(5, |i| keys[i]),
            vec![vec![0, 1, 3], vec![2, 4]]
        );
        // All-distinct prefix collapses back to a single wave.
        assert_eq!(planned.plan_waves(2, |i| keys[i]), vec![vec![0, 1]]);
        // No cache attached: nothing to protect, single wave.
        assert_eq!(
            BatchAnalyzer::new().plan_waves(5, |i| keys[i]),
            vec![vec![0, 1, 2, 3, 4]]
        );
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
