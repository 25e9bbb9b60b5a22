//! [`AnalysisSession`]: the memoized per-query analysis pipeline.
//!
//! Every consumer of this workspace wants some subset of the same
//! artifact chain:
//!
//! ```text
//! parse ─► chase (Fact 2.4) ─► variable FDs ─► FD removal (Lemma 4.7)
//!                │                                   │
//!                ├─► size-increase decision (Thm 7.2)├─► coloring LP (Prop 3.6)
//!                │                                   │     └─► size bound (Thm 4.4)
//!                └─► entropy LPs (Props 6.9/6.10)    └─► treewidth preservation
//!                     (compound-FD fallback)              (Thm 5.10)
//! ```
//!
//! Before this crate existed the CLI, the examples, the benches and the
//! pipeline tests each hand-wired that sequence and recomputed shared
//! prefixes — the CLI alone ran the chase four times per query. A session
//! computes each artifact **at most once**, on first demand, in lazy
//! `OnceCell` slots, and counts how often the expensive stages actually
//! ran ([`SessionStats`]) so tests can assert the memoization instead of
//! trusting it.

use crate::cache::LpCache;
use cq_arith::Rational;
use cq_core::MAX_EXACT_DECOMP_VARS;
use cq_core::{
    chase, check_size_bound, color_number_entropy_lp_with_stats, color_number_lp,
    decide_size_increase_chased, entropy_upper_bound_with_stats, is_acyclic, parse_program,
    pull_back_coloring, remove_simple_fds, treewidth_preservation_no_fds, worst_case_database,
    BoundCheck, ChaseResult, ConjunctiveQuery, ParseError, RemovalTrace, SizeBound,
    SizeIncreaseDecision, SolveStats, SolverKind, TwPreservation, VarFd,
};
use cq_hypergraph::{
    hypertree_width_exact, hypertree_width_upper_bound, treewidth_exact, treewidth_upper_bound,
};
use cq_relation::{Database, FdSet};
use cq_telemetry::phase;
use std::cell::{Cell, OnceCell};
use std::sync::Arc;

/// Variable cap for the Proposition 6.10 entropy characterization of the
/// color number (the LP has `2^k` variables). Raised twice: to 12 when
/// the sparse revised simplex became the default engine (k = 12 in
/// ~80 s), and to 14 with the hybrid float/exact engine, which verifies
/// the float-proposed basis exactly and cuts k = 12 to single-digit
/// seconds (`bench_simplex`, `BENCH_2026-08-07.json`).
pub const ENTROPY_COLOR_VAR_CAP: usize = 14;

/// Variable cap for the Proposition 6.9 Shannon upper bound (the
/// elemental family has `k(k−1)·2^{k−3}` constraints). Raised from
/// [`ENTROPY_BOUND_DENSE_CAP`] with the sparse engine (k = 8 in ~0.2 s
/// where the dense tableau needed minutes at k = 7), then to 9 with the
/// hybrid engine — the constraint count grows so much faster than the
/// 6.10 family's that one extra k is the honest step.
pub const ENTROPY_BOUND_VAR_CAP: usize = 9;

/// The Proposition 6.9 ceiling of the dense-tableau era. Between this
/// and [`ENTROPY_BOUND_VAR_CAP`] the LP still solves (sparse engine),
/// and the report carries a heuristic size warning instead of the old
/// hard skip.
pub const ENTROPY_BOUND_DENSE_CAP: usize = 6;

/// Variable cap for the exact treewidth branch-and-bound in
/// [`AnalysisSession::query_widths`]; larger queries get the
/// min-degree/min-fill upper bound. (The hypertree search carries its
/// own cap, [`MAX_EXACT_DECOMP_VARS`] — its per-bag set covers make the
/// same subset search heavier per state.)
pub const TREEWIDTH_EXACT_VAR_CAP: usize = 16;

/// How many times each expensive pipeline stage actually executed.
///
/// `OnceCell` slots make re-execution impossible by construction, but
/// the engine's contract is load-bearing enough that tests assert it
/// from the outside: after any number of accessor calls, `chase_runs`
/// and `color_lp_runs` are each at most 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Chase fixpoints computed (Fact 2.4).
    pub chase_runs: usize,
    /// FD-removal traces computed (Lemma 4.7).
    pub removal_runs: usize,
    /// Coloring LPs solved (Proposition 3.6).
    pub color_lp_runs: usize,
    /// Entropy LPs solved (Propositions 6.9 / 6.10).
    pub entropy_lp_runs: usize,
    /// Treewidth-preservation analyses (Theorem 5.10).
    pub treewidth_runs: usize,
    /// Size-increase decisions (Theorem 7.2).
    pub decision_runs: usize,
    /// Width analyses (treewidth + generalized hypertree width of the
    /// query hypergraph).
    pub width_runs: usize,
    /// LPs answered by the shared [`LpCache`] (no solve happened).
    pub cache_hits: usize,
    /// LPs the shared cache had to solve and store. Always 0 without an
    /// attached cache — uncached solves count only in the `_runs`
    /// fields.
    pub cache_misses: usize,
    /// Simplex pivots across this session's coloring/entropy LP solves
    /// (the head-cover LP of `data_check` is not included — it is solved
    /// behind the tuple-returning cover API).
    pub lp_pivots: usize,
    /// Basis refactorizations across those solves (sparse engine only).
    pub lp_refactorizations: usize,
    /// Coloring/entropy LPs solved by the dense tableau.
    pub lp_dense_solves: usize,
    /// Coloring/entropy LPs solved by the sparse revised simplex.
    pub lp_sparse_solves: usize,
    /// Coloring/entropy LPs solved by the hybrid float/exact engine.
    pub lp_hybrid_solves: usize,
    /// Pivots performed by hybrid solves' `f64` phase (exact-phase
    /// pivots stay in `lp_pivots`).
    pub lp_float_pivots: usize,
    /// Hybrid solves whose float-proposed basis passed exact
    /// verification (one rational factorization, no exact pivoting).
    pub lp_float_verified: usize,
    /// Hybrid solves that fell back to the full exact engine.
    pub lp_exact_fallbacks: usize,
}

#[derive(Default)]
struct Counters {
    chase: Cell<usize>,
    removal: Cell<usize>,
    color_lp: Cell<usize>,
    entropy_lp: Cell<usize>,
    treewidth: Cell<usize>,
    decision: Cell<usize>,
    width: Cell<usize>,
    cache_hits: Cell<usize>,
    cache_misses: Cell<usize>,
    lp_pivots: Cell<usize>,
    lp_refactorizations: Cell<usize>,
    lp_dense_solves: Cell<usize>,
    lp_sparse_solves: Cell<usize>,
    lp_hybrid_solves: Cell<usize>,
    lp_float_pivots: Cell<usize>,
    lp_float_verified: Cell<usize>,
    lp_exact_fallbacks: Cell<usize>,
}

impl Counters {
    /// Records one LP solve's stats (never called for cache hits — a
    /// hit performs no solve, so it contributes nothing here).
    fn note_lp(&self, stats: &SolveStats) {
        self.lp_pivots.set(self.lp_pivots.get() + stats.pivots);
        self.lp_refactorizations
            .set(self.lp_refactorizations.get() + stats.refactorizations);
        let engine = match stats.solver {
            SolverKind::DenseTableau => &self.lp_dense_solves,
            SolverKind::RevisedSparse => &self.lp_sparse_solves,
            SolverKind::HybridFloat => &self.lp_hybrid_solves,
        };
        bump(engine);
        self.lp_float_pivots
            .set(self.lp_float_pivots.get() + stats.float_pivots);
        if stats.float_verified {
            bump(&self.lp_float_verified);
        }
        self.lp_exact_fallbacks
            .set(self.lp_exact_fallbacks.get() + stats.exact_fallbacks);
    }
}

fn bump(cell: &Cell<usize>) {
    cell.set(cell.get() + 1);
}

/// A per-query memoized artifact store over the whole paper pipeline.
///
/// Construction is cheap (parsing only); everything else is computed on
/// first access and cached for the session's lifetime. Sessions are
/// intentionally `!Sync` (interior mutability via `Cell`/`OnceCell`);
/// for parallelism, run one session per thread — see
/// [`crate::BatchAnalyzer`].
pub struct AnalysisSession {
    name: String,
    query: ConjunctiveQuery,
    fds: FdSet,
    cache: Option<Arc<LpCache>>,
    chase: OnceCell<ChaseResult>,
    vfds: OnceCell<Vec<VarFd>>,
    trace: OnceCell<Option<RemovalTrace>>,
    bound: OnceCell<Option<SizeBound>>,
    treewidth: OnceCell<Option<TwPreservation>>,
    decision: OnceCell<SizeIncreaseDecision>,
    acyclic: OnceCell<bool>,
    widths: OnceCell<QueryWidths>,
    entropy_color: OnceCell<Option<Rational>>,
    entropy_bound: OnceCell<Option<Rational>>,
    counters: Counters,
}

impl AnalysisSession {
    /// Parses a program (rule plus dependency lines, see
    /// `cq_core::parser`) into a fresh session.
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Self, ParseError> {
        let (query, fds) = parse_program(text)?;
        Ok(Self::from_parts(name, query, fds))
    }

    /// Wraps an already-built query and dependency set.
    pub fn from_parts(name: impl Into<String>, query: ConjunctiveQuery, fds: FdSet) -> Self {
        AnalysisSession {
            name: name.into(),
            query,
            fds,
            cache: None,
            chase: OnceCell::new(),
            vfds: OnceCell::new(),
            trace: OnceCell::new(),
            bound: OnceCell::new(),
            treewidth: OnceCell::new(),
            decision: OnceCell::new(),
            acyclic: OnceCell::new(),
            widths: OnceCell::new(),
            entropy_color: OnceCell::new(),
            entropy_bound: OnceCell::new(),
            counters: Counters::default(),
        }
    }

    /// Attaches a shared cross-query LP cache (see [`LpCache`]): the
    /// Proposition 3.6 coloring LP and the §3.1 head-cover LP are then
    /// answered from solutions of structurally isomorphic queries when
    /// available. Must be called before the first `size_bound()` /
    /// `data_check()` access to have any effect (the artifact slots are
    /// write-once).
    pub fn with_cache(mut self, cache: Arc<LpCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached shared LP cache, if any.
    pub fn cache(&self) -> Option<&Arc<LpCache>> {
        self.cache.as_ref()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    pub fn fds(&self) -> &FdSet {
        &self.fds
    }

    /// Stage-execution counts so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            chase_runs: self.counters.chase.get(),
            removal_runs: self.counters.removal.get(),
            color_lp_runs: self.counters.color_lp.get(),
            entropy_lp_runs: self.counters.entropy_lp.get(),
            treewidth_runs: self.counters.treewidth.get(),
            decision_runs: self.counters.decision.get(),
            width_runs: self.counters.width.get(),
            cache_hits: self.counters.cache_hits.get(),
            cache_misses: self.counters.cache_misses.get(),
            lp_pivots: self.counters.lp_pivots.get(),
            lp_refactorizations: self.counters.lp_refactorizations.get(),
            lp_dense_solves: self.counters.lp_dense_solves.get(),
            lp_sparse_solves: self.counters.lp_sparse_solves.get(),
            lp_hybrid_solves: self.counters.lp_hybrid_solves.get(),
            lp_float_pivots: self.counters.lp_float_pivots.get(),
            lp_float_verified: self.counters.lp_float_verified.get(),
            lp_exact_fallbacks: self.counters.lp_exact_fallbacks.get(),
        }
    }

    /// The chase of `Q` under the declared dependencies (Fact 2.4).
    pub fn chase_result(&self) -> &ChaseResult {
        self.chase.get_or_init(|| {
            let _p = phase("session.chase", "cq_session_chase_micros");
            bump(&self.counters.chase);
            chase(&self.query, &self.fds)
        })
    }

    /// Variable-level dependencies of the chased query.
    pub fn variable_fds(&self) -> &[VarFd] {
        self.vfds
            .get_or_init(|| self.chase_result().query.variable_fds(&self.fds))
    }

    /// `true` when every variable-level dependency is simple, i.e. the
    /// Theorem 4.4 pipeline applies.
    pub fn simple_fds(&self) -> bool {
        self.variable_fds().iter().all(VarFd::is_simple)
    }

    /// The Lemma 4.7 FD-removal trace; `None` under compound
    /// dependencies (Theorem 4.4 does not apply).
    pub fn removal_trace(&self) -> Option<&RemovalTrace> {
        self.trace
            .get_or_init(|| {
                if !self.simple_fds() {
                    return None;
                }
                bump(&self.counters.removal);
                Some(remove_simple_fds(
                    &self.chase_result().query,
                    self.variable_fds(),
                ))
            })
            .as_ref()
    }

    /// Theorem 4.4: `|Q(D)| ≤ rmax(D)^C(chase(Q))`, exact, with the
    /// tightness-certificate coloring. `None` under compound
    /// dependencies.
    ///
    /// This recomposes `cq_core::size_bound_simple_fds` from the cached
    /// chase and removal trace, so a session solves the Proposition 3.6
    /// LP at most once no matter how many consumers ask.
    pub fn size_bound(&self) -> Option<&SizeBound> {
        self.bound
            .get_or_init(|| {
                let trace = self.removal_trace()?;
                let _p = phase("session.size_bound", "cq_session_size_bound_micros");
                let cn = {
                    let _lp = phase("session.coloring_lp", "cq_session_coloring_lp_micros");
                    match &self.cache {
                        Some(cache) => {
                            let (cn, hit) = cache.color_number(trace.result());
                            if hit {
                                bump(&self.counters.cache_hits);
                            } else {
                                bump(&self.counters.cache_misses);
                                bump(&self.counters.color_lp);
                                self.counters.note_lp(&cn.lp_stats);
                            }
                            cn
                        }
                        None => {
                            bump(&self.counters.color_lp);
                            let cn = color_number_lp(trace.result());
                            self.counters.note_lp(&cn.lp_stats);
                            cn
                        }
                    }
                };
                let coloring = pull_back_coloring(trace, &cn.coloring);
                coloring
                    .validate(self.variable_fds())
                    .expect("Lemma 4.7 pull-back yields a valid coloring");
                let chased = &self.chase_result().query;
                Some(SizeBound {
                    exponent: cn.value,
                    coloring,
                    query: chased.clone(),
                    rep: chased.rep(),
                })
            })
            .as_ref()
    }

    /// Theorem 5.10: is the output's treewidth bounded in the input's?
    /// `None` under compound dependencies.
    pub fn treewidth_preservation(&self) -> Option<&TwPreservation> {
        self.treewidth
            .get_or_init(|| {
                let trace = self.removal_trace()?;
                let _p = phase("session.treewidth", "cq_session_treewidth_micros");
                bump(&self.counters.treewidth);
                Some(treewidth_preservation_no_fds(trace.result()))
            })
            .as_ref()
    }

    /// Theorem 7.2: can any database make `|Q(D)| > rmax(D)`?
    pub fn size_increase(&self) -> &SizeIncreaseDecision {
        self.decision.get_or_init(|| {
            bump(&self.counters.decision);
            decide_size_increase_chased(&self.chase_result().query, self.variable_fds())
        })
    }

    /// GYO acyclicity of the (un-chased) query's hypergraph.
    pub fn is_acyclic(&self) -> bool {
        *self.acyclic.get_or_init(|| is_acyclic(&self.query))
    }

    /// Treewidth of the query's primal graph and generalized hypertree
    /// width of its hypergraph (the widths governing decomposition-
    /// guided evaluation, see `cq_core::decomp_eval`). Each is exact up
    /// to its variable cap ([`TREEWIDTH_EXACT_VAR_CAP`] /
    /// [`MAX_EXACT_DECOMP_VARS`]) and a greedy elimination-order upper
    /// bound beyond it; the `*_exact` flags say which was computed.
    pub fn query_widths(&self) -> &QueryWidths {
        self.widths.get_or_init(|| {
            let _p = phase("session.hypertree", "cq_session_hypertree_micros");
            bump(&self.counters.width);
            let n = self.query.num_vars();
            let h = self.query.hypergraph();
            let g = h.primal_graph();
            let (treewidth, treewidth_exact) = if n <= TREEWIDTH_EXACT_VAR_CAP {
                (treewidth_exact(&g), true)
            } else {
                (treewidth_upper_bound(&g), false)
            };
            let (hypertree_width, hypertree_exact) = if n <= MAX_EXACT_DECOMP_VARS {
                (hypertree_width_exact(&h), true)
            } else {
                (hypertree_width_upper_bound(&h), false)
            };
            QueryWidths {
                treewidth,
                treewidth_exact,
                hypertree_width,
                hypertree_exact,
            }
        })
    }

    /// Proposition 6.10: the entropy-LP characterization of the color
    /// number — a lower bound on the exponent valid under **arbitrary**
    /// dependencies. `None` above [`ENTROPY_COLOR_VAR_CAP`] variables.
    pub fn entropy_color_number(&self) -> Option<&Rational> {
        self.entropy_color
            .get_or_init(|| {
                let chased = &self.chase_result().query;
                if chased.num_vars() > ENTROPY_COLOR_VAR_CAP {
                    return None;
                }
                let _p = phase("session.entropy", "cq_session_entropy_micros");
                bump(&self.counters.entropy_lp);
                let (value, stats) =
                    color_number_entropy_lp_with_stats(chased, self.variable_fds());
                self.counters.note_lp(&stats);
                Some(value)
            })
            .as_ref()
    }

    /// Proposition 6.9: the Shannon-LP upper bound on the exponent,
    /// valid under arbitrary dependencies. `None` above
    /// [`ENTROPY_BOUND_VAR_CAP`] variables.
    pub fn entropy_exponent(&self) -> Option<&Rational> {
        self.entropy_bound
            .get_or_init(|| {
                let chased = &self.chase_result().query;
                if chased.num_vars() > ENTROPY_BOUND_VAR_CAP {
                    return None;
                }
                let _p = phase("session.entropy", "cq_session_entropy_micros");
                bump(&self.counters.entropy_lp);
                let (value, stats) = entropy_upper_bound_with_stats(chased, self.variable_fds());
                self.counters.note_lp(&stats);
                Some(value)
            })
            .as_ref()
    }

    /// Proposition 4.5: builds the `M`-parameterized worst-case database
    /// from the cached certificate coloring and measures the bound on
    /// it. `None` under compound dependencies. Parameterized by `m`, so
    /// not memoized — but it reuses the cached chase/LP artifacts.
    pub fn witness_check(&self, m: usize) -> Option<BoundCheck> {
        let bound = self.size_bound()?;
        let db = worst_case_database(&bound.query, &bound.coloring, m);
        Some(check_size_bound(&bound.query, &db, &bound.exponent))
    }

    /// Evaluates the (original) query on a concrete database and checks
    /// the cached bounds against the measured output. Not memoized (the
    /// database is caller state), but reuses every cached artifact.
    pub fn data_check(&self, db: &Database) -> DataCheck {
        let out = cq_core::evaluate(&self.query, db);
        let rmax = db.rmax(&self.query.relation_names());
        let fds_hold = db.satisfies(&self.fds);
        let exact = self.size_bound().map(|bound| ExactDataBound {
            bound_approx: (rmax as f64).powf(bound.exponent.to_f64()),
            holds: cq_core::pow_le(out.len(), rmax, &bound.exponent),
        });
        // The head-cover product bound is valid for any query (the cover
        // LP runs over head variables), not just total join queries.
        // Passing the measured size avoids a second evaluation — on big
        // instances the join dominates the whole data check. The cover
        // LP is structure-only, so a shared cache can answer it; any
        // feasible cover yields a valid bound, so a translated cover
        // from an isomorphic query is sound here.
        let p = match &self.cache {
            Some(cache) => {
                let ((_, weights), hit) = cache.edge_cover_head(&self.query);
                if hit {
                    bump(&self.counters.cache_hits);
                } else {
                    bump(&self.counters.cache_misses);
                }
                cq_core::agm_product_bound_with_cover(&self.query, db, weights, out.len())
            }
            None => cq_core::agm_product_bound_measured(&self.query, db, out.len()),
        };
        let product = Some(ProductDataBound {
            bound_approx: p.bound_approx,
            holds: p.holds,
        });
        DataCheck {
            rmax,
            measured: out.len(),
            fds_hold,
            exact,
            product,
        }
    }
}

/// Result of [`AnalysisSession::query_widths`]: the two width measures
/// of the query hypergraph, each flagged exact or upper-bound.
///
/// `hypertree_width ≤ treewidth + 1` always (cover each vertex of a
/// width-`tw` decomposition's bag by one of its edges), and acyclic
/// queries have hypertree width exactly 1 — both ends of that bracket
/// are asserted by the property suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryWidths {
    /// Treewidth of the primal (Gaifman) graph of the query hypergraph.
    pub treewidth: usize,
    /// `true` if `treewidth` came from the exact branch-and-bound.
    pub treewidth_exact: bool,
    /// Generalized hypertree width of the query hypergraph.
    pub hypertree_width: usize,
    /// `true` if `hypertree_width` came from the exact search.
    pub hypertree_exact: bool,
}

/// Result of [`AnalysisSession::data_check`].
#[derive(Clone, Debug)]
pub struct DataCheck {
    /// `rmax(D)` over the query's relations.
    pub rmax: usize,
    /// `|Q(D)|` measured by evaluation.
    pub measured: usize,
    /// Whether the declared dependencies actually hold on the data.
    pub fds_hold: bool,
    /// The Theorem 4.4 check (simple-FD path only).
    pub exact: Option<ExactDataBound>,
    /// The product-form AGM check (join queries only).
    pub product: Option<ProductDataBound>,
}

/// `|Q(D)| ≤ rmax^C`, checked exactly.
#[derive(Clone, Copy, Debug)]
pub struct ExactDataBound {
    pub bound_approx: f64,
    pub holds: bool,
}

/// `|Q(D)| ≤ Π|R_j|^{y_j}` for the fractional cover `y`.
#[derive(Clone, Copy, Debug)]
pub struct ProductDataBound {
    pub bound_approx: f64,
    pub holds: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIANGLE: &str = "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)";

    #[test]
    fn artifacts_compute_once() {
        let s = AnalysisSession::parse("triangle", TRIANGLE).unwrap();
        for _ in 0..3 {
            assert_eq!(s.size_bound().unwrap().exponent.to_string(), "3/2");
            assert!(matches!(
                s.treewidth_preservation(),
                Some(TwPreservation::Preserved)
            ));
            assert!(s.size_increase().increases);
            assert!(s.witness_check(2).unwrap().holds);
        }
        let stats = s.stats();
        assert_eq!(stats.chase_runs, 1);
        assert_eq!(stats.color_lp_runs, 1);
        assert_eq!(stats.removal_runs, 1);
        assert_eq!(stats.treewidth_runs, 1);
        assert_eq!(stats.decision_runs, 1);
    }

    #[test]
    fn nothing_runs_until_asked() {
        let s = AnalysisSession::parse("triangle", TRIANGLE).unwrap();
        assert_eq!(s.stats(), SessionStats::default());
    }

    #[test]
    fn widths_compute_once_and_bracket() {
        let s = AnalysisSession::parse("triangle", TRIANGLE).unwrap();
        let w = *s.query_widths();
        for _ in 0..3 {
            assert_eq!(s.query_widths(), &w);
        }
        assert_eq!(s.stats().width_runs, 1);
        // The triangle is small: both solvers run exactly.
        assert!(w.treewidth_exact && w.hypertree_exact);
        assert_eq!(w.treewidth, 2);
        assert_eq!(w.hypertree_width, 2);
        assert!(w.hypertree_width <= w.treewidth + 1);
    }

    #[test]
    fn acyclic_query_has_hypertree_width_one() {
        let s = AnalysisSession::parse("path", "Q(X,Z) :- R(X,Y), S(Y,Z)").unwrap();
        assert!(s.is_acyclic());
        assert_eq!(s.query_widths().hypertree_width, 1);
    }

    #[test]
    fn compound_fds_take_the_entropy_path() {
        let s = AnalysisSession::parse(
            "compound",
            "Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]\n",
        )
        .unwrap();
        assert!(!s.simple_fds());
        assert!(s.size_bound().is_none());
        assert!(s.treewidth_preservation().is_none());
        assert!(s.witness_check(2).is_none());
        assert!(s.entropy_color_number().is_some());
        assert!(s.entropy_exponent().is_some());
        // Both entropy LPs memoize independently.
        let runs = s.stats().entropy_lp_runs;
        s.entropy_color_number();
        s.entropy_exponent();
        assert_eq!(s.stats().entropy_lp_runs, runs);
    }

    #[test]
    fn shared_cache_replaces_the_second_solve() {
        let cache = Arc::new(LpCache::new());
        let first = AnalysisSession::parse("t1", TRIANGLE)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        assert_eq!(first.size_bound().unwrap().exponent.to_string(), "3/2");
        assert_eq!(first.stats().cache_misses, 1);
        assert_eq!(first.stats().color_lp_runs, 1);

        // Isomorphic relabeling: served from the cache, no LP solve.
        let second = AnalysisSession::parse("t2", "S(C,A,B) :- E(B,C), E(A,B), E(A,C)")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        assert_eq!(second.size_bound().unwrap().exponent.to_string(), "3/2");
        assert_eq!(second.stats().cache_hits, 1);
        assert_eq!(second.stats().color_lp_runs, 0);
        // The translated certificate still validates and certifies.
        let bound = second.size_bound().unwrap();
        assert_eq!(
            bound.coloring.color_number(&bound.query),
            Some(bound.exponent.clone())
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cached_data_check_uses_cached_cover() {
        let cache = Arc::new(LpCache::new());
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            db.insert_named("R", &[a, b]);
        }
        let s1 = AnalysisSession::parse("t1", TRIANGLE)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let c1 = s1.data_check(&db);
        let s2 = AnalysisSession::parse("t2", TRIANGLE)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let c2 = s2.data_check(&db);
        // Both structure-only LPs (coloring for the exact bound, head
        // cover for the product bound) come back from the cache.
        assert_eq!(s2.stats().cache_hits, 2, "coloring + cover LP hits");
        assert_eq!(c1.measured, c2.measured);
        assert!(c1.product.unwrap().holds && c2.product.unwrap().holds);
    }

    #[test]
    fn data_check_reuses_cached_bound() {
        let s = AnalysisSession::parse("triangle", TRIANGLE).unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            db.insert_named("R", &[a, b]);
        }
        let check = s.data_check(&db);
        assert_eq!(check.measured, 1);
        assert!(check.fds_hold);
        assert!(check.exact.unwrap().holds);
        assert!(check.product.unwrap().holds);
        assert_eq!(s.stats().color_lp_runs, 1);
    }
}
