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

use crate::cache::{query_form, ExactWidths, LpCache, LpKind};
use cq_arith::Rational;
use cq_core::{
    chase, check_size_bound, color_number_entropy_lp_with_stats, color_number_lp,
    decide_size_increase_chased, entropy_upper_bound_with_stats, is_acyclic, parse_program,
    pull_back_coloring, remove_simple_fds, treewidth_preservation_no_fds, worst_case_database,
    worst_case_tuples, ArityError, BoundCheck, ChaseResult, ConjunctiveQuery, LpWork, ParseError,
    RemovalTrace, SizeBound, SizeIncreaseDecision, TwPreservation, VarFd, WITNESS_TUPLE_BUDGET,
};
use cq_hypergraph::{hypertree_capped, treewidth_capped, CanonicalForm, CanonicalKey};
use cq_relation::{Database, FdSet};
use cq_telemetry::phase;
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::sync::Arc;

/// Variable cap for the Proposition 6.10 entropy characterization of the
/// color number. The program is solved in I-measure coordinates over
/// the inclusion-minimal live atoms that meet the head (one row per
/// query atom, a handful of pivots): on cycle-fd k = 14 that is 13
/// columns, solved in about 0.05 ms. What grows with `k` is the
/// builder's sweep over all `2^k` masks, so raising the cap is left to
/// a search that enumerates only the minimal atoms.
pub const ENTROPY_COLOR_VAR_CAP: usize = 14;

/// Variable cap for the Proposition 6.9 Shannon upper bound (the
/// elemental family has `k(k−1)·2^{k−3}` constraints). Raised from
/// [`ENTROPY_BOUND_DENSE_CAP`] with the sparse engine, then to 9 with the
/// hybrid engine. On cycle-fd, the program over FD-closed sets that
/// `entropy_upper_bound` solves takes about 20 ms at k = 9, 75 ms at
/// k = 10 and 0.4 s at k = 11 (in process, release build, best of 5 on a
/// shared 2-vCPU VM): each extra variable costs four to five times the
/// last, so raising the cap is its own behaviour change.
pub const ENTROPY_BOUND_VAR_CAP: usize = 9;

/// The Proposition 6.9 ceiling of the dense-tableau era. Between this
/// and [`ENTROPY_BOUND_VAR_CAP`] the LP still solves (sparse engine),
/// and the report carries a heuristic size warning instead of the old
/// hard skip.
pub const ENTROPY_BOUND_DENSE_CAP: usize = 6;

/// Variable cap for the exact treewidth search in
/// [`AnalysisSession::query_widths`]; it lives beside the search.
pub use cq_hypergraph::TREEWIDTH_EXACT_VAR_CAP;

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
    /// Width searches (treewidth + generalized hypertree width of the
    /// query hypergraph). Widths served whole from the shared
    /// [`LpCache`] run none.
    pub width_runs: usize,
    /// LPs answered by the shared [`LpCache`] (no solve happened).
    pub cache_hits: usize,
    /// LPs the shared cache had to solve and store. Always 0 without an
    /// attached cache — uncached solves count only in the `_runs`
    /// fields.
    pub cache_misses: usize,
    /// Solver work of this session's coloring/entropy LP solves (the
    /// head-cover LP of `data_check` is not included — it is solved
    /// behind the tuple-returning cover API). A cache hit performs no
    /// solve, so it adds nothing here.
    pub lp: LpWork,
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
    /// The canonical form of `query` (see [`Self::form`]).
    form: OnceCell<CanonicalForm>,
    /// The canonical form of the coloring LP's query when its shape
    /// differs from `query`'s (see [`Self::coloring_form`]).
    lp_form: OnceCell<CanonicalForm>,
    /// The canonical key the coloring LP was looked up under.
    coloring_key: OnceCell<CanonicalKey>,
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
    stats: Cell<SessionStats>,
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
            form: OnceCell::new(),
            lp_form: OnceCell::new(),
            coloring_key: OnceCell::new(),
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
            stats: Cell::default(),
        }
    }

    /// Attaches a shared cross-query LP cache (see [`LpCache`]): the
    /// Proposition 3.6 coloring LP, the §3.1 head-cover LP and the exact
    /// query widths are then answered from structurally isomorphic
    /// queries when available. Must be called before the first
    /// `size_bound()` / `data_check()` / `query_widths()` access to have
    /// any effect (the artifact slots are write-once).
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
        self.stats.get()
    }

    /// Applies `update` to the stage-execution counts.
    fn count(&self, update: impl FnOnce(&mut SessionStats)) {
        let mut stats = self.stats.get();
        update(&mut stats);
        self.stats.set(stats);
    }

    /// The canonical form of the query's hypergraph with its head
    /// variables marked, computed once and shared by the cache lookups:
    /// the head-cover LP always, and the coloring LP when its (chased,
    /// FD-removed) query has the same shape.
    fn form(&self) -> &CanonicalForm {
        self.form.get_or_init(|| query_form(&self.query))
    }

    /// The canonical form the coloring LP is cached under: that of the
    /// chased, FD-removed query, which is the query's own form when the
    /// two have the same shape. `None` under compound dependencies.
    fn coloring_form(&self) -> Option<&CanonicalForm> {
        let lp_query = self.removal_trace()?.result();
        if same_shape(lp_query, &self.query) {
            Some(self.form())
        } else {
            Some(self.lp_form.get_or_init(|| query_form(lp_query)))
        }
    }

    /// The shared-cache entries a report looks up: the coloring LP's
    /// (which also holds the exact widths) and, when `data` is set, the
    /// head-cover LP's that [`Self::data_check`] uses. Computing them
    /// runs the chase and the FD removal, which the session keeps for
    /// its report.
    pub(crate) fn cache_keys(&self, data: bool) -> Vec<(LpKind, CanonicalKey)> {
        let coloring = self.coloring_form().map(|f| (LpKind::Coloring, f.key));
        let head_cover = data.then(|| (LpKind::HeadCover, self.form().key));
        coloring.into_iter().chain(head_cover).collect()
    }

    /// The chase of `Q` under the declared dependencies (Fact 2.4).
    pub fn chase_result(&self) -> &ChaseResult {
        self.chase.get_or_init(|| {
            let _p = phase("session.chase", "cq_session_chase_micros");
            self.count(|s| s.chase_runs += 1);
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
                self.count(|s| s.removal_runs += 1);
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
                    let mut lp = phase("session.coloring_lp", "cq_session_coloring_lp_micros");
                    match &self.cache {
                        Some(cache) => {
                            let form = self.coloring_form()?;
                            lp.record("leaves", form.leaves as u64);
                            lp.record("budget_hit", u64::from(form.budget_hit));
                            let _ = self.coloring_key.set(form.key);
                            let (cn, hit) = cache.color_number_in(trace.result(), form);
                            self.count(|s| {
                                if hit {
                                    s.cache_hits += 1;
                                } else {
                                    s.cache_misses += 1;
                                    s.color_lp_runs += 1;
                                    s.lp.add(&cn.lp_stats);
                                }
                            });
                            cn
                        }
                        None => {
                            let cn = color_number_lp(trace.result());
                            self.count(|s| {
                                s.color_lp_runs += 1;
                                s.lp.add(&cn.lp_stats);
                            });
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
                self.count(|s| s.treewidth_runs += 1);
                Some(treewidth_preservation_no_fds(trace.result()))
            })
            .as_ref()
    }

    /// Theorem 7.2: can any database make `|Q(D)| > rmax(D)`?
    pub fn size_increase(&self) -> &SizeIncreaseDecision {
        self.decision.get_or_init(|| {
            self.count(|s| s.decision_runs += 1);
            decide_size_increase_chased(&self.chase_result().query, self.variable_fds())
        })
    }

    /// GYO acyclicity of the (un-chased) query's hypergraph.
    pub fn is_acyclic(&self) -> bool {
        *self.acyclic.get_or_init(|| is_acyclic(&self.query))
    }

    /// Treewidth of the query's primal graph and generalized hypertree
    /// width of its hypergraph (the widths governing decomposition-
    /// guided evaluation, see `cq_core::decomp_eval`). Both come from
    /// the one elimination search of `cq_hypergraph::exact`, which owns
    /// the exact-or-greedy policy: each width is exact up to its variable
    /// cap ([`TREEWIDTH_EXACT_VAR_CAP`] /
    /// [`cq_hypergraph::HYPERTREE_EXACT_VAR_CAP`]) and a greedy
    /// elimination-order upper bound beyond it; the `*_exact` flags say
    /// which was computed.
    ///
    /// With a cache attached, exact widths are kept with the coloring
    /// entry of the query's canonical class and reused by every query of
    /// the class, once [`Self::size_bound`] has looked that entry up
    /// (as [`Self::report`] does first). Greedy widths are always
    /// recomputed.
    pub fn query_widths(&self) -> &QueryWidths {
        self.widths.get_or_init(|| {
            let slot = self.cache.as_ref().zip(self.widths_key());
            let cached = slot.and_then(|(cache, key)| cache.exact_widths(&key));
            if let Some(ExactWidths {
                treewidth: Some(treewidth),
                hypertree_width: Some(hypertree_width),
            }) = cached
            {
                return QueryWidths {
                    treewidth,
                    treewidth_exact: true,
                    hypertree_width,
                    hypertree_exact: true,
                };
            }
            let _p = phase("session.hypertree", "cq_session_hypertree_micros");
            self.count(|s| s.width_runs += 1);
            let h = self.query.hypergraph();
            let (treewidth, treewidth_exact) = match cached.and_then(|c| c.treewidth) {
                Some(treewidth) => (treewidth, true),
                None => treewidth_capped(&h.primal_graph()),
            };
            let (htd, hypertree_exact) = hypertree_capped(&h);
            let hypertree_width = htd.width();
            if let (Some((cache, key)), None) = (slot, cached) {
                let exact = ExactWidths {
                    treewidth: treewidth_exact.then_some(treewidth),
                    hypertree_width: hypertree_exact.then_some(hypertree_width),
                };
                cache.store_exact_widths(&key, exact);
            }
            QueryWidths {
                treewidth,
                treewidth_exact,
                hypertree_width,
                hypertree_exact,
            }
        })
    }

    /// The class whose coloring entry holds this query's widths, once
    /// the coloring LP has been looked up. Widths depend only on the
    /// hypergraph's set of edges, so a chase that unifies nothing and
    /// only drops duplicate atoms, followed by no FD removal, leaves
    /// them unchanged: then the class is the one the coloring LP was
    /// looked up under. Otherwise there is none, and the widths are not
    /// cached.
    fn widths_key(&self) -> Option<CanonicalKey> {
        let key = *self.coloring_key.get()?;
        let unchanged = self.chase_result().unifications == 0
            && self.removal_trace().is_some_and(|t| t.steps.is_empty());
        unchanged.then_some(key)
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
                let (value, stats) =
                    color_number_entropy_lp_with_stats(chased, self.variable_fds());
                self.count(|s| {
                    s.entropy_lp_runs += 1;
                    s.lp.add(&stats);
                });
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
                let (value, stats) = entropy_upper_bound_with_stats(chased, self.variable_fds());
                self.count(|s| {
                    s.entropy_lp_runs += 1;
                    s.lp.add(&stats);
                });
                Some(value)
            })
            .as_ref()
    }

    /// Proposition 4.5: builds the `M`-parameterized worst-case database
    /// from the cached certificate coloring and measures the bound on
    /// it. `None` under compound dependencies, and when the database
    /// would exceed [`WITNESS_TUPLE_BUDGET`] (see [`Self::check_witness`],
    /// which says why). Parameterized by `m`, so not memoized — but it
    /// reuses the cached chase/LP artifacts.
    pub fn witness_check(&self, m: usize) -> Option<BoundCheck> {
        self.check_witness(m).ok()?;
        let bound = self.size_bound()?;
        let db = worst_case_database(&bound.query, &bound.coloring, m);
        Some(check_size_bound(&bound.query, &db, &bound.exponent))
    }

    /// Whether [`Self::witness_check`] may build its database for `m`:
    /// the certificate coloring's `Σ_j M^{c_j}` tuples must fit in
    /// [`WITNESS_TUPLE_BUDGET`]. Computed before anything is built; `Ok`
    /// under compound dependencies, where no database is built.
    pub fn check_witness(&self, m: usize) -> Result<(), WitnessTooLarge> {
        let Some(bound) = self.size_bound() else {
            return Ok(());
        };
        match worst_case_tuples(&bound.query, &bound.coloring, m) {
            Some(tuples) if tuples <= WITNESS_TUPLE_BUDGET => Ok(()),
            tuples => Err(WitnessTooLarge { m, tuples }),
        }
    }

    /// Checks that `db` fits the query: every body atom over a relation
    /// of `db` has that relation's arity. This is the precondition of
    /// [`Self::data_check`]; [`crate::BatchAnalyzer::analyze_texts`]
    /// checks it first, so a mismatched database is a per-input error
    /// rather than a panic.
    pub fn check_database(&self, db: &Database) -> Result<(), ArityError> {
        cq_core::check_arities(&self.query, db)
    }

    /// Counts the (original) query's answers on a concrete database and
    /// checks the cached bounds against the count. Not memoized (the
    /// database is caller state), but reuses every cached artifact.
    ///
    /// # Panics
    /// Panics if [`Self::check_database`] rejects `db`.
    pub fn data_check(&self, db: &Database) -> DataCheck {
        let _p = phase("session.data_check", "cq_session_data_check_micros");
        let measured = cq_core::count_answers(&self.query, db);
        let rmax = db.rmax(&self.query.relation_names());
        let fds_hold = db.satisfies(&self.fds);
        let exact = self.size_bound().map(|bound| ExactDataBound {
            bound_approx: (rmax as f64).powf(bound.exponent.to_f64()),
            holds: cq_core::pow_le(measured, rmax, &bound.exponent),
        });
        // The head-cover product bound is valid for any query (the cover
        // LP runs over head variables), not just total join queries.
        // Passing the count avoids counting twice — on big instances
        // the count dominates the whole data check. The cover
        // LP is structure-only, so a shared cache can answer it; any
        // feasible cover yields a valid bound, so a translated cover
        // from an isomorphic query is sound here.
        let p = match &self.cache {
            Some(cache) => {
                let ((_, weights), hit) = cache.edge_cover_head_in(&self.query, self.form());
                self.count(|s| {
                    if hit {
                        s.cache_hits += 1;
                    } else {
                        s.cache_misses += 1;
                    }
                });
                cq_core::agm_product_bound_with_cover(&self.query, db, weights, measured)
            }
            None => cq_core::agm_product_bound_measured(&self.query, db, measured),
        };
        let product = Some(ProductDataBound {
            bound_approx: p.bound_approx,
            holds: p.holds,
        });
        DataCheck {
            rmax,
            measured,
            fds_hold,
            exact,
            product,
        }
    }
}

/// Whether `a` and `b` have the same hypergraph and head variables
/// (relation names aside), so that one canonical form serves both.
fn same_shape(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    a.num_vars() == b.num_vars()
        && a.head() == b.head()
        && a.body().len() == b.body().len()
        && a.body().iter().zip(b.body()).all(|(x, y)| x.vars == y.vars)
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

/// Width outcomes summed over many reports: a daemon's lifetime
/// `width_exact`/`width_heuristic` counters and a cluster run's
/// `width_stats`. Fed by [`WidthTally::add`] and combined by
/// [`WidthTally::merge`], like [`cq_core::LpWork`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WidthTally {
    /// Reports whose hypertree width came from the exact search.
    pub hypertree_exact: u64,
    /// Reports whose hypertree width is a greedy upper bound (the
    /// query was too large for the exact search).
    pub hypertree_heuristic: u64,
    /// Largest hypertree width seen.
    pub max_hypertree_width: u64,
    /// Largest treewidth seen.
    pub max_treewidth: u64,
}

impl WidthTally {
    /// Counts one report's widths.
    pub fn add(&mut self, widths: &QueryWidths) {
        *if widths.hypertree_exact {
            &mut self.hypertree_exact
        } else {
            &mut self.hypertree_heuristic
        } += 1;
        self.max_hypertree_width = self.max_hypertree_width.max(widths.hypertree_width as u64);
        self.max_treewidth = self.max_treewidth.max(widths.treewidth as u64);
    }

    /// Adds `other`'s counts and keeps the larger maxima.
    pub fn merge(&mut self, other: &WidthTally) {
        self.hypertree_exact += other.hypertree_exact;
        self.hypertree_heuristic += other.hypertree_heuristic;
        self.max_hypertree_width = self.max_hypertree_width.max(other.max_hypertree_width);
        self.max_treewidth = self.max_treewidth.max(other.max_treewidth);
    }
}

/// Why [`AnalysisSession::check_witness`] refuses a witness size: the
/// worst-case database would exceed [`WITNESS_TUPLE_BUDGET`] tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessTooLarge {
    /// The requested product parameter.
    pub m: usize,
    /// `Σ_j M^{c_j}` over the certificate coloring (`None`: past `u64`).
    pub tuples: Option<u64>,
}

impl fmt::Display for WitnessTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tuples = self
            .tuples
            .map_or_else(|| "more than 2^64".to_owned(), |t| t.to_string());
        write!(
            f,
            "witness M={} would build {tuples} tuples (the sum over atoms of M^colours \
             in the certificate coloring), over the budget of {WITNESS_TUPLE_BUDGET}; \
             choose a smaller M",
            self.m
        )
    }
}

impl std::error::Error for WitnessTooLarge {}

/// Result of [`AnalysisSession::data_check`].
#[derive(Clone, Debug)]
pub struct DataCheck {
    /// `rmax(D)` over the query's relations.
    pub rmax: usize,
    /// `|Q(D)|`, counted.
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

    #[test]
    fn witness_budget_admits_the_largest_fitting_m_and_no_more() {
        let s = AnalysisSession::parse("triangle", TRIANGLE).unwrap();
        let bound = s.size_bound().unwrap();
        let tuples = |m| worst_case_tuples(&bound.query, &bound.coloring, m);
        // The largest M whose database fits, found from the coloring.
        let fits = (1..)
            .take_while(|&m| tuples(m) <= Some(WITNESS_TUPLE_BUDGET))
            .last();
        let m = fits.unwrap();
        assert!(tuples(m + 1) > Some(WITNESS_TUPLE_BUDGET));
        assert_eq!(s.check_witness(m), Ok(()));
        let err = s.check_witness(m + 1).unwrap_err();
        assert_eq!(err.tuples, tuples(m + 1));
        assert!(err.to_string().contains("budget of 1048576"), "{err}");
        assert!(s.witness_check(m + 1).is_none(), "nothing is built");
        // Past u64, the error says so rather than wrapping.
        let huge = s.check_witness(usize::MAX).unwrap_err();
        assert_eq!(huge.tuples, None);
        assert!(huge.to_string().contains("more than 2^64"), "{huge}");
    }

    #[test]
    fn width_tally_counts_outcomes_and_keeps_maxima() {
        let exact = QueryWidths {
            treewidth: 2,
            treewidth_exact: true,
            hypertree_width: 2,
            hypertree_exact: true,
        };
        let heuristic = QueryWidths {
            treewidth: 5,
            treewidth_exact: false,
            hypertree_width: 3,
            hypertree_exact: false,
        };
        let mut a = WidthTally::default();
        a.add(&exact);
        let mut b = WidthTally::default();
        b.add(&heuristic);
        b.add(&exact);
        a.merge(&b);
        assert_eq!(
            a,
            WidthTally {
                hypertree_exact: 2,
                hypertree_heuristic: 1,
                max_hypertree_width: 3,
                max_treewidth: 5
            }
        );
    }
}
