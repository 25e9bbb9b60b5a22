//! Engine selection: dense tableau, exact revised simplex, or hybrid.
//!
//! All three engines return exact answers and implement the same
//! two-phase method with the same pivot rules, so for any program they
//! agree on the status and — at optimality — on the objective value
//! (the LP optimum is unique even when the optimal *point* is not).
//! They differ only in cost shape:
//!
//! - [`Solver::DenseTableau`] ([`crate::simplex`]) carries the full
//!   `m × (n + slacks + artificials)` tableau and updates every row per
//!   pivot. Unbeatable on the paper's small combinatorial LPs.
//! - [`Solver::RevisedSparse`] ([`crate::revised`]) keeps the constraint
//!   matrix sparse and reconstructs only what a pivot needs through an
//!   LU-factorized basis with eta updates, in rational arithmetic. It
//!   wins once the matrix is large and sparse — the Proposition 6.9
//!   entropy LP, whose `2^k − 1` columns meet constraints touching 2–4
//!   variables each.
//! - [`Solver::HybridFloat`] ([`crate::hybrid`]) runs the same revised
//!   simplex over `f64` to propose a basis and verifies it with one
//!   exact factorization, falling back to the exact engine on any doubt.
//!   The fastest engine on the large sparse programs.
//!
//! [`Solver::Auto`] (the [`crate::LinearProgram::solve`] default) picks
//! by a size/density heuristic documented at [`Solver::AUTO_MIN_DIM`];
//! the decision is recorded in [`SolveStats::solver`] so reports can say
//! which engine ran. See `docs/SOLVER.md` for the full policy.

use crate::problem::LinearProgram;
use crate::simplex::{LpSolution, PivotRule};

/// Which engine actually solved a program (recorded in [`SolveStats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverKind {
    /// The dense two-phase tableau of [`crate::simplex`].
    #[default]
    DenseTableau,
    /// The sparse revised simplex of [`crate::revised`].
    RevisedSparse,
    /// The float-first hybrid of [`crate::hybrid`]: an `f64` revised
    /// simplex proposes a basis, one exact factorization verifies it,
    /// and the exact engine backstops any failure.
    HybridFloat,
}

/// Engine choice for [`LinearProgram::solve_with_solver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Solver {
    /// Decide per program by the size/density heuristic.
    #[default]
    Auto,
    /// Force the dense tableau.
    DenseTableau,
    /// Force the sparse revised simplex.
    RevisedSparse,
    /// Force the float-first hybrid with exact basis verification.
    HybridFloat,
}

impl Solver {
    /// `Auto` routes to the sparse engine only when the larger program
    /// dimension reaches this size…
    pub const AUTO_MIN_DIM: usize = 64;
    /// …and at most one constraint-matrix entry in `AUTO_MAX_DENSITY_INV`
    /// is nonzero (density ≤ 1/4). Below either threshold the dense
    /// tableau's lower constant factors win.
    pub const AUTO_MAX_DENSITY_INV: usize = 4;

    /// Resolves `Auto` against a concrete program.
    ///
    /// Large sparse programs go to the hybrid float/exact engine unless
    /// the `CQ_LP_ENGINE` environment variable (read fresh per resolve,
    /// so tests and CI can toggle it in-process) asks for the pure exact
    /// path: `exact` keeps the sparse rational engine, `hybrid` (or
    /// unset, or anything else) keeps the default routing. Small or
    /// dense programs always use the dense tableau — at that size the
    /// float phase cannot beat its constant factors.
    pub fn resolve(self, lp: &LinearProgram) -> SolverKind {
        match self {
            Solver::DenseTableau => SolverKind::DenseTableau,
            Solver::RevisedSparse => SolverKind::RevisedSparse,
            Solver::HybridFloat => SolverKind::HybridFloat,
            Solver::Auto => {
                let m = lp.num_constraints();
                let n = lp.num_vars();
                let cells = m.saturating_mul(n);
                let nnz = constraint_nonzeros(lp);
                if m.max(n) >= Self::AUTO_MIN_DIM
                    && nnz.saturating_mul(Self::AUTO_MAX_DENSITY_INV) <= cells
                {
                    Solver::large_program().resolve(lp)
                } else {
                    SolverKind::DenseTableau
                }
            }
        }
    }

    /// The engine `Auto` picks for large sparse programs under the
    /// current `CQ_LP_ENGINE` (see [`auto_large_engine`]). For callers
    /// that want that engine whatever the program's size and density,
    /// and which should still follow the same `CQ_LP_ENGINE` pin: the
    /// Proposition 6.10 program in I-measure coordinates is the case in
    /// point, whose few minimal columns `Auto` would send to the dense
    /// tableau.
    pub fn large_program() -> Solver {
        auto_large_engine(std::env::var("CQ_LP_ENGINE").ok().as_deref())
    }
}

/// Per-solve observability, carried on every [`LpSolution`]. All fields
/// are exact counts (no sampling); a cache-served solution keeps the
/// zeroed [`Default`] value since no solve happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveStats {
    /// Engine that produced the solution.
    pub solver: SolverKind,
    /// Basis changes performed across both phases (including the
    /// degenerate drive-out pivots after phase 1).
    pub pivots: usize,
    /// Basis refactorizations (sparse engine only: the eta file was
    /// folded back into a fresh LU).
    pub refactorizations: usize,
    /// Pivots of the revised simplex that left the objective unchanged
    /// (a zero step), over every run of this solve: the hybrid's float
    /// phase and any exact run together. 0 for the dense tableau.
    pub degenerate_pivots: usize,
    /// Pivots of the revised simplex whose entering column Bland's rule
    /// chose: every pivot under [`crate::PivotRule::Bland`], and under
    /// `DantzigThenBland` those of the anti-cycling backstop. Over every
    /// run of this solve, like `degenerate_pivots`; 0 for the dense
    /// tableau.
    pub bland_pivots: usize,
    /// Nonzero coefficient mentions in the constraints, as written: a
    /// variable mentioned twice in one constraint counts twice, even if
    /// the mentions sum to zero. This is the input sparsity the `Auto`
    /// heuristic sees.
    pub nonzeros: usize,
    /// Constraint count of the program.
    pub rows: usize,
    /// Variable count of the program (structural only).
    pub cols: usize,
    /// Pivots performed by the hybrid engine's `f64` phase (0 for the
    /// pure exact engines). The exact-phase count stays in `pivots`, so
    /// the two phases are separately attributable.
    pub float_pivots: usize,
    /// `true` iff the hybrid engine's float-proposed basis passed exact
    /// verification — the solution came from one rational factorization
    /// instead of a full exact solve.
    pub float_verified: bool,
    /// 1 when the hybrid engine had to fall back to the exact revised
    /// simplex (verification failed, or the float phase gave up or
    /// claimed infeasible/unbounded — claims the hybrid never trusts).
    pub exact_fallbacks: usize,
}

/// LP work summed over many solves: the per-query `solver_stats` of a
/// report, a daemon's lifetime `lp_*` counters, a cluster run's totals.
/// Every layer that tallies solver work keeps one of these, fed by
/// [`LpWork::add`] and combined by [`LpWork::merge`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LpWork {
    /// Exact simplex pivots ([`SolveStats::pivots`]).
    pub pivots: u64,
    /// Exact basis refactorizations (sparse engine only).
    pub refactorizations: u64,
    /// Solves by the dense tableau.
    pub dense_solves: u64,
    /// Solves by the sparse revised simplex.
    pub sparse_solves: u64,
    /// Solves by the hybrid float/exact engine.
    pub hybrid_solves: u64,
    /// Pivots of the hybrid engine's `f64` phase.
    pub float_pivots: u64,
    /// Hybrid solves whose float basis passed exact verification.
    pub float_verified: u64,
    /// Hybrid solves that fell back to the full exact engine.
    pub exact_fallbacks: u64,
}

impl LpWork {
    /// Counts one solve.
    pub fn add(&mut self, stats: &SolveStats) {
        self.pivots += stats.pivots as u64;
        self.refactorizations += stats.refactorizations as u64;
        *match stats.solver {
            SolverKind::DenseTableau => &mut self.dense_solves,
            SolverKind::RevisedSparse => &mut self.sparse_solves,
            SolverKind::HybridFloat => &mut self.hybrid_solves,
        } += 1;
        self.float_pivots += stats.float_pivots as u64;
        self.float_verified += u64::from(stats.float_verified);
        self.exact_fallbacks += stats.exact_fallbacks as u64;
    }

    /// Adds `other` field by field.
    pub fn merge(&mut self, other: &LpWork) {
        for ((_, mine), (_, theirs)) in self.fields_mut().into_iter().zip(other.fields()) {
            *mine += theirs;
        }
    }

    /// The counters as `(name, value)` pairs, in the order every
    /// `solver_stats` object renders them.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, value)| (name, *value))
    }

    /// Builds a tally from `value(name)` for each name of
    /// [`LpWork::fields`] (how a rendered `solver_stats` object is read
    /// back).
    pub fn from_fields(mut value: impl FnMut(&str) -> u64) -> LpWork {
        let mut work = LpWork::default();
        for (name, field) in work.fields_mut() {
            *field = value(name);
        }
        work
    }

    /// The one place that names the counters.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 8] {
        [
            ("pivots", &mut self.pivots),
            ("refactorizations", &mut self.refactorizations),
            ("dense_solves", &mut self.dense_solves),
            ("sparse_solves", &mut self.sparse_solves),
            ("hybrid_solves", &mut self.hybrid_solves),
            ("float_pivots", &mut self.float_pivots),
            ("float_verified", &mut self.float_verified),
            ("exact_fallbacks", &mut self.exact_fallbacks),
        ]
    }
}

/// The engine `Auto` uses in the large-sparse regime, given the
/// `CQ_LP_ENGINE` value: `exact` pins the sparse rational engine, and
/// anything else (unset, `hybrid`, unknown values) keeps the hybrid.
/// A pure function so the policy is unit-testable without mutating the
/// process environment (concurrent `setenv`/`getenv` is undefined
/// behavior on glibc, so tests must not call `set_var`).
pub fn auto_large_engine(env: Option<&str>) -> Solver {
    match env {
        Some("exact") => Solver::RevisedSparse,
        _ => Solver::HybridFloat,
    }
}

/// Nonzero coefficient entries across all constraints — the numerator of
/// the density estimate (duplicate mentions of one variable in a single
/// constraint count separately; exact dedup would cost a pass for no
/// behavioral difference at the heuristic's thresholds).
pub(crate) fn constraint_nonzeros(lp: &LinearProgram) -> usize {
    lp.constraints()
        .iter()
        .map(|c| c.coeffs.iter().filter(|(_, v)| !v.is_zero()).count())
        .sum()
}

/// Solves `lp` with the chosen engine and pivot rule. `rule` is honored
/// by every engine; [`PivotRule::DantzigThenBland`] is the revised
/// engines' recommended default, under which they price by devex and
/// the dense tableau by Dantzig's rule (Bland's guarantee still
/// backstops degenerate stretches in all three).
pub fn solve_lp(lp: &LinearProgram, solver: Solver, rule: PivotRule) -> LpSolution {
    let solution = match solver.resolve(lp) {
        SolverKind::DenseTableau => crate::simplex::solve_with(lp, rule),
        SolverKind::RevisedSparse => crate::revised::solve_revised(lp, rule),
        SolverKind::HybridFloat => crate::hybrid::solve_hybrid(lp, rule),
    };
    // Per-solve pivot distribution, split by engine (the hybrid's float
    // phase additionally records `cq_lp_float_pivots` at its call site).
    cq_telemetry::Metrics::global()
        .histogram(match solution.stats.solver {
            SolverKind::DenseTableau => "cq_lp_dense_pivots",
            SolverKind::RevisedSparse => "cq_lp_sparse_pivots",
            SolverKind::HybridFloat => "cq_lp_hybrid_exact_pivots",
        })
        .observe(solution.stats.pivots as u64);
    solution
}

/// Solves `lp` with the chosen engine under that engine's default pivot
/// rule: Bland for the dense tableau (the historical default, never
/// cycles), [`PivotRule::DantzigThenBland`] for the exact revised and
/// hybrid engines, which then price by devex (far fewer pivots on the
/// degenerate entropy programs, same termination guarantee).
pub fn solve_auto(lp: &LinearProgram, solver: Solver) -> LpSolution {
    let rule = match solver.resolve(lp) {
        SolverKind::DenseTableau => PivotRule::Bland,
        SolverKind::RevisedSparse | SolverKind::HybridFloat => PivotRule::DantzigThenBland,
    };
    solve_lp(lp, solver, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation;
    use cq_arith::Rational;

    /// `k` variables, `m` constraints of `touch` variables each.
    fn lp_shape(n: usize, m: usize, touch: usize) -> LinearProgram {
        let mut lp = LinearProgram::maximize();
        let vars: Vec<_> = (0..n).map(|i| lp.add_var(format!("x{i}"))).collect();
        for i in 0..m {
            let coeffs: Vec<_> = (0..touch)
                .map(|t| (vars[(i + t) % n], Rational::one()))
                .collect();
            lp.add_constraint(coeffs, Relation::Le, Rational::one());
        }
        lp
    }

    #[test]
    fn auto_picks_dense_for_small_programs() {
        let lp = lp_shape(6, 8, 2);
        assert_eq!(Solver::Auto.resolve(&lp), SolverKind::DenseTableau);
    }

    #[test]
    fn auto_picks_hybrid_for_large_sparse_programs() {
        // 128 vars, 200 constraints touching 3 each: density 3/128.
        let lp = lp_shape(128, 200, 3);
        // Env-aware so the suite also passes under a CQ_LP_ENGINE run.
        let expected = Solver::large_program().resolve(&lp);
        assert_eq!(Solver::Auto.resolve(&lp), expected);
    }

    #[test]
    fn engine_env_knob_policy() {
        assert_eq!(auto_large_engine(None), Solver::HybridFloat);
        assert_eq!(auto_large_engine(Some("hybrid")), Solver::HybridFloat);
        assert_eq!(auto_large_engine(Some("exact")), Solver::RevisedSparse);
        // Unknown values keep the default rather than erroring.
        assert_eq!(auto_large_engine(Some("bogus")), Solver::HybridFloat);
    }

    #[test]
    fn auto_picks_dense_for_large_dense_programs() {
        // 80 vars but constraints touch 40 of them: density 1/2.
        let lp = lp_shape(80, 80, 40);
        assert_eq!(Solver::Auto.resolve(&lp), SolverKind::DenseTableau);
    }

    #[test]
    fn lp_work_tallies_solves_and_round_trips_its_fields() {
        let mut work = LpWork::default();
        work.add(&SolveStats {
            pivots: 3,
            ..SolveStats::default()
        });
        work.add(&SolveStats {
            solver: SolverKind::HybridFloat,
            refactorizations: 1,
            float_pivots: 40,
            float_verified: true,
            ..SolveStats::default()
        });
        work.add(&SolveStats {
            solver: SolverKind::HybridFloat,
            pivots: 7,
            float_pivots: 12,
            exact_fallbacks: 1,
            ..SolveStats::default()
        });
        let mut twice = work;
        twice.merge(&work);
        assert_eq!(
            twice.fields(),
            [
                ("pivots", 20),
                ("refactorizations", 2),
                ("dense_solves", 2),
                ("sparse_solves", 0),
                ("hybrid_solves", 4),
                ("float_pivots", 104),
                ("float_verified", 2),
                ("exact_fallbacks", 2),
            ]
        );
        let fields = work.fields();
        let read = LpWork::from_fields(|name| fields.iter().find(|f| f.0 == name).unwrap().1);
        assert_eq!(read, work);
    }

    #[test]
    fn forced_choices_are_honored() {
        let lp = lp_shape(4, 4, 2);
        assert_eq!(Solver::DenseTableau.resolve(&lp), SolverKind::DenseTableau);
        assert_eq!(
            Solver::RevisedSparse.resolve(&lp),
            SolverKind::RevisedSparse
        );
        let s = solve_auto(&lp, Solver::RevisedSparse);
        assert_eq!(s.stats.solver, SolverKind::RevisedSparse);
    }
}
