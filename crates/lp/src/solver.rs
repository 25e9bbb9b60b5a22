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
//!   wins once the matrix is large and sparse — the entropy LPs of
//!   Propositions 6.9/6.10, whose `2^k − 1` columns meet constraints
//!   touching 2–4 variables each.
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

impl SolverKind {
    /// Stable lowercase name (used by reports and benches).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::DenseTableau => "dense_tableau",
            SolverKind::RevisedSparse => "revised_sparse",
            SolverKind::HybridFloat => "hybrid_float",
        }
    }
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
                    auto_large_engine(std::env::var("CQ_LP_ENGINE").ok().as_deref())
                } else {
                    SolverKind::DenseTableau
                }
            }
        }
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
    /// Nonzero structural coefficients of the constraint matrix (after
    /// summing duplicate terms is *not* applied — this is the input
    /// sparsity the `Auto` heuristic sees).
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

/// The engine `Auto` uses in the large-sparse regime, given the
/// `CQ_LP_ENGINE` value. Split out as a pure function so the policy is
/// unit-testable without mutating the process environment (concurrent
/// `setenv`/`getenv` is undefined behavior on glibc, so tests must not
/// call `set_var`).
fn auto_large_engine(env: Option<&str>) -> SolverKind {
    match env {
        Some("exact") => SolverKind::RevisedSparse,
        _ => SolverKind::HybridFloat,
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
/// by both engines; [`PivotRule::DantzigThenBland`] is the sparse
/// engine's recommended default (Bland's guarantee still backstops
/// degenerate stretches).
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
/// cycles), Dantzig-then-Bland for the sparse engine (fewer pivots in
/// practice, same termination guarantee).
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
        let expected = auto_large_engine(std::env::var("CQ_LP_ENGINE").ok().as_deref());
        assert_eq!(Solver::Auto.resolve(&lp), expected);
    }

    #[test]
    fn engine_env_knob_policy() {
        assert_eq!(auto_large_engine(None), SolverKind::HybridFloat);
        assert_eq!(auto_large_engine(Some("hybrid")), SolverKind::HybridFloat);
        assert_eq!(auto_large_engine(Some("exact")), SolverKind::RevisedSparse);
        // Unknown values keep the default rather than erroring.
        assert_eq!(auto_large_engine(Some("bogus")), SolverKind::HybridFloat);
    }

    #[test]
    fn auto_picks_dense_for_large_dense_programs() {
        // 80 vars but constraints touch 40 of them: density 1/2.
        let lp = lp_shape(80, 80, 40);
        assert_eq!(Solver::Auto.resolve(&lp), SolverKind::DenseTableau);
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
