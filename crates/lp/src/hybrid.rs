//! Hybrid float/exact simplex: float proposes, rationals dispose.
//!
//! The standard trick for making exact LP solving fast (see e.g. the
//! QSopt_ex / SoPlex lineage): run the simplex method in `f64`
//! (the revised engine of [`crate::revised`] over `f64` instead of
//! rationals), which finds the optimal *basis* orders of magnitude
//! faster than exact arithmetic, then check that basis with
//! one exact rational factorization. A basis `B` certifies optimality
//! iff, exactly:
//!
//! 1. `B` is nonsingular;
//! 2. `x_B = B⁻¹ b ≥ 0` componentwise, with every basic *artificial*
//!    position exactly 0 (so the original constraints hold exactly);
//! 3. with `y = B⁻ᵀ c_B`, every non-artificial nonbasic column `j` has
//!    reduced cost `d_j = c_j − y·A_j ≤ 0` (maximization sense).
//!
//! (1)+(2) make the basic solution feasible; (3) makes it dual-feasible
//! over every column a feasible point can use, and for any feasible
//! `x'`: `c·x' = y·b + Σ_j d_j x'_j ≤ y·b = c·x*` — so `x*` is optimal.
//! The certificate is checked entirely in exact arithmetic, so the
//! emitted solution is **bit-identical** to what the pure exact engine
//! would produce: same status, same objective, and a witness that is
//! exactly feasible. Float error can only make verification *fail*,
//! never make a wrong answer pass.
//!
//! When verification fails — or the float run cycles, stalls, or claims
//! infeasible/unbounded (claims we never trust) — the already-built
//! exact `Revised` state solves the program from scratch and
//! [`crate::SolveStats::exact_fallbacks`] records the detour.

use crate::revised::{Revised, SparseLu};
use crate::simplex::{LpSolution, LpStatus, PivotRule};
use crate::solver::{SolveStats, SolverKind};
use crate::LinearProgram;
use cq_arith::Rational;
use cq_telemetry::{phase, Metrics, Span};

/// Solves `lp` with the float-first hybrid. See the module docs for the
/// verification contract; see [`crate::solver::Solver::Auto`] for when
/// this engine is selected automatically.
///
/// Each phase is a telemetry span (`lp.canonicalize`,
/// `lp.float_propose`, `lp.exact_verify`, `lp.exact_fallback`) with an
/// always-on latency histogram — the `CQ_TRACE=stderr` replacement for
/// the retired `CQ_HYBRID_TRACE` eprintln profile.
pub fn solve_hybrid(lp: &LinearProgram, rule: PivotRule) -> LpSolution {
    let _hybrid = Span::enter("lp.solve_hybrid");
    let ex = {
        let _p = phase("lp.canonicalize", "cq_lp_canonicalize_micros");
        Revised::new(lp)
    };
    let (status, basis, float) = {
        let mut p = phase("lp.float_propose", "cq_lp_float_propose_micros");
        let mut float = ex.to_f64();
        let status = float.solve(rule);
        p.record("pivots", float.stats.pivots as u64);
        p.record("degenerate", float.stats.degenerate_pivots as u64);
        p.record("bland", float.stats.bland_pivots as u64);
        (status, float.basis, float.stats)
    };
    Metrics::global()
        .histogram("cq_lp_float_pivots")
        .observe(float.pivots as u64);
    // Only a claimed optimum is worth verifying; infeasible and
    // unbounded claims, and giving up, all go to the exact engine.
    if status == Some(LpStatus::Optimal) {
        let sol = {
            let _p = phase("lp.exact_verify", "cq_lp_exact_verify_micros");
            verify_basis(&ex, &basis, &float)
        };
        if let Some(solution) = sol {
            Metrics::global()
                .counter("cq_lp_float_verified_total")
                .inc();
            return solution;
        }
    }
    // Fallback: full exact solve on the state we already canonicalized.
    let mut solution = {
        let _p = phase("lp.exact_fallback", "cq_lp_exact_fallback_micros");
        ex.run(rule)
    };
    Metrics::global()
        .counter("cq_lp_exact_fallbacks_total")
        .inc();
    add_float_phase(&mut solution.stats, &float);
    solution.stats.exact_fallbacks = 1;
    solution
}

/// Marks `stats` as a hybrid solve's and adds the float phase's work,
/// whose stats are `float`.
fn add_float_phase(stats: &mut SolveStats, float: &SolveStats) {
    stats.solver = SolverKind::HybridFloat;
    stats.float_pivots = float.pivots;
    stats.degenerate_pivots += float.degenerate_pivots;
    stats.bland_pivots += float.bland_pivots;
}

/// Exact verification of a float-proposed basis. `Some(solution)` iff
/// the basis certifies optimality under the contract in the module
/// docs; any violation — singular basis, duplicate columns, primal or
/// dual infeasibility — returns `None` and the caller falls back.
fn verify_basis(ex: &Revised<'_>, basis: &[usize], float: &SolveStats) -> Option<LpSolution> {
    if basis.len() != ex.m {
        return None;
    }
    let mut in_basis = vec![false; ex.cols];
    for &j in basis {
        if j >= ex.cols || in_basis[j] {
            return None;
        }
        in_basis[j] = true;
    }

    let mut lu = SparseLu::factorize(ex.m, |p| ex.a.col(basis[p]))?;

    // Primal feasibility: x_B = B⁻¹b ≥ 0, basic artificials exactly 0.
    let mut x_b = vec![Rational::zero(); ex.m];
    let b: Vec<_> = ex.b_rhs.iter().cloned().enumerate().collect();
    lu.ftran(&b, &mut x_b);
    for (r, x) in x_b.iter().enumerate() {
        if x.is_negative() || (basis[r] >= ex.first_art && !x.is_zero()) {
            return None;
        }
    }

    // Dual feasibility: y = B⁻ᵀc_B, then d_j ≤ 0 for every nonbasic
    // non-artificial column (artificials are barred from entering in
    // phase 2, so their reduced costs are irrelevant — exactly as in
    // the pure exact engines).
    let mut c_b: Vec<_> = basis.iter().map(|&j| ex.phase2[j].clone()).collect();
    let nonzero: Vec<usize> = (0..ex.m).filter(|&p| !c_b[p].is_zero()).collect();
    let mut y = vec![Rational::zero(); ex.m];
    lu.btran(&mut c_b, &nonzero, &mut y);
    for (j, cost) in ex.phase2.iter().enumerate().take(ex.first_art) {
        if !in_basis[j] && (cost - &ex.a.dot_col(j, &y)).is_positive() {
            return None;
        }
    }

    // Certified: emit the exact solution straight from the basis.
    let mut stats = ex.stats;
    add_float_phase(&mut stats, float);
    stats.float_verified = true;
    Some(ex.optimal_solution(basis, &x_b, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation;
    use crate::solve_revised;

    fn ri(p: i64) -> Rational {
        Rational::int(p)
    }

    #[test]
    fn hybrid_matches_exact_and_verifies() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let h = solve_hybrid(&lp, PivotRule::DantzigThenBland);
        let e = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(h.status, LpStatus::Optimal);
        assert_eq!(h.objective, e.objective);
        assert_eq!(h.stats.solver, SolverKind::HybridFloat);
        assert!(h.stats.float_verified, "{:?}", h.stats);
        assert_eq!(h.stats.exact_fallbacks, 0);
        assert!(h.stats.float_pivots >= 2);
        assert_eq!(h.stats.pivots, 0, "no exact pivots on the verified path");
    }

    #[test]
    fn hybrid_agrees_on_all_status_classes() {
        // Infeasible: float's claim is distrusted, the exact fallback
        // must both run and agree.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(2));
        let h = solve_hybrid(&lp, PivotRule::Bland);
        assert_eq!(h.status, LpStatus::Infeasible);
        assert_eq!(h.stats.exact_fallbacks, 1);
        assert!(!h.stats.float_verified);

        // Unbounded likewise.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(1));
        let h = solve_hybrid(&lp, PivotRule::DantzigThenBland);
        assert_eq!(h.status, LpStatus::Unbounded);
        assert_eq!(h.stats.exact_fallbacks, 1);
    }

    #[test]
    fn verification_rejects_a_wrong_basis() {
        // max x s.t. x <= 5: optimum keeps the slack out of the basis
        // at position 0. The initial all-slack basis is feasible but
        // not optimal, so it must fail dual feasibility.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(5));
        let ex = Revised::new(&lp);
        let none = SolveStats::default();
        assert!(
            verify_basis(&ex, &[1], &none).is_none(),
            "slack basis not optimal"
        );
        let v = verify_basis(&ex, &[0], &none).expect("x-basis is optimal");
        assert_eq!(v.objective, ri(5));
        // Malformed bases are rejected, not panicked on.
        assert!(verify_basis(&ex, &[], &none).is_none());
        assert!(verify_basis(&ex, &[7], &none).is_none());
    }
}
