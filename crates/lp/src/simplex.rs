//! Exact two-phase simplex with Bland's rule.
//!
//! The tableau is dense over [`Rational`]. Phase 1 minimizes the sum of
//! artificial variables to find a basic feasible solution (or prove
//! infeasibility); phase 2 optimizes the user objective. Bland's rule
//! (smallest-index entering and leaving variables) guarantees termination
//! even on the degenerate tableaus that the paper's combinatorial LPs
//! produce routinely.

use crate::problem::{LinearProgram, Objective, Relation, VarId};
use crate::solver::{constraint_nonzeros, SolveStats, SolverKind};
use cq_arith::Rational;

/// Pivot-selection strategy.
///
/// Bland's rule is the termination-safe default (the paper's LPs are
/// highly degenerate). A greedy rule pivots far fewer times in practice;
/// each engine guards its greedy rule against cycling by handing
/// pricing to Bland after a degenerate stretch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PivotRule {
    /// Smallest-index improving column, in every engine; never cycles.
    #[default]
    Bland,
    /// A greedy rule with Bland's rule as the anti-cycling backstop.
    ///
    /// - The dense tableau prices by Dantzig's rule (most-negative
    ///   reduced cost) and switches to Bland after 64 consecutive
    ///   degenerate (zero-improvement) pivots.
    /// - The revised simplex, exact and as the hybrid's `f64` phase,
    ///   prices by devex (the largest `d_j²/w_j` over reference weights
    ///   `w_j`, which starts out as Dantzig's choice) and switches to
    ///   Bland after `max(64, m)` consecutive degenerate pivots, `m`
    ///   the row count.
    ///
    /// Either way Bland prices until a pivot moves the objective.
    DantzigThenBland,
}

/// Outcome classification of a solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Solve outcome.
    pub status: LpStatus,
    /// Optimal objective value (meaningful only when `status == Optimal`).
    pub objective: Rational,
    /// Optimal variable assignment, indexed by [`VarId::index`]
    /// (meaningful only when `status == Optimal`).
    pub values: Vec<Rational>,
    /// Per-solve observability: which engine ran, pivot and
    /// refactorization counts, and the program's shape.
    pub stats: SolveStats,
}

impl LpSolution {
    /// Value of `var` in the optimal solution.
    pub fn value(&self, var: VarId) -> &Rational {
        &self.values[var.index()]
    }

    /// `true` when an optimum was found.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

struct Tableau {
    /// `rows x cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<Rational>>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Number of columns excluding the RHS.
    cols: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> &Rational {
        &self.a[row][self.cols]
    }

    /// Pivot on (row, col): scale the pivot row so the pivot entry becomes
    /// 1, then eliminate the column from all other rows and from `obj`.
    ///
    /// All updates are in place: the pivot row is moved out (not cloned)
    /// while the other rows borrow it, each elimination steals its column
    /// entry as the factor (the entry's final value is exactly 0, so
    /// nothing is lost), and zero entries of the pivot row are skipped —
    /// on the sparse tableaus the paper's LPs produce, most are zero.
    fn pivot(&mut self, row: usize, col: usize, objectives: &mut [Vec<Rational>]) {
        let inv = self.a[row][col].recip();
        for x in self.a[row].iter_mut() {
            if !x.is_zero() {
                *x *= &inv;
            }
        }
        let pivot_row = std::mem::take(&mut self.a[row]);
        for (r, arow) in self.a.iter_mut().enumerate() {
            if r != row {
                eliminate_col(arow, col, &pivot_row);
            }
        }
        for obj in objectives.iter_mut() {
            eliminate_col(obj, col, &pivot_row);
        }
        self.a[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Runs simplex iterations on `obj` (a maximization reduced-cost row:
    /// entry `j` is the negated reduced cost, so a *negative* entry means
    /// improving). `allowed` masks columns that may enter the basis.
    /// Returns `false` if the problem is unbounded in the improving
    /// direction.
    fn optimize(
        &mut self,
        obj_idx: usize,
        objectives: &mut [Vec<Rational>],
        allowed: &[bool],
        rule: PivotRule,
        pivots: &mut usize,
    ) -> bool {
        let mut degenerate_streak = 0usize;
        loop {
            let use_bland = rule == PivotRule::Bland || degenerate_streak >= 64;
            let entering = if use_bland {
                // Bland: smallest-index improving column.
                (0..self.cols).find(|&j| allowed[j] && objectives[obj_idx][j].is_negative())
            } else {
                // Dantzig: most-negative reduced cost.
                (0..self.cols)
                    .filter(|&j| allowed[j] && objectives[obj_idx][j].is_negative())
                    .min_by(|&a, &b| objectives[obj_idx][a].cmp(&objectives[obj_idx][b]))
            };
            let Some(col) = entering else {
                return true; // optimal
            };
            // Ratio test, smallest index tie-break on basis variable.
            let mut best: Option<(usize, Rational)> = None;
            for r in 0..self.a.len() {
                if !self.a[r][col].is_positive() {
                    continue;
                }
                let ratio = self.rhs(r) / &self.a[r][col];
                match &best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
            let Some((row, ratio)) = best else {
                return false; // unbounded
            };
            if ratio.is_zero() {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            *pivots += 1;
            self.pivot(row, col, objectives);
        }
    }
}

/// Subtracts `target[col] · pivot_row` from `target` in place, zeroing
/// `target[col]`. The column entry is *moved* out as the factor rather
/// than cloned: its post-elimination value is `factor − factor·1 = 0`,
/// exactly what `mem::replace` leaves behind.
fn eliminate_col(target: &mut [Rational], col: usize, pivot_row: &[Rational]) {
    let factor = std::mem::replace(&mut target[col], Rational::zero());
    if factor.is_zero() {
        return;
    }
    for (j, p) in pivot_row.iter().enumerate() {
        if j != col && !p.is_zero() {
            target[j] -= &(&factor * p);
        }
    }
}

/// Solves `lp` with the dense tableau under Bland's rule. See
/// [`LpStatus`]. (The engine-selecting entry point is
/// [`LinearProgram::solve`]; this one always runs dense.)
pub fn solve(lp: &LinearProgram) -> LpSolution {
    solve_with(lp, PivotRule::Bland)
}

/// Solves `lp` with the dense tableau and the chosen pivot rule.
pub fn solve_with(lp: &LinearProgram, rule: PivotRule) -> LpSolution {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let mut stats = SolveStats {
        solver: SolverKind::DenseTableau,
        nonzeros: constraint_nonzeros(lp),
        rows: m,
        cols: n,
        ..SolveStats::default()
    };

    // Canonicalize each row: dense coefficients with nonnegative RHS.
    // Count auxiliary columns first.
    let mut n_slack = 0; // one per Le / Ge row
    for c in lp.constraints() {
        if c.rel != Relation::Eq {
            n_slack += 1;
        }
    }
    let n_art = m; // at most one artificial per row (allocated lazily below)
    let cols = n + n_slack + n_art;

    let mut a = vec![vec![Rational::zero(); cols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<Option<usize>> = vec![None; m];
    let mut slack_cursor = n;
    let mut art_cursor = n + n_slack;

    for (i, c) in lp.constraints().iter().enumerate() {
        let mut dense = vec![Rational::zero(); n];
        for (v, coeff) in &c.coeffs {
            dense[v.index()] += coeff;
        }
        let mut rhs = c.rhs.clone();
        let mut rel = c.rel;
        // Flip the row when the RHS is negative so b >= 0.
        if rhs.is_negative() {
            for d in dense.iter_mut() {
                *d = -&*d;
            }
            rhs = -rhs;
            rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        a[i][..n].clone_from_slice(&dense);
        a[i][cols] = rhs;
        match rel {
            Relation::Le => {
                // Slack enters the basis directly.
                a[i][slack_cursor] = Rational::one();
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                // Surplus (-1) plus an artificial basic variable.
                a[i][slack_cursor] = -Rational::one();
                slack_cursor += 1;
                a[i][art_cursor] = Rational::one();
                basis[i] = art_cursor;
                art_cols[i] = Some(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                a[i][art_cursor] = Rational::one();
                basis[i] = art_cursor;
                art_cols[i] = Some(art_cursor);
                art_cursor += 1;
            }
        }
    }
    let first_art = n + n_slack;
    let mut t = Tableau { a, basis, cols };

    // Phase-2 objective row: negated reduced costs for maximization.
    // For minimization we negate the objective and maximize.
    let mut phase2 = vec![Rational::zero(); cols + 1];
    for (j, c) in lp.objective_coeffs().iter().enumerate() {
        phase2[j] = match lp.objective() {
            Objective::Maximize => -c,
            Objective::Minimize => c.clone(),
        };
    }

    // Phase-1 objective: minimize the sum of artificials, expressed as a
    // maximization of their negated sum; start with reduced costs priced
    // out for the artificial basis (subtract each artificial row).
    let mut phase1 = vec![Rational::zero(); cols + 1];
    for (i, art) in art_cols.iter().enumerate() {
        if art.is_some() {
            for (p1, coeff) in phase1.iter_mut().zip(&t.a[i]) {
                *p1 = &*p1 - coeff;
            }
        }
    }
    for ac in art_cols.iter().flatten() {
        // keep the identity column priced at zero
        phase1[*ac] = Rational::zero();
    }

    let any_artificial = art_cols.iter().any(|c| c.is_some());
    let mut objectives = vec![phase1, phase2];

    if any_artificial {
        let allowed: Vec<bool> = (0..cols).map(|_| true).collect();
        let ok = t.optimize(0, &mut objectives, &allowed, rule, &mut stats.pivots);
        debug_assert!(ok, "phase 1 cannot be unbounded");
        // Phase-1 optimum is -(sum of artificials); feasible iff zero.
        if objectives[0][cols].is_negative() || objectives[0][cols].is_positive() {
            return LpSolution {
                status: LpStatus::Infeasible,
                objective: Rational::zero(),
                values: vec![Rational::zero(); n],
                stats,
            };
        }
        // Drive any artificial variables remaining in the basis at level 0
        // out, or mark their rows as redundant.
        for r in 0..m {
            if t.basis[r] >= first_art {
                // Find a non-artificial column with a nonzero entry.
                if let Some(col) = (0..first_art).find(|&j| !t.a[r][j].is_zero()) {
                    stats.pivots += 1;
                    t.pivot(r, col, &mut objectives);
                }
                // Otherwise the row is all-zero over structurals: redundant;
                // the artificial stays basic at value 0, which is harmless
                // as long as it never leaves zero (it cannot: its row RHS
                // is 0 and it never enters the objective).
            }
        }
    }

    // Phase 2: artificial columns may no longer enter.
    let allowed: Vec<bool> = (0..cols).map(|j| j < first_art).collect();
    let ok = t.optimize(1, &mut objectives, &allowed, rule, &mut stats.pivots);
    if !ok {
        return LpSolution {
            status: LpStatus::Unbounded,
            objective: Rational::zero(),
            values: vec![Rational::zero(); n],
            stats,
        };
    }

    let mut values = vec![Rational::zero(); n];
    for r in 0..m {
        if t.basis[r] < n {
            values[t.basis[r]] = t.rhs(r).clone();
        }
    }
    let raw = objectives[1][cols].clone();
    let objective = match lp.objective() {
        Objective::Maximize => raw,
        Objective::Minimize => -raw,
    };
    LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};
    use proptest::prelude::*;

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    fn ri(p: i64) -> Rational {
        Rational::int(p)
    }

    #[test]
    fn basic_max() {
        // max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18  -> 36 at (2,6)
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(36));
        assert_eq!(s.value(x), &ri(2));
        assert_eq!(s.value(y), &ri(6));
    }

    #[test]
    fn basic_min_with_ge() {
        // min 2x + 3y st x + y >= 4; x >= 1 -> 2*4? optimum at y=0? check:
        // candidates: (4,0) -> 8, (1,3) -> 11; so 8.
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(2));
        lp.set_objective_coeff(y, ri(3));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Ge, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(8));
        assert_eq!(s.value(x), &ri(4));
    }

    #[test]
    fn equality_constraints() {
        // max x + y st x + 2y = 4; x <= 2 -> x=2, y=1, obj=3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(2));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
        assert_eq!(s.value(x), &ri(2));
        assert_eq!(s.value(y), &ri(1));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(2));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(1));
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_canonicalized() {
        // x - y <= -1 (i.e. y >= x + 1), max x st x <= 3, y <= 4 -> x=3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(-1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(3));
        lp.add_constraint(vec![(y, ri(1))], Relation::Le, ri(4));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
        assert!(s.value(y) >= &ri(4));
    }

    #[test]
    fn fractional_optimum_is_exact() {
        // The triangle-query LP (Example 3.3): max x+y+z with pairwise sums <= 1.
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        for v in [x, y, z] {
            lp.set_objective_coeff(v, ri(1));
        }
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (z, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(y, ri(1)), (z, ri(1))], Relation::Le, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, r(3, 2));
        assert_eq!(s.value(x), &r(1, 2));
    }

    #[test]
    fn degenerate_beale_terminates() {
        // Beale's classic cycling example; Bland's rule must terminate.
        // min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
        // st x1 + 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 = 0
        //    x2 + 1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 = 0
        //    x3 + x6 = 1
        // optimum -1/20
        let mut lp = LinearProgram::minimize();
        let x1 = lp.add_var("x1");
        let x2 = lp.add_var("x2");
        let x3 = lp.add_var("x3");
        let x4 = lp.add_var("x4");
        let x5 = lp.add_var("x5");
        let x6 = lp.add_var("x6");
        let x7 = lp.add_var("x7");
        lp.set_objective_coeff(x4, r(-3, 4));
        lp.set_objective_coeff(x5, ri(150));
        lp.set_objective_coeff(x6, r(-1, 50));
        lp.set_objective_coeff(x7, ri(6));
        lp.add_constraint(
            vec![
                (x1, ri(1)),
                (x4, r(1, 4)),
                (x5, ri(-60)),
                (x6, r(-1, 25)),
                (x7, ri(9)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(
            vec![
                (x2, ri(1)),
                (x4, r(1, 2)),
                (x5, ri(-90)),
                (x6, r(-1, 50)),
                (x7, ri(3)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(vec![(x3, ri(1)), (x6, ri(1))], Relation::Eq, ri(1));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, r(-1, 20));
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; max x -> 2
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(2));
    }

    #[test]
    fn zero_variable_lp() {
        let lp = LinearProgram::maximize();
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(0));
    }

    #[test]
    fn duplicate_coeffs_are_summed() {
        // max x st x/2 + x/2 <= 3
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, r(1, 2)), (x, r(1, 2))], Relation::Le, ri(3));
        let s = lp.solve();
        assert_eq!(s.objective, ri(3));
    }

    #[test]
    fn strong_duality_on_canonical_program() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let p = lp.solve();
        let d = lp.dual().solve();
        assert_eq!(p.status, LpStatus::Optimal);
        assert_eq!(d.status, LpStatus::Optimal);
        assert_eq!(p.objective, d.objective);
    }

    #[test]
    fn pivot_rules_agree() {
        // both rules reach the same optimum on a batch of LPs, including
        // the degenerate Beale instance
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let a = crate::simplex::solve_with(&lp, PivotRule::Bland);
        let b = crate::simplex::solve_with(&lp, PivotRule::DantzigThenBland);
        assert_eq!(a.objective, b.objective);
    }

    #[test]
    fn dantzig_terminates_on_beale() {
        let mut lp = LinearProgram::minimize();
        let x1 = lp.add_var("x1");
        let x2 = lp.add_var("x2");
        let x3 = lp.add_var("x3");
        let x4 = lp.add_var("x4");
        let x5 = lp.add_var("x5");
        let x6 = lp.add_var("x6");
        let x7 = lp.add_var("x7");
        lp.set_objective_coeff(x4, r(-3, 4));
        lp.set_objective_coeff(x5, ri(150));
        lp.set_objective_coeff(x6, r(-1, 50));
        lp.set_objective_coeff(x7, ri(6));
        lp.add_constraint(
            vec![
                (x1, ri(1)),
                (x4, r(1, 4)),
                (x5, ri(-60)),
                (x6, r(-1, 25)),
                (x7, ri(9)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(
            vec![
                (x2, ri(1)),
                (x4, r(1, 2)),
                (x5, ri(-90)),
                (x6, r(-1, 50)),
                (x7, ri(3)),
            ],
            Relation::Eq,
            ri(0),
        );
        lp.add_constraint(vec![(x3, ri(1)), (x6, ri(1))], Relation::Eq, ri(1));
        let s = crate::simplex::solve_with(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, r(-1, 20));
    }

    /// An equality constraint behaves exactly like the pair of
    /// inequalities it abbreviates.
    fn with_eq_vs_pair(eq: bool) -> LpSolution {
        // max x + y st x + 2y (= or <=/>=) 6; x <= 4
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        if eq {
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(6));
        } else {
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Le, ri(6));
            lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Ge, ri(6));
        }
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.solve()
    }

    #[test]
    fn equality_equals_inequality_pair() {
        let a = with_eq_vs_pair(true);
        let b = with_eq_vs_pair(false);
        assert_eq!(a.status, LpStatus::Optimal);
        assert_eq!(a.objective, b.objective);
    }

    /// Random small canonical-form LPs: verify feasibility of the reported
    /// solution and strong duality whenever both sides are optimal.
    fn arb_canonical_lp() -> impl Strategy<Value = LinearProgram> {
        (1usize..4, 1usize..5).prop_flat_map(|(nv, nc)| {
            let coeff = -3i64..4;
            let obj = proptest::collection::vec(0i64..4, nv);
            let rows =
                proptest::collection::vec((proptest::collection::vec(coeff, nv), 0i64..6), nc);
            (obj, rows).prop_map(move |(obj, rows)| {
                let mut lp = LinearProgram::maximize();
                let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
                for (i, &c) in obj.iter().enumerate() {
                    lp.set_objective_coeff(vars[i], ri(c));
                }
                for (coeffs, rhs) in rows {
                    let sparse: Vec<_> = coeffs
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| (vars[i], ri(c)))
                        .collect();
                    lp.add_constraint(sparse, Relation::Le, ri(rhs));
                }
                lp
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn solution_is_feasible_and_duality_holds(lp in arb_canonical_lp()) {
            let s = lp.solve();
            // x = 0 is always feasible here (rhs >= 0), so never infeasible.
            prop_assert!(s.status != LpStatus::Infeasible);
            if s.status == LpStatus::Optimal {
                // check feasibility exactly
                for c in lp.constraints() {
                    let mut lhs = Rational::zero();
                    for (v, co) in &c.coeffs {
                        lhs += &(co * &s.values[v.index()]);
                    }
                    prop_assert!(lhs <= c.rhs);
                }
                for v in &s.values {
                    prop_assert!(!v.is_negative());
                }
                // strong duality
                let d = lp.dual().solve();
                prop_assert_eq!(d.status, LpStatus::Optimal);
                prop_assert_eq!(d.objective, s.objective);
            } else {
                // unbounded primal => infeasible dual
                let d = lp.dual().solve();
                prop_assert_eq!(d.status, LpStatus::Infeasible);
            }
        }
    }
}
