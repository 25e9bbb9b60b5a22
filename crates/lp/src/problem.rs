//! Linear program construction.
//!
//! A [`LinearProgram`] is a set of nonnegative variables, sparse linear
//! constraints, and a linear objective. The builder API mirrors how the
//! paper states its programs: create variables, add one constraint per
//! query atom / functional dependency / information inequality, set the
//! objective, solve.

use cq_arith::Rational;
use std::fmt;

/// Handle to a variable of a [`LinearProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Positional index of the variable (creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Objective {
    /// Maximize the objective function.
    Maximize,
    /// Minimize the objective function.
    Minimize,
}

/// Comparison direction of a constraint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Relation {
    /// `a·x <= b`
    Le,
    /// `a·x >= b`
    Ge,
    /// `a·x = b`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// A sparse linear constraint `Σ coeffs[i].1 · x_{coeffs[i].0}  rel  rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse coefficient list (variable, coefficient). A variable may
    /// appear multiple times; coefficients are summed.
    pub coeffs: Vec<(VarId, Rational)>,
    /// Comparison direction.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: Rational,
}

/// A linear program over nonnegative variables.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    objective: Objective,
    var_names: Vec<String>,
    objective_coeffs: Vec<Rational>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        LinearProgram {
            objective,
            var_names: Vec::new(),
            objective_coeffs: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Shorthand for `LinearProgram::new(Objective::Maximize)`.
    pub fn maximize() -> Self {
        LinearProgram::new(Objective::Maximize)
    }

    /// Shorthand for `LinearProgram::new(Objective::Minimize)`.
    pub fn minimize() -> Self {
        LinearProgram::new(Objective::Minimize)
    }

    /// Optimization direction.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a nonnegative variable with objective coefficient 0.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.var_names.push(name.into());
        self.objective_coeffs.push(Rational::zero());
        VarId(self.var_names.len() - 1)
    }

    /// Sets the objective coefficient of `var`.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: Rational) {
        self.objective_coeffs[var.0] = coeff;
    }

    /// Adds a constraint from a sparse coefficient list.
    pub fn add_constraint(&mut self, coeffs: Vec<(VarId, Rational)>, rel: Relation, rhs: Rational) {
        for (v, _) in &coeffs {
            assert!(
                v.0 < self.var_names.len(),
                "constraint uses unknown variable"
            );
        }
        self.constraints.push(Constraint { coeffs, rel, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable name (for diagnostics).
    pub fn var_name(&self, var: VarId) -> &str {
        &self.var_names[var.0]
    }

    /// All constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Objective coefficient vector (dense, indexed by `VarId::index`).
    pub fn objective_coeffs(&self) -> &[Rational] {
        &self.objective_coeffs
    }

    /// Solves the program exactly, picking the engine automatically
    /// ([`crate::Solver::Auto`]): the dense tableau for small/dense
    /// programs, the float-verified hybrid for large sparse ones (the
    /// entropy LPs). All engines agree on status and optimal objective
    /// for every program; see `docs/SOLVER.md` for the selection policy.
    pub fn solve(&self) -> crate::simplex::LpSolution {
        crate::solver::solve_auto(self, crate::Solver::Auto)
    }

    /// Solves with an explicit engine choice (each engine under its
    /// default pivot rule). `Solver::Auto` behaves like [`Self::solve`].
    pub fn solve_with_solver(&self, solver: crate::Solver) -> crate::simplex::LpSolution {
        crate::solver::solve_auto(self, solver)
    }

    /// Constructs the LP dual for a program in *canonical form*:
    /// `max c·x  s.t.  A x <= b, x >= 0` becomes
    /// `min b·y  s.t.  Aᵀ y >= c, y >= 0` (and symmetrically for `min`).
    ///
    /// This is exactly the duality used in §3.1 of the paper to connect the
    /// color-number LP (Proposition 3.6) with the minimal fractional edge
    /// cover LP (Definition 3.5).
    ///
    /// Dual variable names are deterministic: constraint `i` always
    /// yields the variable `y{i}`, so solver-stats output and rendered
    /// duals are stable across runs and across re-derivations.
    ///
    /// # Panics
    /// Panics if any constraint is not in canonical direction (`<=` for a
    /// maximization program, `>=` for a minimization program).
    pub fn dual(&self) -> LinearProgram {
        let (expect, dual_obj, dual_rel) = match self.objective {
            Objective::Maximize => (Relation::Le, Objective::Minimize, Relation::Ge),
            Objective::Minimize => (Relation::Ge, Objective::Maximize, Relation::Le),
        };
        let mut dual = LinearProgram::new(dual_obj);
        for (i, c) in self.constraints.iter().enumerate() {
            assert!(
                c.rel == expect,
                "dual() requires canonical form ({} constraints)",
                expect
            );
            let y = dual.add_var(format!("y{i}"));
            dual.set_objective_coeff(y, c.rhs.clone());
        }
        // One dual constraint per primal variable: column of A vs c_j.
        let mut columns: Vec<Vec<(VarId, Rational)>> = vec![Vec::new(); self.num_vars()];
        for (i, c) in self.constraints.iter().enumerate() {
            for (v, coeff) in &c.coeffs {
                columns[v.0].push((VarId(i), coeff.clone()));
            }
        }
        for (j, col) in columns.into_iter().enumerate() {
            dual.add_constraint(col, dual_rel, self.objective_coeffs[j].clone());
        }
        dual
    }
}

impl fmt::Display for LinearProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = match self.objective {
            Objective::Maximize => "maximize",
            Objective::Minimize => "minimize",
        };
        let obj: Vec<String> = self
            .objective_coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, c)| format!("{c}·{}", self.var_names[i]))
            .collect();
        writeln!(f, "{dir} {}", obj.join(" + "))?;
        for c in &self.constraints {
            let terms: Vec<String> = c
                .coeffs
                .iter()
                .map(|(v, co)| format!("{co}·{}", self.var_names[v.0]))
                .collect();
            writeln!(f, "  {} {} {}", terms.join(" + "), c.rel, c.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    #[test]
    fn builder_bookkeeping() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, r(1, 1));
        lp.set_objective_coeff(y, r(2, 1));
        lp.add_constraint(vec![(x, r(1, 1)), (y, r(1, 1))], Relation::Le, r(4, 1));
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.var_name(y), "y");
    }

    #[test]
    fn display_renders() {
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, r(3, 2));
        lp.add_constraint(vec![(x, r(1, 1))], Relation::Ge, r(2, 1));
        let text = lp.to_string();
        assert!(text.contains("minimize 3/2·x"));
        assert!(text.contains("1·x >= 2"));
    }

    #[test]
    fn dual_shape() {
        // max x + 2y st x + y <= 4; y <= 1
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, r(1, 1));
        lp.set_objective_coeff(y, r(2, 1));
        lp.add_constraint(vec![(x, r(1, 1)), (y, r(1, 1))], Relation::Le, r(4, 1));
        lp.add_constraint(vec![(y, r(1, 1))], Relation::Le, r(1, 1));
        let d = lp.dual();
        assert_eq!(d.objective(), Objective::Minimize);
        assert_eq!(d.num_vars(), 2); // one per primal constraint
        assert_eq!(d.num_constraints(), 2); // one per primal variable
    }

    #[test]
    fn dual_names_are_deterministic() {
        // y{i} from the constraint index, independent of the primal's
        // variable names and stable across repeated derivations.
        let mut lp = LinearProgram::maximize();
        let a = lp.add_var("weirdly named");
        let b = lp.add_var("Δ");
        lp.set_objective_coeff(a, r(1, 1));
        lp.add_constraint(vec![(a, r(1, 1))], Relation::Le, r(4, 1));
        lp.add_constraint(vec![(b, r(2, 1))], Relation::Le, r(6, 1));
        lp.add_constraint(vec![(a, r(1, 1)), (b, r(1, 1))], Relation::Le, r(5, 1));
        for _ in 0..2 {
            let d = lp.dual();
            let names: Vec<&str> = (0..d.num_vars()).map(|i| d.var_name(VarId(i))).collect();
            assert_eq!(names, ["y0", "y1", "y2"]);
        }
    }

    #[test]
    #[should_panic]
    fn dual_rejects_noncanonical() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.add_constraint(vec![(x, r(1, 1))], Relation::Ge, r(1, 1));
        let _ = lp.dual();
    }

    #[test]
    #[should_panic]
    fn constraint_rejects_unknown_var() {
        let mut lp = LinearProgram::maximize();
        let _x = lp.add_var("x");
        lp.add_constraint(vec![(VarId(7), r(1, 1))], Relation::Le, r(1, 1));
    }
}
