//! Exact linear programming over rationals for `cqbounds`.
//!
//! Every quantitative bound in the paper is the optimum of a linear program:
//! the color number (Proposition 3.6), the fractional edge cover number
//! (Definition 3.5), the entropy upper bound (Proposition 6.9), and the
//! entropy characterization of the color number (Proposition 6.10). Every
//! answer is an exact [`cq_arith::Rational`], so optima like `3/2` are
//! exact values, not floating-point approximations.
//!
//! Variables are nonnegative (all of the paper's LPs are over nonnegative
//! quantities: color weights, cover weights, entropies). Constraints may be
//! `<=`, `>=`, or `=`; both maximization and minimization are supported.
//!
//! Three engines produce the same exact answers:
//!
//! - the **dense tableau** ([`simplex`]) — a two-phase simplex whose
//!   default is Bland's rule, so degenerate tableaus cannot cycle;
//!   lowest constant factors, right for the paper's small
//!   combinatorial LPs;
//! - the **sparse revised simplex** ([`revised`]) — an LU-factorized
//!   basis with eta updates and periodic refactorization, priced by
//!   devex from the pivot row, over a constraint matrix held by row and
//!   by column ([`sparse`]), which is what lets the entropy LPs
//!   (`2^k − 1` variables, constraints touching 2–4 of them) scale past
//!   the dense ceiling. It is written once, generic over its scalar,
//!   and runs over rationals as this exact engine;
//! - the **float/exact hybrid** ([`hybrid`]) — the same revised simplex
//!   run over `f64` proposes the optimal basis, one exact rational
//!   factorization verifies it (falling back to the exact revised
//!   engine when it can't), cutting another order of magnitude off the
//!   large entropy programs without giving up a single bit of
//!   exactness.
//!
//! [`LinearProgram::solve`] picks automatically by a size/density
//! heuristic ([`Solver::Auto`]); all three engines agree on status and
//! optimal objective for every program, and each solution carries
//! [`SolveStats`] saying which engine ran and how hard it worked;
//! [`LpWork`] sums those across solves for every layer above. The
//! full policy, including the per-scalar policies of the revised
//! simplex, is documented in `docs/SOLVER.md`.

pub mod hybrid;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod solver;
pub mod sparse;

pub use hybrid::solve_hybrid;
pub use problem::{Constraint, LinearProgram, Objective, Relation, VarId};
pub use revised::solve_revised;
pub use simplex::{solve_with, LpSolution, LpStatus, PivotRule};
pub use solver::{auto_large_engine, solve_auto, solve_lp, LpWork, SolveStats, Solver, SolverKind};
pub use sparse::SparseMatrix;
