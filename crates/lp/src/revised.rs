//! Sparse revised simplex with an LU-factorized basis, written once and
//! run over two scalars.
//!
//! The dense tableau ([`crate::simplex`]) rewrites the whole
//! `m × (n + slacks + artificials)` matrix on every pivot. This engine
//! implements the *revised* method instead: the constraint matrix `A`
//! stays in its original sparse column form ([`SparseMatrix`]) and each
//! iteration reconstructs only what it needs from a factorization of the
//! current basis `B`:
//!
//! - **BTRAN** solves `Bᵀy = c_B` to get the dual vector, from which the
//!   reduced cost of column `j` is `d_j = c_j − y·A_j` — one sparse dot
//!   product per priced column.
//! - **FTRAN** solves `Bw = A_q` for the entering column, feeding the
//!   ratio test and the basic-solution update.
//!
//! The factorization is a sparse LU computed by Gaussian elimination
//! with Markowitz-style pivot selection (pick the column with fewest
//! active nonzeros, then the row with fewest, which keeps fill-in near
//! zero on the slack-dominated bases these LPs produce). Pivots do not
//! refactorize: each basis change appends an **eta matrix** (the
//! product-form update `B' = B·E`), and once the scalar's refactor
//! interval of etas accumulates the file is folded back into a fresh LU
//! of the current basis.
//!
//! The engine is generic over its scalar. The crate-private `Scalar`
//! trait holds every decision in which exact and floating-point
//! arithmetic differ (tabulated in `docs/SOLVER.md`):
//!
//! - over [`Rational`] it is the exact engine ([`solve_revised`]): the
//!   factors are the exact LU, not an approximation, so it agrees
//!   bit-for-bit with the dense tableau on status and objective;
//! - over `f64` it is the proposal phase of [`crate::hybrid`]: zero
//!   tests, pricing and the ratio test carry tolerances, LU pivots must
//!   pass a stability threshold, and the run is capped. Nothing it
//!   computes is trusted — only its final basis, which the hybrid
//!   verifies exactly.
//!
//! Pricing honors the same [`PivotRule`]s as the dense engine: Bland's
//! rule never cycles; Dantzig's rule (the practical default here) falls
//! back to Bland after a degenerate stretch, so termination is
//! guaranteed either way. Phases, canonicalization (negative RHS flips,
//! slack/surplus/artificial layout) and tie-breaking mirror the dense
//! engine, which is what the differential test layer leans on.

use crate::problem::{Constraint, LinearProgram, Objective, Relation};
use crate::simplex::{LpSolution, LpStatus, PivotRule};
use crate::solver::{constraint_nonzeros, SolveStats, SolverKind};
use crate::sparse::SparseMatrix;
use cq_arith::Rational;
use std::cmp::Ordering;
use std::ops::{AddAssign, DivAssign, Neg};

/// Consecutive degenerate (zero-step) pivots tolerated under Dantzig
/// pricing before switching to Bland's rule (mirrors the dense engine).
const DEGENERATE_SWITCH: usize = 64;

/// `f64` values with magnitude at or below this are treated as exact
/// zeros (dropped from LU rows, skipped in FTRAN/BTRAN).
const DROP_TOL: f64 = 1e-11;

/// An `f64` reduced cost must exceed this to make a column enter. Loose
/// on purpose: a falsely "optimal" stop is caught by exact verification,
/// while chasing noise-level reduced costs can cycle forever.
const REDCOST_TOL: f64 = 1e-7;

/// `f64` ratio-test rows need a pivot element above this.
const PIVOT_TOL: f64 = 1e-9;

/// `f64` LU pivot candidates must be within this factor of the column's
/// largest magnitude (partial threshold pivoting layered on Markowitz).
const STABILITY_RATIO: f64 = 0.05;

/// Solves `lp` with the exact sparse revised simplex. See [`LpStatus`].
pub fn solve_revised(lp: &LinearProgram, rule: PivotRule) -> LpSolution {
    Revised::new(lp).run(rule)
}

/// The scalar the engine runs over. Arithmetic the two scalars share
/// comes from the supertraits (`Default` is zero); the items here are
/// exactly the decisions in which exact and `f64` arithmetic differ.
pub(crate) trait Scalar:
    Clone
    + Default
    + PartialOrd
    + Neg<Output = Self>
    + for<'x> AddAssign<&'x Self>
    + for<'x> DivAssign<&'x Self>
{
    /// Eta updates accumulated before the basis is refactorized.
    const REFACTOR_INTERVAL: usize;

    fn one() -> Self;

    /// Treated as zero: skipped in FTRAN/BTRAN, dropped from LU rows and
    /// eta columns, and a zero-length (degenerate) step.
    fn is_zero(&self) -> bool;

    /// Strictly positive beyond noise: the entering test on a reduced
    /// cost, and the infeasibility test on a basic artificial.
    fn is_positive(&self) -> bool;

    /// Eligible as a ratio-test pivot element (and, in either sign, as
    /// the pivot that drives an artificial out).
    fn is_pivot(&self) -> bool;

    /// The ratio-test step `x / w` for a basic value `x`.
    fn ratio(&self, w: &Self) -> Self;

    /// Orders a ratio-test step against the best so far; `Equal` is a
    /// tie, which goes to the smaller basis column.
    fn cmp_ratio(&self, best: &Self) -> Ordering;

    /// LU threshold pivoting. Given the active entries of the pivot
    /// column, returns the test that rules a candidate pivot out, or
    /// `None` when no entry can pivot (numerically singular).
    fn lu_pivot_filter(column: impl Iterator<Item = Self>) -> Option<impl Fn(&Self) -> bool>;

    /// Total pivot budget before the run gives up.
    fn iteration_cap(m: usize, cols: usize) -> usize;

    /// `self += a·b`.
    fn add_mul(&mut self, a: &Self, b: &Self);

    /// `self -= a·b`.
    fn sub_mul(&mut self, a: &Self, b: &Self);
}

/// Exact: every test is an exact sign test, nothing is capped.
impl Scalar for Rational {
    /// Exact rationals make long eta files doubly costly — each
    /// FTRAN/BTRAN replays every eta *and* the replayed entries carry
    /// ever-larger numerators — so the interval is short.
    const REFACTOR_INTERVAL: usize = 32;

    fn one() -> Self {
        Rational::one()
    }

    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }

    fn is_positive(&self) -> bool {
        Rational::is_positive(self)
    }

    fn is_pivot(&self) -> bool {
        Rational::is_positive(self)
    }

    fn ratio(&self, w: &Self) -> Self {
        self / w
    }

    fn cmp_ratio(&self, best: &Self) -> Ordering {
        self.cmp(best)
    }

    fn lu_pivot_filter(_column: impl Iterator<Item = Self>) -> Option<impl Fn(&Self) -> bool> {
        // Any nonzero pivot is exact; the column is never scanned.
        Some(|_: &Rational| false)
    }

    fn iteration_cap(_m: usize, _cols: usize) -> usize {
        usize::MAX
    }

    fn add_mul(&mut self, a: &Self, b: &Self) {
        if !Rational::is_zero(b) {
            *self += &(a * b);
        }
    }

    fn sub_mul(&mut self, a: &Self, b: &Self) {
        *self -= &(a * b);
    }
}

/// Floating point: tolerances everywhere, threshold pivoting, a cap.
impl Scalar for f64 {
    /// Floats replay etas cheaply, so the file can run longer before the
    /// rebuild pays for itself.
    const REFACTOR_INTERVAL: usize = 96;

    fn one() -> Self {
        1.0
    }

    fn is_zero(&self) -> bool {
        self.abs() <= DROP_TOL
    }

    fn is_positive(&self) -> bool {
        *self > REDCOST_TOL
    }

    fn is_pivot(&self) -> bool {
        *self > PIVOT_TOL
    }

    fn ratio(&self, w: &Self) -> Self {
        // Round-off can leave a basic value a hair negative; clamp so
        // the ratio stays admissible instead of going negative.
        self.max(0.0) / w
    }

    fn cmp_ratio(&self, best: &Self) -> Ordering {
        if *self < best - DROP_TOL {
            Ordering::Less
        } else if *self < best + DROP_TOL {
            Ordering::Equal
        } else {
            Ordering::Greater
        }
    }

    fn lu_pivot_filter(column: impl Iterator<Item = Self>) -> Option<impl Fn(&Self) -> bool> {
        let col_max = column.fold(0.0f64, |max, v| max.max(v.abs()));
        (col_max > DROP_TOL).then_some(move |v: &f64| v.abs() < STABILITY_RATIO * col_max)
    }

    /// Generous — these LPs finish in `O(m)` pivots in practice — but
    /// finite, so a float-arithmetic cycle cannot hang the solve.
    fn iteration_cap(m: usize, cols: usize) -> usize {
        1_000 + 20 * (m + cols)
    }

    // Separate multiply and subtract, never a fused multiply-add: the
    // rounding, and with it every pivot choice, stays as specified.
    fn add_mul(&mut self, a: &Self, b: &Self) {
        *self += a * b;
    }

    fn sub_mul(&mut self, a: &Self, b: &Self) {
        *self -= a * b;
    }
}

/// One step of the sparse LU: pivot position, the recorded eliminations
/// (`L`), and the pivot row's surviving entries (`U`).
struct LuStep<S> {
    /// Pivot row (a constraint index).
    prow: usize,
    /// Pivot column (a basis position).
    pcol: usize,
    pivot: S,
    /// `(row, factor)`: during FTRAN's forward pass,
    /// `v[row] -= factor · v[prow]`.
    lower: Vec<(usize, S)>,
    /// `(col, value)` of the pivot row over columns pivoted later.
    urow: Vec<(usize, S)>,
}

/// Sparse LU factorization of a basis matrix (columns indexed by basis
/// position, rows by constraint index).
pub(crate) struct SparseLu<S> {
    m: usize,
    steps: Vec<LuStep<S>>,
}

impl<S: Scalar> SparseLu<S> {
    /// Factorizes the `m × m` matrix whose column `p` is `cols(p)`
    /// (row-sorted entries); `None` if the matrix is singular — for
    /// `f64`, if no entry of some column clears the stability threshold.
    /// The exact engine's own bases never are, but a *candidate* basis
    /// proposed by the float phase (see [`crate::hybrid`]) carries no
    /// such guarantee, and float round-off can make any basis look
    /// singular: that must read as "verification failed" or "gave up",
    /// never as a panic.
    pub(crate) fn factorize<'c>(
        m: usize,
        cols: impl Fn(usize) -> &'c [(usize, S)],
    ) -> Option<SparseLu<S>>
    where
        S: 'c,
    {
        // Row-major working form; each row stays sorted by column.
        let mut rows: Vec<Vec<(usize, S)>> = vec![Vec::new(); m];
        for j in 0..m {
            for (i, v) in cols(j) {
                if !v.is_zero() {
                    rows[*i].push((j, v.clone()));
                }
            }
        }
        // Column → candidate rows (append-only; stale entries are
        // filtered by membership checks), plus exact nonzero counts.
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut col_count = vec![0usize; m];
        for (i, row) in rows.iter().enumerate() {
            for (j, _) in row {
                col_rows[*j].push(i);
                col_count[*j] += 1;
            }
        }
        let mut row_count: Vec<usize> = rows.iter().map(Vec::len).collect();
        let mut row_done = vec![false; m];
        // Active-column list, order-perturbed by swap_remove (only the
        // tie-break is affected; selection stays deterministic).
        let mut active: Vec<usize> = (0..m).collect();
        let mut steps = Vec::with_capacity(m);

        for _ in 0..m {
            // Markowitz-style selection: sparsest active column …
            let mut best: Option<(usize, usize)> = None; // (count, idx in active)
            for (idx, &j) in active.iter().enumerate() {
                let cc = col_count[j];
                if best.is_none_or(|(bc, _)| cc < bc) {
                    best = Some((cc, idx));
                    if cc <= 1 {
                        break;
                    }
                }
            }
            let (cc, active_idx) = best?;
            if cc == 0 {
                return None; // a column lost all its nonzeros: singular
            }
            let pj = active.swap_remove(active_idx);
            // … then its entry in the sparsest active row that passes
            // the scalar's stability threshold.
            let pi = {
                let entry = |i: usize| {
                    let pos = rows[i].binary_search_by_key(&pj, |e| e.0).ok()?;
                    (!row_done[i]).then(|| &rows[i][pos].1)
                };
                let too_small =
                    S::lu_pivot_filter(col_rows[pj].iter().filter_map(|&i| entry(i).cloned()))?;
                let mut best_row: Option<(usize, usize)> = None; // (count, row)
                for &i in &col_rows[pj] {
                    if entry(i).is_none_or(&too_small) {
                        continue;
                    }
                    let rc = row_count[i];
                    if best_row.is_none_or(|(bc, bi)| rc < bc || (rc == bc && i < bi)) {
                        best_row = Some((rc, i));
                    }
                }
                best_row?.1
            };

            row_done[pi] = true;
            let mut urow = std::mem::take(&mut rows[pi]);
            for (c, _) in &urow {
                col_count[*c] -= 1;
            }
            let ppos = urow
                .binary_search_by_key(&pj, |e| e.0)
                .expect("pivot entry present");
            let (_, pivot) = urow.remove(ppos);
            // U outlives this loop: drop the spare capacity the merge left.
            urow.shrink_to_fit();

            // Eliminate the pivot column from every other active row.
            let mut targets: Vec<usize> = col_rows[pj]
                .iter()
                .copied()
                .filter(|&i| !row_done[i] && rows[i].binary_search_by_key(&pj, |e| e.0).is_ok())
                .collect();
            targets.sort_unstable();
            targets.dedup();
            let mut lower = Vec::with_capacity(targets.len());
            for i in targets {
                let mut old = std::mem::take(&mut rows[i]);
                let pos = old
                    .binary_search_by_key(&pj, |e| e.0)
                    .expect("target contains pivot column");
                let (_, mut factor) = old.remove(pos);
                factor /= &pivot;
                col_count[pj] -= 1;
                // Merge: rows[i] − factor·urow.
                let mut merged = Vec::with_capacity(old.len() + urow.len());
                let (mut a, mut b) = (old.into_iter().peekable(), urow.iter().peekable());
                loop {
                    let order = match (a.peek(), b.peek()) {
                        (None, None) => break,
                        (Some((ca, _)), Some((cb, _))) => ca.cmp(cb),
                        (Some(_), None) => Ordering::Less,
                        (None, Some(_)) => Ordering::Greater,
                    };
                    match order {
                        Ordering::Less => merged.push(a.next().expect("peeked")),
                        Ordering::Equal => {
                            let (c, mut v) = a.next().expect("peeked");
                            v.sub_mul(&factor, &b.next().expect("peeked").1);
                            if v.is_zero() {
                                col_count[c] -= 1; // cancellation
                            } else {
                                merged.push((c, v));
                            }
                        }
                        Ordering::Greater => {
                            let (c, vb) = b.next().expect("peeked");
                            let mut v = S::default();
                            v.sub_mul(&factor, vb);
                            if !v.is_zero() {
                                // Fill-in: a fresh nonzero in this row.
                                col_count[*c] += 1;
                                col_rows[*c].push(i);
                                merged.push((*c, v));
                            }
                        }
                    }
                }
                row_count[i] = merged.len();
                rows[i] = merged;
                lower.push((i, factor));
            }
            debug_assert_eq!(col_count[pj], 0);
            steps.push(LuStep {
                prow: pi,
                pcol: pj,
                pivot,
                lower,
                urow,
            });
        }
        Some(SparseLu { m, steps })
    }

    /// Solves `B x = v`: `v` is indexed by constraint rows, the result by
    /// basis positions.
    pub(crate) fn ftran(&self, mut v: Vec<S>) -> Vec<S> {
        for step in &self.steps {
            if !v[step.prow].is_zero() {
                let pv = v[step.prow].clone();
                for (row, factor) in &step.lower {
                    v[*row].sub_mul(factor, &pv);
                }
            }
        }
        let mut x = vec![S::default(); self.m];
        for step in self.steps.iter().rev() {
            let mut acc = std::mem::take(&mut v[step.prow]);
            for (c, val) in &step.urow {
                if !x[*c].is_zero() {
                    acc.sub_mul(val, &x[*c]);
                }
            }
            if !acc.is_zero() {
                acc /= &step.pivot;
                x[step.pcol] = acc;
            }
        }
        x
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by basis positions, the result
    /// by constraint rows.
    pub(crate) fn btran(&self, mut c: Vec<S>) -> Vec<S> {
        let mut z = vec![S::default(); self.m];
        for step in &self.steps {
            if !c[step.pcol].is_zero() {
                let mut zv = std::mem::take(&mut c[step.pcol]);
                zv /= &step.pivot;
                for (col, val) in &step.urow {
                    c[*col].sub_mul(val, &zv);
                }
                z[step.prow] = zv;
            }
        }
        for step in self.steps.iter().rev() {
            let mut acc = std::mem::take(&mut z[step.prow]);
            for (i, factor) in &step.lower {
                if !z[*i].is_zero() {
                    acc.sub_mul(factor, &z[*i]);
                }
            }
            z[step.prow] = acc;
        }
        z
    }
}

/// Product-form update `B' = B·E`: `E` is the identity with basis
/// position `r`'s column replaced by the FTRANed entering column `w`.
struct Eta<S> {
    r: usize,
    /// `w_r` (always nonzero: the pivot element).
    wr: S,
    /// Off-diagonal nonzeros `(i, w_i)`, `i ≠ r`.
    w: Vec<(usize, S)>,
}

impl<S: Scalar> Eta<S> {
    fn from_dense(r: usize, w: &[S]) -> Eta<S> {
        Eta {
            r,
            wr: w[r].clone(),
            w: w.iter()
                .enumerate()
                .filter(|(i, v)| *i != r && !v.is_zero())
                .map(|(i, v)| (i, v.clone()))
                .collect(),
        }
    }

    /// Solves `E z = v` in place.
    fn ftran(&self, v: &mut [S]) {
        // A (numerically) zero v_r leaves v unchanged, flushed to zero.
        let mut zr = std::mem::take(&mut v[self.r]);
        if zr.is_zero() {
            return;
        }
        zr /= &self.wr;
        for (i, w) in &self.w {
            v[*i].sub_mul(w, &zr);
        }
        v[self.r] = zr;
    }

    /// Solves `Eᵀ z = v` in place.
    fn btran(&self, v: &mut [S]) {
        let mut acc = std::mem::take(&mut v[self.r]);
        for (i, w) in &self.w {
            if !v[*i].is_zero() {
                acc.sub_mul(w, &v[*i]);
            }
        }
        acc /= &self.wr;
        v[self.r] = acc;
    }
}

/// The factorized basis: `B = B₀ · E₁ ⋯ E_k` with `B₀` held as LU.
struct Basis<S> {
    lu: SparseLu<S>,
    etas: Vec<Eta<S>>,
}

impl<S: Scalar> Basis<S> {
    /// A fresh LU of the basis columns with an empty eta file; `None`
    /// if they are (numerically) singular.
    fn factorize(a: &SparseMatrix<S>, basis: &[usize]) -> Option<Basis<S>> {
        let lu = SparseLu::factorize(basis.len(), |p| a.col(basis[p]))?;
        let etas = Vec::new();
        Some(Basis { lu, etas })
    }

    fn ftran(&self, v: Vec<S>) -> Vec<S> {
        let mut x = self.lu.ftran(v);
        for eta in &self.etas {
            eta.ftran(&mut x);
        }
        x
    }

    fn btran(&self, mut c: Vec<S>) -> Vec<S> {
        for eta in self.etas.iter().rev() {
            eta.btran(&mut c);
        }
        self.lu.btran(c)
    }
}

/// The revised-simplex state over scalar `S`. `pub(crate)` so the hybrid
/// engine ([`crate::hybrid`]) can build the canonicalized exact form
/// once, derive the `f64` instance from it ([`Revised::to_f64`]), verify
/// that instance's basis exactly, and only on failure consume the exact
/// form via [`Revised::run`] — all without re-canonicalizing the program.
pub(crate) struct Revised<'a, S = Rational> {
    pub(crate) lp: &'a LinearProgram,
    pub(crate) m: usize,
    /// Columns `< first_art` are structural + slack; the rest artificial.
    pub(crate) first_art: usize,
    pub(crate) cols: usize,
    pub(crate) a: SparseMatrix<S>,
    pub(crate) b_rhs: Vec<S>,
    /// Phase-2 costs in maximization sense, zero on slacks/artificials.
    pub(crate) phase2: Vec<S>,
    pub(crate) basis: Vec<usize>,
    in_basis: Vec<bool>,
    x_b: Vec<S>,
    /// `None` once a (re)factorization came out singular.
    factors: Option<Basis<S>>,
    pub(crate) stats: SolveStats,
}

/// Canonical orientation of one constraint row: `(negate, rel, rhs)`
/// with `rhs >= 0`, and — key to phase-1 avoidance — zero-RHS `>=`
/// rows rewritten to `<=` (`a·x >= 0` ⇔ `-a·x <= 0`, feasible with a
/// basic slack at level 0, no artificial). The paper's entropy LPs are
/// almost entirely such rows (every information inequality has RHS 0),
/// so this skips most — often all — of phase 1. After canonicalization
/// a `Le` row takes a slack, a `Ge` row a surplus plus an artificial,
/// an `Eq` row an artificial; both the column-count pass and the
/// matrix-construction pass below consume this one function, so they
/// cannot drift apart on a row's slack/artificial needs.
fn canonical_row(c: &Constraint) -> (bool, Relation, Rational) {
    let mut rhs = c.rhs.clone();
    let mut rel = c.rel;
    let mut negate = rhs.is_negative();
    if negate {
        rhs = -rhs;
        rel = match rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        };
    }
    if rel == Relation::Ge && rhs.is_zero() {
        negate = !negate;
        rel = Relation::Le;
    }
    (negate, rel, rhs)
}

impl<'a> Revised<'a> {
    pub(crate) fn new(lp: &'a LinearProgram) -> Self {
        let n = lp.num_vars();
        let m = lp.num_constraints();
        let canonical: Vec<(bool, Relation, Rational)> =
            lp.constraints().iter().map(canonical_row).collect();
        let n_slack = canonical
            .iter()
            .filter(|(_, r, _)| *r != Relation::Eq)
            .count();
        let n_art = canonical
            .iter()
            .filter(|(_, r, _)| *r != Relation::Le)
            .count();
        let first_art = n + n_slack;
        let cols = first_art + n_art;

        let mut a = SparseMatrix::zero(m, cols);
        let mut b_rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_cursor = n;
        let mut art_cursor = first_art;
        let mut dense = vec![Rational::zero(); n];
        for (i, c) in lp.constraints().iter().enumerate() {
            for d in dense.iter_mut() {
                *d = Rational::zero();
            }
            for (v, coeff) in &c.coeffs {
                dense[v.index()] += coeff;
            }
            let (negate, rel, rhs) = canonical[i].clone();
            for (j, d) in dense.iter().enumerate() {
                if !d.is_zero() {
                    a.push(j, i, if negate { -d } else { d.clone() });
                }
            }
            match rel {
                Relation::Le => {
                    a.push(slack_cursor, i, Rational::one());
                    basis.push(slack_cursor);
                    slack_cursor += 1;
                }
                Relation::Ge => {
                    a.push(slack_cursor, i, -Rational::one());
                    slack_cursor += 1;
                    a.push(art_cursor, i, Rational::one());
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
                Relation::Eq => {
                    a.push(art_cursor, i, Rational::one());
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
            }
            b_rhs.push(rhs);
        }
        let mut in_basis = vec![false; cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut phase2: Vec<Rational> = match lp.objective() {
            Objective::Maximize => lp.objective_coeffs().to_vec(),
            Objective::Minimize => lp.objective_coeffs().iter().map(|c| -c).collect(),
        };
        phase2.resize(cols, Rational::zero());
        // The initial basis is all unit columns (slacks/artificials), so
        // the first factorization is trivially sparse.
        let factors = Basis::factorize(&a, &basis);
        let stats = SolveStats {
            solver: SolverKind::RevisedSparse,
            nonzeros: constraint_nonzeros(lp),
            rows: m,
            cols: n,
            ..SolveStats::default()
        };
        Revised {
            lp,
            m,
            first_art,
            cols,
            a,
            x_b: b_rhs.clone(),
            b_rhs,
            phase2,
            basis,
            in_basis,
            factors,
            stats,
        }
    }

    /// The same program over `f64` — the hybrid's proposal phase: the
    /// identical column layout (structural, slack/surplus, artificial)
    /// and initial basis, so basis indices mean the same thing on both
    /// sides.
    pub(crate) fn to_f64(&self) -> Revised<'a, f64> {
        let a = self.a.map(Rational::to_f64);
        let b_rhs: Vec<f64> = self.b_rhs.iter().map(Rational::to_f64).collect();
        Revised {
            lp: self.lp,
            m: self.m,
            first_art: self.first_art,
            cols: self.cols,
            factors: Basis::factorize(&a, &self.basis),
            a,
            x_b: b_rhs.clone(),
            b_rhs,
            phase2: self.phase2.iter().map(Rational::to_f64).collect(),
            basis: self.basis.clone(),
            in_basis: self.in_basis.clone(),
            stats: self.stats,
        }
    }

    /// Solves the program exactly.
    pub(crate) fn run(mut self, rule: PivotRule) -> LpSolution {
        // Exact bases are never singular and nothing is capped, so the
        // exact engine cannot give up.
        match self.solve(rule).expect("singular basis") {
            LpStatus::Optimal => self.optimal_solution(&self.basis, &self.x_b, self.stats),
            status => LpSolution {
                status,
                objective: Rational::zero(),
                values: vec![Rational::zero(); self.lp.num_vars()],
                stats: self.stats,
            },
        }
    }

    /// The optimal solution described by `basis` and its basic values
    /// `x_b`: structural values, and the objective in the program's own
    /// sense (phase 2 maximizes, so a minimization flips the sign).
    pub(crate) fn optimal_solution(
        &self,
        basis: &[usize],
        x_b: &[Rational],
        stats: SolveStats,
    ) -> LpSolution {
        let n = self.lp.num_vars();
        let mut values = vec![Rational::zero(); n];
        let mut raw = Rational::zero();
        for (r, x) in x_b.iter().enumerate() {
            if !x.is_zero() {
                raw += &(&self.phase2[basis[r]] * x);
                if basis[r] < n {
                    values[basis[r]] = x.clone();
                }
            }
        }
        let objective = match self.lp.objective() {
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
}

impl<S: Scalar> Revised<'_, S> {
    /// Runs both phases and leaves the final basis in place. `None` when
    /// the run gave up: a singular (re)factorization or the iteration
    /// cap, neither of which the exact scalar can reach.
    pub(crate) fn solve(&mut self, rule: PivotRule) -> Option<LpStatus> {
        self.factors.as_ref()?;
        if self.first_art < self.cols {
            // Phase 1 only has work to do when some artificial starts
            // positive; an all-zero artificial start (e.g. equalities
            // with RHS 0 — the entropy LPs' FD rows) is already at the
            // phase-1 optimum and goes straight to drive-out.
            if self.artificial_positive() {
                let mut phase1 = vec![S::default(); self.cols];
                for cost in phase1.iter_mut().skip(self.first_art) {
                    *cost = -S::one();
                }
                // Phase 1 is bounded; an unbounded claim is float noise.
                if self.optimize(&phase1, self.cols, rule)? != LpStatus::Optimal {
                    return None;
                }
            }
            if self.artificial_positive() {
                return Some(LpStatus::Infeasible);
            }
            self.drive_out_artificials();
        }
        let phase2 = self.phase2.clone();
        self.optimize(&phase2, self.first_art, rule)
    }

    fn artificial_positive(&self) -> bool {
        (0..self.m).any(|r| self.basis[r] >= self.first_art && self.x_b[r].is_positive())
    }

    fn refactorize(&mut self) {
        self.factors = Basis::factorize(&self.a, &self.basis);
        self.stats.refactorizations += 1;
    }

    /// Installs `q` at basis position `r` with step length `theta`,
    /// given the FTRANed entering column `w`.
    fn pivot(&mut self, r: usize, q: usize, theta: &S, w: &[S]) {
        // Only an exactly-zero step leaves the other basic values alone.
        if *theta != S::default() {
            for (i, wi) in w.iter().enumerate() {
                if i != r && !wi.is_zero() {
                    self.x_b[i].sub_mul(wi, theta);
                }
            }
        }
        self.x_b[r] = theta.clone();
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.stats.pivots += 1;
        let factors = self.factors.as_mut().expect("pivot on a factorized basis");
        factors.etas.push(Eta::from_dense(r, w));
        if factors.etas.len() >= S::REFACTOR_INTERVAL {
            self.refactorize();
        }
    }

    /// Simplex iterations maximizing `costs·x` over columns `< limit`:
    /// `Optimal` or `Unbounded` for this phase, `None` if the run gave up.
    fn optimize(&mut self, costs: &[S], limit: usize, rule: PivotRule) -> Option<LpStatus> {
        let cap = S::iteration_cap(self.m, self.cols);
        let mut degenerate_streak = 0usize;
        loop {
            if self.stats.pivots >= cap {
                return None;
            }
            let factors = self.factors.as_ref()?;
            let c_b: Vec<S> = self.basis.iter().map(|&j| costs[j].clone()).collect();
            let y = factors.btran(c_b);
            let use_bland = rule == PivotRule::Bland || degenerate_streak >= DEGENERATE_SWITCH;
            let mut entering: Option<(usize, S)> = None;
            for (j, cost) in costs.iter().enumerate().take(limit) {
                if self.in_basis[j] {
                    continue;
                }
                // d = c_j − y·A_j
                let mut d = -self.a.dot_col(j, &y);
                d += cost;
                if d.is_positive() {
                    if use_bland {
                        entering = Some((j, d));
                        break;
                    }
                    if entering.as_ref().is_none_or(|(_, bd)| d > *bd) {
                        entering = Some((j, d));
                    }
                }
            }
            let Some((q, _)) = entering else {
                return Some(LpStatus::Optimal);
            };
            let w = factors.ftran(self.a.col_dense(q));
            // Ratio test; ties go to the smallest basis column index
            // (Bland-compatible, mirrors the dense engine).
            let mut best: Option<(usize, S)> = None;
            for (r, wr) in w.iter().enumerate() {
                if !wr.is_pivot() {
                    continue;
                }
                let ratio = self.x_b[r].ratio(wr);
                let better = best.as_ref().is_none_or(|(br, bratio)| {
                    let tie_break = self.basis[r].cmp(&self.basis[*br]);
                    ratio.cmp_ratio(bratio).then(tie_break).is_lt()
                });
                if better {
                    best = Some((r, ratio));
                }
            }
            let Some((r, theta)) = best else {
                return Some(LpStatus::Unbounded);
            };
            if theta.is_zero() {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(r, q, &theta, &w);
        }
    }

    /// After a feasible phase 1, exchanges every basic artificial (at
    /// value 0) for a non-artificial column when one is available; rows
    /// with no such column are redundant and keep their artificial
    /// pinned at 0 (it can never leave: its tableau row is zero over all
    /// enterable columns). For `f64` this is purely a success-rate
    /// optimization: a basis still holding artificials has a worse
    /// chance of exact verification (their positions must solve to
    /// *exactly* zero).
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.first_art {
                continue;
            }
            let Some(factors) = self.factors.as_ref() else {
                return;
            };
            let mut e = vec![S::default(); self.m];
            e[r] = S::one();
            let rho = factors.btran(e);
            let q = (0..self.first_art).find(|&j| {
                if self.in_basis[j] {
                    return false;
                }
                let d = self.a.dot_col(j, &rho);
                d.is_pivot() || (-d).is_pivot()
            });
            if let Some(q) = q {
                let w = factors.ftran(self.a.col_dense(q));
                debug_assert!(!w[r].is_zero());
                self.pivot(r, q, &S::default(), &w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};
    use crate::simplex;

    fn r(p: i64, q: i64) -> Rational {
        Rational::ratio(p, q)
    }

    fn ri(p: i64) -> Rational {
        Rational::int(p)
    }

    #[test]
    fn basic_max_matches_dense() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(36));
        assert_eq!(s.value(x), &ri(2));
        assert_eq!(s.value(y), &ri(6));
        assert_eq!(s.stats.solver, SolverKind::RevisedSparse);
        assert!(s.stats.pivots >= 2);
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min 2x + 3y st x + y >= 4; x >= 1 -> 8 at (4, 0)
        let mut lp = LinearProgram::minimize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(2));
        lp.set_objective_coeff(y, ri(3));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Ge, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(1));
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(8));

        // max x + y st x + 2y = 4; x <= 2 -> 3 at (2, 1)
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.set_objective_coeff(y, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(2))], Relation::Eq, ri(4));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(2));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.objective, ri(3));
        assert_eq!(s.value(y), &ri(1));
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Ge, ri(2));
        assert_eq!(
            solve_revised(&lp, PivotRule::Bland).status,
            LpStatus::Infeasible
        );

        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(1));
        assert_eq!(
            solve_revised(&lp, PivotRule::DantzigThenBland).status,
            LpStatus::Unbounded
        );
    }

    #[test]
    fn negative_rhs_canonicalized() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(-1))], Relation::Le, ri(-1));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(3));
        lp.add_constraint(vec![(y, ri(1))], Relation::Le, ri(4));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(3));
    }

    #[test]
    fn fractional_optimum_is_exact() {
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
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.objective, r(3, 2));
    }

    #[test]
    fn beale_terminates_under_both_rules() {
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
        for rule in [PivotRule::Bland, PivotRule::DantzigThenBland] {
            let s = solve_revised(&lp, rule);
            assert_eq!(s.status, LpStatus::Optimal, "{rule:?}");
            assert_eq!(s.objective, r(-1, 20), "{rule:?}");
        }
    }

    #[test]
    fn redundant_equalities_leave_artificial_pinned() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        lp.add_constraint(vec![(x, ri(1)), (y, ri(1))], Relation::Eq, ri(2));
        let s = solve_revised(&lp, PivotRule::DantzigThenBland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(2));
    }

    #[test]
    fn degenerate_edge_cases() {
        // zero-variable program
        let lp = LinearProgram::maximize();
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_eq!(s.objective, ri(0));
        // duplicate coefficients are summed
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, r(1, 2)), (x, r(1, 2))], Relation::Le, ri(3));
        assert_eq!(solve_revised(&lp, PivotRule::Bland).objective, ri(3));
        // coefficients that cancel to zero leave the row empty
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, ri(1));
        lp.add_constraint(vec![(x, ri(1)), (x, ri(-1))], Relation::Le, ri(0));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(5));
        assert_eq!(solve_revised(&lp, PivotRule::Bland).objective, ri(5));
    }

    #[test]
    fn refactorization_triggers_and_stays_exact() {
        // 3·REFACTOR_INTERVAL independent variables, one pivot each.
        let mut lp = LinearProgram::maximize();
        let nv = 3 * <Rational as Scalar>::REFACTOR_INTERVAL;
        let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coeff(v, ri(1));
            lp.add_constraint(vec![(v, ri(1))], Relation::Le, ri(i as i64 % 7 + 1));
        }
        let s = solve_revised(&lp, PivotRule::Bland);
        assert_eq!(s.status, LpStatus::Optimal);
        let expected: i64 = (0..nv as i64).map(|i| i % 7 + 1).sum();
        assert_eq!(s.objective, ri(expected));
        assert!(s.stats.pivots >= nv);
        assert!(
            s.stats.refactorizations >= 2,
            "expected refactorizations, got {:?}",
            s.stats
        );
    }

    #[test]
    fn agrees_with_dense_on_a_deterministic_family() {
        // Small LCG so cq-lp needs no rand dependency.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..60 {
            let nv = 1 + (next(5) as usize);
            let nc = 1 + (next(6) as usize);
            let mut lp = if next(2) == 0 {
                LinearProgram::maximize()
            } else {
                LinearProgram::minimize()
            };
            let vars: Vec<_> = (0..nv).map(|i| lp.add_var(format!("x{i}"))).collect();
            for &v in &vars {
                lp.set_objective_coeff(v, ri(next(7) as i64 - 3));
            }
            for _ in 0..nc {
                let coeffs: Vec<_> = vars
                    .iter()
                    .filter_map(|&v| {
                        let c = next(7) as i64 - 3;
                        (c != 0).then(|| (v, ri(c)))
                    })
                    .collect();
                if coeffs.is_empty() {
                    continue;
                }
                let rel = match next(3) {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                lp.add_constraint(coeffs, rel, ri(next(11) as i64 - 3));
            }
            let dense = simplex::solve_with(&lp, PivotRule::Bland);
            for solve in [solve_revised, crate::solve_hybrid] {
                let sparse = solve(&lp, PivotRule::DantzigThenBland);
                assert_eq!(dense.status, sparse.status, "case {case}:\n{lp}");
                if dense.status == LpStatus::Optimal {
                    assert_eq!(dense.objective, sparse.objective, "case {case}:\n{lp}");
                }
            }
        }
    }

    /// Factorizes the square matrix with the given dense columns.
    fn factorize<S: Scalar>(dense: &[Vec<S>]) -> Option<SparseLu<S>> {
        let cols: Vec<Vec<(usize, S)>> = dense
            .iter()
            .map(|col| {
                col.iter()
                    .cloned()
                    .enumerate()
                    .filter(|(_, v)| !v.is_zero())
                    .collect()
            })
            .collect();
        SparseLu::factorize(cols.len(), |p| &cols[p])
    }

    #[test]
    fn singular_matrices_factorize_to_none_over_both_scalars() {
        fn check<S: Scalar>(to: fn(i64) -> S) {
            let matrix = |cols: &[&[i64]]| -> Vec<Vec<S>> {
                cols.iter()
                    .map(|c| c.iter().map(|&v| to(v)).collect())
                    .collect()
            };
            // Two equal columns.
            assert!(factorize(&matrix(&[&[1, 1], &[1, 1]])).is_none());
            // Column 2 = column 0 + column 1: cancels during elimination.
            assert!(factorize(&matrix(&[&[1, 0, 1], &[0, 1, 1], &[1, 1, 2]])).is_none());
            // An all-zero column.
            assert!(factorize(&matrix(&[&[1, 0], &[0, 0]])).is_none());
            assert!(factorize(&matrix(&[&[1, 0], &[0, 1]])).is_some());
        }
        check(Rational::int);
        check(|v| v as f64);
        // f64 only: dependent up to round-off is singular too.
        assert!(factorize(&[vec![1.0, 1.0], vec![1.0, 1.0 + 1e-13]]).is_none());
    }

    #[test]
    fn f64_threshold_pivoting_skips_a_small_sparse_row() {
        // Rows [ε 0 0], [1 1 2], [0 1 1] with ε = 1/100. Every column
        // holds two entries, so column 0 is pivoted first. Its sparsest
        // row is row 0, but ε is below STABILITY_RATIO · 1, so f64
        // pivots on row 1; the exact engine takes the sparser row 0.
        let float = factorize(&[
            vec![0.01, 1.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![0.0, 2.0, 1.0],
        ])
        .expect("nonsingular");
        assert_eq!((float.steps[0].pcol, float.steps[0].prow), (0, 1));
        let exact = factorize(&[
            vec![r(1, 100), ri(1), ri(0)],
            vec![ri(0), ri(1), ri(1)],
            vec![ri(0), ri(2), ri(1)],
        ])
        .expect("nonsingular");
        assert_eq!((exact.steps[0].pcol, exact.steps[0].prow), (0, 0));
        // Either pivot order solves B x = B·(1, 2, 3).
        let x = float.ftran(vec![0.01, 9.0, 5.0]);
        for (got, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
        let x = exact.ftran(vec![r(1, 100), ri(9), ri(5)]);
        assert_eq!(x, vec![ri(1), ri(2), ri(3)]);
    }
}
