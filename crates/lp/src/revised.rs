//! Sparse revised simplex with an LU-factorized basis, written once and
//! run over two scalars.
//!
//! The dense tableau ([`crate::simplex`]) rewrites the whole
//! `m × (n + slacks + artificials)` matrix on every pivot. This engine
//! implements the *revised* method instead: the constraint matrix `A`
//! stays sparse ([`SparseMatrix`], held by column and by row) and each
//! iteration reconstructs only what it needs from a factorization of the
//! current basis `B`:
//!
//! - **Pricing** picks the entering column `q` from the reduced costs
//!   `d_j = c_j − y·A_j` by **devex** (Harris, "Pivot selection methods
//!   of the Devex LP code", *Math. Programming* 5, 1973): the improving
//!   column with the largest `d_j²/w_j`, where `w_j` is an `f64`
//!   reference weight, 1 when a phase starts, that approximates the
//!   column's steepest-edge norm. With every weight at 1 this is
//!   Dantzig's rule; the weights steer the run away from the long
//!   degenerate stretches Dantzig's rule stalls in on the entropy
//!   programs.
//! - **FTRAN** solves `Bw = A_q` for the entering column, feeding the
//!   ratio test and the basic-solution update.
//! - **BTRAN** solves `Bᵀρ = e_r` for the row `r` that leaves, and the
//!   **pivot row** `α_r = ρᵀA` is summed over the rows of `A` that `ρ`
//!   reaches. It updates the reduced costs (`y += (d_q/α_rq)·ρ`, so
//!   `d_j −= (d_q/α_rq)·α_rj`: only the row's columns move) and the
//!   devex weights. The duals are computed afresh, by BTRAN of the
//!   basic costs `c_B`, only when a phase starts and, for the drifting
//!   `f64` scalar, at each refactorization and before a basis is
//!   declared optimal.
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
//! A pivot costs about the nonzeros it touches, not the row count `m`:
//!
//! - the LU factors and the eta file are stored flat, one array per
//!   field, and only the few LU steps that eliminated anything carry an
//!   `L` column, so the two `L` passes skip the rest;
//! - FTRAN takes the entering column as its sparse entries, and its `U`
//!   pass visits only the steps that column reaches;
//! - BTRAN starts from its right-hand side's nonzeros (the one entry of
//!   `e_r`), an eta far longer than that list looks the listed
//!   positions up in a per-eta bitset instead of walking its entries,
//!   and the rows it writes are listed, so the pivot row walks only the
//!   rows of `A` where `ρ` is nonzero (about 10 of 4,628 at cycle-fd
//!   k = 9);
//! - the work vectors (entering column, `ρ`, their nonzero positions,
//!   basic costs, reduced costs, weights, pivot row) are allocated once
//!   per solve.
//!
//! Every visited step does the same scalar operations in the same order
//! as a dense pass would, so the sparse paths change what a pivot
//! costs, never which pivot is taken.
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
//! Both scalars take the same pivot path on the paper's programs: the
//! devex weights are `f64` over either scalar, and devex scores within
//! a relative `1e-9` are ties, so float noise in the reduced costs does
//! not reorder exact ties.
//!
//! Pricing honors the dense engine's [`PivotRule`]s: under
//! [`PivotRule::Bland`] every entering column is the smallest improving
//! index, which never cycles; under [`PivotRule::DantzigThenBland`] (the
//! default here) pricing is devex, and Bland's rule takes over as the
//! anti-cycling backstop after `max(64, m)` consecutive degenerate
//! pivots, until a pivot moves the objective, so termination is
//! guaranteed either way. Phases, canonicalization (negative RHS flips,
//! slack/surplus/artificial layout) and ratio-test tie-breaking mirror
//! the dense engine, which is what the differential test layer leans
//! on.

use crate::problem::{Constraint, LinearProgram, Objective, Relation};
use crate::simplex::{LpSolution, LpStatus, PivotRule};
use crate::solver::{constraint_nonzeros, SolveStats, SolverKind};
use crate::sparse::SparseMatrix;
use cq_arith::Rational;
use std::cmp::Ordering;
use std::ops::{AddAssign, DivAssign, Neg};

/// The fewest consecutive degenerate (zero-step) pivots tolerated
/// under devex pricing before Bland's rule takes over. The bound is the
/// program's row count `m` when that is larger: devex on the paper's
/// entropy programs runs degenerate stretches that end on their own but
/// grow with the program (251 pivots at 1,812 rows on cycle-fd k = 8
/// with two chords, 510 at 11,542 rows at k = 10), while Bland's rule,
/// once it prices, takes far more pivots to leave the same vertex.
/// Termination needs only a finite bound.
const MIN_DEGENERATE_SWITCH: usize = 64;

/// Devex scores within this relative margin of the best so far are
/// ties, which the first column keeps. Scores are `f64` over either
/// scalar, and the float run's reduced costs carry round-off that would
/// otherwise break exact ties at random: on the cycle-fd k = 8 program
/// with two chords that noise alone took the float run from the exact
/// engine's 592 pivots to 1,141.
const DEVEX_TIE: f64 = 1e-9;

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

/// An eta whose entries outnumber the nonzeros of BTRAN's vector by
/// this factor looks those nonzeros up instead of walking its entries.
const SPARSE_LOOKUP: usize = 4;

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

    /// Whether reduced costs updated from the pivot row drift from the
    /// ones a fresh BTRAN of the basic costs gives. When they do, they
    /// are recomputed at every refactorization and once more before the
    /// run declares a basis optimal.
    const UPDATES_DRIFT: bool;

    fn one() -> Self;

    /// The nearest `f64`: devex weighs columns in floating point over
    /// either scalar.
    fn to_f64(&self) -> f64;

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

    /// Exact updates are the fresh values.
    const UPDATES_DRIFT: bool = false;

    fn one() -> Self {
        Rational::one()
    }

    fn to_f64(&self) -> f64 {
        Rational::to_f64(self)
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

    const UPDATES_DRIFT: bool = true;

    fn one() -> Self {
        1.0
    }

    fn to_f64(&self) -> f64 {
        *self
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

/// Sparse LU factorization of a basis matrix (columns indexed by basis
/// position, rows by constraint index), stored flat.
///
/// Step `k` pivots on row `prow[k]` and column `pcol[k]` with value
/// `pivot[k]`. Its `U` row — the pivot row over the columns pivoted
/// later — is `u_col`/`u_val` over `u_start[k]..u_start[k + 1]`. Only
/// the steps that eliminated something have an `L` column: `l_step`
/// lists them in ascending order, and the `i`-th one's `(row, factor)`
/// pairs are `l_row`/`l_val` over `l_start[i]..l_start[i + 1]`. On the
/// slack-heavy bases of the entropy LPs almost every step is a slack
/// singleton with no `L` entries, so the two `L` passes skip them.
///
/// The triangular `U` passes visit only the steps a solve can reach:
/// a bitset over steps, seeded from the right-hand side's nonzeros and
/// grown through `U`'s sparsity (a step's value reaches the steps whose
/// `U` rows hold its column). Each visited step does exactly what the
/// dense pass does, in the same order; a step left out is one whose
/// value the dense pass leaves at zero.
pub(crate) struct SparseLu<S> {
    prow: Vec<usize>,
    pcol: Vec<usize>,
    pivot: Vec<S>,
    u_start: Vec<usize>,
    u_col: Vec<usize>,
    u_val: Vec<S>,
    l_step: Vec<usize>,
    l_start: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<S>,
    /// The step that pivots on each row, and on each basis position.
    row_step: Vec<usize>,
    col_step: Vec<usize>,
    /// `U` by column: the steps whose `U` row holds position `c` are
    /// `ut_step` over `ut_start[c]..ut_start[c + 1]`, ascending.
    ut_start: Vec<usize>,
    ut_step: Vec<usize>,
    /// Steps to visit in the current solve; all clear between solves.
    visit: Vec<u64>,
    /// The basis positions the last FTRAN wrote: a superset of its
    /// result's nonzeros.
    written: Vec<u64>,
    /// The rows the last BTRAN wrote, likewise.
    written_rows: Vec<u64>,
    /// FTRAN's right-hand side by row; all zero between solves.
    rhs: Vec<S>,
}

/// Sets bit `i` of a bitset.
fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
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
        // Column → candidate rows: the column's own nonzero rows
        // (ascending, flat), then the rows fill-in added to it. Entries
        // go stale when a row is pivoted or cancels; membership checks
        // filter them.
        let mut cand_start = Vec::with_capacity(m + 1);
        let mut cand_row = Vec::new();
        let mut col_fill: Vec<Vec<usize>> = vec![Vec::new(); m];
        // Row-major working form, one arena: row `i` is `ent_col` /
        // `ent_val` over `row_start[i]..row_start[i] + row_len[i]`,
        // sorted by column. A merged row is appended at the end.
        let mut row_len = vec![0usize; m];
        cand_start.push(0);
        for j in 0..m {
            for (i, v) in cols(j) {
                if !v.is_zero() {
                    cand_row.push(*i);
                    row_len[*i] += 1;
                }
            }
            cand_start.push(cand_row.len());
        }
        // Exact active nonzero counts per column.
        let mut col_count: Vec<usize> = cand_start.windows(2).map(|w| w[1] - w[0]).collect();
        let mut row_start = Vec::with_capacity(m);
        let mut next = 0;
        for &len in &row_len {
            row_start.push(next);
            next += len;
        }
        // Counting sort: columns in ascending order keep rows sorted.
        let mut ent_col = vec![0usize; next];
        let mut ent_val = vec![S::default(); next];
        let mut slot = row_start.clone();
        for j in 0..m {
            for (i, v) in cols(j) {
                if !v.is_zero() {
                    ent_col[slot[*i]] = j;
                    ent_val[slot[*i]] = v.clone();
                    slot[*i] += 1;
                }
            }
        }
        // Active-column list, order-perturbed by swap_remove (only the
        // tie-break is affected; selection stays deterministic). `low`
        // flags the active indices whose column has at most one nonzero
        // left, and `place` maps a column to its index (`usize::MAX`
        // once pivoted).
        let mut active: Vec<usize> = (0..m).collect();
        let mut place: Vec<usize> = (0..m).collect();
        let mut low = vec![0u64; m.div_ceil(64)];
        let set_low = |low: &mut [u64], idx: usize, on: bool| {
            let bit = 1 << (idx % 64);
            if on {
                low[idx / 64] |= bit;
            } else {
                low[idx / 64] &= !bit;
            }
        };
        for (j, &count) in col_count.iter().enumerate() {
            set_low(&mut low, j, count <= 1);
        }
        // Re-flags column `c` after its count changed.
        let recount = |low: &mut [u64], place: &[usize], col_count: &[usize], c: usize| {
            if place[c] != usize::MAX {
                set_low(low, place[c], col_count[c] <= 1);
            }
        };
        let mut targets = Vec::new();
        let mut lu = SparseLu {
            prow: Vec::with_capacity(m),
            pcol: Vec::with_capacity(m),
            pivot: Vec::with_capacity(m),
            u_start: Vec::with_capacity(m + 1),
            u_col: Vec::new(),
            u_val: Vec::new(),
            l_step: Vec::new(),
            l_start: vec![0],
            l_row: Vec::new(),
            l_val: Vec::new(),
            row_step: vec![0; m],
            col_step: vec![0; m],
            ut_start: vec![0; m + 1],
            ut_step: Vec::new(),
            visit: vec![0; m.div_ceil(64)],
            written: vec![0; m.div_ceil(64)],
            written_rows: vec![0; m.div_ceil(64)],
            rhs: vec![S::default(); m],
        };
        lu.u_start.push(0);

        for step in 0..m {
            // Markowitz-style selection: the sparsest active column, the
            // first in active order among equals. A column with at most
            // one nonzero ends the scan, so the first flagged index is
            // the pick whenever there is one.
            let first_low = low
                .iter()
                .enumerate()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| i * 64 + w.trailing_zeros() as usize);
            let (cc, active_idx) = match first_low {
                Some(idx) => (col_count[active[idx]], idx),
                None => {
                    let mut best: Option<(usize, usize)> = None; // (count, idx)
                    for (idx, &j) in active.iter().enumerate() {
                        if best.is_none_or(|(bc, _)| col_count[j] < bc) {
                            best = Some((col_count[j], idx));
                        }
                    }
                    best?
                }
            };
            if cc == 0 {
                return None; // a column lost all its nonzeros: singular
            }
            let pj = active.swap_remove(active_idx);
            place[pj] = usize::MAX;
            let last = active.len();
            if active_idx < last {
                place[active[active_idx]] = active_idx;
                let moved_low = low[last / 64] >> (last % 64) & 1 == 1;
                set_low(&mut low, active_idx, moved_low);
            }
            set_low(&mut low, last, false);
            // Position of column `pj` in active row `i`, if it holds one.
            let find = |i: usize| {
                let s = row_start[i];
                let pos = ent_col[s..s + row_len[i]].binary_search(&pj).ok()?;
                Some(s + pos)
            };
            let candidates = cand_row[cand_start[pj]..cand_start[pj + 1]]
                .iter()
                .chain(&col_fill[pj])
                .copied();
            // … then its entry in the sparsest active row that passes
            // the scalar's stability threshold.
            let pi = {
                let entries = candidates.clone().filter_map(&find);
                let too_small = S::lu_pivot_filter(entries.map(|e| ent_val[e].clone()))?;
                let mut best_row: Option<(usize, usize)> = None; // (count, row)
                for i in candidates.clone() {
                    if find(i).is_none_or(|e| too_small(&ent_val[e])) {
                        continue;
                    }
                    let rc = row_len[i];
                    if best_row.is_none_or(|(bc, bi)| rc < bc || (rc == bc && i < bi)) {
                        best_row = Some((rc, i));
                    }
                }
                best_row?.1
            };
            // Rows other than `pi` that still hold column `pj`: none for
            // a singleton, which is every slack column.
            targets.clear();
            if cc > 1 {
                targets.extend(candidates.filter(|&i| i != pi && find(i).is_some()));
                targets.sort_unstable();
                targets.dedup();
            }

            lu.prow.push(pi);
            lu.pcol.push(pj);
            lu.row_step[pi] = step;
            lu.col_step[pj] = step;
            // The pivot row, minus the pivot, becomes this step's U row.
            let u_begin = lu.u_col.len();
            let mut pivot = None;
            let ps = row_start[pi];
            for e in ps..ps + row_len[pi] {
                let c = ent_col[e];
                col_count[c] -= 1;
                let v = std::mem::take(&mut ent_val[e]);
                if c == pj {
                    pivot = Some(v);
                } else {
                    recount(&mut low, &place, &col_count, c);
                    lu.u_col.push(c);
                    lu.u_val.push(v);
                    lu.ut_start[c + 1] += 1;
                }
            }
            let pivot = pivot.expect("pivot entry present");
            row_len[pi] = 0; // done: no column is found in it again
            let u_end = lu.u_col.len();
            lu.u_start.push(u_end);

            // Eliminate the pivot column from every other active row.
            for &i in &targets {
                let (s, len) = (row_start[i], row_len[i]);
                let pos = s + ent_col[s..s + len]
                    .binary_search(&pj)
                    .expect("target contains pivot column");
                let mut factor = std::mem::take(&mut ent_val[pos]);
                factor /= &pivot;
                col_count[pj] -= 1;
                // Merge: row i − factor·(U row), appended to the arena.
                let merged = ent_col.len();
                let (mut a, mut b) = (s, u_begin);
                loop {
                    if a == pos {
                        a += 1;
                        continue;
                    }
                    let order = match (a < s + len, b < u_end) {
                        (false, false) => break,
                        (true, true) => ent_col[a].cmp(&lu.u_col[b]),
                        (true, false) => Ordering::Less,
                        (false, true) => Ordering::Greater,
                    };
                    match order {
                        Ordering::Less => {
                            ent_col.push(ent_col[a]);
                            let v = std::mem::take(&mut ent_val[a]);
                            ent_val.push(v);
                            a += 1;
                        }
                        Ordering::Equal => {
                            let c = ent_col[a];
                            let mut v = std::mem::take(&mut ent_val[a]);
                            v.sub_mul(&factor, &lu.u_val[b]);
                            if v.is_zero() {
                                col_count[c] -= 1; // cancellation
                                recount(&mut low, &place, &col_count, c);
                            } else {
                                ent_col.push(c);
                                ent_val.push(v);
                            }
                            a += 1;
                            b += 1;
                        }
                        Ordering::Greater => {
                            let c = lu.u_col[b];
                            let mut v = S::default();
                            v.sub_mul(&factor, &lu.u_val[b]);
                            if !v.is_zero() {
                                // Fill-in: a fresh nonzero in this row.
                                col_count[c] += 1;
                                recount(&mut low, &place, &col_count, c);
                                col_fill[c].push(i);
                                ent_col.push(c);
                                ent_val.push(v);
                            }
                            b += 1;
                        }
                    }
                }
                row_start[i] = merged;
                row_len[i] = ent_col.len() - merged;
                lu.l_row.push(i);
                lu.l_val.push(factor);
            }
            if !targets.is_empty() {
                lu.l_step.push(step);
                lu.l_start.push(lu.l_row.len());
            }
            debug_assert_eq!(col_count[pj], 0);
            lu.pivot.push(pivot);
        }
        // U by column, by counting sort over the steps in order.
        for c in 0..m {
            lu.ut_start[c + 1] += lu.ut_start[c];
        }
        lu.ut_step = vec![0; lu.u_col.len()];
        slot.copy_from_slice(&lu.ut_start[..m]);
        for k in 0..m {
            for &c in &lu.u_col[lu.u_start[k]..lu.u_start[k + 1]] {
                lu.ut_step[slot[c]] = k;
                slot[c] += 1;
            }
        }
        Some(lu)
    }

    /// Solves `B x = a` for `a` given by its `(row, value)` entries
    /// (distinct rows); `x` is indexed by basis position, and every entry
    /// of it is written.
    pub(crate) fn ftran(&mut self, a: &[(usize, S)], x: &mut [S]) {
        for (i, v) in a {
            self.rhs[*i] = v.clone();
            mark(&mut self.visit, self.row_step[*i]);
        }
        let v = &mut self.rhs;
        for (&k, span) in self.l_step.iter().zip(self.l_start.windows(2)) {
            let prow = self.prow[k];
            if !v[prow].is_zero() {
                let pv = v[prow].clone();
                for e in span[0]..span[1] {
                    let row = self.l_row[e];
                    v[row].sub_mul(&self.l_val[e], &pv);
                    mark(&mut self.visit, self.row_step[row]);
                }
            }
        }
        x.fill(S::default());
        self.written.fill(0);
        // U backward, highest marked step first; a step only marks
        // earlier ones, so the scan never misses a mark.
        for word in (0..self.visit.len()).rev() {
            while self.visit[word] != 0 {
                let bit = 63 - self.visit[word].leading_zeros() as usize;
                self.visit[word] &= !(1 << bit);
                let k = word * 64 + bit;
                let mut acc = std::mem::take(&mut v[self.prow[k]]);
                for e in self.u_start[k]..self.u_start[k + 1] {
                    let c = self.u_col[e];
                    if !x[c].is_zero() {
                        acc.sub_mul(&self.u_val[e], &x[c]);
                    }
                }
                if acc.is_zero() {
                    continue;
                }
                acc /= &self.pivot[k];
                let c = self.pcol[k];
                if !acc.is_zero() {
                    for &later in &self.ut_step[self.ut_start[c]..self.ut_start[c + 1]] {
                        mark(&mut self.visit, later);
                    }
                }
                x[c] = acc;
                mark(&mut self.written, c);
            }
        }
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by basis positions, `y` by
    /// constraint rows, and `nz` lists every position where `c` may be
    /// nonzero. Every entry of `y` is written, and `c` is left all zero;
    /// `written_rows` is left holding a superset of `y`'s nonzero rows.
    pub(crate) fn btran(&mut self, c: &mut [S], nz: &[usize], y: &mut [S]) {
        for &p in nz {
            mark(&mut self.visit, self.col_step[p]);
        }
        y.fill(S::default());
        self.written_rows.fill(0);
        // U forward, lowest marked step first; a step only marks later
        // ones.
        for word in 0..self.visit.len() {
            while self.visit[word] != 0 {
                let bit = self.visit[word].trailing_zeros() as usize;
                self.visit[word] &= !(1 << bit);
                let k = word * 64 + bit;
                let mut zv = std::mem::take(&mut c[self.pcol[k]]);
                if zv.is_zero() {
                    continue;
                }
                zv /= &self.pivot[k];
                for e in self.u_start[k]..self.u_start[k + 1] {
                    let col = self.u_col[e];
                    c[col].sub_mul(&self.u_val[e], &zv);
                    mark(&mut self.visit, self.col_step[col]);
                }
                y[self.prow[k]] = zv;
                mark(&mut self.written_rows, self.prow[k]);
            }
        }
        for (&k, span) in self.l_step.iter().zip(self.l_start.windows(2)).rev() {
            let prow = self.prow[k];
            mark(&mut self.written_rows, prow);
            let mut acc = std::mem::take(&mut y[prow]);
            for e in span[0]..span[1] {
                let i = self.l_row[e];
                if !y[i].is_zero() {
                    acc.sub_mul(&self.l_val[e], &y[i]);
                }
            }
            y[prow] = acc;
        }
    }
}

/// The product-form updates since the last factorization, stored flat.
/// Eta `k` is `B' = B·E`, with `E` the identity whose column `r[k]` is
/// the FTRANed entering column `w`: `wr[k] = w_r` (the pivot element,
/// never zero) and the off-diagonal nonzeros `(i, w_i)` in ascending
/// `i` as `idx`/`val` over `start[k]..start[k + 1]`.
///
/// Each eta also keeps its entry positions as a bitset of `words` words,
/// each paired with the count of its entries in earlier words (`masks`),
/// so BTRAN finds the entry at a given position in constant time (see
/// [`EtaFile::entry`]).
struct EtaFile<S> {
    r: Vec<usize>,
    wr: Vec<S>,
    start: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<S>,
    words: usize,
    masks: Vec<(u64, u32)>,
}

impl<S: Scalar> EtaFile<S> {
    /// An empty file over `m` basis positions.
    fn new(m: usize) -> EtaFile<S> {
        EtaFile {
            r: Vec::new(),
            wr: Vec::new(),
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
            words: m.div_ceil(64),
            masks: Vec::new(),
        }
    }

    /// The index in `idx`/`val` of eta `k`'s entry at position `i`.
    fn entry(&self, k: usize, i: usize) -> Option<usize> {
        let (bits, before) = self.masks[k * self.words + i / 64];
        let bit = 1u64 << (i % 64);
        (bits & bit != 0)
            .then(|| self.start[k] + before as usize + (bits & (bit - 1)).count_ones() as usize)
    }

    fn len(&self) -> usize {
        self.r.len()
    }

    /// Appends the eta of pivot position `r`, given the entering column
    /// `w` and the ascending positions `nz` of its nonzeros.
    fn push(&mut self, r: usize, w: &[S], nz: &[usize]) {
        self.r.push(r);
        self.wr.push(w[r].clone());
        let first = self.masks.len();
        self.masks.resize(first + self.words, (0, 0));
        for &i in nz {
            if i != r {
                self.idx.push(i);
                self.val.push(w[i].clone());
                self.masks[first + i / 64].0 |= 1 << (i % 64);
            }
        }
        self.start.push(self.idx.len());
        let mut count = 0;
        for (bits, before) in &mut self.masks[first..] {
            *before = count;
            count += bits.count_ones();
        }
    }

    /// Solves `E₁⋯E_k z = v` in place, applying the etas first to last,
    /// and adds the positions it writes to `written`.
    fn ftran(&self, v: &mut [S], written: &mut [u64]) {
        for (k, span) in self.start.windows(2).enumerate() {
            let r = self.r[k];
            // A (numerically) zero v_r leaves v unchanged, flushed to zero.
            let mut zr = std::mem::take(&mut v[r]);
            if zr.is_zero() {
                continue;
            }
            zr /= &self.wr[k];
            for e in span[0]..span[1] {
                v[self.idx[e]].sub_mul(&self.val[e], &zr);
            }
            v[r] = zr;
            mark(written, r);
            let masks = &self.masks[k * self.words..(k + 1) * self.words];
            for (w, (bits, _)) in written.iter_mut().zip(masks) {
                *w |= bits;
            }
        }
    }

    /// Solves `(E₁⋯E_k)ᵀ z = v` in place, applying the etas last to
    /// first. `nz` lists, ascending, every position where `v` may be
    /// nonzero, and gains each position an eta writes. An eta with many
    /// more entries than `nz` looks the listed positions up instead of
    /// walking its entries; either way the same nonzeros enter its sum
    /// in the same ascending order.
    fn btran(&self, v: &mut [S], nz: &mut Vec<usize>) {
        for (k, span) in self.start.windows(2).enumerate().rev() {
            let r = self.r[k];
            let mut acc = std::mem::take(&mut v[r]);
            let (idx, val) = (&self.idx[span[0]..span[1]], &self.val[span[0]..span[1]]);
            if nz.len() * SPARSE_LOOKUP < idx.len() {
                for &i in nz.iter() {
                    if let Some(e) = self.entry(k, i) {
                        if !v[i].is_zero() {
                            acc.sub_mul(&self.val[e], &v[i]);
                        }
                    }
                }
            } else {
                for (&i, w) in idx.iter().zip(val) {
                    if !v[i].is_zero() {
                        acc.sub_mul(w, &v[i]);
                    }
                }
            }
            acc /= &self.wr[k];
            v[r] = acc;
            if let Err(at) = nz.binary_search(&r) {
                nz.insert(at, r);
            }
        }
    }
}

/// Lists in `nz`, ascending, the indices set in `bits` whose entry of
/// `x` is nonzero.
fn list_nonzeros<S: Scalar>(bits: &[u64], x: &[S], nz: &mut Vec<usize>) {
    nz.clear();
    for (word, &bits) in bits.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let p = word * 64 + bits.trailing_zeros() as usize;
            if !x[p].is_zero() {
                nz.push(p);
            }
            bits &= bits - 1;
        }
    }
}

/// The factorized basis: `B = B₀ · E₁ ⋯ E_k` with `B₀` held as LU.
struct Basis<S> {
    lu: SparseLu<S>,
    etas: EtaFile<S>,
    /// BTRAN's right-hand side by basis position, all zero between
    /// solves, and the positions where it may be nonzero.
    c: Vec<S>,
    c_nz: Vec<usize>,
}

impl<S: Scalar> Basis<S> {
    /// A fresh LU of the basis columns with an empty eta file; `None`
    /// if they are (numerically) singular.
    fn factorize(a: &SparseMatrix<S>, basis: &[usize]) -> Option<Basis<S>> {
        let lu = SparseLu::factorize(basis.len(), |p| a.col(basis[p]))?;
        Some(Basis::new(lu))
    }

    fn new(lu: SparseLu<S>) -> Basis<S> {
        let m = lu.prow.len();
        Basis {
            lu,
            etas: EtaFile::new(m),
            c: vec![S::default(); m],
            c_nz: Vec::new(),
        }
    }

    /// Solves `B x = a` (see [`SparseLu::ftran`]) and lists the
    /// ascending positions of the nonzeros of `x` in `nz`.
    fn ftran(&mut self, a: &[(usize, S)], x: &mut [S], nz: &mut Vec<usize>) {
        self.lu.ftran(a, x);
        self.etas.ftran(x, &mut self.lu.written);
        list_nonzeros(&self.lu.written, x, nz);
    }

    /// Solves `Bᵀ y = c` for `c` given by its `(position, value)`
    /// entries, ascending; every entry of `y` is written, and `nz`
    /// lists the ascending rows of its nonzeros.
    fn btran(&mut self, c: &[(usize, S)], y: &mut [S], nz: &mut Vec<usize>) {
        self.c_nz.clear();
        for (p, v) in c {
            self.c[*p] = v.clone();
            self.c_nz.push(*p);
        }
        self.etas.btran(&mut self.c, &mut self.c_nz);
        self.lu.btran(&mut self.c, &self.c_nz, y);
        list_nonzeros(&self.lu.written_rows, y, nz);
    }
}

/// Work vectors allocated once per solve and reused by every iteration.
struct Work<S> {
    /// The FTRANed entering column, by basis position.
    w: Vec<S>,
    /// Ascending positions of `w`'s nonzeros.
    nz: Vec<usize>,
    /// The current phase's nonzero basic costs `(position, cost)`,
    /// ascending: BTRAN's input when the duals are computed afresh.
    c_b: Vec<(usize, S)>,
    /// A BTRAN result, by row: the duals `y = B⁻ᵀc_B` when reduced costs
    /// are recomputed, otherwise `ρ = B⁻ᵀe_r` for the pivot row.
    y: Vec<S>,
    /// Ascending rows of `y`'s nonzeros.
    y_nz: Vec<usize>,
    /// Reduced costs `d_j = c_j − y·A_j` by column, kept current by the
    /// pivot-row update; zero on basic columns.
    d: Vec<S>,
    /// Devex reference weights by column.
    weight: Vec<f64>,
    /// The pivot row of the current iteration.
    row: PivotRow<S>,
}

impl<S: Scalar> Work<S> {
    fn new(m: usize, cols: usize) -> Work<S> {
        Work {
            w: vec![S::default(); m],
            nz: Vec::with_capacity(m),
            c_b: Vec::new(),
            y: vec![S::default(); m],
            y_nz: Vec::with_capacity(m),
            d: vec![S::default(); cols],
            weight: vec![1.0; cols],
            row: PivotRow {
                alpha: vec![S::default(); cols],
                flagged: vec![0; cols.div_ceil(64)],
            },
        }
    }
}

/// A pivot row `α_r = ρᵀA` by column, built from the rows of `A` that
/// `ρ` reaches: nonzero only on the columns flagged in `flagged`.
struct PivotRow<S> {
    alpha: Vec<S>,
    flagged: Vec<u64>,
}

impl<S: Scalar> PivotRow<S> {
    /// Adds `ρ_i·A_i` for every listed row `i` over the nonbasic
    /// columns below `limit`. Rows are walked in ascending order, so
    /// each `α_rj` sums its terms in the order `ρ·A_j` would.
    fn accumulate(
        &mut self,
        a: &SparseMatrix<S>,
        rho: &[S],
        rows: &[usize],
        limit: usize,
        in_basis: &[bool],
    ) {
        for &i in rows {
            for (j, v) in a.row(i) {
                if *j >= limit {
                    break; // a row's columns ascend
                }
                if !in_basis[*j] {
                    self.alpha[*j].add_mul(v, &rho[i]);
                    mark(&mut self.flagged, *j);
                }
            }
        }
    }

    /// Hands each nonzero `α_rj` to `f`, in ascending `j`, leaving the
    /// row all zero.
    fn drain(&mut self, mut f: impl FnMut(usize, S)) {
        for (word, bits) in self.flagged.iter_mut().enumerate() {
            while *bits != 0 {
                let j = word * 64 + bits.trailing_zeros() as usize;
                *bits &= *bits - 1;
                let alpha = std::mem::take(&mut self.alpha[j]);
                if !alpha.is_zero() {
                    f(j, alpha);
                }
            }
        }
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
    /// `None` before [`Revised::solve`] factorizes the initial basis, and
    /// once a (re)factorization came out singular.
    factors: Option<Basis<S>>,
    work: Work<S>,
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

        // The constraint matrix row by row (CSR): each row's structural
        // entries, then its slack or surplus, then its artificial, which
        // is ascending column order.
        let mut row_start = Vec::with_capacity(m + 1);
        row_start.push(0);
        let mut entries: Vec<(usize, Rational)> = Vec::new();
        let mut b_rhs = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_cursor = n;
        let mut art_cursor = first_art;
        let mut row: Vec<(usize, Rational)> = Vec::new();
        for (i, c) in lp.constraints().iter().enumerate() {
            // The row's coefficients by variable, duplicates summed and
            // zeros dropped, in O(row length) rather than O(n).
            row.clear();
            row.extend(c.coeffs.iter().map(|(v, coeff)| (v.index(), coeff.clone())));
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by(|(j, next), (k, kept)| {
                let same = j == k;
                if same {
                    *kept += &*next;
                }
                same
            });
            let (negate, rel, rhs) = canonical[i].clone();
            for (j, d) in row.drain(..) {
                if !d.is_zero() {
                    entries.push((j, if negate { -d } else { d }));
                }
            }
            match rel {
                Relation::Le => {
                    entries.push((slack_cursor, Rational::one()));
                    basis.push(slack_cursor);
                    slack_cursor += 1;
                }
                Relation::Ge => {
                    entries.push((slack_cursor, -Rational::one()));
                    slack_cursor += 1;
                    entries.push((art_cursor, Rational::one()));
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
                Relation::Eq => {
                    entries.push((art_cursor, Rational::one()));
                    basis.push(art_cursor);
                    art_cursor += 1;
                }
            }
            row_start.push(entries.len());
            b_rhs.push(rhs);
        }
        let a = SparseMatrix::from_rows(cols, row_start, entries);
        let mut in_basis = vec![false; cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut phase2: Vec<Rational> = match lp.objective() {
            Objective::Maximize => lp.objective_coeffs().to_vec(),
            Objective::Minimize => lp.objective_coeffs().iter().map(|c| -c).collect(),
        };
        phase2.resize(cols, Rational::zero());
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
            factors: None,
            work: Work::new(0, 0),
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
            a,
            x_b: b_rhs.clone(),
            b_rhs,
            phase2: self.phase2.iter().map(Rational::to_f64).collect(),
            basis: self.basis.clone(),
            in_basis: self.in_basis.clone(),
            factors: None,
            work: Work::new(0, 0),
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
        // Factorized here rather than at construction: the hybrid's
        // exact instance only verifies a proposed basis and never runs.
        // The initial basis is all unit columns (slacks/artificials), so
        // this first factorization is trivially sparse.
        self.factors = Basis::factorize(&self.a, &self.basis);
        self.factors.as_ref()?;
        self.work = Work::new(self.m, self.cols);
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
        // Drop the old factors first: the two are never needed together.
        self.factors = None;
        self.factors = Basis::factorize(&self.a, &self.basis);
        self.stats.refactorizations += 1;
    }

    /// Installs `q` at basis position `r` with step length `theta`,
    /// given the FTRANed entering column in `work.w` and `work.nz`.
    fn pivot(&mut self, r: usize, q: usize, theta: &S) {
        let Work { w, nz, .. } = &self.work;
        // Only an exactly-zero step leaves the other basic values alone.
        if *theta != S::default() {
            for &i in nz {
                if i != r {
                    self.x_b[i].sub_mul(&w[i], theta);
                }
            }
        }
        self.x_b[r] = theta.clone();
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.stats.pivots += 1;
        let factors = self.factors.as_mut().expect("pivot on a factorized basis");
        factors.etas.push(r, w, nz);
        if factors.etas.len() >= S::REFACTOR_INTERVAL {
            self.refactorize();
        }
    }

    /// Simplex iterations maximizing `costs·x` over columns `< limit`:
    /// `Optimal` or `Unbounded` for this phase, `None` if the run gave up.
    ///
    /// The reduced costs are computed once from a fresh BTRAN of the
    /// basic costs and then updated from each pivot row (see
    /// [`Revised::update_pricing`]); a drifting scalar recomputes them at
    /// every refactorization and before it declares the basis optimal.
    /// The entering column is the devex choice, or Bland's under
    /// [`PivotRule::Bland`] and while the anti-cycling backstop holds.
    fn optimize(&mut self, costs: &[S], limit: usize, rule: PivotRule) -> Option<LpStatus> {
        let cap = S::iteration_cap(self.m, self.cols);
        let backstop = MIN_DEGENERATE_SWITCH.max(self.m);
        let mut degenerate_streak = 0usize;
        let c_b = &mut self.work.c_b;
        c_b.clear();
        for (r, &j) in self.basis.iter().enumerate() {
            if costs[j] != S::default() {
                c_b.push((r, costs[j].clone()));
            }
        }
        // Each phase starts a fresh reference framework: its nonbasic
        // columns, each of weight 1.
        self.work.weight.fill(1.0);
        self.reprice(costs, limit)?;
        let mut fresh = true;
        loop {
            if self.stats.pivots >= cap {
                return None;
            }
            let bland = rule == PivotRule::Bland || degenerate_streak >= backstop;
            let Some(q) = self.entering(limit, bland) else {
                if S::UPDATES_DRIFT && !fresh {
                    self.reprice(costs, limit)?;
                    fresh = true;
                    continue;
                }
                return Some(LpStatus::Optimal);
            };
            let factors = self.factors.as_mut()?;
            let work = &mut self.work;
            factors.ftran(self.a.col(q), &mut work.w, &mut work.nz);
            // Ratio test; ties go to the smallest basis column index
            // (Bland-compatible, mirrors the dense engine).
            let mut best: Option<(usize, S)> = None;
            for &r in &work.nz {
                let wr = &work.w[r];
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
                self.stats.degenerate_pivots += 1;
            } else {
                degenerate_streak = 0;
            }
            if bland {
                self.stats.bland_pivots += 1;
            }
            self.update_pricing(r, q, limit)?;
            let c_b = &mut self.work.c_b;
            let cost = &costs[q];
            match c_b.binary_search_by_key(&r, |e| e.0) {
                Ok(at) if *cost == S::default() => {
                    c_b.remove(at);
                }
                Ok(at) => c_b[at].1 = cost.clone(),
                Err(at) if *cost != S::default() => c_b.insert(at, (r, cost.clone())),
                Err(_) => {}
            }
            let refactorizations = self.stats.refactorizations;
            self.pivot(r, q, &theta);
            fresh = false;
            if S::UPDATES_DRIFT && self.stats.refactorizations > refactorizations {
                self.reprice(costs, limit)?;
                fresh = true;
            }
        }
    }

    /// Recomputes the reduced costs of the columns below `limit` from a
    /// fresh BTRAN of the basic costs. `None` without factors (a
    /// singular refactorization gave up).
    fn reprice(&mut self, costs: &[S], limit: usize) -> Option<()> {
        let factors = self.factors.as_mut()?;
        let work = &mut self.work;
        factors.btran(&work.c_b, &mut work.y, &mut work.y_nz);
        for (j, cost) in costs.iter().enumerate().take(limit) {
            work.d[j] = if self.in_basis[j] {
                S::default()
            } else {
                let mut d = -self.a.dot_col(j, &work.y);
                d += cost;
                d
            };
        }
        Some(())
    }

    /// The improving column to enter, or `None` if there is none. Under
    /// `bland` it is the smallest such index; otherwise the devex
    /// choice, the largest `d_j²/w_j` (the first among equals, up to
    /// [`DEVEX_TIE`]). With every weight at 1 that is Dantzig's largest
    /// reduced cost.
    fn entering(&self, limit: usize, bland: bool) -> Option<usize> {
        let Work { d, weight, .. } = &self.work;
        let mut best: Option<(usize, f64)> = None;
        for j in 0..limit {
            if self.in_basis[j] || !d[j].is_positive() {
                continue;
            }
            if bland {
                return Some(j);
            }
            let dj = d[j].to_f64();
            let score = dj * dj / weight[j];
            if best.is_none_or(|(_, top)| score > top * (1.0 + DEVEX_TIE)) {
                best = Some((j, score));
            }
        }
        best.map(|(j, _)| j)
    }

    /// Leaves `ρ = B⁻ᵀe_r` in `work.y` and the pivot row `α_r = ρᵀA`,
    /// over the nonbasic columns below `limit`, in `work.row`. `None`
    /// without factors.
    fn pivot_row(&mut self, r: usize, limit: usize) -> Option<()> {
        let factors = self.factors.as_mut()?;
        let work = &mut self.work;
        factors.btran(&[(r, S::one())], &mut work.y, &mut work.y_nz);
        work.row
            .accumulate(&self.a, &work.y, &work.y_nz, limit, &self.in_basis);
        Some(())
    }

    /// Updates the pricing state for the pivot that brings `q` in at
    /// basis position `r`, before the basis changes. With `θ_d =
    /// d_q/α_rq`, the duals move by `y += θ_d·ρ`, so each reduced cost
    /// moves by `d_j −= θ_d·α_rj`: only the pivot row's columns change,
    /// `q` drops to 0, and the leaving column rises to `−θ_d`. Devex
    /// (Harris 1973, in Forrest and Goldfarb's form) raises each
    /// weight to `w_j = max(w_j, (α_rj/α_rq)²·w_q)` and gives the leaving
    /// column `max(w_q/α_rq², 1)`.
    fn update_pricing(&mut self, r: usize, q: usize, limit: usize) -> Option<()> {
        self.pivot_row(r, limit)?;
        let leaving = self.basis[r];
        let Work {
            w, d, weight, row, ..
        } = &mut self.work;
        // α_rq as FTRAN computed it: the pivot element itself.
        let alpha_q = &w[r];
        let mut step = std::mem::take(&mut d[q]);
        step /= alpha_q;
        let alpha_q = alpha_q.to_f64();
        let weight_q = weight[q];
        row.drain(|j, alpha| {
            if j != q {
                d[j].sub_mul(&step, &alpha);
                let ratio = alpha.to_f64() / alpha_q;
                weight[j] = weight[j].max(ratio * ratio * weight_q);
            }
        });
        weight[leaving] = (weight_q / (alpha_q * alpha_q)).max(1.0);
        d[leaving] = -step;
        Some(())
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
            // Row r of B⁻¹A: the first column that can pivot on it enters.
            if self.pivot_row(r, self.first_art).is_none() {
                return;
            }
            let mut q = None;
            self.work.row.drain(|j, alpha| {
                if q.is_none() && (alpha.is_pivot() || (-alpha).is_pivot()) {
                    q = Some(j);
                }
            });
            if let Some(q) = q {
                let Some(factors) = self.factors.as_mut() else {
                    return;
                };
                let work = &mut self.work;
                factors.ftran(self.a.col(q), &mut work.w, &mut work.nz);
                debug_assert!(!work.w[r].is_zero());
                self.pivot(r, q, &S::default());
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
    fn rows_sum_duplicates_and_drop_cancelled_coefficients() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        let row0 = vec![(z, ri(3)), (x, ri(1)), (y, ri(2)), (x, ri(-1)), (x, ri(1))];
        lp.add_constraint(row0, Relation::Le, ri(4));
        let row1 = vec![(y, ri(1)), (x, ri(2)), (y, ri(-1)), (z, r(1, 2))];
        lp.add_constraint(row1, Relation::Ge, ri(1));
        // Ge with RHS 0: negated into a Le row.
        let row2 = vec![(z, ri(1)), (x, ri(-1)), (z, ri(1))];
        lp.add_constraint(row2, Relation::Ge, ri(0));
        // Negative RHS: negated into a Ge row; y cancels entirely.
        let row3 = vec![(y, ri(1)), (z, ri(1)), (y, ri(-1))];
        lp.add_constraint(row3, Relation::Le, ri(-2));
        let rv = Revised::new(&lp);
        let expected: Vec<Vec<(usize, Rational)>> = vec![
            vec![(0, ri(1)), (1, ri(2)), (2, ri(1))],
            vec![(0, ri(2))],
            vec![(0, ri(3)), (1, r(1, 2)), (2, ri(-2)), (3, ri(-1))],
            vec![(0, ri(1))],
            vec![(1, ri(-1))],
            vec![(2, ri(1))],
            vec![(3, ri(-1))],
            vec![(1, ri(1))],
            vec![(3, ri(1))],
        ];
        assert_eq!(rv.a.num_rows(), 4);
        assert_eq!(rv.a.num_cols(), expected.len());
        for (j, col) in expected.iter().enumerate() {
            assert_eq!(rv.a.col(j), &col[..], "column {j}");
        }
        assert_eq!(rv.b_rhs, vec![ri(4), ri(1), ri(0), ri(2)]);
        assert_eq!(rv.basis, vec![3, 7, 5, 8]);
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

    #[test]
    fn updated_reduced_costs_equal_fresh_ones_exactly() {
        // The exact run never recomputes its reduced costs within a
        // phase: at the optimum, the ones the pivot rows kept must equal
        // a fresh BTRAN's, and none may improve.
        let mut next = xorshift(0x51ab_1e5e_ed00_0001);
        let mut pivoted = 0;
        for case in 0..40 {
            let mut lp = LinearProgram::maximize();
            let vars: Vec<_> = (0..3 + next(5))
                .map(|i| lp.add_var(format!("x{i}")))
                .collect();
            for &v in &vars {
                lp.set_objective_coeff(v, ri(next(5) as i64));
            }
            for _ in 0..2 + next(6) {
                let mut coeffs = Vec::new();
                for &v in &vars {
                    if next(3) != 0 {
                        coeffs.push((v, ri(next(7) as i64 - 2)));
                    }
                }
                lp.add_constraint(coeffs, Relation::Le, ri(next(4) as i64));
            }
            let mut rv = Revised::new(&lp);
            if rv.solve(PivotRule::DantzigThenBland) != Some(LpStatus::Optimal) {
                continue;
            }
            pivoted += usize::from(rv.stats.pivots > 0);
            let (limit, costs) = (rv.first_art, rv.phase2.clone());
            let kept = rv.work.d[..limit].to_vec();
            rv.reprice(&costs, limit).expect("factorized");
            assert_eq!(kept, rv.work.d[..limit], "case {case}:\n{lp}");
            assert!(kept.iter().all(|d| !d.is_positive()), "case {case}");
        }
        assert!(pivoted >= 20, "only {pivoted} cases pivoted");
    }

    #[test]
    fn bland_pivots_count_what_bland_priced() {
        let mut lp = LinearProgram::maximize();
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, ri(3));
        lp.set_objective_coeff(y, ri(5));
        lp.add_constraint(vec![(x, ri(1))], Relation::Le, ri(4));
        lp.add_constraint(vec![(y, ri(2))], Relation::Le, ri(12));
        lp.add_constraint(vec![(x, ri(3)), (y, ri(2))], Relation::Le, ri(18));
        let bland = solve_revised(&lp, PivotRule::Bland).stats;
        assert!(bland.pivots > 0);
        assert_eq!(bland.bland_pivots, bland.pivots, "{bland:?}");
        let devex = solve_revised(&lp, PivotRule::DantzigThenBland).stats;
        assert_eq!(devex.bland_pivots, 0, "{devex:?}");
        // With every weight at 1 devex enters y (reduced cost 5), as
        // Dantzig would, and is optimal after two pivots.
        assert_eq!((devex.pivots, devex.degenerate_pivots), (2, 0), "{devex:?}");
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

    /// The `(index, value)` entries of a dense vector.
    fn entries<S: Scalar>(v: &[S]) -> Vec<(usize, S)> {
        v.iter().cloned().enumerate().collect()
    }

    /// Solves `B x = v` through `lu`.
    fn ftran<S: Scalar>(lu: &mut SparseLu<S>, v: Vec<S>) -> Vec<S> {
        let mut x = vec![S::default(); v.len()];
        lu.ftran(&entries(&v), &mut x);
        x
    }

    /// xorshift64 draws in `0..bound`, so the tests need no rand crate.
    fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    /// A random nonsingular `m × m` integer matrix, by columns: full row
    /// and column 0, so elimination always records `L` factors; sparse
    /// off-diagonal entries elsewhere, which fill in; and a diagonal
    /// that dominates both its row and its column.
    fn random_nonsingular(next: &mut impl FnMut(u64) -> u64, m: usize) -> Vec<Vec<i64>> {
        (0..m)
            .map(|j| {
                (0..m)
                    .map(|i| match () {
                        _ if i == j => 4 * m as i64 + next(5) as i64,
                        _ if (m <= 10 && (i == 0 || j == 0)) || next(m as u64 + 6) < 3 => {
                            [-2, -1, 1, 2][next(4) as usize]
                        }
                        _ => 0,
                    })
                    .collect()
            })
            .collect()
    }

    /// `B x` for `B` given by columns.
    fn mul<S: Scalar>(b: &[Vec<S>], x: &[S]) -> Vec<S> {
        let mut out = vec![S::default(); x.len()];
        for (col, xj) in b.iter().zip(x) {
            for (o, bij) in out.iter_mut().zip(col) {
                o.add_mul(bij, xj);
            }
        }
        out
    }

    /// `Bᵀ y` for `B` given by columns.
    fn mul_t<S: Scalar>(b: &[Vec<S>], y: &[S]) -> Vec<S> {
        b.iter()
            .map(|col| {
                let mut acc = S::default();
                for (bij, yi) in col.iter().zip(y) {
                    acc.add_mul(bij, yi);
                }
                acc
            })
            .collect()
    }

    /// FTRAN and BTRAN through an LU with fill-in and `L` factors plus a
    /// few product-form etas solve the explicit basis: `B·ftran(v) = v`
    /// and `Bᵀ·btran(c) = c`, where `B` is the matrix after the basis
    /// changes the etas record. Each solve leaves its scratch (and BTRAN
    /// its input) all zero.
    fn check_factor_solves<S: Scalar + std::fmt::Debug>(
        to: fn(i64) -> S,
        close: fn(&S, &S) -> bool,
    ) {
        let mut next = xorshift(0x9e3779b97f4a7c15);
        let mut filled = 0;
        for case in 0..60 {
            // Every tenth matrix is large enough for sparse BTRAN.
            let large = case % 10 == 9;
            let m = if large { 24 + next(9) } else { 3 + next(8) } as usize;
            let mut b: Vec<Vec<S>> = random_nonsingular(&mut next, m)
                .iter()
                .map(|col| col.iter().map(|&v| to(v)).collect())
                .collect();
            let lu = factorize(&b).expect("diagonally dominant");
            assert!(m > 10 || !lu.l_row.is_empty(), "case {case}: no L factors");
            let nnz: usize = b.iter().flatten().filter(|v| !v.is_zero()).count();
            if m + lu.u_col.len() + lu.l_row.len() > nnz {
                filled += 1;
            }
            let mut basis = Basis::new(lu);
            let zero = |v: &[S]| v.iter().all(|x| *x == S::default());
            let clear = |lu: &SparseLu<S>| zero(&lu.rhs) && lu.visit.iter().all(|w| *w == 0);
            let assert_close = |got: &[S], want: &[S], what: &str| {
                let ok = got.iter().zip(want).all(|(g, w)| close(g, w));
                assert!(ok, "case {case}: {what}: {got:?} != {want:?}");
            };
            for _ in 0..2 + next(3) {
                // Replace basis column r by B·w, w_r = 4: FTRAN must
                // give w back, and its eta keeps the basis nonsingular.
                let r = next(m as u64) as usize;
                let w: Vec<S> = (0..m)
                    .map(|i| match () {
                        _ if i == r => to(4),
                        _ if next(4) != 0 => to(next(5) as i64 - 2),
                        _ => S::default(),
                    })
                    .collect();
                let column = mul(&b, &w);
                let (mut x, mut nz) = (vec![S::default(); m], Vec::new());
                basis.ftran(&entries(&column), &mut x, &mut nz);
                assert_close(&x, &w, "entering column");
                let want: Vec<usize> = (0..m).filter(|&i| !x[i].is_zero()).collect();
                assert_eq!(nz, want, "case {case}: nonzero list");
                basis.etas.push(r, &x, &nz);
                b[r] = column;
            }
            for _ in 0..if large { 1 } else { 3 } {
                let rhs: Vec<S> = (0..m).map(|_| to(next(9) as i64 - 4)).collect();
                let (mut x, mut nz) = (vec![S::default(); m], Vec::new());
                basis.ftran(&entries(&rhs), &mut x, &mut nz);
                let want: Vec<usize> = (0..m).filter(|&i| !x[i].is_zero()).collect();
                assert_eq!(nz, want, "case {case}: nonzero list");
                assert!(clear(&basis.lu), "case {case}: FTRAN scratch left set");
                assert_close(&mul(&b, &x), &rhs, "B·ftran(v)");
                let mut y = vec![S::default(); m];
                basis.btran(&entries(&rhs), &mut y, &mut nz);
                let want: Vec<usize> = (0..m).filter(|&i| !y[i].is_zero()).collect();
                assert_eq!(nz, want, "case {case}: BTRAN nonzero list");
                assert!(zero(&basis.c), "case {case}: BTRAN input not consumed");
                assert!(clear(&basis.lu), "case {case}: BTRAN scratch left set");
                assert_close(&mul_t(&b, &y), &rhs, "Bᵀ·btran(c)");
            }
            // Unit vectors: the sparse starts. FTRAN must reach every
            // step through U's columns; BTRAN's etas look its few
            // nonzeros up instead of walking their entries.
            let p = next(m as u64) as usize;
            let unit: Vec<S> = (0..m).map(|i| to(i64::from(i == p))).collect();
            let (mut x, mut nz) = (vec![S::default(); m], Vec::new());
            basis.ftran(&[(p, S::one())], &mut x, &mut nz);
            assert_close(&mul(&b, &x), &unit, "B·ftran(e_p)");
            let mut y = vec![S::default(); m];
            basis.btran(&[(p, S::one())], &mut y, &mut nz);
            let want: Vec<usize> = (0..m).filter(|&i| !y[i].is_zero()).collect();
            assert_eq!(nz, want, "case {case}: BTRAN nonzero list of a unit vector");
            assert!(zero(&basis.c), "case {case}: BTRAN input not consumed");
            assert_close(&mul_t(&b, &y), &unit, "Bᵀ·btran(e_p)");
            // Column 0 replaced by the sum of two others: singular.
            let mut other = || 1 + next(m as u64 - 1) as usize;
            let (p, q) = (other(), other());
            let mut singular = b.clone();
            singular[0] = b[p].clone();
            for (s, v) in singular[0].iter_mut().zip(&b[q]) {
                *s += v;
            }
            assert!(factorize(&singular).is_none(), "case {case}: singular");
        }
        assert!(filled > 0, "no case had fill-in");
    }

    #[test]
    fn factor_solves_invert_the_basis_over_both_scalars() {
        check_factor_solves(Rational::int, |got, want| got == want);
        check_factor_solves(|v| v as f64, |got, want| (got - want).abs() <= 1e-9);
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
        let mut float = factorize(&[
            vec![0.01, 1.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![0.0, 2.0, 1.0],
        ])
        .expect("nonsingular");
        assert_eq!((float.pcol[0], float.prow[0]), (0, 1));
        let mut exact = factorize(&[
            vec![r(1, 100), ri(1), ri(0)],
            vec![ri(0), ri(1), ri(1)],
            vec![ri(0), ri(2), ri(1)],
        ])
        .expect("nonsingular");
        assert_eq!((exact.pcol[0], exact.prow[0]), (0, 0));
        // Either pivot order solves B x = B·(1, 2, 3).
        let x = ftran(&mut float, vec![0.01, 9.0, 5.0]);
        for (got, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
        let x = ftran(&mut exact, vec![r(1, 100), ri(9), ri(5)]);
        assert_eq!(x, vec![ri(1), ri(2), ri(3)]);
    }
}
