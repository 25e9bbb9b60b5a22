//! The entropy linear programs of §6.4.
//!
//! Both programs bound the worst-case size-increase exponent through the
//! entropies `h(S)` of the query variables: per-atom normalizations
//! `h(u_j) ≤ 1`, one equality `h(lhs ∪ {t}) = h(lhs)` per variable-level
//! FD, and the objective `max h(u_0)`. They differ in which information
//! inequalities constrain the feasible region:
//!
//! - [`entropy_upper_bound`] (Proposition 6.9) imposes the **elemental
//!   Shannon inequalities** — `H(X_i | X_{[k]−i}) ≥ 0` and
//!   `I(X_i; X_j | X_S) ≥ 0` — yielding the upper bound `s(Q)` on the
//!   worst-case size-increase exponent. It is *not* tight in general:
//!   non-Shannon inequalities (Zhang–Yeung; infinitely many, Matúš) are
//!   missing by necessity, which the paper identifies as the fundamental
//!   obstacle.
//! - [`color_number_entropy_lp`] (Proposition 6.10) instead imposes
//!   nonnegativity of **every I-measure atom** `I(S | [k]\S) ≥ 0`; its
//!   optimum equals the color number `C(Q)` exactly, for arbitrary FDs.
//!
//! Stated over every subset, Proposition 6.9 has one LP variable per
//! `h(S)`, `2^k − 1` in all, under `k(k−1)·2^{k−3}` sparse elemental
//! inequalities (each touches at most 4 variables), so `cq_lp` routes it
//! to its sparse engines automatically (see `docs/SOLVER.md`).
//! [`build_entropy_upper_lp`] builds that program and stays as the
//! oracle; [`entropy_upper_bound`] solves it over **FD-closed sets**
//! only. Write `cl(S)` for the closure of `S` under the FDs. Every
//! feasible `h` has `h(S) = h(cl(S))`: for `lhs → t` and `S ⊇ lhs`,
//! submodularity gives `h(S ∪ t) − h(S) ≤ h(lhs ∪ t) − h(lhs) = 0`, and
//! monotonicity gives `≥ 0`. Conversely, a solution `g` over closed sets
//! extends to `h(S) = g(cl(S))`, which satisfies every row of the full
//! program. So the closed program has one column per closed set other
//! than `cl(∅)` (whose entropy is 0), the objective `h(cl(u_0))`, the
//! normalizations `h(cl(u_j)) ≤ 1`, and no FD rows, which closure makes
//! trivial. Its elemental rows are the images of the full program's:
//! since `cl(S ∪ X) = cl(cl(S) ∪ X)`, the row of `(i, j, S)` is the row
//! of `(i, j, cl(S))`, so only closed `S` are enumerated. With
//! `A = cl(S ∪ i)` and `A' = cl(S ∪ j)`, the row is
//! `h(A) + h(A') − h(S) − h(cl(A ∪ A')) ≥ 0`; when `A ⊆ A'`, it reduces
//! to the monotone row `h(A) − h(S) ≥ 0`, and when `i` or `j` is
//! already in `S`, to nothing. Each distinct row is
//! emitted once. On cycle-fd k = 9 this takes the program from
//! 4,628 × 511 to 4,193 × 447.
//!
//! Proposition 6.10 is solved in **I-measure coordinates** instead: its
//! variables are the atoms
//! `y_S = I(S | [k]\S) ≥ 0` themselves, and `h(T) = Σ_{S∩T≠∅} y_S`
//! (Yeung's I-measure; the map is invertible by Möbius inversion, so the
//! optimum is the same number). The `2^k − 1` atom inequalities become
//! plain variable bounds, each FD `lhs → t` deletes the atoms it forces
//! to 0 (its equality reads `Σ_{t∈S, S∩lhs=∅} y_S = 0`), and what is left
//! is one `≤ 1` row per query atom over at most `2^k − 1` columns. A few
//! pivots solve it where the `h`-coordinate program
//! ([`build_color_number_entropy_lp`], kept as the oracle the
//! differential and work-count tests use) needs about `2^k`. The
//! engine-level caps on `k` live at `cq_engine::session`.
//!
//! ```
//! use cq_core::{chase, color_number_entropy_lp, entropy_upper_bound,
//!               parse_program, parse_query};
//!
//! // FD-free, both programs recover the Proposition 3.6 optimum.
//! let tri = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
//! assert_eq!(color_number_entropy_lp(&tri, &[]).to_string(), "3/2");
//! assert_eq!(entropy_upper_bound(&tri, &[]).to_string(), "3/2");
//!
//! // Under a compound FD — where Theorem 4.4 is out of reach — the two
//! // LPs still bracket the worst-case exponent: C(chase(Q)) <= s(Q).
//! let (q, fds) =
//!     parse_program("Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]").unwrap();
//! let chased = chase(&q, &fds);
//! let vfds = chased.query.variable_fds(&fds);
//! let c = color_number_entropy_lp(&chased.query, &vfds);
//! let s = entropy_upper_bound(&chased.query, &vfds);
//! assert!(c <= s);
//! assert_eq!(c.to_string(), "1");
//! ```

use crate::query::{ConjunctiveQuery, VarFd};
use cq_arith::Rational;
use cq_lp::{LinearProgram, Relation as LpRel, SolveStats, Solver, VarId};
use cq_util::{full_mask, mask_elems, mask_from, popcount, subsets_of};

/// Hard cap on variables (the LP needs `2^k − 1` columns, so this is a
/// memory bound, not a speed estimate — raised from 16 when the sparse
/// revised simplex replaced the dense tableau on these programs; the
/// *practical* per-program ceilings are the advisory caps in
/// `cq_engine::session`, which warn instead of erroring).
pub const MAX_ENTROPY_LP_VARS: usize = 20;

struct EntropyLpBuilder {
    lp: LinearProgram,
    /// LP variable for each nonempty mask.
    vars: Vec<Option<VarId>>,
    k: usize,
}

impl EntropyLpBuilder {
    fn new(q: &ConjunctiveQuery) -> Self {
        let k = q.num_vars();
        assert!(
            k <= MAX_ENTROPY_LP_VARS,
            "entropy LPs need 2^k variables; {k} query variables exceeds the cap of {MAX_ENTROPY_LP_VARS}"
        );
        let mut lp = LinearProgram::maximize();
        let mut vars: Vec<Option<VarId>> = vec![None; 1 << k];
        for mask in 1u32..(1 << k) {
            vars[mask as usize] = Some(lp.add_var(format!("h{mask:b}")));
        }
        EntropyLpBuilder { lp, vars, k }
    }

    fn var(&self, mask: u32) -> Option<VarId> {
        if mask == 0 {
            None // h(∅) = 0, simply omitted
        } else {
            self.vars[mask as usize]
        }
    }

    /// Adds `Σ signs · h(masks) rel rhs`, dropping empty-mask terms.
    fn constraint(&mut self, terms: &[(u32, i64)], rel: LpRel, rhs: Rational) {
        let coeffs: Vec<(VarId, Rational)> = terms
            .iter()
            .filter_map(|&(mask, sign)| self.var(mask).map(|v| (v, Rational::int(sign))))
            .collect();
        self.lp.add_constraint(coeffs, rel, rhs);
    }

    /// Common structure: objective `max h(u0)`, atom normalizations, FD
    /// equalities.
    fn add_query_structure(&mut self, q: &ConjunctiveQuery, var_fds: &[VarFd]) {
        let head_mask = mask_from(q.head_var_set().iter());
        if let Some(v) = self.var(head_mask) {
            self.lp.set_objective_coeff(v, Rational::one());
        }
        for atom in q.body() {
            let mask = mask_from(atom.var_set().iter());
            self.constraint(&[(mask, 1)], LpRel::Le, Rational::one());
        }
        for fd in var_fds {
            let lhs = mask_from(fd.lhs.iter().copied());
            let both = lhs | (1 << fd.rhs);
            if both != lhs {
                self.constraint(&[(both, 1), (lhs, -1)], LpRel::Eq, Rational::zero());
            }
        }
    }

    /// The elemental Shannon inequalities of Proposition 6.9:
    /// `H(X_i | X_{[k]−i}) ≥ 0` and `I(X_i; X_j | X_S) ≥ 0`.
    fn add_elemental_inequalities(&mut self) {
        let k = self.k;
        let full: u32 = ((1u64 << k) - 1) as u32;
        for i in 0..k {
            let rest = full & !(1 << i);
            self.constraint(&[(full, 1), (rest, -1)], LpRel::Ge, Rational::zero());
        }
        for i in 0..k {
            for j in i + 1..k {
                let others = full & !(1 << i) & !(1 << j);
                for s in subsets_of(others) {
                    self.constraint(
                        &[
                            (s | (1 << i), 1),
                            (s | (1 << j), 1),
                            (s, -1),
                            (s | (1 << i) | (1 << j), -1),
                        ],
                        LpRel::Ge,
                        Rational::zero(),
                    );
                }
            }
        }
    }
}

/// Builds (without solving) the Proposition 6.9 linear program: maximize
/// `h(u_0)` under atom normalizations, FD equalities and the elemental
/// Shannon inequalities. Exposed so the differential and work-count
/// tests can hand the *same* program to several solver engines.
pub fn build_entropy_upper_lp(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> LinearProgram {
    let mut b = EntropyLpBuilder::new(q);
    b.add_query_structure(q, var_fds);
    b.add_elemental_inequalities();
    b.lp
}

/// Builds (without solving) the Proposition 6.10 linear program in
/// entropy coordinates: maximize `h(u_0)` under atom normalizations, FD
/// equalities and nonnegativity of every I-measure atom, one dense row
/// per atom. [`color_number_entropy_lp`] solves the equivalent
/// I-measure-coordinate program instead; this one stays as its oracle
/// and as a hard LP (`2^k` rows, about `2^k` pivots) for the
/// differential and work-count tests.
pub fn build_color_number_entropy_lp(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> LinearProgram {
    let mut b = EntropyLpBuilder::new(q);
    b.add_query_structure(q, var_fds);
    let k = b.k;
    let full: u32 = ((1u64 << k) - 1) as u32;
    // I(S | [k]\S) >= 0 for every nonempty S:
    //   Σ_{T ⊆ S} (−1)^{|T|+1} h(T ∪ ([k]\S)) >= 0.
    for s in 1..=full {
        let complement = full & !s;
        let terms: Vec<(u32, i64)> = subsets_of(s)
            .map(|t| {
                let sign = if popcount(t) % 2 == 1 { 1 } else { -1 };
                (t | complement, sign)
            })
            .collect();
        b.constraint(&terms, LpRel::Ge, Rational::zero());
    }
    b.lp
}

/// The Proposition 6.10 program in I-measure coordinates: one column
/// `y_S ≥ 0` per nonempty `S ⊆ [k]` that no FD deletes (`lhs → t`
/// deletes every `S` with `t ∈ S` and `S ∩ lhs = ∅`), one row
/// `Σ_{S∩u_j≠∅} y_S ≤ 1` per query atom, objective `Σ_{S∩u_0≠∅} y_S`.
/// Same optimum as [`build_color_number_entropy_lp`].
fn build_color_number_atom_lp(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> LinearProgram {
    let k = q.num_vars();
    assert!(
        k <= MAX_ENTROPY_LP_VARS,
        "entropy LPs need 2^k variables; {k} query variables exceeds the cap of {MAX_ENTROPY_LP_VARS}"
    );
    let full: u32 = ((1u64 << k) - 1) as u32;
    let head = mask_from(q.head_var_set().iter());
    let atoms: Vec<u32> = q
        .body()
        .iter()
        .map(|atom| mask_from(atom.var_set().iter()))
        .collect();
    let fds: Vec<(u32, u32)> = var_fds
        .iter()
        .map(|fd| (mask_from(fd.lhs.iter().copied()), 1 << fd.rhs))
        .collect();
    let mut lp = LinearProgram::maximize();
    let mut rows: Vec<Vec<(VarId, Rational)>> = vec![Vec::new(); atoms.len()];
    for s in 1..=full {
        if fds.iter().any(|&(lhs, t)| s & t != 0 && s & lhs == 0) {
            continue;
        }
        let y = lp.add_var(format!("y{s:b}"));
        if s & head != 0 {
            lp.set_objective_coeff(y, Rational::one());
        }
        for (row, &u) in rows.iter_mut().zip(&atoms) {
            if s & u != 0 {
                row.push((y, Rational::one()));
            }
        }
    }
    for row in rows {
        lp.add_constraint(row, LpRel::Le, Rational::one());
    }
    lp
}

/// The FD closure of every mask over `k` variables: `closure[S]` is the
/// least superset of `S` that contains `t` whenever it contains the
/// left side of some `lhs → t` in `var_fds`.
fn closure_table(k: usize, var_fds: &[VarFd]) -> Vec<u32> {
    let fds: Vec<(u32, u32)> = var_fds
        .iter()
        .map(|fd| (mask_from(fd.lhs.iter().copied()), 1 << fd.rhs))
        .filter(|&(lhs, t)| lhs & t == 0)
        .collect();
    let close = |mut s: u32| loop {
        let grown = fds
            .iter()
            .filter(|&&(lhs, _)| s & lhs == lhs)
            .fold(s, |m, &(_, t)| m | t);
        if grown == s {
            return s;
        }
        s = grown;
    };
    let mut closure = vec![close(0); 1 << k];
    for s in 1..closure.len() {
        // cl(S) ⊇ cl(S minus its lowest element) ∪ S, so start there.
        let rest = s & (s - 1);
        closure[s] = close(closure[rest] | s as u32);
    }
    closure
}

/// The Proposition 6.9 program over FD-closed sets (see the module
/// docs): one column `h(C)` per closed `C ≠ cl(∅)`, largest mask first,
/// objective `h(cl(u_0))`, one `h(cl(u_j)) ≤ 1` per distinct closed atom
/// set, no FD rows, and each distinct image of an elemental inequality
/// once. Rows that only restate `h(C) ≥ 0` are left to the variable
/// bounds. Same optimum as [`build_entropy_upper_lp`].
fn build_closed_entropy_upper_lp(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> LinearProgram {
    let k = q.num_vars();
    assert!(
        k <= MAX_ENTROPY_LP_VARS,
        "entropy LPs need 2^k variables; {k} query variables exceeds the cap of {MAX_ENTROPY_LP_VARS}"
    );
    let full = full_mask(k);
    let closure = closure_table(k, var_fds);
    // h(cl(∅)) = h(∅) = 0, so that set gets no column.
    let zero = closure[0];
    let mut lp = LinearProgram::maximize();
    // Columns run from the full set down. Devex breaks pricing ties by
    // the smaller index, so larger sets enter first; that cut float
    // pivots on every cycle-fd program and by 15% over 40 random ones
    // (docs/SOLVER.md).
    let mut col: Vec<Option<VarId>> = vec![None; 1 << k];
    for s in (0..=full).rev() {
        if closure[s as usize] == s && s != zero {
            col[s as usize] = Some(lp.add_var(format!("h{s:b}")));
        }
    }
    let terms = |masks: &[(u32, i64)]| -> Vec<(VarId, Rational)> {
        masks
            .iter()
            .filter_map(|&(mask, sign)| col[mask as usize].map(|v| (v, Rational::int(sign))))
            .collect()
    };
    let head = closure[mask_from(q.head_var_set().iter()) as usize];
    if let Some(v) = col[head as usize] {
        lp.set_objective_coeff(v, Rational::one());
    }
    let mut normalized: Vec<u32> = Vec::new();
    for atom in q.body() {
        let c = closure[mask_from(atom.var_set().iter()) as usize];
        if c != zero && !normalized.contains(&c) {
            normalized.push(c);
            lp.add_constraint(terms(&[(c, 1)]), LpRel::Le, Rational::one());
        }
    }
    // H(X_i | rest) ≥ 0: cl(full − i) is full − i itself unless it is
    // full, so distinct i give distinct rows.
    for i in 0..k {
        let rest = closure[(full & !(1 << i)) as usize];
        if rest != full && rest != zero {
            lp.add_constraint(terms(&[(full, 1), (rest, -1)]), LpRel::Ge, Rational::zero());
        }
    }
    // I(X_i; X_j | X_S) ≥ 0 maps to the row of (i, j, cl(S)), so only
    // closed S = t are enumerated. `grown` holds the distinct sets
    // cl(t ∪ {i}) for i ∉ t, each flagged when some row of t reduces to
    // the monotone `h(A) − h(t) ≥ 0`: two variables with the same closure
    // A, or A inside another variable's closure.
    let mut grown: Vec<(u32, bool)> = Vec::with_capacity(k);
    for t in 0..=full {
        if closure[t as usize] != t {
            continue;
        }
        grown.clear();
        for i in mask_elems(full & !t) {
            let a = closure[(t | 1 << i) as usize];
            match grown.iter_mut().find(|(b, _)| *b == a) {
                Some(entry) => entry.1 = true,
                None => grown.push((a, false)),
            }
        }
        for x in 0..grown.len() {
            for y in x + 1..grown.len() {
                let (a, b) = (grown[x].0, grown[y].0);
                if a & !b == 0 {
                    grown[x].1 = true;
                } else if b & !a == 0 {
                    grown[y].1 = true;
                } else {
                    let ab = closure[(a | b) as usize];
                    let row = terms(&[(a, 1), (b, 1), (t, -1), (ab, -1)]);
                    lp.add_constraint(row, LpRel::Ge, Rational::zero());
                }
            }
        }
        if t != zero {
            for &(a, _) in grown.iter().filter(|(_, monotone)| *monotone) {
                lp.add_constraint(terms(&[(a, 1), (t, -1)]), LpRel::Ge, Rational::zero());
            }
        }
    }
    lp
}

/// Solves the I-measure-coordinate Proposition 6.10 program with
/// `solver`.
fn solve_color_number_atom_lp(
    q: &ConjunctiveQuery,
    var_fds: &[VarFd],
    solver: Solver,
) -> (Rational, SolveStats) {
    let sol = build_color_number_atom_lp(q, var_fds).solve_with_solver(solver);
    assert!(
        sol.is_optimal(),
        "Proposition 6.10 LP is feasible and bounded"
    );
    (sol.objective, sol.stats)
}

/// Proposition 6.9: the Shannon-inequality upper bound `s(Q)` on the
/// worst-case size-increase exponent, for arbitrary FDs. Apply to
/// `chase(Q)` (the proposition assumes `Q = chase(Q)`).
pub fn entropy_upper_bound(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> Rational {
    entropy_upper_bound_with_stats(q, var_fds).0
}

/// As [`entropy_upper_bound`], also returning the solver's per-solve
/// stats (engine, pivots, refactorizations) for observability layers.
pub fn entropy_upper_bound_with_stats(
    q: &ConjunctiveQuery,
    var_fds: &[VarFd],
) -> (Rational, SolveStats) {
    let sol = build_closed_entropy_upper_lp(q, var_fds).solve();
    assert!(
        sol.is_optimal(),
        "Proposition 6.9 LP is feasible and bounded"
    );
    (sol.objective, sol.stats)
}

/// Proposition 6.10: the color number `C(Q)` as an entropy LP with
/// nonnegative I-measure atoms, for arbitrary FDs. Apply to `chase(Q)`.
///
/// Solved in I-measure coordinates (see the module docs): one
/// constraint per query atom and up to `2^k − 1` columns, typically
/// about three quarters of the matrix nonzero. That is too dense for `Solver::Auto`'s sparse
/// routing, so the program goes straight to the engine `Auto` uses for
/// large programs (`Solver::large_program`): the hybrid float/exact
/// simplex, or the exact revised simplex under `CQ_LP_ENGINE=exact`.
pub fn color_number_entropy_lp(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> Rational {
    color_number_entropy_lp_with_stats(q, var_fds).0
}

/// As [`color_number_entropy_lp`], also returning the solver's
/// per-solve stats.
pub fn color_number_entropy_lp_with_stats(
    q: &ConjunctiveQuery,
    var_fds: &[VarFd],
) -> (Rational, SolveStats) {
    solve_color_number_atom_lp(q, var_fds, Solver::large_program())
}

/// Proposition 6.9 strengthened with the **Zhang–Yeung non-Shannon
/// inequality** (extension; the paper's §8 "future work" direction).
///
/// ZY98, for any four random variables `A, B, C, D`:
///
/// ```text
/// 2·I(C;D) ≤ I(A;B) + I(A;C,D) + 3·I(C;D|A) + I(C;D|B)
/// ```
///
/// We instantiate it for every ordered pair `(A, B)` and unordered pair
/// `{C, D}` of distinct single query variables and add the resulting
/// linear constraints to the Proposition 6.9 LP. The optimum `s_ZY(Q)`
/// satisfies `C(Q) ≤ s_ZY(Q) ≤ s(Q)`; by Matúš (2007) *infinitely many*
/// further independent inequalities exist, so even this is not tight —
/// which is precisely the paper's closing observation.
pub fn entropy_upper_bound_zhang_yeung(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> Rational {
    let mut b = EntropyLpBuilder::new(q);
    b.add_query_structure(q, var_fds);
    // Shannon elemental inequalities (as in Proposition 6.9).
    b.add_elemental_inequalities();
    let k = b.k;
    // Zhang–Yeung instances over distinct single variables.
    // Expand each mutual-information term into joint entropies:
    //   I(X;Y)      = h(X) + h(Y) − h(XY)
    //   I(X;YZ)     = h(X) + h(YZ) − h(XYZ)
    //   I(X;Y|Z)    = h(XZ) + h(YZ) − h(Z) − h(XYZ)
    // Inequality (≥ 0 form):
    //   I(A;B) + I(A;CD) + 3I(C;D|A) + I(C;D|B) − 2I(C;D) ≥ 0
    for a in 0..k {
        for bb in 0..k {
            if bb == a {
                continue;
            }
            for c in 0..k {
                if c == a || c == bb {
                    continue;
                }
                for d in c + 1..k {
                    if d == a || d == bb {
                        continue;
                    }
                    let (ma, mb, mc, md) = (1u32 << a, 1u32 << bb, 1u32 << c, 1u32 << d);
                    let mut terms: Vec<(u32, i64)> = Vec::new();
                    // I(A;B)
                    terms.extend([(ma, 1), (mb, 1), (ma | mb, -1)]);
                    // I(A;CD)
                    terms.extend([(ma, 1), (mc | md, 1), (ma | mc | md, -1)]);
                    // 3 I(C;D|A)
                    terms.extend([(mc | ma, 3), (md | ma, 3), (ma, -3), (mc | md | ma, -3)]);
                    // I(C;D|B)
                    terms.extend([(mc | mb, 1), (md | mb, 1), (mb, -1), (mc | md | mb, -1)]);
                    // −2 I(C;D)
                    terms.extend([(mc, -2), (md, -2), (mc | md, 2)]);
                    b.constraint(&terms, LpRel::Ge, Rational::zero());
                }
            }
        }
    }
    let sol = b.lp.solve();
    assert!(
        sol.is_optimal(),
        "ZY-strengthened LP is feasible and bounded"
    );
    sol.objective
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase;
    use crate::coloring::color_number_lp;
    use crate::parser::{parse_program, parse_query};
    use crate::size_bounds::size_bound_simple_fds;
    use cq_lp::SolverKind;

    fn rat(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn prop_6_10_matches_prop_3_6_without_fds() {
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(X,Y,Z) :- R(X,Y), S(Y,Z)",
            "Q(X) :- R(X,Y), S(Y,Z)",
            "Q(X,Y) :- R(X), S(Y)",
            "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
        ] {
            let q = parse_query(text).unwrap();
            let lp36 = color_number_lp(&q).value;
            let lp610 = color_number_entropy_lp(&q, &[]);
            assert_eq!(lp36, lp610, "{text}");
        }
    }

    #[test]
    fn prop_6_10_matches_theorem_4_4_with_simple_keys() {
        for text in [
            "Q(X,Y,Z) :- S(X,Y), T(Y,Z)\nkey S[1]",
            "Q(X,Y,Z) :- S(X,Y), T(X,Z)\nkey S[1]",
            "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]",
        ] {
            let (q, fds) = parse_program(text).unwrap();
            let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
            let vfds = chased.query.variable_fds(&fds);
            let lp610 = color_number_entropy_lp(&chased.query, &vfds);
            assert_eq!(bound.exponent, lp610, "{text}");
        }
    }

    #[test]
    fn prop_6_9_upper_bounds_prop_6_10() {
        // s(Q) >= C(Q) always (the atom inequalities imply the Shannon
        // ones, so 6.10's feasible region is contained in 6.9's).
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(X,Y,Z) :- R(X,Y), S(Y,Z)",
        ] {
            let q = parse_query(text).unwrap();
            let upper = entropy_upper_bound(&q, &[]);
            let color = color_number_entropy_lp(&q, &[]);
            assert!(upper >= color, "{text}");
        }
    }

    #[test]
    fn prop_6_9_equals_agm_for_fd_free_join_queries() {
        // Without FDs, the Shannon bound collapses to the AGM bound
        // (submodularity is exactly what Shearer's lemma uses).
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        assert_eq!(entropy_upper_bound(&q, &[]), rat("3/2"));
    }

    #[test]
    fn simple_fd_entropy_bound() {
        // Q(X,Y,Z) :- S(X,Y), T(Y,Z), key S[1]: X->Y.
        // C = 2 and the Shannon bound agrees here.
        let (q, fds) = parse_program("Q(X,Y,Z) :- S(X,Y), T(Y,Z)\nkey S[1]").unwrap();
        let chased = chase(&q, &fds).query;
        let vfds = chased.variable_fds(&fds);
        assert_eq!(entropy_upper_bound(&chased, &vfds), rat("2"));
        assert_eq!(color_number_entropy_lp(&chased, &vfds), rat("2"));
    }

    #[test]
    fn fd_forcing_collapse() {
        // Q(X,Y) :- R(X), S(Y) with an (artificial) variable FD X -> Y:
        // h(XY) = h(X) <= 1, so both bounds drop from 2 to 1.
        let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        let vfd = vec![VarFd::new(vec![0], 1)];
        assert_eq!(entropy_upper_bound(&q, &[]), rat("2"));
        assert_eq!(entropy_upper_bound(&q, &vfd), rat("1"));
        assert_eq!(color_number_entropy_lp(&q, &vfd), rat("1"));
    }

    #[test]
    fn compound_fd_handled() {
        // R(X,Y,Z) with XY -> Z (trivially from one atom): C stays 1.
        let (q, fds) = parse_program("Q(X,Y,Z) :- R(X,Y,Z)\nR[1,2] -> R[3]").unwrap();
        let vfds = q.variable_fds(&fds);
        assert_eq!(color_number_entropy_lp(&q, &vfds), Rational::one());
        assert_eq!(entropy_upper_bound(&q, &vfds), Rational::one());
    }

    #[test]
    fn zhang_yeung_sandwich() {
        // C(Q) <= s_ZY(Q) <= s(Q) on queries with >= 4 variables.
        for text in [
            "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
            "Q(A,B,C,D) :- R(A,B,C), S(C,D)",
        ] {
            let q = parse_query(text).unwrap();
            let c = color_number_entropy_lp(&q, &[]);
            let zy = entropy_upper_bound_zhang_yeung(&q, &[]);
            let s = entropy_upper_bound(&q, &[]);
            assert!(c <= zy, "{text}: C > s_ZY");
            assert!(zy <= s, "{text}: s_ZY > s");
        }
    }

    #[test]
    fn zhang_yeung_with_fds() {
        // On a 4-variable query with compound FDs the ZY bound is still
        // sandwiched (and here everything collapses to 1).
        let (q, fds) = parse_program(
            "Q(A,B,C,D) :- R(A,B,C,D)
R[1,2] -> R[3]
R[1,2] -> R[4]",
        )
        .unwrap();
        let vfds = q.variable_fds(&fds);
        let zy = entropy_upper_bound_zhang_yeung(&q, &vfds);
        assert_eq!(zy, Rational::one());
    }

    /// The benchmark's cycle-fd program: the k-cycle plus `T(X0,X1,X2)` under
    /// the compound FD `T[1,2] -> T[3]`.
    fn cycle_fd(k: usize) -> String {
        let vars: Vec<String> = (0..k).map(|i| format!("X{i}")).collect();
        let mut body: Vec<String> = (0..k)
            .map(|i| format!("R{i}({},{})", vars[i], vars[(i + 1) % k]))
            .collect();
        body.push("T(X0,X1,X2)".into());
        format!(
            "Q({}) :- {}\nT[1,2] -> T[3]",
            vars.join(","),
            body.join(", ")
        )
    }

    /// Exact work counts of the Proposition 6.10 solve on chased cycle-fd
    /// k = 9, 10, 11 under the default large-program engine. The columns
    /// are `2^k − 1` minus the `2^{k−3}` atoms the FD deletes; the float
    /// pivot counts are deterministic (the `h`-coordinate program needed
    /// `2^k − 1` of them), so a change in either is a change in the
    /// program or in the simplex, never noise.
    #[test]
    fn prop_6_10_work_counts_on_cycle_fd() {
        let engine = cq_lp::auto_large_engine(None);
        for (k, cols, float_pivots) in [(9, 447, 7), (10, 895, 9), (11, 1791, 9)] {
            let (q, fds) = parse_program(&cycle_fd(k)).unwrap();
            let chased = chase(&q, &fds).query;
            let vfds = chased.variable_fds(&fds);
            let (value, stats) = solve_color_number_atom_lp(&chased, &vfds, engine);
            assert_eq!(value, Rational::int((k / 2) as i64), "k = {k}");
            assert_eq!(stats.solver, SolverKind::HybridFloat, "k = {k}");
            assert!(stats.float_verified, "k = {k}: {stats:?}");
            assert_eq!(stats.exact_fallbacks, 0, "k = {k}");
            assert_eq!(stats.rows, k + 1, "k = {k}");
            assert_eq!(stats.cols, cols, "k = {k}");
            assert_eq!(stats.float_pivots, float_pivots, "k = {k}");
        }
    }

    /// Without FDs every set is closed, so the closed program is the
    /// full one: same columns, and the same rows less the FD equalities
    /// there are none of.
    #[test]
    fn closed_program_without_fds_has_the_oracle_shape() {
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(X) :- R(X,Y), S(Y,Z)",
            "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
            "Q(A,B,C,D,E) :- R(A,B,C), S(C,D), T(D,E)",
        ] {
            let q = parse_query(text).unwrap();
            let closed = build_closed_entropy_upper_lp(&q, &[]);
            let full = build_entropy_upper_lp(&q, &[]);
            assert_eq!(closed.num_vars(), full.num_vars(), "{text}");
            assert_eq!(closed.num_constraints(), full.num_constraints(), "{text}");
        }
    }

    /// `cl(S)` by applying the FDs until nothing changes.
    fn naive_closure(mut s: u32, var_fds: &[VarFd]) -> u32 {
        loop {
            let mut grown = s;
            for fd in var_fds {
                if fd.lhs.iter().all(|&v| s >> v & 1 == 1) {
                    grown |= 1 << fd.rhs;
                }
            }
            if grown == s {
                return s;
            }
            s = grown;
        }
    }

    /// On programs whose closed sets are a strict sublattice — among them
    /// the two random programs on which the full program's devex walk
    /// took 7,402 and 17,371 float pivots, and an FD cycle `X ↔ Y` that
    /// gives two variables the same closure — the closed program has no
    /// empty and no duplicate row, and its columns are exactly the
    /// closed sets other than `cl(∅)`, each used by some row.
    #[test]
    fn closed_program_rows_are_distinct_and_columns_closed() {
        for text in [
            cycle_fd(6).as_str(),
            "Q(X,Y,Z) :- R(X,Y,Z), S2(X,Z)\nR[1,2] -> R[3]",
            "Q(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W)\nR[1] -> R[2]\nR[2] -> R[1]",
            "Q(V3,V2,V7,V0,V6,V1,V4,V5) :- A0(V4,V3,V1), A1(V4,V1), A2(V7,V4,V2), \
             A3(V1,V6,V0), A4(V6,V5), A5(V7,V1,V3), A6(V7,V0)\n\
             A2[1,2] -> A2[3]\nA3[1,2] -> A3[3]\nA4[1] -> A4[2]",
            "Q(V5,V4,V0) :- A0(V6,V5,V1), A1(V7,V4,V5), A2(V1,V7,V5), A3(V1,V7), \
             A4(V3,V7,V2), A5(V6,V1,V4), A6(V3,V0)\n\
             A0[1,2] -> A0[3]\nA1[1,2] -> A1[3]\nA2[1] -> A2[2]\nA3[1] -> A3[2]\n\
             A5[1] -> A5[2]\nA6[1] -> A6[2]",
        ] {
            let (q, fds) = parse_program(text).unwrap();
            let chased = chase(&q, &fds).query;
            let vfds = chased.variable_fds(&fds);
            let k = chased.num_vars();
            let closure = closure_table(k, &vfds);
            for s in 0..1u32 << k {
                assert_eq!(closure[s as usize], naive_closure(s, &vfds), "{text}");
            }
            let lp = build_closed_entropy_upper_lp(&chased, &vfds);
            let closed = (1..1u32 << k)
                .filter(|&s| naive_closure(s, &vfds) == s)
                .count();
            assert_eq!(lp.num_vars(), closed, "{text}");
            assert!(closed < (1 << k) - 1, "{text}: no FD shrinks the lattice");

            let mut rows = std::collections::HashSet::new();
            let mut used = std::collections::HashSet::new();
            for row in lp.constraints() {
                let key = row_key(&lp, &row.coeffs, row.rel, &row.rhs, Some);
                assert!(!key.0.is_empty(), "{text}: empty row");
                assert!(rows.insert(key), "{text}: duplicate row {row:?}");
                used.extend(row.coeffs.iter().map(|&(v, _)| v));
            }
            assert_eq!(used.len(), closed, "{text}: a column no row uses");
            for v in used {
                let mask = u32::from_str_radix(&lp.var_name(v)[1..], 2).unwrap();
                assert_eq!(naive_closure(mask, &vfds), mask, "{text}: column h{mask:b}");
            }

            // The rows are exactly the distinct images under h(S) =
            // h(cl(S)) of the full program's rows, less those that become
            // empty or only restate some h(C) >= 0.
            let full = build_entropy_upper_lp(&chased, &vfds);
            let zero = naive_closure(0, &vfds);
            let images: std::collections::HashSet<_> = full
                .constraints()
                .iter()
                .map(|row| {
                    row_key(&full, &row.coeffs, row.rel, &row.rhs, |s| {
                        Some(naive_closure(s, &vfds)).filter(|&c| c != zero)
                    })
                })
                .filter(|(terms, rel, rhs)| {
                    let bound = terms.len() == 1 && terms[0].1 == "1" && rel == ">=" && rhs == "0";
                    !terms.is_empty() && !bound
                })
                .collect();
            assert!(rows == images, "{text}: rows are not the closed images");
        }
    }

    /// A row as its `(set, coefficient)` terms, relation and right-hand
    /// side, with each term's set (read from its `h…` column name) sent
    /// through `map`: terms on the same set are summed, zero sums and
    /// unmapped sets dropped.
    fn row_key(
        lp: &LinearProgram,
        coeffs: &[(VarId, Rational)],
        rel: LpRel,
        rhs: &Rational,
        map: impl Fn(u32) -> Option<u32>,
    ) -> (Vec<(u32, String)>, String, String) {
        let mut terms = std::collections::BTreeMap::<u32, Rational>::new();
        for (v, c) in coeffs {
            let mask = u32::from_str_radix(&lp.var_name(*v)[1..], 2).unwrap();
            if let Some(set) = map(mask) {
                *terms.entry(set).or_insert_with(Rational::zero) += c;
            }
        }
        let terms = terms
            .into_iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(set, c)| (set, c.to_string()))
            .collect();
        (terms, rel.to_string(), rhs.to_string())
    }

    #[test]
    #[should_panic]
    fn cap_enforced() {
        use crate::query::QueryBuilder;
        let mut b = QueryBuilder::new();
        let names: Vec<String> = (0..22).map(|i| format!("V{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        b.head(&name_refs);
        b.atom("R", &name_refs);
        let q = b.build();
        let _ = color_number_entropy_lp(&q, &[]);
    }
}
