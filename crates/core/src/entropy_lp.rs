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
//! Proposition 6.9 keeps one LP variable per `h(S)`, `2^k − 1` in all,
//! under `k(k−1)·2^{k−3}` sparse elemental inequalities (each touches at
//! most 4 variables), so `cq_lp` routes it to its sparse engines
//! automatically (see `docs/SOLVER.md`). Proposition 6.10 is solved in
//! **I-measure coordinates** instead: its variables are the atoms
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
use cq_util::{mask_from, popcount, subsets_of};

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
    let sol = build_entropy_upper_lp(q, var_fds).solve();
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
