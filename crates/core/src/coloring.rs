//! Colorings and the color number (Definitions 3.1 and 3.2).
//!
//! A valid coloring assigns each query variable a set of colors such that
//! every variable-level FD `X1..Xk → Y` satisfies `L(Y) ⊆ ∪ L(Xi)`, and at
//! least one variable is colored. The color number of a coloring is
//!
//! ```text
//!        |∪_{X ∈ u0} L(X)|
//!   --------------------------- ,
//!   max_{j≥1} |∪_{X ∈ uj} L(X)|
//! ```
//!
//! and `C(Q)` is the maximum over valid colorings. For queries without
//! FDs, `C(Q)` is computed exactly by the linear program of Proposition
//! 3.6 ([`color_number_lp`]), and the LP solution is *rounded back* into
//! an integral certificate coloring (the paper's remark after Prop 3.6:
//! any rational solution `p/q` yields a coloring with `p` head colors and
//! at most `q` colors per atom). Definition 3.5's minimal fractional edge
//! cover and the §3.1 duality are also here.
//!
//! ```
//! use cq_core::{color_number_lp, parse_query};
//!
//! // Example 3.3: the triangle query has color number 3/2.
//! let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
//! let cn = color_number_lp(&q);
//! assert_eq!(cn.value.to_string(), "3/2");
//! // The LP certificate rounds back to a valid integral coloring whose
//! // Definition 3.2 ratio attains that optimum exactly.
//! cn.coloring.validate(&[]).unwrap();
//! assert_eq!(cn.coloring.color_number(&q), Some(cn.value.clone()));
//! ```

use crate::query::{ConjunctiveQuery, VarFd, VarIdx};
use cq_arith::{BigInt, Rational};
use cq_lp::{LinearProgram, Relation as LpRel, SolveStats};
use cq_util::BitSet;

/// A coloring: one color set per query variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    labels: Vec<BitSet>,
}

impl Coloring {
    /// The empty coloring over `n` variables (not valid until a color is
    /// assigned somewhere).
    pub fn empty(num_vars: usize) -> Self {
        Coloring {
            labels: vec![BitSet::new(); num_vars],
        }
    }

    /// Builds a coloring from per-variable color lists.
    pub fn from_labels(labels: Vec<BitSet>) -> Self {
        Coloring { labels }
    }

    /// The label of variable `v`.
    pub fn label(&self, v: VarIdx) -> &BitSet {
        &self.labels[v]
    }

    /// Mutable label access.
    pub fn label_mut(&mut self, v: VarIdx) -> &mut BitSet {
        &mut self.labels[v]
    }

    /// Number of variables covered.
    pub fn num_vars(&self) -> usize {
        self.labels.len()
    }

    /// Union of labels over a set of variables.
    pub fn union_over<I: IntoIterator<Item = VarIdx>>(&self, vars: I) -> BitSet {
        let mut s = BitSet::new();
        for v in vars {
            s.union_with(&self.labels[v]);
        }
        s
    }

    /// Checks Definition 3.1 validity against variable-level FDs.
    pub fn validate(&self, var_fds: &[VarFd]) -> Result<(), String> {
        if self.labels.iter().all(BitSet::is_empty) {
            return Err("no variable is colored".into());
        }
        for fd in var_fds {
            let lhs_union = self.union_over(fd.lhs.iter().copied());
            if !self.labels[fd.rhs].is_subset(&lhs_union) {
                return Err(format!(
                    "FD {:?} -> {} violated: L(rhs) ⊄ ∪L(lhs)",
                    fd.lhs, fd.rhs
                ));
            }
        }
        Ok(())
    }

    /// The color number of this coloring for `q` (Definition 3.2):
    /// `None` when no body atom sees any color (ratio undefined).
    pub fn color_number(&self, q: &ConjunctiveQuery) -> Option<Rational> {
        let numerator = self.union_over(q.head().iter().copied()).len();
        let denominator = q
            .body()
            .iter()
            .map(|a| self.union_over(a.vars.iter().copied()).len())
            .max()
            .unwrap_or(0);
        if denominator == 0 {
            return None;
        }
        Some(Rational::new(
            BigInt::from(numerator),
            BigInt::from(denominator),
        ))
    }
}

/// Result of the Proposition 3.6 LP: the exact color number and an
/// integral certificate coloring achieving it.
#[derive(Clone, Debug)]
pub struct ColorNumber {
    /// `C(Q)` as an exact rational.
    pub value: Rational,
    /// A valid coloring whose color number equals `value`.
    pub coloring: Coloring,
    /// The per-variable LP weights `x_i`.
    pub weights: Vec<Rational>,
    /// Solver observability for the LP solve that produced this value
    /// (zeroed when the value was served from a cache — no solve ran).
    pub lp_stats: SolveStats,
}

/// Computes `C(Q)` for a query **without functional dependencies** via
/// the LP of Proposition 3.6, and rounds the rational optimum into an
/// integral certificate coloring.
///
/// ```
/// use cq_core::{color_number_lp, parse_query};
/// // Example 3.3: the triangle query has color number exactly 3/2.
/// let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
/// let cn = color_number_lp(&q);
/// assert_eq!(cn.value.to_string(), "3/2");
/// cn.coloring.validate(&[]).unwrap();
/// ```
pub fn color_number_lp(q: &ConjunctiveQuery) -> ColorNumber {
    let mut lp = LinearProgram::maximize();
    let vars: Vec<_> = (0..q.num_vars())
        .map(|v| lp.add_var(q.var_name(v).to_owned()))
        .collect();
    for v in q.head_var_set().iter() {
        lp.set_objective_coeff(vars[v], Rational::one());
    }
    for atom in q.body() {
        let coeffs: Vec<_> = atom
            .var_set()
            .iter()
            .map(|v| (vars[v], Rational::one()))
            .collect();
        lp.add_constraint(coeffs, LpRel::Le, Rational::one());
    }
    let sol = lp.solve();
    assert!(
        sol.is_optimal(),
        "color-number LP is always feasible/bounded"
    );
    let weights: Vec<Rational> = sol.values.clone();
    let coloring = coloring_from_weights(&weights);
    let cn = ColorNumber {
        value: sol.objective,
        coloring,
        weights,
        lp_stats: sol.stats,
    };
    debug_assert_eq!(
        cn.coloring.color_number(q).as_ref(),
        Some(&cn.value),
        "certificate coloring must achieve the LP optimum"
    );
    cn
}

/// Turns rational per-variable weights into an integral coloring: with
/// common denominator `q`, variable `i` receives `x_i·q` fresh colors.
pub fn coloring_from_weights(weights: &[Rational]) -> Coloring {
    let mut denom = BigInt::one();
    for w in weights {
        let d = w.denom();
        let g = denom.gcd(&d);
        denom = &(&denom * &d) / &g;
    }
    let mut next_color = 0usize;
    let labels = weights
        .iter()
        .map(|w| {
            let count_big = (w * &Rational::from(denom.clone())).numer();
            let count = count_big
                .to_u64()
                .expect("color counts fit in u64 for the paper's LPs")
                as usize;
            let set = BitSet::from_iter(next_color..next_color + count);
            next_color += count;
            set
        })
        .collect();
    Coloring { labels }
}

/// Definition 3.5: the minimal fractional edge cover number `ρ*(Q)` of
/// the query hypergraph (covering **all** variables). Returns the optimum
/// and the per-atom weights `y_j`.
pub fn fractional_edge_cover(q: &ConjunctiveQuery) -> (Rational, Vec<Rational>) {
    fractional_cover_of(q, &q.used_vars())
}

/// The §3.1 dual: minimal fractional edge cover of the **head** variables
/// only (all atoms usable). Equals `C(Q)` for FD-free queries by LP
/// duality.
pub fn fractional_edge_cover_head(q: &ConjunctiveQuery) -> (Rational, Vec<Rational>) {
    fractional_cover_of(q, &q.head_var_set())
}

fn fractional_cover_of(q: &ConjunctiveQuery, cover: &BitSet) -> (Rational, Vec<Rational>) {
    let costs = vec![Rational::one(); q.num_atoms()];
    fractional_cover_weighted(q, cover, &costs)
}

/// Weighted fractional edge cover: minimizes `Σ cost_j · y_j` subject to
/// covering every variable in `cover`. With `cost_j = ln |R_j(D)|` this
/// minimizes the product-form AGM bound `Π |R_j|^{y_j}` (any feasible
/// cover yields a *valid* bound, so rational cost approximations are
/// sound).
pub fn fractional_cover_weighted(
    q: &ConjunctiveQuery,
    cover: &BitSet,
    costs: &[Rational],
) -> (Rational, Vec<Rational>) {
    assert_eq!(costs.len(), q.num_atoms());
    let mut lp = LinearProgram::minimize();
    let ys: Vec<_> = (0..q.num_atoms())
        .map(|j| {
            let y = lp.add_var(format!("y{j}"));
            lp.set_objective_coeff(y, costs[j].clone());
            y
        })
        .collect();
    for x in cover.iter() {
        let coeffs: Vec<_> = q
            .body()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.vars.contains(&x))
            .map(|(j, _)| (ys[j], Rational::one()))
            .collect();
        lp.add_constraint(coeffs, LpRel::Ge, Rational::one());
    }
    let sol = lp.solve();
    assert!(
        sol.is_optimal(),
        "edge cover LP infeasible: some covered variable appears in no atom"
    );
    (sol.objective, sol.values)
}

/// Exhaustive search for a valid coloring with colors ⊆ {0, 1} achieving
/// color number exactly 2 (i.e. both colors in the head, at most one
/// color visible per body atom). This is the certificate notion of
/// Propositions 5.9 / Theorem 5.10 / Proposition 7.3. Exponential in
/// `|var(Q)|` — intended for validation on small queries (deciding this
/// is NP-complete with compound FDs, Proposition 7.3).
pub fn find_two_coloring_brute_force(q: &ConjunctiveQuery, var_fds: &[VarFd]) -> Option<Coloring> {
    let n = q.num_vars();
    assert!(
        n <= 16,
        "brute-force 2-coloring search capped at 16 variables"
    );
    // each variable takes one of 4 labels: {}, {0}, {1}, {0,1}
    let mut assignment = vec![0u8; n];
    loop {
        let coloring = Coloring::from_labels(
            assignment
                .iter()
                .map(|&a| {
                    let mut s = BitSet::new();
                    if a & 1 != 0 {
                        s.insert(0);
                    }
                    if a & 2 != 0 {
                        s.insert(1);
                    }
                    s
                })
                .collect(),
        );
        if coloring.validate(var_fds).is_ok() && coloring.color_number(q) == Some(Rational::int(2))
        {
            return Some(coloring);
        }
        // increment base-4 counter
        let mut i = 0;
        loop {
            if i == n {
                return None;
            }
            assignment[i] += 1;
            if assignment[i] < 4 {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};

    fn rat(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn triangle_color_number_is_three_halves() {
        // Example 3.3.
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let cn = color_number_lp(&q);
        assert_eq!(cn.value, rat("3/2"));
        cn.coloring.validate(&[]).unwrap();
        assert_eq!(cn.coloring.color_number(&q), Some(rat("3/2")));
    }

    #[test]
    fn star_join_color_number() {
        // Example 2.1: R'(X,Y,Z) <- R(X,Y), R(X,Z): C = 2 (color Y and Z).
        let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        let cn = color_number_lp(&q);
        assert_eq!(cn.value, rat("2"));
    }

    #[test]
    fn projection_drops_head_colors() {
        // Q(X) <- R(X,Y), S(Y,Z): only X counts in the numerator: C = 1.
        let q = parse_query("Q(X) :- R(X,Y), S(Y,Z)").unwrap();
        assert_eq!(color_number_lp(&q).value, rat("1"));
    }

    #[test]
    fn single_atom_color_number_one() {
        let q = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        assert_eq!(color_number_lp(&q).value, rat("1"));
    }

    #[test]
    fn cartesian_product_color_number() {
        let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        assert_eq!(color_number_lp(&q).value, rat("2"));
    }

    #[test]
    fn validity_checks_fds() {
        let q = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        let fd = VarFd::new(vec![0], 1); // X -> Y
        let mut c = Coloring::empty(q.num_vars());
        c.label_mut(1).insert(0); // color Y only: violates X -> Y
        assert!(c.validate(std::slice::from_ref(&fd)).is_err());
        c.label_mut(0).insert(0); // color X too: now L(Y) ⊆ L(X)
        assert!(c.validate(&[fd]).is_ok());
        assert!(Coloring::empty(2).validate(&[]).is_err()); // all-empty
    }

    #[test]
    fn example_3_4_coloring() {
        // L(W)={1}, L(X)=L(Y)=∅, L(Z)={2} on the un-chased query: C = 2.
        let (q, fds) =
            parse_program("R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z)\nkey R1[1]").unwrap();
        let vfds = q.variable_fds(&fds);
        let mut c = Coloring::empty(4);
        c.label_mut(0).insert(0); // W
        c.label_mut(3).insert(1); // Z
        c.validate(&vfds).unwrap();
        assert_eq!(c.color_number(&q), Some(rat("2")));
    }

    #[test]
    fn edge_cover_duality_for_join_queries() {
        // §3.1: for FD-free queries, C(Q) equals the minimal fractional
        // edge cover of the head variables.
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(X,Y,Z,W) :- R(X,Y), S(Y,Z), T(Z,W)",
            "Q(X,Y) :- R(X,Y), S(Y)",
            "Q(A,B,C,D) :- R(A,B,C), S(C,D), T(D,A)",
        ] {
            let q = parse_query(text).unwrap();
            let cn = color_number_lp(&q);
            let (cover, _) = fractional_edge_cover_head(&q);
            assert_eq!(cn.value, cover, "duality failed for {text}");
        }
    }

    #[test]
    fn full_cover_vs_head_cover() {
        // Covering all variables can cost more than covering the head.
        let q = parse_query("Q(X) :- R(X), S(Y)").unwrap();
        let (full, _) = fractional_edge_cover(&q);
        let (head, _) = fractional_edge_cover_head(&q);
        assert_eq!(full, rat("2"));
        assert_eq!(head, rat("1"));
    }

    #[test]
    fn agm_cycle_cover() {
        // 4-cycle join query: ρ* = 2.
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)").unwrap();
        let (cover, ys) = fractional_edge_cover(&q);
        assert_eq!(cover, rat("2"));
        // weights certify the cover
        let total: Rational = ys.iter().fold(Rational::zero(), |a, b| &a + b);
        assert_eq!(total, rat("2"));
    }

    #[test]
    fn coloring_from_weights_rounding() {
        let w = vec![rat("1/2"), rat("1/2"), rat("1/3")];
        let c = coloring_from_weights(&w);
        // common denominator 6: 3, 3, 2 colors
        assert_eq!(c.label(0).len(), 3);
        assert_eq!(c.label(1).len(), 3);
        assert_eq!(c.label(2).len(), 2);
        // all disjoint
        assert!(c.label(0).is_disjoint(c.label(1)));
        assert!(c.label(1).is_disjoint(c.label(2)));
    }

    #[test]
    fn brute_force_two_coloring() {
        // Q(X,Y) <- R(X), S(Y): X,Y never co-occur, 2-coloring exists.
        let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        let c = find_two_coloring_brute_force(&q, &[]).unwrap();
        assert_eq!(c.color_number(&q), Some(rat("2")));
        // Triangle: all pairs co-occur, no such coloring.
        let t = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        assert!(find_two_coloring_brute_force(&t, &[]).is_none());
    }
}
