//! The paper's size bounds, end to end.
//!
//! - [`size_bound_no_fds`] — Proposition 4.1: `|Q(D)| ≤ rmax(D)^{C(Q)}`
//!   for queries without dependencies; tight up to `rep(Q)`.
//! - [`size_bound_simple_fds`] — Theorem 4.4:
//!   `|Q(D)| ≤ rmax(D)^{C(chase(Q))}` under simple FDs/keys; computed by
//!   chasing, removing dependencies (Theorem 4.4's procedure), solving
//!   the Proposition 3.6 LP, and pulling the certificate coloring back
//!   through Lemma 4.7.
//! - [`agm_bound`] — the Atserias–Grohe–Marx bound `rmax^{ρ*(Q)}` for
//!   join queries (Proposition 4.3), which coincides with `C(Q)` by the
//!   §3.1 duality.
//! - [`check_size_bound`] — exact verification of `|Q(D)| ≤ rmax^{p/q}`
//!   on a concrete database via the integer comparison
//!   `|Q(D)|^q ≤ rmax^p` (no floating point).
//! - [`corollary_4_2_witness`] — Corollary 4.2's structural consequence.
//!
//! ```
//! use cq_core::{check_size_bound, parse_program, size_bound_simple_fds,
//!               worst_case_database};
//!
//! // Theorem 4.4 end to end on a keyed self-join: chase, FD removal,
//! // coloring LP, pulled-back certificate.
//! let (q, fds) = parse_program("R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]").unwrap();
//! let (bound, chased, _trace) = size_bound_simple_fds(&q, &fds);
//! assert_eq!(bound.exponent.to_string(), "1"); // |Q(D)| <= rmax(D)^1
//!
//! // ... and the bound is tight: the Proposition 4.5 worst-case database
//! // built from the certificate coloring attains it (up to rep(Q)).
//! let db = worst_case_database(&chased.query, &bound.coloring, 5);
//! let check = check_size_bound(&chased.query, &db, &bound.exponent);
//! assert!(check.holds);
//! assert_eq!(check.measured, 5); // M^1 outputs
//! ```

use crate::chase::{chase, ChaseResult};
use crate::coloring::{color_number_lp, Coloring};
use crate::fd_removal::{pull_back_coloring, remove_simple_fds, RemovalTrace};
use crate::query::{ConjunctiveQuery, VarFd};
use cq_arith::{BigInt, Rational};
use cq_relation::{Database, FdSet};

/// A size bound `|Q(D)| ≤ rmax(D)^exponent` with its certificate.
#[derive(Clone, Debug)]
pub struct SizeBound {
    /// The exponent (`C(Q)` or `C(chase(Q))`), exact.
    pub exponent: Rational,
    /// A valid coloring achieving the exponent (tightness certificate,
    /// consumable by [`crate::constructions::worst_case_database`]).
    pub coloring: Coloring,
    /// The query the coloring refers to (`chase(Q)` in the keyed case).
    pub query: ConjunctiveQuery,
    /// `rep(Q)` — the slack factor in the tightness statement.
    pub rep: usize,
}

/// Proposition 4.1: the size bound for queries without dependencies.
pub fn size_bound_no_fds(q: &ConjunctiveQuery) -> SizeBound {
    let cn = color_number_lp(q);
    SizeBound {
        exponent: cn.value,
        coloring: cn.coloring,
        query: q.clone(),
        rep: q.rep(),
    }
}

/// Theorem 4.4: the size bound under simple dependencies. Returns the
/// bound plus the chase result and removal trace (consumed by the
/// treewidth pipeline of Theorem 5.10 and by the experiments).
///
/// # Panics
/// Panics if the dependency set induces compound variable-level
/// dependencies (use the §6 entropy bound instead).
pub fn size_bound_simple_fds(
    q: &ConjunctiveQuery,
    fds: &FdSet,
) -> (SizeBound, ChaseResult, RemovalTrace) {
    let chased = chase(q, fds);
    let vfds: Vec<VarFd> = chased.query.variable_fds(fds);
    let trace = remove_simple_fds(&chased.query, &vfds);
    let cn = color_number_lp(trace.result());
    let coloring = pull_back_coloring(&trace, &cn.coloring);
    coloring
        .validate(&vfds)
        .expect("Lemma 4.7 pull-back yields a valid coloring");
    debug_assert_eq!(
        coloring.color_number(&chased.query).as_ref(),
        Some(&cn.value),
        "Lemma 4.7: color number preserved by the removal procedure"
    );
    let bound = SizeBound {
        exponent: cn.value,
        coloring,
        query: chased.query.clone(),
        rep: chased.query.rep(),
    };
    (bound, chased, trace)
}

/// Proposition 4.3 (Atserias–Grohe–Marx): `ρ*(Q)` for a join query.
///
/// # Panics
/// Panics if some variable is missing from the head (the AGM bound is
/// stated for total join queries).
pub fn agm_bound(q: &ConjunctiveQuery) -> Rational {
    assert!(
        q.is_join_query(),
        "the AGM bound applies to join queries (all variables in the head)"
    );
    crate::coloring::fractional_edge_cover(q).0
}

/// Outcome of checking a bound on a concrete database.
#[derive(Clone, Debug)]
pub struct BoundCheck {
    /// `|Q(D)|`, counted.
    pub measured: usize,
    /// `rmax(D)` over the query's relations.
    pub rmax: usize,
    /// The exponent used.
    pub exponent: Rational,
    /// `true` iff `measured ≤ rmax^exponent` (exact integer arithmetic).
    pub holds: bool,
    /// `rmax^exponent` as a float, for reporting.
    pub bound_approx: f64,
}

/// Exactly checks `|Q(D)| ≤ rmax(D)^{p/q}` by comparing
/// `|Q(D)|^q ≤ rmax^p` in big-integer arithmetic.
pub fn check_size_bound(q: &ConjunctiveQuery, db: &Database, exponent: &Rational) -> BoundCheck {
    let measured = crate::eval::count_answers(q, db);
    let names: Vec<&str> = q.relation_names();
    let rmax = db.rmax(&names);
    BoundCheck {
        measured,
        rmax,
        exponent: exponent.clone(),
        holds: pow_le(measured, rmax, exponent),
        bound_approx: (rmax as f64).powf(exponent.to_f64()),
    }
}

/// `true` iff `lhs ≤ base^{p/q}` exactly (`lhs^q ≤ base^p`).
pub fn pow_le(lhs: usize, base: usize, exponent: &Rational) -> bool {
    assert!(
        !exponent.is_negative(),
        "size-bound exponents are nonnegative"
    );
    let p = exponent
        .numer()
        .to_u64()
        .expect("exponent numerator fits in u64") as u32;
    let q = exponent
        .denom()
        .to_u64()
        .expect("exponent denominator fits in u64") as u32;
    BigInt::from(lhs).pow(q) <= BigInt::from(base).pow(p)
}

/// Corollary 4.2: if `C(Q) ≤ 1` for an FD-free query, some body atom
/// contains all head variables; returns such an atom's index.
pub fn corollary_4_2_witness(q: &ConjunctiveQuery) -> Option<usize> {
    let head = q.head_var_set();
    q.body().iter().position(|a| head.is_subset(&a.var_set()))
}

/// The product-form AGM bound (extension): for an FD-free query with a
/// fractional edge cover `y` of its head variables,
/// `|Q(D)| ≤ Π_j |R_{ij}(D)|^{y_j}` — sharper than `rmax^{ρ*}` when the
/// relations have different sizes. Returns the per-atom cover weights,
/// the bound as `f64`, and whether it holds **exactly** on `db`
/// (integer comparison `|Q|^L ≤ Π |R_j|^{y_j·L}` with `L` the common
/// denominator).
pub fn agm_product_bound(q: &ConjunctiveQuery, db: &Database) -> ProductBound {
    agm_product_bound_measured(q, db, crate::eval::count_answers(q, db))
}

/// As [`agm_product_bound`] with an already-counted `|Q(D)|`, so a
/// caller that has counted the answers (the engine's data checks)
/// doesn't count them twice.
pub fn agm_product_bound_measured(
    q: &ConjunctiveQuery,
    db: &Database,
    measured: usize,
) -> ProductBound {
    let (_, weights) = crate::coloring::fractional_edge_cover_head(q);
    product_bound_with_weights(q, db, weights, measured)
}

/// As [`agm_product_bound_measured`] with an externally-supplied
/// fractional cover of the head variables (one weight per body atom).
/// Any *feasible* cover yields a valid bound, so callers holding a
/// cached cover — e.g. the engine's cross-query LP cache translating a
/// solution from an isomorphic query — can skip the cover LP entirely.
pub fn agm_product_bound_with_cover(
    q: &ConjunctiveQuery,
    db: &Database,
    weights: Vec<Rational>,
    measured: usize,
) -> ProductBound {
    assert_eq!(weights.len(), q.num_atoms(), "one cover weight per atom");
    product_bound_with_weights(q, db, weights, measured)
}

/// As [`agm_product_bound`], but choosing the fractional cover that
/// *minimizes the product bound itself*: the cover LP objective is
/// `Σ y_j · ln|R_j(D)|` (rational-approximated; any feasible cover gives
/// a valid bound, so the approximation is sound). This is the
/// optimizer-grade cardinality bound.
pub fn agm_product_bound_optimized(q: &ConjunctiveQuery, db: &Database) -> ProductBound {
    // cost_j ~ ln(|R_j|), scaled to a rational with denominator 1000;
    // empty relations make the output empty (cost irrelevant).
    let costs: Vec<Rational> = q
        .body()
        .iter()
        .map(|a| {
            let size = db
                .relation(&a.relation)
                .map_or(0, cq_relation::Relation::len);
            let ln = if size > 1 { (size as f64).ln() } else { 0.0 };
            Rational::ratio((ln * 1000.0).round() as i64, 1000)
        })
        .collect();
    let (_, weights) = crate::coloring::fractional_cover_weighted(q, &q.head_var_set(), &costs);
    let measured = crate::eval::count_answers(q, db);
    product_bound_with_weights(q, db, weights, measured)
}

fn product_bound_with_weights(
    q: &ConjunctiveQuery,
    db: &Database,
    weights: Vec<Rational>,
    measured: usize,
) -> ProductBound {
    // common denominator L
    let mut l = BigInt::one();
    for w in &weights {
        let d = w.denom();
        let g = l.gcd(&d);
        l = &(&l * &d) / &g;
    }
    let l_u32 = l.to_u64().expect("cover denominators are small") as u32;
    let mut rhs = BigInt::one();
    let mut bound_log = 0f64;
    for (j, w) in weights.iter().enumerate() {
        let size = db
            .relation(&q.body()[j].relation)
            .map_or(0, cq_relation::Relation::len);
        let exp_l = (w * &Rational::from(l.clone()))
            .numer()
            .to_u64()
            .expect("weight * L is a small integer") as u32;
        rhs = &rhs * &BigInt::from(size).pow(exp_l);
        if size > 0 {
            bound_log += w.to_f64() * (size as f64).ln();
        }
    }
    let holds = BigInt::from(measured).pow(l_u32) <= rhs;
    ProductBound {
        weights,
        measured,
        bound_approx: bound_log.exp(),
        holds,
    }
}

/// Result of [`agm_product_bound`].
#[derive(Clone, Debug)]
pub struct ProductBound {
    /// Fractional edge-cover weights per body atom.
    pub weights: Vec<Rational>,
    /// `|Q(D)|`.
    pub measured: usize,
    /// `Π |R_j|^{y_j}`, approximately.
    pub bound_approx: f64,
    /// Exact verdict of `measured ≤ Π |R_j|^{y_j}`.
    pub holds: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::worst_case_database;
    use crate::parser::{parse_program, parse_query};

    fn rat(s: &str) -> Rational {
        s.parse().unwrap()
    }

    #[test]
    fn proposition_4_1_triangle() {
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let bound = size_bound_no_fds(&q);
        assert_eq!(bound.exponent, rat("3/2"));
        assert_eq!(bound.rep, 3);
        // upper bound holds on the tight construction
        let db = worst_case_database(&q, &bound.coloring, 4);
        let check = check_size_bound(&q, &db, &bound.exponent);
        assert!(check.holds);
        // and the construction is tight up to rep(Q): measured = (rmax/rep)^C
        assert_eq!(check.measured, 64); // 4^3
        assert_eq!(check.rmax, 48); // 3 * 4^2
        assert!(pow_le(check.measured, check.rmax / bound.rep, &rat("3/2")));
    }

    #[test]
    fn agm_bound_equals_color_number_for_join_queries() {
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D)",
            "Q(X,Y) :- R(X,Y)",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(agm_bound(&q), size_bound_no_fds(&q).exponent, "{text}");
        }
    }

    #[test]
    #[should_panic]
    fn agm_rejects_projections() {
        let q = parse_query("Q(X) :- R(X,Y)").unwrap();
        let _ = agm_bound(&q);
    }

    #[test]
    fn theorem_4_4_chased_key_collapse() {
        // Example 3.4: C(Q) = 2 without the chase, but C(chase(Q)) = 1.
        let (q, fds) =
            parse_program("R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z)\nkey R1[1]").unwrap();
        let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
        assert_eq!(bound.exponent, Rational::one());
        assert_eq!(chased.query.num_atoms(), 2);
        // ignoring the keys would give C(Q) = 2
        let naive = size_bound_no_fds(&q);
        assert_eq!(naive.exponent, rat("2"));
    }

    #[test]
    fn theorem_4_4_key_reduces_star() {
        // Example 2.1's query with a key: R'(X,Y,Z) <- R(X,Y), R(X,Z),
        // key R[1]. Chase unifies Y and Z: C drops from 2 to 1.
        let (q, fds) = parse_program("R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]").unwrap();
        let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
        assert_eq!(chased.query.to_string(), "Q(X,Y,Y) :- R(X,Y)");
        assert_eq!(bound.exponent, Rational::one());
    }

    #[test]
    fn theorem_4_4_no_fds_degenerates_to_prop_4_1() {
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let (bound, _, _) = size_bound_simple_fds(&q, &FdSet::new());
        assert_eq!(bound.exponent, rat("3/2"));
    }

    #[test]
    fn tightness_with_keys() {
        // Q(X,Y,Z) <- S(X,Y), T(Y,Z) with key S[1]: X determines Y;
        // C(chase(Q)) = 2 (color X and Z; Y inherits X's color? no --
        // validity needs L(Y) ⊆ L(X); color X&Y jointly 1, Z 1 => atoms
        // S: 1, T: 2 -> ratio 1; or L(X)=1,L(Z)=1,L(Y)=0: atoms S:1, T:1,
        // head: 2 -> C=2).
        let (q, fds) = parse_program("Q(X,Y,Z) :- S(X,Y), T(Y,Z)\nkey S[1]").unwrap();
        let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
        assert_eq!(bound.exponent, rat("2"));
        // construction achieves M^2 with rmax = M
        let db = worst_case_database(&chased.query, &bound.coloring, 5);
        assert!(db.satisfies(&fds));
        let check = check_size_bound(&chased.query, &db, &bound.exponent);
        assert!(check.holds);
        assert_eq!(check.measured, 25);
        assert_eq!(check.rmax, 5);
    }

    #[test]
    fn pow_le_exactness() {
        // 8 <= 4^{3/2} = 8: equality holds
        assert!(pow_le(8, 4, &rat("3/2")));
        // 9 <= 4^{3/2} is false
        assert!(!pow_le(9, 4, &rat("3/2")));
        // huge exact case: 2^30 <= (2^20)^{3/2}
        assert!(pow_le(1 << 30, 1 << 20, &rat("3/2")));
        assert!(!pow_le((1 << 30) + 1, 1 << 20, &rat("3/2")));
    }

    #[test]
    fn corollary_4_2() {
        // C = 1 query: head covered by an atom.
        let q = parse_query("Q(X,Y) :- R(X,Y,Z), S(Z)").unwrap();
        assert_eq!(size_bound_no_fds(&q).exponent, Rational::one());
        assert_eq!(corollary_4_2_witness(&q), Some(0));
        // C > 1 query: no covering atom.
        let q2 = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        assert!(corollary_4_2_witness(&q2).is_none());
    }

    #[test]
    fn agm_product_bound_is_sharper() {
        // R tiny, S large: product bound beats rmax^C.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        db.insert_named("R", &["a", "h"]);
        for i in 0..50 {
            db.insert_named("S", &["h", &format!("v{i}")]);
        }
        let pb = agm_product_bound(&q, &db);
        assert!(pb.holds);
        // cover weights are 1 and 1, so bound = 1 * 50 = 50
        assert!((pb.bound_approx - 50.0).abs() < 1e-6);
        assert_eq!(pb.measured, 50);
        // rmax^C = 50^2 is far looser
        let rmax_bound = (db.rmax(&["R", "S"]) as f64).powi(2);
        assert!(pb.bound_approx < rmax_bound);
    }

    #[test]
    fn agm_product_bound_fractional_weights() {
        // triangle: weights 1/2 each; bound = (M^2 * 3)^{3/2} on the
        // worst case... per-relation it's |R|^{3/2} since one relation.
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let bound = size_bound_no_fds(&q);
        let db = worst_case_database(&q, &bound.coloring, 4);
        let pb = agm_product_bound(&q, &db);
        assert!(pb.holds);
        assert_eq!(pb.measured, 64);
        // |R| = 48, weights (1/2,1/2,1/2): bound = 48^{3/2} ≈ 332.55
        assert!((pb.bound_approx - 48f64.powf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn optimized_product_bound_never_looser() {
        // skewed schema: tiny R, large S.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        let mut db = Database::new();
        db.insert_named("R", &["a", "h"]);
        db.insert_named("T", &["a", "w"]);
        for i in 0..40 {
            db.insert_named("S", &["h", &format!("v{i}")]);
        }
        let plain = agm_product_bound(&q, &db);
        let optimized = agm_product_bound_optimized(&q, &db);
        assert!(plain.holds && optimized.holds);
        assert!(optimized.bound_approx <= plain.bound_approx + 1e-6);
        // the optimized cover should route weight through the tiny
        // relations: bound ~ |R|*|T| = 1 here
        assert!(optimized.bound_approx < 2.0);
    }

    #[test]
    fn check_size_bound_reports_violation() {
        // An exponent that is too small must be flagged.
        let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
        let mut db = Database::new();
        for i in 0..4 {
            db.insert_named("R", &[&format!("r{i}")]);
            db.insert_named("S", &[&format!("s{i}")]);
        }
        let check = check_size_bound(&q, &db, &Rational::one());
        assert!(!check.holds); // 16 > 4^1
        let check2 = check_size_bound(&q, &db, &rat("2"));
        assert!(check2.holds); // 16 <= 4^2
    }
}
