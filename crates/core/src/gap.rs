//! Proposition 6.11: the super-constant gap between the color number and
//! the true worst-case size increase, via Shamir secret sharing.
//!
//! For even `k` and prime `N > k`, the construction has `k²/2` variables
//! `X_{i,j}` (`i ∈ [k]`, `j ∈ [k/2]`), atoms
//!
//! ```text
//! R_j(X_{1,j}, ..., X_{k,j})        for j ∈ [k/2]   ("groups")
//! T_i(X_{i,1}, ..., X_{i,k/2})      for i ∈ [k]
//! ```
//!
//! and, within each group, the compound dependencies `S → X_{i,j}` for
//! every `S ⊆ {X_{1,j}..X_{k,j}}` with `|S| = k/2`: any half of a group
//! determines the rest. The database realizes the dependencies with
//! Shamir `(k/2, k)` secret shares — each `R_j` tuple evaluates a random
//! degree-`< k/2` polynomial over `GF(N)` at the points `0..k−1`, with a
//! per-group marker making the groups' symbol sets disjoint.
//!
//! Then `rmax(D) = N^{k/2}` while `|Q(D)| = N^{k²/4}` (exponent `k/2`),
//! yet `C(chase(Q)) ≤ 2` — so the color number misses the truth by the
//! unbounded factor `k/4`. The best valid coloring we know is the
//! symmetric one of [`gap_lower_bound_coloring`], achieving
//! `2k/(k+2)`.

use crate::query::{Atom, ConjunctiveQuery, VarFd};
use cq_arith::Rational;
use cq_relation::{Database, Fd, FdSet, Relation, Schema};
use cq_util::BitSet;

/// `GF(p)` helpers (p prime, p < 2^31).
mod gf {
    /// Addition mod p.
    pub fn add(a: u64, b: u64, p: u64) -> u64 {
        (a + b) % p
    }

    /// Multiplication mod p.
    pub fn mul(a: u64, b: u64, p: u64) -> u64 {
        ((a as u128 * b as u128) % p as u128) as u64
    }

    /// Horner evaluation of `coeffs[0] + coeffs[1]·x + ...` mod p.
    pub fn poly_eval(coeffs: &[u64], x: u64, p: u64) -> u64 {
        let mut acc = 0u64;
        for &c in coeffs.iter().rev() {
            acc = add(mul(acc, x, p), c, p);
        }
        acc
    }

    /// Deterministic primality check for small p.
    pub fn is_prime(p: u64) -> bool {
        if p < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= p {
            if p.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }
}

/// The assembled Proposition 6.11 construction.
#[derive(Clone, Debug)]
pub struct GapConstruction {
    /// The query (already equal to its chase).
    pub query: ConjunctiveQuery,
    /// Relation-level dependencies.
    pub fds: FdSet,
    /// Variable-level dependencies (`S → X_{i,j}` within groups).
    pub var_fds: Vec<VarFd>,
    /// The Shamir database.
    pub db: Database,
    /// Group size parameter `k` (even).
    pub k: usize,
    /// The prime `N`.
    pub n_prime: u64,
}

impl GapConstruction {
    /// Variable index of `X_{i,j}` (`i ∈ 1..=k`, `j ∈ 1..=k/2`).
    pub fn var(&self, i: usize, j: usize) -> usize {
        (j - 1) * self.k + (i - 1)
    }

    /// `rmax(D)` predicted: `N^{k/2}`.
    pub fn predicted_rmax(&self) -> u128 {
        (self.n_prime as u128).pow((self.k / 2) as u32)
    }

    /// `|Q(D)|` predicted: `N^{k²/4}`. (The `R_j` atoms share no
    /// variables and each `T_i` contains *all* combinations of its
    /// groups' column-`i` values, so the output is exactly the product
    /// of the groups.)
    pub fn predicted_output(&self) -> u128 {
        (self.n_prime as u128).pow((self.k * self.k / 4) as u32)
    }

    /// The true size-increase exponent `log_rmax |Q(D)| = k/2`.
    pub fn true_exponent(&self) -> Rational {
        Rational::ratio((self.k / 2) as i64, 1)
    }

    /// The paper's analytic upper bound on the color number: 2.
    pub fn color_number_upper_bound(&self) -> Rational {
        Rational::int(2)
    }
}

/// Builds the Proposition 6.11 construction.
///
/// # Panics
/// Panics unless `k` is even, `k ≥ 4`, and `n_prime` is a prime `> k`.
pub fn gap_construction(k: usize, n_prime: u64) -> GapConstruction {
    assert!(
        k >= 4 && k.is_multiple_of(2),
        "k must be even and at least 4"
    );
    assert!(
        gf::is_prime(n_prime) && n_prime > k as u64,
        "N must be a prime greater than k"
    );
    let half = k / 2;
    // variables X_{i,j}: index (j-1)*k + (i-1)
    let var_names: Vec<String> = (1..=half)
        .flat_map(|j| (1..=k).map(move |i| format!("X{i}_{j}")))
        .collect();
    let var = |i: usize, j: usize| (j - 1) * k + (i - 1);
    let head: Vec<usize> = (0..k * half).collect();
    let mut body = Vec::new();
    for j in 1..=half {
        body.push(Atom::new(
            format!("R{j}"),
            (1..=k).map(|i| var(i, j)).collect::<Vec<_>>(),
        ));
    }
    for i in 1..=k {
        body.push(Atom::new(
            format!("T{i}"),
            (1..=half).map(|j| var(i, j)).collect::<Vec<_>>(),
        ));
    }
    let query = ConjunctiveQuery::new(var_names, head, body);

    // Dependencies: every half-size subset of a group determines each
    // position (relation-level, one FdSet shared per R_j).
    let mut fds = FdSet::new();
    let positions: Vec<usize> = (0..k).collect();
    for j in 1..=half {
        for subset in combinations(&positions, half) {
            for r in 0..k {
                if !subset.contains(&r) {
                    fds.add(Fd::new(format!("R{j}"), subset.clone(), r));
                }
            }
        }
    }
    let var_fds = query.variable_fds(&fds);

    // Shamir database.
    let mut db = Database::new();
    for j in 1..=half {
        let mut rel = Relation::new(Schema::new(format!("R{j}"), k));
        // enumerate all N^{k/2} coefficient vectors
        let mut coeffs = vec![0u64; half];
        let total = (n_prime as u128).pow(half as u32);
        assert!(total <= usize::MAX as u128, "construction too large");
        for _ in 0..total {
            let row: Vec<_> = (0..k)
                .map(|i| {
                    let val = gf::poly_eval(&coeffs, i as u64, n_prime);
                    db.symbols_mut().intern(&format!("{val}_g{j}"))
                })
                .collect();
            rel.insert(row);
            for c in coeffs.iter_mut() {
                *c += 1;
                if *c < n_prime {
                    break;
                }
                *c = 0;
            }
        }
        db.add_relation(rel);
    }
    for i in 1..=k {
        let mut rel = Relation::new(Schema::new(format!("T{i}"), half));
        // all combinations of per-group field values (marked)
        let mut vals = vec![0u64; half];
        let total = (n_prime as u128).pow(half as u32) as usize;
        for _ in 0..total {
            let row: Vec<_> = (0..half)
                .map(|j| db.symbols_mut().intern(&format!("{}_g{}", vals[j], j + 1)))
                .collect();
            rel.insert(row);
            for v in vals.iter_mut() {
                *v += 1;
                if *v < n_prime {
                    break;
                }
                *v = 0;
            }
        }
        db.add_relation(rel);
    }
    GapConstruction {
        query,
        fds,
        var_fds,
        db,
        k,
        n_prime,
    }
}

/// The symmetric lower-bound coloring: in each group `j`, one color per
/// `(k/2 + 1)`-subset `T ⊆ [k]`, assigned to `X_{i,j}` for `i ∈ T`.
/// Valid (every color survives every half-group determination) with
/// color number `2k/(k+2)`.
pub fn gap_lower_bound_coloring(g: &GapConstruction) -> crate::coloring::Coloring {
    let k = g.k;
    let half = k / 2;
    let indices: Vec<usize> = (1..=k).collect();
    let subsets: Vec<Vec<usize>> = combinations(&indices, half + 1);
    let mut labels = vec![BitSet::new(); k * half];
    let mut color = 0usize;
    for j in 1..=half {
        for t in &subsets {
            for &i in t {
                labels[g.var(i, j)].insert(color);
            }
            color += 1;
        }
    }
    crate::coloring::Coloring::from_labels(labels)
}

/// `2k/(k+2)` — the color number achieved by the symmetric coloring.
pub fn gap_lower_bound_value(k: usize) -> Rational {
    Rational::ratio(2 * k as i64, (k + 2) as i64)
}

/// All `size`-subsets of `items`, in lexicographic order.
fn combinations(items: &[usize], size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn rec(
        items: &[usize],
        size: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == size {
            out.push(current.clone());
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, size, i + 1, current, out);
            current.pop();
        }
    }
    rec(items, size, 0, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::EntropyVector;
    use crate::eval::evaluate;

    #[test]
    fn gf_arithmetic() {
        assert_eq!(gf::add(4, 4, 5), 3);
        assert_eq!(gf::mul(3, 4, 5), 2);
        // no overflow near u64 limits thanks to the u128 intermediate
        let p = (1u64 << 31) - 1;
        assert_eq!(gf::mul(p - 1, p - 1, p), 1);
    }

    #[test]
    fn gf_poly_eval_correct() {
        // p(x) = 1 + 2x + 3x² over GF(7); p(2) = 1 + 4 + 12 = 17 = 3.
        assert_eq!(gf::poly_eval(&[1, 2, 3], 2, 7), 3);
        assert_eq!(gf::poly_eval(&[], 5, 7), 0);
        assert!(gf::is_prime(5) && gf::is_prime(7) && !gf::is_prime(9) && !gf::is_prime(1));
    }

    #[test]
    fn construction_shape_k4() {
        let g = gap_construction(4, 5);
        assert_eq!(g.query.num_vars(), 8);
        assert_eq!(g.query.num_atoms(), 2 + 4); // R1,R2 + T1..T4
                                                // relations: |R_j| = N² = 25, |T_i| = 25
        for name in ["R1", "R2", "T1", "T4"] {
            assert_eq!(g.db.relation(name).unwrap().len(), 25, "{name}");
        }
        assert_eq!(g.predicted_rmax(), 25);
        assert_eq!(g.predicted_output(), 625);
    }

    #[test]
    fn shamir_fds_hold() {
        let g = gap_construction(4, 5);
        assert!(
            g.db.satisfies(&g.fds),
            "any 2 of 4 shares determine the rest"
        );
    }

    #[test]
    fn projections_have_shamir_sizes() {
        // |π_S(R_j)| = N^min(|S|, k/2).
        let g = gap_construction(4, 5);
        let r1 = g.db.relation("R1").unwrap();
        assert_eq!(r1.project(&[0], "p").len(), 5);
        assert_eq!(r1.project(&[1], "p").len(), 5);
        assert_eq!(r1.project(&[0, 2], "p").len(), 25);
        assert_eq!(r1.project(&[0, 1, 2], "p").len(), 25);
        assert_eq!(r1.project(&[0, 1, 2, 3], "p").len(), 25);
    }

    #[test]
    fn output_size_matches_prediction_small() {
        let g = gap_construction(4, 5);
        let out = evaluate(&g.query, &g.db);
        assert_eq!(out.len() as u128, g.predicted_output());
        // exponent: |Q(D)| = rmax^{k/2} exactly
        assert_eq!((g.predicted_rmax()).pow(2), g.predicted_output());
    }

    #[test]
    fn lower_bound_coloring_is_valid_and_achieves_2k_over_k_plus_2() {
        for k in [4usize, 6] {
            let n = if k == 4 { 5 } else { 7 };
            let g = gap_construction(k, n);
            let coloring = gap_lower_bound_coloring(&g);
            coloring.validate(&g.var_fds).unwrap();
            let achieved = coloring.color_number(&g.query).unwrap();
            assert_eq!(achieved, gap_lower_bound_value(k), "k={k}");
            assert!(achieved <= g.color_number_upper_bound());
        }
    }

    #[test]
    fn gap_grows_with_k() {
        // true exponent k/2 vs color number <= 2: the ratio k/4 is
        // unbounded — verified structurally for k = 4, 6, 8.
        for k in [4usize, 6, 8] {
            let true_exp = Rational::ratio((k / 2) as i64, 1);
            let ratio = &true_exp / &Rational::int(2);
            assert!(ratio >= Rational::ratio(k as i64, 4));
        }
    }

    #[test]
    fn figure_3_information_diagram() {
        // One group of the k=4 construction: every pair carries all the
        // entropy; the 4-way interaction is -2 (in log_N units).
        let g = gap_construction(4, 5);
        let r1 = g.db.relation("R1").unwrap();
        let e = EntropyVector::from_relation(r1);
        let log_n = (5f64).log2();
        let unit = |bits: f64| bits / log_n;
        // H(single) = 1, H(any pair and larger) = 2 (in log_N units)
        assert!((unit(e.h(0b0001)) - 1.0).abs() < 1e-9);
        assert!((unit(e.h(0b0011)) - 2.0).abs() < 1e-9);
        assert!((unit(e.h(0b0111)) - 2.0).abs() < 1e-9);
        assert!((unit(e.h(0b1111)) - 2.0).abs() < 1e-9);
        // I(X1;X2;X3;X4) = -2 (the paper's Figure 3 headline value)
        assert!((unit(e.interaction(0b1111)) + 2.0).abs() < 1e-9);
        // and the diagram still reconstructs the entropies
        assert!(e.atom_identity_error() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_non_prime() {
        let _ = gap_construction(4, 9);
    }

    #[test]
    #[should_panic]
    fn rejects_odd_k() {
        let _ = gap_construction(5, 7);
    }
}
