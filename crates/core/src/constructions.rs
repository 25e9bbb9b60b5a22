//! Tightness constructions (Propositions 4.3 and 4.5, Example 2.1).
//!
//! [`worst_case_database`] is the color-product construction of
//! Proposition 4.5: given a valid coloring `L` of `chase(Q)` and a size
//! parameter `M`, it populates a database in which
//!
//! - each atom's relation receives `M^{|∪_{X∈u} L(X)|}` tuples (before the
//!   `rep(Q)` union step),
//! - all variable-level dependencies hold, and
//! - `|Q(D)| = M^{|∪_{X∈u0} L(X)|}`,
//!
//! so with an optimal coloring the exponent of the size increase reaches
//! `C(chase(Q))` up to the `rep(Q)` factor — matching Theorem 4.4's lower
//! bound (and Proposition 4.3's AGM tightness when there are no FDs).
//!
//! The construction must be applied to a **chased** query: for un-chased
//! queries, two same-relation atoms may disagree on an FD's right side
//! even when the coloring is valid, and the per-occurrence union could
//! then violate the relation-level dependency (this is precisely why the
//! paper colors `chase(Q)`, not `Q`).

use crate::coloring::Coloring;
use crate::query::{ConjunctiveQuery, VarIdx};
use cq_relation::{Database, Relation, Schema};
use cq_util::BitSet;

/// The `v∅` placeholder name used for uncolored variables.
pub const NULL_VALUE: &str = "v∅";

/// The most tuples a worst-case database may take when it is built on
/// request (`--witness M`, the protocol's `"witness"`): the surfaces
/// check [`worst_case_tuples`] against it before building anything, so
/// one request cannot allocate without bound. 2^20 tuples of short
/// interned values stay within some tens of MB.
pub const WITNESS_TUPLE_BUDGET: u64 = 1 << 20;

/// `Σ_j M^{c_j}`, where `c_j` is the number of colours on atom `j`'s
/// variables under `coloring`: the tuples [`worst_case_database`] builds
/// for `q` with product parameter `m` before relations occurring several
/// times are merged. `None` when it overflows `u64`. Computed from the
/// coloring alone, without building anything.
pub fn worst_case_tuples(q: &ConjunctiveQuery, coloring: &Coloring, m: usize) -> Option<u64> {
    q.body().iter().try_fold(0u64, |total, atom| {
        let colors = coloring.union_over(atom.var_set().iter()).len();
        let tuples = (m as u64).checked_pow(u32::try_from(colors).ok()?)?;
        total.checked_add(tuples)
    })
}

/// Builds the Proposition 4.5 database for `q` under `coloring` with
/// product parameter `m_param ≥ 1`.
///
/// Relations occurring several times in `q` are populated with the union
/// of their per-occurrence tuple sets (the `rep(Q)` step of the proof).
pub fn worst_case_database(q: &ConjunctiveQuery, coloring: &Coloring, m_param: usize) -> Database {
    assert!(m_param >= 1, "product parameter must be at least 1");
    let mut db = Database::new();
    for atom in q.body() {
        let distinct_vars: Vec<VarIdx> = atom.var_set().iter().collect();
        let atom_colors: Vec<usize> = coloring
            .union_over(distinct_vars.iter().copied())
            .iter()
            .collect();
        let mut rel = match db.relation(&atom.relation) {
            Some(r) => r.clone(),
            None => Relation::new(Schema::new(atom.relation.clone(), atom.vars.len())),
        };
        // Enumerate all assignments h : atom_colors -> [0, M).
        let num_assignments = m_param
            .checked_pow(atom_colors.len() as u32)
            .expect("worst-case database size overflows usize; reduce M or the coloring");
        let mut h = vec![0usize; atom_colors.len()];
        for _ in 0..num_assignments {
            let row: Vec<_> = atom
                .vars
                .iter()
                .map(|&v| {
                    let name = value_name(coloring.label(v), &atom_colors, &h);
                    db.symbols_mut().intern(&name)
                })
                .collect();
            rel.insert(row);
            // increment mixed-radix counter h
            for slot in h.iter_mut() {
                *slot += 1;
                if *slot < m_param {
                    break;
                }
                *slot = 0;
            }
        }
        db.add_relation(rel);
    }
    db
}

/// The value for a variable with label `label` under assignment `h` of
/// the atom's colors: `v[c3=1|c7=0]`, or [`NULL_VALUE`] for an empty
/// label. The name depends only on the label and `h` restricted to it, so
/// the same variable receives consistent values across atoms.
fn value_name(label: &BitSet, atom_colors: &[usize], h: &[usize]) -> String {
    if label.is_empty() {
        return NULL_VALUE.to_owned();
    }
    let parts: Vec<String> = label
        .iter()
        .map(|c| {
            let idx = atom_colors
                .iter()
                .position(|&ac| ac == c)
                .expect("variable color appears in its atom's color set");
            format!("c{c}={}", h[idx])
        })
        .collect();
    format!("v[{}]", parts.join("|"))
}

/// Predicted output size of the construction: `M^{|∪_{X∈u0} L(X)|}`.
///
/// Exact for queries in which each relation occurs once; with `rep(Q) >
/// 1` the per-occurrence union step can only enlarge the output, so this
/// is a lower bound (which is all Proposition 4.5's tightness argument
/// needs).
pub fn predicted_output_size(q: &ConjunctiveQuery, coloring: &Coloring, m_param: usize) -> usize {
    let head_colors = coloring.union_over(q.head().iter().copied()).len();
    m_param.pow(head_colors as u32)
}

/// Predicted `rmax` of the construction:
/// `rep(Q) · M^{max_j |∪_{X∈uj} L(X)|}` is an upper bound; the exact value
/// is the maximum over relations of the per-occurrence union sizes, which
/// this returns.
pub fn predicted_rmax(q: &ConjunctiveQuery, coloring: &Coloring, m_param: usize) -> usize {
    let mut per_relation: std::collections::BTreeMap<&str, usize> = Default::default();
    for atom in q.body() {
        let colors = coloring.union_over(atom.var_set().iter()).len();
        *per_relation.entry(atom.relation.as_str()).or_insert(0) += m_param.pow(colors as u32);
    }
    per_relation.values().copied().max().unwrap_or(0)
}

/// Example 2.1's relation: `R(A,B) = {⟨1,1⟩, ⟨1,2⟩, ..., ⟨1,n⟩}` (a star;
/// treewidth 1). Joining it with itself on the first column yields `n²`
/// tuples whose Gaifman graph is `K_n` (treewidth `n−1`).
pub fn example_2_1_database(n: usize) -> Database {
    let mut db = Database::new();
    for i in 1..=n {
        db.insert_named("R", &["1", &i.to_string()]);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase;
    use crate::coloring::{color_number_lp, coloring_from_weights};
    use crate::eval::evaluate;
    use crate::parser::{parse_program, parse_query};
    use cq_arith::Rational;

    #[test]
    fn triangle_construction_matches_agm() {
        // Example 3.3 / Prop 4.3: C = 3/2; optimal coloring has one color
        // per variable; M^3 outputs from rmax = 3·M² inputs... per atom
        // M² tuples, R occurs 3 times so |R| = 3M² (rep union), and
        // |Q(D)| = M³.
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let cn = color_number_lp(&q);
        assert_eq!(cn.value, Rational::ratio(3, 2));
        let m = 4;
        let db = worst_case_database(&q, &cn.coloring, m);
        // denominator of the rounded coloring is 2: each var has 1 color,
        // each atom sees 2 colors -> per-atom M² tuples, union 3M².
        assert_eq!(db.relation("R").unwrap().len(), 3 * m * m);
        assert_eq!(predicted_rmax(&q, &cn.coloring, m), 3 * m * m);
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), m * m * m);
        assert_eq!(predicted_output_size(&q, &cn.coloring, m), m * m * m);
    }

    #[test]
    fn construction_respects_simple_keys() {
        // Q(X,Y,Z) :- S(X,Y), T(X,Z) with key S[1]: chase does nothing
        // (different relations), C = 2 via coloring Y, Z.
        let (q, fds) = parse_program("Q(X,Y,Z) :- S(X,Y), T(X,Z)\nkey S[1]").unwrap();
        let chased = chase(&q, &fds).query;
        let vfds = chased.variable_fds(&fds);
        // The key X -> Y forces L(Y) ⊆ L(X); with L(X)=L(Y)={0} and
        // L(Z)={1}, atom S sees one color, atom T sees two, so the color
        // number is 2/2 = 1 — which is exactly C(chase(Q)) here (each T
        // tuple extends to at most one output via the key).
        let mut coloring = Coloring::empty(3);
        coloring.label_mut(0).insert(0);
        coloring.label_mut(1).insert(0);
        coloring.label_mut(2).insert(1);
        coloring.validate(&vfds).unwrap();
        assert_eq!(coloring.color_number(&chased), Some(Rational::one()));
        let m = 3;
        let db = worst_case_database(&chased, &coloring, m);
        assert!(db.satisfies(&fds), "constructed DB must satisfy the keys");
        let out = evaluate(&chased, &db);
        // |Q(D)| = M^2 = rmax^1: the bound exponent C = 1 is attained.
        assert_eq!(out.len(), m * m);
        assert_eq!(db.rmax(&["S", "T"]), m * m);
    }

    #[test]
    fn null_values_for_uncolored_vars() {
        let q = parse_query("Q(X) :- R(X,Y)").unwrap();
        let mut coloring = Coloring::empty(2);
        coloring.label_mut(0).insert(0); // only X colored
        let db = worst_case_database(&q, &coloring, 3);
        let rel = db.relation("R").unwrap();
        assert_eq!(rel.len(), 3);
        // every tuple's second position is the null value
        let null = db.symbols().lookup(NULL_VALUE).unwrap();
        for row in rel.iter() {
            assert_eq!(row[1], null);
        }
    }

    #[test]
    fn fully_uncolored_atom_gets_single_null_tuple() {
        let q = parse_query("Q(X) :- R(X), S(Y)").unwrap();
        let mut coloring = Coloring::empty(2);
        coloring.label_mut(0).insert(0);
        let db = worst_case_database(&q, &coloring, 5);
        assert_eq!(db.relation("S").unwrap().len(), 1);
        assert_eq!(db.relation("R").unwrap().len(), 5);
    }

    #[test]
    fn m_equals_one_is_single_point() {
        let q = parse_query("Q(X,Y) :- R(X,Y)").unwrap();
        let coloring = coloring_from_weights(&[Rational::one(), Rational::one()]);
        let db = worst_case_database(&q, &coloring, 1);
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert_eq!(evaluate(&q, &db).len(), 1);
    }

    #[test]
    fn multi_color_labels_encode_products() {
        // One variable with 2 colors: M² distinct values in its column.
        let q = parse_query("Q(X) :- R(X)").unwrap();
        let mut coloring = Coloring::empty(1);
        coloring.label_mut(0).insert(0);
        coloring.label_mut(0).insert(1);
        let m = 4;
        let db = worst_case_database(&q, &coloring, m);
        let rel = db.relation("R").unwrap();
        assert_eq!(rel.len(), m * m);
        assert_eq!(rel.column_values(0).len(), m * m);
    }

    #[test]
    fn example_2_1_star() {
        let db = example_2_1_database(6);
        assert_eq!(db.relation("R").unwrap().len(), 6);
        let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        assert_eq!(evaluate(&q, &db).len(), 36);
    }

    #[test]
    fn shared_variables_get_consistent_values() {
        // Y occurs in both atoms: its values must agree so the join is
        // nonempty.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let cn = color_number_lp(&q);
        assert_eq!(cn.value, Rational::int(2)); // cover {R, S}: y_R = y_S = 1
        let m = 3;
        let db = worst_case_database(&q, &cn.coloring, m);
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), predicted_output_size(&q, &cn.coloring, m));
        assert!(!out.is_empty());
    }
}
