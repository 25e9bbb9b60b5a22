//! Treewidth of query results (§5 of the paper).
//!
//! - [`keyed_join_decomposition`] — the *constructive* proof of Theorem
//!   5.5: given a tree decomposition of `⟨R(D), S(D)⟩` of width ω and a
//!   keyed join `R ⋈_{A=B} S` with `arity(S) = j`, it augments bags along
//!   tree paths (Observation 5.6) to produce a valid decomposition of the
//!   join result of width `≤ j(ω+1) − 1`.
//! - [`theorem_5_5_bound`] / [`proposition_5_7_bound`] — the closed-form
//!   bounds.
//! - [`treewidth_preservation_no_fds`] — Proposition 5.9: `tw(Q(D)) ≤
//!   tw(D)` for all `D` iff every pair of head variables co-occurs in
//!   some atom (equivalently: no valid 2-coloring with color number 2);
//!   otherwise [`blowup_witness_database`] builds inputs of treewidth ≤ 1
//!   whose output contains `K_M`.
//! - [`treewidth_preservation_simple_fds`] — Theorem 5.10: the same
//!   decision after the chase, reduced through the FD-removal procedure.
//!
//! ```
//! use cq_core::{parse_program, treewidth_preservation_simple_fds, TwPreservation};
//!
//! // The triangle keeps every head pair in some atom: tw-preserved.
//! let (tri, fds) = parse_program("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
//! assert!(matches!(
//!     treewidth_preservation_simple_fds(&tri, &fds),
//!     TwPreservation::Preserved
//! ));
//!
//! // The path's endpoints X,Z co-occur in no atom: inputs of treewidth 1
//! // can join to a K_{M,M}-containing output (unbounded blowup), and the
//! // decision names that witness pair.
//! let (path, fds) = parse_program("Q(X,Y,Z) :- S(X,Y), T(Y,Z)").unwrap();
//! assert!(matches!(
//!     treewidth_preservation_simple_fds(&path, &fds),
//!     TwPreservation::Blowup { .. }
//! ));
//! ```

use crate::constructions::worst_case_database;
use crate::query::{ConjunctiveQuery, VarIdx};
use crate::size_bounds::size_bound_simple_fds;
use cq_hypergraph::TreeDecomposition;
use cq_relation::{Database, FdSet, Relation, TupleMap, Value};
use cq_util::{BitSet, FxHashMap};

/// Theorem 5.5's width bound for a single keyed join: `j(ω+1) − 1`.
pub fn theorem_5_5_bound(j: usize, omega: usize) -> usize {
    j * (omega + 1) - 1
}

/// Proposition 5.7's bound for a chain of `n` keyed joins with maximum
/// arity `ℓ`: `ℓ^{n−1}(1 + max(tw, 2)) − 1`.
pub fn proposition_5_7_bound(ell: usize, n: usize, tw: usize) -> usize {
    ell.pow((n - 1) as u32) * (1 + tw.max(2)) - 1
}

pub use cq_relation::gaifman_over;

/// The constructive Theorem 5.5: transforms a tree decomposition of
/// `⟨left, right⟩` into one of the keyed join result.
///
/// `td` must be a valid decomposition of [`gaifman_over`] of the two
/// relations under `vertex_of`; `on` is the join condition with the
/// right-side positions forming a key of `right` under `fds`.
///
/// Returns the augmented decomposition, valid for the Gaifman graph of
/// `left ⋈ right` (over the same vertex mapping) with width at most
/// `arity(right) · (td.width() + 1) − 1`.
///
/// # Panics
/// Panics if the join is not keyed, or if `td` lacks a bag covering some
/// tuple (i.e. it is not a decomposition of the inputs' Gaifman graph).
pub fn keyed_join_decomposition(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    fds: &FdSet,
    td: &TreeDecomposition,
    vertex_of: &FxHashMap<Value, usize>,
) -> TreeDecomposition {
    let right_attrs: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    assert!(
        fds.is_key(right.name(), &right_attrs, right.arity()),
        "keyed_join_decomposition requires the right join attributes to be a key"
    );
    let mut td = td.clone();
    // Index the right side by its key for pair enumeration.
    let mut right_index: TupleMap<&[Value]> = TupleMap::new(right_attrs.len());
    let mut key = Vec::with_capacity(right_attrs.len());
    for row in right.iter() {
        key.clear();
        key.extend(right_attrs.iter().map(|&p| row[p]));
        *right_index.get_or_insert_with(&key, || row) = row;
    }
    let left_attrs: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    for t in left.iter() {
        key.clear();
        key.extend(left_attrs.iter().map(|&p| t[p]));
        let Some(&u) = right_index.get(&key) else {
            continue;
        };
        let t_verts = BitSet::from_iter(t.iter().map(|v| vertex_of[v]));
        let u_verts = BitSet::from_iter(u.iter().map(|v| vertex_of[v]));
        let v_bag = td
            .find_bag_containing(&t_verts)
            .expect("decomposition covers each left tuple (its values form a clique)");
        let v_bag2 = td
            .find_bag_containing(&u_verts)
            .expect("decomposition covers each right tuple");
        // W: values of u other than the key values u[B].
        let mut w = u_verts.clone();
        for &p in &right_attrs {
            w.remove(vertex_of[&u[p]]);
        }
        td.augment_path(v_bag, v_bag2, &w);
    }
    td
}

/// Outcome of a treewidth-preservation analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwPreservation {
    /// `tw(Q(D)) ≤ f(tw(D))` for every database (Proposition 5.9 /
    /// Theorem 5.10 upper bounds apply).
    Preserved,
    /// Unbounded blowup: the named head-variable pair admits the
    /// 2-color/color-number-2 coloring of the proofs.
    Blowup {
        /// First witness variable (receives color 1).
        x: VarIdx,
        /// Second witness variable (receives color 2).
        y: VarIdx,
    },
}

/// Proposition 5.9: without FDs, treewidth is preserved iff every pair
/// of distinct head variables co-occurs in some body atom.
pub fn treewidth_preservation_no_fds(q: &ConjunctiveQuery) -> TwPreservation {
    let head: Vec<VarIdx> = q.head_var_set().iter().collect();
    for (i, &x) in head.iter().enumerate() {
        for &y in &head[i + 1..] {
            let covered = q
                .body()
                .iter()
                .any(|a| a.vars.contains(&x) && a.vars.contains(&y));
            if !covered {
                return TwPreservation::Blowup { x, y };
            }
        }
    }
    TwPreservation::Preserved
}

/// Theorem 5.10 (simple FDs): chases the query, removes the dependencies
/// (Theorem 4.4's procedure), and applies the Proposition 5.9 test to
/// the resulting FD-free query. By Lemma 4.7 the 2-color/color-number-2
/// property transfers, so `Preserved` implies the
/// `2^{m·|var(Q)|²}(1 + max(tw, 2)) − 1` bound of the theorem and
/// `Blowup` implies unbounded treewidth increase.
pub fn treewidth_preservation_simple_fds(q: &ConjunctiveQuery, fds: &FdSet) -> TwPreservation {
    let (_, _, trace) = size_bound_simple_fds(q, fds);
    treewidth_preservation_no_fds(trace.result())
}

/// Theorem 5.10's closed-form upper bound when preservation holds.
pub fn theorem_5_10_bound(q: &ConjunctiveQuery, tw: usize) -> f64 {
    let m = q.num_atoms() as f64;
    let vars = q.num_vars() as f64;
    (2f64 * m).powf(vars * vars) * (1.0 + (tw.max(2)) as f64) - 1.0
}

/// Builds the Proposition 5.9 blowup witness: the worst-case database for
/// the coloring `L(x) = {0}, L(y) = {1}` (all other labels empty) with
/// product parameter `M`. The inputs have treewidth ≤ 1 while the output
/// Gaifman graph contains `K_M` (treewidth ≥ M − 1).
pub fn blowup_witness_database(
    q: &ConjunctiveQuery,
    x: VarIdx,
    y: VarIdx,
    m_param: usize,
) -> Database {
    let mut coloring = crate::coloring::Coloring::empty(q.num_vars());
    coloring.label_mut(x).insert(0);
    coloring.label_mut(y).insert(1);
    worst_case_database(q, &coloring, m_param)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::{parse_program, parse_query};
    use cq_hypergraph::{decomposition_from_ordering, min_fill_ordering, treewidth_exact, Graph};
    use cq_relation::equi_join;

    #[test]
    fn bounds_formulas() {
        assert_eq!(theorem_5_5_bound(3, 2), 8);
        assert_eq!(proposition_5_7_bound(3, 3, 2), 26);
        assert_eq!(proposition_5_7_bound(2, 1, 5), 5);
    }

    /// A small keyed join: verify the transformed decomposition is valid
    /// for the join's Gaifman graph and within the Theorem 5.5 bound.
    #[test]
    fn theorem_5_5_constructive() {
        let mut db = Database::new();
        // R(a_i, k_i); S(k_i, b_i, c_i) with S[1] a key.
        for i in 0..5 {
            db.insert_named("R", &[&format!("a{i}"), &format!("k{}", i % 3)]);
        }
        for k in 0..3 {
            db.insert_named("S", &[&format!("k{k}"), &format!("b{k}"), &format!("c{k}")]);
        }
        let mut fds = FdSet::new();
        fds.add_key("S", &[0], 3);
        let r = db.relation("R").unwrap();
        let s = db.relation("S").unwrap();

        let mut vertex_of = FxHashMap::default();
        let g_before = gaifman_over(&[r, s], &mut vertex_of);
        let order = min_fill_ordering(&g_before);
        let td = decomposition_from_ordering(&g_before, &order);
        td.validate(&g_before).unwrap();
        let omega = td.width();

        let td2 = keyed_join_decomposition(r, s, &[(1, 0)], &fds, &td, &vertex_of);
        let join = equi_join(r, s, &[(1, 0)], "J");
        let g_after = gaifman_over(&[&join], &mut vertex_of.clone());
        // td2 must cover the join's Gaifman graph; vertex counts can
        // differ (td2 knows all input values), so validate edges and
        // connectivity manually via a padded graph.
        let mut g_padded = Graph::new(g_before.num_vertices().max(g_after.num_vertices()));
        for (a, b) in g_after.edges() {
            g_padded.add_edge(a, b);
        }
        // vertices of the padded graph missing from bags: only values
        // absent from the join; add isolated coverage check per edge.
        td2.validate(&g_padded).unwrap();
        assert!(td2.width() <= theorem_5_5_bound(s.arity(), omega));
    }

    #[test]
    fn proposition_5_9_positive_and_negative() {
        // Triangle: every pair co-occurs -> preserved.
        let t = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        assert_eq!(treewidth_preservation_no_fds(&t), TwPreservation::Preserved);
        // Example 2.1's query: Y and Z never co-occur -> blowup.
        let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        match treewidth_preservation_no_fds(&q) {
            TwPreservation::Blowup { x, y } => {
                assert_eq!((x, y), (1, 2)); // Y, Z
            }
            other => panic!("expected blowup, got {other:?}"),
        }
    }

    #[test]
    fn proposition_5_9_blowup_witness() {
        let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        let TwPreservation::Blowup { x, y } = treewidth_preservation_no_fds(&q) else {
            panic!("blowup expected");
        };
        let m = 5;
        let db = blowup_witness_database(&q, x, y, m);
        // inputs: treewidth <= 1
        let (g_in, _) = db.gaifman_graph(&[]);
        assert!(treewidth_exact(&g_in) <= 1);
        // output: contains K_M (the rep(Q) union step can only enlarge
        // the output, so >= M^2)
        let out = evaluate(&q, &db);
        assert!(out.len() >= m * m);
        let mut vertex_of = FxHashMap::default();
        let g_out = gaifman_over(&[&out], &mut vertex_of);
        assert!(treewidth_exact(&g_out) >= m - 1);
    }

    #[test]
    fn theorem_5_10_chase_rescues_preservation() {
        // Without keys, Y and Z never co-occur -> blowup. With key R[1],
        // the chase unifies Y and Z -> preserved.
        let text = "R2(X,Y,Z) :- R(X,Y), R(X,Z)";
        let q = parse_query(text).unwrap();
        assert_ne!(treewidth_preservation_no_fds(&q), TwPreservation::Preserved);
        let (q2, fds) = parse_program(&format!("{text}\nkey R[1]")).unwrap();
        assert_eq!(
            treewidth_preservation_simple_fds(&q2, &fds),
            TwPreservation::Preserved
        );
    }

    #[test]
    fn theorem_5_10_removal_extends_coverage() {
        // Q(X,Y,Z) :- S(X,Y), T(X,Z) with key S[1] (X -> Y): the pair
        // (Y,Z) co-occurs nowhere, but removal extends T(X,Z) with Y,
        // covering the pair: preserved.
        let (q, fds) = parse_program("Q(X,Y,Z) :- S(X,Y), T(X,Z)\nkey S[1]").unwrap();
        assert_ne!(treewidth_preservation_no_fds(&q), TwPreservation::Preserved);
        assert_eq!(
            treewidth_preservation_simple_fds(&q, &fds),
            TwPreservation::Preserved
        );
        // Sanity: without the key it's a genuine blowup.
        assert_eq!(
            treewidth_preservation_simple_fds(&q, &FdSet::new()),
            TwPreservation::Blowup { x: 1, y: 2 }
        );
    }

    #[test]
    fn brute_force_two_coloring_agrees_with_characterization() {
        use crate::coloring::find_two_coloring_brute_force;
        for text in [
            "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
            "R2(X,Y,Z) :- R(X,Y), R(X,Z)",
            "Q(X,Y) :- R(X), S(Y)",
            "Q(X,Y) :- R(X,Y)",
        ] {
            let q = parse_query(text).unwrap();
            let brute = find_two_coloring_brute_force(&q, &[]).is_some();
            let characterized = treewidth_preservation_no_fds(&q) != TwPreservation::Preserved;
            assert_eq!(brute, characterized, "{text}");
        }
    }
}
