//! Decomposition-guided evaluation: materialize the bags of a
//! generalized hypertree decomposition with the worst-case-optimal join,
//! then treat the bag tree as an acyclic query and run Yannakakis over
//! it.
//!
//! For a width-`w` decomposition each bag is the join of at most `w`
//! atoms (its cover) plus the atoms it absorbs, so bag materialization
//! costs `O(input^w)`; the bag tree is acyclic by construction, so the
//! semijoin passes and the final joins are linear in the materialized
//! bags plus the output. This is the Gottlob–Leone–Scarcello tractable
//! evaluation strategy, specialized to the decompositions produced by
//! [`cq_hypergraph::hypertree`].
//!
//! Correctness hinges on one subtlety: edge coverage guarantees every
//! atom's variables sit inside *some* bag, but that atom need not be in
//! the bag's cover. Every atom is therefore explicitly assigned to a bag
//! containing its variables and joined into that bag's materialization —
//! dropping this would silently lose the atom's constraint. The
//! differential suite (`tests/decomp_differential.rs`) pins the result
//! against [`crate::eval::evaluate`] on fixtures and random instances.

use crate::acyclic::{yannakakis, JoinTree};
use crate::eval::project_head;
use crate::query::{Atom, ConjunctiveQuery};
use crate::wcoj::evaluate_wcoj;
use cq_hypergraph::{hypertree_capped, HypertreeDecomposition};
use cq_relation::{Database, Relation, Schema};
use std::fmt;

pub use crate::acyclic::semijoin;

/// Variable-count ceiling for the exact decomposition search in
/// [`decompose`]; larger queries fall back to the greedy bound. The cap
/// lives beside the search, in `cq_hypergraph::exact`.
pub use cq_hypergraph::HYPERTREE_EXACT_VAR_CAP as MAX_EXACT_DECOMP_VARS;

/// Why a supplied decomposition was rejected. Invalid inputs always
/// produce an error, never a wrong answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompEvalError {
    /// The decomposition fails [`HypertreeDecomposition::validate`]
    /// against the query's hypergraph.
    Invalid(String),
}

impl fmt::Display for DecompEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompEvalError::Invalid(why) => {
                write!(f, "invalid hypertree decomposition: {why}")
            }
        }
    }
}

impl std::error::Error for DecompEvalError {}

/// A generalized hypertree decomposition of `q`'s hypergraph:
/// width-minimal (exact search) for queries of at most
/// [`MAX_EXACT_DECOMP_VARS`] variables, the greedy elimination-order
/// upper bound beyond that. Always passes `validate`.
pub fn decompose(q: &ConjunctiveQuery) -> HypertreeDecomposition {
    hypertree_capped(&q.hypergraph()).0
}

/// Evaluates `q` guided by the supplied decomposition: validates it,
/// materializes each bag (cover atoms plus every atom assigned to the
/// bag) with [`evaluate_wcoj`], semijoin-reduces the bag tree both ways,
/// joins bottom-up and projects to the head.
pub fn evaluate_with_decomposition(
    q: &ConjunctiveQuery,
    db: &Database,
    htd: &HypertreeDecomposition,
) -> Result<Relation, DecompEvalError> {
    let _p = cq_telemetry::phase("core.decomp_eval", "cq_core_decomp_eval_micros");
    let h = q.hypergraph();
    htd.validate(&h).map_err(DecompEvalError::Invalid)?;

    // Assign every atom to one bag containing its variables (edge
    // coverage makes this total; checked again to keep the guarantee
    // independent of validate's internals).
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); htd.num_bags()];
    for (i, atom) in q.body().iter().enumerate() {
        let vars = atom.var_set();
        let bag = (0..htd.num_bags())
            .find(|&b| vars.is_subset(htd.bag(b)))
            .ok_or_else(|| DecompEvalError::Invalid(format!("atom {i} fits in no bag")))?;
        assigned[bag].push(i);
    }

    if htd.num_bags() == 0 {
        // Valid only for an atomless query: the empty join is TRUE.
        return Ok(project_head(q, &true_relation()));
    }

    // Materialize each bag as a subquery over the original variables:
    // head = the bag's variables, body = cover atoms ∪ assigned atoms.
    let mut rels: Vec<Relation> = Vec::with_capacity(htd.num_bags());
    for (b, bag_atoms) in assigned.iter().enumerate() {
        let mut atom_ids: Vec<usize> = htd.cover(b).to_vec();
        for &i in bag_atoms {
            if !atom_ids.contains(&i) {
                atom_ids.push(i);
            }
        }
        atom_ids.sort_unstable();
        if atom_ids.is_empty() {
            // An empty bag with nothing assigned joins as TRUE.
            rels.push(true_relation());
            continue;
        }
        let body: Vec<Atom> = atom_ids.iter().map(|&i| q.body()[i].clone()).collect();
        let head: Vec<usize> = htd.bag(b).iter().collect();
        let bag_q = ConjunctiveQuery::new(q.var_names().to_vec(), head, body);
        rels.push(evaluate_wcoj(&bag_q, db));
    }

    // Root the bag tree at 0; reversed BFS order puts children first.
    let mut parent = vec![usize::MAX; htd.num_bags()];
    let mut order = vec![0];
    let mut seen = vec![false; htd.num_bags()];
    seen[0] = true;
    let mut next = 0;
    while let Some(&v) = order.get(next) {
        next += 1;
        for &u in htd.neighbors(v) {
            if !seen[u] {
                seen[u] = true;
                parent[u] = v;
                order.push(u);
            }
        }
    }
    order.reverse();
    Ok(project_head(
        q,
        &yannakakis(&JoinTree { parent, order }, rels),
    ))
}

/// Evaluates `q` through [`decompose`]. Our own decompositions always
/// validate, so this cannot fail.
pub fn evaluate_decomposed(q: &ConjunctiveQuery, db: &Database) -> Relation {
    let htd = {
        let _p = cq_telemetry::phase("core.decompose", "cq_core_decompose_micros");
        decompose(q)
    };
    evaluate_with_decomposition(q, db, &htd).expect("constructed decomposition is valid")
}

/// The nullary TRUE relation: empty schema, one empty row.
fn true_relation() -> Relation {
    let mut r = Relation::new(Schema::with_attrs("⊤", std::iter::empty::<String>()));
    r.insert(Vec::new());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use cq_relation::Value;
    use cq_util::BitSet;

    fn db_from(rows: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (rel, row) in rows {
            db.insert_named(rel, row);
        }
        db
    }

    fn sorted_rows(r: &Relation) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = r.iter().map(|row| row.to_vec()).collect();
        rows.sort();
        rows
    }

    fn assert_matches_reference(text: &str, db: &Database) {
        let q = parse_query(text).unwrap();
        let reference = evaluate(&q, db);
        let guided = evaluate_decomposed(&q, db);
        assert_eq!(
            sorted_rows(&reference),
            sorted_rows(&guided),
            "decomposition-guided result differs on {text}"
        );
    }

    #[test]
    fn triangle_matches_reference() {
        let db = db_from(&[
            ("R", &["a", "b"]),
            ("R", &["a", "c"]),
            ("R", &["b", "c"]),
            ("R", &["c", "a"]),
        ]);
        assert_matches_reference("Q(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)", &db);
    }

    #[test]
    fn cycle_and_path_match_reference() {
        let db = db_from(&[
            ("E", &["1", "2"]),
            ("E", &["2", "3"]),
            ("E", &["3", "4"]),
            ("E", &["4", "1"]),
            ("E", &["2", "1"]),
        ]);
        assert_matches_reference("Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)", &db);
        assert_matches_reference("Q(A,C) :- E(A,B), E(B,C)", &db);
    }

    #[test]
    fn projection_and_repeats_match_reference() {
        let db = db_from(&[("R", &["a", "a"]), ("R", &["a", "b"]), ("S", &["b"])]);
        assert_matches_reference("Q(X) :- R(X,X)", &db);
        assert_matches_reference("Q(X,X) :- R(X,Y), S(Y)", &db);
    }

    #[test]
    fn unused_variable_matches_reference() {
        // Declared-but-unused variables are isolated hypergraph vertices.
        let q = ConjunctiveQuery::new(
            vec!["X".into(), "Dead".into(), "Y".into()],
            vec![0, 2],
            vec![Atom::new("R", vec![0, 2])],
        );
        let db = db_from(&[("R", &["a", "b"]), ("R", &["c", "d"])]);
        let reference = evaluate(&q, &db);
        let guided = evaluate_decomposed(&q, &db);
        assert_eq!(sorted_rows(&reference), sorted_rows(&guided));
    }

    #[test]
    fn missing_relation_gives_empty() {
        let q = parse_query("Q(X,Y) :- R(X,Y), Absent(Y)").unwrap();
        let db = db_from(&[("R", &["a", "b"])]);
        assert!(evaluate_decomposed(&q, &db).is_empty());
    }

    #[test]
    fn empty_database_gives_empty() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        assert!(evaluate_decomposed(&q, &Database::new()).is_empty());
    }

    #[test]
    fn invalid_decomposition_rejected() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        let db = db_from(&[("R", &["a", "b"])]);
        // A single bag missing variable Z: hyperedges 1 and 2 uncovered.
        let mut htd = HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1]), vec![0])]);
        let err = evaluate_with_decomposition(&q, &db, &htd).unwrap_err();
        let DecompEvalError::Invalid(why) = &err;
        assert!(why.contains("hyperedge"), "{err}");
        // Bad cover: bag claims coverage by edge 0 only.
        htd = HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1, 2]), vec![0])]);
        let err = evaluate_with_decomposition(&q, &db, &htd).unwrap_err();
        assert!(err.to_string().contains("not covered"), "{err}");
    }

    #[test]
    fn handwritten_decomposition_accepted() {
        let q = parse_query("Q(A,C) :- E(A,B), E(B,C)").unwrap();
        let db = db_from(&[("E", &["1", "2"]), ("E", &["2", "3"])]);
        let mut htd = HypertreeDecomposition::with_bags(vec![
            (BitSet::from_iter([0, 1]), vec![0]),
            (BitSet::from_iter([1, 2]), vec![1]),
        ]);
        htd.add_tree_edge(0, 1);
        let out = evaluate_with_decomposition(&q, &db, &htd).unwrap();
        let reference = evaluate(&q, &db);
        assert_eq!(sorted_rows(&reference), sorted_rows(&out));
    }

    #[test]
    fn trivial_single_bag_decomposition_works() {
        // One bag holding everything, covered by all atoms: degenerates
        // to a single WCOJ call.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        let db = db_from(&[("R", &["a", "b"]), ("S", &["b", "c"]), ("T", &["a", "c"])]);
        let htd =
            HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1, 2]), vec![0, 1, 2])]);
        let out = evaluate_with_decomposition(&q, &db, &htd).unwrap();
        assert_eq!(sorted_rows(&evaluate(&q, &db)), sorted_rows(&out));
    }
}
