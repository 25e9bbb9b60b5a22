//! Worst-case-optimal join evaluation (extension).
//!
//! The size bound of Proposition 4.1 / the AGM bound is the *reason*
//! worst-case-optimal join algorithms exist: a variable-at-a-time
//! generic join runs in time `Õ(rmax^{ρ*(Q)})` — matching the paper's
//! bound — whereas any binary-join plan can be forced to spend
//! `Ω(rmax²)` on the triangle query (its intermediates blow up past the
//! final output). This module implements the generic-join evaluator so
//! the repository can *demonstrate* the bound it proves:
//!
//! - one trie index per atom, keyed in the global variable order;
//! - at each level, candidates are drawn from the atom with the fewest
//!   continuations and intersected against the rest;
//! - repeated variables inside an atom and projection heads are handled
//!   the same way as in [`crate::eval::evaluate`].
//!
//! Experiment E21 compares this evaluator
//! against the Corollary 4.8 binary plan on AGM-worst-case inputs: the
//! binary plan's intermediates grow like `M⁴` on the triangle family
//! while generic join stays output-linear (`M³`).

use crate::query::{ConjunctiveQuery, VarIdx};
use cq_relation::{Database, Relation, Schema, Value};
use cq_util::FxHashMap;

/// A hash-trie over the distinct variables of one atom, in the global
/// variable order.
struct Trie {
    /// Variables of this trie, in binding order (a subsequence of the
    /// global order).
    vars: Vec<VarIdx>,
    root: Node,
}

#[derive(Default)]
struct Node {
    children: FxHashMap<Value, Node>,
}

impl Trie {
    fn build(
        q: &ConjunctiveQuery,
        atom_idx: usize,
        rel: &Relation,
        global_order: &[VarIdx],
    ) -> Trie {
        let atom = &q.body()[atom_idx];
        // distinct variables of the atom, sorted by global order
        let mut vars: Vec<VarIdx> = atom.var_set().iter().collect();
        let position = |v: VarIdx| global_order.iter().position(|&g| g == v).unwrap();
        vars.sort_by_key(|&v| position(v));
        // first occurrence position of each variable in the atom
        let first_pos: Vec<usize> = vars
            .iter()
            .map(|&v| atom.vars.iter().position(|&av| av == v).unwrap())
            .collect();
        let mut root = Node::default();
        'rows: for row in rel.iter() {
            // repeated variables must agree within the row
            for (pos, &v) in atom.vars.iter().enumerate() {
                let fp = first_pos[vars.iter().position(|&x| x == v).unwrap()];
                if row[fp] != row[pos] {
                    continue 'rows;
                }
            }
            let mut node = &mut root;
            for &fp in &first_pos {
                node = node.children.entry(row[fp]).or_default();
            }
        }
        Trie { vars, root }
    }

    /// Descends along the values bound so far (the prefix of `self.vars`
    /// already assigned); returns the node whose children are the
    /// candidate continuations, or `None` if the prefix is absent.
    fn descend(&self, assignment: &[Option<Value>]) -> Option<(&Node, usize)> {
        let mut node = &self.root;
        let mut depth = 0;
        for &v in &self.vars {
            match assignment[v] {
                Some(val) => match node.children.get(&val) {
                    Some(next) => {
                        node = next;
                        depth += 1;
                    }
                    None => return None,
                },
                None => break,
            }
        }
        Some((node, depth))
    }
}

/// Evaluates `q` with the generic worst-case-optimal join.
///
/// Produces exactly the same relation as [`crate::eval::evaluate`]; the
/// difference is the cost model (no intermediate materialization).
///
/// # Panics
/// Panics on atom/relation arity mismatches. Missing relations yield an
/// empty result.
pub fn evaluate_wcoj(q: &ConjunctiveQuery, db: &Database) -> Relation {
    let out_schema = Schema::with_attrs("Q", q.head().iter().map(|&v| q.var_name(v).to_owned()));
    let mut out = Relation::new(out_schema);
    let mut rels: Vec<&Relation> = Vec::with_capacity(q.num_atoms());
    for atom in q.body() {
        match db.relation(&atom.relation) {
            Some(rel) if rel.arity() == atom.vars.len() => {
                if rel.is_empty() {
                    return out;
                }
                rels.push(rel);
            }
            Some(rel) => panic!(
                "atom {} arity {} vs relation arity {}",
                atom.relation,
                atom.vars.len(),
                rel.arity()
            ),
            None => return out,
        }
    }

    let order = variable_order(q, &rels);
    let tries: Vec<Trie> = (0..q.num_atoms())
        .map(|i| Trie::build(q, i, rels[i], &order))
        .collect();

    let mut assignment: Vec<Option<Value>> = vec![None; q.num_vars()];
    search(q, &order, 0, &tries, &mut assignment, &mut out);
    out
}

/// Global variable order: greedy, preferring variables that occur in
/// many atoms (cheap intersections first), ties by smaller total
/// candidate count.
fn variable_order(q: &ConjunctiveQuery, rels: &[&Relation]) -> Vec<VarIdx> {
    let used: Vec<VarIdx> = q.used_vars().iter().collect();
    let mut order = used.clone();
    let occurrence = |v: VarIdx| q.body().iter().filter(|a| a.vars.contains(&v)).count();
    let min_rel = |v: VarIdx| {
        q.body()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.vars.contains(&v))
            .map(|(i, _)| rels[i].len())
            .min()
            .unwrap_or(usize::MAX)
    };
    order.sort_by_key(|&v| (std::cmp::Reverse(occurrence(v)), min_rel(v), v));
    order
}

fn search(
    q: &ConjunctiveQuery,
    order: &[VarIdx],
    depth: usize,
    tries: &[Trie],
    assignment: &mut Vec<Option<Value>>,
    out: &mut Relation,
) {
    if depth == order.len() {
        let row: Vec<Value> = q
            .head()
            .iter()
            .map(|&v| assignment[v].expect("head var bound"))
            .collect();
        out.insert(row);
        return;
    }
    let var = order[depth];
    // atoms whose next unbound variable is `var`
    let mut frontiers: Vec<&Node> = Vec::new();
    for trie in tries {
        if !trie.vars.contains(&var) {
            continue;
        }
        match trie.descend(assignment) {
            Some((node, d)) if trie.vars.get(d) == Some(&var) => frontiers.push(node),
            Some(_) => {
                // `var` is in this trie but deeper: a preceding variable
                // of the trie is unbound, which cannot happen since the
                // global order sorts each trie's vars consistently.
                unreachable!("trie variables follow the global order")
            }
            None => return, // prefix absent: no extension possible
        }
    }
    if frontiers.is_empty() {
        // variable not constrained at this depth (can happen only for
        // vars in no atom, which well-formedness rules out)
        unreachable!("every variable occurs in some atom");
    }
    // intersect: iterate the smallest frontier, probe the rest
    let (smallest, rest): (&Node, Vec<&Node>) = {
        let idx = frontiers
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| n.children.len())
            .map(|(i, _)| i)
            .unwrap();
        let smallest = frontiers[idx];
        let rest = frontiers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != idx)
            .map(|(_, n)| *n)
            .collect();
        (smallest, rest)
    };
    for &val in smallest.children.keys() {
        if rest.iter().all(|n| n.children.contains_key(&val)) {
            assignment[var] = Some(val);
            search(q, order, depth + 1, tries, assignment, out);
            assignment[var] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;
    use crate::size_bounds::size_bound_no_fds;

    fn db_from(rows: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (rel, tuple) in rows {
            db.insert_named(rel, tuple);
        }
        db
    }

    #[test]
    fn triangle_matches_backtracking() {
        let q = parse_query("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)").unwrap();
        let mut db = Database::new();
        for (a, b) in [
            ("a", "b"),
            ("b", "c"),
            ("a", "c"),
            ("b", "a"),
            ("c", "a"),
            ("c", "b"),
        ] {
            db.insert_named("E", &[a, b]);
        }
        let direct = evaluate(&q, &db);
        let wcoj = evaluate_wcoj(&q, &db);
        assert_eq!(direct.len(), wcoj.len());
        for row in direct.iter() {
            assert!(wcoj.contains(row));
        }
    }

    #[test]
    fn projection_and_dedup() {
        let q = parse_query("P(X) :- R(X,Y)").unwrap();
        let db = db_from(&[("R", &["a", "1"]), ("R", &["a", "2"]), ("R", &["b", "1"])]);
        assert_eq!(evaluate_wcoj(&q, &db).len(), 2);
    }

    #[test]
    fn repeated_variables() {
        let q = parse_query("P(X,Y) :- R(X,X,Y)").unwrap();
        let db = db_from(&[("R", &["a", "a", "b"]), ("R", &["a", "c", "b"])]);
        let out = evaluate_wcoj(&q, &db);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn repeated_head_variables() {
        let q = parse_query("P(X,X) :- R(X)").unwrap();
        let db = db_from(&[("R", &["a"]), ("R", &["b"])]);
        let out = evaluate_wcoj(&q, &db);
        assert_eq!(out.len(), 2);
        assert_eq!(out.arity(), 2);
    }

    #[test]
    fn disconnected_product() {
        let q = parse_query("P(X,Y) :- R(X), S(Y)").unwrap();
        let db = db_from(&[("R", &["a"]), ("R", &["b"]), ("S", &["x"]), ("S", &["y"])]);
        assert_eq!(evaluate_wcoj(&q, &db).len(), 4);
    }

    #[test]
    fn empty_and_missing_relations() {
        let q = parse_query("P(X) :- R(X), Z(X)").unwrap();
        let db = db_from(&[("R", &["a"])]);
        assert!(evaluate_wcoj(&q, &db).is_empty());
    }

    #[test]
    fn worst_case_agreement_on_agm_instances() {
        let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
        let bound = size_bound_no_fds(&q);
        for m in [2usize, 4, 6] {
            let db = crate::constructions::worst_case_database(&q, &bound.coloring, m);
            let direct = evaluate(&q, &db);
            let wcoj = evaluate_wcoj(&q, &db);
            assert_eq!(direct.len(), wcoj.len(), "M={m}");
            assert_eq!(wcoj.len(), m * m * m);
        }
    }

    #[test]
    fn self_join_with_shared_prefix() {
        // bowtie: two triangles sharing a vertex, as one edge relation
        let q = parse_query("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)").unwrap();
        let mut db = Database::new();
        for (a, b) in [
            ("c", "a1"),
            ("a1", "b1"),
            ("c", "b1"),
            ("c", "a2"),
            ("a2", "b2"),
            ("c", "b2"),
        ] {
            db.insert_named("E", &[a, b]);
        }
        let direct = evaluate(&q, &db);
        let wcoj = evaluate_wcoj(&q, &db);
        assert_eq!(direct.len(), wcoj.len());
    }

    #[test]
    fn four_cycle_query() {
        let q = parse_query("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)").unwrap();
        let mut db = Database::new();
        for i in 0..4 {
            for j in 0..4 {
                db.insert_named("R", &[&format!("a{i}"), &format!("b{j}")]);
                db.insert_named("S", &[&format!("b{i}"), &format!("c{j}")]);
                db.insert_named("T", &[&format!("c{i}"), &format!("d{j}")]);
                db.insert_named("U", &[&format!("d{i}"), &format!("a{j}")]);
            }
        }
        let direct = evaluate(&q, &db);
        let wcoj = evaluate_wcoj(&q, &db);
        assert_eq!(direct.len(), wcoj.len());
        assert_eq!(wcoj.len(), 256);
    }
}
