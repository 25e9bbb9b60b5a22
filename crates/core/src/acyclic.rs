//! Acyclic conjunctive queries: GYO reduction, join trees, and
//! Yannakakis evaluation (extension).
//!
//! The paper's Corollary 4.8 gives output-polynomial evaluation whenever
//! the color number is bounded; for **α-acyclic** queries the classical
//! Yannakakis algorithm achieves `O(input + output)` regardless of the
//! color number — the natural complement, and the `tw = 1` base case of
//! the treewidth story of §5. This module provides:
//!
//! - [`gyo_join_tree`] — the Graham/Yu–Özsoyoğlu reduction; returns a
//!   join tree iff the query hypergraph is α-acyclic;
//! - [`is_acyclic`];
//! - [`evaluate_yannakakis`] — full semijoin reduction down/up the join
//!   tree, then joins in tree order. For queries with projection the
//!   final projection is applied at the end (the classical algorithm;
//!   output-linear for full queries).

use crate::eval::{atom_relation, project_head};
use crate::query::ConjunctiveQuery;
use cq_relation::{natural_join, Database, Relation, TupleMap};
use cq_util::{BitSet, FxHashSet};

/// A join tree over body-atom indices (or, for decomposition-guided
/// evaluation, over bags): `parent[i]` is the parent of atom `i`
/// (`usize::MAX` for the root), and `order` lists atoms leaves-first.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// Parent atom index per atom (root: `usize::MAX`).
    pub parent: Vec<usize>,
    /// Atom indices ordered leaves-first (parents always later).
    pub order: Vec<usize>,
}

impl JoinTree {
    /// The root atom.
    pub fn root(&self) -> usize {
        *self.order.last().expect("nonempty tree")
    }

    /// Children lists per atom.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (i, &p) in self.parent.iter().enumerate() {
            if p != usize::MAX {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Checks the join-tree property against `q`: for every variable,
    /// the atoms containing it form a connected subtree.
    pub fn validate(&self, q: &ConjunctiveQuery) -> Result<(), String> {
        let ch = self.children();
        for v in q.used_vars().iter() {
            let holders: Vec<usize> = (0..q.num_atoms())
                .filter(|&i| q.body()[i].vars.contains(&v))
                .collect();
            // connected check: BFS from holders[0] through tree edges
            // restricted to holders
            let mut reach = FxHashSet::default();
            reach.insert(holders[0]);
            let mut stack = vec![holders[0]];
            while let Some(a) = stack.pop() {
                let mut nbrs = ch[a].clone();
                if self.parent[a] != usize::MAX {
                    nbrs.push(self.parent[a]);
                }
                for n in nbrs {
                    if holders.contains(&n) && reach.insert(n) {
                        stack.push(n);
                    }
                }
            }
            if reach.len() != holders.len() {
                return Err(format!(
                    "variable {} induces a disconnected subtree",
                    q.var_name(v)
                ));
            }
        }
        Ok(())
    }
}

/// GYO reduction. Returns a [`JoinTree`] when `q` is α-acyclic, `None`
/// otherwise.
///
/// The reduction repeatedly (a) deletes variables occurring in exactly
/// one remaining atom and (b) attaches an atom whose (remaining)
/// variable set is contained in another atom's to that atom. The query
/// is acyclic iff everything reduces away.
pub fn gyo_join_tree(q: &ConjunctiveQuery) -> Option<JoinTree> {
    let m = q.num_atoms();
    if m == 0 {
        return None;
    }
    let mut sets: Vec<BitSet> = q.body().iter().map(|a| a.var_set()).collect();
    let mut alive: Vec<bool> = vec![true; m];
    let mut parent = vec![usize::MAX; m];
    let mut order = Vec::with_capacity(m);
    loop {
        let alive_count = alive.iter().filter(|&&a| a).count();
        if alive_count <= 1 {
            if let Some(root) = (0..m).find(|&i| alive[i]) {
                order.push(root);
            }
            let tree = JoinTree { parent, order };
            return Some(tree);
        }
        let mut progressed = false;
        // (a) delete isolated variables (occurring in one alive atom)
        let mut var_count: std::collections::HashMap<usize, usize> = Default::default();
        for (i, s) in sets.iter().enumerate() {
            if alive[i] {
                for v in s.iter() {
                    *var_count.entry(v).or_insert(0) += 1;
                }
            }
        }
        for (i, s) in sets.iter_mut().enumerate() {
            if !alive[i] {
                continue;
            }
            let lonely: Vec<usize> = s.iter().filter(|v| var_count[v] == 1).collect();
            for v in lonely {
                s.remove(v);
                progressed = true;
            }
        }
        // (b) absorb contained atoms (ears)
        'outer: for i in 0..m {
            if !alive[i] {
                continue;
            }
            for j in 0..m {
                if i == j || !alive[j] {
                    continue;
                }
                // ties broken towards the later atom so the reduction
                // terminates on duplicate sets
                if sets[i].is_subset(&sets[j]) && (sets[i] != sets[j] || i < j) {
                    alive[i] = false;
                    parent[i] = j;
                    order.push(i);
                    progressed = true;
                    continue 'outer;
                }
            }
        }
        if !progressed {
            return None; // stuck: cyclic
        }
    }
}

/// `true` iff the query hypergraph is α-acyclic.
pub fn is_acyclic(q: &ConjunctiveQuery) -> bool {
    gyo_join_tree(q).is_some()
}

/// Semijoin `left ⋉ right` on equal attribute names: keeps `left` rows
/// with a match in `right`. (Also the reduction step of the
/// decomposition-guided evaluator in [`crate::decomp_eval`].)
pub fn semijoin(left: &Relation, right: &Relation) -> Relation {
    let shared: Vec<(usize, usize)> = left
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .filter_map(|(li, a)| right.schema().position(a).map(|ri| (li, ri)))
        .collect();
    if shared.is_empty() {
        if right.is_empty() {
            return Relation::new(left.schema().clone());
        }
        return left.clone();
    }
    let mut keys: TupleMap<()> = TupleMap::new(shared.len());
    let mut key = Vec::with_capacity(shared.len());
    for row in right.iter() {
        key.clear();
        key.extend(shared.iter().map(|&(_, r)| row[r]));
        keys.insert(&key, ());
    }
    left.select(|row| {
        key.clear();
        key.extend(shared.iter().map(|&(l, _)| row[l]));
        keys.get(&key).is_some()
    })
}

/// Yannakakis evaluation for α-acyclic queries: semijoin passes
/// (leaves→root, then root→leaves), then joins leaves-first, projecting
/// to the head at the end.
///
/// # Panics
/// Panics if `q` is cyclic (check [`is_acyclic`] first).
pub fn evaluate_yannakakis(q: &ConjunctiveQuery, db: &Database) -> Relation {
    let tree = gyo_join_tree(q).expect("Yannakakis requires an acyclic query");
    let rels = q
        .body()
        .iter()
        .map(|atom| atom_relation(q, atom, db))
        .collect();
    project_head(q, &yannakakis(&tree, rels))
}

/// The Yannakakis passes over `tree`, whose node `i` holds `rels[i]`:
/// upward semijoins (leaves first), downward semijoins (root first),
/// then each node joined into its parent, leaves first. Returns the
/// root's relation, the join of every node reachable from it. Also the
/// bag-tree pass of [`crate::decomp_eval`].
pub(crate) fn yannakakis(tree: &JoinTree, mut rels: Vec<Relation>) -> Relation {
    let edges = || {
        tree.order
            .iter()
            .map(|&i| (i, tree.parent[i]))
            .filter(|&(_, p)| p != usize::MAX)
    };
    for (i, p) in edges() {
        rels[p] = semijoin(&rels[p], &rels[i]);
    }
    for (i, p) in edges().rev() {
        rels[i] = semijoin(&rels[i], &rels[p]);
    }
    for (i, p) in edges() {
        rels[p] = natural_join(&rels[p], &rels[i], "⋈");
    }
    rels.swap_remove(tree.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_query;

    #[test]
    fn acyclicity_classification() {
        let cases = [
            ("Q(X,Y) :- R(X,Y)", true),
            ("Q(X,Z) :- R(X,Y), S(Y,Z)", true),             // path
            ("Q(X,Y,Z,W) :- R(X,Y), S(X,Z), T(X,W)", true), // star
            ("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)", false),  // triangle
            ("Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)", false), // 4-cycle
            ("Q(X,Y,Z) :- R(X,Y,Z), S(X,Y), T(Y,Z)", true), // ear-covered
            ("Q(X,Y) :- R(X), S(Y)", true),                 // disconnected
        ];
        for (text, expect) in cases {
            let q = parse_query(text).unwrap();
            assert_eq!(is_acyclic(&q), expect, "{text}");
        }
    }

    #[test]
    fn join_tree_validates() {
        for text in [
            "Q(X,Z) :- R(X,Y), S(Y,Z)",
            "Q(X,Y,Z,W) :- R(X,Y), S(X,Z), T(X,W)",
            "Q(X,Y,Z) :- R(X,Y,Z), S(X,Y), T(Y,Z)",
        ] {
            let q = parse_query(text).unwrap();
            let tree = gyo_join_tree(&q).unwrap();
            tree.validate(&q).unwrap();
            assert_eq!(tree.order.len(), q.num_atoms());
        }
    }

    #[test]
    fn yannakakis_matches_backtracking() {
        let q = parse_query("Q(X,Z) :- R(X,Y), S(Y,Z)").unwrap();
        let mut db = Database::new();
        for (a, b) in [("a", "1"), ("b", "1"), ("b", "2"), ("c", "9")] {
            db.insert_named("R", &[a, b]);
        }
        for (b, c) in [("1", "x"), ("2", "y"), ("3", "z")] {
            db.insert_named("S", &[b, c]);
        }
        let direct = evaluate(&q, &db);
        let yan = evaluate_yannakakis(&q, &db);
        assert_eq!(direct.len(), yan.len());
        for row in direct.iter() {
            assert!(yan.contains(row));
        }
    }

    #[test]
    fn yannakakis_on_duplicate_atoms() {
        // chase-style duplicate-free queries are the common case, but
        // identical atoms must also work (they absorb each other in GYO).
        let q = parse_query("Q(X,Y) :- R(X,Y), R(X,Y)").unwrap();
        let mut db = Database::new();
        db.insert_named("R", &["a", "b"]);
        let yan = evaluate_yannakakis(&q, &db);
        assert_eq!(yan.len(), 1);
    }

    #[test]
    #[should_panic]
    fn yannakakis_rejects_cyclic() {
        let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)").unwrap();
        let _ = evaluate_yannakakis(&q, &Database::new());
    }

    #[test]
    fn yannakakis_random_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // random path query of length 2..4 (always acyclic)
            let len = rng.gen_range(2..5);
            let vars: Vec<String> = (0..=len).map(|i| format!("V{i}")).collect();
            let mut text = format!("Q({}) :- ", vars.join(","));
            let atoms: Vec<String> = (0..len).map(|i| format!("E{i}(V{i},V{})", i + 1)).collect();
            text.push_str(&atoms.join(", "));
            let q = parse_query(&text).unwrap();
            let mut db = Database::new();
            for i in 0..len {
                for _ in 0..rng.gen_range(1..10) {
                    let a = format!("n{}", rng.gen_range(0..4));
                    let b = format!("n{}", rng.gen_range(0..4));
                    db.insert_named(&format!("E{i}"), &[&a, &b]);
                }
            }
            let direct = evaluate(&q, &db);
            let yan = evaluate_yannakakis(&q, &db);
            assert_eq!(direct.len(), yan.len(), "seed {seed}: {text}");
        }
    }

    #[test]
    fn semijoin_behaviour() {
        use cq_relation::{Schema, SymbolTable};
        let mut t = SymbolTable::new();
        let mut l = Relation::new(Schema::with_attrs("L", ["X", "Y"]));
        l.insert(vec![t.intern("a"), t.intern("1")]);
        l.insert(vec![t.intern("b"), t.intern("2")]);
        let mut r = Relation::new(Schema::with_attrs("R", ["Y", "Z"]));
        r.insert(vec![t.intern("1"), t.intern("p")]);
        let s = semijoin(&l, &r);
        assert_eq!(s.len(), 1);
        // disjoint schemas: right nonempty keeps everything
        let mut w = Relation::new(Schema::with_attrs("W", ["Q"]));
        w.insert(vec![t.intern("z")]);
        assert_eq!(semijoin(&l, &w).len(), 2);
        // disjoint schemas: right empty clears
        let empty = Relation::new(Schema::with_attrs("W", ["Q"]));
        assert_eq!(semijoin(&l, &empty).len(), 0);
    }

    #[test]
    fn acyclic_queries_preserving_treewidth() {
        // connection to §5: a full acyclic query whose head pairs all
        // co-occur is treewidth-preserving AND Yannakakis-evaluable.
        let q = parse_query("Q(X,Y,Z) :- R(X,Y,Z), S(X,Y)").unwrap();
        assert!(is_acyclic(&q));
        assert_eq!(
            crate::treewidth::treewidth_preservation_no_fds(&q),
            crate::treewidth::TwPreservation::Preserved
        );
    }
}
