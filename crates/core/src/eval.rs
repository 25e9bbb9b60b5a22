//! Conjunctive query evaluation and answer counting.
//!
//! Two ways to list or count `Q(D)`, plus the Corollary 4.8 plan:
//!
//! - [`evaluate`] — the factor join of the `eliminate` module, run once
//!   over every atom: each atom becomes a factor (its rows consistent
//!   with repeated variables, projected onto its distinct variables),
//!   the factors are ordered greedily by the variables they share with
//!   those before them and indexed on those variables, and a depth-first
//!   index-nested-loop join lists every assignment, whose head tuple is
//!   inserted into the output. Correct for every conjunctive query
//!   (projections, repeated variables, repeated relations).
//! - [`count_answers`] — `|Q(D)|` without building `Q(D)`, by
//!   sum-product variable elimination along a min-fill order with the
//!   existential variables first: `∃` over those, saturating `Σ` over the
//!   head. Each step sums one variable out of the factors that mention
//!   it, and multiplies the result into a factor that covers the rest of
//!   their variables when there is one, so the triangle is
//!   `Σ_{E(x,y)} |out(x) ∩ out(y)|` on bitset rows. It is the one way
//!   answers are counted; the count opens a `core.count.eliminate` span.
//! - [`join_project_plan`] / [`evaluate_by_plan`] — the Corollary 4.8
//!   plan for queries whose head contains all variables: each atom is
//!   reduced to a relation over its distinct variables, then the atoms
//!   are natural-joined in a greedy connected order. When
//!   `C(chase(Q))` is bounded, every intermediate is polynomial in
//!   `rmax(D)` and the plan runs in `O(|Q|² · rmax^{C+1})`-shaped time.
//!
//! The semantics follow §2 of the paper: `Q(D)` contains `θ(u0)` for
//! every substitution `θ : var(Q) → U_D` with `θ(uj) ∈ R_{ij}` for all j.

use crate::eliminate::{descend, probes, Elimination, Factor};
use crate::query::{Atom, ConjunctiveQuery, VarIdx};
use cq_relation::{natural_join, Database, Relation, Schema, Value};
use cq_telemetry::Span;
use std::fmt;
use std::ops::ControlFlow;

/// Evaluates `q` over `db`, returning the output relation (named `Q`,
/// one column per head position).
///
/// ```
/// use cq_core::{evaluate, parse_query};
/// use cq_relation::Database;
/// let q = parse_query("P(X,Z) :- R(X,Y), R(Y,Z)").unwrap();
/// let mut db = Database::new();
/// db.insert_named("R", &["a", "b"]);
/// db.insert_named("R", &["b", "c"]);
/// assert_eq!(evaluate(&q, &db).len(), 1); // (a, c)
/// ```
///
/// # Panics
/// Panics if a body atom's arity differs from its relation's arity
/// (see [`check_arities`]). A body atom over an absent relation yields
/// an empty result.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Relation {
    let out_schema = Schema::with_attrs("Q", q.head().iter().map(|&v| q.var_name(v).to_owned()));
    let mut out = Relation::new(out_schema);
    let Some(rels) = body_relations(q, db) else {
        return out;
    };
    // Every relation is nonempty here, so a nullary atom holds; it is
    // left out because its factor has no row for the join to index.
    let factors: Vec<Factor> = q
        .body()
        .iter()
        .zip(rels)
        .filter(|(atom, _)| !atom.vars.is_empty())
        .map(|(atom, rel)| Factor::of_atom(atom, rel))
        .collect();
    let factors: Vec<&Factor> = factors.iter().collect();
    let probes = probes(&factors, &mut vec![false; q.num_vars()]);
    let mut assignment: Vec<Option<Value>> = vec![None; q.num_vars()];
    let mut row = Vec::with_capacity(q.head().len());
    let _ = descend(&probes, &mut assignment, &mut Vec::new(), 1, &mut |a, _| {
        row.clear();
        row.extend(q.head().iter().map(|&v| a[v].expect("head variable bound")));
        out.insert(&row);
        ControlFlow::Continue(())
    });
    out
}

/// `|Q(D)|`, equal to `evaluate(q, db).len()` whenever that is below
/// `u64::MAX`, computed without building the output relation, by
/// variable elimination (see the `eliminate` module). The count opens
/// one span, `core.count.eliminate`.
///
/// The weights of the ℕ phase saturate at `u64::MAX` instead of
/// overflowing, so the result is `min(|Q(D)|, 2^64 − 1)` (clamped to
/// `usize::MAX` on narrower targets): exact for every answer below
/// `u64::MAX`. Every weight is a positive count of partial answers, so a
/// row carrying a saturated weight either drops out of a later join or
/// contributes to the answer, and if it contributes, the true answer is
/// at least that weight. The result therefore saturates exactly when
/// `|Q(D)| ≥ 2^64 − 1`.
///
/// ```
/// use cq_core::{count_answers, parse_query};
/// use cq_relation::Database;
/// let q = parse_query("P(X,Z) :- R(X,Y), R(Y,Z)").unwrap();
/// let mut db = Database::new();
/// db.insert_named("R", &["a", "b"]);
/// db.insert_named("R", &["b", "c"]);
/// assert_eq!(count_answers(&q, &db), 1); // (a, c)
/// ```
///
/// # Panics
/// As [`evaluate`].
pub fn count_answers(q: &ConjunctiveQuery, db: &Database) -> usize {
    let rels = body_relations(q, db);
    let _span = Span::enter("core.count.eliminate");
    let Some(rels) = rels else {
        return 0;
    };
    let sizes: Vec<usize> = rels.iter().map(|rel| rel.len()).collect();
    let count = Elimination::new(q, &sizes).run(q, &rels);
    usize::try_from(count).unwrap_or(usize::MAX)
}

/// A body atom whose relation has a different arity in the database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArityError {
    /// The relation name.
    pub relation: String,
    /// Arity of the atom in the query.
    pub query_arity: usize,
    /// Arity of the relation in the database.
    pub database_arity: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "relation {} has {} columns in the database but the query uses it with {}",
            self.relation, self.database_arity, self.query_arity
        )
    }
}

impl std::error::Error for ArityError {}

/// Checks that every body atom of `q` whose relation is present in `db`
/// has that relation's arity — the precondition under which
/// [`evaluate`] and [`count_answers`] do not panic.
pub fn check_arities(q: &ConjunctiveQuery, db: &Database) -> Result<(), ArityError> {
    for atom in q.body() {
        if let Some(rel) = db.relation(&atom.relation) {
            if rel.arity() != atom.vars.len() {
                return Err(ArityError {
                    relation: atom.relation.clone(),
                    query_arity: atom.vars.len(),
                    database_arity: rel.arity(),
                });
            }
        }
    }
    Ok(())
}

/// The body's relations, one per atom; `None` when some relation is
/// absent or empty (`Q(D)` is then empty).
///
/// # Panics
/// As [`evaluate`].
fn body_relations<'a>(q: &ConjunctiveQuery, db: &'a Database) -> Option<Vec<&'a Relation>> {
    if let Err(e) = check_arities(q, db) {
        panic!("{e}");
    }
    q.body()
        .iter()
        .map(|atom| db.relation(&atom.relation).filter(|rel| !rel.is_empty()))
        .collect()
}

/// Reduces one atom to a relation over its *distinct* variables:
/// rows inconsistent with repeated variables are filtered, duplicate
/// columns dropped, and columns renamed to variable names.
pub fn atom_relation(q: &ConjunctiveQuery, atom: &Atom, db: &Database) -> Relation {
    let (distinct, first, equal) = atom_columns(atom);
    let schema = Schema::with_attrs(
        format!("π({})", atom.relation),
        distinct.iter().map(|&v| q.var_name(v).to_owned()),
    );
    let mut out = Relation::new(schema);
    let Some(rel) = db.relation(&atom.relation) else {
        return out;
    };
    assert_eq!(rel.arity(), atom.vars.len(), "atom/relation arity mismatch");
    let mut proj = Vec::with_capacity(first.len());
    for row in rel.iter() {
        if equal.iter().all(|&(p, at)| row[p] == row[at]) {
            proj.clear();
            proj.extend(first.iter().map(|&p| row[p]));
            out.insert(&proj);
        }
    }
    out
}

/// An atom's distinct variables in first-occurrence order, each one's
/// first position, and the `(position, earlier position)` pairs of its
/// repeated variables, on which a row must agree.
pub(crate) fn atom_columns(atom: &Atom) -> (Vec<VarIdx>, Vec<usize>, Vec<(usize, usize)>) {
    let mut distinct = Vec::with_capacity(atom.vars.len());
    let mut first = Vec::with_capacity(atom.vars.len());
    let mut equal = Vec::new();
    for (pos, &v) in atom.vars.iter().enumerate() {
        match distinct.iter().position(|&u| u == v) {
            Some(i) => equal.push((pos, first[i])),
            None => {
                distinct.push(v);
                first.push(pos);
            }
        }
    }
    (distinct, first, equal)
}

/// The join-project plan of Corollary 4.8: the order in which atoms are
/// natural-joined (greedy connected order by shared variables).
pub fn join_project_plan(q: &ConjunctiveQuery) -> Vec<usize> {
    let m = q.num_atoms();
    let mut remaining: Vec<usize> = (0..m).collect();
    let mut order = Vec::with_capacity(m);
    let mut bound: Vec<bool> = vec![false; q.num_vars()];
    while !remaining.is_empty() {
        let &best = remaining
            .iter()
            .max_by_key(|&&ai| {
                let shared = q.body()[ai].vars.iter().filter(|&&v| bound[v]).count();
                let arity = q.body()[ai].vars.len();
                (shared, std::cmp::Reverse(arity), std::cmp::Reverse(ai))
            })
            .unwrap();
        remaining.retain(|&x| x != best);
        for &v in &q.body()[best].vars {
            bound[v] = true;
        }
        order.push(best);
    }
    order
}

/// Evaluates a **join query** (head contains all variables) by the
/// Corollary 4.8 join-project plan. Returns the output relation plus the
/// sizes of every intermediate (for the E06 experiment, which checks the
/// `rmax^{C}` intermediate bound).
///
/// # Panics
/// Panics if some variable is missing from the head.
pub fn evaluate_by_plan(q: &ConjunctiveQuery, db: &Database) -> (Relation, Vec<usize>) {
    assert!(
        q.is_join_query(),
        "join-project plan requires all variables in the head (Corollary 4.8)"
    );
    let order = join_project_plan(q);
    let mut intermediates = Vec::with_capacity(order.len());
    let mut acc: Option<Relation> = None;
    for &ai in &order {
        let next = atom_relation(q, &q.body()[ai], db);
        acc = Some(match acc {
            None => next,
            Some(prev) => natural_join(&prev, &next, "⋈"),
        });
        intermediates.push(acc.as_ref().unwrap().len());
    }
    let joined = acc.expect("query has at least one atom");
    (project_head(q, &joined), intermediates)
}

/// Projects a join over `q`'s variables (columns named by variable) to
/// the head, repeats allowed: the output schema of [`evaluate`].
pub(crate) fn project_head(q: &ConjunctiveQuery, joined: &Relation) -> Relation {
    let cols: Vec<usize> = q
        .head()
        .iter()
        .map(|&v| {
            joined
                .schema()
                .position(q.var_name(v))
                .expect("head variable in join result")
        })
        .collect();
    joined.project(&cols, "Q")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase;
    use crate::parser::{parse_program, parse_query};
    use proptest::prelude::*;

    fn db_from(rows: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (rel, tuple) in rows {
            db.insert_named(rel, tuple);
        }
        db
    }

    #[test]
    fn triangle_counts_triangles() {
        let q = parse_query("T(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)").unwrap();
        // K3 as a symmetric edge relation: 6 ordered triangles
        let mut db = Database::new();
        for (a, b) in [
            ("a", "b"),
            ("b", "a"),
            ("b", "c"),
            ("c", "b"),
            ("a", "c"),
            ("c", "a"),
        ] {
            db.insert_named("E", &[a, b]);
        }
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn example_2_1_square() {
        // R'(X,Y,Z) <- R(X,Y), R(X,Z) over the star: n^2 tuples.
        let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
        let mut db = Database::new();
        let n = 7;
        for i in 1..=n {
            db.insert_named("R", &["hub", &format!("v{i}")]);
        }
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), n * n);
    }

    #[test]
    fn projection_deduplicates() {
        let q = parse_query("P(X) :- R(X,Y)").unwrap();
        let db = db_from(&[("R", &["a", "1"]), ("R", &["a", "2"]), ("R", &["b", "1"])]);
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn repeated_variable_in_atom_filters() {
        let q = parse_query("P(X) :- R(X,X)").unwrap();
        let db = db_from(&[("R", &["a", "a"]), ("R", &["a", "b"])]);
        let out = evaluate(&q, &db);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn repeated_head_variable() {
        let q = parse_query("P(X,X,Y) :- R(X,Y)").unwrap();
        let db = db_from(&[("R", &["a", "b"])]);
        let out = evaluate(&q, &db);
        assert_eq!(out.arity(), 3);
        assert_eq!(out.len(), 1);
        let row: Vec<Value> = out.iter().next().unwrap().to_vec();
        assert_eq!(row[0], row[1]);
    }

    #[test]
    fn missing_relation_is_empty() {
        let q = parse_query("P(X) :- R(X), Zzz(X)").unwrap();
        let db = db_from(&[("R", &["a"])]);
        assert!(evaluate(&q, &db).is_empty());
    }

    #[test]
    fn disconnected_query_is_product() {
        let q = parse_query("P(X,Y) :- R(X), S(Y)").unwrap();
        let db = db_from(&[
            ("R", &["a"]),
            ("R", &["b"]),
            ("S", &["x"]),
            ("S", &["y"]),
            ("S", &["z"]),
        ]);
        assert_eq!(evaluate(&q, &db).len(), 6);
    }

    #[test]
    fn plan_matches_backtracking_on_join_queries() {
        let q = parse_query("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)").unwrap();
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
        let (planned, intermediates) = evaluate_by_plan(&q, &db);
        assert_eq!(direct.len(), planned.len());
        assert_eq!(intermediates.len(), 3);
        for row in direct.iter() {
            assert!(planned.contains(row));
        }
    }

    #[test]
    #[should_panic]
    fn plan_rejects_projection_queries() {
        let q = parse_query("Q(X) :- R(X,Y)").unwrap();
        let db = Database::new();
        let _ = evaluate_by_plan(&q, &db);
    }

    #[test]
    fn atom_relation_handles_repeats() {
        let q = parse_query("Q(X,Y) :- R(X,X,Y)").unwrap();
        let db = db_from(&[("R", &["a", "a", "b"]), ("R", &["a", "c", "b"])]);
        let ar = atom_relation(&q, &q.body()[0], &db);
        assert_eq!(ar.arity(), 2);
        assert_eq!(ar.len(), 1);
    }

    /// Fact 2.4: Q(D) = chase(Q)(D) on databases satisfying the FDs.
    #[test]
    fn fact_2_4_worked_example() {
        let (q, fds) =
            parse_program("R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z)\nkey R1[1]").unwrap();
        let chased = chase(&q, &fds);
        let mut db = Database::new();
        // key-respecting R1; include the all-equal tuple (w,w,w)
        db.insert_named("R1", &["w", "w", "w"]);
        db.insert_named("R1", &["u", "v", "t"]);
        db.insert_named("R2", &["w", "z1"]);
        db.insert_named("R2", &["w", "z2"]);
        db.insert_named("R2", &["t", "z3"]);
        assert!(db.satisfies(&fds));
        let out1 = evaluate(&q, &db);
        let out2 = evaluate(&chased.query, &db);
        assert_eq!(out1.len(), out2.len());
        for row in out1.iter() {
            assert!(out2.contains(row));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Fact 2.4 property test: random key-respecting databases.
        #[test]
        fn fact_2_4_random(seed in 0u64..10_000) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let (q, fds) = parse_program(
                "Q(X,Y,Z) :- S(X,Y), S(X,Z), T(Y,Z)\nkey S[1]",
            ).unwrap();
            let chased = chase(&q, &fds);
            // random S respecting key on column 1: one row per key value
            let mut db = Database::new();
            let dom = ["a","b","c","d"];
            for (i, k) in dom.iter().enumerate().take(rng.gen_range(1..=4)) {
                let v = dom[rng.gen_range(0..dom.len())];
                let _ = i;
                db.insert_named("S", &[k, v]);
            }
            for _ in 0..rng.gen_range(0..8) {
                let a = dom[rng.gen_range(0..dom.len())];
                let b = dom[rng.gen_range(0..dom.len())];
                db.insert_named("T", &[a, b]);
            }
            prop_assume!(db.satisfies(&fds));
            let out1 = evaluate(&q, &db);
            let out2 = evaluate(&chased.query, &db);
            prop_assert_eq!(out1.len(), out2.len());
            for row in out1.iter() {
                prop_assert!(out2.contains(row));
            }
        }

        /// The join-project plan agrees with backtracking on random
        /// two-atom join queries and random small databases.
        #[test]
        fn plan_equals_backtracking_random(seed in 0u64..10_000) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let q = parse_query("Q(X,Y,Z) :- R(X,Y), S(Y,Z)").unwrap();
            let mut db = Database::new();
            let dom = ["a","b","c"];
            for _ in 0..rng.gen_range(0..10) {
                let x = dom[rng.gen_range(0..3)];
                let y = dom[rng.gen_range(0..3)];
                db.insert_named("R", &[x, y]);
            }
            for _ in 0..rng.gen_range(0..10) {
                let y = dom[rng.gen_range(0..3)];
                let z = dom[rng.gen_range(0..3)];
                db.insert_named("S", &[y, z]);
            }
            let direct = evaluate(&q, &db);
            let (planned, _) = evaluate_by_plan(&q, &db);
            prop_assert_eq!(direct.len(), planned.len());
            for row in direct.iter() {
                prop_assert!(planned.contains(row));
            }
        }
    }
}
