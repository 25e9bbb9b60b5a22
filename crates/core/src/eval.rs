//! Conjunctive query evaluation and answer counting.
//!
//! Two ways to list or count `Q(D)`, plus the Corollary 4.8 plan:
//!
//! - [`evaluate`] — the planned search: index-nested-loop backtracking
//!   over body atoms in a greedy connected order, with per-atom hash
//!   indexes on the positions bound at that point of the order. Each
//!   index is one buffer of row numbers grouped by key (a key maps to a
//!   range of it), with a group's rows in relation order. Correct for
//!   every conjunctive query (projections, repeated variables, repeated
//!   relations).
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

use crate::eliminate::Elimination;
use crate::query::{Atom, ConjunctiveQuery, VarIdx};
use cq_relation::{natural_join, Database, Relation, Schema, TupleMap, Value};
use cq_telemetry::Span;
use std::fmt;

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
    if let Some(plan) = Plan::new(q, db) {
        let mut row = Vec::with_capacity(q.head().len());
        plan.search(|assignment| {
            row.clear();
            row.extend(q.head().iter().map(|&v| bound(assignment, v)));
            out.insert(&row);
        });
    }
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

fn bound(assignment: &[Option<Value>], v: VarIdx) -> Value {
    assignment[v].expect("variable bound by an earlier step")
}

/// The search plan of [`evaluate`]: body atoms in greedy connected
/// order, each with its rows indexed on the positions bound when it is
/// reached.
struct Plan<'a> {
    steps: Vec<Step<'a>>,
    num_vars: usize,
}

struct Step<'a> {
    /// Variables at the indexed positions, in position order: those bound
    /// by earlier steps (none for the first step, a full scan).
    key_vars: Vec<VarIdx>,
    /// The atom's relation.
    rel: &'a Relation,
    /// The rows consistent with the atom's repeated variables, indexed
    /// on the key positions.
    index: RowIndex,
    /// Positions that newly bind a variable (first occurrence).
    binds: Vec<(usize, VarIdx)>,
}

impl<'a> Plan<'a> {
    /// `None` when some body atom's relation is absent or empty (the
    /// output is then empty).
    fn new(q: &ConjunctiveQuery, db: &'a Database) -> Option<Self> {
        let atom_rels = body_relations(q, db)?;
        let order = atom_order(q.body(), &atom_rels);

        let mut bound: Vec<bool> = vec![false; q.num_vars()];
        let mut steps = Vec::with_capacity(order.len());
        for ai in order {
            let atom = &q.body()[ai];
            let mut key_pos: Vec<usize> = Vec::new();
            // (position, earlier position of the same unbound variable)
            let mut equal: Vec<(usize, usize)> = Vec::new();
            let mut binds: Vec<(usize, VarIdx)> = Vec::new();
            for (pos, &v) in atom.vars.iter().enumerate() {
                if bound[v] {
                    key_pos.push(pos);
                } else if let Some(&(first, _)) = binds.iter().find(|&&(_, b)| b == v) {
                    equal.push((pos, first));
                } else {
                    binds.push((pos, v));
                }
            }
            let rel = atom_rels[ai];
            let index = RowIndex::new(rel.iter(), rel.len(), &key_pos, &equal);
            for &(_, v) in &binds {
                bound[v] = true;
            }
            steps.push(Step {
                key_vars: key_pos.iter().map(|&p| atom.vars[p]).collect(),
                rel,
                index,
                binds,
            });
        }
        Some(Plan {
            steps,
            num_vars: q.num_vars(),
        })
    }

    /// Depth-first search: calls `visit` with each assignment satisfying
    /// every step, in row order.
    fn search(&self, mut visit: impl FnMut(&[Option<Value>])) {
        let mut assignment = vec![None; self.num_vars];
        let mut key = Vec::new();
        descend(&self.steps, &mut assignment, &mut key, &mut visit);
    }
}

fn descend(
    steps: &[Step],
    assignment: &mut [Option<Value>],
    key: &mut Vec<Value>,
    visit: &mut impl FnMut(&[Option<Value>]),
) {
    let Some((step, rest)) = steps.split_first() else {
        visit(assignment);
        return;
    };
    // Variables bound here are rebound before any deeper step reads
    // them, so backtracking needs no reset.
    for &row in step.candidates(assignment, key) {
        step.bind(row, assignment);
        descend(rest, assignment, key, visit);
    }
}

/// Row numbers grouped by their values at some key positions, in one
/// buffer: each key maps to a group `g`, whose rows are
/// `rows[starts[g]..starts[g + 1]]`, in row order within a group.
pub(crate) struct RowIndex {
    groups: TupleMap<u32>,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl RowIndex {
    /// Indexes the `len` rows of `rows` on the positions `key_pos`,
    /// keeping the rows whose positions in each `equal` pair agree.
    pub(crate) fn new<'r>(
        rows: impl Iterator<Item = &'r [Value]>,
        len: usize,
        key_pos: &[usize],
        equal: &[(usize, usize)],
    ) -> RowIndex {
        const SKIP: u32 = u32::MAX;
        assert!(len < SKIP as usize, "relation too large to index");
        let mut groups: TupleMap<u32> = TupleMap::new(key_pos.len());
        // Each row's group (or SKIP); then `sizes` becomes the fill cursor.
        let mut group_of: Vec<u32> = Vec::with_capacity(len);
        let mut sizes: Vec<u32> = Vec::new();
        let mut key = Vec::with_capacity(key_pos.len());
        for row in rows {
            if !equal.iter().all(|&(p, first)| row[p] == row[first]) {
                group_of.push(SKIP);
                continue;
            }
            key.clear();
            key.extend(key_pos.iter().map(|&p| row[p]));
            let g = *groups.get_or_insert_with(&key, || {
                sizes.push(0);
                (sizes.len() - 1) as u32
            });
            sizes[g as usize] += 1;
            group_of.push(g);
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut total = 0;
        for size in &mut sizes {
            let start = total;
            total += *size;
            starts.push(start);
            *size = start;
        }
        starts.push(total);
        let mut rows = vec![0; total as usize];
        for (i, &g) in group_of.iter().enumerate() {
            if g != SKIP {
                let at = &mut sizes[g as usize];
                rows[*at as usize] = i as u32;
                *at += 1;
            }
        }
        RowIndex {
            groups,
            starts,
            rows,
        }
    }

    /// Number of groups.
    pub(crate) fn num_groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// Numbers of the rows in group `g`.
    pub(crate) fn group(&self, g: usize) -> &[u32] {
        &self.rows[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Numbers of the rows whose key is `key` (none when it is absent).
    pub(crate) fn get(&self, key: &[Value]) -> &[u32] {
        self.groups
            .get(key)
            .map_or(&[], |&g| self.group(g as usize))
    }
}

impl Step<'_> {
    /// Numbers of the rows agreeing with `assignment` on the indexed
    /// positions.
    fn candidates(&self, assignment: &[Option<Value>], key: &mut Vec<Value>) -> &[u32] {
        key.clear();
        key.extend(self.key_vars.iter().map(|&v| bound(assignment, v)));
        self.index.get(key)
    }

    /// Binds the variables this step introduces to their values in row
    /// number `row`.
    fn bind(&self, row: u32, assignment: &mut [Option<Value>]) {
        let row = self.rel.row(row as usize);
        for &(pos, v) in &self.binds {
            assignment[v] = Some(row[pos]);
        }
    }
}

/// Greedy connected atom order: prefer the atom sharing the most bound
/// variables (ties broken by relation size).
fn atom_order(body: &[Atom], rels: &[&Relation]) -> Vec<usize> {
    let m = body.len();
    let mut remaining: Vec<usize> = (0..m).collect();
    let mut order = Vec::with_capacity(m);
    let mut bound: Vec<bool> = Vec::new();
    let is_bound = |v: VarIdx, bound: &Vec<bool>| *bound.get(v).unwrap_or(&false);
    let mark = |v: VarIdx, bound: &mut Vec<bool>| {
        if v >= bound.len() {
            bound.resize(v + 1, false);
        }
        bound[v] = true;
    };
    while !remaining.is_empty() {
        let &best = remaining
            .iter()
            .max_by_key(|&&ai| {
                let shared = body[ai]
                    .vars
                    .iter()
                    .filter(|&&v| is_bound(v, &bound))
                    .count();
                // prefer more shared vars; among those, smaller relations
                (shared, std::cmp::Reverse(rels[ai].len()))
            })
            .unwrap();
        remaining.retain(|&x| x != best);
        for &v in &body[best].vars {
            mark(v, &mut bound);
        }
        order.push(best);
    }
    order
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
    // project to head order (head may repeat variables)
    let cols: Vec<usize> = q
        .head()
        .iter()
        .map(|&v| {
            joined
                .schema()
                .position(q.var_name(v))
                .expect("every variable appears in the join result")
        })
        .collect();
    let out = joined.project(&cols, "Q");
    (out, intermediates)
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
