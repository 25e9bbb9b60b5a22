//! `count_answers` against the evaluators that list `Q(D)`.
//!
//! `cq_core::count_answers` computes `|Q(D)|` without building the
//! output relation, by sum-product variable elimination (`∃` over the
//! existential variables, saturating `Σ` over the head). Every check
//! below requires `count_answers == evaluate(..).len() ==
//! evaluate_wcoj(..).len()`, and `evaluate`'s rows to be
//! `evaluate_wcoj`'s as sets. `evaluate` lists `Q(D)` through the
//! elimination's factor join, so the generic-join evaluator is the
//! oracle that shares no code with either. The random layer runs on random query ×
//! database instances, without dependencies and with random key FDs,
//! and tries each query with the heads the generator never makes: empty,
//! with repeated variables, wider than the four values a packed key
//! holds, each atom's variables, and each atom's variables plus a
//! variable outside it. Fixed queries cover keys with repeated and more
//! than four variables, absent and empty relations, nullary atoms, and a
//! seeded graph test runs the projected paths and the cycles at a size
//! where the bitset rows are used. A cross product of four unary
//! relations pins the count at and just past `u64::MAX`, where the
//! weights saturate.
//!
//! The random layer runs on the default proptest config, so CI's
//! scheduled deep job runs it at 4096 cases.

mod common;

use common::{random_database, random_query};
use cqbounds::core::{count_answers, evaluate, evaluate_wcoj, parse_query, Atom, ConjunctiveQuery};
use cqbounds::relation::{Database, FdSet, Relation, Schema, Value};
use proptest::prelude::*;

fn with_head(q: &ConjunctiveQuery, head: Vec<usize>) -> ConjunctiveQuery {
    ConjunctiveQuery::new(q.var_names().to_vec(), head, q.body().to_vec())
}

/// `q` itself plus the head variants: Boolean, every used variable
/// twice (a full query with repeats), the generated head with its first
/// variable repeated, — when there are enough used variables — a
/// five-variable projection with a repeat, and for each atom its
/// variables, and those plus a used variable outside the atom.
fn head_variants(q: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let used: Vec<usize> = q.used_vars().iter().collect();
    let mut variants = vec![q.clone(), with_head(q, Vec::new())];
    let doubled: Vec<usize> = used.iter().chain(used.iter().rev()).copied().collect();
    variants.push(with_head(q, doubled));
    let mut repeated = q.head().to_vec();
    repeated.push(repeated[0]);
    variants.push(with_head(q, repeated));
    if used.len() > 5 {
        let mut wide = used[1..6].to_vec();
        wide.push(used[3]);
        variants.push(with_head(q, wide));
    }
    for atom in q.body() {
        variants.push(with_head(q, atom.vars.clone()));
        if let Some(&outside) = used.iter().find(|v| !atom.vars.contains(v)) {
            let mut later = atom.vars.clone();
            later.push(outside);
            variants.push(with_head(q, later));
        }
    }
    variants
}

/// Every count of `|Q(D)|`: `count_answers` and both evaluators'
/// listed sizes; `Err` names the first that differs from `evaluate`.
/// `evaluate`'s rows must also be `evaluate_wcoj`'s, as sets.
fn counts_agree(q: &ConjunctiveQuery, db: &Database) -> Result<usize, String> {
    let listed = evaluate(q, db);
    let oracle = evaluate_wcoj(q, db);
    let counts = [
        ("count_answers", count_answers(q, db)),
        ("evaluate_wcoj", oracle.len()),
    ];
    for (name, count) in counts {
        if count != listed.len() {
            return Err(format!(
                "{name} {count} vs evaluate {} on {q}",
                listed.len()
            ));
        }
    }
    if let Some(row) = listed.iter().find(|row| !oracle.contains(row)) {
        return Err(format!(
            "evaluate lists {row:?}, evaluate_wcoj does not, on {q}"
        ));
    }
    Ok(listed.len())
}

fn assert_counts_agree(q: &ConjunctiveQuery, db: &Database) {
    if let Err(e) = counts_agree(q, db) {
        panic!("{e}");
    }
}

fn db_from(relations: &[(&str, &[&[&str]])]) -> Database {
    let mut db = Database::new();
    for (name, rows) in relations {
        for row in *rows {
            db.insert_named(name, row);
        }
    }
    db
}

#[test]
fn missing_and_empty_relations_count_zero() {
    let q = parse_query("P(X) :- R(X,Y), S(Y)").unwrap();
    let only_r = db_from(&[("R", &[&["a", "b"]])]);
    assert_eq!(count_answers(&q, &only_r), 0);
    assert_counts_agree(&q, &only_r);
    let mut empty_s = only_r.clone();
    empty_s.add_relation(Relation::new(Schema::new("S", 1)));
    assert_eq!(count_answers(&q, &empty_s), 0);
    assert_counts_agree(&q, &empty_s);
}

#[test]
fn self_joins_with_repeated_in_atom_variables() {
    let db = db_from(&[(
        "R",
        &[
            &["a", "a", "b"],
            &["a", "c", "b"],
            &["b", "b", "b"],
            &["b", "d", "d"],
            &["c", "c", "a"],
        ],
    )]);
    // R(X,X,Y) keeps (a,a,b), (b,b,b), (c,c,a); R(Y,Z,Z) keeps rows
    // whose last two columns agree: (b,b,b), (b,d,d).
    for (text, want) in [
        ("P(X,Y) :- R(X,X,Y), R(Y,Z,Z)", 2),
        ("P(X,Y,Z) :- R(X,X,Y), R(Y,Z,Z)", 4),
        ("P(X) :- R(X,X,X)", 1),
        ("P(Y) :- R(X,X,Y), R(Y,Y,Y)", 1),
        ("P(X) :- R(X,Y,Y), R(Y,X,X)", 1),
    ] {
        let q = parse_query(text).unwrap();
        assert_eq!(count_answers(&q, &db), want, "{text}");
        assert_counts_agree(&q, &db);
        let boolean = with_head(&q, Vec::new());
        assert_eq!(count_answers(&boolean, &db), 1, "Boolean {text}");
        assert_counts_agree(&boolean, &db);
    }
}

#[test]
fn disconnected_product_and_repeated_heads() {
    let db = db_from(&[
        ("R", &[&["a"], &["b"]]),
        ("S", &[&["x", "1"], &["y", "1"], &["z", "2"]]),
    ]);
    for (text, want) in [
        ("P(X,Y,W) :- R(X), S(Y,W)", 6),
        ("P(X,Y,X,Y,W,W) :- R(X), S(Y,W)", 6),
        ("P(X,W) :- R(X), S(Y,W)", 4),
        ("P(W,W,W,W,W) :- R(X), S(Y,W)", 2),
    ] {
        let q = parse_query(text).unwrap();
        assert_eq!(count_answers(&q, &db), want, "{text}");
        assert_counts_agree(&q, &db);
    }
    let boolean = with_head(&parse_query("P(X) :- R(X), S(Y,W)").unwrap(), Vec::new());
    assert_eq!(count_answers(&boolean, &db), 1);
    assert_counts_agree(&boolean, &db);
}

#[test]
fn wide_heads_use_the_boxed_keys() {
    // Six distinct head variables over a projection: the dedup keys are
    // too wide to pack.
    let q = parse_query("P(A,B,C,D,E,F) :- R(A,B,C), R(D,E,F), R(C,F,G)").unwrap();
    let db = db_from(&[("R", &[&["a", "b", "c"], &["c", "c", "a"], &["a", "a", "a"]])]);
    assert_counts_agree(&q, &db);
    assert!(count_answers(&q, &db) > 0);
}

#[test]
fn grouped_projections_count_each_group_once() {
    let db = db_from(&[
        (
            "R",
            &[
                &["a", "a", "b"],
                &["a", "a", "c"],
                &["b", "b", "b"],
                &["a", "c", "b"],
                &["c", "c", "a"],
            ],
        ),
        // Rows no R row joins, which make S the larger relation.
        (
            "S",
            &[
                &["b", "x"],
                &["b", "y"],
                &["c", "x"],
                &["d", "z"],
                &["d", "w"],
                &["e", "x"],
            ],
        ),
    ]);
    for (text, want) in [
        // The group is (A,B) from R; D occurs only in the later S atom.
        ("P(A,B,D) :- R(A,B,C), S(C,D)", 6),
        // The whole head lies in R: each group stops at its first witness.
        ("P(A,B) :- R(A,B,C), S(C,D)", 3),
        // R(A,A,B) binds A twice and keeps rows whose first columns agree.
        ("P(A,B) :- R(A,A,B), S(B,C)", 3),
        ("P(A,C) :- R(A,A,B), S(B,C)", 4),
        ("P(A) :- R(A,A,B), S(B,C)", 2),
    ] {
        let q = parse_query(text).unwrap();
        assert_eq!(count_answers(&q, &db), want, "{text}");
        assert_counts_agree(&q, &db);
    }
}

#[test]
fn group_keys_wider_than_four_values_use_the_boxed_keys() {
    // R, the join's lead, binds five head variables, so its groups are keyed
    // on five values; F is deduplicated per group, or — with F gone from
    // the head — every group stops at its first witness.
    let db = db_from(&[
        (
            "R",
            &[
                &["a", "b", "c", "d", "e", "x"],
                &["a", "b", "c", "d", "e", "y"],
                &["a", "b", "c", "d", "f", "y"],
                &["b", "b", "c", "d", "e", "z"],
            ],
        ),
        // S's last row joins no R row; it makes S the larger relation.
        (
            "S",
            &[
                &["x", "1"],
                &["y", "1"],
                &["y", "2"],
                &["z", "3"],
                &["w", "4"],
            ],
        ),
    ]);
    for (text, want) in [
        ("P(A,B,C,D,E,F) :- R(A,B,C,D,E,X), S(X,F)", 5),
        ("P(A,B,C,D,E) :- R(A,B,C,D,E,X), S(X,F)", 3),
        ("P(A,B,C,D,E,E,A) :- R(A,B,C,D,E,X), S(X,F)", 3),
    ] {
        let q = parse_query(text).unwrap();
        assert_eq!(count_answers(&q, &db), want, "{text}");
        assert_counts_agree(&q, &db);
    }
}

/// A random directed graph `E` without self-loops: `edges` distinct
/// edges over `nodes` nodes.
fn random_graph(seed: u64, nodes: usize, edges: usize) -> Database {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut seen = std::collections::HashSet::new();
    while seen.len() < edges {
        let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        if a != b && seen.insert((a, b)) {
            db.insert_named("E", &[&format!("n{a}"), &format!("n{b}")]);
        }
    }
    db
}

#[test]
fn projected_paths_on_a_seeded_graph_match_generic_join() {
    let db = random_graph(23, 200, 1500);
    for text in ["Q(A,D) :- E(A,B), E(B,C), E(C,D)", "Q(A) :- E(A,B), E(B,C)"] {
        let q = parse_query(text).unwrap();
        let counted = count_answers(&q, &db);
        assert_eq!(counted, evaluate_wcoj(&q, &db).len(), "{text}");
        assert_eq!(counted, evaluate(&q, &db).len(), "{text}");
        assert!(counted > 0, "{text}");
    }
}

#[test]
fn cycles_grids_and_stars_on_a_seeded_graph_agree() {
    // The triangle absorbs both of its other atoms into E(Y,Z) on bitset
    // rows; the 4-cycle materialises 2-path counts; the grid multiplies
    // two square factors into E(B,F); each query's Boolean variant and
    // the one-column heads count through the Boolean phase.
    let db = random_graph(7, 60, 400);
    for text in [
        "Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)",
        "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)",
        "Q(A,B,C,D,F,G) :- E(A,B), E(B,C), E(D,F), E(F,G), E(A,D), E(B,F), E(C,G)",
        "Q(X,Y,Z) :- E(X,Y), E(X,Z)",
        "Q(A,C) :- E(A,B), E(B,C), E(C,A)",
        "Q(A) :- E(A,B), E(B,C), E(C,D), E(D,A)",
    ] {
        let q = parse_query(text).unwrap();
        for q in [with_head(&q, Vec::new()), q] {
            let listed = evaluate(&q, &db).len();
            assert_eq!(count_answers(&q, &db), listed, "{q}");
        }
    }
}

#[test]
fn nullary_atoms_count_as_their_relation() {
    let mut db = db_from(&[("R", &[&["a", "b"], &["b", "c"]])]);
    let r = parse_query("P(X) :- R(X,Y)").unwrap();
    let mut body = r.body().to_vec();
    body.push(Atom::new("T", Vec::new()));
    let q = ConjunctiveQuery::new(r.var_names().to_vec(), r.head().to_vec(), body);
    // T absent, then empty, then holding the empty tuple.
    assert_counts_agree(&q, &db);
    db.add_relation(Relation::new(Schema::new("T", 0)));
    assert_counts_agree(&q, &db);
    db.insert_named("T", &[]);
    assert_eq!(count_answers(&q, &db), 2);
    assert_counts_agree(&q, &db);
}

/// `Q(A,B,C,D) :- R(A), S(B), T(C), U(D)` over four unary relations of
/// the same `n` values: `n^4` answers.
fn unary_cross_product(n: usize) -> (ConjunctiveQuery, Database) {
    let q = parse_query("Q(A,B,C,D) :- R(A), S(B), T(C), U(D)").unwrap();
    let mut db = Database::new();
    let values: Vec<Value> = (0..n).map(|i| db.intern(&format!("v{i}"))).collect();
    for name in ["R", "S", "T", "U"] {
        let mut rel = Relation::new(Schema::new(name, 1));
        for &v in &values {
            rel.insert([v]);
        }
        db.add_relation(rel);
    }
    (q, db)
}

#[test]
fn counts_saturate_exactly_at_u64_max() {
    // 65,535^4 is just below 2^64 − 1: counted exactly.
    let (q, db) = unary_cross_product(65_535);
    assert_eq!(count_answers(&q, &db) as u128, 65_535u128.pow(4));
    // 65,536^4 = 2^64 does not fit: the count saturates.
    let (q, db) = unary_cross_product(65_536);
    assert_eq!(count_answers(&q, &db), usize::MAX);
}

/// Random key FDs for `q`'s relations: each relation of arity at least
/// two gets a one-column key with probability one half.
fn random_keys(seed: u64, q: &ConjunctiveQuery) -> FdSet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfd);
    let mut fds = FdSet::new();
    for name in q.relation_names() {
        let arity = q
            .body()
            .iter()
            .find(|a| a.relation == name)
            .unwrap()
            .vars
            .len();
        if arity >= 2 && rng.gen_bool(0.5) {
            fds.add_key(name, &[rng.gen_range(0..arity)], arity);
        }
    }
    fds
}

proptest! {
    // Default config on purpose: honors the PROPTEST_CASES override the
    // deep CI job uses to run this property at 4096 cases.

    /// Random query × random database, under every head variant: both
    /// routes and `count_answers` equal the listed size of both
    /// evaluators.
    #[test]
    fn count_answers_matches_both_evaluators(
        qseed in 0u64..1_000_000,
        dbseed in 0u64..1_000_000,
        domain in 2usize..5,
        rows in 1usize..12,
    ) {
        let q = random_query(qseed, 7, 5);
        let db = random_database(dbseed, &q, &FdSet::new(), domain, rows);
        for variant in head_variants(&q) {
            let agree = counts_agree(&variant, &db);
            prop_assert!(agree.is_ok(), "{}", agree.unwrap_err());
        }
    }

    /// The same under random key FDs, with more rows: a key keeps one
    /// row per key value, so factors are functions of their key columns.
    #[test]
    fn counts_agree_under_random_keys(
        qseed in 0u64..1_000_000,
        dbseed in 0u64..1_000_000,
        domain in 2usize..7,
        rows in 1usize..24,
    ) {
        let q = random_query(qseed, 7, 5);
        let fds = random_keys(qseed, &q);
        let db = random_database(dbseed, &q, &fds, domain, rows);
        prop_assert!(db.satisfies(&fds));
        for variant in head_variants(&q) {
            let agree = counts_agree(&variant, &db);
            prop_assert!(agree.is_ok(), "{}", agree.unwrap_err());
        }
    }
}
