//! `count_answers` against the evaluators that list `Q(D)`.
//!
//! `cq_core::count_answers` computes `|Q(D)|` from the planned search
//! that `evaluate` also runs, without building the output relation:
//! full queries count satisfying assignments, projections deduplicate
//! packed head tuples. The property below checks
//! `count_answers == evaluate(..).len() == evaluate_wcoj(..).len()` on
//! random query × database instances; the generic-join evaluator is the
//! oracle that does not share the planner. Each random query is also
//! tried with the heads the generator never makes: empty, with repeated
//! variables, and wider than the four values a packed key holds.
//!
//! The random layer runs on the default proptest config, so CI's
//! scheduled deep job runs it at 4096 cases.

mod common;

use common::{random_database, random_query};
use cqbounds::core::{count_answers, evaluate, evaluate_wcoj, parse_query, ConjunctiveQuery};
use cqbounds::relation::{Database, FdSet, Relation, Schema};
use proptest::prelude::*;

fn with_head(q: &ConjunctiveQuery, head: Vec<usize>) -> ConjunctiveQuery {
    ConjunctiveQuery::new(q.var_names().to_vec(), head, q.body().to_vec())
}

/// `q` itself plus the head variants: Boolean, every used variable
/// twice (a full query with repeats), the generated head with its first
/// variable repeated, and — when there are enough used variables — a
/// five-variable projection with a repeat.
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
    variants
}

fn assert_counts_agree(q: &ConjunctiveQuery, db: &Database) {
    let listed = evaluate(q, db).len();
    assert_eq!(
        count_answers(q, db),
        listed,
        "count_answers vs evaluate on {q}"
    );
    assert_eq!(
        evaluate_wcoj(q, db).len(),
        listed,
        "evaluate_wcoj vs evaluate on {q}"
    );
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

proptest! {
    // Default config on purpose: honors the PROPTEST_CASES override the
    // deep CI job uses to run this property at 4096 cases.

    /// Random query × random database, under every head variant:
    /// `count_answers` equals the listed size of both evaluators.
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
            let listed = evaluate(&variant, &db).len();
            let counted = count_answers(&variant, &db);
            let oracle = evaluate_wcoj(&variant, &db).len();
            prop_assert!(
                counted == listed && oracle == listed,
                "{variant}: count_answers {counted}, evaluate {listed}, evaluate_wcoj {oracle}"
            );
        }
    }
}
