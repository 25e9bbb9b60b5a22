//! Exact work counts on the solver and cache fast paths.
//!
//! The paper's bounds are exact LP values, and what one costs to compute
//! is a deterministic count: simplex pivots, basis verifications, exact
//! fallbacks, cache hits. Wall-clock time on a shared machine cannot see
//! a solver that falls off its fast path until the slowdown is large;
//! these counts change on the first extra pivot, on any machine, in
//! debug and release builds alike. Timing is the benchmark's job
//! (`perfbench/`).
//!
//! Pinned here, and nowhere else:
//!
//! 1. **Proposition 6.9 on cycle-fd, k = 8 and 9, on k = 8 with two
//!    chords, and on two random programs** (`Solver::Auto`, the
//!    production path of `entropy_upper_bound_with_stats`, which solves
//!    the program over FD-closed variable sets): the value, the program
//!    shape, the engine `Auto` picks, the float pivot count, a verified
//!    float basis, zero exact pivots and zero exact fallbacks. Over all
//!    subsets the random programs ran into devex's degenerate tail, at
//!    7,402 and 17,371 float pivots.
//! 2. **The h-coordinate Proposition 6.10 program at k = 8**: `Auto`
//!    picks the hybrid engine, its float basis verifies after a pinned
//!    number of float pivots and without exact ones, and its objective
//!    equals the exact engine's (whose pivot count is pinned too).
//! 3. **The canonical-key cache on an isomorphic template workload**:
//!    100 relabeled copies of five templates miss once per class and
//!    hit on every other lookup, with the solves, pivots and width
//!    searches of the cold run pinned; a warm rerun and a warm-cache
//!    session solve nothing and search no width.
//! 4. **The counts of the five data-check shapes** (triangle, 4-cycle,
//!    projected 3-path, 2×3 grid, keyed star, on seeded databases of the
//!    benchmark's sizes): `count_answers`, which counts by variable
//!    elimination, agrees with the planned search's listed
//!    `evaluate(..).len()` on each, and each count is positive.
//!
//! On every program of items 1 and 2, devex pricing ends its degenerate
//! stretches on its own: the Bland backstop prices no pivot.
//!
//! The Proposition 6.10 program the engine actually solves (I-measure
//! coordinates, over the minimal live atoms that meet the head) has its
//! counts pinned beside it, up to the k = 14 cap, in
//! `cq_core::entropy_lp`'s `prop_6_10_work_counts_on_cycle_fd`.
//!
//! The hybrid-engine counts hold for the default engine routing. Under
//! `CQ_LP_ENGINE=exact`, `Auto` must pick the exact revised simplex
//! instead, and items 1 and 2 check that routing, the program shapes,
//! the objectives and the exact engine's pivot counts, which equal the
//! float phase's: both scalars take the same pivot path.

mod common;

use common::{permuted_query, random_query};
use cqbounds::core::{
    build_color_number_entropy_lp, build_entropy_upper_lp, chase, count_answers,
    entropy_upper_bound_with_stats, evaluate, parse_program, Atom, ConjunctiveQuery,
};
use cqbounds::engine::{AnalysisReport, AnalysisSession, LpCache, ReportOptions};
use cqbounds::lp::{solve_lp, PivotRule, Solver, SolverKind};
use cqbounds::relation::{Database, FdSet};
use std::sync::Arc;

/// The engine `Auto` must pick for the large entropy programs: the
/// hybrid float/exact simplex, or the exact revised simplex when
/// `CQ_LP_ENGINE=exact` pins it. Spelled out rather than asked of the
/// solver crate, so a change to the routing policy fails here.
fn expected_large_engine() -> SolverKind {
    match std::env::var("CQ_LP_ENGINE").ok().as_deref() {
        Some("exact") => SolverKind::RevisedSparse,
        _ => SolverKind::HybridFloat,
    }
}

/// The cycle-fd program: the k-cycle plus `T(X0,X1,X2)` under the
/// compound FD `T[1,2] -> T[3]` (the family the benchmark's entropy
/// workload serves), with `extra` atoms appended to the body.
fn cycle_fd(k: usize, extra: &[&str]) -> String {
    let vars: Vec<String> = (0..k).map(|i| format!("X{i}")).collect();
    let mut body: Vec<String> = (0..k)
        .map(|i| format!("R{i}({},{})", vars[i], vars[(i + 1) % k]))
        .collect();
    body.push("T(X0,X1,X2)".into());
    body.extend(extra.iter().map(|atom| atom.to_string()));
    format!(
        "Q({}) :- {}\nT[1,2] -> T[3]",
        vars.join(","),
        body.join(", ")
    )
}

/// The `k`-cycle join query `Q(X0..) :- R0(X0,X1), ..., R{k-1}(X{k-1},X0)`.
fn cycle_query(k: usize) -> ConjunctiveQuery {
    let vars: Vec<String> = (0..k).map(|i| format!("X{i}")).collect();
    let body: Vec<Atom> = (0..k)
        .map(|i| Atom::new(format!("R{i}"), vec![i, (i + 1) % k]))
        .collect();
    ConjunctiveQuery::new(vars, (0..k).collect(), body)
}

/// `rnd/q270`, a random 8-variable program with simple and compound FDs.
/// The full Proposition 6.9 program took 7,402 float pivots there, 5,330
/// of them Bland-priced, in devex's degenerate tail.
const RANDOM_Q270: &str = "Q(V3,V2,V7,V0,V6,V1,V4,V5) :- A0(V4,V3,V1), A1(V4,V1), \
    A2(V7,V4,V2), A3(V1,V6,V0), A4(V6,V5), A5(V7,V1,V3), A6(V7,V0)
A2[1,2] -> A2[3]
A3[1,2] -> A3[3]
A4[1] -> A4[2]";

/// A random program from the same corpus on which the full program took
/// 17,371 float pivots, 13,671 of them Bland-priced.
const RANDOM_17371: &str = "Q(V5,V4,V0) :- A0(V6,V5,V1), A1(V7,V4,V5), A2(V1,V7,V5), \
    A3(V1,V7), A4(V3,V7,V2), A5(V6,V1,V4), A6(V3,V0)
A0[1,2] -> A0[3]
A1[1,2] -> A1[3]
A2[1] -> A2[2]
A3[1] -> A3[2]
A5[1] -> A5[2]
A6[1] -> A6[2]";

#[test]
fn prop_6_9_on_cycle_fd_stays_on_the_verified_float_path() {
    let expected = expected_large_engine();
    // (program, rows, columns, s(Q), pivots) of the program that
    // entropy_upper_bound solves: one column per FD-closed variable set,
    // the distinct closed atom normalizations and the distinct closed
    // images of the elemental Shannon inequalities. The full program over
    // all 2^k - 1 sets had, in the same order, 1,810 x 255, 4,628 x 511,
    // 1,812 x 255, 1,810 x 255 and 1,812 x 255, and took 253, 513, 592,
    // 7,402 and 17,371 float pivots. The two chords took 6,181 float
    // pivots under Dantzig pricing with an early Bland switch.
    let chords: &[&str] = &["C0(X0,X4)", "C1(X1,X5)"];
    for (text, rows, cols, bound, pivots) in [
        (cycle_fd(8, &[]), 1647, 223, "4", 210),
        (cycle_fd(9, &[]), 4193, 447, "4", 419),
        (cycle_fd(8, chords), 1649, 223, "7/2", 224),
        (RANDOM_Q270.to_string(), 1197, 153, "5/2", 138),
        (RANDOM_17371.to_string(), 583, 77, "2", 96),
    ] {
        let (q, fds) = parse_program(&text).unwrap();
        let chased = chase(&q, &fds).query;
        let vfds = chased.variable_fds(&fds);
        let lp = build_entropy_upper_lp(&chased, &vfds);
        assert_eq!(Solver::Auto.resolve(&lp), expected, "{text}: routing");

        let (value, stats) = entropy_upper_bound_with_stats(&chased, &vfds);
        assert_eq!(value.to_string(), bound, "{text}: s(Q)");
        assert_eq!(stats.solver, expected, "{text}: solve() honors Auto");
        assert_eq!(
            (stats.rows, stats.cols),
            (rows, cols),
            "{text}: program shape"
        );
        assert_eq!(stats.bland_pivots, 0, "{text}: {stats:?}");
        if expected == SolverKind::HybridFloat {
            assert!(stats.float_verified, "{text}: {stats:?}");
            assert_eq!(stats.exact_fallbacks, 0, "{text}: {stats:?}");
            assert_eq!(
                stats.pivots, 0,
                "{text}: a verified basis needs no exact pivot"
            );
            assert_eq!(stats.float_pivots, pivots, "{text}: {stats:?}");
        } else {
            assert_eq!(stats.pivots, pivots, "{text}: {stats:?}");
        }
    }
}

#[test]
fn h_coordinate_prop_6_10_program_verifies_its_float_basis() {
    let k = 8;
    let lp = build_color_number_entropy_lp(&cycle_query(k), &[]);
    let expected = expected_large_engine();
    assert_eq!(Solver::Auto.resolve(&lp), expected, "routing");

    let auto = lp.solve();
    let exact = solve_lp(&lp, Solver::RevisedSparse, PivotRule::DantzigThenBland);
    assert_eq!(auto.stats.solver, expected, "solve() honors Auto");
    assert_eq!(auto.objective, exact.objective, "engines agree exactly");
    assert_eq!(auto.objective.to_string(), "4", "C(8-cycle) = 8/2");
    assert_eq!(
        (auto.stats.rows, auto.stats.cols),
        (263, 255),
        "program shape"
    );
    if expected == SolverKind::HybridFloat {
        assert!(auto.stats.float_verified, "{:?}", auto.stats);
        assert_eq!(auto.stats.exact_fallbacks, 0, "{:?}", auto.stats);
        assert_eq!(
            auto.stats.pivots, 0,
            "a verified basis needs no exact pivot"
        );
        assert_eq!(auto.stats.float_pivots, 254, "{:?}", auto.stats);
    }
    assert_eq!(auto.stats.bland_pivots, 0, "{:?}", auto.stats);
    assert_eq!(exact.stats.pivots, 254, "{:?}", exact.stats);
    assert_eq!(exact.stats.bland_pivots, 0, "{:?}", exact.stats);
}

/// 100 queries: 20 relabeled copies each of five templates — two
/// cycles with large fractional LPs and three asymmetric random
/// queries, the shape template-generated application queries take.
fn template_workload() -> Vec<(String, ConjunctiveQuery, FdSet)> {
    let templates = [
        ("cycle8".to_owned(), cycle_query(8)),
        ("cycle11".to_owned(), cycle_query(11)),
        ("template3".to_owned(), random_query(3, 8, 7)),
        ("template11".to_owned(), random_query(11, 8, 7)),
        ("template13".to_owned(), random_query(13, 8, 7)),
    ];
    let mut items = Vec::new();
    for (t, (name, q)) in templates.iter().enumerate() {
        for c in 0..20 {
            let copy = permuted_query(0xcafe + (t * 20 + c) as u64, q);
            items.push((format!("{name}/copy{c}"), copy, FdSet::new()));
        }
    }
    items
}

#[test]
fn isomorphic_template_workload_solves_each_lp_once() {
    let workload = template_workload();
    let opts = ReportOptions::default();
    let cache = Arc::new(LpCache::new());
    // One cache-attached session per query, in workload order: the
    // reports plus the width searches the sessions ran.
    let analyze = || {
        let mut width_runs = 0;
        let reports: Vec<AnalysisReport> = workload
            .iter()
            .map(|(name, q, fds)| {
                let session = AnalysisSession::from_parts(name, q.clone(), fds.clone())
                    .with_cache(Arc::clone(&cache));
                let report = session.report(&opts);
                width_runs += session.stats().width_runs;
                report
            })
            .collect();
        (reports, width_runs)
    };

    // (LP solves, simplex pivots) summed over a run's reports.
    let work = |reports: &[AnalysisReport]| {
        reports.iter().fold((0, 0), |(solves, pivots), r| {
            let s = &r.solver;
            (
                solves + s.dense_solves + s.sparse_solves + s.hybrid_solves,
                pivots + s.pivots + s.float_pivots,
            )
        })
    };

    let (reports, width_runs) = analyze();
    assert_eq!(reports.len(), 100);
    let cold = cache.stats();
    // One coloring LP per query; each of the five classes misses once,
    // and only the misses reach a solver.
    assert_eq!(
        (cold.hits, cold.misses, cold.entries),
        (95, 5, 5),
        "{cold:?}"
    );
    assert_eq!(cold.evictions, 0);
    assert_eq!(work(&reports), (5, 23), "five solves, 23 pivots in all");
    // Every template is small enough for both exact width searches, so
    // the widths ride on the coloring entry: one search per class.
    assert_eq!(width_runs, 5, "one width search per class");

    // Warm rerun: every lookup hits, nothing new is solved or stored.
    let (reports, width_runs) = analyze();
    assert_eq!(work(&reports), (0, 0), "a warm rerun solves nothing");
    assert_eq!(width_runs, 0, "a warm rerun searches no width");
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "{warm:?}");
    assert_eq!(warm.entries, cold.entries, "{warm:?}");
    assert_eq!(warm.hits - cold.hits, cold.hits + cold.misses, "{warm:?}");

    // A warm-cache hit bypasses the solver entirely: no engine is
    // chosen, no pivot is made.
    let (name, q, fds) = &workload[0];
    let session =
        AnalysisSession::from_parts(name, q.clone(), fds.clone()).with_cache(Arc::clone(&cache));
    session.size_bound();
    session.query_widths();
    let stats = session.stats();
    assert_eq!(stats.width_runs, 0, "{stats:?}");
    assert!(stats.cache_hits >= 1, "{stats:?}");
    assert_eq!(stats.cache_misses, 0, "{stats:?}");
    assert_eq!(
        stats.lp.dense_solves + stats.lp.sparse_solves + stats.lp.hybrid_solves,
        0,
        "{stats:?}"
    );
    assert_eq!(
        (stats.lp.pivots, stats.lp.float_pivots),
        (0, 0),
        "{stats:?}"
    );
}

/// The `rows × cols` grid join: one binary atom per grid edge, every
/// variable in the head.
fn grid_query(rows: usize, cols: usize) -> ConjunctiveQuery {
    let var = |r: usize, c: usize| r * cols + c;
    let mut body = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                body.push(Atom::new(
                    format!("H{r}_{c}"),
                    vec![var(r, c), var(r, c + 1)],
                ));
            }
            if r + 1 < rows {
                body.push(Atom::new(
                    format!("V{r}_{c}"),
                    vec![var(r, c), var(r + 1, c)],
                ));
            }
        }
    }
    let n = rows * cols;
    ConjunctiveQuery::new(
        (0..n).map(|i| format!("X{i}")).collect(),
        (0..n).collect(),
        body,
    )
}

#[test]
fn cached_widths_equal_fresh_widths_on_relabeled_copies() {
    // Small random queries (one with a duplicate atom, which the chase
    // drops) and the 12-cycle take both exact searches. The 13-cycle and
    // the 2x7 and 2x8 grids are past the exact ghw cap: their ghw is a
    // greedy bound that depends on the labeling. The keyed star's
    // dependencies reshape its coloring LP query, so its widths are not
    // cached.
    let (star, star_fds) =
        parse_program("Q(C,A,B,D) :- R(C,A), S(C,B), T(C,D)\nkey R[1]\nkey S[1]\nkey T[1]")
            .unwrap();
    let templates = [
        (random_query(3, 8, 7), FdSet::new()),
        (random_query(11, 8, 7), FdSet::new()),
        (random_query(21, 12, 9), FdSet::new()),
        (cycle_query(12), FdSet::new()),
        (cycle_query(13), FdSet::new()),
        (grid_query(2, 7), FdSet::new()),
        (grid_query(2, 8), FdSet::new()),
        (star, star_fds),
    ];
    let opts = ReportOptions::default();
    let cache = Arc::new(LpCache::new());
    for (t, (template, fds)) in templates.iter().enumerate() {
        // Warm the class with the template itself.
        AnalysisSession::from_parts("warm", template.clone(), fds.clone())
            .with_cache(Arc::clone(&cache))
            .report(&opts);
        let n = template.num_vars();
        for c in 0..8 {
            let copy = permuted_query(0xbeef + (t * 8 + c) as u64, template);
            let cached = AnalysisSession::from_parts("cached", copy.clone(), fds.clone())
                .with_cache(Arc::clone(&cache));
            let widths = cached.report(&opts).widths;
            let fresh = AnalysisSession::from_parts("fresh", copy, fds.clone());
            assert_eq!(&widths, fresh.query_widths(), "template {t}, copy {c}");
            assert!(widths.treewidth_exact, "template {t}: {n} variables");
            assert_eq!(widths.hypertree_exact, n <= 12, "template {t}");
            // A greedy ghw is recomputed for every copy, and so are the
            // keyed star's widths; exact widths come from the cache
            // without a search.
            let expected_runs = usize::from(!widths.hypertree_exact || !fds.is_empty());
            assert_eq!(
                cached.stats().width_runs,
                expected_runs,
                "template {t}, copy {c}"
            );
        }
    }
}

/// A seeded random directed graph `E` without self-loops: `edges`
/// distinct edges over `nodes` nodes (`n0`, `n1`, ...).
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

/// Seeded keyed relations `R1`, `R2`, `R3`: `rows` key values each out
/// of `domain`, with one random value per key.
fn keyed_star_database(seed: u64, domain: usize, rows: usize) -> Database {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for rel in ["R1", "R2", "R3"] {
        let mut keys = std::collections::HashSet::new();
        while keys.len() < rows {
            let k = rng.gen_range(0..domain);
            if keys.insert(k) {
                let v = rng.gen_range(0..domain);
                db.insert_named(rel, &[&format!("k{k}"), &format!("v{v}")]);
            }
        }
    }
    db
}

#[test]
fn data_check_shapes_count_by_elimination() {
    let shapes: [(&str, Database); 5] = [
        (
            "Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(X,Z)",
            random_graph(1, 200, 6000),
        ),
        (
            "Q(A,B,C,D) :- E(A,B), E(B,C), E(C,D), E(D,A)",
            random_graph(2, 400, 4000),
        ),
        (
            "Q(A,D) :- E(A,B), E(B,C), E(C,D)",
            random_graph(3, 800, 6000),
        ),
        (
            "Q(A,B,C,D,F,G) :- E(A,B), E(B,C), E(D,F), E(F,G), E(A,D), E(B,F), E(C,G)",
            random_graph(4, 800, 3000),
        ),
        (
            "Q(X,Y1,Y2,Y3) :- R1(X,Y1), R2(X,Y2), R3(X,Y3)\nkey R1[1]\nkey R2[1]\nkey R3[1]",
            keyed_star_database(5, 6000, 5000),
        ),
    ];
    for (text, db) in &shapes {
        let (q, fds) = parse_program(text).unwrap();
        assert!(db.satisfies(&fds), "{text}");
        let counted = count_answers(&q, db);
        assert_eq!(counted, evaluate(&q, db).len(), "{text}");
        assert!(counted > 0, "{text}");
    }
}
