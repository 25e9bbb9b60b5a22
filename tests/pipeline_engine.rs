//! The engine contract: memoization (each expensive stage runs exactly
//! once per session, proven by call counters), parity (engine results
//! agree with direct `cq_core` calls), and the cross-query LP cache
//! differential (cached and cache-free runs produce bit-identical
//! reports, with `CacheStats` proving real hits) — on every pipeline
//! fixture: the checked-in `tests/fixtures/*.cq` programs, the
//! parameterized families, and the same random-query population the
//! other pipeline suites draw from.

mod common;

use common::{permuted_query, random_query};
use cqbounds::core::{
    chase, decide_size_increase, is_acyclic, size_bound_simple_fds,
    treewidth_preservation_simple_fds, TwPreservation, VarFd,
};
use cqbounds::engine::{AnalysisSession, BatchAnalyzer, LpCache, ReportOptions};
use cqbounds::relation::FdSet;
use std::sync::Arc;

/// Report JSON with the `solver_stats` object removed
/// ([`common::strip_solver_stats`]): the cache differentials compare
/// *semantic* report content bit-for-bit; solver counters are execution
/// observability by design and are asserted separately.
fn semantic_json(report: &cqbounds::engine::AnalysisReport) -> String {
    common::strip_solver_stats(&report.to_json_string())
}

/// Every checked-in program fixture, as `(name, text)`.
fn file_fixtures() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut fixtures: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("fixtures directory")
        .map(|entry| entry.expect("read fixture").path())
        .filter(|path| path.extension().is_some_and(|e| e == "cq"))
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("read fixture");
            (name, text)
        })
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 9, "fixture set went missing");
    fixtures
}

/// The random population the other pipeline suites use, plus fixtures.
fn all_sessions() -> Vec<AnalysisSession> {
    let mut sessions: Vec<AnalysisSession> = file_fixtures()
        .into_iter()
        .map(|(name, text)| AnalysisSession::parse(name, &text).expect("fixtures parse"))
        .collect();
    for seed in 0..30 {
        sessions.push(AnalysisSession::from_parts(
            format!("random/{seed}"),
            random_query(seed, 5, 4),
            FdSet::new(),
        ));
    }
    sessions
}

#[test]
fn chase_and_lp_run_exactly_once_per_session() {
    for session in all_sessions() {
        // Drive the full pipeline several times over, mixing accessors.
        for _ in 0..3 {
            let _ = session.size_bound();
            let _ = session.treewidth_preservation();
            let _ = session.size_increase();
            let _ = session.report(&ReportOptions::default());
        }
        let stats = session.stats();
        assert_eq!(
            stats.chase_runs,
            1,
            "{}: chase must run once",
            session.name()
        );
        if session.simple_fds() {
            assert_eq!(
                stats.color_lp_runs,
                1,
                "{}: coloring LP must run once",
                session.name()
            );
            assert_eq!(stats.removal_runs, 1, "{}", session.name());
            assert_eq!(stats.treewidth_runs, 1, "{}", session.name());
        } else {
            assert_eq!(
                stats.color_lp_runs,
                0,
                "{}: no coloring LP on the compound path",
                session.name()
            );
        }
        assert_eq!(stats.decision_runs, 1, "{}", session.name());
    }
}

#[test]
fn engine_agrees_with_direct_core_calls() {
    for session in all_sessions() {
        let name = session.name().to_owned();
        let q = session.query().clone();
        let fds = session.fds().clone();

        let direct_chase = chase(&q, &fds);
        assert_eq!(
            session.chase_result().query,
            direct_chase.query,
            "{name}: chased query"
        );
        assert_eq!(
            session.chase_result().unifications,
            direct_chase.unifications,
            "{name}: unification count"
        );
        assert_eq!(session.is_acyclic(), is_acyclic(&q), "{name}: acyclicity");

        let simple = direct_chase
            .query
            .variable_fds(&fds)
            .iter()
            .all(VarFd::is_simple);
        assert_eq!(session.simple_fds(), simple, "{name}: simplicity");

        let decision = decide_size_increase(&q, &fds);
        assert_eq!(
            session.size_increase().increases,
            decision.increases,
            "{name}: growth decision"
        );
        assert_eq!(
            session.size_increase().lower_bound,
            decision.lower_bound,
            "{name}: growth lower bound"
        );

        if !simple {
            assert!(session.size_bound().is_none(), "{name}");
            assert!(session.treewidth_preservation().is_none(), "{name}");
            continue;
        }

        let (direct_bound, _, direct_trace) = size_bound_simple_fds(&q, &fds);
        let bound = session.size_bound().expect(&name);
        assert_eq!(bound.exponent, direct_bound.exponent, "{name}: exponent");
        assert_eq!(bound.query, direct_bound.query, "{name}: bound query");
        assert_eq!(bound.rep, direct_bound.rep, "{name}: rep");
        assert_eq!(
            session.removal_trace().expect(&name).steps.len(),
            direct_trace.steps.len(),
            "{name}: removal steps"
        );
        // The certificate colorings may differ (alternative optima), but
        // both must achieve the same exponent on the chased query.
        assert_eq!(
            bound.coloring.color_number(&bound.query),
            Some(bound.exponent.clone()),
            "{name}: engine coloring certifies the exponent"
        );

        let direct_tw = treewidth_preservation_simple_fds(&q, &fds);
        let engine_tw = session.treewidth_preservation().expect(&name);
        match (engine_tw, &direct_tw) {
            (TwPreservation::Preserved, TwPreservation::Preserved) => {}
            (TwPreservation::Blowup { .. }, TwPreservation::Blowup { .. }) => {}
            _ => panic!("{name}: treewidth preservation disagrees"),
        }

        // The Proposition 4.5 witness measured through the engine
        // certifies the engine's own exponent.
        let check = session.witness_check(2).expect(&name);
        assert!(check.holds, "{name}: witness bound must hold");
    }
}

/// The differential corpus: every file fixture, a variable-permuted
/// isomorphic copy of each (relation names kept, so the declared FDs
/// apply verbatim), and a random workload likewise doubled with
/// permuted copies. The copies guarantee the cache sees genuinely
/// renamed isomorphic structures, not just byte-identical repeats.
fn differential_corpus() -> Vec<(String, cqbounds::core::ConjunctiveQuery, FdSet)> {
    let mut items = Vec::new();
    for (name, text) in file_fixtures() {
        let (q, fds) = cqbounds::core::parse_program(&text).expect("fixtures parse");
        items.push((
            format!("{name}/perm"),
            permuted_query(41 + items.len() as u64, &q),
            fds.clone(),
        ));
        items.push((name, q, fds));
    }
    for seed in 100..120 {
        let q = random_query(seed, 5, 4);
        items.push((
            format!("random/{seed}/perm"),
            permuted_query(seed ^ 0xbeef, &q),
            FdSet::new(),
        ));
        items.push((format!("random/{seed}"), q, FdSet::new()));
    }
    items
}

#[test]
fn cache_differential_reports_are_bit_identical_with_real_hits() {
    let corpus = differential_corpus();
    let opts = ReportOptions::default();
    let cache = Arc::new(LpCache::new());
    let mut session_hits = 0usize;
    for (name, q, fds) in &corpus {
        let uncached = AnalysisSession::from_parts(name, q.clone(), fds.clone());
        let cached = AnalysisSession::from_parts(name, q.clone(), fds.clone())
            .with_cache(Arc::clone(&cache));
        assert_eq!(
            semantic_json(&uncached.report(&opts)),
            semantic_json(&cached.report(&opts)),
            "{name}: cached and cache-free reports must be bit-identical"
        );
        assert_eq!(
            uncached.stats().cache_hits + uncached.stats().cache_misses,
            0,
            "{name}: cache-free sessions never touch a cache"
        );
        // Solver stats reconcile with the cache outcome: a hit solved
        // nothing, a miss (or no cache) solved exactly what the
        // cache-free session solved.
        if cached.stats().cache_hits > 0 {
            assert_eq!(
                cached.stats().lp.dense_solves + cached.stats().lp.sparse_solves,
                0,
                "{name}: a coloring-LP cache hit must not solve"
            );
        } else {
            assert_eq!(
                cached.stats().lp.pivots,
                uncached.stats().lp.pivots,
                "{name}: identical solves, identical pivot counts"
            );
        }
        session_hits += cached.stats().cache_hits;
    }
    let stats = cache.stats();
    assert!(
        stats.hits >= 1,
        "the isomorphic pairs must produce real cache hits: {stats:?}"
    );
    assert_eq!(
        session_hits as u64, stats.hits,
        "per-session counters must reconcile with the cache's own"
    );
    assert!(stats.evictions == 0, "corpus fits the default capacity");
    // Every permuted pair with simple FDs shares one canonical solve, so
    // at least as many hits as fixture pairs on the simple-FD path.
    let simple_pairs = corpus
        .iter()
        .filter(|(name, q, fds)| {
            name.ends_with("/perm")
                && chase(q, fds)
                    .query
                    .variable_fds(fds)
                    .iter()
                    .all(VarFd::is_simple)
        })
        .count();
    assert!(
        stats.hits as usize >= simple_pairs,
        "expected >= {simple_pairs} hits, got {stats:?}"
    );
}

#[test]
fn cache_differential_with_witness_on_identical_duplicates() {
    // For byte-identical duplicates the canonical translation is the
    // identity, so even the witness measurement (which consumes the
    // certificate coloring, not just the LP value) is reproduced
    // exactly from the cached solution.
    let opts = ReportOptions {
        witness_m: Some(2),
        database: None,
    };
    let cache = Arc::new(LpCache::new());
    for (name, text) in file_fixtures() {
        let uncached = AnalysisSession::parse(&name, &text)
            .expect("fixtures parse")
            .report(&opts);
        let first = AnalysisSession::parse(&name, &text)
            .expect("fixtures parse")
            .with_cache(Arc::clone(&cache));
        // semantic_json: earlier fixtures may have already seeded the
        // cache with an isomorphic FD-removed query, so even the first
        // cached run of a fixture can legitimately skip the solve.
        assert_eq!(
            semantic_json(&first.report(&opts)),
            semantic_json(&uncached),
            "{name}: cold-cache run equals cache-free run"
        );
        let second = AnalysisSession::parse(&name, &text)
            .expect("fixtures parse")
            .with_cache(Arc::clone(&cache));
        assert_eq!(
            semantic_json(&second.report(&opts)),
            semantic_json(&uncached),
            "{name}: warm-cache run equals cache-free run"
        );
        if second.simple_fds() {
            assert!(second.stats().cache_hits >= 1, "{name}: duplicate must hit");
            assert_eq!(second.stats().color_lp_runs, 0, "{name}: no second solve");
        }
    }
}

#[test]
fn batch_agrees_with_sequential_sessions() {
    let inputs: Vec<(String, String)> = file_fixtures();
    let opts = ReportOptions {
        witness_m: Some(2),
        database: None,
    };
    let batch = BatchAnalyzer::new().analyze_texts(&inputs, &opts);
    assert_eq!(batch.len(), inputs.len());
    for ((name, text), result) in inputs.iter().zip(&batch) {
        let sequential = AnalysisSession::parse(name, text)
            .expect("fixtures parse")
            .report(&opts);
        let report = result.as_ref().expect("fixtures parse");
        assert_eq!(
            report.to_json_string(),
            sequential.to_json_string(),
            "{name}: batch and sequential reports must be identical"
        );
    }
}

#[test]
fn json_reports_are_deterministic_across_sessions() {
    for (name, text) in file_fixtures() {
        let a = AnalysisSession::parse(&name, &text)
            .unwrap()
            .report(&ReportOptions::default())
            .to_json_string();
        let b = AnalysisSession::parse(&name, &text)
            .unwrap()
            .report(&ReportOptions::default())
            .to_json_string();
        assert_eq!(a, b, "{name}");
        assert!(
            a.starts_with(&format!("{{\"name\":\"{name}\"")),
            "{name}: {a}"
        );
    }
}

#[test]
fn engine_routes_the_treewidth_example_queries() {
    // The `treewidth_preservation` example's session-routed sections,
    // asserted against the direct `cq_core` calls it used to hand-wire.
    let blowup = AnalysisSession::parse("blowup", "R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
    let direct = cqbounds::core::treewidth_preservation_no_fds(blowup.query());
    match (blowup.treewidth_preservation().unwrap(), &direct) {
        (TwPreservation::Blowup { x: a, y: b }, TwPreservation::Blowup { x, y }) => {
            assert_eq!((a, b), (x, y), "same witness pair");
        }
        other => panic!("expected blowup on both paths, got {other:?}"),
    }

    let keyed = AnalysisSession::parse("keyed", "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]").unwrap();
    let direct_keyed = treewidth_preservation_simple_fds(keyed.query(), keyed.fds());
    assert!(matches!(direct_keyed, TwPreservation::Preserved));
    assert!(matches!(
        keyed.treewidth_preservation().unwrap(),
        TwPreservation::Preserved
    ));
    // the session reached the verdict through its cached chase
    assert_eq!(keyed.stats().chase_runs, 1);
}

#[test]
fn engine_routes_the_entropy_example_queries() {
    // The `entropy_gap` example's Propositions 6.9/6.10 section, via
    // session slots, against the direct LP calls.
    let s = AnalysisSession::parse("tri", "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
    let direct_c = cqbounds::core::color_number_entropy_lp(s.query(), &[]);
    let direct_s = cqbounds::core::entropy_upper_bound(s.query(), &[]);
    assert_eq!(s.entropy_color_number().unwrap(), &direct_c);
    assert_eq!(s.entropy_exponent().unwrap(), &direct_s);
    // and both agree with the Prop 3.6 coloring LP on an FD-free query
    assert_eq!(&s.size_bound().unwrap().exponent, &direct_c);
    assert_eq!(s.stats().entropy_lp_runs, 2);
}

#[test]
fn known_fixture_exponents() {
    let expect = [
        ("triangle", "3/2"),
        ("cycle5", "5/2"),
        ("clique4", "2"),
        ("star3", "3"),
        ("keyed_star", "1"),
        ("path_keyed", "2"),
        ("blowup", "2"),
    ];
    let fixtures = file_fixtures();
    for (name, exponent) in expect {
        let (_, text) = fixtures
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing fixture {name}"));
        let session = AnalysisSession::parse(name, text).unwrap();
        assert_eq!(
            session.size_bound().expect(name).exponent.to_string(),
            exponent,
            "{name}"
        );
    }
}
