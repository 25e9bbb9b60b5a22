//! The experiment harness: regenerates every figure, worked example, and
//! theorem-check of the paper and prints paper-vs-measured rows.
//!
//! Run all: `cargo run --release -p cq-bench --bin experiments`
//! Run one: `cargo run --release -p cq-bench --bin experiments -- e07`
//!
//! Standard output holds exact values only and is recorded in
//! `EXPERIMENTS.md`, which CI regenerates and diffs; wall-clock timings
//! go to standard error.

use cq_arith::Rational;
use cq_bench::{clique_query, cycle_query, random_query, star_query, Table};
use cq_core::*;
use cq_hypergraph::{
    decomposition_from_ordering, grid_lower_bound, min_fill_ordering, treewidth_exact,
    treewidth_upper_bound, Graph,
};
use cq_relation::{Database, FdSet};
use cq_util::FxHashMap;
use std::time::Instant;

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let experiments: Vec<(&str, &str, fn())> = vec![
        ("e01", "Example 2.1: square query blowup", e01),
        (
            "e02",
            "Examples 2.2/3.4: chase collapses the color number",
            e02,
        ),
        ("e03", "Example 3.3 + Prop 4.3: triangle/AGM tightness", e03),
        (
            "e04",
            "Prop 4.1: size bounds without FDs (random + families)",
            e04,
        ),
        (
            "e05",
            "Thm 4.4: size bounds with simple keys + Example 4.6",
            e05,
        ),
        ("e06", "Cor 4.8: join-project plan vs backtracking", e06),
        (
            "e07",
            "Prop 5.2 / Fig 1: keyed self-join squares treewidth",
            e07,
        ),
        ("e08", "Thm 5.5: keyed-join decomposition bound", e08),
        ("e09", "Prop 5.7: sequences of keyed joins", e09),
        ("e10", "Prop 5.9: treewidth preservation without FDs", e10),
        (
            "e11",
            "Thm 5.10: treewidth preservation with simple keys",
            e11,
        ),
        ("e12", "Thm 6.1: size-preserving characterization", e12),
        ("e13", "Prop 6.9: Shannon entropy upper bound", e13),
        ("e14", "Prop 6.10: color number as an entropy LP", e14),
        ("e15", "Figure 2: three-variable information diagram", e15),
        ("e16", "Prop 6.11 / Fig 3: Shamir gap construction", e16),
        ("e17", "Thm 7.2: polynomial decision of C > 1", e17),
        ("e18", "Prop 7.3: NP-hardness reduction", e18),
        ("e19", "Def 8.1: knitted complexity", e19),
        (
            "e20",
            "Prop 7.1: computing C(chase(Q)) scales polynomially",
            e20,
        ),
        (
            "e21",
            "Extension: worst-case-optimal join vs binary plans",
            e21,
        ),
        (
            "e22",
            "Extension: GYO acyclicity + Yannakakis evaluation",
            e22,
        ),
    ];
    for (id, title, f) in experiments {
        if let Some(ref want) = filter {
            if want != id {
                continue;
            }
        }
        println!("\n=== {id}: {title} ===");
        let t = Instant::now();
        f();
        eprintln!("[{id} done in {:.2?}]", t.elapsed());
    }
}

/// E01 — Example 2.1: |Q(D)| = n² and tw jumps from 1 to n−1.
fn e01() {
    let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
    let mut t = Table::new(&[
        "n",
        "|R|",
        "|Q(D)| (paper: n^2)",
        "tw(D)",
        "tw(Q(D)) (paper: n-1)",
    ]);
    for n in [3usize, 5, 8, 12] {
        let db = example_2_1_database(n);
        let out = evaluate(&q, &db);
        let (g_in, _) = db.gaifman_graph(&[]);
        let mut map = FxHashMap::default();
        let g_out = gaifman_over(&[&out], &mut map);
        let tw_out = if n <= 12 {
            treewidth_exact(&g_out)
        } else {
            treewidth_upper_bound(&g_out)
        };
        t.row(&[
            n.to_string(),
            db.relation("R").unwrap().len().to_string(),
            out.len().to_string(),
            treewidth_exact(&g_in).to_string(),
            tw_out.to_string(),
        ]);
        assert_eq!(out.len(), n * n);
        assert_eq!(tw_out, n - 1);
    }
    print!("{}", t.render());
}

/// E02 — the chase collapses C from 2 to 1 on Example 2.2/3.4.
fn e02() {
    let (q, fds) =
        parse_program("R0(W,X,Y,Z) :- R1(W,X,Y), R1(W,W,W), R2(Y,Z)\nkey R1[1]").unwrap();
    let naive = size_bound_no_fds(&q).exponent;
    let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
    println!("Q        : {q}");
    println!("chase(Q) : {}", chased.query);
    println!("C(Q) ignoring keys       = {naive}   (paper: 2)");
    println!("C(chase(Q)) with the key = {}   (paper: 1)", bound.exponent);
    assert_eq!(naive, Rational::int(2));
    assert_eq!(bound.exponent, Rational::one());
}

/// E03 — triangle query: C = 3/2, construction achieves N^{3/2}.
fn e03() {
    let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
    let bound = size_bound_no_fds(&q);
    println!(
        "C(Q) = {}  (paper: 3/2); rep(Q) = {}",
        bound.exponent, bound.rep
    );
    let mut t = Table::new(&[
        "M",
        "rmax",
        "|Q(D)|",
        "M^3 predicted",
        "(rmax/rep)^{3/2}",
        "bound holds",
    ]);
    for m in [2usize, 4, 8, 16] {
        let db = worst_case_database(&q, &bound.coloring, m);
        let check = check_size_bound(&q, &db, &bound.exponent);
        t.row(&[
            m.to_string(),
            check.rmax.to_string(),
            check.measured.to_string(),
            (m * m * m).to_string(),
            format!("{:.0}", ((check.rmax / bound.rep) as f64).powf(1.5)),
            check.holds.to_string(),
        ]);
        assert!(check.holds);
        assert_eq!(check.measured, m * m * m);
    }
    print!("{}", t.render());
}

/// E04 — Prop 4.1 on families and random queries.
fn e04() {
    let mut t = Table::new(&["query family", "C(Q)", "paper/known", "tight @ M=3"]);
    let families: Vec<(String, ConjunctiveQuery, String)> = vec![
        ("cycle(4)".into(), cycle_query(4), "2".into()),
        ("cycle(5)".into(), cycle_query(5), "5/2".into()),
        ("cycle(6)".into(), cycle_query(6), "3".into()),
        ("clique(3)".into(), clique_query(3), "3/2".into()),
        ("clique(4)".into(), clique_query(4), "2".into()),
        ("star(3)".into(), star_query(3, false).0, "3".into()),
    ];
    for (name, q, known) in families {
        let bound = size_bound_no_fds(&q);
        let db = worst_case_database(&q, &bound.coloring, 3);
        let check = check_size_bound(&q, &db, &bound.exponent);
        let tight = check.measured == predicted_output_size(&q, &bound.coloring, 3);
        t.row(&[name, bound.exponent.to_string(), known, tight.to_string()]);
        assert!(check.holds);
    }
    print!("{}", t.render());
    // random sweep: bound never violated
    let mut violations = 0;
    for seed in 0..100u64 {
        let q = random_query(seed, 5, 4);
        let bound = size_bound_no_fds(&q);
        let db = cq_bench::random_database(seed, &q, &FdSet::new(), 3, 10);
        if !check_size_bound(&q, &db, &bound.exponent).holds {
            violations += 1;
        }
    }
    println!("random sweep: 100 queries, {violations} bound violations (paper: 0)");
    assert_eq!(violations, 0);
}

/// E05 — Thm 4.4 with keys; Example 4.6's removal trace.
fn e05() {
    // Example 4.6 trace
    let (q, fds) = parse_program(
        "R0(X1) :- R1(X1,X2,X3), R2(X1,X4), R3(X5,X1)\nkey R1[1]\nkey R2[1]\nkey R3[1]",
    )
    .unwrap();
    let vfds = q.variable_fds(&fds);
    let trace = remove_simple_fds(&q, &vfds);
    println!("Example 4.6 input : {q}");
    println!("after removal     : {}", trace.result());
    println!("removal steps     : {}", trace.steps.len());
    // keyed bound table
    let mut t = Table::new(&["program", "C(Q) no keys", "C(chase(Q))", "tight check"]);
    for text in [
        "Q(X,Y,Z) :- S(X,Y), T(Y,Z)\nkey S[1]",
        "R2(X,Y,Z) :- R(X,Y), R(X,Z)\nkey R[1]",
        "Q(X,Y,Z,W) :- A(X,Y), B(Y,Z), C(Z,W)\nkey B[1]",
        "Q(X,Y,Z) :- E(X,Y), F(Y,Z), G(X,Z)\nkey E[1]\nkey F[1]",
    ] {
        let (q, fds) = parse_program(text).unwrap();
        let naive = size_bound_no_fds(&q).exponent;
        let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
        let db = worst_case_database(&chased.query, &bound.coloring, 4);
        let check = check_size_bound(&chased.query, &db, &bound.exponent);
        assert!(check.holds && db.satisfies(&fds));
        t.row(&[
            text.replace('\n', "; "),
            naive.to_string(),
            bound.exponent.to_string(),
            format!("|Q(D)|={} rmax={}", check.measured, check.rmax),
        ]);
    }
    print!("{}", t.render());
}

/// E06 — Cor 4.8: the join-project plan's intermediates stay within
/// rmax^C and the plan is output-polynomial.
fn e06() {
    let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
    let bound = size_bound_no_fds(&q);
    let mut t = Table::new(&["M", "rmax", "|Q(D)|", "max intermediate", "rmax^C"]);
    let mut times = Table::new(&["M", "plan time", "backtrack time"]);
    for m in [4usize, 8, 16, 24] {
        let db = worst_case_database(&q, &bound.coloring, m);
        let rmax = db.rmax(&["R"]);
        let t0 = Instant::now();
        let (planned, inter) = evaluate_by_plan(&q, &db);
        let plan_t = t0.elapsed();
        let t1 = Instant::now();
        let direct = evaluate(&q, &db);
        let direct_t = t1.elapsed();
        assert_eq!(planned.len(), direct.len());
        let worst = inter.iter().copied().max().unwrap();
        assert!(pow_le(worst, rmax, &bound.exponent));
        t.row(&[
            m.to_string(),
            rmax.to_string(),
            planned.len().to_string(),
            worst.to_string(),
            format!("{:.0}", (rmax as f64).powf(1.5)),
        ]);
        times.row(&[
            m.to_string(),
            format!("{plan_t:.1?}"),
            format!("{direct_t:.1?}"),
        ]);
    }
    print!("{}", t.render());
    eprint!("{}", times.render());
}

/// E07 — Figure 1 / Prop 5.2: before/after treewidth of the keyed
/// self-join, certified by embeddings and the Thm 5.5 decomposition.
fn e07() {
    let f_small = figure1_construction(4, 2);
    print!("{}", f_small.render_figure());
    let mut t = Table::new(&[
        "n",
        "m",
        "|R|",
        "tw before (cert >=)",
        "tw before (<=)",
        "tw after (cert >=, paper nm)",
        "thm 5.5 bound",
    ]);
    for (n, m) in [(3usize, 1usize), (4, 1), (4, 2), (5, 2), (5, 3)] {
        let f = figure1_construction(n, m);
        let (g, vmap) = f.gaifman();
        let (rows, cols, embed) = f.pre_join_grid_embedding(&vmap);
        let lower = grid_lower_bound(&g, rows, cols, &embed).expect("valid embedding");
        let upper = treewidth_upper_bound(&g);
        let join = f.keyed_self_join();
        let mut vmap2 = vmap.clone();
        let g_join = gaifman_over(&[&join], &mut vmap2);
        let (r2, c2, embed2) = f.post_join_grid_embedding(&vmap2);
        let after = grid_lower_bound(&g_join, r2, c2, &embed2).expect("valid embedding");
        assert_eq!(lower, n);
        assert_eq!(after, n * m);
        t.row(&[
            n.to_string(),
            m.to_string(),
            f.relation().len().to_string(),
            lower.to_string(),
            upper.to_string(),
            after.to_string(),
            theorem_5_5_bound(m + 2, upper).to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E08 — Thm 5.5 on random keyed joins: constructed width vs bound.
fn e08() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut t = Table::new(&[
        "seed",
        "j=arity(S)",
        "omega",
        "constructed width",
        "bound j(omega+1)-1",
    ]);
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        let n_keys = rng.gen_range(2..6);
        let arity = rng.gen_range(2..5);
        for i in 0..rng.gen_range(4..14) {
            db.insert_named("L", &[&format!("a{i}"), &format!("k{}", i % n_keys)]);
        }
        for k in 0..n_keys {
            let row: Vec<String> = std::iter::once(format!("k{k}"))
                .chain((1..arity).map(|c| format!("b{k}_{c}")))
                .collect();
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            db.insert_named("S", &refs);
        }
        let mut fds = FdSet::new();
        fds.add_key("S", &[0], arity);
        let l = db.relation("L").unwrap();
        let s = db.relation("S").unwrap();
        let mut vmap = FxHashMap::default();
        let g = gaifman_over(&[l, s], &mut vmap);
        let td = decomposition_from_ordering(&g, &min_fill_ordering(&g));
        let omega = td.width();
        let td2 = keyed_join_decomposition(l, s, &[(1, 0)], &fds, &td, &vmap);
        let join = cq_relation::equi_join(l, s, &[(1, 0)], "J");
        let g2 = gaifman_over(&[&join], &mut vmap.clone());
        let mut padded = Graph::new(g.num_vertices().max(g2.num_vertices()));
        for (a, b) in g2.edges() {
            padded.add_edge(a, b);
        }
        td2.validate(&padded).unwrap();
        assert!(td2.width() <= theorem_5_5_bound(arity, omega));
        t.row(&[
            seed.to_string(),
            arity.to_string(),
            omega.to_string(),
            td2.width().to_string(),
            theorem_5_5_bound(arity, omega).to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E09 — Prop 5.7: chains of keyed joins stay within the closed form.
fn e09() {
    let mut db = Database::new();
    let chain = 4usize;
    // L(a, k0); S_i(k_{i-1}, k_i, pad) keyed on first column
    for i in 0..10 {
        db.insert_named("L", &[&format!("a{i}"), &format!("k0_{}", i % 3)]);
    }
    for s in 0..chain {
        for k in 0..3 {
            db.insert_named(
                &format!("S{s}"),
                &[
                    &format!("k{s}_{k}"),
                    &format!("k{}_{}", s + 1, k % 2),
                    &format!("p{s}_{k}"),
                ],
            );
        }
    }
    let mut fds = FdSet::new();
    for s in 0..chain {
        fds.add_key(&format!("S{s}"), &[0], 3);
    }
    let rels: Vec<_> = std::iter::once(db.relation("L").unwrap().clone())
        .chain((0..chain).map(|s| db.relation(&format!("S{s}")).unwrap().clone()))
        .collect();
    let mut vmap = FxHashMap::default();
    let refs: Vec<&cq_relation::Relation> = rels.iter().collect();
    let g_all = gaifman_over(&refs, &mut vmap);
    let tw0 = treewidth_upper_bound(&g_all);
    let mut td = decomposition_from_ordering(&g_all, &min_fill_ordering(&g_all));
    let mut acc = rels[0].clone();
    let mut t = Table::new(&[
        "step",
        "acc width",
        "per-step bound",
        "prop 5.7 closed form",
    ]);
    let mut step_bound = td.width();
    for s in 0..chain {
        let right = &rels[s + 1];
        let key_col = acc.arity() - 2; // last-but-one column holds k_s
        td = keyed_join_decomposition(&acc, right, &[(key_col, 0)], &fds, &td, &vmap);
        acc = cq_relation::equi_join(&acc, right, &[(key_col, 0)], "J");
        step_bound = theorem_5_5_bound(3, step_bound);
        let closed = proposition_5_7_bound(3, s + 2, tw0);
        assert!(td.width() <= step_bound);
        t.row(&[
            (s + 1).to_string(),
            td.width().to_string(),
            step_bound.to_string(),
            closed.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E10 — Prop 5.9: the dichotomy on random queries + witness blowups.
fn e10() {
    let mut preserved = 0;
    let mut blowup = 0;
    for seed in 0..200u64 {
        let q = random_query(seed, 4, 3);
        match treewidth_preservation_no_fds(&q) {
            TwPreservation::Preserved => preserved += 1,
            TwPreservation::Blowup { .. } => blowup += 1,
        }
    }
    println!("random queries: {preserved} preserved, {blowup} blow up");
    // witness table
    let q = parse_query("R2(X,Y,Z) :- R(X,Y), R(X,Z)").unwrap();
    let TwPreservation::Blowup { x, y } = treewidth_preservation_no_fds(&q) else {
        panic!()
    };
    let mut t = Table::new(&["M", "tw(inputs)", "tw(output) >= (paper: unbounded)"]);
    for m in [3usize, 5, 8] {
        let db = blowup_witness_database(&q, x, y, m);
        let (g_in, _) = db.gaifman_graph(&[]);
        let out = evaluate(&q, &db);
        let mut map = FxHashMap::default();
        let g_out = gaifman_over(&[&out], &mut map);
        let lower = cq_hypergraph::treewidth_lower_bound(&g_out);
        assert!(treewidth_exact(&g_in) <= 1);
        assert!(lower >= m - 1);
        t.row(&[
            m.to_string(),
            treewidth_exact(&g_in).to_string(),
            lower.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E11 — Thm 5.10: keys can rescue preservation.
fn e11() {
    let mut t = Table::new(&["program", "no keys", "with keys"]);
    for (base, keys) in [
        ("R2(X,Y,Z) :- R(X,Y), R(X,Z)", "key R[1]"),
        ("Q(X,Y,Z) :- S(X,Y), T(X,Z)", "key S[1]"),
        ("Q(X,Y,Z) :- S(X,Y), T(Y,Z)", "key S[1]"),
    ] {
        let q = parse_query(base).unwrap();
        let before = format!("{:?}", treewidth_preservation_no_fds(&q));
        let (q2, fds) = parse_program(&format!("{base}\n{keys}")).unwrap();
        let after = format!("{:?}", treewidth_preservation_simple_fds(&q2, &fds));
        t.row(&[format!("{base} + {keys}"), before, after]);
    }
    print!("{}", t.render());
    println!("(paper: the first two become Preserved; the third stays a blowup)");
}

/// E12 — Thm 6.1: C > 1 iff some database grows, with m/(m-1) certificates.
fn e12() {
    let mut t = Table::new(&["query", "m", "increases", "m/(m-1)", "certificate C >="]);
    for text in [
        "S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)",
        "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
        "Q(X,Y) :- R(X,Y)",
        "Q(X,Y,Z) :- R(X,Y,Z), S(X,Y)",
    ] {
        let q = parse_query(text).unwrap();
        let d = decide_size_increase(&q, &FdSet::new());
        let cert = d
            .coloring
            .as_ref()
            .and_then(|c| c.color_number(&d.chased))
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into());
        t.row(&[
            text.to_string(),
            d.chased.num_atoms().to_string(),
            d.increases.to_string(),
            d.lower_bound.to_string(),
            cert,
        ]);
    }
    print!("{}", t.render());
}

/// E13 — Prop 6.9: the Shannon bound vs color number vs measured.
fn e13() {
    let mut t = Table::new(&[
        "query",
        "C (Prop 6.10)",
        "s(Q) (Prop 6.9)",
        "s_ZY (ext)",
        "measured exp",
    ]);
    for text in [
        "S(X,Y,Z) :- R(X,Y), R2(X,Z), R3(Y,Z)",
        "Q(X,Y,Z) :- R(X,Y), S(Y,Z)",
        "Q(A,B,C,D) :- R(A,B), S(B,C), T(C,D), U(D,A)",
    ] {
        let q = parse_query(text).unwrap();
        let c = color_number_entropy_lp(&q, &[]);
        let s = entropy_upper_bound(&q, &[]);
        let zy = if q.num_vars() >= 4 {
            entropy_upper_bound_zhang_yeung(&q, &[]).to_string()
        } else {
            "n/a".into()
        };
        let bound = size_bound_no_fds(&q);
        let db = worst_case_database(&q, &bound.coloring, 4);
        let out = evaluate(&q, &db);
        let rmax = db.rmax(&q.relation_names());
        let measured = (out.len() as f64).ln() / (rmax as f64).ln();
        assert!(s >= c);
        t.row(&[
            text.to_string(),
            c.to_string(),
            s.to_string(),
            zy,
            format!("{measured:.3}"),
        ]);
    }
    print!("{}", t.render());
    println!("(without FDs, s(Q) = C(Q) — Shearer; s_ZY adds the Zhang–Yeung inequality)");
}

/// E14 — Prop 6.10 == Prop 3.6 == Thm 4.4 pipeline.
fn e14() {
    let mut agree = 0;
    let mut total = 0;
    for seed in 0..60u64 {
        let q = random_query(seed, 4, 3);
        if q.num_vars() > 6 {
            continue;
        }
        total += 1;
        if color_number_lp(&q).value == color_number_entropy_lp(&q, &[]) {
            agree += 1;
        }
    }
    println!("Prop 3.6 LP == Prop 6.10 LP on {agree}/{total} random FD-free queries (paper: all)");
    assert_eq!(agree, total);
    // and with keys, against the Theorem 4.4 pipeline
    let mut agree_k = 0;
    let mut total_k = 0;
    for seed in 100..140u64 {
        let q = random_query(seed, 4, 3);
        let mut fds = FdSet::new();
        let a0 = &q.body()[0];
        if a0.vars.len() >= 2 {
            fds.add_key(&a0.relation, &[0], a0.vars.len());
        }
        let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
        if chased.query.num_vars() > 7 {
            continue;
        }
        total_k += 1;
        let vfds = chased.query.variable_fds(&fds);
        if bound.exponent == color_number_entropy_lp(&chased.query, &vfds) {
            agree_k += 1;
        }
    }
    println!(
        "Thm 4.4 pipeline == Prop 6.10 LP on {agree_k}/{total_k} random keyed queries (paper: all)"
    );
    assert_eq!(agree_k, total_k);
}

/// E15 — Figure 2: the generic 3-variable information diagram.
fn e15() {
    let mut db = Database::new();
    for (x, y, z) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
        db.insert_named("W", &[&x.to_string(), &y.to_string(), &z.to_string()]);
    }
    let e = EntropyVector::from_relation(db.relation("W").unwrap());
    print!("{}", e.render_diagram(&["X", "Y", "Z"]));
    println!(
        "identity check (Fact 6.7): max error = {:.2e}",
        e.atom_identity_error()
    );
    assert!(e.atom_identity_error() < 1e-9);
}

/// E16 — Prop 6.11 / Figure 3: the Shamir gap.
fn e16() {
    let mut t = Table::new(&[
        "k",
        "N",
        "rmax=N^{k/2}",
        "|Q(D)|=N^{k^2/4}",
        "true exp",
        "coloring >=",
        "C <= (paper)",
    ]);
    for (k, n) in [(4usize, 5u64), (4, 7), (6, 7)] {
        let g = gap_construction(k, n);
        assert!(g.db.satisfies(&g.fds));
        let measured: String = if k == 4 {
            let out = evaluate(&g.query, &g.db);
            assert_eq!(out.len() as u128, g.predicted_output());
            out.len().to_string()
        } else {
            // k=6: the R_j atoms share no variables and every T_i holds
            // all combinations, so |Q(D)| = Π|R_j| structurally; too
            // large to materialize here.
            format!("{} (analytic)", g.predicted_output())
        };
        let coloring = gap_lower_bound_coloring(&g);
        coloring.validate(&g.var_fds).unwrap();
        t.row(&[
            k.to_string(),
            n.to_string(),
            g.predicted_rmax().to_string(),
            measured,
            g.true_exponent().to_string(),
            coloring.color_number(&g.query).unwrap().to_string(),
            g.color_number_upper_bound().to_string(),
        ]);
    }
    print!("{}", t.render());
    // Figure 3 atoms
    let g = gap_construction(4, 5);
    let e = EntropyVector::from_relation(g.db.relation("R1").unwrap());
    let log_n = 5f64.log2();
    println!(
        "Figure 3 check: I(X1;X2;X3;X4) = {:+.2} log N (paper: -2); triples = +1",
        e.interaction(0b1111) / log_n
    );
    assert!((e.interaction(0b1111) / log_n + 2.0).abs() < 1e-9);
}

/// E17 — Thm 7.2 vs the LP ground truth + timing growth.
fn e17() {
    let mut agree = 0;
    let mut total = 0;
    for seed in 0..120u64 {
        let q = random_query(seed, 4, 4);
        let mut fds = FdSet::new();
        for atom in q.body() {
            if atom.vars.len() >= 2 && seed % 2 == 0 {
                fds.add_key(&atom.relation, &[0], atom.vars.len());
            }
        }
        let d = decide_size_increase(&q, &fds);
        if d.chased.num_vars() > 7 {
            continue;
        }
        total += 1;
        let vfds = d.chased.variable_fds(&fds);
        let c = color_number_entropy_lp(&d.chased, &vfds);
        if d.increases == (c > Rational::one()) {
            agree += 1;
        }
    }
    println!("Horn decision == (C > 1) on {agree}/{total} random instances (paper: all)");
    assert_eq!(agree, total);
    // timing: the decision is polynomial — clique queries of growing size
    let mut t = Table::new(&["clique n", "atoms", "vars"]);
    let mut times = Table::new(&["clique n", "decision time"]);
    for n in [4usize, 8, 12, 16] {
        let q = clique_query(n);
        let t0 = Instant::now();
        let d = decide_size_increase(&q, &FdSet::new());
        assert!(d.increases);
        t.row(&[
            n.to_string(),
            q.num_atoms().to_string(),
            q.num_vars().to_string(),
        ]);
        times.row(&[n.to_string(), format!("{:.2?}", t0.elapsed())]);
    }
    print!("{}", t.render());
    eprint!("{}", times.render());
}

/// E18 — Prop 7.3: reduction equivalence on a fixed battery.
fn e18() {
    let cases: Vec<(Vec<[i32; 3]>, usize, &str)> = vec![
        (vec![[1, 2, 3]], 3, "sat"),
        (vec![[1, 1, 1], [-1, -1, -1]], 1, "unsat"),
        (
            vec![[1, 2, 2], [-1, -2, -2], [1, -2, -2], [-1, 2, 2]],
            2,
            "unsat",
        ),
        (vec![[1, -2, 3], [-1, 2, -3]], 3, "sat"),
    ];
    let mut t = Table::new(&["3-SAT instance", "expected", "2-coloring exists"]);
    for (clauses, n, expected) in cases {
        let red = reduce_3sat(&clauses, n);
        let colorable = two_coloring_sat(&red.query, &red.var_fds).is_some();
        assert_eq!(colorable, expected == "sat");
        t.row(&[
            format!("{clauses:?}"),
            expected.to_string(),
            colorable.to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E19 — Def 8.1: knitted complexity across structures.
fn e19() {
    let mut t = Table::new(&["distribution", "knitted complexity"]);
    // product structure: 1 (all atoms nonnegative)
    let q = parse_query("Q(X,Y) :- R(X), S(Y)").unwrap();
    let bound = size_bound_no_fds(&q);
    let db = worst_case_database(&q, &bound.coloring, 4);
    let out = evaluate(&q, &db);
    let e1 = EntropyVector::from_relation(&out);
    t.row(&[
        "independent product (color construction)".into(),
        format!("{:.3}", e1.knitted_complexity().unwrap()),
    ]);
    // xor: 2
    let mut db2 = Database::new();
    for (x, y, z) in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
        db2.insert_named("W", &[&x.to_string(), &y.to_string(), &z.to_string()]);
    }
    let e2 = EntropyVector::from_relation(db2.relation("W").unwrap());
    t.row(&[
        "xor triple".into(),
        format!("{:.3}", e2.knitted_complexity().unwrap()),
    ]);
    // Shamir group: 3
    let g = gap_construction(4, 5);
    let e3 = EntropyVector::from_relation(g.db.relation("R1").unwrap());
    t.row(&[
        "Shamir (2,4) group".into(),
        format!("{:.3}", e3.knitted_complexity().unwrap()),
    ]);
    print!("{}", t.render());
    println!("(higher = further from any coloring-realizable entropy structure)");
}

/// E20 — Prop 7.1: C(chase(Q)) computation scales polynomially in |Q|.
fn e20() {
    let mut t = Table::new(&["family", "atoms", "vars"]);
    let mut times = Table::new(&["family", "time"]);
    for n in [4usize, 8, 12, 16, 20] {
        let q = cycle_query(n);
        let t0 = Instant::now();
        let bound = size_bound_no_fds(&q);
        let dt = t0.elapsed();
        assert_eq!(bound.exponent, Rational::ratio(n as i64, 2));
        t.row(&[
            format!("cycle({n})"),
            q.num_atoms().to_string(),
            q.num_vars().to_string(),
        ]);
        times.row(&[format!("cycle({n})"), format!("{dt:.2?}")]);
    }
    for n in [6usize, 10, 14] {
        let (q, fds) = star_query(n, true);
        let t0 = Instant::now();
        let (bound, _, _) = size_bound_simple_fds(&q, &fds);
        let dt = t0.elapsed();
        assert_eq!(bound.exponent, Rational::one());
        t.row(&[
            format!("keyed star({n})"),
            q.num_atoms().to_string(),
            q.num_vars().to_string(),
        ]);
        times.row(&[format!("keyed star({n})"), format!("{dt:.2?}")]);
    }
    print!("{}", t.render());
    eprint!("{}", times.render());
}

/// E21 — the algorithmic payoff of the size bound: on AGM-worst-case
/// triangle inputs, the binary join plan materializes Θ(M⁴)
/// intermediates while generic join stays at the output size Θ(M³).
fn e21() {
    let q = parse_query("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
    let bound = size_bound_no_fds(&q);
    let mut t = Table::new(&["M", "rmax", "|Q(D)|", "binary-plan max intermediate"]);
    let mut times = Table::new(&["M", "wcoj time", "plan time"]);
    for m in [4usize, 8, 16, 24] {
        let db = worst_case_database(&q, &bound.coloring, m);
        let rmax = db.rmax(&["R"]);
        let t0 = Instant::now();
        let wcoj = evaluate_wcoj(&q, &db);
        let wcoj_t = t0.elapsed();
        let t1 = Instant::now();
        let (planned, inter) = evaluate_by_plan(&q, &db);
        let plan_t = t1.elapsed();
        assert_eq!(wcoj.len(), planned.len());
        assert_eq!(wcoj.len(), m * m * m);
        t.row(&[
            m.to_string(),
            rmax.to_string(),
            wcoj.len().to_string(),
            inter.iter().copied().max().unwrap().to_string(),
        ]);
        times.row(&[
            m.to_string(),
            format!("{wcoj_t:.1?}"),
            format!("{plan_t:.1?}"),
        ]);
    }
    print!("{}", t.render());
    eprint!("{}", times.render());
    println!("(wcoj never materializes more than the output — the Õ(rmax^ρ*) guarantee)");
}

/// E22 — acyclicity and Yannakakis: O(input+output) evaluation on
/// acyclic queries, agreeing with the generic engines.
fn e22() {
    let mut t = Table::new(&["query", "acyclic", "|Q(D)|"]);
    let mut times = Table::new(&["query", "yannakakis", "backtracking"]);
    for text in [
        "Q(X,Z) :- R(X,Y), S(Y,Z)",
        "Q(X,Y,Z,W) :- R(X,Y), S(X,Z), T(X,W)",
        "Q(X,Y,Z) :- R(X,Y,Z), S(X,Y), T(Y,Z)",
        "Q(X,Y,Z) :- R(X,Y), S(Y,Z), T(X,Z)",
    ] {
        let q = parse_query(text).unwrap();
        let db = cq_bench::random_database(7, &q, &FdSet::new(), 4, 12);
        let acyclic = is_acyclic(&q);
        let t0 = Instant::now();
        let direct = evaluate(&q, &db);
        let bt = t0.elapsed();
        let (count, yt) = if acyclic {
            let t1 = Instant::now();
            let yan = evaluate_yannakakis(&q, &db);
            let yt = t1.elapsed();
            assert_eq!(yan.len(), direct.len());
            (yan.len(), format!("{yt:.1?}"))
        } else {
            (direct.len(), "n/a (cyclic)".into())
        };
        t.row(&[text.to_string(), acyclic.to_string(), count.to_string()]);
        times.row(&[text.to_string(), yt, format!("{bt:.1?}")]);
    }
    print!("{}", t.render());
    eprint!("{}", times.render());
}
