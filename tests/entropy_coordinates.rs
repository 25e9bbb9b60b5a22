//! The entropy programs the engine solves must agree with their oracles.
//!
//! **Proposition 6.10, two coordinate systems.**
//! `color_number_entropy_lp` solves the program in I-measure coordinates
//! (one row per query atom, and one column per atom `y_S` whose set is
//! inclusion-minimal among the live sets that meet the head); the oracle
//! `build_color_number_entropy_lp` states it over the entropies `h(S)`
//! with one row per I-measure atom, and is solved here by the exact
//! revised simplex. The two are related by an invertible Möbius map, so
//! their optima must be the same rational on every query and every set
//! of variable-level FDs — simple, compound, and trivial (`rhs ∈ lhs`).
//!
//! **Proposition 6.9, closed sets against all sets.** `entropy_upper_bound`
//! solves the Shannon program over FD-closed variable sets only, with
//! each elemental inequality mapped through the closure and emitted once;
//! the oracle `build_entropy_upper_lp` keeps one column per subset and the
//! FD equalities, and is solved here by the exact revised simplex. Every
//! feasible `h` of the full program has `h(S) = h(cl(S))`, so the optima
//! must be the same rational on the same random queries and FDs.
//!
//! Both properties run on the *default* proptest config, so
//! `PROPTEST_CASES` scales it, and CI's scheduled deep job also runs it
//! with `CQ_LP_ENGINE=exact`, which sends the atom program, and every
//! closed program large enough for `Auto`'s sparse routing, to the exact
//! revised engine instead of the hybrid.

use cqbounds::core::{
    build_color_number_entropy_lp, build_entropy_upper_lp, color_number_entropy_lp,
    entropy_upper_bound, Atom, ConjunctiveQuery, VarFd,
};
use cqbounds::lp::Solver;
use proptest::prelude::*;

/// A random query over 2–7 variables with 1–6 atoms of arity 1–3, a
/// random head over the variables the body uses (possibly empty), and
/// 0–3 variable FDs with a nonempty left-hand side.
fn arb_query_with_fds() -> impl Strategy<Value = (ConjunctiveQuery, Vec<VarFd>)> {
    (2usize..8, 1usize..7, 0usize..4).prop_flat_map(|(n, n_atoms, n_fds)| {
        let atoms = proptest::collection::vec(proptest::collection::vec(0..n, 1usize..4), n_atoms);
        let head = 0u32..(1 << n);
        let fds = proptest::collection::vec((1u32..(1 << n), 0..n), n_fds);
        (atoms, head, fds).prop_map(move |(atoms, head, fds)| {
            let names: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
            let body: Vec<Atom> = atoms
                .into_iter()
                .enumerate()
                .map(|(i, vars)| Atom::new(format!("R{i}"), vars))
                .collect();
            let used: u32 = body
                .iter()
                .flat_map(|a| &a.vars)
                .fold(0, |m, &v| m | 1 << v);
            let head_vars: Vec<usize> = (0..n).filter(|&v| (head & used) >> v & 1 == 1).collect();
            let var_fds: Vec<VarFd> = fds
                .into_iter()
                .map(|(lhs, rhs)| {
                    let lhs: Vec<usize> = (0..n).filter(|&v| lhs >> v & 1 == 1).collect();
                    VarFd::new(lhs, rhs)
                })
                .collect();
            (ConjunctiveQuery::new(names, head_vars, body), var_fds)
        })
    })
}

proptest! {
    // Deliberately the *default* config, so PROPTEST_CASES scales it.
    #[test]
    fn atom_and_entropy_coordinates_agree((q, var_fds) in arb_query_with_fds()) {
        let oracle = build_color_number_entropy_lp(&q, &var_fds)
            .solve_with_solver(Solver::RevisedSparse);
        prop_assert!(oracle.is_optimal(), "{q} {var_fds:?}: oracle not optimal");
        prop_assert_eq!(color_number_entropy_lp(&q, &var_fds), oracle.objective);
    }

    #[test]
    fn closed_and_full_shannon_programs_agree((q, var_fds) in arb_query_with_fds()) {
        let oracle = build_entropy_upper_lp(&q, &var_fds).solve_with_solver(Solver::RevisedSparse);
        prop_assert!(oracle.is_optimal(), "{q} {var_fds:?}: oracle not optimal");
        prop_assert_eq!(entropy_upper_bound(&q, &var_fds), oracle.objective);
    }
}
