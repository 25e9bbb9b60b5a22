//! # Size and treewidth bounds for conjunctive queries
//!
//! An executable reproduction of *Gottlob, Lee, Valiant & Valiant, "Size
//! and Treewidth Bounds for Conjunctive Queries"* (PODS 2009 / JACM).
//! Every bound in the paper is computable here, every tightness
//! construction is a database generator, and every characterization is a
//! decision procedure:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | conjunctive queries as datalog rules (§1–2) | [`query`], [`parser`] |
//! | the chase, Definition 2.3 / Fact 2.4 | [`mod@chase`] |
//! | colorings & color number, Definitions 3.1–3.2 | [`coloring`] |
//! | color-number LP & edge-cover duality, Prop 3.6 / Def 3.5 / §3.1 | [`coloring`] |
//! | size bounds, Prop 4.1 / Thm 4.4 / Cor 4.2 | [`size_bounds`] |
//! | FD-removal procedure & Lemma 4.7 / Example 4.6 | [`fd_removal`] |
//! | worst-case databases, Prop 4.3 / 4.5 / Example 2.1 | [`constructions`] |
//! | join-project plans, Cor 4.8 | [`eval`] |
//! | keyed-join treewidth, Thm 5.5 / Prop 5.7 / Obs 5.6 | [`treewidth`] |
//! | the Figure 1 grid gadget, Prop 5.2 / Lemmas 5.3–5.4 | [`grid_construction`] |
//! | treewidth preservation, Prop 5.9 / Thm 5.10 | [`treewidth`] |
//! | size-preserving queries, Thm 6.1 | [`size_preserving`] |
//! | entropy measures & information diagrams, §6.2–6.3, Figs 2–3, Def 8.1 | [`entropy`] |
//! | entropy LPs, Prop 6.9 / Prop 6.10 | [`entropy_lp`] |
//! | the Shamir gap construction, Prop 6.11 / Fig 3 | [`gap`] |
//! | FD arity normalization, Fact 6.12 | [`fact_6_12`] |
//! | polynomial decision procedures, Prop 7.1 / Thm 7.2 | [`size_preserving`], [`sat`] |
//! | NP-hardness, Prop 7.3 | [`sat_reduction`] |
//!
//! The load-bearing rows of this map are compiler-checked: the module
//! docs of [`mod@chase`] (Fact 2.4), [`coloring`] (Prop 3.6),
//! [`fd_removal`] (Lemma 4.7), [`size_bounds`] (Thm 4.4), [`treewidth`]
//! (Thm 5.10), [`size_preserving`] (Thm 7.2) and [`entropy_lp`] (Props
//! 6.9/6.10) each carry a runnable example of their theorem, executed
//! by `cargo test --doc` in CI.
//!
//! ## Quick start
//!
//! ```
//! use cq_core::{parse_program, size_bound_simple_fds, worst_case_database,
//!               check_size_bound};
//!
//! // The triangle query of Example 3.3.
//! let (q, fds) = parse_program("S(X,Y,Z) :- R(X,Y), R(X,Z), R(Y,Z)").unwrap();
//! let (bound, chased, _) = size_bound_simple_fds(&q, &fds);
//! assert_eq!(bound.exponent.to_string(), "3/2"); // |Q(D)| <= rmax^{3/2}
//!
//! // The bound is tight: build the worst-case database and measure.
//! let db = worst_case_database(&chased.query, &bound.coloring, 4);
//! let check = check_size_bound(&chased.query, &db, &bound.exponent);
//! assert!(check.holds);
//! assert_eq!(check.measured, 64); // 4^3 outputs from 3·4^2 inputs
//! ```

pub mod acyclic;
pub mod chase;
pub mod coloring;
pub mod constructions;
pub mod containment;
pub mod decomp_eval;
mod eliminate;
pub mod entropy;
pub mod entropy_lp;
pub mod eval;
pub mod fact_6_12;
pub mod fd_removal;
pub mod gap;
pub mod grid_construction;
pub mod parser;
pub mod query;
pub mod sat;
pub mod sat_reduction;
pub mod size_bounds;
pub mod size_preserving;
pub mod treewidth;
pub mod wcoj;

pub use acyclic::{evaluate_yannakakis, gyo_join_tree, is_acyclic, semijoin, JoinTree};
pub use chase::{chase, ChaseResult};
pub use coloring::{
    color_number_lp, coloring_from_weights, find_two_coloring_brute_force,
    fractional_cover_weighted, fractional_edge_cover, fractional_edge_cover_head, ColorNumber,
    Coloring,
};
pub use constructions::{
    example_2_1_database, predicted_output_size, predicted_rmax, worst_case_database,
    worst_case_tuples, WITNESS_TUPLE_BUDGET,
};
pub use containment::{canonical_database, is_contained_in, is_equivalent};
pub use decomp_eval::{
    decompose, evaluate_decomposed, evaluate_with_decomposition, DecompEvalError,
    MAX_EXACT_DECOMP_VARS,
};
pub use entropy::EntropyVector;
pub use entropy_lp::{
    build_color_number_entropy_lp, build_entropy_upper_lp, color_number_entropy_lp,
    color_number_entropy_lp_with_stats, entropy_upper_bound, entropy_upper_bound_with_stats,
    entropy_upper_bound_zhang_yeung, MAX_ENTROPY_LP_VARS,
};
pub use eval::{
    atom_relation, check_arities, count_answers, evaluate, evaluate_by_plan, join_project_plan,
    ArityError,
};
// LP solver observability, re-exported so engine layers can consume
// per-solve stats without a direct cq-lp dependency.
pub use cq_lp::{LpWork, SolveStats, SolverKind};
pub use fact_6_12::{normalize_fd_arity, Normalized};
pub use fd_removal::{
    per_occurrence_database, pull_back_coloring, remove_simple_fds, transform_database,
    RemovalStep, RemovalTrace,
};
pub use gap::{gap_construction, gap_lower_bound_coloring, gap_lower_bound_value, GapConstruction};
pub use grid_construction::{figure1_construction, Figure1};
pub use parser::{parse_dependency, parse_program, parse_query, ParseError};
pub use query::{Atom, ConjunctiveQuery, QueryBuilder, VarFd, VarIdx};
pub use sat::{dpll, horn_sat, satisfies, Clause};
pub use sat_reduction::{coloring_from_assignment, reduce_3sat, two_coloring_sat, Lit, Reduction};
pub use size_bounds::{
    agm_bound, agm_product_bound, agm_product_bound_measured, agm_product_bound_optimized,
    agm_product_bound_with_cover, check_size_bound, corollary_4_2_witness, pow_le,
    size_bound_no_fds, size_bound_simple_fds, BoundCheck, ProductBound, SizeBound,
};
pub use size_preserving::{
    decide_size_increase, decide_size_increase_chased, SizeIncreaseDecision,
};
pub use treewidth::{
    blowup_witness_database, gaifman_over, keyed_join_decomposition, proposition_5_7_bound,
    theorem_5_10_bound, theorem_5_5_bound, treewidth_preservation_no_fds,
    treewidth_preservation_simple_fds, TwPreservation,
};
pub use wcoj::evaluate_wcoj;
