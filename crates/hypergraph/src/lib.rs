//! Graphs, hypergraphs, tree decompositions and treewidth for `cqbounds`.
//!
//! Section 5 of the paper is entirely about the treewidth of query results:
//! bounds for keyed joins (Theorem 5.5), sequences of keyed joins
//! (Proposition 5.7), and characterizations of treewidth-preserving queries
//! (Proposition 5.9, Theorem 5.10). This crate supplies the graph-theoretic
//! substrate those results are stated over:
//!
//! - [`Graph`] — undirected simple graphs (Gaifman graphs live here);
//! - [`Hypergraph`] — query/database hypergraphs and their primal graphs;
//! - [`TreeDecomposition`] — decompositions with full validity checking and
//!   the path-augmentation operation of Observation 5.6;
//! - elimination orderings (§2 of the paper), greedy upper-bound heuristics
//!   and the MMD lower bound;
//! - one exact branch-and-bound search over elimination orderings for
//!   small graphs, pricing bags by size for treewidth and by minimum edge
//!   cover for generalized hypertree width, with the exact-or-greedy
//!   policy ([`treewidth_capped`], [`hypertree_capped`]) beside it;
//! - generalized hypertree decompositions ([`HypertreeDecomposition`]),
//!   greedy and exact;
//! - rectangular grids and the Fact 5.1 certificate machinery used by the
//!   Proposition 5.2 construction;
//! - canonical hypergraph forms ([`canonical_form`]) — renaming-invariant
//!   keys for the cross-query LP cache.

pub mod canonical;
pub mod decomposition;
pub mod elimination;
pub mod exact;
pub mod graph;
pub mod grid;
#[allow(clippy::module_inception)]
pub mod hypergraph;
pub mod hypertree;

pub use canonical::{canonical_form, canonical_key, CanonicalForm, CanonicalKey};
pub use decomposition::TreeDecomposition;
pub use elimination::{
    decomposition_from_ordering, elimination_width, min_degree_ordering, min_fill_ordering,
    min_fill_ordering_first, treewidth_lower_bound, treewidth_upper_bound,
};
pub use exact::{
    hypertree_capped, treewidth_capped, treewidth_exact, HYPERTREE_EXACT_VAR_CAP,
    MAX_EXACT_VERTICES, TREEWIDTH_EXACT_VAR_CAP,
};
pub use graph::Graph;
pub use grid::{
    grid_elimination_ordering, grid_graph, grid_lower_bound, grid_treewidth, grid_vertex,
};
pub use hypergraph::Hypergraph;
pub use hypertree::{
    hypertree_exact, hypertree_greedy, hypertree_width_exact, hypertree_width_upper_bound,
    HypertreeDecomposition,
};
