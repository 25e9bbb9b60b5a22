//! Exact widths via branch-and-bound over elimination orderings.
//!
//! Uses the standard observation that the graph obtained by eliminating a
//! *set* of vertices does not depend on the elimination order within the
//! set: two remaining vertices are adjacent in the eliminated graph iff
//! they are joined by a path whose interior lies in the eliminated set.
//! This makes the search state a vertex subset, which we memoize.
//!
//! One search, `EliminationSearch`, is behind both exact widths. It
//! prices each elimination bag with a bag cost: `|bag| − 1` gives
//! treewidth ([`treewidth_exact`], pruned by the MMD lower bound and the
//! min-fill upper bound), the minimum edge cover gives generalized
//! hypertree width ([`crate::hypertree::hypertree_exact`]). Any cost
//! that is monotone under subsets works, because a vertex set whose own
//! cost fits the budget can then be eliminated in any order.
//!
//! Practical for graphs up to roughly 22 vertices — ample for validating
//! the paper's constructions (grids, cliques, the Figure 1 gadget at small
//! parameters) against their predicted widths. [`treewidth_capped`] and
//! [`hypertree_capped`] hold the per-query policy: exact below a variable
//! cap, the greedy elimination-order upper bound above it.

use crate::elimination::{treewidth_lower_bound, treewidth_upper_bound};
use crate::graph::Graph;
use crate::hypergraph::Hypergraph;
use crate::hypertree::{hypertree_exact, hypertree_greedy, HypertreeDecomposition};
use cq_util::FxHashMap;

/// Hard cap of the exact search: its state is a `u64` vertex mask.
pub const MAX_EXACT_VERTICES: usize = 64;

/// Largest vertex count for which [`treewidth_capped`] runs the exact
/// search; larger graphs get the min-degree/min-fill upper bound.
pub const TREEWIDTH_EXACT_VAR_CAP: usize = 16;

/// Largest vertex count for which [`hypertree_capped`] runs the exact
/// search. Lower than [`TREEWIDTH_EXACT_VAR_CAP`]: pricing a bag by its
/// minimum edge cover makes each search state heavier.
pub const HYPERTREE_EXACT_VAR_CAP: usize = 12;

/// Exact treewidth of `g`.
///
/// ```
/// use cq_hypergraph::{treewidth_exact, Graph};
/// assert_eq!(treewidth_exact(&Graph::path(5)), 1);
/// assert_eq!(treewidth_exact(&Graph::cycle(5)), 2);
/// assert_eq!(treewidth_exact(&Graph::complete(5)), 4);
/// ```
///
/// # Panics
/// Panics if `g` has more than 64 vertices (use the heuristic bounds in
/// [`crate::elimination`] instead).
pub fn treewidth_exact(g: &Graph) -> usize {
    assert!(
        g.num_vertices() <= MAX_EXACT_VERTICES,
        "exact width search is limited to {MAX_EXACT_VERTICES} vertices"
    );
    if g.num_vertices() == 0 {
        return 0;
    }
    let lower = treewidth_lower_bound(g);
    let upper = treewidth_upper_bound(g);
    if lower == upper {
        return upper;
    }
    let mut search = EliminationSearch::new(g, Degree);
    search.min_width(lower, upper).unwrap_or(upper)
}

/// Treewidth of `g` and whether it is exact: [`treewidth_exact`] up to
/// [`TREEWIDTH_EXACT_VAR_CAP`] vertices, [`treewidth_upper_bound`]
/// beyond.
pub fn treewidth_capped(g: &Graph) -> (usize, bool) {
    if g.num_vertices() <= TREEWIDTH_EXACT_VAR_CAP {
        (treewidth_exact(g), true)
    } else {
        (treewidth_upper_bound(g), false)
    }
}

/// A generalized hypertree decomposition of `h` and whether its width is
/// exact: [`hypertree_exact`] up to [`HYPERTREE_EXACT_VAR_CAP`]
/// vertices, [`hypertree_greedy`] beyond.
pub fn hypertree_capped(h: &Hypergraph) -> (HypertreeDecomposition, bool) {
    if h.num_vertices() <= HYPERTREE_EXACT_VAR_CAP {
        (hypertree_exact(h), true)
    } else {
        (hypertree_greedy(h), false)
    }
}

/// How [`EliminationSearch`] prices an elimination bag (a vertex mask).
/// Must be monotone under subsets.
pub(crate) trait BagCost {
    fn cost(&mut self, bag: u64) -> usize;
}

/// Treewidth's bag cost: `|bag| − 1`, the elimination-time degree.
struct Degree;

impl BagCost for Degree {
    fn cost(&mut self, bag: u64) -> usize {
        (bag.count_ones() as usize).saturating_sub(1)
    }
}

/// The vertex mask of `vertices` (all below 64).
pub(crate) fn mask(vertices: impl IntoIterator<Item = usize>) -> u64 {
    vertices.into_iter().fold(0, |m, v| m | 1 << v)
}

/// Memoized subset branch-and-bound over elimination orderings of a
/// graph, minimizing the largest [`BagCost`] of an elimination bag.
pub(crate) struct EliminationSearch<C> {
    n: usize,
    adj: Vec<u64>,
    /// The bag pricer, left readable after the search (the ghw cost's
    /// cover memo labels the witness bags).
    pub(crate) cost: C,
    /// remaining-set -> known answer for the current budget
    memo: FxHashMap<u64, bool>,
}

impl<C: BagCost> EliminationSearch<C> {
    /// A search over `g`, which has at most [`MAX_EXACT_VERTICES`]
    /// vertices (callers check).
    pub(crate) fn new(g: &Graph, cost: C) -> Self {
        let n = g.num_vertices();
        debug_assert!(n <= MAX_EXACT_VERTICES);
        EliminationSearch {
            n,
            adj: (0..n).map(|v| mask(g.neighbors(v).iter())).collect(),
            cost,
            memo: FxHashMap::default(),
        }
    }

    fn full(&self) -> u64 {
        if self.n == 64 {
            u64::MAX
        } else {
            (1u64 << self.n) - 1
        }
    }

    /// The smallest budget in `lower..upper` under which every vertex can
    /// be eliminated, or `None` if there is none. Iterative tightening:
    /// ask "is the width ≤ k?" from `lower` upward.
    pub(crate) fn min_width(&mut self, lower: usize, upper: usize) -> Option<usize> {
        let full = self.full();
        (lower..upper).find(|&k| {
            self.memo.clear();
            self.can_eliminate(full, k)
        })
    }

    /// The lexicographically first elimination ordering within `budget`,
    /// after [`Self::min_width`] returned `budget` (the memo is warm, so
    /// this is cheap). Every bag of the ordering has been priced.
    pub(crate) fn witness(&mut self, budget: usize) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.n);
        let mut remaining = self.full();
        while remaining != 0 {
            let v = (0..self.n)
                .find(|&v| {
                    remaining & (1 << v) != 0
                        && self.cost.cost(self.elimination_bag(v, remaining)) <= budget
                        && self.can_eliminate(remaining & !(1 << v), budget)
                })
                .expect("a witnessing ordering exists");
            order.push(v);
            remaining &= !(1 << v);
        }
        order
    }

    /// The bag of `v` in the graph where the complement of `remaining`
    /// has been eliminated: `v` plus its remaining neighbors reachable
    /// through eliminated vertices.
    fn elimination_bag(&self, v: usize, remaining: u64) -> u64 {
        let eliminated = !remaining;
        // BFS from v through eliminated vertices only.
        let mut reach = 1u64 << v;
        let mut frontier = self.adj[v];
        let mut bag = (frontier & remaining) | (1 << v);
        let mut interior = frontier & eliminated & !reach;
        while interior != 0 {
            reach |= interior;
            frontier = 0;
            let mut it = interior;
            while it != 0 {
                let u = it.trailing_zeros() as usize;
                it &= it - 1;
                frontier |= self.adj[u];
            }
            bag |= frontier & remaining;
            interior = frontier & eliminated & !reach;
        }
        bag
    }

    /// Can all of `remaining` be eliminated with every elimination bag
    /// costing ≤ `budget`?
    fn can_eliminate(&mut self, remaining: u64, budget: usize) -> bool {
        if self.cost.cost(remaining) <= budget {
            return true; // monotone cost: eliminate in any order
        }
        if let Some(&ans) = self.memo.get(&remaining) {
            return ans;
        }
        let mut ans = false;
        for v in 0..self.n {
            if remaining & (1 << v) == 0 {
                continue;
            }
            let bag = self.elimination_bag(v, remaining);
            if self.cost.cost(bag) <= budget && self.can_eliminate(remaining & !(1 << v), budget) {
                ans = true;
                break;
            }
        }
        self.memo.insert(remaining, ans);
        ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::grid_graph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn known_treewidths() {
        assert_eq!(treewidth_exact(&Graph::new(0)), 0);
        assert_eq!(treewidth_exact(&Graph::new(3)), 0);
        assert_eq!(treewidth_exact(&Graph::path(6)), 1);
        assert_eq!(treewidth_exact(&Graph::cycle(5)), 2);
        for k in 2..7 {
            assert_eq!(treewidth_exact(&Graph::complete(k)), k - 1);
        }
    }

    #[test]
    fn tree_has_treewidth_one() {
        // a small tree
        let g = Graph::from_edges(0, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        assert_eq!(treewidth_exact(&g), 1);
    }

    #[test]
    fn grids_fact_5_1() {
        // Fact 5.1: tw of n x m grid is min(n, m) (for n + m >= 3).
        for (r, c) in [(2, 2), (2, 4), (3, 3), (3, 4), (4, 4), (2, 7), (3, 5)] {
            let g = grid_graph(r, c);
            assert_eq!(treewidth_exact(&g), r.min(c), "grid {r}x{c}");
        }
    }

    #[test]
    fn example_2_1_clique() {
        // Example 2.1: the Gaifman graph of R' is K_n, treewidth n-1.
        assert_eq!(treewidth_exact(&Graph::complete(6)), 5);
    }

    #[test]
    fn petersen_graph() {
        // The Petersen graph has treewidth 4.
        let mut g = Graph::new(10);
        for i in 0..5 {
            g.add_edge(i, (i + 1) % 5); // outer cycle
            g.add_edge(5 + i, 5 + (i + 2) % 5); // inner pentagram
            g.add_edge(i, 5 + i); // spokes
        }
        assert_eq!(treewidth_exact(&g), 4);
    }

    #[test]
    fn complete_bipartite() {
        // tw(K_{m,n}) = min(m, n) for m, n >= 1... K_{3,3} has tw 3.
        let mut g = Graph::new(6);
        for a in 0..3 {
            for b in 3..6 {
                g.add_edge(a, b);
            }
        }
        assert_eq!(treewidth_exact(&g), 3);
    }

    #[test]
    fn moebius_kantor_like_prism() {
        // triangular prism (K3 x K2): treewidth 3.
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        );
        assert_eq!(treewidth_exact(&g), 3);
    }

    #[test]
    fn wheel_graph() {
        // wheel W_n (cycle + hub) has treewidth 3 for n >= 4... actually
        // W_n treewidth is 3 when the rim length >= 3.
        let mut g = Graph::cycle(6);
        for i in 0..6 {
            g.add_edge(6, i);
        }
        assert_eq!(treewidth_exact(&g), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn exact_within_bounds(seed in any::<u64>(), n in 4usize..10, p in 0.1f64..0.8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Graph::new(n);
            for a in 0..n {
                for b in a + 1..n {
                    if rng.gen_bool(p) {
                        g.add_edge(a, b);
                    }
                }
            }
            let tw = treewidth_exact(&g);
            prop_assert!(tw <= treewidth_upper_bound(&g));
            prop_assert!(tw >= treewidth_lower_bound(&g));
            // decomposition from any heuristic ordering is a certificate
            let order = crate::elimination::min_fill_ordering(&g);
            let td = crate::elimination::decomposition_from_ordering(&g, &order);
            td.validate(&g).unwrap();
            prop_assert!(td.width() >= tw);
        }
    }
}
