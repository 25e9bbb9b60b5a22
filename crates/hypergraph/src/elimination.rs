//! Elimination orderings and the decompositions they induce.
//!
//! The paper (§2) works with the equivalent definition of treewidth via
//! elimination orderings: eliminating a vertex turns its neighborhood into
//! a clique and removes it; the width of an ordering is the maximum
//! neighborhood size at elimination time, and treewidth is the minimum
//! width over all orderings.
//!
//! This module computes the width of a given ordering, produces greedy
//! orderings (min-degree and min-fill, the standard upper-bound
//! heuristics), converts orderings to tree decompositions, and provides
//! the MMD (maximum minimum degree / degeneracy) lower bound.

use crate::decomposition::TreeDecomposition;
use crate::graph::Graph;
use cq_util::BitSet;

/// Width of the elimination ordering `order` on `g`: the largest
/// elimination-time neighborhood. (This equals "elimination width − 1" in
/// the paper's clique phrasing, i.e. it is directly comparable to
/// treewidth: `tw(G) = min over orderings of this quantity`.)
pub fn elimination_width(g: &Graph, order: &[usize]) -> usize {
    assert_eq!(
        order.len(),
        g.num_vertices(),
        "ordering must cover all vertices"
    );
    let mut adj: Vec<BitSet> = (0..g.num_vertices())
        .map(|v| g.neighbors(v).clone())
        .collect();
    let mut alive = BitSet::full(g.num_vertices());
    let mut width = 0;
    for &v in order {
        assert!(alive.contains(v), "vertex repeated in ordering");
        let nbrs: Vec<usize> = adj[v].intersection(&alive).iter().collect();
        width = width.max(nbrs.len());
        // make the live neighborhood a clique
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        alive.remove(v);
    }
    width
}

/// Builds the tree decomposition induced by an elimination ordering.
///
/// Each vertex `v` gets the bag `{v} ∪ N(v)` taken at elimination time in
/// the fill-in graph; `v`'s bag is attached to the bag of its earliest
/// eliminated live neighbor. The resulting width equals
/// [`elimination_width`] of the same ordering.
pub fn decomposition_from_ordering(g: &Graph, order: &[usize]) -> TreeDecomposition {
    let n = g.num_vertices();
    assert_eq!(order.len(), n);
    if n == 0 {
        return TreeDecomposition::with_bags(vec![]);
    }
    let mut adj: Vec<BitSet> = (0..n).map(|v| g.neighbors(v).clone()).collect();
    let mut alive = BitSet::full(n);
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let mut bags: Vec<BitSet> = Vec::with_capacity(n);
    let mut first_live_nbr: Vec<Option<usize>> = Vec::with_capacity(n);
    for &v in order {
        let live: Vec<usize> = adj[v].intersection(&alive).iter().collect();
        let mut bag = BitSet::from_iter(live.iter().copied());
        bag.insert(v);
        bags.push(bag);
        first_live_nbr.push(
            live.iter()
                .copied()
                .filter(|&u| u != v)
                .min_by_key(|&u| position[u]),
        );
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        alive.remove(v);
    }
    let mut td = TreeDecomposition::with_bags(bags);
    // bag index i corresponds to order[i]
    let mut bag_of = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        bag_of[v] = i;
    }
    for (i, nbr) in first_live_nbr.iter().enumerate() {
        match nbr {
            Some(u) => td.add_tree_edge(i, bag_of[*u]),
            None => {
                // isolated remainder: attach to the next bag to keep a tree
                if i + 1 < n {
                    td.add_tree_edge(i, i + 1);
                }
            }
        }
    }
    td
}

/// Greedy min-degree elimination ordering (treewidth upper bound).
pub fn min_degree_ordering(g: &Graph) -> Vec<usize> {
    greedy_ordering(g, &BitSet::new(), |adj, alive, v| {
        adj[v].intersection(alive).len()
    })
}

/// Greedy min-fill elimination ordering (usually tighter than min-degree).
pub fn min_fill_ordering(g: &Graph) -> Vec<usize> {
    greedy_ordering(g, &BitSet::new(), fill_in)
}

/// Greedy min-fill elimination ordering that eliminates every vertex of
/// `first` before any other vertex: min-fill picks among the live
/// vertices of `first` while any remain, then among the rest. Counting
/// a projection by elimination needs this shape of order, with the
/// existential variables in `first`.
pub fn min_fill_ordering_first(g: &Graph, first: &BitSet) -> Vec<usize> {
    greedy_ordering(g, first, fill_in)
}

/// The fill-in of eliminating `v`: the non-adjacent pairs among its
/// live neighbours.
fn fill_in(adj: &[BitSet], alive: &BitSet, v: usize) -> usize {
    let nbrs: Vec<usize> = adj[v].intersection(alive).iter().collect();
    let mut fill = 0usize;
    for (i, &a) in nbrs.iter().enumerate() {
        for &b in &nbrs[i + 1..] {
            if !adj[a].contains(b) {
                fill += 1;
            }
        }
    }
    fill
}

/// Eliminates the live vertex of least `score` (ties to the lower
/// index), taking the vertices of `first` before all others.
fn greedy_ordering(
    g: &Graph,
    first: &BitSet,
    score: impl Fn(&[BitSet], &BitSet, usize) -> usize,
) -> Vec<usize> {
    let n = g.num_vertices();
    let mut adj: Vec<BitSet> = (0..n).map(|v| g.neighbors(v).clone()).collect();
    let mut alive = BitSet::full(n);
    let mut pending = first.intersection(&alive);
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let candidates = if pending.is_empty() { &alive } else { &pending };
        let v = candidates
            .iter()
            .min_by_key(|&v| (score(&adj, &alive, v), v))
            .expect("alive set nonempty");
        pending.remove(v);
        let nbrs: Vec<usize> = adj[v].intersection(&alive).iter().collect();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
        alive.remove(v);
        order.push(v);
    }
    order
}

/// Treewidth upper bound: the better of min-degree and min-fill.
pub fn treewidth_upper_bound(g: &Graph) -> usize {
    let w1 = elimination_width(g, &min_degree_ordering(g));
    let w2 = elimination_width(g, &min_fill_ordering(g));
    w1.min(w2)
}

/// MMD / degeneracy lower bound on treewidth: repeatedly delete a
/// minimum-degree vertex; the maximum min-degree seen is ≤ tw(G).
pub fn treewidth_lower_bound(g: &Graph) -> usize {
    let n = g.num_vertices();
    let adj: Vec<BitSet> = (0..n).map(|v| g.neighbors(v).clone()).collect();
    let mut alive = BitSet::full(n);
    let mut best = 0;
    for _ in 0..n {
        let v = alive
            .iter()
            .min_by_key(|&v| adj[v].intersection(&alive).len())
            .unwrap();
        best = best.max(adj[v].intersection(&alive).len());
        alive.remove(v);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_width_one() {
        let g = Graph::path(5);
        let order: Vec<usize> = (0..5).collect();
        assert_eq!(elimination_width(&g, &order), 1);
    }

    #[test]
    fn bad_ordering_is_wider() {
        // Eliminating the middle of a star first creates a clique.
        let g = Graph::from_edges(0, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(elimination_width(&g, &[0, 1, 2, 3, 4]), 4);
        assert_eq!(elimination_width(&g, &[1, 2, 3, 4, 0]), 1);
    }

    #[test]
    fn clique_width() {
        let g = Graph::complete(5);
        let order: Vec<usize> = (0..5).collect();
        assert_eq!(elimination_width(&g, &order), 4);
    }

    #[test]
    fn heuristics_on_known_graphs() {
        assert_eq!(treewidth_upper_bound(&Graph::path(6)), 1);
        assert_eq!(treewidth_upper_bound(&Graph::cycle(6)), 2);
        assert_eq!(treewidth_upper_bound(&Graph::complete(6)), 5);
    }

    #[test]
    fn lower_bounds() {
        assert_eq!(treewidth_lower_bound(&Graph::path(6)), 1);
        assert_eq!(treewidth_lower_bound(&Graph::cycle(6)), 2);
        assert_eq!(treewidth_lower_bound(&Graph::complete(6)), 5);
    }

    #[test]
    fn decomposition_matches_width_and_validates() {
        for g in [
            Graph::path(6),
            Graph::cycle(7),
            Graph::complete(4),
            Graph::from_edges(0, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 2)]),
        ] {
            let order = min_fill_ordering(&g);
            let td = decomposition_from_ordering(&g, &order);
            td.validate(&g).unwrap();
            assert_eq!(td.width(), elimination_width(&g, &order));
        }
    }

    #[test]
    fn disconnected_graph_decomposition() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]);
        let order = min_degree_ordering(&g);
        let td = decomposition_from_ordering(&g, &order);
        td.validate(&g).unwrap();
        assert_eq!(td.width(), 1);
    }

    #[test]
    #[should_panic]
    fn repeated_vertex_in_ordering_panics() {
        let g = Graph::path(3);
        elimination_width(&g, &[0, 0, 1]);
    }
}
