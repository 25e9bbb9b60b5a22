//! Generalized hypertree decompositions and (generalized) hypertree width.
//!
//! A *generalized hypertree decomposition* (GHD) of a hypergraph `H`
//! (Gottlob–Leone–Scarcello) is a tree decomposition of the primal graph
//! of `H` in which every bag additionally carries a **cover**: a set of
//! hyperedges whose union contains the bag. Its width is the largest
//! cover size, and the *generalized hypertree width* `ghw(H)` is the
//! minimum width over all GHDs. Bounded ghw makes conjunctive-query
//! evaluation polynomial: each bag is a join of its cover's atoms, and
//! the bag tree is an acyclic query over those joins.
//!
//! Two structural facts drive the implementation:
//!
//! 1. GHDs of `H` are exactly tree decompositions of `primal(H)` whose
//!    bags are covered: every hyperedge is a clique of the primal graph,
//!    and any clique is contained in some bag of any tree decomposition,
//!    so the hyperedge-coverage condition comes for free.
//! 2. Because the cover number `ρ(B)` is monotone under taking subsets,
//!    the minimum over tree decompositions of `max ρ(bag)` is attained
//!    on a decomposition induced by an elimination ordering (every tree
//!    decomposition refines to a minimal triangulation, and minimal
//!    triangulations arise from elimination orderings). Exact search is
//!    therefore the memoized subset branch-and-bound of
//!    [`crate::exact`] with the elimination bag's minimum edge cover as
//!    its cost in place of `|bag| − 1`. The search memoizes one exact
//!    cover per bag, and the witness bags are labelled from that memo,
//!    so the reported width is the width that was searched.
//!
//! The stricter *hypertree decompositions* add a descendant condition
//! (every cover vertex that reappears below a bag must be in the bag);
//! [`HypertreeDecomposition::validate_special`] checks it separately,
//! since width-minimal GHDs need not satisfy it (`hw ≤ 3·ghw + 1`).
//!
//! Vertices in no hyperedge (a query variable used by no atom) cannot be
//! covered; the constructors strip them from every bag, and
//! [`HypertreeDecomposition::validate`] only requires coverage of
//! non-isolated vertices.

use crate::decomposition::TreeDecomposition;
use crate::elimination::{decomposition_from_ordering, min_degree_ordering, min_fill_ordering};
use crate::exact::{mask, BagCost, EliminationSearch, MAX_EXACT_VERTICES};
use crate::hypergraph::Hypergraph;
use cq_util::{BitSet, FxHashMap};
use std::cmp::Reverse;

/// Applies only to the covers of [`hypertree_greedy`]: above this many
/// undominated candidate edges a bag's cover falls back from
/// branch-and-bound to plain greedy. The exact search prices every bag
/// with an exact cover.
const MAX_EXACT_COVER_CANDIDATES: usize = 24;

/// A generalized hypertree decomposition: a bag tree where every bag is
/// annotated with the hyperedge indices that cover it.
#[derive(Clone, Debug)]
pub struct HypertreeDecomposition {
    bags: Vec<BitSet>,
    /// Per-bag cover: indices into the hypergraph's edge list whose
    /// union contains the bag.
    covers: Vec<Vec<usize>>,
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl HypertreeDecomposition {
    /// Creates a decomposition with the given `(bag, cover)` pairs and
    /// no tree edges yet.
    pub fn with_bags(bags: Vec<(BitSet, Vec<usize>)>) -> Self {
        let n = bags.len();
        let (bags, covers) = bags.into_iter().unzip();
        HypertreeDecomposition {
            bags,
            covers,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of bags.
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// The bag at `i`.
    pub fn bag(&self, i: usize) -> &BitSet {
        &self.bags[i]
    }

    /// All bags.
    pub fn bags(&self) -> &[BitSet] {
        &self.bags
    }

    /// The cover (hyperedge indices) of bag `i`.
    pub fn cover(&self, i: usize) -> &[usize] {
        &self.covers[i]
    }

    /// Tree edges between bag indices.
    pub fn tree_edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Bags adjacent to bag `i` in the tree.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Connects two bags in the tree.
    pub fn add_tree_edge(&mut self, a: usize, b: usize) {
        self.edges.push((a, b));
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// Width: the largest bag cover. (Contrast with tree decomposition
    /// width, which is the largest bag *minus one*; an acyclic query has
    /// hypertree width 1.)
    pub fn width(&self) -> usize {
        self.covers.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks the generalized hypertree decomposition conditions against
    /// `h`: the bag graph is a tree, every hyperedge is contained in some
    /// bag, every non-isolated vertex appears in a bag and its bags form
    /// a connected subtree, and every bag is contained in the union of
    /// its cover's hyperedges. Returns a human-readable violation, or
    /// `Ok(())`.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), String> {
        if self.bags.is_empty() {
            if h.num_edges() == 0 {
                return Ok(());
            }
            return Err("no bags but hypergraph has edges".into());
        }
        if self.edges.len() + 1 != self.bags.len() {
            return Err(format!(
                "tree has {} bags but {} edges (want bags-1)",
                self.bags.len(),
                self.edges.len()
            ));
        }
        let mut seen = BitSet::with_capacity(self.bags.len());
        let mut stack = vec![0usize];
        seen.insert(0);
        while let Some(v) = stack.pop() {
            for &u in &self.adj[v] {
                if seen.insert(u) {
                    stack.push(u);
                }
            }
        }
        if seen.len() != self.bags.len() {
            return Err("bag tree is disconnected".into());
        }
        // Covers: indices in range, bag inside its cover's union.
        for (i, cover) in self.covers.iter().enumerate() {
            let mut union = BitSet::with_capacity(h.num_vertices());
            for &e in cover {
                if e >= h.num_edges() {
                    return Err(format!(
                        "bag {i} cover references hyperedge {e} but hypergraph has {}",
                        h.num_edges()
                    ));
                }
                union.union_with(h.edge(e));
            }
            if !self.bags[i].is_subset(&union) {
                let v = self.bags[i].difference(&union).min().unwrap();
                return Err(format!("bag {i} vertex {v} is not covered by its cover"));
            }
        }
        // Every hyperedge inside some bag.
        for (e, verts) in h.edges().iter().enumerate() {
            if !self.bags.iter().any(|b| verts.is_subset(b)) {
                return Err(format!("hyperedge {e} is contained in no bag"));
            }
        }
        // Every non-isolated vertex in a bag, with a connected bag set.
        let mut non_isolated = BitSet::with_capacity(h.num_vertices());
        for e in h.edges() {
            non_isolated.union_with(e);
        }
        for v in non_isolated.iter() {
            let holders: Vec<usize> = (0..self.bags.len())
                .filter(|&i| self.bags[i].contains(v))
                .collect();
            if holders.is_empty() {
                return Err(format!("vertex {v} appears in no bag"));
            }
            let mut reach = BitSet::with_capacity(self.bags.len());
            reach.insert(holders[0]);
            let mut stack = vec![holders[0]];
            while let Some(b) = stack.pop() {
                for &u in &self.adj[b] {
                    if self.bags[u].contains(v) && reach.insert(u) {
                        stack.push(u);
                    }
                }
            }
            if reach.len() != holders.len() {
                return Err(format!("bags containing vertex {v} are disconnected"));
            }
        }
        Ok(())
    }

    /// Checks the *special descendant condition* that distinguishes a
    /// hypertree decomposition from a generalized one: with the tree
    /// rooted at `root`, every vertex of a bag's cover that occurs
    /// anywhere in the bag's subtree must be in the bag itself. A
    /// decomposition passing [`Self::validate`] and this check witnesses
    /// hypertree width ≤ its width; ours are only guaranteed to be GHDs.
    pub fn validate_special(&self, h: &Hypergraph, root: usize) -> Result<(), String> {
        if self.bags.is_empty() {
            return Ok(());
        }
        assert!(root < self.bags.len(), "root bag out of range");
        // Post-order subtree vertex sets.
        let n = self.bags.len();
        let mut parent = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
        let mut seen = BitSet::with_capacity(n);
        seen.insert(root);
        while let Some(v) = stack.pop() {
            order.push(v);
            for &u in &self.adj[v] {
                if seen.insert(u) {
                    parent[u] = v;
                    stack.push(u);
                }
            }
        }
        let mut subtree: Vec<BitSet> = self.bags.clone();
        for &v in order.iter().rev() {
            if parent[v] != usize::MAX {
                let sub = subtree[v].clone();
                subtree[parent[v]].union_with(&sub);
            }
        }
        for &i in &order {
            let mut union = BitSet::with_capacity(h.num_vertices());
            for &e in &self.covers[i] {
                union.union_with(h.edge(e));
            }
            union.intersect_with(&subtree[i]);
            if !union.is_subset(&self.bags[i]) {
                let v = union.difference(&self.bags[i]).min().unwrap();
                return Err(format!(
                    "cover vertex {v} of bag {i} reappears in its subtree but not in the bag"
                ));
            }
        }
        Ok(())
    }
}

/// The vertex-set operations of [`min_cover`]: `u64` masks in the exact
/// search, [`BitSet`]s (any vertex count) on the greedy path.
trait VertexSet: Clone {
    fn is_empty(&self) -> bool;
    fn and(&self, other: &Self) -> Self;
    fn minus(&self, other: &Self) -> Self;
    fn contains(&self, v: usize) -> bool;
    fn is_subset(&self, other: &Self) -> bool;
    fn len(&self) -> usize;
    fn members(&self) -> impl Iterator<Item = usize> + '_;
}

impl VertexSet for u64 {
    fn is_empty(&self) -> bool {
        *self == 0
    }
    fn and(&self, other: &u64) -> u64 {
        self & other
    }
    fn minus(&self, other: &u64) -> u64 {
        self & !other
    }
    fn contains(&self, v: usize) -> bool {
        self >> v & 1 != 0
    }
    fn is_subset(&self, other: &u64) -> bool {
        self & !other == 0
    }
    fn len(&self) -> usize {
        self.count_ones() as usize
    }
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = *self;
        std::iter::from_fn(move || {
            let v = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (v < 64).then_some(v)
        })
    }
}

impl VertexSet for BitSet {
    fn is_empty(&self) -> bool {
        BitSet::is_empty(self)
    }
    fn and(&self, other: &BitSet) -> BitSet {
        self.intersection(other)
    }
    fn minus(&self, other: &BitSet) -> BitSet {
        self.difference(other)
    }
    fn contains(&self, v: usize) -> bool {
        BitSet::contains(self, v)
    }
    fn is_subset(&self, other: &BitSet) -> bool {
        BitSet::is_subset(self, other)
    }
    fn len(&self) -> usize {
        BitSet::len(self)
    }
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter()
    }
}

/// A minimum cover of `target` by `edges`, as edge indices, or `None` if
/// some vertex of `target` lies in no edge. Branch-and-bound seeded with
/// the greedy cover; above `max_candidates` undominated candidate edges,
/// the greedy cover alone.
fn min_cover<S: VertexSet>(edges: &[S], target: &S, max_candidates: usize) -> Option<Vec<usize>> {
    // Candidates: edge restrictions to the target, dominated ones
    // removed (the earliest index among duplicates is kept).
    let mut candidates: Vec<(usize, S)> = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        let r = e.and(target);
        if r.is_empty() || candidates.iter().any(|(_, c)| r.is_subset(c)) {
            continue;
        }
        candidates.retain(|(_, c)| !c.is_subset(&r));
        candidates.push((i, r));
    }
    let mut best = Vec::new();
    let mut uncovered = target.clone();
    while !uncovered.is_empty() {
        let (gain, i, c) = candidates
            .iter()
            .map(|(i, c)| (c.and(&uncovered).len(), *i, c))
            .max_by_key(|&(gain, i, _)| (gain, Reverse(i)))?;
        if gain == 0 {
            return None;
        }
        best.push(i);
        uncovered = uncovered.minus(c);
    }
    if candidates.len() <= max_candidates {
        branch_cover(&candidates, target.clone(), &mut Vec::new(), &mut best);
    }
    Some(best)
}

fn branch_cover<S: VertexSet>(
    candidates: &[(usize, S)],
    uncovered: S,
    chosen: &mut Vec<usize>,
    best: &mut Vec<usize>,
) {
    if uncovered.is_empty() {
        if chosen.len() < best.len() {
            *best = chosen.clone();
        }
        return;
    }
    if chosen.len() + 1 >= best.len() {
        return; // even one more edge cannot beat the incumbent
    }
    // Branch on the uncovered vertex with the fewest candidate edges.
    // Some edge of every cover contains it; try each such edge against
    // the full candidate list.
    let v = uncovered
        .members()
        .min_by_key(|&v| candidates.iter().filter(|(_, c)| c.contains(v)).count())
        .unwrap();
    for (i, c) in candidates {
        if c.contains(v) {
            chosen.push(*i);
            branch_cover(candidates, uncovered.minus(c), chosen, best);
            chosen.pop();
        }
    }
}

/// Converts a tree decomposition of `primal(h)` into a generalized
/// hypertree decomposition: strips isolated vertices from every bag,
/// contracts the bags that became empty, and labels each bag with
/// `cover(bag)`.
fn cover_decomposition(
    h: &Hypergraph,
    td: &TreeDecomposition,
    mut cover: impl FnMut(&BitSet) -> Vec<usize>,
) -> HypertreeDecomposition {
    let mut non_isolated = BitSet::with_capacity(h.num_vertices());
    for e in h.edges() {
        non_isolated.union_with(e);
    }
    let mut bags: Vec<BitSet> = td
        .bags()
        .iter()
        .map(|b| b.intersection(&non_isolated))
        .collect();
    let mut edges: Vec<(usize, usize)> = td.tree_edges().to_vec();
    // Contract empty bags (an empty bag is a subset of every neighbor,
    // so splicing it out preserves all decomposition conditions).
    while bags.len() > 1 {
        let Some(e) = bags.iter().position(BitSet::is_empty) else {
            break;
        };
        let nbrs: Vec<usize> = edges
            .iter()
            .filter(|&&(a, b)| a == e || b == e)
            .map(|&(a, b)| if a == e { b } else { a })
            .collect();
        edges.retain(|&(a, b)| a != e && b != e);
        for &u in nbrs.iter().skip(1) {
            edges.push((nbrs[0], u));
        }
        bags.remove(e);
        for (a, b) in edges.iter_mut() {
            if *a > e {
                *a -= 1;
            }
            if *b > e {
                *b -= 1;
            }
        }
    }
    let covers: Vec<Vec<usize>> = bags.iter().map(&mut cover).collect();
    let mut htd = HypertreeDecomposition::with_bags(bags.into_iter().zip(covers).collect());
    for (a, b) in edges {
        htd.add_tree_edge(a, b);
    }
    htd
}

/// A generalized hypertree decomposition from greedy elimination
/// orderings of the primal graph (min-fill and min-degree; the smaller
/// width wins). Its width is an upper bound on `ghw(h)`; on an acyclic
/// (conformal + chordal) hypergraph it is exactly 1.
pub fn hypertree_greedy(h: &Hypergraph) -> HypertreeDecomposition {
    let g = h.primal_graph();
    let greedy = |order: Vec<usize>| {
        cover_decomposition(h, &decomposition_from_ordering(&g, &order), |bag| {
            min_cover(h.edges(), bag, MAX_EXACT_COVER_CANDIDATES)
                .expect("non-isolated bag vertices are coverable")
        })
    };
    let fill = greedy(min_fill_ordering(&g));
    let degree = greedy(min_degree_ordering(&g));
    if degree.width() < fill.width() {
        degree
    } else {
        fill
    }
}

/// Upper bound on the generalized hypertree width of `h`.
pub fn hypertree_width_upper_bound(h: &Hypergraph) -> usize {
    hypertree_greedy(h).width()
}

/// A width-minimal generalized hypertree decomposition, by memoized
/// branch-and-bound over elimination orderings of the primal graph with
/// elimination-time bag cover number as the cost (see the module doc for
/// why this is exact).
///
/// # Panics
/// Panics if `h` has more than 64 vertices (use [`hypertree_greedy`]).
pub fn hypertree_exact(h: &Hypergraph) -> HypertreeDecomposition {
    assert!(
        h.num_vertices() <= MAX_EXACT_VERTICES,
        "exact width search is limited to {MAX_EXACT_VERTICES} vertices"
    );
    let greedy = hypertree_greedy(h);
    if greedy.width() <= 1 {
        // Width 0 means no edges; width 1 is optimal whenever any edge
        // exists. Either way the greedy result cannot be improved.
        return greedy;
    }
    // Greedy finds width 1 on every acyclic hypergraph (min-fill
    // eliminates a chordal primal graph perfectly, and conformality
    // puts each bag in one edge), so here ghw ≥ 2.
    let g = h.primal_graph();
    let mut search = EliminationSearch::new(&g, EdgeCover::new(h));
    let Some(k) = search.min_width(2, greedy.width()) else {
        return greedy;
    };
    let td = decomposition_from_ordering(&g, &search.witness(k));
    cover_decomposition(h, &td, |bag| search.cost.cover(mask(bag.iter())).to_vec())
}

/// Exact generalized hypertree width of `h`.
///
/// ```
/// use cq_hypergraph::{hypertree_width_exact, Hypergraph};
/// // Triangle query R(X,Y), S(Y,Z), T(X,Z): cyclic, ghw 2.
/// let mut h = Hypergraph::new(3);
/// h.add_edge_from([0, 1]);
/// h.add_edge_from([1, 2]);
/// h.add_edge_from([0, 2]);
/// assert_eq!(hypertree_width_exact(&h), 2);
/// ```
pub fn hypertree_width_exact(h: &Hypergraph) -> usize {
    hypertree_exact(h).width()
}

/// The ghw bag cost: the size of a minimum set of hyperedges covering
/// the bag. Isolated vertices are left out of the target: no edge covers
/// them, and they are stripped from every bag.
struct EdgeCover {
    edges: Vec<u64>,
    /// Union of all hyperedges.
    covered: u64,
    /// cover target -> one minimum cover, as edge indices
    memo: FxHashMap<u64, Vec<usize>>,
}

impl EdgeCover {
    fn new(h: &Hypergraph) -> Self {
        let edges: Vec<u64> = h.edges().iter().map(|e| mask(e.iter())).collect();
        EdgeCover {
            covered: edges.iter().fold(0, |acc, e| acc | e),
            edges,
            memo: FxHashMap::default(),
        }
    }

    /// A minimum cover of `bag`'s non-isolated vertices, memoized.
    fn cover(&mut self, bag: u64) -> &[usize] {
        let target = bag & self.covered;
        self.memo
            .entry(target)
            .or_insert_with(|| min_cover(&self.edges, &target, usize::MAX).expect("coverable"))
    }
}

impl BagCost for EdgeCover {
    fn cost(&mut self, bag: u64) -> usize {
        self.cover(bag).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        let mut h = Hypergraph::new(3);
        h.add_edge_from([0, 1]);
        h.add_edge_from([1, 2]);
        h.add_edge_from([0, 2]);
        h
    }

    /// Cycle query of length `k` over binary edges.
    fn cycle(k: usize) -> Hypergraph {
        let mut h = Hypergraph::new(k);
        for i in 0..k {
            h.add_edge_from([i, (i + 1) % k]);
        }
        h
    }

    #[test]
    fn acyclic_path_has_width_one() {
        let mut h = Hypergraph::new(4);
        h.add_edge_from([0, 1]);
        h.add_edge_from([1, 2]);
        h.add_edge_from([2, 3]);
        let greedy = hypertree_greedy(&h);
        greedy.validate(&h).unwrap();
        assert_eq!(greedy.width(), 1);
        let exact = hypertree_exact(&h);
        exact.validate(&h).unwrap();
        assert_eq!(exact.width(), 1);
    }

    #[test]
    fn triangle_has_width_two() {
        let h = triangle();
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 2);
        assert!(hypertree_width_upper_bound(&h) >= 2);
    }

    #[test]
    fn wide_edge_covers_itself() {
        // One 5-ary atom: acyclic, width 1 even though the primal graph
        // is K5.
        let mut h = Hypergraph::new(5);
        h.add_edge_from([0, 1, 2, 3, 4]);
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 1);
    }

    #[test]
    fn cycles_have_width_two() {
        // ghw of any cycle of length >= 3 is 2.
        for k in 3..8 {
            let h = cycle(k);
            let htd = hypertree_exact(&h);
            htd.validate(&h).unwrap();
            assert_eq!(htd.width(), 2, "cycle length {k}");
        }
    }

    #[test]
    fn clique_of_binary_edges() {
        // K_n as binary atoms: ghw = ceil(n/2) (each bag must cover all
        // n vertices through 2-vertex edges). For n=4: 2.
        let mut h = Hypergraph::new(4);
        for a in 0..4 {
            for b in a + 1..4 {
                h.add_edge_from([a, b]);
            }
        }
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 2);
    }

    #[test]
    fn exact_never_exceeds_greedy() {
        for h in [triangle(), cycle(6), cycle(7)] {
            assert!(hypertree_width_exact(&h) <= hypertree_width_upper_bound(&h));
        }
    }

    #[test]
    fn isolated_vertices_are_stripped() {
        // Vertex 3 is declared but in no edge.
        let mut h = Hypergraph::new(4);
        h.add_edge_from([0, 1]);
        h.add_edge_from([1, 2]);
        for htd in [hypertree_greedy(&h), hypertree_exact(&h)] {
            htd.validate(&h).unwrap();
            assert!(htd.bags().iter().all(|b| !b.contains(3)));
            assert_eq!(htd.width(), 1);
        }
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(0);
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 0);
    }

    #[test]
    fn all_isolated() {
        let h = Hypergraph::new(3);
        let htd = hypertree_greedy(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 0);
    }

    #[test]
    fn validate_rejects_uncovered_bag() {
        let h = triangle();
        // Bag {0,1,2} labeled with only edge 0 = {0,1}: vertex 2 uncovered.
        let htd = HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1, 2]), vec![0])]);
        let err = htd.validate(&h).unwrap_err();
        assert!(err.contains("not covered"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_hyperedge() {
        let h = triangle();
        let mut htd = HypertreeDecomposition::with_bags(vec![
            (BitSet::from_iter([0, 1]), vec![0]),
            (BitSet::from_iter([1, 2]), vec![1]),
        ]);
        htd.add_tree_edge(0, 1);
        let err = htd.validate(&h).unwrap_err();
        assert!(err.contains("hyperedge 2"), "{err}");
    }

    #[test]
    fn validate_rejects_disconnected_tree() {
        let h = triangle();
        let htd = HypertreeDecomposition::with_bags(vec![
            (BitSet::from_iter([0, 1, 2]), vec![0, 1]),
            (BitSet::from_iter([0, 1, 2]), vec![1, 2]),
        ]);
        assert!(htd.validate(&h).is_err());
    }

    #[test]
    fn validate_rejects_bad_cover_index() {
        let h = triangle();
        let htd = HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1, 2]), vec![7])]);
        let err = htd.validate(&h).unwrap_err();
        assert!(err.contains("references hyperedge 7"), "{err}");
    }

    #[test]
    fn special_condition_checked() {
        let h = triangle();
        // Single bag covering everything: special condition trivially ok.
        let htd =
            HypertreeDecomposition::with_bags(vec![(BitSet::from_iter([0, 1, 2]), vec![0, 1])]);
        htd.validate(&h).unwrap();
        htd.validate_special(&h, 0).unwrap();
        // Bag 0 = {0,1} covered by edge 0; bag 1 = {0,1,2}: the cover of
        // bag 0 stays within its subtree, fine. Reverse: root at the
        // small bag, child covers all — still fine. Build a violation:
        // bag 0 = {1} covered by edge 1 = {1,2}; vertex 2 reappears in
        // the child bag {0,2} but not in bag 0.
        let mut bad = HypertreeDecomposition::with_bags(vec![
            (BitSet::from_iter([1]), vec![1]),
            (BitSet::from_iter([0, 2]), vec![2]),
        ]);
        bad.add_tree_edge(0, 1);
        let err = bad.validate_special(&h, 0).unwrap_err();
        assert!(err.contains("reappears"), "{err}");
    }

    fn hypergraph(n: usize, edges: &[&[usize]]) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for e in edges {
            h.add_edge_from(e.iter().copied());
        }
        h
    }

    #[test]
    fn covers_found_past_the_rarest_vertex_branch() {
        // Q(X0..X5) :- E0(X0,X1,X2), E1(X3,X1), E2(X3,X2), E3(X1,X2),
        // E4(X0,X1,X4), E5(X3,X5,X2), E6(X4,X5). ghw 2: bag
        // {X0,X1,X2,X4,X5} is covered by E0 + E6, bag {X1,X2,X3,X5} by
        // E5 + E1. A cover branch that recursed only on the candidates
        // after the one it picked missed both and reported 3.
        let h = hypergraph(
            6,
            &[
                &[0, 1, 2],
                &[3, 1],
                &[3, 2],
                &[1, 2],
                &[0, 1, 4],
                &[3, 5, 2],
                &[4, 5],
            ],
        );
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 2);
        let cover = min_cover(h.edges(), &BitSet::from_iter([0, 1, 2, 4, 5]), usize::MAX).unwrap();
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn exact_covers_have_no_candidate_cap() {
        // A(X0..X5), B(X6..X11), C(X1..X9) and 23 triples F(X0,Xa,Xj):
        // the primal graph is K12, and the all-variable bag has 26
        // undominated candidate edges, past the greedy path's cap. ghw 2
        // (A + B cover everything).
        let mut edges: Vec<Vec<usize>> =
            vec![(0..6).collect(), (6..12).collect(), (1..10).collect()];
        for (a, top) in [(10, 9), (11, 9), (6, 5)] {
            edges.extend((1..=top).map(|j| vec![0, a, j]));
        }
        let edges: Vec<&[usize]> = edges.iter().map(Vec::as_slice).collect();
        let h = hypergraph(12, &edges);
        let htd = hypertree_exact(&h);
        htd.validate(&h).unwrap();
        assert_eq!(htd.width(), 2);
    }

    #[test]
    fn min_cover_exact_beats_greedy_trap() {
        // Classic greedy set-cover trap: universe {0..5}, greedy picks
        // the size-3 middle set first and needs 3 sets; optimum is 2.
        let mut h = Hypergraph::new(6);
        h.add_edge_from([0, 1, 2]); // optimal half
        h.add_edge_from([3, 4, 5]); // optimal half
        h.add_edge_from([1, 2, 3, 4]); // greedy bait
        let cover = min_cover(h.edges(), &BitSet::from_iter(0..6), usize::MAX).unwrap();
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn min_cover_uncoverable() {
        let mut h = Hypergraph::new(3);
        h.add_edge_from([0, 1]);
        assert!(min_cover(h.edges(), &BitSet::from_iter([0, 2]), usize::MAX).is_none());
    }
}
