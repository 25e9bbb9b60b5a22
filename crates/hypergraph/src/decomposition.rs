//! Tree decompositions (Robertson & Seymour) and their validation.
//!
//! A tree decomposition of a graph `G = (V, E)` is a tree whose nodes
//! ("bags", following the paper's §2 terminology) are subsets of `V` such
//! that (i) every vertex appears in a bag, (ii) every edge is contained in
//! a bag, and (iii) the bags containing any fixed vertex form a connected
//! subtree. Its width is the maximum bag size minus one.
//!
//! The paper's Theorem 5.5 *constructs* a decomposition of a keyed join
//! result by augmenting bags along tree paths (Observation 5.6); the
//! mutation API here ([`TreeDecomposition::augment_path`]) implements
//! exactly that operation.

use crate::graph::Graph;
use cq_util::BitSet;

/// A tree decomposition: bags plus tree edges.
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    bags: Vec<BitSet>,
    /// Tree edges between bag indices.
    edges: Vec<(usize, usize)>,
    /// Adjacency over bags (kept in sync with `edges`).
    adj: Vec<Vec<usize>>,
}

impl TreeDecomposition {
    /// Creates a decomposition with the given bags and no tree edges yet.
    pub fn with_bags(bags: Vec<BitSet>) -> Self {
        let n = bags.len();
        TreeDecomposition {
            bags,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// The trivial decomposition: one bag holding every vertex.
    pub fn trivial(num_vertices: usize) -> Self {
        TreeDecomposition::with_bags(vec![BitSet::full(num_vertices)])
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

    /// Tree edges between bags.
    pub fn tree_edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Connects two bags in the tree.
    pub fn add_tree_edge(&mut self, a: usize, b: usize) {
        self.edges.push((a, b));
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// Width: max bag size − 1 (the empty decomposition has width 0).
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Finds a bag containing all of `verts`, if any.
    pub fn find_bag_containing(&self, verts: &BitSet) -> Option<usize> {
        self.bags.iter().position(|b| verts.is_subset(b))
    }

    /// The unique tree path between bags `from` and `to` (inclusive).
    ///
    /// # Panics
    /// Panics if the bags are not connected in the tree.
    fn path_between(&self, from: usize, to: usize) -> Vec<usize> {
        let mut parent = vec![usize::MAX; self.bags.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = BitSet::with_capacity(self.bags.len());
        seen.insert(from);
        while let Some(v) = queue.pop_front() {
            if v == to {
                break;
            }
            for &u in &self.adj[v] {
                if seen.insert(u) {
                    parent[u] = v;
                    queue.push_back(u);
                }
            }
        }
        assert!(seen.contains(to), "bags are not in the same tree component");
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = parent[cur];
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Observation 5.6 of the paper: adds the vertex set `extra` to every
    /// bag on the tree path between `from` and `to`. The result remains a
    /// valid tree decomposition of the original graph (and may become one
    /// of a supergraph).
    pub fn augment_path(&mut self, from: usize, to: usize, extra: &BitSet) {
        for bag_idx in self.path_between(from, to) {
            self.bags[bag_idx].union_with(extra);
        }
    }

    /// Checks all three tree-decomposition conditions against `g`.
    /// Returns a human-readable violation, or `Ok(())`.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        if self.bags.is_empty() {
            if g.num_vertices() == 0 {
                return Ok(());
            }
            return Err("no bags but graph has vertices".into());
        }
        // The tree must be a tree: connected with |bags|-1 edges.
        if self.edges.len() + 1 != self.bags.len() {
            return Err(format!(
                "tree has {} bags but {} edges (want bags-1)",
                self.bags.len(),
                self.edges.len()
            ));
        }
        // connectivity of the bag tree
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
        // (i) vertex coverage
        let mut covered = BitSet::with_capacity(g.num_vertices());
        for b in &self.bags {
            covered.union_with(b);
        }
        for v in 0..g.num_vertices() {
            if !covered.contains(v) {
                return Err(format!("vertex {v} appears in no bag"));
            }
        }
        // (ii) edge coverage
        for (a, b) in g.edges() {
            let pair = BitSet::from_iter([a, b]);
            if self.find_bag_containing(&pair).is_none() {
                return Err(format!("edge ({a},{b}) is in no bag"));
            }
        }
        // (iii) connectedness of each vertex's bag set
        for v in 0..g.num_vertices() {
            let holders: Vec<usize> = (0..self.bags.len())
                .filter(|&i| self.bags[i].contains(v))
                .collect();
            if holders.is_empty() {
                continue;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail
        Graph::from_edges(0, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn trivial_is_valid() {
        let g = triangle_plus_tail();
        let td = TreeDecomposition::trivial(g.num_vertices());
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 3);
    }

    #[test]
    fn proper_decomposition() {
        let g = triangle_plus_tail();
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1, 2]),
            BitSet::from_iter([2, 3]),
        ]);
        td.add_tree_edge(0, 1);
        assert!(td.validate(&g).is_ok());
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn missing_edge_detected() {
        let g = triangle_plus_tail();
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1, 2]),
            BitSet::from_iter([2, 3]),
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(1, 2);
        let err = td.validate(&g).unwrap_err();
        assert!(err.contains("edge (0,2)"), "{err}");
    }

    #[test]
    fn disconnected_vertex_bags_detected() {
        let g = Graph::path(3);
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1, 2]),
            BitSet::from_iter([0]), // 0 reappears, disconnected from bag 0
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(1, 2);
        let err = td.validate(&g).unwrap_err();
        assert!(err.contains("disconnected"), "{err}");
    }

    #[test]
    fn non_tree_detected() {
        let g = Graph::path(2);
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([0, 1]),
        ]);
        // no edge between bags: 2 bags, 0 edges
        assert!(td.validate(&g).is_err());
        td.add_tree_edge(0, 1);
        assert!(td.validate(&g).is_ok());
    }

    #[test]
    fn path_and_augment() {
        let g = Graph::path(4);
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1, 2]),
            BitSet::from_iter([2, 3]),
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(1, 2);
        assert_eq!(td.path_between(0, 2), vec![0, 1, 2]);
        // Augment with vertex 0 along the whole path (Observation 5.6).
        td.augment_path(0, 2, &BitSet::from_iter([0]));
        assert!(td.validate(&g).is_ok());
        assert!(td.bag(2).contains(0));
        // Now a supergraph edge (0,3) is covered too.
        let mut g2 = g.clone();
        g2.add_edge(0, 3);
        assert!(td.validate(&g2).is_ok());
    }

    #[test]
    fn validate_edge_cases() {
        // Empty graph, no bags: trivially valid.
        let empty = Graph::from_edges(0, &[]);
        assert!(TreeDecomposition::with_bags(Vec::new())
            .validate(&empty)
            .is_ok());
        // Vertices but no bags: rejected.
        let g = Graph::path(2);
        let err = TreeDecomposition::with_bags(Vec::new())
            .validate(&g)
            .unwrap_err();
        assert!(err.contains("no bags"), "{err}");
        // A vertex in no bag: named in the error.
        let err = TreeDecomposition::with_bags(vec![BitSet::from_iter([0])])
            .validate(&g)
            .unwrap_err();
        assert!(err.contains("vertex 1"), "{err}");
        // Right edge count but a disconnected bag tree: a doubled edge
        // between bags 0 and 1 leaves bag 2 unreachable.
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0]),
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1]),
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(1, 0);
        let err = td.validate(&g).unwrap_err();
        assert!(err.contains("disconnected"), "{err}");
    }

    #[test]
    fn path_between_endpoints_and_branches() {
        // A star of bags: paths route through the center, and the
        // trivial path is a single bag.
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0]),
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([0, 2]),
            BitSet::from_iter([0, 3]),
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(0, 2);
        td.add_tree_edge(0, 3);
        assert_eq!(td.path_between(1, 1), vec![1]);
        assert_eq!(td.path_between(1, 3), vec![1, 0, 3]);
        assert_eq!(td.path_between(3, 1), vec![3, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "same tree component")]
    fn path_between_disconnected_bags_panics() {
        let td = TreeDecomposition::with_bags(vec![BitSet::from_iter([0]), BitSet::from_iter([1])]);
        td.path_between(0, 1);
    }

    #[test]
    fn augment_path_touches_only_the_path() {
        // Bags 0-1-2-3 in a path; augmenting 0..=2 must leave bag 3
        // alone, and augmenting a single bag is a point update.
        let g = Graph::path(5);
        let mut td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1, 2]),
            BitSet::from_iter([2, 3]),
            BitSet::from_iter([3, 4]),
        ]);
        td.add_tree_edge(0, 1);
        td.add_tree_edge(1, 2);
        td.add_tree_edge(2, 3);
        td.augment_path(0, 2, &BitSet::from_iter([0]));
        assert!(td.bag(1).contains(0) && td.bag(2).contains(0));
        assert!(!td.bag(3).contains(0), "bag off the path was touched");
        td.augment_path(3, 3, &BitSet::from_iter([2]));
        assert!(td.bag(3).contains(2));
        assert!(!td.bag(0).contains(2), "point update leaked along the tree");
        // Still a valid decomposition of the original graph
        // (Observation 5.6's guarantee).
        assert!(td.validate(&g).is_ok());
    }

    #[test]
    fn find_bag() {
        let td = TreeDecomposition::with_bags(vec![
            BitSet::from_iter([0, 1]),
            BitSet::from_iter([1, 2, 5]),
        ]);
        assert_eq!(td.find_bag_containing(&BitSet::from_iter([2, 5])), Some(1));
        assert_eq!(td.find_bag_containing(&BitSet::from_iter([0, 5])), None);
    }
}
