//! Undirected simple graphs.
//!
//! Vertices are dense indices `0..n`. The adjacency structure is a vector
//! of [`BitSet`]s, which keeps neighborhood unions (the inner loop of both
//! elimination-ordering heuristics and the exact treewidth solver) cheap.

use cq_util::BitSet;

/// An undirected simple graph on vertices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<BitSet>,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![BitSet::new(); n],
        }
    }

    /// Builds a graph from an edge list (vertex count inferred as
    /// `max endpoint + 1`, at least `min_vertices`).
    pub fn from_edges(min_vertices: usize, edges: &[(usize, usize)]) -> Self {
        let n = edges
            .iter()
            .map(|&(a, b)| a.max(b) + 1)
            .max()
            .unwrap_or(0)
            .max(min_vertices);
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge; self-loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let needed = a.max(b) + 1;
        if needed > self.adj.len() {
            self.adj.resize(needed, BitSet::new());
        }
        self.adj[a].insert(b);
        self.adj[b].insert(a);
    }

    /// `true` when `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.adj.len() && self.adj[a].contains(b)
    }

    /// Neighborhood of `v`.
    pub fn neighbors(&self, v: usize) -> &BitSet {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Iterates over all edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(a, ns)| ns.iter().filter(move |&b| a < b).map(move |b| (a, b)))
    }

    /// Makes the vertex set `verts` a clique.
    pub fn make_clique(&mut self, verts: &BitSet) {
        let vs: Vec<usize> = verts.iter().collect();
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                self.add_edge(a, b);
            }
        }
    }

    /// `true` when `other` embeds into `self` via the injective vertex map
    /// `embed` (edge-preserving).
    pub fn contains_embedded(&self, other: &Graph, embed: &[usize]) -> bool {
        if embed.len() < other.num_vertices() {
            return false;
        }
        let mut seen = BitSet::new();
        for &img in &embed[..other.num_vertices()] {
            if img >= self.num_vertices() || !seen.insert(img) {
                return false;
            }
        }
        other
            .edges()
            .all(|(a, b)| self.has_edge(embed[a], embed[b]))
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        let mut g = Graph::new(n);
        for a in 0..n {
            for b in a + 1..n {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// A simple cycle `C_n` (`n >= 3`).
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    /// A path `P_n` on `n` vertices.
    pub fn path(n: usize) -> Self {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// Connected components, each as a sorted vertex list.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.num_vertices();
        let mut seen = BitSet::with_capacity(n);
        let mut out = Vec::new();
        for start in 0..n {
            if seen.contains(start) {
                continue;
            }
            let mut comp = vec![start];
            seen.insert(start);
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for u in self.adj[v].iter() {
                    if seen.insert(u) {
                        comp.push(u);
                        stack.push(u);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 1); // ignored self-loop
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn grows_on_demand() {
        let mut g = Graph::new(1);
        g.add_edge(0, 5);
        assert_eq!(g.num_vertices(), 6);
        assert!(g.has_edge(5, 0));
    }

    #[test]
    fn complete_cycle_path() {
        assert_eq!(Graph::complete(5).num_edges(), 10);
        assert_eq!(Graph::cycle(4).num_edges(), 4);
        assert_eq!(Graph::path(4).num_edges(), 3);
    }

    #[test]
    fn make_clique() {
        let mut g = Graph::new(4);
        g.make_clique(&BitSet::from_iter([0, 2, 3]));
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
    }

    #[test]
    fn embedding_check() {
        let host = Graph::from_edges(0, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let tri = Graph::cycle(3);
        assert!(host.contains_embedded(&tri, &[0, 1, 2]));
        assert!(!host.contains_embedded(&tri, &[0, 1, 3]));
        // non-injective embedding rejected
        assert!(!host.contains_embedded(&tri, &[0, 1, 1]));
    }
}
