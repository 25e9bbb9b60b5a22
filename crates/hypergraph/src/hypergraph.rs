//! Hypergraphs and their primal (Gaifman) graphs.
//!
//! A conjunctive query body induces a hypergraph: query variables are the
//! vertices and each atom's variable set is a hyperedge (Definition 3.5 of
//! the paper reads the fractional edge cover off this hypergraph). A
//! database likewise induces a hypergraph whose vertices are domain values
//! and whose hyperedges are tuples; its primal graph is the paper's
//! Gaifman graph G(D).

use crate::graph::Graph;
use cq_util::BitSet;

/// A hypergraph on vertices `0..n` with an ordered multiset of hyperedges.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    num_vertices: usize,
    edges: Vec<BitSet>,
}

impl Hypergraph {
    /// Creates a hypergraph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Hypergraph {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of hyperedges (multiset; duplicates allowed).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a hyperedge; vertices beyond the current count grow the vertex
    /// set. Returns the edge index.
    pub fn add_edge(&mut self, verts: BitSet) -> usize {
        if let Some(max) = verts.iter().max() {
            self.num_vertices = self.num_vertices.max(max + 1);
        }
        self.edges.push(verts);
        self.edges.len() - 1
    }

    /// Adds a hyperedge from an iterator of vertex indices.
    pub fn add_edge_from<I: IntoIterator<Item = usize>>(&mut self, verts: I) -> usize {
        self.add_edge(BitSet::from_iter(verts))
    }

    /// The hyperedge at `i`.
    pub fn edge(&self, i: usize) -> &BitSet {
        &self.edges[i]
    }

    /// All hyperedges.
    pub fn edges(&self) -> &[BitSet] {
        &self.edges
    }

    /// The primal (Gaifman) graph: two vertices are adjacent iff they
    /// co-occur in some hyperedge.
    pub fn primal_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_vertices);
        for e in &self.edges {
            g.make_clique(e);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primal_graph_of_triangle_query() {
        // Hypergraph of R(X,Y), R(X,Z), R(Y,Z): primal graph is K3.
        let mut h = Hypergraph::new(3);
        h.add_edge_from([0, 1]);
        h.add_edge_from([0, 2]);
        h.add_edge_from([1, 2]);
        let g = h.primal_graph();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(1, 2));
    }

    #[test]
    fn wide_edge_becomes_clique() {
        let mut h = Hypergraph::new(4);
        h.add_edge_from([0, 1, 2, 3]);
        let g = h.primal_graph();
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn vertices_grow_with_edges() {
        let mut h = Hypergraph::new(2);
        h.add_edge_from([0, 5]);
        assert_eq!(h.num_vertices(), 6);
    }

    #[test]
    fn duplicate_edges_kept() {
        let mut h = Hypergraph::new(2);
        h.add_edge_from([0, 1]);
        h.add_edge_from([0, 1]);
        assert_eq!(h.num_edges(), 2);
    }
}
