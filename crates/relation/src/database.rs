//! Databases: a symbol table plus named relation instances.
//!
//! Mirrors the paper's `D = (U_D, R_1, ..., R_n)`: the universe is the set
//! of interned values, and [`Database::gaifman_graph`] builds the Gaifman
//! graph `G(D)` (values adjacent iff they co-occur in some tuple), whose
//! treewidth defines `tw(D)`.

use crate::fd::FdSet;
use crate::relation::Relation;
use crate::symbol::{SymbolTable, Value};
use cq_hypergraph::Graph;
use cq_util::FxHashMap;
use std::collections::BTreeMap;

/// A named collection of relations over a shared symbol table.
#[derive(Clone, Debug, Default)]
pub struct Database {
    symbols: SymbolTable,
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Interns a value name.
    pub fn intern(&mut self, name: &str) -> Value {
        self.symbols.intern(name)
    }

    /// Mints a fresh value distinct from all existing ones.
    pub fn fresh_value(&mut self, prefix: &str) -> Value {
        self.symbols.fresh(prefix)
    }

    /// The symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable symbol table access.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Adds (or replaces) a relation under its schema name.
    pub fn add_relation(&mut self, rel: Relation) {
        self.relations.insert(rel.name().to_owned(), rel);
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Iterates over relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.values()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// `rmax(D)`: the size of the largest relation among `names` (the
    /// relations referenced by a query body). With `names` empty, ranges
    /// over all relations.
    pub fn rmax(&self, names: &[&str]) -> usize {
        if names.is_empty() {
            self.relations
                .values()
                .map(Relation::len)
                .max()
                .unwrap_or(0)
        } else {
            names
                .iter()
                .filter_map(|n| self.relations.get(*n))
                .map(Relation::len)
                .max()
                .unwrap_or(0)
        }
    }

    /// Inserts a tuple given by value names, interning as needed. Creates
    /// the relation (with default schema) if absent.
    pub fn insert_named(&mut self, relation: &str, names: &[&str]) {
        let row: Vec<Value> = names.iter().map(|n| self.symbols.intern(n)).collect();
        let rel = self
            .relations
            .entry(relation.to_owned())
            .or_insert_with(|| Relation::new(crate::schema::Schema::new(relation, names.len())));
        rel.insert(row);
    }

    /// Checks a set of FDs against every relation it mentions.
    pub fn satisfies(&self, fds: &FdSet) -> bool {
        self.relations.values().all(|r| fds.holds_on(r))
    }

    /// Builds the Gaifman graph over the relations named in `names`
    /// (or all relations when empty). Returns the graph and the
    /// vertex-to-value mapping.
    pub fn gaifman_graph(&self, names: &[&str]) -> (Graph, Vec<Value>) {
        let rels: Vec<&Relation> = if names.is_empty() {
            self.relations.values().collect()
        } else {
            names
                .iter()
                .filter_map(|n| self.relations.get(*n))
                .collect()
        };
        let mut vertex_of: FxHashMap<Value, usize> = FxHashMap::default();
        let g = gaifman_over(&rels, &mut vertex_of);
        let mut value_of: Vec<(usize, Value)> =
            vertex_of.into_iter().map(|(v, i)| (i, v)).collect();
        value_of.sort_unstable_by_key(|&(i, _)| i);
        (g, value_of.into_iter().map(|(_, v)| v).collect())
    }

    /// Renders a relation as text (deterministic order) for reports.
    pub fn render(&self, relation: &str) -> String {
        let Some(rel) = self.relations.get(relation) else {
            return format!("{relation}: <absent>");
        };
        let mut out = format!("{} [{} tuples]\n", rel.schema(), rel.len());
        for row in rel.iter() {
            let names: Vec<&str> = row.iter().map(|&v| self.symbols.name(v)).collect();
            out.push_str(&format!("  ({})\n", names.join(", ")));
        }
        out
    }
}

/// Builds the Gaifman graph of `rels` (values adjacent iff they
/// co-occur in some tuple) over a shared mapping: a value already in
/// `vertex_of` keeps its vertex, a new one takes the next free number.
/// Every mapped value is a vertex, isolated or not.
pub fn gaifman_over(rels: &[&Relation], vertex_of: &mut FxHashMap<Value, usize>) -> Graph {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut max_v = vertex_of.values().copied().max().map_or(0, |m| m + 1);
    let mut verts: Vec<usize> = Vec::new();
    for rel in rels {
        for row in rel.iter() {
            verts.clear();
            verts.extend(row.iter().map(|&v| {
                *vertex_of.entry(v).or_insert_with(|| {
                    max_v += 1;
                    max_v - 1
                })
            }));
            for (i, &a) in verts.iter().enumerate() {
                edges.extend(verts[i + 1..].iter().map(|&b| (a, b)));
            }
        }
    }
    Graph::from_edges(max_v, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use cq_hypergraph::treewidth_exact;

    #[test]
    fn build_and_query() {
        let mut db = Database::new();
        db.insert_named("R", &["a", "b"]);
        db.insert_named("R", &["a", "c"]);
        db.insert_named("S", &["b", "c", "d"]);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.relation("R").unwrap().len(), 2);
        assert_eq!(db.rmax(&[]), 2);
        assert_eq!(db.rmax(&["S"]), 1);
        assert_eq!(db.rmax(&["missing"]), 0);
    }

    #[test]
    fn satisfies_fds() {
        let mut db = Database::new();
        db.insert_named("R", &["a", "1"]);
        db.insert_named("R", &["b", "2"]);
        let mut fds = FdSet::new();
        fds.add(Fd::new("R", vec![0], 1));
        assert!(db.satisfies(&fds));
        db.insert_named("R", &["a", "3"]);
        assert!(!db.satisfies(&fds));
    }

    #[test]
    fn gaifman_of_star_is_tree() {
        // Example 2.1's input: R = {(1,1),(1,2),...,(1,n)} has tw 1.
        let mut db = Database::new();
        for i in 2..=6 {
            db.insert_named("R", &["1", &i.to_string()]);
        }
        let (g, _) = db.gaifman_graph(&[]);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(treewidth_exact(&g), 1);
    }

    #[test]
    fn gaifman_of_wide_tuple_is_clique() {
        let mut db = Database::new();
        db.insert_named("T", &["a", "b", "c", "d"]);
        let (g, _) = db.gaifman_graph(&[]);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(treewidth_exact(&g), 3);
    }

    #[test]
    fn gaifman_ignores_repeated_values_in_tuple() {
        let mut db = Database::new();
        db.insert_named("R", &["a", "a"]);
        let (g, _) = db.gaifman_graph(&[]);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn gaifman_restricted_to_names() {
        let mut db = Database::new();
        db.insert_named("R", &["a", "b"]);
        db.insert_named("S", &["c", "d"]);
        let (g, vals) = db.gaifman_graph(&["R"]);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn render_contains_rows() {
        let mut db = Database::new();
        db.insert_named("R", &["a", "b"]);
        let text = db.render("R");
        assert!(text.contains("(a, b)"));
        assert!(db.render("Z").contains("<absent>"));
    }
}
