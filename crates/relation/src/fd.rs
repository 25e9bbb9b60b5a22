//! Functional dependencies and keys (§2 of the paper).
//!
//! A functional dependency `A -> B` on relation `R` — written positionally
//! as `R[i..] -> R[k]` — states that tuples agreeing on the (possibly
//! compound) attribute list `A` agree on `B`. A key is `K -> attr(R)`. A
//! *simple* FD has a single attribute on the left; the paper's Theorem 4.4
//! (tight size bounds) covers simple FDs, while §6 handles the general
//! compound case.
//!
//! This module stores FDs positionally (0-based), normalized to a single
//! right-hand attribute, and provides instance checking, Armstrong-style
//! attribute-set closure, and key detection.

use crate::relation::Relation;
use crate::symbol::Value;
use crate::tuple_map::TupleMap;
use cq_util::FxHashSet;
use std::fmt;

/// A functional dependency `lhs -> rhs` on a named relation, positional
/// and 0-based, normalized to one right-hand attribute.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Relation name the dependency applies to.
    pub relation: String,
    /// Left-hand attribute positions (sorted, deduplicated, nonempty).
    pub lhs: Vec<usize>,
    /// Right-hand attribute position.
    pub rhs: usize,
}

impl Fd {
    /// Creates a dependency, sorting and deduplicating the left side.
    pub fn new(relation: impl Into<String>, lhs: impl Into<Vec<usize>>, rhs: usize) -> Self {
        let mut lhs = lhs.into();
        lhs.sort_unstable();
        lhs.dedup();
        assert!(!lhs.is_empty(), "FD with empty left-hand side");
        Fd {
            relation: relation.into(),
            lhs,
            rhs,
        }
    }

    /// `true` when the dependency is trivially satisfied (`rhs ∈ lhs`).
    pub fn is_trivial(&self) -> bool {
        self.lhs.contains(&self.rhs)
    }

    /// Checks the dependency on a relation instance.
    ///
    /// A single-position left side over ids no larger than a small
    /// multiple of the row count (the common case: a key over interned
    /// values) is checked without hashing, in one array indexed by the
    /// key's value id; any other left side is keyed in a [`TupleMap`].
    pub fn holds_on(&self, rel: &Relation) -> bool {
        if let [key] = self.lhs[..] {
            let max_id = rel.iter().map(|row| row[key].id()).max().unwrap_or(0) as usize;
            if max_id <= DENSE_KEY_IDS_PER_ROW * rel.len() + DENSE_KEY_SLACK {
                // Ids stay below `u32::MAX` (the symbol table's bound),
                // so that id marks a key not yet seen.
                let mut seen = vec![u32::MAX; max_id + 1];
                return rel.iter().all(|row| {
                    let (slot, value) = (&mut seen[row[key].id() as usize], row[self.rhs].id());
                    if *slot == u32::MAX {
                        *slot = value;
                    }
                    *slot == value
                });
            }
        }
        let mut seen: TupleMap<Value> = TupleMap::with_capacity(self.lhs.len(), rel.len());
        let mut key = Vec::with_capacity(self.lhs.len());
        rel.iter().all(|row| {
            key.clear();
            key.extend(self.lhs.iter().map(|&i| row[i]));
            *seen.get_or_insert_with(&key, || row[self.rhs]) == row[self.rhs]
        })
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `R[1,2] -> R[3]`: the exact dependency syntax `cq_core`'s
        // parser reads back, so Display → parse round-trips.
        let lhs: Vec<String> = self.lhs.iter().map(|i| (i + 1).to_string()).collect();
        write!(
            f,
            "{}[{}] -> {}[{}]",
            self.relation,
            lhs.join(","),
            self.relation,
            self.rhs + 1
        )
    }
}

/// [`Fd::holds_on`] checks a single-position left side in an array of
/// one slot per value id when the largest key id is at most this many
/// per row, plus [`DENSE_KEY_SLACK`]: the array then costs at most a
/// few words per row, where a hash map would cost more.
const DENSE_KEY_IDS_PER_ROW: usize = 8;
const DENSE_KEY_SLACK: usize = 1024;

/// A set of functional dependencies over a database's relations.
#[derive(Clone, Debug, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// The empty dependency set.
    pub fn new() -> Self {
        FdSet::default()
    }

    /// Adds one dependency (ignored if an identical one is present).
    pub fn add(&mut self, fd: Fd) {
        if !self.fds.contains(&fd) {
            self.fds.push(fd);
        }
    }

    /// Declares a key: `key_attrs -> every attribute of the relation`.
    ///
    /// `arity` is the relation arity; one FD is added per non-key
    /// attribute.
    pub fn add_key(&mut self, relation: &str, key_attrs: &[usize], arity: usize) {
        for rhs in 0..arity {
            if !key_attrs.contains(&rhs) {
                self.add(Fd::new(relation, key_attrs.to_vec(), rhs));
            }
        }
    }

    /// All dependencies.
    pub fn iter(&self) -> impl Iterator<Item = &Fd> + '_ {
        self.fds.iter()
    }

    /// Dependencies on a given relation.
    pub fn for_relation<'a>(&'a self, relation: &'a str) -> impl Iterator<Item = &'a Fd> + 'a {
        self.fds.iter().filter(move |fd| fd.relation == relation)
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// `true` when there are no dependencies.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Armstrong closure of an attribute set for one relation: the set of
    /// positions functionally determined by `attrs`.
    pub fn closure(&self, relation: &str, attrs: &[usize]) -> FxHashSet<usize> {
        let mut closed: FxHashSet<usize> = attrs.iter().copied().collect();
        loop {
            let mut changed = false;
            for fd in self.for_relation(relation) {
                if !closed.contains(&fd.rhs) && fd.lhs.iter().all(|a| closed.contains(a)) {
                    closed.insert(fd.rhs);
                    changed = true;
                }
            }
            if !changed {
                return closed;
            }
        }
    }

    /// `true` when `attrs` is a key for a relation of the given arity.
    pub fn is_key(&self, relation: &str, attrs: &[usize], arity: usize) -> bool {
        let closed = self.closure(relation, attrs);
        (0..arity).all(|a| closed.contains(&a))
    }

    /// Checks all dependencies against an instance.
    pub fn holds_on(&self, rel: &Relation) -> bool {
        self.for_relation(rel.name()).all(|fd| fd.holds_on(rel))
    }
}

impl FromIterator<Fd> for FdSet {
    fn from_iter<I: IntoIterator<Item = Fd>>(iter: I) -> Self {
        let mut s = FdSet::new();
        for fd in iter {
            s.add(fd);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::symbol::SymbolTable;

    fn rel_with(rows: &[&[&str]]) -> (SymbolTable, Relation) {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", rows[0].len()));
        for row in rows {
            let vals: Vec<Value> = row.iter().map(|n| t.intern(n)).collect();
            r.insert(vals);
        }
        (t, r)
    }

    #[test]
    fn fd_normalization() {
        let fd = Fd::new("R", vec![2, 0, 2], 1);
        assert_eq!(fd.lhs, vec![0, 2]);
        assert!(Fd::new("R", vec![0, 1], 1).is_trivial());
    }

    /// Key ids far above the row count (a small relation over a large
    /// symbol table) fall back to hashing and decide the same way.
    #[test]
    fn single_position_fd_over_sparse_ids() {
        let mut t = SymbolTable::new();
        for i in 0..DENSE_KEY_SLACK + 100 {
            t.intern(&format!("filler{i}"));
        }
        let mut r = Relation::new(Schema::new("R", 2));
        let row = |t: &mut SymbolTable, k: &str, v: &str| [t.intern(k), t.intern(v)];
        r.insert(row(&mut t, "k", "1"));
        r.insert(row(&mut t, "j", "2"));
        assert!(Fd::new("R", vec![0], 1).holds_on(&r));
        r.insert(row(&mut t, "k", "2"));
        assert!(!Fd::new("R", vec![0], 1).holds_on(&r));
    }

    #[test]
    fn holds_on_instance() {
        let (_, r) = rel_with(&[&["a", "1"], &["a", "1"], &["b", "2"]]);
        assert!(Fd::new("R", vec![0], 1).holds_on(&r));
        let (_, r2) = rel_with(&[&["a", "1"], &["a", "2"]]);
        assert!(!Fd::new("R", vec![0], 1).holds_on(&r2));
        // Violated after other keys came between.
        let (_, r3) = rel_with(&[&["a", "1"], &["b", "2"], &["c", "3"], &["b", "1"]]);
        assert!(!Fd::new("R", vec![0], 1).holds_on(&r3));
        // The dependent position first, a key value also a dependent one.
        let (_, r4) = rel_with(&[&["1", "a"], &["a", "b"], &["1", "a"]]);
        assert!(Fd::new("R", vec![1], 0).holds_on(&r4));
        let (_, r5) = rel_with(&[&["1", "a"], &["2", "a"]]);
        assert!(!Fd::new("R", vec![1], 0).holds_on(&r5));
        let empty = Relation::new(Schema::new("R", 2));
        assert!(Fd::new("R", vec![0], 1).holds_on(&empty));
    }

    #[test]
    fn compound_fd_on_instance() {
        let (_, r) = rel_with(&[&["a", "b", "1"], &["a", "c", "2"], &["a", "b", "1"]]);
        assert!(Fd::new("R", vec![0, 1], 2).holds_on(&r));
        // The pair is a key where its first position alone is not.
        assert!(!Fd::new("R", vec![0], 2).holds_on(&r));
        let (_, bad) = rel_with(&[&["a", "b", "1"], &["a", "b", "2"]]);
        assert!(!Fd::new("R", vec![0, 1], 2).holds_on(&bad));
    }

    /// A left side wider than a packed key (five positions) is keyed
    /// on boxed tuples.
    #[test]
    fn wide_compound_fd_on_instance() {
        let fd = Fd::new("R", vec![0, 1, 2, 3, 4], 5);
        let (_, r) = rel_with(&[
            &["a", "b", "c", "d", "e", "1"],
            &["a", "b", "c", "d", "f", "2"],
            &["a", "b", "c", "d", "e", "1"],
            &["b", "a", "c", "d", "e", "3"],
        ]);
        assert!(fd.holds_on(&r));
        let (_, bad) = rel_with(&[
            &["a", "b", "c", "d", "e", "1"],
            &["a", "b", "c", "d", "f", "2"],
            &["a", "b", "c", "d", "e", "2"],
        ]);
        assert!(!fd.holds_on(&bad));
        // the key does not fix the sixth position alone
        assert!(!Fd::new("R", vec![0, 1, 2, 3], 5).holds_on(&r));
    }

    #[test]
    fn key_expansion_and_closure() {
        let mut fds = FdSet::new();
        fds.add_key("R", &[0], 3);
        assert_eq!(fds.len(), 2); // R[0]->R[1], R[0]->R[2]
        assert!(fds.is_key("R", &[0], 3));
        assert!(!fds.is_key("R", &[1], 3));
    }

    #[test]
    fn transitive_closure() {
        // A->B, B->C: closure(A) = {A,B,C}
        let mut fds = FdSet::new();
        fds.add(Fd::new("R", vec![0], 1));
        fds.add(Fd::new("R", vec![1], 2));
        let cl = fds.closure("R", &[0]);
        assert!(cl.contains(&0) && cl.contains(&1) && cl.contains(&2));
        assert!(fds.is_key("R", &[0], 3));
    }

    #[test]
    fn closure_respects_relation_name() {
        let mut fds = FdSet::new();
        fds.add(Fd::new("R", vec![0], 1));
        fds.add(Fd::new("S", vec![1], 0));
        assert!(fds.closure("R", &[0]).contains(&1));
        assert!(!fds.closure("S", &[0]).contains(&1));
        assert_eq!(fds.for_relation("S").count(), 1);
    }

    #[test]
    fn compound_key() {
        let mut fds = FdSet::new();
        fds.add_key("R", &[0, 1], 4);
        assert!(fds.is_key("R", &[0, 1], 4));
    }

    #[test]
    fn fdset_holds_on() {
        let (_, r) = rel_with(&[&["a", "1", "x"], &["b", "1", "y"]]);
        let mut fds = FdSet::new();
        fds.add_key("R", &[0], 3);
        assert!(fds.holds_on(&r));
        let (_, bad) = rel_with(&[&["a", "1", "x"], &["a", "1", "y"]]);
        assert!(!fds.holds_on(&bad));
    }

    #[test]
    fn display_is_one_based() {
        let fd = Fd::new("S", vec![0, 1], 2);
        assert_eq!(fd.to_string(), "S[1,2] -> S[3]");
        let simple = Fd::new("R", vec![0], 1);
        assert_eq!(simple.to_string(), "R[1] -> R[2]");
    }
}
