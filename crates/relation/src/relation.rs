//! Relations: schemas plus deduplicated tuple sets.
//!
//! A relation stores its tuples flat: one `Vec<Value>` of interned
//! values, `arity` per tuple, in insertion order (the experiment harness
//! prints tuples, and evaluation order follows it). Set semantics come
//! from a [`TupleMap`] over the tuples, which packs tuples of up to four
//! values into one or two machine words, so loading or dropping a
//! relation costs a handful of allocations, not one or two per tuple.

use crate::schema::Schema;
use crate::symbol::Value;
use crate::tuple_map::TupleMap;
use cq_util::FxHashSet;

/// A relation instance: a schema and a set of tuples.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: Schema,
    /// The tuples, `arity` values each, in insertion order.
    values: Vec<Value>,
    /// Tuple count (`values.len() / arity`, kept for arity 0).
    len: usize,
    index: TupleMap<()>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        let index = TupleMap::new(schema.arity());
        Relation {
            schema,
            values: Vec::new(),
            len: 0,
            index,
        }
    }

    /// The relation over `schema` whose rows are `values`, `arity` at a
    /// time, in order, each kept at its first occurrence only: the
    /// relation that inserting them one by one builds, with the index
    /// sized once for every row.
    ///
    /// # Panics
    /// Panics if the arity is 0 or does not divide `values.len()`.
    pub(crate) fn from_rows(schema: Schema, mut values: Vec<Value>) -> Self {
        let arity = schema.arity();
        assert!(
            arity > 0 && values.len().is_multiple_of(arity),
            "rows of {schema}"
        );
        let rows = values.len() / arity;
        let mut index = TupleMap::with_capacity(arity, rows);
        let mut len = 0;
        for i in 0..rows {
            let row = i * arity..(i + 1) * arity;
            if index.insert(&values[row.clone()], ()) {
                values.copy_within(row, len * arity);
                len += 1;
            }
        }
        values.truncate(len * arity);
        Relation {
            schema,
            values,
            len,
            index,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Relation name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Arity (shorthand for `schema().arity()`).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the schema.
    pub fn insert(&mut self, row: impl AsRef<[Value]>) -> bool {
        let row = row.as_ref();
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "tuple arity {} does not match schema {}",
            row.len(),
            self.schema
        );
        if !self.index.insert(row, ()) {
            return false;
        }
        self.values.extend_from_slice(row);
        self.len += 1;
        true
    }

    /// The `i`-th tuple in insertion order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of {}", self.len);
        let a = self.arity();
        &self.values[i * a..(i + 1) * a]
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        row.len() == self.arity() && self.index.get(row).is_some()
    }

    /// Iterates over tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let a = self.arity();
        (0..self.len).map(move |i| &self.values[i * a..(i + 1) * a])
    }

    /// Projection onto the 0-based positions `cols` (duplicates removed).
    pub fn project(&self, cols: &[usize], name: impl Into<String>) -> Relation {
        let schema = Schema::with_attrs(name, cols.iter().map(|&c| self.schema.attr(c).to_owned()));
        let mut out = Relation::new(schema);
        let mut proj = Vec::with_capacity(cols.len());
        for row in self.iter() {
            proj.clear();
            proj.extend(cols.iter().map(|&c| row[c]));
            out.insert(&proj);
        }
        out
    }

    /// Selection by predicate.
    pub fn select(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for row in self.iter() {
            if pred(row) {
                out.insert(row);
            }
        }
        out
    }

    /// Set union with another relation of the same arity (schema of `self`
    /// is kept). Used by the `rep(Q) > 1` construction step of
    /// Proposition 4.5: relations occurring several times in a query are
    /// populated with the union of the per-occurrence relations.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity(), other.arity(), "union arity mismatch");
        let mut out = self.clone();
        for row in other.iter() {
            out.insert(row);
        }
        out
    }

    /// Renames the relation.
    pub fn renamed(&self, name: impl Into<String>) -> Relation {
        let mut out = self.clone();
        out.schema = out.schema.renamed(name);
        out
    }

    /// The set of distinct values in column `col`.
    pub fn column_values(&self, col: usize) -> FxHashSet<Value> {
        self.iter().map(|r| r[col]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn vals(t: &mut SymbolTable, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| t.intern(n)).collect()
    }

    #[test]
    fn insert_dedup_and_iterate() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", 2));
        assert!(r.insert(vals(&mut t, &["a", "b"])));
        assert!(r.insert(vals(&mut t, &["a", "c"])));
        assert!(!r.insert(vals(&mut t, &["a", "b"])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&vals(&mut t, &["a", "c"])));
        assert!(!r.contains(&vals(&mut t, &["c", "a"])));
        assert!(!r.contains(&vals(&mut t, &["c"])), "wrong width is absent");
        let rows: Vec<_> = r.iter().map(|x| x.to_vec()).collect();
        assert_eq!(rows[0], vals(&mut t, &["a", "b"]));
    }

    #[test]
    fn flat_rows_in_insertion_order() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", 3));
        for row in [
            ["a", "b", "c"],
            ["c", "b", "a"],
            ["a", "b", "c"],
            ["x", "y", "z"],
        ] {
            r.insert(vals(&mut t, &row));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(1), vals(&mut t, &["c", "b", "a"]).as_slice());
        let rows: Vec<Vec<Value>> = r.iter().map(<[Value]>::to_vec).collect();
        assert_eq!(rows[2], vals(&mut t, &["x", "y", "z"]));
        // wider than a packed key: deduplicated all the same
        let mut wide = Relation::new(Schema::new("W", 6));
        let row = vals(&mut t, &["a", "b", "c", "d", "e", "f"]);
        assert!(wide.insert(&row));
        assert!(!wide.insert(row.clone()));
        assert!(wide.contains(&row));
        assert_eq!(wide.iter().count(), 1);
    }

    #[test]
    fn nullary_relation_holds_at_most_the_empty_tuple() {
        let mut r = Relation::new(Schema::new("B", 0));
        assert!(r.is_empty());
        assert!(r.insert([]));
        assert!(!r.insert(Vec::new()));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![&[] as &[Value]]);
        assert!(r.row(0).is_empty());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", 2));
        r.insert(vals(&mut t, &["a"]));
    }

    #[test]
    fn projection() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", 3));
        r.insert(vals(&mut t, &["a", "b", "c"]));
        r.insert(vals(&mut t, &["a", "b", "d"]));
        r.insert(vals(&mut t, &["x", "y", "z"]));
        let p = r.project(&[0, 1], "P");
        assert_eq!(p.len(), 2); // (a,b) deduplicated
        assert_eq!(p.arity(), 2);
        // column order respected, including permutations
        let swapped = r.project(&[2, 0], "S");
        assert!(swapped.contains(&vals(&mut t, &["c", "a"])));
    }

    #[test]
    fn selection_and_union() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let mut r = Relation::new(Schema::new("R", 2));
        r.insert(vals(&mut t, &["a", "b"]));
        r.insert(vals(&mut t, &["c", "d"]));
        let sel = r.select(|row| row[0] == a);
        assert_eq!(sel.len(), 1);
        let mut s = Relation::new(Schema::new("S", 2));
        s.insert(vals(&mut t, &["c", "d"]));
        s.insert(vals(&mut t, &["e", "f"]));
        let u = r.union(&s);
        assert_eq!(u.len(), 3);
        assert_eq!(u.name(), "R");
    }

    #[test]
    fn domains() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::new("R", 2));
        r.insert(vals(&mut t, &["a", "b"]));
        r.insert(vals(&mut t, &["a", "c"]));
        assert_eq!(r.column_values(0).len(), 1);
        assert_eq!(r.column_values(1).len(), 2);
    }
}
