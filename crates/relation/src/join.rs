//! Joins: hash equi-joins and keyed joins.
//!
//! Section 5 of the paper studies `R ⋈_{A=B} S` where `B` is a key of `S`
//! (a *keyed join*). [`equi_join`] is a standard build/probe hash join on
//! (possibly compound) attribute position lists; [`keyed_join`] asserts
//! the key property and delegates. Join results keep every column of both
//! operands (Gaifman graphs, and hence treewidths, are insensitive to the
//! duplicated join columns, and sizes are unchanged).

use crate::fd::FdSet;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::symbol::Value;
use crate::tuple_map::TupleMap;

/// Hash equi-join of `left` and `right` on the positional pairs
/// `on = [(l_i, r_i), ...]`: output tuples are the concatenation of a
/// left row and a right row agreeing on every pair. With `on` empty this
/// is the cartesian product.
pub fn equi_join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    name: impl Into<String>,
) -> Relation {
    let schema = Schema::with_attrs(
        name,
        left.schema()
            .attrs()
            .iter()
            .map(|a| format!("{}.{}", left.name(), a))
            .chain(
                right
                    .schema()
                    .attrs()
                    .iter()
                    .map(|a| format!("{}.{}", right.name(), a)),
            ),
    );
    let mut out = Relation::new(schema);
    // Build on the smaller side.
    let (build_right, probe_pairs): (bool, Vec<(usize, usize)>) = if right.len() <= left.len() {
        (true, on.to_vec())
    } else {
        (false, on.iter().map(|&(l, r)| (r, l)).collect())
    };
    let (build, probe) = if build_right {
        (right, left)
    } else {
        (left, right)
    };
    let build_cols: Vec<usize> = probe_pairs.iter().map(|&(_, b)| b).collect();
    let probe_cols: Vec<usize> = probe_pairs.iter().map(|&(p, _)| p).collect();
    let index = index_on(build, &build_cols);
    let mut key = Vec::with_capacity(probe_cols.len());
    let mut combined = Vec::with_capacity(left.arity() + right.arity());
    for prow in probe.iter() {
        key.clear();
        key.extend(probe_cols.iter().map(|&c| prow[c]));
        if let Some(matches) = index.get(&key) {
            for brow in matches {
                let (lrow, rrow) = if build_right {
                    (prow, *brow)
                } else {
                    (*brow, prow)
                };
                combined.clear();
                combined.extend_from_slice(lrow);
                combined.extend_from_slice(rrow);
                out.insert(&combined);
            }
        }
    }
    out
}

/// Keyed join `left ⋈_{A=B} right` where the right-side positions `B`
/// must form a key of `right` under `fds` (Theorem 5.5's setting).
///
/// # Panics
/// Panics if the right join attributes are not a key of `right`.
pub fn keyed_join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    fds: &FdSet,
    name: impl Into<String>,
) -> Relation {
    let right_attrs: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
    assert!(
        fds.is_key(right.name(), &right_attrs, right.arity()),
        "keyed_join: join attributes {:?} are not a key of {}",
        right_attrs,
        right.name()
    );
    equi_join(left, right, on, name)
}

/// Natural join on attributes with equal names, used by the join-project
/// plans of Corollary 4.8. Output columns: all of `left`, then the
/// non-shared columns of `right`; shared columns are merged.
pub fn natural_join(left: &Relation, right: &Relation, name: impl Into<String>) -> Relation {
    let shared: Vec<(usize, usize)> = left
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .filter_map(|(li, a)| right.schema().position(a).map(|ri| (li, ri)))
        .collect();
    let right_extra: Vec<usize> = (0..right.arity())
        .filter(|ri| !shared.iter().any(|&(_, r)| r == *ri))
        .collect();
    let schema = Schema::with_attrs(
        name,
        left.schema().attrs().iter().cloned().chain(
            right_extra
                .iter()
                .map(|&ri| right.schema().attr(ri).to_owned()),
        ),
    );
    let mut out = Relation::new(schema);
    let build_cols: Vec<usize> = shared.iter().map(|&(_, r)| r).collect();
    let probe_cols: Vec<usize> = shared.iter().map(|&(l, _)| l).collect();
    let index = index_on(right, &build_cols);
    let mut key = Vec::with_capacity(probe_cols.len());
    let mut combined = Vec::with_capacity(out.arity());
    for lrow in left.iter() {
        key.clear();
        key.extend(probe_cols.iter().map(|&c| lrow[c]));
        if let Some(matches) = index.get(&key) {
            for rrow in matches {
                combined.clear();
                combined.extend_from_slice(lrow);
                combined.extend(right_extra.iter().map(|&ri| rrow[ri]));
                out.insert(&combined);
            }
        }
    }
    out
}

/// `rel`'s rows grouped on their values at `cols`, in row order.
fn index_on<'a>(rel: &'a Relation, cols: &[usize]) -> TupleMap<Vec<&'a [Value]>> {
    let mut index = TupleMap::new(cols.len());
    let mut key = Vec::with_capacity(cols.len());
    for row in rel.iter() {
        key.clear();
        key.extend(cols.iter().map(|&c| row[c]));
        index.get_or_insert_with(&key, Vec::new).push(row);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn rel(t: &mut SymbolTable, name: &str, rows: &[&[&str]]) -> Relation {
        let mut r = Relation::new(Schema::new(name, rows[0].len()));
        for row in rows {
            let vals: Vec<Value> = row.iter().map(|n| t.intern(n)).collect();
            r.insert(vals);
        }
        r
    }

    #[test]
    fn simple_equi_join() {
        let mut t = SymbolTable::new();
        let r = rel(&mut t, "R", &[&["a", "1"], &["b", "2"], &["c", "1"]]);
        let s = rel(&mut t, "S", &[&["1", "x"], &["1", "y"], &["3", "z"]]);
        let j = equi_join(&r, &s, &[(1, 0)], "J");
        // (a,1)x(1,x),(1,y); (c,1)x(1,x),(1,y) = 4 tuples
        assert_eq!(j.len(), 4);
        assert_eq!(j.arity(), 4);
        let a = t.intern("a");
        let one = t.intern("1");
        let x = t.intern("x");
        assert!(j.contains(&[a, one, one, x]));
    }

    #[test]
    fn join_build_side_symmetry() {
        // The hash join picks the smaller side to build; results must not
        // depend on which side that is.
        let mut t = SymbolTable::new();
        let small = rel(&mut t, "A", &[&["1"]]);
        let large = rel(&mut t, "B", &[&["1", "p"], &["1", "q"], &["2", "r"]]);
        let j1 = equi_join(&small, &large, &[(0, 0)], "J1");
        let j2 = equi_join(&large, &small, &[(0, 0)], "J2");
        assert_eq!(j1.len(), 2);
        assert_eq!(j2.len(), 2);
    }

    #[test]
    fn cartesian_product_with_empty_on() {
        let mut t = SymbolTable::new();
        let r = rel(&mut t, "R", &[&["a"], &["b"]]);
        let s = rel(&mut t, "S", &[&["x"], &["y"], &["z"]]);
        assert_eq!(equi_join(&r, &s, &[], "P").len(), 6);
    }

    #[test]
    fn compound_join_keys() {
        let mut t = SymbolTable::new();
        let r = rel(&mut t, "R", &[&["a", "b", "1"], &["a", "c", "2"]]);
        let s = rel(&mut t, "S", &[&["a", "b", "x"], &["a", "d", "y"]]);
        let j = equi_join(&r, &s, &[(0, 0), (1, 1)], "J");
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn keyed_join_checks_key() {
        let mut t = SymbolTable::new();
        let r = rel(&mut t, "R", &[&["a", "1"]]);
        let s = rel(&mut t, "S", &[&["1", "x"], &["2", "y"]]);
        let mut fds = FdSet::new();
        fds.add_key("S", &[0], 2);
        let j = keyed_join(&r, &s, &[(1, 0)], &fds, "J");
        assert_eq!(j.len(), 1);
        // keyed join never multiplies: |J| <= |R|
        assert!(j.len() <= r.len());
    }

    #[test]
    #[should_panic]
    fn keyed_join_rejects_non_key() {
        let mut t = SymbolTable::new();
        let r = rel(&mut t, "R", &[&["a", "1"]]);
        let s = rel(&mut t, "S", &[&["1", "x"]]);
        let fds = FdSet::new();
        let _ = keyed_join(&r, &s, &[(1, 0)], &fds, "J");
    }

    #[test]
    fn natural_join_merges_shared_columns() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::with_attrs("R", ["X", "Y"]));
        r.insert(vec![t.intern("a"), t.intern("b")]);
        let mut s = Relation::new(Schema::with_attrs("S", ["Y", "Z"]));
        s.insert(vec![t.intern("b"), t.intern("c")]);
        s.insert(vec![t.intern("q"), t.intern("d")]);
        let j = natural_join(&r, &s, "J");
        assert_eq!(j.arity(), 3);
        assert_eq!(j.len(), 1);
        assert_eq!(j.schema().attrs(), &["X", "Y", "Z"]);
    }

    #[test]
    fn natural_join_disjoint_schemas_is_product() {
        let mut t = SymbolTable::new();
        let mut r = Relation::new(Schema::with_attrs("R", ["X"]));
        r.insert(vec![t.intern("a")]);
        r.insert(vec![t.intern("b")]);
        let mut s = Relation::new(Schema::with_attrs("S", ["Y"]));
        s.insert(vec![t.intern("c")]);
        let j = natural_join(&r, &s, "J");
        assert_eq!(j.len(), 2);
        assert_eq!(j.arity(), 2);
    }

    #[test]
    fn example_2_1_square_join() {
        // R'(X,Y,Z) <- R(X,Y), R(X,Z) on a star: n^2 output tuples.
        let mut t = SymbolTable::new();
        let n = 5;
        let rows: Vec<Vec<String>> = (1..=n)
            .map(|i| vec!["1".to_owned(), format!("{i}")])
            .collect();
        let mut r = Relation::new(Schema::new("R", 2));
        for row in &rows {
            let vals: Vec<Value> = row.iter().map(|x| t.intern(x)).collect();
            r.insert(vals);
        }
        let j = equi_join(&r, &r, &[(0, 0)], "R2");
        assert_eq!(j.len(), n * n);
    }
}
