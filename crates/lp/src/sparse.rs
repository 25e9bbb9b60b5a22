//! Sparse matrices held in both orientations.
//!
//! The revised simplex ([`crate::revised`]) never materializes the dense
//! tableau: it keeps the constraint matrix sparse and touches only the
//! nonzero entries it needs. It reads the matrix both ways: by column
//! for the entering column's FTRAN and for pricing from the duals, and
//! by row for the pivot row `ρᵀA` that devex pricing updates from. The
//! paper's large LPs are exactly this shape — the entropy programs of
//! Propositions 6.9/6.10 have `2^k − 1` columns while each
//! elemental/monotonicity/submodularity row touches only a handful of
//! them — so the sparse representation is what makes the exact
//! arithmetic scale past the dense tableau's ceiling.

use crate::revised::Scalar;
use cq_arith::Rational;

/// A sparse matrix stored flat in both orientations. Row `i` is
/// `row_entries[row_start[i]..row_start[i + 1]]`, `(column, value)`
/// pairs in ascending column order (CSR); column `j` is
/// `col_entries[col_start[j]..col_start[j + 1]]`, `(row, value)` pairs
/// in ascending row order (CSC). Every stored value is nonzero. Matrices
/// are built over [`Rational`]; the hybrid's `f64` phase maps a copy.
#[derive(Clone, Debug)]
pub struct SparseMatrix<S = Rational> {
    row_start: Vec<usize>,
    row_entries: Vec<(usize, S)>,
    col_start: Vec<usize>,
    col_entries: Vec<(usize, S)>,
}

impl SparseMatrix {
    /// The matrix with `ncols` columns whose rows are given in CSR form:
    /// row `i` is `entries[row_start[i]..row_start[i + 1]]`, each row's
    /// `(column, value)` pairs in strictly ascending column order and
    /// every value nonzero (the natural order when the matrix is built
    /// constraint by constraint). The column view is derived by one
    /// counting transpose.
    pub fn from_rows(ncols: usize, row_start: Vec<usize>, entries: Vec<(usize, Rational)>) -> Self {
        debug_assert_eq!(row_start.first(), Some(&0));
        debug_assert_eq!(row_start.last(), Some(&entries.len()));
        debug_assert!(row_start.windows(2).all(|w| {
            let row = &entries[w[0]..w[1]];
            row.windows(2).all(|p| p[0].0 < p[1].0)
                && row.iter().all(|(j, v)| *j < ncols && !v.is_zero())
        }));
        let mut col_start = vec![0usize; ncols + 1];
        for (j, _) in &entries {
            col_start[j + 1] += 1;
        }
        for j in 0..ncols {
            col_start[j + 1] += col_start[j];
        }
        // `(row, entry)` in column order; rows in ascending order keep
        // every column row-sorted.
        let mut slot = col_start.clone();
        let mut order = vec![(0usize, 0usize); entries.len()];
        for (i, span) in row_start.windows(2).enumerate() {
            for (e, (j, _)) in entries.iter().enumerate().take(span[1]).skip(span[0]) {
                order[slot[*j]] = (i, e);
                slot[*j] += 1;
            }
        }
        let col_entries = order
            .iter()
            .map(|&(i, e)| (i, entries[e].1.clone()))
            .collect();
        SparseMatrix {
            row_start,
            row_entries: entries,
            col_start,
            col_entries,
        }
    }
}

impl<S> SparseMatrix<S> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_start.len() - 1
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.col_start.len() - 1
    }

    /// The column-sorted nonzero entries of row `i`.
    pub fn row(&self, i: usize) -> &[(usize, S)] {
        &self.row_entries[self.row_start[i]..self.row_start[i + 1]]
    }

    /// The row-sorted nonzero entries of column `j`.
    pub fn col(&self, j: usize) -> &[(usize, S)] {
        &self.col_entries[self.col_start[j]..self.col_start[j + 1]]
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_entries.len()
    }

    /// The same sparsity pattern with every value mapped through `f`.
    pub(crate) fn map<T>(&self, f: impl Fn(&S) -> T) -> SparseMatrix<T> {
        let map = |entries: &[(usize, S)]| entries.iter().map(|(i, v)| (*i, f(v))).collect();
        SparseMatrix {
            row_start: self.row_start.clone(),
            row_entries: map(&self.row_entries),
            col_start: self.col_start.clone(),
            col_entries: map(&self.col_entries),
        }
    }

    /// `Σ_i col_j[i] · dense[i]` — the inner product used by pricing
    /// (reduced cost of column `j` against the dual vector).
    pub(crate) fn dot_col(&self, j: usize, dense: &[S]) -> S
    where
        S: Scalar,
    {
        let mut acc = S::default();
        for (i, v) in self.col(j) {
            acc.add_mul(v, &dense[*i]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ri(n: i64) -> Rational {
        Rational::int(n)
    }

    #[test]
    fn build_and_query_both_orientations() {
        // [ 1 0 ]
        // [ 0 5 ]
        // [-2 3 ]
        let m = SparseMatrix::from_rows(
            2,
            vec![0, 1, 2, 4],
            vec![(0, ri(1)), (1, ri(5)), (0, ri(-2)), (1, ri(3))],
        );
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.col(0), &[(0, ri(1)), (2, ri(-2))]);
        assert_eq!(m.col(1), &[(1, ri(5)), (2, ri(3))]);
        assert_eq!(m.row(2), &[(0, ri(-2)), (1, ri(3))]);
        let dense = vec![ri(3), ri(7), ri(1)];
        assert_eq!(m.dot_col(0, &dense), ri(1)); // 1*3 + (-2)*1
        assert_eq!(m.dot_col(1, &dense), ri(38));
        let f = m.map(Rational::to_f64);
        assert_eq!(f.col(1), &[(1, 5.0), (2, 3.0)]);
        assert_eq!(f.row(0), &[(0, 1.0)]);
    }

    #[test]
    fn empty_rows_and_columns() {
        let m = SparseMatrix::from_rows(3, vec![0, 0, 1], vec![(2, ri(4))]);
        assert_eq!((m.num_rows(), m.num_cols(), m.nnz()), (2, 3, 1));
        assert!(m.row(0).is_empty() && m.col(0).is_empty() && m.col(1).is_empty());
        assert_eq!(m.col(2), &[(1, ri(4))]);
    }
}
