//! Compressed sparse-column matrices.
//!
//! The revised simplex ([`crate::revised`]) never materializes the dense
//! tableau: it keeps the constraint matrix in column-major sparse form
//! and touches only the nonzero entries of whichever column it prices or
//! brings into the basis. The paper's large LPs are exactly this shape —
//! the entropy programs of Propositions 6.9/6.10 have `2^k − 1` columns
//! while each elemental/monotonicity/submodularity row touches only a
//! handful of them — so the sparse representation is what makes the
//! exact arithmetic scale past the dense tableau's ceiling.

use crate::revised::Scalar;
use cq_arith::Rational;

/// A column-major sparse matrix: each column is a row-sorted list of
/// `(row, value)` pairs with every stored `value` nonzero. Matrices are
/// built over [`Rational`]; the hybrid's `f64` phase maps a copy.
#[derive(Clone, Debug)]
pub struct SparseMatrix<S = Rational> {
    rows: usize,
    cols: Vec<Vec<(usize, S)>>,
}

impl SparseMatrix {
    /// An empty `rows × ncols` matrix.
    pub fn zero(rows: usize, ncols: usize) -> Self {
        SparseMatrix {
            rows,
            cols: vec![Vec::new(); ncols],
        }
    }

    /// Appends a nonzero entry to column `col`. Entries of a column must
    /// be pushed in strictly increasing row order (the natural order when
    /// the matrix is built constraint by constraint).
    pub fn push(&mut self, col: usize, row: usize, value: Rational) {
        debug_assert!(row < self.rows && !value.is_zero());
        debug_assert!(self.cols[col].last().is_none_or(|(r, _)| *r < row));
        self.cols[col].push((row, value));
    }
}

impl<S> SparseMatrix<S> {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// The row-sorted nonzero entries of column `j`.
    pub fn col(&self, j: usize) -> &[(usize, S)] {
        &self.cols[j]
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// The same sparsity pattern with every value mapped through `f`.
    pub(crate) fn map<T>(&self, f: impl Fn(&S) -> T) -> SparseMatrix<T> {
        SparseMatrix {
            rows: self.rows,
            cols: self
                .cols
                .iter()
                .map(|col| col.iter().map(|(i, v)| (*i, f(v))).collect())
                .collect(),
        }
    }

    /// `Σ_i col_j[i] · dense[i]` — the inner product used by pricing
    /// (reduced cost of column `j` against the dual vector).
    pub(crate) fn dot_col(&self, j: usize, dense: &[S]) -> S
    where
        S: Scalar,
    {
        let mut acc = S::default();
        for (i, v) in &self.cols[j] {
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
    fn build_and_query() {
        let mut m = SparseMatrix::zero(3, 2);
        m.push(0, 0, ri(1));
        m.push(0, 2, ri(-2));
        m.push(1, 1, ri(5));
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.num_cols(), 2);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0).len(), 2);
        let dense = vec![ri(3), ri(7), ri(1)];
        assert_eq!(m.dot_col(0, &dense), ri(1)); // 1*3 + (-2)*1
        assert_eq!(m.dot_col(1, &dense), ri(35));
    }
}
