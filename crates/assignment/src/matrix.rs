//! Dense row-major cost matrix.

use crate::solver::{solve, Solution};

/// A dense `rows × cols` matrix of `f64` assignment costs.
///
/// Row `r` is a "worker" (thread), column `c` a "job" (tile); `get(r, c)`
/// is the cost of assigning `r` to `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    /// A matrix of zeros.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `rows > cols` (the solver
    /// assigns every row, so it needs at least as many columns).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert!(
            rows <= cols,
            "need rows <= cols ({rows} > {cols}); transpose the problem"
        );
        CostMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics on ragged input, empty input, or `rows > cols`.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].as_ref().len();
        let mut m = CostMatrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            assert_eq!(row.len(), cols, "ragged row {r}");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Build by evaluating `f(row, col)` at every entry — the natural way
    /// to produce the paper's Eq. (13) cost matrix
    /// `cost_jk = c_j · TC(k) + m_j · TM(k)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = CostMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows (workers).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (jobs).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    /// Panics out of range (debug and release: slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set entry at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// All entries, row-major.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Solve the minimum-cost assignment for this matrix.
    ///
    /// # Panics
    /// Panics if any entry is non-finite.
    pub fn solve(&self) -> Solution {
        solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_matches_manual() {
        let m = CostMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn more_rows_than_cols_panics() {
        let _ = CostMatrix::zeros(3, 2);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = CostMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }
}
