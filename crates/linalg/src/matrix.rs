//! Dense row-major matrix used for embedding and connection matrices.

use serde::{Deserialize, Serialize};

use crate::bytes::advise_huge_pages;
use crate::rng::Pcg32;

/// A dense row-major `f32` matrix.
///
/// Rows are the unit of access: the embedding matrix `M` and connection
/// matrix `N` of the paper are read and updated one tie-row at a time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape, on 2 MiB pages when it is
    /// large enough ([`advise_huge_pages`]): the E-Step's `N` is read a
    /// row at a time at random.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        // A fresh calloc: no page is touched until the first write.
        let mut data = vec![0.0; rows * cols];
        advise_huge_pages(&mut data);
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from
    /// `[-0.5/cols, 0.5/cols)` — the word2vec embedding initialization the
    /// paper's skip-gram-style E-Step inherits. Like [`Self::zeros`], the
    /// buffer is advised onto 2 MiB pages before it is filled.
    pub fn uniform_init(rows: usize, cols: usize, rng: &mut Pcg32) -> Self {
        let inv = 1.0f32 / cols as f32;
        let mut data = Vec::with_capacity(rows * cols);
        advise_huge_pages(data.spare_capacity_mut());
        data.extend((0..rows * cols).map(|_| (rng.next_f32() - 0.5) * inv));
        DenseMatrix { rows, cols, data }
    }

    /// Wraps a row-major buffer of `rows × cols` values.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer does not match {rows}×{cols}");
        DenseMatrix { rows, cols, data }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable views of two *distinct* rows at once (split-borrow), needed
    /// when an SGD step updates `m_e` and `n_{e'}` together.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "two_rows_mut requires distinct rows");
        let cols = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * cols);
            (&mut lo[a * cols..(a + 1) * cols], &mut hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * cols);
            let (bl, al) = (&mut lo[b * cols..(b + 1) * cols], &mut hi[..cols]);
            (al, bl)
        }
    }

    /// Raw backing slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable backing slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access (row, col).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access (row, col).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product `self · x` (for small analysis tasks, not the
    /// training hot path).
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows).map(|r| crate::vecops::dot(self.row(r), x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_access() {
        let mut m = DenseMatrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        m.set(1, 1, 5.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.row(1), &[0.0, 5.0]);
        m.row_mut(2)[0] = 7.0;
        assert_eq!(m.get(2, 0), 7.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_is_row_major() {
        let m = DenseMatrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_wrong_length() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn uniform_init_bounds() {
        let mut rng = Pcg32::seed_from_u64(1);
        let m = DenseMatrix::uniform_init(10, 8, &mut rng);
        let bound = 0.5 / 8.0;
        for &v in m.as_slice() {
            assert!(v >= -bound && v < bound, "value {v} outside init range");
        }
        // Not all identical.
        assert!(m.as_slice().iter().any(|&v| v != m.get(0, 0)));
    }

    #[test]
    fn two_rows_mut_both_orders() {
        let mut m = DenseMatrix::from_fn(3, 2, |r, _| r as f32);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            assert_eq!(a, &[0.0, 0.0]);
            assert_eq!(b, &[2.0, 2.0]);
            a[0] = 9.0;
            b[1] = 8.0;
        }
        assert_eq!(m.get(0, 0), 9.0);
        assert_eq!(m.get(2, 1), 8.0);
        {
            let (a, b) = m.two_rows_mut(2, 0);
            assert_eq!(a[1], 8.0);
            assert_eq!(b[0], 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_rejects_same_row() {
        let mut m = DenseMatrix::zeros(2, 2);
        let _ = m.two_rows_mut(1, 1);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = DenseMatrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        // Row 0: [0,1,2]·[1,2,3] = 8; Row 1: [1,2,3]·[1,2,3] = 14.
        assert_eq!(y, vec![8.0, 14.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = DenseMatrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
        let s = serde_json::to_string(&m).unwrap();
        let m2: DenseMatrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m2.as_slice(), m.as_slice());
        assert_eq!(m2.rows(), 2);
    }
}
