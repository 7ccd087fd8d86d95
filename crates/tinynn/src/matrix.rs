//! Dense row-major `f64` matrices — the only tensor type the networks need.
//!
//! The RLBackfilling networks are tiny (3-layer MLPs with tens of hidden
//! units), so a plain cache-aware `matmul` that skips zero left-hand
//! entries is the only kernel. Speed comes from not computing what is never
//! read rather than from faster arithmetic: callers score only the rows
//! they read, and the layer backward pass avoids transposes and unread
//! input gradients (see [`crate::layer`]). Those rewrites keep every sum in
//! `matmul`'s order, so results stay bitwise reproducible. `f64` keeps
//! finite-difference gradient checks tight.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Self {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight
    /// matrix: uniform in `±sqrt(6/(fan_in+fan_out))`.
    pub fn xavier<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-limit..limit))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub fn row_slice(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`. Panics on shape mismatch.
    ///
    /// The k-loop is hoisted outside the column loop (ikj order), which
    /// keeps all inner accesses sequential — the standard cache-friendly
    /// layout for row-major data.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a 1×cols row vector to every row in place (bias broadcast).
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_slice_mut(r).iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        self.zip(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        self.zip(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        self.zip(rhs, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place scalar multiple: the bits of [`Self::scale`] without the
    /// allocation.
    pub fn scale_assign(&mut self, s: f64) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Element-wise combination of two same-shape matrices.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column-wise sums as a 1×cols row vector (used for bias gradients).
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place `self += rhs * s` (gradient accumulation).
    pub fn add_scaled_assign(&mut self, rhs: &Matrix, s: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b * s;
        }
    }

    /// Sets every element to zero (cheap gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Flattens an `r×c` matrix into a `1×(r·c)` row vector.
    pub fn flatten(&self) -> Matrix {
        Matrix {
            rows: 1,
            cols: self.rows * self.cols,
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast_assign(&Matrix::row(vec![1.0, -1.0]));
        for r in 0..3 {
            assert_eq!(a.row_slice(r), &[1.0, -1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "bias width mismatch")]
    fn bias_broadcast_rejects_a_bias_of_the_wrong_width() {
        Matrix::zeros(3, 2).add_row_broadcast_assign(&Matrix::row(vec![1.0, -1.0, 0.5]));
    }

    #[test]
    #[should_panic(expected = "bias must be a row vector")]
    fn bias_broadcast_rejects_a_bias_with_several_rows() {
        Matrix::zeros(3, 2).add_row_broadcast_assign(&Matrix::zeros(2, 2));
    }

    #[test]
    fn col_sums_match() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col_sums().data(), &[5., 7., 9.]);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(m.data().iter().all(|x| x.abs() <= limit));
        assert!(m.data().iter().any(|x| x.abs() > 1e-4), "not all ~zero");
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).data(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
        assert_eq!(a.sum(), 6.0);
    }

    #[test]
    fn add_scaled_assign_accumulates() {
        let mut a = Matrix::zeros(1, 2);
        let g = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        a.add_scaled_assign(&g, 0.5);
        a.add_scaled_assign(&g, 0.5);
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }

    #[test]
    fn flatten_preserves_data() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let f = a.flatten();
        assert_eq!(f.shape(), (1, 4));
        assert_eq!(f.data(), a.data());
    }
}
