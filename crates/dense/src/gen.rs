//! Deterministic, seeded operand generators.
//!
//! Every experiment in the paper uses random dense operands (uniform entries)
//! with specific structure. These generators are seeded so that every run of a
//! benchmark or test sees the same operands, and entries are kept in
//! `[-0.5, 0.5]` (scaled) so repeated products neither overflow nor underflow
//! at the paper's problem sizes.

use crate::{Diagonal, Matrix, Scalar, Tridiagonal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Source of seeded random operands.
///
/// A thin wrapper over [`StdRng`] so call-sites read as
/// `gen.matrix(n, n)`, `gen.lower_triangular(n)`, etc.
pub struct OperandGen {
    rng: StdRng,
}

impl OperandGen {
    /// Create a generator from a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    fn sample<T: Scalar>(&mut self) -> T {
        // Uniform in [-0.5, 0.5]; keeps ‖A·B‖ comparable to ‖A‖·‖B‖/√12·n.
        T::from_f64(self.rng.gen::<f64>() - 0.5)
    }

    /// A general dense `rows × cols` matrix with uniform entries, drawn
    /// in row-major order.
    pub fn matrix<T: Scalar>(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.sample()).collect())
    }

    /// A column vector of length `n` (shape `n×1`).
    pub fn col_vector<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        self.matrix(n, 1)
    }

    /// A row vector of length `n` (shape `1×n`).
    pub fn row_vector<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        self.matrix(1, n)
    }

    /// A lower-triangular `n×n` matrix (zeros strictly above the diagonal).
    pub fn lower_triangular<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                m[(i, j)] = self.sample();
            }
        }
        m
    }

    /// An upper-triangular `n×n` matrix (zeros strictly below the diagonal).
    pub fn upper_triangular<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                m[(i, j)] = self.sample();
            }
        }
        m
    }

    /// A symmetric `n×n` matrix.
    pub fn symmetric<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.sample();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    /// A symmetric positive-definite `n×n` matrix (`AᵀA + n·I` scaled).
    ///
    /// Built without the O(n³) kernels (so `laab-dense` stays kernel-free):
    /// a diagonally-dominant symmetric matrix is SPD by Gershgorin.
    pub fn spd<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        let mut m = self.symmetric::<T>(n);
        let bump = T::from_f64(n as f64);
        for i in 0..n {
            let v = m[(i, i)];
            m[(i, i)] = v.abs() + bump;
        }
        m
    }

    /// A tridiagonal matrix in compact form.
    pub fn tridiagonal<T: Scalar>(&mut self, n: usize) -> Tridiagonal<T> {
        assert!(n >= 1);
        let sub = (0..n - 1).map(|_| self.sample()).collect();
        let main = (0..n).map(|_| self.sample()).collect();
        let sup = (0..n - 1).map(|_| self.sample()).collect();
        Tridiagonal::new(sub, main, sup)
    }

    /// A diagonal matrix in compact form, with entries bounded away from
    /// zero so products remain well-conditioned.
    pub fn diagonal<T: Scalar>(&mut self, n: usize) -> Diagonal<T> {
        let d = (0..n)
            .map(|_| {
                let v: f64 = self.rng.gen::<f64>() - 0.5;
                let v = if v.abs() < 0.1 { 0.1 + v.abs() } else { v.abs() };
                T::from_f64(if self.rng.gen::<bool>() { v } else { -v })
            })
            .collect();
        Diagonal::new(d)
    }

    /// An orthogonal `n×n` matrix, built as a product of `k` Householder
    /// reflectors applied to the identity (`k = min(n, 8)` keeps generation
    /// O(n²) while producing a dense orthogonal matrix).
    pub fn orthogonal<T: Scalar>(&mut self, n: usize) -> Matrix<T> {
        let mut q = Matrix::<T>::identity(n);
        let reflectors = n.min(8);
        for _ in 0..reflectors {
            // v: random unit vector.
            let mut v: Vec<f64> = (0..n).map(|_| self.rng.gen::<f64>() - 0.5).collect();
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                continue;
            }
            for x in &mut v {
                *x /= norm;
            }
            // Q := Q (I − 2 v vᵀ)  computed as Q − 2 (Q v) vᵀ — O(n²).
            let mut qv = vec![0.0f64; n];
            for i in 0..n {
                let mut acc = 0.0;
                for j in 0..n {
                    acc += q[(i, j)].to_f64() * v[j];
                }
                qv[i] = acc;
            }
            for i in 0..n {
                for j in 0..n {
                    let upd = q[(i, j)].to_f64() - 2.0 * qv[i] * v[j];
                    q[(i, j)] = T::from_f64(upd);
                }
            }
        }
        q
    }

    /// The blocked operands of Table V / Eq. 11: two `n/2 × n/2` diagonal
    /// blocks `A1, A2` and two `n/2 × n` row blocks `B1, B2`.
    ///
    /// Returns `(a1, a2, b1, b2)`; callers assemble the big matrices with
    /// [`Matrix::block_diag`] and [`Matrix::vcat`].
    pub fn blocked_operands<T: Scalar>(
        &mut self,
        n: usize,
    ) -> (Matrix<T>, Matrix<T>, Matrix<T>, Matrix<T>) {
        assert!(n.is_multiple_of(2), "blocked operands require even n");
        let h = n / 2;
        (self.matrix(h, h), self.matrix(h, h), self.matrix(h, n), self.matrix(h, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_take_the_stream_in_row_major_order() {
        let (mut a, mut b) = (OperandGen::new(9), OperandGen::new(9));
        let drawn = a.matrix::<f64>(3, 4);
        let want = Matrix::from_fn(3, 4, |_, _| b.sample::<f64>());
        assert_eq!(drawn, want);
        assert_eq!(a.matrix::<f32>(2, 1), Matrix::from_fn(2, 1, |_, _| b.sample::<f32>()));
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = OperandGen::new(42).matrix::<f64>(5, 7);
        let b = OperandGen::new(42).matrix::<f64>(5, 7);
        assert_eq!(a, b);
        let c = OperandGen::new(43).matrix::<f64>(5, 7);
        assert_ne!(a, c);
    }

    #[test]
    fn triangular_structure() {
        let mut g = OperandGen::new(1);
        let l = g.lower_triangular::<f64>(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert_eq!(l[(i, j)], 0.0, "upper part of L must be zero");
            }
        }
        let u = g.upper_triangular::<f64>(6);
        for i in 0..6 {
            for j in 0..i {
                assert_eq!(u[(i, j)], 0.0, "lower part of U must be zero");
            }
        }
    }

    #[test]
    fn symmetric_structure() {
        let s = OperandGen::new(2).symmetric::<f64>(8);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
    }

    #[test]
    fn spd_is_diagonally_dominant() {
        let s = OperandGen::new(3).spd::<f64>(10);
        for i in 0..10 {
            let off: f64 = (0..10).filter(|&j| j != i).map(|j| s[(i, j)].abs()).sum();
            assert!(s[(i, i)] > off, "row {i} not diagonally dominant");
        }
    }

    #[test]
    fn diagonal_entries_bounded_away_from_zero() {
        let d = OperandGen::new(4).diagonal::<f64>(100);
        for v in &d.d {
            assert!(v.abs() >= 0.1 - 1e-12);
        }
    }

    #[test]
    fn orthogonal_has_orthonormal_columns() {
        let q = OperandGen::new(5).orthogonal::<f64>(16);
        // QᵀQ == I within tolerance (naive O(n³) check at tiny n).
        for i in 0..16 {
            for j in 0..16 {
                let dot: f64 = (0..16).map(|k| q[(k, i)] * q[(k, j)]).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-10, "QtQ[{i},{j}] = {dot}");
            }
        }
    }

    #[test]
    fn blocked_operands_shapes() {
        let (a1, a2, b1, b2) = OperandGen::new(6).blocked_operands::<f32>(10);
        assert_eq!(a1.shape(), (5, 5));
        assert_eq!(a2.shape(), (5, 5));
        assert_eq!(b1.shape(), (5, 10));
        assert_eq!(b2.shape(), (5, 10));
    }

    #[test]
    fn entries_are_bounded() {
        let m = OperandGen::new(7).matrix::<f64>(20, 20);
        assert!(m.max_abs() <= 0.5 + 1e-12);
        assert!(m.all_finite());
    }
}
