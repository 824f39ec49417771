//! Dense complex matrices and vectors.
//!
//! [`Matrix`] is a row-major dense complex matrix sized for quantum gates
//! (2×2 up to 2ⁿ×2ⁿ for small n). It supports the operations circuit
//! compilation needs: multiplication, adjoints, Kronecker products,
//! determinants, inversion, and the "equal up to global phase" comparison
//! that defines circuit equivalence in the peephole-optimization literature.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qc_math::{C64, Matrix};
///
/// let x = Matrix::from_rows(&[
///     vec![C64::ZERO, C64::ONE],
///     vec![C64::ONE, C64::ZERO],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!((&x * &x).approx_eq(&Matrix::identity(2), 1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<C64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Wraps row-major storage as a `rows × cols` matrix without copying.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "storage length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds an `n × n` diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let mut m = Matrix::zeros(entries.len(), entries.len());
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
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

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The conjugate transpose `A†`.
    pub fn adjoint(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// The transpose `Aᵀ` (no conjugation).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// The element-wise complex conjugate.
    pub fn conjugate(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, s: C64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == C64::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Applies the matrix to a column vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn apply(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        let mut out = vec![C64::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = C64::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == C64::ZERO {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// The trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// The determinant, computed by LU elimination with partial pivoting.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn det(&self) -> C64 {
        assert!(self.is_square(), "determinant requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = C64::ONE;
        for col in 0..n {
            // Partial pivot: largest-modulus entry in this column.
            let mut pivot = col;
            let mut best = a[(col, col)].norm();
            for r in col + 1..n {
                let m = a[(r, col)].norm();
                if m > best {
                    best = m;
                    pivot = r;
                }
            }
            if best == 0.0 {
                return C64::ZERO;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                det = -det;
            }
            let p = a[(col, col)];
            det *= p;
            for r in col + 1..n {
                let factor = a[(r, col)] / p;
                for c in col..n {
                    let sub = factor * a[(col, c)];
                    a[(r, c)] -= sub;
                }
            }
        }
        det
    }

    /// The inverse, computed by Gauss–Jordan elimination with partial
    /// pivoting.
    ///
    /// Returns `None` when the matrix is singular (pivot below `1e-12`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert!(self.is_square(), "inverse requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            let mut pivot = col;
            let mut best = a[(col, col)].norm();
            for r in col + 1..n {
                let m = a[(r, col)].norm();
                if m > best {
                    best = m;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p = a[(col, col)].inv();
            for c in 0..n {
                a[(col, c)] *= p;
                inv[(col, c)] *= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor == C64::ZERO {
                    continue;
                }
                for c in 0..n {
                    let s1 = factor * a[(col, c)];
                    a[(r, c)] -= s1;
                    let s2 = factor * inv[(col, c)];
                    inv[(r, c)] -= s2;
                }
            }
        }
        Some(inv)
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Entry-wise approximate equality: `‖A−B‖_max < eps`.
    pub fn approx_eq(&self, other: &Matrix, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (*a - *b).norm() < eps)
    }

    /// Tests equality up to a global phase: `∃φ. A ≈ e^{iφ}·B`.
    ///
    /// This is the equivalence relation used for quantum-circuit unitaries,
    /// since a global phase is unobservable.
    pub fn equal_up_to_global_phase(&self, other: &Matrix, eps: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the largest entry of `other` to fix the phase reference.
        let mut idx = 0;
        let mut best = 0.0;
        for (i, z) in other.data.iter().enumerate() {
            if z.norm() > best {
                best = z.norm();
                idx = i;
            }
        }
        if best < eps {
            return self.frobenius_norm() < eps;
        }
        let phase = self.data[idx] / other.data[idx];
        if (phase.norm() - 1.0).abs() > eps.max(1e-6) {
            return false;
        }
        self.approx_eq(&other.scale(phase), eps)
    }

    /// Returns `true` when `A†A ≈ I` within `eps`.
    pub fn is_unitary(&self, eps: f64) -> bool {
        self.is_square()
            && self
                .adjoint()
                .matmul(self)
                .approx_eq(&Matrix::identity(self.rows), eps)
    }

    /// Extracts column `j` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn column(&self, j: usize) -> Vec<C64> {
        assert!(j < self.cols, "column index out of range");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of range");
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    /// Splits a matrix known to be (approximately) a Kronecker product
    /// `A ⊗ B` of a `p×p` and `q×q` factor into `(scalar, A, B)` such that
    /// `scalar · (A ⊗ B) ≈ self`, with both factors normalized to unit
    /// determinant magnitude.
    ///
    /// Returns `None` when the matrix is further than `eps` (Frobenius) from
    /// any Kronecker product of the requested shape.
    pub fn kron_factor(&self, p: usize, q: usize, eps: f64) -> Option<(C64, Matrix, Matrix)> {
        if self.rows != p * q || self.cols != p * q {
            return None;
        }
        // Locate the block (bi, bj) with the largest Frobenius norm; use it
        // as the B-factor estimate.
        let block = |bi: usize, bj: usize| -> Matrix {
            Matrix::from_fn(q, q, |k, l| self[(bi * q + k, bj * q + l)])
        };
        let mut best = (0, 0);
        let mut best_norm = -1.0;
        for bi in 0..p {
            for bj in 0..p {
                let n = block(bi, bj).frobenius_norm();
                if n > best_norm {
                    best_norm = n;
                    best = (bi, bj);
                }
            }
        }
        if best_norm <= 0.0 {
            return None;
        }
        let b_raw = block(best.0, best.1);
        // a_{ij} = <B_raw, block_ij> / ‖B_raw‖²  (Frobenius inner product).
        let denom: f64 = b_raw.frobenius_norm().powi(2);
        let mut a = Matrix::zeros(p, p);
        for bi in 0..p {
            for bj in 0..p {
                let blk = block(bi, bj);
                let mut inner = C64::ZERO;
                for k in 0..q {
                    for l in 0..q {
                        inner += b_raw[(k, l)].conj() * blk[(k, l)];
                    }
                }
                a[(bi, bj)] = inner.scale(1.0 / denom);
            }
        }
        // Normalize the factors: make each have unit-magnitude determinant,
        // pushing the residual scale into `scalar`.
        let mut a_n = a.clone();
        let mut b_n = b_raw.clone();
        let da = a_n.det();
        if da.norm() < 1e-12 {
            return None;
        }
        let fa = da.norm().powf(-1.0 / p as f64);
        a_n = a_n.scale(C64::real(fa));
        let db = b_n.det();
        if db.norm() < 1e-12 {
            return None;
        }
        let fb = db.norm().powf(-1.0 / q as f64);
        b_n = b_n.scale(C64::real(fb));
        // Remaining scalar so that scalar·(A⊗B) = self, estimated from the
        // largest entry.
        let prod = a_n.kron(&b_n);
        let mut idx = 0;
        let mut mx = 0.0;
        for (i, z) in prod.as_slice().iter().enumerate() {
            if z.norm() > mx {
                mx = z.norm();
                idx = i;
            }
        }
        if mx < 1e-12 {
            return None;
        }
        let scalar = self.data[idx] / prod.as_slice()[idx];
        if self.approx_eq(&prod.scale(scalar), eps) {
            Some((scalar, a_n, b_n))
        } else {
            None
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Normalizes a state vector in place to unit 2-norm; returns the previous
/// norm. A zero vector is left untouched and `0.0` is returned.
pub fn normalize(v: &mut [C64]) -> f64 {
    let n: f64 = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if n > 0.0 {
        for z in v.iter_mut() {
            *z = z.scale(1.0 / n);
        }
    }
    n
}

/// The inner product `⟨a|b⟩ = Σᵢ conj(aᵢ)·bᵢ`.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn inner(a: &[C64], b: &[C64]) -> C64 {
    assert_eq!(a.len(), b.len(), "inner product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Tests whether two state vectors are equal up to a global phase.
pub fn states_equal_up_to_phase(a: &[C64], b: &[C64], eps: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut idx = None;
    let mut best = 0.0;
    for (i, z) in b.iter().enumerate() {
        if z.norm() > best {
            best = z.norm();
            idx = Some(i);
        }
    }
    let Some(idx) = idx else {
        return a.iter().all(|z| z.norm() < eps);
    };
    if best < eps {
        return a.iter().all(|z| z.norm() < eps);
    }
    let phase = a[idx] / b[idx];
    if (phase.norm() - 1.0).abs() > eps.max(1e-6) {
        return false;
    }
    a.iter().zip(b).all(|(x, y)| (*x - *y * phase).norm() < eps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]])
    }

    fn pauli_z() -> Matrix {
        Matrix::from_rows(&[
            vec![C64::ONE, C64::ZERO],
            vec![C64::ZERO, C64::new(-1.0, 0.0)],
        ])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let i2 = Matrix::identity(2);
        assert!(x.matmul(&i2).approx_eq(&x, 1e-15));
        assert!(i2.matmul(&x).approx_eq(&x, 1e-15));
    }

    #[test]
    fn adjoint_of_product_reverses() {
        let x = pauli_x();
        let z = pauli_z();
        let lhs = x.matmul(&z).adjoint();
        let rhs = z.adjoint().matmul(&x.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let k = x.kron(&z);
        assert_eq!(k.rows(), 4);
        // X⊗Z = [[0, Z],[Z, 0]]
        assert_eq!(k[(0, 2)], C64::ONE);
        assert_eq!(k[(1, 3)], C64::new(-1.0, 0.0));
        assert_eq!(k[(2, 0)], C64::ONE);
        assert_eq!(k[(0, 0)], C64::ZERO);
    }

    #[test]
    fn det_of_paulis() {
        assert!(pauli_x().det().approx_eq(C64::new(-1.0, 0.0), 1e-14));
        assert!(pauli_z().det().approx_eq(C64::new(-1.0, 0.0), 1e-14));
        assert!(Matrix::identity(4).det().approx_eq(C64::ONE, 1e-14));
    }

    #[test]
    fn det_multiplicative() {
        let a = Matrix::from_rows(&[
            vec![C64::new(1.0, 1.0), C64::new(2.0, 0.0)],
            vec![C64::new(0.0, -1.0), C64::new(1.0, 2.0)],
        ]);
        let b = Matrix::from_rows(&[
            vec![C64::new(0.5, 0.0), C64::new(1.0, -1.0)],
            vec![C64::new(2.0, 1.0), C64::new(0.0, 3.0)],
        ]);
        let lhs = a.matmul(&b).det();
        let rhs = a.det() * b.det();
        assert!(lhs.approx_eq(rhs, 1e-12));
    }

    #[test]
    fn inverse_round_trip() {
        let a = Matrix::from_rows(&[
            vec![C64::new(1.0, 1.0), C64::new(2.0, 0.0)],
            vec![C64::new(0.0, -1.0), C64::new(1.0, 2.0)],
        ]);
        let inv = a.inverse().expect("invertible");
        assert!(a.matmul(&inv).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = Matrix::from_rows(&[vec![C64::ONE, C64::ONE], vec![C64::ONE, C64::ONE]]);
        assert!(a.inverse().is_none());
        assert!(a.det().norm() < 1e-14);
    }

    #[test]
    fn global_phase_equality() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(0.7));
        assert!(x.equal_up_to_global_phase(&phased, 1e-12));
        assert!(!x.equal_up_to_global_phase(&pauli_z(), 1e-12));
        assert!(!x.approx_eq(&phased, 1e-12));
    }

    #[test]
    fn kron_factor_recovers_factors() {
        let x = pauli_x();
        let z = pauli_z();
        let k = x.kron(&z).scale(C64::cis(0.3));
        let (s, a, b) = k.kron_factor(2, 2, 1e-9).expect("factorable");
        assert!(a.kron(&b).scale(s).approx_eq(&k, 1e-9));
    }

    #[test]
    fn kron_factor_rejects_entangling() {
        // CNOT is not a Kronecker product.
        let mut cx = Matrix::identity(4);
        cx[(2, 2)] = C64::ZERO;
        cx[(3, 3)] = C64::ZERO;
        cx[(2, 3)] = C64::ONE;
        cx[(3, 2)] = C64::ONE;
        assert!(cx.kron_factor(2, 2, 1e-9).is_none());
    }

    #[test]
    fn vector_helpers() {
        let mut v = vec![C64::new(3.0, 0.0), C64::new(4.0, 0.0)];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-14);
        assert!((inner(&v, &v).re - 1.0).abs() < 1e-14);
        let w = vec![v[0] * C64::cis(1.1), v[1] * C64::cis(1.1)];
        assert!(states_equal_up_to_phase(&v, &w, 1e-12));
    }

    #[test]
    fn apply_matches_matmul() {
        let x = pauli_x();
        let v = vec![C64::new(0.6, 0.0), C64::new(0.8, 0.0)];
        assert_eq!(x.apply(&v), vec![C64::new(0.8, 0.0), C64::new(0.6, 0.0)]);
    }

    #[test]
    fn trace_of_identity() {
        assert_eq!(Matrix::identity(4).trace(), C64::new(4.0, 0.0));
    }
}
