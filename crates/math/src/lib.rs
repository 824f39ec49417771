//! Linear-algebra kernels for quantum-circuit compilation.
//!
//! This crate provides the numeric substrate used by the rest of the RPO
//! workspace: complex scalars ([`C64`]), dense complex matrices ([`Matrix`]),
//! the in-place gate-application kernel engine ([`KernelEngine`]) shared by
//! the state-vector simulator and circuit-unitary construction,
//! real symmetric eigendecomposition (cyclic Jacobi), simultaneous
//! diagonalization of commuting symmetric pairs (the kernel of the two-qubit
//! KAK/Weyl decomposition), a complex 2×2 singular value decomposition (used
//! for Schmidt decompositions of two-qubit states), and Haar-random unitary
//! sampling (used by the Quantum Volume benchmark).
//!
//! Everything is implemented from first principles on `f64`; matrices are
//! small (2ⁿ × 2ⁿ for n ≤ ~6), so simple dense algorithms are both adequate
//! and easy to audit.
//!
//! # Examples
//!
//! ```
//! use qc_math::{C64, Matrix};
//!
//! let h = Matrix::from_rows(&[
//!     vec![C64::new(1.0, 0.0), C64::new(1.0, 0.0)],
//!     vec![C64::new(1.0, 0.0), C64::new(-1.0, 0.0)],
//! ]).scale(C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0));
//! assert!(h.is_unitary(1e-12));
//! assert!((&h * &h).approx_eq(&Matrix::identity(2), 1e-12));
//! ```

pub mod complex;
pub mod kernel;
pub mod matrix;
pub mod random;
pub mod real;
pub mod svd;

pub use complex::C64;
pub use kernel::{
    apply_2x2, calibrated_cheap_pass_cost, calibrated_dense3_penalty, expand_bits, kernel_threads,
    lock_thread_cap, mul_2x2, mul_4x4, par_units, set_max_threads, set_steal_sequence, BufPtr,
    KernelEngine, KernelOp,
};
pub use matrix::Matrix;
pub use random::{haar_state, haar_unitary};
pub use real::{jacobi_eigh, simultaneous_diagonalize, RealMatrix};
pub use svd::svd2x2;

/// Default absolute tolerance used by approximate comparisons in this
/// workspace (matrix equality, unitarity checks, eigenvalue grouping).
pub const EPS: f64 = 1e-9;
