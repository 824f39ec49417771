//! The gate set and per-gate metadata (arity, matrices, inverses, names).

use qc_math::{KernelOp, Matrix, C64};
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_2, PI};
use std::fmt;

/// SWAPZ as a basis-state permutation: `cx(q1→q0)` then `cx(q0→q1)` maps
/// `|b₁b₀⟩` to `|b₀, b₀⊕b₁⟩`, i.e. local state `l → SWAPZ_PERM[l]`.
static SWAPZ_PERM: [usize; 4] = [0, 3, 1, 2];

/// Fredkin as a permutation: control is local bit 0; states 3 = `011` and
/// 5 = `101` exchange, everything else is fixed.
static CSWAP_PERM: [usize; 8] = [0, 1, 2, 5, 4, 3, 6, 7];

/// The six single-qubit basis states tracked by the paper's basis-state
/// analysis (Section VI-A): the Z-basis (|0⟩, |1⟩), X-basis (|+⟩, |−⟩) and
/// Y-basis (|L⟩, |R⟩) eigenstates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasisState {
    /// |0⟩, the ground state.
    Zero,
    /// |1⟩.
    One,
    /// |+⟩ = (|0⟩+|1⟩)/√2.
    Plus,
    /// |−⟩ = (|0⟩−|1⟩)/√2.
    Minus,
    /// |L⟩ = (|0⟩+i|1⟩)/√2 (also written |+i⟩).
    Left,
    /// |R⟩ = (|0⟩−i|1⟩)/√2 (also written |−i⟩).
    Right,
}

impl BasisState {
    /// The state vector of this basis state.
    pub fn state_vector(self) -> [C64; 2] {
        let r = FRAC_1_SQRT_2;
        match self {
            BasisState::Zero => [C64::ONE, C64::ZERO],
            BasisState::One => [C64::ZERO, C64::ONE],
            BasisState::Plus => [C64::real(r), C64::real(r)],
            BasisState::Minus => [C64::real(r), C64::real(-r)],
            BasisState::Left => [C64::real(r), C64::new(0.0, r)],
            BasisState::Right => [C64::real(r), C64::new(0.0, -r)],
        }
    }

    /// The Bloch-sphere parameters `(θ, φ)` such that this state equals
    /// `cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩`; the representation used by the
    /// paper's pure-state analysis and `ANNOT(θ, φ)`.
    pub fn bloch_angles(self) -> (f64, f64) {
        match self {
            BasisState::Zero => (0.0, 0.0),
            BasisState::One => (PI, 0.0),
            BasisState::Plus => (FRAC_PI_2, 0.0),
            BasisState::Minus => (FRAC_PI_2, PI),
            BasisState::Left => (FRAC_PI_2, FRAC_PI_2),
            BasisState::Right => (FRAC_PI_2, -FRAC_PI_2),
        }
    }

    /// Identifies which basis state (if any) the Bloch angles `(θ, φ)`
    /// describe, within tolerance `eps`.
    pub fn from_bloch_angles(theta: f64, phi: f64, eps: f64) -> Option<BasisState> {
        let all = [
            BasisState::Zero,
            BasisState::One,
            BasisState::Plus,
            BasisState::Minus,
            BasisState::Left,
            BasisState::Right,
        ];
        // Compare state vectors rather than raw angles: φ is meaningless at
        // the poles (θ ∈ {0, π}) and φ is 2π-periodic.
        let a = C64::real((theta / 2.0).cos());
        let b = C64::cis(phi).scale((theta / 2.0).sin());
        all.into_iter().find(|s| {
            let [sa, sb] = s.state_vector();
            // Equality up to global phase.
            let ip = sa.conj() * a + sb.conj() * b;
            (ip.norm() - 1.0).abs() < eps
        })
    }
}

/// A quantum gate or circuit instruction.
///
/// Gates carry their parameters inline; arity is fixed per variant except
/// the multi-controlled family and [`Gate::Unitary`]. See the crate docs for
/// the qubit-ordering convention.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Identity (single qubit).
    I,
    /// Pauli X (NOT).
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// S†.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// X-rotation by θ.
    Rx(f64),
    /// Y-rotation by θ.
    Ry(f64),
    /// Z-rotation by θ (traceless convention, `diag(e^{−iθ/2}, e^{iθ/2})`).
    Rz(f64),
    /// Phase gate u1(λ) = diag(1, e^{iλ}).
    U1(f64),
    /// u2(φ, λ) = u3(π/2, φ, λ).
    U2(f64, f64),
    /// The generic single-qubit gate u3(θ, φ, λ).
    U3(f64, f64, f64),
    /// Controlled-NOT: `(control, target)`.
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled phase: `diag(1,1,1,e^{iλ})` (symmetric).
    Cp(f64),
    /// SWAP.
    Swap,
    /// The paper's reduced 2-CNOT swap (Eq. 3). `swapz(qz, other)` swaps the
    /// two qubits **only when `qz` is in |0⟩**; otherwise its unitary is
    /// `cx(other→qz)·cx(qz→other)` which is *not* a SWAP. The QBO pass
    /// verifies the precondition and decomposes invalid SWAPZ gates.
    SwapZ,
    /// Toffoli: `(control, control, target)`.
    Ccx,
    /// Fredkin (controlled-SWAP): `(control, target, target)`.
    Cswap,
    /// Multi-controlled NOT with `n` controls: `(c₁, …, cₙ, target)`.
    Mcx(usize),
    /// Multi-controlled Z with `n` controls: `(c₁, …, cₙ, target)`;
    /// symmetric in all qubits.
    Mcz(usize),
    /// Controlled single-qubit unitary: `(control, target)`.
    Cu(Matrix),
    /// An arbitrary k-qubit unitary block (used by block-consolidation
    /// passes). The matrix dimension must be a power of two.
    Unitary(Matrix),
    /// Non-unitary reset to |0⟩ (the only non-gate instruction the paper
    /// considers).
    Reset,
    /// Computational-basis measurement of one qubit.
    Measure,
    /// Synchronization barrier across its qubits (no-op semantics).
    Barrier(usize),
    /// The paper's `ANNOT(θ, φ)` pure-state annotation (Section VI-C): an
    /// assertion, trusted by the state analyses, that the qubit is in the
    /// pure state `cos(θ/2)|0⟩ + e^{iφ}sin(θ/2)|1⟩` at this point. Acts as
    /// the identity during simulation.
    Annot(f64, f64),
}

impl Gate {
    /// Number of qubits this gate acts on.
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::I
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U1(_)
            | Gate::U2(_, _)
            | Gate::U3(_, _, _)
            | Gate::Reset
            | Gate::Measure
            | Gate::Annot(_, _) => 1,
            Gate::Cx | Gate::Cz | Gate::Cp(_) | Gate::Swap | Gate::SwapZ | Gate::Cu(_) => 2,
            Gate::Ccx | Gate::Cswap => 3,
            Gate::Mcx(n) | Gate::Mcz(n) => n + 1,
            Gate::Barrier(n) => *n,
            Gate::Unitary(m) => {
                let dim = m.rows();
                debug_assert!(dim.is_power_of_two());
                dim.trailing_zeros() as usize
            }
        }
    }

    /// The canonical lowercase name (Qiskit-style) of the gate.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U1(_) => "u1",
            Gate::U2(_, _) => "u2",
            Gate::U3(_, _, _) => "u3",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Cp(_) => "cp",
            Gate::Swap => "swap",
            Gate::SwapZ => "swapz",
            Gate::Ccx => "ccx",
            Gate::Cswap => "cswap",
            Gate::Mcx(_) => "mcx",
            Gate::Mcz(_) => "mcz",
            Gate::Cu(_) => "cu",
            Gate::Unitary(_) => "unitary",
            Gate::Reset => "reset",
            Gate::Measure => "measure",
            Gate::Barrier(_) => "barrier",
            Gate::Annot(_, _) => "annot",
        }
    }

    /// Returns `true` for unitary gates (everything except reset, measure,
    /// barriers and annotations).
    pub fn is_unitary_gate(&self) -> bool {
        !matches!(
            self,
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _)
        )
    }

    /// Returns `true` for directives that have no physical effect (barriers
    /// and annotations); these are excluded from gate counts and depth.
    pub fn is_directive(&self) -> bool {
        matches!(self, Gate::Barrier(_) | Gate::Annot(_, _))
    }

    /// The gate's unitary matrix in the local ordering described in the
    /// crate docs, or `None` for non-unitary instructions and directives.
    pub fn matrix(&self) -> Option<Matrix> {
        let r = FRAC_1_SQRT_2;
        let m = match self {
            Gate::I => Matrix::identity(2),
            Gate::X => Matrix::from_rows(&[vec![C64::ZERO, C64::ONE], vec![C64::ONE, C64::ZERO]]),
            Gate::Y => Matrix::from_rows(&[vec![C64::ZERO, -C64::I], vec![C64::I, C64::ZERO]]),
            Gate::Z => Matrix::diag(&[C64::ONE, C64::real(-1.0)]),
            Gate::H => Matrix::from_rows(&[
                vec![C64::real(r), C64::real(r)],
                vec![C64::real(r), C64::real(-r)],
            ]),
            Gate::S => Matrix::diag(&[C64::ONE, C64::I]),
            Gate::Sdg => Matrix::diag(&[C64::ONE, -C64::I]),
            Gate::T => Matrix::diag(&[C64::ONE, C64::cis(PI / 4.0)]),
            Gate::Tdg => Matrix::diag(&[C64::ONE, C64::cis(-PI / 4.0)]),
            Gate::Rx(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                Matrix::from_rows(&[vec![c, s], vec![s, c]])
            }
            Gate::Ry(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                Matrix::from_rows(&[vec![c, -s], vec![s, c]])
            }
            Gate::Rz(t) => Matrix::diag(&[C64::cis(-t / 2.0), C64::cis(t / 2.0)]),
            Gate::U1(l) => Matrix::diag(&[C64::ONE, C64::cis(*l)]),
            Gate::U2(phi, lam) => u3_matrix(FRAC_PI_2, *phi, *lam),
            Gate::U3(t, phi, lam) => u3_matrix(*t, *phi, *lam),
            Gate::Cx => {
                // control = local bit 0, target = local bit 1 (little-endian)
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = C64::ONE; // |c=0,t=0⟩
                m[(2, 2)] = C64::ONE; // |c=0,t=1⟩
                m[(3, 1)] = C64::ONE; // |c=1,t=0⟩ → |c=1,t=1⟩
                m[(1, 3)] = C64::ONE;
                m
            }
            Gate::Cz => Matrix::diag(&[C64::ONE, C64::ONE, C64::ONE, C64::real(-1.0)]),
            Gate::Cp(l) => Matrix::diag(&[C64::ONE, C64::ONE, C64::ONE, C64::cis(*l)]),
            Gate::Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = C64::ONE;
                m[(3, 3)] = C64::ONE;
                m[(1, 2)] = C64::ONE;
                m[(2, 1)] = C64::ONE;
                m
            }
            Gate::SwapZ => {
                // cx(q1→q0) then cx(q0→q1): matrix = CX₀₁ · CX₁₀ where
                // CX₁₀ has control bit 1, target bit 0.
                let cx01 = Gate::Cx.matrix().expect("cx has a matrix"); // control bit0
                let cx10 = {
                    let mut m = Matrix::zeros(4, 4);
                    m[(0, 0)] = C64::ONE;
                    m[(1, 1)] = C64::ONE;
                    m[(3, 2)] = C64::ONE;
                    m[(2, 3)] = C64::ONE;
                    m
                };
                // Time order: first cx(q1→q0) = cx10, then cx(q0→q1) = cx01.
                cx01.matmul(&cx10)
            }
            Gate::Ccx => {
                // controls bits 0,1; target bit 2.
                let mut m = Matrix::identity(8);
                m[(3, 3)] = C64::ZERO;
                m[(7, 7)] = C64::ZERO;
                m[(3, 7)] = C64::ONE;
                m[(7, 3)] = C64::ONE;
                m
            }
            Gate::Cswap => {
                // control bit 0; swap bits 1 and 2 when control set:
                // |c=1, t₁=a, t₂=b⟩ → |c=1, t₁=b, t₂=a⟩; indices 3=011, 5=101.
                let mut m = Matrix::identity(8);
                m[(3, 3)] = C64::ZERO;
                m[(5, 5)] = C64::ZERO;
                m[(3, 5)] = C64::ONE;
                m[(5, 3)] = C64::ONE;
                m
            }
            Gate::Mcx(n) => {
                let dim = 1 << (n + 1);
                let mut m = Matrix::identity(dim);
                // All controls (bits 0..n) set: indices with low n bits = 1.
                let ctrl_mask = (1 << n) - 1;
                let a = ctrl_mask; // target bit (bit n) = 0
                let b = ctrl_mask | (1 << n); // target bit = 1
                m[(a, a)] = C64::ZERO;
                m[(b, b)] = C64::ZERO;
                m[(a, b)] = C64::ONE;
                m[(b, a)] = C64::ONE;
                m
            }
            Gate::Mcz(n) => {
                let dim = 1 << (n + 1);
                let mut m = Matrix::identity(dim);
                m[(dim - 1, dim - 1)] = C64::real(-1.0);
                m
            }
            Gate::Cu(u) => {
                // control bit 0, target bit 1.
                let mut m = Matrix::identity(4);
                m[(1, 1)] = u[(0, 0)];
                m[(1, 3)] = u[(0, 1)];
                m[(3, 1)] = u[(1, 0)];
                m[(3, 3)] = u[(1, 1)];
                m
            }
            Gate::Unitary(u) => u.clone(),
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _) => return None,
        };
        Some(m)
    }

    /// The gate's action classified for the shared kernel engine
    /// ([`qc_math::KernelEngine`]), in local qubit ordering, or `None` for
    /// non-unitary instructions and directives.
    ///
    /// Unlike [`Gate::matrix`], this never heap-allocates: structured gates
    /// map to stack-sized kernel descriptors, permutation gates reference
    /// static tables, and `Unitary` blocks are borrowed. It is the
    /// per-instruction fast path for both the state-vector simulator and
    /// circuit-unitary construction.
    pub fn kernel(&self) -> Option<KernelOp<'_>> {
        let r = FRAC_1_SQRT_2;
        let op = match self {
            Gate::I => KernelOp::OneQDiag([C64::ONE, C64::ONE]),
            Gate::X | Gate::Cx | Gate::Ccx | Gate::Mcx(_) => KernelOp::ControlledX,
            Gate::Y => KernelOp::OneQ([C64::ZERO, -C64::I, C64::I, C64::ZERO]),
            Gate::Z => KernelOp::OneQDiag([C64::ONE, C64::real(-1.0)]),
            Gate::H => {
                let h = C64::real(r);
                KernelOp::OneQ([h, h, h, -h])
            }
            Gate::S => KernelOp::OneQDiag([C64::ONE, C64::I]),
            Gate::Sdg => KernelOp::OneQDiag([C64::ONE, -C64::I]),
            Gate::T => KernelOp::OneQDiag([C64::ONE, C64::cis(PI / 4.0)]),
            Gate::Tdg => KernelOp::OneQDiag([C64::ONE, C64::cis(-PI / 4.0)]),
            Gate::Rx(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::new(0.0, -(t / 2.0).sin());
                KernelOp::OneQ([c, s, s, c])
            }
            Gate::Ry(t) => {
                let c = C64::real((t / 2.0).cos());
                let s = C64::real((t / 2.0).sin());
                KernelOp::OneQ([c, -s, s, c])
            }
            Gate::Rz(t) => KernelOp::OneQDiag([C64::cis(-t / 2.0), C64::cis(t / 2.0)]),
            Gate::U1(l) => KernelOp::OneQDiag([C64::ONE, C64::cis(*l)]),
            Gate::U2(phi, lam) => KernelOp::OneQ(u3_entries(FRAC_PI_2, *phi, *lam)),
            Gate::U3(t, phi, lam) => KernelOp::OneQ(u3_entries(*t, *phi, *lam)),
            Gate::Cz | Gate::Mcz(_) => KernelOp::PhaseAllOnes(C64::real(-1.0)),
            Gate::Cp(l) => KernelOp::PhaseAllOnes(C64::cis(*l)),
            Gate::Swap => KernelOp::Swap,
            Gate::SwapZ => KernelOp::Permutation(&SWAPZ_PERM),
            Gate::Cswap => KernelOp::Permutation(&CSWAP_PERM),
            Gate::Cu(u) => KernelOp::ControlledOneQ([u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]]),
            Gate::Unitary(u) => KernelOp::Dense(u),
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _) => return None,
        };
        Some(op)
    }

    /// The 2×2 matrix of a single-qubit gate as a stack array (row-major
    /// `[m00, m01, m10, m11]`), or `None` for everything else.
    ///
    /// This is the allocation-free alternative to [`Gate::matrix`] for the
    /// per-instruction single-qubit analyses (state tracking, 1q-run
    /// collection, QPO re-synthesis).
    pub fn matrix2x2(&self) -> Option<[C64; 4]> {
        if self.num_qubits() != 1 {
            return None;
        }
        match self.kernel()? {
            KernelOp::OneQ(m) => Some(m),
            KernelOp::OneQDiag([d0, d1]) => Some([d0, C64::ZERO, C64::ZERO, d1]),
            KernelOp::ControlledX => Some([C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]),
            // A 1-qubit `Gate::Unitary` block classifies as Dense; the arity
            // check above guarantees the matrix is 2×2 here.
            KernelOp::Dense(m) => Some([m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]]),
            _ => None,
        }
    }

    /// The inverse gate, or `None` for non-invertible instructions
    /// (reset/measure) and directives.
    pub fn inverse(&self) -> Option<Gate> {
        let g = match self {
            Gate::I => Gate::I,
            Gate::X => Gate::X,
            Gate::Y => Gate::Y,
            Gate::Z => Gate::Z,
            Gate::H => Gate::H,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::U1(l) => Gate::U1(-l),
            // u2(φ,λ)⁻¹ = u3(-π/2, -λ, -φ) = u3(π/2, π-λ, -φ-π)
            Gate::U2(phi, lam) => Gate::U3(-FRAC_PI_2, -lam, -phi),
            Gate::U3(t, phi, lam) => Gate::U3(-t, -lam, -phi),
            Gate::Cx => Gate::Cx,
            Gate::Cz => Gate::Cz,
            Gate::Cp(l) => Gate::Cp(-l),
            Gate::Swap => Gate::Swap,
            // (CX₀₁·CX₁₀)⁻¹ = CX₁₀·CX₀₁ = SwapZ with arguments exchanged;
            // callers must reverse the qubit list (see Circuit::inverse).
            Gate::SwapZ => Gate::SwapZ,
            Gate::Ccx => Gate::Ccx,
            Gate::Cswap => Gate::Cswap,
            Gate::Mcx(n) => Gate::Mcx(*n),
            Gate::Mcz(n) => Gate::Mcz(*n),
            Gate::Cu(u) => Gate::Cu(u.adjoint()),
            Gate::Unitary(u) => Gate::Unitary(u.adjoint()),
            Gate::Barrier(n) => Gate::Barrier(*n),
            Gate::Annot(_, _) | Gate::Reset | Gate::Measure => return None,
        };
        Some(g)
    }
}

/// The u3 matrix entries (row-major 2×2) in the convention used throughout
/// this workspace.
fn u3_entries(theta: f64, phi: f64, lam: f64) -> [C64; 4] {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    [
        C64::real(c),
        -C64::cis(lam).scale(s),
        C64::cis(phi).scale(s),
        C64::cis(phi + lam).scale(c),
    ]
}

/// The u3 matrix in the convention used throughout this workspace.
pub fn u3_matrix(theta: f64, phi: f64, lam: f64) -> Matrix {
    let [a, b, c, d] = u3_entries(theta, phi, lam);
    Matrix::from_rows(&[vec![a, b], vec![c, d]])
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::U1(t) | Gate::Cp(t) => {
                write!(f, "{}({:.4})", self.name(), t)
            }
            Gate::U2(a, b) => write!(f, "u2({a:.4},{b:.4})"),
            Gate::U3(a, b, c) => write!(f, "u3({a:.4},{b:.4},{c:.4})"),
            Gate::Annot(t, p) => write!(f, "annot({t:.4},{p:.4})"),
            Gate::Mcx(n) => write!(f, "mcx[{n}]"),
            Gate::Mcz(n) => write!(f, "mcz[{n}]"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_unitary(g: &Gate) {
        let m = g.matrix().unwrap_or_else(|| panic!("{g} has no matrix"));
        assert!(m.is_unitary(1e-12), "{g} matrix is not unitary");
    }

    #[test]
    fn all_gates_unitary() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::U1(0.3),
            Gate::U2(0.1, 0.9),
            Gate::U3(1.1, 0.2, -0.4),
            Gate::Cx,
            Gate::Cz,
            Gate::Cp(1.0),
            Gate::Swap,
            Gate::SwapZ,
            Gate::Ccx,
            Gate::Cswap,
            Gate::Mcx(3),
            Gate::Mcz(3),
            Gate::Cu(Gate::T.matrix().unwrap()),
        ];
        for g in &gates {
            assert_unitary(g);
            let dim = 1 << g.num_qubits();
            assert_eq!(g.matrix().unwrap().rows(), dim, "{g} dimension");
        }
    }

    /// Reconstructs the dense matrix a [`KernelOp`] describes (in local
    /// ordering) so the kernel classification can be checked against
    /// [`Gate::matrix`] — two independent encodings of the same gate.
    fn kernel_to_matrix(op: &KernelOp<'_>, k: usize) -> Matrix {
        let dim = 1usize << k;
        match op {
            KernelOp::OneQ(m) => Matrix::from_rows(&[vec![m[0], m[1]], vec![m[2], m[3]]]),
            KernelOp::OneQDiag(d) => Matrix::diag(d),
            KernelOp::ControlledOneQ(u) => {
                let mut m = Matrix::identity(4);
                m[(1, 1)] = u[0];
                m[(1, 3)] = u[1];
                m[(3, 1)] = u[2];
                m[(3, 3)] = u[3];
                m
            }
            KernelOp::PhaseAllOnes(p) => {
                let mut m = Matrix::identity(dim);
                m[(dim - 1, dim - 1)] = *p;
                m
            }
            KernelOp::ControlledX => {
                let mut m = Matrix::identity(dim);
                let a = (dim >> 1) - 1; // all controls set, target clear
                let b = dim - 1;
                m[(a, a)] = C64::ZERO;
                m[(b, b)] = C64::ZERO;
                m[(a, b)] = C64::ONE;
                m[(b, a)] = C64::ONE;
                m
            }
            KernelOp::Swap => {
                let mut m = Matrix::zeros(4, 4);
                m[(0, 0)] = C64::ONE;
                m[(3, 3)] = C64::ONE;
                m[(1, 2)] = C64::ONE;
                m[(2, 1)] = C64::ONE;
                m
            }
            KernelOp::Permutation(perm) => {
                let mut m = Matrix::zeros(dim, dim);
                for (l, &p) in perm.iter().enumerate() {
                    m[(p, l)] = C64::ONE;
                }
                m
            }
            KernelOp::Dense(m) => (*m).clone(),
        }
    }

    #[test]
    fn kernel_classification_matches_matrix_for_every_gate() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::U1(0.3),
            Gate::U2(0.1, 0.9),
            Gate::U3(1.1, 0.2, -0.4),
            Gate::Cx,
            Gate::Cz,
            Gate::Cp(1.0),
            Gate::Swap,
            Gate::SwapZ,
            Gate::Ccx,
            Gate::Cswap,
            Gate::Mcx(3),
            Gate::Mcz(3),
            Gate::Cu(Gate::T.matrix().unwrap()),
            Gate::Unitary(Gate::Swap.matrix().unwrap()),
        ];
        for g in &gates {
            let op = g.kernel().unwrap_or_else(|| panic!("{g} has no kernel"));
            let dense = kernel_to_matrix(&op, g.num_qubits());
            assert!(
                dense.approx_eq(&g.matrix().unwrap(), 1e-12),
                "kernel/matrix mismatch for {g}"
            );
        }
        for g in [
            Gate::Reset,
            Gate::Measure,
            Gate::Barrier(2),
            Gate::Annot(0.1, 0.2),
        ] {
            assert!(g.kernel().is_none(), "{g} must have no kernel");
        }
    }

    #[test]
    fn matrix2x2_matches_matrix_for_one_qubit_gates() {
        let gates = vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.5),
            Gate::U1(0.3),
            Gate::U2(0.1, 0.9),
            Gate::U3(1.1, 0.2, -0.4),
        ];
        for g in &gates {
            let [a, b, c, d] = g.matrix2x2().unwrap_or_else(|| panic!("{g} is 1q"));
            let m = g.matrix().unwrap();
            assert!(
                (m[(0, 0)] - a).norm() < 1e-15
                    && (m[(0, 1)] - b).norm() < 1e-15
                    && (m[(1, 0)] - c).norm() < 1e-15
                    && (m[(1, 1)] - d).norm() < 1e-15,
                "matrix2x2 mismatch for {g}"
            );
        }
        assert!(Gate::Cx.matrix2x2().is_none());
        assert!(Gate::Reset.matrix2x2().is_none());
        assert!(Gate::Annot(0.0, 0.0).matrix2x2().is_none());
    }

    #[test]
    fn matrix2x2_covers_one_qubit_unitary_blocks() {
        // A 1-qubit Gate::Unitary (the Unroller synthesizes these) must
        // expose its 2×2 like any other 1q gate; larger blocks must not.
        let g = Gate::Unitary(Gate::H.matrix().unwrap());
        let [a, b, c, d] = g.matrix2x2().expect("1q unitary block has a 2×2");
        let r = FRAC_1_SQRT_2;
        assert!((a - C64::real(r)).norm() < 1e-15 && (b - C64::real(r)).norm() < 1e-15);
        assert!((c - C64::real(r)).norm() < 1e-15 && (d - C64::real(-r)).norm() < 1e-15);
        assert!(Gate::Unitary(Gate::Cx.matrix().unwrap())
            .matrix2x2()
            .is_none());
    }

    #[test]
    fn inverses_compose_to_identity() {
        let gates = vec![
            Gate::S,
            Gate::T,
            Gate::Rx(0.7),
            Gate::U2(0.1, 0.9),
            Gate::U3(1.1, 0.2, -0.4),
            Gate::Cp(1.0),
            Gate::Cu(Gate::S.matrix().unwrap()),
        ];
        for g in gates {
            let inv = g.inverse().expect("invertible");
            let prod = inv.matrix().unwrap().matmul(&g.matrix().unwrap());
            let id = Matrix::identity(prod.rows());
            assert!(
                prod.equal_up_to_global_phase(&id, 1e-10),
                "{g} inverse failed: {prod:?}"
            );
        }
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h = Gate::H.matrix().unwrap();
        assert!(h.matmul(&h).approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn cx_truth_table() {
        let cx = Gate::Cx.matrix().unwrap();
        // |c=1,t=0⟩ (index 1) → |c=1,t=1⟩ (index 3)
        let v = cx.apply(&[C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO]);
        assert!(v[3].approx_eq(C64::ONE, 1e-12));
        // |c=0,t=1⟩ (index 2) fixed
        let v = cx.apply(&[C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO]);
        assert!(v[2].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn swap_decomposition_identity() {
        // SWAP = CX₀₁ · CX₁₀ · CX₀₁
        let cx01 = Gate::Cx.matrix().unwrap();
        let mut cx10 = Matrix::zeros(4, 4);
        cx10[(0, 0)] = C64::ONE;
        cx10[(1, 1)] = C64::ONE;
        cx10[(2, 3)] = C64::ONE;
        cx10[(3, 2)] = C64::ONE;
        let swap = cx01.matmul(&cx10).matmul(&cx01);
        assert!(swap.approx_eq(&Gate::Swap.matrix().unwrap(), 1e-12));
    }

    #[test]
    fn swapz_equals_swap_on_zero_first_qubit() {
        // SWAPZ(q0, q1) must act like SWAP whenever q0 = |0⟩ (Eq. 4).
        let swapz = Gate::SwapZ.matrix().unwrap();
        let swap = Gate::Swap.matrix().unwrap();
        // Input |q1=ψ⟩⊗|q0=0⟩: amplitudes at indices with bit0 = 0.
        for q1 in [C64::real(0.6), C64::new(0.0, 0.8)] {
            let mut v = vec![C64::ZERO; 4];
            v[0] = C64::ONE - q1.scale(1.0); // α|q1=0⟩
            v[2] = q1; // β|q1=1⟩ (bit1 set, bit0 clear)
            let a = swapz.apply(&v);
            let b = swap.apply(&v);
            for (x, y) in a.iter().zip(&b) {
                assert!(x.approx_eq(*y, 1e-12), "SWAPZ≠SWAP on |ψ,0⟩");
            }
        }
    }

    #[test]
    fn swapz_differs_from_swap_generally() {
        let swapz = Gate::SwapZ.matrix().unwrap();
        let swap = Gate::Swap.matrix().unwrap();
        assert!(!swapz.approx_eq(&swap, 1e-6));
    }

    #[test]
    fn toffoli_flips_only_when_both_controls_set() {
        let ccx = Gate::Ccx.matrix().unwrap();
        // |c₁=1, c₂=1, t=0⟩ = index 3 → index 7.
        let mut v = vec![C64::ZERO; 8];
        v[3] = C64::ONE;
        let out = ccx.apply(&v);
        assert!(out[7].approx_eq(C64::ONE, 1e-12));
        // |c₁=1, c₂=0, t=0⟩ = index 1 fixed.
        let mut v = vec![C64::ZERO; 8];
        v[1] = C64::ONE;
        let out = ccx.apply(&v);
        assert!(out[1].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn mcx_matches_ccx_for_two_controls() {
        assert!(Gate::Mcx(2)
            .matrix()
            .unwrap()
            .approx_eq(&Gate::Ccx.matrix().unwrap(), 1e-12));
    }

    #[test]
    fn mcz_phase_on_all_ones() {
        let m = Gate::Mcz(2).matrix().unwrap();
        assert!(m[(7, 7)].approx_eq(C64::real(-1.0), 1e-12));
        assert!(m[(0, 0)].approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn u_family_consistency() {
        // u2(φ,λ) = u3(π/2,φ,λ); u1(λ) = u3(0,0,λ) up to global phase.
        let u2 = Gate::U2(0.4, 1.3).matrix().unwrap();
        let u3 = Gate::U3(FRAC_PI_2, 0.4, 1.3).matrix().unwrap();
        assert!(u2.approx_eq(&u3, 1e-12));
        let u1 = Gate::U1(0.8).matrix().unwrap();
        let u3 = Gate::U3(0.0, 0.0, 0.8).matrix().unwrap();
        assert!(u1.equal_up_to_global_phase(&u3, 1e-12));
    }

    #[test]
    fn rz_vs_u1_global_phase() {
        let rz = Gate::Rz(0.9).matrix().unwrap();
        let u1 = Gate::U1(0.9).matrix().unwrap();
        assert!(rz.equal_up_to_global_phase(&u1, 1e-12));
        assert!(!rz.approx_eq(&u1, 1e-12));
    }

    #[test]
    fn basis_state_bloch_round_trip() {
        for s in [
            BasisState::Zero,
            BasisState::One,
            BasisState::Plus,
            BasisState::Minus,
            BasisState::Left,
            BasisState::Right,
        ] {
            let (t, p) = s.bloch_angles();
            assert_eq!(BasisState::from_bloch_angles(t, p, 1e-9), Some(s));
        }
        // A non-basis state maps to None.
        assert_eq!(BasisState::from_bloch_angles(0.3, 0.0, 1e-9), None);
    }

    #[test]
    fn basis_state_vectors_normalized() {
        for s in [
            BasisState::Zero,
            BasisState::One,
            BasisState::Plus,
            BasisState::Minus,
            BasisState::Left,
            BasisState::Right,
        ] {
            let [a, b] = s.state_vector();
            assert!((a.norm_sqr() + b.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn directive_and_arity_metadata() {
        assert!(Gate::Barrier(3).is_directive());
        assert!(Gate::Annot(0.0, 0.0).is_directive());
        assert!(!Gate::Reset.is_directive());
        assert!(!Gate::Reset.is_unitary_gate());
        assert_eq!(Gate::Mcx(4).num_qubits(), 5);
        assert_eq!(Gate::Barrier(7).num_qubits(), 7);
        assert_eq!(Gate::Unitary(Matrix::identity(8)).num_qubits(), 3);
    }
}
