//! Static single-qubit state analyses (paper Section VI).
//!
//! Two abstract domains are tracked per qubit:
//!
//! * **Basis states** (Fig. 5): one of the six basis states |0⟩, |1⟩, |+⟩,
//!   |−⟩, |L⟩, |R⟩, or the unknown state ⊤. Rather than hand-coding the
//!   automaton's edges, transitions are *derived*: apply the gate's 2×2
//!   matrix to the state vector and recognize the result (up to global
//!   phase). This reproduces every half/quarter-turn edge in Fig. 5 and is
//!   automatically exact for arbitrary u-gates.
//! * **Pure states** (Fig. 6): Bloch parameters `(θ, φ)` with
//!   |ψ⟩ = cos(θ/2)|0⟩ + e^{iφ}sin(θ/2)|1⟩, or ⊤ once the qubit may be
//!   entangled. Applying a single-qubit gate updates the parameters exactly
//!   (the paper's u3-merging, Section VI-B).
//!
//! Both analyses handle `RESET` (→ |0⟩), `ANNOT(θ, φ)` (→ asserted state),
//! and state swaps for SWAP/valid-SWAPZ gates; every other multi-qubit gate
//! conservatively sends its qubits to ⊤.

use qc_circuit::{BasisState, Gate};
use qc_math::{apply_2x2, Matrix, C64};

/// Tolerance for recognizing basis states and eigenstates.
pub const STATE_EPS: f64 = 1e-9;

/// Abstract basis-state domain: a known basis state or ⊤.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BasisTracked {
    /// The qubit is in this basis state (up to global phase).
    Known(BasisState),
    /// Unknown / possibly entangled.
    Top,
}

impl BasisTracked {
    /// The known state, if any.
    pub fn known(self) -> Option<BasisState> {
        match self {
            BasisTracked::Known(b) => Some(b),
            BasisTracked::Top => None,
        }
    }
}

/// Abstract pure-state domain: Bloch parameters or ⊤.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PureTracked {
    /// The qubit is in the pure state `(θ, φ)` up to global phase.
    Pure {
        /// Polar Bloch angle θ ∈ [0, π].
        theta: f64,
        /// Azimuthal Bloch angle φ.
        phi: f64,
    },
    /// Unknown / possibly entangled.
    Top,
}

impl PureTracked {
    /// The ground state |0⟩.
    pub fn zero() -> Self {
        PureTracked::Pure {
            theta: 0.0,
            phi: 0.0,
        }
    }

    /// The state vector, when known.
    pub fn state_vector(self) -> Option<[C64; 2]> {
        match self {
            PureTracked::Pure { theta, phi } => Some(bloch_to_vector(theta, phi)),
            PureTracked::Top => None,
        }
    }

    /// Whether this is a known pure state.
    pub fn is_pure(self) -> bool {
        matches!(self, PureTracked::Pure { .. })
    }
}

/// Converts Bloch angles to the canonical state vector.
pub fn bloch_to_vector(theta: f64, phi: f64) -> [C64; 2] {
    [
        C64::real((theta / 2.0).cos()),
        C64::cis(phi).scale((theta / 2.0).sin()),
    ]
}

/// Extracts Bloch angles from a (normalized) single-qubit state vector,
/// discarding global phase.
pub fn vector_to_bloch(v: &[C64; 2]) -> (f64, f64) {
    let theta = 2.0 * v[1].norm().atan2(v[0].norm());
    let phi = if v[1].norm() < STATE_EPS || v[0].norm() < STATE_EPS {
        0.0
    } else {
        v[1].arg() - v[0].arg()
    };
    (theta, phi)
}

/// Recognizes which basis state (if any) a state vector is, up to phase.
pub fn recognize_basis(v: &[C64; 2]) -> Option<BasisState> {
    let all = [
        BasisState::Zero,
        BasisState::One,
        BasisState::Plus,
        BasisState::Minus,
        BasisState::Left,
        BasisState::Right,
    ];
    all.into_iter().find(|b| {
        let s = b.state_vector();
        let overlap = s[0].conj() * v[0] + s[1].conj() * v[1];
        (overlap.norm() - 1.0).abs() < STATE_EPS
    })
}

/// If `m · v = λ·v`, returns the eigenvalue λ; `None` otherwise.
pub fn eigenphase_of(m: &Matrix, v: &[C64; 2]) -> Option<C64> {
    eigenphase_of_2x2(&[m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]], v)
}

/// [`eigenphase_of`] on a stack 2×2 (row-major), avoiding the heap matrix —
/// the form fed by [`qc_circuit::Gate::matrix2x2`] in the per-instruction
/// QBO scan.
pub fn eigenphase_of_2x2(m: &[C64; 4], v: &[C64; 2]) -> Option<C64> {
    let out = apply_2x2(m, v);
    let overlap = v[0].conj() * out[0] + v[1].conj() * out[1];
    if (overlap.norm() - 1.0).abs() < STATE_EPS {
        Some(overlap.scale(1.0 / overlap.norm()))
    } else {
        None
    }
}

/// Joint per-qubit state analysis: basis and pure domains evolved together
/// over a circuit's instructions.
#[derive(Clone, Debug)]
pub struct StateAnalysis {
    basis: Vec<BasisTracked>,
    pure: Vec<PureTracked>,
}

impl StateAnalysis {
    /// All qubits start in the ground state |0⟩ (quantum processors
    /// initialize in the lowest-energy state — Section VI-A).
    pub fn new(num_qubits: usize) -> Self {
        StateAnalysis {
            basis: vec![BasisTracked::Known(BasisState::Zero); num_qubits],
            pure: vec![PureTracked::zero(); num_qubits],
        }
    }

    /// The basis-domain state of a qubit.
    pub fn basis(&self, q: usize) -> BasisTracked {
        self.basis[q]
    }

    /// The pure-domain state of a qubit.
    pub fn pure_state(&self, q: usize) -> PureTracked {
        self.pure[q]
    }

    /// Forces a qubit to a known pure state (used by `ANNOT` and rewrites
    /// that compute the post-state explicitly).
    pub fn set_pure(&mut self, q: usize, theta: f64, phi: f64) {
        self.pure[q] = PureTracked::Pure { theta, phi };
        let v = bloch_to_vector(theta, phi);
        self.basis[q] = match recognize_basis(&v) {
            Some(b) => BasisTracked::Known(b),
            None => BasisTracked::Top,
        };
    }

    /// Sends a qubit to ⊤ in both domains.
    pub fn set_top(&mut self, q: usize) {
        self.basis[q] = BasisTracked::Top;
        self.pure[q] = PureTracked::Top;
    }

    /// Applies one instruction's transfer function.
    ///
    /// `swapz_acts_as_swap` reflects whether a SWAPZ's precondition (first
    /// argument in |0⟩) is known to hold; the QBO pass guarantees this by
    /// decomposing invalid SWAPZ gates before they reach the analyses.
    pub fn transition(&mut self, gate: &Gate, qubits: &[usize]) {
        match gate {
            Gate::Barrier(_) => {}
            Gate::Measure => {
                // Post-measurement the qubit is a classical mixture of
                // |0⟩/|1⟩ — not a *known* state.
                self.set_top(qubits[0]);
            }
            Gate::Reset => self.set_pure(qubits[0], 0.0, 0.0),
            Gate::Annot(theta, phi) => self.set_pure(qubits[0], *theta, *phi),
            Gate::Swap => {
                self.basis.swap(qubits[0], qubits[1]);
                self.pure.swap(qubits[0], qubits[1]);
            }
            Gate::SwapZ => {
                // Valid only when arg0 is |0⟩; the QBO pass enforces this.
                // If the precondition is not visible here, be conservative.
                if self.basis[qubits[0]] == BasisTracked::Known(BasisState::Zero) {
                    self.basis.swap(qubits[0], qubits[1]);
                    self.pure.swap(qubits[0], qubits[1]);
                } else {
                    self.set_top(qubits[0]);
                    self.set_top(qubits[1]);
                }
            }
            g if g.num_qubits() == 1 && g.is_unitary_gate() => {
                let q = qubits[0];
                // Stack 2×2 — the analysis runs once per instruction, so
                // avoid Gate::matrix()'s heap allocation.
                let m = g.matrix2x2().expect("unitary 1q gate has a 2×2 matrix");
                // Pure domain: exact Bloch update.
                if let Some(v) = self.pure[q].state_vector() {
                    let out = apply_2x2(&m, &v);
                    let (theta, phi) = vector_to_bloch(&out);
                    self.pure[q] = PureTracked::Pure { theta, phi };
                } else {
                    self.pure[q] = PureTracked::Top;
                }
                // Basis domain: recognize the image.
                self.basis[q] = match self.basis[q] {
                    BasisTracked::Known(b) => {
                        let v = b.state_vector();
                        let out = apply_2x2(&m, &v);
                        match recognize_basis(&out) {
                            Some(nb) => BasisTracked::Known(nb),
                            None => BasisTracked::Top,
                        }
                    }
                    BasisTracked::Top => {
                        // The pure domain may still recognize a basis state
                        // (e.g. after an ANNOT then rotations).
                        match self.pure[q] {
                            PureTracked::Pure { theta, phi } => {
                                match recognize_basis(&bloch_to_vector(theta, phi)) {
                                    Some(nb) => BasisTracked::Known(nb),
                                    None => BasisTracked::Top,
                                }
                            }
                            PureTracked::Top => BasisTracked::Top,
                        }
                    }
                };
            }
            _ => {
                // Any other multi-qubit gate may entangle its qubits.
                for &q in qubits {
                    self.set_top(q);
                }
            }
        }
    }
}

/// Finds a short gate sequence (length ≤ 2 from {X, Y, Z, H, S, S†})
/// mapping basis state `from` to basis state `to` up to global phase.
/// Returned in circuit (time) order. The pair (|0⟩→|−⟩ etc.) always exists.
pub fn basis_transform_gates(from: BasisState, to: BasisState) -> Vec<Gate> {
    if from == to {
        return Vec::new();
    }
    let pool = [Gate::X, Gate::Y, Gate::Z, Gate::H, Gate::S, Gate::Sdg];
    let fv = from.state_vector();
    let maps = |gates: &[&Gate]| -> bool {
        let mut v = fv;
        for g in gates {
            let m = g.matrix2x2().expect("pool gates are unitary 1q");
            v = apply_2x2(&m, &v);
        }
        recognize_basis(&v) == Some(to)
    };
    for g in &pool {
        if maps(&[g]) {
            return vec![g.clone()];
        }
    }
    for g1 in &pool {
        for g2 in &pool {
            if maps(&[g1, g2]) {
                return vec![g1.clone(), g2.clone()];
            }
        }
    }
    unreachable!("any two basis states are connected by at most two Clifford gates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::BasisState::*;

    fn known(b: BasisState) -> BasisTracked {
        BasisTracked::Known(b)
    }

    #[test]
    fn automaton_matches_figure_5_edges() {
        // Spot-check the paper's Fig. 5: H moves Z-basis ↔ X-basis,
        // S rotates the equator, X flips within bases.
        let cases = [
            (Zero, Gate::H, Some(Plus)),
            (Plus, Gate::H, Some(Zero)),
            (One, Gate::H, Some(Minus)),
            (Plus, Gate::S, Some(Left)),
            (Left, Gate::S, Some(Minus)),
            (Minus, Gate::S, Some(Right)),
            (Right, Gate::S, Some(Plus)),
            (Left, Gate::Sdg, Some(Plus)),
            (Zero, Gate::X, Some(One)),
            (One, Gate::X, Some(Zero)),
            (Plus, Gate::X, Some(Plus)),
            (Minus, Gate::X, Some(Minus)),
            (Left, Gate::X, Some(Right)),
            (Zero, Gate::Y, Some(One)),
            (Plus, Gate::Z, Some(Minus)),
            (Left, Gate::Z, Some(Right)),
            (Zero, Gate::T, Some(Zero)),
            (One, Gate::T, Some(One)),
            (Plus, Gate::T, None), // quarter-equator turn leaves the basis set
            (Zero, Gate::Rx(0.3), None),
        ];
        for (start, gate, expect) in cases {
            let mut a = StateAnalysis::new(1);
            // Drive qubit 0 into `start` via a preparation transform.
            for g in basis_transform_gates(Zero, start) {
                a.transition(&g, &[0]);
            }
            assert_eq!(a.basis(0), known(start), "prep failed for {start:?}");
            a.transition(&gate, &[0]);
            let want = match expect {
                Some(b) => known(b),
                None => BasisTracked::Top,
            };
            assert_eq!(a.basis(0), want, "{start:?} --{gate}--> wrong");
        }
    }

    #[test]
    fn pure_analysis_tracks_rotations_exactly() {
        let mut a = StateAnalysis::new(1);
        a.transition(&Gate::Ry(0.7), &[0]);
        match a.pure_state(0) {
            PureTracked::Pure { theta, phi } => {
                assert!((theta - 0.7).abs() < 1e-12);
                assert!(phi.abs() < 1e-12);
            }
            PureTracked::Top => panic!("should stay pure"),
        }
        a.transition(&Gate::Rz(1.1), &[0]);
        match a.pure_state(0) {
            PureTracked::Pure { theta, phi } => {
                assert!((theta - 0.7).abs() < 1e-12);
                assert!((phi - 1.1).abs() < 1e-12);
            }
            PureTracked::Top => panic!("should stay pure"),
        }
    }

    #[test]
    fn pure_analysis_matches_u3_composition() {
        // The paper's u3-merging rule: tracking through u3 gates equals
        // preparing with a single merged u3.
        let mut a = StateAnalysis::new(1);
        let g1 = Gate::U3(0.9, 0.2, -0.4);
        let g2 = Gate::U3(1.4, -1.0, 0.3);
        a.transition(&g1, &[0]);
        a.transition(&g2, &[0]);
        let v = a.pure_state(0).state_vector().expect("pure");
        let direct = g2
            .matrix()
            .unwrap()
            .matmul(&g1.matrix().unwrap())
            .apply(&[C64::ONE, C64::ZERO]);
        let overlap = v[0].conj() * direct[0] + v[1].conj() * direct[1];
        assert!((overlap.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cx_sends_to_top_but_swap_permutes() {
        let mut a = StateAnalysis::new(2);
        a.transition(&Gate::H, &[0]);
        a.transition(&Gate::Swap, &[0, 1]);
        assert_eq!(a.basis(1), known(Plus));
        assert_eq!(a.basis(0), known(Zero));
        a.transition(&Gate::Cx, &[0, 1]);
        assert_eq!(a.basis(0), BasisTracked::Top);
        assert_eq!(a.basis(1), BasisTracked::Top);
    }

    #[test]
    fn swapz_with_zero_precondition_permutes() {
        let mut a = StateAnalysis::new(2);
        a.transition(&Gate::H, &[1]);
        a.transition(&Gate::SwapZ, &[0, 1]); // arg0 is |0⟩ ⇒ acts as swap
        assert_eq!(a.basis(0), known(Plus));
        assert_eq!(a.basis(1), known(Zero));
        // Invalid SWAPZ is conservative.
        let mut a = StateAnalysis::new(2);
        a.transition(&Gate::X, &[0]);
        a.transition(&Gate::SwapZ, &[0, 1]);
        assert_eq!(a.basis(0), BasisTracked::Top);
    }

    #[test]
    fn reset_and_annot_recover_states() {
        let mut a = StateAnalysis::new(1);
        a.transition(&Gate::Cx, &[0]); // wrong arity would panic; use measure
        let mut a2 = StateAnalysis::new(2);
        a2.transition(&Gate::Cx, &[0, 1]);
        assert_eq!(a2.basis(0), BasisTracked::Top);
        a2.transition(&Gate::Reset, &[0]);
        assert_eq!(a2.basis(0), known(Zero));
        a2.transition(&Gate::Annot(std::f64::consts::PI, 0.0), &[1]);
        assert_eq!(a2.basis(1), known(One));
        // A non-basis annotation is pure but ⊤ in the basis domain.
        a2.transition(&Gate::Annot(0.3, 0.1), &[1]);
        assert_eq!(a2.basis(1), BasisTracked::Top);
        assert!(a2.pure_state(1).is_pure());
        let _ = a;
    }

    #[test]
    fn measure_degrades_to_top() {
        let mut a = StateAnalysis::new(1);
        a.transition(&Gate::H, &[0]);
        a.transition(&Gate::Measure, &[0]);
        assert_eq!(a.basis(0), BasisTracked::Top);
        assert!(!a.pure_state(0).is_pure());
    }

    #[test]
    fn basis_transform_gates_cover_all_pairs() {
        let all = [Zero, One, Plus, Minus, Left, Right];
        for from in all {
            for to in all {
                let gates = basis_transform_gates(from, to);
                assert!(gates.len() <= 2);
                // Verify by applying.
                let mut v = from.state_vector().to_vec();
                for g in &gates {
                    v = g.matrix().unwrap().apply(&v);
                }
                assert_eq!(
                    recognize_basis(&[v[0], v[1]]),
                    Some(to),
                    "{from:?} → {to:?} via {gates:?}"
                );
            }
        }
    }

    #[test]
    fn annotation_then_rotation_can_recover_basis() {
        // ANNOT(0.3, 0.1) is pure but not basis; rotating it back to the
        // pole must re-enter the basis domain.
        let mut a = StateAnalysis::new(1);
        a.transition(&Gate::Cz, &[0]); // no-op arity guard not needed; use 2q on 1q? skip
        let mut a = StateAnalysis::new(1);
        a.transition(&Gate::Annot(0.3, 0.0), &[0]);
        assert_eq!(a.basis(0), BasisTracked::Top);
        a.transition(&Gate::Ry(-0.3), &[0]);
        assert_eq!(a.basis(0), known(Zero));
    }

    #[test]
    fn eigenphase_detection() {
        let x = Gate::X.matrix().unwrap();
        let plus = Plus.state_vector();
        let minus = Minus.state_vector();
        let zero = Zero.state_vector();
        assert!(eigenphase_of(&x, &plus).unwrap().approx_eq(C64::ONE, 1e-9));
        assert!(eigenphase_of(&x, &minus)
            .unwrap()
            .approx_eq(C64::real(-1.0), 1e-9));
        assert!(eigenphase_of(&x, &zero).is_none());
    }
}
