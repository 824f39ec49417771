//! Toffoli and Fredkin decompositions, and the controlled-U CNOT bound.
//!
//! The paper's Fredkin optimization (Eq. 9) relies on the Song–Klappenecker
//! bound: a controlled single-qubit unitary costs at most two CNOTs and four
//! single-qubit gates. No dedicated synthesizer is needed for it: a
//! controlled-U always lies in a single-parameter Weyl class `(t, 0, 0)`,
//! so [`synthesize_two_qubit`](crate::synthesize_two_qubit) on the matrix
//! of a [`Gate::Cu`](qc_circuit::Gate::Cu) produces ≤ 2 CNOTs (one for the
//! CZ-like subfamily, zero for near-identities). This module's tests pin
//! that bound.

use qc_circuit::Circuit;

/// The standard six-CNOT Toffoli decomposition (Shende & Markov show six is
/// optimal, the bound the paper uses when costing Fredkin gates).
///
/// Qubit layout: 0 and 1 are controls, 2 is the target.
pub fn toffoli_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(2)
        .cx(1, 2)
        .tdg(2)
        .cx(0, 2)
        .t(2)
        .cx(1, 2)
        .tdg(2)
        .cx(0, 2)
        .t(1)
        .t(2)
        .h(2)
        .cx(0, 1)
        .t(0)
        .tdg(1)
        .cx(0, 1);
    c
}

/// Fredkin (controlled-SWAP) decomposition into two CNOTs and one Toffoli
/// (paper Fig. 14); after Toffoli expansion this is the eight-CNOT design the
/// paper costs against.
///
/// Qubit layout: 0 is the control, 1 and 2 are the swap targets. The Toffoli
/// is left as a [`Gate::Ccx`](qc_circuit::Gate::Ccx) for downstream
/// unrolling.
pub fn fredkin_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.cx(2, 1).ccx(0, 1, 2).cx(2, 1);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weyl::synthesize_two_qubit;
    use qc_circuit::{circuit_unitary, embed, Gate};
    use qc_math::{haar_unitary, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The controlled-`u` gate (qubit 0 = control, qubit 1 = target)
    /// through the two-qubit synthesizer.
    fn controlled_u(u: Matrix) -> Circuit {
        synthesize_two_qubit(&Gate::Cu(u).matrix().unwrap())
    }

    #[test]
    fn toffoli_matches_ccx() {
        let u = circuit_unitary(&toffoli_circuit());
        let ccx = embed(&Gate::Ccx.matrix().unwrap(), &[0, 1, 2], 3);
        assert!(u.equal_up_to_global_phase(&ccx, 1e-9));
        assert_eq!(toffoli_circuit().gate_counts().cx, 6);
    }

    #[test]
    fn fredkin_matches_cswap() {
        let u = circuit_unitary(&fredkin_circuit());
        let cswap = embed(&Gate::Cswap.matrix().unwrap(), &[0, 1, 2], 3);
        assert!(u.equal_up_to_global_phase(&cswap, 1e-9));
    }

    #[test]
    fn controlled_u_uses_at_most_two_cnots() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let want = Gate::Cu(haar_unitary(2, &mut rng)).matrix().unwrap();
            let circ = synthesize_two_qubit(&want);
            assert!(circ.gate_counts().cx <= 2, "too many CNOTs");
            let got = circuit_unitary(&circ);
            assert!(got.equal_up_to_global_phase(&want, 1e-7));
        }
    }

    #[test]
    fn controlled_z_needs_one_cnot() {
        let circ = controlled_u(Gate::Z.matrix().unwrap());
        assert_eq!(circ.gate_counts().cx, 1);
    }

    #[test]
    fn controlled_identity_needs_no_cnot() {
        let circ = controlled_u(Matrix::identity(2));
        assert_eq!(circ.gate_counts().cx, 0);
    }

    #[test]
    fn controlled_phase_matrix_is_cu_of_u1() {
        // Sanity: the CU of u1(λ) equals the Cp(λ) gate.
        let l = 0.9;
        let cu = Gate::Cu(Gate::U1(l).matrix().unwrap()).matrix().unwrap();
        let cp = Gate::Cp(l).matrix().unwrap();
        assert!(cu.approx_eq(&cp, 1e-12));
        let circ = controlled_u(Gate::U1(l).matrix().unwrap());
        let got = circuit_unitary(&circ);
        assert!(got.equal_up_to_global_phase(&cp, 1e-8));
    }

    #[test]
    fn controlled_x_is_plain_cnot_class() {
        let circ = controlled_u(Gate::X.matrix().unwrap());
        assert_eq!(circ.gate_counts().cx, 1);
        let got = circuit_unitary(&circ);
        // Cu(X) with control bit 0, target bit 1 = CX(0→1).
        let want = embed(&Gate::Cx.matrix().unwrap(), &[0, 1], 2);
        assert!(got.equal_up_to_global_phase(&want, 1e-8));
    }
}
