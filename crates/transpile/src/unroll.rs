//! The `Unroller` pass: decompose gates into a target basis.
//!
//! IBM devices of the paper's era support the basis `{u1, u2, u3, id, cx}`;
//! the RPO pipeline additionally runs an unroll into the *extended* basis
//! that keeps `swap` and `swapz` intact so the QPO pass can reason about
//! them (Fig. 8, line 6).

use crate::{Pass, TranspileError};
use qc_circuit::{Circuit, Gate, Instruction};
use qc_synth::{
    controlled_u_circuit, fredkin_circuit, matrix_to_u3_gate, mcx_no_ancilla, mcz_circuit,
    synthesize_two_qubit, toffoli_circuit,
};
use std::collections::HashSet;
use std::f64::consts::{FRAC_PI_2, PI};

/// The device basis used throughout the paper: `u1, u2, u3, id, cx`.
pub fn device_basis() -> HashSet<&'static str> {
    ["u1", "u2", "u3", "id", "cx"].into_iter().collect()
}

/// The device basis extended with `swap` and `swapz`, used right before the
/// QPO pass.
pub fn extended_basis() -> HashSet<&'static str> {
    ["u1", "u2", "u3", "id", "cx", "swap", "swapz"]
        .into_iter()
        .collect()
}

/// Decomposes every gate outside `basis` into basis gates.
pub struct Unroller {
    basis: HashSet<&'static str>,
}

impl Unroller {
    /// Creates an unroller targeting the given basis (gate names).
    pub fn new(basis: HashSet<&'static str>) -> Self {
        Unroller { basis }
    }

    /// Unroller for the standard device basis.
    pub fn to_device_basis() -> Self {
        Unroller::new(device_basis())
    }

    /// Unroller for the swap-preserving extended basis.
    pub fn to_extended_basis() -> Self {
        Unroller::new(extended_basis())
    }

    /// Decomposes one instruction into basis gates, or `None` when it is
    /// already in the basis (or non-unitary). The shared core of both the
    /// circuit-level pass and the DAG-native pass.
    pub fn expand(&self, inst: &Instruction) -> Result<Option<Vec<Instruction>>, TranspileError> {
        // Non-unitary instructions and directives always pass through.
        if matches!(
            inst.gate,
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _)
        ) || self.basis.contains(inst.gate.name())
        {
            return Ok(None);
        }
        let mut out = Vec::new();
        self.rewrite(inst, &mut out)?;
        Ok(Some(out))
    }

    fn rewrite(
        &self,
        inst: &Instruction,
        out: &mut Vec<Instruction>,
    ) -> Result<bool, TranspileError> {
        let q = &inst.qubits;
        // Non-unitary instructions and directives always pass through.
        if matches!(
            inst.gate,
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _)
        ) {
            out.push(inst.clone());
            return Ok(false);
        }
        if self.basis.contains(inst.gate.name()) {
            out.push(inst.clone());
            return Ok(false);
        }
        let mut push = |gate: Gate, qubits: Vec<usize>| out.push(Instruction::new(gate, qubits));
        match &inst.gate {
            Gate::I => push(Gate::U1(0.0), vec![q[0]]),
            Gate::X => push(Gate::U3(PI, 0.0, PI), vec![q[0]]),
            Gate::Y => push(Gate::U3(PI, FRAC_PI_2, FRAC_PI_2), vec![q[0]]),
            Gate::Z => push(Gate::U1(PI), vec![q[0]]),
            Gate::H => push(Gate::U2(0.0, PI), vec![q[0]]),
            Gate::S => push(Gate::U1(FRAC_PI_2), vec![q[0]]),
            Gate::Sdg => push(Gate::U1(-FRAC_PI_2), vec![q[0]]),
            Gate::T => push(Gate::U1(PI / 4.0), vec![q[0]]),
            Gate::Tdg => push(Gate::U1(-PI / 4.0), vec![q[0]]),
            Gate::Rx(t) => push(Gate::U3(*t, -FRAC_PI_2, FRAC_PI_2), vec![q[0]]),
            Gate::Ry(t) => push(Gate::U3(*t, 0.0, 0.0), vec![q[0]]),
            Gate::Rz(t) => push(Gate::U1(*t), vec![q[0]]),
            Gate::U1(l) => push(Gate::U3(0.0, 0.0, *l), vec![q[0]]),
            Gate::U2(p, l) => push(Gate::U3(FRAC_PI_2, *p, *l), vec![q[0]]),
            Gate::U3(..) => return Err(TranspileError::unsupported_gate("basis must include u3")),
            Gate::Cx => push(Gate::Cx, vec![q[0], q[1]]),
            Gate::Cz => {
                push(Gate::H, vec![q[1]]);
                push(Gate::Cx, vec![q[0], q[1]]);
                push(Gate::H, vec![q[1]]);
            }
            Gate::Cp(l) => {
                push(Gate::U1(l / 2.0), vec![q[0]]);
                push(Gate::Cx, vec![q[0], q[1]]);
                push(Gate::U1(-l / 2.0), vec![q[1]]);
                push(Gate::Cx, vec![q[0], q[1]]);
                push(Gate::U1(l / 2.0), vec![q[1]]);
            }
            Gate::Swap => {
                push(Gate::Cx, vec![q[0], q[1]]);
                push(Gate::Cx, vec![q[1], q[0]]);
                push(Gate::Cx, vec![q[0], q[1]]);
            }
            Gate::SwapZ => {
                // Definition Eq. 3: cx(other→qz) then cx(qz→other).
                push(Gate::Cx, vec![q[1], q[0]]);
                push(Gate::Cx, vec![q[0], q[1]]);
            }
            Gate::Ccx => compose_onto(out, &toffoli_circuit(), q),
            Gate::Cswap => compose_onto(out, &fredkin_circuit(), q),
            Gate::Mcx(n) => compose_onto(out, &mcx_no_ancilla(*n), q),
            Gate::Mcz(n) => compose_onto(out, &mcz_circuit(*n), q),
            Gate::Cu(u) => compose_onto(out, &controlled_u_circuit(u), q),
            Gate::Unitary(m) => match inst.qubits.len() {
                1 => push(matrix_to_u3_gate(m), vec![q[0]]),
                2 => compose_onto(out, &synthesize_two_qubit(m), q),
                n => {
                    return Err(TranspileError::unsupported_gate(format!(
                        "{n}-qubit unitary block"
                    )))
                }
            },
            Gate::Reset | Gate::Measure | Gate::Barrier(_) | Gate::Annot(_, _) => unreachable!(),
        }
        Ok(true)
    }
}

/// Appends `sub`'s instructions onto `out`, mapping sub-circuit qubit `i` to
/// `mapping[i]`.
fn compose_onto(out: &mut Vec<Instruction>, sub: &Circuit, mapping: &[usize]) {
    for inst in sub.instructions() {
        let qs: Vec<usize> = inst.qubits.iter().map(|&i| mapping[i]).collect();
        out.push(Instruction::new(inst.gate.clone(), qs));
    }
}

impl Pass for Unroller {
    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError> {
        // Iterate to a fixpoint: decompositions may introduce gates that
        // themselves need unrolling (e.g. ccx → h/t/cx).
        for _ in 0..16 {
            let mut out = Vec::with_capacity(circuit.len());
            let mut changed = false;
            for inst in circuit.instructions() {
                changed |= self.rewrite(inst, &mut out)?;
            }
            circuit.set_instructions(out);
            if !changed {
                return Ok(());
            }
        }
        Err(TranspileError::Internal(
            "unroller failed to reach a fixpoint".into(),
        ))
    }
}

impl crate::manager::DagPass for Unroller {
    fn name(&self) -> &'static str {
        "Unroller"
    }

    fn interest(&self) -> crate::manager::PassInterest {
        use qc_circuit::gate_class::{NON_DEVICE, NON_EXTENDED};
        // The unroller rewrites exactly the unitary gates outside its
        // basis; the class census tracks the two stock bases. A custom
        // basis over-approximates to every wire.
        if self.basis == device_basis() {
            crate::manager::PassInterest::gate_classes(NON_DEVICE)
        } else if self.basis == extended_basis() {
            crate::manager::PassInterest::gate_classes(NON_EXTENDED)
        } else {
            crate::manager::PassInterest::all_wires()
        }
    }

    fn run_on_dag(
        &self,
        dag: &mut qc_circuit::Dag,
        _props: &mut crate::manager::PropertySet,
    ) -> Result<qc_circuit::ChangeReport, TranspileError> {
        let mut total = qc_circuit::ChangeReport::none(dag.num_qubits());
        // Same fixpoint sweep as the circuit-level pass, batched per sweep.
        for _ in 0..16 {
            let mut edit = qc_circuit::DagEdit::new();
            for (i, inst) in dag.iter() {
                if let Some(expansion) = self.expand(inst)? {
                    edit.replace(i, expansion);
                }
            }
            if edit.is_empty() {
                return Ok(total);
            }
            total.merge(&dag.apply(edit));
        }
        Err(TranspileError::Internal(
            "unroller failed to reach a fixpoint".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::circuit_unitary;
    use qc_math::Matrix;

    fn unrolled(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Unroller::to_device_basis().run(&mut out).unwrap();
        out
    }

    fn assert_equiv_and_basis(c: &Circuit) {
        let out = unrolled(c);
        for inst in out.instructions() {
            assert!(
                device_basis().contains(inst.gate.name())
                    || !inst.gate.is_unitary_gate()
                    || inst.gate.is_directive(),
                "gate {} not in basis",
                inst.gate
            );
        }
        assert!(
            circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(c), 1e-7),
            "unroll changed semantics"
        );
    }

    #[test]
    fn simple_gates_unroll() {
        let mut c = Circuit::new(2);
        c.x(0)
            .y(0)
            .z(1)
            .h(1)
            .s(0)
            .tdg(1)
            .rx(0.3, 0)
            .ry(0.5, 1)
            .rz(0.7, 0);
        assert_equiv_and_basis(&c);
    }

    #[test]
    fn two_qubit_gates_unroll() {
        let mut c = Circuit::new(2);
        c.cz(0, 1).cp(0.9, 1, 0).swap(0, 1).swapz(1, 0);
        assert_equiv_and_basis(&c);
    }

    #[test]
    fn toffoli_and_fredkin_unroll() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2).cswap(2, 0, 1);
        assert_equiv_and_basis(&c);
    }

    #[test]
    fn mcx_and_mcz_unroll() {
        let mut c = Circuit::new(4);
        c.mcx(&[0, 1, 2], 3).mcz(&[3, 1], 0);
        assert_equiv_and_basis(&c);
    }

    #[test]
    fn controlled_u_and_unitary_unroll() {
        let mut c = Circuit::new(2);
        c.cu(Gate::T.matrix().unwrap(), 1, 0);
        c.push(Gate::Unitary(Gate::Cz.matrix().unwrap()), &[0, 1]);
        assert_equiv_and_basis(&c);
    }

    #[test]
    fn extended_basis_keeps_swaps() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).swapz(0, 1);
        let mut out = c.clone();
        Unroller::to_extended_basis().run(&mut out).unwrap();
        assert_eq!(out.count_name("swap"), 1);
        assert_eq!(out.count_name("swapz"), 1);
    }

    #[test]
    fn non_unitary_instructions_survive() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).reset(1).barrier().annot_zero(1);
        let out = unrolled(&c);
        assert_eq!(out.count_name("measure"), 1);
        assert_eq!(out.count_name("reset"), 1);
        assert_eq!(out.count_name("barrier"), 1);
        assert_eq!(out.count_name("annot"), 1);
    }

    #[test]
    fn swap_becomes_three_cx() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let out = unrolled(&c);
        assert_eq!(out.gate_counts().cx, 3);
    }

    #[test]
    fn swapz_becomes_two_cx() {
        let mut c = Circuit::new(2);
        c.swapz(0, 1);
        let out = unrolled(&c);
        assert_eq!(out.gate_counts().cx, 2);
        // Semantics preserved exactly (it is defined as those two CNOTs).
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
    }

    #[test]
    fn rejects_oversized_unitary_blocks() {
        let mut c = Circuit::new(3);
        c.push(Gate::Unitary(Matrix::identity(8)), &[0, 1, 2]);
        let err = Unroller::to_device_basis().run(&mut c).unwrap_err();
        assert!(matches!(err, TranspileError::InvalidInput(_)));
    }
}
