//! The `Unroller` pass: decompose gates into a target basis.
//!
//! IBM devices of the paper's era support the basis `{u1, u2, u3, id, cx}`;
//! the RPO pipeline additionally runs an unroll into the *extended* basis
//! that keeps `swap` and `swapz` intact so the QPO pass can reason about
//! them (Fig. 8, line 6).

use crate::consolidate::memoized_synthesize;
use crate::manager::{DagPass, PropertySet};
use crate::TranspileError;
use qc_circuit::gate_class::{NON_DEVICE, NON_EXTENDED};
use qc_circuit::{instruction_classes, ChangeReport, Dag, DagEdit, Gate, Instruction, Qubits};
use qc_math::Matrix;
use qc_synth::{fredkin_circuit, matrix_to_u3_gate, mcx_no_ancilla, mcz_circuit, toffoli_circuit};
use std::f64::consts::{FRAC_PI_2, PI};

/// Decomposes every unitary gate outside its target basis into basis
/// gates. The basis is named by the [`qc_circuit::gate_class`] bit of the
/// gates it decomposes, so [`qc_circuit::instruction_classes`] is the one
/// definition of basis membership.
pub struct Unroller {
    /// [`NON_DEVICE`] or [`NON_EXTENDED`].
    decomposes: u16,
}

impl Unroller {
    /// Unroller for the device basis `{u1, u2, u3, id, cx}`.
    pub fn to_device_basis() -> Self {
        Unroller {
            decomposes: NON_DEVICE,
        }
    }

    /// Unroller for the extended basis that keeps `swap` and `swapz`.
    pub fn to_extended_basis() -> Self {
        Unroller {
            decomposes: NON_EXTENDED,
        }
    }

    /// One decomposition step for `inst`, or `None` when it is in the
    /// basis (non-unitary instructions always are). The expansion may
    /// itself need unrolling (e.g. ccx → h/t/cx).
    fn expand(&self, inst: &Instruction) -> Result<Option<Vec<Instruction>>, TranspileError> {
        if instruction_classes(inst) & self.decomposes == 0 {
            return Ok(None);
        }
        let q = &inst.qubits;
        let mut out = Vec::new();
        let mut push = |gate: Gate, qubits: &[usize]| out.push(Instruction::new(gate, qubits));
        match &inst.gate {
            Gate::X => push(Gate::U3(PI, 0.0, PI), &[q[0]]),
            Gate::Y => push(Gate::U3(PI, FRAC_PI_2, FRAC_PI_2), &[q[0]]),
            Gate::Z => push(Gate::U1(PI), &[q[0]]),
            Gate::H => push(Gate::U2(0.0, PI), &[q[0]]),
            Gate::S => push(Gate::U1(FRAC_PI_2), &[q[0]]),
            Gate::Sdg => push(Gate::U1(-FRAC_PI_2), &[q[0]]),
            Gate::T => push(Gate::U1(PI / 4.0), &[q[0]]),
            Gate::Tdg => push(Gate::U1(-PI / 4.0), &[q[0]]),
            Gate::Rx(t) => push(Gate::U3(*t, -FRAC_PI_2, FRAC_PI_2), &[q[0]]),
            Gate::Ry(t) => push(Gate::U3(*t, 0.0, 0.0), &[q[0]]),
            Gate::Rz(t) => push(Gate::U1(*t), &[q[0]]),
            Gate::Cz => {
                push(Gate::H, &[q[1]]);
                push(Gate::Cx, &[q[0], q[1]]);
                push(Gate::H, &[q[1]]);
            }
            Gate::Cp(l) => {
                push(Gate::U1(l / 2.0), &[q[0]]);
                push(Gate::Cx, &[q[0], q[1]]);
                push(Gate::U1(-l / 2.0), &[q[1]]);
                push(Gate::Cx, &[q[0], q[1]]);
                push(Gate::U1(l / 2.0), &[q[1]]);
            }
            Gate::Swap => {
                push(Gate::Cx, &[q[0], q[1]]);
                push(Gate::Cx, &[q[1], q[0]]);
                push(Gate::Cx, &[q[0], q[1]]);
            }
            Gate::SwapZ => {
                // Definition Eq. 3: cx(other→qz) then cx(qz→other).
                push(Gate::Cx, &[q[1], q[0]]);
                push(Gate::Cx, &[q[0], q[1]]);
            }
            Gate::Ccx => compose_onto(&mut out, toffoli_circuit().instructions(), q),
            Gate::Cswap => compose_onto(&mut out, fredkin_circuit().instructions(), q),
            Gate::Mcx(n) => compose_onto(&mut out, mcx_no_ancilla(*n).instructions(), q),
            Gate::Mcz(n) => compose_onto(&mut out, mcz_circuit(*n).instructions(), q),
            Gate::Cu(_) => {
                let cu = inst.gate.matrix().expect("cu has a matrix");
                compose_onto(&mut out, &synthesize(&cu)?, q);
            }
            Gate::Unitary(m) => match q.len() {
                1 => push(matrix_to_u3_gate(m), &[q[0]]),
                2 => compose_onto(&mut out, &synthesize(m)?, q),
                n => {
                    return Err(TranspileError::unsupported_gate(format!(
                        "{n}-qubit unitary block"
                    )))
                }
            },
            Gate::I
            | Gate::U1(_)
            | Gate::U2(..)
            | Gate::U3(..)
            | Gate::Cx
            | Gate::Reset
            | Gate::Measure
            | Gate::Barrier(_)
            | Gate::Annot(_, _) => unreachable!("{} is in every basis", inst.gate),
        }
        Ok(Some(out))
    }
}

/// KAK synthesis of a two-qubit matrix on local wires (0, 1), through the
/// memo `ConsolidateBlocks` uses, so a repeated `unitary` or `cu` costs a
/// lookup.
fn synthesize(u: &Matrix) -> Result<Vec<Instruction>, TranspileError> {
    memoized_synthesize(u).ok_or_else(|| TranspileError::Numeric {
        context: "two-qubit synthesis declined the matrix".into(),
    })
}

/// Appends `sub` onto `out`, mapping local qubit `i` to `mapping[i]`.
fn compose_onto(out: &mut Vec<Instruction>, sub: &[Instruction], mapping: &[usize]) {
    for inst in sub {
        let qs: Qubits = inst.qubits.iter().map(|&i| mapping[i]).collect();
        out.push(Instruction::new(inst.gate.clone(), qs));
    }
}

impl DagPass for Unroller {
    fn name(&self) -> &'static str {
        "Unroller"
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let mut total = ChangeReport::none();
        // Iterate to a fixpoint, one batched edit per sweep:
        // decompositions may introduce gates that themselves need
        // unrolling (e.g. ccx → h/t/cx).
        for _ in 0..16 {
            let mut edit = DagEdit::new();
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
    use crate::Pass;
    use qc_circuit::{circuit_unitary, Circuit};

    fn unrolled(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Unroller::to_device_basis().run(&mut out).unwrap();
        out
    }

    fn assert_equiv_and_basis(c: &Circuit) {
        let out = unrolled(c);
        for inst in out.instructions() {
            assert_eq!(
                instruction_classes(inst) & NON_DEVICE,
                0,
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
