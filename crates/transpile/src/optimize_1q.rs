//! `Optimize1qGates`: merge runs of single-qubit gates into one u-gate.
//!
//! The paper relies on this Qiskit pass in two ways: it fuses the `U`/`U⁻¹`
//! dressing gates that QPO introduces around SWAPZ into neighboring
//! single-qubit gates (Section IV), and it prepares single-u3 wires for QPO's
//! pure-state tracking (Fig. 8, line 7).

use crate::{Pass, TranspileError};
use qc_circuit::{Circuit, Dag, Gate, Instruction};
use qc_synth::euler::OneQubitEuler;

/// Merges maximal single-qubit gate runs into at most one u-gate each.
#[derive(Default)]
pub struct Optimize1qGates;

/// The merge plan over a DAG, indexed by node id: `plan[id]`: `None` =
/// keep node `id`; `Some(None)` = drop it; `Some(Some(g))` = replace it
/// with `g`. Shared by the circuit-level and DAG-native drivers.
fn plan_runs(dag: &Dag) -> Result<Vec<Option<Option<Gate>>>, TranspileError> {
    let runs = dag.single_qubit_runs();
    let mut replacement: Vec<Option<Option<Gate>>> = vec![None; dag.capacity()];
    for run in runs {
        // Multiply matrices in time order (later gates on the left),
        // accumulating on the stack; one heap matrix per run, not per
        // gate.
        let mut m = [
            qc_math::C64::ONE,
            qc_math::C64::ZERO,
            qc_math::C64::ZERO,
            qc_math::C64::ONE,
        ];
        for &node in &run {
            let g = &dag.inst(node).gate;
            let gm = g.matrix2x2().ok_or_else(|| {
                TranspileError::Internal(format!("non-unitary gate {g} in 1q run"))
            })?;
            m = qc_math::mul_2x2(&gm, &m);
        }
        let merged =
            OneQubitEuler::from_matrix(&qc_math::Matrix::from_vec(2, 2, m.to_vec())).to_gate();
        let head = run[0];
        for &node in &run {
            replacement[node] = Some(None);
        }
        if !matches!(merged, Gate::I) {
            replacement[head] = Some(Some(merged));
        }
    }
    Ok(replacement)
}

impl Pass for Optimize1qGates {
    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError> {
        let dag = Dag::from_circuit(circuit);
        let mut replacement = plan_runs(&dag)?;
        let mut out: Vec<Instruction> = Vec::with_capacity(circuit.len());
        for (i, inst) in circuit.instructions().iter().enumerate() {
            match replacement[i].take() {
                None => out.push(inst.clone()),
                Some(None) => {}
                Some(Some(g)) => out.push(Instruction::new(g, inst.qubits.clone())),
            }
        }
        circuit.set_instructions(out);
        Ok(())
    }
}

impl crate::manager::DagPass for Optimize1qGates {
    fn name(&self) -> &'static str {
        "Optimize1qGates"
    }

    fn interest(&self) -> crate::manager::PassInterest {
        // Any wire carrying a 1q unitary is interesting — even a singleton
        // run rewrites when its gate is not already in the Euler-canonical
        // u-form, so the pass deliberately over-approximates past "≥ 2
        // adjacent 1q nodes" (see the PassInterest contract).
        crate::manager::PassInterest::gate_classes(qc_circuit::gate_class::ONE_Q)
    }

    fn run_on_dag(
        &self,
        dag: &mut qc_circuit::Dag,
        _props: &mut crate::manager::PropertySet,
    ) -> Result<qc_circuit::ChangeReport, TranspileError> {
        let replacement = plan_runs(dag)?;
        let mut edit = qc_circuit::DagEdit::new();
        for (i, r) in replacement.into_iter().enumerate() {
            match r {
                None => {}
                Some(None) => edit.remove(i),
                // A single-gate run that merges back to the identical gate
                // is not a rewrite.
                Some(Some(g)) if g == dag.inst(i).gate => {}
                Some(Some(g)) => {
                    let qs = dag.inst(i).qubits.clone();
                    edit.replace(i, vec![Instruction::new(g, qs)]);
                }
            }
        }
        Ok(dag.apply(edit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::circuit_unitary;

    fn optimized(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Optimize1qGates.run(&mut out).unwrap();
        out
    }

    #[test]
    fn merges_h_h_to_nothing() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        let out = optimized(&c);
        assert_eq!(out.gate_counts().total, 0);
    }

    #[test]
    fn merges_s_s_to_u1() {
        let mut c = Circuit::new(1);
        c.s(0).s(0);
        let out = optimized(&c);
        assert_eq!(out.gate_counts().total, 1);
        assert!(matches!(
            out.instructions()[0].gate,
            Gate::U1(l) if (l - std::f64::consts::PI).abs() < 1e-9
        ));
    }

    #[test]
    fn preserves_semantics_across_cx() {
        let mut c = Circuit::new(2);
        c.h(0)
            .t(0)
            .s(0)
            .cx(0, 1)
            .tdg(1)
            .h(1)
            .sdg(1)
            .rx(0.4, 0)
            .rz(0.2, 0);
        let out = optimized(&c);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-8));
        // Three runs → at most three 1q gates.
        assert!(out.gate_counts().single_qubit <= 3);
    }

    #[test]
    fn runs_not_merged_across_barrier() {
        let mut c = Circuit::new(1);
        c.h(0).barrier().h(0);
        let out = optimized(&c);
        // Two separate runs of one H each; H stays (as u2).
        assert_eq!(out.gate_counts().single_qubit, 2);
    }

    #[test]
    fn single_gates_canonicalized() {
        let mut c = Circuit::new(1);
        c.z(0);
        let out = optimized(&c);
        assert!(matches!(out.instructions()[0].gate, Gate::U1(_)));
    }

    #[test]
    fn identity_gates_removed() {
        let mut c = Circuit::new(2);
        c.id(0).id(1).cx(0, 1).id(0);
        let out = optimized(&c);
        assert_eq!(out.gate_counts().total, 1);
    }
}
