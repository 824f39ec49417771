//! `Optimize1qGates`: merge runs of single-qubit gates into one u-gate.
//!
//! The paper relies on this Qiskit pass in two ways: it fuses the `U`/`U⁻¹`
//! dressing gates that QPO introduces around SWAPZ into neighboring
//! single-qubit gates (Section IV), and it prepares single-u3 wires for QPO's
//! pure-state tracking (Fig. 8, line 7).
//!
//! A lone gate already in a form [`OneQubitEuler::to_gate`] emits
//! ([`is_canonical`]) is kept bit for bit: decomposing it again would only
//! move float bits and re-dirty every pass of the fixed point. So the
//! pass's output is a bit-exact fixed point of the pass.

use crate::manager::{DagPass, PropertySet};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, DagEdit, Gate, Instruction};
use qc_synth::euler::{is_canonical, OneQubitEuler};

/// Merges maximal single-qubit gate runs into at most one u-gate each.
#[derive(Default)]
pub struct Optimize1qGates;

/// The merge plan over a DAG, indexed by node id: `plan[id]`: `None` =
/// keep node `id`; `Some(None)` = drop it; `Some(Some(g))` = replace it
/// with `g`.
fn plan_runs(dag: &Dag) -> Result<Vec<Option<Option<Gate>>>, TranspileError> {
    let runs = dag.single_qubit_runs();
    let mut replacement: Vec<Option<Option<Gate>>> = vec![None; dag.capacity()];
    for run in runs {
        if run.len() == 1 && is_canonical(&dag.inst(run[0]).gate) {
            continue;
        }
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

impl DagPass for Optimize1qGates {
    fn name(&self) -> &'static str {
        "Optimize1qGates"
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let replacement = plan_runs(dag)?;
        let mut edit = DagEdit::new();
        for (i, r) in replacement.into_iter().enumerate() {
            match r {
                None => {}
                Some(None) => edit.remove(i),
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
    use crate::Pass;
    use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
    use qc_circuit::{canonical_bytes, circuit_unitary, Circuit};
    use std::f64::consts::PI;

    fn optimized(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Optimize1qGates.run(&mut out).unwrap();
        out
    }

    /// The pass's output on `c` and the rewrites it reported.
    fn optimized_counting(c: &Circuit) -> (Circuit, usize) {
        let mut dag = Dag::from_circuit(c);
        let report = Optimize1qGates
            .run_on_dag(&mut dag, &mut PropertySet::new())
            .unwrap();
        (dag.to_circuit(), report.rewrites)
    }

    fn single(g: Gate) -> Circuit {
        let mut c = Circuit::new(1);
        c.push(g, &[0]);
        c
    }

    #[test]
    fn output_is_a_bit_exact_fixed_point() {
        for seed in [1, 5, 11, 77, 2024] {
            for (label, c) in [
                ("random", random_circuit(5, 60, seed)),
                ("blocked", blocked_neighborhood_circuit(4, 25, seed)),
                ("toffoli", toffoli_chain(6, seed)),
            ] {
                let (once, _) = optimized_counting(&c);
                let (twice, rewrites) = optimized_counting(&once);
                assert_eq!(rewrites, 0, "{label} seed {seed}: second run rewrote");
                assert!(
                    canonical_bytes(&twice) == canonical_bytes(&once),
                    "{label} seed {seed}: second run changed the output bits"
                );
            }
        }
    }

    #[test]
    fn lone_gates_kept_exactly_when_canonical() {
        for g in [
            Gate::U1(PI / 4.0),
            Gate::U1(-3.0),
            Gate::U1(PI),
            Gate::U2(0.0, PI),
            Gate::U2(5.0, -7.0),
            Gate::U3(1.0, 2.0, 3.0),
            Gate::U3(0.3, -0.7, 0.2),
            Gate::U3(PI, 0.4, -1.1),
        ] {
            let c = single(g.clone());
            let (out, rewrites) = optimized_counting(&c);
            assert_eq!(rewrites, 0, "{g} was rewritten");
            assert!(
                canonical_bytes(&out) == canonical_bytes(&c),
                "{g} changed bits"
            );
        }
        // Out of the canonical ranges: decomposed again.
        for g in [Gate::U1(1.5 * PI), Gate::U3(4.0, 0.1, 0.2), Gate::U1(1e-12)] {
            let c = single(g.clone());
            let (out, rewrites) = optimized_counting(&c);
            assert_eq!(rewrites, 1, "{g} was kept");
            assert!(
                circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9),
                "{g} changed semantics"
            );
        }
        // Within the threshold of the identity, the gate is dropped.
        assert_eq!(optimized(&single(Gate::U1(1e-12))).gate_counts().total, 0);
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
