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
//!
//! The pass is one program-order walk. Each wire keeps its open run: the
//! run's first node, its length and, from the second gate on, the product
//! of its gates so far. A single-qubit unitary extends its wire's run, and
//! every node after the head is removed as it joins. Anything else on the
//! wire (a multi-qubit gate, a directive, a measure or a reset), or the
//! end of the walk, closes the run: the head becomes the merged gate, or
//! goes when the product is the identity. A lone gate costs no matrix
//! until its run closes, and none at all when it is canonical.

use crate::manager::{DagPass, PropertySet};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, DagEdit, Gate, Instruction};
use qc_math::{mul_2x2, Matrix, C64};
use qc_synth::euler::{is_canonical, OneQubitEuler};

/// Merges maximal single-qubit gate runs into at most one u-gate each.
#[derive(Default)]
pub struct Optimize1qGates;

/// The open run of single-qubit gates on one wire.
#[derive(Clone, Copy)]
struct Run {
    /// The run's first node, which the merged gate replaces.
    head: usize,
    /// Gates in the run so far.
    len: usize,
    /// Their product in time order (later gates on the left); set when
    /// the second gate joins.
    product: [C64; 4],
}

/// Every product starts from the identity rather than from its first gate:
/// the multiply normalizes signed zeros, which the Euler angles (atan2)
/// can see.
const IDENTITY: [C64; 4] = [C64::ONE, C64::ZERO, C64::ZERO, C64::ONE];

/// `g · acc` for a gate `g` of a run.
fn times(g: &Gate, acc: &[C64; 4]) -> Result<[C64; 4], TranspileError> {
    let m = g
        .matrix2x2()
        .ok_or_else(|| TranspileError::Internal(format!("non-unitary gate {g} in 1q run")))?;
    Ok(mul_2x2(&m, acc))
}

/// Records the rewrite of a closed run at its head: a lone canonical gate
/// stays, otherwise the head becomes the merged gate or, when the product
/// is the identity, goes.
fn close(dag: &Dag, run: Run, edit: &mut DagEdit) -> Result<(), TranspileError> {
    let head = dag.inst(run.head);
    let product = match run.len {
        1 if is_canonical(&head.gate) => return Ok(()),
        1 => times(&head.gate, &IDENTITY)?,
        _ => run.product,
    };
    let merged = OneQubitEuler::from_matrix(&Matrix::from_vec(2, 2, product.to_vec())).to_gate();
    if matches!(merged, Gate::I) {
        edit.remove(run.head);
    } else {
        edit.replace(
            run.head,
            vec![Instruction::new(merged, head.qubits.clone())],
        );
    }
    Ok(())
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
        let mut edit = DagEdit::new();
        let mut open: Vec<Option<Run>> = vec![None; dag.num_qubits()];
        for (id, inst) in dag.iter() {
            if let ([q], true) = (&inst.qubits[..], inst.gate.is_unitary_gate()) {
                match &mut open[*q] {
                    Some(run) => {
                        if run.len == 1 {
                            run.product = times(&dag.inst(run.head).gate, &IDENTITY)?;
                        }
                        run.product = times(&inst.gate, &run.product)?;
                        run.len += 1;
                        edit.remove(id);
                    }
                    None => {
                        open[*q] = Some(Run {
                            head: id,
                            len: 1,
                            product: IDENTITY,
                        })
                    }
                }
            } else {
                for &q in &inst.qubits {
                    if let Some(run) = open[q].take() {
                        close(dag, run, &mut edit)?;
                    }
                }
            }
        }
        for run in open.into_iter().flatten() {
            close(dag, run, &mut edit)?;
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
    fn single_qubit_runs_split_by_two_qubit_gates() {
        // Runs: h t on qubit 0, s on qubit 0 after the cx, sdg h on qubit 1.
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).s(0).sdg(1).h(1);
        let out = optimized(&c);
        let wires: Vec<&[usize]> = out.instructions().iter().map(|i| &i.qubits[..]).collect();
        assert_eq!(wires, [&[0][..], &[0, 1], &[0], &[1]]);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
    }

    #[test]
    fn runs_broken_by_directives_and_measure() {
        let mut c = Circuit::new(1);
        c.h(0).barrier().h(0).measure(0);
        let out = optimized(&c);
        assert_eq!(out.gate_counts().single_qubit, 2);
        assert_eq!(out.count_name("measure"), 1);
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
