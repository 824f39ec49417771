//! Commutation-aware gate merging (Qiskit's `CommutativeCancellation`).
//!
//! The paper's level-2/3 baseline includes a "gate-cancellation procedure
//! based on gate commutation relationships" (Section II-B). This pass
//! implements the workhorse cases: Z-diagonal rotations commute through
//! CNOT *controls* and X-axis rotations through CNOT *targets*, so
//! same-wire rotations separated only by such CNOT anchors merge into one
//! gate (and cancel outright when the angles sum to zero).

use crate::manager::{DagPass, PropertySet};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, DagEdit, Gate, Instruction};
use qc_synth::euler::normalize_angle;
use std::f64::consts::{FRAC_PI_2, PI};

/// Which commutation family a 1-qubit gate belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Family {
    /// Diagonal in Z: commutes with a CNOT control on the same wire.
    ZPhase(f64),
    /// X-axis rotation: commutes with a CNOT target on the same wire.
    XRotation(f64),
    /// Anything else.
    Other,
}

/// The commutation family of a 1-qubit gate, with its rotation angle.
pub(crate) fn family(g: &Gate) -> Family {
    match g {
        Gate::Z => Family::ZPhase(PI),
        Gate::S => Family::ZPhase(FRAC_PI_2),
        Gate::Sdg => Family::ZPhase(-FRAC_PI_2),
        Gate::T => Family::ZPhase(PI / 4.0),
        Gate::Tdg => Family::ZPhase(-PI / 4.0),
        Gate::U1(l) => Family::ZPhase(*l),
        Gate::Rz(l) => Family::ZPhase(*l),
        Gate::I => Family::ZPhase(0.0),
        Gate::X => Family::XRotation(PI),
        Gate::Rx(t) => Family::XRotation(*t),
        _ => Family::Other,
    }
}

/// Merges commuting same-wire rotation runs across CNOT anchors.
#[derive(Default)]
pub struct CommutativeCancellation;

/// The merge plan over a DAG, indexed by node id: `plan[id]`: `None` =
/// keep the node; `Some(None)` = drop it; `Some(Some(g))` = replace it
/// with `g` on the same qubits.
fn plan_merges(dag: &Dag) -> Vec<Option<Option<Gate>>> {
    let n = dag.num_qubits();
    // For every wire, accumulate the active commuting run: the family,
    // the summed angle, and the index of the first gate in the run.
    #[derive(Clone, Copy)]
    struct Run {
        kind: u8, // 0 = z, 1 = x
        angle: f64,
        head: usize,
    }
    let mut runs: Vec<Option<Run>> = vec![None; n];
    // replacement[key]: None = keep; Some(None) = drop; Some(Some(g)) = emit g.
    let mut replacement: Vec<Option<Option<Gate>>> = vec![None; dag.capacity()];

    let flush =
        |runs: &mut Vec<Option<Run>>, replacement: &mut Vec<Option<Option<Gate>>>, q: usize| {
            if let Some(run) = runs[q].take() {
                let angle = normalize_angle(run.angle);
                let merged = if angle.abs() < 1e-12 {
                    None
                } else if run.kind == 0 {
                    Some(Gate::U1(angle))
                } else {
                    Some(Gate::Rx(angle))
                };
                replacement[run.head] = Some(merged);
            }
        };

    for (i, inst) in dag.iter() {
        match (&inst.gate, inst.qubits.len()) {
            (Gate::Cx, 2) => {
                // Z-runs pass through the control; X-runs through the
                // target; the crossing runs flush.
                let (c, t) = (inst.qubits[0], inst.qubits[1]);
                if let Some(run) = runs[c] {
                    if run.kind != 0 {
                        flush(&mut runs, &mut replacement, c);
                    }
                }
                if let Some(run) = runs[t] {
                    if run.kind != 1 {
                        flush(&mut runs, &mut replacement, t);
                    }
                }
            }
            (g, 1) if g.is_unitary_gate() => {
                let q = inst.qubits[0];
                match family(g) {
                    Family::ZPhase(a) => match &mut runs[q] {
                        Some(run) if run.kind == 0 => {
                            run.angle += a;
                            replacement[i] = Some(None);
                        }
                        _ => {
                            flush(&mut runs, &mut replacement, q);
                            runs[q] = Some(Run {
                                kind: 0,
                                angle: a,
                                head: i,
                            });
                            replacement[i] = Some(None); // head re-emitted at flush
                        }
                    },
                    Family::XRotation(a) => match &mut runs[q] {
                        Some(run) if run.kind == 1 => {
                            run.angle += a;
                            replacement[i] = Some(None);
                        }
                        _ => {
                            flush(&mut runs, &mut replacement, q);
                            runs[q] = Some(Run {
                                kind: 1,
                                angle: a,
                                head: i,
                            });
                            replacement[i] = Some(None);
                        }
                    },
                    Family::Other => flush(&mut runs, &mut replacement, q),
                }
            }
            _ => {
                for &q in &inst.qubits {
                    flush(&mut runs, &mut replacement, q);
                }
            }
        }
    }
    for q in 0..n {
        flush(&mut runs, &mut replacement, q);
    }
    replacement
}

impl DagPass for CommutativeCancellation {
    fn name(&self) -> &'static str {
        "CommutativeCancellation"
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let replacement = plan_merges(dag);
        let mut edit = DagEdit::new();
        for (i, r) in replacement.into_iter().enumerate() {
            match r {
                None => {}
                Some(None) => edit.remove(i),
                // Re-emitting the identical gate (a lone run flushing back
                // to itself) is not a rewrite: suppressing it keeps the
                // stream byte-identical and the change report honest.
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
    use crate::Pass;
    use qc_circuit::{circuit_unitary, Circuit};

    fn run(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        CommutativeCancellation.run(&mut out).unwrap();
        assert!(
            circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(c), 1e-9),
            "commutative cancellation changed semantics\n{c}\n{out}"
        );
        out
    }

    #[test]
    fn family_classifies_gates() {
        assert_eq!(family(&Gate::T), Family::ZPhase(PI / 4.0));
        assert_eq!(family(&Gate::I), Family::ZPhase(0.0));
        assert_eq!(family(&Gate::X), Family::XRotation(PI));
        assert_eq!(family(&Gate::Cx), Family::Other);
        assert_eq!(family(&Gate::H), Family::Other);
    }

    #[test]
    fn t_gates_merge_across_cx_control() {
        let mut c = Circuit::new(2);
        c.t(0).cx(0, 1).t(0);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 1);
        assert!(matches!(
            out.instructions().iter().find(|i| i.qubits == vec![0]).unwrap().gate,
            Gate::U1(l) if (l - FRAC_PI_2).abs() < 1e-12
        ));
    }

    #[test]
    fn s_and_sdg_cancel_across_control() {
        let mut c = Circuit::new(2);
        c.s(0).cx(0, 1).sdg(0);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 0);
        assert_eq!(out.gate_counts().cx, 1);
    }

    #[test]
    fn x_cancels_across_target() {
        let mut c = Circuit::new(2);
        c.x(1).cx(0, 1).x(1);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 0);
    }

    #[test]
    fn rx_merges_across_target() {
        let mut c = Circuit::new(2);
        c.rx(0.3, 1).cx(0, 1).rx(0.4, 1).cx(0, 1).rx(-0.7, 1);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 0);
        assert_eq!(out.gate_counts().cx, 2);
    }

    #[test]
    fn z_run_does_not_cross_target() {
        let mut c = Circuit::new(2);
        c.t(1).cx(0, 1).tdg(1);
        let out = run(&c);
        // T on the *target* must not merge through the CNOT.
        assert_eq!(out.gate_counts().single_qubit, 2);
    }

    #[test]
    fn x_run_does_not_cross_control() {
        let mut c = Circuit::new(2);
        c.x(0).cx(0, 1).x(0);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 2);
    }

    #[test]
    fn hadamard_breaks_runs() {
        let mut c = Circuit::new(2);
        c.t(0).h(0).t(0).cx(0, 1).t(0);
        let out = run(&c);
        // First T isolated by the H; the latter two merge.
        assert_eq!(out.gate_counts().single_qubit, 3);
    }

    #[test]
    fn mixed_families_on_one_wire() {
        let mut c = Circuit::new(2);
        c.t(0).s(0).x(0).x(0).tdg(0).cx(0, 1).u1(0.25, 0);
        let out = run(&c);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
        assert!(out.gate_counts().single_qubit <= 3);
    }

    #[test]
    fn barriers_and_measures_flush() {
        let mut c = Circuit::new(1);
        c.t(0).barrier().tdg(0);
        let out = run(&c);
        assert_eq!(out.gate_counts().single_qubit, 2);
    }
}
