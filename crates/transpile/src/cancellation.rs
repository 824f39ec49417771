//! Gate cancellation passes: adjacent self-inverse pair removal and
//! commutation-aware CNOT cancellation.
//!
//! These are the "gate-cancellation procedure based on gate commutation
//! relationships" that Qiskit's level ≥ 2 pipelines run (Section II-B of the
//! paper) — the baseline optimizations RPO is measured on top of.

use crate::manager::{DagPass, PassInterest, PropertySet};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, DagEdit, Gate};

/// Cancels adjacent `cx` pairs with identical control/target, and adjacent
/// self-inverse single-qubit pairs (h·h, x·x, …). Also commutes `u1`/`z`
/// rotations past CNOT controls when doing so exposes a cancellation.
#[derive(Default)]
pub struct CxCancellation;

fn is_self_inverse_1q(g: &Gate) -> bool {
    matches!(g, Gate::X | Gate::Y | Gate::Z | Gate::H)
}

/// Commutation family of a gate relative to a CNOT on the same wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommClass {
    /// Diagonal in Z: commutes with a CNOT control.
    ZDiagonal,
    /// An X-axis rotation: commutes with a CNOT target.
    XRotation,
    /// Neither.
    Other,
}

/// The commutation family of a single-qubit gate.
pub fn comm_class(g: &Gate) -> CommClass {
    match g {
        Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::U1(_) => {
            CommClass::ZDiagonal
        }
        Gate::X | Gate::Rx(_) => CommClass::XRotation,
        _ => CommClass::Other,
    }
}

impl DagPass for CxCancellation {
    fn name(&self) -> &'static str {
        "CxCancellation"
    }

    fn interest(&self) -> PassInterest {
        // Cancellations pair cx gates (connected along the cx's own wires)
        // or adjacent self-inverse 1q gates; a change on a wire carrying
        // neither cannot create one.
        use qc_circuit::gate_class::{CX, SELF_INVERSE};
        PassInterest::gate_classes(CX | SELF_INVERSE)
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let mut total = ChangeReport::none(dag.num_qubits());
        // Sweep until no more cancellations fire: each sweep batches its
        // removals into one edit.
        for _ in 0..64 {
            let removed = plan_cancellations(dag);
            let mut edit = DagEdit::new();
            for (id, r) in removed.iter().enumerate() {
                if *r {
                    edit.remove(id);
                }
            }
            if edit.is_empty() {
                break;
            }
            total.merge(&dag.apply(edit));
        }
        Ok(total)
    }
}

/// One cancellation sweep over a DAG: `removed[id]` marks node ids to
/// delete. Z-diagonal gates ([`comm_class`]) are looked through on CNOT
/// control wires.
fn plan_cancellations(dag: &Dag) -> Vec<bool> {
    let mut removed = vec![false; dag.capacity()];
    let z_diagonal = |id: usize| comm_class(&dag.inst(id).gate) == CommClass::ZDiagonal;

    // Helper: the next non-removed successor of `node` along wire `q` that
    // is not a Z-diagonal 1q gate when `skip_diagonal` (used to look through
    // phase gates sitting on a CNOT control).
    let next_on_wire = |node: usize, q: usize, removed: &[bool], skip_diagonal: bool| {
        let mut cur = dag.wire_succ(node, q);
        while let Some(s) = cur {
            if removed[s] || (skip_diagonal && z_diagonal(s)) {
                cur = dag.wire_succ(s, q);
                continue;
            }
            return Some(s);
        }
        None
    };

    for (i, inst) in dag.iter() {
        if removed[i] {
            continue;
        }
        match &inst.gate {
            Gate::Cx => {
                let (c, t) = (inst.qubits[0], inst.qubits[1]);
                // Successor through the control wire may skip Z-diagonal
                // gates (they commute with the control); the target wire
                // must connect directly.
                let sc = next_on_wire(i, c, &removed, true);
                let st = next_on_wire(i, t, &removed, false);
                if let (Some(sc), Some(st)) = (sc, st) {
                    if sc == st
                        && matches!(dag.inst(sc).gate, Gate::Cx)
                        && dag.inst(sc).qubits == vec![c, t]
                    {
                        removed[i] = true;
                        removed[sc] = true;
                    }
                }
            }
            g if inst.qubits.len() == 1 && is_self_inverse_1q(g) => {
                let q = inst.qubits[0];
                if let Some(s) = next_on_wire(i, q, &removed, false) {
                    if dag.inst(s).gate == *g && dag.inst(s).qubits.len() == 1 {
                        removed[i] = true;
                        removed[s] = true;
                    }
                }
            }
            _ => {}
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pass;
    use qc_circuit::{circuit_unitary, Circuit};

    fn cancelled(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        CxCancellation.run(&mut out).unwrap();
        out
    }

    #[test]
    fn adjacent_cx_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        assert_eq!(cancelled(&c).gate_counts().cx, 0);
    }

    #[test]
    fn opposite_direction_cx_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0);
        assert_eq!(cancelled(&c).gate_counts().cx, 2);
    }

    #[test]
    fn cx_pair_with_phase_on_control_cancels() {
        // u1 on the control commutes with CNOT; the pair still cancels.
        let mut c = Circuit::new(2);
        c.cx(0, 1).t(0).cx(0, 1);
        let out = cancelled(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.gate_counts().single_qubit, 1);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
    }

    #[test]
    fn cx_pair_with_gate_on_target_does_not_cancel() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).t(1).cx(0, 1);
        assert_eq!(cancelled(&c).gate_counts().cx, 2);
    }

    #[test]
    fn self_inverse_1q_pairs_cancel() {
        let mut c = Circuit::new(1);
        c.h(0).h(0).x(0).x(0).z(0);
        let out = cancelled(&c);
        assert_eq!(out.gate_counts().total, 1);
    }

    #[test]
    fn chains_collapse_fully() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).cx(0, 1).cx(0, 1);
        assert_eq!(cancelled(&c).gate_counts().cx, 0);
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1).cx(0, 1);
        assert_eq!(cancelled(&c).gate_counts().cx, 1);
    }

    #[test]
    fn comm_class_classifies_gates() {
        assert_eq!(comm_class(&Gate::T), CommClass::ZDiagonal);
        assert_eq!(comm_class(&Gate::X), CommClass::XRotation);
        assert_eq!(comm_class(&Gate::Cx), CommClass::Other);
        assert_eq!(comm_class(&Gate::H), CommClass::Other);
    }

    #[test]
    fn preserves_semantics() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).s(0).cx(0, 1).cx(1, 2).x(2).x(2).h(0);
        let out = cancelled(&c);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
        assert!(out.gate_counts().total < c.gate_counts().total);
    }
}
