//! Gate cancellation passes: adjacent self-inverse pair removal and
//! commutation-aware CNOT cancellation.
//!
//! These are the "gate-cancellation procedure based on gate commutation
//! relationships" that Qiskit's level ≥ 2 pipelines run (Section II-B of the
//! paper) — the baseline optimizations RPO is measured on top of.

use crate::commutation::{family, Family};
use crate::manager::{DagPass, PropertySet};
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

impl DagPass for CxCancellation {
    fn name(&self) -> &'static str {
        "CxCancellation"
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let mut total = ChangeReport::none();
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
/// delete. Gates of the Z-phase [`family`] are looked through on CNOT
/// control wires.
fn plan_cancellations(dag: &Dag) -> Vec<bool> {
    let mut removed = vec![false; dag.capacity()];
    let z_diagonal = |id: usize| matches!(family(&dag.inst(id).gate), Family::ZPhase(_));

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
                        && dag.inst(sc).qubits == [c, t]
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
    fn cx_pair_with_identity_on_control_cancels() {
        // `id` is in the Z-phase family, so it is looked through too.
        let mut c = Circuit::new(2);
        c.cx(0, 1).id(0).cx(0, 1);
        let out = cancelled(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("id"), 1);
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
    fn preserves_semantics() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).s(0).cx(0, 1).cx(1, 2).x(2).x(2).h(0);
        let out = cancelled(&c);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-9));
        assert!(out.gate_counts().total < c.gate_counts().total);
    }
}
