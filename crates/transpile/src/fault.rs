//! Deterministic fault injection for the guarded pipelines (the
//! `fault-inject` feature; never compiled into normal builds).
//!
//! A test arms one [`FaultPlan`] — *this pass label fails in this way* —
//! and runs a transpile. The [`crate::guard::PassGuard`] hooks
//! ([`fire_before`], [`fire_after`]) fire the fault at the chosen pass,
//! exactly once, on this thread only. The property tests sweep every
//! stage label × [`FaultKind`] × seed asserting that no panic escapes the
//! public API, the output still validates, and the degradation is
//! reported.

use qc_circuit::{Dag, DagEdit, Gate, Instruction};
use qc_math::{Matrix, C64};
use std::cell::RefCell;
use std::time::Duration;

/// How the armed pass fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the pass body runs (the DAG is untouched).
    PanicBefore,
    /// Panic after the pass body ran (mid-flight state must roll back).
    PanicAfter,
    /// Sleep this long before the pass body (deadline-budget exercise).
    Stall(Duration),
    /// Splice a non-unitary embedded matrix into the DAG after the pass —
    /// silent semantic corruption the validator must catch.
    BadUnitary,
}

/// One armed fault: `pass` is the stage label the guard runs the pass
/// under (e.g. `"QBO(early)"`, `"ConsolidateBlocks"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The stage label to fail at.
    pub pass: String,
    /// The failure mode.
    pub kind: FaultKind,
}

thread_local! {
    static ARMED: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
}

/// Arms `plan` on this thread. The fault fires once at the next guarded
/// execution of the matching stage, then disarms itself.
pub fn arm(plan: FaultPlan) {
    ARMED.with(|a| *a.borrow_mut() = Some(plan));
}

/// Disarms any pending fault on this thread.
pub fn disarm() {
    ARMED.with(|a| *a.borrow_mut() = None);
}

/// Whether a fault is currently armed for `label`. The guard forces
/// validation on for such a pass, so release-build sampling cannot let an
/// injected corruption escape.
pub fn armed_for(label: &str) -> bool {
    ARMED.with(|a| a.borrow().as_ref().is_some_and(|p| p.pass == label))
}

fn take_if(label: &str, want: impl Fn(&FaultKind) -> bool) -> Option<FaultPlan> {
    ARMED.with(|a| {
        let mut slot = a.borrow_mut();
        if slot
            .as_ref()
            .is_some_and(|p| p.pass == label && want(&p.kind))
        {
            slot.take()
        } else {
            None
        }
    })
}

/// Guard hook: fires before the pass body. [`FaultKind::PanicBefore`]
/// panics; [`FaultKind::Stall`] sleeps.
pub fn fire_before(label: &str) {
    if let Some(plan) = take_if(label, |k| {
        matches!(k, FaultKind::PanicBefore | FaultKind::Stall(_))
    }) {
        match plan.kind {
            FaultKind::PanicBefore => panic!("injected fault: panic before '{label}'"),
            FaultKind::Stall(d) => std::thread::sleep(d),
            _ => unreachable!(),
        }
    }
}

/// Guard hook: fires after the pass body returned `Ok`.
/// [`FaultKind::PanicAfter`] panics (with the pass's edits applied — the
/// rollback path); [`FaultKind::BadUnitary`] splices a non-unitary node.
pub fn fire_after(label: &str, dag: &mut Dag) {
    if let Some(plan) = take_if(label, |k| {
        matches!(k, FaultKind::PanicAfter | FaultKind::BadUnitary)
    }) {
        match plan.kind {
            FaultKind::PanicAfter => panic!("injected fault: panic after '{label}'"),
            FaultKind::BadUnitary => corrupt(dag),
            _ => unreachable!(),
        }
    }
}

/// Serve-perimeter hook: fires *any* armed kind at a point with no DAG in
/// scope (the `qc-serve` stage labels `"serve:admission"`, `"serve:cache"`,
/// `"serve:compile"`, `"serve:response"`). [`FaultKind::Stall`] sleeps;
/// every other kind panics — at a serve point there is no DAG to corrupt,
/// so `BadUnitary` degenerates to a panic, which is the strictly harsher
/// failure anyway.
pub fn fire_point(label: &str) {
    if let Some(plan) = take_if(label, |_| true) {
        match plan.kind {
            FaultKind::Stall(d) => std::thread::sleep(d),
            _ => panic!("injected fault at '{label}'"),
        }
    }
}

/// Splices a deliberately non-unitary 2×2 embedded matrix after the last
/// node (or as the only node of an empty DAG).
fn corrupt(dag: &mut Dag) {
    if dag.num_qubits() == 0 {
        return;
    }
    let bad = Matrix::from_fn(2, 2, |_, _| C64::real(3.0));
    let last = dag.iter().last().map(|(id, inst)| (id, inst.clone()));
    match last {
        Some((id, inst)) => {
            let q = inst.qubits[0];
            let mut edit = DagEdit::new();
            edit.replace(id, vec![inst, Instruction::new(Gate::Unitary(bad), [q])]);
            dag.apply(edit);
        }
        None => {
            dag.replace_all(
                dag.num_qubits(),
                vec![Instruction::new(Gate::Unitary(bad), [0])],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_and_disarm() {
        disarm();
        arm(FaultPlan {
            pass: "X".into(),
            kind: FaultKind::Stall(Duration::ZERO),
        });
        assert!(armed_for("X"));
        assert!(!armed_for("Y"));
        fire_before("Y"); // wrong label: stays armed
        assert!(armed_for("X"));
        fire_before("X"); // fires (zero stall) and disarms
        assert!(!armed_for("X"));
    }

    #[test]
    fn bad_unitary_corrupts_the_dag() {
        use qc_circuit::Circuit;
        disarm();
        let mut c = Circuit::new(1);
        c.h(0);
        let mut dag = Dag::from_circuit(&c);
        arm(FaultPlan {
            pass: "P".into(),
            kind: FaultKind::BadUnitary,
        });
        fire_after("P", &mut dag);
        assert_eq!(dag.len(), 2);
        assert!(dag
            .iter()
            .any(|(_, i)| matches!(&i.gate, Gate::Unitary(m) if !m.is_unitary(1e-6))));
    }
}
