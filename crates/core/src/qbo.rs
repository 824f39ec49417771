//! The Quantum Basis-state Optimization (QBO) pass — paper Sections III, V.
//!
//! QBO walks the circuit in topological order carrying the basis-state
//! analysis, and applies the paper's strength-reduction rules wherever an
//! input qubit is in a known basis state:
//!
//! | gate | condition | rewrite |
//! |---|---|---|
//! | any 1q gate | input is an eigenvalue-1 eigenstate | remove (Eq. 7) |
//! | CNOT | control \|0⟩ | remove (Eq. 1) |
//! | CNOT | control \|1⟩ | X on target |
//! | CNOT | target \|+⟩ | remove (Table I) |
//! | CNOT | target \|−⟩ | Z on control (Appendix B) |
//! | CZ/CP | either \|0⟩ / \|1⟩ | remove / phase on the other |
//! | SWAP | one input basis | SWAPZ dressed with basis transforms (Table VI) |
//! | SWAP | both inputs basis | two 1q basis transforms (Table VI) |
//! | SWAPZ | first input not provably \|0⟩ | decompose to its 2 CNOTs (Sec. VII) |
//! | Toffoli/MCX | Eq. 8 | remove / demote / MCZ |
//! | MCZ | any \|0⟩ / \|1⟩ | remove / demote |
//! | Fredkin | control \|0⟩ / \|1⟩, target bases | remove / SWAP / expose CNOTs |
//! | controlled-U | control basis or target eigenstate | remove / U / phase |
//!
//! The pass is *relaxed*: rewrites preserve the circuit's action on the
//! reachable input (all qubits starting in |0⟩, plus annotations), not the
//! unitary matrix. With [`Qbo::phase_relaxed`], gates whose input is an
//! eigenstate with *any* eigenvalue are removed (the phase is global and
//! unobservable); the default matches the paper's eigenvalue-1 rule.

use crate::state::{basis_transform_gates, eigenphase_of, eigenphase_of_2x2, StateAnalysis};
use qc_circuit::{BasisState, ChangeReport, Dag, DagEdit, Gate, Instruction};
use qc_math::C64;
use qc_transpile::{DagPass, PropertySet, TranspileError};
use std::collections::VecDeque;

/// The QBO pass.
#[derive(Clone, Debug, Default)]
pub struct Qbo {
    phase_relaxed: bool,
    extended_rules: bool,
}

impl Qbo {
    /// QBO with the paper's rules: eigenvalue-1 removal for single-qubit
    /// gates, ±1 eigenvalues for controlled-unitary targets, and
    /// controlled-phase simplification only in the CZ-equivalent case.
    pub fn new() -> Self {
        Qbo {
            phase_relaxed: false,
            extended_rules: false,
        }
    }

    /// QBO that also removes eigenstate gates with non-unit eigenvalue
    /// phases (still functionally sound: the phase is global). Used by the
    /// ablation benchmarks.
    pub fn phase_relaxed() -> Self {
        Qbo {
            phase_relaxed: true,
            extended_rules: false,
        }
    }

    /// QBO with this crate's rule generalizations beyond the paper: a
    /// controlled gate whose target is an eigenstate of *any* eigenvalue
    /// e^{iα} reduces to a `u1(α)` on its control (the paper stops at ±1),
    /// and `cp(λ)` with a |1⟩ input reduces to `u1(λ)` on the other qubit.
    /// Sound, strictly stronger, but *not* what the paper's artifact does —
    /// it collapses e.g. the whole QPE controlled-phase ladder, so the
    /// experiment harness uses the faithful default.
    pub fn with_extended_rules() -> Self {
        Qbo {
            phase_relaxed: false,
            extended_rules: true,
        }
    }

    /// Attempts one rewrite; `None` means the instruction is kept.
    fn rewrite(&self, inst: &Instruction, st: &StateAnalysis) -> Option<Vec<Instruction>> {
        let q = &inst.qubits;
        let basis = |i: usize| st.basis(q[i]).known();
        let one_q = |g: Gate, i: usize| Instruction::new(g, vec![q[i]]);
        match &inst.gate {
            // --- single-qubit gates: eigenstate removal (Eq. 7) ----------
            g if q.len() == 1 && g.is_unitary_gate() => {
                let v = st
                    .pure_state(q[0])
                    .state_vector()
                    .or_else(|| basis(0).map(|b| b.state_vector()))?;
                let m = g.matrix2x2().expect("unitary 1q gate");
                let lambda = eigenphase_of_2x2(&m, &v)?;
                if lambda.approx_eq(C64::ONE, 1e-9) || self.phase_relaxed {
                    Some(vec![])
                } else {
                    None
                }
            }
            // --- CNOT (Table I) -------------------------------------------
            Gate::Cx => match (basis(0), basis(1)) {
                (Some(BasisState::Zero), _) => Some(vec![]),
                (Some(BasisState::One), _) => Some(vec![one_q(Gate::X, 1)]),
                (_, Some(BasisState::Plus)) => Some(vec![]),
                (_, Some(BasisState::Minus)) => Some(vec![one_q(Gate::Z, 0)]),
                _ => None,
            },
            // --- CZ (Z-basis rules, Section V-B) --------------------------
            Gate::Cz => match (basis(0), basis(1)) {
                (Some(BasisState::Zero), _) | (_, Some(BasisState::Zero)) => Some(vec![]),
                (Some(BasisState::One), _) => Some(vec![one_q(Gate::Z, 1)]),
                (_, Some(BasisState::One)) => Some(vec![one_q(Gate::Z, 0)]),
                _ => None,
            },
            // --- controlled phase ------------------------------------------
            // The paper's Z-basis rules cover CZ (λ = π); the generalization
            // to arbitrary λ is gated behind `extended_rules`.
            Gate::Cp(l) => {
                let cz_like = (l - std::f64::consts::PI).abs() < 1e-12;
                match (basis(0), basis(1)) {
                    (Some(BasisState::Zero), _) | (_, Some(BasisState::Zero)) => Some(vec![]),
                    (Some(BasisState::One), _) if self.extended_rules || cz_like => {
                        Some(vec![one_q(Gate::U1(*l), 1)])
                    }
                    (_, Some(BasisState::One)) if self.extended_rules || cz_like => {
                        Some(vec![one_q(Gate::U1(*l), 0)])
                    }
                    _ => None,
                }
            }
            // --- SWAP (Table VI / Appendix F) ------------------------------
            Gate::Swap => match (basis(0), basis(1)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        return Some(vec![]);
                    }
                    let mut insts = Vec::new();
                    for g in basis_transform_gates(a, b) {
                        insts.push(one_q(g, 0));
                    }
                    for g in basis_transform_gates(b, a) {
                        insts.push(one_q(g, 1));
                    }
                    Some(insts)
                }
                (Some(a), None) => Some(swapz_dressed(a, q[0], q[1])),
                (None, Some(b)) => Some(swapz_dressed(b, q[1], q[0])),
                _ => None,
            },
            // --- SWAPZ validation (Section VII) ---------------------------
            Gate::SwapZ => {
                if basis(0) == Some(BasisState::Zero) {
                    None // precondition holds; keep (the analysis swaps states)
                } else {
                    // Decompose into its defining two CNOTs (always sound).
                    Some(vec![
                        Instruction::new(Gate::Cx, vec![q[1], q[0]]),
                        Instruction::new(Gate::Cx, vec![q[0], q[1]]),
                    ])
                }
            }
            // --- Toffoli (Eq. 8) -------------------------------------------
            Gate::Ccx => match (basis(0), basis(1), basis(2)) {
                (Some(BasisState::Zero), _, _) | (_, Some(BasisState::Zero), _) => Some(vec![]),
                (_, _, Some(BasisState::Plus)) => Some(vec![]),
                (Some(BasisState::One), _, _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[1], q[2]])])
                }
                (_, Some(BasisState::One), _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[0], q[2]])])
                }
                (_, _, Some(BasisState::Minus)) => {
                    Some(vec![Instruction::new(Gate::Cz, vec![q[0], q[1]])])
                }
                _ => None,
            },
            // --- multi-controlled X (Eq. 8 generalized) --------------------
            Gate::Mcx(n) => {
                let controls = &q[..*n];
                let target = q[*n];
                if controls
                    .iter()
                    .any(|&c| st.basis(c).known() == Some(BasisState::Zero))
                {
                    return Some(vec![]);
                }
                if st.basis(target).known() == Some(BasisState::Plus) {
                    return Some(vec![]);
                }
                let remaining: Vec<usize> = controls
                    .iter()
                    .copied()
                    .filter(|&c| st.basis(c).known() != Some(BasisState::One))
                    .collect();
                if st.basis(target).known() == Some(BasisState::Minus) {
                    // Retarget onto a control: MCX → MCZ (symmetric). With
                    // no remaining controls the gate is a global −1 phase.
                    return Some(match make_mcz(&remaining) {
                        Some(i) => vec![i],
                        None => vec![],
                    });
                }
                if remaining.len() < controls.len() {
                    return Some(vec![make_mcx(&remaining, target)]);
                }
                None
            }
            // --- multi-controlled Z (symmetric) ----------------------------
            Gate::Mcz(_) => {
                if q.iter()
                    .any(|&c| st.basis(c).known() == Some(BasisState::Zero))
                {
                    return Some(vec![]);
                }
                let remaining: Vec<usize> = q
                    .iter()
                    .copied()
                    .filter(|&c| st.basis(c).known() != Some(BasisState::One))
                    .collect();
                if remaining.len() < q.len() {
                    return Some(match make_mcz(&remaining) {
                        Some(i) => vec![i],
                        None => vec![], // all qubits |1⟩: a global phase
                    });
                }
                None
            }
            // --- Fredkin (Section V-C) --------------------------------------
            Gate::Cswap => {
                let (c, t1, t2) = (q[0], q[1], q[2]);
                match st.basis(c).known() {
                    Some(BasisState::Zero) => return Some(vec![]),
                    Some(BasisState::One) => {
                        return Some(vec![Instruction::new(Gate::Swap, vec![t1, t2])])
                    }
                    _ => {}
                }
                let (b1, b2) = (st.basis(t1).known(), st.basis(t2).known());
                if b1.is_some() && b1 == b2 {
                    // Swapping two identical basis states is a no-op.
                    return Some(vec![]);
                }
                // Expose the decomposition when its first CNOT can fire
                // (the paper's "optimize the first CNOT accordingly").
                let first_cx_fires = |ctrl: Option<BasisState>, tgt: Option<BasisState>| {
                    matches!(ctrl, Some(BasisState::Zero) | Some(BasisState::One))
                        || matches!(tgt, Some(BasisState::Plus) | Some(BasisState::Minus))
                };
                if first_cx_fires(b2, b1) {
                    return Some(vec![
                        Instruction::new(Gate::Cx, vec![t2, t1]),
                        Instruction::new(Gate::Ccx, vec![c, t1, t2]),
                        Instruction::new(Gate::Cx, vec![t2, t1]),
                    ]);
                }
                if first_cx_fires(b1, b2) {
                    return Some(vec![
                        Instruction::new(Gate::Cx, vec![t1, t2]),
                        Instruction::new(Gate::Ccx, vec![c, t2, t1]),
                        Instruction::new(Gate::Cx, vec![t1, t2]),
                    ]);
                }
                None
            }
            // --- controlled-U (Section V-C, generalized eigenphase) --------
            Gate::Cu(u) => {
                match basis(0) {
                    Some(BasisState::Zero) => return Some(vec![]),
                    Some(BasisState::One) => {
                        let g = qc_synth::matrix_to_u3_gate(u);
                        return Some(if matches!(g, Gate::I) {
                            vec![]
                        } else {
                            vec![one_q(g, 1)]
                        });
                    }
                    _ => {}
                }
                let v = st
                    .pure_state(q[1])
                    .state_vector()
                    .or_else(|| basis(1).map(|b| b.state_vector()))?;
                let lambda = eigenphase_of(u, &v)?;
                if lambda.approx_eq(C64::ONE, 1e-9) {
                    Some(vec![]) // |ψ+⟩ (eigenvalue +1): remove
                } else if lambda.approx_eq(C64::real(-1.0), 1e-9) {
                    Some(vec![one_q(Gate::Z, 0)]) // |ψ−⟩: Z on the control
                } else if self.extended_rules {
                    // Generalization beyond the paper: any eigenphase acts
                    // as a phase gate on the control.
                    Some(vec![one_q(Gate::U1(lambda.arg()), 0)])
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// SWAP with one basis-state input → dressed SWAPZ (Eq. 5 specialized to
/// basis states, Table VI): undo the basis state to |0⟩, SWAPZ, re-create
/// it on the other wire.
fn swapz_dressed(b: BasisState, known_q: usize, other_q: usize) -> Vec<Instruction> {
    let mut insts = Vec::new();
    for g in basis_transform_gates(b, BasisState::Zero) {
        insts.push(Instruction::new(g, vec![known_q]));
    }
    insts.push(Instruction::new(Gate::SwapZ, vec![known_q, other_q]));
    for g in basis_transform_gates(BasisState::Zero, b) {
        insts.push(Instruction::new(g, vec![other_q]));
    }
    insts
}

fn make_mcx(controls: &[usize], target: usize) -> Instruction {
    let mut qs = controls.to_vec();
    qs.push(target);
    match controls.len() {
        0 => Instruction::new(Gate::X, vec![target]),
        1 => Instruction::new(Gate::Cx, qs),
        2 => Instruction::new(Gate::Ccx, qs),
        n => Instruction::new(Gate::Mcx(n), qs),
    }
}

fn make_mcz(qubits: &[usize]) -> Option<Instruction> {
    match qubits.len() {
        0 => None, // the gate degenerated to a global phase
        1 => Some(Instruction::new(Gate::Z, vec![qubits[0]])),
        2 => Some(Instruction::new(Gate::Cz, qubits.to_vec())),
        n => Some(Instruction::new(Gate::Mcz(n - 1), qubits.to_vec())),
    }
}

impl Qbo {
    /// Runs the analysis-driven rewrite over the DAG in program order,
    /// returning one edit that replaces each node on which a rewrite chain
    /// fired by the chain's final gates (possibly none).
    ///
    /// # Errors
    ///
    /// Fails when a rewrite chain does not terminate (a bug).
    fn plan(&self, dag: &Dag) -> Result<DagEdit, TranspileError> {
        let num_qubits = dag.num_qubits();
        let mut st = StateAnalysis::new(num_qubits);
        let mut edit = DagEdit::new();
        for (id, inst) in dag.iter() {
            let mut queue: VecDeque<Instruction> = VecDeque::new();
            queue.push_back(inst.clone());
            let mut budget = 64 + 4 * num_qubits;
            let mut kept: Vec<Instruction> = Vec::new();
            let mut rewritten = false;
            while let Some(cur) = queue.pop_front() {
                if budget == 0 {
                    return Err(TranspileError::Internal(
                        "QBO rewrite did not terminate".into(),
                    ));
                }
                budget -= 1;
                match self.rewrite(&cur, &st) {
                    Some(replacement) => {
                        rewritten = true;
                        for r in replacement.into_iter().rev() {
                            queue.push_front(r);
                        }
                    }
                    None => {
                        st.transition(&cur.gate, &cur.qubits);
                        kept.push(cur);
                    }
                }
            }
            if rewritten {
                edit.replace(id, kept);
            }
        }
        Ok(edit)
    }
}

impl DagPass for Qbo {
    fn name(&self) -> &'static str {
        "QBO"
    }

    fn preserves_unitary(&self) -> bool {
        // Relaxed peephole rewrites: the unitary changes, only behavior
        // from the prepared initial state is preserved — the guard must
        // not spot-check QBO's matrix.
        false
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let edit = self.plan(dag)?;
        Ok(dag.apply(edit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::Circuit;
    use qc_sim::same_output_state;
    use qc_transpile::Pass;

    fn qbo(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Qbo::new().run(&mut out).unwrap();
        assert!(
            same_output_state(c, &out, 1e-8),
            "QBO changed functional behavior\nbefore:\n{c}\nafter:\n{out}"
        );
        out
    }

    #[test]
    fn one_qubit_unitary_blocks_survive_qbo() {
        // Regression: a 1-qubit Gate::Unitary (synthesized by the Unroller,
        // and legal user input before unrolling) must flow through the
        // eigenstate rule without panicking.
        let mut c = Circuit::new(2);
        c.push(Gate::Unitary(Gate::Z.matrix().unwrap()), &[0]); // |0⟩ eigenstate, λ=1
        c.push(Gate::Unitary(Gate::H.matrix().unwrap()), &[1]);
        c.cx(0, 1);
        let out = qbo(&c);
        // Z on |0⟩ is removed by Eq. 7, and the CX goes with it (its control
        // is still provably |0⟩); only the H block survives.
        assert_eq!(out.gate_counts().total, 1);
        assert!(matches!(out.instructions()[0].gate, Gate::Unitary(_)));
    }

    #[test]
    fn cnot_with_zero_control_removed() {
        // Eq. 1 — the paper's introductory example.
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1);
        assert_eq!(qbo(&c).gate_counts().cx, 0);
    }

    #[test]
    fn cnot_with_one_control_becomes_x() {
        let mut c = Circuit::new(2);
        c.x(0).rx(0.8, 1).cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 2);
    }

    #[test]
    fn cnot_one_control_chained_removal_on_plus_target() {
        // control |1⟩ → X on target, and X on |+⟩ then removes itself.
        let mut c = Circuit::new(2);
        c.x(0).h(1).cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 1);
    }

    #[test]
    fn cnot_with_plus_target_removed() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1); // control |+⟩ unknown-ish, target |+⟩ ⇒ remove
        assert_eq!(qbo(&c).gate_counts().cx, 0);
    }

    #[test]
    fn cnot_with_minus_target_becomes_z_on_control() {
        // Boolean→phase oracle kernel (Fig. 10): ancilla in |−⟩.
        let mut c = Circuit::new(2);
        c.h(0).x(1).h(1).cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("z"), 1);
        // The Z lands on the (former) control.
        let z = out
            .instructions()
            .iter()
            .find(|i| i.gate.name() == "z")
            .unwrap();
        assert_eq!(z.qubits, vec![0]);
    }

    #[test]
    fn z_from_minus_rule_is_dropped_when_control_zero() {
        // Control |0⟩ wins first (remove); Table I bottom-left region.
        let mut c = Circuit::new(2);
        c.x(1).h(1).cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("z"), 0);
    }

    #[test]
    fn eigenstate_gate_removed() {
        // X on |+⟩ (Eq. 7's example).
        let mut c = Circuit::new(1);
        c.h(0).x(0);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().total, 1); // only the H remains
    }

    #[test]
    fn eigenstate_with_phase_kept_by_default_removed_when_relaxed() {
        // Z on |1⟩ has eigenvalue −1.
        let mut c = Circuit::new(1);
        c.x(0).z(0);
        let strict = qbo(&c);
        assert_eq!(strict.count_name("z"), 1);
        let mut relaxed = c.clone();
        Qbo::phase_relaxed().run(&mut relaxed).unwrap();
        assert_eq!(relaxed.count_name("z"), 0);
        assert!(same_output_state(&c, &relaxed, 1e-8));
    }

    #[test]
    fn cz_rules() {
        let mut c = Circuit::new(2);
        c.h(1).cz(0, 1); // qubit 0 in |0⟩ ⇒ removed
        assert_eq!(qbo(&c).count_name("cz"), 0);
        let mut c = Circuit::new(2);
        c.x(0).h(1).cz(0, 1); // qubit 0 in |1⟩ ⇒ Z on qubit 1
        let out = qbo(&c);
        assert_eq!(out.count_name("cz"), 0);
        assert_eq!(out.count_name("z"), 1);
    }

    #[test]
    fn swap_with_zero_becomes_swapz() {
        // Eq. 4.
        let mut c = Circuit::new(2);
        c.rx(0.8, 1).swap(0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("swap"), 0);
        assert_eq!(out.count_name("swapz"), 1);
        // SWAPZ's zero side must be qubit 0.
        let sz = out
            .instructions()
            .iter()
            .find(|i| i.gate.name() == "swapz")
            .unwrap();
        assert_eq!(sz.qubits[0], 0);
    }

    #[test]
    fn swap_with_one_becomes_dressed_swapz() {
        let mut c = Circuit::new(2);
        c.x(0).rx(0.8, 1).swap(0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("swap"), 0);
        assert_eq!(out.count_name("swapz"), 1);
        // Dressing: X before on the |1⟩ wire, X after on the other.
        assert!(out.count_name("x") >= 2);
    }

    #[test]
    fn swap_with_two_known_bases_is_local() {
        // Table VI: |0⟩ vs |−⟩ — no CNOTs at all.
        let mut c = Circuit::new(2);
        c.x(1).h(1).swap(0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("swap"), 0);
        assert_eq!(out.count_name("swapz"), 0);
        assert_eq!(out.gate_counts().cx, 0);
    }

    #[test]
    fn swap_same_states_removed() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).swap(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().total, 2);
    }

    #[test]
    fn invalid_swapz_decomposed() {
        let mut c = Circuit::new(2);
        c.x(0).swapz(0, 1); // arg0 is |1⟩, not |0⟩!
        let out = qbo(&c);
        assert_eq!(out.count_name("swapz"), 0);
        // Decomposed, then the CNOTs simplify against |1⟩/|0⟩ states.
        assert!(same_output_state(&c, &out, 1e-8));
    }

    #[test]
    fn toffoli_rules() {
        // Control |0⟩ ⇒ gone.
        let mut c = Circuit::new(3);
        c.h(1).h(2).ccx(0, 1, 2);
        assert_eq!(qbo(&c).count_name("ccx"), 0);
        // Control |1⟩ ⇒ CNOT.
        let mut c = Circuit::new(3);
        c.x(0).rx(1.0, 1).rx(0.5, 2).ccx(0, 1, 2);
        let out = qbo(&c);
        assert_eq!(out.count_name("ccx"), 0);
        assert_eq!(out.gate_counts().cx, 1);
        // Both controls |1⟩ ⇒ plain X.
        let mut c = Circuit::new(3);
        c.x(0).x(1).rx(0.5, 2).ccx(0, 1, 2);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 3);
        // Target |−⟩ ⇒ CZ on the controls.
        let mut c = Circuit::new(3);
        c.rx(1.0, 0).rx(0.5, 1).x(2).h(2).ccx(0, 1, 2);
        let out = qbo(&c);
        assert_eq!(out.count_name("ccx"), 0);
        assert_eq!(out.count_name("cz"), 1);
        // Target |+⟩ ⇒ gone.
        let mut c = Circuit::new(3);
        c.rx(1.0, 0).rx(0.5, 1).h(2).ccx(0, 1, 2);
        assert_eq!(qbo(&c).count_name("ccx"), 0);
    }

    #[test]
    fn mcx_demotion_chain() {
        // Four controls: one |1⟩ drops out, one |0⟩ kills the gate.
        let mut c = Circuit::new(5);
        c.x(0).rx(0.7, 1).rx(0.7, 2).rx(0.7, 3).rx(0.5, 4);
        c.mcx(&[0, 1, 2, 3], 4);
        let out = qbo(&c);
        // The |1⟩ control drops out: Mcx(4) demotes to Mcx(3).
        assert_eq!(out.count_name("mcx"), 1);
        let mcx = out
            .instructions()
            .iter()
            .find(|i| i.gate.name() == "mcx")
            .unwrap();
        assert_eq!(mcx.qubits.len(), 4);
        let mut c = Circuit::new(5);
        c.rx(0.7, 1).rx(0.7, 2).rx(0.7, 3).rx(0.5, 4);
        c.mcx(&[0, 1, 2, 3], 4);
        assert_eq!(qbo(&c).count_name("mcx"), 0);
    }

    #[test]
    fn mcz_demotion() {
        let mut c = Circuit::new(4);
        c.x(0).rx(0.7, 1).rx(0.7, 2).rx(0.5, 3);
        c.mcz(&[0, 1, 2], 3);
        let out = qbo(&c);
        // The |1⟩ control drops out: Mcz(3) demotes to Mcz(2) on the three
        // remaining qubits.
        assert_eq!(out.count_name("mcz"), 1);
        let mcz = out
            .instructions()
            .iter()
            .find(|i| i.gate.name() == "mcz")
            .unwrap();
        assert_eq!(mcz.qubits.len(), 3);
        assert!(same_output_state(&c, &out, 1e-8));
    }

    #[test]
    fn fredkin_rules() {
        // Control |0⟩ ⇒ removed.
        let mut c = Circuit::new(3);
        c.rx(0.3, 1).rx(0.4, 2).cswap(0, 1, 2);
        assert_eq!(qbo(&c).count_name("cswap"), 0);
        // Control |1⟩ ⇒ swap (which may simplify further).
        let mut c = Circuit::new(3);
        c.x(0).rx(0.3, 1).rx(0.4, 2).cswap(0, 1, 2);
        let out = qbo(&c);
        assert_eq!(out.count_name("cswap"), 0);
        // t2 = |0⟩ exposes the decomposition and kills the first CNOT.
        let mut c = Circuit::new(3);
        c.rx(0.3, 0).rx(0.4, 1).cswap(0, 1, 2);
        let out = qbo(&c);
        assert_eq!(out.count_name("cswap"), 0);
        assert!(same_output_state(&c, &out, 1e-8));
    }

    #[test]
    fn controlled_u_rules() {
        let t = Gate::T.matrix().unwrap();
        // Control |0⟩.
        let mut c = Circuit::new(2);
        c.rx(0.3, 1).cu(t.clone(), 0, 1);
        assert_eq!(qbo(&c).count_name("cu"), 0);
        // Control |1⟩ → bare U.
        let mut c = Circuit::new(2);
        c.x(0).rx(0.3, 1).cu(t.clone(), 0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("cu"), 0);
        assert_eq!(out.count_name("u1"), 1);
        // Target |0⟩ is a T eigenstate with eigenvalue 1 → removed.
        let mut c = Circuit::new(2);
        c.rx(0.3, 0).cu(t.clone(), 0, 1);
        assert_eq!(qbo(&c).count_name("cu"), 0);
        // Target |1⟩ is a T eigenstate with phase e^{iπ/4}: the paper's ±1
        // rule does NOT cover it — the gate stays by default…
        let mut c = Circuit::new(2);
        c.rx(0.3, 0).x(1).cu(t.clone(), 0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("cu"), 1);
        // …but the extended-rules mode reduces it to u1 on the control.
        let mut ext = c.clone();
        Qbo::with_extended_rules().run(&mut ext).unwrap();
        assert_eq!(ext.count_name("cu"), 0);
        assert_eq!(ext.count_name("u1"), 1);
        assert!(same_output_state(&c, &ext, 1e-8));
        // An eigenvalue −1 target (|1⟩ under Z) → Z on the control, per the
        // paper.
        let mut c = Circuit::new(2);
        c.rx(0.3, 0).x(1).cu(Gate::Z.matrix().unwrap(), 0, 1);
        let out = qbo(&c);
        assert_eq!(out.count_name("cu"), 0);
        assert_eq!(out.count_name("z"), 1);
    }

    #[test]
    fn boolean_oracle_becomes_phase_oracle() {
        // Fig. 10: the 4-qubit Bernstein–Vazirani boolean oracle with
        // s = 1011 collapses into Z gates on the data qubits.
        let n = 4;
        let mut c = Circuit::new(n + 1);
        // Ancilla in |−⟩:
        c.x(n).h(n);
        for q in 0..n {
            c.h(q);
        }
        for (q, bit) in [true, true, false, true].iter().enumerate() {
            if *bit {
                c.cx(q, n);
            }
        }
        for q in 0..n {
            c.h(q);
        }
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 0, "oracle CNOTs must vanish");
        assert_eq!(out.count_name("z"), 3, "one Z per set bit of s");
    }

    #[test]
    fn chained_rewrites_converge() {
        // A CNOT rewritten to X(target) whose target is |+⟩ then removes
        // itself entirely.
        let mut c = Circuit::new(2);
        c.x(0).h(1).cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().total, 2); // only the preparations
    }

    #[test]
    fn states_recovered_after_reset_and_annot() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1); // entangle: both ⊤ now
        c.reset(0);
        c.cx(0, 1); // control |0⟩ again ⇒ removed
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 1);
        // A *truthful* annotation: uncompute back to |0⟩ first (the
        // analysis alone cannot see through the entangling pair).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).cx(0, 1).h(0); // qubit 0 provably-but-invisibly |0⟩
        c.annot(0.0, 0.0, 0);
        c.cx(0, 1);
        let out = qbo(&c);
        assert_eq!(out.gate_counts().cx, 2);
    }

    #[test]
    fn unknown_states_left_untouched() {
        let mut c = Circuit::new(2);
        c.rx(0.4, 0).rx(0.9, 1).cx(0, 1).cz(0, 1).swap(0, 1);
        let out = qbo(&c);
        // rx leaves non-basis states; nothing may fire except... nothing.
        assert_eq!(out.count_name("swap"), 1);
        assert_eq!(out.count_name("cz"), 1);
        assert_eq!(out.gate_counts().cx, 1);
    }
}
