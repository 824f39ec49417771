//! The Quantum Pure-state Optimization (QPO) pass — paper Sections IV, V-D.
//!
//! QPO runs the pure-state analysis (per-qubit Bloch parameters) and
//! applies the rewrites that need *pure* (not necessarily basis) states:
//!
//! * **SWAP with one known pure state** (Eq. 5): `U†` on the pure wire,
//!   a SWAPZ, and `U` on the other wire — one CNOT saved, two single-qubit
//!   gates added (which `Optimize1qGates` usually merges away).
//! * **SWAP with two known pure states** (Eq. 6): two local gates `V`,
//!   `V†` — all three CNOTs saved.
//! * **Valid SWAPZ with a known partner state**: both states known means
//!   the swap is a relabeling — two local gates, two CNOTs saved.
//! * **Fredkin with two known pure targets** (Eq. 9): two controlled-U
//!   gates (≤ 4 CNOTs vs 8 for the decomposed Fredkin).
//! * **Two-qubit blocks with known pure inputs** (Section V-D): the block
//!   output `|φ⟩ = U_block |ψπ⟩` is computed statically and the block is
//!   replaced by an *un-preparation* of the inputs plus a state-preparation
//!   circuit for `|φ⟩` (one CNOT via the Schmidt decomposition, Fig. 4).

use crate::analysis::WireStates;
use crate::state::{vector_to_bloch, PureTracked, StateAnalysis};
use qc_circuit::gate::u3_matrix;
use qc_circuit::{circuit_unitary, Block, ChangeReport, Circuit, Dag, DagEdit, Gate, Instruction};
use qc_math::{Matrix, C64};
use qc_synth::{matrix_to_u3_gate, prepare_two_qubit};
use qc_transpile::{DagPass, PropertySet, TranspileError};

/// The QPO pass.
#[derive(Clone, Debug)]
pub struct Qpo {
    optimize_blocks: bool,
}

impl Default for Qpo {
    fn default() -> Self {
        Qpo::new()
    }
}

impl Qpo {
    /// Full QPO, including the two-qubit-block state-preparation rewrite.
    pub fn new() -> Self {
        Qpo {
            optimize_blocks: true,
        }
    }

    /// QPO without the block rewrite (used by the ablation benchmarks).
    pub fn without_block_optimization() -> Self {
        Qpo {
            optimize_blocks: false,
        }
    }
}

/// The preparation matrix `u3(θ, φ, 0)` with `|ψ(θ,φ)⟩ = u3(θ,φ,0)|0⟩`.
fn prep_matrix(theta: f64, phi: f64) -> Matrix {
    u3_matrix(theta, phi, 0.0)
}

fn push_local(insts: &mut Vec<Instruction>, m: &Matrix, q: usize) {
    let g = matrix_to_u3_gate(m);
    if !matches!(g, Gate::I) {
        insts.push(Instruction::new(g, vec![q]));
    }
}

fn rewrite(inst: &Instruction, st: &StateAnalysis) -> Option<Vec<Instruction>> {
    let q = &inst.qubits;
    let pure = |i: usize| st.pure_state(q[i]);
    match &inst.gate {
        Gate::Swap => match (pure(0), pure(1)) {
            (
                PureTracked::Pure { theta: t0, phi: p0 },
                PureTracked::Pure { theta: t1, phi: p1 },
            ) => {
                // Eq. 6: V maps |ψ₀⟩→|ψ₁⟩ on wire 0; V† the reverse on wire 1.
                let v = prep_matrix(t1, p1).matmul(&prep_matrix(t0, p0).adjoint());
                let mut insts = Vec::new();
                push_local(&mut insts, &v, q[0]);
                push_local(&mut insts, &v.adjoint(), q[1]);
                Some(insts)
            }
            (PureTracked::Pure { theta, phi }, PureTracked::Top) => {
                Some(dressed_swapz(theta, phi, q[0], q[1]))
            }
            (PureTracked::Top, PureTracked::Pure { theta, phi }) => {
                Some(dressed_swapz(theta, phi, q[1], q[0]))
            }
            _ => None,
        },
        Gate::SwapZ => {
            // A valid SWAPZ has wire 0 in |0⟩. If the partner is also a
            // known pure state, the swap is pure relabeling: prepare |ψ⟩ on
            // wire 0 and un-prepare wire 1 — zero CNOTs.
            let zero0 = matches!(pure(0), PureTracked::Pure { theta, .. } if theta.abs() < 1e-9);
            if !zero0 {
                return None;
            }
            if let PureTracked::Pure { theta, phi } = pure(1) {
                let p = prep_matrix(theta, phi);
                let mut insts = Vec::new();
                push_local(&mut insts, &p, q[0]);
                push_local(&mut insts, &p.adjoint(), q[1]);
                Some(insts)
            } else {
                None
            }
        }
        Gate::Cswap => {
            // Eq. 9: both targets in known pure states.
            let (p1, p2) = (pure(1), pure(2));
            if let (
                PureTracked::Pure { theta: t1, phi: f1 },
                PureTracked::Pure { theta: t2, phi: f2 },
            ) = (p1, p2)
            {
                let v = prep_matrix(t2, f2).matmul(&prep_matrix(t1, f1).adjoint());
                if v.equal_up_to_global_phase(&Matrix::identity(2), 1e-9) {
                    return Some(vec![]); // identical states: swap is trivial
                }
                return Some(vec![
                    Instruction::new(Gate::Cu(v.clone()), vec![q[0], q[1]]),
                    Instruction::new(Gate::Cu(v.adjoint()), vec![q[0], q[2]]),
                ]);
            }
            None
        }
        _ => None,
    }
}

/// Eq. 5: SWAP with wire `pq` in the known pure state (θ, φ):
/// `U†` on `pq`, SWAPZ(pq, other), `U` on `other`.
fn dressed_swapz(theta: f64, phi: f64, pq: usize, other: usize) -> Vec<Instruction> {
    let u = prep_matrix(theta, phi);
    let mut insts = Vec::new();
    push_local(&mut insts, &u.adjoint(), pq);
    insts.push(Instruction::new(Gate::SwapZ, vec![pq, other]));
    push_local(&mut insts, &u, other);
    insts
}

/// Phase 1: the per-node rewrites driven by the running analysis, in
/// program order, as one edit.
fn plan_rewrites(dag: &Dag) -> DagEdit {
    let mut st = StateAnalysis::new(dag.num_qubits());
    let mut edit = DagEdit::new();
    for (id, inst) in dag.iter() {
        match rewrite(inst, &st) {
            Some(replacement) => {
                // Rewrites produce already-final gates; no re-queueing
                // needed (they are 1q gates, SWAPZ or controlled-U).
                for r in &replacement {
                    st.transition(&r.gate, &r.qubits);
                }
                edit.replace(id, replacement);
            }
            None => st.transition(&inst.gate, &inst.qubits),
        }
    }
    edit
}

impl DagPass for Qpo {
    fn name(&self) -> &'static str {
        "QPO"
    }

    fn preserves_unitary(&self) -> bool {
        // Relaxed rewrites (like QBO): unitary equivalence is deliberately
        // given up, so the guard's spot check does not apply.
        false
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let edit = plan_rewrites(dag);
        let mut total = dag.apply(edit);
        if !self.optimize_blocks {
            return Ok(total);
        }
        // Phase 2, the two-qubit block state-preparation rewrite, over the
        // blocks and per-wire entry states of the DAG phase 1 left.
        let blocks = dag.collect_blocks(2);
        if blocks.is_empty() {
            return Ok(total);
        }
        let states = WireStates::compute(dag);
        let (drop, replace_at) = plan_block_rewrites(dag, &blocks, &states);
        let mut edit = DagEdit::new();
        for (i, r) in replace_at.into_iter().enumerate() {
            if let Some(mapped) = r {
                edit.replace(i, mapped);
            } else if drop[i] {
                edit.remove(i);
            }
        }
        total.merge(&dag.apply(edit));
        Ok(total)
    }
}

/// Section V-D: the plan replacing two-qubit blocks whose inputs are known
/// pure states (per `states`) with an un-prepare + state-preparation
/// circuit when that lowers the CNOT count, indexed by node id: `drop[id]`
/// marks block members to delete, `replace_at[id]` holds the replacement
/// spliced at the block's last node.
fn plan_block_rewrites(
    dag: &Dag,
    blocks: &[Block],
    states: &WireStates,
) -> (Vec<bool>, Vec<Option<Vec<Instruction>>>) {
    // Wire-local position of every node's qubits (indexed by node id), so
    // block-entry states can be looked up in the per-wire trajectories.
    let mut next_k = vec![0usize; dag.num_qubits()];
    let mut wire_pos: Vec<Vec<(usize, usize)>> = vec![Vec::new(); dag.capacity()];
    for (id, inst) in dag.iter() {
        let mut ks = Vec::with_capacity(inst.qubits.len());
        for &q in &inst.qubits {
            ks.push((q, next_k[q]));
            next_k[q] += 1;
        }
        wire_pos[id] = ks;
    }
    // The pure-domain state of `wire` just before node `node`.
    let entry_pure = |w: usize, node: usize| -> PureTracked {
        let &(_, k) = wire_pos[node]
            .iter()
            .find(|&&(q, _)| q == w)
            .expect("node touches the wire");
        states.entry(w, k).1
    };
    let mut drop = vec![false; dag.capacity()];
    let mut replace_at: Vec<Option<Vec<Instruction>>> = vec![None; dag.capacity()];
    for block in blocks {
        let (a, b) = (block.qubits[0], block.qubits[1]);
        // Entry state of each wire at its first gate inside the block.
        let first_for = |w: usize| {
            block
                .nodes
                .iter()
                .copied()
                .find(|&n| dag.inst(n).qubits.contains(&w))
        };
        let (Some(na), Some(nb)) = (first_for(a), first_for(b)) else {
            continue;
        };
        let (sa, sb) = (entry_pure(a, na), entry_pure(b, nb));
        let (Some(va), Some(vb)) = (sa.state_vector(), sb.state_vector()) else {
            continue;
        };
        // Local block circuit (a→0, b→1) and its CNOT cost.
        let mut local = Circuit::new(2);
        let mut cx_before = 0usize;
        for &n in &block.nodes {
            let inst = dag.inst(n);
            let qs: Vec<usize> = inst
                .qubits
                .iter()
                .map(|&w| if w == a { 0 } else { 1 })
                .collect();
            cx_before += match inst.gate {
                Gate::Cx | Gate::Cz => usize::from(inst.qubits.len() == 2),
                Gate::Swap => 3,
                Gate::SwapZ => 2,
                Gate::Cp(_) | Gate::Cu(_) => 2,
                _ => 0,
            };
            local.push(inst.gate.clone(), &qs);
        }
        if cx_before < 2 {
            continue; // the replacement needs up to 1 CNOT + locals
        }
        // Statically evaluate the block on the known product input.
        let u = circuit_unitary(&local);
        let input = [vb[0] * va[0], vb[0] * va[1], vb[1] * va[0], vb[1] * va[1]];
        let output = u.apply(&input);
        let mut replacement_circ = Circuit::new(2);
        // Un-prepare the known inputs back to |00⟩…
        let (ta, pa) = vector_to_bloch(&[va[0], va[1]]);
        let (tb, pb) = vector_to_bloch(&[vb[0], vb[1]]);
        let unprep_a = matrix_to_u3_gate(&prep_matrix(ta, pa).adjoint());
        let unprep_b = matrix_to_u3_gate(&prep_matrix(tb, pb).adjoint());
        if !matches!(unprep_a, Gate::I) {
            replacement_circ.push(unprep_a, &[0]);
        }
        if !matches!(unprep_b, Gate::I) {
            replacement_circ.push(unprep_b, &[1]);
        }
        // …then prepare the computed output (≤ 1 CNOT, Fig. 4).
        let output4: [C64; 4] = [output[0], output[1], output[2], output[3]];
        replacement_circ.extend(&prepare_two_qubit(&output4));
        let counts_new = replacement_circ.gate_counts();
        let counts_old = local.gate_counts();
        let better = counts_new.cx < cx_before
            || (counts_new.cx == cx_before && counts_new.total < counts_old.total);
        if !better {
            continue;
        }
        let mapped: Vec<Instruction> = replacement_circ
            .instructions()
            .iter()
            .map(|inst| {
                let qs: Vec<usize> = inst
                    .qubits
                    .iter()
                    .map(|&w| if w == 0 { a } else { b })
                    .collect();
                Instruction::new(inst.gate.clone(), qs)
            })
            .collect();
        for &n in &block.nodes {
            drop[n] = true;
        }
        replace_at[*block.nodes.last().expect("non-empty")] = Some(mapped);
    }
    (drop, replace_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_sim::same_output_state;
    use qc_transpile::Pass;

    fn qpo(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        Qpo::new().run(&mut out).unwrap();
        assert!(
            same_output_state(c, &out, 1e-8),
            "QPO changed functional behavior\nbefore:\n{c}\nafter:\n{out}"
        );
        out
    }

    #[test]
    fn swap_with_one_pure_state_becomes_swapz() {
        // Eq. 5: qubit 0 in a generic pure state, qubit 1 entangled with 2.
        let mut c = Circuit::new(3);
        c.u3(0.7, 0.3, 0.1, 0); // pure, not a basis state
        c.h(1).cx(1, 2); // qubit 1 becomes ⊤
        c.swap(0, 1);
        let out = qpo(&c);
        assert_eq!(out.count_name("swap"), 0);
        assert_eq!(out.count_name("swapz"), 1);
    }

    #[test]
    fn swap_with_two_pure_states_is_local() {
        // Eq. 6.
        let mut c = Circuit::new(2);
        c.u3(0.7, 0.3, 0.0, 0).u3(1.2, -0.5, 0.0, 1).swap(0, 1);
        let out = qpo(&c);
        assert_eq!(out.count_name("swap"), 0);
        assert_eq!(out.count_name("swapz"), 0);
        assert_eq!(out.gate_counts().cx, 0);
    }

    #[test]
    fn valid_swapz_with_pure_partner_is_local() {
        let mut c = Circuit::new(2);
        c.u3(0.9, 0.2, 0.0, 1).swapz(0, 1);
        let out = qpo(&c);
        assert_eq!(out.count_name("swapz"), 0);
        assert_eq!(out.gate_counts().cx, 0);
    }

    #[test]
    fn fredkin_with_pure_targets_becomes_two_cu() {
        // Eq. 9. Entangle the control with a bystander so the later block
        // pass cannot also fire (isolating the Fredkin rule).
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3); // control now ⊤ (entangled)
        c.u3(0.4, 0.0, 0.0, 1).u3(1.1, 0.6, 0.0, 2);
        c.cswap(0, 1, 2);
        let out = qpo(&c);
        assert_eq!(out.count_name("cswap"), 0);
        assert_eq!(out.count_name("cu"), 2);
    }

    #[test]
    fn fredkin_with_equal_pure_targets_removed() {
        let mut c = Circuit::new(3);
        c.h(0)
            .u3(0.4, 0.2, 0.0, 1)
            .u3(0.4, 0.2, 0.0, 2)
            .cswap(0, 1, 2);
        let out = qpo(&c);
        assert_eq!(out.count_name("cswap"), 0);
        assert_eq!(out.count_name("cu"), 0);
    }

    #[test]
    fn two_qubit_block_with_pure_inputs_collapses() {
        // Section V-D: a 3-CNOT block on known pure inputs needs ≤ 1 CNOT.
        let mut c = Circuit::new(2);
        c.u3(0.7, 0.1, 0.0, 0).u3(0.4, -0.3, 0.0, 1);
        c.cx(0, 1).t(1).cx(1, 0).s(0).cx(0, 1).h(0).h(1);
        let out = qpo(&c);
        assert!(
            out.gate_counts().cx <= 1,
            "block not collapsed: {} CNOTs",
            out.gate_counts().cx
        );
    }

    #[test]
    fn blocks_with_unknown_inputs_left_alone() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2); // entangle qubit 0 with 2
        c.cx(0, 1).t(1).cx(0, 1).s(0).cx(0, 1);
        let out = qpo(&c);
        // Qubit 0 is ⊤ at the block start: untouched.
        assert_eq!(out.gate_counts().cx, c.gate_counts().cx);
    }

    #[test]
    fn block_rewrite_respects_downstream_states() {
        // After the block, more gates use the (preserved) output state.
        let mut c = Circuit::new(2);
        c.u3(0.5, 0.0, 0.0, 0).u3(0.9, 0.4, 0.0, 1);
        c.cx(0, 1).t(1).cx(1, 0).cx(0, 1);
        c.h(0).t(1); // downstream
        let _ = qpo(&c); // functional equality asserted inside the helper
    }

    #[test]
    fn swap_on_entangled_wires_untouched() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).swap(0, 2);
        let out = qpo(&c);
        assert_eq!(out.count_name("swap"), 1);
    }

    #[test]
    fn annotation_enables_pure_rewrites() {
        // A qubit that was entangled but is asserted pure via ANNOT.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 0); // tangle qubits 0,1
        c.annot(0.7, 0.2, 0); // programmer knows better (e.g. uncomputation)
        c.rx(0.4, 2);
        // Build a state where annot is actually true so functional equality
        // holds: h;cx;cx leaves qubit 0 = |+⟩... use matching annot instead.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(0, 1); // qubit 0 back to |+⟩, unentangled
        c.annot(std::f64::consts::FRAC_PI_2, 0.0, 0); // assert |+⟩
        c.rx(0.4, 2);
        c.swap(0, 2);
        let out = qpo(&c);
        assert_eq!(out.count_name("swap"), 0);
    }

    #[test]
    fn without_block_optimization_skips_blocks() {
        let mut c = Circuit::new(2);
        c.u3(0.7, 0.1, 0.0, 0).u3(0.4, -0.3, 0.0, 1);
        c.cx(0, 1).t(1).cx(1, 0).s(0).cx(0, 1);
        let mut out = c.clone();
        Qpo::without_block_optimization().run(&mut out).unwrap();
        assert_eq!(out.gate_counts().cx, 3);
    }
}
