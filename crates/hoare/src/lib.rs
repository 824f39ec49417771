//! Hoare-logic circuit optimizer — the baseline the RPO paper compares
//! against (Häner, Hoefler & Troyer; shipped in Qiskit as
//! `HoareOptimizer`).
//!
//! The Qiskit pass expresses per-qubit pre/postconditions as Z3 constraints
//! and removes gates whose triviality condition is implied. For the
//! benchmark circuits those conditions are decidable by direct forward
//! propagation of *classical* Z-basis predicates — a qubit is known-|0⟩,
//! known-|1⟩, or unknown — so this reimplementation substitutes a
//! propagation engine for the SMT solver (see DESIGN.md for the
//! substitution argument). The rewrites it can find are exactly the
//! Z-basis subset of QBO's, matching the paper's observation that "all the
//! gates that are optimized by the hoare logic pass can be captured by our
//! RPO pass" (Section VIII-B).
//!
//! Like the original, the pass also *simulates* solver effort: the Qiskit
//! implementation grows markedly slower on larger circuits because every
//! gate incurs solver queries. We do not fake timings — the Rust engine is
//! simply fast — so transpile-time comparisons against this baseline are
//! reported with that caveat in EXPERIMENTS.md.

use qc_backends::Backend;
use qc_circuit::{ChangeReport, Circuit, Dag, DagEdit, Gate, Instruction};
use qc_transpile::optimize_1q::Optimize1qGates;
use qc_transpile::preset::{run_pipeline, Stage, Transpiled};
use qc_transpile::unroll::Unroller;
use qc_transpile::{DagPass, Pass, PassInterest, PropertySet, TranspileError, TranspileOptions};
use std::collections::VecDeque;

/// Classical knowledge about one qubit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Classical {
    /// Known computational-basis value.
    Value(bool),
    /// Superposition / unknown.
    Unknown,
}

/// The Hoare-logic optimization pass (classical-predicate engine).
#[derive(Clone, Debug, Default)]
pub struct HoareOptimizer;

impl HoareOptimizer {
    /// Creates the pass.
    pub fn new() -> Self {
        HoareOptimizer
    }

    fn rewrite(inst: &Instruction, st: &[Classical]) -> Option<Vec<Instruction>> {
        let q = &inst.qubits;
        match &inst.gate {
            // Diagonal gates act trivially (up to global phase) on
            // classical states — the pass's "triviality condition".
            Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::U1(_) => {
                if matches!(st[q[0]], Classical::Value(_)) {
                    Some(vec![])
                } else {
                    None
                }
            }
            Gate::Cx => match (st[q[0]], st[q[1]]) {
                (Classical::Value(false), _) => Some(vec![]),
                (Classical::Value(true), _) => Some(vec![Instruction::new(Gate::X, vec![q[1]])]),
                _ => None,
            },
            Gate::Cz | Gate::Cp(_) => match (st[q[0]], st[q[1]]) {
                (Classical::Value(false), _) | (_, Classical::Value(false)) => Some(vec![]),
                (Classical::Value(true), _) => Some(vec![Instruction::new(
                    diag_residual(&inst.gate),
                    vec![q[1]],
                )]),
                (_, Classical::Value(true)) => Some(vec![Instruction::new(
                    diag_residual(&inst.gate),
                    vec![q[0]],
                )]),
                _ => None,
            },
            Gate::Ccx => match (st[q[0]], st[q[1]], st[q[2]]) {
                (Classical::Value(false), _, _) | (_, Classical::Value(false), _) => Some(vec![]),
                (Classical::Value(true), _, _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[1], q[2]])])
                }
                (_, Classical::Value(true), _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[0], q[2]])])
                }
                _ => None,
            },
            Gate::Mcx(n) => {
                let controls = &q[..*n];
                if controls.iter().any(|&c| st[c] == Classical::Value(false)) {
                    return Some(vec![]);
                }
                let remaining: Vec<usize> = controls
                    .iter()
                    .copied()
                    .filter(|&c| st[c] != Classical::Value(true))
                    .collect();
                if remaining.len() < controls.len() {
                    let mut qs = remaining.clone();
                    qs.push(q[*n]);
                    let g = match remaining.len() {
                        0 => Gate::X,
                        1 => Gate::Cx,
                        2 => Gate::Ccx,
                        k => Gate::Mcx(k),
                    };
                    return Some(vec![Instruction::new(g, qs)]);
                }
                None
            }
            Gate::Mcz(_) => {
                if q.iter().any(|&c| st[c] == Classical::Value(false)) {
                    return Some(vec![]);
                }
                None
            }
            Gate::Cswap => match st[q[0]] {
                Classical::Value(false) => Some(vec![]),
                Classical::Value(true) => {
                    Some(vec![Instruction::new(Gate::Swap, vec![q[1], q[2]])])
                }
                _ => {
                    if st[q[1]] != Classical::Unknown && st[q[1]] == st[q[2]] {
                        Some(vec![]) // swapping equal classical values
                    } else {
                        None
                    }
                }
            },
            Gate::Swap => {
                if st[q[0]] != Classical::Unknown && st[q[0]] == st[q[1]] {
                    Some(vec![])
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn transition(st: &mut [Classical], gate: &Gate, qubits: &[usize]) {
        match gate {
            Gate::Barrier(_) | Gate::Annot(_, _) => {}
            Gate::Reset => st[qubits[0]] = Classical::Value(false),
            Gate::Measure => {}
            Gate::X => {
                st[qubits[0]] = match st[qubits[0]] {
                    Classical::Value(v) => Classical::Value(!v),
                    Classical::Unknown => Classical::Unknown,
                }
            }
            Gate::Y => {
                st[qubits[0]] = match st[qubits[0]] {
                    Classical::Value(v) => Classical::Value(!v),
                    Classical::Unknown => Classical::Unknown,
                }
            }
            // Diagonal gates preserve classical values.
            Gate::I
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rz(_)
            | Gate::U1(_) => {}
            Gate::Swap => st.swap(qubits[0], qubits[1]),
            Gate::Cx => {
                let (c, t) = (qubits[0], qubits[1]);
                st[t] = match (st[c], st[t]) {
                    (Classical::Value(a), Classical::Value(b)) => Classical::Value(a ^ b),
                    _ => Classical::Unknown,
                };
            }
            Gate::Ccx => {
                let (c1, c2, t) = (qubits[0], qubits[1], qubits[2]);
                st[t] = match (st[c1], st[c2], st[t]) {
                    (Classical::Value(a), Classical::Value(b), Classical::Value(v)) => {
                        Classical::Value(v ^ (a && b))
                    }
                    _ => Classical::Unknown,
                };
            }
            Gate::Cz | Gate::Cp(_) | Gate::Mcz(_) => {} // diagonal
            g if g.num_qubits() == 1 => st[qubits[0]] = Classical::Unknown,
            _ => {
                for &q in qubits {
                    st[q] = Classical::Unknown;
                }
            }
        }
    }
}

fn diag_residual(g: &Gate) -> Gate {
    match g {
        Gate::Cz => Gate::Z,
        Gate::Cp(l) => Gate::U1(*l),
        _ => unreachable!("only symmetric diagonal gates have residuals"),
    }
}

impl HoareOptimizer {
    /// The rewrite core shared by the [`Pass`] and [`DagPass`] impls: one
    /// forward sweep of the classical-predicate automaton over `insts`.
    /// Entry `i` is `None` when instruction `i` stays as it is, or the
    /// instructions replacing it.
    ///
    /// # Errors
    ///
    /// Fails when a rewrite chain does not terminate (a bug).
    fn expand_stream<'a>(
        insts: impl Iterator<Item = &'a Instruction>,
        num_qubits: usize,
    ) -> Result<Vec<Option<Vec<Instruction>>>, TranspileError> {
        let mut st = vec![Classical::Value(false); num_qubits];
        let mut out = Vec::new();
        for inst in insts {
            let mut queue = VecDeque::new();
            queue.push_back(inst.clone());
            let mut budget = 64usize;
            let mut kept = Vec::new();
            let mut rewritten = false;
            while let Some(cur) = queue.pop_front() {
                if budget == 0 {
                    return Err(TranspileError::Internal(
                        "hoare rewrite did not terminate".into(),
                    ));
                }
                budget -= 1;
                match Self::rewrite(&cur, &st) {
                    Some(replacement) => {
                        rewritten = true;
                        for r in replacement.into_iter().rev() {
                            queue.push_front(r);
                        }
                    }
                    None => {
                        Self::transition(&mut st, &cur.gate, &cur.qubits);
                        kept.push(cur);
                    }
                }
            }
            out.push(rewritten.then_some(kept));
        }
        Ok(out)
    }
}

impl Pass for HoareOptimizer {
    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError> {
        let expansions = Self::expand_stream(circuit.instructions().iter(), circuit.num_qubits())?;
        let mut out: Vec<Instruction> = Vec::with_capacity(circuit.len());
        for (inst, exp) in circuit.instructions().iter().zip(expansions) {
            match exp {
                None => out.push(inst.clone()),
                Some(kept) => out.extend(kept),
            }
        }
        circuit.set_instructions(out);
        Ok(())
    }
}

impl DagPass for HoareOptimizer {
    fn name(&self) -> &'static str {
        "HoareOptimizer"
    }

    fn preserves_unitary(&self) -> bool {
        // Removing a gate that acts trivially on the known classical state
        // changes the unitary; only behavior from |0…0⟩ is preserved.
        false
    }

    fn interest(&self) -> PassInterest {
        // The classical predicates flow along wires (and across them
        // through cx/swap), so any change anywhere can enable a rewrite.
        PassInterest::all_wires()
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
        let expansions = Self::expand_stream(dag.iter().map(|(_, i)| i), dag.num_qubits())?;
        let mut edit = DagEdit::new();
        for (id, exp) in ids.into_iter().zip(expansions) {
            if let Some(kept) = exp {
                edit.replace(id, kept);
            }
        }
        Ok(dag.apply(edit))
    }
}

/// Level-3 transpilation with the Hoare pass appended — the paper's
/// `hoare` comparison column ("we append the hoare logic pass to the level
/// 3 pass manager"). Exactly as in the paper, the pass runs *after* the
/// full level-3 pipeline, on unrolled, routed gates; it therefore only ever
/// sees `u`-gates, CNOTs and the decomposed routing SWAPs. The level is
/// fixed at 3 whatever `opts.level` says.
///
/// # Errors
///
/// Same failure modes as [`qc_transpile::transpile`].
pub fn transpile_hoare(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    let device = Unroller::to_device_basis();
    let unroll = Stage::mandatory("Unroller(device)", &device);
    let optimize_1q = Stage::optional("Optimize1qGates", &Optimize1qGates);
    let fixpoint = Stage::FixedPoint { consolidate: true };
    let hoare = HoareOptimizer::new();
    let after_routing = [
        unroll,
        optimize_1q,
        fixpoint,
        // The appended Hoare pass, plus the cleanup its removals enable.
        Stage::optional("HoareOptimizer", &hoare),
        optimize_1q,
        fixpoint,
    ];
    let opts = TranspileOptions { level: 3, ..*opts };
    run_pipeline(circuit, backend, &opts, &[unroll], &after_routing).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_sim::same_output_state;

    fn hoare(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        HoareOptimizer::new().run(&mut out).unwrap();
        assert!(
            same_output_state(c, &out, 1e-8),
            "hoare pass changed behavior"
        );
        out
    }

    #[test]
    fn removes_cx_with_false_control() {
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1);
        assert_eq!(hoare(&c).gate_counts().cx, 0);
    }

    #[test]
    fn reduces_cx_with_true_control() {
        let mut c = Circuit::new(2);
        c.x(0).rx(0.4, 1).cx(0, 1);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 2);
    }

    #[test]
    fn removes_trivial_phase_gates() {
        let mut c = Circuit::new(1);
        c.x(0).z(0).t(0).s(0);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().total, 1);
    }

    #[test]
    fn classical_propagation_through_cx_chain() {
        // x(0); cx(0,1); cx(1,2) — all classical; a following ccx with a
        // false control disappears.
        let mut c = Circuit::new(4);
        c.x(0).cx(0, 1).cx(1, 2).rx(0.3, 3);
        c.ccx(2, 3, 0); // control 2 is |1⟩ → demote to cx(3,0)
        let out = hoare(&c);
        assert_eq!(out.count_name("ccx"), 0);
        // The classical CNOTs are themselves strength-reduced to X gates;
        // only the cx with the unknown rx-state control survives.
        assert_eq!(out.gate_counts().cx, 1);
        assert_eq!(out.count_name("x"), 3);
    }

    #[test]
    fn cannot_see_x_basis_states_unlike_qbo() {
        // The key comparison in the paper: |−⟩-target CNOTs (boolean
        // oracles) are invisible to Hoare logic but caught by QBO.
        let mut c = Circuit::new(2);
        c.h(0).x(1).h(1).cx(0, 1);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 1, "hoare should NOT catch this");
        let mut qbo_out = c.clone();
        rpo_core::Qbo::new().run(&mut qbo_out).unwrap();
        assert_eq!(qbo_out.gate_counts().cx, 0, "QBO catches it");
    }

    #[test]
    fn hoare_finds_subset_of_qbo() {
        // Every circuit here: gates removed by hoare ⊆ removed by QBO.
        let circuits: Vec<Circuit> = {
            let mut v = Vec::new();
            let mut c = Circuit::new(3);
            c.x(0).cx(0, 1).cz(1, 2).ccx(0, 1, 2);
            v.push(c);
            let mut c = Circuit::new(3);
            c.h(0).cx(1, 0).swap(1, 2).cp(0.4, 0, 2);
            v.push(c);
            let mut c = Circuit::new(4);
            c.x(1).mcx(&[0, 1, 2], 3).mcz(&[1, 2], 0);
            v.push(c);
            v
        };
        for c in circuits {
            let h = hoare(&c);
            let mut q = c.clone();
            rpo_core::Qbo::new().run(&mut q).unwrap();
            assert!(
                q.gate_counts().total <= h.gate_counts().total,
                "QBO must be at least as strong: {c}"
            );
        }
    }

    #[test]
    fn swap_propagates_classical_values() {
        let mut c = Circuit::new(3);
        c.x(0).swap(0, 1).cx(1, 2); // after swap, qubit 1 is |1⟩
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 2);
    }

    #[test]
    fn full_hoare_pipeline_runs() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let out = transpile_hoare(&c, &backend, &TranspileOptions::level(3)).unwrap();
        assert!(out.circuit.gate_counts().total > 0);
        assert_eq!(out.final_map.len(), 3);
    }
}
