//! The circuit container and its builder API.

use crate::gate::Gate;
use crate::small_list::SmallList;
use std::collections::BTreeMap;
use std::fmt;

/// The qubit operands of an [`Instruction`]. Up to three sit inline, so
/// only the wider `mcx`, `mcz` and barrier instructions allocate; the list
/// derefs to `[usize]`.
pub type Qubits = SmallList<usize, 3>;

/// One gate application: a [`Gate`] plus the qubit indices it acts on.
///
/// The operands sit inline ([`Qubits`]), so creating or cloning an
/// instruction allocates only for a gate that carries a matrix (`cu`,
/// `unitary`) or acts on more than three qubits.
#[derive(Clone, Debug, PartialEq)]
pub struct Instruction {
    /// The gate being applied.
    pub gate: Gate,
    /// Qubit arguments, in the gate's local order (controls before target;
    /// argument 0 is the least-significant local bit).
    pub qubits: Qubits,
}

impl Instruction {
    /// Creates an instruction, validating arity and qubit distinctness.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate's arity or if
    /// a qubit is repeated.
    pub fn new(gate: Gate, qubits: impl Into<Qubits>) -> Self {
        let qubits = qubits.into();
        assert_eq!(
            gate.num_qubits(),
            qubits.len(),
            "gate {gate} expects {} qubits, got {:?}",
            gate.num_qubits(),
            qubits
        );
        for (i, q) in qubits.iter().enumerate() {
            for r in &qubits[i + 1..] {
                assert_ne!(q, r, "duplicate qubit {q} in {gate}");
            }
        }
        Instruction { gate, qubits }
    }
}

/// Aggregate gate statistics for a circuit (the metrics reported by the
/// paper's tables: CNOT count, single-qubit gate count, total count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateCounts {
    /// Number of `cx` gates.
    pub cx: usize,
    /// Number of single-qubit *gates* (directives, resets and measures are
    /// excluded).
    pub single_qubit: usize,
    /// Number of two-qubit gates other than `cx` (cz, cp, swap, swapz, cu).
    pub other_two_qubit: usize,
    /// Number of gates on three or more qubits.
    pub multi_qubit: usize,
    /// Total gates (excluding directives, resets and measures).
    pub total: usize,
}

/// [`Circuit::gate_counts`] over a raw instruction slice — shared with the
/// DAG IR so both report identical statistics.
pub fn gate_counts_of(instructions: &[Instruction]) -> GateCounts {
    gate_counts_over(instructions)
}

/// [`gate_counts_of`] over any instruction iterator (the DAG IR counts its
/// slab without materializing a slice).
pub fn gate_counts_over<'a>(instructions: impl IntoIterator<Item = &'a Instruction>) -> GateCounts {
    let mut c = GateCounts::default();
    for inst in instructions {
        if inst.gate.is_directive() || matches!(inst.gate, Gate::Reset | Gate::Measure) {
            continue;
        }
        c.total += 1;
        match inst.gate.num_qubits() {
            1 => c.single_qubit += 1,
            2 => {
                if matches!(inst.gate, Gate::Cx) {
                    c.cx += 1;
                } else {
                    c.other_two_qubit += 1;
                }
            }
            _ => c.multi_qubit += 1,
        }
    }
    c
}

/// A quantum circuit: an ordered list of [`Instruction`]s over `n` qubits.
///
/// The instruction list is a valid topological order of the circuit DAG by
/// construction; passes that need explicit dependency structure use
/// [`crate::dag::Dag`].
///
/// # Examples
///
/// ```
/// use qc_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).ccx(0, 1, 2).measure_all();
/// assert_eq!(c.num_qubits(), 3);
/// assert_eq!(c.gate_counts().cx, 1);
/// assert_eq!(c.gate_counts().multi_qubit, 1);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits, all starting in
    /// |0⟩.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The instruction sequence (a topological order of the circuit DAG).
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions, including directives.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` when the circuit has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range, the arity mismatches, or a
    /// qubit repeats.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        for &q in qubits {
            assert!(
                q < self.num_qubits,
                "qubit {q} out of range for {}-qubit circuit",
                self.num_qubits
            );
        }
        self.instructions.push(Instruction::new(gate, qubits));
        self
    }

    /// Appends a prebuilt instruction.
    pub fn push_instruction(&mut self, inst: Instruction) -> &mut Self {
        self.push(inst.gate, &inst.qubits)
    }

    /// Appends all instructions of `other` (which must fit in this circuit).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend with a wider circuit"
        );
        for inst in &other.instructions {
            self.instructions.push(inst.clone());
        }
        self
    }

    /// Appends `other` with its qubit `i` mapped to `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is too short or maps out of range.
    pub fn compose(&mut self, other: &Circuit, mapping: &[usize]) -> &mut Self {
        assert!(
            mapping.len() >= other.num_qubits,
            "mapping must cover all qubits of the composed circuit"
        );
        for inst in &other.instructions {
            let qs: Vec<usize> = inst.qubits.iter().map(|&q| mapping[q]).collect();
            self.push(inst.gate.clone(), &qs);
        }
        self
    }

    /// The inverse circuit: gates reversed and individually inverted.
    ///
    /// Returns `None` when the circuit contains a non-invertible instruction
    /// (reset, measure, annotation).
    pub fn inverse(&self) -> Option<Circuit> {
        let mut out = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            if matches!(inst.gate, Gate::Barrier(_)) {
                out.push(inst.gate.clone(), &inst.qubits);
                continue;
            }
            let inv = inst.gate.inverse()?;
            let mut qubits = inst.qubits.clone();
            // SWAPZ's inverse is SWAPZ with its qubit arguments exchanged.
            if matches!(inst.gate, Gate::SwapZ) {
                qubits.reverse();
            }
            out.push(inv, &qubits);
        }
        Some(out)
    }

    /// Gate statistics (excluding directives, resets and measures).
    pub fn gate_counts(&self) -> GateCounts {
        gate_counts_of(&self.instructions)
    }

    /// Number of occurrences of gates with the given name.
    pub fn count_name(&self, name: &str) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate.name() == name)
            .count()
    }

    /// Circuit depth: the longest chain of non-directive instructions over
    /// any qubit (the metric reported in the paper's Table V), with resets
    /// and measures counted as operations.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0;
        for inst in &self.instructions {
            if inst.gate.is_directive() {
                continue;
            }
            let d = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &inst.qubits {
                level[q] = d;
            }
            max = max.max(d);
        }
        max
    }

    /// Histogram of gate names.
    pub fn gate_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut h = BTreeMap::new();
        for inst in &self.instructions {
            *h.entry(inst.gate.name()).or_insert(0) += 1;
        }
        h
    }

    /// Replaces the instruction list wholesale (used by transpiler passes).
    pub fn set_instructions(&mut self, instructions: Vec<Instruction>) {
        self.instructions = instructions;
    }

    /// Consumes the circuit, returning its instruction list.
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.instructions
    }

    /// The sorted list of qubits touched by at least one non-directive
    /// instruction (barriers and annotations alone do not make a wire
    /// "used").
    pub fn used_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.num_qubits];
        for inst in &self.instructions {
            if inst.gate.is_directive() {
                continue;
            }
            for &q in &inst.qubits {
                used[q] = true;
            }
        }
        (0..self.num_qubits).filter(|&q| used[q]).collect()
    }

    /// Re-indexes the circuit onto only its used wires. Returns the compact
    /// circuit and the mapping `old_of_new[new] = old` — the tool that makes
    /// backend-width circuits (e.g. a 3-qubit job routed onto a 53-qubit
    /// device) simulable.
    pub fn compacted(&self) -> (Circuit, Vec<usize>) {
        let old_of_new = self.used_qubits();
        let mut new_of_old = vec![usize::MAX; self.num_qubits];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old] = new;
        }
        let mut out = Circuit::new(old_of_new.len().max(1));
        for inst in &self.instructions {
            let qs: Vec<usize> = inst.qubits.iter().map(|&q| new_of_old[q]).collect();
            if inst.gate.is_directive() {
                // Directives may reference unused wires; rebuild them over
                // the surviving ones (barriers shrink, annotations on dead
                // wires drop).
                let qs: Vec<usize> = qs.into_iter().filter(|&q| q != usize::MAX).collect();
                if qs.is_empty() {
                    continue;
                }
                if let Gate::Barrier(_) = inst.gate {
                    out.push(Gate::Barrier(qs.len()), &qs);
                } else {
                    out.push(inst.gate.clone(), &qs);
                }
                continue;
            }
            out.push(inst.gate.clone(), &qs);
        }
        (out, old_of_new)
    }

    // ---- builder methods -------------------------------------------------

    /// Appends an identity gate.
    pub fn id(&mut self, q: usize) -> &mut Self {
        self.push(Gate::I, &[q])
    }
    /// Appends a Pauli X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X, &[q])
    }
    /// Appends a Pauli Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y, &[q])
    }
    /// Appends a Pauli Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z, &[q])
    }
    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H, &[q])
    }
    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S, &[q])
    }
    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg, &[q])
    }
    /// Appends a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Gate::T, &[q])
    }
    /// Appends a T† gate.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Tdg, &[q])
    }
    /// Appends an X-rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rx(theta), &[q])
    }
    /// Appends a Y-rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Ry(theta), &[q])
    }
    /// Appends a Z-rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.push(Gate::Rz(theta), &[q])
    }
    /// Appends a u1 phase gate.
    pub fn u1(&mut self, lam: f64, q: usize) -> &mut Self {
        self.push(Gate::U1(lam), &[q])
    }
    /// Appends a u2 gate.
    pub fn u2(&mut self, phi: f64, lam: f64, q: usize) -> &mut Self {
        self.push(Gate::U2(phi, lam), &[q])
    }
    /// Appends a u3 gate.
    pub fn u3(&mut self, theta: f64, phi: f64, lam: f64, q: usize) -> &mut Self {
        self.push(Gate::U3(theta, phi, lam), &[q])
    }
    /// Appends a CNOT with the given control and target.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx, &[control, target])
    }
    /// Appends a controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz, &[a, b])
    }
    /// Appends a controlled-phase gate.
    pub fn cp(&mut self, lam: f64, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cp(lam), &[a, b])
    }
    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap, &[a, b])
    }
    /// Appends a SWAPZ; `qz` is the qubit the optimization assumes is |0⟩.
    pub fn swapz(&mut self, qz: usize, other: usize) -> &mut Self {
        self.push(Gate::SwapZ, &[qz, other])
    }
    /// Appends a Toffoli gate.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.push(Gate::Ccx, &[c1, c2, target])
    }
    /// Appends a Fredkin (controlled-SWAP) gate.
    pub fn cswap(&mut self, control: usize, t1: usize, t2: usize) -> &mut Self {
        self.push(Gate::Cswap, &[control, t1, t2])
    }
    /// Appends a multi-controlled NOT over `controls` with `target`.
    pub fn mcx(&mut self, controls: &[usize], target: usize) -> &mut Self {
        let mut qs = controls.to_vec();
        qs.push(target);
        self.push(Gate::Mcx(controls.len()), &qs)
    }
    /// Appends a multi-controlled Z over `controls` with `target`.
    pub fn mcz(&mut self, controls: &[usize], target: usize) -> &mut Self {
        let mut qs = controls.to_vec();
        qs.push(target);
        self.push(Gate::Mcz(controls.len()), &qs)
    }
    /// Appends a controlled single-qubit unitary.
    pub fn cu(&mut self, u: qc_math::Matrix, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cu(u), &[control, target])
    }
    /// Appends a reset to |0⟩.
    pub fn reset(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Reset, &[q])
    }
    /// Appends a measurement.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Measure, &[q])
    }
    /// Measures every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
        self
    }
    /// Appends a barrier across all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        let qs: Vec<usize> = (0..self.num_qubits).collect();
        self.push(Gate::Barrier(self.num_qubits), &qs)
    }
    /// Appends an `ANNOT(θ, φ)` pure-state annotation (Section VI-C).
    pub fn annot(&mut self, theta: f64, phi: f64, q: usize) -> &mut Self {
        self.push(Gate::Annot(theta, phi), &[q])
    }
    /// Annotates a "clean" ancilla qubit as |0⟩ — shorthand for
    /// `annot(0, 0, q)` as used in the Grover experiments (Fig. 7).
    pub fn annot_zero(&mut self, q: usize) -> &mut Self {
        self.annot(0.0, 0.0, q)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits]:", self.num_qubits)?;
        for inst in &self.instructions {
            writeln!(f, "  {} {:?}", inst.gate, inst.qubits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unitary::circuit_unitary;
    use qc_math::Matrix;

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cz(1, 2)
            .ccx(0, 1, 2)
            .barrier()
            .measure_all();
        let counts = c.gate_counts();
        assert_eq!(counts.cx, 1);
        assert_eq!(counts.single_qubit, 2);
        assert_eq!(counts.other_two_qubit, 1);
        assert_eq!(counts.multi_qubit, 1);
        assert_eq!(counts.total, 5);
    }

    #[test]
    fn depth_ignores_directives() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().h(0).annot_zero(1).h(1);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn depth_tracks_parallelism() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // parallel layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // serializes 0 and 1
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        Circuit::new(2).cx(0, 5);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn push_rejects_duplicate_qubits() {
        Circuit::new(2).cx(1, 1);
    }

    #[test]
    fn inverse_undoes_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).s(1).swap(0, 1);
        let inv = c.inverse().expect("invertible");
        let mut both = c.clone();
        both.extend(&inv);
        let u = circuit_unitary(&both);
        assert!(u.equal_up_to_global_phase(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn inverse_of_swapz_reverses_arguments() {
        let mut c = Circuit::new(2);
        c.swapz(0, 1);
        let inv = c.inverse().expect("invertible");
        assert_eq!(inv.instructions()[0].qubits, vec![1, 0]);
        let mut both = c.clone();
        both.extend(&inv);
        let u = circuit_unitary(&both);
        assert!(u.equal_up_to_global_phase(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn inverse_fails_on_measurement() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        assert!(c.inverse().is_none());
    }

    #[test]
    fn compose_remaps_qubits() {
        let mut inner = Circuit::new(2);
        inner.cx(0, 1);
        let mut outer = Circuit::new(4);
        outer.compose(&inner, &[3, 1]);
        assert_eq!(outer.instructions()[0].qubits, vec![3, 1]);
    }

    #[test]
    fn compacted_reindexes_used_wires() {
        let mut c = Circuit::new(10);
        c.h(2).cx(2, 7).measure(7);
        let (compact, old_of_new) = c.compacted();
        assert_eq!(compact.num_qubits(), 2);
        assert_eq!(old_of_new, vec![2, 7]);
        assert_eq!(compact.instructions()[1].qubits, vec![0, 1]);
        assert_eq!(c.used_qubits(), vec![2, 7]);
    }

    #[test]
    fn compacted_rebuilds_barriers() {
        let mut c = Circuit::new(5);
        c.h(1).barrier().cx(1, 3);
        let (compact, _) = c.compacted();
        // The barrier now spans only the two used wires.
        let b = compact
            .instructions()
            .iter()
            .find(|i| i.gate.name() == "barrier")
            .unwrap();
        assert_eq!(b.qubits.len(), 2);
    }

    #[test]
    fn histogram_and_count_name() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        assert_eq!(c.count_name("h"), 2);
        assert_eq!(c.gate_histogram()["cx"], 1);
    }
}
