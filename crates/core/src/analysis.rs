//! Per-wire state automata — the paper's core analysis, recorded along
//! every wire.
//!
//! [`WireStates`] records, for every node, the analysis state of each of
//! its wires just *before* the node (through the Fig. 5 basis automaton
//! and the Fig. 6 pure-state domain), in one O(gates) pass over the DAG.
//! QPO's block rewrite computes it once per run, from the DAG its own
//! first phase left.

use crate::state::StateAnalysis;
use crate::{BasisTracked, PureTracked};
use qc_circuit::Dag;
use std::ops::Range;

/// Per-node entry states of the state analysis (see the module docs).
#[derive(Clone, Debug)]
pub struct WireStates {
    /// Per node id: the range of `entries` holding that node's wires.
    spans: Vec<Range<usize>>,
    /// Every node's wires in instruction order, each with its state
    /// before the node.
    entries: Vec<(usize, BasisTracked, PureTracked)>,
}

impl WireStates {
    /// Runs the analysis over the whole DAG, recording every node's entry
    /// states.
    pub fn compute(dag: &Dag) -> Self {
        let mut st = StateAnalysis::new(dag.num_qubits());
        let mut spans = vec![0..0; dag.capacity()];
        let mut entries = Vec::with_capacity(dag.len() * 2);
        for (id, inst) in dag.iter() {
            let start = entries.len();
            for &q in &inst.qubits {
                entries.push((q, st.basis(q), st.pure_state(q)));
            }
            spans[id] = start..entries.len();
            st.transition(&inst.gate, &inst.qubits);
        }
        WireStates { spans, entries }
    }

    /// Entry state of wire `q` just before node `node`.
    ///
    /// # Panics
    ///
    /// Panics when `node` is not a node of the analysed DAG or does not
    /// touch wire `q`.
    pub fn entry(&self, node: usize, q: usize) -> (BasisTracked, PureTracked) {
        let &(_, basis, pure) = self.entries[self.spans[node].clone()]
            .iter()
            .find(|e| e.0 == q)
            .expect("the node touches the wire");
        (basis, pure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::{BasisState, Circuit};

    #[test]
    fn trajectories_record_entry_states() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).x(1);
        let dag = Dag::from_circuit(&c);
        let states = WireStates::compute(&dag);
        // Before the h (node 0): |0⟩.
        assert_eq!(states.entry(0, 0).0.known(), Some(BasisState::Zero));
        // Before the cx (node 1) on wire 0: |+⟩; on wire 1: |0⟩.
        assert_eq!(states.entry(1, 0).0.known(), Some(BasisState::Plus));
        assert_eq!(states.entry(1, 1).0.known(), Some(BasisState::Zero));
        // Before the x (node 2) on wire 1: ⊤ (entangled by the cx).
        assert_eq!(states.entry(2, 1).0.known(), None);
    }
}
