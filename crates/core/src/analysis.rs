//! Per-wire state automata — the paper's core analysis, recorded along
//! every wire.
//!
//! [`WireStates`] records, for every wire, the analysis state *before*
//! each instruction touching that wire (its trajectory through the Fig. 5
//! basis automaton and the Fig. 6 pure-state domain), in one O(gates) pass
//! over the DAG. QPO's block rewrite computes it once per run, from the
//! DAG its own first phase left.

use crate::state::StateAnalysis;
use crate::{BasisTracked, PureTracked};
use qc_circuit::Dag;

/// Per-wire state-analysis trajectories (see the module docs).
#[derive(Clone, Debug)]
pub struct WireStates {
    /// Per wire: entry state before the k-th instruction touching it.
    traj: Vec<Vec<(BasisTracked, PureTracked)>>,
}

impl WireStates {
    /// Runs the analysis over the whole DAG, recording every wire's
    /// trajectory.
    pub fn compute(dag: &Dag) -> Self {
        let n = dag.num_qubits();
        let mut st = StateAnalysis::new(n);
        let mut traj: Vec<Vec<(BasisTracked, PureTracked)>> = vec![Vec::new(); n];
        for (_, inst) in dag.iter() {
            for &q in &inst.qubits {
                traj[q].push((st.basis(q), st.pure_state(q)));
            }
            st.transition(&inst.gate, &inst.qubits);
        }
        WireStates { traj }
    }

    /// Entry state of wire `q` before the `k`-th instruction touching it.
    ///
    /// # Panics
    ///
    /// Panics when `k` is past the wire's trajectory.
    pub fn entry(&self, q: usize, k: usize) -> (BasisTracked, PureTracked) {
        self.traj[q][k]
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
        // Before the h: |0⟩.
        assert_eq!(states.entry(0, 0).0.known(), Some(BasisState::Zero));
        // Before the cx on wire 0: |+⟩.
        assert_eq!(states.entry(0, 1).0.known(), Some(BasisState::Plus));
        // Before the x on wire 1: ⊤ (entangled by the cx).
        assert_eq!(states.entry(1, 1).0.known(), None);
    }
}
