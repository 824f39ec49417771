//! Cached per-wire state automata — the paper's core analysis as a
//! [`PropertySet`] property with per-wire invalidation.
//!
//! [`WireStateCache`] records, for every wire, the analysis state *before*
//! each instruction touching that wire (its trajectory through the Fig. 5
//! basis automaton and the Fig. 6 pure-state domain), in one O(gates) pass
//! over the DAG. Alongside each trajectory it records the wire's
//! **dependency set**: the wires whose gate streams can influence it.
//! States only flow between wires through the swap family (SWAP and
//! SWAPZ exchange or consume partner states); every other multi-qubit
//! gate sends its wires to ⊤ regardless of partner state, so a wire's
//! dependency set is the transitive closure of its swap partners.
//!
//! Validity is therefore *per wire*: a cached trajectory for wire `q` is
//! still exact when every wire in `deps(q)` has an unchanged generation
//! stamp — a pass that only rewrote wires `{2, 3}` invalidates only
//! trajectories depending on those wires. QPO's block rewrite queries the
//! cache per block and pays a recompute only when one of the *block's*
//! wires (or a swap-coupled wire) was actually dirtied.

use crate::state::StateAnalysis;
use crate::{BasisTracked, PureTracked};
use qc_circuit::{Dag, Gate, WireSet};
use qc_transpile::PropertySet;

/// [`PropertySet`] key of the [`WireStateCache`].
pub const WIRE_STATES_KEY: &str = "wire_states";

/// Cached per-wire state-analysis trajectories (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct WireStateCache {
    /// Per-wire generation stamps at compute time.
    gens: Vec<u64>,
    /// Per wire: the wires its trajectory depends on (always includes
    /// itself; grown through swap-family couplings, never shrunk).
    deps: Vec<WireSet>,
    /// Per wire: entry state before the k-th instruction touching it.
    traj: Vec<Vec<(BasisTracked, PureTracked)>>,
}

impl WireStateCache {
    /// Runs the analysis over the whole DAG, recording every wire's
    /// trajectory and dependency set.
    pub fn compute(dag: &Dag) -> Self {
        let n = dag.num_qubits();
        let mut st = StateAnalysis::new(n);
        let mut deps: Vec<WireSet> = (0..n)
            .map(|q| {
                let mut w = WireSet::empty(n);
                w.insert(q);
                w
            })
            .collect();
        let mut traj: Vec<Vec<(BasisTracked, PureTracked)>> = vec![Vec::new(); n];
        for (_, inst) in dag.iter() {
            for &q in &inst.qubits {
                traj[q].push((st.basis(q), st.pure_state(q)));
            }
            // States cross wires only through the swap family; couple the
            // dependency sets before transitioning.
            if matches!(inst.gate, Gate::Swap | Gate::SwapZ) {
                let (a, b) = (inst.qubits[0], inst.qubits[1]);
                let merged = {
                    let mut m = deps[a].clone();
                    m.union(&deps[b]);
                    m
                };
                deps[a] = merged.clone();
                deps[b] = merged;
            }
            st.transition(&inst.gate, &inst.qubits);
        }
        WireStateCache {
            gens: (0..n).map(|q| dag.wire_gen(q)).collect(),
            deps,
            traj,
        }
    }

    /// Whether the cached trajectories of `wires` are still exact: none of
    /// their dependency wires changed since the compute.
    pub fn valid_for(&self, dag: &Dag, wires: impl IntoIterator<Item = usize>) -> bool {
        if self.gens.len() != dag.num_qubits() {
            return false;
        }
        wires.into_iter().all(|q| {
            q < self.deps.len()
                && self.deps[q]
                    .iter()
                    .all(|d| self.gens.get(d).copied() == Some(dag.wire_gen(d)))
        })
    }

    /// Entry state of wire `q` before the `k`-th instruction touching it.
    ///
    /// # Panics
    ///
    /// Panics when `k` is past the wire's trajectory.
    pub fn entry(&self, q: usize, k: usize) -> (BasisTracked, PureTracked) {
        self.traj[q][k]
    }

    /// The cached trajectories for the DAG, reusing the stored cache when
    /// it is still valid for `wires` ([`WireStateCache::valid_for`]) and
    /// recomputing the whole DAG otherwise. Only the trajectories of
    /// `wires` are guaranteed exact.
    pub fn fresh<'p>(
        props: &'p mut PropertySet,
        dag: &Dag,
        wires: impl IntoIterator<Item = usize>,
    ) -> &'p WireStateCache {
        let valid = props
            .get::<WireStateCache>(WIRE_STATES_KEY)
            .is_some_and(|c| c.valid_for(dag, wires));
        if !valid {
            props.insert(WIRE_STATES_KEY, WireStateCache::compute(dag));
        }
        props
            .get::<WireStateCache>(WIRE_STATES_KEY)
            .expect("just ensured")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::BasisState;
    use qc_circuit::{Circuit, DagEdit, Instruction};

    #[test]
    fn trajectories_record_entry_states() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).x(1);
        let dag = Dag::from_circuit(&c);
        let cache = WireStateCache::compute(&dag);
        // Before the h: |0⟩.
        assert_eq!(cache.entry(0, 0).0.known(), Some(BasisState::Zero));
        // Before the cx on wire 0: |+⟩.
        assert_eq!(cache.entry(0, 1).0.known(), Some(BasisState::Plus));
        // Before the x on wire 1: ⊤ (entangled by the cx).
        assert_eq!(cache.entry(1, 1).0.known(), None);
    }

    #[test]
    fn unrelated_wire_edits_keep_entries_valid() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rx(0.3, 2);
        let mut dag = Dag::from_circuit(&c);
        let cache = WireStateCache::compute(&dag);
        let mut edit = DagEdit::new();
        edit.replace(2, vec![Instruction::new(Gate::X, vec![2])]);
        dag.apply(edit);
        // Wires 0 and 1 are untouched and not swap-coupled to wire 2.
        assert!(cache.valid_for(&dag, [0, 1]));
        assert!(!cache.valid_for(&dag, [2]));
    }

    #[test]
    fn swap_couples_dependency_sets() {
        let mut c = Circuit::new(3);
        c.h(0).swap(0, 1).x(2);
        let mut dag = Dag::from_circuit(&c);
        let cache = WireStateCache::compute(&dag);
        // Editing wire 0 invalidates wire 1's trajectory too (its state
        // after the swap came from wire 0)...
        let mut edit = DagEdit::new();
        edit.replace(0, vec![Instruction::new(Gate::X, vec![0])]);
        dag.apply(edit);
        assert!(!cache.valid_for(&dag, [1]));
        // ...but wire 2 stays valid.
        assert!(cache.valid_for(&dag, [2]));
    }

    #[test]
    fn fresh_recomputes_only_when_dirty() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        {
            let cache = WireStateCache::fresh(&mut props, &dag, [0, 1]);
            assert_eq!(cache.entry(1, 0).0.known(), Some(BasisState::Zero));
        }
        // A clean second call hands back the same snapshot (same gens).
        let gens_before = WireStateCache::fresh(&mut props, &dag, [0, 1]).gens.clone();
        let mut edit = DagEdit::new();
        edit.remove(0);
        dag.apply(edit);
        // The edit dirtied wire 0 only: a wire-1 query keeps the snapshot,
        // a wire-0 query recomputes.
        let kept = WireStateCache::fresh(&mut props, &dag, [1]).gens.clone();
        assert_eq!(gens_before, kept);
        let gens_after = WireStateCache::fresh(&mut props, &dag, [0]).gens.clone();
        assert_ne!(gens_before, gens_after);
    }
}
