//! Stochastic SWAP routing.
//!
//! Makes every two-qubit gate act on coupled qubits by inserting SWAP
//! gates, mirroring Qiskit's `StochasticSwap`: a greedy distance heuristic
//! with randomized tie-breaking, re-run over several seeded trials keeping
//! the cheapest result. The paper's protocol (Section VII-B) medians 25
//! whole-transpile runs precisely because this stage is stochastic — every
//! random choice here is driven by an explicit seed.
//!
//! Inserted SWAPs are left as [`Gate::Swap`] instructions; the RPO pipeline
//! runs its post-routing QBO over them *before* they are unrolled (Fig. 8,
//! line 5), which is where SWAP → SWAPZ rewrites happen.

use crate::guard::BudgetSnapshot;
use crate::TranspileError;
use qc_backends::Backend;
use qc_circuit::{Circuit, Dag, Gate, Instruction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The routed circuit plus the wire permutation induced by the inserted
/// SWAPs.
#[derive(Clone, Debug)]
pub struct Routed {
    /// The routed circuit (physical wires).
    pub circuit: Circuit,
    /// `wire_map[w]` = physical qubit that holds input wire `w`'s state at
    /// measurement time (or at the end of the circuit).
    pub wire_map: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swaps_added: usize,
}

/// Routes `circuit` (already on physical wires) for `backend`, trying
/// `trials` seeded runs and keeping the one with the fewest SWAPs.
///
/// # Errors
///
/// Returns an error if the circuit is wider than the backend or if the
/// router fails to make progress (disconnected coupling graph).
pub fn route(
    circuit: &Circuit,
    backend: &Backend,
    seed: u64,
    trials: usize,
) -> Result<Routed, TranspileError> {
    let dag = Dag::from_circuit(circuit);
    route_dag_budgeted(&dag, backend, seed, trials, BudgetSnapshot::unlimited()).map(|(r, _)| r)
}

/// [`route`] over an existing DAG — the entry the DAG-native pipeline uses,
/// so routing triggers no Circuit↔Dag conversion of its own — under a
/// deadline: trial 0 always runs (routing is mandatory — there must be *a*
/// routed circuit), later trials are skipped once the budget's deadline
/// passes and the best result so far is kept. Returns the routed result
/// and the number of trials actually run, so the caller can record the
/// degradation.
///
/// # Errors
///
/// Same failure modes as [`route`].
pub fn route_dag_budgeted(
    dag: &Dag,
    backend: &Backend,
    seed: u64,
    trials: usize,
    budget: BudgetSnapshot,
) -> Result<(Routed, usize), TranspileError> {
    if dag.num_qubits() > backend.num_qubits() {
        return Err(TranspileError::too_many_qubits(
            dag.num_qubits(),
            backend.num_qubits(),
        ));
    }
    let dist = backend.distance_matrix();
    let mut best: Option<Routed> = None;
    let mut ran = 0usize;
    for t in 0..trials.max(1) {
        if t > 0 && budget.exceeded() {
            break;
        }
        let r = route_once(dag, backend, &dist, seed.wrapping_add(t as u64))?;
        ran += 1;
        if best
            .as_ref()
            .map(|b| r.swaps_added < b.swaps_added)
            .unwrap_or(true)
        {
            best = Some(r);
        }
    }
    match best {
        Some(b) => Ok((b, ran)),
        None => Err(TranspileError::Internal("no routing trial ran".into())),
    }
}

fn route_once(
    dag: &Dag,
    backend: &Backend,
    dist: &[Vec<usize>],
    seed: u64,
) -> Result<Routed, TranspileError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = backend.num_qubits();
    let mut sched = dag.scheduler();
    let mut out = Circuit::new(n);
    // perm[w] = physical qubit currently holding wire w.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut wire_map: Vec<usize> = (0..n).collect();
    let mut measured = vec![false; n];
    let mut pending_measures: Vec<usize> = Vec::new();
    let mut swaps_added = 0usize;
    let mut stall = 0usize;
    let stall_limit = 4 * (dag.len() + n) * n.max(4);

    while !sched.is_done() {
        // Execute everything executable.
        let mut progressed = false;
        loop {
            let ready: Vec<usize> = sched.ready().to_vec();
            let mut fired = false;
            for node in ready {
                let inst = dag.inst(node);
                let mapped: Vec<usize> = inst.qubits.iter().map(|&q| perm[q]).collect();
                let executable = match mapped.len() {
                    0 | 1 => true,
                    2 => {
                        // `dist == 1` ⟺ coupled: O(1) against the BFS
                        // matrix instead of the backend's edge-list scan.
                        !inst.gate.is_unitary_gate()
                            || inst.gate.is_directive()
                            || dist[mapped[0]][mapped[1]] == 1
                    }
                    _ => {
                        // Multi-qubit unitary gates must be unrolled before
                        // routing; barriers and the like pass through.
                        if inst.gate.is_unitary_gate() && !inst.gate.is_directive() {
                            return Err(TranspileError::Internal(format!(
                                "{}-qubit gate {} reached the router",
                                mapped.len(),
                                inst.gate
                            )));
                        }
                        true
                    }
                };
                if executable {
                    if matches!(inst.gate, Gate::Measure) {
                        // Defer to the end of the circuit: a later routing
                        // SWAP could otherwise move the state away from the
                        // physical qubit the measure was emitted on.
                        pending_measures.push(inst.qubits[0]);
                        measured[inst.qubits[0]] = true;
                    } else {
                        out.push_instruction(Instruction::new(inst.gate.clone(), mapped));
                    }
                    sched.execute(node);
                    fired = true;
                    progressed = true;
                }
            }
            if !fired {
                break;
            }
        }
        if sched.is_done() {
            break;
        }
        // Blocked: every ready node is a non-adjacent 2-qubit gate. Pick a
        // SWAP that reduces the summed front-layer distance.
        let front: Vec<(usize, usize)> = sched
            .ready()
            .iter()
            .map(|&node| {
                let q = &dag.inst(node).qubits;
                (perm[q[0]], perm[q[1]])
            })
            .collect();
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &front {
            for &(u, v) in backend.coupling() {
                if u == a || v == a || u == b || v == b {
                    let e = (u.min(v), u.max(v));
                    if !candidates.contains(&e) {
                        candidates.push(e);
                    }
                }
            }
        }
        if candidates.is_empty() {
            return Err(TranspileError::Internal(
                "router found no candidate swaps (disconnected coupling?)".into(),
            ));
        }
        let score = |swap: (usize, usize)| -> usize {
            front
                .iter()
                .map(|&(a, b)| {
                    let m = |q: usize| {
                        if q == swap.0 {
                            swap.1
                        } else if q == swap.1 {
                            swap.0
                        } else {
                            q
                        }
                    };
                    dist[m(a)][m(b)]
                })
                .sum()
        };
        let chosen = if rng.gen::<f64>() < 0.1 {
            candidates[rng.gen_range(0..candidates.len())]
        } else {
            let mut best_score = usize::MAX;
            let mut best_set: Vec<(usize, usize)> = Vec::new();
            for &cand in &candidates {
                let s = score(cand);
                if s < best_score {
                    best_score = s;
                    best_set = vec![cand];
                } else if s == best_score {
                    best_set.push(cand);
                }
            }
            best_set[rng.gen_range(0..best_set.len())]
        };
        out.swap(chosen.0, chosen.1);
        swaps_added += 1;
        // Update the wire permutation.
        let held_by = |phys: usize| {
            perm.iter().position(|&p| p == phys).ok_or_else(|| {
                TranspileError::Internal(format!("physical qubit {phys} held by no wire"))
            })
        };
        let wa = held_by(chosen.0)?;
        let wb = held_by(chosen.1)?;
        perm.swap(wa, wb);
        stall += 1;
        if progressed {
            stall = 0;
        }
        if stall > stall_limit {
            return Err(TranspileError::Internal(
                "router stalled without progress".into(),
            ));
        }
    }
    // Emit deferred measurements at the final positions, and report final
    // positions for unmeasured wires too.
    for w in pending_measures {
        out.measure(perm[w]);
        wire_map[w] = perm[w];
    }
    for w in 0..n {
        if !measured[w] {
            wire_map[w] = perm[w];
        }
    }
    Ok(Routed {
        circuit: out,
        wire_map,
        swaps_added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_two_qubit_gates_adjacent(c: &Circuit, backend: &Backend) -> bool {
        c.instructions().iter().all(|inst| {
            inst.qubits.len() != 2
                || !inst.gate.is_unitary_gate()
                || backend.are_adjacent(inst.qubits[0], inst.qubits[1])
        })
    }

    #[test]
    fn already_routable_circuit_untouched() {
        let backend = Backend::linear(3);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let r = route(&c, &backend, 1, 3).unwrap();
        assert_eq!(r.swaps_added, 0);
        assert_eq!(r.circuit.gate_counts().cx, 2);
    }

    #[test]
    fn distant_gate_gets_swaps() {
        let backend = Backend::linear(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let r = route(&c, &backend, 1, 5).unwrap();
        assert!(r.swaps_added >= 1);
        assert!(all_two_qubit_gates_adjacent(&r.circuit, &backend));
    }

    #[test]
    fn routed_circuit_is_functionally_correct() {
        // Verify on the unitary level: routed circuit followed by the
        // inverse permutation equals the original.
        let backend = Backend::linear(4);
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(1, 2).t(3).cx(3, 0);
        let r = route(&c, &backend, 7, 5).unwrap();
        // Build: routed + swaps undoing the final permutation.
        let mut undo = r.circuit.clone();
        // r.wire_map[w] = final physical position of wire w (no measures
        // here). Sort wires back with explicit swaps.
        let mut pos = r.wire_map.clone();
        for w in 0..4 {
            if pos[w] != w {
                let other = pos.iter().position(|&p| p == w).unwrap();
                undo.swap(pos[w], w);
                pos.swap(w, other);
            }
        }
        let expect = {
            let mut big = Circuit::new(backend.num_qubits());
            big.extend(&c);
            big
        };
        assert!(qc_circuit::circuit_unitary(&undo)
            .equal_up_to_global_phase(&qc_circuit::circuit_unitary(&expect), 1e-7));
    }

    #[test]
    fn measure_records_physical_position() {
        let backend = Backend::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2).measure_all();
        let r = route(&c, &backend, 3, 5).unwrap();
        // All wire positions are distinct physical qubits.
        let mut wm: Vec<usize> = r.wire_map.clone();
        wm.sort_unstable();
        wm.dedup();
        assert_eq!(wm.len(), 3);
    }

    #[test]
    fn trials_pick_cheapest() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(6);
        for i in 0..6 {
            for j in i + 1..6 {
                c.cx(i, j);
            }
        }
        let r1 = route(&c, &backend, 11, 1).unwrap();
        let r25 = route(&c, &backend, 11, 25).unwrap();
        assert!(r25.swaps_added <= r1.swaps_added);
    }

    #[test]
    fn deterministic_per_seed() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(5);
        c.cx(0, 4).cx(1, 3).cx(2, 4).cx(0, 3);
        let a = route(&c, &backend, 42, 4).unwrap();
        let b = route(&c, &backend, 42, 4).unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.wire_map, b.wire_map);
    }

    #[test]
    fn rejects_oversized_circuit() {
        let backend = Backend::linear(2);
        let c = Circuit::new(3);
        assert!(matches!(
            route(&c, &backend, 0, 1),
            Err(TranspileError::InvalidInput(_))
        ));
    }
}
