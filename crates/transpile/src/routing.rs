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
//!
//! # One trial
//!
//! A trial repeatedly executes every ready gate whose qubits are coupled
//! under the current wire permutation; a measure, like any single-qubit
//! gate, is always executable. When every ready gate is a two-qubit gate
//! on uncoupled qubits — the *front* — it picks one SWAP among the
//! coupling edges touching a front qubit: with probability 0.1 a
//! uniformly random candidate, otherwise a uniformly random one among
//! those minimizing the summed front distance after the SWAP.
//!
//! # Tables, buffers and the trial log
//!
//! [`route_dag_budgeted`] builds, once per call, a flat `n × n` distance
//! table, each physical qubit's incident coupling edges in ascending
//! coupling index, and the DAG's [`Scheduler`], which each trial clones.
//! A trial tracks the wire permutation and its inverse, so a SWAP updates
//! both in O(1), and reuses its ready, front, candidate and best-set
//! buffers across steps and trials: a blocked step does O(front) work and
//! allocates nothing. A trial records only a log of steps (execute node
//! `i`, or SWAP physical qubits `a` and `b`); the winning trial's log is
//! replayed once into the routed instruction stream.
//!
//! The replay holds each measure back until the next instruction on its
//! wire (a SWAP does not count) and emits it just before that
//! instruction, at the wire's position then. So a later gate on a
//! measured wire still follows the measure, and a measure that nothing
//! follows is emitted at the end, where its wire ends.
//!
//! The candidate order and the random draws are those of the plain
//! formulation, which scans the whole coupling list once per front gate
//! in ready order and keeps each edge touching the gate's qubits unless
//! an earlier gate added it. A gate's two incident lists, merged, yield
//! exactly its edges in coupling order, and an edge stamp per blocked step
//! replaces the dedup scan, so the candidate list is the same sequence.
//! Ready gates act on disjoint wires, so a physical qubit carries at most
//! one front gate, and a SWAP changes the distance of at most two front
//! gates: each candidate's score is the step's summed front distance
//! corrected for those two, the same integer as the full sum. Same
//! candidates and same scores mean every draw has the same range, so a
//! seed picks the same SWAPs.

use crate::guard::BudgetSnapshot;
use crate::TranspileError;
use qc_backends::Backend;
use qc_circuit::dag::Scheduler;
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
    /// the end of the circuit, which is where a measure that ends the wire
    /// acts. A mid-circuit measure acts where the wire is when the next
    /// instruction on it runs.
    pub wire_map: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swaps_added: usize,
}

/// Routes `dag` (already on physical wires) for `backend`, trying
/// `trials` seeded runs and keeping the one with the fewest SWAPs (the
/// earliest among equals), under a deadline: trial 0 always runs (routing
/// is mandatory — there must be *a* routed circuit), later trials are
/// skipped once the budget's deadline passes and the best result so far is
/// kept. Returns the routed result and the number of trials actually run,
/// so the caller can record the degradation.
///
/// # Errors
///
/// Returns [`crate::RpoError::InvalidInput`] if the circuit is wider than
/// the backend, or if a two-qubit gate acts on physical qubits that the
/// coupling map does not connect (SWAPs move a wire only within its
/// connected component, so no trial could route it). Returns an internal
/// error if a multi-qubit unitary gate reaches the router, or if a trial
/// fails to make progress.
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
    let tables = Tables::new(dag, backend);
    for (_, inst) in dag.iter() {
        if let [a, b] = inst.qubits[..] {
            if needs_coupling(&inst.gate) && tables.dist(a, b) == usize::MAX {
                return Err(TranspileError::InvalidInput(format!(
                    "{} on physical qubits {a} and {b}, which the coupling map of backend {} \
                     does not connect",
                    inst.gate,
                    backend.name()
                )));
            }
        }
    }
    let mut bufs = Buffers::new(tables.n, backend.coupling().len());
    let mut best: Option<(usize, Vec<Step>)> = None;
    let mut ran = 0usize;
    for t in 0..trials.max(1) {
        if t > 0 && budget.exceeded() {
            break;
        }
        let swaps = route_once(&tables, &mut bufs, seed.wrapping_add(t as u64))?;
        ran += 1;
        if best.as_ref().is_none_or(|&(fewest, _)| swaps < fewest) {
            // Keep this trial's log; the one it beats becomes the buffer.
            let spare = best.map(|(_, log)| log).unwrap_or_default();
            best = Some((swaps, std::mem::replace(&mut bufs.log, spare)));
        }
    }
    match best {
        Some((_, log)) => Ok((tables.replay(&log), ran)),
        None => Err(TranspileError::Internal("no routing trial ran".into())),
    }
}

/// Whether a two-qubit instruction with this gate must act on coupled
/// qubits: unitary gates do; directives, measures and resets do not.
fn needs_coupling(gate: &Gate) -> bool {
    gate.is_unitary_gate() && !gate.is_directive()
}

/// The absent-entry sentinel of [`Buffers::owner`].
const NONE: usize = usize::MAX;

/// One step of a trial's log.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Executed DAG node `id`.
    Exec(usize),
    /// Swapped physical qubits `a` and `b` (a canonical coupling edge).
    Swap(usize, usize),
}

/// What a routing call computes once and every trial reads.
struct Tables<'a> {
    dag: &'a Dag,
    /// Physical qubit count.
    n: usize,
    edges: &'a [(usize, usize)],
    /// Row-major `n × n` coupling distances; `usize::MAX` if unreachable.
    dist: Vec<usize>,
    /// Per physical qubit, the indices of the coupling edges touching it,
    /// ascending.
    incident: Vec<Vec<usize>>,
    /// The scheduler at the DAG's sources.
    sched: Scheduler<'a>,
    /// SWAPs in a row without executing a gate before a trial gives up.
    stall_limit: usize,
}

impl<'a> Tables<'a> {
    fn new(dag: &'a Dag, backend: &'a Backend) -> Self {
        let n = backend.num_qubits();
        let edges = backend.coupling();
        let mut incident = vec![Vec::new(); n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            incident[u].push(e);
            incident[v].push(e);
        }
        Tables {
            dag,
            n,
            edges,
            dist: backend.distance_matrix().concat(),
            incident,
            sched: dag.scheduler(),
            stall_limit: 4 * (dag.len() + n) * n.max(4),
        }
    }

    fn dist(&self, a: usize, b: usize) -> usize {
        self.dist[a * self.n + b]
    }

    /// Builds the routed circuit a trial's log describes. A measure is
    /// held back until the next instruction on its wire, then emitted at
    /// the wire's position at that point; measures that nothing follows
    /// are emitted last, in the order they ran.
    fn replay(&self, log: &[Step]) -> Routed {
        let measure = |q: usize| Instruction {
            gate: Gate::Measure,
            qubits: [q].into(),
        };
        let mut perm: Vec<usize> = (0..self.n).collect();
        let mut inv = perm.clone();
        let mut out = Vec::with_capacity(log.len());
        // Measured wires in the order their measures ran, and whether each
        // wire's last measure is still to be emitted.
        let mut measured = Vec::new();
        let mut pending = vec![false; self.n];
        let mut swaps_added = 0usize;
        for &step in log {
            match step {
                Step::Exec(node) => {
                    let inst = self.dag.inst(node);
                    for &w in &inst.qubits {
                        if std::mem::take(&mut pending[w]) {
                            out.push(measure(perm[w]));
                        }
                    }
                    if matches!(inst.gate, Gate::Measure) {
                        measured.push(inst.qubits[0]);
                        pending[inst.qubits[0]] = true;
                    } else {
                        out.push(Instruction {
                            gate: inst.gate.clone(),
                            qubits: inst.qubits.iter().map(|&q| perm[q]).collect(),
                        });
                    }
                }
                Step::Swap(a, b) => {
                    out.push(Instruction {
                        gate: Gate::Swap,
                        qubits: [a, b].into(),
                    });
                    perm.swap(inv[a], inv[b]);
                    inv.swap(a, b);
                    swaps_added += 1;
                }
            }
        }
        // Terminal measures, at the wires' final positions.
        for w in measured {
            if std::mem::take(&mut pending[w]) {
                out.push(measure(perm[w]));
            }
        }
        let mut circuit = Circuit::new(self.n);
        circuit.set_instructions(out);
        Routed {
            circuit,
            wire_map: perm,
            swaps_added,
        }
    }
}

/// Per-trial state, reused across steps and trials.
struct Buffers {
    /// `perm[w]` = physical qubit currently holding wire `w`.
    perm: Vec<usize>,
    /// `inv[p]` = wire currently on physical qubit `p`.
    inv: Vec<usize>,
    /// The ready nodes at the start of a sweep.
    sweep: Vec<usize>,
    /// Physical qubit pairs of the front gates, in ready order.
    front: Vec<(usize, usize)>,
    /// Front index per physical qubit; `NONE` off the front.
    owner: Vec<usize>,
    /// Blocked step that last made each edge a candidate.
    stamp: Vec<usize>,
    /// Blocked steps so far, across trials.
    step: usize,
    /// Candidate SWAPs as coupling indices.
    candidates: Vec<usize>,
    /// The best-scoring candidates.
    best: Vec<usize>,
    /// The running trial's log.
    log: Vec<Step>,
}

impl Buffers {
    fn new(n: usize, num_edges: usize) -> Self {
        Buffers {
            perm: Vec::with_capacity(n),
            inv: Vec::with_capacity(n),
            sweep: Vec::new(),
            front: Vec::new(),
            owner: vec![NONE; n],
            stamp: vec![0; num_edges],
            step: 0,
            candidates: Vec::new(),
            best: Vec::new(),
            log: Vec::new(),
        }
    }
}

/// Calls `f` on every element of two ascending lists in merged order, once
/// for an element in both.
fn merge_ascending(mut x: &[usize], mut y: &[usize], mut f: impl FnMut(usize)) {
    loop {
        let e = match (x.first(), y.first()) {
            (Some(&a), Some(&b)) if a <= b => {
                x = &x[1..];
                if a == b {
                    y = &y[1..];
                }
                a
            }
            (_, Some(&b)) => {
                y = &y[1..];
                b
            }
            (Some(&a), None) => {
                x = &x[1..];
                a
            }
            (None, None) => return,
        };
        f(e);
    }
}

/// One seeded trial: fills `b.log` and returns the number of SWAPs.
fn route_once(t: &Tables, b: &mut Buffers, seed: u64) -> Result<usize, TranspileError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sched = t.sched.clone();
    b.perm.clear();
    b.perm.extend(0..t.n);
    b.inv.clear();
    b.inv.extend(0..t.n);
    b.log.clear();
    let mut swaps = 0usize;
    let mut stall = 0usize;

    while !sched.is_done() {
        // Execute everything executable.
        let mut progressed = false;
        loop {
            b.sweep.clear();
            b.sweep.extend_from_slice(sched.ready());
            let mut fired = false;
            for &node in &b.sweep {
                let inst = t.dag.inst(node);
                let executable = match inst.qubits[..] {
                    [] | [_] => true,
                    // `dist == 1` ⟺ coupled.
                    [q0, q1] => !needs_coupling(&inst.gate) || t.dist(b.perm[q0], b.perm[q1]) == 1,
                    _ => {
                        // Multi-qubit unitary gates must be unrolled before
                        // routing; barriers and the like pass through.
                        if needs_coupling(&inst.gate) {
                            return Err(TranspileError::Internal(format!(
                                "{}-qubit gate {} reached the router",
                                inst.qubits.len(),
                                inst.gate
                            )));
                        }
                        true
                    }
                };
                if executable {
                    b.log.push(Step::Exec(node));
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
        // Blocked: every ready node is a 2-qubit gate on uncoupled qubits.
        // Collect the candidate SWAPs and the front's summed distance.
        b.step += 1;
        b.front.clear();
        b.candidates.clear();
        let mut base = 0usize;
        for &node in sched.ready() {
            let q = &t.dag.inst(node).qubits;
            let (pa, pb) = (b.perm[q[0]], b.perm[q[1]]);
            b.owner[pa] = b.front.len();
            b.owner[pb] = b.front.len();
            b.front.push((pa, pb));
            base += t.dist(pa, pb);
            merge_ascending(&t.incident[pa], &t.incident[pb], |e| {
                if b.stamp[e] != b.step {
                    b.stamp[e] = b.step;
                    b.candidates.push(e);
                }
            });
        }
        // Each front gate's qubits are distinct and connected (checked
        // before the first trial), so each has an incident edge.
        debug_assert!(!b.candidates.is_empty());
        // The front's summed distance after swapping the qubits of edge
        // `e`: only the (at most two) front gates on those qubits move.
        let score = |e: usize| -> usize {
            let (u, v) = t.edges[e];
            let m = |q: usize| {
                if q == u {
                    v
                } else if q == v {
                    u
                } else {
                    q
                }
            };
            // `u` and `v` are coupled, so no blocked front gate holds both.
            let mut s = base;
            for g in [b.owner[u], b.owner[v]] {
                if g != NONE {
                    let (pa, pb) = b.front[g];
                    s = s - t.dist(pa, pb) + t.dist(m(pa), m(pb));
                }
            }
            s
        };
        let chosen = if rng.gen::<f64>() < 0.1 {
            b.candidates[rng.gen_range(0..b.candidates.len())]
        } else {
            let mut best_score = usize::MAX;
            b.best.clear();
            for &cand in &b.candidates {
                let s = score(cand);
                if s < best_score {
                    best_score = s;
                    b.best.clear();
                    b.best.push(cand);
                } else if s == best_score {
                    b.best.push(cand);
                }
            }
            b.best[rng.gen_range(0..b.best.len())]
        };
        for &(pa, pb) in &b.front {
            b.owner[pa] = NONE;
            b.owner[pb] = NONE;
        }
        let (pu, pv) = t.edges[chosen];
        b.log.push(Step::Swap(pu, pv));
        swaps += 1;
        b.perm.swap(b.inv[pu], b.inv[pv]);
        b.inv.swap(pu, pv);
        stall += 1;
        if progressed {
            stall = 0;
        }
        if stall > t.stall_limit {
            return Err(TranspileError::Internal(
                "router stalled without progress".into(),
            ));
        }
    }
    Ok(swaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Routes `c` through a fresh DAG with no deadline.
    fn route_circuit(
        c: &Circuit,
        backend: &Backend,
        seed: u64,
        trials: usize,
    ) -> Result<Routed, TranspileError> {
        let dag = Dag::from_circuit(c);
        route_dag_budgeted(&dag, backend, seed, trials, BudgetSnapshot::unlimited()).map(|(r, _)| r)
    }

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
        let r = route_circuit(&c, &backend, 1, 3).unwrap();
        assert_eq!(r.swaps_added, 0);
        assert_eq!(r.circuit.gate_counts().cx, 2);
    }

    #[test]
    fn distant_gate_gets_swaps() {
        let backend = Backend::linear(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let r = route_circuit(&c, &backend, 1, 5).unwrap();
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
        let r = route_circuit(&c, &backend, 7, 5).unwrap();
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
        let r = route_circuit(&c, &backend, 3, 5).unwrap();
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
        let r1 = route_circuit(&c, &backend, 11, 1).unwrap();
        let r25 = route_circuit(&c, &backend, 11, 25).unwrap();
        assert!(r25.swaps_added <= r1.swaps_added);
    }

    #[test]
    fn deterministic_per_seed() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(5);
        c.cx(0, 4).cx(1, 3).cx(2, 4).cx(0, 3);
        let a = route_circuit(&c, &backend, 42, 4).unwrap();
        let b = route_circuit(&c, &backend, 42, 4).unwrap();
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.wire_map, b.wire_map);
    }

    #[test]
    fn rejects_oversized_circuit() {
        let backend = Backend::linear(2);
        let c = Circuit::new(3);
        assert!(matches!(
            route_circuit(&c, &backend, 0, 1),
            Err(TranspileError::InvalidInput(_))
        ));
    }
}
