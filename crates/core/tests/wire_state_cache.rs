//! `WireStates` — the per-wire trajectories QPO's block rewrite reads —
//! against the whole-circuit reference `StateAnalysis::entry_states`: the
//! recorded entry state of wire `q` before the `k`-th instruction touching
//! it must equal the reference state map before that instruction, in both
//! the basis and the pure-state domain.

use qc_circuit::testing::{
    blocked_neighborhood_circuit, random_circuit, toffoli_chain, SplitMix64,
};
use qc_circuit::{Circuit, Dag};
use rpo_core::{StateAnalysis, WireStates};

fn assert_states_match_entry_states(c: &Circuit, label: &str) {
    let states = WireStates::compute(&Dag::from_circuit(c));
    let (entries, _) = StateAnalysis::entry_states(c);
    let mut k = vec![0usize; c.num_qubits()];
    for (i, (inst, entry)) in c.instructions().iter().zip(&entries).enumerate() {
        for &q in &inst.qubits {
            assert_eq!(
                states.entry(q, k[q]),
                (entry.basis(q), entry.pure_state(q)),
                "{label}: instruction {i} ({}), wire {q}, k = {}",
                inst.gate,
                k[q]
            );
            k[q] += 1;
        }
    }
}

/// Pure-state preparations moved around by `swap`, `swapz` and `cswap`,
/// with entangling gates, resets and annotations in between: the gates
/// that carry analysis state across wires.
fn swap_heavy_circuit(num_qubits: usize, num_gates: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(num_qubits);
    for _ in 0..num_gates {
        let q = rng.distinct_qubits(num_qubits, 3);
        match rng.below(10) {
            0 => c.u3(rng.angle(), rng.angle(), 0.0, q[0]),
            1 => c.x(q[0]),
            2 => c.h(q[0]),
            3 | 4 => c.swap(q[0], q[1]),
            5 | 6 => c.swapz(q[0], q[1]),
            7 => c.cswap(q[0], q[1], q[2]),
            8 => c.cx(q[0], q[1]),
            _ => match rng.below(3) {
                0 => c.reset(q[0]),
                1 => c.annot_zero(q[0]),
                _ => c.annot(rng.angle(), rng.angle(), q[0]),
            },
        };
    }
    c
}

#[test]
fn random_circuits_match_entry_states() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        assert_states_match_entry_states(&c, &format!("random_circuit({n},{g},{seed})"));
    }
}

#[test]
fn blocked_neighborhood_circuits_match_entry_states() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        assert_states_match_entry_states(
            &c,
            &format!("blocked_neighborhood_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn toffoli_chains_match_entry_states() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        assert_states_match_entry_states(&c, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn swap_heavy_circuits_match_entry_states() {
    for (n, g, seed) in [(3, 40, 1), (4, 60, 6), (6, 80, 42)] {
        let c = swap_heavy_circuit(n, g, seed);
        assert!(c.count_name("swapz") > 0 && c.count_name("swap") > 0);
        assert_states_match_entry_states(&c, &format!("swap_heavy_circuit({n},{g},{seed})"));
    }
}
