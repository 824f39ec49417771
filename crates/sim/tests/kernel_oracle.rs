//! Oracle equivalence tests for kernel-based state-vector simulation.
//!
//! `Statevector` applies gates through `Gate::kernel()` and the shared
//! engine; the oracle column comes from `circuit_unitary_reference` — the
//! retained embed-then-matmul path that never touches the kernel engine.

use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{circuit_unitary_reference, Circuit, Gate};
use qc_sim::Statevector;

fn assert_matches_reference_column(c: &Circuit, label: &str) {
    let sv = Statevector::from_circuit(c);
    let expect = circuit_unitary_reference(c).column(0);
    for (a, b) in sv.amplitudes().iter().zip(&expect) {
        assert!((*a - *b).norm() < 1e-9, "statevector mismatch: {label}");
    }
}

#[test]
fn random_circuits_match_reference_1_to_6_qubits() {
    for n in 1..=6 {
        for seed in 0..8u64 {
            let c = random_circuit(n, 30, seed * 37 + n as u64);
            assert_matches_reference_column(&c, &format!("{n} qubits, seed {seed}"));
        }
    }
}

#[test]
fn qubit_orderings_adjacent_nonadjacent_reversed() {
    let orderings: Vec<(Gate, Vec<usize>)> = vec![
        (Gate::Cx, vec![0, 1]),
        (Gate::Cx, vec![1, 0]),
        (Gate::Cx, vec![0, 4]),
        (Gate::Cx, vec![4, 0]),
        (Gate::Swap, vec![1, 4]),
        (Gate::Ccx, vec![4, 2, 0]),
        (Gate::Ccx, vec![0, 2, 4]),
        (Gate::Mcx(2), vec![3, 1, 4]),
        (Gate::Mcz(3), vec![4, 0, 1, 3]),
        (Gate::Cswap, vec![4, 0, 2]),
        (Gate::SwapZ, vec![3, 0]),
        (Gate::Cu(Gate::Tdg.matrix().unwrap()), vec![2, 4]),
    ];
    for (gate, qubits) in orderings {
        // Prepare a generic state first so controls/targets carry weight.
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.u3(0.3 + q as f64 * 0.4, 0.2 * q as f64, -0.1, q);
        }
        c.push(gate.clone(), &qubits);
        assert_matches_reference_column(&c, &format!("{gate} on {qubits:?}"));
    }
}

#[test]
fn apply_matrix_scratch_reuse_stays_correct() {
    // Repeated dense applications through the same engine (scratch reuse
    // across different qubit sets and arities) must stay exact.
    let mut sv = Statevector::zero_state(4);
    let mut reference = Circuit::new(4);
    let h = Gate::H.matrix().unwrap();
    let ccx = Gate::Ccx.matrix().unwrap();
    let swap = Gate::Swap.matrix().unwrap();
    sv.apply_matrix(&h, &[2]);
    reference.h(2);
    sv.apply_matrix(&ccx, &[2, 0, 3]);
    reference.ccx(2, 0, 3);
    sv.apply_matrix(&swap, &[3, 1]);
    reference.swap(3, 1);
    sv.apply_matrix(&h, &[0]);
    reference.h(0);
    let expect = circuit_unitary_reference(&reference).column(0);
    for (a, b) in sv.amplitudes().iter().zip(&expect) {
        assert!((*a - *b).norm() < 1e-12);
    }
}

#[test]
fn norm_is_preserved_over_long_random_circuits() {
    for seed in 0..4u64 {
        let c = random_circuit(6, 200, 1000 + seed);
        let sv = Statevector::from_circuit(&c);
        let norm: f64 = sv.amplitudes().iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm drifted: {norm}");
    }
}

#[test]
fn fused_run_matches_per_gate_application() {
    // `from_circuit` goes through the fusion planner; applying the same
    // instructions one gate at a time bypasses it entirely.
    for n in 1..=6 {
        for seed in 0..6u64 {
            let c = random_circuit(n, 40, 4000 + seed * 19 + n as u64);
            let fused = Statevector::from_circuit(&c);
            let mut unfused = Statevector::zero_state(n);
            for inst in c.instructions() {
                unfused.apply_gate(&inst.gate, &inst.qubits);
            }
            for (a, b) in fused.amplitudes().iter().zip(unfused.amplitudes()) {
                assert!(
                    (*a - *b).norm() < 1e-9,
                    "fusion changed the state on {n} qubits, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn blocked_neighborhoods_match_reference_column() {
    // The planner's consolidation rules through the simulator: QV-style
    // dense pairs, Toffolis and interleaved diagonals vs the
    // embed-then-matmul oracle.
    for n in 2..=6 {
        for seed in 0..6u64 {
            let c = blocked_neighborhood_circuit(n, 30, 600 + seed * 13 + n as u64);
            assert_matches_reference_column(&c, &format!("blocked, {n} qubits, seed {seed}"));
        }
    }
    for n in 3..=6 {
        let c = toffoli_chain(n, n as u64);
        assert_matches_reference_column(&c, &format!("toffoli chain, {n} qubits"));
    }
}

#[test]
fn streaming_regime_consolidation_matches_per_gate_application() {
    // At 2¹⁷ amplitudes the planner uses the streaming profile and grows
    // k=3 dense blocks; the result must still match the plain per-gate
    // engine path.
    let c = blocked_neighborhood_circuit(17, 30, 4242);
    let fused = Statevector::from_circuit(&c);
    let mut per_gate = Statevector::zero_state(17);
    for inst in c.instructions() {
        per_gate.apply_gate(&inst.gate, &inst.qubits);
    }
    for (a, b) in fused.amplitudes().iter().zip(per_gate.amplitudes()) {
        assert!(
            (*a - *b).norm() < 1e-9,
            "k≤3 consolidation changed the state"
        );
    }
}

#[test]
fn parallel_blocked_simulation_is_bit_identical_at_every_thread_count() {
    let _cap = qc_math::lock_thread_cap();
    // Toffoli-chain and QV-blocked shapes at 2¹⁷ amplitudes: the streaming
    // profile grows 8×8 blocks, whose kernel loops genuinely split.
    let max_t = qc_math::kernel_threads().max(2);
    for (label, c) in [
        ("blocked", blocked_neighborhood_circuit(17, 24, 2121)),
        ("toffoli-chain", toffoli_chain(17, 3)),
    ] {
        qc_math::set_max_threads(Some(1));
        let sequential = Statevector::from_circuit(&c);
        for threads in [2, max_t] {
            qc_math::set_max_threads(Some(threads));
            let parallel = Statevector::from_circuit(&c);
            qc_math::set_max_threads(None);
            assert!(
                sequential.amplitudes() == parallel.amplitudes(),
                "thread count {threads} changed simulation bits on a {label} circuit"
            );
        }
    }
}

#[test]
fn parallel_auxiliary_sweeps_are_bit_identical_at_every_thread_count() {
    let _cap = qc_math::lock_thread_cap();
    // probabilities / sample / reset split across the pool from 2²⁰
    // amplitudes; every per-element result and the CDF's sequential
    // accumulation must be bit-identical at any thread count.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut c = Circuit::new(20);
    c.h(0);
    for q in 0..19 {
        c.cx(q, q + 1);
    }
    for q in (0..20).step_by(3) {
        c.push(Gate::Ry(0.21 + q as f64 * 0.07), &[q]);
    }
    let max_t = qc_math::kernel_threads().max(2);
    qc_math::set_max_threads(Some(1));
    let base_sv = Statevector::from_circuit(&c);
    let base_probs = base_sv.probabilities();
    let base_sample = base_sv.sample(512, &mut StdRng::seed_from_u64(5));
    let base_reset = {
        let mut sv = base_sv.clone();
        sv.reset(7, &mut StdRng::seed_from_u64(9));
        sv
    };
    for threads in [2, max_t] {
        qc_math::set_max_threads(Some(threads));
        let probs = base_sv.probabilities();
        let sample = base_sv.sample(512, &mut StdRng::seed_from_u64(5));
        let reset = {
            let mut sv = base_sv.clone();
            sv.reset(7, &mut StdRng::seed_from_u64(9));
            sv
        };
        qc_math::set_max_threads(None);
        assert!(
            probs == base_probs,
            "probabilities differ at {threads} threads"
        );
        assert!(
            sample == base_sample,
            "sample counts differ at {threads} threads"
        );
        assert!(
            reset.amplitudes() == base_reset.amplitudes(),
            "reset collapse differs at {threads} threads"
        );
    }
}

#[test]
fn parallel_simulation_is_bit_identical_at_every_thread_count() {
    let _cap = qc_math::lock_thread_cap();
    // 2¹⁷ amplitudes ≥ the kernels' parallel threshold, so the base-index
    // loops genuinely split. Identical RNG seeding makes runs comparable
    // bit for bit.
    let c = random_circuit(17, 24, 99);
    let max_t = qc_math::kernel_threads().max(2);
    qc_math::set_max_threads(Some(1));
    let sequential = Statevector::from_circuit(&c);
    for threads in [2, max_t] {
        qc_math::set_max_threads(Some(threads));
        let parallel = Statevector::from_circuit(&c);
        qc_math::set_max_threads(None);
        assert!(
            sequential.amplitudes() == parallel.amplitudes(),
            "thread count {threads} changed simulation bits"
        );
    }
}
