//! Oracle equivalence tests for the kernel-based `circuit_unitary`.
//!
//! The retained embed-then-matmul construction
//! (`circuit_unitary_reference`) is an independent encoding of gate
//! semantics — it goes through `Gate::matrix()` and dense multiplication,
//! never through `Gate::kernel()` — so agreement on random circuits over
//! the full gate set is strong evidence the kernel engine and the gate
//! classification are both correct.

use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::unitary::circuit_unitary_with_panel_width;
use qc_circuit::{
    circuit_unitary, circuit_unitary_reference, circuit_unitary_unfused, Circuit, Gate,
};

#[test]
fn random_circuits_match_reference_1_to_6_qubits() {
    for n in 1..=6 {
        for seed in 0..8u64 {
            let c = random_circuit(n, 24, seed * 100 + n as u64);
            let fast = circuit_unitary(&c);
            let slow = circuit_unitary_reference(&c);
            assert!(
                fast.approx_eq(&slow, 1e-9),
                "kernel/reference unitary mismatch on {n} qubits, seed {seed}"
            );
        }
    }
}

#[test]
fn unfused_streaming_matches_reference() {
    // The per-gate streaming path must stay correct independently of the
    // fusion planner — it is the mid-level oracle between `circuit_unitary`
    // (fused, paneled) and the embed-then-matmul reference.
    for n in 1..=5 {
        for seed in 0..4u64 {
            let c = random_circuit(n, 24, 7000 + seed * 100 + n as u64);
            assert!(
                circuit_unitary_unfused(&c).approx_eq(&circuit_unitary_reference(&c), 1e-9),
                "unfused/reference mismatch on {n} qubits, seed {seed}"
            );
        }
    }
}

#[test]
fn panel_decomposition_is_exact_at_any_width() {
    // Panel streaming must reproduce the single-panel result *bit for bit*:
    // each column's trajectory is the same arithmetic whether or not its
    // panel is processed alongside others.
    for n in 3..=5usize {
        let c = random_circuit(n, 30, 40 + n as u64);
        let whole = circuit_unitary_with_panel_width(&c, 1 << n);
        let mut width = 2usize;
        while width < (1 << n) {
            let paneled = circuit_unitary_with_panel_width(&c, width);
            assert!(
                whole == paneled,
                "panel width {width} changed bits on {n} qubits"
            );
            width <<= 1;
        }
    }
}

#[test]
fn parallel_panels_are_bit_identical_at_every_thread_count() {
    let _cap = qc_math::lock_thread_cap();
    // 8 panels of width 32 on an 8-qubit circuit: the panel fan-out is the
    // parallel surface here (the panels are too small for the kernels'
    // inner splitting to engage).
    let c = random_circuit(8, 60, 2026);
    let max_t = qc_math::kernel_threads().max(2);
    qc_math::set_max_threads(Some(1));
    let sequential = circuit_unitary_with_panel_width(&c, 32);
    for threads in [2, max_t] {
        qc_math::set_max_threads(Some(threads));
        let parallel = circuit_unitary_with_panel_width(&c, 32);
        qc_math::set_max_threads(None);
        assert!(
            sequential == parallel,
            "thread count {threads} changed circuit_unitary bits"
        );
    }
}

#[test]
fn every_gate_kind_alone_matches_reference() {
    // One instruction per circuit, on deliberately awkward qubit orders:
    // non-adjacent and reversed.
    let cases: Vec<(Gate, Vec<usize>)> = vec![
        (Gate::H, vec![3]),
        (Gate::Y, vec![0]),
        (Gate::Rz(0.9), vec![2]),
        (Gate::U3(0.4, -0.7, 1.2), vec![1]),
        (Gate::Cx, vec![3, 0]),
        (Gate::Cx, vec![0, 3]),
        (Gate::Cz, vec![2, 0]),
        (Gate::Cp(0.6), vec![1, 3]),
        (Gate::Swap, vec![3, 1]),
        (Gate::SwapZ, vec![2, 0]),
        (Gate::Ccx, vec![3, 1, 0]),
        (Gate::Cswap, vec![1, 3, 2]),
        (Gate::Mcx(3), vec![3, 0, 2, 1]),
        (Gate::Mcz(3), vec![1, 3, 0, 2]),
        (Gate::Cu(Gate::S.matrix().unwrap()), vec![3, 1]),
        (Gate::Unitary(Gate::Ccx.matrix().unwrap()), vec![2, 0, 3]),
    ];
    for (gate, qubits) in cases {
        let mut c = Circuit::new(4);
        c.push(gate.clone(), &qubits);
        let fast = circuit_unitary(&c);
        let slow = circuit_unitary_reference(&c);
        assert!(
            fast.approx_eq(&slow, 1e-12),
            "mismatch for {gate} on {qubits:?}"
        );
    }
}

#[test]
fn blocked_neighborhoods_match_unfused_and_reference() {
    // The consolidation rules (same-pair merges, k≤3 growth, in-block
    // absorption) against both independent oracles, over the 3q-rich
    // distribution: QV-style dense pairs, Toffolis, interleaved diagonals.
    for n in 2..=6usize {
        for seed in 0..6u64 {
            let c = blocked_neighborhood_circuit(n, 30, 9000 + seed * 31 + n as u64);
            let fused = circuit_unitary(&c);
            assert!(
                fused.approx_eq(&circuit_unitary_unfused(&c), 1e-9),
                "fused/unfused mismatch on a blocked circuit, {n} qubits, seed {seed}"
            );
            assert!(
                fused.approx_eq(&circuit_unitary_reference(&c), 1e-9),
                "fused/reference mismatch on a blocked circuit, {n} qubits, seed {seed}"
            );
        }
    }
}

#[test]
fn toffoli_chains_match_unfused_and_reference() {
    for n in 3..=6usize {
        for seed in 0..4u64 {
            let c = toffoli_chain(n, seed);
            let fused = circuit_unitary(&c);
            assert!(
                fused.approx_eq(&circuit_unitary_unfused(&c), 1e-9),
                "fused/unfused mismatch on a Toffoli chain, {n} qubits, seed {seed}"
            );
            assert!(
                fused.approx_eq(&circuit_unitary_reference(&c), 1e-9),
                "fused/reference mismatch on a Toffoli chain, {n} qubits, seed {seed}"
            );
        }
    }
}

#[test]
fn parallel_blocked_neighborhoods_are_bit_identical_at_every_thread_count() {
    let _cap = qc_math::lock_thread_cap();
    // 8-qubit blocked circuits split across panels: the fused plan (with
    // merged 4×4 and, under the streaming profile, 8×8 blocks) must be
    // bit-identical at 1, 2 and max threads.
    let max_t = qc_math::kernel_threads().max(2);
    for (label, c) in [
        ("blocked", blocked_neighborhood_circuit(8, 40, 77)),
        ("toffoli-chain", toffoli_chain(8, 7)),
    ] {
        qc_math::set_max_threads(Some(1));
        let sequential = circuit_unitary_with_panel_width(&c, 32);
        for threads in [2, max_t] {
            qc_math::set_max_threads(Some(threads));
            let parallel = circuit_unitary_with_panel_width(&c, 32);
            qc_math::set_max_threads(None);
            assert!(
                sequential == parallel,
                "thread count {threads} changed bits on a {label} circuit"
            );
        }
    }
}

#[test]
fn unitarity_is_preserved() {
    for seed in 0..4u64 {
        let c = random_circuit(5, 40, 31 + seed);
        assert!(circuit_unitary(&c).is_unitary(1e-9));
    }
}

#[test]
fn directives_are_skipped_like_reference() {
    let mut c = Circuit::new(3);
    c.h(0)
        .barrier()
        .annot_zero(1)
        .cx(0, 2)
        .annot(0.3, 0.1, 2)
        .swap(1, 2);
    assert!(circuit_unitary(&c).approx_eq(&circuit_unitary_reference(&c), 1e-12));
}

#[test]
fn consolidated_unitary_blocks_round_trip() {
    // A consolidated block (Gate::Unitary) of a sub-circuit behaves like
    // the sub-circuit inlined, on every qubit ordering.
    let mut inner = Circuit::new(2);
    inner.h(0).cx(0, 1).t(1);
    let block = circuit_unitary(&inner);
    for qubits in [[0usize, 2], [2, 0], [1, 2]] {
        let mut with_block = Circuit::new(3);
        with_block.push(Gate::Unitary(block.clone()), &qubits);
        let mut inlined = Circuit::new(3);
        inlined.h(qubits[0]).cx(qubits[0], qubits[1]).t(qubits[1]);
        assert!(
            circuit_unitary(&with_block).approx_eq(&circuit_unitary(&inlined), 1e-10),
            "block mismatch on {qubits:?}"
        );
    }
}
