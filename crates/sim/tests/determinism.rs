//! Thread-count and steal-schedule bit-identity for the simulator at scale.
//!
//! The determinism contract under test: every parallel region in the
//! simulator — the chunked streaming executor and the auxiliary sweeps
//! (`probabilities`, the `sample` CDF searches) — pre-chunks its work into
//! deterministically numbered parts, so output bits cannot depend on the
//! thread count or on which executor claims which part. These tests
//! compare the single-threaded result against 2-way and capacity-wide
//! splits, and against **forced adversarial steal orders** injected
//! through the pool's test hook — proving that no steal schedule can
//! change a single bit.

use std::collections::HashMap;

use qc_circuit::{Circuit, Gate};
use qc_math::{haar_unitary, lock_thread_cap, set_max_threads, set_steal_sequence};
use qc_sim::Statevector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` under a forced thread cap and (optionally) a forced global
/// claim order, restoring both afterwards.
fn with_pool<T>(threads: usize, steal: Option<Vec<usize>>, f: impl FnOnce() -> T) -> T {
    set_max_threads(Some(threads));
    set_steal_sequence(steal);
    let out = f();
    set_steal_sequence(None);
    set_max_threads(None);
    out
}

/// A layered circuit of Haar-random two-qubit blocks: dense shard-local
/// work on the low qubits plus blocks straddling the shard boundary, so a
/// run at n ≥ 18 exercises both arms of the chunked streaming executor
/// (shard-by-shard runs *and* per-op full sweeps).
fn scale_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _layer in 0..2 {
        for t in 0..n / 3 {
            let (a, b, d) = (3 * t, 3 * t + 1, 3 * t + 2);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, b]);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[b, d]);
        }
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[n - 2, n - 1]);
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[0, n - 1]);
    }
    c
}

#[test]
fn streaming_executor_bit_identical_across_threads_and_steal_orders() {
    let _g = lock_thread_cap();
    let c = scale_circuit(18, 42);
    let baseline = with_pool(1, None, || Statevector::from_circuit(&c));
    // Thread counts: a genuine 2-way split and "everything the pool has"
    // (a large request clamps to pool capacity).
    for threads in [2usize, 64] {
        let sv = with_pool(threads, None, || Statevector::from_circuit(&c));
        assert!(
            baseline.amplitudes() == sv.amplitudes(),
            "thread cap {threads} changed amplitude bits"
        );
    }
    // Adversarial claim orders: regions whose part count matches the
    // injected permutation run it verbatim; 4 hits the 4-shard streaming
    // regions at n = 18, 16 hits the oversubscribed kernel sweeps.
    for len in [4usize, 16] {
        let sv = with_pool(2, Some((0..len).rev().collect()), || {
            Statevector::from_circuit(&c)
        });
        assert!(
            baseline.amplitudes() == sv.amplitudes(),
            "forced steal order of length {len} changed amplitude bits"
        );
    }
}

#[test]
fn scheduled_streaming_executor_matches_unfused_reference() {
    let _g = lock_thread_cap();
    // The gate scheduler reorders commuting (disjoint-support) fused ops,
    // which legitimately changes float rounding relative to the program
    // order — so this check is tolerance-based, while the bit-identity
    // tests above pin the scheduled order across thread counts.
    let c = scale_circuit(18, 3);
    let scheduled = Statevector::from_circuit(&c);
    let mut reference = Statevector::zero_state(18);
    let mut rng = StdRng::seed_from_u64(0);
    for inst in c.instructions() {
        reference.apply_instruction(&inst.gate, &inst.qubits, &mut rng);
    }
    for (a, b) in scheduled.amplitudes().iter().zip(reference.amplitudes()) {
        assert!(
            (*a - *b).norm() < 1e-9,
            "scheduled executor diverged from the unfused reference"
        );
    }
}

#[test]
fn sampling_and_probabilities_bit_identical_under_stealing() {
    let _g = lock_thread_cap();
    // n = 20 puts the auxiliary sweeps past their parallel threshold
    // (2²⁰ amplitudes): the |z|² map, the CDF build feeding `sample`, and
    // the per-shot binary searches all cross the pool.
    let c = scale_circuit(20, 7);
    let sv = with_pool(1, None, || Statevector::from_circuit(&c));
    let shots = 5000;
    let sample_at = |sv: &Statevector| -> HashMap<usize, usize> {
        let mut rng = StdRng::seed_from_u64(11);
        sv.sample(shots, &mut rng)
    };
    let p_base = with_pool(1, None, || sv.probabilities());
    let s_base = with_pool(1, None, || sample_at(&sv));
    let steals: [(usize, Option<Vec<usize>>); 4] = [
        (2, None),
        (64, None),
        (2, Some((0..16).rev().collect())),
        (2, Some((0..16).map(|i| (i + 7) % 16).collect())),
    ];
    for (threads, steal) in steals {
        let tag = format!("threads {threads}, steal {:?}", steal.is_some());
        let (p, s) = with_pool(threads, steal, || (sv.probabilities(), sample_at(&sv)));
        assert!(p_base == p, "probabilities changed bits ({tag})");
        assert!(s_base == s, "sample counts changed ({tag})");
    }
}
