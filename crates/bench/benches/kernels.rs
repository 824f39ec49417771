//! Microbenchmarks for the compilation kernels the pipelines are built on:
//! the gate-application kernel engine (circuit-unitary construction and the
//! state-vector simulator), the KAK/Weyl decomposition and synthesis
//! (ConsolidateBlocks' engine), the single-qubit Euler extraction, and the
//! routing pass.
//!
//! The `circuit_unitary_*_10q100g` family is the acceptance benchmark for
//! the shared kernel engine: the kernel-based path must beat the retained
//! embed-then-matmul reference by ≥10×, and the fused + cache-blocked +
//! (optionally) parallel pipeline must beat the plain per-gate streaming
//! path, on a random 10-qubit, 100-gate circuit. The blocked-workload
//! family (`circuit_unitary_kernel_qv10`, `statevector_qv_chain_20q`,
//! `statevector_toffoli_chain_14q`) tracks the planner's in-stream k≤3
//! block consolidation on QV/Toffoli shapes. `scripts/bench.sh` records
//! all of them, plus the effective kernel thread count, in
//! `BENCH_kernels.json`; `scripts/bench_check.sh` gates CI on >2.5x
//! regressions against the committed baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use qc_algos::{quantum_volume, quantum_volume_with_depth, vqe_parameter_batch};
use qc_backends::Backend;
use qc_circuit::testing::random_circuit;
use qc_circuit::{
    circuit_unitary, circuit_unitary_reference, circuit_unitary_unfused, Circuit, Gate,
};
use qc_math::haar_unitary;
use qc_sim::{run_batch, Statevector};
use qc_synth::{synthesize_two_qubit, OneQubitEuler, TwoQubitWeyl};
use qc_transpile::routing::route;
use qc_transpile::unroll::Unroller;
use qc_transpile::Pass;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_kernels(c: &mut Criterion) {
    // Tag every JSON record with the thread count the kernels actually use
    // (1 without the `parallel` feature; the RPO_THREADS/available-
    // parallelism cap with it) — not a value re-derived in shell.
    std::env::set_var(
        "CRITERION_JSON_META",
        format!("\"threads\": {}", qc_math::kernel_threads()),
    );
    let mut rng = StdRng::seed_from_u64(1);
    let u2s: Vec<_> = (0..32).map(|_| haar_unitary(2, &mut rng)).collect();
    let u4s: Vec<_> = (0..32).map(|_| haar_unitary(4, &mut rng)).collect();

    c.bench_function("euler_1q_decompose", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % u2s.len();
            OneQubitEuler::from_matrix(&u2s[i])
        })
    });
    c.bench_function("weyl_2q_decompose", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % u4s.len();
            TwoQubitWeyl::decompose(&u4s[i])
        })
    });
    c.bench_function("weyl_2q_synthesize", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % u4s.len();
            synthesize_two_qubit(&u4s[i])
        })
    });

    let unitary_circuit = random_circuit(10, 100, 2021);
    // The acceptance benchmark: the full pipeline (fusion + cache-blocked
    // panels + parallel kernels when the `parallel` feature is on).
    c.bench_function("circuit_unitary_kernel_10q100g", |b| {
        b.iter(|| circuit_unitary(&unitary_circuit))
    });
    // PR 1's per-gate streaming (no fusion, single panel): isolates how much
    // of the trajectory the fusion/panel stages contribute.
    c.bench_function("circuit_unitary_unfused_10q100g", |b| {
        b.iter(|| circuit_unitary_unfused(&unitary_circuit))
    });
    c.bench_function("circuit_unitary_reference_10q100g", |b| {
        b.iter(|| circuit_unitary_reference(&unitary_circuit))
    });

    // QV-shaped workload: back-to-back SU(4) blocks on overlapping pairs —
    // the shape the planner's same-pair merging and k≤3 growth target.
    let qv10 = {
        let raw = quantum_volume_with_depth(10, 10, 5);
        let mut c = Circuit::new(10);
        for inst in raw.instructions() {
            if !matches!(inst.gate, Gate::Measure) {
                c.push(inst.gate.clone(), &inst.qubits);
            }
        }
        c
    };
    c.bench_function("circuit_unitary_kernel_qv10", |b| {
        b.iter(|| circuit_unitary(&qv10))
    });

    let sv_circuit = random_circuit(12, 120, 7);
    // Fused whole-circuit run vs the per-gate engine path.
    c.bench_function("statevector_12q_random120g", |b| {
        b.iter(|| Statevector::from_circuit(&sv_circuit))
    });
    c.bench_function("statevector_12q_random120g_pergate", |b| {
        b.iter(|| {
            let mut sv = Statevector::zero_state(12);
            for inst in sv_circuit.instructions() {
                sv.apply_gate(&inst.gate, &inst.qubits);
            }
            sv
        })
    });

    // SU(4) triangle neighborhoods on a wide register: each triangle's
    // three overlapping 2q blocks (and both layers of them) consolidate
    // into a single 8×8 sweep. At 2²⁰ amplitudes the vector streams from
    // beyond L2, which is the regime where trading passes for a wider
    // dense block pays — the headline workload for k≤3 growth.
    let qv_chain = {
        let mut rng = StdRng::seed_from_u64(33);
        let mut c = Circuit::new(20);
        for _layer in 0..2 {
            for t in 0..6 {
                let (a, b, d) = (3 * t, 3 * t + 1, 3 * t + 2);
                c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, b]);
                c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[b, d]);
                c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, d]);
            }
        }
        c
    };
    c.bench_function("statevector_qv_chain_20q", |b| {
        b.iter(|| Statevector::from_circuit(&qv_chain))
    });

    // The 26q+ streaming regime: 2²⁶ amplitudes = 1 GiB, 2¹⁰ shards of
    // 2¹⁶. The circuit interleaves shard-local SU(4) triangles (qubits
    // 0–8) with cross-shard blocks on the top qubits; the fusion
    // scheduler clusters the local ops into one shard-by-shard run
    // (one streaming pass for the whole cluster) while the high blocks
    // sweep the full vector per op.
    let sv26 = {
        let mut rng = StdRng::seed_from_u64(61);
        let mut c = Circuit::new(26);
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[24, 25]);
        for t in 0..3 {
            let (a, b, d) = (3 * t, 3 * t + 1, 3 * t + 2);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, b]);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[b, d]);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, d]);
        }
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[12, 25]);
        c
    };
    #[cfg(feature = "parallel")]
    {
        // Acceptance check riding along with the bench: the 26q streaming
        // run must be bit-identical at 1, 2, and max threads before it is
        // timed.
        let max = qc_math::max_threads().max(2);
        qc_math::set_max_threads(Some(1));
        let baseline = Statevector::from_circuit(&sv26);
        for threads in [2usize, max] {
            qc_math::set_max_threads(Some(threads));
            let sv = Statevector::from_circuit(&sv26);
            assert!(
                baseline.amplitudes() == sv.amplitudes(),
                "statevector_26q: thread cap {threads} changed amplitude bits"
            );
        }
        qc_math::set_max_threads(None);
        println!("statevector_26q: bit-identical at 1/2/max threads");
    }
    c.bench_function("statevector_26q", |b| {
        b.iter(|| Statevector::from_circuit(&sv26))
    });

    // Batched multi-circuit execution: one VQE optimizer generation (24
    // parameter vectors over a 14-qubit depth-4 RY ansatz) through the
    // batch front-end vs one circuit at a time. Each circuit sits below
    // the kernel parallel threshold, so circuits — not amplitudes — are
    // the unit of parallelism here; the ratio of the two medians is the
    // batch speedup, and 24 / median_ns is circuits per nanosecond.
    let sweep = vqe_parameter_batch(14, 4, 24, 5);
    c.bench_function("sim_batch_throughput", |b| b.iter(|| run_batch(&sweep)));
    c.bench_function("sim_batch_sequential", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(Statevector::from_circuit)
                .collect::<Vec<_>>()
        })
    });

    // Toffoli-chain workload with single-qubit dressing on the operands —
    // the 3q-neighborhood shape that k≤3 dense folding consolidates.
    let mut toffoli_chain = Circuit::new(14);
    for i in 0..12 {
        toffoli_chain.h(i);
        toffoli_chain.ry(0.3 + 0.1 * i as f64, i + 1);
        toffoli_chain.ccx(i, i + 1, i + 2);
        toffoli_chain.t(i + 2);
    }
    c.bench_function("statevector_toffoli_chain_14q", |b| {
        b.iter(|| Statevector::from_circuit(&toffoli_chain))
    });

    let mut ghz = Circuit::new(12);
    ghz.h(0);
    for q in 0..11 {
        ghz.cx(q, q + 1);
    }
    c.bench_function("statevector_12q_ghz", |b| {
        b.iter(|| Statevector::from_circuit(&ghz))
    });

    let backend = Backend::melbourne();
    let qv = {
        let mut c = quantum_volume(8, 3);
        // The router needs ≤2-qubit gates: pre-unroll the SU(4) blocks.
        Unroller::to_device_basis().run(&mut c).unwrap();
        let mut wide = Circuit::new(backend.num_qubits());
        wide.extend(&c);
        wide
    };
    c.bench_function("stochastic_route_qv8_melbourne", |b| {
        b.iter(|| route(&qv, &backend, 3, 5).unwrap())
    });

    // Whole-pipeline benches: a 20-qubit quantum-volume model circuit
    // transpiled for the 20-qubit almaden grid at level 3, and through the
    // RPO-extended pipeline. These track the pass-manager architecture
    // (conversion consolidation, change-driven fixed point), not any
    // single kernel.
    let almaden = Backend::almaden();
    let qv20 = quantum_volume_with_depth(20, 10, 5);
    c.bench_function("transpile_level3_qv20", |b| {
        b.iter(|| {
            qc_transpile::transpile(
                &qv20,
                &almaden,
                &qc_transpile::TranspileOptions::level(3).with_seed(7),
            )
            .unwrap()
        })
    });
    c.bench_function("transpile_rpo_qv20", |b| {
        b.iter(|| {
            rpo_core::transpile_rpo(&qv20, &almaden, &rpo_core::RpoOptions::new().with_seed(7))
                .unwrap()
        })
    });

    // Wide/shallow workload: a 1000-gate mostly-local chain on a 24-qubit
    // line. Per-gate optimization opportunities are sparse (one
    // cancellable cx pair per segment), so this bench tracks the
    // *asymptotic* pass-manager costs — O(edit) splice relinks and
    // interest-filtered scheduling — rather than synthesis throughput: a
    // driver whose edits or dirty tracking scale with circuit size instead
    // of change size regresses here first.
    let line24 = Backend::linear(24);
    let chain1k = {
        let mut c = Circuit::new(24);
        let mut g = 0usize;
        'outer: loop {
            for i in 0..23 {
                c.h(i);
                c.cx(i, i + 1);
                c.t(i + 1);
                c.cx(i, i + 1); // t on the target blocks the cancellation
                if g >= 996 {
                    break 'outer;
                }
                g += 4;
            }
        }
        c
    };
    c.bench_function("transpile_level3_chain24q1k", |b| {
        b.iter(|| {
            qc_transpile::transpile(
                &chain1k,
                &line24,
                &qc_transpile::TranspileOptions::level(3).with_seed(7),
            )
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
