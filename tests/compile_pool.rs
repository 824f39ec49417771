//! Compiles never start the kernel pool.
//!
//! The kernel engine hands a pass to the `scoped_pool` workers only when
//! it touches at least `qc_math::kernel::PAR_MIN_ELEMS` scalars, and the
//! largest kernel on the compile path is the guard's `UnitaryAccumulator`
//! on at most three qubits. So a process that only compiles never spawns a
//! pool worker, and linking the pool costs the compile and serve paths no
//! threads. This file holds a single test so that it runs in a process of
//! its own: any other test could have started the pool first.

#![cfg(target_os = "linux")]

use qc_algos::{qpe, quantum_volume};
use qc_backends::Backend;
use qc_circuit::Gate;
use qc_sim::Statevector;
use qc_transpile::{transpile, TranspileOptions};
use rpo_core::{transpile_rpo, RpoOptions};

/// How many of this process's threads are kernel pool workers
/// (`rpo-kernel-<w>`).
fn pool_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("rpo-kernel-"))
        .count()
}

#[test]
fn compiles_never_start_the_kernel_pool() {
    let jobs = [
        (
            "quantum_volume(20, 7)",
            quantum_volume(20, 7),
            Backend::almaden(),
        ),
        ("qpe(9, 7/8)", qpe(9, 7.0 / 8.0), Backend::melbourne()),
    ];
    for (name, program, backend) in &jobs {
        transpile(program, backend, &TranspileOptions::level(3).with_seed(11))
            .unwrap_or_else(|e| panic!("{name} at level 3: {e}"));
        transpile_rpo(program, backend, &RpoOptions::new().with_seed(11))
            .unwrap_or_else(|e| panic!("{name} through RPO: {e}"));
        assert_eq!(pool_workers(), 0, "compiling {name} started the pool");
    }

    // The probe sees the workers once a kernel does fan out: one gate on
    // 2¹⁷ amplitudes, split two ways.
    qc_math::set_max_threads(Some(2));
    let mut sv = Statevector::zero_state(17);
    sv.apply_gate(&Gate::H, &[0]);
    qc_math::set_max_threads(None);
    assert!(pool_workers() > 0, "a 2¹⁷-amplitude kernel ran no worker");
}
