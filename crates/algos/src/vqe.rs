//! The VQE hardware-efficient RY ansatz (paper Section VII-B).
//!
//! The paper transpiles the Qiskit Aqua `RY` variational form used for its
//! Max-Cut VQE experiments: alternating layers of per-qubit `Ry` rotations
//! and a linear CNOT entanglement ladder, closed by a final rotation layer.
//! Only the circuit matters for the transpilation study — the classical
//! optimization loop never changes its shape, just the angles.

use qc_circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the RY hardware-efficient ansatz on `n` qubits with `depth`
/// entangling layers, rotation angles drawn from a seeded RNG (the angles
/// do not affect gate counts, only reproducibility of the circuit).
pub fn vqe_ry_ansatz(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let rotation_layer = |c: &mut Circuit, rng: &mut StdRng| {
        for q in 0..n {
            c.ry(
                rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                q,
            );
        }
    };
    rotation_layer(&mut c, &mut rng);
    for _ in 0..depth {
        for q in 0..n.saturating_sub(1) {
            c.cx(q, q + 1);
        }
        rotation_layer(&mut c, &mut rng);
    }
    c.measure_all();
    c
}

/// Builds the RY ansatz with explicit rotation angles — the VQE parameter
/// sweep's unit of work: one circuit per parameter vector, all sharing the
/// same shape (same gates on the same qubits, only angles differ).
///
/// `angles` is consumed layer by layer — `(depth + 1) · n` values, in the
/// same order [`vqe_ry_ansatz`] draws them.
///
/// # Panics
///
/// Panics if `angles.len() != (depth + 1) * n`.
pub fn vqe_ry_ansatz_with_angles(n: usize, depth: usize, angles: &[f64]) -> Circuit {
    assert_eq!(angles.len(), (depth + 1) * n, "need (depth + 1) * n angles");
    let mut next = angles.iter().copied();
    let mut c = Circuit::new(n);
    let rotation_layer = |c: &mut Circuit, next: &mut dyn Iterator<Item = f64>| {
        for q in 0..n {
            c.ry(next.next().expect("angle count checked above"), q);
        }
    };
    rotation_layer(&mut c, &mut next);
    for _ in 0..depth {
        for q in 0..n.saturating_sub(1) {
            c.cx(q, q + 1);
        }
        rotation_layer(&mut c, &mut next);
    }
    c.measure_all();
    c
}

/// A VQE parameter sweep: `batch` same-shape ansatz circuits whose angle
/// vectors are drawn from a seeded RNG (one optimizer generation = one
/// batch), the workload of the `sim_batch_sequential` kernel bench.
pub fn vqe_parameter_batch(n: usize, depth: usize, batch: usize, seed: u64) -> Vec<Circuit> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            let angles: Vec<f64> = (0..(depth + 1) * n)
                .map(|_| rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI))
                .collect();
            vqe_ry_ansatz_with_angles(n, depth, &angles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_hardware_efficient_ansatz() {
        let c = vqe_ry_ansatz(4, 3, 0);
        // (depth+1) rotation layers of n gates.
        assert_eq!(c.count_name("ry"), 4 * 4);
        // depth ladders of n−1 CNOTs.
        assert_eq!(c.gate_counts().cx, 3 * 3);
        assert_eq!(c.count_name("measure"), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(vqe_ry_ansatz(5, 2, 9), vqe_ry_ansatz(5, 2, 9));
        assert_ne!(vqe_ry_ansatz(5, 2, 9), vqe_ry_ansatz(5, 2, 10));
    }

    #[test]
    fn single_qubit_edge_case() {
        let c = vqe_ry_ansatz(1, 2, 0);
        assert_eq!(c.gate_counts().cx, 0);
        assert_eq!(c.count_name("ry"), 3);
    }
}
