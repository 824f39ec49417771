//! Quantum Volume model circuits (Cross et al., the paper's reference
//! \[10\]).
//!
//! A QV circuit on `n` qubits is `n` layers; each layer applies a
//! Haar-random SU(4) block to every pair in a random qubit permutation.
//! The blocks enter the IR as [`qc_circuit::Gate::Unitary`] and are
//! synthesized by the transpiler's KAK path — the paper notes that despite
//! the circuits being random and fully entangling, RPO still finds
//! reductions (mostly around the routing SWAPs).

use qc_circuit::{Circuit, Gate};
use qc_math::haar_unitary;
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Builds a Quantum Volume model circuit on `n` qubits with `n` layers.
pub fn quantum_volume(n: usize, seed: u64) -> Circuit {
    quantum_volume_with_depth(n, n, seed)
}

/// Builds a Quantum Volume circuit with an explicit layer count.
pub fn quantum_volume_with_depth(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..depth {
        order.shuffle(&mut rng);
        for pair in order.chunks(2) {
            if pair.len() == 2 {
                let u = haar_unitary(4, &mut rng);
                c.push(Gate::Unitary(u), &[pair[0], pair[1]]);
            }
        }
    }
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_structure() {
        let c = quantum_volume(4, 1);
        // 4 layers × 2 blocks per layer.
        assert_eq!(c.count_name("unitary"), 8);
        assert_eq!(c.count_name("measure"), 4);
    }

    #[test]
    fn odd_width_leaves_one_qubit_idle_per_layer() {
        let c = quantum_volume(5, 1);
        assert_eq!(c.count_name("unitary"), 5 * 2);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(quantum_volume(4, 3), quantum_volume(4, 3));
        assert_ne!(quantum_volume(4, 3), quantum_volume(4, 4));
    }

    #[test]
    fn blocks_are_unitary() {
        let c = quantum_volume(3, 7);
        for inst in c.instructions() {
            if let Gate::Unitary(u) = &inst.gate {
                assert!(u.is_unitary(1e-9));
            }
        }
    }
}
