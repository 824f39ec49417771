//! State-vector simulation with optional Monte-Carlo noise.
//!
//! This crate provides the execution substrate for the RPO paper's
//! "real quantum computer" experiments (Fig. 11): an exact state-vector
//! simulator ([`Statevector`]), measurement sampling, and a stochastic noise
//! model ([`noise::NoiseModel`]) that injects depolarizing errors after each
//! gate and readout errors at measurement, parameterized per backend the way
//! IBM calibration data is.
//!
//! # Examples
//!
//! ```
//! use qc_circuit::Circuit;
//! use qc_sim::Statevector;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! let sv = Statevector::from_circuit(&bell);
//! let p = sv.probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12);
//! assert!((p[3] - 0.5).abs() < 1e-12);
//! ```

pub mod noise;
pub mod statevector;

pub use noise::{NoiseModel, NoisySimulator};
pub use statevector::{counts_to_distribution, Statevector};

use qc_circuit::Circuit;
use qc_math::matrix::states_equal_up_to_phase;

/// Functional equivalence on the all-zeros input: do the two circuits
/// produce the same state from |0…0⟩ up to a global phase?
///
/// This is the paper's notion of "functionally equivalent" for relaxed
/// peephole rewrites: the unitaries may differ, but the action on the
/// reachable input is preserved.
pub fn same_output_state(a: &Circuit, b: &Circuit, eps: f64) -> bool {
    if a.num_qubits() != b.num_qubits() {
        return false;
    }
    let sa = Statevector::from_circuit(a);
    let sb = Statevector::from_circuit(b);
    states_equal_up_to_phase(sa.amplitudes(), sb.amplitudes(), eps)
}

/// Total-variation distance between the measurement distributions of two
/// circuits on the all-zeros input (0 = identical, 1 = disjoint).
pub fn output_distribution_distance(a: &Circuit, b: &Circuit) -> f64 {
    let pa = Statevector::from_circuit(a).probabilities();
    let pb = Statevector::from_circuit(b).probabilities();
    0.5 * pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).sum::<f64>()
}
