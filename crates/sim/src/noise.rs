//! Monte-Carlo noise simulation.
//!
//! The RPO paper's Fig. 11 runs 3-qubit QPE on three IBM machines and shows
//! that the CNOT reduction translates into higher success rates. On real
//! hardware the dominant error sources are two-qubit gate error (~10⁻²),
//! single-qubit gate error (~10⁻³–10⁻⁴) and readout error — numbers the
//! paper quotes for `ibmq_16_melbourne`. This module reproduces that setting
//! with stochastic Pauli (depolarizing) channels after each gate plus
//! readout bit flips, sampled per shot.

use crate::statevector::Statevector;
use qc_circuit::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Depolarizing + readout noise parameters (per-backend averages).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Probability of a depolarizing event after each single-qubit gate.
    pub p1q: f64,
    /// Probability of a depolarizing event after each two-qubit gate.
    pub p2q: f64,
    /// Probability of flipping each classical bit at readout.
    pub readout: f64,
}

impl NoiseModel {
    /// A noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            p1q: 0.0,
            p2q: 0.0,
            readout: 0.0,
        }
    }

    /// Creates a model from gate and readout error probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p1q: f64, p2q: f64, readout: f64) -> Self {
        for (name, p) in [("p1q", p1q), ("p2q", p2q), ("readout", readout)] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        NoiseModel { p1q, p2q, readout }
    }
}

/// Shot-by-shot noisy executor: each shot replays the circuit on a fresh
/// state vector, inserting random Pauli errors after gates according to the
/// [`NoiseModel`], then samples one measurement outcome and applies readout
/// flips.
#[derive(Debug)]
pub struct NoisySimulator {
    model: NoiseModel,
    rng: StdRng,
}

impl NoisySimulator {
    /// Creates a simulator with a deterministic seed.
    pub fn new(model: NoiseModel, seed: u64) -> Self {
        NoisySimulator {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured noise model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Runs `shots` executions and returns basis-state counts.
    pub fn run(&mut self, circuit: &Circuit, shots: usize) -> HashMap<usize, usize> {
        let mut counts = HashMap::new();
        for _ in 0..shots {
            let outcome = self.run_single_shot(circuit);
            *counts.entry(outcome).or_insert(0) += 1;
        }
        counts
    }

    /// Fraction of shots that produced exactly `expected` (the paper's
    /// "success rate" metric).
    pub fn success_rate(&mut self, circuit: &Circuit, expected: usize, shots: usize) -> f64 {
        let counts = self.run(circuit, shots);
        *counts.get(&expected).unwrap_or(&0) as f64 / shots as f64
    }

    fn run_single_shot(&mut self, circuit: &Circuit) -> usize {
        let n = circuit.num_qubits();
        let mut sv = Statevector::zero_state(n);
        for inst in circuit.instructions() {
            if inst.gate.is_directive() || matches!(inst.gate, Gate::Measure) {
                continue;
            }
            if matches!(inst.gate, Gate::Reset) {
                sv.reset(inst.qubits[0], &mut self.rng);
                continue;
            }
            sv.apply_gate(&inst.gate, &inst.qubits);
            // Depolarizing noise after the gate.
            match inst.qubits.len() {
                1 => {
                    if self.rng.gen::<f64>() < self.model.p1q {
                        self.apply_random_pauli(&mut sv, inst.qubits[0]);
                    }
                }
                _ => {
                    // Two-qubit (and larger) gates: a depolarizing event hits
                    // every involved qubit pairwise-independently, matching
                    // the standard two-qubit depolarizing channel sampling.
                    if self.rng.gen::<f64>() < self.model.p2q {
                        // Random non-identity Pauli string over the qubits.
                        loop {
                            let mut any = false;
                            let choices: Vec<(usize, u8)> = inst
                                .qubits
                                .iter()
                                .map(|&q| (q, self.rng.gen_range(0u8..4)))
                                .collect();
                            for &(q, p) in &choices {
                                if p != 0 {
                                    any = true;
                                    self.apply_pauli(&mut sv, q, p);
                                }
                            }
                            if any {
                                break;
                            }
                        }
                    }
                }
            }
        }
        // Terminal measurement with readout error.
        let mut outcome = {
            let probs = sv.probabilities();
            let mut r: f64 = self.rng.gen();
            let mut o = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                if r < *p {
                    o = i;
                    break;
                }
                r -= p;
            }
            o
        };
        if self.model.readout > 0.0 {
            for q in 0..n {
                if self.rng.gen::<f64>() < self.model.readout {
                    outcome ^= 1 << q;
                }
            }
        }
        outcome
    }

    fn apply_random_pauli(&mut self, sv: &mut Statevector, q: usize) {
        let p = self.rng.gen_range(1u8..4);
        self.apply_pauli(sv, q, p);
    }

    fn apply_pauli(&self, sv: &mut Statevector, q: usize, which: u8) {
        let gate = match which {
            1 => Gate::X,
            2 => Gate::Y,
            3 => Gate::Z,
            _ => return,
        };
        sv.apply_gate(&gate, &[q]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn ideal_model_matches_exact_simulation() {
        let mut sim = NoisySimulator::new(NoiseModel::ideal(), 7);
        let counts = sim.run(&bell(), 4000);
        let p00 = *counts.get(&0).unwrap_or(&0) as f64 / 4000.0;
        let p11 = *counts.get(&3).unwrap_or(&0) as f64 / 4000.0;
        assert!((p00 - 0.5).abs() < 0.05);
        assert!((p11 - 0.5).abs() < 0.05);
        assert_eq!(*counts.get(&1).unwrap_or(&0), 0);
        assert_eq!(*counts.get(&2).unwrap_or(&0), 0);
    }

    #[test]
    fn noise_degrades_success_rate() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        let mut ideal = NoisySimulator::new(NoiseModel::ideal(), 1);
        assert_eq!(ideal.success_rate(&c, 1, 500), 1.0);
        let noisy_model = NoiseModel::new(0.2, 0.2, 0.1);
        let mut noisy = NoisySimulator::new(noisy_model, 1);
        let rate = noisy.success_rate(&c, 1, 2000);
        assert!(rate < 0.95, "noise should reduce success rate, got {rate}");
        assert!(
            rate > 0.5,
            "single gate shouldn't destroy the state, got {rate}"
        );
    }

    #[test]
    fn more_cnots_means_lower_fidelity() {
        // The core premise of the paper: circuits with more CNOTs are
        // noisier. Identity-equivalent circuits with 2 vs 6 CNOTs.
        let mut short = Circuit::new(2);
        short.x(0).cx(0, 1).cx(0, 1).measure_all();
        let mut long = Circuit::new(2);
        long.x(0);
        for _ in 0..3 {
            long.cx(0, 1).cx(0, 1);
        }
        long.measure_all();
        let model = NoiseModel::new(1e-3, 3e-2, 0.0);
        let shots = 6000;
        let r_short = NoisySimulator::new(model, 5).success_rate(&short, 1, shots);
        let r_long = NoisySimulator::new(model, 5).success_rate(&long, 1, shots);
        assert!(
            r_short > r_long,
            "shorter circuit should win: {r_short} vs {r_long}"
        );
    }

    #[test]
    fn readout_error_flips_deterministic_outcome() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let model = NoiseModel::new(0.0, 0.0, 0.25);
        let mut sim = NoisySimulator::new(model, 2);
        let counts = sim.run(&c, 4000);
        let flipped = *counts.get(&1).unwrap_or(&0) as f64 / 4000.0;
        assert!((flipped - 0.25).abs() < 0.04, "got {flipped}");
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn model_rejects_bad_probability() {
        NoiseModel::new(1.5, 0.0, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let model = NoiseModel::new(0.01, 0.05, 0.02);
        let a = NoisySimulator::new(model, 9).run(&bell(), 200);
        let b = NoisySimulator::new(model, 9).run(&bell(), 200);
        assert_eq!(a, b);
    }
}
