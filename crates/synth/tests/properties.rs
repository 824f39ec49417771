//! Property-based tests for gate synthesis: every decomposition must
//! reconstruct its input.

use proptest::prelude::*;
use qc_circuit::{circuit_unitary, Gate};
use qc_math::matrix::states_equal_up_to_phase;
use qc_math::{haar_state, haar_unitary};
use qc_sim::Statevector;
use qc_synth::{prepare_two_qubit, synthesize_two_qubit, OneQubitEuler, TwoQubitWeyl};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn euler_round_trips_haar_su2(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(2, &mut rng);
        let e = OneQubitEuler::from_matrix(&u);
        prop_assert!(e.to_matrix().approx_eq(&u, 1e-8));
        let g = e.to_gate();
        prop_assert!(g.matrix().unwrap().equal_up_to_global_phase(&u, 1e-8));
    }

    #[test]
    fn weyl_round_trips_haar_su4(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(4, &mut rng);
        let w = TwoQubitWeyl::decompose(&u);
        prop_assert!(w.reconstruct().approx_eq(&u, 1e-6));
        // Canonical chamber invariants.
        prop_assert!(w.a <= std::f64::consts::FRAC_PI_4 + 1e-8);
        prop_assert!(w.b >= -1e-9 && w.b <= w.a + 1e-8);
        prop_assert!(w.c.abs() <= w.b + 1e-8);
    }

    #[test]
    fn weyl_synthesis_matches_and_bounds_cx(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(4, &mut rng);
        let circ = synthesize_two_qubit(&u);
        prop_assert!(circuit_unitary(&circ).equal_up_to_global_phase(&u, 1e-6));
        prop_assert!(circ.gate_counts().cx <= 4);
    }

    #[test]
    fn weyl_coords_are_local_invariants(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(4, &mut rng);
        let l = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let r = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let w1 = TwoQubitWeyl::decompose(&u);
        let w2 = TwoQubitWeyl::decompose(&l.matmul(&u).matmul(&r));
        prop_assert!((w1.a - w2.a).abs() < 1e-6);
        prop_assert!((w1.b - w2.b).abs() < 1e-6);
        prop_assert!((w1.c - w2.c).abs() < 1e-6);
    }

    #[test]
    fn state_prep_round_trips_haar_states(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = haar_state(4, &mut rng);
        let circ = prepare_two_qubit(&target);
        prop_assert!(circ.gate_counts().cx <= 1);
        let sv = Statevector::from_circuit(&circ);
        prop_assert!(states_equal_up_to_phase(sv.amplitudes(), &target, 1e-7));
    }

    #[test]
    fn controlled_u_synthesis_exact(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(2, &mut rng);
        let want = Gate::Cu(u).matrix().unwrap();
        let circ = synthesize_two_qubit(&want);
        prop_assert!(circuit_unitary(&circ).equal_up_to_global_phase(&want, 1e-6));
        prop_assert!(circ.gate_counts().cx <= 2);
    }

    #[test]
    fn canonical_gates_synthesize_within_class_budget(
        a in 0.0..std::f64::consts::FRAC_PI_4,
        b_frac in 0.0..1.0f64,
        c_frac in 0.0..1.0f64,
    ) {
        // Random point in the Weyl chamber: a ≥ b ≥ |c|.
        let b = a * b_frac;
        let c = b * (2.0 * c_frac - 1.0);
        let u = qc_synth::canonical_matrix(a, b, c);
        let circ = synthesize_two_qubit(&u);
        prop_assert!(circuit_unitary(&circ).equal_up_to_global_phase(&u, 1e-6));
        let budget = if c.abs() < 1e-9 { 2 } else { 4 };
        prop_assert!(circ.gate_counts().cx <= budget);
    }
}
