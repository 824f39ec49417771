//! The guarded `transpile_hoare` against the same flow run pass by pass
//! over a circuit: the level-3 reference pipeline, then `HoareOptimizer`
//! on its own, `stage_optimize_1q` and `stage_fixpoint_loop(true)`.
//! Outputs must be bit-identical (equal `canonical_bytes`, so even the
//! sign of a zero angle agrees). The flow must also convert Circuit↔Dag
//! exactly once in each direction.

use qc_backends::Backend;
use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{canonical_bytes, conversion_counts, reset_conversion_counts, Circuit};
use qc_hoare::{transpile_hoare, HoareOptimizer};
use qc_transpile::reference::{stage_fixpoint_loop, stage_optimize_1q, transpile_reference};
use qc_transpile::{Pass, TranspileOptions};

fn assert_hoare_flows_agree(c: &Circuit, label: &str) {
    for backend in [Backend::melbourne(), Backend::almaden()] {
        for seed in [1u64, 9] {
            let opts = TranspileOptions::level(3).with_seed(seed);
            let new = transpile_hoare(c, &backend, &opts).expect("guarded hoare");
            let mut old = transpile_reference(c, &backend, &opts).expect("reference level 3");
            HoareOptimizer::new().run(&mut old.circuit).unwrap();
            stage_optimize_1q(&mut old.circuit).unwrap();
            stage_fixpoint_loop(&mut old.circuit, true).unwrap();
            assert_eq!(
                new.circuit,
                old.circuit,
                "{label}: {} seed {seed}: hoare flow diverged from the reference sequence",
                backend.name()
            );
            assert!(
                canonical_bytes(&new.circuit) == canonical_bytes(&old.circuit),
                "{label}: {} seed {seed}: output bits differ from the reference sequence",
                backend.name()
            );
            assert_eq!(
                new.final_map,
                old.final_map,
                "{label}: {} seed {seed}: final map diverged",
                backend.name()
            );
            assert!(new.degradation.is_clean(), "{label}: {:?}", new.degradation);
        }
    }
}

#[test]
fn random_circuits_match_reference_hoare() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        assert_hoare_flows_agree(&c, &format!("random_circuit({n},{g},{seed})"));
    }
}

#[test]
fn blocked_neighborhood_circuits_match_reference_hoare() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        assert_hoare_flows_agree(&c, &format!("blocked_neighborhood_circuit({n},{g},{seed})"));
    }
}

#[test]
fn toffoli_chains_match_reference_hoare() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        assert_hoare_flows_agree(&c, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn measured_circuits_match_reference_hoare() {
    let mut c = random_circuit(4, 30, 19);
    c.measure_all();
    assert_hoare_flows_agree(&c, "random_circuit(4,30,19)+measure_all");
}

#[test]
fn hoare_converts_exactly_once_each_way() {
    let c = random_circuit(5, 40, 31);
    reset_conversion_counts();
    transpile_hoare(&c, &Backend::melbourne(), &TranspileOptions::level(3)).unwrap();
    assert_eq!(
        conversion_counts(),
        (1, 1),
        "the Hoare pipeline must convert Circuit→Dag and Dag→Circuit exactly once"
    );
}
