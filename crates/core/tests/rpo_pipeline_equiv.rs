//! Property tests for the RPO pipeline driver: `transpile_rpo` (one
//! conversion each way, the change-driven fixed point, DAG layout and
//! routing) must produce **bit-identical** output (equal
//! `canonical_bytes`) to `transpile_rpo_reference`, which runs each pass
//! on its own over a circuit, on the shared circuit families.

use qc_backends::Backend;
use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{canonical_bytes, conversion_counts, reset_conversion_counts, Circuit};
use rpo_core::{transpile_rpo, transpile_rpo_reference, RpoOptions};

fn assert_rpo_pipelines_agree(c: &Circuit, label: &str) {
    let backend = Backend::melbourne();
    for opts in [
        RpoOptions::new().with_seed(1),
        RpoOptions::new().with_seed(9),
        RpoOptions::new().without_qbo(),
        RpoOptions::new().without_qpo(),
        RpoOptions {
            enable_block_qpo: false,
            ..RpoOptions::new()
        },
    ] {
        let new = transpile_rpo(c, &backend, &opts).expect("dag-native rpo");
        let old = transpile_rpo_reference(c, &backend, &opts).expect("reference rpo");
        assert_eq!(
            new.circuit, old.circuit,
            "{label}: RPO pipeline diverged from the reference (opts {opts:?})"
        );
        assert!(
            canonical_bytes(&new.circuit) == canonical_bytes(&old.circuit),
            "{label}: RPO output bits differ from the reference (opts {opts:?})"
        );
        assert_eq!(new.final_map, old.final_map, "{label}: final map diverged");
    }
}

#[test]
fn random_circuits_match_reference_rpo() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 50, 77)] {
        let c = random_circuit(n, g, seed);
        assert_rpo_pipelines_agree(&c, &format!("random_circuit({n},{g},{seed})"));
    }
}

#[test]
fn blocked_neighborhood_circuits_match_reference_rpo() {
    for (n, g, seed) in [(3, 15, 3), (5, 20, 8)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        assert_rpo_pipelines_agree(&c, &format!("blocked_neighborhood_circuit({n},{g},{seed})"));
    }
}

#[test]
fn toffoli_chains_match_reference_rpo() {
    for (n, seed) in [(3, 1), (6, 4)] {
        let c = toffoli_chain(n, seed);
        assert_rpo_pipelines_agree(&c, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn ancilla_annotated_circuit_matches_reference_rpo() {
    // The annotation path (ANNOT feeding the analyses) through both
    // pipelines.
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).cx(0, 1).h(0);
    c.annot_zero(0);
    c.cx(0, 2).ccx(1, 2, 3).swap(0, 3).measure_all();
    assert_rpo_pipelines_agree(&c, "annotated ancilla circuit");
}

#[test]
fn rpo_transpile_converts_exactly_once_each_way() {
    let backend = Backend::melbourne();
    let c = random_circuit(5, 40, 31);
    reset_conversion_counts();
    transpile_rpo(&c, &backend, &RpoOptions::new()).unwrap();
    assert_eq!(
        conversion_counts(),
        (1, 1),
        "the RPO pipeline must convert Circuit→Dag and Dag→Circuit exactly once"
    );
}
