//! Property tests for the pipeline driver: `transpile` (one conversion
//! each way, the change-driven fixed point, DAG layout and routing) must
//! produce **bit-identical** output — equal
//! `canonical_bytes`, so even the sign of a zero angle agrees — to
//! `reference::transpile_reference`, which runs each pass on its own over
//! a circuit with the unconditional fixed-point loop, on the shared
//! circuit families. It must also convert Circuit↔Dag exactly once in
//! each direction.

use qc_backends::Backend;
use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{canonical_bytes, conversion_counts, reset_conversion_counts, Circuit, Dag};
use qc_transpile::preset::fixpoint_passes;
use qc_transpile::reference::transpile_reference;
use qc_transpile::{transpile, FixedPointLoop, PropertySet, TranspileOptions};

fn assert_pipelines_agree(c: &Circuit, label: &str) {
    let backend = Backend::melbourne();
    for level in 0..=3u8 {
        for seed in [1u64, 9] {
            let opts = TranspileOptions::level(level).with_seed(seed);
            let new = transpile(c, &backend, &opts).expect("dag-native transpile");
            let old = transpile_reference(c, &backend, &opts).expect("reference transpile");
            assert_eq!(
                new.circuit, old.circuit,
                "{label}: level {level} seed {seed} diverged from the reference pipeline"
            );
            assert!(
                canonical_bytes(&new.circuit) == canonical_bytes(&old.circuit),
                "{label}: level {level} seed {seed}: output bits differ from the reference pipeline"
            );
            assert_eq!(
                new.final_map, old.final_map,
                "{label}: level {level} seed {seed} final map diverged"
            );
        }
    }
}

#[test]
fn random_circuits_match_reference_pipeline() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        assert_pipelines_agree(&c, &format!("random_circuit({n},{g},{seed})"));
    }
}

#[test]
fn blocked_neighborhood_circuits_match_reference_pipeline() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        assert_pipelines_agree(&c, &format!("blocked_neighborhood_circuit({n},{g},{seed})"));
    }
}

#[test]
fn toffoli_chains_match_reference_pipeline() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        assert_pipelines_agree(&c, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn measured_circuits_match_reference_pipeline() {
    let mut c = random_circuit(4, 30, 19);
    c.measure_all();
    assert_pipelines_agree(&c, "random_circuit(4,30,19)+measure_all");
}

#[test]
fn transpile_converts_exactly_once_each_way() {
    let backend = Backend::melbourne();
    for level in 0..=3u8 {
        let c = random_circuit(5, 40, 31);
        reset_conversion_counts();
        transpile(&c, &backend, &TranspileOptions::level(level)).unwrap();
        assert_eq!(
            conversion_counts(),
            (1, 1),
            "level {level} pipeline must convert Circuit→Dag and Dag→Circuit exactly once"
        );
    }
}

#[test]
fn fixed_point_loop_runs_zero_rewriting_passes_on_optimized_circuit() {
    // A stream that is exactly fixed under every loop pass: CNOTs only, no
    // adjacent cancelling pair, no consolidatable block.
    let mut c = Circuit::new(3);
    c.cx(0, 1).cx(1, 2).cx(0, 1);
    let mut dag = Dag::from_circuit(&c);
    let mut props = PropertySet::new();
    let mut fp = FixedPointLoop::new(fixpoint_passes(true), 3);
    fp.run(&mut dag, &mut props, 10).unwrap();
    // Iteration 1 visits every pass (all start dirty) and rewrites
    // nothing, so the change tracking never schedules a second iteration.
    assert_eq!(
        fp.executed_per_iteration.len(),
        1,
        "loop must settle after one iteration"
    );
    for s in &fp.stats {
        assert_eq!(
            s.rewrites, 0,
            "pass {} rewrote an optimized circuit",
            s.name
        );
        assert_eq!(s.runs, 1, "pass {} must run exactly once", s.name);
    }
    assert_eq!(dag.to_circuit(), c);
}
