//! Cross-crate integration tests: full pipelines on real benchmark
//! circuits, verified against the simulator.

use qc_algos::{
    bernstein_vazirani, grover, hidden_string_outcome, qpe, qpe_expected_outcome, quantum_volume,
    vqe_ry_ansatz, McxDesign, OracleStyle,
};
use qc_backends::Backend;
use qc_circuit::{Circuit, Gate, Instruction};
use qc_hoare::transpile_hoare;
use qc_sim::Statevector;
use qc_transpile::preset::Transpiled;
use qc_transpile::{transpile, TranspileOptions};
use rpo_core::{transpile_rpo, RpoOptions};

/// Probability that the logical qubits of a transpiled circuit read out the
/// expected value on the ideal simulator.
fn ideal_success(t: &Transpiled, num_logical: usize, expected: usize) -> f64 {
    let (compact, old_of_new) = t.circuit.compacted();
    let sv = Statevector::from_circuit(&compact);
    sv.probabilities()
        .iter()
        .enumerate()
        .filter(|(idx, _)| {
            (0..num_logical).all(|q| {
                let want = (expected >> q) & 1;
                match old_of_new.iter().position(|&o| o == t.final_map[q]) {
                    Some(ci) => (idx >> ci) & 1 == want,
                    None => want == 0, // untouched wire stays |0⟩
                }
            })
        })
        .map(|(_, p)| p)
        .sum()
}

fn all_flows(c: &Circuit, backend: &Backend, seed: u64) -> [Transpiled; 3] {
    [
        transpile(c, backend, &TranspileOptions::level(3).with_seed(seed)).expect("level3"),
        transpile_hoare(c, backend, &TranspileOptions::level(3).with_seed(seed)).expect("hoare"),
        transpile_rpo(c, backend, &RpoOptions::new().with_seed(seed)).expect("rpo"),
    ]
}

#[test]
fn qpe_all_flows_stay_correct_and_ordered() {
    let backend = Backend::melbourne();
    let n = 3;
    let c = qpe(n, 7.0 / 8.0);
    let expected = qpe_expected_outcome(n, 7.0 / 8.0);
    let [l3, hoare, rpo] = all_flows(&c, &backend, 3);
    for (label, t) in [("level3", &l3), ("hoare", &hoare), ("rpo", &rpo)] {
        let p = ideal_success(t, n, expected);
        assert!((p - 1.0).abs() < 1e-7, "{label}: success = {p}");
    }
    // The paper's ordering: RPO ≤ hoare ≤ level3 on CNOTs (ties allowed).
    assert!(rpo.circuit.gate_counts().cx <= l3.circuit.gate_counts().cx);
    assert!(hoare.circuit.gate_counts().cx <= l3.circuit.gate_counts().cx);
}

#[test]
fn bernstein_vazirani_boolean_oracle_all_flows() {
    let backend = Backend::melbourne();
    let s = [true, false, true, true];
    let c = bernstein_vazirani(&s, OracleStyle::Boolean);
    let expected = hidden_string_outcome(&s);
    let [l3, _hoare, rpo] = all_flows(&c, &backend, 1);
    assert!((ideal_success(&l3, s.len(), expected) - 1.0).abs() < 1e-7);
    assert!((ideal_success(&rpo, s.len(), expected) - 1.0).abs() < 1e-7);
    // RPO strictly wins here: the boolean oracle collapses to phase gates.
    assert!(
        rpo.circuit.gate_counts().cx < l3.circuit.gate_counts().cx,
        "rpo {} vs level3 {}",
        rpo.circuit.gate_counts().cx,
        l3.circuit.gate_counts().cx
    );
}

#[test]
fn grover_vchain_all_flows_preserve_search() {
    let backend = Backend::melbourne();
    let n = 4;
    let marked = 0b1010;
    let c = grover(n, marked, 3, McxDesign::CleanAncilla { annotate: true });
    let [l3, _hoare, rpo] = all_flows(&c, &backend, 2);
    let p3 = ideal_success(&l3, n, marked);
    let pr = ideal_success(&rpo, n, marked);
    assert!(p3 > 0.9, "level3 search degraded: {p3}");
    assert!(pr > 0.9, "rpo search degraded: {pr}");
    assert!(rpo.circuit.gate_counts().cx <= l3.circuit.gate_counts().cx);
}

#[test]
fn vqe_ansatz_round_trips_through_all_flows() {
    let backend = Backend::almaden();
    let c = vqe_ry_ansatz(6, 2, 11);
    // The ansatz output state must be identical (up to phase) across flows:
    // compare full output states on the compacted circuits via fidelity
    // with the reference (untranspiled) circuit.
    let reference = Statevector::from_circuit(&{
        let mut plain = Circuit::new(6);
        for inst in c.instructions() {
            if inst.gate.name() != "measure" {
                plain.push(inst.gate.clone(), &inst.qubits);
            }
        }
        plain
    });
    for (label, t) in [
        (
            "level3",
            transpile(&c, &backend, &TranspileOptions::level(3).with_seed(4)).unwrap(),
        ),
        (
            "rpo",
            transpile_rpo(&c, &backend, &RpoOptions::new().with_seed(4)).unwrap(),
        ),
    ] {
        // Fidelity: |⟨ref|out⟩|² with out read through the wire maps.
        let (compact, old_of_new) = t.circuit.compacted();
        let sv = Statevector::from_circuit(&compact);
        let mut overlap = qc_math::C64::ZERO;
        for (idx, amp) in sv.amplitudes().iter().enumerate() {
            if amp.norm() < 1e-12 {
                continue;
            }
            // Map the compact index back to a logical basis state.
            let mut logical = 0usize;
            let mut extra = false;
            for (ci, &old) in old_of_new.iter().enumerate() {
                if (idx >> ci) & 1 == 1 {
                    match t.final_map.iter().position(|&p| p == old) {
                        Some(l) => logical |= 1 << l,
                        None => extra = true, // residue on a helper wire
                    }
                }
            }
            if !extra {
                overlap += reference.amplitudes()[logical].conj() * *amp;
            }
        }
        let fidelity = overlap.norm_sqr();
        assert!(
            fidelity > 1.0 - 1e-7,
            "{label}: fidelity dropped to {fidelity}"
        );
    }
}

#[test]
fn quantum_volume_transpiles_and_improves() {
    let backend = Backend::melbourne();
    let c = quantum_volume(4, 5);
    let [l3, hoare, rpo] = all_flows(&c, &backend, 7);
    assert!(l3.circuit.gate_counts().cx > 0);
    assert!(rpo.circuit.gate_counts().cx <= l3.circuit.gate_counts().cx);
    assert!(hoare.circuit.gate_counts().cx <= l3.circuit.gate_counts().cx);
}

#[test]
fn rpo_beats_or_ties_level3_across_seeds_and_devices() {
    let circuits: Vec<(&str, Circuit)> = vec![
        ("qpe4", qpe(4, 0.3)),
        ("vqe5", vqe_ry_ansatz(5, 2, 3)),
        (
            "bv",
            bernstein_vazirani(&[true, true, true, false], OracleStyle::Boolean),
        ),
    ];
    for backend in [Backend::melbourne(), Backend::almaden()] {
        for (name, c) in &circuits {
            for seed in [0, 13] {
                let l3 = transpile(c, &backend, &TranspileOptions::level(3).with_seed(seed))
                    .unwrap()
                    .circuit
                    .gate_counts()
                    .cx;
                let r = transpile_rpo(c, &backend, &RpoOptions::new().with_seed(seed))
                    .unwrap()
                    .circuit
                    .gate_counts()
                    .cx;
                assert!(
                    r <= l3,
                    "{name} on {} seed {seed}: rpo {r} vs level3 {l3}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn annotations_strictly_help_grover() {
    let backend = Backend::melbourne();
    let n = 6;
    let plain = grover(n, 5, 2, McxDesign::CleanAncilla { annotate: false });
    let annotated = grover(n, 5, 2, McxDesign::CleanAncilla { annotate: true });
    let opts = RpoOptions::new().with_seed(9);
    let r_plain = transpile_rpo(&plain, &backend, &opts)
        .unwrap()
        .circuit
        .gate_counts()
        .cx;
    let r_annot = transpile_rpo(&annotated, &backend, &opts)
        .unwrap()
        .circuit
        .gate_counts()
        .cx;
    assert!(
        r_annot <= r_plain,
        "annotations must not hurt: {r_annot} vs {r_plain}"
    );
}

#[test]
fn extended_rules_dominate_paper_rules() {
    // The crate's generalized rules are sound and never worse.
    let backend = Backend::melbourne();
    let c = qpe(3, 7.0 / 8.0);
    let paper = transpile_rpo(&c, &backend, &RpoOptions::new().with_seed(2)).unwrap();
    let extended = transpile_rpo(
        &c,
        &backend,
        &RpoOptions {
            extended_rules: true,
            ..RpoOptions::new()
        }
        .with_seed(2),
    )
    .unwrap();
    assert!(extended.circuit.gate_counts().cx <= paper.circuit.gate_counts().cx);
    let expected = qpe_expected_outcome(3, 7.0 / 8.0);
    assert!((ideal_success(&extended, 3, expected) - 1.0).abs() < 1e-7);
}

#[test]
fn adder_annotation_enables_ancilla_reuse_optimization() {
    // The paper's Section VI-C scenario (Vedral-style arithmetic): after
    // reverse computation the carry ancilla is |0⟩; the annotation lets QBO
    // remove a CNOT controlled on it.
    use qc_algos::ripple_carry_adder;
    use qc_transpile::Pass;
    let n = 2;
    let build = |annotate: bool| {
        let mut c = Circuit::new(2 * n + 2);
        c.x(0).x(n); // a = 1, b = 1
                     // Blind the analysis: an identity pair the automaton cannot see
                     // through (both wires go to ⊤), mimicking real entangled inputs.
        c.h(0).cx(0, n).cx(0, n).h(0);
        c.compose(
            &ripple_carry_adder(n, annotate),
            &(0..2 * n + 1).collect::<Vec<_>>(),
        );
        c.cx(2 * n, 2 * n + 1);
        c
    };
    let mut plain = build(false);
    let mut annotated = build(true);
    rpo_core::Qbo::new().run(&mut plain).unwrap();
    rpo_core::Qbo::new().run(&mut annotated).unwrap();
    assert!(
        annotated.gate_counts().cx < plain.gate_counts().cx,
        "annotation must unlock the dead ancilla CNOT: {} vs {}",
        annotated.gate_counts().cx,
        plain.gate_counts().cx
    );
    assert!(qc_sim::same_output_state(&build(true), &annotated, 1e-8));
}

#[test]
fn transpiled_circuits_export_to_qasm() {
    // Interop check: anything the pipelines emit must serialize to
    // OpenQASM 2.0 (the device basis is qelib1-compatible).
    let backend = Backend::melbourne();
    let c = qpe(3, 7.0 / 8.0);
    for t in all_flows(&c, &backend, 5) {
        let text = qc_circuit::qasm::to_qasm(&t.circuit).expect("exportable");
        assert!(text.contains("OPENQASM 2.0;"));
        assert!(text.contains("cx q["));
    }
}

/// A mid-circuit measure keeps its place on its wire through routing and
/// every pass: in `h; measure; h; cx` the measured qubit carries one
/// single-qubit gate before the measure and one after it. Deferring the
/// measure past the second H would let the two H's cancel, and the
/// outcome would always read 0 instead of being random.
#[test]
fn mid_circuit_measure_stays_between_its_gates() {
    let mut c = Circuit::new(2);
    c.h(0).measure(0).h(0).cx(0, 1);
    let backend = Backend::linear(3);
    let mut outputs: Vec<(String, Transpiled)> = (0..=3)
        .map(|level| {
            let t = transpile(&c, &backend, &TranspileOptions::level(level));
            (format!("level {level}"), t.unwrap())
        })
        .collect();
    let rpo = transpile_rpo(&c, &backend, &RpoOptions::new()).unwrap();
    outputs.push(("rpo".to_string(), rpo));
    for (flow, t) in &outputs {
        let insts = t.circuit.instructions();
        let measures: Vec<usize> = (0..insts.len())
            .filter(|&i| matches!(insts[i].gate, Gate::Measure))
            .collect();
        assert_eq!(measures.len(), 1, "{flow}: {insts:?}");
        let at = measures[0];
        let p = insts[at].qubits[0];
        let one_qubit_gates_on_p = |range: &[Instruction]| {
            range
                .iter()
                .filter(|i| i.qubits == [p] && i.gate.matrix2x2().is_some())
                .count()
        };
        assert_eq!(
            one_qubit_gates_on_p(&insts[..at]),
            1,
            "{flow}: one gate before the measure: {insts:?}"
        );
        assert_eq!(
            one_qubit_gates_on_p(&insts[at + 1..]),
            1,
            "{flow}: one gate after the measure: {insts:?}"
        );
    }
}
