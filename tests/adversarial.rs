//! Adversarial-input corpus: degenerate, malformed and hostile inputs
//! against the public transpile and QASM APIs. The contract under test —
//! every one of these yields a typed [`RpoError`] (or a valid result),
//! never a panic.

use qc_backends::Backend;
use qc_circuit::qasm::{from_qasm, QasmError};
use qc_circuit::{BudgetKind, Circuit, Gate, RpoError};
use qc_hoare::transpile_hoare;
use qc_transpile::{transpile, TranspileBudget, TranspileOptions};
use rpo_core::{transpile_rpo, RpoOptions};
use std::time::Duration;

#[test]
fn zero_qubit_circuit_does_not_panic() {
    let c = Circuit::new(0);
    for level in 0..=3 {
        let r = transpile(&c, &Backend::linear(2), &TranspileOptions::level(level));
        if let Ok(t) = r {
            assert_eq!(t.circuit.len(), 0);
        }
    }
    let _ = transpile_rpo(&c, &Backend::linear(2), &RpoOptions::new());
}

#[test]
fn non_finite_angles_are_rejected_as_invalid_input() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut c = Circuit::new(2);
        c.rx(bad, 0).cx(0, 1);
        let err = transpile(&c, &Backend::linear(2), &TranspileOptions::level(3)).unwrap_err();
        assert!(
            matches!(err, RpoError::InvalidInput(_)),
            "rx({bad}) gave {err:?}"
        );
        let err = transpile_rpo(&c, &Backend::linear(2), &RpoOptions::new()).unwrap_err();
        assert!(matches!(err, RpoError::InvalidInput(_)));
        let err =
            transpile_hoare(&c, &Backend::linear(2), &TranspileOptions::level(3)).unwrap_err();
        assert!(
            matches!(err, RpoError::InvalidInput(_)),
            "hoare: rx({bad}) gave {err:?}"
        );
    }
}

#[test]
fn non_unitary_embedded_matrix_is_rejected() {
    let bad = qc_math::Matrix::from_fn(2, 2, |_, _| qc_math::C64::real(2.0));
    let mut c = Circuit::new(1);
    c.push(Gate::Unitary(bad), &[0]);
    let err = transpile(&c, &Backend::linear(1), &TranspileOptions::level(1)).unwrap_err();
    assert!(matches!(err, RpoError::InvalidInput(_)));
}

#[test]
fn oversized_circuit_is_a_typed_invalid_input() {
    let c = Circuit::new(20);
    let err = transpile(&c, &Backend::linear(2), &TranspileOptions::level(2)).unwrap_err();
    assert!(matches!(err, RpoError::InvalidInput(_)));
    assert!(err.to_string().contains("20"));
}

#[test]
fn qubit_budget_is_enforced() {
    let mut c = Circuit::new(8);
    c.h(0);
    let opts =
        TranspileOptions::level(1).with_budget(TranspileBudget::unlimited().with_max_qubits(4));
    let err = transpile(&c, &Backend::melbourne(), &opts).unwrap_err();
    assert!(matches!(
        err,
        RpoError::BudgetExceeded {
            kind: BudgetKind::MaxQubits
        }
    ));
}

#[test]
fn gate_budget_is_enforced_on_huge_circuits() {
    // Unrolling the Toffolis blows a tight gate ceiling mid-pipeline.
    let mut c = Circuit::new(3);
    for _ in 0..50 {
        c.ccx(0, 1, 2);
    }
    let opts = TranspileOptions::level(3)
        .with_seed(1)
        .with_budget(TranspileBudget::unlimited().with_max_gates(100));
    let err = transpile(&c, &Backend::linear(3), &opts).unwrap_err();
    assert!(matches!(
        err,
        RpoError::BudgetExceeded {
            kind: BudgetKind::MaxGates
        }
    ));
}

#[test]
fn zero_deadline_still_returns_a_valid_routed_circuit() {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 2).ccx(0, 1, 2).measure_all();
    let opts = TranspileOptions::level(3)
        .with_seed(3)
        .with_budget(TranspileBudget::unlimited().with_deadline(Duration::ZERO));
    let t = transpile(&c, &Backend::linear(3), &opts).expect("deadline degrades, not fails");
    // Mandatory stages still ran: the output is on device wires in the
    // device basis.
    for inst in t.circuit.instructions() {
        if inst.qubits.len() == 2 && inst.gate.is_unitary_gate() {
            assert_eq!(inst.gate.name(), "cx");
        }
    }
    assert!(
        !t.degradation.is_clean(),
        "zero deadline must be reported: {:?}",
        t.degradation
    );
}

#[test]
fn gate_budget_beats_a_zero_deadline_in_every_flow() {
    // A zero deadline only skips optional passes; the hard gate ceiling is
    // still enforced, in every flow.
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 2).ccx(0, 1, 2).measure_all();
    let budget = TranspileBudget::unlimited()
        .with_deadline(Duration::ZERO)
        .with_max_gates(5);
    let opts = TranspileOptions::level(3).with_budget(budget);
    let rpo = RpoOptions {
        base: opts,
        ..RpoOptions::new()
    };
    let backend = Backend::linear(3);
    for (flow, result) in [
        ("level 3", transpile(&c, &backend, &opts)),
        ("rpo", transpile_rpo(&c, &backend, &rpo)),
        ("hoare", transpile_hoare(&c, &backend, &opts)),
    ] {
        assert!(
            matches!(
                result,
                Err(RpoError::BudgetExceeded {
                    kind: BudgetKind::MaxGates
                })
            ),
            "{flow}: {:?}",
            result.map(|t| (t.circuit.len(), t.degradation))
        );
    }
}

#[test]
fn fixpoint_iteration_budget_is_graceful() {
    let mut c = Circuit::new(4);
    for i in 0..3 {
        c.h(i).cx(i, i + 1).t(i);
    }
    let opts = TranspileOptions::level(3)
        .with_seed(2)
        .with_budget(TranspileBudget::unlimited().with_max_fixpoint_iters(1));
    let t = transpile(&c, &Backend::linear(4), &opts).expect("iteration cap degrades, not fails");
    assert!(t.circuit.gate_counts().total > 0);
}

#[test]
fn fuzzed_qasm_never_panics_and_errors_carry_positions() {
    let corpus = [
        "",
        "OPENQASM 2.0;",
        "OPENQASM 2.0; qreg q[1]; h q[0]", // missing semicolon
        "OPENQASM 2.0; qreg q[99999999];", // absurd width
        "OPENQASM 2.0; qreg q[2]; cx q[0],q[0];", // duplicate qubit
        "OPENQASM 2.0; qreg q[1]; rx(1/0) q[0];", // non-finite angle
        "OPENQASM 2.0; qreg q[1]; zz q[0];", // unknown gate
        "qreg q[1]; OPENQASM 2.0;",        // header out of order
        "OPENQASM 2.0; qreg q[1]; h q[5];", // out of range
        "\u{0}\u{1}\u{2}garbage\u{ff}",
    ];
    for src in corpus {
        match from_qasm(src) {
            Ok(c) => {
                // The empty-program cases may parse; anything parsed must
                // be a well-formed circuit.
                assert!(c.num_qubits() <= 99_999_999);
            }
            Err(QasmError::Parse { line, col, .. }) => {
                assert!(line >= 1 && col >= 1, "degenerate position in error");
            }
            Err(other) => {
                let _ = other.to_string();
            }
        }
    }
}

#[test]
fn weyl_rejects_garbage_with_typed_numeric_errors() {
    let ones = qc_math::Matrix::from_fn(4, 4, |_, _| qc_math::C64::real(1.0));
    let err = qc_synth::try_synthesize_two_qubit(&ones).unwrap_err();
    assert!(matches!(err, RpoError::Numeric { .. }));
}
