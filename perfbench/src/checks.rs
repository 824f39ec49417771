//! Output checks, all run outside the timed regions: device readiness and
//! logical equivalence of compiled circuits.

use qc_backends::Backend;
use qc_circuit::{Circuit, Gate};
use qc_sim::Statevector;

/// Compacted width above which [`logical_tv`] is skipped. Routed QPE-18
/// on rochester spreads over 22–25 wires, and simulating one such output
/// takes about 10 s; at 20 wires a check takes under a second.
pub const MAX_CHECK_QUBITS: usize = 20;

/// Every unitary gate is in `{u1,u2,u3,id,cx}` (plus measure/barrier), and
/// every CX acts on a coupled pair.
pub fn device_ready(c: &Circuit, backend: &Backend) -> Result<(), String> {
    for inst in c.instructions() {
        match &inst.gate {
            Gate::Measure | Gate::Barrier(_) => continue,
            g => {
                let name = g.name();
                if !matches!(name, "u1" | "u2" | "u3" | "id" | "cx") {
                    return Err(format!("gate '{name}' outside the device basis"));
                }
                if name == "cx" && !backend.are_adjacent(inst.qubits[0], inst.qubits[1]) {
                    return Err(format!(
                        "cx on uncoupled pair ({}, {})",
                        inst.qubits[0], inst.qubits[1]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The ideal output distribution of a logical circuit over all its qubits
/// (measurements deferred).
pub fn ideal_distribution(c: &Circuit) -> Vec<f64> {
    Statevector::from_circuit(c).probabilities()
}

/// Total-variation distance between `want` (over `n` logical qubits) and
/// the compiled circuit's logical distribution, read through `final_map`
/// on the compacted device circuit. `None` when the compacted circuit is
/// wider than [`MAX_CHECK_QUBITS`].
pub fn logical_tv(compiled: &Circuit, final_map: &[usize], want: &[f64]) -> Option<f64> {
    let (compact, old_of_new) = compiled.compacted();
    if compact.num_qubits() > MAX_CHECK_QUBITS {
        return None;
    }
    let probs = Statevector::from_circuit(&compact).probabilities();
    let pos: Vec<Option<usize>> = final_map
        .iter()
        .map(|&p| old_of_new.iter().position(|&o| o == p))
        .collect();
    let mut got = vec![0.0; want.len()];
    for (idx, p) in probs.iter().enumerate() {
        if *p == 0.0 {
            continue;
        }
        let mut logical = 0usize;
        for (q, ci) in pos.iter().enumerate() {
            if let Some(ci) = ci {
                if (idx >> ci) & 1 == 1 {
                    logical |= 1 << q;
                }
            }
        }
        got[logical] += p;
    }
    Some(
        0.5 * want
            .iter()
            .zip(&got)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>(),
    )
}
