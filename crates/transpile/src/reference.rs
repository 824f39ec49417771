//! The reference transpile pipeline and its `stage_*` helpers: the oracle
//! for the pipeline driver's property tests (`rpo-core`'s
//! `transpile_rpo_reference` and the Hoare equivalence test build on the
//! same helpers).
//!
//! The passes are the pipelines' own [`crate::DagPass`]es, but each one
//! runs on its own over a [`Circuit`] through the blanket [`Pass`] impl:
//! a fresh `Dag` and [`crate::PropertySet`] per pass, circuit-level layout
//! and routing, and an unconditional fixed-point loop. What the tests
//! check is therefore the driver [`crate::preset::run_pipeline`] adds on
//! top — one conversion each way, the change-driven and interest-filtered
//! fixed point, DAG layout and routing — and they assert bit-identical
//! output on random circuit families. Do not
//! "optimize" this module; its value is being the plain sequence.

use crate::cancellation::CxCancellation;
use crate::commutation::CommutativeCancellation;
use crate::consolidate::ConsolidateBlocks;
use crate::layout::{apply_layout, dense_layout, trivial_layout};
use crate::optimize_1q::Optimize1qGates;
use crate::preset::{TranspileOptions, Transpiled};
use crate::routing::route;
use crate::unroll::Unroller;
use crate::{Pass, TranspileError};
use qc_backends::Backend;
use qc_circuit::Circuit;

/// Unrolls into the device basis `{u1, u2, u3, id, cx}`.
pub fn stage_unroll_device(c: &mut Circuit) -> Result<(), TranspileError> {
    Unroller::to_device_basis().run(c)
}

/// Unrolls into the extended basis that preserves `swap`/`swapz`.
pub fn stage_unroll_extended(c: &mut Circuit) -> Result<(), TranspileError> {
    Unroller::to_extended_basis().run(c)
}

/// Selects a layout (trivial below level 2, dense otherwise) and rewrites
/// the circuit onto physical wires. Returns the layout.
pub fn stage_layout(
    c: &mut Circuit,
    backend: &Backend,
    level: u8,
) -> Result<Vec<usize>, TranspileError> {
    let layout = if level >= 2 {
        dense_layout(c, backend)?
    } else {
        if c.num_qubits() > backend.num_qubits() {
            return Err(TranspileError::too_many_qubits(
                c.num_qubits(),
                backend.num_qubits(),
            ));
        }
        trivial_layout(c.num_qubits())
    };
    *c = apply_layout(c, &layout, backend.num_qubits())?;
    Ok(layout)
}

/// Routes the circuit, returning the end-of-circuit wire map.
pub fn stage_route(
    c: &mut Circuit,
    backend: &Backend,
    seed: u64,
    trials: usize,
) -> Result<Vec<usize>, TranspileError> {
    let routed = route(c, backend, seed, trials)?;
    *c = routed.circuit;
    Ok(routed.wire_map)
}

/// Runs `Optimize1qGates` once.
pub fn stage_optimize_1q(c: &mut Circuit) -> Result<(), TranspileError> {
    Optimize1qGates.run(c)
}

/// The level-2/3 fixed-point loop: cancellation + 1q merging (+ block
/// consolidation at level 3) until gate counts stop improving.
pub fn stage_fixpoint_loop(c: &mut Circuit, consolidate: bool) -> Result<(), TranspileError> {
    for _ in 0..10 {
        let before = c.gate_counts();
        CommutativeCancellation.run(c)?;
        CxCancellation.run(c)?;
        Optimize1qGates.run(c)?;
        if consolidate {
            ConsolidateBlocks.run(c)?;
            stage_unroll_device(c)?;
            Optimize1qGates.run(c)?;
            CxCancellation.run(c)?;
        }
        let after = c.gate_counts();
        if after.cx >= before.cx && after.total >= before.total {
            break;
        }
    }
    Ok(())
}

/// [`crate::transpile`] as a plain sequence: each pass on its own over
/// the circuit, with the unconditional fixed-point loop.
///
/// # Errors
///
/// Same failure modes as [`crate::transpile`].
pub fn transpile_reference(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    let mut c = circuit.clone();
    stage_unroll_device(&mut c)?;
    let layout = stage_layout(&mut c, backend, opts.level)?;
    let wire_map = stage_route(&mut c, backend, opts.seed, opts.routing_trials)?;
    stage_unroll_device(&mut c)?; // decompose routing SWAPs
    match opts.level {
        0 => {}
        1 => {
            stage_optimize_1q(&mut c)?;
            CxCancellation.run(&mut c)?;
        }
        2 => {
            stage_optimize_1q(&mut c)?;
            stage_fixpoint_loop(&mut c, false)?;
        }
        _ => {
            stage_optimize_1q(&mut c)?;
            stage_fixpoint_loop(&mut c, true)?;
        }
    }
    let final_map = layout.iter().map(|&w| wire_map[w]).collect();
    Ok(Transpiled {
        circuit: c,
        final_map,
        degradation: crate::guard::DegradationReport::default(),
    })
}
