//! A quantum-circuit transpiler modeled on the Qiskit pipeline the RPO
//! paper extends.
//!
//! The paper's Fig. 8 pipeline (optimization level 3) is:
//!
//! ```text
//! 1  QBO()                      ← RPO addition (crate `rpo-core`)
//! 2  Unroller(basis_gates)
//! 3  <layout selection>
//! 4  <routing process>
//! 5  QBO()                      ← RPO addition
//! 6  Unroller(basis + swap + swapz)   ← RPO addition
//! 7  Optimize1qGates()
//! 8  QPO()                      ← RPO addition
//! 9  while not <fixed point> { <optimizations> }
//! ```
//!
//! This crate provides everything except the RPO passes themselves: the
//! [`DagPass`] abstraction, the [`unroll::Unroller`], [`optimize_1q`],
//! [`cancellation`], [`consolidate`] (Collect2qBlocks + ConsolidateBlocks),
//! [`layout`] selection, the seeded stochastic [`routing`] pass, and the
//! guarded pipeline driver [`preset::run_pipeline`] with the preset level
//! 0–3 stage lists. A pipeline is two [`preset::Stage`] lists, one before
//! layout and one after routing, so `rpo-core` can interleave its passes
//! exactly as in the paper.
//!
//! Each pass is written once, as a [`DagPass`] over the shared
//! [`qc_circuit::Dag`] IR. The [`Pass`] trait runs any of them on its own
//! over a [`Circuit`] through a single blanket impl, so no pass has a
//! second, circuit-level rewrite path.
//!
//! # Examples
//!
//! ```
//! use qc_backends::Backend;
//! use qc_circuit::Circuit;
//! use qc_transpile::{transpile, TranspileOptions};
//!
//! let mut ghz = Circuit::new(3);
//! ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
//! let out = transpile(&ghz, &Backend::melbourne(), &TranspileOptions::level(3)).unwrap();
//! assert_eq!(out.circuit.num_qubits(), 15);
//! ```

pub mod cancellation;
pub mod commutation;
pub mod consolidate;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod guard;
pub mod layout;
pub mod manager;
pub mod optimize_1q;
pub mod preset;
/// The reference pipeline (each pass on its own over a circuit) and its
/// `stage_*` helpers — the property-test oracle for the pipeline driver.
/// Compiled only for tests and under the `reference-oracles` feature, so
/// release builds skip it entirely.
#[cfg(any(test, feature = "reference-oracles"))]
pub mod reference;
pub mod routing;
pub mod unroll;

pub use guard::{
    catch_stage, BudgetHit, BudgetSnapshot, DegradationReport, GuardedRun, PassGuard, PassSet,
    QuarantineRecord, TranspileBudget, ValidationMode, DISABLEABLE_PASSES,
};
pub use manager::{DagPass, FixedPointLoop, PassStats, PropertySet};
pub use preset::{transpile, TranspileOptions};

use qc_circuit::{Circuit, Dag};

/// The shared typed error taxonomy (defined in `qc_circuit`, used by
/// every layer of the stack).
pub use qc_circuit::{BudgetKind, RpoError};

/// Errors produced by transpilation — an alias for the shared [`RpoError`]
/// taxonomy, kept so the crate's historical `Result<_, TranspileError>`
/// signatures stay stable.
pub type TranspileError = RpoError;

/// Runs one pass on its own over a [`Circuit`].
///
/// Every [`DagPass`] is a `Pass` through the one blanket impl below, so
/// a pass has exactly one rewrite path: `run` converts the circuit to a
/// [`Dag`], calls [`DagPass::run_on_dag`] with a fresh [`PropertySet`]
/// and converts back. The pipelines skip this wrapper and run
/// [`DagPass`]es on one shared DAG ([`preset::run_pipeline`]).
pub trait Pass {
    /// Transforms the circuit in place. On error the circuit is left
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns a [`TranspileError`] when the circuit cannot be processed
    /// (unsupported gate, resource mismatch).
    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError>;
}

impl<P: DagPass + ?Sized> Pass for P {
    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError> {
        let mut dag = Dag::from_circuit(circuit);
        self.run_on_dag(&mut dag, &mut PropertySet::new())?;
        *circuit = dag.to_circuit();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = TranspileError::too_many_qubits(20, 15);
        assert!(e.to_string().contains("20"));
        let e = TranspileError::unsupported_gate("foo");
        assert!(e.to_string().contains("foo"));
    }
}
