//! Quantum-circuit intermediate representation.
//!
//! This crate defines the gate set ([`Gate`]), the circuit container
//! ([`Circuit`]), a lightweight dependency-DAG view ([`dag::Dag`]) used by
//! transpiler passes, and unitary embedding utilities for equivalence
//! checking.
//!
//! Conventions match Qiskit, the framework the RPO paper builds on:
//!
//! * **Little-endian qubit ordering** — qubit 0 is the least-significant bit
//!   of a computational-basis index.
//! * Gate argument 0 is the least-significant *local* bit of the gate's own
//!   matrix; for controlled gates the controls come first and the target
//!   last (`cx(control, target)`).
//! * `u3(θ, φ, λ)` is the generic single-qubit gate
//!   `[[cos(θ/2), −e^{iλ}sin(θ/2)], [e^{iφ}sin(θ/2), e^{i(λ+φ)}cos(θ/2)]]`.
//!
//! The IR also carries the two instructions specific to the RPO paper: the
//! [`Gate::SwapZ`] reduced swap (two CNOTs, valid when one input is |0⟩,
//! Eq. 3) and the [`Gate::Annot`] state annotation (Section VI-C) that lets
//! programmers assert a qubit is in a known pure state.
//!
//! # Examples
//!
//! ```
//! use qc_circuit::Circuit;
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.gate_counts().total, 2);
//! assert_eq!(bell.depth(), 2);
//! ```

pub mod blocks;
pub mod circuit;
pub mod dag;
pub mod error;
pub mod fusion;
pub mod gate;
pub mod hash;
pub mod qasm;
pub mod serial;
pub mod testing;
pub mod unitary;

pub use blocks::{Block, BlockTracker, Membership};
pub use circuit::{Circuit, GateCounts, Instruction};
pub use dag::{
    conversion_counts, gate_class, instruction_classes, reset_conversion_counts, ChangeReport, Dag,
    DagEdit,
};
pub use error::{BudgetKind, RpoError};
pub use fusion::{
    fuse_instructions, fuse_instructions_with, schedule_fused, FusedInst, FusionProfile,
    ScheduleGroup,
};
pub use gate::{BasisState, Gate};
pub use hash::{canonical_bytes, content_hash, fnv1a_128};
pub use serial::decode_circuit;
pub use unitary::{
    circuit_unitary, circuit_unitary_reference, circuit_unitary_unfused, circuits_equivalent,
    embed, UnitaryAccumulator,
};
