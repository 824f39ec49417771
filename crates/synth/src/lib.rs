//! Gate synthesis and decomposition.
//!
//! Everything the transpiler and the RPO passes need to turn abstract gates
//! and unitaries into primitive-gate circuits:
//!
//! * [`euler`] — single-qubit ZYZ/u3 decomposition (`Optimize1qGates`
//!   re-synthesis and local-gate emission).
//! * [`weyl`] — the two-qubit KAK decomposition into
//!   `(K1)·exp(i(aXX+bYY+cZZ))·(K2)` with Weyl-chamber canonicalization, and
//!   circuit synthesis with 0/1/2/3/4 CNOTs depending on the canonical class
//!   (the `ConsolidateBlocks` re-synthesis kernel).
//! * [`state_prep`] — one- and two-qubit state preparation; the two-qubit
//!   case uses the Schmidt decomposition to hit the paper's "one CNOT + four
//!   single-qubit gates" bound (Fig. 4, citing Mottonen & Vartiainen).
//! * [`controlled`] — Toffoli and Fredkin decompositions. A controlled-U
//!   needs no synthesizer of its own: [`synthesize_two_qubit`] on its
//!   matrix meets the two-CNOT Song–Klappenecker bound the paper uses for
//!   its Fredkin optimization, and the module's tests pin that bound.
//! * [`multi_control`] — multi-controlled X/Z/phase: the V-chain with clean
//!   ancillas and the ancilla-free recursive construction, matching the two
//!   Grover oracle designs evaluated in the paper.

pub mod controlled;
pub mod euler;
pub mod multi_control;
pub mod state_prep;
pub mod weyl;

pub use controlled::{fredkin_circuit, toffoli_circuit};
pub use euler::{matrix_to_u3_gate, OneQubitEuler};
pub use multi_control::{mcp_circuit, mcx_no_ancilla, mcx_vchain, mcz_circuit};
pub use state_prep::{prepare_one_qubit, prepare_two_qubit};
pub use weyl::{canonical_matrix, synthesize_two_qubit, try_synthesize_two_qubit, TwoQubitWeyl};
