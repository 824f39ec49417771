//! Relaxed Peephole Optimization (RPO) for quantum circuits.
//!
//! This crate implements the contribution of *"Relaxed Peephole
//! Optimization: A Novel Compiler Optimization for Quantum Circuits"*
//! (Liu, Bello, Zhou — CGO 2021): compiler passes that exploit single-qubit
//! state information known at compile time to replace gates with
//! *functionally equivalent but cheaper* ones, even when the unitary matrix
//! changes ("relaxed" peephole optimization).
//!
//! * [`state`] — the static analyses: the basis-state automaton of Fig. 5
//!   (tracking |0⟩, |1⟩, |+⟩, |−⟩, |L⟩, |R⟩, ⊤ per qubit) and the
//!   pure-state analysis of Fig. 6 (tracking Bloch parameters `(θ, φ)`).
//! * [`qbo`] — the Quantum Basis-state Optimization pass: Table I CNOT
//!   rules, controlled-Z rules, the SWAP basis table (Table VI/Appendix F),
//!   SWAPZ validation, Toffoli/MCX rules (Eq. 8), Fredkin rules, and
//!   controlled-U eigenstate rules.
//! * [`qpo`] — the Quantum Pure-state Optimization pass: SWAP with one
//!   known pure state → SWAPZ dressed with `U†`/`U` (Eq. 5), SWAP with two
//!   pure states → two local gates (Eq. 6), Fredkin with pure targets → two
//!   controlled-U (Eq. 9), and two-qubit-block re-synthesis by state
//!   preparation (Section V-D, Fig. 3 → Fig. 4).
//! * [`pipeline`] — the extended level-3 pass manager of Fig. 8, inserting
//!   QBO before unrolling, QBO again after routing (to catch inserted
//!   SWAPs), and QPO after single-qubit merging.
//!
//! # Examples
//!
//! The signature example from the paper's introduction — a CNOT whose
//! control is provably |0⟩ disappears:
//!
//! ```
//! use qc_circuit::Circuit;
//! use rpo_core::qbo::Qbo;
//! use qc_transpile::Pass;
//!
//! let mut c = Circuit::new(2);
//! c.h(1);          // qubit 1 in |+⟩; qubit 0 still |0⟩
//! c.cx(0, 1);      // control |0⟩ — has no effect
//! Qbo::new().run(&mut c).unwrap();
//! assert_eq!(c.gate_counts().cx, 0);
//! ```

pub mod analysis;
pub mod pipeline;
pub mod qbo;
pub mod qpo;
pub mod state;

pub use analysis::WireStates;
#[cfg(any(test, feature = "reference-oracles"))]
pub use pipeline::transpile_rpo_reference;
pub use pipeline::{transpile_rpo, transpile_rpo_instrumented, RpoOptions};
pub use qbo::Qbo;
pub use qpo::Qpo;
pub use state::{BasisTracked, PureTracked, StateAnalysis};
