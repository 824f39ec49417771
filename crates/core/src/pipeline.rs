//! The RPO-extended level-3 pipeline (paper Fig. 8).
//!
//! ```text
//! 1  QBO()
//! 2  Unroller(basis_gates)
//! 3  <layout selection>
//! 4  <routing process>
//! 5  QBO()                         (optimizes the SWAPs routing inserted)
//! 6  Unroller(basis + swap + swapz)
//! 7  Optimize1qGates()
//! 8  QPO()
//! 9  while not <fixed point> { <optimizations> }
//! ```
//!
//! The early QBO shrinks the circuit before every later pass — the paper's
//! explanation for RPO often *lowering* total transpile time despite adding
//! passes. QBO and QPO sit outside the fixed-point loop because the loop's
//! optimizations do not change the state invariants (Section VII-A).

use crate::qbo::Qbo;
use crate::qpo::Qpo;
use qc_backends::Backend;
use qc_circuit::Circuit;
use qc_transpile::manager::PassStats;
use qc_transpile::optimize_1q::Optimize1qGates;
use qc_transpile::preset::{run_pipeline, Stage, Transpiled};
#[cfg(any(test, feature = "reference-oracles"))]
use qc_transpile::reference::{
    stage_fixpoint_loop, stage_layout, stage_optimize_1q, stage_route, stage_unroll_device,
    stage_unroll_extended,
};
use qc_transpile::unroll::Unroller;
#[cfg(any(test, feature = "reference-oracles"))]
use qc_transpile::Pass;
use qc_transpile::{TranspileError, TranspileOptions};

/// Options for the RPO pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpoOptions {
    /// Base transpiler options (seed, routing trials; the level is fixed
    /// at 3 — RPO extends the most aggressive pipeline).
    pub base: TranspileOptions,
    /// Run the QBO passes (lines 1 and 5).
    pub enable_qbo: bool,
    /// Run the *early* QBO (line 1, before unrolling). Disabling this while
    /// keeping [`RpoOptions::enable_qbo`] isolates the paper's claim that
    /// the early pass also speeds up transpilation (ablation).
    pub early_qbo: bool,
    /// Run the QPO pass (line 8).
    pub enable_qpo: bool,
    /// Let QPO rewrite whole two-qubit blocks (Section V-D).
    pub enable_block_qpo: bool,
    /// Remove eigenstate gates regardless of eigenvalue phase (ablation;
    /// the paper's rule requires eigenvalue 1).
    pub phase_relaxed: bool,
    /// Enable this crate's rule generalizations beyond the paper
    /// (controlled gates with arbitrary-eigenphase targets, generic
    /// controlled-phase inputs). Off by default for experiment fidelity.
    pub extended_rules: bool,
}

impl Default for RpoOptions {
    fn default() -> Self {
        RpoOptions::new()
    }
}

impl RpoOptions {
    /// The paper's configuration: QBO + QPO on top of level 3.
    pub fn new() -> Self {
        RpoOptions {
            base: TranspileOptions::level(3),
            enable_qbo: true,
            early_qbo: true,
            enable_qpo: true,
            enable_block_qpo: true,
            phase_relaxed: false,
            extended_rules: false,
        }
    }

    /// Sets the seed for all stochastic stages.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base = self.base.with_seed(seed);
        self
    }

    /// Sets the routing trial count.
    pub fn with_routing_trials(mut self, trials: usize) -> Self {
        self.base = self.base.with_routing_trials(trials);
        self
    }

    /// Disables QBO (ablation).
    pub fn without_qbo(mut self) -> Self {
        self.enable_qbo = false;
        self
    }

    /// Disables QPO (ablation).
    pub fn without_qpo(mut self) -> Self {
        self.enable_qpo = false;
        self
    }

    /// The QBO and QPO configurations these options select.
    fn passes(&self) -> (Qbo, Qpo) {
        let qbo = if self.phase_relaxed {
            Qbo::phase_relaxed()
        } else if self.extended_rules {
            Qbo::with_extended_rules()
        } else {
            Qbo::new()
        };
        let qpo = if self.enable_block_qpo {
            Qpo::new()
        } else {
            Qpo::without_block_optimization()
        };
        (qbo, qpo)
    }
}

/// Transpiles with the RPO-extended level-3 pipeline of Fig. 8.
///
/// # Errors
///
/// Fails when the circuit does not fit the backend or contains a gate with
/// no decomposition rule.
///
/// # Examples
///
/// ```
/// use qc_backends::Backend;
/// use qc_circuit::Circuit;
/// use rpo_core::{transpile_rpo, RpoOptions};
///
/// let mut c = Circuit::new(2);
/// c.h(1).cx(0, 1).measure_all(); // control is |0⟩: the CNOT is dead
/// let out = transpile_rpo(&c, &Backend::melbourne(), &RpoOptions::new()).unwrap();
/// assert_eq!(out.circuit.gate_counts().cx, 0);
/// ```
pub fn transpile_rpo(
    circuit: &Circuit,
    backend: &Backend,
    opts: &RpoOptions,
) -> Result<Transpiled, TranspileError> {
    transpile_rpo_instrumented(circuit, backend, opts).map(|(t, _)| t)
}

/// [`transpile_rpo`] with per-pass execution statistics: the Fig. 8
/// stage list over [`run_pipeline`], QBO/QPO included.
///
/// # Errors
///
/// Same failure modes as [`transpile_rpo`].
pub fn transpile_rpo_instrumented(
    circuit: &Circuit,
    backend: &Backend,
    opts: &RpoOptions,
) -> Result<(Transpiled, Vec<PassStats>), TranspileError> {
    let (qbo, qpo) = opts.passes();
    let device = Unroller::to_device_basis();
    let extended = Unroller::to_extended_basis();
    // QBO/QPO are optional optimization stages: skipped past the deadline,
    // quarantined on failure — the rest of the pipeline still produces a
    // device-ready circuit.
    let mut before_layout = Vec::new();
    // 1: early QBO on the abstract circuit (sees ccx/mcx/cswap intact).
    if opts.enable_qbo && opts.early_qbo {
        before_layout.push(Stage::optional("QBO(early)", &qbo));
    }
    // 2: unroll to the device basis; 3 and 4 (dense layout, as in level 3,
    // and routing, which inserts SWAP gates) are the driver's.
    before_layout.push(Stage::mandatory("Unroller(device)", &device));
    let mut after_routing = Vec::new();
    // 5: QBO again — the inserted SWAPs meet ancilla/ground-state wires.
    if opts.enable_qbo {
        after_routing.push(Stage::optional("QBO(post-route)", &qbo));
    }
    // 6: unroll keeping swap/swapz visible to QPO (mandatory: swaps must
    // not survive to the device).
    after_routing.push(Stage::mandatory("Unroller(extended)", &extended));
    // 7: merge single-qubit runs so QPO sees clean u-gates.
    after_routing.push(Stage::optional("Optimize1qGates", &Optimize1qGates));
    // 8: QPO.
    if opts.enable_qpo {
        after_routing.push(Stage::optional("QPO", &qpo));
    }
    // 9: the level-3 fixed-point loop (consolidation included), after
    // lowering any remaining swap/swapz to CNOTs.
    after_routing.extend([
        Stage::mandatory("Unroller(device)", &device),
        Stage::optional("Optimize1qGates", &Optimize1qGates),
        Stage::FixedPoint { consolidate: true },
    ]);
    let base = TranspileOptions {
        level: 3,
        ..opts.base
    };
    run_pipeline(circuit, backend, &base, &before_layout, &after_routing)
}

/// [`transpile_rpo`] as a plain sequence: each pass on its own over the
/// circuit (the blanket [`Pass`] impl), circuit-level layout and routing,
/// and the unconditional fixed-point loop — the property-test oracle for
/// the pipeline driver. Compiled only for tests and under the
/// `reference-oracles` feature, so release builds skip it.
///
/// # Errors
///
/// Same failure modes as [`transpile_rpo`].
#[cfg(any(test, feature = "reference-oracles"))]
pub fn transpile_rpo_reference(
    circuit: &Circuit,
    backend: &Backend,
    opts: &RpoOptions,
) -> Result<Transpiled, TranspileError> {
    let (qbo, qpo) = opts.passes();
    let mut c = circuit.clone();
    // 1: early QBO on the abstract circuit (sees ccx/mcx/cswap intact).
    if opts.enable_qbo && opts.early_qbo {
        qbo.run(&mut c)?;
    }
    // 2: unroll to the device basis.
    stage_unroll_device(&mut c)?;
    // 3: layout (dense, as in level 3).
    let layout = stage_layout(&mut c, backend, 3)?;
    // 4: routing (inserts SWAP gates).
    let wire_map = stage_route(&mut c, backend, opts.base.seed, opts.base.routing_trials)?;
    // 5: QBO again — the inserted SWAPs meet ancilla/ground-state wires.
    if opts.enable_qbo {
        qbo.run(&mut c)?;
    }
    // 6: unroll keeping swap/swapz visible to QPO.
    stage_unroll_extended(&mut c)?;
    // 7: merge single-qubit runs so QPO sees clean u-gates.
    stage_optimize_1q(&mut c)?;
    // 8: QPO.
    if opts.enable_qpo {
        qpo.run(&mut c)?;
    }
    // 9: the level-3 fixed-point loop (consolidation included), after
    // lowering any remaining swap/swapz to CNOTs.
    stage_unroll_device(&mut c)?;
    stage_optimize_1q(&mut c)?;
    stage_fixpoint_loop(&mut c, true)?;
    let final_map = layout.iter().map(|&w| wire_map[w]).collect();
    Ok(Transpiled {
        circuit: c,
        final_map,
        degradation: qc_transpile::DegradationReport::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_transpile::transpile;

    fn routed_equivalent_counts(c: &Circuit, backend: &Backend, seed: u64) -> (usize, usize) {
        let base = transpile(c, backend, &TranspileOptions::level(3).with_seed(seed)).unwrap();
        let rpo = transpile_rpo(c, backend, &RpoOptions::new().with_seed(seed)).unwrap();
        (base.circuit.gate_counts().cx, rpo.circuit.gate_counts().cx)
    }

    #[test]
    fn rpo_never_beaten_by_level3_on_swap_heavy_circuit() {
        // A circuit with distant interactions: routing inserts SWAPs that
        // QBO can halve when they touch ground-state wires.
        let backend = Backend::melbourne();
        let mut c = Circuit::new(6);
        c.h(0);
        for i in 0..5 {
            c.cx(i, i + 1);
        }
        c.cx(0, 5).measure_all();
        for seed in [1, 7, 42] {
            let (base_cx, rpo_cx) = routed_equivalent_counts(&c, &backend, seed);
            assert!(
                rpo_cx <= base_cx,
                "seed {seed}: RPO {rpo_cx} vs level3 {base_cx}"
            );
        }
    }

    #[test]
    fn rpo_output_is_device_ready() {
        let backend = Backend::almaden();
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).ccx(0, 1, 2).cx(2, 3).measure_all();
        let out = transpile_rpo(&c, &backend, &RpoOptions::new()).unwrap();
        for inst in out.circuit.instructions() {
            if inst.qubits.len() == 2 && inst.gate.is_unitary_gate() {
                assert_eq!(inst.gate.name(), "cx");
                assert!(backend.are_adjacent(inst.qubits[0], inst.qubits[1]));
            }
        }
        assert_eq!(out.final_map.len(), 4);
    }

    #[test]
    fn ablation_options_run() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        for opts in [
            RpoOptions::new().without_qbo(),
            RpoOptions::new().without_qpo(),
            RpoOptions {
                phase_relaxed: true,
                ..RpoOptions::new()
            },
            RpoOptions {
                enable_block_qpo: false,
                ..RpoOptions::new()
            },
        ] {
            let out = transpile_rpo(&c, &backend, &opts).unwrap();
            assert!(out.circuit.gate_counts().total > 0);
        }
    }

    #[test]
    fn dead_cnot_eliminated_end_to_end() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1).measure_all();
        let out = transpile_rpo(&c, &backend, &RpoOptions::new()).unwrap();
        assert_eq!(out.circuit.gate_counts().cx, 0);
    }
}
