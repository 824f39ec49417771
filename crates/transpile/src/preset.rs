//! Preset pass pipelines: optimization levels 0–3, and the one guarded
//! driver every pipeline runs on.
//!
//! Mirrors the Qiskit 0.18 preset pass managers the paper describes in
//! Section II-B: level 0 only maps; level 1 adds light gate collapsing;
//! level 2 adds cancellation loops; level 3 adds two-qubit block
//! re-synthesis.
//!
//! A pipeline is data: two [`Stage`] lists, one run before the mandatory
//! layout and one after the mandatory routing. [`run_pipeline`] runs them
//! DAG-natively: the input converts to the shared [`Dag`] IR exactly once,
//! every pass mutates it in place under one [`PassGuard`], the level-2/3
//! loop is the change-driven [`FixedPointLoop`], and the result converts
//! back exactly once. The RPO pipeline (crate `rpo-core`, paper Fig. 8)
//! and the Hoare baseline (crate `qc-hoare`) are stage lists over the same
//! driver.

use crate::cancellation::CxCancellation;
use crate::commutation::CommutativeCancellation;
use crate::consolidate::ConsolidateBlocks;
use crate::guard::{
    catch_stage, gate_issue, run_stage, DegradationReport, PassGuard, PassSet, TranspileBudget,
};
use crate::layout::{apply_layout_dag, trivial_layout};
use crate::manager::{DagPass, FixedPointLoop, PassStats, PropertySet};
use crate::optimize_1q::Optimize1qGates;
use crate::routing::route_dag_budgeted;
use crate::unroll::Unroller;
use crate::TranspileError;
use qc_backends::Backend;
use qc_circuit::{Circuit, Dag};

/// Options controlling transpilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranspileOptions {
    /// Optimization level, 0–3 (higher = more effort), as in the paper.
    pub level: u8,
    /// Seed for every stochastic component (routing).
    pub seed: u64,
    /// Number of seeded routing trials; the cheapest is kept.
    pub routing_trials: usize,
    /// Resource ceilings for the run (unlimited by default). Deadline and
    /// iteration ceilings degrade gracefully (optional passes are skipped,
    /// the best circuit so far is returned); gate/qubit ceilings are hard
    /// [`crate::RpoError::BudgetExceeded`] errors.
    pub budget: TranspileBudget,
    /// Optional passes to skip for the whole run (empty by default). The
    /// serve layer's retry path recompiles with a previously-quarantined
    /// pass in this set, and its circuit breakers pre-disable repeat
    /// offenders fleet-wide. Mandatory executions of a listed label still
    /// run — see [`crate::guard::PassGuard::with_predisabled`].
    pub disabled_passes: PassSet,
}

impl TranspileOptions {
    /// Options for the given optimization level with default seed and
    /// trial count.
    pub fn level(level: u8) -> Self {
        TranspileOptions {
            level,
            seed: 0,
            routing_trials: 5,
            budget: TranspileBudget::unlimited(),
            disabled_passes: PassSet::empty(),
        }
    }

    /// Sets the resource budget.
    pub fn with_budget(mut self, budget: TranspileBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the pre-disabled optional passes.
    pub fn with_disabled_passes(mut self, set: PassSet) -> Self {
        self.disabled_passes = set;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the routing trial count.
    pub fn with_routing_trials(mut self, trials: usize) -> Self {
        self.routing_trials = trials;
        self
    }
}

/// A transpiled circuit plus the logical→physical qubit map needed to read
/// measurement outcomes.
#[derive(Clone, Debug)]
pub struct Transpiled {
    /// The hardware-ready circuit on backend-width wires.
    pub circuit: Circuit,
    /// `final_map[q]` = physical qubit where logical qubit `q` ends up,
    /// which is where a measure that ends its wire acts.
    pub final_map: Vec<usize>,
    /// What the guard contained during the run: quarantined passes and
    /// budget ceilings hit. [`DegradationReport::is_clean`] on a healthy
    /// run.
    pub degradation: DegradationReport,
}

/// Transpiles a circuit for a backend at the requested optimization level.
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
/// use qc_transpile::{transpile, TranspileOptions};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure_all();
/// let out = transpile(&bell, &Backend::melbourne(), &TranspileOptions::level(3)).unwrap();
/// assert!(out.circuit.gate_counts().cx >= 1);
/// ```
pub fn transpile(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    transpile_instrumented(circuit, backend, opts).map(|(t, _)| t)
}

/// The pass sequence of the level-1 fixed-point loop: 1q merging and CX
/// cancellation, which Qiskit 0.18's level 1 repeats until they stop
/// improving the circuit.
fn level1_fixpoint_passes() -> Vec<Box<dyn DagPass>> {
    vec![Box::new(Optimize1qGates), Box::new(CxCancellation)]
}

/// The pass sequence of the level-2/3 fixed-point loop (`consolidate`
/// appends the level-3 tail), as boxed DAG passes for [`FixedPointLoop`].
pub fn fixpoint_passes(consolidate: bool) -> Vec<Box<dyn DagPass>> {
    let mut passes: Vec<Box<dyn DagPass>> = vec![
        Box::new(CommutativeCancellation),
        Box::new(CxCancellation),
        Box::new(Optimize1qGates),
    ];
    if consolidate {
        passes.push(Box::new(ConsolidateBlocks));
        passes.push(Box::new(Unroller::to_device_basis()));
        passes.push(Box::new(Optimize1qGates));
        passes.push(Box::new(CxCancellation));
    }
    passes
}

/// Layout selection on the shared DAG (trivial below level 2, dense
/// otherwise), rewriting the nodes onto physical wires. Returns the layout.
///
/// # Errors
///
/// Returns [`crate::RpoError::InvalidInput`] (via
/// [`crate::RpoError::too_many_qubits`]) when the circuit does not fit.
pub fn dag_stage_layout(
    dag: &mut Dag,
    backend: &Backend,
    level: u8,
) -> Result<Vec<usize>, TranspileError> {
    let layout = if level >= 2 {
        crate::layout::dense_layout_insts(
            dag.iter().map(|(_, inst)| inst),
            dag.num_qubits(),
            backend,
        )?
    } else {
        if dag.num_qubits() > backend.num_qubits() {
            return Err(TranspileError::too_many_qubits(
                dag.num_qubits(),
                backend.num_qubits(),
            ));
        }
        trivial_layout(dag.num_qubits())
    };
    apply_layout_dag(dag, &layout, backend.num_qubits())?;
    Ok(layout)
}

/// [`transpile`] with per-pass execution statistics: every stage and
/// every fixed-point pass report name, runs, change-tracking skips,
/// rewrites and wall time (the CI timing-table artifact's data source).
///
/// # Errors
///
/// Same failure modes as [`transpile`].
pub fn transpile_instrumented(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<(Transpiled, Vec<PassStats>), TranspileError> {
    let device = Unroller::to_device_basis();
    let unroll = Stage::mandatory("Unroller(device)", &device);
    let optimize_1q = Stage::optional("Optimize1qGates", &Optimize1qGates);
    // The second unroll decomposes the routing SWAPs.
    let after_routing = match opts.level {
        0 => vec![unroll],
        1 => vec![
            unroll,
            Stage::FixedPoint {
                passes: level1_fixpoint_passes,
            },
        ],
        2 => vec![
            unroll,
            optimize_1q,
            Stage::FixedPoint {
                passes: || fixpoint_passes(false),
            },
        ],
        _ => vec![
            unroll,
            optimize_1q,
            Stage::FixedPoint {
                passes: || fixpoint_passes(true),
            },
        ],
    };
    run_pipeline(circuit, backend, opts, &[unroll], &after_routing)
}

/// One step of a pipeline's stage list (see [`run_pipeline`]).
#[derive(Clone, Copy)]
pub enum Stage<'a> {
    /// One guarded execution of `pass`, recorded in the statistics under
    /// `label`. The guard skips an `optional` pass past the deadline or
    /// when the caller pre-disabled its label; a mandatory one (unrolling)
    /// always runs, since without it there is no hardware-valid circuit.
    Pass {
        /// Statistics, quarantine and pre-disable label.
        label: &'static str,
        /// The pass.
        pass: &'a dyn DagPass,
        /// Whether the guard may skip the pass.
        optional: bool,
    },
    /// The change-driven fixed-point loop ([`FixedPointLoop`]) over the
    /// passes `passes` builds: [`fixpoint_passes`] at levels 2 and 3 (and in
    /// the RPO and Hoare flows), `Optimize1qGates` and `CxCancellation` at
    /// level 1.
    FixedPoint {
        /// Builds the loop's pass sequence.
        passes: fn() -> Vec<Box<dyn DagPass>>,
    },
}

impl<'a> Stage<'a> {
    /// A pass the guard always runs.
    pub fn mandatory(label: &'static str, pass: &'a dyn DagPass) -> Self {
        Stage::Pass {
            label,
            pass,
            optional: false,
        }
    }

    /// An optimization pass the guard may skip.
    pub fn optional(label: &'static str, pass: &'a dyn DagPass) -> Self {
        Stage::Pass {
            label,
            pass,
            optional: true,
        }
    }
}

/// The one guarded pipeline driver. It creates the run's [`PassGuard`]
/// from `opts` (budget, pre-disabled passes), checks the qubit ceiling,
/// validates the input ([`validate_input`]), converts the circuit to a
/// [`Dag`] once, and runs `before_layout`, the mandatory layout
/// ([`dag_stage_layout`] at `opts.level`), the mandatory routing
/// ([`dag_stage_route_budgeted`]: extra trials are skipped past the
/// deadline), and `after_routing`. It then records a deadline overrun,
/// builds `final_map`, and converts back once.
///
/// The statistics follow the stage order; a [`Stage::FixedPoint`] adds
/// one entry per loop pass.
///
/// # Errors
///
/// Invalid input, a circuit that does not fit the backend, a hard budget
/// ceiling, a panic inside layout or routing, or a failed mandatory stage
/// ([`crate::RpoError::PassFailed`]; a gate with no decomposition rule
/// fails the unroll this way). Failures of optional passes are contained
/// and reported on [`Transpiled::degradation`].
pub fn run_pipeline(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
    before_layout: &[Stage],
    after_routing: &[Stage],
) -> Result<(Transpiled, Vec<PassStats>), TranspileError> {
    let guard = PassGuard::new(opts.budget).with_predisabled(opts.disabled_passes);
    guard.check_qubits(circuit.num_qubits())?;
    validate_input(circuit)?;
    // The single circuit→dag conversion of the pipeline.
    let mut dag = Dag::from_circuit(circuit);
    guard.check_gates(&dag)?;
    let mut run = StageRunner {
        guard,
        props: PropertySet::new(),
        stats: Vec::new(),
    };
    run.stages(before_layout, &mut dag)?;
    // Layout and routing are mandatory and run even past the deadline.
    let layout = catch_stage("layout", || dag_stage_layout(&mut dag, backend, opts.level))?;
    let snapshot = run.guard.snapshot();
    let (wire_map, trials_run) = catch_stage("routing", || {
        dag_stage_route_budgeted(&mut dag, backend, opts.seed, opts.routing_trials, snapshot)
    })?;
    if trials_run < opts.routing_trials.max(1) {
        run.guard.note_deadline("routing trials");
    }
    run.guard.check_gates(&dag)?;
    run.stages(after_routing, &mut dag)?;
    if run.guard.deadline_exceeded() {
        // Record the overrun even when no pass was individually skipped
        // (e.g. the last pass itself blew the deadline).
        run.guard.note_deadline("pipeline end");
    }
    let final_map = layout.iter().map(|&w| wire_map[w]).collect();
    // The single dag→circuit conversion of the pipeline.
    let c = dag.to_circuit();
    Ok((
        Transpiled {
            circuit: c,
            final_map,
            degradation: run.guard.into_report(),
        },
        run.stats,
    ))
}

/// What one [`run_pipeline`] call threads through its stage lists.
struct StageRunner {
    guard: PassGuard,
    props: PropertySet,
    stats: Vec<PassStats>,
}

impl StageRunner {
    fn stages(&mut self, stages: &[Stage], dag: &mut Dag) -> Result<(), TranspileError> {
        for stage in stages {
            match *stage {
                Stage::Pass {
                    label,
                    pass,
                    optional,
                } => run_stage(
                    &mut self.guard,
                    label,
                    pass,
                    dag,
                    &mut self.props,
                    &mut self.stats,
                    optional,
                )?,
                Stage::FixedPoint { passes } => {
                    let mut fp = FixedPointLoop::new(passes(), dag.num_qubits());
                    fp.run_guarded(dag, &mut self.props, 10, &mut self.guard)?;
                    self.stats.extend(fp.stats);
                }
            }
        }
        Ok(())
    }
}

/// Rejects structurally invalid input before any pass runs: non-finite
/// gate parameters and non-unitary embedded matrices become
/// [`crate::RpoError::InvalidInput`] instead of NaN-poisoned output.
///
/// # Errors
///
/// [`crate::RpoError::InvalidInput`] naming the offending gate.
pub fn validate_input(circuit: &Circuit) -> Result<(), TranspileError> {
    for inst in circuit.instructions() {
        if let Some(issue) = gate_issue(&inst.gate) {
            return Err(TranspileError::InvalidInput(format!(
                "input circuit: {issue}"
            )));
        }
    }
    Ok(())
}

/// Routing on the shared DAG under a deadline budget: inserts SWAPs,
/// installs the routed stream, and returns the end-of-circuit wire map and
/// the number of trials actually run (later trials are skipped once the
/// deadline passes; trial 0 always runs).
///
/// # Errors
///
/// Same failure modes as [`route_dag_budgeted`].
pub fn dag_stage_route_budgeted(
    dag: &mut Dag,
    backend: &Backend,
    seed: u64,
    trials: usize,
    budget: crate::guard::BudgetSnapshot,
) -> Result<(Vec<usize>, usize), TranspileError> {
    let (routed, ran) = route_dag_budgeted(dag, backend, seed, trials, budget)?;
    dag.replace_all(backend.num_qubits(), routed.circuit.into_instructions());
    Ok((routed.wire_map, ran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_sim::Statevector;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn all_levels_produce_device_gates() {
        let backend = Backend::melbourne();
        for level in 0..=3 {
            let out = transpile(&bell(), &backend, &TranspileOptions::level(level)).unwrap();
            for inst in out.circuit.instructions() {
                assert_eq!(
                    qc_circuit::instruction_classes(inst) & qc_circuit::gate_class::NON_DEVICE,
                    0,
                    "level {level} left gate {}",
                    inst.gate
                );
                if inst.qubits.len() == 2 && inst.gate.is_unitary_gate() {
                    assert!(backend.are_adjacent(inst.qubits[0], inst.qubits[1]));
                }
            }
        }
    }

    #[test]
    fn higher_levels_do_not_increase_cx() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(5);
        // An entangling mesh that needs routing.
        for i in 0..5 {
            c.h(i);
        }
        for i in 0..5 {
            for j in i + 1..5 {
                c.cx(i, j);
            }
        }
        let opts = |l| TranspileOptions::level(l).with_seed(3);
        let cx0 = transpile(&c, &backend, &opts(0))
            .unwrap()
            .circuit
            .gate_counts()
            .cx;
        let cx3 = transpile(&c, &backend, &opts(3))
            .unwrap()
            .circuit
            .gate_counts()
            .cx;
        assert!(cx3 <= cx0, "level 3 ({cx3}) worse than level 0 ({cx0})");
    }

    #[test]
    fn transpiled_bell_still_makes_bell_pairs() {
        let backend = Backend::melbourne();
        let out = transpile(&bell(), &backend, &TranspileOptions::level(3)).unwrap();
        let sv = Statevector::from_circuit(&out.circuit);
        // Probability mass must sit on the two states where the mapped
        // qubits agree.
        let q0 = out.final_map[0];
        let q1 = out.final_map[1];
        let probs = sv.probabilities();
        let mut agree = 0.0;
        for (idx, p) in probs.iter().enumerate() {
            let b0 = (idx >> q0) & 1;
            let b1 = (idx >> q1) & 1;
            if b0 == b1 {
                agree += p;
            }
        }
        assert!((agree - 1.0).abs() < 1e-9, "bell correlation lost: {agree}");
    }

    #[test]
    fn deterministic_given_seed() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(1, 2).cx(0, 2).measure_all();
        let o = TranspileOptions::level(3).with_seed(9);
        let a = transpile(&c, &backend, &o).unwrap();
        let b = transpile(&c, &backend, &o).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn measure_only_circuit() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(1);
        c.measure(0);
        let out = transpile(&c, &backend, &TranspileOptions::level(3)).unwrap();
        assert_eq!(out.circuit.count_name("measure"), 1);
    }

    #[test]
    fn oversized_circuit_rejected() {
        let backend = Backend::linear(2);
        let c = Circuit::new(5);
        assert!(transpile(&c, &backend, &TranspileOptions::level(1)).is_err());
    }
}
