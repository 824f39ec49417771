//! Pass isolation, resource budgets and graceful degradation.
//!
//! The failure model of the transpile stack: a pass that panics, returns
//! an error, or corrupts the DAG must never take the whole process down
//! with it. [`PassGuard`] runs every [`DagPass`] under
//! [`std::panic::catch_unwind`] with the DAG's undo journal open
//! ([`Dag::open_journal`]) as the pre-pass checkpoint; a failing pass is
//! rolled back by replaying the journal, in time proportional to its
//! edits. An optional optimization pass is then **quarantined** (skipped
//! for the rest of the run) and the pipeline continues with the remaining
//! passes. A mandatory stage (unrolling) has no fallback, so its failure
//! ends the run with [`RpoError::PassFailed`], as a panic in layout or
//! routing does ([`catch_stage`]). The caller always gets either a typed
//! [`RpoError`] or a valid, semantics-preserving circuit — plus a
//! [`DegradationReport`] saying exactly what was contained.
//!
//! [`TranspileBudget`] adds cooperative resource ceilings. The *graceful*
//! dimensions — wall-clock deadline and fixed-point iterations — skip
//! optional optimization passes and return the best circuit so far
//! (mandatory stages: unrolling, layout, routing always run). The *hard*
//! dimensions — gate and qubit counts — abort with
//! [`RpoError::BudgetExceeded`], because exceeding them means the output
//! would be unusable anyway.
//!
//! After each guarded pass a validator checks the DAG: structural
//! invariants ([`Dag::check_invariants`]), gate-level validity (finite
//! parameters, embedded matrices actually unitary), and — on circuits
//! small enough to afford it — a unitary spot check against the
//! checkpoint. Validation runs on every pass in debug builds and on a
//! deterministic sample in release builds ([`ValidationMode`]), keeping
//! the guards off the hot path.

use crate::manager::{run_timed, DagPass, PassStats, PropertySet};
use qc_circuit::{BudgetKind, ChangeReport, Dag, Gate, RpoError, UnitaryAccumulator};
use qc_math::Matrix;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Cooperative resource ceilings for one transpile run. `None` everywhere
/// (the default) means unlimited — zero overhead beyond the per-pass
/// checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranspileBudget {
    /// Wall-clock ceiling. Graceful: on expiry the pipeline skips optional
    /// optimization passes and returns the best circuit so far.
    pub deadline: Option<Duration>,
    /// Ceiling on fixed-point loop iterations (graceful, like `deadline`).
    pub max_fixpoint_iters: Option<usize>,
    /// Hard ceiling on the gate count at any pass boundary.
    pub max_gates: Option<usize>,
    /// Hard ceiling on the circuit's qubit count, checked at entry.
    pub max_qubits: Option<usize>,
}

impl TranspileBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        TranspileBudget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the fixed-point iteration ceiling.
    pub fn with_max_fixpoint_iters(mut self, n: usize) -> Self {
        self.max_fixpoint_iters = Some(n);
        self
    }

    /// Sets the hard gate-count ceiling.
    pub fn with_max_gates(mut self, n: usize) -> Self {
        self.max_gates = Some(n);
        self
    }

    /// Sets the hard qubit-count ceiling.
    pub fn with_max_qubits(mut self, n: usize) -> Self {
        self.max_qubits = Some(n);
        self
    }
}

/// The universe of *disableable* pass labels: every optional optimization
/// stage the guarded pipelines run. Mandatory stages (device unrolling,
/// layout, routing) are deliberately absent — disabling them could not be
/// honored anyway, since without them there is no hardware-valid output.
///
/// The order is the bit order of [`PassSet`]; appending is
/// backwards-compatible, reordering is not (serve-level breaker state is
/// keyed by label, not bit, so only in-process `PassSet` values care).
pub const DISABLEABLE_PASSES: [&str; 7] = [
    "QBO(early)",
    "QBO(post-route)",
    "QPO",
    "Optimize1qGates",
    "CommutativeCancellation",
    "CxCancellation",
    "ConsolidateBlocks",
];

/// A set of disableable pass labels, packed into a bitmask so it stays
/// `Copy` (it travels on [`crate::TranspileOptions`]). Used by the serve
/// layer's retry path ("recompile with the offending pass pre-disabled")
/// and circuit breakers ("remove this pass from admission fleet-wide").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PassSet {
    bits: u8,
}

impl PassSet {
    /// The empty set (nothing disabled) — the default.
    pub fn empty() -> Self {
        PassSet::default()
    }

    /// Whether no pass is in the set.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The bit index of `label`, if it names a disableable pass.
    fn bit(label: &str) -> Option<u8> {
        DISABLEABLE_PASSES
            .iter()
            .position(|&l| l == label)
            .map(|i| i as u8)
    }

    /// Whether `label` names a pass that *can* be disabled at all.
    pub fn is_disableable(label: &str) -> bool {
        Self::bit(label).is_some()
    }

    /// Adds `label` to the set. Returns `false` (set unchanged) when the
    /// label is not disableable.
    pub fn insert(&mut self, label: &str) -> bool {
        match Self::bit(label) {
            Some(b) => {
                self.bits |= 1 << b;
                true
            }
            None => false,
        }
    }

    /// Whether `label` is in the set.
    pub fn contains(&self, label: &str) -> bool {
        Self::bit(label).is_some_and(|b| self.bits & (1 << b) != 0)
    }

    /// The union of two sets.
    pub fn union(self, other: PassSet) -> PassSet {
        PassSet {
            bits: self.bits | other.bits,
        }
    }

    /// The labels in the set, in [`DISABLEABLE_PASSES`] order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        DISABLEABLE_PASSES
            .iter()
            .enumerate()
            .filter(|(i, _)| self.bits & (1 << i) != 0)
            .map(|(_, &l)| l)
    }
}

/// A pass the guard rolled back and disabled for the rest of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The pass (stage label) that failed.
    pub pass: String,
    /// Why: the panic payload, inner error, or validation failure.
    pub reason: String,
}

/// A budget ceiling the run hit (gracefully).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetHit {
    /// Which ceiling.
    pub kind: BudgetKind,
    /// Where in the pipeline it was noticed.
    pub context: String,
}

/// What the guard contained during a run: the caller's proof that the
/// output, while valid, may be less optimized than usual.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Passes rolled back and disabled, in the order they failed.
    pub quarantined: Vec<QuarantineRecord>,
    /// Budget ceilings hit (graceful degradations), in order.
    pub budget_hits: Vec<BudgetHit>,
    /// Optional passes the *caller* disabled up front
    /// ([`crate::TranspileOptions::disabled_passes`] — serve-level retry
    /// and circuit breakers). Requested behavior, so it does not make the
    /// run unclean, but responses surface it for observability.
    pub predisabled: Vec<String>,
}

impl DegradationReport {
    /// Whether the run completed with no *unexpected* containment:
    /// nothing quarantined, no budget ceiling hit. Caller-requested
    /// pre-disables do not count — the run did exactly what was asked.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.budget_hits.is_empty()
    }

    /// Whether `pass` was quarantined.
    pub fn is_quarantined(&self, pass: &str) -> bool {
        self.quarantined.iter().any(|q| q.pass == pass)
    }
}

/// How often the post-pass validator runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationMode {
    /// After every guarded pass (the debug-build default).
    Always,
    /// Deterministically every `n`-th guarded pass execution, plus the
    /// first (the release-build default, `n = 16`).
    Sampled(usize),
}

impl ValidationMode {
    fn default_for_build() -> Self {
        if cfg!(debug_assertions) {
            ValidationMode::Always
        } else {
            ValidationMode::Sampled(16)
        }
    }
}

/// A `Copy` view of the running budget's deadline, polled inside
/// expensive inner loops to bail out once it passes: `ConsolidateBlocks`
/// reads it through [`PropertySet::budget`], and routing takes it as an
/// argument between trials.
#[derive(Clone, Copy, Debug, Default)]
pub struct BudgetSnapshot {
    deadline_at: Option<Instant>,
}

impl BudgetSnapshot {
    /// A snapshot with no deadline (inner loops never bail).
    pub fn unlimited() -> Self {
        BudgetSnapshot::default()
    }

    /// Whether the deadline has passed.
    pub fn exceeded(&self) -> bool {
        self.deadline_at.is_some_and(|t| Instant::now() >= t)
    }
}

/// The outcome of one guarded pass execution.
#[derive(Debug)]
pub enum GuardedRun {
    /// The pass ran (and validated, when sampled); here is its report.
    Ran(ChangeReport),
    /// The pass did not run (quarantined or deadline) or was rolled back —
    /// either way the DAG is unchanged.
    Skipped,
}

/// Runs passes under panic containment, checkpoint/rollback, budgets and
/// post-pass validation. One guard instance spans one pipeline run; its
/// [`DegradationReport`] travels out on the transpiled result.
pub struct PassGuard {
    budget: TranspileBudget,
    deadline_at: Option<Instant>,
    quarantined: HashSet<String>,
    predisabled: PassSet,
    report: DegradationReport,
    deadline_reported: bool,
    validation: ValidationMode,
    executions: usize,
}

impl PassGuard {
    /// A guard for one pipeline run under `budget`, with the build's
    /// default [`ValidationMode`].
    pub fn new(budget: TranspileBudget) -> Self {
        PassGuard {
            budget,
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            quarantined: HashSet::new(),
            predisabled: PassSet::empty(),
            report: DegradationReport::default(),
            deadline_reported: false,
            validation: ValidationMode::default_for_build(),
            executions: 0,
        }
    }

    /// Overrides the validation mode.
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.validation = mode;
        self
    }

    /// Pre-disables a set of optional passes for the whole run (the serve
    /// layer's retry/circuit-breaker hook). Disabled passes are skipped
    /// *only in their optional executions*; mandatory stages carrying the
    /// same label still run, so the output stays hardware-valid. The set
    /// is recorded on [`DegradationReport::predisabled`].
    pub fn with_predisabled(mut self, set: PassSet) -> Self {
        self.predisabled = set;
        self.report.predisabled = set.iter().map(str::to_string).collect();
        self
    }

    /// The budget this guard enforces.
    pub fn budget(&self) -> &TranspileBudget {
        &self.budget
    }

    /// Whether the wall-clock deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline_at.is_some_and(|t| Instant::now() >= t)
    }

    /// The [`BudgetSnapshot`] budget-aware passes read mid-loop.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            deadline_at: self.deadline_at,
        }
    }

    /// Entry check: the hard qubit ceiling.
    ///
    /// # Errors
    ///
    /// [`RpoError::BudgetExceeded`] when the circuit is wider than
    /// [`TranspileBudget::max_qubits`].
    pub fn check_qubits(&self, num_qubits: usize) -> Result<(), RpoError> {
        match self.budget.max_qubits {
            Some(max) if num_qubits > max => Err(RpoError::BudgetExceeded {
                kind: BudgetKind::MaxQubits,
            }),
            _ => Ok(()),
        }
    }

    /// Boundary check: the hard gate ceiling.
    ///
    /// # Errors
    ///
    /// [`RpoError::BudgetExceeded`] when the DAG holds more than
    /// [`TranspileBudget::max_gates`] nodes.
    pub fn check_gates(&self, dag: &Dag) -> Result<(), RpoError> {
        match self.budget.max_gates {
            Some(max) if dag.len() > max => Err(RpoError::BudgetExceeded {
                kind: BudgetKind::MaxGates,
            }),
            _ => Ok(()),
        }
    }

    /// Records a graceful deadline degradation (once per run).
    pub fn note_deadline(&mut self, context: &str) {
        if !self.deadline_reported {
            self.deadline_reported = true;
            self.report.budget_hits.push(BudgetHit {
                kind: BudgetKind::Deadline,
                context: context.to_string(),
            });
        }
    }

    /// Records hitting the fixed-point iteration ceiling.
    pub fn note_max_iterations(&mut self, context: &str) {
        self.report.budget_hits.push(BudgetHit {
            kind: BudgetKind::MaxIterations,
            context: context.to_string(),
        });
    }

    /// Quarantines `pass` (it will not run again this pipeline) and
    /// records why.
    pub fn quarantine(&mut self, pass: &str, reason: String) {
        self.quarantined.insert(pass.to_string());
        self.report.quarantined.push(QuarantineRecord {
            pass: pass.to_string(),
            reason,
        });
    }

    /// Whether `pass` is currently quarantined.
    pub fn is_quarantined(&self, pass: &str) -> bool {
        self.quarantined.contains(pass)
    }

    /// The degradation record so far (the final one travels on
    /// [`crate::preset::Transpiled::degradation`]).
    pub fn report(&self) -> &DegradationReport {
        &self.report
    }

    /// Consumes the guard into its report.
    pub fn into_report(self) -> DegradationReport {
        self.report
    }

    fn should_validate(&mut self, _label: &str) -> bool {
        self.executions += 1;
        #[cfg(feature = "fault-inject")]
        if crate::fault::armed_for(_label) {
            // An armed fault must not escape through release sampling.
            return true;
        }
        match self.validation {
            ValidationMode::Always => true,
            ValidationMode::Sampled(n) => {
                self.executions == 1 || self.executions.is_multiple_of(n.max(1))
            }
        }
    }

    /// Runs one pass under the guard: quarantine filter, deadline filter
    /// (for `optional` passes), an undo journal as checkpoint,
    /// `catch_unwind`, rollback on panic/error/validation failure, and the
    /// hard gate ceiling afterwards. A failed optional pass is quarantined;
    /// a failed mandatory one fails the run.
    ///
    /// `label` is the stage name faults and quarantine are keyed by — for
    /// prefix stages it may differ from `pass.name()` (e.g.
    /// `"QBO(early)"` vs `"QBO"`); the fixed-point loop passes
    /// `pass.name()` itself.
    ///
    /// # Errors
    ///
    /// Hard budget violations ([`RpoError::BudgetExceeded`]), and
    /// [`RpoError::PassFailed`] naming `label` when a mandatory pass fails.
    /// A failed optional pass degrades into [`GuardedRun::Skipped`].
    pub fn run_pass(
        &mut self,
        label: &'static str,
        pass: &dyn DagPass,
        dag: &mut Dag,
        props: &mut PropertySet,
        stats: &mut PassStats,
        optional: bool,
    ) -> Result<GuardedRun, RpoError> {
        if self.is_quarantined(label) {
            stats.quarantined += 1;
            return Ok(GuardedRun::Skipped);
        }
        if optional && self.predisabled.contains(label) {
            stats.predisabled += 1;
            return Ok(GuardedRun::Skipped);
        }
        if optional && self.deadline_exceeded() {
            self.note_deadline(&format!("skipping optional pass '{label}'"));
            stats.budget_skips += 1;
            return Ok(GuardedRun::Skipped);
        }
        // Budget-aware passes read the deadline from the property set.
        props.set_budget(self.snapshot());
        let validate = self.should_validate(label);
        let u_before = if validate {
            spot_check_unitary(dag, pass.preserves_unitary())
        } else {
            None
        };
        dag.open_journal();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            crate::fault::fire_before(label);
            let r = run_timed(pass, dag, props, stats);
            #[cfg(feature = "fault-inject")]
            if r.is_ok() {
                crate::fault::fire_after(label, dag);
            }
            r
        }));
        let checked = match outcome {
            Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
            Ok(Err(e)) => Err(e.to_string()),
            Ok(Ok(report)) if validate => validate_dag(dag, u_before.as_ref())
                .map(|()| report)
                .map_err(|why| format!("post-pass validation failed: {why}")),
            Ok(Ok(report)) => Ok(report),
        };
        match checked {
            Ok(report) => {
                dag.commit_journal();
                self.check_gates(dag)?;
                Ok(GuardedRun::Ran(report))
            }
            Err(cause) if optional => {
                dag.rollback_journal();
                self.quarantine(label, cause);
                Ok(GuardedRun::Skipped)
            }
            Err(cause) => {
                // A mandatory stage has no fallback: without it there is
                // no hardware-valid output.
                dag.rollback_journal();
                Err(RpoError::PassFailed {
                    pass: label.to_string(),
                    cause,
                })
            }
        }
    }
}

/// Runs a straight-line pipeline stage under the guard, appending its
/// statistics under `label` — how [`crate::preset::run_pipeline`] runs a
/// [`crate::preset::Stage::Pass`].
///
/// # Errors
///
/// Hard budget violations and failed mandatory passes — see
/// [`PassGuard::run_pass`].
pub fn run_stage(
    guard: &mut PassGuard,
    label: &'static str,
    pass: &dyn DagPass,
    dag: &mut Dag,
    props: &mut PropertySet,
    stats: &mut Vec<PassStats>,
    optional: bool,
) -> Result<(), RpoError> {
    let mut s = PassStats::new_named(label);
    guard.run_pass(label, pass, dag, props, &mut s, optional)?;
    stats.push(s);
    Ok(())
}

/// Renders a `catch_unwind` payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a non-pass pipeline stage (layout, routing) under panic
/// containment. These stages are mandatory — a failure cannot be
/// quarantined away — so a panic becomes a typed
/// [`RpoError::PassFailed`] instead.
///
/// # Errors
///
/// The stage's own error, or [`RpoError::PassFailed`] when it panicked.
pub fn catch_stage<T>(name: &str, f: impl FnOnce() -> Result<T, RpoError>) -> Result<T, RpoError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(RpoError::PassFailed {
            pass: name.to_string(),
            cause: format!("panicked: {}", panic_message(payload.as_ref())),
        }),
    }
}

/// Ceilings under which the unitary spot check is affordable: the 2ⁿ×2ⁿ
/// accumulation is cubic in the dimension.
const SPOT_CHECK_MAX_QUBITS: usize = 3;
const SPOT_CHECK_MAX_NODES: usize = 64;

/// The checkpoint's unitary, when the circuit is small enough and fully
/// unitary and the pass claims to preserve semantics. `None` disables the
/// spot check for this run.
fn spot_check_unitary(dag: &Dag, preserves_unitary: bool) -> Option<Matrix> {
    if !preserves_unitary
        || dag.num_qubits() > SPOT_CHECK_MAX_QUBITS
        || dag.len() > SPOT_CHECK_MAX_NODES
    {
        return None;
    }
    accumulate_unitary(dag)
}

/// Multiplies the DAG's gates into one matrix without a Circuit
/// round-trip (the conversion counters stay untouched). `None` when any
/// node is non-unitary (measure/reset/directives).
fn accumulate_unitary(dag: &Dag) -> Option<Matrix> {
    let mut acc = UnitaryAccumulator::new(dag.num_qubits());
    for (_, inst) in dag.iter() {
        if !inst.gate.is_unitary_gate() {
            return None;
        }
        acc.push(&inst.gate, &inst.qubits);
    }
    Some(acc.matrix())
}

/// The post-pass validator: structural invariants, gate-level validity,
/// and the optional unitary spot check against the checkpoint.
fn validate_dag(dag: &Dag, u_before: Option<&Matrix>) -> Result<(), String> {
    dag.check_invariants()?;
    for (id, inst) in dag.iter() {
        if let Some(issue) = gate_issue(&inst.gate) {
            return Err(format!("node {id}: {issue}"));
        }
    }
    if let Some(before) = u_before {
        if let Some(after) = accumulate_unitary(dag) {
            if !after.equal_up_to_global_phase(before, 1e-6) {
                return Err("unitary spot check failed (pass changed circuit semantics)".into());
            }
        }
    }
    Ok(())
}

/// Gate-level validity: finite parameters, embedded matrices actually
/// unitary. Cheap (parameters only) except for the rare matrix gates. The
/// post-pass validator and the pipelines' input validation share it.
pub(crate) fn gate_issue(gate: &Gate) -> Option<String> {
    let finite = |vals: &[f64]| vals.iter().all(|v| v.is_finite());
    match gate {
        Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::U1(t) | Gate::Cp(t) => {
            (!finite(&[*t])).then(|| format!("non-finite parameter in {}", gate.name()))
        }
        Gate::U2(a, b) | Gate::Annot(a, b) => {
            (!finite(&[*a, *b])).then(|| format!("non-finite parameter in {}", gate.name()))
        }
        Gate::U3(a, b, c) => {
            (!finite(&[*a, *b, *c])).then(|| format!("non-finite parameter in {}", gate.name()))
        }
        Gate::Cu(m) | Gate::Unitary(m) => {
            (!m.is_unitary(1e-6)).then(|| format!("embedded {} matrix is not unitary", gate.name()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassStats;
    use qc_circuit::{Circuit, DagEdit, Instruction};

    /// A pass that always panics.
    struct Bomb;
    impl DagPass for Bomb {
        fn name(&self) -> &'static str {
            "Bomb"
        }
        fn run_on_dag(
            &self,
            _dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, RpoError> {
            panic!("kaboom");
        }
    }

    /// A pass that mutates the DAG (removes the first node) and then
    /// panics — rollback must restore the removed node.
    struct MutateThenPanic;
    impl DagPass for MutateThenPanic {
        fn name(&self) -> &'static str {
            "MutateThenPanic"
        }
        fn run_on_dag(
            &self,
            dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, RpoError> {
            let first = dag.iter().next().map(|(id, _)| id);
            if let Some(id) = first {
                let mut edit = DagEdit::new();
                edit.remove(id);
                dag.apply(edit);
            }
            panic!("mid-mutation panic");
        }
    }

    /// A pass whose single edit replaces one node and removes another,
    /// then panics inside `Dag::apply` on an out-of-range replacement
    /// qubit — rollback must undo a half-applied batch.
    struct PanicInsideApply;
    impl DagPass for PanicInsideApply {
        fn name(&self) -> &'static str {
            "PanicInsideApply"
        }
        fn run_on_dag(
            &self,
            dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, RpoError> {
            let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
            let mut edit = DagEdit::new();
            edit.replace(
                ids[0],
                vec![
                    Instruction::new(Gate::X, vec![0]),
                    Instruction::new(Gate::H, vec![2]),
                ],
            );
            edit.remove(ids[1]);
            edit.replace(
                ids[2],
                vec![Instruction::new(Gate::X, vec![dag.num_qubits()])],
            );
            Ok(dag.apply(edit))
        }
    }

    /// A pass that corrupts semantics: replaces the first node with a
    /// non-unitary embedded matrix.
    struct CorruptSemantics;
    impl DagPass for CorruptSemantics {
        fn name(&self) -> &'static str {
            "CorruptSemantics"
        }
        fn run_on_dag(
            &self,
            dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, RpoError> {
            let first = dag.iter().next().map(|(id, inst)| (id, inst.qubits[0]));
            if let Some((id, q)) = first {
                let bad = Matrix::from_fn(2, 2, |_, _| qc_math::C64::real(3.0));
                let mut edit = DagEdit::new();
                edit.replace(id, vec![Instruction::new(Gate::Unitary(bad), vec![q])]);
                return Ok(dag.apply(edit));
            }
            Ok(ChangeReport::none())
        }
    }

    fn guarded(pass: &dyn DagPass, dag: &mut Dag) -> (GuardedRun, DegradationReport) {
        let mut guard =
            PassGuard::new(TranspileBudget::unlimited()).with_validation(ValidationMode::Always);
        let mut props = PropertySet::new();
        let mut stats = PassStats::new_named(pass.name());
        let run = guard
            .run_pass(pass.name(), pass, dag, &mut props, &mut stats, true)
            .unwrap();
        (run, guard.into_report())
    }

    #[test]
    fn panicking_pass_is_rolled_back_and_quarantined() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (run, report) = guarded(&Bomb, &mut dag);
        std::panic::set_hook(hook);
        assert!(matches!(run, GuardedRun::Skipped));
        assert!(report.is_quarantined("Bomb"));
        assert!(report.quarantined[0].reason.contains("kaboom"));
        assert_eq!(dag.len(), 2);
        dag.check_invariants().unwrap();
    }

    #[test]
    fn mid_mutation_panic_restores_checkpoint() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let mut dag = Dag::from_circuit(&c);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (_, report) = guarded(&MutateThenPanic, &mut dag);
        std::panic::set_hook(hook);
        assert!(report.is_quarantined("MutateThenPanic"));
        assert_eq!(dag.len(), 3, "mutation must be rolled back");
        assert_eq!(dag.to_circuit(), c);
    }

    #[test]
    fn panic_inside_apply_restores_pre_pass_dag() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let mut dag = Dag::from_circuit(&c);
        // A committed edit first: the splices recycle its freed id.
        let mut edit = DagEdit::new();
        edit.remove(4);
        dag.apply(edit);
        let before = format!("{dag:?}");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (run, report) = guarded(&PanicInsideApply, &mut dag);
        std::panic::set_hook(hook);
        assert!(matches!(run, GuardedRun::Skipped));
        assert!(report.is_quarantined("PanicInsideApply"));
        assert!(report.quarantined[0].reason.contains("out of range"));
        assert_eq!(format!("{dag:?}"), before, "half-applied batch rolled back");
        dag.check_invariants().unwrap();
    }

    #[test]
    fn semantic_corruption_is_caught_by_validation() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let (run, report) = guarded(&CorruptSemantics, &mut dag);
        assert!(matches!(run, GuardedRun::Skipped));
        assert!(report.is_quarantined("CorruptSemantics"));
        assert_eq!(dag.to_circuit(), c, "corruption must be rolled back");
    }

    #[test]
    fn quarantined_pass_never_runs_again() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut dag = Dag::from_circuit(&c);
        let mut guard = PassGuard::new(TranspileBudget::unlimited());
        let mut props = PropertySet::new();
        let mut stats = PassStats::new_named("Bomb");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..3 {
            guard
                .run_pass("Bomb", &Bomb, &mut dag, &mut props, &mut stats, true)
                .unwrap();
        }
        std::panic::set_hook(hook);
        assert_eq!(stats.quarantined, 2, "second and third calls skip");
        assert_eq!(guard.report().quarantined.len(), 1);
    }

    #[test]
    fn deadline_skips_optional_passes() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut dag = Dag::from_circuit(&c);
        let mut guard = PassGuard::new(TranspileBudget::unlimited().with_deadline(Duration::ZERO));
        let mut props = PropertySet::new();
        let mut stats = PassStats::new_named("CorruptSemantics");
        let run = guard
            .run_pass(
                "CorruptSemantics",
                &CorruptSemantics,
                &mut dag,
                &mut props,
                &mut stats,
                true,
            )
            .unwrap();
        assert!(matches!(run, GuardedRun::Skipped));
        assert_eq!(stats.budget_skips, 1);
        assert_eq!(guard.report().budget_hits.len(), 1);
        assert_eq!(guard.report().budget_hits[0].kind, BudgetKind::Deadline);
        // Mandatory stages still run at deadline. This run is the guard's
        // first validated execution in every build, so the corruption is
        // caught, rolled back and, the stage being mandatory, fails the run.
        let mut stats2 = PassStats::new_named("CorruptSemantics");
        let err = guard
            .run_pass(
                "CorruptSemantics",
                &CorruptSemantics,
                &mut dag,
                &mut props,
                &mut stats2,
                false,
            )
            .unwrap_err();
        assert_eq!(stats2.runs, 1, "the mandatory stage was attempted");
        match err {
            RpoError::PassFailed { pass, cause } => {
                assert_eq!(pass, "CorruptSemantics");
                assert!(cause.contains("validation failed"), "{cause}");
            }
            other => panic!("expected PassFailed, got {other:?}"),
        }
        assert_eq!(dag.to_circuit(), c, "corruption must be rolled back");
        assert!(!guard.report().is_quarantined("CorruptSemantics"));
    }

    #[test]
    fn hard_gate_budget_is_typed_error() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let dag = Dag::from_circuit(&c);
        let guard = PassGuard::new(TranspileBudget::unlimited().with_max_gates(2));
        assert!(matches!(
            guard.check_gates(&dag),
            Err(RpoError::BudgetExceeded {
                kind: BudgetKind::MaxGates
            })
        ));
        let guard = PassGuard::new(TranspileBudget::unlimited().with_max_qubits(1));
        assert!(matches!(
            guard.check_qubits(dag.num_qubits()),
            Err(RpoError::BudgetExceeded {
                kind: BudgetKind::MaxQubits
            })
        ));
    }
}
