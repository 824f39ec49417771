//! The DAG-native pass manager: shared-IR passes and the change-driven
//! fixed-point driver.
//!
//! Every pass is written once, against the shared [`Dag`] IR; running one
//! pass on its own over a circuit goes through the blanket
//! [`crate::Pass`] impl. Two pieces make up the manager:
//!
//! * [`DagPass`] — a pass mutates the shared [`Dag`] in place (via
//!   [`qc_circuit::DagEdit`] batches) and returns a [`ChangeReport`]
//!   saying how many nodes it rewrote. Each pass computes the analyses it
//!   reads (block membership, commutation families, the per-wire state
//!   automata in `rpo-core`) from the DAG in front of it; its
//!   [`PropertySet`] carries only the running budget.
//! * [`FixedPointLoop`] — the paper's Fig. 8 line 9 loop, driven by change
//!   reports instead of unconditional re-execution. A pass is *skipped*
//!   when it is clean: its last run made no rewrites and no pass has
//!   rewritten the DAG since, so (passes being deterministic) running it
//!   again would change nothing. The loop exits as soon as an iteration
//!   rewrites nothing. The classic gate-count termination rule is kept as
//!   well, so the loop visits exactly the same rewriting pass executions
//!   as the unconditional loop of the test-only `reference` module — the
//!   equivalence tests check that the output is bit-identical, just
//!   without the wasted clean re-runs.
//!
//! Per-pass execution statistics ([`PassStats`]: runs, clean skips,
//! rewrites, relinked nodes, wall time) are collected by the driver and
//! surfaced through [`crate::preset::run_pipeline`] for the CI timing
//! artifact.

use crate::guard::{BudgetSnapshot, GuardedRun, PassGuard};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, DagEdit, Instruction};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A transformation of the shared DAG IR — the unit the DAG-native
/// pipelines are composed from.
pub trait DagPass {
    /// Short pass name for logging, statistics and diagnostics.
    fn name(&self) -> &'static str;

    /// Mutates the DAG in place, reporting what changed.
    ///
    /// # Errors
    ///
    /// Returns a [`TranspileError`] when the DAG cannot be processed
    /// (unsupported gate, resource mismatch).
    fn run_on_dag(
        &self,
        dag: &mut Dag,
        props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError>;

    /// Whether the pass preserves the circuit's unitary up to global
    /// phase. The guard's post-pass unitary spot check only applies to
    /// passes answering `true`; passes performing *relaxed* rewrites
    /// (QBO/QPO change the unitary while preserving the observable
    /// behavior from the prepared initial state) must override to `false`.
    fn preserves_unitary(&self) -> bool {
        true
    }
}

/// What a pipeline hands each pass besides the DAG: the running budget's
/// deadline, which [`PassGuard::run_pass`] installs before every guarded
/// pass and budget-aware passes read through [`PropertySet::budget`].
///
/// It holds no analyses. In the fixed point a pass re-runs only after some
/// pass rewrote the DAG, so an analysis kept from its last run would be
/// stale anyway; each pass computes what it reads from the DAG in front of
/// it.
#[derive(Clone, Copy, Debug, Default)]
pub struct PropertySet {
    budget: BudgetSnapshot,
}

impl PropertySet {
    /// A property set with no deadline.
    pub fn new() -> Self {
        PropertySet::default()
    }

    /// The deadline budget-aware passes poll inside their inner loops:
    /// unlimited unless a [`PassGuard`] installed its budget.
    pub fn budget(&self) -> BudgetSnapshot {
        self.budget
    }

    /// Installs the running budget's deadline.
    pub(crate) fn set_budget(&mut self, budget: BudgetSnapshot) {
        self.budget = budget;
    }
}

/// Per-pass execution statistics collected by the drivers.
#[derive(Clone, Debug)]
pub struct PassStats {
    /// Pass name.
    pub name: &'static str,
    /// Times the pass actually executed.
    pub runs: usize,
    /// Times the change-tracking driver skipped the pass as clean.
    pub skipped: usize,
    /// Always 0: the fixed point skips a pass only when it is clean. Kept
    /// because `perfbench` still reads the field.
    pub skipped_interest: usize,
    /// Total node rewrites across all runs.
    pub rewrites: usize,
    /// Total nodes relinked by the pass's splices (the O(edit) work
    /// measure; see [`ChangeReport::relink_nodes`]).
    pub relink_nodes: usize,
    /// Wall time spent inside the pass.
    pub wall: Duration,
    /// Times the guard skipped the pass because an earlier failure
    /// quarantined it (see [`crate::guard::PassGuard`]).
    pub quarantined: usize,
    /// Times the guard skipped the pass because the transpile budget's
    /// deadline had passed.
    pub budget_skips: usize,
    /// Times the guard skipped the pass because the caller pre-disabled
    /// it ([`crate::guard::PassSet`] on the options — serve-level retry
    /// and circuit breakers).
    pub predisabled: usize,
}

impl PassStats {
    /// Fresh zeroed statistics for a pass name.
    pub fn new_named(name: &'static str) -> Self {
        PassStats::new(name)
    }

    fn new(name: &'static str) -> Self {
        PassStats {
            name,
            runs: 0,
            skipped: 0,
            skipped_interest: 0,
            rewrites: 0,
            relink_nodes: 0,
            wall: Duration::ZERO,
            quarantined: 0,
            budget_skips: 0,
            predisabled: 0,
        }
    }
}

/// Runs a pass once, timing it into `stats` and merging its report.
pub fn run_timed(
    pass: &dyn DagPass,
    dag: &mut Dag,
    props: &mut PropertySet,
    stats: &mut PassStats,
) -> Result<ChangeReport, TranspileError> {
    let t0 = Instant::now();
    let report = pass.run_on_dag(dag, props)?;
    stats.wall += t0.elapsed();
    stats.runs += 1;
    stats.rewrites += report.rewrites;
    stats.relink_nodes += report.relink_nodes;
    Ok(report)
}

/// One program-order walk of a per-qubit state automaton over the DAG, as
/// one edit: the planner of QBO, QPO (crate `rpo-core`) and the Hoare
/// baseline (crate `qc-hoare`). Each pass brings its own `state`, `rule`
/// and `transition`.
///
/// At each node `rule` may offer a replacement for the gate, given the
/// state in front of it. A gate no rule fires on is kept, and `transition`
/// steps the state over it. A replacement's gates are offered to `rule` in
/// turn, before the next node, so rewrites chain (a CNOT whose control is
/// |1⟩ becomes an X on its target, which an eigenstate rule may then
/// remove). One node's chain may take at most `budget` steps, a step being
/// one gate offered to `rule`. The edit replaces every node a rule fired
/// on by the kept gates of its chain (possibly none).
///
/// # Errors
///
/// [`TranspileError::Internal`] naming `pass` when a chain runs out of
/// budget (a rule set that does not terminate: a bug).
pub fn rewrite_forward<S>(
    dag: &Dag,
    pass: &str,
    mut state: S,
    budget: usize,
    mut rule: impl FnMut(&Instruction, &S) -> Option<Vec<Instruction>>,
    mut transition: impl FnMut(&mut S, &Instruction),
) -> Result<DagEdit, TranspileError> {
    let mut edit = DagEdit::new();
    let mut queue: VecDeque<Instruction> = VecDeque::new();
    for (id, inst) in dag.iter() {
        // Most nodes are kept as they are: only a node whose rule fires is
        // copied, and its chain runs through the queue.
        let Some(first) = rule(inst, &state) else {
            transition(&mut state, inst);
            continue;
        };
        queue.extend(first);
        // The first firing spent one step of the chain's budget.
        let mut steps = budget.saturating_sub(1);
        let mut kept = Vec::new();
        while let Some(cur) = queue.pop_front() {
            if steps == 0 {
                return Err(TranspileError::Internal(format!(
                    "{pass} rewrite did not terminate"
                )));
            }
            steps -= 1;
            match rule(&cur, &state) {
                Some(replacement) => {
                    for r in replacement.into_iter().rev() {
                        queue.push_front(r);
                    }
                }
                None => {
                    transition(&mut state, &cur);
                    kept.push(cur);
                }
            }
        }
        edit.replace(id, kept);
    }
    Ok(edit)
}

/// The change-driven fixed-point driver for a fixed pass sequence (the
/// paper's Fig. 8 line 9 loop).
///
/// Every pass starts dirty. Each iteration runs the dirty passes in order;
/// a pass's report (when it rewrote anything) re-dirties *every* pass —
/// including itself — because any rewrite may expose new opportunities
/// anywhere downstream. A pass is skipped when it is clean: its previous
/// run made no rewrites and nothing has rewritten the DAG since.
///
/// Termination mirrors the unconditional reference loop exactly: stop after
/// `max_iters` iterations, when an iteration performs no rewrites, or when
/// an iteration fails to improve the CNOT count or total gate count.
pub struct FixedPointLoop {
    passes: Vec<Box<dyn DagPass>>,
    /// Per pass: whether some pass rewrote the DAG since its last run.
    dirty: Vec<bool>,
    /// Per-pass statistics, index-aligned with the pass sequence.
    pub stats: Vec<PassStats>,
    /// Passes executed per iteration, appended as the loop runs (the
    /// change tracking's observable: passes still clean since the last
    /// rewrite are not executed).
    pub executed_per_iteration: Vec<usize>,
}

impl FixedPointLoop {
    /// A driver over the given pass sequence, all passes initially dirty.
    /// The qubit count is unused; the parameter stays because `perfbench`
    /// still passes it.
    pub fn new(passes: Vec<Box<dyn DagPass>>, _num_qubits: usize) -> Self {
        let dirty = vec![true; passes.len()];
        let stats = passes.iter().map(|p| PassStats::new(p.name())).collect();
        FixedPointLoop {
            passes,
            dirty,
            stats,
            executed_per_iteration: Vec::new(),
        }
    }

    /// Runs the loop to its fixed point (or `max_iters`).
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn run(
        &mut self,
        dag: &mut Dag,
        props: &mut PropertySet,
        max_iters: usize,
    ) -> Result<(), TranspileError> {
        self.drive(dag, props, max_iters, None)
    }

    /// Runs the loop to its fixed point under a [`PassGuard`]: every pass
    /// executes with panic containment, checkpoint/rollback and
    /// quarantine; the loop stops early (keeping the best circuit so far)
    /// when the budget's deadline passes, and caps its iterations at the
    /// budget's `max_fixpoint_iters`.
    ///
    /// With an unlimited budget and no failing passes this visits exactly
    /// the same pass executions as [`FixedPointLoop::run`].
    ///
    /// # Errors
    ///
    /// Only hard budget violations ([`qc_circuit::RpoError::BudgetExceeded`])
    /// — pass failures are contained and recorded on the guard's
    /// [`crate::guard::DegradationReport`].
    pub fn run_guarded(
        &mut self,
        dag: &mut Dag,
        props: &mut PropertySet,
        max_iters: usize,
        guard: &mut PassGuard,
    ) -> Result<(), TranspileError> {
        self.drive(dag, props, max_iters, Some(guard))
    }

    /// The one loop body behind [`FixedPointLoop::run`] (no guard: pass
    /// failures propagate) and [`FixedPointLoop::run_guarded`].
    fn drive(
        &mut self,
        dag: &mut Dag,
        props: &mut PropertySet,
        max_iters: usize,
        mut guard: Option<&mut PassGuard>,
    ) -> Result<(), TranspileError> {
        let capped = guard
            .as_ref()
            .and_then(|g| g.budget().max_fixpoint_iters)
            .map_or(max_iters, |m| m.min(max_iters));
        for _ in 0..capped {
            if let Some(g) = guard.as_deref_mut().filter(|g| g.deadline_exceeded()) {
                g.note_deadline("fixed-point loop");
                return Ok(());
            }
            let before = dag.gate_counts();
            let mut executed = 0usize;
            let mut any_rewrites = false;
            for i in 0..self.passes.len() {
                if !self.dirty[i] {
                    self.stats[i].skipped += 1;
                    continue;
                }
                self.dirty[i] = false;
                let pass = self.passes[i].as_ref();
                let stats = &mut self.stats[i];
                let report = match guard.as_deref_mut() {
                    None => run_timed(pass, dag, props, stats)?,
                    Some(g) => match g.run_pass(pass.name(), pass, dag, props, stats, true)? {
                        GuardedRun::Ran(report) => report,
                        GuardedRun::Skipped => continue,
                    },
                };
                executed += 1;
                if report.changed() {
                    any_rewrites = true;
                    self.dirty.fill(true);
                }
            }
            self.executed_per_iteration.push(executed);
            if !any_rewrites {
                return Ok(());
            }
            let after = dag.gate_counts();
            if after.cx >= before.cx && after.total >= before.total {
                return Ok(());
            }
        }
        if let Some(g) = guard.filter(|_| capped < max_iters) {
            // The budget's iteration ceiling stopped the loop before it
            // reached the fixed point the uncapped loop would have.
            g.note_max_iterations("fixed-point loop");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::{Circuit, DagEdit, Gate};

    /// A pass that removes one `x` gate per run, if any remains.
    struct DropOneX;
    impl DagPass for DropOneX {
        fn name(&self) -> &'static str {
            "DropOneX"
        }
        fn run_on_dag(
            &self,
            dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, TranspileError> {
            let target = dag
                .iter()
                .find(|(_, i)| matches!(i.gate, Gate::X))
                .map(|(id, _)| id);
            let mut edit = DagEdit::new();
            if let Some(t) = target {
                edit.remove(t);
            }
            Ok(dag.apply(edit))
        }
    }

    /// A pass that never changes anything.
    struct Inert;
    impl DagPass for Inert {
        fn name(&self) -> &'static str {
            "Inert"
        }
        fn run_on_dag(
            &self,
            _dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, TranspileError> {
            Ok(ChangeReport::none())
        }
    }

    #[test]
    fn clean_second_iteration_runs_no_passes() {
        // An already-optimized stream: every pass reports no rewrites in
        // iteration 1, so iteration 2 executes nothing.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        let mut fp = FixedPointLoop::new(vec![Box::new(Inert), Box::new(Inert)], 2);
        fp.run(&mut dag, &mut props, 10).unwrap();
        assert_eq!(fp.executed_per_iteration, vec![2]);
        assert_eq!(fp.stats[0].runs, 1);
        assert_eq!(fp.stats[1].runs, 1);
    }

    #[test]
    fn rewrites_redirty_all_passes_until_fixed_point() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        let mut fp = FixedPointLoop::new(vec![Box::new(DropOneX), Box::new(Inert)], 1);
        fp.run(&mut dag, &mut props, 10).unwrap();
        // Iterations: [drop x, inert], [drop x, inert], [drop nothing,
        // inert skipped]: Inert ran after the last rewrite, so it is
        // clean in the final iteration.
        assert!(dag.is_empty());
        assert_eq!(fp.executed_per_iteration, vec![2, 2, 1]);
        assert_eq!(fp.stats[0].runs, 3);
        assert_eq!(fp.stats[1].skipped, 1);
    }

    #[test]
    fn inert_pass_skipped_once_clean() {
        // After iteration 1 the Inert pass is clean; iteration 2 only runs
        // it again because DropOneX's rewrite re-dirtied it.
        let mut c = Circuit::new(1);
        c.x(0);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        let mut fp = FixedPointLoop::new(vec![Box::new(Inert), Box::new(DropOneX)], 1);
        fp.run(&mut dag, &mut props, 10).unwrap();
        // Iter 1: inert runs (dirty init), drop rewrites → both re-dirty.
        // Iter 2: inert runs, drop runs and finds no x, so the loop stops.
        assert!(dag.is_empty());
        assert_eq!(fp.stats[0].runs, 2);
        assert_eq!(fp.stats[1].runs, 2);
    }
}
