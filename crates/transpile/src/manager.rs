//! The DAG-native pass manager: shared-IR passes and the change-driven,
//! interest-filtered fixed-point driver.
//!
//! Every pass is written once, against the shared [`Dag`] IR; running one
//! pass on its own over a circuit goes through the blanket
//! [`crate::Pass`] impl. Two pieces make up the manager:
//!
//! * [`DagPass`] — a pass mutates the shared [`Dag`] in place (via
//!   [`qc_circuit::DagEdit`] batches) and returns a [`ChangeReport`]
//!   saying how many nodes it rewrote and on which wires. A pass may also
//!   declare a [`PassInterest`]: the gate classes it rewrites, so the
//!   driver can prove a re-run pointless without executing it. Each pass
//!   computes the analyses it reads (block membership, commutation
//!   classes, the per-wire state automata in `rpo-core`) from the DAG in
//!   front of it; its [`PropertySet`] carries only the running budget.
//! * [`FixedPointLoop`] — the paper's Fig. 8 line 9 loop, driven by change
//!   reports instead of unconditional re-execution. A pass is *skipped*
//!   when its dirty wire set is empty (its last run made no rewrites and
//!   nothing touched the DAG since), and — new with interest filtering —
//!   when every dirty wire fails the pass's [`PassInterest`] (everything
//!   that changed lives on wires that carry no gate class the pass acts
//!   on, so the pass provably has nothing to do). The loop exits as soon
//!   as an iteration executes nothing. The classic gate-count termination
//!   rule is kept as well, so the loop visits exactly the same rewriting
//!   pass executions as the unconditional loop of the test-only
//!   `reference` module — the equivalence tests check that the output is
//!   bit-identical, just without the wasted clean re-runs.
//!
//! Per-pass execution statistics ([`PassStats`]: runs, change-tracking
//! skips, interest skips, rewrites, relinked nodes, wall time) are
//! collected by the driver and surfaced through
//! [`crate::preset::run_pipeline`] for the CI timing artifact.

use crate::guard::{BudgetSnapshot, GuardedRun, PassGuard};
use crate::TranspileError;
use qc_circuit::{ChangeReport, Dag, WireSet};
use std::time::{Duration, Instant};

/// A pass's declared rewrite interest: which wires could possibly give it
/// work, expressed over the DAG's per-wire gate-class census
/// ([`qc_circuit::gate_class`], [`Dag::wire_class_mask`]).
///
/// # Contract
///
/// The declaration must be **sound**: whenever the pass would rewrite
/// anything, at least one wire it rewrites (or whose content enabled the
/// rewrite) must satisfy the predicate. Over-approximating (declaring more
/// classes, or [`PassInterest::all_wires`]) costs only wasted re-runs;
/// under-approximating changes pipeline output. Passes whose rewrites
/// depend on state that *flows along* wires (QBO/QPO: a gate far upstream
/// changes the reachable state at the rewrite site, and the swap family
/// carries state across wires) must over-approximate with
/// [`PassInterest::all_wires`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassInterest {
    /// `None` = every wire is interesting regardless of content;
    /// `Some(mask)` = a wire is interesting iff its class census
    /// intersects `mask`.
    classes: Option<u16>,
}

impl PassInterest {
    /// Interest in every wire — the sound default for passes whose
    /// rewrites cannot be localized by gate content.
    pub fn all_wires() -> Self {
        PassInterest { classes: None }
    }

    /// Interest in wires whose node census intersects `mask`
    /// ([`qc_circuit::gate_class`] bits).
    pub fn gate_classes(mask: u16) -> Self {
        PassInterest {
            classes: Some(mask),
        }
    }

    /// Whether any wire of `dirty` satisfies the predicate.
    pub fn any_interesting(&self, dag: &Dag, dirty: &WireSet) -> bool {
        match self.classes {
            None => !dirty.is_empty(),
            Some(mask) => dirty.iter().any(|q| dag.wire_class_mask(q) & mask != 0),
        }
    }
}

/// A transformation of the shared DAG IR — the unit the DAG-native
/// pipelines are composed from.
pub trait DagPass {
    /// Short pass name for logging, statistics and diagnostics.
    fn name(&self) -> &'static str;

    /// The wires this pass could possibly rewrite, by gate-class content.
    /// Defaults to every wire (always sound); override with a
    /// [`PassInterest::gate_classes`] mask when the pass only acts on
    /// specific gate classes (see the [`PassInterest`] contract).
    fn interest(&self) -> PassInterest {
        PassInterest::all_wires()
    }

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
    /// Times the change-tracking driver skipped the pass as clean (empty
    /// dirty set).
    pub skipped: usize,
    /// Times the driver skipped the pass because no dirty wire satisfied
    /// its [`PassInterest`].
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

/// The change-driven fixed-point driver for a fixed pass sequence (the
/// paper's Fig. 8 line 9 loop).
///
/// Every pass starts dirty. Each iteration runs the dirty passes in order;
/// a pass's report (when it rewrote anything) re-dirties *every* pass —
/// including itself — because any rewrite may expose new opportunities
/// anywhere downstream. A pass is skipped when its dirty set is empty (its
/// previous run made no rewrites and nothing has touched the DAG since),
/// or when no dirty wire satisfies its [`PassInterest`] (everything that
/// changed lives on wires carrying no gate class the pass rewrites, so —
/// passes being deterministic — running it would change nothing).
///
/// Termination mirrors the unconditional reference loop exactly: stop after
/// `max_iters` iterations, when an iteration performs no rewrites, or when
/// an iteration fails to improve the CNOT count or total gate count.
pub struct FixedPointLoop {
    passes: Vec<Box<dyn DagPass>>,
    interests: Vec<PassInterest>,
    dirty: Vec<WireSet>,
    /// Per-pass statistics, index-aligned with the pass sequence.
    pub stats: Vec<PassStats>,
    /// Passes executed per iteration, appended as the loop runs (the
    /// change-report plumbing's observable: a clean second iteration
    /// records `0`).
    pub executed_per_iteration: Vec<usize>,
}

impl FixedPointLoop {
    /// A driver over the given pass sequence, all passes initially dirty.
    pub fn new(passes: Vec<Box<dyn DagPass>>, num_qubits: usize) -> Self {
        let dirty = passes.iter().map(|_| WireSet::full(num_qubits)).collect();
        let stats = passes.iter().map(|p| PassStats::new(p.name())).collect();
        let interests = passes.iter().map(|p| p.interest()).collect();
        FixedPointLoop {
            passes,
            interests,
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
                if self.dirty[i].is_empty() {
                    self.stats[i].skipped += 1;
                    continue;
                }
                if !self.interests[i].any_interesting(dag, &self.dirty[i]) {
                    // Every dirty wire lacks the pass's gate classes: the
                    // pass provably has nothing to rewrite. Treat it as
                    // clean (a later relevant change re-dirties it).
                    self.stats[i].skipped_interest += 1;
                    self.dirty[i].clear();
                    continue;
                }
                self.dirty[i].clear();
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
                    for d in self.dirty.iter_mut() {
                        d.union(&report.touched);
                    }
                }
            }
            self.executed_per_iteration.push(executed);
            if executed == 0 || !any_rewrites {
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
    use qc_circuit::{gate_class, Circuit, DagEdit, Gate};

    /// A pass that removes one `x` gate per run, if any remains.
    struct DropOneX;
    impl DagPass for DropOneX {
        fn name(&self) -> &'static str {
            "DropOneX"
        }
        fn interest(&self) -> PassInterest {
            PassInterest::gate_classes(gate_class::ONE_Q_X)
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
            dag: &mut Dag,
            _props: &mut PropertySet,
        ) -> Result<ChangeReport, TranspileError> {
            Ok(ChangeReport::none(dag.num_qubits()))
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
        // Iterations: [drop x, inert], [drop x, inert], [both skipped].
        assert!(dag.is_empty());
        assert!(fp.stats[0].runs >= 2);
        // Once the last x is gone the wire loses its ONE_Q_X census entry,
        // so the final iteration proves the re-dirtied DropOneX pointless
        // and executes nothing at all.
        assert_eq!(*fp.executed_per_iteration.last().unwrap(), 0);
        assert!(fp.stats[0].skipped_interest >= 1);
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
        // Iter 2: inert runs, drop runs... but once the x is gone the wire
        // loses the ONE_Q_X class and interest filtering skips DropOneX.
        assert!(dag.is_empty());
        assert!(fp.stats[1].runs + fp.stats[1].skipped_interest >= 2);
    }

    #[test]
    fn interest_filter_skips_pass_without_relevant_wires() {
        // The stream carries no x gates at all: DropOneX is interest-
        // filtered from the very first iteration (its dirty set is full
        // but no wire carries ONE_Q_X content).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        let mut fp = FixedPointLoop::new(vec![Box::new(DropOneX)], 2);
        fp.run(&mut dag, &mut props, 10).unwrap();
        assert_eq!(fp.stats[0].runs, 0);
        assert_eq!(fp.stats[0].skipped_interest, 1);
        assert_eq!(dag.len(), 3);
    }

    #[test]
    fn interest_filter_fires_once_content_appears() {
        // x gates present: the pass runs (and keeps running) until the
        // wire's ONE_Q_X census drains, then interest filters it.
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let mut dag = Dag::from_circuit(&c);
        let mut props = PropertySet::new();
        let mut fp = FixedPointLoop::new(vec![Box::new(DropOneX)], 1);
        fp.run(&mut dag, &mut props, 10).unwrap();
        assert!(dag.is_empty());
        assert!(fp.stats[0].runs >= 2);
        assert!(fp.stats[0].skipped_interest >= 1);
    }
}
