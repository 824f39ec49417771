//! Gate fusion: collapsing 1-qubit runs and consolidating neighborhoods of
//! up to three qubits into dense blocks before anything touches a 2ⁿ-sized
//! buffer.
//!
//! At n ≳ 8 every kernel pass over a state vector or unitary panel is
//! memory-bound: the cost is the sweep, not the arithmetic. The planner in
//! this module therefore rewrites a gate stream to minimize the number of
//! sweeps:
//!
//! * **1q runs collapse.** Consecutive single-qubit gates on the same qubit
//!   — no matter what lies between them on *other* qubits — accumulate into
//!   one 2×2 product ([`qc_math::mul_2x2`]), applied as a single dense-1q
//!   pass.
//! * **1q gates fold into dense blocks.** A pending 1q product is absorbed
//!   into a following dense block's matrix (right-multiplied, it acts
//!   first) unless it can do better: products that *commute through* a
//!   structured gate stay pending and keep growing (diagonals through
//!   phase gates, CX/Cu controls; `αI + βX` through CX targets; anything
//!   through `Swap`, relayed to the other qubit), and runs that must flush
//!   right after a dense block on the same qubit left-fold into that
//!   block's matrix — a planner-side small product instead of a buffer
//!   sweep.
//! * **Blocks consolidate in-stream (k ≤ 3).** An emitted dense block stays
//!   *open* ([`crate::blocks::BlockTracker`]): a later gate folds into it
//!   when every shared qubit is unperturbed since the block was emitted and
//!   every added qubit is untouched since then. Same-pair 2q blocks merge
//!   into one 4×4 ([`qc_math::mul_4x4`], orientation-swapped when the pair
//!   is listed in the opposite order); overlapping 2q/1q neighborhoods on
//!   ≤ 3 distinct qubits grow into one 8×8 served by the register-blocked
//!   dense-3q kernel; and structured gates confined to an open block's
//!   qubits (a CZ inside a QV block, say) are absorbed for free instead of
//!   flushing it.
//!
//! Growth is governed by a **cost model** ([`FusionProfile`]): a merge happens
//! only when the widened dense sweep is cheaper than the sweeps it
//! replaces, so cheap structured kernels (a bare CX or CZ) keep their
//! specialized passes instead of inflating a block. On small registers the
//! dense/structured trade-off inverts; a merge producing a k-qubit dense
//! sweep therefore requires `n ≥ k + 2` (for n ≤ k+1 the planner behaves
//! exactly like the pre-consolidation planner).
//!
//! Structured gates with no stuck pending neighbors and no absorbing block
//! pass through untouched; gates on four or more qubits flush their
//! qubits' non-commuting pending products and pass through.
//!
//! Fusion is exactly unitary-preserving in exact arithmetic and agrees with
//! the unfused stream to rounding (the oracle tests in
//! `tests/kernel_oracle.rs` pin both paths against
//! [`crate::circuit_unitary_reference`]). Consumers: [`crate::circuit_unitary`]
//! streams fused ops over column panels, and `qc_sim::Statevector` applies
//! them to its amplitude vector.

use crate::blocks::{BlockTracker, Membership};
use crate::circuit::Instruction;
use crate::unitary::embed;
use qc_math::{mul_2x2, mul_4x4, KernelOp, Matrix, C64};

/// One fused instruction: a kernel op plus the (global) qubits it acts on.
#[derive(Clone, Debug)]
pub struct FusedInst<'c> {
    /// Global qubit indices, `qubits[0]` = the op's least-significant bit.
    pub qubits: Vec<usize>,
    kernel: FusedKernel<'c>,
}

/// The op payload of a [`FusedInst`]: either a pass-through of the original
/// gate's kernel (possibly borrowing its matrix) or an owned fusion product.
#[derive(Clone, Debug)]
enum FusedKernel<'c> {
    /// The original gate's kernel, untouched.
    Passthrough(KernelOp<'c>),
    /// A collapsed run of single-qubit gates (row-major 2×2).
    OneQ([C64; 4]),
    /// A two-qubit block with folded single-qubit neighbors (4×4).
    Dense(Matrix),
}

impl FusedInst<'_> {
    /// The kernel op to hand to [`qc_math::KernelEngine`]; borrows `self`
    /// for the owned dense case.
    pub fn op(&self) -> KernelOp<'_> {
        match &self.kernel {
            FusedKernel::Passthrough(op) => op.clone(),
            FusedKernel::OneQ(m) => KernelOp::OneQ(*m),
            FusedKernel::Dense(m) => KernelOp::Dense(m),
        }
    }
}

/// Embeds a 2×2 on local bit `bit` of a two-qubit block (little-endian:
/// index = b₁b₀).
fn embed_1q_in_4x4(m: &[C64; 4], bit: usize) -> Matrix {
    let mut out = Matrix::zeros(4, 4);
    for high in 0..2 {
        for (r, c, v) in [(0, 0, m[0]), (0, 1, m[1]), (1, 0, m[2]), (1, 1, m[3])] {
            let (row, col) = if bit == 0 {
                ((high << 1) | r, (high << 1) | c)
            } else {
                ((r << 1) | high, (c << 1) | high)
            };
            out[(row, col)] = v;
        }
    }
    out
}

/// Embeds a 2×2 on local bit `bit` of a k-qubit dense block.
fn embed_1q_in_dense(m: &[C64; 4], bit: usize, k: usize) -> Matrix {
    if k == 2 {
        return embed_1q_in_4x4(m, bit);
    }
    let m2 = Matrix::from_rows(&[vec![m[0], m[1]], vec![m[2], m[3]]]);
    embed(&m2, &[bit], k)
}

/// Reindexes a 4×4 so the roles of local bits 0 and 1 swap — the
/// orientation adjustment for merging a same-pair gate whose qubit order is
/// the reverse of its block's.
fn swap_2q_orientation(m: &Matrix) -> Matrix {
    let sw = |x: usize| ((x & 1) << 1) | (x >> 1);
    Matrix::from_fn(4, 4, |r, c| m[(sw(r), sw(c))])
}

/// The planner's sweep cost model, in units of one multiply-add per
/// touched amplitude.
///
/// Merges that only trade memory passes for arithmetic (growing two
/// overlapping 4×4 blocks into one 8×8 keeps the multiply-adds equal) pay
/// off exactly when a pass is expensive relative to a multiply-add — which
/// depends on where the buffer lives, i.e. on the *consumer*:
///
/// * [`FusionProfile::panels`] — `circuit_unitary` streams the plan over
///   L2-sized column panels; passes run at cache bandwidth and are cheap,
///   so only arithmetic-reducing merges (same-pair folds, in-block
///   absorption, 1q left-folds) pay.
/// * [`FusionProfile::statevector`] — one 2ⁿ-amplitude vector, which every
///   pass sweeps end to end, so saving sweeps is worth widening blocks to
///   k = 3.
///
/// Both profiles are constants, so a plan, and with it every simulated
/// amplitude bit, is a pure function of the circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FusionProfile {
    /// Cost of streaming one full pass over the buffer, per amplitude,
    /// relative to one multiply-add.
    pub pass_cost: f64,
}

/// Multiply-add efficiency penalty of the 8-way dense mix relative to the
/// 2-/4-way kernels (64 coefficients exceed the register budget).
const DENSE3_PENALTY: f64 = 1.4;

impl FusionProfile {
    /// Cost profile for cache-blocked panel streaming (`circuit_unitary`):
    /// panels are sized to stay L2-resident, so a pass costs one
    /// multiply-add and k = 3 growth never pays.
    pub fn panels() -> Self {
        FusionProfile { pass_cost: 1.0 }
    }

    /// Cost profile for applying the plan to one 2ⁿ-amplitude vector
    /// (`fuse_instructions`): a pass costs six multiply-adds at every
    /// register width, enough for a dressed Toffoli or a triangle of SU(4)
    /// blocks to become one 8×8 sweep (the README's fusion section has the
    /// kernel-bench measurements behind the value).
    pub fn statevector() -> Self {
        FusionProfile { pass_cost: 6.0 }
    }

    /// The cost of a dense k-qubit sweep: one pass plus 2ᵏ multiply-adds
    /// per amplitude (weighted for the 8-way mix's register pressure).
    fn dense_sweep_cost(&self, k: usize) -> f64 {
        let weight = if k >= 3 { DENSE3_PENALTY } else { 1.0 };
        self.pass_cost + weight * (1usize << k) as f64
    }

    /// Estimated cost of one kernel sweep for `op` on `k` qubits:
    /// `touched-buffer fraction × (pass cost + multiply-adds per touched
    /// amplitude)`.
    fn sweep_cost(&self, op: &KernelOp<'_>, k: usize) -> f64 {
        let pass = self.pass_cost;
        match op {
            KernelOp::OneQ(_) => pass + 2.0,
            KernelOp::OneQDiag(_) => pass + 1.0,
            KernelOp::ControlledOneQ(_) => 0.5 * (pass + 2.0),
            KernelOp::PhaseAllOnes(_) => (pass + 1.0) / (1usize << k) as f64,
            KernelOp::ControlledX => 2.0 * (pass + 1.0) / (1usize << k) as f64,
            KernelOp::Swap => 0.5 * (pass + 1.0),
            KernelOp::Permutation(_) => pass + 1.0,
            KernelOp::Dense(m) => pass + m.rows() as f64,
        }
    }

    /// The flush cost of a stuck pending 1q product.
    fn flush_cost(&self, diagonal: bool) -> f64 {
        self.pass_cost + if diagonal { 1.0 } else { 2.0 }
    }
}

/// The exact 2×2 identity (what an even run of self-inverse gates collapses
/// to); flushing it would waste a full sweep.
fn is_exact_identity(m: &[C64; 4]) -> bool {
    m[0] == C64::ONE && m[1] == C64::ZERO && m[2] == C64::ZERO && m[3] == C64::ONE
}

/// Fuses a unitary gate stream for `num_qubits` qubits with the
/// state-vector cost profile (the plan's natural buffer is one
/// 2ⁿ-amplitude vector). Directives (barriers, annotations) are dropped —
/// they carry no unitary action.
///
/// # Panics
///
/// Panics on non-unitary instructions (reset/measure); segment streams at
/// such boundaries before planning (see `qc_sim::Statevector`).
pub fn fuse_instructions(insts: &[Instruction], num_qubits: usize) -> Vec<FusedInst<'_>> {
    fuse_instructions_with(insts, num_qubits, FusionProfile::statevector())
}

/// [`fuse_instructions`] with an explicit cost profile — consumers that
/// stream the plan over cache-blocked panels ([`crate::circuit_unitary`])
/// pass [`FusionProfile::panels`].
pub fn fuse_instructions_with(
    insts: &[Instruction],
    num_qubits: usize,
    profile: FusionProfile,
) -> Vec<FusedInst<'_>> {
    Planner::new(num_qubits, profile).plan(insts)
}

/// One maximal run of equal shard-locality ops in a plan scheduled by
/// [`schedule_fused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleGroup {
    /// Index of the run's first op in the scheduled plan.
    pub start: usize,
    /// Number of consecutive ops in the run.
    pub len: usize,
    /// True when every qubit of every op in the run lies below the shard
    /// bit, so the whole run can be applied shard-by-shard without any
    /// cross-shard amplitude traffic.
    pub local: bool,
}

impl ScheduleGroup {
    /// The op index range this group covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// Reorders commuting fused ops in place to minimize cross-shard amplitude
/// traffic, and reports the resulting runs.
///
/// An op is *shard-local* when all its qubits lie below `shard_qubits`:
/// applied to a statevector cut into contiguous 2^`shard_qubits`-amplitude
/// shards, it never mixes amplitudes across a shard boundary, so a run of
/// such ops can be applied one cache-resident shard at a time — one
/// streaming pass over the vector for the whole run instead of one per op.
/// The scheduler bubbles each shard-local op leftward past immediately
/// preceding non-local ops whose qubit support is disjoint from its own
/// (disjoint-support ops act on different tensor factors and commute
/// *exactly*, not merely approximately), clustering local ops into maximal
/// runs. Ops of equal locality never reorder and overlapping supports are
/// never crossed, so the schedule is a deterministic function of the plan:
/// the same plan yields the same op order and the same groups at every
/// thread count.
///
/// Note the reorder changes floating-point summation order relative to the
/// unscheduled plan (commuting exactly in exact arithmetic, to roundoff in
/// f64) — equivalence to a reference stays within the usual oracle
/// tolerances, while bit-identity across thread counts is preserved because
/// the schedule itself is thread-count independent.
pub fn schedule_fused(plan: &mut [FusedInst<'_>], shard_qubits: usize) -> Vec<ScheduleGroup> {
    fn local(fi: &FusedInst<'_>, shard_qubits: usize) -> bool {
        fi.qubits.iter().all(|&q| q < shard_qubits)
    }
    fn disjoint(a: &FusedInst<'_>, b: &FusedInst<'_>) -> bool {
        a.qubits.iter().all(|q| !b.qubits.contains(q))
    }
    for i in 1..plan.len() {
        let mut j = i;
        while j > 0
            && local(&plan[j], shard_qubits)
            && !local(&plan[j - 1], shard_qubits)
            && disjoint(&plan[j], &plan[j - 1])
        {
            plan.swap(j - 1, j);
            j -= 1;
        }
    }
    let mut groups = Vec::new();
    let mut start = 0;
    while start < plan.len() {
        let is_local = local(&plan[start], shard_qubits);
        let mut end = start + 1;
        while end < plan.len() && local(&plan[end], shard_qubits) == is_local {
            end += 1;
        }
        groups.push(ScheduleGroup {
            start,
            len: end - start,
            local: is_local,
        });
        start = end;
    }
    groups
}

/// Streaming fusion state: per-qubit pending 1q products plus the shared
/// open-block membership tracker ([`BlockTracker`], per-wire mode) mapping
/// qubits to the most recent emitted dense block they can still fold into.
/// Block positions recorded in the tracker are indices into `out`.
struct Planner<'c> {
    n: usize,
    profile: FusionProfile,
    pending: Vec<Option<[C64; 4]>>,
    tracker: BlockTracker,
    out: Vec<FusedInst<'c>>,
}

impl<'c> Planner<'c> {
    fn new(num_qubits: usize, profile: FusionProfile) -> Self {
        Planner {
            n: num_qubits,
            profile,
            pending: vec![None; num_qubits],
            tracker: BlockTracker::new(num_qubits, 3),
            out: Vec::new(),
        }
    }

    /// Whether a merge that results in a k-qubit dense block is allowed on
    /// this register: on n ≤ k+1 qubits the dense/structured trade-off
    /// inverts (the "block" is most of the buffer), so the planner keeps
    /// its pre-consolidation behavior there.
    fn merge_arity_ok(&self, union_k: usize) -> bool {
        self.n >= union_k + 2
    }

    /// Emits qubit `q`'s pending product: left-folded into the open dense
    /// block on `q` when one exists (free — a planner-side product, no
    /// sweep), as its own dense-1q (or cheaper diagonal) pass otherwise.
    /// Exact identities (e.g. X·X) are dropped.
    fn flush(&mut self, q: usize) {
        let Some(m) = self.pending[q].take() else {
            return;
        };
        if is_exact_identity(&m) {
            return;
        }
        if let Some(block) = self.tracker.owner(q) {
            let idx = self.tracker.block_pos(block);
            let target = &mut self.out[idx];
            let k = target.qubits.len();
            let bit = target
                .qubits
                .iter()
                .position(|&w| w == q)
                .expect("owned qubit is in its block");
            let FusedKernel::Dense(mk) = &mut target.kernel else {
                unreachable!("the tracker only indexes Dense ops");
            };
            // The run happened *after* the block: left-multiply.
            *mk = embed_1q_in_dense(&m, bit, k).matmul(mk);
            return;
        }
        let kernel = if is_diagonal(&m) {
            // The diagonal kernel multiplies each half-run once (and skips
            // unit factors) — half the arithmetic of a dense 2×2 pass.
            FusedKernel::Passthrough(KernelOp::OneQDiag([m[0], m[3]]))
        } else {
            FusedKernel::OneQ(m)
        };
        let idx = self.out.len();
        self.tracker.touch(&[q], idx);
        self.out.push(FusedInst {
            qubits: vec![q],
            kernel,
        });
    }

    fn plan(mut self, insts: &'c [Instruction]) -> Vec<FusedInst<'c>> {
        for inst in insts {
            if inst.gate.is_directive() {
                continue;
            }
            if let Some(m) = inst.gate.matrix2x2() {
                let q = inst.qubits[0];
                self.pending[q] = Some(match self.pending[q] {
                    Some(prev) => mul_2x2(&m, &prev),
                    None => m,
                });
                continue;
            }
            let op = inst.gate.kernel().unwrap_or_else(|| {
                panic!("non-unitary instruction {} in fused gate stream", inst.gate)
            });
            self.plan_multi(inst, op);
        }
        for q in 0..self.pending.len() {
            self.flush(q);
        }
        self.out
    }

    /// Plans a multi-qubit gate: merge into an open dense block when the
    /// cost model approves, else open a fresh dense block (dense gates, and
    /// structured gates whose stuck pending neighbors make a dense fold
    /// cheaper), else pass through structured.
    fn plan_multi(&mut self, inst: &'c Instruction, op: KernelOp<'c>) {
        if let Membership::Join { block, new_qubits } = self.tracker.membership(&inst.qubits) {
            let cur_k = self.tracker.block_qubits(block).len();
            let union_k = cur_k + new_qubits.len();
            if self.merge_arity_ok(union_k) {
                let grow_delta =
                    self.profile.dense_sweep_cost(union_k) - self.profile.dense_sweep_cost(cur_k);
                if grow_delta < self.unmerged_cost(inst, &op) {
                    self.merge_into_block(block, &new_qubits, inst);
                    return;
                }
            }
        }
        let k = inst.qubits.len();
        if matches!(op, KernelOp::Dense(_)) && (k == 2 || k == 3) {
            self.open_dense_block(inst);
            return;
        }
        if k == 3
            && self.merge_arity_ok(3)
            && self.profile.dense_sweep_cost(3)
                < self.profile.sweep_cost(&op, 3) + self.flush_penalty(inst, &op)
        {
            // Toffoli-style gate with stuck pending neighbors: one 8×8
            // dense sweep beats the flushes plus the structured pass.
            self.open_dense_block(inst);
            return;
        }
        self.pass_structured(inst, op);
    }

    /// The sweeps a gate would cost if *not* merged into an open block: its
    /// own kernel pass plus the pending flushes it would force — unless the
    /// planner would fold gate and pendings into a fresh dense block
    /// anyway, which caps the cost at that block's sweep.
    fn unmerged_cost(&self, inst: &Instruction, op: &KernelOp<'_>) -> f64 {
        let k = inst.qubits.len();
        let penalty = self.flush_penalty(inst, op);
        let mut cost = self.profile.sweep_cost(op, k) + penalty;
        if penalty > 0.0 || matches!(op, KernelOp::Dense(_)) {
            if k == 2 {
                cost = cost.min(self.profile.dense_sweep_cost(2));
            }
            if k == 3 && self.merge_arity_ok(3) {
                cost = cost.min(self.profile.dense_sweep_cost(3));
            }
        }
        cost
    }

    /// The flush cost of the gate's stuck pending neighbors: products that
    /// can neither left-fold into an open block for free nor commute
    /// through the gate.
    fn flush_penalty(&self, inst: &Instruction, op: &KernelOp<'_>) -> f64 {
        let mut penalty = 0.0;
        for &q in &inst.qubits {
            let Some(m) = &self.pending[q] else { continue };
            if is_exact_identity(m)
                || self.tracker.owner(q).is_some()
                || (!matches!(op, KernelOp::Dense(_)) && commutes_through(op, &inst.qubits, q, m))
            {
                continue;
            }
            penalty += self.profile.flush_cost(is_diagonal(m));
        }
        penalty
    }

    /// Folds `inst` into the open dense block `block` (a
    /// [`Membership::Join`] the cost model approved): old-wire pendings
    /// left-fold first, the block matrix widens to the union if the gate
    /// brings new qubits (new-wire pendings commute with the old block and
    /// slot in under the gate), and finally the gate's matrix is
    /// left-multiplied at its bit positions — via [`mul_4x4`] with an
    /// orientation swap for same-pair merges, via [`embed`] in general. No
    /// new sweep is emitted.
    fn merge_into_block(&mut self, block: usize, new_qubits: &[usize], inst: &'c Instruction) {
        // Pendings on wires the block already owns precede the gate; they
        // left-fold into the block exactly as a flush would.
        for &q in &inst.qubits {
            if self.pending[q].is_some() && self.tracker.owner(q) == Some(block) {
                self.flush(q);
            }
        }
        let idx = self.tracker.block_pos(block);
        let cur_k = self.tracker.block_qubits(block).len();
        let union_k = cur_k + new_qubits.len();
        if !new_qubits.is_empty() {
            // Widen the block: old qubits keep their bit positions, new
            // qubits append. The old matrix embeds as identity ⊗ old.
            let old_bits: Vec<usize> = (0..cur_k).collect();
            let target = &mut self.out[idx];
            let FusedKernel::Dense(mk) = &mut target.kernel else {
                unreachable!("the tracker only indexes Dense ops");
            };
            *mk = embed(mk, &old_bits, union_k);
            for (i, &q) in new_qubits.iter().enumerate() {
                target.qubits.push(q);
                if let Some(p) = self.pending[q].take() {
                    // Accumulated before the gate, disjoint from the old
                    // block: left-multiply below the gate.
                    if !is_exact_identity(&p) {
                        *mk = embed_1q_in_dense(&p, cur_k + i, union_k).matmul(mk);
                    }
                }
            }
            self.tracker.extend(block, new_qubits);
        }
        let g = inst
            .gate
            .matrix()
            .expect("unitary gate in fused stream has a matrix");
        let positions: Vec<usize> = inst
            .qubits
            .iter()
            .map(|&q| {
                self.tracker
                    .block_qubits(block)
                    .iter()
                    .position(|&w| w == q)
                    .expect("gate qubit is in the merged block")
            })
            .collect();
        let target = &mut self.out[idx];
        let FusedKernel::Dense(mk) = &mut target.kernel else {
            unreachable!("the tracker only indexes Dense ops");
        };
        if union_k == 2 {
            let g4 = if positions == [0, 1] {
                g
            } else {
                swap_2q_orientation(&g)
            };
            *mk = mul_4x4(&g4, mk);
        } else {
            *mk = embed(&g, &positions, union_k).matmul(mk);
        }
    }

    /// Plans a structured (non-dense) gate of any arity. Pending neighbors
    /// are, in order of preference: left-folded into an open dense block
    /// (free — a planner-side product, no sweep), *commuted through* the
    /// gate when algebra allows (extending the run), relayed to the other
    /// qubit for `Swap`, or — for a 2q gate with any product still stuck —
    /// folded with the gate into one dense 4×4 (one sweep instead of a 1q
    /// pass plus the structured pass). Only stuck products on wider gates
    /// are flushed as their own pass (3q gates reach here only when the
    /// cost model rejected a dense fold).
    fn pass_structured(&mut self, inst: &'c Instruction, op: KernelOp<'c>) {
        // Free folds into open dense blocks first; a product folded there
        // no longer needs to commute with this gate.
        for &q in &inst.qubits {
            if self.pending[q].is_some() && self.tracker.owner(q).is_some() {
                self.flush(q);
            }
        }
        if matches!(op, KernelOp::Swap) {
            // P(a) · Swap ≡ Swap · P(b): pending products change qubit and
            // stay pending; the swap remains a pure copy pass.
            let (a, b) = (inst.qubits[0], inst.qubits[1]);
            self.pending.swap(a, b);
        } else {
            let keep: Vec<bool> = inst
                .qubits
                .iter()
                .map(|&q| match &self.pending[q] {
                    Some(m) => commutes_through(&op, &inst.qubits, q, m),
                    None => true,
                })
                .collect();
            if inst.qubits.len() == 2 && keep.iter().any(|k| !k) {
                // A side is stuck: absorbing it and the gate into one dense
                // 4×4 beats a 1q pass plus the structured pass.
                self.open_dense_block(inst);
                return;
            }
            for (&q, kept) in inst.qubits.iter().zip(&keep) {
                if !kept {
                    self.flush(q);
                }
            }
        }
        let idx = self.out.len();
        self.tracker.touch(&inst.qubits, idx);
        self.out.push(FusedInst {
            qubits: inst.qubits.to_vec(),
            kernel: FusedKernel::Passthrough(op),
        });
    }

    /// Opens a fresh dense block from a 2- or 3-qubit gate, folding the
    /// qubits' pending products into its matrix (right-multiplied: they act
    /// first; products on different bits commute). The block is recorded in
    /// the tracker as every qubit's left-fold/merge target.
    fn open_dense_block(&mut self, inst: &'c Instruction) {
        let k = inst.qubits.len();
        let mut mk = inst
            .gate
            .matrix()
            .expect("unitary gate in fused stream has a matrix");
        for (bit, &q) in inst.qubits.iter().enumerate() {
            if let Some(m) = self.pending[q].take() {
                if is_exact_identity(&m) {
                    continue;
                }
                let e = embed_1q_in_dense(&m, bit, k);
                mk = if k == 2 {
                    mul_4x4(&mk, &e)
                } else {
                    mk.matmul(&e)
                };
            }
        }
        let idx = self.out.len();
        self.tracker.open(&inst.qubits, idx);
        self.out.push(FusedInst {
            qubits: inst.qubits.to_vec(),
            kernel: FusedKernel::Dense(mk),
        });
    }
}

/// Is `m` diagonal (in exact arithmetic — diagonal gates produce exact
/// structural zeros)?
fn is_diagonal(m: &[C64; 4]) -> bool {
    m[1] == C64::ZERO && m[2] == C64::ZERO
}

/// Whether the 1q product `m` on qubit `q` commutes through the structured
/// op, letting it stay pending (and keep growing) instead of flushing:
///
/// * all-ones phases (`Cz`/`Cp`/`Mcz`) commute with any diagonal;
/// * a controlled-X commutes with diagonals on its controls and with
///   `αI + βX` matrices on its target;
/// * a controlled-1q (`Cu`) commutes with diagonals on its control.
fn commutes_through(op: &KernelOp<'_>, qubits: &[usize], q: usize, m: &[C64; 4]) -> bool {
    match op {
        KernelOp::PhaseAllOnes(_) => is_diagonal(m),
        KernelOp::ControlledX => {
            let target = *qubits.last().expect("controlled-X has qubits");
            if q == target {
                m[0] == m[3] && m[1] == m[2]
            } else {
                is_diagonal(m)
            }
        }
        KernelOp::ControlledOneQ(_) => q == qubits[0] && is_diagonal(m),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::unitary::{circuit_unitary_reference, embed};

    /// The dense local matrix of any kernel op (k = qubit count) — used to
    /// check fused plans without going through the engine.
    fn op_matrix(op: &KernelOp<'_>, k: usize) -> Matrix {
        let side = 1usize << k;
        match op {
            KernelOp::OneQ(m) => Matrix::from_rows(&[vec![m[0], m[1]], vec![m[2], m[3]]]),
            KernelOp::OneQDiag(d) => Matrix::diag(d),
            KernelOp::ControlledOneQ(u) => {
                let mut c = Matrix::identity(4);
                c[(1, 1)] = u[0];
                c[(1, 3)] = u[1];
                c[(3, 1)] = u[2];
                c[(3, 3)] = u[3];
                c
            }
            KernelOp::PhaseAllOnes(p) => {
                let mut m = Matrix::identity(side);
                m[(side - 1, side - 1)] = *p;
                m
            }
            KernelOp::ControlledX => {
                // Target = last qubit = local bit k-1; controls are the rest.
                let ctrl = (side >> 1) - 1;
                Matrix::from_fn(side, side, |r, c| {
                    let flip = if c & ctrl == ctrl { c ^ (side >> 1) } else { c };
                    if r == flip {
                        C64::ONE
                    } else {
                        C64::ZERO
                    }
                })
            }
            KernelOp::Swap => Matrix::from_fn(4, 4, |r, c| {
                let sw = ((c & 1) << 1) | (c >> 1);
                if r == sw {
                    C64::ONE
                } else {
                    C64::ZERO
                }
            }),
            KernelOp::Permutation(perm) => {
                let mut m = Matrix::zeros(side, side);
                for (l, &p) in perm.iter().enumerate() {
                    m[(p, l)] = C64::ONE;
                }
                m
            }
            KernelOp::Dense(d) => (*d).clone(),
        }
    }

    /// Applies a fused plan densely via embedding — an engine-independent
    /// check that planning alone preserves the unitary.
    fn plan_unitary(plan: &[FusedInst<'_>], n: usize) -> Matrix {
        let mut u = Matrix::identity(1 << n);
        for fi in plan {
            let m = op_matrix(&fi.op(), fi.qubits.len());
            u = embed(&m, &fi.qubits, n).matmul(&u);
        }
        u
    }

    #[test]
    fn one_qubit_run_collapses_to_single_op() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).t(0).h(0);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 1);
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    #[test]
    fn interleaved_runs_collapse_per_qubit() {
        // Gates alternate qubits; each qubit's run still collapses.
        let mut c = Circuit::new(2);
        c.h(0).h(1).t(0).s(1).h(0).h(1);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 2);
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    #[test]
    fn one_q_gates_fold_into_two_qubit_block() {
        let mut c = Circuit::new(2);
        c.h(0).t(1).cx(0, 1);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 1, "h, t and cx must fuse into one 4×4");
        assert!(matches!(plan[0].kernel, FusedKernel::Dense(_)));
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    #[test]
    fn bare_structured_two_qubit_gates_pass_through() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cz(1, 2).swap(0, 2);
        let plan = fuse_instructions(c.instructions(), 3);
        assert_eq!(plan.len(), 3);
        assert!(plan
            .iter()
            .all(|fi| matches!(fi.kernel, FusedKernel::Passthrough(_))));
    }

    #[test]
    fn exactly_self_inverse_run_vanishes() {
        // X·X and Z·Z are exact identities in f64 (0/±1 entries); a flushed
        // exact identity would waste a full sweep, so it is dropped. H·H is
        // *not* exact (1/√2 rounds) and must still be emitted.
        let mut c = Circuit::new(1);
        c.x(0).x(0).z(0).z(0);
        assert!(fuse_instructions(c.instructions(), 1).is_empty());
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert_eq!(fuse_instructions(c.instructions(), 1).len(), 1);
    }

    #[test]
    fn three_qubit_gate_flushes_non_commuting_neighbors() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).ccx(0, 1, 2);
        let plan = fuse_instructions(c.instructions(), 3);
        // Two flushed Hadamards (H does not commute with a control) then
        // the passthrough Toffoli.
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan[2].kernel, FusedKernel::Passthrough(_)));
        assert_eq!(plan[2].qubits, vec![0, 1, 2]);
    }

    #[test]
    fn diagonal_products_commute_through_controls() {
        // T on a CX control and S·T on a CZ qubit stay pending through the
        // 2q gates and keep accumulating; only one diagonal pass remains.
        let mut c = Circuit::new(2);
        c.t(0).cx(0, 1).s(0).cz(0, 1).t(0);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 3, "cx, cz and one merged diagonal run");
        assert!(matches!(plan[2].op(), KernelOp::OneQDiag(_)));
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    #[test]
    fn swap_relays_pending_products() {
        // H(0) commutes through Swap(0,1) as H(1), merging with the later
        // H(1)·X(1) run; the swap stays a pure passthrough.
        let mut c = Circuit::new(2);
        c.h(0).swap(0, 1).x(1).h(1);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 2, "swap plus one merged 1q run");
        assert!(matches!(plan[0].op(), KernelOp::Swap));
        assert_eq!(plan[1].qubits, vec![1]);
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    #[test]
    fn trailing_runs_left_fold_into_dense_blocks() {
        // cu makes a dense block on (0,1); the later H(1)·T(1) run folds
        // back into it instead of costing its own pass.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).t(1).h(1);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 1, "everything folds into the one 4×4");
        assert!(matches!(plan[0].kernel, FusedKernel::Dense(_)));
        assert!(plan_unitary(&plan, 2).approx_eq(&circuit_unitary_reference(&c), 1e-12));
    }

    /// A dense SU(4)-like block for merge tests: the unitary of a small
    /// random 2q circuit.
    fn dense_2q(seed: u64) -> crate::gate::Gate {
        use crate::testing::random_circuit;
        crate::gate::Gate::Unitary(crate::unitary::circuit_unitary(&random_circuit(2, 6, seed)))
    }

    #[test]
    fn same_pair_dense_blocks_merge_in_either_orientation() {
        let mut c = Circuit::new(4);
        c.push(dense_2q(1), &[0, 1]);
        c.push(dense_2q(2), &[1, 0]); // reversed pair: orientation-swap path
        c.push(dense_2q(3), &[0, 1]);
        let plan = fuse_instructions(c.instructions(), 4);
        assert_eq!(plan.len(), 1, "same-pair blocks must merge into one 4×4");
        assert!(matches!(plan[0].kernel, FusedKernel::Dense(_)));
        assert!(plan_unitary(&plan, 4).approx_eq(&circuit_unitary_reference(&c), 1e-9));
    }

    #[test]
    fn structured_gates_absorb_into_open_blocks() {
        // CZ and CX confined to an open dense block's qubits fold into its
        // matrix instead of flushing it — no extra sweep.
        let mut c = Circuit::new(4);
        c.push(dense_2q(4), &[2, 1]);
        c.cz(1, 2).cx(2, 1).t(1).cx(1, 2);
        let plan = fuse_instructions(c.instructions(), 4);
        assert_eq!(plan.len(), 1, "everything lives on the block's pair");
        assert!(plan_unitary(&plan, 4).approx_eq(&circuit_unitary_reference(&c), 1e-9));
    }

    #[test]
    fn overlapping_dense_blocks_grow_to_8x8_under_streaming_profile() {
        let mut c = Circuit::new(5);
        c.push(dense_2q(5), &[0, 1]);
        c.push(dense_2q(6), &[1, 2]);
        c.push(dense_2q(7), &[0, 2]); // triangle: all three share ≤3 qubits
        let plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::statevector());
        assert_eq!(plan.len(), 1, "the triangle must consolidate to one 8×8");
        assert_eq!(plan[0].qubits.len(), 3);
        assert!(plan_unitary(&plan, 5).approx_eq(&circuit_unitary_reference(&c), 1e-9));
    }

    #[test]
    fn panel_profile_does_not_trade_passes_for_arithmetic() {
        // Under the panel profile passes are cheap: overlapping dense pairs
        // keep their 4×4 sweeps (growing to 8×8 would not reduce madds).
        let mut c = Circuit::new(5);
        c.push(dense_2q(8), &[0, 1]);
        c.push(dense_2q(9), &[1, 2]);
        let plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::panels());
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|fi| fi.qubits.len() == 2));
    }

    #[test]
    fn small_registers_keep_pre_consolidation_behavior() {
        // n = 4 ≤ k+1 for k = 3: no growth to 8×8 even under the
        // statevector profile.
        let mut c = Circuit::new(4);
        c.push(dense_2q(10), &[0, 1]);
        c.push(dense_2q(11), &[1, 2]);
        let plan = fuse_instructions_with(c.instructions(), 4, FusionProfile::statevector());
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|fi| fi.qubits.len() == 2));
        // And n = 3 ≤ k+1 for k = 2: same-pair merging is off too.
        let mut c = Circuit::new(3);
        c.push(dense_2q(12), &[0, 1]);
        c.push(dense_2q(13), &[0, 1]);
        let plan = fuse_instructions(c.instructions(), 3);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn dressed_toffoli_folds_to_dense3_under_streaming_profile() {
        // Two stuck (non-commuting) 1q neighbors make one 8×8 sweep cheaper
        // than two flushes plus the structured Toffoli pass.
        let mut c = Circuit::new(5);
        c.h(0).h(1).ccx(0, 1, 2);
        let plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::statevector());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].qubits, vec![0, 1, 2]);
        assert!(matches!(plan[0].kernel, FusedKernel::Dense(_)));
        assert!(plan_unitary(&plan, 5).approx_eq(&circuit_unitary_reference(&c), 1e-9));
        // A bare Toffoli stays structured: its kernel is far cheaper than a
        // dense 8×8.
        let mut c = Circuit::new(5);
        c.ccx(0, 1, 2);
        let plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::statevector());
        assert!(matches!(plan[0].kernel, FusedKernel::Passthrough(_)));
    }

    #[test]
    fn diagonals_still_commute_through_growing_blocks() {
        // A diagonal run on a CX control passes through and keeps growing
        // even when dense blocks are being consolidated around it.
        let mut c = Circuit::new(5);
        c.push(dense_2q(14), &[0, 1]);
        c.t(2).cx(2, 3).s(2);
        c.push(dense_2q(15), &[0, 1]);
        let plan = fuse_instructions(c.instructions(), 5);
        // One merged 4×4, the CX passthrough, one merged diagonal run.
        assert_eq!(plan.len(), 3);
        assert!(plan_unitary(&plan, 5).approx_eq(&circuit_unitary_reference(&c), 1e-9));
    }

    #[test]
    fn fused_plans_preserve_blocked_neighborhood_unitaries() {
        use crate::testing::blocked_neighborhood_circuit;
        for n in 2..=6usize {
            for seed in 0..4u64 {
                let c = blocked_neighborhood_circuit(n, 24, 5000 + seed * 17 + n as u64);
                let want = circuit_unitary_reference(&c);
                for profile in [FusionProfile::panels(), FusionProfile::statevector()] {
                    let plan = fuse_instructions_with(c.instructions(), n, profile);
                    assert!(
                        plan_unitary(&plan, n).approx_eq(&want, 1e-9),
                        "fusion changed a blocked circuit on {n} qubits, seed {seed}, {profile:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_plans_preserve_toffoli_chain_unitaries() {
        use crate::testing::toffoli_chain;
        for n in 3..=6usize {
            for seed in 0..3u64 {
                let c = toffoli_chain(n, seed);
                let want = circuit_unitary_reference(&c);
                for profile in [FusionProfile::panels(), FusionProfile::statevector()] {
                    let plan = fuse_instructions_with(c.instructions(), n, profile);
                    assert!(
                        plan_unitary(&plan, n).approx_eq(&want, 1e-9),
                        "fusion changed a Toffoli chain on {n} qubits, seed {seed}, {profile:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn directives_are_dropped_and_do_not_break_runs() {
        let mut c = Circuit::new(2);
        c.h(0).barrier().t(0).annot_zero(1).h(0);
        let plan = fuse_instructions(c.instructions(), 2);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn scheduler_clusters_disjoint_local_ops_and_preserves_unitary() {
        // Shard bit = 2: ops confined to qubits {0,1} are shard-local.
        let mut c = Circuit::new(5);
        c.push(dense_2q(20), &[2, 3]); // non-local
        c.push(dense_2q(21), &[0, 1]); // local, disjoint → bubbles left
        c.push(dense_2q(22), &[2, 4]); // non-local

        // The panel profile: the statevector profile grows k=3 blocks
        // here, which would change the plan shape this test asserts on.
        let mut plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::panels());
        assert_eq!(plan.len(), 3);
        let want = plan_unitary(&plan, 5);
        let groups = schedule_fused(&mut plan, 2);
        assert_eq!(plan[0].qubits, vec![0, 1], "local op must move to front");
        assert_eq!(
            groups,
            vec![
                ScheduleGroup {
                    start: 0,
                    len: 1,
                    local: true
                },
                ScheduleGroup {
                    start: 1,
                    len: 2,
                    local: false
                },
            ]
        );
        // Disjoint-support swaps commute exactly: the scheduled plan's
        // unitary matches the unscheduled one.
        assert!(plan_unitary(&plan, 5).approx_eq(&want, 1e-12));
    }

    #[test]
    fn scheduler_never_crosses_overlapping_supports() {
        let mut c = Circuit::new(5);
        c.push(dense_2q(23), &[1, 3]); // non-local (qubit 3 ≥ shard bit)
        c.push(dense_2q(24), &[0, 1]); // local but shares qubit 1: stays put
        let mut plan = fuse_instructions_with(c.instructions(), 5, FusionProfile::panels());
        assert_eq!(plan.len(), 2);
        let groups = schedule_fused(&mut plan, 2);
        assert_eq!(plan[0].qubits, vec![1, 3], "overlap must block the swap");
        assert!(!groups[0].local);
        assert!(groups[1].local);
    }

    #[test]
    fn scheduler_is_deterministic_and_groups_partition_the_plan() {
        let mut c = Circuit::new(6);
        c.push(dense_2q(25), &[3, 4]);
        c.push(dense_2q(26), &[0, 1]);
        c.push(dense_2q(27), &[2, 5]);
        c.push(dense_2q(28), &[0, 2]);
        let mut plan_a = fuse_instructions_with(c.instructions(), 6, FusionProfile::panels());
        let mut plan_b = fuse_instructions_with(c.instructions(), 6, FusionProfile::panels());
        let ga = schedule_fused(&mut plan_a, 3);
        let gb = schedule_fused(&mut plan_b, 3);
        assert_eq!(ga, gb, "same plan must yield the same schedule");
        let qa: Vec<_> = plan_a.iter().map(|fi| fi.qubits.clone()).collect();
        let qb: Vec<_> = plan_b.iter().map(|fi| fi.qubits.clone()).collect();
        assert_eq!(qa, qb, "same plan must yield the same op order");
        // Groups cover 0..len contiguously with alternating locality.
        let mut next = 0;
        for (i, g) in ga.iter().enumerate() {
            assert_eq!(g.start, next);
            assert!(g.len > 0);
            if i > 0 {
                assert_ne!(ga[i - 1].local, g.local, "maximal runs alternate");
            }
            next += g.len;
        }
        assert_eq!(next, plan_a.len());
    }

    /// On n ≤ 3 qubits the plan is the same whatever the pass cost: each
    /// cost-model decision in [`Planner`] sits behind `merge_arity_ok`
    /// (n ≥ k + 2, and a merged block has k ≥ 2). So on such registers
    /// `circuit_unitary` (the panel profile) and the simulator (the
    /// statevector profile) apply one plan.
    #[test]
    fn plans_on_three_qubits_or_fewer_ignore_the_profile() {
        use crate::testing::random_circuit;
        let profiles = [
            FusionProfile { pass_cost: 0.25 },
            FusionProfile::panels(),
            FusionProfile::statevector(),
            FusionProfile { pass_cost: 24.0 },
        ];
        for n in 1..=3usize {
            for seed in 0..300u64 {
                let c = random_circuit(n, 30, seed);
                let plans: Vec<String> = profiles
                    .iter()
                    .map(|&p| format!("{:?}", fuse_instructions_with(c.instructions(), n, p)))
                    .collect();
                assert!(
                    plans.iter().all(|p| *p == plans[0]),
                    "{n} qubits, seed {seed}: the plan depends on the cost profile"
                );
            }
        }
    }

    #[test]
    fn fused_plan_preserves_random_circuit_unitaries() {
        use crate::testing::random_circuit;
        for n in 1..=4usize {
            for seed in 0..4u64 {
                let c = random_circuit(n, 20, 1000 + seed * 10 + n as u64);
                let plan = fuse_instructions(c.instructions(), n);
                let got = plan_unitary(&plan, n);
                let want = circuit_unitary_reference(&c);
                assert!(
                    got.approx_eq(&want, 1e-9),
                    "fusion changed the unitary on {n} qubits, seed {seed}"
                );
            }
        }
    }
}
