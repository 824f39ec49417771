//! The transpiler's shared mutable IR: a dependency-DAG view of a circuit.
//!
//! The instruction list of a [`Circuit`] is already a topological order;
//! [`Dag`] adds the wire structure on top of it: per-node predecessors and
//! successors along qubit wires, a ready-set scheduler (used by the routing
//! pass), maximal single-qubit runs (used by `Optimize1qGates`), and
//! two-qubit block collection (the `Collect2qBlocks` analogue).
//!
//! # O(edit) mutations
//!
//! Since the DAG-native pass-manager refactor the `Dag` is *mutable*:
//! passes batch their rewrites into a [`DagEdit`] (node removal,
//! replacement by an expansion, whole-stream reconstruction) and
//! [`Dag::apply`] splices them in. The representation is built for edits
//! whose cost scales with the **size of the edit, not the circuit**:
//!
//! * Nodes live in a slab indexed by a stable *node id*; removed ids are
//!   recycled through a free list instead of renumbering the stream.
//! * Program order is a doubly-linked list over the slab, so a splice
//!   relinks only its two order neighbours.
//! * Wire structure is stored per node as `(pred, succ)` id pairs aligned
//!   with the node's qubits; a splice patches only the chains of the wires
//!   it touches (falling back to a local order-list walk for a replacement
//!   wire the removed node did not carry).
//!
//! The [`ChangeReport`] returned by `apply` is the currency of the
//! change-driven fixed-point loop: its `touched` set names the **wires**
//! the edit touched, a pass that reports no rewrites is skipped until
//! another pass dirties a wire, and its `relink_nodes` field counts the
//! nodes whose links the splice patched (the observable for the O(edit)
//! claim). Passes compute what they read (block membership, state
//! trajectories) from the DAG in front of them; the only derived data the
//! DAG maintains is the wire census below.
//!
//! The `Dag` additionally maintains a per-wire census of the
//! [gate classes](gate_class) of the nodes currently on each wire
//! (incremented/decremented per splice, O(edit)). The census backs the
//! pass manager's *interest filtering*: a pass can declare which gate
//! classes it rewrites, and the fixed-point driver consults
//! [`Dag::wire_class_mask`] to skip the pass when no dirty wire carries
//! relevant content.
//!
//! [`Dag::from_circuit`] and [`Dag::to_circuit`] are the *only* sanctioned
//! Circuit↔Dag boundary and each bumps a thread-local conversion counter
//! ([`conversion_counts`]) so tests can assert a pipeline converts exactly
//! once in each direction.
//!
//! # Undo journal
//!
//! [`Dag::open_journal`] starts recording the inverse of every mutation, so
//! [`Dag::rollback_journal`] can restore the exact state at open in time
//! proportional to the edits since, not to the DAG. This is the pass
//! guard's checkpoint: a pass that panics, errors or fails validation is
//! undone by replaying its journal. While a journal is open:
//!
//! * every link write of a splice (order neighbours, wire pred/succ) logs
//!   the field's old value;
//! * a removed node is *moved* into the journal, never cloned, and its id
//!   goes onto the free list;
//! * each allocation logs whether it popped the free list or grew the
//!   slab;
//! * [`Dag::replace_all`] moves the old slab and free list into the
//!   journal in O(1).
//!
//! Each entry is logged no later than its mutation with no unwind point
//! in between, so a panic halfway through [`Dag::apply`] still rolls back.
//! The scalars (`len`, head, tail, width) and the O(qubits) per-wire class
//! census are snapshotted at open. Rollback replays the log backwards, so
//! node ids and free-list order come back exactly. [`Dag::commit_journal`]
//! drops the journal and keeps the edits. Journals do not nest.

use crate::blocks::{Block, BlockTracker, Membership};
use crate::circuit::{gate_counts_over, Circuit, GateCounts, Instruction};
use crate::gate::Gate;
use std::cell::Cell;
use std::collections::HashSet;

thread_local! {
    static CIRCUIT_TO_DAG: Cell<usize> = const { Cell::new(0) };
    static DAG_TO_CIRCUIT: Cell<usize> = const { Cell::new(0) };
}

/// `(circuit→dag, dag→circuit)` conversion counts for the current thread
/// since the last [`reset_conversion_counts`].
pub fn conversion_counts() -> (usize, usize) {
    (CIRCUIT_TO_DAG.get(), DAG_TO_CIRCUIT.get())
}

/// Zeroes the thread-local conversion counters.
pub fn reset_conversion_counts() {
    CIRCUIT_TO_DAG.set(0);
    DAG_TO_CIRCUIT.set(0);
}

/// The absent-link sentinel of the intrusive lists.
const NONE: usize = usize::MAX;

/// Gate-class bits of the per-wire node census ([`Dag::wire_class_mask`]),
/// the vocabulary passes use to declare their rewrite interest.
///
/// A class may over-approximate ("this wire carries *some* CX") but never
/// under-approximate: interest filtering skips a pass only when no dirty
/// wire carries a class the pass declared, so a missing bit would change
/// pipeline output.
pub mod gate_class {
    /// Any single-qubit unitary gate.
    pub const ONE_Q: u16 = 1 << 0;
    /// Z-diagonal single-qubit gates (`z,s,sdg,t,tdg,rz,u1,id`) — the
    /// phase family `CommutativeCancellation` merges and `CxCancellation`
    /// looks through on control wires.
    pub const ONE_Q_DIAG: u16 = 1 << 1;
    /// X-axis rotations (`x`, `rx`) — the family that commutes through
    /// CNOT targets.
    pub const ONE_Q_X: u16 = 1 << 2;
    /// Self-inverse single-qubit gates (`x,y,z,h`) whose adjacent pairs
    /// `CxCancellation` removes.
    pub const SELF_INVERSE: u16 = 1 << 3;
    /// A `cx` gate.
    pub const CX: u16 = 1 << 4;
    /// Any two-qubit unitary gate (`cx` included).
    pub const TWO_Q: u16 = 1 << 5;
    /// Unitary gates on three or more qubits.
    pub const MULTI_Q: u16 = 1 << 6;
    /// The swap family (`swap`, `swapz`, `cswap`) — the gates that move
    /// analysis state between wires.
    pub const SWAP_FAMILY: u16 = 1 << 7;
    /// Unitary gates outside the device basis `{u1,u2,u3,id,cx}`.
    pub const NON_DEVICE: u16 = 1 << 8;
    /// Unitary gates outside the extended basis (device ∪ `{swap,swapz}`).
    pub const NON_EXTENDED: u16 = 1 << 9;
    /// Non-unitary instructions (measure, reset, barriers, annotations).
    pub const NON_UNITARY: u16 = 1 << 10;
    /// Number of class bits.
    pub const COUNT: usize = 11;
}

/// The [`gate_class`] bits of one instruction.
pub fn instruction_classes(inst: &Instruction) -> u16 {
    use gate_class::*;
    let g = &inst.gate;
    if !g.is_unitary_gate() {
        return NON_UNITARY;
    }
    let mut m = 0u16;
    match inst.qubits.len() {
        1 => {
            m |= ONE_Q;
            if matches!(
                g,
                Gate::Z
                    | Gate::S
                    | Gate::Sdg
                    | Gate::T
                    | Gate::Tdg
                    | Gate::Rz(_)
                    | Gate::U1(_)
                    | Gate::I
            ) {
                m |= ONE_Q_DIAG;
            }
            if matches!(g, Gate::X | Gate::Rx(_)) {
                m |= ONE_Q_X;
            }
            if matches!(g, Gate::X | Gate::Y | Gate::Z | Gate::H) {
                m |= SELF_INVERSE;
            }
        }
        2 => {
            m |= TWO_Q;
            if matches!(g, Gate::Cx) {
                m |= CX;
            }
        }
        _ => m |= MULTI_Q,
    }
    if matches!(g, Gate::Swap | Gate::SwapZ | Gate::Cswap) {
        m |= SWAP_FAMILY;
    }
    let device = matches!(
        g,
        Gate::I | Gate::U1(_) | Gate::U2(..) | Gate::U3(..) | Gate::Cx
    );
    if !device {
        m |= NON_DEVICE;
        if !matches!(g, Gate::Swap | Gate::SwapZ) {
            m |= NON_EXTENDED;
        }
    }
    m
}

/// A set of wires (qubit indices): the wires an edit touched, and the
/// fixed-point driver's per-pass dirty sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSet {
    bits: Vec<bool>,
}

impl WireSet {
    /// The empty set over `num_qubits` wires.
    pub fn empty(num_qubits: usize) -> Self {
        WireSet {
            bits: vec![false; num_qubits],
        }
    }

    /// The full set over `num_qubits` wires.
    pub fn full(num_qubits: usize) -> Self {
        WireSet {
            bits: vec![true; num_qubits],
        }
    }

    /// Number of wires the set ranges over.
    pub fn num_qubits(&self) -> usize {
        self.bits.len()
    }

    /// Adds a wire.
    pub fn insert(&mut self, q: usize) {
        if q >= self.bits.len() {
            self.bits.resize(q + 1, false);
        }
        self.bits[q] = true;
    }

    /// Whether the set contains `q`.
    pub fn contains(&self, q: usize) -> bool {
        self.bits.get(q).copied().unwrap_or(false)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|&b| b)
    }

    /// Removes every wire.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|b| *b = false);
    }

    /// Adds every wire of `other`.
    pub fn union(&mut self, other: &WireSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), false);
        }
        for (q, &b) in other.bits.iter().enumerate() {
            if b {
                self.bits[q] = true;
            }
        }
    }

    /// The contained wires, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(q, &b)| b.then_some(q))
    }
}

/// What a pass did to the DAG: how many nodes it rewrote and which wires
/// those rewrites touched. The fixed-point driver unions reports into the
/// other passes' dirty sets; a report with zero rewrites dirties nothing.
#[derive(Clone, Debug)]
pub struct ChangeReport {
    /// Number of edit operations applied (removals + replacements).
    pub rewrites: usize,
    /// Wires touched by the rewrites (old and new instructions' qubits).
    pub touched: WireSet,
    /// Nodes whose link fields the splice-local relink rewrote (removed
    /// nodes, inserted nodes, and the chain neighbours patched around
    /// them) — the per-edit work measure of the O(edit) relink.
    pub relink_nodes: usize,
}

impl ChangeReport {
    /// A report of no changes.
    pub fn none(num_qubits: usize) -> Self {
        ChangeReport {
            rewrites: 0,
            touched: WireSet::empty(num_qubits),
            relink_nodes: 0,
        }
    }

    /// Whether anything changed.
    pub fn changed(&self) -> bool {
        self.rewrites > 0
    }

    /// Accumulates `other` into this report.
    pub fn merge(&mut self, other: &ChangeReport) {
        self.rewrites += other.rewrites;
        self.touched.union(&other.touched);
        self.relink_nodes += other.relink_nodes;
    }
}

/// One batched mutation of a [`Dag`]: node removals and replacements
/// (splice-in of decompositions), applied splice-locally by [`Dag::apply`].
#[derive(Clone, Debug, Default)]
pub struct DagEdit {
    ops: Vec<(usize, Option<Vec<Instruction>>)>,
}

impl DagEdit {
    /// An empty edit.
    pub fn new() -> Self {
        DagEdit::default()
    }

    /// Removes node `node`.
    pub fn remove(&mut self, node: usize) {
        self.ops.push((node, None));
    }

    /// Replaces node `node` with `insts` (empty = removal) spliced in at
    /// its position.
    pub fn replace(&mut self, node: usize, insts: Vec<Instruction>) {
        self.ops.push((node, Some(insts)));
    }

    /// Whether the edit contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of edit operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// One slab entry: the instruction plus its intrusive links — program-order
/// neighbours and, per qubit of the instruction, the previous/next node on
/// that wire.
#[derive(Clone, Debug)]
struct Node {
    inst: Instruction,
    order_prev: usize,
    order_next: usize,
    /// `(pred, succ)` node ids per wire, aligned with `inst.qubits`.
    wires: Vec<(usize, usize)>,
}

/// One link field of a node: an order neighbour, or the wire pred/succ at
/// a qubit slot (an index into the node's `wires`).
#[derive(Clone, Copy, Debug)]
enum Link {
    OrderPrev,
    OrderNext,
    WirePred(usize),
    WireSucc(usize),
}

/// The inverse of one journaled mutation (see the module docs).
#[derive(Clone, Debug)]
enum Undo {
    /// Link `link` of node `id` held `old`.
    Link { id: usize, link: Link, old: usize },
    /// Node `id` was removed and its id pushed onto the free list; its
    /// payload is the last of `Journal::removed`.
    Removed { id: usize },
    /// Id `id` was allocated: popped off the free list, or pushed onto the
    /// slab.
    Allocated { id: usize, from_free: bool },
    /// The stream was replaced; the old slab and free list are the last of
    /// `Journal::streams`.
    ReplacedAll,
}

/// The undo journal of an open [`Dag::open_journal`]: the state snapshot
/// at open plus the inverse log of every mutation since.
#[derive(Clone, Debug)]
struct Journal {
    num_qubits: usize,
    len: usize,
    head: usize,
    tail: usize,
    wire_classes: Vec<[u32; gate_class::COUNT]>,
    log: Vec<Undo>,
    removed: Vec<Node>,
    streams: Vec<(Vec<Option<Node>>, Vec<usize>)>,
}

/// Dependency DAG over the instructions of a circuit — the transpiler's
/// shared mutable IR (see the module docs).
///
/// Nodes are addressed by stable *node ids* (slab indices): an id stays
/// valid until the node is removed by an edit, and removed ids are recycled
/// for later insertions. Ids carry **no order meaning** — program order is
/// [`Dag::iter`]'s iteration order.
#[derive(Clone, Debug)]
pub struct Dag {
    num_qubits: usize,
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    len: usize,
    head: usize,
    tail: usize,
    /// Per-wire census: how many nodes on the wire carry each
    /// [`gate_class`] bit. Maintained incrementally per splice.
    wire_classes: Vec<[u32; gate_class::COUNT]>,
    /// The open undo journal, if any.
    journal: Option<Box<Journal>>,
}

impl Dag {
    /// Builds the DAG from a circuit, bumping the thread-local
    /// circuit→dag conversion counter.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        CIRCUIT_TO_DAG.set(CIRCUIT_TO_DAG.get() + 1);
        let mut dag = Dag {
            num_qubits: circuit.num_qubits(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            head: NONE,
            tail: NONE,
            wire_classes: vec![[0; gate_class::COUNT]; circuit.num_qubits()],
            journal: None,
        };
        dag.rebuild(circuit.instructions().to_vec());
        dag
    }

    /// Dense slab construction from an instruction stream: id `i` is the
    /// `i`-th instruction. Resets the free list and the wire census.
    fn rebuild(&mut self, insts: Vec<Instruction>) {
        let n = insts.len();
        self.free.clear();
        self.len = n;
        self.head = if n == 0 { NONE } else { 0 };
        self.tail = if n == 0 { NONE } else { n - 1 };
        self.wire_classes = vec![[0; gate_class::COUNT]; self.num_qubits];
        self.slots = insts
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                let wires = vec![(NONE, NONE); inst.qubits.len()];
                Some(Node {
                    inst,
                    order_prev: if i == 0 { NONE } else { i - 1 },
                    order_next: if i + 1 == n { NONE } else { i + 1 },
                    wires,
                })
            })
            .collect();
        let mut last_on_wire = vec![NONE; self.num_qubits];
        for i in 0..n {
            let (before, rest) = self.slots.split_at_mut(i);
            let node = rest[0].as_mut().expect("dense build");
            for j in 0..node.inst.qubits.len() {
                let q = node.inst.qubits[j];
                let p = last_on_wire[q];
                node.wires[j].0 = p;
                if p != NONE {
                    let pn = before[p].as_mut().expect("dense build");
                    let slot = pn
                        .inst
                        .qubits
                        .iter()
                        .position(|&x| x == q)
                        .expect("pred carries the wire");
                    pn.wires[slot].1 = i;
                }
                last_on_wire[q] = i;
            }
            let classes = instruction_classes(&node.inst);
            for &q in &node.inst.qubits {
                bump_classes(&mut self.wire_classes[q], classes, 1);
            }
        }
    }

    /// Flattens the DAG back into a circuit (program order), bumping the
    /// thread-local dag→circuit conversion counter.
    pub fn to_circuit(&self) -> Circuit {
        DAG_TO_CIRCUIT.set(DAG_TO_CIRCUIT.get() + 1);
        let mut c = Circuit::new(self.num_qubits);
        c.set_instructions(self.iter().map(|(_, inst)| inst.clone()).collect());
        c
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the DAG holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab size: one more than the largest node id ever live. The right
    /// length for id-indexed scratch tables (`vec![...; dag.capacity()]`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The [`gate_class`] bits present on wire `q`: the union of the
    /// classes of every node currently touching the wire. Maintained
    /// incrementally (O(edit) per splice); exact, not an over-approximation.
    pub fn wire_class_mask(&self, q: usize) -> u16 {
        let mut m = 0u16;
        for (bit, &count) in self.wire_classes[q].iter().enumerate() {
            if count > 0 {
                m |= 1 << bit;
            }
        }
        m
    }

    /// The instruction of node `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a live node.
    pub fn inst(&self, id: usize) -> &Instruction {
        &self.node(id).inst
    }

    /// Full structural self-check: program-order links, per-wire links,
    /// free-list/slab agreement, and the incremental wire census against a
    /// from-scratch recount. Returns a description of the first violation.
    ///
    /// This is the post-pass validator's structural half — a corrupted
    /// splice (or a pass that panicked halfway through a mutation) shows up
    /// here before it can poison downstream passes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Slab / free-list agreement.
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        if live != self.len {
            return Err(format!("len {} but {live} live slots", self.len));
        }
        let mut free_seen = vec![false; self.slots.len()];
        for &f in &self.free {
            if f >= self.slots.len() || self.slots[f].is_some() {
                return Err(format!("free list holds live or out-of-range id {f}"));
            }
            if free_seen[f] {
                return Err(format!("free list holds id {f} twice"));
            }
            free_seen[f] = true;
        }
        if self.free.len() + live != self.slots.len() {
            return Err("dead slot missing from the free list".into());
        }
        // Program-order chain: walk head→tail, checking back-links.
        let mut count = 0usize;
        let mut prev = NONE;
        let mut cur = self.head;
        let mut order = Vec::with_capacity(self.len);
        while cur != NONE {
            let node = match self.slots.get(cur).and_then(|s| s.as_ref()) {
                Some(n) => n,
                None => return Err(format!("order chain reaches dead id {cur}")),
            };
            if node.order_prev != prev {
                return Err(format!(
                    "node {cur}: order_prev {} ≠ walk predecessor {prev}",
                    node.order_prev
                ));
            }
            if node.inst.qubits.len() != node.wires.len() {
                return Err(format!("node {cur}: wires misaligned with qubits"));
            }
            for &q in &node.inst.qubits {
                if q >= self.num_qubits {
                    return Err(format!("node {cur}: qubit {q} out of range"));
                }
            }
            order.push(cur);
            count += 1;
            if count > self.len {
                return Err("order chain longer than len (cycle?)".into());
            }
            prev = cur;
            cur = node.order_next;
        }
        if count != self.len {
            return Err(format!("order chain visits {count} of {} nodes", self.len));
        }
        if self.tail != prev {
            return Err(format!("tail {} ≠ last walked node {prev}", self.tail));
        }
        // Per-wire links must thread the program-order restriction of each
        // wire, and the incremental census must match a recount.
        let mut last_on_wire = vec![NONE; self.num_qubits];
        let mut census = vec![[0u32; gate_class::COUNT]; self.num_qubits];
        for &id in &order {
            let node = self.slots[id].as_ref().expect("walked above");
            let classes = instruction_classes(&node.inst);
            for (j, &q) in node.inst.qubits.iter().enumerate() {
                let expect_pred = last_on_wire[q];
                if node.wires[j].0 != expect_pred {
                    return Err(format!(
                        "node {id} wire {q}: pred {} ≠ program-order pred {expect_pred}",
                        node.wires[j].0
                    ));
                }
                if expect_pred != NONE {
                    let pn = self.slots[expect_pred].as_ref().expect("walked above");
                    if pn.wires[wire_slot(pn, q)].1 != id {
                        return Err(format!(
                            "node {expect_pred} wire {q}: succ does not return to {id}"
                        ));
                    }
                }
                last_on_wire[q] = id;
                bump_classes(&mut census[q], classes, 1);
            }
        }
        for (q, &last) in last_on_wire.iter().enumerate() {
            if last != NONE {
                let node = self.slots[last].as_ref().expect("walked above");
                if node.wires[wire_slot(node, q)].1 != NONE {
                    return Err(format!("node {last} wire {q}: dangling succ at wire end"));
                }
            }
        }
        for (q, counted) in census.iter().enumerate().take(self.num_qubits) {
            if *counted != self.wire_classes[q] {
                return Err(format!(
                    "wire {q}: census {:?} ≠ recount {:?}",
                    self.wire_classes[q], counted
                ));
            }
        }
        Ok(())
    }

    /// Live nodes in program order, as `(node id, instruction)` pairs.
    pub fn iter(&self) -> DagIter<'_> {
        DagIter {
            dag: self,
            cur: self.head,
        }
    }

    /// The previous node on wire `q` before node `id`, if any.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not live or does not carry wire `q`.
    pub fn wire_pred(&self, id: usize, q: usize) -> Option<usize> {
        let node = self.node(id);
        let slot = wire_slot(node, q);
        let p = node.wires[slot].0;
        (p != NONE).then_some(p)
    }

    /// The next node on wire `q` after node `id`, if any.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not live or does not carry wire `q`.
    pub fn wire_succ(&self, id: usize, q: usize) -> Option<usize> {
        let node = self.node(id);
        let slot = wire_slot(node, q);
        let s = node.wires[slot].1;
        (s != NONE).then_some(s)
    }

    fn node(&self, id: usize) -> &Node {
        self.slots[id].as_ref().expect("live node id")
    }

    fn node_mut(&mut self, id: usize) -> &mut Node {
        self.slots[id].as_mut().expect("live node id")
    }

    /// Appends `undo` to the open journal, if any.
    fn log(&mut self, undo: Undo) {
        if let Some(j) = self.journal.as_mut() {
            j.log.push(undo);
        }
    }

    fn link_mut(&mut self, id: usize, link: Link) -> &mut usize {
        let node = self.node_mut(id);
        match link {
            Link::OrderPrev => &mut node.order_prev,
            Link::OrderNext => &mut node.order_next,
            Link::WirePred(slot) => &mut node.wires[slot].0,
            Link::WireSucc(slot) => &mut node.wires[slot].1,
        }
    }

    /// Writes one link field, journaling its old value.
    fn set_link(&mut self, id: usize, link: Link, v: usize) {
        let old = std::mem::replace(self.link_mut(id, link), v);
        self.log(Undo::Link { id, link, old });
    }

    fn set_wire_pred(&mut self, id: usize, q: usize, v: usize) {
        let slot = wire_slot(self.node(id), q);
        self.set_link(id, Link::WirePred(slot), v);
    }

    fn set_wire_succ(&mut self, id: usize, q: usize, v: usize) {
        let slot = wire_slot(self.node(id), q);
        self.set_link(id, Link::WireSucc(slot), v);
    }

    /// The nearest node at or before `start` (in program order) carrying
    /// wire `q`; `NONE` when the wire is untouched up to there.
    fn scan_wire_back(&self, start: usize, q: usize) -> usize {
        let mut cur = start;
        while cur != NONE {
            let node = self.node(cur);
            if node.inst.qubits.contains(&q) {
                return cur;
            }
            cur = node.order_prev;
        }
        NONE
    }

    /// The nearest node at or after `start` carrying wire `q`.
    fn scan_wire_fwd(&self, start: usize, q: usize) -> usize {
        let mut cur = start;
        while cur != NONE {
            let node = self.node(cur);
            if node.inst.qubits.contains(&q) {
                return cur;
            }
            cur = node.order_next;
        }
        NONE
    }

    /// Stores a new node between the given order neighbours (the caller
    /// links them back), recycling the most recently freed id.
    fn alloc(&mut self, inst: Instruction, order_prev: usize, order_next: usize) -> usize {
        let wires = vec![(NONE, NONE); inst.qubits.len()];
        let node = Node {
            inst,
            order_prev,
            order_next,
            wires,
        };
        let recycled = self.free.last().copied();
        let id = recycled.unwrap_or(self.slots.len());
        self.log(Undo::Allocated {
            id,
            from_free: recycled.is_some(),
        });
        if recycled.is_some() {
            self.free.pop();
            self.slots[id] = Some(node);
        } else {
            self.slots.push(Some(node));
        }
        id
    }

    /// Frees the id of a node just taken out of the slab, moving the node
    /// into the open journal (or dropping it).
    fn retire(&mut self, id: usize, node: Node) {
        if let Some(j) = self.journal.as_mut() {
            j.log.push(Undo::Removed { id });
            j.removed.push(node);
        }
        self.free.push(id);
    }

    /// Starts recording the inverse of every mutation, so that
    /// [`Dag::rollback_journal`] can restore the current state in
    /// O(edits since). See the module docs.
    ///
    /// # Panics
    ///
    /// Panics when a journal is already open: journals do not nest.
    pub fn open_journal(&mut self) {
        assert!(
            self.journal.is_none(),
            "a journal is already open (journals do not nest)"
        );
        self.journal = Some(Box::new(Journal {
            num_qubits: self.num_qubits,
            len: self.len,
            head: self.head,
            tail: self.tail,
            wire_classes: self.wire_classes.clone(),
            log: Vec::new(),
            removed: Vec::new(),
            streams: Vec::new(),
        }));
    }

    /// Closes the open journal, keeping every edit made since it opened.
    ///
    /// # Panics
    ///
    /// Panics when no journal is open.
    pub fn commit_journal(&mut self) {
        self.journal.take().expect("no open journal to commit");
    }

    /// Closes the open journal and undoes every edit made since it opened,
    /// restoring that state exactly: contents, node ids, free-list order
    /// and the wire census. Works on a DAG left half-spliced by a panic
    /// inside [`Dag::apply`].
    ///
    /// # Panics
    ///
    /// Panics when no journal is open.
    pub fn rollback_journal(&mut self) {
        let mut j = *self.journal.take().expect("no open journal to roll back");
        while let Some(undo) = j.log.pop() {
            match undo {
                Undo::Link { id, link, old } => *self.link_mut(id, link) = old,
                Undo::Removed { id } => {
                    let freed = self.free.pop();
                    debug_assert_eq!(freed, Some(id));
                    self.slots[id] = j.removed.pop();
                }
                Undo::Allocated { id, from_free } => {
                    if from_free {
                        self.slots[id] = None;
                        self.free.push(id);
                    } else {
                        self.slots.pop();
                        debug_assert_eq!(self.slots.len(), id);
                    }
                }
                Undo::ReplacedAll => {
                    (self.slots, self.free) = j.streams.pop().expect("journaled stream");
                }
            }
        }
        self.num_qubits = j.num_qubits;
        self.len = j.len;
        self.head = j.head;
        self.tail = j.tail;
        self.wire_classes = j.wire_classes;
    }

    /// Gate statistics over the current nodes (same accounting as
    /// [`Circuit::gate_counts`]).
    pub fn gate_counts(&self) -> GateCounts {
        gate_counts_over(self.slots.iter().flatten().map(|n| &n.inst))
    }

    /// Applies a batched edit: removals and replacements splice in at
    /// their node's position, patching only the order links and wire
    /// chains around each splice (O(edit) amortized). The report's
    /// `touched` set holds the wires of every removed, replaced or inserted
    /// instruction; freed node ids are recycled for later insertions.
    ///
    /// # Panics
    ///
    /// Panics if an edit references a node twice or a dead/out-of-range id,
    /// or if a replacement instruction uses an out-of-range qubit.
    pub fn apply(&mut self, edit: DagEdit) -> ChangeReport {
        if edit.is_empty() {
            return ChangeReport::none(self.num_qubits);
        }
        let rewrites = edit.ops.len();
        let mut touched = WireSet::empty(self.num_qubits);
        let mut relink_nodes = 0usize;
        let mut edited: HashSet<usize> = HashSet::with_capacity(rewrites);
        for (node, op) in edit.ops {
            assert!(
                node < self.slots.len() && self.slots[node].is_some() || edited.contains(&node),
                "edit references node {node} out of range"
            );
            assert!(
                edited.insert(node) && self.slots[node].is_some(),
                "node {node} edited twice in one batch"
            );
            relink_nodes += self.splice(node, op.unwrap_or_default(), &mut touched);
        }
        ChangeReport {
            rewrites,
            touched,
            relink_nodes,
        }
    }

    /// Replaces node `node_id` with `insts` (possibly empty), patching the
    /// order list and the wire chains locally. Returns the number of nodes
    /// whose links were rewritten.
    fn splice(&mut self, node_id: usize, insts: Vec<Instruction>, touched: &mut WireSet) -> usize {
        let removed = self.slots[node_id].take().expect("live node id");
        let (left, right) = (removed.order_prev, removed.order_next);
        let removed_classes = instruction_classes(&removed.inst);
        // `(wire, pred, succ)` triples of the removed node.
        let removed_wires: Vec<(usize, usize, usize)> = removed
            .inst
            .qubits
            .iter()
            .zip(&removed.wires)
            .map(|(&q, &(p, s))| (q, p, s))
            .collect();
        self.retire(node_id, removed);
        self.len -= 1;
        let mut relinked = 1usize;
        for &(q, _, _) in &removed_wires {
            touched.insert(q);
            bump_classes(&mut self.wire_classes[q], removed_classes, -1);
        }
        // Unlink from the order list.
        if left != NONE {
            self.set_link(left, Link::OrderNext, right);
        } else {
            self.head = right;
        }
        if right != NONE {
            self.set_link(right, Link::OrderPrev, left);
        } else {
            self.tail = left;
        }

        // Allocate the replacements and thread them into the order list.
        let mut new_ids = Vec::with_capacity(insts.len());
        let mut cursor = left;
        for inst in insts {
            for &q in &inst.qubits {
                assert!(
                    q < self.num_qubits,
                    "replacement qubit {q} out of range for {}-qubit dag",
                    self.num_qubits
                );
                touched.insert(q);
            }
            let classes = instruction_classes(&inst);
            for &q in &inst.qubits {
                bump_classes(&mut self.wire_classes[q], classes, 1);
            }
            let id = self.alloc(inst, cursor, right);
            self.len += 1;
            if cursor != NONE {
                self.set_link(cursor, Link::OrderNext, id);
            } else {
                self.head = id;
            }
            if right != NONE {
                self.set_link(right, Link::OrderPrev, id);
            } else {
                self.tail = id;
            }
            cursor = id;
            new_ids.push(id);
        }
        relinked += new_ids.len();

        // Wire-link the inserted run: chain same-wire neighbours among the
        // new nodes, tracking each wire's first/last inserted node.
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for &id in &new_ids {
            for j in 0..self.node(id).inst.qubits.len() {
                let q = self.node(id).inst.qubits[j];
                if let Some(run) = runs.iter_mut().find(|r| r.0 == q) {
                    let last = run.2;
                    run.2 = id;
                    self.set_wire_succ(last, q, id);
                    self.set_wire_pred(id, q, last);
                } else {
                    runs.push((q, id, id));
                }
            }
        }
        // Connect each inserted run to the surrounding chain: through the
        // removed node's captured neighbours when it carried the wire,
        // else by a local order-list walk from the splice point.
        for &(q, first, last) in &runs {
            let (wp, wn) = match removed_wires.iter().find(|r| r.0 == q) {
                Some(&(_, p, s)) => (p, s),
                None => (self.scan_wire_back(left, q), self.scan_wire_fwd(right, q)),
            };
            if wp != NONE {
                self.set_wire_succ(wp, q, first);
                relinked += 1;
            }
            self.set_wire_pred(first, q, wp);
            if wn != NONE {
                self.set_wire_pred(wn, q, last);
                relinked += 1;
            }
            self.set_wire_succ(last, q, wn);
        }
        // Removed wires no replacement re-uses: bridge pred to succ.
        for &(q, wp, wn) in &removed_wires {
            if runs.iter().any(|r| r.0 == q) {
                continue;
            }
            if wp != NONE {
                self.set_wire_succ(wp, q, wn);
                relinked += 1;
            }
            if wn != NONE {
                self.set_wire_pred(wn, q, wp);
                relinked += 1;
            }
        }
        relinked
    }

    /// Replaces the whole node stream (and possibly the width) — the tool
    /// of structural passes like layout application and routing that
    /// reconstruct the circuit rather than rewrite nodes in place. Touches
    /// every wire.
    pub fn replace_all(&mut self, num_qubits: usize, nodes: Vec<Instruction>) -> ChangeReport {
        let rewrites = self.len.max(nodes.len()).max(1);
        let relink_nodes = nodes.len();
        if let Some(j) = self.journal.as_mut() {
            j.log.push(Undo::ReplacedAll);
            j.streams.push((
                std::mem::take(&mut self.slots),
                std::mem::take(&mut self.free),
            ));
        }
        self.num_qubits = num_qubits;
        self.rebuild(nodes);
        ChangeReport {
            rewrites,
            touched: WireSet::full(num_qubits),
            relink_nodes,
        }
    }

    /// Creates a scheduler whose ready set starts at the DAG's sources.
    pub fn scheduler(&self) -> Scheduler<'_> {
        let cap = self.capacity();
        let mut pos = vec![NONE; cap];
        let mut remaining_preds = vec![0usize; cap];
        let mut ready = Vec::new();
        for (p, (id, _)) in self.iter().enumerate() {
            pos[id] = p;
            let node = self.node(id);
            let mut distinct = 0usize;
            for (j, &(wp, _)) in node.wires.iter().enumerate() {
                if wp != NONE && !node.wires[..j].iter().any(|&(x, _)| x == wp) {
                    distinct += 1;
                }
            }
            remaining_preds[id] = distinct;
            if distinct == 0 {
                ready.push(id);
            }
        }
        Scheduler {
            dag: self,
            pos,
            remaining_preds,
            ready,
        }
    }

    /// Maximal runs of consecutive single-qubit *unitary* gates on the same
    /// wire, as node ids in program order. Directives, resets and measures
    /// break runs, as does any multi-qubit gate.
    pub fn single_qubit_runs(&self) -> Vec<Vec<usize>> {
        let mut runs: Vec<Vec<usize>> = Vec::new();
        let mut open: Vec<Option<usize>> = vec![None; self.num_qubits]; // run index per wire
        for (id, inst) in self.iter() {
            let one_q_unitary = inst.qubits.len() == 1 && inst.gate.is_unitary_gate();
            if one_q_unitary {
                let q = inst.qubits[0];
                match open[q] {
                    Some(r) => runs[r].push(id),
                    None => {
                        runs.push(vec![id]);
                        open[q] = Some(runs.len() - 1);
                    }
                }
            } else {
                for &q in &inst.qubits {
                    open[q] = None;
                }
            }
        }
        runs
    }

    /// Collects maximal blocks of unitary gates confined to at most
    /// `max_arity` qubits, anchored by at least one multi-qubit gate —
    /// single-qubit gates preceding a block on its wires are absorbed into
    /// it. Blocks are returned sorted by program position, each block's
    /// node ids in program order.
    ///
    /// The membership logic is [`BlockTracker`] — the same machine the
    /// fusion planner uses to grow dense kernel blocks in-stream — so
    /// `ConsolidateBlocks`, QPO's block rewrite and the planner all agree
    /// on what constitutes a foldable neighborhood.
    pub fn collect_blocks(&self, max_arity: usize) -> Vec<Block> {
        let mut tracker = BlockTracker::sealing(self.num_qubits, max_arity);
        // Pending 1q gates per wire, waiting for a multi-qubit anchor.
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); self.num_qubits];
        // Node lists per tracker block id.
        let mut nodes_of: Vec<Vec<usize>> = Vec::new();
        // Program position per node id (ids carry no order meaning).
        let mut pos_of = vec![0usize; self.capacity()];
        for (pos, (id, inst)) in self.iter().enumerate() {
            pos_of[id] = pos;
            let unitary = inst.gate.is_unitary_gate() && !inst.gate.is_directive();
            if !unitary || inst.qubits.len() > max_arity {
                // Directive, non-unitary, or too wide: breaks blocks and
                // pending runs on all touched wires.
                for &q in &inst.qubits {
                    pending[q].clear();
                }
                tracker.touch(&inst.qubits, pos);
                continue;
            }
            if inst.qubits.len() == 1 {
                let q = inst.qubits[0];
                match tracker.membership(&inst.qubits) {
                    Membership::Join { block, new_qubits } if new_qubits.is_empty() => {
                        nodes_of[block].push(id)
                    }
                    _ => pending[q].push(id),
                }
                continue;
            }
            match tracker.membership(&inst.qubits) {
                Membership::Join { block, new_qubits } => {
                    for &q in &new_qubits {
                        nodes_of[block].append(&mut pending[q]);
                    }
                    tracker.extend(block, &new_qubits);
                    nodes_of[block].push(id);
                }
                Membership::Outside => {
                    let block = tracker.open(&inst.qubits, pos);
                    let mut nodes = Vec::new();
                    for &q in &inst.qubits {
                        nodes.append(&mut pending[q]);
                    }
                    nodes.push(id);
                    debug_assert_eq!(block, nodes_of.len());
                    nodes_of.push(nodes);
                }
            }
        }
        let mut blocks: Vec<Block> = nodes_of
            .into_iter()
            .enumerate()
            .map(|(block_id, mut nodes)| {
                nodes.sort_unstable_by_key(|&id| pos_of[id]);
                Block {
                    qubits: tracker.block_qubits(block_id).to_vec(),
                    nodes,
                }
            })
            .collect();
        blocks.sort_by_key(|b| pos_of[b.nodes[0]]);
        blocks
    }
}

fn bump_classes(counts: &mut [u32; gate_class::COUNT], classes: u16, delta: i32) {
    for (bit, count) in counts.iter_mut().enumerate() {
        if classes & (1 << bit) != 0 {
            *count = count
                .checked_add_signed(delta)
                .expect("class census underflow");
        }
    }
}

fn wire_slot(node: &Node, q: usize) -> usize {
    node.inst
        .qubits
        .iter()
        .position(|&x| x == q)
        .expect("node carries the wire")
}

/// Program-order iterator over a [`Dag`]'s live nodes.
pub struct DagIter<'a> {
    dag: &'a Dag,
    cur: usize,
}

impl<'a> Iterator for DagIter<'a> {
    type Item = (usize, &'a Instruction);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NONE {
            return None;
        }
        let id = self.cur;
        let node = self.dag.node(id);
        self.cur = node.order_next;
        Some((id, &node.inst))
    }
}

/// Incremental topological scheduler over a [`Dag`], used by routing: nodes
/// become ready once all their wire predecessors have been executed. Ready
/// promotion follows program order (position, not node id), so scheduling
/// is identical for a freshly built and an edit-spliced DAG of the same
/// stream.
#[derive(Clone, Debug)]
pub struct Scheduler<'a> {
    dag: &'a Dag,
    /// Program position per node id at scheduler creation.
    pos: Vec<usize>,
    remaining_preds: Vec<usize>,
    ready: Vec<usize>,
}

impl<'a> Scheduler<'a> {
    /// Node ids whose predecessors have all executed.
    pub fn ready(&self) -> &[usize] {
        &self.ready
    }

    /// Returns `true` when every node has been executed.
    pub fn is_done(&self) -> bool {
        self.ready.is_empty()
    }

    /// Marks `node` executed, removing it from the ready set and promoting
    /// any successors that become ready (in program order).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not currently ready.
    pub fn execute(&mut self, node: usize) {
        let pos = self
            .ready
            .iter()
            .position(|&n| n == node)
            .expect("node must be ready to execute");
        self.ready.swap_remove(pos);
        let n = self.dag.node(node);
        let mut succs: Vec<usize> = Vec::with_capacity(n.wires.len());
        for &(_, ws) in &n.wires {
            if ws != NONE && !succs.contains(&ws) {
                succs.push(ws);
            }
        }
        succs.sort_unstable_by_key(|&s| self.pos[s]);
        for s in succs {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.ready.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    /// Node ids in program order.
    fn order(dag: &Dag) -> Vec<usize> {
        dag.iter().map(|(id, _)| id).collect()
    }

    #[test]
    fn wire_structure() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).h(2);
        let dag = Dag::from_circuit(&c);
        assert_eq!(dag.wire_pred(0, 0), None);
        assert_eq!(dag.wire_pred(1, 0), Some(0));
        assert_eq!(dag.wire_pred(2, 1), Some(1));
        assert_eq!(dag.wire_pred(3, 2), Some(2));
        assert_eq!(dag.wire_succ(0, 0), Some(1));
    }

    #[test]
    fn multi_wire_links_per_wire() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let dag = Dag::from_circuit(&c);
        // Second cx depends on first through both wires.
        assert_eq!(dag.wire_pred(1, 0), Some(0));
        assert_eq!(dag.wire_pred(1, 1), Some(0));
    }

    #[test]
    fn scheduler_executes_in_dependency_order() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).cx(1, 2);
        let dag = Dag::from_circuit(&c);
        let mut s = dag.scheduler();
        let mut order = Vec::new();
        while !s.is_done() {
            let n = s.ready()[0];
            order.push(n);
            s.execute(n);
        }
        assert_eq!(order.len(), 4);
        // cx(0,1) must come after both h gates; cx(1,2) after cx(0,1).
        let pos = |n: usize| order.iter().position(|&x| x == n).unwrap();
        assert!(pos(2) > pos(0) && pos(2) > pos(1));
        assert!(pos(3) > pos(2));
    }

    #[test]
    fn single_qubit_runs_split_by_two_qubit_gates() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).s(0).sdg(1).h(1);
        let dag = Dag::from_circuit(&c);
        let runs = dag.single_qubit_runs();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0], vec![0, 1]); // h,t on qubit 0
        assert_eq!(runs[1], vec![3]); // s on qubit 0 after cx
        assert_eq!(runs[2], vec![4, 5]); // sdg,h on qubit 1
    }

    #[test]
    fn runs_broken_by_directives_and_measure() {
        let mut c = Circuit::new(1);
        c.h(0).barrier().h(0).measure(0);
        let dag = Dag::from_circuit(&c);
        let runs = dag.single_qubit_runs();
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn two_qubit_block_collection_basic() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(0, 1).cx(1, 2);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks(2);
        assert_eq!(blocks.len(), 2);
        // First block: h(0) absorbed + cx, t, cx on (0,1).
        assert_eq!(blocks[0].qubits, vec![0, 1]);
        assert_eq!(blocks[0].nodes, vec![0, 1, 2, 3]);
        // Second block: cx(1,2).
        assert_eq!(blocks[1].qubits, vec![1, 2]);
        assert_eq!(blocks[1].nodes, vec![4]);
    }

    #[test]
    fn blocks_broken_by_three_qubit_gate() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).ccx(0, 1, 2).cx(0, 1);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks(2);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].nodes, vec![0]);
        assert_eq!(blocks[1].nodes, vec![2]);
    }

    #[test]
    fn trailing_one_qubit_gates_stay_in_block() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).h(1);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks(2);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn lone_one_qubit_gates_form_no_block() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let dag = Dag::from_circuit(&c);
        assert!(dag.collect_blocks(2).is_empty());
    }

    #[test]
    fn apply_removes_and_replaces_nodes() {
        use crate::gate::Gate;
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.remove(2); // drop the t
        edit.replace(
            1,
            vec![
                Instruction::new(Gate::H, vec![1]),
                Instruction::new(Gate::Cz, vec![0, 1]),
                Instruction::new(Gate::H, vec![1]),
            ],
        );
        let report = dag.apply(edit);
        assert_eq!(report.rewrites, 2);
        assert!(report.relink_nodes >= 5); // 2 removed + 3 inserted
        assert!(report.touched.contains(0) && report.touched.contains(1));
        assert!(!report.touched.contains(2));
        let names: Vec<&str> = dag.iter().map(|(_, i)| i.gate.name()).collect();
        assert_eq!(names, vec!["h", "h", "cz", "h", "cx"]);
        // Links patched: the final cx depends on the last h through wire 1.
        let ids = order(&dag);
        assert_eq!(dag.wire_pred(ids[4], 1), Some(ids[3]));
        assert_eq!(dag.wire_succ(ids[3], 1), Some(ids[4]));
    }

    #[test]
    fn incremental_relink_matches_fresh_build() {
        use crate::gate::Gate;
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).t(1).cx(1, 2).cx(2, 3).h(3);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.replace(
            3,
            vec![
                Instruction::new(Gate::H, vec![2]),
                Instruction::new(Gate::Cz, vec![1, 2]),
            ],
        );
        edit.remove(0);
        dag.apply(edit);
        let fresh = Dag::from_circuit(&dag.to_circuit());
        assert_links_match_fresh(&dag, &fresh);
    }

    /// Asserts `dag`'s order and wire links equal a freshly built DAG of
    /// the same stream, position by position.
    fn assert_links_match_fresh(dag: &Dag, fresh: &Dag) {
        let ids = order(dag);
        assert_eq!(ids.len(), fresh.len());
        let pos_of = |id: usize| ids.iter().position(|&x| x == id);
        for (p, &id) in ids.iter().enumerate() {
            assert_eq!(dag.inst(id), fresh.inst(p), "instruction at position {p}");
            for &q in &dag.inst(id).qubits {
                assert_eq!(
                    dag.wire_pred(id, q).and_then(pos_of),
                    fresh.wire_pred(p, q),
                    "wire {q} pred of position {p}"
                );
                assert_eq!(
                    dag.wire_succ(id, q).and_then(pos_of),
                    fresh.wire_succ(p, q),
                    "wire {q} succ of position {p}"
                );
            }
        }
    }

    #[test]
    fn freed_ids_are_recycled() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        assert_eq!(dag.capacity(), 3);
        let mut edit = DagEdit::new();
        edit.remove(0);
        dag.apply(edit);
        let mut edit = DagEdit::new();
        edit.replace(1, vec![Instruction::new(crate::gate::Gate::X, vec![1])]);
        dag.apply(edit);
        // The freed slots were reused: no slab growth.
        assert_eq!(dag.capacity(), 3);
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn apply_reports_touched_wires_only() {
        let mut c = Circuit::new(4);
        c.h(0).cx(2, 3);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.remove(1);
        let report = dag.apply(edit);
        assert_eq!(report.touched.iter().collect::<Vec<_>>(), vec![2, 3]);
        // An empty edit touches nothing.
        let report = dag.apply(DagEdit::new());
        assert!(!report.changed());
        assert!(report.touched.is_empty());
    }

    #[test]
    fn edit_on_other_wires_moves_block_membership() {
        // A block is not a function of its own wires: removing cx(2,3)
        // touches only wires 2 and 3, yet t(1) leaves the (0, 1) block,
        // because it now joins the still-open (1, 2) block instead.
        let mut c = Circuit::new(4);
        c.cx(1, 2).cx(2, 3).t(1).cx(0, 1).h(1).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let nodes_on = |dag: &Dag, qubits: [usize; 2]| {
            let blocks = dag.collect_blocks(2);
            let block = blocks.iter().find(|b| b.qubits == qubits);
            block.map(|b| b.nodes.clone()).unwrap_or_default()
        };
        assert_eq!(nodes_on(&dag, [0, 1]), vec![2, 3, 4, 5]);
        assert_eq!(nodes_on(&dag, [1, 2]), vec![0]);
        let mut edit = DagEdit::new();
        edit.remove(1);
        let report = dag.apply(edit);
        assert_eq!(report.touched.iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(nodes_on(&dag, [0, 1]), vec![3, 4, 5]);
        assert_eq!(nodes_on(&dag, [1, 2]), vec![0, 2]);
    }

    #[test]
    fn wire_class_census_tracks_edits() {
        use gate_class::*;
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let mut dag = Dag::from_circuit(&c);
        assert_ne!(dag.wire_class_mask(0) & SELF_INVERSE, 0);
        assert_ne!(dag.wire_class_mask(0) & CX, 0);
        assert_ne!(dag.wire_class_mask(1) & ONE_Q_DIAG, 0);
        // Remove the t: wire 1 keeps the cx, loses the diagonal class.
        let mut edit = DagEdit::new();
        edit.remove(2);
        dag.apply(edit);
        assert_eq!(dag.wire_class_mask(1) & ONE_Q_DIAG, 0);
        assert_ne!(dag.wire_class_mask(1) & CX, 0);
        // Replace the h with a u2: the self-inverse class leaves wire 0.
        let mut edit = DagEdit::new();
        edit.replace(
            0,
            vec![Instruction::new(
                Gate::U2(0.0, std::f64::consts::PI),
                vec![0],
            )],
        );
        dag.apply(edit);
        assert_eq!(dag.wire_class_mask(0) & SELF_INVERSE, 0);
        assert_ne!(dag.wire_class_mask(0) & ONE_Q, 0);
    }

    #[test]
    fn instruction_class_bits() {
        use gate_class::*;
        let classes =
            |g: Gate, qs: &[usize]| instruction_classes(&Instruction::new(g, qs.to_vec()));
        assert_eq!(
            classes(Gate::T, &[0]),
            ONE_Q | ONE_Q_DIAG | NON_DEVICE | NON_EXTENDED
        );
        assert_eq!(classes(Gate::Cx, &[0, 1]), CX | TWO_Q);
        assert_eq!(
            classes(Gate::Swap, &[0, 1]),
            TWO_Q | SWAP_FAMILY | NON_DEVICE
        );
        assert_eq!(classes(Gate::U3(0.1, 0.2, 0.3), &[0]), ONE_Q);
        assert_eq!(
            classes(Gate::Ccx, &[0, 1, 2]),
            MULTI_Q | NON_DEVICE | NON_EXTENDED
        );
        assert_eq!(classes(Gate::Measure, &[0]), NON_UNITARY);
    }

    #[test]
    fn replace_all_rewrites_stream_and_width() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let report = dag.replace_all(
            3,
            vec![
                Instruction::new(crate::gate::Gate::X, vec![2]),
                Instruction::new(crate::gate::Gate::Cx, vec![2, 0]),
            ],
        );
        assert!(report.changed());
        assert_eq!(dag.num_qubits(), 3);
        assert_eq!(dag.len(), 2);
        assert_eq!(report.touched, WireSet::full(3));
    }

    #[test]
    fn conversion_counters_count_both_directions() {
        reset_conversion_counts();
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dag = Dag::from_circuit(&c);
        let back = dag.to_circuit();
        assert_eq!(back, c);
        assert_eq!(conversion_counts(), (1, 1));
        reset_conversion_counts();
        assert_eq!(conversion_counts(), (0, 0));
    }

    #[test]
    fn gate_counts_match_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).ccx(0, 1, 2).measure_all();
        let dag = Dag::from_circuit(&c);
        assert_eq!(dag.gate_counts(), c.gate_counts());
    }
}
