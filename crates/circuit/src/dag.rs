//! The transpiler's shared mutable IR: a dependency-DAG view of a circuit.
//!
//! The instruction list of a [`Circuit`] is already a topological order;
//! [`Dag`] adds the wire structure on top of it: per-node predecessors and
//! successors along qubit wires, a ready-set scheduler (used by the routing
//! pass), and two-qubit block collection ([`Dag::collect_blocks`], the
//! `Collect2qBlocks` analogue used by `ConsolidateBlocks` and QPO).
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
//! * A node's operands and its wire links are [`SmallList`]s, inline for up
//!   to three qubits, so building or splicing in a node of at most three
//!   qubits allocates nothing beyond its slab slot.
//! * [`Dag::apply`] keeps its working lists (the new ids of a splice, its
//!   wire runs, the removed node's links and the bitmap of nodes edited in
//!   the batch) in buffers the DAG owns and reuses. They are not DAG state:
//!   a clone starts them empty and `Debug` does not show them.
//!
//! The [`ChangeReport`] returned by `apply` is the currency of the
//! change-driven fixed-point loop: a pass that reports no rewrites is
//! skipped until another pass rewrites the DAG, and its `relink_nodes`
//! field counts the nodes whose links the splice patched (the observable
//! for the O(edit) claim). Passes compute what they read (blocks, state
//! analyses) from the DAG in front of them; the DAG maintains no derived
//! data beyond its links.
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
//! The scalars (`len`, head, tail, width) are snapshotted at open.
//! Rollback replays the log backwards, so node ids and free-list order
//! come back exactly. [`Dag::commit_journal`] drops the journal and keeps
//! the edits. Journals do not nest.

use crate::circuit::{gate_counts_over, Circuit, GateCounts, Instruction};
use crate::gate::Gate;
use crate::small_list::SmallList;
use std::cell::Cell;
use std::fmt;

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

/// Basis-membership bits of an instruction ([`instruction_classes`]): the
/// `Unroller` names its target basis by the bit of the gates it
/// decomposes.
pub mod gate_class {
    /// Unitary gates outside the device basis `{u1,u2,u3,id,cx}`.
    pub const NON_DEVICE: u16 = 1 << 0;
    /// Unitary gates outside the extended basis (device ∪ `{swap,swapz}`).
    pub const NON_EXTENDED: u16 = 1 << 1;
}

/// The [`gate_class`] bits of one instruction; non-unitary instructions
/// (measure, reset, barriers, annotations) are in every basis.
pub fn instruction_classes(inst: &Instruction) -> u16 {
    use gate_class::*;
    match &inst.gate {
        g if !g.is_unitary_gate() => 0,
        Gate::I | Gate::U1(_) | Gate::U2(..) | Gate::U3(..) | Gate::Cx => 0,
        Gate::Swap | Gate::SwapZ => NON_DEVICE,
        _ => NON_DEVICE | NON_EXTENDED,
    }
}

/// What a pass did to the DAG: how many nodes it rewrote and how many
/// nodes the splices relinked. A report with rewrites re-dirties every
/// pass of the fixed-point driver; one with zero rewrites dirties nothing.
#[derive(Clone, Debug)]
pub struct ChangeReport {
    /// Number of edit operations applied (removals + replacements).
    pub rewrites: usize,
    /// Nodes whose link fields the splice-local relink rewrote (removed
    /// nodes, inserted nodes, and the chain neighbours patched around
    /// them) — the per-edit work measure of the O(edit) relink.
    pub relink_nodes: usize,
}

impl ChangeReport {
    /// A report of no changes.
    pub fn none() -> Self {
        ChangeReport {
            rewrites: 0,
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
    wires: Links,
}

/// The wire links of a node, inline for up to three qubits like its
/// operands.
type Links = SmallList<(usize, usize), 3>;

/// `(wire, first, last)` for a wire of a splice: the first and last of its
/// inserted nodes, or the removed node's `(pred, succ)` on it.
type WireRun = (usize, usize, usize);

/// Working lists of [`Dag::apply`], kept between calls so a splice
/// allocates nothing once they have grown. Not DAG state: a clone starts
/// empty and `Debug` prints none of it.
#[derive(Default)]
struct Scratch {
    /// One bit per node id: edited in the current batch.
    edited: Vec<u64>,
    /// Ids of the nodes a splice inserted, in order.
    new_ids: Vec<usize>,
    /// Per wire of the inserted nodes: its first and last inserted node.
    runs: Vec<WireRun>,
    /// Per wire of the removed node: its `(pred, succ)`.
    removed: Vec<WireRun>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl fmt::Debug for Scratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Scratch")
    }
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
    /// The open undo journal, if any.
    journal: Option<Box<Journal>>,
    scratch: Scratch,
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
            journal: None,
            scratch: Scratch::default(),
        };
        dag.rebuild(circuit.instructions().to_vec());
        dag
    }

    /// Dense slab construction from an instruction stream: id `i` is the
    /// `i`-th instruction. Resets the free list.
    fn rebuild(&mut self, insts: Vec<Instruction>) {
        let n = insts.len();
        self.free.clear();
        self.len = n;
        self.head = if n == 0 { NONE } else { 0 };
        self.tail = if n == 0 { NONE } else { n - 1 };
        self.slots = insts
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                let wires = std::iter::repeat_n((NONE, NONE), inst.qubits.len()).collect::<Links>();
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

    /// The instruction of node `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a live node.
    pub fn inst(&self, id: usize) -> &Instruction {
        &self.node(id).inst
    }

    /// Full structural self-check: program-order links, per-wire links and
    /// free-list/slab agreement. Returns a description of the first
    /// violation.
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
        // wire.
        let mut last_on_wire = vec![NONE; self.num_qubits];
        for &id in &order {
            let node = self.slots[id].as_ref().expect("walked above");
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
        let wires = std::iter::repeat_n((NONE, NONE), inst.qubits.len()).collect::<Links>();
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
    /// restoring that state exactly: contents, node ids and free-list
    /// order. Works on a DAG left half-spliced by a panic inside
    /// [`Dag::apply`].
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
    }

    /// Gate statistics over the current nodes (same accounting as
    /// [`Circuit::gate_counts`]).
    pub fn gate_counts(&self) -> GateCounts {
        gate_counts_over(self.slots.iter().flatten().map(|n| &n.inst))
    }

    /// Applies a batched edit: removals and replacements splice in at
    /// their node's position, patching only the order links and wire
    /// chains around each splice (O(edit) amortized). Freed node ids are
    /// recycled for later insertions.
    ///
    /// # Panics
    ///
    /// Panics if an edit references a node twice or a dead/out-of-range id,
    /// or if a replacement instruction uses an out-of-range qubit.
    pub fn apply(&mut self, edit: DagEdit) -> ChangeReport {
        if edit.is_empty() {
            return ChangeReport::none();
        }
        let mut ops = edit.ops;
        let rewrites = ops.len();
        let mut relink_nodes = 0usize;
        // Taken out for the batch: a panic mid-splice drops it, so no stale
        // bit outlives the batch.
        let mut scratch = std::mem::take(&mut self.scratch);
        for (node, op) in &mut ops {
            let node = *node;
            let edited = bit(&scratch.edited, node);
            assert!(
                node < self.slots.len() && self.slots[node].is_some() || edited,
                "edit references node {node} out of range"
            );
            assert!(
                !edited && self.slots[node].is_some(),
                "node {node} edited twice in one batch"
            );
            set_bit(&mut scratch.edited, node, true);
            relink_nodes += self.splice(node, op.take().unwrap_or_default(), &mut scratch);
        }
        for &(node, _) in &ops {
            set_bit(&mut scratch.edited, node, false);
        }
        self.scratch = scratch;
        ChangeReport {
            rewrites,
            relink_nodes,
        }
    }

    /// Replaces node `node_id` with `insts` (possibly empty), patching the
    /// order list and the wire chains locally. Returns the number of nodes
    /// whose links were rewritten.
    fn splice(&mut self, node_id: usize, insts: Vec<Instruction>, scratch: &mut Scratch) -> usize {
        let removed = self.slots[node_id].take().expect("live node id");
        let (left, right) = (removed.order_prev, removed.order_next);
        // `(wire, pred, succ)` triples of the removed node.
        let removed_wires = &mut scratch.removed;
        removed_wires.clear();
        removed_wires.extend(
            removed
                .inst
                .qubits
                .iter()
                .zip(&removed.wires)
                .map(|(&q, &(p, s))| (q, p, s)),
        );
        self.retire(node_id, removed);
        self.len -= 1;
        let mut relinked = 1usize;
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
        let new_ids = &mut scratch.new_ids;
        new_ids.clear();
        let mut cursor = left;
        for inst in insts {
            for &q in &inst.qubits {
                assert!(
                    q < self.num_qubits,
                    "replacement qubit {q} out of range for {}-qubit dag",
                    self.num_qubits
                );
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
        let runs = &mut scratch.runs;
        runs.clear();
        for &id in new_ids.iter() {
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
        for &(q, first, last) in runs.iter() {
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
        for &(q, wp, wn) in removed_wires.iter() {
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
    /// reconstruct the circuit rather than rewrite nodes in place.
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
            relink_nodes,
        }
    }

    /// Creates a scheduler whose ready set starts at the DAG's sources.
    pub fn scheduler(&self) -> Scheduler<'_> {
        let cap = self.capacity();
        let mut pos = vec![NONE; cap];
        let mut remaining_preds = vec![0usize; cap];
        let mut slot = vec![NONE; cap];
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
                slot[id] = ready.len();
                ready.push(id);
            }
        }
        Scheduler {
            dag: self,
            pos,
            remaining_preds,
            ready,
            slot,
            succs: Vec::new(),
        }
    }

    /// Collects maximal blocks of unitary gates confined to one qubit
    /// pair, each anchored by at least one two-qubit gate: single-qubit
    /// gates preceding a block on its wires are absorbed into it. Blocks
    /// are returned sorted by program position, each block's node ids in
    /// program order.
    ///
    /// Per wire the walk keeps the open block that owns it and the pending
    /// single-qubit gates waiting for a two-qubit anchor. A two-qubit gate
    /// joins the block that owns both its wires, or else opens a new one
    /// with the pending gates of both. Any other gate on a wire (a foreign
    /// pair, a wider gate, a directive or a non-unitary) closes the
    /// wire's block on both of its wires. A closed block accepts nothing
    /// more, so every block node lies before anything that interrupts the
    /// block, and a rewrite may stand at the block's last node.
    pub fn collect_blocks(&self) -> Vec<Block> {
        let mut blocks: Vec<Block> = Vec::new();
        let mut owner: Vec<Option<usize>> = vec![None; self.num_qubits];
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); self.num_qubits];
        // Program position per node id (ids carry no order meaning).
        let mut pos_of = vec![0usize; self.capacity()];
        let close = |owner: &mut [Option<usize>], blocks: &[Block], q: usize| {
            if let Some(b) = owner[q] {
                for w in blocks[b].qubits {
                    owner[w] = None;
                }
            }
        };
        for (pos, (id, inst)) in self.iter().enumerate() {
            pos_of[id] = pos;
            let unitary = inst.gate.is_unitary_gate() && !inst.gate.is_directive();
            match inst.qubits[..] {
                [q] if unitary => match owner[q] {
                    Some(b) => blocks[b].nodes.push(id),
                    None => pending[q].push(id),
                },
                [a, b] if unitary => match (owner[a], owner[b]) {
                    (Some(x), Some(y)) if x == y => blocks[x].nodes.push(id),
                    _ => {
                        close(&mut owner, &blocks, a);
                        close(&mut owner, &blocks, b);
                        let mut nodes = Vec::new();
                        nodes.append(&mut pending[a]);
                        nodes.append(&mut pending[b]);
                        nodes.push(id);
                        owner[a] = Some(blocks.len());
                        owner[b] = Some(blocks.len());
                        blocks.push(Block {
                            qubits: [a, b],
                            nodes,
                        });
                    }
                },
                ref qubits => {
                    for &q in qubits {
                        pending[q].clear();
                        close(&mut owner, &blocks, q);
                    }
                }
            }
        }
        for block in &mut blocks {
            block.nodes.sort_unstable_by_key(|&id| pos_of[id]);
        }
        blocks.sort_by_key(|b| pos_of[b.nodes[0]]);
        blocks
    }
}

/// A two-qubit block over node ids: the product of [`Dag::collect_blocks`],
/// consumed by `ConsolidateBlocks` and QPO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The block's wires, in the operand order of its first two-qubit gate
    /// (the local bit order of the block's matrix).
    pub qubits: [usize; 2],
    /// Node ids in program order. At least one two-qubit gate.
    pub nodes: Vec<usize>,
}

/// Bit `i` of a bitmap; bits past its end read as clear.
fn bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Sets bit `i` of a bitmap to `on`, growing it as needed.
fn set_bit(bits: &mut Vec<u64>, i: usize, on: bool) {
    if bits.len() <= i / 64 {
        bits.resize(i / 64 + 1, 0);
    }
    let mask = 1 << (i % 64);
    if on {
        bits[i / 64] |= mask;
    } else {
        bits[i / 64] &= !mask;
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
/// become ready once all their wire predecessors have been executed.
///
/// # Ready order
///
/// Routing executes ready nodes in [`Scheduler::ready`] order and builds
/// its SWAP candidates from it, so its output depends on that order, and
/// the order is a contract:
///
/// * the initial ready list holds the DAG's sources in program order;
/// * [`Scheduler::execute`] removes the node the way `Vec::swap_remove`
///   does at the node's index: the last ready node moves into its place;
/// * it then appends the node's distinct successors that became ready, in
///   program order (position at scheduler creation, not node id), so
///   scheduling is identical for a freshly built and an edit-spliced DAG
///   of the same stream.
///
/// `execute` costs O(arity): a per-node slot index locates the node in the
/// ready list, and one successor buffer is reused across calls. To restart
/// from the sources, clone a scheduler that has not executed anything.
#[derive(Clone, Debug)]
pub struct Scheduler<'a> {
    dag: &'a Dag,
    /// Program position per node id at scheduler creation.
    pos: Vec<usize>,
    remaining_preds: Vec<usize>,
    ready: Vec<usize>,
    /// Index in `ready` per node id; `NONE` while the node is not ready.
    slot: Vec<usize>,
    /// Successor scratch of `execute`.
    succs: Vec<usize>,
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
        let i = self.slot.get(node).copied().unwrap_or(NONE);
        assert!(i != NONE, "node must be ready to execute");
        self.slot[node] = NONE;
        self.ready.swap_remove(i);
        if let Some(&moved) = self.ready.get(i) {
            self.slot[moved] = i;
        }
        self.succs.clear();
        for &(_, ws) in &self.dag.node(node).wires {
            if ws != NONE && !self.succs.contains(&ws) {
                self.succs.push(ws);
            }
        }
        let pos = &self.pos;
        self.succs.sort_unstable_by_key(|&s| pos[s]);
        for &s in &self.succs {
            self.remaining_preds[s] -= 1;
            if self.remaining_preds[s] == 0 {
                self.slot[s] = self.ready.len();
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

    /// The ready order [`Scheduler`] promises, modelled in the plainest
    /// way: remove the executed node at its linear `position` with
    /// `swap_remove`, then push each distinct successor whose last
    /// predecessor ran, in program order.
    struct ReadyModel {
        pos: Vec<usize>,
        remaining: Vec<usize>,
        ready: Vec<usize>,
    }

    impl ReadyModel {
        fn new(dag: &Dag) -> Self {
            let mut pos = vec![NONE; dag.capacity()];
            let mut remaining = vec![0; dag.capacity()];
            let mut ready = Vec::new();
            for (p, (id, inst)) in dag.iter().enumerate() {
                pos[id] = p;
                let mut preds: Vec<usize> = inst
                    .qubits
                    .iter()
                    .filter_map(|&q| dag.wire_pred(id, q))
                    .collect();
                preds.sort_unstable();
                preds.dedup();
                remaining[id] = preds.len();
                if preds.is_empty() {
                    ready.push(id);
                }
            }
            ReadyModel {
                pos,
                remaining,
                ready,
            }
        }

        fn execute(&mut self, dag: &Dag, node: usize) {
            let i = self.ready.iter().position(|&n| n == node).unwrap();
            self.ready.swap_remove(i);
            let mut succs: Vec<usize> = dag
                .inst(node)
                .qubits
                .iter()
                .filter_map(|&q| dag.wire_succ(node, q))
                .collect();
            succs.sort_unstable_by_key(|&s| self.pos[s]);
            succs.dedup();
            for s in succs {
                self.remaining[s] -= 1;
                if self.remaining[s] == 0 {
                    self.ready.push(s);
                }
            }
        }
    }

    /// Drives the scheduler and the model over `dag`, executing a
    /// seeded-random ready node at each step, and checks the ready lists
    /// agree before every step.
    fn assert_scheduler_matches_model(dag: &Dag, seed: u64) {
        let mut rng = crate::testing::SplitMix64::new(seed);
        let mut sched = dag.scheduler();
        let mut model = ReadyModel::new(dag);
        let mut executed = 0usize;
        loop {
            assert_eq!(sched.ready(), &model.ready[..], "after {executed} steps");
            if sched.is_done() {
                break;
            }
            let node = sched.ready()[rng.below(sched.ready().len())];
            sched.execute(node);
            model.execute(dag, node);
            executed += 1;
        }
        assert_eq!(executed, dag.len());
    }

    #[test]
    fn scheduler_ready_order_matches_model() {
        use crate::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
        let mut dags = Vec::new();
        for seed in 0..6u64 {
            dags.push(Dag::from_circuit(&random_circuit(5, 80, seed)));
            dags.push(Dag::from_circuit(&blocked_neighborhood_circuit(
                4,
                30,
                seed + 100,
            )));
        }
        for n in [3, 6, 9] {
            dags.push(Dag::from_circuit(&toffoli_chain(n, n as u64)));
        }
        // Edit-spliced DAGs: replacements append ids past the stream and
        // later insertions recycle freed ones, so ids and program order
        // disagree.
        for seed in 0..4u64 {
            let mut dag = Dag::from_circuit(&random_circuit(6, 60, seed + 200));
            for round in 0..2 {
                let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
                let mut edit = DagEdit::new();
                for (k, &id) in ids.iter().enumerate() {
                    if (k + round) % 7 == 0 {
                        edit.remove(id);
                    } else if (k + round) % 5 == 0 {
                        let inst = dag.inst(id).clone();
                        edit.replace(id, vec![inst.clone(), inst]);
                    }
                }
                dag.apply(edit);
            }
            dag.check_invariants().unwrap();
            assert!(order(&dag).windows(2).any(|w| w[0] > w[1]));
            dags.push(dag);
        }
        for (i, dag) in dags.iter().enumerate() {
            for seed in 0..3u64 {
                assert_scheduler_matches_model(dag, 1000 * i as u64 + seed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "node must be ready to execute")]
    fn executing_a_node_that_is_not_ready_panics() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let dag = Dag::from_circuit(&c);
        let mut s = dag.scheduler();
        s.execute(1);
    }

    #[test]
    fn two_qubit_block_collection_basic() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(0, 1).cx(1, 2);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks();
        assert_eq!(blocks.len(), 2);
        // First block: h(0) absorbed + cx, t, cx on (0,1).
        assert_eq!(blocks[0].qubits, [0, 1]);
        assert_eq!(blocks[0].nodes, vec![0, 1, 2, 3]);
        // Second block: cx(1,2).
        assert_eq!(blocks[1].qubits, [1, 2]);
        assert_eq!(blocks[1].nodes, vec![4]);
    }

    #[test]
    fn blocks_broken_by_three_qubit_gate() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).ccx(0, 1, 2).cx(0, 1);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].nodes, vec![0]);
        assert_eq!(blocks[1].nodes, vec![2]);
    }

    #[test]
    fn trailing_one_qubit_gates_stay_in_block() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).h(0).h(1);
        let dag = Dag::from_circuit(&c);
        let blocks = dag.collect_blocks();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn a_foreign_gate_closes_the_block_on_both_wires() {
        // cx(0, 3) takes wire 0 from the (0, 2) block, which closes it on
        // wire 2 as well: the later h(2) may not join it, since the block's
        // rewrite stands at its last node, after the cx(0, 3) would be.
        let mut c = Circuit::new(4);
        c.cx(0, 2).cx(0, 3).h(2);
        let blocks = Dag::from_circuit(&c).collect_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].qubits, &blocks[0].nodes[..]), ([0, 2], &[0][..]));
        assert_eq!((blocks[1].qubits, &blocks[1].nodes[..]), ([0, 3], &[1][..]));
    }

    #[test]
    fn lone_one_qubit_gates_form_no_block() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let dag = Dag::from_circuit(&c);
        assert!(dag.collect_blocks().is_empty());
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
        let names: Vec<&str> = dag.iter().map(|(_, i)| i.gate.name()).collect();
        assert_eq!(names, vec!["h", "h", "cz", "h", "cx"]);
        // Links patched: the final cx depends on the last h through wire 1.
        let ids = order(&dag);
        assert_eq!(dag.wire_pred(ids[4], 1), Some(ids[3]));
        assert_eq!(dag.wire_succ(ids[3], 1), Some(ids[4]));
    }

    #[test]
    #[should_panic(expected = "node 0 edited twice in one batch")]
    fn apply_rejects_a_node_named_twice() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.remove(0);
        edit.remove(0);
        dag.apply(edit);
    }

    #[test]
    #[should_panic(expected = "node 1 edited twice in one batch")]
    fn apply_rejects_a_node_named_again_after_its_id_was_recycled() {
        // Removing node 1 frees its id; replacing node 0 by two gates frees
        // id 0 and takes ids 0 and 1 back, so slot 1 is live again when
        // the edit names it.
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.remove(1);
        edit.replace(
            0,
            vec![
                Instruction::new(Gate::X, vec![0]),
                Instruction::new(Gate::H, vec![0]),
            ],
        );
        edit.remove(1);
        dag.apply(edit);
    }

    #[test]
    #[should_panic(expected = "edit references node 3 out of range")]
    fn apply_rejects_an_out_of_range_node() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let mut edit = DagEdit::new();
        edit.remove(3);
        dag.apply(edit);
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
    fn edit_on_other_wires_moves_block_membership() {
        // A block is not a function of its own wires: removing cx(2,3)
        // touches only wires 2 and 3, yet t(1) leaves the (0, 1) block,
        // because it now joins the still-open (1, 2) block instead.
        let mut c = Circuit::new(4);
        c.cx(1, 2).cx(2, 3).t(1).cx(0, 1).h(1).cx(0, 1);
        let mut dag = Dag::from_circuit(&c);
        let nodes_on = |dag: &Dag, qubits: [usize; 2]| {
            let blocks = dag.collect_blocks();
            let block = blocks.iter().find(|b| b.qubits == qubits);
            block.map(|b| b.nodes.clone()).unwrap_or_default()
        };
        assert_eq!(nodes_on(&dag, [0, 1]), vec![2, 3, 4, 5]);
        assert_eq!(nodes_on(&dag, [1, 2]), vec![0]);
        let mut edit = DagEdit::new();
        edit.remove(1);
        dag.apply(edit);
        assert_eq!(nodes_on(&dag, [0, 1]), vec![3, 4, 5]);
        assert_eq!(nodes_on(&dag, [1, 2]), vec![0, 2]);
    }

    #[test]
    fn instruction_class_bits() {
        use gate_class::*;
        use qc_math::Matrix;
        let every_gate = [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.1),
            Gate::Ry(0.2),
            Gate::Rz(0.3),
            Gate::U1(0.4),
            Gate::U2(0.5, 0.6),
            Gate::U3(0.7, 0.8, 0.9),
            Gate::Cx,
            Gate::Cz,
            Gate::Cp(1.0),
            Gate::Swap,
            Gate::SwapZ,
            Gate::Ccx,
            Gate::Cswap,
            Gate::Mcx(3),
            Gate::Mcz(2),
            Gate::Cu(Matrix::identity(2)),
            Gate::Unitary(Matrix::identity(4)),
            Gate::Reset,
            Gate::Measure,
            Gate::Barrier(2),
            Gate::Annot(0.1, 0.2),
        ];
        let device = ["u1", "u2", "u3", "id", "cx"];
        let extended = ["u1", "u2", "u3", "id", "cx", "swap", "swapz"];
        let non_unitary = ["reset", "measure", "barrier", "annot"];
        for g in &every_gate {
            // Exhaustive: a new `Gate` variant fails to compile here until
            // it is added to `every_gate` and, if it belongs to a basis,
            // to the name lists.
            match g {
                Gate::I
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::H
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rx(_)
                | Gate::Ry(_)
                | Gate::Rz(_)
                | Gate::U1(_)
                | Gate::U2(..)
                | Gate::U3(..)
                | Gate::Cx
                | Gate::Cz
                | Gate::Cp(_)
                | Gate::Swap
                | Gate::SwapZ
                | Gate::Ccx
                | Gate::Cswap
                | Gate::Mcx(_)
                | Gate::Mcz(_)
                | Gate::Cu(_)
                | Gate::Unitary(_)
                | Gate::Reset
                | Gate::Measure
                | Gate::Barrier(_)
                | Gate::Annot(..) => {}
            }
            let name = g.name();
            let qubits: crate::Qubits = (0..g.num_qubits()).collect();
            let classes = instruction_classes(&Instruction::new(g.clone(), qubits));
            if non_unitary.contains(&name) {
                assert_eq!(classes, 0, "{name} is in every basis");
                continue;
            }
            let in_device = classes & NON_DEVICE == 0;
            let in_extended = classes & NON_EXTENDED == 0;
            assert_eq!(in_device, device.contains(&name), "{name}: device basis");
            assert_eq!(
                in_extended,
                extended.contains(&name),
                "{name}: extended basis"
            );
        }
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
