//! Streaming detection of mergeable gate neighborhoods ("blocks") for the
//! fusion planner ([`crate::fusion`]).
//!
//! The planner walks a gate stream in program order and asks of each gate:
//! *can it be folded into an earlier block, or must it start (or break)
//! one?* It grows dense k≤3 kernel blocks in-stream: a gate joins the most
//! recent dense block when every qubit it shares with the block is
//! unperturbed since the block was emitted and every qubit it adds is
//! untouched since then. (The two-qubit blocks of `ConsolidateBlocks` and
//! QPO come from [`crate::Dag::collect_blocks`], a simpler walk that closes
//! a block as soon as anything else touches one of its wires.)
//!
//! [`BlockTracker`] is that membership machine. It knows nothing about
//! matrices or cost models: the planner asks for
//! [`BlockTracker::membership`], applies its cost model, and reports back
//! with [`BlockTracker::open`], [`BlockTracker::extend`] or
//! [`BlockTracker::touch`].
//!
//! # Soundness
//!
//! The tracker maintains, per qubit `q`:
//!
//! * `last_block[q]` — the open block that owns `q`, meaning **no recorded
//!   action after that block's position touches `q`**;
//! * `last_touch[q]` — the stream position of the last recorded action on
//!   `q` (block-absorbed gates count at the *block's* position, since that
//!   is where they land in the rewritten stream).
//!
//! A gate may fold into block `B` at position `p` exactly when nothing
//! recorded after `p` touches any of its qubits — then it commutes (by
//! qubit disjointness) with everything between `p` and the present, so
//! relocating it to `p` preserves the operator. [`BlockTracker::membership`]
//! checks precisely that invariant.

/// The answer to "where does a gate on these qubits belong?".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Membership {
    /// The gate can fold into open block `block`; `new_qubits` lists the
    /// gate qubits the block does not yet span (empty for a pure absorb).
    /// The caller must confirm with [`BlockTracker::extend`] (when growing)
    /// or decline with [`BlockTracker::touch`]/[`BlockTracker::open`].
    Join {
        /// Identifier returned by [`BlockTracker::open`].
        block: usize,
        /// Gate qubits not yet spanned by the block, in gate order.
        new_qubits: Vec<usize>,
    },
    /// No open block can absorb the gate.
    Outside,
}

/// Streaming block-membership tracker (see the module docs).
#[derive(Clone, Debug)]
pub struct BlockTracker {
    max_arity: usize,
    /// Per block: spanned qubits and the stream position it was opened at.
    blocks: Vec<(Vec<usize>, usize)>,
    /// Per qubit: the open block owning it (`None` once anything else
    /// touches the qubit).
    last_block: Vec<Option<usize>>,
    /// Per qubit: position of the last recorded action.
    last_touch: Vec<Option<usize>>,
}

impl BlockTracker {
    /// A per-wire tracker for `num_qubits` wires growing blocks up to
    /// `max_arity` qubits: a block that loses one wire keeps accepting
    /// gates on its remaining wires. Sound because the planner folds joined
    /// gates back **at the block's stream position** (it back-patches the
    /// emitted kernel op's matrix).
    pub fn new(num_qubits: usize, max_arity: usize) -> Self {
        BlockTracker {
            max_arity,
            blocks: Vec::new(),
            last_block: vec![None; num_qubits],
            last_touch: vec![None; num_qubits],
        }
    }

    /// Whether a gate on `qubits` can fold into an open block. Read-only:
    /// the caller decides and then records its decision.
    pub fn membership(&self, qubits: &[usize]) -> Membership {
        // Candidate: the most recently opened block owning any gate qubit.
        let Some(cand) = qubits.iter().filter_map(|&q| self.last_block[q]).max() else {
            return Membership::Outside;
        };
        let (block_qubits, pos) = &self.blocks[cand];
        let mut new_qubits = Vec::new();
        for &q in qubits {
            if block_qubits.contains(&q) {
                if self.last_block[q] != Some(cand) {
                    // The block once spanned q but something stole it since.
                    return Membership::Outside;
                }
            } else if self.last_touch[q].is_some_and(|t| t >= *pos) {
                // q was acted on after the block's position: folding the
                // gate back would reorder it across that action.
                return Membership::Outside;
            } else {
                new_qubits.push(q);
            }
        }
        if block_qubits.len() + new_qubits.len() > self.max_arity {
            return Membership::Outside;
        }
        Membership::Join {
            block: cand,
            new_qubits,
        }
    }

    /// Opens a new block on `qubits` at stream position `pos`, claiming its
    /// wires. Returns the block id used by [`Membership::Join`].
    pub fn open(&mut self, qubits: &[usize], pos: usize) -> usize {
        let id = self.blocks.len();
        for &q in qubits {
            self.last_block[q] = Some(id);
            self.last_touch[q] = Some(pos);
        }
        self.blocks.push((qubits.to_vec(), pos));
        id
    }

    /// Grows `block` by `new_qubits` (from a [`Membership::Join`]); the new
    /// wires are claimed at the block's original position, since that is
    /// where their gates now land.
    pub fn extend(&mut self, block: usize, new_qubits: &[usize]) {
        let pos = self.blocks[block].1;
        for &q in new_qubits {
            debug_assert!(
                !self.blocks[block].0.contains(&q),
                "qubit {q} already in block"
            );
            self.blocks[block].0.push(q);
            self.last_block[q] = Some(block);
            self.last_touch[q] = Some(pos);
        }
        debug_assert!(self.blocks[block].0.len() <= self.max_arity);
    }

    /// Records a non-foldable action on `qubits` at position `pos`,
    /// releasing any block ownership of those wires.
    pub fn touch(&mut self, qubits: &[usize], pos: usize) {
        for &q in qubits {
            self.last_block[q] = None;
            self.last_touch[q] = Some(pos);
        }
    }

    /// The qubits spanned by `block`, in first-claimed order (the block's
    /// local bit order for matrix-building callers).
    pub fn block_qubits(&self, block: usize) -> &[usize] {
        &self.blocks[block].0
    }

    /// The stream position `block` was opened at.
    pub fn block_pos(&self, block: usize) -> usize {
        self.blocks[block].1
    }

    /// The open block currently owning qubit `q`, if any.
    pub fn owner(&self, q: usize) -> Option<usize> {
        self.last_block[q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pair_joins_either_orientation() {
        let mut t = BlockTracker::new(3, 2);
        let b = t.open(&[0, 1], 0);
        assert_eq!(
            t.membership(&[1, 0]),
            Membership::Join {
                block: b,
                new_qubits: vec![]
            }
        );
        assert_eq!(
            t.membership(&[0, 1]),
            Membership::Join {
                block: b,
                new_qubits: vec![]
            }
        );
    }

    #[test]
    fn touch_releases_ownership() {
        let mut t = BlockTracker::new(3, 2);
        t.open(&[0, 1], 0);
        t.touch(&[1, 2], 1);
        assert_eq!(t.membership(&[0, 1]), Membership::Outside);
        // Qubit 0 alone is still owned.
        assert!(matches!(t.membership(&[0]), Membership::Join { .. }));
    }

    #[test]
    fn growth_requires_untouched_new_wire() {
        let mut t = BlockTracker::new(4, 3);
        let b = t.open(&[0, 1], 5);
        // Qubit 2 untouched: may grow the block.
        assert_eq!(
            t.membership(&[1, 2]),
            Membership::Join {
                block: b,
                new_qubits: vec![2]
            }
        );
        // Qubit 3 touched *after* the block opened: may not.
        t.touch(&[3], 6);
        assert_eq!(t.membership(&[1, 3]), Membership::Outside);
        // Touched before the block opened is fine.
        let mut t = BlockTracker::new(4, 3);
        t.touch(&[3], 2);
        let b = t.open(&[0, 1], 5);
        assert_eq!(
            t.membership(&[1, 3]),
            Membership::Join {
                block: b,
                new_qubits: vec![3]
            }
        );
    }

    #[test]
    fn arity_cap_stops_growth() {
        let mut t = BlockTracker::new(4, 3);
        let b = t.open(&[0, 1], 0);
        t.extend(b, &[2]);
        assert_eq!(t.block_qubits(b), &[0, 1, 2]);
        assert_eq!(t.membership(&[2, 3]), Membership::Outside);
        assert!(matches!(t.membership(&[2, 0]), Membership::Join { .. }));
    }

    #[test]
    fn newer_block_wins_between_two_owners() {
        let mut t = BlockTracker::new(4, 3);
        t.open(&[0, 1], 0);
        let b2 = t.open(&[2, 3], 1);
        // Qubit 1 belongs to the older block and is untouched since before
        // the newer one opened: it may migrate into the newer block.
        assert_eq!(
            t.membership(&[1, 2]),
            Membership::Join {
                block: b2,
                new_qubits: vec![1]
            }
        );
        t.extend(b2, &[1]);
        // The older block no longer owns qubit 1.
        assert_eq!(t.membership(&[0, 1]), Membership::Outside);
    }
}
