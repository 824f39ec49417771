//! `Collect2qBlocks` + `ConsolidateBlocks`: two-qubit block re-synthesis.
//!
//! This is the Qiskit level-3 "re-synthesis of two qubit blocks" the paper
//! describes in Section II-B: collect maximal runs of gates confined to one
//! qubit pair, compute the block unitary, and re-synthesize via the KAK
//! decomposition — keeping the replacement only when it reduces the CNOT
//! count (or matches it with fewer gates overall). Unlike the paper's RPO,
//! this pass preserves the unitary matrix exactly (up to global phase); it
//! is the *strict* peephole optimization RPO relaxes.

use crate::guard::BudgetSnapshot;
use crate::manager::{DagPass, PropertySet};
use crate::TranspileError;
use qc_circuit::circuit::gate_counts_of;
use qc_circuit::{Block, ChangeReport, Dag, DagEdit, Instruction, UnitaryAccumulator};
use qc_synth::try_synthesize_two_qubit;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Re-synthesizes collected two-qubit blocks when it reduces cost.
#[derive(Default)]
pub struct ConsolidateBlocks;

/// The memo key of a block's unitary: the IEEE-754 bit patterns of all 16
/// complex entries of the accumulated 4×4 matrix. Bit-exact by design —
/// the [`UnitaryAccumulator`] is deterministic over a gate stream, so the
/// *same block content* always reproduces the same key, while any
/// numerically different block misses (a miss only costs the KAK that
/// would have run anyway).
type SynthKey = [u64; 32];

/// Entries kept in the process-wide synthesis memo before it is dropped
/// wholesale. 8k entries × (key 256 B + a short gate list) stays well
/// under a few MiB; a full clear is cheap and keeps the policy
/// deterministic (no RNG, no clock).
const SYNTH_MEMO_CAP: usize = 8192;

/// Process-wide memo of KAK re-synthesis results, keyed on the block's
/// bit-exact unitary bytes: `None` records a numerically degenerate
/// failure, `Some` the synthesized replacement on local wires (0, 1).
///
/// Process-wide on purpose: a serve process sees the same blocks over and
/// over — warm-*edited* requests re-transpile a circuit whose blocks are
/// mostly unchanged, and blocks rewritten by our own synthesis reappear
/// verbatim in the next fixed-point iteration. Both now cost a hash
/// lookup instead of a Weyl decomposition. Memoization cannot change
/// results: KAK synthesis is a deterministic function of the unitary.
static SYNTH_MEMO: Mutex<Option<HashMap<SynthKey, Option<Vec<Instruction>>>>> = Mutex::new(None);
static SYNTH_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static SYNTH_MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

fn synth_key(u: &qc_math::Matrix) -> SynthKey {
    let mut key = [0u64; 32];
    for (i, z) in u.as_slice().iter().enumerate() {
        key[2 * i] = z.re.to_bits();
        key[2 * i + 1] = z.im.to_bits();
    }
    key
}

/// [`try_synthesize_two_qubit`] through the process-wide memo. Returns the
/// synthesized instructions on local wires (0, 1), or `None` when the KAK
/// declined the matrix (also memoized — degenerate blocks repeat too).
fn memoized_synthesize(u: &qc_math::Matrix) -> Option<Vec<Instruction>> {
    let key = synth_key(u);
    {
        let memo = SYNTH_MEMO.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = memo.as_ref().and_then(|m| m.get(&key)) {
            SYNTH_MEMO_HITS.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
    }
    // KAK outside the lock: synthesis is ~10 µs, and concurrent serve
    // workers must not serialize on it. A racing duplicate insert is
    // harmless (same key, same deterministic value).
    SYNTH_MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    let result = try_synthesize_two_qubit(u)
        .ok()
        .map(|c| c.into_instructions());
    let mut memo = SYNTH_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let map = memo.get_or_insert_with(HashMap::new);
    if map.len() >= SYNTH_MEMO_CAP {
        map.clear();
    }
    map.insert(key, result.clone());
    result
}

/// Synthesis-memo counters since process start (or the last
/// [`reset_synth_memo`]): `(hits, misses)`. Observability hook for the
/// serve metrics and the warm-edited cache-tier tests.
pub fn synth_memo_stats() -> (u64, u64) {
    (
        SYNTH_MEMO_HITS.load(Ordering::Relaxed),
        SYNTH_MEMO_MISSES.load(Ordering::Relaxed),
    )
}

/// Drops the process-wide synthesis memo and zeroes its counters (tests).
pub fn reset_synth_memo() {
    let mut memo = SYNTH_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    *memo = None;
    SYNTH_MEMO_HITS.store(0, Ordering::Relaxed);
    SYNTH_MEMO_MISSES.store(0, Ordering::Relaxed);
}

/// The re-synthesis plan over a DAG and its collected blocks, indexed by
/// node id: `drop[id]` marks block members to delete, `replace_at[id]`
/// holds the synthesized replacement spliced at the block's last node.
fn plan_consolidation(
    dag: &Dag,
    blocks: &[Block],
    budget: BudgetSnapshot,
) -> (Vec<bool>, Vec<Option<Vec<Instruction>>>) {
    let mut drop = vec![false; dag.capacity()];
    let mut replace_at: Vec<Option<Vec<Instruction>>> = vec![None; dag.capacity()];
    // One engine-backed 4×4 accumulator reused across all blocks: each
    // block's unitary is extended one gate at a time as the block is
    // walked, instead of re-running `circuit_unitary` on a rebuilt
    // local circuit per candidate block.
    let mut acc = UnitaryAccumulator::new(2);
    for block in blocks {
        if budget.exceeded() {
            // Deadline passed mid-synthesis: keep what is planned so far,
            // leave the remaining blocks as they are (best-effort).
            break;
        }
        // Accumulate the block's unitary on local wires (a→0, b→1).
        let (a, b) = (block.qubits[0], block.qubits[1]);
        let mut cx_before = 0usize;
        acc.reset();
        for &n in &block.nodes {
            let inst = dag.inst(n);
            let qs: Vec<usize> = inst
                .qubits
                .iter()
                .map(|&q| if q == a { 0 } else { 1 })
                .collect();
            if inst.qubits.len() == 2 {
                cx_before += two_qubit_cx_cost(&inst.gate);
            }
            acc.push(&inst.gate, &qs);
        }
        if cx_before <= 1 {
            // Cannot improve a 0- or 1-CNOT block (templates need ≥ 0/1).
            continue;
        }
        let u = acc.matrix();
        // A failed KAK (numerically degenerate accumulated unitary) simply
        // declines the block — the original gates are already valid. The
        // memo makes repeat blocks (warm-edited requests, our own
        // synthesis output re-collected next iteration) a hash lookup.
        let Some(synth) = memoized_synthesize(&u) else {
            continue;
        };
        let counts_new = gate_counts_of(&synth);
        // Every block node is a unitary, non-directive gate, so the block
        // counts one gate per node.
        let better = counts_new.cx < cx_before
            || (counts_new.cx == cx_before && counts_new.total < block.nodes.len());
        if !better {
            continue;
        }
        // Map the synthesized circuit back onto (a, b).
        let mapped: Vec<Instruction> = synth
            .iter()
            .map(|inst| {
                let qs: Vec<usize> = inst
                    .qubits
                    .iter()
                    .map(|&q| if q == 0 { a } else { b })
                    .collect();
                Instruction::new(inst.gate.clone(), qs)
            })
            .collect();
        for &n in &block.nodes {
            drop[n] = true;
        }
        replace_at[*block.nodes.last().expect("non-empty block")] = Some(mapped);
    }
    (drop, replace_at)
}

impl DagPass for ConsolidateBlocks {
    fn name(&self) -> &'static str {
        "ConsolidateBlocks"
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let blocks = dag.collect_blocks(2);
        let (drop, replace_at) = plan_consolidation(dag, &blocks, props.budget());
        let mut edit = DagEdit::new();
        for (i, r) in replace_at.into_iter().enumerate() {
            if let Some(mapped) = r {
                edit.replace(i, mapped);
            } else if drop[i] {
                edit.remove(i);
            }
        }
        Ok(dag.apply(edit))
    }
}

/// CNOT cost of a two-qubit gate once unrolled to the device basis.
fn two_qubit_cx_cost(g: &qc_circuit::Gate) -> usize {
    use qc_circuit::Gate;
    match g {
        Gate::Cx => 1,
        Gate::Cz => 1,
        Gate::Cp(_) => 2,
        Gate::Swap => 3,
        Gate::SwapZ => 2,
        Gate::Cu(_) => 2,
        Gate::Unitary(_) => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pass;
    use qc_circuit::{circuit_unitary, Circuit, Gate};

    fn consolidated(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        ConsolidateBlocks.run(&mut out).unwrap();
        out
    }

    #[test]
    fn cancels_redundant_cx_pair_via_resynthesis() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let out = consolidated(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-7));
    }

    #[test]
    fn compresses_long_block() {
        // Many interleaved gates on one pair: generic class needs ≤ 4 CX.
        let mut c = Circuit::new(2);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cx(1, 0)
            .s(0)
            .cx(0, 1)
            .h(1)
            .cx(1, 0)
            .t(0)
            .cx(0, 1);
        let out = consolidated(&c);
        assert!(out.gate_counts().cx <= 4, "got {}", out.gate_counts().cx);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-6));
    }

    #[test]
    fn leaves_single_cx_blocks_alone() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1);
        let out = consolidated(&c);
        assert_eq!(out, c);
    }

    #[test]
    fn swap_heavy_block_reduced() {
        // swap·cx is iSWAP-family: 2 CX suffice vs 4 unrolled.
        let mut c = Circuit::new(2);
        c.swap(0, 1).cx(0, 1);
        let out = consolidated(&c);
        assert!(out.gate_counts().cx <= 2, "got {}", out.gate_counts().cx);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-7));
    }

    #[test]
    fn respects_block_boundaries() {
        // The ccx splits the pair blocks; nothing merged across it.
        let mut c = Circuit::new(3);
        c.cx(0, 1).ccx(0, 1, 2).cx(0, 1);
        let out = consolidated(&c);
        assert_eq!(out.count_name("ccx"), 1);
        assert_eq!(out.gate_counts().cx, 2);
    }

    #[test]
    fn multi_block_circuit_preserves_semantics() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cx(0, 1)
            .cx(1, 2)
            .s(2)
            .cx(1, 2)
            .h(2)
            .push(Gate::Cp(0.3), &[0, 2]);
        let out = consolidated(&c);
        assert!(circuit_unitary(&out).equal_up_to_global_phase(&circuit_unitary(&c), 1e-6));
        assert!(out.gate_counts().cx < c.gate_counts().cx + 2);
    }
}
