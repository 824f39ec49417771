//! Property tests for the O(edit) splice-local relink: after arbitrary
//! random [`DagEdit`] batches, the incrementally maintained DAG must be
//! indistinguishable from a full rebuild (`Dag::from_circuit` of the edited
//! stream) — same program order, same per-wire links — and
//! [`Dag::to_circuit`] must equal the stream produced by splicing the
//! instruction list positionally (the pre-refactor `apply` semantics).
//! The undo-journal tests check that rolling back random batches restores
//! the pre-journal DAG exactly (`{:?}`-equal: ids, free list) and that
//! committing leaves what the batches give with no journal open.

use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{Circuit, Dag, DagEdit, Gate, Instruction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Asserts `dag` equals a freshly built DAG of the same stream: program
/// order and wire pred/succ links (compared positionally — ids are not
/// stable across a rebuild).
fn assert_matches_fresh_build(dag: &Dag, label: &str) {
    let circuit = dag.to_circuit();
    let fresh = Dag::from_circuit(&circuit);
    let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
    assert_eq!(ids.len(), fresh.len(), "{label}: node count");
    let pos_of = |id: usize| ids.iter().position(|&x| x == id);
    for (p, &id) in ids.iter().enumerate() {
        assert_eq!(dag.inst(id), fresh.inst(p), "{label}: instruction at {p}");
        for &q in &dag.inst(id).qubits {
            assert_eq!(
                dag.wire_pred(id, q).and_then(pos_of),
                fresh.wire_pred(p, q),
                "{label}: wire {q} pred of position {p}"
            );
            assert_eq!(
                dag.wire_succ(id, q).and_then(pos_of),
                fresh.wire_succ(p, q),
                "{label}: wire {q} succ of position {p}"
            );
        }
    }
}

/// A small random replacement stream over `num_qubits` wires (possibly on
/// wires the replaced node does not carry, exercising the order-walk
/// fallback of the relink).
fn random_replacement(rng: &mut StdRng, num_qubits: usize) -> Vec<Instruction> {
    let len = rng.gen_range(0..4usize);
    (0..len)
        .map(|_| {
            let q = rng.gen_range(0..num_qubits);
            match rng.gen_range(0..4u32) {
                0 => Instruction::new(Gate::H, vec![q]),
                1 => Instruction::new(Gate::T, vec![q]),
                2 => {
                    let mut r = rng.gen_range(0..num_qubits);
                    if r == q {
                        r = (r + 1) % num_qubits;
                    }
                    if num_qubits < 2 {
                        Instruction::new(Gate::X, vec![q])
                    } else {
                        Instruction::new(Gate::Cx, vec![q, r])
                    }
                }
                _ => Instruction::new(Gate::U3(0.3, -0.2, 0.9), vec![q]),
            }
        })
        .collect()
}

/// Applies `batches` rounds of random edits to `c`'s DAG, checking after
/// every batch that the incremental relink matches (a) positional splicing
/// of the instruction list and (b) a full rebuild of the edited stream.
fn check_random_edit_batches(c: &Circuit, seed: u64, batches: usize, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dag = Dag::from_circuit(c);
    // The positional mirror: what the pre-refactor renumbering `apply`
    // would have produced.
    let mut mirror: Vec<Instruction> = c.instructions().to_vec();
    for batch in 0..batches {
        if dag.is_empty() {
            break;
        }
        // Pick distinct victims by current program position.
        let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
        let mut positions: Vec<usize> = (0..ids.len()).collect();
        let count = rng.gen_range(1..=positions.len().min(5));
        for k in 0..count {
            let pick = rng.gen_range(k..positions.len());
            positions.swap(k, pick);
        }
        let mut positions: Vec<usize> = positions[..count].to_vec();
        positions.sort_unstable();

        let mut edit = DagEdit::new();
        // Positional splice plan: per position, the replacement (empty =
        // removal).
        let mut plan: Vec<(usize, Vec<Instruction>)> = Vec::new();
        for &p in &positions {
            let replacement = if rng.gen::<bool>() {
                Vec::new()
            } else {
                random_replacement(&mut rng, dag.num_qubits())
            };
            if replacement.is_empty() {
                edit.remove(ids[p]);
            } else {
                edit.replace(ids[p], replacement.clone());
            }
            plan.push((p, replacement));
        }
        let report = dag.apply(edit);
        assert_eq!(report.rewrites, count, "{label} batch {batch}: rewrites");
        assert!(
            report.relink_nodes >= count,
            "{label} batch {batch}: relink accounting"
        );
        // Mirror the splice positionally (descending so indices stay valid).
        for (p, replacement) in plan.into_iter().rev() {
            mirror.splice(p..p + 1, replacement);
        }
        let expected = {
            let mut e = Circuit::new(c.num_qubits());
            e.set_instructions(mirror.clone());
            e
        };
        assert_eq!(
            dag.to_circuit(),
            expected,
            "{label} batch {batch}: spliced stream"
        );
        assert_matches_fresh_build(&dag, &format!("{label} batch {batch}"));
    }
}

#[test]
fn random_circuits_relink_matches_rebuild() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        check_random_edit_batches(
            &c,
            seed ^ 0xDA6,
            12,
            &format!("random_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn blocked_neighborhood_circuits_relink_matches_rebuild() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        check_random_edit_batches(
            &c,
            seed ^ 0xB10C,
            12,
            &format!("blocked_neighborhood_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn toffoli_chains_relink_matches_rebuild() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        check_random_edit_batches(&c, seed ^ 0x70FF, 12, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn replacements_on_foreign_wires_relink_correctly() {
    // A replacement whose instructions live on wires the replaced node
    // never touched: the relink must find the neighbours by walking the
    // order list.
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).t(3).cx(2, 3).h(2);
    let mut dag = Dag::from_circuit(&c);
    let mut edit = DagEdit::new();
    // Replace the t(3) with gates on wires {0, 2} only.
    edit.replace(
        2,
        vec![
            Instruction::new(Gate::H, vec![2]),
            Instruction::new(Gate::Cx, vec![0, 2]),
        ],
    );
    dag.apply(edit);
    assert_matches_fresh_build(&dag, "foreign-wire replacement");
}

/// `count` distinct live node ids of `dag`, in random order.
fn pick_nodes(rng: &mut StdRng, dag: &Dag, count: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
    for k in 0..count {
        let pick = rng.gen_range(k..ids.len());
        ids.swap(k, pick);
    }
    ids.truncate(count);
    ids
}

/// One random mutation: an edit batch of removals and replacements by 0–3
/// instructions (on random wires, often ones the node does not carry) or,
/// when `whole_stream` allows it, now and then a `replace_all`, sometimes
/// one wire wider. Consumes `rng` identically for `{:?}`-equal DAGs.
fn random_mutation(rng: &mut StdRng, dag: &mut Dag, whole_stream: bool) {
    if dag.is_empty() || whole_stream && rng.gen_range(0..6u32) == 0 {
        let n = dag.num_qubits() + rng.gen_range(0..2usize);
        let insts = (0..rng.gen_range(0..4usize))
            .flat_map(|_| random_replacement(rng, n))
            .collect();
        dag.replace_all(n, insts);
        return;
    }
    let count = rng.gen_range(1..=dag.len().min(4));
    let mut edit = DagEdit::new();
    for id in pick_nodes(rng, dag, count) {
        if rng.gen::<bool>() {
            edit.remove(id);
        } else {
            edit.replace(id, random_replacement(rng, dag.num_qubits()));
        }
    }
    dag.apply(edit);
}

/// The circuit family of journal test `seed`.
fn journal_input(seed: u64) -> (Circuit, &'static str) {
    let n = 3 + (seed % 4) as usize;
    match seed % 3 {
        0 => (
            random_circuit(n, 20 + (seed % 7) as usize * 5, seed),
            "random_circuit",
        ),
        1 => (
            blocked_neighborhood_circuit(n, 12 + (seed % 5) as usize * 3, seed),
            "blocked_neighborhood_circuit",
        ),
        _ => (toffoli_chain(n, seed), "toffoli_chain"),
    }
}

/// The DAG of `c` after a few committed edits, so its free list is not
/// empty when a journal opens.
fn edited_dag(c: &Circuit, rng: &mut StdRng) -> Dag {
    let mut dag = Dag::from_circuit(c);
    for _ in 0..3 {
        random_mutation(rng, &mut dag, false);
    }
    dag
}

#[test]
fn journal_rollback_restores_and_commit_keeps_random_batches() {
    for seed in 0..200u64 {
        let (c, family) = journal_input(seed);
        let label = format!("{family} seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10A2);
        let mut dag = edited_dag(&c, &mut rng);
        let pristine = dag.clone();
        let before = format!("{dag:?}");
        let batches = rng.gen_range(1..=4usize);
        let batch_seed = rng.gen::<u64>();
        let run_batches = |dag: &mut Dag| {
            let mut r = StdRng::seed_from_u64(batch_seed);
            for _ in 0..batches {
                random_mutation(&mut r, dag, true);
            }
        };

        dag.open_journal();
        run_batches(&mut dag);
        dag.rollback_journal();
        assert_eq!(format!("{dag:?}"), before, "{label}: rollback");
        dag.check_invariants()
            .unwrap_or_else(|e| panic!("{label}: {e}"));

        // Ids and free-list order came back too: a further edit lands
        // exactly as on the untouched copy.
        let mut copy = pristine.clone();
        let edit_seed = rng.gen::<u64>();
        random_mutation(&mut StdRng::seed_from_u64(edit_seed), &mut dag, false);
        random_mutation(&mut StdRng::seed_from_u64(edit_seed), &mut copy, false);
        assert_eq!(
            format!("{dag:?}"),
            format!("{copy:?}"),
            "{label}: edit after rollback"
        );

        let mut committed = pristine.clone();
        committed.open_journal();
        run_batches(&mut committed);
        committed.commit_journal();
        let mut plain = pristine;
        run_batches(&mut plain);
        assert_eq!(
            format!("{committed:?}"),
            format!("{plain:?}"),
            "{label}: commit"
        );
    }
}

#[test]
fn journal_rolls_back_a_panic_inside_apply() {
    for seed in 0..50u64 {
        let (c, family) = journal_input(seed);
        let label = format!("{family} seed {seed}");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let mut dag = edited_dag(&c, &mut rng);
        let before = format!("{dag:?}");
        dag.open_journal();
        for _ in 0..rng.gen_range(0..3usize) {
            random_mutation(&mut rng, &mut dag, true);
        }
        if dag.is_empty() {
            dag.replace_all(dag.num_qubits(), vec![Instruction::new(Gate::H, vec![0])]);
        }
        // Valid splices first; the batch's last replacement then allocates
        // a node and trips the out-of-range-qubit assert mid-splice.
        let n = dag.num_qubits();
        let count = rng.gen_range(1..=dag.len().min(4));
        let ids = pick_nodes(&mut rng, &dag, count);
        let (last, valid) = ids.split_last().expect("non-empty");
        let mut edit = DagEdit::new();
        for &id in valid {
            edit.replace(id, random_replacement(&mut rng, n));
        }
        edit.replace(
            *last,
            vec![
                Instruction::new(Gate::T, vec![rng.gen_range(0..n)]),
                Instruction::new(Gate::X, vec![n]),
            ],
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| dag.apply(edit)));
        assert!(outcome.is_err(), "{label}: apply must panic");
        dag.rollback_journal();
        assert_eq!(format!("{dag:?}"), before, "{label}: rollback after panic");
        dag.check_invariants()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
