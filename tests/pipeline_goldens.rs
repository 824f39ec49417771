//! Golden outputs of every pipeline flow: one line per (backend, circuit,
//! flow, routing seed) recording the output's `content_hash` (the serve
//! cache's bit-exact program identity), its CX and total gate counts, and
//! its `final_map`.
//!
//! The reference-oracle equivalence tests compare circuits with `==`,
//! which counts `-0.0` and `0.0` as equal; this table is the bit-exact
//! check.
//!
//! On a mismatch the test writes the full actual table to
//! `$CARGO_TARGET_TMPDIR/pipelines.txt` and fails, listing the first lines
//! that differ. To accept a deliberate change, copy that file over
//! `tests/goldens/pipelines.txt`.

use qc_algos::{qpe, quantum_volume, vqe_ry_ansatz};
use qc_backends::Backend;
use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{content_hash, Circuit};
use qc_hoare::transpile_hoare;
use qc_transpile::optimize_1q::Optimize1qGates;
use qc_transpile::preset::Transpiled;
use qc_transpile::{transpile, Pass, TranspileError, TranspileOptions};
use rpo_core::{transpile_rpo, RpoOptions};
use std::fmt::Write as _;

const GOLDENS: &str = include_str!("goldens/pipelines.txt");

const HEADER: &str = "# backend circuit flow seed content_hash cx gates final_map";

const FLOWS: [&str; 12] = [
    "level0",
    "level1",
    "level2",
    "level3",
    "rpo",
    "rpo-no-qbo",
    "rpo-no-qpo",
    "rpo-no-block-qpo",
    "rpo-no-early-qbo",
    "rpo-phase-relaxed",
    "rpo-extended-rules",
    "hoare",
];

/// The eleven circuits of the transpile equivalence tests, plus a few of
/// the paper's algorithms.
fn circuits() -> Vec<(String, Circuit)> {
    let mut out = Vec::new();
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        out.push((
            format!("random({n},{g},{seed})"),
            random_circuit(n, g, seed),
        ));
    }
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        out.push((
            format!("blocked({n},{g},{seed})"),
            blocked_neighborhood_circuit(n, g, seed),
        ));
    }
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        out.push((format!("toffoli({n},{seed})"), toffoli_chain(n, seed)));
    }
    let mut measured = random_circuit(4, 30, 19);
    measured.measure_all();
    out.push(("random(4,30,19)+measure".to_string(), measured));
    out.push(("qpe(3,7/8)".to_string(), qpe(3, 7.0 / 8.0)));
    out.push(("qpe(5,7/8)".to_string(), qpe(5, 7.0 / 8.0)));
    out.push(("vqe(6,2,7)".to_string(), vqe_ry_ansatz(6, 2, 7)));
    out.push(("qv(6,7)".to_string(), quantum_volume(6, 7)));
    out
}

fn compile(
    flow: &str,
    c: &Circuit,
    backend: &Backend,
    seed: u64,
) -> Result<Transpiled, TranspileError> {
    let level = |l| TranspileOptions::level(l).with_seed(seed);
    let rpo = RpoOptions::new().with_seed(seed);
    match flow {
        "level0" => transpile(c, backend, &level(0)),
        "level1" => transpile(c, backend, &level(1)),
        "level2" => transpile(c, backend, &level(2)),
        "level3" => transpile(c, backend, &level(3)),
        "rpo" => transpile_rpo(c, backend, &rpo),
        "rpo-no-qbo" => transpile_rpo(c, backend, &rpo.without_qbo()),
        "rpo-no-qpo" => transpile_rpo(c, backend, &rpo.without_qpo()),
        "rpo-no-block-qpo" => transpile_rpo(
            c,
            backend,
            &RpoOptions {
                enable_block_qpo: false,
                ..rpo
            },
        ),
        "rpo-no-early-qbo" => transpile_rpo(
            c,
            backend,
            &RpoOptions {
                early_qbo: false,
                ..rpo
            },
        ),
        "rpo-phase-relaxed" => transpile_rpo(
            c,
            backend,
            &RpoOptions {
                phase_relaxed: true,
                ..rpo
            },
        ),
        "rpo-extended-rules" => transpile_rpo(
            c,
            backend,
            &RpoOptions {
                extended_rules: true,
                ..rpo
            },
        ),
        "hoare" => transpile_hoare(c, backend, &level(3)),
        other => unreachable!("unknown flow {other}"),
    }
}

/// Calls `f` with the line key (`backend circuit flow seed`) and output of
/// every golden circuit, backend and seed under `flows`, in table order.
fn for_each_output(flows: &[&str], mut f: impl FnMut(&str, &Transpiled)) {
    let circuits = circuits();
    for backend in [Backend::melbourne(), Backend::almaden()] {
        for (name, c) in &circuits {
            for flow in flows {
                for seed in [1u64, 9] {
                    let key = format!("{} {name} {flow} {seed}", backend.name());
                    let out =
                        compile(flow, c, &backend, seed).unwrap_or_else(|e| panic!("{key}: {e}"));
                    f(&key, &out);
                }
            }
        }
    }
}

fn actual_table() -> String {
    let mut table = format!("{HEADER}\n");
    for_each_output(&FLOWS, |key, out| {
        let counts = out.circuit.gate_counts();
        let map: Vec<String> = out.final_map.iter().map(usize::to_string).collect();
        writeln!(
            table,
            "{key} {:032x} {} {} {}",
            content_hash(&out.circuit),
            counts.cx,
            counts.total,
            map.join(",")
        )
        .unwrap();
    });
    table
}

/// Every flow that ends in the change-driven fixed point ends on a fixed
/// point of `Optimize1qGates`: one more run keeps every output bit. Level 0
/// runs no `Optimize1qGates`, and level 1 runs `CxCancellation` after it,
/// which can join two runs into one, so both are left out.
#[test]
fn pipeline_outputs_are_optimize_1q_fixed_points() {
    let mut moved = Vec::new();
    let mut outputs = 0usize;
    for_each_output(&FLOWS[2..], |key, out| {
        outputs += 1;
        let mut again = out.circuit.clone();
        Optimize1qGates.run(&mut again).unwrap();
        if content_hash(&again) != content_hash(&out.circuit) {
            moved.push(key.to_string());
        }
    });
    assert_eq!(outputs, 600);
    assert!(
        moved.is_empty(),
        "{} of {outputs} outputs change under one more Optimize1qGates, e.g. {:?}",
        moved.len(),
        &moved[..moved.len().min(5)]
    );
}

#[test]
fn pipeline_outputs_match_goldens() {
    let actual = actual_table();
    if actual == GOLDENS {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pipelines.txt");
    std::fs::write(&path, &actual).expect("write the actual table");
    let (want, got): (Vec<&str>, Vec<&str>) = (GOLDENS.lines().collect(), actual.lines().collect());
    let mut report = String::new();
    let mut differing = 0usize;
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w == g {
            continue;
        }
        differing += 1;
        if differing <= 10 {
            writeln!(
                report,
                "line {}:\n  golden: {}\n  actual: {}",
                i + 1,
                w.unwrap_or(&"<missing>"),
                g.unwrap_or(&"<missing>")
            )
            .unwrap();
        }
    }
    panic!(
        "{differing} of {} lines differ from tests/goldens/pipelines.txt; the full actual table \
         is at {}\n{report}",
        got.len(),
        path.display()
    );
}
