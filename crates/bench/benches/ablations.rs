//! Ablation benches for the pipeline's design choices:
//!
//! * early QBO on/off — the paper attributes RPO's *time* advantage to the
//!   first QBO shrinking work for every later pass;
//! * QBO alone vs QPO alone vs both — which pass contributes what;
//! * phase-relaxed eigenstate removal and the extended controlled-gate
//!   rules — this crate's sound generalizations beyond the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qc_algos::{grover, qpe, McxDesign};
use qc_backends::Backend;
use qc_circuit::Circuit;
use rpo_core::{transpile_rpo, RpoOptions};

fn variants() -> Vec<(&'static str, RpoOptions)> {
    vec![
        ("full", RpoOptions::new()),
        (
            "no_early_qbo",
            RpoOptions {
                early_qbo: false,
                ..RpoOptions::new()
            },
        ),
        ("qbo_only", RpoOptions::new().without_qpo()),
        ("qpo_only", RpoOptions::new().without_qbo()),
        (
            "phase_relaxed",
            RpoOptions {
                phase_relaxed: true,
                ..RpoOptions::new()
            },
        ),
        (
            "extended_rules",
            RpoOptions {
                extended_rules: true,
                ..RpoOptions::new()
            },
        ),
        (
            "no_block_qpo",
            RpoOptions {
                enable_block_qpo: false,
                ..RpoOptions::new()
            },
        ),
    ]
}

fn bench_ablations(c: &mut Criterion) {
    let backend = Backend::melbourne();
    let workloads: Vec<(&str, Circuit)> = vec![
        ("qpe6", qpe(5, 7.0 / 8.0)),
        (
            "grover6",
            grover(6, 5, 2, McxDesign::CleanAncilla { annotate: true }),
        ),
    ];
    let mut group = c.benchmark_group("rpo_ablations");
    group.sample_size(10);
    for (wname, circ) in &workloads {
        for (vname, opts) in variants() {
            group.bench_with_input(BenchmarkId::new(vname, wname), circ, |b, circ| {
                b.iter(|| transpile_rpo(circ, &backend, &opts).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
