//! Table II: median CNOT count and transpile time of QPE, VQE, Quantum
//! Volume and Grover on `ibmq_16_melbourne`, comparing Qiskit level 3, the
//! Hoare-logic baseline, and RPO.

use qc_algos::{grover, qpe, quantum_volume, vqe_ry_ansatz, McxDesign};
use qc_backends::Backend;
use qc_circuit::Circuit;
use rpo_experiments::{median_stats, write_csv, Flow, HarnessArgs};

fn circuit_for(algo: &str, n: usize) -> Circuit {
    match algo {
        "QPE" => qpe(n - 1, 7.0 / 8.0), // n total qubits = n−1 counting + eigenstate
        "VQE" => vqe_ry_ansatz(n, 2, 7),
        "QV" => quantum_volume(n, 7),
        "Grover" => grover(n, (1 << n) - 2, 1, McxDesign::NoAncilla),
        _ => unreachable!(),
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let backend = Backend::melbourne();
    let flows = [Flow::Level3, Flow::Hoare, Flow::Rpo];
    let algos = ["QPE", "VQE", "QV", "Grover"];
    println!(
        "Table II — median CNOT count / transpile time (ms) on {}",
        backend.name()
    );
    println!(
        "({} trials per cell; paper uses 25 — pass --trials 25 --full to match)\n",
        args.trials
    );
    let mut csv = Vec::new();
    // Per algorithm, the RPO/level-3 CNOT ratio of every size, from the
    // cells the table computes.
    let mut ratios = algos.map(|_| Vec::<f64>::new());
    print!("{:>8} |", "qubits");
    for algo in algos {
        for flow in flows {
            print!(" {:>12}", format!("{algo}/{}", flow.label()));
        }
    }
    println!();
    for n in args.sizes() {
        print!("{n:>8} |");
        for (a, algo) in algos.into_iter().enumerate() {
            let c = circuit_for(algo, n);
            let stats = flows.map(|flow| median_stats(&c, &backend, flow, args.trials));
            let [level3, _, rpo] = &stats;
            if level3.cx > 0 {
                ratios[a].push(rpo.cx as f64 / level3.cx as f64);
            }
            for (flow, s) in flows.into_iter().zip(&stats) {
                print!(" {:>6}/{:<5.1}", s.cx, s.time_ms);
                csv.push(format!(
                    "{algo},{n},{},{},{},{},{:.3}",
                    flow.label(),
                    s.cx,
                    s.single_qubit,
                    s.depth,
                    s.time_ms
                ));
            }
        }
        println!();
    }
    // Summary: average CNOT reduction of RPO vs level3 (geometric mean of
    // ratios, algorithm by algorithm), the paper's headline 11.7% figure.
    let gm = rpo_experiments::geometric_mean(&ratios.concat());
    println!(
        "\naverage CNOT ratio RPO/level3 = {gm:.3} (reduction {:.1}%)",
        (1.0 - gm) * 100.0
    );
    write_csv(
        "table2.csv",
        "algo,qubits,flow,cx,single_qubit,depth,time_ms",
        &csv,
    );
}
