//! Fig. 11: 3-qubit QPE on three noisy devices — output distributions and
//! success rates, level 3 vs RPO. The paper measures success-rate
//! improvements of 2.94×/2.69×/1.53× (geometric mean 2.30×) from the CNOT
//! reduction alone; here the devices are the fake backends driving a
//! Monte-Carlo depolarizing+readout simulation, which charges both flows'
//! outputs the same error rates, so a success-rate gap comes from the
//! compiled circuits alone.

use qc_algos::{qpe, qpe_expected_outcome};
use qc_backends::Backend;
use rpo_experiments::{
    geometric_mean, logical_distribution, noise_of, transpile_flow, write_csv, Flow, HarnessArgs,
};

fn main() {
    let args = HarnessArgs::parse();
    let theta = 7.0 / 8.0;
    let n = 3;
    let circuit = qpe(n, theta);
    let expected = qpe_expected_outcome(n, theta);
    println!(
        "Fig. 11 — noisy 3-qubit QPE (expected outcome {expected:03b}), {} shots\n",
        args.shots
    );
    let mut improvements = Vec::new();
    let mut csv = Vec::new();
    for backend in [
        Backend::melbourne(),
        Backend::almaden(),
        Backend::rochester(),
    ] {
        let l3 = transpile_flow(&circuit, &backend, Flow::Level3, 0);
        let rpo = transpile_flow(&circuit, &backend, Flow::Rpo, 0);
        let noise = noise_of(&backend);
        let d3 = logical_distribution(&l3, n, noise, args.shots, 11);
        let dr = logical_distribution(&rpo, n, noise, args.shots, 11);
        println!(
            "{} — level3: {} CNOTs, RPO: {} CNOTs ({}% fewer)",
            backend.name(),
            l3.circuit.gate_counts().cx,
            rpo.circuit.gate_counts().cx,
            if l3.circuit.gate_counts().cx > 0 {
                100 * (l3.circuit.gate_counts().cx - rpo.circuit.gate_counts().cx)
                    / l3.circuit.gate_counts().cx
            } else {
                0
            }
        );
        println!("  outcome   level3    RPO");
        for k in 0..(1 << n) {
            let marker = if k == expected { " ← correct" } else { "" };
            println!("  {k:03b}     {:>6.3}  {:>6.3}{marker}", d3[k], dr[k]);
            csv.push(format!(
                "{},{k:03b},{:.5},{:.5}",
                backend.name(),
                d3[k],
                dr[k]
            ));
        }
        let improvement = dr[expected] / d3[expected].max(1e-9);
        println!(
            "  success rate: {:.3} → {:.3}  ({improvement:.2}× improvement)\n",
            d3[expected], dr[expected]
        );
        improvements.push(improvement);
    }
    println!(
        "geometric-mean success-rate improvement: {:.2}× (paper: 2.30×)",
        geometric_mean(&improvements)
    );
    write_csv("fig11.csv", "backend,outcome,p_level3,p_rpo", &csv);
}
