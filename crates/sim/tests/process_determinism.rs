//! Simulated amplitudes are a pure function of the circuit: another
//! process, under another kernel thread cap, gets the same bits.
//!
//! The fusion planner's cost profiles are constants, so nothing a process
//! measures or inherits can change a plan. The test runs this binary twice
//! more on an ignored child test, once under `RPO_THREADS=1` and once
//! under `RPO_THREADS=2`; each child prints a hash of the amplitude bits
//! of two states, and the parent compares both lines with its own.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::Command;

use qc_circuit::testing::random_circuit;
use qc_circuit::{Circuit, Gate};
use qc_math::haar_unitary;
use qc_sim::Statevector;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHILD: &str = "child_prints_amplitude_hashes";
const PREFIX: &str = "amplitude hashes: ";

/// Two layers of Haar-random two-qubit blocks, the shape of
/// `determinism.rs`'s `scale_circuit`: at 18 qubits the plan runs through
/// both arms of the chunked streaming executor.
fn scale_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _layer in 0..2 {
        for t in 0..n / 3 {
            let (a, b, d) = (3 * t, 3 * t + 1, 3 * t + 2);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[a, b]);
            c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[b, d]);
        }
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[n - 2, n - 1]);
        c.push(Gate::Unitary(haar_unitary(4, &mut rng)), &[0, n - 1]);
    }
    c
}

/// One hash of every amplitude's bits per state: a 12-qubit random
/// circuit (the `statevector_12q_random120g` bench's) and an 18-qubit
/// `scale_circuit`.
fn amplitude_hashes() -> String {
    let hash = |c: &Circuit| {
        let mut h = DefaultHasher::new();
        for z in Statevector::from_circuit(c).amplitudes() {
            z.re.to_bits().hash(&mut h);
            z.im.to_bits().hash(&mut h);
        }
        h.finish()
    };
    format!(
        "12q {:016x}, 18q {:016x}",
        hash(&random_circuit(12, 120, 7)),
        hash(&scale_circuit(18, 42))
    )
}

#[test]
#[ignore = "run in a child process by amplitudes_match_across_processes_and_thread_caps"]
fn child_prints_amplitude_hashes() {
    println!("{PREFIX}{}", amplitude_hashes());
}

#[test]
fn amplitudes_match_across_processes_and_thread_caps() {
    let own = amplitude_hashes();
    let exe = std::env::current_exe().expect("the test binary's path");
    for threads in ["1", "2"] {
        let out = Command::new(&exe)
            .args([CHILD, "--exact", "--ignored", "--nocapture"])
            .env("RPO_THREADS", threads)
            .output()
            .expect("the child test starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child under RPO_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let child = stdout
            .lines()
            .find_map(|l| l.strip_prefix(PREFIX))
            .unwrap_or_else(|| panic!("no hash line in the child's output:\n{stdout}"));
        assert_eq!(
            child, own,
            "a process under RPO_THREADS={threads} simulated other amplitude bits"
        );
    }
}
