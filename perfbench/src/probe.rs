//! The frozen set of compiled (device-basis) circuits and the simulator
//! probe that runs them in the traced `paper-compile` run.
//!
//! An operation is `Statevector::from_circuit` plus a 4096-shot `sample`,
//! or for the Fig. 11 rows one 4096-shot `NoisySimulator::run`. The inputs
//! are frozen QASM under `inputs/` (written once by
//! `perfbench --freeze-inputs DIR`), each checked against the content hash
//! in `inputs/manifest.txt` before use, so a compiler change cannot change
//! what the probe simulates.

use crate::util::{mix, Tracer};
use qc_algos::{grover, qpe, qpe_expected_outcome, quantum_volume, vqe_ry_ansatz, McxDesign};
use qc_backends::Backend;
use qc_circuit::qasm::{from_qasm, to_qasm};
use qc_circuit::{content_hash, fuse_instructions, schedule_fused, Circuit, Gate, Instruction};
use qc_math::C64;
use qc_sim::{NoiseModel, NoisySimulator, Statevector};
use qc_transpile::{transpile, TranspileOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpo_core::{transpile_rpo, RpoOptions};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// The frozen inputs, next to this crate's manifest.
const INPUTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/inputs");
const SHOTS: usize = 4096;
/// Reference amplitudes kept per wide circuit (twice this many at most).
const REF_AMPS: usize = 512;
/// Registers this wide and wider take the statevector's shard-streaming
/// path (`qc_sim`'s `STREAM_MIN_QUBITS`); the fusion metrics split on it.
const STREAM_MIN_QUBITS: usize = 18;
const STREAM_SHARD_QUBITS: usize = 16;
/// Fig. 11: QPE with 3 counting qubits and θ = 7/8.
const FIG11_BITS: usize = 3;
const FIG11_THETA: f64 = 7.0 / 8.0;

/// One frozen input, as listed in `inputs/manifest.txt`.
struct Input {
    name: String,
    /// The noise model's device for a Fig. 11 row, `None` for a
    /// statevector row.
    noisy: Option<Backend>,
    /// Fig. 11 rows: compacted positions of the counting qubits, and the
    /// success rate measured when the input was frozen.
    logical: Vec<usize>,
    success: f64,
    circuit: Circuit,
    /// Wide rows: the frozen per-gate amplitudes.
    reference: Vec<(usize, C64)>,
}

fn noise_of(backend: &Backend) -> NoiseModel {
    let n = backend.noise();
    NoiseModel::new(n.p1q, n.p2q, n.readout)
}

/// Share of `shots` whose counting bits read the expected QPE outcome.
fn success_rate(counts: &HashMap<usize, usize>, logical: &[usize], shots: usize) -> f64 {
    let expected = qpe_expected_outcome(FIG11_BITS, FIG11_THETA);
    let hits: usize = counts
        .iter()
        .filter(|(&outcome, _)| {
            logical
                .iter()
                .enumerate()
                .all(|(bit, &pos)| ((outcome >> pos) & 1) == ((expected >> bit) & 1))
        })
        .map(|(_, &n)| n)
        .sum();
    hits as f64 / shots as f64
}

/// Per-gate reference amplitudes of a wide circuit, one `index re im`
/// line each (f64 bits in hex): the largest [`REF_AMPS`] by magnitude plus
/// [`REF_AMPS`] at seeded indices. Simulating a 20-qubit circuit gate by
/// gate takes seconds, so the wide rows check against these instead.
fn reference_amplitudes(c: &Circuit) -> String {
    let sv = per_gate_state(c);
    let amps = sv.amplitudes();
    let mut order: Vec<usize> = (0..amps.len()).collect();
    order.sort_by(|&a, &b| amps[b].norm_sqr().total_cmp(&amps[a].norm_sqr()));
    let mut picked: Vec<usize> = order[..REF_AMPS].to_vec();
    picked.extend((0..REF_AMPS as u64).map(|j| (mix(0xa5, j) % amps.len() as u64) as usize));
    picked.sort_unstable();
    picked.dedup();
    picked
        .iter()
        .map(|&i| {
            format!(
                "{i} {:016x} {:016x}\n",
                amps[i].re.to_bits(),
                amps[i].im.to_bits()
            )
        })
        .collect()
}

/// Reads a `.amps` file back.
fn read_amplitudes(path: &Path) -> Result<Vec<(usize, C64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let bits = |s: &str| u64::from_str_radix(s, 16).map(f64::from_bits);
            match f.as_slice() {
                [i, re, im] => Ok((
                    i.parse().map_err(|_| "bad index")?,
                    C64::new(
                        bits(re).map_err(|_| "bad re")?,
                        bits(im).map_err(|_| "bad im")?,
                    ),
                )),
                _ => Err("bad line"),
            }
        })
        .collect::<Result<_, &str>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Compiles and writes the frozen inputs with their manifest.
pub fn freeze(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let melbourne = Backend::melbourne();
    let almaden = Backend::almaden();
    let l3 = |c: &Circuit, b: &Backend| {
        transpile(c, b, &TranspileOptions::level(3).with_seed(11)).expect("level3 compiles")
    };
    let rpo = |c: &Circuit, b: &Backend| {
        transpile_rpo(c, b, &RpoOptions::new().with_seed(11)).expect("rpo compiles")
    };
    let mut manifest = String::from(
        "# name flow noise-device content-hash counting-positions frozen-success-rate\n",
    );
    let mut write = |name: &str,
                     flow: &str,
                     noisy: &str,
                     c: &Circuit,
                     logical: &[usize],
                     success: f64|
     -> std::io::Result<()> {
        let qasm = to_qasm(c).expect("compiled circuits export to QASM");
        let parsed = from_qasm(&qasm).expect("exported QASM parses");
        std::fs::write(dir.join(format!("{name}.qasm")), &qasm)?;
        if parsed.num_qubits() >= STREAM_MIN_QUBITS {
            std::fs::write(
                dir.join(format!("{name}.amps")),
                reference_amplitudes(&parsed),
            )?;
        }
        let positions: Vec<String> = logical.iter().map(usize::to_string).collect();
        manifest.push_str(&format!(
            "{name} {flow} {noisy} {:032x} {} {success:.4}\n",
            content_hash(&parsed),
            if positions.is_empty() {
                "-".into()
            } else {
                positions.join(",")
            },
        ));
        Ok(())
    };
    // The RPO outputs of the Table II programs on melbourne.
    for n in (4..=14).step_by(2) {
        write(
            &format!("qpe{n}"),
            "rpo",
            "-",
            &rpo(&qpe(n - 1, 7.0 / 8.0), &melbourne).circuit,
            &[],
            0.0,
        )?;
        write(
            &format!("vqe{n}"),
            "rpo",
            "-",
            &rpo(&vqe_ry_ansatz(n, 2, 7), &melbourne).circuit,
            &[],
            0.0,
        )?;
        write(
            &format!("qv{n}"),
            "rpo",
            "-",
            &rpo(&quantum_volume(n, 7), &melbourne).circuit,
            &[],
            0.0,
        )?;
    }
    for n in 4..=7 {
        let c = grover(n, (1 << n) - 2, 1, McxDesign::NoAncilla);
        write(
            &format!("grover{n}"),
            "rpo",
            "-",
            &rpo(&c, &melbourne).circuit,
            &[],
            0.0,
        )?;
    }
    // Wide programs on almaden: the shard-streaming regime.
    write(
        "qpe19@almaden",
        "level3",
        "-",
        &l3(&qpe(18, 7.0 / 8.0), &almaden).circuit,
        &[],
        0.0,
    )?;
    write(
        "qv20@almaden",
        "level3",
        "-",
        &l3(&quantum_volume(20, 7), &almaden).circuit,
        &[],
        0.0,
    )?;
    write(
        "vqe20@almaden",
        "level3",
        "-",
        &l3(&vqe_ry_ansatz(20, 2, 7), &almaden).circuit,
        &[],
        0.0,
    )?;
    // Fig. 11: the noisy 3-qubit QPE, compacted to the wires it uses.
    let logical = qpe(FIG11_BITS, FIG11_THETA);
    for device in ["melbourne", "almaden", "rochester"] {
        let backend = qc_serve::wire::resolve_backend(device).expect("known device");
        for (flow, out) in [
            ("level3", l3(&logical, &backend)),
            ("rpo", rpo(&logical, &backend)),
        ] {
            let (compact, old_of_new) = out.circuit.compacted();
            let positions: Vec<usize> = (0..FIG11_BITS)
                .map(|q| {
                    old_of_new
                        .iter()
                        .position(|&o| o == out.final_map[q])
                        .expect("counting qubits are used")
                })
                .collect();
            let shots = 4 * SHOTS;
            let counts = NoisySimulator::new(noise_of(&backend), 1).run(&compact, shots);
            let success = success_rate(&counts, &positions, shots);
            write(
                &format!("fig11-{flow}@{device}"),
                flow,
                device,
                &compact,
                &positions,
                success,
            )?;
        }
    }
    std::fs::write(dir.join("manifest.txt"), manifest)
}

/// Loads and hash-checks every frozen input.
fn load(dir: &Path) -> Result<Vec<Input>, String> {
    let manifest = std::fs::read_to_string(dir.join("manifest.txt"))
        .map_err(|e| format!("cannot read {}: {e}", dir.join("manifest.txt").display()))?;
    let mut out = Vec::new();
    for line in manifest
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [name, _flow, noisy, hash, logical, success] = f.as_slice() else {
            return Err(format!("bad manifest line '{line}'"));
        };
        let path = dir.join(format!("{name}.qasm"));
        let qasm = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let circuit =
            from_qasm(&qasm).map_err(|e| format!("{name}: QASM does not parse: {e:?}"))?;
        let hash = u128::from_str_radix(hash, 16).map_err(|_| format!("{name}: bad hash"))?;
        if content_hash(&circuit) != hash {
            return Err(format!("{name}: content hash differs from the manifest"));
        }
        let reference = if circuit.num_qubits() >= STREAM_MIN_QUBITS {
            read_amplitudes(&dir.join(format!("{name}.amps")))?
        } else {
            Vec::new()
        };
        out.push(Input {
            name: name.to_string(),
            noisy: match *noisy {
                "-" => None,
                device => Some(
                    qc_serve::wire::resolve_backend(device).map_err(|e| format!("{name}: {e}"))?,
                ),
            },
            logical: logical
                .split(',')
                .filter(|s| *s != "-")
                .map(|s| s.parse().map_err(|_| format!("{name}: bad position")))
                .collect::<Result<_, _>>()?,
            success: success
                .parse()
                .map_err(|_| format!("{name}: bad success rate"))?,
            circuit,
            reference,
        });
    }
    if out.is_empty() {
        return Err("no inputs in the manifest".into());
    }
    Ok(out)
}

/// What one operation produced.
enum Output {
    State(Statevector, HashMap<usize, usize>),
    Noisy(HashMap<usize, usize>),
}

impl Output {
    fn counts(&self) -> &HashMap<usize, usize> {
        match self {
            Output::State(_, c) | Output::Noisy(c) => c,
        }
    }
}

/// One untraced operation on input `i`.
fn simulate(input: &Input, seed: u64) -> Output {
    match &input.noisy {
        Some(backend) => {
            Output::Noisy(NoisySimulator::new(noise_of(backend), seed).run(&input.circuit, SHOTS))
        }
        None => {
            let sv = Statevector::from_circuit(&input.circuit);
            let counts = sv.sample(SHOTS, &mut StdRng::seed_from_u64(seed));
            Output::State(sv, counts)
        }
    }
}

/// The traced replay of one statevector operation: the fusion plan and
/// schedule (timed on their own), then `apply_fused` per unitary segment,
/// as `Statevector::from_circuit` runs them; then the sample.
fn replay(tr: &mut Tracer, op: u64, input: &Input, seed: u64) -> Output {
    let c = &input.circuit;
    let n = c.num_qubits();
    let mut sv = Statevector::zero_state(n);
    let insts = c.instructions();
    let mut segments: Vec<&[Instruction]> = Vec::new();
    let mut start = 0;
    for (i, inst) in insts.iter().enumerate() {
        if matches!(inst.gate, Gate::Measure | Gate::Reset) {
            segments.push(&insts[start..i]);
            start = i + 1;
        }
    }
    segments.push(&insts[start..]);
    for seg in segments {
        let t = Instant::now();
        let mut plan = fuse_instructions(seg, n);
        let gates = seg.iter().filter(|i| !i.gate.is_directive()).count();
        tr.add("fusion.gates", gates as f64);
        tr.add("fusion.ops", plan.len() as f64);
        if n >= STREAM_MIN_QUBITS {
            for g in schedule_fused(&mut plan, STREAM_SHARD_QUBITS) {
                if g.local && g.len >= 2 {
                    tr.add("fusion.streamed_runs", 1.0);
                    tr.add("sim.sweeps", 1.0);
                } else {
                    tr.add("sim.sweeps", g.len as f64);
                }
            }
        } else {
            tr.add("sim.sweeps", plan.len() as f64);
        }
        drop(plan);
        let plan_ms = tr.end("fusion.plan", op, 1, t);
        let t = Instant::now();
        sv.apply_fused(seg);
        let apply_ms = tr.end("sim.apply_fused", op, 1, t);
        // apply_fused plans again internally: the kernel share is the
        // remainder.
        tr.add("kernel.apply_ms", (apply_ms - plan_ms).max(0.0));
    }
    let t = Instant::now();
    let counts = sv.sample(SHOTS, &mut StdRng::seed_from_u64(seed));
    tr.end("sim.sample", op, 1, t);
    Output::State(sv, counts)
}

/// The unfused per-gate state (`Statevector::apply_gate` one instruction
/// at a time).
fn per_gate_state(c: &Circuit) -> Statevector {
    let mut sv = Statevector::zero_state(c.num_qubits());
    for inst in c.instructions() {
        if !inst.gate.is_directive() && !matches!(inst.gate, Gate::Measure) {
            sv.apply_gate(&inst.gate, &inst.qubits);
        }
    }
    sv
}

/// The simulator probe of the traced `paper-compile` run: every frozen
/// input once untraced, then once through the traced replay, which must
/// reproduce the untraced amplitudes and counts bit for bit. Every state
/// must also match the unfused per-gate path within 1e-9 per amplitude,
/// and every Fig. 11 row its frozen success rate within 0.05. Fills the
/// simulator layers of `values` (totals over one pass of the set) and
/// returns `(attempted, failed)`.
pub fn run(
    tr: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
    seed: u64,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let inputs = match load(Path::new(INPUTS)) {
        Ok(v) => v,
        Err(e) => {
            problems.push(e);
            return (1, 1);
        }
    };
    let mut failed = 0u64;
    for (i, input) in inputs.iter().enumerate() {
        let seed = mix(seed, 900 + i as u64);
        let untraced = simulate(input, seed);
        let op = tr.next_op();
        let t = Instant::now();
        let traced = match input.noisy {
            Some(_) => tr.span("noise.run", op, 1, || simulate(input, seed)),
            None => replay(tr, op, input, seed),
        };
        tr.end("simulate", op, 0, t);
        let bad = match (&untraced, &traced) {
            (Output::State(a, ca), Output::State(b, cb))
                if a.amplitudes() != b.amplitudes() || ca != cb =>
            {
                Some("traced replay differs from the untraced run".to_string())
            }
            (Output::Noisy(a), Output::Noisy(b)) if a != b => {
                Some("traced replay differs from the untraced run".to_string())
            }
            _ => check(input, &untraced),
        };
        if let Some(why) = bad {
            failed += 1;
            problems.push(format!("{}: {why}", input.name));
        }
    }
    let c = |name: &str| tr.counters.get(name).copied().unwrap_or(0.0);
    for (name, v) in [
        ("fusion.plan_ms", tr.total_ms("fusion.plan")),
        (
            "fusion.ops_per_gate",
            c("fusion.ops") / c("fusion.gates").max(1.0),
        ),
        ("fusion.streamed_runs", c("fusion.streamed_runs")),
        ("kernel.apply_ms", c("kernel.apply_ms")),
        ("sim.sweeps", c("sim.sweeps")),
        ("sim.sample_ms", tr.total_ms("sim.sample")),
        ("noise.ms", tr.total_ms("noise.run")),
    ] {
        values.insert(name, v);
    }
    (2 * inputs.len() as u64, failed)
}

/// The output checks of one untraced run.
fn check(input: &Input, out: &Output) -> Option<String> {
    let shots: usize = out.counts().values().sum();
    if shots != SHOTS {
        return Some(format!("{shots} shots counted, {SHOTS} taken"));
    }
    match out {
        Output::State(sv, _) => {
            let got = sv.amplitudes();
            let worst = if input.reference.is_empty() {
                let want = per_gate_state(&input.circuit);
                got.iter()
                    .zip(want.amplitudes())
                    .map(|(a, b)| (*a - *b).norm_sqr().sqrt())
                    .fold(0.0, f64::max)
            } else {
                input
                    .reference
                    .iter()
                    .map(|&(i, b)| {
                        got.get(i)
                            .map_or(f64::INFINITY, |a| (*a - b).norm_sqr().sqrt())
                    })
                    .fold(0.0, f64::max)
            };
            (worst > 1e-9).then(|| format!("state off the per-gate path by {worst:.3e}"))
        }
        Output::Noisy(counts) => {
            let s = success_rate(counts, &input.logical, SHOTS);
            ((s - input.success).abs() > 0.05)
                .then(|| format!("success rate {s:.3}, frozen {:.3}", input.success))
        }
    }
}
