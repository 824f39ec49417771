//! The repo benchmark: one binary, two workloads.
//!
//! ```text
//! perfbench --workload paper-compile|fleet-serve --seed N
//!           --seconds S --trace 0|1 [--bin-dir DIR] [--out-dir DIR]
//! perfbench --freeze-inputs DIR
//! ```
//!
//! Prints one row per program or ladder rung as `#` lines, a
//! `# host {...}` record, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`). Exits 1 when any
//! output check fails.

mod checks;
mod compile;
mod fleet;
mod layers;
mod probe;
mod util;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the `qc-fleet` and `qc-serve` binaries live.
    pub bin_dir: PathBuf,
    /// Scratch space for traces, determinism records and persist dirs.
    pub out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload paper-compile|fleet-serve --seed N --seconds S \
         --trace 0|1 [--bin-dir DIR] [--out-dir DIR]\n       perfbench --freeze-inputs DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = PathBuf::from(value),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--freeze-inputs") {
        let Some(dir) = argv.get(2) else { usage() };
        if let Err(e) = probe::freeze(std::path::Path::new(dir)) {
            eprintln!("perfbench: cannot freeze the simulator inputs: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "paper-compile" => compile::run(&args),
        "fleet-serve" => fleet::run(&args),
        _ => usage(),
    };
    println!("# host {}", util::host_record());
    for p in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    println!("{}", outcome.json());
    if !outcome.correct {
        std::process::exit(1);
    }
}
