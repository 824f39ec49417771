//! Shared plumbing: statistics, seeding, the span recorder, peak memory,
//! the host record and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every input is a pure function of `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic permutation of `0..n` from `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated quantile `q ∈ [0,1]` of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of process `pid` (`self` for this one) in MiB, from
/// `/proc/<pid>/status` `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed interval of the traced run. Spans of one operation share
/// `op`; `depth` 1 marks the top-level layers of an operation (their sum
/// against the operation's wall time gives the unattributed share).
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span and counter recorder. Spans are only kept when tracing
/// is on; they are written out once, when the run ends.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
    next_op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            next_op: 0,
        }
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records `[start, now)` under `name` and returns the duration in ms.
    pub fn end(&mut self, name: &'static str, op: u64, depth: u8, start: Instant) -> f64 {
        self.record(name, op, depth, start, Instant::now())
    }

    /// Records `[start, end)` under `name` and returns the duration in ms.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        depth: u8,
        start: Instant,
        end: Instant,
    ) -> f64 {
        if self.on {
            self.spans.push(Span {
                name,
                op,
                depth,
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                end_ns: end.duration_since(self.t0).as_nanos() as u64,
            });
        }
        ms(end.duration_since(start))
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, depth: u8, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.end(name, op, depth, t);
        out
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Total milliseconds recorded under `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// |Σ operation wall − Σ depth-1 spans| ÷ Σ operation wall, over every
    /// operation whose depth-0 span is named `op_name`: the share of the
    /// wall time the top-level spans miss, or overcount where a span is an
    /// estimate measured elsewhere.
    pub fn unattributed_frac(&self, op_name: &str) -> f64 {
        let ops: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.depth == 0 && s.name == op_name)
            .map(|s| s.op)
            .collect();
        let mut wall = 0.0;
        let mut covered = 0.0;
        for s in self.spans.iter().filter(|s| ops.contains(&s.op)) {
            let d = (s.end_ns - s.start_ns) as f64;
            match s.depth {
                0 => wall += d,
                1 => covered += d,
                _ => {}
            }
        }
        if wall > 0.0 {
            ((wall - covered) / wall).abs()
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"depth\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.depth, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form failure descriptions (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push(',');
            }
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let _ = write!(
                m,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.name, v, x.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct, self.attempted, self.failed, m
        )
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host record printed with every result: where and what was measured.
pub fn host_record() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let simd: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| {
            matches!(
                *f,
                "sse2" | "sse4_1" | "sse4_2" | "avx" | "avx2" | "fma" | "avx512f" | "neon"
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        concat!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"simd\":\"{}\",\"kernel_threads\":{},",
            "\"features\":\"default\",\"profile\":\"release\",\"rustc\":\"{}\",\"rev\":\"{}\"}}"
        ),
        nproc,
        field("model name").replace('"', "'"),
        simd.join(" "),
        qc_math::kernel_threads(),
        first_line("rustc", &["--version"]).replace('"', "'"),
        source_rev(),
    )
}

/// The revision being measured: `git rev-parse HEAD` where the checkout is
/// a repository, else a digest of this benchmark binary (it changes with
/// every byte of compiled code).
pub fn source_rev() -> String {
    // Only a repository rooted here counts: git would otherwise report
    // whatever repository encloses the checkout.
    if std::path::Path::new(".git").exists() {
        let git = first_line("git", &["rev-parse", "--short=12", "HEAD"]);
        if git.len() == 12 && git.bytes().all(|b| b.is_ascii_hexdigit()) {
            return git;
        }
    }
    format!("bin-{:016x}", binary_digest())
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over this executable's bytes.
pub fn binary_digest() -> u64 {
    fnv64(
        &std::env::current_exe()
            .and_then(std::fs::read)
            .unwrap_or_default(),
    )
}

/// Cross-run determinism record: the first run of a given binary, workload
/// and seed stores `value` under `dir`; every later run must reproduce it.
/// Returns the stored value when it differs.
pub fn check_repeatable(dir: &std::path::Path, key: &str, value: &str) -> Option<String> {
    let path = dir.join(format!("determinism-{:016x}-{key}.txt", binary_digest()));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == value => None,
        Ok(prev) => Some(prev.trim().to_string()),
        Err(_) => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, value);
            None
        }
    }
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Nominal time of one [`speed_probe`], ms: its median on the 2-vCPU Xeon
/// host the benchmark was defined on.
pub const PROBE_NOMINAL_MS: f64 = 6.0;
/// A probe runs when the last one is this old.
const PROBE_EVERY: Duration = Duration::from_millis(60);
/// A compile is scaled by the median of the probes within this distance.
const PROBE_WINDOW: Duration = Duration::from_millis(750);

/// A fixed piece of allocation- and cache-heavy work, independent of the
/// repository's crates: build a random DAG, clone it and sort it
/// topologically, sort integers, fill a hash map. On a shared host the
/// speed of such code drifts by 1.5× within minutes while an ALU loop, and
/// the thread's CPU time against its wall time, stay flat (no steal: the
/// slowdown is contention in the memory hierarchy). Interleaved with
/// compiles, a larger version of this work tracked their time with
/// correlation 0.97 over 10 s windows (perfbench/README.md, Host speed).
pub fn speed_probe() -> u64 {
    type FixedHash = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n = 6000;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 1..n {
        for _ in 0..3 {
            let j = (next() % i as u64) as usize;
            adj[j].push(i as u32);
        }
    }
    let mut out = 0u64;
    for _ in 0..2 {
        let g = adj.clone();
        let mut indeg = vec![0u32; n];
        for e in &g {
            for &t in e {
                indeg[t as usize] += 1;
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(u) = queue.pop_front() {
            out += u as u64;
            for &t in &g[u] {
                indeg[t as usize] -= 1;
                if indeg[t as usize] == 0 {
                    queue.push_back(t as usize);
                }
            }
        }
    }
    let mut v: Vec<u64> = (0..40_000).map(|_| next()).collect();
    v.sort_unstable();
    out += v[v.len() / 2];
    let mut m: std::collections::HashMap<u64, u64, FixedHash> = Default::default();
    for i in 0..30_000u64 {
        let k = next();
        *m.entry(k % 4000).or_insert(0) += i;
        out += m.get(&(k % 777)).copied().unwrap_or(0);
    }
    out
}

/// Host speed over a run, from [`speed_probe`]s taken between compiles.
/// A compile time `t` at instant `at` is reported as
/// `t × PROBE_NOMINAL_MS ÷ (median probe time around at)`: milliseconds at
/// the nominal host speed.
pub struct HostSpeed {
    probes: Vec<(Instant, f64)>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut s = HostSpeed { probes: Vec::new() };
        s.probe();
        s
    }

    fn probe(&mut self) {
        let t = Instant::now();
        std::hint::black_box(speed_probe());
        self.probes.push((t, ms(t.elapsed())));
    }

    /// Probes when the last probe is older than `PROBE_EVERY`; call it
    /// between timed operations.
    pub fn tick(&mut self) {
        if self
            .probes
            .last()
            .is_none_or(|p| p.0.elapsed() >= PROBE_EVERY)
        {
            self.probe();
        }
    }

    /// The factor that scales a time measured at `at` to nominal speed.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|p| p.0.max(at).duration_since(p.0.min(at)) <= PROBE_WINDOW)
            .map(|p| p.1)
            .collect();
        let local = if near.is_empty() {
            median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>())
        } else {
            median(&near)
        };
        PROBE_NOMINAL_MS / local
    }

    /// The factor for everything measured in `[from, to]`.
    pub fn factor_between(&self, from: Instant, to: Instant) -> f64 {
        let inside: Vec<f64> = self
            .probes
            .iter()
            .filter(|p| p.0 >= from && p.0 <= to)
            .map(|p| p.1)
            .collect();
        if inside.is_empty() {
            self.factor_at(from)
        } else {
            PROBE_NOMINAL_MS / median(&inside)
        }
    }

    /// Median probe time over the whole run, ms.
    pub fn median_ms(&self) -> f64 {
        median(&self.probes.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}
