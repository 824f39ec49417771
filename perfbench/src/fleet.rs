//! `fleet-serve`: open-loop load over TCP against `qc-fleet --shards 2`
//! (one worker per core) with a fresh persist dir.
//!
//! Phases: an untimed closed-loop warm-up (part of `setup_s`), a latency
//! phase at one fixed rate, then a ladder of geometrically spaced rates
//! that stops at the first rung missing the p90 limit or falling behind.
//! The load comes from this process over two `TCP_NODELAY` connections,
//! one thread each, every request line written with a single `write`.

use crate::checks::{device_ready, ideal_distribution, logical_tv};
use crate::layers;
use crate::util::{
    check_repeatable, fnv64, geomean, median, metric, mix, ms, peak_rss_mb, quantile, shuffled,
    unit_f64, Outcome, Tracer,
};
use crate::Args;
use qc_algos::{qpe, quantum_volume, vqe_ry_ansatz};
use qc_backends::Backend;
use qc_circuit::qasm::{from_qasm, to_qasm};
use qc_circuit::{content_hash, Circuit};
use qc_serve::persist::decode_record;
use qc_serve::shard::{rendezvous_ranking, routing_key};
use qc_serve::wire::{decode_line, encode_response, escape_json, parse_flat_object, WireMsg};
use qc_serve::{budget_class, cache_key, CacheClass, KeyParts, SegmentLog, ServeOk, ServeResponse};
use qc_transpile::unroll::Unroller;
use qc_transpile::{Pass, PassSet};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker shards: one per core of the 2-core reference host.
const SHARDS: usize = 2;
/// Load connections (and load threads).
const CONNS: usize = 2;
/// Per-worker cache capacity (`--cache`); the key population is
/// [`POPULATION`], four times larger, so evictions happen within one run.
const CACHE: usize = 64;
const POPULATION: u64 = 256;
/// Zipf exponent of key popularity: about four requests in five hit a
/// warm entry, so the median sits well inside the warm hits and the p90
/// among the cold fills, away from the boundary between them.
const ZIPF_S: f64 = 1.4;
/// Closed-loop warm-up requests.
const WARMUP: usize = 64;
/// Latency-phase rate, about a third of the fleet's capacity (about
/// 21 req/s) at the revision that introduced this benchmark.
const LAT_RATE: f64 = 7.0;
/// Share of `--seconds` spent in the latency phase; the ladder gets the
/// rest (12 s of a 30 s run: four rungs, up to 47 req/s).
const LAT_SHARE: f64 = 0.6;
/// The ladder: first rung at twice `LAT_RATE`, each rung `GROWTH` times
/// the last and [`RUNG_REQUESTS`] long, so higher rungs take less time
/// and a much faster fleet still reaches its limit within the run.
const GROWTH: f64 = 1.5;
const RUNG_REQUESTS: usize = 64;
/// A rung passes when its p90 (from the scheduled send) stays under this:
/// twice the latency-phase p90 at the revision that introduced this
/// benchmark. The latency phase (about 126 requests in a 30 s run) has
/// ten samples beyond its p90, not beyond its p95.
const P90_LIMIT_MS: f64 = 350.0;
/// A connection with responses outstanding and none arriving for this
/// long counts its outstanding requests as transport errors.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);
/// Warm lines replayed in each replay phase of the traced run.
const REPLAYS: usize = 48;
/// The count probe: keys `0..COUNT_KEYS` of the population for
/// `COUNT_SEED` (each family × width × flow once), sent after the timed
/// phases. Its answers give `cx_total.*` and `gates_total`, which are
/// therefore the same for every workload seed and run length.
const COUNT_SEED: u64 = 0xc0de;
const COUNT_KEYS: u64 = 30;

struct Item {
    /// The request line, newline included.
    line: Vec<u8>,
    /// The circuit the service parses out of the line.
    logical: Circuit,
    rpo: bool,
}

/// The key population: paper-family circuits at 4–8 qubits, half routed
/// through `rpo`, half through `preset` level 3, all on `melbourne`.
fn population(seed: u64) -> Vec<Item> {
    (0..POPULATION).map(|k| item(seed, k)).collect()
}

/// Key `k` of the population for `seed`. Its family, width and flow depend
/// on `k` alone (keys 0..30 hold each combination once); its angles and
/// routing seed come from `seed`.
fn item(seed: u64, k: u64) -> Item {
    let h = mix(seed, 5000 + k);
    let n = 4 + ((k / 3) % 5) as usize;
    let circuit = match k % 3 {
        0 => qpe(n - 1, ((h >> 8) % 1000) as f64 / 1000.0),
        1 => vqe_ry_ansatz(n, 2, h >> 16),
        _ => {
            // SU(4) blocks have no QASM form: send them unrolled.
            let mut c = quantum_volume(n, h >> 16);
            Unroller::to_device_basis()
                .run(&mut c)
                .expect("quantum volume unrolls");
            c
        }
    };
    let rpo = (k / 15).is_multiple_of(2);
    let qasm = to_qasm(&circuit).expect("paper circuits export to QASM");
    let logical = from_qasm(&qasm).expect("exported QASM parses");
    let line = format!(
        "{{\"id\":\"k{k}\",\"qasm\":\"{}\",\"backend\":\"melbourne\",\"flow\":\"{}\",\"level\":3,\"seed\":{}}}\n",
        escape_json(&qasm),
        if rpo { "rpo" } else { "preset" },
        mix(seed, 6000 + k) % 1000
    );
    Item {
        line: line.into_bytes(),
        logical,
        rpo,
    }
}

/// Zipf-popular key draws: rank `r` has weight `1/(r+1)^s`. The traffic
/// shape (which key the i-th request of a phase asks for) is the same for
/// every workload seed, so runs differ in circuit content, not in how
/// often the cache is hit.
struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<usize>,
}

/// Seed of the fixed traffic shape.
const TRAFFIC: u64 = 0x5eed;

impl Zipf {
    fn new() -> Self {
        let mut acc = 0.0;
        let cdf = (0..POPULATION)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Zipf {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
            key_of_rank: shuffled(POPULATION as usize, TRAFFIC),
        }
    }

    /// The `i`-th draw of stream `stream`.
    fn draw(&self, stream: u64, i: u64) -> usize {
        let u = unit_f64(mix(TRAFFIC, stream.wrapping_mul(1 << 32) + i));
        let r = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.key_of_rank[r]
    }
}

/// One request as sent and answered.
struct Rec {
    item: usize,
    conn: usize,
    sched: Instant,
    sent: Instant,
    recv: Option<Instant>,
    resp: String,
}

impl Rec {
    /// Latency from the scheduled send, ms.
    fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| ms(r.duration_since(self.sched)))
    }
}

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Waits up to `timeout` for `stream` to become readable (data, EOF or
/// error).
fn readable(stream: &TcpStream, timeout: Duration) -> bool {
    const POLLIN: std::ffi::c_short = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: one valid pollfd, a valid timespec, no signal mask.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// Drives one connection: sends `reqs` (`(offset_s, item)`, sorted) at
/// `t0 + offset` — or, with `closed`, each as soon as the previous answer
/// arrived — and collects the in-order responses.
fn conn_loop(
    stream: &mut TcpStream,
    conn: usize,
    items: &[Item],
    reqs: &[(f64, usize)],
    closed: bool,
    t0: Instant,
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = Vec::with_capacity(reqs.len());
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        let due = (next < reqs.len() && (!closed || inflight.is_empty())).then(|| {
            if closed {
                now
            } else {
                t0 + Duration::from_secs_f64(reqs[next].0)
            }
        });
        if let Some(sched) = due {
            if now >= sched {
                let item = reqs[next].1;
                next += 1;
                if stream.write_all(&items[item].line).is_err() {
                    break;
                }
                recs.push(Rec {
                    item,
                    conn,
                    sched,
                    sent: Instant::now(),
                    recv: None,
                    resp: String::new(),
                });
                inflight.push_back(recs.len() - 1);
                if inflight.len() == 1 {
                    last_progress = Instant::now();
                }
                continue;
            }
        }
        if next >= reqs.len() && inflight.is_empty() {
            break;
        }
        let wait = due
            .map(|s| s.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        // `SO_RCVTIMEO` rounds up to scheduler ticks (milliseconds of send
        // lag); `ppoll` sleeps on a high-resolution timer instead.
        if !readable(stream, wait) {
            if !inflight.is_empty() && last_progress.elapsed() > RESPONSE_TIMEOUT {
                break;
            }
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(r) = inflight.pop_front() else {
                        break;
                    };
                    recs[r].recv = Some(at);
                    recs[r].resp = String::from_utf8_lossy(&line).trim_end().to_string();
                }
                last_progress = at;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Requests never sent (a broken connection) are recorded unanswered.
    for &(_, item) in &reqs[next..] {
        let at = Instant::now();
        recs.push(Rec {
            item,
            conn,
            sched: at,
            sent: at,
            recv: None,
            resp: String::new(),
        });
    }
    recs
}

/// Runs one phase: `reqs[i]` goes to connection `i % conns.len()`, each
/// connection on its own thread.
fn drive(conns: &mut [TcpStream], items: &[Item], reqs: &[(f64, usize)], closed: bool) -> Vec<Rec> {
    let t0 = Instant::now() + Duration::from_millis(5);
    let n = conns.len();
    let mut out: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<(f64, usize)> = reqs.iter().skip(c).step_by(n).copied().collect();
                s.spawn(move || conn_loop(stream, c, items, &mine, closed, t0))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.sort_by_key(|r| r.sched);
    out
}

/// One closed-loop control round trip (metrics, drain, entry).
fn round_trip(stream: &mut TcpStream, line: &str) -> std::io::Result<(String, f64)> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    let t = Instant::now();
    stream.write_all(&bytes)?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1 << 16];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::other("connection closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.last() == Some(&b'\n') {
            break;
        }
    }
    let rtt = ms(t.elapsed());
    Ok((String::from_utf8_lossy(&buf).trim_end().to_string(), rtt))
}

/// The raw text of `"key":<value>` in a response line (strings keep their
/// quotes, arrays their brackets).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = match rest.as_bytes().first()? {
        b'"' => {
            let mut escaped = false;
            let mut end = None;
            for (i, b) in rest.bytes().enumerate().skip(1) {
                match (escaped, b) {
                    (true, _) => escaped = false,
                    (false, b'\\') => escaped = true,
                    (false, b'"') => {
                        end = Some(i + 1);
                        break;
                    }
                    _ => {}
                }
            }
            end?
        }
        b'[' => rest.find(']')? + 1,
        _ => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let raw = field(line, key)?;
    let map = parse_flat_object(&format!("{{\"v\":{raw}}}")).ok()?;
    map.get("v")?.as_str().map(str::to_string)
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.trim().parse().ok()
}

/// A successful response, as far as the checks and metrics need it.
struct Answer {
    cache: String,
    compile_ns: u64,
    total_ns: u64,
    final_map: Vec<usize>,
    qasm: String,
}

fn answer(resp: &str) -> Option<Answer> {
    if field_str(resp, "status")? != "ok" {
        return None;
    }
    let map = field(resp, "final_map")?;
    Some(Answer {
        cache: field_str(resp, "cache")?,
        compile_ns: field_u64(resp, "compile_ns")?,
        total_ns: field_u64(resp, "total_ns")?,
        final_map: map
            .trim_matches(['[', ']'])
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse().ok())
            .collect::<Option<_>>()?,
        qasm: field_str(resp, "qasm")?,
    })
}

/// The flat counters of a `{"op":"metrics"}` reply.
fn counters(line: &str) -> BTreeMap<String, f64> {
    parse_flat_object(line)
        .map(|m| {
            m.into_iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k, n as f64)))
                .collect()
        })
        .unwrap_or_default()
}

fn delta(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>, key: &str) -> f64 {
    b.get(key).copied().unwrap_or(0.0) - a.get(key).copied().unwrap_or(0.0)
}

/// Files each record's answer under its item; a missing or failed answer
/// counts as failed.
fn collect_answers<'a>(
    recs: impl Iterator<Item = &'a Rec>,
    answers: &mut BTreeMap<usize, Vec<Answer>>,
    failed: &mut u64,
    problems: &mut Vec<String>,
) {
    for r in recs {
        match answer(&r.resp) {
            Some(a) => answers.entry(r.item).or_default().push(a),
            None => {
                *failed += 1;
                if problems.len() < 8 {
                    let why = if r.recv.is_none() {
                        "no response (transport error)".to_string()
                    } else {
                        r.resp.chars().take(200).collect()
                    };
                    problems.push(format!("request k{}: {why}", r.item));
                }
            }
        }
    }
}

/// Checks every distinct answer: its QASM parses, is device-ready on
/// `melbourne` and matches its input's ideal distribution, and all answers
/// for one item agree. Returns the output circuit of every item that
/// passes.
fn check_answers(
    items: &[Item],
    answers: &BTreeMap<usize, Vec<Answer>>,
    failed: &mut u64,
    problems: &mut Vec<String>,
) -> BTreeMap<usize, Circuit> {
    let melbourne = Backend::melbourne();
    let mut out = BTreeMap::new();
    for (&item, list) in answers {
        let first = &list[0];
        let checked = match from_qasm(&first.qasm) {
            Err(e) => Err(format!("response QASM does not parse: {e:?}")),
            Ok(_)
                if list
                    .iter()
                    .any(|a| a.qasm != first.qasm || a.final_map != first.final_map) =>
            {
                Err("responses for one key differ".to_string())
            }
            Ok(c) => {
                let want = ideal_distribution(&items[item].logical);
                device_ready(&c, &melbourne).and_then(|()| {
                    match logical_tv(&c, &first.final_map, &want) {
                        Some(tv) if tv <= 1e-6 => Ok(c),
                        Some(tv) => Err(format!("logical distribution off by TV {tv:.3e}")),
                        None => Err("output too wide to check".into()),
                    }
                })
            }
        };
        match checked {
            Ok(c) => {
                out.insert(item, c);
            }
            Err(why) => {
                *failed += list.len() as u64;
                problems.push(format!("k{item}: {why}"));
            }
        }
    }
    out
}

/// A running `qc-fleet`: the router child plus its workers' pids and
/// addresses, as announced on the router's stdout. Dropping it kills
/// whatever is still alive.
struct FleetProc {
    router: Child,
    addr: String,
    workers: Vec<(u32, String)>,
    pidfile: PathBuf,
}

impl FleetProc {
    fn spawn(args: &Args, persist: &Path) -> Result<Self, String> {
        let pidfile = args.out_dir.join("fleet.pids");
        kill_stale(&pidfile);
        let log = std::fs::File::create(args.out_dir.join("fleet-stderr.log"))
            .map_err(|e| format!("cannot create the fleet log: {e}"))?;
        let mut router = Command::new(args.bin_dir.join("qc-fleet"))
            .args(["--shards", &SHARDS.to_string(), "--listen", "127.0.0.1:0"])
            .arg("--persist-dir")
            .arg(persist)
            .arg("--worker-bin")
            .arg(args.bin_dir.join("qc-serve"))
            .args(["--cache", &CACHE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start qc-fleet: {e}"))?;
        let stdout = router.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        // Reads the announcements, then keeps draining so the pipe never
        // fills.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut proc = FleetProc {
            router,
            addr: String::new(),
            workers: Vec::new(),
            pidfile,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while proc.addr.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| "qc-fleet did not announce its address".to_string())?;
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["qc-fleet", "worker", _, "pid", pid, "listening", "on", addr] => {
                    let pid = pid.parse().map_err(|_| format!("bad pid in '{line}'"))?;
                    proc.workers.push((pid, addr.to_string()));
                    proc.write_pids();
                }
                ["qc-fleet", "listening", "on", addr] => proc.addr = addr.to_string(),
                _ => {}
            }
        }
        if proc.workers.len() != SHARDS {
            return Err(format!("qc-fleet announced {} workers", proc.workers.len()));
        }
        Ok(proc)
    }

    fn pids(&self) -> Vec<u32> {
        std::iter::once(self.router.id())
            .chain(self.workers.iter().map(|w| w.0))
            .collect()
    }

    fn write_pids(&self) {
        let text: Vec<String> = self.pids().iter().map(u32::to_string).collect();
        let _ = std::fs::write(&self.pidfile, text.join("\n"));
    }

    /// Waits for the router and workers to exit after a drain; `false`
    /// if any had to be killed.
    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let router_done = matches!(self.router.try_wait(), Ok(Some(_)));
            let workers_done = self.workers.iter().all(|w| !is_ours(w.0));
            if router_done && workers_done {
                let _ = std::fs::remove_file(&self.pidfile);
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for FleetProc {
    fn drop(&mut self) {
        let _ = self.router.kill();
        let _ = self.router.wait();
        for &(pid, _) in &self.workers {
            if is_ours(pid) {
                kill(pid);
            }
        }
        let _ = std::fs::remove_file(&self.pidfile);
    }
}

/// Whether `pid` is a live `qc-fleet` or `qc-serve` process.
fn is_ours(pid: u32) -> bool {
    let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // A zombie (state Z) has exited; only its parent can reap it.
    let zombie = stat
        .rsplit(')')
        .next()
        .is_some_and(|s| s.trim_start().starts_with('Z'));
    matches!(comm.trim(), "qc-fleet" | "qc-serve") && !zombie
}

fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// Kills fleet processes a crashed earlier run left behind.
fn kill_stale(pidfile: &Path) {
    let Ok(text) = std::fs::read_to_string(pidfile) else {
        return;
    };
    for pid in text.lines().filter_map(|l| l.trim().parse::<u32>().ok()) {
        if is_ours(pid) {
            kill(pid);
        }
    }
    let _ = std::fs::remove_file(pidfile);
}

/// The offered schedule of one open-loop phase: `count` requests at
/// `rate`, items from Zipf stream `stream` starting at draw `first`.
fn schedule(z: &Zipf, stream: u64, first: u64, count: usize, rate: f64) -> Vec<(f64, usize)> {
    (0..count)
        .map(|i| (i as f64 / rate, z.draw(stream, first + i as u64)))
        .collect()
}

struct RungStats {
    offered: f64,
    achieved: f64,
    p50: f64,
    p90: f64,
    lag_p95: f64,
    missing: usize,
    pass: bool,
}

fn rung_stats(recs: &[Rec], rate: f64) -> RungStats {
    let lat: Vec<f64> = recs.iter().filter_map(Rec::latency_ms).collect();
    let lag: Vec<f64> = recs
        .iter()
        .map(|r| ms(r.sent.duration_since(r.sched)))
        .collect();
    let missing = recs.len() - lat.len();
    let first = recs.iter().filter_map(|r| r.recv).min();
    let last = recs.iter().filter_map(|r| r.recv).max();
    let p90 = quantile(&lat, 0.9);
    // The last answer arrives later than the p90 limit after the last
    // scheduled send: the backlog grew.
    let behind = match (recs.last(), last) {
        (Some(r), Some(last)) => ms(last.saturating_duration_since(r.sched)) > P90_LIMIT_MS,
        _ => true,
    };
    // Completion rate between the first and the last answer.
    let span = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    RungStats {
        offered: rate,
        achieved: if span > 0.0 {
            (lat.len() - 1) as f64 / span
        } else {
            0.0
        },
        p50: median(&lat),
        p90,
        lag_p95: quantile(&lag, 0.95),
        missing,
        pass: missing == 0 && p90 <= P90_LIMIT_MS && !behind,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let _ = std::fs::create_dir_all(&args.out_dir);
    let persist = args.out_dir.join(format!("fleet-persist-{}", args.seed));
    let _ = std::fs::remove_dir_all(&persist);
    let result = run_fleet(args, &persist, &mut problems);
    let _ = std::fs::remove_dir_all(&persist);
    match result {
        Ok(outcome) => outcome,
        Err(e) => {
            problems.push(e);
            Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                problems,
            }
        }
    }
}

fn run_fleet(args: &Args, persist: &Path, problems: &mut Vec<String>) -> Result<Outcome, String> {
    let mut tr = Tracer::new(args.trace);
    // Set-up: input generation (median of three), fleet spawn, warm-up.
    let mut gen_ms = Vec::new();
    let mut items = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        items = population(args.seed);
        gen_ms.push(ms(t.elapsed()));
    }
    let zipf = Zipf::new();
    let t = Instant::now();
    let mut fleet = FleetProc::spawn(args, persist)?;
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| connect(&fleet.addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot connect to qc-fleet: {e}"))?;
    let spawn_ms = ms(t.elapsed());
    let t = Instant::now();
    let warm_reqs: Vec<(f64, usize)> = (0..WARMUP).map(|i| (0.0, zipf.draw(1, i as u64))).collect();
    let warm = drive(&mut conns, &items, &warm_reqs, true);
    let warmup_ms = ms(t.elapsed());
    let setup_s = (median(&gen_ms) + spawn_ms + warmup_ms) / 1e3;

    let metrics_line = |c: &mut TcpStream| -> Result<BTreeMap<String, f64>, String> {
        round_trip(c, "{\"op\":\"metrics\"}")
            .map(|(l, _)| counters(&l))
            .map_err(|e| format!("metrics op failed: {e}"))
    };
    let m1 = metrics_line(&mut conns[0])?;

    // Latency phase.
    let lat_secs = args.seconds * LAT_SHARE;
    let n_lat = ((LAT_RATE * lat_secs).round() as usize).max(CONNS);
    let timed = Instant::now();
    let lat = drive(
        &mut conns,
        &items,
        &schedule(&zipf, 2, 0, n_lat, LAT_RATE),
        false,
    );
    let lat_stats = rung_stats(&lat, LAT_RATE);

    // The ladder.
    let mut rungs: Vec<(RungStats, Vec<Rec>)> = Vec::new();
    let mut rate = 2.0 * LAT_RATE / GROWTH;
    let mut drawn = 0u64;
    let ladder_end = timed + Duration::from_secs_f64(args.seconds);
    loop {
        rate *= GROWTH;
        let rung_s = RUNG_REQUESTS as f64 / rate;
        if Instant::now() + Duration::from_secs_f64(rung_s) > ladder_end {
            break;
        }
        let sched = schedule(&zipf, 3, drawn, RUNG_REQUESTS, rate);
        let recs = drive(&mut conns, &items, &sched, false);
        drawn += RUNG_REQUESTS as u64;
        let stats = rung_stats(&recs, rate);
        let pass = stats.pass;
        rungs.push((stats, recs));
        if !pass {
            break;
        }
    }
    let timed_s = timed.elapsed().as_secs_f64();
    let m3 = metrics_line(&mut conns[0])?;

    // Everything sent in the timed phases.
    let all: Vec<&Rec> = lat
        .iter()
        .chain(rungs.iter().flat_map(|r| r.1.iter()))
        .collect();
    let mut failed = 0u64;
    let mut answers: BTreeMap<usize, Vec<Answer>> = BTreeMap::new();
    collect_answers(
        warm.iter().chain(all.iter().copied()),
        &mut answers,
        &mut failed,
        problems,
    );

    // Traced-run extras, while the fleet is still up.
    let mut values = BTreeMap::new();
    let trace_start = Instant::now();
    if args.trace {
        trace_fleet(
            &mut tr,
            &mut values,
            &fleet,
            &mut conns,
            &items,
            &lat,
            args.seed,
            &m1,
            &m3,
        )?;
    }
    let trace_extra_s = trace_start.elapsed().as_secs_f64();

    // The count probe, closed loop, untimed.
    let count_items: Vec<Item> = (0..COUNT_KEYS).map(|k| item(COUNT_SEED, k)).collect();
    let count_reqs: Vec<(f64, usize)> = (0..count_items.len()).map(|i| (0.0, i)).collect();
    let count_recs = drive(&mut conns, &count_items, &count_reqs, true);
    let mut count_answers: BTreeMap<usize, Vec<Answer>> = BTreeMap::new();
    collect_answers(count_recs.iter(), &mut count_answers, &mut failed, problems);
    let attempted = (warm.len() + all.len() + count_recs.len()) as u64;
    let m4 = metrics_line(&mut conns[0])?;

    // Peak memory, summed over the router and workers before the drain.
    let rss: f64 = fleet
        .pids()
        .iter()
        .map(|p| peak_rss_mb(&p.to_string()).unwrap_or(0.0))
        .sum();

    // Drain: zero router panics and zero handler panics, then every
    // process must exit on its own.
    let handler_panics = m4.get("handler_panics").copied().unwrap_or(-1.0);
    let drain = round_trip(&mut conns[0], "{\"op\":\"drain\"}")
        .map(|(l, _)| counters(&l))
        .map_err(|e| format!("drain op failed: {e}"))?;
    drop(conns);
    let router_panics = drain.get("fleet_router_panics").copied().unwrap_or(-1.0);
    if router_panics != 0.0 || handler_panics != 0.0 {
        failed += 1;
        problems.push(format!(
            "drain: {router_panics} router panics, {handler_panics} handler panics"
        ));
    }
    if !fleet.wait_exit(Duration::from_secs(20)) {
        failed += 1;
        problems.push("fleet processes still running 20 s after the drain".into());
    }
    drop(fleet);

    // Output checks, outside the timed phases. The determinism record
    // covers the warm-up keys and the count probe, neither of which
    // depends on the run length.
    let outputs = check_answers(&items, &answers, &mut failed, problems);
    let counted = check_answers(&count_items, &count_answers, &mut failed, problems);
    let (mut cx, mut gates) = ([0usize; 2], 0usize);
    for (&k, c) in &counted {
        let counts = c.gate_counts();
        cx[count_items[k].rpo as usize] += counts.cx;
        gates += counts.total;
    }
    let warm_keys: std::collections::BTreeSet<usize> = warm.iter().map(|r| r.item).collect();
    let digest: Vec<u8> = warm_keys
        .iter()
        .filter_map(|k| outputs.get(k).map(|c| (*k, content_hash(c))))
        .chain(
            counted
                .iter()
                .map(|(k, c)| (POPULATION as usize + k, content_hash(c))),
        )
        .flat_map(|(k, h)| (k as u64).to_le_bytes().into_iter().chain(h.to_le_bytes()))
        .collect();
    let record = format!(
        "cx.level3={} cx.rpo={} gates={gates} digest={:016x}",
        cx[0],
        cx[1],
        fnv64(&digest)
    );
    if let Some(prev) = check_repeatable(
        &args.out_dir,
        &format!("fleet-serve-{}", args.seed),
        &record,
    ) {
        failed += 1;
        problems.push(format!(
            "outputs not repeatable: this run {record}, earlier run {prev}"
        ));
    }

    // Rows: the latency phase, then one per ladder rung.
    let warm_answers = answers
        .values()
        .flatten()
        .filter(|a| a.cache == "warm")
        .count();
    println!(
        "# fleet-serve: {SHARDS} shards, cache {CACHE}/worker, {POPULATION} keys (zipf s={ZIPF_S}), \
         {} warm-up + {} timed requests in {timed_s:.2} s; {warm_answers} warm answers",
        warm.len(),
        all.len()
    );
    println!(
        "# {:<8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>7} {:>5}",
        "phase", "offered/s", "done/s", "p50_ms", "p90_ms", "lag95_ms", "missing", "pass"
    );
    let row = |name: &str, s: &RungStats| {
        println!(
            "# {:<8} {:>9.2} {:>9.2} {:>8.2} {:>8.2} {:>9.3} {:>7} {:>5}",
            name, s.offered, s.achieved, s.p50, s.p90, s.lag_p95, s.missing, s.pass
        )
    };
    row("latency", &lat_stats);
    for (i, (s, _)) in rungs.iter().enumerate() {
        row(&format!("rung{}", i + 1), s);
    }

    // The sustained rate. A ladder that ends on a failing rung ends
    // overloaded, and that rung completes at the fleet's capacity: its
    // completion rate is the figure. It does not jump a whole rung when a
    // borderline rung's p90 lands either side of the limit, as the offered
    // rate of the last passing rung would. A ladder that ran out of time
    // without failing reports its highest offered rate.
    let max_rate = match rungs.last() {
        Some((s, _)) if !s.pass => s.achieved,
        Some((s, _)) => s.offered,
        None => lat_stats.achieved,
    };
    let lat_ms: Vec<f64> = lat.iter().filter_map(Rec::latency_ms).collect();
    let mut by_flow = [Vec::new(), Vec::new()];
    for r in &lat {
        if let Some(l) = r.latency_ms() {
            by_flow[items[r.item].rpo as usize].push(l);
        }
    }

    let metrics = if args.trace {
        values.insert("fleet.spawn_ms", spawn_ms);
        values.insert("warmup.ms", warmup_ms);
        values.insert(
            "generator.lag_ms",
            quantile(
                &lat.iter()
                    .map(|r| ms(r.sent.duration_since(r.sched)))
                    .collect::<Vec<_>>(),
                0.95,
            ),
        );
        values.insert("trace.overhead_frac", trace_extra_s / timed_s);
        let _ = tr.write(
            &args
                .out_dir
                .join(format!("trace-fleet-serve-{}.jsonl", args.seed)),
        );
        layers::report(&values)
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio"),
            metric("peak_rss_mb", rss, "MiB"),
            metric("op_ms_geomean.level3", geomean(&by_flow[0]), "ms"),
            metric("op_ms_geomean.rpo", geomean(&by_flow[1]), "ms"),
            metric(
                "rpo_time_ratio",
                geomean(&by_flow[1]) / geomean(&by_flow[0]),
                "ratio",
            ),
            metric("op_ms_p50", median(&lat_ms), "ms"),
            metric("op_ms_p90", quantile(&lat_ms, 0.9), "ms"),
            metric("ops_per_s", max_rate, "1/s"),
            metric("cx_total.level3", cx[0] as f64, "count"),
            metric("cx_total.rpo", cx[1] as f64, "count"),
            metric("gates_total", gates as f64, "count"),
        ]
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        problems: std::mem::take(problems),
    })
}

/// The traced run's fleet-serve layers: response fields, metric-counter
/// deltas, two paced replay phases (warm lines straight to the workers,
/// then warm and fresh lines through the router), and the wire, cache and
/// persist functions timed in-process on the run's own lines.
#[allow(clippy::too_many_arguments)]
fn trace_fleet(
    tr: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
    fleet: &FleetProc,
    conns: &mut [TcpStream],
    items: &[Item],
    lat: &[Rec],
    seed: u64,
    m1: &BTreeMap<String, f64>,
    m3: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut warm_items = Vec::new();
    for r in lat {
        if answer(&r.resp).is_some_and(|a| a.cache == "warm") && !warm_items.contains(&r.item) {
            warm_items.push(r.item);
        }
    }

    // The replay phases, each paced like the latency phase: LAT_RATE over
    // the two connections, so every TCP hop sees the same gaps between
    // requests. First warm lines straight to the workers, one connection
    // to each (every recent entry sits on both, as owner and replica).
    // Then, through the router again, warm lines mixed with fresh ones: a
    // cold fill's router leg also pushes the entry to its replica before
    // the answer returns.
    let warm_lines: Vec<usize> = warm_items.iter().cycle().take(REPLAYS).copied().collect();
    let paced =
        |n: usize| -> Vec<(f64, usize)> { (0..n).map(|i| (i as f64 / LAT_RATE, i)).collect() };
    for (c, w) in fleet.workers.iter().enumerate().take(CONNS) {
        conns[c] = connect(&w.1).map_err(|e| format!("cannot connect to worker {c}: {e}"))?;
    }
    let direct_items: Vec<Item> = warm_lines.iter().map(|&k| item(seed, k as u64)).collect();
    let via_direct = drive(conns, &direct_items, &paced(direct_items.len()), false);
    for c in conns.iter_mut() {
        *c = connect(&fleet.addr).map_err(|e| format!("cannot reconnect: {e}"))?;
    }
    // Every seventh line is fresh, as about one answer in seven in the
    // latency phase is a cold fill: the replica pushes change when the
    // delayed-ACK stalls of the other requests fall.
    let fresh = mix(seed, 0xc01d);
    let mut routed_items = Vec::new();
    for (i, &k) in warm_lines.iter().enumerate() {
        routed_items.push(item(seed, k as u64));
        if i % 6 == 5 {
            // Distinct keys of both flows: 0, 7, 14, 21, 28, 5, …
            routed_items.push(item(fresh, (i as u64 / 6) * 7 % 30));
        }
    }
    let via_router = drive(conns, &routed_items, &paced(routed_items.len()), false);

    // RTT − total_ns of a record answered from the given cache class.
    let transport = |r: &Rec, class: &str| -> Option<f64> {
        let a = answer(&r.resp).filter(|a| a.cache == class)?;
        Some(ms(r.recv?.duration_since(r.sent)) - a.total_ns as f64 / 1e6)
    };
    let direct_warm: Vec<f64> = via_direct
        .iter()
        .filter_map(|r| transport(r, "warm"))
        .collect();
    let router_warm: Vec<f64> = via_router
        .iter()
        .filter_map(|r| transport(r, "warm"))
        .collect();
    let router_cold: Vec<f64> = via_router
        .iter()
        .filter_map(|r| transport(r, "cold"))
        .collect();
    let (direct_ms, router_ms) = (median(&direct_warm), median(&router_warm));
    let replicate_ms = (median(&router_cold) - router_ms).max(0.0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    // Each latency-phase request as top-level spans: generator lag
    // (scheduled to sent), head-of-line wait behind the previous answer on
    // its connection, and the worker's total_ns, all measured on the
    // request itself; then the router and both TCP hops, and on a cold
    // fill the replica push, at their means from the replay phases (about
    // one request in ten waits out one more delayed-ACK stall; a mean
    // carries that share, a median would not). What the replay figures
    // fail to account for shows as unattributed.frac.
    let hop_est = mean(&router_warm);
    let push_est = (mean(&router_cold) - hop_est).max(0.0);
    let dur = |v: f64| Duration::from_secs_f64(v.max(0.0) / 1e3);
    let mut service = [Vec::new(), Vec::new()];
    let mut measured_transport = Vec::new();
    let (mut hits, mut answered) = (0usize, 0usize);
    let mut prev_recv: [Option<Instant>; CONNS] = [None; CONNS];
    for r in lat {
        let (Some(recv), Some(a)) = (r.recv, answer(&r.resp)) else {
            continue;
        };
        let op = tr.next_op();
        tr.record("request", op, 0, r.sched, recv);
        tr.record("gen.lag", op, 1, r.sched, r.sent);
        let start = prev_recv[r.conn]
            .map_or(r.sent, |p| p.max(r.sent))
            .min(recv);
        prev_recv[r.conn] = Some(recv);
        tr.record("conn.queue", op, 1, r.sent, start);
        let served = start + Duration::from_nanos(a.total_ns);
        tr.record("worker.service", op, 1, start, served);
        let routed = served + dur(hop_est);
        tr.record("router+tcp", op, 1, served, routed);
        if a.cache == "cold" {
            tr.record("replicate", op, 1, routed, routed + dur(push_est));
        }
        measured_transport.push(ms(recv.duration_since(start)) - a.total_ns as f64 / 1e6);
        answered += 1;
        if a.cache == "warm" {
            hits += 1;
            service[0].push(a.total_ns as f64 / 1e6);
        } else if a.cache == "cold" {
            service[1].push(a.total_ns as f64 / 1e6);
        }
    }

    // Records for the persist timing, fetched through the router.
    let mut records = Vec::new();
    for &item in warm_items.iter().take(16) {
        let line = String::from_utf8_lossy(&items[item].line)
            .trim_end()
            .to_string();
        let Ok(WireMsg::Request(req)) = decode_line(&line) else {
            continue;
        };
        let key = routing_key(&req);
        let Ok((resp, _)) = round_trip(
            &mut conns[0],
            &format!("{{\"op\":\"entry\",\"key\":\"{key:032x}\"}}"),
        ) else {
            continue;
        };
        if let Some(hex) = field_str(&resp, "record").filter(|h| !h.is_empty()) {
            if let Ok(bytes) = qc_serve::wire::decode_hex(&hex) {
                records.push(bytes);
            }
        }
    }

    // In-process timings on the run's own lines.
    let lines: Vec<String> = {
        let mut seen: Vec<usize> = lat.iter().map(|r| r.item).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.iter()
            .map(|&i| {
                String::from_utf8_lossy(&items[i].line)
                    .trim_end()
                    .to_string()
            })
            .collect()
    };
    let (mut decode_us, mut parse_us, mut key_us, mut rank_us, mut encode_us, mut emit_us) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let responses: HashMap<usize, Answer> = lat
        .iter()
        .filter_map(|r| answer(&r.resp).map(|a| (r.item, a)))
        .collect();
    for line in &lines {
        let op = tr.next_op();
        let t = Instant::now();
        let msg = decode_line(line);
        decode_us.push(tr.end("wire.decode", op, 1, t) * 1e3);
        let Ok(WireMsg::Request(req)) = msg else {
            continue;
        };
        let qasm = field_str(line, "qasm").unwrap_or_default();
        let t = Instant::now();
        let _ = from_qasm(&qasm);
        parse_us.push(tr.end("qasm.parse", op, 1, t) * 1e3);
        let t = Instant::now();
        let _ = cache_key(&KeyParts {
            circuit: &req.circuit,
            backend: req.backend.name(),
            flow: req.flow.tag(),
            level: req.flow.level(),
            seed: req.seed,
            budget_class: budget_class(None),
            disabled: PassSet::empty(),
        });
        key_us.push(tr.end("cache.key", op, 1, t) * 1e3);
        let t = Instant::now();
        let _ = rendezvous_ranking(routing_key(&req), SHARDS);
        rank_us.push(tr.end("router.rank", op, 1, t) * 1e3);
        let item: usize = req.id.trim_start_matches('k').parse().unwrap_or(usize::MAX);
        if let Some(a) = responses.get(&item) {
            let Ok(out) = from_qasm(&a.qasm) else {
                continue;
            };
            let t = Instant::now();
            let _ = to_qasm(&out);
            emit_us.push(tr.end("qasm.emit", op, 1, t) * 1e3);
            let resp = ServeResponse {
                id: req.id.clone(),
                result: Ok(ServeOk {
                    qasm: a.qasm.clone(),
                    final_map: a.final_map.clone(),
                    degradation: Default::default(),
                    cache: CacheClass::Warm,
                    retries: 0,
                    retried_after: Vec::new(),
                    breaker_disabled: Vec::new(),
                    compile_nanos: a.compile_ns,
                    total_nanos: a.total_ns,
                    verified: false,
                }),
            };
            let t = Instant::now();
            let _ = encode_response(&resp);
            encode_us.push(tr.end("wire.encode", op, 1, t) * 1e3);
        }
    }
    // Appends of the run's own records to a fresh segment log.
    let mut append_us = Vec::new();
    let seg = fleet.pidfile.with_file_name("trace-append.seglog");
    let _ = std::fs::remove_file(&seg);
    if let Ok((mut log, _, _)) = SegmentLog::open(&seg) {
        for bytes in &records {
            if let Ok((key, entry)) = decode_record(bytes) {
                let op = tr.next_op();
                let t = Instant::now();
                let _ = log.append(key, &entry);
                append_us.push(tr.end("persist.append", op, 1, t) * 1e3);
            }
        }
    }
    let _ = std::fs::remove_file(&seg);

    for (name, v) in [
        ("transport.ms", median(&measured_transport)),
        ("tcp.direct_ms", direct_ms),
        ("router.hop_ms", router_ms - direct_ms),
        ("router.rank_us", mean(&rank_us)),
        ("replicate.pushes", delta(m1, m3, "replicated_entries")),
        ("replicate.ms", replicate_ms),
        ("wire.decode_us", mean(&decode_us)),
        ("qasm.parse_us", mean(&parse_us)),
        ("wire.encode_us", mean(&encode_us)),
        ("qasm.emit_us", mean(&emit_us)),
        ("service.ms.warm", median(&service[0])),
        ("service.ms.cold", median(&service[1])),
        ("cache.key_us", mean(&key_us)),
        ("cache.hit_ratio", hits as f64 / answered.max(1) as f64),
        ("cache.coalesced", delta(m1, m3, "coalesced")),
        ("cache.verifies", delta(m1, m3, "integrity_checks")),
        (
            "shed.count",
            [
                "shed_overloaded",
                "shed_drain",
                "shed_deadline",
                "fleet_shed",
            ]
            .iter()
            .map(|k| delta(m1, m3, k))
            .sum(),
        ),
        ("persist.appends", delta(m1, m3, "persist_appends")),
        ("persist.compactions", delta(m1, m3, "compactions")),
        ("persist.append_us", mean(&append_us)),
        ("unattributed.frac", tr.unattributed_frac("request")),
    ] {
        values.insert(name, v);
    }
    Ok(())
}
