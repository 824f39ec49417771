//! Load generator for the `qc-serve` transpile service.
//!
//! ```text
//! serve_load [--requests N] [--threads T] [--seed S] [--json PATH]
//!            [--connect ADDR:PORT] [--drain]
//! ```
//!
//! Default mode drives an **in-process** [`TranspileService`] through the
//! three workload tiers of the serving story and reports latency
//! percentiles per tier:
//!
//! * `cold` — every request is a distinct circuit (full compile);
//! * `warm-identical` — every request is a byte-identical repeat of an
//!   already-served circuit (content-addressed cache hit);
//! * `warm-edited` — every request is a one-gate edit of a served circuit
//!   (a fresh cache key, but the process-wide synthesis memo and warmed
//!   allocator make it cheaper than a true cold start);
//!
//! then a mixed multi-threaded phase interleaving all three for
//! throughput and p99. With `--json PATH` the tier medians are written in
//! the workspace's bench format, ready for `scripts/bench_check.sh`. The
//! run fails (exit 1) if the warm-identical median is not at least 10×
//! faster than the cold median — the serving layer's acceptance bar.
//!
//! With `--connect ADDR:PORT` it instead smoke-tests a running `qc-serve`
//! front-end over TCP with the same tiers (one connection, JSONL), checks
//! every response line, and with `--drain` finishes by draining the
//! server and validating the drain report.
//!
//! Fleet/persistence modes (all against `--connect`):
//!
//! * `--soak SECS` — open-loop soak: arrivals scheduled at a fixed
//!   `--rate` (never back-pressured by responses), latencies measured
//!   from the *scheduled* arrival so queueing delay is charged honestly,
//!   fixed 5 s windows of p50/p95/p99/max plus shed/error rates, and a
//!   machine-readable SLO verdict (`--json`) that CI gates on: post-warmup
//!   p99 under `--slo-p99-ms`, shed rate under `--slo-shed`, zero
//!   non-shed errors.
//! * `--fill N` — send N distinct circuits and require every response ok
//!   (populates shard caches ahead of a restart test).
//! * `--expect-warm N` — send the same N circuits and require every
//!   response to be a warm cache hit (the restart-survival assertion).
//! * `--chaos SECS --fleet-log PATH` — chaos soak against a running
//!   `qc-fleet`: fill the shard caches, wait until the router owes no
//!   replica push (`fleet_replication_pending` reads 0, at most 30 s),
//!   then loop kill -9 of workers (pids parsed from the fleet's log
//!   file), tearing their segment logs on alternate kills
//!   (`--persist-dir`), probing every filled key through the router, and
//!   waiting for the supervisor to revive the victim. Gates (reported as
//!   `"chaos_pass"` with `--json`): replication settled before the first
//!   kill, zero router panics, zero failed probes, every worker revived,
//!   a clean full-fleet drain, and ≥90% of failover-served responses
//!   warm — the replication tentpole's headline number.
//!
//! `--persist-bench DIR` (in-process) measures segment-log replay:
//! fill a persisted service, reopen it repeatedly, and emit the
//! per-entry restore cost as the `serve_persist_restore` bench entry.

use qc_backends::Backend;
use qc_circuit::qasm::to_qasm;
use qc_circuit::Circuit;
use qc_serve::wire::escape_json;
use qc_serve::{CacheClass, ServeConfig, ServeFlow, ServeRequest, TranspileService};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
    threads: usize,
    seed: u64,
    json: Option<String>,
    connect: Option<String>,
    drain: bool,
    soak_secs: u64,
    rate: f64,
    slo_p99_ms: f64,
    slo_shed: f64,
    fill: Option<usize>,
    expect_warm: Option<usize>,
    persist_bench: Option<String>,
    chaos_secs: u64,
    fleet_log: Option<String>,
    persist_dir: Option<String>,
    kill_every: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--requests N] [--threads T] [--seed S] [--json PATH] \
         [--connect ADDR:PORT] [--drain] [--soak SECS] [--rate R] [--slo-p99-ms MS] \
         [--slo-shed FRAC] [--fill N] [--expect-warm N] [--persist-bench DIR] \
         [--chaos SECS --fleet-log PATH [--persist-dir DIR] [--kill-every N]]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        requests: 24,
        threads: 4,
        seed: 7,
        json: None,
        connect: None,
        drain: false,
        soak_secs: 0,
        rate: 100.0,
        slo_p99_ms: 250.0,
        slo_shed: 0.05,
        fill: None,
        expect_warm: None,
        persist_bench: None,
        chaos_secs: 0,
        fleet_log: None,
        persist_dir: None,
        kill_every: 2,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--requests" => out.requests = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--threads" => out.threads = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--seed" => out.seed = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--json" => out.json = Some(val(&mut args)),
            "--connect" => out.connect = Some(val(&mut args)),
            "--drain" => out.drain = true,
            "--soak" => out.soak_secs = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--rate" => out.rate = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--slo-p99-ms" => out.slo_p99_ms = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--slo-shed" => out.slo_shed = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--fill" => out.fill = Some(val(&mut args).parse().unwrap_or_else(|_| usage())),
            "--expect-warm" => {
                out.expect_warm = Some(val(&mut args).parse().unwrap_or_else(|_| usage()))
            }
            "--persist-bench" => out.persist_bench = Some(val(&mut args)),
            "--chaos" => out.chaos_secs = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--fleet-log" => out.fleet_log = Some(val(&mut args)),
            "--persist-dir" => out.persist_dir = Some(val(&mut args)),
            "--kill-every" => out.kill_every = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve_load: unknown flag '{other}'");
                usage();
            }
        }
    }
    out.requests = out.requests.max(4);
    out.threads = out.threads.clamp(1, 32);
    if !(out.rate > 0.0 && out.rate.is_finite()) {
        usage();
    }
    out
}

/// A 6-qubit layered circuit, distinct per `variant` (every rotation angle
/// depends on it), using only QASM-serializable gates.
fn workload_circuit(variant: u64) -> Circuit {
    let n = 6;
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..4usize {
        for q in 0..n {
            let angle = 0.1 + 0.05 * variant as f64 + 0.2 * (layer * n + q) as f64;
            c.ry(angle, q);
            c.rz(angle * 0.7, q);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            c.cx(q, q + 1);
        }
    }
    c.measure_all();
    c
}

/// A one-gate edit of `workload_circuit(0)`: same structure, one extra
/// trailing rotation whose angle varies per `i`.
fn edited_circuit(i: u64) -> Circuit {
    let mut c = workload_circuit(0);
    c.rz(1e-3 * (i + 1) as f64, 0);
    c
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

struct Tier {
    name: &'static str,
    latencies: Vec<u64>,
    threads: usize,
}

impl Tier {
    fn median(&self) -> u64 {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        percentile(&v, 0.5)
    }

    fn p99(&self) -> u64 {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        percentile(&v, 0.99)
    }
}

fn request(id: String, circuit: Circuit, seed: u64) -> ServeRequest {
    ServeRequest {
        id,
        circuit,
        backend: Backend::melbourne(),
        flow: ServeFlow::Preset { level: 3 },
        seed,
        deadline: None,
    }
}

fn timed(service: &TranspileService, req: ServeRequest) -> (u64, CacheClass) {
    let t0 = Instant::now();
    let resp = service.handle(req);
    let nanos = t0.elapsed().as_nanos() as u64;
    let ok = resp
        .result
        .unwrap_or_else(|e| panic!("load request failed: {e}"));
    (nanos, ok.cache)
}

fn run_in_process(args: &Args) -> i32 {
    let service = Arc::new(TranspileService::new(ServeConfig {
        max_concurrent: args.threads,
        verify_every: 16,
        ..ServeConfig::default()
    }));
    let r = args.requests;

    // Tier 1: cold — r distinct circuits.
    let mut cold = Tier {
        name: "serve_cold",
        latencies: Vec::with_capacity(r),
        threads: 1,
    };
    for i in 0..r {
        let (ns, class) = timed(
            &service,
            request(format!("cold{i}"), workload_circuit(i as u64), args.seed),
        );
        assert_eq!(class, CacheClass::Cold, "cold tier must miss the cache");
        cold.latencies.push(ns);
    }

    // Tier 2: warm-identical — byte-identical repeats of variant 0.
    let mut warm = Tier {
        name: "serve_warm_identical",
        latencies: Vec::with_capacity(r),
        threads: 1,
    };
    for i in 0..r {
        let (ns, class) = timed(
            &service,
            request(format!("warm{i}"), workload_circuit(0), args.seed),
        );
        assert_eq!(class, CacheClass::Warm, "identical repeats must hit");
        warm.latencies.push(ns);
    }

    // Tier 3: warm-edited — one-gate edits (fresh keys, warmed process).
    let mut edited = Tier {
        name: "serve_warm_edited",
        latencies: Vec::with_capacity(r),
        threads: 1,
    };
    for i in 0..r {
        let (ns, _) = timed(
            &service,
            request(format!("edit{i}"), edited_circuit(i as u64), args.seed),
        );
        edited.latencies.push(ns);
    }

    // Mixed phase: T threads interleaving all three tiers.
    let total = r * args.threads;
    let t0 = Instant::now();
    let mut mixed_lat: Vec<u64> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                let service = Arc::clone(&service);
                let seed = args.seed;
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(r);
                    for i in 0..r {
                        let k = (t * r + i) as u64;
                        let circuit = match i % 3 {
                            0 => workload_circuit(k % 8), // mostly warm after round 1
                            1 => workload_circuit(0),     // always warm
                            _ => edited_circuit(k),       // always a fresh key
                        };
                        let (ns, _) = timed(&service, request(format!("mix{k}"), circuit, seed));
                        lats.push(ns);
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            mixed_lat.extend(h.join().expect("mixed-phase worker must not panic"));
        }
    });
    let wall = t0.elapsed().as_nanos() as u64;
    let mixed = Tier {
        name: "serve_p99_latency_mixed",
        latencies: mixed_lat,
        threads: args.threads,
    };

    let m = service.metrics();
    println!(
        "# serve_load: {} requests/tier, {} threads mixed\n",
        r, args.threads
    );
    println!("| tier | median | p99 |");
    println!("|---|---:|---:|");
    for tier in [&cold, &warm, &edited, &mixed] {
        println!(
            "| {} | {:.3} ms | {:.3} ms |",
            tier.name,
            tier.median() as f64 / 1e6,
            tier.p99() as f64 / 1e6
        );
    }
    let throughput_ns = wall / total as u64;
    println!(
        "\nmixed throughput: {:.1} req/s ({} requests in {:.1} ms)",
        total as f64 / (wall as f64 / 1e9),
        total,
        wall as f64 / 1e6
    );
    println!(
        "metrics: ok={} err={} compiles={} warm={} coalesced={} shed={} retries={} \
         integrity={}/{} panics={}",
        m.served_ok,
        m.served_err,
        m.compiles,
        m.cache_warm,
        m.coalesced,
        m.shed_overloaded + m.shed_deadline + m.shed_drain,
        m.retries,
        m.integrity_checks - m.integrity_failures,
        m.integrity_checks,
        m.handler_panics
    );

    if let Some(path) = &args.json {
        let mut out = String::from("[\n");
        let entries = [
            (cold.name, cold.median(), cold.threads),
            (warm.name, warm.median(), warm.threads),
            (edited.name, edited.median(), edited.threads),
            ("serve_throughput_mixed", throughput_ns, args.threads),
            (mixed.name, mixed.p99(), mixed.threads),
        ];
        for (i, (name, ns, threads)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{name}\", \"median_ns\": {ns}.0, \"samples\": {r}, \
                 \"iters_per_sample\": 1, \"threads\": {threads}}}{comma}\n"
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote bench JSON to {path}");
    }

    // The serving acceptance bar: a warm-identical hit must be at least an
    // order of magnitude cheaper than a cold compile.
    let ratio = cold.median() as f64 / warm.median().max(1) as f64;
    println!("cold/warm-identical ratio: {ratio:.1}x (bar: >= 10x)");
    if ratio < 10.0 {
        eprintln!("serve_load: FAIL — warm-identical tier is not >= 10x faster than cold");
        return 1;
    }
    if m.served_err > 0 || m.handler_panics > 0 || m.integrity_failures > 0 {
        eprintln!("serve_load: FAIL — errors during a healthy load run");
        return 1;
    }
    0
}

/// Pulls the status tag out of a response line by substring — responses
/// are not flat objects (they carry arrays), so this is the parse.
fn status_of(line: &str) -> Option<String> {
    let rest = &line[line.find("\"status\":\"")? + "\"status\":\"".len()..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The request line for workload variant `i` (deterministic across
/// processes — `--fill` in one run and `--expect-warm` in the next build
/// byte-identical circuits).
fn variant_line(i: u64, seed: u64) -> String {
    let qasm = to_qasm(&workload_circuit(i)).expect("workload serializes");
    format!(
        "{{\"id\": \"v{i}\", \"qasm\": \"{}\", \"backend\": \"melbourne\", \
         \"flow\": \"preset\", \"level\": 3, \"seed\": {seed}}}",
        escape_json(&qasm)
    )
}

/// One blocking JSONL round trip on an owned connection, reconnecting
/// once on failure.
struct LineConn {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl LineConn {
    fn new(addr: &str) -> Self {
        LineConn {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<String> {
        for attempt in 0..2 {
            if self.conn.is_none() {
                self.conn = Some(BufReader::new(TcpStream::connect(&self.addr)?));
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            let result = (|| -> std::io::Result<String> {
                let w = conn.get_mut();
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
                w.flush()?;
                let mut resp = String::new();
                if conn.read_line(&mut resp)? == 0 {
                    return Err(std::io::Error::other("server closed the connection"));
                }
                Ok(resp.trim_end().to_string())
            })();
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.conn = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!()
    }
}

/// `--fill N` / `--expect-warm N`: drive the N deterministic workload
/// variants through the server; with `expect_warm`, additionally require
/// every response to be a warm cache hit (a persisted cache surviving a
/// restart is exactly this assertion).
fn run_fill(args: &Args, addr: &str, n: usize, expect_warm: bool) -> i32 {
    let mut conn = LineConn::new(addr);
    let mut failures = 0usize;
    for i in 0..n {
        let line = variant_line(i as u64, args.seed);
        match conn.round_trip(&line) {
            Ok(resp) => {
                if status_of(&resp).as_deref() != Some("ok") {
                    eprintln!("serve_load: variant {i}: non-ok response: {resp}");
                    failures += 1;
                } else if expect_warm && !resp.contains("\"cache\":\"warm\"") {
                    eprintln!("serve_load: variant {i}: expected a warm hit, got: {resp}");
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("serve_load: variant {i}: transport error: {e}");
                failures += 1;
            }
        }
    }
    let mode = if expect_warm { "expect-warm" } else { "fill" };
    if failures == 0 {
        println!("serve_load: {mode} OK ({n} variants)");
        0
    } else {
        eprintln!("serve_load: {mode} FAILED ({failures}/{n} bad)");
        1
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SoakStatus {
    Ok,
    Shed,
    Error,
}

#[derive(Clone, Copy)]
struct SoakSample {
    /// Scheduled arrival offset from soak start, nanoseconds.
    sched_ns: u64,
    /// Response latency measured from the scheduled arrival.
    latency_ns: u64,
    status: SoakStatus,
}

struct WindowStats {
    total: usize,
    ok: usize,
    shed: usize,
    errors: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

fn window_stats(samples: &[SoakSample]) -> WindowStats {
    let mut lats: Vec<u64> = samples
        .iter()
        .filter(|s| s.status == SoakStatus::Ok)
        .map(|s| s.latency_ns)
        .collect();
    lats.sort_unstable();
    WindowStats {
        total: samples.len(),
        ok: lats.len(),
        shed: samples
            .iter()
            .filter(|s| s.status == SoakStatus::Shed)
            .count(),
        errors: samples
            .iter()
            .filter(|s| s.status == SoakStatus::Error)
            .count(),
        p50: percentile(&lats, 0.50),
        p95: percentile(&lats, 0.95),
        p99: percentile(&lats, 0.99),
        max: lats.last().copied().unwrap_or(0),
    }
}

/// `--soak SECS`: open-loop mixed arrivals against a running fleet (or
/// single server), fixed-window latency tracking, SLO verdict.
fn run_soak(args: &Args, addr: &str) -> i32 {
    const WINDOW_NS: u64 = 5_000_000_000;
    let period_ns = (1e9 / args.rate) as u64;
    let total = ((args.soak_secs as f64) * args.rate) as usize;
    let threads = args.threads;
    println!(
        "serve_load: soaking {addr} for {} s at {:.0} req/s ({} requests, {} sender threads)",
        args.soak_secs, args.rate, total, threads
    );

    let t0 = Instant::now();
    let mut samples: Vec<SoakSample> = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let seed = args.seed;
                scope.spawn(move || {
                    let mut conn = LineConn::new(addr);
                    let mut out = Vec::with_capacity(total / threads + 1);
                    let mut i = t;
                    while i < total {
                        let sched_ns = i as u64 * period_ns;
                        let sched = Duration::from_nanos(sched_ns);
                        // Open loop: fire at the scheduled instant no
                        // matter how the previous response went.
                        if let Some(wait) = sched.checked_sub(t0.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let k = i as u64;
                        let line = match i % 3 {
                            0 => variant_line(k % 8, seed), // mostly warm
                            1 => variant_line(0, seed),     // always warm
                            _ => {
                                // Fresh key every time: a real compile.
                                let qasm = to_qasm(&edited_circuit(k)).expect("edit serializes");
                                format!(
                                    "{{\"id\": \"s{k}\", \"qasm\": \"{}\", \"backend\": \
                                     \"melbourne\", \"flow\": \"preset\", \"level\": 3, \
                                     \"seed\": {seed}}}",
                                    escape_json(&qasm)
                                )
                            }
                        };
                        let status = match conn.round_trip(&line) {
                            Ok(resp) => match status_of(&resp).as_deref() {
                                Some("ok") => SoakStatus::Ok,
                                Some("error")
                                    if resp.contains("\"kind\":\"shed\"")
                                        || resp.contains("\"kind\":\"overloaded\"") =>
                                {
                                    SoakStatus::Shed
                                }
                                _ => SoakStatus::Error,
                            },
                            Err(_) => SoakStatus::Error,
                        };
                        // Latency from the *scheduled* arrival: a sender
                        // running late charges the delay to the request
                        // (no coordinated omission).
                        let latency_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(sched_ns);
                        out.push(SoakSample {
                            sched_ns,
                            latency_ns,
                            status,
                        });
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            samples.extend(h.join().expect("soak sender must not panic"));
        }
    });

    // Fixed windows over the scheduled timeline; window 0 is warmup
    // (cold caches, JIT-warming the fleet) and excluded from the SLO.
    let windows = (args.soak_secs * 1_000_000_000).div_ceil(WINDOW_NS) as usize;
    let mut per_window: Vec<Vec<SoakSample>> = vec![Vec::new(); windows.max(1)];
    for s in &samples {
        let w = ((s.sched_ns / WINDOW_NS) as usize).min(per_window.len() - 1);
        per_window[w].push(*s);
    }
    println!("\n| window | total | ok | shed | err | p50 | p95 | p99 | max |");
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    let mut window_rows = Vec::new();
    for (w, bucket) in per_window.iter().enumerate() {
        let st = window_stats(bucket);
        println!(
            "| {} | {} | {} | {} | {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.2} ms |",
            w,
            st.total,
            st.ok,
            st.shed,
            st.errors,
            st.p50 as f64 / 1e6,
            st.p95 as f64 / 1e6,
            st.p99 as f64 / 1e6,
            st.max as f64 / 1e6
        );
        window_rows.push(st);
    }

    let steady: Vec<SoakSample> = per_window
        .iter()
        .skip(1)
        .flat_map(|b| b.iter().copied())
        .collect();
    let steady = if steady.is_empty() {
        samples.clone() // soak shorter than one window: no warmup carve-out
    } else {
        steady
    };
    let st = window_stats(&steady);
    let shed_rate = if st.total > 0 {
        st.shed as f64 / st.total as f64
    } else {
        0.0
    };
    let p99_ms = st.p99 as f64 / 1e6;
    let pass = p99_ms <= args.slo_p99_ms && shed_rate <= args.slo_shed && st.errors == 0;
    println!(
        "\nsteady-state (post-warmup): {} requests, p99 {:.2} ms (budget {:.0} ms), \
         shed rate {:.2}% (budget {:.0}%), {} errors",
        st.total,
        p99_ms,
        args.slo_p99_ms,
        shed_rate * 100.0,
        args.slo_shed * 100.0,
        st.errors
    );
    println!("SLO verdict: {}", if pass { "PASS" } else { "FAIL" });

    if let Some(path) = &args.json {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"soak_secs\": {},\n", args.soak_secs));
        out.push_str(&format!("  \"rate_per_sec\": {:.1},\n", args.rate));
        out.push_str(&format!("  \"threads\": {},\n", threads));
        out.push_str(&format!("  \"total\": {},\n", samples.len()));
        out.push_str(&format!(
            "  \"steady_total\": {},\n  \"steady_ok\": {},\n  \"steady_shed\": {},\n  \
             \"steady_errors\": {},\n",
            st.total, st.ok, st.shed, st.errors
        ));
        out.push_str(&format!("  \"shed_rate\": {shed_rate:.6},\n"));
        out.push_str(&format!(
            "  \"p50_ns\": {},\n  \"p95_ns\": {},\n  \"p99_ns\": {},\n  \"max_ns\": {},\n",
            st.p50, st.p95, st.p99, st.max
        ));
        out.push_str(&format!(
            "  \"slo_p99_budget_ms\": {:.1},\n  \"slo_max_shed_rate\": {:.4},\n",
            args.slo_p99_ms, args.slo_shed
        ));
        out.push_str(&format!("  \"slo_pass\": {pass},\n"));
        out.push_str("  \"windows\": [\n");
        for (w, st) in window_rows.iter().enumerate() {
            let comma = if w + 1 == window_rows.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"window\": {w}, \"warmup\": {}, \"total\": {}, \"ok\": {}, \
                 \"shed\": {}, \"errors\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {}}}{comma}\n",
                w == 0,
                st.total,
                st.ok,
                st.shed,
                st.errors,
                st.p50,
                st.p95,
                st.p99,
                st.max
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote soak report to {path}");
    }
    if pass {
        0
    } else {
        1
    }
}

/// Pulls a bare numeric field out of a flat JSON metrics/drain line.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Router-side fleet counters the chaos soak gates on.
#[derive(Clone, Copy, Default)]
struct FleetStats {
    warm_failover_hits: u64,
    failover_served: u64,
    router_panics: u64,
    replication_pending: u64,
    shards_alive: u64,
    shards_total: u64,
}

fn fleet_stats(conn: &mut LineConn) -> Option<FleetStats> {
    let resp = conn.round_trip("{\"op\": \"metrics\"}").ok()?;
    Some(FleetStats {
        warm_failover_hits: field_u64(&resp, "warm_failover_hits")?,
        failover_served: field_u64(&resp, "failover_served")?,
        router_panics: field_u64(&resp, "fleet_router_panics")?,
        replication_pending: field_u64(&resp, "fleet_replication_pending")?,
        shards_alive: field_u64(&resp, "shards_alive")?,
        shards_total: field_u64(&resp, "shards_total")?,
    })
}

/// The latest pid per worker index from a `qc-fleet` log file — respawns
/// reprint the `qc-fleet worker I pid P listening on ...` line, so later
/// lines win.
fn latest_pids(log_path: &str) -> std::collections::HashMap<usize, u32> {
    let mut out = std::collections::HashMap::new();
    let Ok(text) = std::fs::read_to_string(log_path) else {
        return out;
    };
    for line in text.lines() {
        let mut tok = line.split_whitespace();
        if tok.next() != Some("qc-fleet") || tok.next() != Some("worker") {
            continue;
        }
        let Some(Ok(idx)) = tok.next().map(str::parse::<usize>) else {
            continue;
        };
        if tok.next() != Some("pid") {
            continue;
        }
        let Some(Ok(pid)) = tok.next().map(str::parse::<u32>) else {
            continue;
        };
        out.insert(idx, pid);
    }
    out
}

/// Polls router metrics until `done` holds or the timeout lapses.
fn wait_for(conn: &mut LineConn, timeout: Duration, done: fn(&FleetStats) -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < timeout {
        if fleet_stats(conn).is_some_and(|st| done(&st)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

/// `--chaos SECS`: kill/respawn soak against a running `qc-fleet`. Fills
/// the shard caches through the router, then loops: kill -9 one worker
/// (round-robin), tear its segment log on alternate kills, probe every
/// filled key (each must still answer ok, overwhelmingly warm via its
/// replica), and wait for the supervisor to revive the victim. Finishes
/// with a fresh-compile burst and a full-fleet drain.
fn run_chaos(args: &Args, addr: &str) -> i32 {
    let Some(log_path) = &args.fleet_log else {
        eprintln!("serve_load: --chaos needs --fleet-log PATH (the qc-fleet log file)");
        return 2;
    };
    let n = args.requests;
    let mut conn = LineConn::new(addr);

    // Phase 1: fill the fleet with n deterministic variants; every fill
    // is acknowledged, so chaos must never lose one.
    for i in 0..n {
        let line = variant_line(i as u64, args.seed);
        match conn.round_trip(&line) {
            Ok(resp) if status_of(&resp).as_deref() == Some("ok") => {}
            Ok(resp) => {
                eprintln!("serve_load: chaos fill {i}: non-ok response: {resp}");
                return 1;
            }
            Err(e) => {
                eprintln!("serve_load: chaos fill {i}: transport error: {e}");
                return 1;
            }
        }
    }
    // Replica pushes trail the answers: wait until the router owes none
    // (dropped pushes included, which a later tick releases again), so
    // every fill has its replica before the first kill.
    let waited = Instant::now();
    let replication_settled = wait_for(&mut conn, Duration::from_secs(30), |st| {
        st.replication_pending == 0
    });
    let replication_wait_ms = waited.elapsed().as_millis();
    if !replication_settled {
        eprintln!("serve_load: chaos: replica pushes still pending after 30 s");
    }
    let Some(base) = fleet_stats(&mut conn) else {
        eprintln!("serve_load: chaos: router metrics unavailable");
        return 1;
    };
    let shards = base.shards_total;
    println!(
        "serve_load: chaos soak for {} s against {addr} ({} shards, {} keys filled, \
         replicated in {replication_wait_ms} ms)",
        args.chaos_secs, shards, n
    );

    let deadline = Instant::now() + Duration::from_secs(args.chaos_secs);
    let kill_every = args.kill_every.max(1);
    let mut round = 0u64;
    let mut kills = 0u64;
    let mut torn = 0u64;
    let mut probe_failures = 0u64;
    let mut probes = 0u64;
    let mut revive_failures = 0u64;
    loop {
        if round >= 2 && Instant::now() >= deadline {
            break;
        }
        if round.is_multiple_of(kill_every as u64) {
            let victim = (kills % shards) as usize;
            let pids = latest_pids(log_path);
            if let Some(pid) = pids.get(&victim) {
                let _ = std::process::Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .status();
                kills += 1;
                println!("serve_load: chaos round {round}: killed worker {victim} (pid {pid})");
                // Alternate kills also tear the victim's segment log, so
                // the respawn exercises torn-tail truncation rather than
                // the happy path.
                if kills.is_multiple_of(2) {
                    if let Some(dir) = &args.persist_dir {
                        let log = std::path::Path::new(dir).join(format!("shard-{victim}.seglog"));
                        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&log) {
                            let _ = f.write_all(&[0xAB; 48]);
                            torn += 1;
                            println!(
                                "serve_load: chaos round {round}: tore segment log {}",
                                log.display()
                            );
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(200));
            } else {
                eprintln!("serve_load: chaos round {round}: no pid for worker {victim} yet");
            }
        }
        // Probe every filled key through the router: the dead worker's
        // keyspace must fail over (warm, via its replicas) and every
        // other key must answer normally.
        for i in 0..n {
            probes += 1;
            let line = variant_line(i as u64, args.seed);
            match conn.round_trip(&line) {
                Ok(resp) if status_of(&resp).as_deref() == Some("ok") => {}
                Ok(resp) => {
                    eprintln!("serve_load: chaos round {round} probe {i}: {resp}");
                    probe_failures += 1;
                }
                Err(e) => {
                    eprintln!("serve_load: chaos round {round} probe {i}: transport: {e}");
                    probe_failures += 1;
                }
            }
        }
        // Every round ends with the fleet whole again — the revival path
        // (respawn + segment-log replay, possibly of a torn log) is as
        // much under test as the failover path.
        let full = |st: &FleetStats| st.shards_total > 0 && st.shards_alive == st.shards_total;
        if !wait_for(&mut conn, Duration::from_secs(60), full) {
            eprintln!("serve_load: chaos round {round}: fleet did not re-form in 60 s");
            revive_failures += 1;
        }
        round += 1;
    }

    // A burst of fresh compiles through the recovered fleet: chaos must
    // leave the fleet able to take new work, not just serve old keys.
    let mut burst_failures = 0u64;
    for i in 0..n {
        let k = 1_000_000 + i as u64;
        let qasm = to_qasm(&edited_circuit(k)).expect("edit serializes");
        let line = format!(
            "{{\"id\": \"c{k}\", \"qasm\": \"{}\", \"backend\": \"melbourne\", \
             \"flow\": \"preset\", \"level\": 3, \"seed\": {}}}",
            escape_json(&qasm),
            args.seed
        );
        match conn.round_trip(&line) {
            Ok(resp) if status_of(&resp).as_deref() == Some("ok") => {}
            _ => burst_failures += 1,
        }
    }

    let Some(fin) = fleet_stats(&mut conn) else {
        eprintln!("serve_load: chaos: final router metrics unavailable");
        return 1;
    };
    let served = fin.failover_served - base.failover_served;
    let warm = fin.warm_failover_hits - base.warm_failover_hits;
    let ratio = if served > 0 {
        warm as f64 / served as f64
    } else {
        0.0
    };

    // Full-fleet drain through the router: every worker must still be
    // there to acknowledge it.
    let (drained, drain_panics) = match conn.round_trip("{\"op\": \"drain\"}") {
        Ok(resp) if resp.contains("\"status\":\"drained\"") => (
            field_u64(&resp, "drained").unwrap_or(0),
            field_u64(&resp, "fleet_router_panics").unwrap_or(u64::MAX),
        ),
        Ok(resp) => {
            eprintln!("serve_load: chaos drain: unexpected response: {resp}");
            (0, u64::MAX)
        }
        Err(e) => {
            eprintln!("serve_load: chaos drain: transport error: {e}");
            (0, u64::MAX)
        }
    };

    let pass = replication_settled
        && kills >= 1
        && probe_failures == 0
        && burst_failures == 0
        && revive_failures == 0
        && served > 0
        && ratio >= 0.9
        && fin.router_panics == 0
        && drain_panics == 0
        && drained == shards;
    println!(
        "serve_load: chaos verdict: {} — {} rounds, {} kills ({} torn logs), \
         {}/{} probes ok, warm-failover {}/{} ({:.1}%), {} router panics, {}/{} drained",
        if pass { "PASS" } else { "FAIL" },
        round,
        kills,
        torn,
        probes - probe_failures,
        probes,
        warm,
        served,
        ratio * 100.0,
        fin.router_panics,
        drained,
        shards
    );

    if let Some(path) = &args.json {
        let out = format!(
            "{{\n  \"chaos_secs\": {},\n  \"replication_wait_ms\": {replication_wait_ms},\n  \
             \"replication_settled\": {replication_settled},\n  \"rounds\": {round},\n  \
             \"kills\": {kills},\n  \"torn_logs\": {torn},\n  \"probes\": {probes},\n  \
             \"probe_failures\": {probe_failures},\n  \"burst_failures\": {burst_failures},\n  \
             \"revive_failures\": {revive_failures},\n  \"failover_served\": {served},\n  \
             \"warm_failover_hits\": {warm},\n  \"warm_failover_ratio\": {ratio:.4},\n  \
             \"router_panics\": {},\n  \"shards\": {shards},\n  \"drained\": {drained},\n  \
             \"chaos_pass\": {pass}\n}}\n",
            args.chaos_secs, fin.router_panics
        );
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote chaos report to {path}");
    }
    if pass {
        0
    } else {
        1
    }
}

/// `--persist-bench DIR`: measure segment-log replay cost. Fills a
/// persisted in-process service with `--requests` clean compiles, then
/// reopens the log repeatedly, asserting the restored cache serves a
/// warm-identical hit, and reports the per-entry restore cost as the
/// `serve_persist_restore` bench entry.
fn run_persist_bench(args: &Args, dir: &str) -> i32 {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("serve_load: cannot create {}: {e}", dir.display());
        return 1;
    }
    let path = dir.join("persist_bench.seglog");
    let _ = std::fs::remove_file(&path);
    let cfg = ServeConfig {
        verify_every: 0,
        ..ServeConfig::default()
    };
    let n = args.requests;
    {
        let svc = match TranspileService::with_persistence(cfg, &path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve_load: cannot open segment log: {e}");
                return 1;
            }
        };
        for i in 0..n {
            let resp = svc.handle(request(
                format!("fill{i}"),
                workload_circuit(i as u64),
                args.seed,
            ));
            if resp.result.is_err() {
                eprintln!("serve_load: persist fill {i} failed");
                return 1;
            }
        }
        let m = svc.metrics();
        if (m.persist_appends as usize) < n {
            eprintln!(
                "serve_load: only {}/{} fills were persisted",
                m.persist_appends, n
            );
            return 1;
        }
    }

    const REPS: usize = 5;
    let mut per_entry: Vec<u64> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let svc = match TranspileService::with_persistence(cfg, &path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve_load: replay failed: {e}");
                return 1;
            }
        };
        let replay_ns = t0.elapsed().as_nanos() as u64;
        let report = svc.replay_report();
        if report.restored != n || report.invalidated || report.truncated_bytes != 0 {
            eprintln!(
                "serve_load: replay expected {n} clean records, got {} (truncated {}, \
                 invalidated {})",
                report.restored, report.truncated_bytes, report.invalidated
            );
            return 1;
        }
        let (ns, class) = timed(
            &svc,
            request("warmcheck".into(), workload_circuit(0), args.seed),
        );
        if class != CacheClass::Warm {
            eprintln!("serve_load: restored cache did not serve a warm hit");
            return 1;
        }
        let _ = ns;
        per_entry.push(replay_ns / n as u64);
    }
    per_entry.sort_unstable();
    let median = per_entry[per_entry.len() / 2];
    println!(
        "serve_persist_restore: {} entries, median {:.1} us/entry over {REPS} replays, \
         warm hit verified",
        n,
        median as f64 / 1e3
    );
    if let Some(path) = &args.json {
        let out = format!(
            "[\n  {{\"name\": \"serve_persist_restore\", \"median_ns\": {median}.0, \
             \"samples\": {REPS}, \"iters_per_sample\": {n}, \"threads\": 1}}\n]\n"
        );
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote bench JSON to {path}");
    }
    0
}

/// TCP smoke against a running `qc-serve`: send the tiers as JSONL over
/// one connection, check every response line.
fn run_tcp(args: &Args, addr: &str) -> i32 {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve_load: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let mut writer = stream.try_clone().expect("clone TCP stream");
    let mut reader = BufReader::new(stream);
    let r = args.requests.min(12); // smoke, not load

    let send = |line: &str, writer: &mut TcpStream| writeln!(writer, "{line}").expect("TCP write");
    let read_line = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("TCP read");
        line
    };
    let mut failures = 0;
    let mut check = |line: &str, want_status: &str, what: &str| {
        if status_of(line).as_deref() != Some(want_status) {
            eprintln!("serve_load: {what}: expected status {want_status}, got {line}");
            failures += 1;
        }
    };

    // Cold + warm-identical + warm-edited, sequentially on one connection.
    for i in 0..r {
        let circuit = match i % 3 {
            0 => workload_circuit(i as u64),
            1 => workload_circuit(0),
            _ => edited_circuit(i as u64),
        };
        let qasm = to_qasm(&circuit).expect("workload serializes");
        let line = format!(
            "{{\"id\": \"smoke{i}\", \"qasm\": \"{}\", \"backend\": \"melbourne\", \
             \"flow\": \"preset\", \"level\": 3, \"seed\": {}}}",
            escape_json(&qasm),
            args.seed
        );
        send(&line, &mut writer);
        let resp = read_line(&mut reader);
        check(&resp, "ok", "request");
    }

    // A malformed line must come back as a typed error, not kill the server.
    send("{\"qasm\": \"garbage\"}", &mut writer);
    let resp = read_line(&mut reader);
    check(&resp, "error", "malformed line");

    send("{\"op\": \"metrics\"}", &mut writer);
    let resp = read_line(&mut reader);
    check(&resp, "metrics", "metrics op");

    if args.drain {
        send("{\"op\": \"drain\"}", &mut writer);
        let resp = read_line(&mut reader);
        check(&resp, "drained", "drain report");
    }

    if failures == 0 {
        println!("serve_load: TCP smoke OK ({r} requests + error/metrics probes)");
        0
    } else {
        eprintln!("serve_load: TCP smoke FAILED ({failures} bad responses)");
        1
    }
}

fn main() {
    let args = parse_args();
    let code = if let Some(dir) = &args.persist_bench {
        run_persist_bench(&args, dir)
    } else {
        match &args.connect {
            Some(addr) if args.chaos_secs > 0 => run_chaos(&args, addr),
            Some(addr) if args.soak_secs > 0 => run_soak(&args, addr),
            Some(addr) if args.fill.is_some() => run_fill(&args, addr, args.fill.unwrap(), false),
            Some(addr) if args.expect_warm.is_some() => {
                run_fill(&args, addr, args.expect_warm.unwrap(), true)
            }
            Some(addr) => run_tcp(&args, addr),
            None => run_in_process(&args),
        }
    };
    std::process::exit(code);
}
