//! The `qc-fleet` router: N `qc-serve` worker shards behind one JSONL
//! front-end.
//!
//! ```text
//! qc-fleet --shards N [--listen ADDR:PORT] [--persist-dir DIR]
//!          [--worker-bin PATH] [--tick-ms MS] [--replicas N]
//!          [--max-concurrent N] [--queue N] [--cache N]
//!          [--compact-every N] [--verify-every N] [--seed N]
//!          [--chaos-replication-drop P] [--chaos-partition-every N]
//! ```
//!
//! The router spawns each worker as a `qc-serve --listen 127.0.0.1:0`
//! child process (plus `--persist DIR/shard-<i>.seglog` when a persist
//! dir is given), parses the announced port off the child's stdout, and
//! routes every request line to the shard that rendezvous-owns its
//! content key ([`qc_serve::shard`]). Two background threads run beside
//! the connection threads. The replication thread pushes each cold fill
//! to its replica after the answer is written, and pushes the backlog the
//! ticker releases. The ticker health-checks the workers, respawns dead
//! ones and releases keys for replica backfill — a respawned worker
//! re-warms from its segment log before taking its keyspace back. Each
//! worker keeps its own circuit breakers.
//!
//! Observability lines on stdout (CI parses these):
//!
//! ```text
//! qc-fleet worker <i> pid <pid> listening on <addr>
//! qc-fleet listening on <addr>
//! ```
//!
//! std-only like the worker: `std::process::Command` children, blocking
//! TCP with a small per-shard connection pool, threads, no signals —
//! drain propagates over the wire (`{"op":"drain"}` fans out to every
//! worker, which finish in-flight work and exit), and a `kill -9`'d
//! worker is safe by construction because its segment log truncates any
//! torn tail on the next replay.

use qc_serve::shard::{Fleet, FleetConfig, FleetLine, ShardBackend};
use qc_serve::wire::{parse_flat_object, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: qc-fleet --shards N [--listen ADDR:PORT] [--persist-dir DIR] \
         [--worker-bin PATH] [--tick-ms MS] [--replicas N] [--max-concurrent N] \
         [--queue N] [--cache N] [--compact-every N] [--verify-every N] [--seed N] \
         [--chaos-replication-drop P] [--chaos-partition-every N]\n\
         (--tick-ms defaults to 500 ms, min 10. \
         --replicas defaults to 1 next-ranked warm copy per fill. \
         --seed seeds the chaos replication-drop coin.)"
    );
    std::process::exit(2);
}

struct Options {
    shards: usize,
    listen: Option<String>,
    persist_dir: Option<PathBuf>,
    worker_bin: Option<PathBuf>,
    tick_ms: u64,
    worker_flags: Vec<String>,
    seed: u64,
    replicas: usize,
    chaos_replication_drop: f64,
    chaos_partition_every: u64,
}

fn parse_args() -> Options {
    let mut opts = Options {
        shards: 3,
        listen: None,
        persist_dir: None,
        worker_bin: None,
        tick_ms: 500,
        worker_flags: Vec::new(),
        seed: 0,
        replicas: 1,
        chaos_replication_drop: 0.0,
        chaos_partition_every: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--shards" => {
                opts.shards = value()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--listen" => opts.listen = Some(value()),
            "--persist-dir" => opts.persist_dir = Some(PathBuf::from(value())),
            "--worker-bin" => opts.worker_bin = Some(PathBuf::from(value())),
            "--tick-ms" => {
                opts.tick_ms = value()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 10)
                    .unwrap_or_else(|| usage())
            }
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--replicas" => opts.replicas = value().parse().unwrap_or_else(|_| usage()),
            "--chaos-replication-drop" => {
                opts.chaos_replication_drop = value()
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| usage())
            }
            "--chaos-partition-every" => {
                opts.chaos_partition_every = value().parse().unwrap_or_else(|_| usage())
            }
            flag @ ("--max-concurrent" | "--queue" | "--cache" | "--compact-every"
            | "--verify-every") => {
                let v = value();
                if v.parse::<usize>().is_err() {
                    usage();
                }
                opts.worker_flags.push(flag.to_string());
                opts.worker_flags.push(v);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("qc-fleet: unknown flag '{other}'");
                usage();
            }
        }
    }
    opts
}

fn other_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

/// One worker process as a [`ShardBackend`]: spawn, pooled TCP sends,
/// respawn-on-revive.
struct ProcessShard {
    index: usize,
    bin: PathBuf,
    args: Vec<String>,
    persist: Option<PathBuf>,
    child: Mutex<Option<Child>>,
    addr: Mutex<Option<String>>,
    pool: Mutex<Vec<BufReader<TcpStream>>>,
    no_revive: Arc<AtomicBool>,
}

impl ProcessShard {
    fn new(
        index: usize,
        bin: PathBuf,
        args: Vec<String>,
        persist: Option<PathBuf>,
        no_revive: Arc<AtomicBool>,
    ) -> Self {
        ProcessShard {
            index,
            bin,
            args,
            persist,
            child: Mutex::new(None),
            addr: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            no_revive,
        }
    }

    /// Spawns (or respawns) the worker process and waits for its
    /// listening announcement.
    fn spawn(&self) -> std::io::Result<()> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--listen").arg("127.0.0.1:0");
        if let Some(path) = &self.persist {
            cmd.arg("--persist").arg(path);
        }
        cmd.args(&self.args);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| other_err("worker stdout not captured"))?;
        let mut reader = BufReader::new(stdout);
        let mut addr = None;
        let mut line = String::new();
        // The worker announces its port within its first few lines (the
        // persistence replay line may precede it).
        for _ in 0..16 {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim();
            eprintln!("qc-fleet worker {} | {trimmed}", self.index);
            if let Some(rest) = trimmed.strip_prefix("qc-serve listening on ") {
                addr = Some(rest.to_string());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(other_err(format!(
                "worker {} exited without announcing a port",
                self.index
            )));
        };
        println!(
            "qc-fleet worker {} pid {} listening on {addr}",
            self.index,
            child.id()
        );
        let _ = std::io::stdout().flush();
        // Keep draining the worker's stdout so its pipe never fills.
        let index = self.index;
        std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => eprintln!("qc-fleet worker {index} | {}", line.trim_end()),
                }
            }
        });
        // Old connections point at the dead incarnation's port.
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
        *self.addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
        let prev = self
            .child
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .replace(child);
        if let Some(mut prev) = prev {
            let _ = prev.kill();
            let _ = prev.wait();
        }
        Ok(())
    }

    /// Waits up to `timeout` for the worker process to exit on its own
    /// (post-drain), then kills it.
    fn reap(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
            let Some(c) = child.as_mut() else { return };
            match c.try_wait() {
                Ok(Some(_)) | Err(_) => {
                    *child = None;
                    return;
                }
                Ok(None) => {}
            }
            if std::time::Instant::now() >= deadline {
                let _ = c.kill();
                let _ = c.wait();
                *child = None;
                return;
            }
            drop(child);
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl ShardBackend for ProcessShard {
    fn send_line(&self, line: &str) -> std::io::Result<String> {
        let addr = self
            .addr
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .ok_or_else(|| other_err("worker has no address yet"))?;
        let mut last_err = other_err("unreachable");
        for attempt in 0..2 {
            let pooled = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop();
            let mut conn = match pooled {
                // Never retry a pooled (possibly stale) connection's error
                // against a fresh one twice; attempt 1 always dials fresh.
                Some(c) if attempt == 0 => c,
                _ => match TcpStream::connect(&addr) {
                    Ok(s) => BufReader::new(s),
                    Err(e) => {
                        last_err = e;
                        continue;
                    }
                },
            };
            let _ = conn
                .get_ref()
                .set_read_timeout(Some(Duration::from_secs(60)));
            let result = (|| -> std::io::Result<String> {
                let w = conn.get_mut();
                w.write_all(line.as_bytes())?;
                w.write_all(b"\n")?;
                w.flush()?;
                let mut resp = String::new();
                if conn.read_line(&mut resp)? == 0 {
                    return Err(other_err("worker closed the connection"));
                }
                Ok(resp.trim_end().to_string())
            })();
            match result {
                Ok(resp) => {
                    self.pool
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(conn);
                    return Ok(resp);
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn revive(&self) -> bool {
        if self.no_revive.load(Ordering::SeqCst) {
            return false;
        }
        let exited = {
            let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
            match child.as_mut() {
                Some(c) => c.try_wait().map(|s| s.is_some()).unwrap_or(true),
                None => true,
            }
        };
        if !exited {
            // Process alive, sends failing: likely transient (connection
            // churn); worth re-probing without a respawn.
            return true;
        }
        match self.spawn() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("qc-fleet: respawn of worker {} failed: {e}", self.index);
                false
            }
        }
    }
}

/// `true` when the line is a drain op — checked before routing so the
/// ticker stops reviving workers that are about to be told to exit.
fn is_drain(line: &str) -> bool {
    parse_flat_object(line.trim())
        .ok()
        .and_then(|m| m.get("op").and_then(JsonValue::as_str).map(str::to_string))
        .as_deref()
        == Some("drain")
}

fn serve_line(
    fleet: &Fleet<ProcessShard>,
    no_revive: &AtomicBool,
    line: &str,
    out: &mut dyn Write,
) -> bool {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return false;
    }
    if is_drain(trimmed) {
        no_revive.store(true, Ordering::SeqCst);
    }
    // The answer goes out inside `answer_line`, before a cold fill's
    // replica push is queued.
    let line = fleet.answer_line(trimmed, |line| {
        let (FleetLine::Response(text) | FleetLine::Drained(text)) = line;
        let _ = writeln!(out, "{text}");
        let _ = out.flush();
    });
    matches!(line, FleetLine::Drained(_))
}

fn shutdown(fleet: &Fleet<ProcessShard>) {
    for shard in fleet.backends() {
        shard.reap(Duration::from_secs(10));
    }
}

fn run_stdio(fleet: &Fleet<ProcessShard>, no_revive: &AtomicBool) {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut drained = false;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if serve_line(fleet, no_revive, &line, &mut stdout) {
            drained = true;
            break;
        }
    }
    if !drained {
        no_revive.store(true, Ordering::SeqCst);
        println!("{}", fleet.drain());
    }
    shutdown(fleet);
}

fn run_tcp(fleet: Arc<Fleet<ProcessShard>>, no_revive: Arc<AtomicBool>, addr: &str) {
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("qc-fleet: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    match listener.local_addr() {
        Ok(a) => println!("qc-fleet listening on {a}"),
        Err(_) => println!("qc-fleet listening on {addr}"),
    }
    let _ = std::io::stdout().flush();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        let fleet = Arc::clone(&fleet);
        let no_revive = Arc::clone(&no_revive);
        // Detached: joining is pointless (drain exits the process from
        // inside a handler), and hoarding JoinHandles would grow memory
        // unboundedly with connection churn on a long-running router.
        std::thread::spawn(move || {
            let mut writer = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => return,
            };
            let reader = BufReader::new(stream);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if serve_line(&fleet, &no_revive, &line, &mut writer) {
                    shutdown(&fleet);
                    // accept() has no std-only cancellation; exiting after
                    // a clean fan-out drain is the worker contract too.
                    std::process::exit(0);
                }
            }
        });
    }
}

fn main() {
    let opts = parse_args();
    let worker_bin = opts.worker_bin.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("qc-serve")))
            .unwrap_or_else(|| PathBuf::from("qc-serve"))
    });
    if let Some(dir) = &opts.persist_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("qc-fleet: cannot create persist dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let no_revive = Arc::new(AtomicBool::new(false));
    let mut shards = Vec::new();
    for i in 0..opts.shards {
        let args = opts.worker_flags.clone();
        let persist = opts
            .persist_dir
            .as_ref()
            .map(|dir| dir.join(format!("shard-{i}.seglog")));
        let shard = ProcessShard::new(i, worker_bin.clone(), args, persist, Arc::clone(&no_revive));
        if let Err(e) = shard.spawn() {
            eprintln!("qc-fleet: cannot start worker {i}: {e}");
            std::process::exit(1);
        }
        shards.push(shard);
    }
    let fleet = Arc::new(Fleet::new(
        shards,
        FleetConfig {
            replicas: opts.replicas,
            chaos_replication_drop: opts.chaos_replication_drop,
            chaos_partition_every: opts.chaos_partition_every,
            seed: opts.seed,
        },
    ));
    println!("qc-fleet ready with {} shards", fleet.num_shards());
    let _ = std::io::stdout().flush();

    // Replication: pushes each cold fill to its replicas once its answer
    // is written, then whatever backlog the ticker released. Detached like
    // the ticker: it returns once a drain starts, every push runs under
    // `catch_unwind`, and the router exits on its own after a drain.
    {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.run_replication());
    }
    // Ticker: probes workers, respawns the dead, re-queues and releases
    // keys for replica backfill (the replication thread pushes them).
    {
        let fleet = Arc::clone(&fleet);
        let no_revive = Arc::clone(&no_revive);
        let period = Duration::from_millis(opts.tick_ms);
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if no_revive.load(Ordering::SeqCst) {
                break;
            }
            let report = fleet.tick();
            if report.revived > 0 || report.dead > 0 {
                eprintln!(
                    "qc-fleet tick: {} alive, {} dead, {} revived",
                    report.alive, report.dead, report.revived
                );
            }
        });
    }

    match &opts.listen {
        Some(addr) => run_tcp(fleet, no_revive, addr),
        None => run_stdio(&fleet, &no_revive),
    }
}
