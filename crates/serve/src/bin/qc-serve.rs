//! The `qc-serve` front-end: JSONL requests over stdin or TCP.
//!
//! ```text
//! qc-serve [--listen ADDR:PORT] [--max-concurrent N] [--queue N]
//!          [--verify-every N]
//! ```
//!
//! Without `--listen`, reads one JSON request per line from stdin and
//! writes one JSON response per line to stdout (`{"op":"drain"}` or EOF
//! drains and exits, printing the drain report). With `--listen`, accepts
//! TCP connections and speaks the same line protocol per connection; a
//! drain request from any connection stops the listener, waits for
//! in-flight work, reports, and exits the process.
//!
//! std-only by design: `std::net::TcpListener`, a thread per connection
//! (admission control bounds the real concurrency), no async runtime, no
//! new dependencies. Every per-connection failure is contained — a
//! malformed line, a mid-request panic, or a dropped socket never takes
//! the process down.

use qc_serve::service::{ServeConfig, TranspileService};
use qc_serve::shard::respond_msg;
use qc_serve::wire::{decode_line, encode_drain_report, encode_response};
use qc_serve::ServeResponse;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: qc-serve [--listen ADDR:PORT] [--persist PATH] [--max-concurrent N] \
         [--queue N] [--cache N] [--compact-every N] [--verify-every N]"
    );
    std::process::exit(2);
}

fn parse_args() -> (ServeConfig, Option<String>, Option<String>) {
    let mut cfg = ServeConfig::default();
    let mut listen = None;
    let mut persist = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--listen" => listen = Some(args.next().unwrap_or_else(|| usage())),
            "--persist" => persist = Some(args.next().unwrap_or_else(|| usage())),
            "--max-concurrent" => cfg.max_concurrent = num(&mut args).max(1),
            "--queue" => cfg.queue_capacity = num(&mut args),
            "--cache" => cfg.cache_capacity = num(&mut args).max(1),
            "--compact-every" => cfg.compact_every_records = num(&mut args) as u64,
            "--verify-every" => cfg.verify_every = num(&mut args) as u64,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("qc-serve: unknown flag '{other}'");
                usage();
            }
        }
    }
    (cfg, listen, persist)
}

/// Handles one request line; `true` means the caller asked to drain.
fn serve_line(service: &TranspileService, line: &str, out: &mut dyn Write) -> bool {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return false;
    }
    let response = match decode_line(trimmed) {
        Ok(msg) => match respond_msg(service, msg) {
            Some(line) => line,
            None => return true, // drain: the caller owns shutdown
        },
        Err(e) => encode_response(&ServeResponse {
            id: String::new(),
            result: Err(e),
        }),
    };
    let _ = writeln!(out, "{response}");
    let _ = out.flush();
    false
}

fn run_stdio(service: &TranspileService) {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if serve_line(service, &line, &mut stdout) {
            break;
        }
    }
    let report = service.drain();
    println!("{}", encode_drain_report(&report));
}

fn run_tcp(service: Arc<TranspileService>, addr: &str) {
    let listener = TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("qc-serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // Report the actual address (port 0 lets the OS pick — the CI smoke
    // leg reads this line to find the port).
    match listener.local_addr() {
        Ok(a) => println!("qc-serve listening on {a}"),
        Err(_) => println!("qc-serve listening on {addr}"),
    }
    let draining = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        if draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(&service);
        let draining = Arc::clone(&draining);
        workers.push(std::thread::spawn(move || {
            serve_conn(&service, stream, &draining);
        }));
    }
    for w in workers {
        let _ = w.join();
    }
}

fn serve_conn(service: &TranspileService, stream: TcpStream, draining: &AtomicBool) {
    let peer = stream.peer_addr().ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if serve_line(service, &line, &mut writer) {
            draining.store(true, Ordering::SeqCst);
            let report = service.drain();
            let _ = writeln!(writer, "{}", encode_drain_report(&report));
            let _ = writer.flush();
            // The listener thread blocks in accept(); exiting here is the
            // std-only way to stop the process after a clean drain.
            std::process::exit(0);
        }
    }
    let _ = peer; // connection closed; nothing to clean up
}

fn main() {
    let (cfg, listen, persist) = parse_args();
    let service = match &persist {
        Some(path) => {
            let path = std::path::Path::new(path);
            let svc = TranspileService::with_persistence(cfg, path).unwrap_or_else(|e| {
                eprintln!("qc-serve: cannot open segment log {}: {e}", path.display());
                std::process::exit(1);
            });
            let r = svc.replay_report();
            // CI greps the prefix of this line to assert warm restarts
            // actually replayed (and, after a compaction, that replay
            // stayed O(live entries)); keep new info after the prefix.
            println!(
                "qc-serve persistence: restored {} entries, truncated {} bytes, invalidated {}",
                r.restored, r.truncated_bytes, r.invalidated
            );
            Arc::new(svc)
        }
        None => Arc::new(TranspileService::new(cfg)),
    };
    match listen {
        Some(addr) => run_tcp(service, &addr),
        None => run_stdio(&service),
    }
}
