//! The `qc-serve` binary under connection churn: every TCP connection
//! runs on its own thread, and a thread that has finished must not keep
//! its stack mapped. A worker behind `qc-fleet` lives as long as the
//! fleet and sees a new connection on every pool miss, so a kept stack
//! per connection grows its address space without bound.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the worker when the test ends, pass or fail.
struct Worker(Child);

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn vm_size_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize in /proc/<pid>/status")
}

/// One metrics round trip on a fresh connection, which is then closed:
/// its thread reads EOF and ends.
fn metrics_round_trip(addr: &str) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line).unwrap();
    assert!(line.contains("\"status\":\"metrics\""), "{line}");
}

#[test]
fn connection_churn_does_not_grow_the_address_space() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qc-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("qc-serve starts");
    let mut announcements = BufReader::new(child.stdout.take().unwrap()).lines();
    let worker = Worker(child);
    let addr = announcements
        .by_ref()
        .find_map(|l| Some(l.ok()?.strip_prefix("qc-serve listening on ")?.to_string()))
        .expect("qc-serve announces its address");
    metrics_round_trip(&addr);
    let pid = worker.0.id();
    let before = vm_size_kib(pid);

    // One connection at a time, so at most a couple of connection
    // threads are ever alive together.
    for _ in 0..2000 {
        metrics_round_trip(&addr);
    }

    let grown_mib = vm_size_kib(pid).saturating_sub(before) >> 10;
    assert!(
        grown_mib < 1024,
        "2000 finished connections grew qc-serve's VmSize by {grown_mib} MiB"
    );
}
