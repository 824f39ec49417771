//! Persistence-tier integration tests at the service level: a restart
//! against the same segment log serves warm-identical hits without
//! recompiling; a torn or corrupt tail truncates back to the last good
//! record; a version-skewed header invalidates wholesale; and the log
//! keeps accepting appends after every recovery path.

use qc_backends::Backend;
use qc_circuit::Circuit;
use qc_serve::{CacheClass, ServeConfig, ServeFlow, ServeRequest, TranspileService};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::time::Duration;

fn temp_log(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "qc-serve-persist-{}-{tag}.seglog",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn request(salt: u64) -> ServeRequest {
    let mut c = Circuit::new(4);
    c.h(0);
    for q in 1..4 {
        c.cx(q - 1, q);
    }
    c.rz(0.1 + salt as f64 * 0.01, 0);
    c.measure_all();
    ServeRequest {
        id: format!("p{salt}"),
        circuit: c,
        backend: Backend::linear(5),
        flow: ServeFlow::Preset { level: 2 },
        seed: 7,
        deadline: None,
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        backoff_base: Duration::ZERO,
        verify_every: 0,
        ..ServeConfig::default()
    }
}

fn fill(svc: &TranspileService, salts: impl IntoIterator<Item = u64>) {
    for salt in salts {
        let resp = svc.handle(request(salt));
        let ok = resp.result.expect("fill compile succeeds");
        assert_eq!(ok.cache, CacheClass::Cold);
    }
}

#[test]
fn restart_serves_warm_identical_hits() {
    let path = temp_log("roundtrip");
    {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        assert_eq!(svc.replay_report().restored, 0, "fresh log starts empty");
        fill(&svc, 0..3);
        assert_eq!(svc.metrics().persist_appends, 3);
        assert_eq!(svc.metrics().persist_errors, 0);
    }

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(r.restored, 3);
    assert_eq!(r.truncated_bytes, 0);
    assert!(!r.invalidated);

    for salt in 0..3 {
        let resp = svc.handle(request(salt));
        let ok = resp.result.expect("restored entry serves");
        assert_eq!(
            ok.cache,
            CacheClass::Warm,
            "salt {salt} must hit the replayed cache"
        );
    }
    assert_eq!(
        svc.metrics().compiles,
        0,
        "a warm restart recompiles nothing"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_tail_is_truncated_and_appends_resume() {
    let path = temp_log("corrupt-tail");
    {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        fill(&svc, 0..3);
    }
    // Simulate a torn append: garbage after the last good record.
    {
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAA; 37]).unwrap();
    }

    let good_len = {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        let r = svc.replay_report();
        assert_eq!(r.restored, 3, "the good prefix replays in full");
        assert_eq!(r.truncated_bytes, 37, "exactly the garbage is dropped");
        assert!(!r.invalidated);
        // Appends land at the truncated offset, not after the garbage.
        fill(&svc, 3..4);
        std::fs::metadata(&path).unwrap().len()
    };

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    assert_eq!(svc.replay_report().restored, 4);
    assert_eq!(svc.replay_report().truncated_bytes, 0);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_final_record_replays_to_the_previous_record() {
    let path = temp_log("torn-record");
    {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        fill(&svc, 0..2);
    }
    // A kill -9 mid-append leaves a partial final record: cut 5 bytes.
    let len = std::fs::metadata(&path).unwrap().len();
    {
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
    }

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(
        r.restored, 1,
        "the torn record is dropped, its predecessor kept"
    );
    assert!(r.truncated_bytes > 0);
    assert!(!r.invalidated);
    assert_eq!(
        svc.handle(request(0)).result.unwrap().cache,
        CacheClass::Warm
    );
    assert_eq!(
        svc.handle(request(1)).result.unwrap().cache,
        CacheClass::Cold
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn version_skew_invalidates_wholesale_then_starts_cold() {
    let path = temp_log("version-skew");
    {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        fill(&svc, 0..2);
    }
    // Stamp a future format version into the header.
    {
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        f.seek(SeekFrom::Start(8)).unwrap();
        f.write_all(&99u32.to_le_bytes()).unwrap();
    }

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    let r = svc.replay_report();
    assert!(
        r.invalidated,
        "a skewed header must never be misread as records"
    );
    assert_eq!(r.restored, 0);
    assert!(r.truncated_bytes > 0);
    assert_eq!(
        svc.handle(request(0)).result.unwrap().cache,
        CacheClass::Cold
    );
    drop(svc);

    // The reinitialized log is a normal current-format log again.
    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    assert_eq!(svc.replay_report().restored, 1);
    assert!(!svc.replay_report().invalidated);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn foreign_file_is_invalidated_not_parsed() {
    let path = temp_log("foreign");
    std::fs::write(&path, b"{\"not\":\"a segment log\"}\n").unwrap();

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    let r = svc.replay_report();
    assert!(r.invalidated);
    assert_eq!(r.restored, 0);
    fill(&svc, 0..1);
    drop(svc);

    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    assert_eq!(svc.replay_report().restored, 1);
    let _ = std::fs::remove_file(&path);
}

fn compacting_config(every: u64) -> ServeConfig {
    ServeConfig {
        compact_every_records: every,
        ..quiet_config()
    }
}

/// `<log>.tmp`, where a compaction stages the rewritten log.
fn tmp_sibling(path: &std::path::Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Removes the log and any compaction temp file beside it.
fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(tmp_sibling(path));
}

fn assert_warm(svc: &TranspileService, salts: impl IntoIterator<Item = u64>) {
    for salt in salts {
        assert_eq!(
            svc.handle(request(salt)).result.unwrap().cache,
            CacheClass::Warm,
            "salt {salt} must replay warm"
        );
    }
}

#[test]
fn compaction_keeps_replay_o_live_and_serves_warm() {
    let path = temp_log("compact");
    cleanup(&path);
    let cfg = ServeConfig {
        cache_capacity: 4,
        ..compacting_config(8)
    };
    {
        let svc = TranspileService::with_persistence(cfg, &path).unwrap();
        fill(&svc, 0..8);
        let m = svc.metrics();
        assert_eq!(m.persist_appends, 8);
        assert_eq!(m.compactions, 1, "one compaction at the 8th append");
        assert_eq!(m.persist_errors, 0);
    }
    assert!(
        !tmp_sibling(&path).exists(),
        "the compaction renamed its temp file over the log"
    );
    // The cache dropped salts 0..4 when it filled up, and the compaction
    // kept only the live 4: replay work is bounded by live entries, not
    // by append history.
    let svc = TranspileService::with_persistence(cfg, &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(r.restored, 4);
    assert_eq!(r.truncated_bytes, 0);
    assert!(!r.invalidated);
    assert_eq!(svc.metrics().replay_entries, 4, "not the 8 appends");
    assert_warm(&svc, 4..8);
    assert_eq!(svc.metrics().compiles, 0);
    cleanup(&path);
}

#[test]
fn compacted_log_keeps_appending() {
    let path = temp_log("compact-append");
    cleanup(&path);
    {
        let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
        fill(&svc, 0..5); // compacts at 3; salts 3..5 append to the new log
        assert_eq!(svc.metrics().compactions, 1);
        assert_eq!(svc.metrics().persist_errors, 0);
    }
    let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(
        r.restored, 5,
        "the compacted records plus the appends after them"
    );
    assert_eq!(r.truncated_bytes, 0);
    assert_warm(&svc, 0..5);
    cleanup(&path);
}

#[test]
fn torn_compacted_log_truncates_and_serves_warm() {
    let path = temp_log("torn-compacted");
    cleanup(&path);
    {
        let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
        fill(&svc, 0..6); // compacts at 3 and 6: the log holds 0..6
        assert_eq!(svc.metrics().compactions, 2);
    }
    // Garbage after the compacted records is a torn tail like any other.
    {
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 48]).unwrap();
    }
    let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(r.restored, 6, "every compacted record survives the tear");
    assert_eq!(r.truncated_bytes, 48, "exactly the garbage is dropped");
    assert!(!r.invalidated);
    assert_warm(&svc, 0..6);
    // Appends resume at the truncated offset.
    fill(&svc, 6..7);
    drop(svc);
    let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
    assert_eq!(svc.replay_report().restored, 7);
    cleanup(&path);
}

#[test]
fn partial_tmp_is_removed_and_the_log_replays() {
    let path = temp_log("partial-tmp");
    cleanup(&path);
    {
        let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
        fill(&svc, 0..3);
        assert_eq!(svc.metrics().compactions, 1);
    }
    // A crash mid-compaction leaves a partly written `<log>.tmp` beside
    // the complete 3-entry log.
    let tmp = tmp_sibling(&path);
    let log = std::fs::read(&path).unwrap();
    std::fs::write(&tmp, &log[..log.len() / 2]).unwrap();

    let svc = TranspileService::with_persistence(compacting_config(3), &path).unwrap();
    let r = svc.replay_report();
    assert_eq!(r.restored, 3, "the log still holds every record");
    assert_eq!(r.truncated_bytes, 0);
    assert!(!tmp.exists(), "open deletes the interrupted compaction");
    assert_warm(&svc, 0..3);
    cleanup(&path);
}

/// Only *clean* fills persist: a service without persistence keeps
/// zeroed persist counters, and restore counts surface in metrics.
#[test]
fn persist_metrics_reflect_the_log() {
    let path = temp_log("metrics");
    {
        let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
        fill(&svc, 0..2);
        let m = svc.metrics();
        assert_eq!(m.persist_appends, 2);
        assert_eq!(m.persist_restored, 0);
    }
    let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
    assert_eq!(svc.metrics().persist_restored, 2);

    let plain = TranspileService::new(quiet_config());
    fill(&plain, 0..1);
    let m = plain.metrics();
    assert_eq!(m.persist_appends, 0);
    assert_eq!(m.persist_errors, 0);
    let _ = std::fs::remove_file(&path);
}
