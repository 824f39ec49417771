//! Fault sweep over the serve perimeter (`--features fault-inject`).
//!
//! Arms every serve-stage label (admission, cache lookup, compile,
//! response write) and a set of pipeline-stage labels with every fault
//! kind, drives real requests through a shared [`TranspileService`], and
//! asserts the contract of the serving layer: **no injected fault may
//! kill the process** — every request resolves to a typed response, the
//! service keeps serving afterwards, and failures show up in the metrics
//! instead of in a core dump. Also covers the failure-driven machinery
//! that cannot be reached without faults: quarantine-triggered retry with
//! the pass pre-disabled, and breaker trip → half-open probe → recovery.

#![cfg(feature = "fault-inject")]

use rpo::backends::Backend;
use rpo::circuit::qasm::to_qasm;
use rpo::circuit::{Circuit, RpoError};
use rpo::serve::breaker::BreakerConfig;
use rpo::serve::shard::{routing_key, FleetLine};
use rpo::serve::wire::escape_json;
use rpo::serve::{
    BreakerState, Fleet, FleetConfig, InProcessShard, ServeConfig, ServeFlow, ServeRequest,
    TestClock, TranspileService,
};
use rpo::transpile::fault::{arm, disarm, FaultKind, FaultPlan};
use std::sync::Arc;
use std::time::Duration;

const SERVE_STAGES: [&str; 4] = [
    "serve:admission",
    "serve:cache",
    "serve:compile",
    "serve:response",
];

const PIPELINE_STAGES: [&str; 5] = [
    "Optimize1qGates",
    "CommutativeCancellation",
    "ConsolidateBlocks",
    "QPO",
    "Unroller(device)",
];

fn workload(salt: u64) -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0);
    for q in 1..4 {
        c.cx(q - 1, q);
    }
    // A salt-dependent rotation keeps every request's cache key distinct.
    c.rz(0.1 + salt as f64 * 0.01, 0);
    c.measure_all();
    c
}

fn request(salt: u64, flow: ServeFlow) -> ServeRequest {
    ServeRequest {
        id: format!("f{salt}"),
        circuit: workload(salt),
        backend: Backend::linear(5),
        flow,
        seed: salt,
        deadline: None,
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        verify_every: 0,
        ..ServeConfig::default()
    }
}

fn kinds() -> [FaultKind; 4] {
    [
        FaultKind::PanicBefore,
        FaultKind::PanicAfter,
        FaultKind::Stall(Duration::from_millis(1)),
        FaultKind::BadUnitary,
    ]
}

/// Serve-stage faults: the injected panic is absorbed into a typed
/// Internal error, stalls succeed, and the service keeps serving.
#[test]
fn serve_stage_faults_never_escape() {
    let service = TranspileService::new(quiet_config());
    let mut salt = 0u64;
    let mut expected_panics = 0u64;
    for stage in SERVE_STAGES {
        for kind in kinds() {
            for _seed in 0..2 {
                salt += 1;
                let stall = matches!(kind, FaultKind::Stall(_));
                arm(FaultPlan {
                    pass: stage.into(),
                    kind: kind.clone(),
                });
                let resp = service.handle(request(salt, ServeFlow::Preset { level: 2 }));
                disarm();
                if stall {
                    resp.result.unwrap_or_else(|e| {
                        panic!("stall at {stage} must still succeed, got {e:?}")
                    });
                } else {
                    expected_panics += 1;
                    match resp.result {
                        Err(RpoError::Internal(msg)) => {
                            assert!(
                                msg.contains("injected fault"),
                                "unexpected internal error at {stage}: {msg}"
                            );
                        }
                        other => panic!("expected Internal at {stage}, got {other:?}"),
                    }
                }
                // The perimeter must be fully recovered: the very next
                // request (fresh cache key) succeeds.
                salt += 1;
                let probe = service.handle(request(salt, ServeFlow::Preset { level: 2 }));
                probe
                    .result
                    .unwrap_or_else(|e| panic!("service wedged after {stage} fault: {e:?}"));
            }
        }
    }
    let m = service.metrics();
    assert_eq!(m.handler_panics, expected_panics);
    assert_eq!(m.served_ok + m.served_err, salt);
}

/// Pipeline-stage faults through the service: optional passes quarantine
/// (and may retry clean); mandatory stages surface typed errors. Nothing
/// panics through the public API.
#[test]
fn pipeline_stage_faults_resolve_to_typed_responses() {
    let service = TranspileService::new(quiet_config());
    let mut salt = 1000u64;
    for stage in PIPELINE_STAGES {
        for kind in kinds() {
            for flow in [ServeFlow::Preset { level: 3 }, ServeFlow::Rpo] {
                salt += 1;
                arm(FaultPlan {
                    pass: stage.into(),
                    kind: kind.clone(),
                });
                let resp = service.handle(request(salt, flow));
                disarm();
                // Ok (possibly degraded / retried) or a typed error — the
                // sweep only forbids panics and process death.
                if let Err(e) = &resp.result {
                    assert!(
                        matches!(
                            e,
                            RpoError::PassFailed { .. }
                                | RpoError::Internal(_)
                                | RpoError::Numeric { .. }
                        ),
                        "unexpected error class for {stage}: {e:?}"
                    );
                }
            }
        }
    }
    assert_eq!(service.metrics().handler_panics, 0);
}

/// A quarantined optional pass triggers one retry with the pass
/// pre-disabled; the retry comes back clean and the response records the
/// whole story.
#[test]
fn quarantine_triggers_predisabled_retry() {
    let service = TranspileService::new(quiet_config());
    arm(FaultPlan {
        pass: "Optimize1qGates".into(),
        kind: FaultKind::PanicBefore,
    });
    let resp = service.handle(request(1, ServeFlow::Preset { level: 3 }));
    disarm();
    let ok = resp.result.expect("retry must rescue the request");
    assert_eq!(ok.retries, 1);
    assert_eq!(ok.retried_after, vec!["Optimize1qGates".to_string()]);
    assert!(
        ok.degradation.is_clean(),
        "the winning attempt ran with the pass disabled, so it is clean: {:?}",
        ok.degradation
    );
    assert!(ok
        .degradation
        .predisabled
        .contains(&"Optimize1qGates".to_string()));
    let m = service.metrics();
    assert_eq!(m.retries, 1);
    assert_eq!(m.compiles, 2);
}

/// Repeated quarantines trip the process-wide breaker; after the cooldown
/// a half-open probe runs the pass again and closes the breaker.
#[test]
fn breaker_trips_and_recovers_through_the_service() {
    const PASS: &str = "Optimize1qGates";
    let clock = Arc::new(TestClock::new());
    let clock_dyn: Arc<dyn rpo::serve::Clock> = Arc::clone(&clock) as _;
    let service = TranspileService::with_clock(
        ServeConfig {
            breaker: BreakerConfig {
                window: 2,
                threshold: 2,
                cooldown: Duration::from_secs(10),
            },
            ..quiet_config()
        },
        clock_dyn,
    );

    // Two requests whose first attempt quarantines the pass.
    for salt in 0..2 {
        arm(FaultPlan {
            pass: PASS.into(),
            kind: FaultKind::PanicBefore,
        });
        let resp = service.handle(request(salt, ServeFlow::Preset { level: 3 }));
        disarm();
        resp.result.expect("retried requests succeed");
    }
    assert_eq!(service.breakers().state(PASS), BreakerState::Open);

    // While open, requests are admitted with the pass pre-disabled: no
    // quarantine, no retry, and the response says why the pass was off.
    let resp = service.handle(request(50, ServeFlow::Preset { level: 3 }));
    let ok = resp.result.expect("breaker-degraded compile succeeds");
    assert_eq!(ok.retries, 0);
    assert!(ok.breaker_disabled.contains(&PASS.to_string()));
    assert!(ok.degradation.predisabled.contains(&PASS.to_string()));

    // Cooldown elapses; the next request is the half-open probe, runs the
    // (now healthy) pass, and closes the breaker.
    clock.advance(Duration::from_secs(11));
    let probe = service.handle(request(51, ServeFlow::Preset { level: 3 }));
    let ok = probe.result.expect("probe succeeds");
    assert!(
        ok.breaker_disabled.is_empty(),
        "the probe itself runs with the pass enabled"
    );
    assert_eq!(service.breakers().state(PASS), BreakerState::Closed);
    assert_eq!(service.metrics().breaker_trips, 1);

    // Fully healthy again.
    let after = service.handle(request(52, ServeFlow::Preset { level: 3 }));
    let ok = after.result.expect("post-recovery compile succeeds");
    assert!(ok.breaker_disabled.is_empty());
    assert!(ok.degradation.predisabled.is_empty());
}

// ---------------------------------------------------------------------
// Fleet-stage faults: `fleet:route`, `fleet:failover`, `persist:replay`,
// `gossip:merge`. The contract mirrors the serve perimeter's — no
// injected fault may kill the router or a surviving shard.
// ---------------------------------------------------------------------

fn request_line(salt: u64) -> String {
    let qasm = to_qasm(&workload(salt)).unwrap();
    format!(
        "{{\"id\":\"f{salt}\",\"qasm\":\"{}\",\"backend\":\"linear:5\",\
         \"flow\":\"preset\",\"level\":2,\"seed\":{salt}}}",
        escape_json(&qasm)
    )
}

fn fleet_of(n: usize) -> Fleet<InProcessShard> {
    let shards = (0..n)
        .map(|_| InProcessShard::new(Arc::new(TranspileService::new(quiet_config()))))
        .collect();
    Fleet::new(shards, FleetConfig::default())
}

fn response_of(line: FleetLine) -> String {
    match line {
        FleetLine::Response(s) => s,
        FleetLine::Drained(s) => panic!("unexpected drain: {s}"),
    }
}

/// Routing-stage faults: a panic anywhere in the routing path becomes a
/// typed internal-error response line; the router and every surviving
/// shard keep serving afterwards.
#[test]
fn fleet_route_and_failover_faults_never_kill_the_router() {
    let mut salt = 5000u64;
    for stage in ["fleet:route", "fleet:failover"] {
        for kind in kinds() {
            salt += 1;
            let fleet = fleet_of(2);
            if stage == "fleet:failover" {
                // The failover point only fires after the owner's send
                // fails, so kill the owner of this request's key first.
                let req = request(salt, ServeFlow::Preset { level: 2 });
                let owner = fleet.shard_for(routing_key(&req)).unwrap();
                fleet.backends()[owner].kill();
            }
            let stall = matches!(kind, FaultKind::Stall(_));
            arm(FaultPlan {
                pass: stage.into(),
                kind,
            });
            let resp = response_of(fleet.handle_line(&request_line(salt)));
            disarm();
            if stall {
                assert!(
                    resp.contains("\"status\":\"ok\""),
                    "a stall at {stage} must still serve: {resp}"
                );
            } else {
                assert!(
                    resp.contains("\"kind\":\"internal\""),
                    "a panic at {stage} must become a typed response: {resp}"
                );
            }
            // The router survives: the very next request (fresh key)
            // resolves through whichever shards are still alive.
            salt += 1;
            let probe = response_of(fleet.handle_line(&request_line(salt)));
            assert!(
                probe.contains("\"status\":\"ok\""),
                "router wedged after {stage} fault: {probe}"
            );
            let drain = fleet.drain();
            if !stall {
                assert!(drain.contains("\"fleet_router_panics\":1"), "{drain}");
            }
        }
    }
}

/// Gossip-stage faults abandon the round, not the router: the tick
/// returns an empty report, both shards stay alive, and the next clean
/// tick replicates the breaker state as usual.
#[test]
fn gossip_merge_faults_abandon_the_round_not_the_router() {
    const PASS: &str = "Optimize1qGates";
    let mut salt = 6000u64;
    for kind in kinds() {
        let stall = matches!(kind, FaultKind::Stall(_));
        let fleet = fleet_of(2);
        // A genuine local trip (force_open would mark the open as remote,
        // which gossip deliberately does not re-report).
        for _ in 0..3 {
            fleet.backends()[0].service().breakers().record(PASS, false);
        }
        arm(FaultPlan {
            pass: "gossip:merge".into(),
            kind: kind.clone(),
        });
        let report = fleet.tick();
        disarm();
        if stall {
            assert_eq!(report.alive, 2, "a stalled merge still finishes the round");
            assert_eq!(report.open, vec![PASS]);
        } else {
            assert_eq!(report.alive, 0, "a panicked round is abandoned wholesale");
            assert!(report.open.is_empty());
        }
        // The router survives and the next clean tick replicates.
        let report = fleet.tick();
        assert_eq!(report.alive, 2);
        assert_eq!(report.open, vec![PASS]);
        assert_eq!(
            fleet.backends()[1].service().breakers().state(PASS),
            BreakerState::Open
        );
        salt += 1;
        let probe = response_of(fleet.handle_line(&request_line(salt)));
        assert!(probe.contains("\"status\":\"ok\""), "{probe}");

        // The same fault through the wire path (`{"op":"breakers",...}`)
        // also resolves to a typed line instead of a dead router.
        arm(FaultPlan {
            pass: "gossip:merge".into(),
            kind,
        });
        let resp =
            response_of(fleet.handle_line(&format!("{{\"op\":\"breakers\",\"open\":\"{PASS}\"}}")));
        disarm();
        if stall {
            assert!(resp.contains("\"status\":\"breakers\""), "{resp}");
        } else {
            assert!(resp.contains("\"kind\":\"internal\""), "{resp}");
        }
    }
}

/// Replay-stage faults degrade to a cold start: a panic while replaying
/// the segment log discards the file and brings the service up empty —
/// persistence failures never prevent startup, and the log immediately
/// accepts fresh appends.
#[test]
fn persist_replay_faults_degrade_to_cold_start() {
    for (i, kind) in kinds().into_iter().enumerate() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "qc-serve-fault-replay-{}-{i}.seglog",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let stall = matches!(kind, FaultKind::Stall(_));
        {
            let svc = TranspileService::with_persistence(quiet_config(), &path).unwrap();
            svc.handle(request(7000 + i as u64, ServeFlow::Preset { level: 2 }))
                .result
                .expect("prefill compile succeeds");
            assert_eq!(svc.metrics().persist_appends, 1);
        }
        arm(FaultPlan {
            pass: "persist:replay".into(),
            kind,
        });
        let svc = TranspileService::with_persistence(quiet_config(), &path)
            .expect("startup must survive a replay fault");
        disarm();
        let r = svc.replay_report();
        if stall {
            assert_eq!(r.restored, 1, "a stalled replay still restores the log");
            assert!(!r.invalidated);
        } else {
            assert!(r.invalidated, "a panicked replay discards the file");
            assert_eq!(r.restored, 0);
        }
        // The service serves and persists either way.
        let resp = svc.handle(request(7100 + i as u64, ServeFlow::Preset { level: 2 }));
        resp.result.expect("post-recovery compile succeeds");
        assert!(svc.metrics().persist_appends >= 1);
        let _ = std::fs::remove_file(&path);
    }
}

/// Every compaction fire point, crashed with both panic kinds: the
/// response that triggered the compaction still succeeds (compaction is
/// best-effort, surfaced via `persist_errors`), the service keeps
/// persisting, and a restart restores every acknowledged entry from
/// whichever complete log, old or compacted, the crash left in place.
#[test]
fn compaction_crash_points_never_lose_acknowledged_entries() {
    const COMPACT_STAGES: [&str; 3] = [
        "persist:compact:begin",
        "persist:compact:written",
        "persist:compact:committed",
    ];
    let compact_config = || ServeConfig {
        compact_every_records: 2,
        ..quiet_config()
    };
    let mut salt = 8000u64;
    for (i, stage) in COMPACT_STAGES.iter().enumerate() {
        for (j, kind) in [FaultKind::PanicBefore, FaultKind::PanicAfter]
            .into_iter()
            .enumerate()
        {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "qc-serve-fault-compact-{}-{i}-{j}.seglog",
                std::process::id()
            ));
            for suffix in ["", ".tmp"] {
                let mut os = path.as_os_str().to_os_string();
                os.push(suffix);
                let _ = std::fs::remove_file(std::path::PathBuf::from(os));
            }
            let salts = [salt, salt + 1, salt + 2];
            salt += 3;
            {
                let svc = TranspileService::with_persistence(compact_config(), &path).unwrap();
                svc.handle(request(salts[0], ServeFlow::Preset { level: 2 }))
                    .result
                    .expect("first fill succeeds");
                // The second fill crosses compact_every_records and fires
                // the armed compaction fault.
                arm(FaultPlan {
                    pass: (*stage).into(),
                    kind: kind.clone(),
                });
                let resp = svc.handle(request(salts[1], ServeFlow::Preset { level: 2 }));
                disarm();
                resp.result.unwrap_or_else(|e| {
                    panic!("a compaction crash at {stage} must not fail the request: {e:?}")
                });
                assert_eq!(
                    svc.metrics().persist_errors,
                    1,
                    "the crash at {stage} is visible in metrics"
                );
                // The log keeps accepting appends (and retries the
                // compaction, now clean) after the crash.
                svc.handle(request(salts[2], ServeFlow::Preset { level: 2 }))
                    .result
                    .expect("post-crash fill succeeds");
            }
            let svc = TranspileService::with_persistence(compact_config(), &path).unwrap();
            let r = svc.replay_report();
            assert_eq!(
                r.restored, 3,
                "acknowledged entries lost after a crash at {stage}: {r:?}"
            );
            for s in salts {
                let resp = svc.handle(request(s, ServeFlow::Preset { level: 2 }));
                let ok = resp.result.expect("restored entry serves");
                assert_eq!(
                    format!("{:?}", ok.cache),
                    "Warm",
                    "salt {s} must replay warm after a crash at {stage}"
                );
            }
            for suffix in ["", ".tmp"] {
                let mut os = path.as_os_str().to_os_string();
                os.push(suffix);
                let _ = std::fs::remove_file(std::path::PathBuf::from(os));
            }
        }
    }
}

/// Replication faults are invisible to the client: the cold response
/// still succeeds, the router never counts a panic, the key stays
/// pending, and the next tick's anti-entropy lands the replica — after
/// which the owner's death fails over warm.
#[test]
fn replicate_faults_leave_the_key_pending_not_the_router_dead() {
    let mut salt = 9000u64;
    for kind in kinds() {
        salt += 1;
        let fleet = fleet_of(2);
        arm(FaultPlan {
            pass: "fleet:replicate".into(),
            kind,
        });
        let resp = response_of(fleet.handle_line(&request_line(salt)));
        disarm();
        assert!(
            resp.contains("\"status\":\"ok\"") && resp.contains("\"cache\":\"cold\""),
            "a replication fault must never affect the response: {resp}"
        );

        // The next clean tick retries the pending push; the replica then
        // covers the owner's death warm.
        fleet.tick();
        let req = request(salt, ServeFlow::Preset { level: 2 });
        let owner = fleet.shard_for(routing_key(&req)).unwrap();
        fleet.backends()[owner].kill();
        let probe = response_of(fleet.handle_line(&request_line(salt)));
        assert!(
            probe.contains("\"cache\":\"warm\""),
            "anti-entropy must have replicated the key: {probe}"
        );
        let drain = fleet.drain();
        assert!(drain.contains("\"fleet_router_panics\":0"), "{drain}");
        assert!(drain.contains("\"warm_failover_hits\":1"), "{drain}");
    }
}

/// A compile-stage stall combined with a deadline exercises the budget
/// path end to end: the response is either a degraded success (budget
/// hit recorded) or a typed shed — never a hang past the sweep or a
/// process death.
#[test]
fn stalled_compile_with_deadline_degrades_gracefully() {
    let service = TranspileService::new(quiet_config());
    arm(FaultPlan {
        pass: "QPO".into(),
        kind: FaultKind::Stall(Duration::from_millis(30)),
    });
    let mut req = request(7, ServeFlow::Rpo);
    req.deadline = Some(Duration::from_millis(25));
    let resp = service.handle(req);
    disarm();
    match resp.result {
        Ok(ok) => {
            // Deadline noticed mid-pipeline: optional tail skipped.
            assert!(
                !ok.degradation.budget_hits.is_empty() || ok.degradation.is_clean(),
                "stall under deadline should surface as a budget hit: {:?}",
                ok.degradation
            );
        }
        Err(RpoError::Shed { .. }) | Err(RpoError::BudgetExceeded { .. }) => {}
        Err(other) => panic!("unexpected error: {other:?}"),
    }
}
