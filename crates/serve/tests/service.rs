//! Deterministic integration tests for the serve perimeter: single-flight
//! coalescing, cache tiers, admission shedding, deadline handling, drain.
//! No sleeps beyond one bounded queue-timeout test; the breaker state
//! machine is covered with an injected clock in `src/breaker.rs`, and the
//! failure-driven paths (retry, breaker trips via real quarantines, serve
//! fault sweep) live in the workspace-root `serve_fault` suite under the
//! `fault-inject` feature.

use qc_backends::Backend;
use qc_circuit::{Circuit, RpoError};
use qc_serve::{CacheClass, ServeConfig, ServeFlow, ServeRequest, TranspileService};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.measure_all();
    c
}

fn request(id: &str, circuit: Circuit, seed: u64) -> ServeRequest {
    ServeRequest {
        id: id.into(),
        circuit,
        backend: Backend::linear(5),
        flow: ServeFlow::Preset { level: 2 },
        seed,
        deadline: None,
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        verify_every: 0,
        ..ServeConfig::default()
    }
}

#[test]
fn identical_concurrent_requests_compile_exactly_once() {
    const N: usize = 6;
    let service = Arc::new(TranspileService::new(ServeConfig {
        max_concurrent: N,
        ..quiet_config()
    }));
    let barrier = Arc::new(Barrier::new(N));
    let workers: Vec<_> = (0..N)
        .map(|i| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.handle(request(&format!("r{i}"), ghz(4), 0))
            })
        })
        .collect();
    let responses: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread must not panic"))
        .collect();

    let mut cold = 0;
    for resp in &responses {
        let ok = resp.result.as_ref().expect("all requests must succeed");
        if ok.cache == CacheClass::Cold {
            cold += 1;
        }
    }
    assert_eq!(cold, 1, "exactly one request may lead the compile");
    let m = service.metrics();
    assert_eq!(m.compiles, 1, "identical requests must share one compile");
    assert_eq!(m.served_ok, N as u64);
    assert_eq!(m.cache_warm + m.coalesced, N as u64 - 1);
}

#[test]
fn warm_hits_and_key_separation() {
    let service = TranspileService::new(quiet_config());
    let first = service.handle(request("a", ghz(4), 0));
    assert_eq!(first.result.unwrap().cache, CacheClass::Cold);

    // Same circuit, backend, flow, seed: warm, and no new compile.
    let second = service.handle(request("b", ghz(4), 0));
    let ok = second.result.unwrap();
    assert_eq!(ok.cache, CacheClass::Warm);
    assert_eq!(service.metrics().compiles, 1);
    assert!(!ok.qasm.is_empty());

    // A different routing seed is different work.
    let reseeded = service.handle(request("c", ghz(4), 1));
    assert_eq!(reseeded.result.unwrap().cache, CacheClass::Cold);

    // An edited circuit is different work.
    let edited = service.handle(request("d", ghz(5), 0));
    assert_eq!(edited.result.unwrap().cache, CacheClass::Cold);
    assert_eq!(service.metrics().compiles, 3);
}

#[test]
fn sampled_integrity_verification_passes_on_deterministic_compiles() {
    let service = TranspileService::new(ServeConfig {
        verify_every: 1, // verify every warm hit
        ..quiet_config()
    });
    service
        .handle(request("cold", ghz(4), 3))
        .result
        .expect("cold compile");
    let warm = service.handle(request("warm", ghz(4), 3));
    let ok = warm.result.expect("warm hit");
    assert_eq!(ok.cache, CacheClass::Warm);
    assert!(ok.verified, "verify_every=1 must re-verify the hit");
    let m = service.metrics();
    assert_eq!(m.integrity_checks, 1);
    assert_eq!(
        m.integrity_failures, 0,
        "a deterministic pipeline must reproduce its own cache entries"
    );
}

#[test]
fn saturated_service_sheds_with_typed_overloaded() {
    // Zero permits and zero queue slots: every request is refused up
    // front, deterministically, with the typed error — nothing compiles.
    let service = TranspileService::new(ServeConfig {
        max_concurrent: 0,
        queue_capacity: 0,
        ..quiet_config()
    });
    let resp = service.handle(request("r", ghz(3), 0));
    match resp.result {
        Err(RpoError::Overloaded { capacity, .. }) => assert_eq!(capacity, 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let m = service.metrics();
    assert_eq!(m.shed_overloaded, 1);
    assert_eq!(m.compiles, 0);
    assert_eq!(m.served_err, 1);
}

#[test]
fn queued_request_sheds_when_deadline_expires() {
    // One queue slot but zero permits: the request queues and its 10 ms
    // deadline expires in the queue (the one bounded real-time wait in
    // this suite).
    let service = TranspileService::new(ServeConfig {
        max_concurrent: 0,
        queue_capacity: 1,
        ..quiet_config()
    });
    let mut req = request("r", ghz(3), 0);
    req.deadline = Some(Duration::from_millis(10));
    let resp = service.handle(req);
    match resp.result {
        Err(RpoError::Shed { reason }) => {
            assert!(reason.contains("deadline"), "unexpected reason: {reason}")
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    assert_eq!(service.metrics().shed_deadline, 1);
}

#[test]
fn drain_finishes_served_work_then_refuses_admission() {
    let service = TranspileService::new(quiet_config());
    service
        .handle(request("a", ghz(4), 0))
        .result
        .expect("first request");
    service
        .handle(request("b", ghz(4), 0))
        .result
        .expect("second request");

    let report = service.drain();
    assert_eq!(report.metrics.served_ok, 2);
    assert_eq!(report.metrics.compiles, 1);
    assert_eq!(report.metrics.cache_warm, 1);
    assert!(
        report.passes.iter().any(|(_, t)| t.runs > 0),
        "drain report must carry aggregated pass totals"
    );
    assert!(report.breakers.is_empty(), "no breaker tripped");

    // Admission is closed now.
    let refused = service.handle(request("late", ghz(4), 0));
    match refused.result {
        Err(RpoError::Shed { reason }) => {
            assert!(reason.contains("drain"), "unexpected reason: {reason}")
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    // Drain is idempotent.
    let again = service.drain();
    assert_eq!(again.metrics.shed_drain, 1);
}

#[test]
fn oversized_circuit_is_a_typed_invalid_input() {
    let service = TranspileService::new(quiet_config());
    let resp = service.handle(ServeRequest {
        id: "big".into(),
        circuit: ghz(9),
        backend: Backend::linear(5),
        flow: ServeFlow::Preset { level: 1 },
        seed: 0,
        deadline: None,
    });
    assert!(matches!(resp.result, Err(RpoError::InvalidInput(_))));
    assert_eq!(service.metrics().served_err, 1);
}

#[test]
fn rpo_flow_serves_and_caches_independently_of_preset() {
    let service = TranspileService::new(quiet_config());
    let mut rpo_req = request("rpo", ghz(4), 0);
    rpo_req.flow = ServeFlow::Rpo;
    let first = service.handle(rpo_req.clone());
    assert_eq!(first.result.unwrap().cache, CacheClass::Cold);
    // Preset level 3 on the same circuit must not collide with the rpo
    // entry.
    let mut preset_req = request("preset3", ghz(4), 0);
    preset_req.flow = ServeFlow::Preset { level: 3 };
    let second = service.handle(preset_req);
    assert_eq!(second.result.unwrap().cache, CacheClass::Cold);
    let third = service.handle(ServeRequest {
        id: "rpo2".into(),
        ..rpo_req
    });
    assert_eq!(third.result.unwrap().cache, CacheClass::Warm);
}
