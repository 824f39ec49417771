//! Fleet routing integration tests: rendezvous hashing properties
//! (cross-process determinism via frozen golden values, uniformity,
//! minimal remap) and the router state machine end to end over
//! [`InProcessShard`]s — warm hits landing on the owner, failover of a
//! dead shard's keyspace, typed sheds when no shard is live, revival on
//! tick, replication after the answer, the router's breaker report, and
//! fleet-wide drain.

use qc_backends::Backend;
use qc_circuit::qasm::to_qasm;
use qc_circuit::Circuit;
use qc_serve::shard::{rendezvous_ranking, rendezvous_route, routing_key, shard_score, FleetLine};
use qc_serve::wire::{decode_line, escape_json, parse_flat_object, WireMsg};
use qc_serve::{
    BreakerState, Fleet, FleetConfig, InProcessShard, ServeConfig, ServeFlow, ServeRequest,
    ShardBackend, TranspileService,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Rendezvous hashing properties
// ---------------------------------------------------------------------

/// Frozen scores: `shard_score` is a pure function of (key, shard), so
/// these constants hold in every process, on every platform — the
/// property that lets independent routers agree on ownership with no
/// coordination. If this test fails, the wire-compatibility of the whole
/// fleet changed and `persist`/routing caches must be invalidated.
#[test]
fn shard_score_matches_frozen_golden_values() {
    let golden: [(u128, u32, u128); 6] = [
        (0, 0, 0xd5bd_6a4e_4691_eca6_30d2_3644_2072_9efb),
        (0, 1, 0xea20_22e0_4a16_34c6_47b9_f5f0_f345_b136),
        (0, 2, 0x2153_9ba6_47fa_a84d_aad2_836e_f0e2_e1ff),
        (1, 0, 0x0886_4eeb_f3d0_34ba_ba99_5e0d_da57_d25d),
        (0xdead_beef, 0, 0xe3b1_7cdd_5eef_6eb1_0256_3537_ee28_a5d5),
        (u128::MAX, 2, 0xbdf5_cd0c_26fb_5899_335e_d2b3_b8b7_92ad),
    ];
    for (key, shard, expect) in golden {
        assert_eq!(
            shard_score(key, shard),
            expect,
            "shard_score({key:#x}, {shard}) drifted — fleet routing is no longer \
             cross-process deterministic"
        );
    }
}

#[test]
fn ranking_matches_frozen_golden_values() {
    let golden: [(u128, [usize; 5]); 4] = [
        (0, [1, 0, 4, 3, 2]),
        (1, [4, 2, 1, 3, 0]),
        (0xdead_beef, [0, 3, 4, 1, 2]),
        (u128::MAX, [0, 2, 4, 3, 1]),
    ];
    for (key, expect) in golden {
        assert_eq!(rendezvous_ranking(key, 5), expect.to_vec());
    }
}

/// A cheap deterministic key stream (splitmix64 folded to 128 bits) —
/// no RNG dependency, same sequence every run.
fn key_stream(n: usize) -> Vec<u128> {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| ((next() as u128) << 64) | next() as u128)
        .collect()
}

/// Each of 5 shards owns its fair 1/5 share of 10k random keys within
/// ±20% — rendezvous hashing must not concentrate the keyspace.
#[test]
fn ownership_is_uniform_within_20_percent() {
    const SHARDS: usize = 5;
    const KEYS: usize = 10_000;
    let mut counts = [0usize; SHARDS];
    for key in key_stream(KEYS) {
        counts[rendezvous_ranking(key, SHARDS)[0]] += 1;
    }
    let expected = KEYS / SHARDS;
    let (lo, hi) = (expected * 4 / 5, expected * 6 / 5);
    for (shard, &n) in counts.iter().enumerate() {
        assert!(
            (lo..=hi).contains(&n),
            "shard {shard} owns {n} of {KEYS} keys; expected {expected} ±20% ({lo}..={hi}): \
             {counts:?}"
        );
    }
}

/// The minimal-remap property: killing one of N shards moves *only that
/// shard's* keys (each to its second-ranked shard); every other key keeps
/// its owner. This is what makes shard-count changes and failover cheap —
/// only 1/N of the warm keyspace re-compiles.
#[test]
fn removing_one_shard_remaps_only_its_keys() {
    const SHARDS: usize = 5;
    let keys = key_stream(2_000);
    let all_alive = vec![true; SHARDS];
    for dead in 0..SHARDS {
        let mut alive = all_alive.clone();
        alive[dead] = false;
        for &key in &keys {
            let before = rendezvous_route(key, &all_alive).unwrap();
            let after = rendezvous_route(key, &alive).unwrap();
            if before == dead {
                // The orphaned key falls exactly to its second-ranked shard.
                let ranking = rendezvous_ranking(key, SHARDS);
                assert_eq!(
                    after, ranking[1],
                    "orphan of shard {dead} skipped its failover"
                );
            } else {
                assert_eq!(
                    after, before,
                    "key {key:#x} moved off shard {before} although only shard {dead} died"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fleet state machine over in-process shards
// ---------------------------------------------------------------------

fn ghz_line(salt: u64) -> String {
    let mut c = Circuit::new(4);
    c.h(0);
    for q in 1..4 {
        c.cx(q - 1, q);
    }
    c.rz(0.1 + salt as f64 * 0.01, 0);
    c.measure_all();
    let qasm = to_qasm(&c).unwrap();
    format!(
        "{{\"id\":\"s{salt}\",\"qasm\":\"{}\",\"backend\":\"linear:5\",\
         \"flow\":\"preset\",\"level\":2,\"seed\":7}}",
        escape_json(&qasm)
    )
}

fn ghz_request(salt: u64) -> ServeRequest {
    let mut c = Circuit::new(4);
    c.h(0);
    for q in 1..4 {
        c.cx(q - 1, q);
    }
    c.rz(0.1 + salt as f64 * 0.01, 0);
    c.measure_all();
    ServeRequest {
        id: format!("s{salt}"),
        circuit: c,
        backend: Backend::linear(5),
        flow: ServeFlow::Preset { level: 2 },
        seed: 7,
        deadline: None,
    }
}

fn quiet_config() -> ServeConfig {
    ServeConfig {
        verify_every: 0,
        ..ServeConfig::default()
    }
}

fn fleet_with(n: usize, revivable: bool, cfg: FleetConfig) -> Fleet<InProcessShard> {
    let shards = (0..n)
        .map(|_| {
            let shard = InProcessShard::new(Arc::new(TranspileService::new(quiet_config())));
            if revivable {
                shard.revivable()
            } else {
                shard
            }
        })
        .collect();
    Fleet::new(shards, cfg)
}

fn fleet_of(n: usize, revivable: bool) -> Fleet<InProcessShard> {
    fleet_with(n, revivable, FleetConfig::default())
}

fn response_of(line: FleetLine) -> String {
    match line {
        FleetLine::Response(s) => s,
        FleetLine::Drained(s) => panic!("unexpected drain: {s}"),
    }
}

/// The router's `fleet_replication_pending` gauge, off its metrics line.
fn replication_pending<B: ShardBackend>(fleet: &Fleet<B>) -> u64 {
    let metrics = response_of(fleet.handle_line("{\"op\":\"metrics\"}"));
    let map = parse_flat_object(&metrics).unwrap();
    map["fleet_replication_pending"].as_u64().unwrap()
}

#[test]
fn warm_hits_land_on_the_owning_shard() {
    let fleet = fleet_of(3, false);
    let line = ghz_line(1);
    let owner = fleet.shard_for(routing_key(&ghz_request(1))).unwrap();

    let cold = response_of(fleet.handle_line(&line));
    assert!(
        cold.contains("\"cache\":\"cold\""),
        "first send compiles: {cold}"
    );
    let warm = response_of(fleet.handle_line(&line));
    assert!(
        warm.contains("\"cache\":\"warm\""),
        "second send is warm: {warm}"
    );

    for (i, shard) in fleet.backends().iter().enumerate() {
        let m = shard.service().metrics();
        if i == owner {
            assert_eq!(m.compiles, 1, "the owner compiled once");
            assert_eq!(m.cache_warm, 1, "and served the repeat warm");
        } else {
            assert_eq!(m.served_ok, 0, "shard {i} must not see the owner's keys");
        }
    }
}

#[test]
fn dead_owner_fails_over_then_all_dead_sheds() {
    let fleet = fleet_of(3, false);
    let key = routing_key(&ghz_request(2));
    let owner = fleet.shard_for(key).unwrap();
    fleet.backends()[owner].kill();

    // The router discovers the death on send and walks the ranking.
    let resp = response_of(fleet.handle_line(&ghz_line(2)));
    assert!(
        resp.contains("\"cache\":\"cold\""),
        "failover target compiles the orphaned key: {resp}"
    );
    assert!(!fleet.alive()[owner], "the dead owner is marked down");
    let survivor = fleet.shard_for(key).unwrap();
    assert_ne!(survivor, owner);
    assert_eq!(fleet.backends()[survivor].service().metrics().compiles, 1);

    for shard in fleet.backends() {
        shard.kill();
    }
    let shed = response_of(fleet.handle_line(&ghz_line(3)));
    assert!(
        shed.contains("\"kind\":\"shed\""),
        "an ownerless key is refused with a typed shed: {shed}"
    );
    // One real failover (the orphaned key's compile) plus one during the
    // all-dead walk before the shed.
    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_failovers\":2"), "{drain}");
    assert!(drain.contains("\"fleet_shed\":1"), "{drain}");
}

#[test]
fn tick_revives_dead_shards() {
    let fleet = fleet_of(2, true);
    fleet.backends()[0].kill();
    fleet.mark_dead(0);

    let report = fleet.tick();
    assert_eq!(report.revived, 1);
    assert_eq!(report.alive, 2);
    assert_eq!(report.dead, 0);
    assert_eq!(fleet.alive(), vec![true, true]);

    let resp = response_of(fleet.handle_line(&ghz_line(4)));
    assert!(
        resp.contains("\"cache\":\"cold\""),
        "revived fleet serves: {resp}"
    );
}

/// Trips `pass`'s breaker on `svc` (default breaker config: 3 failures
/// in the window).
fn trip(svc: &TranspileService, pass: &str) {
    for _ in 0..3 {
        svc.breakers().record(pass, false);
    }
}

/// The router holds no breaker state: `{"op":"breakers"}` fetches every
/// live shard's open labels and answers their sorted union, and a tick
/// leaves each shard's breakers as they were.
#[test]
fn breakers_op_reports_the_union_of_live_shards() {
    let fleet = fleet_of(3, false);
    let report = response_of(fleet.handle_line("{\"op\":\"breakers\"}"));
    assert_eq!(report, "{\"status\":\"breakers\",\"open\":\"\"}");

    trip(fleet.backends()[0].service(), "QPO");
    trip(fleet.backends()[1].service(), "Optimize1qGates");
    trip(fleet.backends()[2].service(), "Optimize1qGates");
    let report = response_of(fleet.handle_line("{\"op\":\"breakers\"}"));
    assert_eq!(
        report,
        "{\"status\":\"breakers\",\"open\":\"Optimize1qGates,QPO\"}"
    );

    fleet.tick();
    assert_eq!(
        fleet.backends()[0]
            .service()
            .breakers()
            .state("Optimize1qGates"),
        BreakerState::Closed,
        "a tick copies no breaker state between shards"
    );

    // A dead shard's labels drop out of the union.
    fleet.backends()[0].kill();
    let report = response_of(fleet.handle_line("{\"op\":\"breakers\"}"));
    assert_eq!(
        report,
        "{\"status\":\"breakers\",\"open\":\"Optimize1qGates\"}"
    );
}

#[test]
fn drain_fans_out_and_stops_every_shard() {
    let fleet = fleet_of(2, false);
    response_of(fleet.handle_line(&ghz_line(5)));

    let report = match fleet.handle_line("{\"op\":\"drain\"}") {
        FleetLine::Drained(s) => s,
        FleetLine::Response(s) => panic!("drain must aggregate, got {s}"),
    };
    assert!(report.contains("\"shards\":2"), "{report}");
    assert!(report.contains("\"drained\":2"), "{report}");
    assert!(report.contains("\"failed\":0"), "{report}");

    // Every shard refused admission from the moment it drained.
    for shard in fleet.backends() {
        let resp = shard.service().handle(ghz_request(6));
        assert!(resp.result.is_err(), "drained shards shed new work");
    }
}

#[test]
fn metrics_aggregate_across_live_shards() {
    let fleet = fleet_of(2, false);
    response_of(fleet.handle_line(&ghz_line(7)));
    response_of(fleet.handle_line(&ghz_line(8)));

    let metrics = response_of(fleet.handle_line("{\"op\":\"metrics\"}"));
    assert!(metrics.contains("\"served_ok\":2"), "{metrics}");
    assert!(metrics.contains("\"fleet_routed\":2"), "{metrics}");
    assert!(metrics.contains("\"shards_alive\":2"), "{metrics}");
    assert!(metrics.contains("\"shards_total\":2"), "{metrics}");
}

/// The drain report and the metrics line carry the router's counters as
/// the same fields in the same order: one writer serves both.
#[test]
fn drain_and_metrics_carry_the_same_router_counters() {
    let fleet = fleet_of(2, false);
    for salt in 30..33 {
        response_of(fleet.handle_line(&ghz_line(salt)));
    }
    let metrics = response_of(fleet.handle_line("{\"op\":\"metrics\"}"));
    let drain = fleet.drain();
    let counters = |line: &str| {
        let start = line.find("\"fleet_routed\":").expect("router counters");
        let last = start + line[start..].find("\"warm_failover_hits\":").unwrap();
        let end = last + line[last..].find([',', '}']).unwrap();
        line[start..end].to_string()
    };
    assert_eq!(counters(&metrics), counters(&drain), "{metrics}\n{drain}");
    assert!(
        counters(&drain).starts_with("\"fleet_routed\":3,"),
        "{drain}"
    );
}

// ---------------------------------------------------------------------
// Warm-cache replication and chaos knobs
// ---------------------------------------------------------------------

#[test]
fn cold_fill_replicates_and_failover_serves_warm() {
    let fleet = fleet_of(3, false);
    let key = routing_key(&ghz_request(20));
    let owner = fleet.shard_for(key).unwrap();
    let replica = rendezvous_ranking(key, 3)[1];

    let cold = response_of(fleet.handle_line(&ghz_line(20)));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");

    // The answer did not wait for the push: the fill is only queued.
    let replica_svc = fleet.backends()[replica].service();
    assert_eq!(replica_svc.metrics().replicated_entries, 0);
    assert_eq!(replication_pending(&fleet), 1, "the fill is owed its push");

    // The push lands on the next-ranked shard.
    assert_eq!(fleet.replicate_due(), 1);
    assert_eq!(
        replica_svc.metrics().replicated_entries,
        1,
        "the replica admitted the pushed entry"
    );
    assert_eq!(replication_pending(&fleet), 0);

    // Kill the owner: its keyspace fails over to the replica, warm.
    fleet.backends()[owner].kill();
    let resp = response_of(fleet.handle_line(&ghz_line(20)));
    assert!(
        resp.contains("\"cache\":\"warm\""),
        "failover must be warm via the replica: {resp}"
    );
    assert_eq!(
        replica_svc.metrics().compiles,
        0,
        "the replica never recompiled the replicated key"
    );

    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_replicated\":1"), "{drain}");
    assert!(drain.contains("\"failover_served\":1"), "{drain}");
    assert!(drain.contains("\"warm_failover_hits\":1"), "{drain}");
}

#[test]
fn replication_disabled_with_zero_replicas() {
    let fleet = fleet_with(
        3,
        false,
        FleetConfig {
            replicas: 0,
            ..FleetConfig::default()
        },
    );
    let key = routing_key(&ghz_request(21));
    let owner = fleet.shard_for(key).unwrap();
    response_of(fleet.handle_line(&ghz_line(21)));
    assert_eq!(
        fleet.replicate_due(),
        0,
        "nothing is queued without replicas"
    );
    fleet.backends()[owner].kill();
    let resp = response_of(fleet.handle_line(&ghz_line(21)));
    assert!(
        resp.contains("\"cache\":\"cold\""),
        "without replicas a failover recompiles: {resp}"
    );
    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_replicated\":0"), "{drain}");
    assert!(drain.contains("\"warm_failover_hits\":0"), "{drain}");
}

/// A replica target that is down at fill time is backfilled by
/// anti-entropy once the alive set changes — the fill is not lost. The
/// tick only re-queues and releases the key; the push that follows lands
/// it.
#[test]
fn anti_entropy_backfills_replicas_after_revival() {
    let fleet = fleet_with(3, true, FleetConfig::default());
    let key = routing_key(&ghz_request(22));
    let ranking = rendezvous_ranking(key, 3);
    let (owner, second) = (ranking[0], ranking[1]);

    // The natural replica target is dead during the fill.
    fleet.backends()[second].kill();
    fleet.mark_dead(second);
    let cold = response_of(fleet.handle_line(&ghz_line(22)));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");
    assert_eq!(
        fleet.backends()[second]
            .service()
            .metrics()
            .replicated_entries,
        0,
        "a dead shard received nothing"
    );
    // The fill's own push goes to the next live shard down the ranking.
    assert_eq!(fleet.replicate_due(), 1);

    // The tick revives it; the revival re-queues every tracked key and
    // releases it, but the tick itself pushes nothing.
    let report = fleet.tick();
    assert_eq!(report.revived, 1);
    assert_eq!(
        fleet.backends()[second]
            .service()
            .metrics()
            .replicated_entries,
        0,
        "the tick pushes nothing itself"
    );
    assert_eq!(replication_pending(&fleet), 1);
    assert_eq!(fleet.replicate_due(), 1);
    assert_eq!(
        fleet.backends()[second]
            .service()
            .metrics()
            .replicated_entries,
        1,
        "anti-entropy backfilled the revived shard"
    );

    // Now the owner dies: the backfilled replica serves warm.
    fleet.backends()[owner].kill();
    let resp = response_of(fleet.handle_line(&ghz_line(22)));
    assert!(resp.contains("\"cache\":\"warm\""), "{resp}");
}

/// With the chaos drop coin at 1.0 every push is dropped — the response
/// is unaffected, the drop is counted (which is exactly what the chaos
/// soak gates on) and the key waits in `pending`.
#[test]
fn chaos_replication_drop_never_affects_the_response() {
    let fleet = fleet_with(
        3,
        false,
        FleetConfig {
            chaos_replication_drop: 1.0,
            seed: 42,
            ..FleetConfig::default()
        },
    );
    let resp = response_of(fleet.handle_line(&ghz_line(23)));
    assert!(resp.contains("\"cache\":\"cold\""), "{resp}");
    assert_eq!(fleet.replicate_due(), 1);
    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_replicated\":0"), "{drain}");
    assert!(
        drain.contains("\"fleet_replication_drops\":1"),
        "the dropped push is visible: {drain}"
    );
    assert!(drain.contains("\"fleet_replication_pending\":1"), "{drain}");
    assert!(drain.contains("\"fleet_router_panics\":0"), "{drain}");
}

/// An in-process shard that logs the key of every `{"op":"entry"}` fetch
/// it answers. Each replica push starts with one, so the log is the push
/// order.
struct LoggedShard {
    inner: InProcessShard,
    log: Arc<Mutex<Vec<u128>>>,
}

impl ShardBackend for LoggedShard {
    fn send_line(&self, line: &str) -> std::io::Result<String> {
        if let Ok(WireMsg::Entry { key }) = decode_line(line) {
            self.log.lock().unwrap().push(key);
        }
        self.inner.send_line(line)
    }

    fn revive(&self) -> bool {
        self.inner.revive()
    }
}

/// Three revivable [`LoggedShard`]s sharing one log.
fn logged_fleet() -> (Fleet<LoggedShard>, Arc<Mutex<Vec<u128>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let shards = (0..3)
        .map(|_| LoggedShard {
            inner: InProcessShard::new(Arc::new(TranspileService::new(quiet_config()))).revivable(),
            log: Arc::clone(&log),
        })
        .collect();
    (Fleet::new(shards, FleetConfig::default()), log)
}

/// A fleet with its replication thread running, as `qc-fleet` runs it:
/// the cold answer is written before its push starts, and the fill then
/// reaches its replica within a bounded wait, with no tick. A drain stops
/// the thread.
#[test]
fn replication_thread_pushes_a_cold_fill_after_its_answer() {
    let (fleet, log) = logged_fleet();
    let fleet = Arc::new(fleet);
    let replicator = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.run_replication())
    };
    let key = routing_key(&ghz_request(26));
    let replica = rendezvous_ranking(key, 3)[1];
    let replicated = || {
        fleet.backends()[replica]
            .inner
            .service()
            .metrics()
            .replicated_entries
    };

    let cold = response_of(fleet.answer_line(&ghz_line(26), |_| {
        // Writing the answer: the key is not queued yet, so however long
        // the write takes, no push can start.
        std::thread::sleep(Duration::from_millis(50));
        assert!(log.lock().unwrap().is_empty(), "a push began first");
    }));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");

    let deadline = Instant::now() + Duration::from_secs(10);
    while replicated() == 0 || replication_pending(&fleet) > 0 {
        assert!(
            Instant::now() < deadline,
            "the replication thread did not push the fill within 10 s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(*log.lock().unwrap(), vec![key]);
    assert_eq!(replicated(), 1);

    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_replicated\":1"), "{drain}");
    assert!(drain.contains("\"fleet_replication_pending\":0"), "{drain}");
    replicator
        .join()
        .expect("the replication thread returns once a drain starts");
}

/// A released backlog never delays a fresh fill: the push of a fill
/// queued after the tick released a backlog still goes first.
#[test]
fn fresh_fills_are_pushed_ahead_of_a_released_backlog() {
    let (fleet, log) = logged_fleet();
    for salt in [27, 28] {
        response_of(fleet.handle_line(&ghz_line(salt)));
    }
    assert_eq!(fleet.replicate_due(), 2);

    // A shard dies and is revived within one tick: both tracked keys are
    // re-queued and released as a backlog, and nothing is pushed yet.
    fleet.backends()[0].inner.kill();
    log.lock().unwrap().clear();
    assert_eq!(fleet.tick().revived, 1);
    assert!(log.lock().unwrap().is_empty(), "the tick pushes nothing");
    assert_eq!(replication_pending(&fleet), 2);

    let fresh = routing_key(&ghz_request(29));
    let cold = response_of(fleet.handle_line(&ghz_line(29)));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");
    assert_eq!(replication_pending(&fleet), 3);
    assert_eq!(fleet.replicate_due(), 3);
    let order = log.lock().unwrap().clone();
    let backlog = [routing_key(&ghz_request(27)), routing_key(&ghz_request(28))];
    assert_eq!(order.len(), 3, "{order:x?}");
    assert_eq!(order[0], fresh, "the fresh fill goes first: {order:x?}");
    assert!(order[1..].iter().all(|k| backlog.contains(k)), "{order:x?}");
    assert_eq!(replication_pending(&fleet), 0);
}

/// `chaos_partition_every: 1` suppresses every tick wholesale: a dead
/// shard stays dead and no replica is backfilled — the router keeps
/// serving regardless.
#[test]
fn chaos_partition_skips_whole_ticks() {
    let fleet = fleet_with(
        2,
        true,
        FleetConfig {
            chaos_partition_every: 1,
            ..FleetConfig::default()
        },
    );
    fleet.backends()[0].kill();
    fleet.mark_dead(0);
    let report = fleet.tick();
    assert_eq!(report.revived, 0, "a partitioned tick revives nothing");
    assert_eq!(report.alive, 0, "a partitioned tick probes nothing");
    assert_eq!(fleet.alive(), vec![false, true]);
    // Requests still route around the partition.
    let resp = response_of(fleet.handle_line(&ghz_line(24)));
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
}

/// The `entry` op is answered by the key's live owner through the
/// router; `replicate` is shard-direct only and refused at the router.
#[test]
fn entry_op_fetches_and_replicate_is_shard_direct() {
    let fleet = fleet_of(2, false);
    let key = routing_key(&ghz_request(25));
    let probe = qc_serve::wire::encode_entry_request(key);

    let miss = response_of(fleet.handle_line(&probe));
    assert!(miss.contains("\"found\":false"), "{miss}");

    response_of(fleet.handle_line(&ghz_line(25)));
    let hit = response_of(fleet.handle_line(&probe));
    assert!(hit.contains("\"found\":true"), "{hit}");
    assert!(hit.contains("\"record\":\""), "{hit}");

    let refused = response_of(fleet.handle_line("{\"op\":\"replicate\",\"record\":\"00\"}"));
    assert!(
        refused.contains("\"error\"") && refused.contains("shard-direct"),
        "{refused}"
    );
}

#[test]
fn malformed_lines_become_typed_errors_not_panics() {
    let fleet = fleet_of(2, false);
    for bad in ["not json", "{\"op\":\"nope\"}", "{\"id\":\"x\"}", ""] {
        let resp = response_of(fleet.handle_line(bad));
        assert!(
            resp.contains("\"error\"") || resp.contains("invalid"),
            "bad line {bad:?} must yield a typed error line: {resp}"
        );
    }
    // The router is intact afterwards.
    let resp = response_of(fleet.handle_line(&ghz_line(9)));
    assert!(resp.contains("\"cache\":\"cold\""));
}
