//! Fleet routing integration tests: rendezvous hashing properties
//! (cross-process determinism via frozen golden values, uniformity,
//! minimal remap) and the router state machine end to end over
//! [`InProcessShard`]s — warm hits landing on the owner, failover of a
//! dead shard's keyspace, typed sheds when no shard is live, revival on
//! tick, breaker gossip replication, and fleet-wide drain.

use qc_backends::Backend;
use qc_circuit::qasm::to_qasm;
use qc_circuit::Circuit;
use qc_serve::shard::{
    rendezvous_ranking, rendezvous_route, routing_key, shard_score, FleetLine, GOSSIP_TTL_ROUNDS,
};
use qc_serve::wire::escape_json;
use qc_serve::{
    BreakerState, Fleet, FleetConfig, InProcessShard, ServeConfig, ServeFlow, ServeRequest,
    TranspileService,
};
use std::sync::Arc;

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

/// Trips `pass`'s breaker on `svc` with genuine local evidence (default
/// breaker config: 3 failures in the window) — `force_open` would mark
/// the open as remote, which gossip deliberately does not re-report.
fn trip_locally(svc: &TranspileService, pass: &str) {
    for _ in 0..3 {
        svc.breakers().record(pass, false);
    }
}

#[test]
fn tick_replicates_breakers_fleet_wide() {
    const PASS: &str = "Optimize1qGates";
    let fleet = fleet_of(2, false);
    trip_locally(fleet.backends()[0].service(), PASS);
    assert_eq!(
        fleet.backends()[1].service().breakers().state(PASS),
        BreakerState::Closed,
        "shard 1 starts clean"
    );

    let report = fleet.tick();
    assert_eq!(report.open, vec![PASS]);
    assert_eq!(
        fleet.backends()[1].service().breakers().state(PASS),
        BreakerState::Open,
        "one shard's open breaker is pushed to its peers within one tick"
    );
}

#[test]
fn gossiped_labels_age_out_after_ttl_rounds() {
    const PASS: &str = "CommutativeCancellation";
    let fleet = fleet_of(1, false);
    let merged =
        response_of(fleet.handle_line(&format!("{{\"op\":\"breakers\",\"open\":\"{PASS}\"}}")));
    assert!(merged.contains(PASS), "{merged}");
    // Nothing re-reports the label (the shard's open is remote-only and
    // deliberately not gossiped back), so it expires after
    // GOSSIP_TTL_ROUNDS.
    fleet.backends()[0].kill();
    for _ in 0..GOSSIP_TTL_ROUNDS + 1 {
        fleet.tick();
    }
    let report = fleet.tick();
    assert!(
        report.open.is_empty(),
        "stale labels must age out: {report:?}"
    );
}

/// The gossip-echo livelock regression: a label pushed to the shards must
/// not be re-reported by them (their opens are remote-only), so with no
/// shard holding local evidence the label ages out of the router's merged
/// set after the TTL — even though every shard's breaker was force-opened
/// by the pushes in the meantime.
#[test]
fn pushed_labels_are_not_echoed_and_age_out_while_shards_stay_alive() {
    const PASS: &str = "Optimize1qGates";
    let fleet = fleet_of(2, false);
    fleet.tick(); // open round 1 so the wire merge below lands inside it
    response_of(fleet.handle_line(&format!("{{\"op\":\"breakers\",\"open\":\"{PASS}\"}}")));
    // The next tick pushes the merged set to both live shards.
    let report = fleet.tick();
    assert_eq!(report.open, vec![PASS]);
    for shard in fleet.backends() {
        assert_eq!(
            shard.service().breakers().state(PASS),
            BreakerState::Open,
            "the push force-opens every shard"
        );
    }
    // No shard has local evidence, so nothing refreshes the TTL: the
    // label must age out despite both shards answering every probe.
    for _ in 0..GOSSIP_TTL_ROUNDS {
        fleet.tick();
    }
    let report = fleet.tick();
    assert!(
        report.open.is_empty(),
        "remote-only opens must not refresh the gossip TTL: {report:?}"
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

    // The fill was pushed inline to the next-ranked shard.
    let replica_svc = fleet.backends()[replica].service();
    assert_eq!(
        replica_svc.metrics().replicated_entries,
        1,
        "the replica admitted the pushed entry"
    );

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

/// A replica target that is down at fill time is backfilled by the tick's
/// anti-entropy once the alive set changes — the fill is not lost.
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

    // The tick revives it; the alive-set change re-queues every tracked
    // key, and anti-entropy pushes the replica within the same tick.
    let report = fleet.tick();
    assert_eq!(report.revived, 1);
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

/// With the chaos drop coin at 1.0 every inline push is dropped — the
/// response is unaffected and the drop is counted, which is exactly what
/// the chaos soak gates on.
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
    let drain = fleet.drain();
    assert!(drain.contains("\"fleet_replicated\":0"), "{drain}");
    assert!(
        drain.contains("\"fleet_replication_drops\":1"),
        "the dropped push is visible: {drain}"
    );
}

/// `chaos_partition_every: 1` suppresses every gossip round wholesale: a
/// dead shard stays dead and breakers stop propagating — the router keeps
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
