//! Rendezvous-sharded fleet routing.
//!
//! A fleet is N independent `qc-serve` workers (shards) behind one
//! router. Each request is routed on its 128-bit *content* cache key
//! (circuit canonical bytes + backend + flow + seed + budget class — the
//! breaker dimension excluded, so routing never flaps with breaker
//! state): the shard with the highest rendezvous (HRW) score for the key
//! owns it. Rendezvous hashing gives the two properties a cache fleet
//! needs with no coordination state at all:
//!
//! * **Determinism** — every router instance, in every process, ranks the
//!   shards identically for a key, so a key's compile lands on the same
//!   shard's cache every time.
//! * **Minimal remap** — removing one of N shards remaps *only that
//!   shard's* keys (each key just falls to its second-ranked shard);
//!   adding a shard steals ~1/N of the keyspace. No ring, no vnode table.
//!
//! The router health-checks shards on a gossip tick, fails a dead
//! shard's keyspace over to the next-ranked live shard, asks the backend
//! to revive dead shards, and replicates breaker state fleet-wide
//! ([`crate::gossip`]). When no live shard remains for a key the request
//! is refused with a typed [`RpoError::Shed`] — the same contract as
//! single-process overload, so clients need no new error handling.
//!
//! The routing logic is generic over [`ShardBackend`] so the whole
//! failover/gossip state machine is testable in-process
//! ([`InProcessShard`]) — fault injection is thread-local and must fire
//! on the calling thread, which a child process cannot do.

use crate::cache::{budget_class, cache_key, KeyParts};
use crate::gossip::GossipState;
use crate::service::{ServeRequest, TranspileService};
use crate::wire::{
    decode_hex, decode_line, encode_breakers, encode_drain_report, encode_entry_request,
    encode_entry_response, encode_metrics, encode_replicate_request, encode_replicate_response,
    encode_response, escape_json, parse_flat_object, JsonValue, WireMsg,
};
use crate::ServeResponse;
use qc_circuit::{fnv1a_128, RpoError};
use qc_transpile::PassSet;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fires the armed fleet fault, if any (no-op outside the
/// `fault-inject` feature).
#[inline]
fn fault_point(label: &str) {
    #[cfg(feature = "fault-inject")]
    qc_transpile::fault::fire_point(label);
    #[cfg(not(feature = "fault-inject"))]
    let _ = label;
}

/// murmur3's 64-bit finalizer: full avalanche over one word.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// The rendezvous (highest-random-weight) score of `shard` for `key`.
/// Pure function of its inputs — every process computes the same score.
pub fn shard_score(key: u128, shard: u32) -> u128 {
    let mut bytes = [0u8; 20];
    bytes[..16].copy_from_slice(&key.to_le_bytes());
    bytes[16..].copy_from_slice(&shard.to_le_bytes());
    // A fixed non-zero seed decorrelates shard scores from the cache key
    // itself (key bits already went through FNV once).
    let h = fnv1a_128(&bytes, 0x9e37_79b9_7f4a_7c15);
    // FNV-1a alone avalanches the *trailing* shard bytes poorly — small
    // shard indices differ only in a few low input bits, which leaves the
    // per-shard scores nearly ordered by a fixed function of the key and
    // concentrates ~half the keyspace on one index. Two chained fmix64
    // rounds restore full avalanche, making ownership uniform.
    let hi = fmix64((h >> 64) as u64 ^ h as u64);
    let lo = fmix64((h as u64).rotate_left(32) ^ hi);
    ((hi as u128) << 64) | lo as u128
}

/// All `shards` indices ranked by descending score for `key` (ties break
/// toward the lower index, deterministically). `ranking[0]` is the
/// key's owner; `ranking[1]` its failover target; and so on.
pub fn rendezvous_ranking(key: u128, shards: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..shards).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(shard_score(key, i as u32)), i));
    ranked
}

/// The live shard owning `key`: the highest-scoring index whose `alive`
/// flag is set. `None` when every shard is down.
pub fn rendezvous_route(key: u128, alive: &[bool]) -> Option<usize> {
    rendezvous_ranking(key, alive.len())
        .into_iter()
        .find(|&i| alive[i])
}

/// The fleet routing key for a request: the content cache key with the
/// breaker dimension pinned empty, so routing is stable while each
/// shard still folds its *local* breaker state into its own cache keys.
pub fn routing_key(req: &ServeRequest) -> u128 {
    cache_key(&KeyParts {
        circuit: &req.circuit,
        backend: req.backend.name(),
        flow: req.flow.tag(),
        level: req.flow.level(),
        seed: req.seed,
        budget_class: budget_class(req.deadline.map(|d| d.as_millis() as u64)),
        disabled: PassSet::empty(),
    })
}

/// One shard as the router sees it: a line in, a line out. Implementors
/// are shared across router threads, so both methods take `&self`.
pub trait ShardBackend {
    /// Sends one request line and returns the shard's one response line.
    /// An `Err` means the shard is unreachable (dead process, broken
    /// socket) — *not* a request-level error, which travels as a
    /// well-formed error response line.
    fn send_line(&self, line: &str) -> std::io::Result<String>;

    /// Attempts to bring a dead shard back (respawn the process,
    /// reconnect the socket). Returns whether the shard is worth
    /// re-probing. The default backend cannot revive anything.
    fn revive(&self) -> bool {
        false
    }
}

/// Router tuning.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Cache fills pushed to this many next-ranked live shards so a
    /// dead owner's keyspace fails over warm (0 disables replication).
    pub replicas: usize,
    /// Chaos knob: probability in `[0,1]` that any one replication push
    /// is dropped instead of sent (the key stays pending for
    /// anti-entropy). 0.0 in production.
    pub chaos_replication_drop: f64,
    /// Chaos knob: skip every Nth health/gossip tick wholesale — a
    /// simulated gossip partition (0 = never).
    pub chaos_partition_every: u64,
    /// Seed for the chaos drop RNG (deterministic chaos runs).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 1,
            chaos_replication_drop: 0.0,
            chaos_partition_every: 0,
            seed: 0,
        }
    }
}

/// Keys the router has seen filled, for replication bookkeeping. Bounded:
/// beyond [`MAX_TRACKED`] keys the oldest falls off — an un-tracked key
/// just loses anti-entropy coverage, never correctness (the owner still
/// has it, and the next cold fill after a failover re-tracks it).
struct Tracked {
    order: VecDeque<u128>,
    keys: HashSet<u128>,
    /// Keys whose replica push failed (or was chaos-dropped) and should
    /// be retried on the health tick.
    pending: HashSet<u128>,
}

/// Gossip rounds a breaker label stays merged after its last report.
pub const GOSSIP_TTL_ROUNDS: u64 = 3;
/// Upper bound on router-side replication bookkeeping.
const MAX_TRACKED: usize = 4096;
/// Pending replica pushes drained per health tick — bounds tick latency.
const ANTI_ENTROPY_BATCH: usize = 64;

/// One shard's health as tracked by the router.
#[derive(Clone, Copy, Debug)]
pub struct ShardHealth {
    /// Whether the router currently routes to this shard.
    pub alive: bool,
    /// Consecutive failed sends/probes since the last success.
    pub consecutive_failures: u32,
}

/// What one health/gossip tick did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Shards answering their health probe.
    pub alive: usize,
    /// Shards still unreachable after the tick.
    pub dead: usize,
    /// Dead shards the backend revived this tick.
    pub revived: usize,
    /// The merged fleet-open breaker labels after this round.
    pub open: Vec<&'static str>,
}

/// What [`Fleet::handle_line`] resolved to.
pub enum FleetLine {
    /// One response line to write back to the client.
    Response(String),
    /// The client asked to drain: every shard was drained and this is the
    /// aggregated report line. The caller should stop serving.
    Drained(String),
}

/// The sharded router: rendezvous routing, health/failover, gossip.
/// Construct once, share by reference across connection threads.
pub struct Fleet<B> {
    shards: Vec<B>,
    health: Mutex<Vec<ShardHealth>>,
    gossip: Mutex<GossipState>,
    cfg: FleetConfig,
    routed: AtomicU64,
    failovers: AtomicU64,
    shed: AtomicU64,
    router_panics: AtomicU64,
    replicated: AtomicU64,
    replication_drops: AtomicU64,
    failover_served: AtomicU64,
    warm_failover_hits: AtomicU64,
    tracked: Mutex<Tracked>,
    /// The alive set as of the last tick's anti-entropy check; a change
    /// re-queues every tracked key for replica backfill.
    last_alive: Mutex<Vec<bool>>,
    /// xorshift state for the chaos drop coin.
    chaos_rng: AtomicU64,
    ticks: AtomicU64,
}

impl<B: ShardBackend> Fleet<B> {
    /// A fleet over `shards`, all initially presumed alive.
    pub fn new(shards: Vec<B>, cfg: FleetConfig) -> Self {
        let health: Vec<ShardHealth> = shards
            .iter()
            .map(|_| ShardHealth {
                alive: true,
                consecutive_failures: 0,
            })
            .collect();
        let last_alive = health.iter().map(|h| h.alive).collect();
        Fleet {
            shards,
            health: Mutex::new(health),
            gossip: Mutex::new(GossipState::new(GOSSIP_TTL_ROUNDS)),
            routed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            router_panics: AtomicU64::new(0),
            replicated: AtomicU64::new(0),
            replication_drops: AtomicU64::new(0),
            failover_served: AtomicU64::new(0),
            warm_failover_hits: AtomicU64::new(0),
            tracked: Mutex::new(Tracked {
                order: VecDeque::new(),
                keys: HashSet::new(),
                pending: HashSet::new(),
            }),
            last_alive: Mutex::new(last_alive),
            chaos_rng: AtomicU64::new(cfg.seed | 1),
            ticks: AtomicU64::new(0),
            cfg,
        }
    }

    /// Shards in the fleet (alive or not).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The backends themselves (process supervision and tests).
    pub fn backends(&self) -> &[B] {
        &self.shards
    }

    /// A snapshot of per-shard health flags.
    pub fn alive(&self) -> Vec<bool> {
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        health.iter().map(|h| h.alive).collect()
    }

    /// Marks shard `i` dead (tests and external supervisors).
    pub fn mark_dead(&self, i: usize) {
        let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(h) = health.get_mut(i) {
            h.alive = false;
            h.consecutive_failures += 1;
        }
    }

    /// The live shard that currently owns `key`.
    pub fn shard_for(&self, key: u128) -> Option<usize> {
        rendezvous_route(key, &self.alive())
    }

    /// Handles one client line end to end. Never panics — a panic
    /// anywhere in the routing path (including an injected `fleet:*`
    /// fault) becomes a typed internal-error response line.
    pub fn handle_line(&self, line: &str) -> FleetLine {
        match catch_unwind(AssertUnwindSafe(|| self.handle_inner(line))) {
            Ok(out) => out,
            Err(_) => {
                self.router_panics.fetch_add(1, Ordering::Relaxed);
                FleetLine::Response(error_line(
                    "",
                    &RpoError::Internal("fleet router panicked routing the request".into()),
                ))
            }
        }
    }

    fn handle_inner(&self, line: &str) -> FleetLine {
        let msg = match decode_line(line.trim()) {
            Ok(msg) => msg,
            Err(e) => return FleetLine::Response(error_line("", &e)),
        };
        match msg {
            WireMsg::Request(req) => FleetLine::Response(self.route_request(&req, line.trim())),
            WireMsg::Metrics => FleetLine::Response(self.aggregate_metrics()),
            WireMsg::Breakers { open } => {
                let mut gossip = self.gossip.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(open) = open {
                    gossip.merge(open.split(','));
                }
                FleetLine::Response(encode_breakers(&gossip.open()))
            }
            WireMsg::Entry { key } => {
                // Forwarded to the key's live owner, so operators can
                // inspect replication state over the router port.
                let resp = self
                    .shard_for(key)
                    .and_then(|i| self.shards[i].send_line(&encode_entry_request(key)).ok())
                    .unwrap_or_else(|| encode_entry_response(None));
                FleetLine::Response(resp)
            }
            WireMsg::Replicate { .. } => FleetLine::Response(error_line(
                "",
                &RpoError::InvalidInput(
                    "'replicate' is a shard-direct op; the router replicates on its own".into(),
                ),
            )),
            WireMsg::Drain => FleetLine::Drained(self.drain()),
        }
    }

    /// Routes one request to its owner (or, on failure, down the
    /// rendezvous ranking) and relays the shard's response line verbatim.
    fn route_request(&self, req: &ServeRequest, raw_line: &str) -> String {
        fault_point("fleet:route");
        self.routed.fetch_add(1, Ordering::Relaxed);
        let key = routing_key(req);
        let ranking = rendezvous_ranking(key, self.shards.len());
        let mut attempts = 0usize;
        // True once any higher-ranked shard was skipped (known dead) or
        // failed its send: the answering shard is then not the key's
        // owner, i.e. this response is failover-served.
        let mut demoted = false;
        for &i in &ranking {
            if !self.is_alive(i) {
                demoted = true;
                continue;
            }
            if attempts > 0 {
                fault_point("fleet:failover");
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            attempts += 1;
            match self.shards[i].send_line(raw_line) {
                Ok(response) => {
                    self.mark_outcome(i, true);
                    if demoted || attempts > 1 {
                        // A non-owner answered: the warmth ratio of these
                        // responses is the chaos soak's headline assertion
                        // (≥90% warm after a kill).
                        self.failover_served.fetch_add(1, Ordering::Relaxed);
                        if response.contains("\"cache\":\"warm\"") {
                            self.warm_failover_hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if response.contains("\"cache\":\"cold\"") {
                        // A fresh fill on the serving shard: push it to
                        // the key's replica targets right away. Best
                        // effort — a failed (or chaos-dropped, or
                        // panicking) push leaves the key pending for the
                        // tick's anti-entropy, never affects the response.
                        self.track_key(key, true);
                        let pushed = catch_unwind(AssertUnwindSafe(|| self.replicate_key(key)))
                            .unwrap_or(false);
                        if pushed {
                            self.clear_pending(key);
                        }
                    } else if response.contains("\"cache\":\"warm\"") {
                        // Warm on the shard but possibly unknown to this
                        // router (filled before a restart, or restored
                        // from its segment log): track it so anti-entropy
                        // covers it after the next topology change.
                        self.track_key(key, false);
                    }
                    return response;
                }
                Err(_) => {
                    // The owner (or a failover target) died under us: mark
                    // it dead so its whole keyspace fails over until a
                    // tick revives it, then walk down the ranking.
                    self.mark_outcome(i, false);
                }
            }
        }
        self.shed.fetch_add(1, Ordering::Relaxed);
        error_line(
            &req.id,
            &RpoError::Shed {
                reason: "no live shard owns this key (fleet re-warming)".into(),
            },
        )
    }

    /// Remembers `key` as filled somewhere in the fleet; `pending` also
    /// queues it for a replica push on the next tick.
    fn track_key(&self, key: u128, pending: bool) {
        if self.cfg.replicas == 0 {
            return;
        }
        let mut t = self.tracked.lock().unwrap_or_else(|e| e.into_inner());
        if t.keys.insert(key) {
            t.order.push_back(key);
            if t.order.len() > MAX_TRACKED {
                if let Some(old) = t.order.pop_front() {
                    t.keys.remove(&old);
                    t.pending.remove(&old);
                }
            }
        }
        if pending {
            t.pending.insert(key);
        }
    }

    fn clear_pending(&self, key: u128) {
        let mut t = self.tracked.lock().unwrap_or_else(|e| e.into_inner());
        t.pending.remove(&key);
    }

    /// Pushes `key`'s entry from its live owner to the next
    /// `cfg.replicas` live shards in rendezvous order. Returns whether
    /// every due push landed (false ⇒ leave/queue the key as pending).
    fn replicate_key(&self, key: u128) -> bool {
        if self.cfg.replicas == 0 {
            return true;
        }
        fault_point("fleet:replicate");
        let alive = self.alive();
        let ranking = rendezvous_ranking(key, self.shards.len());
        let Some(owner) = ranking.iter().copied().find(|&i| alive[i]) else {
            return false;
        };
        let Ok(resp) = self.shards[owner].send_line(&encode_entry_request(key)) else {
            self.mark_outcome(owner, false);
            return false;
        };
        let Some(record) = entry_response_record(&resp) else {
            // `found:false`: the owner evicted it — nothing to replicate,
            // and retrying would not change that.
            return true;
        };
        let push = encode_replicate_request(&record);
        let mut all_landed = true;
        let mut targets = 0usize;
        for &i in &ranking {
            if i == owner || !alive[i] {
                continue;
            }
            if targets >= self.cfg.replicas {
                break;
            }
            targets += 1;
            if self.chaos_drop() {
                self.replication_drops.fetch_add(1, Ordering::Relaxed);
                all_landed = false;
                continue;
            }
            match self.shards[i].send_line(&push) {
                Ok(_) => {
                    self.replicated.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    self.mark_outcome(i, false);
                    all_landed = false;
                }
            }
        }
        all_landed
    }

    /// The chaos drop coin: a seeded xorshift64* stream, so a chaos soak
    /// with a fixed seed drops the same pushes every run.
    fn chaos_drop(&self) -> bool {
        let p = self.cfg.chaos_replication_drop;
        if p <= 0.0 {
            return false;
        }
        let mut x = self.chaos_rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.chaos_rng.store(x, Ordering::Relaxed);
        let unit = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    fn is_alive(&self, i: usize) -> bool {
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        health[i].alive
    }

    fn mark_outcome(&self, i: usize, ok: bool) {
        let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        if ok {
            health[i].alive = true;
            health[i].consecutive_failures = 0;
        } else {
            health[i].alive = false;
            health[i].consecutive_failures += 1;
        }
    }

    /// One health + gossip round: probe every shard with
    /// `{"op":"breakers"}`, merge the reported open labels, ask the
    /// backend to revive dead shards, then push the merged set to every
    /// live shard. A panic mid-round (an injected `gossip:merge` fault)
    /// abandons the round; the router survives and the next tick retries.
    pub fn tick(&self) -> TickReport {
        match catch_unwind(AssertUnwindSafe(|| self.tick_inner())) {
            Ok(report) => report,
            Err(_) => {
                self.router_panics.fetch_add(1, Ordering::Relaxed);
                TickReport::default()
            }
        }
    }

    fn tick_inner(&self) -> TickReport {
        let mut report = TickReport::default();
        let round = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cfg.chaos_partition_every > 0
            && round.is_multiple_of(self.cfg.chaos_partition_every)
        {
            // Simulated gossip partition: this round never happens. Health
            // state, gossip aging, and anti-entropy all stall one period —
            // the fleet must absorb that without misrouting.
            return report;
        }
        {
            let mut gossip = self.gossip.lock().unwrap_or_else(|e| e.into_inner());
            gossip.begin_round();
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let mut probe = shard.send_line("{\"op\":\"breakers\"}");
            if probe.is_err() && shard.revive() {
                probe = shard.send_line("{\"op\":\"breakers\"}");
                if probe.is_ok() {
                    report.revived += 1;
                }
            }
            match probe {
                Ok(line) => {
                    self.mark_outcome(i, true);
                    report.alive += 1;
                    if let Some(open) = breaker_report_open(&line) {
                        let mut gossip = self.gossip.lock().unwrap_or_else(|e| e.into_inner());
                        gossip.merge(open.split(','));
                    }
                }
                Err(_) => {
                    self.mark_outcome(i, false);
                    report.dead += 1;
                }
            }
        }
        let (payload, open) = {
            let gossip = self.gossip.lock().unwrap_or_else(|e| e.into_inner());
            (gossip.payload(), gossip.open())
        };
        report.open = open;
        if !payload.is_empty() {
            let push = format!(
                "{{\"op\":\"breakers\",\"open\":\"{}\"}}",
                escape_json(&payload)
            );
            for (i, shard) in self.shards.iter().enumerate() {
                if self.is_alive(i) {
                    // A push failure is just a missed round; the probe
                    // side of the next tick will notice a dead shard.
                    let _ = shard.send_line(&push);
                }
            }
        }
        self.anti_entropy(report.revived > 0);
        report
    }

    /// Replica backfill on the health tick: a topology change (death or
    /// revival) re-queues every tracked key — entries admitted before the
    /// change may now live on the wrong replica set — then a bounded
    /// batch of pending keys is re-pushed. `revived` forces the re-queue:
    /// a shard that died and was revived within one tick (or between two
    /// ticks) leaves the alive set looking unchanged, yet came back with
    /// whatever state its restart could recover.
    fn anti_entropy(&self, revived: bool) {
        if self.cfg.replicas == 0 {
            return;
        }
        let alive_now = self.alive();
        {
            let mut last = self.last_alive.lock().unwrap_or_else(|e| e.into_inner());
            if *last != alive_now || revived {
                *last = alive_now;
                let mut t = self.tracked.lock().unwrap_or_else(|e| e.into_inner());
                let keys: Vec<u128> = t.keys.iter().copied().collect();
                t.pending.extend(keys);
            }
        }
        let batch: Vec<u128> = {
            let mut t = self.tracked.lock().unwrap_or_else(|e| e.into_inner());
            let batch: Vec<u128> = t.pending.iter().copied().take(ANTI_ENTROPY_BATCH).collect();
            for key in &batch {
                t.pending.remove(key);
            }
            batch
        };
        for key in batch {
            let pushed =
                catch_unwind(AssertUnwindSafe(|| self.replicate_key(key))).unwrap_or(false);
            if !pushed {
                self.track_key(key, true);
            }
        }
    }

    /// Fans `{"op":"drain"}` out to every shard and aggregates: how many
    /// drained cleanly, how many were already dead. Dead shards are not
    /// an error — their in-flight work died with them.
    pub fn drain(&self) -> String {
        let mut drained = 0usize;
        let mut failed = 0usize;
        for shard in &self.shards {
            match shard.send_line("{\"op\":\"drain\"}") {
                Ok(_) => drained += 1,
                Err(_) => failed += 1,
            }
        }
        format!(
            concat!(
                "{{\"status\":\"drained\",\"shards\":{},\"drained\":{},\"failed\":{},",
                "\"fleet_routed\":{},\"fleet_failovers\":{},\"fleet_shed\":{},",
                "\"fleet_router_panics\":{},\"fleet_replicated\":{},",
                "\"fleet_replication_drops\":{},\"failover_served\":{},",
                "\"warm_failover_hits\":{}}}"
            ),
            self.shards.len(),
            drained,
            failed,
            self.routed.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.router_panics.load(Ordering::Relaxed),
            self.replicated.load(Ordering::Relaxed),
            self.replication_drops.load(Ordering::Relaxed),
            self.failover_served.load(Ordering::Relaxed),
            self.warm_failover_hits.load(Ordering::Relaxed),
        )
    }

    /// Sums every live shard's flat metrics line field-by-field and
    /// appends the router's own counters.
    fn aggregate_metrics(&self) -> String {
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        let mut shards_alive = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.is_alive(i) {
                continue;
            }
            let Ok(line) = shard.send_line("{\"op\":\"metrics\"}") else {
                self.mark_outcome(i, false);
                continue;
            };
            shards_alive += 1;
            if let Ok(map) = parse_flat_object(&line) {
                for (k, v) in map {
                    if k == "status" {
                        continue;
                    }
                    if let Some(n) = v.as_u64() {
                        *sums.entry(k).or_insert(0) += n;
                    }
                }
            }
        }
        let mut out = String::from("{\"status\":\"metrics\"");
        for (k, v) in &sums {
            out.push_str(&format!(",\"{}\":{}", escape_json(k), v));
        }
        out.push_str(&format!(
            concat!(
                ",\"fleet_routed\":{},\"fleet_failovers\":{},\"fleet_shed\":{},",
                "\"fleet_router_panics\":{},\"fleet_replicated\":{},",
                "\"fleet_replication_drops\":{},\"failover_served\":{},",
                "\"warm_failover_hits\":{},\"shards_alive\":{},\"shards_total\":{}}}"
            ),
            self.routed.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.router_panics.load(Ordering::Relaxed),
            self.replicated.load(Ordering::Relaxed),
            self.replication_drops.load(Ordering::Relaxed),
            self.failover_served.load(Ordering::Relaxed),
            self.warm_failover_hits.load(Ordering::Relaxed),
            shards_alive,
            self.shards.len(),
        ));
        out
    }
}

/// Extracts the record bytes from a `{"status":"entry","found":true}`
/// response line (`None` for not-found, malformed, or bad hex).
fn entry_response_record(line: &str) -> Option<Vec<u8>> {
    let map = parse_flat_object(line).ok()?;
    if map.get("status").and_then(JsonValue::as_str) != Some("entry")
        || map.get("found") != Some(&JsonValue::Bool(true))
    {
        return None;
    }
    decode_hex(map.get("record")?.as_str()?).ok()
}

/// Extracts the `open` payload from a `{"status":"breakers",...}` line.
fn breaker_report_open(line: &str) -> Option<String> {
    let map = parse_flat_object(line).ok()?;
    if map.get("status").and_then(JsonValue::as_str) != Some("breakers") {
        return None;
    }
    map.get("open")
        .and_then(JsonValue::as_str)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
}

fn error_line(id: &str, e: &RpoError) -> String {
    encode_response(&ServeResponse {
        id: id.to_string(),
        result: Err(e.clone()),
    })
}

/// Answers one already-decoded wire message against a local service —
/// the single implementation of the per-line protocol shared by the
/// `qc-serve` binary, [`InProcessShard`], and tests. `Drain` is *not*
/// executed here (the binary must also stop its listener); the caller
/// gets [`None`] and owns the drain.
pub fn respond_msg(svc: &TranspileService, msg: WireMsg) -> Option<String> {
    match msg {
        WireMsg::Drain => None,
        WireMsg::Metrics => Some(encode_metrics(&svc.metrics())),
        WireMsg::Breakers { open } => {
            if let Some(open) = open {
                svc.apply_remote_breakers(open.split(',').map(str::trim));
            }
            Some(encode_breakers(&svc.breakers().open_labels()))
        }
        WireMsg::Entry { key } => Some(encode_entry_response(svc.export_entry(key).as_deref())),
        WireMsg::Replicate { record } => Some(match svc.import_entry(&record) {
            Ok(admitted) => encode_replicate_response(admitted),
            Err(e) => error_line("", &e),
        }),
        WireMsg::Request(req) => Some(encode_response(&svc.handle(req))),
    }
}

/// A shard running in this process: the [`ShardBackend`] the fleet tests
/// use so thread-local fault injection fires on the calling thread. The
/// `down` flag simulates a dead process (sends fail until revived);
/// `revivable` controls whether [`ShardBackend::revive`] works.
pub struct InProcessShard {
    svc: Arc<TranspileService>,
    down: AtomicBool,
    revivable: bool,
}

impl InProcessShard {
    /// A live in-process shard over `svc`.
    pub fn new(svc: Arc<TranspileService>) -> Self {
        InProcessShard {
            svc,
            down: AtomicBool::new(false),
            revivable: false,
        }
    }

    /// Marks revive() as able to bring this shard back.
    pub fn revivable(mut self) -> Self {
        self.revivable = true;
        self
    }

    /// Simulates the shard process dying: every send fails until
    /// [`ShardBackend::revive`] succeeds.
    pub fn kill(&self) {
        self.down.store(true, Ordering::SeqCst);
    }

    /// The wrapped service (cache/breaker assertions in tests).
    pub fn service(&self) -> &TranspileService {
        &self.svc
    }
}

impl ShardBackend for InProcessShard {
    fn send_line(&self, line: &str) -> std::io::Result<String> {
        if self.down.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("in-process shard is down"));
        }
        let msg = match decode_line(line.trim()) {
            Ok(msg) => msg,
            Err(e) => return Ok(error_line("", &e)),
        };
        match respond_msg(&self.svc, msg) {
            Some(line) => Ok(line),
            None => Ok(encode_drain_report(&self.svc.drain())),
        }
    }

    fn revive(&self) -> bool {
        if self.revivable {
            self.down.store(false, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_a_permutation_and_deterministic() {
        for key in [0u128, 1, u128::MAX, 0xdead_beef] {
            let r1 = rendezvous_ranking(key, 7);
            let r2 = rendezvous_ranking(key, 7);
            assert_eq!(r1, r2);
            let mut sorted = r1.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn route_skips_dead_shards_in_rank_order() {
        let key = 42u128;
        let ranking = rendezvous_ranking(key, 4);
        let mut alive = vec![true; 4];
        assert_eq!(rendezvous_route(key, &alive), Some(ranking[0]));
        alive[ranking[0]] = false;
        assert_eq!(rendezvous_route(key, &alive), Some(ranking[1]));
        alive.iter_mut().for_each(|a| *a = false);
        assert_eq!(rendezvous_route(key, &alive), None);
    }

    #[test]
    fn breaker_report_open_parses_reports_only() {
        assert_eq!(
            breaker_report_open("{\"status\":\"breakers\",\"open\":\"A,B\"}").as_deref(),
            Some("A,B")
        );
        assert_eq!(
            breaker_report_open("{\"status\":\"breakers\",\"open\":\"\"}"),
            None
        );
        assert_eq!(breaker_report_open("{\"status\":\"metrics\"}"), None);
        assert_eq!(breaker_report_open("not json"), None);
    }
}
