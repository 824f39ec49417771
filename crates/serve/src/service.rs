//! The re-entrant transpile service: every robustness mechanism of the
//! crate composed into one `&self` request path.
//!
//! A request's lifecycle:
//!
//! ```text
//! admission ── shed? ──► typed Overloaded / Shed (never started)
//!     │
//! cache lookup ── warm hit ──► (sampled integrity re-verify) ──► respond
//!     │                ── in-flight ──► coalesce onto the leader ──► respond
//!     │
//! compile (leader) ──► quarantined optional pass? recompile at once
//!     │                with the pass pre-disabled
//!     │
//! record breaker outcomes, aggregate pass stats ──► respond
//! ```
//!
//! Everything is `&self`: one [`TranspileService`] is shared by every
//! worker/connection thread. A panic anywhere in the path is caught at
//! [`TranspileService::handle`] and surfaced as [`RpoError::Internal`] —
//! the process never dies for one request.

use crate::breaker::{BreakerConfig, BreakerRegistry};
use crate::cache::{
    budget_class, cache_key, CacheClass, CompiledEntry, KeyParts, Lookup, SingleFlightCache,
};
use crate::clock::{Clock, SystemClock};
use crate::persist::{ReplayReport, SegmentLog};
use qc_backends::Backend;
use qc_circuit::qasm::to_qasm;
use qc_circuit::{canonical_bytes, Circuit, RpoError};
use qc_transpile::manager::PassStats;
use qc_transpile::preset::{transpile_instrumented, Transpiled};
use qc_transpile::{
    DegradationReport, PassSet, TranspileBudget, TranspileOptions, DISABLEABLE_PASSES,
};
use rpo_core::{transpile_rpo_instrumented, RpoOptions};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Fires the armed serve-perimeter fault, if any (no-op outside the
/// `fault-inject` feature).
#[inline]
fn fault_point(label: &str) {
    #[cfg(feature = "fault-inject")]
    qc_transpile::fault::fire_point(label);
    #[cfg(not(feature = "fault-inject"))]
    let _ = label;
}

/// Which pipeline a request compiles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFlow {
    /// The preset Qiskit-style pipeline at the given optimization level.
    Preset {
        /// Optimization level 0–3.
        level: u8,
    },
    /// The RPO-extended level-3 pipeline (the paper's Fig. 8).
    Rpo,
}

impl ServeFlow {
    /// Wire/cache-key tag.
    pub fn tag(&self) -> &'static str {
        match self {
            ServeFlow::Preset { .. } => "preset",
            ServeFlow::Rpo => "rpo",
        }
    }

    /// The effective optimization level (RPO always extends level 3).
    pub fn level(&self) -> u8 {
        match self {
            ServeFlow::Preset { level } => *level,
            ServeFlow::Rpo => 3,
        }
    }
}

/// One transpile request.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed on the response.
    pub id: String,
    /// The circuit to compile.
    pub circuit: Circuit,
    /// The target device.
    pub backend: Backend,
    /// Pipeline selection.
    pub flow: ServeFlow,
    /// Routing seed.
    pub seed: u64,
    /// End-to-end deadline (queue wait + compile). `None` = unbounded.
    pub deadline: Option<Duration>,
}

/// A successful response body.
#[derive(Clone, Debug)]
pub struct ServeOk {
    /// The output circuit as OpenQASM 2.0.
    pub qasm: String,
    /// Logical→physical qubit map.
    pub final_map: Vec<usize>,
    /// What the guard contained while compiling.
    pub degradation: DegradationReport,
    /// How the cache produced this response.
    pub cache: CacheClass,
    /// Compile attempts beyond the first for this entry.
    pub retries: u32,
    /// Pass labels whose quarantine triggered those retries.
    pub retried_after: Vec<String>,
    /// Passes the circuit breakers had pre-disabled at admission.
    pub breaker_disabled: Vec<String>,
    /// Wall time of the winning compile, nanoseconds.
    pub compile_nanos: u64,
    /// End-to-end request time (queue + cache + compile), nanoseconds.
    pub total_nanos: u64,
    /// Whether this warm hit was integrity-re-verified against a fresh
    /// compile.
    pub verified: bool,
}

/// A response: the request id plus a typed outcome. Errors never escape as
/// panics; [`RpoError::Overloaded`] and [`RpoError::Shed`] mean the
/// request was refused before compilation started.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The request's correlation id.
    pub id: String,
    /// Outcome.
    pub result: Result<ServeOk, RpoError>,
}

/// Service tuning. The defaults suit an interactive process; tests tighten
/// them (no verify sampling, tiny windows) for determinism.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Compiles allowed in flight at once (admission permits).
    pub max_concurrent: usize,
    /// Requests allowed to wait for a permit; beyond this, admission
    /// refuses with [`RpoError::Overloaded`].
    pub queue_capacity: usize,
    /// Completed compile results kept in the cache.
    pub cache_capacity: usize,
    /// Compile retries per request after an optional-pass quarantine.
    pub max_retries: u32,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Re-verify every Nth warm cache hit by recompiling and asserting
    /// bit-identical output (0 disables sampling).
    pub verify_every: u64,
    /// Compact the segment log once it holds this many records written
    /// since the last compaction — after a restart, every record in the
    /// file counts (0 disables the count trigger).
    pub compact_every_records: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            max_retries: 2,
            breaker: BreakerConfig::default(),
            verify_every: 16,
            compact_every_records: 1024,
        }
    }
}

/// Monotonic service counters. All loads are `Relaxed` — the numbers are
/// observability, not synchronization.
#[derive(Default)]
struct Metrics {
    served_ok: AtomicU64,
    served_err: AtomicU64,
    compiles: AtomicU64,
    cache_warm: AtomicU64,
    coalesced: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_drain: AtomicU64,
    shed_deadline: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    integrity_checks: AtomicU64,
    integrity_failures: AtomicU64,
    handler_panics: AtomicU64,
    persist_appends: AtomicU64,
    persist_errors: AtomicU64,
    persist_restored: AtomicU64,
    replicated_entries: AtomicU64,
    compactions: AtomicU64,
    replay_entries: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests answered with a circuit.
    pub served_ok: u64,
    /// Requests answered with a typed error.
    pub served_err: u64,
    /// Actual compile attempts (cache misses × retries).
    pub compiles: u64,
    /// Requests served from a completed cache entry.
    pub cache_warm: u64,
    /// Requests coalesced onto a concurrent identical compile.
    pub coalesced: u64,
    /// Requests refused at admission for load.
    pub shed_overloaded: u64,
    /// Requests refused because the service was draining.
    pub shed_drain: u64,
    /// Requests dropped because their deadline expired while queued.
    pub shed_deadline: u64,
    /// Compile retries across all requests.
    pub retries: u64,
    /// Responses whose degradation report was not clean.
    pub degraded: u64,
    /// Sampled cache-integrity re-verifications performed.
    pub integrity_checks: u64,
    /// Re-verifications that caught a divergent cached entry.
    pub integrity_failures: u64,
    /// Request handlers that panicked (each became a typed error).
    pub handler_panics: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Clean cache fills appended to the persistence segment log.
    pub persist_appends: u64,
    /// Segment-log append failures (the fill still served from memory).
    pub persist_errors: u64,
    /// Entries warm in the cache after startup replay: the
    /// [`ReplayReport::restored`] keys, less any trimmed to the cache
    /// capacity.
    pub persist_restored: u64,
    /// Entries admitted from a peer shard's replication push.
    pub replicated_entries: u64,
    /// Segment-log compactions completed by this process.
    pub compactions: u64,
    /// Distinct keys recovered at startup replay
    /// ([`ReplayReport::restored`], before trimming to the cache
    /// capacity) — the number compaction keeps O(live).
    pub replay_entries: u64,
}

/// Per-pass totals aggregated across every compile of a serve run — the
/// fleet-wide view `pass_timing` prints (one request's [`PassStats`] only
/// covers that request).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTotals {
    /// Executions across all compiles.
    pub runs: usize,
    /// Change-tracking skips (clean passes).
    pub skipped: usize,
    /// Quarantines (the breaker input signal).
    pub quarantined: usize,
    /// Budget-deadline skips.
    pub budget_skips: usize,
    /// Caller/breaker pre-disable skips.
    pub predisabled: usize,
    /// Node rewrites.
    pub rewrites: usize,
    /// Total wall time in this pass.
    pub wall: Duration,
}

/// What [`TranspileService::drain`] reports once the last in-flight
/// request finishes.
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Final counter values.
    pub metrics: MetricsSnapshot,
    /// Aggregated per-pass totals for the whole run, sorted by label.
    pub passes: Vec<(&'static str, PassTotals)>,
    /// Breakers still open/half-open at drain, with trip counts.
    pub breakers: Vec<(String, u64)>,
}

struct Admission {
    active: usize,
    queued: usize,
    draining: bool,
    /// EWMA of compile wall time, nanoseconds (0 until the first sample).
    ewma_nanos: f64,
}

/// The resilient transpile service. Construct once, share by reference
/// across threads; every method takes `&self`.
pub struct TranspileService {
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
    admission: Mutex<Admission>,
    admit_cv: Condvar,
    cache: SingleFlightCache,
    breakers: BreakerRegistry,
    metrics: Metrics,
    pass_totals: Mutex<HashMap<&'static str, PassTotals>>,
    persist: Option<Mutex<SegmentLog>>,
    replay_report: ReplayReport,
}

/// RAII admission permit: released (with a wakeup) even when the request
/// path unwinds.
struct Permit<'a> {
    svc: &'a TranspileService,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.svc.admission.lock().unwrap_or_else(|e| e.into_inner());
        st.active = st.active.saturating_sub(1);
        self.svc.admit_cv.notify_all();
    }
}

impl TranspileService {
    /// A service on the real clock.
    pub fn new(cfg: ServeConfig) -> Self {
        TranspileService::with_clock(cfg, Arc::new(SystemClock::new()))
    }

    /// A service on an injected clock (deterministic breaker/admission
    /// tests).
    pub fn with_clock(cfg: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        TranspileService {
            cfg,
            breakers: BreakerRegistry::new(cfg.breaker, Arc::clone(&clock)),
            clock,
            admission: Mutex::new(Admission {
                active: 0,
                queued: 0,
                draining: false,
                ewma_nanos: 0.0,
            }),
            admit_cv: Condvar::new(),
            cache: SingleFlightCache::new(cfg.cache_capacity),
            metrics: Metrics::default(),
            pass_totals: Mutex::new(HashMap::new()),
            persist: None,
            replay_report: ReplayReport::default(),
        }
    }

    /// A service whose cache is backed by the segment log at `path`: the
    /// log is replayed into the cache (a corrupt tail is truncated, a
    /// version-skewed file invalidated wholesale — see [`crate::persist`])
    /// and every subsequent *clean* cache fill is appended, so a restart
    /// against the same path serves warm-identical hits immediately.
    ///
    /// A panic during replay (disk returning garbage, an injected
    /// `persist:replay` fault) degrades to a cold start on a fresh log —
    /// and if even the fresh log cannot be opened, to running without
    /// persistence at all; persistence failures never prevent the
    /// service from coming up.
    pub fn with_persistence(cfg: ServeConfig, path: &std::path::Path) -> std::io::Result<Self> {
        let mut svc = TranspileService::new(cfg);
        let opened = catch_unwind(AssertUnwindSafe(|| SegmentLog::open(path)));
        let (log, entries, report) = match opened {
            Ok(result) => result?,
            Err(_) => {
                // Replay panicked: discard the file and start cold. The
                // retry is perimetered too — if it also panics (e.g. the
                // remove failed and the same bytes replay again), run
                // without persistence rather than let the panic escape.
                std::fs::remove_file(path).ok();
                let report = ReplayReport {
                    invalidated: true,
                    ..ReplayReport::default()
                };
                match catch_unwind(AssertUnwindSafe(|| SegmentLog::open(path))) {
                    Ok(Ok((log, _, _))) => (log, Vec::new(), report),
                    Ok(Err(_)) | Err(_) => {
                        svc.replay_report = report;
                        return Ok(svc);
                    }
                }
            }
        };
        // `entries` holds distinct keys in file order (a key's first
        // record won); keep the last `cache_capacity` of them.
        let skip = entries.len().saturating_sub(cfg.cache_capacity);
        let mut retained = std::collections::HashSet::new();
        for (key, entry) in entries.into_iter().skip(skip) {
            retained.insert(key);
            svc.cache.insert(key, entry);
        }
        svc.metrics
            .persist_restored
            .store(retained.len() as u64, Ordering::Relaxed);
        svc.metrics
            .replay_entries
            .store(report.restored as u64, Ordering::Relaxed);
        svc.replay_report = report;
        svc.persist = Some(Mutex::new(log));
        Ok(svc)
    }

    /// What persistence replay recovered at construction (zeros for a
    /// service without persistence).
    pub fn replay_report(&self) -> ReplayReport {
        self.replay_report
    }

    /// Appends a clean fill to the segment log, if persistence is on.
    /// Append failures are counted, not surfaced — the in-memory fill
    /// already succeeded and must still serve.
    fn persist_fill(&self, key: u128, entry: &CompiledEntry) {
        let Some(log) = &self.persist else { return };
        if !entry.degradation.is_clean() {
            return;
        }
        let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
        match log.append(key, entry) {
            Ok(()) => {
                self.metrics.persist_appends.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_compact(&mut log);
    }

    /// Compacts the log when a trigger threshold is crossed. Perimetered:
    /// a compaction failure (or an injected `persist:compact:*` panic) is
    /// counted and the fill still serves — the log keeps appending to
    /// whichever complete file the interruption left in place.
    fn maybe_compact(&self, log: &mut SegmentLog) {
        /// Compact once the records since the last compaction pass this
        /// many bytes, whatever their count.
        const COMPACT_MIN_BYTES: u64 = 8 << 20;
        let due = (self.cfg.compact_every_records > 0
            && log.tail_records() >= self.cfg.compact_every_records)
            || log.tail_bytes() >= COMPACT_MIN_BYTES;
        if !due {
            return;
        }
        let live = self.cache.entries();
        match catch_unwind(AssertUnwindSafe(|| log.compact(&live))) {
            Ok(Ok(())) => {
                self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Err(_)) | Err(_) => {
                self.metrics.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Serializes the cached entry for `key` as a self-verifying framed
    /// record — what the router ships to the key's replica shard. `None`
    /// when the key is not (or no longer) cached here.
    pub fn export_entry(&self, key: u128) -> Option<Vec<u8>> {
        let entry = self.cache.peek(key)?;
        Some(crate::persist::encode_record(key, &entry))
    }

    /// Admits a replicated record from a peer shard: verifies the framing
    /// checksum, decodes, inserts (never displacing an in-flight fill),
    /// and persists it so the replica restarts warm too. Returns whether
    /// the entry was newly admitted (`false` = already cached).
    pub fn import_entry(&self, record: &[u8]) -> Result<bool, RpoError> {
        let (key, entry) = crate::persist::decode_record(record)?;
        if self.cache.peek(key).is_some() {
            return Ok(false);
        }
        let entry = Arc::new(entry);
        self.cache.insert(key, Arc::clone(&entry));
        self.metrics
            .replicated_entries
            .fetch_add(1, Ordering::Relaxed);
        self.persist_fill(key, &entry);
        Ok(true)
    }

    /// Handles one request end to end. Never panics: a panic anywhere in
    /// the path becomes [`RpoError::Internal`] on the response.
    pub fn handle(&self, req: ServeRequest) -> ServeResponse {
        let id = req.id.clone();
        let result = match catch_unwind(AssertUnwindSafe(|| self.handle_inner(req))) {
            Ok(r) => r,
            Err(payload) => {
                self.metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
                Err(RpoError::Internal(format!(
                    "request handler panicked: {}",
                    panic_message(&*payload)
                )))
            }
        };
        match &result {
            Ok(ok) => {
                self.metrics.served_ok.fetch_add(1, Ordering::Relaxed);
                if !ok.degradation.is_clean() {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.metrics.served_err.fetch_add(1, Ordering::Relaxed);
            }
        }
        ServeResponse { id, result }
    }

    fn handle_inner(&self, req: ServeRequest) -> Result<ServeOk, RpoError> {
        let t_start = self.clock.now_nanos();
        let deadline_nanos = req
            .deadline
            .map(|d| t_start.saturating_add(d.as_nanos() as u64));

        fault_point("serve:admission");
        let _permit = self.admit(deadline_nanos)?;

        fault_point("serve:cache");
        let breaker_disabled = self.breakers.admission_set();
        let key = cache_key(&KeyParts {
            circuit: &req.circuit,
            backend: req.backend.name(),
            flow: req.flow.tag(),
            level: req.flow.level(),
            seed: req.seed,
            budget_class: budget_class(req.deadline.map(|d| d.as_millis() as u64)),
            disabled: breaker_disabled,
        });

        let (entry, class, verified) = match self.cache.lookup(key) {
            Lookup::Hit(entry) => {
                let hit_no = self.metrics.cache_warm.fetch_add(1, Ordering::Relaxed) + 1;
                let (entry, verified) = self.maybe_verify(&req, entry, key, hit_no)?;
                (entry, CacheClass::Warm, verified)
            }
            Lookup::Follow(flight) => {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                (self.cache.wait(&flight)?, CacheClass::Coalesced, false)
            }
            Lookup::Lead(leader) => {
                let outcome = self.compile_with_retry(&req, breaker_disabled, deadline_nanos);
                leader.complete(outcome.clone());
                let entry = outcome?;
                self.persist_fill(key, &entry);
                (entry, CacheClass::Cold, false)
            }
        };

        fault_point("serve:response");
        Ok(ServeOk {
            qasm: entry.qasm.clone(),
            final_map: entry.final_map.clone(),
            degradation: entry.degradation.clone(),
            cache: class,
            retries: entry.retries,
            retried_after: entry.retried_after.clone(),
            breaker_disabled: breaker_disabled.iter().map(str::to_string).collect(),
            compile_nanos: entry.compile_nanos,
            total_nanos: self.clock.now_nanos().saturating_sub(t_start),
            verified,
        })
    }

    /// Admission control: returns a permit, or the typed refusal.
    fn admit(&self, deadline_nanos: Option<u64>) -> Result<Permit<'_>, RpoError> {
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        if st.draining {
            self.metrics.shed_drain.fetch_add(1, Ordering::Relaxed);
            return Err(RpoError::Shed {
                reason: "service is draining".into(),
            });
        }
        if st.active < self.cfg.max_concurrent && st.queued == 0 {
            st.active += 1;
            return Ok(Permit { svc: self });
        }
        if st.queued >= self.cfg.queue_capacity {
            self.metrics.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(RpoError::Overloaded {
                queued: st.queued + st.active,
                capacity: self.cfg.queue_capacity,
            });
        }
        // Load shedding: refuse up front when the EWMA-predicted queue
        // wait already spends the request's whole deadline — a request
        // that would time out in the queue only wastes a queue slot.
        if let Some(dl) = deadline_nanos {
            if st.ewma_nanos > 0.0 {
                let workers = self.cfg.max_concurrent.max(1) as f64;
                let predicted_wait = (st.queued as f64 + 1.0) / workers * st.ewma_nanos;
                let now = self.clock.now_nanos() as f64;
                if now + predicted_wait + st.ewma_nanos > dl as f64 {
                    self.metrics.shed_overloaded.fetch_add(1, Ordering::Relaxed);
                    return Err(RpoError::Overloaded {
                        queued: st.queued + st.active,
                        capacity: self.cfg.queue_capacity,
                    });
                }
            }
        }
        st.queued += 1;
        loop {
            if st.draining {
                st.queued -= 1;
                self.admit_cv.notify_all();
                self.metrics.shed_drain.fetch_add(1, Ordering::Relaxed);
                return Err(RpoError::Shed {
                    reason: "service is draining".into(),
                });
            }
            if st.active < self.cfg.max_concurrent {
                st.queued -= 1;
                st.active += 1;
                return Ok(Permit { svc: self });
            }
            match deadline_nanos {
                Some(dl) => {
                    let now = self.clock.now_nanos();
                    if now >= dl {
                        st.queued -= 1;
                        self.admit_cv.notify_all();
                        self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                        return Err(RpoError::Shed {
                            reason: "deadline expired while queued".into(),
                        });
                    }
                    let (guard, _) = self
                        .admit_cv
                        .wait_timeout(st, Duration::from_nanos(dl - now))
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
                None => {
                    st = self.admit_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// One compile attempt, plus up to `max_retries` re-attempts with any
    /// quarantined optional pass pre-disabled. A retry is a local,
    /// deterministic recompile, so it starts at once: there is no
    /// contended resource to back off from.
    fn compile_with_retry(
        &self,
        req: &ServeRequest,
        breaker_disabled: PassSet,
        deadline_nanos: Option<u64>,
    ) -> Result<Arc<CompiledEntry>, RpoError> {
        let mut disabled = breaker_disabled;
        let mut retried_after: Vec<String> = Vec::new();
        let mut retries = 0u32;
        loop {
            let remaining = self.remaining(deadline_nanos)?;
            let (out, stats, nanos) = self.compile_once(req, disabled, remaining)?;
            self.record_outcomes(&out.degradation, &stats, disabled);
            self.aggregate_stats(&stats);
            self.update_ewma(nanos);

            // A quarantined *disableable* pass is worth one retry with the
            // pass pre-disabled: the retry usually comes back clean, and a
            // clean result is cacheable and breaker-friendly.
            let culprits: Vec<String> = out
                .degradation
                .quarantined
                .iter()
                .map(|q| q.pass.clone())
                .filter(|p| PassSet::is_disableable(p) && !disabled.contains(p))
                .collect();
            if !culprits.is_empty() && retries < self.cfg.max_retries {
                retries += 1;
                self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                for pass in culprits {
                    disabled.insert(&pass);
                    retried_after.push(pass);
                }
                continue;
            }

            let qasm = to_qasm(&out.circuit)
                .map_err(|e| RpoError::Internal(format!("output serialization failed: {e:?}")))?;
            return Ok(Arc::new(CompiledEntry {
                circuit: out.circuit,
                qasm,
                final_map: out.final_map,
                degradation: out.degradation,
                compile_nanos: nanos,
                retries,
                retried_after,
                disabled,
            }));
        }
    }

    /// Exactly one compile through the selected pipeline.
    fn compile_once(
        &self,
        req: &ServeRequest,
        disabled: PassSet,
        remaining: Option<Duration>,
    ) -> Result<(Transpiled, Vec<PassStats>, u64), RpoError> {
        fault_point("serve:compile");
        self.metrics.compiles.fetch_add(1, Ordering::Relaxed);
        let mut budget = TranspileBudget::unlimited();
        if let Some(d) = remaining {
            budget = budget.with_deadline(d);
        }
        let t0 = self.clock.now_nanos();
        let (out, stats) = match req.flow {
            ServeFlow::Preset { level } => {
                let opts = TranspileOptions::level(level)
                    .with_seed(req.seed)
                    .with_budget(budget)
                    .with_disabled_passes(disabled);
                transpile_instrumented(&req.circuit, &req.backend, &opts)?
            }
            ServeFlow::Rpo => {
                let mut opts = RpoOptions::new().with_seed(req.seed);
                opts.base = opts.base.with_budget(budget).with_disabled_passes(disabled);
                transpile_rpo_instrumented(&req.circuit, &req.backend, &opts)?
            }
        };
        Ok((out, stats, self.clock.now_nanos().saturating_sub(t0)))
    }

    /// Sampled cache-integrity re-verification: every `verify_every`-th
    /// warm hit on a clean entry recompiles with the entry's exact
    /// recorded pass set (deadline-free, so the recompile is deterministic)
    /// and asserts bit-identical output. A divergent entry is evicted and
    /// the fresh result served.
    fn maybe_verify(
        &self,
        req: &ServeRequest,
        entry: Arc<CompiledEntry>,
        key: u128,
        hit_no: u64,
    ) -> Result<(Arc<CompiledEntry>, bool), RpoError> {
        let sample = self.cfg.verify_every > 0 && hit_no.is_multiple_of(self.cfg.verify_every);
        if !sample || !entry.degradation.is_clean() {
            return Ok((entry, false));
        }
        self.metrics
            .integrity_checks
            .fetch_add(1, Ordering::Relaxed);
        let (fresh, stats, nanos) = self.compile_once(req, entry.disabled, None)?;
        self.aggregate_stats(&stats);
        if canonical_bytes(&fresh.circuit) == canonical_bytes(&entry.circuit) {
            return Ok((entry, true));
        }
        self.metrics
            .integrity_failures
            .fetch_add(1, Ordering::Relaxed);
        self.cache.evict(key);
        let qasm = to_qasm(&fresh.circuit)
            .map_err(|e| RpoError::Internal(format!("output serialization failed: {e:?}")))?;
        Ok((
            Arc::new(CompiledEntry {
                circuit: fresh.circuit,
                qasm,
                final_map: fresh.final_map,
                degradation: fresh.degradation,
                compile_nanos: nanos,
                retries: 0,
                retried_after: Vec::new(),
                disabled: entry.disabled,
            }),
            true,
        ))
    }

    /// Feeds one compile's outcome into the per-pass breakers: a
    /// quarantine is a failure; a pass that ran clean is a success. Passes
    /// this request pre-disabled contribute nothing (they did not run).
    fn record_outcomes(&self, report: &DegradationReport, stats: &[PassStats], disabled: PassSet) {
        for label in DISABLEABLE_PASSES {
            if disabled.contains(label) {
                continue;
            }
            let quarantined = report.quarantined.iter().any(|q| q.pass == label);
            if quarantined {
                self.breakers.record(label, false);
            } else if stats.iter().any(|s| s.name == label && s.runs > 0) {
                self.breakers.record(label, true);
            }
        }
    }

    fn aggregate_stats(&self, stats: &[PassStats]) {
        let mut totals = self.pass_totals.lock().unwrap_or_else(|e| e.into_inner());
        for s in stats {
            let t = totals.entry(s.name).or_default();
            t.runs += s.runs;
            t.skipped += s.skipped;
            t.quarantined += s.quarantined;
            t.budget_skips += s.budget_skips;
            t.predisabled += s.predisabled;
            t.rewrites += s.rewrites;
            t.wall += s.wall;
        }
    }

    fn update_ewma(&self, nanos: u64) {
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        st.ewma_nanos = if st.ewma_nanos == 0.0 {
            nanos as f64
        } else {
            0.8 * st.ewma_nanos + 0.2 * nanos as f64
        };
    }

    fn remaining(&self, deadline_nanos: Option<u64>) -> Result<Option<Duration>, RpoError> {
        match deadline_nanos {
            None => Ok(None),
            Some(dl) => {
                let now = self.clock.now_nanos();
                if now >= dl {
                    self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    Err(RpoError::Shed {
                        reason: "deadline expired before compile".into(),
                    })
                } else {
                    Ok(Some(Duration::from_nanos(dl - now)))
                }
            }
        }
    }

    /// Stops admission, waits for every in-flight and queued request to
    /// resolve, and reports the run's final counters. Idempotent.
    pub fn drain(&self) -> DrainReport {
        let mut st = self.admission.lock().unwrap_or_else(|e| e.into_inner());
        st.draining = true;
        self.admit_cv.notify_all();
        while st.active > 0 || st.queued > 0 {
            st = self.admit_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
        DrainReport {
            metrics: self.metrics(),
            passes: self.pass_report(),
            breakers: self.breakers.tripped(),
        }
    }

    /// Point-in-time counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            served_ok: self.metrics.served_ok.load(Ordering::Relaxed),
            served_err: self.metrics.served_err.load(Ordering::Relaxed),
            compiles: self.metrics.compiles.load(Ordering::Relaxed),
            cache_warm: self.metrics.cache_warm.load(Ordering::Relaxed),
            coalesced: self.metrics.coalesced.load(Ordering::Relaxed),
            shed_overloaded: self.metrics.shed_overloaded.load(Ordering::Relaxed),
            shed_drain: self.metrics.shed_drain.load(Ordering::Relaxed),
            shed_deadline: self.metrics.shed_deadline.load(Ordering::Relaxed),
            retries: self.metrics.retries.load(Ordering::Relaxed),
            degraded: self.metrics.degraded.load(Ordering::Relaxed),
            integrity_checks: self.metrics.integrity_checks.load(Ordering::Relaxed),
            integrity_failures: self.metrics.integrity_failures.load(Ordering::Relaxed),
            handler_panics: self.metrics.handler_panics.load(Ordering::Relaxed),
            breaker_trips: self.breakers.total_trips(),
            persist_appends: self.metrics.persist_appends.load(Ordering::Relaxed),
            persist_errors: self.metrics.persist_errors.load(Ordering::Relaxed),
            persist_restored: self.metrics.persist_restored.load(Ordering::Relaxed),
            replicated_entries: self.metrics.replicated_entries.load(Ordering::Relaxed),
            compactions: self.metrics.compactions.load(Ordering::Relaxed),
            replay_entries: self.metrics.replay_entries.load(Ordering::Relaxed),
        }
    }

    /// Aggregated per-pass totals across every compile so far, sorted by
    /// label.
    pub fn pass_report(&self) -> Vec<(&'static str, PassTotals)> {
        let totals = self.pass_totals.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(&'static str, PassTotals)> =
            totals.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_by_key(|(name, _)| *name);
        out
    }

    /// The breaker registry (read access for front-ends and tests).
    pub fn breakers(&self) -> &BreakerRegistry {
        &self.breakers
    }

    /// Applies gossiped breaker state from a peer shard: each label is
    /// force-opened locally (closed breakers only — see
    /// [`BreakerRegistry::force_open`]), so one shard's quarantine
    /// discovery pre-disables the pass fleet-wide before anyone else pays
    /// for it.
    pub fn apply_remote_breakers<'a>(&self, labels: impl IntoIterator<Item = &'a str>) {
        for label in labels {
            self.breakers.force_open(label);
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
