//! `qc-serve` — a resilient transpile service around the RPO stack.
//!
//! PR 6 made a *single* transpile fault-tolerant: typed errors, pass
//! quarantine, budgets. This crate makes a *process full of them*
//! resilient. One [`TranspileService`] (shared `&self` across every worker
//! thread) wraps `qc_transpile::preset::transpile` and
//! `rpo_core::transpile_rpo` behind a robustness perimeter:
//!
//! * **Admission control & load shedding** — a bounded queue of compile
//!   permits; requests that cannot get a slot, or whose EWMA-predicted
//!   queue wait already exceeds their deadline, are refused with typed
//!   [`qc_circuit::RpoError::Overloaded`] before any work starts.
//! * **Content-addressed single-flight caching** — identical requests
//!   (canonical circuit bytes + backend + flow + seed + budget class +
//!   disabled passes) share one compile; concurrent duplicates coalesce
//!   onto the in-flight leader. Sampled integrity re-verification
//!   recompiles every Nth warm hit and asserts bit-identical output.
//! * **Retry** — a compile degraded by a quarantined *optional* pass is
//!   recompiled at once with that pass pre-disabled, usually producing a
//!   clean (and cacheable) result.
//! * **Per-pass circuit breakers** — a pass quarantined in K of the last
//!   N requests is pre-disabled process-wide until a cooldown and a
//!   half-open probe show it healthy again.
//! * **Graceful drain** — stop admission, finish in-flight work, report
//!   served/shed/degraded counts and fleet-wide per-pass totals.
//!
//! The `qc-serve` binary front-ends the service with a std-only
//! JSONL-over-stdin/TCP protocol ([`wire`]); the `serve_load` experiment
//! binary drives mixed cold/warm workloads against it.

pub mod breaker;
pub mod cache;
pub mod clock;
pub mod gossip;
pub mod persist;
pub mod service;
pub mod shard;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerRegistry, BreakerState};
pub use cache::{budget_class, cache_key, CacheClass, CompiledEntry, KeyParts, SingleFlightCache};
pub use clock::{Clock, SystemClock, TestClock};
pub use gossip::GossipState;
pub use persist::{ReplayReport, SegmentLog};
pub use service::{
    DrainReport, MetricsSnapshot, PassTotals, ServeConfig, ServeFlow, ServeOk, ServeRequest,
    ServeResponse, TranspileService,
};
pub use shard::{rendezvous_route, Fleet, FleetConfig, InProcessShard, ShardBackend, ShardHealth};
