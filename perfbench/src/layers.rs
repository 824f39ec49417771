//! The per-layer metrics of the traced run. Every traced run reports all of
//! them; a layer that the workload does not exercise reads 0 (README.md
//! lists which workload moves which metric).

use crate::util::{metric, Metric};
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const LAYERS: &[(&str, &str)] = &[
    // TCP hops and the router (fleet-serve).
    ("transport.ms", "ms"),
    ("tcp.direct_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.rank_us", "us"),
    ("generator.lag_ms", "ms"),
    // Replication.
    ("replicate.pushes", "count"),
    ("replicate.ms", "ms"),
    // Wire codec and QASM.
    ("wire.decode_us", "us"),
    ("qasm.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("qasm.emit_us", "us"),
    // Service admission and the cache.
    ("service.ms.warm", "ms"),
    ("service.ms.cold", "ms"),
    ("cache.key_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced", "count"),
    ("cache.verifies", "count"),
    ("shed.count", "count"),
    // Persistence.
    ("persist.appends", "count"),
    ("persist.compactions", "count"),
    ("persist.append_us", "us"),
    // DAG conversion (paper-compile).
    ("dag.from_circuit_us", "us"),
    ("dag.to_circuit_us", "us"),
    ("dag.nodes_routed", "count"),
    ("dag.nodes_out", "count"),
    // Pipeline stages.
    ("unroll.ms", "ms"),
    ("layout.ms", "ms"),
    ("routing.ms", "ms"),
    ("routing.swaps", "count"),
    ("qbo.ms", "ms"),
    ("qbo.rewrites", "count"),
    ("qpo.ms", "ms"),
    ("qpo.rewrites", "count"),
    ("optimize1q.ms", "ms"),
    ("cancellation.ms", "ms"),
    ("consolidate.ms", "ms"),
    ("consolidate.rewrites", "count"),
    ("synth.memo_hit_ratio", "ratio"),
    ("fixpoint.iterations", "count"),
    ("fixpoint.runs", "count"),
    ("fixpoint.skips", "count"),
    ("guard.ms", "ms"),
    // Simulation (the probe of the traced paper-compile run).
    ("fusion.plan_ms", "ms"),
    ("fusion.ops_per_gate", "ratio"),
    ("fusion.streamed_runs", "count"),
    ("kernel.apply_ms", "ms"),
    ("sim.sweeps", "count"),
    ("sim.sample_ms", "ms"),
    ("noise.ms", "ms"),
    // Lazy set-up.
    ("calibration.ms", "ms"),
    ("fleet.spawn_ms", "ms"),
    ("warmup.ms", "ms"),
    // Coverage of the trace itself.
    ("unattributed.frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric, taking `values` where present and 0 elsewhere.
pub fn report(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}
