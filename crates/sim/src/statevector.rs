//! Exact state-vector simulation.
//!
//! Gate application is routed through the shared kernel engine
//! ([`qc_math::KernelEngine`]): each k-qubit gate costs **O(2ⁿ·4ᵏ)** dense
//! (2ⁿ⁻ᵏ gather/multiply/scatter blocks over precomputed offset tables) and
//! much less for structured gates — diagonal/phase gates touch only the
//! amplitudes they scale, controlled-X and swap gates are pure index
//! permutations over the 2ⁿ⁻ᵏ base indices. There is no skip-scan
//! anywhere: gate kernels, [`Statevector::marginal_one_probability`] and
//! [`Statevector::reset`] all enumerate the 2ⁿ⁻¹ relevant base indices
//! directly instead of filtering all 2ⁿ indices.
//!
//! Whole-circuit runs ([`Statevector::from_circuit`]) go through the gate
//! **fusion planner** ([`qc_circuit::fuse_instructions`]): runs of 1q gates
//! collapse into one 2×2, 1q gates fold into neighboring dense blocks, and
//! — under the planner's state-vector cost profile — neighborhoods of up
//! to three qubits consolidate in-stream: same-pair dense blocks merge
//! into one 4×4, and once the vector outgrows the cache-resident budget
//! (2¹⁶ amplitudes, where passes stream from beyond L2) overlapping 2q/1q
//! neighborhoods grow into single 8×8 sweeps. Deep circuits therefore
//! sweep the amplitude vector far fewer times. Under the `parallel` cargo
//! feature the kernels additionally split large amplitude vectors (≥ 2¹⁶
//! amplitudes) across the vendored scoped-thread pool, with bit-identical
//! results at any thread count.
//!
//! Sampling uses a cumulative-distribution table with binary search:
//! O(2ⁿ + shots·n) instead of the O(shots·2ⁿ) per-shot linear scan.
//!
//! Prefer [`Statevector`] for functional checks (it tracks one column,
//! O(2ⁿ) memory); prefer [`qc_circuit::circuit_unitary`] when the full
//! operator is required (all 2ⁿ columns, O(4ⁿ) memory).

use qc_circuit::{fuse_instructions, schedule_fused, Circuit, FusedInst, Gate, Instruction};
use qc_math::{expand_bits, par_units, KernelEngine, Matrix, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A raw mutable pointer shipped into `par_units` bodies for disjoint
/// element-wise writes (the same aliasing discipline as the kernel
/// engine's buffer spans: each split chunk touches its own indices only).
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

impl<T> SyncPtr<T> {
    /// # Safety
    ///
    /// `i` must be in bounds and not concurrently written by another chunk.
    #[inline]
    unsafe fn write(&self, i: usize, v: T) {
        unsafe { *self.0.add(i) = v }
    }

    /// # Safety
    ///
    /// Same contract as [`SyncPtr::write`]: the returned pointer must only
    /// be used for indices not concurrently touched by another chunk.
    #[inline]
    unsafe fn offset_ptr(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

/// Shard width of the chunked streaming executor: one shard of 2¹⁶
/// amplitudes (1 MiB of `C64`) stays cache-resident, so a run of
/// shard-local fused ops applied shard-by-shard costs one streaming pass
/// over the vector for the *whole run* instead of one per op.
const STREAM_SHARD_QUBITS: usize = 16;

/// Minimum register size for the chunked streaming executor: at least four
/// shards, so the shard loop both amortizes its per-shard engine setup and
/// gives the stealing pool real units to claim. Below it the vector is
/// close to cache-resident and the plain per-op sweeps win.
const STREAM_MIN_QUBITS: usize = STREAM_SHARD_QUBITS + 2;

/// Register size from which the auxiliary sweeps (`probabilities`, the
/// `sample` CDF build, `reset` collapse) split across the kernel pool:
/// n ≥ 20 qubits, where the vector streams from far beyond cache and the
/// sweeps are bandwidth-bound. Below it the sequential loop wins.
const PAR_MIN_SWEEP_AMPS: usize = 1 << 20;

/// `total_elems` value handed to [`par_units`]: saturating for registers
/// past [`PAR_MIN_SWEEP_AMPS`] (split across the pool), zero otherwise
/// (run sequentially regardless of the kernel threshold).
fn sweep_par_elems(amps: usize) -> usize {
    if amps >= PAR_MIN_SWEEP_AMPS {
        usize::MAX
    } else {
        0
    }
}

/// An n-qubit pure state as 2ⁿ complex amplitudes (little-endian basis
/// indexing: bit q of the index is the value of qubit q).
#[derive(Clone, Debug)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<C64>,
    /// Reusable kernel scratch (offset tables, gather buffer); not part of
    /// the state's value.
    engine: KernelEngine,
}

impl PartialEq for Statevector {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.amps == other.amps
    }
}

impl Statevector {
    /// The all-zeros state |0…0⟩.
    pub fn zero_state(num_qubits: usize) -> Self {
        let mut amps = vec![C64::ZERO; 1 << num_qubits];
        amps[0] = C64::ONE;
        Statevector {
            num_qubits,
            amps,
            engine: KernelEngine::new(),
        }
    }

    /// Builds a state from raw amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not 2ⁿ or the norm deviates from 1 by more
    /// than `1e-6`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let norm: f64 = amps.iter().map(|z| z.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state vector must be normalized (norm² = {norm})"
        );
        Statevector {
            num_qubits: amps.len().trailing_zeros() as usize,
            amps,
            engine: KernelEngine::new(),
        }
    }

    /// Runs a circuit on |0…0⟩ and returns the final state. Measurements are
    /// ignored (deferred measurement); resets collapse deterministically via
    /// an internal fixed-seed RNG.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        Self::from_circuit_with_rng(circuit, &mut rng)
    }

    /// Runs a circuit on |0…0⟩ using `rng` for any stochastic collapse
    /// (resets). Unitary stretches between resets/measurements are gate-fused
    /// before application (see [`Statevector::apply_fused`]).
    pub fn from_circuit_with_rng(circuit: &Circuit, rng: &mut impl Rng) -> Self {
        let mut sv = Statevector::zero_state(circuit.num_qubits());
        let insts = circuit.instructions();
        let mut start = 0usize;
        for (i, inst) in insts.iter().enumerate() {
            match inst.gate {
                Gate::Reset => {
                    sv.apply_fused(&insts[start..i]);
                    sv.reset(inst.qubits[0], rng);
                    start = i + 1;
                }
                // Deferred measurement: a no-op, but it bounds the fusion
                // segment (the planner only accepts unitary streams).
                Gate::Measure => {
                    sv.apply_fused(&insts[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        sv.apply_fused(&insts[start..]);
        sv
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes (little-endian indexing).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies one instruction; measurements are no-ops, resets collapse via
    /// `rng`.
    pub fn apply_instruction(&mut self, gate: &Gate, qubits: &[usize], rng: &mut impl Rng) {
        if gate.is_directive() || matches!(gate, Gate::Measure) {
            return;
        }
        if matches!(gate, Gate::Reset) {
            self.reset(qubits[0], rng);
            return;
        }
        self.apply_gate(gate, qubits);
    }

    /// Applies a unitary gate through its structured kernel.
    ///
    /// # Panics
    ///
    /// Panics on non-unitary instructions or qubit-index errors.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        let op = gate
            .kernel()
            .unwrap_or_else(|| panic!("gate {gate} has no unitary kernel"));
        self.engine
            .apply(&mut self.amps, self.num_qubits, &op, qubits);
    }

    /// Applies a unitary instruction stream through the gate-fusion planner:
    /// 1q runs collapse to one 2×2, 1q gates fold into adjacent 2q blocks,
    /// and each fused op makes a single pass over the amplitudes.
    ///
    /// Once the vector outgrows `STREAM_MIN_QUBITS` (18 qubits), the fused plan is
    /// additionally *scheduled* ([`qc_circuit::schedule_fused`]): commuting
    /// fused ops reorder so that ops whose qubits all lie below the shard
    /// bit cluster into runs, and each run is applied one cache-resident
    /// 2¹⁶-amplitude shard at a time — the whole run costs a single
    /// streaming pass over the vector, and the shards double as the
    /// stealing pool's deterministically numbered work units. Shards are
    /// fixed by the register size alone and each shard is processed
    /// identically regardless of which executor claims it, so results stay
    /// bit-identical at every thread count and steal order (they differ
    /// from the *unscheduled* op order only by the commuting reorder's
    /// floating-point roundoff).
    ///
    /// # Panics
    ///
    /// Panics if the stream contains reset or measure; split at those
    /// boundaries first (as [`Statevector::from_circuit_with_rng`] does).
    pub fn apply_fused(&mut self, insts: &[Instruction]) {
        let n = self.num_qubits;
        let mut plan = fuse_instructions(insts, n);
        if n >= STREAM_MIN_QUBITS {
            for g in schedule_fused(&mut plan, STREAM_SHARD_QUBITS) {
                let ops = &plan[g.range()];
                if g.local && g.len >= 2 {
                    Self::apply_sharded(&mut self.amps, ops);
                } else {
                    for fi in ops {
                        self.engine.apply(&mut self.amps, n, &fi.op(), &fi.qubits);
                    }
                }
            }
        } else {
            for fi in &plan {
                self.engine.apply(&mut self.amps, n, &fi.op(), &fi.qubits);
            }
        }
    }

    /// Applies a run of shard-local fused ops one 2¹⁶-amplitude shard at a
    /// time. Every op's qubits lie below the shard bit, so no op mixes
    /// amplitudes across a shard boundary and the per-shard application is
    /// arithmetic-for-arithmetic identical to sweeping the full vector with
    /// each op in turn — while the shard stays cache-resident across the
    /// whole run. Shards are independent, so they split across the stealing
    /// pool as numbered units (bit-identical at any thread count / steal
    /// order).
    fn apply_sharded(amps: &mut [C64], ops: &[FusedInst<'_>]) {
        let shard = 1usize << STREAM_SHARD_QUBITS;
        let shards = amps.len() >> STREAM_SHARD_QUBITS;
        let total = amps.len();
        let base = SyncPtr(amps.as_mut_ptr());
        par_units(shards, total, move |lo, hi| {
            let mut engine = KernelEngine::new();
            for s in lo..hi {
                // SAFETY: shard `s` covers amplitudes
                // `[s·2¹⁶, (s+1)·2¹⁶)` — disjoint across `s`, and chunks
                // cover disjoint shard ranges.
                let slice =
                    unsafe { std::slice::from_raw_parts_mut(base.offset_ptr(s * shard), shard) };
                for fi in ops {
                    engine.apply(slice, STREAM_SHARD_QUBITS, &fi.op(), &fi.qubits);
                }
            }
        });
    }

    /// Applies an arbitrary k-qubit matrix on the given qubits
    /// (little-endian local ordering, matching [`qc_circuit::embed`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension or qubit-index errors.
    pub fn apply_matrix(&mut self, m: &Matrix, qubits: &[usize]) {
        self.engine
            .apply_dense(&mut self.amps, self.num_qubits, m, qubits);
    }

    /// Measurement probabilities for each basis state. The element-wise
    /// map splits across the kernel thread pool for large registers
    /// (each index computed independently — bit-identical at any thread
    /// count).
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.amps.len()];
        let src = &self.amps;
        let dst = SyncPtr(out.as_mut_ptr());
        par_units(src.len(), sweep_par_elems(src.len()), move |lo, hi| {
            for (i, z) in src.iter().enumerate().take(hi).skip(lo) {
                // SAFETY: chunks cover disjoint index ranges.
                unsafe { dst.write(i, z.norm_sqr()) };
            }
        });
        out
    }

    /// Probability of measuring the exact basis state `bits` (little-endian
    /// integer encoding).
    pub fn probability_of(&self, bits: usize) -> f64 {
        self.amps[bits].norm_sqr()
    }

    /// Probability that qubit `q` measures as 1: the 2ⁿ⁻¹ bit-set indices
    /// are enumerated directly via base-index expansion (in increasing
    /// order, so the floating-point sum matches the old filter-scan
    /// bit-for-bit) — no pass over the bit-clear half.
    pub fn marginal_one_probability(&self, q: usize) -> f64 {
        let mask = [1usize << q];
        let half = self.amps.len() >> 1;
        let mut sum = 0.0;
        for b in 0..half {
            sum += self.amps[expand_bits(b, &mask) | mask[0]].norm_sqr();
        }
        sum
    }

    /// Samples `shots` measurement outcomes, returning basis-state counts.
    ///
    /// Builds the cumulative distribution once and binary-searches it per
    /// shot — O(2ⁿ + shots·n) instead of the O(shots·2ⁿ) per-shot linear
    /// scan. The caller's `rng` seeds a base value, and each shot draws
    /// from its own counter-derived stream (`StdRng` seeded with
    /// `base + shot`), so the independent binary searches split across the
    /// kernel thread pool: shot `i`'s outcome depends only on `(base, i)`,
    /// making the counts **bit-identical to the sequential order at any
    /// thread count**.
    pub fn sample(&self, shots: usize, rng: &mut impl Rng) -> HashMap<usize, usize> {
        // The |z|² map is computed in parallel (`probabilities`); the
        // running sum stays sequential so every CDF entry is the same
        // left-to-right float accumulation at any thread count.
        let mut cdf = self.probabilities();
        let mut acc = 0.0f64;
        for p in cdf.iter_mut() {
            acc += *p;
            *p = acc;
        }
        let total = acc; // ≈ 1, up to rounding and the norm tolerance
                         // One draw from the caller's stream derives every per-shot seed.
                         // The seeding SplitMix64 decorrelates consecutive counters, and
                         // the vendored StdRng seeds in four SplitMix64 steps — per-shot
                         // stream setup costs nanoseconds, not a key expansion.
        let base: u64 = rng.next_u64();
        let mut outcomes = vec![0usize; shots];
        let last = cdf.len() - 1;
        {
            let cdf = &cdf;
            let dst = SyncPtr(outcomes.as_mut_ptr());
            // Each shot costs one n-deep binary search; weight the
            // parallel threshold by that depth rather than the shot count
            // alone.
            let elems = shots.saturating_mul(self.num_qubits.max(1));
            par_units(shots, elems, move |lo, hi| {
                for s in lo..hi {
                    let mut shot_rng = StdRng::seed_from_u64(base.wrapping_add(s as u64));
                    let r: f64 = shot_rng.gen::<f64>() * total;
                    let outcome = cdf.partition_point(|&c| c <= r).min(last);
                    // SAFETY: chunks cover disjoint shot ranges.
                    unsafe { dst.write(s, outcome) };
                }
            });
        }
        let mut counts = HashMap::new();
        for outcome in outcomes {
            *counts.entry(outcome).or_insert(0) += 1;
        }
        counts
    }

    /// Projectively resets qubit `q` to |0⟩: measures it (using `rng` to
    /// choose the branch) and applies X if the outcome was 1. One pass over
    /// the 2ⁿ⁻¹ base-index pairs — collapse, renormalization and the
    /// conditional X happen per pair, with no skip-scan.
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        let p1 = self.marginal_one_probability(q);
        let outcome_one = rng.gen::<f64>() < p1;
        let keep_p = if outcome_one { p1 } else { 1.0 - p1 };
        if keep_p <= 0.0 {
            return; // nothing to collapse
        }
        let scale = 1.0 / keep_p.sqrt();
        let mask = [1usize << q];
        let half = self.amps.len() >> 1;
        // Every base-index pair is collapsed independently, so the sweep
        // splits across the kernel thread pool bit-identically.
        let amps = SyncPtr(self.amps.as_mut_ptr());
        par_units(half, sweep_par_elems(2 * half), move |lo, hi| {
            for b in lo..hi {
                let i0 = expand_bits(b, &mask);
                let i1 = i0 | mask[0];
                // SAFETY: distinct b → distinct (i0, i1) pairs; chunks
                // cover disjoint b ranges.
                unsafe {
                    let src = if outcome_one { i1 } else { i0 };
                    amps.write(i0, (*amps.0.add(src)).scale(scale));
                    amps.write(i1, C64::ZERO);
                }
            }
        });
    }
}

/// Converts raw counts into a probability distribution over basis states.
pub fn counts_to_distribution(counts: &HashMap<usize, usize>, dim: usize) -> Vec<f64> {
    let total: usize = counts.values().sum();
    let mut dist = vec![0.0; dim];
    if total == 0 {
        return dist;
    }
    for (&k, &v) in counts {
        dist[k] = v as f64 / total as f64;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::circuit_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_state_probability() {
        let sv = Statevector::zero_state(3);
        assert_eq!(sv.probability_of(0), 1.0);
        assert_eq!(sv.num_qubits(), 3);
    }

    #[test]
    fn x_flips_qubit() {
        let mut c = Circuit::new(2);
        c.x(1);
        let sv = Statevector::from_circuit(&c);
        assert!((sv.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let sv = Statevector::from_circuit(&c);
        assert!((sv.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((sv.probability_of(7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fast_paths_match_generic_matrix_path() {
        // Apply each specialized gate both via apply_gate and via the full
        // dense matrix; results must agree on a random-ish state.
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::Cx, vec![2, 0]),
            (Gate::Cz, vec![1, 2]),
            (Gate::Cp(0.7), vec![0, 2]),
            (Gate::Swap, vec![0, 2]),
            (Gate::Ccx, vec![2, 0, 1]),
            (Gate::Mcx(2), vec![1, 2, 0]),
            (Gate::Mcz(2), vec![0, 1, 2]),
            (Gate::SwapZ, vec![1, 2]),
            (Gate::Cswap, vec![2, 1, 0]),
            (Gate::Cu(Gate::T.matrix().unwrap()), vec![2, 1]),
        ];
        let mut prep = Circuit::new(3);
        prep.h(0).t(0).h(1).s(1).h(2).rx(0.3, 2).cx(0, 1);
        for (gate, qubits) in gates {
            let mut sv1 = Statevector::from_circuit(&prep);
            sv1.apply_gate(&gate, &qubits);
            let mut sv2 = Statevector::from_circuit(&prep);
            let m = gate.matrix().unwrap();
            sv2.apply_matrix(&m, &qubits);
            for (a, b) in sv1.amplitudes().iter().zip(sv2.amplitudes()) {
                assert!(a.approx_eq(*b, 1e-10), "mismatch for {gate}");
            }
        }
    }

    #[test]
    fn statevector_matches_circuit_unitary() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cz(1, 2)
            .u3(0.4, 1.0, -0.2, 2)
            .swap(0, 2);
        let sv = Statevector::from_circuit(&c);
        let u = circuit_unitary(&c);
        let col = u.column(0);
        for (a, b) in sv.amplitudes().iter().zip(&col) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn sampling_statistics() {
        let mut c = Circuit::new(1);
        c.h(0);
        let sv = Statevector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(11);
        let counts = sv.sample(10_000, &mut rng);
        let ones = *counts.get(&1).unwrap_or(&0) as f64;
        assert!((ones / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn reset_collapses_to_zero() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut sv = Statevector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(3);
        sv.reset(0, &mut rng);
        assert!((sv.probability_of(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_on_entangled_pair_collapses_partner() {
        // Bell state; resetting qubit 0 leaves qubit 1 in a definite state.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        for seed in 0..8 {
            let mut sv = Statevector::from_circuit(&c);
            let mut rng = StdRng::seed_from_u64(seed);
            sv.reset(0, &mut rng);
            // Qubit 0 must be |0⟩; qubit 1 must be classical (prob 0 or 1).
            let p0 = sv.marginal_one_probability(0);
            assert!(p0 < 1e-12);
            let p1 = sv.marginal_one_probability(1);
            assert!(p1 < 1e-12 || (p1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn marginal_probability() {
        let mut c = Circuit::new(2);
        c.h(0);
        let sv = Statevector::from_circuit(&c);
        assert!((sv.marginal_one_probability(0) - 0.5).abs() < 1e-12);
        assert!(sv.marginal_one_probability(1) < 1e-12);
    }

    #[test]
    fn counts_to_distribution_normalizes() {
        let mut counts = HashMap::new();
        counts.insert(0, 75);
        counts.insert(3, 25);
        let d = counts_to_distribution(&counts, 4);
        assert!((d[0] - 0.75).abs() < 1e-12);
        assert!((d[3] - 0.25).abs() < 1e-12);
        assert_eq!(d[1], 0.0);
    }

    #[test]
    fn measure_is_noop_for_statevector() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let sv = Statevector::from_circuit(&c);
        assert!((sv.probability_of(0) - 0.5).abs() < 1e-12);
    }
}
