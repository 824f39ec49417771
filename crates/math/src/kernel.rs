//! In-place k-qubit gate-application kernels.
//!
//! This module is the shared engine behind both the state-vector simulator
//! (`qc-sim`) and circuit-unitary construction (`qc-circuit`): a family of
//! routines that apply a k-qubit gate **in place** to a buffer of 2ⁿ
//! "amplitudes", where each amplitude is either a single scalar (a state
//! vector) or a contiguous row of `row_len` scalars (the rows of a unitary
//! being built, i.e. 2ⁿ stacked column vectors viewed index-major).
//!
//! # Complexity
//!
//! Applying a k-qubit gate to one 2ⁿ-amplitude vector costs **O(2ⁿ·4ᵏ/2ᵏ)**
//! arithmetic in the dense case (2ⁿ⁻ᵏ blocks of 4ᵏ multiply-adds) — and much
//! less for the structured kernels:
//!
//! | kernel               | gates                     | work per vector      |
//! |----------------------|---------------------------|----------------------|
//! | dense k-qubit        | `Unitary`, fallback       | 2ⁿ⁻ᵏ·4ᵏ madds        |
//! | dense 1-qubit        | `H`, `Rx`, `Ry`, `U3`, …  | 2ⁿ⁻¹ 2×2 mults       |
//! | diagonal 1-qubit     | `Z`, `S`, `T`, `Rz`, `U1` | ≤ 2ⁿ scalar mults    |
//! | controlled-1q        | `Cu`                      | 2ⁿ⁻² 2×2 mults       |
//! | phase on all-ones    | `Cz`, `Cp`, `Mcz`         | 2ⁿ⁻ᵏ scalar mults    |
//! | controlled-X         | `X`, `Cx`, `Ccx`, `Mcx`   | 2ⁿ⁻ᵏ swaps           |
//! | swap / permutation   | `Swap`, `SwapZ`, `Cswap`  | ≤ 2ⁿ moves           |
//!
//! Crucially there is **no skip-scan**: instead of iterating all 2ⁿ indices
//! and discarding those with target bits set (`if i & mask != 0 { continue }`),
//! every kernel enumerates the 2ⁿ⁻ᵏ *base indices* directly by inserting
//! zero bits at the target-qubit positions ([`expand_bits`]).
//!
//! In batched (`row_len > 1`) mode every index operation becomes an
//! element-wise pass over contiguous rows, which the compiler autovectorizes
//! and the prefetcher streams — this is what makes kernel-based
//! circuit-unitary construction an order of magnitude faster than
//! embed-then-matmul.
//!
//! # Parallel execution
//!
//! Every kernel's base-index (or row-block) loop is written as a *range
//! body* — a closure over a sub-range of independent work units. A kernel
//! pass that *touches* at least [`PAR_MIN_ELEMS`] scalars has its range
//! split across the vendored scoped-thread pool (`scoped_pool`); passes
//! touching less (including structured ops like a CZ that scale only a
//! quarter of a large buffer) and single-thread configurations run the
//! identical body over the full range on the calling thread, and the
//! pool's workers start only when the first pass crosses the threshold.
//! Because each work unit touches a disjoint index set and performs the
//! same arithmetic in the same order regardless of the split, **results
//! are bit-identical at every thread count**. The thread count is
//! `RPO_THREADS` (else the machine's available parallelism), overridable
//! at runtime with [`set_max_threads`]; `RPO_THREADS=1` keeps every pass on
//! the calling thread.
//!
//! [`KernelEngine`] owns the offset/mask tables so that applying a long
//! gate sequence performs no per-gate heap allocation beyond table growth
//! on the first use of each arity; dense/permutation gather scratch lives
//! on the stack for blocks up to 64 scalars (every 1–3 qubit gate in
//! batched panels up to that width) and in a per-call (per-executor)
//! allocation above that.
//!
//! Qubit ordering matches the rest of the workspace: little-endian, with
//! `qubits[0]` the gate's least-significant local bit.

use crate::complex::C64;
use crate::matrix::Matrix;
use std::marker::PhantomData;

/// The number of executors kernel loops may fan out to: the
/// [`set_max_threads`] override when set, else `RPO_THREADS`, else the
/// machine's available parallelism, clamped to the pool's capacity.
pub use scoped_pool::max_threads as kernel_threads;
pub use scoped_pool::{lock_thread_cap, set_max_threads, set_steal_sequence};

/// Buffers smaller than this many scalars never fan out to the thread pool:
/// below ~1 MiB the split/merge latency exceeds the memory-bound sweep.
pub const PAR_MIN_ELEMS: usize = 1 << 16;

/// Always `None`: the fusion planner's pass cost is a fixed constant of
/// its `FusionProfile`, and nothing is measured at run time. Kept for
/// callers written against the earlier per-process timing probe.
#[doc(hidden)]
pub fn calibrated_cheap_pass_cost() -> Option<f64> {
    None
}

/// Always `None`: the dense-3q weight is a fixed constant of the fusion
/// planner. Kept for callers written against the earlier per-process
/// timing probe.
#[doc(hidden)]
pub fn calibrated_dense3_penalty() -> Option<f64> {
    None
}

/// A gate's action in *local* (gate-qubit) terms, classified for kernel
/// dispatch. Obtained from `qc_circuit::Gate::kernel()`; constructing one
/// never heap-allocates (the dense fallback borrows).
#[derive(Clone, Debug, PartialEq)]
pub enum KernelOp<'a> {
    /// Dense 2×2 on one qubit; row-major `[m00, m01, m10, m11]`.
    OneQ([C64; 4]),
    /// Diagonal 1-qubit gate `diag(d0, d1)`.
    OneQDiag([C64; 2]),
    /// 2×2 unitary on the *last* qubit, controlled on the first
    /// (`qubits = [control, target]`); row-major `[u00, u01, u10, u11]`.
    ControlledOneQ([C64; 4]),
    /// Multiply amplitudes whose gate-qubit bits are *all* 1 by `phase`
    /// (`Cz`, `Cp(λ)`, `Mcz`); symmetric in the qubits.
    PhaseAllOnes(C64),
    /// X on the last qubit, controlled on all earlier qubits being 1
    /// (`X` with zero controls, `Cx`, `Ccx`, `Mcx`).
    ControlledX,
    /// Exchange the gate's two qubits.
    Swap,
    /// An arbitrary permutation of the 2ᵏ local basis states:
    /// state `l` maps to `perm[l]`.
    Permutation(&'static [usize]),
    /// Dense 2ᵏ×2ᵏ fallback (borrowed, e.g. from `Gate::Unitary`).
    Dense(&'a Matrix),
}

/// Applies a row-major 2×2 matrix to a 2-vector on the stack — the
/// allocation-free companion to `Matrix::apply` for the per-instruction
/// single-qubit analyses.
#[inline]
pub fn apply_2x2(m: &[C64; 4], v: &[C64; 2]) -> [C64; 2] {
    [m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1]]
}

/// Multiplies two row-major 2×2 matrices (`a · b`) on the stack.
#[inline]
pub fn mul_2x2(a: &[C64; 4], b: &[C64; 4]) -> [C64; 4] {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

/// Multiplies two 4×4 matrices (`a · b`) without the generic matmul's
/// zero-skip branches — the fusion planner's same-pair block-merge path,
/// where both operands are small dense products.
///
/// # Panics
///
/// Panics if either operand is not 4×4.
pub fn mul_4x4(a: &Matrix, b: &Matrix) -> Matrix {
    assert!(
        a.rows() == 4 && a.cols() == 4 && b.rows() == 4 && b.cols() == 4,
        "mul_4x4 takes 4×4 operands"
    );
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = [C64::ZERO; 16];
    for r in 0..4 {
        let ar = &av[r * 4..r * 4 + 4];
        for c in 0..4 {
            out[r * 4 + c] =
                ar[0] * bv[c] + ar[1] * bv[4 + c] + ar[2] * bv[8 + c] + ar[3] * bv[12 + c];
        }
    }
    Matrix::from_vec(4, 4, out.to_vec())
}

/// Inserts a zero bit at each position in `sorted_masks` (single-bit masks in
/// ascending order), spreading the low bits of `base` across the remaining
/// positions. This is the base-index enumeration primitive: iterating
/// `base ∈ 0..2ⁿ⁻ᵏ` and expanding yields exactly the indices with all k
/// target bits clear, in increasing order.
#[inline]
pub fn expand_bits(base: usize, sorted_masks: &[usize]) -> usize {
    let mut x = base;
    for &m in sorted_masks {
        x = (x & (m - 1)) | ((x & !(m - 1)) << 1);
    }
    x
}

/// A raw shared view of a mutable buffer, passed into [`par_units`] bodies
/// so that statically partitioned executors can reach disjoint elements
/// without slicing through a single `&mut`. The kernels in this module,
/// the simulator's sweeps and `circuit_unitary`'s panel scatter share it.
///
/// # Safety contract
///
/// [`BufPtr::span`] and [`BufPtr::write`] reach the buffer through a raw
/// pointer; callers must guarantee that no two spans or writes live at the
/// same time touch the same element. Every caller satisfies this
/// structurally: work units own disjoint index sets (distinct base indices
/// expand to distinct rows), and units are partitioned across executors
/// without overlap.
#[derive(Clone, Copy, Debug)]
pub struct BufPtr<'a, T> {
    ptr: *mut T,
    len: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: `ptr` points into the buffer that `of` borrowed mutably for
// `'a` (`_buf` holds that borrow), and `len` is a plain count. Moving the
// view to another thread moves mutable access to `T`s, as sending a
// `&mut [T]` would, which `T: Send` allows.
unsafe impl<T: Send> Send for BufPtr<'_, T> {}
// SAFETY: through a shared `BufPtr` every executor mutates (and drops the
// old values of) its own elements only: one `&mut [T]` split across
// threads, sound for `T: Send`. No `&T` is shared between threads, and
// the disjointness is the caller's obligation on every `unsafe` accessor.
unsafe impl<T: Send> Sync for BufPtr<'_, T> {}

impl<'a, T> BufPtr<'a, T> {
    /// A view of `buf`, which stays mutably borrowed while the view lives.
    pub fn of(buf: &'a mut [T]) -> Self {
        BufPtr {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _buf: PhantomData,
        }
    }

    /// A mutable view of elements `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds (checked in debug builds) and must not
    /// overlap any other span or write live at the same time, on this or
    /// any other executor.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the aliasing discipline is the type's documented contract
    pub unsafe fn span(&self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }

    /// Stores `v` in element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds (checked in debug builds), and no span or
    /// write live at the same time may touch element `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) = v }
    }
}

/// Runs `body(lo, hi)` over the unit range `0..units`, splitting it into
/// contiguous chunks across the scoped-thread pool when more than one
/// executor is configured and the kernel touches at least
/// [`PAR_MIN_ELEMS`] scalars (`total_elems`). Otherwise the body runs once
/// over the full range on the calling thread.
///
/// Bodies must make each unit's work element-wise independent of the split
/// so results are bit-identical at every thread count.
#[inline]
pub fn par_units<F: Fn(usize, usize) + Sync>(units: usize, total_elems: usize, body: F) {
    if total_elems >= PAR_MIN_ELEMS {
        scoped_pool::run_chunked(units, body)
    } else {
        body(0, units)
    }
}

/// Reusable engine applying [`KernelOp`]s in place. Holds the offset/mask
/// tables so a gate sequence rebuilds no per-gate index structures beyond
/// table growth on the first use of each arity.
#[derive(Clone, Debug, Default)]
pub struct KernelEngine {
    /// Per-local-state index offsets for the current qubit set (2ᵏ entries).
    offsets: Vec<usize>,
    /// Sorted single-bit masks of the current qubit set (k entries).
    masks: Vec<usize>,
}

impl KernelEngine {
    /// A fresh engine with empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies `op` on `qubits` to a single 2ⁿ-amplitude state vector.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2ⁿ`, a qubit index is out of range or
    /// repeated, or the op's arity disagrees with `qubits.len()`.
    pub fn apply(&mut self, buf: &mut [C64], n: usize, op: &KernelOp<'_>, qubits: &[usize]) {
        assert_eq!(buf.len(), 1usize << n, "state vector length must be 2^{n}");
        self.apply_batched(buf, n, 1, op, qubits);
    }

    /// Applies `op` on `qubits` to 2ⁿ contiguous rows of `row_len` scalars
    /// each — the batched form used to build circuit unitaries, where row r
    /// of the buffer is row r of the matrix (equivalently: the buffer is 2ⁿ
    /// stacked column vectors viewed index-major). The gate mixes *rows*;
    /// every arithmetic step is an element-wise pass over contiguous rows.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2ⁿ·row_len`, `row_len == 0`, a qubit index is
    /// out of range or repeated, or the op's arity disagrees with
    /// `qubits.len()`.
    pub fn apply_batched(
        &mut self,
        buf: &mut [C64],
        n: usize,
        row_len: usize,
        op: &KernelOp<'_>,
        qubits: &[usize],
    ) {
        let dim = 1usize << n;
        assert!(row_len > 0, "row_len must be positive");
        assert_eq!(buf.len(), dim * row_len, "buffer must hold 2^{n} rows");
        for (i, q) in qubits.iter().enumerate() {
            assert!(*q < n, "qubit {q} out of range for {n} qubits");
            assert!(!qubits[i + 1..].contains(q), "duplicate qubit {q}");
        }
        match op {
            KernelOp::OneQ(m) => {
                assert_eq!(qubits.len(), 1, "OneQ takes one qubit");
                apply_1q(buf, row_len, qubits[0], m);
            }
            KernelOp::OneQDiag(d) => {
                assert_eq!(qubits.len(), 1, "OneQDiag takes one qubit");
                apply_1q_diag(buf, row_len, qubits[0], d);
            }
            KernelOp::ControlledOneQ(u) => {
                assert_eq!(qubits.len(), 2, "ControlledOneQ takes two qubits");
                apply_controlled_1q(buf, row_len, qubits[0], qubits[1], u);
            }
            KernelOp::PhaseAllOnes(phase) => {
                assert!(!qubits.is_empty(), "PhaseAllOnes takes at least one qubit");
                self.set_masks(qubits);
                let masks = self.masks.as_slice();
                let full_mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
                let nk = dim >> qubits.len();
                let phase = *phase;
                let bp = BufPtr::of(buf);
                par_units(nk, nk * row_len, move |lo, hi| {
                    for b in lo..hi {
                        let i = expand_bits(b, masks) | full_mask;
                        // SAFETY: distinct b → distinct i; rows are disjoint.
                        scale_row(unsafe { bp.span(i * row_len, row_len) }, phase);
                    }
                });
            }
            KernelOp::ControlledX => {
                assert!(!qubits.is_empty(), "ControlledX takes at least one qubit");
                self.set_masks(qubits);
                let masks = self.masks.as_slice();
                let (&target, controls) = qubits.split_last().expect("nonempty");
                let ctrl_mask: usize = controls.iter().map(|&q| 1usize << q).sum();
                let tmask = 1usize << target;
                let nk = dim >> qubits.len();
                let bp = BufPtr::of(buf);
                par_units(nk, 2 * nk * row_len, move |lo, hi| {
                    for b in lo..hi {
                        let i = expand_bits(b, masks) | ctrl_mask;
                        let j = i | tmask;
                        // SAFETY: i ≠ j and distinct b give disjoint rows.
                        unsafe {
                            bp.span(i * row_len, row_len)
                                .swap_with_slice(bp.span(j * row_len, row_len));
                        }
                    }
                });
            }
            KernelOp::Swap => {
                assert_eq!(qubits.len(), 2, "Swap takes two qubits");
                self.set_masks(qubits);
                let masks = self.masks.as_slice();
                let (ma, mb) = (1usize << qubits[0], 1usize << qubits[1]);
                let nk = dim >> 2;
                let bp = BufPtr::of(buf);
                par_units(nk, 2 * nk * row_len, move |lo, hi| {
                    for b in lo..hi {
                        let base = expand_bits(b, masks);
                        let (i, j) = (base | ma, base | mb);
                        // SAFETY: i ≠ j and distinct bases give disjoint rows.
                        unsafe {
                            bp.span(i * row_len, row_len)
                                .swap_with_slice(bp.span(j * row_len, row_len));
                        }
                    }
                });
            }
            KernelOp::Permutation(perm) => {
                let k = qubits.len();
                assert_eq!(perm.len(), 1 << k, "permutation arity mismatch");
                assert!(perm.len() <= 64, "permutation too large");
                self.set_offsets(qubits);
                let masks = self.masks.as_slice();
                let offsets = self.offsets.as_slice();
                // Inverse permutation for cycle-following moves.
                let mut inv = [0usize; 64];
                for (l, &p) in perm.iter().enumerate() {
                    inv[p] = l;
                }
                let nk = dim >> k;
                let bp = BufPtr::of(buf);
                par_units(nk, dim * row_len, move |lo, hi| {
                    // One temporary row per executor: fixed points (e.g. 6 of
                    // 8 states of a Fredkin) cost nothing.
                    let mut stack = [C64::ZERO; 64];
                    let mut heap;
                    let tmp: &mut [C64] = if row_len <= stack.len() {
                        &mut stack[..row_len]
                    } else {
                        heap = vec![C64::ZERO; row_len];
                        heap.as_mut_slice()
                    };
                    for b in lo..hi {
                        let base = expand_bits(b, masks);
                        let mut visited = 0u64;
                        for start in 0..perm.len() {
                            if visited & (1 << start) != 0 || perm[start] == start {
                                continue;
                            }
                            let row_of = |l: usize| (base + offsets[l]) * row_len;
                            // SAFETY: all rows touched by this cycle belong
                            // to base group b, owned by this executor, and
                            // the cycle visits each row once.
                            unsafe {
                                tmp.copy_from_slice(bp.span(row_of(start), row_len));
                                visited |= 1 << start;
                                let mut cur = start;
                                loop {
                                    let prev = inv[cur];
                                    visited |= 1 << prev;
                                    if prev == start {
                                        bp.span(row_of(cur), row_len).copy_from_slice(tmp);
                                        break;
                                    }
                                    bp.span(row_of(cur), row_len)
                                        .copy_from_slice(bp.span(row_of(prev), row_len));
                                    cur = prev;
                                }
                            }
                        }
                    }
                });
            }
            KernelOp::Dense(m) => self.apply_dense_batched(buf, n, row_len, m, qubits),
        }
    }

    /// Applies an arbitrary dense 2ᵏ×2ᵏ matrix on `qubits` to a single
    /// 2ⁿ-amplitude state vector — the general gather/multiply/scatter path
    /// over precomputed offset tables.
    ///
    /// # Panics
    ///
    /// Panics on dimension or qubit-index errors (see [`KernelEngine::apply`]).
    pub fn apply_dense(&mut self, buf: &mut [C64], n: usize, m: &Matrix, qubits: &[usize]) {
        assert_eq!(buf.len(), 1usize << n, "state vector length must be 2^{n}");
        self.apply_dense_batched(buf, n, 1, m, qubits);
    }

    /// Batched form of [`KernelEngine::apply_dense`] (see
    /// [`KernelEngine::apply_batched`] for the row layout).
    ///
    /// # Panics
    ///
    /// Panics on dimension or qubit-index errors.
    pub fn apply_dense_batched(
        &mut self,
        buf: &mut [C64],
        n: usize,
        row_len: usize,
        m: &Matrix,
        qubits: &[usize],
    ) {
        let k = qubits.len();
        assert_eq!(m.rows(), 1 << k, "matrix dimension mismatch");
        assert_eq!(m.cols(), 1 << k, "matrix must be square");
        let dim = 1usize << n;
        assert!(row_len > 0, "row_len must be positive");
        assert_eq!(buf.len(), dim * row_len, "buffer must hold 2^{n} rows");
        for (i, q) in qubits.iter().enumerate() {
            assert!(*q < n, "qubit {q} out of range for {n} qubits");
            assert!(!qubits[i + 1..].contains(q), "duplicate qubit {q}");
        }
        if k == 1 {
            // Register-kernel specialization: no gather/scatter indirection.
            let m2 = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
            apply_1q(buf, row_len, qubits[0], &m2);
            return;
        }
        if k == 2 {
            // Register-kernel specialization for the gate-fusion hot path:
            // the four participating rows are mixed element-wise in one
            // sweep, with no gather/scatter copies at all.
            let mut m4 = [C64::ZERO; 16];
            for (i, v) in m4.iter_mut().enumerate() {
                *v = m[(i >> 2, i & 3)];
            }
            apply_dense_2q(buf, row_len, qubits[0], qubits[1], &m4);
            return;
        }
        if k == 3 {
            // Register-blocked dense-3q kernel for the planner's k≤3 fused
            // blocks: the eight participating rows are mixed element-wise —
            // one read and one write per element instead of the general
            // path's gather/axpy/scatter round trips.
            let mut m8 = Box::new([C64::ZERO; 64]);
            for (i, v) in m8.iter_mut().enumerate() {
                *v = m[(i >> 3, i & 7)];
            }
            apply_dense_3q(buf, row_len, [qubits[0], qubits[1], qubits[2]], &m8);
            return;
        }
        self.set_offsets(qubits);
        let masks = self.masks.as_slice();
        let offsets = self.offsets.as_slice();
        let side = 1usize << k;
        let mat = m.as_slice();
        let nk = dim >> k;
        let bp = BufPtr::of(buf);
        par_units(nk, dim * row_len, move |lo, hi| {
            // Gather scratch, one block per executor: on the stack for
            // blocks up to 64 scalars, else a per-call allocation.
            let mut stack = [C64::ZERO; 64];
            let mut heap;
            let scratch: &mut [C64] = if side * row_len <= stack.len() {
                &mut stack[..side * row_len]
            } else {
                heap = vec![C64::ZERO; side * row_len];
                heap.as_mut_slice()
            };
            if row_len == 1 {
                // State-vector path: gather 2ᵏ scalars, dense multiply,
                // scatter.
                for b in lo..hi {
                    let base = expand_bits(b, masks);
                    // SAFETY: base group b's rows are owned by this executor.
                    unsafe {
                        for (l, &off) in offsets.iter().enumerate() {
                            scratch[l] = *bp.ptr.add(base + off);
                        }
                        for (row, &off) in offsets.iter().enumerate() {
                            let mrow = &mat[row * side..(row + 1) * side];
                            let mut acc = C64::ZERO;
                            for (col, &s) in scratch.iter().enumerate() {
                                acc += mrow[col] * s;
                            }
                            *bp.ptr.add(base + off) = acc;
                        }
                    }
                }
                return;
            }
            for b in lo..hi {
                let base = expand_bits(b, masks);
                // SAFETY: base group b's rows are owned by this executor and
                // distinct offsets address distinct rows.
                unsafe {
                    // Gather the 2ᵏ participating rows.
                    for (l, &off) in offsets.iter().enumerate() {
                        scratch[l * row_len..(l + 1) * row_len]
                            .copy_from_slice(bp.span((base + off) * row_len, row_len));
                    }
                    // Each output row is a coefficient combination of the
                    // gathered rows: contiguous axpy passes.
                    for (row, &off) in offsets.iter().enumerate() {
                        let dst = bp.span((base + off) * row_len, row_len);
                        let mrow = &mat[row * side..(row + 1) * side];
                        dst.fill(C64::ZERO);
                        for (col, &coeff) in mrow.iter().enumerate() {
                            if coeff == C64::ZERO {
                                continue;
                            }
                            axpy(dst, &scratch[col * row_len..(col + 1) * row_len], coeff);
                        }
                    }
                }
            }
        });
    }

    /// Rebuilds `self.masks` (sorted single-bit masks) for `qubits`.
    fn set_masks(&mut self, qubits: &[usize]) {
        self.masks.clear();
        self.masks.extend(qubits.iter().map(|&q| 1usize << q));
        self.masks.sort_unstable();
    }

    /// Rebuilds `self.masks` and the per-local-state offset table
    /// `offsets[l] = Σ_{bit set in l} 2^qubits[bit]`.
    fn set_offsets(&mut self, qubits: &[usize]) {
        self.set_masks(qubits);
        let side = 1usize << qubits.len();
        self.offsets.clear();
        self.offsets.reserve(side);
        for local in 0..side {
            let mut off = 0usize;
            for (bit, &q) in qubits.iter().enumerate() {
                if (local >> bit) & 1 == 1 {
                    off |= 1 << q;
                }
            }
            self.offsets.push(off);
        }
    }
}

/// How wide a SIMD path the host CPU offers for the hot row loops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SimdLevel {
    Scalar,
    Avx2,
    Avx512,
}

/// Detects (once) the best vector extension available. The kernels stay
/// plain scalar Rust; compiling them under `#[target_feature]` lets LLVM
/// autovectorize with AVX2/AVX-512 + FMA, which roughly doubles the dense
/// mix throughput on machines that have them.
fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| {
            if is_x86_feature_detected!("avx512f") {
                SimdLevel::Avx512
            } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Emits `avx2`/`avx512` clones of a scalar loop body plus a dispatching
/// wrapper. The `unsafe` on the feature-gated clones is sound: they are
/// only called after `simd_level()` confirmed the feature, and the bodies
/// themselves are safe code.
macro_rules! simd_dispatch {
    ($dispatch:ident => $inner:ident / $avx2:ident / $avx512:ident, fn($($arg:ident: $ty:ty),* $(,)?)) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $avx2($($arg: $ty),*) {
            $inner($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512($($arg: $ty),*) {
            $inner($($arg),*)
        }

        #[inline]
        fn $dispatch($($arg: $ty),*) {
            match simd_level() {
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx512 => unsafe { $avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { $avx2($($arg),*) },
                _ => $inner($($arg),*),
            }
        }
    };
}

/// Multiplies a contiguous row by a scalar.
#[inline]
fn scale_row(row: &mut [C64], s: C64) {
    for z in row {
        *z *= s;
    }
}

/// Element-wise `dst += coeff · src` over contiguous rows.
#[inline(always)]
fn axpy_inner(dst: &mut [C64], src: &[C64], coeff: C64) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += coeff * *s;
    }
}
simd_dispatch!(axpy => axpy_inner / axpy_avx2 / axpy_avx512,
    fn(dst: &mut [C64], src: &[C64], coeff: C64));

/// Element-wise 2×2 mix of two equal-length runs: `x ← a·x + b·y`,
/// `y ← c·x + d·y`. Serves both state vectors (runs of scalars) and batched
/// rows (runs of whole rows) — the runs are contiguous either way.
#[inline(always)]
fn mix_rows_inner(ri: &mut [C64], rj: &mut [C64], m: &[C64; 4]) {
    let [a, b, c, d] = *m;
    for (x, y) in ri.iter_mut().zip(rj.iter_mut()) {
        let (xv, yv) = (*x, *y);
        *x = a * xv + b * yv;
        *y = c * xv + d * yv;
    }
}
simd_dispatch!(mix_rows => mix_rows_inner / mix_rows_avx2 / mix_rows_avx512,
    fn(ri: &mut [C64], rj: &mut [C64], m: &[C64; 4]));

/// Element-wise 8×8 mix of eight equal-length runs (the dense three-qubit
/// kernel's inner loop): `rₗ ← Σ_c m[l][c]·r_c` per element. One read and
/// one write per element — no gather scratch.
#[inline(always)]
fn mix_rows8_inner(rows: &mut [&mut [C64]; 8], m: &[C64; 64]) {
    let len = rows[0].len();
    debug_assert!(rows.iter().all(|r| r.len() == len));
    // Raw row pointers: eight simultaneously-indexed slices defeat the
    // bounds-check eliminator, and the checks dominate the 8-way mix.
    let mut p = [std::ptr::null_mut::<C64>(); 8];
    for (ptr, row) in p.iter_mut().zip(rows.iter_mut()) {
        *ptr = row.as_mut_ptr();
    }
    for e in 0..len {
        // SAFETY: e < len == every row's length; the rows are disjoint by
        // the caller's (kernel) contract.
        unsafe {
            let v = [
                *p[0].add(e),
                *p[1].add(e),
                *p[2].add(e),
                *p[3].add(e),
                *p[4].add(e),
                *p[5].add(e),
                *p[6].add(e),
                *p[7].add(e),
            ];
            for (r, &ptr) in p.iter().enumerate() {
                let mr = &m[r * 8..r * 8 + 8];
                let mut acc = mr[0] * v[0];
                for (&coeff, &x) in mr.iter().zip(&v).skip(1) {
                    acc += coeff * x;
                }
                *ptr.add(e) = acc;
            }
        }
    }
}

/// Element-wise 4×4 mix of four equal-length runs (the dense two-qubit
/// kernel's inner loop): `rₗ ← Σ_c m[l][c]·r_c` per element. One read and
/// one write per element — no gather scratch.
#[inline(always)]
fn mix_rows4_inner(r0: &mut [C64], r1: &mut [C64], r2: &mut [C64], r3: &mut [C64], m: &[C64; 16]) {
    for (((x0, x1), x2), x3) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
        let v = [*x0, *x1, *x2, *x3];
        *x0 = m[0] * v[0] + m[1] * v[1] + m[2] * v[2] + m[3] * v[3];
        *x1 = m[4] * v[0] + m[5] * v[1] + m[6] * v[2] + m[7] * v[3];
        *x2 = m[8] * v[0] + m[9] * v[1] + m[10] * v[2] + m[11] * v[3];
        *x3 = m[12] * v[0] + m[13] * v[1] + m[14] * v[2] + m[15] * v[3];
    }
}
simd_dispatch!(mix_rows4 => mix_rows4_inner / mix_rows4_avx2 / mix_rows4_avx512,
    fn(r0: &mut [C64], r1: &mut [C64], r2: &mut [C64], r3: &mut [C64], m: &[C64; 16]));

/// Walks pair indices `[lo, hi)` for target qubit `q`, emitting each maximal
/// contiguous run as `(x_start_elem, run_elems)` where the paired y-run
/// begins `2^q · row_len` elements later. Pair index `p = b·2^q + o` maps to
/// row `i = b·2^{q+1} + o` with partner `i + 2^q`.
#[inline]
fn for_each_pair_run(
    lo: usize,
    hi: usize,
    q: usize,
    row_len: usize,
    mut f: impl FnMut(usize, usize),
) {
    let step = 1usize << q;
    let mut p = lo;
    while p < hi {
        let o = p & (step - 1);
        let span = (step - o).min(hi - p);
        let block = p >> q;
        let x_start = ((block << (q + 1)) + o) * row_len;
        f(x_start, span * row_len);
        p += span;
    }
}

/// Dense 2×2 kernel: for every index pair `(i, i | 2^q)`, left-multiplies by
/// `[[a, b], [c, d]]`. Pairs are enumerated as contiguous runs (branch-free
/// block/offset walk), so every mix is one element-wise pass over two
/// equal-length contiguous regions — scalar state vectors and batched rows
/// share the same body.
fn apply_1q(buf: &mut [C64], row_len: usize, q: usize, m: &[C64; 4]) {
    let step = 1usize << q;
    let dim = buf.len() / row_len;
    let pairs = dim >> 1;
    let total = buf.len();
    let bp = BufPtr::of(buf);
    par_units(pairs, total, move |lo, hi| {
        for_each_pair_run(lo, hi, q, row_len, |x_start, run| {
            // SAFETY: x-run and y-run are disjoint (offset < 2^q) and each
            // pair index belongs to exactly one executor.
            unsafe {
                mix_rows(
                    bp.span(x_start, run),
                    bp.span(x_start + step * row_len, run),
                    m,
                );
            }
        });
    });
}

/// Diagonal 1-qubit kernel: multiplies the `bit q = 0` half-runs by `d0` and
/// the `bit q = 1` half-runs by `d1`, skipping unit factors entirely. Runs
/// of consecutive rows are contiguous memory regardless of `row_len`.
fn apply_1q_diag(buf: &mut [C64], row_len: usize, q: usize, d: &[C64; 2]) {
    let step = 1usize << q;
    let [d0, d1] = *d;
    let scale0 = d0 != C64::ONE;
    let scale1 = d1 != C64::ONE;
    if !scale0 && !scale1 {
        return;
    }
    let dim = buf.len() / row_len;
    let pairs = dim >> 1;
    let total = buf.len();
    let bp = BufPtr::of(buf);
    par_units(pairs, total, move |lo, hi| {
        for_each_pair_run(lo, hi, q, row_len, |x_start, run| {
            // SAFETY: disjoint runs, one executor per pair index.
            unsafe {
                if scale0 {
                    scale_row(bp.span(x_start, run), d0);
                }
                if scale1 {
                    scale_row(bp.span(x_start + step * row_len, run), d1);
                }
            }
        });
    });
}

/// Controlled-2×2 kernel: applies `[[a, b], [c, d]]` to the target pair on
/// the 2ⁿ⁻² base indices with the control bit set.
fn apply_controlled_1q(
    buf: &mut [C64],
    row_len: usize,
    control: usize,
    target: usize,
    u: &[C64; 4],
) {
    let cmask = 1usize << control;
    let tmask = 1usize << target;
    let masks = if cmask < tmask {
        [cmask, tmask]
    } else {
        [tmask, cmask]
    };
    let dim = buf.len() / row_len;
    let nk = dim >> 2;
    let total = buf.len() / 2;
    let bp = BufPtr::of(buf);
    let u = *u;
    par_units(nk, total, move |lo, hi| {
        if row_len == 1 {
            let [a, b, c, d] = u;
            for bidx in lo..hi {
                let i = expand_bits(bidx, &masks) | cmask;
                let j = i | tmask;
                // SAFETY: i ≠ j; distinct base indices are disjoint.
                unsafe {
                    let x = *bp.ptr.add(i);
                    let y = *bp.ptr.add(j);
                    *bp.ptr.add(i) = a * x + b * y;
                    *bp.ptr.add(j) = c * x + d * y;
                }
            }
            return;
        }
        for bidx in lo..hi {
            let i = expand_bits(bidx, &masks) | cmask;
            let j = i | tmask;
            // SAFETY: i ≠ j; distinct base indices are disjoint.
            unsafe {
                mix_rows(
                    bp.span(i * row_len, row_len),
                    bp.span(j * row_len, row_len),
                    &u,
                );
            }
        }
    });
}

/// Dense two-qubit kernel: left-multiplies every base-index quadruple
/// `(i, i|2^a, i|2^b, i|2^a|2^b)` by a row-major 4×4 (local index = bit b
/// ·2 + bit a). The rows are mixed element-wise in place ([`mix_rows4`]);
/// unlike the general gather path this touches each element exactly once
/// per read and write, which is what the fused 1q→2q blocks ride on.
fn apply_dense_2q(buf: &mut [C64], row_len: usize, qa: usize, qb: usize, m: &[C64; 16]) {
    let ma = 1usize << qa;
    let mb = 1usize << qb;
    let masks = if ma < mb { [ma, mb] } else { [mb, ma] };
    let dim = buf.len() / row_len;
    let nk = dim >> 2;
    let total = buf.len();
    let bp = BufPtr::of(buf);
    let m = *m;
    par_units(nk, total, move |lo, hi| {
        if row_len == 1 {
            for bidx in lo..hi {
                let base = expand_bits(bidx, &masks);
                // SAFETY: the four indices are distinct and distinct base
                // indices give disjoint quadruples.
                unsafe {
                    let v = [
                        *bp.ptr.add(base),
                        *bp.ptr.add(base | ma),
                        *bp.ptr.add(base | mb),
                        *bp.ptr.add(base | ma | mb),
                    ];
                    *bp.ptr.add(base) = m[0] * v[0] + m[1] * v[1] + m[2] * v[2] + m[3] * v[3];
                    *bp.ptr.add(base | ma) = m[4] * v[0] + m[5] * v[1] + m[6] * v[2] + m[7] * v[3];
                    *bp.ptr.add(base | mb) =
                        m[8] * v[0] + m[9] * v[1] + m[10] * v[2] + m[11] * v[3];
                    *bp.ptr.add(base | ma | mb) =
                        m[12] * v[0] + m[13] * v[1] + m[14] * v[2] + m[15] * v[3];
                }
            }
            return;
        }
        for bidx in lo..hi {
            let base = expand_bits(bidx, &masks);
            // SAFETY: the four rows are distinct and distinct base indices
            // give disjoint quadruples.
            unsafe {
                mix_rows4(
                    bp.span(base * row_len, row_len),
                    bp.span((base | ma) * row_len, row_len),
                    bp.span((base | mb) * row_len, row_len),
                    bp.span((base | ma | mb) * row_len, row_len),
                    &m,
                );
            }
        }
    });
}

/// Dense three-qubit kernel: left-multiplies every base-index octuple by a
/// row-major 8×8 (local index = bit q₂·4 + bit q₁·2 + bit q₀). Like
/// [`apply_dense_2q`], the rows are mixed element-wise in place
/// ([`mix_rows8_inner`]) — one read and one write per element, no gather
/// scratch —
/// which is what the planner's k=3 fused neighborhoods ride on.
fn apply_dense_3q(buf: &mut [C64], row_len: usize, qs: [usize; 3], m: &[C64; 64]) {
    let raw = [1usize << qs[0], 1usize << qs[1], 1usize << qs[2]];
    let mut masks = raw;
    masks.sort_unstable();
    let mut offs = [0usize; 8];
    for (l, off) in offs.iter_mut().enumerate() {
        for (bit, &mask) in raw.iter().enumerate() {
            if (l >> bit) & 1 == 1 {
                *off |= mask;
            }
        }
    }
    let dim = buf.len() / row_len;
    let nk = dim >> 3;
    let total = buf.len();
    let bp = BufPtr::of(buf);
    par_units(nk, total, move |lo, hi| {
        // Dispatch once per span, not per octuple: the whole base-index
        // loop (including the scalar state-vector path) compiles under the
        // detected target features, like the 1q/2q row kernels. The scalar
        // state-vector octuple mix additionally gets a hand-vectorized AVX
        // body (the autovectorizer cannot express the complex
        // multiply-accumulate without reassociating, which would change
        // bits): same arithmetic, same rounding sequence, explicit lanes.
        #[cfg(target_arch = "x86_64")]
        if row_len == 1 && !matches!(simd_level(), SimdLevel::Scalar) {
            // SAFETY: `simd_level()` verified AVX2/AVX-512 support, both
            // supersets of the AVX feature the span requires.
            unsafe { dense3_span_cavx(bp, lo, hi, &masks, &offs, m) };
            return;
        }
        dense3_span(bp, row_len, lo, hi, &masks, &offs, m);
    });
}

/// Hand-vectorized AVX complex octuple mix for the scalar (`row_len == 1`)
/// dense-3q path. Each 256-bit lane holds two interleaved `(re, im)`
/// outputs; one input amplitude is broadcast per column step and mixed with
/// a column-major copy of the 8×8.
///
/// Bit-compatibility with [`dense3_span_inner`]'s scalar walk: per output
/// element the column order (c = 0, 1, …, 7) is unchanged, and each step
/// performs exactly the scalar complex multiply's roundings — two products
/// (`t1`, `t2`), one add/sub combining them, then one add into the
/// accumulator; the first column initializes the accumulator with the bare
/// product just like the scalar `acc = m[r][0]·v[0]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dense3_span_cavx(
    bp: BufPtr<'_, C64>,
    lo: usize,
    hi: usize,
    masks: &[usize; 3],
    offs: &[usize; 8],
    m: &[C64; 64],
) {
    use std::arch::x86_64::*;
    // Column-major copy so each column's eight coefficients load as four
    // contiguous vectors.
    let mut mt = [C64::ZERO; 64];
    for r in 0..8 {
        for c in 0..8 {
            mt[c * 8 + r] = m[r * 8 + c];
        }
    }
    let mtp = mt.as_ptr() as *const f64;
    for bidx in lo..hi {
        let base = expand_bits(bidx, masks);
        // SAFETY: the eight indices are distinct and distinct base indices
        // give disjoint octuples; `C64` is `repr(C)` `(re, im)`, matching
        // the interleaved lane layout.
        unsafe {
            let p = bp.ptr;
            let mut v = [C64::ZERO; 8];
            for (x, &off) in v.iter_mut().zip(offs) {
                *x = *p.add(base + off);
            }
            // acc[k] holds outputs r = 2k, 2k+1.
            let mut acc = [_mm256_setzero_pd(); 4];
            for (c, &x) in v.iter().enumerate() {
                let xr = _mm256_set1_pd(x.re);
                let xi = _mm256_set1_pd(x.im);
                let col = mtp.add(c * 16);
                for (k, a) in acc.iter_mut().enumerate() {
                    let cv = _mm256_loadu_pd(col.add(k * 4));
                    let t1 = _mm256_mul_pd(cv, xr);
                    let t2 = _mm256_mul_pd(_mm256_permute_pd(cv, 0x5), xi);
                    let prod = _mm256_addsub_pd(t1, t2);
                    *a = if c == 0 {
                        prod
                    } else {
                        _mm256_add_pd(*a, prod)
                    };
                }
            }
            let mut out = [C64::ZERO; 8];
            for (k, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(out.as_mut_ptr().add(k * 2) as *mut f64, *a);
            }
            for (&o, &off) in out.iter().zip(offs) {
                *p.add(base + off) = o;
            }
        }
    }
}

/// One executor's span of the dense-3q kernel: applies the 8×8 to every
/// base-index octuple in `[lo, hi)`.
#[inline(always)]
fn dense3_span_inner(
    bp: BufPtr<'_, C64>,
    row_len: usize,
    lo: usize,
    hi: usize,
    masks: &[usize; 3],
    offs: &[usize; 8],
    m: &[C64; 64],
) {
    if row_len == 1 {
        for bidx in lo..hi {
            let base = expand_bits(bidx, masks);
            // SAFETY: the eight indices are distinct and distinct base
            // indices give disjoint octuples.
            unsafe {
                let mut v = [C64::ZERO; 8];
                for (x, &off) in v.iter_mut().zip(offs) {
                    *x = *bp.ptr.add(base + off);
                }
                for (r, &off) in offs.iter().enumerate() {
                    let mr = &m[r * 8..r * 8 + 8];
                    let mut acc = mr[0] * v[0];
                    for (&coeff, &x) in mr.iter().zip(&v).skip(1) {
                        acc += coeff * x;
                    }
                    *bp.ptr.add(base + off) = acc;
                }
            }
        }
        return;
    }
    for bidx in lo..hi {
        let base = expand_bits(bidx, masks);
        // SAFETY: the eight rows are distinct and distinct base indices
        // give disjoint octuples.
        unsafe {
            let mut rows: [&mut [C64]; 8] = [
                bp.span((base + offs[0]) * row_len, row_len),
                bp.span((base + offs[1]) * row_len, row_len),
                bp.span((base + offs[2]) * row_len, row_len),
                bp.span((base + offs[3]) * row_len, row_len),
                bp.span((base + offs[4]) * row_len, row_len),
                bp.span((base + offs[5]) * row_len, row_len),
                bp.span((base + offs[6]) * row_len, row_len),
                bp.span((base + offs[7]) * row_len, row_len),
            ];
            mix_rows8_inner(&mut rows, m);
        }
    }
}
simd_dispatch!(dense3_span => dense3_span_inner / dense3_span_avx2 / dense3_span_avx512,
    fn(bp: BufPtr<'_, C64>, row_len: usize, lo: usize, hi: usize,
       masks: &[usize; 3], offs: &[usize; 8], m: &[C64; 64]));

#[cfg(test)]
mod tests {
    use super::*;

    fn h2() -> [C64; 4] {
        let r = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        [r, r, r, -r]
    }

    /// Reference: embed the op as a full 2ⁿ×2ⁿ matrix and apply densely.
    fn apply_via_embed(op_matrix: &Matrix, qubits: &[usize], v: &[C64]) -> Vec<C64> {
        let dim = v.len();
        let k = qubits.len();
        let mut out = vec![C64::ZERO; dim];
        #[allow(clippy::needless_range_loop)] // `col` is a basis index, not just a `v` position
        for col in 0..dim {
            let mut local = 0usize;
            for (bit, &q) in qubits.iter().enumerate() {
                if (col >> q) & 1 == 1 {
                    local |= 1 << bit;
                }
            }
            let base = qubits.iter().fold(col, |b, &q| b & !(1 << q));
            for lrow in 0..(1 << k) {
                let mut row = base;
                for (bit, &q) in qubits.iter().enumerate() {
                    if (lrow >> bit) & 1 == 1 {
                        row |= 1 << q;
                    }
                }
                out[row] += op_matrix[(lrow, local)] * v[col];
            }
        }
        out
    }

    fn random_state(n: usize, seed: u64) -> Vec<C64> {
        // Deterministic pseudo-random amplitudes (not normalized; kernels are
        // linear so normalization is irrelevant).
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..1 << n).map(|_| C64::new(next(), next())).collect()
    }

    fn assert_close(a: &[C64], b: &[C64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < 1e-12, "kernel mismatch: {x} vs {y}");
        }
    }

    /// Checks an op in both scalar mode and batched mode (rows built from
    /// shifted copies of the state) against the embedding reference.
    fn check_op(op: &KernelOp<'_>, op_matrix: &Matrix, qubits: &[usize], n: usize, seed: u64) {
        let v = random_state(n, seed);
        // Scalar mode.
        let mut got = v.clone();
        KernelEngine::new().apply(&mut got, n, op, qubits);
        let expect = apply_via_embed(op_matrix, qubits, &v);
        assert_close(&got, &expect);
        // Batched mode with row_len 3: three independent columns.
        let cols: [Vec<C64>; 3] = [
            v.clone(),
            random_state(n, seed ^ 0xABCD),
            random_state(n, seed ^ 0x1234),
        ];
        let row_len = 3;
        let mut buf = vec![C64::ZERO; (1 << n) * row_len];
        for (c, col) in cols.iter().enumerate() {
            for r in 0..1 << n {
                buf[r * row_len + c] = col[r];
            }
        }
        KernelEngine::new().apply_batched(&mut buf, n, row_len, op, qubits);
        for (c, col) in cols.iter().enumerate() {
            let got: Vec<C64> = (0..1 << n).map(|r| buf[r * row_len + c]).collect();
            assert_close(&got, &apply_via_embed(op_matrix, qubits, col));
        }
    }

    #[test]
    fn expand_bits_enumerates_clear_positions() {
        // Masks for qubits 1 and 3 of 4: bases must have bits 1,3 clear.
        let masks = [2usize, 8];
        let got: Vec<usize> = (0..4).map(|b| expand_bits(b, &masks)).collect();
        assert_eq!(got, vec![0b0000, 0b0001, 0b0100, 0b0101]);
    }

    #[test]
    fn two_by_two_helpers() {
        let h = h2();
        let v = [C64::new(0.6, 0.1), C64::new(-0.2, 0.7)];
        let hv = apply_2x2(&h, &v);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!((hv[0] - (v[0] + v[1]).scale(r)).norm() < 1e-15);
        let hh = mul_2x2(&h, &h);
        assert!((hh[0] - C64::ONE).norm() < 1e-12 && hh[1].norm() < 1e-12);
    }

    #[test]
    fn pair_run_walk_covers_every_pair_once() {
        // For q=1, row_len=1, pairs 0..6 split at an unaligned boundary.
        let mut seen = Vec::new();
        for (lo, hi) in [(0, 3), (3, 6)] {
            for_each_pair_run(lo, hi, 1, 1, |start, run| {
                for e in 0..run {
                    seen.push(start + e);
                }
            });
        }
        // Pair p = b*2 + o ↦ x index b*4 + o: pairs 0..6 → x rows.
        let mut expect: Vec<usize> = (0..6).map(|p| ((p >> 1) << 2) + (p & 1)).collect();
        seen.sort_unstable();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn one_q_matches_embed_on_every_qubit() {
        let m = h2();
        let mm = Matrix::from_rows(&[vec![m[0], m[1]], vec![m[2], m[3]]]);
        for q in 0..4 {
            check_op(&KernelOp::OneQ(m), &mm, &[q], 4, q as u64);
        }
    }

    #[test]
    fn diag_matches_dense_diag() {
        let d = [C64::ONE, C64::cis(0.7)];
        let mm = Matrix::diag(&d);
        for q in 0..3 {
            check_op(&KernelOp::OneQDiag(d), &mm, &[q], 3, 10 + q as u64);
        }
    }

    #[test]
    fn controlled_1q_matches_embed() {
        let t = [C64::ONE, C64::ZERO, C64::ZERO, C64::cis(0.9)];
        let mut mm = Matrix::identity(4);
        mm[(1, 1)] = t[0];
        mm[(1, 3)] = t[1];
        mm[(3, 1)] = t[2];
        mm[(3, 3)] = t[3];
        for (c, tq) in [(0, 1), (1, 0), (0, 3), (3, 1)] {
            check_op(
                &KernelOp::ControlledOneQ(t),
                &mm,
                &[c, tq],
                4,
                (c * 5 + tq) as u64,
            );
        }
    }

    #[test]
    fn controlled_x_all_orderings() {
        let mut cx = Matrix::zeros(4, 4);
        cx[(0, 0)] = C64::ONE;
        cx[(2, 2)] = C64::ONE;
        cx[(3, 1)] = C64::ONE;
        cx[(1, 3)] = C64::ONE;
        for (c, t) in [(0, 1), (1, 0), (0, 3), (3, 0), (2, 1)] {
            check_op(&KernelOp::ControlledX, &cx, &[c, t], 4, (c * 7 + t) as u64);
        }
    }

    #[test]
    fn phase_all_ones_matches_diag() {
        let phase = C64::cis(1.1);
        let mm = Matrix::diag(&[C64::ONE, C64::ONE, C64::ONE, phase]);
        for (a, b) in [(0, 2), (2, 0), (1, 3)] {
            check_op(
                &KernelOp::PhaseAllOnes(phase),
                &mm,
                &[a, b],
                4,
                (a * 11 + b) as u64,
            );
        }
    }

    #[test]
    fn swap_matches_permutation_matrix() {
        let mut sw = Matrix::zeros(4, 4);
        sw[(0, 0)] = C64::ONE;
        sw[(3, 3)] = C64::ONE;
        sw[(1, 2)] = C64::ONE;
        sw[(2, 1)] = C64::ONE;
        for (a, b) in [(0, 1), (2, 0), (1, 3)] {
            check_op(&KernelOp::Swap, &sw, &[a, b], 4, (a * 13 + b) as u64);
        }
    }

    #[test]
    fn dense_matches_embed_for_2q() {
        // A non-trivial 4×4: H⊗H followed by CZ-like phases.
        let r = C64::real(0.5);
        let mm = Matrix::from_fn(4, 4, |i, j| {
            let sign = if (i & j).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            };
            r.scale(sign) * C64::cis(0.1 * (i * 4 + j) as f64)
        });
        for (a, b) in [(0, 1), (1, 0), (0, 2), (2, 1)] {
            check_op(&KernelOp::Dense(&mm), &mm, &[a, b], 3, (a * 17 + b) as u64);
        }
    }

    #[test]
    fn dense_matches_embed_for_3q() {
        // A dense 8×8 with no zero entries, on orderings that exercise the
        // register-blocked three-qubit kernel's offset table.
        let mm = Matrix::from_fn(8, 8, |i, j| {
            C64::new(
                ((i * 8 + j) % 11) as f64 - 5.0,
                ((i * 3 + j * 5) % 7) as f64 / 3.0,
            )
        });
        for qs in [[0, 1, 2], [2, 0, 1], [3, 1, 0], [1, 3, 2]] {
            check_op(
                &KernelOp::Dense(&mm),
                &mm,
                &qs,
                4,
                (qs[0] * 23 + qs[1] * 5 + qs[2]) as u64,
            );
        }
    }

    #[test]
    fn mul_4x4_matches_generic_matmul() {
        let a = Matrix::from_fn(4, 4, |i, j| {
            C64::new((i + 2 * j) as f64, (i * j) as f64 - 1.0)
        });
        let b = Matrix::from_fn(4, 4, |i, j| {
            C64::new((3 * i) as f64 - j as f64, 0.5 * j as f64)
        });
        assert!(mul_4x4(&a, &b).approx_eq(&a.matmul(&b), 1e-12));
    }

    #[test]
    fn permutation_kernel_applies_mapping() {
        // SwapZ's permutation: l → perm[l].
        static PERM: [usize; 4] = [0, 3, 1, 2];
        let mut mm = Matrix::zeros(4, 4);
        for (l, &p) in PERM.iter().enumerate() {
            mm[(p, l)] = C64::ONE;
        }
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            check_op(
                &KernelOp::Permutation(&PERM),
                &mm,
                &[a, b],
                3,
                (a * 19 + b) as u64,
            );
        }
    }

    #[test]
    fn engine_reuse_is_consistent() {
        // The same engine applied to different qubit sets must rebuild its
        // tables correctly.
        let mut eng = KernelEngine::new();
        let phase = C64::cis(0.4);
        let v = random_state(4, 99);
        let mut got = v.clone();
        eng.apply(&mut got, 4, &KernelOp::PhaseAllOnes(phase), &[0, 1, 2]);
        eng.apply(&mut got, 4, &KernelOp::ControlledX, &[3, 0]);
        eng.apply(&mut got, 4, &KernelOp::Swap, &[1, 3]);
        let mut fresh = v.clone();
        KernelEngine::new().apply(&mut fresh, 4, &KernelOp::PhaseAllOnes(phase), &[0, 1, 2]);
        KernelEngine::new().apply(&mut fresh, 4, &KernelOp::ControlledX, &[3, 0]);
        KernelEngine::new().apply(&mut fresh, 4, &KernelOp::Swap, &[1, 3]);
        assert_close(&got, &fresh);
    }

    #[test]
    fn identity_rows_build_unitaries() {
        // Batched mode with row_len = 2ⁿ starting from the identity yields
        // the gate's embedding itself.
        let m = h2();
        let dim = 8usize;
        let mut buf = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            buf[i * dim + i] = C64::ONE;
        }
        KernelEngine::new().apply_batched(&mut buf, 3, dim, &KernelOp::OneQ(m), &[1]);
        let mm = Matrix::from_rows(&[vec![m[0], m[1]], vec![m[2], m[3]]]);
        for col in 0..dim {
            let unit: Vec<C64> = (0..dim)
                .map(|r| if r == col { C64::ONE } else { C64::ZERO })
                .collect();
            let expect = apply_via_embed(&mm, &[1], &unit);
            let got: Vec<C64> = (0..dim).map(|r| buf[r * dim + col]).collect();
            assert_close(&got, &expect);
        }
    }

    /// Applies a fixed op sequence to a buffer large enough to engage the
    /// pool (2¹⁷ scalars ≥ PAR_MIN_ELEMS) and returns the result.
    fn parallel_workload(n: usize, row_len: usize) -> Vec<C64> {
        let dim = 1usize << n;
        let mut buf: Vec<C64> = (0..dim * row_len)
            .map(|i| C64::new((i % 97) as f64 - 48.0, (i % 89) as f64 / 7.0))
            .collect();
        let mut eng = KernelEngine::new();
        let dense = Matrix::from_fn(4, 4, |i, j| {
            C64::new((i + 2 * j) as f64 - 3.0, 0.25 * i as f64)
        });
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::OneQ(h2()), &[0]);
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::OneQ(h2()), &[n - 1]);
        eng.apply_batched(
            &mut buf,
            n,
            row_len,
            &KernelOp::OneQDiag([C64::ONE, C64::cis(0.3)]),
            &[2],
        );
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::ControlledX, &[1, n - 2]);
        eng.apply_batched(
            &mut buf,
            n,
            row_len,
            &KernelOp::ControlledOneQ([C64::ONE, C64::ZERO, C64::ZERO, C64::cis(1.2)]),
            &[n - 1, 0],
        );
        eng.apply_batched(
            &mut buf,
            n,
            row_len,
            &KernelOp::PhaseAllOnes(C64::cis(0.9)),
            &[3, n - 3],
        );
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::Swap, &[0, n - 1]);
        static PERM: [usize; 4] = [0, 3, 1, 2];
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::Permutation(&PERM), &[1, 4]);
        eng.apply_batched(&mut buf, n, row_len, &KernelOp::Dense(&dense), &[n - 2, 2]);
        let dense3 = Matrix::from_fn(8, 8, |i, j| {
            C64::new((i % 3) as f64 - (j % 5) as f64, 0.125 * (i + j) as f64)
        });
        eng.apply_batched(
            &mut buf,
            n,
            row_len,
            &KernelOp::Dense(&dense3),
            &[n - 1, 0, 3],
        );
        buf
    }

    #[test]
    fn parallel_is_bit_identical_at_every_thread_count() {
        let _g = lock_thread_cap();
        // 2¹⁷ scalars in both layouts: state vector and batched rows.
        for (n, row_len) in [(17, 1), (11, 64)] {
            set_max_threads(Some(1));
            let sequential = parallel_workload(n, row_len);
            for threads in [2, scoped_pool::Pool::global().capacity()] {
                set_max_threads(Some(threads));
                let parallel = parallel_workload(n, row_len);
                set_max_threads(None);
                assert!(
                    sequential == parallel,
                    "thread count {threads} changed bits (n={n}, row_len={row_len})"
                );
            }
        }
    }

    #[test]
    fn adversarial_steal_order_cannot_change_bits() {
        // The workload covers every kernel shape (1q, diag, controlled,
        // phase, swap, permutation, dense 2q, dense 3q) in both layouts;
        // the injected permutations force regions with a matching part
        // count (16 = 2 executors × STEAL_PARTS_PER_EXECUTOR) to claim
        // parts in an adversarial order. Output bits must not move.
        let _g = lock_thread_cap();
        for (n, row_len) in [(17, 1), (11, 64)] {
            set_max_threads(Some(1));
            let sequential = parallel_workload(n, row_len);
            for seq in [
                (0..16).rev().collect::<Vec<_>>(),
                (0..16).map(|i| (i + 5) % 16).collect::<Vec<_>>(),
            ] {
                set_max_threads(Some(2));
                set_steal_sequence(Some(seq.clone()));
                let stolen = parallel_workload(n, row_len);
                set_steal_sequence(None);
                set_max_threads(None);
                assert!(
                    sequential == stolen,
                    "steal order {seq:?} changed bits (n={n}, row_len={row_len})"
                );
            }
        }
    }
}
