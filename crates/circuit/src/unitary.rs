//! Circuit unitaries via the shared kernel engine, plus gate embedding.
//!
//! Transpiler passes (block consolidation, equivalence assertions in tests)
//! need the 2ⁿ×2ⁿ unitary of a small circuit. [`circuit_unitary`] builds it
//! in three stages:
//!
//! 1. **Fusion** ([`crate::fusion`]): 1q runs collapse to single 2×2
//!    products, 1q gates fold into adjacent dense blocks, and same-pair /
//!    in-block gates consolidate into one matrix — planned under the fixed
//!    *panel* cost profile ([`crate::fusion::FusionProfile::panels`]),
//!    where passes run at cache bandwidth and only arithmetic-reducing
//!    merges pay off.
//! 2. **Cache-blocked panels**: the 2ⁿ columns are processed in panels
//!    sized to keep each panel (2ⁿ rows × width) inside L2
//!    ([`PANEL_TARGET_ELEMS`]); the whole fused gate sequence streams over
//!    one panel before the next is touched, so construction runs at cache
//!    bandwidth instead of DRAM bandwidth once n ≳ 9.
//! 3. **Kernel streaming** ([`qc_math::KernelEngine`]): each fused op is a
//!    structured in-place pass over the panel's rows — **O(2ⁿ·4ᵏ/2ᵏ) per
//!    dense k-qubit op** and far less for diagonal/permutation ops.
//!
//! Panels are distributed across the vendored scoped-thread pool (on the
//! calling thread under `RPO_THREADS=1`); panel boundaries depend only on
//! n, and the plan only on the circuit, so the result is **bit-identical
//! at every thread count and in every process** (each panel is an
//! independent computation).
//!
//! The older embed-then-matmul formulation ([`circuit_unitary_reference`])
//! costs O(8ⁿ) per gate in its dense form and is retained as the
//! independent oracle for equivalence tests and benchmarks;
//! [`circuit_unitary_unfused`] preserves the intermediate per-gate
//! streaming path (no fusion, single panel) for the same purpose.
//!
//! Rule of thumb: use [`circuit_unitary`] everywhere; use the others only
//! when an implementation-independent cross-check is the point. All are
//! dense and intended for n ≲ 12; the state-vector simulator in `qc-sim`
//! is the fast path for larger functional checks (one column, not 2ⁿ).

use crate::circuit::Circuit;
use crate::fusion::{fuse_instructions_with, FusedInst, FusionProfile};
use crate::gate::Gate;
use qc_math::{BufPtr, KernelEngine, KernelOp, Matrix, C64};

/// Embeds a k-qubit gate matrix into an n-qubit unitary, acting on the given
/// qubits (little-endian: `qubits[0]` is the gate's least-significant local
/// bit).
///
/// # Panics
///
/// Panics if the matrix dimension does not match `qubits.len()` or a qubit
/// index is out of range / repeated.
pub fn embed(gate_matrix: &Matrix, qubits: &[usize], n: usize) -> Matrix {
    let k = qubits.len();
    assert_eq!(gate_matrix.rows(), 1 << k, "matrix dimension mismatch");
    for (i, q) in qubits.iter().enumerate() {
        assert!(*q < n, "qubit {q} out of range");
        assert!(!qubits[i + 1..].contains(q), "duplicate qubit {q}");
    }
    let dim = 1usize << n;
    let mut out = Matrix::zeros(dim, dim);
    for col in 0..dim {
        // Extract local index from the column basis state.
        let mut local = 0usize;
        for (bit, &q) in qubits.iter().enumerate() {
            if (col >> q) & 1 == 1 {
                local |= 1 << bit;
            }
        }
        let base = {
            // Column with the gate's local bits cleared.
            let mut b = col;
            for &q in qubits {
                b &= !(1 << q);
            }
            b
        };
        for lrow in 0..(1 << k) {
            let amp = gate_matrix[(lrow, local)];
            if amp == C64::ZERO {
                continue;
            }
            let mut row = base;
            for (bit, &q) in qubits.iter().enumerate() {
                if (lrow >> bit) & 1 == 1 {
                    row |= 1 << q;
                }
            }
            out[(row, col)] = amp;
        }
    }
    out
}

/// Column-panel size target, in scalars: 2¹⁶ C64 = 1 MiB, sized to keep a
/// whole panel resident in L2 while the fused gate sequence streams over it.
pub const PANEL_TARGET_ELEMS: usize = 1 << 16;

/// The panel width used for an n-qubit unitary (`dim = 2ⁿ`): the full
/// matrix when it already fits the target, else `PANEL_TARGET_ELEMS / dim`
/// columns (≥ 8). Depends only on `dim`, never on thread count — panel
/// decomposition is part of the deterministic result contract.
fn panel_width(dim: usize) -> usize {
    if dim * dim <= PANEL_TARGET_ELEMS {
        dim
    } else {
        (PANEL_TARGET_ELEMS / dim).clamp(8, dim)
    }
}

/// The full unitary of a circuit: fusion, then cache-blocked panel
/// streaming of the fused kernels (see the module docs for the pipeline).
///
/// In the product G·U a gate acts on the *row-index* bits, so each kernel
/// step mixes whole rows — contiguous element-wise passes over the panel,
/// which vectorize and stream; no transpose is ever needed. Per k-qubit
/// gate this is O(4ⁿ·4ᵏ/2ᵏ) dense — and far less for the structured
/// kernels (diagonal, controlled-X, swap) — versus the O(8ⁿ)
/// embed-then-matmul of [`circuit_unitary_reference`].
///
/// # Panics
///
/// Panics if the circuit contains a non-unitary instruction (reset or
/// measure). Directives (barriers, annotations) are skipped.
pub fn circuit_unitary(circuit: &Circuit) -> Matrix {
    let n = circuit.num_qubits();
    // Panel profile: the plan streams over L2-resident column panels, so
    // the planner only makes arithmetic-reducing merges (passes are cheap).
    let plan = fuse_instructions_with(circuit.instructions(), n, FusionProfile::panels());
    unitary_from_plan(&plan, n, panel_width(1usize << n))
}

/// [`circuit_unitary`] with an explicit panel width (a power of two
/// dividing 2ⁿ). Exposed for oracle tests that pin the panel decomposition
/// on small circuits; everything else should use [`circuit_unitary`].
#[doc(hidden)]
pub fn circuit_unitary_with_panel_width(circuit: &Circuit, width: usize) -> Matrix {
    let n = circuit.num_qubits();
    let plan = fuse_instructions_with(circuit.instructions(), n, FusionProfile::panels());
    unitary_from_plan(&plan, n, width)
}

/// The per-gate kernel-streaming construction without fusion or panels —
/// PR 1's formulation, retained as a mid-level oracle (independent of the
/// fusion planner, shares only the kernel engine) and benchmark baseline.
///
/// # Panics
///
/// Panics on non-unitary instructions; directives are skipped.
pub fn circuit_unitary_unfused(circuit: &Circuit) -> Matrix {
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    let mut data = vec![C64::ZERO; dim * dim];
    for i in 0..dim {
        data[i * dim + i] = C64::ONE;
    }
    let mut engine = KernelEngine::new();
    for inst in circuit.instructions() {
        if inst.gate.is_directive() {
            continue;
        }
        let op = inst
            .gate
            .kernel()
            .unwrap_or_else(|| panic!("non-unitary instruction {} in circuit_unitary", inst.gate));
        engine.apply_batched(&mut data, n, dim, &op, &inst.qubits);
    }
    Matrix::from_vec(dim, dim, data)
}

/// Streams a fused plan over column panels of the identity, assembling the
/// full row-major unitary. Panels are independent and chunked across the
/// scoped-thread pool by its shared partition policy
/// (`scoped_pool::run_chunked`, the splitter the kernel loops use).
fn unitary_from_plan(plan: &[FusedInst<'_>], n: usize, width: usize) -> Matrix {
    let dim = 1usize << n;
    assert!(
        width.is_power_of_two() && width <= dim,
        "panel width must be a power of two ≤ 2^n"
    );
    if width == dim {
        // Single panel: stream in place over the identity, no copies.
        let mut data = vec![C64::ZERO; dim * dim];
        for i in 0..dim {
            data[i * dim + i] = C64::ONE;
        }
        let mut engine = KernelEngine::new();
        for fi in plan {
            engine.apply_batched(&mut data, n, dim, &fi.op(), &fi.qubits);
        }
        return Matrix::from_vec(dim, dim, data);
    }
    let panels = dim / width;
    let mut data = vec![C64::ZERO; dim * dim];
    let out = BufPtr::of(&mut data);
    let body = |panel_lo: usize, panel_hi: usize| {
        // Per-executor engine and panel scratch, reused across its panels.
        let mut engine = KernelEngine::new();
        let mut scratch = vec![C64::ZERO; dim * width];
        for p in panel_lo..panel_hi {
            let col0 = p * width;
            scratch.fill(C64::ZERO);
            // Identity restricted to columns [col0, col0 + width).
            for c in 0..width {
                scratch[(col0 + c) * width + c] = C64::ONE;
            }
            for fi in plan {
                engine.apply_batched(&mut scratch, n, width, &fi.op(), &fi.qubits);
            }
            // Scatter the panel into the output's column stripe. Executors
            // own disjoint panels, hence disjoint column ranges.
            for (r, row) in scratch.chunks_exact(width).enumerate() {
                // SAFETY: stripes [r*dim + col0, +width) are disjoint
                // across panels.
                unsafe { out.span(r * dim + col0, width) }.copy_from_slice(row);
            }
        }
    };
    scoped_pool::run_chunked(panels, body);
    Matrix::from_vec(dim, dim, data)
}

/// Incrementally accumulates the unitary of a gate sequence on a small
/// register — the engine-backed replacement for re-running
/// [`circuit_unitary`] on a growing circuit, with no fusion planner in
/// between. The two-qubit block rewriter of `ConsolidateBlocks` and QPO
/// extends one of these gate-by-gate per candidate block (a 4×4 per 2q
/// block) instead of re-walking the block per candidate.
#[derive(Clone, Debug)]
pub struct UnitaryAccumulator {
    n: usize,
    dim: usize,
    data: Vec<C64>,
    engine: KernelEngine,
}

impl UnitaryAccumulator {
    /// A fresh accumulator holding the 2ⁿ×2ⁿ identity.
    pub fn new(n: usize) -> Self {
        let dim = 1usize << n;
        let mut acc = UnitaryAccumulator {
            n,
            dim,
            data: vec![C64::ZERO; dim * dim],
            engine: KernelEngine::new(),
        };
        acc.reset();
        acc
    }

    /// Restores the identity without reallocating.
    pub fn reset(&mut self) {
        self.data.fill(C64::ZERO);
        for i in 0..self.dim {
            self.data[i * self.dim + i] = C64::ONE;
        }
    }

    /// Left-multiplies the accumulated unitary by `gate` on `qubits`
    /// (local indices < n), i.e. appends the gate in circuit order.
    ///
    /// # Panics
    ///
    /// Panics on non-unitary instructions or qubit-index errors.
    pub fn push(&mut self, gate: &Gate, qubits: &[usize]) {
        if gate.is_directive() {
            return;
        }
        let op = gate
            .kernel()
            .unwrap_or_else(|| panic!("non-unitary instruction {gate} in UnitaryAccumulator"));
        self.push_op(&op, qubits);
    }

    /// Appends a raw kernel op (see [`UnitaryAccumulator::push`]).
    pub fn push_op(&mut self, op: &KernelOp<'_>, qubits: &[usize]) {
        self.engine
            .apply_batched(&mut self.data, self.n, self.dim, op, qubits);
    }

    /// The accumulated unitary so far.
    pub fn matrix(&self) -> Matrix {
        Matrix::from_vec(self.dim, self.dim, self.data.clone())
    }
}

/// The original embed-then-matmul construction of a circuit's unitary:
/// every gate is embedded as a full 2ⁿ×2ⁿ matrix and multiplied into the
/// accumulator.
///
/// O(8ⁿ) per gate in dense form; kept as the implementation-independent
/// **oracle** for the kernel-based [`circuit_unitary`] — equivalence tests
/// and the `kernels` criterion bench compare the two paths. New code should
/// call [`circuit_unitary`].
///
/// # Panics
///
/// Panics if the circuit contains a non-unitary instruction (reset or
/// measure). Directives (barriers, annotations) are skipped.
pub fn circuit_unitary_reference(circuit: &Circuit) -> Matrix {
    let n = circuit.num_qubits();
    let mut u = Matrix::identity(1 << n);
    for inst in circuit.instructions() {
        if inst.gate.is_directive() {
            continue;
        }
        let m = inst
            .gate
            .matrix()
            .unwrap_or_else(|| panic!("non-unitary instruction {} in circuit_unitary", inst.gate));
        let g = embed(&m, &inst.qubits, n);
        u = g.matmul(&u);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    #[test]
    fn embed_single_qubit_gate() {
        // X on qubit 1 of 2: swaps indices differing in bit 1.
        let x = Gate::X.matrix().unwrap();
        let m = embed(&x, &[1], 2);
        assert_eq!(m[(2, 0)], C64::ONE);
        assert_eq!(m[(0, 2)], C64::ONE);
        assert_eq!(m[(3, 1)], C64::ONE);
        assert_eq!(m[(0, 0)], C64::ZERO);
        assert!(m.is_unitary(1e-12));
    }

    #[test]
    fn embed_cx_both_orientations() {
        let cx = Gate::Cx.matrix().unwrap();
        // control 0, target 1: flips bit1 when bit0 set → 1↔3.
        let m = embed(&cx, &[0, 1], 2);
        assert_eq!(m[(3, 1)], C64::ONE);
        assert_eq!(m[(1, 3)], C64::ONE);
        assert_eq!(m[(0, 0)], C64::ONE);
        // control 1, target 0: flips bit0 when bit1 set → 2↔3.
        let m = embed(&cx, &[1, 0], 2);
        assert_eq!(m[(3, 2)], C64::ONE);
        assert_eq!(m[(2, 3)], C64::ONE);
    }

    #[test]
    fn embed_identity_elsewhere() {
        let h = Gate::H.matrix().unwrap();
        let m = embed(&h, &[0], 3);
        // Qubits 1,2 untouched: block structure H ⊗ I is on bit 0.
        let i4 = Matrix::identity(4);
        let expect = i4.kron(&h); // bit0 least significant ⇒ H is rightmost factor
        assert!(m.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn bell_circuit_unitary() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let u = circuit_unitary(&c);
        // U|00⟩ = (|00⟩+|11⟩)/√2.
        let v = u.apply(&[C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO]);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!(v[0].approx_eq(C64::real(r), 1e-12));
        assert!(v[3].approx_eq(C64::real(r), 1e-12));
        assert!(v[1].norm() < 1e-12 && v[2].norm() < 1e-12);
    }

    #[test]
    fn swap_as_three_cnots() {
        let mut a = Circuit::new(2);
        a.swap(0, 1);
        let mut b = Circuit::new(2);
        b.cx(0, 1).cx(1, 0).cx(0, 1);
        assert!(circuit_unitary(&a).equal_up_to_global_phase(&circuit_unitary(&b), 1e-10));
    }

    #[test]
    fn swapz_is_two_cnots() {
        let mut a = Circuit::new(2);
        a.swapz(0, 1);
        let mut b = Circuit::new(2);
        b.cx(1, 0).cx(0, 1);
        assert!(circuit_unitary(&a).equal_up_to_global_phase(&circuit_unitary(&b), 1e-10));
    }

    #[test]
    fn directives_skipped() {
        let mut a = Circuit::new(2);
        a.h(0).barrier().annot_zero(1).cx(0, 1);
        let mut b = Circuit::new(2);
        b.h(0).cx(0, 1);
        assert!(circuit_unitary(&a).equal_up_to_global_phase(&circuit_unitary(&b), 1e-10));
    }

    #[test]
    fn cz_symmetric_embedding() {
        let cz = Gate::Cz.matrix().unwrap();
        let m1 = embed(&cz, &[0, 1], 2);
        let m2 = embed(&cz, &[1, 0], 2);
        assert!(m1.approx_eq(&m2, 1e-12));
    }

    #[test]
    fn three_qubit_toffoli_embedding() {
        let ccx = Gate::Ccx.matrix().unwrap();
        // controls on qubits 2,1, target 0: flips bit0 when bits 1,2 set.
        let m = embed(&ccx, &[2, 1, 0], 3);
        assert_eq!(m[(7, 6)], C64::ONE);
        assert_eq!(m[(6, 7)], C64::ONE);
        assert_eq!(m[(5, 5)], C64::ONE);
    }
}
