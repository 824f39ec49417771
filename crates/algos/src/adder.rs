//! Quantum ripple-carry adder (Vedral, Barenco & Ekert — the paper's
//! reference \[44\] and the motivating example for annotations: "the network
//! uses reverse computation to unentangle and reuse qubits. The
//! programmers know these qubits are unentangled after reverse
//! computation" — Section VI-C).
//!
//! The Cuccaro-style MAJ/UMA construction computes `|a⟩|b⟩ → |a⟩|a+b⟩`
//! with one carry ancilla that is *uncomputed back to |0⟩* — exactly the
//! situation `ANNOT(0,0)` advertises to the RPO analyses.

use qc_circuit::Circuit;

/// Builds an `n`-bit ripple-carry adder mapping `|a⟩|b⟩ → |a⟩|(a+b) mod 2ⁿ⟩`.
///
/// Layout: `a` bits on qubits `0..n`, `b` bits on `n..2n` (both
/// little-endian), carry ancilla on `2n`. With `annotate`, an `ANNOT(0,0)`
/// marks the uncomputed carry ancilla, as the paper suggests programmers do
/// after reverse computation.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ripple_carry_adder(n: usize, annotate: bool) -> Circuit {
    assert!(n >= 1, "adder needs at least one bit");
    let a = |i: usize| i;
    let b = |i: usize| n + i;
    let carry = 2 * n;
    let mut c = Circuit::new(2 * n + 1);

    // MAJ cascade: maj(c_in, b_i, a_i) leaves the running carry on a_i.
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    // UMA undoes MAJ and writes the sum bit.
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    maj(&mut c, carry, b(0), a(0));
    for i in 1..n {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    for i in (1..n).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, carry, b(0), a(0));
    if annotate {
        // Reverse computation restored the carry ancilla to |0⟩.
        c.annot_zero(carry);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::Circuit;
    use qc_sim::Statevector;

    /// Runs the adder on classical inputs and reads the classical output.
    fn add(n: usize, a: usize, b: usize) -> (usize, usize, bool) {
        let mut c = Circuit::new(2 * n + 1);
        for i in 0..n {
            if (a >> i) & 1 == 1 {
                c.x(i);
            }
            if (b >> i) & 1 == 1 {
                c.x(n + i);
            }
        }
        c.extend(&ripple_carry_adder(n, false));
        let sv = Statevector::from_circuit(&c);
        let probs = sv.probabilities();
        let (idx, _) = probs
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite"))
            .expect("nonempty");
        let a_out = idx & ((1 << n) - 1);
        let b_out = (idx >> n) & ((1 << n) - 1);
        let carry_dirty = (idx >> (2 * n)) & 1 == 1;
        (a_out, b_out, carry_dirty)
    }

    #[test]
    fn adds_exhaustively_two_bits() {
        for a in 0..4 {
            for b in 0..4 {
                let (a_out, sum, dirty) = add(2, a, b);
                assert_eq!(a_out, a, "a register must be preserved");
                assert_eq!(sum, (a + b) % 4, "{a}+{b}");
                assert!(!dirty, "carry ancilla must return to |0⟩");
            }
        }
    }

    #[test]
    fn adds_three_bit_samples() {
        for (a, b) in [(0, 0), (3, 5), (7, 7), (4, 1), (6, 3)] {
            let (a_out, sum, dirty) = add(3, a, b);
            assert_eq!(a_out, a);
            assert_eq!(sum, (a + b) % 8);
            assert!(!dirty);
        }
    }

    #[test]
    fn works_in_superposition() {
        // a = |+⟩|0⟩: the sum register entangles correctly with a.
        let n = 2;
        let mut c = Circuit::new(2 * n + 1);
        c.h(0); // a ∈ {0, 1} in superposition
        c.x(n); // b = 1
        c.extend(&ripple_carry_adder(n, true));
        let sv = Statevector::from_circuit(&c);
        // Outcomes: a=0,b=1 and a=1,b=2, each with probability 1/2.
        let idx0 = 1 << n;
        let idx1 = 1 | (2 << n);
        assert!((sv.probability_of(idx0) - 0.5).abs() < 1e-9);
        assert!((sv.probability_of(idx1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn annotation_flag_controls_annot_instruction() {
        assert_eq!(ripple_carry_adder(3, true).count_name("annot"), 1);
        assert_eq!(ripple_carry_adder(3, false).count_name("annot"), 0);
    }
}
