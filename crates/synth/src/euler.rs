//! Single-qubit Euler-angle decomposition.
//!
//! Any 2×2 unitary can be written `U = e^{iα}·u3(θ, φ, λ)`. The transpiler's
//! `Optimize1qGates` pass merges runs of single-qubit gates by multiplying
//! their matrices and re-extracting these angles; the RPO pure-state analysis
//! uses the same extraction to track `(θ, φ)` Bloch parameters.

use qc_circuit::gate::u3_matrix;
use qc_circuit::Gate;
use qc_math::{Matrix, C64};
use std::f64::consts::{FRAC_PI_2, PI};

/// The result of decomposing a 2×2 unitary as `e^{iα}·u3(θ, φ, λ)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OneQubitEuler {
    /// Polar rotation angle θ ∈ [0, π].
    pub theta: f64,
    /// Azimuthal angle φ.
    pub phi: f64,
    /// Phase-frame angle λ.
    pub lam: f64,
    /// Global phase α.
    pub phase: f64,
}

impl OneQubitEuler {
    /// Decomposes a 2×2 unitary.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not 2×2 or not unitary (tolerance `1e-8`).
    pub fn from_matrix(u: &Matrix) -> Self {
        assert_eq!((u.rows(), u.cols()), (2, 2), "expected a 2x2 matrix");
        assert!(u.is_unitary(1e-8), "matrix must be unitary: {u:?}");
        // Normalize to SU(2): U' = U e^{-iα}, α = arg(det)/2.
        let det = u.det();
        let alpha = det.arg() / 2.0;
        let inv_phase = C64::cis(-alpha);
        let a = u[(0, 0)] * inv_phase; // cos(θ/2) e^{-i(φ+λ)/2}
        let b = u[(1, 0)] * inv_phase; // sin(θ/2) e^{ i(φ−λ)/2}
        let theta = 2.0 * b.norm().atan2(a.norm());
        let (phi, lam);
        if b.norm() < 1e-10 {
            // θ ≈ 0: only φ+λ matters.
            phi = -2.0 * a.arg();
            lam = 0.0;
        } else if a.norm() < 1e-10 {
            // θ ≈ π: only φ−λ matters.
            phi = 2.0 * b.arg();
            lam = 0.0;
        } else {
            phi = b.arg() - a.arg();
            lam = -b.arg() - a.arg();
        }
        // Recover the exact global phase by comparing against u3(θ,φ,λ).
        let candidate = u3_matrix(theta, phi, lam);
        let mut phase = alpha;
        // Use the largest-magnitude entry for a robust phase estimate.
        let mut best = 0.0;
        for i in 0..2 {
            for j in 0..2 {
                if candidate[(i, j)].norm() > best {
                    best = candidate[(i, j)].norm();
                    phase = (u[(i, j)] / candidate[(i, j)]).arg();
                }
            }
        }
        OneQubitEuler {
            theta,
            phi,
            lam,
            phase,
        }
    }

    /// Rebuilds the full unitary `e^{iα}·u3(θ, φ, λ)`.
    pub fn to_matrix(self) -> Matrix {
        u3_matrix(self.theta, self.phi, self.lam).scale(C64::cis(self.phase))
    }

    /// The [`Gate`] realization, dropping the (unobservable) global phase.
    /// Chooses the cheapest u-gate family member: `u1` for diagonal
    /// rotations, `u2` for θ = π/2, `u3` otherwise, and `I` for identity.
    /// Every gate it returns other than `I` satisfies [`is_canonical`].
    pub fn to_gate(self) -> Gate {
        if self.theta.abs() < ANGLE_EPS {
            let l = normalize_angle(self.phi + self.lam);
            if l.abs() < ANGLE_EPS {
                Gate::I
            } else {
                Gate::U1(l)
            }
        } else if (self.theta - FRAC_PI_2).abs() < ANGLE_EPS {
            Gate::U2(self.phi, self.lam)
        } else {
            Gate::U3(self.theta, self.phi, self.lam)
        }
    }
}

/// How close an angle must be to 0 (θ or λ) or to π/2 (θ) for
/// [`OneQubitEuler::to_gate`] to pick the cheaper u-gate.
const ANGLE_EPS: f64 = 1e-9;

/// Whether `gate` is one [`OneQubitEuler::to_gate`] can emit, so already
/// the cheapest u-form of its matrix: `U1(λ)` with λ ∈ (−π, π] and
/// |λ| ≥ 1e-9, any `U2`, or `U3(θ, ·, ·)` with 1e-9 ≤ θ ≤ π and
/// |θ − π/2| ≥ 1e-9.
pub fn is_canonical(gate: &Gate) -> bool {
    match *gate {
        Gate::U1(l) => l > -PI && l <= PI && l.abs() >= ANGLE_EPS,
        Gate::U2(..) => true,
        Gate::U3(t, _, _) => (ANGLE_EPS..=PI).contains(&t) && (t - FRAC_PI_2).abs() >= ANGLE_EPS,
        _ => false,
    }
}

/// Wraps an angle into `(-π, π]`.
pub fn normalize_angle(a: f64) -> f64 {
    let tau = std::f64::consts::TAU;
    let mut x = a % tau;
    if x <= -std::f64::consts::PI {
        x += tau;
    } else if x > std::f64::consts::PI {
        x -= tau;
    }
    x
}

/// Convenience: converts a 2×2 unitary into the cheapest equivalent u-gate,
/// ignoring global phase.
pub fn matrix_to_u3_gate(u: &Matrix) -> Gate {
    OneQubitEuler::from_matrix(u).to_gate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_math::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(u: &Matrix) {
        let e = OneQubitEuler::from_matrix(u);
        let rebuilt = e.to_matrix();
        assert!(
            rebuilt.approx_eq(u, 1e-9),
            "round trip failed:\n{u:?}\n{rebuilt:?}\n{e:?}"
        );
        assert!((0.0..=std::f64::consts::PI + 1e-9).contains(&e.theta));
    }

    #[test]
    fn standard_gates_round_trip() {
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Rx(0.3),
            Gate::Ry(-2.0),
            Gate::Rz(1.7),
            Gate::U1(0.4),
            Gate::U2(1.0, -0.5),
            Gate::U3(2.2, 0.1, 3.0),
        ] {
            round_trip(&g.matrix().unwrap());
        }
    }

    #[test]
    fn random_unitaries_round_trip() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let u = haar_unitary(2, &mut rng);
            round_trip(&u);
        }
    }

    #[test]
    fn gate_realization_matches_up_to_phase() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..100 {
            let u = haar_unitary(2, &mut rng);
            let g = matrix_to_u3_gate(&u);
            let m = g.matrix().expect("u-gates have matrices");
            assert!(m.equal_up_to_global_phase(&u, 1e-9), "{g} != input");
        }
    }

    #[test]
    fn to_gate_emits_canonical_gates_or_identity() {
        let check = |u: &Matrix| {
            let g = matrix_to_u3_gate(u);
            assert!(g == Gate::I || is_canonical(&g), "{g:?} is not canonical");
        };
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..200 {
            check(&haar_unitary(2, &mut rng));
        }
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(0.3),
            Gate::Ry(-2.0),
            Gate::Rz(1.7),
            Gate::Rz(-std::f64::consts::PI),
            Gate::U1(0.4),
            Gate::U1(1.5 * std::f64::consts::PI),
            Gate::U2(1.0, -0.5),
            Gate::U3(2.2, 0.1, 3.0),
            Gate::U3(4.0, 0.1, 0.2),
        ] {
            check(&g.matrix().unwrap());
        }
    }

    #[test]
    fn identity_maps_to_identity_gate() {
        assert_eq!(matrix_to_u3_gate(&Matrix::identity(2)), Gate::I);
        // Global phase alone is still the identity gate.
        let phased = Matrix::identity(2).scale(C64::cis(1.234));
        assert_eq!(matrix_to_u3_gate(&phased), Gate::I);
    }

    #[test]
    fn diagonal_maps_to_u1() {
        let g = matrix_to_u3_gate(&Gate::Rz(0.8).matrix().unwrap());
        assert!(matches!(g, Gate::U1(l) if (l - 0.8).abs() < 1e-9), "{g}");
    }

    #[test]
    fn hadamard_maps_to_u2() {
        let g = matrix_to_u3_gate(&Gate::H.matrix().unwrap());
        assert!(matches!(g, Gate::U2(_, _)), "{g}");
    }

    #[test]
    fn normalize_angle_range() {
        use std::f64::consts::PI;
        assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_angle(0.5) - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "must be unitary")]
    fn rejects_non_unitary() {
        let m = Matrix::from_rows(&[vec![C64::ONE, C64::ONE], vec![C64::ZERO, C64::ONE]]);
        OneQubitEuler::from_matrix(&m);
    }
}
