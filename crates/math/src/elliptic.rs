//! Complete elliptic integrals of the first and second kind.
//!
//! The azimuthal integration of the 3D Landau tensor in cylindrical
//! coordinates produces closed forms in `K(k)` and `E(k)` (see
//! `landau_core::tensor2d`). We evaluate both simultaneously with the
//! arithmetic–geometric mean (AGM) iteration, which converges quadratically
//! and is accurate to full double precision for `k² ∈ [0, 1)`.
//!
//! Conventions: modulus form,
//! `K(k) = ∫_0^{π/2} dθ / sqrt(1 - k² sin²θ)`,
//! `E(k) = ∫_0^{π/2} dθ sqrt(1 - k² sin²θ)`.

use core::f64::consts::FRAC_PI_2;

/// Result of a joint `K`/`E` evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KE {
    /// Complete elliptic integral of the first kind `K(k)`.
    pub k: f64,
    /// Complete elliptic integral of the second kind `E(k)`.
    pub e: f64,
}

/// Evaluate `K(k)` and `E(k)` for the squared modulus `m = k²`.
///
/// Uses the AGM: with `a_0 = 1`, `b_0 = k' = sqrt(1-m)`,
/// `K = π / (2 agm(a_0, b_0))` and
/// `E = K (1 - Σ_{n≥0} 2^{n-1} c_n²)` where `c_n = (a_n - b_n)/2`
/// (with `c_0² = m` contributing the `n = 0` term).
///
/// # Panics
/// Panics if `m` is outside `[0, 1)` by more than a small tolerance; the
/// integrals diverge logarithmically as `m → 1`, which in the Landau tensor
/// corresponds to the (excluded) self-interaction singularity.
pub fn ellip_ke(m: f64) -> KE {
    assert!(
        (-1e-14..1.0).contains(&m),
        "elliptic modulus m = k^2 = {m} out of [0,1)"
    );
    let m = m.max(0.0);
    if m == 0.0 {
        return KE {
            k: FRAC_PI_2,
            e: FRAC_PI_2,
        };
    }
    let mut a = 1.0f64;
    let mut b = (1.0 - m).sqrt();
    // Σ 2^{n-1} c_n², seeded with the n = 0 term c_0² = a² - b² = m.
    let mut csum = 0.5 * m;
    let mut pow2 = 0.5f64;
    for _ in 0..64 {
        let c = 0.5 * (a - b);
        if c.abs() < 1e-17 * a {
            break;
        }
        let an = 0.5 * (a + b);
        let bn = (a * b).sqrt();
        a = an;
        b = bn;
        pow2 *= 2.0;
        csum += pow2 * c * c;
    }
    let big_k = FRAC_PI_2 / a;
    let big_e = big_k * (1.0 - csum);
    KE { k: big_k, e: big_e }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference evaluation by adaptive composite Simpson on the defining
    /// integral — slow but independent of the AGM.
    fn ke_by_quadrature(m: f64) -> KE {
        let n = 20_000usize;
        let h = FRAC_PI_2 / n as f64;
        let mut sk = 0.0;
        let mut se = 0.0;
        for i in 0..=n {
            let t = i as f64 * h;
            let w = if i == 0 || i == n {
                1.0
            } else if i % 2 == 1 {
                4.0
            } else {
                2.0
            };
            let s = (1.0 - m * t.sin().powi(2)).sqrt();
            sk += w / s;
            se += w * s;
        }
        KE {
            k: sk * h / 3.0,
            e: se * h / 3.0,
        }
    }

    #[test]
    fn known_values() {
        // Abramowitz & Stegun tables: m = 0.5.
        let r = ellip_ke(0.5);
        assert!((r.k - 1.854_074_677_301_372).abs() < 1e-12, "K={}", r.k);
        assert!((r.e - 1.350_643_881_047_675).abs() < 1e-12, "E={}", r.e);
    }

    #[test]
    fn limits() {
        let r = ellip_ke(0.0);
        assert_eq!(r.k, FRAC_PI_2);
        assert_eq!(r.e, FRAC_PI_2);
        // E(1) = 1; K diverges, check monotone growth instead.
        let near = ellip_ke(1.0 - 1e-12);
        assert!((near.e - 1.0).abs() < 1e-5);
        assert!(near.k > 10.0);
    }

    #[test]
    fn matches_quadrature_across_range() {
        for i in 0..40 {
            let m = i as f64 / 40.0 * 0.999;
            let agm = ellip_ke(m);
            let qr = ke_by_quadrature(m);
            assert!(
                (agm.k - qr.k).abs() < 1e-9 && (agm.e - qr.e).abs() < 1e-9,
                "m={m}: AGM ({},{}) vs quad ({},{})",
                agm.k,
                agm.e,
                qr.k,
                qr.e
            );
        }
    }

    #[test]
    fn legendre_relation() {
        // E(k)K(k') + E(k')K(k) - K(k)K(k') = π/2 for all k.
        for i in 1..20 {
            let m = i as f64 / 20.0;
            let a = ellip_ke(m);
            let b = ellip_ke(1.0 - m);
            let lhs = a.e * b.k + b.e * a.k - a.k * b.k;
            assert!((lhs - FRAC_PI_2).abs() < 1e-12, "m={m} lhs={lhs}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_m_ge_one() {
        let _ = ellip_ke(1.0);
    }
}
