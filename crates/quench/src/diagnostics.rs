//! Runaway-electron diagnostics.
//!
//! The quench model's purpose is to track the seed population of fast
//! electrons left behind by the thermal collapse. We measure the electron
//! density carried by velocities above a threshold (in initial-thermal
//! units) and its share of the total — the "seed runaway" fraction.

use landau_core::species::SpeciesList;
use landau_fem::{weighted_functional, FemSpace};

/// Precomputed fast-tail functionals for a set of speed thresholds.
#[derive(Clone, Debug)]
pub struct TailDiagnostics {
    thresholds: Vec<f64>,
    functionals: Vec<Vec<f64>>,
    n: usize,
}

impl TailDiagnostics {
    /// Build functionals measuring `2π ∫_{|x| > x_c} r f dr dz` for each
    /// threshold `x_c`. The indicator is applied at quadrature points
    /// (smooth enough at these resolutions).
    pub fn new(space: &FemSpace, thresholds: &[f64]) -> Self {
        let two_pi = 2.0 * core::f64::consts::PI;
        let functionals = thresholds
            .iter()
            .map(|&xc| {
                let xc2 = xc * xc;
                let mut v = weighted_functional(
                    space,
                    move |r, z| {
                        if r * r + z * z > xc2 {
                            1.0
                        } else {
                            0.0
                        }
                    },
                );
                for x in &mut v {
                    *x *= two_pi;
                }
                v
            })
            .collect();
        TailDiagnostics {
            thresholds: thresholds.to_vec(),
            functionals,
            n: space.n_dofs,
        }
    }

    /// Density of species `s` above each threshold.
    pub fn tail_density(&self, state: &[f64], s: usize) -> Vec<f64> {
        let f = &state[s * self.n..(s + 1) * self.n];
        self.functionals
            .iter()
            .map(|m| m.iter().zip(f).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// The thresholds this diagnostic was built with.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }
}

/// Z-asymmetry of a distribution: `∫ x_z f / (n ⟨|x|⟩)`-style measure used
/// to watch the fast tail separate along the field direction. Returns
/// `∫ x_z f` restricted to `|x| > x_c`.
pub fn directed_tail_flux(space: &FemSpace, state: &[f64], s: usize, x_c: f64) -> f64 {
    let two_pi = 2.0 * core::f64::consts::PI;
    let xc2 = x_c * x_c;
    let m = weighted_functional(space, move |r, z| if r * r + z * z > xc2 { z } else { 0.0 });
    let n = space.n_dofs;
    two_pi
        * m.iter()
            .zip(&state[s * n..(s + 1) * n])
            .map(|(a, b)| a * b)
            .sum::<f64>()
}

/// Convenience: electron tail diagnostics for a species list.
pub fn electron_tail(space: &FemSpace, _species: &SpeciesList) -> TailDiagnostics {
    TailDiagnostics::new(space, &[2.0, 3.0, 4.0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use landau_core::species::{Species, SpeciesList};
    use landau_mesh::presets::maxwellian_mesh;

    fn setup() -> (FemSpace, Vec<f64>) {
        let e = Species::electron();
        let space = FemSpace::new(maxwellian_mesh(5.0, &[e.thermal_speed()], 2.0), 3);
        let f = space.interpolate(|r, z| e.maxwellian(r, z, 0.0));
        (space, f)
    }

    #[test]
    fn maxwellian_tail_fractions() {
        let (space, f) = setup();
        let d = TailDiagnostics::new(&space, &[0.0, 1.0, 2.0, 3.0]);
        let t = d.tail_density(&f, 0);
        // Threshold 0: everything (≈ n = 1).
        assert!((t[0] - 1.0).abs() < 2e-2, "{}", t[0]);
        // Monotone decreasing with threshold.
        assert!(t[0] > t[1] && t[1] > t[2] && t[2] > t[3]);
        // Maxwellian tail beyond 2 v0 (x²/θ ≈ 5.1): erfc-ish small value.
        assert!(t[2] > 1e-4 && t[2] < 5e-2, "{}", t[2]);
    }

    #[test]
    fn symmetric_distribution_has_no_directed_flux() {
        let (space, f) = setup();
        let sl = SpeciesList::new(vec![Species::electron()]);
        let _ = electron_tail(&space, &sl);
        let flux = directed_tail_flux(&space, &f, 0, 1.5);
        assert!(flux.abs() < 1e-8, "{flux}");
    }

    #[test]
    fn shifted_tail_has_directed_flux() {
        let e = Species::electron();
        let space = FemSpace::new(maxwellian_mesh(5.0, &[e.thermal_speed()], 2.0), 3);
        let f = space.interpolate(|r, z| e.maxwellian(r, z, 0.8));
        let flux = directed_tail_flux(&space, &f, 0, 1.5);
        assert!(flux > 1e-4, "{flux}");
    }
}
