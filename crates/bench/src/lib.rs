//! Shared helpers for the table/figure harness binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin` (`table1` … `table8`, `fig4`, `fig5`, `meshes`) that prints the
//! same rows/series the paper reports, regenerated from this
//! implementation. See `EXPERIMENTS.md` for the paper-vs-measured record.

use landau_core::operator::{AssemblyPath, Backend, LandauOperator};
use landau_core::species::SpeciesList;
use landau_fem::FemSpace;
use landau_hwsim::IterationProfile;
use landau_mesh::presets::{MeshSpec, RefineShell};

/// Build the §V performance test problem: 10 species (e, D, 8×W) on a
/// mesh of roughly `ne_target` Q3 elements (the paper uses 80; Table IV's
/// utilization study uses 320).
pub fn perf_operator(ne_target: usize, backend: Backend) -> LandauOperator {
    let sl = SpeciesList::thermal_quench_10(0.02);
    // A modest adapted mesh; the paper's perf meshes likewise do not
    // resolve the heavy-species scales.
    let mut spec = MeshSpec {
        domain_radius: 5.0,
        base_level: 2,
        shells: vec![RefineShell {
            radius: 2.8,
            max_cell_size: 0.65,
        }],
        tail_box: None,
    };
    if ne_target > 150 {
        spec.shells.push(RefineShell {
            radius: 1.6,
            max_cell_size: 0.33,
        });
    }
    if ne_target > 400 {
        spec.base_level = 3;
    }
    let space = FemSpace::new(spec.build(), 3);
    let mut op = LandauOperator::new(space, sl, backend);
    // The GPU models take the released GPU assembly path, whose atomic
    // counts Tables 2–8 model. The CPU backend keeps the operator's
    // `SetValues` scatter (the paper's CPU path): parallel over species and
    // deterministic, where f64 atomic adds from several pool threads would
    // make the Jacobian's bits depend on thread timing.
    if backend != Backend::Cpu {
        op.assembly = AssemblyPath::Atomic;
    }
    op
}

/// Measure the real per-Newton-iteration operation profile by assembling
/// the Jacobian and mass kernels once on the virtual device and reading
/// back the counters; factor/solve FLOPs come from the band solver's cost
/// model at the problem's RCM bandwidth.
pub fn measured_profile(op: &mut LandauOperator) -> IterationProfile {
    op.device.reset_counters();
    let state = op.initial_state();
    let _ = op.assemble(&state, 0.0);
    let _ = op.assemble_shifted_mass(1.0);
    let jac = op.device.kernel_stats("landau_jacobian");
    let mass = op.device.kernel_stats("mass");
    let s = op.species.len();
    let n = op.n();
    let _ = &jac;
    // Bandwidth of the reordered block (best of RCM and geometric sweep,
    // matching what the integrator uses).
    let perm = landau_sparse::rcm::rcm_order(&op.mass);
    let bw_rcm = landau_sparse::rcm::bandwidth(&op.mass.permute_symmetric(&perm));
    let mut gperm: Vec<usize> = (0..n).collect();
    gperm.sort_by(|&a, &b| {
        let (ra, za) = op.space.dof_positions[a];
        let (rb, zb) = op.space.dof_positions[b];
        (za, ra).partial_cmp(&(zb, rb)).unwrap()
    });
    let bw_geo = landau_sparse::rcm::bandwidth(&op.mass.permute_symmetric(&gperm));
    let bw = bw_rcm.min(bw_geo);
    IterationProfile {
        kernel_flops: jac.flops,
        kernel_bytes: jac.dram_read + jac.dram_write,
        mass_flops: mass.flops,
        mass_bytes: mass.dram_read + mass.dram_write,
        atomics: jac.atomics + mass.atomics,
        factor_flops: (s * 2 * n * bw * (bw + 1)) as u64,
        solve_flops: (s * 12 * n * bw) as u64,
        host_flops: (s * n * 2000) as u64,
    }
}

/// The workspace root (bench mains may run with the package directory as
/// cwd, so outputs anchor here instead of relative paths).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Write a flat `{"metric": value}` JSON map to `file_name` at the
/// workspace root (bench mains run with the package directory as cwd).
/// Returns the path written so mains can echo it for CI logs.
pub fn write_bench_json(file_name: &str, entries: &[(String, f64)]) -> std::path::PathBuf {
    let path = workspace_root().join(file_name);
    let mut s = String::from("{\n");
    for (i, (name, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!("  \"{name}\": {value:e}{comma}\n"));
    }
    s.push_str("}\n");
    std::fs::write(&path, s).expect("write bench json");
    path
}

/// Render an aligned text table.
pub fn print_table(title: &str, col_label: &str, cols: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    print!("{col_label:>20}");
    for c in cols {
        print!("{c:>16}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:>20}");
        for v in vals {
            print!("{v:>16}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_problem_matches_paper_scale() {
        let op = perf_operator(80, Backend::Cpu);
        assert_eq!(op.species.len(), 10);
        let ne = op.space.n_elements();
        assert!((50..140).contains(&ne), "expected ~80 elements, got {ne}");
        assert_eq!(op.space.tab.nq, 16);
    }

    #[test]
    fn cpu_perf_operator_assembles_bitwise_reproducibly() {
        let mut op = perf_operator(80, Backend::Cpu);
        assert_ne!(op.assembly, AssemblyPath::Atomic);
        let state = op.initial_state();
        let a = op.assemble(&state, 0.0);
        let b = op.assemble(&state, 0.0);
        for (ma, mb) in a.mats.iter().zip(&b.mats) {
            let bits =
                |m: &landau_sparse::Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ma), bits(mb));
        }
    }

    #[test]
    fn measured_profile_is_sane() {
        let mut op = perf_operator(80, Backend::CudaModel);
        let p = measured_profile(&mut op);
        assert!(p.kernel_flops > p.mass_flops);
        assert!(p.atomics > 0);
        let ai = p.kernel_flops as f64 / p.kernel_bytes as f64;
        assert!(ai > 2.0, "Jacobian AI suspiciously low: {ai}");
    }
}
