//! Micro-benchmarks of the Landau kernels and the §III-F assembly-path
//! ablation. Plain timing harness (`harness = false`): run with
//! `cargo bench -p landau-bench --bench kernels`. Mean seconds per
//! iteration for every case land in `BENCH_kernels.json` at the
//! workspace root.

use landau_bench::write_bench_json;
use landau_core::ipdata::IpData;
use landau_core::kernels::{
    assemble_atomic, assemble_setvalues, inner_integral_batched_cuda_cached,
    inner_integral_batched_kokkos_cached, inner_integral_cpu, inner_integral_cpu_cached,
    inner_integral_cuda_model, inner_integral_kokkos_model, landau_element_matrices,
    mass_element_matrices,
};
use landau_core::species::{Species, SpeciesList};
use landau_core::tensor::landau_tensor_2d;
use landau_core::TensorTable;
use landau_fem::assemble::csr_pattern;
use landau_fem::FemSpace;
use landau_mesh::presets::{MeshSpec, RefineShell};
use landau_vgpu::kokkos::PlainFactory;
use std::hint::black_box;
use std::time::Instant;

/// Time `body` for `iters` iterations, print the mean time per iteration
/// and record it (in seconds) under `name` in `results`.
fn bench<R>(
    results: &mut Vec<(String, f64)>,
    name: &str,
    iters: usize,
    mut body: impl FnMut() -> R,
) {
    // One warm-up pass keeps lazily-initialised state out of the timing.
    black_box(body());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    if per_iter >= 1e-3 {
        println!("{name:<40} {:>10.3} ms/iter", per_iter * 1e3);
    } else {
        println!("{name:<40} {:>10.3} µs/iter", per_iter * 1e6);
    }
    results.push((name.replace('/', "_"), per_iter));
}

fn setup() -> (FemSpace, SpeciesList, IpData) {
    let spec = MeshSpec {
        domain_radius: 4.0,
        base_level: 1,
        shells: vec![RefineShell {
            radius: 2.0,
            max_cell_size: 1.0,
        }],
        tail_box: None,
    };
    let space = FemSpace::new(spec.build(), 3);
    let sl = SpeciesList::new(vec![
        Species::electron(),
        Species {
            name: "i+".into(),
            mass: 2.0,
            charge: 1.0,
            density: 1.0,
            temperature: 0.7,
        },
    ]);
    let mut ip = IpData::new(&space, &sl);
    let nd = space.n_dofs;
    let mut state = vec![0.0; 2 * nd];
    for (s, sp) in sl.list.iter().enumerate() {
        state[s * nd..(s + 1) * nd]
            .copy_from_slice(&space.interpolate(|r, z| sp.maxwellian(r, z, 0.0)));
    }
    ip.pack(&space, &state);
    (space, sl, ip)
}

fn main() {
    let mut results: Vec<(String, f64)> = Vec::new();
    let r = &mut results;
    bench(r, "landau_tensor_2d", 100_000, || {
        landau_tensor_2d(
            black_box(0.53),
            black_box(-0.21),
            black_box(1.17),
            black_box(0.84),
        )
    });

    let (space, sl, ip) = setup();
    bench(r, "inner_integral/cpu", 10, || inner_integral_cpu(&ip, &sl));
    bench(r, "inner_integral/cuda_model", 10, || {
        inner_integral_cuda_model(&ip, &sl, 16)
    });
    bench(r, "inner_integral/kokkos_model", 10, || {
        inner_integral_kokkos_model(&ip, &sl, 16)
    });

    let table = TensorTable::build(&ip, usize::MAX);
    bench(r, "inner_integral/cpu_cached", 10, || {
        inner_integral_cpu_cached(&ip, &sl, &table)
    });
    bench(r, "inner_integral/cuda_model_cached", 10, || {
        inner_integral_batched_cuda_cached(&[&ip], &[true], &sl, 16, &table)
    });
    bench(r, "inner_integral/kokkos_model_cached", 10, || {
        inner_integral_batched_kokkos_cached(&[&ip], &[true], &sl, 16, &table, &PlainFactory)
    });
    let recompute = TensorTable::build(&ip, 0);
    bench(r, "inner_integral/cpu_recompute", 10, || {
        inner_integral_cpu_cached(&ip, &sl, &recompute)
    });

    let (coeffs, _) = inner_integral_cpu(&ip, &sl);
    let (ce, _) = landau_element_matrices(&space, &sl, &ip, &coeffs);
    let pat = csr_pattern(&space);
    bench(r, "assembly/transform_element_matrices", 20, || {
        landau_element_matrices(&space, &sl, &ip, &coeffs)
    });
    {
        let mut mats = vec![pat.clone(), pat.clone()];
        bench(r, "assembly/setvalues", 20, || {
            assemble_setvalues(&space, 2, &ce, &mut mats)
        });
    }
    {
        let mut mats = vec![pat.clone(), pat.clone()];
        bench(r, "assembly/atomic", 20, || {
            assemble_atomic(&space, 2, &ce, &mut mats)
        });
    }
    bench(r, "assembly/mass_kernel", 20, || {
        mass_element_matrices(&space, 2, &ip, 1.0)
    });

    let path = write_bench_json("BENCH_kernels.json", &results);
    println!("wrote {}", path.display());
}
