//! Algorithm 1: the Landau Jacobian kernels in three programming styles,
//! plus the mass kernel and both assembly paths.
//!
//! The computation has two stages:
//!
//! 1. **Inner integral** (`O(N² S)`, lines 3–16): for every test
//!    integration point `i`, reduce over all field points `j` the Landau
//!    tensors contracted with the species-summed field data, producing the
//!    friction vector `G_K(i)` and diffusion tensor `G_D(i)`. The species
//!    sum was hoisted *inside* the inner integral (eq. 11), which is the
//!    paper's key loop optimization — the `β` loop touches packed field
//!    data only, so the leading term is species-count linear, not
//!    quadratic.
//! 2. **Transform & assemble** (`O(N N_b² S)`, lines 17–23): scale per
//!    species (`ν ẽ_α² m0/m_α` and `−ν ẽ_α² (m0/m_α)²`), map to the global
//!    basis, contract with the test/trial tabulations and scatter into the
//!    per-species element matrices.
//!
//! The three back-ends (plain CPU, CUDA model, Kokkos model) produce the
//! same `G` arrays up to floating-point association order; tests pin them
//! to ≤1e-12 relative difference.

use crate::ipdata::IpData;
use crate::registry::{KernelDims, KernelEntry, KernelRegistry, PolicyFamily, VerifyInput};
use crate::species::SpeciesList;
use crate::tensor::{landau_tensor_2d, TENSOR2D_FLOPS};
use crate::tensor_cache::{
    pair_flops_cached, CacheMode, CachedStream, TensorTable, TileScratch, PAIR_FLOPS_SAVED,
    STREAMS, TILE_BUILD_FLOPS_PER_PAIR,
};
use landau_fem::FemSpace;
use landau_par::prelude::*;
use landau_sparse::csr::{Csr, InsertMode};
use landau_vgpu::kokkos::{PlainFactory, Team, TeamFactory, TeamPolicy};
use landau_vgpu::symbolic::SymbolicCtx;
use landau_vgpu::{cuda_strided_reduce, Tally};

/// Output of the inner-integral stage: per integration point, the friction
/// vector `G_K` (2 components) and symmetric diffusion tensor `G_D`
/// (`[rr, rz, zz]`), *before* the per-species scaling.
#[derive(Clone, Debug)]
pub struct IpCoeffs {
    /// `G_K` per point.
    pub gk: Vec<[f64; 2]>,
    /// `G_D` per point (symmetric storage).
    pub gd: Vec<[f64; 3]>,
}

impl IpCoeffs {
    /// Zeroed coefficients for `n` points.
    pub fn zeros(n: usize) -> Self {
        IpCoeffs {
            gk: vec![[0.0; 2]; n],
            gd: vec![[0.0; 3]; n],
        }
    }

    /// Flat lane count (`5 · n`: two `G_K` and three `G_D` components per
    /// point) — the buffer size fault injection draws its lane from.
    pub fn lanes(&self) -> usize {
        2 * self.gk.len() + 3 * self.gd.len()
    }

    /// Apply an injected fault to one flat lane (lanes `[0, 2n)` map to
    /// `G_K`, `[2n, 5n)` to `G_D`). Called by the operator's kernel driver
    /// only when a [`landau_vgpu::FaultPlan`] is armed and due.
    pub fn apply_fault(&mut self, f: &landau_vgpu::InjectedFault) {
        let n = self.gk.len();
        if n == 0 {
            return;
        }
        let flat = f.index % (5 * n);
        let v: &mut f64 = if flat < 2 * n {
            &mut self.gk[flat % n][flat / n]
        } else {
            let r = flat - 2 * n;
            &mut self.gd[r % n][r / n]
        };
        match f.kind {
            landau_vgpu::FaultKind::Nan => *v = f64::NAN,
            landau_vgpu::FaultKind::Perturb { rel } => *v *= 1.0 + rel,
            landau_vgpu::FaultKind::SingularBlock => {}
        }
    }

    /// Max absolute relative difference against another coefficient set.
    pub fn max_rel_diff(&self, other: &IpCoeffs) -> f64 {
        let mut scale = 1e-300f64;
        for v in self.gk.iter().flatten().chain(self.gd.iter().flatten()) {
            scale = scale.max(v.abs());
        }
        let mut d = 0.0f64;
        for (a, b) in self
            .gk
            .iter()
            .flatten()
            .chain(self.gd.iter().flatten())
            .zip(other.gk.iter().flatten().chain(other.gd.iter().flatten()))
        {
            d = d.max((a - b).abs());
        }
        d / scale
    }
}

/// FLOPs per `(i, j)` tensor-contract pair (tensor eval + `β` accumulation +
/// `G` update), used for analytic counting. `s` is the species count.
#[inline]
pub fn pair_flops(s: usize) -> u64 {
    TENSOR2D_FLOPS + 6 * s as u64 + 19
}

#[inline]
fn pair_body(ri: f64, zi: f64, ip: &IpData, fk: &[f64], fd: &[f64], j: usize, acc: &mut [f64; 5]) {
    let t = landau_tensor_2d(ri, zi, ip.r[j], ip.z[j]);
    // Lines 5–8: species sums of field data (β loop over packed arrays).
    let mut tkr = 0.0;
    let mut tkz = 0.0;
    let mut td = 0.0;
    for (b, (&fkb, &fdb)) in fk.iter().zip(fd).enumerate() {
        let off = b * ip.n + j;
        tkr += fkb * ip.dfr[off];
        tkz += fkb * ip.dfz[off];
        td += fdb * ip.f[off];
    }
    // Lines 9–10: weighted accumulation.
    let w = ip.w[j];
    acc[0] += w * (t.k[0][0] * tkr + t.k[0][1] * tkz);
    acc[1] += w * (t.k[1][0] * tkr + t.k[1][1] * tkz);
    let wtd = w * td;
    acc[2] += wtd * t.d[0];
    acc[3] += wtd * t.d[1];
    acc[4] += wtd * t.d[2];
}

/// Inner integral, plain CPU style (the "common CPU code" of §III-D):
/// a parallel loop over test points, each scanning every field point.
pub fn inner_integral_cpu(ip: &IpData, species: &SpeciesList) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_iter_mut()
        .zip(out.gd.par_iter_mut())
        .enumerate()
        .map(|(i, (gk, gd))| {
            let (ri, zi) = (ip.r[i], ip.z[i]);
            let mut acc = [0.0f64; 5];
            for j in 0..n {
                if j == i {
                    continue; // the integrable self-interaction singularity
                }
                pair_body(ri, zi, ip, &fk, &fd, j, &mut acc);
            }
            *gk = [acc[0], acc[1]];
            *gd = [acc[2], acc[3], acc[4]];
            Tally {
                flops: (n as u64 - 1) * pair_flops(ip.ns),
                ..Default::default()
            }
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// Inner integral in the CUDA programming model (Algorithm 1): one block
/// per element; `threadIdx.y` indexes the element's integration points;
/// the x lanes run the strided loop over all `N` field points with
/// register partials combined by the warp-shuffle butterfly.
///
/// `dim_x` is `blockDim.x`; the paper picks the largest power of two with
/// `dim_x · N_q ≤ 256` (16 for Q3).
pub fn inner_integral_cuda_model(
    ip: &IpData,
    species: &SpeciesList,
    dim_x: usize,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let nq = ip.nq;
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            // Shared-memory staging: the block prefetches all β field terms
            // (the full packed stream) once per element.
            t.dram_read += ip.stream_bytes();
            t.shared_bytes += ip.stream_bytes();
            // threadIdx.y rows.
            for iq in 0..nq {
                let gi = e * nq + iq;
                let (ri, zi) = (ip.r[gi], ip.z[gi]);
                let acc: [f64; 5] = cuda_strided_reduce(dim_x, n, &mut t, |j, a| {
                    if j != gi {
                        pair_body(ri, zi, ip, &fk, &fd, j, a);
                    }
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            t.flops += (nq as u64) * (n as u64 - 1) * pair_flops(ip.ns);
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// Scratch budget of the staged Kokkos inner integral: the element-local
/// tile `[r | z | w | per species (f | df/dr | df/dz)]`, `nq` slots each.
/// This closure is the registry's single source of truth — the kernel
/// allocates exactly this, and the static verifier proves it fits every
/// device's shared memory across the whole policy family.
pub fn staging_scratch_budget(dims: &KernelDims, _policy: &TeamPolicy) -> usize {
    (3 + 3 * dims.ns) * dims.nq
}

/// Scratch budget of the cached Kokkos inner integral: the tile stream
/// lives in registers and the tensor table in global memory, so the
/// kernel allocates no team scratch at all.
pub fn cached_scratch_budget(_dims: &KernelDims, _policy: &TeamPolicy) -> usize {
    0
}

fn run_staged_symbolic(input: &VerifyInput, vector_length: usize, ctx: &SymbolicCtx) {
    let _ = inner_integral_kokkos_with(&input.ip, &input.species, vector_length, ctx);
}

fn run_batched_cached_symbolic(input: &VerifyInput, vector_length: usize, ctx: &SymbolicCtx) {
    // Two active lanes sharing one packed state: the smallest launch that
    // exercises the flattened (lane, element) league geometry.
    let ips = [&input.ip, &input.ip];
    let _ = inner_integral_batched_kokkos_cached(
        &ips,
        &[true, true],
        &input.species,
        vector_length,
        &input.table,
        ctx,
    );
}

/// Self-register this module's Team-based kernels with the static
/// verifier's registry. New Team kernels must be added here — the
/// verify-kernels gate proves exactly what is registered.
pub fn register(reg: &mut KernelRegistry) {
    reg.add(KernelEntry {
        name: "inner_integral_kokkos_staged",
        family: PolicyFamily::standard(),
        budget: staging_scratch_budget,
        run_symbolic: run_staged_symbolic,
    });
    reg.add(KernelEntry {
        name: "inner_integral_kokkos_batched_cached",
        family: PolicyFamily::standard(),
        budget: cached_scratch_budget,
        run_symbolic: run_batched_cached_symbolic,
    });
}

/// Inner integral in the Kokkos model: one league member per element, the
/// team over integration points, and the inner integral as a generic-object
/// `parallel_reduce` over a `ThreadVectorRange` (§III-D).
pub fn inner_integral_kokkos_model(
    ip: &IpData,
    species: &SpeciesList,
    vector_length: usize,
) -> (IpCoeffs, Tally) {
    inner_integral_kokkos_with(ip, species, vector_length, &PlainFactory)
}

/// The Kokkos-model inner integral, generic over the [`TeamFactory`] so
/// the identical kernel body runs under plain members *or* under the
/// access-logging members of `landau_vgpu::symbolic` that the static
/// verifier analyzes.
///
/// The element-local data (coordinates, weights, and the packed per-species
/// field terms at the element's own integration points) is cooperatively
/// staged into team scratch by the vector lanes, a team barrier orders the
/// staging against the reads, and each test point's reduction then
/// broadcast-reads its coordinates from scratch.
pub fn inner_integral_kokkos_with<F: TeamFactory>(
    ip: &IpData,
    species: &SpeciesList,
    vector_length: usize,
    factory: &F,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let n = ip.n;
    let nq = ip.nq;
    let ns = ip.ns;
    let policy = TeamPolicy {
        league_size: ip.n / nq,
        team_size: nq,
        vector_length,
    };
    let mut out = IpCoeffs::zeros(n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            t.dram_read += ip.stream_bytes();
            let mut member = factory.member(e, policy, &mut t);
            let lanes_n = policy.vector_length.max(1);
            // Kokkos scratch staging of the element-local data: layout is
            // [r | z | w | per species (f | df/dr | df/dz)], nq slots each.
            // The length comes from the registered budget closure so the
            // allocation cannot drift from the capacity proof (lint E007).
            let budget_slots = staging_scratch_budget(&KernelDims { nq, ns, n }, &policy);
            let mut sm = member.scratch(budget_slots);
            member.vector_for(budget_slots, |idx, lane| {
                let field = idx / nq;
                let gi = e * nq + idx % nq;
                let v = match field {
                    0 => ip.r[gi],
                    1 => ip.z[gi],
                    2 => ip.w[gi],
                    _ => {
                        let s = (field - 3) / 3;
                        match (field - 3) % 3 {
                            0 => ip.f[s * n + gi],
                            1 => ip.dfr[s * n + gi],
                            _ => ip.dfz[s * n + gi],
                        }
                    }
                };
                sm.write(lane, idx, v);
            });
            // Order the cooperative stores against the cross-lane reads.
            member.barrier();
            for iq in member.team_range() {
                let gi = e * nq + iq;
                // Every lane broadcast-reads the test-point coordinates
                // into its registers (all reads post-barrier, so ordered).
                let mut ri = 0.0;
                let mut zi = 0.0;
                for p in 0..lanes_n {
                    ri = sm.read(p, iq);
                    zi = sm.read(p, nq + iq);
                }
                let acc: [f64; 5] = member.vector_reduce(n, |j, a: &mut [f64; 5]| {
                    if j != gi {
                        pair_body(ri, zi, ip, &fk, &fd, j, a);
                    }
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            drop(member);
            t.flops += (nq as u64) * (n as u64 - 1) * pair_flops(ip.ns);
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// Inner integral over the geometry cache, plain CPU style: a parallel
/// loop over elements, each test point streaming every field-element tile
/// through [`CachedStream::accumulate`]. The uncached
/// [`inner_integral_cpu`] stays as the reference implementation.
pub fn inner_integral_cpu_cached(
    ip: &IpData,
    species: &SpeciesList,
    table: &TensorTable,
) -> (IpCoeffs, Tally) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    debug_assert!(table.matches(ip), "table geometry must match the ipdata");
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let nq = ip.nq;
    let ne = ip.n / nq;
    let stream = CachedStream {
        table,
        ip,
        fk: &fk,
        fd: &fd,
    };
    let mut out = IpCoeffs::zeros(ip.n);
    let tally: Tally = out
        .gk
        .par_chunks_mut(nq)
        .zip(out.gd.par_chunks_mut(nq))
        .enumerate()
        .map(|(e, (gke, gde))| {
            let mut t = Tally::new();
            let mut scratch = TileScratch::new(nq);
            for iq in 0..nq {
                let gi = e * nq + iq;
                let mut acc = [0.0f64; 5];
                for je in 0..ne {
                    stream.accumulate(gi, je, &mut scratch, &mut acc, &mut t);
                }
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (out, tally)
}

/// One flattened block of a batched launch: `(lane, element)` plus the
/// lane's per-element output slices. The grid of a fused launch is the
/// concatenation of every *active* lane's element range — exactly the
/// sequel paper's batched geometry, where blocks index (vertex, element)
/// pairs instead of one vertex owning a whole launch.
type BatchBlock<'a> = (usize, usize, &'a mut [[f64; 2]], &'a mut [[f64; 3]]);

/// Flatten the active lanes of a batch into per-(lane, element) blocks.
/// Inactive lanes contribute no blocks, so their (zeroed) coefficients and
/// tallies are never touched — retirement without desynchronization.
fn batch_blocks<'a>(
    ips: &[&IpData],
    active: &[bool],
    out: &'a mut [IpCoeffs],
) -> Vec<BatchBlock<'a>> {
    let mut blocks = Vec::new();
    for (l, o) in out.iter_mut().enumerate() {
        if !active[l] {
            continue;
        }
        let nq = ips[l].nq;
        for (e, (gke, gde)) in o.gk.chunks_mut(nq).zip(o.gd.chunks_mut(nq)).enumerate() {
            blocks.push((l, e, gke, gde));
        }
    }
    blocks
}

/// Lanes per cache block of the fused CPU sweep: wide enough that each
/// broadcast table tile amortizes over many lanes (and the lane loop
/// autovectorizes on a unit stride), narrow enough that the block's staged
/// species sums (`3 · n · LANE_BLOCK` doubles) stay cache-resident.
const LANE_BLOCK: usize = 64;

/// Closed-form tally of one lane of the cached inner integral — exactly
/// the charges [`inner_integral_cpu_cached`] accumulates tile by tile.
/// The fused CPU sweep streams each shared tile once per lane *block*, so
/// it cannot let [`TensorTable::tile`] meter per-lane traffic; instead it
/// charges every active lane this closed form, keeping per-lane accounting
/// identical to a standalone launch (the modeled device still reads its
/// own tiles — block-level reuse is a host-simulation artifact).
fn cached_lane_tally(ns: usize, table: &TensorTable) -> Tally {
    let n = table.n() as u64;
    let nq = table.nq() as u64;
    let ne = table.n_elements() as u64;
    let mut t = Tally::new();
    // One `accumulate` per (test point, tile): `nq · pair_flops_cached`.
    t.flops = n * ne * nq * pair_flops_cached(ns);
    // Off-diagonal pairs per test point sum to `n − 1` across its tiles.
    let pairs = n * (n - 1);
    match table.mode() {
        CacheMode::Cached => {
            let bytes = n * ne * (STREAMS as u64) * nq * 8;
            t.dram_read = bytes;
            t.cache_read = bytes;
            t.cache_flops_saved = pairs * PAIR_FLOPS_SAVED;
        }
        CacheMode::Recompute => {
            let build = pairs * TILE_BUILD_FLOPS_PER_PAIR;
            t.flops += build;
            t.cache_build_flops = build;
        }
    }
    t
}

/// Batched cached inner integral, plain CPU style: *one* fused sweep over
/// the shared [`TensorTable`] with lanes in the innermost (unit-stride)
/// dimension, processed in [`LANE_BLOCK`]-wide cache blocks. Each tile is
/// read once per block and broadcast across lanes, and the species-summed
/// field staging is hoisted out of the test-point loop (it depends only on
/// (lane, field point), so computing it once per lane — in the same
/// ascending species order — yields bitwise-identical staged values).
///
/// Per lane the arithmetic replays [`inner_integral_cpu_cached`] exactly:
/// tiles in ascending `je`, the `j % UNROLL` partial-sum slots of
/// [`CachedStream::accumulate`], and the fixed `(p0+p1)+(p2+p3)` fold per
/// tile — so each lane's coefficients are bitwise equal to a standalone
/// per-lane call. Per-lane tallies come from [`cached_lane_tally`] and
/// match the standalone launch exactly.
pub fn inner_integral_batched_cpu_cached(
    ips: &[&IpData],
    active: &[bool],
    species: &SpeciesList,
    table: &TensorTable,
) -> (Vec<IpCoeffs>, Vec<Tally>) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    assert_eq!(ips.len(), active.len());
    debug_assert!(
        ips.iter().all(|ip| table.matches(ip)),
        "table geometry must match every lane's ipdata"
    );
    use crate::tensor_cache::UNROLL;
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let mut out: Vec<IpCoeffs> = ips.iter().map(|ip| IpCoeffs::zeros(ip.n)).collect();
    let mut tallies = vec![Tally::new(); ips.len()];
    let n = table.n();
    let nq = table.nq();
    let ne = table.n_elements();
    // Active lanes with their outputs; inactive lanes stay zeroed with
    // empty tallies, exactly as if they contributed no blocks.
    let mut act: Vec<(usize, &mut IpCoeffs)> = out
        .iter_mut()
        .enumerate()
        .filter(|(l, _)| active[*l])
        .collect();
    let block_tallies: Vec<Vec<(usize, Tally)>> = act
        .par_chunks_mut(LANE_BLOCK)
        .map(|chunk| {
            let lb = chunk.len();
            // Hoisted species staging, lane-minor SoA: `tkr[j·lb + q]` is
            // lane `q`'s staged K_r sum at field point `j`. Same ascending
            // species accumulation order as the per-tile staging in
            // `accumulate`, so the values are bitwise identical.
            let mut tkr = vec![0.0f64; n * lb];
            let mut tkz = vec![0.0f64; n * lb];
            let mut td = vec![0.0f64; n * lb];
            for (q, (l, _)) in chunk.iter().enumerate() {
                let ip = ips[*l];
                for (b, (&fkb, &fdb)) in fk.iter().zip(&fd).enumerate() {
                    let off = b * n;
                    for j in 0..n {
                        tkr[j * lb + q] += fkb * ip.dfr[off + j];
                        tkz[j * lb + q] += fkb * ip.dfz[off + j];
                        td[j * lb + q] += fdb * ip.f[off + j];
                    }
                }
            }
            let mut tile_buf = vec![0.0f64; STREAMS * nq];
            // Tile charges land here once per block; per-lane accounting
            // is the closed form below, so this is deliberately discarded.
            let mut tile_tally = Tally::new();
            // Partial-sum rows `p[(slot·5 + component)·lb + q]` replicate
            // the per-lane UNROLL fold: slot `j % UNROLL` within a tile.
            let mut p = vec![0.0f64; 5 * UNROLL * lb];
            let mut acc = vec![0.0f64; 5 * lb];
            for i in 0..n {
                acc.fill(0.0);
                for je in 0..ne {
                    let streams = table.tile(i, je, &mut tile_buf, &mut tile_tally);
                    p.fill(0.0);
                    for jj in 0..nq {
                        let slot = jj % UNROLL;
                        let j0 = (je * nq + jj) * lb;
                        let k00 = streams[jj];
                        let k01 = streams[nq + jj];
                        let k10 = streams[2 * nq + jj];
                        let k11 = streams[3 * nq + jj];
                        let d0 = streams[4 * nq + jj];
                        let d1 = streams[5 * nq + jj];
                        let d2 = streams[6 * nq + jj];
                        let tkr_j = &tkr[j0..j0 + lb];
                        let tkz_j = &tkz[j0..j0 + lb];
                        let td_j = &td[j0..j0 + lb];
                        let row = &mut p[slot * 5 * lb..(slot + 1) * 5 * lb];
                        let (p0, rest) = row.split_at_mut(lb);
                        let (p1, rest) = rest.split_at_mut(lb);
                        let (p2, rest) = rest.split_at_mut(lb);
                        let (p3, p4) = rest.split_at_mut(lb);
                        for q in 0..lb {
                            p0[q] += k00 * tkr_j[q] + k01 * tkz_j[q];
                            p1[q] += k10 * tkr_j[q] + k11 * tkz_j[q];
                            p2[q] += d0 * td_j[q];
                            p3[q] += d1 * td_j[q];
                            p4[q] += d2 * td_j[q];
                        }
                    }
                    // Fold the four partials per (component, lane) in the
                    // fixed (p0+p1)+(p2+p3) order of the per-lane kernel.
                    for c in 0..5 {
                        let a = &mut acc[c * lb..(c + 1) * lb];
                        for (q, aq) in a.iter_mut().enumerate() {
                            let s01 = p[c * lb + q] + p[(5 + c) * lb + q];
                            let s23 = p[(2 * 5 + c) * lb + q] + p[(3 * 5 + c) * lb + q];
                            *aq += s01 + s23;
                        }
                    }
                }
                for (q, (_, o)) in chunk.iter_mut().enumerate() {
                    o.gk[i] = [acc[q], acc[lb + q]];
                    o.gd[i] = [acc[2 * lb + q], acc[3 * lb + q], acc[4 * lb + q]];
                }
            }
            chunk
                .iter()
                .map(|(l, _)| (*l, cached_lane_tally(species.len(), table)))
                .collect()
        })
        .collect();
    for v in block_tallies {
        for (l, t) in v {
            tallies[l] = t;
        }
    }
    (out, tallies)
}

/// Cached inner integral in the CUDA programming model: one grid whose
/// blocks index (lane, element) pairs. Each block is the uncached
/// [`inner_integral_cuda_model`] block of its lane, except that the x lanes
/// stride field-element *tiles* instead of points, each streaming whole
/// tiles from the table with register partials joined by the shuffle
/// butterfly. A single vertex is the one-lane launch `(&[ip], &[true])`.
pub fn inner_integral_batched_cuda_cached(
    ips: &[&IpData],
    active: &[bool],
    species: &SpeciesList,
    dim_x: usize,
    table: &TensorTable,
) -> (Vec<IpCoeffs>, Vec<Tally>) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    assert_eq!(ips.len(), active.len());
    debug_assert!(
        ips.iter().all(|ip| table.matches(ip)),
        "table geometry must match every lane's ipdata"
    );
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let mut out: Vec<IpCoeffs> = ips.iter().map(|ip| IpCoeffs::zeros(ip.n)).collect();
    let blocks = batch_blocks(ips, active, &mut out);
    let pairs: Vec<(usize, Tally)> = blocks
        .into_par_iter()
        .map(|(l, e, gke, gde)| {
            let ip = ips[l];
            let stream = CachedStream {
                table,
                ip,
                fk: &fk,
                fd: &fd,
            };
            let nq = ip.nq;
            let ne = ip.n / nq;
            let mut t = Tally::new();
            // Each block still prefetches its lane's packed field stream
            // once for the species staging.
            t.dram_read += ip.stream_bytes();
            t.shared_bytes += ip.stream_bytes();
            let mut tb = Tally::new();
            let mut scratch = TileScratch::new(nq);
            for iq in 0..nq {
                let gi = e * nq + iq;
                let acc: [f64; 5] = cuda_strided_reduce(dim_x, ne, &mut t, |je, a| {
                    stream.accumulate(gi, je, &mut scratch, a, &mut tb);
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            t.merge(&tb);
            (l, t)
        })
        .collect();
    let mut tallies = vec![Tally::new(); ips.len()];
    for (l, t) in pairs {
        tallies[l] = tallies[l] + t;
    }
    (out, tallies)
}

/// Cached inner integral in the Kokkos model: *one* league whose members
/// are the flattened (lane, element) blocks of every active lane, team
/// over integration points, tile sweep as a `parallel_reduce` over
/// `ThreadVectorRange(0, N_e)`. The reduction tree depends only on the
/// vector length and trip count — never on the league rank — so each
/// lane's output is bitwise equal to its one-lane launch, whose league is
/// the elements. Unlike the uncached kernel no coordinate staging is
/// needed — the table already encodes the test-point geometry. Generic
/// over the [`TeamFactory`] so the symbolic member can prove the batched
/// geometry too.
pub fn inner_integral_batched_kokkos_cached<F: TeamFactory>(
    ips: &[&IpData],
    active: &[bool],
    species: &SpeciesList,
    vector_length: usize,
    table: &TensorTable,
    factory: &F,
) -> (Vec<IpCoeffs>, Vec<Tally>) {
    let _sp = landau_obs::span(landau_obs::names::INNER_INTEGRAL);
    assert_eq!(ips.len(), active.len());
    debug_assert!(
        ips.iter().all(|ip| table.matches(ip)),
        "table geometry must match every lane's ipdata"
    );
    let fk = species.k_field_factors();
    let fd = species.d_field_factors();
    let mut out: Vec<IpCoeffs> = ips.iter().map(|ip| IpCoeffs::zeros(ip.n)).collect();
    let blocks = batch_blocks(ips, active, &mut out);
    let league_size = blocks.len();
    let pairs: Vec<(usize, Tally)> = blocks
        .into_par_iter()
        .enumerate()
        .map(|(rank, (l, e, gke, gde))| {
            let ip = ips[l];
            let stream = CachedStream {
                table,
                ip,
                fk: &fk,
                fd: &fd,
            };
            let nq = ip.nq;
            let ne = ip.n / nq;
            let policy = TeamPolicy {
                league_size,
                team_size: nq,
                vector_length,
            };
            let mut t = Tally::new();
            t.dram_read += ip.stream_bytes();
            let mut tb = Tally::new();
            let mut scratch = TileScratch::new(nq);
            let mut member = factory.member(rank, policy, &mut t);
            for iq in member.team_range() {
                let gi = e * nq + iq;
                let acc: [f64; 5] = member.vector_reduce(ne, |je, a: &mut [f64; 5]| {
                    stream.accumulate(gi, je, &mut scratch, a, &mut tb);
                });
                gke[iq] = [acc[0], acc[1]];
                gde[iq] = [acc[2], acc[3], acc[4]];
            }
            drop(member);
            t.merge(&tb);
            (l, t)
        })
        .collect();
    let mut tallies = vec![Tally::new(); ips.len()];
    for (l, t) in pairs {
        tallies[l] = tallies[l] + t;
    }
    (out, tallies)
}

/// Transform & assemble (lines 13–23): build the per-species element
/// matrices from the inner-integral coefficients.
///
/// Returns `ce[e][α][b_test][b_trial]` flattened, plus the stage tally.
pub fn landau_element_matrices(
    space: &FemSpace,
    species: &SpeciesList,
    ip: &IpData,
    coeffs: &IpCoeffs,
) -> (Vec<f64>, Tally) {
    let _sp = landau_obs::span(landau_obs::names::ELEMENT_MATRICES);
    let ns = species.len();
    let nb = space.tab.nb;
    let nq = space.tab.nq;
    let block = ns * nb * nb;
    let mut ce = vec![0.0; space.n_elements() * block];
    // Per-species scale factors (ν = 1 in nondimensional units).
    let kscale: Vec<f64> = species
        .list
        .iter()
        .map(|s| s.charge * s.charge / s.mass)
        .collect();
    let dscale: Vec<f64> = species
        .list
        .iter()
        .map(|s| -s.charge * s.charge / (s.mass * s.mass))
        .collect();
    let tally: Tally = ce
        .par_chunks_mut(block)
        .enumerate()
        .map(|(e, cee)| {
            let el = &space.elements[e];
            let gs = el.grad_scale();
            let mut t = Tally::new();
            for q in 0..nq {
                let gi = e * nq + q;
                let w = ip.w[gi];
                let gk = coeffs.gk[gi];
                let gd = coeffs.gd[gi];
                let b = &space.tab.b[q * nb..(q + 1) * nb];
                let dx = &space.tab.dxi[q * nb..(q + 1) * nb];
                let dy = &space.tab.deta[q * nb..(q + 1) * nb];
                for (a, (&ks, &ds)) in kscale.iter().zip(&dscale).enumerate() {
                    // Lines 14–15 & 19–20: species scaling and the map to
                    // the global basis (diagonal J ⇒ scale by 2/h).
                    let kvec = [w * ks * gk[0], w * ks * gk[1]];
                    let dmat = [w * ds * gd[0], w * ds * gd[1], w * ds * gd[2]];
                    let cea = &mut cee[a * nb * nb..(a + 1) * nb * nb];
                    for bt in 0..nb {
                        let gtr = gs * dx[bt];
                        let gtz = gs * dy[bt];
                        let kdot = gtr * kvec[0] + gtz * kvec[1];
                        let dr = gtr * dmat[0] + gtz * dmat[1];
                        let dz = gtr * dmat[1] + gtz * dmat[2];
                        let row = &mut cea[bt * nb..(bt + 1) * nb];
                        for bj in 0..nb {
                            row[bj] += kdot * b[bj] + gs * (dr * dx[bj] + dz * dy[bj]);
                        }
                    }
                }
            }
            t.flops += (nq * ns * nb * (8 + nb * 6)) as u64;
            t.dram_write += (block * 8) as u64;
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (ce, tally)
}

/// Mass-kernel element matrices: `C ← Transform&Assemble(w[gi]·s, 0, 0)` —
/// the scaled mass matrix the time integrator adds each stage (§V-A1).
/// The matrix is species-independent; it is replicated per species to match
/// the paper's kernel (which writes all `S` blocks).
pub fn mass_element_matrices(
    space: &FemSpace,
    ns: usize,
    ip: &IpData,
    shift: f64,
) -> (Vec<f64>, Tally) {
    let _sp = landau_obs::span(landau_obs::names::MASS_ELEMENTS);
    let nb = space.tab.nb;
    let nq = space.tab.nq;
    let block = ns * nb * nb;
    let mut ce = vec![0.0; space.n_elements() * block];
    let tally: Tally = ce
        .par_chunks_mut(block)
        .enumerate()
        .map(|(e, cee)| {
            let mut t = Tally::new();
            // The mass kernel reads only the weights (low AI by design).
            t.dram_read += (nq * 8) as u64;
            for q in 0..nq {
                let gi = e * nq + q;
                let w = ip.w[gi] * shift;
                let b = &space.tab.b[q * nb..(q + 1) * nb];
                for bt in 0..nb {
                    let wb = w * b[bt];
                    for bj in 0..nb {
                        cee[bt * nb + bj] += wb * b[bj];
                    }
                }
            }
            // Replicate for the other species blocks.
            let (first, rest) = cee.split_at_mut(nb * nb);
            for a in 1..ns {
                rest[(a - 1) * nb * nb..a * nb * nb].copy_from_slice(first);
            }
            t.flops += (nq * nb * (1 + 2 * nb)) as u64;
            t.dram_write += (block * 8) as u64;
            t
        })
        .reduce(Tally::new, |a, b| a + b);
    (ce, tally)
}

/// CPU assembly path (`MatSetValues`, §III-F): scatter the element matrices
/// into per-species CSR matrices. Species are independent, so the scatter
/// parallelizes over species without contention.
pub fn assemble_setvalues(space: &FemSpace, ns: usize, ce: &[f64], mats: &mut [Csr]) {
    let _sp = landau_obs::span(landau_obs::names::SCATTER);
    let nb = space.tab.nb;
    let block = ns * nb * nb;
    assert_eq!(mats.len(), ns);
    mats.par_iter_mut().enumerate().for_each(|(a, m)| {
        m.zero_entries();
        for (e, el) in space.elements.iter().enumerate() {
            let cea = &ce[e * block + a * nb * nb..e * block + (a + 1) * nb * nb];
            landau_fem::scatter_element_matrix(el, cea, m, InsertMode::Add);
        }
    });
}

/// Graph-coloring assembly (the second §III-F strategy): colors assemble
/// one after another, elements within a color concurrently, with *no*
/// atomics — each color's elements touch disjoint dofs. We emulate the
/// concurrency structure; on the host the scatter within a color is a
/// plain loop (the safety property is what the test checks).
pub fn assemble_colored(
    space: &FemSpace,
    ns: usize,
    ce: &[f64],
    mats: &mut [Csr],
    batches: &[Vec<usize>],
) {
    let _sp = landau_obs::span(landau_obs::names::SCATTER);
    let nb = space.tab.nb;
    let block = ns * nb * nb;
    assert_eq!(mats.len(), ns);
    mats.par_iter_mut().enumerate().for_each(|(a, m)| {
        m.zero_entries();
        for color in batches {
            for &e in color {
                let el = &space.elements[e];
                let cea = &ce[e * block + a * nb * nb..e * block + (a + 1) * nb * nb];
                landau_fem::scatter_element_matrix(el, cea, m, InsertMode::Add);
            }
        }
    });
}

/// Device assembly path (atomics, the released PETSc GPU approach):
/// elements scatter concurrently, resolving contention with f64 atomic
/// adds. Returns the atomic-add count (charged a penalty on hardware
/// without native f64 atomics, §V-D1).
pub fn assemble_atomic(space: &FemSpace, ns: usize, ce: &[f64], mats: &mut [Csr]) -> Tally {
    let _sp = landau_obs::span(landau_obs::names::SCATTER);
    let nb = space.tab.nb;
    let block = ns * nb * nb;
    assert_eq!(mats.len(), ns);
    let mut tally = Tally::new();
    for (a, m) in mats.iter_mut().enumerate() {
        m.zero_entries();
        let (row_ptr, col_idx, vals) = m.atomic_view();
        let n_atomics: u64 = space
            .elements
            .par_iter()
            .enumerate()
            .map(|(e, el)| {
                let cea = &ce[e * block + a * nb * nb..e * block + (a + 1) * nb * nb];
                let mut count = 0u64;
                for (bi, ni) in el.nodes.iter().enumerate() {
                    for (bj, nj) in el.nodes.iter().enumerate() {
                        let v = cea[bi * nb + bj];
                        if v == 0.0 {
                            continue;
                        }
                        for &(di, wi) in &ni.terms {
                            for &(dj, wj) in &nj.terms {
                                let lo = row_ptr[di];
                                let hi = row_ptr[di + 1];
                                let k = lo
                                    + col_idx[lo..hi]
                                        .binary_search(&dj)
                                        .expect("entry in pattern");
                                vals[k].fetch_add(wi * wj * v);
                                count += 1;
                            }
                        }
                    }
                }
                count
            })
            .sum();
        tally.atomics += n_atomics;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::SpeciesList;
    use landau_fem::assemble::csr_pattern;
    use landau_mesh::presets::uniform_mesh;

    fn setup() -> (FemSpace, SpeciesList, IpData) {
        let space = FemSpace::new(uniform_mesh(3.0, 1), 2);
        // Two species whose thermal scales the coarse test mesh resolves
        // (a deuterium Maxwellian would be an unresolved spike here).
        let sl = SpeciesList::new(vec![
            crate::species::Species::electron(),
            crate::species::Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 0.5,
                temperature: 2.0,
            },
        ]);
        let mut ip = IpData::new(&space, &sl);
        let nd = space.n_dofs;
        let mut state = vec![0.0; 2 * nd];
        for (s, sp) in sl.list.iter().enumerate() {
            let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) + 0.01);
            state[s * nd..(s + 1) * nd].copy_from_slice(&v);
        }
        ip.pack(&space, &state);
        (space, sl, ip)
    }

    #[test]
    fn backends_agree() {
        let (_space, sl, ip) = setup();
        let (cpu, t_cpu) = inner_integral_cpu(&ip, &sl);
        let (cuda, t_cuda) = inner_integral_cuda_model(&ip, &sl, 16);
        let (kk, _t_kk) = inner_integral_kokkos_model(&ip, &sl, 8);
        assert!(
            cpu.max_rel_diff(&cuda) < 1e-12,
            "{}",
            cpu.max_rel_diff(&cuda)
        );
        assert!(cpu.max_rel_diff(&kk) < 1e-12, "{}", cpu.max_rel_diff(&kk));
        // Same flop model, CUDA counts shuffles.
        assert_eq!(t_cpu.flops, t_cuda.flops);
        assert!(t_cuda.shuffles > 0);
        assert!(t_cpu.shuffles == 0);
    }

    #[test]
    fn coefficients_decay_away_from_bulk() {
        // G_D is an integral of f against a decaying kernel: points far from
        // the Maxwellian bulk see smaller diffusion.
        let (_space, sl, ip) = setup();
        let (c, _) = inner_integral_cpu(&ip, &sl);
        let near = (0..ip.n)
            .min_by(|&a, &b| {
                let ra = ip.r[a].hypot(ip.z[a]);
                let rb = ip.r[b].hypot(ip.z[b]);
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        let far = (0..ip.n)
            .max_by(|&a, &b| {
                let ra = ip.r[a].hypot(ip.z[a]);
                let rb = ip.r[b].hypot(ip.z[b]);
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        assert!(c.gd[near][0] > c.gd[far][0]);
        assert!(c.gd[near][2] > 0.0, "diffusion is positive");
    }

    #[test]
    fn assembly_paths_agree() {
        let (space, sl, ip) = setup();
        let (coeffs, _) = inner_integral_cpu(&ip, &sl);
        let (ce, _) = landau_element_matrices(&space, &sl, &ip, &coeffs);
        let pat = csr_pattern(&space);
        let mut a1 = vec![pat.clone(), pat.clone()];
        let mut a2 = vec![pat.clone(), pat.clone()];
        assemble_setvalues(&space, 2, &ce, &mut a1);
        let t = assemble_atomic(&space, 2, &ce, &mut a2);
        assert!(t.atomics > 0);
        for s in 0..2 {
            for (v1, v2) in a1[s].vals.iter().zip(&a2[s].vals) {
                assert!((v1 - v2).abs() < 1e-12 * (1.0 + v1.abs()));
            }
        }
    }

    #[test]
    fn density_row_is_conserved() {
        // ψ = 1 ⇒ ∇ψ = 0 ⇒ the operator's action tested against the
        // constant function vanishes: 1ᵀ L f = 0 exactly per species.
        let (space, sl, ip) = setup();
        let (coeffs, _) = inner_integral_cpu(&ip, &sl);
        let (ce, _) = landau_element_matrices(&space, &sl, &ip, &coeffs);
        let pat = csr_pattern(&space);
        let mut mats = vec![pat.clone(), pat.clone()];
        assemble_setvalues(&space, 2, &ce, &mut mats);
        // Column sums of L (= 1ᵀL) must vanish.
        for m in &mats {
            let ones = vec![1.0; m.n_rows];
            // 1ᵀ L = column sums: compute Lᵀ·1 via iterating entries.
            let mut colsum = vec![0.0; m.n_cols];
            for i in 0..m.n_rows {
                for k in m.row_ptr[i]..m.row_ptr[i + 1] {
                    colsum[m.col_idx[k]] += m.vals[k];
                }
            }
            let scale: f64 = m.vals.iter().map(|v| v.abs()).fold(0.0, f64::max);
            for (j, c) in colsum.iter().enumerate() {
                assert!(c.abs() < 1e-11 * scale, "column {j}: {c} (scale {scale})");
            }
            let _ = ones;
        }
    }

    #[test]
    fn mass_kernel_matches_fem_assembly() {
        let (space, sl, ip) = setup();
        let (ce, t) = mass_element_matrices(&space, sl.len(), &ip, 2.5);
        assert!(t.flops > 0);
        let pat = csr_pattern(&space);
        let mut mats = vec![pat.clone(), pat.clone()];
        assemble_setvalues(&space, 2, &ce, &mut mats);
        let mref = landau_fem::assemble_mass_matrix(&space);
        for mat in mats.iter().take(2) {
            for (v, r) in mat.vals.iter().zip(&mref.vals) {
                assert!((v - 2.5 * r).abs() < 1e-11 * (1.0 + r.abs()));
            }
        }
    }

    #[test]
    fn cached_backends_agree_with_reference() {
        let (_space, sl, ip) = setup();
        let table = TensorTable::build(&ip, usize::MAX);
        let (cpu, t_ref) = inner_integral_cpu(&ip, &sl);
        let (ccpu, t_cc) = inner_integral_cpu_cached(&ip, &sl, &table);
        let (ccuda, t_cu) = inner_integral_batched_cuda_cached(&[&ip], &[true], &sl, 16, &table);
        let (ckk, _) =
            inner_integral_batched_kokkos_cached(&[&ip], &[true], &sl, 8, &table, &PlainFactory);
        let (ccuda, t_cu, ckk) = (&ccuda[0], t_cu[0], &ckk[0]);
        assert!(
            cpu.max_rel_diff(&ccpu) < 1e-14,
            "{}",
            cpu.max_rel_diff(&ccpu)
        );
        assert!(
            cpu.max_rel_diff(ccuda) < 1e-14,
            "{}",
            cpu.max_rel_diff(ccuda)
        );
        assert!(cpu.max_rel_diff(ckk) < 1e-14, "{}", cpu.max_rel_diff(ckk));
        // Streaming the table trades tensor flops for table bytes.
        assert!(t_cc.flops < t_ref.flops / 4);
        assert!(t_cc.cache_read > 0 && t_cc.cache_flops_saved > 0);
        assert!(t_cu.shuffles > 0);
    }

    #[test]
    fn cached_kernels_match_under_forced_recompute() {
        let (_space, sl, ip) = setup();
        let full = TensorTable::build(&ip, usize::MAX);
        let re = TensorTable::build(&ip, 0);
        let (a, _) = inner_integral_cpu_cached(&ip, &sl, &full);
        let (b, t_re) = inner_integral_cpu_cached(&ip, &sl, &re);
        // Identical streaming arithmetic either side: bitwise equal.
        for (x, y) in a.gk.iter().flatten().zip(b.gk.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.gd.iter().flatten().zip(b.gd.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(t_re.cache_build_flops > 0 && t_re.cache_read == 0);
    }

    #[test]
    fn batched_cached_kernels_match_per_lane_bitwise() {
        let (space, sl, ip) = setup();
        let table = TensorTable::build(&ip, usize::MAX);
        // A second lane with a different packed state so the lanes are
        // distinguishable and cross-lane bleed would be caught.
        let nd = space.n_dofs;
        let mut state = vec![0.0; 2 * nd];
        for (s, sp) in sl.list.iter().enumerate() {
            let v = space.interpolate(|r, z| sp.maxwellian(r, z, 0.0) * 1.1 + 0.02);
            state[s * nd..(s + 1) * nd].copy_from_slice(&v);
        }
        let mut ip2 = IpData::new(&space, &sl);
        ip2.pack(&space, &state);
        let ips = [&ip, &ip2];
        let active = [true, true];

        let (b_cpu, t_cpu) = inner_integral_batched_cpu_cached(&ips, &active, &sl, &table);
        let (b_cuda, t_cuda) = inner_integral_batched_cuda_cached(&ips, &active, &sl, 16, &table);
        let (b_kk, t_kk) =
            inner_integral_batched_kokkos_cached(&ips, &active, &sl, 8, &table, &PlainFactory);
        for (l, &ipl) in ips.iter().enumerate() {
            // References are one-lane launches, so this pins lane
            // independence: a lane's bits and tallies do not depend on
            // which other lanes share the launch.
            let (r_cpu, rt_cpu) = inner_integral_cpu_cached(ipl, &sl, &table);
            let (r_cuda, rt_cuda) =
                inner_integral_batched_cuda_cached(&[ipl], &[true], &sl, 16, &table);
            let (r_kk, rt_kk) = inner_integral_batched_kokkos_cached(
                &[ipl],
                &[true],
                &sl,
                8,
                &table,
                &PlainFactory,
            );
            for (a, b) in [
                (&b_cpu[l], &r_cpu),
                (&b_cuda[l], &r_cuda[0]),
                (&b_kk[l], &r_kk[0]),
            ] {
                for (x, y) in a.gk.iter().flatten().zip(b.gk.iter().flatten()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                for (x, y) in a.gd.iter().flatten().zip(b.gd.iter().flatten()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            // Per-lane tallies match the one-lane launches exactly (u64
            // counters, order-independent sums).
            assert_eq!(t_cpu[l], rt_cpu);
            assert_eq!(t_cuda[l], rt_cuda[0]);
            assert_eq!(t_kk[l], rt_kk[0]);
        }
    }

    #[test]
    fn batched_kernel_skips_inactive_lanes() {
        let (_space, sl, ip) = setup();
        let table = TensorTable::build(&ip, usize::MAX);
        let ips = [&ip, &ip];
        let (out, tallies) = inner_integral_batched_cpu_cached(&ips, &[true, false], &sl, &table);
        assert!(out[1].gk.iter().flatten().all(|&v| v == 0.0));
        assert!(out[1].gd.iter().flatten().all(|&v| v == 0.0));
        assert_eq!(tallies[1], Tally::new());
        // The active lane still computes the full result.
        let (reference, t_ref) = inner_integral_cpu_cached(&ip, &sl, &table);
        for (x, y) in out[0]
            .gk
            .iter()
            .flatten()
            .zip(reference.gk.iter().flatten())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(tallies[0], t_ref);
    }

    #[test]
    fn flop_model_scales_quadratically() {
        let (_space, sl, ip) = setup();
        let (_c, t) = inner_integral_cpu(&ip, &sl);
        let n = ip.n as u64;
        assert_eq!(t.flops, n * (n - 1) * pair_flops(2));
    }
}
