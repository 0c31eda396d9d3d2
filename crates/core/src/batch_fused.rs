//! The fused batched Newton orchestrator.
//!
//! The sequel paper (Adams, Wang, Knepley — batched linear solvers for the
//! Landau operator) replaces the per-vertex solve pipeline with *one* grid
//! launch per stage: every spatial vertex's Jacobian assembly runs in one
//! batched kernel over (lane, element) blocks, every banded factorization
//! runs in lockstep over a lane-minor SoA, and the triangular solves
//! stride vertices in the innermost dimension. This module is that
//! orchestrator for [`crate::batch::BatchedAdvance`]:
//!
//! * [`FusedWorkspace`] holds the reusable per-batch storage: the
//!   [`BatchedBandStorage`] (one band lane per live (vertex, species)
//!   pair, compacted to the low lanes each round), the precomputed
//!   CSR-entry → band-slot map, per-vertex matrix workspaces on the
//!   shared pattern, and the SoA right-hand-side.
//! * [`fused_macro_step`] advances every vertex by one macro step of `dt`
//!   with a per-vertex active mask: converged and failed vertices retire
//!   from subsequent fused launches without desynchronizing the rest.
//!
//! **Bitwise contract.** Per vertex, the lockstep iteration replays the
//! exact arithmetic of [`TimeIntegrator`]'s guarded step: both run the
//! same [`NewtonGuard`] for every convergence, failure and restore
//! decision, the batched kernels are per-lane bitwise equal to their
//! one-lane launches (tested in `kernels`), the slot map writes `M − γL`
//! values identical to `build_solver`'s clone/axpy/permute pipeline, and
//! the batched LU factor/solve is per-lane bitwise equal to
//! `BlockBandSolver` (tested in `landau-sparse`). A lane that fails its
//! lockstep attempt routes into the *identical* [`AdaptiveStepper`]
//! recovery policy (damped retry → Δt halving) that the host loop uses,
//! so the whole batch state is bitwise equal to the per-vertex reference
//! path.

use crate::kernels;
use crate::operator::Backend;
use crate::recover::{AdaptiveStepper, RecoveryFailure, RecoveryStats};
use crate::solver::{NewtonGuard, StepStats};
use landau_sparse::csr::Csr;
use landau_sparse::vecops;
use landau_sparse::BatchedBandStorage;
use landau_vgpu::fault::{
    FaultKind, SITE_BATCHED_FACTOR, SITE_BATCHED_JACOBIAN, SITE_BATCHED_SOLVE,
    SITE_LANDAU_JACOBIAN, SITE_LU_FACTOR,
};
use landau_vgpu::kokkos::PlainFactory;
use std::time::Instant;

/// Launch accounting for the fused path, folded into
/// [`crate::batch::BatchStats`] and published as `batch.launches` /
/// `batch.active_lanes` / `batch.retired_per_newton`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FusedCounters {
    /// Fused grid launches issued (kernel, factor and solve stages each
    /// count once per lockstep Newton iteration that ran them).
    pub launches: u64,
    /// Sum over fused kernel launches of the live-lane count — the
    /// occupancy numerator for the batched geometry.
    pub active_lane_sum: u64,
    /// Lockstep Newton iterations performed, summed over lanes.
    pub newton_lane_iters: u64,
    /// Lanes that retired (converged or failed) during lockstep.
    pub retired: u64,
    /// Lockstep Newton iterations (fused rounds, not lane-summed).
    pub newton_rounds: u64,
}

/// Reusable storage for the fused batched pipeline. Built once per batch
/// (all vertices share one mesh, species list, ordering and bandwidth)
/// and reused across every Newton iteration of every macro step — the
/// allocation-free inner loop is where the fused path's throughput win
/// over the host loop's per-iteration CSR machinery comes from.
pub(crate) struct FusedWorkspace {
    /// Dofs per species block.
    n: usize,
    /// Species count.
    ns: usize,
    /// Band lanes (`n_vertices · ns`), fixed for the life of the batch.
    n_lanes: usize,
    /// Band slot per permuted CSR entry, row-major over the permuted
    /// pattern (shared by every lane — one pattern per batch).
    slots: Vec<usize>,
    /// Original (unpermuted) flat value index per permuted CSR entry:
    /// `permuted.vals[k] == original.vals[origin[k]]`.
    origin: Vec<usize>,
    /// The solver ordering (copy of the integrators' shared permutation).
    perm: Vec<usize>,
    /// The lane-minor SoA band storage.
    band: BatchedBandStorage,
    /// SoA right-hand-side / solution: `x_soa[i * n_lanes + m]`.
    x_soa: Vec<f64>,
    /// Per-vertex per-species Jacobian workspaces on the shared pattern.
    /// The scatter zeroes entries first, so reuse is bitwise-safe.
    mats: Vec<Vec<Csr>>,
}

impl FusedWorkspace {
    /// Build the workspace for a batch of `steppers` (one per vertex).
    /// All vertices must share mesh, ordering and bandwidth — guaranteed
    /// by the batch constructor, asserted here.
    pub(crate) fn new(steppers: &[AdaptiveStepper]) -> Self {
        let ti0 = &steppers[0].ti;
        let n = ti0.op.n();
        let ns = ti0.op.species.len();
        let n_lanes = steppers.len() * ns;
        let bw = ti0.block_bandwidth;
        for st in steppers {
            assert_eq!(st.ti.perm, ti0.perm, "batch vertices must share ordering");
            assert_eq!(st.ti.block_bandwidth, bw);
        }
        let band = BatchedBandStorage::zeros(n, bw, bw, n_lanes);
        // Marker trick: a CSR whose values are their own flat indices,
        // pushed through the same symmetric permutation `build_solver`
        // applies, recovers (band slot, original value index) per entry —
        // the whole clone/axpy/permute/band-copy pipeline collapses to
        // one precomputed indirection.
        let mut marker = ti0.op.mass.clone();
        for (k, v) in marker.vals.iter_mut().enumerate() {
            *v = k as f64;
        }
        let pm = marker.permute_symmetric(&ti0.perm);
        let nnz = pm.vals.len();
        let mut slots = Vec::with_capacity(nnz);
        let mut origin = Vec::with_capacity(nnz);
        for i in 0..n {
            for k in pm.row_ptr[i]..pm.row_ptr[i + 1] {
                slots.push(band.slot_of(i, pm.col_idx[k]));
                origin.push(pm.vals[k] as usize);
            }
        }
        let mats = (0..steppers.len())
            .map(|_| vec![ti0.op.pattern().clone(); ns])
            .collect();
        FusedWorkspace {
            n,
            ns,
            n_lanes,
            slots,
            origin,
            perm: ti0.perm.clone(),
            band,
            x_soa: vec![0.0; n * n_lanes],
            mats,
        }
    }

    /// Write vertex `v`'s `ns` Jacobian blocks `M + neg_gamma · L_α` into
    /// the band lanes `dst .. dst+ns`, value-identical to `build_solver`'s
    /// `mass.clone() → axpy(−γ) → permute → band` chain. The caller must
    /// have zeroed those lanes (`reset_lanes`) first: factorization writes
    /// fill-in into band slots the sparse pattern leaves untouched.
    fn fill_vertex(&mut self, v: usize, dst: usize, mass: &Csr, neg_gamma: f64) {
        let FusedWorkspace {
            band,
            mats,
            slots,
            origin,
            ..
        } = self;
        for (a, la) in mats[v].iter().enumerate() {
            let m = dst + a;
            for (&slot, &o) in slots.iter().zip(origin.iter()) {
                band.write_slot(slot, m, mass.vals[o] + neg_gamma * la.vals[o]);
            }
        }
    }
}

/// One lane's Newton state inside the lockstep loop: the vertex's
/// [`NewtonGuard`] — the same guard `TimeIntegrator::step_guarded` runs —
/// plus its update buffer, so N vertices can interleave through the fused
/// stages. A lane retires from the lockstep once its guard is decided.
struct Lane {
    /// Vertex index in the batch.
    v: usize,
    guard: NewtonGuard,
    /// Newton update buffer.
    d: Vec<f64>,
}

/// Indices of the lanes still in the lockstep.
fn live_lanes(lanes: &[Lane]) -> Vec<usize> {
    (0..lanes.len())
        .filter(|&k| lanes[k].guard.is_live())
        .collect()
}

/// Outcome of one macro step for one vertex (`None` for vertices the
/// caller skipped).
pub(crate) type LaneOutcome = Option<Result<(StepStats, RecoveryStats), RecoveryFailure>>;

/// Advance every non-skipped vertex by one macro step of `dt`, executing
/// the Newton pipeline as fused batched launches with a per-vertex active
/// mask. Per vertex, the result (state bits, stats, recovery routing) is
/// identical to `AdaptiveStepper::advance` on that vertex alone.
pub(crate) fn fused_macro_step(
    steppers: &mut [AdaptiveStepper],
    states: &mut [Vec<f64>],
    skip: &[bool],
    ws: &mut FusedWorkspace,
    dt: f64,
    e_field: f64,
    counters: &mut FusedCounters,
) -> Vec<LaneOutcome> {
    let n_vertices = steppers.len();
    let mut outcomes: Vec<LaneOutcome> = (0..n_vertices).map(|_| None).collect();

    // Lanes whose recovery scale is already reduced take the subdivided
    // path directly — their substep sizes differ, so they cannot ride the
    // lockstep launches this macro step. This is exactly the host loop's
    // `advance` dispatch for `dt_scale < 1`.
    let mut lockstep: Vec<usize> = Vec::new();
    for v in 0..n_vertices {
        if skip[v] {
            continue;
        }
        if steppers[v].dt_scale < 1.0 {
            outcomes[v] = Some(steppers[v].advance(&mut states[v], dt, e_field, None));
        } else {
            lockstep.push(v);
        }
    }
    if lockstep.is_empty() {
        return outcomes;
    }

    // Shared launch configuration: the batch constructor guarantees every
    // vertex holds the same backend, blocking and shared tensor table.
    let op0 = &steppers[lockstep[0]].ti.op;
    let backend = op0.backend;
    let dim_x = op0.dim_x;
    let species = op0.species.clone();
    let table = op0
        .tensor_table()
        .expect("fused batch requires the shared tensor cache")
        .clone();

    let sp_step = landau_obs::span(landau_obs::names::STEP);
    let n_total = ws.n * ws.ns;

    // Per-lane entry bookkeeping (the prologue of `step_guarded`; batch
    // advances pass no source).
    let mut lanes: Vec<Lane> = lockstep
        .iter()
        .map(|&v| Lane {
            v,
            guard: NewtonGuard::begin(&mut steppers[v].ti, &states[v], e_field, None),
            d: vec![0.0; n_total],
        })
        .collect();

    // The lockstep Newton loop: one fused launch per stage per round.
    loop {
        // Enter the next iteration on every live lane; lanes whose Newton
        // budget is exhausted are classified and retire here.
        for lane in lanes.iter_mut() {
            if lane.guard.is_live() && !lane.guard.next_iteration(&steppers[lane.v].ti) {
                counters.retired += 1;
            }
        }
        let live = live_lanes(&lanes);
        if live.is_empty() {
            break;
        }
        let _sp_iter = landau_obs::span(landau_obs::names::NEWTON_ITER);
        counters.newton_rounds += 1;
        counters.newton_lane_iters += live.len() as u64;

        // Stage 1 — fused Jacobian build: pack every live lane, run ONE
        // batched inner-integral launch over all (lane, element) blocks,
        // then the per-lane transform/assemble tails.
        let sp_jb = landau_obs::span(landau_obs::names::JACOBIAN_BUILD);
        let t_kernel = Instant::now();
        for &k in &live {
            let st = &mut steppers[lanes[k].v];
            let space = st.ti.op.space.clone();
            st.ti.op.ipdata.pack(&space, &states[lanes[k].v]);
        }
        let active: Vec<bool> = lanes.iter().map(|l| l.guard.is_live()).collect();
        let (mut coeffs, tallies) = {
            let ips: Vec<&crate::ipdata::IpData> =
                lanes.iter().map(|l| &steppers[l.v].ti.op.ipdata).collect();
            let sp_bk = landau_obs::span(landau_obs::names::BATCH_KERNEL);
            let sp_k = landau_obs::span(landau_obs::names::KERNEL);
            let out = match backend {
                Backend::Cpu => {
                    kernels::inner_integral_batched_cpu_cached(&ips, &active, &species, &table)
                }
                Backend::CudaModel => kernels::inner_integral_batched_cuda_cached(
                    &ips, &active, &species, dim_x, &table,
                ),
                Backend::KokkosModel => kernels::inner_integral_batched_kokkos_cached(
                    &ips,
                    &active,
                    &species,
                    dim_x,
                    &table,
                    &PlainFactory,
                ),
            };
            drop(sp_k);
            drop(sp_bk);
            out
        };
        counters.launches += 1;
        counters.active_lane_sum += live.len() as u64;
        let t_kernel_share = t_kernel.elapsed().as_secs_f64() / live.len() as f64;
        for &k in &live {
            let v = lanes[k].v;
            let t0 = Instant::now();
            let st = &mut steppers[v];
            // Seeded fault injection: same per-device poll cadence as the
            // per-vertex `assemble` (one poll per lane per iteration).
            if let Some(f) = st
                .ti
                .op
                .device
                .poll_fault(SITE_LANDAU_JACOBIAN, coeffs[k].lanes())
            {
                coeffs[k].apply_fault(&f);
            }
            // The fused-launch-specific site: exists only on this path, so
            // plans can target the batched Jacobian stage without also
            // firing on the host loop. Disarmed polls are one relaxed load.
            if let Some(f) = st
                .ti
                .op
                .device
                .poll_fault(SITE_BATCHED_JACOBIAN, coeffs[k].lanes())
            {
                coeffs[k].apply_fault(&f);
            }
            st.ti
                .op
                .assemble_tail(&coeffs[k], tallies[k], &mut ws.mats[v], e_field);
            lanes[k].guard.stats.t_landau += t_kernel_share + t0.elapsed().as_secs_f64();
        }
        drop(sp_jb);

        // Stage 2 — per-lane residuals through the shared guard ladder.
        for &k in &live {
            let Lane { v, guard: g, .. } = &mut lanes[k];
            let v = *v;
            let sp_res = landau_obs::span(landau_obs::names::RESIDUAL);
            steppers[v].ti.residual(
                &ws.mats[v],
                &states[v],
                &g.fn_old,
                None,
                g.rhs_old.as_deref(),
                dt,
                g.theta,
                &mut g.r,
            );
            let rnorm = vecops::norm2(&g.r);
            drop(sp_res);
            if !g.check_residual(&steppers[v].ti, rnorm) {
                counters.retired += 1;
            }
        }
        let live = live_lanes(&lanes);
        if live.is_empty() {
            continue;
        }

        // Stage 3 — fused banded LU: refill the SoA band (`M − Δtθ L`)
        // for live lanes and factor every lane in one masked lockstep
        // sweep. A zero pivot retires only its own vertex.
        //
        // Live lanes are *compacted* into the low band lanes each round:
        // retirement scatters dead vertices across the batch, so without
        // compaction most lane tiles keep one straggler and the sweep
        // stays near full width. Packing the survivors keeps factor/solve
        // cost (and the refill write traffic) proportional to the live
        // count. Per-lane arithmetic is independent of lane position, so
        // the result bits are unchanged.
        let sp_bf = landau_obs::span(landau_obs::names::BATCH_FACTOR);
        let sp_f = landau_obs::span(landau_obs::names::FACTOR);
        let t_factor = Instant::now();
        ws.band.reset_lanes(live.len() * ws.ns);
        let mut cpos = vec![usize::MAX; lanes.len()];
        let mut mask = vec![false; ws.n_lanes];
        for (ci, &k) in live.iter().enumerate() {
            let v = lanes[k].v;
            let dst = ci * ws.ns;
            cpos[k] = dst;
            let neg_gamma = -(dt * lanes[k].guard.theta);
            ws.fill_vertex(v, dst, &steppers[v].ti.op.mass, neg_gamma);
            // Same per-device fault cadence as the host path's
            // `poll_fault(SITE_LU_FACTOR, n_blocks)` after build_solver.
            if let Some(f) = steppers[v].ti.op.device.poll_fault(SITE_LU_FACTOR, ws.ns) {
                if matches!(f.kind, FaultKind::SingularBlock) {
                    ws.band.poison(dst + f.index % ws.ns);
                }
            }
            // Fused-only factor site: a singular block injected here hits
            // the lockstep sweep without touching the host-loop oracle.
            if let Some(f) = steppers[v]
                .ti
                .op
                .device
                .poll_fault(SITE_BATCHED_FACTOR, ws.ns)
            {
                if matches!(f.kind, FaultKind::SingularBlock) {
                    ws.band.poison(dst + f.index % ws.ns);
                }
            }
            for a in 0..ws.ns {
                mask[dst + a] = true;
            }
        }
        let failed = ws.band.factor(&mask);
        counters.launches += 1;
        let t_factor_share = t_factor.elapsed().as_secs_f64() / live.len() as f64;
        for &k in &live {
            // First failing species block in block order — the same error
            // `BlockBandSolver::factor` reports.
            let factored = (0..ws.ns)
                .find_map(|a| failed[cpos[k] + a].map(|row| (a, row)))
                .map_or(Ok(()), Err);
            if !lanes[k].guard.check_factor(t_factor_share, factored) {
                counters.retired += 1;
                mask[cpos[k]..cpos[k] + ws.ns].fill(false);
            }
        }
        drop(sp_f);
        drop(sp_bf);
        let live = live_lanes(&lanes);
        if live.is_empty() {
            continue;
        }

        // Stage 4 — fused triangular solves over the lane-minor SoA, then
        // the per-lane Newton update `f ← f − J⁻¹R` (λ = 1, the plain
        // lockstep attempt; damping lives in the recovery routing).
        let sp_bs = landau_obs::span(landau_obs::names::BATCH_SOLVE);
        let sp_s = landau_obs::span(landau_obs::names::SOLVE);
        let t_solve = Instant::now();
        for &k in &live {
            let lane = &lanes[k];
            for a in 0..ws.ns {
                let m = cpos[k] + a;
                for i in 0..ws.n {
                    ws.x_soa[i * ws.n_lanes + m] = lane.guard.r[a * ws.n + ws.perm[i]];
                }
            }
        }
        ws.band.solve_into(&mut ws.x_soa, &mask);
        counters.launches += 1;
        let t_solve_share = t_solve.elapsed().as_secs_f64() / live.len() as f64;
        drop(sp_s);
        drop(sp_bs);
        for &k in &live {
            let lane = &mut lanes[k];
            lane.guard.stats.t_solve += t_solve_share;
            for a in 0..ws.ns {
                let m = cpos[k] + a;
                for i in 0..ws.n {
                    lane.d[a * ws.n + ws.perm[i]] = ws.x_soa[i * ws.n_lanes + m];
                }
            }
            // Fused-only solve site: corrupt the Newton update before the
            // finiteness guard, so an injected NaN is attributed as a
            // NonFinite solution and routed through recovery like any
            // hardware-corrupted triangular solve would be.
            if let Some(f) = steppers[lane.v]
                .ti
                .op
                .device
                .poll_fault(SITE_BATCHED_SOLVE, lane.d.len())
            {
                f.apply(&mut lane.d);
            }
            if !lane.guard.check_update(&lane.d) {
                counters.retired += 1;
                continue;
            }
            vecops::axpy(-1.0, &lane.d, &mut states[lane.v]);
            lane.guard.stats.newton_iters += 1;
        }
    }
    drop(sp_step);

    // Per-lane epilogue: the guard's monitor check and transactional
    // restore, then the `AdaptiveStepper` success/recovery routing of the
    // host fast path.
    for lane in lanes {
        let v = lane.v;
        let st = &mut steppers[v];
        let state = &mut states[v];
        let (stats, failure) = lane.guard.finish(&mut st.ti, state, dt, e_field, None);
        outcomes[v] = Some(match failure {
            None => {
                st.note_success(stats.newton_iters);
                st.commit_checkpoint(state);
                Ok((
                    stats,
                    RecoveryStats {
                        retried: 0,
                        substeps: 1,
                        dt_fraction_min: 1.0,
                    },
                ))
            }
            Some(e) => st.advance_recovering(state, dt, e_field, None, e, 1),
        });
    }
    outcomes
}
