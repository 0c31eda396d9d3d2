//! Layer probes: timed calls into each layer's public functions on a
//! workload's own operator and state.

use crate::stats::{time_each, time_ms};
use crate::trace::Tracer;
use landau_core::batch::{BatchStats, BatchedAdvance};
use landau_core::ipdata::IpData;
use landau_core::kernels;
use landau_core::operator::LandauOperator;
use landau_core::tensor_cache::{TensorTable, DEFAULT_BUDGET_BYTES};
use landau_fem::FemSpace;
use landau_sparse::band::BlockBandSolver;
use landau_sparse::{bandwidth, rcm_order, BandMatrix, BatchedBandStorage, Csr};
use std::time::Instant;

/// The dof ordering `TimeIntegrator::new` picks: the smaller band of RCM
/// and the geometric (z, then r) sweep, RCM on a tie.
pub fn solver_order(op: &LandauOperator) -> (Vec<usize>, usize) {
    let rcm = rcm_order(&op.mass);
    let mut geo: Vec<usize> = (0..op.n()).collect();
    geo.sort_by(|&a, &b| {
        let (ra, za) = op.space.dof_positions[a];
        let (rb, zb) = op.space.dof_positions[b];
        za.total_cmp(&zb).then(ra.total_cmp(&rb))
    });
    let bw_rcm = bandwidth(&op.mass.permute_symmetric(&rcm));
    let bw_geo = bandwidth(&op.mass.permute_symmetric(&geo));
    if bw_geo < bw_rcm {
        (geo, bw_geo)
    } else {
        (rcm, bw_rcm)
    }
}

/// Per-species permuted Jacobian blocks `J_α = M − dt·L_α(f)` of a
/// backward-Euler step, built from the operator's assembly at `state`.
pub fn jacobian_blocks(
    op: &mut LandauOperator,
    state: &[f64],
    dt: f64,
    perm: &[usize],
) -> Vec<Csr> {
    let assembled = op.assemble(state, 0.0);
    assembled
        .mats
        .iter()
        .map(|l| {
            let mut j = op.mass.clone();
            j.axpy_same_pattern(-dt, l);
            j.permute_symmetric(perm)
        })
        .collect()
}

/// The block-diagonal CSR the integrator hands its band solver.
fn block_csr(blocks: &[Csr]) -> Csr {
    let n = blocks[0].n_rows;
    let mut cols: Vec<Vec<usize>> = Vec::with_capacity(blocks.len() * n);
    for (a, b) in blocks.iter().enumerate() {
        for i in 0..n {
            cols.push(
                b.col_idx[b.row_ptr[i]..b.row_ptr[i + 1]]
                    .iter()
                    .map(|&c| a * n + c)
                    .collect(),
            );
        }
    }
    let mut big = Csr::from_pattern(blocks.len() * n, blocks.len() * n, &cols);
    for (a, b) in blocks.iter().enumerate() {
        for i in 0..n {
            for k in b.row_ptr[i]..b.row_ptr[i + 1] {
                big.add_value(a * n + i, a * n + b.col_idx[k], b.vals[k]);
            }
        }
    }
    big
}

/// A deterministic right-hand side of length `len`.
fn rhs(len: usize) -> Vec<f64> {
    (0..len).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect()
}

pub struct BandTimes {
    /// Block CSR plus `BlockBandSolver::from_block_csr`: the part of the
    /// integrator's factor time that precedes the LU.
    pub build_ms: f64,
    pub factor_ms: f64,
    pub solve_ms: f64,
    pub half_bandwidth: usize,
    pub factor_flops: u64,
}

/// Time the per-species band path (`BlockBandSolver`) on `blocks`.
pub fn time_band(blocks: &[Csr], tr: &mut Tracer) -> BandTimes {
    let sizes = vec![blocks[0].n_rows; blocks.len()];
    let build_ms = tr.span("band.build", || {
        time_ms(|| BlockBandSolver::from_block_csr(&block_csr(blocks), &sizes))
    });
    let fresh = BlockBandSolver::from_block_csr(&block_csr(blocks), &sizes);
    let (factor_ms, factored) = tr.span("band.factor", || {
        time_each(
            || fresh.clone(),
            |mut s| {
                s.factor().expect("probe Jacobian factors");
                s
            },
        )
    });
    let b = rhs(sizes.iter().sum());
    let solve_ms = tr.span("band.solve", || {
        time_each(|| b.clone(), |mut x| factored.solve_into(&mut x)).0
    });
    BandTimes {
        build_ms,
        factor_ms,
        solve_ms,
        half_bandwidth: fresh.max_bandwidth(),
        factor_flops: fresh.factor_flops(),
    }
}

pub struct BatchedTimes {
    pub factor_ms: f64,
    pub solve_ms: f64,
    pub factor_flops: u64,
}

/// Time the lockstep batched band path (`BatchedBandStorage`) with one
/// lane per block.
pub fn time_batched(blocks: &[Csr], tr: &mut Tracer) -> BatchedTimes {
    let bands: Vec<BandMatrix> = blocks.iter().map(BandMatrix::from_csr).collect();
    let storage = BatchedBandStorage::from_band_matrices(&bands);
    drop(bands);
    let active = vec![true; blocks.len()];
    let (factor_ms, factored) = tr.span("batched.factor", || {
        time_each(
            || storage.clone(),
            |mut s| {
                let failed = s.factor(&active);
                assert!(failed.iter().all(Option::is_none), "probe batch factors");
                s
            },
        )
    });
    let b = rhs(storage.n() * storage.n_mats());
    let solve_ms = tr.span("batched.solve", || {
        time_each(|| b.clone(), |mut x| factored.solve_into(&mut x, &active)).0
    });
    BatchedTimes {
        factor_ms,
        solve_ms,
        factor_flops: storage.factor_flops(blocks.len()),
    }
}

/// Every layer probe on one operator at `state`.
pub struct OperatorProbe {
    pub inner_integral_ms: f64,
    pub assemble_ms: f64,
    pub tail_ms: f64,
    pub table_build_s: f64,
    pub table_bytes: f64,
    pub space_build_ms: f64,
    pub band: BandTimes,
    /// The permuted per-species Jacobian blocks the band probe factored.
    pub jacobian: Vec<Csr>,
}

/// Inner integral of `op` at `state` through the kernel `assemble` would
/// pick (cached when the operator holds a tensor table), in ms.
pub fn time_inner_integral(op: &mut LandauOperator, state: &[f64]) -> f64 {
    let space = op.space.clone();
    op.ipdata.pack(&space, state);
    let op = &*op;
    time_ms(|| match op.tensor_table() {
        None => kernels::inner_integral_cpu(&op.ipdata, &op.species),
        Some(t) => kernels::inner_integral_cpu_cached(&op.ipdata, &op.species, t),
    })
}

/// Probe every layer below the integrator on `op` at `state`, for a step
/// of size `dt`.
pub fn probe_operator(
    op: &mut LandauOperator,
    state: &[f64],
    dt: f64,
    tr: &mut Tracer,
) -> OperatorProbe {
    let sp = tr.enter("kernels.inner_integral");
    let inner_integral_ms = time_inner_integral(op, state);
    tr.exit(sp);
    let assemble_ms = tr.span("operator.assemble", || time_ms(|| op.assemble(state, 0.0)));
    let (perm, _) = solver_order(op);
    let blocks = jacobian_blocks(op, state, dt, &perm);
    let band = time_band(&blocks, tr);
    let sp = tr.enter("tensor_cache.build");
    let t0 = Instant::now();
    let table = TensorTable::build(&op.ipdata, DEFAULT_BUDGET_BYTES);
    let table_build_s = t0.elapsed().as_secs_f64();
    tr.exit(sp);
    let table_bytes = table.table_bytes() as f64;
    drop(table);
    let space_build_ms = tr.span("fem.space_build", || {
        time_ms(|| FemSpace::new(op.space.forest.clone(), op.space.tab.order))
    });
    OperatorProbe {
        inner_integral_ms,
        assemble_ms,
        tail_ms: assemble_ms - inner_integral_ms,
        table_build_s,
        table_bytes,
        space_build_ms,
        band,
        jacobian: blocks,
    }
}

/// The batch layer on one `BatchedAdvance`: timed all-lane advances, then
/// the batched kernel and the batched LU over every lane at the final
/// states, so the advance time splits into what those account for and the
/// batch layer's own remainder.
pub struct BatchProbe {
    pub advance_ms: Vec<f64>,
    /// The advances' merged stats.
    pub stats: BatchStats,
    /// `BatchedBandStorage` over every lane's species blocks.
    pub batched: BatchedTimes,
    /// Per advance: advance time minus the kernel and batched LU probes,
    /// scaled by the lanes each round kept live.
    pub self_ms: f64,
    /// Per advance: the probes' share, and an estimate of the per-lane
    /// tail (element matrices and scatter) from lane 0's assembly.
    pub kernel_lu_ms: f64,
    pub lane_tail_ms: f64,
}

pub fn probe_batch(
    b: &mut BatchedAdvance,
    dt: f64,
    advances: usize,
    tr: &mut Tracer,
) -> BatchProbe {
    let lanes = b.len();
    let mut advance_ms = Vec::with_capacity(advances);
    let mut stats = BatchStats::default();
    for _ in 0..advances {
        let sp = tr.enter("batch.advance");
        let t0 = Instant::now();
        let st = b.advance(dt, 1, 0.0);
        advance_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.exit(sp);
        stats.merge(&st);
    }
    let space = b.space().clone();
    let species = b.stepper(0).ti.op.species.clone();
    let table = b
        .tensor_table()
        .expect("a batch shares one tensor table")
        .clone();
    let ips: Vec<IpData> = b
        .states
        .iter()
        .map(|s| {
            let mut ip = IpData::new(&space, &species);
            ip.pack(&space, s);
            ip
        })
        .collect();
    let refs: Vec<&IpData> = ips.iter().collect();
    let active = vec![true; lanes];
    let kernel_ms = tr.span("batch.kernel", || {
        time_ms(|| kernels::inner_integral_batched_cpu_cached(&refs, &active, &species, &table))
    });
    drop(refs);
    drop(ips);
    let states = b.states.clone();
    let (perm, _) = solver_order(&b.stepper(0).ti.op);
    let sp = tr.enter("batch.jacobians");
    let mut blocks = Vec::with_capacity(lanes * species.len());
    for (v, s) in states.iter().enumerate() {
        blocks.extend(jacobian_blocks(&mut b.stepper_mut(v).ti.op, s, dt, &perm));
    }
    tr.exit(sp);
    let batched = time_batched(&blocks, tr);
    drop(blocks);
    let op0 = &mut b.stepper_mut(0).ti.op;
    let lane_kernel_ms = time_inner_integral(op0, &states[0]);
    let lane_assemble_ms = time_ms(|| op0.assemble(&states[0], 0.0));

    // The kernel runs once per live lane per round, factor and solve once
    // per lane-iteration; the probes time every lane, so scale by lanes.
    let n = advance_ms.len() as f64;
    let kernel_lu_ms = (stats.active_lane_sum as f64 * kernel_ms
        + stats.newton_iters as f64 * (batched.factor_ms + batched.solve_ms))
        / lanes as f64
        / n;
    let total_ms: f64 = advance_ms.iter().sum();
    BatchProbe {
        self_ms: total_ms / n - kernel_lu_ms,
        lane_tail_ms: stats.active_lane_sum as f64 * (lane_assemble_ms - lane_kernel_ms) / n,
        kernel_lu_ms,
        advance_ms,
        stats,
        batched,
    }
}
