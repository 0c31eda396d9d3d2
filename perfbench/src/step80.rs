//! step80: the paper's §V performance problem (10 species, 80 Q3 cells)
//! advanced by one `TimeIntegrator` with library defaults, so the tensor
//! cache is off. Kernel, assembly and band LU do almost all the work; the
//! batch and serve layers are bypassed.

use crate::probe::{probe_operator, solver_order, time_batched};
use crate::stats::{median, quantile, TAIL_Q};
use crate::trace::{out_path, Tracer};
use crate::{peak_rss_mb, unit_jitter, Args, Outcome};
use landau_bench::perf_operator;
use landau_core::operator::Backend;
use landau_core::solver::{StepStats, ThetaMethod, TimeIntegrator};
use std::time::Instant;

const DT: f64 = 0.2;
const SPECIES: usize = 10;
/// Set-ups before the timed window; `setup_s` is the median of these and
/// of every episode's rebuild.
const SETUP_REPS: usize = 7;
/// Steps per episode: 15 Newton iterations from the seeded start.
const EPISODE_STEPS: usize = 4;
/// Conservation over one episode. The integrator converges to rtol 1e-8.
const TOLERANCE: Tolerance = Tolerance {
    density: 1e-9,
    momentum: 1e-12,
    energy: 1e-8,
};

/// Per-layer metrics of layers this workload never calls.
const NOT_EXERCISED: &[&str] = &[
    "batch.lanes_per_launch",
    "batch.launches_per_round",
    "batch.retired_per_newton",
    "batch.self_ms",
    "quench.build_ms",
    "quench.slice_ms",
    "quench.newton_per_job",
    "serve.slice_ms_sum_per_job",
    "serve.unattributed_frac",
    "serve.queue_wait_ms_p50",
    "serve.steals",
    "serve.rejected",
    "serve.grant_spread",
    "serve.compute_spread",
];

/// The workload's inputs: the perf problem with each species' initial
/// density scaled by its seeded factor.
fn build(scales: &[f64]) -> (TimeIntegrator, Vec<f64>) {
    let op = perf_operator(80, Backend::Cpu);
    let ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
    let mut state = ti.op.initial_state();
    let n = ti.n();
    for (s, k) in scales.iter().enumerate() {
        for x in &mut state[s * n..(s + 1) * n] {
            *x *= k;
        }
    }
    (ti, state)
}

struct StepSample {
    ms: f64,
    stats: StepStats,
    ok: bool,
    traced: bool,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let mut rng = args.seed;
    let scales: Vec<f64> = (0..SPECIES)
        .map(|_| 1.0 + 0.05 * unit_jitter(&mut rng))
        .collect();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take()); // free the previous integrator before timing the next
        let sp = tr.enter("setup");
        let t0 = Instant::now();
        built = Some(build(&scales));
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.exit(sp);
    }
    let (mut ti, mut state) = built.expect("at least one set-up");

    // Timed window: whole episodes of EPISODE_STEPS steps, each on a
    // freshly built problem (its build counts as set-up). A traced run
    // leaves the episodes of its first half untraced so that the two
    // halves price the bench's own spans.
    let mut samples: Vec<StepSample> = Vec::new();
    let (mut flops, mut bytes) = (0u64, 0u64);
    let mut drift = Drift::default();
    let t_start = Instant::now();
    let mut episode_s = 0.0;
    for episode in 0.. {
        // Start an episode only if one more fits in the window.
        let elapsed = t_start.elapsed().as_secs_f64();
        if episode > 0 && elapsed + episode_s > args.seconds {
            break;
        }
        let t_episode = Instant::now();
        let traced = args.trace && elapsed >= args.seconds / 2.0;
        tr.set_enabled(traced);
        if episode > 0 {
            drop((ti, state));
            let sp = tr.enter("setup");
            let t0 = Instant::now();
            (ti, state) = build(&scales);
            setup_s.push(t0.elapsed().as_secs_f64());
            tr.exit(sp);
        }
        let reference = ti.moments.conserved_triple(&state);
        let jac0 = ti.op.device.kernel_stats("landau_jacobian");
        for _ in 0..EPISODE_STEPS {
            let sp = tr.enter("try_step");
            let t0 = Instant::now();
            let res = ti.try_step(&mut state, DT, 0.0, None);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (stats, why) = match res {
                Ok(st) => (st, (!st.converged).then(|| "did not converge".to_string())),
                Err(e) => (StepStats::default(), Some(format!("{e:?}"))),
            };
            let ok = why.is_none();
            for (name, s) in [
                ("landau", stats.t_landau),
                ("factor", stats.t_factor),
                ("solve", stats.t_solve),
            ] {
                tr.record(name, sp, None, None, s * 1e3);
            }
            tr.exit(sp);
            out.check(ok, || {
                format!("step {} failed: {}", samples.len(), why.unwrap_or_default())
            });
            samples.push(StepSample {
                ms,
                stats,
                ok,
                traced,
            });
        }
        let jac1 = ti.op.device.kernel_stats("landau_jacobian");
        flops += jac1.flops - jac0.flops;
        bytes += (jac1.dram_read + jac1.dram_write) - (jac0.dram_read + jac0.dram_write);
        // Correctness: the conserved moments match the seeded initial
        // state's.
        let fin = ti.moments.conserved_triple(&state);
        drift.check(
            &mut out,
            &format!("episode {episode}"),
            &reference,
            &fin,
            &TOLERANCE,
        );
        episode_s = t_episode.elapsed().as_secs_f64();
    }
    tr.set_enabled(args.trace);

    let newton_seq: Vec<usize> = samples.iter().map(|s| s.stats.newton_iters).collect();
    out.report.push(format!(
        "steps {} newton per step {newton_seq:?}; {drift}",
        samples.len()
    ));

    let step_ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let productive: usize = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.stats.newton_iters)
        .sum();
    let all_newton: usize = samples.iter().map(|s| s.stats.newton_iters).sum();
    if !args.trace {
        single_caller_metrics(&mut out, &setup_s, &step_ms, productive);
        return out;
    }
    let n = step_ms.len();
    let steps_s: f64 = step_ms.iter().sum::<f64>() / 1e3;

    // Per-layer attribution.
    let probes = tr.enter("probes");
    let probe = probe_operator(&mut ti.op, &state, DT, &mut tr);
    // The lockstep batched LU with the species blocks as lanes prices the
    // fused path's factorization on this problem.
    let batched = time_batched(&probe.jacobian, &mut tr);
    tr.exit(probes);
    let (_, bw) = solver_order(&ti.op);
    out.check(bw == ti.block_bandwidth, || {
        format!(
            "probe ordering bandwidth {bw} != integrator's {}",
            ti.block_bandwidth
        )
    });

    let mut sum = StepStats::default();
    for s in &samples {
        sum.merge(&s.stats);
    }
    let (flops, bytes) = (flops as f64, bytes as f64);
    let comp = sum.t_landau + sum.t_factor + sum.t_solve;
    let per_newton = |traced: bool| {
        let (ms, it) = samples
            .iter()
            .filter(|s| s.traced == traced)
            .fold((0.0, 0usize), |(m, i), s| {
                (m + s.ms, i + s.stats.newton_iters)
            });
        ms / it.max(1) as f64
    };
    let overhead = per_newton(true) / per_newton(false) - 1.0;
    let journal = landau_obs::Journal::global();

    out.set(
        "kernels.inner_integral_ms",
        probe.inner_integral_ms,
        "inner_integral_cpu, median",
    );
    out.set(
        "kernels.flops_per_newton",
        flops / all_newton as f64,
        "landau_jacobian counter / Newton its",
    );
    out.set(
        "kernels.bytes_per_newton",
        bytes / all_newton as f64,
        "computed DRAM bytes",
    );
    out.set("kernels.flops_per_byte", flops / bytes, "computed");
    out.set(
        "operator.assemble_ms",
        probe.assemble_ms,
        "LandauOperator::assemble, median",
    );
    out.set(
        "operator.tail_ms",
        probe.tail_ms,
        "assemble - inner integral",
    );
    out.set(
        "tensor_cache.build_s",
        probe.table_build_s,
        "probe: cache is off in this workload",
    );
    out.set("tensor_cache.table_bytes", probe.table_bytes, "probe");
    out.set(
        "band.build_ms",
        probe.band.build_ms,
        "block CSR + from_block_csr",
    );
    out.set(
        "band.factor_ms",
        probe.band.factor_ms,
        "BlockBandSolver::factor",
    );
    out.set(
        "band.solve_ms",
        probe.band.solve_ms,
        "BlockBandSolver::solve_into",
    );
    out.set("band.half_bandwidth", probe.band.half_bandwidth as f64, "");
    out.set("band.factor_flops", probe.band.factor_flops as f64, "");
    out.set(
        "batched.factor_ms",
        batched.factor_ms,
        "probe: species blocks as lanes",
    );
    out.set(
        "batched.solve_ms",
        batched.solve_ms,
        "probe: species blocks as lanes",
    );
    out.set("batched.factor_flops", batched.factor_flops as f64, "");
    out.set(
        "solver.newton_per_step",
        all_newton as f64 / n as f64,
        format!("{all_newton} its / {n} steps"),
    );
    out.set(
        "solver.landau_share",
        sum.t_landau / sum.t_total,
        "StepStats",
    );
    out.set(
        "solver.factor_share",
        sum.t_factor / sum.t_total,
        "StepStats",
    );
    out.set(
        "solver.self_ms",
        (sum.t_total - comp) * 1e3 / n as f64,
        "t_total - components, per step",
    );
    out.set("solver.closure", comp / sum.t_total, "components / t_total");
    out.set(
        "recover.productive_frac",
        productive as f64 / all_newton.max(1) as f64,
        "",
    );
    out.set("recover.retried", 0.0, "try_step has no retry layer");
    out.set(
        "recover.failed",
        samples.iter().filter(|s| !s.ok).count() as f64,
        "failed steps",
    );
    out.set(
        "fem.space_build_ms",
        probe.space_build_ms,
        "FemSpace::new, median",
    );
    out.set("obs.journal_published", journal.published() as f64, "");
    out.set("obs.journal_dropped", journal.dropped() as f64, "");
    out.set(
        "obs.trace_overhead_frac",
        overhead,
        "ms per Newton, traced / untraced half - 1",
    );
    out.set(
        "trace.unattributed_frac",
        1.0 - comp / steps_s,
        "1 - StepStats components / bench step time",
    );

    // Do the probes account for the step? One step of N Newton updates
    // assembles N + 1 times and builds, factors and solves N times.
    let nbar = all_newton as f64 / n as f64;
    let predicted = (nbar + 1.0) * probe.assemble_ms
        + nbar * (probe.band.build_ms + probe.band.factor_ms + probe.band.solve_ms);
    let mean_step = steps_s * 1e3 / n as f64;
    out.report.push(format!(
        "probe closure: (N+1)*assemble + N*(build+factor+solve) = {predicted:.1} ms of mean step {mean_step:.1} ms (gap {:.1} ms, {:.1}%)",
        mean_step - predicted,
        100.0 * (mean_step - predicted) / mean_step
    ));
    out.report.extend(tr.report());
    if let Err(e) = tr.write_json(&out_path(&args.workload, args.seed)) {
        out.fail(format!("writing spans: {e}"));
    }
    out.not_exercised = NOT_EXERCISED;
    out
}

/// The end-to-end metrics of one closed-loop caller that waits for each
/// step in `op_ms`: its job, its interactive request and its first record
/// are that step, and throughput counts timed steps only, not rebuilds.
fn single_caller_metrics(
    out: &mut Outcome,
    setup_s: &[f64],
    op_ms: &[f64],
    productive_newton: usize,
) {
    let n = op_ms.len();
    let window_s = op_ms.iter().sum::<f64>() / 1e3;
    let p50 = median(op_ms);
    let same = format!("n={n}; a job here is one try_step");
    out.set(
        "setup_s",
        median(setup_s),
        format!("median of {} builds", setup_s.len()),
    );
    out.set(
        "newton_it_per_s",
        productive_newton as f64 / window_s,
        format!("{productive_newton} its / {window_s:.3} s"),
    );
    out.set("step_ms_p50", p50, format!("n={n}"));
    out.set("jobs_per_s", n as f64 / window_s, same.clone());
    out.set("job_e2e_ms_p50", p50, same.clone());
    out.set(
        "job_e2e_ms_tail",
        quantile(op_ms, TAIL_Q),
        format!("p{:.0} n={n}", TAIL_Q * 100.0),
    );
    out.set("interactive_e2e_ms_p50", p50, same.clone());
    out.set("first_record_ms_p50", p50, same);
    out.set("peak_rss_mb", peak_rss_mb(), "VmHWM");
}

/// Allowed drift of the conserved moments over one episode: per-species
/// density (relative), total z-momentum (relative to total energy, as the
/// initial momentum is zero) and total energy (relative).
struct Tolerance {
    density: f64,
    momentum: f64,
    energy: f64,
}

/// Largest drift seen across checks, for the report.
#[derive(Default)]
struct Drift {
    density: f64,
    momentum: f64,
    energy: f64,
}

impl Drift {
    /// Check `fin` against the seeded `reference` (per species: density,
    /// z-momentum, energy) and record one attempted check.
    fn check(
        &mut self,
        out: &mut Outcome,
        what: &str,
        reference: &[(f64, f64, f64)],
        fin: &[(f64, f64, f64)],
        tol: &Tolerance,
    ) {
        let e0: f64 = reference.iter().map(|m| m.2).sum();
        let e1: f64 = fin.iter().map(|m| m.2).sum();
        let p0: f64 = reference.iter().map(|m| m.1).sum();
        let p1: f64 = fin.iter().map(|m| m.1).sum();
        let dn = reference
            .iter()
            .zip(fin)
            .map(|(r, f)| ((f.0 - r.0) / r.0).abs())
            .fold(0.0, f64::max);
        let dp = ((p1 - p0) / e0).abs();
        let de = ((e1 - e0) / e0).abs();
        self.density = self.density.max(dn);
        self.momentum = self.momentum.max(dp);
        self.energy = self.energy.max(de);
        out.check(
            dn <= tol.density && dp <= tol.momentum && de <= tol.energy,
            || format!("{what} drift: density {dn:.3e} momentum {dp:.3e} energy {de:.3e}"),
        );
    }
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max drift: density {:.2e} momentum {:.2e} energy {:.2e}",
            self.density, self.momentum, self.energy
        )
    }
}
