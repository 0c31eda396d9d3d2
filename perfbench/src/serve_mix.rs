//! serve_mix: `QuenchServer` with `ServeConfig::default()` under a closed
//! loop from this one thread. Three bulk tenants keep 8 jobs outstanding
//! between them and one interactive tenant keeps 1. Jobs are the loadtest
//! `small_quench` family with two quench steps, on two mesh shapes in a
//! 2:1 mix, so a cross-job cache has a shared shape to exploit and the
//! other shape and the interactive tenant show what it costs the rest.

use crate::probe::{probe_batch, probe_operator, OperatorProbe};
use crate::stats::{median, quantile, spread, time_each, time_ms, TAIL_Q};
use crate::trace::{out_path, Tracer};
use crate::{peak_rss_mb, splitmix64, Args, Outcome};
use landau_core::batch::BatchedAdvance;
use landau_obs::{Event, EventKind, Journal, MetricRegistry};
use landau_quench::{QuenchConfig, QuenchDriver};
use landau_serve::rt::block_on;
use landau_serve::{JobHandle, JobSpec, JobStatus, QuenchServer, ServeConfig};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

const BULK: [&str; 3] = ["bulk-0", "bulk-1", "bulk-2"];
const INTERACTIVE: &str = "interactive";
/// Jobs the bulk tenants keep outstanding between them.
const BULK_OUTSTANDING: usize = 8;
/// `cells_per_vt` of the two shapes: 142 and 193 dofs per species.
const SHAPES: [f64; 2] = [0.3, 0.45];
/// Completed jobs re-run solo and compared byte for byte.
const REFERENCE_SAMPLE: usize = 2;

/// Lanes and advances of the gang the traced run builds on the shared
/// shape to measure the batch layer.
const GANG_LANES: usize = 8;
const GANG_ADVANCES: usize = 4;

/// The loadtest's smallest two-phase quench (one equilibration step, then
/// `quench_steps`), with seeded scenario jitter.
fn small_quench(rng: &mut u64, cells_per_vt: f64) -> QuenchConfig {
    let t_cold = [0.12, 0.15, 0.18][(splitmix64(rng) % 3) as usize];
    let mass_factor = [2.5, 3.0, 3.5][(splitmix64(rng) % 3) as usize];
    QuenchConfig {
        domain: 2.0,
        cells_per_vt,
        k_outer: 1.0,
        ion_mass: 16.0,
        t_cold,
        dt: 0.1,
        max_equil_steps: 1,
        quench_steps: 2,
        pulse_duration: 3.0,
        mass_factor,
        ..QuenchConfig::default()
    }
}

struct Job {
    handle: JobHandle,
    /// Index into `BULK`, or `BULK.len()` for the interactive tenant.
    tenant: usize,
    shape: usize,
    cfg: QuenchConfig,
    submitted: Instant,
    /// Submitted in the traced half of a traced run.
    traced: bool,
    status: Option<JobStatus>,
    first_ms: f64,
    e2e_ms: f64,
}

/// Resolves when any of the wrapped waits does.
struct AnyOf(Vec<Pin<Box<dyn Future<Output = ()>>>>);

impl Future for AnyOf {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        for f in self.0.iter_mut() {
            if f.as_mut().poll(cx).is_ready() {
                return Poll::Ready(());
            }
        }
        Poll::Pending
    }
}

fn wait_any(handles: Vec<JobHandle>) {
    let waits = handles
        .into_iter()
        .map(|h| -> Pin<Box<dyn Future<Output = ()>>> {
            Box::pin(async move {
                h.wait().await;
            })
        })
        .collect();
    block_on(AnyOf(waits));
}

fn start_server() -> (QuenchServer, Arc<MetricRegistry>) {
    let registry = Arc::new(MetricRegistry::new());
    let server = QuenchServer::with_registry(ServeConfig::default(), registry.clone());
    (server, registry)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let mut rng = args.seed;
    let phase = args.seed % 3;

    // Set-up is the process's first server start, which also starts the
    // process-wide compute pool: what a serving process pays before its
    // first request. A repeated start inside one process times only two
    // thread spawns, tens of microseconds whose level differs by 2x from
    // process to process, so it is not repeated here.
    let sp = tr.enter("setup");
    let t0 = Instant::now();
    let (server, registry) = start_server();
    let setup_s = t0.elapsed().as_secs_f64();
    tr.exit(sp);
    let workers = ServeConfig::default().workers;

    let journal = Journal::global();
    journal.drain();
    let (published0, dropped0) = (journal.published(), journal.dropped());
    let steals0 = server.steal_count();
    let mut events: Vec<Event> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut outstanding: Vec<usize> = Vec::new();
    let mut rejected = 0u64;
    let t_start = Instant::now();
    loop {
        let elapsed = t_start.elapsed().as_secs_f64();
        if elapsed < args.seconds {
            let traced = args.trace && elapsed >= args.seconds / 2.0;
            tr.set_enabled(traced);
            loop {
                let count = |t: usize| outstanding.iter().filter(|&&i| jobs[i].tenant == t).count();
                let bulk: Vec<usize> = (0..BULK.len()).map(count).collect();
                let tenant = if count(BULK.len()) == 0 {
                    BULK.len()
                } else if bulk.iter().sum::<usize>() < BULK_OUTSTANDING {
                    (0..BULK.len())
                        .min_by_key(|&t| bulk[t])
                        .expect("bulk tenants")
                } else {
                    break;
                };
                // Every tenant's own jobs cycle through the 2:1 shape mix,
                // so shape and tenant are not confounded.
                let nth = jobs.iter().filter(|j| j.tenant == tenant).count() as u64;
                let shape = usize::from((nth + phase) % 3 == 2);
                let cfg = small_quench(&mut rng, SHAPES[shape]);
                let name = if tenant < BULK.len() {
                    BULK[tenant]
                } else {
                    INTERACTIVE
                };
                let submitted = Instant::now();
                match server.submit(
                    name,
                    JobSpec::new(format!("{name}-{}", jobs.len()), cfg.clone()),
                ) {
                    Ok(handle) => {
                        outstanding.push(jobs.len());
                        jobs.push(Job {
                            handle,
                            tenant,
                            shape,
                            cfg,
                            submitted,
                            traced,
                            status: None,
                            first_ms: f64::NAN,
                            e2e_ms: f64::NAN,
                        });
                    }
                    Err(rej) => {
                        rejected += 1;
                        out.fail(format!("{name} job rejected: {rej}"));
                        break;
                    }
                }
            }
        }
        if outstanding.is_empty() {
            break;
        }
        wait_any(
            outstanding
                .iter()
                .map(|&i| jobs[i].handle.clone())
                .collect(),
        );
        events.extend(journal.drain());
        outstanding.retain(|&i| {
            let job = &mut jobs[i];
            let status = job.handle.status();
            if !status.is_terminal() {
                return true;
            }
            let (first, e2e) = job.handle.latency_ms();
            job.first_ms = first.unwrap_or(f64::NAN);
            job.e2e_ms = e2e.unwrap_or(f64::NAN);
            job.status = Some(status);
            false
        });
    }
    server.drain();
    events.extend(journal.drain());
    let window_end = jobs
        .iter()
        .map(|j| j.submitted + std::time::Duration::from_secs_f64(j.e2e_ms.max(0.0) / 1e3))
        .max()
        .unwrap_or(t_start);
    let window_s = (window_end - t_start).as_secs_f64();
    tr.set_enabled(args.trace);

    // Correctness: every job completed, and a seeded sample matches a solo
    // driver run of the same config byte for byte (outside the window).
    for (i, j) in jobs.iter().enumerate() {
        let ok = j.status == Some(JobStatus::Completed);
        out.check(ok, || format!("job {i} ended {:?}", j.status));
    }
    let mut sample: Vec<usize> = Vec::new();
    while sample.len() < REFERENCE_SAMPLE.min(jobs.len()) {
        let i = (splitmix64(&mut rng) % jobs.len() as u64) as usize;
        if !sample.contains(&i) {
            sample.push(i);
        }
    }
    let mut solo: Vec<QuenchDriver> = Vec::new();
    let sp = tr.enter("reference");
    for &i in &sample {
        let mut d = QuenchDriver::new(jobs[i].cfg.clone());
        let run = d.run();
        let same =
            run.is_ok() && d.series.snapshot().to_json_text() == jobs[i].handle.series_json();
        out.check(same, || {
            format!("job {i} series differs from a solo run of its config ({run:?})")
        });
        solo.push(d);
    }
    tr.exit(sp);

    // Per-job slice times from the journal's `slice_end` events.
    let ids: BTreeMap<u64, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.handle.id.0, i))
        .collect();
    let mut slice_sum = vec![0.0; jobs.len()];
    let mut last_step = vec![0u64; jobs.len()];
    let mut step_ms = Vec::new();
    let mut tenant_ms = [0.0; 4];
    for e in events.iter().filter(|e| e.kind == EventKind::SliceEnd) {
        let Some(&i) = ids.get(&e.job) else { continue };
        slice_sum[i] += e.value;
        tenant_ms[jobs[i].tenant] += e.value;
        let steps = e.step.saturating_sub(last_step[i]);
        last_step[i] = e.step;
        if steps > 0 {
            step_ms.push(e.value / steps as f64);
        }
    }
    let done: Vec<usize> = (0..jobs.len())
        .filter(|&i| jobs[i].status == Some(JobStatus::Completed))
        .collect();
    let e2e: Vec<f64> = done.iter().map(|&i| jobs[i].e2e_ms).collect();
    let interactive: Vec<f64> = done
        .iter()
        .filter(|&&i| jobs[i].tenant == BULK.len())
        .map(|&i| jobs[i].e2e_ms)
        .collect();
    let first: Vec<f64> = done.iter().map(|&i| jobs[i].first_ms).collect();
    let unattributed: Vec<f64> = done
        .iter()
        .map(|&i| 1.0 - slice_sum[i] / jobs[i].e2e_ms)
        .collect();
    let snap = registry.snapshot();
    let newton = snap.counter("quench.step.newton_iters");
    let (n, ni) = (e2e.len(), interactive.len());
    out.report.push(format!(
        "jobs {} completed {n} (interactive {ni}) in {window_s:.3} s with {workers} workers; newton its {newton}; slice_end events {}",
        jobs.len(),
        step_ms.len()
    ));
    out.report.push(format!(
        "reference jobs {sample:?}: newton per job {:?}",
        solo.iter()
            .map(|d| d.stats.newton_iters)
            .collect::<Vec<_>>()
    ));

    if !args.trace {
        out.set(
            "setup_s",
            setup_s,
            "first server start, compute pool included",
        );
        out.set(
            "newton_it_per_s",
            newton as f64 / window_s,
            format!("{newton} its of {n} jobs / {window_s:.3} s"),
        );
        out.set(
            "step_ms_p50",
            median(&step_ms),
            format!("n={} served slices, ms per step", step_ms.len()),
        );
        out.set(
            "jobs_per_s",
            n as f64 / window_s,
            format!("{n} jobs / {window_s:.3} s"),
        );
        out.set("job_e2e_ms_p50", median(&e2e), format!("n={n}"));
        out.set(
            "job_e2e_ms_tail",
            quantile(&e2e, TAIL_Q),
            format!(
                "p{:.0} n={n}, {} beyond",
                TAIL_Q * 100.0,
                crate::stats::beyond(&e2e, TAIL_Q)
            ),
        );
        out.set(
            "interactive_e2e_ms_p50",
            median(&interactive),
            format!("n={ni}"),
        );
        out.set("first_record_ms_p50", median(&first), format!("n={n}"));
        out.set("peak_rss_mb", peak_rss_mb(), "VmHWM");
        return out;
    }

    // Per-layer attribution: solo probes on one config of each shape,
    // weighted 2:1 like the mix.
    let probes = tr.enter("probes");
    let mut shape_probe: Vec<(OperatorProbe, f64, f64)> = Vec::new();
    let shape_cfg: Vec<QuenchConfig> = SHAPES
        .iter()
        .enumerate()
        .map(|(s, &cells)| {
            jobs.iter()
                .find(|j| j.shape == s)
                .map(|j| j.cfg.clone())
                .unwrap_or_else(|| small_quench(&mut rng, cells))
        })
        .collect();
    for cfg in &shape_cfg {
        let build_ms = tr.span("quench.build", || {
            time_ms(|| QuenchDriver::new(cfg.clone()))
        });
        let (slice_ms, _) = tr.span("quench.slice", || {
            time_each(
                || QuenchDriver::new(cfg.clone()),
                |mut d| d.run_budgeted(Some(2)).expect("solo slice runs"),
            )
        });
        let mut d = QuenchDriver::new(cfg.clone());
        let state = d.state.clone();
        let probe = probe_operator(&mut d.stepper.ti.op, &state, cfg.dt, &mut tr);
        shape_probe.push((probe, build_ms, slice_ms));
    }
    // The batch layer on the shared shape: a gang of same-shape jobs
    // advanced in lockstep, as a gang scheduler would run them.
    let lead = QuenchDriver::new(shape_cfg[0].clone());
    let op = &lead.stepper.ti.op;
    let mut gang = BatchedAdvance::new(&op.space, &op.species, op.backend, GANG_LANES);
    let gang_probe = probe_batch(&mut gang, shape_cfg[0].dt, GANG_ADVANCES, &mut tr);
    drop(gang);
    tr.exit(probes);
    out.check(gang_probe.stats.failed == 0, || {
        format!("gang probe: {} lanes failed", gang_probe.stats.failed)
    });
    let mix = |f: &dyn Fn(&(OperatorProbe, f64, f64)) -> f64| {
        (2.0 * f(&shape_probe[0]) + f(&shape_probe[1])) / 3.0
    };

    // Job spans with their journal slices as children.
    for (i, j) in jobs.iter().enumerate().filter(|(_, j)| j.traced) {
        let id = Some(j.handle.id.0);
        let span = tr.record("job", None, id, Some(tr.offset_ms(j.submitted)), j.e2e_ms);
        for e in events
            .iter()
            .filter(|e| e.kind == EventKind::SliceEnd && ids.get(&e.job) == Some(&i))
        {
            tr.record("slice", span, id, None, e.value);
        }
    }

    let mut stats = landau_core::solver::StepStats::default();
    let (mut flops, mut bytes, mut retried) = (0u64, 0u64, 0usize);
    for d in &solo {
        stats.merge(&d.stats);
        let k = d.ti().op.device.kernel_stats("landau_jacobian");
        flops += k.flops;
        bytes += k.dram_read + k.dram_write;
        retried += d.recovery.retried;
    }
    let comp = stats.t_landau + stats.t_factor + stats.t_solve;
    let steps: u64 = solo.iter().map(|d| d.completed_steps()).sum();
    let grants = server.grant_log();
    let per_tenant = |t: &str| grants.iter().filter(|(g, _)| g == t).count() as f64;
    let overhead = {
        let half = |traced: bool| {
            let v: Vec<f64> = done
                .iter()
                .filter(|&&i| jobs[i].traced == traced)
                .map(|&i| jobs[i].e2e_ms)
                .collect();
            median(&v)
        };
        half(true) / half(false) - 1.0
    };
    let queue_wait = snap
        .histograms
        .get("serve.queue_wait_ms")
        .map_or(f64::NAN, |h| h.quantile(0.5) as f64);
    let unattributed_p50 = median(&unattributed);

    out.set(
        "kernels.inner_integral_ms",
        mix(&|p| p.0.inner_integral_ms),
        "shapes 2:1",
    );
    out.set(
        "kernels.flops_per_newton",
        flops as f64 / stats.newton_iters as f64,
        "reference jobs",
    );
    out.set(
        "kernels.bytes_per_newton",
        bytes as f64 / stats.newton_iters as f64,
        "computed, reference jobs",
    );
    out.set(
        "kernels.flops_per_byte",
        flops as f64 / bytes as f64,
        "computed",
    );
    out.set(
        "operator.assemble_ms",
        mix(&|p| p.0.assemble_ms),
        "shapes 2:1",
    );
    out.set("operator.tail_ms", mix(&|p| p.0.tail_ms), "shapes 2:1");
    out.set(
        "tensor_cache.build_s",
        mix(&|p| p.0.table_build_s),
        "probe: cache is off in served jobs",
    );
    out.set(
        "tensor_cache.table_bytes",
        mix(&|p| p.0.table_bytes),
        "probe, shapes 2:1",
    );
    out.set("band.build_ms", mix(&|p| p.0.band.build_ms), "shapes 2:1");
    out.set("band.factor_ms", mix(&|p| p.0.band.factor_ms), "shapes 2:1");
    out.set("band.solve_ms", mix(&|p| p.0.band.solve_ms), "shapes 2:1");
    out.set(
        "band.half_bandwidth",
        mix(&|p| p.0.band.half_bandwidth as f64),
        "shapes 2:1",
    );
    out.set(
        "band.factor_flops",
        mix(&|p| p.0.band.factor_flops as f64),
        "shapes 2:1",
    );
    let gang_note = format!("gang of {GANG_LANES} lanes on the shared shape");
    out.set(
        "batched.factor_ms",
        gang_probe.batched.factor_ms,
        gang_note.clone(),
    );
    out.set(
        "batched.solve_ms",
        gang_probe.batched.solve_ms,
        gang_note.clone(),
    );
    out.set(
        "batched.factor_flops",
        gang_probe.batched.factor_flops as f64,
        gang_note.clone(),
    );
    let gs = &gang_probe.stats;
    out.set(
        "batch.lanes_per_launch",
        gs.active_lane_sum as f64 / gs.launches.max(1) as f64,
        gang_note.clone(),
    );
    out.set(
        "batch.launches_per_round",
        gs.launches as f64 / gs.newton_rounds.max(1) as f64,
        gang_note.clone(),
    );
    out.set(
        "batch.retired_per_newton",
        gs.retired_per_newton,
        gang_note.clone(),
    );
    out.set(
        "batch.self_ms",
        gang_probe.self_ms,
        "gang advance - kernel and batched LU probes, per advance",
    );
    out.set(
        "solver.newton_per_step",
        stats.newton_iters as f64 / steps.max(1) as f64,
        "reference jobs",
    );
    out.set(
        "solver.landau_share",
        stats.t_landau / stats.t_total,
        "reference jobs",
    );
    out.set(
        "solver.factor_share",
        stats.t_factor / stats.t_total,
        "reference jobs",
    );
    out.set(
        "solver.self_ms",
        (stats.t_total - comp) * 1e3 / steps.max(1) as f64,
        "reference jobs, per step",
    );
    out.set("solver.closure", comp / stats.t_total, "reference jobs");
    out.set(
        "recover.productive_frac",
        n as f64 / jobs.len().max(1) as f64,
        "completed / submitted jobs",
    );
    out.set("recover.retried", retried as f64, "reference jobs");
    out.set(
        "recover.failed",
        (jobs.len() - n) as f64,
        "jobs not completed",
    );
    out.set(
        "fem.space_build_ms",
        mix(&|p| p.0.space_build_ms),
        "shapes 2:1",
    );
    out.set(
        "quench.build_ms",
        mix(&|p| p.1),
        "QuenchDriver::new, shapes 2:1",
    );
    out.set(
        "quench.slice_ms",
        mix(&|p| p.2),
        "solo first run_budgeted(2) slice, shapes 2:1",
    );
    out.set(
        "quench.newton_per_job",
        stats.newton_iters as f64 / solo.len().max(1) as f64,
        "reference jobs",
    );
    out.set(
        "serve.slice_ms_sum_per_job",
        median(&done.iter().map(|&i| slice_sum[i]).collect::<Vec<_>>()),
        format!("median, n={n}"),
    );
    out.set(
        "serve.unattributed_frac",
        unattributed_p50,
        "median of 1 - slice ms / e2e",
    );
    out.set(
        "serve.queue_wait_ms_p50",
        queue_wait,
        "server log2 histogram: coarse",
    );
    out.set("serve.steals", (server.steal_count() - steals0) as f64, "");
    out.set("serve.rejected", rejected as f64, "");
    out.set(
        "serve.grant_spread",
        spread(&BULK.map(per_tenant)),
        "bulk tenants",
    );
    out.set(
        "serve.compute_spread",
        spread(&tenant_ms[..BULK.len()]),
        "bulk tenants, slice ms",
    );
    out.set(
        "obs.journal_published",
        (journal.published() - published0) as f64,
        "",
    );
    out.set(
        "obs.journal_dropped",
        (journal.dropped() - dropped0) as f64,
        "",
    );
    out.set(
        "obs.trace_overhead_frac",
        overhead,
        "job e2e p50, traced / untraced half - 1",
    );
    out.set(
        "trace.unattributed_frac",
        unattributed_p50,
        "job e2e not inside a slice",
    );
    out.report.push(format!(
        "gang of {GANG_LANES} on the shared shape, per advance: kernel + batched LU {:.1} + lane tail estimate {:.1} of {:.1} ms",
        gang_probe.kernel_lu_ms,
        gang_probe.lane_tail_ms,
        gang_probe.advance_ms.iter().sum::<f64>() / gang_probe.advance_ms.len() as f64
    ));
    out.report.extend(tr.report());
    if let Err(e) = tr.write_json(&out_path(&args.workload, args.seed)) {
        out.fail(format!("writing spans: {e}"));
    }
    out
}
