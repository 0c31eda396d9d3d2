//! Batched collision advance.
//!
//! In an operator-split kinetic application every configuration-space
//! vertex advances its own velocity-space collision problem independently
//! (§V: "an application would run thousands or more of these vertex solves
//! in a collision advance step on each GPU"). The paper's harness gets the
//! resulting task parallelism from MPI ranks; its conclusion names the
//! *batching* of multiple spatial vertices as the planned improvement.
//!
//! This module implements that batching at two levels:
//!
//! * [`BatchMode::Fused`] (the default) executes the whole fleet's Newton
//!   pipeline as *one* batched launch per stage — one Jacobian kernel over
//!   all (lane, element) blocks, one lockstep banded LU over the lane SoA,
//!   one strided triangular solve — with a per-vertex active mask so
//!   converged and failed vertices retire without desynchronizing the
//!   rest (the sequel paper's batched-solver design). The allocation-free
//!   inner loop is where the throughput win over per-vertex solves comes
//!   from.
//! * [`BatchMode::HostLoop`] keeps the original per-vertex loop (each
//!   vertex runs its own full solve pipeline) as the reference oracle: the
//!   fused path must match it bitwise, vertex by vertex.

use crate::batch_fused::{fused_macro_step, FusedCounters, FusedWorkspace};
use crate::ckpt::{
    decode_fault_cursor, encode_fault_cursor, ByteReader, ByteWriter, CheckpointPolicy,
    CheckpointStore, CkptError, PolicyCursor, Storage,
};
use crate::invariants::{ConservationMonitor, Watchdog};
use crate::operator::{Backend, LandauOperator};
use crate::recover::{AdaptiveStepper, RecoveryStats, StepperCkpt};
use crate::solver::{StepStats, ThetaMethod, TimeIntegrator};
use crate::species::SpeciesList;
use crate::tensor_cache::{TensorTable, DEFAULT_BUDGET_BYTES};
use landau_fem::FemSpace;
use landau_obs::MetricRegistry;
use landau_par::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// How [`BatchedAdvance::advance`] executes the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// Per-vertex solve loop (the reference oracle): each vertex runs its
    /// own assemble/factor/solve pipeline to completion.
    HostLoop,
    /// One fused batched launch per pipeline stage across all vertices,
    /// with a per-vertex active mask (the default).
    Fused,
}

/// Consecutive fused macro steps a lane may need recovery on before the
/// ladder demotes it to the host rung.
const DEMOTE_AFTER: u32 = 2;

/// Execution rung of one vertex lane in the graceful-degradation ladder.
///
/// A lane that keeps falling off the fused lockstep (every step needs
/// recovery, or a step fails terminally) is demoted one rung at a time
/// instead of taking the whole batch down or silently burning lockstep
/// rounds:
///
/// 1. [`LaneMode::Fused`] — rides the batched launches (the default);
/// 2. [`LaneMode::Host`] — excluded from the lockstep, advanced through
///    the per-vertex reference pipeline (same arithmetic, so healthy
///    results stay bitwise identical);
/// 3. checkpoint rollback — on a host-rung terminal failure the lane is
///    rolled back to its last good state with `Δt` pinned at the policy
///    floor for one final attempt;
/// 4. [`LaneMode::Failed`] — retired at its last good state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneMode {
    /// Riding the fused batched launches.
    Fused,
    /// Demoted to the per-vertex host pipeline.
    Host,
    /// Retired: recovery, demotion and rollback were all exhausted.
    Failed,
}

/// Checkpoint plumbing installed by [`BatchedAdvance::enable_checkpointing`].
struct BatchCkptHook {
    store: CheckpointStore,
    policy: CheckpointPolicy,
    cursor: PolicyCursor,
}

/// Version tag of the batched-advance checkpoint payload.
const BATCH_CKPT_VERSION: u32 = 1;

/// A batch of independent vertex problems sharing one configuration: one
/// `Arc<FemSpace>` (no per-vertex mesh clones) and one `Arc<TensorTable>`
/// geometry cache streamed by every vertex's Jacobian builds.
pub struct BatchedAdvance {
    steppers: Vec<AdaptiveStepper>,
    /// One state per vertex.
    pub states: Vec<Vec<f64>>,
    /// Shared metrics sink every [`Self::advance`] publishes into.
    /// Defaults to the process-global registry; swap with
    /// [`Self::set_metric_registry`] for isolated accounting.
    metrics: Arc<MetricRegistry>,
    mode: BatchMode,
    /// Lazily built reusable storage for the fused pipeline.
    fused_ws: Option<FusedWorkspace>,
    /// Degradation-ladder rung per vertex (fused mode only).
    lane_modes: Vec<LaneMode>,
    /// Consecutive fused macro steps a lane needed recovery on.
    lane_bad_streak: Vec<u32>,
    /// Whether the checkpoint-rollback rung has been consumed.
    lane_rolled_back: Vec<bool>,
    /// Stats merged across every advance (and across resumes).
    cumulative: BatchStats,
    /// Macro steps completed over the batch's lifetime (checkpoint clock).
    macro_steps: u64,
    ckpt: Option<BatchCkptHook>,
}

/// Per-vertex outcome of a batched advance: the recovery layer isolates
/// failures, so one pathological vertex reports here instead of taking
/// down the fleet.
#[derive(Clone, Copy, Debug)]
pub struct VertexStats {
    /// Newton iterations this vertex performed (successful steps only).
    pub newton_iters: usize,
    /// Failed step attempts that went through recovery (damped retry or
    /// Δt halving), including the attempts of a terminally failed step.
    pub retried: usize,
    /// Smallest substep attempted, as a fraction of the nominal `Δt`
    /// (1.0 when no subdivision was needed). Failed steps contribute the
    /// smallest fraction they reached before giving up.
    pub dt_fraction_min: f64,
    /// True if the vertex exhausted its recovery budget and was left at
    /// its last good state.
    pub failed: bool,
}

impl VertexStats {
    fn fresh() -> Self {
        VertexStats {
            newton_iters: 0,
            retried: 0,
            dt_fraction_min: 1.0,
            failed: false,
        }
    }
}

/// Throughput measurement of a batched advance.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Total Newton iterations across the batch, including work a later
    /// failure threw away.
    pub newton_iters: usize,
    /// Newton iterations of vertices that finished the advance healthy —
    /// the numerator of [`Self::newton_per_sec`]. Retired/failed lanes'
    /// idle or discarded work does not inflate throughput.
    pub productive_newton_iters: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Productive Newton iterations per second (the paper's figure of
    /// merit). Zero (not NaN) for zero-iteration runs.
    pub newton_per_sec: f64,
    /// Vertices that exhausted their recovery budget.
    pub failed: usize,
    /// Recovered/failed step attempts summed over vertices.
    pub retried: usize,
    /// Smallest substep fraction attempted across the batch.
    pub dt_fraction_min: f64,
    /// Fused grid launches issued (0 in [`BatchMode::HostLoop`]).
    pub launches: u64,
    /// Sum over fused kernel launches of the live-lane count — divide by
    /// [`Self::launches`] for mean occupancy of the batched geometry.
    pub active_lane_sum: u64,
    /// Lanes that retired (converged or failed) during lockstep — the raw
    /// numerator of [`Self::retired_per_newton`], kept so
    /// [`Self::merge`] can recompute the ratio exactly across segments.
    pub lockstep_retired: u64,
    /// Lockstep Newton rounds run — the raw denominator of
    /// [`Self::retired_per_newton`].
    pub newton_rounds: u64,
    /// Lanes retired (converged or failed) per lockstep Newton round
    /// (0 in [`BatchMode::HostLoop`]).
    pub retired_per_newton: f64,
    /// Per-vertex breakdown (same order as [`BatchedAdvance::states`]).
    pub per_vertex: Vec<VertexStats>,
}

impl BatchStats {
    fn build(per_vertex: Vec<VertexStats>, seconds: f64, counters: FusedCounters) -> Self {
        let iters: usize = per_vertex.iter().map(|v| v.newton_iters).sum();
        let productive: usize = per_vertex
            .iter()
            .filter(|v| !v.failed)
            .map(|v| v.newton_iters)
            .sum();
        let mut stats = BatchStats {
            newton_iters: iters,
            productive_newton_iters: productive,
            seconds,
            newton_per_sec: 0.0,
            failed: per_vertex.iter().filter(|v| v.failed).count(),
            retried: per_vertex.iter().map(|v| v.retried).sum(),
            dt_fraction_min: per_vertex
                .iter()
                .map(|v| v.dt_fraction_min)
                .fold(1.0, f64::min),
            launches: counters.launches,
            active_lane_sum: counters.active_lane_sum,
            lockstep_retired: counters.retired,
            newton_rounds: counters.newton_rounds,
            retired_per_newton: 0.0,
            per_vertex,
        };
        stats.derive_ratios();
        stats
    }

    /// Recompute the derived ratios from the raw counters. `0/0` must read
    /// as idle, not NaN: zero-iteration runs and empty resumed segments
    /// feed throughput tables downstream.
    fn derive_ratios(&mut self) {
        self.newton_per_sec = if self.productive_newton_iters == 0 || self.seconds <= 0.0 {
            0.0
        } else {
            self.productive_newton_iters as f64 / self.seconds
        };
        self.retired_per_newton = if self.newton_rounds == 0 {
            0.0
        } else {
            self.lockstep_retired as f64 / self.newton_rounds as f64
        };
    }

    /// An empty accumulator for [`BatchStats::merge`] — the identity
    /// element (`dt_fraction_min` starts at 1, not the `Default` zero).
    pub(crate) fn accumulator() -> Self {
        BatchStats {
            dt_fraction_min: 1.0,
            ..Default::default()
        }
    }

    /// Fold another segment's stats into this accumulator: counters add,
    /// minima track, per-vertex breakdowns merge elementwise, and the
    /// derived ratios (`newton_per_sec`, `retired_per_newton`) are
    /// recomputed from the merged raw counters. A resumed run that has
    /// performed zero iterations so far merges to zero throughput, never
    /// NaN — `0/0` on an empty segment must read as idle.
    pub fn merge(&mut self, other: &BatchStats) {
        self.newton_iters += other.newton_iters;
        self.productive_newton_iters += other.productive_newton_iters;
        self.seconds += other.seconds;
        self.retried += other.retried;
        self.dt_fraction_min = self.dt_fraction_min.min(other.dt_fraction_min);
        self.launches += other.launches;
        self.active_lane_sum += other.active_lane_sum;
        self.lockstep_retired += other.lockstep_retired;
        self.newton_rounds += other.newton_rounds;
        if self.per_vertex.len() < other.per_vertex.len() {
            self.per_vertex
                .resize_with(other.per_vertex.len(), VertexStats::fresh);
        }
        for (a, b) in self.per_vertex.iter_mut().zip(&other.per_vertex) {
            a.newton_iters += b.newton_iters;
            a.retried += b.retried;
            a.dt_fraction_min = a.dt_fraction_min.min(b.dt_fraction_min);
            a.failed |= b.failed;
        }
        self.failed = self.per_vertex.iter().filter(|v| v.failed).count();
        self.derive_ratios();
    }

    /// Publish this advance's aggregate into `reg` under `batch.*`:
    /// counters for iteration/advance/failure/launch totals, max-gauges
    /// for throughput and retirement rate, and a histogram of per-vertex
    /// Newton work (the load balance signal across the fleet).
    pub fn publish(&self, reg: &MetricRegistry) {
        reg.add("batch.newton_iters", self.newton_iters as u64);
        reg.add("batch.advances", 1);
        reg.add("batch.failed", self.failed as u64);
        reg.add("batch.retried", self.retried as u64);
        reg.add("batch.launches", self.launches);
        reg.add("batch.active_lanes", self.active_lane_sum);
        reg.gauge_max("batch.newton_per_sec", self.newton_per_sec);
        reg.gauge_max("batch.retired_per_newton", self.retired_per_newton);
        for v in &self.per_vertex {
            reg.observe("batch.vertex_newton_iters", v.newton_iters as u64);
        }
    }
}

impl BatchedAdvance {
    /// Build `n_vertices` independent problems on one shared space. Each
    /// vertex gets a slightly different initial electron temperature, like
    /// neighbouring spatial points of a profile.
    pub fn new(
        space: &FemSpace,
        species: &SpeciesList,
        backend: Backend,
        n_vertices: usize,
    ) -> Self {
        Self::new_shared(
            Arc::new(space.clone()),
            species,
            backend,
            n_vertices,
            DEFAULT_BUDGET_BYTES,
        )
    }

    /// Build the batch on an already shared space with an explicit tensor
    /// cache budget. The geometry is identical across vertices, so *one*
    /// table (built by the first vertex's operator) is streamed by all of
    /// them — the cross-vertex reuse the paper's conclusion argues for.
    pub fn new_shared(
        space: Arc<FemSpace>,
        species: &SpeciesList,
        backend: Backend,
        n_vertices: usize,
        cache_budget_bytes: usize,
    ) -> Self {
        assert!(n_vertices > 0);
        let mut table: Option<Arc<TensorTable>> = None;
        let steppers: Vec<AdaptiveStepper> = (0..n_vertices)
            .map(|_| {
                let mut op = LandauOperator::new_shared(space.clone(), species.clone(), backend);
                match &table {
                    None => table = Some(op.enable_tensor_cache(cache_budget_bytes)),
                    Some(t) => op.set_tensor_table(t.clone()),
                }
                let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
                ti.rtol = 1e-6;
                AdaptiveStepper::new(ti)
            })
            .collect();
        let states: Vec<Vec<f64>> = steppers
            .iter()
            .enumerate()
            .map(|(v, st)| {
                let mut s = st.ti.op.initial_state();
                // A mild spatial profile: vary the electron density ±10%.
                let scale = 1.0 + 0.1 * ((v as f64 / n_vertices.max(1) as f64) - 0.5);
                for x in s[..st.ti.op.n()].iter_mut() {
                    *x *= scale;
                }
                s
            })
            .collect();
        BatchedAdvance {
            lane_modes: vec![LaneMode::Fused; n_vertices],
            lane_bad_streak: vec![0; n_vertices],
            lane_rolled_back: vec![false; n_vertices],
            cumulative: BatchStats::accumulator(),
            macro_steps: 0,
            ckpt: None,
            steppers,
            states,
            metrics: MetricRegistry::global_arc(),
            mode: BatchMode::Fused,
            fused_ws: None,
        }
    }

    /// Redirect this batch's metric publishing to `registry`. Monitors
    /// already installed by [`Self::enable_monitoring`] keep publishing
    /// into the registry they were built with.
    pub fn set_metric_registry(&mut self, registry: Arc<MetricRegistry>) {
        self.metrics = registry;
    }

    /// Select the execution mode (fused batched launches vs the reference
    /// per-vertex host loop).
    pub fn set_mode(&mut self, mode: BatchMode) {
        self.mode = mode;
    }

    /// The currently selected execution mode.
    pub fn mode(&self) -> BatchMode {
        self.mode
    }

    /// Install a [`ConservationMonitor`] with watchdog `wd` on every
    /// vertex's integrator, publishing `invariant.*` into this batch's
    /// metric registry (max-merged across the fleet — one bad vertex
    /// shows up in `invariant.mass.drift_max` no matter which one it
    /// was). In [`crate::invariants::WatchdogMode::Fail`] a violating
    /// vertex fails transactionally and is reported per vertex like any
    /// other recovery-budget exhaustion.
    pub fn enable_monitoring(&mut self, wd: Watchdog) {
        for st in &mut self.steppers {
            let mon =
                ConservationMonitor::new(&st.ti.op, wd).with_registry(Arc::clone(&self.metrics));
            st.ti.monitor = Some(mon);
        }
    }

    /// Number of vertex problems.
    pub fn len(&self) -> usize {
        self.steppers.len()
    }

    /// The one shared finite-element space.
    pub fn space(&self) -> &Arc<FemSpace> {
        &self.steppers[0].ti.op.space
    }

    /// The one shared geometry cache.
    pub fn tensor_table(&self) -> Option<&Arc<TensorTable>> {
        self.steppers[0].ti.op.tensor_table()
    }

    /// The recovery wrapper for one vertex (tests and diagnostics).
    pub fn stepper(&self, v: usize) -> &AdaptiveStepper {
        &self.steppers[v]
    }

    /// Mutable access to one vertex's recovery wrapper (to tune policy or
    /// tolerances per vertex).
    pub fn stepper_mut(&mut self, v: usize) -> &mut AdaptiveStepper {
        &mut self.steppers[v]
    }

    /// Heap bytes the shared-space design avoids relative to per-vertex
    /// `FemSpace` clones (the pre-cache constructor's behaviour).
    pub fn space_bytes_saved(&self) -> usize {
        self.space().approx_heap_bytes() * (self.len() - 1)
    }

    /// True if the batch is empty (never for constructed batches).
    pub fn is_empty(&self) -> bool {
        self.steppers.is_empty()
    }

    /// Advance every vertex by `steps` implicit steps of `dt` and measure
    /// aggregate throughput. In the default fused mode the whole fleet's
    /// Newton pipeline executes as one batched launch per stage; in host
    /// mode vertices run their own pipelines concurrently. Either way
    /// each vertex sits behind its own recovery wrapper: a vertex that
    /// exhausts its retry budget is left at its last good state and
    /// reported in [`BatchStats::failed`] instead of panicking the fleet.
    pub fn advance(&mut self, dt: f64, steps: usize, e_field: f64) -> BatchStats {
        let stats = match self.mode {
            BatchMode::Fused => self.advance_fused(dt, steps, e_field),
            BatchMode::HostLoop => self.advance_host_loop(dt, steps, e_field),
        };
        stats.publish(&self.metrics);
        self.cumulative.merge(&stats);
        self.macro_steps += steps as u64;
        self.maybe_checkpoint();
        stats
    }

    /// Aggregate stats merged over every advance since construction (and,
    /// after [`Self::resume_from_checkpoint`], over the pre-kill segment
    /// too — counters continue instead of restarting).
    pub fn cumulative_stats(&self) -> &BatchStats {
        &self.cumulative
    }

    /// Macro steps completed over the batch's lifetime (continues across
    /// checkpoint/resume).
    pub fn macro_steps(&self) -> u64 {
        self.macro_steps
    }

    /// Current degradation-ladder rung of vertex `v`.
    pub fn lane_mode(&self, v: usize) -> LaneMode {
        self.lane_modes[v]
    }

    /// The reference per-vertex loop (the pre-fusion behaviour, kept as
    /// the bitwise oracle for the fused path).
    fn advance_host_loop(&mut self, dt: f64, steps: usize, e_field: f64) -> BatchStats {
        let _sp = landau_obs::span(landau_obs::names::BATCH_ADVANCE);
        let t0 = Instant::now();
        let per_vertex: Vec<VertexStats> = self
            .steppers
            .par_iter_mut()
            .zip(self.states.par_iter_mut())
            .map(|(st, state)| {
                let _sp_v = landau_obs::span(landau_obs::names::VERTEX_ADVANCE);
                let mut vs = VertexStats::fresh();
                for _ in 0..steps {
                    match st.advance(state, dt, e_field, None) {
                        Ok((stats, rec)) => {
                            vs.newton_iters += stats.newton_iters;
                            vs.retried += rec.retried;
                            vs.dt_fraction_min = vs.dt_fraction_min.min(rec.dt_fraction_min);
                        }
                        Err(f) => {
                            // A terminal failure still consumed attempts
                            // and Δt subdivisions — fold them into the
                            // aggregate instead of dropping them.
                            vs.failed = true;
                            vs.retried += f.attempts;
                            vs.dt_fraction_min = vs.dt_fraction_min.min(f.dt_fraction);
                            break;
                        }
                    }
                }
                vs
            })
            .collect();
        let seconds = t0.elapsed().as_secs_f64();
        BatchStats::build(per_vertex, seconds, FusedCounters::default())
    }

    /// The fused batched pipeline: one macro step advances every healthy
    /// vertex through lockstep batched launches (see [`crate::batch_fused`]),
    /// with the graceful-degradation ladder (see [`LaneMode`]) isolating
    /// persistently-failing lanes one rung at a time instead of retiring
    /// them on the first terminal failure.
    fn advance_fused(&mut self, dt: f64, steps: usize, e_field: f64) -> BatchStats {
        let _sp = landau_obs::span(landau_obs::names::BATCH_ADVANCE);
        let t0 = Instant::now();
        let BatchedAdvance {
            steppers,
            states,
            fused_ws,
            lane_modes,
            lane_bad_streak,
            lane_rolled_back,
            metrics,
            ..
        } = self;
        let ws = fused_ws.get_or_insert_with(|| FusedWorkspace::new(steppers));
        let n_vertices = steppers.len();
        let mut per_vertex: Vec<VertexStats> =
            (0..n_vertices).map(|_| VertexStats::fresh()).collect();
        let mut counters = FusedCounters::default();
        let mut skip = vec![false; n_vertices];
        for _ in 0..steps {
            // Rungs are sampled at macro-step entry: a lane demoted during
            // this step already advanced (or terminally failed) inside the
            // ladder below and must not step twice.
            let mode_at_entry = lane_modes.clone();
            for v in 0..n_vertices {
                skip[v] = mode_at_entry[v] != LaneMode::Fused;
            }
            let mut outcomes =
                fused_macro_step(steppers, states, &skip, ws, dt, e_field, &mut counters);
            for v in 0..n_vertices {
                let res = match mode_at_entry[v] {
                    // Retired lanes stay at their last good state but are
                    // still reported as failed in every segment's stats.
                    LaneMode::Failed => {
                        per_vertex[v].failed = true;
                        None
                    }
                    // Demoted lanes run the per-vertex reference pipeline —
                    // identical arithmetic, so a healthy demoted lane stays
                    // bitwise equal to the host-loop oracle.
                    LaneMode::Host => {
                        metrics.add("degrade.host_steps", 1);
                        Some(steppers[v].advance(&mut states[v], dt, e_field, None))
                    }
                    LaneMode::Fused => outcomes[v].take(),
                };
                let Some(res) = res else { continue };
                match res {
                    Ok((stats, rec)) => {
                        record_success(&mut per_vertex[v], &stats, &rec);
                        if rec.retried == 0 {
                            lane_bad_streak[v] = 0;
                        } else {
                            lane_bad_streak[v] += 1;
                            if lane_modes[v] == LaneMode::Fused
                                && lane_bad_streak[v] >= DEMOTE_AFTER
                            {
                                // Persistently recovering: stop burning
                                // lockstep rounds on this lane.
                                lane_modes[v] = LaneMode::Host;
                                lane_bad_streak[v] = 0;
                                metrics.add("degrade.demotions", 1);
                                landau_obs::Journal::global()
                                    .publish(landau_obs::Event::degrade("host", v as u64));
                            }
                        }
                    }
                    Err(first) => {
                        // Terminal failure: escalate down the ladder within
                        // this macro step until an attempt lands or the
                        // rungs run out.
                        let mut f = first;
                        loop {
                            per_vertex[v].retried += f.attempts;
                            per_vertex[v].dt_fraction_min =
                                per_vertex[v].dt_fraction_min.min(f.dt_fraction);
                            match lane_modes[v] {
                                LaneMode::Fused => {
                                    lane_modes[v] = LaneMode::Host;
                                    lane_bad_streak[v] = 0;
                                    metrics.add("degrade.demotions", 1);
                                    landau_obs::Journal::global()
                                        .publish(landau_obs::Event::degrade("host", v as u64));
                                }
                                LaneMode::Host if !lane_rolled_back[v] => {
                                    // Final rung before retirement: roll the
                                    // lane back to its last good state and
                                    // pin Δt at the policy floor.
                                    lane_rolled_back[v] = true;
                                    metrics.add("degrade.rollbacks", 1);
                                    landau_obs::Journal::global()
                                        .publish(landau_obs::Event::degrade("rollback", v as u64));
                                    let st = &mut steppers[v];
                                    if st.checkpoint().len() == states[v].len() {
                                        let ck = st.checkpoint().to_vec();
                                        states[v].copy_from_slice(&ck);
                                    }
                                    st.dt_scale = st.cfg.min_dt_fraction;
                                }
                                _ => {
                                    lane_modes[v] = LaneMode::Failed;
                                    per_vertex[v].failed = true;
                                    metrics.add("degrade.failed_lanes", 1);
                                    landau_obs::Journal::global()
                                        .publish(landau_obs::Event::degrade("failed", v as u64));
                                    break;
                                }
                            }
                            metrics.add("degrade.host_steps", 1);
                            match steppers[v].advance(&mut states[v], dt, e_field, None) {
                                Ok((stats, rec)) => {
                                    record_success(&mut per_vertex[v], &stats, &rec);
                                    break;
                                }
                                Err(next) => f = next,
                            }
                        }
                    }
                }
            }
        }
        let seconds = t0.elapsed().as_secs_f64();
        BatchStats::build(per_vertex, seconds, counters)
    }

    /// Install a durable checkpoint store and policy on this batch. A
    /// checkpoint is cut after any [`Self::advance`] that makes the policy
    /// due (macro-step count or wall clock); `keep` generations are
    /// retained (clamped to ≥ 2). Write failures are counted by the store
    /// (`ckpt.write_failures`) and never abort the run.
    pub fn enable_checkpointing(
        &mut self,
        storage: Box<dyn Storage>,
        keep: usize,
        policy: CheckpointPolicy,
    ) {
        let store = CheckpointStore::new(storage, keep).with_registry(Arc::clone(&self.metrics));
        self.ckpt = Some(BatchCkptHook {
            store,
            policy,
            cursor: PolicyCursor::new(),
        });
    }

    /// Cut a checkpoint generation immediately (independent of the policy).
    pub fn checkpoint_now(&mut self) -> Result<u64, CkptError> {
        let payload = self.encode_ckpt();
        match self.ckpt.as_mut() {
            Some(h) => h.store.save(&payload),
            None => Err(CkptError::Io {
                op: "save",
                detail: "checkpointing not enabled on this batch".into(),
            }),
        }
    }

    /// Restore the newest good checkpoint generation, if any. Returns
    /// `Ok(false)` when no checkpoint exists (fresh start). The batch must
    /// be constructed with the same geometry and vertex count as the run
    /// that wrote the checkpoint; afterwards, re-advancing the remaining
    /// macro steps reproduces the uninterrupted trajectory bitwise
    /// (states, stepper policy state, lane rungs and the fault schedule
    /// all resume from the checkpointed cursor).
    pub fn resume_from_checkpoint(&mut self) -> Result<bool, CkptError> {
        let loaded = match self.ckpt.as_mut() {
            Some(h) => h.store.load_latest()?,
            None => {
                return Err(CkptError::Io {
                    op: "load",
                    detail: "checkpointing not enabled on this batch".into(),
                })
            }
        };
        let Some(loaded) = loaded else {
            return Ok(false);
        };
        self.restore_ckpt(&loaded.payload)?;
        let steps = self.macro_steps;
        if let Some(h) = self.ckpt.as_mut() {
            h.cursor.rebase(steps);
        }
        Ok(true)
    }

    /// Cut a checkpoint if the policy says one is due. Failures are
    /// best-effort: counted by the store, the run continues on previous
    /// generations.
    fn maybe_checkpoint(&mut self) {
        let steps = self.macro_steps;
        let due = match self.ckpt.as_mut() {
            Some(h) => h.cursor.due(&h.policy, steps, false),
            None => return,
        };
        if due {
            let _ = self.checkpoint_now();
        }
    }

    /// Serialize the full batch state: per-vertex states, adaptive-stepper
    /// policy snapshots, degradation-ladder rungs, per-device fault
    /// cursors, and the cumulative stats raw counters.
    fn encode_ckpt(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(BATCH_CKPT_VERSION);
        w.put_u64(self.steppers.len() as u64);
        w.put_u64(self.macro_steps);
        for (v, st) in self.steppers.iter().enumerate() {
            w.put_f64_slice(&self.states[v]);
            let sc = st.export_ckpt();
            w.put_f64(sc.dt_scale);
            w.put_u64(sc.easy_streak);
            w.put_f64_slice(&sc.checkpoint);
            w.put_u8(match self.lane_modes[v] {
                LaneMode::Fused => 0,
                LaneMode::Host => 1,
                LaneMode::Failed => 2,
            });
            w.put_u64(self.lane_bad_streak[v] as u64);
            w.put_u8(u8::from(self.lane_rolled_back[v]));
            encode_fault_cursor(&mut w, &st.ti.op.device.export_fault_cursor());
        }
        let c = &self.cumulative;
        w.put_u64(c.newton_iters as u64);
        w.put_u64(c.productive_newton_iters as u64);
        w.put_f64(c.seconds);
        w.put_u64(c.retried as u64);
        w.put_f64(c.dt_fraction_min);
        w.put_u64(c.launches);
        w.put_u64(c.active_lane_sum);
        w.put_u64(c.lockstep_retired);
        w.put_u64(c.newton_rounds);
        w.put_u64(c.per_vertex.len() as u64);
        for vs in &c.per_vertex {
            w.put_u64(vs.newton_iters as u64);
            w.put_u64(vs.retried as u64);
            w.put_f64(vs.dt_fraction_min);
            w.put_u8(u8::from(vs.failed));
        }
        w.into_bytes()
    }

    /// Inverse of [`Self::encode_ckpt`]: validate everything against this
    /// batch's geometry, then commit. Nothing is mutated on error.
    fn restore_ckpt(&mut self, payload: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(payload);
        let version = r.get_u32()?;
        if version != BATCH_CKPT_VERSION {
            return Err(CkptError::Incompatible {
                reason: format!(
                    "batch checkpoint version {version}, this build reads {BATCH_CKPT_VERSION}"
                ),
            });
        }
        let n = r.get_u64()? as usize;
        if n != self.steppers.len() {
            return Err(CkptError::Incompatible {
                reason: format!(
                    "checkpoint has {n} vertices, this batch has {}",
                    self.steppers.len()
                ),
            });
        }
        let macro_steps = r.get_u64()?;
        let mut states = Vec::with_capacity(n);
        let mut stepper_ckpts = Vec::with_capacity(n);
        let mut modes = Vec::with_capacity(n);
        let mut streaks = Vec::with_capacity(n);
        let mut rolled = Vec::with_capacity(n);
        let mut cursors = Vec::with_capacity(n);
        for v in 0..n {
            let state = r.get_f64_vec()?;
            if state.len() != self.states[v].len() {
                return Err(CkptError::Incompatible {
                    reason: format!(
                        "vertex {v}: checkpoint has {} dofs, this batch has {}",
                        state.len(),
                        self.states[v].len()
                    ),
                });
            }
            states.push(state);
            stepper_ckpts.push(StepperCkpt {
                dt_scale: r.get_f64()?,
                easy_streak: r.get_u64()?,
                checkpoint: r.get_f64_vec()?,
            });
            modes.push(match r.get_u8()? {
                0 => LaneMode::Fused,
                1 => LaneMode::Host,
                2 => LaneMode::Failed,
                t => {
                    return Err(CkptError::Corrupt {
                        reason: format!("unknown lane mode tag {t}"),
                    })
                }
            });
            streaks.push(r.get_u64()? as u32);
            rolled.push(r.get_u8()? != 0);
            cursors.push(decode_fault_cursor(&mut r)?);
        }
        // Cumulative raw counters; the derived ratios recompute NaN-proof
        // (an empty resumed segment reads as idle, never NaN).
        let newton_iters = r.get_u64()? as usize;
        let productive = r.get_u64()? as usize;
        let seconds = r.get_f64()?;
        let retried = r.get_u64()? as usize;
        let dt_fraction_min = r.get_f64()?;
        let launches = r.get_u64()?;
        let active_lane_sum = r.get_u64()?;
        let lockstep_retired = r.get_u64()?;
        let newton_rounds = r.get_u64()?;
        let n_pv = r.get_u64()? as usize;
        if n_pv > n {
            return Err(CkptError::Corrupt {
                reason: format!("cumulative per-vertex count {n_pv} exceeds batch size {n}"),
            });
        }
        let mut per_vertex = Vec::with_capacity(n_pv);
        for _ in 0..n_pv {
            per_vertex.push(VertexStats {
                newton_iters: r.get_u64()? as usize,
                retried: r.get_u64()? as usize,
                dt_fraction_min: r.get_f64()?,
                failed: r.get_u8()? != 0,
            });
        }
        r.finish()?;
        let mut cumulative = BatchStats {
            newton_iters,
            productive_newton_iters: productive,
            seconds,
            newton_per_sec: 0.0,
            failed: per_vertex.iter().filter(|v| v.failed).count(),
            retried,
            dt_fraction_min,
            launches,
            active_lane_sum,
            lockstep_retired,
            newton_rounds,
            retired_per_newton: 0.0,
            per_vertex,
        };
        cumulative.derive_ratios();
        // All validated: commit.
        self.macro_steps = macro_steps;
        for v in 0..n {
            self.states[v].copy_from_slice(&states[v]);
            self.steppers[v].restore_ckpt(&stepper_ckpts[v]);
            self.steppers[v]
                .ti
                .op
                .device
                .restore_fault_cursor(&cursors[v]);
        }
        self.lane_modes = modes;
        self.lane_bad_streak = streaks;
        self.lane_rolled_back = rolled;
        self.cumulative = cumulative;
        Ok(())
    }

    /// Electron temperature of each vertex (diagnostic).
    pub fn electron_temperatures(&self) -> Vec<f64> {
        self.steppers
            .iter()
            .zip(&self.states)
            .map(|(st, s)| st.ti.moments.electron_temperature(s))
            .collect()
    }
}

/// Fold one successful advance into a vertex's per-advance breakdown.
fn record_success(vs: &mut VertexStats, stats: &StepStats, rec: &RecoveryStats) {
    vs.newton_iters += stats.newton_iters;
    vs.retried += rec.retried;
    vs.dt_fraction_min = vs.dt_fraction_min.min(rec.dt_fraction_min);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::Species;
    use landau_mesh::presets::{MeshSpec, RefineShell};
    use landau_vgpu::fault::{FaultKind, FaultPlan, SITE_LU_FACTOR};

    fn tiny_space() -> FemSpace {
        let spec = MeshSpec {
            domain_radius: 4.0,
            base_level: 1,
            shells: vec![RefineShell {
                radius: 1.5,
                max_cell_size: 1.0,
            }],
            tail_box: None,
        };
        FemSpace::new(spec.build(), 2)
    }

    fn plasma() -> SpeciesList {
        SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: 0.7,
            },
        ])
    }

    #[test]
    fn batch_advances_all_vertices() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        assert_eq!(b.len(), 3);
        let te0 = b.electron_temperatures();
        let stats = b.advance(0.5, 2, 0.0);
        assert!(stats.newton_iters >= 3 * 2, "{stats:?}");
        assert!(stats.newton_per_sec > 0.0);
        let te1 = b.electron_temperatures();
        // Every vertex relaxed (electrons cool toward the colder ions).
        for (a, b) in te0.iter().zip(&te1) {
            assert!(b < a, "{a} -> {b}");
        }
    }

    #[test]
    fn fused_matches_host_loop_bitwise() {
        let space = tiny_space();
        let mut host = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        host.set_mode(BatchMode::HostLoop);
        let mut fused = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        assert_eq!(fused.mode(), BatchMode::Fused);
        let sh = host.advance(0.4, 2, 0.0);
        let sf = fused.advance(0.4, 2, 0.0);
        assert_eq!(sh.failed, 0, "{sh:?}");
        assert_eq!(sf.failed, 0, "{sf:?}");
        // The fused pipeline is a reordering of identical arithmetic:
        // every vertex's state must match the reference loop bit for bit.
        for (v, (a, b)) in host.states.iter().zip(&fused.states).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "vertex {v} dof {i}: {x:e} vs {y:e}"
                );
            }
        }
        assert_eq!(sh.newton_iters, sf.newton_iters);
        // Launch accounting only exists on the fused path: 3 launches
        // (kernel, factor, solve) per lockstep Newton round.
        assert_eq!(sh.launches, 0);
        assert!(sf.launches > 0, "{sf:?}");
        assert!(sf.active_lane_sum >= sf.launches / 3);
        assert!(sf.retired_per_newton > 0.0);
    }

    #[test]
    fn fused_instrumentation_does_not_perturb_states() {
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        plain.advance(0.4, 1, 0.0);
        // Recording off: the fused launches skip span bookkeeping but must
        // produce bit-identical states (instrumentation never touches
        // solver arithmetic).
        let was = landau_obs::recording();
        landau_obs::set_recording(false);
        let mut quiet = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        quiet.advance(0.4, 1, 0.0);
        landau_obs::set_recording(was);
        for (v, (a, b)) in plain.states.iter().zip(&quiet.states).enumerate() {
            assert_eq!(a, b, "vertex {v} state changed under instrumentation");
        }
    }

    #[test]
    fn vertices_are_independent() {
        let space = tiny_space();
        let mut batch = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 2);
        let solo_state = batch.states[0].clone();
        batch.advance(0.4, 1, 0.0);
        // Vertex 0 evolved exactly as it would alone (the solo integrator
        // streams the same kind of geometry cache the batch shares).
        let mut op = LandauOperator::new(tiny_space(), plasma(), Backend::Cpu);
        op.enable_tensor_cache(crate::tensor_cache::DEFAULT_BUDGET_BYTES);
        let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
        ti.rtol = 1e-6;
        let mut s = solo_state;
        ti.step(&mut s, 0.4, 0.0, None);
        let d: f64 = s
            .iter()
            .zip(&batch.states[0])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = s.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(d < 1e-12 * scale, "batch diverged from solo: {d}");
    }

    #[test]
    fn space_and_table_are_shared_across_vertices() {
        let space = tiny_space();
        let batch = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 4);
        let shared = batch.space();
        let table = batch.tensor_table().expect("cache on by default");
        for st in &batch.steppers {
            assert!(
                Arc::ptr_eq(shared, &st.ti.op.space),
                "every vertex must hold the same FemSpace allocation"
            );
            assert!(
                Arc::ptr_eq(table, st.ti.op.tensor_table().unwrap()),
                "every vertex must stream the same tensor table"
            );
        }
        // 4 vertices: 3 clones avoided.
        assert_eq!(batch.space_bytes_saved(), 3 * shared.approx_heap_bytes());
        assert!(shared.approx_heap_bytes() > 0);
    }

    #[test]
    fn zero_iteration_run_reports_zero_throughput() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 1);
        let stats = b.advance(0.5, 0, 0.0);
        assert_eq!(stats.newton_iters, 0);
        assert_eq!(stats.newton_per_sec, 0.0, "0/0 must read as idle");
        assert!(!stats.newton_per_sec.is_nan());
        assert!(!stats.retired_per_newton.is_nan());
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn monitored_batch_publishes_fleet_wide_drift() {
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        plain.advance(0.4, 2, 0.0);

        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        let reg = Arc::new(MetricRegistry::new());
        b.set_metric_registry(Arc::clone(&reg));
        b.enable_monitoring(Watchdog::recording());
        let stats = b.advance(0.4, 2, 0.0);
        assert_eq!(stats.failed, 0, "{stats:?}");
        // Record-mode monitoring leaves every vertex bitwise identical.
        for (v, (a, c)) in plain.states.iter().zip(&b.states).enumerate() {
            assert_eq!(a, c, "vertex {v} state changed under monitoring");
        }
        let snap = reg.snapshot();
        // 3 vertices × 2 steps, max-merged drift at roundoff.
        assert_eq!(snap.counter("invariant.steps"), 6);
        assert_eq!(snap.counter("invariant.violations"), 0);
        assert!(snap.gauge("invariant.mass.drift_max").unwrap() <= 1e-10);
        assert!(snap.gauge("invariant.energy.drift_max").unwrap() <= 1e-10);
    }

    #[test]
    fn poisoned_vertex_fails_alone() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        // Corrupt vertex 1's state before the advance: its solve must fail
        // (NonFinite at the state guard) without touching the other
        // vertices' progress.
        b.states[1][0] = f64::NAN;
        let stats = b.advance(0.5, 2, 0.0);
        assert_eq!(stats.failed, 1, "{stats:?}");
        assert!(stats.per_vertex[1].failed);
        assert!(!stats.per_vertex[0].failed);
        assert!(!stats.per_vertex[2].failed);
        // Healthy vertices still advanced and cooled.
        assert!(stats.per_vertex[0].newton_iters > 0);
        assert!(stats.per_vertex[2].newton_iters > 0);
        let te = b.electron_temperatures();
        assert!(te[0].is_finite() && te[2].is_finite());
    }

    #[test]
    fn seeded_factor_fault_is_counted_and_excluded_from_throughput() {
        let space = tiny_space();
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        // Every LU factorization on vertex 1's device reports a singular
        // block: the lockstep attempt fails, recovery's damped retries and
        // Δt halvings all hit the same fault, and the vertex exhausts its
        // budget while the rest of the fleet advances.
        b.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(7).with_repeated(
                SITE_LU_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
        let stats = b.advance(0.4, 2, 0.0);
        assert_eq!(stats.failed, 1, "{stats:?}");
        assert!(stats.per_vertex[1].failed);
        // The terminal failure's attempts and Δt subdivisions must reach
        // the aggregate (the old host loop dropped both on the floor).
        assert!(
            stats.per_vertex[1].retried > 0,
            "failed attempts must be counted: {stats:?}"
        );
        assert!(stats.retried >= stats.per_vertex[1].retried);
        assert!(
            stats.per_vertex[1].dt_fraction_min < 1.0,
            "Δt halving attempts must reach dt_fraction_min: {stats:?}"
        );
        assert!(stats.dt_fraction_min <= stats.per_vertex[1].dt_fraction_min);
        // Throughput counts only healthy vertices' work.
        let productive: usize = stats
            .per_vertex
            .iter()
            .filter(|v| !v.failed)
            .map(|v| v.newton_iters)
            .sum();
        assert_eq!(stats.productive_newton_iters, productive);
        assert!(productive > 0);
        let expect = productive as f64 / stats.seconds;
        assert!(
            (stats.newton_per_sec - expect).abs() <= 1e-9 * expect,
            "throughput must use productive iterations only"
        );
        // Host-loop mode aggregates the same failure accounting.
        let mut h = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        h.set_mode(BatchMode::HostLoop);
        h.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(7).with_repeated(
                SITE_LU_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
        let hs = h.advance(0.4, 2, 0.0);
        assert_eq!(hs.failed, 1, "{hs:?}");
        assert!(hs.per_vertex[1].retried > 0);
        assert!(hs.per_vertex[1].dt_fraction_min < 1.0);
        assert_eq!(hs.productive_newton_iters, stats.productive_newton_iters);
    }

    #[test]
    fn fused_only_fault_demotes_lane_to_host_rung() {
        use landau_vgpu::fault::SITE_BATCHED_FACTOR;
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        plain.advance(0.4, 4, 0.0);

        // The batched-factor site exists only on the fused path: a lane
        // whose batched factorization is persistently singular recovers
        // through the host pipeline every step, so after `DEMOTE_AFTER`
        // retried steps the ladder moves it to the Host rung — where the
        // fault simply no longer fires.
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        let reg = Arc::new(MetricRegistry::new());
        b.set_metric_registry(Arc::clone(&reg));
        b.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(11).with_repeated(
                SITE_BATCHED_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
        let stats = b.advance(0.4, 4, 0.0);
        assert_eq!(
            stats.failed, 0,
            "host rung must absorb the fault: {stats:?}"
        );
        assert_eq!(b.lane_mode(0), LaneMode::Fused);
        assert_eq!(b.lane_mode(1), LaneMode::Host);
        assert_eq!(b.lane_mode(2), LaneMode::Fused);
        assert!(stats.per_vertex[1].retried > 0, "{stats:?}");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("degrade.demotions"), 1);
        assert!(snap.counter("degrade.host_steps") >= 2, "{snap:?}");
        assert_eq!(snap.counter("degrade.rollbacks"), 0);
        assert_eq!(snap.counter("degrade.failed_lanes"), 0);
        // Lanes that never faulted are untouched by their neighbour's
        // demotion: bitwise equal to the unfaulted fleet.
        for v in [0usize, 2] {
            for (i, (x, y)) in plain.states[v].iter().zip(&b.states[v]).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "vertex {v} dof {i}");
            }
        }
        // The demoted lane kept advancing through the host pipeline.
        assert!(b.electron_temperatures()[1].is_finite());
    }

    #[test]
    fn ladder_exhausts_to_failed_with_telemetry() {
        let space = tiny_space();
        // The host LU-factor site fires on every rung: fused attempt,
        // host retry, and the post-rollback dt-floor retry all hit the
        // same singular block, so the lane must walk the whole ladder
        // (demote → rollback → Failed) and then be skipped.
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        let reg = Arc::new(MetricRegistry::new());
        b.set_metric_registry(Arc::clone(&reg));
        b.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(7).with_repeated(
                SITE_LU_FACTOR,
                0,
                1_000_000,
                FaultKind::SingularBlock,
            ));
        let stats = b.advance(0.4, 3, 0.0);
        assert_eq!(stats.failed, 1, "{stats:?}");
        assert_eq!(b.lane_mode(1), LaneMode::Failed);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("degrade.demotions"), 1);
        assert_eq!(snap.counter("degrade.rollbacks"), 1);
        assert_eq!(snap.counter("degrade.failed_lanes"), 1);
        // A Failed lane is retired exactly once; later macro steps skip
        // it instead of re-walking the ladder.
        let stats2 = b.advance(0.4, 2, 0.0);
        assert_eq!(stats2.failed, 1, "{stats2:?}");
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counter("degrade.failed_lanes"), 1);
        // The healthy lanes keep their full throughput.
        assert!(stats2.per_vertex[0].newton_iters > 0);
        assert!(stats2.per_vertex[2].newton_iters > 0);
    }

    #[test]
    fn batched_site_faults_recover_like_step_guarded() {
        use landau_vgpu::fault::{SITE_BATCHED_JACOBIAN, SITE_BATCHED_SOLVE};
        let space = tiny_space();
        let mut plain = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        plain.advance(0.4, 2, 0.0);

        // One-shot corruption at each fused-launch-only site. The guard
        // ladder must classify both as non-finite failures, restore the
        // attempt transactionally and recover through the same damped
        // retry `step_guarded` uses — so the recovered trajectory is
        // bitwise identical to the unfaulted fleet (λ = 1 contracts on
        // this easy problem, and the restore wiped the corrupt attempt).
        let mut b = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        b.stepper(1)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(3).with(SITE_BATCHED_SOLVE, 0, FaultKind::Nan));
        b.stepper(2)
            .ti
            .op
            .device
            .arm_faults(FaultPlan::seeded(5).with(SITE_BATCHED_JACOBIAN, 0, FaultKind::Nan));
        let stats = b.advance(0.4, 2, 0.0);
        assert_eq!(stats.failed, 0, "{stats:?}");
        assert!(stats.per_vertex[1].retried >= 1, "{stats:?}");
        assert!(stats.per_vertex[2].retried >= 1, "{stats:?}");
        assert_eq!(stats.per_vertex[0].retried, 0, "{stats:?}");
        for (v, (a, c)) in plain.states.iter().zip(&b.states).enumerate() {
            for (i, (x, y)) in a.iter().zip(c).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "vertex {v} dof {i}: {x:e} vs {y:e}"
                );
            }
        }
        // Single-shot faults leave the lanes on the fused rung (one
        // retried step is below the demotion threshold).
        assert_eq!(b.lane_mode(1), LaneMode::Fused);
        assert_eq!(b.lane_mode(2), LaneMode::Fused);
    }

    #[test]
    fn batch_checkpoint_resume_is_bitwise() {
        use crate::ckpt::{CheckpointPolicy, MemStorage};
        let space = tiny_space();

        // Uninterrupted reference: 4 macro steps.
        let mut whole = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        for _ in 0..4 {
            whole.advance(0.4, 1, 0.0);
        }

        // Killed run: checkpoint every 2 macro steps, die after 3.
        let medium = MemStorage::new();
        let mut killed = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        killed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        for _ in 0..3 {
            killed.advance(0.4, 1, 0.0);
        }
        let killed_iters = killed.cumulative_stats().newton_iters;
        drop(killed);

        // Resume in a fresh process image sharing the durable medium.
        let mut res = BatchedAdvance::new(&space, &plasma(), Backend::Cpu, 3);
        res.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        assert!(res.resume_from_checkpoint().unwrap(), "no checkpoint found");
        assert_eq!(res.macro_steps(), 2, "checkpoint generation landed at 2");
        assert!(
            res.cumulative_stats().newton_iters < killed_iters,
            "resume rewinds to the checkpointed counters"
        );
        for _ in 0..2 {
            res.advance(0.4, 1, 0.0);
        }

        assert_eq!(res.macro_steps(), whole.macro_steps());
        for (v, (a, c)) in whole.states.iter().zip(&res.states).enumerate() {
            for (i, (x, y)) in a.iter().zip(c).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "vertex {v} dof {i}: {x:e} vs {y:e}"
                );
            }
        }
        // Counters continue across the kill instead of restarting.
        assert_eq!(
            res.cumulative_stats().newton_iters,
            whole.cumulative_stats().newton_iters
        );
        assert_eq!(
            res.cumulative_stats().productive_newton_iters,
            whole.cumulative_stats().productive_newton_iters
        );
        // An empty resumed segment must not poison the merged ratios.
        let s0 = res.advance(0.4, 0, 0.0);
        assert_eq!(s0.newton_per_sec, 0.0);
        assert!(!res.cumulative_stats().newton_per_sec.is_nan());
        assert!(!res.cumulative_stats().retired_per_newton.is_nan());
        assert!(res.cumulative_stats().newton_per_sec > 0.0);
    }
}
