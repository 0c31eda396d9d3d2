//! The thermal-quench driver (§IV-C, Figure 5).
//!
//! Phase 1 — *Spitzer phase*: a constant `Ẽ = f_c Ẽ_c` drives the plasma
//! until the current quasi-equilibrates (detected like §IV-B).
//!
//! Phase 2 — *quench*: the field switches to the circuit feedback
//! `Ẽ ← η_sp(T̃_e, Z_eff) J̃` and a pulse of cold plasma is injected with
//! the source term of eq. (4): a sinusoidal envelope whose integrated mass
//! is `mass_factor` times the initial density. The collapse of `T_e`, the
//! rise of `E`, the slower decay of `J` and the eventual Ohmic re-heating
//! are the expected dynamics (Figure 5).

use crate::diagnostics::{directed_tail_flux, TailDiagnostics};
use crate::spitzer::{connor_hastie_ec, spitzer_eta};
use landau_core::ckpt::{
    decode_fault_cursor, encode_fault_cursor, ByteReader, ByteWriter, CheckpointPolicy,
    CheckpointStore, CkptError, PolicyCursor, Storage,
};
use landau_core::invariants::{ConservationMonitor, Watchdog};
use landau_core::operator::{Backend, LandauOperator};
use landau_core::recover::{
    AdaptiveStepper, RecoveryConfig, RecoveryFailure, RecoveryStats, StepperCkpt,
};
use landau_core::solver::{StepStats, ThetaMethod, TimeIntegrator};
use landau_core::species::{maxwellian, Species, SpeciesList};
use landau_fem::FemSpace;
use landau_mesh::presets::MeshSpec;
use landau_obs::timeseries::{Record, SeriesSink};
use landau_obs::MetricRegistry;
use std::fmt;
use std::sync::Arc;

/// Schema version of the quench driver's checkpoint payload (inside the
/// `LCKP` frame, which carries its own format version).
const QUENCH_CKPT_VERSION: u32 = 1;

/// Configuration of the quench experiment.
#[derive(Clone, Debug)]
pub struct QuenchConfig {
    /// Reference electron temperature in eV (sets `Ẽ_c`).
    pub t_e0_ev: f64,
    /// Initial field as a fraction of the Connor–Hastie field
    /// (paper: 0.5).
    pub e0_over_ec: f64,
    /// Ion charge.
    pub z: f64,
    /// Ion mass (electron masses).
    pub ion_mass: f64,
    /// Cold-pulse total mass relative to the initial density (paper: 5).
    pub mass_factor: f64,
    /// Cold-pulse temperature in `T_e0` units.
    pub t_cold: f64,
    /// Pulse duration in collision times.
    pub pulse_duration: f64,
    /// Time step.
    pub dt: f64,
    /// Steps in the Spitzer (pre-quench) phase cap.
    pub max_equil_steps: usize,
    /// Steps in the quench phase.
    pub quench_steps: usize,
    /// Quasi-equilibrium detector tolerance (per unit time).
    pub eta_tol: f64,
    /// Velocity-domain radius.
    pub domain: f64,
    /// Mesh cells per thermal speed.
    pub cells_per_vt: f64,
    /// Refinement shell radius in thermal speeds.
    pub k_outer: f64,
    /// Kernel back-end.
    pub backend: Backend,
    /// Newton iteration cap per step attempt.
    pub max_newton: usize,
    /// Recovery policy for failed steps (damped retry, Δt halving).
    pub recovery: RecoveryConfig,
    /// Install a [`ConservationMonitor`] with this watchdog on the
    /// integrator: every successful step is checked for mass/momentum/
    /// energy drift and entropy production, published under
    /// `invariant.*` and into the driver's timeseries.
    pub monitor: Option<Watchdog>,
}

impl Default for QuenchConfig {
    fn default() -> Self {
        QuenchConfig {
            t_e0_ev: 100.0,
            e0_over_ec: 0.5,
            z: 1.0,
            ion_mass: 900.0,
            mass_factor: 5.0,
            t_cold: 0.05,
            pulse_duration: 4.0,
            dt: 0.25,
            max_equil_steps: 40,
            quench_steps: 60,
            eta_tol: 2e-3,
            domain: 5.0,
            cells_per_vt: 1.2,
            k_outer: 3.0,
            backend: Backend::Cpu,
            max_newton: 100,
            recovery: RecoveryConfig::default(),
            monitor: None,
        }
    }
}

/// One recorded time point of the quench profiles (Figure 5's series).
#[derive(Clone, Copy, Debug)]
pub struct QuenchSample {
    /// Time in electron collision times.
    pub t: f64,
    /// Electron density `ñ_e`.
    pub n_e: f64,
    /// Current `J̃`.
    pub j: f64,
    /// Field `Ẽ`.
    pub e: f64,
    /// Electron temperature `T̃_e`.
    pub t_e: f64,
    /// Fast-electron density above `2 v0`.
    pub tail_2v: f64,
    /// True once the driver is in the quench phase.
    pub quenching: bool,
}

/// Which driver phase a failure occurred in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuenchPhase {
    /// Phase 1: constant-field Spitzer equilibration.
    Equilibration,
    /// Phase 2: cold pulse + circuit feedback.
    Quench,
}

/// Structured failure of a quench run: the step that exhausted its
/// recovery budget, with phase/step/time attribution. The driver's
/// `samples` up to the failure are intact, so partial profiles remain
/// usable for post-mortems.
#[derive(Clone, Copy, Debug)]
pub struct QuenchError {
    /// Phase the failing step belonged to.
    pub phase: QuenchPhase,
    /// Step index within that phase.
    pub step: usize,
    /// Simulation time (collision times) at the failure.
    pub time: f64,
    /// The recovery layer's terminal error.
    pub failure: RecoveryFailure,
}

impl fmt::Display for QuenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} phase step {} (t = {:.3}): {}",
            self.phase, self.step, self.time, self.failure
        )
    }
}

impl std::error::Error for QuenchError {}

/// How a (possibly budgeted) run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Both phases ran to completion.
    Completed,
    /// The step budget ran out mid-run; call [`QuenchDriver::run`] (or
    /// resume in a fresh process) to continue.
    Paused,
}

/// Internal phase machine, resumable from a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Equil,
    Quench,
    Done,
}

/// Resumable driver progress: everything about "where the run is" that is
/// not derivable from the state vector.
#[derive(Clone, Copy, Debug)]
struct Progress {
    phase: Phase,
    /// Next step index within the current phase.
    k: usize,
    /// Initial sample taken / `e0` computed.
    started: bool,
    /// Equilibration drive field.
    e0: f64,
    /// Previous step's resistivity (quasi-equilibrium detector memory).
    eta_prev: f64,
    /// Simulation time at quench entry.
    t_quench_start: f64,
}

impl Progress {
    fn fresh() -> Self {
        Progress {
            phase: Phase::Equil,
            k: 0,
            started: false,
            e0: 0.0,
            eta_prev: f64::INFINITY,
            t_quench_start: 0.0,
        }
    }
}

/// Checkpointing hook: a generational store plus the trigger policy.
struct CkptHook {
    store: CheckpointStore,
    policy: CheckpointPolicy,
    cursor: PolicyCursor,
}

/// The quench experiment driver.
pub struct QuenchDriver {
    /// Configuration used.
    pub cfg: QuenchConfig,
    /// The recovery-wrapped integrator (operator inside).
    pub stepper: AdaptiveStepper,
    /// Current state.
    pub state: Vec<f64>,
    /// Recorded profiles.
    pub samples: Vec<QuenchSample>,
    /// Tail diagnostics.
    pub tails: TailDiagnostics,
    /// Accumulated step statistics.
    pub stats: StepStats,
    /// Accumulated recovery telemetry (retries, substeps, smallest
    /// successful substep fraction).
    pub recovery: RecoveryStats,
    /// Shared metrics sink [`Self::publish_metrics`] writes into (and the
    /// profile export reads from). Defaults to the process-global
    /// registry.
    pub metrics: Arc<MetricRegistry>,
    /// Step-level physics timeseries: one record per completed step
    /// carrying `t_e`, `j_z`, `n_e`, `e_field`, the 2v₀ tail channels
    /// and the phase flag — plus the `invariant.*` drift channels when a
    /// monitor is installed (the records merge by step index). The
    /// initial `t = 0` sample lives only in [`Self::samples`].
    pub series: Arc<SeriesSink>,
    time: f64,
    rec_steps: u64,
    progress: Progress,
    ckpt: Option<CkptHook>,
}

impl QuenchDriver {
    /// Build the plasma, mesh and integrator for a configuration.
    pub fn new(cfg: QuenchConfig) -> Self {
        let ion = Species {
            name: format!("Z{}", cfg.z),
            mass: cfg.ion_mass,
            charge: cfg.z,
            density: 1.0 / cfg.z,
            temperature: 1.0,
        };
        let sl = SpeciesList::new(vec![Species::electron(), ion]);
        let mut vts: Vec<f64> = sl.list.iter().map(|s| s.thermal_speed()).collect();
        // The cold pulse must be resolvable too.
        vts.push(
            Species {
                temperature: cfg.t_cold,
                ..Species::electron()
            }
            .thermal_speed(),
        );
        let space = FemSpace::new(
            MeshSpec::for_thermal_speeds(cfg.domain, 1, &vts, cfg.cells_per_vt, cfg.k_outer)
                .build(),
            3,
        );
        let tails = TailDiagnostics::new(&space, &[2.0, 3.0]);
        let op = LandauOperator::new(space, sl, cfg.backend);
        let mut ti = TimeIntegrator::new(op, ThetaMethod::BackwardEuler);
        ti.rtol = 1e-7;
        ti.max_newton = cfg.max_newton;
        let state = ti.op.initial_state();
        let stepper = AdaptiveStepper::with_config(ti, cfg.recovery);
        let mut driver = QuenchDriver {
            cfg,
            stepper,
            state,
            samples: Vec::new(),
            tails,
            stats: StepStats {
                converged: true,
                ..Default::default()
            },
            recovery: RecoveryStats {
                dt_fraction_min: 1.0,
                ..Default::default()
            },
            metrics: MetricRegistry::global_arc(),
            series: Arc::new(SeriesSink::new()),
            time: 0.0,
            rec_steps: 0,
            progress: Progress::fresh(),
            ckpt: None,
        };
        if let Some(wd) = driver.cfg.monitor {
            driver.enable_monitoring(wd);
        }
        driver
    }

    /// Install (or replace) a [`ConservationMonitor`] on the integrator,
    /// publishing into the driver's current [`Self::metrics`] registry
    /// and [`Self::series`] sink. Called automatically by [`Self::new`]
    /// when [`QuenchConfig::monitor`] is set; call it manually after
    /// swapping `metrics`/`series` to redirect the invariant streams.
    pub fn enable_monitoring(&mut self, wd: Watchdog) {
        let mon = ConservationMonitor::new(&self.stepper.ti.op, wd)
            .with_registry(Arc::clone(&self.metrics))
            .with_sink(Arc::clone(&self.series));
        self.stepper.ti.monitor = Some(mon);
    }

    /// The wrapped integrator (operator, moments, tolerances).
    pub fn ti(&self) -> &TimeIntegrator {
        &self.stepper.ti
    }

    fn sample(&mut self, e: f64, quenching: bool) -> QuenchSample {
        let m = &self.stepper.ti.moments;
        let s = QuenchSample {
            t: self.time,
            n_e: m.density(&self.state, 0),
            j: m.current_jz(&self.state),
            e,
            t_e: m.electron_temperature(&self.state),
            tail_2v: self.tails.tail_density(&self.state, 0)[0],
            quenching,
        };
        let initial = self.samples.is_empty();
        self.samples.push(s);
        if !initial {
            // One timeseries record per completed driver step. With a
            // monitor installed the record index is the last *monitored*
            // step's (substeps included), so the physics channels land in
            // the same record as that step's `invariant.*` drifts.
            let step = match &self.stepper.ti.monitor {
                Some(mon) => mon.steps().saturating_sub(1),
                None => self.rec_steps,
            };
            self.rec_steps += 1;
            let op = &self.stepper.ti.op;
            let j_par = directed_tail_flux(&op.space, &self.state, 0, self.tails.thresholds()[0]);
            let rec = Record::new(step, s.t, self.cfg.dt)
                .with("t_e", s.t_e)
                .with("j_z", s.j)
                .with("n_e", s.n_e)
                .with("e_field", s.e)
                .with("current_parallel", j_par)
                .with("runaway_fraction", s.tail_2v / s.n_e.max(1e-30))
                .with("phase", if s.quenching { 1.0 } else { 0.0 });
            self.series.push(rec);
        }
        s
    }

    fn merge_recovery(&mut self, rec: &RecoveryStats) {
        self.recovery.retried += rec.retried;
        self.recovery.substeps += rec.substeps;
        self.recovery.dt_fraction_min = self.recovery.dt_fraction_min.min(rec.dt_fraction_min);
    }

    /// Phase 1: drive with the constant field until quasi-equilibrium.
    /// Returns the equilibrium field used. A step that exhausts the
    /// recovery budget surfaces as a structured [`QuenchError`] with the
    /// recorded samples intact.
    pub fn run_equilibration(&mut self) -> Result<f64, QuenchError> {
        let mut budget = None;
        self.equil_phase(&mut budget)?;
        Ok(self.progress.e0)
    }

    /// Resumable equilibration loop. `budget` caps the number of driver
    /// steps taken by this call (`None` = unlimited).
    fn equil_phase(&mut self, budget: &mut Option<u64>) -> Result<RunOutcome, QuenchError> {
        if self.progress.phase != Phase::Equil {
            return Ok(RunOutcome::Completed);
        }
        let _sp = landau_obs::span(landau_obs::names::EQUILIBRATION);
        if !self.progress.started {
            self.progress.e0 = self.cfg.e0_over_ec * connor_hastie_ec(self.cfg.t_e0_ev);
            self.progress.eta_prev = f64::INFINITY;
            self.progress.started = true;
            let e0 = self.progress.e0;
            self.sample(e0, false);
        }
        let e0 = self.progress.e0;
        while self.progress.k < self.cfg.max_equil_steps {
            if matches!(budget, Some(0)) {
                return Ok(RunOutcome::Paused);
            }
            let k = self.progress.k;
            let (st, rec) = self
                .stepper
                .advance(&mut self.state, self.cfg.dt, e0, None)
                .map_err(|failure| QuenchError {
                    phase: QuenchPhase::Equilibration,
                    step: k,
                    time: self.time,
                    failure,
                })?;
            self.stats.merge(&st);
            self.merge_recovery(&rec);
            self.time += self.cfg.dt;
            let j = self.sample(e0, false).j;
            let eta = e0 / j;
            let stop = k > 2
                && ((eta - self.progress.eta_prev) / eta).abs() < self.cfg.eta_tol * self.cfg.dt;
            self.progress.eta_prev = eta;
            self.progress.k += 1;
            if let Some(n) = budget {
                *n = n.saturating_sub(1);
            }
            if stop {
                break;
            }
            // Mid-phase checkpoints only land on steps the uninterrupted
            // run would continue from; the phase transition itself is
            // checkpointed by `enter_quench`, so a resume never replays
            // the quasi-equilibrium detector from the wrong side.
            self.maybe_checkpoint(false);
        }
        self.enter_quench();
        Ok(RunOutcome::Completed)
    }

    /// Transition Equilibration → Quench: reset the per-phase step index,
    /// pin the quench clock origin, and cut an on-phase-change checkpoint.
    fn enter_quench(&mut self) {
        if self.progress.phase != Phase::Equil {
            return;
        }
        self.progress.phase = Phase::Quench;
        self.progress.k = 0;
        self.progress.t_quench_start = self.time;
        self.maybe_checkpoint(true);
    }

    /// The cold-source rate vector at time `tau` after quench start.
    fn source_at(&self, tau: f64) -> Option<Vec<f64>> {
        let cfg = &self.cfg;
        if tau < 0.0 || tau >= cfg.pulse_duration {
            return None;
        }
        // Sinusoidal envelope integrating to `mass_factor`:
        // A sin(π τ/τ_p), ∫ = 2 A τ_p/π = mass_factor ⇒ A = π mf/(2 τ_p).
        let amp = core::f64::consts::PI * cfg.mass_factor / (2.0 * cfg.pulse_duration)
            * (core::f64::consts::PI * tau / cfg.pulse_duration).sin();
        let op = &self.stepper.ti.op;
        let n = op.n();
        let ns = op.species.len();
        let mut src = vec![0.0; n * ns];
        // Cold electrons (species 0) and quasineutral cold ions (species 1).
        let th_e = landau_math::constants::THETA_E_REF * cfg.t_cold;
        let th_i = landau_math::constants::THETA_E_REF * cfg.t_cold / cfg.ion_mass;
        let e_part = op.space.interpolate(|r, z| maxwellian(amp, th_e, r, z));
        let i_part = op
            .space
            .interpolate(|r, z| maxwellian(amp / cfg.z, th_i, r, z));
        src[..n].copy_from_slice(&e_part);
        src[n..2 * n].copy_from_slice(&i_part);
        Some(src)
    }

    /// Effective charge for the Spitzer feedback (single ion species: Z).
    fn z_eff(&self) -> f64 {
        self.cfg.z
    }

    /// Phase 2: switch to `E ← η_sp(T_e) J` and inject the cold pulse.
    /// The pulse's stiff onset is the step most likely to need the
    /// recovery path (damped retries, then Δt subdivision); an exhausted
    /// budget surfaces as [`QuenchError`] rather than a silent
    /// `converged: false` sample.
    pub fn run_quench(&mut self) -> Result<(), QuenchError> {
        let mut budget = None;
        self.quench_phase(&mut budget).map(|_| ())
    }

    /// Resumable quench loop (see [`Self::equil_phase`] for the budget
    /// contract). Called directly it transitions out of equilibration
    /// first, preserving the legacy `run_quench` entry point.
    fn quench_phase(&mut self, budget: &mut Option<u64>) -> Result<RunOutcome, QuenchError> {
        if self.progress.phase == Phase::Done {
            return Ok(RunOutcome::Completed);
        }
        self.enter_quench();
        let _sp = landau_obs::span(landau_obs::names::QUENCH);
        while self.progress.k < self.cfg.quench_steps {
            if matches!(budget, Some(0)) {
                return Ok(RunOutcome::Paused);
            }
            let k = self.progress.k;
            let m = &self.stepper.ti.moments;
            let t_e = m.electron_temperature(&self.state).max(1e-3);
            let j = m.current_jz(&self.state);
            let e = spitzer_eta(self.z_eff(), t_e) * j;
            let tau = self.time - self.progress.t_quench_start;
            let src = self.source_at(tau);
            let (st, rec) = self
                .stepper
                .advance(&mut self.state, self.cfg.dt, e, src.as_deref())
                .map_err(|failure| QuenchError {
                    phase: QuenchPhase::Quench,
                    step: k,
                    time: self.time,
                    failure,
                })?;
            self.stats.merge(&st);
            self.merge_recovery(&rec);
            self.time += self.cfg.dt;
            self.sample(e, true);
            self.progress.k += 1;
            if let Some(n) = budget {
                *n = n.saturating_sub(1);
            }
            self.maybe_checkpoint(false);
        }
        self.progress.phase = Phase::Done;
        Ok(RunOutcome::Completed)
    }

    /// Run both phases. On success the accumulated step/recovery
    /// telemetry is published into [`Self::metrics`], so a subsequent
    /// profile capture sees the whole run under `quench.*`.
    pub fn run(&mut self) -> Result<(), QuenchError> {
        self.run_budgeted(None).map(|_| ())
    }

    /// Run both phases with an optional cap on the number of driver steps
    /// (the kill-at-step-k harness: pause, drop the driver, resume in a
    /// fresh one). Telemetry is published only on full completion, exactly
    /// as the unbudgeted [`Self::run`] behaves.
    pub fn run_budgeted(&mut self, max_steps: Option<u64>) -> Result<RunOutcome, QuenchError> {
        let mut budget = max_steps;
        if self.equil_phase(&mut budget)? == RunOutcome::Paused {
            return Ok(RunOutcome::Paused);
        }
        if self.quench_phase(&mut budget)? == RunOutcome::Paused {
            return Ok(RunOutcome::Paused);
        }
        self.publish_metrics();
        Ok(RunOutcome::Completed)
    }

    /// Total driver steps completed so far (both phases, resume included).
    pub fn completed_steps(&self) -> u64 {
        self.rec_steps
    }

    /// Publish the run-level aggregates into the shared registry:
    /// [`StepStats`] under `quench.step.*`, [`RecoveryStats`] under
    /// `quench.recovery.*`, plus the recorded sample count.
    pub fn publish_metrics(&self) {
        self.stats.publish(&self.metrics, "quench.step");
        self.recovery.publish(&self.metrics, "quench.recovery");
        self.metrics
            .add("quench.samples", self.samples.len() as u64);
    }

    // -- durable checkpoint/restart ------------------------------------

    /// Enable policy-driven checkpointing through `storage`, keeping the
    /// newest `keep >= 2` generations. `ckpt.*` counters publish into
    /// [`Self::metrics`].
    pub fn enable_checkpointing(
        &mut self,
        storage: Box<dyn Storage>,
        keep: usize,
        policy: CheckpointPolicy,
    ) {
        let store = CheckpointStore::new(storage, keep).with_registry(Arc::clone(&self.metrics));
        self.ckpt = Some(CkptHook {
            store,
            policy,
            cursor: PolicyCursor::new(),
        });
    }

    /// Cut a checkpoint right now (independent of the policy). Errors
    /// surface to the caller; the run itself is unaffected.
    pub fn checkpoint_now(&mut self) -> Result<u64, CkptError> {
        let payload = self.encode_ckpt();
        match &mut self.ckpt {
            Some(h) => h.store.save(&payload),
            None => Err(CkptError::Io {
                op: "save",
                detail: "checkpointing not enabled on this driver".into(),
            }),
        }
    }

    /// Policy trigger, called after every completed driver step and on
    /// phase transitions. A failed write is counted by the store
    /// (`ckpt.write_failures`) and otherwise ignored: durability is
    /// best-effort, the physics run never dies because a disk filled up —
    /// the previous good generations stay available.
    fn maybe_checkpoint(&mut self, phase_change: bool) {
        let due = match &mut self.ckpt {
            Some(h) => h.cursor.due(&h.policy, self.rec_steps, phase_change),
            None => return,
        };
        if due {
            let _ = self.checkpoint_now();
        }
    }

    /// Restore the newest good checkpoint generation from the enabled
    /// store. Returns `Ok(false)` when no checkpoint exists (fresh run),
    /// `Ok(true)` after a successful restore; corrupt generations are
    /// skipped by the store, and a payload incompatible with this driver's
    /// configuration is a [`CkptError::Incompatible`].
    pub fn resume_from_checkpoint(&mut self) -> Result<bool, CkptError> {
        let loaded = match &mut self.ckpt {
            Some(h) => h.store.load_latest()?,
            None => {
                return Err(CkptError::Io {
                    op: "load",
                    detail: "checkpointing not enabled on this driver".into(),
                })
            }
        };
        let Some(loaded) = loaded else {
            return Ok(false);
        };
        self.restore_ckpt(&loaded.payload)?;
        if let Some(h) = &mut self.ckpt {
            h.cursor.rebase(self.rec_steps);
        }
        Ok(true)
    }

    /// Serialize the full resumable driver state: progress, clocks, the
    /// coefficient vector, adaptive-stepper policy state, accumulated
    /// telemetry, monitor progress, the fault-injection cursor, recorded
    /// samples and the timeseries high-water mark. Every `f64` travels as
    /// `to_bits`, so the resumed trajectory is bitwise identical.
    fn encode_ckpt(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(QUENCH_CKPT_VERSION);
        // Progress.
        w.put_u8(match self.progress.phase {
            Phase::Equil => 0,
            Phase::Quench => 1,
            Phase::Done => 2,
        });
        w.put_u8(u8::from(self.progress.started));
        w.put_u64(self.progress.k as u64);
        w.put_f64(self.progress.e0);
        w.put_f64(self.progress.eta_prev);
        w.put_f64(self.progress.t_quench_start);
        // Clocks.
        w.put_f64(self.time);
        w.put_u64(self.rec_steps);
        // Coefficient vector.
        w.put_f64_slice(&self.state);
        // Adaptive-stepper policy state.
        let sc = self.stepper.export_ckpt();
        w.put_f64(sc.dt_scale);
        w.put_u64(sc.easy_streak);
        w.put_f64_slice(&sc.checkpoint);
        // Accumulated step statistics.
        w.put_u64(self.stats.newton_iters as u64);
        w.put_f64(self.stats.t_landau);
        w.put_f64(self.stats.t_factor);
        w.put_f64(self.stats.t_solve);
        w.put_f64(self.stats.t_total);
        w.put_f64(self.stats.residual);
        w.put_u8(u8::from(self.stats.converged));
        // Accumulated recovery telemetry.
        w.put_u64(self.recovery.retried as u64);
        w.put_u64(self.recovery.substeps as u64);
        w.put_f64(self.recovery.dt_fraction_min);
        // Conservation-monitor progress.
        match &self.stepper.ti.monitor {
            Some(mon) => {
                w.put_u8(1);
                w.put_u64(mon.steps());
                w.put_f64(mon.sim_time());
            }
            None => w.put_u8(0),
        }
        // Fault-injection cursor (plan + per-site tallies).
        encode_fault_cursor(&mut w, &self.stepper.ti.op.device.export_fault_cursor());
        // Samples.
        w.put_u64(self.samples.len() as u64);
        for s in &self.samples {
            w.put_f64(s.t);
            w.put_f64(s.n_e);
            w.put_f64(s.j);
            w.put_f64(s.e);
            w.put_f64(s.t_e);
            w.put_f64(s.tail_2v);
            w.put_u8(u8::from(s.quenching));
        }
        // Timeseries high-water mark (bitwise, so a resumed run's JSON
        // export is byte-identical to the uninterrupted run's).
        let ts = self.series.snapshot();
        w.put_u64(ts.len() as u64);
        for rec in ts.records() {
            w.put_u64(rec.step);
            w.put_f64(rec.t);
            w.put_f64(rec.dt);
            w.put_u64(rec.values.len() as u64);
            for (name, value) in &rec.values {
                w.put_str(name);
                w.put_f64(*value);
            }
        }
        w.into_bytes()
    }

    /// Inverse of [`Self::encode_ckpt`]; validates the payload schema and
    /// the state-vector length against this driver's configuration.
    fn restore_ckpt(&mut self, payload: &[u8]) -> Result<(), CkptError> {
        let mut r = ByteReader::new(payload);
        let ver = r.get_u32()?;
        if ver != QUENCH_CKPT_VERSION {
            return Err(CkptError::Incompatible {
                reason: format!("driver payload version {ver} (expected {QUENCH_CKPT_VERSION})"),
            });
        }
        let phase = match r.get_u8()? {
            0 => Phase::Equil,
            1 => Phase::Quench,
            2 => Phase::Done,
            p => {
                return Err(CkptError::Corrupt {
                    reason: format!("unknown phase tag {p}"),
                })
            }
        };
        let started = r.get_u8()? != 0;
        let k = r.get_u64()? as usize;
        let e0 = r.get_f64()?;
        let eta_prev = r.get_f64()?;
        let t_quench_start = r.get_f64()?;
        let time = r.get_f64()?;
        let rec_steps = r.get_u64()?;
        let state = r.get_f64_vec()?;
        if state.len() != self.state.len() {
            return Err(CkptError::Incompatible {
                reason: format!(
                    "state length {} (this configuration has {})",
                    state.len(),
                    self.state.len()
                ),
            });
        }
        let stepper_ckpt = StepperCkpt {
            dt_scale: r.get_f64()?,
            easy_streak: r.get_u64()?,
            checkpoint: r.get_f64_vec()?,
        };
        // Field order in these literals is the read order (struct-literal
        // operands evaluate left to right).
        let stats = StepStats {
            newton_iters: r.get_u64()? as usize,
            t_landau: r.get_f64()?,
            t_factor: r.get_f64()?,
            t_solve: r.get_f64()?,
            t_total: r.get_f64()?,
            residual: r.get_f64()?,
            converged: r.get_u8()? != 0,
        };
        let recovery = RecoveryStats {
            retried: r.get_u64()? as usize,
            substeps: r.get_u64()? as usize,
            dt_fraction_min: r.get_f64()?,
        };
        let monitor_progress = if r.get_u8()? != 0 {
            Some((r.get_u64()?, r.get_f64()?))
        } else {
            None
        };
        let fault_cursor = decode_fault_cursor(&mut r)?;
        let n_samples = r.get_u64()? as usize;
        let mut samples = Vec::with_capacity(n_samples.min(1 << 20));
        for _ in 0..n_samples {
            samples.push(QuenchSample {
                t: r.get_f64()?,
                n_e: r.get_f64()?,
                j: r.get_f64()?,
                e: r.get_f64()?,
                t_e: r.get_f64()?,
                tail_2v: r.get_f64()?,
                quenching: r.get_u8()? != 0,
            });
        }
        let n_records = r.get_u64()? as usize;
        let mut records = Vec::with_capacity(n_records.min(1 << 20));
        for _ in 0..n_records {
            let step = r.get_u64()?;
            let t = r.get_f64()?;
            let dt = r.get_f64()?;
            let mut rec = Record::new(step, t, dt);
            let n_values = r.get_u64()? as usize;
            for _ in 0..n_values {
                let name = r.get_str()?;
                let value = r.get_f64()?;
                rec.set(&name, value);
            }
            records.push(rec);
        }
        r.finish()?;

        // Monitor presence must match: the record indexing (and the
        // invariant channels) differ between the two shapes.
        match (&mut self.stepper.ti.monitor, monitor_progress) {
            (Some(mon), Some((steps, sim_time))) => mon.restore_progress(steps, sim_time),
            (None, None) => {}
            (have, _) => {
                return Err(CkptError::Incompatible {
                    reason: format!(
                        "checkpointed run {} a conservation monitor, this driver {}",
                        if monitor_progress.is_some() {
                            "had"
                        } else {
                            "lacked"
                        },
                        if have.is_some() {
                            "has one"
                        } else {
                            "does not"
                        }
                    ),
                })
            }
        }

        // All validated: commit.
        self.progress = Progress {
            phase,
            k,
            started,
            e0,
            eta_prev,
            t_quench_start,
        };
        self.time = time;
        self.rec_steps = rec_steps;
        self.state.copy_from_slice(&state);
        self.stepper.restore_ckpt(&stepper_ckpt);
        self.stats = stats;
        self.recovery = recovery;
        self.stepper
            .ti
            .op
            .device
            .restore_fault_cursor(&fault_cursor);
        self.samples = samples;
        self.series.reset();
        for rec in records {
            self.series.push(rec);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> QuenchConfig {
        QuenchConfig {
            cells_per_vt: 0.75,
            k_outer: 2.2,
            ion_mass: 16.0,
            t_cold: 0.15,
            dt: 0.25,
            max_equil_steps: 16,
            quench_steps: 20,
            pulse_duration: 3.0,
            mass_factor: 3.0,
            domain: 4.5,
            ..Default::default()
        }
    }

    #[test]
    fn quench_produces_expected_dynamics() {
        let mut d = QuenchDriver::new(fast_cfg());
        d.run().expect("quench run failed");
        assert!(d.stats.converged, "a Newton solve failed");
        let pre = d.samples.iter().rfind(|s| !s.quenching).copied().unwrap();
        let last = *d.samples.last().unwrap();
        // Mass injection: n_e grows by ≈ mass_factor.
        assert!(
            last.n_e > 1.0 + 0.8 * d.cfg.mass_factor,
            "n_e only reached {}",
            last.n_e
        );
        // Thermal collapse: T_e far below the initial temperature.
        assert!(
            last.t_e < 0.55 * pre.t_e,
            "T_e {} vs pre {}",
            last.t_e,
            pre.t_e
        );
        // The field rises during the quench (η ∝ T^{-3/2} feedback).
        let e_max = d
            .samples
            .iter()
            .filter(|s| s.quenching)
            .map(|s| s.e)
            .fold(0.0f64, f64::max);
        assert!(e_max > 2.0 * pre.e, "E never rose: {e_max} vs {}", pre.e);
        // Current decays more slowly than temperature: still a finite
        // fraction of its pre-quench value at the end.
        assert!(last.j > 0.05 * pre.j, "J collapsed too fast: {}", last.j);
        // Density profile follows the prescribed source (conservation).
        for w in d.samples.windows(2) {
            assert!(w[1].n_e >= w[0].n_e - 1e-6, "density must never drop");
        }
    }

    #[test]
    fn recording_leaves_quench_bitwise_identical() {
        // Tentpole acceptance gate: a fault-free instrumented quench must
        // be bitwise identical to an uninstrumented one — spans and metric
        // publication never touch the arithmetic. Kept tiny (3+3 steps on
        // the coarse test mesh); the resilience bench covers the full-size
        // version in release mode.
        let cfg = QuenchConfig {
            max_equil_steps: 3,
            quench_steps: 3,
            ..fast_cfg()
        };
        let run = |record: bool| -> Vec<f64> {
            landau_obs::set_recording(record);
            let mut d = QuenchDriver::new(cfg.clone());
            d.run().expect("quench run failed");
            d.state.clone()
        };
        let on = run(true);
        let off = run(false);
        landau_obs::set_recording(true);
        assert_eq!(on.len(), off.len());
        assert!(
            on.iter().zip(&off).all(|(a, b)| a.to_bits() == b.to_bits()),
            "span/metric recording changed the quench state bitwise"
        );
    }

    #[test]
    fn monitored_quench_is_bitwise_identical_and_fills_the_timeseries() {
        let cfg = QuenchConfig {
            max_equil_steps: 3,
            quench_steps: 3,
            ..fast_cfg()
        };
        let mut plain = QuenchDriver::new(cfg.clone());
        plain.run().expect("unmonitored run failed");

        let mut d = QuenchDriver::new(QuenchConfig {
            monitor: Some(Watchdog::recording()),
            ..cfg
        });
        d.metrics = Arc::new(MetricRegistry::new());
        d.series = Arc::new(SeriesSink::new());
        d.enable_monitoring(Watchdog::recording());
        d.run().expect("monitored run failed");

        // Record-mode monitoring never touches the arithmetic.
        assert!(
            d.state
                .iter()
                .zip(&plain.state)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "monitoring changed the quench state bitwise"
        );

        // One merged record per step: physics channels + invariant drifts.
        let ts = d.series.snapshot();
        let steps = d.samples.len() - 1; // initial sample is not a step
        assert_eq!(ts.len(), steps, "{} records", ts.len());
        for rec in ts.records() {
            for ch in [
                "t_e",
                "j_z",
                "n_e",
                "e_field",
                "current_parallel",
                "runaway_fraction",
                "phase",
                "invariant.mass_drift.s0",
                "invariant.entropy_production",
            ] {
                assert!(
                    rec.values.contains_key(ch),
                    "step {} missing channel {ch}",
                    rec.step
                );
            }
            // Mid-quench (cold source + Spitzer feedback) the accounted
            // drift still sits at roundoff, and entropy is produced.
            for drift in ["invariant.mass_drift.s0", "invariant.mass_drift.s1"] {
                assert!(rec.values[drift] <= 1e-10, "step {}: {drift}", rec.step);
            }
            assert!(rec.values["invariant.momentum_drift"] <= 1e-10);
            assert!(rec.values["invariant.energy_drift"] <= 1e-10);
            assert!(rec.values["invariant.entropy_production"] >= -1e-9);
        }
        let snap = d.metrics.snapshot();
        assert_eq!(snap.counter("invariant.steps") as usize, steps);
        assert_eq!(snap.counter("invariant.violations"), 0);
        assert!(snap.gauge("invariant.mass.drift_max").unwrap() <= 1e-10);
    }

    #[test]
    fn equilibration_detects_quasi_steady_current() {
        // |Δη/η| decays ≈ ×0.84 per step on this mesh and crosses the
        // 5e-4 detector threshold around step 31, so the cap must leave
        // headroom past that.
        let mut d = QuenchDriver::new(QuenchConfig {
            max_equil_steps: 40,
            ..fast_cfg()
        });
        let e0 = d.run_equilibration().expect("equilibration failed");
        assert!(e0 > 0.0);
        // Stopped before the cap (detector fired).
        let n_pre = d.samples.iter().filter(|s| !s.quenching).count();
        assert!(n_pre < 40, "never detected quasi-equilibrium");
        // J grew to a finite value.
        assert!(d.samples.last().unwrap().j > 0.0);
    }

    #[test]
    fn source_pulse_integrates_to_mass_factor() {
        let d = QuenchDriver::new(fast_cfg());
        // Midpoint-rule integral of the source amplitude over the pulse.
        let n = 400;
        let taup = d.cfg.pulse_duration;
        let mut total = 0.0;
        for i in 0..n {
            let tau = (i as f64 + 0.5) * taup / n as f64;
            if let Some(src) = d.source_at(tau) {
                // Density rate = moment of the source.
                let rate = d.ti().moments.density(&src, 0);
                total += rate * taup / n as f64;
            }
        }
        assert!(
            (total - d.cfg.mass_factor).abs() < 0.05 * d.cfg.mass_factor,
            "injected {total} vs {}",
            d.cfg.mass_factor
        );
    }

    #[test]
    fn quench_recovers_from_injected_faults() {
        use landau_core::{FaultKind, FaultPlan};
        let cfg = QuenchConfig {
            max_equil_steps: 4,
            quench_steps: 4,
            ..fast_cfg()
        };
        let mut d = QuenchDriver::new(cfg);
        // NaN the Landau coefficient kernel's output on assembly tallies
        // 2–4: the affected steps fail their first attempts (NonFinite
        // residual) and must come back through the recovery path.
        d.ti()
            .op
            .device
            .arm_faults(FaultPlan::seeded(41).with_repeated(
                landau_core::fault_sites::SITE_LANDAU_JACOBIAN,
                2,
                3,
                FaultKind::Nan,
            ));
        d.run().expect("driver must recover from transient faults");
        d.ti().op.device.disarm_faults();
        assert!(
            d.recovery.retried > 0,
            "faults were injected but nothing retried: {:?}",
            d.recovery
        );
        assert!(
            !d.ti().op.device.fault_log().is_empty(),
            "fault plan never fired"
        );
        // Samples intact: one per completed step plus the initial sample.
        assert!(d.samples.len() > d.cfg.max_equil_steps.min(4));
        assert!(d.samples.iter().all(|s| s.n_e.is_finite()));
    }

    #[test]
    fn kill_at_step_k_resumes_bitwise() {
        use landau_core::ckpt::{CheckpointPolicy, MemStorage};
        // Monitored so the restore path covers ConservationMonitor
        // progress and the merged invariant channels too.
        let cfg = QuenchConfig {
            max_equil_steps: 3,
            quench_steps: 4,
            monitor: Some(Watchdog::recording()),
            ..fast_cfg()
        };

        // Uninterrupted reference.
        let mut full = QuenchDriver::new(cfg.clone());
        full.run().expect("reference run failed");
        let full_ts = full.series.snapshot().to_json_text();

        // Same run, checkpointing every 2 steps (+ phase change), killed
        // mid-quench at step 6 of 7 — generations land at steps 2, 3
        // (phase change) and 5, so the resume replays step 6 from the
        // last durable generation rather than starting at the kill point.
        let medium = MemStorage::new();
        let mut killed = QuenchDriver::new(cfg.clone());
        killed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2).and_on_phase_change(),
        );
        let out = killed.run_budgeted(Some(6)).expect("killed run failed");
        assert_eq!(out, RunOutcome::Paused);
        assert_eq!(killed.completed_steps(), 6);
        drop(killed); // the "kill": in-memory progress is gone

        // Fresh driver (fresh process in real life), same storage medium.
        let mut resumed = QuenchDriver::new(cfg.clone());
        resumed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2).and_on_phase_change(),
        );
        assert!(
            resumed.resume_from_checkpoint().expect("resume failed"),
            "no checkpoint generation found"
        );
        assert!(
            resumed.completed_steps() < 6,
            "resume point must precede the kill (got {})",
            resumed.completed_steps()
        );
        resumed.run().expect("resumed run failed");

        // Bitwise-identical final state …
        assert_eq!(full.state.len(), resumed.state.len());
        assert!(
            full.state
                .iter()
                .zip(&resumed.state)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "resumed state diverged bitwise"
        );
        // … byte-identical timeseries, and identical sample trails.
        assert_eq!(
            resumed.series.snapshot().to_json_text(),
            full_ts,
            "resumed timeseries differs from the uninterrupted run"
        );
        assert_eq!(resumed.samples.len(), full.samples.len());
        for (a, b) in full.samples.iter().zip(&resumed.samples) {
            assert_eq!(a.t.to_bits(), b.t.to_bits());
            assert_eq!(a.n_e.to_bits(), b.n_e.to_bits());
            assert_eq!(a.j.to_bits(), b.j.to_bits());
            assert_eq!(a.quenching, b.quenching);
        }
        // Counters continued rather than restarting.
        assert_eq!(resumed.completed_steps(), full.completed_steps());
        assert_eq!(resumed.stats.newton_iters, full.stats.newton_iters);
    }

    #[test]
    fn resume_replays_the_remaining_fault_schedule() {
        use landau_core::ckpt::{CheckpointPolicy, MemStorage};
        use landau_core::{FaultKind, FaultPlan};
        // Faults scheduled to fire *after* the checkpoint the resume will
        // land on: the restored fault cursor must replay them identically.
        let cfg = QuenchConfig {
            max_equil_steps: 4,
            quench_steps: 4,
            ..fast_cfg()
        };
        // Probe how many jacobian tallies the first 2 steps (the resume
        // point) consume, then schedule the faults 2 tallies past that —
        // squarely inside the segment the resumed run replays.
        let site = landau_core::fault_sites::SITE_LANDAU_JACOBIAN;
        let mut probe = QuenchDriver::new(cfg.clone());
        probe
            .ti()
            .op
            .device
            .arm_faults(FaultPlan::seeded(41).with(site, u64::MAX, FaultKind::Nan));
        probe.run_budgeted(Some(2)).expect("probe run failed");
        let t2 = probe
            .ti()
            .op
            .device
            .export_fault_cursor()
            .counts
            .iter()
            .find(|(s, _)| s == site)
            .map(|(_, n)| *n)
            .expect("probe counted no jacobian tallies");
        let plan = FaultPlan::seeded(41).with_repeated(site, t2 + 2, 2, FaultKind::Nan);

        let mut full = QuenchDriver::new(cfg.clone());
        full.ti().op.device.arm_faults(plan.clone());
        full.run().expect("reference faulted run failed");
        assert!(full.recovery.retried > 0, "plan never fired");

        let medium = MemStorage::new();
        let mut killed = QuenchDriver::new(cfg.clone());
        killed.ti().op.device.arm_faults(plan.clone());
        killed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        killed.run_budgeted(Some(3)).expect("killed run failed");
        drop(killed);

        let mut resumed = QuenchDriver::new(cfg.clone());
        // Note: no arm_faults here — the cursor restore re-arms the plan.
        resumed.enable_checkpointing(
            Box::new(medium.clone()),
            2,
            CheckpointPolicy::every_steps(2),
        );
        assert!(resumed.resume_from_checkpoint().expect("resume failed"));
        resumed.run().expect("resumed faulted run failed");

        assert!(
            full.state
                .iter()
                .zip(&resumed.state)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "fault replay diverged bitwise"
        );
        assert_eq!(resumed.recovery.retried, full.recovery.retried);
        assert!(
            !resumed.ti().op.device.fault_log().is_empty(),
            "restored cursor never fired the scheduled faults"
        );
    }

    #[test]
    fn hopeless_dt_returns_structured_error() {
        let cfg = QuenchConfig {
            // An absurd step on a coarse mesh: Newton cannot contract in
            // 2 iterations even after aggressive Δt halving.
            dt: 1e6,
            max_newton: 2,
            max_equil_steps: 3,
            quench_steps: 3,
            recovery: landau_core::RecoveryConfig {
                max_retries: 3,
                backtracks: 1,
                min_dt_fraction: 0.25,
                ..Default::default()
            },
            ..fast_cfg()
        };
        let mut d = QuenchDriver::new(cfg);
        let err = d.run().expect_err("an absurd dt must fail structurally");
        assert_eq!(err.phase, QuenchPhase::Equilibration);
        // Samples stay usable: the initial sample exists, no panic on
        // `samples.last()`.
        assert!(!d.samples.is_empty());
        assert!(d.samples.iter().all(|s| s.n_e.is_finite()));
        // The failing state was rolled back to the entry state.
        assert!(d.state.iter().all(|v| v.is_finite()));
    }
}
