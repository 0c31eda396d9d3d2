//! Implicit time integration with the paper's quasi-Newton iteration.
//!
//! One step of the θ-method solves
//! `M (f^{n+1} − f^n) = Δt [ θ R(f^{n+1}) + (1−θ) R(f^n) ]` with
//! `R(f) = L(f) f + M s` (collisions + E-advection + source). The
//! quasi-Newton Jacobian freezes `D` and `K` at the current iterate
//! (`J = M − Δt θ L(f_k)`, fully recomputed each iteration, §III) and each
//! species' block solves independently with the banded LU after RCM
//! reordering (§III-G) — the paper's linearly converging, robust iteration.

use crate::invariants::{ConservationMonitor, StepContext, Watchdog};
use crate::moments::Moments;
use crate::operator::LandauOperator;
use crate::tensor_cache::TensorTable;
use landau_sparse::band::BlockBandSolver;
use landau_sparse::csr::Csr;
use landau_sparse::rcm::{bandwidth, rcm_order};
use landau_sparse::vecops;
use landau_vgpu::fault::{FaultKind, SITE_LU_FACTOR};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// θ-method selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThetaMethod {
    /// Backward Euler (θ = 1): the robust default.
    BackwardEuler,
    /// Crank–Nicolson (θ = ½): second order, used for accuracy studies.
    CrankNicolson,
    /// Arbitrary θ ∈ (0, 1].
    Theta(f64),
}

/// Error from [`ThetaMethod::theta_checked`]: θ outside `(0, 1]` (or not
/// finite). Carried so configuration code can report the offending value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidTheta(pub f64);

impl fmt::Display for InvalidTheta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "theta = {} outside the stable range (0, 1]", self.0)
    }
}

impl std::error::Error for InvalidTheta {}

impl ThetaMethod {
    /// Validating constructor for an arbitrary θ: invalid values surface
    /// here, at configuration time, instead of panicking mid-step.
    pub fn theta_checked(t: f64) -> Result<Self, InvalidTheta> {
        if t > 0.0 && t <= 1.0 {
            Ok(ThetaMethod::Theta(t))
        } else {
            Err(InvalidTheta(t))
        }
    }

    pub(crate) fn theta(self) -> f64 {
        match self {
            ThetaMethod::BackwardEuler => 1.0,
            ThetaMethod::CrankNicolson => 0.5,
            ThetaMethod::Theta(t) => t,
        }
    }
}

/// Where a non-finite value was first detected during a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonFiniteSite {
    /// The caller-supplied state `f^n` (before any iteration).
    State,
    /// The Newton residual `R(f_k)` (a NaN anywhere in the assembled
    /// operator or state lands here through the norm).
    Residual,
    /// The Newton update `J⁻¹ R` after the triangular solves.
    Solution,
}

/// Why an implicit step failed. Every failure of
/// [`TimeIntegrator::try_step`] is one of these, and the failing step
/// leaves `state` bitwise equal to the entry state `f^n` (the
/// transactional guarantee the recovery layer builds on).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolveError {
    /// The banded LU hit a zero pivot: `block` is the species block,
    /// `row` the pivot row within it.
    SingularJacobian {
        /// Species block index.
        block: usize,
        /// Pivot row within the block.
        row: usize,
    },
    /// The residual grew past `divergence_ratio · r0`, or the Newton
    /// budget was exhausted without any net contraction.
    NewtonDiverged {
        /// Iterations performed before the failure was declared.
        iters: usize,
        /// First residual norm.
        r0: f64,
        /// Residual norm at failure.
        r_final: f64,
    },
    /// A NaN/Inf was detected at `site`.
    NonFinite {
        /// Where the non-finite value was first seen.
        site: NonFiniteSite,
    },
    /// The residual stopped contracting (plateau) or the budget ran out
    /// while still above tolerance despite net progress.
    NewtonStalled {
        /// Iterations performed before the failure was declared.
        iters: usize,
        /// Residual norm at failure.
        r_final: f64,
    },
    /// A [`crate::invariants::ConservationMonitor`] in hard-fail mode
    /// found a conserved quantity (or the entropy inequality) drifting
    /// past its watchdog tolerance. The step is rolled back like any
    /// other failure.
    InvariantViolated {
        /// Which invariant drifted.
        which: crate::invariants::Invariant,
        /// The measured relative drift (or entropy-production deficit).
        drift: f64,
        /// Monitored step index at which it drifted.
        step: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::SingularJacobian { block, row } => {
                write!(
                    f,
                    "singular Jacobian (species block {block}, pivot row {row})"
                )
            }
            SolveError::NewtonDiverged { iters, r0, r_final } => {
                write!(
                    f,
                    "Newton diverged after {iters} iters (r0 {r0:.3e} -> {r_final:.3e})"
                )
            }
            SolveError::NonFinite { site } => write!(f, "non-finite value in {site:?}"),
            SolveError::NewtonStalled { iters, r_final } => {
                write!(
                    f,
                    "Newton stalled after {iters} iters (residual {r_final:.3e})"
                )
            }
            SolveError::InvariantViolated { which, drift, step } => {
                write!(
                    f,
                    "{which} invariant violated at monitored step {step} (relative drift {drift:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Residual-reduction factor below which an iteration counts as "no
/// progress" for stall detection (a converging quasi-Newton iteration
/// contracts far faster than this every iteration).
const STALL_REDUCTION: f64 = 0.999;

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Per-step statistics: Newton counts and the component times that Table
/// VII reports (`Landau` assembly, of which `Kernel`, `factor`, `solve`).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Newton iterations performed.
    pub newton_iters: usize,
    /// Seconds in Landau matrix construction (kernel + assembly + meta).
    pub t_landau: f64,
    /// Seconds in banded LU factorization.
    pub t_factor: f64,
    /// Seconds in triangular solves.
    pub t_solve: f64,
    /// Total step seconds.
    pub t_total: f64,
    /// Final residual norm.
    pub residual: f64,
    /// True if the Newton iteration met its tolerance.
    pub converged: bool,
}

impl StepStats {
    /// Publish this step's counts into the shared registry under `prefix`
    /// (e.g. `"step"`): Newton iterations and component times as
    /// nanosecond counters, worst residual as a max-gauge. This is the
    /// unified-metrics adapter — the struct stays the cheap per-call
    /// return value, the registry carries the run-level aggregate.
    pub fn publish(&self, reg: &landau_obs::MetricRegistry, prefix: &str) {
        let ns = |s: f64| (s * 1e9) as u64;
        reg.add(&format!("{prefix}.newton_iters"), self.newton_iters as u64);
        reg.add(&format!("{prefix}.t_landau_ns"), ns(self.t_landau));
        reg.add(&format!("{prefix}.t_factor_ns"), ns(self.t_factor));
        reg.add(&format!("{prefix}.t_solve_ns"), ns(self.t_solve));
        reg.add(&format!("{prefix}.t_total_ns"), ns(self.t_total));
        reg.gauge_max(&format!("{prefix}.residual"), self.residual);
    }

    /// Accumulate another step's stats (for run totals). Counts and times
    /// add; `residual` keeps the *worst* (max) residual seen across the
    /// merged steps rather than whichever happened to merge last.
    pub fn merge(&mut self, o: &StepStats) {
        self.newton_iters += o.newton_iters;
        self.t_landau += o.t_landau;
        self.t_factor += o.t_factor;
        self.t_solve += o.t_solve;
        self.t_total += o.t_total;
        self.residual = self.residual.max(o.residual);
        self.converged &= o.converged;
    }
}

/// The Newton policy of one implicit step, shared by both orchestrators:
/// [`TimeIntegrator`]'s guarded step and the fused batched lockstep
/// (`batch_fused`), which holds one guard per vertex. It owns the entry
/// prologue (non-finite state check, `f^n` and the explicit θ part), the
/// converged / diverged / stalled ladder on each residual, the factor and
/// update checks, the budget-exhaustion classification, and the epilogue
/// (conservation monitor, restore to `f^n` on failure). The orchestrators
/// own only the linear algebra between the checks, so both take the same
/// decisions in the same order on the same numbers. Tolerances and budget
/// are read from the integrator at each check.
pub(crate) struct NewtonGuard {
    /// θ of the integrator's method.
    pub(crate) theta: f64,
    /// Entry state `f^n`, the transactional restore point (empty when the
    /// entry state was non-finite).
    pub(crate) fn_old: Vec<f64>,
    /// Explicit θ-method part `L(f^n) f^n + M s` (only for θ < 1).
    pub(crate) rhs_old: Option<Vec<f64>>,
    /// Residual buffer; holds the last evaluated residual.
    pub(crate) r: Vec<f64>,
    /// The step's counts and component times.
    pub(crate) stats: StepStats,
    /// The failure that stopped the iteration, if any.
    failure: Option<SolveError>,
    r0_norm: Option<f64>,
    prev_rnorm: f64,
    stall: usize,
    /// Newton iterations entered (the budget counter).
    entries: usize,
    t_start: Instant,
}

impl NewtonGuard {
    /// Step prologue: reject a non-finite entry state, keep `f^n`, and
    /// evaluate the explicit part for θ < 1 (charged to `t_landau`).
    pub(crate) fn begin(
        ti: &mut TimeIntegrator,
        state: &[f64],
        e_field: f64,
        source: Option<&[f64]>,
    ) -> Self {
        let mut g = NewtonGuard {
            theta: ti.method.theta(),
            fn_old: Vec::new(),
            rhs_old: None,
            r: Vec::new(),
            stats: StepStats::default(),
            failure: None,
            r0_norm: None,
            prev_rnorm: f64::INFINITY,
            stall: 0,
            entries: 0,
            t_start: Instant::now(),
        };
        if !all_finite(state) {
            g.failure = Some(SolveError::NonFinite {
                site: NonFiniteSite::State,
            });
            return g;
        }
        g.fn_old = state.to_vec();
        if g.theta < 1.0 {
            let t0 = Instant::now();
            let mut r = ti.op.collision_rhs(&g.fn_old, e_field);
            g.stats.t_landau += t0.elapsed().as_secs_f64();
            if let Some(s) = source {
                let n = ti.op.n();
                for a in 0..ti.op.species.len() {
                    let ms = ti.op.mass.matvec(&s[a * n..(a + 1) * n]);
                    for i in 0..n {
                        r[a * n + i] += ms[i];
                    }
                }
            }
            g.rhs_old = Some(r);
        }
        g.r = vec![0.0; state.len()];
        g
    }

    /// Neither converged nor failed: the iteration may go on.
    pub(crate) fn is_live(&self) -> bool {
        self.failure.is_none() && !self.stats.converged
    }

    /// Enter the next Newton iteration. False once the guard is decided —
    /// and, for a live guard whose budget is spent, after classifying it:
    /// [`SolveError::NewtonDiverged`] if the last residual norm is not below
    /// the first, [`SolveError::NewtonStalled`] otherwise.
    pub(crate) fn next_iteration(&mut self, ti: &TimeIntegrator) -> bool {
        if !self.is_live() {
            return false;
        }
        if self.entries >= ti.max_newton {
            let r_final = self.stats.residual;
            let r0 = self.r0_norm.unwrap_or(r_final);
            self.failure = Some(if r_final >= r0 {
                SolveError::NewtonDiverged {
                    iters: self.stats.newton_iters,
                    r0,
                    r_final,
                }
            } else {
                SolveError::NewtonStalled {
                    iters: self.stats.newton_iters,
                    r_final,
                }
            });
            return false;
        }
        self.entries += 1;
        true
    }

    /// The convergence ladder on this iteration's residual norm: non-finite,
    /// converged (`≤ atol + rtol·r0`), diverged (`> divergence_ratio·r0`),
    /// or stalled (`stall_window` consecutive reductions worse than
    /// [`STALL_REDUCTION`]). True iff the iteration should go on to factor.
    pub(crate) fn check_residual(&mut self, ti: &TimeIntegrator, rnorm: f64) -> bool {
        self.stats.residual = rnorm;
        if !rnorm.is_finite() {
            self.failure = Some(SolveError::NonFinite {
                site: NonFiniteSite::Residual,
            });
            return false;
        }
        let r0 = *self.r0_norm.get_or_insert(rnorm);
        if rnorm <= ti.atol + ti.rtol * r0 {
            self.stats.converged = true;
            return false;
        }
        if rnorm > ti.divergence_ratio * r0 {
            self.failure = Some(SolveError::NewtonDiverged {
                iters: self.stats.newton_iters,
                r0,
                r_final: rnorm,
            });
            return false;
        }
        if rnorm >= STALL_REDUCTION * self.prev_rnorm {
            self.stall += 1;
            if self.stall >= ti.stall_window {
                self.failure = Some(SolveError::NewtonStalled {
                    iters: self.stats.newton_iters,
                    r_final: rnorm,
                });
                return false;
            }
        } else {
            self.stall = 0;
        }
        self.prev_rnorm = rnorm;
        true
    }

    /// Charge a factorization's `secs` to `t_factor` — failed or not — and
    /// map a zero pivot `(block, row)` to [`SolveError::SingularJacobian`].
    /// True iff the factor succeeded.
    pub(crate) fn check_factor(&mut self, secs: f64, factored: Result<(), (usize, usize)>) -> bool {
        self.stats.t_factor += secs;
        match factored {
            Ok(()) => true,
            Err((block, row)) => {
                self.failure = Some(SolveError::SingularJacobian { block, row });
                false
            }
        }
    }

    /// Reject a Newton update `J⁻¹R` holding a NaN/Inf. True iff finite.
    pub(crate) fn check_update(&mut self, d: &[f64]) -> bool {
        if all_finite(d) {
            return true;
        }
        self.failure = Some(SolveError::NonFinite {
            site: NonFiniteSite::Solution,
        });
        false
    }

    /// Step epilogue, once the guard is decided: run the conservation
    /// monitor on a converged step, restore `state` to `f^n` bitwise on
    /// any failure, and stamp `t_total`.
    pub(crate) fn finish(
        mut self,
        ti: &mut TimeIntegrator,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> (StepStats, Option<SolveError>) {
        debug_assert!(!self.is_live(), "finish needs a decided guard");
        if self.failure.is_none() {
            // Invariant watchdog: read-only over (f^n, f^{n+1}, R), so a
            // Record-mode monitor leaves the state bitwise untouched; a
            // Fail-mode violation routes into the transactional restore
            // below like any other solve failure.
            if let Some(mut mon) = ti.monitor.take() {
                let checked = mon.after_step(
                    &ti.op,
                    &ti.moments,
                    &StepContext {
                        f_old: &self.fn_old,
                        f_new: state,
                        dt,
                        theta: self.theta,
                        e_field,
                        source,
                        residual: &self.r,
                    },
                );
                ti.monitor = Some(mon);
                if let Err(e) = checked {
                    self.failure = Some(e);
                }
            }
        }
        if self.failure.is_some() && !self.fn_old.is_empty() {
            // Transactional guarantee: a failed step leaves state == f^n
            // bitwise.
            state.copy_from_slice(&self.fn_old);
        }
        self.stats.t_total = self.t_start.elapsed().as_secs_f64();
        (self.stats, self.failure)
    }
}

/// The implicit integrator for one [`LandauOperator`].
pub struct TimeIntegrator {
    /// The operator being advanced.
    pub op: LandauOperator,
    /// Time-step method.
    pub method: ThetaMethod,
    /// Relative Newton tolerance (on the residual norm).
    pub rtol: f64,
    /// Absolute Newton tolerance.
    pub atol: f64,
    /// Newton iteration cap.
    pub max_newton: usize,
    /// Residual growth factor over `r0` at which the iteration is declared
    /// divergent ([`SolveError::NewtonDiverged`]) without waiting for the
    /// full Newton budget.
    pub divergence_ratio: f64,
    /// Consecutive no-progress iterations (reduction worse than ×0.999)
    /// before the iteration is declared stalled
    /// ([`SolveError::NewtonStalled`]).
    pub stall_window: usize,
    /// Moment functionals (shared with drivers/diagnostics).
    pub moments: Moments,
    /// Optional conservation/entropy monitor, consulted after every
    /// successful step (see [`crate::invariants::ConservationMonitor`]).
    pub monitor: Option<ConservationMonitor>,
    pub(crate) perm: Vec<usize>,
    /// Half-bandwidth of the reordered single-species block.
    pub block_bandwidth: usize,
}

/// Sweep ordering by node position (z-major, then r): near-minimal band on
/// tensor-product-like meshes.
fn geometric_order(op: &LandauOperator) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..op.n()).collect();
    // `total_cmp` (not `partial_cmp().unwrap()`): a NaN coordinate from a
    // corrupted mesh must not panic the ordering — it sorts last and the
    // solve then fails through the normal non-finite guards.
    perm.sort_by(|&a, &b| {
        let (ra, za) = op.space.dof_positions[a];
        let (rb, zb) = op.space.dof_positions[b];
        za.total_cmp(&zb).then(ra.total_cmp(&rb))
    });
    perm
}

impl TimeIntegrator {
    /// Build an integrator; computes the RCM ordering once (its cost is
    /// amortized over the whole transient, like the paper's CPU
    /// first-assembly).
    pub fn new(op: LandauOperator, method: ThetaMethod) -> Self {
        let moments = Moments::new(&op.space, &op.species);
        // The paper's solver relies on RCM; on strongly graded quadtree
        // meshes a geometric sweep ordering sometimes beats it, so take
        // whichever gives the smaller band (factorization is O(n B²)).
        let rcm = rcm_order(&op.mass);
        let geo = geometric_order(&op);
        let bw_rcm = bandwidth(&op.mass.permute_symmetric(&rcm));
        let bw_geo = bandwidth(&op.mass.permute_symmetric(&geo));
        let (perm, block_bandwidth) = if bw_geo < bw_rcm {
            (geo, bw_geo)
        } else {
            (rcm, bw_rcm)
        };
        TimeIntegrator {
            op,
            method,
            rtol: 1e-8,
            atol: 1e-12,
            max_newton: 50,
            divergence_ratio: 1e4,
            stall_window: 8,
            moments,
            monitor: None,
            perm,
            block_bandwidth,
        }
    }

    /// Dofs per species.
    pub fn n(&self) -> usize {
        self.op.n()
    }

    /// Build (or adopt) the operator's geometry-invariant tensor cache once;
    /// every subsequent [`Self::step`] then streams the cached tiles through
    /// all of its Newton iterations instead of re-evaluating the Landau
    /// tensors — the geometry never changes across steps, so one build
    /// amortizes over the whole transient.
    pub fn enable_tensor_cache(&mut self, budget_bytes: usize) -> Arc<TensorTable> {
        self.op.enable_tensor_cache(budget_bytes)
    }

    /// Install a [`ConservationMonitor`] with watchdog `wd`, publishing
    /// into the process-global registry. For a private registry or a
    /// timeseries sink, build the monitor directly and assign
    /// `self.monitor`.
    pub fn enable_monitoring(&mut self, wd: Watchdog) -> &mut ConservationMonitor {
        let mon = ConservationMonitor::new(&self.op, wd);
        self.monitor.insert(mon)
    }

    /// Build the block solver for `J = M − γ L` across species (permuted).
    fn build_solver(&self, lmats: &[Csr], gamma: f64) -> BlockBandSolver {
        let n = self.op.n();
        let ns = lmats.len();
        // Assemble the permuted block-diagonal J as one CSR.
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); ns * n];
        let pm = {
            // J_α = M − γ L_α, then symmetric permutation per block.
            let mut blocks: Vec<Csr> = Vec::with_capacity(ns);
            for la in lmats {
                let mut j = self.op.mass.clone();
                j.axpy_same_pattern(-gamma, la);
                blocks.push(j.permute_symmetric(&self.perm));
            }
            blocks
        };
        for (a, b) in pm.iter().enumerate() {
            for i in 0..n {
                let row: Vec<usize> = b.col_idx[b.row_ptr[i]..b.row_ptr[i + 1]]
                    .iter()
                    .map(|&c| a * n + c)
                    .collect();
                cols[a * n + i] = row;
            }
        }
        let mut big = Csr::from_pattern(ns * n, ns * n, &cols);
        for (a, b) in pm.iter().enumerate() {
            for i in 0..n {
                for k in b.row_ptr[i]..b.row_ptr[i + 1] {
                    big.add_value(a * n + i, a * n + b.col_idx[k], b.vals[k]);
                }
            }
        }
        BlockBandSolver::from_block_csr(&big, &vec![n; ns])
    }

    /// Permute a species-major vector into solver ordering.
    pub(crate) fn permute(&self, x: &[f64]) -> Vec<f64> {
        let n = self.op.n();
        let ns = x.len() / n;
        let mut out = vec![0.0; x.len()];
        for a in 0..ns {
            for i in 0..n {
                out[a * n + i] = x[a * n + self.perm[i]];
            }
        }
        out
    }

    pub(crate) fn unpermute_into(&self, x: &[f64], out: &mut [f64]) {
        let n = self.op.n();
        let ns = x.len() / n;
        for a in 0..ns {
            for i in 0..n {
                out[a * n + self.perm[i]] = x[a * n + i];
            }
        }
    }

    /// Residual `R = M(f − f^n) − Δt[θ(Lf + Ms) + (1−θ)rhs_old]`, where
    /// `rhs_old` is the explicit part (precomputed). Takes the per-species
    /// matrices directly (not an `AssembledOperator`) so the fused batch
    /// orchestrator can evaluate it over its reusable lane workspaces.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn residual(
        &self,
        mats: &[Csr],
        f: &[f64],
        fn_old: &[f64],
        source: Option<&[f64]>,
        rhs_old: Option<&[f64]>,
        dt: f64,
        theta: f64,
        out: &mut [f64],
    ) {
        let n = self.op.n();
        let ns = mats.len();
        let mut lf = vec![0.0; f.len()];
        for (s, m) in mats.iter().enumerate() {
            m.matvec_into(&f[s * n..(s + 1) * n], &mut lf[s * n..(s + 1) * n]);
        }
        for a in 0..ns {
            let fs = &f[a * n..(a + 1) * n];
            let fo = &fn_old[a * n..(a + 1) * n];
            let df: Vec<f64> = fs.iter().zip(fo).map(|(x, y)| x - y).collect();
            let mdf = self.op.mass.matvec(&df);
            let o = &mut out[a * n..(a + 1) * n];
            for i in 0..n {
                o[i] = mdf[i] - dt * theta * lf[a * n + i];
            }
            if let Some(s) = source {
                let ms = self.op.mass.matvec(&s[a * n..(a + 1) * n]);
                for i in 0..n {
                    o[i] -= dt * theta * ms[i];
                }
            }
            if let Some(r) = rhs_old {
                for i in 0..n {
                    o[i] -= dt * (1.0 - theta) * r[a * n + i];
                }
            }
        }
    }

    /// Advance one implicit step of size `dt` at electric field `e_field`,
    /// with an optional source rate (species-major dof vector, `∂f/∂t`
    /// units). `state` is updated in place.
    ///
    /// Thin compatibility wrapper over [`Self::try_step`]: the returned
    /// [`StepStats`] carries `converged: false` on failure, and — unlike
    /// the pre-resilience integrator — `state` is restored to `f^n` rather
    /// than left at a diverged Newton iterate.
    pub fn step(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> StepStats {
        self.step_guarded(state, dt, e_field, source, 0).0
    }

    /// Transactional implicit step: like [`Self::step`] but failures are
    /// typed. Guards the entry state, the Newton residual and the solved
    /// update for NaN/Inf, detects residual divergence and stagnation, and
    /// maps LU zero pivots to [`SolveError::SingularJacobian`]. On *any*
    /// `Err`, `state` is bitwise equal to the entry state `f^n`.
    pub fn try_step(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
    ) -> Result<StepStats, SolveError> {
        self.try_step_damped(state, dt, e_field, source, 0)
    }

    /// [`Self::try_step`] with backtracking line-search damping: each
    /// Newton update `f ← f − λ J⁻¹R` halves `λ` up to `backtracks` times
    /// until the damped candidate's residual actually decreases. This is
    /// the recovery layer's cheap first retry — `backtracks == 0` is the
    /// plain (bitwise-reference) iteration.
    pub fn try_step_damped(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        backtracks: usize,
    ) -> Result<StepStats, SolveError> {
        let (stats, failure) = self.step_guarded(state, dt, e_field, source, backtracks);
        match failure {
            None => Ok(stats),
            Some(e) => Err(e),
        }
    }

    /// The guarded Newton loop behind [`Self::step`] / [`Self::try_step`].
    /// Always fills `StepStats`; on failure restores `state` to `f^n` and
    /// returns the error alongside. With `backtracks == 0` the arithmetic
    /// on the success path is identical to the historical `step`.
    fn step_guarded(
        &mut self,
        state: &mut [f64],
        dt: f64,
        e_field: f64,
        source: Option<&[f64]>,
        backtracks: usize,
    ) -> (StepStats, Option<SolveError>) {
        let _sp = landau_obs::span(landau_obs::names::STEP);
        let n_total = self.op.n_total();
        assert_eq!(state.len(), n_total);
        let mut guard = NewtonGuard::begin(self, state, e_field, source);
        let theta = guard.theta;
        while guard.next_iteration(self) {
            let _sp_iter = landau_obs::span(landau_obs::names::NEWTON_ITER);
            // Assemble L(f_k) — recomputed every iteration (quasi-Newton).
            let t0 = Instant::now();
            let assembled = self.op.assemble(state, e_field);
            guard.stats.t_landau += t0.elapsed().as_secs_f64();

            let sp_res = landau_obs::span(landau_obs::names::RESIDUAL);
            self.residual(
                &assembled.mats,
                state,
                &guard.fn_old,
                source,
                guard.rhs_old.as_deref(),
                dt,
                theta,
                &mut guard.r,
            );
            let rnorm = vecops::norm2(&guard.r);
            drop(sp_res);
            if !guard.check_residual(self, rnorm) {
                break;
            }

            // J = M − Δt θ L(f_k); factor per species block in parallel.
            let sp_factor = landau_obs::span(landau_obs::names::FACTOR);
            let t1 = Instant::now();
            let mut solver = self.build_solver(&assembled.mats, dt * theta);
            // Seeded fault injection (resilience tests): poison one species
            // block when an armed plan is due. Disarmed: one atomic load.
            if let Some(f) = self.op.device.poll_fault(SITE_LU_FACTOR, solver.n_blocks()) {
                if matches!(f.kind, FaultKind::SingularBlock) {
                    solver.poison_block(f.index);
                }
            }
            let factored = solver.factor();
            if !guard.check_factor(t1.elapsed().as_secs_f64(), factored) {
                break;
            }
            drop(sp_factor);

            let sp_solve = landau_obs::span(landau_obs::names::SOLVE);
            let t2 = Instant::now();
            let mut delta = self.permute(&guard.r);
            solver.solve_into(&mut delta);
            guard.stats.t_solve += t2.elapsed().as_secs_f64();
            drop(sp_solve);

            // f ← f − λ J⁻¹ R.
            let mut d = vec![0.0; n_total];
            self.unpermute_into(&delta, &mut d);
            if !guard.check_update(&d) {
                break;
            }
            let mut lambda = 1.0;
            if backtracks > 0 {
                // Backtracking line search (recovery retries only): halve λ
                // until the damped candidate's residual decreases. λ = 1
                // reproduces the plain update, so an iteration that already
                // contracts is unchanged.
                let mut cand = vec![0.0; n_total];
                let mut rt = vec![0.0; n_total];
                for bt in 0..=backtracks {
                    for (c, (s, dd)) in cand.iter_mut().zip(state.iter().zip(&d)) {
                        *c = s - lambda * dd;
                    }
                    if all_finite(&cand) {
                        let t0 = Instant::now();
                        let trial = self.op.assemble(&cand, e_field);
                        guard.stats.t_landau += t0.elapsed().as_secs_f64();
                        self.residual(
                            &trial.mats,
                            &cand,
                            &guard.fn_old,
                            source,
                            guard.rhs_old.as_deref(),
                            dt,
                            theta,
                            &mut rt,
                        );
                        let rc = vecops::norm2(&rt);
                        if rc.is_finite() && rc < rnorm {
                            break;
                        }
                    }
                    if bt < backtracks {
                        lambda *= 0.5;
                    }
                }
            }
            vecops::axpy(-lambda, &d, state);
            guard.stats.newton_iters += 1;
        }
        guard.finish(self, state, dt, e_field, source)
    }

    /// Run `nsteps` fixed steps, calling `each` after every step with
    /// `(step index, time, state, stats)`.
    pub fn run(
        &mut self,
        state: &mut [f64],
        dt: f64,
        nsteps: usize,
        e_field: f64,
        mut each: impl FnMut(usize, f64, &[f64], &StepStats),
    ) -> StepStats {
        let mut total = StepStats {
            converged: true,
            ..Default::default()
        };
        for k in 0..nsteps {
            let s = self.step(state, dt, e_field, None);
            total.merge(&s);
            each(k, (k + 1) as f64 * dt, state, &s);
        }
        total.publish(landau_obs::MetricRegistry::global(), "step");
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Backend;
    use crate::species::{Species, SpeciesList};
    use landau_fem::FemSpace;
    use landau_mesh::presets::{MeshSpec, RefineShell};

    fn integrator(t_ion: f64) -> TimeIntegrator {
        let sl = SpeciesList::new(vec![
            Species::electron(),
            Species {
                name: "i+".into(),
                mass: 2.0,
                charge: 1.0,
                density: 1.0,
                temperature: t_ion,
            },
        ]);
        let spec = MeshSpec {
            domain_radius: 4.0,
            base_level: 1,
            shells: vec![RefineShell {
                radius: 2.0,
                max_cell_size: 0.5,
            }],
            tail_box: None,
        };
        let op = LandauOperator::new(FemSpace::new(spec.build(), 3), sl, Backend::Cpu);
        TimeIntegrator::new(op, ThetaMethod::BackwardEuler)
    }

    #[test]
    fn equilibrium_is_stationary() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        let before = state.clone();
        let s = ti.step(&mut state, 0.1, 0.0, None);
        assert!(s.converged, "residual {}", s.residual);
        // Equal-temperature Maxwellians barely move.
        let mut dmax = 0.0f64;
        let smax = before.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in state.iter().zip(&before) {
            dmax = dmax.max((a - b).abs());
        }
        assert!(dmax < 2e-3 * smax, "moved {dmax} (scale {smax})");
    }

    #[test]
    fn conservation_through_steps() {
        let mut ti = integrator(0.5); // unequal temperatures → relaxation
        let mut state = ti.op.initial_state();
        let m = &ti.moments;
        let n0: Vec<f64> = (0..2).map(|s| m.density(&state, s)).collect();
        let p0 = m.total_z_momentum(&state);
        let e0 = m.total_energy(&state);
        for _ in 0..5 {
            let s = ti.step(&mut state, 0.2, 0.0, None);
            assert!(s.converged);
        }
        let m = &ti.moments;
        for (s, n) in n0.iter().enumerate() {
            let dn = (m.density(&state, s) - n).abs();
            assert!(dn < 1e-9, "species {s} density drift {dn}");
        }
        let dp = (m.total_z_momentum(&state) - p0).abs();
        let de = (m.total_energy(&state) - e0).abs() / e0.abs();
        assert!(dp < 1e-8, "momentum drift {dp}");
        assert!(de < 1e-7, "energy drift {de}");
    }

    #[test]
    fn temperatures_equilibrate() {
        let mut ti = integrator(0.5);
        let mut state = ti.op.initial_state();
        let te0 = ti.moments.temperature(&state, 0);
        let tion0 = ti.moments.temperature(&state, 1);
        assert!(te0 > tion0);
        // A few collision times of relaxation.
        for _ in 0..10 {
            ti.step(&mut state, 0.5, 0.0, None);
        }
        let te1 = ti.moments.temperature(&state, 0);
        let tion1 = ti.moments.temperature(&state, 1);
        assert!(te1 < te0, "electrons must cool: {te0} → {te1}");
        assert!(tion1 > tion0, "ions must heat: {tion0} → {tion1}");
    }

    #[test]
    fn e_field_drives_current() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        assert!(ti.moments.current_jz(&state).abs() < 1e-8);
        for _ in 0..4 {
            let s = ti.step(&mut state, 0.25, 0.05, None);
            assert!(s.converged);
        }
        let j = ti.moments.current_jz(&state);
        assert!(j > 1e-4, "E>0 must drive positive current, J = {j}");
    }

    #[test]
    fn source_injects_mass() {
        let mut ti = integrator(1.0);
        let mut state = ti.op.initial_state();
        let n = ti.op.n();
        // Cold electron+ion source, rate 0.5/unit time.
        let cold = Species {
            name: "cold".into(),
            mass: 1.0,
            charge: -1.0,
            density: 0.5,
            temperature: 0.2,
        };
        let mut src = vec![0.0; state.len()];
        let v = ti.op.space.interpolate(|r, z| cold.maxwellian(r, z, 0.0));
        src[..n].copy_from_slice(&v);
        let n_before = ti.moments.density(&state, 0);
        let s = ti.step(&mut state, 0.2, 0.0, Some(&src));
        assert!(s.converged);
        let n_after = ti.moments.density(&state, 0);
        assert!(
            (n_after - n_before - 0.2 * 0.5).abs() < 1e-3,
            "Δn = {}",
            n_after - n_before
        );
    }

    #[test]
    fn crank_nicolson_matches_be_direction() {
        let mut be = integrator(0.5);
        let mut cn = integrator(0.5);
        cn.method = ThetaMethod::CrankNicolson;
        let mut s1 = be.op.initial_state();
        let mut s2 = s1.clone();
        be.step(&mut s1, 0.1, 0.0, None);
        cn.step(&mut s2, 0.1, 0.0, None);
        // Both cool the electrons.
        assert!(be.moments.temperature(&s1, 0) < 1.0);
        assert!(cn.moments.temperature(&s2, 0) < 1.0);
        // And agree to first order.
        let d: f64 = s1
            .iter()
            .zip(&s2)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = s1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(d < 0.05 * scale, "methods diverged: {d} vs {scale}");
    }

    /// The guard's decision boundaries, which both orchestrators share.
    #[test]
    fn newton_guard_ladder_boundaries() {
        let mut ti = integrator(1.0);
        (ti.atol, ti.rtol, ti.divergence_ratio, ti.stall_window) = (1e-3, 1e-2, 10.0, 3);
        let state = ti.op.initial_state();
        let fresh = |ti: &mut TimeIntegrator| NewtonGuard::begin(ti, &state, 0.0, None);
        // Feed residual norms; true while every check lets the iteration on.
        let feed = |g: &mut NewtonGuard, ti: &TimeIntegrator, rs: &[f64]| {
            rs.iter()
                .all(|&r| g.next_iteration(ti) && g.check_residual(ti, r))
        };

        // Converged at exactly atol + rtol·r0, not one ulp above it.
        let tol = ti.atol + ti.rtol * 2.0;
        let mut g = fresh(&mut ti);
        assert!(feed(&mut g, &ti, &[2.0, tol.next_up()]));
        assert!(!feed(&mut g, &ti, &[tol]));
        assert!(g.stats.converged && g.failure.is_none());

        // Diverged just above divergence_ratio·r0, not at it.
        let mut g = fresh(&mut ti);
        assert!(feed(&mut g, &ti, &[1.0, 10.0]));
        assert!(!feed(&mut g, &ti, &[10.0f64.next_up()]));
        assert!(matches!(
            g.failure,
            Some(SolveError::NewtonDiverged { r0: 1.0, .. })
        ));
        assert!(
            !g.next_iteration(&ti),
            "a decided guard enters no iteration"
        );

        // A contracting step resets the stall counter; it fires at
        // stall_window consecutive non-contracting steps.
        let mut g = fresh(&mut ti);
        assert!(feed(&mut g, &ti, &[1.0, 1.0, 1.0, 0.5, 0.5, 0.5]));
        assert!(!feed(&mut g, &ti, &[0.5]));
        assert!(matches!(
            g.failure,
            Some(SolveError::NewtonStalled { r_final: 0.5, .. })
        ));

        // Budget out: diverged iff r_final ≥ r0, stalled otherwise.
        ti.max_newton = 2;
        for (r_final, diverged) in [(1.5, true), (1.0, true), (0.9, false)] {
            let mut g = fresh(&mut ti);
            assert!(feed(&mut g, &ti, &[1.0, r_final]));
            assert!(!g.next_iteration(&ti));
            match g.failure {
                Some(SolveError::NewtonDiverged { r0, r_final: r, .. }) => {
                    assert!(diverged && r0 == 1.0 && r == r_final)
                }
                Some(SolveError::NewtonStalled { r_final: r, .. }) => {
                    assert!(!diverged && r == r_final)
                }
                other => panic!("budget out with r_final {r_final}: {other:?}"),
            }
        }
    }

    #[test]
    fn rcm_bandwidth_is_modest() {
        let ti = integrator(1.0);
        // Band solver practicality: bandwidth far below n.
        assert!(
            ti.block_bandwidth * 3 < ti.n(),
            "bandwidth {} vs n {}",
            ti.block_bandwidth,
            ti.n()
        );
    }
}
