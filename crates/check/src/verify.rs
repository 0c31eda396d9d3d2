//! The static kernel verifier.
//!
//! Consumes the access logs a [`SymbolicCtx`] records (see
//! `landau_vgpu::symbolic`) and discharges, for every registered kernel,
//! the proof obligations of the virtual-GPU execution model:
//!
//! 1. **Race freedom** (`V-RACE-WW`, `V-RACE-RW`) — within every barrier
//!    epoch, every pair of distinct lanes touches disjoint scratch slots
//!    (write/write and write/read). The per-lane index sets are fitted to
//!    the affine family `{a·lane + b + stride·k}`; disjointness is then
//!    *proved* for all lane pairs by exact arithmetic-progression
//!    intersection — no index is sampled. When a set is not affine the
//!    analyzer widens to per-lane intervals (sound: disjoint intervals
//!    cannot race), and failing that falls back to exact enumeration of
//!    the logged sets. A truncated log is reported `V-UNPROVED`, never
//!    silently passed.
//! 2. **Barrier uniformity** (`V-BARRIER`) — no `barrier_if` whose
//!    predicate splits the lanes (some arrive, some do not): on hardware
//!    that deadlocks or desynchronizes the block.
//! 3. **Capacity** (`V-CAPACITY`, `V-LAUNCH`) — the block's cumulative
//!    scratch allocation fits the per-block shared memory, and
//!    `team_size × vector_length` fits the thread limit, of **every**
//!    [`GpuSpec`] the workspace models (`GpuSpec::all_named`).
//! 4. **Reduction determinism** (`V-REDUCE`) — re-joining each
//!    `vector_reduce` in permuted lane orders moves the result at most a
//!    rounding tolerance from the tree join.
//! 5. **Budget honesty** (`V-BUDGET`) — the observed allocation equals
//!    the slot count the kernel's registered budget closure declares
//!    (the same closure the capacity proof evaluates), and **bounds
//!    honesty** (`V-OOB`) — no access indexes past its buffer.
//!
//! The driver ([`verify_registry`]) sweeps each kernel over its
//! [`PolicyFamily`]: the vector length is enumerated over representative
//! values, and *within* each policy the lane dimension is universally
//! quantified — every lane pair, every interleaving.
//!
//! [`PolicyFamily`]: landau_core::PolicyFamily

use landau_core::registry::{KernelEntry, KernelRegistry, VerifyInput};
use landau_vgpu::kokkos::TeamPolicy;
use landau_vgpu::spec::GpuSpec;
use landau_vgpu::symbolic::{AccessKind, AffinePattern, BlockLog, SymbolicCtx, SYM_EVENT_CAP};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Verifier rule identifiers (stable codes for reports and the CI gate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyRule {
    /// Two lanes write one scratch slot in one epoch.
    RaceWriteWrite,
    /// A lane reads a slot another lane writes in one epoch.
    RaceReadWrite,
    /// A `barrier_if` predicate splits the lanes.
    BarrierDivergence,
    /// Cumulative scratch exceeds a spec's per-block shared memory.
    Capacity,
    /// `team_size × vector_length` exceeds a spec's thread limit.
    Launch,
    /// Permuting the reduction's lane-join order moves the result.
    ReduceOrder,
    /// A scratch access indexes past the end of its buffer.
    OutOfBounds,
    /// Observed allocation disagrees with the registered budget closure.
    Budget,
    /// The obligation could not be discharged (e.g. truncated log).
    Unproved,
}

impl VerifyRule {
    /// Short stable code for reports.
    pub fn code(self) -> &'static str {
        match self {
            VerifyRule::RaceWriteWrite => "V-RACE-WW",
            VerifyRule::RaceReadWrite => "V-RACE-RW",
            VerifyRule::BarrierDivergence => "V-BARRIER",
            VerifyRule::Capacity => "V-CAPACITY",
            VerifyRule::Launch => "V-LAUNCH",
            VerifyRule::ReduceOrder => "V-REDUCE",
            VerifyRule::OutOfBounds => "V-OOB",
            VerifyRule::Budget => "V-BUDGET",
            VerifyRule::Unproved => "V-UNPROVED",
        }
    }
}

impl fmt::Display for VerifyRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How a race-freedom obligation was discharged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProofMode {
    /// Affine fit + exact AP intersection over all lane pairs.
    Affine,
    /// Per-lane interval widening (sound over-approximation).
    Widened,
    /// Exact enumeration of the logged index sets.
    Enumerated,
}

impl ProofMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ProofMode::Affine => "affine",
            ProofMode::Widened => "widened",
            ProofMode::Enumerated => "enumerated",
        }
    }
}

/// Tally of discharged race-freedom obligations by proof mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofCounts {
    /// Proofs via the affine domain.
    pub affine: usize,
    /// Proofs via interval widening.
    pub widened: usize,
    /// Proofs via set enumeration.
    pub enumerated: usize,
}

impl ProofCounts {
    fn bump(&mut self, mode: ProofMode) {
        match mode {
            ProofMode::Affine => self.affine += 1,
            ProofMode::Widened => self.widened += 1,
            ProofMode::Enumerated => self.enumerated += 1,
        }
    }

    /// Total discharged obligations.
    pub fn total(&self) -> usize {
        self.affine + self.widened + self.enumerated
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &ProofCounts) {
        self.affine += o.affine;
        self.widened += o.widened;
        self.enumerated += o.enumerated;
    }
}

/// The kind of cross-lane scratch conflict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two lanes wrote one cell in the same epoch.
    WriteWrite,
    /// One lane read a cell another lane wrote in the same epoch.
    ReadWrite,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write-write"),
            RaceKind::ReadWrite => write!(f, "read-write"),
        }
    }
}

/// One defect the verifier detected in a block's symbolic log.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// Cross-lane scratch conflict without an intervening barrier.
    ScratchRace {
        /// Block in which the conflict occurred.
        league_rank: usize,
        /// Scratch cell index.
        idx: usize,
        /// A lane that accessed the cell earlier in the epoch.
        first_lane: usize,
        /// The lane whose access conflicted.
        second_lane: usize,
        /// Conflict kind.
        kind: RaceKind,
    },
    /// Cumulative scratch allocation exceeded the spec's per-block capacity.
    ScratchOverflow {
        /// Block that over-allocated.
        league_rank: usize,
        /// Bytes in use after the offending allocation.
        in_use: u64,
        /// Per-block capacity of the active spec.
        capacity: u64,
    },
    /// `team_size × vector_length` exceeds the spec's thread limit.
    LaunchOverflow {
        /// Threads the policy asks for.
        threads: usize,
        /// The spec's per-block maximum.
        max: usize,
    },
    /// A conditional barrier was not reached by every lane.
    BarrierDivergence {
        /// Block in which the divergence occurred.
        league_rank: usize,
        /// Lanes that arrived at the barrier.
        arriving: usize,
        /// Lanes in the vector dimension.
        lanes: usize,
    },
    /// Permuting the lane-join order moved the reduction result beyond
    /// rounding tolerance.
    NondeterministicReduce {
        /// Block in which the reduction ran.
        league_rank: usize,
        /// Observed |tree − permuted| distance.
        dist: f64,
        /// The tolerance it exceeded.
        tol: f64,
    },
    /// A scratch access indexed past the end of its buffer (the static
    /// verifier reports this instead of letting the symbolic run abort).
    ScratchOutOfBounds {
        /// Block in which the access occurred.
        league_rank: usize,
        /// The accessing lane.
        lane: usize,
        /// The out-of-range index.
        idx: usize,
        /// The buffer's length in f64 slots.
        len: usize,
    },
    /// A kernel's observed scratch allocation disagreed with the budget
    /// its registry entry declares (hand-written lengths drift from the
    /// budget closure and defeat the capacity proof).
    BudgetMismatch {
        /// Block whose allocation was measured.
        league_rank: usize,
        /// Slots the registered budget closure declares.
        declared: usize,
        /// Slots the kernel actually allocated.
        observed: usize,
    },
    /// The static verifier could not discharge a proof obligation (index
    /// pattern outside the affine/widened/enumerated domain, or the access
    /// log was truncated). Not a defect per se, but the kernel is not
    /// *proved* and must not be reported clean.
    Unproved {
        /// Block whose proof failed.
        league_rank: usize,
        /// What the verifier could not establish.
        reason: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::ScratchRace {
                league_rank,
                idx,
                first_lane,
                second_lane,
                kind,
            } => write!(
                f,
                "{kind} race on scratch[{idx}] in block {league_rank}: lanes {first_lane} \
                 and {second_lane} without an intervening barrier"
            ),
            Finding::ScratchOverflow {
                league_rank,
                in_use,
                capacity,
            } => write!(
                f,
                "scratch over-allocation in block {league_rank}: {in_use} B in use, \
                 {capacity} B per block available"
            ),
            Finding::LaunchOverflow { threads, max } => write!(
                f,
                "launch config of {threads} threads/block exceeds the device limit of {max}"
            ),
            Finding::BarrierDivergence {
                league_rank,
                arriving,
                lanes,
            } => write!(
                f,
                "barrier divergence in block {league_rank}: {arriving} of {lanes} lanes \
                 arrive at the barrier"
            ),
            Finding::NondeterministicReduce {
                league_rank,
                dist,
                tol,
            } => write!(
                f,
                "nondeterministic reduction in block {league_rank}: permuting the lane \
                 join order moved the result by {dist:.3e} (tolerance {tol:.3e})"
            ),
            Finding::ScratchOutOfBounds {
                league_rank,
                lane,
                idx,
                len,
            } => write!(
                f,
                "out-of-bounds scratch access in block {league_rank}: lane {lane} \
                 indexes scratch[{idx}] of a {len}-slot buffer"
            ),
            Finding::BudgetMismatch {
                league_rank,
                declared,
                observed,
            } => write!(
                f,
                "scratch budget mismatch in block {league_rank}: registry declares \
                 {declared} slots, kernel allocated {observed}"
            ),
            Finding::Unproved {
                league_rank,
                reason,
            } => write!(f, "unproved obligation in block {league_rank}: {reason}"),
        }
    }
}

/// One verifier finding, attributed to a kernel and launch configuration.
#[derive(Clone, Debug)]
pub struct VerifyFinding {
    /// The violated rule.
    pub rule: VerifyRule,
    /// Kernel name (registry key, or corpus kernel name).
    pub kernel: String,
    /// The vector length at which it was first observed.
    pub vector_length: usize,
    /// The device spec it applies to (capacity/launch rules only).
    pub spec: Option<&'static str>,
    /// The underlying detail.
    pub finding: Finding,
    /// Times the (deduplicated) finding recurred across blocks/policies.
    pub occurrences: usize,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [vl={}{}]: {} (x{})",
            self.rule.code(),
            self.kernel,
            self.vector_length,
            self.spec.map(|s| format!(", spec={s}")).unwrap_or_default(),
            self.finding,
            self.occurrences,
        )
    }
}

/// The verification outcome for one kernel over its whole policy family.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Vector lengths swept.
    pub vector_lengths: Vec<usize>,
    /// Block executions analyzed.
    pub blocks: usize,
    /// Discharged race-freedom obligations by proof mode.
    pub proofs: ProofCounts,
    /// Violations (empty for a clean kernel).
    pub findings: Vec<VerifyFinding>,
}

impl KernelReport {
    /// True when every obligation was discharged with no violation.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The full verifier report: one entry per kernel.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Per-kernel outcomes.
    pub kernels: Vec<KernelReport>,
}

impl VerifyReport {
    /// Total violations across all kernels.
    pub fn violations(&self) -> usize {
        self.kernels.iter().map(|k| k.findings.len()).sum()
    }

    /// Total discharged obligations across all kernels.
    pub fn proofs(&self) -> ProofCounts {
        let mut p = ProofCounts::default();
        for k in &self.kernels {
            p.merge(&k.proofs);
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Per-block analysis.
// ---------------------------------------------------------------------------

/// Findings and proof tallies from one block log.
#[derive(Clone, Debug, Default)]
pub struct BlockFindings {
    /// `(rule, spec, detail)` triples; spec is set for capacity/launch.
    pub findings: Vec<(VerifyRule, Option<&'static str>, Finding)>,
    /// Discharged race-freedom obligations.
    pub proofs: ProofCounts,
}

/// Analyze one block's symbolic log against every proof obligation.
/// `declared_budget` is the slot count the kernel's registry entry
/// declares (None for corpus kernels without one).
pub fn analyze_block(log: &BlockLog, declared_budget: Option<usize>) -> BlockFindings {
    let mut out = BlockFindings::default();
    let lanes_n = log.policy.vector_length.max(1);

    // V-BUDGET: observed allocation must match the registered closure.
    let observed: usize = log.alloc_slots.iter().sum();
    if let Some(declared) = declared_budget {
        if observed != declared {
            out.findings.push((
                VerifyRule::Budget,
                None,
                Finding::BudgetMismatch {
                    league_rank: log.league_rank,
                    declared,
                    observed,
                },
            ));
        }
    }

    // V-CAPACITY / V-LAUNCH: against every modeled device.
    let bytes = (observed * 8) as u64;
    let threads = log.policy.threads_per_block();
    for (name, spec) in GpuSpec::all_named() {
        if threads > spec.max_threads_per_block {
            out.findings.push((
                VerifyRule::Launch,
                Some(name),
                Finding::LaunchOverflow {
                    threads,
                    max: spec.max_threads_per_block,
                },
            ));
        }
        if bytes > spec.shared_mem_per_block {
            out.findings.push((
                VerifyRule::Capacity,
                Some(name),
                Finding::ScratchOverflow {
                    league_rank: log.league_rank,
                    in_use: bytes,
                    capacity: spec.shared_mem_per_block,
                },
            ));
        }
    }

    // V-BARRIER: every probed conditional barrier must be lane-uniform.
    for p in &log.barriers {
        if !p.uniform() {
            out.findings.push((
                VerifyRule::BarrierDivergence,
                None,
                Finding::BarrierDivergence {
                    league_rank: log.league_rank,
                    arriving: p.arriving,
                    lanes: p.lanes,
                },
            ));
        }
    }

    // V-REDUCE: permuted lane-join orders must agree with the tree join.
    for p in &log.reduces {
        if p.dist > p.tol {
            out.findings.push((
                VerifyRule::ReduceOrder,
                None,
                Finding::NondeterministicReduce {
                    league_rank: log.league_rank,
                    dist: p.dist,
                    tol: p.tol,
                },
            ));
        }
    }

    // Per-buffer obligations: bounds, completeness, and race freedom.
    for buf in &log.bufs {
        for a in buf.oob.iter().take(4) {
            out.findings.push((
                VerifyRule::OutOfBounds,
                None,
                Finding::ScratchOutOfBounds {
                    league_rank: log.league_rank,
                    lane: a.lane,
                    idx: a.idx,
                    len: buf.len,
                },
            ));
        }
        if buf.truncated {
            out.findings.push((
                VerifyRule::Unproved,
                None,
                Finding::Unproved {
                    league_rank: log.league_rank,
                    reason: format!(
                        "scratch access log truncated at {SYM_EVENT_CAP} events; \
                         race freedom not provable from a partial log"
                    ),
                },
            ));
            continue;
        }

        // Group accesses by epoch into per-lane write/read index sets.
        // The lane axis must cover every lane the policy drives, even
        // lanes that never touched this buffer (empty sets).
        type LaneSets = Vec<BTreeSet<i64>>;
        let mut epochs: BTreeMap<u64, (LaneSets, LaneSets)> = BTreeMap::new();
        for e in &buf.events {
            let slot = epochs.entry(e.epoch).or_insert_with(|| {
                (
                    vec![BTreeSet::new(); lanes_n],
                    vec![BTreeSet::new(); lanes_n],
                )
            });
            let side = match e.kind {
                AccessKind::Write => &mut slot.0,
                AccessKind::Read => &mut slot.1,
            };
            if e.lane < lanes_n {
                side[e.lane].insert(e.idx as i64);
            }
        }
        for (writes, reads) in epochs.values() {
            match prove_disjoint(writes, writes, true) {
                Ok(mode) => out.proofs.bump(mode),
                Err((s, t, idx)) => out.findings.push((
                    VerifyRule::RaceWriteWrite,
                    None,
                    Finding::ScratchRace {
                        league_rank: log.league_rank,
                        idx: idx as usize,
                        first_lane: s,
                        second_lane: t,
                        kind: RaceKind::WriteWrite,
                    },
                )),
            }
            match prove_disjoint(writes, reads, false) {
                Ok(mode) => out.proofs.bump(mode),
                Err((s, t, idx)) => out.findings.push((
                    VerifyRule::RaceReadWrite,
                    None,
                    Finding::ScratchRace {
                        league_rank: log.league_rank,
                        idx: idx as usize,
                        first_lane: s,
                        second_lane: t,
                        kind: RaceKind::ReadWrite,
                    },
                )),
            }
        }
    }
    out
}

/// Prove that `a[s]` and `b[t]` are disjoint for every lane pair `s ≠ t`
/// (`same_group` treats the pair as unordered, for write/write). Returns
/// the proof mode used, or a witnessing `(s, t, idx)` conflict.
///
/// Proof chain: affine fit with exact AP intersection; per-lane interval
/// widening (sound: disjoint ranges cannot share an index); exact
/// enumeration of the logged sets (complete for the logged execution).
fn prove_disjoint(
    a: &[BTreeSet<i64>],
    b: &[BTreeSet<i64>],
    same_group: bool,
) -> Result<ProofMode, (usize, usize, i64)> {
    if a.iter().all(|s| s.is_empty()) || b.iter().all(|s| s.is_empty()) {
        return Ok(ProofMode::Affine); // vacuous
    }

    // 1. The affine domain: exact for the patterns staging loops produce.
    if let (Some(pa), Some(pb)) = (AffinePattern::fit(a), AffinePattern::fit(b)) {
        for s in 0..a.len() {
            let t0 = if same_group { s + 1 } else { 0 };
            for t in t0..b.len() {
                if s == t {
                    continue;
                }
                if let Some(idx) = pa.witness(s as i64, &pb, t as i64) {
                    return Err((s, t, idx));
                }
            }
        }
        return Ok(ProofMode::Affine);
    }

    // 2. Interval widening: sound, possibly imprecise.
    let ia: Vec<Option<(i64, i64)>> = a.iter().map(range_of).collect();
    let ib: Vec<Option<(i64, i64)>> = b.iter().map(range_of).collect();
    let mut widened = true;
    'w: for (s, ra) in ia.iter().enumerate() {
        let Some((alo, ahi)) = ra else { continue };
        let t0 = if same_group { s + 1 } else { 0 };
        for (t, rb) in ib.iter().enumerate().skip(t0) {
            if s == t {
                continue;
            }
            let Some((blo, bhi)) = rb else { continue };
            if alo <= bhi && blo <= ahi {
                widened = false;
                break 'w;
            }
        }
    }
    if widened {
        return Ok(ProofMode::Widened);
    }

    // 3. Exact enumeration of the logged sets.
    for (s, sa) in a.iter().enumerate() {
        let t0 = if same_group { s + 1 } else { 0 };
        for (t, sb) in b.iter().enumerate().skip(t0) {
            if s == t {
                continue;
            }
            if let Some(&idx) = sa.intersection(sb).next() {
                return Err((s, t, idx));
            }
        }
    }
    Ok(ProofMode::Enumerated)
}

fn range_of(s: &BTreeSet<i64>) -> Option<(i64, i64)> {
    Some((*s.first()?, *s.last()?))
}

// ---------------------------------------------------------------------------
// Registry driver.
// ---------------------------------------------------------------------------

/// Key a finding dedups under: rule + spec + the detail with block-identity
/// fields (league rank) erased, so one defect reported by many blocks or
/// policies collapses to one finding with an occurrence count.
fn canon(f: &Finding) -> Finding {
    let mut f = f.clone();
    match &mut f {
        Finding::ScratchRace { league_rank, .. }
        | Finding::ScratchOverflow { league_rank, .. }
        | Finding::BarrierDivergence { league_rank, .. }
        | Finding::NondeterministicReduce { league_rank, .. }
        | Finding::ScratchOutOfBounds { league_rank, .. }
        | Finding::BudgetMismatch { league_rank, .. }
        | Finding::Unproved { league_rank, .. } => *league_rank = 0,
        Finding::LaunchOverflow { .. } => {}
    }
    f
}

/// Fold one block's findings into the deduplicated kernel-level list.
fn fold_findings(
    acc: &mut BTreeMap<(VerifyRule, Option<&'static str>, String), VerifyFinding>,
    kernel: &str,
    vector_length: usize,
    block: BlockFindings,
) {
    for (rule, spec, finding) in block.findings {
        let key = (rule, spec, format!("{:?}", canon(&finding)));
        acc.entry(key)
            .and_modify(|f| f.occurrences += 1)
            .or_insert(VerifyFinding {
                rule,
                kernel: kernel.to_string(),
                vector_length,
                spec,
                finding,
                occurrences: 1,
            });
    }
}

/// Verify one registered kernel over its whole policy family.
pub fn verify_entry(entry: &KernelEntry, input: &VerifyInput) -> KernelReport {
    let dims = input.dims();
    let mut acc = BTreeMap::new();
    let mut proofs = ProofCounts::default();
    let mut blocks = 0;
    for &vl in entry.family.vector_lengths {
        let policy = TeamPolicy {
            league_size: dims.n / dims.nq.max(1),
            team_size: dims.nq,
            vector_length: vl,
        };
        let declared = (entry.budget)(&dims, &policy);
        let ctx = SymbolicCtx::new();
        (entry.run_symbolic)(input, vl, &ctx);
        let logs = ctx.take_logs();
        blocks += logs.len();
        for log in &logs {
            let bf = analyze_block(log, Some(declared));
            proofs.merge(&bf.proofs);
            fold_findings(&mut acc, entry.name, vl, bf);
        }
    }
    KernelReport {
        name: entry.name.to_string(),
        vector_lengths: entry.family.vector_lengths.to_vec(),
        blocks,
        proofs,
        findings: acc.into_values().collect(),
    }
}

/// Verify every kernel in the registry against the representative input.
pub fn verify_registry(reg: &KernelRegistry, input: &VerifyInput) -> VerifyReport {
    VerifyReport {
        kernels: reg
            .entries()
            .iter()
            .map(|e| verify_entry(e, input))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use landau_vgpu::counters::Tally;
    use landau_vgpu::kokkos::{Team, TeamFactory};

    fn policy(vl: usize) -> TeamPolicy {
        TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: vl,
        }
    }

    fn run_block(
        vl: usize,
        body: impl FnOnce(&mut landau_vgpu::SymbolicTeamMember<'_>),
    ) -> BlockLog {
        let ctx = SymbolicCtx::new();
        let mut t = Tally::new();
        {
            let mut m = ctx.member(0, policy(vl), &mut t);
            body(&mut m);
        }
        ctx.take_logs().remove(0)
    }

    fn rules(bf: &BlockFindings) -> Vec<VerifyRule> {
        bf.findings.iter().map(|(r, _, _)| *r).collect()
    }

    #[test]
    fn clean_staged_block_proves_affine() {
        let log = run_block(4, |m| {
            let mut sm = m.scratch(8);
            m.vector_for(8, |j, lane| sm.write(lane, j, j as f64));
            m.barrier();
            let _ = m.vector_reduce(8, |j, acc: &mut f64| *acc += sm.read(j % 4, j));
        });
        let bf = analyze_block(&log, Some(8));
        assert!(bf.findings.is_empty(), "{:?}", bf.findings);
        // Epoch 0 W/W + W/R, epoch 1 W/W + W/R (vacuous ones count too).
        assert!(bf.proofs.total() >= 2);
        assert!(bf.proofs.affine >= 1);
    }

    #[test]
    fn missing_barrier_is_a_read_write_race() {
        let log = run_block(4, |m| {
            let mut sm = m.scratch(8);
            m.vector_for(8, |j, lane| sm.write(lane, j, j as f64));
            // no barrier: lanes read slots other lanes wrote, same epoch
            let _ = m.vector_reduce(8, |j, acc: &mut f64| *acc += sm.read(j % 4, (j + 1) % 8));
        });
        let bf = analyze_block(&log, None);
        assert!(rules(&bf).contains(&VerifyRule::RaceReadWrite), "{bf:?}");
    }

    #[test]
    fn overlapping_stride_is_a_write_write_race_with_witness() {
        let log = run_block(4, |m| {
            let mut sm = m.scratch(16);
            for p in 0..4 {
                for k in 0..3 {
                    sm.write(p, 2 * p + k, 1.0);
                }
            }
        });
        let bf = analyze_block(&log, None);
        let race = bf
            .findings
            .iter()
            .find(|(r, _, _)| *r == VerifyRule::RaceWriteWrite)
            .expect("WW race");
        // The affine witness: lanes 0 and 1 collide at slot 2.
        match race.2 {
            Finding::ScratchRace {
                idx,
                first_lane,
                second_lane,
                ..
            } => {
                assert_eq!((first_lane, second_lane, idx), (0, 1, 2));
            }
            ref other => panic!("unexpected detail {other:?}"),
        }
    }

    #[test]
    fn divergent_barrier_capacity_oob_and_budget_flag() {
        let log = run_block(4, |m| {
            let mut sm = m.scratch(7000); // 56 KB: > V100's 48 KiB
            sm.write(0, 7005, 1.0); // out of bounds
            m.barrier_if(|lane| lane != 3); // divergent
        });
        let bf = analyze_block(&log, Some(16));
        let rs = rules(&bf);
        assert!(rs.contains(&VerifyRule::Capacity));
        assert!(rs.contains(&VerifyRule::BarrierDivergence));
        assert!(rs.contains(&VerifyRule::OutOfBounds));
        assert!(rs.contains(&VerifyRule::Budget));
        // Capacity names the spec it overflows (V100, not MI100's 64 KiB).
        let caps: Vec<_> = bf
            .findings
            .iter()
            .filter(|(r, _, _)| *r == VerifyRule::Capacity)
            .map(|(_, s, _)| s.unwrap())
            .collect();
        assert_eq!(caps, ["v100"]);
    }

    #[test]
    fn launch_overflow_names_both_gpu_specs() {
        let ctx = SymbolicCtx::new();
        let mut t = Tally::new();
        {
            let p = TeamPolicy {
                league_size: 1,
                team_size: 64,
                vector_length: 32, // 2048 threads > 1024
            };
            let _m = ctx.member(0, p, &mut t);
        }
        let log = ctx.take_logs().remove(0);
        let bf = analyze_block(&log, None);
        let specs: Vec<_> = bf
            .findings
            .iter()
            .filter(|(r, _, _)| *r == VerifyRule::Launch)
            .map(|(_, s, _)| s.unwrap())
            .collect();
        assert_eq!(specs, ["v100", "mi100"]);
    }

    #[test]
    fn widening_proves_disjoint_non_affine_sets() {
        // Lane 0 touches {0,1,4}, lane 1 touches {10,11,14}: not APs, but
        // the ranges are disjoint — widening discharges it.
        let a: Vec<BTreeSet<i64>> = vec![
            [0, 1, 4].into_iter().collect(),
            [10, 11, 14].into_iter().collect(),
        ];
        assert_eq!(prove_disjoint(&a, &a, true), Ok(ProofMode::Widened));
        // Interleaved but genuinely disjoint non-AP sets fall through to
        // enumeration.
        let b: Vec<BTreeSet<i64>> = vec![
            [0, 3, 4].into_iter().collect(),
            [1, 2, 7].into_iter().collect(),
        ];
        assert_eq!(prove_disjoint(&b, &b, true), Ok(ProofMode::Enumerated));
        // And a real conflict in non-AP sets is still found exactly.
        let c: Vec<BTreeSet<i64>> = vec![
            [0, 3, 4].into_iter().collect(),
            [1, 4, 9].into_iter().collect(),
        ];
        assert_eq!(prove_disjoint(&c, &c, true), Err((0, 1, 4)));
    }

    #[test]
    fn dedup_collapses_repeats_and_counts() {
        let mut acc = BTreeMap::new();
        let bf = || BlockFindings {
            findings: vec![(
                VerifyRule::Launch,
                Some("v100"),
                Finding::LaunchOverflow {
                    threads: 2048,
                    max: 1024,
                },
            )],
            proofs: ProofCounts::default(),
        };
        fold_findings(&mut acc, "k", 32, bf());
        fold_findings(&mut acc, "k", 64, bf());
        let fs: Vec<_> = acc.into_values().collect();
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].occurrences, 2);
        assert_eq!(fs[0].vector_length, 32);
    }
}
