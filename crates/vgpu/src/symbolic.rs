//! Symbolic kernel execution for the static verifier.
//!
//! GPUVerify-style two-thread abstraction, adapted to the host engine: a
//! [`SymbolicTeamMember`] runs a kernel **once** with every vector lane
//! live, and shadow-logs each scratch access as an `(epoch, kind, lane,
//! index)` event, segmented by [`Team::barrier`] epochs. Because the engine
//! is deterministic and drives all lanes, the logged per-lane index sets
//! *are* each lane's complete footprint for that policy — so the analyzer
//! in `landau-check` can quantify over **every lane pair and every
//! interleaving** rather than the one concrete schedule the engine runs:
//!
//! * per-lane index sets are fitted to the affine family
//!   `{ a·lane + b + stride·k : 0 ≤ k < count }` ([`AffinePattern`]);
//! * disjointness for all lane pairs is discharged by exact integer
//!   arithmetic-progression intersection ([`ap_overlap`], CRT over i128) —
//!   no index is ever *sampled*;
//! * when a set is not affine the analyzer widens to per-lane intervals,
//!   and failing that falls back to bounded concrete enumeration of the
//!   logged sets; if the log was truncated the kernel is *unproved*, never
//!   silently passed.
//!
//! The member also probes barrier uniformity (every [`Team::barrier_if`]
//! records its arriving-lane count) and reduction-order determinism (each
//! `vector_reduce` is re-joined in forward, reverse and rotated lane order
//! and compared against the tree join).

use crate::counters::Tally;
use crate::kokkos::{
    join_in_order, lane_partials, tree_join, ReducerCheck, ScratchBuf, Team, TeamFactory,
    TeamPolicy,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Relative tolerance for the reduction-determinism probe: permuting
/// the join order of a well-behaved floating-point reduction moves the
/// result by rounding only (≤ ~1e-13 relative for ≤64 lanes); 1e-9 leaves
/// four orders of magnitude of headroom while catching genuinely
/// order-dependent joins.
pub const DETERMINISM_RTOL: f64 = 1e-9;

/// Cap on deduplicated access events logged per scratch buffer. A kernel
/// whose footprint exceeds this marks the log truncated, and the analyzer
/// reports it unproved instead of proving a partial log.
pub const SYM_EVENT_CAP: usize = 1 << 16;

/// Kind of one logged scratch access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One deduplicated scratch access: which lane touched which slot in which
/// barrier epoch. Repeated identical accesses collapse to one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Barrier epoch (incremented by every taken barrier).
    pub epoch: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// The accessing vector lane.
    pub lane: usize,
    /// The slot index.
    pub idx: usize,
}

/// The access log of one scratch buffer over one symbolic execution.
#[derive(Clone, Debug)]
pub struct BufLog {
    /// Buffer length in f64 slots.
    pub len: usize,
    /// In-bounds accesses, deduplicated, in (epoch, kind, lane, idx) order.
    pub events: Vec<Access>,
    /// Out-of-bounds accesses (`idx ≥ len`); the store/load was suppressed.
    pub oob: Vec<Access>,
    /// True when the event cap was hit — the log is incomplete.
    pub truncated: bool,
}

/// One `barrier_if` observation: how many lanes arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierProbe {
    /// Lanes whose predicate held.
    pub arriving: usize,
    /// Lanes in the vector dimension.
    pub lanes: usize,
}

impl BarrierProbe {
    /// A barrier is uniform when all lanes take it or none do.
    pub fn uniform(&self) -> bool {
        self.arriving == 0 || self.arriving == self.lanes
    }
}

/// One `vector_reduce` determinism probe: the worst distance between the
/// tree join and the forward / reverse / rotated lane-order joins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReduceProbe {
    /// Max |tree − permuted| over the probed orders.
    pub dist: f64,
    /// The tolerance the distance is judged against.
    pub tol: f64,
}

/// Everything one block's symbolic execution recorded.
#[derive(Clone, Debug)]
pub struct BlockLog {
    /// The block's league rank.
    pub league_rank: usize,
    /// The policy it ran under.
    pub policy: TeamPolicy,
    /// Slot count of each `scratch()` call, in call order.
    pub alloc_slots: Vec<usize>,
    /// Per-buffer access logs (same order as `alloc_slots`).
    pub bufs: Vec<BufLog>,
    /// Every `barrier_if` observation, in program order.
    pub barriers: Vec<BarrierProbe>,
    /// Every `vector_reduce` determinism probe, in program order.
    pub reduces: Vec<ReduceProbe>,
}

/// Internal shared log of one buffer (lives behind the `SymTrack` handle in
/// the buffer and in the member, so the log survives either drop order).
#[derive(Debug, Default)]
struct BufInner {
    len: usize,
    // (epoch, kind: 0 read / 1 write, lane, idx)
    set: BTreeSet<(u64, u8, u64, u64)>,
    oob: BTreeSet<(u64, u8, u64, u64)>,
    truncated: bool,
}

fn decode(&(epoch, kind, lane, idx): &(u64, u8, u64, u64)) -> Access {
    Access {
        epoch,
        kind: if kind == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        lane: lane as usize,
        idx: idx as usize,
    }
}

impl BufInner {
    fn harvest(&self) -> BufLog {
        BufLog {
            len: self.len,
            events: self.set.iter().map(decode).collect(),
            oob: self.oob.iter().map(decode).collect(),
            truncated: self.truncated,
        }
    }
}

/// The logging half of a symbolic [`ScratchBuf`].
pub struct SymTrack {
    inner: Arc<Mutex<BufInner>>,
    epoch: Arc<AtomicU64>,
}

impl SymTrack {
    fn log(&self, is_write: bool, lane: usize, idx: usize) -> bool {
        let ep = self.epoch.load(Ordering::Relaxed);
        let key = (ep, u8::from(is_write), lane as u64, idx as u64);
        let mut b = self.inner.lock().unwrap();
        if idx >= b.len {
            if b.oob.len() < SYM_EVENT_CAP {
                b.oob.insert(key);
            }
            return false;
        }
        if b.set.len() >= SYM_EVENT_CAP && !b.set.contains(&key) {
            b.truncated = true;
        } else {
            b.set.insert(key);
        }
        true
    }

    /// Log a store; false when out of bounds (store must be suppressed).
    pub(crate) fn on_write(&self, lane: usize, idx: usize) -> bool {
        self.log(true, lane, idx)
    }

    /// Log a load; false when out of bounds (load must be suppressed).
    pub(crate) fn on_read(&self, lane: usize, idx: usize) -> bool {
        self.log(false, lane, idx)
    }
}

/// Factory and collector for symbolic executions: hand out members with
/// [`TeamFactory::member`], run the kernel, then [`SymbolicCtx::take_logs`].
#[derive(Clone, Debug, Default)]
pub struct SymbolicCtx {
    logs: Arc<Mutex<Vec<BlockLog>>>,
}

impl SymbolicCtx {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain every block log recorded so far (a member contributes its log
    /// when dropped, so drop the member before harvesting).
    pub fn take_logs(&self) -> Vec<BlockLog> {
        std::mem::take(&mut *self.logs.lock().unwrap())
    }
}

impl TeamFactory for SymbolicCtx {
    type Member<'t>
        = SymbolicTeamMember<'t>
    where
        Self: 't;

    fn member<'t>(
        &'t self,
        league_rank: usize,
        policy: TeamPolicy,
        tally: &'t mut Tally,
    ) -> SymbolicTeamMember<'t> {
        SymbolicTeamMember {
            league_rank,
            policy,
            ctx: self.clone(),
            epoch: Arc::new(AtomicU64::new(0)),
            alloc_slots: Vec::new(),
            bufs: Vec::new(),
            barriers: Vec::new(),
            reduces: Vec::new(),
            tally,
        }
    }
}

/// A [`Team`] member that executes the kernel body concretely while shadow
/// logging every scratch access, barrier predicate and reduction join for
/// the static analyzer. Pushes its [`BlockLog`] into the [`SymbolicCtx`]
/// on drop.
pub struct SymbolicTeamMember<'t> {
    league_rank: usize,
    policy: TeamPolicy,
    ctx: SymbolicCtx,
    epoch: Arc<AtomicU64>,
    alloc_slots: Vec<usize>,
    bufs: Vec<Arc<Mutex<BufInner>>>,
    barriers: Vec<BarrierProbe>,
    reduces: Vec<ReduceProbe>,
    tally: &'t mut Tally,
}

impl Drop for SymbolicTeamMember<'_> {
    fn drop(&mut self) {
        let bufs = self
            .bufs
            .iter()
            .map(|b| b.lock().unwrap().harvest())
            .collect();
        self.ctx.logs.lock().unwrap().push(BlockLog {
            league_rank: self.league_rank,
            policy: self.policy,
            alloc_slots: std::mem::take(&mut self.alloc_slots),
            bufs,
            barriers: std::mem::take(&mut self.barriers),
            reduces: std::mem::take(&mut self.reduces),
        });
    }
}

impl Team for SymbolicTeamMember<'_> {
    fn league_rank(&self) -> usize {
        self.league_rank
    }

    fn policy(&self) -> TeamPolicy {
        self.policy
    }

    fn tally(&mut self) -> &mut Tally {
        self.tally
    }

    fn scratch(&mut self, len: usize) -> ScratchBuf {
        self.alloc_slots.push(len);
        self.tally.shared_bytes += (len * 8) as u64;
        let inner = Arc::new(Mutex::new(BufInner {
            len,
            ..BufInner::default()
        }));
        self.bufs.push(inner.clone());
        ScratchBuf::symbolic(
            len,
            SymTrack {
                inner,
                epoch: self.epoch.clone(),
            },
        )
    }

    fn barrier(&mut self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    fn barrier_if(&mut self, pred: impl Fn(usize) -> bool) {
        let lanes = self.policy.vector_length.max(1);
        let arriving = (0..lanes).filter(|&p| pred(p)).count();
        self.barriers.push(BarrierProbe { arriving, lanes });
        if arriving == lanes {
            self.barrier();
        }
    }

    fn vector_for(&mut self, n: usize, mut body: impl FnMut(usize, usize)) {
        let lanes_n = self.policy.vector_length.max(1);
        for j in 0..n {
            body(j, j % lanes_n);
        }
    }

    fn vector_reduce<T: ReducerCheck>(
        &mut self,
        n: usize,
        mut body: impl FnMut(usize, &mut T),
    ) -> T {
        let lanes_n = self.policy.vector_length.max(1);
        let lanes = lane_partials(lanes_n, n, &mut body);
        // Probe three lane-join orders against the tree: warp scheduling
        // picks the order on hardware, so all must agree within rounding.
        let fwd = join_in_order(&lanes, 0..lanes_n);
        let rev = join_in_order(&lanes, (0..lanes_n).rev());
        let rot = join_in_order(&lanes, (1..lanes_n).chain(0..1.min(lanes_n)));
        let result = tree_join(lanes, self.tally);
        let norm = result
            .norm()
            .max(fwd.norm())
            .max(rev.norm())
            .max(rot.norm());
        let tol = DETERMINISM_RTOL * (1.0 + norm);
        let dist = result
            .dist(&fwd)
            .max(result.dist(&rev))
            .max(result.dist(&rot));
        self.reduces.push(ReduceProbe { dist, tol });
        result
    }
}

// ---------------------------------------------------------------------------
// The affine index domain.
// ---------------------------------------------------------------------------

/// The affine index family `{ a·lane + b + stride·k : 0 ≤ k < count }`:
/// each lane's footprint is an arithmetic progression whose base is affine
/// in the lane id. This is exactly the shape CUDA staging loops produce
/// (`idx = lane + L·k` for strided stores, `a = 0` for broadcast loads),
/// and disjointness of two such families is decidable exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffinePattern {
    /// Lane coefficient.
    pub a: i64,
    /// Constant offset (lane 0's first index).
    pub b: i64,
    /// Per-lane progression stride (1 for singletons).
    pub stride: i64,
    /// Per-lane progression length (≥ 1).
    pub count: i64,
}

impl AffinePattern {
    /// First index of `lane`'s progression.
    pub fn offset(&self, lane: i64) -> i64 {
        self.a * lane + self.b
    }

    /// Fit a pattern to per-lane index sets (slice position = lane id).
    /// Succeeds only when every lane's set is a non-empty arithmetic
    /// progression, all progressions share one stride and count, and the
    /// bases are affine in the lane id — otherwise the analyzer must widen
    /// or enumerate.
    pub fn fit(sets: &[BTreeSet<i64>]) -> Option<AffinePattern> {
        if sets.is_empty() || sets.iter().any(|s| s.is_empty()) {
            return None;
        }
        let (b0, st0, c0) = ap_of_set(&sets[0])?;
        let a = if sets.len() > 1 {
            ap_of_set(&sets[1])?.0 - b0
        } else {
            0
        };
        for (p, s) in sets.iter().enumerate() {
            let (bp, stp, cp) = ap_of_set(s)?;
            if cp != c0 || (c0 > 1 && stp != st0) || bp != a * (p as i64) + b0 {
                return None;
            }
        }
        Some(AffinePattern {
            a,
            b: b0,
            stride: st0,
            count: c0,
        })
    }

    /// True when `self` at lane `s` and `other` at lane `t` share an index
    /// — exact arithmetic-progression intersection, no sampling.
    pub fn intersects(&self, s: i64, other: &AffinePattern, t: i64) -> bool {
        ap_overlap(
            self.offset(s),
            self.stride,
            self.count,
            other.offset(t),
            other.stride,
            other.count,
        )
    }

    /// A shared index of `self` at lane `s` and `other` at lane `t`, when
    /// one exists — the witness reported in a race finding.
    pub fn witness(&self, s: i64, other: &AffinePattern, t: i64) -> Option<i64> {
        ap_first_common(
            self.offset(s),
            self.stride,
            self.count,
            other.offset(t),
            other.stride,
            other.count,
        )
        .map(|x| x as i64)
    }
}

/// Decompose a set into `(base, stride, count)` when it is an arithmetic
/// progression (singletons get stride 1).
fn ap_of_set(s: &BTreeSet<i64>) -> Option<(i64, i64, i64)> {
    let mut it = s.iter();
    let first = *it.next()?;
    let mut prev = first;
    let mut stride = 0i64;
    for &x in it {
        let d = x - prev;
        if stride == 0 {
            stride = d;
        } else if d != stride {
            return None;
        }
        prev = x;
    }
    if stride == 0 {
        Some((first, 1, 1))
    } else {
        Some((first, stride, s.len() as i64))
    }
}

/// Extended gcd: returns `(g, x, y)` with `a·x + b·y = g`.
fn egcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Smallest common element of the finite progressions `{o1 + s1·k : 0 ≤ k
/// < c1}` and `{o2 + s2·m : 0 ≤ m < c2}`, solved by CRT over i128 (exact
/// for every index and lane value the engine can produce).
fn ap_first_common(o1: i64, s1: i64, c1: i64, o2: i64, s2: i64, c2: i64) -> Option<i128> {
    if c1 <= 0 || c2 <= 0 {
        return None;
    }
    let (o1, s1, c1) = (o1 as i128, s1.max(1) as i128, c1 as i128);
    let (o2, s2, c2) = (o2 as i128, s2.max(1) as i128, c2 as i128);
    let hi = (o1 + s1 * (c1 - 1)).min(o2 + s2 * (c2 - 1));
    let lo = o1.max(o2);
    if lo > hi {
        return None;
    }
    let (g, x, _) = egcd(s1, s2);
    if (o2 - o1) % g != 0 {
        return None;
    }
    let lcm = s1 / g * s2;
    // One solution of o1 + s1·k ≡ o2 (mod s2): k ≡ (o2−o1)/g · x (mod s2/g).
    let m = s2 / g;
    let k = ((o2 - o1) / g % m * (x % m)).rem_euclid(m);
    let x0 = o1 + s1 * k;
    // Smallest solution ≥ lo, on the common lattice of stride lcm.
    let y = lo + (x0 - lo).rem_euclid(lcm);
    (y <= hi).then_some(y)
}

/// True when two finite arithmetic progressions share an element.
pub fn ap_overlap(o1: i64, s1: i64, c1: i64, o2: i64, s2: i64, c2: i64) -> bool {
    ap_first_common(o1, s1, c1, o2, s2, c2).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn policy(vl: usize) -> TeamPolicy {
        TeamPolicy {
            league_size: 1,
            team_size: 1,
            vector_length: vl,
        }
    }

    #[test]
    fn ap_overlap_basic() {
        // {0,4,8,12} vs {2,6,10}: disjoint (parity).
        assert!(!ap_overlap(0, 4, 4, 2, 4, 3));
        // {0,4,8,12} vs {6,9,12}: share 12.
        assert!(ap_overlap(0, 4, 4, 6, 3, 3));
        // Singletons.
        assert!(ap_overlap(5, 1, 1, 5, 1, 1));
        assert!(!ap_overlap(5, 1, 1, 6, 1, 1));
        // Range-disjoint despite congruence.
        assert!(!ap_overlap(0, 2, 3, 100, 2, 3));
        // Coprime strides always meet given enough length.
        assert!(ap_overlap(0, 3, 100, 1, 5, 100));
    }

    #[test]
    fn ap_overlap_matches_brute_force() {
        for o1 in -3i64..4 {
            for s1 in 1i64..6 {
                for c1 in 1i64..6 {
                    for o2 in -3i64..4 {
                        for s2 in 1i64..6 {
                            for c2 in 1i64..6 {
                                let a: BTreeSet<i64> = (0..c1).map(|k| o1 + s1 * k).collect();
                                let b: BTreeSet<i64> = (0..c2).map(|k| o2 + s2 * k).collect();
                                let brute = a.intersection(&b).next().is_some();
                                assert_eq!(
                                    ap_overlap(o1, s1, c1, o2, s2, c2),
                                    brute,
                                    "({o1},{s1},{c1}) vs ({o2},{s2},{c2})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn affine_fit_strided_staging() {
        // lane p writes {p, p+L, p+2L}: the canonical staging pattern.
        let l = 8usize;
        let sets: Vec<BTreeSet<i64>> = (0..l)
            .map(|p| (0..3).map(|k| (p + k * l) as i64).collect())
            .collect();
        let pat = AffinePattern::fit(&sets).expect("affine");
        assert_eq!(
            pat,
            AffinePattern {
                a: 1,
                b: 0,
                stride: 8,
                count: 3
            }
        );
        // Disjoint for every lane pair.
        for s in 0..l as i64 {
            for t in 0..l as i64 {
                if s != t {
                    assert!(!pat.intersects(s, &pat, t), "lanes {s},{t}");
                }
            }
        }
    }

    #[test]
    fn affine_fit_broadcast_and_overlap_witness() {
        // Broadcast: every lane reads {0..6} → a = 0.
        let sets: Vec<BTreeSet<i64>> = (0..4).map(|_| (0..6).collect()).collect();
        let pat = AffinePattern::fit(&sets).unwrap();
        assert_eq!(pat.a, 0);
        assert_eq!(pat.count, 6);
        // Broadcast reads overlap each other (benign for R/R; the analyzer
        // only pairs them against writes) — witness is the first index.
        assert_eq!(pat.witness(0, &pat, 1), Some(0));
        // Off-by-one staging: lane p writes {2p, 2p+1, 2p+2} — overlaps
        // the next lane at 2p+2.
        let sets: Vec<BTreeSet<i64>> = (0..4i64).map(|p| (2 * p..2 * p + 3).collect()).collect();
        let pat = AffinePattern::fit(&sets).unwrap();
        assert_eq!((pat.a, pat.stride, pat.count), (2, 1, 3));
        assert!(pat.intersects(0, &pat, 1));
        assert_eq!(pat.witness(0, &pat, 1), Some(2));
    }

    #[test]
    fn non_ap_set_refuses_fit() {
        let sets: Vec<BTreeSet<i64>> = vec![[0i64, 1, 4].into_iter().collect()];
        assert!(AffinePattern::fit(&sets).is_none());
        assert!(AffinePattern::fit(&[]).is_none());
        assert!(AffinePattern::fit(&[BTreeSet::new()]).is_none());
    }

    #[test]
    fn symbolic_member_logs_staged_kernel() {
        let ctx = SymbolicCtx::new();
        let mut t = Tally::new();
        {
            let mut m = ctx.member(3, policy(4), &mut t);
            let mut sm = m.scratch(8);
            m.vector_for(8, |j, lane| sm.write(lane, j, j as f64));
            m.barrier();
            let s = m.vector_reduce(8, |j, acc: &mut f64| *acc += sm.read(j % 4, j));
            assert_eq!(s, (0..8).sum::<usize>() as f64);
        }
        let logs = ctx.take_logs();
        assert_eq!(logs.len(), 1);
        let b = &logs[0];
        assert_eq!(b.league_rank, 3);
        assert_eq!(b.alloc_slots, vec![8]);
        assert_eq!(b.bufs.len(), 1);
        let buf = &b.bufs[0];
        assert!(!buf.truncated);
        assert!(buf.oob.is_empty());
        // 8 writes in epoch 0, 8 reads in epoch 1.
        let writes: Vec<_> = buf
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Write)
            .collect();
        let reads: Vec<_> = buf
            .events
            .iter()
            .filter(|e| e.kind == AccessKind::Read)
            .collect();
        assert_eq!(writes.len(), 8);
        assert!(writes.iter().all(|e| e.epoch == 0 && e.lane == e.idx % 4));
        assert_eq!(reads.len(), 8);
        assert!(reads.iter().all(|e| e.epoch == 1));
        assert_eq!(b.reduces.len(), 1);
        assert!(b.reduces[0].dist <= b.reduces[0].tol);
        // Harvesting drained the collector.
        assert!(ctx.take_logs().is_empty());
    }

    #[test]
    fn symbolic_member_records_oob_and_barrier_probes() {
        let ctx = SymbolicCtx::new();
        let mut t = Tally::new();
        {
            let mut m = ctx.member(0, policy(4), &mut t);
            let mut sm = m.scratch(4);
            sm.write(1, 9, 1.0); // out of bounds: suppressed, logged
            assert_eq!(sm.read(2, 9), 0.0); // oob read yields 0
            m.barrier_if(|lane| lane != 3); // divergent
            m.barrier_if(|_| true); // uniform taken
            m.barrier_if(|_| false); // uniform not taken
        }
        let logs = ctx.take_logs();
        let b = &logs[0];
        assert_eq!(b.bufs[0].oob.len(), 2);
        assert!(b.bufs[0].events.is_empty());
        assert_eq!(b.barriers.len(), 3);
        assert!(!b.barriers[0].uniform());
        assert!(b.barriers[1].uniform());
        assert!(b.barriers[2].uniform());
    }

    #[test]
    fn symbolic_member_flags_order_dependent_reduce() {
        // "Last lane wins" — the join depends on visit order.
        #[derive(Clone, Copy)]
        struct Last(f64);
        impl crate::kokkos::Reducer for Last {
            fn identity() -> Self {
                Last(f64::NAN)
            }
            fn join(&mut self, o: &Self) {
                if !o.0.is_nan() {
                    self.0 = o.0;
                }
            }
        }
        impl ReducerCheck for Last {
            fn dist(&self, o: &Self) -> f64 {
                (self.0 - o.0).abs()
            }
            fn norm(&self) -> f64 {
                self.0.abs()
            }
        }
        let ctx = SymbolicCtx::new();
        let mut t = Tally::new();
        {
            let mut m = ctx.member(0, policy(4), &mut t);
            let _ = m.vector_reduce(4, |j, acc: &mut Last| acc.0 = j as f64);
        }
        let logs = ctx.take_logs();
        let probe = logs[0].reduces[0];
        assert!(
            probe.dist > probe.tol,
            "dist {} tol {}",
            probe.dist,
            probe.tol
        );
    }

    #[test]
    fn runs_under_generic_factory_like_other_members() {
        fn run<F: TeamFactory>(f: &F) -> f64 {
            let mut t = Tally::new();
            let mut m = f.member(0, policy(8), &mut t);
            m.vector_reduce(32, |j, acc: &mut f64| *acc += j as f64)
        }
        assert_eq!(run(&SymbolicCtx::new()), (0..32).sum::<i32>() as f64);
        // The spec sweep hook used by the capacity proof.
        assert_eq!(GpuSpec::all_named().len(), 3);
    }
}
