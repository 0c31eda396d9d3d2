//! A virtual GPU for the CUDA programming model.
//!
//! The paper's contribution is an *algorithm organized for the CUDA
//! execution model*: one element per block/SM, integration points on the
//! thread-block y dimension, a strided inner-integral loop on the x
//! dimension with register partials combined by warp-shuffle reductions, and
//! shared-memory staging of the field data. This crate provides that model
//! as a host-side execution engine:
//!
//! * [`reduce`] — the manual CUDA-style strided loop + shuffle-tree
//!   reduction, and the Kokkos-style generic-object `parallel_reduce` the
//!   paper contrasts it with (§III-D);
//! * [`counters`] — per-kernel FLOP / DRAM-byte / shared-memory / atomic /
//!   shuffle tallies, aggregated into named kernel counters on a
//!   [`Device`]; these feed the roofline analysis (Table IV) and the
//!   hardware throughput model in `landau-hwsim`;
//! * [`fault`] — deterministic, seeded fault injection (NaN / perturbation
//!   into kernel outputs, singular LU blocks) armed per [`Device`]; the
//!   resilience tests use it to prove every defect class is detected and
//!   recovered from while fault-free runs stay bitwise identical;
//! * [`spec`] — device descriptions (V100, MI100, A64FX, POWER9, EPYC) with
//!   published peak FP64 rates, memory bandwidths and feature flags (e.g.
//!   the MI100's missing hardware f64 atomics, §V-D1), plus the
//!   execution-model limits ([`GpuSpec`]) the kernel verifier proves
//!   against;
//! * [`kokkos`] — the league / team / vector portable layer kernels are
//!   written against ([`Team`], [`TeamFactory`], team scratch);
//! * [`symbolic`] — a drop-in [`Team`] member that runs a kernel once and
//!   logs every scratch access, barrier predicate and reduction join; the
//!   static verifier in `landau-check` proves race freedom, barrier
//!   uniformity, capacity and reduction determinism from those logs.
//!
//! Blocks are scheduled onto host threads by the caller (`landau-par`); the
//! engine reproduces the *semantics* and *operation counts* of the CUDA
//! model, while wall-clock performance on other hardware is modeled in
//! `landau-hwsim` (see DESIGN.md §2 for the substitution argument).

pub mod counters;
pub mod fault;
pub mod kokkos;
pub mod reduce;
pub mod spec;
pub mod symbolic;

pub use counters::{Counters, KernelStats, Tally};
pub use fault::{FaultKind, FaultPlan, FaultSpec, InjectedFault};
pub use kokkos::{PlainFactory, Reducer, ReducerCheck, ScratchBuf, Team, TeamFactory};
pub use reduce::{cuda_strided_reduce, WarpAdd};
pub use spec::{Device, DeviceSpec, GpuSpec};
pub use symbolic::{AffinePattern, BlockLog, BufLog, SymbolicCtx, SymbolicTeamMember};
