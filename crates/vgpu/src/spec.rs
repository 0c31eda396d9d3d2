//! Device specifications and the [`Device`] handle that carries kernel
//! counters.
//!
//! Peak numbers come from the paper and public datasheets: V100 7.8 TF FP64
//! DFMA peak and 890 GB/s HBM2 (§V-A1), MI100 up to 11.5 TF FP64 and
//! 1.23 TB/s, A64FX ~3.07 TF FP64 and 1 TB/s HBM2, plus the CPU hosts
//! (POWER9, EPYC "Rome") that run the factorization and solve in Table VII.

use crate::counters::{KernelRegistry, KernelStats, Tally};
use crate::fault::{FaultInjector, FaultPlan, InjectedFault};
use landau_obs::MetricRegistry;
use std::sync::{Arc, Mutex};

/// Static description of a compute device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors (or CUs / cores for non-NVIDIA devices).
    pub sms: u32,
    /// Peak FP64 rate in GFLOP/s.
    pub peak_fp64_gflops: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Native f64 atomic adds in global memory (false on MI100, §V-D1).
    pub has_hw_f64_atomics: bool,
    /// Kernel launch overhead in microseconds (host → device dispatch).
    pub launch_overhead_us: f64,
    /// True for CPU-like devices (A64FX, POWER9, EPYC) where "SMs" are cores.
    pub is_cpu: bool,
}

/// Execution-model limits of a GPU block — the constraints a kernel's launch
/// configuration must respect. Separated from [`DeviceSpec`] (throughput
/// numbers) because the static verifier's capacity and launch proofs and
/// [`crate::kokkos::TeamMember::scratch`] depend only on these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GpuSpec {
    /// Shared memory ("scratch") available to one block, in bytes.
    pub shared_mem_per_block: u64,
    /// Maximum threads per block (`blockDim.x · blockDim.y`).
    pub max_threads_per_block: usize,
    /// Lanes per warp (the shuffle-reduction width).
    pub warp_size: usize,
}

impl GpuSpec {
    /// NVIDIA V100: 48 KiB default shared memory per block (up to 96 KiB
    /// with opt-in carve-out, which the paper's kernels do not use),
    /// 1024 threads, 32-lane warps.
    pub fn v100() -> Self {
        GpuSpec {
            shared_mem_per_block: 48 * 1024,
            max_threads_per_block: 1024,
            warp_size: 32,
        }
    }

    /// AMD MI100: 64 KiB LDS per workgroup, 1024 threads, 64-lane
    /// wavefronts.
    pub fn mi100() -> Self {
        GpuSpec {
            shared_mem_per_block: 64 * 1024,
            max_threads_per_block: 1024,
            warp_size: 64,
        }
    }

    /// A permissive spec for CPU-like devices where "shared memory" is
    /// cache: no practical scratch limit.
    pub fn cpu() -> Self {
        GpuSpec {
            shared_mem_per_block: u64::MAX,
            max_threads_per_block: usize::MAX,
            warp_size: 1,
        }
    }

    /// Every named spec, for sweeps that must hold on *all* devices (the
    /// static verifier's capacity proof iterates this, so adding a spec
    /// here automatically extends the proof obligations).
    pub fn all_named() -> Vec<(&'static str, GpuSpec)> {
        vec![
            ("v100", GpuSpec::v100()),
            ("mi100", GpuSpec::mi100()),
            ("cpu", GpuSpec::cpu()),
        ]
    }
}

impl Default for GpuSpec {
    /// The paper's primary target (V100).
    fn default() -> Self {
        GpuSpec::v100()
    }
}

impl DeviceSpec {
    /// Roofline turning point: FLOPs/byte where compute meets bandwidth.
    pub fn roofline_knee(&self) -> f64 {
        self.peak_fp64_gflops / self.dram_gbps
    }

    /// NVIDIA V100 (Summit): 80 SMs, 7.8 TF FP64, 890 GB/s.
    pub fn v100() -> Self {
        DeviceSpec {
            name: "NVIDIA V100",
            sms: 80,
            peak_fp64_gflops: 7800.0,
            dram_gbps: 890.0,
            has_hw_f64_atomics: true,
            launch_overhead_us: 8.0,
            is_cpu: false,
        }
    }

    /// AMD MI100 (Spock): 120 CUs, up to 11.5 TF FP64, no HW f64 atomics.
    pub fn mi100() -> Self {
        DeviceSpec {
            name: "AMD MI100",
            sms: 120,
            peak_fp64_gflops: 11500.0,
            dram_gbps: 1230.0,
            has_hw_f64_atomics: false,
            launch_overhead_us: 12.0,
            is_cpu: false,
        }
    }

    /// Fujitsu A64FX (Fugaku node): 48 cores, ~3.07 TF FP64, 1 TB/s HBM2.
    pub fn a64fx() -> Self {
        DeviceSpec {
            name: "Fujitsu A64FX",
            sms: 48,
            peak_fp64_gflops: 3072.0,
            dram_gbps: 1024.0,
            has_hw_f64_atomics: true,
            launch_overhead_us: 0.5,
            is_cpu: true,
        }
    }

    /// IBM POWER9 (one socket, 21 cores as configured on Summit).
    pub fn power9() -> Self {
        DeviceSpec {
            name: "IBM POWER9",
            sms: 21,
            peak_fp64_gflops: 510.0,
            dram_gbps: 170.0,
            has_hw_f64_atomics: true,
            launch_overhead_us: 0.0,
            is_cpu: true,
        }
    }

    /// AMD EPYC 7662 "Rome" (Spock host, 64 cores).
    pub fn epyc_rome() -> Self {
        DeviceSpec {
            name: "AMD EPYC 7662",
            sms: 64,
            peak_fp64_gflops: 2048.0,
            dram_gbps: 205.0,
            has_hw_f64_atomics: true,
            launch_overhead_us: 0.0,
            is_cpu: true,
        }
    }
}

/// A device handle: spec plus named per-kernel counters and the (normally
/// disarmed) fault injector used by resilience tests.
#[derive(Debug)]
pub struct Device {
    /// Static capabilities.
    pub spec: DeviceSpec,
    kernels: KernelRegistry,
    faults: FaultInjector,
    /// Unified metrics sink: every recorded launch is also published as
    /// `kernel.<name>.*` counters. Defaults to the process-global
    /// registry; swappable for isolated accounting (tests, per-batch).
    metrics: Mutex<Arc<MetricRegistry>>,
}

impl Device {
    /// New device with fresh counters, publishing into the global
    /// [`MetricRegistry`].
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            kernels: KernelRegistry::default(),
            faults: FaultInjector::default(),
            metrics: Mutex::new(MetricRegistry::global_arc()),
        }
    }

    /// Redirect this device's metric publishing to `registry`.
    pub fn set_metric_registry(&self, registry: Arc<MetricRegistry>) {
        *self.metrics.lock().unwrap_or_else(|e| e.into_inner()) = registry;
    }

    /// The registry this device currently publishes into.
    pub fn metric_registry(&self) -> Arc<MetricRegistry> {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Arm a seeded [`FaultPlan`] on this device. Kernel drivers poll the
    /// injector once per launch; with [`FaultPlan::none`] (or without
    /// arming) the poll is a single relaxed atomic load and nothing is
    /// injected, so fault-free results are bitwise unchanged.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.faults.arm(plan);
    }

    /// Disarm fault injection.
    pub fn disarm_faults(&self) {
        self.faults.disarm();
    }

    /// Count one tally at `site` and return the fault due now, if any
    /// (see [`FaultInjector::poll`]).
    pub fn poll_fault(&self, site: &str, lanes: usize) -> Option<InjectedFault> {
        self.faults.poll(site, lanes)
    }

    /// Log of everything injected since the plan was armed.
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        self.faults.log()
    }

    /// Snapshot the fault plan and per-site tallies for checkpointing
    /// (see [`FaultInjector::export_cursor`]).
    pub fn export_fault_cursor(&self) -> crate::fault::FaultCursor {
        self.faults.export_cursor()
    }

    /// Restore a checkpointed fault cursor so a resumed run replays the
    /// remaining fault schedule identically.
    pub fn restore_fault_cursor(&self, cursor: &crate::fault::FaultCursor) {
        self.faults.restore_cursor(cursor);
    }

    /// Record one launch of a named kernel, both into the per-device
    /// counter registry and as `kernel.<name>.*` metrics.
    pub fn record_launch(&self, kernel: &str, tally: &Tally, blocks: u64) {
        self.kernels.kernel(kernel).record_launch(tally, blocks);
        let reg = self.metric_registry();
        let add = |field: &str, v: u64| {
            if v != 0 {
                reg.add(&format!("kernel.{kernel}.{field}"), v);
            }
        };
        add("launches", 1);
        add("blocks", blocks);
        add("flops", tally.flops);
        add("dram_read", tally.dram_read);
        add("dram_write", tally.dram_write);
        add("shared_bytes", tally.shared_bytes);
        add("atomics", tally.atomics);
        add("shuffles", tally.shuffles);
        add("cache_build_flops", tally.cache_build_flops);
        add("cache_read", tally.cache_read);
        add("cache_flops_saved", tally.cache_flops_saved);
    }

    /// Snapshot of a kernel's stats.
    pub fn kernel_stats(&self, kernel: &str) -> KernelStats {
        self.kernels.kernel(kernel).stats()
    }

    /// Reset all counters.
    pub fn reset_counters(&self) {
        self.kernels.reset_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_roofline_knee_matches_paper() {
        // Paper §V-A1: "the AI roofline turning point is at 8.8".
        let knee = DeviceSpec::v100().roofline_knee();
        assert!((knee - 8.764).abs() < 0.05, "knee = {knee}");
    }

    #[test]
    fn mi100_lacks_hw_atomics() {
        assert!(!DeviceSpec::mi100().has_hw_f64_atomics);
        assert!(DeviceSpec::v100().has_hw_f64_atomics);
    }

    #[test]
    fn device_records_and_resets() {
        let d = Device::new(DeviceSpec::v100());
        d.record_launch(
            "jacobian",
            &Tally {
                flops: 1000,
                dram_read: 64,
                ..Default::default()
            },
            80,
        );
        let s = d.kernel_stats("jacobian");
        assert_eq!(s.flops, 1000);
        assert_eq!(s.blocks, 80);
        d.reset_counters();
        assert_eq!(d.kernel_stats("jacobian").flops, 0);
    }

    #[test]
    fn peak_ratio_v100_vs_mi100() {
        // The paper normalizes by peak: MI100/V100 ≈ 1.47.
        let r = DeviceSpec::mi100().peak_fp64_gflops / DeviceSpec::v100().peak_fp64_gflops;
        assert!((r - 1.474).abs() < 0.01);
    }
}
