//! The timing model: how simulated cycles are derived from access counts.
//!
//! All calibration constants live here, in [`CostModel`] (device side) and
//! [`HostModel`] (CPU side), so the whole performance model is auditable in
//! one place. The model is intentionally simple — three bounds per kernel
//! (instruction issue, memory latency, DRAM bandwidth), an occupancy-based
//! latency-hiding factor and a footprint-based L1 hit-rate — because those
//! are exactly the effects the paper's analysis (Sections III-B and IV-B)
//! attributes its results to. See EXPERIMENTS.md for the calibration
//! discussion.

use crate::device::DeviceSpec;
use crate::executor::AccessTally;
use crate::memory::{MemorySpace, MemoryTimings};
use crate::occupancy::Occupancy;
use std::time::Duration;

/// Calibration constants of the device-side timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Memory latencies/throughputs.
    pub memory: MemoryTimings,
    /// Issue + address-arithmetic cycles charged per memory access
    /// (per warp, since the 32 lanes execute in lockstep).
    pub alu_cycles_per_access: f64,
    /// Fixed per-thread cycles (sub-problem decode, loop prologues).
    pub fixed_cycles_per_thread: f64,
    /// Memory-level parallelism: independent outstanding loads per warp that
    /// overlap with each other, multiplying the latency-hiding capacity of
    /// the resident warps.
    pub memory_level_parallelism: f64,
    /// Exponent of the footprint-based L1 hit-rate estimate:
    /// `hit = max_hit · min(1, (L1 / footprint)^exponent)`.
    pub l1_hit_exponent: f64,
    /// Upper bound of the L1 hit rate.
    pub l1_max_hit_rate: f64,
    /// Fixed kernel-launch overhead.
    pub launch_overhead: Duration,
    /// Warp-divergence multiplier applied to issue cycles (1.0 = none).
    pub divergence_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            memory: MemoryTimings::default(),
            alu_cycles_per_access: 6.2,
            fixed_cycles_per_thread: 600.0,
            memory_level_parallelism: 4.0,
            l1_hit_exponent: 0.78,
            l1_max_hit_rate: 0.97,
            launch_overhead: Duration::from_micros(10),
            divergence_factor: 1.05,
        }
    }
}

impl CostModel {
    /// Estimated L1 hit rate when `footprint_bytes` of global data compete
    /// for `l1_bytes` of cache.
    pub fn l1_hit_rate(&self, l1_bytes: usize, footprint_bytes: usize) -> f64 {
        if footprint_bytes == 0 {
            return self.l1_max_hit_rate;
        }
        let ratio = (l1_bytes as f64 / footprint_bytes as f64).min(1.0);
        self.l1_max_hit_rate * ratio.powf(self.l1_hit_exponent)
    }

    /// Effective latency of one global access given the hit rate.
    pub fn global_latency(&self, l1_hit_rate: f64) -> f64 {
        self.memory.access_latency(MemorySpace::Global, l1_hit_rate)
    }
}

/// Inputs of one kernel-duration estimate.
#[derive(Debug, Clone)]
pub struct KernelCostInputs {
    /// Per-space access totals over all threads of the launch.
    pub tally: AccessTally,
    /// Total threads launched.
    pub total_threads: usize,
    /// Threads per block.
    pub block_threads: usize,
    /// Blocks in the grid.
    pub grid_blocks: usize,
    /// Occupancy of the launch.
    pub occupancy: Occupancy,
    /// Bytes of the global-resident data structures the kernel reads
    /// (drives the L1 hit-rate estimate).
    pub global_footprint_bytes: usize,
    /// L1 bytes per SM under the launch's shared/L1 split.
    pub l1_bytes: usize,
}

/// Breakdown of a kernel-duration estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Instruction-issue bound, in seconds.
    pub compute_seconds: f64,
    /// Latency bound (after hiding), in seconds.
    pub latency_seconds: f64,
    /// DRAM-bandwidth bound, in seconds.
    pub bandwidth_seconds: f64,
    /// Fixed launch overhead, in seconds.
    pub overhead_seconds: f64,
    /// Estimated L1 hit rate used for global accesses.
    pub l1_hit_rate: f64,
    /// The final estimate: `max(compute, latency, bandwidth) + overhead`.
    pub total_seconds: f64,
}

impl KernelCost {
    /// Which of the three components is binding.
    pub fn bound_by(&self) -> &'static str {
        if self.compute_seconds >= self.latency_seconds
            && self.compute_seconds >= self.bandwidth_seconds
        {
            "compute"
        } else if self.latency_seconds >= self.bandwidth_seconds {
            "latency"
        } else {
            "bandwidth"
        }
    }
}

/// Estimates the duration of a kernel launch on `device` under `model`.
pub fn kernel_cost(
    device: &DeviceSpec,
    model: &CostModel,
    inputs: &KernelCostInputs,
) -> KernelCost {
    let threads = inputs.total_threads.max(1) as f64;
    let warps_total = (inputs.total_threads as f64 / device.warp_size as f64)
        .ceil()
        .max(1.0);

    // Per-thread averages (lanes of a warp run in lockstep, so the per-warp
    // instruction count equals the per-thread access count).
    let tally = &inputs.tally;
    let per_thread_total = tally.total() as f64 / threads;
    let per_thread_shared = tally.shared as f64 / threads;
    let per_thread_global = (tally.global + tally.global_writes) as f64 / threads;
    let per_thread_other = (tally.constant + tally.texture + tally.local) as f64 / threads;

    // Blocks are distributed round-robin over the SMs; the busiest SM gets
    // `ceil(blocks / SMs)` blocks and determines the kernel duration.
    let blocks_per_sm_total = (inputs.grid_blocks as f64 / device.multiprocessors as f64).ceil();
    let warps_per_block = (inputs.block_threads as f64 / device.warp_size as f64).ceil();
    let warps_on_busiest_sm = blocks_per_sm_total * warps_per_block;
    let _ = warps_total;

    // 1. Instruction-issue bound.
    let issue_per_warp = model.divergence_factor
        * (model.alu_cycles_per_access * per_thread_total + model.fixed_cycles_per_thread);
    let compute_cycles = warps_on_busiest_sm * issue_per_warp;

    // 2. Latency bound, hidden by resident warps × MLP.
    let hit = model.l1_hit_rate(inputs.l1_bytes, inputs.global_footprint_bytes);
    let lat_shared = model.memory.access_latency(MemorySpace::Shared, hit);
    let lat_global = model.global_latency(hit);
    let lat_other = model.memory.access_latency(MemorySpace::Constant, hit);
    let latency_per_warp = per_thread_shared * lat_shared
        + per_thread_global * lat_global
        + per_thread_other * lat_other;
    // Latency is hidden by the warps actually resident on the SM (bounded by
    // the occupancy limit and by how many warps the grid supplies) times the
    // per-warp memory-level parallelism.
    let resident_warps =
        (inputs.occupancy.active_warps_per_sm.max(1) as f64).min(warps_on_busiest_sm.max(1.0));
    let hiding = resident_warps * model.memory_level_parallelism.max(1.0);
    let latency_cycles = warps_on_busiest_sm * latency_per_warp / hiding;

    // 3. DRAM bandwidth bound (device-wide). Lanes of a warp read the same
    //    instance-level element, so one warp access misses at most once.
    let warp_global_accesses = per_thread_global * warps_total;
    let miss_bytes = warp_global_accesses * (1.0 - hit) * model.memory.transaction_bytes as f64;
    let bandwidth_seconds = miss_bytes / device.memory_bandwidth_bps;

    let compute_seconds = device.cycles_to_seconds(compute_cycles);
    let latency_seconds = device.cycles_to_seconds(latency_cycles);
    let overhead_seconds = model.launch_overhead.as_secs_f64();
    let total_seconds =
        compute_seconds.max(latency_seconds).max(bandwidth_seconds) + overhead_seconds;

    KernelCost {
        compute_seconds,
        latency_seconds,
        bandwidth_seconds,
        overhead_seconds,
        l1_hit_rate: hit,
        total_seconds,
    }
}

/// Timing model of the host CPU (the paper's Intel Xeon E5520 running the
/// serial B&B), used to estimate the serial bounding time of the same work.
#[derive(Debug, Clone, PartialEq)]
pub struct HostModel {
    /// Core clock in Hz (2.27 GHz for the E5520).
    pub clock_hz: f64,
    /// Cycles per matrix access when the bound's working set fits in the
    /// fastest cache levels.
    pub base_cycles_per_access: f64,
    /// Additional cycles per access as the working set grows past
    /// `cache_bytes` (cache-pressure penalty, saturating at +`penalty`).
    pub penalty_cycles_per_access: f64,
    /// Effective cache capacity before the penalty saturates.
    pub cache_bytes: usize,
    /// Fixed per-bound-evaluation overhead cycles (call, setup).
    pub fixed_cycles_per_bound: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        Self {
            clock_hz: 2.27e9,
            base_cycles_per_access: 3.0,
            penalty_cycles_per_access: 0.4,
            cache_bytes: 256 * 1024,
            fixed_cycles_per_bound: 400.0,
        }
    }
}

impl HostModel {
    /// Cycles per access for a bound whose matrices occupy `footprint_bytes`.
    pub fn cycles_per_access(&self, footprint_bytes: usize) -> f64 {
        let pressure = (footprint_bytes as f64 / self.cache_bytes as f64).min(1.0);
        self.base_cycles_per_access + self.penalty_cycles_per_access * pressure
    }

    /// Estimated time for the host to perform `accesses` matrix accesses over
    /// `bounds` bound evaluations with the given footprint.
    pub fn bounding_time(&self, accesses: u64, bounds: u64, footprint_bytes: usize) -> Duration {
        let cycles = accesses as f64 * self.cycles_per_access(footprint_bytes)
            + bounds as f64 * self.fixed_cycles_per_bound;
        Duration::from_secs_f64(cycles / self.clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SharedMemoryConfig;
    use crate::occupancy::occupancy;

    fn inputs(tally: AccessTally, threads: usize, shared_bytes: usize) -> KernelCostInputs {
        let device = DeviceSpec::tesla_c2050();
        let config = if shared_bytes > 0 {
            SharedMemoryConfig::PreferShared
        } else {
            SharedMemoryConfig::PreferL1
        };
        let occ = occupancy(&device, 256, 26, shared_bytes, config);
        KernelCostInputs {
            tally,
            total_threads: threads,
            block_threads: 256,
            grid_blocks: threads.div_ceil(256),
            occupancy: occ,
            global_footprint_bytes: 150_000,
            l1_bytes: device.l1_bytes(config),
        }
    }

    fn tally(global: u64, shared: u64, threads: u64) -> AccessTally {
        AccessTally {
            global: global * threads,
            shared: shared * threads,
            global_writes: threads,
            ..Default::default()
        }
    }

    #[test]
    fn hit_rate_decreases_with_footprint() {
        let m = CostModel::default();
        let small = m.l1_hit_rate(48 * 1024, 15_000);
        let large = m.l1_hit_rate(48 * 1024, 300_000);
        assert!(small > large);
        assert!(small <= m.l1_max_hit_rate + 1e-12);
        assert_eq!(m.l1_hit_rate(48 * 1024, 0), m.l1_max_hit_rate);
    }

    #[test]
    fn more_threads_take_longer() {
        let device = DeviceSpec::tesla_c2050();
        let model = CostModel::default();
        let small = kernel_cost(&device, &model, &inputs(tally(1000, 0, 4096), 4096, 0));
        let large = kernel_cost(
            &device,
            &model,
            &inputs(tally(1000, 0, 262_144), 262_144, 0),
        );
        assert!(large.total_seconds > small.total_seconds);
    }

    #[test]
    fn per_thread_time_improves_with_more_blocks() {
        // 16 blocks cannot fill 14 SMs evenly (2 waves on some SMs); 1024
        // blocks balance out — the per-thread cost must be lower.
        let device = DeviceSpec::tesla_c2050();
        let model = CostModel::default();
        let small_pool = 16 * 256;
        let large_pool = 1024 * 256;
        let a = kernel_cost(
            &device,
            &model,
            &inputs(tally(1000, 0, small_pool as u64), small_pool, 0),
        );
        let b = kernel_cost(
            &device,
            &model,
            &inputs(tally(1000, 0, large_pool as u64), large_pool, 0),
        );
        let per_thread_a = a.total_seconds / small_pool as f64;
        let per_thread_b = b.total_seconds / large_pool as f64;
        assert!(per_thread_b < per_thread_a);
    }

    #[test]
    fn moving_traffic_to_shared_memory_helps_when_global_is_saturated() {
        // Same total accesses; one launch does them all from global memory,
        // the other serves 70 % from shared memory. Occupancy drops (large
        // shared footprint) but the kernel must still be at least as fast.
        let device = DeviceSpec::tesla_c2050();
        let model = CostModel::default();
        let threads = 262_144usize;
        let all_global = kernel_cost(
            &device,
            &model,
            &inputs(tally(150_000, 0, threads as u64), threads, 0),
        );
        let mostly_shared = kernel_cost(
            &device,
            &model,
            &inputs(tally(45_000, 105_000, threads as u64), threads, 42_000),
        );
        assert!(mostly_shared.total_seconds <= all_global.total_seconds * 1.02);
    }

    #[test]
    fn cost_components_are_positive_and_total_includes_overhead() {
        let device = DeviceSpec::tesla_c2050();
        let model = CostModel::default();
        let c = kernel_cost(&device, &model, &inputs(tally(100, 50, 256), 256, 1024));
        assert!(c.compute_seconds > 0.0);
        assert!(c.latency_seconds > 0.0);
        assert!(c.bandwidth_seconds >= 0.0);
        assert!(c.total_seconds >= c.overhead_seconds);
        assert!(["compute", "latency", "bandwidth"].contains(&c.bound_by()));
    }

    #[test]
    fn host_model_penalises_large_footprints() {
        let h = HostModel::default();
        assert!(h.cycles_per_access(16 * 1024) < h.cycles_per_access(1024 * 1024));
        let small = h.bounding_time(1_000_000, 100, 16 * 1024);
        let large = h.bounding_time(1_000_000, 100, 1024 * 1024);
        assert!(large > small);
    }

    #[test]
    fn host_time_scales_linearly_with_accesses() {
        let h = HostModel::default();
        let one = h.bounding_time(1_000_000, 0, 64 * 1024).as_secs_f64();
        let ten = h.bounding_time(10_000_000, 0, 64 * 1024).as_secs_f64();
        // Durations are rounded to nanoseconds, so allow a small tolerance.
        assert!((ten / one - 10.0).abs() < 1e-3);
    }
}
