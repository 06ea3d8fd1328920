//! Launch execution results: functional statistics and timing estimates.
//!
//! The actual grid walk lives in [`crate::host::Device::launch`]; this module
//! defines the result types and the analytic (execution-free) workload
//! description used when the caller already knows the access counts — the
//! two paths share [`crate::timing::kernel_cost`], so a launch that is
//! simulated functionally and one described analytically with the same
//! counts receive identical timing estimates (tested in `gpu-bnb`).

use crate::memory::MemorySpace;
use crate::occupancy::Occupancy;
use crate::timing::KernelCost;
use crate::warp::BufferCell;
use std::time::Duration;

/// Per-memory-space access counters of one kernel launch (read + write).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessTally {
    /// Accesses charged to shared memory.
    pub shared: u64,
    /// Accesses charged to global memory (through L1).
    pub global: u64,
    /// Accesses charged to constant memory.
    pub constant: u64,
    /// Accesses charged to texture memory.
    pub texture: u64,
    /// Accesses charged to local memory.
    pub local: u64,
    /// Writes to global memory (kernel outputs).
    pub global_writes: u64,
}

impl AccessTally {
    /// Total number of memory accesses of any kind.
    pub fn total(&self) -> u64 {
        self.shared + self.global + self.constant + self.texture + self.local + self.global_writes
    }

    /// Element-wise sum.
    pub fn add(&self, other: &AccessTally) -> AccessTally {
        AccessTally {
            shared: self.shared + other.shared,
            global: self.global + other.global,
            constant: self.constant + other.constant,
            texture: self.texture + other.texture,
            local: self.local + other.local,
            global_writes: self.global_writes + other.global_writes,
        }
    }

    /// Folds the per-buffer access counters accumulated during a launch into
    /// per-space totals using the space each buffer was bound to. The
    /// executor counts flat per-buffer (one unconditional increment on the
    /// hot path) and attributes spaces once per launch here, instead of per
    /// access.
    pub(crate) fn from_buffer_cells(cells: &[BufferCell], spaces: &[MemorySpace]) -> AccessTally {
        let mut tally = AccessTally::default();
        for (cell, &space) in cells.iter().zip(spaces) {
            match space {
                MemorySpace::Shared => tally.shared += cell.reads,
                MemorySpace::Global => tally.global += cell.reads,
                MemorySpace::Constant => tally.constant += cell.reads,
                MemorySpace::Texture => tally.texture += cell.reads,
                MemorySpace::Local | MemorySpace::Register => tally.local += cell.reads,
            }
            // Kernel outputs are charged as global writes irrespective of the
            // buffer's read binding.
            tally.global_writes += cell.writes;
        }
        tally
    }
}

/// Functional statistics of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchStats {
    /// Per-space access totals over every thread of the grid.
    pub tally: AccessTally,
    /// Threads in the grid (`grid_blocks × block_threads`).
    pub total_threads: usize,
    /// Blocks in the grid.
    pub grid_blocks: usize,
    /// Occupancy achieved on the device.
    pub occupancy: Occupancy,
    /// Shared-memory bytes required per block.
    pub shared_bytes_per_block: usize,
    /// Bytes of global-resident instance data (footprint used for the L1
    /// hit-rate estimate).
    pub global_footprint_bytes: usize,
}

/// Timing estimate of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct KernelTiming {
    /// Component breakdown (compute / latency / bandwidth bounds).
    pub cost: KernelCost,
    /// The resulting duration estimate.
    pub duration: Duration,
}

impl KernelTiming {
    /// Builds the timing from a cost breakdown.
    pub fn from_cost(cost: KernelCost) -> Self {
        Self {
            duration: Duration::from_secs_f64(cost.total_seconds),
            cost,
        }
    }
}

/// An execution-free description of a launch's work, used when the per-space
/// access counts are already known analytically (e.g. from the Table I
/// formulas) and only the timing estimate is needed.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticWorkload {
    /// Per-space access totals over every thread of the grid (same meaning
    /// as [`LaunchStats::tally`]).
    pub tally: AccessTally,
    /// Total threads the launch would execute.
    pub total_threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::KernelCost;

    #[test]
    fn timing_duration_matches_cost_total() {
        let cost = KernelCost {
            compute_seconds: 0.5,
            latency_seconds: 0.2,
            bandwidth_seconds: 0.1,
            overhead_seconds: 0.01,
            l1_hit_rate: 0.9,
            total_seconds: 0.51,
        };
        let t = KernelTiming::from_cost(cost);
        assert!((t.duration.as_secs_f64() - 0.51).abs() < 1e-12);
        assert_eq!(t.cost.bound_by(), "compute");
    }

    #[test]
    fn tally_totals_and_addition() {
        let a = AccessTally {
            shared: 1,
            global: 2,
            constant: 3,
            texture: 4,
            local: 5,
            global_writes: 6,
        };
        assert_eq!(a.total(), 21);
        assert_eq!(a.add(&a).total(), 42);
    }

    #[test]
    fn buffer_counts_fold_into_every_space() {
        let mut cells: Vec<BufferCell> = (0..5).map(|_| BufferCell::default()).collect();
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.reads = (i + 1) as u64;
        }
        cells[2].writes = 7;
        cells[4].writes = 1;
        let spaces = [
            MemorySpace::Shared,
            MemorySpace::Global,
            MemorySpace::Constant,
            MemorySpace::Texture,
            MemorySpace::Local,
        ];
        let tally = AccessTally::from_buffer_cells(&cells, &spaces);
        assert_eq!(tally.shared, 1);
        assert_eq!(tally.global, 2);
        assert_eq!(tally.constant, 3);
        assert_eq!(tally.texture, 4);
        assert_eq!(tally.local, 5);
        assert_eq!(tally.global_writes, 8);
    }
}
