//! Kernels and launch configurations.

use crate::host::DeviceBuffer;

/// A GPU kernel: a function executed once per warp of the launch grid, its
/// lanes (one GPU thread each) in lockstep.
///
/// Kernels read and write device memory exclusively through the
/// [`crate::warp::WarpCtx`] handed to them, which is what lets the simulator
/// attribute every access to a memory space and price it. A kernel charges
/// each lane's accesses: one-lane reads and writes for per-thread data, and
/// [`crate::warp::WarpCtx::read_broadcast`] over exactly the lanes that read
/// a shared element — so the counts equal those of the same threads run one
/// at a time.
///
/// The executor allocates one [`Kernel::Scratch`] per launch and hands the
/// same instance to every warp in turn, so per-lane working storage (local
/// arrays a CUDA kernel would keep in registers or local memory) is
/// allocated once per launch instead of once per warp. A kernel must
/// therefore reset whatever scratch state it reads before writing it —
/// exactly the discipline an uninitialised `__local__` array demands.
pub trait Kernel: Sync {
    /// Reusable per-warp working storage, allocated once per launch.
    type Scratch;

    /// Allocates the scratch sized for this kernel's dimensions.
    fn new_scratch(&self) -> Self::Scratch;

    /// Executes the kernel body for one warp.
    fn run(&self, warp: &mut crate::warp::WarpCtx<'_>, scratch: &mut Self::Scratch);

    /// Human-readable kernel name (for reports).
    fn name(&self) -> &str {
        "kernel"
    }
}

/// Execution configuration of a kernel launch — the simulator's equivalent of
/// the `<<<grid, block, shared>>>` triple plus the per-thread register count
/// the CUDA compiler would report (the paper's kernel uses 26 registers).
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Number of threads per block (the paper fixes 256).
    pub block_threads: usize,
    /// Registers used per thread (occupancy input).
    pub registers_per_thread: usize,
    /// Buffers staged into per-block shared memory for this launch. Their
    /// footprint counts against the shared-memory occupancy limit and their
    /// accesses are charged shared-memory latency.
    pub shared_buffers: Vec<DeviceBuffer>,
}

impl LaunchConfig {
    /// A launch covering at least `total_threads` threads with blocks of
    /// `block_threads`.
    pub fn for_threads(total_threads: usize, block_threads: usize) -> Self {
        assert!(block_threads > 0, "block size must be positive");
        let mut config = Self {
            grid_blocks: 1,
            block_threads,
            registers_per_thread: 26,
            shared_buffers: Vec::new(),
        };
        config.fit_threads(total_threads);
        config
    }

    /// Resizes the grid to cover at least `total_threads` threads, keeping
    /// the block size, registers and shared buffers — so one configuration
    /// serves every launch of a kernel without rebuilding its buffer list.
    pub fn fit_threads(&mut self, total_threads: usize) {
        self.grid_blocks = total_threads.div_ceil(self.block_threads).max(1);
    }

    /// Sets the per-thread register count.
    pub fn with_registers(mut self, registers: usize) -> Self {
        self.registers_per_thread = registers;
        self
    }

    /// Stages `buffers` in shared memory for this launch.
    pub fn with_shared_buffers(mut self, buffers: Vec<DeviceBuffer>) -> Self {
        self.shared_buffers = buffers;
        self
    }

    /// Total number of threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.block_threads
    }

    /// Shared-memory bytes required per block by the staged buffers.
    pub fn shared_bytes_per_block(&self) -> usize {
        self.shared_buffers.iter().map(|b| b.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_threads_rounds_the_grid_up() {
        let cfg = LaunchConfig::for_threads(1000, 256);
        assert_eq!(cfg.grid_blocks, 4);
        assert_eq!(cfg.block_threads, 256);
        assert_eq!(cfg.total_threads(), 1024);
        assert_eq!(cfg.registers_per_thread, 26);
    }

    #[test]
    fn fit_threads_resizes_only_the_grid() {
        let mut cfg = LaunchConfig::for_threads(1000, 256).with_registers(30);
        cfg.fit_threads(257);
        assert_eq!((cfg.grid_blocks, cfg.block_threads), (2, 256));
        assert_eq!(cfg.registers_per_thread, 30);
        cfg.fit_threads(0);
        assert_eq!(cfg.grid_blocks, 1);
    }

    #[test]
    fn zero_threads_still_launches_one_block() {
        let cfg = LaunchConfig::for_threads(0, 128);
        assert_eq!(cfg.grid_blocks, 1);
    }

    #[test]
    fn builders_set_fields() {
        let cfg = LaunchConfig::for_threads(256, 256).with_registers(32);
        assert_eq!(cfg.registers_per_thread, 32);
        assert_eq!(cfg.shared_bytes_per_block(), 0);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_panics() {
        LaunchConfig::for_threads(10, 0);
    }
}
