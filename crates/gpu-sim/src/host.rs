//! The host-side device API: buffer management and kernel launches.
//!
//! The interface intentionally mirrors a minimal CUDA host program —
//! allocate buffers, copy data in, launch a kernel over a grid of blocks,
//! copy results back — so the GPU-accelerated B&B of the `gpu-bnb` crate
//! reads like the CUDA code the paper describes, while every operation also
//! produces the timing estimates used to regenerate the paper's tables.

use crate::device::DeviceSpec;
use crate::executor::{AccessTally, AnalyticWorkload, KernelTiming, LaunchStats};
use crate::kernel::{Kernel, LaunchConfig};
use crate::memory::{MemorySpace, SharedMemoryConfig};
use crate::occupancy::occupancy;
use crate::timing::{kernel_cost, CostModel, KernelCostInputs};
use crate::transfer::TransferModel;
use crate::warp::{BufferCell, WarpCtx, MAX_LANES};
use std::time::Duration;

/// What a buffer holds — determines whether it counts toward the L1
/// footprint used by the hit-rate estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferKind {
    /// Read-only instance-level data reused by every thread (the six bound
    /// matrices). Counts toward the cache footprint.
    InstanceData,
    /// Per-thread streamed data (the encoded sub-problems, the output
    /// bounds). Each element is touched a bounded number of times, so it
    /// does not pressure the cache.
    Stream,
}

/// A handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceBuffer {
    id: usize,
    len: usize,
    /// Bytes per element *on the real device* (the simulator stores `u32`
    /// functionally, but footprints must reflect the packed layout the paper
    /// uses, e.g. one byte per Johnson-matrix entry).
    elem_bytes: usize,
}

impl DeviceBuffer {
    /// Identifier of the allocation inside its device.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes using the declared element width.
    pub fn size_bytes(&self) -> usize {
        self.len * self.elem_bytes
    }

    /// Test-only constructor (the executor normally hands these out).
    #[doc(hidden)]
    pub fn for_test(id: usize, len: usize, elem_bytes: usize) -> Self {
        Self {
            id,
            len,
            elem_bytes,
        }
    }
}

struct Allocation {
    data: Vec<u32>,
    elem_bytes: usize,
    kind: BufferKind,
    space: MemorySpace,
}

/// Result of one kernel launch: functional statistics plus the timing
/// estimate.
#[derive(Debug, Clone, Copy)]
pub struct LaunchResult {
    /// Access counts, occupancy, footprint.
    pub stats: LaunchStats,
    /// Estimated kernel duration and its breakdown.
    pub timing: KernelTiming,
}

/// A simulated CUDA device.
///
/// Each `Device` owns its allocations, its cost/transfer models and hands
/// out fresh, independent [`crate::stream::Timeline`]s
/// ([`Device::timeline`]), so a *fleet* of devices is simply several
/// `Device` values: their modelled clocks advance independently by
/// construction, exactly like the per-card timelines of a multi-GPU host.
/// The `ordinal` distinguishes fleet members (`cudaSetDevice`-style) in
/// per-device statistics.
pub struct Device {
    spec: DeviceSpec,
    cost: CostModel,
    transfer: TransferModel,
    allocations: Vec<Allocation>,
    allocated_bytes: usize,
    ordinal: usize,
}

impl Device {
    /// Creates a device with the default cost and transfer models.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            spec,
            cost: CostModel::default(),
            transfer: TransferModel::default(),
            allocations: Vec::new(),
            allocated_bytes: 0,
            ordinal: 0,
        }
    }

    /// The Tesla C2050 of the paper.
    pub fn tesla_c2050() -> Self {
        Self::new(DeviceSpec::tesla_c2050())
    }

    /// Tags the device with a fleet ordinal (its index among the host's
    /// devices, as `cudaSetDevice` would number them).
    pub fn with_ordinal(mut self, ordinal: usize) -> Self {
        self.ordinal = ordinal;
        self
    }

    /// The device's ordinal among the host's devices (0 outside a fleet).
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// Device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device-side cost model (mutable so benches can run ablations).
    pub fn cost_model_mut(&mut self) -> &mut CostModel {
        &mut self.cost
    }

    /// The device-side cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The PCIe transfer model.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer
    }

    /// Total bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Allocates a zero-initialised buffer of `len` elements whose packed
    /// element width is `elem_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the allocation would exceed the device's global memory.
    pub fn alloc(&mut self, len: usize, elem_bytes: usize, kind: BufferKind) -> DeviceBuffer {
        // Checked before the host buffer is built, which a length beyond the
        // device could not be.
        self.fitting_bytes(len, elem_bytes);
        self.alloc_init(vec![0; len], elem_bytes, kind)
    }

    /// Allocates a buffer and copies `data` into it (the simulator's
    /// `cudaMalloc` + `cudaMemcpy`). The transfer time is *not* charged here;
    /// instance-level matrices are copied once before the exploration starts,
    /// which the paper excludes from the per-iteration cost. Use
    /// [`Device::htod_time`] to price recurring copies.
    pub fn alloc_init(
        &mut self,
        data: Vec<u32>,
        elem_bytes: usize,
        kind: BufferKind,
    ) -> DeviceBuffer {
        let bytes = self.fitting_bytes(data.len(), elem_bytes);
        let id = self.allocations.len();
        let len = data.len();
        self.allocations.push(Allocation {
            data,
            elem_bytes,
            kind,
            space: MemorySpace::Global,
        });
        self.allocated_bytes += bytes;
        DeviceBuffer {
            id,
            len,
            elem_bytes,
        }
    }

    /// The bytes of a `len`-element buffer of `elem_bytes`-byte elements.
    ///
    /// # Panics
    ///
    /// Panics with "device out of memory" if they would not fit beside the
    /// buffers already allocated, including when the count overflows.
    fn fitting_bytes(&self, len: usize, elem_bytes: usize) -> usize {
        let fits = |bytes: &usize| {
            self.allocated_bytes
                .checked_add(*bytes)
                .is_some_and(|total| total <= self.spec.global_memory_bytes)
        };
        len.checked_mul(elem_bytes).filter(fits).unwrap_or_else(|| {
            panic!(
                "device out of memory: {} + {len} × {elem_bytes} bytes exceeds {}",
                self.allocated_bytes, self.spec.global_memory_bytes
            )
        })
    }

    /// Overwrites the contents of an existing buffer (recurring host→device
    /// copy, e.g. the per-iteration pool of sub-problems).
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the buffer.
    pub fn upload(&mut self, buffer: DeviceBuffer, data: &[u32]) {
        let alloc = &mut self.allocations[buffer.id];
        assert!(
            data.len() <= alloc.data.len(),
            "upload of {} elements into a buffer of {}",
            data.len(),
            alloc.data.len()
        );
        alloc.data[..data.len()].copy_from_slice(data);
    }

    /// Overwrites the first `len` elements of an existing buffer by handing
    /// them to `fill` — a recurring host→device copy encoded straight into
    /// the device slot, with no host staging buffer. `fill` gets the slot's
    /// previous contents and must write every element it wants defined.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the buffer length.
    pub fn upload_with(&mut self, buffer: DeviceBuffer, len: usize, fill: impl FnOnce(&mut [u32])) {
        let alloc = &mut self.allocations[buffer.id];
        assert!(
            len <= alloc.data.len(),
            "upload of {len} elements into a buffer of {}",
            alloc.data.len()
        );
        fill(&mut alloc.data[..len]);
    }

    /// Reads a buffer back to the host (`cudaMemcpy` device→host).
    pub fn download(&self, buffer: DeviceBuffer) -> Vec<u32> {
        self.allocations[buffer.id].data.clone()
    }

    /// Borrows the first `len` elements of a buffer (a device→host copy whose
    /// destination the caller owns — avoids cloning the whole allocation when
    /// only a prefix of an output buffer is live).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the buffer length.
    pub fn download_prefix(&self, buffer: DeviceBuffer, len: usize) -> &[u32] {
        &self.allocations[buffer.id].data[..len]
    }

    /// Estimated duration of copying `bytes` host→device (or device→host —
    /// the link is symmetric in this model).
    pub fn htod_time(&self, bytes: usize) -> Duration {
        self.transfer.transfer_time(bytes)
    }

    /// Estimated duration of one bounding iteration's transfers: `up_bytes`
    /// of sub-problems up, `down_bytes` of lower bounds back.
    pub fn round_trip_time(&self, up_bytes: usize, down_bytes: usize) -> Duration {
        self.transfer.round_trip(up_bytes, down_bytes)
    }

    /// A fresh event timeline with the four standard queues of a pipelined
    /// off-load loop (host encoding, H2D copies, kernels, D2H copies).
    /// Operations on different streams overlap unless ordered by an explicit
    /// event dependency — see [`crate::stream`].
    pub fn timeline(&self) -> (crate::stream::Timeline, crate::stream::DeviceStreams) {
        let mut timeline = crate::stream::Timeline::new();
        let streams = crate::stream::DeviceStreams::on(&mut timeline);
        (timeline, streams)
    }

    /// Runs `kernel` over the grid described by `config`, returning the
    /// functional statistics and the timing estimate.
    ///
    /// Each block runs as `ceil(block_threads / warp_size)` warps, the last
    /// one short when the block size is not a multiple of the warp size.
    /// Buffers listed in `config.shared_buffers` are charged shared-memory
    /// latency and count against the shared-memory occupancy limit; the
    /// launch then uses the 48 KB-shared/16 KB-L1 split, otherwise the
    /// 16 KB/48 KB split (Section IV-B of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the device's warp size is 0 or exceeds
    /// [`MAX_LANES`], or if the kernel panics.
    pub fn launch<K: Kernel>(&mut self, kernel: &K, config: &LaunchConfig) -> LaunchResult {
        let warp_size = self.spec.warp_size;
        assert!(
            (1..=MAX_LANES).contains(&warp_size),
            "a warp of {warp_size} lanes does not fit a {MAX_LANES}-bit lane mask"
        );
        let shared_config = self.shared_config_for(config);
        let spaces = self.bind_spaces(config);

        // Functional execution: every warp of every block, sequentially.
        // The allocations are moved (not cloned) into per-buffer execution
        // cells — data plus flat access counters, attributed to memory
        // spaces once after the grid walk — and moved back afterwards; one
        // kernel scratch serves every warp of the launch.
        let mut cells: Vec<BufferCell> = self
            .allocations
            .iter_mut()
            .map(|a| BufferCell {
                data: std::mem::take(&mut a.data),
                ..BufferCell::default()
            })
            .collect();
        let mut scratch = kernel.new_scratch();
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for block in 0..config.grid_blocks {
                let block_start = block * config.block_threads;
                for first in (0..config.block_threads).step_by(warp_size) {
                    let lanes = warp_size.min(config.block_threads - first);
                    let mut warp = WarpCtx::new(block_start + first, lanes, &mut cells);
                    kernel.run(&mut warp, &mut scratch);
                }
            }
        }));
        let tally = AccessTally::from_buffer_cells(&cells, &spaces);
        // Commit writes back to the device allocations — also when a kernel
        // panicked (an out-of-bounds access failing loudly), so the device
        // keeps its buffers (with any writes completed so far, as on real
        // hardware) instead of being left with moved-out empty allocations.
        for (alloc, cell) in self.allocations.iter_mut().zip(cells) {
            alloc.data = cell.data;
        }
        if let Err(payload) = walk {
            std::panic::resume_unwind(payload);
        }
        let stats = self.build_stats(config, tally, shared_config);
        let timing = self.time_stats(&stats, config, shared_config);
        LaunchResult { stats, timing }
    }

    /// Produces the timing estimate of a launch **without executing it**,
    /// from analytically known access counts. Shares the cost function with
    /// [`Device::launch`].
    pub fn launch_analytic(
        &self,
        workload: &AnalyticWorkload,
        config: &LaunchConfig,
    ) -> LaunchResult {
        let shared_config = self.shared_config_for(config);
        let stats = self.build_stats(config, workload.tally, shared_config);
        let timing = self.time_stats(&stats, config, shared_config);
        LaunchResult { stats, timing }
    }

    fn shared_config_for(&self, config: &LaunchConfig) -> SharedMemoryConfig {
        if config.shared_buffers.is_empty() {
            SharedMemoryConfig::PreferL1
        } else {
            SharedMemoryConfig::PreferShared
        }
    }

    fn bind_spaces(&self, config: &LaunchConfig) -> Vec<MemorySpace> {
        let mut spaces: Vec<MemorySpace> = self.allocations.iter().map(|a| a.space).collect();
        for buf in &config.shared_buffers {
            spaces[buf.id] = MemorySpace::Shared;
        }
        spaces
    }

    fn build_stats(
        &self,
        config: &LaunchConfig,
        tally: AccessTally,
        shared_config: SharedMemoryConfig,
    ) -> LaunchStats {
        let shared_bytes = config.shared_bytes_per_block();
        let occ = occupancy(
            &self.spec,
            config.block_threads,
            config.registers_per_thread,
            shared_bytes,
            shared_config,
        );
        // Footprint: instance-level data that stays in global memory.
        let footprint = self
            .allocations
            .iter()
            .enumerate()
            .filter(|(id, a)| {
                a.kind == BufferKind::InstanceData
                    && config.shared_buffers.iter().all(|b| b.id != *id)
            })
            .map(|(_, a)| a.data.len() * a.elem_bytes)
            .sum();
        LaunchStats {
            tally,
            total_threads: config.total_threads(),
            grid_blocks: config.grid_blocks,
            occupancy: occ,
            shared_bytes_per_block: shared_bytes,
            global_footprint_bytes: footprint,
        }
    }

    fn time_stats(
        &self,
        stats: &LaunchStats,
        config: &LaunchConfig,
        shared_config: SharedMemoryConfig,
    ) -> KernelTiming {
        let inputs = KernelCostInputs {
            tally: stats.tally,
            total_threads: stats.total_threads,
            block_threads: config.block_threads,
            grid_blocks: config.grid_blocks,
            occupancy: stats.occupancy,
            global_footprint_bytes: stats.global_footprint_bytes,
            l1_bytes: self.spec.l1_bytes(shared_config),
        };
        KernelTiming::from_cost(kernel_cost(&self.spec, &self.cost, &inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kernel that writes `in[i] * 2` to `out[i]`.
    struct DoubleKernel {
        input: DeviceBuffer,
        output: DeviceBuffer,
        len: usize,
    }

    impl Kernel for DoubleKernel {
        type Scratch = ();
        fn new_scratch(&self) -> Self::Scratch {}
        fn run(&self, warp: &mut WarpCtx<'_>, _scratch: &mut ()) {
            let first = warp.first_thread();
            for i in first..(first + warp.lanes()).min(self.len) {
                let v = warp.read(self.input, i);
                warp.write(self.output, i, v * 2);
            }
        }
        fn name(&self) -> &str {
            "double"
        }
    }

    #[test]
    fn functional_launch_computes_and_times() {
        let mut dev = Device::tesla_c2050();
        let data: Vec<u32> = (0..1000).collect();
        let input = dev.alloc_init(data.clone(), 4, BufferKind::Stream);
        let output = dev.alloc(1000, 4, BufferKind::Stream);
        let kernel = DoubleKernel {
            input,
            output,
            len: 1000,
        };
        let config = LaunchConfig::for_threads(1000, 256);
        let result = dev.launch(&kernel, &config);
        let out = dev.download(output);
        assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u32) * 2));
        assert_eq!(result.stats.tally.global, 1000);
        assert_eq!(result.stats.tally.global_writes, 1000);
        assert!(result.timing.duration > Duration::ZERO);
        assert_eq!(result.stats.grid_blocks, 4);
    }

    #[test]
    fn blocks_run_as_warps_and_broadcasts_charge_every_lane() {
        /// Every lane reads the same table cell; lane 0 writes its warp's
        /// lane count at its own index.
        struct WarpShape {
            table: DeviceBuffer,
            output: DeviceBuffer,
        }
        impl Kernel for WarpShape {
            type Scratch = ();
            fn new_scratch(&self) -> Self::Scratch {}
            fn run(&self, warp: &mut WarpCtx<'_>, _scratch: &mut ()) {
                let every_lane = u32::MAX >> (MAX_LANES - warp.lanes());
                let v = warp.read_broadcast(self.table, 0, every_lane);
                warp.write(self.output, warp.first_thread(), v + warp.lanes() as u32);
            }
        }
        let mut dev = Device::tesla_c2050();
        let table = dev.alloc_init(vec![100], 4, BufferKind::InstanceData);
        let output = dev.alloc(96, 4, BufferKind::Stream);
        let kernel = WarpShape { table, output };
        // Blocks of 48 threads: a full warp, then a short one of 16 lanes.
        let result = dev.launch(&kernel, &LaunchConfig::for_threads(96, 48));
        let warps: Vec<(usize, u32)> = dev
            .download(output)
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(i, &v)| (i, v - 100))
            .collect();
        assert_eq!(warps, vec![(0, 32), (32, 16), (48, 32), (80, 16)]);
        // One fetch per warp, one read charged per thread.
        assert_eq!(result.stats.tally.global, 96);
        assert_eq!(result.stats.tally.global_writes, 4);
    }

    #[test]
    fn shared_binding_changes_the_space_and_occupancy() {
        let mut dev = Device::tesla_c2050();
        let table = dev.alloc_init(vec![7; 8000], 1, BufferKind::InstanceData);
        let output = dev.alloc(256, 4, BufferKind::Stream);

        struct ReadTable {
            table: DeviceBuffer,
            output: DeviceBuffer,
        }
        impl Kernel for ReadTable {
            type Scratch = ();
            fn new_scratch(&self) -> Self::Scratch {}
            fn run(&self, warp: &mut WarpCtx<'_>, _scratch: &mut ()) {
                let first = warp.first_thread();
                for i in first..first + warp.lanes() {
                    let v = warp.read(self.table, i % self.table.len());
                    warp.write(self.output, i % self.output.len(), v);
                }
            }
        }
        let kernel = ReadTable { table, output };

        let global_cfg = LaunchConfig::for_threads(256, 256);
        let shared_cfg = LaunchConfig::for_threads(256, 256).with_shared_buffers(vec![table]);
        let g = dev.launch(&kernel, &global_cfg);
        let s = dev.launch(&kernel, &shared_cfg);
        assert_eq!(g.stats.tally.global, 256);
        assert_eq!(g.stats.tally.shared, 0);
        assert_eq!(s.stats.tally.shared, 256);
        assert_eq!(s.stats.tally.global, 0);
        assert_eq!(s.stats.shared_bytes_per_block, 8000);
        assert!(s.stats.occupancy.blocks_per_sm <= g.stats.occupancy.blocks_per_sm);
        // The staged table no longer counts toward the global footprint.
        assert!(s.stats.global_footprint_bytes < g.stats.global_footprint_bytes);
    }

    #[test]
    fn analytic_launch_matches_functional_timing() {
        let mut dev = Device::tesla_c2050();
        let data: Vec<u32> = (0..4096).collect();
        let input = dev.alloc_init(data, 4, BufferKind::Stream);
        let output = dev.alloc(4096, 4, BufferKind::Stream);
        let kernel = DoubleKernel {
            input,
            output,
            len: 4096,
        };
        let config = LaunchConfig::for_threads(4096, 256);
        let functional = dev.launch(&kernel, &config);
        let analytic = dev.launch_analytic(
            &AnalyticWorkload {
                tally: functional.stats.tally,
                total_threads: 4096,
            },
            &config,
        );
        assert_eq!(
            functional.timing.duration, analytic.timing.duration,
            "functional and analytic paths must share the cost function"
        );
    }

    #[test]
    fn upload_and_download_round_trip() {
        let mut dev = Device::tesla_c2050();
        let buf = dev.alloc(8, 4, BufferKind::Stream);
        dev.upload(buf, &[1, 2, 3]);
        let back = dev.download(buf);
        assert_eq!(&back[..3], &[1, 2, 3]);
        assert_eq!(back.len(), 8);
        // An in-place fill sees the slot and touches only its prefix.
        dev.upload_with(buf, 2, |slot| {
            assert_eq!(slot, &[1, 2]);
            slot.copy_from_slice(&[7, 8]);
        });
        assert_eq!(dev.download_prefix(buf, 4), &[7, 8, 3, 0]);
    }

    #[test]
    fn panicking_kernel_leaves_device_buffers_intact() {
        struct OobKernel {
            buf: DeviceBuffer,
        }
        impl Kernel for OobKernel {
            type Scratch = ();
            fn new_scratch(&self) -> Self::Scratch {}
            fn run(&self, warp: &mut WarpCtx<'_>, _scratch: &mut ()) {
                warp.read(self.buf, usize::MAX); // kernel bug: fails loudly
            }
        }
        let mut dev = Device::tesla_c2050();
        let buf = dev.alloc_init(vec![1, 2, 3], 4, BufferKind::Stream);
        let config = LaunchConfig::for_threads(1, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dev.launch(&OobKernel { buf }, &config)
        }));
        assert!(caught.is_err(), "the out-of-bounds read must panic");
        // The device survives: the buffer still holds its data and accepts
        // new uploads.
        assert_eq!(dev.download(buf), vec![1, 2, 3]);
        dev.upload(buf, &[9, 9, 9]);
        assert_eq!(dev.download(buf), vec![9, 9, 9]);
    }

    #[test]
    fn transfer_times_are_exposed() {
        let dev = Device::tesla_c2050();
        assert!(dev.round_trip_time(1_000_000, 4_000) > dev.htod_time(1_000_000));
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn exceeding_global_memory_panics() {
        let mut dev = Device::new(DeviceSpec::tiny_test_device());
        dev.alloc(100_000_000, 4, BufferKind::Stream);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn a_length_beyond_the_device_panics_before_allocating() {
        // 4 TiB of host zeros would abort the process, not panic.
        Device::tesla_c2050().alloc(1 << 40, 2, BufferKind::Stream);
    }

    #[test]
    #[should_panic(expected = "device out of memory")]
    fn an_overflowing_byte_count_panics() {
        Device::tesla_c2050().alloc(usize::MAX / 2 + 1, 4, BufferKind::Stream);
    }

    #[test]
    fn allocated_bytes_respects_element_width() {
        let mut dev = Device::tesla_c2050();
        dev.alloc(1000, 1, BufferKind::InstanceData);
        assert_eq!(dev.allocated_bytes(), 1000);
        dev.alloc(1000, 4, BufferKind::InstanceData);
        assert_eq!(dev.allocated_bytes(), 5000);
    }
}
