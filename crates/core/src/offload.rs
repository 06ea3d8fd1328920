//! The pool off-load engine: encode a pool of sub-problems, ship it to the
//! (simulated) device, run the bounding kernel, and read the lower bounds
//! back (Figure 3 of the paper).

use crate::kernel_lb::LowerBoundKernel;
use crate::placement::{DataPlacement, MatrixId};
use bb::BatchView;
use fsp::bound::counts::AccessCounts;
use fsp::{BoundData, BoundScratch, JohnsonLowerBound, Time};
use gpu_sim::host::BufferKind;
use gpu_sim::{
    AccessTally, AnalyticWorkload, Device, DeviceBuffer, DeviceStreams, KernelTiming, LaunchConfig,
    LaunchStats, Timeline,
};
use std::collections::VecDeque;
use std::time::Duration;

/// Result of bounding one off-loaded pool.
#[derive(Debug, Clone)]
pub struct BoundingResult {
    /// Lower bound of every node of the pool, in input order.
    pub bounds: Vec<Time>,
    /// Kernel-duration estimate (simulated device time).
    pub kernel: KernelTiming,
    /// Functional launch statistics (access tallies, occupancy, footprint).
    pub stats: LaunchStats,
    /// Estimated PCIe time for this iteration (pool up + bounds back).
    pub transfer_time: Duration,
    /// Bytes shipped host→device (packed encoding).
    pub upload_bytes: usize,
    /// Bytes shipped device→host.
    pub download_bytes: usize,
}

impl BoundingResult {
    /// Kernel plus transfer time — the modelled GPU cost of the iteration.
    pub fn device_time(&self) -> Duration {
        self.kernel.duration + self.transfer_time
    }
}

/// Result of bounding one batch through the stream-overlapped pipeline
/// ([`BoundingEngine::bound_nodes_pipelined`]).
///
/// The batch is split into chunks; each chunk's encode, upload, kernel and
/// download are enqueued on four streams with event dependencies, so the
/// modelled wall time (`overlapped_time`, the timeline makespan) approaches
/// `max(kernel, transfer)` per chunk at steady state instead of their sum.
#[derive(Debug, Clone)]
pub struct PipelinedBoundingResult {
    /// Lower bound of every node, in input order.
    pub bounds: Vec<Time>,
    /// Summed kernel time over all chunks (what a serialized schedule pays
    /// in compute).
    pub kernel_time: Duration,
    /// Summed PCIe transfer time over all chunks.
    pub transfer_time: Duration,
    /// Makespan of the overlapped schedule — the modelled wall time of the
    /// whole batch. Strictly less than `kernel_time + transfer_time`
    /// whenever the batch spans more than one chunk.
    pub overlapped_time: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: usize,
    /// Bytes shipped device→host.
    pub download_bytes: usize,
    /// Number of chunks (kernel launches) the batch was split into.
    pub chunks: usize,
    /// Device block waves across those launches
    /// (`ceil(grid_blocks / multiprocessors)` each, summed).
    pub waves: u64,
    /// Modelled duration of every launch, in schedule order.
    pub launch_times: Vec<Duration>,
    /// The event timeline of the schedule (inspectable in tests and
    /// reports).
    pub timeline: Timeline,
}

impl PipelinedBoundingResult {
    /// Kernel + transfer summed — what the same batch costs without
    /// overlap; the gap to [`Self::overlapped_time`] is the pipeline win.
    pub fn serialized_device_time(&self) -> Duration {
        self.kernel_time + self.transfer_time
    }
}

/// Result of bounding one batch inside a long-lived [`PipelineSession`]
/// ([`BoundingEngine::bound_nodes_pipelined_in`]).
///
/// Unlike [`PipelinedBoundingResult`], the modelled wall time here is the
/// **critical-path increment**: how much this batch pushed the session's
/// makespan out. At a pipeline boundary the increment is smaller than the
/// batch's standalone schedule, because its first uploads hide under the
/// previous batch's kernels and downloads — the cross-iteration overlap the
/// paper's per-iteration loop leaves on the table.
#[derive(Debug, Clone)]
pub struct PipelinedBatch {
    /// Lower bound of every node, in input order.
    pub bounds: Vec<Time>,
    /// Summed kernel time over this batch's chunks.
    pub kernel_time: Duration,
    /// Summed PCIe transfer time over this batch's chunks.
    pub transfer_time: Duration,
    /// How much this batch grew the session makespan. Summing the increments
    /// of every batch of a session reproduces the session's final makespan
    /// exactly (the series telescopes).
    pub critical_path: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: usize,
    /// Bytes shipped device→host.
    pub download_bytes: usize,
    /// Number of chunks (kernel launches) the batch was split into.
    pub chunks: usize,
    /// Device block waves across those launches
    /// (`ceil(grid_blocks / multiprocessors)` each, summed).
    pub waves: u64,
    /// Modelled duration of every launch, in schedule order.
    pub launch_times: Vec<Duration>,
}

/// Device bytes of one pool-slot entry: a node's depth or one job of its
/// prefix.
const POOL_ENTRY_BYTES: usize = 2;

/// Device bytes of one output-slot entry: a node's lower bound.
const BOUND_BYTES: usize = 4;

/// Batch tails a [`PipelineSession`] remembers: the one batch in flight plus
/// the batch whose bounds gate the next staging.
const GATED_BATCHES: usize = 2;

/// Persistent cross-iteration pipeline state: one event timeline spanning
/// every batch of a solve, so that the D2H tail of wave *k* and the H2D fill
/// of wave *k+1* genuinely overlap on the modelled schedule instead of the
/// pipeline draining between solver iterations.
///
/// The session owns three pieces of state on top of the [`Timeline`]:
///
/// * the **slot parity** — chunks alternate between the engine's two
///   device-side pool/output buffer slots, and the alternation continues
///   across batches, which is what lets a new batch's uploads start while
///   the previous batch still occupies the other slot;
/// * per-slot **buffer-reuse floors** — an upload into a slot must wait for
///   the kernel that last read it, and a kernel writing a slot's output must
///   wait for the download that last drained it (the WAR hazards real
///   double buffering has);
/// * the **staging gate** — the solver keeps one batch in flight, so the
///   host selects and encodes batch *b* only after the bounds of batch
///   *b − 2* have landed: the first encode of a batch waits for the last
///   D2H completion two batches back.
///
/// Cross-batch dependencies are carried as completion-time floors
/// (equivalent to event dependencies), which lets the session compact the
/// previous batches' events away ([`Timeline::clear_history`]) when a new
/// batch starts: the retained timeline holds only the latest batch's
/// events, so a session spanning millions of nodes stays O(one batch) in
/// memory while its stream heads, makespan and dependency structure remain
/// exact.
///
/// Create one with [`BoundingEngine::pipeline_session`] and feed batches
/// through [`BoundingEngine::bound_nodes_pipelined_in`].
#[derive(Debug, Clone)]
pub struct PipelineSession {
    timeline: Timeline,
    streams: DeviceStreams,
    /// Which of the engine's two pool slots the next chunk uses.
    parity: usize,
    /// Completion of the kernel that last read each pool slot (upload WAR
    /// hazard).
    kernel_end_by_slot: [Option<Duration>; 2],
    /// Completion of the D2H that last drained each output slot (kernel WAR
    /// hazard).
    d2h_end_by_slot: [Option<Duration>; 2],
    /// Completion of the last D2H of the two most recent batches, oldest
    /// first; once full, the front — batch *b − 2* — gates the next batch's
    /// staging.
    batch_tails: VecDeque<Duration>,
    batches: usize,
}

impl PipelineSession {
    /// The event timeline of the session. Stream heads, makespan and the
    /// lifetime operation count span every batch; the retained events cover
    /// the latest batch (older history is compacted away, see
    /// [`Timeline::clear_history`]).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Makespan of everything recorded so far — the modelled wall time of
    /// the whole cross-iteration device schedule.
    pub fn makespan(&self) -> Duration {
        self.timeline.makespan()
    }

    /// Number of batches bounded through this session.
    pub fn batches(&self) -> usize {
        self.batches
    }
}

/// Owns the simulated device, the six matrix buffers and the per-iteration
/// pool/output buffers, and runs the bounding kernel over pools of nodes.
pub struct BoundingEngine {
    device: Device,
    jobs: usize,
    machines: usize,
    num_pairs: usize,
    node_stride: usize,
    max_pool: usize,
    placement: DataPlacement,
    ptm: DeviceBuffer,
    lm: DeviceBuffer,
    jm: DeviceBuffer,
    rm: DeviceBuffer,
    qm: DeviceBuffer,
    mm: DeviceBuffer,
    /// Two device-side pool slots (and matching output slots below): the
    /// pipelined paths alternate slots per chunk, so the upload of chunk
    /// *k+1* targets a buffer the in-flight kernel of chunk *k* is not
    /// reading — classic double buffering, continued across batches by
    /// [`PipelineSession`] so waves of consecutive solver iterations can
    /// overlap too. [`BoundingEngine::bound_nodes`] uses slot 0 only.
    pool_bufs: [DeviceBuffer; 2],
    out_bufs: [DeviceBuffer; 2],
    /// Block size, registers and the placement's shared buffers, built once;
    /// each launch only resizes the grid ([`LaunchConfig::fit_threads`]).
    launch: LaunchConfig,
    /// Per-engine scratch for the host batch bound (fast-forward mode
    /// bounds whole pools without a single allocation).
    scratch: BoundScratch,
}

impl BoundingEngine {
    /// Creates an engine on a Tesla C2050 for the instance described by
    /// `data`, able to bound pools of at most `max_pool` sub-problems.
    pub fn new(
        data: &BoundData,
        placement: DataPlacement,
        block_threads: usize,
        registers_per_thread: usize,
        max_pool: usize,
    ) -> Self {
        Self::on_device(
            Device::tesla_c2050(),
            data,
            placement,
            block_threads,
            registers_per_thread,
            max_pool,
        )
    }

    /// Creates an engine on an explicit device (tests use a tiny device).
    pub fn on_device(
        mut device: Device,
        data: &BoundData,
        placement: DataPlacement,
        block_threads: usize,
        registers_per_thread: usize,
        max_pool: usize,
    ) -> Self {
        assert!(max_pool > 0, "the engine needs a positive pool capacity");
        let n = data.jobs();
        let m = data.machines();
        let pairs = data.num_pairs();

        // Upload the six instance-level matrices once (the paper copies them
        // to the device before the exploration starts).
        let ptm = device.alloc_init(
            data.ptm_raw().to_vec(),
            MatrixId::Ptm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );
        let lm = device.alloc_init(
            data.lm_raw().to_vec(),
            MatrixId::Lm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );
        let jm = device.alloc_init(
            data.jm_raw().to_vec(),
            MatrixId::Jm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );
        let rm = device.alloc_init(
            data.rm_raw().to_vec(),
            MatrixId::Rm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );
        let qm = device.alloc_init(
            data.qm_raw().to_vec(),
            MatrixId::Qm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );
        let mm = device.alloc_init(
            data.mm_raw().to_vec(),
            MatrixId::Mm.packed_elem_bytes(n),
            BufferKind::InstanceData,
        );

        let node_stride = 1 + n;
        let pool_bufs = [
            device.alloc(max_pool * node_stride, POOL_ENTRY_BYTES, BufferKind::Stream),
            device.alloc(max_pool * node_stride, POOL_ENTRY_BYTES, BufferKind::Stream),
        ];
        let out_bufs = [
            device.alloc(max_pool, BOUND_BYTES, BufferKind::Stream),
            device.alloc(max_pool, BOUND_BYTES, BufferKind::Stream),
        ];
        let buffer_of = |matrix| match matrix {
            MatrixId::Ptm => ptm,
            MatrixId::Lm => lm,
            MatrixId::Jm => jm,
            MatrixId::Rm => rm,
            MatrixId::Qm => qm,
            MatrixId::Mm => mm,
        };
        let launch = LaunchConfig::for_threads(max_pool, block_threads)
            .with_registers(registers_per_thread)
            .with_shared_buffers(
                placement
                    .shared_matrices()
                    .iter()
                    .map(|&m| buffer_of(m))
                    .collect(),
            );

        Self {
            device,
            jobs: n,
            machines: m,
            num_pairs: pairs,
            node_stride,
            max_pool,
            placement,
            ptm,
            lm,
            jm,
            rm,
            qm,
            mm,
            pool_bufs,
            out_bufs,
            launch,
            scratch: BoundScratch::new(),
        }
    }

    /// Global-memory bytes an engine for `jobs × machines` instances
    /// allocates at pool capacity `max_pool`: the six packed matrices plus
    /// the two pool slots and the two output slots. `None` when the count
    /// overflows `usize`. The engine fits a device exactly when this is at
    /// most the device's global memory.
    pub fn device_bytes(jobs: usize, machines: usize, max_pool: usize) -> Option<usize> {
        let matrices: usize = MatrixId::ALL
            .iter()
            .map(|id| id.packed_bytes(jobs, machines))
            .sum();
        let per_node = (1 + jobs) * POOL_ENTRY_BYTES + BOUND_BYTES;
        max_pool
            .checked_mul(per_node)?
            .checked_mul(2)?
            .checked_add(matrices)
    }

    /// The data placement this engine was built with.
    pub fn placement(&self) -> &DataPlacement {
        &self.placement
    }

    /// The simulated device (e.g. to inspect or tweak the cost model).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the simulated device (ablation benches).
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Largest pool this engine can bound in one launch.
    pub fn max_pool(&self) -> usize {
        self.max_pool
    }

    /// Threads per block this engine launches with.
    pub fn block_threads(&self) -> usize {
        self.launch.block_threads
    }

    /// Shared-memory bytes per block required by the placement.
    pub fn shared_bytes_per_block(&self) -> usize {
        self.placement.shared_bytes(self.jobs, self.machines)
    }

    /// Packed host→device payload size of `batch` (two bytes per depth
    /// field and per prefix entry, as a CUDA implementation would ship
    /// them).
    pub fn upload_bytes(&self, batch: BatchView<'_>) -> usize {
        batch.depths().map(|depth| (1 + depth) * 2).sum()
    }

    /// Encodes `batch` straight into device pool slot `slot`, in the flat
    /// layout the kernel reads: per entry its depth, then its parent's
    /// prefix followed by its job, then zero padding to the node stride.
    fn encode(&mut self, batch: BatchView<'_>, slot: usize) {
        let stride = self.node_stride;
        self.device
            .upload_with(self.pool_bufs[slot], batch.len() * stride, |flat| {
                for (i, entry) in flat.chunks_exact_mut(stride).enumerate() {
                    let depth = batch.write_prefix(i, &mut entry[1..]);
                    entry[0] = depth as u32;
                    entry[1 + depth..].fill(0);
                }
            });
    }

    fn kernel_on(&self, num_nodes: usize, slot: usize) -> LowerBoundKernel {
        LowerBoundKernel {
            jobs: self.jobs,
            machines: self.machines,
            num_pairs: self.num_pairs,
            num_nodes,
            node_stride: self.node_stride,
            ptm: self.ptm,
            lm: self.lm,
            jm: self.jm,
            rm: self.rm,
            qm: self.qm,
            mm: self.mm,
            pool: self.pool_bufs[slot],
            out: self.out_bufs[slot],
        }
    }

    /// Bounds the entries of `batch` by functionally simulating the kernel
    /// (every warp is executed; results are exact, timing is estimated).
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds the engine's pool capacity.
    pub fn bound_nodes(&mut self, batch: BatchView<'_>) -> BoundingResult {
        assert!(
            batch.len() <= self.max_pool,
            "pool of {} exceeds engine capacity {}",
            batch.len(),
            self.max_pool
        );
        if batch.is_empty() {
            return self.empty_result();
        }
        self.encode(batch, 0);
        self.launch.fit_threads(batch.len());
        let kernel = self.kernel_on(batch.len(), 0);
        let result = self.device.launch(&kernel, &self.launch);
        let bounds = self
            .device
            .download_prefix(self.out_bufs[0], batch.len())
            .to_vec();
        self.finish(batch, bounds, result.timing, result.stats)
    }

    /// Bounds the entries of `batch` in fast-forward mode: the lower bounds
    /// come from the host batch bound
    /// ([`JohnsonLowerBound::bound_children`], against the incumbent
    /// `cutoff`; [`Time::MAX`] for exact bounds) and the kernel timing is
    /// derived from the analytically known access counts — the two paths
    /// share the cost function, so the timing matches
    /// [`BoundingEngine::bound_nodes`] exactly (see the tests below).
    pub fn bound_nodes_fast(
        &mut self,
        batch: BatchView<'_>,
        host_bound: &JohnsonLowerBound,
        cutoff: Time,
    ) -> BoundingResult {
        assert!(
            batch.len() <= self.max_pool,
            "pool of {} exceeds engine capacity {}",
            batch.len(),
            self.max_pool
        );
        if batch.is_empty() {
            return self.empty_result();
        }
        let mut bounds = vec![0; batch.len()];
        host_bound.bound_children(
            &mut self.scratch,
            batch.parents(),
            batch.children(),
            &mut bounds,
            cutoff,
        );
        let workload = AnalyticWorkload {
            tally: self.analytic_tally(batch),
            total_threads: batch.len(),
        };
        self.launch.fit_threads(batch.len());
        let result = self.device.launch_analytic(&workload, &self.launch);
        self.finish(batch, bounds, result.timing, result.stats)
    }

    /// Bounds the entries of `batch` through the double-buffered, stream-overlapped
    /// pipeline: the batch is split into chunks of `chunk_size`, and each
    /// chunk's encode → upload → kernel → download is enqueued on the four
    /// standard streams ([`Device::timeline`]) with event dependencies, so
    /// the next chunk is encoded and uploaded while the previous one is
    /// modelled in flight. Bounds are exact and identical to
    /// [`BoundingEngine::bound_nodes`]; the modelled wall time is the
    /// timeline makespan instead of the serialized sum.
    ///
    /// With `host_bound` supplied — the host batch bound and the incumbent
    /// it bounds against ([`JohnsonLowerBound::bound_children`];
    /// [`Time::MAX`] for exact bounds) — the bounds come from the host and
    /// the kernel
    /// timing is analytic (fast-forward mode): modelled times match the
    /// functional path exactly, and so do the bounds below the cut-off.
    ///
    /// This entry point models a **standalone** batch: the pipeline fills
    /// and drains within the call. To overlap batches of consecutive solver
    /// iterations, run them through one [`PipelineSession`] with
    /// [`BoundingEngine::bound_nodes_pipelined_in`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or exceeds the engine's pool capacity.
    pub fn bound_nodes_pipelined(
        &mut self,
        batch: BatchView<'_>,
        chunk_size: usize,
        host_bound: Option<(&JohnsonLowerBound, Time)>,
    ) -> PipelinedBoundingResult {
        let mut session = self.pipeline_session();
        let piped = self.bound_nodes_pipelined_in(batch, chunk_size, host_bound, &mut session);
        PipelinedBoundingResult {
            bounds: piped.bounds,
            kernel_time: piped.kernel_time,
            transfer_time: piped.transfer_time,
            overlapped_time: piped.critical_path,
            upload_bytes: piped.upload_bytes,
            download_bytes: piped.download_bytes,
            chunks: piped.chunks,
            waves: piped.waves,
            launch_times: piped.launch_times,
            timeline: session.timeline,
        }
    }

    /// Starts a fresh cross-iteration pipeline on this engine's device: an
    /// empty timeline with the four standard streams, slot parity at zero,
    /// one batch in flight at the staging gate.
    pub fn pipeline_session(&self) -> PipelineSession {
        let (timeline, streams) = self.device.timeline();
        PipelineSession {
            timeline,
            streams,
            parity: 0,
            kernel_end_by_slot: [None; 2],
            d2h_end_by_slot: [None; 2],
            batch_tails: VecDeque::with_capacity(GATED_BATCHES),
            batches: 0,
        }
    }

    /// Bounds `batch` as one batch of a long-lived [`PipelineSession`],
    /// continuing the session's timeline, stream heads and slot parity so
    /// that this batch's H2D fill overlaps the previous batch's kernel and
    /// D2H tail on the modelled schedule (cross-iteration overlap).
    ///
    /// The recorded dependencies are exactly the ones a double-buffered CUDA
    /// implementation with a lookahead of one batch would need:
    ///
    /// * the first encode of the batch waits for the last D2H event **two
    ///   batches back** (the host selected this batch right after consuming
    ///   those bounds, while the previous batch was still in flight);
    /// * an upload into a pool slot waits for the kernel that last read it;
    /// * a kernel writing an output slot waits for the D2H that last
    ///   drained it;
    /// * chunk-level H2D → kernel → D2H dependencies and per-stream FIFO
    ///   order, as in the standalone pipeline.
    ///
    /// Bounds are bit-identical to [`BoundingEngine::bound_nodes`], below
    /// the cut-off of `host_bound` in fast-forward mode (see
    /// [`BoundingEngine::bound_nodes_pipelined`]).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or exceeds the engine's pool capacity.
    pub fn bound_nodes_pipelined_in(
        &mut self,
        batch: BatchView<'_>,
        chunk_size: usize,
        host_bound: Option<(&JohnsonLowerBound, Time)>,
        session: &mut PipelineSession,
    ) -> PipelinedBatch {
        assert!(chunk_size > 0, "the pipeline needs a positive chunk size");
        assert!(
            chunk_size <= self.max_pool,
            "chunk of {} exceeds engine capacity {}",
            chunk_size,
            self.max_pool
        );
        let start_makespan = session.timeline.makespan();
        // Fast-forward bounds the whole batch in one host pass; the chunk
        // loop below then only drives the modelled timeline.
        let mut bounds: Vec<Time> = match host_bound {
            Some((lb, cutoff)) => {
                let mut bounds = vec![0; batch.len()];
                lb.bound_children(
                    &mut self.scratch,
                    batch.parents(),
                    batch.children(),
                    &mut bounds,
                    cutoff,
                );
                bounds
            }
            None => Vec::with_capacity(batch.len()),
        };
        let mut kernel_time = Duration::ZERO;
        let mut transfer_time = Duration::ZERO;
        let mut upload_total = 0usize;
        let mut download_total = 0usize;
        let mut waves = 0u64;
        let mut launch_times = Vec::new();

        let chunks: Vec<BatchView<'_>> = batch.chunks(chunk_size).collect();
        let functional = host_bound.is_none();
        // Compact the previous batches' events before recording this one:
        // every cross-batch dependency is carried as a completion-time
        // floor, so the retained window only ever holds the current batch
        // and a session spanning a whole solve stays bounded in memory.
        if !chunks.is_empty() {
            session.timeline.clear_history();
        }
        let timeline = &mut session.timeline;
        let streams = session.streams;

        // Host pool encoding is *not* priced into the modelled device time —
        // neither here nor in the one-launch paths — so the overlapped and
        // serialized figures compare like for like. The encode events are
        // still recorded (zero-duration, on the host stream) because the
        // upload of chunk k must order after its staging; the first encode
        // of the batch additionally waits for the bounds the host consumed
        // before selecting this batch (the staging gate, see
        // [`PipelineSession`]).
        let mut encode_events = Vec::with_capacity(chunks.len());
        if let Some(first) = chunks.first() {
            if functional {
                self.encode(*first, session.parity);
            }
            // The ring holds the tails of the two most recent batches; when
            // full, its front is batch b − 2, whose bounds the host consumed
            // before selecting this batch.
            let gate: &[Duration] = match session.batch_tails.front() {
                Some(end) if session.batch_tails.len() == GATED_BATCHES => {
                    std::slice::from_ref(end)
                }
                _ => &[],
            };
            encode_events.push(timeline.record_after(streams.host, Duration::ZERO, &[], gate));
        }

        let mut last_d2h_end = None;
        for (k, &chunk) in chunks.iter().enumerate() {
            let slot = session.parity;
            session.parity ^= 1;

            // H2D copy of the staged encoding: waits for its encode and for
            // the kernel that last read this pool slot (double buffering
            // means two chunks may be in flight, never three).
            let up_bytes = self.upload_bytes(chunk);
            let up_dur = self.device.htod_time(up_bytes);
            let up_floor = session.kernel_end_by_slot[slot];
            let up_ev = timeline.record_after(
                streams.h2d,
                up_dur,
                &[encode_events[k]],
                up_floor.as_slice(),
            );
            upload_total += up_bytes;
            transfer_time += up_dur;

            // Kernel over the chunk: waits for its upload and for the D2H
            // that last drained this output slot.
            self.launch.fit_threads(chunk.len());
            let launch = if functional {
                let kernel = self.kernel_on(chunk.len(), slot);
                self.device.launch(&kernel, &self.launch)
            } else {
                let workload = AnalyticWorkload {
                    tally: self.analytic_tally(chunk),
                    total_threads: chunk.len(),
                };
                self.device.launch_analytic(&workload, &self.launch)
            };
            let kernel_floor = session.d2h_end_by_slot[slot];
            let kernel_ev = timeline.record_after(
                streams.compute,
                launch.timing.duration,
                &[up_ev],
                kernel_floor.as_slice(),
            );
            session.kernel_end_by_slot[slot] = Some(timeline.completion(kernel_ev));
            kernel_time += launch.timing.duration;
            waves += self.device.spec().waves(self.launch.grid_blocks) as u64;
            launch_times.push(launch.timing.duration);

            // Double buffering: encode chunk k+1 into the other slot while
            // chunk k is modelled in flight (no dependency on the device).
            if let Some(next) = chunks.get(k + 1) {
                if functional {
                    self.encode(*next, session.parity);
                }
                encode_events.push(timeline.record(streams.host, Duration::ZERO, &[]));
            }

            // D2H copy of the chunk's bounds (waits for its kernel).
            let down_bytes = chunk.len() * 4;
            let down_dur = self.device.htod_time(down_bytes);
            let d2h_ev = timeline.record(streams.d2h, down_dur, &[kernel_ev]);
            let d2h_end = timeline.completion(d2h_ev);
            session.d2h_end_by_slot[slot] = Some(d2h_end);
            last_d2h_end = Some(d2h_end);
            download_total += down_bytes;
            transfer_time += down_dur;
            if functional {
                bounds.extend_from_slice(
                    self.device
                        .download_prefix(self.out_bufs[slot], chunk.len()),
                );
            }
        }

        if !chunks.is_empty() {
            if let Some(end) = last_d2h_end {
                session.batch_tails.push_back(end);
                if session.batch_tails.len() > GATED_BATCHES {
                    session.batch_tails.pop_front();
                }
            }
            session.batches += 1;
        }

        PipelinedBatch {
            bounds,
            kernel_time,
            transfer_time,
            critical_path: session.timeline.makespan() - start_makespan,
            upload_bytes: upload_total,
            download_bytes: download_total,
            chunks: chunks.len(),
            waves,
            launch_times,
        }
    }

    /// The exact per-space access tally the kernel produces for `batch`,
    /// computed without executing it (used by fast-forward mode and checked
    /// against the functional tally in tests).
    ///
    /// Every per-node term is affine in the node's depth, so the chunk is
    /// reduced to three sums first — nodes, depths, and unfinished nodes —
    /// and the placement is looked up once per matrix, not once per node.
    pub fn analytic_tally(&self, batch: BatchView<'_>) -> AccessTally {
        let (n, m) = (self.jobs, self.machines);
        let count = batch.len() as u64;
        let (depths, unfinished) = batch.depths().fold((0u64, 0u64), |(d, u), depth| {
            (d + depth as u64, u + u64::from(depth < n))
        });
        // Remaining jobs summed over the chunk (a finished node has none).
        let remaining = count * n as u64 - depths;

        // `impl_expected` is affine in the remaining jobs: a part every
        // unfinished node pays plus a part per remaining job. A finished
        // node reads no matrix.
        let fixed = AccessCounts::impl_expected(n, m, 0);
        let one = AccessCounts::impl_expected(n, m, 1);
        let sum = |read: fn(&AccessCounts) -> u64| {
            unfinished * read(&fixed) + remaining * (read(&one) - read(&fixed))
        };

        let mut tally = AccessTally {
            // Decode: depth word + prefix (always from the streamed pool
            // buffer in global memory), then one output write per node.
            global: count + depths,
            global_writes: count,
            ..AccessTally::default()
        };
        // Front recomputation: depth × m PTM reads per node.
        let front_ptm = depths * m as u64;
        for (matrix, amount) in [
            (MatrixId::Ptm, sum(|c| c.ptm) + front_ptm),
            (MatrixId::Lm, sum(|c| c.lm)),
            (MatrixId::Jm, sum(|c| c.jm)),
            (MatrixId::Rm, sum(|c| c.rm)),
            (MatrixId::Qm, sum(|c| c.qm)),
            (MatrixId::Mm, sum(|c| c.mm)),
        ] {
            if self.placement.is_shared(matrix) {
                tally.shared += amount;
            } else {
                tally.global += amount;
            }
        }
        tally
    }

    fn finish(
        &self,
        batch: BatchView<'_>,
        bounds: Vec<Time>,
        kernel: KernelTiming,
        stats: LaunchStats,
    ) -> BoundingResult {
        let upload_bytes = self.upload_bytes(batch);
        let download_bytes = batch.len() * 4;
        let transfer_time = self.device.round_trip_time(upload_bytes, download_bytes);
        BoundingResult {
            bounds,
            kernel,
            stats,
            transfer_time,
            upload_bytes,
            download_bytes,
        }
    }

    fn empty_result(&self) -> BoundingResult {
        BoundingResult {
            bounds: Vec::new(),
            kernel: KernelTiming::from_cost(gpu_sim::timing::KernelCost {
                compute_seconds: 0.0,
                latency_seconds: 0.0,
                bandwidth_seconds: 0.0,
                overhead_seconds: 0.0,
                l1_hit_rate: 1.0,
                total_seconds: 0.0,
            }),
            stats: LaunchStats {
                tally: AccessTally::default(),
                total_threads: 0,
                grid_blocks: 0,
                occupancy: gpu_sim::occupancy::Occupancy {
                    blocks_per_sm: 0,
                    active_warps_per_sm: 0,
                    limiter: gpu_sim::occupancy::OccupancyLimiter::HardwareLimit,
                },
                shared_bytes_per_block: 0,
                global_footprint_bytes: 0,
            },
            transfer_time: Duration::ZERO,
            upload_bytes: 0,
            download_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb::{frozen_pool, Batch, FspNode, FspProblem};
    use fsp::taillard::generate;
    use fsp::LowerBound;

    fn engine_for(
        inst: &fsp::Instance,
        placement: DataPlacement,
        max_pool: usize,
    ) -> (BoundingEngine, JohnsonLowerBound) {
        let lb = JohnsonLowerBound::new(inst);
        let engine = BoundingEngine::new(lb.data(), placement, 256, 26, max_pool);
        (engine, lb)
    }

    fn some_nodes(inst: &fsp::Instance, how_many: usize) -> Batch {
        let problem = FspProblem::new(inst.clone());
        let frozen = frozen_pool(&problem, how_many);
        Batch::from_nodes(frozen.nodes.into_iter().take(how_many).collect())
    }

    #[test]
    fn gpu_bounds_match_the_host_reference_exactly() {
        let inst = generate("t", 12, 6, 421);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 48);
        let nodes = batch.view();
        let result = engine.bound_nodes(nodes);
        assert_eq!(result.bounds.len(), nodes.len());
        for (node, &gpu_bound) in batch.parents().iter().zip(&result.bounds) {
            let host = lb.bound_prefix_fn(node.front(), |j| node.is_scheduled(j));
            assert_eq!(
                gpu_bound,
                host,
                "mismatch for prefix {:?}",
                node.prefix_vec()
            );
        }
    }

    #[test]
    fn bounds_are_identical_across_placements() {
        let inst = generate("t", 10, 5, 7);
        let batch = some_nodes(&inst, 32);
        let nodes = batch.view();
        let (mut all_global, _) = engine_for(&inst, DataPlacement::AllGlobal, 32);
        let (mut shared, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 32);
        let a = all_global.bound_nodes(nodes);
        let b = shared.bound_nodes(nodes);
        assert_eq!(a.bounds, b.bounds);
    }

    #[test]
    fn functional_tally_matches_the_analytic_model() {
        let inst = generate("t", 11, 5, 99);
        for placement in [DataPlacement::AllGlobal, DataPlacement::SharedJmPtm] {
            let (mut engine, _) = engine_for(&inst, placement, 40);
            let batch = some_nodes(&inst, 40);
            let nodes = batch.view();
            let analytic = engine.analytic_tally(nodes);
            let functional = engine.bound_nodes(nodes).stats.tally;
            assert_eq!(functional, analytic, "placement {:?}", engine.placement());
        }
    }

    #[test]
    fn fast_forward_gives_the_same_bounds_and_timing() {
        let inst = generate("t", 10, 6, 5);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 50);
        let nodes = batch.view();
        let functional = engine.bound_nodes(nodes);
        let fast = engine.bound_nodes_fast(nodes, &lb, Time::MAX);
        assert_eq!(functional.bounds, fast.bounds);
        assert_eq!(functional.kernel.duration, fast.kernel.duration);
        assert_eq!(functional.transfer_time, fast.transfer_time);
    }

    #[test]
    fn complete_schedules_get_their_makespan_back() {
        let inst = generate("t", 6, 4, 33);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 4);
        let perm: Vec<usize> = (0..6).collect();
        let leaf = FspNode::from_prefix(&inst, &perm);
        let result = engine.bound_nodes(Batch::from_nodes(vec![leaf]).view());
        assert_eq!(result.bounds, vec![fsp::makespan(&inst, &perm)]);
    }

    #[test]
    fn shared_placement_moves_traffic_off_global_memory() {
        let inst = generate("t", 12, 6, 3);
        let batch = some_nodes(&inst, 32);
        let nodes = batch.view();
        let (mut g, _) = engine_for(&inst, DataPlacement::AllGlobal, 32);
        let (mut s, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 32);
        let tg = g.bound_nodes(nodes).stats.tally;
        let ts = s.bound_nodes(nodes).stats.tally;
        assert_eq!(tg.shared, 0);
        assert!(ts.shared > 0);
        assert!(ts.global < tg.global);
        assert_eq!(tg.total(), ts.total(), "placement must not change the work");
    }

    #[test]
    fn transfer_accounting_reflects_node_depths() {
        let inst = generate("t", 10, 4, 11);
        let (engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let shallow = FspNode::from_prefix(&inst, &[1]);
        let deep = FspNode::from_prefix(&inst, &[1, 2, 3, 4, 5]);
        let mut batch = Batch::from_nodes(vec![shallow, deep]);
        assert_eq!(engine.upload_bytes(batch.view().slice(0..1)), 4);
        assert_eq!(engine.upload_bytes(batch.view().slice(1..2)), 12);
        assert_eq!(engine.upload_bytes(batch.view()), 16);
        // A child is one entry deeper than its parent: 9 children of depth 2.
        batch.branch(FspNode::from_prefix(&inst, &[0]));
        assert_eq!(engine.upload_bytes(batch.view().slice(2..11)), 9 * 6);
    }

    #[test]
    fn empty_pool_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let result = engine.bound_nodes(Batch::default().view());
        assert!(result.bounds.is_empty());
        assert_eq!(result.kernel.duration, Duration::ZERO);
        assert_eq!(result.transfer_time, Duration::ZERO);
    }

    #[test]
    fn device_bytes_is_what_the_engine_allocates() {
        for (n, m, max_pool) in [(1, 1, 1), (8, 4, 9), (20, 20, 4_116), (65, 9, 300)] {
            let inst = generate("t", n, m, 2);
            let (engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, max_pool);
            assert_eq!(
                BoundingEngine::device_bytes(n, m, max_pool),
                Some(engine.device().allocated_bytes()),
                "{n}x{m}, pool {max_pool}"
            );
        }
        assert_eq!(BoundingEngine::device_bytes(20, 20, usize::MAX / 4), None);
    }

    #[test]
    #[should_panic(expected = "exceeds engine capacity")]
    fn oversized_pool_panics() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 4);
        let nodes: Vec<FspNode> = (0..8).map(|j| FspNode::from_prefix(&inst, &[j])).collect();
        engine.bound_nodes(Batch::from_nodes(nodes).view());
    }

    #[test]
    fn pipelined_bounds_match_the_unpipelined_path() {
        let inst = generate("t", 12, 6, 421);
        let batch = some_nodes(&inst, 60);
        let nodes = batch.view();
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let reference = engine.bound_nodes(nodes).bounds;
        for chunk in [1, 7, 16, 60, 64] {
            let piped = engine.bound_nodes_pipelined(nodes, chunk, None);
            assert_eq!(piped.bounds, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn pipelined_fast_forward_matches_functional_bounds_and_timing() {
        let inst = generate("t", 10, 6, 5);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 48);
        let nodes = batch.view();
        let functional = engine.bound_nodes_pipelined(nodes, 12, None);
        let fast = engine.bound_nodes_pipelined(nodes, 12, Some((&lb, Time::MAX)));
        assert_eq!(functional.bounds, fast.bounds);
        assert_eq!(functional.kernel_time, fast.kernel_time);
        assert_eq!(functional.transfer_time, fast.transfer_time);
        assert_eq!(functional.overlapped_time, fast.overlapped_time);
        assert_eq!(functional.chunks, fast.chunks);
    }

    #[test]
    fn pipelining_beats_the_serialized_schedule() {
        let inst = generate("t", 14, 8, 29);
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 128);
        let batch = some_nodes(&inst, 128);
        let nodes = batch.view();
        let piped = engine.bound_nodes_pipelined(nodes, 32, None);
        assert_eq!(piped.chunks, 4);
        assert!(
            piped.overlapped_time < piped.serialized_device_time(),
            "overlapped {:?} must beat serialized {:?}",
            piped.overlapped_time,
            piped.serialized_device_time()
        );
        // A single chunk cannot overlap anything: the makespan is the full
        // dependency chain.
        let single = engine.bound_nodes_pipelined(nodes, 128, None);
        assert_eq!(single.chunks, 1);
        assert!(single.overlapped_time >= single.serialized_device_time());
    }

    #[test]
    fn pipelined_aggregate_accounting_matches_unpipelined_totals() {
        // Chunking changes the schedule, not the work: summed kernel time,
        // bytes and bounds must match the one-launch path's totals modulo
        // per-launch fixed overhead (each extra launch pays its own overhead
        // and transfer latency, so the sums are at least the one-shot
        // figures).
        let inst = generate("t", 11, 5, 77);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 96);
        let batch = some_nodes(&inst, 96);
        let nodes = batch.view();
        let one = engine.bound_nodes(nodes);
        let piped = engine.bound_nodes_pipelined(nodes, 24, None);
        assert_eq!(piped.upload_bytes, one.upload_bytes);
        assert_eq!(piped.download_bytes, one.download_bytes);
        assert!(piped.kernel_time >= one.kernel.duration);
        assert!(piped.transfer_time >= one.transfer_time);
    }

    #[test]
    fn pipelined_empty_pool_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let result = engine.bound_nodes_pipelined(Batch::default().view(), 4, None);
        assert!(result.bounds.is_empty());
        assert_eq!(result.chunks, 0);
        assert_eq!(result.overlapped_time, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds engine capacity")]
    fn pipelined_oversized_chunk_panics() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 4);
        let batch = some_nodes(&inst, 4);
        let nodes = batch.view();
        engine.bound_nodes_pipelined(nodes, 8, None);
    }

    #[test]
    fn session_bounds_match_and_critical_paths_telescope() {
        let inst = generate("t", 12, 6, 421);
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 60);
        let nodes = batch.view();
        let reference = engine.bound_nodes(nodes).bounds;
        let mut session = engine.pipeline_session();
        let mut summed = Duration::ZERO;
        let mut all_bounds = Vec::new();
        for chunk in nodes.chunks(20) {
            let batch = engine.bound_nodes_pipelined_in(chunk, 7, None, &mut session);
            summed += batch.critical_path;
            all_bounds.extend(batch.bounds);
        }
        assert_eq!(all_bounds, reference, "session bounds must stay exact");
        assert_eq!(
            summed,
            session.makespan(),
            "per-batch critical paths must telescope to the session makespan"
        );
        assert_eq!(session.batches(), 3);
    }

    #[test]
    fn cross_iteration_session_beats_per_batch_pipelines() {
        let inst = generate("t", 14, 8, 29);
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 128);
        let batch = some_nodes(&inst, 128);
        let nodes = batch.view();
        // Per-batch pipelines: every 32-node batch fills and drains its own
        // schedule.
        let mut standalone = Duration::ZERO;
        for batch in nodes.chunks(32) {
            standalone += engine.bound_nodes_pipelined(batch, 8, None).overlapped_time;
        }
        // Cross-iteration: the same batches ride one session, so each
        // batch's fill hides under the previous batch's tail.
        let mut session = engine.pipeline_session();
        for batch in nodes.chunks(32) {
            engine.bound_nodes_pipelined_in(batch, 8, None, &mut session);
        }
        assert!(
            session.makespan() < standalone,
            "cross-iteration schedule {:?} must beat the per-batch sum {:?}",
            session.makespan(),
            standalone
        );
    }

    #[test]
    fn session_memory_stays_bounded_across_batches() {
        // The session compacts the previous batch's events when a new batch
        // starts: the retained window never exceeds one batch (4 events per
        // chunk + the encode chain), while the lifetime count and the
        // makespan keep growing.
        let inst = generate("t", 12, 6, 421);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 60);
        let nodes = batch.view();
        let mut session = engine.pipeline_session();
        let mut last_len = 0;
        for chunk in nodes.chunks(20) {
            engine.bound_nodes_pipelined_in(chunk, 7, Some((&lb, Time::MAX)), &mut session);
            let retained = session.timeline().events().count();
            assert!(
                retained <= 4 * 3 + 1,
                "retained window {retained} must cover one batch only"
            );
            assert!(session.timeline().len() > last_len, "lifetime count grows");
            last_len = session.timeline().len();
        }
        assert_eq!(session.batches(), 3);
    }

    #[test]
    fn session_empty_batch_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let mut session = engine.pipeline_session();
        let empty = Batch::default();
        let batch = engine.bound_nodes_pipelined_in(empty.view(), 4, None, &mut session);
        assert!(batch.bounds.is_empty());
        assert_eq!(batch.chunks, 0);
        assert_eq!(batch.critical_path, Duration::ZERO);
        assert_eq!(session.batches(), 0);
        assert_eq!(session.makespan(), Duration::ZERO);
    }

    #[test]
    fn session_fast_forward_matches_functional_timing() {
        let inst = generate("t", 10, 6, 5);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let batch = some_nodes(&inst, 48);
        let nodes = batch.view();
        let mut functional = engine.pipeline_session();
        let mut fast = engine.pipeline_session();
        for chunk in nodes.chunks(16) {
            engine.bound_nodes_pipelined_in(chunk, 6, None, &mut functional);
        }
        let mut fast_bounds = Vec::new();
        for chunk in nodes.chunks(16) {
            fast_bounds.extend(
                engine
                    .bound_nodes_pipelined_in(chunk, 6, Some((&lb, Time::MAX)), &mut fast)
                    .bounds,
            );
        }
        assert_eq!(fast_bounds, engine.bound_nodes(nodes).bounds);
        assert_eq!(functional.makespan(), fast.makespan());
    }

    #[test]
    fn lower_bound_trait_consistency_via_engine() {
        // The engine's bounds drive pruning exactly like the host bound when
        // accessed through the LowerBound trait on partial schedules.
        let inst = generate("t", 9, 5, 71);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 16);
        let node = FspNode::from_prefix(&inst, &[2, 4]);
        let via_engine = engine
            .bound_nodes(Batch::from_nodes(vec![node]).view())
            .bounds[0];
        let sched = fsp::PartialSchedule::from_prefix(&inst, &[2, 4]);
        assert_eq!(via_engine, lb.bound(&sched));
    }
}
