//! The pool off-load engine: encode a pool of sub-problems, ship it to the
//! (simulated) device, run the bounding kernel, and read the lower bounds
//! back (Figure 3 of the paper).

use crate::kernel_lb::LowerBoundKernel;
use crate::placement::{DataPlacement, MatrixId};
use bb::FspNode;
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
/// * the **staging gate** — with a lookahead depth of *d*
///   ([`BoundingEngine::pipeline_session_with_depth`]; the default depth is
///   one), the host selects and encodes batch *b* only after the bounds of
///   batch *b − (d + 1)* have landed, so the first encode of a batch waits
///   for the last D2H completion `d + 1` batches back. The single-threaded
///   solver keeps one batch in flight (depth 1); the hybrid coordinator
///   derives its depth from `workers × in-flight chunks per worker`.
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
    /// Completion of the last D2H of the most recent `depth + 1` batches,
    /// oldest first; once full, the front — batch *b − (depth + 1)* — gates
    /// the next batch's staging.
    batch_tails: VecDeque<Duration>,
    /// The staging-gate lookahead depth (≥ 1).
    depth: usize,
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

    /// The staging-gate lookahead depth this session models.
    pub fn depth(&self) -> usize {
        self.depth
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
    block_threads: usize,
    registers_per_thread: usize,
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
    /// Two reusable host staging buffers for the flat pool encoding,
    /// alternated in lockstep with the device slots so chunk *k+1* is
    /// encoded while chunk *k* is modelled in flight.
    encode_bufs: [Vec<u32>; 2],
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
            device.alloc(max_pool * node_stride, 2, BufferKind::Stream),
            device.alloc(max_pool * node_stride, 2, BufferKind::Stream),
        ];
        let out_bufs = [
            device.alloc(max_pool, 4, BufferKind::Stream),
            device.alloc(max_pool, 4, BufferKind::Stream),
        ];

        Self {
            device,
            jobs: n,
            machines: m,
            num_pairs: pairs,
            node_stride,
            max_pool,
            block_threads,
            registers_per_thread,
            placement,
            ptm,
            lm,
            jm,
            rm,
            qm,
            mm,
            pool_bufs,
            out_bufs,
            encode_bufs: [Vec::new(), Vec::new()],
            scratch: BoundScratch::new(),
        }
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
        self.block_threads
    }

    /// Shared-memory bytes per block required by the placement.
    pub fn shared_bytes_per_block(&self) -> usize {
        self.placement.shared_bytes(self.jobs, self.machines)
    }

    fn buffer_of(&self, matrix: MatrixId) -> DeviceBuffer {
        match matrix {
            MatrixId::Ptm => self.ptm,
            MatrixId::Lm => self.lm,
            MatrixId::Jm => self.jm,
            MatrixId::Rm => self.rm,
            MatrixId::Qm => self.qm,
            MatrixId::Mm => self.mm,
        }
    }

    fn shared_buffers(&self) -> Vec<DeviceBuffer> {
        self.placement
            .shared_matrices()
            .iter()
            .map(|&m| self.buffer_of(m))
            .collect()
    }

    fn launch_config(&self, num_nodes: usize) -> LaunchConfig {
        LaunchConfig::for_threads(num_nodes, self.block_threads)
            .with_registers(self.registers_per_thread)
            .with_shared_buffers(self.shared_buffers())
    }

    /// Packed host→device payload size of `nodes` (two bytes per depth field
    /// and per prefix entry, as a CUDA implementation would ship them).
    pub fn upload_bytes(&self, nodes: &[FspNode]) -> usize {
        nodes.iter().map(|n| (1 + n.depth()) * 2).sum()
    }

    /// Encodes `nodes` into the flat pool layout read by the kernel, staged
    /// in the engine's reusable buffer `slot`.
    fn encode(&mut self, nodes: &[FspNode], slot: usize) {
        let flat = &mut self.encode_bufs[slot];
        flat.clear();
        flat.resize(nodes.len() * self.node_stride, 0);
        for (i, node) in nodes.iter().enumerate() {
            let base = i * self.node_stride;
            flat[base] = node.depth() as u32;
            for (p, &job) in node.prefix_raw().iter().enumerate() {
                flat[base + 1 + p] = job as u32;
            }
        }
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

    /// Bounds `nodes` by functionally simulating the kernel (every warp is
    /// executed; results are exact, timing is estimated).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the engine's pool capacity.
    pub fn bound_nodes(&mut self, nodes: &[FspNode]) -> BoundingResult {
        assert!(
            nodes.len() <= self.max_pool,
            "pool of {} exceeds engine capacity {}",
            nodes.len(),
            self.max_pool
        );
        if nodes.is_empty() {
            return self.empty_result();
        }
        self.encode(nodes, 0);
        self.device.upload(self.pool_bufs[0], &self.encode_bufs[0]);
        let config = self.launch_config(nodes.len());
        let kernel = self.kernel_on(nodes.len(), 0);
        let result = self.device.launch(&kernel, &config);
        let bounds = self
            .device
            .download_prefix(self.out_bufs[0], nodes.len())
            .to_vec();
        self.finish(nodes, bounds, result.timing, result.stats)
    }

    /// Bounds `nodes` in fast-forward mode: the lower bounds come from the
    /// host batch bound ([`JohnsonLowerBound::bound_many`]) and the kernel
    /// timing is derived from the analytically known access counts — the
    /// two paths share the cost function, so the timing matches
    /// [`BoundingEngine::bound_nodes`] exactly (see the tests below).
    pub fn bound_nodes_fast(
        &mut self,
        nodes: &[FspNode],
        host_bound: &JohnsonLowerBound,
    ) -> BoundingResult {
        assert!(
            nodes.len() <= self.max_pool,
            "pool of {} exceeds engine capacity {}",
            nodes.len(),
            self.max_pool
        );
        if nodes.is_empty() {
            return self.empty_result();
        }
        let mut bounds = vec![0; nodes.len()];
        host_bound.bound_many(&mut self.scratch, nodes, &mut bounds);
        let workload = AnalyticWorkload {
            tally: self.analytic_tally(nodes),
            total_threads: nodes.len(),
        };
        let config = self.launch_config(nodes.len());
        let result = self.device.launch_analytic(&workload, &config);
        self.finish(nodes, bounds, result.timing, result.stats)
    }

    /// Bounds `nodes` through the double-buffered, stream-overlapped
    /// pipeline: the batch is split into chunks of `chunk_size`, and each
    /// chunk's encode → upload → kernel → download is enqueued on the four
    /// standard streams ([`Device::timeline`]) with event dependencies, so
    /// the next chunk is encoded and uploaded while the previous one is
    /// modelled in flight. Bounds are exact and identical to
    /// [`BoundingEngine::bound_nodes`]; the modelled wall time is the
    /// timeline makespan instead of the serialized sum.
    ///
    /// With `host_bound` supplied the bounds come from the host batch bound
    /// and the kernel timing is analytic (fast-forward mode) — results and
    /// modelled times match the functional path exactly.
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
        nodes: &[FspNode],
        chunk_size: usize,
        host_bound: Option<&JohnsonLowerBound>,
    ) -> PipelinedBoundingResult {
        let mut session = self.pipeline_session();
        let batch = self.bound_nodes_pipelined_in(nodes, chunk_size, host_bound, &mut session);
        PipelinedBoundingResult {
            bounds: batch.bounds,
            kernel_time: batch.kernel_time,
            transfer_time: batch.transfer_time,
            overlapped_time: batch.critical_path,
            upload_bytes: batch.upload_bytes,
            download_bytes: batch.download_bytes,
            chunks: batch.chunks,
            waves: batch.waves,
            launch_times: batch.launch_times,
            timeline: session.timeline,
        }
    }

    /// Starts a fresh cross-iteration pipeline on this engine's device: an
    /// empty timeline with the four standard streams, slot parity at zero,
    /// staging-gate depth one (one batch in flight).
    pub fn pipeline_session(&self) -> PipelineSession {
        self.pipeline_session_with_depth(1)
    }

    /// Like [`BoundingEngine::pipeline_session`], but with an explicit
    /// staging-gate lookahead depth: the first encode of batch *b* waits for
    /// the last D2H of batch *b − (depth + 1)*. Deeper gates model hosts
    /// that keep several batches in flight at once (the hybrid coordinator
    /// uses `workers × in-flight chunks per worker`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn pipeline_session_with_depth(&self, depth: usize) -> PipelineSession {
        assert!(depth > 0, "the staging gate needs a positive depth");
        let (timeline, streams) = self.device.timeline();
        PipelineSession {
            timeline,
            streams,
            parity: 0,
            kernel_end_by_slot: [None; 2],
            d2h_end_by_slot: [None; 2],
            batch_tails: VecDeque::with_capacity(depth + 1),
            depth,
            batches: 0,
        }
    }

    /// Bounds `nodes` as one batch of a long-lived [`PipelineSession`],
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
    /// Bounds are bit-identical to [`BoundingEngine::bound_nodes`].
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or exceeds the engine's pool capacity.
    pub fn bound_nodes_pipelined_in(
        &mut self,
        nodes: &[FspNode],
        chunk_size: usize,
        host_bound: Option<&JohnsonLowerBound>,
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
            Some(lb) => {
                let mut bounds = vec![0; nodes.len()];
                lb.bound_many(&mut self.scratch, nodes, &mut bounds);
                bounds
            }
            None => Vec::with_capacity(nodes.len()),
        };
        let mut kernel_time = Duration::ZERO;
        let mut transfer_time = Duration::ZERO;
        let mut upload_total = 0usize;
        let mut download_total = 0usize;
        let mut waves = 0u64;
        let mut launch_times = Vec::new();

        let chunks: Vec<&[FspNode]> = nodes.chunks(chunk_size).collect();
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
                self.encode(first, session.parity);
            }
            // The ring holds the tails of the most recent `depth + 1`
            // batches; when full, its front is batch b − (depth + 1), whose
            // bounds the host consumed before selecting this batch.
            let gate: &[Duration] = match session.batch_tails.front() {
                Some(end) if session.batch_tails.len() == session.depth + 1 => {
                    std::slice::from_ref(end)
                }
                _ => &[],
            };
            encode_events.push(timeline.record_after(streams.host, Duration::ZERO, &[], gate));
        }

        let mut last_d2h_end = None;
        for (k, chunk) in chunks.iter().enumerate() {
            let slot = session.parity;
            session.parity ^= 1;

            // H2D copy of the staged encoding: waits for its encode and for
            // the kernel that last read this pool slot (double buffering
            // means two chunks may be in flight, never three).
            let up_bytes = self.upload_bytes(chunk);
            let up_dur = self.device.htod_time(up_bytes);
            if functional {
                self.device
                    .upload(self.pool_bufs[slot], &self.encode_bufs[slot]);
            }
            let mut up_floors: Vec<Duration> = Vec::with_capacity(1);
            if let Some(prev_kernel_end) = session.kernel_end_by_slot[slot] {
                up_floors.push(prev_kernel_end);
            }
            let up_ev = timeline.record_after(streams.h2d, up_dur, &[encode_events[k]], &up_floors);
            upload_total += up_bytes;
            transfer_time += up_dur;

            // Kernel over the chunk: waits for its upload and for the D2H
            // that last drained this output slot.
            let config = self.launch_config(chunk.len());
            let launch = if functional {
                let kernel = self.kernel_on(chunk.len(), slot);
                self.device.launch(&kernel, &config)
            } else {
                let workload = AnalyticWorkload {
                    tally: self.analytic_tally(chunk),
                    total_threads: chunk.len(),
                };
                self.device.launch_analytic(&workload, &config)
            };
            let mut kernel_floors: Vec<Duration> = Vec::with_capacity(1);
            if let Some(prev_d2h_end) = session.d2h_end_by_slot[slot] {
                kernel_floors.push(prev_d2h_end);
            }
            let kernel_ev = timeline.record_after(
                streams.compute,
                launch.timing.duration,
                &[up_ev],
                &kernel_floors,
            );
            session.kernel_end_by_slot[slot] = Some(timeline.completion(kernel_ev));
            kernel_time += launch.timing.duration;
            waves += self.device.spec().waves(config.grid_blocks) as u64;
            launch_times.push(launch.timing.duration);

            // Double buffering: encode chunk k+1 into the other slot while
            // chunk k is modelled in flight (no dependency on the device).
            if let Some(next) = chunks.get(k + 1) {
                if functional {
                    self.encode(next, session.parity);
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
                if session.batch_tails.len() > session.depth + 1 {
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

    /// The exact per-space access tally the kernel produces for `nodes`,
    /// computed without executing it (used by fast-forward mode and checked
    /// against the functional tally in tests).
    pub fn analytic_tally(&self, nodes: &[FspNode]) -> AccessTally {
        let n = self.jobs;
        let m = self.machines;
        let mut tally = AccessTally::default();
        for node in nodes {
            let depth = node.depth();
            let np = n - depth;

            // Decode: depth word + prefix (always from the streamed pool
            // buffer in global memory).
            tally.global += (1 + depth) as u64;
            // Front recomputation: depth × m PTM reads.
            let front_ptm = (depth * m) as u64;
            // Output write.
            tally.global_writes += 1;

            let counts = if np == 0 {
                AccessCounts::default()
            } else {
                AccessCounts::impl_expected(n, m, np)
            };

            let mut add = |matrix: MatrixId, amount: u64| {
                if self.placement.is_shared(matrix) {
                    tally.shared += amount;
                } else {
                    tally.global += amount;
                }
            };
            add(MatrixId::Ptm, counts.ptm + front_ptm);
            add(MatrixId::Lm, counts.lm);
            add(MatrixId::Jm, counts.jm);
            add(MatrixId::Rm, counts.rm);
            add(MatrixId::Qm, counts.qm);
            add(MatrixId::Mm, counts.mm);
        }
        tally
    }

    fn finish(
        &self,
        nodes: &[FspNode],
        bounds: Vec<Time>,
        kernel: KernelTiming,
        stats: LaunchStats,
    ) -> BoundingResult {
        let upload_bytes = self.upload_bytes(nodes);
        let download_bytes = nodes.len() * 4;
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
    use bb::{frozen_pool, FspProblem};
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

    fn some_nodes(inst: &fsp::Instance, how_many: usize) -> Vec<FspNode> {
        let problem = FspProblem::new(inst.clone());
        let frozen = frozen_pool(&problem, how_many);
        frozen.nodes.into_iter().take(how_many).collect()
    }

    #[test]
    fn gpu_bounds_match_the_host_reference_exactly() {
        let inst = generate("t", 12, 6, 421);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let nodes = some_nodes(&inst, 48);
        let result = engine.bound_nodes(&nodes);
        assert_eq!(result.bounds.len(), nodes.len());
        for (node, &gpu_bound) in nodes.iter().zip(&result.bounds) {
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
        let nodes = some_nodes(&inst, 32);
        let (mut all_global, _) = engine_for(&inst, DataPlacement::AllGlobal, 32);
        let (mut shared, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 32);
        let a = all_global.bound_nodes(&nodes);
        let b = shared.bound_nodes(&nodes);
        assert_eq!(a.bounds, b.bounds);
    }

    #[test]
    fn functional_tally_matches_the_analytic_model() {
        let inst = generate("t", 11, 5, 99);
        for placement in [DataPlacement::AllGlobal, DataPlacement::SharedJmPtm] {
            let (mut engine, _) = engine_for(&inst, placement, 40);
            let nodes = some_nodes(&inst, 40);
            let analytic = engine.analytic_tally(&nodes);
            let functional = engine.bound_nodes(&nodes).stats.tally;
            assert_eq!(functional, analytic, "placement {:?}", engine.placement());
        }
    }

    #[test]
    fn fast_forward_gives_the_same_bounds_and_timing() {
        let inst = generate("t", 10, 6, 5);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let nodes = some_nodes(&inst, 50);
        let functional = engine.bound_nodes(&nodes);
        let fast = engine.bound_nodes_fast(&nodes, &lb);
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
        let result = engine.bound_nodes(&[leaf]);
        assert_eq!(result.bounds, vec![fsp::makespan(&inst, &perm)]);
    }

    #[test]
    fn shared_placement_moves_traffic_off_global_memory() {
        let inst = generate("t", 12, 6, 3);
        let nodes = some_nodes(&inst, 32);
        let (mut g, _) = engine_for(&inst, DataPlacement::AllGlobal, 32);
        let (mut s, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 32);
        let tg = g.bound_nodes(&nodes).stats.tally;
        let ts = s.bound_nodes(&nodes).stats.tally;
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
        assert_eq!(engine.upload_bytes(std::slice::from_ref(&shallow)), 4);
        assert_eq!(engine.upload_bytes(std::slice::from_ref(&deep)), 12);
        assert_eq!(engine.upload_bytes(&[shallow, deep]), 16);
    }

    #[test]
    fn empty_pool_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let result = engine.bound_nodes(&[]);
        assert!(result.bounds.is_empty());
        assert_eq!(result.kernel.duration, Duration::ZERO);
        assert_eq!(result.transfer_time, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds engine capacity")]
    fn oversized_pool_panics() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 4);
        let nodes: Vec<FspNode> = (0..8).map(|j| FspNode::from_prefix(&inst, &[j])).collect();
        engine.bound_nodes(&nodes);
    }

    #[test]
    fn pipelined_bounds_match_the_unpipelined_path() {
        let inst = generate("t", 12, 6, 421);
        let nodes = some_nodes(&inst, 60);
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let reference = engine.bound_nodes(&nodes).bounds;
        for chunk in [1, 7, 16, 60, 64] {
            let piped = engine.bound_nodes_pipelined(&nodes, chunk, None);
            assert_eq!(piped.bounds, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn pipelined_fast_forward_matches_functional_bounds_and_timing() {
        let inst = generate("t", 10, 6, 5);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let nodes = some_nodes(&inst, 48);
        let functional = engine.bound_nodes_pipelined(&nodes, 12, None);
        let fast = engine.bound_nodes_pipelined(&nodes, 12, Some(&lb));
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
        let nodes = some_nodes(&inst, 128);
        let piped = engine.bound_nodes_pipelined(&nodes, 32, None);
        assert_eq!(piped.chunks, 4);
        assert!(
            piped.overlapped_time < piped.serialized_device_time(),
            "overlapped {:?} must beat serialized {:?}",
            piped.overlapped_time,
            piped.serialized_device_time()
        );
        // A single chunk cannot overlap anything: the makespan is the full
        // dependency chain.
        let single = engine.bound_nodes_pipelined(&nodes, 128, None);
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
        let nodes = some_nodes(&inst, 96);
        let one = engine.bound_nodes(&nodes);
        let piped = engine.bound_nodes_pipelined(&nodes, 24, None);
        assert_eq!(piped.upload_bytes, one.upload_bytes);
        assert_eq!(piped.download_bytes, one.download_bytes);
        assert!(piped.kernel_time >= one.kernel.duration);
        assert!(piped.transfer_time >= one.transfer_time);
    }

    #[test]
    fn pipelined_empty_pool_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let result = engine.bound_nodes_pipelined(&[], 4, None);
        assert!(result.bounds.is_empty());
        assert_eq!(result.chunks, 0);
        assert_eq!(result.overlapped_time, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds engine capacity")]
    fn pipelined_oversized_chunk_panics() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 4);
        let nodes = some_nodes(&inst, 4);
        engine.bound_nodes_pipelined(&nodes, 8, None);
    }

    #[test]
    fn session_bounds_match_and_critical_paths_telescope() {
        let inst = generate("t", 12, 6, 421);
        let (mut engine, _) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let nodes = some_nodes(&inst, 60);
        let reference = engine.bound_nodes(&nodes).bounds;
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
        let nodes = some_nodes(&inst, 128);
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
        let nodes = some_nodes(&inst, 60);
        let mut session = engine.pipeline_session();
        let mut last_len = 0;
        for chunk in nodes.chunks(20) {
            engine.bound_nodes_pipelined_in(chunk, 7, Some(&lb), &mut session);
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
    fn deeper_staging_gates_never_lengthen_the_schedule() {
        // A depth-d gate makes batch b wait for the bounds of batch
        // b − (d + 1); a deeper gate is a weaker constraint, so the session
        // makespan is monotonically non-increasing in the depth, and the
        // default session is exactly the depth-1 session.
        let inst = generate("t", 12, 6, 421);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 64);
        let nodes = some_nodes(&inst, 60);
        let run = |engine: &mut BoundingEngine, mut session: PipelineSession| {
            let mut bounds = Vec::new();
            for chunk in nodes.chunks(10) {
                bounds.extend(
                    engine
                        .bound_nodes_pipelined_in(chunk, 5, Some(&lb), &mut session)
                        .bounds,
                );
            }
            (session.makespan(), bounds)
        };
        let default_session = engine.pipeline_session();
        assert_eq!(default_session.depth(), 1);
        let (default_makespan, reference) = run(&mut engine, default_session);
        let mut last = None;
        for depth in [1, 2, 4, 16] {
            let session = engine.pipeline_session_with_depth(depth);
            let (makespan, bounds) = run(&mut engine, session);
            assert_eq!(bounds, reference, "depth {depth} must not change bounds");
            if depth == 1 {
                assert_eq!(makespan, default_makespan);
            }
            if let Some(prev) = last {
                assert!(makespan <= prev, "depth {depth} lengthened the schedule");
            }
            last = Some(makespan);
        }
    }

    #[test]
    #[should_panic(expected = "positive depth")]
    fn zero_depth_session_panics() {
        let inst = generate("t", 8, 4, 2);
        let (engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        engine.pipeline_session_with_depth(0);
    }

    #[test]
    fn session_empty_batch_is_a_no_op() {
        let inst = generate("t", 8, 4, 2);
        let (mut engine, _) = engine_for(&inst, DataPlacement::AllGlobal, 8);
        let mut session = engine.pipeline_session();
        let batch = engine.bound_nodes_pipelined_in(&[], 4, None, &mut session);
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
        let nodes = some_nodes(&inst, 48);
        let mut functional = engine.pipeline_session();
        let mut fast = engine.pipeline_session();
        for chunk in nodes.chunks(16) {
            engine.bound_nodes_pipelined_in(chunk, 6, None, &mut functional);
        }
        let mut fast_bounds = Vec::new();
        for chunk in nodes.chunks(16) {
            fast_bounds.extend(
                engine
                    .bound_nodes_pipelined_in(chunk, 6, Some(&lb), &mut fast)
                    .bounds,
            );
        }
        assert_eq!(fast_bounds, engine.bound_nodes(&nodes).bounds);
        assert_eq!(functional.makespan(), fast.makespan());
    }

    #[test]
    fn lower_bound_trait_consistency_via_engine() {
        // The engine's bounds drive pruning exactly like the host bound when
        // accessed through the LowerBound trait on partial schedules.
        let inst = generate("t", 9, 5, 71);
        let (mut engine, lb) = engine_for(&inst, DataPlacement::SharedJmPtm, 16);
        let node = FspNode::from_prefix(&inst, &[2, 4]);
        let via_engine = engine.bound_nodes(std::slice::from_ref(&node)).bounds[0];
        let sched = fsp::PartialSchedule::from_prefix(&inst, &[2, 4]);
        assert_eq!(via_engine, lb.bound(&sched));
    }
}
