//! The `BoundingBackend` trait: one interface over every way this workspace
//! can bound a batch of sub-problems.
//!
//! The paper's loop hard-wires the GPU engine into the solver; its
//! conclusion, though, compares GPU bounding against serial and multi-core
//! bounding and calls for combining them. This module makes the bounding
//! operator pluggable: **sequential host bounding**, the **multicore thread
//! pool**, the **GPU off-load engine**, its **stream-pipelined** variant and
//! the **multi-device fleet** ([`crate::fleet`]) are five implementations of
//! one trait, selected through [`crate::config::BackendKind`] by the
//! solvers, the auto-tuner and the bench binaries alike. Every
//! implementation returns bit-identical bounds (asserted by the workspace's
//! backend-equivalence suite); what differs is the modelled cost accounting.
//!
//! Adding another backend means implementing [`BoundingBackend`] (bounds in
//! input order plus a [`BackendAccounting`]) and giving it a
//! [`crate::config::BackendKind`] arm in [`make_backend`].

use crate::config::{BackendKind, GpuSolverConfig};
use crate::offload::BoundingEngine;
use crate::placement::MatrixId;
use bb::batch::parent_entries;
use bb::{BatchView, FspNode, FspProblem};
use fsp::bound::counts::AccessCounts;
use fsp::{BoundScratch, Instance, JohnsonLowerBound, Time};
use gpu_sim::HostModel;
use multicore_bnb::{MulticoreModel, ParallelBoundingPool};
use std::sync::Arc;
use std::time::Duration;

/// Modelled cost of bounding one batch, in the same units for every backend
/// so they are directly comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendAccounting {
    /// Modelled compute time (kernel time on the GPU backends, bounding time
    /// on the CPU backends).
    pub kernel_time: Duration,
    /// Modelled PCIe transfer time (zero for the CPU backends).
    pub transfer_time: Duration,
    /// Modelled wall time of the batch: `kernel + transfer` for the
    /// unpipelined backends, the stream-overlapped makespan for the
    /// pipelined one (strictly smaller once a batch spans several chunks).
    pub device_time: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: u64,
    /// Bytes shipped device→host.
    pub download_bytes: u64,
    /// Kernel launches this batch took (chunks for the pipelined backend).
    pub launches: u64,
    /// Device block waves across those launches —
    /// `ceil(grid_blocks / multiprocessors)` per launch, summed. Zero for
    /// the CPU backends.
    pub waves: u64,
    /// Nodes of this batch bounded on a simulated device (zero for the CPU
    /// backends; feeds the off-loading rate).
    pub device_nodes: u64,
    /// Host cycles merging fleet shards back into input order (zero off the
    /// fleet backend).
    pub merge_cycles: u64,
    /// Deterministic pre-launch steal-pass moves this batch (zero off the
    /// fleet backend and whenever stealing is disabled or never fires).
    pub steals: u64,
    /// Nodes those steal moves re-dealt from late members to early ones.
    pub stolen_nodes: u64,
    /// Summed modelled idle time of the *active* fleet members: for every
    /// member that bounded at least one node, the gap between its own
    /// critical path and the slowest member's (the merge-barrier wait).
    /// Zero off the fleet backend; feeds the per-member utilization story.
    pub idle_time: Duration,
}

/// Result of bounding one batch through a [`BoundingBackend`].
#[derive(Debug, Clone)]
pub struct BackendBatch {
    /// Lower bound of every node of the batch, in input order.
    pub bounds: Vec<Time>,
    /// Modelled cost of producing them.
    pub accounting: BackendAccounting,
    /// Modelled duration of every launch (or CPU bounding pass) the batch
    /// took, in schedule order — the per-launch latency histogram's feed.
    pub launch_times: Vec<Duration>,
}

/// A bounding operator over batches of sub-problems.
///
/// A batch is a [`BatchView`]: decomposed parents plus one `(parent, job)`
/// entry per sub-problem to bound, an entry whose job is
/// [`bb::Child::PARENT`] being the parent itself. The search hands a
/// backend the children of the parents it selected without building them;
/// [`BoundingBackend::bound_batch`] and
/// [`BoundingBackend::bound_batch_below`] bound plain nodes through the
/// same method.
///
/// Contract (relied on by the solvers and the equivalence suite):
///
/// * `bounds[i]` is the lower bound of entry `i` — input order, one value
///   per entry;
/// * with `cutoff` [`Time::MAX`] the bounds are the exact Johnson bounds,
///   and exact bounds are **bit-identical across implementations** (they
///   all evaluate the paper's bound; only the cost model differs);
/// * a finite `cutoff` (the incumbent) gives the contract of
///   [`JohnsonLowerBound::bound_children`]: every bound is at most the
///   exact one, equals it when the exact bound is below `cutoff`, and is at
///   least `cutoff` otherwise. An entry the cut-off prunes may get any such
///   value, so two backends agree on exactly the bounds below `cutoff`;
/// * the accounting reads only the entries' depths and never depends on
///   `cutoff`;
/// * an empty batch is a no-op returning empty bounds and zero accounting;
/// * batches up to [`BoundingBackend::max_batch`] entries must be accepted
///   in one call (callers size batches against it).
pub trait BoundingBackend: Send {
    /// Stable name used in reports (matches [`BackendKind::name`] for the
    /// built-in implementations).
    fn name(&self) -> &'static str;

    /// Bounds every entry of `batch`, in order, for a search whose
    /// incumbent is `cutoff` ([`Time::MAX`] when there is none): entries
    /// whose bound reaches it may stop short of their exact bound.
    fn bound_view(&mut self, batch: BatchView<'_>, cutoff: Time) -> BackendBatch;

    /// Bounds every node of `nodes`, in input order, against `cutoff`: the
    /// batch whose every entry is its parent.
    fn bound_batch_below(&mut self, nodes: &[FspNode], cutoff: Time) -> BackendBatch {
        let entries = parent_entries(nodes.len());
        self.bound_view(BatchView::new(nodes, &entries), cutoff)
    }

    /// Bounds every node of `nodes` exactly, in input order.
    fn bound_batch(&mut self, nodes: &[FspNode]) -> BackendBatch {
        self.bound_batch_below(nodes, Time::MAX)
    }

    /// Largest batch this backend accepts in one call (`None` = unbounded).
    fn max_batch(&self) -> Option<usize> {
        None
    }
}

/// Modelled serial access count of bounding `batch` on the host (the Table
/// I figure shared by every CPU-side cost estimate; the solvers charge it
/// for their speedup baselines too).
pub(crate) fn serial_accesses(jobs: usize, machines: usize, batch: BatchView<'_>) -> u64 {
    batch
        .depths()
        .map(|depth| {
            let np = jobs - depth;
            if np == 0 {
                0
            } else {
                AccessCounts::impl_expected(jobs, machines, np).total()
            }
        })
        .sum()
}

/// Nodes one full wave of `engine`'s device bounds: `SMs × block threads`.
pub(crate) fn device_wave(engine: &BoundingEngine) -> usize {
    (engine.device().spec().multiprocessors * engine.block_threads()).max(1)
}

/// The chunk `engine` launches a run of `len` nodes at, when the run was
/// planned in chunks of `planned`. A run below one device wave goes in one
/// launch (capped at the engine capacity): it cannot fill the device, so
/// cutting it busies no more SMs, while every extra launch adds its launch
/// overhead and fixed issue cycles to the serial kernel stream and overlap
/// can hide only the copies. A run of a wave or more launches at `planned`.
/// An explicit [`GpuSolverConfig::pipeline_chunk`] (`chunk_override`) keeps
/// `planned` at every length. The pipelined backend and every fleet GPU
/// member launch through this one rule.
pub(crate) fn wave_chunk_for(
    engine: &BoundingEngine,
    chunk_override: Option<usize>,
    planned: usize,
    len: usize,
) -> usize {
    match chunk_override {
        None if len < device_wave(engine) => len.clamp(1, engine.max_pool()),
        _ => planned,
    }
}

/// Packed byte footprint of the six bound matrices (input to the host cache
/// model).
pub(crate) fn matrix_footprint_bytes(jobs: usize, machines: usize) -> usize {
    MatrixId::ALL
        .iter()
        .map(|m| m.packed_bytes(jobs, machines))
        .sum()
}

/// Sequential host bounding — the serial baseline behind Table II's
/// single-core column, exposed as a backend so it can be driven by the same
/// solver loop and compared launch for launch.
pub struct SequentialBackend {
    lb: Arc<JohnsonLowerBound>,
    scratch: BoundScratch,
    host: HostModel,
    jobs: usize,
    machines: usize,
    footprint_bytes: usize,
}

impl SequentialBackend {
    /// Creates the backend for `problem`'s instance and bound.
    pub fn new(problem: &FspProblem<JohnsonLowerBound>) -> Self {
        let inst = problem.instance();
        Self {
            lb: problem.bound_fn().clone(),
            scratch: BoundScratch::new(),
            host: HostModel::default(),
            jobs: inst.jobs(),
            machines: inst.machines(),
            footprint_bytes: matrix_footprint_bytes(inst.jobs(), inst.machines()),
        }
    }
}

impl BoundingBackend for SequentialBackend {
    fn name(&self) -> &'static str {
        BackendKind::Sequential.name()
    }

    fn bound_view(&mut self, batch: BatchView<'_>, cutoff: Time) -> BackendBatch {
        let mut bounds = vec![0; batch.len()];
        self.lb.bound_children(
            &mut self.scratch,
            batch.parents(),
            batch.children(),
            &mut bounds,
            cutoff,
        );
        let accesses = serial_accesses(self.jobs, self.machines, batch);
        let compute = self
            .host
            .bounding_time(accesses, batch.len() as u64, self.footprint_bytes);
        BackendBatch {
            bounds,
            accounting: BackendAccounting {
                kernel_time: compute,
                transfer_time: Duration::ZERO,
                device_time: compute,
                upload_bytes: 0,
                download_bytes: 0,
                launches: u64::from(!batch.is_empty()),
                waves: 0,
                device_nodes: 0,
                merge_cycles: 0,
                steals: 0,
                stolen_nodes: 0,
                idle_time: Duration::ZERO,
            },
            launch_times: if batch.is_empty() {
                Vec::new()
            } else {
                vec![compute]
            },
        }
    }
}

/// CPU thread-pool bounding over the long-lived
/// [`multicore_bnb::ParallelBoundingPool`] workers; the modelled time scales
/// the serial figure by the calibrated [`MulticoreModel`] speedup.
pub struct MulticoreBackend {
    pool: ParallelBoundingPool,
    inst: Arc<Instance>,
    lb: Arc<JohnsonLowerBound>,
    host: HostModel,
    model: MulticoreModel,
    jobs: usize,
    machines: usize,
    footprint_bytes: usize,
}

impl MulticoreBackend {
    /// Creates the backend with `threads` long-lived workers.
    pub fn new(problem: &FspProblem<JohnsonLowerBound>, threads: usize) -> Self {
        let inst = problem.instance();
        Self {
            pool: ParallelBoundingPool::new(threads),
            inst: inst.clone(),
            lb: problem.bound_fn().clone(),
            host: HostModel::default(),
            model: MulticoreModel::default(),
            jobs: inst.jobs(),
            machines: inst.machines(),
            footprint_bytes: matrix_footprint_bytes(inst.jobs(), inst.machines()),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl BoundingBackend for MulticoreBackend {
    fn name(&self) -> &'static str {
        BackendKind::Multicore.name()
    }

    /// Exact bounds whatever the cut-off: the workers bound their chunks
    /// through [`bb::problem::NodeBound::bound_nodes`], which has none. The
    /// workers take whole nodes, so the batch's entries are built first.
    fn bound_view(&mut self, batch: BatchView<'_>, _cutoff: Time) -> BackendBatch {
        let nodes: Vec<FspNode> = (0..batch.len())
            .map(|i| batch.node(i, &self.inst))
            .collect();
        let bounds = self.pool.bound_batch(&nodes, self.lb.as_ref());
        let accesses = serial_accesses(self.jobs, self.machines, batch);
        let serial = self
            .host
            .bounding_time(accesses, nodes.len() as u64, self.footprint_bytes);
        let speedup = self
            .model
            .speedup(self.pool.threads(), self.footprint_bytes)
            .max(1.0);
        let compute = serial.div_f64(speedup);
        BackendBatch {
            bounds,
            accounting: BackendAccounting {
                kernel_time: compute,
                transfer_time: Duration::ZERO,
                device_time: compute,
                upload_bytes: 0,
                download_bytes: 0,
                launches: u64::from(!batch.is_empty()),
                waves: 0,
                device_nodes: 0,
                merge_cycles: 0,
                steals: 0,
                stolen_nodes: 0,
                idle_time: Duration::ZERO,
            },
            launch_times: if batch.is_empty() {
                Vec::new()
            } else {
                vec![compute]
            },
        }
    }
}

/// The paper's GPU off-load: one launch per batch through
/// [`BoundingEngine`], functional SIMT simulation or fast-forward.
pub struct GpuBackend {
    engine: BoundingEngine,
    host_lb: Arc<JohnsonLowerBound>,
    fast_forward: bool,
}

impl GpuBackend {
    /// Creates the backend with an engine sized for `capacity` nodes.
    pub fn new(
        problem: &FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        capacity: usize,
    ) -> Self {
        Self {
            engine: BoundingEngine::new(
                problem.bound_fn().data(),
                config.placement.clone(),
                config.block_threads,
                config.registers_per_thread,
                capacity,
            ),
            host_lb: problem.bound_fn().clone(),
            fast_forward: config.fast_forward,
        }
    }

    /// The underlying engine (inspection / cost-model ablations).
    pub fn engine_mut(&mut self) -> &mut BoundingEngine {
        &mut self.engine
    }
}

impl BoundingBackend for GpuBackend {
    fn name(&self) -> &'static str {
        BackendKind::Gpu.name()
    }

    /// Fast-forward mode bounds against `cutoff`; the functional kernel is
    /// the paper's and returns exact bounds.
    fn bound_view(&mut self, batch: BatchView<'_>, cutoff: Time) -> BackendBatch {
        let result = if self.fast_forward {
            self.engine.bound_nodes_fast(batch, &self.host_lb, cutoff)
        } else {
            self.engine.bound_nodes(batch)
        };
        let waves = self.engine.device().spec().waves(result.stats.grid_blocks) as u64;
        BackendBatch {
            bounds: result.bounds,
            accounting: BackendAccounting {
                kernel_time: result.kernel.duration,
                transfer_time: result.transfer_time,
                device_time: result.kernel.duration + result.transfer_time,
                upload_bytes: result.upload_bytes as u64,
                download_bytes: result.download_bytes as u64,
                launches: u64::from(!batch.is_empty()),
                waves: if batch.is_empty() { 0 } else { waves },
                device_nodes: batch.len() as u64,
                merge_cycles: 0,
                steals: 0,
                stolen_nodes: 0,
                idle_time: Duration::ZERO,
            },
            launch_times: if batch.is_empty() {
                Vec::new()
            } else {
                vec![result.kernel.duration]
            },
        }
    }

    fn max_batch(&self) -> Option<usize> {
        Some(self.engine.max_pool())
    }
}

/// The pipelined GPU backend: a batch of a device wave or more is split
/// into one-wave chunks ridden through
/// [`BoundingEngine::bound_nodes_pipelined`], so the device time per batch
/// approaches `max(kernel, transfer)` instead of their sum. A batch below
/// one wave is one launch, as on [`GpuBackend`].
///
/// With [`GpuSolverConfig::lookahead`] enabled the backend additionally
/// keeps one persistent [`crate::offload::PipelineSession`] across batches:
/// successive batches share the timeline and the double-buffered device
/// slots, so the pipeline never drains between solver iterations and the
/// per-batch `device_time` becomes the critical-path increment of the
/// session (cross-iteration pipelining).
pub struct PipelinedGpuBackend {
    engine: BoundingEngine,
    host_lb: Arc<JohnsonLowerBound>,
    fast_forward: bool,
    chunk_override: Option<usize>,
    session: Option<crate::offload::PipelineSession>,
}

impl PipelinedGpuBackend {
    /// Creates the backend with an engine sized for `capacity` nodes.
    pub fn new(
        problem: &FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        capacity: usize,
    ) -> Self {
        let engine = BoundingEngine::new(
            problem.bound_fn().data(),
            config.placement.clone(),
            config.block_threads,
            config.registers_per_thread,
            capacity,
        );
        let session = config.lookahead.then(|| engine.pipeline_session());
        Self {
            engine,
            host_lb: problem.bound_fn().clone(),
            fast_forward: config.fast_forward,
            chunk_override: config.pipeline_chunk,
            session,
        }
    }

    /// The cross-iteration session, when the backend was built with
    /// [`GpuSolverConfig::lookahead`] (inspection in tests and reports).
    pub fn session(&self) -> Option<&crate::offload::PipelineSession> {
        self.session.as_ref()
    }

    /// Chunk size for a batch of `len` nodes (see [`wave_chunk_for`]): an
    /// explicit [`GpuSolverConfig::pipeline_chunk`] clamped to the engine
    /// capacity wins; otherwise one device wave, or the whole batch below
    /// one wave.
    fn chunk_for(&self, len: usize) -> usize {
        let planned = self.chunk_override.map_or_else(
            || device_wave(&self.engine),
            |chunk| chunk.clamp(1, self.engine.max_pool()),
        );
        wave_chunk_for(&self.engine, self.chunk_override, planned, len)
    }
}

impl BoundingBackend for PipelinedGpuBackend {
    fn name(&self) -> &'static str {
        BackendKind::GpuPipelined.name()
    }

    /// Fast-forward mode bounds against `cutoff`; the functional kernel is
    /// the paper's and returns exact bounds.
    fn bound_view(&mut self, batch: BatchView<'_>, cutoff: Time) -> BackendBatch {
        if batch.is_empty() {
            return BackendBatch {
                bounds: Vec::new(),
                accounting: BackendAccounting::default(),
                launch_times: Vec::new(),
            };
        }
        let chunk = self.chunk_for(batch.len());
        let host = self.fast_forward.then_some((self.host_lb.as_ref(), cutoff));
        // Cross-iteration mode threads the batch through the persistent
        // session (device_time is then the critical-path increment);
        // otherwise each batch gets a standalone fill-and-drain schedule.
        let result = match &mut self.session {
            Some(session) => self
                .engine
                .bound_nodes_pipelined_in(batch, chunk, host, session),
            None => {
                let result = self.engine.bound_nodes_pipelined(batch, chunk, host);
                crate::offload::PipelinedBatch {
                    bounds: result.bounds,
                    kernel_time: result.kernel_time,
                    transfer_time: result.transfer_time,
                    critical_path: result.overlapped_time,
                    upload_bytes: result.upload_bytes,
                    download_bytes: result.download_bytes,
                    chunks: result.chunks,
                    waves: result.waves,
                    launch_times: result.launch_times,
                }
            }
        };
        BackendBatch {
            bounds: result.bounds,
            accounting: BackendAccounting {
                kernel_time: result.kernel_time,
                transfer_time: result.transfer_time,
                device_time: result.critical_path,
                upload_bytes: result.upload_bytes as u64,
                download_bytes: result.download_bytes as u64,
                launches: result.chunks as u64,
                waves: result.waves,
                device_nodes: batch.len() as u64,
                merge_cycles: 0,
                steals: 0,
                stolen_nodes: 0,
                idle_time: Duration::ZERO,
            },
            launch_times: result.launch_times,
        }
    }

    fn max_batch(&self) -> Option<usize> {
        Some(self.engine.max_pool())
    }
}

/// Builds the backend `config.backend` selects, with the GPU engines sized
/// for batches of up to `capacity` nodes.
pub fn make_backend(
    problem: &FspProblem<JohnsonLowerBound>,
    config: &GpuSolverConfig,
    capacity: usize,
) -> Box<dyn BoundingBackend> {
    match config.backend {
        BackendKind::Sequential => Box::new(SequentialBackend::new(problem)),
        BackendKind::Multicore => {
            Box::new(MulticoreBackend::new(problem, config.multicore_threads))
        }
        BackendKind::Gpu => Box::new(GpuBackend::new(problem, config, capacity)),
        BackendKind::GpuPipelined => Box::new(PipelinedGpuBackend::new(problem, config, capacity)),
        BackendKind::Fleet(topology) => Box::new(crate::fleet::FleetBackend::new(
            problem, config, capacity, topology,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DataPlacement;
    use bb::frozen_pool;
    use fsp::taillard::generate;

    fn fixture(pool: usize) -> (FspProblem<JohnsonLowerBound>, Vec<FspNode>, GpuSolverConfig) {
        let inst = generate("t", 12, 6, 2012);
        let problem = FspProblem::new(inst);
        let nodes = frozen_pool(&problem, pool).nodes;
        let config = GpuSolverConfig {
            pool_size: pool,
            placement: DataPlacement::SharedJmPtm,
            ..Default::default()
        };
        (problem, nodes, config)
    }

    #[test]
    fn all_backends_return_identical_bounds() {
        let (problem, nodes, base) = fixture(96);
        let mut reference: Option<Vec<Time>> = None;
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, nodes.len());
            let batch = backend.bound_batch(&nodes);
            assert_eq!(batch.bounds.len(), nodes.len(), "{kind}");
            match &reference {
                None => reference = Some(batch.bounds),
                Some(expected) => assert_eq!(&batch.bounds, expected, "{kind}"),
            }
        }
    }

    #[test]
    fn backend_names_match_their_kind() {
        let (problem, _, base) = fixture(16);
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let backend = make_backend(&problem, &config, 16);
            assert_eq!(backend.name(), kind.name());
        }
    }

    #[test]
    fn empty_batches_cost_nothing_everywhere() {
        let (problem, _, base) = fixture(16);
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, 16);
            let batch = backend.bound_batch(&[]);
            assert!(batch.bounds.is_empty(), "{kind}");
            assert_eq!(batch.accounting.device_time, Duration::ZERO, "{kind}");
            assert_eq!(batch.accounting.launches, 0, "{kind}");
        }
    }

    #[test]
    fn pipelined_backend_overlaps_and_gpu_backend_does_not() {
        // An explicit chunk cuts the batch into four launches whatever its
        // length (below one wave it would otherwise be one launch).
        let (problem, nodes, base) = fixture(128);
        let gpu = {
            let config = GpuSolverConfig {
                backend: BackendKind::Gpu,
                ..base.clone()
            };
            make_backend(&problem, &config, nodes.len()).bound_batch(&nodes)
        };
        let piped = {
            let config = GpuSolverConfig {
                backend: BackendKind::GpuPipelined,
                pipeline_chunk: Some(nodes.len().div_ceil(4)),
                ..base.clone()
            };
            make_backend(&problem, &config, nodes.len()).bound_batch(&nodes)
        };
        assert_eq!(gpu.bounds, piped.bounds);
        let gpu_acc = gpu.accounting;
        let piped_acc = piped.accounting;
        assert_eq!(
            gpu_acc.device_time,
            gpu_acc.kernel_time + gpu_acc.transfer_time
        );
        assert!(
            piped_acc.device_time < piped_acc.kernel_time + piped_acc.transfer_time,
            "pipelined device time {:?} must beat its own serialized schedule {:?}",
            piped_acc.device_time,
            piped_acc.kernel_time + piped_acc.transfer_time
        );
        assert_eq!(piped_acc.launches, 4);
    }

    #[test]
    fn a_sub_wave_batch_is_one_launch_priced_as_on_the_gpu_backend() {
        // 128 nodes cannot fill one C2050 wave (14 SMs × 256 threads), so
        // the pipelined backend launches them whole: the paper's one launch
        // per pool, with the same bounds and every accounting field equal.
        let (problem, nodes, base) = fixture(128);
        assert!(nodes.len() < 14 * 256);
        for fast_forward in [false, true] {
            let bound = |backend| {
                let config = GpuSolverConfig {
                    backend,
                    fast_forward,
                    ..base.clone()
                };
                make_backend(&problem, &config, nodes.len()).bound_batch(&nodes)
            };
            let gpu = bound(BackendKind::Gpu);
            let piped = bound(BackendKind::GpuPipelined);
            assert_eq!(piped.bounds, gpu.bounds);
            assert_eq!(piped.launch_times, gpu.launch_times);
            let (a, b) = (piped.accounting, gpu.accounting);
            assert_eq!(a.launches, 1);
            assert_eq!(
                (a.kernel_time, a.transfer_time, a.device_time),
                (b.kernel_time, b.transfer_time, b.device_time),
                "fast_forward={fast_forward}"
            );
            assert_eq!(
                (a.upload_bytes, a.download_bytes, a.launches, a.waves),
                (b.upload_bytes, b.download_bytes, b.launches, b.waves)
            );
            assert_eq!(a.device_nodes, b.device_nodes);
        }
    }

    #[test]
    fn lookahead_pipelined_backend_overlaps_across_batches() {
        let (problem, nodes, base) = fixture(128);
        let mk = |lookahead| GpuSolverConfig {
            backend: BackendKind::GpuPipelined,
            lookahead,
            ..base.clone()
        };
        let mut per_batch = make_backend(&problem, &mk(false), 64);
        let mut cross = make_backend(&problem, &mk(true), 64);
        let mut t_per_batch = Duration::ZERO;
        let mut t_cross = Duration::ZERO;
        for half in nodes.chunks(64) {
            let a = per_batch.bound_batch(half);
            let b = cross.bound_batch(half);
            assert_eq!(a.bounds, b.bounds, "bounds must not depend on the session");
            t_per_batch += a.accounting.device_time;
            t_cross += b.accounting.device_time;
        }
        assert!(
            t_cross < t_per_batch,
            "cross-iteration device time {t_cross:?} must beat per-batch {t_per_batch:?}"
        );
    }

    #[test]
    fn explicit_pipeline_chunk_overrides_the_wave_heuristic() {
        let (problem, nodes, base) = fixture(128);
        let config = GpuSolverConfig {
            backend: BackendKind::GpuPipelined,
            pipeline_chunk: Some(10),
            ..base
        };
        let mut backend = make_backend(&problem, &config, nodes.len());
        let batch = backend.bound_batch(&nodes);
        assert_eq!(batch.accounting.launches, nodes.len().div_ceil(10) as u64);
    }

    #[test]
    fn cpu_backends_model_compute_but_no_transfers() {
        let (problem, nodes, base) = fixture(64);
        for kind in [BackendKind::Sequential, BackendKind::Multicore] {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, nodes.len());
            let acc = backend.bound_batch(&nodes).accounting;
            assert!(acc.kernel_time > Duration::ZERO, "{kind}");
            assert_eq!(acc.transfer_time, Duration::ZERO, "{kind}");
            assert_eq!(acc.upload_bytes, 0, "{kind}");
        }
    }

    #[test]
    fn multicore_backend_models_faster_bounding_than_sequential() {
        let (problem, nodes, base) = fixture(64);
        let seq = SequentialBackend::new(&problem).bound_batch(&nodes);
        let mut mc = MulticoreBackend::new(&problem, base.multicore_threads);
        assert_eq!(mc.threads(), base.multicore_threads);
        let par = mc.bound_batch(&nodes);
        assert_eq!(seq.bounds, par.bounds);
        assert!(par.accounting.device_time < seq.accounting.device_time);
    }
}
