//! Runtime auto-tuning of the off-load parameters: pool size and pipeline
//! chunk size.
//!
//! The paper concludes that "the pool size that enables to achieve the best
//! acceleration … depends strongly on the size of the problem instance being
//! solved. Therefore, this parameter has to be determined at runtime by
//! testing different pool sizes." This module implements that procedure —
//! freeze a probe pool, run a few bounding iterations for every candidate,
//! pick the best modelled throughput — and extends it to the stream
//! pipeline's **chunk size**: how many nodes ride each kernel launch of the
//! pipelined backend, swept per device spec the same way
//! ([`autotune_pipeline_chunk`]). [`autotune_solver_config`] runs the pool
//! sweep, then the chunk sweep for the backends that read the chunk, and
//! persists the winners into a [`GpuSolverConfig`], which is what
//! `solve_taillard --autotune` and the facade's autotune entry point use.

use crate::backend::make_backend;
use crate::config::{BackendKind, GpuSolverConfig, PAPER_POOL_SIZES};
use crate::offload::BoundingEngine;
use crate::placement::MatrixId;
use bb::{frozen_pool, Batch, FspProblem};
use fsp::{Instance, Time};
use gpu_sim::{DeviceSpec, HostModel};

/// Measurement for one candidate pool size.
#[derive(Debug, Clone, Copy)]
pub struct PoolSizeMeasurement {
    /// The candidate pool size.
    pub pool_size: usize,
    /// Modelled device time per bounded node (seconds).
    pub seconds_per_node: f64,
    /// Modelled speedup over the serial baseline for that iteration.
    pub speedup: f64,
}

/// Result of an auto-tuning session.
#[derive(Debug, Clone)]
pub struct AutotuneReport {
    /// One measurement per candidate, in candidate order.
    pub measurements: Vec<PoolSizeMeasurement>,
    /// The pool size with the lowest modelled time per node.
    pub best_pool_size: usize,
}

/// Auto-tunes the pool size for `inst` by probing each candidate with one
/// bounding iteration over a frozen pool of that size, through whichever
/// backend `base_config.backend` selects (GPU probes run in fast-forward
/// mode, so each costs one host bound evaluation per node).
///
/// `candidates` defaults to the paper's seven pool sizes when empty.
pub fn autotune_pool_size(
    inst: &Instance,
    base_config: &GpuSolverConfig,
    candidates: &[usize],
    probe_budget_nodes: usize,
) -> AutotuneReport {
    let candidates: Vec<usize> = if candidates.is_empty() {
        PAPER_POOL_SIZES.to_vec()
    } else {
        candidates.to_vec()
    };
    let problem = FspProblem::new(inst.clone());
    // Probes are timing estimates; the host reference bound is all they need.
    let probe_config = GpuSolverConfig {
        fast_forward: true,
        ..base_config.clone()
    };
    let host_model = HostModel::default();
    let footprint: usize = MatrixId::ALL
        .iter()
        .map(|m| m.packed_bytes(inst.jobs(), inst.machines()))
        .sum();

    // One probe pool large enough for the biggest candidate (clamped by the
    // probe budget so tuning stays cheap).
    let largest = candidates
        .iter()
        .copied()
        .max()
        .expect("at least one candidate")
        .min(probe_budget_nodes.max(1));
    let frozen = frozen_pool(&problem, largest);

    let mut measurements = Vec::with_capacity(candidates.len());
    for &pool_size in &candidates {
        let take = pool_size.min(frozen.nodes.len()).max(1);
        let chunk = Batch::from_nodes(frozen.nodes.iter().take(take).cloned().collect());
        let mut backend = make_backend(&problem, &probe_config, take);
        let batch = backend.bound_view(chunk.view(), Time::MAX);
        let device_time = batch.accounting.device_time.as_secs_f64();
        let seconds_per_node = device_time / take as f64;

        // Modelled serial time of the same chunk, for the speedup estimate.
        let accesses = crate::backend::serial_accesses(inst.jobs(), inst.machines(), chunk.view());
        let serial = host_model
            .bounding_time(accesses, take as u64, footprint)
            .as_secs_f64();
        let speedup = if device_time > 0.0 {
            serial / device_time
        } else {
            0.0
        };

        measurements.push(PoolSizeMeasurement {
            pool_size,
            seconds_per_node,
            speedup,
        });
    }

    let best_pool_size = measurements
        .iter()
        .min_by(|a, b| a.seconds_per_node.total_cmp(&b.seconds_per_node))
        .map(|m| m.pool_size)
        .expect("at least one measurement");

    AutotuneReport {
        measurements,
        best_pool_size,
    }
}

/// Measurement for one candidate pipeline chunk size.
#[derive(Debug, Clone, Copy)]
pub struct ChunkSizeMeasurement {
    /// The candidate chunk size (nodes per kernel launch of the pipeline).
    pub chunk_size: usize,
    /// Modelled overlapped device time per bounded node (seconds).
    pub seconds_per_node: f64,
    /// Overlapped makespan over the serialized `kernel + transfer` sum of
    /// the same probe — below 1 whenever the pipeline actually overlaps.
    pub overlap_ratio: f64,
    /// Device block waves the probe's launches occupied (deterministic; the
    /// chunking granularity's footprint on the SM schedule).
    pub waves: u64,
}

/// Result of a pipeline-chunk auto-tuning session.
#[derive(Debug, Clone)]
pub struct ChunkAutotuneReport {
    /// One measurement per candidate, in candidate order.
    pub measurements: Vec<ChunkSizeMeasurement>,
    /// The chunk size with the lowest modelled overlapped time per node.
    pub best_chunk_size: usize,
}

/// The default chunk candidates for a device: fractions and multiples of one
/// full device wave (`SMs × block threads`), the quantum at which the cost
/// model (and real hardware) stops paying per-SM block quantization.
fn default_chunk_candidates(spec: &DeviceSpec, block_threads: usize) -> Vec<usize> {
    let wave = (spec.multiprocessors * block_threads).max(1);
    let mut candidates = vec![wave / 4, wave / 2, wave, 2 * wave];
    candidates.retain(|&c| c > 0);
    candidates.dedup();
    candidates
}

/// Auto-tunes the pipeline chunk size for `inst` on the device spec the
/// engine runs (the paper's Tesla C2050): every candidate bounds the same
/// frozen probe pool through the stream-overlapped pipeline in fast-forward
/// mode, and the candidate with the lowest modelled overlapped time per node
/// wins. Persist the winner into [`GpuSolverConfig::pipeline_chunk`] (or use
/// [`autotune_solver_config`], which does) so the pipelined backend picks it
/// up.
///
/// The probe pool is sized to `base_config.pool_size` (capped by
/// `probe_budget_nodes`), i.e. to one batch of the solve the tuning is for —
/// a candidate larger than that batch is measured as the single launch it
/// would actually be, so an oversized chunk can never win on overlap it
/// would not deliver. `candidates` defaults to fractions/multiples of one
/// device wave when empty.
pub fn autotune_pipeline_chunk(
    inst: &Instance,
    base_config: &GpuSolverConfig,
    candidates: &[usize],
    probe_budget_nodes: usize,
) -> ChunkAutotuneReport {
    let problem = FspProblem::new(inst.clone());
    let lb = problem.bound_fn().clone();
    let spec = DeviceSpec::tesla_c2050();

    // One probe pool shared by every candidate, sized to one real batch of
    // the configured solve (capped by the probe budget so tuning stays
    // cheap).
    let target = base_config.pool_size.min(probe_budget_nodes.max(1)).max(1);

    let candidates: Vec<usize> = if candidates.is_empty() {
        let mut c = default_chunk_candidates(&spec, base_config.block_threads);
        // The wave multiples assume device-filling batches; for smaller
        // configured pools also probe the single launch of one real batch.
        c.push(target);
        c.sort_unstable();
        c.dedup();
        c
    } else {
        candidates.to_vec()
    };

    let largest = candidates
        .iter()
        .copied()
        .max()
        .expect("at least one candidate");
    let nodes = Batch::from_nodes(frozen_pool(&problem, target).nodes);
    let capacity = largest.max(nodes.len()).max(1);

    let mut engine = BoundingEngine::new(
        lb.data(),
        base_config.placement.clone(),
        base_config.block_threads,
        base_config.registers_per_thread,
        capacity,
    );

    let mut measurements = Vec::with_capacity(candidates.len());
    for &chunk_size in &candidates {
        let result = engine.bound_nodes_pipelined(nodes.view(), chunk_size, Some((&lb, Time::MAX)));
        let overlapped = result.overlapped_time.as_secs_f64();
        let serialized = result.serialized_device_time().as_secs_f64();
        measurements.push(ChunkSizeMeasurement {
            chunk_size,
            seconds_per_node: overlapped / nodes.len().max(1) as f64,
            overlap_ratio: if serialized > 0.0 {
                overlapped / serialized
            } else {
                1.0
            },
            waves: result.waves,
        });
    }

    let best_chunk_size = measurements
        .iter()
        .min_by(|a, b| a.seconds_per_node.total_cmp(&b.seconds_per_node))
        .map(|m| m.chunk_size)
        .expect("at least one measurement");

    ChunkAutotuneReport {
        measurements,
        best_chunk_size,
    }
}

/// The outcome of [`autotune_solver_config`]: the tuned configuration plus
/// the sweep reports for inspection.
#[derive(Debug, Clone)]
pub struct AutotunedConfig {
    /// `base` with [`GpuSolverConfig::pool_size`] and, when the chunk sweep
    /// ran, [`GpuSolverConfig::pipeline_chunk`] replaced by the sweep
    /// winners.
    pub config: GpuSolverConfig,
    /// The pool-size sweep.
    pub pool: AutotuneReport,
    /// The pipeline-chunk sweep (run at the tuned pool size), or `None` for
    /// a backend that never reads [`GpuSolverConfig::pipeline_chunk`].
    pub chunk: Option<ChunkAutotuneReport>,
}

/// Runs the pool-size sweep, then — for the backends that read
/// [`GpuSolverConfig::pipeline_chunk`]: [`BackendKind::GpuPipelined`], and
/// [`BackendKind::Fleet`], whose deal quantum it is — the pipeline-chunk
/// sweep at the winning pool size, and returns `base` with the winners
/// persisted: the runtime procedure the paper calls for, extended to the
/// pipeline. Other backends keep `base`'s `pipeline_chunk` and bound no
/// chunk probe.
pub fn autotune_solver_config(
    inst: &Instance,
    base: &GpuSolverConfig,
    probe_budget_nodes: usize,
) -> AutotunedConfig {
    let pool = autotune_pool_size(inst, base, &[], probe_budget_nodes);
    let mut config = base.clone();
    config.pool_size = pool.best_pool_size;
    let reads_chunk = matches!(
        base.backend,
        BackendKind::GpuPipelined | BackendKind::Fleet(_)
    );
    let chunk =
        reads_chunk.then(|| autotune_pipeline_chunk(inst, &config, &[], probe_budget_nodes));
    if let Some(chunk) = &chunk {
        config.pipeline_chunk = Some(chunk.best_chunk_size);
    }
    AutotunedConfig {
        config,
        pool,
        chunk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DataPlacement;
    use fsp::taillard::generate;

    fn base() -> GpuSolverConfig {
        GpuSolverConfig {
            placement: DataPlacement::SharedJmPtm,
            fast_forward: true,
            ..Default::default()
        }
    }

    #[test]
    fn autotune_probes_every_candidate() {
        let inst = generate("t", 16, 8, 5);
        let report = autotune_pool_size(&inst, &base(), &[64, 256, 1024], 2_000);
        assert_eq!(report.measurements.len(), 3);
        assert!(report
            .measurements
            .iter()
            .all(|m| m.seconds_per_node > 0.0 && m.speedup > 0.0));
        assert!([64, 256, 1024].contains(&report.best_pool_size));
    }

    #[test]
    fn larger_pools_amortise_fixed_costs_on_wide_instances() {
        // With more blocks the launch overhead and SM under-utilisation are
        // amortised, so the per-node time for the largest probe must not be
        // worse than for the smallest.
        let inst = generate("t", 16, 10, 7);
        let report = autotune_pool_size(&inst, &base(), &[64, 1024], 4_000);
        let small = report.measurements[0].seconds_per_node;
        let large = report.measurements[1].seconds_per_node;
        assert!(large <= small * 1.05, "large {large} vs small {small}");
    }

    #[test]
    fn autotune_probes_through_any_backend() {
        let inst = generate("t", 16, 8, 5);
        for kind in crate::config::BackendKind::ALL {
            let cfg = GpuSolverConfig {
                backend: kind,
                ..base()
            };
            let report = autotune_pool_size(&inst, &cfg, &[32, 128], 500);
            assert_eq!(report.measurements.len(), 2, "{kind}");
            assert!(
                report.measurements.iter().all(|m| m.seconds_per_node > 0.0),
                "{kind}"
            );
        }
    }

    #[test]
    fn empty_candidate_list_uses_paper_sizes() {
        let inst = generate("t", 10, 5, 3);
        let report = autotune_pool_size(&inst, &base(), &[], 500);
        assert_eq!(report.measurements.len(), PAPER_POOL_SIZES.len());
        assert!(PAPER_POOL_SIZES.contains(&report.best_pool_size));
    }

    #[test]
    fn chunk_sweep_probes_every_candidate() {
        let inst = generate("t", 14, 8, 11);
        let report = autotune_pipeline_chunk(&inst, &base(), &[16, 64, 256], 1_000);
        assert_eq!(report.measurements.len(), 3);
        assert!(report
            .measurements
            .iter()
            .all(|m| m.seconds_per_node > 0.0 && m.overlap_ratio > 0.0 && m.waves > 0));
        assert!([16, 64, 256].contains(&report.best_chunk_size));
    }

    #[test]
    fn chunk_sweep_defaults_follow_the_device_wave_and_the_batch() {
        let inst = generate("t", 12, 6, 5);
        let report = autotune_pipeline_chunk(&inst, &base(), &[], 2_000);
        let wave = gpu_sim::DeviceSpec::tesla_c2050().multiprocessors * base().block_threads;
        let swept: Vec<usize> = report.measurements.iter().map(|m| m.chunk_size).collect();
        // Wave-derived candidates plus the one launch of a probe batch (the
        // pool size capped by the budget: 2 000 here).
        let target = base().pool_size.min(2_000);
        for expected in [wave / 4, wave / 2, wave, 2 * wave, target] {
            assert!(swept.contains(&expected), "missing candidate {expected}");
        }
        let mut sorted = swept.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(swept, sorted, "candidates must be sorted and deduped");
        assert!(swept.contains(&report.best_chunk_size));
    }

    #[test]
    fn autotuned_config_persists_both_sweeps() {
        let inst = generate("t", 14, 8, 7);
        let pipelined = GpuSolverConfig {
            backend: BackendKind::GpuPipelined,
            ..base()
        };
        let tuned = autotune_solver_config(&inst, &pipelined, 1_000);
        assert_eq!(tuned.config.pool_size, tuned.pool.best_pool_size);
        let chunk = tuned.chunk.expect("the pipelined backend reads the chunk");
        assert_eq!(tuned.config.pipeline_chunk, Some(chunk.best_chunk_size));
        // Everything else of the base survives the tuning.
        assert_eq!(tuned.config.backend, pipelined.backend);
        assert_eq!(tuned.config.block_threads, pipelined.block_threads);
    }

    #[test]
    fn only_backends_that_read_the_chunk_sweep_it() {
        // `seq`, `multicore` and the one-launch `gpu` keep the given chunk
        // (`None` here) and bound no chunk probe.
        let inst = generate("t", 10, 5, 3);
        for backend in BackendKind::ALL {
            let cfg = GpuSolverConfig { backend, ..base() };
            let tuned = autotune_solver_config(&inst, &cfg, 500);
            let reads_chunk = matches!(backend, BackendKind::GpuPipelined | BackendKind::Fleet(_));
            assert_eq!(tuned.chunk.is_some(), reads_chunk, "{backend}");
            let chunk = tuned.chunk.map(|c| c.best_chunk_size);
            assert_eq!(tuned.config.pipeline_chunk, chunk, "{backend}");
        }
    }
}
