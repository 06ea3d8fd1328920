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
//! ([`autotune_pipeline_chunk`]). [`autotune_solver_config`] runs both
//! sweeps and persists the winners into a [`GpuSolverConfig`], which is what
//! `solve_taillard --autotune` and the facade's autotune entry point use.

use crate::backend::make_backend;
use crate::config::{GpuSolverConfig, PAPER_POOL_SIZES};
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
        // configured pools also probe the pipeline-depth split and the
        // single launch of one real batch.
        c.push(target.div_ceil(base_config.pipeline_depth.max(1)).max(1));
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

/// The device counts [`autotune_fleet`] sweeps when none are given.
pub const DEFAULT_FLEET_DEVICE_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

/// The `(hetero, stealing)` modes of `config`'s fleet, or `(false, false)`
/// when the configured backend is not a fleet.
fn fleet_modes(config: &GpuSolverConfig) -> (bool, bool) {
    match config.backend {
        crate::config::BackendKind::Fleet(topology) => {
            (topology.is_hetero(), topology.is_stealing())
        }
        _ => (false, false),
    }
}

/// A fleet backend of `devices` members with the given modes (the sweeps
/// re-assemble candidate shapes from the base config's modes).
fn fleet_kind(
    devices: usize,
    pipelined: bool,
    hetero: bool,
    stealing: bool,
) -> crate::config::BackendKind {
    let mut topology = crate::config::FleetTopology::uniform(devices);
    if !pipelined {
        topology = topology.one_launch();
    }
    if hetero {
        topology = topology.mixed();
    }
    if stealing {
        topology = topology.stealing();
    }
    crate::config::BackendKind::Fleet(topology)
}

/// Measurement for one `(devices, chunk)` fleet candidate.
#[derive(Debug, Clone, Copy)]
pub struct FleetMeasurement {
    /// Number of simulated devices of the candidate.
    pub devices: usize,
    /// Per-device pipeline chunk size of the candidate.
    pub chunk_size: usize,
    /// Modelled fleet device time (max over devices + merge) per bounded
    /// node (seconds).
    pub seconds_per_node: f64,
    /// Fleet time over the single-device time at the same chunk size —
    /// below 1 whenever adding devices actually helps.
    pub scaling_ratio: f64,
}

/// Result of a joint fleet auto-tuning session.
#[derive(Debug, Clone)]
pub struct FleetAutotuneReport {
    /// One measurement per `(devices, chunk)` candidate, devices-major.
    pub measurements: Vec<FleetMeasurement>,
    /// Device count of the fastest candidate (ties prefer fewer devices).
    pub best_devices: usize,
    /// Chunk size of the fastest candidate.
    pub best_chunk_size: usize,
}

/// Auto-tunes the fleet shape for `inst`: sweeps the device count and the
/// per-device pipeline chunk size **jointly** (the best chunk depends on how
/// much of a batch each device sees), bounding the same frozen probe pool
/// through a pipelined [`crate::fleet::FleetBackend`] in fast-forward mode
/// for every candidate pair. The winner is the pair with the lowest modelled
/// fleet time per node; ties prefer fewer devices, then smaller chunks (no
/// point spinning up cards the model says are free).
///
/// `device_candidates` defaults to [`DEFAULT_FLEET_DEVICE_CANDIDATES`] and
/// `chunk_candidates` to the same wave/batch-derived set as
/// [`autotune_pipeline_chunk`] when empty. Persist the winners with
/// [`autotune_fleet_config`].
pub fn autotune_fleet(
    inst: &Instance,
    base_config: &GpuSolverConfig,
    device_candidates: &[usize],
    chunk_candidates: &[usize],
    probe_budget_nodes: usize,
) -> FleetAutotuneReport {
    let problem = FspProblem::new(inst.clone());
    let spec = DeviceSpec::tesla_c2050();
    let target = base_config.pool_size.min(probe_budget_nodes.max(1)).max(1);

    let device_candidates: Vec<usize> = if device_candidates.is_empty() {
        DEFAULT_FLEET_DEVICE_CANDIDATES.to_vec()
    } else {
        device_candidates.to_vec()
    };
    let chunk_candidates: Vec<usize> = if chunk_candidates.is_empty() {
        let mut c = default_chunk_candidates(&spec, base_config.block_threads);
        c.push(target.div_ceil(base_config.pipeline_depth.max(1)).max(1));
        c.push(target);
        c.sort_unstable();
        c.dedup();
        c
    } else {
        chunk_candidates.to_vec()
    };

    let frozen = frozen_pool(&problem, target);
    let nodes = &frozen.nodes;
    let len = nodes.len().max(1);

    // Heterogeneity and stealing are orthogonal to the shape sweep: keep
    // whatever the base fleet (if any) uses.
    let (hetero, stealing) = fleet_modes(base_config);

    // Per-candidate probe: one bound_batch through a fresh fleet backend
    // (per-batch pipelines; no session state leaks between candidates).
    let probe = |devices: usize, chunk: usize| -> f64 {
        let config = GpuSolverConfig {
            backend: fleet_kind(devices, true, hetero, stealing),
            pipeline_chunk: Some(chunk),
            fast_forward: true,
            lookahead: false,
            ..base_config.clone()
        };
        let mut backend = make_backend(&problem, &config, len);
        backend
            .bound_batch(nodes)
            .accounting
            .device_time
            .as_secs_f64()
    };

    // The single-device figure is the scaling baseline of every row with the
    // same chunk — probe it once per chunk, not once per (devices, chunk).
    let mut single_by_chunk: std::collections::HashMap<usize, f64> =
        std::collections::HashMap::new();
    let mut measurements = Vec::with_capacity(device_candidates.len() * chunk_candidates.len());
    for &devices in &device_candidates {
        for &chunk in &chunk_candidates {
            let single_time = *single_by_chunk
                .entry(chunk)
                .or_insert_with(|| probe(1, chunk));
            let fleet_time = if devices == 1 {
                single_time
            } else {
                probe(devices, chunk)
            };
            measurements.push(FleetMeasurement {
                devices,
                chunk_size: chunk,
                seconds_per_node: fleet_time / len as f64,
                scaling_ratio: if single_time > 0.0 {
                    fleet_time / single_time
                } else {
                    1.0
                },
            });
        }
    }

    let best = measurements
        .iter()
        .min_by(|a, b| {
            a.seconds_per_node
                .total_cmp(&b.seconds_per_node)
                .then(a.devices.cmp(&b.devices))
                .then(a.chunk_size.cmp(&b.chunk_size))
        })
        .expect("at least one candidate pair");

    FleetAutotuneReport {
        best_devices: best.devices,
        best_chunk_size: best.chunk_size,
        measurements,
    }
}

/// Measurement for one fleet weight-vector candidate.
#[derive(Debug, Clone)]
pub struct WeightMeasurement {
    /// The candidate weights, normalized to shares summing to 1; `None` is
    /// the spec-derived baseline ([`crate::fleet::member_models`]).
    pub weights: Option<Vec<f64>>,
    /// Modelled fleet device time per bounded node (seconds).
    pub seconds_per_node: f64,
}

/// Result of a fleet weight auto-tuning session.
#[derive(Debug, Clone)]
pub struct WeightAutotuneReport {
    /// The spec-derived baseline first, then one measurement per candidate.
    pub measurements: Vec<WeightMeasurement>,
    /// The winning weights for [`GpuSolverConfig::fleet_weights`]; `None`
    /// when the spec-derived baseline was not beaten (ties keep it).
    pub best_weights: Option<Vec<f64>>,
}

/// The default weight candidates for a fleet of `models`: the uniform deal,
/// plus the spec-derived ratios compressed (square root) and exaggerated
/// (squared) — a small bracket around the model's own guess, in case the
/// workload rewards flatter or steeper deals than the kernel-only model
/// predicts.
fn default_weight_candidates(models: &[crate::fleet::MemberModel]) -> Vec<Vec<f64>> {
    let spec: Vec<f64> = models.iter().map(|m| m.weight).collect();
    let max = spec.iter().cloned().fold(f64::MIN, f64::max).max(1e-30);
    let scaled: Vec<f64> = spec.iter().map(|w| w / max).collect();
    vec![
        vec![1.0; models.len()],
        scaled.iter().map(|w| w.sqrt()).collect(),
        scaled.iter().map(|w| w * w).collect(),
    ]
}

/// Auto-tunes the fleet's deal weights for `inst`: probes the spec-derived
/// baseline and every candidate weight vector by bounding the same frozen
/// pool through the fleet `base_config.backend` describes (or a default
/// 2-device fleet when it is not a fleet) with
/// [`GpuSolverConfig::fleet_weights`] overridden, and keeps the vector with
/// the lowest modelled fleet time per node. Ties keep the spec-derived
/// baseline — learned weights must earn their place. `candidates` defaults
/// to a bracket around the model's own ratios when empty. Persist the winner
/// with [`autotune_fleet_config`], which runs this sweep after the shape
/// sweep.
pub fn autotune_fleet_weights(
    inst: &Instance,
    base_config: &GpuSolverConfig,
    candidates: &[Vec<f64>],
    probe_budget_nodes: usize,
) -> WeightAutotuneReport {
    let problem = FspProblem::new(inst.clone());
    let target = base_config.pool_size.min(probe_budget_nodes.max(1)).max(1);
    let (devices, pipelined) = match base_config.backend {
        crate::config::BackendKind::Fleet(topology) => (topology.devices, topology.is_pipelined()),
        _ => (crate::config::DEFAULT_FLEET_DEVICES, true),
    };
    let (hetero, stealing) = fleet_modes(base_config);
    let specs = crate::fleet::fleet_member_specs(devices, hetero);
    let models = crate::fleet::member_models(&specs, base_config, inst.jobs(), inst.machines());

    let candidates: Vec<Vec<f64>> = if candidates.is_empty() {
        default_weight_candidates(&models)
    } else {
        candidates.to_vec()
    };

    let frozen = frozen_pool(&problem, target);
    let nodes = &frozen.nodes;
    let len = nodes.len().max(1);

    let probe = |weights: Option<Vec<f64>>| -> f64 {
        let config = GpuSolverConfig {
            backend: fleet_kind(devices, pipelined, hetero, stealing),
            fleet_weights: weights,
            fast_forward: true,
            lookahead: false,
            ..base_config.clone()
        };
        let mut backend = make_backend(&problem, &config, len);
        backend
            .bound_batch(nodes)
            .accounting
            .device_time
            .as_secs_f64()
    };

    let normalize = |w: &[f64]| -> Vec<f64> {
        let sum: f64 = w.iter().sum();
        w.iter().map(|v| v / sum.max(1e-30)).collect()
    };

    let mut measurements = vec![WeightMeasurement {
        weights: None,
        seconds_per_node: probe(None) / len as f64,
    }];
    for candidate in &candidates {
        assert_eq!(
            candidate.len(),
            devices,
            "weight candidate must have one weight per member"
        );
        measurements.push(WeightMeasurement {
            weights: Some(normalize(candidate)),
            seconds_per_node: probe(Some(candidate.clone())) / len as f64,
        });
    }

    // Strict `<` so the spec-derived baseline (first) survives ties.
    let mut best = 0;
    for (i, m) in measurements.iter().enumerate() {
        if m.seconds_per_node < measurements[best].seconds_per_node {
            best = i;
        }
    }
    WeightAutotuneReport {
        best_weights: measurements[best].weights.clone(),
        measurements,
    }
}

/// The outcome of [`autotune_fleet_config`]: the tuned configuration plus
/// the sweep reports for inspection.
#[derive(Debug, Clone)]
pub struct FleetAutotunedConfig {
    /// `base` with the pool size, the fleet shape
    /// ([`crate::config::BackendKind::Fleet`]) and the per-device chunk size
    /// persisted from the sweeps.
    pub config: GpuSolverConfig,
    /// The pool-size sweep.
    pub pool: AutotuneReport,
    /// The joint devices × chunk sweep (run at the tuned pool size).
    pub fleet: FleetAutotuneReport,
    /// The deal-weight sweep (run at the tuned fleet shape).
    pub weights: WeightAutotuneReport,
}

/// Runs the pool-size sweep, then the joint fleet sweep at the winning pool
/// size, then the deal-weight sweep at the winning shape, and returns `base`
/// reconfigured to the winning fleet: `backend` becomes
/// [`crate::config::BackendKind::Fleet`] with the best device count
/// (pipelined, inheriting `base`'s hetero/stealing modes),
/// [`GpuSolverConfig::pipeline_chunk`] carries the best per-device chunk and
/// [`GpuSolverConfig::fleet_weights`] the learned deal weights (`None` when
/// the spec-derived model was not beaten).
pub fn autotune_fleet_config(
    inst: &Instance,
    base: &GpuSolverConfig,
    probe_budget_nodes: usize,
) -> FleetAutotunedConfig {
    let pool = autotune_pool_size(inst, base, &[], probe_budget_nodes);
    let mut config = base.clone();
    config.pool_size = pool.best_pool_size;
    let fleet = autotune_fleet(inst, &config, &[], &[], probe_budget_nodes);
    let (hetero, stealing) = fleet_modes(base);
    config.backend = fleet_kind(fleet.best_devices, true, hetero, stealing);
    config.pipeline_chunk = Some(fleet.best_chunk_size);
    let weights = autotune_fleet_weights(inst, &config, &[], probe_budget_nodes);
    config.fleet_weights = weights.best_weights.clone();
    FleetAutotunedConfig {
        config,
        pool,
        fleet,
        weights,
    }
}

/// The outcome of [`autotune_solver_config`]: the tuned configuration plus
/// both sweep reports for inspection.
#[derive(Debug, Clone)]
pub struct AutotunedConfig {
    /// `base` with [`GpuSolverConfig::pool_size`] and
    /// [`GpuSolverConfig::pipeline_chunk`] replaced by the sweep winners.
    pub config: GpuSolverConfig,
    /// The pool-size sweep.
    pub pool: AutotuneReport,
    /// The pipeline-chunk sweep (run at the tuned pool size).
    pub chunk: ChunkAutotuneReport,
}

/// Runs the pool-size sweep, then the pipeline-chunk sweep at the winning
/// pool size, and returns `base` with both parameters persisted — the
/// runtime procedure the paper calls for, extended to the pipeline.
pub fn autotune_solver_config(
    inst: &Instance,
    base: &GpuSolverConfig,
    probe_budget_nodes: usize,
) -> AutotunedConfig {
    let pool = autotune_pool_size(inst, base, &[], probe_budget_nodes);
    let mut config = base.clone();
    config.pool_size = pool.best_pool_size;
    let chunk = autotune_pipeline_chunk(inst, &config, &[], probe_budget_nodes);
    config.pipeline_chunk = Some(chunk.best_chunk_size);
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
        // Wave-derived candidates plus the batch-derived ones (the probe
        // batch is the pool size capped by the budget: 2 000 here).
        let target = base().pool_size.min(2_000);
        for expected in [
            wave / 4,
            wave / 2,
            wave,
            2 * wave,
            target.div_ceil(base().pipeline_depth),
            target,
        ] {
            assert!(swept.contains(&expected), "missing candidate {expected}");
        }
        let mut sorted = swept.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(swept, sorted, "candidates must be sorted and deduped");
        assert!(swept.contains(&report.best_chunk_size));
    }

    #[test]
    fn fleet_sweep_probes_every_candidate_pair() {
        let inst = generate("t", 14, 8, 11);
        let report = autotune_fleet(&inst, &base(), &[1, 2, 4], &[64, 256], 1_000);
        assert_eq!(report.measurements.len(), 6);
        assert!(report
            .measurements
            .iter()
            .all(|m| m.seconds_per_node > 0.0 && m.scaling_ratio > 0.0));
        assert!([1, 2, 4].contains(&report.best_devices));
        assert!([64, 256].contains(&report.best_chunk_size));
        // Single-device candidates are their own scaling baseline.
        assert!(report
            .measurements
            .iter()
            .filter(|m| m.devices == 1)
            .all(|m| (m.scaling_ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn fleet_sweep_finds_devices_that_help_on_device_filling_pools() {
        // A pool that fills several devices' waves: 2 devices must model
        // strictly less time per node than 1 at the same chunk, and the
        // winner must use more than one device. (The instance must sustain a
        // frontier of the probe size — a pool the freeze solves outright
        // would measure nothing.)
        let inst = generate("t", 18, 10, 3);
        let cfg = GpuSolverConfig {
            pool_size: 2_048,
            ..base()
        };
        let report = autotune_fleet(&inst, &cfg, &[1, 2], &[], 2_048);
        assert!(
            report.measurements.iter().all(|m| m.seconds_per_node > 0.0),
            "the probe pool must be non-empty"
        );
        let per_chunk_better = report
            .measurements
            .iter()
            .filter(|m| m.devices == 2)
            .all(|m| m.scaling_ratio < 1.0);
        assert!(per_chunk_better, "2 devices must beat 1 on a full pool");
        assert_eq!(report.best_devices, 2);
    }

    #[test]
    fn fleet_autotuned_config_persists_the_winning_shape() {
        let inst = generate("t", 14, 8, 7);
        let tuned = autotune_fleet_config(&inst, &base(), 1_000);
        assert_eq!(tuned.config.pool_size, tuned.pool.best_pool_size);
        assert_eq!(
            tuned.config.backend,
            crate::config::BackendKind::Fleet(crate::config::FleetTopology::uniform(
                tuned.fleet.best_devices
            ))
        );
        assert_eq!(
            tuned.config.pipeline_chunk,
            Some(tuned.fleet.best_chunk_size)
        );
        assert_eq!(tuned.config.fleet_weights, tuned.weights.best_weights);
    }

    #[test]
    fn weight_sweep_probes_the_baseline_and_every_candidate() {
        let inst = generate("t", 14, 8, 11);
        let cfg = GpuSolverConfig {
            backend: crate::config::BackendKind::Fleet(
                crate::config::FleetTopology::uniform(2).mixed(),
            ),
            pool_size: 1_024,
            ..base()
        };
        let candidates = vec![vec![1.0, 1.0], vec![3.0, 1.0]];
        let report = autotune_fleet_weights(&inst, &cfg, &candidates, 1_024);
        assert_eq!(report.measurements.len(), 3);
        assert!(report.measurements[0].weights.is_none(), "baseline first");
        assert!(report.measurements.iter().all(|m| m.seconds_per_node > 0.0));
        // Probed candidates are reported as normalized shares.
        let shares = report.measurements[2].weights.as_ref().expect("shares");
        assert!((shares[0] - 0.75).abs() < 1e-12 && (shares[1] - 0.25).abs() < 1e-12);
        // The winner is the (strictly) fastest; ties keep the baseline.
        let best_time = report
            .measurements
            .iter()
            .map(|m| m.seconds_per_node)
            .fold(f64::INFINITY, f64::min);
        let winner = report
            .measurements
            .iter()
            .find(|m| m.weights == report.best_weights)
            .expect("winner measured");
        assert!((winner.seconds_per_node - best_time).abs() < 1e-18);
    }

    #[test]
    fn weight_sweep_default_candidates_bracket_the_model() {
        // On a heterogeneous fleet the default sweep probes the uniform deal
        // and a compressed/exaggerated bracket around the spec-derived
        // ratios. At a wave-filling pool the win is structural — the deal
        // hands the full-wave chunk to the GTX, uniform hands it to the
        // slower C2050 — so the spec-derived baseline must not lose to
        // uniform. (Below one wave the two deals differ only in which
        // member draws the content-heavier chunk, and either can win.)
        let inst = generate("t", 14, 8, 2012);
        let cfg = GpuSolverConfig {
            backend: crate::config::BackendKind::Fleet(
                crate::config::FleetTopology::uniform(2).mixed(),
            ),
            pool_size: 4_096,
            ..base()
        };
        let report = autotune_fleet_weights(&inst, &cfg, &[], 4_096);
        assert_eq!(report.measurements.len(), 4);
        let baseline = report.measurements[0].seconds_per_node;
        let uniform = report.measurements[1].seconds_per_node;
        assert!(
            baseline <= uniform,
            "baseline {baseline} vs uniform {uniform}"
        );
    }

    #[test]
    fn autotuned_config_persists_both_sweeps() {
        let inst = generate("t", 14, 8, 7);
        let tuned = autotune_solver_config(&inst, &base(), 1_000);
        assert_eq!(tuned.config.pool_size, tuned.pool.best_pool_size);
        assert_eq!(
            tuned.config.pipeline_chunk,
            Some(tuned.chunk.best_chunk_size)
        );
        // Everything else of the base survives the tuning.
        assert_eq!(tuned.config.backend, base().backend);
        assert_eq!(tuned.config.block_threads, base().block_threads);
    }
}
