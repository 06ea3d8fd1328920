//! Workspace-level backend-equivalence suite.
//!
//! The `BoundingBackend` contract says all implementations evaluate the same
//! Johnson bound and must return **bit-identical** bounds for the same
//! batch; only the modelled cost accounting may differ. This suite pins that
//! contract down three ways:
//!
//! 1. a property test over random instances and frozen pools — every
//!    backend's bounds equal the sequential reference's;
//! 2. the authentic `instances/ta001.txt` — per-node bounds and the solved
//!    makespan agree across all four backends, and the pipelined schedule
//!    beats its own serialized cost;
//! 3. a timeline test — the overlapped stream schedule never reorders
//!    dependent operations (each chunk's kernel after its upload, each
//!    download after its kernel, FIFO within a stream);
//! 4. a property test over batches below one device wave — the pipelined
//!    backend launches such a batch once and prices it exactly as the
//!    one-launch `gpu` backend does, and every fleet member launches the
//!    shard it is dealt once.
//!
//! The CI `backend-matrix` job runs this suite once per backend by setting
//! `BACKEND_FILTER` (e.g. `multicore`, `fleet:4`): the filtered kind is
//! checked against the sequential reference only, so a backend-specific
//! regression fails exactly the job named after it. Unset, every kind runs
//! (the `BackendKind::ALL` set plus 1- and 4-device fleets).

use flowshop_gpu_bnb::bb::{frozen_pool, Batch, FspNode, FspProblem};
use flowshop_gpu_bnb::fsp::{taillard, Time};
use flowshop_gpu_bnb::gpu_bnb::backend::make_backend;
use flowshop_gpu_bnb::gpu_bnb::{
    BackendKind, BoundingBackend, BoundingEngine, DataPlacement, FleetBackend, FleetTopology,
    GpuBnbSolver, GpuSolverConfig,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Nodes one Tesla C2050 wave bounds: 14 SMs × 256 threads per block.
const C2050_WAVE: usize = 14 * 256;

/// The backends this suite checks: `BACKEND_FILTER` (plus the sequential
/// reference) when set, the full roster otherwise.
fn gated_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            let mut kinds = vec![BackendKind::Sequential];
            if kind != BackendKind::Sequential {
                kinds.push(kind);
            }
            kinds
        }
        _ => {
            let mut kinds = BackendKind::ALL.to_vec();
            for devices in [1, 4] {
                kinds.push(BackendKind::Fleet(FleetTopology::uniform(devices)));
            }
            // The mixed-spec fleet with deterministic stealing: same bounds,
            // different deal — the equivalence contract must not notice.
            kinds.push(BackendKind::Fleet(
                FleetTopology::uniform(2).mixed().stealing(),
            ));
            kinds
        }
    }
}

fn config_for(kind: BackendKind, pool: usize) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: pool,
        placement: DataPlacement::SharedJmPtm,
        backend: kind,
        // Functional SIMT for the GPU kinds: the equivalence claim covers
        // the simulated kernel itself, not just the host shortcut.
        fast_forward: false,
        ..Default::default()
    }
}

fn ta001() -> flowshop_gpu_bnb::fsp::Instance {
    let text = std::fs::read_to_string("instances/ta001.txt").expect("ta001 ships with the repo");
    let (inst, _header) =
        flowshop_gpu_bnb::fsp::io::parse_taillard("instances/ta001.txt", &text).expect("parses");
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_backends_return_bit_identical_bounds(
        (jobs, machines, seed) in (6usize..=12, 3usize..=7, 1i64..1_000_000),
        target in 16usize..80,
    ) {
        let inst = taillard::generate("equiv", jobs, machines, seed);
        let problem = FspProblem::new(inst);
        // An instance solved outright during freezing leaves an empty pool;
        // every backend then trivially agrees on the empty bound list.
        let nodes = frozen_pool(&problem, target).nodes;

        let mut reference: Option<Vec<Time>> = None;
        for kind in gated_kinds() {
            let mut backend = make_backend(&problem, &config_for(kind, target), nodes.len().max(1));
            let batch = backend.bound_batch(&nodes);
            prop_assert_eq!(batch.bounds.len(), nodes.len());
            match &reference {
                None => reference = Some(batch.bounds),
                Some(expected) => prop_assert_eq!(&batch.bounds, expected, "{} diverged", kind),
            }
        }
    }
}

/// A frozen pool longer than one device wave, shared by every case of the
/// sub-wave test (freezing it is the expensive part).
fn wave_pool() -> &'static (FspProblem, Vec<FspNode>) {
    static POOL: OnceLock<(FspProblem, Vec<FspNode>)> = OnceLock::new();
    POOL.get_or_init(|| {
        let problem = FspProblem::new(taillard::generate("wave", 14, 8, 2012));
        let nodes = frozen_pool(&problem, C2050_WAVE + 512).nodes;
        assert!(nodes.len() >= C2050_WAVE, "the pool must reach one wave");
        (problem, nodes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Below one wave a device bounds what it is given in one launch: the
    /// pipelined backend's whole batch, priced exactly as the one-launch
    /// `gpu` backend prices it, and each fleet member's whole shard.
    /// Fast-forward, since only the accounting is under test.
    #[test]
    fn sub_wave_batches_are_one_launch_per_device(len in 0usize..C2050_WAVE) {
        let (problem, pool) = wave_pool();
        let nodes = &pool[..len];
        let config = |kind| GpuSolverConfig {
            fast_forward: true,
            ..config_for(kind, len.max(1))
        };
        let capacity = len.max(1);
        for kind in gated_kinds() {
            match kind {
                BackendKind::GpuPipelined => {
                    let piped = make_backend(problem, &config(kind), capacity).bound_batch(nodes);
                    let gpu = make_backend(problem, &config(BackendKind::Gpu), capacity)
                        .bound_batch(nodes);
                    prop_assert_eq!(&piped.bounds, &gpu.bounds);
                    prop_assert_eq!(&piped.launch_times, &gpu.launch_times);
                    let (a, b) = (piped.accounting, gpu.accounting);
                    prop_assert_eq!(a.launches, u64::from(len > 0));
                    prop_assert_eq!(
                        (a.kernel_time, a.transfer_time, a.device_time),
                        (b.kernel_time, b.transfer_time, b.device_time)
                    );
                    prop_assert_eq!(
                        (a.upload_bytes, a.download_bytes, a.launches, a.waves, a.device_nodes),
                        (b.upload_bytes, b.download_bytes, b.launches, b.waves, b.device_nodes)
                    );
                }
                BackendKind::Fleet(topology) => {
                    let mut fleet = FleetBackend::new(problem, &config(kind), capacity, topology);
                    let batch = fleet.bound_batch(nodes);
                    let dealt = fleet.device_stats().iter().filter(|m| m.batches > 0);
                    for member in dealt.clone() {
                        prop_assert_eq!(member.launches, 1, "{} member {}", kind, member.ordinal);
                    }
                    prop_assert_eq!(batch.accounting.launches, dealt.count() as u64, "{}", kind);
                }
                _ => {}
            }
        }
    }
}

#[test]
fn ta001_bounds_and_makespan_agree_across_backends() {
    let problem = FspProblem::new(ta001());
    let frozen = frozen_pool(&problem, 64);
    assert!(!frozen.nodes.is_empty());

    // Per-node bounds: bit-identical across every backend.
    let mut reference: Option<Vec<Time>> = None;
    for kind in gated_kinds() {
        let mut backend = make_backend(&problem, &config_for(kind, 64), frozen.nodes.len());
        let bounds = backend.bound_batch(&frozen.nodes).bounds;
        match &reference {
            None => reference = Some(bounds),
            Some(expected) => assert_eq!(&bounds, expected, "{kind} diverged on ta001"),
        }
    }

    // Solved makespan: identical exploration from the shared frozen pool
    // (fast-forward keeps the functional 20×20 sweep out of debug builds —
    // the bounds are the host reference either way).
    let mut makespans = Vec::new();
    for kind in gated_kinds() {
        let cfg = GpuSolverConfig {
            node_limit: Some(3_000),
            fast_forward: true,
            ..config_for(kind, 256)
        };
        let solver = GpuBnbSolver::from_problem(problem.clone(), cfg);
        let outcome = solver.solve_from(
            frozen.nodes.clone(),
            Some(frozen.upper_bound),
            frozen.best_schedule.clone(),
        );
        assert_eq!(outcome.stats.bounded, outcome.gpu.nodes_bounded, "{kind}");
        makespans.push((kind, outcome.best_makespan, outcome.stats.bounded));
    }
    let (_, first_makespan, first_bounded) = makespans[0];
    for (kind, makespan, bounded) in &makespans {
        assert_eq!(
            *makespan, first_makespan,
            "{kind} found a different makespan"
        );
        assert_eq!(*bounded, first_bounded, "{kind} explored a different tree");
    }
}

#[test]
fn ta001_cost_counters_are_exact_and_reproducible() {
    let problem = FspProblem::new(ta001());
    let frozen = frozen_pool(&problem, 64);
    assert!(!frozen.nodes.is_empty());

    // Same pinned-incumbent prefix as the makespan test: every backend
    // explores the identical tree, so the workload-shaped counters must be
    // *exactly* equal — the contract the cost gate's exact comparison
    // rests on.
    let solve = |kind: BackendKind| {
        let cfg = GpuSolverConfig {
            node_limit: Some(3_000),
            fast_forward: true,
            ..config_for(kind, 256)
        };
        let solver = GpuBnbSolver::from_problem(problem.clone(), cfg);
        solver.solve_from(
            frozen.nodes.clone(),
            Some(frozen.upper_bound),
            frozen.best_schedule.clone(),
        )
    };

    let device_backed = |kind: &BackendKind| {
        matches!(
            kind,
            BackendKind::Gpu | BackendKind::GpuPipelined | BackendKind::Fleet { .. }
        )
    };

    let mut rows = Vec::new();
    for kind in gated_kinds() {
        let first = solve(kind);
        let second = solve(kind);
        assert_eq!(
            first.cost, second.cost,
            "{kind} cost counters differ between two identical runs"
        );
        assert_eq!(
            first.latencies, second.latencies,
            "{kind} latency histograms differ between two identical runs"
        );

        let cost = first.cost;
        // Internal consistency: every bounded node is either a device node
        // or a host node, and the initial pool is charged to the host.
        assert_eq!(
            cost.nodes_bounded(),
            first.stats.bounded + frozen.nodes.len() as u64,
            "{kind} lost nodes in the cost accounting"
        );
        assert_eq!(
            first.latencies.launch.samples(),
            cost.launches,
            "{kind} launch histogram out of step with the launch counter"
        );
        assert_eq!(
            first.latencies.batch.samples(),
            cost.batches,
            "{kind} batch histogram out of step with the batch counter"
        );
        if device_backed(&kind) {
            assert_eq!(cost.device_nodes, first.gpu.nodes_bounded, "{kind}");
            assert!(cost.waves > 0, "{kind} reported no device waves");
            let rate = cost.offloading_rate();
            assert!(
                rate > 0.0 && rate < 1.0,
                "{kind} off-loading rate {rate} must be in (0, 1): the \
                 initial pool is host-bounded, the rest is device-bounded"
            );
        } else {
            assert_eq!(cost.device_nodes, 0, "{kind} is host-only");
            assert_eq!(cost.waves, 0, "{kind} is host-only");
            assert_eq!(cost.offloading_rate(), 0.0, "{kind} is host-only");
        }
        assert_eq!(
            matches!(kind, BackendKind::Fleet { .. }),
            cost.fleet_merge_cycles > 0,
            "{kind}: only the fleet pays the merge charge"
        );
        rows.push((kind, cost));
    }

    // Workload-shaped counters are equal across *every* backend…
    let (_, reference) = rows[0];
    for (kind, cost) in &rows {
        assert_eq!(cost.batches, reference.batches, "{kind} batch count");
        assert_eq!(
            cost.nodes_bounded(),
            reference.nodes_bounded(),
            "{kind} total nodes"
        );
        assert_eq!(
            cost.host_op_cycles, reference.host_op_cycles,
            "{kind} host-op cycles"
        );
        assert_eq!(
            cost.serial_accesses, reference.serial_accesses,
            "{kind} serial accesses"
        );
    }
    // …and the transfer/off-load counters agree across the device-backed
    // kinds (chunking changes launches and the modelled times, not bytes).
    if let Some((_, gpu_ref)) = rows.iter().find(|(kind, _)| device_backed(kind)) {
        for (kind, cost) in rows.iter().filter(|(kind, _)| device_backed(kind)) {
            assert_eq!(cost.device_nodes, gpu_ref.device_nodes, "{kind}");
            assert_eq!(cost.h2d_bytes, gpu_ref.h2d_bytes, "{kind} H2D bytes");
            assert_eq!(cost.d2h_bytes, gpu_ref.d2h_bytes, "{kind} D2H bytes");
        }
    }
}

#[test]
fn ta001_pipelined_schedule_beats_the_serialized_sum() {
    let problem = FspProblem::new(ta001());
    let frozen = frozen_pool(&problem, 256);
    let lb = problem.bound_fn().clone();
    let mut engine = BoundingEngine::new(
        lb.data(),
        DataPlacement::SharedJmPtm,
        256,
        26,
        frozen.nodes.len(),
    );
    let chunk = frozen.nodes.len().div_ceil(4);
    let batch = Batch::from_nodes(frozen.nodes);
    let piped = engine.bound_nodes_pipelined(batch.view(), chunk, Some((&lb, Time::MAX)));
    assert!(piped.chunks >= 2);
    assert!(
        piped.overlapped_time < piped.serialized_device_time(),
        "overlapped {:?} must be strictly below kernel + transfer = {:?}",
        piped.overlapped_time,
        piped.serialized_device_time()
    );
}

#[test]
fn overlapped_streams_never_reorder_dependent_ops() {
    let inst = taillard::generate("order", 12, 6, 99);
    let problem = FspProblem::new(inst);
    let nodes = Batch::from_nodes(frozen_pool(&problem, 96).nodes);
    let lb = problem.bound_fn().clone();
    let mut engine =
        BoundingEngine::new(lb.data(), DataPlacement::SharedJmPtm, 256, 26, nodes.len());
    let result = engine.bound_nodes_pipelined(nodes.view(), 24, Some((&lb, Time::MAX)));
    let timeline = &result.timeline;

    // Streams are created in Device::timeline() order: host encode, H2D,
    // compute, D2H.
    let on = |idx: usize| {
        timeline
            .events()
            .filter(move |e| e.stream.index() == idx)
            .collect::<Vec<_>>()
    };
    let (uploads, kernels, downloads) = (on(1), on(2), on(3));
    assert_eq!(kernels.len(), result.chunks);
    assert_eq!(uploads.len(), result.chunks);
    assert_eq!(downloads.len(), result.chunks);

    for i in 0..result.chunks {
        // Dependent ops keep their order: upload_i → kernel_i → download_i.
        assert!(
            kernels[i].start >= uploads[i].end,
            "kernel {i} before its upload"
        );
        assert!(
            downloads[i].start >= kernels[i].end,
            "download {i} before its kernel"
        );
        // FIFO within each stream.
        if i > 0 {
            assert!(uploads[i].start >= uploads[i - 1].end);
            assert!(kernels[i].start >= kernels[i - 1].end);
            assert!(downloads[i].start >= downloads[i - 1].end);
        }
    }
    // And yet the schedule genuinely overlaps: its makespan undercuts the
    // serialized sum of every operation.
    assert!(timeline.makespan() < timeline.serialized());
}
