//! Equivalence suite for the multi-device fleet backend.
//!
//! The fleet's contract has three parts, and this suite pins each down:
//!
//! 1. **Sharding is a permutation-free partition** — [`plan_shards`] covers
//!    every input index exactly once, whatever the batch size, device count
//!    and chunk granularity (property test), so every node is bounded
//!    exactly once;
//! 2. **bounds are bit-identical** to the single-device pipelined backend,
//!    for random pools and for the authentic `instances/ta001.txt`;
//! 3. on the deterministic ta001 prefix subtree, a 2-device fleet **visits
//!    exactly the node set** of the single-device pipelined backend under a
//!    pinned incumbent, and its modelled device schedule is **strictly
//!    shorter** — the tentpole's scaling claim, checked on real data.
//!
//! Everything is modelled/deterministic — no timing flake.
//!
//! Like the other equivalence suites, this one honours `BACKEND_FILTER`
//! (the CI `backend-matrix` job): a `fleet:N` filter pins the fleet size
//! under test, a non-fleet filter skips the fleet-vs-single comparisons
//! entirely (that job is not about fleets), and unset runs sizes 1, 2, 4.

use flowshop_gpu_bnb::bb::solver::StopReason;
use flowshop_gpu_bnb::bb::{frozen_pool, FspNode, FspProblem};
use flowshop_gpu_bnb::fsp::{taillard, Time};
use flowshop_gpu_bnb::gpu_bnb::backend::make_backend;
use flowshop_gpu_bnb::gpu_bnb::{
    plan_shards, plan_shards_weighted, steal_pass, BackendKind, DataPlacement, FleetShard,
    FleetTopology, GpuBnbSolver, GpuSolverConfig, MemberModel,
};
use proptest::prelude::*;

/// Fleet sizes this suite exercises: `[N]` under a `fleet:N` filter, empty
/// (suite skipped) under a non-fleet filter, `[1, 2, 4]` when unset.
fn gated_device_counts() -> Vec<usize> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            match kind {
                BackendKind::Fleet(topology) => vec![topology.devices],
                _ => Vec::new(),
            }
        }
        _ => vec![1, 2, 4],
    }
}

fn config(pool: usize, backend: BackendKind, lookahead: bool) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: pool,
        placement: DataPlacement::SharedJmPtm,
        backend,
        lookahead,
        fast_forward: true,
        ..Default::default()
    }
}

fn ta001() -> flowshop_gpu_bnb::fsp::Instance {
    let text = std::fs::read_to_string("instances/ta001.txt").expect("ta001 ships with the repo");
    let (inst, _header) =
        flowshop_gpu_bnb::fsp::io::parse_taillard("instances/ta001.txt", &text).expect("parses");
    inst
}

/// The pinned ta001 sub-problem the lookahead suite also exhausts: an 8-job
/// prefix whose optimum (1359) sits strictly above its Johnson bound (1351),
/// so pinning the incumbent there leaves a non-trivial, exhaustible tree.
fn ta001_pinned_entry(inst: &flowshop_gpu_bnb::fsp::Instance) -> (FspNode, Time) {
    let problem = FspProblem::new(inst.clone());
    let prefix = [3usize, 5, 15, 10, 1, 14, 11, 6];
    let mut node = FspNode::from_prefix(inst, &prefix);
    problem.bound(&mut node);
    assert_eq!(node.bound(), 1351, "ta001 prefix bound drifted");
    (node, 1359)
}

/// The partition invariant every shard plan (and every steal pass over one)
/// must keep: shards non-empty and in strictly increasing ordinal order,
/// every input index covered by exactly one range.
fn check_partition(shards: &[FleetShard], len: usize) {
    let mut covered = vec![0u32; len];
    let mut previous = None;
    for shard in shards {
        assert!(
            previous < Some(shard.device),
            "shards must stay in strictly increasing ordinal order"
        );
        previous = Some(shard.device);
        assert!(shard.nodes() > 0, "empty shards must be trimmed");
        for &(start, range_len) in &shard.ranges {
            assert!(range_len > 0);
            assert!(start + range_len <= len);
            for slot in &mut covered[start..start + range_len] {
                *slot += 1;
            }
        }
    }
    assert!(
        covered.iter().all(|&count| count == 1),
        "every node must be assigned to exactly one device"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharding is a partition: every index of the input lands in exactly
    /// one shard (no node bounded twice, none dropped), shards stay in
    /// ordinal order, and the plan is trimmed — the deficit rule shrinks
    /// the chunk so every member is fed whenever `len >= devices`, and a
    /// smaller batch feeds exactly `len` members (no phantom idle shards).
    #[test]
    fn shard_plans_partition_the_batch(
        len in 0usize..5_000,
        devices in 1usize..9,
        chunk in 1usize..4_000,
    ) {
        let shards = plan_shards(len, devices, chunk);
        prop_assert_eq!(shards.len(), devices.min(len));
        // The uniform deal fills a dense ordinal prefix.
        for (ordinal, shard) in shards.iter().enumerate() {
            prop_assert_eq!(shard.device, ordinal);
        }
        check_partition(&shards, len);
        prop_assert_eq!(shards.iter().map(FleetShard::nodes).sum::<usize>(), len);
    }

    /// The weighted deal partitions the batch for arbitrary weight vectors,
    /// and the deterministic steal pass — run over mixed member models,
    /// coarse waves on even ordinals and one-node waves (a linear
    /// completion curve) on odd ones — only re-deals ranges between
    /// members: the partition survives untouched.
    #[test]
    fn weighted_plans_partition_and_the_steal_pass_preserves_it(
        len in 0usize..5_000,
        chunk in 1usize..4_000,
        raw_weights in proptest::collection::vec(1u32..1_000, 1usize..9),
    ) {
        let weights: Vec<f64> = raw_weights.iter().map(|&w| w as f64 / 16.0).collect();
        let mut shards = plan_shards_weighted(len, &weights, chunk);
        check_partition(&shards, len);
        let models: Vec<MemberModel> = weights
            .iter()
            .enumerate()
            .map(|(ordinal, &weight)| {
                if ordinal % 2 == 0 {
                    let wave_nodes = 32 * (ordinal + 1);
                    MemberModel {
                        weight,
                        wave_nodes,
                        wave_seconds: wave_nodes as f64 / weight,
                    }
                } else {
                    MemberModel { weight, wave_nodes: 1, wave_seconds: 1.0 / weight }
                }
            })
            .collect();
        let summary = steal_pass(&mut shards, &models);
        check_partition(&shards, len);
        if summary.steals == 0 {
            prop_assert_eq!(summary.stolen_nodes, 0);
        } else {
            prop_assert!(summary.stolen_nodes > 0);
        }
    }

    /// Fleet bounds are bit-identical to the single-device pipelined
    /// backend on random instances and frozen pools, for any fleet size.
    #[test]
    fn fleet_bounds_match_the_single_device_backend(
        (jobs, machines, seed) in (6usize..=12, 3usize..=7, 1i64..1_000_000),
        target in 16usize..80,
    ) {
        let inst = taillard::generate("fleet", jobs, machines, seed);
        let problem = FspProblem::new(inst);
        let nodes = frozen_pool(&problem, target).nodes;

        let mut single = make_backend(
            &problem,
            &config(target, BackendKind::GpuPipelined, false),
            nodes.len().max(1),
        );
        let reference = single.bound_batch(&nodes).bounds;
        for devices in gated_device_counts() {
            for pipelined in [false, true] {
                let topology = if pipelined {
                    FleetTopology::uniform(devices)
                } else {
                    FleetTopology::uniform(devices).one_launch()
                };
                let mut fleet = make_backend(
                    &problem,
                    &config(target, BackendKind::Fleet(topology), false),
                    nodes.len().max(1),
                );
                let bounds = fleet.bound_batch(&nodes).bounds;
                prop_assert_eq!(
                    &bounds, &reference,
                    "{} devices (pipelined={}) diverged", devices, pipelined
                );
            }
        }
    }
}

#[test]
fn ta001_fleet_bounds_are_bit_identical() {
    let problem = FspProblem::new(ta001());
    let frozen = frozen_pool(&problem, 256);
    assert!(!frozen.nodes.is_empty());
    let mut single = make_backend(
        &problem,
        &config(256, BackendKind::GpuPipelined, false),
        frozen.nodes.len(),
    );
    let reference = single.bound_batch(&frozen.nodes).bounds;
    for devices in gated_device_counts() {
        let mut fleet = make_backend(
            &problem,
            &config(
                256,
                BackendKind::Fleet(FleetTopology::uniform(devices)),
                false,
            ),
            frozen.nodes.len(),
        );
        let bounds = fleet.bound_batch(&frozen.nodes).bounds;
        assert_eq!(bounds, reference, "{devices} devices diverged on ta001");
    }
}

#[test]
fn ta001_fleet_visits_the_single_device_node_set_and_runs_faster() {
    // Pinned incumbent ⇒ identical prune decisions ⇒ the fleet must visit
    // exactly the node set of the single-device pipelined backend; and with
    // the pool split across two devices, the fleet's modelled device
    // schedule must be strictly shorter (the acceptance claim of the
    // tentpole, on authentic data).
    let Some(&devices) = gated_device_counts().iter().max() else {
        eprintln!("skipping: BACKEND_FILTER pins a non-fleet backend");
        return;
    };
    let inst = ta001();
    let (entry, ub) = ta001_pinned_entry(&inst);
    let run = |backend: BackendKind| {
        let problem = FspProblem::new(inst.clone());
        GpuBnbSolver::from_problem(problem, config(256, backend, true)).solve_from(
            vec![entry.clone()],
            Some(ub),
            None,
        )
    };
    let single = run(BackendKind::GpuPipelined);
    let fleet = run(BackendKind::Fleet(FleetTopology::uniform(devices)));

    assert!(
        single.stats.bounded > 10_000,
        "the pinned tree must be real"
    );
    assert_eq!(single.stats.improvements, 0);
    assert_eq!(fleet.stats.improvements, 0);
    assert_eq!(single.best_makespan, fleet.best_makespan);
    assert_eq!(single.stats.selected, fleet.stats.selected);
    assert_eq!(single.stats.decomposed, fleet.stats.decomposed);
    assert_eq!(single.stats.bounded, fleet.stats.bounded);
    assert_eq!(single.stats.pruned, fleet.stats.pruned);
    assert_eq!(single.stats.leaves, fleet.stats.leaves);
    // Both runs exhaust the tree. The pinned incumbent came without a
    // schedule, so neither certifies an optimum.
    assert!(single.stop == StopReason::Exhausted && fleet.stop == StopReason::Exhausted);
    assert_eq!(fleet.gpu.nodes_bounded, fleet.stats.bounded);

    // The strict-win claim needs genuine parallelism: a fleet of one is the
    // single device plus the merge cost, so only assert it for ≥ 2 devices.
    if devices >= 2 {
        assert!(
            fleet.gpu.overlapped_time < single.gpu.overlapped_time,
            "{devices}-device fleet {:?} must undercut the single device {:?}",
            fleet.gpu.overlapped_time,
            single.gpu.overlapped_time
        );
    }
    // Total modelled compute is conserved — the fleet wins by overlapping
    // devices, not by doing less work.
    assert_eq!(fleet.gpu.nodes_bounded, single.gpu.nodes_bounded);
}

#[test]
fn ta001_hetero_stealing_fleet_matches_the_node_set_and_beats_the_equal_deal() {
    // The acceptance claim of the elastic-fleet PR: a mixed-spec fleet:2
    // (Tesla C2050 + GTX 580) with the weighted deal and the deterministic
    // steal pass visits exactly the node set of the homogeneous equal-deal
    // fleet:2 under a pinned incumbent — the planner only re-partitions
    // batches, never changes what gets bounded — while its modelled
    // max-over-members schedule is strictly shorter: the GTX clears its
    // larger share faster than a Tesla clears half.
    if !gated_device_counts().contains(&2) {
        eprintln!("skipping: BACKEND_FILTER pins a different backend");
        return;
    }
    let inst = ta001();
    let (entry, ub) = ta001_pinned_entry(&inst);
    let run = |hetero: bool, stealing: bool| {
        let problem = FspProblem::new(inst.clone());
        let mut topology = FleetTopology::uniform(2);
        if hetero {
            topology = topology.mixed();
        }
        if stealing {
            topology = topology.stealing();
        }
        let backend = BackendKind::Fleet(topology);
        GpuBnbSolver::from_problem(problem, config(4096, backend, true)).solve_from(
            vec![entry.clone()],
            Some(ub),
            None,
        )
    };
    let equal = run(false, false);
    let mixed = run(true, true);

    assert!(equal.stats.bounded > 10_000, "the pinned tree must be real");
    assert_eq!(equal.stats.improvements, 0);
    assert_eq!(mixed.stats.improvements, 0);
    assert_eq!(equal.best_makespan, mixed.best_makespan);
    assert_eq!(equal.stats.selected, mixed.stats.selected);
    assert_eq!(equal.stats.decomposed, mixed.stats.decomposed);
    assert_eq!(equal.stats.bounded, mixed.stats.bounded);
    assert_eq!(equal.stats.pruned, mixed.stats.pruned);
    assert_eq!(equal.stats.leaves, mixed.stats.leaves);
    assert!(equal.stop == StopReason::Exhausted && mixed.stop == StopReason::Exhausted);
    assert!(
        mixed.gpu.overlapped_time < equal.gpu.overlapped_time,
        "mixed-spec stealing fleet {:?} must undercut the equal deal {:?}",
        mixed.gpu.overlapped_time,
        equal.gpu.overlapped_time
    );
}
