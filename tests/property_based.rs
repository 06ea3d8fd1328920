//! Workspace-level property-based tests: invariants that must hold for any
//! randomly generated instance, prefix or pool.

use flowshop_gpu_bnb::bb::problem::NodeBound;
use flowshop_gpu_bnb::bb::{FspNode, FspProblem};
use flowshop_gpu_bnb::fsp::bound::LowerBound;
use flowshop_gpu_bnb::fsp::{
    makespan, makespan_prefix, taillard, BoundScratch, JohnsonLowerBound, OneMachineBound,
};
use flowshop_gpu_bnb::gpu_bnb::{
    perturbed, BoundingEngine, CacheDisposition, DataPlacement, GpuSolverConfig, ServiceConfig,
    SolveRequest, SolveService,
};
use proptest::prelude::*;

/// Strategy: a small random instance (3..=8 jobs, 2..=6 machines) plus a seed.
fn small_instance() -> impl Strategy<Value = (usize, usize, i64)> {
    (3usize..=8, 2usize..=6, 1i64..1_000_000)
}

/// Strategy: a permutation prefix of `n` jobs with the given length.
fn prefix(n: usize, len: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<_>>())
        .prop_shuffle()
        .prop_map(move |p| p[..len].to_vec())
}

/// Job counts on both sides of 32- and 64-job set-word boundaries, and
/// machine counts from one machine (no pair) to the paper's twenty.
const BATCH_JOBS: [usize; 6] = [1, 31, 32, 33, 64, 65];
const BATCH_MACHINES: [usize; 4] = [1, 2, 5, 20];
/// Batch lengths around the eight-lane pass: empty, one lane, a short pass,
/// one full pass, one past it, and two passes plus one.
const BATCH_LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, LONGEST_BATCH];
const LONGEST_BATCH: usize = 17;
/// Launch lengths around the 32-lane warp and two 256-thread blocks.
const LAUNCH_LENGTHS: [usize; 7] = [1, 31, 32, 33, 64, 65, LONGEST_LAUNCH];
const LONGEST_LAUNCH: usize = 257;
/// Threads per block: one warp, a full warp plus a short one of 16 lanes,
/// and the paper's 256.
const LAUNCH_BLOCKS: [usize; 3] = [32, 48, 256];
const LAUNCH_JOBS: [usize; 5] = [1, 2, 8, 33, 65];

/// SplitMix64: a seeded stream for building node mixes inside a property.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` nodes of `inst`, each a random order cut at the root, at a random
/// depth strictly inside the tree, or at the leaf, in turn — so every
/// eight-lane pass and every warp holds all three kinds.
fn mixed_depth_nodes(
    inst: &flowshop_gpu_bnb::fsp::Instance,
    count: usize,
    state: &mut u64,
) -> Vec<FspNode> {
    let n = inst.jobs();
    (0..count)
        .map(|slot| {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
            }
            let depth = match slot % 3 {
                0 => 0,
                1 if n > 1 => 1 + (splitmix(state) % (n as u64 - 1)) as usize,
                1 => 0,
                _ => n,
            };
            FspNode::from_prefix(inst, &order[..depth])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn makespan_is_permutation_invariant_in_total_work((n, m, seed) in small_instance()) {
        let inst = taillard::generate("prop", n, m, seed);
        let identity: Vec<usize> = (0..n).collect();
        let reversed: Vec<usize> = (0..n).rev().collect();
        // Any schedule is at least the critical path of a single job and at
        // least the load of any machine.
        for perm in [identity, reversed] {
            let cmax = makespan(&inst, &perm);
            prop_assert!(cmax >= inst.machine_load_bound());
            prop_assert!(cmax <= inst.total_processing_time());
        }
    }

    #[test]
    fn bounds_are_admissible_and_ordered((n, m, seed) in small_instance(), len in 0usize..4) {
        let inst = taillard::generate("prop", n, m, seed);
        let len = len.min(n);
        let johnson = JohnsonLowerBound::new(&inst);
        let one = OneMachineBound::new(&inst);

        // For a random prefix, complete it greedily and check admissibility:
        // LB(prefix) <= makespan(any completion).
        let prefix: Vec<usize> = (0..n).take(len).collect();
        let completion: Vec<usize> = prefix.iter().copied().chain((0..n).filter(|j| !prefix.contains(j))).collect();
        let full = makespan(&inst, &completion);

        let sched = flowshop_gpu_bnb::fsp::PartialSchedule::from_prefix(&inst, &prefix);
        let lb_j = johnson.bound(&sched);
        let lb_1 = one.bound(&sched);
        prop_assert!(lb_j <= full, "Johnson LB {lb_j} > completion {full}");
        prop_assert!(lb_1 <= full, "LB1 {lb_1} > completion {full}");
        // Dominance: the two-machine relaxation is at least as tight.
        prop_assert!(lb_j >= lb_1);
    }

    #[test]
    fn node_front_matches_schedule_recurrence((n, m, seed) in small_instance(), raw in prefix(8, 4)) {
        let inst = taillard::generate("prop", n, m, seed);
        let jobs: Vec<usize> = raw.into_iter().filter(|&j| j < n).collect();
        let mut unique = Vec::new();
        for j in jobs {
            if !unique.contains(&j) {
                unique.push(j);
            }
        }
        let node = FspNode::from_prefix(&inst, &unique);
        let expected_front = makespan_prefix(&inst, &unique);
        prop_assert_eq!(node.front(), expected_front.as_slice());
        prop_assert_eq!(node.depth(), unique.len());
    }

    #[test]
    fn gpu_kernel_agrees_with_host_bound_for_random_prefixes((n, m, seed) in small_instance(), len in 0usize..5) {
        let inst = taillard::generate("prop", n, m, seed);
        let len = len.min(n.saturating_sub(1));
        let prefix: Vec<usize> = (0..len).collect();
        let node = FspNode::from_prefix(&inst, &prefix);

        let problem = FspProblem::new(inst.clone());
        let host = problem.bound_fn();
        let mut engine = BoundingEngine::new(host.data(), DataPlacement::SharedJmPtm, 64, 26, 4);
        let gpu_bound = engine.bound_nodes(std::slice::from_ref(&node)).bounds[0];
        let host_bound = host.bound_prefix_fn(node.front(), |j| node.is_scheduled(j));
        prop_assert_eq!(gpu_bound, host_bound);
    }

    #[test]
    fn warm_starting_from_a_perturbed_neighbour_preserves_the_optimum(
        (n, m, seed) in small_instance(),
        perturb_seed in 1u64..1_000_000,
    ) {
        let inst = taillard::generate("prop", n, m, seed);
        // A single processing-time edit: the smallest possible workload
        // drift. (A downward edit of a cell already at 1 clamps to a no-op
        // — content-addressing would then hit exactly, so skip those.)
        let neighbour = perturbed(&inst, perturb_seed, 1);
        prop_assume!(neighbour.raw() != inst.raw());
        let config = GpuSolverConfig {
            pool_size: 64,
            placement: DataPlacement::SharedJmPtm,
            fast_forward: true,
            ..Default::default()
        };

        // Cold reference on the perturbed instance.
        let fresh = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let cold = fresh.request(SolveRequest::new(neighbour.clone(), config.clone()));
        prop_assert!(cold.certificate.is_optimal());

        // Warm path: the original's certificate donates its incumbent.
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        service.request(SolveRequest::new(inst, config.clone()));
        let warm = service.request(SolveRequest::new(neighbour.clone(), config));
        prop_assert!(matches!(warm.disposition, CacheDisposition::WarmStart { .. }));
        prop_assert_eq!(warm.request_cost.cache_warm_starts, 1);

        // Soundness: a donated upper bound never changes the proven optimum.
        prop_assert!(warm.certificate.is_optimal());
        prop_assert_eq!(warm.certificate.best_makespan, cold.certificate.best_makespan);
        let sched = warm.certificate.best_schedule.clone().expect("schedule");
        prop_assert_eq!(makespan(&neighbour, &sched), warm.certificate.best_makespan);
    }

    #[test]
    fn cache_round_trip_recomputes_an_identical_cost_report((n, m, seed) in small_instance()) {
        let inst = taillard::generate("prop", n, m, seed);
        let config = GpuSolverConfig {
            pool_size: 64,
            placement: DataPlacement::SharedJmPtm,
            fast_forward: true,
            ..Default::default()
        };
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });

        // store → evict → miss → recompute: the solve is deterministic, the
        // cache only memoizes, so the recomputed bill is bit-identical.
        let first = service.request(SolveRequest::new(inst.clone(), config.clone()));
        prop_assert_eq!(first.disposition, CacheDisposition::Miss);
        let evicted = service.evict_cached(&inst, &config).expect("stored");
        prop_assert_eq!(&evicted, &first.certificate);
        prop_assert_eq!(service.cached_certificates(), 0);

        let second = service.request(SolveRequest::new(inst, config));
        prop_assert_eq!(second.disposition, CacheDisposition::Miss);
        prop_assert_eq!(&second.request_cost, &first.request_cost);
        prop_assert_eq!(&second.certificate, &first.certificate);
    }

    #[test]
    fn branching_partitions_the_search_space((n, m, seed) in small_instance()) {
        let inst = taillard::generate("prop", n, m, seed);
        let problem = FspProblem::new(inst);
        let root = problem.root();
        let children = problem.branch(&root);
        prop_assert_eq!(children.len(), n);
        // Each child schedules a distinct first job, and each has n-1 jobs left.
        let mut firsts: Vec<usize> = children.iter().map(|c| c.prefix_vec()[0]).collect();
        firsts.sort_unstable();
        prop_assert_eq!(firsts, (0..n).collect::<Vec<_>>());
        for child in &children {
            prop_assert_eq!(child.unscheduled().count(), n - 1);
        }
    }
}

proptest! {
    // Every case walks the whole shape × batch-length grid (24 instances, up
    // to 65×20, in a debug build), so a few cases suffice.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_bound_equals_the_single_node_reference(seed in 1i64..1_000_000, salt in any::<u64>()) {
        // One scratch for every shape: the batch entry point must resize it.
        let mut scratch = BoundScratch::new();
        let mut state = salt;
        for n in BATCH_JOBS {
            for m in BATCH_MACHINES {
                let inst = taillard::generate("prop", n, m, seed);
                let lb = JohnsonLowerBound::new(&inst);
                let nodes = mixed_depth_nodes(&inst, LONGEST_BATCH, &mut state);
                let reference: Vec<_> = nodes
                    .iter()
                    .map(|node| {
                        let mut scheduled = vec![false; n];
                        node.prefix().for_each(|j| scheduled[j] = true);
                        lb.bound_prefix(node.front(), &scheduled)
                    })
                    .collect();
                for len in BATCH_LENGTHS {
                    let mut out = vec![0; len];
                    lb.bound_many(&mut scratch, &nodes[..len], &mut out);
                    prop_assert_eq!(&out[..], &reference[..len], "{}x{}, {} nodes", n, m, len);
                }
            }
        }
    }
}

proptest! {
    // Every case walks the whole shape × placement × block × length grid
    // (840 launches in a debug build), so one case suffices.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn functional_kernel_equals_the_single_node_reference(seed in 1i64..1_000_000, salt in any::<u64>()) {
        let mut state = salt;
        for n in LAUNCH_JOBS {
            for m in BATCH_MACHINES {
                let inst = taillard::generate("prop", n, m, seed);
                let lb = JohnsonLowerBound::new(&inst);
                let nodes = mixed_depth_nodes(&inst, LONGEST_LAUNCH, &mut state);
                let reference: Vec<_> = nodes.iter().map(|node| lb.bound_node(node)).collect();
                for placement in [DataPlacement::AllGlobal, DataPlacement::SharedJmPtm] {
                    for block in LAUNCH_BLOCKS {
                        // One engine per shape: launches of every length reuse
                        // its buffers, as a solve does.
                        let mut engine =
                            BoundingEngine::new(lb.data(), placement.clone(), block, 26, LONGEST_LAUNCH);
                        for len in LAUNCH_LENGTHS {
                            let launch = engine.bound_nodes(&nodes[..len]);
                            let at = format!("{n}x{m}, {}, blocks of {block}, {len} nodes", placement.name());
                            prop_assert_eq!(&launch.bounds[..], &reference[..len], "{}", at);
                            prop_assert_eq!(launch.stats.tally, engine.analytic_tally(&nodes[..len]), "{}", at);
                        }
                    }
                }
            }
        }
    }
}
