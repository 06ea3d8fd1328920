//! Workspace-level property-based tests: invariants that must hold for any
//! randomly generated instance, prefix or pool.

use flowshop_gpu_bnb::bb::problem::NodeBound;
use flowshop_gpu_bnb::bb::{Batch, BatchView, BestFirstPool, Child, FspNode, FspProblem, Pool};
use flowshop_gpu_bnb::fsp::bound::LowerBound;
use flowshop_gpu_bnb::fsp::{
    makespan, makespan_prefix, taillard, BoundScratch, JohnsonLowerBound, OneMachineBound, Time,
};
use flowshop_gpu_bnb::gpu_bnb::{
    perturbed, BoundingEngine, CacheDisposition, DataPlacement, GpuSolverConfig, ServiceConfig,
    SolveRequest, SolveService,
};
use proptest::prelude::*;
use std::cmp::Reverse;

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
/// machine counts from one machine (no pair) to the paper's twenty: 5
/// machines (10 pairs) bound a cut-off batch in one pass, 9 (36 pairs) and
/// 20 (190) in two.
const BATCH_JOBS: [usize; 6] = [1, 31, 32, 33, 64, 65];
const BATCH_MACHINES: [usize; 5] = [1, 2, 5, 9, 20];
/// Batch lengths around the eight-lane pass (empty, one lane, a short pass,
/// one full pass, one past it, two passes plus one) and around the 64-node
/// block (one short, one full, one past it, two full plus two).
const BATCH_LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 17, 63, 64, 65, LONGEST_BATCH];
const LONGEST_BATCH: usize = 130;
/// Machine counts of the functional kernel's launches.
const LAUNCH_MACHINES: [usize; 4] = [1, 2, 5, 20];
/// Launch lengths around the 32-lane warp and two 256-thread blocks.
const LAUNCH_LENGTHS: [usize; 7] = [1, 31, 32, 33, 64, 65, LONGEST_LAUNCH];
const LONGEST_LAUNCH: usize = 257;
/// Threads per block: one warp, a full warp plus a short one of 16 lanes,
/// and the paper's 256.
const LAUNCH_BLOCKS: [usize; 3] = [32, 48, 256];
const LAUNCH_JOBS: [usize; 5] = [1, 2, 8, 33, 65];
/// Job counts on both sides of every 32- and 64-bit set-word edge up to
/// two 64-bit words, and one instance spanning seven 32-bit words.
const NODE_JOBS: [usize; 8] = [1, 31, 32, 33, 63, 64, 65, 200];

/// SplitMix64: a seeded stream for building node mixes inside a property.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The jobs `0..n` in a random order.
fn shuffled_jobs(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    order
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
            let order = shuffled_jobs(n, state);
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
        let gpu_bound = engine.bound_nodes(Batch::from_nodes(vec![node.clone()]).view()).bounds[0];
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
    // Every case walks the whole shape × batch-length × cut-off grid (30
    // instances, up to 65×20, in a debug build), so a few cases suffice.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_bound_equals_the_single_node_reference(seed in 1i64..1_000_000, salt in any::<u64>()) {
        // One scratch for every shape and cut-off: the batch entry point
        // must resize it, and the pair order it keeps must never matter.
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
                    let exact = &reference[..len];
                    // The batch's median exact bound splits it into nodes the
                    // cut-off keeps and nodes it prunes.
                    let mut sorted = exact.to_vec();
                    sorted.sort_unstable();
                    let median = sorted.get(len / 2).copied().unwrap_or(0);
                    for cutoff in [0, median, median + 1, Time::MAX] {
                        let mut out = vec![0; len];
                        lb.bound_many(&mut scratch, &nodes[..len], &mut out, cutoff);
                        for (i, (&got, &exact)) in out.iter().zip(exact).enumerate() {
                            let at = format!("{n}x{m}, {len} nodes, cut-off {cutoff}, node {i}");
                            prop_assert!(got <= exact, "{}: {} above the exact {}", at, got, exact);
                            if exact < cutoff {
                                prop_assert_eq!(got, exact, "{}", at);
                            } else {
                                prop_assert!(got >= cutoff, "{}: {} below the cut-off", at, got);
                            }
                        }
                    }
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
            for m in LAUNCH_MACHINES {
                let inst = taillard::generate("prop", n, m, seed);
                let lb = JohnsonLowerBound::new(&inst);
                let nodes = Batch::from_nodes(mixed_depth_nodes(&inst, LONGEST_LAUNCH, &mut state));
                let reference: Vec<_> = nodes.parents().iter().map(|node| lb.bound_node(node)).collect();
                for placement in [DataPlacement::AllGlobal, DataPlacement::SharedJmPtm] {
                    for block in LAUNCH_BLOCKS {
                        // One engine per shape: launches of every length reuse
                        // its buffers, as a solve does.
                        let mut engine =
                            BoundingEngine::new(lb.data(), placement.clone(), block, 26, LONGEST_LAUNCH);
                        for len in LAUNCH_LENGTHS {
                            let launch = engine.bound_nodes(nodes.view().slice(0..len));
                            let at = format!("{n}x{m}, {}, blocks of {block}, {len} nodes", placement.name());
                            prop_assert_eq!(&launch.bounds[..], &reference[..len], "{}", at);
                            prop_assert_eq!(launch.stats.tally, engine.analytic_tally(nodes.view().slice(0..len)), "{}", at);
                        }
                    }
                }
            }
        }
    }
}

/// Machine counts of the children-bound property: 5 machines bound a
/// cut-off batch in one pass, 9 and 20 in two.
const CHILD_MACHINES: [usize; 3] = [5, 9, 20];
/// Children per batch: one lane, around the 64-entry block, two blocks
/// plus two.
const CHILD_LENGTHS: [usize; 5] = [1, 63, 64, 65, LONGEST_CHILDREN];
const LONGEST_CHILDREN: usize = 130;

proptest! {
    // Every case walks the shape × batch-length × cut-off grid, so a few
    // cases suffice.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Bounding `(parent, job)` entries, each child's front advanced inside
    /// its lane, equals building the children (`branch_into`) and bounding
    /// them (`bound_many`) at every cut-off, pruned entries' partial bounds
    /// included, and keeps the cut-off contract against `bound_prefix`.
    /// Parents sit at random depths, the deepest one job short of a leaf;
    /// each entry is a child or, one time in four, its parent itself, and
    /// the entries come in a random order.
    #[test]
    fn children_bound_equals_branch_then_bound(seed in 1i64..1_000_000, salt in any::<u64>()) {
        let mut state = salt;
        for (n, m) in [12, 33].into_iter().flat_map(|n| CHILD_MACHINES.map(|m| (n, m))) {
            let inst = taillard::generate("prop", n, m, seed);
            let problem = FspProblem::new(inst.clone());
            let lb = JohnsonLowerBound::new(&inst);
            let (mut parents, mut entries, mut built) = (Vec::new(), Vec::new(), Vec::new());
            while entries.len() < LONGEST_CHILDREN {
                let depth = (splitmix(&mut state) % n as u64) as usize;
                let parent = FspNode::from_prefix(&inst, &shuffled_jobs(n, &mut state)[..depth]);
                let p = parents.len() as u32;
                let mut children = Vec::new();
                problem.branch_into(&parent, &mut children);
                for child in children {
                    if splitmix(&mut state).is_multiple_of(4) {
                        entries.push(Child::parent_itself(p));
                        built.push(parent.clone());
                    }
                    let job = child.prefix_raw()[depth];
                    entries.push(Child::new(p, job));
                    built.push(child);
                }
                parents.push(parent);
            }
            for i in (1..entries.len()).rev() {
                let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
                entries.swap(i, j);
                built.swap(i, j);
            }
            let reference: Vec<Time> = built
                .iter()
                .map(|node| {
                    let mut scheduled = vec![false; n];
                    node.prefix().for_each(|j| scheduled[j] = true);
                    lb.bound_prefix(node.front(), &scheduled)
                })
                .collect();
            // Two scratches fed the same calls keep the same pair order.
            let (mut via_view, mut via_nodes) = (BoundScratch::new(), BoundScratch::new());
            for len in CHILD_LENGTHS {
                let view = BatchView::new(&parents, &entries[..len]);
                prop_assert!(view.depths().eq(built[..len].iter().map(FspNode::depth)));
                for (i, node) in built[..len].iter().enumerate() {
                    prop_assert!(view.node(i, &inst) == *node, "{}x{}: entry {}", n, m, i);
                }
                let exact = &reference[..len];
                let mut sorted = exact.to_vec();
                sorted.sort_unstable();
                let median = sorted[len / 2];
                for cutoff in [0, median, median + 1, Time::MAX] {
                    let at = format!("{n}x{m}, {len} children, cut-off {cutoff}");
                    let (mut got, mut want) = (vec![0; len], vec![0; len]);
                    lb.bound_children(&mut via_view, view.parents(), view.children(), &mut got, cutoff);
                    lb.bound_many(&mut via_nodes, &built[..len], &mut want, cutoff);
                    prop_assert_eq!(&got, &want, "{}: view vs branch-then-bound", at);
                    for (i, (&got, &exact)) in got.iter().zip(exact).enumerate() {
                        prop_assert!(got <= exact, "{}, entry {}: {} above the exact {}", at, i, got, exact);
                        if exact < cutoff {
                            prop_assert_eq!(got, exact, "{}, entry {}", at, i);
                        } else {
                            prop_assert!(got >= cutoff, "{}, entry {}: {} below the cut-off", at, i, got);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    // Every case walks all 32 shapes, checking a node at every depth of one
    // random order (up to 200 deep), so a few cases suffice.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The node oracle: built child by child along a random order, a node
    /// agrees at every depth with the schedule recurrence and with its
    /// prefix as a set, across every set-word edge.
    #[test]
    fn nodes_agree_with_their_prefix_across_word_edges(seed in 1i64..1_000_000, salt in any::<u64>()) {
        let mut state = salt;
        for n in NODE_JOBS {
            for m in BATCH_MACHINES {
                let inst = taillard::generate("prop", n, m, seed);
                let order = shuffled_jobs(n, &mut state);
                let mut node = FspNode::root(&inst);
                for depth in 0..=n {
                    let prefix = &order[..depth];
                    let at = format!("{n}x{m}, depth {depth}");
                    prop_assert_eq!(node.front(), makespan_prefix(&inst, prefix).as_slice(), "{}", at);
                    prop_assert_eq!(node.depth(), depth, "{}", at);
                    prop_assert_eq!(node.prefix_vec(), prefix.to_vec(), "{}", at);
                    prop_assert!(FspNode::from_prefix(&inst, &node.prefix_vec()) == node, "{}", at);
                    let mut rest: Vec<usize> = order[depth..].to_vec();
                    rest.sort_unstable();
                    prop_assert_eq!(node.unscheduled().collect::<Vec<_>>(), rest, "{}", at);
                    for job in 0..n {
                        prop_assert_eq!(node.is_scheduled(job), prefix.contains(&job), "{} job {}", at, job);
                    }
                    for job in [n, n + 1, n.next_multiple_of(64), 1_000] {
                        prop_assert!(!node.is_scheduled(job), "{} job {}", at, job);
                    }
                    if depth < n {
                        node = node.child(&inst, order[depth]);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Best-first pops by bound ascending, then depth descending, then
    /// insertion order, whatever the interleaving of pushes and pops: the
    /// oracle is a stable sort of the pending nodes by `(bound,
    /// Reverse(depth))`, the order of a binary heap with an insertion
    /// counter. Bounds mix two clusters far apart (0–3 and 10,000–10,003),
    /// so a push lands below the current minimum, and pops run the pool
    /// dry and refill it; depths come from a small range so both tie-breaks
    /// fire, and random prefixes tell equal-key nodes apart.
    #[test]
    fn best_first_pops_by_bound_then_depth_then_insertion(
        ops in proptest::collection::vec((0u32..5, 0u32..8, 0usize..4), 1..300),
        salt in any::<u64>(),
    ) {
        let inst = taillard::generate("prop", 9, 3, 7);
        let mut state = salt;
        let mut pool = BestFirstPool::new();
        let mut pending: Vec<FspNode> = Vec::new();
        for (step, &(kind, key, depth)) in ops.iter().enumerate() {
            if kind < 3 {
                let bound = if key < 4 { key } else { 10_000 + key - 4 };
                let mut node = FspNode::from_prefix(&inst, &shuffled_jobs(9, &mut state)[..depth]);
                node.set_bound(bound);
                pending.push(node.clone());
                pool.push(node);
            } else {
                let next = pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, node)| (node.bound(), Reverse(node.depth())))
                    .map(|(i, _)| i);
                let expected = next.map(|i| pending.remove(i));
                prop_assert_eq!(pool.pop(), expected, "step {}", step);
            }
            prop_assert_eq!(pool.len(), pending.len(), "step {}", step);
            let best = pending.iter().map(FspNode::bound).min();
            prop_assert_eq!(pool.best_bound(), best, "step {}", step);
        }
        let mut rest = std::mem::take(&mut pending);
        rest.sort_by_key(|node| (node.bound(), Reverse(node.depth())));
        let drained: Vec<FspNode> = std::iter::from_fn(|| pool.pop()).collect();
        prop_assert_eq!(drained, rest);
    }
}
