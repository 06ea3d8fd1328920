//! End-to-end integration tests spanning every crate of the workspace: all
//! four solvers (serial, multi-core, GPU-offloaded, and the GPU-offloaded
//! solve as a service job) must agree on the optimum of small instances,
//! starting either from the root or from a shared frozen pool.

use flowshop_gpu_bnb::bb::{frozen_pool, Batch, FspProblem, SerialSolver, SolverConfig};
use flowshop_gpu_bnb::fsp::brute::brute_force_optimal;
use flowshop_gpu_bnb::fsp::{makespan, taillard};
use flowshop_gpu_bnb::gpu_bnb::{
    BackendKind, DataPlacement, GpuBnbSolver, GpuSolverConfig, SolveRequest, SolveService,
};
use flowshop_gpu_bnb::multicore_bnb::{MulticoreConfig, MulticoreSolver};

fn gpu_config(pool: usize) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: pool,
        placement: DataPlacement::SharedJmPtm,
        ..Default::default()
    }
}

#[test]
fn all_four_solvers_agree_with_brute_force() {
    for seed in [11, 23, 47] {
        let inst = taillard::generate(format!("e2e-{seed}"), 7, 5, seed);
        let (_, expected) = brute_force_optimal(&inst);

        let serial = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        assert_eq!(serial.best_makespan, expected, "serial, seed {seed}");

        let multicore = MulticoreSolver::new(
            inst.clone(),
            MulticoreConfig {
                threads: 3,
                ..Default::default()
            },
        )
        .solve();
        assert_eq!(multicore.best_makespan, expected, "multicore, seed {seed}");

        let gpu = GpuBnbSolver::new(inst.clone(), gpu_config(64)).solve();
        assert_eq!(gpu.best_makespan, expected, "gpu, seed {seed}");

        // The same off-load loop bounding on the CPU thread pool, without
        // the NEH seed: it must reach the optimum's leaves itself.
        let offload_cpu = GpuBnbSolver::new(
            inst.clone(),
            GpuSolverConfig {
                backend: BackendKind::Multicore,
                multicore_threads: 3,
                use_initial_ub: false,
                ..gpu_config(64)
            },
        )
        .solve();
        assert_eq!(
            offload_cpu.best_makespan, expected,
            "off-load on multicore, seed {seed}"
        );

        let service = SolveService::with_defaults()
            .request(SolveRequest::new(inst.clone(), gpu_config(64)))
            .certificate;
        assert_eq!(service.best_makespan, expected, "service, seed {seed}");

        // Every reported schedule must actually achieve the reported makespan.
        for schedule in [
            serial.best_schedule,
            multicore.best_schedule,
            gpu.best_schedule,
            offload_cpu.best_schedule,
            service.best_schedule,
        ]
        .into_iter()
        .flatten()
        {
            assert_eq!(makespan(&inst, &schedule), expected);
        }
    }
}

#[test]
fn frozen_pool_is_solver_agnostic() {
    let inst = taillard::generate("e2e-frozen", 8, 4, 321);
    let (_, expected) = brute_force_optimal(&inst);
    let problem = FspProblem::new(inst);
    let frozen = frozen_pool(&problem, 48);

    let serial = SerialSolver::new(problem.clone(), SolverConfig::default()).solve_from(
        frozen.nodes.clone(),
        Some(frozen.upper_bound),
        frozen.best_schedule.clone(),
    );
    let gpu = GpuBnbSolver::from_problem(problem.clone(), gpu_config(32)).solve_from(
        frozen.nodes.clone(),
        Some(frozen.upper_bound),
        frozen.best_schedule.clone(),
    );
    let multicore = MulticoreSolver::from_problem(
        problem,
        MulticoreConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .solve_from(frozen.nodes, Some(frozen.upper_bound), frozen.best_schedule);

    assert_eq!(serial.best_makespan, expected);
    assert_eq!(gpu.best_makespan, expected);
    assert_eq!(multicore.best_makespan, expected);
}

#[test]
fn gpu_bounds_equal_host_bounds_through_the_whole_stack() {
    // The functional GPU path and the host bound must agree node for node on
    // a frozen pool of a non-trivial instance.
    use flowshop_gpu_bnb::gpu_bnb::BoundingEngine;

    let inst = taillard::generate("e2e-bounds", 15, 10, 5);
    let problem = FspProblem::new(inst);
    let frozen = frozen_pool(&problem, 128);
    let host_lb = problem.bound_fn();

    let mut engine = BoundingEngine::new(
        host_lb.data(),
        DataPlacement::SharedJmPtm,
        256,
        26,
        frozen.len(),
    );
    let batch = Batch::from_nodes(frozen.nodes);
    let result = engine.bound_nodes(batch.view());
    for (node, &gpu_bound) in batch.parents().iter().zip(&result.bounds) {
        let host = host_lb.bound_prefix_fn(node.front(), |j| node.is_scheduled(j));
        assert_eq!(gpu_bound, host);
        // Every frozen node survived elimination, so its bound is below the
        // incumbent.
        assert!(gpu_bound < frozen.upper_bound);
    }
}

#[test]
fn fast_forward_and_functional_explorations_are_identical() {
    let inst = taillard::generate("e2e-ff", 9, 6, 77);
    let functional = GpuBnbSolver::new(
        inst.clone(),
        GpuSolverConfig {
            pool_size: 64,
            fast_forward: false,
            ..Default::default()
        },
    )
    .solve();
    let fast = GpuBnbSolver::new(
        inst,
        GpuSolverConfig {
            pool_size: 64,
            fast_forward: true,
            ..Default::default()
        },
    )
    .solve();
    assert_eq!(functional.best_makespan, fast.best_makespan);
    assert_eq!(functional.stats.bounded, fast.stats.bounded);
    assert_eq!(functional.gpu.iterations, fast.gpu.iterations);
    assert_eq!(functional.gpu.kernel_time, fast.gpu.kernel_time);
}
