//! Workspace-level service-equivalence suite.
//!
//! The solve service's contract (see `docs/SERVICE.md`) is that cross-solve
//! batching is **accounting-transparent**: jobs with the same backend key
//! run their batches back to back on one shared fleet, but a backend call
//! never carries two jobs' nodes, so — without persistent lookahead
//! sessions — every job's outcome is **bit-identical** to a standalone
//! `GpuBnbSolver` run of the same spec. This suite pins that down five ways:
//!
//! 1. N concurrent jobs on *distinct* instances, each checked against its
//!    own standalone solve: makespan, node counters, every cost counter and
//!    the latency histograms all equal;
//! 2. N concurrent jobs on the *same* instance (one shared backend):
//!    bit-identical to each other and to the standalone solve, and the
//!    per-job `CostReport`s sum exactly to `SolveService::shared_cost`;
//! 3. cancellation regression — a job cancelled while queued never touches
//!    the fleet; a job cancelled while running stops with a usable anytime
//!    outcome;
//! 4. deadline regression — a zero deadline expires on the job's first
//!    round, again with a full anytime outcome and zero device work;
//! 5. history-free bills — with persistent lookahead sessions, a request
//!    repeated after the service went idle, or after another request, is
//!    billed exactly as on a fresh service: the service drops a backend
//!    once no job holds its key, so no session outlives its jobs.
//!
//! Like `backend_equivalence`, the CI `backend-matrix` job runs this suite
//! once per backend by setting `BACKEND_FILTER`; unset, every kind runs.

use std::time::Duration;

use flowshop_gpu_bnb::bb::{frozen_pool, FrozenPool, FspProblem};
use flowshop_gpu_bnb::fsp::{taillard, Instance};
use flowshop_gpu_bnb::gpu_bnb::{
    BackendKind, CachePolicy, DataPlacement, FleetTopology, GpuBnbSolver, GpuSolverConfig, JobSpec,
    JobStatus, JobStopReason, ServiceConfig, SolveRequest, SolveService,
};

/// The backends this suite checks: `BACKEND_FILTER` when set, the full
/// roster otherwise (mirrors `backend_equivalence::gated_kinds`).
fn gated_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            vec![kind]
        }
        _ => {
            let mut kinds = BackendKind::ALL.to_vec();
            for devices in [1, 4] {
                kinds.push(BackendKind::Fleet(FleetTopology::uniform(devices)));
            }
            kinds.push(BackendKind::Fleet(
                FleetTopology::uniform(2).mixed().stealing(),
            ));
            kinds
        }
    }
}

/// The backends with persistent pipeline sessions under lookahead, where a
/// kept backend would carry one request's timeline into the next:
/// `BACKEND_FILTER` when set, `gpu-pipelined` and `fleet:2:hetero:steal`
/// otherwise.
fn session_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => gated_kinds(),
        _ => vec![
            BackendKind::GpuPipelined,
            BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing()),
        ],
    }
}

/// Sessionless configuration (no lookahead): the setting under which the
/// service promises bit-exact per-job equivalence with standalone solves.
fn config_for(kind: BackendKind) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: 64,
        placement: DataPlacement::SharedJmPtm,
        backend: kind,
        fast_forward: true,
        ..Default::default()
    }
}

/// A small instance plus its deterministic frozen starting pool.
fn workload(jobs: usize, machines: usize, seed: i64) -> (Instance, FrozenPool) {
    let label = format!("svc-{jobs}x{machines}-s{seed}");
    let inst = taillard::generate(label, jobs, machines, seed);
    let frozen = frozen_pool(&FspProblem::new(inst.clone()), 48);
    (inst, frozen)
}

/// The standalone reference: the same spec through `GpuBnbSolver` alone.
fn standalone(
    inst: &Instance,
    frozen: &FrozenPool,
    config: &GpuSolverConfig,
) -> flowshop_gpu_bnb::gpu_bnb::GpuSolveOutcome {
    GpuBnbSolver::new(inst.clone(), config.clone()).solve_from(
        frozen.nodes.clone(),
        Some(frozen.upper_bound),
        frozen.best_schedule.clone(),
    )
}

/// A service spec replaying the same frozen start as [`standalone`].
fn spec_for(inst: &Instance, frozen: &FrozenPool, config: &GpuSolverConfig) -> JobSpec {
    let mut spec =
        JobSpec::new(inst.clone(), config.clone()).with_initial_nodes(frozen.nodes.clone());
    if let Some(schedule) = frozen.best_schedule.clone() {
        spec = spec.with_incumbent(schedule, frozen.upper_bound);
    }
    spec
}

#[test]
fn concurrent_jobs_match_standalone_solves_on_distinct_instances() {
    let workloads = [workload(10, 6, 31), workload(9, 6, 21), workload(12, 8, 3)];
    for kind in gated_kinds() {
        let config = config_for(kind);
        let service = SolveService::new(ServiceConfig { max_concurrent: 3 });
        let handles: Vec<_> = workloads
            .iter()
            .map(|(inst, frozen)| service.submit(spec_for(inst, frozen, &config)))
            .collect();
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), workloads.len(), "{kind}");

        for ((inst, frozen), handle) in workloads.iter().zip(&handles) {
            let concurrent = handle.outcome().expect("job finished");
            let reference = standalone(inst, frozen, &config);
            assert_eq!(concurrent.stop, JobStopReason::Exhausted, "{kind}");
            assert_eq!(
                concurrent.best_makespan, reference.best_makespan,
                "{kind}: concurrent makespan diverged from the standalone solve"
            );
            assert_eq!(
                concurrent.best_schedule, reference.best_schedule,
                "{kind}: schedule diverged"
            );
            assert_eq!(
                concurrent.stats, reference.stats,
                "{kind}: node counters diverged — the service explored a different tree"
            );
            assert_eq!(
                concurrent.cost, reference.cost,
                "{kind}: per-job cost counters diverged from the standalone solve"
            );
            assert_eq!(
                concurrent.latencies, reference.latencies,
                "{kind}: latency histograms diverged"
            );
            assert_eq!(concurrent.gap, 0.0, "{kind}: exhausted ⇒ gap closed");
        }
    }
}

#[test]
fn same_instance_jobs_share_one_backend_and_stay_exact() {
    let (inst, frozen) = workload(10, 6, 31);
    for kind in gated_kinds() {
        let config = config_for(kind);
        let service = SolveService::new(ServiceConfig { max_concurrent: 3 });
        let handles: Vec<_> = (0..3)
            .map(|_| service.submit(spec_for(&inst, &frozen, &config)))
            .collect();
        service.run_until_idle();

        let reference = standalone(&inst, &frozen, &config);
        let mut summed = flowshop_gpu_bnb::gpu_bnb::CostReport::default();
        for handle in &handles {
            let outcome = handle.outcome().expect("job finished");
            assert_eq!(outcome.best_makespan, reference.best_makespan, "{kind}");
            assert_eq!(outcome.stats, reference.stats, "{kind}");
            assert_eq!(
                outcome.cost, reference.cost,
                "{kind}: sharing one backend must not leak accounting across jobs"
            );
            summed.absorb(&outcome.cost);
        }
        // The per-job reports partition the shared fleet accounting exactly:
        // nothing double-counted, nothing lost.
        assert_eq!(
            summed,
            service.shared_cost(),
            "{kind}: per-job cost reports must sum to the shared accounting"
        );
    }
}

#[test]
fn cancellation_keeps_an_anytime_outcome() {
    let (inst, frozen) = workload(12, 8, 3);
    for kind in gated_kinds() {
        let config = config_for(kind);

        // Cancelled while queued (capacity 1 keeps the victim waiting): the
        // job must finish Cancelled without ever touching the fleet.
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let running = service.submit(spec_for(&inst, &frozen, &config));
        let queued = service.submit(spec_for(&inst, &frozen, &config));
        service.run_rounds(1);
        queued.cancel();
        service.run_until_idle();
        assert_eq!(queued.status(), JobStatus::Cancelled, "{kind}");
        let victim = queued.outcome().expect("cancelled jobs report an outcome");
        assert_eq!(victim.stop, JobStopReason::Cancelled, "{kind}");
        assert_eq!(victim.cost.nodes_bounded(), 0, "{kind}: never ran");
        assert_eq!(
            victim.best_makespan, frozen.upper_bound,
            "{kind}: the seeded incumbent survives cancellation"
        );
        assert!(victim.gap >= 0.0 && victim.gap <= 1.0, "{kind}");
        assert_eq!(running.status(), JobStatus::Done, "{kind}");

        // Cancelled while running: stops at the next round with the best
        // incumbent so far and a device-side bill for the work it did.
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let handle = service.submit(spec_for(&inst, &frozen, &config));
        service.run_rounds(2);
        handle.cancel();
        service.run_until_idle();
        assert_eq!(handle.status(), JobStatus::Cancelled, "{kind}");
        let outcome = handle.outcome().expect("outcome");
        assert_eq!(outcome.stop, JobStopReason::Cancelled, "{kind}");
        assert!(
            outcome.stats.bounded > 0,
            "{kind}: two rounds must bound some nodes"
        );
        assert!(outcome.best_makespan <= frozen.upper_bound, "{kind}");
        assert!(
            outcome.lower_bound <= outcome.best_makespan,
            "{kind}: the anytime certificate must bracket the incumbent"
        );
    }
}

#[test]
fn a_zero_deadline_expires_with_a_full_anytime_outcome() {
    let (inst, frozen) = workload(10, 6, 31);
    for kind in gated_kinds() {
        let config = GpuSolverConfig {
            time_limit: Some(Duration::ZERO),
            ..config_for(kind)
        };
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let spec = spec_for(&inst, &frozen, &config);
        let handle = service.submit(spec);
        service.run_until_idle();

        assert_eq!(handle.status(), JobStatus::DeadlineExpired, "{kind}");
        let outcome = handle.outcome().expect("outcome");
        assert_eq!(outcome.stop, JobStopReason::Deadline, "{kind}");
        // Expired before its first batch: all accounting is the host-side
        // charge for the seeded pool, none of it device work.
        assert_eq!(outcome.stats.bounded, 0, "{kind}");
        assert_eq!(outcome.cost.device_nodes, 0, "{kind}");
        assert_eq!(outcome.cost.host_nodes, frozen.nodes.len() as u64, "{kind}");
        // The anytime result still stands: seeded incumbent, proven lower
        // bound, meaningful gap.
        assert_eq!(outcome.best_makespan, frozen.upper_bound, "{kind}");
        assert!(outcome.best_schedule.is_some(), "{kind}");
        assert!(outcome.lower_bound <= outcome.best_makespan, "{kind}");
        assert!(outcome.gap >= 0.0 && outcome.gap <= 1.0, "{kind}");
    }
}

#[test]
fn a_request_is_billed_the_same_whatever_the_service_solved_before() {
    let a = taillard::generate("svc-a", 8, 8, 7919 + 13);
    let b = taillard::generate("svc-b", 8, 8, 2 * 7919 + 13);
    for kind in session_kinds() {
        let config = GpuSolverConfig {
            pool_size: 192,
            lookahead: true,
            ..config_for(kind)
        };
        let request = |inst: &Instance| {
            SolveRequest::new(inst.clone(), config.clone()).with_cache(CachePolicy::Disabled)
        };
        let fresh = |inst: &Instance| {
            SolveService::with_defaults()
                .request(request(inst))
                .request_cost
        };
        let (fresh_a, fresh_b) = (fresh(&a), fresh(&b));

        // The same request again, once the service went idle.
        let service = SolveService::with_defaults();
        let first = service.request(request(&a)).request_cost;
        assert!(service.is_idle(), "{kind}");
        let repeat = service.request(request(&a)).request_cost;
        assert_eq!(first, fresh_a, "{kind}");
        assert_eq!(
            repeat, first,
            "{kind}: the repeat rode the first request's pipeline session"
        );

        // Interleaved releases: A, then B, then A again.
        let service = SolveService::with_defaults();
        for (name, inst, expected) in [("A", &a, fresh_a), ("B", &b, fresh_b), ("A", &a, fresh_a)] {
            assert_eq!(
                service.request(request(inst)).request_cost,
                expected,
                "{kind}: request {name} billed other than on a fresh service"
            );
        }
    }
}
