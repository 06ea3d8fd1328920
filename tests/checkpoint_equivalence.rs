//! Checkpoint equivalence suite: pausing a solve at a batch boundary and
//! resuming it (see `gpu_bnb::checkpoint`).
//!
//! The contract has two parts, and this suite pins each down:
//!
//! 1. **Checkpoints survive their serialized form** (property test) — a
//!    checkpoint round-trips through JSON bit-for-bit.
//! 2. **Checkpoint/resume is certificate-preserving** — pausing at any
//!    batch boundary and resuming (standalone or through the solve
//!    service, with concurrent jobs sharing the fleet) ends with the same
//!    certificate as the uninterrupted run: makespan, schedule, and the
//!    summed `CostReport`. The two legs' `GpuRunStats` also add up to the
//!    uninterrupted run's (that test runs its three fixed backends
//!    whatever the filter). A checkpoint whose incumbent its schedule does
//!    not achieve, or whose frontier bounds are not the nodes' bounds, is
//!    refused instead of resumed (on the pipelined backend whatever the
//!    filter).
//!
//! Everything is modelled/deterministic — no timing flake.
//!
//! Like the other equivalence suites, this one honours `BACKEND_FILTER`
//! (the CI `backend-matrix` job): a filter pins the backend the
//! checkpoint/resume tests run on, and unset runs a representative roster.

use flowshop_gpu_bnb::bb::{frozen_pool, FrozenPool, FspProblem};
use flowshop_gpu_bnb::fsp::brute::brute_force_optimal;
use flowshop_gpu_bnb::fsp::{taillard, Instance, Time};
use flowshop_gpu_bnb::gpu_bnb::{
    BackendKind, CostReport, DataPlacement, FleetTopology, GpuBnbSolver, GpuRunStats,
    GpuSolveOutcome, GpuSolverConfig, JobSpec, JobStopReason, ServiceConfig, SolveCheckpoint,
    SolveService,
};
use proptest::prelude::*;

/// Backends the checkpoint/resume tests exercise: any pinned backend, or a
/// representative roster (single-device and fleet) when unset.
fn checkpoint_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            vec![kind]
        }
        _ => vec![
            BackendKind::Gpu,
            BackendKind::GpuPipelined,
            BackendKind::Fleet(FleetTopology::uniform(2)),
            BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing()),
        ],
    }
}

/// Sessionless (no-lookahead) configuration: the setting under which
/// checkpoint/resume promises bit-exactness.
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
    let label = format!("checkpoint-{jobs}x{machines}-s{seed}");
    let inst = taillard::generate(label, jobs, machines, seed);
    let frozen = frozen_pool(&FspProblem::new(inst.clone()), 48);
    (inst, frozen)
}

fn solve(inst: &Instance, frozen: &FrozenPool, config: &GpuSolverConfig) -> GpuSolveOutcome {
    GpuBnbSolver::new(inst.clone(), config.clone()).solve_from(
        frozen.nodes.clone(),
        Some(frozen.upper_bound),
        frozen.best_schedule.clone(),
    )
}

#[test]
fn resume_at_any_batch_boundary_reproduces_the_certificate() {
    let (inst, frozen) = workload(11, 7, 9);
    for kind in checkpoint_kinds() {
        let config = config_for(kind);
        let uninterrupted = solve(&inst, &frozen, &config);
        assert!(uninterrupted.is_optimal(), "{kind}");
        for after in [1u64, 2, 5] {
            let paused = solve(
                &inst,
                &frozen,
                &GpuSolverConfig {
                    checkpoint_after: Some(after),
                    ..config.clone()
                },
            );
            let Some(checkpoint) = paused.checkpoint.clone() else {
                // The solve finished inside the budget — nothing to resume.
                assert!(paused.is_optimal(), "{kind}");
                continue;
            };
            // The checkpoint survives its serialized form.
            let restored =
                SolveCheckpoint::from_json(&checkpoint.to_json()).expect("checkpoint parses");
            assert_eq!(restored, checkpoint, "{kind}: JSON round trip drifted");

            let resumed = GpuBnbSolver::new(inst.clone(), config.clone())
                .resume(&restored)
                .expect("the solve's own checkpoint resumes");
            assert!(resumed.is_optimal(), "{kind} after {after}");
            assert_eq!(
                resumed.best_makespan, uninterrupted.best_makespan,
                "{kind} after {after}: makespan diverged"
            );
            assert_eq!(
                resumed.best_schedule, uninterrupted.best_schedule,
                "{kind} after {after}: schedule diverged"
            );
            assert_eq!(
                resumed.cost, uninterrupted.cost,
                "{kind} after {after}: summed cost diverged from the uninterrupted run"
            );
            assert_eq!(
                paused.stats.bounded + resumed.stats.bounded,
                uninterrupted.stats.bounded,
                "{kind} after {after}: the two legs must partition the bounded set"
            );
        }
    }
}

#[test]
fn chained_checkpoints_still_reach_the_uninterrupted_certificate() {
    // Pause, resume, pause again, resume again: `checkpoint_after` counts
    // the batches of each leg, so a chain of short legs must still land on
    // the uninterrupted certificate.
    let (inst, frozen) = workload(11, 7, 9);
    for kind in checkpoint_kinds() {
        let config = config_for(kind);
        let uninterrupted = solve(&inst, &frozen, &config);
        let paused_config = GpuSolverConfig {
            checkpoint_after: Some(2),
            ..config.clone()
        };
        let mut leg = solve(&inst, &frozen, &paused_config);
        let mut legs = 1;
        while let Some(checkpoint) = leg.checkpoint.clone() {
            let restored =
                SolveCheckpoint::from_json(&checkpoint.to_json()).expect("checkpoint parses");
            leg = GpuBnbSolver::new(inst.clone(), paused_config.clone())
                .resume(&restored)
                .expect("the solve's own checkpoint resumes");
            legs += 1;
            assert!(legs < 1_000, "{kind}: the chain must terminate");
        }
        assert!(leg.is_optimal(), "{kind}");
        assert_eq!(leg.best_makespan, uninterrupted.best_makespan, "{kind}");
        assert_eq!(leg.best_schedule, uninterrupted.best_schedule, "{kind}");
        assert_eq!(
            leg.cost, uninterrupted.cost,
            "{kind}: {legs} chained legs must sum to the uninterrupted cost"
        );
    }
}

#[test]
fn a_tampered_checkpoint_is_refused_not_resumed() {
    // A checkpoint file is outside input: an incumbent its schedule does
    // not achieve, or frontier bounds raised to the incumbent, would resume
    // into a wrong makespan or a wrong optimality certificate. Both the
    // standalone solver and a service job must refuse them.
    let config = GpuSolverConfig {
        pool_size: 32,
        ..config_for(BackendKind::GpuPipelined)
    };
    let paused_config = GpuSolverConfig {
        checkpoint_after: Some(2),
        ..config.clone()
    };
    let mut checked = 0;
    for s in 1..=8i64 {
        let inst = taillard::generate(format!("tamper-s{s}"), 9, 5, s * 31 + 7);
        let paused = GpuBnbSolver::new(inst.clone(), paused_config.clone()).solve();
        let Some(checkpoint) = paused.checkpoint else {
            continue;
        };
        let optimum = brute_force_optimal(&inst).1;
        let solver = GpuBnbSolver::new(inst.clone(), config.clone());
        let resumed = solver
            .resume(&checkpoint)
            .expect("the untouched checkpoint");
        assert_eq!(resumed.best_makespan, optimum, "s = {s}");

        // Below the optimum, so a resumed solve could never correct it.
        let mut low_incumbent = checkpoint.clone();
        low_incumbent.upper_bound = optimum - 5;
        let mut raised_frontier = checkpoint.clone();
        for (_, bound) in &mut raised_frontier.frontier {
            *bound = checkpoint.upper_bound;
        }
        let mut tampered = vec![("a lowered incumbent", low_incumbent)];
        if raised_frontier != checkpoint {
            tampered.push(("a raised frontier", raised_frontier));
        }
        for (what, bad) in tampered {
            assert!(solver.resume(&bad).is_err(), "s = {s}: {what} resumed");
            assert!(
                JobSpec::new(inst.clone(), config.clone())
                    .resume_from(&bad)
                    .is_err(),
                "s = {s}: {what} became a job"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "only {checked} tampered checkpoints checked");
}

#[test]
fn a_job_resumed_through_the_service_matches_the_uninterrupted_solve() {
    // Satellite regression: `JobSpec::resume_from` under the service, with
    // concurrent jobs sharing the fleet, still ends with the uninterrupted
    // certificate — and the per-job reports still partition the shared
    // accounting exactly (the absorbed checkpoint cost is carved to the
    // resumed job).
    let (inst, frozen) = workload(11, 7, 9);
    for kind in checkpoint_kinds() {
        let config = config_for(kind);
        let uninterrupted = solve(&inst, &frozen, &config);
        let paused = solve(
            &inst,
            &frozen,
            &GpuSolverConfig {
                checkpoint_after: Some(2),
                ..config.clone()
            },
        );
        let Some(checkpoint) = paused.checkpoint else {
            panic!("{kind}: the workload must outlive two batches");
        };

        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let resumed_job = service.submit(
            JobSpec::new(inst.clone(), config.clone())
                .resume_from(&checkpoint)
                .expect("the solve's own checkpoint resumes"),
        );
        let fresh_job = {
            let mut spec =
                JobSpec::new(inst.clone(), config.clone()).with_initial_nodes(frozen.nodes.clone());
            if let Some(schedule) = frozen.best_schedule.clone() {
                spec = spec.with_incumbent(schedule, frozen.upper_bound);
            }
            service.submit(spec)
        };
        service.run_until_idle();

        let resumed = resumed_job.outcome().expect("job finished");
        let fresh = fresh_job.outcome().expect("job finished");
        assert_eq!(resumed.stop, JobStopReason::Exhausted, "{kind}");
        assert_eq!(
            resumed.best_makespan, uninterrupted.best_makespan,
            "{kind}: resumed service job diverged from the uninterrupted solve"
        );
        assert_eq!(
            resumed.best_schedule, uninterrupted.best_schedule,
            "{kind}: schedule diverged"
        );
        assert_eq!(
            resumed.cost, uninterrupted.cost,
            "{kind}: checkpoint cost + continued work must equal the uninterrupted bill"
        );
        assert_eq!(
            resumed.lower_bound, resumed.best_makespan,
            "{kind}: exhausted ⇒ the certificate is closed"
        );
        assert_eq!(fresh.best_makespan, uninterrupted.best_makespan, "{kind}");
        let mut summed = CostReport::default();
        summed.absorb(&resumed.cost);
        summed.absorb(&fresh.cost);
        assert_eq!(
            summed,
            service.shared_cost(),
            "{kind}: per-job reports must still partition the shared accounting"
        );
    }
}

/// Every modelled field of a run's `GpuRunStats` (all but the wall time),
/// durations in nanoseconds.
fn modelled_fields(gpu: &GpuRunStats) -> [u128; 9] {
    [
        gpu.iterations.into(),
        gpu.nodes_bounded.into(),
        gpu.kernel_time.as_nanos(),
        gpu.transfer_time.as_nanos(),
        gpu.overlapped_time.as_nanos(),
        gpu.upload_bytes.into(),
        gpu.download_bytes.into(),
        gpu.launches.into(),
        gpu.serial_accesses.into(),
    ]
}

/// The modelled fields of a run paused by a checkpoint plus those of the
/// run that resumed it.
fn two_legs(paused: &GpuRunStats, resumed: &GpuRunStats) -> [u128; 9] {
    let (a, b) = (modelled_fields(paused), modelled_fields(resumed));
    std::array::from_fn(|i| a[i] + b[i])
}

#[test]
fn gpu_run_stats_match_across_service_jobs_and_checkpoint_legs() {
    let inst = taillard::generate("gpu-stats-9x5", 9, 5, 31);
    for kind in [
        BackendKind::Gpu,
        BackendKind::GpuPipelined,
        BackendKind::Sequential,
    ] {
        let config = GpuSolverConfig {
            pool_size: 32,
            backend: kind,
            fast_forward: true,
            ..Default::default()
        };
        let whole = GpuBnbSolver::new(inst.clone(), config.clone()).solve();
        let fields = modelled_fields(&whole.gpu);
        // A fresh run's stats are its batches' share of the cost report.
        let cost = &whole.cost;
        let expected: [u128; 9] = [
            cost.batches,
            whole.stats.bounded,
            cost.kernel_nanos,
            cost.transfer_nanos,
            cost.schedule_nanos,
            cost.h2d_bytes,
            cost.d2h_bytes,
            cost.launches,
            cost.serial_accesses,
        ]
        .map(u128::from);
        assert_eq!(
            fields, expected,
            "{kind}: stats disagree with the cost report"
        );
        assert!(whole.gpu.iterations > 3, "{kind}: need room to pause");
        assert!(!whole.gpu.kernel_time.is_zero(), "{kind}");

        let service = SolveService::with_defaults();
        let job = service.submit(JobSpec::new(inst.clone(), config.clone()));
        service.run_until_idle();
        let job = job.outcome().expect("job finished");
        assert_eq!(
            modelled_fields(&job.gpu),
            fields,
            "{kind}: a service job's stats must equal the standalone solve's"
        );

        for after in [0u64, 1, 3] {
            let paused = GpuBnbSolver::new(
                inst.clone(),
                GpuSolverConfig {
                    checkpoint_after: Some(after),
                    ..config.clone()
                },
            )
            .solve();
            let checkpoint = paused.checkpoint.as_ref().expect("the solve paused");

            let resumed = GpuBnbSolver::new(inst.clone(), config.clone())
                .resume(checkpoint)
                .expect("the solve's own checkpoint resumes");
            assert_eq!(
                two_legs(&paused.gpu, &resumed.gpu),
                fields,
                "{kind} after {after}: solver legs must add up to the whole run"
            );

            let service = SolveService::with_defaults();
            let job = service.submit(
                JobSpec::new(inst.clone(), config.clone())
                    .resume_from(checkpoint)
                    .expect("the solve's own checkpoint resumes"),
            );
            service.run_until_idle();
            let job = job.outcome().expect("job finished");
            assert_eq!(
                two_legs(&paused.gpu, &job.gpu),
                fields,
                "{kind} after {after}: solver and service legs must add up to the whole run"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `SolveCheckpoint::to_json` ∘ `from_json` is the identity for
    /// arbitrary checkpoints — incumbent or not, empty frontier or not,
    /// every cost counter populated.
    #[test]
    fn checkpoints_round_trip_through_json(
        jobs in 2usize..10,
        machines in 2usize..6,
        has_upper in any::<bool>(),
        upper_raw in 100u32..5_000,
        counter_seed in any::<u64>(),
        raw_frontier in proptest::collection::vec(
            (proptest::collection::vec(0usize..10, 0..6), 50u32..5_000),
            0..8,
        ),
    ) {
        let upper = has_upper.then_some(upper_raw);
        // Fill every counter from the seed so no field is trivially zero.
        let mut cost = CostReport::default();
        let mut state = counter_seed;
        for (name, _) in CostReport::default().counters() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            prop_assert!(cost.set_counter(name, state >> 16));
        }
        // Frontier prefixes must be duplicate-free job lists within range.
        let frontier: Vec<(Vec<usize>, Time)> = raw_frontier
            .into_iter()
            .map(|(raw, bound)| {
                let mut prefix: Vec<usize> = Vec::new();
                for job in raw {
                    let job = job % jobs;
                    if !prefix.contains(&job) {
                        prefix.push(job);
                    }
                }
                (prefix, bound)
            })
            .collect();
        let best_schedule = upper.map(|_| (0..jobs).collect::<Vec<_>>());
        let checkpoint = SolveCheckpoint {
            jobs,
            machines,
            upper_bound: upper.unwrap_or(Time::MAX),
            best_schedule,
            proven_bound: upper.map_or(Time::MAX, |u| u.saturating_sub(10)),
            cost,
            frontier,
        };
        let parsed = SolveCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        prop_assert_eq!(parsed, checkpoint);
    }
}
