//! Fault-tolerance equivalence suite: deterministic failure injection,
//! shard re-deal and checkpoint/resume (see `gpu_bnb::fault`).
//!
//! The contract has three parts, and this suite pins each down:
//!
//! 1. **Failures never change the search** — a fleet solve with injected
//!    member deaths (explicit `fail_at` events or a seeded plan) is
//!    bit-identical to the failure-free run: same makespan, same schedule,
//!    same visited node set (every `SolveStats` counter), same latency
//!    histograms, and **exact equality on every non-recovery cost
//!    counter**. Recovery is observable only through the three dedicated
//!    counters (`fleet_failures`, `fleet_redealt_nodes`,
//!    `fleet_recovery_nanos`).
//! 2. **Recovery re-deals are sound** (property tests) — the post-failure
//!    partition covers the dead member's shard exactly once, assigns work
//!    only to survivors, and stays wave-aligned; checkpoints survive a JSON
//!    round trip bit-for-bit.
//! 3. **Checkpoint/resume is certificate-preserving** — pausing at any
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
//! (the CI `backend-matrix` job): a `fleet:...` filter pins the fleet
//! shape under test, a non-fleet filter skips the failure-injection tests
//! (only fleets have members to kill) but still runs checkpoint/resume on
//! the pinned backend, and unset runs the full roster. `FAULT_SEEDS`
//! (comma-separated) widens the seeded-plan sweep — the `+fault-seed` CI
//! rows set it.

use flowshop_gpu_bnb::bb::{frozen_pool, FrozenPool, FspProblem};
use flowshop_gpu_bnb::fsp::brute::brute_force_optimal;
use flowshop_gpu_bnb::fsp::{taillard, Instance, Time};
use flowshop_gpu_bnb::gpu_bnb::fleet::effective_chunk;
use flowshop_gpu_bnb::gpu_bnb::{
    fleet_member_specs, member_models, redeal_plan, BackendKind, CostReport, DataPlacement,
    FailurePlan, FleetTopology, GpuBnbSolver, GpuRunStats, GpuSolveOutcome, GpuSolverConfig,
    JobSpec, JobStopReason, MemberModel, ServiceConfig, SolveCheckpoint, SolveService,
};
use proptest::prelude::*;

/// The three counters that carry the recovery bill — everything else must
/// stay bit-identical under injected failures.
const RECOVERY_COUNTERS: [&str; 3] = [
    "fleet_failures",
    "fleet_redealt_nodes",
    "fleet_recovery_nanos",
];

/// Fleet shapes the failure-injection tests exercise: the pinned shape
/// under a `fleet:...` filter, nothing under a non-fleet filter, the full
/// roster when unset.
fn gated_fleet_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            match kind {
                BackendKind::Fleet { .. } => vec![kind],
                _ => Vec::new(),
            }
        }
        _ => vec![
            BackendKind::Fleet(FleetTopology::uniform(2)),
            BackendKind::Fleet(FleetTopology::uniform(4)),
            BackendKind::Fleet(FleetTopology::uniform(2).mixed()),
            BackendKind::Fleet(FleetTopology::uniform(2).stealing()),
            BackendKind::Fleet(FleetTopology::uniform(4).mixed().stealing()),
        ],
    }
}

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

/// Seeds for the seeded-plan sweep: `FAULT_SEEDS` when set (the CI
/// `+fault-seed` rows), a small default pair otherwise.
fn fault_seeds() -> Vec<u64> {
    match std::env::var("FAULT_SEEDS") {
        Ok(spec) if !spec.trim().is_empty() => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid FAULT_SEEDS `{spec}`: {e}"))
            })
            .collect(),
        _ => vec![2012, 7],
    }
}

/// Sessionless (no-lookahead) configuration: the setting under which both
/// the fault overlay and checkpoint/resume promise bit-exactness.
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
    let label = format!("fault-{jobs}x{machines}-s{seed}");
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

/// Asserts `faulty` is bit-identical to the failure-free `reference` in
/// everything except the three recovery counters, and that the recovery
/// counters record exactly `expected_failures` deaths with a non-zero
/// re-dealt/critical-path bill.
fn assert_recovery_only_divergence(
    reference: &GpuSolveOutcome,
    faulty: &GpuSolveOutcome,
    expected_failures: u64,
    label: &str,
) {
    assert_eq!(
        faulty.best_makespan, reference.best_makespan,
        "{label}: makespan diverged under injected failures"
    );
    assert_eq!(
        faulty.best_schedule, reference.best_schedule,
        "{label}: schedule diverged"
    );
    assert_eq!(
        faulty.stats, reference.stats,
        "{label}: node counters diverged — failures changed the visited node set"
    );
    assert_eq!(
        faulty.latencies, reference.latencies,
        "{label}: latency histograms diverged"
    );
    for ((name, fault_v), (_, ref_v)) in faulty
        .cost
        .counters()
        .into_iter()
        .zip(reference.cost.counters())
    {
        if RECOVERY_COUNTERS.contains(&name) {
            continue;
        }
        assert_eq!(
            fault_v, ref_v,
            "{label}: non-recovery counter `{name}` diverged"
        );
    }
    for (name, ref_v) in reference.cost.counters() {
        if RECOVERY_COUNTERS.contains(&name) {
            assert_eq!(ref_v, 0, "{label}: failure-free run charged `{name}`");
        }
    }
    assert_eq!(
        faulty.cost.fleet_failures, expected_failures,
        "{label}: wrong number of recorded failures"
    );
    if expected_failures > 0 {
        assert!(
            faulty.cost.fleet_redealt_nodes > 0,
            "{label}: a death must re-deal the dead member's shard"
        );
        assert!(
            faulty.cost.fleet_recovery_nanos > 0,
            "{label}: recovery must charge a critical path"
        );
    } else {
        assert_eq!(faulty.cost.fleet_redealt_nodes, 0, "{label}");
        assert_eq!(faulty.cost.fleet_recovery_nanos, 0, "{label}");
    }
}

#[test]
fn explicit_failures_leave_the_solve_bit_identical() {
    let (inst, frozen) = workload(12, 8, 31);
    for kind in gated_fleet_kinds() {
        let devices = kind.devices();
        let reference = solve(&inst, &frozen, &config_for(kind));
        // Kill just under half the fleet at early batch ordinals — for a
        // 4-member fleet that is the acceptance scenario: two injected
        // failures, still bit-identical.
        let fail_at: Vec<(u64, usize)> = (0..devices / 2)
            .map(|k| ((k + 1) as u64, 2 * k + 1))
            .collect();
        let expected = fail_at.len() as u64;
        let config = GpuSolverConfig {
            fail_at: fail_at.clone(),
            ..config_for(kind)
        };
        let faulty = solve(&inst, &frozen, &config);
        assert!(
            faulty.cost.batches > fail_at.iter().map(|&(b, _)| b).max().unwrap_or(0),
            "{kind}: the solve must outlive every scheduled death"
        );
        assert_recovery_only_divergence(&reference, &faulty, expected, &format!("{kind} fail_at"));
        if devices >= 4 {
            assert_eq!(expected, 2, "{kind}: the 4-member scenario kills two");
        }
    }
}

#[test]
fn seeded_failures_leave_the_solve_bit_identical() {
    let (inst, frozen) = workload(12, 8, 31);
    for kind in gated_fleet_kinds() {
        let devices = kind.devices();
        let reference = solve(&inst, &frozen, &config_for(kind));
        let mut fired = 0u64;
        for seed in fault_seeds() {
            let config = GpuSolverConfig {
                fail_seed: Some(seed),
                ..config_for(kind)
            };
            let plan = FailurePlan::seeded(seed, devices);
            // A death scheduled past the last batch never fires; only the
            // events the solve lives through are billed.
            let expected = plan
                .events()
                .iter()
                .filter(|e| e.batch < reference.cost.batches)
                .count() as u64;
            fired += expected;
            let faulty = solve(&inst, &frozen, &config);
            assert_recovery_only_divergence(
                &reference,
                &faulty,
                expected,
                &format!("{kind} seed {seed}"),
            );
        }
        assert!(
            fired > 0,
            "{kind}: the seed sweep must inject at least one live failure"
        );
    }
}

#[test]
fn failed_member_recovery_is_invisible_to_the_service_outcome() {
    // The anytime contract of docs/SERVICE.md: a job whose fleet loses
    // members mid-solve reports the same `JobOutcome` as one that never
    // did — modulo the recovery counters — even while other jobs share the
    // service.
    let (inst, frozen) = workload(12, 8, 31);
    for kind in gated_fleet_kinds() {
        let plain = config_for(kind);
        let faulty_config = GpuSolverConfig {
            fail_at: vec![(1, kind.devices() - 1)],
            ..plain.clone()
        };
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let spec = |config: &GpuSolverConfig| {
            let mut spec =
                JobSpec::new(inst.clone(), config.clone()).with_initial_nodes(frozen.nodes.clone());
            if let Some(schedule) = frozen.best_schedule.clone() {
                spec = spec.with_incumbent(schedule, frozen.upper_bound);
            }
            spec
        };
        let plain_job = service.submit(spec(&plain));
        let faulty_job = service.submit(spec(&faulty_config));
        service.run_until_idle();

        let plain_out = plain_job.outcome().expect("job finished");
        let faulty_out = faulty_job.outcome().expect("job finished");
        assert_eq!(plain_out.stop, JobStopReason::Exhausted, "{kind}");
        assert_eq!(faulty_out.stop, JobStopReason::Exhausted, "{kind}");
        assert_eq!(faulty_out.best_makespan, plain_out.best_makespan, "{kind}");
        assert_eq!(faulty_out.best_schedule, plain_out.best_schedule, "{kind}");
        assert_eq!(faulty_out.stats, plain_out.stats, "{kind}");
        assert_eq!(faulty_out.lower_bound, plain_out.lower_bound, "{kind}");
        for ((name, fault_v), (_, plain_v)) in faulty_out
            .cost
            .counters()
            .into_iter()
            .zip(plain_out.cost.counters())
        {
            if RECOVERY_COUNTERS.contains(&name) {
                continue;
            }
            assert_eq!(fault_v, plain_v, "{kind}: counter `{name}` diverged");
        }
        assert_eq!(faulty_out.cost.fleet_failures, 1, "{kind}");
        // The carve invariant survives a failing member: per-job reports
        // still partition the shared accounting exactly.
        let mut summed = CostReport::default();
        summed.absorb(&plain_out.cost);
        summed.absorb(&faulty_out.cost);
        assert_eq!(summed, service.shared_cost(), "{kind}");
    }
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

/// Survivor models for the re-deal properties: the real fleet roster
/// (mixed specs when `hetero`) quantized like the planner sees it.
fn fleet_models(devices: usize, hetero: bool) -> Vec<MemberModel> {
    member_models(
        &fleet_member_specs(devices, hetero),
        &GpuSolverConfig::default(),
        12,
        8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The post-failure partition is a permutation-free cover of the dead
    /// member's shard: every index covered exactly once, work assigned to
    /// survivors only, never to a dead member.
    #[test]
    fn redeals_cover_the_dead_shard_without_touching_dead_members(
        dead_nodes in 1usize..2_000,
        chunk in 1usize..512,
        devices in 2usize..7,
        hetero in any::<bool>(),
        stealing in any::<bool>(),
        survivor_mask in 1u32..64,
    ) {
        let models = fleet_models(devices, hetero);
        // Clamp the mask to the fleet and keep at least one survivor.
        let mask = match survivor_mask % (1u32 << devices) {
            0 => 1,
            mask => mask,
        };
        let survivors: Vec<usize> = (0..devices).filter(|o| mask & (1 << o) != 0).collect();
        let shards = redeal_plan(dead_nodes, &survivors, &models, chunk, stealing);
        let mut covered = vec![0u32; dead_nodes];
        for shard in &shards {
            prop_assert!(
                survivors.contains(&shard.device),
                "work re-dealt to non-survivor {}", shard.device
            );
            for &(start, len) in &shard.ranges {
                prop_assert!(len > 0);
                prop_assert!(start + len <= dead_nodes);
                for slot in &mut covered[start..start + len] {
                    *slot += 1;
                }
            }
        }
        prop_assert!(
            covered.iter().all(|&count| count == 1),
            "the re-deal must cover every dead-shard index exactly once"
        );
    }

    /// Without stealing, the re-deal stays wave-aligned: at most the tail
    /// range of the whole plan is a partial chunk.
    #[test]
    fn redeals_stay_wave_aligned_before_stealing(
        dead_nodes in 1usize..2_000,
        chunk in 1usize..512,
        devices in 2usize..7,
        hetero in any::<bool>(),
    ) {
        let models = fleet_models(devices, hetero);
        let survivors: Vec<usize> = (0..devices).step_by(2).collect();
        let shards = redeal_plan(dead_nodes, &survivors, &models, chunk, false);
        let eff = effective_chunk(dead_nodes, survivors.len(), chunk);
        let ragged = shards
            .iter()
            .flat_map(|s| s.ranges.iter())
            .filter(|(_, len)| len % eff != 0)
            .count();
        prop_assert!(ragged <= 1, "at most the tail chunk may be sub-wave");
    }

    /// Seeded failure plans are pure functions of `(seed, members)`: the
    /// same inputs always reproduce the same events, deaths hit distinct
    /// members, land in the seeded batch range, and always leave a
    /// survivor.
    #[test]
    fn seeded_plans_are_reproducible_and_survivable(
        seed in any::<u64>(),
        members in 1usize..9,
    ) {
        let plan = FailurePlan::seeded(seed, members);
        prop_assert_eq!(&plan, &FailurePlan::seeded(seed, members));
        prop_assert_eq!(plan.events().len(), members / 2);
        let mut dead: Vec<usize> = plan.events().iter().map(|e| e.member).collect();
        dead.sort_unstable();
        dead.dedup();
        prop_assert_eq!(dead.len(), plan.events().len());
        prop_assert!(dead.iter().all(|&m| m < members));
        prop_assert!(plan.events().iter().all(|e| e.batch < 16));
    }

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
