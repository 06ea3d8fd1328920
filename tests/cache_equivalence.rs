//! Workspace-level cache-equivalence suite.
//!
//! The incremental solve cache's contract (see `docs/CACHING.md`) is that
//! memoization is **certificate-transparent**: caching changes what a
//! request *costs*, never what it *returns*. This suite pins that down
//! four ways:
//!
//! 1. an exact repeat returns the stored certificate bit-identically —
//!    schedule, makespan, bound, gap and every cost counter — and is
//!    billed one `cache_hits` tick with zero device work;
//! 2. a warm-started solve of a perturbed instance reaches the same
//!    optimum as a cold solve of that instance (the donor's incumbent is a
//!    valid upper bound after re-pricing, so pruning stays sound);
//! 3. a warm start seeds the better of the re-priced donor schedule and
//!    NEH, so a donor looser than NEH leaves the cold solve unchanged;
//! 4. a cache-disabled request is bit-identical to `submit` +
//!    `run_until_idle` of the same spec — the consolidated entry point
//!    adds no accounting of its own.
//!
//! Like `backend_equivalence`, the CI `cache-matrix` job runs this suite
//! once per backend by setting `BACKEND_FILTER`; unset, every kind runs.

use flowshop_gpu_bnb::fsp::{neh, schedule, taillard, Instance};
use flowshop_gpu_bnb::gpu_bnb::{
    perturbed, BackendKind, CacheDisposition, CachePolicy, DataPlacement, FleetTopology,
    GpuSolverConfig, JobSpec, JobStopReason, ServiceConfig, SolveRequest, SolveService,
};

/// The backends this suite checks: `BACKEND_FILTER` when set, the full
/// roster otherwise (mirrors `service_equivalence::gated_kinds`).
fn gated_kinds() -> Vec<BackendKind> {
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
            BackendKind::Fleet(FleetTopology::uniform(2)),
            BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing()),
        ],
    }
}

/// Sessionless configuration (no lookahead): the setting under which the
/// service promises bit-exact certificates.
fn config_for(kind: BackendKind) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: 64,
        placement: DataPlacement::SharedJmPtm,
        backend: kind,
        fast_forward: true,
        ..Default::default()
    }
}

fn instance(jobs: usize, machines: usize, seed: i64) -> Instance {
    taillard::generate(
        format!("cache-{jobs}x{machines}-s{seed}"),
        jobs,
        machines,
        seed,
    )
}

#[test]
fn exact_repeat_returns_the_stored_certificate_bit_identically() {
    let inst = instance(10, 6, 31);
    for kind in gated_kinds() {
        let config = config_for(kind);
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });

        let cold = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(cold.disposition, CacheDisposition::Miss, "{kind}");
        assert!(
            cold.certificate.is_optimal(),
            "{kind}: small solve exhausts"
        );
        assert_eq!(service.cached_certificates(), 1, "{kind}");

        let hit = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(hit.disposition, CacheDisposition::Hit, "{kind}");
        assert_eq!(
            hit.certificate, cold.certificate,
            "{kind}: the hit must replay the stored certificate bit-identically"
        );
        // The hit's own bill is one cache_hits tick and nothing else: no
        // solver ran, no device was touched.
        assert!(hit.job.is_none(), "{kind}: nothing ran on a hit");
        assert_eq!(hit.request_cost.cache_hits, 1, "{kind}");
        assert_eq!(hit.request_cost.nodes_bounded(), 0, "{kind}");
        assert_eq!(hit.request_cost.batches, 0, "{kind}");
        assert_eq!(hit.request_cost.schedule_nanos, 0, "{kind}");
        // A different config key (identity-bearing knob) must miss.
        let other = GpuSolverConfig {
            pool_size: 128,
            ..config.clone()
        };
        let miss = service.request(SolveRequest::new(inst.clone(), other));
        assert_ne!(miss.disposition, CacheDisposition::Hit, "{kind}");
    }
}

#[test]
fn warm_started_perturbed_solve_reaches_the_cold_optimum() {
    let inst = instance(10, 6, 31);
    let neighbour = perturbed(&inst, 2012, 2);
    assert_ne!(inst.raw(), neighbour.raw(), "the perturbation must edit");
    for kind in gated_kinds() {
        let config = config_for(kind);

        // The cold reference: the perturbed instance solved from scratch.
        let fresh = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let cold = fresh.request(SolveRequest::new(neighbour.clone(), config.clone()));
        assert_eq!(cold.disposition, CacheDisposition::Miss, "{kind}");

        // The warm path: solve the original first, then the neighbour.
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let donor = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(donor.disposition, CacheDisposition::Miss, "{kind}");
        let warm = service.request(SolveRequest::new(neighbour.clone(), config.clone()));
        assert_eq!(warm.disposition, CacheDisposition::WarmStart, "{kind}");
        assert_eq!(warm.request_cost.cache_warm_starts, 1, "{kind}");
        assert_eq!(warm.request_cost.cache_invalidated_nodes, 0, "{kind}");

        // Soundness: the warm-started solve proves the same optimum.
        assert!(warm.certificate.is_optimal(), "{kind}");
        assert_eq!(
            warm.certificate.best_makespan, cold.certificate.best_makespan,
            "{kind}: warm-starting must not change the proven optimum"
        );
        let warm_schedule = warm.certificate.best_schedule.as_ref().expect("schedule");
        assert_eq!(
            schedule::makespan(&neighbour, warm_schedule),
            warm.certificate.best_makespan,
            "{kind}: the certificate's schedule must price to its makespan"
        );
    }
}

#[test]
fn a_donor_looser_than_neh_leaves_the_cold_solve_unchanged() {
    // Two unrelated instances of one shape: the donor's optimal schedule,
    // re-priced on the requested instance, is looser than NEH there, so the
    // warm start seeds NEH — exactly what a cold solve seeds — and differs
    // from the cache-disabled solve only by its warm-start tick.
    let donor_inst = instance(10, 6, 31);
    let requested = instance(10, 6, 32);
    for kind in gated_kinds() {
        let config = config_for(kind);
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let donor = service.request(SolveRequest::new(donor_inst.clone(), config.clone()));
        let donated = donor.certificate.best_schedule.as_ref().expect("schedule");
        assert!(
            schedule::makespan(&requested, donated) > neh::neh(&requested).1,
            "{kind}: the donor must price above NEH on the requested instance"
        );
        let warm = service.request(SolveRequest::new(requested.clone(), config.clone()));
        assert_eq!(warm.disposition, CacheDisposition::WarmStart, "{kind}");

        let fresh = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let cold = fresh.request(
            SolveRequest::new(requested.clone(), config).with_cache(CachePolicy::Disabled),
        );
        let mut expected = cold.request_cost;
        expected.cache_warm_starts = 1;
        assert_eq!(warm.request_cost, expected, "{kind}");
        assert_eq!(
            warm.certificate.best_schedule, cold.certificate.best_schedule,
            "{kind}"
        );
        assert_eq!(
            warm.certificate.best_makespan, cold.certificate.best_makespan,
            "{kind}"
        );
        assert_eq!(
            warm.certificate.lower_bound, cold.certificate.lower_bound,
            "{kind}"
        );
    }
}

#[test]
fn cache_disabled_requests_are_bit_identical_to_submit() {
    let inst = instance(10, 6, 31);
    for kind in gated_kinds() {
        let config = config_for(kind);

        // Reference: the pre-request API, a bare spec through the scheduler.
        let plain = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let handle = plain.submit(JobSpec::new(inst.clone(), config.clone()));
        plain.run_until_idle();
        let reference = handle.outcome().expect("job finished");

        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let off = service.request(
            SolveRequest::new(inst.clone(), config.clone()).with_cache(CachePolicy::Disabled),
        );
        assert_eq!(off.disposition, CacheDisposition::Disabled, "{kind}");
        assert_eq!(service.cached_certificates(), 0, "{kind}: nothing stored");
        let job = off.job.as_ref().expect("a solver ran");
        assert_eq!(job.best_makespan, reference.best_makespan, "{kind}");
        assert_eq!(job.best_schedule, reference.best_schedule, "{kind}");
        assert_eq!(job.stats, reference.stats, "{kind}");
        assert_eq!(
            job.cost, reference.cost,
            "{kind}: disabling the cache must reproduce today's accounting bit-identically"
        );
        assert_eq!(job.latencies, reference.latencies, "{kind}");
        assert_eq!(
            off.request_cost, reference.cost,
            "{kind}: no cache counters on a disabled request"
        );
        assert_eq!(off.request_cost.cache_hits, 0, "{kind}");
        assert_eq!(off.request_cost.cache_warm_starts, 0, "{kind}");

        // A truncated solve that is not stored: the limit lives in the
        // config, the bypass in the policy.
        let truncated = GpuSolverConfig {
            node_limit: Some(50),
            ..config.clone()
        };
        let budgeted = service
            .request(SolveRequest::new(inst.clone(), truncated).with_cache(CachePolicy::Disabled));
        assert_eq!(budgeted.disposition, CacheDisposition::Disabled, "{kind}");
        let job = budgeted.job.as_ref().expect("a solver ran");
        assert_eq!(job.stop, JobStopReason::NodeBudget, "{kind}");
        assert_eq!(service.cached_certificates(), 0, "{kind}");
    }
}
