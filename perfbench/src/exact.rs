//! `exact-wide` and `exact-narrow`: `GpuBnbSolver::solve` to proven
//! optimality, one distinct instance per request.

use crate::common::{
    check_certificate, measure, per_layer_metrics, replay_matches, serial_optimum, timed_setups,
    ReplayTotals, RunArgs, ServiceFigures, Timed, WARMUP_REQUESTS,
};
use crate::replay::replay;
use crate::report::{peak_rss_mib, ratio, Report};
use crate::trace::Recorder;
use crate::workload::{exact_config, ExactSpec, InstanceStream, Workload};
use gpu_bnb::{CostReport, GpuBnbSolver, GpuSolveOutcome};
use gpu_sim::HostModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The generated instances, one solver each.
struct Setup {
    solvers: Vec<GpuBnbSolver>,
    skipped: usize,
}

fn setup(workload: Workload, spec: &ExactSpec, seed: u64) -> Setup {
    let config = exact_config(spec);
    let mut draws = InstanceStream::new(workload, seed, spec.jobs, spec.machines);
    let solvers: Vec<GpuBnbSolver> = (0..spec.requests)
        .map(|_| GpuBnbSolver::new(draws.next_instance(), config.clone()))
        .collect();
    for solver in solvers.iter().take(WARMUP_REQUESTS) {
        black_box(solver.solve());
    }
    Setup {
        solvers,
        skipped: draws.skipped,
    }
}

fn check(solver: &GpuBnbSolver, outcome: &GpuSolveOutcome) -> Result<(), String> {
    check_certificate(
        solver.problem().instance(),
        outcome.best_makespan,
        outcome.best_schedule.as_deref(),
        outcome.is_optimal(),
    )
}

/// Serial agreement on every distinct instance, after the measured region.
fn serial_agreement(report: &mut Report, solvers: &[GpuBnbSolver], optima: &[u32]) -> Vec<bool> {
    solvers
        .iter()
        .zip(optima)
        .map(
            |(solver, &optimum)| match serial_optimum(solver.problem().instance()) {
                Ok(serial) if serial == optimum => false,
                Ok(serial) => {
                    report.problem(format!(
                        "{}: GPU optimum {optimum} but serial optimum {serial}",
                        solver.problem().instance().name()
                    ));
                    true
                }
                Err(e) => {
                    report.problem(e);
                    true
                }
            },
        )
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, spec: &ExactSpec, args: &RunArgs, report: &mut Report) {
    let setup = timed_setups(report, || setup(workload, spec, args.seed));
    let solvers = &setup.solvers;
    println!(
        "{}: {} instances {}x{} (skipped {} that close at the root), pool {}",
        workload.name(),
        solvers.len(),
        spec.jobs,
        spec.machines,
        setup.skipped,
        spec.pool_size
    );

    // First-pass certificates; later passes must repeat them exactly.
    let mut first: Vec<Option<(u32, CostReport)>> = vec![None; solvers.len()];
    let mut timed = Timed::new(solvers.len());
    measure(args, solvers.len(), |i| {
        let solver = &solvers[i];
        let t = Instant::now();
        let outcome = black_box(solver.solve());
        let elapsed = t.elapsed();
        let mut failed = false;
        if let Err(e) = check(solver, &outcome) {
            report.problem(e);
            failed = true;
        }
        match &first[i] {
            None => first[i] = Some((outcome.best_makespan, outcome.cost)),
            Some((makespan, cost)) => {
                if *makespan != outcome.best_makespan || *cost != outcome.cost {
                    report.problem(format!(
                        "{}: a repeated solve returned a different certificate",
                        solver.problem().instance().name()
                    ));
                    failed = true;
                }
            }
        }
        timed.record(i, i, elapsed, failed);
    });

    let optima: Vec<u32> = first
        .iter()
        .map(|f| f.as_ref().map_or(0, |f| f.0))
        .collect();
    let modelled: u64 = first
        .iter()
        .flatten()
        .map(|(_, cost)| cost.schedule_nanos)
        .sum();
    let instance_failed = serial_agreement(report, solvers, &optima);
    timed.finish(report, &instance_failed);
    report.metric("modelled_device_s", modelled as f64 * 1e-9, "s");
    report.metric(
        "ok_fraction",
        ratio(
            (report.attempted - report.failed) as f64,
            report.attempted as f64,
        ),
        "ratio",
    );
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

/// The traced run: every instance solved untraced, then replayed with spans
/// from public calls; per-layer metrics.
pub fn run_traced(workload: Workload, spec: &ExactSpec, args: &RunArgs, report: &mut Report) {
    let setup = setup(workload, spec, args.seed);
    let config = exact_config(spec);
    let host = HostModel::default();
    let mut rec = Recorder::new();
    let mut replays = ReplayTotals::default();
    let mut cost = CostReport::default();
    let (mut serial_model, mut gpu_model) = (Duration::ZERO, Duration::ZERO);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut optima = Vec::with_capacity(setup.solvers.len());
    let mut bad = Vec::with_capacity(setup.solvers.len());

    for (i, solver) in setup.solvers.iter().enumerate() {
        let t = Instant::now();
        let outcome = black_box(solver.solve());
        untraced_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let replayed = replay(solver.problem(), &config, &mut rec, i as u32, true);
        traced_s += t.elapsed().as_secs_f64();

        let mut ok = true;
        if let Err(e) = check(solver, &outcome) {
            report.problem(e);
            ok = false;
        }
        match replay_matches(
            &replayed,
            &outcome.stats,
            outcome.best_makespan,
            outcome.best_schedule.as_deref(),
            &outcome.cost,
        ) {
            Ok(()) => replays.verified += 1,
            Err(e) => {
                report.problem(format!("{}: {e}", solver.problem().instance().name()));
                ok = false;
            }
        }
        bad.push(!ok);
        replays.add(&replayed);
        cost.absorb(&outcome.cost);
        serial_model += outcome
            .gpu
            .modeled_serial_time(&host, solver.matrix_footprint_bytes());
        gpu_model += outcome.gpu.modeled_gpu_time(&host);
        optima.push(outcome.best_makespan);
    }
    let instance_failed = serial_agreement(report, &setup.solvers, &optima);
    report.attempted = setup.solvers.len() as u64;
    report.failed = bad
        .iter()
        .zip(&instance_failed)
        .filter(|(a, b)| **a || **b)
        .count() as u64;

    let totals = rec.totals();
    println!(
        "{}: replayed {} of {} solves exactly; loop {:.3} s untraced, {:.3} s traced",
        workload.name(),
        replays.verified,
        setup.solvers.len(),
        untraced_s,
        traced_s
    );
    per_layer_metrics(
        report,
        &totals,
        &replays,
        &cost,
        ratio(serial_model.as_secs_f64(), gpu_model.as_secs_f64()),
        &ServiceFigures::default(),
        ratio(traced_s, untraced_s),
    );
    if let Some(path) = &args.spans {
        if let Err(e) = rec.write_jsonl(path) {
            report.problem(format!("writing spans to {}: {e}", path.display()));
        }
    }
}
