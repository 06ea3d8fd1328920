//! `service-stream`: one closed-loop client issuing `SolveService::request`
//! calls — fresh instances (misses), exact repeats (hits) and single-cell
//! neighbours (warm starts).

use crate::common::{
    check_certificate, measure, per_layer_metrics, replay_matches, serial_optimum, timed_setups,
    ReplayTotals, RunArgs, ServiceFigures, Timed, WARMUP_REQUESTS,
};
use crate::replay::replay;
use crate::report::{median, peak_rss_mib, ratio, Report};
use crate::trace::{Layer, Recorder};
use crate::workload::{stream_plan, Expect, StreamPlan, StreamSpec};
use bb::FspProblem;
use gpu_bnb::{
    CacheDisposition, CachePolicy, Certificate, ConfigKey, CostReport, GpuBnbSolver, InstanceKey,
    RequestOutcome, SolveRequest, SolveService,
};
use gpu_sim::HostModel;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Key computations timed per request (one pair is too short to time alone).
const KEY_REPS: u32 = 16;

struct Setup {
    plan: StreamPlan,
    requests: Vec<SolveRequest>,
}

fn setup(spec: &StreamSpec, seed: u64) -> Setup {
    let plan = stream_plan(seed, spec);
    let requests: Vec<SolveRequest> = plan
        .requests
        .iter()
        .map(|r| {
            SolveRequest::new(
                plan.instances[r.instance].clone(),
                plan.configs[r.family].clone(),
            )
        })
        .collect();
    let service = SolveService::with_defaults();
    for request in requests.iter().take(WARMUP_REQUESTS) {
        black_box(service.request(request.clone()));
    }
    Setup { plan, requests }
}

/// Checks one answer: the certificate itself, the disposition the plan
/// expects, and for a hit bit-identity with the certificate it repeats.
fn check(
    plan: &StreamPlan,
    index: usize,
    answer: &RequestOutcome,
    earlier: &[Option<Certificate>],
) -> Result<(), String> {
    let planned = plan.requests[index];
    let inst = &plan.instances[planned.instance];
    let cert = &answer.certificate;
    check_certificate(
        inst,
        cert.best_makespan,
        cert.best_schedule.as_deref(),
        cert.is_optimal(),
    )?;
    let as_planned = match (planned.expect, answer.disposition) {
        (Expect::Miss, CacheDisposition::Miss) => true,
        (Expect::Warm, CacheDisposition::WarmStart { .. }) => true,
        (Expect::Hit { first }, CacheDisposition::Hit) => {
            if earlier[first].as_ref() != Some(cert) {
                return Err(format!(
                    "request {index}: hit differs from the certificate of request {first}"
                ));
            }
            true
        }
        _ => false,
    };
    if !as_planned {
        return Err(format!(
            "request {index}: expected {:?}, the cache answered {:?}",
            planned.expect, answer.disposition
        ));
    }
    Ok(())
}

/// Serves request `index` on `service`, returning the answer and its wall
/// time from call to certificate.
fn serve(setup: &Setup, service: &SolveService, index: usize) -> (RequestOutcome, Duration) {
    let request = setup.requests[index].clone();
    let t = Instant::now();
    let answer = black_box(service.request(request));
    (answer, t.elapsed())
}

/// Checks made after the measured region, per distinct instance: serial
/// agreement, and for each warm start agreement with a cache-disabled solve
/// of the same instance. Returns which instances failed and, per warm
/// request, the nodes its cache-disabled solve bounded.
fn agreement(report: &mut Report, setup: &Setup, answers: &[RequestOutcome]) -> (Vec<bool>, u64) {
    let plan = &setup.plan;
    let mut optimum: Vec<Option<u32>> = vec![None; plan.instances.len()];
    for (planned, answer) in plan.requests.iter().zip(answers) {
        optimum[planned.instance].get_or_insert(answer.certificate.best_makespan);
    }
    let mut failed: Vec<bool> = plan
        .instances
        .iter()
        .zip(&optimum)
        .map(|(inst, optimum)| match (serial_optimum(inst), optimum) {
            (Ok(serial), Some(value)) if serial == *value => false,
            (Ok(serial), value) => {
                report.problem(format!(
                    "{}: service optimum {value:?} but serial optimum {serial}",
                    inst.name()
                ));
                true
            }
            (Err(e), _) => {
                report.problem(e);
                true
            }
        })
        .collect();

    let disabled = SolveService::with_defaults();
    let mut disabled_nodes = 0;
    for (index, planned) in plan.requests.iter().enumerate() {
        if planned.expect != Expect::Warm {
            continue;
        }
        let cold = disabled.request(
            setup.requests[index]
                .clone()
                .with_cache(CachePolicy::Disabled),
        );
        disabled_nodes += cold.job.as_ref().map_or(0, |job| job.stats.bounded);
        let warm = answers[index].certificate.best_makespan;
        if cold.certificate.best_makespan != warm {
            report.problem(format!(
                "request {index}: warm optimum {warm} but cache-disabled optimum {}",
                cold.certificate.best_makespan
            ));
            failed[planned.instance] = true;
        }
    }
    (failed, disabled_nodes)
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &StreamSpec, args: &RunArgs, report: &mut Report) {
    let setup = timed_setups(report, || setup(spec, args.seed));
    let plan = &setup.plan;
    let count = |e: fn(&Expect) -> bool| plan.requests.iter().filter(|r| e(&r.expect)).count();
    println!(
        "service-stream: {} requests per pass over {} instances {}x{} (skipped {} that close at \
         the root): {} misses, {} hits, {} warm starts",
        plan.requests.len(),
        plan.instances.len(),
        spec.jobs,
        spec.machines,
        plan.skipped,
        count(|e| *e == Expect::Miss),
        count(|e| matches!(e, Expect::Hit { .. })),
        count(|e| *e == Expect::Warm),
    );

    let total = plan.requests.len();
    let mut first: Vec<RequestOutcome> = Vec::with_capacity(total);
    let mut timed = Timed::new(total);
    let mut service = SolveService::with_defaults();
    let mut certificates: Vec<Option<Certificate>> = vec![None; total];
    measure(args, total, |index| {
        if index == 0 {
            // Each pass is one client session against a fresh service.
            service = SolveService::with_defaults();
            certificates = vec![None; total];
        }
        let (answer, elapsed) = serve(&setup, &service, index);
        let mut failed = false;
        if let Err(e) = check(plan, index, &answer, &certificates) {
            report.problem(e);
            failed = true;
        }
        match first.get(index) {
            None => first.push(answer.clone()),
            Some(earlier) => {
                if earlier.certificate != answer.certificate
                    || earlier.request_cost != answer.request_cost
                {
                    report.problem(format!(
                        "request {index}: a repeated pass returned a different answer"
                    ));
                    failed = true;
                }
            }
        }
        certificates[index] = Some(answer.certificate);
        timed.record(index, plan.requests[index].instance, elapsed, failed);
    });
    drop(service);

    let modelled: u64 = first.iter().map(|a| a.request_cost.schedule_nanos).sum();
    let (instance_failed, _) = agreement(report, &setup, &first);
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

/// The traced run: one untraced pass, one pass with a span per request by
/// disposition, then every miss replayed from public calls and compared
/// with its job; per-layer metrics.
pub fn run_traced(spec: &StreamSpec, args: &RunArgs, report: &mut Report) {
    let setup = setup(spec, args.seed);
    let plan = &setup.plan;
    let total = plan.requests.len();

    let service = SolveService::with_defaults();
    let mut answers = Vec::with_capacity(total);
    let mut untraced = Vec::with_capacity(total);
    for index in 0..total {
        let (answer, elapsed) = serve(&setup, &service, index);
        answers.push(answer);
        untraced.push(elapsed.as_secs_f64());
    }
    drop(service);

    let mut rec = Recorder::new();
    let service = SolveService::with_defaults();
    let mut certificates: Vec<Option<Certificate>> = vec![None; total];
    let mut bad = vec![false; total];
    let (mut hit, mut miss, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut key_s = 0.0;
    for (index, flag) in bad.iter_mut().enumerate() {
        let request = setup.requests[index].clone();
        let key = rec.open(Layer::CacheKey, None, index as u32);
        for _ in 0..KEY_REPS {
            black_box(InstanceKey::of(black_box(&request.instance)));
            black_box(ConfigKey::of(black_box(&request.config)));
        }
        rec.close(key);
        key_s += rec.seconds(key);

        let span = rec.open(Layer::ServiceMiss, None, index as u32);
        let answer = black_box(service.request(request));
        rec.close(span);
        let seconds = rec.seconds(span);
        match answer.disposition {
            CacheDisposition::Hit => {
                rec.retag(span, Layer::ServiceHit);
                hit.push(seconds);
            }
            CacheDisposition::WarmStart { .. } => {
                rec.retag(span, Layer::ServiceWarm);
                warm.push(seconds);
            }
            CacheDisposition::Miss | CacheDisposition::Disabled => miss.push(seconds),
        }
        if let Err(e) = check(plan, index, &answer, &certificates) {
            report.problem(e);
            *flag = true;
        }
        if answer.certificate != answers[index].certificate {
            report.problem(format!(
                "request {index}: traced answer differs from untraced"
            ));
            *flag = true;
        }
        certificates[index] = Some(answer.certificate);
    }
    drop(service);
    let traced_s: f64 = hit.iter().chain(&miss).chain(&warm).sum();
    let untraced_s: f64 = untraced.iter().sum();

    // Replay every miss from public calls; time a standalone solve of it.
    let host = HostModel::default();
    let mut replays = ReplayTotals::default();
    let (mut miss_s, mut standalone_s) = (0.0, 0.0);
    let (mut serial_model, mut gpu_model) = (Duration::ZERO, Duration::ZERO);
    let mut cost = CostReport::default();
    let mut warm_nodes = 0;
    for (index, planned) in plan.requests.iter().enumerate() {
        let answer = &answers[index];
        cost.absorb(&answer.request_cost);
        let Some(job) = &answer.job else { continue };
        let inst = &plan.instances[planned.instance];
        let config = &plan.configs[planned.family];
        let solver = GpuBnbSolver::new(inst.clone(), config.clone());
        serial_model += job
            .gpu
            .modeled_serial_time(&host, solver.matrix_footprint_bytes());
        gpu_model += job.gpu.modeled_gpu_time(&host);
        match planned.expect {
            Expect::Warm => warm_nodes += job.stats.bounded,
            Expect::Miss => {
                let problem = FspProblem::new(inst.clone());
                let replayed = replay(&problem, config, &mut rec, index as u32, false);
                match replay_matches(
                    &replayed,
                    &job.stats,
                    job.best_makespan,
                    job.best_schedule.as_deref(),
                    &job.cost,
                ) {
                    Ok(()) => replays.verified += 1,
                    Err(e) => {
                        report.problem(format!("request {index}: {e}"));
                        bad[index] = true;
                    }
                }
                replays.add(&replayed);
                let t = Instant::now();
                black_box(solver.solve());
                standalone_s += t.elapsed().as_secs_f64();
                miss_s += untraced[index];
            }
            Expect::Hit { .. } => {}
        }
    }
    let (instance_failed, disabled_nodes) = agreement(report, &setup, &answers);
    report.attempted = total as u64;
    report.failed = plan
        .requests
        .iter()
        .zip(&bad)
        .filter(|(planned, bad)| **bad || instance_failed[planned.instance])
        .count() as u64;

    println!(
        "service-stream: replayed {} misses exactly; requests {:.3} s untraced, {:.3} s traced",
        replays.verified, untraced_s, traced_s
    );
    let service = ServiceFigures {
        hit_p50: median(hit),
        miss_p50: median(miss),
        warm_p50: median(warm),
        overhead_ratio: ratio(miss_s, standalone_s),
        key_ns: ratio(key_s * 1e9, f64::from(KEY_REPS) * total as f64),
        warm_node_ratio: ratio(warm_nodes as f64, disabled_nodes as f64),
    };
    per_layer_metrics(
        report,
        &rec.totals(),
        &replays,
        &cost,
        ratio(serial_model.as_secs_f64(), gpu_model.as_secs_f64()),
        &service,
        ratio(traced_s, untraced_s),
    );
    if let Some(path) = &args.spans {
        if let Err(e) = rec.write_jsonl(path) {
            report.problem(format!("writing spans to {}: {e}", path.display()));
        }
    }
}
