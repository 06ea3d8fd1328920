//! Pieces shared by the exact and service workloads: run arguments,
//! certificate checks, timed-loop bookkeeping and the per-layer metric set.

use crate::calib::Calibration;
use crate::replay::Replay;
use crate::report::{median, quantile, ratio, Report};
use crate::trace::{layer, Layer, LayerTotals};
use bb::{FspProblem, SerialSolver};
use fsp::{Instance, Job, Time};
use gpu_bnb::CostReport;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Requests solved during each set-up to warm caches and the allocator.
pub const WARMUP_REQUESTS: usize = 32;
/// Complete passes over the request sequence before a run may stop.
pub const MIN_PASSES: usize = 2;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: f64,
    /// Where the traced run writes its spans, if anywhere.
    pub spans: Option<PathBuf>,
}

/// Checks one returned certificate: a schedule exists, is a permutation,
/// re-prices to the reported makespan, and optimality was proven.
pub fn check_certificate(
    inst: &Instance,
    makespan: Time,
    schedule: Option<&[Job]>,
    optimal: bool,
) -> Result<(), String> {
    let schedule = schedule.ok_or("no schedule returned")?;
    if !fsp::schedule::is_permutation(schedule, inst.jobs()) {
        return Err(format!("{}: schedule is not a permutation", inst.name()));
    }
    let priced = fsp::makespan(inst, schedule);
    if priced != makespan {
        return Err(format!(
            "{}: schedule prices to {priced}, certificate says {makespan}",
            inst.name()
        ));
    }
    if !optimal {
        return Err(format!("{}: optimality not proven", inst.name()));
    }
    Ok(())
}

/// The serial reference optimum of `inst`, or an error when it does not
/// prove one.
pub fn serial_optimum(inst: &Instance) -> Result<Time, String> {
    let outcome = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
    if outcome.is_optimal() {
        Ok(outcome.best_makespan)
    } else {
        Err(format!(
            "{}: the serial reference did not close",
            inst.name()
        ))
    }
}

/// Request latencies of the measured region and which requests failed.
///
/// Every request of the sequence runs once per pass. Its latency is the
/// fastest of its passes, in reference seconds (see [`crate::calib`]): a
/// request's wall time scaled by the host speed measured right after it.
pub struct Timed {
    /// Fastest latency of each request of the sequence, call to
    /// certificate, in reference seconds.
    best: Vec<f64>,
    /// Per executed request: the distinct instance it solved and whether
    /// its own checks failed.
    outcomes: Vec<(usize, bool)>,
    calibration: Calibration,
    /// Every calibration factor applied (reported, to show host noise).
    factors: Vec<f64>,
}

impl Timed {
    /// Bookkeeping for a sequence of `requests` requests.
    pub fn new(requests: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; requests],
            outcomes: Vec::new(),
            calibration: Calibration::new(),
            factors: Vec::new(),
        }
    }

    /// Records one executed request.
    pub fn record(&mut self, request: usize, instance: usize, elapsed: Duration, failed: bool) {
        let factor = self.calibration.factor();
        self.factors.push(factor);
        let latency = elapsed.as_secs_f64() * factor;
        self.best[request] = self.best[request].min(latency);
        self.outcomes.push((instance, failed));
    }

    /// Sets `attempted`/`failed` (a request also fails when its instance
    /// failed a check made after the measured region) and reports the
    /// latency metrics over the requests of one pass.
    pub fn finish(&self, report: &mut Report, instance_failed: &[bool]) {
        report.attempted = self.outcomes.len() as u64;
        report.failed = self
            .outcomes
            .iter()
            .filter(|&&(inst, failed)| failed || instance_failed[inst])
            .count() as u64;
        let mut latencies = self.best.clone();
        latencies.sort_by(f64::total_cmp);
        let busy: f64 = latencies.iter().sum();
        let p90 = quantile(&latencies, 0.9);
        let beyond = latencies.iter().filter(|&&t| t > p90).count();
        println!(
            "  {} requests executed; {} per pass, {beyond} of them beyond p90",
            self.outcomes.len(),
            latencies.len()
        );
        let mut factors = self.factors.clone();
        factors.sort_by(f64::total_cmp);
        println!(
            "  reference seconds per wall second: median {:.3}, 5th percentile {:.3}",
            quantile(&factors, 0.5),
            quantile(&factors, 0.05)
        );
        report.metric("solve_s.p50", quantile(&latencies, 0.5), "s");
        report.metric("solve_s.p90", p90, "s");
        report.metric("solves_per_s", ratio(latencies.len() as f64, busy), "1/s");
    }
}

/// The measured region: calls `serve(request)` over the request sequence,
/// pass after pass, until at least [`MIN_PASSES`] passes are complete and
/// `args.seconds` have elapsed (then it may stop mid-pass).
pub fn measure(args: &RunArgs, requests: usize, mut serve: impl FnMut(usize)) {
    let start = Instant::now();
    let done =
        |passes: usize| passes >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds;
    let mut passes = 0;
    'passes: loop {
        for request in 0..requests {
            serve(request);
            if done(passes) {
                break 'passes;
            }
        }
        passes += 1;
        if done(passes) {
            break;
        }
    }
    println!(
        "  {passes} complete passes in {:.2} s",
        start.elapsed().as_secs_f64()
    );
}

/// Runs `setup` [`SETUPS`] times, reports the median (in reference
/// seconds) as `setup_s`, and returns the last state.
pub fn timed_setups<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut calibration = Calibration::new();
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64() * calibration.factor());
    }
    report.metric("setup_s", median(times), "s");
    state.expect("at least one set-up ran")
}

/// Summed counts of every replayed solve.
#[derive(Debug, Default)]
pub struct ReplayTotals {
    /// Replays whose counters and cost matched the untraced solve.
    pub verified: u64,
    /// Nodes popped by selection.
    pub pops: u64,
    /// Popped nodes pruned at selection.
    pub stale: u64,
    /// Children bounded.
    pub children: u64,
    /// Children pushed back into the pool.
    pub kept: u64,
    /// Largest pending pool seen.
    pub max_pool: usize,
    /// Nodes bounded by `FspProblem::bound`.
    pub host_bound_nodes: u64,
    /// Shadow host-bound time, in seconds.
    pub shadow_s: f64,
}

impl ReplayTotals {
    /// Folds in one replay.
    pub fn add(&mut self, replay: &Replay) {
        self.pops += replay.stats.selected;
        self.stale += replay.stale;
        self.children += replay.stats.bounded;
        self.kept += replay.kept;
        self.max_pool = self.max_pool.max(replay.stats.max_pool);
        self.host_bound_nodes += replay.host_bound_nodes;
        self.shadow_s += replay.shadow_ns as f64 * 1e-9;
    }
}

/// Compares a replay with the untraced solve of the same request.
pub fn replay_matches(
    replay: &Replay,
    stats: &bb::stats::SolveStats,
    makespan: Time,
    schedule: Option<&[Job]>,
    cost: &CostReport,
) -> Result<(), String> {
    if replay.bound_mismatches > 0 {
        return Err(format!(
            "{} shadow host bounds differ from the backend's",
            replay.bound_mismatches
        ));
    }
    if replay.stats != *stats || replay.best_makespan != makespan {
        return Err(format!(
            "replay {:?} / {} differs from the solve {:?} / {}",
            replay.stats, replay.best_makespan, stats, makespan
        ));
    }
    if replay.best_schedule.as_deref() != schedule {
        return Err("replay schedule differs from the solve's".into());
    }
    if replay.cost != *cost {
        return Err("replay cost report differs from the solve's".into());
    }
    Ok(())
}

/// Service-only per-layer figures (zero on the exact workloads, which never
/// reach the service or cache layers).
#[derive(Debug, Default)]
pub struct ServiceFigures {
    /// Median hit request time, seconds.
    pub hit_p50: f64,
    /// Median miss request time, seconds.
    pub miss_p50: f64,
    /// Median warm-start request time, seconds.
    pub warm_p50: f64,
    /// Miss request time ÷ standalone solve time of the same instances.
    pub overhead_ratio: f64,
    /// Nanoseconds per `InstanceKey::of` + `ConfigKey::of` pair.
    pub key_ns: f64,
    /// Nodes bounded by warm starts ÷ nodes of cache-disabled solves.
    pub warm_node_ratio: f64,
}

/// Unit of a `CostReport` counter, from its name.
fn counter_unit(name: &str) -> &'static str {
    if name.ends_with("_nanos") {
        "ns"
    } else if name.ends_with("_bytes") {
        "B"
    } else if name.ends_with("_cycles") {
        "cycles"
    } else {
        "count"
    }
}

/// Reports every per-layer metric, in the order `BENCHMARK.json` lists
/// them. Layers a workload never reaches read zero.
pub fn per_layer_metrics(
    report: &mut Report,
    totals: &[(Layer, LayerTotals)],
    replays: &ReplayTotals,
    cost: &CostReport,
    modelled_speedup: f64,
    service: &ServiceFigures,
    trace_overhead: f64,
) {
    let get = |l: Layer| layer(totals, l);
    let select = get(Layer::Select);
    let branch = get(Layer::Branch);
    let eliminate = get(Layer::Eliminate);
    let host = get(Layer::HostBound);
    let batch = get(Layer::BoundBatch);
    let requests = get(Layer::Request);
    let children = replays.children as f64;

    report.metric("bb.select.self_s", select.self_s, "s");
    report.metric("bb.select.pops", replays.pops as f64, "count");
    report.metric(
        "bb.select.stale_ratio",
        ratio(replays.stale as f64, replays.pops as f64),
        "ratio",
    );
    report.metric("bb.branch.self_s", branch.self_s, "s");
    report.metric("bb.branch.children", children, "count");
    report.metric("bb.eliminate.self_s", eliminate.self_s, "s");
    report.metric(
        "bb.eliminate.kept_ratio",
        ratio(replays.kept as f64, children),
        "ratio",
    );
    report.metric("bb.pool.max_len", replays.max_pool as f64, "count");
    report.metric("bb.nodes_bounded", children, "count");

    report.metric("fsp.bound.self_s", host.self_s, "s");
    report.metric(
        "fsp.bound.ns_per_node",
        ratio(host.self_s * 1e9, replays.host_bound_nodes as f64),
        "ns",
    );
    // The shadow bound is the benchmark's own measurement of the host bound
    // that fast-forward `bound_batch` runs inside; the loop it is a share
    // of is the replayed solve without the shadow.
    report.metric(
        "fsp.bound.loop_share",
        ratio(host.self_s, requests.total_s - replays.shadow_s),
        "ratio",
    );
    report.metric("fsp.neh.self_s", get(Layer::Neh).self_s, "s");

    report.metric(
        "gpu_bnb.backend.make.self_s",
        get(Layer::BackendMake).self_s,
        "s",
    );
    report.metric("gpu_bnb.backend.bound_batch.self_s", batch.self_s, "s");
    report.metric(
        "gpu_bnb.backend.bound_batch.calls",
        batch.calls as f64,
        "count",
    );
    report.metric(
        "gpu_bnb.backend.bound_batch.ns_per_node",
        ratio(batch.self_s * 1e9, children),
        "ns",
    );
    report.metric(
        "gpu_bnb.backend.overhead_ns_per_node",
        ratio((batch.self_s - replays.shadow_s) * 1e9, children),
        "ns",
    );
    report.metric(
        "gpu_bnb.cost.record.self_s",
        get(Layer::CostRecord).self_s,
        "s",
    );

    for (name, value) in cost.counters() {
        report.metric(format!("cost.{name}"), value as f64, counter_unit(name));
    }
    report.metric("cost.offloading_rate", cost.offloading_rate(), "ratio");
    report.metric("cost.modelled_speedup", modelled_speedup, "x");

    report.metric("gpu_bnb.service.request_s.hit.p50", service.hit_p50, "s");
    report.metric("gpu_bnb.service.request_s.miss.p50", service.miss_p50, "s");
    report.metric("gpu_bnb.service.request_s.warm.p50", service.warm_p50, "s");
    report.metric(
        "gpu_bnb.service.overhead_ratio",
        service.overhead_ratio,
        "ratio",
    );
    report.metric("gpu_bnb.cache.key.ns_per_call", service.key_ns, "ns");
    report.metric(
        "gpu_bnb.cache.warm_node_ratio",
        service.warm_node_ratio,
        "ratio",
    );

    report.metric("trace.overhead_ratio", trace_overhead, "ratio");
    report.metric("trace.replays", replays.verified as f64, "count");
}
