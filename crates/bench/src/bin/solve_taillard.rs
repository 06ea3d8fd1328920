//! Solves a Taillard Flow-Shop instance — a real `ta*` benchmark file read
//! through `fsp::io`, or a generated Taillard-like instance — and emits a
//! machine-readable JSON performance report: nodes bounded per second, the
//! bounding share, the best makespan found.
//!
//! The report drives two CI gates:
//!
//! * the **blocking cost gate** (`--cost-baseline BENCH_cost_baseline.json`)
//!   compares the deterministic `CostReport` counters of every smoke row
//!   against the committed baseline with **exact equality** — any
//!   single-counter drift fails, on every machine, because the counters are
//!   pure functions of the workload and the cost model;
//! * the **advisory wall-clock gate** (`--baseline BENCH_baseline.json
//!   --advisory`) compares machine-dependent nodes/sec throughput and only
//!   warns, since the committed figures are tied to one hardware class.
//!
//! `--smoke` runs the frozen workload once per gated row (the plain GPU
//! off-load, its stream-pipelined variant with and without cross-iteration
//! lookahead, and the two-device fleet) and emits one report row each;
//! `--service --jobs N` replays the same frozen workload as N concurrent
//! jobs through [`gpu_bnb::SolveService`] on one shared fleet and emits one
//! per-job cost row each (rows carrying a `job` index);
//! `--summary` appends the comparison tables as Markdown (what CI drops into
//! `$GITHUB_STEP_SUMMARY`); `--emit-cost-baseline` writes the
//! machine-independent cost baseline for committing.
//!
//! ```text
//! solve_taillard --smoke --cost-baseline BENCH_cost_baseline.json
//! solve_taillard --smoke --service --jobs 4 --cost-baseline BENCH_cost_baseline.json
//! solve_taillard --smoke --baseline BENCH_baseline.json --advisory
//! solve_taillard --file instances/ta021 --mode serial --node-limit 200000
//! solve_taillard --jobs 20 --machines 20 --seed 2012 --backend fleet --devices 4 --json out.json
//! ```

use bb::{frozen_pool, FrozenPool, FspProblem, SerialSolver, SolverConfig};
use fsp::taillard;
use gpu_bnb::cost::{CostTable, COST_COUNTERS};
use gpu_bnb::{
    BackendKind, BoundingEngine, CacheDisposition, CostReport, DataPlacement, FailureEvent,
    FailurePlan, FleetMemberSpec, FleetTopology, GpuBnbSolver, GpuSolverConfig, JobSpec,
    ServiceConfig, SolveLatencies, SolveRequest, SolveService,
};
use gpu_sim::DeviceSpec;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// How the instance is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The single-core CPU baseline (the serial solver, not a backend).
    Serial,
    /// A bounding backend driven by the GPU-offload solver loop, with the
    /// functional SIMT simulation for the GPU kinds.
    Backend(BackendKind),
    /// A bounding backend in fast-forward (host bound + analytic timing).
    BackendFast(BackendKind),
}

impl Mode {
    /// The driver-loop label: "gpu"/"gpu-fast" for the GPU backends (the
    /// historical mode names), "offload"/"offload-fast" when a CPU backend
    /// drives the same loop — a CPU run must not be labelled as a GPU mode.
    fn name(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Backend(
                BackendKind::Gpu | BackendKind::GpuPipelined | BackendKind::Fleet { .. },
            ) => "gpu",
            Mode::Backend(_) => "offload",
            Mode::BackendFast(
                BackendKind::Gpu | BackendKind::GpuPipelined | BackendKind::Fleet { .. },
            ) => "gpu-fast",
            Mode::BackendFast(_) => "offload-fast",
        }
    }

    fn backend_name(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Backend(kind) | Mode::BackendFast(kind) => kind.name(),
        }
    }

    /// Simulated devices this mode drives (1 for everything but a fleet).
    fn devices(self) -> usize {
        match self {
            Mode::Serial => 1,
            Mode::Backend(kind) | Mode::BackendFast(kind) => kind.devices(),
        }
    }

    fn with_backend(self, kind: BackendKind) -> Mode {
        match self {
            // `--backend` on the serial mode means: drive the backend from
            // the off-load solver loop, fast-forward.
            Mode::Serial | Mode::BackendFast(_) => Mode::BackendFast(kind),
            Mode::Backend(_) => Mode::Backend(kind),
        }
    }
}

/// What one timed run measured.
struct RunMetrics {
    nodes_bounded: u64,
    elapsed: Duration,
    bounding_share: f64,
    makespan: u32,
    optimal: bool,
    /// Modelled kernel time (zero for the serial solver).
    kernel_seconds: f64,
    /// Modelled PCIe transfer time.
    transfer_seconds: f64,
    /// Modelled wall time of the device schedule (overlapped when the
    /// backend pipelines; `kernel + transfer` otherwise).
    device_seconds: f64,
    /// Deterministic cost counters of the run (the cost gate's figures).
    cost: CostReport,
    /// Log-bucketed latency histograms of the modelled schedule.
    latencies: SolveLatencies,
}

/// Everything one run reports — serialised as one JSON row.
struct Report {
    instance: String,
    jobs: usize,
    machines: usize,
    mode: Mode,
    /// Cross-iteration pipelining (lookahead batch + persistent stream
    /// session) was enabled for this run.
    lookahead: bool,
    /// Index of the service job this row accounts for (`--service` rows
    /// only; `None` for standalone rows).
    job: Option<usize>,
    /// Normalized deal-weight shares of the fleet members (fleet rows only;
    /// `None` for single-device and CPU rows) — the launch-quantized
    /// spec-derived models' shares, normalized to sum to 1.
    fleet_weights: Option<Vec<f64>>,
    pool_size: usize,
    reps: usize,
    metrics: RunMetrics,
}

/// Escapes a string for embedding in a JSON string literal (instance labels
/// can be user-supplied file paths).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Report {
    fn nodes_per_sec(&self) -> f64 {
        self.metrics.nodes_bounded as f64 / self.metrics.elapsed.as_secs_f64().max(1e-9)
    }

    /// Human-readable row label for the perf-gate log.
    fn label(&self) -> String {
        let mut label = self.mode.backend_name().to_string();
        if self.mode.devices() != 1 {
            let _ = write!(label, ":{}", self.mode.devices());
        }
        if self.lookahead {
            label.push_str("+lookahead");
        }
        if let Some(job) = self.job {
            let _ = write!(label, "#job{job}");
        }
        label
    }

    /// The report's fields as JSON lines (no surrounding braces), indented
    /// by `indent` — shared by the v1 top-level object and the v2 rows.
    fn write_fields(&self, out: &mut String, indent: &str) {
        let m = &self.metrics;
        let _ = writeln!(
            out,
            "{indent}  \"instance\": \"{}\",",
            json_escape(&self.instance)
        );
        let _ = writeln!(out, "{indent}  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "{indent}  \"machines\": {},", self.machines);
        let _ = writeln!(out, "{indent}  \"mode\": \"{}\",", self.mode.name());
        let _ = writeln!(
            out,
            "{indent}  \"backend\": \"{}\",",
            self.mode.backend_name()
        );
        let _ = writeln!(out, "{indent}  \"devices\": {},", self.mode.devices());
        let _ = writeln!(out, "{indent}  \"lookahead\": {},", self.lookahead);
        if let Some(weights) = &self.fleet_weights {
            let cells: Vec<String> = weights.iter().map(|w| format!("{w:.6}")).collect();
            let _ = writeln!(out, "{indent}  \"fleet_weights\": [{}],", cells.join(", "));
        }
        if let Some(job) = self.job {
            let _ = writeln!(out, "{indent}  \"job\": {job},");
        }
        let _ = writeln!(out, "{indent}  \"pool_size\": {},", self.pool_size);
        let _ = writeln!(out, "{indent}  \"reps\": {},", self.reps);
        let _ = writeln!(out, "{indent}  \"nodes_bounded\": {},", m.nodes_bounded);
        let _ = writeln!(
            out,
            "{indent}  \"elapsed_seconds\": {:.6},",
            m.elapsed.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "{indent}  \"nodes_per_sec\": {:.1},",
            self.nodes_per_sec()
        );
        let _ = writeln!(
            out,
            "{indent}  \"bounding_share\": {:.4},",
            m.bounding_share
        );
        let _ = writeln!(
            out,
            "{indent}  \"modelled_kernel_seconds\": {:.6},",
            m.kernel_seconds
        );
        let _ = writeln!(
            out,
            "{indent}  \"modelled_transfer_seconds\": {:.6},",
            m.transfer_seconds
        );
        let _ = writeln!(
            out,
            "{indent}  \"modelled_device_seconds\": {:.6},",
            m.device_seconds
        );
        let _ = writeln!(
            out,
            "{indent}  \"offloading_rate\": {:.6},",
            m.cost.offloading_rate()
        );
        let _ = writeln!(
            out,
            "{indent}  \"cost\": {},",
            m.cost.to_json(&format!("{indent}  "))
        );
        let _ = writeln!(
            out,
            "{indent}  \"latency_histograms\": {},",
            m.latencies.to_json(&format!("{indent}  "))
        );
        let _ = writeln!(out, "{indent}  \"makespan\": {},", m.makespan);
        let _ = writeln!(out, "{indent}  \"optimal\": {}", m.optimal);
    }
}

/// Serialises one report as the v1 single-object schema, several as the
/// `rows` schema (v9; a top-level job count is present when a service run
/// contributed per-job rows, a top-level request count when a cache replay
/// contributed per-request rows — see docs/BENCHMARKING.md).
fn reports_to_json(
    reports: &[Report],
    service_jobs: Option<usize>,
    cache_requests: Option<usize>,
) -> String {
    let mut out = String::new();
    if reports.len() == 1 && service_jobs.is_none() && cache_requests.is_none() {
        let report = &reports[0];
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"flowshop-bnb-perf-report/v1\",");
        report.write_fields(&mut out, "");
        let _ = writeln!(out, "}}");
    } else {
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"flowshop-bnb-perf-report/v9\",");
        if let Some(jobs) = service_jobs {
            let _ = writeln!(out, "  \"service_jobs\": {jobs},");
        }
        if let Some(requests) = cache_requests {
            let _ = writeln!(out, "  \"cache_requests\": {requests},");
        }
        let _ = writeln!(out, "  \"rows\": [");
        for (i, report) in reports.iter().enumerate() {
            let sep = if i + 1 < reports.len() { "," } else { "" };
            let _ = writeln!(out, "    {{");
            report.write_fields(&mut out, "    ");
            let _ = writeln!(out, "    }}{sep}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
    }
    out
}

struct Options {
    file: Option<String>,
    jobs: usize,
    machines: usize,
    seed: i64,
    mode: Mode,
    lookahead: bool,
    autotune: bool,
    devices: Option<usize>,
    /// Upgrade the fleet backend to mixed device specs (C2050 + GTX 580).
    hetero: bool,
    pool_size: usize,
    pipeline_chunk: Option<usize>,
    node_limit: Option<u64>,
    frozen: Option<usize>,
    reps: usize,
    json: Option<String>,
    baseline: Option<String>,
    cost_baseline: Option<String>,
    emit_cost_baseline: Option<String>,
    advisory: bool,
    summary: Option<String>,
    max_regression: f64,
    smoke: bool,
    /// Replay the frozen smoke workload as concurrent jobs through the
    /// solve service (one shared fleet, one report row per job).
    service: bool,
    /// How many concurrent service jobs (`--jobs` in service mode).
    service_jobs: usize,
    /// Seed each service job's incumbent from NEH at submission.
    warm_start: bool,
    /// Seed a deterministic fleet failure plan (fleet backends only).
    fail_seed: Option<u64>,
    /// Explicit fleet failure events as `(batch, member)` pairs.
    fail_at: Vec<(u64, usize)>,
    /// Pause after this many batches and write a resumable checkpoint to
    /// the path.
    checkpoint: Option<(u64, String)>,
    /// Resume a paused solve from a checkpoint file written by
    /// `--checkpoint`.
    resume: Option<String>,
    /// Replay the smoke workload through the solve cache
    /// (`SolveService::request`): a cold miss, an exact-repeat hit, then
    /// perturbed warm starts — one gated cost row per request.
    cache: bool,
    /// How many cache requests (`--jobs` under `--cache`, default 4).
    cache_requests: usize,
    /// `(seed, edits)` of the perturbation the cache requests 2+ replay
    /// (`--perturb SEED:EDITS`; a fixed default keeps rows reproducible).
    perturb: Option<(u64, usize)>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            file: None,
            jobs: 20,
            machines: 20,
            seed: 2012,
            mode: Mode::BackendFast(BackendKind::Gpu),
            lookahead: false,
            autotune: false,
            devices: None,
            hetero: false,
            pool_size: 4_096,
            pipeline_chunk: None,
            node_limit: None,
            frozen: None,
            reps: 1,
            json: None,
            baseline: None,
            cost_baseline: None,
            emit_cost_baseline: None,
            advisory: false,
            summary: None,
            max_regression: 0.25,
            smoke: false,
            service: false,
            service_jobs: 4,
            warm_start: false,
            fail_seed: None,
            fail_at: Vec::new(),
            checkpoint: None,
            resume: None,
            cache: false,
            cache_requests: 4,
            perturb: None,
        }
    }
}

/// The frozen smoke workload the CI perf gate runs: small enough to finish in
/// seconds, large enough that nodes/sec is dominated by the bounding hot
/// path. The gate runs it once per row of [`SMOKE_ROWS`].
fn apply_smoke_preset(opts: &mut Options) {
    opts.jobs = 20;
    opts.machines = 20;
    opts.seed = 2012;
    opts.mode = Mode::BackendFast(BackendKind::Gpu);
    opts.pool_size = 4_096;
    opts.node_limit = Some(60_000);
    opts.frozen = Some(512);
    opts.reps = 3;
    opts.smoke = true;
}

/// The `(backend, lookahead)` rows the smoke workload gates: the paper's
/// one-launch off-load, the per-batch stream pipeline (PR 3), the
/// cross-iteration pipeline (lookahead batch + persistent session), the
/// two-device fleet riding per-device cross-iteration pipelines (PR 5 —
/// its modelled device time must undercut the single-device rows), and the
/// mixed-spec fleet with deterministic stealing (PR 8 — its modelled device
/// time must undercut the equal-deal fleet row on the identical node set).
const SMOKE_ROWS: [(BackendKind, bool); 5] = [
    (BackendKind::Gpu, false),
    (BackendKind::GpuPipelined, false),
    (BackendKind::GpuPipelined, true),
    (BackendKind::Fleet(FleetTopology::uniform(2)), true),
    (
        BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing()),
        true,
    ),
];

/// Parses the command line (`args` without the program name).
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    // `--jobs` is overloaded: the generated instance's job count normally,
    // the concurrent-job count under `--service` (whose workload is frozen).
    let mut jobs_flag: Option<usize> = None;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--smoke" => apply_smoke_preset(&mut opts),
            "--service" => opts.service = true,
            "--warm-start" => opts.warm_start = true,
            "--file" => opts.file = Some(value(args, &mut i, flag)?),
            "--jobs" => {
                let jobs = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                opts.jobs = jobs;
                jobs_flag = Some(jobs);
            }
            "--machines" => {
                opts.machines = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--seed" => {
                opts.seed = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--mode" => {
                opts.mode = match value(args, &mut i, flag)?.as_str() {
                    "serial" => Mode::Serial,
                    "gpu" => Mode::Backend(BackendKind::Gpu),
                    "gpu-fast" => Mode::BackendFast(BackendKind::Gpu),
                    other => return Err(format!("unknown mode `{other}`")),
                }
            }
            "--backend" => {
                let kind: BackendKind = value(args, &mut i, flag)?.parse()?;
                opts.mode = opts.mode.with_backend(kind);
            }
            "--lookahead" => opts.lookahead = true,
            "--autotune" => opts.autotune = true,
            "--hetero" => opts.hetero = true,
            "--devices" => {
                opts.devices = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--pipeline-chunk" => {
                opts.pipeline_chunk = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--pool-size" => {
                opts.pool_size = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--node-limit" => {
                opts.node_limit = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--frozen" => {
                opts.frozen = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--reps" => {
                opts.reps = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--fail-seed" => {
                opts.fail_seed = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--fail-at" => {
                let events: Result<Vec<(u64, usize)>, String> = value(args, &mut i, flag)?
                    .split(',')
                    .map(|pair| {
                        let pair = pair.trim();
                        let (batch, member) = pair
                            .split_once(':')
                            .ok_or_else(|| format!("--fail-at event `{pair}` is not B:M"))?;
                        Ok((
                            batch.parse().map_err(|e| format!("{e}"))?,
                            member.parse().map_err(|e| format!("{e}"))?,
                        ))
                    })
                    .collect();
                opts.fail_at = events?;
            }
            "--checkpoint" => {
                let spec = value(args, &mut i, flag)?;
                let (batches, path) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--checkpoint `{spec}` is not BATCHES:PATH"))?;
                opts.checkpoint = Some((
                    batches.parse().map_err(|e| format!("{e}"))?,
                    path.to_string(),
                ));
            }
            "--resume" => opts.resume = Some(value(args, &mut i, flag)?),
            "--cache" => opts.cache = true,
            "--perturb" => {
                let spec = value(args, &mut i, flag)?;
                let (seed, edits) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--perturb `{spec}` is not SEED:EDITS"))?;
                opts.perturb = Some((
                    seed.parse().map_err(|e| format!("{e}"))?,
                    edits.parse().map_err(|e| format!("{e}"))?,
                ));
            }
            "--json" => opts.json = Some(value(args, &mut i, flag)?),
            "--baseline" => opts.baseline = Some(value(args, &mut i, flag)?),
            "--cost-baseline" => opts.cost_baseline = Some(value(args, &mut i, flag)?),
            "--emit-cost-baseline" => opts.emit_cost_baseline = Some(value(args, &mut i, flag)?),
            "--advisory" => opts.advisory = true,
            "--summary" => opts.summary = Some(value(args, &mut i, flag)?),
            "--max-regression" => {
                opts.max_regression = value(args, &mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "solve_taillard — solve a Taillard FSP instance and emit a JSON perf report\n\n\
                     input:    --file <ta-file> | --jobs N --machines M --seed S\n\
                     solve:    --mode serial|gpu|gpu-fast\n\
                     \x20         --backend seq|multicore|gpu|gpu-pipelined|fleet[:N][:hetero][:steal]\n\
                     \x20         --devices N  --hetero (mixed-spec fleet: C2050 + GTX 580)\n\
                     \x20         --lookahead (cross-iteration pipelining)  --pipeline-chunk C\n\
                     \x20         --autotune (sweep pool + chunk size on the run's backend)\n\
                     \x20         --pool-size P  --node-limit N  --frozen K  --reps R\n\
                     fault:    --fail-seed S (seeded deterministic fleet member failures)\n\
                     \x20         --fail-at B:M[,B:M...] (explicit failure events: member M\n\
                     \x20         dies at batch B; fleet backends only)\n\
                     resume:   --checkpoint BATCHES:PATH (pause after BATCHES batches and\n\
                     \x20         write a resumable checkpoint to PATH)\n\
                     \x20         --resume PATH (continue a solve from a checkpoint file)\n\
                     service:  --service (replay the frozen smoke workload as concurrent jobs\n\
                     \x20         through the solve service; --jobs N = job count, default 4)\n\
                     \x20         --warm-start (seed each job's incumbent from NEH at submission)\n\
                     cache:    --cache (replay the smoke workload through the solve cache:\n\
                     \x20         request 0 solves cold, request 1 repeats exactly — a hit —\n\
                     \x20         and requests 2+ solve seeded perturbations as warm starts;\n\
                     \x20         --jobs N = request count, default 4; one gated cost row each)\n\
                     \x20         --perturb SEED:EDITS (the perturbation requests 2+ replay:\n\
                     \x20         EDITS seeded ±1/±2 processing-time edits; default 2012:2)\n\
                     output:   --json <path>  --summary <markdown-path, appended>\n\
                     \x20         --emit-cost-baseline <path> (machine-independent cost baseline)\n\
                     CI gate:  --smoke  --cost-baseline <BENCH_cost_baseline.json> (blocking, exact)\n\
                     \x20         --baseline <BENCH_baseline.json>  --max-regression 0.25\n\
                     \x20         --advisory (wall-clock gate warns instead of failing)\n\
                     misc:     --help (this message)\n\n\
                     --smoke runs the frozen workload once per gated row (gpu, gpu-pipelined,\n\
                     gpu-pipelined+lookahead, fleet:2+lookahead, fleet:2:hetero:steal+lookahead)\n\
                     and emits one report row each;\n\
                     --service adds one cost row per concurrent job. Each gate\n\
                     compares every row against the baseline row with the same backend,\n\
                     device count, lookahead flag and job index — the cost gate on exact\n\
                     counter equality, the wall-clock gate on nodes/sec (see\n\
                     docs/BENCHMARKING.md)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }
    if opts.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    if opts.pool_size == 0 {
        return Err("--pool-size must be at least 1".into());
    }
    if opts.pipeline_chunk == Some(0) {
        return Err("--pipeline-chunk must be at least 1".into());
    }
    // `--devices N` selects (or resizes) the fleet backend.
    if let Some(devices) = opts.devices {
        if devices == 0 {
            return Err("--devices must be at least 1".into());
        }
        if opts.smoke {
            return Err("--devices cannot be combined with --smoke (the gate's \
                        fleet row is fixed at 2 devices)"
                .into());
        }
        let topology = match opts.mode {
            Mode::Backend(BackendKind::Fleet(topology))
            | Mode::BackendFast(BackendKind::Fleet(topology)) => FleetTopology {
                devices,
                ..topology
            },
            _ => FleetTopology::uniform(devices),
        };
        opts.mode = opts.mode.with_backend(BackendKind::Fleet(topology));
    }
    // `--hetero` upgrades the fleet to mixed specs (C2050 + GTX 580).
    if opts.hetero {
        if opts.smoke {
            return Err("--hetero cannot be combined with --smoke (the gate's \
                        hetero row is fixed)"
                .into());
        }
        match opts.mode {
            Mode::Backend(BackendKind::Fleet(topology))
            | Mode::BackendFast(BackendKind::Fleet(topology)) => {
                opts.mode = opts.mode.with_backend(BackendKind::Fleet(topology.mixed()));
            }
            _ => {
                return Err(
                    "--hetero requires a fleet backend (--backend fleet[:N] or --devices N)".into(),
                )
            }
        }
    }
    let fault_flags = opts.fail_seed.is_some() || !opts.fail_at.is_empty();
    if fault_flags {
        if opts.smoke || opts.service || opts.cache {
            return Err("--fail-seed/--fail-at cannot be combined with --smoke, \
                        --service or --cache (the gate's baselines are recorded failure-free)"
                .into());
        }
        let members = match opts.mode {
            Mode::Backend(kind @ BackendKind::Fleet { .. })
            | Mode::BackendFast(kind @ BackendKind::Fleet { .. }) => kind.devices(),
            _ => {
                return Err("--fail-seed/--fail-at require a fleet backend \
                            (--backend fleet[:N] or --devices N)"
                    .into())
            }
        };
        if !opts.fail_at.is_empty() {
            let events = opts
                .fail_at
                .iter()
                .map(|&(batch, member)| FailureEvent { batch, member })
                .collect();
            FailurePlan::from_events(events)
                .check_fits(members)
                .map_err(|msg| format!("--fail-at: {msg}"))?;
        }
    }
    if opts.checkpoint.is_some() || opts.resume.is_some() {
        if opts.smoke || opts.service || opts.autotune || opts.cache {
            return Err("--checkpoint/--resume cannot be combined with --smoke, \
                        --service, --autotune or --cache (the gate rows run uninterrupted)"
                .into());
        }
        if opts.mode == Mode::Serial {
            return Err("--checkpoint/--resume require a GPU backend mode \
                        (not --mode serial)"
                .into());
        }
        if opts.reps != 1 {
            return Err(
                "--checkpoint/--resume require --reps 1 (a paused or resumed \
                        solve is not a throughput sample to take best-of)"
                    .into(),
            );
        }
        if fault_flags {
            // A fresh backend restarts the failure-plan batch clock, so the
            // recovery counters of a resumed solve are not comparable to an
            // uninterrupted one (see docs/BENCHMARKING.md).
            return Err("--fail-seed/--fail-at cannot be combined with \
                        --checkpoint/--resume"
                .into());
        }
    }
    if opts.resume.is_some() && opts.frozen.is_some() {
        return Err("--resume cannot be combined with --frozen (the checkpoint \
                    carries its own frontier)"
            .into());
    }
    if opts.smoke && opts.autotune {
        // The gate's committed baseline is recorded at the fixed smoke
        // configuration; retuning pool/chunk size under it would compare
        // rows measured at a different configuration.
        return Err(
            "--autotune cannot be combined with --smoke (the perf gate's \
                    baseline is recorded at the fixed smoke configuration)"
                .into(),
        );
    }
    if opts.warm_start && !opts.service {
        // Standalone paths already seed NEH (`FspProblem::initial_upper_bound`
        // in every solver, and `frozen_pool` for frozen starts) — the flag
        // only changes behaviour on service job submission.
        return Err(
            "--warm-start requires --service (standalone solves and frozen \
                    pools already seed the NEH incumbent)"
                .into(),
        );
    }
    if opts.service {
        if opts.file.is_some() {
            return Err(
                "--service cannot be combined with --file (service rows replay \
                        the frozen smoke workload)"
                    .into(),
            );
        }
        if opts.autotune {
            return Err(
                "--service cannot be combined with --autotune (service rows run \
                        at the fixed smoke configuration)"
                    .into(),
            );
        }
        opts.service_jobs = jobs_flag.unwrap_or(4);
        if opts.service_jobs == 0 {
            return Err("--jobs must be at least 1 in service mode".into());
        }
        // Service rows replay the cost-gated smoke workload regardless of the
        // instance flags: the per-job counters are only comparable against
        // the committed baseline at the frozen configuration.
        let smoke_was = opts.smoke;
        apply_smoke_preset(&mut opts);
        opts.smoke = smoke_was;
    }
    if !opts.service && !opts.cache {
        // The generated instance's shape: `Instance` needs at least one job
        // and one machine, and a search node stores the job count in 16 bits.
        if opts.jobs == 0 || opts.jobs > usize::from(u16::MAX) {
            return Err(format!(
                "--jobs must be between 1 and {} (got {})",
                u16::MAX,
                opts.jobs
            ));
        }
        if opts.machines == 0 {
            return Err("--machines must be at least 1".into());
        }
    }
    if opts.perturb.is_some() && !opts.cache {
        return Err(
            "--perturb requires --cache (perturbed replays only run through the \
                    solve cache)"
                .into(),
        );
    }
    if let Some((_, edits)) = opts.perturb {
        if edits == 0 {
            return Err("--perturb needs at least one edit (SEED:EDITS with EDITS ≥ 1)".into());
        }
    }
    if opts.cache {
        if opts.file.is_some() {
            return Err(
                "--cache cannot be combined with --file (cache rows replay the \
                        frozen smoke workload)"
                    .into(),
            );
        }
        if opts.autotune {
            return Err(
                "--cache cannot be combined with --autotune (cache rows run at \
                        the fixed smoke configuration)"
                    .into(),
            );
        }
        opts.cache_requests = jobs_flag.unwrap_or(4);
        if opts.cache_requests == 0 {
            return Err("--jobs must be at least 1 with --cache".into());
        }
        // Cache rows replay the cost-gated smoke workload, like the service
        // rows: the counters are only comparable against the committed
        // baseline at the frozen configuration.
        let smoke_was = opts.smoke;
        apply_smoke_preset(&mut opts);
        opts.smoke = smoke_was;
    }
    // A generated instance needs a seed Taillard's generator accepts (the
    // service and cache presets above fix their own).
    let seeds = taillard::TaillardRng::SEEDS;
    if opts.file.is_none() && !seeds.contains(&opts.seed) {
        return Err(format!(
            "--seed must be between 1 and {} (got {})",
            seeds.end - 1,
            opts.seed
        ));
    }
    Ok(opts)
}

/// Rejects a run too large for its device memory: the engine of every
/// simulated device the run launches on (a fleet's members, the Tesla
/// C2050 otherwise) holds the six matrices plus two pool slots and two
/// output slots of `--pool-size` plus `jobs` nodes. Host backends and the
/// serial mode get the C2050's limit, so one pool size means the same on
/// every backend.
fn check_pool_fits(opts: &Options, jobs: usize, machines: usize) -> Result<(), String> {
    let members = match opts.mode {
        Mode::Backend(BackendKind::Fleet(topology))
        | Mode::BackendFast(BackendKind::Fleet(topology)) => {
            gpu_bnb::fleet_member_specs(topology.devices, topology.is_hetero())
        }
        _ => vec![FleetMemberSpec::Gpu(DeviceSpec::tesla_c2050())],
    };
    let bytes = opts
        .pool_size
        .checked_add(jobs)
        .and_then(|capacity| BoundingEngine::device_bytes(jobs, machines, capacity));
    for member in members {
        let FleetMemberSpec::Gpu(spec) = member else {
            continue;
        };
        if bytes.is_none_or(|bytes| bytes > spec.global_memory_bytes) {
            let needed = bytes.map_or("more than usize::MAX".into(), |b| b.to_string());
            return Err(format!(
                "{jobs} jobs on {machines} machines with --pool-size {} need {needed} \
                 bytes of device memory; the {} has {}",
                opts.pool_size, spec.name, spec.global_memory_bytes
            ));
        }
    }
    Ok(())
}

/// One timed solve over an already-prepared (deterministic) frozen pool —
/// or, when `resume` is given, over the frontier of a previously written
/// checkpoint.
fn run_once(
    opts: &Options,
    mode: Mode,
    lookahead: bool,
    problem: &FspProblem,
    frozen: Option<&FrozenPool>,
    resume: Option<&gpu_bnb::SolveCheckpoint>,
) -> RunMetrics {
    let frozen = frozen.cloned();
    match mode {
        Mode::Serial => {
            let solver = SerialSolver::new(
                problem.clone(),
                SolverConfig {
                    node_limit: opts.node_limit,
                    ..Default::default()
                },
            );
            let outcome = match frozen {
                Some(f) => solver.solve_from(f.nodes, Some(f.upper_bound), f.best_schedule),
                None => solver.solve(),
            };
            // The serial solver bounds everything on the host: its cost
            // report is host-only (off-loading rate zero), with the host-op
            // cycles still routed through the cost table.
            let mut cost = CostReport::default();
            cost.record_host_bound(outcome.stats.bounded);
            cost.host_op_cycles = CostTable::cycles(CostTable::HOST_OPS, outcome.stats.bounded);
            RunMetrics {
                nodes_bounded: outcome.stats.bounded,
                elapsed: outcome.elapsed,
                bounding_share: outcome.times.bounding_share(),
                makespan: outcome.best_makespan,
                optimal: outcome.is_optimal(),
                kernel_seconds: 0.0,
                transfer_seconds: 0.0,
                device_seconds: 0.0,
                cost,
                latencies: SolveLatencies::default(),
            }
        }
        Mode::Backend(kind) | Mode::BackendFast(kind) => {
            let solver = GpuBnbSolver::from_problem(
                problem.clone(),
                GpuSolverConfig {
                    pool_size: opts.pool_size,
                    placement: DataPlacement::SharedJmPtm,
                    node_limit: opts.node_limit,
                    fast_forward: matches!(mode, Mode::BackendFast(_)),
                    backend: kind,
                    lookahead,
                    pipeline_chunk: opts.pipeline_chunk,
                    fail_seed: opts.fail_seed,
                    fail_at: opts.fail_at.clone(),
                    checkpoint_after: opts.checkpoint.as_ref().map(|(batches, _)| *batches),
                    ..Default::default()
                },
            );
            let outcome = match (resume, frozen) {
                (Some(checkpoint), _) => match solver.resume(checkpoint) {
                    Ok(outcome) => outcome,
                    Err(msg) => {
                        let path = opts.resume.as_deref().unwrap_or_default();
                        eprintln!("error: cannot resume from checkpoint {path}: {msg}");
                        std::process::exit(1);
                    }
                },
                (None, Some(f)) => solver.solve_from(f.nodes, Some(f.upper_bound), f.best_schedule),
                (None, None) => solver.solve(),
            };
            if let Some((_, path)) = &opts.checkpoint {
                match &outcome.checkpoint {
                    Some(checkpoint) => {
                        if let Err(err) = std::fs::write(path, checkpoint.to_json()) {
                            eprintln!("error: cannot write checkpoint {path}: {err}");
                            std::process::exit(1);
                        }
                        eprintln!(
                            "checkpoint: paused after {} batches — {} frontier nodes written to {path}",
                            checkpoint.cost.batches,
                            checkpoint.frontier.len(),
                        );
                    }
                    None => eprintln!(
                        "checkpoint: solve finished before the requested batch count — \
                         nothing written to {path}"
                    ),
                }
            }
            // Share of the modelled device schedule spent in the kernel (the
            // rest is PCIe transfer) — the device-side analogue of the
            // serial solver's bounding share.
            let device = outcome.gpu.kernel_time + outcome.gpu.transfer_time;
            let share = if device.is_zero() {
                0.0
            } else {
                outcome.gpu.kernel_time.as_secs_f64() / device.as_secs_f64()
            };
            RunMetrics {
                nodes_bounded: outcome.stats.bounded,
                elapsed: outcome.gpu.wall_time,
                bounding_share: share,
                makespan: outcome.best_makespan,
                optimal: outcome.is_optimal(),
                kernel_seconds: outcome.gpu.kernel_time.as_secs_f64(),
                transfer_seconds: outcome.gpu.transfer_time.as_secs_f64(),
                device_seconds: outcome.gpu.device_schedule_time().as_secs_f64(),
                cost: outcome.cost,
                latencies: outcome.latencies,
            }
        }
    }
}

/// Best-of-N (throughput gates must not fail on one noisy sample).
fn run_best_of(
    opts: &Options,
    mode: Mode,
    lookahead: bool,
    problem: &FspProblem,
    frozen: Option<&FrozenPool>,
    resume: Option<&gpu_bnb::SolveCheckpoint>,
) -> RunMetrics {
    let mut best: Option<RunMetrics> = None;
    for _ in 0..opts.reps {
        let run = run_once(opts, mode, lookahead, problem, frozen, resume);
        let better = match &best {
            Some(b) => {
                run.nodes_bounded as f64 / run.elapsed.as_secs_f64().max(1e-9)
                    > b.nodes_bounded as f64 / b.elapsed.as_secs_f64().max(1e-9)
            }
            None => true,
        };
        if better {
            best = Some(run);
        }
    }
    best.expect("at least one rep")
}

/// The fixed backend the service rows run on: the smoke fleet row's kind,
/// but *without* lookahead sessions, so every job's counters are a pure
/// function of its own batches — bit-identical to a standalone solve of the
/// same spec, and therefore exactly gateable per job.
const SERVICE_ROW_KIND: BackendKind = BackendKind::Fleet(FleetTopology::uniform(2));

/// Replays the frozen smoke workload as `opts.service_jobs` concurrent jobs
/// through the [`SolveService`] on one shared fleet — one report row per
/// job, keyed by its job index, gated by the cost baseline like any other
/// smoke row.
fn run_service(
    opts: &Options,
    inst: &fsp::Instance,
    label: &str,
    frozen: &FrozenPool,
) -> Vec<Report> {
    let config = GpuSolverConfig {
        pool_size: opts.pool_size,
        placement: DataPlacement::SharedJmPtm,
        node_limit: opts.node_limit,
        fast_forward: true,
        backend: SERVICE_ROW_KIND,
        ..Default::default()
    };
    let service = SolveService::new(ServiceConfig {
        max_concurrent: opts.service_jobs,
    });
    let handles: Vec<_> = (0..opts.service_jobs)
        .map(|_| {
            let mut spec =
                JobSpec::new(inst.clone(), config.clone()).with_initial_nodes(frozen.nodes.clone());
            if let Some(schedule) = frozen.best_schedule.clone() {
                spec = spec.with_incumbent(schedule, frozen.upper_bound);
            }
            if opts.warm_start {
                // NEH at submission; the frozen incumbent wins when tighter.
                spec = spec.warm_start();
            }
            service.submit(spec)
        })
        .collect();
    let _ = service.run_until_idle();
    let shared = service.shared_cost();

    let reports: Vec<Report> = handles
        .iter()
        .enumerate()
        .map(|(k, handle)| {
            let outcome = handle.outcome().expect("service drained every job");
            let device = outcome.gpu.kernel_time + outcome.gpu.transfer_time;
            let share = if device.is_zero() {
                0.0
            } else {
                outcome.gpu.kernel_time.as_secs_f64() / device.as_secs_f64()
            };
            Report {
                instance: label.to_string(),
                jobs: inst.jobs(),
                machines: inst.machines(),
                mode: Mode::BackendFast(SERVICE_ROW_KIND),
                lookahead: false,
                job: Some(k),
                fleet_weights: gpu_bnb::fleet_weight_shares(
                    SERVICE_ROW_KIND,
                    &config,
                    inst.jobs(),
                    inst.machines(),
                ),
                pool_size: opts.pool_size,
                reps: 1,
                metrics: RunMetrics {
                    nodes_bounded: outcome.stats.bounded,
                    elapsed: outcome.gpu.wall_time,
                    bounding_share: share,
                    makespan: outcome.best_makespan,
                    optimal: outcome.is_optimal(),
                    kernel_seconds: outcome.gpu.kernel_time.as_secs_f64(),
                    transfer_seconds: outcome.gpu.transfer_time.as_secs_f64(),
                    device_seconds: outcome.gpu.device_schedule_time().as_secs_f64(),
                    cost: outcome.cost,
                    latencies: outcome.latencies,
                },
            }
        })
        .collect();

    // The headlines the service rows exist to demonstrate: identical specs
    // produce bit-identical per-job counters, and the per-job rows carve the
    // shared fleet accounting up exactly (nothing double-counted or lost).
    let identical = reports
        .windows(2)
        .all(|w| w[0].metrics.cost == w[1].metrics.cost);
    let mut summed = CostReport::default();
    for report in &reports {
        summed.absorb(&report.metrics.cost);
    }
    eprintln!(
        "service: {} concurrent jobs on one shared fleet — {} nodes bounded per job, per-job cost rows {}",
        reports.len(),
        reports.first().map_or(0, |r| r.metrics.nodes_bounded),
        if identical { "bit-identical" } else { "DIVERGED" },
    );
    eprintln!(
        "service: per-job rows {} the shared accounting ({} device nodes)",
        if summed == shared {
            "exactly partition"
        } else {
            "DO NOT partition"
        },
        shared.device_nodes,
    );
    reports
}

/// The fixed backend the cache replay rows run on: the plain GPU off-load
/// (devices 1, no lookahead), so the `(backend, devices, lookahead, job)`
/// row keys never collide with the `--service` fleet rows.
const CACHE_ROW_KIND: BackendKind = BackendKind::Gpu;

/// The perturbation the cache requests 2+ replay when `--perturb` is not
/// given: seed 2012 (the smoke seed), two processing-time edits.
const DEFAULT_PERTURB: (u64, usize) = (2012, 2);

/// Replays the smoke workload through the solve cache
/// ([`SolveService::request`]): request 0 solves cold and stores its
/// certificate, request 1 repeats the workload exactly (an exact hit — zero
/// device work, one `cache_hits` tick), and requests 2+ solve seeded
/// perturbations of the instance as warm starts (donor incumbent re-priced,
/// frontier resumed after a bound recheck). One report row per request,
/// billed at the request's own [`CostReport`] — so the deterministic cost
/// gate covers hit, miss and warm-start behaviour.
fn run_cache(opts: &Options, inst: &fsp::Instance, label: &str) -> Vec<Report> {
    let (seed, edits) = opts.perturb.unwrap_or(DEFAULT_PERTURB);
    let config = GpuSolverConfig {
        pool_size: opts.pool_size,
        placement: DataPlacement::SharedJmPtm,
        node_limit: opts.node_limit,
        fast_forward: true,
        backend: CACHE_ROW_KIND,
        ..Default::default()
    };
    let service = SolveService::with_defaults();
    let mut first_certificate = None;
    (0..opts.cache_requests)
        .map(|k| {
            // Requests 0 and 1 are the identical workload (cold, then the
            // exact repeat); each later request perturbs the instance under
            // its own derived seed.
            let request_inst = if k < 2 {
                inst.clone()
            } else {
                gpu_bnb::perturbed(inst, seed.wrapping_add(k as u64), edits)
            };
            let outcome =
                service.request(SolveRequest::new(request_inst, config.clone()).keeping_frontier());
            let disposition = match outcome.disposition {
                CacheDisposition::Hit => "hit".to_string(),
                CacheDisposition::Miss => "miss".to_string(),
                CacheDisposition::Disabled => "uncached".to_string(),
                CacheDisposition::WarmStart { invalidated } => {
                    format!("warm start ({invalidated} frontier bounds invalidated)")
                }
            };
            eprintln!(
                "cache: request {k} — {disposition}, makespan {}, {} nodes bounded",
                outcome.certificate.best_makespan,
                outcome.request_cost.nodes_bounded(),
            );
            match k {
                0 => first_certificate = Some(outcome.certificate.clone()),
                1 => eprintln!(
                    "cache: exact repeat certificate {}",
                    if Some(&outcome.certificate) == first_certificate.as_ref() {
                        "bit-identical to the cold solve's"
                    } else {
                        "DIVERGED from the cold solve's"
                    }
                ),
                _ => {}
            }
            let (gpu, stats_bounded, elapsed) = match &outcome.job {
                Some(job) => (job.gpu, job.stats.bounded, job.gpu.wall_time),
                // An exact hit runs nothing: zero device work by design.
                None => (Default::default(), 0, Duration::ZERO),
            };
            let device = gpu.kernel_time + gpu.transfer_time;
            let share = if device.is_zero() {
                0.0
            } else {
                gpu.kernel_time.as_secs_f64() / device.as_secs_f64()
            };
            Report {
                instance: label.to_string(),
                jobs: inst.jobs(),
                machines: inst.machines(),
                mode: Mode::BackendFast(CACHE_ROW_KIND),
                lookahead: false,
                job: Some(k),
                fleet_weights: None,
                pool_size: opts.pool_size,
                reps: 1,
                metrics: RunMetrics {
                    nodes_bounded: stats_bounded,
                    elapsed,
                    bounding_share: share,
                    makespan: outcome.certificate.best_makespan,
                    optimal: outcome.certificate.is_optimal(),
                    kernel_seconds: gpu.kernel_time.as_secs_f64(),
                    transfer_seconds: gpu.transfer_time.as_secs_f64(),
                    device_seconds: gpu.device_schedule_time().as_secs_f64(),
                    cost: outcome.request_cost,
                    latencies: outcome.job.map(|j| j.latencies).unwrap_or_default(),
                },
            }
        })
        .collect()
}

/// One `nodes_per_sec` figure of a baseline report, keyed by the backend
/// name, device count, lookahead flag and (for service rows) job index of
/// its row.
struct BaselineRow {
    backend: String,
    devices: usize,
    lookahead: bool,
    job: Option<usize>,
    nodes_per_sec: f64,
}

/// The `(backend, devices, lookahead, job)` key of the row a byte offset
/// falls in, read from the fields that precede it in a report written by
/// this binary — shared by the wall-clock and cost baseline parsers. In the
/// v1 single-object schema without a `backend` field the backend is `""`;
/// pre-v3 rows without a `lookahead` field parse as `false`; pre-v4 rows
/// without a `devices` field parse as 1; pre-v6 rows without a `job` field
/// parse as `None`.
fn row_key_before(text: &str, at: usize) -> (String, usize, bool, Option<usize>) {
    let backend_key = "\"backend\":";
    let devices_key = "\"devices\":";
    let lookahead_key = "\"lookahead\":";
    let job_key = "\"job\":";
    let backend_at = text[..at].rfind(backend_key);
    let backend = backend_at
        .map(|b| {
            let rest = text[b + backend_key.len()..].trim_start();
            rest.trim_start_matches('"')
                .chars()
                .take_while(|c| *c != '"')
                .collect::<String>()
        })
        .unwrap_or_default();
    let devices = text[..at]
        .rfind(devices_key)
        .and_then(|b| {
            let rest = text[b + devices_key.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<usize>().ok()
        })
        .unwrap_or(1);
    let lookahead = text[..at]
        .rfind(lookahead_key)
        .map(|b| {
            text[b + lookahead_key.len()..]
                .trim_start()
                .starts_with("true")
        })
        .unwrap_or(false);
    // `job` is optional per row, so a bare rfind could bleed a *previous*
    // row's key into a row that lacks one: only accept a `"job":` that sits
    // after this row's `"backend":` key.
    let job = text[..at].rfind(job_key).and_then(|j| {
        if backend_at.is_none_or(|b| j < b) {
            return None;
        }
        let rest = text[j + job_key.len()..].trim_start();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse::<usize>().ok()
    });
    (backend, devices, lookahead, job)
}

/// Pulls the gate rows out of a report previously written by this binary (a
/// full JSON parser is not warranted for our own format).
fn baseline_rows(text: &str) -> Vec<BaselineRow> {
    let nps_key = "\"nodes_per_sec\":";
    let mut rows = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = text[search_from..].find(nps_key) {
        let nps_at = search_from + rel;
        // The backend name, device count, lookahead flag and job index, when
        // present, precede nodes_per_sec in their row.
        let (backend, devices, lookahead, job) = row_key_before(text, nps_at);
        let rest = text[nps_at + nps_key.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        if let Ok(value) = rest[..end].parse::<f64>() {
            rows.push(BaselineRow {
                backend,
                devices,
                lookahead,
                job,
                nodes_per_sec: value,
            });
        }
        search_from = nps_at + nps_key.len();
    }
    rows
}

/// One [`CostReport`] of a cost baseline (or of a v5 perf report — the
/// parser accepts both), keyed like [`BaselineRow`].
struct CostRow {
    backend: String,
    devices: usize,
    lookahead: bool,
    job: Option<usize>,
    cost: CostReport,
}

/// Pulls every `"cost": { ... }` block (a flat object of integer counters)
/// out of a cost baseline or a v5 perf report, keyed by the row fields that
/// precede it.
fn cost_rows(text: &str) -> Result<Vec<CostRow>, String> {
    let cost_key = "\"cost\":";
    let mut rows = Vec::new();
    let mut search_from = 0;
    while let Some(rel) = text[search_from..].find(cost_key) {
        let at = search_from + rel;
        let (backend, devices, lookahead, job) = row_key_before(text, at);
        let after = &text[at + cost_key.len()..];
        let open = after
            .find('{')
            .ok_or_else(|| format!("no object after \"cost\": in row `{backend}`"))?;
        let close = after[open..]
            .find('}')
            .ok_or_else(|| format!("unterminated cost object in row `{backend}`"))?;
        let body = &after[open + 1..open + close];
        let mut cost = CostReport::default();
        let mut seen: Vec<&str> = Vec::with_capacity(COST_COUNTERS);
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (name, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed counter `{pair}` in row `{backend}`"))?;
            let name = name.trim().trim_matches('"');
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("non-integer counter `{pair}` in row `{backend}`"))?;
            if !cost.set_counter(name, value) {
                return Err(format!("unknown cost counter `{name}` in row `{backend}`"));
            }
            if seen.contains(&name) {
                return Err(format!("row `{backend}` names cost counter `{name}` twice"));
            }
            seen.push(name);
        }
        if seen.len() != COST_COUNTERS {
            return Err(format!(
                "row `{backend}` has {} cost counters, expected {COST_COUNTERS}",
                seen.len()
            ));
        }
        rows.push(CostRow {
            backend,
            devices,
            lookahead,
            job,
            cost,
        });
        search_from = at + cost_key.len() + open + close;
    }
    Ok(rows)
}

/// Serialises the deterministic cost counters of each row — and nothing
/// else: no wall-clock field reaches the file, so it is bit-identical
/// across machines and across runs on the same commit.
fn cost_baseline_json(reports: &[Report]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"flowshop-bnb-cost-baseline/v1\",");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, report) in reports.iter().enumerate() {
        let sep = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"backend\": \"{}\",",
            report.mode.backend_name()
        );
        let _ = writeln!(out, "      \"devices\": {},", report.mode.devices());
        let _ = writeln!(out, "      \"lookahead\": {},", report.lookahead);
        if let Some(job) = report.job {
            let _ = writeln!(out, "      \"job\": {job},");
        }
        let _ = writeln!(
            out,
            "      \"cost\": {}",
            report.metrics.cost.to_json("      ")
        );
        let _ = writeln!(out, "    }}{sep}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let (inst, label) = match &opts.file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: cannot read {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            match fsp::io::parse_taillard(path, &text) {
                Ok((inst, _header)) => (inst, path.clone()),
                Err(err) => {
                    eprintln!("error: cannot parse {path}: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let label = format!("rand-{}x{}-s{}", opts.jobs, opts.machines, opts.seed);
            (
                taillard::generate(label.clone(), opts.jobs, opts.machines, opts.seed),
                label,
            )
        }
    };

    let jobs = inst.jobs();
    let machines = inst.machines();
    if let Err(msg) = check_pool_fits(&opts, jobs, machines) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }

    // Optional runtime tuning: sweep the pool size and the pipeline chunk
    // size on this instance and this run's backend (the paper's runtime
    // procedure) and persist the winners into the run options before
    // anything is timed. The serial solver has neither to tune.
    let mut opts = opts;
    if opts.autotune {
        match opts.mode {
            Mode::Backend(kind) | Mode::BackendFast(kind) => {
                let base = GpuSolverConfig {
                    placement: DataPlacement::SharedJmPtm,
                    fast_forward: true,
                    backend: kind,
                    ..Default::default()
                };
                let tuned = gpu_bnb::autotune::autotune_solver_config(&inst, &base, 16_384);
                opts.pool_size = tuned.config.pool_size;
                opts.pipeline_chunk = tuned.config.pipeline_chunk;
                eprintln!(
                    "autotune: pool_size {} , pipeline_chunk {:?}",
                    opts.pool_size, opts.pipeline_chunk
                );
            }
            Mode::Serial => eprintln!("autotune: the serial solver has no pool or chunk to tune"),
        }
    }

    // The service path submits per-job copies of the instance; the cache
    // replay perturbs per-request copies of it.
    let service_inst = opts.service.then(|| inst.clone());
    let cache_inst = opts.cache.then(|| inst.clone());

    // A `--resume` run starts from a checkpoint file instead of a frozen
    // pool; its frontier, incumbent and cost counters carry over.
    let resume: Option<gpu_bnb::SolveCheckpoint> = match &opts.resume {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: cannot read checkpoint {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let checkpoint = match gpu_bnb::SolveCheckpoint::from_json(&text) {
                Ok(checkpoint) => checkpoint,
                Err(msg) => {
                    eprintln!("error: cannot parse checkpoint {path}: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "resume: continuing from {path} — {} frontier nodes, {} batches done",
                checkpoint.frontier.len(),
                checkpoint.cost.batches,
            );
            Some(checkpoint)
        }
        None => None,
    };

    let problem = FspProblem::new(inst);
    // Freezing is deterministic and untimed setup — do it once, not per rep
    // (and shared by every smoke row and every service job, so the backends
    // race on an identical workload).
    let frozen = opts.frozen.map(|target| frozen_pool(&problem, target));

    let specs: Vec<(Mode, bool)> = if opts.smoke {
        SMOKE_ROWS
            .iter()
            .map(|&(kind, lookahead)| (Mode::BackendFast(kind), lookahead))
            .collect()
    } else if opts.service {
        // `--service` without `--smoke`: only the per-job service rows.
        Vec::new()
    } else {
        vec![(opts.mode, opts.lookahead)]
    };

    // Fleet rows report their normalized deal-weight shares.
    let weight_shares = |mode: Mode| -> Option<Vec<f64>> {
        let kind = match mode {
            Mode::Serial => return None,
            Mode::Backend(kind) | Mode::BackendFast(kind) => kind,
        };
        gpu_bnb::fleet_weight_shares(kind, &GpuSolverConfig::default(), jobs, machines)
    };

    let mut reports: Vec<Report> = specs
        .into_iter()
        .map(|(mode, lookahead)| Report {
            instance: label.clone(),
            jobs,
            machines,
            mode,
            lookahead,
            job: None,
            fleet_weights: weight_shares(mode),
            pool_size: opts.pool_size,
            reps: opts.reps,
            metrics: run_best_of(
                &opts,
                mode,
                lookahead,
                &problem,
                frozen.as_ref(),
                resume.as_ref(),
            ),
        })
        .collect();

    if let Some(service_inst) = service_inst {
        let frozen_ref = frozen.as_ref().expect("service mode freezes a pool");
        reports.extend(run_service(&opts, &service_inst, &label, frozen_ref));
    }

    if let Some(cache_inst) = cache_inst {
        reports.extend(run_cache(&opts, &cache_inst, &label));
    }

    // The headlines the smoke workload exists to demonstrate: the modelled
    // device schedule of the cross-iteration pipeline vs the per-batch one,
    // and of the two-device fleet vs the single-device pipeline.
    if opts.smoke {
        let device = |backend: &str, lookahead: bool| {
            reports
                .iter()
                .find(|r| r.lookahead == lookahead && r.mode.backend_name() == backend)
                .map(|r| r.metrics.device_seconds)
        };
        if let (Some(per_batch), Some(cross)) = (
            device("gpu-pipelined", false),
            device("gpu-pipelined", true),
        ) {
            eprintln!(
                "smoke: modelled device time {cross:.6}s cross-iteration vs {per_batch:.6}s per-batch pipelined ({:+.1} %)",
                (cross / per_batch - 1.0) * 100.0
            );
        }
        if let (Some(single), Some(fleet)) = (device("gpu-pipelined", true), device("fleet", true))
        {
            eprintln!(
                "smoke: modelled device time {fleet:.6}s fleet:2 vs {single:.6}s single-device pipelined ({:+.1} %)",
                (fleet / single - 1.0) * 100.0
            );
        }
        if let (Some(equal), Some(hetero)) =
            (device("fleet", true), device("fleet-hetero-steal", true))
        {
            eprintln!(
                "smoke: modelled device time {hetero:.6}s fleet:2:hetero:steal vs {equal:.6}s equal-deal fleet:2 ({:+.1} %)",
                (hetero / equal - 1.0) * 100.0
            );
        }
    }

    let json = reports_to_json(
        &reports,
        opts.service.then_some(opts.service_jobs),
        opts.cache.then_some(opts.cache_requests),
    );
    print!("{json}");
    if let Some(path) = &opts.json {
        if let Err(err) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &opts.emit_cost_baseline {
        let text = cost_baseline_json(&reports);
        if let Err(err) = std::fs::write(path, &text) {
            eprintln!("error: cannot write cost baseline {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("cost baseline: wrote {} rows to {path}", reports.len());
    }

    let cost_baseline = match &opts.cost_baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: cannot read cost baseline {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let rows = match cost_rows(&text) {
                Ok(rows) if rows.is_empty() => {
                    eprintln!("error: no cost rows in baseline {path}");
                    return ExitCode::FAILURE;
                }
                Ok(rows) => rows,
                Err(msg) => {
                    eprintln!("error: cannot parse cost baseline {path}: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            Some(rows)
        }
        None => None,
    };

    let cost_baseline_for = |report: &Report| -> Option<CostReport> {
        cost_baseline.as_ref().and_then(|rows| {
            rows.iter()
                .find(|b| {
                    b.backend == report.mode.backend_name()
                        && b.devices == report.mode.devices()
                        && b.lookahead == report.lookahead
                        && b.job == report.job
                })
                .map(|b| b.cost)
        })
    };

    let baseline = match &opts.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: cannot read baseline {path}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let rows = baseline_rows(&text);
            if rows.is_empty() {
                eprintln!("error: no nodes_per_sec in baseline {path}");
                return ExitCode::FAILURE;
            }
            Some(rows)
        }
        None => None,
    };

    // Match by backend name + device count + lookahead flag + job index; a
    // v1 baseline without backend names gates its single figure against
    // every row.
    let baseline_for = |report: &Report| -> Option<f64> {
        baseline.as_ref().and_then(|rows| {
            rows.iter()
                .find(|b| {
                    b.backend == report.mode.backend_name()
                        && b.devices == report.mode.devices()
                        && b.lookahead == report.lookahead
                        && b.job == report.job
                })
                .or_else(|| rows.first().filter(|b| b.backend.is_empty()))
                .map(|b| b.nodes_per_sec)
        })
    };

    if let Some(path) = &opts.summary {
        if let Err(err) = append_summary(
            path,
            &reports,
            &baseline_for,
            &cost_baseline_for,
            opts.advisory,
        ) {
            eprintln!("error: cannot write summary {path}: {err}");
            return ExitCode::FAILURE;
        }
    }

    // The blocking tier: every counter is a pure function of the workload
    // and the cost model, so the comparison is exact equality — no noise
    // margin, no machine dependence.
    let mut cost_failed = false;
    if cost_baseline.is_some() {
        for report in &reports {
            let name = report.label();
            let Some(base) = cost_baseline_for(report) else {
                eprintln!("cost gate [{name}]: no baseline row");
                cost_failed = true;
                continue;
            };
            let current = report.metrics.cost;
            if current == base {
                eprintln!("cost gate [{name}]: ok — {COST_COUNTERS} counters exact");
                continue;
            }
            cost_failed = true;
            eprintln!("cost gate [{name}]: FAIL — counters drifted from the baseline:");
            eprintln!(
                "  {:<20} {:>16} {:>16} {:>14}",
                "counter", "baseline", "current", "delta"
            );
            for ((cname, cur), (_, base_v)) in current.counters().iter().zip(base.counters().iter())
            {
                if cur != base_v {
                    let delta = *cur as i128 - *base_v as i128;
                    eprintln!("  {cname:<20} {base_v:>16} {cur:>16} {delta:>+14}");
                }
            }
        }
        if cost_failed {
            eprintln!(
                "cost gate: FAIL — the counters are deterministic, so any drift is a real \
                 behaviour change. If it is intentional, refresh the baseline with \
                 scripts/refresh_cost_baseline.sh and commit the result (see docs/BENCHMARKING.md)."
            );
        } else {
            eprintln!("cost gate: ok");
        }
    }

    // The advisory tier: wall-clock nodes/sec against a machine-dependent
    // floor. With --advisory a regression warns but never fails the run.
    let mut wall_failed = false;
    if baseline.is_some() {
        for report in &reports {
            let name = report.label();
            let Some(base) = baseline_for(report) else {
                eprintln!("perf gate [{name}]: no baseline row — run --smoke --json to refresh");
                wall_failed = true;
                continue;
            };
            let floor = base * (1.0 - opts.max_regression);
            let nps = report.nodes_per_sec();
            eprintln!(
                "perf gate [{name}]: {nps:.0} nodes/s vs baseline {base:.0} (floor {floor:.0}, max regression {:.0} %)",
                opts.max_regression * 100.0
            );
            if nps < floor {
                if opts.advisory {
                    eprintln!(
                        "perf gate [{name}]: ADVISORY — nodes/sec regressed past the floor \
                         (wall-clock is machine-dependent and not blocking; the cost gate is)"
                    );
                } else {
                    eprintln!("perf gate [{name}]: FAIL — nodes/sec regressed past the floor");
                    wall_failed = true;
                }
            }
        }
        if wall_failed {
            eprintln!(
                "perf gate: FAIL — to refresh the wall-clock baseline, run \
                 scripts/refresh_baseline.sh and commit the updated BENCH_baseline.json \
                 (see docs/BENCHMARKING.md for the procedure and when a refresh is justified)."
            );
        } else {
            eprintln!(
                "perf gate: ok{}",
                if opts.advisory { " (advisory)" } else { "" }
            );
        }
    }
    if cost_failed || wall_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Appends the baseline-vs-current comparison as a Markdown table — the
/// payload the `bench-smoke` CI job drops into `$GITHUB_STEP_SUMMARY`
/// (append, not truncate: the summary file is shared by every step).
fn append_summary(
    path: &str,
    reports: &[Report],
    baseline_for: &dyn Fn(&Report) -> Option<f64>,
    cost_baseline_for: &dyn Fn(&Report) -> Option<CostReport>,
    advisory: bool,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "### Perf smoke: baseline vs current\n");
    if advisory {
        let _ = writeln!(
            out,
            "_Wall-clock columns are advisory; the blocking tier is the deterministic cost gate._\n"
        );
    }
    let _ = writeln!(
        out,
        "| row | devices | baseline nodes/s | current nodes/s | Δ | modelled device ms | offload rate | cost counters |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---|");
    for report in reports {
        let nps = report.nodes_per_sec();
        let (base_col, delta_col) = match baseline_for(report) {
            Some(base) if base > 0.0 => (
                format!("{base:.0}"),
                format!("{:+.1} %", (nps / base - 1.0) * 100.0),
            ),
            _ => ("—".to_string(), "—".to_string()),
        };
        let cost_col = match cost_baseline_for(report) {
            Some(base) if base == report.metrics.cost => "exact".to_string(),
            Some(base) => {
                let drifted = report
                    .metrics
                    .cost
                    .counters()
                    .iter()
                    .zip(base.counters().iter())
                    .filter(|((_, cur), (_, b))| cur != b)
                    .count();
                format!("**DRIFT** ({drifted} counters)")
            }
            None => "—".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.0} | {} | {:.3} | {:.3} | {} |",
            report.label(),
            report.mode.devices(),
            base_col,
            nps,
            delta_col,
            report.metrics.device_seconds * 1e3,
            report.metrics.cost.offloading_rate(),
            cost_col,
        );
    }
    let _ = writeln!(out);
    // Per-counter delta tables for the rows that drifted — the payload a
    // cost-gate failure drops into the step summary.
    for report in reports {
        let Some(base) = cost_baseline_for(report) else {
            continue;
        };
        if base == report.metrics.cost {
            continue;
        }
        let _ = writeln!(out, "#### Cost counter drift: `{}`\n", report.label());
        let _ = writeln!(out, "| counter | baseline | current | delta |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for ((cname, cur), (_, base_v)) in report
            .metrics
            .cost
            .counters()
            .iter()
            .zip(base.counters().iter())
        {
            if cur != base_v {
                let delta = *cur as i128 - *base_v as i128;
                let _ = writeln!(out, "| {cname} | {base_v} | {cur} | {delta:+} |");
            }
        }
        let _ = writeln!(out);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn zero_jobs_are_rejected() {
        let err = parse("--jobs 0 --machines 5").err().expect("rejected");
        assert!(err.contains("--jobs"), "{err}");
    }

    #[test]
    fn zero_machines_are_rejected() {
        let err = parse("--jobs 5 --machines 0").err().expect("rejected");
        assert!(err.contains("--machines"), "{err}");
    }

    #[test]
    fn more_jobs_than_a_node_can_hold_are_rejected() {
        let err = parse("--jobs 70000 --machines 1").err().expect("rejected");
        assert!(err.contains("65535"), "{err}");
        assert!(parse("--jobs 65535 --machines 1").is_ok());
    }

    #[test]
    fn service_and_cache_read_jobs_as_a_count() {
        for mode in ["--service", "--cache"] {
            assert!(parse(&format!("{mode} --jobs 70000")).is_ok(), "{mode}");
            assert!(parse(&format!("{mode} --jobs 0")).is_err(), "{mode}");
        }
    }

    #[test]
    fn a_cost_row_with_a_legacy_counter_count_is_an_error() {
        let counters = CostReport::default().counters();
        for count in [13, 16, 19] {
            let body: Vec<String> = counters[..count]
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            let text = format!(
                "{{\"backend\": \"gpu\", \"cost\": {{ {} }}}}",
                body.join(", ")
            );
            let err = cost_rows(&text).err().expect("rejected");
            assert!(err.contains(&format!("has {count} cost counters")), "{err}");
        }
        // 22 names, one of them twice and one missing.
        let mut body: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        let repeated = counters[0].0;
        *body.last_mut().expect("counters") = format!("\"{repeated}\": 0");
        let text = format!(
            "{{\"backend\": \"gpu\", \"cost\": {{ {} }}}}",
            body.join(", ")
        );
        let err = cost_rows(&text).err().expect("rejected");
        assert!(
            err.contains(&format!("row `gpu` names cost counter `{repeated}` twice")),
            "{err}"
        );
    }

    #[test]
    fn a_zero_pool_size_is_rejected() {
        let err = parse("--jobs 8 --machines 5 --seed 1 --pool-size 0")
            .err()
            .expect("rejected");
        assert!(err.contains("--pool-size must be at least 1"), "{err}");
    }

    #[test]
    fn a_seed_the_generator_rejects_is_an_error() {
        for seed in ["0", "-5", "2147483647"] {
            let err = parse(&format!("--jobs 8 --machines 5 --seed {seed}"))
                .err()
                .expect("rejected");
            assert!(
                err.contains("--seed must be between 1 and 2147483646"),
                "{err}"
            );
            // After --smoke the seed still picks the generated instance.
            assert!(parse(&format!("--smoke --seed {seed}")).is_err(), "{seed}");
            // A file instance and the service and cache presets ignore it.
            for ignored in ["--file ta001.txt", "--service", "--cache"] {
                assert!(
                    parse(&format!("{ignored} --seed {seed}")).is_ok(),
                    "{ignored}"
                );
            }
        }
        assert!(parse("--jobs 8 --machines 5 --seed 2147483646").is_ok());
    }

    #[test]
    fn a_pool_the_device_memory_cannot_hold_is_an_error() {
        let fits = |flags: &str, jobs: usize| {
            let opts = parse(&format!("--jobs {jobs} --machines 20 {flags}")).expect("parses");
            check_pool_fits(&opts, jobs, 20)
        };
        for flags in [
            "--pool-size 4000000000 --backend seq --mode gpu-fast",
            "--pool-size 99999999999 --mode gpu",
            "--pool-size 18446744073709551615 --backend multicore",
        ] {
            let err = fits(flags, 20).expect_err("rejected");
            assert!(err.contains("bytes of device memory"), "{flags}: {err}");
        }
        // 30M nodes of a 20-job pool need 2.76 GB: within the C2050's
        // 2.8 GB, beyond the GTX 580 of a mixed fleet.
        assert_eq!(fits("--pool-size 30000000 --backend gpu", 20), Ok(()));
        let err = fits("--pool-size 30000000 --backend fleet:2:hetero", 20).expect_err("rejected");
        assert!(err.contains("GeForce GTX 580"), "{err}");
        // The paper's largest pool fits every paper class on every backend.
        for jobs in [20, 50, 100, 200] {
            for backend in ["seq", "multicore", "gpu", "gpu-pipelined", "fleet:4:hetero"] {
                let flags = format!("--pool-size 262144 --backend {backend}");
                assert_eq!(fits(&flags, jobs), Ok(()), "{jobs} jobs, {backend}");
            }
        }
    }

    #[test]
    fn a_zero_pipeline_chunk_is_rejected() {
        let flags = "--jobs 10 --machines 5 --seed 2 --mode gpu-fast --backend gpu-pipelined";
        let err = parse(&format!("{flags} --pipeline-chunk 0"))
            .err()
            .expect("rejected");
        assert!(err.contains("--pipeline-chunk must be at least 1"), "{err}");
        assert!(parse(&format!("{flags} --pipeline-chunk 1")).is_ok());
    }

    #[test]
    fn fail_at_naming_a_member_outside_the_fleet_is_rejected() {
        let err = parse("--fail-at 0:5 --backend fleet:2")
            .err()
            .expect("rejected");
        assert!(err.contains("kills member 5 of a 2-member fleet"), "{err}");
        assert!(parse("--fail-at 0:1 --backend fleet:2").is_ok());
        // Tuning keeps the fleet's size, so the events still name members
        // the tuned run has.
        assert!(parse("--fail-at 0:3 --backend fleet:4 --autotune").is_ok());
    }

    #[test]
    fn fail_at_killing_every_member_is_rejected() {
        let err = parse("--fail-at 0:0,0:1 --backend fleet:2")
            .err()
            .expect("rejected");
        assert!(err.contains("at least one fleet member alive"), "{err}");
        // Two deaths of one member are one death.
        assert!(parse("--fail-at 0:1,3:1 --backend fleet:2").is_ok());
    }
}
