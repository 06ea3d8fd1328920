//! Solver-as-a-service: a job front door over shared bounding backends.
//!
//! Everything below [`SolveService`] turns the one-instance solver of this
//! crate into a long-lived multi-tenant service, the setting the paper's
//! cluster story assumes: callers **submit** solve jobs (instance +
//! [`GpuSolverConfig`] + optional node/deadline budget), the service queues
//! and prioritizes them, and a deterministic scheduler steps every running
//! job one batch per round. Jobs whose instance and engine-relevant
//! configuration hash to the same key share one backend, so their batches
//! ride it (and, under [`GpuSolverConfig::lookahead`], its persistent
//! pipeline sessions) back to back, while each job keeps its own books.
//!
//! Three guarantees, all covered by `tests/service_equivalence.rs`:
//!
//! * **Per-job exactness** — without persistent sessions each job's visited
//!   node set, [`CostReport`] and latency histograms are bit-identical to a
//!   standalone [`crate::solver::GpuBnbSolver`] run of the same spec,
//!   however many jobs run concurrently.
//! * **Anytime semantics** — a job stopped by its node budget, deadline or a
//!   [`JobHandle::cancel`] still returns its best incumbent together with a
//!   proven lower bound and optimality gap, and incumbent improvements can
//!   be polled while the job runs ([`JobHandle::poll_incumbents`]).
//! * **Exhaustive accounting** — the per-job [`CostReport`]s sum exactly to
//!   the service-wide accounting ([`SolveService::shared_cost`]), so the
//!   cost gate extends to service-mode runs unchanged.
//!
//! See `docs/SERVICE.md` for the lifecycle, scheduling and fairness rules.

use crate::backend::{make_backend, BoundingBackend};
use crate::cache::{Certificate, ConfigKey, InstanceKey, SolveCache};
use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, SolveLatencies};
use crate::fault::SolveCheckpoint;
use crate::search::SearchState;
use crate::stats::GpuRunStats;
use bb::stats::SolveStats;
use bb::{FspNode, FspProblem};
use fsp::{Instance, Job, Time};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Opaque identifier of a submitted job, unique within one [`SolveService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// The raw numeric id (submission order: lower ids were submitted
    /// earlier).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Everything one solve job needs: the instance, the solver configuration,
/// and the optional service-level knobs (priority, budgets, a seeded
/// incumbent or starting pool).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The Flow-Shop instance to solve.
    pub instance: Instance,
    /// Solver configuration (backend, pool size, limits — identical in
    /// meaning to a standalone [`crate::solver::GpuBnbSolver`] run).
    pub config: GpuSolverConfig,
    /// Scheduling priority: higher runs first; ties go to the earlier
    /// submission. Zero by default.
    pub priority: i32,
    /// Stop after this many lower-bound evaluations (overrides
    /// [`GpuSolverConfig::node_limit`] when set).
    pub node_budget: Option<u64>,
    /// Stop after this much wall-clock time from the moment the job starts
    /// running (overrides [`GpuSolverConfig::time_limit`] when set).
    pub deadline: Option<Duration>,
    /// Explicit starting pool (the frozen-pool protocol). `None`: the job
    /// starts from the root node, bounded on the host at admission.
    pub initial_nodes: Option<Vec<FspNode>>,
    /// Explicit incumbent value to seed the upper bound with. `None`: NEH
    /// when [`GpuSolverConfig::use_initial_ub`] is set, unbounded otherwise.
    pub initial_upper_bound: Option<Time>,
    /// The schedule achieving [`JobSpec::initial_upper_bound`], when known.
    pub initial_schedule: Option<Vec<Job>>,
    /// Cost counters carried over from a checkpoint the job resumes from
    /// ([`JobSpec::resume_from`]): absorbed into the job's accounting at
    /// admission instead of re-charging the frontier as fresh host work, so
    /// the finished job's summed [`CostReport`] equals an uninterrupted
    /// run's.
    pub resume_cost: Option<CostReport>,
    /// Keep the final pending frontier: when the job stops with work left
    /// (budget, deadline, cancellation), the outcome carries the drained
    /// pool as a [`SolveCheckpoint`] ([`JobOutcome::frontier`]) — the
    /// resume point the solve cache stores for warm-start reuse. Off by
    /// default (exhausted jobs have an empty frontier either way).
    pub keep_frontier: bool,
}

impl JobSpec {
    /// A job solving `instance` under `config`, with default service knobs
    /// (priority 0, no extra budgets, root start).
    pub fn new(instance: Instance, config: GpuSolverConfig) -> Self {
        Self {
            instance,
            config,
            priority: 0,
            node_budget: None,
            deadline: None,
            initial_nodes: None,
            initial_upper_bound: None,
            initial_schedule: None,
            resume_cost: None,
            keep_frontier: false,
        }
    }

    /// Sets the scheduling priority (higher runs first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Caps the job at `nodes` lower-bound evaluations (anytime result
    /// beyond it).
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = Some(nodes);
        self
    }

    /// Caps the job at `deadline` of wall-clock time once running (anytime
    /// result beyond it).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Seeds the incumbent with an explicit schedule and its makespan.
    pub fn with_incumbent(mut self, schedule: Vec<Job>, makespan: Time) -> Self {
        self.initial_upper_bound = Some(makespan);
        self.initial_schedule = Some(schedule);
        self
    }

    /// Starts the job from an explicit pending pool instead of the root (the
    /// frozen-pool protocol; the nodes count as host-bounded work).
    pub fn with_initial_nodes(mut self, nodes: Vec<FspNode>) -> Self {
        self.initial_nodes = Some(nodes);
        self
    }

    /// Resumes the job from a [`crate::fault::SolveCheckpoint`]: the frozen
    /// frontier becomes the starting pool (re-pushed in drain order, which
    /// reproduces the original pop order), the incumbent is restored, and
    /// the checkpoint's cost counters are absorbed at admission — so the
    /// finished job's certificate (makespan, proven bound, summed
    /// [`CostReport`]) is bit-identical to a job that ran uninterrupted,
    /// however many other jobs share the fleet.
    ///
    /// # Errors
    ///
    /// Returns the reason when [`crate::fault::SolveCheckpoint::to_nodes`]
    /// rejects the checkpoint for the job's instance.
    pub fn resume_from(
        mut self,
        checkpoint: &crate::fault::SolveCheckpoint,
    ) -> Result<Self, String> {
        let nodes = checkpoint.to_nodes(&FspProblem::new(self.instance.clone()))?;
        self.initial_nodes = Some(nodes);
        if checkpoint.upper_bound != Time::MAX {
            self.initial_upper_bound = Some(checkpoint.upper_bound);
            self.initial_schedule = checkpoint.best_schedule.clone();
        }
        self.resume_cost = Some(checkpoint.cost);
        Ok(self)
    }

    /// Asks for the final pending frontier in the outcome
    /// ([`JobOutcome::frontier`]; see [`JobSpec::keep_frontier`]).
    pub fn keeping_frontier(mut self) -> Self {
        self.keep_frontier = true;
        self
    }

    /// Warm-starts the incumbent from the NEH heuristic (`fsp::neh`),
    /// computed **at submission time**: if an incumbent is already seeded,
    /// the better of the two wins. With a warm start the very first anytime
    /// gap a job reports is measured against a real schedule, not infinity.
    pub fn warm_start(mut self) -> Self {
        let (schedule, makespan) = fsp::neh::neh(&self.instance);
        if self.initial_upper_bound.is_none_or(|ub| makespan < ub) {
            self.initial_upper_bound = Some(makespan);
            self.initial_schedule = Some(schedule);
        }
        self
    }
}

/// Lifecycle state of a job (see `docs/SERVICE.md` for the full diagram):
/// `Queued → Running → {Done, Cancelled, DeadlineExpired}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a scheduler slot.
    Queued,
    /// Admitted: the scheduler steps this job every round.
    Running,
    /// Finished by exhausting its tree (optimal) or its node budget.
    Done,
    /// Stopped by [`JobHandle::cancel`] (while queued or running).
    Cancelled,
    /// Stopped by its wall-clock deadline with an anytime result.
    DeadlineExpired,
}

/// Why a job stopped (the service-level analogue of
/// [`bb::solver::StopReason`], extended with the service-only exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStopReason {
    /// The pending tree was exhausted: the result is proven optimal.
    Exhausted,
    /// The node budget ran out; the result is the best incumbent + gap.
    NodeBudget,
    /// The deadline expired; the result is the best incumbent + gap.
    Deadline,
    /// The caller cancelled the job.
    Cancelled,
}

/// One streamed incumbent improvement (see [`JobHandle::poll_incumbents`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncumbentUpdate {
    /// The improved makespan.
    pub makespan: Time,
    /// How many nodes the job had bounded when the improvement landed (0
    /// for a seeded incumbent — NEH or an explicit one).
    pub after_nodes: u64,
}

/// The final result of a job: the solver outcome plus the anytime
/// certificate (proven lower bound and optimality gap) and the job's own
/// accounting.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Which job this is.
    pub job: JobId,
    /// Best makespan found ([`Time::MAX`] when no incumbent exists — e.g. a
    /// job cancelled before finding any schedule, with no seed).
    pub best_makespan: Time,
    /// Schedule achieving it, when one was reached or supplied.
    pub best_schedule: Option<Vec<Job>>,
    /// Node counters (same semantics as the standalone solvers').
    pub stats: SolveStats,
    /// Device-side accounting of this job's batches alone.
    pub gpu: GpuRunStats,
    /// Deterministic cost counters of this job's batches (plus, for a
    /// resumed job, the checkpoint's counters).
    pub cost: CostReport,
    /// Latency histograms of this job's launches/batches.
    pub latencies: SolveLatencies,
    /// Why the job stopped.
    pub stop: JobStopReason,
    /// Proven lower bound on the optimum at stop time: the best pending
    /// bound still in the pool (capped by the incumbent), or the incumbent
    /// itself when the tree was exhausted.
    pub lower_bound: Time,
    /// Relative optimality gap `(best_makespan − lower_bound) /
    /// best_makespan`, clamped to `[0, 1]`; `0.0` exactly when optimal,
    /// `1.0` when no incumbent exists.
    pub gap: f64,
    /// The final pending frontier as a resume checkpoint, when the job was
    /// submitted with [`JobSpec::keep_frontier`] **and** stopped with work
    /// left (an exhausted job's frontier is empty, so `None`). This is the
    /// warm-start material the solve cache stores alongside the
    /// certificate.
    pub frontier: Option<SolveCheckpoint>,
}

impl JobOutcome {
    /// `true` when the search proved optimality.
    pub fn is_optimal(&self) -> bool {
        self.stop == JobStopReason::Exhausted
    }
}

/// The state a handle shares with the scheduler.
#[derive(Debug)]
struct JobShared {
    status: Mutex<JobStatus>,
    cancelled: AtomicBool,
    updates: Mutex<Vec<IncumbentUpdate>>,
    outcome: Mutex<Option<JobOutcome>>,
}

impl JobShared {
    fn new() -> Self {
        Self {
            status: Mutex::new(JobStatus::Queued),
            cancelled: AtomicBool::new(false),
            updates: Mutex::new(Vec::new()),
            outcome: Mutex::new(None),
        }
    }
}

/// A caller's view of one submitted job: poll its status and streamed
/// incumbent improvements, cancel it, and collect the outcome. Clone-able
/// and `Send`, so a handle can be watched from another thread while the
/// scheduler runs.
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        *self.shared.status.lock().unwrap()
    }

    /// Requests cancellation. Queued jobs are dropped before starting;
    /// running jobs stop at the next scheduler round with an anytime
    /// outcome ([`JobStopReason::Cancelled`]). Idempotent.
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }

    /// Drains the incumbent improvements streamed since the last poll, in
    /// the order they were found (strictly decreasing makespans; a seeded
    /// incumbent appears first with `after_nodes == 0`).
    pub fn poll_incumbents(&self) -> Vec<IncumbentUpdate> {
        std::mem::take(&mut *self.shared.updates.lock().unwrap())
    }

    /// The final outcome, once the job finished (in any terminal state);
    /// `None` while queued or running.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.shared.outcome.lock().unwrap().clone()
    }
}

/// Service-level configuration (the per-job knobs live in [`JobSpec`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum number of jobs running concurrently; further jobs wait in
    /// the queue (admission control). Must be ≥ 1.
    pub max_concurrent: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { max_concurrent: 4 }
    }
}

/// A job accepted but not yet admitted.
struct QueuedJob {
    id: JobId,
    shared: Arc<JobShared>,
    spec: JobSpec,
}

/// A running job: one [`SearchState`] plus the service-level stops, stepped
/// one batch per scheduler round.
struct JobRun {
    id: JobId,
    shared: Arc<JobShared>,
    priority: i32,
    /// Key of the shared backend the job's batches ride (see
    /// [`backend_key`]).
    backend_key: u64,
    search: SearchState,
    node_budget: Option<u64>,
    deadline: Option<Duration>,
    started: Instant,
    finished: bool,
    keep_frontier: bool,
}

impl JobRun {
    /// One scheduler round for this job: budget checks, then select → bound
    /// → eliminate one batch, streaming incumbent improvements to the
    /// handle. Returns the stop reason when the job is over.
    fn step(&mut self, backend: &mut dyn BoundingBackend) -> Option<JobStopReason> {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return Some(JobStopReason::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if self.started.elapsed() >= deadline {
                return Some(JobStopReason::Deadline);
            }
        }
        if let Some(limit) = self.node_budget {
            if self.search.stats.bounded >= limit {
                return Some(JobStopReason::NodeBudget);
            }
        }
        let batch = self.search.select_batch();
        if batch.is_empty() {
            return if self.search.pending() == 0 {
                Some(JobStopReason::Exhausted)
            } else {
                // Defensive: a non-empty pool of nothing-but-prunable nodes
                // drains on the next round.
                None
            };
        }
        let result = backend.bound_batch_below(&batch, self.search.upper_bound());
        let updates = &self.shared.updates;
        self.search.consume(batch, result, |makespan, after_nodes| {
            updates.lock().unwrap().push(IncumbentUpdate {
                makespan,
                after_nodes,
            });
        });
        None
    }

    /// Builds the terminal outcome: close the books the way the standalone
    /// solver does and attach the anytime certificate.
    fn finalize(&mut self, stop: JobStopReason) -> JobOutcome {
        let upper = self.search.upper_bound();
        let lower_bound = self.search.lower_bound();
        // The frontier checkpoint, when the caller asked to keep it and the
        // job stopped with pending work: the same shape a paused standalone
        // solve writes.
        let frontier =
            (self.keep_frontier && self.search.pending() > 0).then(|| self.search.freeze());
        let gpu = self.search.finish(self.started.elapsed());
        JobOutcome {
            job: self.id,
            best_makespan: upper,
            best_schedule: self.search.best_schedule.take(),
            stats: self.search.stats,
            gpu,
            cost: self.search.cost,
            latencies: std::mem::take(&mut self.search.latencies),
            stop,
            lower_bound,
            gap: optimality_gap(upper, lower_bound),
            frontier,
        }
    }
}

/// The relative optimality gap, `1.0` when no incumbent exists.
fn optimality_gap(upper: Time, lower: Time) -> f64 {
    if upper == Time::MAX {
        return 1.0;
    }
    if upper == 0 {
        return 0.0;
    }
    ((upper.saturating_sub(lower)) as f64 / upper as f64).clamp(0.0, 1.0)
}

/// The key under which jobs share a backend: the instance content plus
/// every configuration field the backend construction depends on. Jobs with
/// equal keys share one backend.
fn backend_key(instance: &Instance, config: &GpuSolverConfig) -> u64 {
    let mut h = DefaultHasher::new();
    instance.jobs().hash(&mut h);
    instance.machines().hash(&mut h);
    instance.raw().hash(&mut h);
    config.pool_size.hash(&mut h);
    config.block_threads.hash(&mut h);
    config.registers_per_thread.hash(&mut h);
    format!("{:?}", config.placement).hash(&mut h);
    config.fast_forward.hash(&mut h);
    config.backend.to_string().hash(&mut h);
    config.multicore_threads.hash(&mut h);
    config.pipeline_depth.hash(&mut h);
    config.pipeline_chunk.hash(&mut h);
    config.lookahead.hash(&mut h);
    // Failure plans are backend state (deaths are keyed to the shared
    // backend's batch ordinals), so jobs with different plans never share
    // an engine.
    config.fail_seed.hash(&mut h);
    config.fail_at.hash(&mut h);
    h.finish()
}

/// Scheduler state: the admitted jobs, the waiting queue, the shared
/// backends and the books of the jobs that finished.
#[derive(Default)]
struct ServiceState {
    queued: Vec<QueuedJob>,
    running: Vec<JobRun>,
    backends: HashMap<u64, Box<dyn BoundingBackend>>,
    /// The absorbed counters of every job that finished after running.
    finished_cost: CostReport,
}

/// Whether a request may read and feed the service's [`SolveCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Look the workload up first (exact hit or warm-start donor) and store
    /// the finished certificate. The default of [`SolveRequest::new`].
    #[default]
    ReadWrite,
    /// Bypass the cache entirely: always a cold solve, nothing stored. A
    /// disabled request is bit-identical to [`SolveService::submit`] +
    /// [`SolveService::run_until_idle`] of the same spec.
    Disabled,
}

/// How the cache answered a request (carried in [`RequestOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The request opted out ([`CachePolicy::Disabled`]) or carried a
    /// request-level budget/deadline (never cached: truncation points are
    /// caller state, not workload content).
    Disabled,
    /// No usable cached material: a cold solve ran and was stored.
    Miss,
    /// Exact repeat: the stored certificate was returned bit-identically,
    /// with zero device work — the request bill is one `cache_hits` tick.
    Hit,
    /// A perturbed neighbour donated its incumbent as a warm upper bound
    /// (and, when it had one, its frontier checkpoint as the starting
    /// pool after a bound-recheck pass).
    WarmStart {
        /// Frontier nodes whose stored bound the perturbation invalidated
        /// (recomputed bound differs); also billed as
        /// `cache_invalidated_nodes`.
        invalidated: u64,
    },
}

/// The consolidated solve request: one entry point
/// ([`SolveService::request`]) that folds the instance, the configuration,
/// the cache policy and the service knobs into a single value, instead of
/// the caller wiring [`JobSpec`], scheduler rounds and cache lookups by
/// hand.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The Flow-Shop instance to solve.
    pub instance: Instance,
    /// Solver configuration (cache identity is its [`ConfigKey`]).
    pub config: GpuSolverConfig,
    /// Cache behaviour ([`CachePolicy::ReadWrite`] by default).
    pub cache: CachePolicy,
    /// Keep the final frontier in the certificate, making this workload a
    /// resume-capable warm-start donor (see [`JobSpec::keep_frontier`]).
    pub keep_frontier: bool,
    /// Request-level node budget. Budgeted requests always solve fresh and
    /// are never stored (see [`CacheDisposition::Disabled`]).
    pub node_budget: Option<u64>,
    /// Request-level deadline; same cache exclusion as the node budget.
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A cache-enabled request with no extra budgets.
    pub fn new(instance: Instance, config: GpuSolverConfig) -> Self {
        Self {
            instance,
            config,
            cache: CachePolicy::ReadWrite,
            keep_frontier: false,
            node_budget: None,
            deadline: None,
        }
    }

    /// Sets the cache policy.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Keeps the final frontier in the stored certificate.
    pub fn keeping_frontier(mut self) -> Self {
        self.keep_frontier = true;
        self
    }

    /// Caps the solve at `nodes` bound evaluations (disables caching for
    /// this request).
    pub fn with_node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = Some(nodes);
        self
    }

    /// Caps the solve at `deadline` wall-clock time (disables caching for
    /// this request).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What [`SolveService::request`] returns: the certificate, how the cache
/// answered, and the request's own deterministic bill.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The solve certificate. On a [`CacheDisposition::Hit`] this is the
    /// stored certificate, bit-identical to the one the original request
    /// returned — including every cost counter.
    pub certificate: Certificate,
    /// How the cache answered.
    pub disposition: CacheDisposition,
    /// What **this request** charged the service: the fresh solve's cost
    /// plus the cache counters (`cache_warm_starts`,
    /// `cache_invalidated_nodes`) when one ran, or a zero report with one
    /// `cache_hits` tick on an exact hit. Cost-gate rows for cached
    /// replays price this report.
    pub request_cost: CostReport,
    /// The underlying job outcome when a solver actually ran; `None` on an
    /// exact hit (nothing ran).
    pub job: Option<JobOutcome>,
}

/// The solve service: submit jobs, run the deterministic scheduler, collect
/// anytime outcomes. See the [module docs](self) for the architecture and
/// `docs/SERVICE.md` for the full semantics.
///
/// # Examples
///
/// Two jobs sharing one fleet, both solved to proven optimality:
///
/// ```
/// use gpu_bnb::service::{JobSpec, ServiceConfig, SolveService};
/// use gpu_bnb::{BackendKind, GpuSolverConfig};
/// use fsp::taillard;
///
/// let config = GpuSolverConfig {
///     pool_size: 16,
///     backend: BackendKind::Sequential,
///     fast_forward: true,
///     ..Default::default()
/// };
/// let service = SolveService::new(ServiceConfig::default());
/// let a = service.submit(JobSpec::new(taillard::generate("a", 6, 3, 7), config.clone()));
/// let b = service.submit(JobSpec::new(taillard::generate("b", 6, 3, 8), config));
///
/// let outcomes = service.run_until_idle();
/// assert_eq!(outcomes.len(), 2);
/// for handle in [&a, &b] {
///     let outcome = handle.outcome().expect("finished");
///     assert!(outcome.is_optimal());
///     assert_eq!(outcome.gap, 0.0);
/// }
/// ```
///
/// Anytime semantics: a job cancelled before it starts still yields an
/// outcome, and a deadline of zero returns the seeded (NEH) incumbent with
/// a non-trivial optimality gap instead of failing:
///
/// ```
/// use gpu_bnb::service::{JobSpec, JobStatus, JobStopReason, ServiceConfig, SolveService};
/// use gpu_bnb::{BackendKind, GpuSolverConfig};
/// use fsp::taillard;
/// use std::time::Duration;
///
/// let config = GpuSolverConfig {
///     pool_size: 16,
///     backend: BackendKind::Sequential,
///     fast_forward: true,
///     ..Default::default()
/// };
/// let service = SolveService::new(ServiceConfig::default());
/// let inst = taillard::generate("t", 10, 8, 21);
///
/// let cancelled = service.submit(JobSpec::new(inst.clone(), config.clone()));
/// cancelled.cancel();
/// let rushed = service
///     .submit(JobSpec::new(inst, config).warm_start().with_deadline(Duration::ZERO));
///
/// service.run_until_idle();
/// assert_eq!(cancelled.status(), JobStatus::Cancelled);
/// let anytime = rushed.outcome().expect("finished");
/// assert_eq!(anytime.stop, JobStopReason::Deadline);
/// assert!(anytime.best_schedule.is_some(), "the NEH warm start survives");
/// assert!(anytime.gap > 0.0 && anytime.gap <= 1.0);
/// ```
pub struct SolveService {
    config: ServiceConfig,
    next_id: AtomicU64,
    /// Submissions land here (cheap lock), the scheduler drains it once per
    /// round — so `submit`/`cancel` never contend with a running round.
    pending: Mutex<Vec<QueuedJob>>,
    state: Mutex<ServiceState>,
    /// The content-addressed certificate store behind
    /// [`SolveService::request`].
    cache: Mutex<SolveCache>,
}

impl SolveService {
    /// Creates a service.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_concurrent == 0`.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(
            config.max_concurrent >= 1,
            "the service needs at least one scheduler slot"
        );
        Self {
            config,
            next_id: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            state: Mutex::new(ServiceState::default()),
            cache: Mutex::new(SolveCache::default()),
        }
    }

    /// A service with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ServiceConfig::default())
    }

    /// Accepts a job. The returned handle observes and controls it; the job
    /// starts running once [`SolveService::run_until_idle`] (or
    /// [`SolveService::run_rounds`]) admits it.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let shared = Arc::new(JobShared::new());
        self.pending.lock().unwrap().push(QueuedJob {
            id,
            shared: Arc::clone(&shared),
            spec,
        });
        JobHandle { id, shared }
    }

    /// `true` when no job is queued or running.
    pub fn is_idle(&self) -> bool {
        self.pending.lock().unwrap().is_empty() && {
            let state = self.state.lock().unwrap();
            state.queued.is_empty() && state.running.is_empty()
        }
    }

    /// The service-wide cost counters: the finished jobs' absorbed
    /// counters plus the running jobs' so far. Once the service is idle
    /// this equals the absorbed sum of the per-job [`JobOutcome::cost`]
    /// reports.
    pub fn shared_cost(&self) -> CostReport {
        let state = self.state.lock().unwrap();
        let mut total = state.finished_cost;
        for run in &state.running {
            total.absorb(&run.search.cost);
        }
        total
    }

    /// Runs the deterministic scheduler until every job reached a terminal
    /// state, returning the outcomes in completion order. See
    /// [`SolveService::run_rounds`] for the round semantics.
    pub fn run_until_idle(&self) -> Vec<JobOutcome> {
        self.run_rounds(u64::MAX)
    }

    /// Number of certificates currently cached.
    pub fn cached_certificates(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Removes (and returns) the certificate cached for `(instance,
    /// config)`: the next exact repeat misses and recomputes. The
    /// store → evict → miss → recompute round trip reproduces an identical
    /// [`CostReport`] — the solve is deterministic, the cache only memoizes.
    pub fn evict_cached(
        &self,
        instance: &Instance,
        config: &GpuSolverConfig,
    ) -> Option<Certificate> {
        self.cache
            .lock()
            .unwrap()
            .evict(InstanceKey::of(instance), ConfigKey::of(config))
    }

    /// The consolidated solve entry point (the tentpole of the incremental
    /// cache): answers `request` from the [`SolveCache`] when it can,
    /// otherwise drives a solve to completion and stores its certificate.
    ///
    /// Three paths, reported in [`RequestOutcome::disposition`]:
    ///
    /// * **exact hit** — same [`InstanceKey`] and [`ConfigKey`] as a stored
    ///   certificate: returned bit-identically (schedule, makespan, bound,
    ///   gap and every cost counter), no solver runs, and the request is
    ///   billed one `cache_hits` tick with zero device work;
    /// * **warm start** — a same-shape donor with the same
    ///   [`crate::cache::ReuseKey`] exists: its incumbent is **re-priced on
    ///   the requested instance** (a valid, possibly loose upper bound) and
    ///   seeds the solve; when the donor kept a frontier checkpoint, a
    ///   bound-recheck pass re-bounds every frontier node on the requested
    ///   instance (counting changed bounds as `cache_invalidated_nodes`)
    ///   and the solve resumes from the rechecked frontier instead of the
    ///   root;
    /// * **miss** — a cold solve; its certificate is stored for next time.
    ///
    /// Requests carrying a request-level `node_budget` or `deadline`, or
    /// [`CachePolicy::Disabled`], bypass the cache entirely and behave
    /// bit-identically to [`SolveService::submit`] +
    /// [`SolveService::run_until_idle`] of the same spec.
    ///
    /// Drives the scheduler with [`SolveService::run_until_idle`], so any
    /// previously submitted jobs still pending are pumped too.
    pub fn request(&self, request: SolveRequest) -> RequestOutcome {
        let SolveRequest {
            instance,
            config,
            cache: policy,
            keep_frontier,
            node_budget,
            deadline,
        } = request;
        // Truncation points (budgets, deadlines) are caller state, not
        // workload content: such requests never read or feed the cache.
        let cacheable =
            policy == CachePolicy::ReadWrite && node_budget.is_none() && deadline.is_none();

        if cacheable {
            let instance_key = InstanceKey::of(&instance);
            let config_key = ConfigKey::of(&config);
            if let Some(stored) = self.cache.lock().unwrap().get(instance_key, config_key) {
                let request_cost = CostReport {
                    cache_hits: 1,
                    ..Default::default()
                };
                return RequestOutcome {
                    certificate: stored.clone(),
                    disposition: CacheDisposition::Hit,
                    request_cost,
                    job: None,
                };
            }
        }

        let mut spec = JobSpec::new(instance.clone(), config.clone());
        if keep_frontier {
            spec = spec.keeping_frontier();
        }
        if let Some(nodes) = node_budget {
            spec = spec.with_node_budget(nodes);
        }
        if let Some(limit) = deadline {
            spec = spec.with_deadline(limit);
        }

        // Warm-start material from the closest donor, when caching is on.
        let mut warm: Option<u64> = None;
        if cacheable {
            let cache = self.cache.lock().unwrap();
            if let Some(donor) = cache.donor(&instance, &config) {
                if let Some(schedule) = &donor.certificate.best_schedule {
                    // Re-price the donor's incumbent on the requested
                    // instance: a feasible schedule is a valid upper bound
                    // on *any* instance of the same shape.
                    let warm_ub = fsp::schedule::makespan(&instance, schedule);
                    spec = spec.with_incumbent(schedule.clone(), warm_ub);
                    let mut invalidated = 0u64;
                    if let Some(checkpoint) = &donor.certificate.frontier {
                        // Bound-recheck pass: rebuild every frontier node
                        // against the requested instance and recompute its
                        // bound. Nodes whose stored bound the perturbation
                        // changed are the invalidated subtrees the resumed
                        // solve re-explores.
                        let problem = FspProblem::new(instance.clone());
                        let mut nodes = Vec::with_capacity(checkpoint.frontier.len());
                        for (prefix, stored_bound) in &checkpoint.frontier {
                            let mut node = FspNode::from_prefix(&instance, prefix);
                            problem.bound(&mut node);
                            if node.bound() != *stored_bound {
                                invalidated += 1;
                            }
                            nodes.push(node);
                        }
                        spec = spec.with_initial_nodes(nodes);
                    }
                    warm = Some(invalidated);
                }
            }
        }

        let handle = self.submit(spec);
        self.run_until_idle();
        let outcome = handle.outcome().expect("run_until_idle finished the job");

        let mut request_cost = outcome.cost;
        let disposition = match (cacheable, warm) {
            (false, _) => CacheDisposition::Disabled,
            (true, None) => CacheDisposition::Miss,
            (true, Some(invalidated)) => {
                request_cost.cache_warm_starts = 1;
                request_cost.cache_invalidated_nodes = invalidated;
                CacheDisposition::WarmStart { invalidated }
            }
        };
        let certificate = Certificate {
            best_schedule: outcome.best_schedule.clone(),
            best_makespan: outcome.best_makespan,
            lower_bound: outcome.lower_bound,
            gap: outcome.gap,
            cost: request_cost,
            frontier: outcome.frontier.clone(),
        };
        if cacheable {
            self.cache
                .lock()
                .unwrap()
                .insert(&instance, &config, certificate.clone());
        }
        RequestOutcome {
            certificate,
            disposition,
            request_cost,
            job: Some(outcome),
        }
    }

    /// Runs at most `rounds` scheduler rounds, returning the outcomes of
    /// the jobs that finished. Each round:
    ///
    /// 1. drains new submissions into the queue;
    /// 2. admits queued jobs (priority descending, then submission order)
    ///    while fewer than `max_concurrent` run — cancelled queued jobs are
    ///    finalized without starting;
    /// 3. steps every running job once — budget/deadline/cancel checks,
    ///    then one select → bound → eliminate batch — in priority order
    ///    (descending, ties by submission order).
    ///
    /// Single batches from several jobs ride the shared backends back to
    /// back, and the fixed round order makes the whole schedule — including
    /// every per-job counter — deterministic.
    pub fn run_rounds(&self, rounds: u64) -> Vec<JobOutcome> {
        let mut state = self.state.lock().unwrap();
        let mut finished = Vec::new();
        for _ in 0..rounds {
            state.queued.append(&mut self.pending.lock().unwrap());
            self.admit(&mut state, &mut finished);
            if state.running.is_empty() && state.queued.is_empty() {
                break;
            }
            Self::round(&mut state, &mut finished);
        }
        finished
    }

    /// Admission: move queued jobs into scheduler slots, best first.
    fn admit(&self, state: &mut ServiceState, finished: &mut Vec<JobOutcome>) {
        while state.running.len() < self.config.max_concurrent && !state.queued.is_empty() {
            // Highest priority first; ties to the earliest submission.
            let best = state
                .queued
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    b.spec.priority.cmp(&a.spec.priority).then(a.id.cmp(&b.id))
                })
                .map(|(i, _)| i)
                .expect("queue is non-empty");
            let queued = state.queued.remove(best);
            if queued.shared.cancelled.load(Ordering::Relaxed) {
                Self::finalize_queued(queued, finished);
                continue;
            }
            Self::start_job(state, queued);
        }
    }

    /// A queued job cancelled before admission: terminal outcome with no
    /// work done (the seeded incumbent, if any, is all it returns).
    fn finalize_queued(queued: QueuedJob, finished: &mut Vec<JobOutcome>) {
        let best_makespan = queued.spec.initial_upper_bound.unwrap_or(Time::MAX);
        let outcome = JobOutcome {
            job: queued.id,
            best_makespan,
            best_schedule: queued.spec.initial_schedule.clone(),
            stats: SolveStats::default(),
            gpu: GpuRunStats::default(),
            cost: CostReport::default(),
            latencies: SolveLatencies::default(),
            stop: JobStopReason::Cancelled,
            lower_bound: 0,
            gap: optimality_gap(best_makespan, 0),
            frontier: None,
        };
        *queued.shared.status.lock().unwrap() = JobStatus::Cancelled;
        *queued.shared.outcome.lock().unwrap() = Some(outcome.clone());
        finished.push(outcome);
    }

    /// Admits one job: finds (or builds) its shared backend, seeds the
    /// search exactly as the standalone solver does, and marks it running.
    fn start_job(state: &mut ServiceState, queued: QueuedJob) {
        let QueuedJob { id, shared, spec } = queued;
        let problem = FspProblem::new(spec.instance.clone());
        let backend_key = backend_key(&spec.instance, &spec.config);
        state.backends.entry(backend_key).or_insert_with(|| {
            let capacity = spec.config.pool_size + spec.instance.jobs();
            make_backend(&problem, &spec.config, capacity)
        });
        let search = SearchState::new(
            problem,
            &spec.config,
            spec.initial_nodes,
            spec.initial_upper_bound,
            spec.initial_schedule,
            spec.resume_cost,
        );
        if search.upper_bound() != Time::MAX {
            shared.updates.lock().unwrap().push(IncumbentUpdate {
                makespan: search.upper_bound(),
                after_nodes: 0,
            });
        }

        *shared.status.lock().unwrap() = JobStatus::Running;
        state.running.push(JobRun {
            id,
            shared,
            priority: spec.priority,
            backend_key,
            search,
            node_budget: spec.node_budget.or(spec.config.node_limit),
            deadline: spec.deadline.or(spec.config.time_limit),
            started: Instant::now(),
            finished: false,
            keep_frontier: spec.keep_frontier,
        });
    }

    /// One scheduler round over the running jobs.
    fn round(state: &mut ServiceState, finished: &mut Vec<JobOutcome>) {
        let mut order: Vec<usize> = (0..state.running.len()).collect();
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&state.running[a], &state.running[b]);
            jb.priority.cmp(&ja.priority).then(ja.id.cmp(&jb.id))
        });
        let ServiceState {
            running,
            backends,
            finished_cost,
            ..
        } = state;
        for idx in order {
            let run = &mut running[idx];
            let backend = backends
                .get_mut(&run.backend_key)
                .expect("admission built the job's backend");
            if let Some(stop) = run.step(backend.as_mut()) {
                let outcome = run.finalize(stop);
                finished_cost.absorb(&outcome.cost);
                *run.shared.status.lock().unwrap() = match stop {
                    JobStopReason::Cancelled => JobStatus::Cancelled,
                    JobStopReason::Deadline => JobStatus::DeadlineExpired,
                    JobStopReason::Exhausted | JobStopReason::NodeBudget => JobStatus::Done,
                };
                *run.shared.outcome.lock().unwrap() = Some(outcome.clone());
                finished.push(outcome);
                run.finished = true;
            }
        }
        state.running.retain(|r| !r.finished);
    }
}

// Compile and run the `docs/SERVICE.md` examples as doc-tests, so the
// worked examples in the service guide can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/SERVICE.md")]
pub struct ServiceGuideDocTests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendKind;
    use crate::placement::DataPlacement;
    use crate::solver::GpuBnbSolver;
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;

    fn config(backend: BackendKind, pool: usize) -> GpuSolverConfig {
        GpuSolverConfig {
            pool_size: pool,
            backend,
            placement: DataPlacement::SharedJmPtm,
            fast_forward: true,
            ..Default::default()
        }
    }

    #[test]
    fn concurrent_jobs_reach_their_optima() {
        let service = SolveService::with_defaults();
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for seed in [3, 5, 9] {
            let inst = generate(format!("t{seed}"), 7, 4, seed);
            let (_, optimal) = brute_force_optimal(&inst);
            expected.push(optimal);
            handles.push(service.submit(JobSpec::new(inst, config(BackendKind::Gpu, 24))));
        }
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes.len(), 3);
        assert!(service.is_idle());
        for (handle, optimal) in handles.iter().zip(expected) {
            let outcome = handle.outcome().expect("finished");
            assert_eq!(handle.status(), JobStatus::Done);
            assert!(outcome.is_optimal());
            assert_eq!(outcome.best_makespan, optimal);
            assert_eq!(outcome.gap, 0.0);
            assert_eq!(outcome.lower_bound, optimal);
            assert_eq!(outcome.gpu.nodes_bounded, outcome.stats.bounded);
        }
    }

    #[test]
    fn per_job_accounting_matches_the_standalone_solver() {
        // Three concurrent jobs over distinct instances: every per-job
        // counter must be bit-identical to a standalone solve of the same
        // spec (the full suite in tests/service_equivalence.rs runs this
        // across backends).
        let cfg = config(BackendKind::GpuPipelined, 32);
        let service = SolveService::with_defaults();
        let mut handles = Vec::new();
        let instances: Vec<Instance> = [11, 22, 33]
            .iter()
            .map(|&seed| generate(format!("t{seed}"), 8, 5, seed))
            .collect();
        for inst in &instances {
            handles.push(service.submit(JobSpec::new(inst.clone(), cfg.clone())));
        }
        service.run_until_idle();
        for (inst, handle) in instances.iter().zip(&handles) {
            let job = handle.outcome().expect("finished");
            let alone = GpuBnbSolver::new(inst.clone(), cfg.clone()).solve();
            assert_eq!(job.best_makespan, alone.best_makespan);
            assert_eq!(job.stats.bounded, alone.stats.bounded);
            assert_eq!(job.stats.selected, alone.stats.selected);
            assert_eq!(job.stats.pruned, alone.stats.pruned);
            assert_eq!(job.cost, alone.cost, "cost counters must carve exactly");
            assert_eq!(job.latencies.batch, alone.latencies.batch);
            assert_eq!(job.latencies.launch, alone.latencies.launch);
        }
    }

    #[test]
    fn shared_cost_equals_the_absorbed_per_job_sum() {
        let cfg = config(BackendKind::Gpu, 16);
        let service = SolveService::with_defaults();
        let inst = generate("t", 8, 4, 77);
        for _ in 0..3 {
            service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        }
        let outcomes = service.run_until_idle();
        let mut summed = CostReport::default();
        for outcome in &outcomes {
            summed.absorb(&outcome.cost);
        }
        assert_eq!(service.shared_cost(), summed);
    }

    #[test]
    fn same_spec_jobs_share_one_backend_distinct_specs_do_not() {
        let service = SolveService::with_defaults();
        let inst = generate("t", 7, 4, 13);
        let cfg = config(BackendKind::Gpu, 16);
        service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        let other = config(BackendKind::Sequential, 16);
        service.submit(JobSpec::new(inst, other));
        service.run_until_idle();
        assert_eq!(service.state.lock().unwrap().backends.len(), 2);
    }

    #[test]
    fn priority_orders_admission_when_oversubscribed() {
        // One slot: the high-priority job must finish before the default
        // one even though it was submitted later.
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let inst = generate("t", 7, 4, 21);
        let cfg = config(BackendKind::Sequential, 16);
        let low = service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        let high = service.submit(JobSpec::new(inst, cfg).with_priority(10));
        let outcomes = service.run_until_idle();
        assert_eq!(outcomes[0].job, high.id());
        assert_eq!(outcomes[1].job, low.id());
    }

    #[test]
    fn cancelled_while_running_returns_an_anytime_outcome() {
        let service = SolveService::with_defaults();
        let inst = generate("t", 10, 6, 31);
        let handle = service.submit(JobSpec::new(inst, config(BackendKind::Gpu, 16)));
        // Run a few rounds, then cancel mid-flight.
        service.run_rounds(3);
        assert_eq!(handle.status(), JobStatus::Running);
        handle.cancel();
        service.run_until_idle();
        let outcome = handle.outcome().expect("finished");
        assert_eq!(handle.status(), JobStatus::Cancelled);
        assert_eq!(outcome.stop, JobStopReason::Cancelled);
        assert!(outcome.stats.bounded > 0, "some work happened");
        assert!(outcome.lower_bound <= outcome.best_makespan);
        assert!(outcome.gap >= 0.0);
    }

    #[test]
    fn node_budget_yields_an_anytime_result_with_a_gap() {
        let service = SolveService::with_defaults();
        let inst = generate("t", 12, 8, 3);
        let handle = service.submit(
            JobSpec::new(inst, config(BackendKind::Gpu, 64))
                .warm_start()
                .with_node_budget(200),
        );
        service.run_until_idle();
        let outcome = handle.outcome().expect("finished");
        assert_eq!(outcome.stop, JobStopReason::NodeBudget);
        assert!(outcome.stats.bounded >= 200);
        assert!(outcome.best_schedule.is_some());
        assert!(outcome.lower_bound <= outcome.best_makespan);
        assert!(outcome.gap > 0.0, "a truncated search keeps a gap open");
        // The streamed updates start at the NEH seed.
        let updates = handle.poll_incumbents();
        assert!(!updates.is_empty());
        assert_eq!(updates[0].after_nodes, 0);
        for pair in updates.windows(2) {
            assert!(pair[1].makespan < pair[0].makespan);
        }
    }

    #[test]
    fn cross_solve_sessions_shrink_the_shared_schedule() {
        // Four jobs over the same instance with persistent pipeline
        // sessions: riding one shared backend lets job k+1's uploads
        // overlap job k's tail, so the fleet-wide modelled schedule beats
        // four standalone solves (each paying its own fill and drain).
        let mut cfg = config(BackendKind::GpuPipelined, 64);
        cfg.lookahead = true;
        let inst = generate("t", 10, 8, 3);
        let jobs = 4;
        let service = SolveService::with_defaults();
        for _ in 0..jobs {
            service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        }
        service.run_until_idle();
        let shared_nanos = service.shared_cost().schedule_nanos;
        let alone = GpuBnbSolver::new(inst, cfg).solve();
        let standalone_nanos = alone.cost.schedule_nanos * jobs as u64;
        assert!(
            shared_nanos < standalone_nanos,
            "shared schedule {shared_nanos} ns must beat {jobs} standalone solves \
             ({standalone_nanos} ns)"
        );
    }

    #[test]
    fn optimality_gap_handles_the_edges() {
        assert_eq!(optimality_gap(Time::MAX, 0), 1.0);
        assert_eq!(optimality_gap(0, 0), 0.0);
        assert_eq!(optimality_gap(100, 100), 0.0);
        assert!((optimality_gap(100, 80) - 0.2).abs() < 1e-12);
        assert_eq!(optimality_gap(100, 200), 0.0, "clamped");
    }

    #[test]
    #[should_panic(expected = "at least one scheduler slot")]
    fn zero_slots_panics() {
        SolveService::new(ServiceConfig { max_concurrent: 0 });
    }
}
