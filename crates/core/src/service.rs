//! Solver-as-a-service: a job front door over shared bounding backends.
//!
//! Everything below [`SolveService`] turns the one-instance solver of this
//! crate into a long-lived multi-tenant service, the setting the paper's
//! cluster story assumes: callers **submit** solve jobs (instance +
//! [`GpuSolverConfig`], whose `node_limit` and `time_limit` are the job's
//! only limits), the service queues and prioritizes them, and a
//! deterministic scheduler steps every running job one batch per round.
//! Jobs with the same [`InstanceKey`] and [`ReuseKey`] share one backend, so
//! their batches ride it (and, under [`GpuSolverConfig::lookahead`], its
//! persistent pipeline sessions) back to back, while each job keeps its own
//! books. A backend lives from the first admission of its key to the end of
//! the last job admitted with that key: the round in which no running or
//! queued job holds the key any more drops it. The service's memory thus
//! follows its concurrency, and cross-solve overlap happens only among jobs
//! admitted together.
//!
//! Four guarantees, all covered by `tests/service_equivalence.rs`:
//!
//! * **Per-job exactness** — without persistent sessions each job's visited
//!   node set, [`CostReport`] and latency histograms are bit-identical to a
//!   standalone [`crate::solver::GpuBnbSolver`] run of the same spec,
//!   however many jobs run concurrently.
//! * **Anytime semantics** — a job stopped by its node limit, time limit or
//!   a [`JobHandle::cancel`] still returns its best incumbent together with a
//!   proven lower bound and optimality gap, and incumbent improvements can
//!   be polled while the job runs ([`JobHandle::poll_incumbents`]).
//! * **Exhaustive accounting** — the per-job [`CostReport`]s sum exactly to
//!   the service-wide accounting ([`SolveService::shared_cost`]), so the
//!   cost gate extends to service-mode runs unchanged.
//! * **History-free bills** — apart from what the cache answers, a
//!   request's bill does not depend on what the service solved earlier: a
//!   job admitted while no other job holds its key starts on a fresh
//!   backend, so it is billed exactly as on a fresh service.
//!
//! See `docs/SERVICE.md` for the lifecycle, scheduling and fairness rules.

use crate::backend::{make_backend, BoundingBackend};
use crate::cache::{Certificate, ConfigKey, InstanceKey, ReuseKey, SolveCache};
use crate::checkpoint::SolveCheckpoint;
use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, SolveLatencies};
use crate::search::SearchState;
use crate::stats::GpuRunStats;
use bb::stats::SolveStats;
use bb::{FspNode, FspProblem};
use fsp::{Instance, Job, Time};
use std::collections::HashMap;
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

/// Everything one solve job needs: the instance, the solver configuration
/// (limits included), and the optional service-level knobs (priority, a
/// seeded incumbent or starting pool).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The Flow-Shop instance to solve.
    pub instance: Instance,
    /// Solver configuration (backend, pool size, limits — identical in
    /// meaning to a standalone [`crate::solver::GpuBnbSolver`] run; the
    /// job's `time_limit` counts from the moment it starts running).
    pub config: GpuSolverConfig,
    /// Scheduling priority: higher runs first; ties go to the earlier
    /// submission. Zero by default.
    pub priority: i32,
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
}

impl JobSpec {
    /// A job solving `instance` under `config`, with default service knobs
    /// (priority 0, root start).
    pub fn new(instance: Instance, config: GpuSolverConfig) -> Self {
        Self {
            instance,
            config,
            priority: 0,
            initial_nodes: None,
            initial_upper_bound: None,
            initial_schedule: None,
            resume_cost: None,
        }
    }

    /// Sets the scheduling priority (higher runs first).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
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

    /// Resumes the job from a [`crate::checkpoint::SolveCheckpoint`]: the frozen
    /// frontier becomes the starting pool (re-pushed in drain order, which
    /// reproduces the original pop order), the incumbent is restored, and
    /// the checkpoint's cost counters are absorbed at admission — so the
    /// finished job's certificate (makespan, proven bound, summed
    /// [`CostReport`]) is bit-identical to a job that ran uninterrupted,
    /// however many other jobs share the fleet.
    ///
    /// # Errors
    ///
    /// Returns the reason when [`crate::checkpoint::SolveCheckpoint::to_nodes`]
    /// rejects the checkpoint for the job's instance.
    pub fn resume_from(mut self, checkpoint: &SolveCheckpoint) -> Result<Self, String> {
        let nodes = checkpoint.to_nodes(&FspProblem::new(self.instance.clone()))?;
        self.initial_nodes = Some(nodes);
        if checkpoint.upper_bound != Time::MAX {
            self.initial_upper_bound = Some(checkpoint.upper_bound);
            self.initial_schedule = checkpoint.best_schedule.clone();
        }
        self.resume_cost = Some(checkpoint.cost);
        Ok(self)
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
    /// Finished by exhausting its tree (optimal) or its node limit.
    Done,
    /// Stopped by [`JobHandle::cancel`] (while queued or running).
    Cancelled,
    /// Stopped by its wall-clock time limit with an anytime result.
    DeadlineExpired,
}

/// Why a job stopped (the service-level analogue of
/// [`bb::solver::StopReason`], extended with the service-only exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStopReason {
    /// The pending tree was exhausted: the result is proven optimal.
    Exhausted,
    /// [`GpuSolverConfig::node_limit`] ran out; the result is the best
    /// incumbent + gap.
    NodeBudget,
    /// [`GpuSolverConfig::time_limit`] expired; the result is the best
    /// incumbent + gap.
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
    /// `1.0` when the job holds no schedule (no incumbent, or one seeded
    /// without a schedule).
    pub gap: f64,
}

impl JobOutcome {
    /// `true` when the job proved optimality: it holds a schedule whose
    /// makespan equals the proven [`Self::lower_bound`] (its gap is closed).
    /// An exhausted search always does; so does one stopped early whose
    /// pending bounds all reach the incumbent. This is the verdict of the
    /// certificate the job yields ([`crate::Certificate::is_optimal`]).
    pub fn is_optimal(&self) -> bool {
        self.gap == 0.0
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
    /// Key of the shared backend the job will ride, hashed once at submit.
    backend_key: BackendKey,
}

/// A running job: one [`SearchState`] plus the service-level stops, stepped
/// one batch per scheduler round.
struct JobRun {
    id: JobId,
    shared: Arc<JobShared>,
    priority: i32,
    /// Key of the shared backend the job's batches ride.
    backend_key: BackendKey,
    search: SearchState,
    node_limit: Option<u64>,
    time_limit: Option<Duration>,
    started: Instant,
    finished: bool,
}

impl JobRun {
    /// One scheduler round for this job: limit checks, then select → bound
    /// → eliminate one batch, streaming incumbent improvements to the
    /// handle. Returns the stop reason when the job is over.
    fn step(&mut self, backend: &mut dyn BoundingBackend) -> Option<JobStopReason> {
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return Some(JobStopReason::Cancelled);
        }
        if let Some(limit) = self.time_limit {
            if self.started.elapsed() >= limit {
                return Some(JobStopReason::Deadline);
            }
        }
        if let Some(limit) = self.node_limit {
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
        let result = backend.bound_view(batch.view(), self.search.upper_bound());
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
        let gap = optimality_gap(upper, lower_bound, self.search.best_schedule.is_some());
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
            gap,
        }
    }
}

/// The relative optimality gap, `1.0` when no schedule backs the incumbent
/// `upper`: without one it is no makespan, so nothing is proven optimal.
fn optimality_gap(upper: Time, lower: Time, has_schedule: bool) -> f64 {
    if upper == Time::MAX || !has_schedule {
        return 1.0;
    }
    if upper == 0 {
        return 0.0;
    }
    ((upper.saturating_sub(lower)) as f64 / upper as f64).clamp(0.0, 1.0)
}

/// The key under which jobs share a backend: the cache's own instance and
/// reuse identities, so one field list (`cache::hash_config`) decides both
/// donor matching and backend sharing. The limits are left out: jobs that
/// differ only in where they stop share one engine.
type BackendKey = (InstanceKey, ReuseKey);

/// Scheduler state: the admitted jobs, the waiting queue, the shared
/// backends and the books of the jobs that finished.
#[derive(Default)]
struct ServiceState {
    queued: Vec<QueuedJob>,
    running: Vec<JobRun>,
    /// The shared backends, one per key; after every round only keys a
    /// running or queued job holds.
    backends: HashMap<BackendKey, Box<dyn BoundingBackend>>,
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
    /// [`SolveService::run_until_idle`] of the same spec. A caller who wants
    /// a truncated solve that is not stored sets the limit in the config and
    /// passes this policy.
    Disabled,
}

/// How the cache answered a request (carried in [`RequestOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// The request opted out ([`CachePolicy::Disabled`]).
    Disabled,
    /// No usable cached material: a cold solve ran and was stored.
    Miss,
    /// Exact repeat: the stored certificate was returned bit-identically,
    /// with zero device work — the request bill is one `cache_hits` tick.
    Hit,
    /// A same-shape neighbour donated its schedule, re-priced on the
    /// requested instance, as a warm upper bound; the solve starts from the
    /// root.
    WarmStart,
}

/// The consolidated solve request: one entry point
/// ([`SolveService::request`]) that folds the instance, the configuration
/// and the cache policy into a single value, instead of the caller wiring
/// [`JobSpec`], scheduler rounds and cache lookups by hand.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The Flow-Shop instance to solve.
    pub instance: Instance,
    /// Solver configuration, limits included (cache identity is its
    /// [`ConfigKey`]).
    pub config: GpuSolverConfig,
    /// Cache behaviour ([`CachePolicy::ReadWrite`] by default).
    pub cache: CachePolicy,
}

impl SolveRequest {
    /// A cache-enabled request.
    pub fn new(instance: Instance, config: GpuSolverConfig) -> Self {
        Self {
            instance,
            config,
            cache: CachePolicy::ReadWrite,
        }
    }

    /// Sets the cache policy.
    pub fn with_cache(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
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
    /// (plus one `cache_warm_starts` tick on a warm start) when one ran, or
    /// a zero report with one `cache_hits` tick on an exact hit. Cost-gate
    /// rows for cached replays price this report.
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
/// outcome, and a time limit of zero returns the seeded (NEH) incumbent with
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
/// let zero = GpuSolverConfig {
///     time_limit: Some(Duration::ZERO),
///     ..config
/// };
/// let rushed = service.submit(JobSpec::new(inst, zero).warm_start());
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
        let backend_key = (InstanceKey::of(&spec.instance), ReuseKey::of(&spec.config));
        self.pending.lock().unwrap().push(QueuedJob {
            id,
            shared: Arc::clone(&shared),
            spec,
            backend_key,
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

    /// The consolidated solve entry point: answers `request` from the
    /// [`SolveCache`] when it can, otherwise drives a solve to completion
    /// and stores its certificate.
    ///
    /// Three paths, reported in [`RequestOutcome::disposition`]:
    ///
    /// * **exact hit** — same [`InstanceKey`] and [`ConfigKey`] as a stored
    ///   certificate: returned bit-identically (schedule, makespan, bound,
    ///   gap and every cost counter), no solver runs, and the request is
    ///   billed one `cache_hits` tick with zero device work;
    /// * **warm start** — a same-shape donor with the same [`ReuseKey`]
    ///   exists: its schedule is **re-priced on the requested instance** (a
    ///   valid, possibly loose upper bound) and seeds the incumbent, or NEH
    ///   does when [`GpuSolverConfig::use_initial_ub`] is set and NEH is
    ///   better. The solve starts from the root, so its certificate is the
    ///   requested instance's own whatever the donor's instance or limits;
    /// * **miss** — a cold solve; its certificate is stored for next time.
    ///
    /// A [`CachePolicy::Disabled`] request bypasses the cache entirely and
    /// behaves bit-identically to [`SolveService::submit`] +
    /// [`SolveService::run_until_idle`] of the same spec.
    ///
    /// Drives the scheduler with [`SolveService::run_until_idle`], so any
    /// previously submitted jobs still pending are pumped too.
    pub fn request(&self, request: SolveRequest) -> RequestOutcome {
        let SolveRequest {
            instance,
            config,
            cache: policy,
        } = request;
        let cacheable = policy == CachePolicy::ReadWrite;

        let mut donated = None;
        if cacheable {
            let cache = self.cache.lock().unwrap();
            if let Some(stored) = cache.get(InstanceKey::of(&instance), ConfigKey::of(&config)) {
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
            donated = cache
                .donor(&instance, &config)
                .and_then(|donor| donor.certificate.best_schedule.clone());
        }

        let warm = donated.is_some();
        let mut spec = JobSpec::new(instance.clone(), config.clone());
        if let Some(schedule) = donated {
            // A feasible schedule is a valid upper bound on *any* instance
            // of the same shape once re-priced on it.
            let warm_ub = fsp::schedule::makespan(&instance, &schedule);
            spec = spec.with_incumbent(schedule, warm_ub);
            if config.use_initial_ub {
                spec = spec.warm_start();
            }
        }

        let handle = self.submit(spec);
        self.run_until_idle();
        let outcome = handle.outcome().expect("run_until_idle finished the job");

        let mut request_cost = outcome.cost;
        let disposition = if !cacheable {
            CacheDisposition::Disabled
        } else if warm {
            request_cost.cache_warm_starts = 1;
            CacheDisposition::WarmStart
        } else {
            CacheDisposition::Miss
        };
        let certificate = Certificate {
            best_schedule: outcome.best_schedule.clone(),
            best_makespan: outcome.best_makespan,
            lower_bound: outcome.lower_bound,
            gap: outcome.gap,
            cost: request_cost,
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
    /// 3. steps every running job once — limit and cancel checks, then one
    ///    select → bound → eliminate batch — in priority order
    ///    (descending, ties by submission order);
    /// 4. drops every backend whose key no running or queued job holds.
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
                // A queued job cancelled since the last round may have held
                // a key; now nothing does.
                Self::release_backends(&mut state);
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
            gap: optimality_gap(best_makespan, 0, queued.spec.initial_schedule.is_some()),
        };
        *queued.shared.status.lock().unwrap() = JobStatus::Cancelled;
        *queued.shared.outcome.lock().unwrap() = Some(outcome.clone());
        finished.push(outcome);
    }

    /// Admits one job: finds (or builds) its shared backend, seeds the
    /// search exactly as the standalone solver does, and marks it running.
    fn start_job(state: &mut ServiceState, queued: QueuedJob) {
        let QueuedJob {
            id,
            shared,
            spec,
            backend_key,
        } = queued;
        let problem = FspProblem::new(spec.instance.clone());
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
            node_limit: spec.config.node_limit,
            time_limit: spec.config.time_limit,
            started: Instant::now(),
            finished: false,
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
        Self::release_backends(state);
    }

    /// Drops every backend whose key no running or queued job holds: a
    /// backend lives from the first admission of its key to the end of the
    /// last job admitted with it, so the service holds as many backends as
    /// it has distinct keys in flight, not as many as it ever saw.
    fn release_backends(state: &mut ServiceState) {
        let ServiceState {
            queued,
            running,
            backends,
            ..
        } = state;
        backends.retain(|key, _| {
            running.iter().any(|run| run.backend_key == *key)
                || queued.iter().any(|job| job.backend_key == *key)
        });
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
    fn a_job_resumed_without_a_schedule_certifies_no_optimum() {
        // As for the standalone solver: an incumbent that came without a
        // schedule and that nothing beats leaves the gap open.
        let inst = generate("t", 8, 4, 7);
        let optimum = brute_force_optimal(&inst).1;
        let cfg = config(BackendKind::Gpu, 8);
        let paused = GpuBnbSolver::new(
            inst.clone(),
            GpuSolverConfig {
                checkpoint_after: Some(2),
                ..cfg.clone()
            },
        )
        .solve();
        let mut checkpoint = paused.checkpoint.expect("the solve outlives two batches");
        checkpoint.best_schedule = None;
        for upper_bound in [optimum - 66, optimum, optimum + 1] {
            checkpoint.upper_bound = upper_bound;
            let service = SolveService::with_defaults();
            let handle = service.submit(
                JobSpec::new(inst.clone(), cfg.clone())
                    .resume_from(&checkpoint)
                    .expect("taken as given"),
            );
            service.run_until_idle();
            let outcome = handle.outcome().expect("finished");
            assert_eq!(outcome.stop, JobStopReason::Exhausted, "ub {upper_bound}");
            let found = upper_bound > optimum;
            assert_eq!(outcome.is_optimal(), found, "ub {upper_bound}");
            assert_eq!(outcome.gap == 0.0, found, "ub {upper_bound}");
            assert!(outcome.lower_bound <= optimum, "ub {upper_bound}");
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
        // Backends are keyed by the cache's (InstanceKey, ReuseKey): the
        // limits are not reuse identity, the backend and `use_initial_ub`
        // are. A backend lives while a running or queued job holds its key.
        let inst = generate("t", 10, 6, 13);
        let cfg = config(BackendKind::Gpu, 16);
        let mut limited = cfg.clone();
        limited.node_limit = Some(50);
        let mut unseeded = cfg.clone();
        unseeded.use_initial_ub = false;
        let live = |service: &SolveService| service.state.lock().unwrap().backends.len();

        let service = SolveService::with_defaults();
        for config in [
            cfg.clone(),
            limited,
            config(BackendKind::Sequential, 16),
            unseeded,
        ] {
            service.submit(JobSpec::new(inst.clone(), config));
        }
        service.run_rounds(1);
        assert_eq!(
            live(&service),
            3,
            "a node limit shares; the backend and use_initial_ub split"
        );
        service.run_until_idle();
        assert_eq!(live(&service), 0, "an idle service holds no backend");

        // One slot: the queued twin holds the key while the first job ends.
        // A cancelled queued job holds it until admission drops it.
        let service = SolveService::new(ServiceConfig { max_concurrent: 1 });
        let first = service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        let twin = service.submit(JobSpec::new(inst.clone(), cfg.clone()));
        let victim = service.submit(JobSpec::new(inst, cfg));
        while first.outcome().is_none() {
            service.run_rounds(1);
        }
        assert_eq!(twin.status(), JobStatus::Queued);
        assert_eq!(live(&service), 1, "the queued twin keeps the backend");
        victim.cancel();
        service.run_until_idle();
        assert_eq!(twin.status(), JobStatus::Done);
        assert_eq!(victim.status(), JobStatus::Cancelled);
        assert_eq!(live(&service), 0);
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
    fn node_limit_yields_an_anytime_result_with_a_gap() {
        let service = SolveService::with_defaults();
        let inst = generate("t", 12, 8, 3);
        let limited = GpuSolverConfig {
            node_limit: Some(200),
            ..config(BackendKind::Gpu, 64)
        };
        let handle = service.submit(JobSpec::new(inst, limited).warm_start());
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
        assert_eq!(optimality_gap(Time::MAX, 0, false), 1.0);
        assert_eq!(optimality_gap(0, 0, true), 0.0);
        assert_eq!(optimality_gap(100, 100, true), 0.0);
        assert_eq!(optimality_gap(100, 100, false), 1.0, "no schedule");
        assert!((optimality_gap(100, 80, true) - 0.2).abs() < 1e-12);
        assert_eq!(optimality_gap(100, 200, true), 0.0, "clamped");
    }

    #[test]
    #[should_panic(expected = "at least one scheduler slot")]
    fn zero_slots_panics() {
        SolveService::new(ServiceConfig { max_concurrent: 0 });
    }
}
