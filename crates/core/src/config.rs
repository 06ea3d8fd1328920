//! Configuration of the GPU-accelerated solver.

use crate::fleet::{fleet_member_specs, FleetMemberSpec};
use crate::placement::DataPlacement;
use gpu_sim::DeviceSpec;
use std::time::Duration;

/// The pool sizes swept in the paper's Tables II and III
/// (`16×256` … `1024×256` threads).
pub const PAPER_POOL_SIZES: [usize; 7] = [4096, 8192, 16384, 32768, 65536, 131072, 262144];

/// Which device models a fleet's members are built from
/// (see [`crate::fleet::fleet_member_specs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemberMix {
    /// Every member models the paper's Tesla C2050.
    Uniform,
    /// Mixed device specs — members alternate between the paper's Tesla
    /// C2050 (even ordinals) and the faster GTX 580 (odd ordinals), and the
    /// throughput-weighted deal sizes each shard so modelled completion
    /// times equalize (see [`crate::fleet::plan_shards_weighted`]).
    Mixed,
}

/// How each fleet member launches its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Each device runs the stream-overlapped pipeline (plus a persistent
    /// session under [`GpuSolverConfig::lookahead`]).
    Pipelined,
    /// One kernel launch per shard.
    OneLaunch,
}

/// Whether the fleet runs the deterministic steal pass after the deal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealPolicy {
    /// No re-deal after the initial shard plan.
    Disabled,
    /// After the deal, a deterministic steal pass re-deals surplus ranges
    /// from members the cost model predicts to finish late to members
    /// predicted to finish a full wave early (see
    /// [`crate::fleet::steal_pass`]). Purely a planning-time re-deal —
    /// bounds and visited node sets stay bit-identical.
    Deterministic,
}

/// Descriptor of a simulated-GPU fleet: how many members, which device
/// models they run ([`MemberMix`]), how each launches its shard
/// ([`LaunchMode`]) and whether the deterministic steal pass re-deals the
/// plan ([`StealPolicy`]).
///
/// One canonical string form — `fleet[:N[:hetero][:steal][:one-launch]]`,
/// modes in any order — is shared by the CLI, config files and report rows
/// ([`std::str::FromStr`] / [`std::fmt::Display`]). Construct
/// programmatically with the chainable constructors:
///
/// ```
/// use gpu_bnb::{BackendKind, FleetTopology};
/// let kind = BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing());
/// assert_eq!(kind.to_string(), "fleet:2:hetero:steal");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetTopology {
    /// Number of simulated devices the pool is partitioned across.
    pub devices: usize,
    /// Which device models the members run.
    pub mix: MemberMix,
    /// How each member launches its shard.
    pub launch: LaunchMode,
    /// Whether the deterministic steal pass re-deals the plan.
    pub steal: StealPolicy,
}

impl FleetTopology {
    /// A uniform fleet of `devices` pipelined Tesla C2050 members with the
    /// steal pass disabled (the default shape `fleet:N` parses to).
    pub const fn uniform(devices: usize) -> Self {
        Self {
            devices,
            mix: MemberMix::Uniform,
            launch: LaunchMode::Pipelined,
            steal: StealPolicy::Disabled,
        }
    }

    /// Switches the member mix to [`MemberMix::Mixed`] (`:hetero`).
    pub const fn mixed(mut self) -> Self {
        self.mix = MemberMix::Mixed;
        self
    }

    /// Enables the deterministic steal pass (`:steal`).
    pub const fn stealing(mut self) -> Self {
        self.steal = StealPolicy::Deterministic;
        self
    }

    /// Switches members to one launch per shard (`:one-launch`).
    pub const fn one_launch(mut self) -> Self {
        self.launch = LaunchMode::OneLaunch;
        self
    }

    /// `true` when members run the stream-overlapped pipeline.
    pub const fn is_pipelined(&self) -> bool {
        matches!(self.launch, LaunchMode::Pipelined)
    }

    /// `true` when the member mix is heterogeneous.
    pub const fn is_hetero(&self) -> bool {
        matches!(self.mix, MemberMix::Mixed)
    }

    /// `true` when the deterministic steal pass is enabled.
    pub const fn is_stealing(&self) -> bool {
        matches!(self.steal, StealPolicy::Deterministic)
    }

    /// Stable name used in reports: `fleet` with `-hetero` / `-steal`
    /// suffixes for the mixed and stealing variants (so baseline rows stay
    /// distinguishable), while the device count travels separately.
    pub const fn name(&self) -> &'static str {
        match (self.mix, self.steal) {
            (MemberMix::Uniform, StealPolicy::Disabled) => "fleet",
            (MemberMix::Mixed, StealPolicy::Disabled) => "fleet-hetero",
            (MemberMix::Uniform, StealPolicy::Deterministic) => "fleet-steal",
            (MemberMix::Mixed, StealPolicy::Deterministic) => "fleet-hetero-steal",
        }
    }
}

impl std::str::FromStr for FleetTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Fleet spellings: `fleet`, `fleet:N`, then any combination of the
        // `:hetero`, `:steal` and `:one-launch` modes (each at most once,
        // any order), e.g. `fleet:2:hetero:steal`.
        if s == "fleet" {
            return Ok(FleetTopology::uniform(DEFAULT_FLEET_DEVICES));
        }
        let spec = s
            .strip_prefix("fleet:")
            .ok_or_else(|| format!("bad fleet spec `{s}`"))?;
        let mut parts = spec.split(':');
        let devices = parts
            .next()
            .filter(|n| !n.is_empty())
            .ok_or_else(|| format!("bad fleet spec `{s}`"))?
            .parse::<usize>()
            .map_err(|e| format!("bad fleet device count in `{s}`: {e}"))?;
        if devices == 0 {
            return Err("a fleet needs at least one device".into());
        }
        let mut topology = FleetTopology::uniform(devices);
        for mode in parts {
            let duplicate = match mode {
                "one-launch" => {
                    let dup = !topology.is_pipelined();
                    topology = topology.one_launch();
                    dup
                }
                "hetero" => {
                    let dup = topology.is_hetero();
                    topology = topology.mixed();
                    dup
                }
                "steal" => {
                    let dup = topology.is_stealing();
                    topology = topology.stealing();
                    dup
                }
                other => return Err(format!("unknown fleet mode `{other}` in `{s}`")),
            };
            if duplicate {
                return Err(format!("duplicate fleet mode `{mode}` in `{s}`"));
            }
        }
        Ok(topology)
    }
}

impl std::fmt::Display for FleetTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet:{}", self.devices)?;
        if self.is_hetero() {
            f.write_str(":hetero")?;
        }
        if self.is_stealing() {
            f.write_str(":steal")?;
        }
        if !self.is_pipelined() {
            f.write_str(":one-launch")?;
        }
        Ok(())
    }
}

/// Which [`crate::backend::BoundingBackend`] implementation a solver uses
/// for the bounding operator. Every solver, the auto-tuner and the bench
/// binaries select backends through this one enum instead of hard-wiring an
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Host reference bound, one node at a time (the serial baseline).
    Sequential,
    /// CPU thread-pool bounding (`multicore_bnb::ParallelBoundingPool`).
    Multicore,
    /// GPU off-load, one launch per batch (the paper's loop).
    Gpu,
    /// GPU off-load with double-buffered, stream-overlapped chunking.
    GpuPipelined,
    /// A fleet of simulated GPUs described by a [`FleetTopology`]: every
    /// batch is partitioned into wave-aligned, deficit-aware shards, each
    /// device bounds its shard on its own independent timeline, and the
    /// bounds are merged back in input order (see [`crate::fleet`]).
    Fleet(FleetTopology),
}

/// The fleet size [`BackendKind::Fleet`] defaults to when parsed from the
/// bare name `fleet` (and the size the [`BackendKind::ALL`] entry uses).
pub const DEFAULT_FLEET_DEVICES: usize = 2;

impl BackendKind {
    /// Every selectable backend, in comparison order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Sequential,
        BackendKind::Multicore,
        BackendKind::Gpu,
        BackendKind::GpuPipelined,
        BackendKind::Fleet(FleetTopology::uniform(DEFAULT_FLEET_DEVICES)),
    ];

    /// Pre-[`FleetTopology`] fleet constructor, kept so call sites written
    /// against the boolean-flag form keep compiling. New code should build a
    /// [`FleetTopology`] with the chainable constructors instead.
    #[deprecated(
        since = "0.10.0",
        note = "build a FleetTopology instead, e.g. \
                BackendKind::Fleet(FleetTopology::uniform(n).mixed().stealing())"
    )]
    pub const fn fleet(devices: usize, pipelined: bool, hetero: bool, stealing: bool) -> Self {
        let mut topology = FleetTopology::uniform(devices);
        if !pipelined {
            topology = topology.one_launch();
        }
        if hetero {
            topology = topology.mixed();
        }
        if stealing {
            topology = topology.stealing();
        }
        BackendKind::Fleet(topology)
    }

    /// Stable name used in reports and on the command line. Fleet backends
    /// report through [`FleetTopology::name`] (`fleet` with `-hetero` /
    /// `-steal` suffixes), while the device count travels separately
    /// ([`BackendKind::devices`], the report's `devices` field).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sequential => "seq",
            BackendKind::Multicore => "multicore",
            BackendKind::Gpu => "gpu",
            BackendKind::GpuPipelined => "gpu-pipelined",
            BackendKind::Fleet(topology) => topology.name(),
        }
    }

    /// Number of simulated devices this backend drives (1 for every
    /// non-fleet kind).
    pub fn devices(self) -> usize {
        match self {
            BackendKind::Fleet(topology) => topology.devices,
            _ => 1,
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "fleet" || s.starts_with("fleet:") {
            return s.parse::<FleetTopology>().map(BackendKind::Fleet);
        }
        match s {
            "seq" | "sequential" => Ok(BackendKind::Sequential),
            "multicore" | "mc" => Ok(BackendKind::Multicore),
            "gpu" => Ok(BackendKind::Gpu),
            "gpu-pipelined" | "pipelined" => Ok(BackendKind::GpuPipelined),
            other => Err(format!(
                "unknown backend `{other}` (expected seq, multicore, gpu, gpu-pipelined, \
                 fleet or fleet:<devices>)"
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Fleet(topology) => topology.fmt(f),
            other => f.write_str(other.name()),
        }
    }
}

/// Configuration of a [`crate::solver::GpuBnbSolver`] run.
///
/// Struct-literal construction (with `..Default::default()`) keeps working;
/// the validated path is [`GpuSolverConfig::builder`], which rejects
/// inconsistent combinations (fault injection plus checkpointing, zero
/// pipeline depth, mis-sized fleet weights) at build time instead of deep
/// inside a solve.
#[derive(Debug, Clone)]
pub struct GpuSolverConfig {
    /// Number of sub-problems off-loaded to the device per bounding
    /// iteration (the paper's "pool size").
    pub pool_size: usize,
    /// Threads per block (the paper fixes 256).
    pub block_threads: usize,
    /// Registers per thread reported for the kernel (occupancy input; the
    /// paper's kernel uses 26).
    pub registers_per_thread: usize,
    /// Which matrices are staged into shared memory.
    pub placement: DataPlacement,
    /// Stop after this many lower-bound evaluations.
    pub node_limit: Option<u64>,
    /// Stop after this much wall-clock time (of the *simulation*, not of the
    /// modelled device — used to keep experiment runtimes bounded).
    pub time_limit: Option<Duration>,
    /// Seed the incumbent with the NEH heuristic when no explicit incumbent
    /// is given.
    pub use_initial_ub: bool,
    /// `true`: lower bounds are computed by the host reference implementation
    /// and the kernel timing is derived analytically (fast-forward mode —
    /// identical results and identical timing formulas, used for the
    /// paper-scale sweeps). `false`: every bound is computed by functionally
    /// simulating the kernel a warp at a time. Only meaningful for the GPU
    /// backends.
    pub fast_forward: bool,
    /// Which bounding backend the solver drives (see [`BackendKind`]).
    pub backend: BackendKind,
    /// Worker threads of the [`BackendKind::Multicore`] backend.
    pub multicore_threads: usize,
    /// Number of chunks the [`BackendKind::GpuPipelined`] backend splits
    /// each batch into (the pipeline depth; ≥ 2 enables overlap). Only used
    /// when [`GpuSolverConfig::pipeline_chunk`] is `None` and the batch is
    /// too small to be cut at device waves.
    pub pipeline_depth: usize,
    /// Explicit pipeline chunk size (nodes per kernel launch) for the
    /// [`BackendKind::GpuPipelined`] backend. `None` keeps the wave-aligned
    /// heuristic (`SMs × block threads` per chunk when the batch fills the
    /// device). Set it from the chunk auto-tuner
    /// ([`crate::autotune::autotune_pipeline_chunk`]) to persist a per-device
    /// sweep result into the run configuration.
    pub pipeline_chunk: Option<usize>,
    /// Enables **cross-iteration pipelining**: the solvers keep a lookahead
    /// batch in flight (pool *k+1* is selected and submitted before the
    /// elimination of pool *k* is applied), and the
    /// [`BackendKind::GpuPipelined`] backend threads every batch through one
    /// persistent [`crate::offload::PipelineSession`] so the D2H tail of
    /// wave *k* overlaps the H2D fill of wave *k+1* on the modelled
    /// timeline.
    ///
    /// Bounds stay bit-identical; the exploration *order* may differ from
    /// the strict loop (the lookahead batch is selected against an incumbent
    /// that elimination of the in-flight batch may still improve), which is
    /// why the default is `false` and the equivalence suites pin down when
    /// the visited node set provably matches the strict loop (constant
    /// incumbent).
    pub lookahead: bool,
    /// Staging-gate depth of the persistent [`crate::offload::PipelineSession`]:
    /// how many batches the host may have selected but not yet consumed the
    /// bounds of. With depth *d*, the first encode of batch *b* waits for the
    /// last D2H of batch *b − (d + 1)*. The single-threaded solver keeps one
    /// batch in flight (depth 1, the default); the hybrid coordinator derives
    /// `workers × in-flight chunks per worker` so several workers' lookahead
    /// batches can be staged concurrently. Must be ≥ 1.
    pub lookahead_depth: usize,
    /// Explicit per-member throughput weights for the
    /// [`BackendKind::Fleet`] deal (nodes per modelled second, relative —
    /// only ratios matter). `None` derives each member's weight from its
    /// [`gpu_sim::DeviceSpec`] and the kernel cost model; set it from the
    /// weight auto-tuner ([`crate::autotune::autotune_fleet_weights`]) or
    /// `solve_taillard --fleet-weights` to override the modelled deal. The
    /// length must equal the fleet's device count. Weights steer the *deal*
    /// only — the steal pass and per-member wave quantization keep using the
    /// physical device models.
    pub fleet_weights: Option<Vec<f64>>,
    /// `true` restores the legacy pool-depth speculation guard (lookahead
    /// batch submitted only while the frontier holds at least one full
    /// pool). The default `false` uses the cost-model-driven guard:
    /// speculate only when the modelled drain saving per batch exceeds the
    /// expected frontier penalty scaled by the pool deficit (see
    /// `GpuBnbSolver`). Both guards are deterministic pure functions of the
    /// observed [`crate::cost::CostReport`] counters and the pool depth.
    pub lookahead_pool_guard: bool,
    /// Seed of the deterministic fleet failure plan
    /// ([`crate::fault::FailurePlan::seeded`]): `Some(seed)` kills
    /// `devices / 2` distinct fleet members at seed-derived batch ordinals.
    /// `None` (the default) injects no failures. Only meaningful for the
    /// [`BackendKind::Fleet`] backends; ignored when
    /// [`GpuSolverConfig::fail_at`] lists explicit events.
    pub fail_seed: Option<u64>,
    /// Explicit fleet member-death events as `(batch, member)` pairs: the
    /// member dies at the start of that batch ordinal (0-based, counted per
    /// fleet `bound_batch` call). Takes precedence over
    /// [`GpuSolverConfig::fail_seed`]. Empty (the default) injects nothing.
    pub fail_at: Vec<(u64, usize)>,
    /// Stop the solve at the first batch boundary after this many bounded
    /// batches and return a [`crate::fault::SolveCheckpoint`] in the
    /// outcome ([`crate::solver::GpuSolveOutcome::checkpoint`]). `None`
    /// (the default) runs to the configured limits.
    pub checkpoint_after: Option<u64>,
}

impl Default for GpuSolverConfig {
    fn default() -> Self {
        Self {
            pool_size: 8192,
            block_threads: 256,
            registers_per_thread: 26,
            placement: DataPlacement::SharedJmPtm,
            node_limit: None,
            time_limit: None,
            use_initial_ub: true,
            fast_forward: false,
            backend: BackendKind::Gpu,
            multicore_threads: 4,
            pipeline_depth: 4,
            pipeline_chunk: None,
            lookahead: false,
            lookahead_depth: 1,
            fleet_weights: None,
            lookahead_pool_guard: false,
            fail_seed: None,
            fail_at: Vec::new(),
            checkpoint_after: None,
        }
    }
}

impl GpuSolverConfig {
    /// Configuration matching Table II (everything in global memory).
    pub fn all_global(pool_size: usize) -> Self {
        Self {
            pool_size,
            placement: DataPlacement::AllGlobal,
            ..Default::default()
        }
    }

    /// Configuration matching Table III (`JM` and `PTM` in shared memory).
    pub fn shared_jm_ptm(pool_size: usize) -> Self {
        Self {
            pool_size,
            placement: DataPlacement::SharedJmPtm,
            ..Default::default()
        }
    }

    /// A validating builder seeded with the defaults (see
    /// [`SolverConfigBuilder`]).
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder::default()
    }

    /// A validating builder seeded with this configuration — edit a few
    /// fields, then re-validate with [`SolverConfigBuilder::build`].
    pub fn to_builder(&self) -> SolverConfigBuilder {
        SolverConfigBuilder {
            config: self.clone(),
        }
    }

    /// Number of thread blocks needed for one full pool.
    pub fn grid_blocks(&self) -> usize {
        self.pool_size.div_ceil(self.block_threads)
    }
}

/// An invalid [`GpuSolverConfig`] combination rejected by
/// [`SolverConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Typed, validating constructor for [`GpuSolverConfig`].
///
/// The config struct has accreted many ad-hoc public fields; the builder
/// keeps struct-literal construction working while giving callers a checked
/// path: every setter is chainable, and [`SolverConfigBuilder::build`]
/// rejects combinations the solver would otherwise only trip over mid-run —
/// fault injection combined with checkpointing (a checkpointed solve must
/// replay bit-identically, which an injected failure breaks), fault
/// injection or fleet weights on a non-fleet backend, mis-sized or
/// non-positive fleet weights, zero pool / depth parameters, and a block
/// larger than a GPU the backend launches on allows.
///
/// ```
/// use gpu_bnb::{BackendKind, FleetTopology, GpuSolverConfig};
/// let config = GpuSolverConfig::builder()
///     .backend(BackendKind::Fleet(FleetTopology::uniform(2).mixed()))
///     .pool_size(4096)
///     .node_limit(Some(60_000))
///     .lookahead(true)
///     .build()
///     .unwrap();
/// assert_eq!(config.backend.devices(), 2);
///
/// let err = GpuSolverConfig::builder()
///     .backend(BackendKind::Fleet(FleetTopology::uniform(2)))
///     .fail_seed(Some(7))
///     .checkpoint_after(Some(3))
///     .build()
///     .unwrap_err();
/// assert!(err.to_string().contains("checkpoint"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolverConfigBuilder {
    config: GpuSolverConfig,
}

macro_rules! builder_setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.config.$name = value;
            self
        }
    };
}

impl SolverConfigBuilder {
    builder_setter!(
        /// Sets [`GpuSolverConfig::pool_size`].
        pool_size: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::block_threads`].
        block_threads: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::registers_per_thread`].
        registers_per_thread: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::placement`].
        placement: DataPlacement
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::node_limit`].
        node_limit: Option<u64>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::time_limit`].
        time_limit: Option<Duration>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::use_initial_ub`].
        use_initial_ub: bool
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::fast_forward`].
        fast_forward: bool
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::backend`].
        backend: BackendKind
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::multicore_threads`].
        multicore_threads: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::pipeline_depth`].
        pipeline_depth: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::pipeline_chunk`].
        pipeline_chunk: Option<usize>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::lookahead`].
        lookahead: bool
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::lookahead_depth`].
        lookahead_depth: usize
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::fleet_weights`].
        fleet_weights: Option<Vec<f64>>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::lookahead_pool_guard`].
        lookahead_pool_guard: bool
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::fail_seed`].
        fail_seed: Option<u64>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::fail_at`].
        fail_at: Vec<(u64, usize)>
    );
    builder_setter!(
        /// Sets [`GpuSolverConfig::checkpoint_after`].
        checkpoint_after: Option<u64>
    );

    /// Validates the accumulated configuration and returns it, or a
    /// [`ConfigError`] naming the first inconsistent combination.
    pub fn build(self) -> Result<GpuSolverConfig, ConfigError> {
        let config = self.config;
        if config.pool_size == 0 {
            return Err(ConfigError("pool_size must be at least 1".into()));
        }
        if config.block_threads == 0 {
            return Err(ConfigError("block_threads must be at least 1".into()));
        }
        if config.multicore_threads == 0 {
            return Err(ConfigError("multicore_threads must be at least 1".into()));
        }
        if config.pipeline_depth == 0 {
            return Err(ConfigError("pipeline_depth must be at least 1".into()));
        }
        if config.lookahead_depth == 0 {
            return Err(ConfigError("lookahead_depth must be at least 1".into()));
        }
        if config.pipeline_chunk == Some(0) {
            return Err(ConfigError("pipeline_chunk must be at least 1".into()));
        }
        let injects_faults = config.fail_seed.is_some() || !config.fail_at.is_empty();
        if injects_faults && config.checkpoint_after.is_some() {
            return Err(ConfigError(
                "fault injection (fail_seed / fail_at) cannot be combined with \
                 checkpoint_after: a checkpointed solve must replay bit-identically, \
                 which an injected member failure breaks"
                    .into(),
            ));
        }
        if let Some(gpu) = launch_devices(config.backend)
            .iter()
            .find(|gpu| config.block_threads > gpu.max_threads_per_block)
        {
            return Err(ConfigError(format!(
                "block_threads {} exceeds the {} threads per block of the {} \
                 the `{}` backend launches on",
                config.block_threads, gpu.max_threads_per_block, gpu.name, config.backend
            )));
        }
        let fleet = match config.backend {
            BackendKind::Fleet(topology) => Some(topology),
            _ => None,
        };
        if injects_faults && fleet.is_none() {
            return Err(ConfigError(format!(
                "fault injection needs a fleet backend (got `{}`)",
                config.backend
            )));
        }
        if let Some(weights) = &config.fleet_weights {
            let Some(topology) = fleet else {
                return Err(ConfigError(format!(
                    "fleet_weights need a fleet backend (got `{}`)",
                    config.backend
                )));
            };
            if weights.len() != topology.devices {
                return Err(ConfigError(format!(
                    "fleet_weights has {} entries but the fleet has {} devices",
                    weights.len(),
                    topology.devices
                )));
            }
            if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
                return Err(ConfigError(
                    "fleet_weights must all be finite and positive".into(),
                ));
            }
        }
        if let Some(topology) = fleet {
            for &(_, member) in &config.fail_at {
                if member >= topology.devices {
                    return Err(ConfigError(format!(
                        "fail_at names member {member} but the fleet has only {} devices",
                        topology.devices
                    )));
                }
            }
        }
        Ok(config)
    }
}

/// The simulated GPUs `backend` launches its kernel on: the Tesla C2050
/// of a single-device backend, every GPU member of a fleet, none for the
/// host backends.
fn launch_devices(backend: BackendKind) -> Vec<DeviceSpec> {
    match backend {
        BackendKind::Sequential | BackendKind::Multicore => Vec::new(),
        BackendKind::Gpu | BackendKind::GpuPipelined => vec![DeviceSpec::tesla_c2050()],
        BackendKind::Fleet(topology) => fleet_member_specs(topology.devices, topology.is_hetero())
            .into_iter()
            .filter_map(|member| match member {
                FleetMemberSpec::Gpu(spec) => Some(spec),
                FleetMemberSpec::Cpu { .. } => None,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pool_sizes_are_powers_of_two_times_256() {
        for (i, &p) in PAPER_POOL_SIZES.iter().enumerate() {
            assert_eq!(p % 256, 0);
            assert_eq!(p, 4096 << i);
        }
    }

    #[test]
    fn grid_blocks_matches_the_paper_columns() {
        // The paper labels the columns 16×256 … 1024×256.
        let blocks: Vec<usize> = PAPER_POOL_SIZES
            .iter()
            .map(|&p| GpuSolverConfig::all_global(p).grid_blocks())
            .collect();
        assert_eq!(blocks, vec![16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn backend_kind_round_trips_through_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("warp-drive".parse::<BackendKind>().is_err());
        assert_eq!(GpuSolverConfig::default().backend, BackendKind::Gpu);
        assert!(GpuSolverConfig::default().pipeline_depth >= 2);
        // Cross-iteration pipelining is opt-in and chunking defaults to the
        // wave-aligned heuristic until the auto-tuner persists a sweep.
        assert!(!GpuSolverConfig::default().lookahead);
        assert_eq!(GpuSolverConfig::default().pipeline_chunk, None);
        assert_eq!(GpuSolverConfig::default().lookahead_depth, 1);
    }

    #[test]
    fn fleet_specs_parse_and_display() {
        for (spec, topology, name) in [
            (
                "fleet",
                FleetTopology::uniform(DEFAULT_FLEET_DEVICES),
                "fleet",
            ),
            ("fleet:1", FleetTopology::uniform(1), "fleet"),
            ("fleet:4", FleetTopology::uniform(4), "fleet"),
            (
                "fleet:3:one-launch",
                FleetTopology::uniform(3).one_launch(),
                "fleet",
            ),
            (
                "fleet:2:hetero",
                FleetTopology::uniform(2).mixed(),
                "fleet-hetero",
            ),
            (
                "fleet:2:steal",
                FleetTopology::uniform(2).stealing(),
                "fleet-steal",
            ),
            (
                "fleet:2:hetero:steal:one-launch",
                FleetTopology::uniform(2).mixed().stealing().one_launch(),
                "fleet-hetero-steal",
            ),
            // Modes parse in any order; Display canonicalizes them.
            (
                "fleet:2:steal:hetero",
                FleetTopology::uniform(2).mixed().stealing(),
                "fleet-hetero-steal",
            ),
        ] {
            let kind: BackendKind = spec.parse().unwrap();
            assert_eq!(kind, BackendKind::Fleet(topology), "{spec}");
            assert_eq!(kind.name(), name);
            assert_eq!(kind.devices(), topology.devices);
            // The Display form round-trips with the full parameters.
            assert_eq!(kind.to_string().parse::<BackendKind>().unwrap(), kind);
            // The topology parses standalone with the same grammar.
            assert_eq!(spec.parse::<FleetTopology>().unwrap(), topology);
        }
        assert_eq!(
            "fleet:2:steal:hetero"
                .parse::<BackendKind>()
                .unwrap()
                .to_string(),
            "fleet:2:hetero:steal"
        );
        assert_eq!(BackendKind::Gpu.devices(), 1);
        for bad in [
            "fleet:",
            "fleet:0",
            "fleet:2:warp",
            "fleets",
            "fleet:2:one-launch:x",
            "fleet:2:hetero:hetero",
            "fleet:2:steal:steal",
            "fleet:2:one-launch:one-launch",
        ] {
            assert!(bad.parse::<BackendKind>().is_err(), "{bad} must not parse");
        }
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_fleet_constructor_matches_topologies() {
        for (pipelined, hetero, stealing) in [
            (true, false, false),
            (false, false, false),
            (true, true, false),
            (true, false, true),
            (false, true, true),
        ] {
            let legacy = BackendKind::fleet(3, pipelined, hetero, stealing);
            let BackendKind::Fleet(topology) = legacy else {
                panic!("constructor must build a fleet");
            };
            assert_eq!(topology.devices, 3);
            assert_eq!(topology.is_pipelined(), pipelined);
            assert_eq!(topology.is_hetero(), hetero);
            assert_eq!(topology.is_stealing(), stealing);
            // String round-trip: the legacy form and the topology form
            // produce the same canonical spelling and report name.
            assert_eq!(
                legacy.to_string().parse::<BackendKind>().unwrap(),
                BackendKind::Fleet(topology)
            );
        }
    }

    #[test]
    fn builder_validates_inconsistent_combinations() {
        // The happy path mirrors struct-literal construction.
        let built = GpuSolverConfig::builder()
            .pool_size(4096)
            .node_limit(Some(1000))
            .build()
            .unwrap();
        assert_eq!(built.pool_size, 4096);
        assert_eq!(built.node_limit, Some(1000));
        assert_eq!(
            built.block_threads,
            GpuSolverConfig::default().block_threads
        );

        // Fault injection and checkpointing conflict at build time.
        let err = GpuSolverConfig::builder()
            .backend(BackendKind::Fleet(FleetTopology::uniform(2)))
            .fail_seed(Some(11))
            .checkpoint_after(Some(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "{err}");
        let err = GpuSolverConfig::builder()
            .backend(BackendKind::Fleet(FleetTopology::uniform(2)))
            .fail_at(vec![(3, 1)])
            .checkpoint_after(Some(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("bit-identically"), "{err}");

        // Fault injection and fleet weights need a fleet backend.
        assert!(GpuSolverConfig::builder()
            .fail_seed(Some(11))
            .build()
            .is_err());
        assert!(GpuSolverConfig::builder()
            .fleet_weights(Some(vec![1.0, 2.0]))
            .build()
            .is_err());

        // Fleet weights must match the device count and be positive.
        let fleet = BackendKind::Fleet(FleetTopology::uniform(2));
        assert!(GpuSolverConfig::builder()
            .backend(fleet)
            .fleet_weights(Some(vec![1.0]))
            .build()
            .is_err());
        assert!(GpuSolverConfig::builder()
            .backend(fleet)
            .fleet_weights(Some(vec![1.0, -2.0]))
            .build()
            .is_err());
        assert!(GpuSolverConfig::builder()
            .backend(fleet)
            .fleet_weights(Some(vec![1.0, 2.0]))
            .build()
            .is_ok());

        // Explicit fail_at events must name an existing member.
        assert!(GpuSolverConfig::builder()
            .backend(fleet)
            .fail_at(vec![(0, 2)])
            .build()
            .is_err());

        // Zero-valued structural parameters are rejected.
        assert!(GpuSolverConfig::builder().pool_size(0).build().is_err());
        assert!(GpuSolverConfig::builder()
            .pipeline_depth(0)
            .build()
            .is_err());
        assert!(GpuSolverConfig::builder()
            .lookahead_depth(0)
            .build()
            .is_err());
        assert!(GpuSolverConfig::builder()
            .pipeline_chunk(Some(0))
            .build()
            .is_err());

        // to_builder round-trips an existing config.
        let edited = built.to_builder().pool_size(8192).build().unwrap();
        assert_eq!(edited.pool_size, 8192);
        assert_eq!(edited.node_limit, Some(1000));
    }

    /// Builds the defaults with `backend` and `block_threads`.
    fn with_block(
        backend: BackendKind,
        block_threads: usize,
    ) -> Result<GpuSolverConfig, ConfigError> {
        GpuSolverConfig::builder()
            .backend(backend)
            .block_threads(block_threads)
            .build()
    }

    #[test]
    fn gpu_blocks_past_the_device_limit_are_rejected() {
        assert!(with_block(BackendKind::Gpu, 1024).is_ok());
        let err = with_block(BackendKind::Gpu, 2048).unwrap_err();
        assert!(err.to_string().contains("1024 threads per block"), "{err}");
    }

    #[test]
    fn pipelined_blocks_past_the_device_limit_are_rejected() {
        assert!(with_block(BackendKind::GpuPipelined, 1024).is_ok());
        let err = with_block(BackendKind::GpuPipelined, 1025).unwrap_err();
        assert!(err.to_string().contains("Tesla C2050"), "{err}");
    }

    #[test]
    fn fleet_blocks_past_any_member_limit_are_rejected() {
        let hetero = BackendKind::Fleet(FleetTopology::uniform(2).mixed());
        assert!(with_block(hetero, 1024).is_ok());
        let err = with_block(hetero, 2048).unwrap_err();
        assert!(err.to_string().contains("fleet:2:hetero"), "{err}");
    }

    #[test]
    fn host_backends_launch_no_blocks() {
        assert!(with_block(BackendKind::Sequential, 2048).is_ok());
        assert!(with_block(BackendKind::Multicore, 2048).is_ok());
    }

    #[test]
    fn presets_set_the_placement() {
        assert_eq!(
            GpuSolverConfig::all_global(4096).placement,
            DataPlacement::AllGlobal
        );
        assert_eq!(
            GpuSolverConfig::shared_jm_ptm(4096).placement,
            DataPlacement::SharedJmPtm
        );
        assert_eq!(GpuSolverConfig::default().block_threads, 256);
        assert_eq!(GpuSolverConfig::default().registers_per_thread, 26);
    }
}
