//! # gpu-bnb — GPU-accelerated Branch-and-Bound for the Flow-Shop problem
//!
//! The paper's primary contribution: a B&B solver whose **bounding operator
//! runs on the GPU** (Type 1 parallelism — parallel evaluation of the lower
//! bound over a pool of sub-problems), with a data-placement strategy that
//! maps the six bound matrices onto the device memory hierarchy.

#![warn(missing_docs)]

pub mod autotune;
pub mod backend;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod cost;
pub mod fleet;
pub mod kernel_lb;
pub mod offload;
pub mod placement;
mod search;
pub mod service;
pub mod solver;
pub mod stats;

pub use backend::{
    make_backend, BackendAccounting, BackendBatch, BoundingBackend, GpuBackend, MulticoreBackend,
    PipelinedGpuBackend, SequentialBackend,
};
pub use cache::{
    perturbed, CacheDonor, Certificate, ConfigKey, InstanceKey, ReuseKey, SolveCache,
    DEFAULT_CACHE_CAPACITY,
};
pub use checkpoint::{SolveCheckpoint, CHECKPOINT_SCHEMA_VERSION};
pub use config::{
    BackendKind, ConfigError, FleetTopology, GpuSolverConfig, LaunchMode, MemberMix,
    SolverConfigBuilder, StealPolicy, DEFAULT_FLEET_DEVICES,
};
pub use cost::{CostReport, CostSummary, CostTable, LatencyHistogram, OpCost, SolveLatencies};
pub use fleet::{
    fleet_member_specs, fleet_weight_shares, launch_models, member_models, plan_shards,
    plan_shards_weighted, steal_pass, FleetBackend, FleetDeviceStats, FleetShard, MemberModel,
    StealSummary,
};
pub use kernel_lb::LowerBoundKernel;
pub use offload::{BoundingEngine, PipelineSession, PipelinedBatch, PipelinedBoundingResult};
pub use placement::DataPlacement;
pub use service::{
    CacheDisposition, CachePolicy, IncumbentUpdate, JobHandle, JobId, JobOutcome, JobSpec,
    JobStatus, JobStopReason, RequestOutcome, ServiceConfig, SolveRequest, SolveService,
};
pub use solver::{GpuBnbSolver, GpuSolveOutcome};
pub use stats::GpuRunStats;
