//! # bb — a serial Branch-and-Bound framework for the Flow-Shop problem
//!
//! This crate provides the sequential B&B machinery the paper builds on
//! (Section II): the four operators — **selection**, **branching**,
//! **bounding** and **elimination** — a pluggable pool of pending nodes,
//! per-operator timing statistics (used for the "bounding is ≈ 98.5 % of the
//! wall time" preliminary experiment), and the *frozen pool* experimental
//! protocol of Mezmaz et al. (IPDPS 2007) that the paper uses so the CPU and
//! GPU versions explore exactly the same sub-problems.
//!
//! The GPU-accelerated solver (`gpu-bnb`) and the multi-core baseline
//! (`multicore-bnb`) reuse the node type, the pools and the protocol defined
//! here; only the bounding step differs.

#![warn(missing_docs)]

pub mod batch;
pub mod node;
pub mod pool;
pub mod problem;
pub mod protocol;
pub mod solver;
pub mod stats;
pub mod upper_bound;

pub use batch::{Batch, BatchView};
pub use fsp::Child;
pub use node::FspNode;
pub use pool::{BestFirstPool, DepthFirstPool, FifoPool, Pool, PoolStrategy};
pub use problem::FspProblem;
pub use protocol::{frozen_pool, frozen_pool_with_strategy, FrozenPool};
pub use solver::{SerialSolver, SolveOutcome, SolverConfig, StopReason};
pub use stats::OperatorTimes;
pub use upper_bound::SharedUpperBound;
