//! # multicore-bnb — the multi-threaded CPU Branch-and-Bound baseline
//!
//! Section V of the paper compares the GPU-accelerated B&B against a
//! low-level (pthreads-style) multi-threaded B&B on an Intel i7-970. This
//! crate provides that baseline: worker threads sharing a pool of pending
//! sub-problems and an atomic incumbent, plus the performance model used to
//! regenerate Table IV and Figure 5 on hardware that does not have six
//! physical cores.

#![warn(missing_docs)]

pub mod flops;
pub mod model;
pub mod parallel_bounding;
pub mod worker;

pub use flops::{CpuSpec, GpuFlops};
pub use model::MulticoreModel;
pub use parallel_bounding::ParallelBoundingPool;
pub use worker::{MulticoreConfig, MulticoreOutcome, MulticoreSolver};
