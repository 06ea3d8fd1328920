//! # fsp — the permutation Flow-Shop Scheduling Problem
//!
//! Domain substrate for the reproduction of *Melab, Chakroun, Mezmaz, Tuyttens —
//! "A GPU-accelerated Branch-and-Bound Algorithm for the Flow-Shop Scheduling
//! Problem", IEEE CLUSTER 2012*.
//!
//! The permutation Flow-Shop Problem (FSP) schedules `n` jobs on `m` machines.
//! Every job visits machine `M1, M2, …, Mm` in that order, every machine
//! processes the jobs in the *same* order (a permutation), and the objective is
//! to minimise the *makespan* `Cmax` — the completion time of the last job on
//! the last machine.
//!
//! This crate provides:
//!
//! * [`Instance`] — processing-time matrices, including the
//!   [`taillard`] benchmark generator used in the paper's evaluation;
//! * [`schedule`] — makespan evaluation of complete and partial permutations;
//! * [`johnson`] — Johnson's exact algorithm for the 2-machine case and
//!   Johnson's rule with time lags (the building block of the lower bound);
//! * [`bound`] — the six data structures (`PTM`, `LM`, `JM`, `RM`, `QM`, `MM`)
//!   of Table I and the lower-bound function of Figure 2 of the paper (a
//!   single-node reference and a batch entry point that bounds several nodes
//!   per pass, as the kernel's threads do), plus a cheaper single-machine
//!   bound for ablation studies;
//! * [`neh`] — the NEH constructive heuristic, used to seed the upper bound;
//! * [`brute`] — exhaustive enumeration for tiny instances (test oracle).

#![warn(missing_docs)]

pub mod brute;
pub mod instance;
pub mod io;
pub mod johnson;
pub mod neh;
pub mod schedule;
pub mod taillard;

pub mod bound;

pub use bound::data::BoundData;
pub use bound::johnson_lb::JohnsonLowerBound;
pub use bound::lb1::OneMachineBound;
pub use bound::{BoundScratch, LowerBound, SubProblem};
pub use instance::Instance;
pub use schedule::{makespan, makespan_prefix, PartialSchedule};

/// A job index. Jobs are numbered `0..n`.
pub type Job = usize;

/// A machine index. Machines are numbered `0..m`.
pub type Machine = usize;

/// A processing time / completion time / makespan value.
///
/// Taillard instances use processing times in `1..=99`, so with `n ≤ 500` and
/// `m ≤ 20` every completion time fits comfortably in a `u32`.
pub type Time = u32;
