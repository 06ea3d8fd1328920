//! # flowshop-gpu-bnb — facade crate
//!
//! Re-exports the workspace crates that make up the reproduction of
//! *Melab et al., "A GPU-accelerated Branch-and-Bound Algorithm for the
//! Flow-Shop Scheduling Problem" (IEEE CLUSTER 2012)* under one roof, so the
//! examples and downstream users need a single dependency:
//!
//! * [`fsp`] — the Flow-Shop problem: instances, Taillard generator,
//!   makespan, Johnson's algorithm, lower bounds;
//! * [`bb`] — the sequential Branch-and-Bound framework and the frozen-pool
//!   experimental protocol;
//! * [`gpu_sim`] — the software SIMT simulator standing in for the Tesla
//!   C2050 of the paper;
//! * [`gpu_bnb`] — the paper's contribution: B&B with GPU-offloaded bounding
//!   and data-placement optimisation;
//! * [`multicore_bnb`] — the multi-threaded CPU baseline of Section V.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `docs/ARCHITECTURE.md` for the crate map and data flow. The three entry
//! points below are the ones the README claims — and, being doc-tests, they
//! are compiled and executed by `cargo test`.
//!
//! ## Sequential solve
//!
//! The serial reference: build an instance, run the CPU Branch-and-Bound to
//! optimality.
//!
//! ```
//! use flowshop_gpu_bnb::bb::{FspProblem, SerialSolver};
//! use flowshop_gpu_bnb::fsp::{makespan, taillard};
//!
//! let inst = taillard::generate("tiny", 8, 4, 42);
//! let outcome = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
//! assert!(outcome.is_optimal());
//! let schedule = outcome.best_schedule.expect("an optimal schedule");
//! assert_eq!(makespan(&inst, &schedule), outcome.best_makespan);
//! ```
//!
//! ## GPU off-load, stream-pipelined (the programmatic `--backend
//! gpu-pipelined`)
//!
//! What `solve_taillard --backend gpu-pipelined --lookahead` runs: the same
//! exploration with bounding off-loaded to the simulated device through the
//! stream-overlapped pipeline, batches riding one persistent cross-iteration
//! session. Bounds are bit-identical to the host's, so the makespan matches
//! the serial solver's; the modelled overlapped schedule undercuts the
//! serialized `kernel + transfer` sum.
//!
//! ```
//! use flowshop_gpu_bnb::bb::{FspProblem, SerialSolver};
//! use flowshop_gpu_bnb::fsp::taillard;
//! use flowshop_gpu_bnb::gpu_bnb::{BackendKind, GpuBnbSolver, GpuSolverConfig};
//!
//! let inst = taillard::generate("tiny", 8, 4, 42);
//! let config = GpuSolverConfig {
//!     pool_size: 64,
//!     backend: BackendKind::GpuPipelined,
//!     lookahead: true,    // cross-iteration pipelining
//!     fast_forward: true, // host-computed bounds + analytic timing
//!     ..Default::default()
//! };
//! let gpu = GpuBnbSolver::new(inst.clone(), config).solve();
//! let serial = SerialSolver::with_defaults(FspProblem::new(inst)).solve();
//! assert!(gpu.is_optimal());
//! assert_eq!(gpu.best_makespan, serial.best_makespan);
//! assert!(gpu.gpu.overlapped_time <= gpu.gpu.kernel_time + gpu.gpu.transfer_time);
//! ```
//!
//! ## Auto-tuning the off-load parameters
//!
//! The runtime procedure the paper calls for: sweep the pool size, then —
//! on a backend that reads it, such as the stream pipeline — the pipeline
//! chunk size on the target device, and persist the winners into the
//! configuration the solvers and `solve_taillard --autotune` consume.
//!
//! ```
//! use flowshop_gpu_bnb::fsp::taillard;
//! use flowshop_gpu_bnb::gpu_bnb::autotune::autotune_solver_config;
//! use flowshop_gpu_bnb::gpu_bnb::{BackendKind, GpuSolverConfig};
//!
//! let inst = taillard::generate("tune", 12, 6, 7);
//! let base = GpuSolverConfig {
//!     backend: BackendKind::GpuPipelined,
//!     fast_forward: true,
//!     ..Default::default()
//! };
//! let tuned = autotune_solver_config(&inst, &base, 512);
//! assert_eq!(tuned.config.pool_size, tuned.pool.best_pool_size);
//! let chunk = tuned.chunk.expect("the pipelined backend reads the chunk");
//! assert_eq!(tuned.config.pipeline_chunk, Some(chunk.best_chunk_size));
//! assert!(!tuned.pool.measurements.is_empty());
//! assert!(!chunk.measurements.is_empty());
//! ```

pub use bb;
pub use fsp;
pub use gpu_bnb;
pub use gpu_sim;
pub use multicore_bnb;
