//! # gpu-sim — a software SIMT simulator of an NVIDIA Tesla C2050 (Fermi)
//!
//! The paper's contribution is evaluated on a CUDA GPU. No GPU is available
//! to this reproduction, so this crate provides the substitute substrate
//! described in DESIGN.md: a **functional + timing** simulator of the device
//! the paper used.
//!
//! * **Functional**: a kernel body runs once per warp, its lanes in
//!   lockstep, against a [`warp::WarpCtx`] that performs real reads/writes
//!   on device buffers — the lower bounds produced by the "GPU" are exact.
//!   A read the lanes of a mask share is fetched once and charged once per
//!   lane, so access counts equal those of running every thread alone.
//! * **Timing**: every access is attributed to the memory space its buffer is
//!   bound to ([`memory::MemorySpace`]); the executor combines per-warp
//!   arithmetic, memory-bandwidth and latency components with the occupancy
//!   computed by a CUDA-style occupancy calculator ([`occupancy`]) and a PCIe
//!   transfer model ([`transfer`]) into a kernel-duration estimate.
//!
//! The model is *cycle-accurate in shape*, not cycle-exact: it captures the
//! four effects the paper's results hinge on (arithmetic/memory ratio of the
//! bounding kernel, shared-vs-global latency gap, occupancy limits from
//! registers and shared memory, transfer cost vs pool size). See
//! `EXPERIMENTS.md` for the calibration constants.
//!
//! The API deliberately mirrors a minimal CUDA host interface
//! ([`host::Device`], buffers, launches) so that the GPU-accelerated B&B in
//! the `gpu-bnb` crate reads like the CUDA program the paper describes.

#![warn(missing_docs)]

pub mod device;
pub mod executor;
pub mod host;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod stream;
pub mod timing;
pub mod transfer;
pub mod warp;

pub use device::DeviceSpec;
pub use executor::{AccessTally, AnalyticWorkload, KernelTiming, LaunchStats};
pub use host::{Device, DeviceBuffer};
pub use kernel::{Kernel, LaunchConfig};
pub use memory::{MemorySpace, SharedMemoryConfig};
pub use occupancy::Occupancy;
pub use stream::{DeviceStreams, EventId, StreamId, Timeline};
pub use timing::{CostModel, HostModel};
pub use transfer::TransferModel;
pub use warp::WarpCtx;
