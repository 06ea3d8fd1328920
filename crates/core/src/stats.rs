//! Accounting of a GPU-accelerated run: modelled device time, modelled
//! serial time, and the speedup the paper's tables report.

use gpu_sim::{HostModel, TransferModel};
use std::time::Duration;

/// CPU-side cycles charged per generated node for the operators that stay on
/// the host (selection, branching, elimination). A small constant: the
/// paper's measurements put all three together at ≈ 1.5 % of the serial time,
/// i.e. a few hundred cycles per generated child.
pub const HOST_OPS_CYCLES_PER_NODE: f64 = 300.0;

/// Aggregated statistics of a GPU-accelerated solve: a view of the
/// counters one run added to its [`crate::cost::CostReport`], built once
/// when the run finishes (a resumed run's carried counters excluded), plus
/// its wall time.
#[derive(Debug, Default, Clone, Copy)]
pub struct GpuRunStats {
    /// Number of bounding iterations (batches).
    pub iterations: u64,
    /// Sub-problems bounded on the device.
    pub nodes_bounded: u64,
    /// Modelled kernel time, summed over iterations.
    pub kernel_time: Duration,
    /// Modelled PCIe transfer time, summed over iterations.
    pub transfer_time: Duration,
    /// Modelled wall time of the device schedule, summed over iterations.
    /// Equal to `kernel_time + transfer_time` for unpipelined backends;
    /// strictly smaller when H2D / kernel / D2H overlap on streams. Zero
    /// means "not tracked" (legacy accounting) and falls back to the sum.
    pub overlapped_time: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: u64,
    /// Bytes shipped device→host.
    pub download_bytes: u64,
    /// Kernel launches (pipeline chunks), summed over iterations. Zero
    /// means "not tracked" (legacy accounting) and falls back to
    /// `iterations` where a per-copy count is needed.
    pub launches: u64,
    /// Matrix accesses the equivalent serial bounding would perform (drives
    /// the modelled serial time).
    pub serial_accesses: u64,
    /// Wall-clock time of the *simulation* (useful to budget experiments; not
    /// a modelled quantity).
    pub wall_time: Duration,
}

impl GpuRunStats {
    /// Modelled CPU time of the operators that remain on the host.
    pub fn host_ops_time(&self, host: &HostModel) -> Duration {
        Duration::from_secs_f64(
            self.nodes_bounded as f64 * HOST_OPS_CYCLES_PER_NODE / host.clock_hz,
        )
    }

    /// Modelled total time of the GPU-accelerated run: the device schedule
    /// (overlapped when the backend pipelines, kernels + transfers
    /// otherwise) plus the host-side operators.
    pub fn modeled_gpu_time(&self, host: &HostModel) -> Duration {
        self.device_schedule_time() + self.host_ops_time(host)
    }

    /// Modelled wall time of the device schedule alone: the overlapped
    /// figure when tracked, the serialized kernel + transfer sum otherwise.
    pub fn device_schedule_time(&self) -> Duration {
        if self.overlapped_time.is_zero() {
            self.kernel_time + self.transfer_time
        } else {
            self.overlapped_time
        }
    }

    /// Modelled time a single CPU core would need to bound the same
    /// sub-problems (the paper's serial baseline), given the byte footprint
    /// of the bound matrices.
    pub fn modeled_serial_time(&self, host: &HostModel, footprint_bytes: usize) -> Duration {
        host.bounding_time(self.serial_accesses, self.nodes_bounded, footprint_bytes)
            + self.host_ops_time(host)
    }

    /// The parallel efficiency the paper reports: modelled serial time over
    /// modelled GPU time. Returns 0 when nothing was bounded.
    pub fn speedup(&self, host: &HostModel, footprint_bytes: usize) -> f64 {
        let gpu = self.modeled_gpu_time(host).as_secs_f64();
        if gpu == 0.0 {
            return 0.0;
        }
        self.modeled_serial_time(host, footprint_bytes)
            .as_secs_f64()
            / gpu
    }

    /// Average nodes bounded per iteration.
    pub fn average_pool(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.nodes_bounded as f64 / self.iterations as f64
        }
    }

    /// Fraction of the modelled GPU time spent transferring data, derived
    /// from the schedule actually used: on an overlapped schedule only the
    /// transfer time the kernels did *not* hide is charged
    /// (`device_schedule − kernel`, capped at the summed transfer time), so
    /// the share stays within `[0, 1]` even when the summed per-chunk
    /// transfer time exceeds the overlapped wall time. On an unpipelined
    /// schedule this reduces exactly to `transfer / total`.
    pub fn transfer_share(&self, host: &HostModel) -> f64 {
        let total = self.modeled_gpu_time(host).as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        let exposed = self
            .device_schedule_time()
            .saturating_sub(self.kernel_time)
            .min(self.transfer_time);
        (exposed.as_secs_f64() / total).clamp(0.0, 1.0)
    }

    /// The number of H2D (equally, D2H) copies this run paid latency for:
    /// the tracked launch count, falling back to one copy per iteration for
    /// legacy accounting that didn't track launches.
    fn copy_count(&self) -> u64 {
        self.launches.max(self.iterations).max(1)
    }

    /// Effective PCIe bandwidth achieved by the uploads of this run:
    /// upload bytes over the modelled upload time (`TransferModel` latency
    /// per copy plus bytes over link bandwidth). Download traffic does not
    /// inflate the figure; the result never exceeds the link bandwidth.
    pub fn effective_upload_bandwidth(&self, transfer: &TransferModel) -> f64 {
        Self::directional_bandwidth(self.upload_bytes, self.copy_count(), transfer)
    }

    /// Effective PCIe bandwidth achieved by the downloads of this run (the
    /// D2H analogue of [`GpuRunStats::effective_upload_bandwidth`]).
    pub fn effective_download_bandwidth(&self, transfer: &TransferModel) -> f64 {
        Self::directional_bandwidth(self.download_bytes, self.copy_count(), transfer)
    }

    fn directional_bandwidth(bytes: u64, copies: u64, transfer: &TransferModel) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let secs =
            copies as f64 * transfer.latency.as_secs_f64() + bytes as f64 / transfer.bandwidth_bps;
        if secs == 0.0 {
            0.0
        } else {
            bytes as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GpuRunStats {
        GpuRunStats {
            iterations: 10,
            nodes_bounded: 10_000,
            kernel_time: Duration::from_millis(50),
            transfer_time: Duration::from_millis(5),
            overlapped_time: Duration::ZERO,
            upload_bytes: 1_000_000,
            download_bytes: 40_000,
            launches: 10,
            serial_accesses: 150_000_000,
            wall_time: Duration::from_secs(1),
        }
    }

    #[test]
    fn modeled_times_compose() {
        let host = HostModel::default();
        let s = sample();
        let total = s.modeled_gpu_time(&host);
        assert!(total >= s.kernel_time + s.transfer_time);
        assert!(s.host_ops_time(&host) > Duration::ZERO);
    }

    #[test]
    fn speedup_is_serial_over_gpu() {
        let host = HostModel::default();
        let s = sample();
        let speedup = s.speedup(&host, 64 * 1024);
        let expected = s.modeled_serial_time(&host, 64 * 1024).as_secs_f64()
            / s.modeled_gpu_time(&host).as_secs_f64();
        assert!((speedup - expected).abs() < 1e-12);
        assert!(speedup > 1.0, "this workload should favour the GPU");
    }

    #[test]
    fn overlapped_time_shrinks_the_modeled_gpu_time() {
        let host = HostModel::default();
        let mut s = sample();
        let serialized = s.modeled_gpu_time(&host);
        assert_eq!(s.device_schedule_time(), s.kernel_time + s.transfer_time);
        // A pipelined backend reports an overlapped schedule shorter than
        // the kernel + transfer sum; the modelled total must follow it.
        s.overlapped_time = Duration::from_millis(51);
        assert_eq!(s.device_schedule_time(), Duration::from_millis(51));
        assert!(s.modeled_gpu_time(&host) < serialized);
        assert!(s.speedup(&host, 64 * 1024) > sample().speedup(&host, 64 * 1024));
    }

    #[test]
    fn empty_run_has_zero_speedup() {
        let host = HostModel::default();
        let empty = GpuRunStats::default();
        assert_eq!(empty.speedup(&host, 1024), 0.0);
        assert_eq!(empty.average_pool(), 0.0);
        assert_eq!(empty.transfer_share(&host), 0.0);
    }

    #[test]
    fn averages_and_shares() {
        let host = HostModel::default();
        let s = sample();
        assert!((s.average_pool() - 1000.0).abs() < 1e-9);
        let share = s.transfer_share(&host);
        assert!(share > 0.0 && share < 1.0);
        assert!(s.effective_upload_bandwidth(&TransferModel::default()) > 0.0);
    }

    #[test]
    fn unpipelined_transfer_share_is_transfer_over_total() {
        // With no overlap tracked, the fixed formula reduces exactly to the
        // plain transfer / total ratio.
        let host = HostModel::default();
        let s = sample();
        let expected = s.transfer_time.as_secs_f64() / s.modeled_gpu_time(&host).as_secs_f64();
        assert!((s.transfer_share(&host) - expected).abs() < 1e-12);
    }

    #[test]
    fn pipelined_transfer_share_never_exceeds_one() {
        // Regression: a heavily overlapped schedule (summed per-chunk
        // transfer time far above the overlapped wall time, as a fleet
        // reports) used to yield a share > 1 because the serialized
        // transfer sum was divided by the overlapped total.
        let host = HostModel::default();
        let s = GpuRunStats {
            iterations: 4,
            nodes_bounded: 4_000,
            kernel_time: Duration::from_millis(5),
            transfer_time: Duration::from_millis(20),
            overlapped_time: Duration::from_millis(6),
            upload_bytes: 400_000,
            download_bytes: 16_000,
            launches: 16,
            serial_accesses: 60_000_000,
            wall_time: Duration::from_millis(10),
        };
        assert!(
            s.transfer_time > s.device_schedule_time(),
            "fixture overlaps"
        );
        let share = s.transfer_share(&host);
        assert!(share <= 1.0, "share {share} escaped [0, 1]");
        // Only the exposed transfer time (schedule − kernel = 1 ms) counts.
        let exposed = Duration::from_millis(1).as_secs_f64();
        let expected = exposed / s.modeled_gpu_time(&host).as_secs_f64();
        assert!((share - expected).abs() < 1e-12);
    }

    #[test]
    fn upload_bandwidth_ignores_downloads_and_respects_the_link() {
        // Regression: the old formula summed both directions' bytes over
        // the combined transfer time, so download traffic inflated the
        // "upload" bandwidth and the model argument was ignored outright.
        let transfer = TransferModel::default();
        let mut s = sample();
        let upload = s.effective_upload_bandwidth(&transfer);
        s.download_bytes *= 100;
        assert_eq!(
            s.effective_upload_bandwidth(&transfer),
            upload,
            "download traffic must not change the upload figure"
        );
        assert!(upload > 0.0);
        assert!(
            upload < transfer.bandwidth_bps,
            "effective bandwidth {upload} must stay below the link peak {}",
            transfer.bandwidth_bps
        );
        // The model argument is honoured: a slower link gives a lower figure.
        let slow = TransferModel {
            bandwidth_bps: transfer.bandwidth_bps / 10.0,
            ..transfer
        };
        assert!(s.effective_upload_bandwidth(&slow) < upload);
        // And the download direction is reported by its own metric.
        let down = s.effective_download_bandwidth(&transfer);
        assert!(down > 0.0 && down < transfer.bandwidth_bps);
        assert_eq!(
            GpuRunStats::default().effective_upload_bandwidth(&transfer),
            0.0
        );
    }
}
