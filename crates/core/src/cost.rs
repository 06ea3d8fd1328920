//! Deterministic cost accounting: integer counters of the modelled work a
//! solve performed, the per-operation cost table every cycle charge traces
//! to, and log-bucketed latency histograms of the modelled schedule.
//!
//! The wall-clock perf gate compares machine-dependent throughput against a
//! baseline recorded on one machine — a standing foot-gun the ROADMAP calls
//! out. Everything the simulator computes, though, is deterministic: kernel
//! launches, block waves, PCIe bytes, modelled nanoseconds, host-op cycles.
//! [`CostReport`] collects those as plain integers (in the style of iai2's
//! `CachegrindStats`: `subtract` to diff against a baseline, `summarize`
//! into human-readable ratios), so CI can gate on **exact equality** and any
//! single-counter drift fails loudly on every machine.

use crate::backend::BackendAccounting;
use crate::stats::HOST_OPS_CYCLES_PER_NODE;
use std::fmt;
use std::time::Duration;

/// One row of the per-operation cost table: the constant a cycle charge of
/// [`CostReport`] traces to.
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    /// Stable operation name (the key of [`CostTable::cycles`]).
    pub op: &'static str,
    /// Unit the cost is charged per (e.g. `"node"`).
    pub unit: &'static str,
    /// Cycles charged per unit.
    pub cycles_per_unit: f64,
    /// Where the constant lives, for auditing.
    pub source: &'static str,
}

/// The per-operation cost table: every host-side cycle charge of
/// [`CostReport`] routes through [`CostTable::cycles`], so each counter
/// traces to exactly one named constant (the `CycleCostModel` idiom).
pub struct CostTable;

impl CostTable {
    /// Host-side selection/branching/elimination, charged per bounded node.
    pub const HOST_OPS: &'static str = "host-ops";
    /// Fleet bound merge (scatter back to input order), charged per node.
    pub const FLEET_MERGE: &'static str = "fleet-merge";

    /// Every operation the table prices, in stable order.
    pub fn entries() -> &'static [OpCost] {
        &[
            OpCost {
                op: CostTable::HOST_OPS,
                unit: "node",
                cycles_per_unit: HOST_OPS_CYCLES_PER_NODE,
                source: "gpu_bnb::stats::HOST_OPS_CYCLES_PER_NODE",
            },
            OpCost {
                op: CostTable::FLEET_MERGE,
                unit: "node",
                cycles_per_unit: crate::fleet::FLEET_MERGE_CYCLES_PER_NODE,
                source: "gpu_bnb::fleet::FLEET_MERGE_CYCLES_PER_NODE",
            },
        ]
    }

    /// Integer cycles charged for `units` units of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not in the table — a charge that does not trace to
    /// a named constant is exactly the bug the table exists to prevent.
    pub fn cycles(op: &str, units: u64) -> u64 {
        let entry = Self::entries()
            .iter()
            .find(|e| e.op == op)
            .unwrap_or_else(|| panic!("no cost-table entry for operation `{op}`"));
        (units as f64 * entry.cycles_per_unit).round() as u64
    }
}

/// Saturating nanoseconds of a modelled `Duration` (modelled times are
/// microseconds-to-seconds scale; saturation is unreachable in practice).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Deterministic counters of the modelled work one solve performed.
///
/// Every field is an integer, every field is a pure function of the
/// workload and the cost model — bit-identical across machines and across
/// runs on the same commit. The `cost-gate` CI job compares a fresh run
/// against the committed `BENCH_cost_baseline.json` with **exact equality**
/// per counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Batches the solver loop submitted to the bounding backend.
    pub batches: u64,
    /// Kernel launches (pipeline chunks; one per batch for CPU backends).
    pub launches: u64,
    /// Device block waves, summed over launches:
    /// `ceil(grid_blocks / multiprocessors)` each. Zero for CPU backends.
    pub waves: u64,
    /// Nodes bounded on a simulated device.
    pub device_nodes: u64,
    /// Nodes bounded by host code: the CPU backends, plus the initial pool
    /// and root bounds every solve evaluates on the host before off-loading.
    pub host_nodes: u64,
    /// Bytes shipped host→device.
    pub h2d_bytes: u64,
    /// Bytes shipped device→host.
    pub d2h_bytes: u64,
    /// Modelled kernel (or CPU bounding) nanoseconds, summed per batch.
    pub kernel_nanos: u64,
    /// Modelled PCIe transfer nanoseconds, summed per batch.
    pub transfer_nanos: u64,
    /// Modelled wall nanoseconds of the device schedule (overlapped where
    /// the backend pipelines), summed per batch.
    pub schedule_nanos: u64,
    /// Host cycles for the operators that stay on the CPU (selection,
    /// branching, elimination) — [`CostTable::HOST_OPS`] per bounded node.
    pub host_op_cycles: u64,
    /// Host cycles merging fleet shards back into input order —
    /// [`CostTable::FLEET_MERGE`] per node; zero off the fleet backend.
    pub fleet_merge_cycles: u64,
    /// Deterministic pre-launch steal-pass moves (fleet backends with
    /// stealing enabled; zero elsewhere).
    pub fleet_steals: u64,
    /// Nodes those steal moves re-dealt from late members to early ones.
    pub fleet_stolen_nodes: u64,
    /// Modelled nanoseconds fleet members spent waiting at the merge
    /// barrier (summed over batches and members; zero off the fleet
    /// backend). Together with `schedule_nanos` this prices per-member
    /// utilization.
    pub fleet_idle_nanos: u64,
    /// Always 0: no fleet member ever fails. Kept, like
    /// `fleet_redealt_nodes` and `fleet_recovery_nanos`, because the
    /// benchmark's per-layer metric names include it.
    pub fleet_failures: u64,
    /// Always 0: no member's shard is ever re-dealt. Kept because the
    /// benchmark's per-layer metric names include it.
    pub fleet_redealt_nodes: u64,
    /// Always 0: no recovery is ever priced. Kept because the benchmark's
    /// per-layer metric names include it.
    pub fleet_recovery_nanos: u64,
    /// Matrix accesses the equivalent serial bounding would perform.
    pub serial_accesses: u64,
    /// Solve-cache exact hits: requests answered from a memoized
    /// certificate ([`crate::cache::SolveCache`]) with zero device work.
    pub cache_hits: u64,
    /// Solves warm-started from a cached incumbent (perturbed-instance
    /// reuse: the donor's schedule re-priced as the initial upper bound).
    pub cache_warm_starts: u64,
    /// Always 0: warm starts reuse only a donor's schedule, so no stored
    /// bound is ever re-checked. Kept because the benchmark's per-layer
    /// metric names include it.
    pub cache_invalidated_nodes: u64,
}

/// The number of counters in a [`CostReport`] (the length of
/// [`CostReport::counters`]).
pub const COST_COUNTERS: usize = 22;

impl CostReport {
    /// Folds one bounded batch into the report. `nodes` is the batch size;
    /// `serial_accesses` is the modelled serial access count of the same
    /// batch.
    pub fn record_backend_batch(
        &mut self,
        acc: &BackendAccounting,
        nodes: u64,
        serial_accesses: u64,
    ) {
        if nodes == 0 {
            return;
        }
        self.batches += 1;
        self.launches += acc.launches;
        self.waves += acc.waves;
        self.device_nodes += acc.device_nodes;
        self.host_nodes += nodes - acc.device_nodes.min(nodes);
        self.h2d_bytes += acc.upload_bytes;
        self.d2h_bytes += acc.download_bytes;
        self.kernel_nanos += nanos(acc.kernel_time);
        self.transfer_nanos += nanos(acc.transfer_time);
        self.schedule_nanos += nanos(acc.device_time);
        self.host_op_cycles += CostTable::cycles(CostTable::HOST_OPS, nodes);
        self.fleet_merge_cycles += acc.merge_cycles;
        self.fleet_steals += acc.steals;
        self.fleet_stolen_nodes += acc.stolen_nodes;
        self.fleet_idle_nanos += nanos(acc.idle_time);
        self.serial_accesses += serial_accesses;
    }

    /// Records `nodes` bounded by host code outside any backend batch (the
    /// root bound and the initial/frozen pool every solve evaluates on the
    /// host before the off-load loop starts).
    pub fn record_host_bound(&mut self, nodes: u64) {
        self.host_nodes += nodes;
    }

    /// The counters as `(name, value)` pairs, in stable order — the
    /// enumeration behind [`CostReport::to_json`], the gate's diffing and
    /// the baseline schema.
    pub fn counters(&self) -> [(&'static str, u64); COST_COUNTERS] {
        [
            ("batches", self.batches),
            ("launches", self.launches),
            ("waves", self.waves),
            ("device_nodes", self.device_nodes),
            ("host_nodes", self.host_nodes),
            ("h2d_bytes", self.h2d_bytes),
            ("d2h_bytes", self.d2h_bytes),
            ("kernel_nanos", self.kernel_nanos),
            ("transfer_nanos", self.transfer_nanos),
            ("schedule_nanos", self.schedule_nanos),
            ("host_op_cycles", self.host_op_cycles),
            ("fleet_merge_cycles", self.fleet_merge_cycles),
            ("fleet_steals", self.fleet_steals),
            ("fleet_stolen_nodes", self.fleet_stolen_nodes),
            ("fleet_idle_nanos", self.fleet_idle_nanos),
            ("fleet_failures", self.fleet_failures),
            ("fleet_redealt_nodes", self.fleet_redealt_nodes),
            ("fleet_recovery_nanos", self.fleet_recovery_nanos),
            ("serial_accesses", self.serial_accesses),
            ("cache_hits", self.cache_hits),
            ("cache_warm_starts", self.cache_warm_starts),
            ("cache_invalidated_nodes", self.cache_invalidated_nodes),
        ]
    }

    /// Per-counter saturating difference `self − baseline` (the iai2
    /// `CachegrindStats::subtract` idiom): all-zero exactly when the two
    /// reports are equal.
    pub fn subtract(&self, baseline: &CostReport) -> CostReport {
        CostReport {
            batches: self.batches.saturating_sub(baseline.batches),
            launches: self.launches.saturating_sub(baseline.launches),
            waves: self.waves.saturating_sub(baseline.waves),
            device_nodes: self.device_nodes.saturating_sub(baseline.device_nodes),
            host_nodes: self.host_nodes.saturating_sub(baseline.host_nodes),
            h2d_bytes: self.h2d_bytes.saturating_sub(baseline.h2d_bytes),
            d2h_bytes: self.d2h_bytes.saturating_sub(baseline.d2h_bytes),
            kernel_nanos: self.kernel_nanos.saturating_sub(baseline.kernel_nanos),
            transfer_nanos: self.transfer_nanos.saturating_sub(baseline.transfer_nanos),
            schedule_nanos: self.schedule_nanos.saturating_sub(baseline.schedule_nanos),
            host_op_cycles: self.host_op_cycles.saturating_sub(baseline.host_op_cycles),
            fleet_merge_cycles: self
                .fleet_merge_cycles
                .saturating_sub(baseline.fleet_merge_cycles),
            fleet_steals: self.fleet_steals.saturating_sub(baseline.fleet_steals),
            fleet_stolen_nodes: self
                .fleet_stolen_nodes
                .saturating_sub(baseline.fleet_stolen_nodes),
            fleet_idle_nanos: self
                .fleet_idle_nanos
                .saturating_sub(baseline.fleet_idle_nanos),
            fleet_failures: self.fleet_failures.saturating_sub(baseline.fleet_failures),
            fleet_redealt_nodes: self
                .fleet_redealt_nodes
                .saturating_sub(baseline.fleet_redealt_nodes),
            fleet_recovery_nanos: self
                .fleet_recovery_nanos
                .saturating_sub(baseline.fleet_recovery_nanos),
            serial_accesses: self
                .serial_accesses
                .saturating_sub(baseline.serial_accesses),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            cache_warm_starts: self
                .cache_warm_starts
                .saturating_sub(baseline.cache_warm_starts),
            cache_invalidated_nodes: self
                .cache_invalidated_nodes
                .saturating_sub(baseline.cache_invalidated_nodes),
        }
    }

    /// Adds every counter of `other` into `self` — the aggregation dual of
    /// [`CostReport::subtract`]. The service layer uses it to sum per-job
    /// reports into fleet-wide totals (and the tests to prove the per-job
    /// carve is exhaustive: the shared report equals the absorbed sum).
    pub fn absorb(&mut self, other: &CostReport) {
        self.batches += other.batches;
        self.launches += other.launches;
        self.waves += other.waves;
        self.device_nodes += other.device_nodes;
        self.host_nodes += other.host_nodes;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.kernel_nanos += other.kernel_nanos;
        self.transfer_nanos += other.transfer_nanos;
        self.schedule_nanos += other.schedule_nanos;
        self.host_op_cycles += other.host_op_cycles;
        self.fleet_merge_cycles += other.fleet_merge_cycles;
        self.fleet_steals += other.fleet_steals;
        self.fleet_stolen_nodes += other.fleet_stolen_nodes;
        self.fleet_idle_nanos += other.fleet_idle_nanos;
        self.fleet_failures += other.fleet_failures;
        self.fleet_redealt_nodes += other.fleet_redealt_nodes;
        self.fleet_recovery_nanos += other.fleet_recovery_nanos;
        self.serial_accesses += other.serial_accesses;
        self.cache_hits += other.cache_hits;
        self.cache_warm_starts += other.cache_warm_starts;
        self.cache_invalidated_nodes += other.cache_invalidated_nodes;
    }

    /// Total nodes bounded (device + host).
    pub fn nodes_bounded(&self) -> u64 {
        self.device_nodes + self.host_nodes
    }

    /// The off-loading rate: share of all bounded nodes evaluated on a
    /// device (vs the host fallback — CPU backends, the root bound, the
    /// initial pool). Zero when nothing was bounded.
    pub fn offloading_rate(&self) -> f64 {
        let total = self.nodes_bounded();
        if total == 0 {
            0.0
        } else {
            self.device_nodes as f64 / total as f64
        }
    }

    /// Derived human-readable figures (the iai2 `summarize` idiom).
    pub fn summarize(&self) -> CostSummary {
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        CostSummary {
            offloading_rate: self.offloading_rate(),
            launches_per_batch: per(self.launches, self.batches),
            waves_per_launch: per(self.waves, self.launches),
            bytes_per_device_node: per(self.h2d_bytes + self.d2h_bytes, self.device_nodes),
            kernel_seconds: self.kernel_nanos as f64 * 1e-9,
            transfer_seconds: self.transfer_nanos as f64 * 1e-9,
            schedule_seconds: self.schedule_nanos as f64 * 1e-9,
        }
    }

    /// The counters as a flat JSON object, indented by `indent` (hand-rolled
    /// like the rest of the workspace's report writers — no serde in tree).
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::from("{\n");
        let counters = self.counters();
        for (i, (name, value)) in counters.iter().enumerate() {
            let sep = if i + 1 < counters.len() { "," } else { "" };
            out.push_str(&format!("{indent}  \"{name}\": {value}{sep}\n"));
        }
        out.push_str(indent);
        out.push('}');
        out
    }

    /// Sets the counter called `name` to `value`; returns `false` when no
    /// counter has that name. The inverse of [`CostReport::counters`], used
    /// by parsers of emitted reports (e.g. checkpoint files).
    pub fn set_counter(&mut self, name: &str, value: u64) -> bool {
        match name {
            "batches" => self.batches = value,
            "launches" => self.launches = value,
            "waves" => self.waves = value,
            "device_nodes" => self.device_nodes = value,
            "host_nodes" => self.host_nodes = value,
            "h2d_bytes" => self.h2d_bytes = value,
            "d2h_bytes" => self.d2h_bytes = value,
            "kernel_nanos" => self.kernel_nanos = value,
            "transfer_nanos" => self.transfer_nanos = value,
            "schedule_nanos" => self.schedule_nanos = value,
            "host_op_cycles" => self.host_op_cycles = value,
            "fleet_merge_cycles" => self.fleet_merge_cycles = value,
            "fleet_steals" => self.fleet_steals = value,
            "fleet_stolen_nodes" => self.fleet_stolen_nodes = value,
            "fleet_idle_nanos" => self.fleet_idle_nanos = value,
            "fleet_failures" => self.fleet_failures = value,
            "fleet_redealt_nodes" => self.fleet_redealt_nodes = value,
            "fleet_recovery_nanos" => self.fleet_recovery_nanos = value,
            "serial_accesses" => self.serial_accesses = value,
            "cache_hits" => self.cache_hits = value,
            "cache_warm_starts" => self.cache_warm_starts = value,
            "cache_invalidated_nodes" => self.cache_invalidated_nodes = value,
            _ => return false,
        }
        true
    }
}

/// Derived figures of a [`CostReport`] (see [`CostReport::summarize`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Share of bounded nodes evaluated on a device.
    pub offloading_rate: f64,
    /// Kernel launches per solver batch (chunking granularity).
    pub launches_per_batch: f64,
    /// Block waves per launch (device-fill granularity).
    pub waves_per_launch: f64,
    /// PCIe bytes (both directions) per device-bounded node.
    pub bytes_per_device_node: f64,
    /// Modelled kernel time in seconds.
    pub kernel_seconds: f64,
    /// Modelled PCIe time in seconds.
    pub transfer_seconds: f64,
    /// Modelled wall time of the device schedule in seconds.
    pub schedule_seconds: f64,
}

impl fmt::Display for CostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offload {:.4}, {:.1} launches/batch, {:.1} waves/launch, \
             {:.1} B/node, kernel {:.6}s, transfer {:.6}s, schedule {:.6}s",
            self.offloading_rate,
            self.launches_per_batch,
            self.waves_per_launch,
            self.bytes_per_device_node,
            self.kernel_seconds,
            self.transfer_seconds,
            self.schedule_seconds,
        )
    }
}

/// Number of buckets a [`LatencyHistogram`] holds: bucket 0 for zero, then
/// one power-of-two bucket per bit of a nanosecond count.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram over nanoseconds: bucket 0 counts
/// zero-duration samples, bucket `b ≥ 1` counts samples in
/// `[2^(b−1), 2^b − 1]` ns. Recording is O(1), the memory is fixed, and —
/// because the recorded latencies are modelled, not measured — the contents
/// are deterministic and comparable across machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    samples: u64,
    total_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BUCKETS],
            samples: 0,
            total_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index a latency of `nanos` falls into.
    pub fn bucket_index(nanos: u64) -> usize {
        (u64::BITS - nanos.leading_zeros()) as usize
    }

    /// Inclusive `[lo, hi]` nanosecond range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        if index == 0 {
            (0, 0)
        } else if index == HISTOGRAM_BUCKETS - 1 {
            (1u64 << (index - 1), u64::MAX)
        } else {
            (1u64 << (index - 1), (1u64 << index) - 1)
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = nanos(latency);
        self.counts[Self::bucket_index(ns)] += 1;
        self.samples += 1;
        self.total_nanos = self.total_nanos.saturating_add(ns);
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Sum of all recorded latencies in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// The non-empty buckets as `(lo_nanos, hi_nanos, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(i, &count)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, count)
            })
            .collect()
    }

    /// The non-empty buckets as a JSON array of `[lo_nanos, count]` pairs.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .buckets()
            .iter()
            .map(|(lo, _, count)| format!("[{lo}, {count}]"))
            .collect();
        format!("[{}]", cells.join(", "))
    }
}

/// The three latency histograms a solve reports: per kernel **launch**, per
/// solver **batch** (modelled wall time of one backend call) and per
/// **solve** (the whole device schedule). All modelled, hence deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveLatencies {
    /// Modelled duration of each kernel launch.
    pub launch: LatencyHistogram,
    /// Modelled wall time of each bounded batch.
    pub batch: LatencyHistogram,
    /// Modelled wall time of the whole device schedule (one sample).
    pub solve: LatencyHistogram,
}

impl SolveLatencies {
    /// The three histograms as a JSON object, indented by `indent`.
    pub fn to_json(&self, indent: &str) -> String {
        format!(
            "{{\n{indent}  \"launch\": {},\n{indent}  \"batch\": {},\n{indent}  \"solve\": {}\n{indent}}}",
            self.launch.to_json(),
            self.batch.to_json(),
            self.solve.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CostReport {
        CostReport {
            batches: 3,
            launches: 12,
            waves: 6,
            device_nodes: 900,
            host_nodes: 100,
            h2d_bytes: 40_000,
            d2h_bytes: 3_600,
            kernel_nanos: 500_000,
            transfer_nanos: 120_000,
            schedule_nanos: 550_000,
            host_op_cycles: 300_000,
            fleet_merge_cycles: 0,
            fleet_steals: 2,
            fleet_stolen_nodes: 64,
            fleet_idle_nanos: 7_500,
            fleet_failures: 1,
            fleet_redealt_nodes: 32,
            fleet_recovery_nanos: 4_200,
            serial_accesses: 9_000_000,
            cache_hits: 2,
            cache_warm_starts: 1,
            cache_invalidated_nodes: 17,
        }
    }

    #[test]
    fn cost_table_traces_every_cycle_charge_to_its_constant() {
        assert_eq!(
            CostTable::cycles(CostTable::HOST_OPS, 10),
            (10.0 * HOST_OPS_CYCLES_PER_NODE) as u64
        );
        assert_eq!(
            CostTable::cycles(CostTable::FLEET_MERGE, 10),
            (10.0 * crate::fleet::FLEET_MERGE_CYCLES_PER_NODE) as u64
        );
        for entry in CostTable::entries() {
            assert!(entry.cycles_per_unit > 0.0, "{}", entry.op);
            assert!(!entry.source.is_empty(), "{}", entry.op);
        }
    }

    #[test]
    #[should_panic(expected = "no cost-table entry")]
    fn unknown_operation_panics() {
        CostTable::cycles("warp-divergence", 1);
    }

    #[test]
    fn subtract_round_trips_and_zeroes_on_equality() {
        let a = sample_report();
        assert_eq!(a.subtract(&a), CostReport::default());
        let mut b = a;
        b.launches += 2;
        b.h2d_bytes += 64;
        let diff = b.subtract(&a);
        assert_eq!(diff.launches, 2);
        assert_eq!(diff.h2d_bytes, 64);
        assert_eq!(diff.batches, 0);
        // Saturating: the reverse direction clamps to zero instead of
        // wrapping.
        assert_eq!(a.subtract(&b).launches, 0);
    }

    #[test]
    fn record_backend_batch_accumulates_and_routes_through_the_table() {
        let mut report = CostReport::default();
        let acc = BackendAccounting {
            kernel_time: Duration::from_micros(100),
            transfer_time: Duration::from_micros(20),
            device_time: Duration::from_micros(110),
            upload_bytes: 1_000,
            download_bytes: 80,
            launches: 4,
            waves: 2,
            device_nodes: 20,
            merge_cycles: 0,
            steals: 1,
            stolen_nodes: 8,
            idle_time: Duration::from_micros(3),
        };
        report.record_backend_batch(&acc, 20, 5_000);
        assert_eq!(report.batches, 1);
        assert_eq!(report.launches, 4);
        assert_eq!(report.waves, 2);
        assert_eq!(report.device_nodes, 20);
        assert_eq!(report.host_nodes, 0);
        assert_eq!(report.fleet_steals, 1);
        assert_eq!(report.fleet_stolen_nodes, 8);
        assert_eq!(report.fleet_idle_nanos, 3_000);
        assert_eq!(report.kernel_nanos, 100_000);
        assert_eq!(report.schedule_nanos, 110_000);
        assert_eq!(
            report.host_op_cycles,
            CostTable::cycles(CostTable::HOST_OPS, 20)
        );
        assert_eq!(report.serial_accesses, 5_000);
        // An empty batch records nothing.
        report.record_backend_batch(&BackendAccounting::default(), 0, 0);
        assert_eq!(report.batches, 1);
    }

    #[test]
    fn offloading_rate_counts_host_fallback_nodes() {
        let mut report = sample_report();
        assert!((report.offloading_rate() - 0.9).abs() < 1e-12);
        report.record_host_bound(900);
        assert!((report.offloading_rate() - 900.0 / 1900.0).abs() < 1e-12);
        assert_eq!(CostReport::default().offloading_rate(), 0.0);
    }

    #[test]
    fn summary_derives_the_ratios() {
        let s = sample_report().summarize();
        assert!((s.offloading_rate - 0.9).abs() < 1e-12);
        assert!((s.launches_per_batch - 4.0).abs() < 1e-12);
        assert!((s.waves_per_launch - 0.5).abs() < 1e-12);
        assert!((s.kernel_seconds - 0.0005).abs() < 1e-15);
        assert!(!s.to_string().is_empty());
        // Empty report: no division by zero.
        let empty = CostReport::default().summarize();
        assert_eq!(empty.launches_per_batch, 0.0);
    }

    #[test]
    fn json_lists_every_counter_once() {
        let report = sample_report();
        let json = report.to_json("");
        for (name, value) in report.counters() {
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "{name} missing from {json}"
            );
        }
        assert_eq!(json.matches(':').count(), COST_COUNTERS);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // Zero gets its own bucket.
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_range(0), (0, 0));
        // Each bucket b ≥ 1 covers [2^(b−1), 2^b − 1]: both edges of every
        // boundary land where they must.
        for b in 1..=10 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(LatencyHistogram::bucket_index(lo), b, "lo edge of {b}");
            assert_eq!(LatencyHistogram::bucket_index(hi), b, "hi edge of {b}");
            assert_eq!(LatencyHistogram::bucket_index(hi + 1), b + 1);
            assert_eq!(LatencyHistogram::bucket_range(b), (lo, hi));
        }
        // The top bucket absorbs everything up to u64::MAX.
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(LatencyHistogram::bucket_range(64).1, u64::MAX);
    }

    #[test]
    fn histogram_records_and_reports_buckets() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1024));
        assert_eq!(h.samples(), 5);
        assert_eq!(h.total_nanos(), 1 + 3 + 3 + 1024);
        assert_eq!(
            h.buckets(),
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (1024, 2047, 1)]
        );
        assert_eq!(h.to_json(), "[[0, 1], [1, 1], [2, 2], [1024, 1]]");
        // Histograms with the same samples are equal (the gate can compare
        // them directly).
        let mut h2 = LatencyHistogram::default();
        for ns in [0, 1, 3, 3, 1024] {
            h2.record(Duration::from_nanos(ns));
        }
        assert_eq!(h, h2);
    }

    #[test]
    fn solve_latencies_serialize_all_three_histograms() {
        let mut lat = SolveLatencies::default();
        lat.launch.record(Duration::from_nanos(10));
        lat.batch.record(Duration::from_nanos(100));
        lat.solve.record(Duration::from_nanos(1000));
        let json = lat.to_json("  ");
        for key in ["\"launch\":", "\"batch\":", "\"solve\":"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }
}
