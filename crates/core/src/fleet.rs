//! Multi-device fleet bounding: partition each pool across several
//! simulated GPUs.
//!
//! The paper targets a *cluster* of GPU-accelerated nodes; everything in
//! this workspace so far drives exactly one simulated device. This module is
//! the first scaling step toward that cluster: a [`FleetBackend`] owns `N`
//! independent members — each a [`BoundingEngine`] with its own
//! [`gpu_sim::Device`] and independently-clocked timeline — splits every
//! batch into per-member shards, bounds the shards concurrently on the
//! model, and merges the bounds back in input order — so the rest of the
//! workspace (solver, auto-tuner, service, bench binaries) drives a fleet
//! through the very same [`BoundingBackend`] trait as a single card. The
//! fleet's shape is its [`FleetTopology`].
//!
//! **Weighted sharding** ([`plan_shards_weighted`]): the batch is cut into
//! wave-aligned chunks (the same granularity the pipelined backend launches
//! at; a batch below the smallest member wave into four equal deal quanta)
//! and each chunk is dealt to the member whose *modelled completion
//! time after taking it* — `(load + chunk) / weight` — is smallest, ties to
//! the lowest ordinal. Below one wave the deal quantum is not the launch: a
//! member launches a shard below its own wave whole, however many
//! quanta it holds, and a longer shard at the deal's chunk — the rule
//! [`crate::PipelinedGpuBackend`] launches a batch by. Weights start from
//! each member's [`MemberModel`]
//! (its standalone full-wave throughput, derived from the `DeviceSpec` and
//! the kernel cost model) but are re-quantized per batch by
//! [`launch_models`]: the fleet launches every member at the *shared* chunk
//! — the smallest member wave — and a sub-wave launch still pays a full
//! wave of issue on the wider card, so at deal granularity the useful
//! ratio between GPUs collapses from SMs × clock to the clock ratio alone.
//! A homogeneous fleet has equal weights, and the weighted deal then
//! reproduces the classic least-loaded deal exactly. When the batch has
//! fewer chunks than members, the chunk shrinks to `len / members`
//! (rounded down, min 1); members left without a range are trimmed from
//! the plan, so per-member stats never report phantom idle members. The
//! plan is a *partition*: every input index lands in exactly one shard,
//! which is what keeps fleet bounds bit-identical to any single-device
//! backend (each node's bound depends only on the node).
//!
//! **Deterministic work stealing** ([`steal_pass`]): with stealing enabled,
//! a second planning pass runs *before* any launch. As long as the member
//! models predict the latest-finishing member (the donor) to finish more
//! than one of the earliest member's (the thief's) own waves after it, the
//! surplus (sized at the crossing of the two wave-quantized completion
//! curves) is re-dealt from the donor's tail to the thief
//! — accepted only when the wave-quantized makespan strictly decreases, so
//! the pass terminates and a homogeneous fleet (completion gap at most one
//! chunk, i.e. at most one wave) never steals. The steal schedule is a pure
//! function of (batch length, member models, chunk), bounds and visited
//! node sets stay bit-identical, and the exact-equality cost gate applies
//! unchanged.
//!
//! **Stats aggregation**: kernel/transfer times and bytes sum over members
//! (total work), while the batch's modelled wall time is the **max** over
//! the per-member schedules plus a host-side merge cost
//! ([`FLEET_MERGE_CYCLES_PER_NODE`] cycles per bound) — the members run
//! concurrently, the merge does not. Per-member totals are kept in
//! [`FleetDeviceStats`] for reports, including the idle time each member
//! spends waiting at the merge barrier and the derived utilization.

use crate::backend::{
    device_wave, wave_chunk_for, BackendAccounting, BackendBatch, BoundingBackend,
};
use crate::config::{BackendKind, FleetTopology, GpuSolverConfig};
use crate::offload::{BoundingEngine, PipelineSession, PipelinedBatch};
use bb::{BatchView, Child, FspProblem};
use fsp::bound::counts::AccessCounts;
use fsp::{JohnsonLowerBound, Time};
use gpu_sim::{CostModel, Device, DeviceSpec, HostModel};
use std::sync::Arc;
use std::time::Duration;

/// Host cycles charged per bound merged back into input order (a branchy
/// scatter write per node; the devices overlap, the merge does not).
pub const FLEET_MERGE_CYCLES_PER_NODE: f64 = 4.0;

/// Equal parts the deal cuts a batch below the smallest member wave into
/// (before the deficit rule of [`effective_chunk`]): fine enough for the
/// weighted deal to favour a faster member. Each member still launches the
/// sub-wave shard it is dealt whole.
const SUB_WAVE_DEAL_PARTS: usize = 4;

/// The device specs a [`BackendKind::Fleet`] resolves to: `devices` Tesla
/// C2050s for the homogeneous fleet, or — with `hetero` — members
/// alternating between the paper's Tesla C2050 (even ordinals) and the
/// faster GeForce GTX 580 (odd ordinals).
pub fn fleet_member_specs(devices: usize, hetero: bool) -> Vec<DeviceSpec> {
    (0..devices)
        .map(|ordinal| {
            if hetero && ordinal % 2 == 1 {
                DeviceSpec::gtx_580()
            } else {
                DeviceSpec::tesla_c2050()
            }
        })
        .collect()
}

/// The planner's throughput model of one fleet member: a linear weight for
/// the deal and the wave quantization the steal pass schedules against.
/// Derived from the member's spec and the kernel/host cost models by
/// [`member_models`], and re-quantized per batch by [`launch_models`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberModel {
    /// Modelled throughput in nodes per second (only ratios matter for the
    /// deal).
    pub weight: f64,
    /// Nodes one full device wave bounds (`SMs × block threads`).
    pub wave_nodes: usize,
    /// Modelled seconds one full wave takes.
    pub wave_seconds: f64,
}

impl MemberModel {
    /// Modelled completion time of `nodes` nodes on this member,
    /// wave-quantized (`ceil(nodes / wave) × wave seconds`):
    /// partially-filled waves cost a full wave, which is exactly why linear
    /// equalization alone is not worth stealing for.
    pub fn completion_seconds(&self, nodes: usize) -> f64 {
        nodes.div_ceil(self.wave_nodes) as f64 * self.wave_seconds
    }
}

/// Derives every member's [`MemberModel`] from its device spec and the
/// calibrated kernel cost model, for an instance of `jobs × machines`: one
/// wave is `SMs × block threads` nodes and costs the divergence-scaled
/// issue cycles of its resident warps, so the weight is proportional to
/// `SMs × clock` — wave time is invariant to how full the wave is. These
/// are *standalone* full-wave figures; the fleet planner re-quantizes them
/// to the shared launch chunk with [`launch_models`] before dealing.
pub fn member_models(
    specs: &[DeviceSpec],
    config: &GpuSolverConfig,
    jobs: usize,
    machines: usize,
) -> Vec<MemberModel> {
    let cost = CostModel::default();
    // Expected accesses of one root-level bound — the planner's per-node
    // work unit (ratios between members are depth-independent).
    let accesses = AccessCounts::impl_expected(jobs, machines, jobs).total() as f64;
    specs
        .iter()
        .map(|spec| {
            let warps_per_block = config.block_threads.div_ceil(spec.warp_size.max(1));
            let issue_per_warp = cost.divergence_factor
                * (cost.alu_cycles_per_access * accesses + cost.fixed_cycles_per_thread);
            let wave_nodes = (spec.multiprocessors * config.block_threads).max(1);
            let wave_seconds = spec.cycles_to_seconds(warps_per_block as f64 * issue_per_warp);
            MemberModel {
                weight: wave_nodes as f64 / wave_seconds,
                wave_nodes,
                wave_seconds,
            }
        })
        .collect()
}

/// One member's share of a batch: which chunk ranges of the input it bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetShard {
    /// Ordinal of the member this shard is assigned to.
    pub device: usize,
    /// `(start, len)` chunk ranges into the input batch, in input order.
    pub ranges: Vec<(usize, usize)>,
}

impl FleetShard {
    /// Total nodes assigned to this member.
    pub fn nodes(&self) -> usize {
        self.ranges.iter().map(|&(_, len)| len).sum()
    }
}

/// The chunk granularity a batch of `len` nodes is sharded at: the requested
/// `chunk`, shrunk to `len / devices` (rounded **down**, min 1) whenever
/// wave-aligned cutting would produce fewer chunks than devices — the
/// deficit rule that keeps every device busy on batches too small for a full
/// wave each. Rounding down guarantees at least `devices` chunks whenever
/// `len ≥ devices` (rounding up would not: 9 nodes over 8 devices would cut
/// five 2-node chunks and idle three devices).
pub fn effective_chunk(len: usize, devices: usize, chunk: usize) -> usize {
    let chunk = chunk.max(1);
    if len.div_ceil(chunk) < devices {
        (len / devices).max(1)
    } else {
        chunk
    }
}

/// Plans the per-member shards of a batch of `len` nodes at chunk
/// granularity `chunk`, one weight per member: each chunk is dealt to the
/// member whose modelled completion time after taking it —
/// `(load + take) / weight` — is smallest, ties to the lowest ordinal.
/// Equal weights reduce to the classic least-loaded deal. Returns the
/// non-empty shards in ordinal order — members the batch is too small to
/// feed are trimmed, not reported as empty (an empty batch plans no
/// shards).
///
/// # Panics
///
/// Panics if `weights` is empty or contains a non-finite or non-positive
/// weight.
pub fn plan_shards_weighted(len: usize, weights: &[f64], chunk: usize) -> Vec<FleetShard> {
    assert!(!weights.is_empty(), "a fleet needs at least one device");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "fleet weights must be finite and positive: {weights:?}"
    );
    let devices = weights.len();
    let mut shards: Vec<FleetShard> = (0..devices)
        .map(|device| FleetShard {
            device,
            ranges: Vec::new(),
        })
        .collect();
    if len > 0 {
        let eff = effective_chunk(len, devices, chunk);
        let mut loads = vec![0usize; devices];
        let mut start = 0;
        while start < len {
            let take = eff.min(len - start);
            let mut device = 0;
            let mut best = f64::INFINITY;
            for (d, &w) in weights.iter().enumerate() {
                let finish = (loads[d] + take) as f64 / w;
                if finish < best {
                    best = finish;
                    device = d;
                }
            }
            shards[device].ranges.push((start, take));
            loads[device] += take;
            start += take;
        }
    }
    shards.retain(|s| !s.ranges.is_empty());
    shards
}

/// Plans the per-member shards of a batch of `len` nodes over `devices`
/// equally-weighted members at chunk granularity `chunk` (the classic
/// least-loaded deal; see [`plan_shards_weighted`] for the rules and the
/// trimming of members the batch cannot feed).
///
/// # Panics
///
/// Panics if `devices` is zero.
pub fn plan_shards(len: usize, devices: usize, chunk: usize) -> Vec<FleetShard> {
    assert!(devices > 0, "a fleet needs at least one device");
    plan_shards_weighted(len, &vec![1.0; devices], chunk)
}

/// Re-quantizes member models to the fleet's shared launch granularity:
/// the planner prices every shard as launched in chunks of `chunk` nodes
/// (a member launches a shard below its own wave whole, so there the price
/// is the deal quantum's, not the launch's), so one step of a member's
/// completion curve is one launch of `chunk` nodes costing
/// `ceil(chunk / wave) × wave_seconds` — a sub-wave launch still pays a
/// full wave of issue, and a member larger than the shared chunk runs it
/// below full occupancy. That is why the deal ratio between two GPUs at
/// fleet granularity is their *clock* ratio, not their `SMs × clock` ratio:
/// idle SMs do not speed up the launch. The returned models carry the
/// launch quantum in `wave_nodes`, the per-launch seconds in
/// `wave_seconds`, and the member's throughput at exactly that granularity
/// as `weight`.
pub fn launch_models(models: &[MemberModel], chunk: usize) -> Vec<MemberModel> {
    let chunk = chunk.max(1);
    models
        .iter()
        .map(|m| {
            let launch_seconds = chunk.div_ceil(m.wave_nodes) as f64 * m.wave_seconds;
            MemberModel {
                weight: chunk as f64 / launch_seconds,
                wave_nodes: chunk,
                wave_seconds: launch_seconds,
            }
        })
        .collect()
}

/// What the deterministic steal pass moved (zeros when the gate never
/// fired).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StealSummary {
    /// Accepted steal moves (donor → thief re-deals).
    pub steals: u64,
    /// Nodes those moves re-dealt.
    pub stolen_nodes: u64,
}

/// Takes `want` nodes off the tail of `donor`'s ranges, splitting the
/// boundary range when needed; returns the taken ranges in input order.
fn take_tail(donor: &mut FleetShard, mut want: usize) -> Vec<(usize, usize)> {
    let mut taken = Vec::new();
    while want > 0 {
        let (start, len) = donor
            .ranges
            .pop()
            .expect("steal pass never takes more than the donor's load");
        if len <= want {
            taken.push((start, len));
            want -= len;
        } else {
            donor.ranges.push((start, len - want));
            taken.push((start + len - want, want));
            want = 0;
        }
    }
    taken.reverse();
    taken
}

/// The deterministic pre-launch steal pass: while the member models predict
/// the latest member (the donor) to finish more than one of the earliest
/// member's (the thief's) own waves after it, surplus nodes are re-dealt
/// from the donor's tail ranges to the thief. The move size is found by a
/// binary search for the crossing of the two wave-quantized completion
/// curves (the smallest transfer after which the donor no longer finishes
/// later than the thief), preferring the smaller of the two candidates
/// around the crossing when their makespans tie; each move is accepted only
/// when the fleet-wide quantized makespan strictly decreases, which both
/// guarantees termination and keeps sub-wave reshuffles (which cost a full
/// extra wave on the thief but save none on the donor) from ever firing.
/// Ties pick the lowest ordinal on both sides. A homogeneous fleet never
/// steals: the deal leaves completion gaps of at most one chunk, i.e. at
/// most one wave.
///
/// Runs entirely before any launch on (shards, models) — a pure function —
/// so bounds and visited node sets are untouched and the exact-equality
/// cost gate applies unchanged. `shards` is updated in place (kept trimmed,
/// in ordinal order, each shard's ranges in input order).
pub fn steal_pass(shards: &mut Vec<FleetShard>, models: &[MemberModel]) -> StealSummary {
    let mut summary = StealSummary::default();
    let mut loads = vec![0usize; models.len()];
    for shard in shards.iter() {
        loads[shard.device] = shard.nodes();
    }
    // Strictly-decreasing makespan bounds the loop; the explicit cap only
    // guards against float pathologies and is never hit in practice.
    for _ in 0..1024 {
        let f: Vec<f64> = models
            .iter()
            .zip(&loads)
            .map(|(m, &l)| m.completion_seconds(l))
            .collect();
        let donor = (0..models.len())
            .max_by(|&a, &b| f[a].partial_cmp(&f[b]).unwrap().then(b.cmp(&a)))
            .expect("at least one member");
        let thief = (0..models.len())
            .min_by(|&a, &b| f[a].partial_cmp(&f[b]).unwrap().then(a.cmp(&b)))
            .expect("at least one member");
        if donor == thief || loads[donor] == 0 {
            break;
        }
        // Gate: the thief must be predicted to finish at least one of its
        // own full waves before the donor.
        if f[donor] - f[thief] <= models[thief].wave_seconds {
            break;
        }
        // Crossing search: the smallest move after which the donor no
        // longer finishes later than the thief (f_donor is decreasing and
        // f_thief increasing in the move size, so this is the balance
        // point); when the candidate one below ties on the pair's local
        // makespan, move fewer nodes.
        let (l_d, l_t) = (loads[donor], loads[thief]);
        let pair_makespan = |x: usize| {
            models[donor]
                .completion_seconds(l_d - x)
                .max(models[thief].completion_seconds(l_t + x))
        };
        let (mut lo, mut hi) = (1usize, l_d);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if models[donor].completion_seconds(l_d - mid)
                <= models[thief].completion_seconds(l_t + mid)
            {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let x = if lo > 1 && pair_makespan(lo - 1) <= pair_makespan(lo) {
            lo - 1
        } else {
            lo
        };
        let old_makespan = f.iter().cloned().fold(0.0f64, f64::max);
        let new_makespan = (0..models.len())
            .map(|d| {
                let load = if d == donor {
                    loads[d] - x
                } else if d == thief {
                    loads[d] + x
                } else {
                    loads[d]
                };
                models[d].completion_seconds(load)
            })
            .fold(0.0f64, f64::max);
        if new_makespan >= old_makespan {
            break;
        }
        let taken = {
            let donor_shard = shards
                .iter_mut()
                .find(|s| s.device == donor)
                .expect("donor has a shard");
            take_tail(donor_shard, x)
        };
        match shards.iter_mut().find(|s| s.device == thief) {
            Some(shard) => {
                shard.ranges.extend(taken);
                shard.ranges.sort_unstable_by_key(|&(start, _)| start);
            }
            None => shards.push(FleetShard {
                device: thief,
                ranges: taken,
            }),
        }
        loads[donor] -= x;
        loads[thief] += x;
        summary.steals += 1;
        summary.stolen_nodes += x as u64;
    }
    shards.retain(|s| !s.ranges.is_empty());
    shards.sort_unstable_by_key(|s| s.device);
    summary
}

/// Accumulated per-member accounting of a [`FleetBackend`], for reports and
/// scaling analyses.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetDeviceStats {
    /// Member ordinal (matches [`gpu_sim::Device::ordinal`]).
    pub ordinal: usize,
    /// Batches in which this member received a non-empty shard.
    pub batches: u64,
    /// Nodes this member bounded.
    pub nodes_bounded: u64,
    /// Summed kernel time of this member's launches.
    pub kernel_time: Duration,
    /// Summed PCIe transfer time of this member's copies.
    pub transfer_time: Duration,
    /// Modelled wall time of this member's schedule (summed critical-path
    /// increments of its session, or standalone schedules without one).
    pub device_time: Duration,
    /// Kernel launches (pipeline chunks) on this member.
    pub launches: u64,
    /// Modelled time this member spent waiting at the merge barrier: per
    /// batch it took part in, the gap between its own critical path and the
    /// slowest member's. Batches that trimmed this member out count neither
    /// busy nor idle time.
    pub idle_time: Duration,
}

impl FleetDeviceStats {
    /// Share of this member's scheduled time it spent bounding rather than
    /// waiting at the merge barrier: `busy / (busy + idle)` (zero before the
    /// member did any work).
    pub fn utilization(&self) -> f64 {
        let busy = self.device_time.as_secs_f64();
        let total = busy + self.idle_time.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            busy / total
        }
    }
}

/// One fleet member: its engine, its persistent cross-iteration session
/// (under [`GpuSolverConfig::lookahead`] on a pipelined fleet), and a
/// reusable gather buffer for a shard of the current batch that spans
/// several ranges. A shard is a range of the batch's `(parent, job)`
/// entries, so gathering copies 8-byte entries, never nodes; the buffer is
/// emptied once the shard is bounded.
struct FleetMember {
    engine: BoundingEngine,
    session: Option<PipelineSession>,
    gather: Vec<Child>,
}

/// A fleet of simulated devices behind the [`BoundingBackend`] trait: every
/// batch is partitioned by [`plan_shards_weighted`] (optionally rebalanced
/// by [`steal_pass`]), each shard rides its own member (stream-pipelined
/// when the topology is pipelined, one launch per shard otherwise), and the
/// bounds are merged back in input order.
pub struct FleetBackend {
    members: Vec<FleetMember>,
    models: Vec<MemberModel>,
    topology: FleetTopology,
    host_lb: Arc<JohnsonLowerBound>,
    fast_forward: bool,
    chunk_override: Option<usize>,
    host: HostModel,
    stats: Vec<FleetDeviceStats>,
}

impl FleetBackend {
    /// Creates the fleet `topology` describes, each member's engine sized
    /// for batches of up to `capacity` nodes: one simulated GPU per device
    /// ([`fleet_member_specs`]), dealt by the weighted deal over the member
    /// models, stream-pipelined or one launch per shard as the topology
    /// says, with the deterministic steal pass when it is stealing.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no devices.
    pub fn new(
        problem: &FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        capacity: usize,
        topology: FleetTopology,
    ) -> Self {
        assert!(topology.devices > 0, "a fleet needs at least one device");
        let inst = problem.instance();
        let specs = fleet_member_specs(topology.devices, topology.is_hetero());
        let models = member_models(&specs, config, inst.jobs(), inst.machines());
        let data = problem.bound_fn().data();
        let members = specs
            .into_iter()
            .enumerate()
            .map(|(ordinal, spec)| {
                let engine = BoundingEngine::on_device(
                    Device::new(spec).with_ordinal(ordinal),
                    data,
                    config.placement.clone(),
                    config.block_threads,
                    config.registers_per_thread,
                    capacity,
                );
                let session = (topology.is_pipelined() && config.lookahead)
                    .then(|| engine.pipeline_session());
                FleetMember {
                    engine,
                    session,
                    gather: Vec::new(),
                }
            })
            .collect();
        let stats = (0..topology.devices)
            .map(|ordinal| FleetDeviceStats {
                ordinal,
                ..Default::default()
            })
            .collect();
        Self {
            members,
            models,
            topology,
            host_lb: problem.bound_fn().clone(),
            fast_forward: config.fast_forward,
            chunk_override: config.pipeline_chunk,
            host: HostModel::default(),
            stats,
        }
    }

    /// Number of members in the fleet.
    pub fn devices(&self) -> usize {
        self.members.len()
    }

    /// `true` when each member runs the stream-overlapped pipeline.
    pub fn is_pipelined(&self) -> bool {
        self.topology.is_pipelined()
    }

    /// `true` when the deterministic steal pass rebalances each plan.
    pub fn is_stealing(&self) -> bool {
        self.topology.is_stealing()
    }

    /// The planner's standalone throughput model of every member, in
    /// ordinal order (before the per-batch [`launch_models`]
    /// re-quantization).
    pub fn member_models(&self) -> &[MemberModel] {
        &self.models
    }

    /// Accumulated per-member accounting, in ordinal order.
    pub fn device_stats(&self) -> &[FleetDeviceStats] {
        &self.stats
    }

    /// Modelled host time to merge `nodes` bounds back into input order.
    pub fn merge_time(&self, nodes: usize) -> Duration {
        Duration::from_secs_f64(nodes as f64 * FLEET_MERGE_CYCLES_PER_NODE / self.host.clock_hz)
    }

    /// The deal quantum for a batch of `len` nodes, before the deficit rule
    /// of [`effective_chunk`]: an explicit
    /// [`GpuSolverConfig::pipeline_chunk`] clamped to the smallest member
    /// capacity; otherwise the **smallest** member wave when the batch
    /// fills it, [`SUB_WAVE_DEAL_PARTS`] equal parts below it. Taking the
    /// minimum over the member *waves* first (rather than over per-member
    /// choices) keeps a larger member's sub-wave rule from shrinking the
    /// quantum below one full wave of the smallest device. Below one member
    /// wave the quantum is only the deal's: the member launches its whole
    /// shard ([`wave_chunk_for`]).
    fn chunk_for(&self, len: usize) -> usize {
        let wave = self
            .members
            .iter()
            .map(|member| device_wave(&member.engine))
            .min()
            .expect("a fleet has members");
        match self.chunk_override {
            Some(chunk) => chunk.clamp(1, self.max_batch().expect("a fleet has members")),
            None if len >= wave => wave,
            None => len.div_ceil(SUB_WAVE_DEAL_PARTS).max(1),
        }
    }
}

impl BoundingBackend for FleetBackend {
    fn name(&self) -> &'static str {
        self.topology.name()
    }

    /// Fast-forward members bound against `cutoff`; functional-kernel
    /// members return exact bounds.
    fn bound_view(&mut self, batch: BatchView<'_>, cutoff: Time) -> BackendBatch {
        if batch.is_empty() {
            return BackendBatch {
                bounds: Vec::new(),
                accounting: BackendAccounting::default(),
                launch_times: Vec::new(),
            };
        }
        let chunk = self.chunk_for(batch.len());
        let eff = effective_chunk(batch.len(), self.members.len(), chunk);
        // Plan against the models re-quantized to this batch's launch
        // granularity.
        let planning = launch_models(&self.models, eff);
        let weights: Vec<f64> = planning.iter().map(|m| m.weight).collect();
        let mut shards = plan_shards_weighted(batch.len(), &weights, chunk);
        let steal = if self.is_stealing() {
            steal_pass(&mut shards, &planning)
        } else {
            StealSummary::default()
        };

        let mut bounds = vec![Time::default(); batch.len()];
        let mut acc = BackendAccounting::default();
        let mut launch_times = Vec::new();
        let mut critical_paths: Vec<(usize, Duration)> = Vec::with_capacity(shards.len());
        for shard in &shards {
            let member = &mut self.members[shard.device];
            // A shard of one range is a slice of the batch; a split or
            // stolen shard's entries are gathered contiguously first. A
            // shard below the member's wave is one launch; a longer one
            // launches at the granularity the plan was cut at, `eff`.
            let shard_view = match shard.ranges[..] {
                [(start, len)] => batch.slice(start..start + len),
                _ => {
                    for &(start, len) in &shard.ranges {
                        member
                            .gather
                            .extend_from_slice(&batch.children()[start..start + len]);
                    }
                    BatchView::new(batch.parents(), &member.gather)
                }
            };
            let host = self.fast_forward.then_some((self.host_lb.as_ref(), cutoff));
            let engine = &mut member.engine;
            let result: PipelinedBatch = if self.topology.is_pipelined() {
                let chunk = wave_chunk_for(engine, self.chunk_override, eff, shard.nodes());
                match &mut member.session {
                    Some(session) => {
                        engine.bound_nodes_pipelined_in(shard_view, chunk, host, session)
                    }
                    None => {
                        let r = engine.bound_nodes_pipelined(shard_view, chunk, host);
                        PipelinedBatch {
                            bounds: r.bounds,
                            kernel_time: r.kernel_time,
                            transfer_time: r.transfer_time,
                            critical_path: r.overlapped_time,
                            upload_bytes: r.upload_bytes,
                            download_bytes: r.download_bytes,
                            chunks: r.chunks,
                            waves: r.waves,
                            launch_times: r.launch_times,
                        }
                    }
                }
            } else {
                let r = match host {
                    Some((lb, cutoff)) => engine.bound_nodes_fast(shard_view, lb, cutoff),
                    None => engine.bound_nodes(shard_view),
                };
                let shard_waves = engine.device().spec().waves(r.stats.grid_blocks) as u64;
                PipelinedBatch {
                    critical_path: r.device_time(),
                    kernel_time: r.kernel.duration,
                    transfer_time: r.transfer_time,
                    upload_bytes: r.upload_bytes,
                    download_bytes: r.download_bytes,
                    chunks: 1,
                    waves: shard_waves,
                    launch_times: vec![r.kernel.duration],
                    bounds: r.bounds,
                }
            };

            member.gather.clear();

            // Scatter the shard's bounds back to their input positions.
            let mut cursor = 0;
            for &(start, len) in &shard.ranges {
                bounds[start..start + len].copy_from_slice(&result.bounds[cursor..cursor + len]);
                cursor += len;
            }

            let stats = &mut self.stats[shard.device];
            stats.batches += 1;
            stats.nodes_bounded += shard.nodes() as u64;
            stats.kernel_time += result.kernel_time;
            stats.transfer_time += result.transfer_time;
            stats.device_time += result.critical_path;
            stats.launches += result.chunks as u64;

            acc.kernel_time += result.kernel_time;
            acc.transfer_time += result.transfer_time;
            acc.upload_bytes += result.upload_bytes as u64;
            acc.download_bytes += result.download_bytes as u64;
            acc.launches += result.chunks as u64;
            acc.waves += result.waves;
            acc.device_nodes += shard.nodes() as u64;
            launch_times.extend(result.launch_times);
            critical_paths.push((shard.device, result.critical_path));
        }
        // The members run concurrently: the batch's modelled wall time is
        // the slowest member's schedule plus the (serial) host-side merge,
        // and every faster member idles at the merge barrier for the gap.
        let slowest = critical_paths
            .iter()
            .map(|&(_, t)| t)
            .max()
            .unwrap_or_default();
        for &(ordinal, path) in &critical_paths {
            let idle = slowest - path;
            self.stats[ordinal].idle_time += idle;
            acc.idle_time += idle;
        }
        acc.steals = steal.steals;
        acc.stolen_nodes = steal.stolen_nodes;
        acc.device_time = slowest + self.merge_time(batch.len());
        acc.merge_cycles =
            crate::cost::CostTable::cycles(crate::cost::CostTable::FLEET_MERGE, batch.len() as u64);
        BackendBatch {
            bounds,
            accounting: acc,
            launch_times,
        }
    }

    fn max_batch(&self) -> Option<usize> {
        self.members
            .iter()
            .map(|member| member.engine.max_pool())
            .min()
    }
}

/// Normalized per-member weight shares of a fleet kind (summing to 1.0),
/// for reports: the spec-derived member models re-quantized to the shared
/// launch chunk. `None` for non-fleet kinds.
pub fn fleet_weight_shares(
    kind: BackendKind,
    config: &GpuSolverConfig,
    jobs: usize,
    machines: usize,
) -> Option<Vec<f64>> {
    let BackendKind::Fleet(topology) = kind else {
        return None;
    };
    let specs = fleet_member_specs(topology.devices, topology.is_hetero());
    let standalone = member_models(&specs, config, jobs, machines);
    // Shares reflect the deal the fleet actually runs: models re-quantized
    // to the shared launch chunk (the smallest member wave).
    let chunk = standalone.iter().map(|m| m.wave_nodes).min().unwrap_or(1);
    let models = launch_models(&standalone, chunk);
    let total: f64 = models.iter().map(|m| m.weight).sum();
    Some(models.iter().map(|m| m.weight / total).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, PipelinedGpuBackend};
    use crate::placement::DataPlacement;
    use bb::{frozen_pool, FspNode};
    use fsp::taillard::generate;

    fn fixture(pool: usize) -> (FspProblem<JohnsonLowerBound>, Vec<FspNode>, GpuSolverConfig) {
        let inst = generate("t", 12, 6, 2012);
        let problem = FspProblem::new(inst);
        let nodes = frozen_pool(&problem, pool).nodes;
        let config = GpuSolverConfig {
            pool_size: pool,
            placement: DataPlacement::SharedJmPtm,
            ..Default::default()
        };
        (problem, nodes, config)
    }

    /// Like [`fixture`], but on an instance big enough that the frozen
    /// pool actually reaches device-wave sizes (the 12×6 tree exhausts
    /// first).
    fn wave_fixture(pool: usize) -> (FspProblem<JohnsonLowerBound>, Vec<FspNode>, GpuSolverConfig) {
        let inst = generate("t", 14, 8, 2012);
        let problem = FspProblem::new(inst);
        let nodes = frozen_pool(&problem, pool).nodes;
        let config = GpuSolverConfig {
            pool_size: pool,
            placement: DataPlacement::SharedJmPtm,
            ..Default::default()
        };
        (problem, nodes, config)
    }

    fn assert_is_partition(len: usize, shards: &[FleetShard]) {
        let mut seen = vec![0usize; len];
        for shard in shards {
            for &(start, range_len) in &shard.ranges {
                for slot in &mut seen[start..start + range_len] {
                    *slot += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&count| count == 1),
            "every input index must be covered exactly once"
        );
    }

    #[test]
    fn shard_plan_partitions_and_balances() {
        // 10 chunks of 8 over 4 devices: round-robin with the two extra
        // chunks landing on the least-loaded devices.
        let shards = plan_shards(80, 4, 8);
        assert_is_partition(80, &shards);
        let loads: Vec<usize> = shards.iter().map(FleetShard::nodes).collect();
        assert_eq!(loads, vec![24, 24, 16, 16]);
    }

    #[test]
    fn ragged_tails_go_to_the_deficit_device() {
        // Chunks [8, 8, 8, 3]: the short tail lands on the device with the
        // least load (device 0 after one full round), not on a fresh device.
        let shards = plan_shards(27, 3, 8);
        assert_is_partition(27, &shards);
        assert_eq!(shards[0].ranges, vec![(0, 8), (24, 3)]);
        assert_eq!(shards[1].ranges, vec![(8, 8)]);
        assert_eq!(shards[2].ranges, vec![(16, 8)]);
    }

    #[test]
    fn small_batches_shrink_the_chunk_so_no_device_idles() {
        // A wave-sized chunk would give 4 devices only 2 chunks; the deficit
        // rule shrinks to len/devices so every device gets work.
        assert_eq!(effective_chunk(100, 4, 64), 25);
        let shards = plan_shards(100, 4, 64);
        assert_is_partition(100, &shards);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| !s.ranges.is_empty()));
        // With enough chunks the requested granularity is kept.
        assert_eq!(effective_chunk(1000, 4, 64), 64);
    }

    #[test]
    fn shrunk_chunks_round_down_so_every_device_still_works() {
        // Regression: ceil(9/8) = 2 would cut five 2-node chunks and idle
        // three of the eight devices; flooring to 1 keeps all eight busy.
        assert_eq!(effective_chunk(9, 8, 2), 1);
        for (len, devices, chunk) in [(9, 8, 2), (5, 4, 8), (13, 6, 4)] {
            let shards = plan_shards(len, devices, chunk);
            assert_is_partition(len, &shards);
            assert_eq!(shards.len(), devices);
            assert!(
                shards.iter().all(|s| s.nodes() > 0),
                "{len} nodes over {devices} devices (chunk {chunk}) idled a device"
            );
        }
    }

    #[test]
    fn fewer_nodes_than_devices_trims_the_tail_devices() {
        // 2 nodes over 4 devices: the plan has exactly 2 shards — the
        // members the batch cannot feed are trimmed, not reported as empty
        // (phantom idle members would skew the utilization counters).
        let shards = plan_shards(2, 4, 8);
        assert_is_partition(2, &shards);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].device, 0);
        assert_eq!(shards[1].device, 1);
        assert!(shards.iter().all(|s| s.nodes() == 1));
    }

    #[test]
    fn empty_batch_plans_no_shards() {
        assert_eq!(plan_shards(0, 3, 8), Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_device_plan_panics() {
        plan_shards(10, 0, 4);
    }

    #[test]
    fn uniform_weights_reproduce_the_least_loaded_deal() {
        for (len, devices, chunk) in [(80, 4, 8), (27, 3, 8), (100, 4, 64), (9, 8, 2), (2, 4, 8)] {
            let classic = plan_shards(len, devices, chunk);
            let weighted = plan_shards_weighted(len, &vec![3.5; devices], chunk);
            assert_eq!(
                classic, weighted,
                "{len} nodes over {devices} devices (chunk {chunk})"
            );
        }
    }

    #[test]
    fn weighted_deal_tracks_the_throughput_ratio() {
        // A 3:1 weight split over unit chunks: the fast member ends with
        // three times the slow member's load (±1 chunk of greedy rounding).
        let shards = plan_shards_weighted(80, &[3.0, 1.0], 1);
        assert_is_partition(80, &shards);
        let loads: Vec<usize> = shards.iter().map(FleetShard::nodes).collect();
        assert_eq!(loads, vec![60, 20]);
        // Ties break to the lowest ordinal, so equal weights still start at
        // member 0.
        let first = &plan_shards_weighted(8, &[1.0, 1.0], 4)[0];
        assert_eq!(first.device, 0);
        assert_eq!(first.ranges, vec![(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_weights_panic() {
        plan_shards_weighted(8, &[1.0, 0.0], 4);
    }

    #[test]
    fn steal_pass_moves_the_completion_crossing_surplus() {
        // Equal 16/16 loads on a fast (1 s/wave) and a slow (3 s/wave)
        // member, 4-node waves: the slow member is predicted to finish 8 s
        // late (> 1 thief wave), so the pass re-deals its surplus — the
        // crossing search moves 8 nodes and the quantized makespan drops
        // 12 s → 6 s, after which the gap is gone and the pass stops.
        let models = [
            MemberModel {
                weight: 4.0,
                wave_nodes: 4,
                wave_seconds: 1.0,
            },
            MemberModel {
                weight: 4.0 / 3.0,
                wave_nodes: 4,
                wave_seconds: 3.0,
            },
        ];
        let mut shards = vec![
            FleetShard {
                device: 0,
                ranges: vec![(0, 16)],
            },
            FleetShard {
                device: 1,
                ranges: vec![(16, 16)],
            },
        ];
        let summary = steal_pass(&mut shards, &models);
        assert_eq!(summary.steals, 1);
        assert_eq!(summary.stolen_nodes, 8);
        assert_is_partition(32, &shards);
        assert_eq!(shards[0].nodes(), 24);
        assert_eq!(shards[1].nodes(), 8);
        // The stolen tail range keeps input order on the thief.
        assert_eq!(shards[0].ranges, vec![(0, 16), (24, 8)]);
        assert_eq!(shards[1].ranges, vec![(16, 8)]);
    }

    #[test]
    fn steal_pass_never_fires_on_a_homogeneous_fleet() {
        // The least-loaded deal leaves completion gaps of at most one chunk
        // (one wave), below the full-wave gate — for any batch size.
        let model = MemberModel {
            weight: 8.0,
            wave_nodes: 8,
            wave_seconds: 1.0,
        };
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 200] {
            let mut shards = plan_shards(len, 3, 8);
            let before = shards.clone();
            let summary = steal_pass(&mut shards, &[model, model, model]);
            assert_eq!(summary, StealSummary::default(), "{len} nodes");
            assert_eq!(shards, before, "{len} nodes");
        }
    }

    #[test]
    fn steal_pass_gates_on_a_full_wave_gap() {
        // The donor finishes exactly one thief-wave late — not *more* than
        // one — so the gate rejects the steal: moving nodes could only
        // shift which member pays the partial wave, never shrink the
        // makespan.
        let models = [
            MemberModel {
                weight: 8.0,
                wave_nodes: 8,
                wave_seconds: 1.0,
            },
            MemberModel {
                weight: 8.0,
                wave_nodes: 8,
                wave_seconds: 1.0,
            },
        ];
        let mut shards = vec![
            FleetShard {
                device: 0,
                ranges: vec![(0, 4)],
            },
            FleetShard {
                device: 1,
                ranges: vec![(4, 12)],
            },
        ];
        let before = shards.clone();
        let summary = steal_pass(&mut shards, &models);
        assert_eq!(summary, StealSummary::default());
        assert_eq!(shards, before);
    }

    #[test]
    fn member_models_rank_the_gtx_above_the_c2050() {
        let (_, _, config) = fixture(16);
        let models = member_models(&fleet_member_specs(2, true), &config, 20, 20);
        assert!(
            models[1].weight > models[0].weight,
            "GTX must out-weigh C2050"
        );
        // Wave throughput is ∝ SMs × clock (wave time is warp-issue bound
        // and invariant to how full the wave is).
        let ratio = models[1].weight / models[0].weight;
        let expected = (16.0 * 1.544e9) / (14.0 * 1.15e9);
        assert!((ratio - expected).abs() < 1e-9, "{ratio} vs {expected}");
    }

    #[test]
    fn fleet_bounds_match_the_single_device_backend_bit_for_bit() {
        let (problem, nodes, config) = fixture(96);
        let reference = PipelinedGpuBackend::new(&problem, &config, nodes.len())
            .bound_batch(&nodes)
            .bounds;
        for devices in [1, 2, 3, 4] {
            for pipelined in [false, true] {
                let topology = FleetTopology::uniform(devices);
                let topology = if pipelined {
                    topology
                } else {
                    topology.one_launch()
                };
                let mut fleet = FleetBackend::new(&problem, &config, nodes.len(), topology);
                let batch = fleet.bound_batch(&nodes);
                assert_eq!(
                    batch.bounds, reference,
                    "{devices} devices, pipelined={pipelined}"
                );
            }
        }
    }

    #[test]
    fn hetero_members_bound_bit_for_bit() {
        let (problem, nodes, config) = fixture(96);
        let reference = PipelinedGpuBackend::new(&problem, &config, nodes.len())
            .bound_batch(&nodes)
            .bounds;
        for devices in [2, 3] {
            for stealing in [false, true] {
                let topology = FleetTopology::uniform(devices).mixed();
                let topology = if stealing {
                    topology.stealing()
                } else {
                    topology
                };
                let mut fleet = FleetBackend::new(&problem, &config, nodes.len(), topology);
                let batch = fleet.bound_batch(&nodes);
                assert_eq!(batch.bounds, reference, "{topology}");
            }
        }
    }

    #[test]
    fn hetero_fleet_undercuts_the_equal_deal_on_full_waves() {
        // A full-device batch (one C2050 wave is 3584 nodes at 256
        // threads/block): the weighted deal hands the big chunk to the GTX
        // — whose kernel is strictly faster at the same transfer — and the
        // C2050 keeps the small tail, so the modelled max-over-members time
        // strictly undercuts the equal deal of two C2050s on the same
        // nodes, with bit-identical bounds.
        let (problem, nodes, base) = wave_fixture(4096);
        assert!(nodes.len() >= 4096, "fixture must fill a device wave");
        let config = GpuSolverConfig {
            fast_forward: true,
            ..base
        };
        let mut homo = FleetBackend::new(&problem, &config, nodes.len(), FleetTopology::uniform(2));
        let mut hetero = FleetBackend::new(
            &problem,
            &config,
            nodes.len(),
            FleetTopology::uniform(2).mixed(),
        );
        assert_eq!(hetero.name(), "fleet-hetero");
        let homo_batch = homo.bound_batch(&nodes);
        let hetero_batch = hetero.bound_batch(&nodes);
        assert_eq!(homo_batch.bounds, hetero_batch.bounds);
        // The GTX member (odd ordinal) takes the larger share of the deal.
        let stats = hetero.device_stats();
        assert!(
            stats[1].nodes_bounded > stats[0].nodes_bounded,
            "the faster member must take the bigger shard: {stats:?}"
        );
        assert!(
            hetero_batch.accounting.device_time < homo_batch.accounting.device_time,
            "hetero {:?} must strictly undercut the equal deal {:?}",
            hetero_batch.accounting.device_time,
            homo_batch.accounting.device_time
        );
    }

    #[test]
    fn two_devices_undercut_one_on_the_modelled_schedule() {
        let (problem, nodes, config) = fixture(128);
        let device_time = |devices: usize| {
            FleetBackend::new(
                &problem,
                &config,
                nodes.len(),
                FleetTopology::uniform(devices),
            )
            .bound_batch(&nodes)
            .accounting
            .device_time
        };
        let one = device_time(1);
        let two = device_time(2);
        assert!(
            two < one,
            "2-device fleet {two:?} must beat the single device {one:?}"
        );
    }

    #[test]
    fn fleet_accounting_sums_work_and_maxes_schedules() {
        let (problem, nodes, config) = fixture(128);
        let mut fleet =
            FleetBackend::new(&problem, &config, nodes.len(), FleetTopology::uniform(2));
        let acc = fleet.bound_batch(&nodes).accounting;
        // Each member is dealt several ranges, gathered contiguously; the
        // copies are dropped once each shard is bounded.
        assert!(fleet.members.iter().all(|m| m.gather.is_empty()));
        let stats = fleet.device_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.nodes_bounded > 0));
        assert_eq!(
            stats.iter().map(|s| s.nodes_bounded).sum::<u64>(),
            nodes.len() as u64
        );
        assert_eq!(acc.kernel_time, stats.iter().map(|s| s.kernel_time).sum());
        assert_eq!(acc.launches, stats.iter().map(|s| s.launches).sum());
        let slowest = stats.iter().map(|s| s.device_time).max().unwrap();
        assert_eq!(
            acc.device_time,
            slowest + fleet.merge_time(nodes.len()),
            "batch wall time = slowest device + merge"
        );
        // The faster member's barrier wait is exactly the schedule gap.
        assert_eq!(acc.idle_time, stats.iter().map(|s| s.idle_time).sum());
        let fastest = stats.iter().map(|s| s.device_time).min().unwrap();
        assert_eq!(acc.idle_time, slowest - fastest);
        assert!(stats.iter().any(|s| s.utilization() == 1.0));
        assert!(fleet.merge_time(nodes.len()) > Duration::ZERO);
        assert_eq!(acc.steals, 0, "no stealing unless enabled");
    }

    #[test]
    fn single_device_fleet_matches_the_pipelined_backend_schedule() {
        // A fleet of one is the pipelined backend plus the merge cost — the
        // partition is the identity, so per-batch schedules agree exactly.
        let (problem, nodes, config) = fixture(96);
        let single = PipelinedGpuBackend::new(&problem, &config, nodes.len()).bound_batch(&nodes);
        let mut fleet =
            FleetBackend::new(&problem, &config, nodes.len(), FleetTopology::uniform(1));
        let batch = fleet.bound_batch(&nodes);
        assert_eq!(batch.bounds, single.bounds);
        assert_eq!(batch.accounting.kernel_time, single.accounting.kernel_time);
        assert_eq!(
            batch.accounting.device_time,
            single.accounting.device_time + fleet.merge_time(nodes.len())
        );
    }

    #[test]
    fn empty_batch_is_a_free_no_op() {
        let (problem, _, config) = fixture(16);
        let mut fleet = FleetBackend::new(&problem, &config, 16, FleetTopology::uniform(3));
        let batch = fleet.bound_batch(&[]);
        assert!(batch.bounds.is_empty());
        assert_eq!(batch.accounting.device_time, Duration::ZERO);
        assert_eq!(batch.accounting.launches, 0);
    }

    #[test]
    fn make_backend_builds_fleets_from_the_config() {
        let (problem, nodes, base) = fixture(64);
        for (hetero, stealing, name) in [
            (false, false, "fleet"),
            (true, false, "fleet-hetero"),
            (false, true, "fleet-steal"),
            (true, true, "fleet-hetero-steal"),
        ] {
            let mut topology = FleetTopology::uniform(3);
            if hetero {
                topology = topology.mixed();
            }
            if stealing {
                topology = topology.stealing();
            }
            let config = GpuSolverConfig {
                backend: BackendKind::Fleet(topology),
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, nodes.len());
            assert_eq!(backend.name(), name);
            let batch = backend.bound_batch(&nodes);
            assert_eq!(batch.bounds.len(), nodes.len());
        }
    }

    #[test]
    fn fleet_weight_shares_normalize_the_launch_models() {
        let (_, _, config) = fixture(16);
        let kind = |hetero: bool| {
            let topology = FleetTopology::uniform(2);
            BackendKind::Fleet(if hetero { topology.mixed() } else { topology })
        };
        assert_eq!(fleet_weight_shares(BackendKind::Gpu, &config, 20, 20), None);
        let equal = fleet_weight_shares(kind(false), &config, 20, 20).unwrap();
        assert_eq!(equal, vec![0.5, 0.5]);
        let hetero = fleet_weight_shares(kind(true), &config, 20, 20).unwrap();
        assert!(
            hetero[1] > hetero[0],
            "the GTX member takes the bigger share"
        );
        assert!((hetero.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookahead_fleet_sessions_overlap_across_batches() {
        let (problem, nodes, base) = fixture(128);
        let mk = |lookahead| GpuSolverConfig {
            lookahead,
            ..base.clone()
        };
        let mut per_batch = FleetBackend::new(&problem, &mk(false), 64, FleetTopology::uniform(2));
        let mut cross = FleetBackend::new(&problem, &mk(true), 64, FleetTopology::uniform(2));
        let mut t_per_batch = Duration::ZERO;
        let mut t_cross = Duration::ZERO;
        for half in nodes.chunks(64) {
            let a = per_batch.bound_batch(half);
            let b = cross.bound_batch(half);
            assert_eq!(a.bounds, b.bounds);
            t_per_batch += a.accounting.device_time;
            t_cross += b.accounting.device_time;
        }
        assert!(
            t_cross < t_per_batch,
            "cross-iteration fleet {t_cross:?} must beat per-batch {t_per_batch:?}"
        );
    }
}
