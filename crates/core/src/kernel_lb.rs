//! The lower-bound kernel: one GPU thread evaluates the Johnson-based lower
//! bound of one sub-problem (Figure 2 of the paper, executed on the device),
//! and the simulator runs the threads a warp at a time, in lockstep.
//!
//! The kernel reads the six bound matrices through the simulator's
//! [`WarpCtx`], so every access is charged to the memory space the active
//! [`crate::placement::DataPlacement`] assigned to its matrix, once per lane
//! that makes it. Each lane decodes its own sub-problem with one-lane reads
//! of the pool and `PTM`. From then on the lanes walk the same loops over
//! jobs, machine pairs and Johnson positions, so every instance-level read
//! (`RM`, `QM`, `MM`, `JM`, and `PTM`/`LM` inside the pair loop) is one
//! broadcast over exactly the lanes that read it on hardware: all running
//! lanes for `MM` and `JM`, the lanes that still have the job to schedule
//! for the others. The divergent `scheduled[job]` branch of a thread becomes
//! a per-job lane mask, widened once per warp into one all-ones or zero word
//! per lane; a lane without the job ANDs its operands to zero, which leaves
//! its clocks unchanged, so every lane performs the thread's integer
//! operations in the thread's order. Bounds equal the single-node reference
//! (`fsp::JohnsonLowerBound::bound_prefix`) and access counts equal
//! [`crate::offload::BoundingEngine::analytic_tally`]; both are checked by
//! tests in [`crate::offload`] and the workspace property tests.

use fsp::Time;
use gpu_sim::warp::MAX_LANES;
use gpu_sim::{DeviceBuffer, Kernel, WarpCtx};

/// Lanes the lane loops handle per step: eight `u32`s fill two SSE2 or one
/// AVX2 register.
const STEP: usize = 8;

/// One value per lane of a warp, in steps of [`STEP`] lanes (lane `l` is
/// `[l / STEP][l % STEP]`).
type Lanes = [[Time; STEP]; STEPS];

/// Steps of a full warp.
const STEPS: usize = MAX_LANES / STEP;

const ZERO: Lanes = [[0; STEP]; STEPS];

/// `mask` widened to one word per lane: all ones where its bit is set.
fn widen(mask: u32) -> Lanes {
    let mut wide = ZERO;
    for (s, step) in wide.iter_mut().enumerate() {
        for (l, word) in step.iter_mut().enumerate() {
            *word = u32::from(mask & (1 << (s * STEP + l)) != 0).wrapping_neg();
        }
    }
    wide
}

/// Device-side handles and dimensions needed by the bounding kernel.
#[derive(Debug, Clone)]
pub struct LowerBoundKernel {
    /// Number of jobs `n`.
    pub jobs: usize,
    /// Number of machines `m`.
    pub machines: usize,
    /// Number of machine pairs `m(m−1)/2`.
    pub num_pairs: usize,
    /// Number of sub-problems in the off-loaded pool.
    pub num_nodes: usize,
    /// Stride (in elements) of one encoded sub-problem in `pool`.
    pub node_stride: usize,
    /// Processing times, `n × m`.
    pub ptm: DeviceBuffer,
    /// Lags, `n × pairs`.
    pub lm: DeviceBuffer,
    /// Johnson orders, `n × pairs` (position-major).
    pub jm: DeviceBuffer,
    /// Heads, `n × m`.
    pub rm: DeviceBuffer,
    /// Tails, `n × m`.
    pub qm: DeviceBuffer,
    /// Machine pairs, `pairs × 2`.
    pub mm: DeviceBuffer,
    /// Encoded pool of sub-problems: for each node, `[depth, job_0, …,
    /// job_{depth−1}, <padding>]` with stride `node_stride`.
    pub pool: DeviceBuffer,
    /// Output lower bounds, one per node.
    pub out: DeviceBuffer,
}

/// Per-lane working arrays of the bounding kernel, allocated once per
/// launch and reset per warp (the simulator's equivalent of the `__local__`
/// arrays a CUDA implementation would declare).
#[derive(Debug)]
pub struct LowerBoundScratch {
    /// Per job: the lanes that still have it to schedule (bit `l` = lane `l`).
    open: Vec<u32>,
    /// Per job: `open` widened by [`widen`].
    keep: Vec<Lanes>,
    /// Per machine: completion time of each lane's prefix.
    front: Vec<Lanes>,
    /// Per machine: each lane's start time, `max(front, smallest head over
    /// its remaining jobs)`.
    start: Vec<Lanes>,
    /// Per machine: smallest tail over each lane's remaining jobs.
    tail: Vec<Lanes>,
}

impl Kernel for LowerBoundKernel {
    type Scratch = LowerBoundScratch;

    fn new_scratch(&self) -> LowerBoundScratch {
        LowerBoundScratch {
            open: vec![0; self.jobs],
            keep: vec![ZERO; self.jobs],
            front: vec![ZERO; self.machines],
            start: vec![ZERO; self.machines],
            tail: vec![ZERO; self.machines],
        }
    }

    fn run(&self, warp: &mut WarpCtx<'_>, s: &mut LowerBoundScratch) {
        let first = warp.first_thread();
        // The pool fills the leading threads of the grid, so a warp's nodes
        // sit in its leading lanes, and most warps of a small launch hold
        // none.
        let live = warp.lanes().min(self.num_nodes.saturating_sub(first));
        if live == 0 {
            return;
        }
        let n = self.jobs;
        let m = self.machines;
        let pairs = self.num_pairs;
        // Lane arithmetic covers the live lanes rounded up to whole steps;
        // lanes past `live` hold no job, so their masked operands are zero.
        let steps = live.div_ceil(STEP);

        // Decode each lane's sub-problem: depth, prefix, and the per-machine
        // completion times of the prefix (recomputed from PTM, as the CUDA
        // implementation would — the host only ships the prefix). Lanes read
        // their own pool entries and jobs, so these are one-lane reads.
        s.open.fill(u32::MAX >> (MAX_LANES - live));
        s.front.fill(ZERO);
        for lane in 0..live {
            let (step, l) = (lane / STEP, lane % STEP);
            let base = (first + lane) * self.node_stride;
            let depth = warp.read(self.pool, base) as usize;
            for p in 0..depth {
                let job = warp.read(self.pool, base + 1 + p) as usize;
                s.open[job] &= !(1 << lane);
                let mut prev = 0;
                for (k, front) in s.front.iter_mut().enumerate() {
                    let c = &mut front[step][l];
                    *c = (*c).max(prev) + warp.read(self.ptm, job * m + k);
                    prev = *c;
                }
            }
        }
        // Lanes with a job left; the other live lanes hold complete schedules.
        let running = s.open.iter().fold(0, |acc, &mask| acc | mask);
        for (keep, &mask) in s.keep.iter_mut().zip(&s.open) {
            *keep = widen(mask);
        }

        // A complete schedule's bound is its makespan.
        for lane in 0..live {
            if (running >> lane) & 1 == 0 {
                let makespan = s.front[m - 1][lane / STEP][lane % STEP];
                warp.write(self.out, first + lane, makespan);
            }
        }
        if running == 0 {
            return;
        }

        // Per machine, the smallest head and tail over each lane's remaining
        // jobs: the lanes that still have `job` read its RM and QM entries
        // together; the others OR them up to `Time::MAX`, which no minimum
        // keeps. Lanes outside `running` are left with `Time::MAX` minima:
        // zero them, or the pair loop's sums overflow. A machine's start
        // time is `max(front, head)`. The minima are locals so that the lane
        // loops keep them in vector registers.
        let run = widen(running);
        for (k, ((start, tail), front)) in s
            .start
            .iter_mut()
            .zip(&mut s.tail)
            .zip(&s.front)
            .enumerate()
        {
            let mut min_head = [[Time::MAX; STEP]; STEPS];
            let mut min_tail = [[Time::MAX; STEP]; STEPS];
            for (job, (&mask, keep)) in s.open.iter().zip(&s.keep).enumerate() {
                if mask == 0 {
                    continue;
                }
                let h = warp.read_broadcast(self.rm, job * m + k, mask);
                let t = warp.read_broadcast(self.qm, job * m + k, mask);
                for ((min_head, min_tail), keep) in
                    min_head.iter_mut().zip(&mut min_tail).zip(keep).take(steps)
                {
                    for l in 0..STEP {
                        min_head[l] = min_head[l].min(h | !keep[l]);
                        min_tail[l] = min_tail[l].min(t | !keep[l]);
                    }
                }
            }
            for st in 0..steps {
                for l in 0..STEP {
                    start[st][l] = front[st][l].max(min_head[st][l] & run[st][l]);
                    tail[st][l] = min_tail[st][l] & run[st][l];
                }
            }
        }

        // The Figure 2 loop over machine pairs.
        let mut lb = ZERO;
        for pair in 0..pairs {
            let m1 = warp.read_broadcast(self.mm, pair * 2, running) as usize;
            let m2 = warp.read_broadcast(self.mm, pair * 2 + 1, running) as usize;
            let mut on_m1 = s.start[m1];
            let mut on_m2 = s.start[m2];

            // JM is position-major: walking one pair's Johnson order visits
            // `pair`, `pair + pairs`, … — kept as a running index. A lane
            // whose prefix holds the job adds nothing to machine one and
            // leaves machine two where it was.
            let mut jm_idx = pair;
            for _pos in 0..n {
                let job = warp.read_broadcast(self.jm, jm_idx, running) as usize;
                jm_idx += pairs;
                let mask = s.open[job];
                if mask == 0 {
                    continue;
                }
                let p1 = warp.read_broadcast(self.ptm, job * m + m1, mask);
                let lag = warp.read_broadcast(self.lm, job * pairs + pair, mask);
                let p2 = warp.read_broadcast(self.ptm, job * m + m2, mask);
                for ((on_m1, on_m2), keep) in on_m1
                    .iter_mut()
                    .zip(&mut on_m2)
                    .zip(&s.keep[job])
                    .take(steps)
                {
                    for l in 0..STEP {
                        on_m1[l] += p1 & keep[l];
                        let ready_on_m2 = on_m1[l] + (lag & keep[l]);
                        on_m2[l] = on_m2[l].max(ready_on_m2 & keep[l]) + (p2 & keep[l]);
                    }
                }
            }

            // A local copy of the tail row, like the minima above, lets the
            // max vectorize.
            let tail = s.tail[m2];
            for ((lb, on_m2), tail) in lb.iter_mut().zip(&on_m2).zip(&tail).take(steps) {
                for l in 0..STEP {
                    lb[l] = lb[l].max(on_m2[l] + tail[l]);
                }
            }
        }
        for lane in 0..live {
            if (running >> lane) & 1 == 1 {
                warp.write(self.out, first + lane, lb[lane / STEP][lane % STEP]);
            }
        }
    }

    fn name(&self) -> &str {
        "flowshop-lower-bound"
    }
}
