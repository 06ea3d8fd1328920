//! The batch entry point of the Johnson bound: the kernel's thread-per-node
//! mapping on the host's SIMD lanes.
//!
//! The paper bounds a pool by giving every sub-problem its own GPU thread,
//! all threads reading the same read-only Table I matrices.
//! [`JohnsonLowerBound::bound_many`] does the same on the host with
//! [`LANES`] sub-problems per pass: each machine pair's Johnson row — the
//! `(job, p1, lag, p2)` read from `JM`, `PTM` and `LM` at every position —
//! is gathered once and replayed over a block of lane groups, and a lane
//! skips a scheduled job not with a branch but by AND-ing the row's values
//! with its keep mask for that job (all ones while the job remains, zero
//! once it is scheduled). A masked-out job adds zero to machine one's clock
//! and leaves machine two's clock where it was, so every lane performs the
//! reference's integer operations on its remaining jobs, in the same order,
//! and the bounds are bit-identical to [`JohnsonLowerBound::bound_prefix`].
//! The gathered row is per-call scratch of `n` entries, not a second
//! resident matrix layout.
//!
//! A node whose bound reaches the incumbent is pruned whatever its exact
//! value (`lb ≥ ub`, Figure 1 of the paper), so the batch bound takes a
//! cut-off: once a node's running maximum over the machine pairs reaches
//! it, the node's remaining pairs can be skipped. With a finite cut-off
//! and more than 32 pairs (9 or more machines), each block of 64 nodes runs
//! in two passes. The first replays the 16 pairs that have most often
//! raised a lane's running maximum; the second packs the lanes still below
//! the cut-off into full lane groups and replays the other pairs over them
//! only. The per-pair counts live in the scratch and the order is re-sorted
//! once per call, so it follows the calls, never the clock.
//!
//! The single-node reference shares no code with this path on purpose: it
//! is the oracle the equivalence suites, the serial solver and the Table I
//! access counts rely on.

use super::johnson_lb::JohnsonLowerBound;
use super::{reset, BoundScratch};
use crate::{Job, Time};

/// Sub-problems bounded together in one pass of
/// [`JohnsonLowerBound::bound_many`] — the host's stand-in for the threads
/// of a GPU warp. Eight `u32` lanes fill two SSE2 or one AVX2 register.
pub const LANES: usize = 8;

/// Lane groups whose working rows stay cache-resident while every machine
/// pair's Johnson row is replayed over them: a row's scalar reads are paid
/// once per block, not once per group.
const BLOCK_GROUPS: usize = 8;

/// Machine pairs up to which a cut-off bound still runs in one pass (eight
/// machines). With few pairs the second pass's compaction costs more than
/// the pairs it skips.
const ONE_PASS_MAX_PAIRS: usize = 32;

/// Pairs the first of two passes replays over every lane.
const FIRST_PASS_PAIRS: usize = 16;

/// A sub-problem as the batch bound reads it: the front of its scheduled
/// prefix and its scheduled-set membership.
///
/// Implemented by the B&B node type of the `bb` crate, which this crate
/// cannot name.
pub trait SubProblem {
    /// Completion time of the scheduled prefix on every machine.
    fn front(&self) -> &[Time];

    /// `true` when `job` belongs to the scheduled prefix.
    fn is_scheduled(&self, job: Job) -> bool;
}

/// The per-lane working rows of the batch bound, one row per `(group,
/// machine)` or `(group, job)`. Each row holds one value per lane, so the
/// lane loops below compile to packed vector operations.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// `n` rows per group: all ones where job `j` remains to be scheduled,
    /// zero where it is scheduled.
    keep: Vec<[u32; LANES]>,
    /// `m` rows per group: prefix completion time on machine `k`.
    front: Vec<[Time; LANES]>,
    /// `m` rows per group: smallest head of a remaining job before machine
    /// `k`, then the machine's start time `max(front, head)`.
    start: Vec<[Time; LANES]>,
    /// `m` rows per group: smallest tail of a remaining job after machine
    /// `k`.
    tail: Vec<[Time; LANES]>,
    /// One row per group: all ones in lanes holding an unfinished schedule.
    live: Vec<[u32; LANES]>,
    /// One row per group: the bound so far, the maximum over pairs.
    lb: Vec<[Time; LANES]>,
    /// The current pair's Johnson row: `(job, p1, lag, p2)` per position.
    row: Vec<[u32; 4]>,
    /// Per machine pair: live lanes whose running maximum it raised, summed
    /// over the two-pass calls since the pair count last changed.
    hits: Vec<u64>,
    /// Every machine pair, most hits first: the two-pass replay order.
    order: Vec<usize>,
    /// Block positions of the lanes the second pass replays, in packed
    /// order.
    survivors: Vec<usize>,
}

impl LaneScratch {
    /// Re-sorts the two-pass pair order by hits, keeping the previous order
    /// among ties; a new pair count starts from index order and no hits.
    fn sort_pairs(&mut self, pairs: usize) {
        if self.order.len() != pairs {
            reset(&mut self.hits, pairs, 0);
            self.order.clear();
            self.order.extend(0..pairs);
        }
        let hits = &self.hits;
        self.order
            .sort_by_key(|&pair| std::cmp::Reverse(hits[pair]));
    }

    /// Copies lane `from`'s working rows into lane `to` of the same block.
    fn move_lane(&mut self, from: usize, to: usize, n: usize, m: usize) {
        let (g, l) = (from / LANES, from % LANES);
        let (h, k) = (to / LANES, to % LANES);
        for job in 0..n {
            self.keep[h * n + job][k] = self.keep[g * n + job][l];
        }
        for machine in 0..m {
            self.start[h * m + machine][k] = self.start[g * m + machine][l];
            self.tail[h * m + machine][k] = self.tail[g * m + machine][l];
        }
        self.live[h][k] = self.live[g][l];
        self.lb[h][k] = self.lb[g][l];
    }
}

impl JohnsonLowerBound {
    /// Lower bounds of `nodes` into `out`, in input order, [`LANES`] nodes
    /// per pass — the batch entry point every bounding backend uses.
    ///
    /// `cutoff` is the incumbent the bounds will be pruned against. Node for
    /// node, with `exact` the bound of [`Self::bound_prefix`]:
    ///
    /// * `out ≤ exact`;
    /// * `out == exact` when `exact < cutoff`;
    /// * `out ≥ cutoff` otherwise.
    ///
    /// So `out < cutoff` exactly when `exact < cutoff`, and every node the
    /// cut-off does not prune gets its exact bound. [`Time::MAX`] gives
    /// exact bounds throughout; a complete schedule's bound is always its
    /// makespan. `scratch` is reset for every block, so one scratch serves
    /// instances of any shape.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `nodes` differ in length or a node's front does
    /// not hold one entry per machine.
    pub fn bound_many<N: SubProblem>(
        &self,
        scratch: &mut BoundScratch,
        nodes: &[N],
        out: &mut [Time],
        cutoff: Time,
    ) {
        assert_eq!(nodes.len(), out.len(), "one output slot per node");
        let s = &mut scratch.lanes;
        let pairs = self.data().num_pairs();
        let two_pass = cutoff != Time::MAX && pairs > ONE_PASS_MAX_PAIRS;
        if two_pass {
            s.sort_pairs(pairs);
        }
        let block = LANES * BLOCK_GROUPS;
        for (nodes, out) in nodes.chunks(block).zip(out.chunks_mut(block)) {
            let groups = self.load_block(s, nodes);
            if two_pass {
                self.bound_block_below(s, groups, out, cutoff);
            } else {
                self.replay_pairs::<false>(s, 0..pairs, groups);
                self.write_out(s, out);
            }
        }
    }

    /// The two passes over one loaded block: the first pairs of the hit
    /// order over every lane, then the rest over the live lanes still below
    /// `cutoff`, packed into full groups.
    fn bound_block_below(
        &self,
        s: &mut LaneScratch,
        groups: usize,
        out: &mut [Time],
        cutoff: Time,
    ) {
        let data = self.data();
        let (n, m) = (data.jobs(), data.machines());
        // Held outside the scratch while the passes write to it.
        let order = std::mem::take(&mut s.order);
        let (first, rest) = order.split_at(FIRST_PASS_PAIRS);
        self.replay_pairs::<true>(s, first.iter().copied(), groups);
        self.write_out(s, out);

        // Pack the survivors forward in block order: a lane only ever moves
        // to a slot whose own lane was already packed or dropped.
        s.survivors.clear();
        for (i, &partial) in out.iter().enumerate() {
            if s.live[i / LANES][i % LANES] != 0 && partial < cutoff {
                let slot = s.survivors.len();
                if slot != i {
                    s.move_lane(i, slot, n, m);
                }
                s.survivors.push(i);
            }
        }
        if !s.survivors.is_empty() {
            let packed = s.survivors.len().div_ceil(LANES);
            // The last packed group's spare lanes keep valid rows of their
            // own; clearing their live mask only keeps them out of the hit
            // counts.
            for slot in s.survivors.len()..packed * LANES {
                s.live[slot / LANES][slot % LANES] = 0;
            }
            self.replay_pairs::<true>(s, rest.iter().copied(), packed);
            for (slot, &i) in s.survivors.iter().enumerate() {
                out[i] = s.lb[slot / LANES][slot % LANES];
            }
        }
        s.order = order;
    }

    /// Loads up to [`BLOCK_GROUPS`] groups of [`LANES`] nodes into the
    /// working rows, with the per-machine start times and tails the pair
    /// loop reads; returns the number of groups.
    fn load_block<N: SubProblem>(&self, s: &mut LaneScratch, nodes: &[N]) -> usize {
        let data = self.data();
        let n = data.jobs();
        let m = data.machines();
        let groups = nodes.len().div_ceil(LANES);
        reset(&mut s.keep, groups * n, [0; LANES]);
        reset(&mut s.front, groups * m, [0; LANES]);
        reset(&mut s.start, groups * m, [Time::MAX; LANES]);
        reset(&mut s.tail, groups * m, [Time::MAX; LANES]);
        reset(&mut s.live, groups, [0; LANES]);
        reset(&mut s.lb, groups, [0; LANES]);

        // Load the lanes. Lanes past the end of a short group stay complete
        // schedules with a zero front, which no later step can overflow.
        for (i, node) in nodes.iter().enumerate() {
            let (group, lane) = (i / LANES, i % LANES);
            let front = node.front();
            assert_eq!(front.len(), m, "a front holds one entry per machine");
            for (row, &c) in s.front[group * m..].iter_mut().zip(front) {
                row[lane] = c;
            }
            for (job, row) in s.keep[group * n..(group + 1) * n].iter_mut().enumerate() {
                row[lane] = u32::from(!node.is_scheduled(job)).wrapping_neg();
            }
        }

        for group in 0..groups {
            let keep = &s.keep[group * n..(group + 1) * n];
            let start = &mut s.start[group * m..(group + 1) * m];
            let tail = &mut s.tail[group * m..(group + 1) * m];
            // Per-machine head and tail minima over the remaining jobs; a
            // scheduled job's value is OR-ed up to `Time::MAX`, which no
            // minimum keeps.
            for (job, keep) in keep.iter().enumerate() {
                for k in 0..m {
                    let (h, t) = (data.rm(job, k), data.qm(job, k));
                    for lane in 0..LANES {
                        start[k][lane] = start[k][lane].min(h | !keep[lane]);
                        tail[k][lane] = tail[k][lane].min(t | !keep[lane]);
                    }
                }
            }
            // A complete lane has no remaining job, so its minima are still
            // `Time::MAX`: zero them before the shared pair loop (which would
            // otherwise overflow adding a tail); its bound is its prefix
            // makespan, as in the reference.
            let live = &mut s.live[group];
            for row in keep {
                for lane in 0..LANES {
                    live[lane] |= row[lane];
                }
            }
            let front = &s.front[group * m..(group + 1) * m];
            for k in 0..m {
                for lane in 0..LANES {
                    start[k][lane] = front[k][lane].max(start[k][lane] & live[lane]);
                    tail[k][lane] &= live[lane];
                }
            }
        }
        groups
    }

    /// Replays the Johnson rows of `pairs` over the first `groups` lane
    /// groups, raising each lane's running maximum. With `COUNT`, each
    /// pair is also credited with the live lanes whose maximum it raised.
    fn replay_pairs<const COUNT: bool>(
        &self,
        s: &mut LaneScratch,
        pairs: impl Iterator<Item = usize>,
        groups: usize,
    ) {
        let data = self.data();
        let n = data.jobs();
        let m = data.machines();
        for pair in pairs {
            let (m1, m2) = data.pair(pair);
            s.row.clear();
            s.row.extend((0..n).map(|pos| {
                let job = data.jm(pos, pair);
                [
                    job as u32,
                    data.ptm(job, m1),
                    data.lm(job, pair),
                    data.ptm(job, m2),
                ]
            }));
            let mut raised = 0;
            for group in 0..groups {
                let keep = &s.keep[group * n..(group + 1) * n];
                let mut on_m1 = s.start[group * m + m1];
                let mut on_m2 = s.start[group * m + m2];
                // Johnson order with lags; a lane's scheduled job adds
                // nothing to machine one and leaves machine two unchanged.
                for &[job, p1, lag, p2] in &s.row {
                    let keep = &keep[job as usize];
                    for lane in 0..LANES {
                        on_m1[lane] += p1 & keep[lane];
                        let ready_on_m2 = on_m1[lane] + (lag & keep[lane]);
                        on_m2[lane] = on_m2[lane].max(ready_on_m2 & keep[lane]) + (p2 & keep[lane]);
                    }
                }
                let tail = &s.tail[group * m + m2];
                let lb = &mut s.lb[group];
                if COUNT {
                    let live = &s.live[group];
                    for lane in 0..LANES {
                        let value = on_m2[lane] + tail[lane];
                        raised += u32::from(value > lb[lane]) & live[lane];
                        lb[lane] = lb[lane].max(value);
                    }
                } else {
                    for lane in 0..LANES {
                        lb[lane] = lb[lane].max(on_m2[lane] + tail[lane]);
                    }
                }
            }
            if COUNT {
                s.hits[pair] += u64::from(raised);
            }
        }
    }

    /// Each loaded node's running maximum into `out`, or its prefix
    /// makespan when it is a complete schedule.
    fn write_out(&self, s: &LaneScratch, out: &mut [Time]) {
        let m = self.data().machines();
        for (i, slot) in out.iter_mut().enumerate() {
            let (group, lane) = (i / LANES, i % LANES);
            *slot = if s.live[group][lane] == 0 {
                s.front[group * m + m - 1][lane]
            } else {
                s.lb[group][lane]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PartialSchedule;
    use crate::taillard::generate;

    /// A sub-problem held as the reference's inputs: front plus a
    /// membership array.
    struct Prefix {
        front: Vec<Time>,
        scheduled: Vec<bool>,
    }

    impl Prefix {
        fn new(inst: &crate::Instance, prefix: &[Job]) -> Self {
            let mut scheduled = vec![false; inst.jobs()];
            for &j in prefix {
                scheduled[j] = true;
            }
            Self {
                front: PartialSchedule::from_prefix(inst, prefix).front().to_vec(),
                scheduled,
            }
        }
    }

    impl SubProblem for Prefix {
        fn front(&self) -> &[Time] {
            &self.front
        }
        fn is_scheduled(&self, job: Job) -> bool {
            self.scheduled[job]
        }
    }

    #[test]
    fn one_scratch_serves_instances_of_any_shape() {
        let mut scratch = BoundScratch::new();
        for (n, m) in [(40, 3), (5, 12), (33, 1)] {
            let inst = generate("t", n, m, 9);
            let lb = JohnsonLowerBound::new(&inst);
            let nodes = vec![Prefix::new(&inst, &[]), Prefix::new(&inst, &[n - 1, 0])];
            let mut out = vec![0; 2];
            lb.bound_many(&mut scratch, &nodes, &mut out, Time::MAX);
            for (node, &got) in nodes.iter().zip(&out) {
                assert_eq!(
                    got,
                    lb.bound_prefix(&node.front, &node.scheduled),
                    "{n}x{m}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per node")]
    fn mismatched_output_panics() {
        let inst = generate("t", 4, 3, 2);
        let lb = JohnsonLowerBound::new(&inst);
        lb.bound_many(
            &mut BoundScratch::new(),
            &[Prefix::new(&inst, &[])],
            &mut [],
            Time::MAX,
        );
    }
}
