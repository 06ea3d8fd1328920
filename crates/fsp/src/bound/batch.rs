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
}

impl JohnsonLowerBound {
    /// Lower bounds of `nodes` into `out`, in input order, [`LANES`] nodes
    /// per pass — the batch entry point every bounding backend uses.
    ///
    /// Bit-identical, node for node, to [`Self::bound_prefix`]; a complete
    /// schedule's bound is its makespan. `scratch` is reset for every block,
    /// so one scratch serves instances of any shape.
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
    ) {
        assert_eq!(nodes.len(), out.len(), "one output slot per node");
        let block = LANES * BLOCK_GROUPS;
        for (nodes, out) in nodes.chunks(block).zip(out.chunks_mut(block)) {
            self.bound_block(&mut scratch.lanes, nodes, out);
        }
    }

    /// Bounds up to [`BLOCK_GROUPS`] groups of [`LANES`] nodes.
    fn bound_block<N: SubProblem>(&self, s: &mut LaneScratch, nodes: &[N], out: &mut [Time]) {
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

        for pair in 0..data.num_pairs() {
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
                for lane in 0..LANES {
                    lb[lane] = lb[lane].max(on_m2[lane] + tail[lane]);
                }
            }
        }

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
            lb.bound_many(&mut scratch, &nodes, &mut out);
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
        );
    }
}
