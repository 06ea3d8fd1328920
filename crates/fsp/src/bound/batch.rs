//! The batch entry point of the Johnson bound: the kernel's thread-per-node
//! mapping on the host's SIMD lanes.
//!
//! The paper bounds a pool by giving every sub-problem its own GPU thread,
//! all threads reading the same read-only Table I matrices.
//! [`JohnsonLowerBound::bound_children`] does the same on the host with
//! [`LANES`] sub-problems per pass: each machine pair's Johnson row — the
//! `(job, p1, lag, p2)` read from `JM`, `PTM` and `LM` at every position —
//! is replayed over a block of lane groups, and a lane skips a scheduled
//! job not with a branch but by AND-ing the row's values with its keep mask
//! for that job (all ones while the job remains, zero once it is
//! scheduled). A masked-out job adds zero to machine one's clock and leaves
//! machine two's clock where it was, so every lane performs the reference's
//! integer operations on its remaining jobs, in the same order, and the
//! bounds are bit-identical to [`JohnsonLowerBound::bound_prefix`].
//!
//! The rows of all `m(m−1)/2` pairs, `n` entries each, are gathered from
//! the strided matrices once per bound a [`BoundScratch`] serves and replayed
//! by every block, pass and call after that: a backend holds one scratch
//! for one instance, so it gathers them once per solve. The scratch keys
//! them by the bound's identity, which clones share and no other bound ever
//! takes, never by address or shape. They live in the scratch, not beside
//! the matrices, so an instance that is not being bounded holds no rows.
//! After a group has replayed a row, its running maximum, tail and live
//! mask are copied into locals and the pair's hits counted per lane, so
//! the epilogue runs in vector registers too.
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
//! The lane loops are written once and compiled twice. On x86-64 with
//! AVX2, the batch bound runs them inside an AVX2
//! wrapper, where a lane group is one 256-bit register with native
//! unsigned `u32` min and max; any other CPU or target runs the same source
//! compiled for the baseline (on x86-64, SSE2, which has no unsigned `u32`
//! min or max and emulates them). [`lane_kernel`] names the compilation
//! this CPU runs. Both perform the same integer operations, so their bounds
//! are bit-identical.
//!
//! A batch is a list of [`Child`] entries over a slice of parents: each
//! entry is one job scheduled after its parent's prefix, or the parent
//! itself ([`JohnsonLowerBound::bound_children`]; [`JohnsonLowerBound::bound_many`]
//! is the batch whose every entry is its parent). One lane loader serves
//! both. A lane copies its parent's front and scheduled-set words once;
//! for a child it then advances the front by the job's processing times
//! (`c_k = max(c_k, c_{k−1}) + p[job][k]`, the schedule recurrence) and
//! sets the job's bit, so a child is bounded without ever being built.
//! Each job's keep row is then one shift of its set word for all lanes, and
//! each machine's head and tail minima are taken in registers before being
//! written once.
//!
//! The single-node reference shares no code with this path on purpose: it
//! is the oracle the equivalence suites, the serial solver and the Table I
//! access counts rely on.

use super::johnson_lb::JohnsonLowerBound;
use super::{reset, BoundScratch};
use crate::Time;

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

/// Jobs per scheduled-set word.
const WORD_BITS: usize = u32::BITS as usize;

/// A sub-problem as the batch bound reads it: the front of its scheduled
/// prefix and its scheduled set. It is bounded itself
/// ([`JohnsonLowerBound::bound_many`], or a [`Child::PARENT`] entry) or
/// stands as the parent of child entries
/// ([`JohnsonLowerBound::bound_children`]), whose lanes copy both and
/// advance them by one job.
///
/// Implemented by the B&B node type of the `bb` crate, which this crate
/// cannot name.
pub trait SubProblem {
    /// Completion time of the scheduled prefix on every machine.
    fn front(&self) -> &[Time];

    /// The scheduled set as `⌈n / 32⌉` words: bit `j % 32` of word `j / 32`
    /// is one when job `j` belongs to the scheduled prefix. Bits past job
    /// `n − 1` are never read.
    fn scheduled_words(&self) -> &[u32];
}

/// One entry of a batch bounded by [`JohnsonLowerBound::bound_children`]:
/// job `job` scheduled after the prefix of parent `parent`, or, when `job`
/// is [`Child::PARENT`], the parent itself. Eight bytes, so a batch lists
/// its children without building them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Child {
    /// Index of the parent in the batch's parent slice.
    pub parent: u32,
    /// The job scheduled next, or [`Child::PARENT`].
    pub job: u32,
}

impl Child {
    /// The sentinel job: the entry is its parent itself.
    pub const PARENT: u32 = u32::MAX;

    /// The child of parent `parent` that schedules `job` next.
    pub const fn new(parent: u32, job: u32) -> Self {
        Self { parent, job }
    }

    /// The entry that is parent `parent` itself.
    pub const fn parent_itself(parent: u32) -> Self {
        Self {
            parent,
            job: Self::PARENT,
        }
    }

    /// `true` when the entry is its parent itself, not a child of it.
    pub const fn is_parent_itself(self) -> bool {
        self.job == Self::PARENT
    }
}

/// `true` when this CPU runs the AVX2 compilation of the lane loops: an
/// x86-64 CPU that reports AVX2 at run time. The batch bound dispatches on
/// it, and so does the simulator's bounding kernel (`gpu_bnb::kernel_lb`),
/// so both run the same compilation.
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The compilation of the lane loops that the batch bound runs on this
/// CPU: `"avx2"`, or `"portable"` for the baseline target's.
pub fn lane_kernel() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

/// The per-lane working rows of the batch bound, one row per `(group,
/// machine)` or `(group, job)`. Each row holds one value per lane, so the
/// lane loops below compile to packed vector operations.
#[derive(Debug, Default)]
pub(crate) struct LaneScratch {
    /// `⌈n / 32⌉` rows per group: the lanes' scheduled-set words.
    words: Vec<[u32; LANES]>,
    /// `n` rows per group: all ones where job `j` remains to be scheduled,
    /// zero where it is scheduled.
    keep: Vec<[u32; LANES]>,
    /// `m` rows per group: prefix completion time on machine `k`.
    front: Vec<[Time; LANES]>,
    /// `m` rows per group: machine `k`'s start time, `max(front, smallest
    /// head of a remaining job)`.
    start: Vec<[Time; LANES]>,
    /// `m` rows per group: smallest tail of a remaining job after machine
    /// `k`.
    tail: Vec<[Time; LANES]>,
    /// One row per group: all ones in lanes holding an unfinished schedule.
    live: Vec<[u32; LANES]>,
    /// One row per group: the bound so far, the maximum over pairs.
    lb: Vec<[Time; LANES]>,
    /// Every machine pair's Johnson row, `n` entries per pair in pair
    /// order: `(job, p1, lag, p2)` at each position of the pair's Johnson
    /// order.
    rows: Vec<[u32; 4]>,
    /// The identity ([`JohnsonLowerBound::id`]) of the bound whose rows
    /// `rows` holds, or `None` before the first call.
    rows_of: Option<u64>,
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
    /// Gathers every machine pair's Johnson row of `bound` from `JM`, `PTM`
    /// and `LM`, unless the scratch already holds them: once per bound a
    /// scratch serves, not once per call, block or pass. The key is the
    /// bound's identity, which no other bound ever takes, so a scratch never
    /// replays another instance's rows, whatever its shape.
    fn gather_rows(&mut self, bound: &JohnsonLowerBound) {
        if self.rows_of == Some(bound.id()) {
            return;
        }
        let data = bound.data();
        self.rows.clear();
        for pair in 0..data.num_pairs() {
            let (m1, m2) = data.pair(pair);
            self.rows.extend((0..data.jobs()).map(|pos| {
                let job = data.jm(pos, pair);
                [
                    job as u32,
                    data.ptm(job, m1),
                    data.lm(job, pair),
                    data.ptm(job, m2),
                ]
            }));
        }
        self.rows_of = Some(bound.id());
    }

    /// Re-sorts the two-pass pair order by hits, keeping the previous order
    /// among ties; a new pair count starts from index order and no hits.
    #[inline(always)]
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
    #[inline(always)]
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
    /// per pass — [`Self::bound_children`] over a batch whose every entry
    /// is its parent itself.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `nodes` differ in length, or a node's front does
    /// not hold one entry per machine or its scheduled set one word per 32
    /// jobs.
    pub fn bound_many<N: SubProblem>(
        &self,
        scratch: &mut BoundScratch,
        nodes: &[N],
        out: &mut [Time],
        cutoff: Time,
    ) {
        assert_eq!(nodes.len(), out.len(), "one output slot per node");
        self.bound_lanes(scratch, |i| (&nodes[i], Child::PARENT), out, cutoff);
    }

    /// Lower bounds of `children` into `out`, in input order, [`LANES`]
    /// sub-problems per pass — the batch entry point every bounding backend
    /// uses. Entry `i` is `children[i].job` scheduled after the prefix of
    /// `parents[children[i].parent]`, or that parent itself for
    /// [`Child::PARENT`].
    ///
    /// `cutoff` is the incumbent the bounds will be pruned against. Entry
    /// for entry, with `exact` the bound of [`Self::bound_prefix`] on the
    /// sub-problem the entry names:
    ///
    /// * `out ≤ exact`;
    /// * `out == exact` when `exact < cutoff`;
    /// * `out ≥ cutoff` otherwise.
    ///
    /// So `out < cutoff` exactly when `exact < cutoff`, and every entry the
    /// cut-off does not prune gets its exact bound. [`Time::MAX`] gives
    /// exact bounds throughout; a complete schedule's bound is always its
    /// makespan. `scratch` is reset for every block, so one scratch serves
    /// instances of any shape. The lane loops run at the width of this CPU
    /// (see [`lane_kernel`]); every compilation gives the same bounds.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `children` differ in length; if an entry names
    /// a parent out of range, a job out of range or a job its parent has
    /// already scheduled; or if a parent's front does not hold one entry
    /// per machine or its scheduled set one word per 32 jobs.
    pub fn bound_children<N: SubProblem>(
        &self,
        scratch: &mut BoundScratch,
        parents: &[N],
        children: &[Child],
        out: &mut [Time],
        cutoff: Time,
    ) {
        assert_eq!(children.len(), out.len(), "one output slot per child");
        self.bound_lanes(
            scratch,
            |i| {
                let child = children[i];
                (&parents[child.parent as usize], child.job)
            },
            out,
            cutoff,
        );
    }

    /// Dispatches the lane loops to the compilation this CPU runs; `lane(i)`
    /// is entry `i`'s parent and job, for `i` below `out.len()`.
    #[inline(always)]
    fn bound_lanes<'a, N: SubProblem + 'a>(
        &self,
        scratch: &mut BoundScratch,
        lane: impl Fn(usize) -> (&'a N, u32),
        out: &mut [Time],
        cutoff: Time,
    ) {
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: AVX2, the one feature the wrapper enables, was just
            // detected on this CPU.
            unsafe { self.bound_lanes_avx2(scratch, lane, out, cutoff) };
            return;
        }
        self.bound_lanes_portable(scratch, lane, out, cutoff);
    }

    /// [`Self::bound_lanes_portable`] compiled for AVX2: every lane loop it
    /// inlines runs on 256-bit registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn bound_lanes_avx2<'a, N: SubProblem + 'a>(
        &self,
        scratch: &mut BoundScratch,
        lane: impl Fn(usize) -> (&'a N, u32),
        out: &mut [Time],
        cutoff: Time,
    ) {
        self.bound_lanes_portable(scratch, lane, out, cutoff);
    }

    /// The body of [`Self::bound_children`]. It and every step below it are
    /// inlined into their caller, so they compile for the caller's target
    /// features: the baseline's when called directly.
    #[inline(always)]
    pub(crate) fn bound_lanes_portable<'a, N: SubProblem + 'a>(
        &self,
        scratch: &mut BoundScratch,
        lane: impl Fn(usize) -> (&'a N, u32),
        out: &mut [Time],
        cutoff: Time,
    ) {
        let s = &mut scratch.lanes;
        s.gather_rows(self);
        let pairs = self.data().num_pairs();
        let two_pass = cutoff != Time::MAX && pairs > ONE_PASS_MAX_PAIRS;
        if two_pass {
            s.sort_pairs(pairs);
        }
        let block = LANES * BLOCK_GROUPS;
        for (b, out) in out.chunks_mut(block).enumerate() {
            let groups = self.load_block(s, out.len(), |i| lane(b * block + i));
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
    #[inline(always)]
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

    /// Loads `len` (at most [`BLOCK_GROUPS`] groups of [`LANES`]) entries
    /// into the working rows, with the per-machine start times and tails
    /// the pair loop reads; returns the number of groups. `lane(i)` is entry
    /// `i`'s parent and job.
    #[inline(always)]
    fn load_block<'a, N: SubProblem + 'a>(
        &self,
        s: &mut LaneScratch,
        len: usize,
        lane: impl Fn(usize) -> (&'a N, u32),
    ) -> usize {
        let data = self.data();
        let (n, m) = (data.jobs(), data.machines());
        let w = n.div_ceil(WORD_BITS);
        let groups = len.div_ceil(LANES);
        // Lanes past the end of a short group stay complete schedules (every
        // job scheduled) with a zero front, which no later step can overflow.
        reset(&mut s.front, groups * m, [0; LANES]);
        reset(&mut s.words, groups * w, [u32::MAX; LANES]);
        reset(&mut s.lb, groups, [0; LANES]);
        for i in 0..len {
            let (group, l) = (i / LANES, i % LANES);
            let (parent, job) = lane(i);
            let (front, words) = (parent.front(), parent.scheduled_words());
            assert_eq!(front.len(), m, "a front holds one entry per machine");
            assert_eq!(words.len(), w, "a scheduled set holds one word per 32 jobs");
            let rows = &mut s.front[group * m..(group + 1) * m];
            if job == Child::PARENT {
                for (row, &c) in rows.iter_mut().zip(front) {
                    row[l] = c;
                }
            } else {
                let j = job as usize;
                assert!(j < n, "job {j} out of range");
                assert!(
                    words[j / WORD_BITS] >> (j % WORD_BITS) & 1 == 0,
                    "job {j} already scheduled"
                );
                // The schedule recurrence: the job starts on machine `k`
                // once the machine is free and it left machine `k − 1`.
                let mut prev = 0;
                for ((row, &c), &p) in rows.iter_mut().zip(front).zip(data.ptm_row(j)) {
                    prev = c.max(prev) + p;
                    row[l] = prev;
                }
            }
            for (row, &word) in s.words[group * w..].iter_mut().zip(words) {
                row[l] = word;
            }
            if job != Child::PARENT {
                let j = job as usize;
                s.words[group * w + j / WORD_BITS][l] |= 1 << (j % WORD_BITS);
            }
        }

        s.keep.clear();
        s.start.clear();
        s.tail.clear();
        s.live.clear();
        for group in 0..groups {
            // A lane is live while any of its jobs remains.
            let mut live = [0; LANES];
            for job in 0..n {
                let (word, bit) = (&s.words[group * w + job / WORD_BITS], job % WORD_BITS);
                let mut keep = [0; LANES];
                for lane in 0..LANES {
                    keep[lane] = (word[lane] >> bit & 1).wrapping_sub(1);
                    live[lane] |= keep[lane];
                }
                s.keep.push(keep);
            }
            s.live.push(live);

            let keep = &s.keep[group * n..];
            for k in 0..m {
                // The machine's head and tail minima over the remaining jobs;
                // a scheduled job's value is OR-ed up to `Time::MAX`, which no
                // minimum keeps.
                let (mut head, mut tail) = ([Time::MAX; LANES], [Time::MAX; LANES]);
                for (job, keep) in keep.iter().enumerate() {
                    let (h, t) = (data.rm(job, k), data.qm(job, k));
                    for lane in 0..LANES {
                        head[lane] = head[lane].min(h | !keep[lane]);
                        tail[lane] = tail[lane].min(t | !keep[lane]);
                    }
                }
                // A complete lane has no remaining job, so its minima are
                // still `Time::MAX`: zero them before the shared pair loop
                // (which would otherwise overflow adding a tail); its bound
                // is its prefix makespan, as in the reference.
                let front = &s.front[group * m + k];
                for lane in 0..LANES {
                    head[lane] = front[lane].max(head[lane] & live[lane]);
                    tail[lane] &= live[lane];
                }
                s.start.push(head);
                s.tail.push(tail);
            }
        }
        groups
    }

    /// Replays the Johnson rows of `pairs` over the first `groups` lane
    /// groups, raising each lane's running maximum. With `COUNT`, each
    /// pair is also credited with the live lanes whose maximum it raised.
    ///
    /// A group's running maximum, tail and live mask are copied into locals
    /// and the hits counted per lane, so the epilogue stays in vector
    /// registers: the compiler cannot tell rows borrowed from the scratch's
    /// vectors apart, and would store and compare them lane by lane.
    #[inline(always)]
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
            let row = &s.rows[pair * n..(pair + 1) * n];
            let mut raised = [0u32; LANES];
            for group in 0..groups {
                let keep = &s.keep[group * n..(group + 1) * n];
                let mut on_m1 = s.start[group * m + m1];
                let mut on_m2 = s.start[group * m + m2];
                // Johnson order with lags; a lane's scheduled job adds
                // nothing to machine one and leaves machine two unchanged.
                for &[job, p1, lag, p2] in row {
                    let keep = &keep[job as usize];
                    for lane in 0..LANES {
                        on_m1[lane] += p1 & keep[lane];
                        let ready_on_m2 = on_m1[lane] + (lag & keep[lane]);
                        on_m2[lane] = on_m2[lane].max(ready_on_m2 & keep[lane]) + (p2 & keep[lane]);
                    }
                }
                let tail = s.tail[group * m + m2];
                let mut lb = s.lb[group];
                if COUNT {
                    let live = s.live[group];
                    for lane in 0..LANES {
                        let value = on_m2[lane] + tail[lane];
                        raised[lane] += u32::from(value > lb[lane]) & live[lane];
                        lb[lane] = lb[lane].max(value);
                    }
                } else {
                    for lane in 0..LANES {
                        lb[lane] = lb[lane].max(on_m2[lane] + tail[lane]);
                    }
                }
                s.lb[group] = lb;
            }
            if COUNT {
                s.hits[pair] += raised.iter().map(|&r| u64::from(r)).sum::<u64>();
            }
        }
    }

    /// Each loaded node's running maximum into `out`, or its prefix
    /// makespan when it is a complete schedule.
    #[inline(always)]
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
    use crate::Job;

    /// A sub-problem held as the reference's inputs, a front plus a
    /// membership array, and as the batch bound's set words.
    struct Prefix {
        front: Vec<Time>,
        scheduled: Vec<bool>,
        words: Vec<u32>,
    }

    impl Prefix {
        fn new(inst: &crate::Instance, prefix: &[Job]) -> Self {
            let mut scheduled = vec![false; inst.jobs()];
            let mut words = vec![0; inst.jobs().div_ceil(WORD_BITS)];
            for &j in prefix {
                scheduled[j] = true;
                words[j / WORD_BITS] |= 1 << (j % WORD_BITS);
            }
            Self {
                front: PartialSchedule::from_prefix(inst, prefix).front().to_vec(),
                scheduled,
                words,
            }
        }
    }

    impl SubProblem for Prefix {
        fn front(&self) -> &[Time] {
            &self.front
        }
        fn scheduled_words(&self) -> &[u32] {
            &self.words
        }
    }

    /// `count` prefixes of depths `0, 1, …, n, 0, …`, each of its own
    /// xorshift shuffle of the jobs, with the job that shuffle schedules
    /// next (`None` at depth `n`).
    fn mixed_depth_prefixes(n: usize, count: usize) -> Vec<(Vec<Job>, Option<Job>)> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        (0..count)
            .map(|i| {
                let mut jobs: Vec<Job> = (0..n).collect();
                for j in (1..n).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    jobs.swap(j, (state % (j as u64 + 1)) as usize);
                }
                let depth = i % (n + 1);
                (jobs[..depth].to_vec(), jobs.get(depth).copied())
            })
            .collect()
    }

    /// A batch over `count` mixed-depth prefixes of `inst`: every other
    /// entry a child of its parent (advanced in the lane), the rest the
    /// parents themselves, with the sub-problem each entry names.
    struct Family {
        parents: Vec<Prefix>,
        entries: Vec<Child>,
        named: Vec<Prefix>,
    }

    impl Family {
        fn new(inst: &crate::Instance, count: usize) -> Self {
            let prefixes = mixed_depth_prefixes(inst.jobs(), count);
            let parents = prefixes
                .iter()
                .map(|(prefix, _)| Prefix::new(inst, prefix))
                .collect();
            let (mut entries, mut named) = (Vec::new(), Vec::new());
            for (i, (prefix, next)) in prefixes.iter().enumerate() {
                let mut prefix = prefix.clone();
                match next {
                    Some(job) if i % 2 == 1 => {
                        entries.push(Child::new(i as u32, *job as u32));
                        prefix.push(*job);
                    }
                    _ => entries.push(Child::parent_itself(i as u32)),
                }
                named.push(Prefix::new(inst, &prefix));
            }
            Self {
                parents,
                entries,
                named,
            }
        }

        /// [`JohnsonLowerBound::bound_prefix`] of every named sub-problem.
        fn exact(&self, lb: &JohnsonLowerBound) -> Vec<Time> {
            self.named
                .iter()
                .map(|node| lb.bound_prefix(&node.front, &node.scheduled))
                .collect()
        }

        /// Bounds the first `len` entries against `cutoff` through the
        /// dispatched entry point with `dispatched` and the portable
        /// compilation with `portable`, and asserts that both agree and
        /// keep the cut-off contract against `exact`.
        fn bound_checked(
            &self,
            lb: &JohnsonLowerBound,
            (dispatched, portable): (&mut BoundScratch, &mut BoundScratch),
            len: usize,
            exact: &[Time],
            cutoff: Time,
            at: &str,
        ) {
            let (mut got, mut want) = (vec![0; len], vec![0; len]);
            let entries = &self.entries[..len];
            lb.bound_children(dispatched, &self.parents, entries, &mut got, cutoff);
            lb.bound_lanes_portable(
                portable,
                |i| (&self.parents[entries[i].parent as usize], entries[i].job),
                &mut want,
                cutoff,
            );
            assert_eq!(got, want, "{at}: dispatched vs portable");
            for (i, (&got, &exact)) in got.iter().zip(exact).enumerate() {
                assert!(got <= exact, "{at}, entry {i}: {got} above {exact}");
                if exact < cutoff {
                    assert_eq!(got, exact, "{at}, entry {i}");
                } else {
                    assert!(got >= cutoff, "{at}, entry {i}: {got} below the cut-off");
                }
            }
        }
    }

    /// Cut-offs 0, the median of `exact` and [`Time::MAX`].
    fn cutoffs(exact: &[Time]) -> [Time; 3] {
        let mut sorted = exact.to_vec();
        sorted.sort_unstable();
        [0, sorted[exact.len() / 2], Time::MAX]
    }

    #[test]
    fn one_scratch_serves_instances_of_any_shape() {
        // The dispatched entry point and the portable compilation, the only
        // one a CPU without AVX2 runs, each keep one scratch for every
        // shape, batch length and cut-off. Both scratches see the same calls,
        // so their pair orders, and hence even the pruned entries' partial
        // bounds, agree. 1 to 3 set words; 0 to 190 machine pairs, on both
        // sides of the two-pass threshold.
        let (mut dispatched, mut portable) = (BoundScratch::new(), BoundScratch::new());
        for n in [5, 33, 65] {
            for m in [1, 5, 9, 20] {
                let inst = generate("t", n, m, 9);
                let lb = JohnsonLowerBound::new(&inst);
                let family = Family::new(&inst, 130);
                let reference = family.exact(&lb);
                for len in [1, 9, 65, 130] {
                    let exact = &reference[..len];
                    for cutoff in cutoffs(exact) {
                        let at = format!("{n}x{m}, {len} entries, cut-off {cutoff}");
                        let scratches = (&mut dispatched, &mut portable);
                        family.bound_checked(&lb, scratches, len, exact, cutoff, &at);
                        let mut whole = vec![0; len];
                        lb.bound_many(
                            &mut BoundScratch::new(),
                            &family.named[..len],
                            &mut whole,
                            cutoff,
                        );
                        for (i, (&whole, &exact)) in whole.iter().zip(exact).enumerate() {
                            if exact < cutoff {
                                assert_eq!(whole, exact, "{at}, built entry {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_scratch_never_replays_another_instances_rows() {
        // The scratch caches every pair's Johnson rows across calls. Each of
        // the two scratches (dispatched and portable) alternates between a
        // bound, its clone and a bound of a second instance of the same
        // shape, then serves a bound of a third instance rebuilt in the
        // first one's place, at the benchmark's 8×20 (two passes below a
        // finite cut-off) and 9×5 (one pass). A cache keyed by shape, or by
        // the bound's address, would replay the wrong rows here. 131
        // entries make three blocks: 64 + 64 + 3.
        let (mut dispatched, mut portable) = (BoundScratch::new(), BoundScratch::new());
        for (n, m) in [(8, 20), (9, 5)] {
            let insts = [21, 22, 23].map(|seed| generate("t", n, m, seed));
            let families = insts.each_ref().map(|inst| Family::new(inst, 131));
            let mut check = |lb: &JohnsonLowerBound, which: usize, call: &str| {
                let family = &families[which];
                let exact = family.exact(lb);
                for cutoff in cutoffs(&exact) {
                    let at = format!("{n}x{m}, {call}, cut-off {cutoff}");
                    let scratches = (&mut dispatched, &mut portable);
                    family.bound_checked(lb, scratches, exact.len(), &exact, cutoff, &at);
                }
            };
            let mut first = JohnsonLowerBound::new(&insts[0]);
            let second = JohnsonLowerBound::new(&insts[1]);
            for round in 0..2 {
                check(&first, 0, &format!("first bound, round {round}"));
                check(&first.clone(), 0, &format!("its clone, round {round}"));
                check(&second, 1, &format!("second bound, round {round}"));
            }
            check(&first, 0, "first bound again");
            first = JohnsonLowerBound::new(&insts[2]);
            check(&first, 2, "a third bound in the first one's place");
        }
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn a_child_of_a_scheduled_job_panics() {
        let inst = generate("t", 4, 3, 2);
        let lb = JohnsonLowerBound::new(&inst);
        lb.bound_children(
            &mut BoundScratch::new(),
            &[Prefix::new(&inst, &[2])],
            &[Child::new(0, 2)],
            &mut [0],
            Time::MAX,
        );
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
