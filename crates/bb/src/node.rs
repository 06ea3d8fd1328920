//! The B&B tree node for the permutation Flow-Shop problem.
//!
//! A node is a *sub-problem*: the jobs of a prefix are fixed (in order) on
//! every machine and the remaining jobs are still to be scheduled. The node
//! carries the per-machine completion times of its prefix (the *front*), the
//! set of scheduled jobs and its lower bound — everything the four B&B
//! operators and the GPU off-load engine need, without back-references to the
//! parent.
//!
//! # Layout
//!
//! Everything but the bound lives in one heap block of `u32`s, of the same
//! length for every node of an instance:
//!
//! ```text
//! [ front: m times | scheduled set: ⌈n/32⌉ words | prefix: n slots ]
//! ```
//!
//! Bit `j % 32` of set word `j / 32` is one when job `j` is scheduled; the
//! bits past job `n − 1` stay zero. The first `depth` prefix slots hold the
//! scheduled jobs in order and the others stay zero. The job count and the
//! depth sit inline beside the bound (the pools order by depth without
//! reading the block) and the machine count is what the block length
//! leaves. A child therefore costs one allocation, a copy of its parent's
//! block with one more slot filled, and the node the pools move around is
//! 24 bytes on a 64-bit target.
//!
//! One block length per instance means a freed block fits the next child
//! exactly, so the allocator reuses it whole. Blocks of several lengths
//! get split to fit one another, and the remainders stranded beside
//! long-lived allocations pile up as small free chunks no node can use.

use fsp::{Instance, Job, Time};
use std::fmt;

/// Jobs per scheduled-set word.
const WORD_BITS: usize = u32::BITS as usize;

/// A sub-problem of the Flow-Shop B&B tree.
#[derive(Clone, PartialEq, Eq)]
pub struct FspNode {
    /// Front, scheduled-set words and prefix slots, in that order.
    block: Box<[u32]>,
    /// Lower bound on the makespan of every completion of this node.
    /// Set by the bounding operator; `0` until then.
    bound: Time,
    /// Jobs of the instance (`n`), the number of prefix slots.
    jobs: u16,
    /// Scheduled jobs, the filled prefix slots.
    depth: u16,
}

impl FspNode {
    /// The root node: empty schedule, zero front, zero bound.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than `u16::MAX` jobs.
    pub fn root(inst: &Instance) -> Self {
        let (n, m) = (inst.jobs(), inst.machines());
        Self {
            block: vec![0; m + n.div_ceil(WORD_BITS) + n].into_boxed_slice(),
            bound: 0,
            jobs: u16::try_from(n).expect("at most u16::MAX jobs"),
            depth: 0,
        }
    }

    /// Builds a node directly from a prefix (used by tests and the frozen-pool
    /// protocol deserialisation).
    ///
    /// # Panics
    ///
    /// Panics if the prefix repeats a job or references a job `>= n`.
    pub fn from_prefix(inst: &Instance, prefix: &[Job]) -> Self {
        let mut node = Self::root(inst);
        for &j in prefix {
            node = node.child(inst, j);
        }
        node
    }

    /// The child node obtained by scheduling `job` next.
    ///
    /// The child's bound is initialised to the parent's bound (bounds are
    /// monotone along a branch), and must be tightened by the bounding
    /// operator before use.
    ///
    /// # Panics
    ///
    /// Panics if `job` is already scheduled or out of range.
    pub fn child(&self, inst: &Instance, job: Job) -> Self {
        assert!(job < inst.jobs(), "job {job} out of range");
        assert!(!self.is_scheduled(job), "job {job} already scheduled");
        let m = self.machines();
        let mut block = self.block.clone();
        block[self.prefix_start() + self.depth()] = job as u32;
        let mut prev = 0;
        for (c, &p) in block[..m].iter_mut().zip(inst.job_row(job)) {
            *c = (*c).max(prev) + p;
            prev = *c;
        }
        block[m + job / WORD_BITS] |= 1 << (job % WORD_BITS);
        Self {
            block,
            bound: self.bound,
            jobs: self.jobs,
            depth: self.depth + 1,
        }
    }

    /// Index of the first prefix slot in the block (the block ends with
    /// one slot per job).
    #[inline]
    fn prefix_start(&self) -> usize {
        self.block.len() - self.jobs as usize
    }

    /// Machines of the instance (`m`), the length of the front.
    #[inline]
    fn machines(&self) -> usize {
        self.prefix_start() - (self.jobs as usize).div_ceil(WORD_BITS)
    }

    /// The scheduled-set words.
    #[inline]
    fn words(&self) -> &[u32] {
        &self.block[self.machines()..self.prefix_start()]
    }

    /// Scheduled prefix as job indices.
    pub fn prefix(&self) -> impl Iterator<Item = Job> + '_ {
        self.prefix_raw().iter().map(|&j| j as Job)
    }

    /// Scheduled prefix as a freshly allocated `Vec<Job>`.
    pub fn prefix_vec(&self) -> Vec<Job> {
        self.prefix().collect()
    }

    /// Raw prefix, one `u32` per job — what the GPU off-load engine copies
    /// into its flat pool encoding.
    pub fn prefix_raw(&self) -> &[u32] {
        let start = self.prefix_start();
        &self.block[start..start + self.depth()]
    }

    /// Per-machine completion times of the prefix.
    #[inline]
    pub fn front(&self) -> &[Time] {
        &self.block[..self.machines()]
    }

    /// Number of scheduled jobs (the node's depth in the tree).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Number of jobs still to schedule (`n'` in the paper).
    pub fn remaining(&self, inst: &Instance) -> usize {
        inst.jobs() - self.depth()
    }

    /// `true` when every job is scheduled (the node is a leaf / a complete
    /// schedule).
    pub fn is_complete(&self, inst: &Instance) -> bool {
        self.depth() == inst.jobs()
    }

    /// `true` when `job` belongs to the prefix.
    #[inline]
    pub fn is_scheduled(&self, job: Job) -> bool {
        job < self.jobs as usize
            && self.block[self.machines() + job / WORD_BITS] >> (job % WORD_BITS) & 1 != 0
    }

    /// Jobs not yet scheduled, in increasing index order — the branching
    /// operator creates one child per element.
    pub fn unscheduled(&self) -> impl Iterator<Item = Job> + '_ {
        let n = self.jobs as usize;
        self.words().iter().enumerate().flat_map(move |(w, &word)| {
            let base = w * WORD_BITS;
            let valid = match n - base {
                left if left >= WORD_BITS => u32::MAX,
                left => (1 << left) - 1,
            };
            let mut free = !word & valid;
            std::iter::from_fn(move || {
                (free != 0).then(|| {
                    let bit = free.trailing_zeros() as usize;
                    free &= free - 1;
                    base + bit
                })
            })
        })
    }

    /// Makespan of the prefix alone; equals the full makespan for a complete
    /// node.
    pub fn prefix_makespan(&self) -> Time {
        *self.front().last().expect("at least one machine")
    }

    /// The node's lower bound (0 until the bounding operator ran).
    #[inline]
    pub fn bound(&self) -> Time {
        self.bound
    }

    /// Records the value computed by the bounding operator.
    pub fn set_bound(&mut self, bound: Time) {
        self.bound = bound;
    }
}

impl fmt::Debug for FspNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FspNode")
            .field("prefix", &self.prefix_raw())
            .field("front", &self.front())
            .field("bound", &self.bound)
            .finish()
    }
}

/// The node as the `fsp` batch bound reads it.
impl fsp::SubProblem for FspNode {
    fn front(&self) -> &[Time] {
        FspNode::front(self)
    }

    fn is_scheduled(&self, job: Job) -> bool {
        FspNode::is_scheduled(self, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::taillard::generate;
    use fsp::{makespan, makespan_prefix};

    #[test]
    fn root_is_empty() {
        let inst = generate("t", 10, 5, 1);
        let root = FspNode::root(&inst);
        assert_eq!(root.depth(), 0);
        assert_eq!(root.remaining(&inst), 10);
        assert!(!root.is_complete(&inst));
        assert_eq!(root.front(), &[0; 5]);
        assert_eq!(root.unscheduled().count(), 10);
    }

    #[test]
    fn child_front_matches_schedule_recurrence() {
        let inst = generate("t", 8, 4, 7);
        let node = FspNode::root(&inst)
            .child(&inst, 3)
            .child(&inst, 0)
            .child(&inst, 5);
        assert_eq!(node.front(), makespan_prefix(&inst, &[3, 0, 5]).as_slice());
        assert_eq!(node.prefix_vec(), vec![3, 0, 5]);
        assert_eq!(node.depth(), 3);
        assert!(node.is_scheduled(0) && node.is_scheduled(3) && node.is_scheduled(5));
        assert!(!node.is_scheduled(1));
    }

    #[test]
    fn complete_node_makespan() {
        let inst = generate("t", 5, 3, 9);
        let perm = [4, 2, 0, 1, 3];
        let node = FspNode::from_prefix(&inst, &perm);
        assert!(node.is_complete(&inst));
        assert_eq!(node.prefix_makespan(), makespan(&inst, &perm));
    }

    #[test]
    fn unscheduled_complements_prefix() {
        let inst = generate("t", 6, 3, 2);
        let node = FspNode::from_prefix(&inst, &[5, 1]);
        assert_eq!(node.unscheduled().collect::<Vec<_>>(), vec![0, 2, 3, 4]);
    }

    #[test]
    fn bound_is_settable_and_inherited() {
        let inst = generate("t", 6, 3, 2);
        let mut node = FspNode::root(&inst);
        node.set_bound(123);
        let child = node.child(&inst, 0);
        assert_eq!(child.bound(), 123);
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn child_of_scheduled_job_panics() {
        let inst = generate("t", 4, 3, 2);
        let node = FspNode::from_prefix(&inst, &[1]);
        node.child(&inst, 1);
    }

    #[test]
    fn jobs_past_the_instance_are_never_scheduled() {
        let inst = generate("t", 33, 2, 2);
        let node = FspNode::from_prefix(&inst, &[32, 0]);
        assert!(node.is_scheduled(32));
        assert!(!node.is_scheduled(33));
        assert!(!node.is_scheduled(64));
        assert!(!node.is_scheduled(1_000));
        assert_eq!(node.unscheduled().last(), Some(31));
    }

    #[test]
    fn prefix_raw_keeps_large_job_indices() {
        let inst = generate("t", 300, 5, 2);
        let node = FspNode::from_prefix(&inst, &[299, 0, 150]);
        assert_eq!(node.prefix_raw(), &[299, 0, 150]);
    }

    #[test]
    fn a_node_is_a_boxed_block_beside_the_bound() {
        // Slice pointer and length, then the bound, the job count and the
        // depth.
        let expected = 2 * std::mem::size_of::<usize>() + 8;
        assert_eq!(std::mem::size_of::<FspNode>(), expected);
    }

    #[test]
    fn every_node_of_an_instance_has_one_block_length() {
        let inst = generate("t", 33, 4, 5);
        let root = FspNode::root(&inst);
        let mut node = root.clone();
        for job in (0..33).rev() {
            node = node.child(&inst, job);
            assert_eq!(node.block.len(), root.block.len());
        }
    }
}
