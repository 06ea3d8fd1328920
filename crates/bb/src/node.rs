//! The B&B tree node for the permutation Flow-Shop problem.
//!
//! A node is a *sub-problem*: the jobs of a prefix are fixed (in order) on
//! every machine and the remaining jobs are still to be scheduled. The node
//! carries the per-machine completion times of its prefix (the *front*), the
//! set of scheduled jobs and its lower bound — everything the four B&B
//! operators and the GPU off-load engine need, without back-references to the
//! parent.

use crate::bitset::JobSet;
use fsp::{Instance, Job, Time};

/// A sub-problem of the Flow-Shop B&B tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FspNode {
    /// Scheduled prefix, in processing order (job indices fit in `u16`).
    prefix: Vec<u16>,
    /// Membership set of the prefix.
    scheduled: JobSet,
    /// Completion time of the prefix on every machine.
    front: Vec<Time>,
    /// Lower bound on the makespan of every completion of this node.
    /// Set by the bounding operator; `0` until then.
    bound: Time,
}

impl FspNode {
    /// The root node: empty schedule, zero front, zero bound.
    pub fn root(inst: &Instance) -> Self {
        Self {
            prefix: Vec::new(),
            scheduled: JobSet::new(inst.jobs()),
            front: vec![0; inst.machines()],
            bound: 0,
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
        assert!(!self.scheduled.contains(job), "job {job} already scheduled");
        let mut prefix = Vec::with_capacity(self.prefix.len() + 1);
        prefix.extend_from_slice(&self.prefix);
        prefix.push(job as u16);
        let mut scheduled = self.scheduled.clone();
        scheduled.insert(job);
        let mut front = self.front.clone();
        let mut prev = 0;
        for (k, c) in front.iter_mut().enumerate() {
            let start = (*c).max(prev);
            *c = start + inst.pt(job, k);
            prev = *c;
        }
        Self {
            prefix,
            scheduled,
            front,
            bound: self.bound,
        }
    }

    /// Scheduled prefix as job indices.
    pub fn prefix(&self) -> impl Iterator<Item = Job> + '_ {
        self.prefix.iter().map(|&j| j as Job)
    }

    /// Scheduled prefix as a freshly allocated `Vec<Job>`.
    pub fn prefix_vec(&self) -> Vec<Job> {
        self.prefix.iter().map(|&j| j as Job).collect()
    }

    /// Raw `u16` prefix — the exact payload the GPU off-load engine copies to
    /// the device.
    pub fn prefix_raw(&self) -> &[u16] {
        &self.prefix
    }

    /// Per-machine completion times of the prefix.
    pub fn front(&self) -> &[Time] {
        &self.front
    }

    /// Number of scheduled jobs (the node's depth in the tree).
    pub fn depth(&self) -> usize {
        self.prefix.len()
    }

    /// Number of jobs still to schedule (`n'` in the paper).
    pub fn remaining(&self, inst: &Instance) -> usize {
        inst.jobs() - self.prefix.len()
    }

    /// `true` when every job is scheduled (the node is a leaf / a complete
    /// schedule).
    pub fn is_complete(&self, inst: &Instance) -> bool {
        self.prefix.len() == inst.jobs()
    }

    /// `true` when `job` belongs to the prefix.
    pub fn is_scheduled(&self, job: Job) -> bool {
        self.scheduled.contains(job)
    }

    /// The set of scheduled jobs.
    pub fn scheduled(&self) -> &JobSet {
        &self.scheduled
    }

    /// Jobs not yet scheduled, in increasing index order — the branching
    /// operator creates one child per element.
    pub fn unscheduled(&self) -> impl Iterator<Item = Job> + '_ {
        self.scheduled.iter_absent()
    }

    /// Makespan of the prefix alone; equals the full makespan for a complete
    /// node.
    pub fn prefix_makespan(&self) -> Time {
        *self.front.last().expect("at least one machine")
    }

    /// The node's lower bound (0 until the bounding operator ran).
    pub fn bound(&self) -> Time {
        self.bound
    }

    /// Records the value computed by the bounding operator.
    pub fn set_bound(&mut self, bound: Time) {
        self.bound = bound;
    }
}

/// The node as the `fsp` batch bound reads it.
impl fsp::SubProblem for FspNode {
    fn front(&self) -> &[Time] {
        &self.front
    }

    fn is_scheduled(&self, job: Job) -> bool {
        self.scheduled.contains(job)
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
    fn prefix_raw_is_u16() {
        let inst = generate("t", 300, 5, 2);
        let node = FspNode::from_prefix(&inst, &[299, 0, 150]);
        assert_eq!(node.prefix_raw(), &[299u16, 0, 150]);
    }
}
