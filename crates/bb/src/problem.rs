//! The problem definition consumed by every solver in the workspace: the
//! branching and bounding operators for the permutation Flow-Shop.

use crate::node::FspNode;
use fsp::bound::LowerBound;
use fsp::{BoundScratch, Instance, JohnsonLowerBound, OneMachineBound, Time};
use std::sync::Arc;

/// A lower bound evaluated directly on a [`FspNode`] (front + scheduled set),
/// avoiding the construction of a borrowing `PartialSchedule`.
///
/// Implemented for the two bounds shipped by the `fsp` crate; custom bounds
/// only need [`NodeBound::bound_node`] and [`NodeBound::bound_name`].
pub trait NodeBound: Send + Sync {
    /// Lower bound on the makespan of every completion of `node`.
    fn bound_node(&self, node: &FspNode) -> Time;

    /// Lower bounds of `nodes` into `out`, in input order — the bounding
    /// operator over a batch. Must equal [`NodeBound::bound_node`] node for
    /// node; the default does exactly that, one node at a time, and the
    /// Johnson bound overrides it with its several-nodes-per-pass entry
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `nodes` differ in length.
    fn bound_nodes(&self, nodes: &[FspNode], out: &mut [Time]) {
        assert_eq!(nodes.len(), out.len(), "one output slot per node");
        for (node, slot) in nodes.iter().zip(out) {
            *slot = self.bound_node(node);
        }
    }

    /// Short name used in experiment reports.
    fn bound_name(&self) -> &'static str;
}

impl NodeBound for JohnsonLowerBound {
    fn bound_node(&self, node: &FspNode) -> Time {
        self.bound_prefix_fn(node.front(), |j| node.is_scheduled(j))
    }

    fn bound_nodes(&self, nodes: &[FspNode], out: &mut [Time]) {
        self.bound_many(&mut BoundScratch::new(), nodes, out, Time::MAX);
    }

    fn bound_name(&self) -> &'static str {
        "johnson-lb"
    }
}

impl NodeBound for OneMachineBound {
    fn bound_node(&self, node: &FspNode) -> Time {
        self.bound_prefix_fn(node.front(), |j| node.is_scheduled(j))
    }

    fn bound_name(&self) -> &'static str {
        "one-machine-lb"
    }
}

impl<B: NodeBound + ?Sized> NodeBound for Arc<B> {
    fn bound_node(&self, node: &FspNode) -> Time {
        (**self).bound_node(node)
    }
    fn bound_nodes(&self, nodes: &[FspNode], out: &mut [Time]) {
        (**self).bound_nodes(nodes, out)
    }
    fn bound_name(&self) -> &'static str {
        (**self).bound_name()
    }
}

/// The Flow-Shop B&B problem: an instance plus a lower-bound function.
///
/// This couples the **branching** operator (one child per unscheduled job,
/// exactly the decomposition of Section II-B of the paper) with the
/// **bounding** operator (the pluggable [`NodeBound`]).
#[derive(Clone)]
pub struct FspProblem<B = JohnsonLowerBound> {
    inst: Arc<Instance>,
    bound: Arc<B>,
}

impl FspProblem<JohnsonLowerBound> {
    /// Creates a problem with the paper's Johnson-based lower bound.
    pub fn new(inst: Instance) -> Self {
        let bound = JohnsonLowerBound::new(&inst);
        Self {
            inst: Arc::new(inst),
            bound: Arc::new(bound),
        }
    }
}

impl<B: NodeBound> FspProblem<B> {
    /// Creates a problem with a custom lower bound.
    pub fn with_bound(inst: Instance, bound: B) -> Self {
        Self {
            inst: Arc::new(inst),
            bound: Arc::new(bound),
        }
    }

    /// Creates a problem sharing an already-wrapped instance and bound.
    pub fn from_parts(inst: Arc<Instance>, bound: Arc<B>) -> Self {
        Self { inst, bound }
    }

    /// The instance being solved.
    pub fn instance(&self) -> &Arc<Instance> {
        &self.inst
    }

    /// The lower-bound function.
    pub fn bound_fn(&self) -> &Arc<B> {
        &self.bound
    }

    /// The root node (empty schedule).
    pub fn root(&self) -> FspNode {
        FspNode::root(&self.inst)
    }

    /// The **branching** operator: one child per unscheduled job, scheduled
    /// next. Children inherit the parent's bound and must be re-bounded.
    pub fn branch(&self, node: &FspNode) -> Vec<FspNode> {
        let mut children = Vec::new();
        self.branch_into(node, &mut children);
        children
    }

    /// [`Self::branch`] into a caller-owned buffer, so batch loops (the
    /// serial solver's iteration, the off-load engines' pool filling) reuse
    /// one allocation across iterations. Children are appended; the buffer is
    /// not cleared.
    pub fn branch_into(&self, node: &FspNode, out: &mut Vec<FspNode>) {
        out.reserve(node.remaining(&self.inst));
        out.extend(node.unscheduled().map(|job| node.child(&self.inst, job)));
    }

    /// The **bounding** operator: evaluates and records the node's lower
    /// bound, returning it.
    pub fn bound(&self, node: &mut FspNode) -> Time {
        let lb = self.bound.bound_node(node);
        node.set_bound(lb);
        lb
    }

    /// Lower bound without mutating the node.
    pub fn bound_value(&self, node: &FspNode) -> Time {
        self.bound.bound_node(node)
    }

    /// `true` when the node is a complete schedule.
    pub fn is_leaf(&self, node: &FspNode) -> bool {
        node.is_complete(&self.inst)
    }

    /// Cost (makespan) of a complete schedule.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the node is not complete.
    pub fn leaf_cost(&self, node: &FspNode) -> Time {
        debug_assert!(self.is_leaf(node));
        node.prefix_makespan()
    }

    /// A good initial upper bound from the NEH heuristic, with the
    /// corresponding schedule.
    pub fn initial_upper_bound(&self) -> (Vec<fsp::Job>, Time) {
        fsp::neh::neh(&self.inst)
    }
}

/// A problem with the Johnson bound is the default configuration used by the
/// examples and benches.
pub type DefaultProblem = FspProblem<JohnsonLowerBound>;

/// Convenience wrapper: evaluate the problem's bound through the generic
/// [`LowerBound`] trait of the `fsp` crate (used in cross-checking tests).
pub fn bound_via_partial_schedule<B: LowerBound>(
    inst: &Instance,
    bound: &B,
    prefix: &[fsp::Job],
) -> Time {
    let sched = fsp::PartialSchedule::from_prefix(inst, prefix);
    bound.bound(&sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::taillard::generate;

    #[test]
    fn branching_creates_one_child_per_remaining_job() {
        let prob = FspProblem::new(generate("t", 7, 4, 3));
        let root = prob.root();
        let children = prob.branch(&root);
        assert_eq!(children.len(), 7);
        let grandchildren = prob.branch(&children[2]);
        assert_eq!(grandchildren.len(), 6);
        // Every child schedules a distinct job first.
        let firsts: std::collections::HashSet<_> =
            children.iter().map(|c| c.prefix_vec()[0]).collect();
        assert_eq!(firsts.len(), 7);
    }

    #[test]
    fn bounding_records_the_bound() {
        let prob = FspProblem::new(generate("t", 7, 4, 3));
        let mut root = prob.root();
        let lb = prob.bound(&mut root);
        assert!(lb > 0);
        assert_eq!(root.bound(), lb);
        assert_eq!(prob.bound_value(&root), lb);
    }

    #[test]
    fn node_bound_matches_partial_schedule_bound() {
        let inst = generate("t", 9, 5, 17);
        let prob = FspProblem::new(inst.clone());
        let node = FspNode::from_prefix(prob.instance(), &[4, 1, 7]);
        let via_node = prob.bound_value(&node);
        let via_sched = bound_via_partial_schedule(&inst, prob.bound_fn().as_ref(), &[4, 1, 7]);
        assert_eq!(via_node, via_sched);
    }

    #[test]
    fn leaf_detection_and_cost() {
        let inst = generate("t", 4, 3, 5);
        let prob = FspProblem::new(inst);
        let leaf = FspNode::from_prefix(prob.instance(), &[3, 1, 0, 2]);
        assert!(prob.is_leaf(&leaf));
        assert_eq!(
            prob.leaf_cost(&leaf),
            fsp::makespan(prob.instance(), &[3, 1, 0, 2])
        );
    }

    #[test]
    fn initial_upper_bound_is_a_valid_schedule() {
        let prob = FspProblem::new(generate("t", 12, 6, 31));
        let (perm, ub) = prob.initial_upper_bound();
        assert_eq!(fsp::makespan(prob.instance(), &perm), ub);
    }

    #[test]
    fn custom_bound_is_used() {
        let inst = generate("t", 8, 4, 11);
        let weak = FspProblem::with_bound(inst.clone(), OneMachineBound::new(&inst));
        let strong = FspProblem::new(inst);
        let mut a = weak.root();
        let mut b = strong.root();
        assert!(weak.bound(&mut a) <= strong.bound(&mut b));
        assert_eq!(weak.bound_fn().bound_name(), "one-machine-lb");
    }
}
