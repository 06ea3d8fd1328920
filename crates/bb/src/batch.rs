//! A batch of sub-problems to bound, held as decomposed parents plus one
//! `(parent, job)` entry per child.
//!
//! Most children a search bounds are pruned at once, so building each one
//! (a copy of its parent's block with one job appended) would mostly be
//! wasted. A [`Batch`] keeps the parents and lists each child as an 8-byte
//! [`Child`]: the bound advances the parent's front by the job inside its
//! lane ([`JohnsonLowerBound::bound_children`]), and elimination builds an
//! [`FspNode`] only for a child it keeps. An entry whose job is
//! [`Child::PARENT`] is its parent itself, so a plain node slice is also a
//! batch ([`Batch::from_nodes`]).
//!
//! [`JohnsonLowerBound::bound_children`]: fsp::JohnsonLowerBound::bound_children

use crate::node::FspNode;
use fsp::{Child, Instance};
use std::ops::Range;

/// Decomposed parents and the children to bound, as `(parent, job)`
/// entries.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    parents: Vec<FspNode>,
    children: Vec<Child>,
}

impl Batch {
    /// An empty batch with room for `parents` parents and `children`
    /// entries.
    pub fn with_capacity(parents: usize, children: usize) -> Self {
        Self {
            parents: Vec::with_capacity(parents),
            children: Vec::with_capacity(children),
        }
    }

    /// The batch of `nodes` themselves: every entry is its parent.
    pub fn from_nodes(nodes: Vec<FspNode>) -> Self {
        let children = parent_entries(nodes.len());
        Self {
            parents: nodes,
            children,
        }
    }

    /// The **branching** operator into the batch: adds `parent` and one
    /// child per unscheduled job, in increasing job order (the children
    /// [`crate::FspProblem::branch_into`] builds, in its order).
    pub fn branch(&mut self, parent: FspNode) {
        let p = u32::try_from(self.parents.len()).expect("fewer than u32::MAX parents");
        self.children
            .extend(parent.unscheduled().map(|job| Child::new(p, job as u32)));
        self.parents.push(parent);
    }

    /// Entries to bound.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// `true` when there is nothing to bound.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// The decomposed parents.
    pub fn parents(&self) -> &[FspNode] {
        &self.parents
    }

    /// The borrowed view the bounding backends take.
    pub fn view(&self) -> BatchView<'_> {
        BatchView::new(&self.parents, &self.children)
    }
}

/// `len` entries, entry `i` being parent `i` itself: the children of a
/// batch of whole nodes.
pub fn parent_entries(len: usize) -> Vec<Child> {
    let len = u32::try_from(len).expect("fewer than u32::MAX parents");
    (0..len).map(Child::parent_itself).collect()
}

/// A borrowed batch: parents and a range of their `(parent, job)` entries.
/// Slicing it by entry range ([`BatchView::slice`]) keeps every parent, so
/// a shard of a batch is a view of the same parents.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    parents: &'a [FspNode],
    children: &'a [Child],
}

impl<'a> BatchView<'a> {
    /// The view of `children` over `parents`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an entry names a parent out of range.
    pub fn new(parents: &'a [FspNode], children: &'a [Child]) -> Self {
        debug_assert!(
            children.iter().all(|c| (c.parent as usize) < parents.len()),
            "every entry names a parent of the batch"
        );
        Self { parents, children }
    }

    /// Entries in the view.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// `true` when the view has no entry.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Every parent of the batch, including those no entry of this view
    /// names.
    pub fn parents(&self) -> &'a [FspNode] {
        self.parents
    }

    /// The view's entries.
    pub fn children(&self) -> &'a [Child] {
        self.children
    }

    /// The entries of `range`, over the same parents.
    pub fn slice(&self, range: Range<usize>) -> Self {
        Self {
            parents: self.parents,
            children: &self.children[range],
        }
    }

    /// The view cut into consecutive views of `size` entries (the last one
    /// shorter).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = BatchView<'a>> {
        let parents = self.parents;
        self.children
            .chunks(size)
            .map(move |children| BatchView { parents, children })
    }

    /// Depth of every entry, in order: its parent's depth, plus one unless
    /// the entry is the parent itself.
    pub fn depths(&self) -> impl Iterator<Item = usize> + 'a {
        let parents = self.parents;
        self.children
            .iter()
            .map(move |c| parents[c.parent as usize].depth() + usize::from(!c.is_parent_itself()))
    }

    /// Writes entry `i`'s prefix — its parent's, then the job — to the
    /// front of `out` and returns its length.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the prefix.
    pub fn write_prefix(&self, i: usize, out: &mut [u32]) -> usize {
        let child = self.children[i];
        let prefix = self.parents[child.parent as usize].prefix_raw();
        out[..prefix.len()].copy_from_slice(prefix);
        if child.is_parent_itself() {
            prefix.len()
        } else {
            out[prefix.len()] = child.job;
            prefix.len() + 1
        }
    }

    /// Builds entry `i` as a node of `inst`, with its parent's bound.
    pub fn node(&self, i: usize, inst: &Instance) -> FspNode {
        let child = self.children[i];
        let parent = &self.parents[child.parent as usize];
        if child.is_parent_itself() {
            parent.clone()
        } else {
            parent.child(inst, child.job as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FspProblem;
    use fsp::taillard::generate;

    #[test]
    fn branching_lists_the_children_branch_into_builds() {
        let problem = FspProblem::new(generate("t", 7, 4, 3));
        let inst = problem.instance();
        let parents = [
            FspNode::from_prefix(inst, &[2, 5]),
            FspNode::from_prefix(inst, &[0, 1, 3, 4, 6, 5]),
        ];
        let mut batch = Batch::with_capacity(2, 6);
        let mut built = Vec::new();
        for parent in &parents {
            problem.branch_into(parent, &mut built);
            batch.branch(parent.clone());
        }
        let view = batch.view();
        assert_eq!(view.len(), built.len());
        let mut prefix = vec![0; inst.jobs()];
        for (i, child) in built.iter().enumerate() {
            assert_eq!(&view.node(i, inst), child, "entry {i}");
            let len = view.write_prefix(i, &mut prefix);
            assert_eq!(&prefix[..len], child.prefix_raw(), "entry {i}");
        }
        assert!(view.depths().eq(built.iter().map(FspNode::depth)));
    }

    #[test]
    fn a_node_batch_is_its_nodes() {
        let inst = generate("t", 6, 3, 2);
        let nodes = vec![
            FspNode::from_prefix(&inst, &[1]),
            FspNode::from_prefix(&inst, &[4, 0, 2]),
        ];
        let batch = Batch::from_nodes(nodes.clone());
        let view = batch.view();
        assert_eq!(view.len(), 2);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(&view.node(i, &inst), node);
        }
        assert!(view.depths().eq(nodes.iter().map(FspNode::depth)));
        let tail = view.slice(1..2);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.parents().len(), 2);
        assert_eq!(&tail.node(0, &inst), &nodes[1]);
    }
}
