//! Pools of pending (generated but not yet examined) sub-problems.
//!
//! The **selection** operator of a B&B algorithm is a policy over this pool:
//! best-first picks the node with the smallest lower bound (what the paper
//! uses to build the pools off-loaded to the GPU; a bucket queue keyed by
//! bound), depth-first dives along a branch (memory-frugal, used to build
//! the frozen pool), FIFO explores in generation order.

use crate::node::FspNode;
use std::collections::VecDeque;

/// Selection strategy, used to construct a pool generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolStrategy {
    /// Smallest lower bound first (the paper's choice).
    BestFirst,
    /// Deepest node first, ties by insertion order (LIFO).
    DepthFirst,
    /// Generation order (FIFO / breadth-ish).
    Fifo,
}

impl PoolStrategy {
    /// Builds an empty pool implementing this strategy.
    pub fn build(self) -> Box<dyn Pool> {
        match self {
            PoolStrategy::BestFirst => Box::new(BestFirstPool::new()),
            PoolStrategy::DepthFirst => Box::new(DepthFirstPool::new()),
            PoolStrategy::Fifo => Box::new(FifoPool::new()),
        }
    }
}

/// A pool of pending sub-problems.
pub trait Pool: Send {
    /// Inserts a node.
    fn push(&mut self, node: FspNode);
    /// Removes and returns the next node according to the pool's strategy.
    fn pop(&mut self) -> Option<FspNode>;
    /// Number of pending nodes.
    fn len(&self) -> usize;
    /// `true` when no node is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes up to `max` nodes at once (the pool chunk off-loaded to the
    /// GPU in one iteration).
    fn pop_many(&mut self, max: usize) -> Vec<FspNode> {
        let mut out = Vec::with_capacity(max.min(self.len()));
        while out.len() < max {
            match self.pop() {
                Some(n) => out.push(n),
                None => break,
            }
        }
        out
    }
    /// Drains every pending node (used to snapshot the frozen pool).
    fn drain_all(&mut self) -> Vec<FspNode> {
        self.pop_many(usize::MAX)
    }
}

/// No slot: the end of a list or of the free list.
const NIL: u32 = u32::MAX;

/// Best-first pool: the node with the smallest lower bound first; ties go
/// to the deeper node (closer to a leaf), then to the older insertion.
///
/// A bucket queue over small integer keys (Dial, CACM 1969): bucket `b`
/// holds the nodes of bound `base + b`, as one FIFO list per depth. The
/// lists are threaded through one slab of node slots, so a push or pop
/// allocates nothing once the slab and buckets have grown. A pop takes the
/// head of the deepest non-empty list of the lowest non-empty bucket, which
/// is the total order above, so the pop sequence is that of a binary heap
/// keyed by `(bound, Reverse(depth), insertion)`, in O(1) amortised per
/// operation instead of O(log n).
///
/// The buckets span the pending bounds, so memory grows with their range,
/// not their count: in a search that range lies between the root bound and
/// the incumbent, and every bound is at most the instance's total
/// processing time.
pub struct BestFirstPool {
    /// Node slots; a vacant slot is on the free list.
    slots: Vec<Slot>,
    /// Head of the free list of vacant slots.
    free: u32,
    /// Bucket `b` holds the nodes of bound `base + b`.
    buckets: Vec<Bucket>,
    /// The bound of bucket 0.
    base: fsp::Time,
    /// The lowest non-empty bucket while the pool is non-empty.
    min: usize,
    /// Pending nodes.
    len: usize,
}

/// A node slot: the node and the next slot of its list.
struct Slot {
    node: Option<FspNode>,
    next: u32,
}

/// The nodes of one bound: one FIFO list per depth.
#[derive(Default)]
struct Bucket {
    /// `(head, tail)` slot of the list of each depth.
    lists: Vec<(u32, u32)>,
    /// At least the deepest non-empty list.
    top: usize,
    /// Nodes in the bucket.
    len: usize,
}

impl BestFirstPool {
    /// Creates an empty best-first pool.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            buckets: Vec::new(),
            base: 0,
            min: 0,
            len: 0,
        }
    }

    /// Smallest pending lower bound, if any (the global "frontier" bound).
    pub fn best_bound(&self) -> Option<fsp::Time> {
        (self.len > 0).then(|| self.base + self.min as fsp::Time)
    }

    /// The bucket of `bound`, made to exist: a refill after the pool ran
    /// empty starts from it, and a bound below the lowest bucket prepends
    /// empty ones.
    fn bucket_of(&mut self, bound: fsp::Time) -> usize {
        if self.len == 0 {
            self.base = bound;
        } else if bound < self.base {
            let grow = (self.base - bound) as usize;
            self.buckets
                .splice(0..0, std::iter::repeat_with(Bucket::default).take(grow));
            self.base = bound;
            self.min += grow;
        }
        let b = (bound - self.base) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize_with(b + 1, Bucket::default);
        }
        b
    }
}

impl Default for BestFirstPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool for BestFirstPool {
    fn push(&mut self, node: FspNode) {
        let b = self.bucket_of(node.bound());
        let depth = node.depth();
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot {
                    node: Some(node),
                    next: NIL,
                });
                u32::try_from(self.slots.len() - 1).expect("fewer than u32::MAX pending nodes")
            }
            free => {
                let vacant = &mut self.slots[free as usize];
                self.free = vacant.next;
                *vacant = Slot {
                    node: Some(node),
                    next: NIL,
                };
                free
            }
        };
        let bucket = &mut self.buckets[b];
        if depth >= bucket.lists.len() {
            bucket.lists.resize(depth + 1, (NIL, NIL));
        }
        match &mut bucket.lists[depth] {
            (NIL, _) => bucket.lists[depth] = (slot, slot),
            (_, tail) => {
                self.slots[*tail as usize].next = slot;
                *tail = slot;
            }
        }
        bucket.top = bucket.top.max(depth);
        bucket.len += 1;
        if self.len == 0 || b < self.min {
            self.min = b;
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<FspNode> {
        if self.len == 0 {
            return None;
        }
        let bucket = &mut self.buckets[self.min];
        while bucket.lists[bucket.top].0 == NIL {
            bucket.top -= 1;
        }
        let list = &mut bucket.lists[bucket.top];
        let slot = &mut self.slots[list.0 as usize];
        let node = slot.node.take();
        let head = list.0;
        list.0 = std::mem::replace(&mut slot.next, self.free);
        self.free = head;
        bucket.len -= 1;
        self.len -= 1;
        if bucket.len == 0 && self.len > 0 {
            self.min += self.buckets[self.min..]
                .iter()
                .position(|bucket| bucket.len > 0)
                .expect("a non-empty pool has a non-empty bucket");
        }
        node
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Depth-first pool: a LIFO stack.
pub struct DepthFirstPool {
    stack: Vec<FspNode>,
}

impl DepthFirstPool {
    /// Creates an empty depth-first pool.
    pub fn new() -> Self {
        Self { stack: Vec::new() }
    }
}

impl Default for DepthFirstPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool for DepthFirstPool {
    fn push(&mut self, node: FspNode) {
        self.stack.push(node);
    }

    fn pop(&mut self) -> Option<FspNode> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// FIFO pool: nodes are examined in generation order.
pub struct FifoPool {
    queue: VecDeque<FspNode>,
}

impl FifoPool {
    /// Creates an empty FIFO pool.
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }
}

impl Default for FifoPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Pool for FifoPool {
    fn push(&mut self, node: FspNode) {
        self.queue.push_back(node);
    }

    fn pop(&mut self) -> Option<FspNode> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::taillard::generate;

    fn node_with_bound(inst: &fsp::Instance, prefix: &[usize], bound: fsp::Time) -> FspNode {
        let mut n = FspNode::from_prefix(inst, prefix);
        n.set_bound(bound);
        n
    }

    #[test]
    fn best_first_pops_smallest_bound() {
        let inst = generate("t", 6, 3, 1);
        let mut pool = BestFirstPool::new();
        pool.push(node_with_bound(&inst, &[0], 50));
        pool.push(node_with_bound(&inst, &[1], 20));
        pool.push(node_with_bound(&inst, &[2], 35));
        assert_eq!(pool.best_bound(), Some(20));
        assert_eq!(pool.pop().unwrap().bound(), 20);
        assert_eq!(pool.pop().unwrap().bound(), 35);
        assert_eq!(pool.pop().unwrap().bound(), 50);
        assert!(pool.pop().is_none());
    }

    #[test]
    fn best_first_ties_prefer_deeper_nodes() {
        let inst = generate("t", 6, 3, 1);
        let mut pool = BestFirstPool::new();
        pool.push(node_with_bound(&inst, &[0], 30));
        pool.push(node_with_bound(&inst, &[1, 2, 3], 30));
        assert_eq!(pool.pop().unwrap().depth(), 3);
    }

    #[test]
    fn depth_first_is_lifo() {
        let inst = generate("t", 6, 3, 1);
        let mut pool = DepthFirstPool::new();
        pool.push(node_with_bound(&inst, &[0], 1));
        pool.push(node_with_bound(&inst, &[1], 2));
        assert_eq!(pool.pop().unwrap().prefix_vec(), vec![1]);
        assert_eq!(pool.pop().unwrap().prefix_vec(), vec![0]);
    }

    #[test]
    fn fifo_is_fifo() {
        let inst = generate("t", 6, 3, 1);
        let mut pool = FifoPool::new();
        pool.push(node_with_bound(&inst, &[0], 1));
        pool.push(node_with_bound(&inst, &[1], 2));
        assert_eq!(pool.pop().unwrap().prefix_vec(), vec![0]);
        assert_eq!(pool.pop().unwrap().prefix_vec(), vec![1]);
    }

    #[test]
    fn pop_many_respects_limit_and_order() {
        let inst = generate("t", 8, 3, 1);
        let mut pool = BestFirstPool::new();
        for (i, b) in [40, 10, 30, 20].iter().enumerate() {
            pool.push(node_with_bound(&inst, &[i], *b));
        }
        let chunk = pool.pop_many(3);
        assert_eq!(chunk.len(), 3);
        let bounds: Vec<_> = chunk.iter().map(|n| n.bound()).collect();
        assert_eq!(bounds, vec![10, 20, 30]);
        assert_eq!(pool.len(), 1);
        let rest = pool.drain_all();
        assert_eq!(rest.len(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn strategy_builder_builds_the_right_pool() {
        let inst = generate("t", 6, 3, 1);
        for strategy in [
            PoolStrategy::BestFirst,
            PoolStrategy::DepthFirst,
            PoolStrategy::Fifo,
        ] {
            let mut pool = strategy.build();
            assert!(pool.is_empty());
            pool.push(node_with_bound(&inst, &[0], 5));
            assert_eq!(pool.len(), 1);
            assert!(pool.pop().is_some());
        }
    }
}
