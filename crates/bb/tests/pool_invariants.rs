//! Pool strategy invariants (FIFO order, LIFO order, best-first bound
//! ordering, node conservation) checked over random operation sequences.

use bb::{BestFirstPool, DepthFirstPool, FifoPool, FspNode, Pool, PoolStrategy};
use fsp::taillard::generate;
use proptest::prelude::*;

fn nodes_with_bounds(bounds: &[u32]) -> Vec<FspNode> {
    let inst = generate("pool-inv", bounds.len().max(2), 3, 7);
    bounds
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let mut node = FspNode::from_prefix(&inst, &[i]);
            node.set_bound(b);
            node
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIFO: pop order equals push order, for any bound values.
    #[test]
    fn fifo_pool_preserves_insertion_order(bounds in proptest::collection::vec(1u32..500, 1..9)) {
        let nodes = nodes_with_bounds(&bounds);
        let mut pool = FifoPool::new();
        let expected: Vec<Vec<usize>> = nodes.iter().map(|n| n.prefix_vec()).collect();
        for node in nodes {
            pool.push(node);
        }
        let popped: Vec<Vec<usize>> = std::iter::from_fn(|| pool.pop()).map(|n| n.prefix_vec()).collect();
        prop_assert_eq!(popped, expected);
    }

    /// LIFO (depth-first): pop order is the reverse of push order.
    #[test]
    fn depth_first_pool_is_lifo(bounds in proptest::collection::vec(1u32..500, 1..9)) {
        let nodes = nodes_with_bounds(&bounds);
        let mut pool = DepthFirstPool::new();
        let mut expected: Vec<Vec<usize>> = nodes.iter().map(|n| n.prefix_vec()).collect();
        expected.reverse();
        for node in nodes {
            pool.push(node);
        }
        let popped: Vec<Vec<usize>> = std::iter::from_fn(|| pool.pop()).map(|n| n.prefix_vec()).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Best-first: popped bounds come out in non-decreasing order, whatever
    /// the insertion order was.
    #[test]
    fn best_first_pool_pops_bounds_sorted(bounds in proptest::collection::vec(1u32..500, 1..9)) {
        let nodes = nodes_with_bounds(&bounds);
        let mut pool = BestFirstPool::new();
        for node in nodes {
            pool.push(node);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| pool.pop()).map(|n| n.bound()).collect();
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        prop_assert_eq!(popped, sorted);
    }

    /// Every strategy conserves nodes: what goes in comes out exactly once,
    /// whether popped one at a time, in chunks, or drained.
    #[test]
    fn pools_conserve_nodes(bounds in proptest::collection::vec(1u32..500, 1..12), chunk in 1usize..5) {
        for strategy in [PoolStrategy::BestFirst, PoolStrategy::DepthFirst, PoolStrategy::Fifo] {
            let nodes = nodes_with_bounds(&bounds);
            let mut expected: Vec<Vec<usize>> = nodes.iter().map(|n| n.prefix_vec()).collect();
            expected.sort();

            let mut pool = strategy.build();
            for node in nodes {
                pool.push(node);
            }
            prop_assert_eq!(pool.len(), bounds.len());

            let mut seen: Vec<Vec<usize>> = Vec::new();
            let first_chunk = pool.pop_many(chunk);
            prop_assert_eq!(first_chunk.len(), chunk.min(bounds.len()));
            seen.extend(first_chunk.iter().map(|n| n.prefix_vec()));
            seen.extend(pool.drain_all().iter().map(|n| n.prefix_vec()));
            prop_assert!(pool.is_empty());

            seen.sort();
            prop_assert_eq!(&seen, &expected, "strategy {:?}", strategy);
        }
    }
}
