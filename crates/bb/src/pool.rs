//! Pools of pending (generated but not yet examined) sub-problems.
//!
//! The **selection** operator of a B&B algorithm is a policy over this pool:
//! best-first picks the node with the smallest lower bound (what the paper
//! uses to build the pools off-loaded to the GPU), depth-first dives along a
//! branch (memory-frugal, used to build the frozen pool), FIFO explores in
//! generation order.
//!
//! A pool holds [`FspNode`]s unless told otherwise: any [`PoolItem`] works,
//! which lets the serial solver keep a compact pending-child record instead
//! of a materialised node.

use crate::node::FspNode;
use fsp::Time;
use std::collections::{BinaryHeap, VecDeque};

/// What a pool needs to know about a pending sub-problem to order it.
pub trait PoolItem: Send {
    /// The sub-problem's lower bound.
    fn bound(&self) -> Time;
    /// Its depth (number of scheduled jobs).
    fn depth(&self) -> usize;
}

impl PoolItem for FspNode {
    fn bound(&self) -> Time {
        FspNode::bound(self)
    }
    fn depth(&self) -> usize {
        FspNode::depth(self)
    }
}

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
    pub fn build<T: PoolItem + 'static>(self) -> Box<dyn Pool<T>> {
        match self {
            PoolStrategy::BestFirst => Box::new(BestFirstPool::new()),
            PoolStrategy::DepthFirst => Box::new(DepthFirstPool::new()),
            PoolStrategy::Fifo => Box::new(FifoPool::new()),
        }
    }
}

/// A pool of pending sub-problems.
pub trait Pool<T = FspNode>: Send {
    /// Inserts a node.
    fn push(&mut self, node: T);
    /// Removes and returns the next node according to the pool's strategy.
    fn pop(&mut self) -> Option<T>;
    /// Number of pending nodes.
    fn len(&self) -> usize;
    /// `true` when no node is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes up to `max` nodes at once (the pool chunk off-loaded to the
    /// GPU in one iteration).
    fn pop_many(&mut self, max: usize) -> Vec<T> {
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
    fn drain_all(&mut self) -> Vec<T> {
        self.pop_many(usize::MAX)
    }
}

/// Best-first pool: a min-heap on the node's lower bound; ties are broken by
/// preferring deeper nodes (closer to a leaf), then insertion order.
pub struct BestFirstPool<T = FspNode> {
    heap: BinaryHeap<BestFirstEntry<T>>,
    counter: u64,
}

struct BestFirstEntry<T> {
    node: T,
    seq: u64,
}

impl<T: PoolItem> PartialEq for BestFirstEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<T: PoolItem> Eq for BestFirstEntry<T> {}
impl<T: PoolItem> PartialOrd for BestFirstEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: PoolItem> Ord for BestFirstEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert the bound so the smallest bound is
        // popped first; among equal bounds prefer the deeper node; among
        // equal depths, the oldest insertion.
        other
            .node
            .bound()
            .cmp(&self.node.bound())
            .then(self.node.depth().cmp(&other.node.depth()))
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T: PoolItem> BestFirstPool<T> {
    /// Creates an empty best-first pool.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            counter: 0,
        }
    }

    /// Smallest pending lower bound, if any (the global "frontier" bound).
    pub fn best_bound(&self) -> Option<fsp::Time> {
        self.heap.peek().map(|e| e.node.bound())
    }
}

impl<T: PoolItem> Default for BestFirstPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolItem> Pool<T> for BestFirstPool<T> {
    fn push(&mut self, node: T) {
        let seq = self.counter;
        self.counter += 1;
        self.heap.push(BestFirstEntry { node, seq });
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.node)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Depth-first pool: a LIFO stack.
pub struct DepthFirstPool<T = FspNode> {
    stack: Vec<T>,
}

impl<T: PoolItem> DepthFirstPool<T> {
    /// Creates an empty depth-first pool.
    pub fn new() -> Self {
        Self { stack: Vec::new() }
    }
}

impl<T: PoolItem> Default for DepthFirstPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolItem> Pool<T> for DepthFirstPool<T> {
    fn push(&mut self, node: T) {
        self.stack.push(node);
    }

    fn pop(&mut self) -> Option<T> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// FIFO pool: nodes are examined in generation order.
pub struct FifoPool<T = FspNode> {
    queue: VecDeque<T>,
}

impl<T: PoolItem> FifoPool<T> {
    /// Creates an empty FIFO pool.
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }
}

impl<T: PoolItem> Default for FifoPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PoolItem> Pool<T> for FifoPool<T> {
    fn push(&mut self, node: T) {
        self.queue.push_back(node);
    }

    fn pop(&mut self) -> Option<T> {
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
