//! The problem definition consumed by every solver in the workspace: the
//! branching and bounding operators for the permutation Flow-Shop.

use crate::node::FspNode;
use fsp::bound::{with_thread_scratch, LowerBound};
use fsp::{Instance, Job, JohnsonLowerBound, OneMachineBound, Time};
use std::sync::Arc;

/// A lower bound evaluated directly on a [`FspNode`] (front + scheduled set),
/// avoiding the construction of a borrowing `PartialSchedule`.
///
/// Implemented for the two bounds shipped by the `fsp` crate; custom bounds
/// only need [`NodeBound::bound_node`] and [`NodeBound::bound_name`].
pub trait NodeBound: Send + Sync {
    /// Lower bound on the makespan of every completion of `node`.
    fn bound_node(&self, node: &FspNode) -> Time;

    /// Appends the bound of every node of `nodes` to `out`, in input order;
    /// each equals [`NodeBound::bound_node`] of its node. The default bounds
    /// one node at a time; the Johnson bound overrides it with its batch
    /// kernel, which bounds several nodes per pass.
    fn bound_nodes(&self, nodes: &[FspNode], out: &mut Vec<Time>) {
        out.extend(nodes.iter().map(|node| self.bound_node(node)));
    }

    /// Appends, in order, the bound of each child of `parent` that schedules
    /// `jobs[i]` next, whose front is the `i`-th run of `parent.front().len()`
    /// values of `fronts` (as [`FspNode::push_children_fronts`] writes them).
    /// Each equals [`NodeBound::bound_node`] of that child. The default
    /// builds every child; the shipped bounds read the fronts in place.
    fn bound_children(&self, parent: &FspNode, jobs: &[Job], fronts: &[Time], out: &mut Vec<Time>) {
        let fronts = fronts.chunks_exact(parent.front().len());
        out.extend(
            jobs.iter()
                .zip(fronts)
                .map(|(&job, front)| self.bound_node(&parent.child_with_front(job, front))),
        );
    }

    /// Short name used in experiment reports.
    fn bound_name(&self) -> &'static str;
}

impl NodeBound for JohnsonLowerBound {
    fn bound_node(&self, node: &FspNode) -> Time {
        self.bound_prefix_fn(node.front(), |j| node.is_scheduled(j))
    }

    fn bound_nodes(&self, nodes: &[FspNode], out: &mut Vec<Time>) {
        with_thread_scratch(|scratch| {
            self.bound_batch_with(scratch, nodes, FspNode::front, FspNode::is_scheduled, out)
        })
    }

    fn bound_children(&self, parent: &FspNode, jobs: &[Job], fronts: &[Time], out: &mut Vec<Time>) {
        let children: Vec<(Job, &[Time])> = jobs
            .iter()
            .copied()
            .zip(fronts.chunks_exact(parent.front().len()))
            .collect();
        with_thread_scratch(|scratch| {
            self.bound_batch_with(
                scratch,
                &children,
                |&(_, front)| front,
                |&(job, _), j| j == job || parent.is_scheduled(j),
                out,
            )
        })
    }

    fn bound_name(&self) -> &'static str {
        "johnson-lb"
    }
}

impl NodeBound for OneMachineBound {
    fn bound_node(&self, node: &FspNode) -> Time {
        self.bound_prefix_fn(node.front(), |j| node.is_scheduled(j))
    }

    fn bound_children(&self, parent: &FspNode, jobs: &[Job], fronts: &[Time], out: &mut Vec<Time>) {
        let fronts = fronts.chunks_exact(parent.front().len());
        out.extend(jobs.iter().zip(fronts).map(|(&job, front)| {
            self.bound_prefix_fn(front, |j| j == job || parent.is_scheduled(j))
        }));
    }

    fn bound_name(&self) -> &'static str {
        "one-machine-lb"
    }
}

impl<B: NodeBound + ?Sized> NodeBound for Arc<B> {
    fn bound_node(&self, node: &FspNode) -> Time {
        (**self).bound_node(node)
    }
    fn bound_nodes(&self, nodes: &[FspNode], out: &mut Vec<Time>) {
        (**self).bound_nodes(nodes, out)
    }
    fn bound_children(&self, parent: &FspNode, jobs: &[Job], fronts: &[Time], out: &mut Vec<Time>) {
        (**self).bound_children(parent, jobs, fronts, out)
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
        out.extend(node.unscheduled().map(|job| node.child(&self.inst, job)));
    }

    /// The **bounding** operator: evaluates and records the node's lower
    /// bound, returning it.
    pub fn bound(&self, node: &mut FspNode) -> Time {
        let lb = self.bound.bound_node(node);
        node.set_bound(lb);
        lb
    }

    /// The **bounding** operator over a batch: evaluates and records the
    /// lower bound of every node of `nodes` through
    /// [`NodeBound::bound_nodes`].
    pub fn bound_all(&self, nodes: &mut [FspNode]) {
        let mut bounds = Vec::with_capacity(nodes.len());
        self.bound.bound_nodes(nodes, &mut bounds);
        for (node, lb) in nodes.iter_mut().zip(bounds) {
            node.set_bound(lb);
        }
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

    /// `bound_nodes` must append exactly `bound_node` of every node, for
    /// batches shorter and longer than the Johnson kernel's lane count.
    fn assert_batch_matches_single<B: NodeBound>(bound: &B, nodes: &[FspNode]) {
        let single: Vec<Time> = nodes.iter().map(|node| bound.bound_node(node)).collect();
        for len in 0..=nodes.len() {
            let mut batch = vec![7];
            bound.bound_nodes(&nodes[..len], &mut batch);
            assert_eq!(batch[0], 7, "{}: must append", bound.bound_name());
            assert_eq!(
                batch[1..],
                single[..len],
                "{}, {len} nodes",
                bound.bound_name()
            );
        }
    }

    #[test]
    fn bound_nodes_equals_bound_node_per_node() {
        let inst = generate("t", 9, 5, 17);
        let prob = FspProblem::new(inst.clone());
        // Nodes of every depth, complete ones included, in a mixed order.
        let mut nodes = vec![prob.root()];
        let mut parent = prob.root();
        while !prob.is_leaf(&parent) {
            let children = prob.branch(&parent);
            parent = children[children.len() / 2].clone();
            nodes.extend(children);
        }
        nodes.rotate_left(5);
        assert!(nodes.len() > 2 * JohnsonLowerBound::LANES + 1);
        let johnson = JohnsonLowerBound::new(&inst);
        assert_batch_matches_single(&johnson, &nodes);
        assert_batch_matches_single(&Arc::new(johnson), &nodes);
        assert_batch_matches_single(&OneMachineBound::new(&inst), &nodes);
    }

    /// `bound_children` must append exactly `bound_node` of every child,
    /// for a child list longer than the Johnson kernel's lane count and for
    /// the children that complete a schedule.
    fn assert_children_match_single<B: NodeBound>(bound: &B, inst: &Instance, parent: &FspNode) {
        let jobs: Vec<Job> = parent.unscheduled().collect();
        let mut fronts = Vec::new();
        parent.push_children_fronts(inst, &jobs, &mut fronts);
        let mut out = vec![7];
        bound.bound_children(parent, &jobs, &fronts, &mut out);
        let single: Vec<Time> = jobs
            .iter()
            .map(|&job| bound.bound_node(&parent.child(inst, job)))
            .collect();
        assert_eq!(out[0], 7, "{}: must append", bound.bound_name());
        assert_eq!(out[1..], single, "{}", bound.bound_name());
    }

    /// A bound with only the required methods, so it runs the default
    /// `bound_children`.
    struct PerNode(OneMachineBound);

    impl NodeBound for PerNode {
        fn bound_node(&self, node: &FspNode) -> Time {
            self.0.bound_node(node)
        }
        fn bound_name(&self) -> &'static str {
            "per-node"
        }
    }

    #[test]
    fn bound_children_equals_bound_node_per_child() {
        let inst = generate("t", 2 * JohnsonLowerBound::LANES + 1, 5, 23);
        let johnson = JohnsonLowerBound::new(&inst);
        let one_machine = OneMachineBound::new(&inst);
        let per_node = PerNode(one_machine.clone());
        let mut parent = FspNode::root(&inst);
        for job in [5, 0, 16, 2] {
            assert_children_match_single(&johnson, &inst, &parent);
            assert_children_match_single(&Arc::new(johnson.clone()), &inst, &parent);
            assert_children_match_single(&one_machine, &inst, &parent);
            assert_children_match_single(&per_node, &inst, &parent);
            parent = parent.child(&inst, job);
        }
        let last = FspNode::from_prefix(&inst, &(1..inst.jobs()).collect::<Vec<_>>());
        assert_children_match_single(&johnson, &inst, &last);
        assert_children_match_single(&one_machine, &inst, &last);
        assert_children_match_single(&per_node, &inst, &last);
    }

    #[test]
    fn bound_all_records_every_bound() {
        let prob = FspProblem::new(generate("t", 8, 4, 11));
        let mut children = prob.branch(&prob.root());
        prob.bound_all(&mut children);
        for child in &children {
            assert_eq!(child.bound(), prob.bound_value(child));
        }
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
