//! The B&B tree node for the permutation Flow-Shop problem.
//!
//! A node is a *sub-problem*: the jobs of a prefix are fixed (in order) on
//! every machine and the remaining jobs are still to be scheduled. The node
//! carries the per-machine completion times of its prefix (the *front*), the
//! set of scheduled jobs and its lower bound — everything the four B&B
//! operators and the GPU off-load engine need, without back-references to the
//! parent.

use fsp::{Instance, Job, Time};

/// A sub-problem of the Flow-Shop B&B tree.
///
/// The whole node lives in one allocation, `data`: the front (`machines`
/// words), then the scheduled set (one bit per job, `⌈jobs/32⌉` words), then
/// the prefix, two jobs per word (the earlier job in the low half). A child
/// therefore costs one allocation, and the node itself is 32 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FspNode {
    data: Box<[u32]>,
    machines: u32,
    jobs: u32,
    /// Number of scheduled jobs.
    depth: u32,
    /// Lower bound on the makespan of every completion of this node.
    /// Set by the bounding operator; `0` until then.
    bound: Time,
}

impl FspNode {
    /// The root node: empty schedule, zero front, zero bound.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 65,536 jobs (a prefix entry is
    /// 16 bits).
    pub fn root(inst: &Instance) -> Self {
        assert!(
            inst.jobs() <= 1 << 16,
            "{} jobs: a node holds at most 65536",
            inst.jobs()
        );
        Self {
            data: vec![0; inst.machines() + inst.jobs().div_ceil(32)].into_boxed_slice(),
            machines: inst.machines() as u32,
            jobs: inst.jobs() as u32,
            depth: 0,
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
        let mut child = self.extended(job);
        let mut prev = 0;
        for (c, &p) in child.data[..inst.machines()]
            .iter_mut()
            .zip(inst.job_row(job))
        {
            *c = (*c).max(prev) + p;
            prev = *c;
        }
        child
    }

    /// Appends the front of [`Self::child`]`(inst, job)` to `out` for each
    /// job of `jobs`, in order, without building the children.
    pub fn push_children_fronts(&self, inst: &Instance, jobs: &[Job], out: &mut Vec<Time>) {
        const CHAINS: usize = 4;
        let m = self.machines as usize;
        let start = out.len();
        out.resize(start + jobs.len() * m, 0);
        // The recurrences of different children are independent: run four
        // side by side so that the CPU overlaps their max-add chains.
        for (jobs, fronts) in jobs.chunks(CHAINS).zip(out[start..].chunks_mut(CHAINS * m)) {
            let rows: [&[Time]; CHAINS] =
                std::array::from_fn(|l| inst.job_row(jobs[l.min(jobs.len() - 1)]));
            let mut prev = [0; CHAINS];
            for (k, &f) in self.front().iter().enumerate() {
                for l in 0..CHAINS {
                    prev[l] = f.max(prev[l]) + rows[l][k];
                }
                for (l, &t) in prev.iter().enumerate().take(jobs.len()) {
                    fronts[l * m + k] = t;
                }
            }
        }
    }

    /// [`Self::child`] from a front already computed by
    /// [`Self::push_children_fronts`].
    ///
    /// # Panics
    ///
    /// Panics if `job` is already scheduled or out of range, or if `front`
    /// does not have one entry per machine.
    pub fn child_with_front(&self, job: Job, front: &[Time]) -> Self {
        let mut child = self.extended(job);
        child.data[..self.machines as usize].copy_from_slice(front);
        child
    }

    /// A copy of this node with `job` appended to its prefix and set; the
    /// front is the parent's, for the caller to advance.
    fn extended(&self, job: Job) -> Self {
        assert!(job < self.jobs as usize, "job {job} out of range");
        assert!(!self.is_scheduled(job), "job {job} already scheduled");
        let depth = self.depth as usize;
        let prefix_at = self.prefix_offset() + depth / 2;
        let mut data = Vec::with_capacity(prefix_at + 1);
        data.extend_from_slice(&self.data);
        data.resize(prefix_at + 1, 0);
        data[self.machines as usize + job / 32] |= 1 << (job % 32);
        data[prefix_at] |= (job as u32) << (16 * (depth % 2));
        Self {
            data: data.into_boxed_slice(),
            depth: self.depth + 1,
            ..*self
        }
    }

    /// Index of the first prefix word in `data`.
    fn prefix_offset(&self) -> usize {
        self.machines as usize + (self.jobs as usize).div_ceil(32)
    }

    /// Scheduled prefix as job indices.
    pub fn prefix(&self) -> impl Iterator<Item = Job> + '_ {
        let words = &self.data[self.prefix_offset()..];
        (0..self.depth as usize).map(move |i| ((words[i / 2] >> (16 * (i % 2))) & 0xFFFF) as Job)
    }

    /// Scheduled prefix as a freshly allocated `Vec<Job>`.
    pub fn prefix_vec(&self) -> Vec<Job> {
        self.prefix().collect()
    }

    /// Per-machine completion times of the prefix.
    #[inline]
    pub fn front(&self) -> &[Time] {
        &self.data[..self.machines as usize]
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
            && (self.data[self.machines as usize + job / 32] >> (job % 32)) & 1 != 0
    }

    /// Jobs not yet scheduled, in increasing index order — the branching
    /// operator creates one child per element.
    pub fn unscheduled(&self) -> impl Iterator<Item = Job> + '_ {
        let m = self.machines as usize;
        let set = &self.data[m..self.prefix_offset()];
        let jobs = self.jobs as usize;
        set.iter().enumerate().flat_map(move |(w, &word)| {
            let mut absent = !word;
            std::iter::from_fn(move || {
                let job = w * 32 + absent.trailing_zeros() as usize;
                (absent != 0 && job < jobs).then(|| {
                    absent &= absent - 1;
                    job
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
    fn child_with_a_pushed_front_equals_child() {
        let inst = generate("t", 9, 4, 3);
        let node = FspNode::from_prefix(&inst, &[6, 2]);
        let jobs: Vec<Job> = node.unscheduled().collect();
        for len in 0..=jobs.len() {
            let mut fronts = vec![9];
            node.push_children_fronts(&inst, &jobs[..len], &mut fronts);
            assert_eq!(fronts.len(), 1 + 4 * len);
            for (&job, front) in jobs.iter().zip(fronts[1..].chunks_exact(4)) {
                assert_eq!(node.child_with_front(job, front), node.child(&inst, job));
            }
        }
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
    fn prefix_and_set_hold_every_job_index() {
        let inst = generate("t", 300, 5, 2);
        let node = FspNode::from_prefix(&inst, &[299, 0, 150, 31, 32]);
        assert_eq!(node.prefix_vec(), vec![299, 0, 150, 31, 32]);
        assert_eq!(node.unscheduled().count(), 295);
        assert!([299, 0, 150, 31, 32].iter().all(|&j| node.is_scheduled(j)));
        assert!(!node.is_scheduled(300) && !node.is_scheduled(1 << 20));
        let big = fsp::Instance::new("big", 1 << 16, 1, vec![1; 1 << 16]);
        let node = FspNode::from_prefix(&big, &[65_535, 7]);
        assert_eq!(node.prefix_vec(), vec![65_535, 7]);
        assert_eq!(node.front(), &[2]);
    }
}
